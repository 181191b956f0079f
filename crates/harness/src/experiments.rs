//! Experiment presets: one entry per table and figure of the paper's
//! evaluation section, so `scot-bench exp fig8a` regenerates the corresponding
//! data series.
//!
//! | id     | paper artifact | workload |
//! |--------|----------------|----------|
//! | fig8a  | Figure 8a  | list throughput, key range 512, 50r/50w |
//! | fig8b  | Figure 8b  | list throughput, key range 10,000 |
//! | fig9a  | Figure 9a  | NMTree throughput, key range 128 |
//! | fig9b  | Figure 9b  | NMTree throughput, key range 100,000 |
//! | fig10a | Figure 10a | list unreclaimed objects, key range 512 |
//! | fig10b | Figure 10b | list unreclaimed objects, key range 10,000 |
//! | fig11a | Figure 11a | NMTree unreclaimed objects, key range 128 |
//! | fig11b | Figure 11b | NMTree unreclaimed objects, key range 100,000 |
//! | fig12a | Figure 12a | NMTree throughput, key range 50,000,000 |
//! | fig12b | Figure 12b | NMTree unreclaimed objects, key range 50,000,000 |
//! | tab1   | Table 1    | compatibility matrix (every DS × every SMR) |
//! | tab2   | Table 2    | restart statistics, HP, key range 10,000 |
//! | pool   | (ablation) | block pool on vs off, write-only, HMList + NMTree |
//! | skiplist | (extension) | skip-list 50r/50w sweep over every scheme variant |
//! | scan   | (extension) | guard-scoped range scans, scan-length sweep × every scheme variant |
//! | cursor | (ablation) | hot-path pass: repin elision (`+repin`) vs the per-op pin base |
//! | service | (extension) | phased cache-server soak: Zipfian keys, p50/p99/p999 per op-class |
//!
//! Key ranges and mixes match the paper exactly; thread counts are scaled to
//! the host (`default_thread_counts`), and fig12's 50M-key range can be scaled
//! down with `ExperimentOptions::scale_large_range` so the sweep finishes on
//! small machines while still exceeding cache capacity.

use crate::faults::{run_fault_scenario, FaultKind, FaultPlan, FaultReport};
use crate::kv::run_timed_kv;
use crate::service::{run_service_scenario, ServicePlan, ServiceReport};
use crate::workload::{run_timed, DsKind, Mix, RunConfig, RunResult};
use crate::{default_thread_counts, SmrKind};

use std::time::Duration;

/// Options controlling how a preset is executed.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Seconds per run (the paper uses 10; the default here is 1).
    pub duration: Duration,
    /// Repetitions per configuration; the median throughput is reported, as in
    /// the paper (which uses 5 runs).
    pub runs: usize,
    /// Thread counts to sweep; defaults to [`default_thread_counts`].
    pub threads: Vec<usize>,
    /// Scale factor applied to the 50M key range of Figure 12 (1 = full size).
    pub scale_large_range: u64,
    /// Padding bytes per stored value in the key-value `cache` experiment
    /// (the `--value-bytes` CLI knob).
    pub value_bytes: usize,
    /// Scan-window widths swept by the `scan` experiment (the `--scan-lens`
    /// CLI knob).
    pub scan_lens: Vec<u64>,
    /// Fault classes injected by the `faults` experiment (the `--faults` CLI
    /// knob); defaults to all of [`FaultKind::ALL`].
    pub faults: Vec<FaultKind>,
    /// Zipfian skew exponent used by the `service` experiment's key draws
    /// (the `--zipf-theta` CLI knob; the YCSB-style default is 0.99).
    pub zipf_theta: f64,
    /// Operations per guard pin in the measurement hot loops (the
    /// `--pin-batch` CLI knob).  1 preserves the paper's pin-per-operation
    /// protocol; larger values exercise repin elision.  The `cursor`
    /// ablation's repin arm uses this value when it is above 1, and 16
    /// otherwise.
    pub pin_batch: u64,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            duration: Duration::from_millis(1000),
            runs: 3,
            threads: default_thread_counts(),
            scale_large_range: 50,
            value_bytes: 64,
            scan_lens: vec![16, 64, 256],
            faults: FaultKind::ALL.to_vec(),
            zipf_theta: 0.99,
            pin_batch: 1,
        }
    }
}

impl ExperimentOptions {
    /// Quick mode: short runs, single repetition — used by tests and CI.
    pub fn quick() -> Self {
        Self {
            duration: Duration::from_millis(120),
            runs: 1,
            threads: vec![1, 2],
            scale_large_range: 5_000,
            value_bytes: 64,
            scan_lens: vec![8, 64],
            faults: FaultKind::ALL.to_vec(),
            zipf_theta: 0.99,
            pin_batch: 1,
        }
    }

    /// Base [`RunConfig`] for a preset point with this options set's tuning
    /// knobs (duration, pin batch) already applied.
    fn base_config(&self, threads: usize, key_range: u64) -> RunConfig {
        let mut cfg = RunConfig::paper_default(threads, key_range);
        cfg.duration = self.duration;
        cfg.pin_batch = self.pin_batch;
        cfg
    }
}

/// A fully described experiment (one paper table/figure).
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Identifier (e.g. `fig8a`).
    pub id: &'static str,
    /// Human description matching the paper caption.
    pub description: &'static str,
    /// Data structures compared.
    pub structures: Vec<DsKind>,
    /// Reclamation schemes compared.
    pub schemes: Vec<SmrKind>,
    /// Key range.
    pub key_range: u64,
    /// Whether the headline metric is memory overhead rather than throughput.
    pub memory_metric: bool,
}

/// All experiment identifiers, in paper order (the `pool` ablation, the
/// key-value `cache` workload, the `skiplist` structure sweep and the
/// `faults` robustness validation are this reproduction's own additions and
/// come last).
pub const ALL_EXPERIMENTS: [&str; 19] = [
    "fig8a", "fig8b", "fig9a", "fig9b", "fig10a", "fig10b", "fig11a", "fig11b", "fig12a", "fig12b",
    "tab1", "tab2", "pool", "cache", "skiplist", "scan", "cursor", "faults", "service",
];

/// The scheme list used by the paper's figures, in legend order.
fn paper_schemes() -> Vec<SmrKind> {
    vec![
        SmrKind::Nr,
        SmrKind::Ebr,
        SmrKind::Hp,
        SmrKind::HpOpt,
        SmrKind::Ibr,
        SmrKind::He,
        SmrKind::Hyaline,
    ]
}

/// Robust schemes for which the paper reports memory overhead (Hyaline is
/// skipped, exactly as in §5).
fn memory_schemes() -> Vec<SmrKind> {
    vec![
        SmrKind::Ebr,
        SmrKind::Hp,
        SmrKind::HpOpt,
        SmrKind::Ibr,
        SmrKind::He,
    ]
}

/// Looks up the specification for an experiment id.
pub fn spec(id: &str, opts: &ExperimentOptions) -> Option<ExperimentSpec> {
    let lists = vec![DsKind::HmList, DsKind::ListLf, DsKind::ListWf];
    let tree = vec![DsKind::Tree];
    let large_range = 50_000_000 / opts.scale_large_range.max(1);
    let s = match id {
        "fig8a" => ExperimentSpec {
            id: "fig8a",
            description: "Linked list throughput, 50% read / 50% write, key range 512",
            structures: lists,
            schemes: paper_schemes(),
            key_range: 512,
            memory_metric: false,
        },
        "fig8b" => ExperimentSpec {
            id: "fig8b",
            description: "Linked list throughput, 50% read / 50% write, key range 10,000",
            structures: lists,
            schemes: paper_schemes(),
            key_range: 10_000,
            memory_metric: false,
        },
        "fig9a" => ExperimentSpec {
            id: "fig9a",
            description: "NMTree throughput, 50% read / 50% write, key range 128",
            structures: tree,
            schemes: paper_schemes(),
            key_range: 128,
            memory_metric: false,
        },
        "fig9b" => ExperimentSpec {
            id: "fig9b",
            description: "NMTree throughput, 50% read / 50% write, key range 100,000",
            structures: tree,
            schemes: paper_schemes(),
            key_range: 100_000,
            memory_metric: false,
        },
        "fig10a" => ExperimentSpec {
            id: "fig10a",
            description: "Linked list avg. not-yet-reclaimed objects, key range 512",
            structures: lists,
            schemes: memory_schemes(),
            key_range: 512,
            memory_metric: true,
        },
        "fig10b" => ExperimentSpec {
            id: "fig10b",
            description: "Linked list avg. not-yet-reclaimed objects, key range 10,000",
            structures: lists,
            schemes: memory_schemes(),
            key_range: 10_000,
            memory_metric: true,
        },
        "fig11a" => ExperimentSpec {
            id: "fig11a",
            description: "NMTree avg. not-yet-reclaimed objects, key range 128",
            structures: tree,
            schemes: memory_schemes(),
            key_range: 128,
            memory_metric: true,
        },
        "fig11b" => ExperimentSpec {
            id: "fig11b",
            description: "NMTree avg. not-yet-reclaimed objects, key range 100,000",
            structures: tree,
            schemes: memory_schemes(),
            key_range: 100_000,
            memory_metric: true,
        },
        "fig12a" => ExperimentSpec {
            id: "fig12a",
            description: "NMTree throughput, key range 50,000,000 (out of cache)",
            structures: tree,
            schemes: paper_schemes(),
            key_range: large_range,
            memory_metric: false,
        },
        "fig12b" => ExperimentSpec {
            id: "fig12b",
            description: "NMTree avg. not-yet-reclaimed objects, key range 50,000,000",
            structures: tree,
            schemes: memory_schemes(),
            key_range: large_range,
            memory_metric: true,
        },
        "tab1" => ExperimentSpec {
            id: "tab1",
            description: "Compatibility matrix: every data structure under every SMR scheme",
            structures: DsKind::ALL.to_vec(),
            schemes: SmrKind::ALL.to_vec(),
            key_range: 256,
            memory_metric: false,
        },
        "tab2" => ExperimentSpec {
            id: "tab2",
            description: "Restart statistics under HP, key range 10,000 (Harris-Michael vs Harris)",
            structures: vec![DsKind::HmList, DsKind::ListLf],
            schemes: vec![SmrKind::Hp],
            key_range: 10_000,
            memory_metric: false,
        },
        "pool" => ExperimentSpec {
            id: "pool",
            description: "Block-pool ablation: pool on vs off, write-only, HMList + NMTree",
            structures: vec![DsKind::HmList, DsKind::Tree],
            schemes: vec![SmrKind::Ebr, SmrKind::Hp, SmrKind::Ibr],
            key_range: 512,
            memory_metric: false,
        },
        "cache" => ExperimentSpec {
            id: "cache",
            description:
                "Key-value cache workload: 90% value-returning get, every SMR scheme variant",
            structures: vec![DsKind::HashMap],
            schemes: SmrKind::ALL.to_vec(),
            key_range: 8192,
            memory_metric: false,
        },
        "skiplist" => ExperimentSpec {
            id: "skiplist",
            description: "Skip-list sweep: 50% read / 50% write over every SMR scheme variant",
            structures: vec![DsKind::SkipList],
            schemes: SmrKind::ALL.to_vec(),
            key_range: 10_000,
            memory_metric: false,
        },
        "scan" => ExperimentSpec {
            id: "scan",
            description: "Guard-scoped range scans: scan-length sweep, every SMR scheme variant, \
                 oracle-checked output (skip list + NM tree)",
            structures: vec![DsKind::SkipList, DsKind::Tree],
            schemes: SmrKind::ALL.to_vec(),
            key_range: 8192,
            memory_metric: false,
        },
        "cursor" => ExperimentSpec {
            id: "cursor",
            description: "Cursor hot-path ablation: repin elision against the per-op pin base \
                 (skip list + NM tree)",
            structures: vec![DsKind::SkipList, DsKind::Tree],
            schemes: vec![SmrKind::Ebr, SmrKind::Hp, SmrKind::Ibr, SmrKind::Vbr],
            key_range: 8192,
            memory_metric: false,
        },
        "faults" => ExperimentSpec {
            id: "faults",
            description: "Fault-injection robustness: stalled, dying and panicking threads \
                 against every SMR scheme variant, with a bounded-footprint verdict per cell",
            // Quick sweeps keep the matrix affordable with a single
            // structure; the full run adds the tree.
            structures: if opts.duration <= Duration::from_millis(150) {
                vec![DsKind::ListLf]
            } else {
                vec![DsKind::ListLf, DsKind::Tree]
            },
            schemes: SmrKind::ALL.to_vec(),
            key_range: 512,
            memory_metric: true,
        },
        "service" => ExperimentSpec {
            id: "service",
            description: "Phased cache-server soak: Zipfian keys, per-phase p50/p99/p999 \
                 latency per op-class, robust vs non-robust scheme spread",
            // Quick sweeps keep the matrix affordable with one structure over
            // a small range; the full run spans list/tree/skip-list over
            // millions of keys.
            structures: if opts.duration <= Duration::from_millis(150) {
                vec![DsKind::ListLf]
            } else {
                vec![DsKind::ListLf, DsKind::Tree, DsKind::SkipList]
            },
            schemes: vec![
                SmrKind::Ebr,
                SmrKind::Hp,
                SmrKind::Ibr,
                SmrKind::Nbr,
                SmrKind::Vbr,
            ],
            key_range: if opts.duration <= Duration::from_millis(150) {
                4096
            } else {
                2_000_000
            },
            memory_metric: false,
        },
        _ => return None,
    };
    Some(s)
}

/// Runs one experiment preset, returning every measured point.
/// `progress` is invoked after each completed run with its textual row.
pub fn run_experiment(
    id: &str,
    opts: &ExperimentOptions,
    mut progress: impl FnMut(&RunResult),
) -> Option<Vec<RunResult>> {
    let spec = spec(id, opts)?;
    if id == "pool" {
        return Some(run_pool_ablation(&spec, opts, progress));
    }
    if id == "faults" {
        // The fault harness has its own richer report type; expose the
        // footprint numbers through the uniform `RunResult` plumbing and let
        // the CLI call `run_faults_experiment` directly for the verdicts.
        let reports = run_faults_experiment(opts, |_| {});
        let results: Vec<RunResult> = reports.iter().map(fault_run_result).collect();
        for r in &results {
            progress(r);
        }
        return Some(results);
    }
    if id == "cache" {
        return Some(run_cache_experiment(&spec, opts, progress));
    }
    if id == "scan" {
        return Some(run_scan_experiment(&spec, opts, progress));
    }
    if id == "cursor" {
        return Some(run_cursor_ablation(&spec, opts, progress));
    }
    if id == "service" {
        // The service runner has its own richer report type; expose the
        // per-phase throughput through the uniform `RunResult` plumbing and
        // let the CLI call `run_service_experiment` directly for the full
        // latency table.
        let reports = run_service_experiment(opts, |_| {});
        let results: Vec<RunResult> = reports
            .iter()
            .filter(|r| r.op_class == "get")
            .map(service_run_result)
            .collect();
        for r in &results {
            progress(r);
        }
        return Some(results);
    }
    // Single-point presets render one table row per scheme at the largest
    // requested thread count instead of sweeping the full thread range.
    let thread_counts: Vec<usize> = if id == "tab1" || id == "skiplist" {
        vec![*opts.threads.last().unwrap_or(&2)]
    } else {
        opts.threads.clone()
    };
    let mut results = Vec::new();
    for &ds in &spec.structures {
        for &smr in &spec.schemes {
            for &threads in &thread_counts {
                let mut cfg = opts.base_config(threads, spec.key_range);
                cfg.mix = Mix::READ_50;
                // Median of `runs` repetitions, as in the paper.
                let mut runs: Vec<RunResult> =
                    (0..opts.runs).map(|_| run_timed(ds, smr, &cfg)).collect();
                runs.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
                let median = runs.swap_remove(runs.len() / 2);
                progress(&median);
                results.push(median);
            }
        }
    }
    Some(results)
}

/// Runs the block-pool ablation: every structure/scheme pair of the spec,
/// write-only mix (the workload where alloc/retire dominate), once with the
/// pool enabled and once without.  The pool-off arm's scheme label carries a
/// `-pool` suffix so the two series stay distinguishable in JSON output and
/// in [`pool_table`].
fn run_pool_ablation(
    spec: &ExperimentSpec,
    opts: &ExperimentOptions,
    mut progress: impl FnMut(&RunResult),
) -> Vec<RunResult> {
    let mut results = Vec::new();
    let threads = *opts.threads.last().unwrap_or(&2);
    for &ds in &spec.structures {
        for &smr in &spec.schemes {
            for pool in [true, false] {
                let mut cfg = opts.base_config(threads, spec.key_range);
                cfg.mix = Mix::WRITE_ONLY;
                cfg.pool = pool;
                let mut runs: Vec<RunResult> =
                    (0..opts.runs).map(|_| run_timed(ds, smr, &cfg)).collect();
                runs.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
                let mut median = runs.swap_remove(runs.len() / 2);
                median.smr = format!("{}{}", smr.name(), if pool { "+pool" } else { "-pool" });
                progress(&median);
                results.push(median);
            }
        }
    }
    results
}

/// Runs the key-value cache experiment: the read-dominated (90% get) workload
/// of [`run_timed_kv`], with `opts.value_bytes` of padding per stored value,
/// swept over every scheme variant in the spec (all of [`SmrKind::ALL`], per
/// the Table-1 claim that one fixed structure serves them all).
fn run_cache_experiment(
    spec: &ExperimentSpec,
    opts: &ExperimentOptions,
    mut progress: impl FnMut(&RunResult),
) -> Vec<RunResult> {
    let mut results = Vec::new();
    let threads = *opts.threads.last().unwrap_or(&2);
    for &ds in &spec.structures {
        for &smr in &spec.schemes {
            let mut cfg = opts.base_config(threads, spec.key_range);
            cfg.mix = Mix::READ_90;
            cfg.value_bytes = opts.value_bytes;
            let mut runs: Vec<RunResult> = (0..opts.runs)
                .map(|_| run_timed_kv(ds, smr, &cfg))
                .collect();
            runs.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
            let median = runs.swap_remove(runs.len() / 2);
            progress(&median);
            results.push(median);
        }
    }
    results
}

/// Runs the range-scan experiment: the scan-heavy mix of [`Mix::SCAN_HEAVY`]
/// (80% guard-scoped scans over a churning key space) swept over every scheme
/// variant and every scan length in `opts.scan_lens`.  Every scan's output is
/// oracle-checked in the hot loop (window bounds, uniqueness, ascending order
/// for the ordered structures), so a run that completes at all certifies
/// scan correctness under that scheme.
fn run_scan_experiment(
    spec: &ExperimentSpec,
    opts: &ExperimentOptions,
    mut progress: impl FnMut(&RunResult),
) -> Vec<RunResult> {
    let mut results = Vec::new();
    let threads = *opts.threads.last().unwrap_or(&2);
    for &ds in &spec.structures {
        for &smr in &spec.schemes {
            for &scan_len in &opts.scan_lens {
                let mut cfg = opts.base_config(threads, spec.key_range);
                cfg.mix = Mix::SCAN_HEAVY;
                cfg.scan_len = scan_len;
                let mut runs: Vec<RunResult> =
                    (0..opts.runs).map(|_| run_timed(ds, smr, &cfg)).collect();
                runs.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
                let median = runs.swap_remove(runs.len() / 2);
                progress(&median);
                results.push(median);
            }
        }
    }
    results
}

/// The two arms of the cursor hot-path ablation as (scheme-label suffix,
/// pin batch): the per-op pin base and repin elision at `repin_batch`.  The
/// suffix is appended to the scheme name in results (e.g. `EBR+repin`),
/// mirroring the pool ablation's `+pool`/`-pool` labelling.
fn cursor_arms(repin_batch: u64) -> [(&'static str, u64); 2] {
    [("+base", 1), ("+repin", repin_batch)]
}

/// Runs the cursor hot-path ablation: every structure × scheme pair of the
/// spec at the largest requested thread count, once per arm, with the arm
/// suffix carried on the scheme label (as the pool ablation does), so the
/// JSON artifact and [`cursor_table`] can compute per-arm deltas.
fn run_cursor_ablation(
    spec: &ExperimentSpec,
    opts: &ExperimentOptions,
    mut progress: impl FnMut(&RunResult),
) -> Vec<RunResult> {
    let threads = *opts.threads.last().unwrap_or(&2);
    let repin_batch = if opts.pin_batch > 1 {
        opts.pin_batch
    } else {
        16
    };
    let mut results = Vec::new();
    for &ds in &spec.structures {
        for &smr in &spec.schemes {
            for (suffix, pin_batch) in cursor_arms(repin_batch) {
                let mut cfg = opts.base_config(threads, spec.key_range);
                cfg.mix = Mix::READ_50;
                cfg.pin_batch = pin_batch;
                let mut runs: Vec<RunResult> =
                    (0..opts.runs).map(|_| run_timed(ds, smr, &cfg)).collect();
                runs.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
                let mut median = runs.swap_remove(runs.len() / 2);
                median.smr = format!("{}{suffix}", smr.name());
                progress(&median);
                results.push(median);
            }
        }
    }
    results
}

/// Derives the phase schedule for one fault cell from the options: the
/// requested per-run duration is split 1/4 warmup, 1/2 fault, 1/4 recovery
/// (with floors so `--quick` cells still have meaningful phases).
fn fault_plan_for(kind: FaultKind, opts: &ExperimentOptions) -> FaultPlan {
    let d = opts.duration;
    FaultPlan {
        warmup: (d / 4).max(Duration::from_millis(30)),
        fault: (d / 2).max(Duration::from_millis(60)),
        recovery: (d / 4).max(Duration::from_millis(30)),
        ..FaultPlan::new(kind)
    }
}

/// Runs the fault-injection robustness experiment: every structure × scheme
/// pair of the `faults` spec under every fault class in `opts.faults`,
/// returning one verdict per cell.  This is the entry point the CLI uses so
/// it can render the verdict table; [`run_experiment`] wraps it for uniform
/// `RunResult` plumbing.
pub fn run_faults_experiment(
    opts: &ExperimentOptions,
    mut progress: impl FnMut(&FaultReport),
) -> Vec<FaultReport> {
    let spec = spec("faults", opts).expect("faults spec always exists");
    let threads = *opts.threads.last().unwrap_or(&2);
    let mut reports = Vec::new();
    for &ds in &spec.structures {
        for &smr in &spec.schemes {
            for &kind in &opts.faults {
                let cfg = RunConfig::paper_default(threads, spec.key_range);
                let r = run_fault_scenario(ds, smr, &cfg, &fault_plan_for(kind, opts));
                progress(&r);
                reports.push(r);
            }
        }
    }
    reports
}

/// Projects a fault verdict onto the uniform [`RunResult`] shape (footprint
/// numbers only; the verdict itself lives in [`FaultReport`]).
fn fault_run_result(r: &FaultReport) -> RunResult {
    RunResult {
        ds: r.ds.clone(),
        smr: r.smr.clone(),
        threads: r.threads,
        key_range: 0,
        ops: r.ops,
        ops_per_sec: if r.elapsed_secs > 0.0 {
            r.ops as f64 / r.elapsed_secs
        } else {
            0.0
        },
        avg_unreclaimed: Some(r.baseline as f64),
        max_unreclaimed: Some(r.peak),
        restarts: 0,
        recoveries: 0,
        spins: 0,
        scan_len: 0,
        scanned_keys: 0,
        elapsed_secs: r.elapsed_secs,
    }
}

/// Derives the service phase schedule from the options: the requested
/// per-run duration is the *total* across the four phases, split by
/// [`ServicePlan::new`], with the options' Zipfian skew.
fn service_plan_for(opts: &ExperimentOptions) -> ServicePlan {
    ServicePlan::new(opts.duration, opts.zipf_theta)
}

/// Runs the service experiment: every structure × scheme pair of the
/// `service` spec through the four-phase cache-server scenario, at the
/// largest requested thread count.  Returns one row per (structure, scheme,
/// phase, op-class); `progress` fires once per phase (on its `get` row).
/// This is the entry point the CLI uses so it can render the latency table;
/// [`run_experiment`] wraps it for uniform `RunResult` plumbing.
pub fn run_service_experiment(
    opts: &ExperimentOptions,
    mut progress: impl FnMut(&ServiceReport),
) -> Vec<ServiceReport> {
    let spec = spec("service", opts).expect("service spec always exists");
    let threads = *opts.threads.last().unwrap_or(&2);
    let plan = service_plan_for(opts);
    let mut reports = Vec::new();
    for &ds in &spec.structures {
        for &smr in &spec.schemes {
            let cfg = RunConfig::paper_default(threads, spec.key_range);
            let rows = run_service_scenario(ds, smr, &cfg, &plan);
            for r in &rows {
                if r.op_class == "get" {
                    progress(r);
                }
            }
            reports.extend(rows);
        }
    }
    reports
}

/// Projects a service row onto the uniform [`RunResult`] shape (per-phase
/// throughput and footprint only; the latency numbers live in
/// [`ServiceReport`]).
fn service_run_result(r: &ServiceReport) -> RunResult {
    RunResult {
        ds: r.ds.clone(),
        smr: format!("{}/{}", r.smr, r.phase),
        threads: r.threads,
        key_range: 0,
        ops: r.ops,
        ops_per_sec: r.ops_per_sec,
        avg_unreclaimed: None,
        max_unreclaimed: Some(r.peak_unreclaimed),
        restarts: r.restarts,
        recoveries: r.recoveries,
        spins: 0,
        scan_len: 0,
        scanned_keys: 0,
        elapsed_secs: 0.0,
    }
}

/// Renders the service experiment: one row per structure × scheme × phase ×
/// op-class with the phase throughput, the class's latency percentiles (`-`
/// where the class recorded no samples), and the per-phase footprint and
/// restart/recovery counters.
pub fn service_table(reports: &[ServiceReport]) -> String {
    let mut out = String::new();
    out.push_str(
        "Service scenario: Zipfian cache-server phases \
         (warmup -> read-storm -> churn-spike -> reader-stall)\n",
    );
    out.push_str(&format!(
        "{:<10}{:<8}{:<14}{:<8}{:>7}{:>14}{:>10}{:>10}{:>10}{:>9}{:>10}{:>10}{:>11}\n",
        "structure",
        "scheme",
        "phase",
        "class",
        "robust",
        "ops/s",
        "p50_ns",
        "p99_ns",
        "p999_ns",
        "samples",
        "peak",
        "restarts",
        "recoveries"
    ));
    let fmt_ns = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |ns| ns.to_string());
    for r in reports {
        out.push_str(&format!(
            "{:<10}{:<8}{:<14}{:<8}{:>7}{:>14.0}{:>10}{:>10}{:>10}{:>9}{:>10}{:>10}{:>11}\n",
            r.ds,
            r.smr,
            r.phase,
            r.op_class,
            if r.is_robust { "yes" } else { "no" },
            r.ops_per_sec,
            fmt_ns(r.p50_ns),
            fmt_ns(r.p99_ns),
            fmt_ns(r.p999_ns),
            r.samples,
            r.peak_unreclaimed,
            r.restarts,
            r.recoveries,
        ));
    }
    out
}

/// Normalizes service rows into [`BenchRecord`]s: one record per (structure,
/// scheme, phase, op-class), with the percentile fields populated and the
/// phase throughput as `ops_per_sec`.
pub fn service_bench_records(reports: &[ServiceReport]) -> Vec<BenchRecord> {
    reports
        .iter()
        .map(|r| BenchRecord {
            ds: r.ds.clone(),
            smr: r.smr.clone(),
            threads: r.threads,
            is_robust: r.is_robust,
            ops_per_sec: r.ops_per_sec,
            restarts: r.restarts,
            recoveries: r.recoveries,
            peak_unreclaimed: Some(r.peak_unreclaimed),
            phase: Some(r.phase.clone()),
            op_class: Some(r.op_class.clone()),
            samples: Some(r.samples),
            p50_ns: r.p50_ns,
            p99_ns: r.p99_ns,
            p999_ns: r.p999_ns,
        })
        .collect()
}

/// Writes the `BENCH_service.json` artifact into `dir` and returns the path
/// written.  Unlike the throughput presets the records carry `phase`,
/// `op_class` and the latency percentiles, so `bench-diff` can gate tail
/// latency separately from throughput.
pub fn write_service_artifact(dir: &str, reports: &[ServiceReport]) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/BENCH_service.json");
    let artifact = BenchArtifact {
        preset: "service".to_string(),
        schemes: SmrKind::ALL.iter().map(|s| s.name().to_string()).collect(),
        records: service_bench_records(reports),
    };
    let json = serde_json::to_string_pretty(&artifact)
        .expect("service artifact serialization cannot fail");
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

/// Ablation suffixes a result-table scheme label may carry: the pool
/// ablation's on/off pair and the cursor ablation's two arms.
const SCHEME_LABEL_SUFFIXES: [&str; 4] = ["+pool", "-pool", "+base", "+repin"];

/// Strips a known ablation suffix off a scheme label, if present.
fn strip_scheme_suffix(smr: &str) -> &str {
    SCHEME_LABEL_SUFFIXES
        .iter()
        .find_map(|s| smr.strip_suffix(s))
        .unwrap_or(smr)
}

/// Whether a result-table scheme label (possibly carrying an ablation
/// suffix) names a robust scheme.
fn smr_is_robust(smr: &str) -> bool {
    SmrKind::parse(strip_scheme_suffix(smr)).is_some_and(|k| k.is_robust())
}

/// `yes`/`no` robustness column value for a scheme label.
fn robust_cell(smr: &str) -> &'static str {
    if smr_is_robust(smr) {
        "yes"
    } else {
        "no"
    }
}

/// Renders the fault-injection verdict table: peak/steady unreclaimed per
/// scheme × structure per fault class, the bound each peak was judged
/// against, and the verdict.  The `pool-leak` column is the thread-death
/// blind spot made visible: blocks stranded in dead victims' leaked pool
/// caches, which `residual`/`drained` cannot see
/// ([`FaultReport::pool_leak_bound`]).  Ends with a one-line claim-violation
/// summary.
pub fn faults_table(reports: &[FaultReport]) -> String {
    let mut out = String::new();
    out.push_str(
        "Fault-injection robustness: bounded peak unreclaimed per scheme x structure x fault\n",
    );
    out.push_str(&format!(
        "{:<10}{:<8}{:<18}{:>7}{:>10}{:>10}{:>10}{:>10}{:>9}{:>10}  {}\n",
        "structure",
        "scheme",
        "fault",
        "robust",
        "warmup-end",
        "peak",
        "bound",
        "residual",
        "drained",
        "pool-leak",
        "verdict"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<10}{:<8}{:<18}{:>7}{:>10}{:>10}{:>10}{:>10}{:>9}{:>10}  {}\n",
            r.ds,
            r.smr,
            r.fault,
            if r.is_robust { "yes" } else { "no" },
            r.baseline,
            r.peak,
            r.bound,
            r.residual,
            if r.drained { "yes" } else { "no" },
            if r.pool_leak_bound > 0 {
                format!("<={}", r.pool_leak_bound)
            } else {
                "0".to_string()
            },
            r.verdict,
        ));
    }
    let violations = reports.iter().filter(|r| r.violates_claim()).count();
    out.push_str(&format!(
        "{} cells, {} robustness-claim violations\n",
        reports.len(),
        violations
    ));
    out
}

/// The top-level shape of the `BENCH_faults.json` artifact: full fault
/// verdicts rather than throughput rows.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FaultArtifact {
    /// Always `faults`.
    pub preset: String,
    /// Scheme names available at generation time, in [`SmrKind::ALL`] order.
    pub schemes: Vec<String>,
    /// Fault-class names covered, in [`FaultKind::ALL`] order.
    pub faults: Vec<String>,
    /// One verdict per measured (structure, scheme, fault) cell.
    pub records: Vec<FaultReport>,
}

/// Normalizes fault verdicts into the committed-artifact shape.
pub fn fault_artifact(reports: &[FaultReport]) -> FaultArtifact {
    FaultArtifact {
        preset: "faults".to_string(),
        schemes: SmrKind::ALL.iter().map(|s| s.name().to_string()).collect(),
        faults: FaultKind::ALL
            .iter()
            .map(|f| f.name().to_string())
            .collect(),
        records: reports.to_vec(),
    }
}

/// Writes `BENCH_faults.json` into `dir` and returns the path written.
pub fn write_fault_artifact(dir: &str, reports: &[FaultReport]) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/BENCH_faults.json");
    let json = serde_json::to_string_pretty(&fault_artifact(reports))
        .expect("fault artifact serialization cannot fail");
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

/// Renders the scan experiment: throughput and scanned-key volume per
/// (structure, scheme, scan length), with the uniform restart/recovery
/// columns.  `keys/scan` is the average scan yield — about half the window
/// width at the harness's 50% prefill density.
pub fn scan_table(results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "Range-scan sweep: 80% guard-scoped scans / 10% insert / 10% delete, \
         oracle-checked output\n",
    );
    out.push_str(&format!(
        "{:<10}{:<8}{:>7}{:>8}{:>10}{:>14}{:>16}{:>11}{:>10}{:>12}\n",
        "structure",
        "scheme",
        "robust",
        "threads",
        "scan_len",
        "ops/s",
        "keys scanned",
        "keys/scan",
        "restarts",
        "recoveries"
    ));
    for r in results {
        // Scans are scan_pct% of all completed operations.
        let scan_ops = (r.ops as f64 * f64::from(Mix::SCAN_HEAVY.scan_pct) / 100.0).max(1.0);
        out.push_str(&format!(
            "{:<10}{:<8}{:>7}{:>8}{:>10}{:>14.0}{:>16}{:>11.1}{:>10}{:>12}\n",
            r.ds,
            r.smr,
            robust_cell(&r.smr),
            r.threads,
            r.scan_len,
            r.ops_per_sec,
            r.scanned_keys,
            r.scanned_keys as f64 / scan_ops,
            r.restarts,
            r.recoveries,
        ));
    }
    out
}

/// Renders the cache experiment as a per-scheme table: value-read throughput
/// plus the sampled reclamation backlog (n/a where the paper skips it).
pub fn cache_table(results: &[RunResult], value_bytes: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Key-value cache workload: 90% get / 5% insert / 5% remove, {value_bytes}-byte values\n"
    ));
    out.push_str(&format!(
        "{:<12}{:<8}{:>7}{:>8}{:>16}{:>18}{:>10}{:>12}\n",
        "structure",
        "scheme",
        "robust",
        "threads",
        "ops/s",
        "unreclaimed(avg)",
        "restarts",
        "recoveries"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<12}{:<8}{:>7}{:>8}{:>16.0}{:>18}{:>10}{:>12}\n",
            r.ds,
            r.smr,
            robust_cell(&r.smr),
            r.threads,
            r.ops_per_sec,
            r.avg_unreclaimed
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "n/a".into()),
            r.restarts,
            r.recoveries,
        ));
    }
    out
}

/// Renders the block-pool ablation as pool-on/pool-off pairs with the
/// throughput delta the pool buys on this machine.
pub fn pool_table(results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str("Block-pool ablation, write-only mix (50% insert / 50% delete)\n");
    out.push_str(&format!(
        "{:<12}{:<8}{:>7}{:>8}{:>16}{:>16}{:>10}{:>12}{:>12}\n",
        "structure",
        "scheme",
        "robust",
        "threads",
        "pool-on ops/s",
        "pool-off ops/s",
        "restarts",
        "recoveries",
        "delta"
    ));
    for on in results {
        let Some(base) = on.smr.strip_suffix("+pool") else {
            continue;
        };
        let off = results
            .iter()
            .find(|r| r.ds == on.ds && r.threads == on.threads && r.smr == format!("{base}-pool"));
        let Some(off) = off else { continue };
        let delta = if off.ops_per_sec > 0.0 {
            100.0 * (on.ops_per_sec - off.ops_per_sec) / off.ops_per_sec
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<12}{:<8}{:>7}{:>8}{:>16.0}{:>16.0}{:>10}{:>12}{:>+11.1}%\n",
            on.ds,
            base,
            robust_cell(base),
            on.threads,
            on.ops_per_sec,
            off.ops_per_sec,
            on.restarts,
            on.recoveries,
            delta
        ));
    }
    out
}

/// Renders the cursor hot-path ablation: one row per structure × scheme with
/// the per-op pin base throughput, the `+repin` arm's delta against it, and
/// the base arm's backoff spin count (a large count flags a contention-bound
/// configuration, where the delta says little about repin).
pub fn cursor_table(results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "Cursor hot-path ablation: 50% read / 50% write, +repin relative to the per-op pin base\n",
    );
    out.push_str(&format!(
        "{:<12}{:<8}{:>7}{:>8}{:>14}{:>9}{:>13}\n",
        "structure", "scheme", "robust", "threads", "base ops/s", "+repin", "spins(base)"
    ));
    for base in results {
        let Some(scheme) = base.smr.strip_suffix("+base") else {
            continue;
        };
        let repin = results
            .iter()
            .find(|r| {
                r.ds == base.ds && r.threads == base.threads && r.smr == format!("{scheme}+repin")
            })
            .filter(|_| base.ops_per_sec > 0.0)
            .map_or_else(
                || "-".to_string(),
                |r| {
                    format!(
                        "{:+.1}%",
                        100.0 * (r.ops_per_sec - base.ops_per_sec) / base.ops_per_sec
                    )
                },
            );
        out.push_str(&format!(
            "{:<12}{:<8}{:>7}{:>8}{:>14.0}{:>9}{:>13}\n",
            base.ds,
            scheme,
            robust_cell(scheme),
            base.threads,
            base.ops_per_sec,
            repin,
            base.spins,
        ));
    }
    out
}

/// Renders the skip-list sweep as a per-scheme table: throughput, the sampled
/// reclamation backlog (n/a where the paper skips it — Hyaline — and where
/// nothing is ever reclaimed — NR) and the traversal restarts the recovery
/// ladder could not absorb.
pub fn skiplist_table(results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str("Skip-list sweep: 50% read / 25% insert / 25% delete, every scheme variant\n");
    out.push_str(&format!(
        "{:<12}{:<8}{:>7}{:>8}{:>16}{:>18}{:>10}{:>12}\n",
        "structure",
        "scheme",
        "robust",
        "threads",
        "ops/s",
        "unreclaimed(avg)",
        "restarts",
        "recoveries"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<12}{:<8}{:>7}{:>8}{:>16.0}{:>18}{:>10}{:>12}\n",
            r.ds,
            r.smr,
            robust_cell(&r.smr),
            r.threads,
            r.ops_per_sec,
            r.avg_unreclaimed
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "n/a".into()),
            r.restarts,
            r.recoveries,
        ));
    }
    out
}

/// Renders a compatibility matrix (Table 1) from smoke-run results: a
/// structure is "compatible" with a scheme if its runs completed operations.
/// Robust schemes (bounded unreclaimed growth under stalled readers) carry a
/// `*` marker.
pub fn compatibility_matrix(results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<12}", "structure"));
    for smr in SmrKind::ALL {
        let label = if smr.is_robust() {
            format!("{}*", smr.name())
        } else {
            smr.name().to_string()
        };
        out.push_str(&format!("{label:>9}"));
    }
    out.push('\n');
    for ds in DsKind::ALL {
        out.push_str(&format!("{:<12}", ds.name()));
        for smr in SmrKind::ALL {
            let ok = results
                .iter()
                .any(|r| r.ds == ds.name() && r.smr == smr.name() && r.ops > 0);
            out.push_str(&format!("{:>9}", if ok { "ok" } else { "-" }));
        }
        out.push('\n');
    }
    out.push_str("(* = robust: bounded unreclaimed memory under stalled/dead readers)\n");
    out
}

/// One normalized row of a `BENCH_<preset>.json` trajectory artifact: the
/// stable subset of [`RunResult`] that is comparable across machines and
/// sessions (throughput and the paper's robustness counters), keyed by
/// scheme × structure × thread count.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchRecord {
    /// Data structure name (e.g. `HList`).
    pub ds: String,
    /// Scheme name (e.g. `NBR`; the pool ablation suffixes `+pool`/`-pool`).
    pub smr: String,
    /// Worker threads.
    pub threads: usize,
    /// Whether the scheme is robust ([`SmrKind::is_robust`]): bounded
    /// unreclaimed growth even under stalled or dead readers.
    pub is_robust: bool,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
    /// Total traversal restarts.
    pub restarts: u64,
    /// Total §3.2.1 recoveries.
    pub recoveries: u64,
    /// Peak sampled retired-but-unreclaimed objects (`None` where the paper
    /// skips the metric, e.g. Hyaline).
    pub peak_unreclaimed: Option<usize>,
    /// Service phase name (`None` for the throughput presets, which have no
    /// phases; serialized as `null`).
    pub phase: Option<String>,
    /// Operation class (`None` for the throughput presets, which do not
    /// split by class).
    pub op_class: Option<String>,
    /// Latency samples behind the percentiles below (`None` where latency is
    /// not measured).  `bench-diff` skips the latency gate on rows with
    /// fewer samples than its stability floor — a median over a handful of
    /// samples is noise, not signal.
    pub samples: Option<u64>,
    /// Median latency in nanoseconds (`None` where latency is not measured).
    /// The separate, looser `bench-diff` latency gate keys on this field:
    /// p50 is stable run-to-run, while p99/p999 on smoke-length phases ride
    /// on a handful of tail samples and are recorded for trend reading only.
    pub p50_ns: Option<u64>,
    /// 99th-percentile latency in nanoseconds (`None` where not measured).
    pub p99_ns: Option<u64>,
    /// 99.9th-percentile latency in nanoseconds (`None` where not measured).
    pub p999_ns: Option<u64>,
}

/// The top-level shape of a `BENCH_<preset>.json` artifact.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchArtifact {
    /// Experiment preset id (e.g. `tab1`).
    pub preset: String,
    /// Scheme names available at generation time, in [`SmrKind::ALL`] order —
    /// lets a reader detect artifacts from before a scheme existed.
    pub schemes: Vec<String>,
    /// One record per measured (structure, scheme, threads) point.
    pub records: Vec<BenchRecord>,
}

/// Normalizes experiment results into the committed-trajectory shape.
pub fn bench_artifact(id: &str, results: &[RunResult]) -> BenchArtifact {
    BenchArtifact {
        preset: id.to_string(),
        schemes: SmrKind::ALL.iter().map(|s| s.name().to_string()).collect(),
        records: results
            .iter()
            .map(|r| BenchRecord {
                ds: r.ds.clone(),
                smr: r.smr.clone(),
                threads: r.threads,
                is_robust: smr_is_robust(&r.smr),
                ops_per_sec: r.ops_per_sec,
                restarts: r.restarts,
                recoveries: r.recoveries,
                peak_unreclaimed: r.max_unreclaimed,
                phase: None,
                op_class: None,
                samples: None,
                p50_ns: None,
                p99_ns: None,
                p999_ns: None,
            })
            .collect(),
    }
}

/// Writes the normalized `BENCH_<preset>.json` artifact into `dir` and returns
/// the path written.  Every `exp` invocation of the `scot-bench` CLI calls
/// this, so the benchmark trajectory is regenerated (and diffable) on each
/// run.
pub fn write_bench_artifact(dir: &str, id: &str, results: &[RunResult]) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/BENCH_{id}.json");
    let json = serde_json::to_string_pretty(&bench_artifact(id, results))
        .expect("bench artifact serialization cannot fail");
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

/// Renders Table 2 (restart statistics) from the tab2 results.
pub fn restart_table(results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str("Restart statistics under HP (robust), key range 10,000 (paper Table 2)\n");
    out.push_str(&format!(
        "{:<12}{:>10}{:>16}{:>12}{:>16}{:>12}\n",
        "structure", "threads", "restarts", "recoveries", "ops/sec", "restart %"
    ));
    for r in results {
        let pct = if r.ops > 0 {
            100.0 * r.restarts as f64 / r.ops as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<12}{:>10}{:>16}{:>12}{:>16.0}{:>11.2}%\n",
            r.ds, r.threads, r.restarts, r.recoveries, r.ops_per_sec, pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_id_has_a_spec() {
        let opts = ExperimentOptions::quick();
        for id in ALL_EXPERIMENTS {
            assert!(spec(id, &opts).is_some(), "missing spec for {id}");
        }
        assert!(spec("fig99", &opts).is_none());
    }

    #[test]
    fn memory_experiments_skip_hyaline_and_nr() {
        let opts = ExperimentOptions::quick();
        for id in ["fig10a", "fig10b", "fig11a", "fig11b", "fig12b"] {
            let s = spec(id, &opts).unwrap();
            assert!(s.memory_metric);
            assert!(!s.schemes.contains(&SmrKind::Hyaline));
            assert!(!s.schemes.contains(&SmrKind::Nr));
        }
    }

    #[test]
    fn key_ranges_match_the_paper() {
        let opts = ExperimentOptions::quick();
        assert_eq!(spec("fig8a", &opts).unwrap().key_range, 512);
        assert_eq!(spec("fig8b", &opts).unwrap().key_range, 10_000);
        assert_eq!(spec("fig9a", &opts).unwrap().key_range, 128);
        assert_eq!(spec("fig9b", &opts).unwrap().key_range, 100_000);
        assert_eq!(spec("tab2", &opts).unwrap().key_range, 10_000);
        // fig12 honours the scale factor.
        let full = ExperimentOptions {
            scale_large_range: 1,
            ..ExperimentOptions::quick()
        };
        assert_eq!(spec("fig12a", &full).unwrap().key_range, 50_000_000);
    }

    #[test]
    fn quick_pool_ablation_runs_and_renders() {
        let opts = ExperimentOptions::quick();
        let results = run_experiment("pool", &opts, |_| {}).unwrap();
        // 2 structures × 3 schemes × {on, off}.
        assert_eq!(results.len(), 12);
        assert!(results.iter().any(|r| r.smr == "EBR+pool"));
        assert!(results.iter().any(|r| r.smr == "IBR-pool"));
        let table = pool_table(&results);
        assert!(table.contains("HMList"));
        assert!(table.contains("NMTree"));
        assert!(table.contains("delta"));
        // One delta row per structure/scheme pair.
        let delta_rows = table.lines().filter(|l| l.ends_with('%')).count();
        assert_eq!(delta_rows, 6, "table:\n{table}");
    }

    #[test]
    fn quick_cache_experiment_covers_every_scheme() {
        let opts = ExperimentOptions {
            value_bytes: 16,
            ..ExperimentOptions::quick()
        };
        let results = run_experiment("cache", &opts, |_| {}).unwrap();
        // 1 structure × every variant in `SmrKind::ALL`.
        assert_eq!(results.len(), SmrKind::ALL.len());
        for smr in SmrKind::ALL {
            assert!(
                results.iter().any(|r| r.smr == smr.name() && r.ops > 0),
                "cache experiment idle under {smr}"
            );
        }
        let table = cache_table(&results, opts.value_bytes);
        assert!(table.contains("16-byte values"));
        assert!(table.contains("HashMap"));
        assert!(table.contains("HLN"), "table:\n{table}");
    }

    #[test]
    fn quick_skiplist_sweep_covers_every_scheme() {
        let opts = ExperimentOptions::quick();
        let results = run_experiment("skiplist", &opts, |_| {}).unwrap();
        // 1 structure × every variant in `SmrKind::ALL`, single thread point.
        assert_eq!(results.len(), SmrKind::ALL.len());
        for smr in SmrKind::ALL {
            assert!(
                results.iter().any(|r| r.smr == smr.name() && r.ops > 0),
                "skip-list sweep idle under {smr}"
            );
        }
        let table = skiplist_table(&results);
        assert!(table.contains("SkipList"));
        assert!(table.contains("restarts"));
        assert!(table.contains("HLN"), "table:\n{table}");
    }

    #[test]
    fn quick_cursor_ablation_runs_and_renders_deltas() {
        let opts = ExperimentOptions::quick();
        let results = run_experiment("cursor", &opts, |_| {}).unwrap();
        // 2 structures × 4 schemes × 2 arms.
        assert_eq!(results.len(), 16);
        for arm in ["+base", "+repin"] {
            assert!(
                results
                    .iter()
                    .any(|r| r.smr == format!("EBR{arm}") && r.ops > 0),
                "cursor ablation idle on arm {arm}"
            );
        }
        let table = cursor_table(&results);
        assert!(table.contains("SkipList") && table.contains("NMTree"));
        assert!(table.contains("spins(base)"));
        // One delta row per structure × scheme pair.
        let rows = table
            .lines()
            .filter(|l| l.starts_with("SkipList") || l.starts_with("NMTree"))
            .count();
        assert_eq!(rows, 8, "table:\n{table}");
    }

    #[test]
    fn cursor_arm_labels_do_not_hide_robustness() {
        assert!(
            smr_is_robust("HP+base"),
            "+base must not hide HP's robustness"
        );
        assert!(smr_is_robust("IBR+repin"));
        assert!(!smr_is_robust("EBR+base"));
        assert_eq!(strip_scheme_suffix("VBR+repin"), "VBR");
        assert_eq!(strip_scheme_suffix("EBR"), "EBR");
    }

    #[test]
    fn cursor_arms_toggle_exactly_one_knob_each() {
        // One knob is left: the base pins per operation, `+repin` batches.
        assert_eq!(cursor_arms(16), [("+base", 1), ("+repin", 16)]);
    }

    #[test]
    fn bench_artifact_is_normalized_and_writable() {
        let results = vec![RunResult {
            ds: "SkipList".into(),
            smr: "NBR".into(),
            threads: 2,
            key_range: 64,
            ops: 10,
            ops_per_sec: 123.0,
            avg_unreclaimed: Some(1.5),
            max_unreclaimed: Some(3),
            restarts: 7,
            recoveries: 2,
            spins: 0,
            scan_len: 0,
            scanned_keys: 0,
            elapsed_secs: 0.1,
        }];
        let artifact = bench_artifact("smoke", &results);
        assert_eq!(artifact.preset, "smoke");
        // The artifact's scheme list is single-sourced from `SmrKind::ALL`.
        assert_eq!(artifact.schemes.len(), SmrKind::ALL.len());
        assert!(artifact.schemes.iter().any(|s| s == "NBR"));
        assert!(artifact.schemes.iter().any(|s| s == "VBR"));
        assert_eq!(artifact.records.len(), 1);
        assert_eq!(artifact.records[0].peak_unreclaimed, Some(3));
        let dir = std::env::temp_dir().join("scot-bench-artifact-test");
        let dir = dir.to_str().unwrap();
        let path = write_bench_artifact(dir, "smoke", &results).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(path.ends_with("BENCH_smoke.json"));
        assert!(body.contains("\"ops_per_sec\""));
        assert!(body.contains("\"peak_unreclaimed\""));
        std::fs::remove_dir_all(dir).ok();
    }

    fn synthetic_report(smr: SmrKind, fault: FaultKind, peak: usize, bound: usize) -> FaultReport {
        FaultReport {
            ds: "HList".into(),
            smr: smr.name().into(),
            fault: fault.name().into(),
            threads: 2,
            victims: 1,
            is_robust: smr.is_robust(),
            baseline: 10,
            peak,
            end_of_fault: peak,
            residual: 0,
            drained: true,
            bound,
            pool_leak_bound: if fault == FaultKind::ThreadDeath {
                256
            } else {
                0
            },
            bounded: peak <= bound,
            verdict: if peak <= bound {
                "bounded".into()
            } else {
                format!("grows (+{})", peak - 10)
            },
            ops: 1000,
            elapsed_secs: 0.2,
        }
    }

    #[test]
    fn faults_table_renders_verdicts_and_violation_count() {
        let reports = vec![
            synthetic_report(SmrKind::Hp, FaultKind::ReaderStall, 100, 5000),
            synthetic_report(SmrKind::Ebr, FaultKind::ReaderStall, 90_000, 5000),
        ];
        let table = faults_table(&reports);
        assert!(table.contains("reader-stall"));
        assert!(table.contains("bounded"));
        assert!(table.contains("pool-leak"));
        assert!(table.contains("grows (+89990)"));
        assert!(table.contains("robust"));
        // EBR exceeding the bound is expected behaviour, not a violation of
        // its (non-)robustness claim.
        assert!(table.contains("2 cells, 0 robustness-claim violations"));
        // A robust scheme exceeding the bound IS a violation.
        let bad = vec![synthetic_report(
            SmrKind::Hp,
            FaultKind::ReaderStall,
            90_000,
            5000,
        )];
        assert!(faults_table(&bad).contains("1 robustness-claim violations"));
    }

    #[test]
    fn fault_artifact_is_writable_and_carries_is_robust() {
        let reports = vec![synthetic_report(
            SmrKind::Vbr,
            FaultKind::ThreadDeath,
            50,
            5000,
        )];
        let artifact = fault_artifact(&reports);
        assert_eq!(artifact.preset, "faults");
        assert_eq!(artifact.faults.len(), FaultKind::ALL.len());
        assert_eq!(artifact.schemes.len(), SmrKind::ALL.len());
        assert!(!artifact.records[0].is_robust);
        let dir = std::env::temp_dir().join("scot-fault-artifact-test");
        let dir = dir.to_str().unwrap();
        let path = write_fault_artifact(dir, &reports).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(path.ends_with("BENCH_faults.json"));
        assert!(body.contains("\"is_robust\""));
        assert!(body.contains("\"verdict\""));
        assert!(body.contains("\"pool_leak_bound\": 256"));
        assert!(faults_table(&reports).contains("<=256"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bench_records_carry_the_robustness_flag() {
        let mk = |smr: &str| RunResult {
            ds: "HMList".into(),
            smr: smr.into(),
            threads: 2,
            key_range: 64,
            ops: 10,
            ops_per_sec: 1.0,
            avg_unreclaimed: None,
            max_unreclaimed: None,
            restarts: 0,
            recoveries: 0,
            spins: 0,
            scan_len: 0,
            scanned_keys: 0,
            elapsed_secs: 0.1,
        };
        let artifact = bench_artifact("smoke", &[mk("HP"), mk("EBR"), mk("IBR+pool")]);
        assert!(artifact.records[0].is_robust, "HP is robust");
        assert!(!artifact.records[1].is_robust, "EBR is not robust");
        assert!(
            artifact.records[2].is_robust,
            "pool suffix must not hide IBR's robustness"
        );
    }

    #[test]
    fn quick_faults_experiment_renders_verdicts() {
        // One structure (quick spec), two schemes, one fault class: enough to
        // prove the full pipeline (runner -> table -> artifact) end to end.
        let opts = ExperimentOptions {
            faults: vec![FaultKind::PanicDuringOp],
            ..ExperimentOptions::quick()
        };
        let spec = spec("faults", &opts).unwrap();
        assert_eq!(spec.structures, vec![DsKind::ListLf]);
        let mut small = opts.clone();
        small.faults = vec![FaultKind::ThreadDeath];
        let reports: Vec<FaultReport> = run_faults_experiment(&small, |_| {})
            .into_iter()
            .filter(|r| r.smr == "HP" || r.smr == "EBR")
            .collect();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.drained, "{}: thread death must drain (adoption)", r.smr);
        }
        let table = faults_table(&reports);
        assert!(table.contains("thread-death"));
    }

    fn synthetic_service_row(phase: &str, class: &str, samples: u64) -> ServiceReport {
        ServiceReport {
            ds: "HList".into(),
            smr: "NBR".into(),
            threads: 2,
            phase: phase.into(),
            op_class: class.into(),
            is_robust: true,
            ops: 2469,
            ops_per_sec: 12345.0,
            samples,
            p50_ns: (samples > 0).then_some(800),
            p99_ns: (samples > 0).then_some(9_000),
            p999_ns: (samples > 0).then_some(55_000),
            peak_unreclaimed: 42,
            restarts: 3,
            recoveries: 1,
        }
    }

    #[test]
    fn service_spec_scales_with_duration_and_spreads_robustness() {
        let quick = spec("service", &ExperimentOptions::quick()).unwrap();
        assert_eq!(quick.structures, vec![DsKind::ListLf]);
        assert_eq!(quick.key_range, 4096);
        let full = spec("service", &ExperimentOptions::default()).unwrap();
        assert_eq!(
            full.structures,
            vec![DsKind::ListLf, DsKind::Tree, DsKind::SkipList]
        );
        assert_eq!(full.key_range, 2_000_000);
        // The scheme spread must mix robust and non-robust schemes, or the
        // tail-latency comparison has no baseline.
        assert!(full.schemes.iter().any(|s| s.is_robust()));
        assert!(full.schemes.iter().any(|s| !s.is_robust()));
    }

    #[test]
    fn service_table_renders_percentiles_and_dashes() {
        let rows = vec![
            synthetic_service_row("read-storm", "get", 100),
            synthetic_service_row("read-storm", "scan", 0),
        ];
        let table = service_table(&rows);
        assert!(table.contains("read-storm"));
        assert!(table.contains("p999_ns"));
        assert!(table.contains("9000"), "table:\n{table}");
        // Empty classes render as a dash, not a fake zero.
        let scan_line = table.lines().find(|l| l.contains("scan")).unwrap();
        assert!(scan_line.contains('-'), "line: {scan_line}");
    }

    #[test]
    fn service_artifact_carries_phase_class_and_percentiles() {
        let rows = vec![synthetic_service_row("churn-spike", "insert", 50)];
        let records = service_bench_records(&rows);
        assert_eq!(records[0].phase.as_deref(), Some("churn-spike"));
        assert_eq!(records[0].op_class.as_deref(), Some("insert"));
        assert_eq!(records[0].p99_ns, Some(9_000));
        let dir = std::env::temp_dir().join("scot-service-artifact-test");
        let dir = dir.to_str().unwrap();
        let path = write_service_artifact(dir, &rows).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(path.ends_with("BENCH_service.json"));
        for field in [
            "\"phase\"",
            "\"op_class\"",
            "\"p50_ns\"",
            "\"p99_ns\"",
            "\"p999_ns\"",
        ] {
            assert!(body.contains(field), "missing {field} in:\n{body}");
        }
        std::fs::remove_dir_all(dir).ok();
        // The throughput presets serialize the new fields as null, keeping
        // one schema across every BENCH_*.json.
        let artifact = bench_artifact("smoke", &[]);
        assert!(artifact.records.is_empty());
    }

    #[test]
    fn quick_tab2_runs_and_renders() {
        let opts = ExperimentOptions::quick();
        let results = run_experiment("tab2", &opts, |_| {}).unwrap();
        assert!(!results.is_empty());
        let table = restart_table(&results);
        assert!(table.contains("HMList"));
        assert!(table.contains("HList"));
    }
}
