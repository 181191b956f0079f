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
//! | cache  | (extension) | key-value cache, 90% value-returning get, every scheme variant |
//! | skiplist | (extension) | skip-list 50r/50w sweep over every scheme variant |
//! | scan   | (extension) | guard-scoped range scans, scan-length sweep × every scheme variant |
//! | cursor | (ablation) | hot-path pass: one guard per 16 operations (`batch` arm) vs the per-op pin `base` arm |
//! | faults | (extension) | fault-injection robustness verdicts, every scheme variant |
//! | service | (extension) | phased cache-server soak: Zipfian keys, p50/p99/p999 per op-class |
//!
//! Key ranges and mixes match the paper exactly; thread counts are scaled to
//! the host (`default_thread_counts`), and fig12's 50M-key range can be scaled
//! down with `ExperimentOptions::scale_large_range` so the sweep finishes on
//! small machines while still exceeding cache capacity.
//!
//! Every preset is a row of [`spec`]'s table.  One sweep driver
//! ([`run_experiment`]) runs the timed ones: enumerate the cells, run each
//! `opts.runs` times, keep the median.  `faults` and `service` have sweeps
//! of their own over the one scenario runner.  Every result table is a
//! column list over one renderer, and every artifact goes through
//! [`crate::artifact`].

use crate::faults::{run_fault_scenario, FaultKind, FaultReport};
use crate::kv::run_timed_kv;
use crate::phases::Scenario;
use crate::service::{run_service_scenario, ServiceReport};
use crate::table::{render, Column};
use crate::workload::{run_timed, Arm, DsKind, Mix, RunConfig, RunResult};
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
    /// Operations per critical section in the measurement loop (the
    /// `--pin-batch` CLI knob).  1 is the paper's protocol — pin, one
    /// operation, unpin; larger values hold one guard across N operations,
    /// then drop it and pin again.  The `cursor` ablation's batch arm uses
    /// this value when it is above 1, and 16 otherwise.
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
            scan_lens: vec![8, 64],
            ..Self::default()
        }
    }

    /// The largest requested thread count: where single-point presets run.
    fn last_threads(&self) -> usize {
        *self.threads.last().unwrap_or(&2)
    }
}

/// What a preset sweeps within each structure × scheme pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Axis {
    /// Every thread count of [`ExperimentOptions::threads`].
    Threads,
    /// Every window width of [`ExperimentOptions::scan_lens`], at the largest
    /// thread count.
    ScanLen,
    /// Nothing: one point, at the largest thread count.
    Point,
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
    /// Operation mix of every cell.
    pub(crate) mix: Mix,
    /// Whether cells store and read back values (the key-value workload of
    /// [`run_timed_kv`]) instead of running the membership workload.
    pub(crate) values: bool,
    /// The arms run at every point (empty: one unnamed run).
    pub(crate) arms: &'static [Arm],
    /// The axis swept within each structure × scheme pair.
    pub(crate) axis: Axis,
}

impl ExperimentSpec {
    /// The structure × scheme pairs of the preset, structure-major.
    fn pairs(&self) -> impl Iterator<Item = (DsKind, SmrKind)> + '_ {
        self.structures
            .iter()
            .flat_map(|&ds| self.schemes.iter().map(move |&smr| (ds, smr)))
    }
}

/// All experiment identifiers, in paper order (the `pool` ablation, the
/// key-value `cache` workload, the `skiplist` structure sweep and the
/// `faults` robustness validation are this reproduction's own additions and
/// come last).
pub const ALL_EXPERIMENTS: [&str; 19] = [
    "fig8a", "fig8b", "fig9a", "fig9b", "fig10a", "fig10b", "fig11a", "fig11b", "fig12a", "fig12b",
    "tab1", "tab2", "pool", "cache", "skiplist", "scan", "cursor", "faults", "service",
];

/// The caption of each preset, as `scot-bench list` prints it.
fn description(id: &str) -> &'static str {
    match id {
        "fig8a" => "Linked list throughput, 50% read / 50% write, key range 512",
        "fig8b" => "Linked list throughput, 50% read / 50% write, key range 10,000",
        "fig9a" => "NMTree throughput, 50% read / 50% write, key range 128",
        "fig9b" => "NMTree throughput, 50% read / 50% write, key range 100,000",
        "fig10a" => "Linked list avg. not-yet-reclaimed objects, key range 512",
        "fig10b" => "Linked list avg. not-yet-reclaimed objects, key range 10,000",
        "fig11a" => "NMTree avg. not-yet-reclaimed objects, key range 128",
        "fig11b" => "NMTree avg. not-yet-reclaimed objects, key range 100,000",
        "fig12a" => "NMTree throughput, key range 50,000,000 (out of cache)",
        "fig12b" => "NMTree avg. not-yet-reclaimed objects, key range 50,000,000",
        "tab1" => "Compatibility matrix: every data structure under every SMR scheme",
        "tab2" => "Restart statistics under HP, key range 10,000 (Harris-Michael vs Harris)",
        "pool" => "Block-pool ablation: pool on vs off, write-only, HMList + NMTree",
        "cache" => "Key-value cache workload: 90% value-returning get, every SMR scheme variant",
        "skiplist" => "Skip-list sweep: 50% read / 50% write over every SMR scheme variant",
        "scan" => {
            "Guard-scoped range scans: scan-length sweep, every SMR scheme variant, \
             oracle-checked output (skip list + NM tree)"
        }
        "cursor" => {
            "Cursor hot-path ablation: one guard per batch of operations against \
             the per-op pin base (skip list + NM tree)"
        }
        "faults" => {
            "Fault-injection robustness: stalled, dying and panicking threads \
             against every SMR scheme variant, with a bounded-footprint verdict per cell"
        }
        "service" => {
            "Phased cache-server soak: Zipfian keys, per-phase p50/p99/p999 \
             latency per op-class, robust vs non-robust scheme spread"
        }
        _ => unreachable!("{id} is not in ALL_EXPERIMENTS"),
    }
}

/// Looks up the specification for an experiment id.
pub fn spec(id: &str, opts: &ExperimentOptions) -> Option<ExperimentSpec> {
    use {DsKind::*, SmrKind::*};
    let id = *ALL_EXPERIMENTS.iter().find(|known| **known == id)?;
    // The scheme list of the paper's figures in legend order, and the robust
    // schemes for which it reports memory overhead (Hyaline is skipped,
    // exactly as in §5).
    let paper = || vec![Nr, Ebr, Hp, HpOpt, Ibr, He, Hyaline];
    let memory = || vec![Ebr, Hp, HpOpt, Ibr, He];
    let every = || SmrKind::ALL.to_vec();
    let lists = [HmList, ListLf, ListWf];
    let large_range = 50_000_000 / opts.scale_large_range.max(1);
    // Quick sweeps keep the fault and service matrices affordable with a
    // single structure (and, for service, a small range); the full runs add
    // the tree (and the skip list, over millions of keys).
    let quick = opts.duration <= Duration::from_millis(150);
    let row = |structures: &[DsKind], schemes: Vec<SmrKind>, key_range: u64, memory_metric| {
        ExperimentSpec {
            id,
            description: description(id),
            structures: structures.to_vec(),
            schemes,
            key_range,
            memory_metric,
            mix: Mix::READ_50,
            values: false,
            arms: &[],
            axis: Axis::Threads,
        }
    };
    let point = |spec: ExperimentSpec| ExperimentSpec {
        axis: Axis::Point,
        ..spec
    };
    Some(match id {
        "fig8a" => row(&lists, paper(), 512, false),
        "fig8b" => row(&lists, paper(), 10_000, false),
        "fig9a" => row(&[Tree], paper(), 128, false),
        "fig9b" => row(&[Tree], paper(), 100_000, false),
        "fig10a" => row(&lists, memory(), 512, true),
        "fig10b" => row(&lists, memory(), 10_000, true),
        "fig11a" => row(&[Tree], memory(), 128, true),
        "fig11b" => row(&[Tree], memory(), 100_000, true),
        "fig12a" => row(&[Tree], paper(), large_range, false),
        "fig12b" => row(&[Tree], memory(), large_range, true),
        "tab1" => point(row(&DsKind::ALL, every(), 256, false)),
        "tab2" => row(&[HmList, ListLf], vec![Hp], 10_000, false),
        "pool" => ExperimentSpec {
            mix: Mix::WRITE_ONLY,
            arms: &[Arm::POOL_ON, Arm::POOL_OFF],
            ..point(row(&[HmList, Tree], vec![Ebr, Hp, Ibr], 512, false))
        },
        "cache" => ExperimentSpec {
            mix: Mix::READ_90,
            values: true,
            ..point(row(&[HashMap], every(), 8192, false))
        },
        "skiplist" => point(row(&[SkipList], every(), 10_000, false)),
        "scan" => ExperimentSpec {
            mix: Mix::SCAN_HEAVY,
            axis: Axis::ScanLen,
            ..row(&[SkipList, Tree], every(), 8192, false)
        },
        "cursor" => ExperimentSpec {
            arms: &[Arm::BASE, Arm::BATCH],
            ..point(row(&[SkipList, Tree], vec![Ebr, Hp, Ibr, Vbr], 8192, false))
        },
        "faults" if quick => point(row(&[ListLf], every(), 512, true)),
        "faults" => point(row(&[ListLf, Tree], every(), 512, true)),
        "service" if quick => point(row(&[ListLf], vec![Ebr, Hp, Ibr, Nbr, Vbr], 4096, false)),
        "service" => point(row(
            &[ListLf, Tree, SkipList],
            vec![Ebr, Hp, Ibr, Nbr, Vbr],
            2_000_000,
            false,
        )),
        _ => unreachable!("{id} is not in ALL_EXPERIMENTS"),
    })
}

/// The median of a cell's repetitions by throughput, as in the paper.
fn median_by_throughput(mut runs: Vec<RunResult>) -> RunResult {
    runs.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
    runs.swap_remove(runs.len() / 2)
}

/// Runs one timed experiment preset, returning every measured point.
/// `progress` is invoked after each completed run with its textual row.
///
/// Returns `None` for an unknown id and for the `faults` and `service`
/// presets, whose reports have shapes of their own: run those through
/// [`run_faults_experiment`] and [`run_service_experiment`].
pub fn run_experiment(
    id: &str,
    opts: &ExperimentOptions,
    progress: impl FnMut(&RunResult),
) -> Option<Vec<RunResult>> {
    let spec = spec(id, opts).filter(|_| !matches!(id, "faults" | "service"))?;
    Some(run_cells(&spec, opts, progress))
}

/// The sweep driver of every timed preset: for each structure × scheme pair,
/// each point of the spec's axis and each arm, `opts.runs` repetitions of one
/// timed cell and their median.
fn run_cells(
    spec: &ExperimentSpec,
    opts: &ExperimentOptions,
    mut progress: impl FnMut(&RunResult),
) -> Vec<RunResult> {
    let last = opts.last_threads();
    // The axis as (threads, scan window override) points.
    let points: Vec<(usize, Option<u64>)> = match spec.axis {
        Axis::Threads => opts.threads.iter().map(|&t| (t, None)).collect(),
        Axis::ScanLen => opts.scan_lens.iter().map(|&l| (last, Some(l))).collect(),
        Axis::Point => vec![(last, None)],
    };
    let arms: Vec<Option<Arm>> = match spec.arms {
        [] => vec![None],
        arms => arms.iter().copied().map(Some).collect(),
    };
    let run = if spec.values { run_timed_kv } else { run_timed };
    let mut results = Vec::new();
    for (ds, smr) in spec.pairs() {
        for &(threads, scan_len) in &points {
            for &arm in &arms {
                let mut cfg = RunConfig::paper_default(threads, spec.key_range);
                cfg.duration = opts.duration;
                cfg.pin_batch = opts.pin_batch;
                cfg.value_bytes = opts.value_bytes;
                cfg.mix = spec.mix;
                if let Some(len) = scan_len {
                    cfg.scan_len = len;
                }
                if let Some(arm) = arm {
                    (arm.set)(&mut cfg);
                }
                let mut median =
                    median_by_throughput((0..opts.runs).map(|_| run(ds, smr, &cfg)).collect());
                median.arm = arm.map(|a| a.name.to_string());
                progress(&median);
                results.push(median);
            }
        }
    }
    results
}

/// Runs the fault-injection robustness experiment: every structure × scheme
/// pair of the `faults` spec under every fault class in `opts.faults`,
/// returning one verdict per cell.  The requested per-run duration is the
/// total of each cell's [`Scenario::faults`].
pub fn run_faults_experiment(
    opts: &ExperimentOptions,
    mut progress: impl FnMut(&FaultReport),
) -> Vec<FaultReport> {
    let spec = spec("faults", opts).expect("faults spec always exists");
    let cfg = RunConfig::paper_default(opts.last_threads(), spec.key_range);
    let mut reports = Vec::new();
    for (ds, smr) in spec.pairs() {
        for &kind in &opts.faults {
            let plan = Scenario::faults(kind, opts.duration, cfg.mix);
            let r = run_fault_scenario(ds, smr, &cfg, &plan);
            progress(&r);
            reports.push(r);
        }
    }
    reports
}

/// Runs the service experiment: every structure × scheme pair of the
/// `service` spec through the four-phase cache-server scenario, at the
/// largest requested thread count; the requested per-run duration is the
/// *total* across the four phases, split by [`Scenario::service`].  Returns
/// one row per (structure, scheme, phase, op-class); `progress` fires once
/// per phase (on its `get` row).
pub fn run_service_experiment(
    opts: &ExperimentOptions,
    mut progress: impl FnMut(&ServiceReport),
) -> Vec<ServiceReport> {
    let spec = spec("service", opts).expect("service spec always exists");
    let cfg = RunConfig {
        zipf_theta: opts.zipf_theta,
        ..RunConfig::paper_default(opts.last_threads(), spec.key_range)
    };
    let plan = Scenario::service(opts.duration);
    let mut reports = Vec::new();
    for (ds, smr) in spec.pairs() {
        let rows = run_service_scenario(ds, smr, &cfg, &plan);
        rows.iter()
            .filter(|r| r.op_class == "get")
            .for_each(&mut progress);
        reports.extend(rows);
    }
    reports
}

fn yes_no(yes: bool) -> String {
    if yes { "yes" } else { "no" }.to_string()
}

/// Whether a result's scheme is robust ([`SmrKind::is_robust`]).
pub(crate) fn is_robust(r: &RunResult) -> bool {
    SmrKind::parse(&r.smr).is_some_and(|k| k.is_robust())
}

/// Percentage by which `new` differs from `base`.
fn delta_pct(new: f64, base: f64) -> f64 {
    100.0 * (new - base) / base
}

/// A column over throughput results.
type ResultColumn<'a> = Column<'a, RunResult>;

/// The four leading columns every throughput table shares.
fn lead_columns<'a>(structure_width: usize) -> Vec<ResultColumn<'a>> {
    vec![
        ResultColumn::left("structure", structure_width, |r| r.ds.clone()),
        ResultColumn::left("scheme", 8, |r| r.smr.clone()),
        ResultColumn::right("robust", 7, |r| yes_no(is_robust(r))),
        ResultColumn::right("threads", 8, |r| r.threads.to_string()),
    ]
}

/// The uniform restart / recovery counter columns.
fn counter_columns<'a>() -> [ResultColumn<'a>; 2] {
    [
        ResultColumn::right("restarts", 10, |r| r.restarts.to_string()),
        ResultColumn::right("recoveries", 12, |r| r.recoveries.to_string()),
    ]
}

/// The row of `arm` measured at the same (structure, scheme, threads) point
/// as `r`.
fn partner<'a>(results: &'a [RunResult], r: &RunResult, arm: Arm) -> Option<&'a RunResult> {
    results.iter().find(|o| {
        (&o.ds, &o.smr, o.threads) == (&r.ds, &r.smr, r.threads)
            && o.arm.as_deref() == Some(arm.name)
    })
}

/// The rows of `results` measured under `arm`.
fn arm_rows(results: &[RunResult], arm: Arm) -> impl Iterator<Item = &RunResult> {
    results
        .iter()
        .filter(move |r| r.arm.as_deref() == Some(arm.name))
}

/// Renders the service experiment: one row per structure × scheme × phase ×
/// op-class with the phase throughput, the class's latency percentiles (`-`
/// where the class recorded no samples), and the per-phase footprint and
/// restart/recovery counters.
pub fn service_table(reports: &[ServiceReport]) -> String {
    let ns = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |ns| ns.to_string());
    let columns = [
        Column::<ServiceReport>::left("structure", 10, |r| r.ds.clone()),
        Column::<ServiceReport>::left("scheme", 8, |r| r.smr.clone()),
        Column::<ServiceReport>::left("phase", 14, |r| r.phase.clone()),
        Column::<ServiceReport>::left("class", 8, |r| r.op_class.clone()),
        Column::<ServiceReport>::right("robust", 7, |r| yes_no(r.is_robust)),
        Column::<ServiceReport>::right("ops/s", 14, |r| format!("{:.0}", r.ops_per_sec)),
        Column::<ServiceReport>::right("p50_ns", 10, |r| ns(r.p50_ns)),
        Column::<ServiceReport>::right("p99_ns", 10, |r| ns(r.p99_ns)),
        Column::<ServiceReport>::right("p999_ns", 10, |r| ns(r.p999_ns)),
        Column::<ServiceReport>::right("samples", 9, |r| r.samples.to_string()),
        Column::<ServiceReport>::right("peak", 10, |r| r.peak_unreclaimed.to_string()),
        Column::<ServiceReport>::right("restarts", 10, |r| r.restarts.to_string()),
        Column::<ServiceReport>::right("recoveries", 11, |r| r.recoveries.to_string()),
    ];
    let title = "Service scenario: Zipfian cache-server phases \
                 (warmup -> read-storm -> churn-spike -> reader-stall)";
    render(title, &columns, reports)
}

/// Renders the fault-injection verdict table: peak/steady unreclaimed per
/// scheme × structure per fault class, the bound each peak was judged
/// against, and the verdict.  The `pool-leak` column is the thread-death
/// blind spot made visible: blocks stranded in dead victims' leaked pool
/// caches, which `residual`/`drained` cannot see
/// ([`FaultReport::pool_leak_bound`]).  Ends with a one-line claim-violation
/// summary ([`claim_violations`]).
pub fn faults_table(reports: &[FaultReport]) -> String {
    let pool_leak = |r: &FaultReport| match r.pool_leak_bound {
        0 => "0".to_string(),
        n => format!("<={n}"),
    };
    let columns = [
        Column::<FaultReport>::left("structure", 10, |r| r.ds.clone()),
        Column::<FaultReport>::left("scheme", 8, |r| r.smr.clone()),
        Column::<FaultReport>::left("fault", 18, |r| r.fault.clone()),
        Column::<FaultReport>::right("robust", 7, |r| yes_no(r.is_robust)),
        Column::<FaultReport>::right("warmup-end", 10, |r| r.baseline.to_string()),
        Column::<FaultReport>::right("peak", 10, |r| r.peak.to_string()),
        Column::<FaultReport>::right("bound", 10, |r| r.bound.to_string()),
        Column::<FaultReport>::right("residual", 10, |r| r.residual.to_string()),
        Column::<FaultReport>::right("drained", 9, |r| yes_no(r.drained)),
        Column::<FaultReport>::right("pool-leak", 10, pool_leak),
        Column::<FaultReport>::left("  verdict", 0, |r| format!("  {}", r.verdict)),
    ];
    let title =
        "Fault-injection robustness: bounded peak unreclaimed per scheme x structure x fault";
    format!(
        "{}{} cells, {} robustness-claim violations\n",
        render(title, &columns, reports),
        reports.len(),
        claim_violations(reports),
    )
}

/// The cells that violate their scheme's robustness claim
/// ([`FaultReport::violates_claim`]): what the verdict table's summary line
/// counts and what makes `scot-bench exp faults` exit 1.
pub fn claim_violations(reports: &[FaultReport]) -> usize {
    reports.iter().filter(|r| r.violates_claim()).count()
}

/// Renders the scan experiment: throughput and scanned-key volume per
/// (structure, scheme, scan length), with the uniform restart/recovery
/// columns.  `keys/scan` is the average scan yield — about half the window
/// width at the harness's 50% prefill density.
pub fn scan_table(results: &[RunResult]) -> String {
    // Scans are scan_pct% of all completed operations.
    let scans =
        |r: &RunResult| (r.ops as f64 * f64::from(Mix::SCAN_HEAVY.scan_pct) / 100.0).max(1.0);
    let mut columns = lead_columns(10);
    columns.extend([
        ResultColumn::right("scan_len", 10, |r| r.scan_len.to_string()),
        ResultColumn::right("ops/s", 14, |r| format!("{:.0}", r.ops_per_sec)),
        ResultColumn::right("keys scanned", 16, |r| r.scanned_keys.to_string()),
        ResultColumn::right("keys/scan", 11, move |r| {
            format!("{:.1}", r.scanned_keys as f64 / scans(r))
        }),
    ]);
    columns.extend(counter_columns());
    let title = "Range-scan sweep: 80% guard-scoped scans / 10% insert / 10% delete, \
                 oracle-checked output";
    render(title, &columns, results)
}

/// A per-scheme sweep table: throughput, the sampled reclamation backlog and
/// the restart/recovery counters.
fn backlog_table(title: &str, results: &[RunResult]) -> String {
    let mut columns = lead_columns(12);
    columns.extend([
        ResultColumn::right("ops/s", 16, |r| format!("{:.0}", r.ops_per_sec)),
        ResultColumn::right("unreclaimed(avg)", 18, RunResult::backlog),
    ]);
    columns.extend(counter_columns());
    render(title, &columns, results)
}

/// Renders the cache experiment as a per-scheme table: value-read throughput
/// plus the sampled reclamation backlog (n/a where the paper skips it).
pub fn cache_table(results: &[RunResult], value_bytes: usize) -> String {
    let title = format!(
        "Key-value cache workload: 90% get / 5% insert / 5% remove, {value_bytes}-byte values"
    );
    backlog_table(&title, results)
}

/// Renders the skip-list sweep as a per-scheme table: throughput, the sampled
/// reclamation backlog (n/a where the paper skips it — Hyaline — and where
/// nothing is ever reclaimed — NR) and the traversal restarts the recovery
/// ladder could not absorb.
pub fn skiplist_table(results: &[RunResult]) -> String {
    let title = "Skip-list sweep: 50% read / 25% insert / 25% delete, every scheme variant";
    backlog_table(title, results)
}

/// Renders the block-pool ablation as pool-on/pool-off pairs with the
/// throughput delta the pool buys on this machine.
pub fn pool_table(results: &[RunResult]) -> String {
    let off = |on: &RunResult| partner(results, on, Arm::POOL_OFF).map_or(0.0, |r| r.ops_per_sec);
    let delta = |on: &RunResult| match off(on) {
        off if off > 0.0 => delta_pct(on.ops_per_sec, off),
        _ => 0.0,
    };
    let mut columns = lead_columns(12);
    columns.extend([
        ResultColumn::right("pool-on ops/s", 16, |on| format!("{:.0}", on.ops_per_sec)),
        ResultColumn::right("pool-off ops/s", 16, |on| format!("{:.0}", off(on))),
    ]);
    columns.extend(counter_columns());
    columns.push(ResultColumn::right("delta", 12, |on| {
        format!("{:+.1}%", delta(on))
    }));
    let title = "Block-pool ablation, write-only mix (50% insert / 50% delete)";
    let paired =
        arm_rows(results, Arm::POOL_ON).filter(|on| partner(results, on, Arm::POOL_OFF).is_some());
    render(title, &columns, paired)
}

/// Renders the cursor hot-path ablation: one row per structure × scheme with
/// the per-op pin base throughput, the `+batch` arm's delta against it, and
/// the base arm's backoff spin count (a large count flags a contention-bound
/// configuration, where the delta says little about batching).
pub fn cursor_table(results: &[RunResult]) -> String {
    let batch = |base: &RunResult| {
        partner(results, base, Arm::BATCH)
            .filter(|_| base.ops_per_sec > 0.0)
            .map_or_else(
                || "-".to_string(),
                |r| format!("{:+.1}%", delta_pct(r.ops_per_sec, base.ops_per_sec)),
            )
    };
    let mut columns = lead_columns(12);
    columns.extend([
        ResultColumn::right("base ops/s", 14, |base| format!("{:.0}", base.ops_per_sec)),
        ResultColumn::right("+batch", 9, batch),
        ResultColumn::right("spins(base)", 13, |base| base.spins.to_string()),
    ]);
    let title =
        "Cursor hot-path ablation: 50% read / 50% write, +batch relative to the per-op pin base";
    render(title, &columns, arm_rows(results, Arm::BASE))
}

/// Renders a compatibility matrix (Table 1) from smoke-run results: a
/// structure is "compatible" with a scheme if its runs completed operations.
/// Robust schemes (bounded unreclaimed growth under stalled readers) carry a
/// `*` marker.
pub fn compatibility_matrix(results: &[RunResult]) -> String {
    let ran = |ds: &DsKind, smr: SmrKind| {
        results
            .iter()
            .any(|r| r.ds == ds.name() && r.smr == smr.name() && r.ops > 0)
    };
    let mut columns = vec![Column::<DsKind>::left("structure", 12, |ds| {
        ds.name().to_string()
    })];
    columns.extend(SmrKind::ALL.map(|smr| {
        let star = if smr.is_robust() { "*" } else { "" };
        let cell = move |ds: &DsKind| if ran(ds, smr) { "ok" } else { "-" }.to_string();
        Column::<DsKind>::right(format!("{}{star}", smr.name()), 9, cell)
    }));
    render("", &columns, &DsKind::ALL)
        + "(* = robust: bounded unreclaimed memory under stalled/dead readers)\n"
}

/// Renders Table 2 (restart statistics) from the tab2 results.
pub fn restart_table(results: &[RunResult]) -> String {
    let pct = |r: &RunResult| match r.ops {
        0 => 0.0,
        ops => 100.0 * r.restarts as f64 / ops as f64,
    };
    let columns = [
        ResultColumn::left("structure", 12, |r| r.ds.clone()),
        ResultColumn::right("threads", 10, |r| r.threads.to_string()),
        ResultColumn::right("restarts", 16, |r| r.restarts.to_string()),
        ResultColumn::right("recoveries", 12, |r| r.recoveries.to_string()),
        ResultColumn::right("ops/sec", 16, |r| format!("{:.0}", r.ops_per_sec)),
        ResultColumn::right("restart %", 12, move |r| format!("{:.2}%", pct(r))),
    ];
    let title = "Restart statistics under HP (robust), key range 10,000 (paper Table 2)";
    render(title, &columns, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{
        bench_artifact, fault_artifact, write_bench_artifact, write_fault_artifact,
    };

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
        let has = |smr: &str, arm: &str| {
            results
                .iter()
                .any(|r| r.smr == smr && r.arm.as_deref() == Some(arm))
        };
        assert!(has("EBR", "pool-on") && has("IBR", "pool-off"));
        assert!(results.iter().any(|r| r.row().contains("EBR+pool ")));
        assert!(results.iter().any(|r| r.row().contains("IBR-pool ")));
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
        for arm in ["base", "batch"] {
            assert!(
                results
                    .iter()
                    .any(|r| r.smr == "EBR" && r.arm.as_deref() == Some(arm) && r.ops > 0),
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

    /// A result whose only interesting fields are the scheme and the arm.
    fn labelled(smr: &str, arm: Option<Arm>) -> RunResult {
        RunResult {
            ds: "HMList".into(),
            smr: smr.into(),
            arm: arm.map(|a| a.name.to_string()),
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
        }
    }

    #[test]
    fn cursor_arm_labels_do_not_hide_robustness() {
        // The arm is a field of its own, so the scheme always parses and a
        // record's robustness flag never depends on which arm it belongs to.
        let results = [
            labelled("HP", Some(Arm::BASE)),
            labelled("IBR", Some(Arm::BATCH)),
            labelled("EBR", Some(Arm::BASE)),
            labelled("VBR", Some(Arm::BATCH)),
        ];
        let records = bench_artifact("cursor", &results).records;
        let flags: Vec<bool> = records.iter().map(|r| r.is_robust).collect();
        assert_eq!(flags, [true, true, false, false]);
        for (record, result) in records.iter().zip(&results) {
            assert!(SmrKind::parse(&record.smr).is_some(), "{}", record.smr);
            assert_eq!(record.arm, result.arm);
        }
        assert_eq!(records[3].smr, "VBR");
        assert_eq!(records[3].arm.as_deref(), Some("batch"));
        // Presentation only: the progress row still reads `VBR+batch`, and
        // every arm has a label.
        assert!(results[3].row().contains(" VBR+batch "));
        for arm in [Arm::POOL_ON, Arm::POOL_OFF, Arm::BASE, Arm::BATCH] {
            let row = labelled("EBR", Some(arm)).row();
            assert!(!row.contains(" EBR "), "{} has no label: {row}", arm.name);
        }
        assert!(labelled("EBR", None).row().contains(" EBR "));
    }

    #[test]
    fn cursor_arms_toggle_exactly_one_knob_each() {
        // One knob is left: the base pins per operation, `batch` batches.
        let spec = spec("cursor", &ExperimentOptions::quick()).unwrap();
        let names: Vec<&str> = spec.arms.iter().map(|a| a.name).collect();
        assert_eq!(names, ["base", "batch"]);
        // The pin batch an arm leaves on a cell that requested `requested`;
        // nothing else in the configuration may move.
        let batch_of = |arm: Arm, requested: u64| {
            let mut untouched = RunConfig::paper_default(2, 64);
            untouched.pin_batch = requested;
            let mut cfg = untouched.clone();
            (arm.set)(&mut cfg);
            let pin_batch = std::mem::replace(&mut cfg.pin_batch, requested);
            assert_eq!(format!("{cfg:?}"), format!("{untouched:?}"), "{}", arm.name);
            pin_batch
        };
        assert_eq!(batch_of(Arm::BASE, 1), 1);
        assert_eq!(batch_of(Arm::BATCH, 1), 16);
        assert_eq!(batch_of(Arm::BASE, 4), 1, "the base is never batched");
        assert_eq!(batch_of(Arm::BATCH, 4), 4);
    }

    #[test]
    fn bench_artifact_is_normalized_and_writable() {
        let results = vec![RunResult {
            avg_unreclaimed: Some(1.5),
            max_unreclaimed: Some(3),
            ..labelled("NBR", None)
        }];
        let artifact = bench_artifact("smoke", &results);
        assert_eq!(artifact.preset, "smoke");
        // The artifact's scheme list is single-sourced from `SmrKind::ALL`.
        assert_eq!(artifact.schemes.len(), SmrKind::ALL.len());
        assert!(artifact.schemes.iter().any(|s| s == "NBR"));
        assert!(artifact.schemes.iter().any(|s| s == "VBR"));
        assert_eq!(artifact.records.len(), 1);
        assert_eq!(artifact.records[0].peak_unreclaimed, Some(3));
        assert_eq!(artifact.records[0].avg_unreclaimed, Some(1.5));
        let dir = std::env::temp_dir().join("scot-bench-artifact-test");
        let dir = dir.to_str().unwrap();
        let path = write_bench_artifact(dir, "smoke", &results).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(path.ends_with("BENCH_smoke.json"));
        assert!(body.contains("\"ops_per_sec\""));
        assert!(body.contains("\"peak_unreclaimed\""));
        assert!(body.contains("\"avg_unreclaimed\": 1.5"));
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
        assert_eq!(
            artifact.faults,
            ["thread-death"],
            "only the classes that ran"
        );
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
        let pooled = labelled("IBR", Some(Arm::POOL_ON));
        let artifact = bench_artifact(
            "smoke",
            &[labelled("HP", None), labelled("EBR", None), pooled],
        );
        assert!(artifact.records[0].is_robust, "HP is robust");
        assert!(!artifact.records[1].is_robust, "EBR is not robust");
        assert!(
            artifact.records[2].is_robust,
            "the pool arm must not hide IBR's robustness"
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
        let records = bench_artifact("service", &rows).records;
        assert_eq!(records[0].phase.as_deref(), Some("churn-spike"));
        assert_eq!(records[0].op_class.as_deref(), Some("insert"));
        assert_eq!(records[0].p99_ns, Some(9_000));
        let dir = std::env::temp_dir().join("scot-service-artifact-test");
        let dir = dir.to_str().unwrap();
        let path = write_bench_artifact(dir, "service", &rows).unwrap();
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
        let artifact = bench_artifact::<RunResult>("smoke", &[]);
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
