//! The `exp service` scenario: a production-shaped cache-server run with
//! per-phase, per-op-class latency histograms.
//!
//! Every other experiment is a fixed-duration uniform-key throughput run, but
//! the paper's central claim — fixed optimistic traversals make the
//! structures compatible with *robust* reclamation at little cost — only
//! matters in production if that cost stays invisible in the tail, which is
//! exactly where reclamation stalls (HP scans, NBR neutralization, VBR
//! checkpoint restarts) surface.  The service scenario therefore runs a
//! Zipfian-skewed key-value style workload through four phases driven by the
//! shared phase clock (the crate-private `phases` module, shared with the
//! fault runner):
//!
//! 1. **warmup** — the paper's 50/25/25 mix (minus a sliver of scans) brings
//!    the structure and the reclamation scheme to steady state.
//! 2. **read-storm** — a 90%-read phase with scans: the cache-hit regime
//!    where get tail latency is the product.
//! 3. **churn-spike** — writes dominate (≈88%): retirement pressure peaks,
//!    so reclamation work (and its latency cost) peaks with it.
//! 4. **reader-stall** — the paper-default mix again, but with stalled
//!    readers pinned for the whole phase: non-robust schemes balloon their
//!    footprint here and every scheme shows what a stalled reader does to
//!    its tail.
//!
//! Latency is recorded into lock-free *thread-local* histograms
//! ([`crate::hist::OpHistograms`]) — one per op-class — and merged into the
//! per-phase accumulators only when a worker observes a phase edge, so the
//! hot loop never touches shared state.  Timing is amortized: only 1-in-N
//! operations are stamped (two `Instant::now` calls), which leaves the
//! percentile estimate unbiased while keeping the timer out of the
//! measurement for the other N−1 ops (see DESIGN.md § Latency methodology).

use crate::hist::{OpClass, OpHistograms};
use crate::phases::{run_phased, silence_injected_panics, stall_actor, Actor, PhaseEvent};
use crate::workload::{
    with_target, Draw, DsKind, LoopControl, Membership, Mix, Ops, RunConfig, Target, Visitor,
};
use scot::{ConcurrentMap, TraversalSnapshot};
use scot_smr::SmrKind;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of service phases (the phase word's stop value).
pub const NUM_SERVICE_PHASES: usize = 4;

/// Phase names, indexed by the phase word — the single source of truth used
/// by the table renderer, the JSON artifact, and the docs.
pub const SERVICE_PHASE_NAMES: [&str; NUM_SERVICE_PHASES] =
    ["warmup", "read-storm", "churn-spike", "reader-stall"];

/// The service scenario's schedule and knobs.
#[derive(Debug, Clone)]
pub struct ServicePlan {
    /// Length of the steady-state warmup phase.
    pub warmup: Duration,
    /// Length of the read-dominated phase.
    pub read_storm: Duration,
    /// Length of the write-dominated phase.
    pub churn_spike: Duration,
    /// Length of the stalled-reader phase.
    pub reader_stall: Duration,
    /// Zipfian skew for key draws (`0.0` = uniform; the preset uses 0.99).
    pub zipf_theta: f64,
    /// Stalled readers pinned through the reader-stall phase.
    pub stall_victims: usize,
    /// Amortized timing rate: 1-in-`sample_every` operations are stamped.
    pub sample_every: u32,
}

impl ServicePlan {
    /// Splits a total run length into the four phases (≈ 20/30/25/25 with
    /// floors so `--quick` runs still give every phase time to mean
    /// something) with the preset's default victim count and sampling rate.
    pub fn new(total: Duration, zipf_theta: f64) -> Self {
        Self {
            warmup: (total * 20 / 100).max(Duration::from_millis(30)),
            read_storm: (total * 30 / 100).max(Duration::from_millis(40)),
            churn_spike: (total * 25 / 100).max(Duration::from_millis(40)),
            reader_stall: (total * 25 / 100).max(Duration::from_millis(40)),
            zipf_theta,
            stall_victims: 2,
            sample_every: 16,
        }
    }

    /// The phase schedule in phase-word order.
    pub fn durations(&self) -> [Duration; NUM_SERVICE_PHASES] {
        [
            self.warmup,
            self.read_storm,
            self.churn_spike,
            self.reader_stall,
        ]
    }

    /// The operation mix for a phase.  Every phase carries at least a sliver
    /// of every op-class so all four histograms populate in every phase.
    pub fn mix_for(&self, phase: u8) -> Mix {
        match phase as usize {
            1 => Mix {
                read_pct: 90,
                insert_pct: 3,
                delete_pct: 3,
                scan_pct: 4,
            },
            2 => Mix {
                read_pct: 10,
                insert_pct: 44,
                delete_pct: 44,
                scan_pct: 2,
            },
            // warmup (0) and reader-stall (3): the paper-default mix with a
            // sliver of scans, so the stall phase is directly comparable to
            // warmup.
            _ => Mix {
                read_pct: 50,
                insert_pct: 24,
                delete_pct: 24,
                scan_pct: 2,
            },
        }
    }
}

/// Per-phase shared accumulator: workers merge their thread-local histograms
/// and op counts here when they observe the phase edge — never per-op.
struct PhaseAccum {
    hists: Mutex<OpHistograms>,
    ops: AtomicU64,
}

impl PhaseAccum {
    fn new() -> Self {
        Self {
            hists: Mutex::new(OpHistograms::new()),
            ops: AtomicU64::new(0),
        }
    }
}

/// What one phase produced, before flattening into report rows;
/// [`ServiceReport`] documents the fields.
struct PhaseOutput {
    name: &'static str,
    ops: u64,
    /// Wall-clock length of the phase as driven (edge-to-edge).
    secs: f64,
    hists: OpHistograms,
    peak_unreclaimed: usize,
    restarts: u64,
    recoveries: u64,
}

/// A service worker's side of the measurement loop: its life across all
/// four phases.
///
/// The worker keeps *thread-local* histograms, re-reads the phase word before
/// every operation (an uncontended `Acquire` load), and flushes its locals
/// into the phase's shared accumulator only when the word changes — so the
/// measurement adds no shared-memory traffic to the hot path.
struct ServiceControl<'a> {
    phase: &'a AtomicU8,
    plan: &'a ServicePlan,
    accums: &'a [PhaseAccum; NUM_SERVICE_PHASES],
    my_phase: u8,
    /// The loop's operation count when `my_phase` began.
    ops_at_edge: u64,
    local: OpHistograms,
    tick: u32,
}

impl LoopControl for ServiceControl<'_> {
    fn proceed(&mut self, ops: u64, mix: &mut Mix) -> bool {
        let cur = self.phase.load(Ordering::Acquire);
        if cur != self.my_phase {
            // Phase edge: drain the thread-local measurements into the phase
            // that just ended.  This is the only shared-state touch.
            let acc = &self.accums[self.my_phase as usize];
            acc.hists.lock().unwrap().merge(&self.local);
            acc.ops.fetch_add(ops - self.ops_at_edge, Ordering::Relaxed);
            self.local = OpHistograms::new();
            self.ops_at_edge = ops;
            self.my_phase = cur;
            if cur as usize >= NUM_SERVICE_PHASES {
                return false;
            }
            *mix = self.plan.mix_for(cur);
        }
        true
    }

    /// Amortized timing: 1-in-`sample_every` operations are stamped.
    #[inline]
    fn start(&mut self) -> Option<Instant> {
        self.tick = self.tick.wrapping_add(1);
        self.tick
            .is_multiple_of(self.plan.sample_every.max(1))
            .then(Instant::now)
    }

    #[inline]
    fn finish(&mut self, class: OpClass, started: Instant) {
        self.local
            .record(class, started.elapsed().as_nanos() as u64);
    }
}

/// The phased service runner.
struct ServiceRun<'a> {
    cfg: &'a RunConfig,
    plan: &'a ServicePlan,
}

impl Visitor<()> for ServiceRun<'_> {
    /// One entry per phase, in phase order.
    type Out = Vec<PhaseOutput>;

    fn run<C: ConcurrentMap<u64, ()>>(self, target: &Target<C>) -> Vec<PhaseOutput> {
        let (cfg, plan) = (self.cfg, self.plan);
        for p in 0..NUM_SERVICE_PHASES {
            plan.mix_for(p as u8).validate();
        }
        // Stall actors run on "fault-actor-…" named threads; keep their panics
        // (there are none by design, but symmetry with the fault harness is
        // cheap) from spamming if one ever trips.
        silence_injected_panics();
        let ops = Ops::prefilled(target, Membership, cfg);
        let accums: [PhaseAccum; NUM_SERVICE_PHASES] = std::array::from_fn(|_| PhaseAccum::new());
        let baseline: TraversalSnapshot = target.map.traversal_stats();
        let mut edge_stats: Vec<TraversalSnapshot> = Vec::with_capacity(NUM_SERVICE_PHASES);
        let mut edge_elapsed: Vec<f64> = Vec::with_capacity(NUM_SERVICE_PHASES);
        let mut peaks = [0usize; NUM_SERVICE_PHASES];
        let stall_at = (NUM_SERVICE_PHASES - 1) as u8;
        let actors = (0..plan.stall_victims)
            .map(|v| {
                let (ops, key) = (&ops, v as u64 % cfg.key_range.max(1));
                Box::new(move |phase: &AtomicU8| stall_actor(ops, phase, key, stall_at))
                    as Actor<'_>
            })
            .collect();
        // The main thread is the phase clock and the footprint sampler —
        // Hyaline included, since the stall phase is a robustness question.
        run_phased(
            cfg.threads,
            &|t, phase| {
                let mut draw = Draw::for_thread(cfg.seed, t, cfg.key_range, plan.zipf_theta);
                let control = ServiceControl {
                    phase,
                    plan,
                    accums: &accums,
                    my_phase: 0,
                    ops_at_edge: 0,
                    local: OpHistograms::new(),
                    tick: 0,
                };
                ops.run_loop(&mut draw, plan.mix_for(0), cfg.pin_batch, control)
            },
            actors,
            &plan.durations(),
            cfg.sample_interval,
            target.unreclaimed.as_ref(),
            &mut |ev: PhaseEvent| {
                let p = ev.phase as usize;
                peaks[p] = peaks[p].max(ev.unreclaimed);
                if let Some(elapsed) = ev.edge {
                    edge_stats.push(target.map.traversal_stats());
                    edge_elapsed.push(elapsed.as_secs_f64());
                }
            },
        );
        // Every worker flushed its locals when it saw the stop value, and every
        // thread has joined, so the accumulators are complete and unaliased.
        let mut phases = Vec::with_capacity(NUM_SERVICE_PHASES);
        let mut prev_stats = baseline;
        let mut prev_t = 0.0;
        for (p, acc) in accums.into_iter().enumerate() {
            let hists = acc.hists.into_inner().unwrap();
            let ops = acc.ops.into_inner();
            let at_edge = edge_stats[p];
            let t_edge = edge_elapsed[p];
            phases.push(PhaseOutput {
                name: SERVICE_PHASE_NAMES[p],
                ops,
                secs: (t_edge - prev_t).max(0.0),
                hists,
                peak_unreclaimed: peaks[p],
                restarts: at_edge.restarts.saturating_sub(prev_stats.restarts),
                recoveries: at_edge.recoveries.saturating_sub(prev_stats.recoveries),
            });
            prev_stats = at_edge;
            prev_t = t_edge;
        }
        phases
    }
}

/// One row of the service result: one structure × scheme × phase × op-class.
///
/// `ops_per_sec` is the *phase's* total throughput (repeated across its four
/// class rows); the percentiles are per-class.  Percentiles are `None` when
/// the class recorded no samples in the phase (rendered as `-` in the table
/// and `null` in `BENCH_service.json`).
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Data structure under test.
    pub ds: String,
    /// Reclamation scheme under test.
    pub smr: String,
    /// Regular worker threads (stall actors excluded).
    pub threads: usize,
    /// Phase name ([`SERVICE_PHASE_NAMES`]).
    pub phase: String,
    /// Operation class ([`OpClass::name`]).
    pub op_class: String,
    /// Whether the scheme claims robustness ([`SmrKind::is_robust`]).
    pub is_robust: bool,
    /// Total operations the phase completed across all classes (repeated
    /// across the phase's class rows, like `ops_per_sec`).
    pub ops: u64,
    /// Phase throughput across all classes, in operations per second.
    pub ops_per_sec: f64,
    /// Latency samples recorded for this class in this phase.
    pub samples: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: Option<u64>,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: Option<u64>,
    /// 99.9th-percentile latency in nanoseconds.
    pub p999_ns: Option<u64>,
    /// Peak sampled unreclaimed count during the phase.
    pub peak_unreclaimed: usize,
    /// Traversal restarts during the phase.
    pub restarts: u64,
    /// §3.2.1 recoveries during the phase.
    pub recoveries: u64,
}

/// Runs the service scenario against one structure × scheme pair and
/// flattens the result into per-phase × per-op-class rows.
pub fn run_service_scenario(
    ds: DsKind,
    smr: SmrKind,
    cfg: &RunConfig,
    plan: &ServicePlan,
) -> Vec<ServiceReport> {
    // The registry is sized for the workers plus the stalled readers.
    let run = ServiceRun { cfg, plan };
    let phases = with_target(ds, smr, cfg, plan.stall_victims, run);
    let mut reports = Vec::with_capacity(phases.len() * OpClass::ALL.len());
    for ph in &phases {
        let ops_per_sec = if ph.secs > 0.0 {
            ph.ops as f64 / ph.secs
        } else {
            0.0
        };
        for class in OpClass::ALL {
            let h = ph.hists.class(class);
            let samples = h.count();
            reports.push(ServiceReport {
                ds: ds.name().to_string(),
                smr: smr.name().to_string(),
                threads: cfg.threads,
                phase: ph.name.to_string(),
                op_class: class.name().to_string(),
                is_robust: smr.is_robust(),
                ops: ph.ops,
                ops_per_sec,
                samples,
                p50_ns: (samples > 0).then(|| h.p50()),
                p99_ns: (samples > 0).then(|| h.p99()),
                p999_ns: (samples > 0).then(|| h.p999()),
                peak_unreclaimed: ph.peak_unreclaimed,
                restarts: ph.restarts,
                recoveries: ph.recoveries,
            });
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_plan() -> ServicePlan {
        ServicePlan {
            warmup: Duration::from_millis(15),
            read_storm: Duration::from_millis(25),
            churn_spike: Duration::from_millis(25),
            reader_stall: Duration::from_millis(25),
            zipf_theta: 0.99,
            stall_victims: 1,
            sample_every: 4,
        }
    }

    fn micro_cfg(threads: usize) -> RunConfig {
        RunConfig {
            sample_interval: Duration::from_millis(2),
            ..RunConfig::paper_default(threads, 256)
        }
    }

    #[test]
    fn plan_splits_and_floors_the_schedule() {
        let plan = ServicePlan::new(Duration::from_secs(10), 0.99);
        let d = plan.durations();
        assert_eq!(d[0], Duration::from_secs(2));
        assert_eq!(d[1], Duration::from_secs(3));
        assert_eq!(d[2], Duration::from_millis(2500));
        assert_eq!(d[3], Duration::from_millis(2500));
        // Tiny totals hit the floors instead of collapsing to zero.
        let quick = ServicePlan::new(Duration::from_millis(1), 0.0);
        assert!(quick
            .durations()
            .iter()
            .all(|d| *d >= Duration::from_millis(30)));
        // Every phase's mix is valid and includes every op-class.
        for p in 0..NUM_SERVICE_PHASES as u8 {
            let m = plan.mix_for(p);
            m.validate();
            assert!(m.read_pct > 0 && m.insert_pct > 0 && m.delete_pct > 0 && m.scan_pct > 0);
        }
        assert_eq!(SERVICE_PHASE_NAMES.len(), NUM_SERVICE_PHASES);
    }

    #[test]
    fn service_run_populates_every_phase_and_class() {
        let reports =
            run_service_scenario(DsKind::ListLf, SmrKind::Hp, &micro_cfg(2), &micro_plan());
        assert_eq!(reports.len(), NUM_SERVICE_PHASES * OpClass::ALL.len());
        for name in SERVICE_PHASE_NAMES {
            let rows: Vec<_> = reports.iter().filter(|r| r.phase == name).collect();
            assert_eq!(rows.len(), OpClass::ALL.len(), "{name}");
            assert!(
                rows.iter().all(|r| r.ops_per_sec > 0.0),
                "{name}: no throughput recorded"
            );
            // The dominant classes must have gathered samples with real
            // percentiles in every phase; thin classes may legitimately be
            // empty in a 25 ms phase.
            let get = rows.iter().find(|r| r.op_class == "get").unwrap();
            assert!(get.samples > 0, "{name}: no get samples");
            let (p50, p99, p999) = (
                get.p50_ns.unwrap(),
                get.p99_ns.unwrap(),
                get.p999_ns.unwrap(),
            );
            assert!(
                p50 <= p99 && p99 <= p999,
                "{name}: percentiles not monotone"
            );
            assert!(p50 > 0, "{name}: zero-ns median is not a real measurement");
        }
        assert!(reports.iter().all(|r| r.is_robust), "HP is robust");
    }

    #[test]
    fn stall_phase_balloons_ebr_but_not_hp() {
        // The reader-stall phase is the robustness story in miniature: EBR's
        // peak footprint in that phase should dwarf its warmup peak, while
        // HP's stays the same order of magnitude.  Keep the churn high so
        // there is something to balloon.
        let mut cfg = micro_cfg(4);
        cfg.key_range = 128;
        let mut plan = micro_plan();
        plan.reader_stall = Duration::from_millis(300);
        let peak_in = |reports: &[ServiceReport], phase: &str| {
            reports
                .iter()
                .find(|r| r.phase == phase)
                .map(|r| r.peak_unreclaimed)
                .unwrap()
        };
        let ebr = run_service_scenario(DsKind::ListLf, SmrKind::Ebr, &cfg, &plan);
        let hp = run_service_scenario(DsKind::ListLf, SmrKind::Hp, &cfg, &plan);
        let ebr_stall = peak_in(&ebr, "reader-stall");
        let hp_stall = peak_in(&hp, "reader-stall");
        assert!(
            ebr_stall > 4 * peak_in(&ebr, "warmup").max(64),
            "EBR stall peak {ebr_stall} did not balloon past warmup {}",
            peak_in(&ebr, "warmup")
        );
        assert!(
            hp_stall < ebr_stall,
            "HP stall peak {hp_stall} should undercut EBR's {ebr_stall}"
        );
    }
}
