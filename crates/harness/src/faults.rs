//! Fault-injection harness: measures reclamation robustness under stalled,
//! panicking, and dying threads.
//!
//! The paper's benchmark assumes well-behaved workers: every thread pins,
//! operates, unpins, and eventually unregisters.  Real systems are not that
//! polite — threads stall inside read-side critical sections, panic halfway
//! through an operation, or die without unregistering.  A reclamation scheme
//! is *robust* if a stalled or dead reader cannot cause unbounded memory
//! growth ([`SmrKind::is_robust`]); the fault harness turns that claim into a
//! measured verdict instead of a table footnote.
//!
//! Each scenario runs in four phases driven by a shared phase word:
//!
//! 1. **warmup** — only the regular workers run; the unreclaimed count at the
//!    end of the phase is the scheme's steady-state `baseline`.
//! 2. **fault** — `victims` fault actors misbehave according to the
//!    [`FaultKind`] while the workers keep hammering the structure.  The main
//!    thread samples the domain's unreclaimed count throughout (including for
//!    Hyaline, which the timed runner skips): the `peak` of those samples is
//!    the scheme's footprint under the fault.
//! 3. **recovery** — the actors stop misbehaving (stalled guards drop, dead
//!    threads are gone) and the workers run on, which lets schemes with
//!    amortized reclamation work off their backlog.
//! 4. **drain** — after every thread has joined, a fresh handle repeatedly
//!    [`ConcurrentMap::flush`]es the domain (adopting any slots orphaned by
//!    dead threads) until the unreclaimed count reaches zero or the drain
//!    timeout expires.  The drain *reports* a timeout rather than hanging.
//!
//! The verdict compares `peak` against a generous linear bound (a small
//! multiple of the steady-state baseline plus a per-thread allowance): robust
//! schemes must stay under it through every fault class, non-robust schemes
//! are expected to exceed it under reader stalls — and the table shows by how
//! much, instead of crashing or wedging the process.
//!
//! One measurement blind spot is deliberate: a [`FaultKind::ThreadDeath`]
//! victim leaks its handle, and with it the handle's per-thread block-pool
//! cache.  Pooled blocks are *recycled capacity*, not live garbage — they
//! left the `unreclaimed` count the moment they were reclaimed into the pool
//! — so a drain can legitimately report zero while up to
//! `victims × pool_blocks` cached blocks went out with the dead handles.
//! Rather than silently fold that into the verdict, each report carries the
//! worst case explicitly as [`FaultReport::pool_leak_bound`].

use crate::hist::OpClass;
use crate::phases::{
    run_phased, silence_injected_panics, stall_actor, wait_for_phase, Actor, PhaseEvent,
};
use crate::workload::{
    smr_config, with_target, Draw, DsKind, Membership, Mix, Ops, RunConfig, Tally, Target, Visitor,
    Workload,
};
use scot::ConcurrentMap;
use scot_smr::SmrKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Phase word value: fault-free warmup (baseline measurement at its end).
pub const PHASE_WARMUP: u8 = 0;
/// Phase word value: fault actors are misbehaving.
pub const PHASE_FAULT: u8 = 1;
/// Phase word value: actors recovered, workers running off the backlog.
pub const PHASE_RECOVERY: u8 = 2;
/// Phase word value: everyone exits.
pub const PHASE_STOP: u8 = 3;

/// Phase names, indexed by the phase word — the single source of truth for
/// the verdict table, the CLI progress lines, and the docs (the warmup phase
/// *ends* with the `baseline` measurement, hence `warmup-end` in table
/// headers).
pub const FAULT_PHASE_NAMES: [&str; 3] = ["warmup", "fault", "recovery"];

/// The fault classes the harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A reader pins a guard, performs one lookup, and then stalls with the
    /// guard held for the whole fault phase — the canonical robustness
    /// killer for epoch-style schemes.
    ReaderStall,
    /// A thread retires some nodes and then exits without releasing its
    /// handle (the handle is leaked), orphaning its registry slot and its
    /// retire list.  Recovery depends on orphan adoption.  The leaked
    /// handle also strands its block-pool cache — bounded, and reported
    /// separately as [`FaultReport::pool_leak_bound`].
    ThreadDeath,
    /// A thread repeatedly panics in the middle of operations (rotating
    /// through get/insert/remove/scan) with a guard live; the unwind must
    /// tear down the guard and handle without wedging the domain.
    PanicDuringOp,
    /// A thread creates and drops short-lived handles at a high rate, each
    /// performing a burst of writes — stresses slot churn and handle-drop
    /// flushing.
    ChurnSpike,
    /// Extra oversubscribed threads (4× `victims`) run ops with a yield
    /// after every operation, forcing constant preemption.
    PreemptionStorm,
}

impl FaultKind {
    /// All five fault classes, in the order the verdict table prints them.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::ReaderStall,
        FaultKind::ThreadDeath,
        FaultKind::PanicDuringOp,
        FaultKind::ChurnSpike,
        FaultKind::PreemptionStorm,
    ];

    /// Parses a fault name (the CLI's `--faults` values), case-insensitively.
    /// Every [`FaultKind::name`] round-trips.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "stall" | "reader-stall" | "readerstall" => Some(FaultKind::ReaderStall),
            "death" | "thread-death" | "die" => Some(FaultKind::ThreadDeath),
            "panic" | "panic-during-op" => Some(FaultKind::PanicDuringOp),
            "churn" | "churn-spike" => Some(FaultKind::ChurnSpike),
            "storm" | "preemption-storm" | "oversubscribe" => Some(FaultKind::PreemptionStorm),
            _ => None,
        }
    }

    /// Display name used in tables and JSON artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::ReaderStall => "reader-stall",
            FaultKind::ThreadDeath => "thread-death",
            FaultKind::PanicDuringOp => "panic",
            FaultKind::ChurnSpike => "churn-spike",
            FaultKind::PreemptionStorm => "preemption-storm",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One fault scenario: which fault to inject, the phase schedule, and how
/// many misbehaving actors to run alongside the regular workers.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The fault class to inject.
    pub kind: FaultKind,
    /// Length of the fault-free warmup phase (ends with the `baseline`
    /// unreclaimed measurement).
    pub warmup: Duration,
    /// Length of the fault phase (actors misbehave).
    pub fault: Duration,
    /// Length of the recovery phase (actors behave again, workers run on).
    pub recovery: Duration,
    /// Number of fault actors ([`FaultKind::PreemptionStorm`] spawns 4× this
    /// many).
    pub victims: usize,
    /// Upper bound on the post-join drain loop; zero skips the drain (used
    /// for NR, which never reclaims and would just burn the whole timeout).
    pub drain_timeout: Duration,
}

impl FaultPlan {
    /// Default schedule for a fault class: 150 ms warmup, 300 ms fault,
    /// 150 ms recovery, two victims, a 2 s drain allowance.
    pub fn new(kind: FaultKind) -> Self {
        Self {
            kind,
            warmup: Duration::from_millis(150),
            fault: Duration::from_millis(300),
            recovery: Duration::from_millis(150),
            victims: 2,
            drain_timeout: Duration::from_secs(2),
        }
    }

    /// Shrunk schedule for `--quick` sweeps and tests.
    pub fn quick(kind: FaultKind) -> Self {
        Self {
            warmup: Duration::from_millis(40),
            fault: Duration::from_millis(120),
            recovery: Duration::from_millis(60),
            ..Self::new(kind)
        }
    }

    /// Number of threads the fault actors occupy (slots they may claim
    /// concurrently).
    pub fn actor_threads(&self) -> usize {
        match self.kind {
            FaultKind::PreemptionStorm => self.victims * 4,
            _ => self.victims,
        }
    }
}

/// Raw output of one phased fault run (one structure × scheme × fault cell);
/// [`FaultReport`] documents the fields.
struct FaultOutput {
    baseline: usize,
    peak: usize,
    end_of_fault: usize,
    residual: usize,
    drained: bool,
    ops: u64,
    elapsed_secs: f64,
}

/// What the actors draw from when they just hammer the structure: point
/// operations in equal thirds.
const ACTOR_MIX: Mix = Mix {
    read_pct: 34,
    insert_pct: 33,
    delete_pct: 33,
    scan_pct: 0,
};

type ActorOps<'a, C> = Ops<'a, C, Membership>;

/// `n` insert-else-remove rounds on drawn keys: each one retires a node or
/// sets one up to be retired.
fn write_burst<C: ConcurrentMap<u64, ()>>(
    ops: &ActorOps<'_, C>,
    handle: &mut C::Handle,
    draw: &mut Draw,
    n: usize,
) {
    for _ in 0..n {
        let (_, k) = draw.next(&ACTOR_MIX);
        if !ops.once(handle, OpClass::Insert, k) {
            ops.once(handle, OpClass::Remove, k);
        }
    }
}

/// [`FaultKind::ThreadDeath`]: retire some garbage, then exit without
/// releasing the handle.  The slot stays claimed until the thread's exit
/// beacon fires, at which point survivors adopt it.
fn death_actor<C: ConcurrentMap<u64, ()>>(ops: &ActorOps<'_, C>, phase: &AtomicU8, mut draw: Draw) {
    let mut handle = ops.target.map.handle();
    while phase.load(Ordering::Acquire) < PHASE_FAULT {
        let (class, key) = draw.next(&ACTOR_MIX);
        ops.once(&mut handle, class, key);
    }
    // Freshly retired nodes land in this slot's vault right before death.
    write_burst(ops, &mut handle, &mut draw, 64);
    // Die mid-run: leak the handle so the slot is orphaned, not released.
    std::mem::forget(handle);
}

/// The panic actor's workload: membership whose read-back hook is the
/// injection point, so a `get`, a `remove` that found its key and a scan
/// that yielded one unwind from *inside* the operation — borrow of the value
/// live, scan cursor parked mid-window.
#[derive(Clone, Copy)]
struct PanicOnRead;

impl Workload for PanicOnRead {
    type V = ();
    const READS_VALUES: bool = true;

    fn value(&self, _key: u64) {}

    fn verify(&self, _op: OpClass, _key: u64, _value: &()) -> u64 {
        panic!("injected fault");
    }
}

/// [`FaultKind::PanicDuringOp`]: panic with a guard live, rotating through
/// the four operation kinds; each unwind must tear down guard and handle.
fn panic_actor<C: ConcurrentMap<u64, ()>>(ops: &ActorOps<'_, C>, phase: &AtomicU8, mut draw: Draw) {
    let ops = Ops {
        target: ops.target,
        workload: PanicOnRead,
        scan_len: 16,
    };
    let map = &ops.target.map;
    wait_for_phase(phase, PHASE_FAULT);
    let mut round = 0;
    while phase.load(Ordering::Acquire) == PHASE_FAULT {
        let (_, key) = draw.next(&ACTOR_MIX);
        let class = OpClass::ALL[round % OpClass::ALL.len()];
        round += 1;
        let result = catch_unwind(AssertUnwindSafe(|| {
            // Fresh handle per attempt: the unwind tears down the guard
            // (dropping its protections) and then the handle (releasing its
            // slot) — exactly the RAII path a panicking application exercises.
            let mut handle = map.handle();
            let mut guard = map.pin(&mut handle);
            ops.apply(&mut guard, class, key, &mut Tally::default());
            // The operation read nothing back (an insert, a miss): panic
            // after it, guard still live.
            panic!("injected fault");
        }));
        assert!(result.is_err(), "injected panic did not propagate");
    }
}

/// [`FaultKind::ChurnSpike`]: bursts of writes through short-lived handles.
fn churn_actor<C: ConcurrentMap<u64, ()>>(ops: &ActorOps<'_, C>, phase: &AtomicU8, mut draw: Draw) {
    wait_for_phase(phase, PHASE_FAULT);
    while phase.load(Ordering::Acquire) == PHASE_FAULT {
        let mut handle = ops.target.map.handle();
        write_burst(ops, &mut handle, &mut draw, 256);
        // Handle drops here: slot released, retire list flushed — at spike
        // rate.
    }
}

/// [`FaultKind::PreemptionStorm`]: ops with a yield after each one, on 4×
/// oversubscribed threads.
fn storm_actor<C: ConcurrentMap<u64, ()>>(ops: &ActorOps<'_, C>, phase: &AtomicU8, mut draw: Draw) {
    let mut handle = ops.target.map.handle();
    wait_for_phase(phase, PHASE_FAULT);
    while phase.load(Ordering::Acquire) == PHASE_FAULT {
        let (class, key) = draw.next(&ACTOR_MIX);
        ops.once(&mut handle, class, key);
        std::thread::yield_now();
    }
}

/// The phased fault runner.
struct FaultRun<'a> {
    cfg: &'a RunConfig,
    plan: &'a FaultPlan,
}

impl Visitor<()> for FaultRun<'_> {
    type Out = FaultOutput;

    fn run<C: ConcurrentMap<u64, ()>>(self, target: &Target<C>) -> FaultOutput {
        let (cfg, plan) = (self.cfg, self.plan);
        cfg.mix.validate();
        silence_injected_panics();
        let ops = Ops::prefilled(target, Membership, cfg);
        let actors = (0..plan.actor_threads())
            .map(|v| {
                let ops = &ops;
                // Actor streams are numbered well away from the workers'.
                let draw = Draw::for_thread(cfg.seed, 0x0fa6 + v, cfg.key_range, 0.0);
                let body = move |phase: &AtomicU8| match plan.kind {
                    FaultKind::ReaderStall => {
                        stall_actor(ops, phase, v as u64 % cfg.key_range.max(1), PHASE_FAULT)
                    }
                    FaultKind::ThreadDeath => death_actor(ops, phase, draw),
                    FaultKind::PanicDuringOp => panic_actor(ops, phase, draw),
                    FaultKind::ChurnSpike => churn_actor(ops, phase, draw),
                    FaultKind::PreemptionStorm => storm_actor(ops, phase, draw),
                };
                Box::new(body) as Actor<'_>
            })
            .collect();
        let mut baseline = 0usize;
        let mut end_of_fault = 0usize;
        let mut peak = 0usize;
        // The main thread is the phase clock and the footprint sampler.
        // Unlike the timed runner, Hyaline is sampled too: robustness is
        // precisely a question about footprint under faults.
        let (tally, elapsed) = run_phased(
            cfg.threads,
            &|t, phase| ops.steady_worker(cfg, t, phase, PHASE_STOP),
            actors,
            &[plan.warmup, plan.fault, plan.recovery],
            cfg.sample_interval,
            target.unreclaimed.as_ref(),
            &mut |ev: PhaseEvent| {
                let n = ev.unreclaimed;
                if ev.edge.is_some() {
                    match ev.phase {
                        PHASE_WARMUP => baseline = n,
                        PHASE_FAULT => end_of_fault = n,
                        // The recovery edge is the end of the run.
                        _ => return,
                    }
                }
                if ev.phase >= PHASE_FAULT {
                    peak = peak.max(n);
                }
            },
        );
        // Every worker and actor has joined; dead actors' exit beacons have
        // fired, so their orphaned slots are adoptable.  Shutdown drain: flush
        // through a fresh handle until empty or the timeout expires — report,
        // never hang.
        let mut residual = (target.unreclaimed)();
        let mut drained = residual == 0;
        if !drained && plan.drain_timeout > Duration::ZERO {
            let deadline = Instant::now() + plan.drain_timeout;
            let mut handle = target.map.handle();
            loop {
                target.map.flush(&mut handle);
                residual = (target.unreclaimed)();
                if residual == 0 {
                    drained = true;
                    break;
                }
                if Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        peak = peak.max(residual);
        FaultOutput {
            baseline,
            peak,
            end_of_fault,
            residual,
            drained,
            ops: tally.ops,
            elapsed_secs: elapsed,
        }
    }
}

/// The robustness bound a scheme's peak footprint is judged against: a small
/// multiple of its fault-free steady state plus a generous per-thread
/// allowance (`8 × scan_threshold` per worker/actor).  Robust schemes sit far
/// below it; a stalled reader under an epoch-style scheme blows through it by
/// orders of magnitude, so the verdict is insensitive to the exact constants.
pub fn robustness_bound(
    smr: SmrKind,
    threads: usize,
    actors: usize,
    pool: bool,
    baseline: usize,
) -> usize {
    let threshold = smr_config(smr, threads + actors, pool).scan_threshold;
    4 * baseline.max(64) + (threads + actors + 1) * threshold * 8
}

/// The verdict for one structure × scheme × fault cell.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Data structure under test.
    pub ds: String,
    /// Reclamation scheme under test.
    pub smr: String,
    /// Fault class injected ([`FaultKind::name`]).
    pub fault: String,
    /// Regular worker threads.
    pub threads: usize,
    /// Fault actors (threads misbehaving).
    pub victims: usize,
    /// Whether the scheme claims robustness ([`SmrKind::is_robust`]).
    pub is_robust: bool,
    /// Steady-state unreclaimed count at the end of warmup.
    pub baseline: usize,
    /// Peak sampled unreclaimed count from fault injection onwards.
    pub peak: usize,
    /// Unreclaimed count when the fault phase ended.
    pub end_of_fault: usize,
    /// Unreclaimed count after the post-join drain.
    pub residual: usize,
    /// Whether the drain reached zero within its timeout.
    pub drained: bool,
    /// The bound `peak` was judged against ([`robustness_bound`]).
    pub bound: usize,
    /// Worst-case blocks stranded in dead victims' leaked block-pool caches
    /// (`victims × pool_blocks` for [`FaultKind::ThreadDeath`] with the pool
    /// enabled, zero otherwise).  Pooled blocks are recycled capacity that
    /// already left the `unreclaimed` count, so they are invisible to
    /// `residual`/`drained` — this field makes the blind spot explicit
    /// instead of letting `drained` over-claim.
    pub pool_leak_bound: usize,
    /// `peak <= bound`.
    pub bounded: bool,
    /// Human-readable verdict: `bounded`, `grows (+N)`, `undrained (N left)`,
    /// or `leaks (by design)` for NR.
    pub verdict: String,
    /// Total worker operations completed.
    pub ops: u64,
    /// Wall-clock seconds of the phased run.
    pub elapsed_secs: f64,
}

impl FaultReport {
    /// Whether this cell violates the scheme's own robustness claim: a
    /// scheme advertising `is_robust` must stay bounded *and* drain to zero
    /// after the fault; non-robust schemes only promise the drain.
    pub fn violates_claim(&self) -> bool {
        if self.smr == SmrKind::Nr.name() {
            return false; // NR promises nothing.
        }
        let growth_violation = self.is_robust && !self.bounded;
        let drain_violation = !self.drained;
        growth_violation || drain_violation
    }
}

/// Runs one fault scenario against one structure × scheme pair and renders
/// the verdict.
pub fn run_fault_scenario(
    ds: DsKind,
    smr: SmrKind,
    cfg: &RunConfig,
    plan: &FaultPlan,
) -> FaultReport {
    let mut plan = plan.clone();
    if smr == SmrKind::Nr {
        // NR never reclaims; draining would spin for the whole timeout.
        plan.drain_timeout = Duration::ZERO;
    }
    let actors = plan.actor_threads();
    // Size the registry for workers + actors + the post-join drain handle.
    // (Actors that churn handles only hold one claim at a time each.)
    let extra_threads = actors + 1;
    let run = FaultRun { cfg, plan: &plan };
    let out = with_target(ds, smr, cfg, extra_threads, run);
    let bound = robustness_bound(smr, cfg.threads, actors, cfg.pool, out.baseline);
    // Dead victims leak their handles, and with them their block-pool
    // caches; those blocks are pool capacity, not tracked garbage, so the
    // drain cannot see them.  Surface the worst case alongside the verdict.
    let pool_leak_bound = if plan.kind == FaultKind::ThreadDeath {
        plan.victims * smr_config(smr, cfg.threads + extra_threads, cfg.pool).pool_blocks()
    } else {
        0
    };
    let bounded = out.peak <= bound;
    let growth = out.peak.saturating_sub(out.baseline);
    let verdict = if smr == SmrKind::Nr {
        "leaks (by design)".to_string()
    } else if !bounded {
        format!("grows (+{growth})")
    } else if !out.drained {
        format!("undrained ({} left)", out.residual)
    } else {
        "bounded".to_string()
    };
    FaultReport {
        ds: ds.name().to_string(),
        smr: smr.name().to_string(),
        fault: plan.kind.name().to_string(),
        threads: cfg.threads,
        victims: plan.victims,
        is_robust: smr.is_robust(),
        baseline: out.baseline,
        peak: out.peak,
        end_of_fault: out.end_of_fault,
        residual: out.residual,
        drained: out.drained,
        bound,
        pool_leak_bound,
        bounded,
        verdict,
        ops: out.ops,
        elapsed_secs: out.elapsed_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg(threads: usize, key_range: u64) -> RunConfig {
        RunConfig {
            sample_interval: Duration::from_millis(2),
            ..RunConfig::paper_default(threads, key_range)
        }
    }

    fn micro_plan(kind: FaultKind) -> FaultPlan {
        FaultPlan {
            warmup: Duration::from_millis(10),
            fault: Duration::from_millis(30),
            recovery: Duration::from_millis(15),
            victims: 1,
            drain_timeout: Duration::from_secs(5),
            ..FaultPlan::new(kind)
        }
    }

    #[test]
    fn fault_kind_parse_roundtrip() {
        assert_eq!(FaultKind::ALL.len(), 5);
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::parse(k.name()), Some(k), "{k} must round-trip");
        }
        assert_eq!(FaultKind::parse("STALL"), Some(FaultKind::ReaderStall));
        assert_eq!(FaultKind::parse("death"), Some(FaultKind::ThreadDeath));
        assert_eq!(FaultKind::parse("panic"), Some(FaultKind::PanicDuringOp));
        assert_eq!(FaultKind::parse("churn"), Some(FaultKind::ChurnSpike));
        assert_eq!(FaultKind::parse("storm"), Some(FaultKind::PreemptionStorm));
        assert_eq!(FaultKind::parse("bogus"), None);
    }

    #[test]
    fn storm_plan_oversubscribes() {
        let plan = FaultPlan::new(FaultKind::PreemptionStorm);
        assert_eq!(plan.actor_threads(), 4 * plan.victims);
        assert_eq!(FaultPlan::new(FaultKind::ReaderStall).actor_threads(), 2);
    }

    /// The satellite matrix: a panic inside get/insert/remove/scan (the
    /// actor rotates through all four) on every structure under every scheme
    /// variant must unwind cleanly, and the domain must drain to zero
    /// afterwards (NR excepted — it never reclaims by definition).
    #[test]
    fn panic_unwind_matrix_drains_to_zero() {
        let cfg = test_cfg(1, 64);
        let plan = micro_plan(FaultKind::PanicDuringOp);
        for ds in DsKind::ALL {
            for smr in SmrKind::ALL {
                let r = run_fault_scenario(ds, smr, &cfg, &plan);
                assert!(r.ops > 0, "{ds}/{smr}: workers made no progress");
                if smr != SmrKind::Nr {
                    assert!(
                        r.drained,
                        "{ds}/{smr}: domain failed to drain after injected \
                         panics (residual {})",
                        r.residual
                    );
                    assert_eq!(r.residual, 0, "{ds}/{smr}");
                }
            }
        }
    }

    /// Thread death orphans a slot with a non-empty retire list; adoption
    /// must hand the garbage to a survivor so the domain still drains.
    #[test]
    fn thread_death_drains_under_every_reclaiming_scheme() {
        let cfg = test_cfg(2, 64);
        let plan = micro_plan(FaultKind::ThreadDeath);
        for smr in SmrKind::ALL {
            if smr == SmrKind::Nr {
                continue;
            }
            let r = run_fault_scenario(DsKind::ListLf, smr, &cfg, &plan);
            assert!(
                r.drained,
                "{smr}: dead thread's garbage was not adopted (residual {})",
                r.residual
            );
        }
    }

    /// The robustness claim itself: a stalled reader must not blow up HP's
    /// footprint, and must blow up EBR's (that is what non-robust means).
    #[test]
    fn reader_stall_separates_hp_from_ebr() {
        let mut cfg = test_cfg(4, 128);
        cfg.mix = crate::workload::Mix::WRITE_ONLY;
        let mut plan = FaultPlan::quick(FaultKind::ReaderStall);
        plan.victims = 1;
        // Long enough that even an unoptimized build retires well past the
        // bound while the reader stalls.
        plan.fault = Duration::from_millis(500);
        let hp = run_fault_scenario(DsKind::HmList, SmrKind::Hp, &cfg, &plan);
        assert!(
            hp.bounded && hp.drained,
            "HP must stay bounded under a stalled reader \
             (peak {} vs bound {}, residual {})",
            hp.peak,
            hp.bound,
            hp.residual
        );
        let ebr = run_fault_scenario(DsKind::HmList, SmrKind::Ebr, &cfg, &plan);
        assert!(
            !ebr.bounded,
            "EBR under a stalled reader should exceed the bound \
             (peak {} vs bound {})",
            ebr.peak, ebr.bound
        );
        assert!(ebr.verdict.starts_with("grows"), "verdict: {}", ebr.verdict);
        assert!(
            ebr.drained,
            "EBR must still drain once the stalled guard drops (residual {})",
            ebr.residual
        );
        assert!(!ebr.is_robust && hp.is_robust);
    }

    #[test]
    fn churn_and_storm_smoke_run_bounded_under_hp() {
        let cfg = test_cfg(2, 128);
        for kind in [FaultKind::ChurnSpike, FaultKind::PreemptionStorm] {
            let r = run_fault_scenario(DsKind::HashMap, SmrKind::Hp, &cfg, &micro_plan(kind));
            assert!(r.ops > 0);
            assert!(
                r.drained,
                "{kind}: HP failed to drain (residual {})",
                r.residual
            );
        }
    }

    /// The pool-cache blind spot is reported, not hidden: thread-death cells
    /// carry the worst-case count of blocks stranded in the dead victims'
    /// leaked pool caches, and every other configuration reports zero.
    #[test]
    fn thread_death_reports_pool_leak_bound() {
        let cfg = test_cfg(1, 64);
        let plan = micro_plan(FaultKind::ThreadDeath);
        let r = run_fault_scenario(DsKind::ListLf, SmrKind::Hp, &cfg, &plan);
        let per_handle =
            smr_config(SmrKind::Hp, cfg.threads + plan.victims + 1, cfg.pool).pool_blocks();
        assert!(per_handle > 0, "pooled config must cache blocks");
        assert_eq!(r.pool_leak_bound, plan.victims * per_handle);

        let mut no_pool = cfg.clone();
        no_pool.pool = false;
        let r = run_fault_scenario(DsKind::ListLf, SmrKind::Hp, &no_pool, &plan);
        assert_eq!(r.pool_leak_bound, 0, "no pool, nothing to strand");

        let r = run_fault_scenario(
            DsKind::ListLf,
            SmrKind::Hp,
            &cfg,
            &micro_plan(FaultKind::ReaderStall),
        );
        assert_eq!(r.pool_leak_bound, 0, "stalled readers keep their handles");
    }

    #[test]
    fn nr_reports_leak_by_design() {
        let cfg = test_cfg(2, 64);
        let r = run_fault_scenario(
            DsKind::ListLf,
            SmrKind::Nr,
            &cfg,
            &micro_plan(FaultKind::ThreadDeath),
        );
        assert_eq!(r.verdict, "leaks (by design)");
        assert!(!r.violates_claim(), "NR promises nothing");
    }
}
