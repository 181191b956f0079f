//! Fault-injection verdicts: reclamation robustness under stalled,
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
//! A fault cell runs [`Scenario::faults`] through the one scenario runner.
//! The unreclaimed count at the end of **warmup** is the scheme's
//! steady-state `baseline`.  In the **fault** phase the actors misbehave
//! according to the [`FaultKind`] while the workers keep hammering the
//! structure, and the main thread samples the domain's unreclaimed count
//! (Hyaline included): the `peak` from there on is the scheme's footprint
//! under the fault.  In **recovery** the actors are gone and schemes with
//! amortized reclamation work off their backlog; the post-join drain then
//! reports whether the domain reached zero.
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
//!
//! Every scenario's actors, the service preset's stalled readers included,
//! live here: scot-lint L5 confines `mem::forget` to this file.

use crate::hist::OpClass;
use crate::phases::{run_scenario, Scenario};
use crate::workload::{smr_config, Draw, DsKind, Membership, Mix, Ops, RunConfig, Tally, Workload};
use scot::ConcurrentMap;
use scot_smr::SmrKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Duration;

/// The fault classes the harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A reader pins a guard, performs one lookup, and then stalls with the
    /// guard held for the whole phase it acts in — the canonical robustness
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

/// What the actors draw from when they just hammer the structure: point
/// operations in equal thirds.
const ACTOR_MIX: Mix = Mix::new(34, 33, 33, 0);

/// One fault actor: the structure it misbehaves against, the phase word, the
/// phase it acts in, and its own operation source.
pub(crate) struct FaultActor<'a, C> {
    pub(crate) ops: &'a Ops<'a, C, Membership>,
    pub(crate) phase: &'a AtomicU8,
    pub(crate) at: u8,
    pub(crate) draw: Draw,
}

impl<C: ConcurrentMap<u64, ()>> FaultActor<'_, C> {
    /// Misbehaves as `kind` prescribes, in the actor's phase.
    pub(crate) fn run(self, kind: FaultKind) {
        match kind {
            FaultKind::ReaderStall => self.stall(),
            FaultKind::ThreadDeath => self.death(),
            FaultKind::PanicDuringOp => self.panic(),
            FaultKind::ChurnSpike => self.churn(),
            FaultKind::PreemptionStorm => self.storm(),
        }
    }

    /// Whether the phase word is in the actor's phase.
    fn acting(&self) -> bool {
        self.phase.load(Ordering::Acquire) == self.at
    }

    /// Sleeps until the phase word reaches `phase`.
    fn wait(&self, phase: u8) {
        while self.phase.load(Ordering::Acquire) < phase {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `n` insert-else-remove rounds on drawn keys: each one retires a node
    /// or sets one up to be retired.
    fn write_burst(&mut self, handle: &mut C::Handle, n: usize) {
        for _ in 0..n {
            let (_, k) = self.draw.next(&ACTOR_MIX);
            if !self.ops.once(handle, OpClass::Insert, k) {
                self.ops.once(handle, OpClass::Remove, k);
            }
        }
    }

    /// [`FaultKind::ReaderStall`].
    fn stall(mut self) {
        let map = &self.ops.target.map;
        let mut handle = map.handle();
        self.wait(self.at);
        let mut guard = map.pin(&mut handle);
        let (_, key) = self.draw.next(&ACTOR_MIX);
        (self.ops).apply(&mut guard, OpClass::Get, key, &mut Tally::default());
        self.wait(self.at + 1);
        // Recovery: the guard drops here, releasing whatever the scheme was
        // holding back; the handle drop then releases the slot cleanly.
    }

    /// [`FaultKind::ThreadDeath`]: the slot stays claimed until the
    /// thread's exit beacon fires, at which point survivors adopt it.
    fn death(mut self) {
        let mut handle = self.ops.target.map.handle();
        while self.phase.load(Ordering::Acquire) < self.at {
            let (class, key) = self.draw.next(&ACTOR_MIX);
            self.ops.once(&mut handle, class, key);
        }
        // Freshly retired nodes land in this slot's vault right before death.
        self.write_burst(&mut handle, 64);
        // Die mid-run: leak the handle so the slot is orphaned, not released.
        std::mem::forget(handle);
    }

    /// [`FaultKind::PanicDuringOp`].
    fn panic(mut self) {
        let ops = Ops {
            target: self.ops.target,
            workload: PanicOnRead,
            scan_len: 16,
        };
        let map = &ops.target.map;
        self.wait(self.at);
        for class in OpClass::ALL.into_iter().cycle() {
            if !self.acting() {
                break;
            }
            let (_, key) = self.draw.next(&ACTOR_MIX);
            let result = catch_unwind(AssertUnwindSafe(|| {
                // Fresh handle per attempt: the unwind tears down the guard
                // (dropping its protections) and then the handle (releasing
                // its slot) — exactly the RAII path a panicking application
                // exercises.
                let mut handle = map.handle();
                let mut guard = map.pin(&mut handle);
                ops.apply(&mut guard, class, key, &mut Tally::default());
                // The operation read nothing back (an insert, a miss): panic
                // after it, guard still live.
                inject_panic()
            }));
            assert!(result.is_err(), "injected panic did not propagate");
        }
    }

    /// [`FaultKind::ChurnSpike`].
    fn churn(mut self) {
        self.wait(self.at);
        while self.acting() {
            let mut handle = self.ops.target.map.handle();
            self.write_burst(&mut handle, 256);
            // Handle drops here: slot released, retire list flushed — at
            // spike rate.
        }
    }

    /// [`FaultKind::PreemptionStorm`].
    fn storm(mut self) {
        let mut handle = self.ops.target.map.handle();
        self.wait(self.at);
        while self.acting() {
            let (class, key) = self.draw.next(&ACTOR_MIX);
            self.ops.once(&mut handle, class, key);
            std::thread::yield_now();
        }
    }
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
        inject_panic()
    }
}

/// Unwinds like a panic but skips the panic hook: an injected panic is the
/// point of [`FaultKind::PanicDuringOp`], and the hook's report on every one
/// would drown the verdict table.
fn inject_panic() -> ! {
    std::panic::resume_unwind(Box::new("injected fault"))
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
        // NR promises nothing.
        self.smr != SmrKind::Nr.name() && (!self.drained || self.is_robust && !self.bounded)
    }
}

/// Runs one fault scenario ([`Scenario::faults`]) against one structure ×
/// scheme pair and renders the verdict: `baseline` is the unreclaimed count
/// at the edge before the fault phase, `end_of_fault` the count at the fault
/// phase's edge, and `peak` the maximum from the fault phase on, the
/// post-drain residual included.
pub fn run_fault_scenario(
    ds: DsKind,
    smr: SmrKind,
    cfg: &RunConfig,
    scenario: &Scenario,
) -> FaultReport {
    let (at, kind) = (scenario.phases.iter().enumerate())
        .find_map(|(at, p)| Some((at, p.actor?)))
        .expect("a fault scenario has a fault phase");
    let (phases, residual) = run_scenario(ds, smr, cfg, scenario);
    let baseline = at.checked_sub(1).map_or(0, |w| phases[w].at_edge);
    let peak = phases[at..]
        .iter()
        .map(|p| p.peak)
        .fold(residual, usize::max);
    let actors = scenario.actor_threads();
    let bound = robustness_bound(smr, cfg.threads, actors, cfg.pool, baseline);
    // Dead victims leak their handles, and with them their block-pool
    // caches; those blocks are pool capacity, not tracked garbage, so the
    // drain cannot see them.  Surface the worst case alongside the verdict.
    // (The registry holds the workers, the actors and the drain handle.)
    let pool_leak_bound = if kind == FaultKind::ThreadDeath {
        scenario.victims * smr_config(smr, cfg.threads + actors + 1, cfg.pool).pool_blocks()
    } else {
        0
    };
    let bounded = peak <= bound;
    let verdict = if smr == SmrKind::Nr {
        "leaks (by design)".to_string()
    } else if !bounded {
        format!("grows (+{})", peak.saturating_sub(baseline))
    } else if residual > 0 {
        format!("undrained ({residual} left)")
    } else {
        "bounded".to_string()
    };
    FaultReport {
        ds: ds.name().to_string(),
        smr: smr.name().to_string(),
        fault: kind.name().to_string(),
        threads: cfg.threads,
        victims: scenario.victims,
        is_robust: smr.is_robust(),
        baseline,
        peak,
        end_of_fault: phases[at].at_edge,
        residual,
        drained: residual == 0,
        bound,
        pool_leak_bound,
        bounded,
        verdict,
        ops: phases.iter().map(|p| p.ops).sum(),
        elapsed_secs: phases.iter().map(|p| p.secs).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Mix;
    use std::time::Duration;

    fn test_cfg(threads: usize, key_range: u64) -> RunConfig {
        RunConfig {
            sample_interval: Duration::from_millis(2),
            ..RunConfig::paper_default(threads, key_range)
        }
    }

    /// A 10/30/15 ms fault scenario with one victim.
    fn micro_plan(kind: FaultKind) -> Scenario {
        let mut plan = Scenario::faults(kind, Duration::ZERO, Mix::READ_50);
        for (p, ms) in plan.phases.iter_mut().zip([10, 30, 15]) {
            p.secs = Duration::from_millis(ms);
        }
        plan.victims = 1;
        plan
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
        let plan = Scenario::faults(FaultKind::PreemptionStorm, Duration::ZERO, Mix::READ_50);
        assert_eq!(plan.actor_threads(), 4 * plan.victims);
        let stall = Scenario::faults(FaultKind::ReaderStall, Duration::from_secs(2), Mix::READ_50);
        assert_eq!(stall.actor_threads(), 2);
        // Warmup → fault → recovery: 1/4, 1/2, 1/4, and the actors act in
        // the fault phase only.
        let secs: Vec<_> = stall.phases.iter().map(|p| p.secs.as_millis()).collect();
        assert_eq!(secs, [500, 1000, 500]);
        let actors: Vec<_> = stall.phases.iter().map(|p| p.actor).collect();
        assert_eq!(actors, [None, Some(FaultKind::ReaderStall), None]);
        // Tiny totals hit the floors instead of collapsing to zero.
        let secs: Vec<_> = plan.phases.iter().map(|p| p.secs.as_millis()).collect();
        assert_eq!(secs, [30, 60, 30]);
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
        cfg.mix = Mix::WRITE_ONLY;
        let mut plan = Scenario::faults(FaultKind::ReaderStall, Duration::ZERO, cfg.mix);
        plan.victims = 1;
        // Long enough that even an unoptimized build retires well past the
        // bound while the reader stalls.
        plan.phases[1].secs = Duration::from_millis(500);
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
