//! The phased run: the phase clock, the driver that runs workers and actors
//! against it, and the one scenario runner behind `exp faults` and
//! `exp service`.
//!
//! Every run of the harness is a phased run.  The timed runner
//! ([`crate::workload`]) has one phase; a [`Scenario`] is a list of named
//! phases, each with its own operation mix and at most one class of
//! misbehaving actors.  All of them drive their threads through a shared
//! `AtomicU8` phase word while the main thread acts as the clock and the
//! memory-footprint sampler.  A scenario ends with a drain, which is not a
//! phase.

use crate::faults::{FaultActor, FaultKind};
use crate::hist::{OpClass, OpHistograms};
use crate::workload::{
    with_target, Draw, DsKind, LoopControl, Membership, Mix, Ops, RunConfig, Tally, Target, Visitor,
};
use scot::ConcurrentMap;
use scot_smr::SmrKind;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Amortized timing rate: a scenario worker stamps 1-in-`SAMPLE_EVERY`
/// operations.
const SAMPLE_EVERY: u32 = 16;

/// Upper bound on the post-join drain loop (NR, which never reclaims, skips
/// the drain).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// One observation made by the phase clock ([`drive_phases`]): a periodic
/// footprint sample taken inside a phase or, with `edge` set, the sample that
/// *ends* one — taken once, right before the phase word advances.
pub(crate) struct PhaseEvent {
    /// Phase word value when the sample was taken.
    pub(crate) phase: u8,
    /// The domain's unreclaimed count at that moment.
    pub(crate) unreclaimed: usize,
    /// At a phase edge, the wall-clock time since the clock started.
    pub(crate) edge: Option<Duration>,
}

/// The phase clock: walks the phase word through `0..durations.len()` on the
/// given schedule, sampling `unreclaimed()` every `sample_interval` and once
/// more at each phase edge.  After the last phase the word is advanced to
/// `durations.len()` (the stop value every worker/actor polls for) and the
/// total elapsed seconds are returned.
///
/// Runs on the calling thread — the main thread of a phased run is the clock
/// and the footprint sampler, exactly as in the paper's harness.
pub(crate) fn drive_phases(
    phase: &AtomicU8,
    durations: &[Duration],
    sample_interval: Duration,
    unreclaimed: &dyn Fn() -> usize,
    on_event: &mut dyn FnMut(PhaseEvent),
) -> f64 {
    assert!(!durations.is_empty() && durations.len() < u8::MAX as usize);
    let start = Instant::now();
    // Phase p ends at start + durations[..=p].sum().
    let mut end = start;
    for (p, d) in durations.iter().enumerate() {
        end += *d;
        loop {
            let now = Instant::now();
            on_event(PhaseEvent {
                phase: p as u8,
                unreclaimed: unreclaimed(),
                edge: (now >= end).then(|| start.elapsed()),
            });
            if now >= end {
                break;
            }
            std::thread::sleep(sample_interval.min(end - now));
        }
        phase.store(p as u8 + 1, Ordering::Release);
    }
    start.elapsed().as_secs_f64()
}

/// A misbehaving (or merely extra) thread of a phased run: its body, which
/// receives the phase word.
type Actor<'a> = Box<dyn FnOnce(&AtomicU8) + Send + 'a>;

/// The driver of every run: spawns `workers` threads running
/// `worker(index, phase_word)` plus the `actors` (on threads named
/// `fault-actor-…`), walks the phase word through `durations` on the
/// calling thread ([`drive_phases`], feeding `on_event`), and joins.  Returns
/// the workers' summed tallies and the wall-clock seconds from the moment all
/// workers run to the last one's exit.
///
/// A worker's panic (an oracle or integrity assertion) is re-raised here
/// with its own message once the schedule has run out.
///
/// Nothing here is generic: the runners are instantiated per structure ×
/// scheme, and the thread plumbing should not be.
pub(crate) fn run_phased(
    workers: usize,
    worker: &(dyn Fn(usize, &AtomicU8) -> Tally + Sync),
    actors: Vec<Actor<'_>>,
    durations: &[Duration],
    sample_interval: Duration,
    unreclaimed: &dyn Fn() -> usize,
    on_event: &mut dyn FnMut(PhaseEvent),
) -> (Tally, f64) {
    let phase = AtomicU8::new(0);
    // The clock starts once every worker thread is running: on a loaded
    // two-core box a thread can take longer to be scheduled for the first
    // time than a smoke run's whole 40 ms schedule lasts.
    let running = std::sync::Barrier::new(workers + 1);
    let (phase, running) = (&phase, &running);
    std::thread::scope(|s| {
        let spawn = |t| {
            s.spawn(move || {
                running.wait();
                worker(t, phase)
            })
        };
        let handles: Vec<_> = (0..workers).map(spawn).collect();
        running.wait();
        let start = Instant::now();
        for (i, actor) in actors.into_iter().enumerate() {
            std::thread::Builder::new()
                .name(format!("fault-actor-{i}"))
                .spawn_scoped(s, move || actor(phase))
                .expect("failed to spawn actor thread");
        }
        drive_phases(phase, durations, sample_interval, unreclaimed, on_event);
        let total = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .fold(Tally::default(), Tally::merged);
        (total, start.elapsed().as_secs_f64())
    })
}

/// One phase of a [`Scenario`].
#[derive(Debug, Clone)]
pub(crate) struct Phase {
    /// The phase's name in tables and artifacts.
    pub(crate) name: &'static str,
    /// How long the phase runs.
    pub(crate) secs: Duration,
    /// What the workers draw from during the phase.
    pub(crate) mix: Mix,
    /// The fault the scenario's actors inject during this phase, if any.
    pub(crate) actor: Option<FaultKind>,
}

/// A phased scenario: the schedule of phases the workers run through, and
/// how many actors misbehave in each phase that names a fault.  The two
/// presets build theirs with [`Scenario::faults`] and [`Scenario::service`].
#[derive(Debug, Clone)]
pub struct Scenario {
    pub(crate) phases: Vec<Phase>,
    /// Actors per fault phase ([`FaultKind::PreemptionStorm`] spawns 4× this
    /// many).
    pub(crate) victims: usize,
}

impl Scenario {
    /// The fault scenario: warmup → fault → recovery, with `mix` throughout
    /// and two `kind` actors in the fault phase.  `total` is split 1/4, 1/2,
    /// 1/4, with floors so `--quick` cells still have meaningful phases.
    pub fn faults(kind: FaultKind, total: Duration, mix: Mix) -> Self {
        let phase = |name, share: u32, floor_ms, actor| Phase {
            name,
            secs: (total * share / 4).max(Duration::from_millis(floor_ms)),
            mix,
            actor,
        };
        Self {
            phases: vec![
                phase("warmup", 1, 30, None),
                phase("fault", 2, 60, Some(kind)),
                phase("recovery", 1, 30, None),
            ],
            victims: 2,
        }
    }

    /// The service scenario of [`crate::service`]: `total` split ≈
    /// 20/30/25/25 with floors, as in [`Scenario::faults`].  Every phase
    /// carries a sliver of every op class, so all four histograms populate.
    pub fn service(total: Duration) -> Self {
        let phase = |name, pct: u32, floor_ms, mix, actor| Phase {
            name,
            secs: (total * pct / 100).max(Duration::from_millis(floor_ms)),
            mix,
            actor,
        };
        let steady = Mix::new(50, 24, 24, 2);
        Self {
            phases: vec![
                phase("warmup", 20, 30, steady, None),
                phase("read-storm", 30, 40, Mix::new(90, 3, 3, 4), None),
                phase("churn-spike", 25, 40, Mix::new(10, 44, 44, 2), None),
                phase("reader-stall", 25, 40, steady, Some(FaultKind::ReaderStall)),
            ],
            victims: 2,
        }
    }

    /// Threads the actors of `phase` occupy.
    fn actors_in(&self, phase: &Phase) -> usize {
        match phase.actor {
            None => 0,
            Some(FaultKind::PreemptionStorm) => 4 * self.victims,
            Some(_) => self.victims,
        }
    }

    /// Threads all the scenario's actors occupy.
    pub(crate) fn actor_threads(&self) -> usize {
        self.phases.iter().map(|p| self.actors_in(p)).sum()
    }
}

/// What one phase of a scenario produced; [`crate::ServiceReport`] and
/// [`crate::FaultReport`] document the fields they project from it.
#[derive(Debug, Default)]
pub(crate) struct PhaseOutput {
    pub(crate) ops: u64,
    /// Wall-clock length of the phase as driven (edge-to-edge).
    pub(crate) secs: f64,
    pub(crate) hists: OpHistograms,
    /// Peak sampled unreclaimed count, the edge sample included.
    pub(crate) peak: usize,
    /// Unreclaimed count sampled at the phase's edge.
    pub(crate) at_edge: usize,
    pub(crate) restarts: u64,
    pub(crate) recoveries: u64,
}

/// A scenario worker's side of the measurement loop: its life across every
/// phase.  It re-reads the phase word before every operation (an
/// uncontended `Acquire` load), switches the mix at each edge, and flushes
/// its thread-local histograms and op count into the phase that ended — the
/// only shared-state touch, once per phase.
struct PhaseControl<'a> {
    phase: &'a AtomicU8,
    scenario: &'a Scenario,
    outs: &'a [Mutex<PhaseOutput>],
    my_phase: u8,
    /// The loop's operation count when `my_phase` began.
    ops_at_edge: u64,
    local: OpHistograms,
    tick: u32,
}

impl LoopControl for PhaseControl<'_> {
    fn proceed(&mut self, ops: u64, mix: &mut Mix) -> bool {
        let cur = self.phase.load(Ordering::Acquire);
        if cur != self.my_phase {
            let mut out = self.outs[self.my_phase as usize].lock().unwrap();
            out.hists.merge(&self.local);
            out.ops += ops - self.ops_at_edge;
            drop(out);
            self.local = OpHistograms::new();
            self.ops_at_edge = ops;
            self.my_phase = cur;
            match self.scenario.phases.get(cur as usize) {
                Some(p) => *mix = p.mix,
                None => return false,
            }
        }
        true
    }

    #[inline]
    fn start(&mut self) -> Option<Instant> {
        self.tick = self.tick.wrapping_add(1);
        self.tick.is_multiple_of(SAMPLE_EVERY).then(Instant::now)
    }

    #[inline]
    fn finish(&mut self, class: OpClass, started: Instant) {
        self.local
            .record(class, started.elapsed().as_nanos() as u64);
    }
}

/// The one scenario runner.
struct ScenarioRun<'a> {
    cfg: &'a RunConfig,
    scenario: &'a Scenario,
}

impl Visitor<()> for ScenarioRun<'_> {
    /// One output per phase, in phase order, and the unreclaimed count after
    /// the post-join drain (zero if it drained).
    type Out = (Vec<PhaseOutput>, usize);

    fn run<C: ConcurrentMap<u64, ()>>(self, target: &Target<C>) -> Self::Out {
        let (cfg, scenario) = (self.cfg, self.scenario);
        for p in &scenario.phases {
            p.mix.validate();
        }
        let ops = Ops::prefilled(target, Membership, cfg);
        let mut actors: Vec<Actor<'_>> = Vec::new();
        for (at, p) in scenario.phases.iter().enumerate() {
            let Some(kind) = p.actor else { continue };
            for _ in 0..scenario.actors_in(p) {
                // Actor streams are numbered well away from the workers'.
                let draw = Draw::for_thread(cfg.seed, 0x0fa6 + actors.len(), cfg.key_range, 0.0);
                let (ops, at) = (&ops, at as u8);
                actors.push(Box::new(move |phase: &AtomicU8| {
                    FaultActor {
                        ops,
                        phase,
                        at,
                        draw,
                    }
                    .run(kind)
                }));
            }
        }
        let outs: Vec<_> = scenario
            .phases
            .iter()
            .map(|_| Mutex::<PhaseOutput>::default())
            .collect();
        let mut prev = (target.map.traversal_stats(), 0.0);
        // The main thread is the phase clock and the footprint sampler.
        // Unlike the timed runner, Hyaline is sampled too: robustness is
        // precisely a question about footprint under faults.
        run_phased(
            cfg.threads,
            &|t, phase| {
                let mut draw = Draw::for_thread(cfg.seed, t, cfg.key_range, cfg.zipf_theta);
                let control = PhaseControl {
                    phase,
                    scenario,
                    outs: &outs,
                    my_phase: 0,
                    ops_at_edge: 0,
                    local: OpHistograms::new(),
                    tick: 0,
                };
                ops.run_loop(&mut draw, scenario.phases[0].mix, cfg.pin_batch, control)
            },
            actors,
            &scenario.phases.iter().map(|p| p.secs).collect::<Vec<_>>(),
            cfg.sample_interval,
            target.unreclaimed.as_ref(),
            &mut |ev: PhaseEvent| {
                let mut out = outs[ev.phase as usize].lock().unwrap();
                out.peak = out.peak.max(ev.unreclaimed);
                if let Some(elapsed) = ev.edge {
                    let (stats, t) = (target.map.traversal_stats(), elapsed.as_secs_f64());
                    out.at_edge = ev.unreclaimed;
                    out.secs = (t - prev.1).max(0.0);
                    out.restarts = stats.restarts.saturating_sub(prev.0.restarts);
                    out.recoveries = stats.recoveries.saturating_sub(prev.0.recoveries);
                    prev = (stats, t);
                }
            },
        );
        // Every thread has joined: the outputs are complete, and dead actors'
        // orphaned slots are adoptable.  Drain through a fresh handle until
        // empty or the timeout expires (report, never hang); NR never
        // reclaims, and draining it would only burn the timeout.
        let mut residual = (target.unreclaimed)();
        if target.smr != SmrKind::Nr {
            let (deadline, mut handle) = (Instant::now() + DRAIN_TIMEOUT, target.map.handle());
            while residual > 0 && Instant::now() < deadline {
                target.map.flush(&mut handle);
                residual = (target.unreclaimed)();
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let outs = outs.into_iter().map(|o| o.into_inner().unwrap());
        (outs.collect(), residual)
    }
}

/// Runs `scenario` against one structure × scheme pair.  The registry is
/// sized for the workers, every actor and the drain handle.
pub(crate) fn run_scenario(
    ds: DsKind,
    smr: SmrKind,
    cfg: &RunConfig,
    scenario: &Scenario,
) -> (Vec<PhaseOutput>, usize) {
    let run = ScenarioRun { cfg, scenario };
    with_target(ds, smr, cfg, scenario.actor_threads() + 1, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn clock_walks_every_phase_and_lands_on_stop() {
        let phase = AtomicU8::new(0);
        let calls = AtomicUsize::new(0);
        let mut edges = Vec::new();
        let mut samples = 0usize;
        let durations = [
            Duration::from_millis(10),
            Duration::from_millis(10),
            Duration::from_millis(10),
        ];
        let elapsed = drive_phases(
            &phase,
            &durations,
            Duration::from_millis(2),
            &|| calls.fetch_add(1, Ordering::Relaxed),
            &mut |ev| match ev.edge {
                Some(elapsed) => edges.push((ev.phase, elapsed)),
                None => samples += 1,
            },
        );
        assert_eq!(phase.load(Ordering::Acquire), 3, "stop value is len()");
        assert_eq!(
            edges.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "one edge per phase, in order"
        );
        assert!(samples > 0, "phases must be sampled between edges");
        assert!(elapsed >= 0.03, "clock must span the full schedule");
        // Edge timestamps are non-decreasing.
        assert!(edges.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(calls.load(Ordering::Relaxed) > 0);
    }
}
