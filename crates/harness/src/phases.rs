//! Shared phased-run machinery: the phase clock, the driver that runs
//! workers and actors against it, the phase-waiting helper, the
//! injected-panic hook and the stalled-reader actor.
//!
//! Every run of the harness is a phased run.  The timed runner
//! ([`crate::workload`]) has one phase, the fault harness ([`crate::faults`])
//! three, the service scenario ([`crate::service`]) four; all of them drive
//! their worker and actor threads through a shared `AtomicU8` phase word
//! while the main thread acts as the clock and the memory-footprint sampler.
//! This module is the single copy of that machinery.

use crate::hist::OpClass;
use crate::workload::{Membership, Ops, Tally};
use scot::ConcurrentMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

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
    // Cumulative deadlines: phase p ends at start + durations[..=p].sum().
    let mut edges = Vec::with_capacity(durations.len());
    let mut acc = Duration::ZERO;
    for d in durations {
        acc += *d;
        edges.push(start + acc);
    }
    loop {
        let cur = phase.load(Ordering::Acquire) as usize;
        debug_assert!(cur < durations.len(), "clock raced past the stop value");
        let next_edge = edges[cur];
        let now = Instant::now();
        let at_edge = now >= next_edge;
        on_event(PhaseEvent {
            phase: cur as u8,
            unreclaimed: unreclaimed(),
            edge: at_edge.then(|| start.elapsed()),
        });
        if at_edge {
            let next = cur + 1;
            phase.store(next as u8, Ordering::Release);
            if next == durations.len() {
                break;
            }
        } else {
            std::thread::sleep(sample_interval.min(next_edge - now));
        }
    }
    start.elapsed().as_secs_f64()
}

/// Installs (once) a panic hook that swallows panics raised on fault-actor
/// threads: injected panics are the *point* of
/// [`crate::faults::FaultKind::PanicDuringOp`], and the default hook's
/// backtrace spam would drown the verdict table.  Panics on any other thread
/// still reach the previously installed hook.
pub(crate) fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("fault-actor"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Sleeps until the phase word reaches `at_least`.
pub(crate) fn wait_for_phase(phase: &AtomicU8, at_least: u8) {
    while phase.load(Ordering::Acquire) < at_least {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A stalled reader: pins a guard, performs one lookup of `key`, then holds
/// the guard for the whole `stall_at` phase — the canonical robustness killer
/// for epoch-style schemes.  The fault harness stalls through its fault
/// phase, the service scenario through its reader-stall phase.
pub(crate) fn stall_actor<C: ConcurrentMap<u64, ()>>(
    ops: &Ops<'_, C, Membership>,
    phase: &AtomicU8,
    key: u64,
    stall_at: u8,
) {
    let map = &ops.target.map;
    let mut handle = map.handle();
    wait_for_phase(phase, stall_at);
    let mut guard = map.pin(&mut handle);
    ops.apply(&mut guard, OpClass::Get, key, &mut Tally::default());
    while phase.load(Ordering::Acquire) == stall_at {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Recovery: the guard drops here, releasing whatever the scheme was
    // holding back; the handle drop then releases the slot cleanly.
}

/// A misbehaving (or merely extra) thread of a phased run: its body, which
/// receives the phase word.
pub(crate) type Actor<'a> = Box<dyn FnOnce(&AtomicU8) + Send + 'a>;

/// The driver of every run: spawns `workers` threads running
/// `worker(index, phase_word)` plus the `actors` (on threads named
/// `fault-actor-…`, which [`silence_injected_panics`] keys on), walks the
/// phase word through `durations` on the calling thread ([`drive_phases`],
/// feeding `on_event`), and joins.  Returns the workers' summed tallies and the
/// wall-clock seconds from the moment all workers run to the last one's exit.
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
