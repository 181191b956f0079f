//! One cell = one structure under one scheme: build, prefill, oracle pass,
//! timed slices with two closed-loop workers, then the structural checks.
//!
//! Everything here goes through the public surface listed in the README:
//! `scot::ConcurrentMap<u64, u64>`, the structure constructors and
//! `scot_smr::{Smr, SmrConfig}`.

use crate::keys::{OpClass, OpStream, ORACLE_STREAM, PREFILL_STREAM};
use crate::spec::{Scheme, Structure, Workload, ORACLE_OPS, SMR_THREADS, STAMP, WORKERS};
use crate::trace::{Ring, Sample, SPAN_EVERY};
use scot::{ConcurrentMap, HarrisList, HarrisMichaelList, HashMap, NmTree, TraversalSnapshot};
use scot_smr::{Smr, SmrConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// The main thread samples `Smr::unreclaimed()` this often while workers run.
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// How long `flush` may take to drain a quiescent domain to zero.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Runs `$body` with `$S` bound to the scheme's domain type.
macro_rules! with_scheme {
    ($scheme:expr, $S:ident => $body:expr) => {
        match $scheme {
            $crate::spec::Scheme::Ebr => {
                type $S = scot_smr::Ebr;
                $body
            }
            $crate::spec::Scheme::Hp => {
                type $S = scot_smr::Hp;
                $body
            }
            $crate::spec::Scheme::He => {
                type $S = scot_smr::He;
                $body
            }
            $crate::spec::Scheme::Ibr => {
                type $S = scot_smr::Ibr;
                $body
            }
            $crate::spec::Scheme::Hln => {
                type $S = scot_smr::Hyaline;
                $body
            }
            $crate::spec::Scheme::Nbr => {
                type $S = scot_smr::Nbr;
                $body
            }
            $crate::spec::Scheme::Vbr => {
                type $S = scot_smr::Vbr;
                $body
            }
            $crate::spec::Scheme::Nr => {
                type $S = scot_smr::Nr;
                $body
            }
        }
    };
}
pub(crate) use with_scheme;

/// Checks made and checks failed.  Every operation is one check (a timed hit
/// must carry its stamp, an oracle-pass outcome must match the oracle), and so
/// is each structural check; insert-conflict and remove-miss are outcomes, not
/// failures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Span buffers of a run: one ring per worker, reused by every traced slice,
/// and the samples drained from them.
pub struct Tracer {
    origin: Instant,
    rings: Vec<Ring>,
    pub samples: Vec<Sample>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            rings: (0..WORKERS).map(|_| Ring::new()).collect(),
            samples: Vec::new(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct SliceSpec {
    pub traced: bool,
    pub duration: Duration,
    /// Per-worker operation cap (`u64::MAX` for none).
    pub max_ops: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub traced: bool,
    pub ops: u64,
    /// Completed operations per second, summed over the workers.
    pub ops_per_s: f64,
    pub unreclaimed_avg: f64,
    pub unreclaimed_peak: usize,
    pub restarts: u64,
    pub recoveries: u64,
    pub zone_entries: u64,
}

pub struct CellOutcome {
    pub setup_s: f64,
    pub slices: Vec<Slice>,
    pub tally: Tally,
}

/// Builds, checks and times one cell.  Slice `i` draws from repetition
/// `rep + i` of the seed's stream.
pub fn run_cell(
    w: &Workload,
    scheme: Scheme,
    seed: u64,
    rep: u64,
    slices: &[SliceSpec],
    tracer: &mut Tracer,
) -> CellOutcome {
    with_scheme!(scheme, S => match w.structure {
        Structure::HarrisList => {
            run_cell_on::<S, HarrisList<u64, S, u64>>(w, scheme, seed, rep, slices, tracer)
        }
        Structure::HarrisMichaelList => {
            run_cell_on::<S, HarrisMichaelList<u64, S, u64>>(w, scheme, seed, rep, slices, tracer)
        }
        Structure::NmTree => {
            run_cell_on::<S, NmTree<u64, S, u64>>(w, scheme, seed, rep, slices, tracer)
        }
        Structure::HashMap => {
            run_cell_on::<S, HashMap<u64, S, u64>>(w, scheme, seed, rep, slices, tracer)
        }
    })
}

trait BenchMap<S: Smr>: ConcurrentMap<u64, u64> + Sized {
    fn build(w: &Workload, domain: Arc<S>) -> Self;
}

impl<S: Smr> BenchMap<S> for HarrisList<u64, S, u64> {
    fn build(_: &Workload, domain: Arc<S>) -> Self {
        Self::new(domain)
    }
}

impl<S: Smr> BenchMap<S> for HarrisMichaelList<u64, S, u64> {
    fn build(_: &Workload, domain: Arc<S>) -> Self {
        Self::new(domain)
    }
}

impl<S: Smr> BenchMap<S> for NmTree<u64, S, u64> {
    fn build(_: &Workload, domain: Arc<S>) -> Self {
        Self::new(domain)
    }
}

impl<S: Smr> BenchMap<S> for HashMap<u64, S, u64> {
    fn build(w: &Workload, domain: Arc<S>) -> Self {
        Self::new(w.keys as usize, domain)
    }
}

fn run_cell_on<S: Smr, M: BenchMap<S>>(
    w: &Workload,
    scheme: Scheme,
    seed: u64,
    rep: u64,
    slices: &[SliceSpec],
    tracer: &mut Tracer,
) -> CellOutcome {
    let mut tally = Tally::default();

    let (domain, map, mut live, setup_s) = with_cores_busy(|| {
        let started = Instant::now();
        let domain = S::new(SmrConfig::for_threads(SMR_THREADS));
        let map = M::build(w, domain.clone());
        let live = set_up(&map, w, seed, rep, &mut tally);
        (domain, map, live, started.elapsed().as_secs_f64())
    });

    let mut done = Vec::new();
    for (i, spec) in slices.iter().enumerate() {
        let (slice, delta) = if spec.traced {
            run_slice::<true, S, M>(
                &map,
                &domain,
                w,
                seed,
                rep + i as u64,
                spec,
                tracer,
                &mut tally,
            )
        } else {
            run_slice::<false, S, M>(
                &map,
                &domain,
                w,
                seed,
                rep + i as u64,
                spec,
                tracer,
                &mut tally,
            )
        };
        live += delta;
        done.push(slice);
    }

    // After the workers joined: the live set must be what the per-thread
    // tallies say, and a quiescent domain must drain.
    with_cores_busy(|| {
        let mut handle = map.handle();
        let entries = map.collect(&mut handle);
        tally.check(entries.len() as i64 == live);
        tally.check(entries.iter().all(|(k, v)| *v == k ^ STAMP));
        if scheme != Scheme::Nr {
            let deadline = Instant::now() + DRAIN_TIMEOUT;
            loop {
                map.flush(&mut handle);
                if domain.unreclaimed() == 0 || Instant::now() >= deadline {
                    break;
                }
                thread::sleep(Duration::from_millis(1));
            }
            tally.check(domain.unreclaimed() == 0);
        }
        drop(handle);
        drop(map);
    });

    CellOutcome {
        setup_s,
        slices: done,
        tally,
    }
}

/// Runs `work` on this thread while spinners occupy the cores the workers
/// otherwise use.  A core of the box this was sized on needs most of a second
/// to return to full speed once it has idled (a pure ALU loop runs at a third
/// of its rate for ~0.3 s, then half for ~0.5 s), so a core left idle during a
/// single-threaded phase makes the next slice's worker on it slow.
pub fn with_cores_busy<R>(work: impl FnOnce() -> R) -> R {
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        for _ in 1..WORKERS {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let out = work();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

/// Brings every core to full speed before the first measurement of a run.
pub fn warm_up() {
    const WARM_UP: Duration = Duration::from_secs(1);
    with_cores_busy(|| {
        let started = Instant::now();
        while started.elapsed() < WARM_UP {
            std::hint::spin_loop();
        }
    });
}

/// Prefills to half the key range, then runs the workload's mix on one thread
/// against a `BTreeMap` oracle.  Returns the number of live entries.
fn set_up<M: ConcurrentMap<u64, u64>>(
    map: &M,
    w: &Workload,
    seed: u64,
    rep: u64,
    tally: &mut Tally,
) -> i64 {
    let mut oracle = BTreeMap::new();
    let mut handle = map.handle();

    let mut stream = OpStream::new(seed, PREFILL_STREAM, rep, w);
    while (oracle.len() as u64) < w.keys / 2 {
        let (_, key) = stream.next_op();
        let fresh = oracle.insert(key, key ^ STAMP).is_none();
        let mut guard = map.pin(&mut handle);
        tally.check(map.insert(&mut guard, key, key ^ STAMP).is_ok() == fresh);
    }

    let mut stream = OpStream::new(seed, ORACLE_STREAM, rep, w);
    for _ in 0..ORACLE_OPS {
        let (class, key) = stream.next_op();
        let mut guard = map.pin(&mut handle);
        let agrees = match class {
            OpClass::Get => map.get(&mut guard, &key).copied() == oracle.get(&key).copied(),
            OpClass::Insert => {
                let fresh = !oracle.contains_key(&key);
                if fresh {
                    oracle.insert(key, key ^ STAMP);
                }
                map.insert(&mut guard, key, key ^ STAMP).is_ok() == fresh
            }
            OpClass::Remove => map.remove(&mut guard, &key).copied() == oracle.remove(&key),
        };
        tally.check(agrees);
    }

    let entries = map.collect(&mut handle);
    tally.check(
        entries
            .iter()
            .copied()
            .eq(oracle.iter().map(|(k, v)| (*k, *v))),
    );
    oracle.len() as i64
}

#[derive(Default)]
struct WorkerOut {
    ops: u64,
    elapsed_s: f64,
    inserted: u64,
    removed: u64,
    bad_values: u64,
}

/// One timed slice.  Returns it with the change in live entries.
#[allow(clippy::too_many_arguments)]
fn run_slice<const TRACE: bool, S: Smr, M: ConcurrentMap<u64, u64>>(
    map: &M,
    domain: &Arc<S>,
    w: &Workload,
    seed: u64,
    rep: u64,
    spec: &SliceSpec,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (Slice, i64) {
    let stop = AtomicBool::new(false);
    let finished = AtomicUsize::new(0);
    let start = Barrier::new(WORKERS + 1);
    let origin = tracer.origin;
    let before = map.traversal_stats();
    let mut backlog = Vec::new();

    let outs: Vec<WorkerOut> = thread::scope(|scope| {
        let (stop, finished, start) = (&stop, &finished, &start);
        let workers: Vec<_> = tracer
            .rings
            .iter_mut()
            .enumerate()
            .map(|(t, ring)| {
                let stream = OpStream::new(seed, t as u64, rep, w);
                scope.spawn(move || {
                    let out = work::<TRACE, M>(
                        map,
                        stream,
                        t as u8,
                        spec.max_ops,
                        stop,
                        start,
                        origin,
                        ring,
                    );
                    finished.fetch_add(1, Ordering::Release);
                    out
                })
            })
            .collect();

        // The main thread only sleeps and samples the backlog.
        start.wait();
        let began = Instant::now();
        while began.elapsed() < spec.duration && finished.load(Ordering::Acquire) < WORKERS {
            thread::sleep(SAMPLE_EVERY.min(spec.duration));
            backlog.push(domain.unreclaimed());
        }
        stop.store(true, Ordering::Relaxed);
        workers
            .into_iter()
            .map(|j| j.join().expect("benchmark worker panicked"))
            .collect()
    });
    if TRACE {
        for ring in &mut tracer.rings {
            ring.drain_into(&mut tracer.samples);
        }
    }

    let after: TraversalSnapshot = map.traversal_stats();
    let ops: u64 = outs.iter().map(|o| o.ops).sum();
    tally.attempted += ops;
    tally.failed += outs.iter().map(|o| o.bad_values).sum::<u64>();
    let inserted: u64 = outs.iter().map(|o| o.inserted).sum();
    let removed: u64 = outs.iter().map(|o| o.removed).sum();
    let slice = Slice {
        traced: TRACE,
        ops,
        ops_per_s: outs.iter().map(|o| o.ops as f64 / o.elapsed_s).sum(),
        unreclaimed_avg: backlog.iter().sum::<usize>() as f64 / backlog.len() as f64,
        unreclaimed_peak: backlog.iter().copied().max().unwrap_or(0),
        restarts: after.restarts - before.restarts,
        recoveries: after.recoveries - before.recoveries,
        zone_entries: after.zone_entries - before.zone_entries,
    };
    (slice, inserted as i64 - removed as i64)
}

/// A closed-loop client: draw, pin, one operation, unpin — the paper's per-op
/// pin protocol.
#[allow(clippy::too_many_arguments)]
fn work<const TRACE: bool, M: ConcurrentMap<u64, u64>>(
    map: &M,
    mut stream: OpStream,
    thread: u8,
    max_ops: u64,
    stop: &AtomicBool,
    start: &Barrier,
    origin: Instant,
    ring: &mut Ring,
) -> WorkerOut {
    let mut handle = map.handle();
    let mut out = WorkerOut::default();
    start.wait();
    let began = Instant::now();
    while out.ops < max_ops && !stop.load(Ordering::Relaxed) {
        if TRACE && out.ops % SPAN_EVERY == 0 {
            let now = || origin.elapsed().as_nanos() as u64;
            let t0 = now();
            // `black_box` keeps the draw between the two clock reads.
            let (class, key) = black_box(stream.next_op());
            let t1 = now();
            let mut guard = map.pin(&mut handle);
            let t2 = now();
            apply(map, &mut guard, class, key, &mut out);
            let t3 = now();
            drop(guard);
            let t4 = now();
            ring.push(Sample {
                op: out.ops,
                thread,
                class,
                t: [t0, t1, t2, t3, t4],
            });
        } else {
            let (class, key) = stream.next_op();
            let mut guard = map.pin(&mut handle);
            apply(map, &mut guard, class, key, &mut out);
        }
        out.ops += 1;
    }
    out.elapsed_s = began.elapsed().as_secs_f64();
    out
}

#[inline(always)]
fn apply<'h, M: ConcurrentMap<u64, u64>>(
    map: &M,
    guard: &mut M::Guard<'h>,
    class: OpClass,
    key: u64,
    out: &mut WorkerOut,
) {
    let want = key ^ STAMP;
    match class {
        OpClass::Get => {
            if let Some(v) = map.get(guard, &key) {
                out.bad_values += u64::from(*v != want);
            }
        }
        OpClass::Insert => out.inserted += u64::from(map.insert(guard, key, want).is_ok()),
        OpClass::Remove => {
            if let Some(v) = map.remove(guard, &key) {
                out.bad_values += u64::from(*v != want);
                out.removed += 1;
            }
        }
    }
}
