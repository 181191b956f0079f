//! The `smr` rungs of the layer ladder: direct calls on one thread, no
//! structure.  Also the two rungs that belong to the benchmark itself — the
//! key draw and the clock read.

use crate::cell::with_scheme;
use crate::keys::OpStream;
use crate::spec::{Scheme, NR_CELL_OPS, SMR_THREADS, WORKLOADS};
use scot_smr::{Atomic, Shared, Smr, SmrConfig, SmrGuard, SmrHandle};
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Nanoseconds per iteration and the iterations timed.
pub type Rung = (f64, u64);

/// Runs `body` in batches until `duration` has passed or `max_iters` ran.
fn time_loop(duration: Duration, max_iters: u64, mut body: impl FnMut()) -> Rung {
    const BATCH: u64 = 256;
    let started = Instant::now();
    let mut n = 0;
    loop {
        for _ in 0..BATCH {
            body();
        }
        n += BATCH;
        let elapsed = started.elapsed();
        if elapsed >= duration || n >= max_iters {
            return (elapsed.as_nanos() as f64 / n as f64, n);
        }
    }
}

/// `[pin, protect, alloc_retire, alloc_retire_nopool]` for one scheme, in the
/// order of `spec::SMR_LADDER`.
pub fn smr_rungs(scheme: Scheme, duration: Duration) -> [Rung; 4] {
    // NR leaks every block it is handed: bound its loops by count.
    let max_iters = if scheme == Scheme::Nr {
        NR_CELL_OPS / 4
    } else {
        u64::MAX
    };
    with_scheme!(scheme, S => {
        let config = SmrConfig::for_threads(SMR_THREADS);
        [
            pin::<S>(config.clone(), duration),
            protect::<S>(config.clone(), duration),
            alloc_retire::<S>(config.clone(), duration, max_iters),
            alloc_retire::<S>(config.without_pool(), duration, max_iters),
        ]
    })
}

/// `handle.pin()` + guard drop, including the per-pin beacon bind.
fn pin<S: Smr>(config: SmrConfig, duration: Duration) -> Rung {
    let domain = S::new(config);
    let mut handle = domain.register();
    time_loop(duration, u64::MAX, || {
        let guard = handle.pin();
        black_box(&guard);
    })
}

/// `guard.protect(0, &Atomic)` of a live block inside one pin.
fn protect<S: Smr>(config: SmrConfig, duration: Duration) -> Rung {
    let domain = S::new(config);
    let mut handle = domain.register();
    let mut guard = handle.pin();
    let block: Shared<u64> = guard.alloc(0);
    let source = Atomic::new(block);
    let rung = time_loop(duration, u64::MAX, || {
        black_box(guard.protect(0, black_box(&source)));
    });
    source.store(Shared::null(), Ordering::SeqCst);
    // SAFETY: `block` came from `alloc` on this guard's domain, its only link
    // (`source`) was just cleared on this thread, which is the only one that
    // ever saw it, and this is its single retirement.
    unsafe { guard.retire(block) };
    rung
}

/// Pin, `alloc`, `retire` of the never-published block, unpin — with whatever
/// epoch advance, sweep and pool traffic the scheme amortizes into it.
fn alloc_retire<S: Smr>(config: SmrConfig, duration: Duration, max_iters: u64) -> Rung {
    let domain = S::new(config);
    let mut handle = domain.register();
    time_loop(duration, max_iters, || {
        let mut guard = handle.pin();
        let block: Shared<u64> = guard.alloc(black_box(7));
        // SAFETY: `block` came from `alloc` on this guard's domain, was never
        // stored anywhere another thread could read, and is retired once.
        unsafe { guard.retire(block) };
    })
}

/// Rung 0: the empty loop plus one draw of the op stream.
pub fn keygen(duration: Duration) -> Rung {
    let mut stream = OpStream::new(0, 0, 0, &WORKLOADS[0]);
    time_loop(duration, u64::MAX, || {
        black_box(stream.next_op());
    })
}

/// Cost of one clock read, as the span recorder makes it.
pub fn timer(duration: Duration) -> Rung {
    let origin = Instant::now();
    time_loop(duration, u64::MAX, || {
        black_box(origin.elapsed().as_nanos() as u64);
    })
}
