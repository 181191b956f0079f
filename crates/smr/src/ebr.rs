//! EBR — epoch-based reclamation (Fraser 2004, Hart et al. 2007).
//!
//! Threads entering a critical section publish the current global epoch;
//! retired nodes are tagged with the epoch at retirement and reclaimed once
//! the global epoch has advanced by two, which implies every thread active at
//! retirement has since passed through a quiescent point.
//!
//! EBR is the paper's "fast but fragile" baseline: it imposes almost no
//! per-access overhead (a single epoch announcement per operation) and is
//! compatible with every data structure, but a single stalled thread freezes
//! the global epoch and memory grows without bound — the behaviour exercised
//! by the `stalled_reader` example and the fault-injection harness.
//!
//! Everything after `retire` — limbo lists, scans, adoption of slots whose
//! owner died — is the shared retire core ([`crate::limbo`]); this module is
//! the epoch protocol and its [`Scheme`] impl.

use crate::block::Retired;
use crate::limbo::{announce_confirmed, Domain, Guard, ReadSide, RetireCore, Scheme};
use crate::ptr::{Atomic, Shared};
use crate::SmrKind;
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Epoch value meaning "not in a critical section"; 0, so a default slot
/// is inactive.
const INACTIVE: u64 = 0;
/// First valid epoch.  Starting above `INACTIVE + 2` keeps the "retire epoch
/// + 2" comparison free of underflow special cases.
const FIRST_EPOCH: u64 = 4;

/// One thread's epoch announcement; the default is [`INACTIVE`].
#[derive(Default)]
pub struct EbrSlot {
    /// Epoch announced by the slot's owner, or [`INACTIVE`].
    epoch: AtomicU64,
}

/// The epoch-based reclamation domain.
pub struct Ebr {
    core: RetireCore<EbrSlot>,
    global_epoch: CachePadded<AtomicU64>,
}

impl Ebr {
    /// Attempts to advance the global epoch.  Succeeds only if every active
    /// thread has announced the current epoch — the quiescence condition that
    /// a stalled thread blocks forever.
    fn try_advance(&self) -> u64 {
        let global = self.global_epoch.load(Ordering::SeqCst);
        for slot in self.core.claimed() {
            let e = slot.epoch.load(Ordering::SeqCst);
            if e != INACTIVE && e != global {
                return global;
            }
        }
        // A failed CAS means another thread advanced it; either way the epoch
        // is now at least `global`.
        let _ = self.global_epoch.compare_exchange(
            global,
            global + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        self.global_epoch.load(Ordering::SeqCst)
    }
}

impl Domain for Ebr {
    const KIND: SmrKind = SmrKind::Ebr;
    type Slot = EbrSlot;

    fn build(core: RetireCore<EbrSlot>) -> Self {
        Self {
            core,
            global_epoch: CachePadded::new(AtomicU64::new(FIRST_EPOCH)),
        }
    }

    #[inline]
    fn core(&self) -> &RetireCore<EbrSlot> {
        &self.core
    }

    fn neutralize(&self, slot: usize) {
        let slot = self.core.reservation(slot);
        slot.epoch.store(INACTIVE, Ordering::SeqCst);
    }
}

// SAFETY: `can_free` demands that the global epoch advanced two past the
// block's retire epoch.  `try_advance` moves the epoch only when every active
// slot announces the current one, so two advances imply every thread active
// at retirement has since passed a quiescent point and no protected reference
// remains.  `neutralize` stores `INACTIVE`, the announcement of no critical
// section.
unsafe impl Scheme for Ebr {
    type Snapshot = u64;

    #[inline]
    fn retire_stamp(&self) -> Option<u64> {
        // ORDERING: Relaxed — per-location coherence keeps the epoch read no
        // older than the announcement made at `pin` (re-read there with
        // SeqCst), which is all the `retire + 2 <= global` comparison needs.
        Some(self.global_epoch.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> u64 {
        self.global_epoch.load(Ordering::SeqCst)
    }

    #[inline]
    fn can_free(&self, global: &u64, retired: &Retired) -> bool {
        retired.retire_era().saturating_add(2) <= *global
    }

    fn before_scan(&self, _force: bool) {
        self.try_advance();
    }
}

impl ReadSide for Ebr {
    type State = ();

    /// Publishes the current global epoch and confirms it is still current;
    /// if it moved, re-announces, so a critical section never runs under an
    /// announcement older than the epoch it entered at.
    #[inline]
    fn enter(&self, slot: &EbrSlot) {
        announce_confirmed(&self.global_epoch, &slot.epoch);
    }

    #[inline]
    fn exit(g: &mut Guard<'_, Self>) {
        g.slot().epoch.store(INACTIVE, Ordering::Release);
    }

    #[inline]
    fn protect<T>(_: &mut Guard<'_, Self>, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        // The epoch announcement made at `pin` already protects everything
        // reachable; per-pointer work is unnecessary, which is precisely why
        // EBR is the paper's performance yardstick.
        src.load(Ordering::Acquire)
    }

    #[inline]
    fn announce<T>(_: &mut Guard<'_, Self>, _idx: usize, _ptr: Shared<T>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Smr, SmrConfig, SmrGuard, SmrHandle};

    fn small_config() -> SmrConfig {
        SmrConfig {
            max_threads: 4,
            scan_threshold: 4,
            ..SmrConfig::default()
        }
    }

    #[test]
    fn retired_nodes_are_eventually_freed() {
        let d = Ebr::new(small_config());
        let mut h = d.register();
        for i in 0..64u64 {
            let mut g = h.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        // Repeated flushes advance the epoch twice past the last retirement.
        for _ in 0..4 {
            h.flush();
        }
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn stalled_guard_blocks_reclamation() {
        let d = Ebr::new(small_config());
        let mut stalled = d.register();
        let mut worker = d.register();

        // `stalled` enters a critical section and never leaves.
        let _guard = stalled.pin();

        for i in 0..256u64 {
            let mut g = worker.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        worker.flush();
        // The stalled thread pins an old epoch: nothing can be reclaimed from
        // (at most) two epochs onward, so the limbo population stays large.
        assert!(
            d.unreclaimed() > 128,
            "EBR should not reclaim past a stalled thread (got {})",
            d.unreclaimed()
        );
    }

    #[test]
    fn orphans_are_freed_on_domain_drop() {
        let d = Ebr::new(small_config());
        {
            let mut h = d.register();
            let mut g = h.pin();
            let p = g.alloc(1u64);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
            // Handle dropped with a non-empty vault -> orphaned.
        }
        assert_eq!(d.unreclaimed(), 1);
        drop(d);
        // Nothing to assert directly (the memory is freed); absence of leaks
        // is verified by the drop-counting integration tests.
    }

    #[test]
    fn leaked_handle_on_dead_thread_is_adopted() {
        // The handle is leaked with a pinned-then-released slot; the thread
        // exits without ever releasing the slot.
        crate::tests::leaked_handle_on_dead_thread_is_adopted::<Ebr>(small_config(), 3, false, 8);
    }

    #[test]
    fn retire_batch_reclaims_like_per_node_retire() {
        crate::tests::retire_batch_reclaims_like_per_node_retire::<Ebr>(small_config(), 32, 4);
    }

    #[test]
    fn guard_held_across_repins_does_not_freeze_the_epoch() {
        // "repin" in the name now means the batch edge: drop + pin every 16
        // worker retires.  A guard held across such batches must not behave
        // like a stalled reader.
        let d = Ebr::new(small_config());
        let mut holder = d.register();
        let mut worker = d.register();
        let mut g = holder.pin();
        for i in 0..256u64 {
            let mut wg = worker.pin();
            let p = wg.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { wg.retire(p) };
            drop(wg);
            if i % 16 == 15 {
                drop(g);
                g = holder.pin();
            }
        }
        worker.flush();
        drop(g);
        worker.flush();
        assert!(
            d.unreclaimed() < 128,
            "re-pinning at batch edges must let the epoch advance (got {})",
            d.unreclaimed()
        );
    }

    #[test]
    fn epoch_advances_without_active_threads() {
        let d = Ebr::new(small_config());
        let before = d.global_epoch.load(Ordering::SeqCst);
        let after = d.try_advance();
        assert!(after > before);
    }

    #[test]
    fn multi_threaded_retire_storm_reclaims_everything() {
        let d = Ebr::new(SmrConfig {
            max_threads: 8,
            scan_threshold: 16,
            ..SmrConfig::default()
        });
        std::thread::scope(|s| {
            for t in 0..4 {
                let d = d.clone();
                s.spawn(move || {
                    let mut h = d.register();
                    for i in 0..1000u64 {
                        let mut g = h.pin();
                        let p = g.alloc(t * 10_000 + i);
                        // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
                        unsafe { g.retire(p) };
                    }
                    for _ in 0..8 {
                        h.flush();
                    }
                });
            }
        });
        let mut h = d.register();
        for _ in 0..8 {
            h.flush();
        }
        drop(h);
        assert_eq!(d.unreclaimed(), 0);
    }
}
