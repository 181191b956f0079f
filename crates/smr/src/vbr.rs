//! VBR — version-based reclamation (Cohen's "Every Data Structure Deserves
//! Lock-Free Memory Reclamation"), epoch-displaced variant.
//!
//! Cohen's VBR never scans limbo lists: retired nodes go straight onto a
//! per-thread recycle queue and are handed back to the allocator in
//! retire-order, while readers that may still hold references detect the
//! reuse *after the fact* by re-checking a per-block version stamp.  This
//! module keeps that shape — O(1) retire, recycling in epoch order through
//! the [`crate::pool::BlockPool`]'s layout bins, a monotonic per-incarnation
//! version stamp in every block header, allocation-driven epoch advancement —
//! but gates the actual memory handoff on a two-epoch displacement bound
//! instead of unconditional reuse.  The recycle queue is the shared retire
//! core's vault ([`crate::limbo`]): a thread's retire stamps are monotone, so
//! the core's sweep releases exactly the eligible prefix, at one compare per
//! entry against one minimum-epoch scan per sweep.
//!
//!
//! * every operation announces the global epoch at [`SmrHandle::pin`];
//! * a recycle-queue entry is released to the pool once its retire epoch is
//!   two behind the minimum announced epoch;
//! * a reader whose announced epoch falls two behind the advancing global
//!   epoch is asked to restart through [`SmrGuard::needs_restart`] /
//!   [`SmrGuard::checkpoint`] (the same cursor-routed protocol as NBR), which
//!   re-announces the current epoch and lets recycling proceed past it.
//!
//! The reason for the gate is Rust-specific and spelled out in `DESIGN.md`:
//! the structure API hands out guard-scoped borrows (`&'g V`), and a borrow
//! into memory that is recycled mid-lifetime is undefined behavior even if a
//! later version re-check would discard the value — Cohen's deref-then-
//! validate is sound in C but not under Rust references.  The version stamp
//! ([`crate::block::version_of`]) still travels with every block and the
//! traversal cursor re-checks it on validation as a hardening layer; the
//! two-epoch bound is what turns "probably caught by validation" into a
//! memory-safety guarantee.  The price is the cooperative-caveat shared with
//! [`crate::Nbr`]: a reader that never polls pins the minimum epoch, so
//! [`SmrKind::is_robust`] reports `false`.
//!
//! [`SmrHandle::pin`]: crate::SmrHandle::pin
//! [`SmrGuard::needs_restart`]: crate::SmrGuard::needs_restart
//! [`SmrGuard::checkpoint`]: crate::SmrGuard::checkpoint

use crate::block::Retired;
use crate::limbo::{announce_confirmed, Domain, Guard, ReadSide, RetireCore, Scheme};
use crate::ptr::{Atomic, Shared};
use crate::SmrKind;
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Epoch value meaning "not in a critical section"; 0, so a default slot
/// is inactive.
const INACTIVE: u64 = 0;
/// First valid epoch; starting above `INACTIVE + 2` keeps the "retire epoch
/// + 2" comparison free of underflow special cases.
const FIRST_EPOCH: u64 = 4;

/// How many epochs a reader may lag the global epoch before it is asked to
/// restart.  One epoch of slack means an epoch tick does not stampede every
/// in-flight operation; two epochs of lag is exactly where the reader starts
/// delaying the recycle queue (entries retired at its announce epoch become
/// eligible only once the minimum rises).
const DISPLACEMENT_SLACK: u64 = 2;

/// One thread's epoch announcement; the default is [`INACTIVE`].
#[derive(Default)]
pub struct VbrSlot {
    /// Epoch announced by the slot's owner, or [`INACTIVE`].
    epoch: AtomicU64,
}

/// The version-based reclamation domain.
pub struct Vbr {
    core: RetireCore<VbrSlot>,
    global_epoch: CachePadded<AtomicU64>,
    /// Total reader displacements acknowledged via `checkpoint` (diagnostic).
    displacements: AtomicU64,
}

impl Vbr {
    /// Total reader displacements acknowledged so far (diagnostic).
    pub fn displacements(&self) -> u64 {
        self.displacements.load(Ordering::Relaxed)
    }
}

impl Domain for Vbr {
    const KIND: SmrKind = SmrKind::Vbr;
    type Slot = VbrSlot;

    fn build(core: RetireCore<VbrSlot>) -> Self {
        Self {
            core,
            global_epoch: CachePadded::new(AtomicU64::new(FIRST_EPOCH)),
            displacements: AtomicU64::new(0),
        }
    }

    #[inline]
    fn core(&self) -> &RetireCore<VbrSlot> {
        &self.core
    }

    /// The birth stamp is informational: safety rests on the two-epoch
    /// bound, not on epoch precision.
    #[inline]
    fn clock(&self) -> Option<&AtomicU64> {
        Some(&self.global_epoch)
    }

    fn neutralize(&self, slot: usize) {
        let slot = self.core.reservation(slot);
        slot.epoch.store(INACTIVE, Ordering::SeqCst);
    }
}

// SAFETY: a reader that announced epoch `E` can only reach blocks retired at
// `E - 1` or later, so a block whose retire epoch is two behind the minimum
// announced epoch can no longer be addressed — or still be validated — by
// any reader.  `can_free` demands exactly that of the minimum over all active
// slots, read with SeqCst after the block was retired (`u64::MAX` when no
// thread is inside a critical section).  `neutralize` stores `INACTIVE`, the
// announcement of no critical section.
unsafe impl Scheme for Vbr {
    /// Minimum epoch announced by any active slot.
    type Snapshot = u64;

    #[inline]
    fn retire_stamp(&self) -> Option<u64> {
        // ORDERING: Relaxed — a retire stamp only has to be no older than the
        // epoch this thread announced at its last checkpoint (published with
        // SeqCst there), which per-location coherence guarantees; a stale one
        // only delays recycling.  The stamp is read by the vault's owner, or
        // after the owner/adopter hand-off (`crate::limbo` docs).
        Some(self.global_epoch.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> u64 {
        self.core
            .claimed()
            .map(|slot| slot.epoch.load(Ordering::SeqCst))
            .filter(|&e| e != INACTIVE)
            .min()
            .unwrap_or(u64::MAX)
    }

    #[inline]
    fn can_free(&self, min: &u64, retired: &Retired) -> bool {
        retired.retire_era().saturating_add(2) <= *min
    }

    /// Still blocked: advance the epoch so lagging readers trip the
    /// displacement bound and re-announce.  No second sweep — the minimum
    /// only rises once those readers have answered.
    fn still_blocked(&self) -> bool {
        self.global_epoch.fetch_add(1, Ordering::SeqCst);
        false
    }
}

/// The guard's state is the epoch announced for this operation
/// (re-announced by `checkpoint`): exactly the epoch stored into the slot, so
/// `needs_restart` measures the lag of the announcement that actually holds
/// the recycle queues back (a cached epoch ahead of the slot would
/// under-report that lag and leave a stale reader undisplaced).
impl ReadSide for Vbr {
    type State = u64;

    #[inline]
    fn enter(&self, slot: &VbrSlot) -> u64 {
        announce_confirmed(&self.global_epoch, &slot.epoch)
    }

    #[inline]
    fn exit(g: &mut Guard<'_, Self>) {
        g.slot().epoch.store(INACTIVE, Ordering::Release);
    }

    #[inline]
    fn protect<T>(_: &mut Guard<'_, Self>, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        // The epoch announced at pin (or the last checkpoint) holds the
        // recycle queues back; per-pointer work is unnecessary.
        src.load(Ordering::Acquire)
    }

    #[inline]
    fn announce<T>(_: &mut Guard<'_, Self>, _idx: usize, _ptr: Shared<T>) {}

    #[inline]
    fn needs_restart(g: &Guard<'_, Self>) -> bool {
        let global = &g.scheme().global_epoch;
        global.load(Ordering::Acquire).saturating_sub(g.state) >= DISPLACEMENT_SLACK
    }

    #[inline]
    fn checkpoint(g: &mut Guard<'_, Self>) {
        let scheme = g.scheme();
        g.state = announce_confirmed(&scheme.global_epoch, &g.slot().epoch);
        scheme.displacements.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::version_of;
    use crate::{Smr, SmrConfig, SmrGuard, SmrHandle};

    fn small_config() -> SmrConfig {
        SmrConfig {
            max_threads: 4,
            scan_threshold: 4,
            epoch_freq_per_thread: 1,
            ..SmrConfig::default()
        }
    }

    #[test]
    fn quiescent_flush_drains_to_zero() {
        let d = Vbr::new(small_config());
        let mut h = d.register();
        for i in 0..64u64 {
            let mut g = h.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        for _ in 0..4 {
            h.flush();
        }
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn retired_blocks_are_recycled_with_bumped_versions() {
        let d = Vbr::new(small_config());
        let mut h = d.register();
        // Churn enough for the recycle queue to feed the pool and for the
        // pool to hand memory back out.
        let mut max_version = 0;
        for i in 0..512u64 {
            let mut g = h.pin();
            let p = g.alloc(i);
            // SAFETY: `p` is live and owned by this test.
            max_version = max_version.max(unsafe { version_of(p) });
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        assert!(
            max_version > 0,
            "VBR churn must recycle memory through the pool (version stamp)"
        );
    }

    #[test]
    fn lagging_reader_is_displaced() {
        let d = Vbr::new(small_config());
        let mut reader = d.register();
        let mut worker = d.register();

        let mut g = reader.pin();
        assert!(!g.needs_restart());

        // Alloc/retire churn advances the epoch (epoch_freq = 4 here) until
        // the reader is two behind.
        for i in 0..64u64 {
            let mut wg = worker.pin();
            let p = wg.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { wg.retire(p) };
        }
        assert!(
            g.needs_restart(),
            "a reader two epochs behind must be asked to restart"
        );
        g.checkpoint();
        assert!(!g.needs_restart());
        assert!(d.displacements() > 0);
        let epoch = d.global_epoch.load(Ordering::SeqCst);
        assert_eq!(
            d.core.reservation(0).epoch.load(Ordering::SeqCst),
            epoch,
            "checkpoint must re-announce the current epoch"
        );
        drop(g);
        for _ in 0..4 {
            worker.flush();
        }
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn cooperative_reader_does_not_block_recycling() {
        let d = Vbr::new(small_config());
        let mut reader = d.register();
        let mut worker = d.register();
        let mut g = reader.pin();
        for i in 0..128u64 {
            let mut wg = worker.pin();
            let p = wg.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { wg.retire(p) };
            if g.needs_restart() {
                g.checkpoint();
            }
        }
        if g.needs_restart() {
            g.checkpoint();
        }
        for _ in 0..4 {
            worker.flush();
            if g.needs_restart() {
                g.checkpoint();
            }
        }
        assert!(
            d.unreclaimed() <= 4,
            "a checkpointing reader must not pin the recycle queues (got {})",
            d.unreclaimed()
        );
        drop(g);
    }

    #[test]
    fn uncooperative_reader_blocks_recycling() {
        let d = Vbr::new(small_config());
        let mut stalled = d.register();
        let mut worker = d.register();
        let _guard = stalled.pin();
        for i in 0..256u64 {
            let mut g = worker.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        worker.flush();
        assert!(
            d.unreclaimed() > 128,
            "VBR must not recycle past an uncooperative reader (got {})",
            d.unreclaimed()
        );
    }

    #[test]
    fn repin_reannounces_without_counting_as_displacement() {
        // "repin" in the name now means the batch edge: drop + pin.
        let d = Vbr::new(small_config());
        let mut h = d.register();
        let g = h.pin();
        let announced = d.core.reservation(0).epoch.load(Ordering::SeqCst);
        d.global_epoch
            .fetch_add(DISPLACEMENT_SLACK, Ordering::SeqCst);
        assert!(g.needs_restart());
        drop(g);
        let g = h.pin();
        assert_eq!(
            d.core.reservation(0).epoch.load(Ordering::SeqCst),
            announced + DISPLACEMENT_SLACK,
            "the batch edge must re-announce the current epoch"
        );
        assert!(
            !g.needs_restart(),
            "a freshly re-pinned reader is not displaced"
        );
        assert_eq!(d.displacements(), 0, "the batch edge is not a displacement");
        drop(g);
    }

    #[test]
    fn guard_held_across_repins_does_not_block_recycling() {
        // "repin" in the name now means the batch edge: drop + pin every 16
        // worker retires.
        let d = Vbr::new(small_config());
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
        assert!(
            d.unreclaimed() < 128,
            "a reader re-pinning at batch edges must not pin the queues (got {})",
            d.unreclaimed()
        );
        drop(g);
    }

    #[test]
    fn retire_batch_reclaims_like_per_node_retire() {
        crate::tests::retire_batch_reclaims_like_per_node_retire::<Vbr>(small_config(), 48, 4);
    }

    #[test]
    fn fifo_drain_stops_at_the_first_protected_entry() {
        let d = Vbr::new(SmrConfig {
            max_threads: 4,
            scan_threshold: 1024, // no automatic drains
            epoch_freq_per_thread: 1024,
            ..SmrConfig::default()
        });
        let mut worker = d.register();
        let mut reader = d.register();
        // Two entries retired at the initial epoch...
        for i in 0..2u64 {
            let mut g = worker.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        // ...epoch moves two ahead, a reader pins at the new epoch...
        d.global_epoch.fetch_add(2, Ordering::SeqCst);
        let g = reader.pin();
        // ...and two more entries are retired at the reader's epoch.
        {
            let mut wg = worker.pin();
            for i in 10..12u64 {
                let p = wg.alloc(i);
                // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
                unsafe { wg.retire(p) };
            }
        }
        assert_eq!(d.unreclaimed(), 4);
        worker.flush();
        assert_eq!(
            d.unreclaimed(),
            2,
            "the pre-pin prefix drains, the reader-epoch suffix stays"
        );
        drop(g);
    }

    #[test]
    fn leaked_handle_on_dead_thread_is_adopted() {
        // A thread dying without unwinding its handle: a survivor must adopt
        // and drain its recycle queue.
        crate::tests::leaked_handle_on_dead_thread_is_adopted::<Vbr>(small_config(), 3, false, 8);
    }

    #[test]
    fn multi_threaded_churn_reclaims_everything() {
        let d = Vbr::new(SmrConfig {
            max_threads: 8,
            scan_threshold: 16,
            epoch_freq_per_thread: 1,
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
                        if g.needs_restart() {
                            g.checkpoint();
                        }
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

    #[test]
    fn orphans_are_freed_on_domain_drop() {
        let d = Vbr::new(small_config());
        let mut reader = d.register();
        let mut h = d.register();
        {
            let mut g = h.pin();
            let p = g.alloc(1u64);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        // A pinned reader keeps the entry ineligible, so the handle drop must
        // orphan it instead of draining it.
        let rg = reader.pin();
        drop(h);
        assert_eq!(d.unreclaimed(), 1);
        drop(rg);
        drop(reader);
        drop(d);
    }

    #[test]
    fn retire_cadence_is_batch_invariant() {
        crate::tests::retire_cadence_is_batch_invariant::<Vbr>(|d| {
            d.global_epoch.load(Ordering::SeqCst)
        });
    }
}
