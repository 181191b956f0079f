//! HP — hazard pointers (Michael 2004), plus the snapshot-scan optimization
//! the paper evaluates as "HPopt".
//!
//! Each thread owns [`crate::MAX_HAZARDS`] globally visible hazard slots.
//! `protect` publishes the pointer it is about to dereference and re-reads the
//! source until the published value is stable (the paper's Figure 1); `dup`
//! copies one slot into another so a pointer never passes through an
//! unprotected state while traversal roles shift (next → curr → prev).
//!
//! Guards track which slots they published (a small bitmask) and clear them on
//! drop, so a panic that unwinds out of a traversal releases its protections —
//! without this, one panicked operation would pin its last-protected nodes for
//! the life of the thread and the domain could never drain to zero.
//!
//! Everything after `retire` is the shared retire core ([`crate::limbo`]);
//! its sweep judges each retired node against every slot of every registered
//! thread:
//!
//! * **HP** (baseline): for each retired node, rescan the global hazard array —
//!   the straightforward O(retired × slots) scan of the original scheme as
//!   implemented in the benchmark the paper builds on.
//! * **HPopt**: capture one local snapshot of all hazard slots, sort it, and
//!   binary-search each retired node — the optimization the paper borrows from
//!   the Hyaline work, which it reports as substantially faster in some tests.
//!
//! ## `dup` ordering
//!
//! `dup` uses a `Release` store, exactly as the paper specifies, and relies on
//! two disciplines that the data-structure code upholds: duplication only
//! copies a **lower** slot index into a **higher** one, and scans read slots in
//! ascending index order.  Together these close the window in which a scanning
//! thread could observe the old value of the destination slot after the source
//! slot was already overwritten (§3.2 of the paper).  This matches the
//! x86-TSO evaluation platform of the paper; the conservative alternative
//! (SeqCst `dup`) would reintroduce the memory barrier the unrolled traversal
//! is designed to avoid.

use crate::block::Retired;
use crate::limbo::{Handle, Pinned, RetireCore, Scheme};
use crate::ptr::{Atomic, Shared};
use crate::{Smr, SmrConfig, SmrError, SmrGuard, SmrHandle, SmrKind, MAX_HAZARDS};
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct HpSlot {
    hazards: [AtomicUsize; MAX_HAZARDS],
}

/// The hazard-pointer domain.  `snapshot_scan` in the configuration selects
/// between the paper's "HP" and "HPopt" variants.
pub struct Hp {
    core: RetireCore,
    slots: Box<[CachePadded<HpSlot>]>,
}

impl Smr for Hp {
    type Handle = HpHandle;

    fn new(config: SmrConfig) -> Arc<Self> {
        let core = RetireCore::new(config);
        let slots = (0..core.config().max_threads)
            .map(|_| {
                CachePadded::new(HpSlot {
                    hazards: std::array::from_fn(|_| AtomicUsize::new(0)),
                })
            })
            .collect();
        Arc::new(Self { core, slots })
    }

    fn try_register(self: &Arc<Self>) -> Result<HpHandle, SmrError> {
        Ok(HpHandle {
            inner: Handle::register(self)?,
        })
    }

    fn unreclaimed(&self) -> usize {
        self.core.unreclaimed()
    }

    fn kind(&self) -> SmrKind {
        if self.core.config().snapshot_scan {
            SmrKind::HpOpt
        } else {
            SmrKind::Hp
        }
    }
}

impl Hp {
    /// True if `addr` is currently published in any hazard slot: the
    /// per-record scan of the baseline (non-snapshot) sweep, one full pass
    /// over the hazard array per retired node.
    fn is_protected(&self, addr: usize) -> bool {
        for slot in self.core.claimed(&self.slots) {
            // Ascending index order; see the module documentation on `dup`.
            for h in &slot.hazards {
                if h.load(Ordering::SeqCst) == addr {
                    return true;
                }
            }
        }
        false
    }
}

// SAFETY: a retired node is unlinked, so a thread can only still dereference
// it if it published the node's address before the unlink and has not cleared
// it since.  `can_free` accepts an address only when it is absent from every
// claimed slot's hazards, read with SeqCst after the unlink — either from the
// sorted snapshot (HPopt) or by a full per-record scan (HP).  `neutralize`
// zeroes the slot's hazards; 0 is no address.
unsafe impl Scheme for Hp {
    /// HPopt: every published hazard, sorted.  HP: `None`, rescan per record.
    type Snapshot = Option<Vec<usize>>;

    #[inline]
    fn core(&self) -> &RetireCore {
        &self.core
    }

    #[inline]
    fn retire_stamp(&self) -> Option<u64> {
        None
    }

    fn snapshot(&self) -> Option<Vec<usize>> {
        self.core.config().snapshot_scan.then(|| {
            let mut snap: Vec<usize> = (self.core.claimed(&self.slots))
                .flat_map(|slot| slot.hazards.iter().map(|h| h.load(Ordering::SeqCst)))
                .filter(|&v| v != 0)
                .collect();
            snap.sort_unstable();
            snap.dedup();
            snap
        })
    }

    #[inline]
    fn can_free(&self, snapshot: &Option<Vec<usize>>, retired: &Retired) -> bool {
        match snapshot {
            Some(snap) => snap.binary_search(&retired.value).is_err(),
            None => !self.is_protected(retired.value),
        }
    }

    fn neutralize(&self, slot: usize) {
        for h in &self.slots[slot].hazards {
            h.store(0, Ordering::SeqCst);
        }
    }
}

/// Per-thread handle for [`Hp`].
pub struct HpHandle {
    inner: Handle<Hp>,
}

impl SmrHandle for HpHandle {
    type Guard<'g>
        = HpGuard<'g>
    where
        Self: 'g;

    fn pin(&mut self) -> HpGuard<'_> {
        let pinned = self.inner.pin();
        // Hazard pointers have no notion of a critical section: protection is
        // entirely per-pointer, so `pin` publishes nothing.
        HpGuard {
            hazards: &pinned.scheme().slots[pinned.slot()].hazards,
            pinned,
            used: 0,
            _thread_bound: std::marker::PhantomData,
        }
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// Critical-section guard for [`Hp`].
#[must_use = "dropping a guard unpublishes every protection it holds"]
pub struct HpGuard<'g> {
    pinned: Pinned<'g, Hp>,
    /// The handle's hazard array, resolved once at `pin`.
    hazards: &'g [AtomicUsize; MAX_HAZARDS],
    /// Makes the guard `!Send`/`!Sync`: a guard is the pinning thread's
    /// read-side critical section, and the slot registry's liveness beacon
    /// tracks exactly that thread (see [`crate::registry`]) -- a guard that
    /// crossed threads could see its protections neutralized when the
    /// pinning thread exits.
    _thread_bound: std::marker::PhantomData<*mut ()>,
    /// Bitmask of hazard slots this guard published; cleared on drop so a
    /// panicking operation releases its protections (RAII unwind safety).
    used: u8,
}

impl HpGuard<'_> {
    /// Clears every hazard this guard published.
    #[inline]
    fn unpublish(&mut self) {
        if self.used != 0 {
            for (idx, hazard) in self.hazards.iter().enumerate() {
                if self.used & (1 << idx) != 0 {
                    hazard.store(0, Ordering::Release);
                }
            }
            self.used = 0;
        }
    }
}

impl Drop for HpGuard<'_> {
    fn drop(&mut self) {
        self.unpublish();
    }
}

impl SmrGuard for HpGuard<'_> {
    #[inline]
    fn domain_addr(&self) -> usize {
        self.pinned.domain_addr()
    }

    #[inline]
    fn protect<T>(&mut self, idx: usize, src: &Atomic<T>) -> Shared<T> {
        // Figure 1 `protect`: publish, then verify the source still holds the
        // published pointer.  The hazard slot always stores the untagged
        // address ("also clear logical-deletion bits").
        self.used |= 1 << idx;
        let hazards = self.hazards;
        let mut published = usize::MAX;
        loop {
            let ptr = src.load(Ordering::Acquire);
            let addr = ptr.untagged().into_raw();
            if addr == published {
                return ptr;
            }
            hazards[idx].store(addr, Ordering::SeqCst);
            published = addr;
        }
    }

    #[inline]
    fn announce<T>(&mut self, idx: usize, ptr: Shared<T>) {
        self.used |= 1 << idx;
        self.hazards[idx].store(ptr.untagged().into_raw(), Ordering::SeqCst);
    }

    #[inline]
    fn dup(&mut self, from: usize, to: usize) {
        debug_assert!(
            from < to,
            "dup must copy a lower slot into a higher slot (paper §3.2)"
        );
        self.used |= 1 << to;
        let hazards = self.hazards;
        // ORDERING: Relaxed — `from` was last written by this same thread
        // (protect/announce), so the read needs no synchronization; the
        // Release store plus the lower-to-higher slot discipline and the
        // ascending-order scan close the publication window (module docs).
        let v = hazards[from].load(Ordering::Relaxed);
        hazards[to].store(v, Ordering::Release);
    }

    #[inline]
    fn clear(&mut self, idx: usize) {
        self.used &= !(1 << idx);
        self.hazards[idx].store(0, Ordering::Release);
    }

    #[inline]
    fn alloc<T: Send + 'static>(&mut self, value: T) -> Shared<T> {
        self.pinned.alloc(value)
    }

    // SAFETY: callers must guarantee every pointer in `batch` satisfies the
    // per-node `retire` contract (unlinked, owned, retired exactly once).
    #[inline]
    unsafe fn retire_batch<T: Send + 'static>(&mut self, batch: &[Shared<T>]) {
        // SAFETY: forwarded — same contract.
        unsafe { self.pinned.retire_batch(batch) };
    }

    // SAFETY: callers must guarantee `ptr` was never published to other threads.
    #[inline]
    unsafe fn dealloc<T>(&mut self, ptr: Shared<T>) {
        // SAFETY: forwarded — same contract.
        unsafe { self.pinned.dealloc(ptr) };
    }

    /// Hazard pointers have no epoch to elide, but a repin boundary is the
    /// moment the caller promises it holds no guard-derived references, so we
    /// unpublish everything — equivalent to drop + pin without re-running the
    /// registry owner check.
    #[inline]
    fn repin(&mut self) {
        self.unpublish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(snapshot: bool) -> SmrConfig {
        SmrConfig {
            max_threads: 4,
            scan_threshold: 8,
            snapshot_scan: snapshot,
            ..SmrConfig::default()
        }
    }

    #[test]
    fn kind_reflects_snapshot_mode() {
        assert_eq!(Hp::new(config(false)).kind(), SmrKind::Hp);
        assert_eq!(Hp::new(config(true)).kind(), SmrKind::HpOpt);
    }

    #[test]
    fn protect_publishes_untagged_address() {
        let d = Hp::new(config(false));
        let mut h = d.register();
        let mut g = h.pin();
        let p = g.alloc(9u64);
        let cell = Atomic::new(p.with_tag(1));
        let seen = g.protect(2, &cell);
        assert_eq!(seen.tag(), 1);
        assert_eq!(seen.untagged(), p);
        let published = d.slots[0].hazards[2].load(Ordering::SeqCst);
        assert_eq!(published, p.into_raw());
        // SAFETY: `p` was never published to another thread; only this guard's own hazard names it.
        unsafe { g.dealloc(p) };
    }

    #[test]
    fn protected_node_survives_scan() {
        for snapshot in [false, true] {
            let d = Hp::new(config(snapshot));
            let mut owner = d.register();
            let mut worker = d.register();
            // The owner keeps its guard (and thus hazard slot 0) alive across
            // the worker's retire storm.
            let mut og = owner.pin();
            let target = {
                let p = og.alloc(123u64);
                let cell = Atomic::new(p);
                let seen = og.protect(0, &cell);
                assert_eq!(seen, p);
                p
            };

            {
                let mut g = worker.pin();
                // SAFETY: the node was unlinked by this test and is retired exactly once.
                unsafe { g.retire(target) };
                for i in 0..64u64 {
                    let p = g.alloc(i);
                    // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
                    unsafe { g.retire(p) };
                }
            }
            worker.flush();
            // Everything except the protected node must be gone.
            assert_eq!(d.unreclaimed(), 1, "snapshot={snapshot}");

            // Dropping the guard releases the hazard (RAII unwind safety).
            drop(og);
            worker.flush();
            assert_eq!(d.unreclaimed(), 0, "snapshot={snapshot}");
        }
    }

    #[test]
    fn dup_keeps_protection_alive() {
        let d = Hp::new(config(true));
        let mut owner = d.register();
        let mut worker = d.register();
        let mut og = owner.pin();
        let p = {
            let p = og.alloc(5u64);
            let cell = Atomic::new(p);
            og.protect(0, &cell);
            og.dup(0, 3);
            og.clear(0);
            p
        };
        {
            let mut g = worker.pin();
            // SAFETY: the node was unlinked by this test and is retired exactly once.
            unsafe { g.retire(p) };
        }
        worker.flush();
        assert_eq!(d.unreclaimed(), 1, "slot 3 still protects the node");
        og.clear(3);
        worker.flush();
        assert_eq!(d.unreclaimed(), 0);
        drop(og);
    }

    #[test]
    fn guard_drop_clears_published_hazards() {
        let d = Hp::new(config(false));
        let mut h = d.register();
        let mut g = h.pin();
        let p = g.alloc(7u64);
        let cell = Atomic::new(p);
        g.protect(1, &cell);
        g.dup(1, 4);
        assert_ne!(d.slots[0].hazards[1].load(Ordering::SeqCst), 0);
        assert_ne!(d.slots[0].hazards[4].load(Ordering::SeqCst), 0);
        // SAFETY: `p` is unlinked; this guard's own hazards do not block its later reclamation.
        unsafe { g.retire(p) };
        // A cleared slot leaves the mask, so drop does not store to it again:
        // a value planted there afterwards survives the drop.
        g.clear(1);
        assert_eq!(g.used, 1 << 4);
        d.slots[0].hazards[1].store(usize::MAX, Ordering::SeqCst);
        drop(g);
        assert_eq!(d.slots[0].hazards[1].swap(0, Ordering::SeqCst), usize::MAX);
        for i in 0..MAX_HAZARDS {
            assert_eq!(
                d.slots[0].hazards[i].load(Ordering::SeqCst),
                0,
                "hazard {i} must be cleared by guard drop"
            );
        }
        h.flush();
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn repin_unpublishes_every_hazard() {
        let d = Hp::new(config(false));
        let mut h = d.register();
        let mut g = h.pin();
        let p = g.alloc(11u64);
        let cell = Atomic::new(p);
        g.protect(1, &cell);
        g.dup(1, 5);
        assert_ne!(d.slots[0].hazards[1].load(Ordering::SeqCst), 0);
        assert_ne!(d.slots[0].hazards[5].load(Ordering::SeqCst), 0);
        g.repin();
        for i in 0..MAX_HAZARDS {
            assert_eq!(
                d.slots[0].hazards[i].load(Ordering::SeqCst),
                0,
                "hazard {i} must be unpublished by repin"
            );
        }
        // The guard is still usable after repin.
        let seen = g.protect(0, &cell);
        assert_eq!(seen, p);
        g.clear(0);
        // SAFETY: `p` is unlinked and no hazard names it any more.
        unsafe { g.retire(p) };
        drop(g);
        h.flush();
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn retire_batch_reclaims_like_per_node_retire() {
        for snapshot in [false, true] {
            crate::tests::retire_batch_reclaims_like_per_node_retire::<Hp>(config(snapshot), 48, 1);
        }
    }

    #[test]
    fn leaked_handle_on_dead_thread_is_adopted() {
        // Adoption must clear the dead thread's published hazard.
        for snapshot in [false, true] {
            crate::tests::leaked_handle_on_dead_thread_is_adopted::<Hp>(
                config(snapshot),
                1,
                true,
                1,
            );
        }
    }

    #[test]
    fn moved_handle_survives_registrant_death() {
        // The use-after-free scenario from the moved-handle report: a handle
        // is registered on thread A, moved to this thread, and A exits.  The
        // first pin here re-binds the slot's beacon to this (live) thread, so
        // a reclaiming peer must NOT adopt the slot and must keep honouring
        // the hazards this thread publishes through the moved handle.
        for snapshot in [false, true] {
            let d = Hp::new(config(snapshot));
            let mut moved = {
                let d = d.clone();
                std::thread::spawn(move || d.register()).join().unwrap()
            };
            // Registrant is dead; pin from here before anyone adopts.
            let mut g = moved.pin();
            let target = {
                let p = g.alloc(77u64);
                let cell = Atomic::new(p);
                let seen = g.protect(0, &cell);
                assert_eq!(seen, p);
                p
            };
            // A peer retires the protected node plus a storm of garbage and
            // sweeps (which also attempts orphan adoption).  Without pin-time
            // re-binding this would adopt our slot, wipe hazard 0, and free
            // `target` while we still hold a reference to it.
            let mut worker = d.register();
            {
                let mut wg = worker.pin();
                // SAFETY: the node was unlinked by this test and is retired exactly once.
                unsafe { wg.retire(target) };
                for i in 0..64u64 {
                    let p = wg.alloc(i);
                    // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
                    unsafe { wg.retire(p) };
                }
            }
            worker.flush();
            assert_eq!(
                d.unreclaimed(),
                1,
                "protected node must survive adoption attempts \
                 (snapshot={snapshot})"
            );
            // SAFETY: the published hazard pins `target`, so the read cannot race reclamation.
            unsafe { assert_eq!(*target.as_ptr(), 77, "snapshot={snapshot}") };
            drop(g);
            worker.flush();
            assert_eq!(d.unreclaimed(), 0, "snapshot={snapshot}");
        }
    }

    #[test]
    #[should_panic(expected = "slot was adopted")]
    fn moved_handle_pin_after_adoption_panics() {
        // The lossy window: the handle moved off the registering thread and
        // that thread died BEFORE the handle's first pin here.  A survivor
        // adopts the slot; the handle's next pin must panic, not publish
        // hazards into the recycled slot.
        let d = Hp::new(config(false));
        let mut moved = {
            let d = d.clone();
            std::thread::spawn(move || d.register()).join().unwrap()
        };
        let mut survivor = d.register();
        survivor.flush(); // adopts the orphaned slot
        let _ = moved.pin();
    }

    #[test]
    fn bounded_memory_with_stalled_reader() {
        // Theorem 1: HP keeps at most H*N + N*R unreclaimed nodes even with a
        // stalled thread holding protections forever.
        let cfg = config(true);
        let d = Hp::new(cfg.clone());
        let mut stalled = d.register();
        let mut worker = d.register();
        let mut sg = stalled.pin();
        {
            let p = sg.alloc(u64::MAX);
            let cell = Atomic::new(p);
            sg.protect(0, &cell);
            // never cleared: the guard stays alive for the whole test
        }
        for i in 0..4096u64 {
            let mut g = worker.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        worker.flush();
        let bound = MAX_HAZARDS * cfg.max_threads + cfg.max_threads * cfg.scan_threshold;
        assert!(
            d.unreclaimed() <= bound,
            "unreclaimed {} exceeds the Theorem 1 bound {}",
            d.unreclaimed(),
            bound
        );
        drop(sg);
    }

    #[test]
    fn concurrent_retires_all_reclaimed_when_unprotected() {
        for snapshot in [false, true] {
            let d = Hp::new(SmrConfig {
                max_threads: 8,
                scan_threshold: 32,
                snapshot_scan: snapshot,
                ..SmrConfig::default()
            });
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let d = d.clone();
                    s.spawn(move || {
                        let mut h = d.register();
                        for i in 0..500u64 {
                            let mut g = h.pin();
                            let p = g.alloc(i);
                            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
                            unsafe { g.retire(p) };
                        }
                        h.flush();
                    });
                }
            });
            assert_eq!(d.unreclaimed(), 0, "snapshot={snapshot}");
        }
    }
}
