//! IBR — interval-based reclamation (Wen et al. 2018), 2GEIBR variant.
//!
//! Instead of one reservation per traversal role (HP/HE), each thread
//! maintains a single *interval* `[lower, upper]` of eras: `lower` is set when
//! the operation begins and `upper` is extended to the current era every time
//! a pointer is read.  A retired object is reclaimable once no thread's
//! interval overlaps the object's lifetime `[birth_era, retire_era]`.
//!
//! Because protection is attached to the operation rather than to individual
//! pointers, `dup`, `announce` and `clear` are no-ops and the hazard-slot
//! indices passed by data structures are ignored — this is the "simpler
//! programming model" the paper credits IBR with (§2.2.4).  The safety
//! contract is the same as for HP/HE: data structures must not traverse past
//! physically-unlinked nodes, which is exactly what SCOT validation (or the
//! Harris-Michael eager unlink) guarantees.  Everything after `retire` is the
//! shared retire core ([`crate::limbo`]).

use crate::block::Retired;
use crate::limbo::{protect_era, publish_era, Domain, Guard, ReadSide, RetireCore, Scheme};
use crate::ptr::{Atomic, Shared};
use crate::SmrKind;
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// First era handed out.
const FIRST_ERA: u64 = 1;

/// One thread's era interval.
pub struct IbrSlot {
    /// Era at the start of the current operation; `u64::MAX` when inactive.
    lower: AtomicU64,
    /// Most recent era observed during the current operation; `0` when
    /// inactive, so the empty interval `[MAX, 0]` overlaps nothing.
    upper: AtomicU64,
}

impl IbrSlot {
    /// Deactivates the interval: `[MAX, 0]` overlaps nothing.
    #[inline]
    fn deactivate(&self, order: Ordering) {
        self.lower.store(u64::MAX, order);
        self.upper.store(0, order);
    }
}

/// The empty interval `[MAX, 0]`.
impl Default for IbrSlot {
    fn default() -> Self {
        Self {
            lower: AtomicU64::new(u64::MAX),
            upper: AtomicU64::new(0),
        }
    }
}

/// The interval-based reclamation domain.
pub struct Ibr {
    core: RetireCore<IbrSlot>,
    global_era: CachePadded<AtomicU64>,
}

impl Ibr {
    /// The `(lower, upper)` interval of every claimed slot.
    fn intervals(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.core.claimed().map(|slot| {
            (
                slot.lower.load(Ordering::SeqCst),
                slot.upper.load(Ordering::SeqCst),
            )
        })
    }
}

impl Domain for Ibr {
    const KIND: SmrKind = SmrKind::Ibr;
    type Slot = IbrSlot;

    fn build(core: RetireCore<IbrSlot>) -> Self {
        Self {
            core,
            global_era: CachePadded::new(AtomicU64::new(FIRST_ERA)),
        }
    }

    #[inline]
    fn core(&self) -> &RetireCore<IbrSlot> {
        &self.core
    }

    #[inline]
    fn clock(&self) -> Option<&AtomicU64> {
        Some(&self.global_era)
    }

    fn neutralize(&self, slot: usize) {
        self.core.reservation(slot).deactivate(Ordering::SeqCst);
    }
}

// SAFETY: a reader's interval `[lower, upper]` covers every era in which it
// loaded a pointer, so it can hold a reference to a node only if its interval
// overlaps the node's lifetime `[birth, retire]`.  `can_free` accepts a record
// only when no claimed slot's interval overlaps, read with SeqCst after the
// node was retired — from the snapshot (IBRopt) or by a per-record scan
// (IBR).  `neutralize` stores the empty interval `[MAX, 0]`.
unsafe impl Scheme for Ibr {
    /// IBRopt: every active interval.  IBR: `None`, rescan per record.
    type Snapshot = Option<Vec<(u64, u64)>>;

    #[inline]
    fn retire_stamp(&self) -> Option<u64> {
        // ORDERING: Relaxed — a read can only lag the true era, and a lagging
        // retire stamp at worst delays reclamation by one interval check.
        // The stamp is read by the vault's owner, or after the owner/adopter
        // hand-off (`crate::limbo` docs).
        Some(self.global_era.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> Option<Vec<(u64, u64)>> {
        (self.core.config().snapshot_scan)
            .then(|| self.intervals().filter(|(lo, hi)| lo <= hi).collect())
    }

    #[inline]
    fn can_free(&self, snapshot: &Option<Vec<(u64, u64)>>, retired: &Retired) -> bool {
        let (birth, retire) = (retired.birth_era(), retired.retire_era());
        let overlaps = |(lo, hi): (u64, u64)| birth <= hi && retire >= lo;
        match snapshot {
            Some(snap) => !snap.iter().copied().any(overlaps),
            None => !self.intervals().any(overlaps),
        }
    }
}

/// The guard's state is a local copy of the published `upper`, sparing
/// `protect` an atomic load on the fast path.
impl ReadSide for Ibr {
    type State = u64;

    #[inline]
    fn enter(&self, slot: &IbrSlot) -> u64 {
        let era = self.global_era.load(Ordering::SeqCst);
        slot.upper.store(era, Ordering::SeqCst);
        slot.lower.store(era, Ordering::SeqCst);
        era
    }

    #[inline]
    fn exit(g: &mut Guard<'_, Self>) {
        g.slot().deactivate(Ordering::Release);
    }

    /// The interval is extended *before* the pointer is re-read, so any
    /// pointer returned was loaded under an already-published upper bound
    /// covering its birth era.
    #[inline]
    fn protect<T>(g: &mut Guard<'_, Self>, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        let (global, upper) = (&g.scheme().global_era, &g.slot().upper);
        protect_era(src, global, upper, &mut g.state)
    }

    #[inline]
    fn announce<T>(g: &mut Guard<'_, Self>, _idx: usize, _ptr: Shared<T>) {
        publish_era(&g.scheme().global_era, &g.slot().upper, &mut g.state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Smr, SmrConfig, SmrGuard, SmrHandle};

    fn config(snapshot: bool) -> SmrConfig {
        SmrConfig {
            max_threads: 4,
            scan_threshold: 8,
            epoch_freq_per_thread: 1,
            snapshot_scan: snapshot,
            ..SmrConfig::default()
        }
    }

    #[test]
    fn kind_reflects_snapshot_mode() {
        assert_eq!(Ibr::new(config(false)).kind(), SmrKind::Ibr);
        assert_eq!(Ibr::new(config(true)).kind(), SmrKind::IbrOpt);
    }

    #[test]
    #[expect(
        clippy::mem_forget,
        reason = "a stalled reader: the leaked guard keeps its interval"
    )]
    fn active_interval_protects_overlapping_lifetimes() {
        for snapshot in [false, true] {
            let d = Ibr::new(config(snapshot));
            let mut reader = d.register();
            let mut worker = d.register();

            let target = {
                let mut g = worker.pin();
                g.alloc(5u64)
            };
            let cell = Atomic::new(target);

            // Reader starts an operation overlapping the target's lifetime and
            // stalls inside it.
            {
                let mut g = reader.pin();
                let seen = g.protect(0, &cell);
                assert_eq!(seen, target);
                core::mem::forget(g);
            }
            {
                let mut g = worker.pin();
                // SAFETY: the node was unlinked by this test and is retired exactly once.
                unsafe { g.retire(target) };
            }
            worker.flush();
            assert_eq!(d.unreclaimed(), 1, "snapshot={snapshot}");

            // Simulate the reader finally finishing its operation.
            d.core
                .reservation(0)
                .lower
                .store(u64::MAX, Ordering::SeqCst);
            d.core.reservation(0).upper.store(0, Ordering::SeqCst);
            worker.flush();
            assert_eq!(d.unreclaimed(), 0, "snapshot={snapshot}");
        }
    }

    #[test]
    #[expect(
        clippy::mem_forget,
        reason = "a stalled thread: the leaked guard keeps its interval"
    )]
    fn nodes_born_after_a_stalled_interval_are_reclaimable() {
        let d = Ibr::new(config(true));
        let mut stalled = d.register();
        let mut worker = d.register();
        {
            let g = stalled.pin();
            core::mem::forget(g);
        }
        // Advance the era and churn nodes that are born strictly after the
        // stalled thread's (frozen) upper bound: these must be reclaimed.
        for i in 0..512u64 {
            let mut g = worker.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        worker.flush();
        assert!(
            d.unreclaimed() < 64,
            "IBR must reclaim nodes born after a stalled interval (got {})",
            d.unreclaimed()
        );
    }

    #[test]
    fn leaked_handle_on_dead_thread_is_adopted() {
        // Adoption must collapse the dead thread's still-active interval.
        crate::tests::leaked_handle_on_dead_thread_is_adopted::<Ibr>(config(true), 1, true, 1);
    }

    #[test]
    fn guard_drop_deactivates_interval() {
        let d = Ibr::new(config(false));
        let mut h = d.register();
        {
            let _g = h.pin();
            assert!(
                d.core.reservation(0).lower.load(Ordering::SeqCst)
                    <= d.core.reservation(0).upper.load(Ordering::SeqCst)
            );
        }
        assert_eq!(d.core.reservation(0).lower.load(Ordering::SeqCst), u64::MAX);
        assert_eq!(d.core.reservation(0).upper.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn repin_collapses_a_stretched_interval() {
        // "repin" in the name now means the batch edge: drop + pin.
        let d = Ibr::new(config(false));
        let mut h = d.register();
        let mut g = h.pin();
        let lower_at_pin = d.core.reservation(0).lower.load(Ordering::SeqCst);
        // Stretch the interval: advance the era, then observe it via protect.
        d.global_era.fetch_add(3, Ordering::SeqCst);
        let p = g.alloc(1u64);
        let cell = Atomic::new(p);
        g.protect(0, &cell);
        assert!(d.core.reservation(0).upper.load(Ordering::SeqCst) > lower_at_pin);
        assert_eq!(
            d.core.reservation(0).lower.load(Ordering::SeqCst),
            lower_at_pin
        );
        drop(g);
        let mut g = h.pin();
        let era = d.global_era.load(Ordering::SeqCst);
        assert_eq!(d.core.reservation(0).lower.load(Ordering::SeqCst), era);
        assert_eq!(d.core.reservation(0).upper.load(Ordering::SeqCst), era);
        // SAFETY: `p` was never published to another thread.
        unsafe { g.dealloc(p) };
    }

    #[test]
    fn guard_held_across_repins_does_not_freeze_reclamation() {
        // "repin" in the name now means the batch edge: drop + pin every 16
        // worker retires.
        let d = Ibr::new(config(true));
        let mut holder = d.register();
        let mut worker = d.register();
        let mut g = holder.pin();
        for i in 0..512u64 {
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
            d.unreclaimed() < 64,
            "re-pinning at batch edges must keep the interval narrow (got {})",
            d.unreclaimed()
        );
        drop(g);
    }

    #[test]
    fn retire_batch_reclaims_like_per_node_retire() {
        for snapshot in [false, true] {
            crate::tests::retire_batch_reclaims_like_per_node_retire::<Ibr>(
                config(snapshot),
                48,
                1,
            );
        }
    }

    #[test]
    fn everything_reclaimed_after_quiescence() {
        let d = Ibr::new(config(true));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let d = d.clone();
                s.spawn(move || {
                    let mut h = d.register();
                    for i in 0..1000u64 {
                        let mut g = h.pin();
                        let p = g.alloc(i);
                        // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
                        unsafe { g.retire(p) };
                    }
                    h.flush();
                });
            }
        });
        let mut h = d.register();
        h.flush();
        drop(h);
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn retire_cadence_is_batch_invariant() {
        crate::tests::retire_cadence_is_batch_invariant::<Ibr>(|d| {
            d.global_era.load(Ordering::SeqCst)
        });
    }
}
