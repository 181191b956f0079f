//! HE — hazard eras (Ramalhete & Correia 2017).
//!
//! Hazard eras replace the pointer published by a hazard slot with a logical
//! timestamp (an *era*).  Every allocation stamps the object's birth era and
//! every retirement stamps its retire era; a retired object may be reclaimed
//! once no thread holds a reservation era `e` with
//! `birth_era <= e <= retire_era`.
//!
//! The per-slot structure mirrors HP (one reservation per traversal role), so
//! the SCOT data structures use the exact same `protect`/`dup` call sites; the
//! difference is that publishing an era amortizes across every object alive in
//! that era, which removes most of HP's per-pointer memory barriers.
//!
//! The `snapshot_scan` configuration flag selects the same scan optimization
//! as HPopt: collect all reservation eras once per sweep instead of rescanning
//! the global array per retired node (reported as "HE (opt)" style results in
//! the paper's calibration; both variants are exposed for the ablation bench).
//! The sweep itself, like everything else after `retire`, is the shared
//! retire core ([`crate::limbo`]).

use crate::block::Retired;
use crate::limbo::{Domain, Guard, ReadSide, RetireCore, Scheme};
use crate::ptr::{Atomic, Shared};
use crate::{SmrKind, MAX_HAZARDS};
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Reservation value meaning "no era reserved"; 0, so a default slot
/// reserves nothing.
const NONE: u64 = 0;
/// First era handed out; birth eras are always `>= FIRST_ERA`, so `NONE` can
/// never be mistaken for a real reservation.
const FIRST_ERA: u64 = 1;

/// One thread's era reservations, one per hazard index; the default
/// reserves [`NONE`].
#[derive(Default)]
pub struct HeSlot {
    eras: [AtomicU64; MAX_HAZARDS],
}

/// The hazard-eras domain.
pub struct He {
    core: RetireCore<HeSlot>,
    global_era: CachePadded<AtomicU64>,
}

impl He {
    /// True if any thread reserves an era inside `[birth, retire]`: the
    /// per-record scan of the baseline (non-snapshot) sweep.  A function of
    /// its own on purpose — inlined into the sweep's `retain` closure the
    /// eight-era inner loop measured a quarter slower.
    fn is_protected(&self, birth: u64, retire: u64) -> bool {
        for slot in self.core.claimed() {
            for e in &slot.eras {
                let v = e.load(Ordering::SeqCst);
                if v != NONE && birth <= v && v <= retire {
                    return true;
                }
            }
        }
        false
    }
}

impl Domain for He {
    const KIND: SmrKind = SmrKind::He;
    type Slot = HeSlot;

    fn build(core: RetireCore<HeSlot>) -> Self {
        Self {
            core,
            global_era: CachePadded::new(AtomicU64::new(FIRST_ERA)),
        }
    }

    #[inline]
    fn core(&self) -> &RetireCore<HeSlot> {
        &self.core
    }

    #[inline]
    fn clock(&self) -> Option<&AtomicU64> {
        Some(&self.global_era)
    }

    fn neutralize(&self, slot: usize) {
        for e in &self.core.reservation(slot).eras {
            e.store(NONE, Ordering::SeqCst);
        }
    }
}

// SAFETY: a reader dereferences a node only under a reservation of an era in
// which the node was reachable, i.e. an era inside `[birth, retire]`.
// `can_free` accepts a record only when no claimed slot reserves an era in
// that interval, read with SeqCst after the node was unlinked — from the
// sorted snapshot (HEopt) or by a full per-record scan (HE).  `neutralize`
// stores `NONE`, which is below every birth era.
unsafe impl Scheme for He {
    /// HEopt: every reserved era, sorted.  HE: `None`, rescan per record.
    type Snapshot = Option<Vec<u64>>;

    #[inline]
    fn retire_stamp(&self) -> Option<u64> {
        // ORDERING: Relaxed — per-location coherence keeps the read no older
        // than any era this thread already observed, and an old retire stamp
        // only delays reclamation.  The stamp is read by the vault's owner,
        // or after the owner/adopter hand-off (`crate::limbo` docs).
        Some(self.global_era.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> Option<Vec<u64>> {
        self.core.config().snapshot_scan.then(|| {
            let mut snap: Vec<u64> = (self.core.claimed())
                .flat_map(|slot| slot.eras.iter().map(|e| e.load(Ordering::SeqCst)))
                .filter(|&e| e != NONE)
                .collect();
            snap.sort_unstable();
            snap
        })
    }

    #[inline]
    fn can_free(&self, snapshot: &Option<Vec<u64>>, retired: &Retired) -> bool {
        let (birth, retire) = (retired.birth_era(), retired.retire_era());
        match snapshot {
            // The first snapshot entry >= birth, if any, decides.
            Some(snap) => snap
                .get(snap.partition_point(|&e| e < birth))
                .is_none_or(|&e| e > retire),
            None => !self.is_protected(birth, retire),
        }
    }
}

impl ReadSide for He {
    type State = ();

    /// Reservations are per pointer: `pin` publishes nothing.
    #[inline]
    fn enter(&self, _slot: &HeSlot) {}

    #[inline]
    fn exit(g: &mut Guard<'_, Self>) {
        // Clearing reservations at the end of every operation is what bounds
        // the set of protected eras (and thus memory) per thread.
        for e in &g.slot().eras {
            e.store(NONE, Ordering::Release);
        }
    }

    #[inline]
    fn protect<T>(g: &mut Guard<'_, Self>, idx: usize, src: &Atomic<T>) -> Shared<T> {
        let (eras, global) = (&g.slot().eras, &g.scheme().global_era);
        // ORDERING: Relaxed — the slot was last written by this same thread
        // (reservations are single-writer); the value is only an avoid-a-store
        // hint, and any actual (re)publication below uses SeqCst.
        let mut reserved = eras[idx].load(Ordering::Relaxed);
        loop {
            let ptr = src.load(Ordering::Acquire);
            let era = global.load(Ordering::SeqCst);
            if era == reserved {
                return ptr;
            }
            eras[idx].store(era, Ordering::SeqCst);
            reserved = era;
        }
    }

    #[inline]
    fn announce<T>(g: &mut Guard<'_, Self>, idx: usize, _ptr: Shared<T>) {
        // Protection is temporal: reserving the current era covers every
        // object alive in it, including `_ptr`.
        let era = g.scheme().global_era.load(Ordering::SeqCst);
        g.slot().eras[idx].store(era, Ordering::SeqCst);
    }

    #[inline]
    fn dup(g: &mut Guard<'_, Self>, from: usize, to: usize) {
        debug_assert!(from < to, "dup must copy a lower slot into a higher slot");
        let eras = &g.slot().eras;
        // ORDERING: Relaxed read — `from` was last written by this same
        // thread.  The Release store plus the lower-to-higher slot discipline
        // and ascending-order scans close the publication window, exactly as
        // for HP's `dup` (see the hp module docs).
        let v = eras[from].load(Ordering::Relaxed);
        eras[to].store(v, Ordering::Release);
    }

    #[inline]
    fn clear(g: &mut Guard<'_, Self>, idx: usize) {
        g.slot().eras[idx].store(NONE, Ordering::Release);
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
        assert_eq!(He::new(config(false)).kind(), SmrKind::He);
        assert_eq!(He::new(config(true)).kind(), SmrKind::HeOpt);
    }

    #[test]
    #[expect(
        clippy::mem_forget,
        reason = "a stalled thread: the leaked guard keeps its era reservation"
    )]
    fn era_reservation_protects_objects_alive_in_it() {
        for snapshot in [false, true] {
            let d = He::new(config(snapshot));
            let mut owner = d.register();
            let mut worker = d.register();

            // Owner reserves the current era while an object born in it is
            // retired by the worker.
            let target = {
                let mut g = owner.pin();
                let p = g.alloc(77u64);
                let cell = Atomic::new(p);
                let seen = g.protect(0, &cell);
                assert_eq!(seen, p);
                // Keep the reservation alive past the guard by re-announcing
                // in a fresh guard below.
                p
            };
            {
                let mut g = owner.pin();
                g.announce(0, target);
                core::mem::forget(g); // simulate a stalled thread holding the reservation
            }
            {
                let mut g = worker.pin();
                // SAFETY: the node was unlinked by this test and is retired exactly once.
                unsafe { g.retire(target) };
            }
            worker.flush();
            assert_eq!(d.unreclaimed(), 1, "snapshot={snapshot}");

            // Clear the stalled reservation; now it can go.
            for e in &d.core.reservation(0).eras {
                e.store(NONE, Ordering::SeqCst);
            }
            worker.flush();
            assert_eq!(d.unreclaimed(), 0, "snapshot={snapshot}");
        }
    }

    #[test]
    #[expect(
        clippy::mem_forget,
        reason = "a stalled thread: the leaked guard keeps its era reservation"
    )]
    fn unrelated_eras_do_not_block_reclamation() {
        let d = He::new(config(true));
        let mut stalled = d.register();
        let mut worker = d.register();
        // Stalled thread reserves an old era.
        {
            let mut g = stalled.pin();
            let p = g.alloc(0u64);
            let cell = Atomic::new(p);
            g.protect(0, &cell);
            core::mem::forget(g);
            // SAFETY: `p` is test-local; the leaked reservation is exactly what this test exercises.
            unsafe {
                let mut g2 = worker.pin();
                g2.retire(p);
            }
        }
        // Advance eras well past the stalled reservation and retire younger
        // nodes: they must all be reclaimable despite the stalled thread.
        for i in 0..512u64 {
            let mut g = worker.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        worker.flush();
        assert!(
            d.unreclaimed() < 64,
            "HE must reclaim nodes born after a stalled reservation (got {})",
            d.unreclaimed()
        );
    }

    #[test]
    fn eras_advance_with_allocation_frequency() {
        let d = He::new(config(false));
        let mut h = d.register();
        let before = d.global_era.load(Ordering::SeqCst);
        {
            let mut g = h.pin();
            for i in 0..64u64 {
                let p = g.alloc(i);
                // SAFETY: `p` was never published; dealloc is the owner's fast path.
                unsafe { g.dealloc(p) };
            }
        }
        let after = d.global_era.load(Ordering::SeqCst);
        assert!(
            after > before,
            "era should advance every epoch_freq allocations"
        );
    }

    #[test]
    fn leaked_handle_on_dead_thread_is_adopted() {
        // Adoption must clear the dead thread's era reservation.
        crate::tests::leaked_handle_on_dead_thread_is_adopted::<He>(config(true), 1, true, 1);
    }

    #[test]
    fn retire_batch_reclaims_like_per_node_retire() {
        for snapshot in [false, true] {
            crate::tests::retire_batch_reclaims_like_per_node_retire::<He>(config(snapshot), 48, 1);
        }
    }

    #[test]
    fn guard_drop_clears_reservations() {
        let d = He::new(config(false));
        let mut h = d.register();
        {
            let mut g = h.pin();
            let p = g.alloc(1u64);
            let cell = Atomic::new(p);
            g.protect(0, &cell);
            g.protect(3, &cell);
            // SAFETY: `p` was never shared with another thread; only this guard's own reservations name it.
            unsafe { g.dealloc(p) };
        }
        for e in &d.core.reservation(0).eras {
            assert_eq!(e.load(Ordering::SeqCst), NONE);
        }
    }

    #[test]
    fn retire_cadence_is_batch_invariant() {
        crate::tests::retire_cadence_is_batch_invariant::<He>(|d| {
            d.global_era.load(Ordering::SeqCst)
        });
    }
}
