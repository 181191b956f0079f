//! NBR — neutralization-based reclamation (Brown's DEBRA+ line), cooperative
//! variant.
//!
//! Like EBR, every operation publishes an era (its *checkpoint*) and a retired
//! node is reclaimable once every active thread's checkpoint is two eras past
//! its retirement.  Unlike EBR, the global era does not wait for laggards:
//! when a sweep finds the minimum checkpoint blocking its limbo list, it bumps
//! the global era and raises a per-thread *neutralize* flag on every lagging
//! reader.  A cooperative reader polls the flag through
//! [`SmrGuard::needs_restart`] at restart-safe points of its traversal (the
//! `scot` cursor does this), acknowledges with [`SmrGuard::checkpoint`] —
//! which discards all of its protections and re-announces the current era —
//! and restarts from the structure root.  The minimum checkpoint then rises
//! and the blocked sweep succeeds.
//!
//! DEBRA+ neutralizes readers *preemptively* with a POSIX signal, which makes
//! it robust against stalled threads.  Signals cannot restart a Rust
//! traversal safely (the paper's own artifact confines them to setjmp-style
//! recovery code), so this variant is cooperative: safety is carried entirely
//! by the published checkpoint eras, and the flag is only a progress
//! accelerator.  A reader that never polls keeps its checkpoint pinned and
//! blocks reclamation exactly like a stalled EBR reader — which is why
//! [`SmrKind::is_robust`] reports `false` for NBR.
//!
//! Everything after `retire` is the shared retire core ([`crate::limbo`]);
//! the neutralization step is its still-blocked hook.
//!
//! [`SmrGuard::needs_restart`]: crate::SmrGuard::needs_restart
//! [`SmrGuard::checkpoint`]: crate::SmrGuard::checkpoint

use crate::block::Retired;
use crate::limbo::{announce_confirmed, Domain, Guard, ReadSide, RetireCore, Scheme};
use crate::ptr::{Atomic, Shared};
use crate::SmrKind;
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Checkpoint value meaning "not in a critical section"; 0, so a default
/// slot is inactive.
const INACTIVE: u64 = 0;
/// First valid era; starting above `INACTIVE + 2` keeps the "retire era + 2"
/// comparison free of underflow special cases.
const FIRST_ERA: u64 = 4;

/// One thread's checkpoint and neutralize request; the default is
/// [`INACTIVE`], no request.
#[derive(Default)]
pub struct NbrSlot {
    /// Era announced by the slot's owner at pin/checkpoint, or [`INACTIVE`].
    checkpoint: AtomicU64,
    /// Raised by a blocked sweep to ask the owner to checkpoint; cleared by
    /// the owner when it does (or when it pins afresh).
    neutralize: AtomicBool,
}

/// The neutralization-based reclamation domain.
pub struct Nbr {
    core: RetireCore<NbrSlot>,
    global_era: CachePadded<AtomicU64>,
    /// Total neutralize flags raised by blocked sweeps (monotonic; a
    /// diagnostic mirror of how often reclamation had to push readers).
    neutralizations: AtomicU64,
}

impl Nbr {
    /// The checkpoint era of every slot inside a critical section.
    fn active_checkpoints(&self) -> impl Iterator<Item = (&NbrSlot, u64)> + '_ {
        self.core
            .claimed()
            .map(|slot| (slot, slot.checkpoint.load(Ordering::SeqCst)))
            .filter(|&(_, c)| c != INACTIVE)
    }

    /// The neutralization step: bumps the global era and raises the
    /// neutralize flag on every active reader still checkpointed below it.
    /// Called when a sweep leaves its limbo list blocked — i.e. exactly when
    /// lagging readers are what blocks reclamation.
    fn neutralize_laggards(&self) {
        let era = self.global_era.fetch_add(1, Ordering::SeqCst) + 1;
        let raised = self
            .active_checkpoints()
            .filter(|&(slot, c)| c < era && !slot.neutralize.swap(true, Ordering::AcqRel))
            .count() as u64;
        if raised > 0 {
            // ORDERING: Relaxed — a monotonic statistics counter read only by
            // the diagnostic accessor; no other memory depends on it.
            self.neutralizations.fetch_add(raised, Ordering::Relaxed);
        }
    }

    /// Publishes the current global era as the checkpoint of `slot`,
    /// confirming it is still current, and clears a pending neutralize flag —
    /// the shared body of `pin` and `checkpoint`.
    fn announce_checkpoint(&self, slot: &NbrSlot) {
        // ORDERING: Relaxed — the flag is a progress hint, not a safety
        // signal; clearing it late at worst triggers one redundant restart.
        slot.neutralize.store(false, Ordering::Relaxed);
        announce_confirmed(&self.global_era, &slot.checkpoint);
    }

    /// Total neutralize flags raised so far (diagnostic).
    pub fn neutralizations(&self) -> u64 {
        // ORDERING: Relaxed — statistics read, see `neutralize_laggards`.
        self.neutralizations.load(Ordering::Relaxed)
    }
}

impl Domain for Nbr {
    const KIND: SmrKind = SmrKind::Nbr;
    type Slot = NbrSlot;

    fn build(core: RetireCore<NbrSlot>) -> Self {
        Self {
            core,
            global_era: CachePadded::new(AtomicU64::new(FIRST_ERA)),
            neutralizations: AtomicU64::new(0),
        }
    }

    #[inline]
    fn core(&self) -> &RetireCore<NbrSlot> {
        &self.core
    }

    fn neutralize(&self, slot: usize) {
        let slot = self.core.reservation(slot);
        slot.checkpoint.store(INACTIVE, Ordering::SeqCst);
        // ORDERING: Relaxed — the flag is advisory (a progress hint, never a
        // safety signal) and the old owner will never poll it again; the
        // registry's release/adoption publishes it to the next claimant.
        slot.neutralize.store(false, Ordering::Relaxed);
    }
}

// SAFETY: a reader checkpointed at era `C` can only reach nodes retired at
// `C - 1` or later (anything older was unlinked before the reader announced
// `C`), so `retire + 2 <= C` leaves one era of slack — the same grace
// argument as EBR, with the quiescence check moved from the epoch-advance
// path to the sweep itself.  `can_free` demands it of the minimum checkpoint
// over all active slots, read with SeqCst after the block was retired
// (`u64::MAX` when no thread is inside a critical section).  `neutralize`
// stores `INACTIVE`, the checkpoint of no critical section.
unsafe impl Scheme for Nbr {
    /// Minimum checkpoint era over all active slots.
    type Snapshot = u64;

    #[inline]
    fn retire_stamp(&self) -> Option<u64> {
        // ORDERING: Relaxed — the read can only lag the true era, stamping
        // the retirement conservatively early; at worst that delays
        // reclamation by one sweep.
        Some(self.global_era.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> u64 {
        self.active_checkpoints()
            .map(|(_, c)| c)
            .min()
            .unwrap_or(u64::MAX)
    }

    #[inline]
    fn can_free(&self, min: &u64, retired: &Retired) -> bool {
        retired.retire_era().saturating_add(2) <= *min
    }

    /// A forced flush is the impatient path: move the era first so entries
    /// retired at the current one can age out.
    fn before_scan(&self, force: bool) {
        if force {
            self.global_era.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Readers are what blocks the sweep: neutralize them and retry once —
    /// flags raised now typically pay off at the *next* scan, but a domain
    /// that went quiescent meanwhile drains immediately.
    fn still_blocked(&self) -> bool {
        self.neutralize_laggards();
        true
    }
}

impl ReadSide for Nbr {
    type State = ();

    #[inline]
    fn enter(&self, slot: &NbrSlot) {
        self.announce_checkpoint(slot);
    }

    #[inline]
    fn exit(g: &mut Guard<'_, Self>) {
        g.slot().checkpoint.store(INACTIVE, Ordering::Release);
    }

    #[inline]
    fn protect<T>(_: &mut Guard<'_, Self>, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        // The checkpoint era announced at pin (or at the last `checkpoint`
        // call) protects everything reachable; per-pointer work is
        // unnecessary, exactly as under EBR.
        src.load(Ordering::Acquire)
    }

    #[inline]
    fn announce<T>(_: &mut Guard<'_, Self>, _idx: usize, _ptr: Shared<T>) {}

    #[inline]
    fn needs_restart(g: &Guard<'_, Self>) -> bool {
        g.slot().neutralize.load(Ordering::Acquire)
    }

    #[inline]
    fn checkpoint(g: &mut Guard<'_, Self>) {
        g.scheme().announce_checkpoint(g.slot());
    }
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
        let d = Nbr::new(small_config());
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
    fn blocked_sweep_neutralizes_the_lagging_reader() {
        let d = Nbr::new(small_config());
        let mut reader = d.register();
        let mut worker = d.register();

        let mut g = reader.pin();
        assert!(!g.needs_restart());

        // Churn way past the scan threshold: the worker's sweeps are blocked
        // by the reader's checkpoint and must raise its neutralize flag.
        for i in 0..64u64 {
            let mut wg = worker.pin();
            let p = wg.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { wg.retire(p) };
        }
        assert!(
            g.needs_restart(),
            "a blocked sweep must ask the lagging reader to restart"
        );
        assert!(d.neutralizations() > 0);
        assert!(d.unreclaimed() > 0, "reader still blocks reclamation");

        // The reader cooperates: checkpoint + (conceptually) restart.
        g.checkpoint();
        assert!(!g.needs_restart());
        let era = d.global_era.load(Ordering::SeqCst);
        assert_eq!(
            d.core.reservation(0).checkpoint.load(Ordering::SeqCst),
            era,
            "checkpoint must re-announce the current era"
        );
        drop(g);
        for _ in 0..4 {
            worker.flush();
        }
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn checkpoint_unblocks_reclamation_while_reader_stays_pinned() {
        let d = Nbr::new(small_config());
        let mut reader = d.register();
        let mut worker = d.register();

        let mut g = reader.pin();
        for i in 0..32u64 {
            let mut wg = worker.pin();
            let p = wg.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { wg.retire(p) };
        }
        let before = d.unreclaimed();
        assert!(before > 0);
        // Cooperating (checkpointing whenever asked) is enough: the reader
        // never unpins, yet reclamation proceeds past it.
        for _ in 0..8 {
            if g.needs_restart() {
                g.checkpoint();
            }
            worker.flush();
        }
        assert_eq!(d.unreclaimed(), 0, "cooperative reader must not block");
        drop(g);
    }

    #[test]
    fn uncooperative_reader_blocks_reclamation() {
        // The cooperative caveat: safety is carried by the checkpoint era, so
        // a reader that never polls keeps everything since its pin alive.
        let d = Nbr::new(small_config());
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
            "NBR must not reclaim past an uncooperative reader (got {})",
            d.unreclaimed()
        );
    }

    #[test]
    fn pin_clears_a_stale_neutralize_flag() {
        let d = Nbr::new(small_config());
        let mut h = d.register();
        d.core
            .reservation(0)
            .neutralize
            .store(true, Ordering::SeqCst);
        let g = h.pin();
        assert!(!g.needs_restart(), "pin starts a fresh checkpoint");
    }

    #[test]
    fn repin_reannounces_and_clears_a_pending_neutralize() {
        // "repin" in the name now means the batch edge: drop + pin.
        let d = Nbr::new(small_config());
        let mut h = d.register();
        let g = h.pin();
        // A blocked sweep bumps the era and flags us; the batch edge must
        // behave like a checkpoint.
        d.neutralize_laggards();
        assert!(g.needs_restart());
        drop(g);
        let g = h.pin();
        assert!(
            !g.needs_restart(),
            "the batch edge must acknowledge the flag"
        );
        assert_eq!(
            d.core.reservation(0).checkpoint.load(Ordering::SeqCst),
            d.global_era.load(Ordering::SeqCst),
            "the batch edge must re-announce the current era"
        );
        drop(g);
    }

    #[test]
    fn guard_held_across_repins_does_not_block_reclamation() {
        // "repin" in the name now means the batch edge: drop + pin every 16
        // worker retires.
        let d = Nbr::new(small_config());
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
            "a reader re-pinning at batch edges is cooperative (got {})",
            d.unreclaimed()
        );
        drop(g);
    }

    #[test]
    fn retire_batch_reclaims_like_per_node_retire() {
        crate::tests::retire_batch_reclaims_like_per_node_retire::<Nbr>(small_config(), 48, 4);
    }

    #[test]
    fn multi_threaded_retire_storm_reclaims_everything() {
        let d = Nbr::new(SmrConfig {
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
    fn leaked_handle_on_dead_thread_is_adopted() {
        // Adoption must clear the dead thread's still-published checkpoint.
        crate::tests::leaked_handle_on_dead_thread_is_adopted::<Nbr>(small_config(), 1, true, 4);
    }

    #[test]
    fn orphans_are_freed_on_domain_drop() {
        let d = Nbr::new(small_config());
        let mut reader = d.register();
        let mut h = d.register();
        {
            let mut g = h.pin();
            let p = g.alloc(1u64);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        // A pinned reader keeps the entry ineligible, so the handle drop's
        // last sweep must orphan it instead of freeing it.
        let rg = reader.pin();
        drop(h);
        assert_eq!(d.unreclaimed(), 1);
        drop(rg);
        drop(reader);
        drop(d);
    }
}
