//! Hyaline-1S-style reclamation (Nikolaev & Ravindran, PLDI 2021).
//!
//! Hyaline performs reference counting **only during reclamation**: readers
//! pay nothing per pointer access (beyond the birth-era publication shared
//! with IBR/HE), and retired nodes are freed by *whichever thread happens to
//! drop the last reference to their batch* — the "any thread reclaims"
//! property the paper highlights (§2.2.5).
//!
//! This implementation follows the published design at the level the paper
//! describes it:
//!
//! * A thread entering a critical section loads the global era, stores it
//!   into its slot only if the slot publishes a different one, and increments
//!   the slot's reference counter with one `fetch_add`, whose return value is
//!   the slot's current retirement-list head (the *handle*): "load,
//!   maybe-store, fetch_add".
//! * Retirement is batched.  A batch is pushed onto the retirement list of
//!   every *active* slot; the number of threads active in those slots at push
//!   time is added to the batch's reference counter.
//! * A thread leaving a critical section takes its reference back and
//!   detaches the slot's list with one `swap`, then traverses from the head
//!   the swap returned down to its handle, decrementing each traversed batch
//!   once.  A batch whose counter reaches zero is freed by that thread —
//!   hence "any thread reclaims".
//! * Robustness (the "-1S" birth-era mechanism): every object records its
//!   birth era and every thread publishes the era it is operating in
//!   (refreshed on `protect`, exactly like IBR's upper bound).  When retiring
//!   a batch, slots whose published era is *older than the batch's minimum
//!   birth era* are skipped: a thread stalled since before any node of the
//!   batch was allocated can never acquire a reference to them (given the
//!   SCOT/Harris-Michael traversal discipline), so it does not need to
//!   acknowledge the batch and cannot delay its reclamation.
//!
//! ## Enter and leave: two RMWs, `refs ∈ {0, 1}`
//!
//! Nikolaev's Hyaline sells one RMW on enter and one on leave, and with one
//! slot per thread that is what the per-operation path costs here.  A slot
//! has exactly one owner: `pin` takes `&mut` of the handle and guards are
//! `!Send`, so at most one guard of a handle is alive and the slot's count is
//! 0 (outside a critical section, head pointer 0 too) or 1 (inside).  That
//! invariant is why leave needs no CAS loop — there is no other thread's
//! count to preserve, so `head.swap(0)` both drops the reference and
//! detaches the list — and it is `debug_assert!`ed at enter, at leave and in
//! the push loop.  The one way safe code can break it is `mem::forget` on a
//! guard followed by another `pin`; the arithmetic then still only
//! *under*-acknowledges (the forgotten reference keeps its batches leaked, as
//! it must), never over-acknowledges, which is what the acknowledgement
//! boundary below is for.
//!
//! The packed `refs:16` field is kept although one bit would hold `{0, 1}`:
//! the push CAS has to observe "owner inside a critical section" and the list
//! head in one word either way, `fetch_add` is the cheapest RMW there is for
//! setting it, a count (unlike a flag) keeps the forgotten-guard case a leak
//! instead of a lost reference, and adoption reads it from a dead owner's slot
//! to tell "died outside" from "died inside" a critical section.
//!
//! Enter compares the global era against the era its own slot publishes, read
//! `Relaxed` (the owner is a claimed slot's only era writer, and registration
//! resets it to 0, below every real era), and skips the SeqCst era store — a
//! full fence on x86 — whenever the two agree, which is nearly always: the
//! era advances once per `epoch_freq` allocations.
//!
//! Everything else is the slot lifecycle every scheme shares
//! ([`crate::limbo`]).  The guard is the shared `limbo::Guard<Hyaline>`: the
//! `Pinned` that `pin` lends out (`&Hyaline`, the slot index, the owner's
//! pool), `&HySlot`, the acknowledgement boundary and the cached era, so
//! nothing on the per-operation path clones or dereferences the domain `Arc`.
//! The accumulating batch is the core's per-slot vault: retirement flushes it
//! at `batch_capacity`, `flush` and release flush it, and adoption flushes it
//! and recycles or poisons the slot (below).
//!
//! ## Deviations from the published algorithm
//!
//! * The original Hyaline-1S multiplexes all threads over one global slot and
//!   packs the head's reference counter next to the pointer.  We keep one
//!   slot **per thread** (the multi-slot layout of the original Hyaline
//!   family), which needs no double-word atomics: the packed
//!   `{refs:16, ptr:48}` head fits a single `AtomicU64` on x86-64/Linux.
//! * The leave-time acknowledgement traversal terminates at the head
//!   **address** observed on entry (returned atomically by the enter
//!   `fetch_add`), exactly like the published algorithm's handle.  The
//!   boundary node itself is never dereferenced — it was pushed before this
//!   thread entered, so its batch never counted this thread and may already
//!   be freed and its block recycled through the pool; reading any of its
//!   fields would race with reuse.  Every node *above* the boundary was
//!   pushed while this thread's reference was visible (the push CAS cannot
//!   succeed across a concurrent enter), so those nodes are pinned until
//!   acknowledged and are safe to walk.  The residual address-ABA (the exact
//!   boundary block freed, recycled, and re-pushed onto the *same* slot
//!   within one critical section) stops the traversal early; the skipped
//!   batches keep one reference forever and are **leaked permanently** (no
//!   later traversal covers them) — never freed early, so memory safety is
//!   unaffected.  The window is one critical section and requires the exact
//!   boundary address to cycle through free → pool → alloc → retire → push
//!   onto the same slot inside it, the same accepted-risk class as the
//!   handle ABA of the published algorithm.  While `refs ∈ {0, 1}` holds the
//!   boundary is always 0 (leave detaches the list, and nothing is pushed
//!   onto a slot whose count is 0), which no block can alias: the window only
//!   opens after a forgotten guard.
//! * Orphaned slots (owner thread died without releasing): the accumulating
//!   batch lives in a domain-owned vault so a survivor can adopt and retire
//!   it.  If the owner died *outside* a critical section (`refs == 0`) the
//!   slot is fully recycled.  If it died *inside* one its acknowledgement
//!   boundary is unknowable — decrementing its list on its behalf could
//!   double-acknowledge batches pushed before it entered — so the slot is
//!   [poisoned](crate::registry::AdoptGuard::poison): excluded from all
//!   future pushes (stopping the leak from growing) but never recycled, and
//!   the batches already pinned by its list are leaked permanently.

use crate::block::{Header, Reclaimable, Retired};
use crate::limbo::{
    protect_era, publish_era, Domain, Guard, Lifecycle, Pinned, ReadSide, RetireCore,
};
use crate::pool::BlockPool;
use crate::ptr::{Atomic, Shared};
use crate::registry::AdoptGuard;
use crate::SmrKind;
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// First era handed out.
const FIRST_ERA: u64 = 1;

/// Number of low bits of the packed slot head used for the pointer.
/// x86-64 / AArch64 Linux user-space addresses fit in 48 bits.
const PTR_BITS: u32 = 48;
const PTR_MASK: u64 = (1 << PTR_BITS) - 1;
/// One reference, in packed-head units.
const REF_ONE: u64 = 1 << PTR_BITS;

#[inline]
fn pack(refs: u64, ptr: usize) -> u64 {
    debug_assert!(ptr as u64 <= PTR_MASK, "pointer does not fit in 48 bits");
    (refs << PTR_BITS) | (ptr as u64 & PTR_MASK)
}

#[inline]
fn unpack(word: u64) -> (u64, usize) {
    (word >> PTR_BITS, (word & PTR_MASK) as usize)
}

/// One thread's retirement list and published era; the default holds no
/// reference, an empty list and era 0.
#[derive(Default)]
pub struct HySlot {
    /// Packed `{refs, head-pointer}` of the slot's retirement list.
    head: AtomicU64,
    /// Era published by the slot's owner, refreshed on every protect.
    era: AtomicU64,
}

/// The Hyaline-1S-style reclamation domain.
pub struct Hyaline {
    core: RetireCore<HySlot>,
    global_era: CachePadded<AtomicU64>,
    /// Batch size: enough nodes so that one node can be pushed to every slot
    /// plus the REFS node that carries the counter.
    batch_capacity: usize,
}

impl Domain for Hyaline {
    const KIND: SmrKind = SmrKind::Hyaline;
    type Slot = HySlot;

    fn build(core: RetireCore<HySlot>) -> Self {
        Self {
            batch_capacity: core.config().max_threads + 1,
            core,
            global_era: CachePadded::new(AtomicU64::new(FIRST_ERA)),
        }
    }

    #[inline]
    fn core(&self) -> &RetireCore<HySlot> {
        &self.core
    }

    /// Moves on allocation only; a stamp that lags it is strictly more
    /// protective for the `-1S` stalled-reader exemption.
    #[inline]
    fn clock(&self) -> Option<&AtomicU64> {
        Some(&self.global_era)
    }

    /// Resets the slot to no reference, an empty list and era 0 — at
    /// registration only: release and adoption leave the slot to the
    /// [`Lifecycle`] hooks.
    fn neutralize(&self, slot: usize) {
        let slot = self.core.reservation(slot);
        // ORDERING: Relaxed is enough — a pusher skips a slot whose count is
        // 0, one that still sees a previous owner's count pushes onto a list
        // nobody acknowledges (a leak, never an early free), and the new
        // owner's enter `fetch_add` follows these stores in program order.
        slot.head.store(0, Ordering::Relaxed);
        // ORDERING: same as the head reset above.
        slot.era.store(0, Ordering::Relaxed);
    }
}

impl Lifecycle for Hyaline {
    /// Accumulates `batch` in the vault, and pushes the vault as one batch
    /// once it holds `batch_capacity` nodes.  No retire stamp and no clock
    /// tick: the era moves on allocation only.
    #[inline]
    fn retire(pinned: &mut Pinned<'_, Self>, batch: impl ExactSizeIterator<Item = Retired>) {
        let pending = pinned.push_vault(batch, None);
        if pending >= pinned.scheme().batch_capacity {
            // One oversized push is fine: the batch carries *at least* one
            // linkage node per slot.
            Self::flush_vault(pinned, None);
        }
    }

    /// Pushes the slot's accumulated batch, then adopts dead slots.
    fn flush(pinned: &mut Pinned<'_, Self>) {
        Self::flush_vault(pinned, None);
        pinned.adopt_orphans();
    }

    /// Pushes the slot's accumulated batch.
    fn release(pinned: &mut Pinned<'_, Self>) {
        Self::flush_vault(pinned, None);
    }

    /// A dead slot's `refs` counter is frozen (only its owner could pin):
    /// `refs == 0` means the owner died outside any critical section, so its
    /// accumulated batch is flushed and the slot recycled; `refs > 0` means it
    /// died *inside* one, its acknowledgement boundary is unknowable, and the
    /// slot is poisoned (see the module docs) before its batch is flushed.
    fn adopt(mut adoption: AdoptGuard<'_>, pinned: &mut Pinned<'_, Self>) {
        let slot = pinned.scheme().core.reservation(adoption.slot());
        let (refs, _) = unpack(slot.head.load(Ordering::SeqCst));
        if refs == 0 {
            // Flush before recycling so a new claimant cannot race us for the
            // vault; pushes skip the dead slot itself because its refs count
            // is zero.
            Self::flush_vault(pinned, Some(&mut adoption));
            adoption.finish();
        } else {
            // Poison first: once the slot stops being `is_claimed`, the flush
            // below (and all future pushes) exclude it, so the leak stops
            // growing.  The poisoned guard is still the vault's license.
            adoption.poison();
            Self::flush_vault(pinned, Some(&mut adoption));
        }
    }
}

impl Hyaline {
    /// Frees every node of the batch whose REFS node is `refs_node`,
    /// recycling the blocks into the freeing thread's `pool`, and returns how
    /// many it freed.  The caller debits its own share of `unreclaimed` —
    /// under any-thread freeing often not the slot that was credited at
    /// retire time; only the sum is meaningful.
    fn free_batch(refs_node: Reclaimable, pool: &mut BlockPool) -> usize {
        let mut freed = 1;
        let mut node = refs_node;
        loop {
            // ORDERING: Relaxed suffices for `batch_all` — the links were
            // written before the REFS counter was published with Release, and
            // the zero-reaching fetch_sub(AcqRel) ordered us after that.
            let next = node.header().batch_all.load(Ordering::Relaxed);
            node.free_into(pool);
            if next == 0 {
                return freed;
            }
            // SAFETY: `next` is the next node of the same batch, and its REFS
            // node was minted `Reclaimable`: the batch's counter reached
            // zero, so every node is unlinked from every slot list, no thread
            // can reach it, and this thread is its sole owner.
            node = unsafe { Reclaimable::at(next) };
            freed += 1;
        }
    }

    /// Acknowledges (decrements) every batch whose node was pushed onto the
    /// slot's list after the calling thread entered its critical section,
    /// freeing batches that drop to zero into `pool`, and returns how many
    /// blocks it freed.
    ///
    /// `from` is the slot head observed while leaving; `entry_addr` is the
    /// head address at enter time (from the enter `fetch_add`).  Every node
    /// above `entry_addr` was pushed while this thread's reference was
    /// visible and therefore counted it; the boundary node itself did not,
    /// and is never dereferenced (its batch may already be freed and the
    /// block recycled — see the module docs).
    ///
    /// # Safety
    /// The calling thread must have held its slot reference continuously
    /// between observing `entry_addr` and observing `from`, so every node
    /// above the boundary counted it at push time and stays alive until the
    /// decrement below.
    unsafe fn acknowledge(from: usize, entry_addr: usize, pool: &mut BlockPool) -> usize {
        let mut freed = 0;
        let mut cur = from;
        while cur != 0 && cur != entry_addr {
            // SAFETY: `cur` is above the acknowledgement boundary, so its
            // batch counted this thread's reference at push time and cannot
            // be freed before the decrement below.
            let node = unsafe { &*(cur as *const Header) };
            // Read the links before decrementing: once we decrement, another
            // thread may free the batch (and with it this node).
            let next = node.next.load(Ordering::Acquire);
            let refs_addr = node.batch_link.load(Ordering::Acquire);
            // SAFETY: the REFS node belongs to the same pinned batch, and
            // `batch_link` was written before the push.
            let refs_node = unsafe { &*(refs_addr as *const Header) };
            if refs_node.refs.fetch_sub(1, Ordering::AcqRel) == 1 {
                // SAFETY: our fetch_sub observed 1, so we dropped the batch's
                // last reference: no thread can reach it any more.
                freed += Self::free_batch(unsafe { Reclaimable::at(refs_addr) }, pool);
            }
            cur = next;
        }
        freed
    }

    /// Pushes a fully-formed batch to every active, non-exempt slot and drops
    /// the retirer's own reference, freeing the batch into `pool` if that was
    /// the last one; returns how many blocks it freed.  `nodes[0]` is the
    /// REFS node and is never pushed; the remaining nodes provide the
    /// per-slot list linkage.  The records go with the retirer's last
    /// decrement: `nodes` is left empty, its buffer kept for the next batch.
    fn push_batch(&self, nodes: &mut Vec<Retired>, min_birth: u64, pool: &mut BlockPool) -> usize {
        debug_assert!(!nodes.is_empty());
        let refs = &nodes[0].header().refs;

        // Thread the whole batch through `batch_all` so the last acker can
        // free every node, and point every node at the REFS node.  Every node
        // is a retired block the retirer exclusively owns until the push CAS
        // publishes it.
        // ORDERING: the Relaxed link stores are published to ackers by the
        // Release store of `refs` below (and the AcqRel push CAS); ackers
        // read them only after acquiring the same locations.
        for (i, n) in nodes.iter().enumerate() {
            let next = nodes.get(i + 1).map_or(0, Retired::header_addr);
            // ORDERING: see the batch-threading comment above this loop.
            n.header().batch_all.store(next, Ordering::Relaxed);
            // ORDERING: see the batch-threading comment above this loop.
            n.header()
                .batch_link
                .store(nodes[0].header_addr(), Ordering::Relaxed);
        }
        // The retirer holds one reference for the duration of the push phase
        // so concurrent acknowledgements cannot free the batch under it.
        refs.store(1, Ordering::Release);

        let mut spare = nodes[1..].iter();
        for slot in self.core.claimed() {
            // Robustness: a thread whose published era predates every node in
            // the batch can never have obtained a reference to any of them
            // (given the SCOT / Harris-Michael traversal discipline), so it
            // need not acknowledge the batch.
            let slot_era = slot.era.load(Ordering::SeqCst);
            if slot_era < min_birth {
                continue;
            }
            let Some(node) = spare.next() else {
                // Batches always carry `max_threads` linkage nodes (full
                // batches by construction, flushed batches by padding), so the
                // supply cannot run out while at most `max_threads` slots are
                // registered.  If it ever did, keeping the batch alive forever
                // is the only safe fallback: pin it with a permanent reference
                // rather than skip an active slot that may still acknowledge.
                debug_assert!(false, "hyaline batch ran out of linkage nodes");
                refs.fetch_add(isize::MAX / 2, Ordering::AcqRel);
                break;
            };
            loop {
                let cur = slot.head.load(Ordering::Acquire);
                let (refs_in_slot, head_ptr) = unpack(cur);
                if refs_in_slot == 0 {
                    // Nobody is inside a critical section on this slot: it
                    // cannot hold references to the batch.
                    break;
                }
                debug_assert_eq!(refs_in_slot, 1, "a slot has one owner (module docs)");
                // ORDERING: the Relaxed `next` store is published by the
                // AcqRel CAS that installs the node.
                node.header().next.store(head_ptr, Ordering::Relaxed);
                // Count the threads that will acknowledge this node *before*
                // publishing it, so the counter can never be observed too low.
                refs.fetch_add(refs_in_slot as isize, Ordering::AcqRel);
                let new = pack(refs_in_slot, node.header_addr());
                if slot
                    .head
                    .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break;
                }
                // Undo the optimistic count and retry with the fresh head.
                refs.fetch_sub(refs_in_slot as isize, Ordering::AcqRel);
            }
        }

        // Drop the retirer's bias reference; if nothing else holds the batch
        // (no active slots, or every acknowledgement already arrived), free it.
        // Either way another thread may free it from here on, so the records
        // go too.
        let last = refs.fetch_sub(1, Ordering::AcqRel) == 1;
        // SAFETY: observed 1 → ours was the batch's last reference: no thread
        // can reach it any more, and the records are cleared right below.
        let batch = last.then(|| unsafe { nodes[0].reclaimable() });
        nodes.clear();
        batch.map_or(0, |refs_node| Self::free_batch(refs_node, pool))
    }

    /// Pushes the batch accumulated in a vault to the active slots, padded
    /// with dummy blocks up to the full linkage capacity, which empties the
    /// vault in place, so its buffer serves the next batch.  The vault is the
    /// own slot's, or with `adoption` the adopted slot's; padding and frees
    /// are charged to the own slot's share.
    fn flush_vault(pinned: &mut Pinned<'_, Self>, adoption: Option<&mut AdoptGuard<'_>>) {
        let d = pinned.scheme();
        let (nodes, pool) = match adoption {
            None => pinned.vault(),
            Some(adoption) => pinned.adopted_vault(adoption),
        };
        if nodes.is_empty() {
            return;
        }
        // One relaxed birth-era load per retired node, read by the vault's
        // owner or after the owner/adopter hand-off; the dummies below are
        // left out, as no reader can reach them.
        let min_birth = nodes.iter().map(Retired::birth_era).min();
        // A batch needs one linkage node per active slot plus the REFS node.
        // Pad undersized batches (possible at flush/drop/adoption time) with
        // freshly allocated dummy blocks.
        // They come straight from the pool: no birth stamp (`min_birth` is
        // taken) and no clock tick (they are not allocations of the structure).
        let padding = d.batch_capacity.saturating_sub(nodes.len());
        for _ in 0..padding {
            nodes.push(Retired::padding(pool));
        }
        let freed = d.push_batch(nodes, min_birth.unwrap_or(u64::MAX), pool);
        pinned.count_retired(padding);
        if freed > 0 {
            pinned.count_freed(freed);
        }
    }
}

/// What a Hyaline guard carries beside its slot.
pub struct HyState {
    /// Slot-list head address observed atomically when entering; the
    /// traversal boundary for leave-time acknowledgements.
    entry_addr: usize,
    /// The era the slot publishes.
    cached_era: u64,
}

impl ReadSide for Hyaline {
    type State = HyState;

    /// Enter: one global-era load, an era store only when the slot publishes
    /// something else, one `fetch_add`.  The `fetch_add` returns the packed
    /// head at exactly the enter instant, and every node pushed above its
    /// pointer half counted this thread.
    #[inline]
    fn enter(&self, slot: &HySlot) -> HyState {
        let era = self.global_era.load(Ordering::SeqCst);
        // ORDERING: Relaxed — the owner is the only writer of a claimed
        // slot's era (registration resets it to 0, below every real era), so
        // this reads back the owner's own last store.
        if era != slot.era.load(Ordering::Relaxed) {
            slot.era.store(era, Ordering::SeqCst);
        }
        // ORDERING: when the store above is elided the slot has held `era` since
        // this thread's last SeqCst store of it, so retirers already read the
        // value a fresh store would publish; in both cases the era is in place
        // before this RMW makes the thread visible to pushers.
        let (refs, entry_addr) = unpack(slot.head.fetch_add(REF_ONE, Ordering::AcqRel));
        debug_assert_eq!(refs, 0, "enter inside a live critical section");
        HyState {
            entry_addr,
            cached_era: era,
        }
    }

    /// Leave: one swap drops the reference and detaches the list, and its
    /// return value is where acknowledgement starts.  A plain swap (no CAS
    /// loop) is enough because the owner holds the slot's only reference
    /// (`refs ∈ {0, 1}`, see the module docs): there is no count to preserve.
    /// A pusher's CAS that loses to the swap retries, sees `refs == 0` and
    /// skips the slot; one that wins is seen here and acknowledged.
    #[inline]
    fn exit(g: &mut Guard<'_, Self>) {
        let (refs, observed) = unpack(g.slot().head.swap(0, Ordering::AcqRel));
        debug_assert_eq!(refs, 1, "leave without exactly one matching enter");
        let entry_addr = g.state.entry_addr;
        // SAFETY: this thread held its slot reference continuously from the
        // enter `fetch_add` (which returned `entry_addr`) until the swap above
        // that released it and returned `observed` — exactly `acknowledge`'s
        // contract.
        let freed = unsafe { Hyaline::acknowledge(observed, entry_addr, g.pinned().pool()) };
        if freed > 0 {
            g.pinned().count_freed(freed);
        }
    }

    /// Same publication protocol as IBR's upper bound: the era is published
    /// before the pointer that is returned is (re-)read, so any returned
    /// pointer's birth era is covered by the published era.
    #[inline]
    fn protect<T>(g: &mut Guard<'_, Self>, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        let (global, era) = (&g.scheme().global_era, &g.slot().era);
        protect_era(src, global, era, &mut g.state.cached_era)
    }

    #[inline]
    fn announce<T>(g: &mut Guard<'_, Self>, _idx: usize, _ptr: Shared<T>) {
        let (global, era) = (&g.scheme().global_era, &g.slot().era);
        publish_era(global, era, &mut g.state.cached_era);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limbo::Handle;
    use crate::{Smr, SmrConfig, SmrGuard, SmrHandle};
    use std::sync::Arc;

    fn config() -> SmrConfig {
        SmrConfig {
            max_threads: 4,
            scan_threshold: 8,
            epoch_freq_per_thread: 1,
            snapshot_scan: false,
            ..SmrConfig::default()
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let ptr = 0x0000_7fff_dead_beef_usize & (PTR_MASK as usize) & !0x7;
        let word = pack(3, ptr);
        assert_eq!(unpack(word), (3, ptr));
        assert_eq!(unpack(pack(0, 0)), (0, 0));
    }

    #[test]
    fn quiescent_retire_frees_immediately_on_batch_boundary() {
        let d = Hyaline::new(config());
        let mut h = d.register();
        // batch_capacity = max_threads + 1 = 5; retire 10 nodes with no other
        // thread inside a critical section -> both batches freed immediately.
        for i in 0..10u64 {
            let mut g = h.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        drop(h);
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn a_flush_keeps_the_vault_buffer() {
        let d = Hyaline::new(config());
        let mut h = d.register();
        let retire = |h: &mut Handle<Hyaline>, n: u64| {
            for i in 0..n {
                let mut g = h.pin();
                let p = g.alloc(i);
                // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
                unsafe { g.retire(p) };
            }
        };
        // Below `batch_capacity`: the nodes wait in the vault.
        retire(&mut h, 3);
        assert_eq!(d.core.vault_shape(0).0, 3);
        // Padded to `batch_capacity` in place, pushed, emptied.
        h.flush();
        let (len, capacity) = d.core.vault_shape(0);
        assert_eq!(len, 0);
        assert!(capacity >= d.batch_capacity, "capacity {capacity}");
        // A full batch flushes from retire itself, into the same buffer.
        retire(&mut h, d.batch_capacity as u64);
        assert_eq!(d.core.vault_shape(0), (0, capacity));
        drop(h);
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn active_reader_defers_reclamation_until_it_leaves() {
        let d = Hyaline::new(config());
        let mut reader = d.register();
        let mut worker = d.register();

        let cell = {
            let mut g = worker.pin();
            Atomic::new(g.alloc(1u64))
        };

        // Reader enters and protects the node, then stalls (guard kept alive).
        let mut reader_guard = reader.pin();
        let seen = reader_guard.protect(0, &cell);
        assert!(!seen.is_null());

        // Worker retires the node plus enough filler to flush a full batch.
        {
            let mut g = worker.pin();
            // SAFETY: the node was unlinked by this test and is retired exactly once.
            unsafe { g.retire(seen) };
            for i in 0..16u64 {
                let p = g.alloc(i);
                // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
                unsafe { g.retire(p) };
            }
        }
        worker.flush();
        assert!(
            d.unreclaimed() > 0,
            "batches containing the protected node must survive while the reader is active"
        );

        // Reader leaves: it acknowledges the batches pushed during its
        // critical section, and as the last holder it frees them.
        drop(reader_guard);
        drop(reader);
        drop(worker);
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn stalled_thread_does_not_block_young_batches() {
        // Robustness: a reader stalled since era E must not delay batches all
        // of whose nodes were born after E.
        let d = Hyaline::new(config());
        let mut stalled = d.register();
        let mut worker = d.register();

        let stalled_guard = stalled.pin();

        // Let eras advance, then retire nodes born well after the stall point.
        for i in 0..64u64 {
            let mut g = worker.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was never published; dealloc is the owner's fast path.
            unsafe { g.dealloc(p) };
        }
        let before = d.unreclaimed();
        for i in 0..64u64 {
            let mut g = worker.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        worker.flush();
        // Some tail below one batch may remain locally, but full batches of
        // young nodes must have been reclaimed despite the stalled reader.
        assert!(
            d.unreclaimed() < before + 16,
            "young batches should bypass the stalled reader (got {})",
            d.unreclaimed()
        );
        drop(stalled_guard);
    }

    #[test]
    fn retire_batch_reclaims_like_per_node_retire() {
        crate::tests::retire_batch_reclaims_like_per_node_retire::<Hyaline>(config(), 10, 1);
    }

    /// Era that no run of these tests reaches; planted in a slot to see
    /// whether `pin` stores over it.
    const PLANTED: u64 = u64::MAX - 1;

    #[test]
    fn pin_elides_the_era_store_until_the_global_era_moves() {
        // The name predates enter reading the slot's own `era` instead of a
        // handle-side cache: an elided store is now one that would rewrite
        // the value the slot already holds, so what is checked is the value
        // enter compares against.
        let d = Hyaline::new(config());
        let slot = d.core.reservation(0);
        let mut h = d.register();
        let era = d.global_era.load(Ordering::SeqCst);
        drop(h.pin());
        assert_eq!(slot.era.load(Ordering::SeqCst), era);

        // Unchanged global era: the slot keeps the era it publishes.
        let g = h.pin();
        assert_eq!(slot.era.load(Ordering::SeqCst), era);
        assert_eq!(unpack(slot.head.load(Ordering::SeqCst)), (1, 0));
        drop(g);
        assert_eq!(slot.head.load(Ordering::SeqCst), 0, "leave detaches");

        // The comparison reads the slot, not a copy of it: a slot that
        // publishes something else is republished although the global era
        // stood still.
        slot.era.store(PLANTED, Ordering::SeqCst);
        drop(h.pin());
        assert_eq!(slot.era.load(Ordering::SeqCst), era);

        // The era advanced: the guard is inside its critical section with
        // the new era already published.
        d.global_era.fetch_add(1, Ordering::SeqCst);
        let g = h.pin();
        assert_eq!(slot.era.load(Ordering::SeqCst), era + 1);
        assert_eq!(unpack(slot.head.load(Ordering::SeqCst)), (1, 0));
        drop(g);
        assert_eq!(slot.era.load(Ordering::SeqCst), era + 1);
    }

    #[test]
    fn guard_hands_a_republished_era_back_to_the_handle() {
        // The name predates enter reading the slot's own `era`: there is no
        // handle-side cache to hand an era back to, and the slot itself
        // carries a republished era past leave into the next enter.
        let d = Hyaline::new(config());
        let slot = d.core.reservation(0);
        let mut h = d.register();
        let mut worker = d.register();
        let cell = Atomic::new(worker.pin().alloc(1u64));
        type Republish = fn(&mut Guard<'_, Hyaline>, &Atomic<u64>);
        let republish: [Republish; 2] = [
            |g, cell| {
                g.protect(0, cell);
            },
            |g, _| g.announce(0, Shared::<u64>::null()),
        ];
        for republish in republish {
            let mut g = h.pin();
            let era = d.global_era.fetch_add(1, Ordering::SeqCst) + 1;
            republish(&mut g, &cell);
            assert_eq!(slot.era.load(Ordering::SeqCst), era);
            drop(g);
            assert_eq!(slot.era.load(Ordering::SeqCst), era, "kept past leave");
            // So the next pin compares against what the slot really holds.
            slot.era.store(PLANTED, Ordering::SeqCst);
            drop(h.pin());
            assert_eq!(slot.era.load(Ordering::SeqCst), era);
        }
        // SAFETY: the cell's node was never shared beyond this test and is retired exactly once.
        unsafe { worker.pin().retire(cell.load(Ordering::Acquire)) };
    }

    #[test]
    fn register_on_a_recycled_slot_starts_from_era_zero_on_both_sides() {
        // The name predates enter reading the slot's own `era`: the slot is
        // the only side left.
        let d = Hyaline::new(config());
        let slot = d.core.reservation(0);
        let mut h = d.register();
        drop(h.pin());
        assert_ne!(slot.era.load(Ordering::SeqCst), 0);
        drop(h);
        let mut h = d.register();
        assert!(
            d.core.registry().is_claimed(0),
            "the released slot is handed out again"
        );
        assert_eq!(slot.era.load(Ordering::SeqCst), 0);
        // 0 is below every real era, so the first pin always publishes.
        drop(h.pin());
        assert_eq!(
            slot.era.load(Ordering::SeqCst),
            d.global_era.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn concurrent_pin_loop_races_batch_pushes_and_every_block_is_freed_once() {
        use std::sync::atomic::{AtomicBool, AtomicUsize};

        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        const RETIRED: usize = 100_000;
        let d = Hyaline::new(config());
        let drops = Arc::new(AtomicUsize::new(0));
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            // The leave swap, over and over, against the pusher's CAS.
            s.spawn(|| {
                let mut h = d.register();
                start.wait();
                while !done.load(Ordering::Acquire) {
                    drop(h.pin());
                }
                h.flush();
            });
            s.spawn(|| {
                let mut h = d.register();
                start.wait();
                for _ in 0..RETIRED {
                    let mut g = h.pin();
                    let p = g.alloc(Counted(drops.clone()));
                    // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
                    unsafe { g.retire(p) };
                }
                h.flush();
                done.store(true, Ordering::Release);
            });
        });
        assert_eq!(d.unreclaimed(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), RETIRED);
    }

    #[test]
    fn domain_refcount_is_untouched_between_register_and_handle_drop() {
        // The probe of `crate::tests::per_operation_path_leaves_the_refcount_alone`,
        // but the blocks are freed by *another* handle's leave: the reader
        // acknowledges the worker's batches when its guard drops.
        let d = Hyaline::new(config());
        let (mut reader, mut worker) = (d.register(), d.register());
        let held = Arc::strong_count(&d);
        let probe = crate::tests::CountProbe::new(&d);
        let rg = reader.pin();
        for _ in 0..16 {
            let mut g = worker.pin();
            let p = g.alloc(probe.clone());
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        worker.flush();
        assert!(d.unreclaimed() > 0, "the reader pins the batches");
        drop(rg);
        assert_eq!(d.unreclaimed(), 0);
        assert_eq!(probe.max_seen(), held);
    }

    #[test]
    fn leaked_handle_on_dead_thread_is_adopted() {
        // Die without unwinding the handle; the sub-batch stays in the vault
        // until a survivor adopts and flushes it.
        let d =
            crate::tests::leaked_handle_on_dead_thread_is_adopted::<Hyaline>(config(), 3, false, 1);
        assert_eq!(
            d.core.registry().poisoned(),
            0,
            "death outside a CS recycles"
        );
    }

    #[test]
    #[expect(
        clippy::mem_forget,
        reason = "a reader that dies inside its critical section"
    )]
    fn reader_dead_inside_critical_section_poisons_its_slot() {
        let d = Hyaline::new(config());
        let dd = d.clone();
        std::thread::spawn(move || {
            let mut h = dd.register();
            let g = h.pin();
            // Die while holding a slot reference: the acknowledgement
            // boundary is lost with the thread.
            std::mem::forget(g);
            std::mem::forget(h);
        })
        .join()
        .unwrap();
        let mut survivor = d.register();
        survivor.flush();
        assert_eq!(
            d.core.registry().poisoned(),
            1,
            "death inside a CS must poison the slot, not recycle it"
        );
        // The poisoned slot is excluded from pushes, so the survivor's own
        // churn still reclaims fully.
        for i in 0..64u64 {
            let mut g = survivor.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        survivor.flush();
        drop(survivor);
        assert_eq!(
            d.unreclaimed(),
            0,
            "a poisoned slot must not pin batches retired after poisoning"
        );
    }

    #[test]
    fn leaked_vault_is_freed_exactly_once_on_domain_drop() {
        // The Hyaline twin of `ebr::tests::orphans_are_freed_on_domain_drop`:
        // a batch whose handle never releases it stays in the core's vault
        // until the domain drops.
        use std::sync::atomic::AtomicUsize;

        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let d = Hyaline::new(config());
        let drops = Arc::new(AtomicUsize::new(0));
        let mut h = d.register();
        {
            let mut g = h.pin();
            let p = g.alloc(Counted(drops.clone()));
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        // One node is below `batch_capacity`, so it waits in the vault.  The
        // slot is recycled without the adoption hook — all the domain sees of
        // a leaked handle no survivor adopted — so the handle's release is
        // stale and flushes nothing.
        let registry = d.core.registry();
        registry.simulate_owner_exit(0);
        registry.try_begin_adopt(0).unwrap().finish();
        drop(h);
        assert_eq!(d.unreclaimed(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(d);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_producers_and_readers_reclaim_everything() {
        let d = Hyaline::new(SmrConfig {
            max_threads: 10,
            scan_threshold: 8,
            epoch_freq_per_thread: 1,
            snapshot_scan: false,
            ..SmrConfig::default()
        });
        std::thread::scope(|s| {
            for t in 0..4 {
                let d = d.clone();
                s.spawn(move || {
                    let mut h = d.register();
                    for i in 0..2000u64 {
                        let mut g = h.pin();
                        let p = g.alloc(t * 1_000_000 + i);
                        // Simulate a short read before retiring.
                        let cell = Atomic::new(p);
                        let seen = g.protect(0, &cell);
                        // SAFETY: this thread is the only retirer of `seen`; the cell is test-local.
                        unsafe { g.retire(seen) };
                    }
                    h.flush();
                });
            }
        });
        assert_eq!(
            d.unreclaimed(),
            0,
            "all batches must be freed once every thread has left"
        );
    }
}
