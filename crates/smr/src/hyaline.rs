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
//! * Threads entering a critical section increment their slot's reference
//!   counter and remember the slot's current retirement-list head (the
//!   *handle*).
//! * Retirement is batched.  A batch is pushed onto the retirement list of
//!   every *active* slot; the number of threads active in those slots at push
//!   time is added to the batch's reference counter.
//! * A thread leaving a critical section traverses its slot's list from the
//!   head observed at leave time down to its handle, decrementing each
//!   traversed batch once.  A batch whose counter reaches zero is freed by
//!   that thread — hence "any thread reclaims".
//! * Robustness (the "-1S" birth-era mechanism): every object records its
//!   birth era and every thread publishes the era it is operating in
//!   (refreshed on `protect`, exactly like IBR's upper bound).  When retiring
//!   a batch, slots whose published era is *older than the batch's minimum
//!   birth era* are skipped: a thread stalled since before any node of the
//!   batch was allocated can never acquire a reference to them (given the
//!   SCOT/Harris-Michael traversal discipline), so it does not need to
//!   acknowledge the batch and cannot delay its reclamation.
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
//!   handle ABA of the published algorithm.
//! * Orphaned slots (owner thread died without releasing): the accumulating
//!   batch lives in a domain-owned vault so a survivor can adopt and retire
//!   it.  If the owner died *outside* a critical section (`refs == 0`) the
//!   slot is fully recycled.  If it died *inside* one its acknowledgement
//!   boundary is unknowable — decrementing its list on its behalf could
//!   double-acknowledge batches pushed before it entered — so the slot is
//!   [poisoned](crate::registry::AdoptGuard::poison): excluded from all
//!   future pushes (stopping the leak from growing) but never recycled, and
//!   the batches already pinned by its list are leaked permanently.

use crate::block::{header_of, Header};
use crate::pool::{BlockPool, PoolShared, ShardedCounter};
use crate::ptr::{Atomic, Shared};
use crate::registry::{PinBinding, SlotClaim, SlotRegistry};
use crate::{Smr, SmrConfig, SmrError, SmrGuard, SmrHandle, SmrKind};
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

struct HySlot {
    /// Packed `{refs, head-pointer}` of the slot's retirement list.
    head: AtomicU64,
    /// Era published by the slot's owner, refreshed on every protect.
    era: AtomicU64,
}

/// A slot's accumulating (not yet pushed) retirement batch, domain-owned so a
/// dead thread's batch is adoptable.
struct HyBatch {
    nodes: Vec<*mut Header>,
    min_birth: u64,
}

impl HyBatch {
    fn new() -> Self {
        Self {
            nodes: Vec::new(),
            min_birth: u64::MAX,
        }
    }
}

// SAFETY: the raw header pointers are retired nodes owned exclusively by the
// batch; any thread may flush them (the "any thread reclaims" property), and
// handoff between threads is mediated by the vault mutex.
unsafe impl Send for HyBatch {}

/// The Hyaline-1S-style reclamation domain.
pub struct Hyaline {
    config: SmrConfig,
    registry: SlotRegistry,
    global_era: CachePadded<AtomicU64>,
    slots: Box<[CachePadded<HySlot>]>,
    /// Per-slot accumulating batches (see [`HyBatch`]).
    vaults: Box<[Mutex<HyBatch>]>,
    unreclaimed: ShardedCounter,
    pool: Arc<PoolShared>,
    /// Batch size: enough nodes so that one node can be pushed to every slot
    /// plus the REFS node that carries the counter.
    batch_capacity: usize,
}

impl Smr for Hyaline {
    type Handle = HyalineHandle;

    fn new(config: SmrConfig) -> Arc<Self> {
        let config = config.validated();
        let slots = (0..config.max_threads)
            .map(|_| {
                CachePadded::new(HySlot {
                    head: AtomicU64::new(0),
                    era: AtomicU64::new(0),
                })
            })
            .collect();
        Arc::new(Self {
            registry: SlotRegistry::new(config.max_threads),
            global_era: CachePadded::new(AtomicU64::new(FIRST_ERA)),
            slots,
            vaults: (0..config.max_threads)
                .map(|_| Mutex::new(HyBatch::new()))
                .collect(),
            unreclaimed: ShardedCounter::new(config.max_threads),
            pool: PoolShared::new(config.pool_blocks(), config.max_threads),
            batch_capacity: config.max_threads + 1,
            config,
        })
    }

    fn try_register(self: &Arc<Self>) -> Result<HyalineHandle, SmrError> {
        let claim = self.registry.try_claim().ok_or(SmrError::RegistryFull {
            capacity: self.registry.capacity(),
        })?;
        // ORDERING: Relaxed is enough — the slot is not yet visible to
        // retirers (the claim above publishes it, and `is_claimed` readers
        // synchronize through the registry), so nobody can observe these
        // resets out of order.
        self.slots[claim.index].head.store(0, Ordering::Relaxed);
        // ORDERING: same as the head reset above -- the slot is unclaimed, so this races with nothing.
        self.slots[claim.index].era.store(0, Ordering::Relaxed);
        Ok(HyalineHandle {
            pool: BlockPool::new(self.pool.clone(), self.config.pool_blocks()),
            domain: self.clone(),
            claim,
            binding: PinBinding::new(),
            alloc_count: 0,
        })
    }

    fn unreclaimed(&self) -> usize {
        self.unreclaimed.sum()
    }

    fn kind(&self) -> SmrKind {
        SmrKind::Hyaline
    }
}

impl Hyaline {
    /// Frees every node of the batch whose REFS node is `refs_node`, recycling
    /// the blocks into the freeing thread's `pool` and debiting its shard
    /// (`slot`) — under any-thread freeing the debited shard is often not the
    /// one that was credited at retire time; only the sum is meaningful.
    ///
    /// # Safety
    /// The batch's reference counter must have reached zero, i.e. every thread
    /// that was required to acknowledge the batch has done so.
    unsafe fn free_batch(&self, refs_node: *mut Header, slot: usize, pool: &mut BlockPool) {
        let mut freed = 0usize;
        let mut cur = refs_node;
        while !cur.is_null() {
            // SAFETY: the counter reached zero, so this thread is the batch's
            // sole owner; every node is live until freed below.
            // ORDERING: Relaxed suffices for `batch_all` — the links were
            // written before the REFS counter was published with Release, and
            // the zero-reaching fetch_sub(AcqRel) ordered us after that.
            let next = unsafe { (*cur).batch_all.load(Ordering::Relaxed) } as *mut Header;
            // SAFETY: sole ownership as above — each node is unlinked from
            // every slot list (all acknowledgements arrived) and freed once.
            unsafe { pool.free(cur) };
            freed += 1;
            cur = next;
        }
        self.unreclaimed.sub(slot, freed);
    }

    /// Acknowledges (decrements) every batch whose node was pushed onto the
    /// slot's list after the calling thread entered its critical section,
    /// freeing batches that drop to zero.
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
    unsafe fn acknowledge(
        &self,
        from: usize,
        entry_addr: usize,
        slot: usize,
        pool: &mut BlockPool,
    ) {
        let mut cur = from;
        while cur != 0 && cur != entry_addr {
            let hdr = cur as *mut Header;
            // Read the link before decrementing: once we decrement, another
            // thread may free the batch (and with it this node).
            // SAFETY: `hdr` is above the acknowledgement boundary, so its
            // batch counted this thread's reference at push time and cannot
            // be freed before the decrement below.
            let next = unsafe { (*hdr).next.load(Ordering::Acquire) };
            // SAFETY: as above — the node is pinned by our uncollected
            // reference, and `batch_link` was written before the push.
            let refs_node = unsafe { (*hdr).batch_link.load(Ordering::Acquire) } as *mut Header;
            // SAFETY: the REFS node belongs to the same pinned batch.
            if unsafe { (*refs_node).refs.fetch_sub(1, Ordering::AcqRel) } == 1 {
                // SAFETY: our fetch_sub observed 1, so we dropped the last
                // reference — exactly `free_batch`'s contract.
                unsafe { self.free_batch(refs_node, slot, pool) };
            }
            cur = next;
        }
    }

    /// Pushes a fully-formed batch to every active, non-exempt slot and drops
    /// the retirer's own reference.  `nodes[0]` is the REFS node and is never
    /// pushed; the remaining nodes provide the per-slot list linkage.
    // SAFETY: callers must pass fully-initialized retired nodes that no other thread can still reach, plus a held REFS count.
    unsafe fn retire_batch(
        &self,
        nodes: &[*mut Header],
        min_birth: u64,
        slot: usize,
        pool: &mut BlockPool,
    ) {
        debug_assert!(!nodes.is_empty());
        let refs_node = nodes[0];

        // Thread the whole batch through `batch_all` so the last acker can
        // free every node, and point every node at the REFS node.
        // SAFETY (all header writes below): every node is a retired block the
        // retirer exclusively owns until the push CAS publishes it; no other
        // thread can reach these headers yet.
        // ORDERING: the Relaxed link stores are published to ackers by the
        // Release store of `refs` below (and the AcqRel push CAS); ackers
        // read them only after acquiring the same locations.
        for w in nodes.windows(2) {
            // SAFETY: / ORDERING: covered by the batch-threading comment above this loop.
            unsafe { (*w[0]).batch_all.store(w[1] as usize, Ordering::Relaxed) };
        }
        // SAFETY: / ORDERING: covered by the batch-threading comment above this loop.
        unsafe {
            (*nodes[nodes.len() - 1])
                .batch_all
                .store(0, Ordering::Relaxed);
        }
        for &n in nodes {
            // SAFETY: / ORDERING: covered by the batch-threading comment above this loop.
            unsafe { (*n).batch_link.store(refs_node as usize, Ordering::Relaxed) };
        }
        // The retirer holds one reference for the duration of the push phase
        // so concurrent acknowledgements cannot free the batch under it.
        // SAFETY: the REFS node is still unpublished (see above).
        unsafe { (*refs_node).refs.store(1, Ordering::Release) };

        let mut spare = nodes[1..].iter().copied();
        for (i, slot) in self.slots.iter().enumerate() {
            if !self.registry.is_claimed(i) {
                continue;
            }
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
                // SAFETY: the retirer's bias reference (set above) keeps the
                // REFS node alive throughout the push phase.
                unsafe {
                    (*refs_node)
                        .refs
                        .fetch_add(isize::MAX / 2, Ordering::AcqRel);
                }
                break;
            };
            loop {
                let cur = slot.head.load(Ordering::Acquire);
                let (refs, head_ptr) = unpack(cur);
                if refs == 0 {
                    // Nobody is inside a critical section on this slot: it
                    // cannot hold references to the batch.
                    break;
                }
                // SAFETY: `node` is unpublished until the CAS below succeeds.
                // ORDERING: the Relaxed `next` store is published by the
                // AcqRel CAS that installs the node.
                unsafe { (*node).next.store(head_ptr, Ordering::Relaxed) };
                // Count the threads that will acknowledge this node *before*
                // publishing it, so the counter can never be observed too low.
                // SAFETY: the retirer's bias reference keeps the REFS node
                // alive during the push phase.
                unsafe { (*refs_node).refs.fetch_add(refs as isize, Ordering::AcqRel) };
                let new = pack(refs, node as usize);
                if slot
                    .head
                    .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break;
                }
                // Undo the optimistic count and retry with the fresh head.
                // SAFETY: bias reference still held — see above.
                unsafe { (*refs_node).refs.fetch_sub(refs as isize, Ordering::AcqRel) };
            }
        }

        // Drop the retirer's bias reference; if nothing else holds the batch
        // (no active slots, or every acknowledgement already arrived), free it.
        // SAFETY: the bias reference dropped here is the one taken above, so
        // the REFS node is alive up to this fetch_sub.
        if unsafe { (*refs_node).refs.fetch_sub(1, Ordering::AcqRel) } == 1 {
            // SAFETY: observed 1 → ours was the last reference, which is
            // `free_batch`'s contract.
            unsafe { self.free_batch(refs_node, slot, pool) };
        }
    }

    /// Pushes slot `vault_idx`'s accumulated batch to the active slots,
    /// padding it with dummy blocks up to the full linkage capacity.  Frees
    /// and padding are charged to `counter_slot`.
    fn flush_vault(&self, vault_idx: usize, counter_slot: usize, pool: &mut BlockPool) {
        let (mut nodes, min_birth) = {
            let mut vault = self.vaults[vault_idx].lock();
            if vault.nodes.is_empty() {
                return;
            }
            (
                std::mem::take(&mut vault.nodes),
                std::mem::replace(&mut vault.min_birth, u64::MAX),
            )
        };
        // A batch needs one linkage node per active slot plus the REFS node.
        // Pad undersized batches (possible at flush/drop/adoption time) with
        // freshly allocated dummy blocks.
        while nodes.len() < self.batch_capacity {
            let dummy = pool.alloc(());
            // SAFETY: `dummy` was just allocated and never published; its
            // header is exclusively ours.
            // ORDERING: a Relaxed era read only lags the true era, stamping
            // the dummy conservatively old — it can only make the batch's
            // `min_birth` smaller, i.e. more conservative.
            unsafe {
                let hdr = header_of(dummy);
                (*hdr)
                    .birth_era
                    // ORDERING: see the comment above this unsafe block.
                    .store(self.global_era.load(Ordering::Relaxed), Ordering::Relaxed);
                nodes.push(hdr);
            }
            self.unreclaimed.add(counter_slot, 1);
        }
        // SAFETY: every node is a retired (or fresh dummy) block owned by
        // this batch, threaded and padded to full linkage capacity above.
        unsafe { self.retire_batch(&nodes, min_birth, counter_slot, pool) };
    }

    /// Adopts slots abandoned by dead threads.  A dead slot's `refs` counter
    /// is frozen (only its owner could pin): `refs == 0` means the owner died
    /// outside any critical section, so its accumulated batch is flushed and
    /// the slot recycled; `refs > 0` means it died *inside* one, its
    /// acknowledgement boundary is unknowable, and the slot is poisoned (see
    /// the module docs) before its batch is flushed.
    fn adopt_orphans(&self, my_slot: usize, pool: &mut BlockPool) {
        for i in 0..self.registry.capacity() {
            if i == my_slot {
                continue;
            }
            if let Some(adoption) = self.registry.try_begin_adopt(i) {
                let (refs, _) = unpack(self.slots[i].head.load(Ordering::SeqCst));
                if refs == 0 {
                    // Flush before recycling so a new claimant cannot race us
                    // for the vault; pushes skip the dead slot itself because
                    // its refs count is zero.
                    self.flush_vault(i, my_slot, pool);
                    adoption.finish();
                } else {
                    // Poison first: once the slot stops being `is_claimed`,
                    // the flush below (and all future pushes) exclude it, so
                    // the leak stops growing.
                    adoption.poison();
                    self.flush_vault(i, my_slot, pool);
                }
            }
        }
    }
}

impl Drop for Hyaline {
    fn drop(&mut self) {
        // All handles are gone, so every *flushed* batch has been freed by
        // its last acknowledger or retirer.  What can remain are the vaults
        // of orphaned slots no survivor adopted: free their nodes directly
        // (they were never pushed, so nothing else references them).  Batches
        // pinned by a poisoned slot's list stay leaked — see the module docs.
        let mut pool = BlockPool::new(self.pool.clone(), 0);
        for (i, vault) in self.vaults.iter().enumerate() {
            let mut vault = vault.lock();
            let n = vault.nodes.len();
            for hdr in vault.nodes.drain(..) {
                // SAFETY: `&mut self` proves all handles are gone; vault
                // nodes were never pushed, so nothing else references them.
                unsafe { pool.free(hdr) };
            }
            self.unreclaimed.sub(i, n);
        }
    }
}

/// Per-thread handle for [`Hyaline`].
pub struct HyalineHandle {
    domain: Arc<Hyaline>,
    claim: SlotClaim,
    binding: PinBinding,
    pool: BlockPool,
    alloc_count: usize,
}

impl SmrHandle for HyalineHandle {
    type Guard<'g>
        = HyalineGuard<'g>
    where
        Self: 'g;

    fn pin(&mut self) -> HyalineGuard<'_> {
        self.domain
            .registry
            .check_owner_and_bind(self.claim, &mut self.binding);
        let slot = &self.domain.slots[self.claim.index];
        let era = self.domain.global_era.load(Ordering::SeqCst);
        slot.era.store(era, Ordering::SeqCst);
        // Enter: bump the slot's reference count.  The fetch_add returns the
        // packed head at exactly the enter instant — its pointer half is the
        // acknowledgement boundary: every node pushed above it counted us.
        let prev = slot.head.fetch_add(REF_ONE, Ordering::AcqRel);
        let (_, entry_addr) = unpack(prev);
        HyalineGuard {
            handle: self,
            entry_addr,
            cached_era: era,
            _thread_bound: std::marker::PhantomData,
        }
    }

    fn flush(&mut self) {
        let idx = self.claim.index;
        let domain = self.domain.clone();
        domain.flush_vault(idx, idx, &mut self.pool);
        domain.adopt_orphans(idx, &mut self.pool);
    }
}

impl Drop for HyalineHandle {
    fn drop(&mut self) {
        let domain = self.domain.clone();
        let claim = self.claim;
        let pool = &mut self.pool;
        domain.registry.release_with(claim, || {
            domain.flush_vault(claim.index, claim.index, pool);
        });
    }
}

/// Critical-section guard for [`Hyaline`].
#[must_use = "dropping a guard unpublishes every protection it holds"]
pub struct HyalineGuard<'g> {
    handle: &'g mut HyalineHandle,
    /// Makes the guard `!Send`/`!Sync`: a guard is the pinning thread's
    /// read-side critical section, and the slot registry's liveness beacon
    /// tracks exactly that thread (see [`crate::registry`]) -- a guard that
    /// crossed threads could see its protections neutralized when the
    /// pinning thread exits.
    _thread_bound: std::marker::PhantomData<*mut ()>,
    /// Slot-list head address observed atomically when entering; the
    /// traversal boundary for leave-time acknowledgements.
    entry_addr: usize,
    cached_era: u64,
}

impl Drop for HyalineGuard<'_> {
    fn drop(&mut self) {
        // Runs on unwind too: a panicking operation still drops its slot
        // reference and acknowledges the batches pushed during its critical
        // section (RAII unwind safety).
        let domain = &self.handle.domain;
        let slot = &domain.slots[self.handle.claim.index];
        // Leave: drop our reference.  If we are the last thread in the slot we
        // also detach the list so the next entrant starts from a clean head.
        let observed = loop {
            let cur = slot.head.load(Ordering::Acquire);
            let (refs, ptr) = unpack(cur);
            debug_assert!(refs >= 1, "leave without matching enter");
            let new = if refs == 1 {
                pack(0, 0)
            } else {
                pack(refs - 1, ptr)
            };
            if slot
                .head
                .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break ptr;
            }
        };
        // Acknowledge every batch pushed during our critical section.
        let domain = self.handle.domain.clone();
        // SAFETY: this thread held its slot reference continuously from the
        // enter `fetch_add` (which returned `entry_addr`) until the CAS above
        // that released it and returned `observed` — exactly `acknowledge`'s
        // contract.
        unsafe {
            domain.acknowledge(
                observed,
                self.entry_addr,
                self.handle.claim.index,
                &mut self.handle.pool,
            )
        };
    }
}

impl SmrGuard for HyalineGuard<'_> {
    #[inline]
    fn domain_addr(&self) -> usize {
        std::sync::Arc::as_ptr(&self.handle.domain) as usize
    }

    #[inline]
    fn protect<T>(&mut self, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        // Same publication protocol as IBR's upper bound: the era is published
        // before the pointer that is returned is (re-)read, so any returned
        // pointer's birth era is covered by the published era.
        let slot = &self.handle.domain.slots[self.handle.claim.index];
        let global = &self.handle.domain.global_era;
        loop {
            let ptr = src.load(Ordering::Acquire);
            let era = global.load(Ordering::SeqCst);
            if era == self.cached_era {
                return ptr;
            }
            slot.era.store(era, Ordering::SeqCst);
            self.cached_era = era;
        }
    }

    #[inline]
    fn announce<T>(&mut self, _idx: usize, _ptr: Shared<T>) {
        let slot = &self.handle.domain.slots[self.handle.claim.index];
        let era = self.handle.domain.global_era.load(Ordering::SeqCst);
        slot.era.store(era, Ordering::SeqCst);
        self.cached_era = era;
    }

    #[inline]
    fn dup(&mut self, _from: usize, _to: usize) {}

    #[inline]
    fn clear(&mut self, _idx: usize) {}

    fn alloc<T: Send + 'static>(&mut self, value: T) -> Shared<T> {
        let ptr = self.handle.pool.alloc(value);
        // ORDERING: a Relaxed era read can only lag the true era, making the
        // birth stamp conservatively old — strictly more protective for the
        // `-1S` stalled-reader exemption.  The Relaxed store is published to
        // retirers by the vault mutex taken at retire time.
        let era = self.handle.domain.global_era.load(Ordering::Relaxed);
        // SAFETY: `ptr` was just produced by `pool.alloc`; its header is live
        // and exclusively ours until the pointer is published.
        // ORDERING: see the era comment just above.
        unsafe { (*header_of(ptr)).birth_era.store(era, Ordering::Relaxed) };
        self.handle.alloc_count += 1;
        if self
            .handle
            .alloc_count
            .is_multiple_of(self.handle.domain.config.epoch_freq())
        {
            self.handle.domain.global_era.fetch_add(1, Ordering::SeqCst);
        }
        Shared::from_ptr(ptr)
    }

    // SAFETY: callers must guarantee `ptr` was never published to other threads.
    unsafe fn dealloc<T>(&mut self, ptr: Shared<T>) {
        // SAFETY: forwarded — same contract.
        unsafe { crate::limbo::dealloc(&mut self.handle.pool, ptr) };
    }

    /// Fast path: if nothing was pushed onto our slot list since entry (the
    /// head pointer still equals the entry boundary), there is no batch to
    /// acknowledge and the held reference can simply carry over — the whole
    /// leave/re-enter round trip is elided.  (A recycled block landing back
    /// at the exact boundary address would also elide; that is the same
    /// accepted address-ABA class as the leave traversal's boundary, see the
    /// module docs — batches are never freed early.)  Otherwise this is a
    /// genuine leave + re-enter, minus the registry owner re-check.
    fn repin(&mut self) {
        let idx = self.handle.claim.index;
        let domain = self.handle.domain.clone();
        let slot = &domain.slots[idx];
        let (_, head_ptr) = unpack(slot.head.load(Ordering::Acquire));
        if head_ptr == self.entry_addr {
            return;
        }
        // Leave: drop our reference, detaching the list if we are last.
        let observed = loop {
            let cur = slot.head.load(Ordering::Acquire);
            let (refs, ptr) = unpack(cur);
            debug_assert!(refs >= 1, "repin leave without matching enter");
            let new = if refs == 1 {
                pack(0, 0)
            } else {
                pack(refs - 1, ptr)
            };
            if slot
                .head
                .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break ptr;
            }
        };
        // SAFETY: this thread held its slot reference continuously from the
        // enter `fetch_add` that produced `entry_addr` until the CAS above
        // that released it and returned `observed` — exactly `acknowledge`'s
        // contract.
        unsafe { domain.acknowledge(observed, self.entry_addr, idx, &mut self.handle.pool) };
        // Re-enter with a fresh era and acknowledgement boundary.
        let era = domain.global_era.load(Ordering::SeqCst);
        slot.era.store(era, Ordering::SeqCst);
        self.cached_era = era;
        let prev = slot.head.fetch_add(REF_ONE, Ordering::AcqRel);
        let (_, entry_addr) = unpack(prev);
        self.entry_addr = entry_addr;
    }

    // SAFETY: callers must guarantee every pointer in `batch` satisfies the
    // per-node `retire` contract (unlinked, owned, retired exactly once).
    unsafe fn retire_batch<T: Send + 'static>(&mut self, batch: &[Shared<T>]) {
        if batch.is_empty() {
            return;
        }
        let handle = &mut *self.handle;
        let idx = handle.claim.index;
        let full = {
            let mut vault = handle.domain.vaults[idx].lock();
            vault.nodes.reserve(batch.len());
            for &ptr in batch {
                let value = ptr.untagged().as_ptr();
                debug_assert!(!value.is_null());
                // SAFETY: the caller guarantees every element came from
                // `alloc` on this domain and is already unlinked, so each
                // block header is live.
                let hdr = unsafe { header_of(value) };
                // SAFETY: header valid as above.
                // ORDERING: Relaxed read — the stamp was written before the
                // pointer was published, and unlink + retire on this thread
                // ordered us after any concurrent refresh; the value only
                // feeds the conservative `min_birth` minimum.
                let birth = unsafe { (*hdr).birth_era.load(Ordering::Relaxed) };
                vault.min_birth = vault.min_birth.min(birth);
                vault.nodes.push(hdr);
            }
            vault.nodes.len() >= handle.domain.batch_capacity
        };
        handle.domain.unreclaimed.add(idx, batch.len());
        if full {
            // One oversized push is fine: the batch carries *at least* one
            // linkage node per slot, and the vault mutex was touched once for
            // the whole batch instead of once per node.
            let domain = handle.domain.clone();
            domain.flush_vault(idx, idx, &mut handle.pool);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn repin_elides_on_untouched_list_and_acknowledges_otherwise() {
        let d = Hyaline::new(config());
        let mut holder = d.register();
        let mut worker = d.register();

        let mut g = holder.pin();
        let entry_before = g.entry_addr;
        // Nothing pushed onto our slot yet: repin must keep the boundary.
        g.repin();
        assert_eq!(g.entry_addr, entry_before, "untouched list elides repin");
        let (refs, _) = unpack(d.slots[0].head.load(Ordering::SeqCst));
        assert_eq!(refs, 1, "the elided repin must keep the reference held");

        // Worker churn pushes batches onto every active slot — ours included.
        for i in 0..16u64 {
            let mut wg = worker.pin();
            let p = wg.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { wg.retire(p) };
        }
        worker.flush();
        let pinned = d.unreclaimed();
        assert!(pinned > 0, "batches must be pinned by the held guard");

        // Repin now acknowledges everything pushed during the old critical
        // section: as the last holder the guard frees the pinned batches.
        g.repin();
        worker.flush();
        assert!(
            d.unreclaimed() < pinned,
            "repin must acknowledge and release pinned batches (got {} of {})",
            d.unreclaimed(),
            pinned
        );
        drop(g);
        drop(worker);
        drop(holder);
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn retire_batch_reclaims_like_per_node_retire() {
        crate::tests::retire_batch_reclaims_like_per_node_retire::<Hyaline>(config(), 10, 1);
    }

    #[test]
    fn leaked_handle_on_dead_thread_is_adopted() {
        // Die without unwinding the handle; the sub-batch stays in the vault
        // until a survivor adopts and flushes it.
        let d =
            crate::tests::leaked_handle_on_dead_thread_is_adopted::<Hyaline>(config(), 3, false, 1);
        assert_eq!(d.registry.poisoned(), 0, "death outside a CS recycles");
    }

    #[test]
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
            d.registry.poisoned(),
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
