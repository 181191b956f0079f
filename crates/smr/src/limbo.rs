//! The retire core: the slot lifecycle of all eight schemes, the one handle
//! and the one guard they hand out, and everything that happens to a block
//! between `retire` and `free` under the six limbo-list schemes.
//!
//! To a data structure a reclamation scheme is a reservation format plus a
//! "may this block be freed" test; the rest is plumbing that does not depend
//! on the scheme.  This module owns it: [`RetireCore`] holds the slot
//! registry, the scheme's padded reservation records, one padded retire
//! record per slot (the slot's *vault* and its share of the `unreclaimed`
//! count, see [`SlotRetire`]), the orphan list and the shared block pool;
//! one blanket impl is every domain's [`Smr`], [`Handle`] its handle and
//! [`Guard`] its guard.  A scheme file plugs in through four traits:
//!
//! * [`Domain`] — its legend, its reservation record, how it is built around
//!   the core, its global clock, and how a slot's reservation is withdrawn;
//! * [`Lifecycle`] — what retire, flush, release and adoption do with a slot's
//!   vault;
//! * [`Scheme`] — the limbo sweep's stamps and predicate.  One blanket impl
//!   turns it into the [`Lifecycle`] of [`crate::Ebr`], [`crate::Hp`],
//!   [`crate::He`], [`crate::Ibr`], [`crate::Nbr`] and [`crate::Vbr`];
//! * [`ReadSide`] — the paper's Figure 1: enter, exit, `protect`, `announce`,
//!   and `dup`, `clear`, `needs_restart`, `checkpoint` where the scheme has
//!   them.
//!
//! [`crate::Hyaline`] shares the lifecycle and the vault, not the sweep: it
//! flushes its vault as reference-counted batches freed by the last
//! acknowledger, so it has no `can_free` to ask.  [`crate::Nr`] shares the
//! lifecycle and leaks.
//!
//! The traits are `pub` so that they may bound the `pub` [`Handle`] and
//! [`Guard`], and are exactly as unnameable outside the crate as this module.
//!
//! ## Vaults, orphans, adoption
//!
//! Retired-but-unreclaimed blocks live in per-slot vaults owned by the
//! *domain* rather than by the handle, so that when a thread dies without
//! dropping its handle (see [`crate::registry`]) a survivor can adopt the
//! slot: for a limbo-list scheme the dead owner's reservation is neutralized
//! — sound because the owner can issue no further loads — its vault moves to
//! the shared orphan list, and the slot returns to the free pool.  A handle
//! that is dropped normally does the same to its own slot after one last
//! sweep.
//!
//! A vault takes no lock: it has one writer at a time, handed over along
//! edges the registry already orders.  The owner writes it through its
//! [`Pinned`] — retire, scan, Hyaline's flush, release.  When the owner's
//! thread exits, its beacon fires (a Release store) and an adopter that sees
//! it (an Acquire load) takes over while it holds the slot's [`AdoptGuard`].
//! Release and adoption end with the slot marked free (Release), and the next
//! claim (an AcqRel CAS) starts after them.  DEBRA's per-thread limbo bags
//! (Brown) work the same way; here the bag stays domain-owned so a survivor
//! can reach it after a thread dies holding it.  Each record sits on its own
//! cache lines, so one slot's retirements never pull in another's.
//!
//! ## One scan
//!
//! A scan fires when the owner's vault reaches `scan_threshold` entries (or
//! on `flush`, with `force`): [`Scheme::before_scan`], sweep the own vault,
//! adopt dead slots and sweep the orphan list, and — if the own vault is
//! still over the threshold (non-empty, when forced) — [`Scheme::still_blocked`]
//! and at most one more sweep.  A sweep takes one [`Scheme::snapshot`] and
//! keeps exactly the entries [`Scheme::can_free`] rejects.

use crate::block::Retired;
use crate::pool::{BlockPool, PoolShared};
use crate::ptr::{Atomic, Shared};
use crate::registry::{AdoptGuard, PinBinding, SlotClaim, SlotRegistry};
use crate::{Smr, SmrConfig, SmrError, SmrGuard, SmrHandle, SmrKind};
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::Arc;

/// What every domain gives the shared slot lifecycle: its legend, its
/// reservation record, the core it embeds, its global clock, and how a
/// slot's reservation is withdrawn.
pub trait Domain: Send + Sync + Sized + 'static {
    /// The scheme's legend; HP, HE and IBR report their `*opt` variant under
    /// [`SmrConfig::snapshot_scan`].
    const KIND: SmrKind;

    /// One thread's reservation record.  `Default` is the state that
    /// protects nothing: the core builds one per registry slot from it.
    type Slot: Default;

    /// Builds the domain around `core` ([`Smr::new`]).
    fn build(core: RetireCore<Self::Slot>) -> Self;

    /// The core this domain embeds.
    fn core(&self) -> &RetireCore<Self::Slot>;

    /// The global era/epoch that every `alloc` stamps into
    /// `Header::birth_era` and that each handle advances once per
    /// `epoch_freq` allocations — and retirements, under a limbo-list
    /// scheme — if the scheme has one.
    #[inline]
    fn clock(&self) -> Option<&AtomicU64> {
        None
    }

    /// Withdraws every reservation published in `slot`, leaving the state
    /// that protects nothing.  Called when a slot is claimed, and by a
    /// limbo-list scheme's release and adoption — never while a guard of that
    /// slot can still dereference through the reservation.
    fn neutralize(&self, slot: usize);
}

/// What retirement, `flush`, release and adoption do with a slot: the
/// lifecycle steps a domain does not share.  One blanket impl gives them to
/// every [`Scheme`]; Hyaline and NR write their own.
pub trait Lifecycle: Domain {
    /// Retires `batch` on behalf of the owner of `pinned`.
    fn retire(pinned: &mut Pinned<'_, Self>, batch: impl ExactSizeIterator<Item = Retired>);

    /// One forced reclamation pass: [`SmrHandle::flush`].
    fn flush(pinned: &mut Pinned<'_, Self>);

    /// Tears down the slot of `pinned` as its handle drops.  Runs under the
    /// slot's beacon mutex after the generation check
    /// ([`SlotRegistry::release_with`]); guards cannot outlive their handle,
    /// so no guard of the slot is alive.
    fn release(pinned: &mut Pinned<'_, Self>);

    /// Adopts the slot of `adoption`, whose owning thread died without
    /// releasing it, on behalf of the owner of `pinned`, and ends `adoption`
    /// with [`AdoptGuard::finish`] or [`AdoptGuard::poison`].
    fn adopt(adoption: AdoptGuard<'_>, pinned: &mut Pinned<'_, Self>);
}

/// What a limbo-list scheme adds to its [`Domain`]: what it stamps on a
/// retired block, the predicate that decides when a retired block may be
/// freed, and two scan hooks.
///
/// # Safety
/// The sweep frees every record `can_free` accepts, so an implementation must
/// guarantee: for a `snapshot` returned by [`Scheme::snapshot`] *after* the
/// record's block was retired (unlinked from the structure and stamped with
/// [`Scheme::retire_stamp`]), `can_free(&snapshot, record)` returns `true`
/// only if no thread holds, or can still obtain, a protected reference to the
/// block.  [`Domain::neutralize`] must leave the slot's reservation in the
/// state that protects nothing.
pub unsafe trait Scheme: Domain {
    /// What one sweep needs to know about every live reservation: the global
    /// epoch (EBR), the minimum announced checkpoint/epoch (NBR, VBR), or the
    /// sorted hazard/era/interval list under `snapshot_scan` (`None` selects
    /// the per-record registry scan).
    type Snapshot;

    /// Era/epoch to stamp into `Header::retire_era` at retirement, if the
    /// predicate reads it.  A relaxed read of the global clock is enough: the
    /// stamp is read by the vault's owner, or by whoever takes the vault over
    /// after the owner/adopter hand-off (see the module docs).
    fn retire_stamp(&self) -> Option<u64>;

    /// Captures the reservations one sweep is judged against.
    fn snapshot(&self) -> Self::Snapshot;

    /// Whether `retired` may be freed; see the trait's safety contract.
    fn can_free(&self, snapshot: &Self::Snapshot, retired: &Retired) -> bool;

    /// Runs first in every scan (`force` on `flush`).
    #[inline]
    fn before_scan(&self, _force: bool) {}

    /// Runs when a scan left the owner's vault blocked; returns whether one
    /// more sweep is worth it.
    #[inline]
    fn still_blocked(&self) -> bool {
        false
    }
}

impl<S: Scheme> Lifecycle for S {
    /// Pushes `batch` into the vault and scans if the vault reached the
    /// threshold — amortized reclamation, one scan per `scan_threshold`
    /// retirements (§5 of the paper) — then counts the retirements towards
    /// the next clock advance.
    #[inline]
    fn retire(pinned: &mut Pinned<'_, S>, batch: impl ExactSizeIterator<Item = Retired>) {
        let n = batch.len();
        let pending = pinned.push_vault(batch, pinned.scheme.retire_stamp());
        if pending >= pinned.scheme.core().config.scan_threshold {
            pinned.scan(false);
        }
        pinned.tick(n);
    }

    fn flush(pinned: &mut Pinned<'_, S>) {
        pinned.scan(true);
    }

    /// Neutralizes first — no guard of the slot is alive — so the last sweep
    /// frees what only this slot still pinned; the rest moves to the orphan
    /// list.
    fn release(pinned: &mut Pinned<'_, S>) {
        pinned.scheme.neutralize(pinned.slot);
        pinned.sweep_vault();
        let core = pinned.scheme.core();
        core.orphan(pinned.vault().0);
    }

    /// Neutralizes the dead owner's reservation, so neither the scheme's
    /// clock nor the memory stays pinned forever, moves its vault to the
    /// orphan list and recycles the slot.
    fn adopt(mut adoption: AdoptGuard<'_>, pinned: &mut Pinned<'_, S>) {
        pinned.scheme.neutralize(adoption.slot());
        let core = pinned.scheme.core();
        core.orphan(pinned.adopted_vault(&mut adoption).0);
        adoption.finish();
    }
}

/// A scheme's read-side protocol — the paper's Figure 1, the one part of a
/// scheme a data structure sees.  [`Guard`] turns it into the one
/// [`SmrGuard`] impl: allocation, retirement, `dealloc` and the domain brand
/// are the guard's own, written once.
///
/// Enter, exit, `protect` and `announce` have no default: a scheme that
/// forgot one would silently publish nothing.  The rest default to what a
/// scheme without per-slot hazards or a checkpoint protocol does: nothing.
pub trait ReadSide: Lifecycle {
    /// What a guard carries between calls beside its slot: a hazard budget, a
    /// cached era, the acknowledgement boundary — `()` for most schemes.
    type State;

    /// Opens a critical section on `slot`: publishes what the scheme
    /// announces at [`SmrHandle::pin`] and returns the guard's state.
    fn enter(&self, slot: &Self::Slot) -> Self::State;

    /// Closes it, withdrawing what the guard published.  Runs from the
    /// guard's `Drop`, on unwind too: a panicking operation releases its
    /// protections (RAII unwind safety).
    fn exit(guard: &mut Guard<'_, Self>);

    /// [`SmrGuard::protect`].
    fn protect<T>(guard: &mut Guard<'_, Self>, idx: usize, src: &Atomic<T>) -> Shared<T>;

    /// [`SmrGuard::announce`].
    fn announce<T>(guard: &mut Guard<'_, Self>, idx: usize, ptr: Shared<T>);

    /// [`SmrGuard::dup`].
    #[inline]
    fn dup(_guard: &mut Guard<'_, Self>, _from: usize, _to: usize) {}

    /// [`SmrGuard::clear`].
    #[inline]
    fn clear(_guard: &mut Guard<'_, Self>, _idx: usize) {}

    /// [`SmrGuard::needs_restart`].
    #[inline]
    fn needs_restart(_guard: &Guard<'_, Self>) -> bool {
        false
    }

    /// [`SmrGuard::checkpoint`].
    #[inline]
    fn checkpoint(_guard: &mut Guard<'_, Self>) {}

    /// Runs before every retirement, with the guard's protections still
    /// held.
    #[inline]
    fn before_retire(_guard: &mut Guard<'_, Self>) {}
}

/// Every domain is an [`Smr`] through its `ReadSide`: a scheme file writes
/// no `impl Smr` of its own.
impl<S: ReadSide> Smr for S {
    type Handle = Handle<S>;

    fn new(config: SmrConfig) -> Arc<Self> {
        Arc::new(S::build(RetireCore::new(config)))
    }

    fn try_register(self: &Arc<Self>) -> Result<Handle<S>, SmrError> {
        Handle::register(self)
    }

    fn unreclaimed(&self) -> usize {
        self.core().unreclaimed()
    }

    fn kind(&self) -> SmrKind {
        if !self.core().config.snapshot_scan {
            return S::KIND;
        }
        match S::KIND {
            SmrKind::Hp => SmrKind::HpOpt,
            SmrKind::He => SmrKind::HeOpt,
            SmrKind::Ibr => SmrKind::IbrOpt,
            SmrKind::Nr
            | SmrKind::Ebr
            | SmrKind::HpOpt
            | SmrKind::HeOpt
            | SmrKind::IbrOpt
            | SmrKind::Hyaline
            | SmrKind::Nbr
            | SmrKind::Vbr => S::KIND,
        }
    }
}

/// Domain-side state of the slot lifecycle and the retire path (see the
/// module docs), with the reservation records of a scheme whose slot is `T`.
pub struct RetireCore<T> {
    config: SmrConfig,
    registry: SlotRegistry,
    /// The scheme's reservation records, one per registry slot; `pin`
    /// resolves a guard's once per critical section.
    slots: Box<[CachePadded<T>]>,
    records: Box<[CachePadded<SlotRetire>]>,
    /// Limbo entries inherited from handles that were dropped (or whose
    /// thread died) before their retired blocks became reclaimable.  Any
    /// thread may sweep it, so it keeps its mutex.
    orphans: Mutex<Vec<Retired>>,
    pool: Arc<PoolShared>,
}

/// One slot's retire record: its vault of retired-but-unreclaimed blocks and
/// its share of the domain's `unreclaimed` count.
///
/// One thread at a time writes a record: the slot's owner through its
/// [`Pinned`], an adopter while it holds the slot's [`AdoptGuard`], and
/// [`RetireCore`]'s drop through `&mut self` (the argument is at
/// [`SlotRetire::vault`]).  So the vault needs no lock and the share is
/// updated with a plain load and store instead of a locked RMW.  Each record
/// is cache-padded: a retire touches no line another slot writes.
pub(crate) struct SlotRetire {
    #[expect(
        clippy::disallowed_types,
        reason = "the vault, opened only by `SlotRetire::vault`"
    )]
    vault: std::cell::UnsafeCell<Vec<Retired>>,
    /// Blocks retired minus blocks freed on this slot.  A thread that frees
    /// blocks another slot retired (orphan sweeps, Hyaline's any-thread
    /// freeing) debits its own share, so a share may go negative; only the
    /// sum over all slots is meaningful.  Written by the record's one writer,
    /// read by the sampler's [`RetireCore::unreclaimed`].
    unreclaimed: AtomicIsize,
}

// SAFETY: the only field that is not `Sync` is the vault, and it is opened
// only by `SlotRetire::vault`, for the record's one writer of the moment.
unsafe impl Sync for SlotRetire {}

impl SlotRetire {
    #[expect(clippy::disallowed_types, reason = "the vault's constructor")]
    fn new() -> Self {
        Self {
            vault: std::cell::UnsafeCell::new(Vec::new()),
            unreclaimed: AtomicIsize::new(0),
        }
    }

    /// Opens the vault.  Its two callers, [`Pinned::vault`] (the owner) and
    /// [`Pinned::adopted_vault`] (an adopter), each hand the vault out for no
    /// longer than they borrow their license mutably.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    #[expect(clippy::disallowed_types, reason = "the vault's one accessor")]
    fn vault(&self) -> &mut Vec<Retired> {
        // SAFETY: one thread at a time opens a record's vault, and no opener
        // opens it twice at once.
        // * The owner opens it through `&mut Pinned`.  A `Pinned` is `!Send`
        //   and exists only on the thread whose beacon is installed in the
        //   slot — `pin` and `flush` run `check_owner_and_bind` first — or,
        //   for release, under the slot's beacon mutex with the claim's
        //   generation checked.  So no adopter runs meanwhile: adoption needs
        //   the installed beacon to have fired, and the beacon mutex.
        // * An adopter opens it through `&mut AdoptGuard`, which holds the
        //   slot's beacon mutex and was handed out only after the installed
        //   beacon fired: the owner's thread is gone, and a stale handle's
        //   pin, flush or release waits on the mutex and then finds its
        //   generation bumped.  A poisoned slot is never claimed or adopted
        //   again, so its adopter keeps the license while the guard lives.
        // * `RetireCore::drop` has `&mut self` and uses `get_mut` instead.
        // The hand-offs are ordered: owner to adopter by the beacon's Release
        // store at thread exit and the adopter's Acquire load; owner or
        // adopter to the next owner by the registry's claim (the slot is
        // marked free with Release, `try_claim` acquires it with its CAS); a
        // handle that moves between threads by whatever moved it.
        unsafe { &mut *std::cell::UnsafeCell::get(&self.vault) }
    }

    /// Adds `delta` to this slot's share of `unreclaimed`.
    #[inline]
    fn count(&self, delta: isize) {
        // ORDERING: Relaxed, and a load and a store rather than an RMW: the
        // record has one writer at a time (see `vault`, whose hand-offs order
        // successive writers), and the sum is exact only at quiescence.
        let share = self.unreclaimed.load(Ordering::Relaxed);
        // ORDERING: see the load above.
        self.unreclaimed.store(share + delta, Ordering::Relaxed);
    }
}

impl<T: Default> RetireCore<T> {
    /// Creates the core for a domain, every reservation record at its
    /// default.  Panics if `config` violates its invariants (see
    /// [`SmrConfig::validate`]).
    pub(crate) fn new(config: SmrConfig) -> Self {
        let config = config.validated();
        Self {
            registry: SlotRegistry::new(config.max_threads),
            slots: (0..config.max_threads)
                .map(|_| CachePadded::new(T::default()))
                .collect(),
            records: (0..config.max_threads)
                .map(|_| CachePadded::new(SlotRetire::new()))
                .collect(),
            orphans: Mutex::new(Vec::new()),
            pool: PoolShared::new(config.pool_blocks(), config.max_threads),
            config,
        }
    }
}

impl<T> RetireCore<T> {
    /// The domain's (validated) configuration.
    #[inline]
    pub(crate) fn config(&self) -> &SmrConfig {
        &self.config
    }

    /// Retired-but-not-yet-reclaimed blocks across the domain: the sum of
    /// every slot's share, clamped at zero.  Exact at quiescence; a sum taken
    /// during retire/free traffic may miss updates in flight.
    pub(crate) fn unreclaimed(&self) -> usize {
        // ORDERING: Relaxed — sampler path; see above.
        let sum: isize = self
            .records
            .iter()
            .map(|r| r.unreclaimed.load(Ordering::Relaxed))
            .sum();
        sum.max(0) as usize
    }

    /// The reservation records whose slot carries reservations a reclaimer
    /// must honour, in ascending slot order.
    #[inline]
    pub(crate) fn claimed(&self) -> impl Iterator<Item = &T> + '_ {
        (self.slots.iter().enumerate())
            .filter(|(i, _)| self.registry.is_claimed(*i))
            .map(|(_, slot)| &**slot)
    }

    /// The reservation record of registry slot `index`, for the lifecycle
    /// hooks: a guard uses the one `pin` resolved (scot-lint L5).
    #[inline]
    pub(crate) fn reservation(&self, index: usize) -> &T {
        &self.slots[index]
    }

    /// Moves whatever is left in `vault` to the orphan list.
    fn orphan(&self, vault: &mut Vec<Retired>) {
        if !vault.is_empty() {
            self.orphans.lock().append(vault);
        }
    }
}

/// Frees every entry of `limbo` the scheme's predicate accepts, keeping the
/// rest in order, and returns how many it freed.  Freed blocks recycle into
/// `pool`.
fn sweep<S: Scheme>(scheme: &S, limbo: &mut Vec<Retired>, pool: &mut BlockPool) -> usize {
    let snapshot = scheme.snapshot();
    let before = limbo.len();
    limbo.retain(|r| {
        if !scheme.can_free(&snapshot, r) {
            return true;
        }
        // SAFETY: the record sits in a limbo list, so its block was retired
        // before `snapshot` was taken, and the `Scheme` contract then makes
        // `can_free` a proof that no thread holds or can obtain a protected
        // reference.  Each block appears in exactly one record and `retain`
        // drops that record right after.
        unsafe { r.reclaimable() }.free_into(pool);
        false
    });
    before - limbo.len()
}

impl<T> Drop for RetireCore<T> {
    fn drop(&mut self) {
        // `&mut self` already orders every slot's accesses before this (the
        // last `Arc` drop).  Acquiring each slot's last release or adoption
        // restates that edge through the registry, where a race detector
        // sees it: TSan does not model the `Arc`'s fence.
        for slot in 0..self.registry.capacity() {
            self.registry.is_claimed(slot);
        }
        // What is left are the vaults of slots leaked by dead threads that no
        // survivor adopted, and the orphan list.
        let orphans = std::mem::take(&mut *self.orphans.lock());
        let vaults = self
            .records
            .iter_mut()
            .map(|r| std::mem::take(r.vault.get_mut()));
        for r in vaults.flatten().chain(orphans) {
            // SAFETY: every handle holds an `Arc` of the domain that embeds
            // this core, so `&mut self` proves no handle — and hence no guard
            // — exists; nothing can be protected any more.  Hyaline clears its
            // vault as soon as a batch is pushed, so each is freed once.
            unsafe { r.reclaimable() }.free();
        }
    }
}

/// Every domain's per-thread handle: the claimed slot, its liveness binding,
/// and what only the owner touches.  The domain is shared with every thread;
/// `pin` lends both halves out at once (a disjoint-field borrow), so a guard
/// resolves what it needs — scheme, reservation slot, pool — when the
/// critical section opens and never walks handle → `Arc` → slot array again.
pub struct Handle<S: Lifecycle> {
    domain: Arc<S>,
    claim: SlotClaim,
    binding: PinBinding,
    local: Local,
}

/// The owner's half of a handle, lent out behind one `&mut` so that a
/// [`Pinned`] stays three words.
struct Local {
    pool: BlockPool,
    /// Countdown to the next advance of [`Domain::clock`], if any.
    era_tick: EraCountdown,
}

impl<S: Lifecycle> Handle<S> {
    /// Claims a slot of `domain` for the calling thread.
    pub(crate) fn register(domain: &Arc<S>) -> Result<Self, SmrError> {
        let core = domain.core();
        let claim = core.registry.try_claim().ok_or(SmrError::RegistryFull {
            capacity: core.registry.capacity(),
        })?;
        // Every claim starts from the neutral state, so a scheme's enter
        // assumes nothing about the previous owner (Hyaline's release and
        // adoption leave the slot to this reset).
        domain.neutralize(claim.index);
        Ok(Self {
            local: Local {
                pool: BlockPool::new(core.pool.clone(), core.config.pool_blocks()),
                era_tick: EraCountdown::new(&core.config),
            },
            domain: domain.clone(),
            claim,
            binding: PinBinding::new(),
        })
    }

    /// Lends the handle out without the owner check: the caller has run
    /// it (`pin`, `flush`), or holds the slot's beacon mutex (release).
    #[inline]
    pub(crate) fn lend(&mut self) -> Pinned<'_, S> {
        Pinned {
            scheme: &self.domain,
            slot: self.claim.index,
            local: &mut self.local,
            _thread_bound: std::marker::PhantomData,
        }
    }
}

impl<S: ReadSide> SmrHandle for Handle<S> {
    type Guard<'g>
        = Guard<'g, S>
    where
        Self: 'g;

    /// Verifies the slot was not adopted and binds its liveness beacon to the
    /// calling thread ([`SlotRegistry::check_owner_and_bind`]), resolves the
    /// reservation slot once, and enters the scheme's critical section on it.
    #[inline]
    fn pin(&mut self) -> Guard<'_, S> {
        let registry = &self.domain.core().registry;
        registry.check_owner_and_bind(self.claim, &mut self.binding);
        let pinned = self.lend();
        let slot = &pinned.scheme.core().slots[pinned.slot];
        Guard {
            state: pinned.scheme.enter(slot),
            pinned,
            slot,
        }
    }

    /// Runs `pin`'s owner check first: a handle whose slot was adopted must
    /// not sweep the vault of the slot's next owner.
    fn flush(&mut self) {
        let registry = &self.domain.core().registry;
        registry.check_owner_and_bind(self.claim, &mut self.binding);
        S::flush(&mut self.lend());
    }
}

impl<S: Lifecycle> Drop for Handle<S> {
    fn drop(&mut self) {
        let claim = self.claim;
        let mut pinned = self.lend();
        let registry = &pinned.scheme.core().registry;
        // If the slot was adopted (its last pinning thread died while the
        // handle lived elsewhere) the generation check skips the release:
        // the adopter already tore the slot down.
        registry.release_with(claim, || S::release(&mut pinned));
    }
}

/// Every domain's critical-section guard: the lent-out handle, the
/// reservation slot `pin` resolved, and the scheme's per-guard state.  Its
/// methods are the scheme's [`ReadSide`]; no guard method re-derives the
/// domain or the slot (scot-lint L5).
#[must_use = "dropping a guard unpublishes every protection it holds"]
pub struct Guard<'g, S: ReadSide> {
    pinned: Pinned<'g, S>,
    /// The handle's reservation record, resolved once in `pin`.
    slot: &'g S::Slot,
    /// The scheme's own: nothing here reads or writes it.
    pub(crate) state: S::State,
}

impl<'g, S: ReadSide> Guard<'g, S> {
    /// The domain the guard publishes into.
    #[inline]
    pub(crate) fn scheme(&self) -> &'g S {
        self.pinned.scheme
    }

    /// The handle's reservation record.
    #[inline]
    pub(crate) fn slot(&self) -> &'g S::Slot {
        self.slot
    }

    /// The lent-out handle, for a scheme whose exit frees blocks.
    #[inline]
    pub(crate) fn pinned(&mut self) -> &mut Pinned<'g, S> {
        &mut self.pinned
    }
}

impl<S: ReadSide> Drop for Guard<'_, S> {
    fn drop(&mut self) {
        S::exit(self);
    }
}

impl<S: ReadSide> SmrGuard for Guard<'_, S> {
    #[inline]
    fn domain_addr(&self) -> usize {
        std::ptr::from_ref(self.pinned.scheme) as usize
    }

    #[inline]
    fn protect<T>(&mut self, idx: usize, src: &Atomic<T>) -> Shared<T> {
        S::protect(self, idx, src)
    }

    #[inline]
    fn announce<T>(&mut self, idx: usize, ptr: Shared<T>) {
        S::announce(self, idx, ptr);
    }

    #[inline]
    fn dup(&mut self, from: usize, to: usize) {
        S::dup(self, from, to);
    }

    #[inline]
    fn clear(&mut self, idx: usize) {
        S::clear(self, idx);
    }

    #[inline]
    fn alloc<T: Send + 'static>(&mut self, value: T) -> Shared<T> {
        self.pinned.alloc(value)
    }

    /// Mints each element's [`Retired`] record: the one `unsafe` step on the
    /// retire path.
    // SAFETY: callers must guarantee every pointer in `batch` satisfies the
    // per-node `retire` contract (unlinked, owned, retired exactly once).
    #[inline]
    unsafe fn retire_batch<T: Send + 'static>(&mut self, batch: &[Shared<T>]) {
        S::before_retire(self);
        // SAFETY: the caller's contract is, element by element, the contract
        // of `Retired::new`.
        let batch = batch.iter().map(|&ptr| unsafe { Retired::new(ptr) });
        S::retire(&mut self.pinned, batch);
    }

    // SAFETY: callers must guarantee `ptr` was never published to other threads.
    #[inline]
    unsafe fn dealloc<T>(&mut self, ptr: Shared<T>) {
        // SAFETY: `ptr` came from `alloc` and was never published, so it is
        // linked nowhere, no thread can protect it, and this thread is its
        // sole owner: it is retired and reclaimable at once, and freed once.
        unsafe { Retired::new(ptr).reclaimable() }.free_into(self.pinned.pool());
    }

    #[inline]
    fn needs_restart(&self) -> bool {
        S::needs_restart(self)
    }

    #[inline]
    fn checkpoint(&mut self) {
        S::checkpoint(self);
    }
}

/// A [`Handle`] lent out for one critical section (or one `flush`, release
/// or adoption): the domain by `&`, the owner's pool and clock countdown by
/// `&mut`, the slot index by value.
pub struct Pinned<'g, S: Lifecycle> {
    scheme: &'g S,
    slot: usize,
    local: &'g mut Local,
    /// Makes every guard `!Send`/`!Sync`: a guard is the pinning thread's
    /// read-side critical section, and the slot registry's liveness beacon
    /// tracks exactly that thread (see [`crate::registry`]) — a guard that
    /// crossed threads could see its protections neutralized when the
    /// pinning thread exits.
    _thread_bound: std::marker::PhantomData<*mut ()>,
}

impl<'g, S: Lifecycle> Pinned<'g, S> {
    /// The domain the handle registered with.
    #[inline]
    pub(crate) fn scheme(&self) -> &'g S {
        self.scheme
    }

    /// The thread's block pool.
    #[inline]
    pub(crate) fn pool(&mut self) -> &mut BlockPool {
        &mut self.local.pool
    }

    /// Counts `n` allocations or retirements towards the next advance of
    /// [`Domain::clock`].
    #[inline]
    fn tick(&mut self, n: usize) {
        if let Some(clock) = self.scheme.clock() {
            self.local.era_tick.tick(n, clock);
        }
    }

    /// Allocates a block through the thread's pool, its birth era stamped
    /// and the allocation counted if the scheme has a clock.
    #[inline]
    pub(crate) fn alloc<T>(&mut self, value: T) -> Shared<T> {
        let era = match self.scheme.clock() {
            Some(clock) => {
                // ORDERING: Relaxed — a read that lags the true era stamps the
                // birth conservatively *old*, which only widens what a
                // reservation covers.  The stamp is published together with
                // the pointer by whatever store links the block, and is read
                // by the vault's owner, or after the owner/adopter hand-off.
                let era = clock.load(Ordering::Relaxed);
                self.local.era_tick.tick(1, clock);
                era
            }
            None => 0,
        };
        Shared::from_ptr(self.local.pool.alloc(value, era))
    }

    /// Counts `n` more blocks as retired and not yet reclaimed, on this
    /// slot's share.
    #[inline]
    pub(crate) fn count_retired(&self, n: usize) {
        self.scheme.core().records[self.slot].count(n as isize);
    }

    /// Counts `n` blocks as reclaimed, on this slot's share — often not the
    /// slot they were retired on; only the sum is meaningful.
    #[inline]
    pub(crate) fn count_freed(&self, n: usize) {
        self.scheme.core().records[self.slot].count(-(n as isize));
    }

    /// Opens this slot's vault — the owner's role (see [`SlotRetire`]) —
    /// beside the owner's pool.
    #[inline]
    pub(crate) fn vault(&mut self) -> (&mut Vec<Retired>, &mut BlockPool) {
        let vault = self.scheme.core().records[self.slot].vault();
        (vault, &mut self.local.pool)
    }

    /// Opens the vault of the slot `adoption` tears down — the adopter's role
    /// (see [`SlotRetire`]) — beside this thread's pool.  The vault stays open
    /// for as long as the adoption license is borrowed.
    pub(crate) fn adopted_vault<'a>(
        &'a mut self,
        adoption: &'a mut AdoptGuard<'_>,
    ) -> (&'a mut Vec<Retired>, &'a mut BlockPool) {
        let vault = self.scheme.core().records[adoption.slot()].vault();
        (vault, &mut self.local.pool)
    }

    /// Appends `batch` to this slot's vault with one update of its share,
    /// stamping each block's retire era with `stamp` if given, and returns
    /// how many entries the vault now holds (0 for an empty batch).
    /// Limbo-list retirement scans and Hyaline flushes past their threshold.
    #[inline]
    pub(crate) fn push_vault(
        &mut self,
        batch: impl ExactSizeIterator<Item = Retired>,
        stamp: Option<u64>,
    ) -> usize {
        let n = batch.len();
        if n == 0 {
            return 0;
        }
        let vault = self.vault().0;
        if n > 1 {
            vault.reserve(n);
        }
        for retired in batch {
            if let Some(era) = stamp {
                // ORDERING: Relaxed — read by this vault's sweeps, on this
                // thread or after the owner/adopter hand-off.
                retired.header().retire_era.store(era, Ordering::Relaxed);
            }
            vault.push(retired);
        }
        let pending = vault.len();
        self.count_retired(n);
        pending
    }

    /// Adopts every slot whose owning thread died without releasing it
    /// (leaked handle, thread torn down first), handing each to the scheme's
    /// [`Lifecycle::adopt`].
    pub(crate) fn adopt_orphans(&mut self) {
        let (registry, me) = (&self.scheme.core().registry, self.slot);
        for i in (0..registry.capacity()).filter(|&i| i != me) {
            if let Some(adoption) = registry.try_begin_adopt(i) {
                S::adopt(adoption, self);
            }
        }
    }
}

impl<S: Scheme> Pinned<'_, S> {
    /// One reclamation pass (see the module docs); `force` is `flush`.
    fn scan(&mut self, force: bool) {
        let scheme = self.scheme;
        let core = scheme.core();
        scheme.before_scan(force);
        let left = self.sweep_vault();
        self.adopt_orphans();
        if let Some(mut orphans) = core.orphans.try_lock() {
            if !orphans.is_empty() {
                let freed = sweep(scheme, &mut orphans, &mut self.local.pool);
                self.count_freed(freed);
            }
        }
        let blocked = if force {
            left > 0
        } else {
            left >= core.config.scan_threshold
        };
        if blocked && scheme.still_blocked() {
            self.sweep_vault();
        }
    }

    /// Sweeps this slot's vault and returns how many entries stay behind —
    /// what the scan's blocked check consumes.
    fn sweep_vault(&mut self) -> usize {
        let scheme = self.scheme;
        let (vault, pool) = self.vault();
        if vault.is_empty() {
            return 0;
        }
        let freed = sweep(scheme, vault, pool);
        let left = vault.len();
        if freed > 0 {
            self.count_freed(freed);
        }
        left
    }
}

/// Per-handle countdown to the next advance of a global era/epoch clock: the
/// paper's "once every `epoch_freq` allocations or retirements" (§5), shared
/// by the alloc and the retire cadence, without a division on either path.
pub(crate) struct EraCountdown {
    left: isize,
    freq: isize,
}

impl EraCountdown {
    /// A countdown that fires every [`SmrConfig::epoch_freq`] events.
    pub(crate) fn new(config: &SmrConfig) -> Self {
        let freq = config.epoch_freq() as isize;
        Self { left: freq, freq }
    }

    /// Counts `n` allocations or retirements, advancing `clock` once per
    /// `epoch_freq` events crossed.
    #[inline]
    pub(crate) fn tick(&mut self, n: usize, clock: &AtomicU64) {
        self.left -= n as isize;
        while self.left <= 0 {
            clock.fetch_add(1, Ordering::SeqCst);
            self.left += self.freq;
        }
    }
}

/// Announces `clock` in `announced` until the clock has not moved past the
/// announcement, so a critical section never runs under an announcement
/// older than the clock it confirmed; returns the announced value.  EBR's
/// enter, NBR's checkpoint and VBR's epoch announcement.
#[inline]
pub(crate) fn announce_confirmed(clock: &AtomicU64, announced: &AtomicU64) -> u64 {
    loop {
        let e = clock.load(Ordering::SeqCst);
        announced.store(e, Ordering::SeqCst);
        if clock.load(Ordering::SeqCst) == e {
            return e;
        }
    }
}

/// Loads `src` under a published era: whenever `clock` moved past `cached`
/// (the era `published` holds) the new era is published *before* the
/// pointer is re-read, so any pointer returned was loaded under a published
/// era covering its birth.  IBR's upper bound and Hyaline's era.
#[inline]
pub(crate) fn protect_era<T>(
    src: &Atomic<T>,
    clock: &AtomicU64,
    published: &AtomicU64,
    cached: &mut u64,
) -> Shared<T> {
    loop {
        let ptr = src.load(Ordering::Acquire);
        let era = clock.load(Ordering::SeqCst);
        if era == *cached {
            return ptr;
        }
        published.store(era, Ordering::SeqCst);
        *cached = era;
    }
}

/// Publishes the current era of `clock` in `published` and caches it: IBR's
/// and Hyaline's `announce`.
#[inline]
pub(crate) fn publish_era(clock: &AtomicU64, published: &AtomicU64, cached: &mut u64) {
    let era = clock.load(Ordering::SeqCst);
    published.store(era, Ordering::SeqCst);
    *cached = era;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::alloc_block;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    /// Retires `nodes` through the lent-out handle, skipping `pin`'s owner
    /// check.
    ///
    /// # Safety
    /// The [`SmrGuard::retire`] contract for every element.
    unsafe fn retire<T>(h: &mut Handle<Fake>, nodes: &[Shared<T>]) {
        // SAFETY: forwarded — same contract.
        Fake::retire(
            &mut h.lend(),
            nodes.iter().map(|&p| unsafe { Retired::new(p) }),
        );
    }

    impl<T> RetireCore<T> {
        /// The slot registry, for tests that simulate a dead owner.
        pub(crate) fn registry(&self) -> &SlotRegistry {
            &self.registry
        }

        /// Length and capacity of the vault of `slot`; quiescent callers only.
        pub(crate) fn vault_shape(&self, slot: usize) -> (usize, usize) {
            let vault = self.records[slot].vault();
            (vault.len(), vault.capacity())
        }

        /// The share of `unreclaimed` charged to `slot`.
        fn share(&self, slot: usize) -> isize {
            self.records[slot].unreclaimed.load(Ordering::SeqCst)
        }
    }

    /// Retire stamp of the fake scheme; `can_free` checks every record
    /// carries it, i.e. that stamping happens before a record is swept.
    const STAMP: u64 = 7;

    /// Test double: the test decides which records may be freed and which
    /// slots are dead, and sees every call the core makes.
    struct Fake {
        core: RetireCore<()>,
        /// Value addresses `can_free` accepts (all of them if `permit_all`).
        permitted: Mutex<Vec<usize>>,
        permit_all: AtomicBool,
        /// Every `neutralize(slot)` call, in order.
        neutralized: Mutex<Vec<usize>>,
        scans: AtomicUsize,
        blocked: AtomicUsize,
    }

    impl Fake {
        fn new(max_threads: usize, scan_threshold: usize) -> Arc<Self> {
            <Self as Smr>::new(SmrConfig {
                max_threads,
                scan_threshold,
                ..SmrConfig::default()
            })
        }

        fn permit<T>(&self, ptr: Shared<T>) {
            self.permitted.lock().push(ptr.into_raw());
        }

        fn vault_values(&self, slot: usize) -> Vec<usize> {
            let vault = self.core.records[slot].vault();
            vault.iter().map(Retired::value).collect()
        }
    }

    impl Domain for Fake {
        /// No legend of its own.
        const KIND: SmrKind = SmrKind::Nr;
        type Slot = ();

        fn build(core: RetireCore<()>) -> Self {
            Self {
                core,
                permitted: Mutex::new(Vec::new()),
                permit_all: AtomicBool::new(false),
                neutralized: Mutex::new(Vec::new()),
                scans: AtomicUsize::new(0),
                blocked: AtomicUsize::new(0),
            }
        }

        fn core(&self) -> &RetireCore<()> {
            &self.core
        }

        fn neutralize(&self, slot: usize) {
            self.neutralized.lock().push(slot);
        }
    }

    // SAFETY: test double — no reader ever holds a reference to a block these
    // single-threaded tests retire, so every `can_free` answer is sound, and
    // there is no reservation for `neutralize` to withdraw.
    unsafe impl Scheme for Fake {
        type Snapshot = ();

        fn retire_stamp(&self) -> Option<u64> {
            Some(STAMP)
        }

        fn snapshot(&self) {}

        fn can_free(&self, _: &(), retired: &Retired) -> bool {
            assert_eq!(retired.retire_era(), STAMP, "swept before stamped");
            self.permit_all.load(Ordering::SeqCst)
                || self.permitted.lock().contains(&retired.value())
        }

        fn before_scan(&self, _force: bool) {
            self.scans.fetch_add(1, Ordering::SeqCst);
        }

        fn still_blocked(&self) -> bool {
            self.blocked.fetch_add(1, Ordering::SeqCst);
            true
        }
    }

    /// Publishes nothing: enough to drive the handle through `SmrHandle`.
    impl ReadSide for Fake {
        type State = ();

        fn enter(&self, _: &()) {}

        fn exit(_: &mut Guard<'_, Self>) {}

        fn protect<T>(_: &mut Guard<'_, Self>, _: usize, src: &Atomic<T>) -> Shared<T> {
            src.load(Ordering::Acquire)
        }

        fn announce<T>(_: &mut Guard<'_, Self>, _: usize, _: Shared<T>) {}
    }

    /// Payload whose destructor counts.
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn alloc_counted(
        h: &mut Handle<Fake>,
        n: usize,
        drops: &Arc<AtomicUsize>,
    ) -> Vec<Shared<Counted>> {
        (0..n)
            .map(|_| h.lend().alloc(Counted(drops.clone())))
            .collect()
    }

    #[test]
    fn sweep_frees_exactly_the_permitted_records_and_keeps_the_rest_in_order() {
        let d = Fake::new(2, 1024);
        let drops = Arc::new(AtomicUsize::new(0));
        let mut h = Handle::register(&d).unwrap();
        let nodes = alloc_counted(&mut h, 6, &drops);
        // SAFETY: freshly allocated, never published, retired exactly once.
        unsafe { retire(&mut h, &nodes) };
        assert_eq!(d.core.unreclaimed(), 6);
        for i in [1, 3, 4] {
            d.permit(nodes[i]);
        }
        Fake::flush(&mut h.lend());
        assert_eq!(drops.load(Ordering::SeqCst), 3);
        assert_eq!(d.core.unreclaimed(), 3);
        let kept: Vec<usize> = [0, 2, 5].iter().map(|&i| nodes[i].into_raw()).collect();
        assert_eq!(
            d.vault_values(h.claim.index),
            kept,
            "survivors keep retire order"
        );
        // Forced and still non-empty: the blocked hook ran, and so did the
        // one re-sweep it asked for (freeing nothing new).
        assert_eq!(d.blocked.load(Ordering::SeqCst), 1);
        assert_eq!(d.core.unreclaimed(), 3);
        d.permit_all.store(true, Ordering::SeqCst);
        Fake::flush(&mut h.lend());
        assert_eq!(drops.load(Ordering::SeqCst), 6);
        assert_eq!(d.core.unreclaimed(), 0);
    }

    #[test]
    fn unreclaimed_stays_exact_when_another_shard_sweeps() {
        let d = Fake::new(2, 1024);
        let drops = Arc::new(AtomicUsize::new(0));
        let mut a = Handle::register(&d).unwrap();
        let mut b = Handle::register(&d).unwrap();
        let nodes = alloc_counted(&mut a, 3, &drops);
        // SAFETY: freshly allocated, never published, retired exactly once.
        unsafe { retire(&mut a, &nodes) };
        // Nothing is freeable yet: dropping `a` sweeps, then orphans all 3.
        drop(a);
        assert_eq!(d.core.unreclaimed(), 3);
        assert_eq!(d.core.orphans.lock().len(), 3);
        // `b` frees what `a` retired, debiting its own shard.
        d.permit_all.store(true, Ordering::SeqCst);
        let more = alloc_counted(&mut b, 2, &drops);
        // SAFETY: as above.
        unsafe { retire(&mut b, &more) };
        assert_eq!(d.core.unreclaimed(), 5);
        Fake::flush(&mut b.lend());
        assert_eq!(d.core.unreclaimed(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn adoption_neutralizes_once_orphans_the_vault_and_recycles_the_slot() {
        let d = Fake::new(3, 1024);
        let drops = Arc::new(AtomicUsize::new(0));
        let mut dead = Handle::register(&d).unwrap();
        let mut survivor = Handle::register(&d).unwrap();
        let nodes = alloc_counted(&mut dead, 2, &drops);
        // SAFETY: freshly allocated, never published, retired exactly once.
        unsafe { retire(&mut dead, &nodes) };
        d.core.registry.simulate_owner_exit(dead.claim.index);
        d.neutralized.lock().clear(); // registration neutralizes too
        Fake::flush(&mut survivor.lend());
        Fake::flush(&mut survivor.lend());
        assert_eq!(
            *d.neutralized.lock(),
            [dead.claim.index],
            "once per dead slot"
        );
        assert!(d.vault_values(dead.claim.index).is_empty());
        assert_eq!(d.core.orphans.lock().len(), 2, "vault moved to the orphans");
        assert_eq!(d.core.unreclaimed(), 2);
        assert!(!d.core.registry.is_claimed(dead.claim.index));
        // The slot is handed out again, and the stale handle's drop must not
        // tear the new claim down.
        let reuse = Handle::register(&d).unwrap();
        assert_eq!(reuse.claim.index, dead.claim.index);
        d.neutralized.lock().clear();
        drop(dead);
        assert!(d.neutralized.lock().is_empty(), "stale release is a no-op");
        assert!(d.core.registry.is_claimed(reuse.claim.index));
        d.permit_all.store(true, Ordering::SeqCst);
        Fake::flush(&mut survivor.lend());
        assert_eq!(d.core.unreclaimed(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn mid_batch_threshold_crossing_triggers_exactly_one_scan() {
        let d = Fake::new(1, 4);
        let drops = Arc::new(AtomicUsize::new(0));
        let mut h = Handle::register(&d).unwrap();
        let nodes = alloc_counted(&mut h, 8, &drops);
        for &p in &nodes[..3] {
            // SAFETY: freshly allocated, never published, retired exactly once.
            unsafe { retire(&mut h, std::slice::from_ref(&p)) };
        }
        assert_eq!(d.scans.load(Ordering::SeqCst), 0, "below the threshold");
        // 3 + 5 crosses the threshold of 4 in the middle of the batch.
        // SAFETY: as above.
        unsafe { retire(&mut h, &nodes[3..]) };
        assert_eq!(d.scans.load(Ordering::SeqCst), 1);
        assert_eq!(d.blocked.load(Ordering::SeqCst), 1, "8 left >= threshold");
        assert_eq!(d.core.unreclaimed(), 8);
    }

    #[test]
    fn domain_drop_runs_every_destructor_exactly_once() {
        let d = Fake::new(2, 1024);
        let drops = Arc::new(AtomicUsize::new(0));
        // A vault resident (a slot leaked by a dead thread that nobody
        // adopted) and two orphans.
        let mut blocks = (0..3).map(|_| {
            let value = alloc_block(Counted(drops.clone()));
            // SAFETY: `value` was just allocated and is referenced nowhere else.
            unsafe { Retired::new(Shared::from_ptr(value)) }
        });
        d.core.records[1]
            .vault()
            .push(blocks.next().expect("three blocks"));
        d.core.orphans.lock().extend(blocks);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(d);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn unreclaimed_sums_every_share_and_a_share_may_go_negative() {
        let core = RetireCore::<()>::new(SmrConfig {
            max_threads: 4,
            ..SmrConfig::default()
        });
        core.records[0].count(10);
        core.records[1].count(5);
        // A cross-slot free: slot 2 frees blocks slots 0 and 1 retired.
        core.records[2].count(-3);
        assert_eq!(core.share(2), -3);
        assert_eq!(core.unreclaimed(), 12);
        core.records[0].count(-10);
        core.records[1].count(-2);
        assert_eq!(core.unreclaimed(), 0, "exact at quiescence");
    }

    #[test]
    fn unreclaimed_clamps_a_negative_sum_at_zero() {
        let core = RetireCore::<()>::new(SmrConfig {
            max_threads: 2,
            ..SmrConfig::default()
        });
        core.records[0].count(-5);
        assert_eq!(core.unreclaimed(), 0);
        core.records[1].count(5);
        assert_eq!(core.unreclaimed(), 0);
        core.records[1].count(7);
        assert_eq!(core.unreclaimed(), 7);
    }

    #[test]
    fn neighbouring_retire_records_never_share_a_line() {
        const LINE: usize = 128;
        let core = RetireCore::<()>::new(SmrConfig {
            max_threads: 8,
            ..SmrConfig::default()
        });
        for pair in core.records.windows(2) {
            let first = std::ptr::from_ref::<SlotRetire>(&pair[0]) as usize;
            let next = std::ptr::from_ref::<SlotRetire>(&pair[1]) as usize;
            let first_last_line = (first + std::mem::size_of::<SlotRetire>() - 1) / LINE;
            assert!(
                first_last_line < next / LINE,
                "records at {first:#x} and {next:#x} share a {LINE}-byte line"
            );
        }
    }

    #[test]
    fn stale_handle_flush_panics_and_leaves_the_new_owner_alone() {
        let d = Fake::new(3, 1024);
        d.permit_all.store(true, Ordering::SeqCst);
        let drops = Arc::new(AtomicUsize::new(0));
        let mut survivor = Handle::register(&d).unwrap();
        // The stale handle's last pinning thread exits while the handle sits
        // on this one.  A real exit, not `simulate_owner_exit`: the handle
        // must cache a fired beacon, or `flush` takes the owner check's fast
        // path exactly as `pin` would.
        let mut stale = {
            let (d, drops) = (d.clone(), drops.clone());
            std::thread::spawn(move || {
                let mut h = Handle::register(&d).unwrap();
                let nodes = alloc_counted(&mut h, 2, &drops);
                // SAFETY: freshly allocated, never published, retired exactly once.
                unsafe { retire(&mut h, &nodes) };
                h
            })
            .join()
            .unwrap()
        };
        Fake::flush(&mut survivor.lend());
        assert_eq!(drops.load(Ordering::SeqCst), 2, "adopted and swept");
        let mut owner = Handle::register(&d).unwrap();
        let slot = owner.claim.index;
        assert_eq!(slot, stale.claim.index, "the adopted slot is re-claimed");
        let nodes = alloc_counted(&mut owner, 1, &drops);
        // SAFETY: as above.
        unsafe { retire(&mut owner, &nodes) };
        let before = (d.vault_values(slot), d.core.share(slot));
        let scans = d.scans.load(Ordering::SeqCst);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| stale.flush()))
            .expect_err("a stale flush must panic");
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("slot was adopted"), "{message}");
        assert_eq!((d.vault_values(slot), d.core.share(slot)), before);
        assert_eq!(d.scans.load(Ordering::SeqCst), scans, "no scan ran");
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        drop((stale, owner, survivor));
        assert_eq!(d.core.unreclaimed(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn owners_retire_while_a_third_thread_adopts_and_every_destructor_runs_once() {
        const PER_OWNER: usize = 20_000;
        const ADOPTIONS: usize = 300;
        const PER_VICTIM: usize = 3;
        // Two owners, the adopter, and the slot it keeps adopting.
        let d = Fake::new(4, 8);
        d.permit_all.store(true, Ordering::SeqCst);
        let drops = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut h = Handle::register(&d).unwrap();
                    for _ in 0..PER_OWNER {
                        let node = h.lend().alloc(Counted(drops.clone()));
                        // SAFETY: freshly allocated, never published, retired
                        // exactly once.
                        unsafe { retire(&mut h, &[node]) };
                    }
                });
            }
            s.spawn(|| {
                let mut adopter = Handle::register(&d).unwrap();
                for _ in 0..ADOPTIONS {
                    // Registration may race an owner's adoption of the last
                    // victim, which frees the slot a moment later.
                    let mut victim = loop {
                        if let Ok(h) = Handle::register(&d) {
                            break h;
                        }
                        std::hint::spin_loop();
                    };
                    let nodes = alloc_counted(&mut victim, PER_VICTIM, &drops);
                    // SAFETY: as above.
                    unsafe { retire(&mut victim, &nodes) };
                    let slot = victim.claim.index;
                    d.core.registry.simulate_owner_exit(slot);
                    // The owners' scans race this flush for the adoption.
                    while d.core.registry.is_claimed(slot) {
                        Fake::flush(&mut adopter.lend());
                    }
                    drop(victim);
                }
            });
        });
        let total = 2 * PER_OWNER + ADOPTIONS * PER_VICTIM;
        let freed = drops.load(Ordering::SeqCst);
        assert_eq!(d.core.unreclaimed(), total - freed, "exact at quiescence");
        drop(d);
        assert_eq!(drops.load(Ordering::SeqCst), total);
    }

    #[test]
    fn countdown_fires_once_per_freq_events_however_they_are_batched() {
        let config = SmrConfig {
            max_threads: 2,
            epoch_freq_per_thread: 5,
            ..SmrConfig::default()
        };
        const EVENTS: usize = 10 * 4 + 7;
        let advances = |batch: usize| {
            let clock = AtomicU64::new(0);
            let mut countdown = EraCountdown::new(&config);
            let mut left = EVENTS;
            while left > 0 {
                let n = batch.min(left);
                countdown.tick(n, &clock);
                left -= n;
            }
            clock.load(Ordering::SeqCst)
        };
        for batch in 1..=EVENTS {
            assert_eq!(advances(batch), 4, "batch={batch}");
        }
    }
}
