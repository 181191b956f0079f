//! Thread-slot registry shared by all schemes, with orphaned-slot detection.
//!
//! Every domain owns a fixed-size array of per-thread records (hazard slots,
//! era reservations, activity flags).  A handle claims one slot index on
//! registration and releases it on drop; slot indices are recycled so a
//! benchmark that repeatedly spawns short-lived threads does not exhaust the
//! table.
//!
//! ## Orphaned slots
//!
//! A slot is *orphaned* when the thread that claimed it exits while the slot
//! is still claimed — the handle was leaked (`mem::forget`), or the thread was
//! torn down before the handle's destructor could run.  Without recovery an
//! orphaned slot pins its reservations forever: under EBR the global epoch
//! never advances again, under HP the dead thread's hazards protect garbage,
//! and the slot itself is lost to future registrations.
//!
//! Detection is based on a per-thread *liveness beacon*: an `Arc<Beacon>`
//! owned by a thread-local whose destructor fires when the thread exits.
//! Each claimed slot stores the beacon of the thread that most recently
//! *used* the slot — [`SlotRegistry::try_claim`] installs the claiming
//! thread's beacon, and every `pin` re-binds the slot to the pinning thread's
//! beacon through [`SlotRegistry::check_owner_and_bind`] (handles are `Send`,
//! so the thread that registered a handle is not necessarily the thread that
//! pins through it).  A claimed slot whose *installed* beacon has fired is
//! therefore provably dead: the last thread to pin through it cannot issue
//! another load or store, and no guard can be live elsewhere because guards
//! are `!Send` (they never leave the thread that pinned).  Surviving threads
//! adopt such slots through [`SlotRegistry::try_begin_adopt`]: the scheme
//! neutralizes the dead slot's reservations (safe precisely because no
//! thread can still be using them), drains its retire vault, and either
//! recycles the slot ([`AdoptGuard::finish`]) or permanently retires it
//! ([`AdoptGuard::poison`], used by Hyaline when the owner died inside a
//! critical section and its acknowledgement boundary is unknowable).
//!
//! Each claim carries a *generation* ([`SlotClaim::gen`]); adoption bumps it.
//! A release with a stale generation is a no-op (the adopter already owns the
//! cleanup).  The one lossy window is a handle *parked between pins* on a
//! thread other than the one that last pinned it: if the last-pinning thread
//! exits during that window, a survivor may adopt the slot, and the handle's
//! next `pin` panics — under the slot mutex, *before* publishing any
//! reservation — instead of scribbling on a neutralized (and possibly
//! re-claimed) slot.
//!
//! Adoption, release, claim, and re-binding of one slot serialize on the
//! slot's beacon mutex; the state machine (`FREE → CLAIMED → {FREE |
//! ADOPTING → {FREE | POISONED}}`) is advanced only while holding it, so
//! exactly one party ever tears a claim down, and a pin-time re-bind can
//! never interleave with an in-flight adoption.

use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Slot states: free for claiming.
const FREE: u8 = 0;
/// Claimed by a live (or since-exited) handle.
const CLAIMED: u8 = 1;
/// A surviving thread is neutralizing a dead owner's reservations.
const ADOPTING: u8 = 2;
/// Permanently retired: the dead owner's reservations cannot be soundly
/// neutralized (Hyaline's died-in-critical-section case).
const POISONED: u8 = 3;

/// A per-thread liveness signal: flips to "exited" when the owning thread's
/// thread-local storage is destroyed, i.e. when the thread can no longer
/// perform any memory access.
pub struct Beacon {
    exited: AtomicBool,
}

impl Beacon {
    fn new() -> Self {
        Self {
            exited: AtomicBool::new(false),
        }
    }

    /// Whether the owning thread has exited.  Once true, stays true.
    #[inline]
    pub fn has_exited(&self) -> bool {
        self.exited.load(Ordering::Acquire)
    }
}

/// Thread-local owner of the beacon; the destructor is the exit signal.
struct BeaconOwner(Arc<Beacon>);

impl Drop for BeaconOwner {
    fn drop(&mut self) {
        self.0.exited.store(true, Ordering::Release);
    }
}

thread_local! {
    static LIVENESS: BeaconOwner = BeaconOwner(Arc::new(Beacon::new()));
}

/// The calling thread's liveness beacon.  During thread-local teardown (when
/// the per-thread beacon is already destroyed) a fresh beacon that never fires
/// is returned: a handle registered that late is never treated as orphaned —
/// leaking its slot is the safe failure mode, spuriously adopting a live
/// handle would not be.
pub fn thread_beacon() -> Arc<Beacon> {
    LIVENESS
        .try_with(|owner| owner.0.clone())
        .unwrap_or_else(|_| Arc::new(Beacon::new()))
}

/// Handle-side cache of the beacon installed in the handle's slot.
///
/// Every scheme handle owns one, created on the registering thread (where
/// [`SlotRegistry::try_claim`] installed that same thread's beacon) and kept
/// in sync by [`SlotRegistry::check_owner_and_bind`] on every `pin`.  While
/// the cached beacon is the *current* thread's live beacon, the slot cannot
/// have been adopted — adoption requires the installed beacon to have fired —
/// so the pin fast path is a single thread-local pointer compare with no
/// atomics and no lock.
pub struct PinBinding {
    beacon: Arc<Beacon>,
}

impl PinBinding {
    /// Binding for a slot claimed on the calling thread: captures the same
    /// beacon [`SlotRegistry::try_claim`] just installed.
    pub fn new() -> Self {
        Self {
            beacon: thread_beacon(),
        }
    }
}

impl Default for PinBinding {
    fn default() -> Self {
        Self::new()
    }
}

/// Proof of a slot claim: the index plus the generation it was claimed at.
/// Adoption bumps the generation, which is what makes stale releases (and
/// stale pins) detectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotClaim {
    /// The claimed slot index.
    pub index: usize,
    /// Generation of this claim; see [`SlotRegistry::release`].
    pub gen: u64,
}

struct SlotEntry {
    state: AtomicU8,
    gen: AtomicU64,
    beacon: Mutex<Option<Arc<Beacon>>>,
}

/// Allocation table for thread slots with orphan detection (see the module
/// docs for the lifecycle).
pub struct SlotRegistry {
    slots: Box<[SlotEntry]>,
}

impl SlotRegistry {
    /// Creates a registry with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        let slots = (0..capacity)
            .map(|_| SlotEntry {
                state: AtomicU8::new(FREE),
                gen: AtomicU64::new(0),
                beacon: Mutex::new(None),
            })
            .collect();
        Self { slots }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Attempts to claim a free slot, capturing the calling thread's liveness
    /// beacon, or returns `None` when every slot is taken.  This is the
    /// fallible primitive behind [`crate::Smr::try_register`].
    pub fn try_claim(&self) -> Option<SlotClaim> {
        for (i, entry) in self.slots.iter().enumerate() {
            if entry.state.load(Ordering::Relaxed) == FREE
                && entry
                    .state
                    .compare_exchange(FREE, CLAIMED, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                *entry.beacon.lock() = Some(thread_beacon());
                let gen = entry.gen.fetch_add(1, Ordering::Relaxed) + 1;
                return Some(SlotClaim { index: i, gen });
            }
        }
        None
    }

    /// Claims a free slot.
    ///
    /// Panics if every slot is taken: this indicates the domain was created
    /// with a `max_threads` smaller than the number of live handles, which is
    /// a configuration error rather than a recoverable condition.  Callers
    /// that want to surface the condition instead use [`SlotRegistry::try_claim`].
    pub fn claim(&self) -> SlotClaim {
        self.try_claim().unwrap_or_else(|| {
            panic!(
                "SMR domain slot table exhausted ({} slots); raise SmrConfig::max_threads",
                self.slots.len()
            )
        })
    }

    /// Releases a previously claimed slot.  Returns `true` when this call tore
    /// the claim down; `false` when the claim's generation is stale — the slot
    /// was adopted (the owning thread exited while the handle was live on
    /// another thread) and the adopter already owns the cleanup, so the caller
    /// must not touch the slot's scheme state.
    pub fn release(&self, claim: SlotClaim) -> bool {
        self.release_with(claim, || {})
    }

    /// [`SlotRegistry::release`] with a teardown closure that runs *between*
    /// the generation check and the slot becoming free, while the slot's
    /// beacon mutex is held.  Schemes neutralize their per-slot reservations
    /// and drain their retire vault inside `teardown`: the mutex excludes a
    /// concurrent adopter, and the ordering excludes the slot being handed to
    /// a new claimant while the old owner is still scribbling on it.  When
    /// the generation is stale, `teardown` is *not* run (the adopter already
    /// owns the cleanup) and `false` is returned.
    pub fn release_with(&self, claim: SlotClaim, teardown: impl FnOnce()) -> bool {
        let entry = &self.slots[claim.index];
        let mut beacon = entry.beacon.lock();
        if entry.gen.load(Ordering::Relaxed) != claim.gen {
            return false;
        }
        debug_assert_eq!(entry.state.load(Ordering::Relaxed), CLAIMED);
        teardown();
        *beacon = None;
        entry.state.store(FREE, Ordering::Release);
        true
    }

    /// Whether the slot currently carries reservations a reclaimer must
    /// honour: claimed by a handle, or mid-adoption (the dead owner's
    /// reservations may not be neutralized yet).  Poisoned slots are *not*
    /// claimed: no future acknowledgement can come from them.
    #[inline]
    pub fn is_claimed(&self, idx: usize) -> bool {
        matches!(
            self.slots[idx].state.load(Ordering::Acquire),
            CLAIMED | ADOPTING
        )
    }

    /// Current generation of a slot.
    #[inline]
    pub fn generation(&self, idx: usize) -> u64 {
        self.slots[idx].gen.load(Ordering::Relaxed)
    }

    /// Verifies that `claim` still owns its slot and binds the slot's
    /// liveness beacon to the *calling* thread; schemes call this first thing
    /// in every `pin`, before publishing any reservation.
    ///
    /// Fast path (the handle is pinned from the same thread as last time):
    /// the cached beacon is the current thread's live beacon, which rules out
    /// adoption entirely — no lock, no atomics.  Slow path (the handle moved
    /// to a new thread): re-bind under the slot's beacon mutex, which
    /// serializes against [`SlotRegistry::try_begin_adopt`], so either the
    /// re-bind lands first (and the slot is no longer adoptable while the new
    /// thread lives) or the adoption did, in which case this panics — with
    /// nothing published yet, so nothing was torn out from under a live
    /// traversal.
    ///
    /// # Panics
    /// When the slot was adopted: the thread that last pinned through the
    /// handle (or registered it, if it was never pinned) exited while the
    /// handle was parked on another thread, and a survivor reclaimed the
    /// slot.
    #[inline]
    pub fn check_owner_and_bind(&self, claim: SlotClaim, binding: &mut PinBinding) {
        let bound_to_this_thread = LIVENESS
            .try_with(|owner| Arc::ptr_eq(&owner.0, &binding.beacon))
            .unwrap_or(false);
        if !bound_to_this_thread {
            self.rebind(claim, binding);
        }
    }

    /// Slow path of [`SlotRegistry::check_owner_and_bind`]: the handle is
    /// being pinned from a thread other than the one whose beacon is
    /// installed in the slot.
    #[cold]
    fn rebind(&self, claim: SlotClaim, binding: &mut PinBinding) {
        let entry = &self.slots[claim.index];
        let current = thread_beacon();
        let mut installed = entry.beacon.lock();
        if entry.gen.load(Ordering::Relaxed) != claim.gen {
            panic!(
                "SMR handle used after its slot was adopted: the thread that \
                 last pinned through this handle exited while the handle was \
                 parked on another thread (slot {})",
                claim.index
            );
        }
        *installed = Some(current.clone());
        binding.beacon = current;
    }

    /// Attempts to start adopting slot `idx`: succeeds only when the slot is
    /// claimed and its owner's beacon has fired (the thread exited without
    /// releasing).  At most one adopter wins; the returned guard holds the
    /// slot in the `ADOPTING` state until [`AdoptGuard::finish`] or
    /// [`AdoptGuard::poison`] (dropping the guard without either, e.g. on a
    /// panicking adopter, reverts the slot to claimed so adoption is retried).
    pub fn try_begin_adopt(&self, idx: usize) -> Option<AdoptGuard<'_>> {
        let entry = &self.slots[idx];
        if entry.state.load(Ordering::Acquire) != CLAIMED {
            return None;
        }
        let beacon = entry.beacon.try_lock()?;
        if !beacon.as_ref().is_some_and(|b| b.has_exited()) {
            return None;
        }
        entry
            .state
            .compare_exchange(CLAIMED, ADOPTING, Ordering::AcqRel, Ordering::Relaxed)
            .ok()?;
        Some(AdoptGuard {
            entry,
            index: idx,
            beacon,
            done: false,
        })
    }

    /// Test hook: makes slot `idx` look orphaned — as if the thread that last
    /// pinned through it had exited — without spawning a thread, so the
    /// adoption plumbing can be unit-tested deterministically.
    #[cfg(test)]
    pub(crate) fn simulate_owner_exit(&self, idx: usize) {
        let fired = Beacon::new();
        fired.exited.store(true, Ordering::Release);
        *self.slots[idx].beacon.lock() = Some(Arc::new(fired));
    }

    /// Number of permanently poisoned slots (diagnostic).
    pub fn poisoned(&self) -> usize {
        self.slots
            .iter()
            .filter(|e| e.state.load(Ordering::Relaxed) == POISONED)
            .count()
    }
}

/// Exclusive license to tear down one orphaned slot; see
/// [`SlotRegistry::try_begin_adopt`].
#[must_use = "an adoption must be finished or poisoned, never dropped on the floor"]
pub struct AdoptGuard<'a> {
    entry: &'a SlotEntry,
    index: usize,
    beacon: MutexGuard<'a, Option<Arc<Beacon>>>,
    done: bool,
}

impl AdoptGuard<'_> {
    /// The slot being adopted.
    #[inline]
    pub fn slot(&self) -> usize {
        self.index
    }

    /// Completes the adoption: the dead owner's reservations were neutralized
    /// and its retire vault drained, so the slot returns to the free pool.
    pub fn finish(mut self) {
        assert!(!self.done, "a poisoned slot is never recycled");
        *self.beacon = None;
        self.entry.gen.fetch_add(1, Ordering::Relaxed);
        self.entry.state.store(FREE, Ordering::Release);
        self.done = true;
    }

    /// Completes the adoption by permanently retiring the slot: its
    /// reservations cannot be soundly neutralized (the owner died inside a
    /// critical section under a scheme where the acknowledgement boundary is
    /// unknowable), so reclaimers must stop waiting on it *and* the slot must
    /// never be handed out again.  The guard stays the license to the slot's
    /// scheme state until it drops, so the adopter can drain what the dead
    /// owner left after the slot stopped counting as claimed.
    pub fn poison(&mut self) {
        debug_assert!(!self.done, "an adoption ends once");
        *self.beacon = None;
        self.entry.gen.fetch_add(1, Ordering::Relaxed);
        self.entry.state.store(POISONED, Ordering::Release);
        self.done = true;
    }
}

impl Drop for AdoptGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            // Adoption abandoned (adopter panicked): make it retryable.
            self.entry.state.store(CLAIMED, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn claim_release_recycles() {
        let r = SlotRegistry::new(2);
        let a = r.claim();
        let b = r.claim();
        assert_ne!(a.index, b.index);
        assert!(r.is_claimed(a.index));
        assert!(r.release(a));
        assert!(!r.is_claimed(a.index));
        let c = r.claim();
        assert_eq!(c.index, a.index);
        assert!(c.gen > a.gen, "re-claim must bump the generation");
        assert!(r.release(b));
        assert!(r.release(c));
    }

    #[test]
    #[should_panic(expected = "slot table exhausted")]
    fn exhaustion_panics() {
        let r = SlotRegistry::new(1);
        let _a = r.claim();
        let _b = r.claim();
    }

    #[test]
    fn try_claim_reports_exhaustion_without_panicking() {
        let r = SlotRegistry::new(2);
        assert_eq!(r.capacity(), 2);
        let a = r.try_claim().unwrap();
        let b = r.try_claim().unwrap();
        assert_ne!(a.index, b.index);
        assert!(r.try_claim().is_none());
        assert!(r.release(a));
        assert_eq!(r.try_claim().map(|c| c.index), Some(a.index));
        let a2 = SlotClaim {
            index: a.index,
            gen: r.generation(a.index),
        };
        assert!(r.release(a2));
        assert!(r.release(b));
    }

    #[test]
    fn concurrent_claims_are_unique() {
        let r = StdArc::new(SlotRegistry::new(64));
        let mut joins = Vec::new();
        for _ in 0..8 {
            let r = r.clone();
            joins.push(std::thread::spawn(move || {
                (0..8).map(|_| r.claim().index).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<usize> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 64, "no slot may be handed out twice");
    }

    #[test]
    fn live_owner_cannot_be_adopted() {
        let r = SlotRegistry::new(2);
        let a = r.claim();
        // This thread is alive: its beacon has not fired.
        assert!(r.try_begin_adopt(a.index).is_none());
        assert!(r.release(a));
    }

    #[test]
    fn dead_owner_is_adoptable_and_stale_release_is_a_no_op() {
        let r = StdArc::new(SlotRegistry::new(2));
        let claim = {
            let r = r.clone();
            std::thread::spawn(move || r.claim())
                .join()
                .expect("claiming thread must not panic")
        };
        // The claiming thread has exited; its beacon fired with the slot
        // still claimed.
        assert!(r.is_claimed(claim.index));
        let adoption = r
            .try_begin_adopt(claim.index)
            .expect("dead owner's slot must be adoptable");
        adoption.finish();
        assert!(!r.is_claimed(claim.index));
        // The original claim is stale now: releasing it must not free the
        // slot a second time.
        assert!(!r.release(claim));
        // And the slot is reusable.
        let again = r.try_claim().unwrap();
        assert_eq!(again.index, claim.index);
        assert!(again.gen > claim.gen);
        assert!(r.release(again));
    }

    #[test]
    fn adoption_is_exclusive_and_abandonment_reverts() {
        let r = StdArc::new(SlotRegistry::new(1));
        let claim = {
            let r = r.clone();
            std::thread::spawn(move || r.claim()).join().unwrap()
        };
        let first = r.try_begin_adopt(claim.index).unwrap();
        // While one adopter holds the slot, a second cannot begin.
        assert!(r.try_begin_adopt(claim.index).is_none());
        // Abandoning (adopter panic) reverts to claimed, so it is retried.
        drop(first);
        assert!(r.is_claimed(claim.index));
        r.try_begin_adopt(claim.index).unwrap().finish();
    }

    #[test]
    fn poisoned_slot_is_neither_claimed_nor_reusable() {
        let r = StdArc::new(SlotRegistry::new(1));
        let claim = {
            let r = r.clone();
            std::thread::spawn(move || r.claim()).join().unwrap()
        };
        r.try_begin_adopt(claim.index).unwrap().poison();
        assert!(!r.is_claimed(claim.index));
        assert_eq!(r.poisoned(), 1);
        // The sole slot is poisoned: the table is effectively exhausted.
        assert!(r.try_claim().is_none());
    }

    #[test]
    #[should_panic(expected = "a poisoned slot is never recycled")]
    fn a_poisoned_adoption_cannot_be_finished() {
        let r = StdArc::new(SlotRegistry::new(1));
        let claim = {
            let r = r.clone();
            std::thread::spawn(move || r.claim()).join().unwrap()
        };
        let mut adoption = r.try_begin_adopt(claim.index).unwrap();
        assert_eq!(adoption.slot(), claim.index);
        adoption.poison();
        adoption.finish();
    }

    #[test]
    #[should_panic(expected = "slot was adopted")]
    fn stale_pin_panics_instead_of_publishing() {
        let r = StdArc::new(SlotRegistry::new(1));
        let (claim, mut binding) = {
            let r = r.clone();
            std::thread::spawn(move || (r.claim(), PinBinding::new()))
                .join()
                .unwrap()
        };
        r.try_begin_adopt(claim.index).unwrap().finish();
        // The claiming thread died and a survivor adopted the slot before
        // this thread's first pin: the pin must panic, not publish.
        r.check_owner_and_bind(claim, &mut binding);
    }

    #[test]
    fn pin_rebinds_moved_handle_and_blocks_adoption() {
        // The moved-handle scenario from the UAF report: thread A claims,
        // the claim moves to this thread, this thread pins, and only THEN
        // does A exit.  Re-binding at pin must have made the slot track this
        // thread's beacon, so A's death must not make the slot adoptable.
        let r = StdArc::new(SlotRegistry::new(1));
        let (claim, mut binding) = {
            let r = r.clone();
            std::thread::spawn(move || (r.claim(), PinBinding::new()))
                .join()
                .unwrap()
        };
        // A is dead, but the handle pins from this (live) thread first.
        r.check_owner_and_bind(claim, &mut binding);
        assert!(
            r.try_begin_adopt(claim.index).is_none(),
            "slot must be bound to the live pinning thread, not the dead \
             registering thread"
        );
        // Subsequent pins from the same thread take the fast path and are
        // equally un-adoptable.
        r.check_owner_and_bind(claim, &mut binding);
        assert!(r.try_begin_adopt(claim.index).is_none());
        assert!(r.release(claim));
    }

    #[test]
    fn slot_follows_the_most_recent_pinning_thread() {
        // Claim here, pin from a worker thread (re-bind), then let the
        // worker exit: the slot must be adoptable even though the
        // registering thread (this one) is still alive — the beacon tracks
        // the most recent pinner, not the registrant.
        let r = StdArc::new(SlotRegistry::new(1));
        let claim = r.claim();
        let mut binding = PinBinding::new();
        {
            let r = r.clone();
            binding = std::thread::spawn(move || {
                r.check_owner_and_bind(claim, &mut binding);
                binding
            })
            .join()
            .unwrap();
        }
        let adoption = r
            .try_begin_adopt(claim.index)
            .expect("dead last-pinner must make the slot adoptable");
        adoption.finish();
        // The original claim is stale now.
        assert!(!r.release(claim));
        let _ = &binding;
    }
}
