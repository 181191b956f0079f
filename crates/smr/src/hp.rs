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
//! ## Two ways to publish: heavy, then light
//!
//! A publication must be globally visible before the validating re-read that
//! follows it, or a sweep could miss the hazard while the re-read misses the
//! unlink.  The *heavy* publish buys that with a `SeqCst` store — a store–load
//! fence per hop, the whole of HP's gap to the epoch schemes on a 128-node
//! list.  The *light* publish is a `Release` store and a compiler fence; the
//! hardware fence moves to the sweeper, which runs one `membarrier(2)`
//! (`PRIVATE_EXPEDITED`: every running thread of the process executes a full
//! barrier) before it reads hazards.  That barrier costs ~15 µs on the calling
//! core and ~10 µs on each interrupted one (DESIGN.md § Hot-path engineering),
//! which a structure that sweeps 30 000 times a second cannot pay — so nobody
//! chooses between the two, the guard does, from what it can observe:
//!
//! * A guard starts an operation with [`HEAVY_BUDGET`] heavy publications.
//!   Short operations (a hash bucket, a search tree) finish inside it and
//!   cost sweeps nothing.
//! * When the budget runs out the guard *goes light*: it sets the `light`
//!   word of its slot, issues one `SeqCst` fence, and publishes light from
//!   then on.  Guard drop clears the hazards, then the flag; `retire_batch`
//!   leaves light mode first, so a sweep never pays a barrier on account of
//!   its own thread.
//! * The next `pin` predicts from the slot's own history.  Guard exit keeps
//!   a `streak` word beside `light`: how many operations in a row made more
//!   than [`HEAVY_BUDGET`] publications (`before_retire`'s refill does not
//!   reset the count).  After [`LONG_STREAK`] = 2 of them `pin` goes light at
//!   once — the same store, the same fence — so a list traversal skips the
//!   32 fenced hops a held guard already skips; any operation that finishes
//!   inside the budget resets the streak, and the next `pin` is heavy again.
//!   Two, not one: the 5 % of tree operations that cross the budget would
//!   otherwise each turn the next one light, and the tree's share of sweeps
//!   that run a barrier would quadruple.  `neutralize` zeroes the streak, so
//!   registration, release and adoption always start heavy: a new owner
//!   inherits nothing.  A predicted-light guard is a guard whose budget ran
//!   out before its first hop, so the argument below covers it unchanged.
//! * Every sweep starts in `Scheme::snapshot`: a `SeqCst` fence, one read of
//!   every claimed slot's `light` word, and one `membarrier` iff any is set.
//!
//! Why the sweep cannot miss a hazard whose validation succeeded:
//!
//! * **It read the flag as 0.**  The read follows the sweep's fence and did
//!   not see the store that precedes the reader's go-light fence, so the
//!   sweep's fence is first in the `SeqCst` order — and every light re-read,
//!   all of them after the reader's fence, observes every unlink that
//!   happened before the sweep.  (A 0 written by an earlier light episode's
//!   exit is read with `Acquire` and was stored with `Release` after that
//!   episode's hazards, so those are visible too.)
//! * **It read 1.**  It runs the barrier.  A reader interrupted before a
//!   hazard store re-reads after the barrier and observes the unlink; one
//!   interrupted after it (the compiler fence keeps store and re-read in
//!   program order) has the store flushed to where the sweep's hazard loads
//!   see it.  A reader that is not running has passed a context switch, which
//!   is a full barrier — so a stalled or descheduled light reader's hazards
//!   are read like anyone else's and HP stays robust (it taxes every sweep
//!   with a barrier until it moves, nothing more).
//!
//! `membarrier` is registered once per process, at the first [`Hp::new`]; if
//! that fails (another OS or architecture, a kernel before 4.14, a seccomp
//! filter, Miri) the budget refills instead of expiring and every publication
//! is heavy.  The answer is a probe's, never an option's.
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
//! is designed to avoid.  The light publish keeps `Release` for the same
//! reason: a scan that sees the source slot's *new* value acquires the `dup`
//! that preceded it.

use crate::block::Retired;
use crate::limbo::{Domain, Guard, ReadSide, RetireCore, Scheme};
use crate::ptr::{Atomic, Shared};
use crate::{SmrKind, MAX_HAZARDS};
use std::sync::atomic::{compiler_fence, fence, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Heavy publications a guard pays per operation before it goes light, unless
/// `pin` predicted a long operation and started light (module docs).  Going
/// light moves the fence to every sweep that overlaps the rest of the
/// operation, ~15 µs a barrier against ~9 ns a heavy publication, so it must
/// be rare wherever operations are short and sweeps frequent, and
/// early wherever operations are long.  32 sits between the two populations
/// the benchmark has: a hash bucket (≤ 3 publications) and a random search
/// tree of 100 000 keys (~25) finish inside it — at 8 `tree-rw` lost 15 %, at
/// 32 about one sweep in a hundred pays a barrier — while a 128-hop list
/// traversal still sheds three quarters of its fences.
const HEAVY_BUDGET: u32 = 32;

/// Operations in a row that outran [`HEAVY_BUDGET`] after which `pin` starts
/// light (module docs).  One is as good on the lists, but it makes the 5 % of
/// `tree-rw` operations that cross the budget turn their successors light,
/// and quadruples the tree's share of sweeps that run a barrier.
const LONG_STREAK: u8 = 2;

/// One thread's hazard pointers; the default publishes nothing, heavy.
#[derive(Default)]
pub struct HpSlot {
    hazards: [AtomicUsize; MAX_HAZARDS],
    /// Non-zero while the slot's guard is light: its hazards may sit in a
    /// store buffer, and a sweep that reads this as set must run the process
    /// barrier before it reads them.
    light: AtomicUsize,
    /// How many of the owner's latest operations in a row outran the budget,
    /// saturating at [`LONG_STREAK`]: the prediction `pin` goes light on.
    /// Written by the owner's guard exit and by `neutralize` only; no sweep
    /// reads it.
    streak: AtomicU8,
}

/// The hazard-pointer domain.  `snapshot_scan` in the configuration selects
/// between the paper's "HP" and "HPopt" variants.
pub struct Hp {
    core: RetireCore<HpSlot>,
    /// Whether sweeps can run the process barrier, i.e. whether guards may go
    /// light: the registration probe's answer, fixed for the domain's life.
    asymmetric: bool,
    /// Process barriers this domain's sweeps have run.
    barriers_issued: AtomicU64,
}

impl Hp {
    /// Sets `slot`'s `light` word and fences, returning 0, the budget of a
    /// light guard — or, where sweeps have no process barrier to run, a
    /// fresh budget of heavy publications.
    fn go_light(&self, slot: &HpSlot) -> u32 {
        if !self.asymmetric {
            return HEAVY_BUDGET;
        }
        // ORDERING: Relaxed — the fence below orders the flag before every
        // light publication and re-read; a sweep whose fence came first may
        // read 0, and then those re-reads see what it unlinked.
        slot.light.store(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        0
    }

    /// First step of every sweep: makes every hazard whose validating re-read
    /// could precede this point visible to the hazard loads that follow (the
    /// two cases of the module docs).
    fn await_light_publications(&self) {
        if !self.asymmetric {
            return;
        }
        // ORDERING: SeqCst fence — pairs with the fence a guard issues after
        // setting its `light` word: a flag read as 0 below puts this fence
        // first, so that guard's light re-reads observe every unlink that
        // happened before this sweep.
        fence(Ordering::SeqCst);
        // ORDERING: Acquire — a 0 stored when a guard left light mode
        // (`Release`, after its hazard stores) makes that episode's hazards
        // visible to the loads that follow.
        let any_light = (self.core.claimed()).any(|slot| slot.light.load(Ordering::Acquire) != 0);
        if any_light {
            membarrier::barrier();
            // ORDERING: Relaxed — a statistic; publishes nothing.
            self.barriers_issued.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// True if `addr` is currently published in any hazard slot: the
    /// per-record scan of the baseline (non-snapshot) sweep, one full pass
    /// over the hazard array per retired node.
    fn is_protected(&self, addr: usize) -> bool {
        for slot in self.core.claimed() {
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

/// `membarrier(2)` through the `syscall` symbol of the libc std already
/// links.  Everywhere but Linux on x86-64/aarch64 — and under Miri, which has
/// no such syscall — the call is a stub that fails, so
/// [`register`](membarrier::register) answers `false` and no guard ever gives
/// a sweep a reason to call [`barrier`](membarrier::barrier).
mod membarrier {
    use std::ffi::c_long;
    use std::sync::atomic::{AtomicU8, Ordering};

    const PRIVATE_EXPEDITED: c_long = 1 << 3;
    const REGISTER_PRIVATE_EXPEDITED: c_long = 1 << 4;

    /// `membarrier(cmd, 0, 0)`; true on success.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64"),
        not(miri)
    ))]
    fn membarrier(cmd: c_long) -> bool {
        extern "C" {
            fn syscall(number: c_long, ...) -> c_long;
        }
        const SYS_MEMBARRIER: c_long = if cfg!(target_arch = "x86_64") {
            324
        } else {
            283
        };
        let (flags, cpu_id): (c_long, c_long) = (0, 0);
        // SAFETY: `syscall` is libc's variadic raw-syscall entry and
        // `membarrier` takes three integers, passed at register width; the
        // call reads and writes no user memory.
        unsafe { syscall(SYS_MEMBARRIER, cmd, flags, cpu_id) == 0 }
    }

    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64"),
        not(miri)
    )))]
    fn membarrier(_cmd: c_long) -> bool {
        false
    }

    /// [`register`]'s answer: not asked yet, or the probe's.
    const UNKNOWN: u8 = 0;
    const REGISTERED: u8 = 1;
    const UNAVAILABLE: u8 = 2;

    /// Registers the process for expedited private barriers; whether
    /// [`barrier`] can succeed.  Idempotent: registering twice is a no-op
    /// for the kernel, so two threads that race past `UNKNOWN` both probe
    /// and store the same answer.
    pub(super) fn register() -> bool {
        static STATE: AtomicU8 = AtomicU8::new(UNKNOWN);
        // ORDERING: Acquire — pairs with the Release store below: a thread
        // that reads `REGISTERED` is ordered after the registering syscall,
        // so its sweeps' barriers are never refused.
        match STATE.load(Ordering::Acquire) {
            REGISTERED => true,
            UNAVAILABLE => false,
            _ => {
                let registered = membarrier(REGISTER_PRIVATE_EXPEDITED);
                let answer = if registered { REGISTERED } else { UNAVAILABLE };
                // ORDERING: Release — see the load above.
                STATE.store(answer, Ordering::Release);
                registered
            }
        }
    }

    /// Returns once every thread of the process that was running has executed
    /// a full memory barrier.
    pub(super) fn barrier() {
        // A registered process is never refused, and a sweep that went on
        // without the barrier could free a node a light reader holds.
        assert!(
            membarrier(PRIVATE_EXPEDITED),
            "membarrier(PRIVATE_EXPEDITED) failed after registration"
        );
    }
}

impl Domain for Hp {
    const KIND: SmrKind = SmrKind::Hp;
    type Slot = HpSlot;

    /// Runs the `membarrier` registration probe (module docs).
    fn build(core: RetireCore<HpSlot>) -> Self {
        Self {
            core,
            asymmetric: membarrier::register(),
            barriers_issued: AtomicU64::new(0),
        }
    }

    #[inline]
    fn core(&self) -> &RetireCore<HpSlot> {
        &self.core
    }

    fn neutralize(&self, slot: usize) {
        let slot = self.core.reservation(slot);
        for h in &slot.hazards {
            h.store(0, Ordering::SeqCst);
        }
        // A stale flag would tax every later sweep with a barrier.
        slot.light.store(0, Ordering::SeqCst);
        // ORDERING: Relaxed — owner-only: the next owner reaches the slot
        // through the registry, which orders this store before its `pin`.
        // Reset so that every registration, release and adoption starts
        // heavy.
        slot.streak.store(0, Ordering::Relaxed);
    }
}

// SAFETY: a retired node is unlinked, so a thread can only still dereference
// it if it published the node's address before the unlink and has not cleared
// it since.  `can_free` accepts an address only when it is absent from every
// claimed slot's hazards, read with SeqCst after the unlink — either from the
// sorted snapshot (HPopt) or by a full per-record scan (HP) — and after
// `snapshot` made light publications visible: a hazard stored without a
// fence whose validation preceded the sweep is seen (module docs, "Two ways
// to publish").  `neutralize` zeroes the slot's hazards; 0 is no address.
unsafe impl Scheme for Hp {
    /// HPopt: every published hazard, sorted.  HP: `None`, rescan per record.
    type Snapshot = Option<Vec<usize>>;

    #[inline]
    fn retire_stamp(&self) -> Option<u64> {
        None
    }

    fn snapshot(&self) -> Option<Vec<usize>> {
        // Every sweep takes exactly one snapshot before its first `can_free`
        // — the handle-drop sweep too, which skips `before_scan`.
        self.await_light_publications();
        self.core.config().snapshot_scan.then(|| {
            let mut snap: Vec<usize> = (self.core.claimed())
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
            Some(snap) => snap.binary_search(&retired.value()).is_err(),
            None => !self.is_protected(retired.value()),
        }
    }
}

/// What an HP guard carries beside its slot.
pub struct HpState {
    /// Heavy publications left before the guard goes light; 0 *is* light mode
    /// (the slot's `light` word is set exactly while this is 0).  A guard
    /// that `pin` predicted long starts at 0 where sweeps can run the
    /// barrier.
    budget: u32,
    /// Publications this operation made, heavy and light, saturating: over
    /// [`HEAVY_BUDGET`] the operation was long, and guard exit extends the
    /// slot's streak.  `before_retire`'s refill leaves it alone.
    published: u16,
    /// Bitmask of hazard slots this guard published; cleared on drop so a
    /// panicking operation releases its protections (RAII unwind safety).
    used: u8,
}

impl Guard<'_, Hp> {
    /// Publishes `addr` in hazard `idx`, ordered before every later load of
    /// this thread as far as a sweep can tell (module docs).
    #[inline]
    fn publish(&mut self, idx: usize, addr: usize) {
        let hazard = &self.slot().hazards[idx];
        self.state.published = self.state.published.saturating_add(1);
        if self.state.budget == 0 {
            hazard.store(addr, Ordering::Release);
            // ORDERING: compiler fence — keeps the store above the validating
            // re-read in program order; the hardware half is the barrier a
            // sweep runs when it reads this slot's `light` word as set.
            compiler_fence(Ordering::SeqCst);
        } else {
            hazard.store(addr, Ordering::SeqCst);
            self.state.budget -= 1;
            if self.state.budget == 0 {
                self.budget_spent();
            }
        }
    }

    /// The operation turned out long: go light, or — where sweeps have no
    /// process barrier to run — buy another round of heavy publications.
    #[cold]
    fn budget_spent(&mut self) {
        self.state.budget = self.scheme().go_light(self.slot());
    }

    /// Drops the `light` word if it is set and refills the budget: the one
    /// way out of light mode.  `Release` orders the flag after every hazard
    /// store (or clear) that preceded it.
    #[inline]
    fn refill(&mut self) {
        if self.state.budget == 0 {
            self.slot().light.store(0, Ordering::Release);
        }
        self.state.budget = HEAVY_BUDGET;
    }
}

impl ReadSide for Hp {
    type State = HpState;

    /// Hazard pointers have no notion of a critical section: protection is
    /// entirely per-pointer, so `pin` publishes nothing — unless the slot's
    /// last [`LONG_STREAK`] operations outran the budget, and then it goes
    /// light at once, as a guard whose budget ran out before its first hop.
    #[inline]
    fn enter(&self, slot: &HpSlot) -> HpState {
        // ORDERING: Relaxed — owner-only (`HpSlot::streak`).
        let budget = if slot.streak.load(Ordering::Relaxed) >= LONG_STREAK {
            self.go_light(slot)
        } else {
            HEAVY_BUDGET
        };
        HpState {
            budget,
            published: 0,
            used: 0,
        }
    }

    /// Clears every hazard the guard published, then its `light` word, and
    /// records whether the operation was long.
    #[inline]
    fn exit(g: &mut Guard<'_, Self>) {
        let slot = g.slot();
        if g.state.used != 0 {
            for (idx, hazard) in slot.hazards.iter().enumerate() {
                if g.state.used & (1 << idx) != 0 {
                    hazard.store(0, Ordering::Release);
                }
            }
        }
        g.refill();
        // ORDERING: Relaxed — owner-only (`HpSlot::streak`); stored only
        // when it changes, so a run of short operations writes nothing.
        let old = slot.streak.load(Ordering::Relaxed);
        let streak = if u32::from(g.state.published) > HEAVY_BUDGET {
            (old + 1).min(LONG_STREAK)
        } else {
            0
        };
        if streak != old {
            slot.streak.store(streak, Ordering::Relaxed);
        }
    }

    #[inline]
    fn protect<T>(g: &mut Guard<'_, Self>, idx: usize, src: &Atomic<T>) -> Shared<T> {
        // Figure 1 `protect`: publish, then verify the source still holds the
        // published pointer.  The hazard slot always stores the untagged
        // address ("also clear logical-deletion bits").
        g.state.used |= 1 << idx;
        let mut published = usize::MAX;
        loop {
            let ptr = src.load(Ordering::Acquire);
            let addr = ptr.untagged().into_raw();
            if addr == published {
                return ptr;
            }
            g.publish(idx, addr);
            published = addr;
        }
    }

    #[inline]
    fn announce<T>(g: &mut Guard<'_, Self>, idx: usize, ptr: Shared<T>) {
        g.state.used |= 1 << idx;
        g.publish(idx, ptr.untagged().into_raw());
    }

    #[inline]
    fn dup(g: &mut Guard<'_, Self>, from: usize, to: usize) {
        debug_assert!(
            from < to,
            "dup must copy a lower slot into a higher slot (paper §3.2)"
        );
        g.state.used |= 1 << to;
        let hazards = &g.slot().hazards;
        // ORDERING: Relaxed — `from` was last written by this same thread
        // (protect/announce), so the read needs no synchronization; the
        // Release store plus the lower-to-higher slot discipline and the
        // ascending-order scan close the publication window (module docs).
        let v = hazards[from].load(Ordering::Relaxed);
        hazards[to].store(v, Ordering::Release);
    }

    #[inline]
    fn clear(g: &mut Guard<'_, Self>, idx: usize) {
        g.state.used &= !(1 << idx);
        g.slot().hazards[idx].store(0, Ordering::Release);
    }

    /// Leaves light mode with hazards still held: the retire may sweep, and a
    /// sweep should not run a barrier for the thread it runs on.
    #[inline]
    fn before_retire(g: &mut Guard<'_, Self>) {
        if g.state.budget == 0 {
            // ORDERING: SeqCst fence before the flag drops — past it every
            // hazard published light is globally visible, which is all a
            // heavy guard ever promises, so the flag may drop with hazards
            // still held: a sweep that reads the 0 reads them too.
            fence(Ordering::SeqCst);
            g.refill();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limbo::Handle;
    use crate::{Smr, SmrConfig, SmrGuard, SmrHandle};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    impl Hp {
        /// A domain for which the probe answered "unavailable": the path
        /// every platform without `membarrier` runs.
        fn new_symmetric(config: SmrConfig) -> Arc<Self> {
            let core = RetireCore::new(config);
            Arc::new(Self {
                asymmetric: false,
                ..Self::build(core)
            })
        }
    }

    fn config(snapshot: bool) -> SmrConfig {
        SmrConfig {
            max_threads: 4,
            scan_threshold: 8,
            snapshot_scan: snapshot,
            ..SmrConfig::default()
        }
    }

    /// Runs `test` on the four domains every property must hold for: HP and
    /// HPopt over `base`, each with the process barrier as probed and with
    /// the probe's "unavailable" answer forced.
    fn each_domain_of(base: SmrConfig, mut test: impl FnMut(Arc<Hp>)) {
        for snapshot_scan in [false, true] {
            let config = SmrConfig {
                snapshot_scan,
                ..base.clone()
            };
            test(Hp::new(config.clone()));
            test(Hp::new_symmetric(config));
        }
    }

    fn each_domain(test: impl FnMut(Arc<Hp>)) {
        each_domain_of(config(false), test);
    }

    #[test]
    fn kind_reflects_snapshot_mode() {
        assert_eq!(Hp::new(config(false)).kind(), SmrKind::Hp);
        assert_eq!(Hp::new(config(true)).kind(), SmrKind::HpOpt);
    }

    /// Names the domain flavour in an assertion message.
    fn tag(d: &Hp) -> String {
        format!("{} asymmetric={}", d.name(), d.asymmetric)
    }

    /// Publications of a traversal that outruns the budget.
    const LONG_WALK: u32 = HEAVY_BUDGET + 3;

    /// How a test readies its guard before the publication it is about.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum WarmUp {
        /// Not at all: the publication is heavy.
        Cold,
        /// A traversal inside the guard that has outrun the budget.
        Walked,
        /// [`LONG_STREAK`] long operations before `pin`: the guard begins
        /// light.
        EnteredLight,
    }

    const WARM_UPS: [WarmUp; 3] = [WarmUp::Cold, WarmUp::Walked, WarmUp::EnteredLight];

    impl WarmUp {
        /// Whether the readied guard is light: where the domain allows, every
        /// warm-up but `Cold` ends light.
        fn light(self, d: &Hp) -> bool {
            d.asymmetric && self != WarmUp::Cold
        }

        /// Hops the warm-up walks inside the guard.
        fn hops(self) -> u32 {
            if self == WarmUp::Walked {
                LONG_WALK
            } else {
                0
            }
        }

        /// Pins `h`, after the long operations the warm-up runs first.
        fn pin(self, h: &mut Handle<Hp>) -> Guard<'_, Hp> {
            if self == WarmUp::EnteredLight {
                for _ in 0..LONG_STREAK {
                    walk(&mut h.pin(), 0, LONG_WALK);
                }
            }
            let g = h.pin();
            let light = self == WarmUp::EnteredLight && g.scheme().asymmetric;
            assert_eq!(g.state.budget == 0, light, "{self:?}");
            g
        }
    }

    /// A guard of `h` readied as `warm_up` says, its walk in hazard `idx`.
    fn warm_pin(h: &mut Handle<Hp>, idx: usize, warm_up: WarmUp) -> Guard<'_, Hp> {
        let mut g = warm_up.pin(h);
        walk(&mut g, idx, warm_up.hops());
        g
    }

    /// `hops` publications in hazard `idx`, as a traversal that long makes.
    fn walk(g: &mut Guard<'_, Hp>, idx: usize, hops: u32) {
        let cell = Atomic::<u64>::null();
        for _ in 0..hops {
            g.protect(idx, &cell);
        }
    }

    fn light_words(d: &Hp) -> Vec<usize> {
        (0..d.core.config().max_threads)
            .map(|i| d.core.reservation(i).light.load(Ordering::SeqCst))
            .collect()
    }

    fn streaks(d: &Hp) -> Vec<u8> {
        (0..d.core.config().max_threads)
            .map(|i| d.core.reservation(i).streak.load(Ordering::SeqCst))
            .collect()
    }

    fn barriers(d: &Hp) -> u64 {
        d.barriers_issued.load(Ordering::SeqCst)
    }

    /// Retires `n` fresh, never-published blocks through `h`.
    fn retire_garbage(h: &mut Handle<Hp>, n: u64) {
        let mut g = h.pin();
        for i in 0..n {
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
    }

    #[test]
    fn protect_publishes_untagged_address() {
        each_domain(|d| {
            for warm_up in WARM_UPS {
                let mut h = d.register();
                let mut g = warm_pin(&mut h, 5, warm_up);
                let p = g.alloc(9u64);
                let cell = Atomic::new(p.with_tag(1));
                let seen = g.protect(2, &cell);
                assert_eq!(seen.tag(), 1);
                assert_eq!(seen.untagged(), p);
                let published = d.core.reservation(0).hazards[2].load(Ordering::SeqCst);
                assert_eq!(published, p.into_raw(), "{} warm_up={warm_up:?}", tag(&d));
                g.announce(3, p.with_tag(1));
                let announced = d.core.reservation(0).hazards[3].load(Ordering::SeqCst);
                assert_eq!(announced, p.into_raw(), "{} warm_up={warm_up:?}", tag(&d));
                // SAFETY: `p` was never published to another thread; only this guard's own hazards name it.
                unsafe { g.dealloc(p) };
            }
        });
    }

    #[test]
    fn guard_goes_light_exactly_when_the_budget_is_spent() {
        each_domain(|d| {
            let mut h = d.register();
            let mut g = h.pin();
            walk(&mut g, 0, HEAVY_BUDGET - 1);
            assert_eq!(g.state.budget, 1, "{}", tag(&d));
            assert_eq!(light_words(&d), [0; 4], "{}", tag(&d));
            walk(&mut g, 0, 1);
            if d.asymmetric {
                assert_eq!(g.state.budget, 0);
                assert_eq!(light_words(&d), [1, 0, 0, 0]);
                // Light publications spend nothing.
                walk(&mut g, 0, 3 * HEAVY_BUDGET);
                assert_eq!(g.state.budget, 0);
            } else {
                assert_eq!(g.state.budget, HEAVY_BUDGET, "the budget refills");
            }
            drop(g);
            assert_eq!(light_words(&d), [0; 4], "{}", tag(&d));
        });
    }

    #[test]
    fn pin_goes_light_after_two_long_operations() {
        each_domain(|d| {
            let mut h = d.register();
            // One long operation does not flip the next pin.
            walk(&mut h.pin(), 0, LONG_WALK);
            assert_eq!(streaks(&d), [1, 0, 0, 0], "{}", tag(&d));
            {
                let mut g = h.pin();
                assert_eq!(g.state.budget, HEAVY_BUDGET, "{}", tag(&d));
                // The retire's refill does not restart the count: 3 more
                // publications after it still make this operation long.
                walk(&mut g, 0, LONG_WALK);
                let p = g.alloc(0u64);
                // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
                unsafe { g.retire(p) };
                assert_ne!(g.state.budget, 0, "{}: the retire went heavy", tag(&d));
                walk(&mut g, 0, 3);
            }
            assert_eq!(streaks(&d), [LONG_STREAK, 0, 0, 0], "{}", tag(&d));

            // Two in a row: the next pin is light before any publication —
            // where the domain allows; a symmetric one never starts light.
            for _ in 0..2 {
                let mut g = h.pin();
                assert_eq!(g.state.published, 0);
                if d.asymmetric {
                    assert_eq!(g.state.budget, 0);
                    assert_eq!(light_words(&d), [1, 0, 0, 0]);
                } else {
                    assert_eq!(g.state.budget, HEAVY_BUDGET, "{}", tag(&d));
                    assert_eq!(light_words(&d), [0; 4]);
                }
                // Another long operation keeps the streak where it is.
                walk(&mut g, 0, LONG_WALK);
                drop(g);
                assert_eq!(light_words(&d), [0; 4], "{}", tag(&d));
                assert_eq!(streaks(&d), [LONG_STREAK, 0, 0, 0], "{}", tag(&d));
            }

            // One short operation ends the streak: the next pin is heavy.
            walk(&mut h.pin(), 0, 3);
            assert_eq!(streaks(&d), [0; 4], "{}", tag(&d));
            let g = h.pin();
            assert_eq!(g.state.budget, HEAVY_BUDGET, "{}", tag(&d));
            assert_eq!(light_words(&d), [0; 4], "{}", tag(&d));
            drop(g);

            // Release resets the streak: the slot's next owner starts heavy.
            for _ in 0..LONG_STREAK {
                walk(&mut h.pin(), 0, LONG_WALK);
            }
            assert_eq!(streaks(&d), [LONG_STREAK, 0, 0, 0], "{}", tag(&d));
            drop(h);
            assert_eq!(streaks(&d), [0; 4], "{}", tag(&d));
            let mut h = d.register();
            assert_eq!(h.pin().state.budget, HEAVY_BUDGET, "{}", tag(&d));
            h.flush();
            assert_eq!(d.unreclaimed(), 0, "{}", tag(&d));
        });
    }

    #[test]
    fn fallback_never_sets_a_light_word() {
        for snapshot in [false, true] {
            let d = Hp::new_symmetric(config(snapshot));
            let mut h = d.register();
            let mut g = h.pin();
            for hop in 0..10 * HEAVY_BUDGET {
                walk(&mut g, (hop % 3) as usize, 1);
                assert_ne!(g.state.budget, 0, "hop {hop}");
                assert_eq!(light_words(&d), [0; 4], "hop {hop}");
            }
            drop(g);
            retire_garbage(&mut h, 64);
            h.flush();
            assert_eq!(barriers(&d), 0);
            assert_eq!(d.unreclaimed(), 0);
        }
    }

    /// An owner publishes `target` from a guard readied by `warm_up` and keeps
    /// it;
    /// a worker on another thread retires the node under a storm of garbage
    /// and sweeps.  Only the hazard keeps the node alive.
    fn hazard_survives_another_threads_retire_storm(d: Arc<Hp>, warm_up: WarmUp) {
        let mut owner = d.register();
        let mut og = warm_pin(&mut owner, 1, warm_up);
        let light = warm_up.light(&d);
        assert_eq!(og.state.budget == 0, light, "{}", tag(&d));
        let target = {
            let p = og.alloc(123u64);
            let cell = Atomic::new(p);
            let seen = og.protect(0, &cell);
            assert_eq!(seen, p);
            p.into_raw()
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut worker = d.register();
                {
                    let mut g = worker.pin();
                    // SAFETY: the node was unlinked by this test and is retired exactly once.
                    unsafe { g.retire(Shared::<u64>::from_raw(target)) };
                }
                retire_garbage(&mut worker, 64);
                worker.flush();
            });
        });
        // Everything except the protected node must be gone.
        assert_eq!(d.unreclaimed(), 1, "{} warm_up={warm_up:?}", tag(&d));
        // SAFETY: the published hazard pins the node, so the read cannot race reclamation.
        unsafe { assert_eq!(*Shared::<u64>::from_raw(target).as_ptr(), 123) };
        // Sweeps ran the process barrier iff they met a light guard.
        assert_eq!(barriers(&d) > 0, light, "{} warm_up={warm_up:?}", tag(&d));

        // Dropping the guard releases the hazard (RAII unwind safety); the
        // worker's handle orphaned the node on its way out.
        drop(og);
        assert_eq!(light_words(&d), [0; 4]);
        owner.flush();
        assert_eq!(d.unreclaimed(), 0, "{} warm_up={warm_up:?}", tag(&d));
    }

    #[test]
    fn protected_node_survives_scan() {
        each_domain(|d| hazard_survives_another_threads_retire_storm(d, WarmUp::Cold));
    }

    #[test]
    fn light_hazard_survives_another_threads_retire_storm() {
        each_domain(|d| hazard_survives_another_threads_retire_storm(d, WarmUp::Walked));
    }

    #[test]
    fn entered_light_hazard_survives_another_threads_retire_storm() {
        each_domain(|d| hazard_survives_another_threads_retire_storm(d, WarmUp::EnteredLight));
    }

    #[test]
    fn dup_keeps_protection_alive() {
        each_domain(|d| {
            for warm_up in WARM_UPS {
                let mut owner = d.register();
                let mut worker = d.register();
                let mut og = warm_pin(&mut owner, 1, warm_up);
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
                assert_eq!(d.unreclaimed(), 0, "{} warm_up={warm_up:?}", tag(&d));
                drop(og);
            }
        });
    }

    #[test]
    fn guard_drop_clears_published_hazards() {
        each_domain(|d| {
            for warm_up in WARM_UPS {
                let mut h = d.register();
                let mut g = warm_pin(&mut h, 1, warm_up);
                let p = g.alloc(7u64);
                let cell = Atomic::new(p);
                g.protect(1, &cell);
                g.dup(1, 4);
                assert_ne!(d.core.reservation(0).hazards[1].load(Ordering::SeqCst), 0);
                assert_ne!(d.core.reservation(0).hazards[4].load(Ordering::SeqCst), 0);
                // SAFETY: `p` is unlinked; this guard's own hazards do not block its later reclamation.
                unsafe { g.retire(p) };
                // A cleared slot leaves the mask, so drop does not store to it again:
                // a value planted there afterwards survives the drop.
                g.clear(1);
                assert_eq!(g.state.used, 1 << 4);
                d.core.reservation(0).hazards[1].store(usize::MAX, Ordering::SeqCst);
                drop(g);
                assert_eq!(
                    d.core.reservation(0).hazards[1].swap(0, Ordering::SeqCst),
                    usize::MAX
                );
                for i in 0..MAX_HAZARDS {
                    assert_eq!(
                        d.core.reservation(0).hazards[i].load(Ordering::SeqCst),
                        0,
                        "hazard {i} must be cleared by guard drop"
                    );
                }
                assert_eq!(light_words(&d), [0; 4], "{} warm_up={warm_up:?}", tag(&d));
                h.flush();
                assert_eq!(d.unreclaimed(), 0);
            }
        });
    }

    #[test]
    fn repin_unpublishes_every_hazard() {
        // "repin" in the name now means the batch edge: drop + pin.
        each_domain(|d| {
            let mut h = d.register();
            let mut g = h.pin();
            let p = g.alloc(11u64);
            let cell = Atomic::new(p);
            walk(&mut g, 2, HEAVY_BUDGET + 3);
            g.protect(1, &cell);
            g.dup(1, 5);
            assert_ne!(d.core.reservation(0).hazards[1].load(Ordering::SeqCst), 0);
            assert_ne!(d.core.reservation(0).hazards[5].load(Ordering::SeqCst), 0);
            assert_eq!(light_words(&d)[0], usize::from(d.asymmetric));
            drop(g);
            let mut g = h.pin();
            for i in 0..MAX_HAZARDS {
                assert_eq!(
                    d.core.reservation(0).hazards[i].load(Ordering::SeqCst),
                    0,
                    "hazard {i} must be unpublished at the batch edge"
                );
            }
            assert_eq!(light_words(&d), [0; 4], "{}", tag(&d));
            // The re-pinned guard is heavy: its next publication spends from
            // a full budget.
            assert_eq!(g.state.budget, HEAVY_BUDGET, "{}", tag(&d));
            let seen = g.protect(0, &cell);
            assert_eq!(seen, p);
            assert_eq!(g.state.budget, HEAVY_BUDGET - 1, "{}", tag(&d));
            g.clear(0);
            // SAFETY: `p` is unlinked and no hazard names it any more.
            unsafe { g.retire(p) };
            drop(g);
            h.flush();
            assert_eq!(d.unreclaimed(), 0);
        });
    }

    #[test]
    fn panic_out_of_a_long_traversal_leaves_no_flag_and_no_hazard() {
        each_domain(|d| {
            let mut h = d.register();
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                let mut g = h.pin();
                walk(&mut g, 0, HEAVY_BUDGET + 3);
                g.dup(0, 6);
                assert_eq!(light_words(&d)[0], usize::from(d.asymmetric));
                panic!("mid-traversal");
            }));
            assert!(unwound.is_err());
            assert_eq!(light_words(&d), [0; 4], "{}", tag(&d));
            for hazard in &d.core.reservation(0).hazards {
                assert_eq!(hazard.load(Ordering::SeqCst), 0, "{}", tag(&d));
            }
        });
    }

    #[test]
    fn barriers_are_issued_only_for_another_threads_light_guard() {
        each_domain(|d| {
            let threshold = d.core.config().scan_threshold as u64;
            let mut reader = d.register();
            let mut sweeper = d.register();

            // Hash-map-style churn: no operation publishes more than three
            // hazards, whether or not a sweep lands inside it.  It starts
            // right after two long operations, so its first operation pins
            // light — and, short, ends the streak; its own retire leaves
            // light mode before it sweeps.
            for _ in 0..LONG_STREAK {
                walk(&mut reader.pin(), 0, HEAVY_BUDGET + 3);
            }
            for op in 0..2 * HEAVY_BUDGET {
                retire_garbage(&mut reader, threshold);
                if op == 0 {
                    assert_eq!(
                        streaks(&d),
                        [0; 4],
                        "{}: the first short operation",
                        tag(&d)
                    );
                }
                let mut g = reader.pin();
                assert_ne!(g.state.budget, 0, "{}", tag(&d));
                walk(&mut g, 0, 3);
                retire_garbage(&mut sweeper, threshold);
                drop(g);
            }
            assert_eq!(barriers(&d), 0, "{}: short operations", tag(&d));

            // A sweep whose only light thread is the sweeper itself: the
            // retire that triggers it leaves light mode first.
            {
                let mut g = reader.pin();
                walk(&mut g, 0, HEAVY_BUDGET + 3);
                for i in 0..2 * threshold {
                    let p = g.alloc(i);
                    // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
                    unsafe { g.retire(p) };
                }
                assert_eq!(light_words(&d), [0; 4], "{}: retire goes heavy", tag(&d));
                assert_ne!(g.state.budget, 0);
            }
            assert_eq!(d.unreclaimed(), 0, "the guard's own retires swept");
            assert_eq!(barriers(&d), 0, "{}: own light guard", tag(&d));

            // List-style churn: a traversal past the budget is open while
            // another thread sweeps.
            let mut g = reader.pin();
            walk(&mut g, 0, HEAVY_BUDGET + 3);
            retire_garbage(&mut sweeper, 4 * threshold);
            drop(g);
            if d.asymmetric {
                assert!(barriers(&d) >= 4, "{}: {}", tag(&d), barriers(&d));
            } else {
                assert_eq!(barriers(&d), 0, "{}", tag(&d));
            }
            // The reader's guard is gone: sweeps are free again.
            let before = barriers(&d);
            retire_garbage(&mut sweeper, 4 * threshold);
            sweeper.flush();
            assert_eq!(barriers(&d), before, "{}", tag(&d));
            assert_eq!(d.unreclaimed(), 0);
        });
    }

    #[test]
    fn retire_batch_reclaims_like_per_node_retire() {
        each_domain(|d| {
            let mut h = d.register();
            {
                let mut g = h.pin();
                let batch: Vec<_> = (0..48u64).map(|i| g.alloc(i)).collect();
                // SAFETY: each block was just allocated and never published, so
                // this thread is its sole owner and retires it exactly once.
                unsafe { g.retire_batch(&batch) };
            }
            h.flush();
            assert_eq!(d.unreclaimed(), 0, "{}", tag(&d));
        });
    }

    #[test]
    #[expect(
        clippy::mem_forget,
        reason = "a thread that dies without releasing its guard or handle"
    )]
    fn leaked_handle_on_dead_thread_is_adopted() {
        // Adoption must clear the dead thread's published hazard — and, if it
        // died in the middle of a long traversal, its `light` word, which
        // would otherwise tax every later sweep with a barrier — and its
        // streak, so the slot's next owner starts heavy.
        each_domain(|d| {
            for warm_up in WARM_UPS {
                let died_light = {
                    let d = d.clone();
                    std::thread::spawn(move || {
                        let mut h = d.register();
                        let mut g = warm_up.pin(&mut h);
                        let p = g.alloc(1u64);
                        // SAFETY: `p` is test-local and retired exactly once;
                        // the hazard published below is what keeps it alive.
                        // The retire leaves light mode: a guard that entered
                        // light dies heavy, its streak still standing.
                        unsafe { g.retire(p) };
                        walk(&mut g, 1, warm_up.hops());
                        g.protect(0, &Atomic::new(p));
                        let light = g.state.budget == 0;
                        std::mem::forget(g);
                        std::mem::forget(h);
                        light
                    })
                    .join()
                    .unwrap()
                };
                assert_eq!(died_light, d.asymmetric && warm_up == WarmUp::Walked);
                assert_eq!(light_words(&d)[0], usize::from(died_light));
                let streak = if warm_up == WarmUp::EnteredLight {
                    LONG_STREAK
                } else {
                    0
                };
                assert_eq!(streaks(&d), [streak, 0, 0, 0], "{}", tag(&d));
                assert_eq!(d.unreclaimed(), 1, "{}", tag(&d));
                let mut h = d.register();
                h.flush();
                assert_eq!(
                    d.unreclaimed(),
                    0,
                    "{}: a survivor must adopt the dead thread's slot, neutralize \
                     its reservation and drain its vault",
                    tag(&d)
                );
                assert_eq!(light_words(&d), [0; 4], "{} warm_up={warm_up:?}", tag(&d));
                assert_eq!(streaks(&d), [0; 4], "{} warm_up={warm_up:?}", tag(&d));
                // The survivor, and the next owner of the adopted slot, pin
                // heavy.
                assert_eq!(h.pin().state.budget, HEAVY_BUDGET, "{}", tag(&d));
                let mut next = d.register();
                let g = next.pin();
                assert!(std::ptr::eq(g.slot(), d.core.reservation(0)), "{}", tag(&d));
                assert_eq!(g.state.budget, HEAVY_BUDGET, "{}", tag(&d));
                assert_eq!(light_words(&d), [0; 4], "{} warm_up={warm_up:?}", tag(&d));
            }
        });
    }

    #[test]
    fn moved_handle_survives_registrant_death() {
        // The use-after-free scenario from the moved-handle report: a handle
        // is registered on thread A, moved to this thread, and A exits.  The
        // first pin here re-binds the slot's beacon to this (live) thread, so
        // a reclaiming peer must NOT adopt the slot and must keep honouring
        // the hazards this thread publishes through the moved handle.
        each_domain(|d| {
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
            }
            retire_garbage(&mut worker, 64);
            worker.flush();
            assert_eq!(
                d.unreclaimed(),
                1,
                "{}: protected node must survive adoption attempts",
                tag(&d)
            );
            // SAFETY: the published hazard pins `target`, so the read cannot race reclamation.
            unsafe { assert_eq!(*target.as_ptr(), 77, "{}", tag(&d)) };
            drop(g);
            worker.flush();
            assert_eq!(d.unreclaimed(), 0, "{}", tag(&d));
        });
    }

    #[test]
    #[should_panic(expected = "slot was adopted")]
    fn moved_handle_pin_after_adoption_panics() {
        // The lossy window: the handle moved off the registering thread and
        // that thread died BEFORE the handle's first pin here.  A survivor
        // adopts the slot; the handle's next pin must panic, not publish
        // hazards into the recycled slot.  Every domain must refuse; the
        // last refusal is re-raised as the panic this test is expected to
        // end with.
        let mut refusals = Vec::new();
        each_domain(|d| {
            let mut moved = {
                let d = d.clone();
                std::thread::spawn(move || d.register()).join().unwrap()
            };
            let mut survivor = d.register();
            survivor.flush(); // adopts the orphaned slot
            let refused = catch_unwind(AssertUnwindSafe(|| drop(moved.pin())));
            refusals.push(refused.expect_err(&tag(&d)));
        });
        assert_eq!(refusals.len(), 4);
        std::panic::resume_unwind(refusals.pop().unwrap());
    }

    #[test]
    fn bounded_memory_with_stalled_reader() {
        // Theorem 1: HP keeps at most H*N + N*R unreclaimed nodes even with a
        // stalled thread holding protections forever — whether it stalled
        // heavy or light (its hazards are read either way; light, it costs
        // each sweep a barrier).
        each_domain(|d| {
            for warm_up in WARM_UPS {
                let cfg = d.core.config().clone();
                let mut stalled = d.register();
                let mut worker = d.register();
                let mut sg = warm_pin(&mut stalled, 1, warm_up);
                let held = sg.alloc(u64::MAX);
                sg.protect(0, &Atomic::new(held));
                // never cleared: the guard stays alive while the worker churns
                {
                    let mut g = worker.pin();
                    // SAFETY: `held` is test-local and retired exactly once.
                    unsafe { g.retire(held) };
                }
                for _ in 0..512 {
                    retire_garbage(&mut worker, 8);
                }
                worker.flush();
                let bound = MAX_HAZARDS * cfg.max_threads + cfg.max_threads * cfg.scan_threshold;
                let left = d.unreclaimed();
                assert!(
                    (1..=bound).contains(&left),
                    "{} warm_up={warm_up:?}: unreclaimed {left} outside [1, Theorem 1 bound {bound}]",
                    tag(&d)
                );
                drop(sg);
                worker.flush();
                assert_eq!(d.unreclaimed(), 0, "{} warm_up={warm_up:?}", tag(&d));
            }
        });
    }

    #[test]
    fn concurrent_retires_all_reclaimed_when_unprotected() {
        let base = SmrConfig {
            max_threads: 8,
            scan_threshold: 32,
            ..SmrConfig::default()
        };
        each_domain_of(base, |d| {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let d = d.clone();
                    s.spawn(move || {
                        let mut h = d.register();
                        for i in 0..500u64 {
                            let mut g = h.pin();
                            // Every other thread's traversal outruns the
                            // budget now and then, so sweeps meet light guards.
                            if i % 7 == 0 {
                                walk(&mut g, 1, HEAVY_BUDGET + 3);
                            }
                            let p = g.alloc(i);
                            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
                            unsafe { g.retire(p) };
                        }
                        h.flush();
                    });
                }
            });
            assert_eq!(d.unreclaimed(), 0, "{}", tag(&d));
            assert_eq!(light_words(&d), [0; 8], "{}", tag(&d));
        });
    }
}
