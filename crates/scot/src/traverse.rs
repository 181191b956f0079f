//! The shared **SCOT traversal core**: one implementation of the
//! protect → validate → recover loop of the paper's Figure 5 (right), used by
//! every Harris-style traversal in this crate.
//!
//! The algorithmic content — which slot protects what, when the
//! dangerous-zone validation fires, and what happens when it fails — is
//! identical in the list core ([`crate::list`], behind both lists, the
//! hash-map buckets and the wait-free list) and in every skip-list level, so
//! it lives here exactly once, as the `Cursor`.  Its two clients keep only
//! what genuinely differs: where a traversal starts, what happens at its end
//! (insert/delete CASes), and the restart *policy* (the skip list re-enters a
//! level through its entry anchor instead of restarting from the head).
//!
//! # Mapping onto the paper
//!
//! | Figure 5 (right)                         | here |
//! |------------------------------------------|------|
//! | L33-36 start from `&Head`                | `Cursor::begin` (inside `Cursor::position`) |
//! | L38-47 safe-zone walk                    | the first inner loop of `Cursor::seek` |
//! | L48-49 anchor the first unsafe node      | `Cursor::enter_zone` (slot `HP_ANCHOR`) |
//! | L50-56 validated dangerous-zone walk     | the second inner loop of `Cursor::seek` |
//! | §3.2.1 recovery                          | `Recovery::Recovered` |
//! | restart (L50's `goto` on failure)        | `Recovery::Restart` / [`Restart`] |
//! | L57-62 cleanup + `Do_Retire`             | `Cursor::unlink_pending` |
//!
//! The validation itself — *"does the last safe node still point at the first
//! unsafe node?"* — is one load through the cursor's `prev` link plus a
//! recycling-incarnation re-check on the anchored chain head (the version
//! stamp the block pool maintains for VBR); the Natarajan-Mittal tree, whose
//! recovery policy is a plain restart (§3.2.2), validates its edges the same
//! way in its own seek record.
//!
//! # Validation as a type
//!
//! A cursor owns its operation's `&'g mut` guard borrow, so nothing outside
//! it can overwrite a hazard slot while it lives.  The rule "dereference a
//! node only after protecting (and, in a zone, validating) it" is asserted
//! once per pointer role, in the accessors of the cursor's position (`At`),
//! and every read of a node goes through a safe `&self` borrow that ends
//! before the next `&mut self` step recycles a slot.
//!
//! # The checkpoint protocol (rung 4)
//!
//! The neutralization/version schemes (NBR, VBR) may ask a reader to restart
//! its whole operation so reclamation can advance past it.  The cursor is the
//! single place that request is honored: `seek` polls
//! `SmrGuard::needs_restart` alongside the caller's interrupt hook,
//! acknowledges with `SmrGuard::checkpoint` (which voids every protection the
//! guard holds) and surfaces [`Restart::Operation`] — per-structure code only
//! has to treat that rung as "restart the operation from the root".
//! Operations that keep protected pointers of their own across seeks (tower
//! builds, post-mark cleanups) disable the poll through `Cursor::rewind`'s
//! `checkpoints` flag.
//!
//! # Statistics
//!
//! Every cursor records into a [`TraversalStats`] block owned by its
//! structure: full restarts (Table 2 of the paper), §3.2.1 recoveries, and
//! dangerous-zone entries.  [`TraversalSnapshot`] is the read-side view the
//! harness renders as uniform columns in every experiment table.

use crate::slots::{HP_ANCHOR, HP_CURR, HP_ENTRY, HP_NEXT, HP_PREV, HP_TOWER, HP_VICTIM};
use core::marker::PhantomData;
use core::sync::atomic::{AtomicU64, Ordering};
use scot_smr::{Atomic, Link, Shared, SmrGuard};

/// Tag bit marking a node as logically deleted (stored in the node's own
/// successor pointer, exactly as in Harris' original algorithm).
pub(crate) const MARK: usize = 1;

/// Traversal statistics shared by every structure: restart counting for the
/// paper's Table 2 plus §3.2.1 recovery and dangerous-zone-entry events.
///
/// Counters are relaxed atomics — they are observability, not
/// synchronization — and are only ever read through `TraversalStats::snapshot`.
///
/// ```
/// use scot::{ConcurrentMap, HarrisList};
/// use scot_smr::{Hp, Smr, SmrConfig};
///
/// let list: HarrisList<u64, Hp, u64> = HarrisList::new(Hp::new(SmrConfig::default()));
/// let mut h = ConcurrentMap::handle(&list);
/// let mut g = list.pin(&mut h);
/// for k in 0..32 {
///     list.insert(&mut g, k, k).unwrap();
/// }
/// drop(g);
/// let stats = list.traversal_stats();
/// // Single-threaded, nothing can disrupt a traversal:
/// assert_eq!(stats.restarts, 0);
/// assert_eq!(stats.recoveries, 0);
/// assert_eq!(stats.zone_entries, 0);
/// ```
#[derive(Default)]
pub struct TraversalStats {
    restarts: AtomicU64,
    recoveries: AtomicU64,
    zone_entries: AtomicU64,
    spins: AtomicU64,
}

impl TraversalStats {
    /// Records one full traversal restart (ladder rung 3 / restart-from-head).
    #[inline]
    pub(crate) fn record_restart(&self) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one recovery: a §3.2.1 escape or a skip-list rung-2 re-entry
    /// that avoided a full restart.
    #[inline]
    pub(crate) fn record_recovery(&self) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one dangerous-zone entry (the traversal stepped onto a
    /// logically deleted node and began validating).
    #[inline]
    pub(crate) fn record_zone_entry(&self) {
        self.zone_entries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` backoff spin iterations waited before a retry.
    #[inline]
    pub(crate) fn record_spins(&self, n: u64) {
        self.spins.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of full restarts recorded so far.
    #[inline]
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Number of recoveries recorded so far.
    #[inline]
    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// Number of dangerous-zone entries recorded so far.
    #[inline]
    pub fn zone_entries(&self) -> u64 {
        self.zone_entries.load(Ordering::Relaxed)
    }

    /// Total backoff spin iterations waited so far.
    #[inline]
    pub fn spins(&self) -> u64 {
        self.spins.load(Ordering::Relaxed)
    }

    /// Reads all counters at once (not atomically across counters; the
    /// numbers are statistics, not invariants).
    pub fn snapshot(&self) -> TraversalSnapshot {
        TraversalSnapshot {
            restarts: self.restarts(),
            recoveries: self.recoveries(),
            zone_entries: self.zone_entries(),
            spins: self.spins(),
        }
    }
}

/// A point-in-time view of a [`TraversalStats`] block; what
/// [`crate::ConcurrentMap::traversal_stats`] returns and what the benchmark
/// harness renders as the restart/recovery columns of its tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalSnapshot {
    /// Full traversal restarts (Table 2 of the paper).
    pub restarts: u64,
    /// §3.2.1 recoveries plus skip-list ladder rung-2 re-entries.
    pub recoveries: u64,
    /// Dangerous-zone entries (marked-chain traversals begun).
    pub zone_entries: u64,
    /// Backoff spin iterations waited before retries.
    pub spins: u64,
}

/// One-hop software prefetch: while the cursor still examines the current
/// node, warm the cache line of the already-protected successor snapshot so
/// the upcoming advance dereferences into L1 instead of missing to memory.
/// Pointer-chasing traversals expose no instruction-level parallelism on
/// their own — every key comparison waits for the previous load — so this is
/// where list walks spend their cycles; overlapping the next miss with the
/// current comparison is the classic fix.
///
/// A pure hint: issued only on targets with a portable prefetch instruction
/// and compiled out under Miri (which does not model prefetch intrinsics).
/// The tag bit is stripped first so the hint lands on the node's actual
/// address.
#[inline(always)]
fn prefetch_next<N>(next: Shared<N>) {
    let ptr = next.untagged().as_ptr();
    if ptr.is_null() {
        return;
    }
    #[cfg(all(not(miri), target_arch = "x86_64"))]
    // SAFETY: `prefetcht0` is an architectural hint — it never faults and
    // performs no access visible to the abstract machine, so any address
    // (even one concurrently retired) is sound to pass.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr.cast());
    }
    #[cfg(all(not(miri), target_arch = "aarch64"))]
    // SAFETY: `prfm pldl1keep` is an architectural hint — it never faults and
    // performs no access visible to the abstract machine; the asm reads no
    // memory, touches no stack, and preserves flags.
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{0}]",
            in(reg) ptr,
            options(nostack, preserves_flags)
        );
    }
    #[cfg(any(miri, not(any(target_arch = "x86_64", target_arch = "aarch64"))))]
    let _ = ptr;
}

/// Cap of the restart-ladder backoff: at most `1 << BACKOFF_MAX_SHIFT` spin
/// hints (a few hundred cycles), far below a scheduling quantum — backoff can
/// delay a retry but never park a lock-free operation.
const BACKOFF_MAX_SHIFT: u32 = 6;

std::thread_local! {
    /// Per-thread bounded-exponential backoff state: the next wait is
    /// `1 << shift` spin hints, doubling per consecutive failure up to
    /// [`BACKOFF_MAX_SHIFT`] and reset by the next successful positioning.
    /// Thread-local (not per-cursor) so the state carries across the
    /// operations of one thread, with no cross-thread traffic.
    static BACKOFF_SHIFT: core::cell::Cell<u32> = const { core::cell::Cell::new(0) };
}

/// Waits out one backoff step before a retry (after a failed CAS or a
/// restart-ladder climb), recording the spin count into `stats`.  Under
/// contention storms every thread otherwise re-enters the same contended
/// neighborhood in lockstep and fails again; staggered waits let one winner
/// finish per round.
#[inline]
fn backoff(stats: &TraversalStats) {
    let spins = BACKOFF_SHIFT.with(|s| {
        let shift = s.get();
        s.set((shift + 1).min(BACKOFF_MAX_SHIFT));
        1u32 << shift
    });
    for _ in 0..spins {
        core::hint::spin_loop();
    }
    stats.record_spins(u64::from(spins));
}

/// Resets this thread's backoff state after a successful positioning.
#[inline]
fn backoff_reset() {
    BACKOFF_SHIFT.with(|s| s.set(0));
}

/// A node traversable by the shared cursor: a key, a value, and, per level, a
/// tagged link to the successor.  Lists are the one-level case; the skip list
/// implements it over its tower layout.
pub(crate) trait SlotNode<K>: Send + Sized + 'static {
    /// The value payload stored next to the key.
    type Value;

    /// The link cell toward this node's successor at `level`.  Every node
    /// the cursor reaches was reached through a link of `level` or higher,
    /// so `level` is below its height; an out-of-range level panics.
    fn successor(&self, level: usize) -> &Atomic<Self>;

    /// The node's key.
    fn node_key(&self) -> &K;

    /// The node's value.
    fn node_value(&self) -> &Self::Value;
}

/// Where a positioning traversal stops.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SeekBound<K> {
    /// Stop at the first node with key `>=` the bound — the paper's ordinary
    /// `Do_Find(k)`.
    Ge(K),
    /// Stop at the first node with key `>` the bound — how a range scan
    /// resumes after the node it was parked on got disrupted.
    Gt(K),
}

impl<K: Ord> SeekBound<K> {
    #[inline]
    fn stops_at(&self, key: &K) -> bool {
        match self {
            SeekBound::Ge(b) => key >= b,
            SeekBound::Gt(b) => key > b,
        }
    }
}

/// How the cursor treats logically deleted nodes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ZoneMode {
    /// SCOT (Figure 5 right): traverse marked chains under dangerous-zone
    /// validation, escaping a failed validation by §3.2.1 recovery when the
    /// last safe node is unmarked; the caller unlinks the pending chain
    /// afterwards.
    Scot,
    /// Michael's discipline: never step past a marked node — unlink it on the
    /// spot and restart if the unlink CAS fails.  No dangerous zone ever
    /// forms, which is why the Harris-Michael baseline needs no validation.
    Eager,
}

/// Outcome of the recovery ladder after a failed validation, from cheapest to
/// most expensive rung.  Rung 1 (§3.2.1 recovery) is handled *inside* the
/// cursor — the traversal continues from the last safe node's new successor —
/// so only the restart rungs surface to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Restart {
    /// Rung 2: re-enter the current level through its entry anchor (skip-list
    /// only; the anchor stays protected in [`crate::slots::HP_ENTRY`]).
    /// Counted as a recovery, not a restart.
    Entry,
    /// Rung 3: restart from the (level) head.  Counted as a restart — this is
    /// the Table 2 number.
    Head,
    /// Rung 4: the reclamation scheme asked the whole operation to restart
    /// (`SmrGuard::needs_restart`, the NBR/VBR checkpoint protocol).  By the
    /// time the cursor surfaces this, it has already acknowledged with
    /// `SmrGuard::checkpoint`, which voids **every** protection the guard
    /// held — so the caller must restart its operation from the structure
    /// root without touching any previously read pointer.  Counted as a
    /// restart.
    Operation,
}

/// Internal outcome of one validation failure: either the §3.2.1 recovery
/// repositioned the cursor (rung 1), or the ladder says restart.
enum Recovery {
    /// Rung 1 succeeded: `curr`/`next` now sit on the last safe node's new
    /// successor; the traversal continues without losing its position.
    Recovered,
    /// Rungs 2/3: the caller must re-enter per the [`Restart`] level.
    Restart(Restart),
}

/// Why `Cursor::position` did not park the cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// Validation (or an eager unlink) failed.  The ladder has already
    /// re-targeted the cursor — rung 2 at the level's entry anchor, rung 3
    /// at the level head, rung 4 at nothing (`Cursor::rewind` first) — so
    /// the caller only calls `position` again.
    Restart(Restart),
    /// The caller's interrupt hook fired (wait-free helping protocol).
    Interrupted,
}

/// Borrows a node this thread owns outright: allocated and never published,
/// unlinked by this thread as its unique retirer, or reached by a
/// structure's `Drop`.
///
/// # Safety
/// No other thread may free or write the node's fields (other than through
/// atomics) while the borrow lives.
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "the exclusive-ownership constructor"
)]
pub(crate) unsafe fn owned<'a, T>(ptr: Shared<T>) -> &'a T {
    // SAFETY: forwarded — the caller owns the node exclusively, so it is
    // live and nobody reclaims it under the borrow.
    unsafe { ptr.deref() }
}

/// Where the cursor stands: `prev`/`curr`/`next` over the
/// [slot map](crate::slots) plus the zone and ladder bookkeeping.  Kept apart
/// from the guard borrow so a `protect` can read a link through `&self.at`
/// while it mutates `self.g`.
///
/// Its accessors are where the per-scheme protection argument (DESIGN.md §
/// "The per-scheme protection argument, stated once") is asserted, once
/// each; the cursor maintains their invariant: every statement that moves a
/// pointer moves the hazard slot the invariant names with it.
struct At<K, N> {
    /// Link of the last safe node (the level head at start) — the CAS target
    /// for insert/unlink, and the source of every validation load.
    prev: Link<N>,
    /// Owner of `prev`: null for the head, otherwise the node protected by
    /// `HP_PREV`.
    pred: Shared<N>,
    /// First unsafe node of the current dangerous zone (anchored in
    /// `HP_ANCHOR`); null while in the safe zone.  `prev_next` in Figure 5.
    chain: Shared<N>,
    /// Current node, protected by `HP_CURR` (null at the level end and
    /// after a failed positioning).
    curr: Shared<N>,
    /// `curr`'s successor snapshot, protected by `HP_NEXT`; its tag bit is
    /// `curr`'s logical-deletion mark.
    next: Shared<N>,
    /// Which level's links this cursor walks (0 for plain lists).
    level: usize,
    /// Restart anchor for ladder rung 2 (null = no rung 2, restart from
    /// head), protected by `HP_ENTRY`.
    entry: Shared<N>,
    /// Recycling-incarnation stamp of the anchored chain head, captured at
    /// zone entry and re-checked by every validation.
    chain_version: u64,
    /// The node the operation parked in a structure-owned slot: the removal
    /// victim in `HP_VICTIM` or the inserter's own tower in `HP_TOWER`.
    parked: Shared<N>,
    _key: PhantomData<K>,
}

impl<K, N: SlotNode<K>> At<K, N> {
    /// The last safe node's link.
    #[inline]
    #[expect(clippy::disallowed_methods, reason = "the cursor's `prev` constructor")]
    fn prev(&self) -> &Atomic<N> {
        // SAFETY: `prev` is a level-head link, which lives as long as the
        // structure the operation runs on, or a link of `pred`, which
        // `HP_PREV` protects durably (fact 1).
        unsafe { self.prev.as_atomic() }
    }

    /// `node`'s link at the cursor's level.
    #[inline]
    fn link<'n>(&self, node: &'n N) -> &'n Atomic<N> {
        node.successor(self.level)
    }

    /// The current node.
    #[inline]
    #[expect(clippy::disallowed_methods, reason = "the cursor's `curr` constructor")]
    fn curr(&self) -> Option<&N> {
        // SAFETY: `curr` is protected by `HP_CURR` and the protection is
        // durable: fact 1 in the safe zone, fact 2 (validated reachability)
        // in the dangerous zone.
        unsafe { self.curr.as_ref() }
    }

    /// The last safe node (`None` at the level head).
    #[inline]
    #[expect(clippy::disallowed_methods, reason = "the cursor's `pred` constructor")]
    fn pred(&self) -> Option<&N> {
        // SAFETY: `pred` is protected by `HP_PREV` (or, right after a rung-2
        // climb, by `HP_ENTRY` too) and was unmarked when it became the last
        // safe node (fact 1).
        unsafe { self.pred.as_ref() }
    }

    /// The recycling-incarnation stamp of the anchored chain head.
    #[inline]
    fn chain_stamp(&self) -> u64 {
        // SAFETY: `chain` is non-null inside a zone and protected by
        // `HP_ANCHOR` (or the guard's era/epoch), so its header is readable.
        unsafe { scot_smr::version_of(self.chain) }
    }
}

/// The shared traversal cursor: the operation's exclusive guard borrow plus
/// where it stands, with the §3.2.1 recovery ladder driven by
/// `Cursor::position`.
///
/// One cursor serves one whole operation: it is built once and re-targeted
/// in place — by `Cursor::rewind` (a level head), `Cursor::descend` (the
/// next skip-list level) and the ladder's own rungs.  Because it holds
/// `&'g mut G`, nothing outside it can overwrite a hazard slot while it
/// lives, so a node it has protected and validated is read through the safe
/// `Cursor::curr`; those borrows end before any `&mut self` step recycles a
/// slot.  The guard stays behind the cursor: it exposes only `alloc`,
/// `retire` and the structure-owned slots ([`crate::slots::HP_ENTRY`],
/// [`crate::slots::HP_VICTIM`], [`crate::slots::HP_TOWER`]).
pub(crate) struct Cursor<'t, 'g, G, K, N> {
    g: &'g mut G,
    at: At<K, N>,
    /// Whether this traversal may answer a scheme's checkpoint request
    /// (`SmrGuard::needs_restart`) with rung 4.  A checkpoint voids every
    /// protection of the guard, so an operation only enables this while it
    /// keeps **no** protected pointer of its own across the seek (the
    /// skip-list tower builder and remover hold theirs across re-seeks and
    /// turn it off).
    checkpoints: bool,
    /// Whether `Cursor::position`'s cleanup retires the chain it unlinks
    /// (lists) or leaves retirement to each tower's elected remover (skip
    /// list: a node unlinked from one level may still be reachable through
    /// another).
    retire_chains: bool,
    stats: &'t TraversalStats,
    mode: ZoneMode,
}

impl<'t, 'g, G: SmrGuard, K: Ord + Copy, N: SlotNode<K>> Cursor<'t, 'g, G, K, N> {
    /// A cursor for one operation, at level 0 before `head`.
    pub(crate) fn new(
        g: &'g mut G,
        head: &'t Atomic<N>,
        stats: &'t TraversalStats,
        mode: ZoneMode,
        retire_chains: bool,
    ) -> Self {
        Cursor {
            g,
            at: At {
                prev: head.as_link(),
                pred: Shared::null(),
                chain: Shared::null(),
                curr: Shared::null(),
                next: Shared::null(),
                level: 0,
                entry: Shared::null(),
                chain_version: 0,
                parked: Shared::null(),
                _key: PhantomData,
            },
            checkpoints: true,
            retire_chains,
            stats,
            mode,
        }
    }

    /// Re-targets the cursor at the head of `level`, with no entry anchor;
    /// `checkpoints` enables the rung-4 answer to a scheme's restart request
    /// (pass `true` only while the operation holds no protected pointer of
    /// its own across the coming seeks).
    #[inline]
    pub(crate) fn rewind(&mut self, level: usize, checkpoints: bool) {
        self.at.level = level;
        self.at.pred = Shared::null();
        self.at.entry = Shared::null();
        self.checkpoints = checkpoints;
    }

    /// Moves one level down: this level's last safe node becomes the next
    /// level's start and its rung-2 entry anchor, parked in `HP_ENTRY` for
    /// the whole level.
    #[inline]
    pub(crate) fn descend(&mut self) {
        self.at.level -= 1;
        self.at.entry = self.at.pred;
        if !self.at.entry.is_null() {
            self.g.dup(HP_PREV, HP_ENTRY);
        }
    }

    /// The one positioning call (Figure 5 right, L33-62): starts at the last
    /// safe node (or `head`), walks the level until a live node satisfies
    /// `bound` (or the level ends) under the cursor's `ZoneMode`, and, with
    /// `cleanup`, unlinks the pending marked chain.
    ///
    /// `interrupt` is polled once per step; returning `true` aborts with
    /// `Stop::Interrupted` (the wait-free list's helping protocol uses this
    /// to stop every participant as soon as anyone published the answer).
    ///
    /// On `Ok`, slots `HP_PREV`/`HP_CURR`/`HP_NEXT` protect the last safe
    /// node, `Cursor::curr` and its successor, so the caller can immediately
    /// use them for its insert/delete CAS.
    pub(crate) fn position(
        &mut self,
        head: &'t Atomic<N>,
        bound: &SeekBound<K>,
        cleanup: bool,
        interrupt: impl FnMut() -> bool,
    ) -> Result<(), Stop> {
        self.begin(head).map_err(Stop::Restart)?;
        self.seek(bound, interrupt)?;
        // Progress: the next failure starts the backoff ladder from the
        // bottom again.
        backoff_reset();
        if cleanup {
            self.unlink_pending().map_err(Stop::Restart)?;
        }
        Ok(())
    }

    /// Whether the parked node holds `bound`'s key.
    #[inline]
    pub(crate) fn found(&self, bound: &SeekBound<K>) -> bool {
        // A strict bound never "finds" its key.
        matches!(bound, SeekBound::Ge(k) if self.curr().is_some_and(|n| n.node_key() == k))
    }

    /// The node the cursor is parked on (`None` at the end of the level).
    /// After `Cursor::position` it is live and unmarked.
    #[inline]
    pub(crate) fn curr(&self) -> Option<&N> {
        self.at.curr()
    }

    /// The parked node's pointer value, for CAS comparisons.
    #[inline]
    pub(crate) fn curr_ptr(&self) -> Shared<N> {
        self.at.curr
    }

    /// The protected successor snapshot of the parked node.
    #[inline]
    pub(crate) fn next_ptr(&self) -> Shared<N> {
        self.at.next
    }

    /// The parked node's key and value: what a range scan yields.
    #[inline]
    pub(crate) fn entry(&self) -> Option<(K, &N::Value)> {
        self.curr().map(|n| (*n.node_key(), n.node_value()))
    }

    /// The insert/unlink CAS on the last safe node's link: swings it from the
    /// parked node to `new`.
    #[inline]
    pub(crate) fn cas_prev(&self, new: Shared<N>) -> bool {
        self.at.prev().cas(self.at.curr, new).is_ok()
    }

    /// Allocates a node through the guard.
    #[inline]
    pub(crate) fn alloc<T: Send + 'static>(&mut self, value: T) -> Shared<T> {
        self.g.alloc(value)
    }

    /// Retires an unlinked node.
    ///
    /// # Safety
    /// The [`SmrGuard::retire`] contract: this thread is `node`'s unique
    /// retirer and `node` is unreachable for new operations.
    #[inline]
    pub(crate) unsafe fn retire(&mut self, node: Shared<N>) {
        // SAFETY: forwarded to the caller.
        unsafe { self.g.retire(node) }
    }

    /// Parks the node the cursor stands on in `HP_VICTIM`, where it stays
    /// protected across the cleanup seeks that recycle the traversal slots.
    #[inline]
    pub(crate) fn pin_victim(&mut self) {
        self.g.dup(HP_CURR, HP_VICTIM);
        self.at.parked = self.at.curr;
    }

    /// Parks the inserter's own `node` in `HP_TOWER` before the CAS that
    /// publishes it.
    ///
    /// # Safety
    /// `node` comes from `Cursor::alloc` and is not yet published.
    #[inline]
    pub(crate) unsafe fn pin_tower(&mut self, node: Shared<N>) {
        self.g.announce(HP_TOWER, node);
        self.at.parked = node;
    }

    /// The node parked by `Cursor::pin_victim` or `Cursor::pin_tower`.
    #[inline]
    #[expect(clippy::disallowed_methods, reason = "the parked-node constructor")]
    pub(crate) fn parked(&self) -> Option<&N> {
        // SAFETY: `parked` is protected by `HP_VICTIM` or `HP_TOWER`; no
        // traversal touches those slots, and both were durable when parked
        // (a `dup` from the durable `HP_CURR`, or an announce before the
        // publishing CAS).
        unsafe { self.at.parked.as_ref() }
    }

    /// Ends the operation with the parked node's value, borrowed for as long
    /// as the guard: `get` and the list `remove`.
    #[inline]
    pub(crate) fn into_value(self) -> Option<&'g N::Value> {
        let node = self.at.curr;
        self.into_parked_value(node)
    }

    /// Ends the operation with the victim's value (the skip-list `remove`).
    #[inline]
    pub(crate) fn into_victim_value(self) -> Option<&'g N::Value> {
        let node = self.at.parked;
        self.into_parked_value(node)
    }

    /// `node` is `curr` or the parked victim.  Consuming the cursor hands its
    /// `&'g mut` guard borrow to the returned value: no later step can
    /// recycle the slot that protects it while the borrow lives.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "the guard-lifetime value constructor"
    )]
    fn into_parked_value(self, node: Shared<N>) -> Option<&'g N::Value> {
        // SAFETY: `node` is protected by `HP_CURR` or `HP_VICTIM` (durable,
        // see `At::curr` / `Cursor::parked`); retiring it does not free it while
        // that slot is published, and the slot stays published for `'g`.
        unsafe { node.as_ref() }.map(N::node_value)
    }

    /// Visits every unmarked node of level 0 from `head`, unvalidated: like
    /// [`crate::ConcurrentMap::collect`], which it serves, it must not run
    /// concurrently with removals under a robust scheme.
    pub(crate) fn walk(&mut self, head: &'t Atomic<N>, mut f: impl FnMut(&N)) {
        let mut curr = self.g.protect(HP_CURR, head);
        while !curr.is_null() {
            #[expect(
                clippy::disallowed_methods,
                reason = "a quiescent walk: no node is retired while it runs"
            )]
            // SAFETY: a quiescent walk — no node is retired while it runs,
            // and `HP_CURR` protects `curr` besides.
            let node = unsafe { curr.deref() };
            let next = self.g.protect(HP_NEXT, self.at.link(node));
            if next.tag() == 0 {
                f(node);
            }
            curr = next.untagged();
            self.g.dup(HP_NEXT, HP_CURR);
        }
    }

    /// Starts the level at the last safe node's link (or `head`): protects
    /// the first node into `HP_CURR` and its successor into `HP_NEXT`.
    /// Fails with a ladder outcome when the start owner is already marked —
    /// possible only for interior starts, where the owner can be logically
    /// deleted between levels.
    #[inline]
    fn begin(&mut self, head: &'t Atomic<N>) -> Result<(), Restart> {
        self.at.prev = match self.at.pred() {
            None => head.as_link(),
            Some(pred) => self.at.link(pred).as_link(),
        };
        self.at.chain = Shared::null();
        self.at.curr = self.g.protect(HP_CURR, self.at.prev());
        if self.at.curr.tag() != 0 {
            // The start owner is marked at this level: climb the ladder.
            return Err(self.climb());
        }
        self.protect_next();
        Ok(())
    }

    /// Protects `curr`'s successor into `HP_NEXT` (null at the level end).
    #[inline]
    fn protect_next(&mut self) {
        self.at.next = match self.at.curr() {
            None => Shared::null(),
            Some(curr) => self.g.protect(HP_NEXT, self.at.link(curr)),
        };
        prefetch_next(self.at.next);
    }

    /// The once-per-step poll: the caller's interrupt hook, then rung 4 —
    /// answering a pending scheme restart request
    /// (`SmrGuard::needs_restart`) when this traversal is allowed to.  The
    /// acknowledging `checkpoint` call discards all protections and
    /// re-announces the current era, so the seek must then return
    /// [`Restart::Operation`] immediately — every cursor slot is void.
    #[inline]
    fn poll(&mut self, interrupt: &mut impl FnMut() -> bool) -> Result<(), Stop> {
        if interrupt() {
            return Err(Stop::Interrupted);
        }
        if self.checkpoints && self.g.needs_restart() {
            self.g.checkpoint();
            self.stats.record_restart();
            self.at.curr = Shared::null();
            self.at.pred = Shared::null();
            self.at.entry = Shared::null();
            // A checkpoint storm (the scheme repeatedly neutralizing this
            // thread) is a restart storm like any other: stagger the retry.
            backoff(self.stats);
            return Err(Stop::Restart(Restart::Operation));
        }
        Ok(())
    }

    /// The recovery ladder, rungs 2 and 3: re-target the entry anchor when it
    /// exists and the traversal has moved past it (the anchor stays protected
    /// by [`crate::slots::HP_ENTRY`], so publishing it back into `HP_PREV` is
    /// sound despite copying downwards); otherwise the level head.  `curr`
    /// is dropped: a climb may follow a protect whose source was marked,
    /// which leaves that protection without fact 1.
    fn climb(&mut self) -> Restart {
        self.at.curr = Shared::null();
        let rung = if self.at.pred != self.at.entry && !self.at.entry.is_null() {
            self.stats.record_recovery();
            self.g.announce(HP_PREV, self.at.entry);
            self.at.pred = self.at.entry;
            Restart::Entry
        } else {
            self.stats.record_restart();
            self.at.pred = Shared::null();
            Restart::Head
        };
        // Wait out one backoff step before the caller re-enters: consecutive
        // climbs mean this neighborhood is churning, and retrying instantly
        // just collides again.
        backoff(self.stats);
        rung
    }

    /// One failed validation: attempt the §3.2.1 recovery (rung 1), climbing
    /// the ladder when the last safe node is itself marked.
    ///
    /// `observed` is the value the validation load saw in `prev`.
    /// Out of line: validations fail a few times per million operations, and
    /// a single-caller instantiation would otherwise fold into the hop loop.
    #[cold]
    fn recover(&mut self, observed: Shared<N>) -> Recovery {
        if observed.tag() != 0 {
            return Recovery::Restart(self.climb());
        }
        // §3.2.1: the last safe node is still unmarked, so it merely points
        // at a new successor (a fresh insert, or the chain has already been
        // cleaned up); continue from there.
        self.stats.record_recovery();
        self.at.curr = self.g.protect(HP_CURR, self.at.prev());
        if self.at.curr.tag() != 0 {
            // The last safe node got marked after all.
            return Recovery::Restart(self.climb());
        }
        self.at.chain = Shared::null();
        self.protect_next();
        Recovery::Recovered
    }

    /// The protect-validate-recover loop (Figure 5 right, L38-56).
    fn seek(
        &mut self,
        bound: &SeekBound<K>,
        mut interrupt: impl FnMut() -> bool,
    ) -> Result<(), Stop> {
        'traverse: loop {
            // ---------- Phase 1: safe zone (L38-47) ----------
            loop {
                self.poll(&mut interrupt)?;
                let Some(curr) = self.at.curr() else {
                    return Ok(());
                };
                // Michael's revalidation: the predecessor must still point at
                // `curr`.  This both detects concurrent unlinks and maintains
                // the "prev is unmarked" invariant his protection argument
                // rests on.
                //
                // ORDERING: Acquire, like every validation load.
                // Failing it restarts from the head (eager mode is the lists',
                // which have no entry anchor, so the ladder lands there).
                if let ZoneMode::Eager = self.mode {
                    if self.at.prev().load(Ordering::Acquire) != self.at.curr {
                        return Err(Stop::Restart(self.climb()));
                    }
                }
                if self.at.next.tag() != 0 {
                    // `curr` is logically deleted: Phase 2 (or eager unlink).
                    break;
                }
                if bound.stops_at(curr.node_key()) {
                    return Ok(());
                }
                // The safe-zone advance (L43-47): `curr` becomes the last
                // safe node.
                self.at.prev = self.at.link(curr).as_link();
                self.at.pred = self.at.curr;
                self.at.chain = Shared::null();
                self.g.dup(HP_CURR, HP_PREV);
                self.at.curr = self.at.next;
                if self.at.curr.is_null() {
                    return Ok(());
                }
                self.g.dup(HP_NEXT, HP_CURR);
                self.protect_next();
            }

            if let ZoneMode::Eager = self.mode {
                // Unlink the single marked node right now (the defining
                // difference from Harris' list) and retire it on success.
                if !self.cas_prev(self.at.next.untagged()) {
                    return Err(Stop::Restart(self.climb()));
                }
                // SAFETY: we won the unlink CAS — unique retirer.
                unsafe { self.g.retire(self.at.curr) };
                self.at.curr = self.at.next.untagged();
                self.g.dup(HP_NEXT, HP_CURR);
                self.protect_next();
                continue 'traverse;
            }

            // ---------- Phase 2: dangerous zone (L48-56) ----------
            self.enter_zone();
            loop {
                self.poll(&mut interrupt)?;
                match self.validate() {
                    Ok(()) => {}
                    Err(Recovery::Recovered) => continue 'traverse,
                    Err(Recovery::Restart(r)) => return Err(Stop::Restart(r)),
                }
                if self.at.next.tag() == 0 {
                    // End of the marked chain: back to the safe zone with the
                    // pending cleanup information intact.
                    continue 'traverse;
                }
                // Step deeper into the zone: the validation above proved the
                // chain still linked after `next`'s protection became
                // visible (Theorem 2, applied per level).
                self.at.curr = self.at.next.untagged();
                if self.at.curr.is_null() {
                    return Ok(());
                }
                self.g.dup(HP_NEXT, HP_CURR);
                self.protect_next();
            }
        }
    }

    /// Enters the dangerous zone: anchors the first unsafe node in
    /// `HP_ANCHOR` so the validation can rely on pointer comparison even if
    /// the chain is concurrently unlinked (ABA prevention, §3.2).
    #[inline]
    fn enter_zone(&mut self) {
        self.g.dup(HP_CURR, HP_ANCHOR);
        self.at.chain = self.at.curr;
        self.at.chain_version = self.at.chain_stamp();
        self.stats.record_zone_entry();
    }

    /// The SCOT validation (§3.1), performed **before** every dereference
    /// deeper into the zone: the last safe node must still point at the first
    /// unsafe node.  On failure, runs the recovery ladder.
    ///
    /// One deliberate deviation from Figure 5 (right): as printed, the
    /// unrolled pseudocode issues its first validation only after one
    /// dereference into the zone, which would leave a window on the very
    /// first step; hoisting it to the zone entry matches the simple variant
    /// on the figure's left and the prose of §3.1.
    #[inline]
    fn validate(&mut self) -> Result<(), Recovery> {
        // ORDERING: Acquire — a successful validation is what licenses the
        // subsequent deref of the zone's next node, so the load must
        // synchronize with the release store that published the link.
        let observed = self.at.prev().load(Ordering::Acquire);
        // Version re-check on top of the pointer comparison: a matching
        // address whose recycling-incarnation stamp moved means the anchored
        // chain head was reclaimed and the same memory re-inserted here (ABA
        // through the block pool).  The anchor protection makes this
        // impossible while it holds, so the check is hardening for the
        // eager-recycling schemes, where the stamp is the paper-faithful
        // detection primitive.
        if observed == self.at.chain && self.at.chain_stamp() == self.at.chain_version {
            Ok(())
        } else {
            Err(self.recover(observed))
        }
    }

    /// Cleanup (L57-62): if a marked chain `[chain, curr)` is pending, unlink
    /// it with one CAS on the last safe node's link, retiring it when the
    /// cursor's structure owns chain retirement (`Do_Retire`, L24-29 — the
    /// unlink winner is the unique retirer).
    fn unlink_pending(&mut self) -> Result<(), Restart> {
        if self.at.chain.is_null() || self.at.chain == self.at.curr {
            return Ok(());
        }
        if self.at.prev().cas(self.at.chain, self.at.curr).is_err() {
            return Err(self.climb());
        }
        if self.retire_chains {
            // Hand the scheme whole chain segments through `retire_batch` so
            // the domain's retire bookkeeping (one retire-record update per
            // batch) is paid once per chunk instead of once per node.  The
            // chunk buffer lives on the stack — no allocation on the unlink
            // path.
            const CHUNK: usize = 16;
            let mut buf = [Shared::null(); CHUNK];
            let mut n = 0;
            let mut cur = self.at.chain;
            loop {
                let done = cur == self.at.curr;
                if !done {
                    debug_assert!(!cur.is_null(), "marked chain must end at `curr`");
                    // SAFETY: we won the unlink CAS, so this thread owns every
                    // chain node; their successor links are written by no one.
                    let node = unsafe { owned(cur) };
                    buf[n] = cur;
                    n += 1;
                    cur = self.at.link(node).load(Ordering::Acquire).untagged();
                }
                if n == CHUNK || (done && n > 0) {
                    // SAFETY: the unlink winner is the unique retirer of each
                    // chain node, and each appears in one batch once.
                    unsafe { self.g.retire_batch(&buf[..n]) };
                    n = 0;
                }
                if done {
                    break;
                }
            }
        }
        self.at.chain = Shared::null();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Range-scan stepping
// ---------------------------------------------------------------------------

/// State of a guard-scoped range scan between two advances.
pub(crate) enum ScanState<K> {
    /// Position with a full validated seek for the first node in `bound`.
    Seek(SeekBound<K>),
    /// Parked on the last yielded node, whose key this is (still protected
    /// by `HP_CURR`); resume with the in-place step, falling back to a
    /// re-seek `> key` when the local neighborhood was disrupted.
    At(K),
    /// Past the upper bound or the end of the structure.
    Done,
}

impl<'t, 'g, G: SmrGuard, K: Ord + Copy, N: SlotNode<K>> Cursor<'t, 'g, G, K, N> {
    /// One scan advance, the single implementation behind every list-shaped
    /// range scan: parks on the next live node below `hi` (via the in-place
    /// step or the structure's validated `seek`) and updates `state`.
    /// Returns whether the cursor is parked; `Cursor::entry` then yields it.
    pub(crate) fn scan_next(
        &mut self,
        state: &mut ScanState<K>,
        hi: Option<&K>,
        mut seek: impl FnMut(&mut Self, &SeekBound<K>),
    ) -> bool {
        loop {
            match *state {
                ScanState::Done => return false,
                ScanState::Seek(bound) => seek(self, &bound),
                ScanState::At(last) => match self.step() {
                    Ok(true) => {}
                    Ok(false) => {
                        *state = ScanState::Done;
                        return false;
                    }
                    Err(()) => {
                        *state = ScanState::Seek(SeekBound::Gt(last));
                        continue;
                    }
                },
            }
            let Some(key) = self.curr().map(|n| *n.node_key()) else {
                *state = ScanState::Done;
                return false;
            };
            if hi.is_some_and(|h| &key >= h) {
                *state = ScanState::Done;
                return false;
            }
            *state = ScanState::At(key);
            return true;
        }
    }

    /// One in-place scan step from the parked node: advances to its
    /// immediate successor if the local neighborhood is still unmarked.
    ///
    /// `Ok(true)` — parked on the next live node, now protected by `HP_CURR`.
    /// `Ok(false)` — end of the level.
    /// `Err(())` — the parked node or its successor is logically deleted;
    /// the scan must re-position with a full validated seek (the cheap step
    /// must never walk a marked chain, because that requires the
    /// dangerous-zone validation).
    ///
    /// The successor's protection is durable by fact 1 with the parked node
    /// in the role of the last safe node: the protect re-reads its link while
    /// it is unmarked (its tag lives on that very link).
    fn step(&mut self) -> Result<bool, ()> {
        let Some(curr) = self.at.curr() else {
            return Ok(false);
        };
        let next = self.g.protect(HP_NEXT, self.at.link(curr));
        if next.tag() != 0 {
            // The parked node was logically deleted under us.
            return Err(());
        }
        if next.is_null() {
            return Ok(false);
        }
        self.g.dup(HP_CURR, HP_PREV);
        self.g.dup(HP_NEXT, HP_CURR);
        self.at.curr = next;
        self.protect_next();
        if self.at.next.tag() != 0 {
            // The successor is itself marked: skipping it means walking a
            // chain, which needs the full dangerous-zone discipline — re-seek.
            return Err(());
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_snapshot_reads_all_counters() {
        let stats = TraversalStats::default();
        stats.record_restart();
        stats.record_restart();
        stats.record_recovery();
        stats.record_zone_entry();
        stats.record_zone_entry();
        stats.record_zone_entry();
        stats.record_spins(40);
        stats.record_spins(2);
        let snap = stats.snapshot();
        assert_eq!(snap.restarts, 2);
        assert_eq!(snap.recoveries, 1);
        assert_eq!(snap.zone_entries, 3);
        assert_eq!(snap.spins, 42);
        assert_eq!(stats.restarts(), 2);
        assert_eq!(stats.recoveries(), 1);
        assert_eq!(stats.zone_entries(), 3);
        assert_eq!(stats.spins(), 42);
    }

    #[test]
    fn backoff_grows_caps_and_resets() {
        let stats = TraversalStats::default();
        // Fresh thread-local state on this test thread: consecutive failures
        // double the wait up to the cap.
        for _ in 0..8 {
            backoff(&stats);
        }
        // 1 + 2 + 4 + 8 + 16 + 32 + 64 + 64 (capped).
        assert_eq!(stats.spins(), 191);
        backoff_reset();
        backoff(&stats);
        assert_eq!(stats.spins(), 192, "reset restarts the ladder at 1 spin");
        backoff_reset();
    }

    #[test]
    fn seek_bound_semantics() {
        assert!(SeekBound::Ge(5).stops_at(&5));
        assert!(SeekBound::Ge(5).stops_at(&6));
        assert!(!SeekBound::Ge(5).stops_at(&4));
        assert!(!SeekBound::Gt(5).stops_at(&5));
        assert!(SeekBound::Gt(5).stops_at(&6));
    }
}
