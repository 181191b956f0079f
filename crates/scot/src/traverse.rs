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
//! | L33-36 start from `&Head`                | `Cursor::begin` |
//! | L38-47 safe-zone walk                    | the first inner loop of `Cursor::seek` |
//! | L48-49 anchor the first unsafe node      | the zone entry in `Cursor::seek` (slot `HP_ANCHOR`) |
//! | L50-56 validated dangerous-zone walk     | the second inner loop of `Cursor::seek` |
//! | §3.2.1 recovery                          | `Recovery::Recovered` |
//! | restart (L50's `goto` on failure)        | `Recovery::Restart` / [`Restart`] |
//! | L57-62 cleanup + `Do_Retire`             | `Cursor::unlink_pending` |
//!
//! The validation itself — *"does the last safe node still point at the first
//! unsafe node?"* — is the one-line primitive `validate_link` plus a
//! recycling-incarnation re-check on the anchored chain head (the version
//! stamp the block pool maintains for VBR); the Natarajan-Mittal tree, whose
//! recovery policy is a plain restart (§3.2.2), calls it directly on its
//! edges instead of driving a full cursor.
//!
//! # The checkpoint protocol (rung 4)
//!
//! The neutralization/version schemes (NBR, VBR) may ask a reader to restart
//! its whole operation so reclamation can advance past it.  The cursor is the
//! single place that request is honored: `seek` polls
//! `SmrGuard::needs_restart` alongside the caller's interrupt hook,
//! acknowledges with `SmrGuard::checkpoint` (which voids every protection the
//! guard holds) and surfaces [`Restart::Operation`] — per-structure code only
//! has to treat that rung as "restart the operation from the root", which the
//! existing restart arms already do.  Traversals that keep protected pointers
//! of their own across seeks (tower builds, post-injection cleanups) disable
//! the poll through `Cursor::begin`'s `checkpoints` flag.
//!
//! # Statistics
//!
//! Every cursor records into a [`TraversalStats`] block owned by its
//! structure: full restarts (Table 2 of the paper), §3.2.1 recoveries, and
//! dangerous-zone entries.  [`TraversalSnapshot`] is the read-side view the
//! harness renders as uniform columns in every experiment table.

use crate::slots::{HP_ANCHOR, HP_CURR, HP_NEXT, HP_PREV};
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

impl TraversalSnapshot {
    /// Component-wise sum, for callers aggregating several structures.
    pub fn merged(self, other: TraversalSnapshot) -> TraversalSnapshot {
        TraversalSnapshot {
            restarts: self.restarts + other.restarts,
            recoveries: self.recoveries + other.recoveries,
            zone_entries: self.zone_entries + other.zone_entries,
            spins: self.spins + other.spins,
        }
    }
}

/// The bare SCOT validation primitive (§3.1): does the recorded last-safe
/// link still hold `expected`?  The cursor wraps this in the recovery ladder;
/// the Natarajan-Mittal tree — whose policy on failure is a plain restart
/// (§3.2.2) — calls it directly on its `parent → leaf` and
/// `ancestor → successor` edges.
///
/// # Safety
/// The owner of `link` must be live: the list/level head, a tree sentinel, or
/// a node currently protected by a hazard slot / era reservation.
#[inline]
pub(crate) unsafe fn validate_link<T>(link: Link<T>, expected: Shared<T>) -> bool {
    // SAFETY: forwarded — the caller guarantees the link's owner is live,
    // which is exactly the `Link::load` contract.
    // ORDERING: Acquire — a successful validation is what licenses the
    // subsequent deref of `expected`'s pointee, so the load must synchronize
    // with the release store that published the link.
    unsafe { link.load(Ordering::Acquire) == expected }
}

/// One-hop software prefetch: while the cursor still examines the current
/// node, warm the cache line of the already-protected successor snapshot so
/// the upcoming `advance` dereferences into L1 instead of missing to memory.
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
    /// Thread-local (not per-cursor) so the state survives the cursor
    /// re-creation that every restart performs, with no cross-thread traffic.
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

    /// The link cell toward this node's successor at `level`.
    ///
    /// # Safety
    /// `level` must be below the node's height.  Every node the cursor reaches
    /// was reached through a level-`level` link, which implies exactly that.
    unsafe fn successor(&self, level: usize) -> &Atomic<Self>;

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

/// Result of one `Cursor::seek`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Seek {
    /// The cursor is parked: `curr` is the first live node satisfying the
    /// bound (or null at the end of the level), `prev` is the CAS-able link
    /// of the last safe node, and any marked chain crossed on the way is
    /// retained for `Cursor::unlink_pending`.
    Positioned,
    /// Validation (or an eager unlink) failed; re-enter per the ladder.
    Restart(Restart),
    /// The caller's interrupt callback fired (wait-free helping protocol).
    Interrupted,
}

/// The shared traversal cursor: `prev`/`curr`/`next` over the
/// [slot map](crate::slots), with `advance` (the safe-zone step),
/// `enter_zone`/`validate` (the dangerous-zone discipline) and the §3.2.1
/// recovery ladder driven by `Cursor::seek`.
///
/// One cursor traverses one level of one structure; multi-level structures
/// (the skip list) run one cursor per level, feeding each level's final
/// predecessor into the next level's `Cursor::begin`.
pub(crate) struct Cursor<'t, K, N> {
    /// Link of the last safe node (the level head at start) — the CAS target
    /// for insert/unlink, and the source of every validation load.
    prev: Link<N>,
    /// Owner of `prev`: null for the head, otherwise the node protected by
    /// `HP_PREV`.  Only consulted by the restart ladder.
    pred: Shared<N>,
    /// First unsafe node of the current dangerous zone (anchored in
    /// `HP_ANCHOR`); null while in the safe zone.  `prev_next` in Figure 5.
    chain: Shared<N>,
    /// Current node, protected by `HP_CURR`.
    curr: Shared<N>,
    /// `curr`'s successor snapshot, protected by `HP_NEXT`; its tag bit is
    /// `curr`'s logical-deletion mark.
    next: Shared<N>,
    /// Which level's links this cursor walks (0 for plain lists).
    level: usize,
    /// Restart anchor for ladder rung 2 (null = no rung 2, restart from head).
    entry: Shared<N>,
    /// Whether this traversal may answer a scheme's checkpoint request
    /// (`SmrGuard::needs_restart`) with rung 4.  A checkpoint voids every
    /// protection of the guard, so the constructing operation may only enable
    /// this when it keeps **no** protected pointer of its own across the seek
    /// (the skip-list tower builder and the tree's post-injection cleanup
    /// hold their victim across re-seeks and must leave it off).
    checkpoints: bool,
    /// Recycling-incarnation stamp of the anchored chain head, captured at
    /// zone entry and re-checked by every validation.
    chain_version: u64,
    stats: &'t TraversalStats,
    mode: ZoneMode,
    _key: core::marker::PhantomData<K>,
}

impl<'t, K: Ord + Copy, N: SlotNode<K>> Cursor<'t, K, N> {
    /// Starts a traversal at `start` (the level head, or an interior node's
    /// level link when descending a skip list).  Protects the first node into
    /// `HP_CURR` and its successor into `HP_NEXT`.
    ///
    /// `pred` is the owner of `start` (null for a head link) and `entry` the
    /// rung-2 restart anchor (must stay protected in
    /// [`crate::slots::HP_ENTRY`] by the caller for the whole level).
    ///
    /// Fails with a ladder outcome when `start` itself is already marked —
    /// possible only for interior starts, where the owner can be logically
    /// deleted between levels.
    ///
    /// `checkpoints` enables the rung-4 answer to a scheme's restart request
    /// (see the field docs): pass `true` only when the calling operation
    /// holds no protected pointers of its own across this seek.
    ///
    /// # Safety contract (debug-checked by construction sites)
    /// The owner of `start` must be the head or a node protected by
    /// `HP_PREV`/[`crate::slots::HP_ENTRY`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn begin<G: SmrGuard>(
        g: &mut G,
        pred: Shared<N>,
        start: Link<N>,
        level: usize,
        entry: Shared<N>,
        checkpoints: bool,
        stats: &'t TraversalStats,
        mode: ZoneMode,
    ) -> Result<Self, Restart> {
        let mut cursor = Cursor {
            prev: start,
            pred,
            chain: Shared::null(),
            curr: Shared::null(),
            next: Shared::null(),
            level,
            entry,
            checkpoints,
            chain_version: 0,
            stats,
            mode,
            _key: core::marker::PhantomData,
        };
        // SAFETY: the caller guarantees the owner of `start` is live (head or
        // protected); the protect re-reads the link until stable.
        cursor.curr = unsafe { g.protect_link(HP_CURR, start) };
        if cursor.curr.tag() != 0 {
            // The start owner is marked at this level: climb the ladder.
            return Err(cursor.climb(g));
        }
        if !cursor.curr.is_null() {
            // SAFETY: `curr` was protected against a link of an unmarked
            // owner (tag checked above), hence the protection is durable.
            cursor.next = g.protect(HP_NEXT, unsafe { cursor.curr.deref().successor(level) });
            prefetch_next(cursor.next);
        }
        Ok(cursor)
    }

    /// The current node (null at the end of the level).  After a
    /// `Seek::Positioned` it is live and unmarked.
    #[inline]
    pub(crate) fn curr(&self) -> Shared<N> {
        self.curr
    }

    /// The protected successor snapshot of `Cursor::curr`.
    #[inline]
    pub(crate) fn next(&self) -> Shared<N> {
        self.next
    }

    /// The last safe node's link — the CAS target for insert/unlink.
    #[inline]
    pub(crate) fn prev_link(&self) -> Link<N> {
        self.prev
    }

    /// The owner of `Cursor::prev_link` (null for the head); multi-level
    /// structures feed it into the next level's `Cursor::begin`.
    #[inline]
    pub(crate) fn pred(&self) -> Shared<N> {
        self.pred
    }

    /// The rung-4 poll: answers a pending scheme restart request
    /// (`SmrGuard::needs_restart`) when this traversal is allowed to.  The
    /// acknowledging `checkpoint` call discards all protections and
    /// re-announces the current era, so on `true` the seek must return
    /// [`Restart::Operation`] immediately — every cursor slot is void.
    #[inline]
    fn poll_checkpoint<G: SmrGuard>(&mut self, g: &mut G) -> bool {
        if self.checkpoints && g.needs_restart() {
            g.checkpoint();
            self.stats.record_restart();
            // A checkpoint storm (the scheme repeatedly neutralizing this
            // thread) is a restart storm like any other: stagger the retry.
            backoff(self.stats);
            true
        } else {
            false
        }
    }

    /// The recovery ladder, rungs 2 and 3: re-enter through the level-entry
    /// anchor when it exists and the traversal has moved past it (the anchor
    /// stays protected by [`crate::slots::HP_ENTRY`], so publishing it back
    /// into `HP_PREV` is sound despite copying downwards); otherwise
    /// restart from the level head.
    fn climb<G: SmrGuard>(&mut self, g: &mut G) -> Restart {
        let rung = if self.pred != self.entry && !self.entry.is_null() {
            self.stats.record_recovery();
            g.announce(HP_PREV, self.entry);
            Restart::Entry
        } else {
            self.stats.record_restart();
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
    fn recover<G: SmrGuard>(&mut self, g: &mut G, observed: Shared<N>) -> Recovery {
        if observed.tag() == 0 {
            // §3.2.1: the last safe node is still unmarked, so it merely
            // points at a new successor (a fresh insert, or the chain has
            // already been cleaned up); continue from there.
            self.stats.record_recovery();
            // SAFETY: `prev` belongs to the head or the node protected by
            // HP_PREV; the protect re-reads the link, whose owner is
            // unmarked, so the returned pointer was not retired when the
            // protection became visible.
            self.curr = unsafe { g.protect_link(HP_CURR, self.prev) };
            if self.curr.tag() != 0 {
                // The last safe node got marked after all.
                return Recovery::Restart(self.climb(g));
            }
            self.chain = Shared::null();
            if self.curr.is_null() {
                self.next = Shared::null();
            } else {
                // SAFETY: protected and validated unmarked just above.
                self.next = g.protect(HP_NEXT, unsafe { self.curr.deref().successor(self.level) });
                prefetch_next(self.next);
            }
            Recovery::Recovered
        } else {
            Recovery::Restart(self.climb(g))
        }
    }

    /// The protect-validate-recover loop (Figure 5 right, L38-56): walks the
    /// level until a live node satisfies `bound` (or the level ends), applying
    /// the dangerous-zone discipline of the cursor's `ZoneMode`.
    ///
    /// `interrupt` is polled once per step; returning `true` aborts with
    /// `Seek::Interrupted` (the wait-free list's helping protocol uses this
    /// to stop every participant as soon as anyone published the answer).
    ///
    /// On `Seek::Positioned`, slots `HP_PREV`/`HP_CURR`/`HP_NEXT`
    /// protect `prev`/`curr`/`next`, so the caller can immediately use them
    /// for its insert/delete CAS.
    pub(crate) fn seek<G: SmrGuard>(
        &mut self,
        g: &mut G,
        bound: &SeekBound<K>,
        interrupt: impl FnMut() -> bool,
    ) -> Seek {
        let outcome = self.seek_inner(g, bound, interrupt);
        if outcome == Seek::Positioned {
            // Progress: the next failure starts the backoff ladder from the
            // bottom again.
            backoff_reset();
        }
        outcome
    }

    fn seek_inner<G: SmrGuard>(
        &mut self,
        g: &mut G,
        bound: &SeekBound<K>,
        mut interrupt: impl FnMut() -> bool,
    ) -> Seek {
        'traverse: loop {
            // ---------- Phase 1: safe zone (L38-47) ----------
            loop {
                if interrupt() {
                    return Seek::Interrupted;
                }
                if self.poll_checkpoint(g) {
                    return Seek::Restart(Restart::Operation);
                }
                if self.curr.is_null() {
                    return Seek::Positioned;
                }
                if let ZoneMode::Eager = self.mode {
                    // Michael's revalidation: the predecessor must still point
                    // at `curr`.  This both detects concurrent unlinks and
                    // maintains the "prev is unmarked" invariant his
                    // protection argument rests on.
                    //
                    // SAFETY: `prev` is the head or a field of the node
                    // protected by HP_PREV.
                    if unsafe { !validate_link(self.prev, self.curr) } {
                        self.stats.record_restart();
                        backoff(self.stats);
                        return Seek::Restart(Restart::Head);
                    }
                }
                if self.next.tag() != 0 {
                    // `curr` is logically deleted: Phase 2 (or eager unlink).
                    break;
                }
                // SAFETY: `curr` is protected and was validated reachable
                // from an unmarked predecessor when that protection was
                // published (standard Harris-Michael argument), or by the
                // SCOT validation when arriving from a dangerous zone.
                let curr_ref = unsafe { self.curr.deref() };
                if bound.stops_at(curr_ref.node_key()) {
                    return Seek::Positioned;
                }
                self.advance(g, curr_ref);
                if self.curr.is_null() {
                    return Seek::Positioned;
                }
                g.dup(HP_NEXT, HP_CURR);
                // SAFETY: `curr` was published (HP_NEXT) by the protect that
                // read it from an unmarked predecessor, hence durable.
                self.next = g.protect(HP_NEXT, unsafe { self.curr.deref().successor(self.level) });
                prefetch_next(self.next);
            }

            if let ZoneMode::Eager = self.mode {
                // Unlink the single marked node right now (the defining
                // difference from Harris' list) and retire it on success.
                //
                // SAFETY: `prev` is the head or a field of the HP_PREV node.
                if unsafe { self.prev.cas(self.curr, self.next.untagged()) }.is_err() {
                    self.stats.record_restart();
                    backoff(self.stats);
                    return Seek::Restart(Restart::Head);
                }
                // SAFETY: we won the unlink CAS — unique retirer.
                unsafe { g.retire(self.curr) };
                self.curr = self.next.untagged();
                g.dup(HP_NEXT, HP_CURR);
                if !self.curr.is_null() {
                    // SAFETY: `curr` was published (HP_NEXT) by the protect
                    // that read it from the validated, unmarked predecessor.
                    self.next =
                        // SAFETY: see the comment above this statement.
                        g.protect(HP_NEXT, unsafe { self.curr.deref().successor(self.level) });
                    prefetch_next(self.next);
                }
                continue 'traverse;
            }

            // ---------- Phase 2: dangerous zone (L48-56) ----------
            self.enter_zone(g);
            loop {
                if interrupt() {
                    return Seek::Interrupted;
                }
                if self.poll_checkpoint(g) {
                    return Seek::Restart(Restart::Operation);
                }
                match self.validate(g) {
                    Ok(()) => {}
                    Err(Recovery::Recovered) => continue 'traverse,
                    Err(Recovery::Restart(r)) => return Seek::Restart(r),
                }
                if self.next.tag() == 0 {
                    // End of the marked chain: back to the safe zone with the
                    // pending cleanup information intact.
                    continue 'traverse;
                }
                // Step deeper into the zone.
                self.curr = self.next.untagged();
                if self.curr.is_null() {
                    return Seek::Positioned;
                }
                g.dup(HP_NEXT, HP_CURR);
                // SAFETY: `curr` was published in HP_NEXT by the protect that
                // read it, and the validation above confirmed the zone was
                // still linked after that publication, so the protection is
                // durable (Theorem 2, applied per level).
                self.next = g.protect(HP_NEXT, unsafe { self.curr.deref().successor(self.level) });
                prefetch_next(self.next);
            }
        }
    }

    /// The safe-zone advance (L43-47): `curr` becomes the last safe node.
    #[inline]
    fn advance<G: SmrGuard>(&mut self, g: &mut G, curr_ref: &N) {
        // SAFETY: (of the successor call) `curr` is linked at `level`, so its
        // height exceeds `level`.
        self.prev = unsafe { curr_ref.successor(self.level) }.as_link();
        self.pred = self.curr;
        self.chain = Shared::null();
        g.dup(HP_CURR, HP_PREV);
        self.curr = self.next;
    }

    /// Enters the dangerous zone: anchors the first unsafe node in
    /// `HP_ANCHOR` so the validation can rely on pointer comparison even if
    /// the chain is concurrently unlinked (ABA prevention, §3.2).
    #[inline]
    fn enter_zone<G: SmrGuard>(&mut self, g: &mut G) {
        g.dup(HP_CURR, HP_ANCHOR);
        self.chain = self.curr;
        // SAFETY: `chain` (= `curr`) is non-null — Phase 1 only breaks into
        // the zone on a non-null, protected `curr` — so its header is
        // readable for the incarnation stamp.
        self.chain_version = unsafe { scot_smr::version_of(self.chain.untagged().as_ptr()) };
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
    fn validate<G: SmrGuard>(&mut self, g: &mut G) -> Result<(), Recovery> {
        // SAFETY: `prev` is either the level head or a field of the node
        // protected by HP_PREV.
        let observed = unsafe { self.prev.load(Ordering::Acquire) };
        if observed == self.chain {
            // Version re-check on top of the pointer comparison: a matching
            // address whose recycling-incarnation stamp moved means the
            // anchored chain head was reclaimed and the same memory
            // re-inserted here (ABA through the block pool).  The anchor
            // protection makes this impossible while it holds, so the check
            // is hardening for the eager-recycling schemes, where the stamp
            // is the paper-faithful detection primitive.
            //
            // SAFETY: `chain` is protected by HP_ANCHOR (or the guard's
            // era/epoch), so its header is readable.
            if unsafe { scot_smr::version_of(self.chain.untagged().as_ptr()) } == self.chain_version
            {
                Ok(())
            } else {
                Err(self.recover(g, observed))
            }
        } else {
            Err(self.recover(g, observed))
        }
    }

    /// Cleanup (L57-62): if a marked chain `[chain, curr)` is pending, unlink
    /// it with one CAS on the last safe node's link.  `retire` selects who
    /// owns the unlinked nodes: the lists retire the chain here (`Do_Retire`,
    /// L24-29 — the unlink winner is the unique retirer), while the skip list
    /// leaves retirement to each tower's elected remover, because a node
    /// unlinked from one level may still be reachable through another.
    pub(crate) fn unlink_pending<G: SmrGuard>(
        &mut self,
        g: &mut G,
        retire: bool,
    ) -> Result<(), Restart> {
        if self.chain.is_null() || self.chain == self.curr {
            return Ok(());
        }
        // SAFETY: `prev` is the head or a field of the HP_PREV node.
        if unsafe { self.prev.cas(self.chain, self.curr) }.is_err() {
            return Err(self.climb(g));
        }
        if retire {
            // Hand the scheme whole chain segments through `retire_batch` so
            // the domain's retire bookkeeping (one vault mutex per batch) is
            // paid once per chunk instead of once per node.  The chunk buffer
            // lives on the stack — no allocation on the unlink path.
            const CHUNK: usize = 16;
            let mut buf = [Shared::null(); CHUNK];
            let mut n = 0;
            let mut cur = self.chain;
            while cur != self.curr {
                debug_assert!(!cur.is_null(), "marked chain must end at `curr`");
                // SAFETY: we won the unlink CAS, so this thread exclusively
                // owns every node of the chain; the successor links of
                // unlinked nodes are no longer written by anyone.
                let next = unsafe { cur.deref().successor(self.level).load(Ordering::Acquire) };
                buf[n] = cur;
                n += 1;
                if n == CHUNK {
                    // SAFETY: the unlink winner is the unique retirer of each
                    // chain node, and each appears in the batch once.
                    unsafe { g.retire_batch(&buf[..n]) };
                    n = 0;
                }
                cur = next.untagged();
            }
            if n > 0 {
                // SAFETY: as above — unique retirer, no duplicates.
                unsafe { g.retire_batch(&buf[..n]) };
            }
        }
        self.chain = Shared::null();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Range-scan stepping
// ---------------------------------------------------------------------------

/// State of a guard-scoped range scan between two `next_entry` calls.
pub(crate) enum ScanState<K, N> {
    /// Position with a full validated seek for the first node in `bound`.
    Seek(SeekBound<K>),
    /// Parked on the last yielded node (still protected by `HP_CURR`);
    /// resume with the in-place step, falling back to a re-seek `> key` when
    /// the local neighborhood was disrupted.
    At(K, Shared<N>),
    /// Past the upper bound or the end of the structure.
    Done,
}

/// One in-place scan step from the parked node `curr` (protected by
/// `HP_CURR` since it was yielded): advances to the immediate successor if
/// the local neighborhood is still unmarked.
///
/// `Ok(Some(n))` — `n` is the next live node, now protected by `HP_CURR`.
/// `Ok(None)` — end of the level.
/// `Err(())` — `curr` or its successor is logically deleted; the scan must
/// re-position with a full validated seek (the cheap step must never walk a
/// marked chain, because that requires the dangerous-zone validation).
///
/// Safety of the step: `next` is protected by the protect's re-read against
/// `curr`'s successor link while `curr` is unmarked (its tag lives on that
/// very link) — an unmarked node is not yet unlinked, so the standard
/// read-from-unmarked-reachable-predecessor argument applies, with the parked
/// position in the role of the last safe node.
pub(crate) fn scan_step<K: Ord + Copy, N: SlotNode<K>, G: SmrGuard>(
    g: &mut G,
    curr: Shared<N>,
    level: usize,
) -> Result<Option<Shared<N>>, ()> {
    // SAFETY: `curr` is protected by HP_CURR (held since it was yielded; the
    // range holds the guard exclusively, so no other operation recycled it).
    let next = g.protect(HP_NEXT, unsafe { curr.deref().successor(level) });
    if next.tag() != 0 {
        // The parked node was logically deleted under us.
        return Err(());
    }
    if next.is_null() {
        return Ok(None);
    }
    g.dup(HP_CURR, HP_PREV);
    g.dup(HP_NEXT, HP_CURR);
    // SAFETY: `next` was published (HP_NEXT, now duplicated into HP_CURR) by
    // the protect that read it from the unmarked parked node.
    let peek = g.protect(HP_NEXT, unsafe { next.deref().successor(level) });
    if peek.tag() != 0 {
        // The successor is itself marked: skipping it means walking a chain,
        // which needs the full dangerous-zone discipline — re-seek.
        return Err(());
    }
    Ok(Some(next))
}

/// Drives one `next_entry` of a range scan end to end: positions on the next
/// live node via [`scan_next`] and hands out the guard-scoped `(key, &value)`
/// pair.  This is the single implementation behind every list-shaped
/// `RangeScan`; only the `seek` closure differs per structure.
pub(crate) fn scan_entry<'g, K: Ord + Copy, N: SlotNode<K>, G: SmrGuard>(
    g: &'g mut G,
    state: &mut ScanState<K, N>,
    hi: Option<&K>,
    level: usize,
    seek: impl FnMut(&mut G, &SeekBound<K>) -> Shared<N>,
) -> Option<(K, &'g N::Value)> {
    let node = scan_next(g, state, hi, level, seek);
    if node.is_null() {
        None
    } else {
        // SAFETY: `node` is protected by HP_CURR (by the seek or the step),
        // and the caller's exclusive `&'g mut` guard borrow keeps that slot
        // published until the next advance recycles it — at which point the
        // returned borrow is dead by the lending-iterator contract.
        let node_ref = unsafe { node.deref_guarded(&*g) };
        Some((*node_ref.node_key(), node_ref.node_value()))
    }
}

/// Drives one positioning step of a range scan: parks on the next live node
/// (via the in-place step or a structure-specific validated `seek`), applies
/// the upper bound, and updates the scan state.  Returns null when the scan
/// is exhausted.
pub(crate) fn scan_next<K: Ord + Copy, N: SlotNode<K>, G: SmrGuard>(
    g: &mut G,
    state: &mut ScanState<K, N>,
    hi: Option<&K>,
    level: usize,
    mut seek: impl FnMut(&mut G, &SeekBound<K>) -> Shared<N>,
) -> Shared<N> {
    loop {
        let node = match state {
            ScanState::Done => return Shared::null(),
            ScanState::Seek(bound) => seek(g, bound),
            ScanState::At(last, curr) => match scan_step(g, *curr, level) {
                Ok(Some(n)) => n,
                Ok(None) => {
                    *state = ScanState::Done;
                    return Shared::null();
                }
                Err(()) => {
                    *state = ScanState::Seek(SeekBound::Gt(*last));
                    continue;
                }
            },
        };
        if node.is_null() {
            *state = ScanState::Done;
            return Shared::null();
        }
        // SAFETY: `node` is protected by HP_CURR (by the seek or the step).
        let key = *unsafe { node.deref() }.node_key();
        if hi.is_some_and(|h| &key >= h) {
            *state = ScanState::Done;
            return Shared::null();
        }
        *state = ScanState::At(key, node);
        return node;
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
    fn snapshot_merge_is_componentwise() {
        let a = TraversalSnapshot {
            restarts: 1,
            recoveries: 2,
            zone_entries: 3,
            spins: 4,
        };
        let b = TraversalSnapshot {
            restarts: 10,
            recoveries: 20,
            zone_entries: 30,
            spins: 40,
        };
        assert_eq!(
            a.merged(b),
            TraversalSnapshot {
                restarts: 11,
                recoveries: 22,
                zone_entries: 33,
                spins: 44,
            }
        );
        assert_eq!(TraversalSnapshot::default().merged(a), a);
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
