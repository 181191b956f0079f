//! A lock-free skip list with **SCOT** safe optimistic traversals.
//!
//! The skip list is the canonical multi-level optimistic-traversal structure
//! of the SMR literature (Fraser's CAS-based design, the Herlihy–Shavit
//! variant, and the `smr-benchmark` artifact family all use it as a stress
//! test for reclamation schemes), which makes it the natural sixth structure
//! for this reproduction: every level is an independent Harris-style ordered
//! list, so every level has its own dangerous zones, and the SCOT discipline
//! must hold *per level* for the robust schemes (HP/HE/IBR/Hyaline-1S) to be
//! safe.
//!
//! # Structure
//!
//! Each node is a *tower*: a key/value pair plus `height` forward pointers,
//! where `height` is drawn from a geometric distribution (see
//! [`tower_height`]).  Level 0 links every node and defines membership; upper
//! levels are express lanes.  Towers are allocated as height-specific blocks
//! (a `repr(C)` base node followed by `height - 1` extra links), so the SMR
//! block pool bins them by layout and recycles each height class separately —
//! this structure is the first in the workspace to exercise the pool's
//! multi-layout path.
//!
//! # Traversal and the per-level SCOT argument
//!
//! A search descends from the top level, at each level walking a sorted
//! Harris list whose logically-deleted nodes carry a mark bit on that level's
//! `next` pointer.  Walking a chain of marked nodes is the dangerous zone of
//! the paper (§3.1): the chain can be unlinked — and, once its removers
//! confirm the unlink, reclaimed — while the traversal is inside it.  The fix
//! is the same validation as in [`crate::HarrisList`], applied per level:
//! anchor the first unsafe node in a hazard slot and, before every step
//! deeper, re-check that the last safe node still points at it.
//!
//! On validation failure the list does **not** restart from the top of the
//! structure.  The recovery ladder, from cheapest to most expensive:
//!
//! 1. **§3.2.1 recovery** — if the last safe node is still unmarked, continue
//!    from its new successor (counted as a recovery);
//! 2. **restart from the highest valid level** — re-enter the *current* level
//!    from the node the descent entered it through (held in a dedicated
//!    hazard slot, `Hp4`, for exactly this purpose), preserving all the work
//!    of the levels above (also counted as a recovery);
//! 3. **restart the level from its head** — the per-level head pointer lives
//!    in the list structure and is never reclaimed, so this rung always
//!    succeeds; levels above remain valid, making this the skip-list analogue
//!    of the Harris list's restart-from-head (counted as a restart).
//!
//! `DESIGN.md` gives the per-scheme soundness argument for each rung.
//!
//! # Removal and exactly-once retirement
//!
//! Removal marks the tower top-down; marking **level 0 is the linearization
//! point** and elects exactly one remover.  Because an inserter builds its
//! tower *after* publishing level 0, a slow builder can link an upper level
//! after the remover's cleanup pass has already walked past that level —
//! retiring the node at that point would leave a reachable retired tower,
//! which is exactly the use-after-free class the paper's Figure 2 describes.
//! The tower therefore carries a three-state handshake word:
//!
//! * the builder finishes (or aborts on a mark) and CASes
//!   `BUILDING → DONE`;
//! * the remover CASes `BUILDING → HANDOFF`; whoever *loses* its CAS knows
//!   the other side is done and becomes the retirer, after one final
//!   cleanup traversal proves the tower is unlinked from every level.
//!
//! Either way the node is retired exactly once, and only once it is
//! unreachable from every level — the precondition every scheme's reclamation
//! proof rests on.
//!
//! Hazard-slot roles (extending the Figure 5 convention):
//!
//! | slot  | role |
//! |-------|------|
//! | `Hp0` | next node at the current level |
//! | `Hp1` | current node |
//! | `Hp2` | last safe node (`pred`) |
//! | `Hp3` | first unsafe node (dangerous-zone anchor) |
//! | `Hp4` | node the current level was entered through (restart anchor) |
//! | `Hp5` | removal victim, across the post-mark cleanup traversal |
//! | `Hp6` | the inserter's own tower, across the tower build |

use crate::traverse::{
    owned, Cursor, Restart, ScanState, SeekBound, SlotNode, Stop, TraversalStats, ZoneMode, MARK,
};
use crate::{Key, RangeScan, TraversalSnapshot, Value};
use scot_smr::{Atomic, Shared, Smr, SmrConfig, SmrGuard, SmrHandle};
use std::mem;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Maximum tower height.  With the geometric height distribution of
/// [`tower_height`] (`p = 1/2`), twelve levels keep the expected search cost
/// logarithmic up to a few thousand times more keys than the paper's largest
/// skip-listable workloads while bounding the monomorphized tower layouts the
/// block pool has to bin.
pub const MAX_HEIGHT: usize = 12;

/// Tower-build handshake states (see the module documentation).
const BUILDING: usize = 0;
const DONE: usize = 1;
const HANDOFF: usize = 2;

/// Samples a tower height in `1..=MAX_HEIGHT` from a geometric distribution
/// with `p = 1/2`, advancing the caller's xorshift64* state.
///
/// The function is deliberately a free, deterministic function of the RNG
/// state: given the same seed it produces the same height sequence, which is
/// what lets the height-distribution tests assert the geometric bounds
/// exactly rather than statistically guessing.  `state` must be non-zero
/// (xorshift has an all-zero fixed point); [`SkipList::handle_with_seed`]
/// forces the low bit for exactly that reason.
pub fn tower_height(state: &mut u64) -> usize {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    let bits = x.wrapping_mul(0x2545F4914F6CDD1D);
    1 + (bits.trailing_ones() as usize).min(MAX_HEIGHT - 1)
}

/// Seed source for handles created through [`SkipList::handle`]: a global
/// counter hashed through SplitMix64 so concurrently created handles draw
/// independent height streams.
fn fresh_seed() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0x5c07);
    let mut z = COUNTER
        .fetch_add(0x9e3779b97f4a7c15, Ordering::Relaxed)
        .wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    (z ^ (z >> 31)) | 1
}

/// The fixed prefix of every tower: level-0 link, handshake word, height, and
/// the key/value payload.  Taller towers append `height - 1` extra links
/// after this prefix (see [`Tower`]); all tower pointers in the list are
/// typed as `Node` pointers and upper links are reached through
/// [`Node::level`].
#[repr(C)]
pub(crate) struct Node<K, V> {
    /// Level-0 successor; its tag bit is the node's logical-deletion mark
    /// (marking level 0 linearizes the removal).
    next0: Atomic<Node<K, V>>,
    /// Tower-build handshake word (`BUILDING`/`DONE`/`HANDOFF`).
    state: AtomicUsize,
    /// Number of levels this tower participates in (`1..=MAX_HEIGHT`).
    height: usize,
    key: K,
    value: V,
}

/// A height-`EXTRA + 1` tower: the node prefix plus `EXTRA` upper links.
///
/// One monomorphized type exists per height, so each height class has its own
/// `Block` layout — and therefore its own bin in the SMR block pool.
#[repr(C)]
struct Tower<K, V, const EXTRA: usize> {
    base: Node<K, V>,
    upper: [Atomic<Node<K, V>>; EXTRA],
}

/// Byte offset of the first upper link relative to the node base.  `repr(C)`
/// places `upper` immediately after `base` (rounded to the link alignment)
/// regardless of `EXTRA`, so the offset computed for `EXTRA = 1` is valid for
/// every taller tower as well.
#[inline]
fn upper_offset<K, V>() -> usize {
    mem::offset_of!(Tower<K, V, 1>, upper)
}

impl<K, V> Node<K, V> {
    /// The link cell for level `lvl` of this tower; panics unless
    /// `lvl < self.height` (the tower allocation only carries `height`
    /// links, and a node reached through a level-`lvl` pointer always
    /// satisfies this: a node is only ever linked at levels below its
    /// height).
    #[inline]
    fn level(&self, lvl: usize) -> &Atomic<Node<K, V>> {
        if lvl == 0 {
            return &self.next0;
        }
        assert!(lvl < self.height, "level {lvl} out of tower bounds");
        // SAFETY: the tower was allocated as a `Tower<K, V, EXTRA>` with
        // `EXTRA = height - 1` upper links laid out contiguously at
        // `upper_offset` (repr(C), identical for every EXTRA); the assert
        // above keeps the index in bounds.
        unsafe {
            let first = (self as *const Self as *const u8).add(upper_offset::<K, V>())
                as *const Atomic<Node<K, V>>;
            &*first.add(lvl - 1)
        }
    }
}

impl<K: Key, V: Value> SlotNode<K> for Node<K, V> {
    type Value = V;

    #[inline]
    fn successor(&self, level: usize) -> &Atomic<Self> {
        self.level(level)
    }

    #[inline]
    fn node_key(&self) -> &K {
        &self.key
    }

    #[inline]
    fn node_value(&self) -> &V {
        &self.value
    }
}

/// The shared cursor over skip-list towers, holding one operation's guard
/// borrow.
type SkipCursor<'t, 'g, G, K, V> = Cursor<'t, 'g, G, K, Node<K, V>>;

/// A lock-free skip list with SCOT traversals, parameterized by the
/// reclamation scheme.  The value type defaults to `()`, the membership-set
/// configuration (see [`crate::ConcurrentSet`]).
///
/// ```
/// use scot::{ConcurrentMap, SkipList};
/// use scot_smr::{Hp, Smr, SmrConfig};
///
/// let list: SkipList<u64, Hp, &'static str> =
///     SkipList::new(Hp::new(SmrConfig::default()));
/// let mut handle = ConcurrentMap::handle(&list);
/// let mut guard = list.pin(&mut handle);
/// assert!(list.insert(&mut guard, 7, "seven").is_ok());
/// assert_eq!(list.get(&mut guard, &7).copied(), Some("seven"));
/// // A conflicting insert hands the rejected value back.
/// assert_eq!(list.insert(&mut guard, 7, "again"), Err("again"));
/// // Remove returns one last guard-protected borrow of the evicted value.
/// assert_eq!(list.remove(&mut guard, &7).copied(), Some("seven"));
/// assert!(list.get(&mut guard, &7).is_none());
/// ```
pub struct SkipList<K, S: Smr, V = ()> {
    /// One head link per level; the implicit head tower has every level and
    /// is never marked or reclaimed, which is what makes the last rung of the
    /// recovery ladder unconditional.
    head: [Atomic<Node<K, V>>; MAX_HEIGHT],
    smr: Arc<S>,
    stats: TraversalStats,
}

// SAFETY: the structure owns its nodes; every cross-thread access goes through atomic links and the SMR protocol.
unsafe impl<K: Key, S: Smr, V: Value> Send for SkipList<K, S, V> {}
// SAFETY: shared access is mediated by atomic links and guard-protected traversal; there is no unsynchronized interior mutability.
unsafe impl<K: Key, S: Smr, V: Value> Sync for SkipList<K, S, V> {}

/// Per-thread handle for [`SkipList`]: the SMR registration plus the thread's
/// height-sampling RNG state.
pub struct SkipListHandle<S: Smr> {
    smr: S::Handle,
    rng: u64,
}

impl<S: Smr> SkipListHandle<S> {
    /// Forces a reclamation pass (limbo scan / epoch advance) on this
    /// thread's SMR handle; useful in tests and at controlled quiescence
    /// points.
    pub fn flush(&mut self) {
        self.smr.flush();
    }
}

/// Critical-section guard for [`SkipList`]: the underlying SMR guard plus a
/// split-borrow of the handle's height RNG, so `insert` can sample tower
/// heights without widening the `ConcurrentMap` interface.
#[must_use = "dropping a guard unpublishes every protection it holds"]
pub struct SkipListGuard<'h, S: Smr> {
    g: <S::Handle as SmrHandle>::Guard<'h>,
    rng: &'h mut u64,
}

impl<K: Key, S: Smr, V: Value> SkipList<K, S, V> {
    /// Creates an empty skip list managed by the given reclamation domain.
    pub fn new(smr: Arc<S>) -> Self {
        Self {
            head: std::array::from_fn(|_| Atomic::null()),
            smr,
            stats: TraversalStats::default(),
        }
    }

    /// Creates an empty skip list with a freshly created domain using
    /// `config`.
    pub fn with_config(config: SmrConfig) -> Self {
        Self::new(S::new(config))
    }

    /// The reclamation domain backing this list (used by the harness to read
    /// memory-overhead statistics).
    pub fn domain(&self) -> &Arc<S> {
        &self.smr
    }

    /// Registers the calling thread with a fresh height-RNG seed.
    pub fn handle(&self) -> SkipListHandle<S> {
        self.handle_with_seed(fresh_seed())
    }

    /// Registers the calling thread with a caller-chosen height-RNG seed, so
    /// tests can reproduce an exact tower-height sequence (the heights drawn
    /// are precisely `tower_height` iterated on `seed | 1`).
    pub fn handle_with_seed(&self, seed: u64) -> SkipListHandle<S> {
        SkipListHandle {
            smr: self.smr.register(),
            rng: seed | 1,
        }
    }

    /// The cursor of one operation on this list.  Unlike the lists, it
    /// never retires the marked chains it unlinks (see
    /// [`SkipList::find_bound`]).
    #[inline]
    fn cursor<'g, G: SmrGuard>(&self, g: &'g mut G) -> SkipCursor<'_, 'g, G, K, V> {
        Cursor::new(g, &self.head[0], &self.stats, ZoneMode::Scot, false)
    }

    /// Allocates a tower of the given height through the guard (and therefore
    /// through the scheme's block pool), dispatching to the height-specific
    /// monomorphized layout so each height class recycles in its own pool
    /// bin.
    fn alloc_tower<G: SmrGuard>(
        c: &mut SkipCursor<'_, '_, G, K, V>,
        key: K,
        value: V,
        height: usize,
    ) -> Shared<Node<K, V>> {
        macro_rules! arm {
            ($extra:expr) => {{
                let tower: Shared<Tower<K, V, $extra>> = c.alloc(Tower {
                    base: Node {
                        next0: Atomic::null(),
                        state: AtomicUsize::new(BUILDING),
                        height,
                        key,
                        value,
                    },
                    upper: std::array::from_fn(|_| Atomic::null()),
                });
                // repr(C): the node prefix sits at offset 0 of the tower.
                Shared::from_raw(tower.into_raw())
            }};
        }
        match height {
            1 => arm!(0),
            2 => arm!(1),
            3 => arm!(2),
            4 => arm!(3),
            5 => arm!(4),
            6 => arm!(5),
            7 => arm!(6),
            8 => arm!(7),
            9 => arm!(8),
            10 => arm!(9),
            11 => arm!(10),
            12 => arm!(11),
            _ => unreachable!("tower_height yields 1..=MAX_HEIGHT"),
        }
    }

    /// Multi-level find for `key`: see [`SkipList::find_bound`].
    fn find<'t, G: SmrGuard>(
        &'t self,
        c: &mut SkipCursor<'t, '_, G, K, V>,
        key: &K,
        cleanup: bool,
        checkpoints: bool,
        target_level: usize,
    ) -> bool {
        self.find_bound(c, &SeekBound::Ge(*key), cleanup, checkpoints, target_level)
    }

    /// Multi-level find: descends from the top level to `target_level`,
    /// positioning the one cursor per level, and reports whether it parked
    /// on the bound's key.  The cursor applies the SCOT validation in every
    /// dangerous zone and re-targets itself on the ladder's rungs 2 and 3 —
    /// the level's entry anchor (held in `Hp4`, [`crate::slots::HP_ENTRY`],
    /// and re-published into `Hp2` — sound despite copying "downwards"
    /// because `Hp4` protects the entry continuously for the whole level) or
    /// its immortal head link — so this method only handles rung 4 (a scheme
    /// checkpoint voided every protection, including the upper levels'
    /// anchors), which resets the whole descent from the top.
    ///
    /// In cleanup mode, marked chains are physically unlinked before the
    /// descent continues — but, unlike the Harris list, **never retired
    /// here**: retirement belongs exclusively to the marking remover or the
    /// handed-off builder (see the module documentation), because a node
    /// unlinked from one level may still be reachable through another.
    ///
    /// `checkpoints` is forwarded to the cursor; pass `false` when the
    /// calling operation holds a protected pointer of its own across this
    /// find (the tower builder's `Hp6` node, the remover's `Hp5` victim).
    /// On return, `Hp2`/`Hp1`/`Hp0` protect `pred`/`curr`/`next` at
    /// `target_level`.
    fn find_bound<'t, G: SmrGuard>(
        &'t self,
        c: &mut SkipCursor<'t, '_, G, K, V>,
        bound: &SeekBound<K>,
        cleanup: bool,
        checkpoints: bool,
        target_level: usize,
    ) -> bool {
        debug_assert!(target_level < MAX_HEIGHT);
        let mut level = MAX_HEIGHT - 1;
        c.rewind(level, checkpoints);
        loop {
            match c.position(&self.head[level], bound, cleanup, || false) {
                Ok(()) if level == target_level => return c.found(bound),
                // Descend: this level's last safe node is the entry node of
                // `level - 1`.
                Ok(()) => {
                    c.descend();
                    level -= 1;
                }
                // Rungs 2 and 3: the cursor already re-targeted this level.
                Err(Stop::Restart(Restart::Entry | Restart::Head)) => {}
                Err(Stop::Restart(Restart::Operation)) => {
                    level = MAX_HEIGHT - 1;
                    c.rewind(level, checkpoints);
                }
                Err(Stop::Interrupted) => unreachable!("find has no interrupt source"),
            }
        }
    }

    /// Builds the upper levels of a freshly level-0-linked tower `node`
    /// (parked in `Hp6`), then runs the retirement handshake.  Aborts as
    /// soon as the node is marked (a concurrent removal); if the remover
    /// already handed retirement off, unlinks the tower everywhere and
    /// retires it.
    fn build_tower<'t, G: SmrGuard>(
        &'t self,
        c: &mut SkipCursor<'t, '_, G, K, V>,
        node: Shared<Node<K, V>>,
        key: &K,
        height: usize,
    ) {
        'levels: for lvl in 1..height {
            loop {
                // Checkpoints stay off: `node` may already be published, and
                // a checkpoint would void its Hp6 protection mid-build.
                if self.find(c, key, true, false, lvl) {
                    if c.curr_ptr() == node {
                        // Already linked at this level (a lost pred-CAS race
                        // resolved in our favour on retry); move up.
                        break;
                    }
                    // A different live node with our key exists at this
                    // level, which is only possible after our node was
                    // removed and the key reinserted: stop building.
                    break 'levels;
                }
                // Point our level at the successor first.  The CAS fails only
                // if a remover marked this level in the meantime (nobody else
                // writes another tower's links), in which case building must
                // stop.
                let tower = c.parked().expect("the builder parks its tower");
                let own_link = tower.level(lvl);
                let prev = own_link.load(Ordering::Acquire);
                if prev.tag() != 0
                    || own_link
                        .compare_exchange(prev, c.curr_ptr(), Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                {
                    break 'levels;
                }
                if c.cas_prev(node) {
                    break;
                }
                // Lost the link CAS to a concurrent update: retry the level.
            }
        }
        let tower = c.parked().expect("the builder parks its tower");
        if tower
            .state
            .compare_exchange(BUILDING, DONE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // A remover marked the tower mid-build and handed retirement off.
            // No further links can appear (every level is marked now and the
            // build has stopped), so one cleanup traversal conclusively
            // unlinks the tower from every level it ever reached.
            self.find(c, key, true, false, 0);
            // SAFETY: the handshake elects exactly one retirer, the cleanup
            // pass above confirmed the tower is unreachable from every level,
            // and Hp6 keeps the node protected while we still touch it.
            unsafe { c.retire(node) };
        }
    }
}

/// Guard-scoped range scan over a [`SkipList`]: parks on the last yielded
/// node of the membership level (level 0) and re-positions through the full
/// multi-level descent when disrupted — so scan steps are cheap but every
/// re-positioning is a validated `O(log n)` search.
pub struct SkipRange<'r, 'h, K: Key, S: Smr, V: Value = ()> {
    list: &'r SkipList<K, S, V>,
    cursor: SkipCursor<'r, 'r, <S::Handle as SmrHandle>::Guard<'h>, K, V>,
    state: ScanState<K>,
    hi: Option<K>,
}

impl<'r, 'h, K: Key, S: Smr, V: Value> RangeScan<K, V> for SkipRange<'r, 'h, K, S, V> {
    fn next_entry(&mut self) -> Option<(K, &V)> {
        let list = self.list;
        let hi = self.hi.as_ref();
        let seek = |c: &mut SkipCursor<'r, 'r, _, K, V>, bound: &SeekBound<K>| {
            list.find_bound(c, bound, false, true, 0);
        };
        if self.cursor.scan_next(&mut self.state, hi, seek) {
            self.cursor.entry()
        } else {
            None
        }
    }
}

impl<K: Key, S: Smr, V: Value> crate::ConcurrentMap<K, V> for SkipList<K, S, V> {
    type Handle = SkipListHandle<S>;
    type Guard<'h>
        = SkipListGuard<'h, S>
    where
        Self: 'h;
    type Range<'r, 'h>
        = SkipRange<'r, 'h, K, S, V>
    where
        Self: 'h,
        'h: 'r;

    fn handle(&self) -> Self::Handle {
        SkipList::handle(self)
    }

    fn pin<'h>(&self, handle: &'h mut Self::Handle) -> Self::Guard<'h> {
        // Split-borrow the handle: the SMR guard takes the registration, the
        // height RNG stays reachable for insert.
        let SkipListHandle { smr, rng } = handle;
        SkipListGuard { g: smr.pin(), rng }
    }

    fn get<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, key: &K) -> Option<&'g V> {
        crate::check_guard(&self.smr, &guard.g);
        let mut c = self.cursor(&mut guard.g);
        if self.find(&mut c, key, false, true, 0) {
            c.into_value()
        } else {
            None
        }
    }

    fn insert<'h>(&self, guard: &mut Self::Guard<'h>, key: K, value: V) -> Result<(), V> {
        crate::check_guard(&self.smr, &guard.g);
        let SkipListGuard { g, rng } = guard;
        let mut c = self.cursor(g);
        if self.find(&mut c, &key, true, true, 0) {
            return Err(value);
        }
        let height = tower_height(rng);
        let new = Self::alloc_tower(&mut c, key, value, height);
        // Protect our own tower for the rest of the operation: the moment the
        // level-0 CAS publishes it, another thread may remove and retire it.
        // Publishing before the CAS makes the hazard visible to any scan that
        // could run after such a retire.
        //
        // SAFETY: `new` was just allocated and is not yet published.
        unsafe { c.pin_tower(new) };
        loop {
            // SAFETY: `new` is owned by us until the CAS below publishes it.
            unsafe { owned(new) }
                .next0
                .store(c.curr_ptr(), Ordering::Relaxed);
            if c.cas_prev(new) {
                break;
            }
            // A checkpoint here is still safe: `new` is unpublished (the CAS
            // failed), so no thread can retire it out from under us.
            if self.find(&mut c, &key, true, true, 0) {
                // A concurrent insert won the race after our first find.
                // SAFETY: `new` was never published; reclaim the block and
                // hand the caller's value back instead of dropping it.
                let node = unsafe { scot_smr::take_unpublished(new) };
                return Err(node.value);
            }
        }
        self.build_tower(&mut c, new, &key, height);
        Ok(())
    }

    fn remove<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, key: &K) -> Option<&'g V> {
        crate::check_guard(&self.smr, &guard.g);
        let mut c = self.cursor(&mut guard.g);
        'retry: loop {
            if !self.find(&mut c, key, true, true, 0) {
                return None;
            }
            let victim = c.curr_ptr();
            // Keep the victim protected across the cleanup traversals below,
            // which recycle Hp0-Hp4.
            c.pin_victim();
            let victim_ref = c.parked().expect("just parked");
            // Mark the tower top-down, so that any level observed unmarked
            // implies level 0 is still unmarked (the invariant the traversal
            // and build paths rely on).  Upper-level marking is cooperative
            // and idempotent.
            for lvl in (1..victim_ref.height).rev() {
                let link = victim_ref.level(lvl);
                loop {
                    let cur = link.load(Ordering::Acquire);
                    if cur.tag() != 0
                        || link
                            .compare_exchange(
                                cur,
                                cur.with_tag(MARK),
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok()
                    {
                        break;
                    }
                }
            }
            // Marking level 0 linearizes the removal and elects the remover.
            loop {
                let cur = victim_ref.next0.load(Ordering::Acquire);
                if cur.tag() != 0 {
                    // Another remover won; the key may have been reinserted
                    // since, so retry from the search.
                    continue 'retry;
                }
                if victim_ref
                    .next0
                    .compare_exchange(cur, cur.with_tag(MARK), Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break;
                }
            }
            // Retirement handshake with a potentially in-flight tower build
            // (see the module documentation).  If the builder is still
            // active, it inherits the retirement; otherwise the tower is
            // fully built and one cleanup traversal conclusively unlinks it.
            let handed_off = victim_ref
                .state
                .compare_exchange(BUILDING, HANDOFF, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
            // Checkpoints stay off for the cleanup pass: a checkpoint would
            // void the victim's Hp5 protection while a handed-off builder may
            // already be retiring it.
            self.find(&mut c, key, true, false, 0);
            if !handed_off {
                // SAFETY: we won the level-0 marking CAS (unique remover),
                // the builder had already finished (state was DONE), and the
                // cleanup pass above confirmed the tower is unlinked from
                // every level — so this is the exactly-once retirement of a
                // fully unreachable node.
                unsafe { c.retire(victim) };
            }
            // Retiring does not free: the victim stays protected by Hp5 for
            // as long as the value borrow.
            return c.into_victim_value();
        }
    }

    fn contains<'h>(&self, guard: &mut Self::Guard<'h>, key: &K) -> bool {
        crate::check_guard(&self.smr, &guard.g);
        let mut c = self.cursor(&mut guard.g);
        self.find(&mut c, key, false, true, 0)
    }

    fn scan<'r, 'h>(
        &'r self,
        guard: &'r mut Self::Guard<'h>,
        lo: K,
        hi: Option<K>,
    ) -> Self::Range<'r, 'h>
    where
        'h: 'r,
    {
        crate::check_guard(&self.smr, &guard.g);
        SkipRange {
            list: self,
            cursor: self.cursor(&mut guard.g),
            state: ScanState::Seek(SeekBound::Ge(lo)),
            hi,
        }
    }

    fn collect(&self, handle: &mut Self::Handle) -> Vec<(K, V)>
    where
        V: Clone,
    {
        let mut g = handle.smr.pin();
        crate::check_guard(&self.smr, &g);
        let mut out = Vec::new();
        self.cursor(&mut g)
            .walk(&self.head[0], |n| out.push((n.key, n.value.clone())));
        out
    }

    fn flush(&self, handle: &mut Self::Handle) {
        handle.flush();
    }

    fn traversal_stats(&self) -> TraversalSnapshot {
        self.stats.snapshot()
    }
}

impl<K, S: Smr, V> Drop for SkipList<K, S, V> {
    fn drop(&mut self) {
        // Free every tower still reachable at level 0 (membership level).
        // Retired towers are unreachable from level 0 — retirement requires a
        // confirmed unlink from every level — and are released by the domain,
        // so each allocation is freed exactly once.
        // ORDERING: drop holds `&mut self`, so no other thread can touch these links.
        let mut curr = self.head[0].load(Ordering::Relaxed).untagged();
        while !curr.is_null() {
            // SAFETY: exclusive access during drop; the block header's vtable
            // carries the height-specific tower layout, so the right amount
            // of memory is released for every height class, and each tower is
            // visited exactly once.
            unsafe {
                // ORDERING: drop holds `&mut self`, so no other thread can touch these links.
                let next = owned(curr).next0.load(Ordering::Relaxed).untagged();
                scot_smr::free_unreachable(curr);
                curr = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConcurrentSet;
    use scot_smr::{Ebr, He, Hp, Hyaline, Ibr, Nbr, Nr, Vbr};

    fn cfg() -> SmrConfig {
        SmrConfig {
            max_threads: 16,
            scan_threshold: 8,
            epoch_freq_per_thread: 1,
            snapshot_scan: false,
            ..SmrConfig::default()
        }
    }

    fn basic_set_semantics<S: Smr>() {
        let list: SkipList<u64, S> = SkipList::with_config(cfg());
        let mut h = list.handle();
        assert!(!list.contains(&mut h, &5));
        assert!(list.insert(&mut h, 5));
        assert!(!list.insert(&mut h, 5), "duplicate insert must fail");
        assert!(list.insert(&mut h, 3));
        assert!(list.insert(&mut h, 9));
        assert!(list.contains(&mut h, &3));
        assert!(list.contains(&mut h, &5));
        assert!(list.contains(&mut h, &9));
        assert!(!list.contains(&mut h, &4));
        assert_eq!(list.collect_keys(&mut h), vec![3, 5, 9]);
        assert!(list.remove(&mut h, &5));
        assert!(!list.remove(&mut h, &5), "double remove must fail");
        assert!(!list.contains(&mut h, &5));
        assert_eq!(list.collect_keys(&mut h), vec![3, 9]);
    }

    #[test]
    fn basic_semantics_under_every_scheme() {
        basic_set_semantics::<Nr>();
        basic_set_semantics::<Ebr>();
        basic_set_semantics::<Hp>();
        basic_set_semantics::<He>();
        basic_set_semantics::<Ibr>();
        basic_set_semantics::<Hyaline>();
        basic_set_semantics::<Nbr>();
        basic_set_semantics::<Vbr>();
    }

    #[test]
    fn height_distribution_is_geometric_and_bounded() {
        // Deterministic: the same seed must yield the same sequence.
        let mut a = 0x5eed_5eed;
        let mut b = 0x5eed_5eed;
        let seq_a: Vec<usize> = (0..64).map(|_| tower_height(&mut a)).collect();
        let seq_b: Vec<usize> = (0..64).map(|_| tower_height(&mut b)).collect();
        assert_eq!(seq_a, seq_b, "height sampling must be deterministic");

        // Geometric(p = 1/2) bounds over a large deterministic sample: the
        // fraction of towers reaching height >= h must be close to 2^-(h-1).
        let mut state = 0x00dd_5eed | 1;
        const N: usize = 200_000;
        let mut reached = [0usize; MAX_HEIGHT + 1];
        for _ in 0..N {
            let h = tower_height(&mut state);
            assert!((1..=MAX_HEIGHT).contains(&h), "height {h} out of range");
            for (lvl, count) in reached.iter_mut().enumerate() {
                if (1..=h).contains(&lvl) {
                    *count += 1;
                }
            }
        }
        assert_eq!(reached[1], N, "every tower has at least one level");
        for (h, &got) in reached.iter().enumerate().take(7).skip(2) {
            let expected = N as f64 / 2f64.powi(h as i32 - 1);
            let got = got as f64;
            assert!(
                (got - expected).abs() < expected * 0.10,
                "P(height >= {h}): got {got}, expected ~{expected}"
            );
        }
        // The cap actually binds: the tail accumulates in the top level.
        assert!(reached[MAX_HEIGHT] > 0, "cap never reached over {N} draws");
    }

    #[test]
    fn seeded_handles_reproduce_height_sequences() {
        let list: SkipList<u64, Nr> = SkipList::with_config(cfg());
        let h = list.handle_with_seed(42);
        let mut expected_state = 42u64 | 1;
        let expected: Vec<usize> = (0..8).map(|_| tower_height(&mut expected_state)).collect();
        let mut state = h.rng;
        let got: Vec<usize> = (0..8).map(|_| tower_height(&mut state)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn keys_stay_sorted_and_unique() {
        let list: SkipList<u32, Hp> = SkipList::with_config(cfg());
        let mut h = list.handle();
        for k in [5u32, 1, 9, 3, 7, 3, 9, 0] {
            list.insert(&mut h, k);
        }
        let keys = list.collect_keys(&mut h);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted);
        assert_eq!(keys, vec![0, 1, 3, 5, 7, 9]);
    }

    #[test]
    fn interleaved_insert_remove_sequence() {
        let list: SkipList<u64, Ebr> = SkipList::with_config(cfg());
        let mut h = list.handle();
        for i in 0..400u64 {
            assert!(list.insert(&mut h, i));
        }
        for i in (0..400u64).step_by(2) {
            assert!(list.remove(&mut h, &i));
        }
        for i in 0..400u64 {
            assert_eq!(list.contains(&mut h, &i), i % 2 == 1, "key {i}");
        }
        assert_eq!(list.collect_keys(&mut h).len(), 200);
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let list: Arc<SkipList<u64, Hp>> = Arc::new(SkipList::with_config(cfg()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let list = list.clone();
                s.spawn(move || {
                    let mut h = list.handle();
                    for i in 0..200u64 {
                        assert!(list.insert(&mut h, t * 1000 + i));
                    }
                });
            }
        });
        let mut h = list.handle();
        for t in 0..4u64 {
            for i in 0..200u64 {
                assert!(list.contains(&mut h, &(t * 1000 + i)));
            }
        }
        assert_eq!(list.collect_keys(&mut h).len(), 800);
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        fn run<S: Smr>() {
            let list: Arc<SkipList<u32, S>> = Arc::new(SkipList::with_config(cfg()));
            std::thread::scope(|s| {
                for t in 0..8u32 {
                    let list = list.clone();
                    s.spawn(move || {
                        let mut h = list.handle();
                        let mut x = t as u64 + 1;
                        for _ in 0..3000 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let key = (x % 64) as u32;
                            match x % 3 {
                                0 => {
                                    list.insert(&mut h, key);
                                }
                                1 => {
                                    list.remove(&mut h, &key);
                                }
                                _ => {
                                    list.contains(&mut h, &key);
                                }
                            }
                        }
                    });
                }
            });
            let mut h = list.handle();
            let keys = list.collect_keys(&mut h);
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(keys, sorted, "list must remain sorted and duplicate-free");
        }
        run::<Hp>();
        run::<Ebr>();
        run::<He>();
        run::<Ibr>();
        run::<Hyaline>();
        run::<Nbr>();
        run::<Vbr>();
    }

    #[test]
    fn all_retired_towers_are_reclaimed_after_quiescence() {
        let domain = Hp::new(cfg());
        let list: Arc<SkipList<u64, Hp>> = Arc::new(SkipList::new(domain.clone()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let list = list.clone();
                s.spawn(move || {
                    let mut h = list.handle();
                    for i in 0..500 {
                        let k = t * 10_000 + i;
                        list.insert(&mut h, k);
                        list.remove(&mut h, &k);
                    }
                    h.smr.flush();
                });
            }
        });
        let mut h = list.handle();
        h.smr.flush();
        drop(h);
        assert_eq!(
            domain.unreclaimed(),
            0,
            "no retired tower may remain once quiescent"
        );
    }

    mod map_api {
        use super::cfg;
        use crate::{ConcurrentMap, SkipList};
        use scot_smr::Hp;

        #[test]
        fn values_round_trip_and_conflicts_hand_values_back() {
            let list: SkipList<u64, Hp, String> = SkipList::with_config(cfg());
            let mut h = list.handle();
            {
                let mut g = list.pin(&mut h);
                assert!(list.insert(&mut g, 1, "one".to_string()).is_ok());
                assert_eq!(
                    list.insert(&mut g, 1, "uno".to_string()),
                    Err("uno".to_string()),
                    "conflicting insert must hand the rejected value back"
                );
                assert_eq!(list.get(&mut g, &1).map(String::as_str), Some("one"));
                assert!(list.get(&mut g, &2).is_none());
                assert_eq!(
                    list.remove(&mut g, &1).map(String::as_str),
                    Some("one"),
                    "remove must expose the evicted value under the guard"
                );
                assert!(list.remove(&mut g, &1).is_none());
            }
            assert!(list.collect(&mut h).is_empty());
        }

        #[test]
        fn collect_returns_sorted_entries() {
            let list: SkipList<u32, Hp, u32> = SkipList::with_config(cfg());
            let mut h = list.handle();
            for k in [5u32, 1, 9, 3] {
                let mut g = list.pin(&mut h);
                assert!(list.insert(&mut g, k, k * 10).is_ok());
            }
            assert_eq!(
                list.collect(&mut h),
                vec![(1, 10), (3, 30), (5, 50), (9, 90)]
            );
        }
    }

    #[test]
    fn restart_counter_stays_zero_single_threaded() {
        let list: SkipList<u64, Hp> = SkipList::with_config(cfg());
        let mut h = list.handle();
        for i in 0..200 {
            list.insert(&mut h, i);
        }
        for i in 0..200 {
            list.remove(&mut h, &i);
        }
        assert_eq!(crate::ConcurrentMap::traversal_stats(&list).restarts, 0);
    }

    #[test]
    fn tall_towers_churn_through_every_height_class() {
        // A seeded handle with a known multi-height sequence churns the same
        // keys repeatedly, so towers of several distinct heights are
        // allocated, retired and pool-recycled; afterwards the quiescent
        // domain must account to zero.
        use crate::ConcurrentMap;
        let domain = Ibr::new(cfg());
        let list: SkipList<u64, Ibr, u64> = SkipList::new(domain.clone());
        let mut h = list.handle_with_seed(7);
        let mut heights = std::collections::BTreeSet::new();
        let mut probe = 7u64 | 1;
        for round in 0..2000u64 {
            heights.insert(tower_height(&mut probe));
            let k = round % 97;
            let mut g = list.pin(&mut h);
            if list.insert(&mut g, k, !k).is_ok() {
                drop(g);
                let mut g = list.pin(&mut h);
                assert_eq!(list.remove(&mut g, &k).copied(), Some(!k));
            }
        }
        assert!(
            heights.len() >= 4,
            "the seeded sequence must span several height classes, got {heights:?}"
        );
        h.flush();
        drop(h);
        drop(list);
        let mut h = domain.register();
        h.flush();
        drop(h);
        assert_eq!(domain.unreclaimed(), 0);
    }
}
