//! The **one list** under every list-shaped structure of this crate.
//!
//! The paper treats Harris' list and the Harris-Michael list as one sorted
//! linked list that differs only in what a traversal does at a logically
//! deleted node (§2.4), and a hash map as "simply an array of Harris' or
//! Harris-Michael lists" (§2.3, §6.2).  This module has that shape:
//!
//! * `RawList` is the list itself, one head word wide.  Bound to what its
//!   owner lends an operation (a statistics block and the cursor's
//!   `ZoneMode`) it has the single begin → `seek` → `unlink_pending` → restart
//!   loop around the shared [`crate::traverse`] cursor, and the single `get` /
//!   `insert` / `remove` / `contains` / `walk` / scan re-seek / `Drop`.
//! * [`List`] is the one public shell (domain, statistics, handle, range
//!   type, [`ConcurrentMap`] impl), with the strategy as the compile-time
//!   `EAGER` parameter: [`crate::HarrisList`] is `EAGER = false` (SCOT) and
//!   [`crate::HarrisMichaelList`] is `EAGER = true`.
//! * [`crate::HashMap`] is a boxed slice of `RawList`s; [`crate::WfHarrisList`]
//!   drives the same loop with an interrupt hook and a restart budget.
//!
//! The hazard-slot roles are the Figure 5 assignment documented in
//! [`crate::slots`].

use crate::slots::{HP_CURR, HP_NEXT};
use crate::traverse::{
    self, Cursor, ScanState, Seek, SeekBound, SlotNode, TraversalStats, ZoneMode, MARK,
};
use crate::{check_guard, ConcurrentMap, Key, RangeScan, TraversalSnapshot, Value};
use scot_smr::{Atomic, Link, Shared, Smr, SmrConfig, SmrGuard, SmrHandle};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A list node: key, value and the tagged successor pointer.
pub(crate) struct Node<K, V> {
    next: Atomic<Node<K, V>>,
    key: K,
    value: V,
}

impl<K: Key, V: Value> SlotNode<K> for Node<K, V> {
    type Value = V;

    #[inline]
    // SAFETY: `_level` is ignored -- a list node always has the single `next` link, so the call is unconditionally in bounds.
    unsafe fn successor(&self, _level: usize) -> &Atomic<Self> {
        &self.next
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

/// Where a positioning traversal parked: the predecessor link and the
/// protected `curr`/`next` snapshot, exactly the triple the paper's `Do_Find`
/// returns, plus whether `curr` holds the sought key.
struct Position<K, V> {
    prev: Link<Node<K, V>>,
    curr: Shared<Node<K, V>>,
    next: Shared<Node<K, V>>,
    found: bool,
}

/// The list itself: a head word, owning the nodes reachable from it.
pub(crate) struct RawList<K, V> {
    head: Atomic<Node<K, V>>,
}

/// A `RawList` bound to what its owner lends each operation.  Callers
/// brand-check the guard (once per operation, at the map level) before
/// handing it to any method.
pub(crate) struct BoundList<'a, K, V> {
    head: &'a Atomic<Node<K, V>>,
    /// The block every cursor of the operation records into.
    stats: &'a TraversalStats,
    /// How those cursors treat logically deleted nodes.
    mode: ZoneMode,
}

impl<K: Key, V: Value> RawList<K, V> {
    /// An empty list.
    pub(crate) fn new() -> Self {
        Self {
            head: Atomic::null(),
        }
    }

    /// This list with the statistics block and cursor mode of its owner.
    #[inline]
    pub(crate) fn bind<'a>(
        &'a self,
        stats: &'a TraversalStats,
        mode: ZoneMode,
    ) -> BoundList<'a, K, V> {
        BoundList {
            head: &self.head,
            stats,
            mode,
        }
    }

    /// Visits every live entry in ascending key order, passing key and value
    /// borrows to `f`.  Shares [`crate::ConcurrentMap::collect`]'s caveats:
    /// the walk skips the SCOT validation, so it must not run concurrently
    /// with removals under a robust scheme.
    pub(crate) fn walk<G: SmrGuard, F: FnMut(&K, &V)>(&self, g: &mut G, mut f: F) {
        let mut curr = g.protect(HP_CURR, &self.head);
        while !curr.is_null() {
            // SAFETY: protected by HP_CURR / HP_NEXT ping-pong below.
            let node = unsafe { curr.deref() };
            let next = g.protect(HP_NEXT, &node.next);
            if next.tag() == 0 {
                f(&node.key, &node.value);
            }
            curr = next.untagged();
            g.dup(HP_NEXT, HP_CURR);
        }
    }
}

impl<K: Key, V: Value> BoundList<'_, K, V> {
    /// The one positioning traversal, driven by the shared
    /// `crate::traverse::Cursor`: parks on the first live node satisfying
    /// `bound`, re-entering from the head until a seek completes.  `cleanup`
    /// selects whether a pending marked chain is unlinked and retired before
    /// returning (L57-62 + `Do_Retire`; searches and scans leave the chain in
    /// place, and in eager mode no chain ever forms).  On `Some` the hazard
    /// slots still protect `prev`, `curr` and `next`, so the caller can
    /// immediately use them for its insert/delete CAS.
    ///
    /// `None` only for the wait-free list's searches: `interrupt` (polled
    /// once per hop) fired, or `attempts` traversals all had to restart.
    #[inline]
    fn seek<G: SmrGuard>(
        &self,
        g: &mut G,
        bound: &SeekBound<K>,
        cleanup: bool,
        attempts: usize,
        mut interrupt: impl FnMut() -> bool,
    ) -> Option<Position<K, V>> {
        for _ in 0..attempts {
            // The head link is never tagged, so `begin` cannot fail here; the
            // restart loop keeps the control flow total regardless.
            // Checkpoints are allowed: nothing protected survives across the
            // `continue` (insert's pending block is unpublished and owned, so
            // voiding the guard's slots cannot invalidate it).
            let Ok(mut c) = Cursor::begin(
                g,
                Shared::null(),
                self.head.as_link(),
                0,
                Shared::null(),
                true,
                self.stats,
                self.mode,
            ) else {
                continue;
            };
            match c.seek(g, bound, &mut interrupt) {
                Seek::Positioned => {}
                Seek::Restart(_) => continue,
                Seek::Interrupted => return None,
            }
            if cleanup && c.unlink_pending(g, true).is_err() {
                continue;
            }
            let curr = c.curr();
            let found = !curr.is_null() && {
                match bound {
                    // SAFETY: `curr` is protected (HP_CURR) and durable.
                    SeekBound::Ge(k) => unsafe { curr.deref() }.key == *k,
                    // A strict bound never "finds" its key.
                    SeekBound::Gt(_) => false,
                }
            };
            return Some(Position {
                prev: c.prev_link(),
                curr,
                next: c.next(),
                found,
            });
        }
        None
    }

    /// Internal `Do_Find` (Figure 5, right-hand unrolled version plus the
    /// §3.2.1 recovery optimization): the unbounded, uninterruptible
    /// `BoundList::seek`.
    #[inline]
    fn find<G: SmrGuard>(&self, g: &mut G, bound: SeekBound<K>, cleanup: bool) -> Position<K, V> {
        self.seek(g, &bound, cleanup, usize::MAX, || false)
            .expect("a seek without interrupt source or restart budget always positions")
    }

    /// Membership search that gives up (`None`) when `interrupt` (polled once
    /// per hop) fires or after `attempts` restarted traversals — the
    /// wait-free list's fast and slow paths.
    pub(crate) fn search<G: SmrGuard>(
        &self,
        g: &mut G,
        key: &K,
        attempts: usize,
        interrupt: impl FnMut() -> bool,
    ) -> Option<bool> {
        self.seek(g, &SeekBound::Ge(*key), false, attempts, interrupt)
            .map(|p| p.found)
    }

    /// Positions [`crate::slots::HP_CURR`] on the first live node satisfying
    /// `bound` and returns it (null at the end of the list): the validated
    /// re-positioning primitive of every list-shaped range scan.
    pub(crate) fn scan_seek<G: SmrGuard>(
        &self,
        g: &mut G,
        bound: &SeekBound<K>,
    ) -> Shared<Node<K, V>> {
        self.find(g, *bound, false).curr
    }

    /// See [`crate::ConcurrentMap::get`].
    pub(crate) fn get<'g, G: SmrGuard>(&self, g: &'g mut G, key: &K) -> Option<&'g V> {
        let r = self.find(g, SeekBound::Ge(*key), false);
        if r.found {
            // SAFETY: `curr` is protected by HP_CURR (published with SCOT
            // validation during the find) and the `&'g mut` guard borrow
            // prevents any further operation from recycling that slot while
            // the returned value borrow is alive.
            Some(&unsafe { r.curr.deref_guarded(&*g) }.value)
        } else {
            None
        }
    }

    /// See [`crate::ConcurrentMap::contains`].
    pub(crate) fn contains<G: SmrGuard>(&self, g: &mut G, key: &K) -> bool {
        self.find(g, SeekBound::Ge(*key), false).found
    }

    /// See [`crate::ConcurrentMap::insert`].
    pub(crate) fn insert<G: SmrGuard>(&self, g: &mut G, key: K, value: V) -> Result<(), V> {
        let mut r = self.find(g, SeekBound::Ge(key), true);
        if r.found {
            return Err(value);
        }
        let new = g.alloc(Node {
            next: Atomic::null(),
            key,
            value,
        });
        loop {
            // SAFETY: `new` is owned by us until the CAS below publishes it.
            // ORDERING: the publishing CAS (Release) below makes this initialization visible.
            unsafe { new.deref().next.store(r.curr, Ordering::Relaxed) };
            // SAFETY: `prev`'s owner is protected (HP_PREV) or is the head.
            if unsafe { r.prev.cas(r.curr, new) }.is_ok() {
                return Ok(());
            }
            r = self.find(g, SeekBound::Ge(key), true);
            if r.found {
                // A concurrent insert won the race after our first find.
                // SAFETY: `new` was never published; reclaim the block and
                // hand the caller's value back instead of dropping it.
                let node = unsafe { crate::take_unpublished(new) };
                return Err(node.value);
            }
        }
    }

    /// See [`crate::ConcurrentMap::remove`].
    pub(crate) fn remove<'g, G: SmrGuard>(&self, g: &'g mut G, key: &K) -> Option<&'g V> {
        loop {
            let r = self.find(g, SeekBound::Ge(*key), true);
            if !r.found {
                return None;
            }
            // SAFETY: `curr` is protected (HP_CURR).
            let curr_ref = unsafe { r.curr.deref() };
            // Logical deletion: tag curr's next pointer (Figure 3, L21).
            if curr_ref
                .next
                .compare_exchange(
                    r.next,
                    r.next.with_tag(MARK),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                continue;
            }
            // One attempt at physical unlinking (Figure 3, L22); if it fails a
            // later traversal will clean the node up and retire it.
            //
            // SAFETY: `prev`'s owner is protected (HP_PREV) or is the head.
            if unsafe { r.prev.cas(r.curr, r.next) }.is_ok() {
                // SAFETY: we won the unlink CAS, so we are the unique retirer.
                unsafe { g.retire(r.curr) };
            }
            // SAFETY: the victim stays protected by HP_CURR — retiring does
            // not free, and no scheme reclaims a node covered by a published
            // hazard slot / live era reservation.  The `&'g mut` guard borrow
            // keeps that protection in place for the borrow's lifetime.
            return Some(&unsafe { r.curr.deref_guarded(&*g) }.value);
        }
    }
}

impl<K, V> Drop for RawList<K, V> {
    fn drop(&mut self) {
        // Free every node still reachable from the head.  Retired nodes are no
        // longer reachable and are released by the reclamation domain.
        // ORDERING: drop holds `&mut self`, so no other thread can touch these links.
        let mut curr = self.head.load(Ordering::Relaxed).untagged();
        while !curr.is_null() {
            // SAFETY: exclusive access during drop; each reachable node is
            // visited exactly once.
            unsafe {
                // ORDERING: drop holds `&mut self`, so no other thread can touch these links.
                let next = curr.deref().next.load(Ordering::Relaxed).untagged();
                scot_smr::free_block(scot_smr::header_of(curr.as_ptr()));
                curr = next;
            }
        }
    }
}

/// The ordered-list map behind [`crate::HarrisList`] (`EAGER = false`) and
/// [`crate::HarrisMichaelList`] (`EAGER = true`), parameterized by the
/// reclamation scheme; see those two aliases for the algorithms and examples.
/// `EAGER` is resolved at compile time: it only selects the `ZoneMode` every
/// cursor of the list is created with.
pub struct List<K, S: Smr, V, const EAGER: bool> {
    raw: RawList<K, V>,
    smr: Arc<S>,
    stats: TraversalStats,
}

/// Per-thread handle for [`List`] and [`crate::HashMap`].
pub struct ListHandle<S: Smr> {
    pub(crate) smr: S::Handle,
}

impl<S: Smr> ListHandle<S> {
    /// Forces a reclamation pass (limbo scan / epoch advance) on this
    /// thread's SMR handle; useful in tests and at controlled quiescence
    /// points.
    pub fn flush(&mut self) {
        self.smr.flush();
    }
}

impl<K: Key, S: Smr, V: Value, const EAGER: bool> List<K, S, V, EAGER> {
    /// Creates an empty list managed by the given reclamation domain.
    pub fn new(smr: Arc<S>) -> Self {
        Self {
            raw: RawList::new(),
            smr,
            stats: TraversalStats::default(),
        }
    }

    /// Creates an empty list with a freshly created domain using `config`.
    pub fn with_config(config: SmrConfig) -> Self {
        Self::new(S::new(config))
    }

    /// The reclamation domain backing this list (used by the harness to read
    /// memory-overhead statistics).
    pub fn domain(&self) -> &Arc<S> {
        &self.smr
    }

    /// Registers the calling thread.
    pub fn handle(&self) -> ListHandle<S> {
        ListHandle {
            smr: self.smr.register(),
        }
    }

    /// Number of full traversal restarts (Table 2).
    pub fn restarts(&self) -> u64 {
        self.stats.restarts()
    }

    /// Number of §3.2.1 recovery events (dangerous-zone escapes that avoided a
    /// full restart).
    pub fn recoveries(&self) -> u64 {
        self.stats.recoveries()
    }

    /// The list bound to this shell's statistics block and its cursor mode,
    /// which `EAGER` selects at compile time.
    #[inline]
    pub(crate) fn bound(&self) -> BoundList<'_, K, V> {
        let mode = if EAGER {
            ZoneMode::Eager
        } else {
            ZoneMode::Scot
        };
        self.raw.bind(&self.stats, mode)
    }
}

/// Guard-scoped range scan over a list (see [`crate::ConcurrentMap::range`]):
/// holds the guard exclusively for the whole scan and parks on the last
/// yielded node, which stays protected by [`crate::slots::HP_CURR`] until the
/// next advance.
pub struct ListRange<'r, 'h, K: Key, S: Smr, V: Value = ()> {
    list: BoundList<'r, K, V>,
    guard: &'r mut <S::Handle as SmrHandle>::Guard<'h>,
    state: ScanState<K, Node<K, V>>,
    hi: Option<K>,
}

impl<'r, 'h, K: Key, S: Smr, V: Value> RangeScan<K, V> for ListRange<'r, 'h, K, S, V> {
    fn next_entry(&mut self) -> Option<(K, &V)> {
        let list = &self.list;
        traverse::scan_entry(
            &mut *self.guard,
            &mut self.state,
            self.hi.as_ref(),
            0,
            |g, bound| list.scan_seek(g, bound),
        )
    }
}

impl<K: Key, S: Smr, V: Value, const EAGER: bool> ConcurrentMap<K, V> for List<K, S, V, EAGER> {
    type Handle = ListHandle<S>;
    type Guard<'h>
        = <S::Handle as SmrHandle>::Guard<'h>
    where
        Self: 'h;
    type Range<'r, 'h>
        = ListRange<'r, 'h, K, S, V>
    where
        Self: 'h,
        'h: 'r;

    fn handle(&self) -> Self::Handle {
        List::handle(self)
    }

    fn pin<'h>(&self, handle: &'h mut Self::Handle) -> Self::Guard<'h> {
        handle.smr.pin()
    }

    fn get<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, key: &K) -> Option<&'g V> {
        check_guard(&self.smr, &*guard);
        self.bound().get(guard, key)
    }

    fn insert<'h>(&self, guard: &mut Self::Guard<'h>, key: K, value: V) -> Result<(), V> {
        check_guard(&self.smr, &*guard);
        self.bound().insert(guard, key, value)
    }

    fn remove<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, key: &K) -> Option<&'g V> {
        check_guard(&self.smr, &*guard);
        self.bound().remove(guard, key)
    }

    fn contains<'h>(&self, guard: &mut Self::Guard<'h>, key: &K) -> bool {
        check_guard(&self.smr, &*guard);
        self.bound().contains(guard, key)
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
        check_guard(&self.smr, &*guard);
        ListRange {
            list: self.bound(),
            guard,
            state: ScanState::Seek(SeekBound::Ge(lo)),
            hi,
        }
    }

    fn collect(&self, handle: &mut Self::Handle) -> Vec<(K, V)>
    where
        V: Clone,
    {
        let mut g = handle.smr.pin();
        check_guard(&self.smr, &g);
        let mut out = Vec::new();
        self.raw.walk(&mut g, |k, v| out.push((*k, v.clone())));
        out
    }

    fn flush(&self, handle: &mut Self::Handle) {
        handle.flush();
    }

    fn traversal_stats(&self) -> TraversalSnapshot {
        self.stats.snapshot()
    }
}

#[cfg(test)]
/// Test bodies shared by the two instantiations; `harris_list::tests` and
/// `hm_list::tests` instantiate them under their own (pinned) test names.
pub(crate) mod tests {
    use super::List;
    use crate::ConcurrentSet;
    use scot_smr::{Ebr, He, Hp, Hyaline, Ibr, Nbr, Nr, Smr, SmrConfig, Vbr};
    use std::sync::Arc;

    pub(crate) fn cfg() -> SmrConfig {
        SmrConfig {
            max_threads: 16,
            scan_threshold: 8,
            epoch_freq_per_thread: 1,
            snapshot_scan: false,
            ..SmrConfig::default()
        }
    }

    pub(crate) fn basic_semantics_under_every_scheme<const EAGER: bool>() {
        fn run<S: Smr, const EAGER: bool>() {
            let list: List<u64, S, (), EAGER> = List::with_config(cfg());
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
        run::<Nr, EAGER>();
        run::<Ebr, EAGER>();
        run::<Hp, EAGER>();
        run::<He, EAGER>();
        run::<Ibr, EAGER>();
        run::<Hyaline, EAGER>();
        run::<Nbr, EAGER>();
        run::<Vbr, EAGER>();
    }

    pub(crate) fn concurrent_mixed_workload_is_consistent<const EAGER: bool>() {
        // Threads fight over a small key range; afterwards each key's
        // membership must be a valid boolean (no corruption / crash) and the
        // list must stay sorted & duplicate-free.
        fn run<S: Smr, const EAGER: bool>() {
            let list: Arc<List<u32, S, (), EAGER>> = Arc::new(List::with_config(cfg()));
            std::thread::scope(|s| {
                for t in 0..8u32 {
                    let list = list.clone();
                    s.spawn(move || {
                        let mut h = list.handle();
                        let mut x = t as u64 + 1;
                        for _ in 0..3000 {
                            // xorshift
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
        run::<Hp, EAGER>();
        run::<Ebr, EAGER>();
        run::<He, EAGER>();
        run::<Ibr, EAGER>();
        run::<Hyaline, EAGER>();
        run::<Nbr, EAGER>();
        run::<Vbr, EAGER>();
    }
}
