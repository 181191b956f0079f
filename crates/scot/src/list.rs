//! The **one list** under every list-shaped structure of this crate.
//!
//! The paper treats Harris' list and the Harris-Michael list as one sorted
//! linked list that differs only in what a traversal does at a logically
//! deleted node (§2.4), and a hash map as "simply an array of Harris' or
//! Harris-Michael lists" (§2.3, §6.2).  This module has that shape:
//!
//! * `RawList` is the list itself, one head word wide.  Bound to what its
//!   owner lends an operation (a statistics block and the cursor's
//!   `ZoneMode`) it has the single position → restart loop around the shared
//!   [`crate::traverse`] cursor (one cursor per operation, holding its guard
//!   borrow), and the single `get` / `insert` / `remove` / `contains` /
//!   `walk` / scan re-seek / `Drop`.
//! * [`List`] is the one public shell (domain, statistics, handle, range
//!   type, [`ConcurrentMap`] impl), with the strategy as the compile-time
//!   `EAGER` parameter: [`crate::HarrisList`] is `EAGER = false` (SCOT) and
//!   [`crate::HarrisMichaelList`] is `EAGER = true`.
//! * [`crate::HashMap`] is a boxed slice of `RawList`s; [`crate::WfHarrisList`]
//!   drives the same loop with an interrupt hook and a restart budget.
//!
//! The hazard-slot roles are the Figure 5 assignment documented in
//! [`crate::slots`].

use crate::traverse::{
    owned, Cursor, ScanState, SeekBound, SlotNode, Stop, TraversalStats, ZoneMode, MARK,
};
use crate::{check_guard, ConcurrentMap, Key, RangeScan, TraversalSnapshot, Value};
use scot_smr::{Atomic, Smr, SmrConfig, SmrGuard, SmrHandle};
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
    fn successor(&self, _level: usize) -> &Atomic<Self> {
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

/// The shared cursor over list nodes, holding one operation's guard borrow.
pub(crate) type ListCursor<'t, 'g, G, K, V> = Cursor<'t, 'g, G, K, Node<K, V>>;

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
}

impl<'a, K: Key, V: Value> BoundList<'a, K, V> {
    /// The cursor of one operation on this list.
    #[inline]
    pub(crate) fn cursor<'g, G: SmrGuard>(&self, g: &'g mut G) -> ListCursor<'a, 'g, G, K, V> {
        Cursor::new(g, self.head, self.stats, self.mode, true)
    }

    /// Visits every live entry in ascending key order, passing key and value
    /// borrows to `f`.  Shares [`crate::ConcurrentMap::collect`]'s caveats:
    /// the walk skips the SCOT validation, so it must not run concurrently
    /// with removals under a robust scheme.
    pub(crate) fn walk<G: SmrGuard, F: FnMut(&K, &V)>(&self, g: &mut G, mut f: F) {
        self.cursor(g).walk(self.head, |n| f(&n.key, &n.value));
    }

    /// The one positioning traversal: parks the cursor on the first live
    /// node satisfying `bound`, re-entering from the head until a seek
    /// completes, and reports whether that node holds the bound's key.
    /// `cleanup` selects whether a pending marked chain is unlinked and
    /// retired before returning (L57-62 + `Do_Retire`; searches and scans
    /// leave the chain in place, and in eager mode no chain ever forms).
    ///
    /// `None` only for the wait-free list's searches: `interrupt` (polled
    /// once per hop) fired, or `attempts` traversals all had to restart.
    #[inline]
    fn seek<G: SmrGuard>(
        &self,
        c: &mut ListCursor<'a, '_, G, K, V>,
        bound: &SeekBound<K>,
        cleanup: bool,
        attempts: usize,
        mut interrupt: impl FnMut() -> bool,
    ) -> Option<bool> {
        // Checkpoints are allowed: nothing protected survives a restart
        // (insert's pending block is unpublished and owned, so voiding the
        // guard's slots cannot invalidate it).  Every rung re-targets the
        // head: a list has no entry anchor.
        c.rewind(0, true);
        for _ in 0..attempts {
            match c.position(self.head, bound, cleanup, &mut interrupt) {
                Ok(()) => return Some(c.found(bound)),
                Err(Stop::Restart(_)) => continue,
                Err(Stop::Interrupted) => return None,
            }
        }
        None
    }

    /// Internal `Do_Find` (Figure 5, right-hand unrolled version plus the
    /// §3.2.1 recovery optimization): the unbounded, uninterruptible
    /// `BoundList::seek`, and the validated re-positioning primitive of
    /// every list-shaped range scan.
    #[inline]
    pub(crate) fn find<G: SmrGuard>(
        &self,
        c: &mut ListCursor<'a, '_, G, K, V>,
        bound: SeekBound<K>,
        cleanup: bool,
    ) -> bool {
        self.seek(c, &bound, cleanup, usize::MAX, || false)
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
        let mut c = self.cursor(g);
        self.seek(&mut c, &SeekBound::Ge(*key), false, attempts, interrupt)
    }

    /// See [`crate::ConcurrentMap::get`].
    pub(crate) fn get<'g, G: SmrGuard>(&self, g: &'g mut G, key: &K) -> Option<&'g V> {
        let mut c = self.cursor(g);
        if self.find(&mut c, SeekBound::Ge(*key), false) {
            c.into_value()
        } else {
            None
        }
    }

    /// See [`crate::ConcurrentMap::contains`].
    pub(crate) fn contains<G: SmrGuard>(&self, g: &mut G, key: &K) -> bool {
        let mut c = self.cursor(g);
        self.find(&mut c, SeekBound::Ge(*key), false)
    }

    /// See [`crate::ConcurrentMap::insert`].
    pub(crate) fn insert<G: SmrGuard>(&self, g: &mut G, key: K, value: V) -> Result<(), V> {
        let mut c = self.cursor(g);
        if self.find(&mut c, SeekBound::Ge(key), true) {
            return Err(value);
        }
        let new = c.alloc(Node {
            next: Atomic::null(),
            key,
            value,
        });
        loop {
            // SAFETY: `new` is owned by us until the CAS below publishes it.
            let node = unsafe { owned(new) };
            // ORDERING: the publishing CAS (Release) below makes this initialization visible.
            node.next.store(c.curr_ptr(), Ordering::Relaxed);
            if c.cas_prev(new) {
                return Ok(());
            }
            if self.find(&mut c, SeekBound::Ge(key), true) {
                // A concurrent insert won the race after our first find.
                // SAFETY: `new` was never published; reclaim the block and
                // hand the caller's value back instead of dropping it.
                let node = unsafe { scot_smr::take_unpublished(new) };
                return Err(node.value);
            }
        }
    }

    /// See [`crate::ConcurrentMap::remove`].
    pub(crate) fn remove<'g, G: SmrGuard>(&self, g: &'g mut G, key: &K) -> Option<&'g V> {
        let mut c = self.cursor(g);
        loop {
            if !self.find(&mut c, SeekBound::Ge(*key), true) {
                return None;
            }
            let (victim, next) = (c.curr_ptr(), c.next_ptr());
            // Logical deletion: tag curr's next pointer (Figure 3, L21).
            if c.curr()?
                .next
                .compare_exchange(
                    next,
                    next.with_tag(MARK),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                continue;
            }
            // One attempt at physical unlinking (Figure 3, L22); if it fails a
            // later traversal will clean the node up and retire it.
            if c.cas_prev(next) {
                // SAFETY: we won the unlink CAS, so we are the unique retirer.
                unsafe { c.retire(victim) };
            }
            // Retiring does not free: the victim stays protected by HP_CURR
            // for as long as the value borrow.
            return c.into_value();
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
                let next = owned(curr).next.load(Ordering::Relaxed).untagged();
                scot_smr::free_unreachable(curr);
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
    cursor: ListCursor<'r, 'r, <S::Handle as SmrHandle>::Guard<'h>, K, V>,
    state: ScanState<K>,
    hi: Option<K>,
}

impl<'r, 'h, K: Key, S: Smr, V: Value> RangeScan<K, V> for ListRange<'r, 'h, K, S, V> {
    fn next_entry(&mut self) -> Option<(K, &V)> {
        let list = &self.list;
        let hi = self.hi.as_ref();
        if self.cursor.scan_next(&mut self.state, hi, |c, bound| {
            list.find(c, *bound, false);
        }) {
            self.cursor.entry()
        } else {
            None
        }
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
        let list = self.bound();
        ListRange {
            cursor: list.cursor(guard),
            list,
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
        self.bound().walk(&mut g, |k, v| out.push((*k, v.clone())));
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

    // -----------------------------------------------------------------------
    // The restart ladder, pinned single-threaded: each case drives
    // `BoundList::search` and uses its interrupt hook (polled once per hop)
    // as the injection point that rewrites one link mid-traversal.
    // -----------------------------------------------------------------------

    mod ladder {
        use super::super::{ListHandle, Node, RawList, MARK};
        use super::{cfg, List};
        use crate::ConcurrentMap;
        use scot_smr::{Ebr, Hp, Smr};
        use scot_smr::{Shared, SmrGuard};
        use std::cell::Cell;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// A payload that counts its drops, i.e. the reclamations of its node.
        struct Counted(Arc<AtomicUsize>);

        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        type Probe<S, const EAGER: bool> = List<u64, S, Counted, EAGER>;

        /// The list `1..=5` (each value counting into the returned counter).
        fn five<S: Smr, const EAGER: bool>() -> (Probe<S, EAGER>, Arc<AtomicUsize>) {
            let list = Probe::<S, EAGER>::with_config(cfg());
            let drops = Arc::new(AtomicUsize::new(0));
            let mut h = list.handle();
            let mut g = ConcurrentMap::pin(&list, &mut h);
            for k in 1..=5 {
                assert!(ConcurrentMap::insert(&list, &mut g, k, Counted(drops.clone())).is_ok());
            }
            (list, drops)
        }

        /// The node holding `key` (quiescent walk: nothing runs concurrently).
        #[expect(
            clippy::disallowed_methods,
            reason = "a quiescent test walk: nothing runs concurrently"
        )]
        fn node_at<V>(raw: &RawList<u64, V>, key: u64) -> Shared<Node<u64, V>> {
            let mut curr = raw.head.load(Ordering::Acquire).untagged();
            loop {
                // SAFETY: single-threaded test; every reachable node is live.
                let node = unsafe { curr.deref() };
                if node.key == key {
                    return curr;
                }
                curr = node.next.load(Ordering::Acquire).untagged();
            }
        }

        /// Flushes until the domain holds no retired block.
        fn drain<S: Smr, const EAGER: bool>(list: &Probe<S, EAGER>, h: &mut ListHandle<S>) {
            for _ in 0..8 {
                h.flush();
            }
            assert_eq!(list.domain().unreclaimed(), 0);
        }

        /// The live keys, in list order.
        fn keys<S: Smr, const EAGER: bool>(
            list: &Probe<S, EAGER>,
            h: &mut ListHandle<S>,
        ) -> Vec<u64> {
            let mut g = ConcurrentMap::pin(list, h);
            let mut out = Vec::new();
            list.bound().walk(&mut g, |k, _| out.push(*k));
            out
        }

        /// Logically deletes `node` (sets the mark bit on its successor link).
        #[expect(
            clippy::disallowed_methods,
            reason = "a single-threaded test: the node is live"
        )]
        fn mark<V>(node: Shared<Node<u64, V>>) {
            // SAFETY: single-threaded test; `node` is live.
            let next = &unsafe { node.deref() }.next;
            next.store(
                next.load(Ordering::Acquire).with_tag(MARK),
                Ordering::Release,
            );
        }

        /// (a) Crossing a marked chain counts one zone entry; a cleanup seek then
        /// unlinks and retires exactly that chain.
        fn zone_crossing_and_cleanup<S: Smr>() {
            let (list, drops) = five::<S, false>();
            mark(node_at(&list.raw, 2));
            mark(node_at(&list.raw, 3));
            let mut h = list.handle();
            let mut g = ConcurrentMap::pin(&list, &mut h);
            assert_eq!(
                list.bound().search(&mut g, &4, usize::MAX, || false),
                Some(true)
            );
            let stats = list.stats.snapshot();
            assert_eq!((stats.zone_entries, stats.restarts), (1, 0));
            // Insert 3 again: its cleanup seek unlinks [2, 3] with one CAS.
            assert!(ConcurrentMap::insert(&list, &mut g, 3, Counted(drops.clone())).is_ok());
            assert_eq!(list.stats.snapshot().zone_entries, 2);
            assert_eq!(
                list.bound().search(&mut g, &5, usize::MAX, || false),
                Some(true)
            );
            assert_eq!(list.stats.snapshot().zone_entries, 2, "the chain is gone");
            drop(g);
            drain(&list, &mut h);
            assert_eq!(drops.load(Ordering::Relaxed), 2, "exactly the chain");
            assert_eq!(keys(&list, &mut h), [1, 3, 4, 5]);
        }

        /// (b) §3.2.1: the chain is unlinked mid-zone while the last safe node
        /// stays unmarked — the cursor recovers from its new successor.
        #[expect(
            clippy::disallowed_methods,
            reason = "a single-threaded test hook: the node is live"
        )]
        fn recovery_from_unlinked_chain<S: Smr>() {
            let (list, drops) = five::<S, false>();
            let (n1, n2, n3, n4) = (
                node_at(&list.raw, 1),
                node_at(&list.raw, 2),
                node_at(&list.raw, 3),
                node_at(&list.raw, 4),
            );
            mark(n2);
            mark(n3);
            let mut h = list.handle();
            let mut g = ConcurrentMap::pin(&list, &mut h);
            let fired = Cell::new(false);
            let hook = || {
                if !fired.get() && list.stats.zone_entries() == 1 {
                    fired.set(true);
                    // SAFETY: single-threaded test; node 1 is live.
                    let link = &unsafe { n1.deref() }.next;
                    link.cas(n2, n4).expect("1 -> 2 is intact");
                }
                false
            };
            assert_eq!(
                list.bound().search(&mut g, &4, usize::MAX, hook),
                Some(true)
            );
            assert!(fired.get());
            let stats = list.stats.snapshot();
            assert_eq!((stats.recoveries, stats.restarts), (1, 0));
            // The hook unlinked the chain, so the test is its unique retirer.
            // SAFETY: 2 and 3 are unreachable and retired once.
            unsafe {
                g.retire(n2);
                g.retire(n3);
            }
            drop(g);
            drain(&list, &mut h);
            assert_eq!(drops.load(Ordering::Relaxed), 2);
        }

        /// (c) Rung 3: the last safe node is marked mid-zone, so the seek
        /// restarts from the head — and still finds the key.
        fn restart_when_last_safe_node_is_marked<S: Smr>() {
            let (list, _drops) = five::<S, false>();
            let n1 = node_at(&list.raw, 1);
            mark(node_at(&list.raw, 2));
            mark(node_at(&list.raw, 3));
            let mut h = list.handle();
            let mut g = ConcurrentMap::pin(&list, &mut h);
            let fired = Cell::new(false);
            let hook = || {
                if !fired.get() && list.stats.zone_entries() == 1 {
                    fired.set(true);
                    mark(n1);
                }
                false
            };
            assert_eq!(
                list.bound().search(&mut g, &4, usize::MAX, hook),
                Some(true)
            );
            assert!(fired.get());
            let stats = list.stats.snapshot();
            assert_eq!((stats.restarts, stats.recoveries), (1, 0));
        }

        /// (d) Eager mode unlinks and retires a marked node on the spot.
        fn eager_unlinks_on_the_spot<S: Smr>() {
            let (list, drops) = five::<S, true>();
            mark(node_at(&list.raw, 3));
            let mut h = list.handle();
            let mut g = ConcurrentMap::pin(&list, &mut h);
            assert_eq!(
                list.bound().search(&mut g, &5, usize::MAX, || false),
                Some(true)
            );
            let stats = list.stats.snapshot();
            assert_eq!((stats.zone_entries, stats.restarts), (0, 0));
            drop(g);
            drain(&list, &mut h);
            assert_eq!(drops.load(Ordering::Relaxed), 1);
            assert_eq!(keys(&list, &mut h), [1, 2, 4, 5]);
        }

        #[test]
        fn ladder_zone_crossing_retires_exactly_the_chain() {
            zone_crossing_and_cleanup::<Ebr>();
            zone_crossing_and_cleanup::<Hp>();
        }

        #[test]
        fn ladder_recovers_when_the_chain_is_unlinked_mid_zone() {
            recovery_from_unlinked_chain::<Ebr>();
            recovery_from_unlinked_chain::<Hp>();
        }

        #[test]
        fn ladder_restarts_when_the_last_safe_node_is_marked() {
            restart_when_last_safe_node_is_marked::<Ebr>();
            restart_when_last_safe_node_is_marked::<Hp>();
        }

        #[test]
        fn ladder_eager_mode_unlinks_and_retires_on_the_spot() {
            eager_unlinks_on_the_spot::<Ebr>();
            eager_unlinks_on_the_spot::<Hp>();
        }
    }
}
