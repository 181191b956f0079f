//! SCOT — Safe Concurrent Optimistic Traversals.
//!
//! This crate is the reproduction of the primary contribution of
//! *"Fixing Non-blocking Data Structures for Better Compatibility with Memory
//! Reclamation Schemes"* (PPoPP '26): non-blocking search structures whose
//! **optimistic traversals** (walking through chains of logically deleted
//! nodes without unlinking them first) remain safe under robust reclamation
//! schemes — hazard pointers, hazard eras, interval-based reclamation and
//! Hyaline-1S — not only under epoch-based reclamation.
//!
//! The data structures provided are the ones the paper implements and
//! evaluates, plus the extensions its Table 1 describes:
//!
//! * [`HarrisList`] — Harris' lock-free ordered list with optimistic
//!   traversals, augmented with SCOT dangerous-zone validation (paper §3.2,
//!   Figure 5 right, including the recovery optimization of §3.2.1).
//! * [`HarrisMichaelList`] — Michael's variant that eagerly unlinks marked
//!   nodes; the baseline the paper compares against (compatible with every
//!   scheme out of the box, but more CAS traffic and restart-prone).
//! * [`NmTree`] — the Natarajan-Mittal external binary search tree with SCOT
//!   validation of the tagged-edge "dangerous zone" (paper §3.3).
//! * [`WfHarrisList`] — Harris' list with the paper's wait-free traversal
//!   extension (§3.4): a fast-path/slow-path search where updaters help
//!   stalled searchers through a per-thread announcement array.
//! * [`HashMap`] — a lock-free hash map realized, exactly as the paper notes,
//!   as an array of Harris lists (the hash-map row of Table 1).
//! * [`SkipList`] — a lock-free skip list whose every level is a Harris-style
//!   ordered list with per-level SCOT validation; traversal failures restart
//!   from the highest still-valid level rather than from the head (extension
//!   along the same axis as Table 1, exercising multi-level dangerous zones).
//!
//! All structures are **key-value maps**: every node carries a value `V` next
//! to its key, and the read path is *guard-scoped* — [`ConcurrentMap::get`]
//! returns `Option<&'g V>` whose lifetime is tied to the SMR guard, so the
//! borrow is kept alive by a hazard slot / era reservation, not by luck.
//! Membership-only use cases instantiate `V = ()` and go through the
//! [`ConcurrentSet`] adapter, which restores the paper's boolean set API and
//! is what the benchmark harness uses to reproduce the figures.
//!
//! All structures are parameterized by the reclamation scheme `S: Smr` from
//! the `scot-smr` crate and can therefore be instantiated with NR, EBR, HP,
//! HPopt, HE, IBR, Hyaline-1S, NBR or VBR without code changes — this is the
//! crux of the paper: fix the data structure once, keep every SMR scheme
//! intact.
//!
//! The protect → validate → recover loop itself is fixed **once for the whole
//! crate**: the [`traverse`] module holds the shared traversal cursor (and the
//! [`TraversalStats`] every structure reports through), the [`slots`] module
//! holds the one hazard-slot role table, and every Harris-style traversal in
//! the crate is a client of that cursor.  So is the list: the [`list`] module
//! holds the one ordered list, of which [`HarrisList`] and
//! [`HarrisMichaelList`] are the two compile-time instantiations, [`HashMap`]
//! an array of bare heads, and [`WfHarrisList`] a wrapper adding the helping
//! protocol.  On top of the cursor, every structure
//! supports **guard-scoped range scans** ([`ConcurrentMap::range`] /
//! [`ConcurrentMap::iter_from`]): lending cursors whose yielded value borrows
//! are protected exactly like [`ConcurrentMap::get`]'s.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod harris_list;
pub mod hash_map;
pub mod hm_list;
pub mod list;
pub mod nm_tree;
pub mod skip_list;
pub mod slots;
pub mod traverse;
pub mod wait_free;

pub use harris_list::HarrisList;
pub use hash_map::HashMap;
pub use hm_list::HarrisMichaelList;
pub use nm_tree::NmTree;
pub use skip_list::SkipList;
pub use traverse::{TraversalSnapshot, TraversalStats};
pub use wait_free::WfHarrisList;

/// Marker bounds required of keys stored in the maps.
///
/// The paper's benchmark uses machine-word integer keys; requiring `Copy`
/// keeps nodes `Send` without reference-counting payloads and lets the
/// structures compare keys without holding borrows across unsafe dereferences.
pub trait Key: Copy + Ord + Send + Sync + 'static {}
impl<T: Copy + Ord + Send + Sync + 'static> Key for T {}

/// Marker bounds required of values stored in the maps.
///
/// Values are shared across threads by reference (a `get` on one thread may
/// borrow a value while another thread retires its node), hence `Send + Sync`;
/// `'static` is what lets the SMR schemes defer the destructor to an arbitrary
/// later reclamation point.  Unlike keys, values are **not** required to be
/// `Copy` or `Clone`: they are moved in on `insert` and only ever handed back
/// out as guard-scoped borrows (or by value from never-published nodes).
pub trait Value: Send + Sync + 'static {}
impl<T: Send + Sync + 'static> Value for T {}

/// The common key-value interface implemented by every structure in this
/// crate.  The benchmark harness, the integration tests and the examples are
/// all written against this trait (or its [`ConcurrentSet`] adapter) so each
/// experiment can sweep over (data structure × SMR scheme) combinations
/// exactly like the paper does.
///
/// # Guard-scoped reads
///
/// Operations run inside an explicit SMR critical section: callers obtain a
/// per-thread [`ConcurrentMap::Handle`] once, then [`ConcurrentMap::pin`] it
/// per operation (or per batch of operations) to get a
/// [`ConcurrentMap::Guard`].  [`ConcurrentMap::get`] and
/// [`ConcurrentMap::remove`] return `Option<&'g V>` — a borrow of the value
/// *inside the node*, with `'g` tied to the guard.  This is exactly where
/// reclamation compatibility bites: handing out `&V` from a lock-free
/// structure is a use-after-free unless the reclamation scheme provably keeps
/// the node alive while the borrow exists.  Here the type system enforces the
/// two lifetime halves of that argument:
///
/// * the borrow cannot outlive the guard (the `'g` lifetime), and
/// * while the borrow is alive, no other operation can run on the same guard
///   and recycle the hazard slot protecting the node (the `&'g mut` receiver).
///
/// One property the lifetimes cannot express is *which domain* a guard
/// publishes its protections into: two maps of the same scheme share one
/// guard type, so handing map B a guard pinned from map A's handle would
/// publish hazard slots where B's reclaimers never look.  Every operation
/// therefore brands its guard with one pointer compare
/// ([`scot_smr::SmrGuard::domain_addr`]) and panics on a foreign guard
/// instead of running unprotected.
///
/// Per scheme, the protection backing the borrow is: a published hazard
/// pointer (HP/HPopt), an era reservation (HE), the thread's `[lower, upper]`
/// interval (IBR), the entered slot list (Hyaline-1S), the announced epoch
/// (EBR), the published checkpoint era (NBR) or operation epoch (VBR), or
/// triviality (NR never frees).
///
/// A value borrow cannot outlive its guard; this is enforced at compile time:
///
/// ```compile_fail
/// use scot::{ConcurrentMap, HarrisList};
/// use scot_smr::{Hp, Smr, SmrConfig};
///
/// let map: HarrisList<u64, Hp, String> = HarrisList::new(Hp::new(SmrConfig::default()));
/// let mut handle = ConcurrentMap::handle(&map);
/// let mut guard = map.pin(&mut handle);
/// let _ = map.insert(&mut guard, 7, "seven".to_string());
/// let v: Option<&String> = map.get(&mut guard, &7);
/// drop(guard); // ERROR: `guard` is still borrowed by `v`
/// assert!(v.is_some());
/// ```
///
/// Nor can it outlive the handle the guard was pinned from:
///
/// ```compile_fail
/// use scot::{ConcurrentMap, HashMap};
/// use scot_smr::{Ibr, Smr, SmrConfig};
///
/// let map: HashMap<u64, Ibr, u64> = HashMap::with_config(16, SmrConfig::default());
/// let mut handle = ConcurrentMap::handle(&map);
/// let mut guard = map.pin(&mut handle);
/// let _ = map.insert(&mut guard, 1, 100);
/// let v = map.get(&mut guard, &1);
/// drop(handle); // ERROR: `handle` is still borrowed by `guard` (and `v`)
/// assert!(v.is_some());
/// ```
///
/// # Guard-scoped range scans
///
/// [`ConcurrentMap::range`] and [`ConcurrentMap::iter_from`] return a lending
/// cursor ([`RangeScan`]) whose entries borrow values under the same
/// protection contract as `get`: the item handed out by
/// [`RangeScan::next_entry`] stays protected until the *next* advance
/// (which recycles the hazard slot covering it), and the scan exclusively
/// borrows the guard, so no other operation can recycle its slots mid-scan.
/// Consequently a scan — and every borrow obtained from it — cannot outlive
/// the guard:
///
/// ```compile_fail
/// use scot::{ConcurrentMap, RangeScan, SkipList};
/// use scot_smr::{Hp, Smr, SmrConfig};
///
/// let map: SkipList<u64, Hp, String> = SkipList::new(Hp::new(SmrConfig::default()));
/// let mut handle = ConcurrentMap::handle(&map);
/// let mut guard = map.pin(&mut handle);
/// let _ = map.insert(&mut guard, 7, "seven".to_string());
/// let mut scan = map.range(&mut guard, 0..100);
/// let first = scan.next_entry();
/// drop(guard); // ERROR: `guard` is still borrowed by `scan` (and `first`)
/// assert!(first.is_some());
/// ```
///
/// Nor can one yielded borrow survive the next advance (the lending-iterator
/// contract that makes finite hazard slots suffice for unbounded scans):
///
/// ```compile_fail
/// use scot::{ConcurrentMap, RangeScan, HarrisList};
/// use scot_smr::{Hp, Smr, SmrConfig};
///
/// let map: HarrisList<u64, Hp, String> = HarrisList::new(Hp::new(SmrConfig::default()));
/// let mut handle = ConcurrentMap::handle(&map);
/// let mut guard = map.pin(&mut handle);
/// let mut scan = map.iter_from(&mut guard, 0);
/// let first = scan.next_entry();
/// let second = scan.next_entry(); // ERROR: `scan` is still borrowed by `first`
/// assert_eq!(first, second);
/// ```
pub trait ConcurrentMap<K: Key, V: Value>: Send + Sync + 'static {
    /// Per-thread handle (wraps the SMR thread registration).
    type Handle: Send;

    /// Guard marking a critical section, borrowed from a pinned handle.
    type Guard<'h>
    where
        Self: 'h;

    /// Registers the calling thread with the map's reclamation domain.
    fn handle(&self) -> Self::Handle;

    /// Enters a critical section on this thread's handle.  All operations
    /// take the returned guard; dropping it leaves the critical section.
    #[must_use = "dropping the guard immediately leaves the critical section"]
    fn pin<'h>(&self, handle: &'h mut Self::Handle) -> Self::Guard<'h>;

    /// Looks up `key`, returning a borrow of its value that lives as long as
    /// the guard borrow — the value stays protected by the SMR scheme for
    /// exactly that long (see the trait-level discussion).
    fn get<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, key: &K) -> Option<&'g V>;

    /// Inserts `key → value`.  On conflict (the key is already present) the
    /// map is left unchanged and the rejected value is handed back to the
    /// caller as `Err(value)` — nothing is silently dropped.
    fn insert<'h>(&self, guard: &mut Self::Guard<'h>, key: K, value: V) -> Result<(), V>;

    /// Removes `key`, returning a borrow of the evicted value.  The node has
    /// been retired to the reclamation scheme, but the scheme cannot free it
    /// while this guard protects it, so the borrow is sound for `'g` — the
    /// caller gets one last guard-scoped look at the value it deleted.
    fn remove<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, key: &K) -> Option<&'g V>;

    /// Returns whether `key` is present.  Structures with a cheaper
    /// membership-only path (e.g. the wait-free list) override this.
    fn contains<'h>(&self, guard: &mut Self::Guard<'h>, key: &K) -> bool {
        self.get(guard, key).is_some()
    }

    /// The lending cursor returned by [`ConcurrentMap::range`] /
    /// [`ConcurrentMap::iter_from`]: it mutably borrows the guard for the
    /// whole scan (`'r`), which is what keeps the protection slots of the
    /// parked position from being recycled between advances.
    type Range<'r, 'h>: RangeScan<K, V>
    where
        Self: 'h,
        'h: 'r;

    /// Starts a guard-scoped scan of the keys in `[lo, hi)` (`hi = None`
    /// scans to the end).  This is the one required entry point;
    /// [`ConcurrentMap::range`] and [`ConcurrentMap::iter_from`] are
    /// sugar over it.
    ///
    /// Ordered structures (lists, skip list, tree) yield entries in strictly
    /// ascending key order; the hash map yields each bucket's matches in
    /// order but buckets themselves in hash order.  Scans are *not* atomic
    /// snapshots: a key continuously present for the whole scan is yielded
    /// exactly once, a key continuously absent is never yielded, and a key
    /// that churns concurrently may or may not appear — the usual contract of
    /// lock-free range scans.
    fn scan<'r, 'h>(
        &'r self,
        guard: &'r mut Self::Guard<'h>,
        lo: K,
        hi: Option<K>,
    ) -> Self::Range<'r, 'h>
    where
        'h: 'r;

    /// Guard-scoped range scan over `bounds.start .. bounds.end`
    /// (half-open, like the standard library's range types).
    fn range<'r, 'h>(
        &'r self,
        guard: &'r mut Self::Guard<'h>,
        bounds: core::ops::Range<K>,
    ) -> Self::Range<'r, 'h>
    where
        'h: 'r,
    {
        self.scan(guard, bounds.start, Some(bounds.end))
    }

    /// Guard-scoped scan of every key `>= lo`, to the end of the structure.
    fn iter_from<'r, 'h>(&'r self, guard: &'r mut Self::Guard<'h>, lo: K) -> Self::Range<'r, 'h>
    where
        'h: 'r,
    {
        self.scan(guard, lo, None)
    }

    /// Collects every live entry into a `Vec<(K, V)>` sorted by key.
    ///
    /// Intended for testing and diagnostics only: the snapshot is not atomic
    /// and must not run concurrently with removals when a robust SMR scheme
    /// (HP/HE/IBR/Hyaline) is in use.  The test suites only call it after
    /// worker threads joined.
    fn collect(&self, handle: &mut Self::Handle) -> Vec<(K, V)>
    where
        V: Clone;

    /// Forces a reclamation pass on the handle's SMR state: drains what the
    /// scheme allows and adopts slots orphaned by dead threads.  The
    /// fault-injection harness drives domain drains through this after
    /// stalled, panicked, or dead workers.
    fn flush(&self, handle: &mut Self::Handle);

    /// Number of traversal restarts observed so far (Table 2 of the paper).
    fn restart_count(&self) -> u64 {
        self.traversal_stats().restarts
    }

    /// Traversal statistics: restarts, §3.2.1 recoveries and dangerous-zone
    /// entries, as recorded by the shared [`traverse`] cursor.
    fn traversal_stats(&self) -> TraversalSnapshot;
}

/// A guard-scoped range scan: a **lending** cursor over map entries.
///
/// Unlike `Iterator`, each yielded item borrows the cursor itself, so the
/// borrow must end before the next advance — that is what lets a finite set
/// of hazard slots protect an unbounded scan: only the parked position needs
/// protection, and advancing recycles it.  See the
/// [`ConcurrentMap`] trait docs for the compile-time guarantees.
pub trait RangeScan<K, V> {
    /// Advances to the next entry, returning the key and a borrow of the
    /// value that lives until the next call (or the end of the scan).
    /// Returns `None` once the upper bound or the end of the structure is
    /// reached; further calls keep returning `None`.
    fn next_entry(&mut self) -> Option<(K, &V)>;
}

/// The boolean membership interface of the paper's benchmark: a thin adapter
/// over [`ConcurrentMap`] with `V = ()`.
///
/// This trait has exactly one implementation — the blanket impl over every
/// `ConcurrentMap<K, ()>` — so "a set" and "a map storing `()`" are the same
/// object, and the paper's experiments (which only measure membership) run on
/// byte-identical node layouts to the original set-only code.
pub trait ConcurrentSet<K: Key>: Send + Sync + 'static {
    /// Per-thread handle (wraps the SMR thread registration).
    type Handle: Send;

    /// Registers the calling thread with the set's reclamation domain.
    fn handle(&self) -> Self::Handle;

    /// Inserts `key`; returns `false` if it was already present.
    fn insert(&self, handle: &mut Self::Handle, key: K) -> bool;

    /// Removes `key`; returns `false` if it was not present.
    fn remove(&self, handle: &mut Self::Handle, key: &K) -> bool;

    /// Returns whether `key` is present.
    fn contains(&self, handle: &mut Self::Handle, key: &K) -> bool;

    /// Collects the live keys in ascending order (testing/diagnostics only;
    /// same caveats as [`ConcurrentMap::collect`]).
    fn collect_keys(&self, handle: &mut Self::Handle) -> Vec<K>;

    /// Collects the keys in `[lo, hi)` via one guard-scoped range scan, in
    /// the structure's scan order (ascending for the ordered structures,
    /// per-bucket segments for the hash map).  Unlike
    /// [`ConcurrentSet::collect_keys`] this is safe to run concurrently with
    /// removals under every scheme — it is the membership view of
    /// [`ConcurrentMap::range`].
    fn collect_range(&self, handle: &mut Self::Handle, lo: K, hi: K) -> Vec<K>;

    /// Number of traversal restarts observed so far (Table 2 of the paper).
    fn restart_count(&self) -> u64 {
        self.traversal_stats().restarts
    }

    /// Traversal statistics (restarts / recoveries / zone entries), see
    /// [`ConcurrentMap::traversal_stats`].
    fn traversal_stats(&self) -> TraversalSnapshot;
}

impl<K: Key, M: ConcurrentMap<K, ()>> ConcurrentSet<K> for M {
    type Handle = M::Handle;

    fn handle(&self) -> Self::Handle {
        ConcurrentMap::handle(self)
    }

    fn insert(&self, handle: &mut Self::Handle, key: K) -> bool {
        let mut guard = self.pin(handle);
        ConcurrentMap::insert(self, &mut guard, key, ()).is_ok()
    }

    fn remove(&self, handle: &mut Self::Handle, key: &K) -> bool {
        let mut guard = self.pin(handle);
        ConcurrentMap::remove(self, &mut guard, key).is_some()
    }

    fn contains(&self, handle: &mut Self::Handle, key: &K) -> bool {
        let mut guard = self.pin(handle);
        ConcurrentMap::contains(self, &mut guard, key)
    }

    fn collect_keys(&self, handle: &mut Self::Handle) -> Vec<K> {
        ConcurrentMap::collect(self, handle)
            .into_iter()
            .map(|(k, ())| k)
            .collect()
    }

    fn collect_range(&self, handle: &mut Self::Handle, lo: K, hi: K) -> Vec<K> {
        let mut guard = self.pin(handle);
        let mut scan = self.scan(&mut guard, lo, Some(hi));
        let mut keys = Vec::new();
        while let Some((k, ())) = scan.next_entry() {
            keys.push(k);
        }
        keys
    }

    fn restart_count(&self) -> u64 {
        ConcurrentMap::restart_count(self)
    }

    fn traversal_stats(&self) -> TraversalSnapshot {
        ConcurrentMap::traversal_stats(self)
    }
}

/// Brand check: operations only accept guards pinned from a handle of the
/// map's own reclamation domain `smr`.  A foreign guard would publish its
/// hazard slots / epoch announcements into a *different* domain's tables —
/// which no reclaimer of this domain ever scans — so accepting it would
/// silently void every protection the guard-scoped API promises.  One
/// pointer compare per operation buys back the soundness hole.
#[inline]
pub(crate) fn check_guard<S, G: scot_smr::SmrGuard>(smr: &std::sync::Arc<S>, g: &G) {
    assert_eq!(
        g.domain_addr(),
        std::sync::Arc::as_ptr(smr) as usize,
        "guard was pinned from a handle of a different map's reclamation domain"
    );
}
