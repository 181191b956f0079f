//! Wait-free traversals for SCOT-based data structures (paper §3.4, Figure 7).
//!
//! SCOT's validation may force a traversal to restart from the head, which
//! keeps updates lock-free but makes `Search` only lock-free too (the same
//! limitation HP++ has).  The paper's fix is a custom fast-path/slow-path
//! helping protocol tailored to traversals:
//!
//! * A `Search` first runs the ordinary SCOT traversal for a bounded number of
//!   restarts (the *fast path*).  If it keeps getting disrupted, it publishes
//!   a help request — its key and a per-thread, monotonically increasing tag —
//!   in a per-thread announcement record (`thrdrec_t` in Figure 7) and
//!   switches to `Slow_Search`.
//! * Every `Insert`/`Delete` periodically polls the announcement array
//!   (`Help_Threads`, amortized by the `DELAY` counter and a round-robin
//!   cursor) and, when it finds a pending request, runs the same `Slow_Search`
//!   on behalf of the requester before doing its own update.
//! * Whoever finishes first — helper or requester — publishes the boolean
//!   result with a single CAS keyed by the request tag (`⟨v, In⟩ → ⟨r, Out⟩`),
//!   so exactly one output is ever installed per request (Lemma 5) and stale
//!   helpers can never overwrite a newer request.
//! * `Slow_Search` re-checks the announcement record on every traversal step,
//!   so as soon as anyone produces the answer every participant stops.
//!
//! Updates themselves remain lock-free; only traversals gain wait-freedom
//! (Theorem 7), which matches the evaluation's `listwf` configuration.

use crate::list::{ListHandle, ListRange};
use crate::{check_guard, HarrisList, Key, TraversalSnapshot, Value};
use crossbeam_utils::CachePadded;
use scot_smr::{SlotClaim, SlotRegistry, Smr, SmrConfig, SmrGuard, SmrHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of `Help_Threads` calls between actual help checks (the `DELAY`
/// amortization constant of Figure 7).
const DELAY: usize = 16;

/// Fast-path traversals a `Search` attempts (one plus 8 restarts) before requesting help.
const FAST_PATH_ATTEMPTS: usize = 9;

/// Packed `helpTag` word: bit 0 is `IsInput`, the remaining bits carry either
/// the request tag (input) or the boolean result (output).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct HelpTag(u64);

impl HelpTag {
    const INPUT_BIT: u64 = 1;

    fn input(tag: u64) -> Self {
        Self((tag << 1) | Self::INPUT_BIT)
    }

    fn output(result: bool) -> Self {
        Self((result as u64) << 1)
    }

    fn is_input(self) -> bool {
        self.0 & Self::INPUT_BIT != 0
    }

    fn value(self) -> u64 {
        self.0 >> 1
    }
}

/// Per-thread announcement record (`thrdrec_t` in Figure 7).  `help_key`
/// stores the raw key bits; it is only interpreted after the double read of
/// `help_tag` confirms the record is stable (Figure 7, L20-L23).
struct HelpRecord {
    help_key: AtomicU64,
    help_tag: AtomicU64,
}

impl HelpRecord {
    fn new() -> Self {
        Self {
            help_key: AtomicU64::new(0),
            help_tag: AtomicU64::new(HelpTag::output(false).0),
        }
    }
}

/// Keys usable with the wait-free list: they must round-trip through a 64-bit
/// announcement word so helpers can read them without locks.
pub trait WfKey: Key {
    /// Encodes the key into 64 bits.
    fn encode(self) -> u64;
    /// Decodes a key previously produced by [`WfKey::encode`].
    fn decode(bits: u64) -> Self;
}

macro_rules! impl_wf_key {
    ($($t:ty),*) => {$(
        impl WfKey for $t {
            fn encode(self) -> u64 {
                self as u64
            }
            fn decode(bits: u64) -> Self {
                bits as $t
            }
        }
    )*};
}
impl_wf_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Harris' list with SCOT traversals **and** the wait-free search extension
/// (`V = ()` gives the paper's `listwf` membership set).
///
/// Wait-freedom applies to **membership tests**
/// ([`crate::ConcurrentSet::contains`] and the overridden
/// [`crate::ConcurrentMap::contains`]): the helping protocol publishes a
/// *boolean* answer, so a helped searcher finishes even while its own
/// traversal keeps getting disrupted.  The value-returning
/// [`crate::ConcurrentMap::get`] is lock-free only: handing out `&'g V`
/// fundamentally requires the *caller's own* guard to protect the node, which
/// a helper's protection cannot substitute for.
///
/// ```
/// use scot::{ConcurrentSet, WfHarrisList};
/// use scot_smr::{Hp, Smr, SmrConfig};
///
/// let cfg = SmrConfig::default();
/// let list: WfHarrisList<u64, Hp> = WfHarrisList::new(Hp::new(cfg.clone()), cfg.max_threads);
/// let mut h = list.handle();
/// assert!(list.insert(&mut h, 3));
/// assert!(list.contains(&mut h, &3));
/// ```
pub struct WfHarrisList<K, S: Smr, V = ()> {
    list: HarrisList<K, S, V>,
    records: Box<[CachePadded<HelpRecord>]>,
    record_slots: Arc<SlotRegistry>,
}

/// Per-thread handle for [`WfHarrisList`].
pub struct WfListHandle<S: Smr> {
    inner: ListHandle<S>,
    /// Registry the announcement-record index was claimed from.
    record_slots: Arc<SlotRegistry>,
    /// Claim on this thread's announcement record.
    claim: SlotClaim,
    /// `nextCheck` amortization counter.
    next_check: usize,
    /// Round-robin cursor over the announcement array.
    next_tid: usize,
    /// Next slow-path request tag (monotonically increasing).
    local_tag: u64,
}

/// Critical-section guard for [`WfHarrisList`]: the underlying SMR guard plus
/// mutable views of the handle's helping-protocol state, split-borrowed so the
/// guard can drive `Help_Threads` bookkeeping while the SMR guard protects the
/// traversal.
#[must_use = "dropping a guard unpublishes every protection it holds"]
pub struct WfGuard<'h, S: Smr> {
    g: <S::Handle as SmrHandle>::Guard<'h>,
    /// Index of this thread's announcement record (copied, not borrowed: it
    /// never changes for the lifetime of the handle).
    index: usize,
    next_check: &'h mut usize,
    next_tid: &'h mut usize,
    local_tag: &'h mut u64,
}

impl<K: WfKey, S: Smr, V: Value> WfHarrisList<K, S, V> {
    /// Creates an empty list.  `max_threads` bounds the number of concurrently
    /// registered handles (it normally matches the SMR domain configuration).
    pub fn new(smr: Arc<S>, max_threads: usize) -> Self {
        let records = (0..max_threads)
            .map(|_| CachePadded::new(HelpRecord::new()))
            .collect();
        Self {
            list: HarrisList::new(smr),
            records,
            record_slots: Arc::new(SlotRegistry::new(max_threads)),
        }
    }

    /// Creates an empty list with a freshly created domain using `config`.
    pub fn with_config(config: SmrConfig) -> Self {
        let max_threads = config.max_threads;
        Self::new(S::new(config), max_threads)
    }

    /// The reclamation domain backing this list.
    pub fn domain(&self) -> &Arc<S> {
        self.list.domain()
    }

    /// Registers the calling thread.
    pub fn handle(&self) -> WfListHandle<S> {
        WfListHandle {
            inner: self.list.handle(),
            record_slots: self.record_slots.clone(),
            claim: self.record_slots.claim(),
            next_check: DELAY,
            next_tid: 0,
            local_tag: 1,
        }
    }

    /// `Help_Threads` (Figure 7, L12-L26): every `DELAY` calls, examine one
    /// announcement record in round-robin order and return its request if one
    /// is pending.
    fn poll_help_request(&self, guard: &mut WfGuard<'_, S>) -> Option<(K, HelpTag, usize)> {
        *guard.next_check -= 1;
        if *guard.next_check != 0 {
            return None;
        }
        *guard.next_check = DELAY;
        let curr_tid = *guard.next_tid;
        *guard.next_tid = (curr_tid + 1) % self.records.len();
        if curr_tid == guard.index {
            return None;
        }
        let rec = &self.records[curr_tid];
        let tag = HelpTag(rec.help_tag.load(Ordering::Acquire));
        if !tag.is_input() {
            return None;
        }
        let key_bits = rec.help_key.load(Ordering::Acquire);
        // Confirm the key belongs to the tag we saw (Figure 7, L23).
        if rec.help_tag.load(Ordering::Acquire) != tag.0 {
            return None;
        }
        Some((K::decode(key_bits), tag, curr_tid))
    }

    /// Helps at most one pending search request before an update operation.
    fn maybe_help(&self, guard: &mut WfGuard<'_, S>) {
        if let Some((key, tag, tid)) = self.poll_help_request(guard) {
            self.slow_search(&mut guard.g, &key, tid, tag);
        }
    }

    /// `Request_Help` (Figure 7, L27-L32): publish the key and a fresh input
    /// tag in this thread's announcement record.
    fn request_help(&self, guard: &mut WfGuard<'_, S>, key: K) -> HelpTag {
        let rec = &self.records[guard.index];
        rec.help_key.store(key.encode(), Ordering::Release);
        let tag = HelpTag::input(*guard.local_tag);
        rec.help_tag.store(tag.0, Ordering::Release);
        *guard.local_tag += 1;
        tag
    }

    /// `Slow_Search` (Figure 7, L33-L42): run the traversal on behalf of
    /// `help_tid`'s request, aborting as soon as anyone published a result,
    /// and publish our own result with a tag-keyed CAS when we finish first.
    fn slow_search<G: SmrGuard>(&self, g: &mut G, key: &K, help_tid: usize, tag: HelpTag) -> bool {
        let rec = &self.records[help_tid];
        // The list core's one positioning loop, unbounded, interrupted on
        // every step once the record left `tag`: either the output is
        // available or (for helpers only) the requester has already moved on
        // to a newer request.  Both make the CAS below fail, and the re-read
        // then picks up whatever was installed.
        let moved_on = || rec.help_tag.load(Ordering::Acquire) != tag.0;
        let list = self.list.bound();
        let found = list.search(g, key, usize::MAX, moved_on).unwrap_or(false);
        // Publish the result; only the first CAS for this tag wins (Lemma 5).
        let _ = rec.help_tag.compare_exchange(
            tag.0,
            HelpTag::output(found).0,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        // Re-read: the value that actually got installed is the answer the
        // requester will use, so the requester itself returns exactly that.
        let installed = HelpTag(rec.help_tag.load(Ordering::Acquire));
        if !installed.is_input() {
            installed.value() != 0
        } else {
            found
        }
    }
}

impl<K: WfKey, S: Smr, V: Value> crate::ConcurrentMap<K, V> for WfHarrisList<K, S, V> {
    type Handle = WfListHandle<S>;
    type Guard<'h>
        = WfGuard<'h, S>
    where
        Self: 'h;
    type Range<'r, 'h>
        = ListRange<'r, 'h, K, S, V>
    where
        Self: 'h,
        'h: 'r;

    fn handle(&self) -> Self::Handle {
        WfHarrisList::handle(self)
    }

    fn pin<'h>(&self, handle: &'h mut Self::Handle) -> Self::Guard<'h> {
        // Split-borrow the handle: the SMR guard takes the inner handle, the
        // helping-protocol counters stay individually reachable.
        let WfListHandle {
            inner,
            record_slots: _,
            claim,
            next_check,
            next_tid,
            local_tag,
        } = handle;
        WfGuard {
            g: inner.smr.pin(),
            index: claim.index,
            next_check,
            next_tid,
            local_tag,
        }
    }

    fn get<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, key: &K) -> Option<&'g V> {
        // Lock-free, not wait-free: a value borrow must be backed by this
        // thread's own protection (see the type-level documentation).
        crate::ConcurrentMap::get(&self.list, &mut guard.g, key)
    }

    fn insert<'h>(&self, guard: &mut Self::Guard<'h>, key: K, value: V) -> Result<(), V> {
        check_guard(self.domain(), &guard.g);
        self.maybe_help(guard);
        crate::ConcurrentMap::insert(&self.list, &mut guard.g, key, value)
    }

    fn remove<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, key: &K) -> Option<&'g V> {
        check_guard(self.domain(), &guard.g);
        self.maybe_help(guard);
        crate::ConcurrentMap::remove(&self.list, &mut guard.g, key)
    }

    fn contains<'h>(&self, guard: &mut Self::Guard<'h>, key: &K) -> bool {
        check_guard(self.domain(), &guard.g);
        // Fast path: bounded number of ordinary SCOT traversals.
        let list = self.list.bound();
        if let Some(found) = list.search(&mut guard.g, key, FAST_PATH_ATTEMPTS, || false) {
            return found;
        }
        // Slow path: announce the request and search with helpers.
        let tag = self.request_help(guard, *key);
        let index = guard.index;
        self.slow_search(&mut guard.g, key, index, tag)
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
        // Scans are lock-free by design, like `get`: every yielded borrow
        // must be backed by this thread's own protection, which the helping
        // protocol (a published boolean) cannot substitute for.
        crate::ConcurrentMap::scan(&self.list, &mut guard.g, lo, hi)
    }

    fn collect(&self, handle: &mut Self::Handle) -> Vec<(K, V)>
    where
        V: Clone,
    {
        crate::ConcurrentMap::collect(&self.list, &mut handle.inner)
    }

    fn flush(&self, handle: &mut Self::Handle) {
        handle.flush();
    }

    fn traversal_stats(&self) -> TraversalSnapshot {
        crate::ConcurrentMap::traversal_stats(&self.list)
    }
}

impl<S: Smr> WfListHandle<S> {
    /// Forces a reclamation pass on this thread's SMR handle.
    pub fn flush(&mut self) {
        self.inner.flush();
    }
}

impl<S: Smr> Drop for WfListHandle<S> {
    fn drop(&mut self) {
        self.record_slots.release(self.claim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::tests::cfg;
    use crate::ConcurrentSet;
    use scot_smr::{Ebr, Hp, Hyaline, Ibr, Nbr, Vbr};

    /// UFCS pin helper: the tests exercise `ConcurrentSet` method syntax, so
    /// `ConcurrentMap` itself must stay out of scope (method-name overlap).
    fn pin<'h, K: WfKey, S: Smr>(
        list: &WfHarrisList<K, S>,
        handle: &'h mut WfListHandle<S>,
    ) -> WfGuard<'h, S> {
        crate::ConcurrentMap::pin(list, handle)
    }

    #[test]
    fn help_tag_packing() {
        let t = HelpTag::input(42);
        assert!(t.is_input());
        assert_eq!(t.value(), 42);
        let o = HelpTag::output(true);
        assert!(!o.is_input());
        assert_eq!(o.value(), 1);
        let o = HelpTag::output(false);
        assert_eq!(o.value(), 0);
        assert_ne!(HelpTag::input(0), HelpTag::output(false));
    }

    #[test]
    fn wf_key_roundtrip() {
        assert_eq!(u32::decode(123u32.encode()), 123);
        assert_eq!(i64::decode((-5i64).encode()), -5);
        assert_eq!(u64::decode(u64::MAX.encode()), u64::MAX);
    }

    fn basic_set_semantics<S: Smr>() {
        let list: WfHarrisList<u64, S> = WfHarrisList::with_config(cfg());
        let mut h = list.handle();
        assert!(list.insert(&mut h, 4));
        assert!(list.insert(&mut h, 2));
        assert!(!list.insert(&mut h, 4));
        assert!(list.contains(&mut h, &2));
        assert!(list.contains(&mut h, &4));
        assert!(!list.contains(&mut h, &3));
        assert!(list.remove(&mut h, &2));
        assert!(!list.contains(&mut h, &2));
        assert_eq!(list.collect_keys(&mut h), vec![4]);
    }

    #[test]
    fn basic_semantics_under_every_scheme() {
        basic_set_semantics::<Ebr>();
        basic_set_semantics::<Hp>();
        basic_set_semantics::<Ibr>();
        basic_set_semantics::<Hyaline>();
        basic_set_semantics::<Nbr>();
        basic_set_semantics::<Vbr>();
    }

    #[test]
    fn slow_path_produces_correct_results() {
        // Force the slow path by requesting help directly and then answering
        // it from another handle (acting as the helper).
        let list: WfHarrisList<u64, Hp> = WfHarrisList::with_config(cfg());
        let mut searcher = list.handle();
        let mut helper = list.handle();
        for i in 0..64 {
            list.insert(&mut searcher, i);
        }
        let searcher_index = searcher.claim.index;
        // Searcher announces a request but does not run the search yet.
        let tag = {
            let mut sg = pin(&list, &mut searcher);
            list.request_help(&mut sg, 17)
        };
        // Helper finds the pending request by polling round-robin.
        let mut served = false;
        let mut hg = pin(&list, &mut helper);
        for _ in 0..(DELAY * cfg().max_threads * 2) {
            if let Some((key, t, tid)) = list.poll_help_request(&mut hg) {
                assert_eq!(key, 17);
                assert_eq!(tid, searcher_index);
                assert_eq!(t, tag);
                assert!(list.slow_search(&mut hg.g, &key, tid, t));
                served = true;
                break;
            }
        }
        assert!(served, "helper never observed the pending request");
        // The searcher's own slow search immediately sees the published output.
        let mut sg = pin(&list, &mut searcher);
        assert!(list.slow_search(&mut sg.g, &17, searcher_index, tag));
        // The record now carries an output; a new request gets a fresh tag.
        let tag2 = list.request_help(&mut sg, 9999);
        assert_ne!(tag2, tag);
    }

    #[test]
    fn stale_helper_cannot_overwrite_newer_request() {
        // Lemma 5: a CAS keyed on an old input tag must fail once the record
        // has moved on.
        let list: WfHarrisList<u64, Hp> = WfHarrisList::with_config(cfg());
        let mut a = list.handle();
        let a_index = a.claim.index;
        let mut g = pin(&list, &mut a);
        let old_tag = list.request_help(&mut g, 1);
        let new_tag = list.request_help(&mut g, 2);
        assert_ne!(old_tag, new_tag);
        let rec = &list.records[a_index];
        // Simulate a stale helper publishing for the old tag.
        assert!(rec
            .help_tag
            .compare_exchange(
                old_tag.0,
                HelpTag::output(true).0,
                Ordering::AcqRel,
                Ordering::Acquire
            )
            .is_err());
        assert_eq!(rec.help_tag.load(Ordering::Acquire), new_tag.0);
    }

    #[test]
    fn concurrent_searches_and_updates_agree_with_membership() {
        let list: Arc<WfHarrisList<u32, Ibr>> = Arc::new(WfHarrisList::with_config(cfg()));
        // Pre-fill even keys; they are never removed, odd keys churn.
        {
            let mut h = list.handle();
            for k in (0..128u32).step_by(2) {
                list.insert(&mut h, k);
            }
        }
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let list = list.clone();
                s.spawn(move || {
                    let mut h = list.handle();
                    let mut x = t as u64 + 99;
                    for _ in 0..4000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let odd = ((x % 64) * 2 + 1) as u32;
                        if x.is_multiple_of(2) {
                            list.insert(&mut h, odd);
                        } else {
                            list.remove(&mut h, &odd);
                        }
                        // Stable keys must always be visible to searches.
                        let even = ((x % 64) * 2) as u32;
                        assert!(list.contains(&mut h, &even), "stable key {even} vanished");
                    }
                });
            }
        });
    }
}
