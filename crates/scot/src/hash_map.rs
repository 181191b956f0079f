//! Lock-free hash set built, exactly as the paper notes in §2.3 and §6.2, as
//! an array of Harris lists ("hash maps ... are simply arrays of Harris' or
//! Harris-Michael lists").
//!
//! Keys are partitioned into a fixed number of buckets by a multiplicative
//! hash; each bucket is one head word of the list core in [`crate::list`]
//! (with SCOT traversals), and all buckets share one reclamation domain — so
//! memory-overhead accounting matches the paper's methodology — and one
//! [`TraversalStats`] block.

use crate::list::{BoundList, ListCursor, ListHandle, RawList};
use crate::traverse::{ScanState, SeekBound, TraversalStats, ZoneMode};
use crate::{check_guard, ConcurrentMap, Key, RangeScan, TraversalSnapshot, Value};
use scot_smr::{Smr, SmrConfig, SmrHandle};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// 2^64 / φ — the Fibonacci hashing constant (Knuth, TAOCP vol. 3 §6.4).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A Fibonacci multiplicative hasher: zero setup cost (unlike `DefaultHasher`,
/// whose SipHash state costs more to initialize than a whole bucket lookup)
/// and excellent bucket spread for the sequential integer keys the harness
/// draws.  Not DoS-resistant, which is irrelevant for a benchmark structure.
struct FibHasher(u64);

impl Hasher for FibHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fold arbitrary bytes 8 at a time; each chunk is mixed with one
        // multiply, keeping the generic path multiplicative as well.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0 ^ u64::from_le_bytes(buf)).wrapping_mul(FIB);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(FIB);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiplicative mix concentrates entropy in the high bits, which
        // is exactly what the widening-multiply range reduction consumes.
        self.0
    }
}

/// A lock-free hash map: `buckets` Harris lists sharing one SMR domain
/// (`V = ()` gives the hash *set* of the paper's Table 1).
///
/// ```
/// use scot::{ConcurrentMap, HashMap};
/// use scot_smr::{Ibr, Smr, SmrConfig};
///
/// let map: HashMap<u64, Ibr, String> = HashMap::with_config(64, SmrConfig::default());
/// let mut h = ConcurrentMap::handle(&map);
/// let mut g = map.pin(&mut h);
/// assert!(map.insert(&mut g, 42, "answer".into()).is_ok());
/// assert_eq!(map.get(&mut g, &42).map(String::as_str), Some("answer"));
/// assert_eq!(map.remove(&mut g, &42).map(String::as_str), Some("answer"));
/// ```
pub struct HashMap<K, S: Smr, V = ()> {
    buckets: Box<[RawList<K, V>]>,
    smr: Arc<S>,
    /// Shared by every bucket: the counters fire on restarts, recoveries and
    /// zone entries only, which one-node bucket traversals almost never see.
    stats: TraversalStats,
}

impl<K: Key + Hash, S: Smr, V: Value> HashMap<K, S, V> {
    /// Creates a hash map with `buckets` buckets sharing the given domain.
    pub fn new(buckets: usize, smr: Arc<S>) -> Self {
        assert!(buckets > 0, "at least one bucket is required");
        Self {
            buckets: (0..buckets).map(|_| RawList::new()).collect(),
            smr,
            stats: TraversalStats::default(),
        }
    }

    /// Creates a hash map with a freshly created domain.
    pub fn with_config(buckets: usize, config: SmrConfig) -> Self {
        Self::new(buckets, S::new(config))
    }

    /// The shared reclamation domain.
    pub fn domain(&self) -> &Arc<S> {
        &self.smr
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Registers the calling thread.
    pub fn handle(&self) -> ListHandle<S> {
        ListHandle {
            smr: self.smr.register(),
        }
    }

    /// `bucket` as a SCOT list recording into the shared statistics block.
    #[inline]
    fn bind<'a>(&'a self, bucket: &'a RawList<K, V>) -> BoundList<'a, K, V> {
        bucket.bind(&self.stats, ZoneMode::Scot)
    }

    /// Brand-checks `guard` (once per operation, here rather than inside the
    /// bucket) and returns `key`'s bucket.
    #[inline]
    fn bucket<G: scot_smr::SmrGuard>(&self, guard: &G, key: &K) -> BoundList<'_, K, V> {
        check_guard(&self.smr, guard);
        let mut hasher = FibHasher(0);
        key.hash(&mut hasher);
        // Lemire's widening-multiply range reduction: maps the hash onto
        // [0, buckets) from the high bits, avoiding the division a modulo
        // would cost per operation.
        let idx = ((u128::from(hasher.finish()) * self.buckets.len() as u128) >> 64) as usize;
        self.bind(&self.buckets[idx])
    }

    /// Total number of live keys (testing/diagnostics; not atomic).
    pub fn len(&self, handle: &mut ListHandle<S>) -> usize {
        let mut g = handle.smr.pin();
        check_guard(&self.smr, &g);
        let mut count = 0usize;
        for b in &self.buckets {
            self.bind(b).walk(&mut g, |_, _| count += 1);
        }
        count
    }

    /// True if no live keys are present (testing/diagnostics; not atomic).
    pub fn is_empty(&self, handle: &mut ListHandle<S>) -> bool {
        self.len(handle) == 0
    }
}

/// Guard-scoped range scan over a [`HashMap`]: keys are hash-partitioned, so
/// the matching keys of `[lo, hi)` are scattered across every bucket.  The
/// scan therefore visits buckets one at a time, yielding each bucket's
/// matches in ascending order (buckets are sorted Harris lists) but buckets
/// themselves in array order — the overall sequence is **not** globally
/// sorted, which is the honest contract for an unordered container.
pub struct HashMapRange<'r, 'h, K: Key + Hash, S: Smr, V: Value = ()> {
    map: &'r HashMap<K, S, V>,
    cursor: ListCursor<'r, 'r, <S::Handle as SmrHandle>::Guard<'h>, K, V>,
    /// Index of the bucket currently being scanned.
    bucket: usize,
    state: ScanState<K>,
    /// Lower bound, re-applied at the start of every bucket.
    lo: K,
    hi: Option<K>,
}

impl<'r, 'h, K: Key + Hash, S: Smr, V: Value> RangeScan<K, V> for HashMapRange<'r, 'h, K, S, V> {
    fn next_entry(&mut self) -> Option<(K, &V)> {
        let map = self.map;
        let hi = self.hi.as_ref();
        loop {
            let list = map.bind(map.buckets.get(self.bucket)?);
            if self.cursor.scan_next(&mut self.state, hi, |c, bound| {
                list.find(c, *bound, false);
            }) {
                return self.cursor.entry();
            }
            // Bucket exhausted (its sorted segment in [lo, hi) ended):
            // restart the window in the next bucket.
            self.bucket += 1;
            self.state = ScanState::Seek(SeekBound::Ge(self.lo));
        }
    }
}

impl<K: Key + Hash, S: Smr, V: Value> ConcurrentMap<K, V> for HashMap<K, S, V> {
    type Handle = ListHandle<S>;
    type Guard<'h>
        = <S::Handle as SmrHandle>::Guard<'h>
    where
        Self: 'h;
    type Range<'r, 'h>
        = HashMapRange<'r, 'h, K, S, V>
    where
        Self: 'h,
        'h: 'r;

    fn handle(&self) -> Self::Handle {
        HashMap::handle(self)
    }

    fn pin<'h>(&self, handle: &'h mut Self::Handle) -> Self::Guard<'h> {
        handle.smr.pin()
    }

    fn get<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, key: &K) -> Option<&'g V> {
        self.bucket(&*guard, key).get(guard, key)
    }

    fn insert<'h>(&self, guard: &mut Self::Guard<'h>, key: K, value: V) -> Result<(), V> {
        self.bucket(&*guard, &key).insert(guard, key, value)
    }

    fn remove<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, key: &K) -> Option<&'g V> {
        self.bucket(&*guard, key).remove(guard, key)
    }

    fn contains<'h>(&self, guard: &mut Self::Guard<'h>, key: &K) -> bool {
        self.bucket(&*guard, key).contains(guard, key)
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
        HashMapRange {
            map: self,
            cursor: self.bind(&self.buckets[0]).cursor(guard),
            bucket: 0,
            state: ScanState::Seek(SeekBound::Ge(lo)),
            lo,
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
        for b in &self.buckets {
            self.bind(b).walk(&mut g, |k, v| out.push((*k, v.clone())));
        }
        out.sort_unstable_by_key(|entry| entry.0);
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
mod tests {
    // `ConcurrentMap` is deliberately *not* imported here: the tests exercise
    // the set adapter, and having both traits in scope would make the
    // `insert`/`remove`/`contains` method calls ambiguous.
    use super::HashMap;
    use crate::list::tests::cfg;
    use crate::ConcurrentSet;
    use scot_smr::{Ebr, Hp, Hyaline, Nbr, Smr, SmrHandle, Vbr};
    use std::sync::Arc;

    fn basic_semantics_under<S: Smr>() {
        let map: HashMap<u64, S> = HashMap::with_config(8, cfg());
        let mut h = map.handle();
        assert!(map.is_empty(&mut h));
        for i in 0..100u64 {
            assert!(map.insert(&mut h, i));
        }
        for i in 0..100u64 {
            assert!(!map.insert(&mut h, i), "duplicate insert of {i}");
            assert!(map.contains(&mut h, &i));
        }
        assert_eq!(map.len(&mut h), 100);
        for i in (0..100u64).step_by(3) {
            assert!(map.remove(&mut h, &i));
        }
        for i in 0..100u64 {
            assert_eq!(map.contains(&mut h, &i), i % 3 != 0);
        }
    }

    #[test]
    fn basic_semantics() {
        basic_semantics_under::<Hp>();
        basic_semantics_under::<Nbr>();
        basic_semantics_under::<Vbr>();
    }

    #[test]
    fn keys_distribute_over_buckets() {
        let map: HashMap<u64, Ebr> = HashMap::with_config(16, cfg());
        let mut h = map.handle();
        for i in 0..512u64 {
            map.insert(&mut h, i);
        }
        let mut g = h.smr.pin();
        let nonempty = map
            .buckets
            .iter()
            .filter(|b| {
                let mut live = 0;
                map.bind(b).walk(&mut g, |_, _| live += 1);
                live > 0
            })
            .count();
        assert!(
            nonempty >= 12,
            "expected the hash to spread keys over most buckets (got {nonempty}/16)"
        );
    }

    #[test]
    fn concurrent_stress_reclaims_everything() {
        let domain = Hyaline::new(cfg());
        let map: Arc<HashMap<u64, Hyaline>> = Arc::new(HashMap::new(32, domain.clone()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let map = map.clone();
                s.spawn(move || {
                    let mut h = map.handle();
                    let mut x = t + 1;
                    for _ in 0..4000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key = x % 256;
                        if x % 2 == 0 {
                            map.insert(&mut h, key);
                        } else {
                            map.remove(&mut h, &key);
                        }
                    }
                    h.flush();
                });
            }
        });
        let mut h = map.handle();
        h.flush();
        drop(h);
        assert_eq!(domain.unreclaimed(), 0);
    }

    #[test]
    fn a_bucket_is_one_word_and_the_map_holds_one_domain_reference() {
        assert_eq!(
            std::mem::size_of::<crate::list::RawList<u64, u64>>(),
            std::mem::size_of::<usize>()
        );
        for buckets in [1, 64, 4096] {
            let domain = Hp::new(cfg());
            let map: HashMap<u64, Hp> = HashMap::new(buckets, domain.clone());
            assert_eq!(Arc::strong_count(&domain), 2, "{buckets} buckets");
            assert_eq!(map.buckets(), buckets);
        }
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _: HashMap<u64, Hp> = HashMap::with_config(0, cfg());
    }
}
