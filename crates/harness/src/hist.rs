//! Log-bucketed latency histogram (HDR-style) for the service workload.
//!
//! The recording path must be cheap enough to sit inside the benchmark hot
//! loop without perturbing the thing it measures, so the design is the
//! classic HdrHistogram layout stripped to what the harness needs:
//!
//! * **fixed-size storage** — one flat `u64` array of
//!   [`LatencyHistogram::SLOTS`] buckets (~15 KiB), no allocation after
//!   construction;
//! * **log-linear buckets** — values below `2 * SUB` are stored exactly (one
//!   slot per nanosecond); above that, each power-of-two range is split into
//!   `SUB` linear sub-buckets, so the worst-case relative error of any
//!   reported quantile is `1 / SUB` (3.125% at `SUB_BITS = 5`), and the
//!   midpoint reporting used here halves that again;
//! * **lock-free recording** — a histogram is owned by one thread (`&mut
//!   self`, plain adds, no atomics); per-thread histograms are merged into a
//!   shared accumulator only at phase boundaries, so the hot path never
//!   touches a lock;
//! * **amortized timing** — scenario workers stamp only 1-in-16 operations
//!   (DESIGN.md § Latency methodology), so the per-op cost of
//!   the timer syscall amortizes away while the percentile estimate stays
//!   unbiased (the sampled ops are a deterministic stride over an i.i.d.
//!   random op stream).
//!
//! The bucket math and the error analysis are documented in DESIGN.md
//! ("Latency methodology").

/// Number of linear sub-bucket bits per power-of-two range.
const SUB_BITS: u32 = 5;
/// Linear sub-buckets per power-of-two range (`2^SUB_BITS`).
const SUB: usize = 1 << SUB_BITS;

/// A log-bucketed histogram of `u64` values (nanoseconds, in this harness).
///
/// Any `u64` value can be recorded; quantiles are reported as the midpoint of
/// the slot they fall in, which bounds the relative error by `1 / (2 * SUB)`
/// for values at or above `2 * SUB` and is exact below that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Box<[u64; Self::SLOTS]>,
    total: u64,
}

impl LatencyHistogram {
    /// Total number of buckets: `2 * SUB` exact slots plus `SUB` linear
    /// sub-buckets for each of the remaining `64 - SUB_BITS - 1` powers of
    /// two — every `u64` value maps to exactly one slot.
    pub const SLOTS: usize = (64 - SUB_BITS as usize + 1) * SUB;

    /// Creates an empty histogram (one fixed ~15 KiB allocation).
    pub fn new() -> Self {
        let counts: Box<[u64]> = vec![0u64; Self::SLOTS].into_boxed_slice();
        Self {
            counts: counts.try_into().expect("SLOTS-sized box"),
            total: 0,
        }
    }

    /// Slot index for a value: exact below `2 * SUB`, log-linear above.
    #[inline]
    fn index_of(v: u64) -> usize {
        if v < (2 * SUB) as u64 {
            v as usize
        } else {
            // Highest set bit is at least SUB_BITS + 1 here.
            let top = 63 - v.leading_zeros();
            let shift = top - SUB_BITS;
            let sub = ((v >> shift) as usize) - SUB;
            (top - SUB_BITS + 1) as usize * SUB + sub
        }
    }

    /// Inclusive `[lo, hi]` value range covered by a slot.
    fn slot_bounds(i: usize) -> (u64, u64) {
        if i < 2 * SUB {
            (i as u64, i as u64)
        } else {
            let shift = (i / SUB - 1) as u32;
            let sub = (i % SUB) as u64;
            let lo = (SUB as u64 + sub) << shift;
            // Width first: the top slot's `lo + width` would wrap past
            // `u64::MAX` before the `- 1` could bring it back.
            let hi = lo + ((1u64 << shift) - 1);
            (lo, hi)
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index_of(v)] += 1;
        self.total += 1;
    }

    /// Records `n` occurrences of a value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.counts[Self::index_of(v)] += n;
        self.total += n;
    }

    /// Adds every count of `other` into `self` (the phase-boundary merge).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `p`-th percentile (`p` in `[0, 100]`), reported as the midpoint of
    /// the slot holding the rank-`ceil(p/100 * count)` value.  Returns 0 for
    /// an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = Self::slot_bounds(i);
                return lo + (hi - lo) / 2;
            }
        }
        // Unreachable: `seen` reaches `total >= rank` on the last counted slot.
        u64::MAX
    }

    /// Median (`p50`).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The operation classes the service workload records latency for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Point lookup (`contains`).
    Get,
    /// Insert.
    Insert,
    /// Remove.
    Remove,
    /// Guard-scoped range scan.
    Scan,
}

impl OpClass {
    /// All four classes, in the order the service table prints them.
    pub const ALL: [OpClass; 4] = [
        OpClass::Get,
        OpClass::Insert,
        OpClass::Remove,
        OpClass::Scan,
    ];

    /// Display name used in tables and JSON artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            OpClass::Get => "get",
            OpClass::Insert => "insert",
            OpClass::Remove => "remove",
            OpClass::Scan => "scan",
        }
    }
}

impl std::fmt::Display for OpClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One latency histogram per operation class — what each worker thread keeps
/// per phase, and what the per-phase accumulators merge into.
#[derive(Debug, Clone, Default)]
pub struct OpHistograms {
    by_class: [LatencyHistogram; OpClass::ALL.len()],
}

impl OpHistograms {
    /// Creates four empty histograms.
    pub fn new() -> Self {
        Self {
            by_class: std::array::from_fn(|_| LatencyHistogram::new()),
        }
    }

    /// Records one sampled latency for an operation class.
    #[inline]
    pub fn record(&mut self, class: OpClass, ns: u64) {
        self.by_class[class as usize].record(ns);
    }

    /// Merges every class histogram of `other` into `self`.
    pub fn merge(&mut self, other: &OpHistograms) {
        for (a, b) in self.by_class.iter_mut().zip(other.by_class.iter()) {
            a.merge(b);
        }
    }

    /// The histogram for one operation class.
    pub fn class(&self, class: OpClass) -> &LatencyHistogram {
        &self.by_class[class as usize]
    }

    /// Total sampled latencies across all classes.
    pub fn count(&self) -> u64 {
        self.by_class.iter().map(LatencyHistogram::count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle percentile: the histogram's rank definition applied to the
    /// exact sorted values.
    fn oracle(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    /// The acceptance bound: the reported percentile must land in the same
    /// slot as the true percentile (index_of is monotone, so this is exact),
    /// and its value must be within one bucket width of the truth.
    fn assert_close(h: &LatencyHistogram, sorted: &[u64]) {
        for p in [0.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let want = oracle(sorted, p);
            let got = h.percentile(p);
            assert_eq!(
                LatencyHistogram::index_of(got),
                LatencyHistogram::index_of(want),
                "p{p}: reported {got} not in the true value's slot ({want})"
            );
            let err = got.abs_diff(want) as f64;
            let allowed = (want as f64 / SUB as f64).max(1.0);
            assert!(
                err <= allowed,
                "p{p}: |{got} - {want}| = {err} exceeds bucket-width bound {allowed}"
            );
        }
    }

    fn hist_of(values: &[u64]) -> (LatencyHistogram, Vec<u64>) {
        let mut h = LatencyHistogram::new();
        for &v in values {
            h.record(v);
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        (h, sorted)
    }

    /// Deterministic xorshift for test data (no external RNG deps).
    fn xorshift(seed: &mut u64) -> u64 {
        let mut x = *seed;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *seed = x;
        x
    }

    #[test]
    fn oracle_uniform_distribution() {
        let mut seed = 0x5c07;
        let values: Vec<u64> = (0..10_000)
            .map(|_| xorshift(&mut seed) % 1_000_000)
            .collect();
        let (h, sorted) = hist_of(&values);
        assert_eq!(h.count(), 10_000);
        assert_close(&h, &sorted);
    }

    #[test]
    fn oracle_heavy_tailed_distribution() {
        // Exponentially spread magnitudes: mostly small with a long tail, the
        // shape real latency series have.
        let mut seed = 0xfeed;
        let values: Vec<u64> = (0..10_000)
            .map(|_| {
                let r = xorshift(&mut seed);
                let scale = r % 40; // up to ~2^40 ns
                (xorshift(&mut seed) % 1000) << scale
            })
            .collect();
        let (h, sorted) = hist_of(&values);
        assert_close(&h, &sorted);
    }

    #[test]
    fn oracle_all_zero_distribution() {
        let values = vec![0u64; 5000];
        let (h, sorted) = hist_of(&values);
        assert_close(&h, &sorted);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn oracle_extreme_values_including_u64_max() {
        let mut values = vec![u64::MAX; 100];
        values.extend([0u64, 1, 2, 63, 64, u64::MAX - 1]);
        let (h, sorted) = hist_of(&values);
        assert_close(&h, &sorted);
        // The top slot covers u64::MAX without overflow.
        assert_eq!(
            LatencyHistogram::index_of(u64::MAX),
            LatencyHistogram::SLOTS - 1
        );
    }

    #[test]
    fn merge_is_associative_and_matches_single_recording() {
        let mut seed = 0xabc;
        let chunks: Vec<Vec<u64>> = (0..3)
            .map(|_| (0..2000).map(|_| xorshift(&mut seed) % 500_000).collect())
            .collect();
        let hist = |vals: &[u64]| hist_of(vals).0;
        let (a, b, c) = (hist(&chunks[0]), hist(&chunks[1]), hist(&chunks[2]));
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");
        // Both equal recording everything into one histogram.
        let all: Vec<u64> = chunks.concat();
        assert_eq!(left, hist(&all));
        assert_eq!(left.count(), 6000);
    }

    #[test]
    fn bucket_boundaries_map_exactly_and_monotonically() {
        // Below 2*SUB every value is its own slot.
        for v in 0..(2 * SUB as u64) {
            assert_eq!(LatencyHistogram::index_of(v), v as usize);
            let mut h = LatencyHistogram::new();
            h.record(v);
            assert_eq!(h.p50(), v, "small values must be exact");
        }
        // Around every power-of-two boundary the index is monotone and the
        // slot bounds actually contain the value.
        for top in (SUB_BITS + 1)..64 {
            let base = 1u64 << top;
            for v in [base - 1, base, base + 1, base + (base >> 1)] {
                let i = LatencyHistogram::index_of(v);
                let (lo, hi) = LatencyHistogram::slot_bounds(i);
                assert!(
                    (lo..=hi).contains(&v),
                    "v={v}: slot {i} covers [{lo}, {hi}]"
                );
                assert!(
                    LatencyHistogram::index_of(v.saturating_add(1)) >= i,
                    "index_of must be monotone at {v}"
                );
            }
        }
        // Slot bounds tile the space: each slot starts where the previous
        // ended.
        for i in 1..LatencyHistogram::SLOTS {
            let (_, prev_hi) = LatencyHistogram::slot_bounds(i - 1);
            let (lo, _) = LatencyHistogram::slot_bounds(i);
            assert_eq!(lo, prev_hi + 1, "slots {i} and {} must tile", i - 1);
        }
        let (_, top_hi) = LatencyHistogram::slot_bounds(LatencyHistogram::SLOTS - 1);
        assert_eq!(top_hi, u64::MAX);
    }

    #[test]
    fn record_n_and_empty_behaviour() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), 0, "empty histogram reports 0");
        h.record_n(1000, 500);
        assert_eq!(h.count(), 500);
        let got = h.p50();
        assert_eq!(
            LatencyHistogram::index_of(got),
            LatencyHistogram::index_of(1000)
        );
    }

    #[test]
    fn op_histograms_track_classes_independently() {
        let mut o = OpHistograms::new();
        o.record(OpClass::Get, 100);
        o.record(OpClass::Get, 200);
        o.record(OpClass::Scan, 50_000);
        assert_eq!(o.class(OpClass::Get).count(), 2);
        assert_eq!(o.class(OpClass::Scan).count(), 1);
        assert_eq!(o.class(OpClass::Insert).count(), 0);
        assert_eq!(o.count(), 3);
        let mut merged = OpHistograms::new();
        merged.merge(&o);
        merged.merge(&o);
        assert_eq!(merged.class(OpClass::Get).count(), 4);
        assert_eq!(OpClass::ALL.len(), 4);
        for c in OpClass::ALL {
            assert!(!c.name().is_empty());
        }
    }
}
