//! Workload generator and runner: the Rust counterpart of the C++ benchmark
//! the paper extends (prefill, timed mixed workload, memory-overhead sampler).

use scot::{
    ConcurrentMap, ConcurrentSet, HarrisList, HarrisMichaelList, HashMap, NmTree, RangeScan,
    SkipList, TraversalSnapshot, WfHarrisList,
};
use scot_smr::{Ebr, He, Hp, Hyaline, Ibr, Nbr, Nr, Smr, SmrConfig, SmrKind, Vbr};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A tiny, dependency-free xorshift64* generator used in the measurement hot
/// loop (the same generator family the original C++ harness uses); keeping the
/// RNG trivial ensures the benchmark measures the data structure, not the RNG.
#[derive(Clone)]
pub(crate) struct FastRng(u64);

impl FastRng {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform-enough value in `[0, bound)` (modulo bias is irrelevant at the
    /// key-range sizes used by the paper's workloads).
    #[inline]
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// Uniform `f64` in `[0, 1)` built from the top 53 bits of one draw.
    #[inline]
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipfian rank generator over `[0, n)` using Hörmann–Derflinger
/// rejection-inversion (the algorithm behind Apache Commons'
/// `RejectionInversionZipfSampler`): O(1) amortized per sample with no
/// precomputed tables, so it scales to the service preset's multi-million-key
/// ranges, and it is driven entirely by the harness's seedable [`FastRng`],
/// so runs stay repeatable.
///
/// `theta` is the skew exponent: rank `k` (0-based) is drawn with probability
/// proportional to `1 / (k + 1)^theta`.  `theta = 0` degenerates to the
/// uniform distribution (the existing draw); `theta ≈ 0.99` is the YCSB-style
/// hot-key skew the service workload uses.
///
/// [`Zipf::key`] additionally scrambles the rank with a fixed bit-mix so the
/// hot ranks scatter across the key space instead of clustering at the head
/// of the structure (rank and key popularity stay deterministic per rank).
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    n: u64,
    theta: f64,
    h_x1: f64,
    h_n: f64,
    s: f64,
}

impl Zipf {
    /// Builds a sampler over ranks `[0, n)` with skew exponent `theta >= 0`.
    pub(crate) fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty range");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "Zipf skew must be finite and non-negative (got {theta})"
        );
        let h_x1 = Self::h_integral(1.5, theta) - 1.0;
        let h_n = Self::h_integral(n as f64 + 0.5, theta);
        let s = 2.0
            - Self::h_integral_inverse(Self::h_integral(2.5, theta) - Self::h(2.0, theta), theta);
        Self {
            n,
            theta,
            h_x1,
            h_n,
            s,
        }
    }

    /// `H(x)`, a primitive of the density `h(x) = x^-theta`.
    fn h_integral(x: f64, theta: f64) -> f64 {
        let log_x = x.ln();
        Self::helper2((1.0 - theta) * log_x) * log_x
    }

    /// The density `h(x) = x^-theta`.
    fn h(x: f64, theta: f64) -> f64 {
        (-theta * x.ln()).exp()
    }

    /// Inverse of [`Zipf::h_integral`].
    fn h_integral_inverse(x: f64, theta: f64) -> f64 {
        let mut t = x * (1.0 - theta);
        if t < -1.0 {
            // Limit damage from floating-point round-off outside the domain.
            t = -1.0;
        }
        (Self::helper1(t) * x).exp()
    }

    /// `log1p(x) / x`, with a Taylor fallback near zero.
    fn helper1(x: f64) -> f64 {
        if x.abs() > 1e-8 {
            x.ln_1p() / x
        } else {
            1.0 - x * (0.5 - x * (1.0 / 3.0 - x * 0.25))
        }
    }

    /// `expm1(x) / x`, with a Taylor fallback near zero.
    fn helper2(x: f64) -> f64 {
        if x.abs() > 1e-8 {
            x.exp_m1() / x
        } else {
            1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + x * 0.25))
        }
    }

    /// Draws a 0-based rank in `[0, n)`; rank 0 is the most frequent.
    pub(crate) fn sample(&self, rng: &mut FastRng) -> u64 {
        loop {
            let u = self.h_n + rng.unit_f64() * (self.h_x1 - self.h_n);
            let x = Self::h_integral_inverse(u, self.theta);
            // Clamp to the valid rank range; x can stray just outside it.
            let k64 = x.round().clamp(1.0, self.n as f64);
            let k = k64 as u64;
            // Accept if k is close enough to x, or by the exact density test.
            if k64 - x <= self.s
                || u >= Self::h_integral(k64 + 0.5, self.theta) - Self::h(k64, self.theta)
            {
                return k - 1;
            }
        }
    }

    /// Deterministic rank → key scatter: a splitmix64-style finalizer mixed
    /// rank reduced into `[0, n)`.  Distinct hot ranks land on unrelated keys
    /// (instead of all crowding the head of an ordered structure); the map is
    /// fixed, so a rank's key never changes across threads or runs.
    fn scramble(&self, rank: u64) -> u64 {
        let mut z = rank.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        (z ^ (z >> 31)) % self.n
    }

    /// Draws a Zipf-distributed *key* in `[0, n)` (scrambled rank).
    pub(crate) fn key(&self, rng: &mut FastRng) -> u64 {
        self.scramble(self.sample(rng))
    }
}

/// The data structures evaluated by the paper (plus the hash-map extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DsKind {
    /// Harris' list with SCOT, lock-free traversals (`listlf` in the artifact).
    ListLf,
    /// Harris' list with SCOT and wait-free traversals (`listwf`).
    ListWf,
    /// Harris-Michael list (`hmlist`), the eager-unlink baseline.
    HmList,
    /// Natarajan-Mittal tree with SCOT (`tree`).
    Tree,
    /// Hash map built from Harris lists (extension, Table 1).
    HashMap,
    /// Lock-free skip list with per-level SCOT validation (extension; the
    /// canonical multi-level optimistic-traversal structure).
    SkipList,
}

impl DsKind {
    /// All six kinds: the paper's figure order (baseline list first, then the
    /// SCOT lists, then the tree), followed by this reproduction's two
    /// extensions (hash map, skip list) in the order they were added.
    pub const ALL: [DsKind; 6] = [
        DsKind::HmList,
        DsKind::ListLf,
        DsKind::ListWf,
        DsKind::Tree,
        DsKind::HashMap,
        DsKind::SkipList,
    ];

    /// Parses the artifact's names (`listlf`, `listwf`, `hmlist`, `tree`,
    /// `hashmap`, `skiplist`), case-insensitively.  Every [`DsKind::name`]
    /// display name (`hlist`, `hlist-wf`, `nmtree`, ...) parses back to its
    /// kind, so result tables round-trip through the CLI.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "listlf" | "hlist" | "harris" => Some(DsKind::ListLf),
            "listwf" | "hlistwf" | "hlist-wf" => Some(DsKind::ListWf),
            "hmlist" | "listhm" | "harris-michael" => Some(DsKind::HmList),
            "tree" | "nmtree" => Some(DsKind::Tree),
            "hashmap" | "hash" | "map" => Some(DsKind::HashMap),
            "skiplist" | "slist" | "skip-list" => Some(DsKind::SkipList),
            _ => None,
        }
    }

    /// Display name used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            DsKind::ListLf => "HList",
            DsKind::ListWf => "HList-WF",
            DsKind::HmList => "HMList",
            DsKind::Tree => "NMTree",
            DsKind::HashMap => "HashMap",
            DsKind::SkipList => "SkipList",
        }
    }

    /// Whether the structure's range scans yield keys in globally ascending
    /// order (everything except the hash map, whose scans run bucket by
    /// bucket).  The scan workload uses this to decide how strictly to check
    /// each scan's output.
    pub fn is_ordered(&self) -> bool {
        !matches!(self, DsKind::HashMap)
    }
}

impl std::fmt::Display for DsKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Operation mix in percent: point reads, inserts, deletes and guard-scoped
/// range scans (the four percentages must sum to 100).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Mix {
    /// Percentage of `contains` operations.
    pub read_pct: u32,
    /// Percentage of `insert` operations.
    pub insert_pct: u32,
    /// Percentage of `remove` operations.
    pub delete_pct: u32,
    /// Percentage of range-scan operations (each scans a window of
    /// [`RunConfig::scan_len`] keys starting at a uniformly drawn key).
    pub scan_pct: u32,
}

impl Mix {
    /// The paper's headline workload: 50% read, 25% insert, 25% delete.
    pub const READ_50: Mix = Mix {
        read_pct: 50,
        insert_pct: 25,
        delete_pct: 25,
        scan_pct: 0,
    };
    /// Read-dominated workload (90% read).
    pub const READ_90: Mix = Mix {
        read_pct: 90,
        insert_pct: 5,
        delete_pct: 5,
        scan_pct: 0,
    };
    /// Write-only workload (50% insert, 50% delete).
    pub const WRITE_ONLY: Mix = Mix {
        read_pct: 0,
        insert_pct: 50,
        delete_pct: 50,
        scan_pct: 0,
    };
    /// Scan-dominated workload: 80% range scans over a churning key space —
    /// the `exp scan` preset's mix.  The scans continuously cross the marked
    /// chains the 20% writers leave behind, which is exactly the dangerous
    /// zone the cursor validates.
    pub const SCAN_HEAVY: Mix = Mix {
        read_pct: 0,
        insert_pct: 10,
        delete_pct: 10,
        scan_pct: 80,
    };

    pub(crate) fn validate(&self) {
        // Widen before summing so absurd percentages are rejected rather than
        // wrapping to a valid-looking total in release builds.
        assert_eq!(
            u64::from(self.read_pct)
                + u64::from(self.insert_pct)
                + u64::from(self.delete_pct)
                + u64::from(self.scan_pct),
            100,
            "operation mix must sum to 100%"
        );
    }
}

/// One benchmark configuration (a single point of a figure).
#[derive(Debug, Clone, Serialize)]
pub struct RunConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Key range; keys are drawn uniformly from `[0, key_range)`.
    pub key_range: u64,
    /// Operation mix.
    pub mix: Mix,
    /// Wall-clock duration of a timed run.
    pub duration: Duration,
    /// Interval between memory-overhead samples.
    pub sample_interval: Duration,
    /// Seed for the per-thread RNGs (results are repeatable modulo scheduling).
    pub seed: u64,
    /// Whether the SMR block pool is enabled (`false` forces every node
    /// alloc/free through the global allocator — the `exp pool` ablation's
    /// baseline arm).
    pub pool: bool,
    /// Padding bytes carried by each stored value in the key-value workloads
    /// ([`crate::run_timed_kv`]); ignored by the membership-set workloads.
    pub value_bytes: usize,
    /// Width of each range-scan window, in keys: a scan op draws `lo`
    /// uniformly and scans `[lo, lo + scan_len)`.  Only consulted when
    /// [`Mix::scan_pct`] is non-zero.
    pub scan_len: u64,
    /// Zipfian skew exponent for key draws: `0.0` (the default) keeps the
    /// paper's uniform draw; any positive value routes keys through the
    /// rejection-inversion Zipf sampler (`--zipf-theta`; the service preset
    /// uses ≈0.99).  Ignored by the key-value workloads, which stay uniform.
    pub zipf_theta: f64,
    /// Operations executed under one guard before the worker calls
    /// [`ConcurrentMap::repin`] (`--pin-batch`).  `1` refreshes the critical
    /// section after every operation (the per-op pin/unpin discipline of the
    /// seed harness, minus the full fence when the scheme can elide it);
    /// larger batches amortize the repin across N operations, bounding the
    /// reclamation delay to one batch instead of one op.  Must be ≥ 1.
    pub pin_batch: u64,
}

impl RunConfig {
    /// A configuration matching the paper's defaults for the given thread
    /// count and key range (50/25/25 mix).
    pub fn paper_default(threads: usize, key_range: u64) -> Self {
        Self {
            threads,
            key_range,
            mix: Mix::READ_50,
            duration: Duration::from_millis(1000),
            sample_interval: Duration::from_millis(10),
            seed: 0x5c07,
            pool: true,
            value_bytes: 0,
            scan_len: 64,
            zipf_theta: 0.0,
            pin_batch: 1,
        }
    }

    /// Shrinks the run duration (used by `--quick` sweeps and unit tests).
    pub fn quick(mut self) -> Self {
        self.duration = Duration::from_millis(150);
        self
    }
}

/// The outcome of one run: the numbers behind one point of one figure.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    /// Data structure under test.
    pub ds: String,
    /// Reclamation scheme under test.
    pub smr: String,
    /// Worker threads.
    pub threads: usize,
    /// Key range.
    pub key_range: u64,
    /// Total completed operations.
    pub ops: u64,
    /// Throughput in operations per second (Figures 8, 9, 12a).
    pub ops_per_sec: f64,
    /// Average number of retired-but-unreclaimed objects, sampled during the
    /// run (Figures 10, 11, 12b).  `None` for Hyaline, as in the paper.
    pub avg_unreclaimed: Option<f64>,
    /// Peak sampled number of unreclaimed objects.
    pub max_unreclaimed: Option<usize>,
    /// Total traversal restarts (Table 2).
    pub restarts: u64,
    /// Total §3.2.1 recoveries (dangerous-zone escapes and skip-list ladder
    /// re-entries that avoided a full restart).
    pub recoveries: u64,
    /// Total backoff spin iterations waited by the cursor's restart ladder.
    pub spins: u64,
    /// Range-scan window width of this run (0 when the mix has no scans).
    pub scan_len: u64,
    /// Total keys yielded by range scans over the whole run.
    pub scanned_keys: u64,
    /// Wall-clock seconds the measurement ran for.
    pub elapsed_secs: f64,
}

impl RunResult {
    /// One-line human-readable summary (the format the binary prints).
    pub fn row(&self) -> String {
        format!(
            "{:<10} {:<7} thr={:<4} range={:<10} ops/s={:<14.0} unreclaimed(avg)={:<12} restarts={:<8} recoveries={:<8} spins={}",
            self.ds,
            self.smr,
            self.threads,
            self.key_range,
            self.ops_per_sec,
            self.avg_unreclaimed
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "n/a".into()),
            self.restarts,
            self.recoveries,
            self.spins,
        )
    }
}

/// Internal: everything the generic runner needs from a concrete structure.
/// `pub(crate)` so the fault-injection runner ([`crate::faults`]) can drive
/// the same monomorphized targets.
pub(crate) struct Target<C> {
    pub(crate) set: Arc<C>,
    pub(crate) unreclaimed: Arc<dyn Fn() -> usize + Send + Sync>,
    pub(crate) stats: Arc<dyn Fn() -> TraversalSnapshot + Send + Sync>,
    pub(crate) track_memory: bool,
    /// Whether scans must yield globally ascending keys (see
    /// [`DsKind::is_ordered`]).
    pub(crate) ordered: bool,
}

pub(crate) fn smr_config(kind: SmrKind, threads: usize, pool: bool) -> SmrConfig {
    let mut cfg = SmrConfig::for_threads(threads);
    if matches!(kind, SmrKind::HpOpt | SmrKind::HeOpt | SmrKind::IbrOpt) {
        cfg = cfg.with_snapshot_scan();
    }
    if !pool {
        cfg = cfg.without_pool();
    }
    cfg
}

/// Number of hash-map buckets used by the harness (a fraction of the key
/// range, mirroring typical load factors in the artifact's hash-map tests).
pub(crate) fn hash_buckets(key_range: u64) -> usize {
    ((key_range / 16).clamp(16, 65_536)) as usize
}

/// Wraps a freshly built structure and its domain into the type-erased
/// target; shared by every arm of [`with_target`]'s dispatch matrix.
fn make_set_target<C, D>(set: C, domain: Arc<D>, track_memory: bool, ordered: bool) -> TargetAny
where
    C: ConcurrentMap<u64, ()>,
    D: Smr,
{
    let set = Arc::new(set);
    let s = set.clone();
    TargetAny::from(Target {
        set,
        unreclaimed: Arc::new(move || domain.unreclaimed()),
        stats: Arc::new(move || ConcurrentSet::traversal_stats(&*s)),
        track_memory,
        ordered,
    })
}

/// Builds the requested structure/scheme pair and hands it to `f`.
///
/// This is the single dispatch point where the (data structure × SMR) matrix
/// is monomorphized, exactly once for the whole harness.
pub(crate) fn with_target<R>(
    ds: DsKind,
    smr: SmrKind,
    threads: usize,
    key_range: u64,
    pool: bool,
    f: impl FnOnce(TargetAny) -> R,
) -> R {
    macro_rules! build_for_scheme {
        ($scheme:ty) => {{
            let cfg = smr_config(smr, threads, pool);
            let domain = <$scheme as Smr>::new(cfg.clone());
            let track_memory = smr != SmrKind::Hyaline;
            let ordered = ds.is_ordered();
            let target = match ds {
                DsKind::ListLf => make_set_target(
                    HarrisList::<u64, $scheme>::new(domain.clone()),
                    domain,
                    track_memory,
                    ordered,
                ),
                DsKind::ListWf => make_set_target(
                    WfHarrisList::<u64, $scheme>::new(domain.clone(), cfg.max_threads),
                    domain,
                    track_memory,
                    ordered,
                ),
                DsKind::HmList => make_set_target(
                    HarrisMichaelList::<u64, $scheme>::new(domain.clone()),
                    domain,
                    track_memory,
                    ordered,
                ),
                DsKind::Tree => make_set_target(
                    NmTree::<u64, $scheme>::new(domain.clone()),
                    domain,
                    track_memory,
                    ordered,
                ),
                DsKind::HashMap => make_set_target(
                    HashMap::<u64, $scheme>::new(hash_buckets(key_range), domain.clone()),
                    domain,
                    track_memory,
                    ordered,
                ),
                DsKind::SkipList => make_set_target(
                    SkipList::<u64, $scheme>::new(domain.clone()),
                    domain,
                    track_memory,
                    ordered,
                ),
            };
            f(target)
        }};
    }

    match smr {
        SmrKind::Nr => build_for_scheme!(Nr),
        SmrKind::Ebr => build_for_scheme!(Ebr),
        SmrKind::Hp | SmrKind::HpOpt => build_for_scheme!(Hp),
        SmrKind::He | SmrKind::HeOpt => build_for_scheme!(He),
        SmrKind::Ibr | SmrKind::IbrOpt => build_for_scheme!(Ibr),
        SmrKind::Hyaline => build_for_scheme!(Hyaline),
        SmrKind::Nbr => build_for_scheme!(Nbr),
        SmrKind::Vbr => build_for_scheme!(Vbr),
    }
}

/// Raw output of a timed run:
/// `(ops, elapsed_secs, memory_samples, stats, scanned_keys)`.
pub(crate) type TimedOutput = (u64, f64, Vec<usize>, TraversalSnapshot, u64);
/// Raw output of a fixed-ops run: `(ops, elapsed_secs, restarts)`.
type FixedOutput = (u64, f64, u64);
/// Boxed timed-run entry point of a monomorphized target.
type TimedRunner = Box<dyn FnOnce(&RunConfig) -> TimedOutput + Send>;
/// Boxed fixed-ops entry point of a monomorphized target.
type FixedRunner = Box<dyn FnOnce(&RunConfig, u64) -> FixedOutput + Send>;
/// Boxed fault-scenario entry point of a monomorphized target.
type FaultRunner =
    Box<dyn FnOnce(&RunConfig, &crate::faults::FaultPlan) -> crate::faults::FaultOutput + Send>;
/// Boxed service-scenario entry point of a monomorphized target.
type ServiceRunner = Box<
    dyn FnOnce(&RunConfig, &crate::service::ServicePlan) -> crate::service::ServiceOutput + Send,
>;

/// Type-erased target: the generic runner functions below are instantiated per
/// concrete set type through this enum-free trampoline.
pub(crate) struct TargetAny {
    pub(crate) run_timed: TimedRunner,
    pub(crate) run_fixed: FixedRunner,
    pub(crate) run_faults: FaultRunner,
    pub(crate) run_service: ServiceRunner,
}

impl<C> From<Target<C>> for TargetAny
where
    C: ConcurrentMap<u64, ()> + 'static,
{
    fn from(target: Target<C>) -> Self {
        let clone = |t: &Target<C>| Target {
            set: t.set.clone(),
            unreclaimed: t.unreclaimed.clone(),
            stats: t.stats.clone(),
            track_memory: t.track_memory,
            ordered: t.ordered,
        };
        let t2 = clone(&target);
        let t3 = clone(&target);
        let t4 = clone(&target);
        TargetAny {
            run_timed: Box::new(move |cfg| timed_inner(&target, cfg)),
            run_fixed: Box::new(move |cfg, ops| fixed_inner(&t2, cfg, ops)),
            run_faults: Box::new(move |cfg, plan| crate::faults::faults_inner(&t3, cfg, plan)),
            run_service: Box::new(move |cfg, plan| crate::service::service_inner(&t4, cfg, plan)),
        }
    }
}

/// Prefills the structure with unique keys covering 50% of the key range,
/// exactly like the paper's benchmark.
///
/// Large ranges are prefilled in parallel across `threads` workers (each
/// claims keys by successful insert, so collisions between workers just move
/// the work to whoever won), because at the 50M-key range of Figure 12 a
/// single-threaded prefill dwarfs the measurement itself.  Tiny ranges keep
/// the deterministic single-threaded fill so the populated key set (every
/// other key) stays exactly what the small-range figures assume.
pub(crate) fn prefill<C: ConcurrentSet<u64>>(set: &C, key_range: u64, seed: u64, threads: usize) {
    let target = (key_range / 2).max(1);
    if key_range <= 1024 {
        let mut handle = set.handle();
        let mut inserted = 0u64;
        let mut k = 0;
        while inserted < target {
            if set.insert(&mut handle, k) {
                inserted += 1;
            }
            k = (k + 2) % key_range.max(1);
            if k == 0 {
                k = 1;
            }
        }
        return;
    }
    let threads = threads.max(1) as u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            // Split the insert quota across workers; the remainder goes to
            // worker 0 so the total is exactly `target`.
            let share = target / threads + if t == 0 { target % threads } else { 0 };
            s.spawn(move || {
                let mut handle = set.handle();
                let mut rng = FastRng::new(seed ^ (t + 1).wrapping_mul(0x9e3779b97f4a7c15));
                let mut inserted = 0u64;
                while inserted < share {
                    let k = rng.below(key_range);
                    if set.insert(&mut handle, k) {
                        inserted += 1;
                    }
                }
            });
        }
    });
}

/// Runs one guard-scoped range scan over `[lo, lo + scan_len)` and returns
/// the number of keys yielded, verifying the scan's correctness oracle on the
/// fly: every key in bounds, no duplicates, and (for ordered structures)
/// strictly ascending.  A violation is a traversal/reclamation bug, so the
/// harness panics rather than recording garbage throughput.
pub(crate) fn scan_once<C: ConcurrentMap<u64, ()>>(
    set: &C,
    handle: &mut C::Handle,
    lo: u64,
    scan_len: u64,
    ordered: bool,
) -> u64 {
    let mut guard = set.pin(handle);
    scan_once_pinned(set, &mut guard, lo, scan_len, ordered)
}

/// [`scan_once`] against an already-pinned guard — what the batched op loop
/// uses so a scan rides the same critical section as the point ops around it.
pub(crate) fn scan_once_pinned<C: ConcurrentMap<u64, ()>>(
    set: &C,
    guard: &mut C::Guard<'_>,
    lo: u64,
    scan_len: u64,
    ordered: bool,
) -> u64 {
    let hi = lo.saturating_add(scan_len.max(1));
    let mut scan = set.scan(&mut *guard, lo, Some(hi));
    let mut prev: Option<u64> = None;
    // Unordered (hash-map) scans: ascending order cannot prove uniqueness, so
    // the yielded keys are collected and dedup-checked after the scan.  The
    // window is at most `scan_len` keys, so this stays cheap.
    let mut seen: Vec<u64> = Vec::new();
    let mut yielded = 0u64;
    while let Some((k, ())) = scan.next_entry() {
        assert!(
            (lo..hi).contains(&k),
            "scan [{lo}, {hi}) yielded out-of-window key {k} — traversal bug"
        );
        if ordered {
            assert!(
                prev.is_none_or(|p| p < k),
                "scan [{lo}, {hi}) yielded {k} after {prev:?} — ordering bug"
            );
        } else {
            seen.push(k);
        }
        prev = Some(k);
        yielded += 1;
    }
    if !ordered {
        seen.sort_unstable();
        let deduped = seen.len();
        seen.dedup();
        assert_eq!(
            seen.len(),
            deduped,
            "scan [{lo}, {hi}) yielded duplicate keys — traversal bug"
        );
    }
    yielded
}

/// The measurement hot loop.  Returns `(ops, scanned_keys)`.
pub(crate) fn op_loop<C: ConcurrentMap<u64, ()>>(
    set: &C,
    cfg: &RunConfig,
    stop: &AtomicBool,
    thread_idx: usize,
    max_ops: Option<u64>,
    ordered: bool,
) -> (u64, u64) {
    let mut handle = ConcurrentMap::handle(set);
    let mut rng = FastRng::new(cfg.seed ^ (thread_idx as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15));
    let zipf = (cfg.zipf_theta > 0.0).then(|| Zipf::new(cfg.key_range.max(1), cfg.zipf_theta));
    let pin_batch = cfg.pin_batch.max(1);
    let mut ops = 0u64;
    let mut scanned = 0u64;
    // One guard held for the whole loop, refreshed in place every `pin_batch`
    // operations: the guard-entry/exit fences are paid once per batch (and
    // elided entirely by the epoch/era schemes while the epoch stands still)
    // instead of once per operation, while reclamation still advances at
    // every batch edge.
    let mut guard = set.pin(&mut handle);
    let mut in_batch = 0u64;
    loop {
        if let Some(limit) = max_ops {
            if ops >= limit {
                break;
            }
        }
        // Check the stop flag only every few operations to keep the hot loop
        // tight, as the original benchmark does.
        if ops.is_multiple_of(64) && stop.load(Ordering::Relaxed) {
            break;
        }
        if in_batch >= pin_batch {
            set.repin(&mut guard);
            in_batch = 0;
        }
        // One RNG draw per operation, as in the original C++ harness: the low
        // bits choose the key (key ranges stay far below 2^48) and the high 16
        // bits choose the operation, so the two stay independent.  With a
        // Zipfian skew requested, the key comes from the sampler instead (it
        // draws from the same per-thread RNG, so runs stay repeatable).
        let r = rng.next_u64();
        let op = ((r >> 48) % 100) as u32;
        let key = match &zipf {
            Some(z) => z.key(&mut rng),
            None => r % cfg.key_range.max(1),
        };
        if op < cfg.mix.read_pct {
            ConcurrentMap::contains(set, &mut guard, &key);
        } else if op < cfg.mix.read_pct + cfg.mix.insert_pct {
            let _ = ConcurrentMap::insert(set, &mut guard, key, ());
        } else if op < cfg.mix.read_pct + cfg.mix.insert_pct + cfg.mix.delete_pct {
            ConcurrentMap::remove(set, &mut guard, &key);
        } else {
            scanned += scan_once_pinned(set, &mut guard, key, cfg.scan_len, ordered);
        }
        ops += 1;
        in_batch += 1;
    }
    (ops, scanned)
}

fn timed_inner<C: ConcurrentMap<u64, ()> + 'static>(
    target: &Target<C>,
    cfg: &RunConfig,
) -> TimedOutput {
    cfg.mix.validate();
    prefill(target.set.as_ref(), cfg.key_range, cfg.seed, cfg.threads);
    let stop = Arc::new(AtomicBool::new(false));
    let total_ops = Arc::new(AtomicU64::new(0));
    let total_scanned = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut samples = Vec::new();
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let set = target.set.clone();
            let stop = stop.clone();
            let total_ops = total_ops.clone();
            let total_scanned = total_scanned.clone();
            let ordered = target.ordered;
            let cfg = cfg.clone();
            s.spawn(move || {
                let (ops, scanned) = op_loop(set.as_ref(), &cfg, &stop, t, None, ordered);
                total_ops.fetch_add(ops, Ordering::Relaxed);
                total_scanned.fetch_add(scanned, Ordering::Relaxed);
            });
        }
        // The main thread doubles as the memory-overhead sampler.
        let deadline = start + cfg.duration;
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if target.track_memory {
                samples.push((target.unreclaimed)());
            }
            std::thread::sleep(cfg.sample_interval.min(deadline - now));
        }
        stop.store(true, Ordering::SeqCst);
    });
    let elapsed = start.elapsed().as_secs_f64();
    (
        total_ops.load(Ordering::Relaxed),
        elapsed,
        samples,
        (target.stats)(),
        total_scanned.load(Ordering::Relaxed),
    )
}

fn fixed_inner<C: ConcurrentMap<u64, ()> + 'static>(
    target: &Target<C>,
    cfg: &RunConfig,
    ops_per_thread: u64,
) -> FixedOutput {
    cfg.mix.validate();
    prefill(target.set.as_ref(), cfg.key_range, cfg.seed, cfg.threads);
    let stop = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let set = target.set.clone();
            let stop = &stop;
            let total_ops = &total_ops;
            let ordered = target.ordered;
            let cfg = cfg.clone();
            s.spawn(move || {
                let (ops, _) = op_loop(set.as_ref(), &cfg, stop, t, Some(ops_per_thread), ordered);
                total_ops.fetch_add(ops, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    (
        total_ops.load(Ordering::Relaxed),
        elapsed,
        (target.stats)().restarts,
    )
}

/// Collapses a memory-overhead sample series into `(average, peak)`.
pub(crate) fn summarize_samples(samples: &[usize]) -> (Option<f64>, Option<usize>) {
    if samples.is_empty() {
        (None, None)
    } else {
        let sum: usize = samples.iter().sum();
        (
            Some(sum as f64 / samples.len() as f64),
            samples.iter().copied().max(),
        )
    }
}

/// Runs a timed workload (the paper's main measurement mode) and returns the
/// numbers behind one figure point.
pub fn run_timed(ds: DsKind, smr: SmrKind, cfg: &RunConfig) -> RunResult {
    let (ops, elapsed, samples, stats, scanned_keys) =
        with_target(ds, smr, cfg.threads, cfg.key_range, cfg.pool, |t| {
            (t.run_timed)(cfg)
        });
    let (avg, max) = summarize_samples(&samples);
    RunResult {
        ds: ds.name().to_string(),
        smr: smr.name().to_string(),
        threads: cfg.threads,
        key_range: cfg.key_range,
        ops,
        ops_per_sec: ops as f64 / elapsed,
        avg_unreclaimed: avg,
        max_unreclaimed: max,
        restarts: stats.restarts,
        recoveries: stats.recoveries,
        spins: stats.spins,
        scan_len: if cfg.mix.scan_pct > 0 {
            cfg.scan_len
        } else {
            0
        },
        scanned_keys,
        elapsed_secs: elapsed,
    }
}

/// Runs a fixed number of operations per thread and returns
/// `(total_ops, elapsed_seconds, restarts)`.  Used by the Criterion benches.
pub fn run_fixed_ops(
    ds: DsKind,
    smr: SmrKind,
    cfg: &RunConfig,
    ops_per_thread: u64,
) -> (u64, f64, u64) {
    with_target(ds, smr, cfg.threads, cfg.key_range, cfg.pool, |t| {
        (t.run_fixed)(cfg, ops_per_thread)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ds_kind_parse_roundtrip() {
        // Every display name must parse back to exactly its kind.
        for k in DsKind::ALL {
            assert_eq!(
                DsKind::parse(k.name()),
                Some(k),
                "display name {} must round-trip",
                k.name()
            );
        }
        assert_eq!(DsKind::parse("listlf"), Some(DsKind::ListLf));
        assert_eq!(DsKind::parse("LISTWF"), Some(DsKind::ListWf));
        assert_eq!(DsKind::parse("HList-WF"), Some(DsKind::ListWf));
        assert_eq!(DsKind::parse("hmlist"), Some(DsKind::HmList));
        assert_eq!(DsKind::parse("tree"), Some(DsKind::Tree));
        assert_eq!(DsKind::parse("hashmap"), Some(DsKind::HashMap));
        assert_eq!(DsKind::parse("skiplist"), Some(DsKind::SkipList));
        assert_eq!(DsKind::parse("SKIP-LIST"), Some(DsKind::SkipList));
        assert_eq!(DsKind::parse("slist"), Some(DsKind::SkipList));
        assert_eq!(DsKind::parse("bogus"), None);
        // The enumeration covers all six structures exactly once.
        assert_eq!(DsKind::ALL.len(), 6);
        let mut names: Vec<&str> = DsKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6, "display names must be unique");
    }

    #[test]
    #[should_panic(expected = "must sum to 100")]
    fn invalid_mix_is_rejected() {
        let mix = Mix {
            read_pct: 50,
            insert_pct: 50,
            delete_pct: 50,
            scan_pct: 0,
        };
        mix.validate();
    }

    #[test]
    fn builtin_mixes_are_valid() {
        for mix in [Mix::READ_50, Mix::READ_90, Mix::WRITE_ONLY, Mix::SCAN_HEAVY] {
            mix.validate();
        }
        assert_eq!(Mix::SCAN_HEAVY.scan_pct, 80);
    }

    #[test]
    fn scan_workload_completes_and_counts_scanned_keys() {
        // Every structure (ordered and not) must survive the scan-heavy mix
        // with its in-loop oracle checks enabled.
        let mut cfg = RunConfig::paper_default(2, 256);
        cfg.duration = Duration::from_millis(60);
        cfg.mix = Mix::SCAN_HEAVY;
        cfg.scan_len = 32;
        for ds in DsKind::ALL {
            let r = run_timed(ds, SmrKind::Hp, &cfg);
            assert!(r.ops > 0, "{ds} completed no operations under scans");
            assert!(
                r.scanned_keys > 0,
                "{ds} scans yielded no keys over a half-full range"
            );
            assert_eq!(r.scan_len, 32);
        }
    }

    #[test]
    fn quick_timed_run_produces_sane_numbers() {
        let cfg = RunConfig::paper_default(2, 256).quick();
        let r = run_timed(DsKind::ListLf, SmrKind::Hp, &cfg);
        assert!(r.ops > 0, "no operations completed");
        assert!(r.ops_per_sec > 0.0);
        assert!(
            r.avg_unreclaimed.is_some(),
            "HP must report memory overhead"
        );
        assert_eq!(r.ds, "HList");
        assert_eq!(r.smr, "HP");
    }

    #[test]
    fn hyaline_runs_without_memory_sampling() {
        let cfg = RunConfig::paper_default(2, 256).quick();
        let r = run_timed(DsKind::HmList, SmrKind::Hyaline, &cfg);
        assert!(r.ops > 0);
        assert!(
            r.avg_unreclaimed.is_none(),
            "Hyaline memory overhead is skipped, as in the paper"
        );
    }

    #[test]
    fn fixed_ops_mode_executes_exactly_the_requested_work() {
        let cfg = RunConfig::paper_default(2, 128).quick();
        let (ops, elapsed, _) = run_fixed_ops(DsKind::Tree, SmrKind::Ebr, &cfg, 1_000);
        assert_eq!(ops, 2 * 1_000);
        assert!(elapsed > 0.0);
    }

    #[test]
    fn zipf_is_deterministic_under_a_seed() {
        let z = Zipf::new(10_000, 0.99);
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = FastRng::new(seed);
            (0..256).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(draw(42), draw(42), "same seed, same rank stream");
        // (FastRng forces the seed odd, so pick seeds two apart.)
        assert_ne!(draw(42), draw(44), "different seeds must diverge");
        // Keys are a fixed function of rank: replaying the seed replays them.
        let keys = |seed: u64| -> Vec<u64> {
            let mut rng = FastRng::new(seed);
            (0..256).map(|_| z.key(&mut rng)).collect()
        };
        assert_eq!(keys(7), keys(7));
    }

    #[test]
    fn zipf_rank_frequencies_follow_the_skew() {
        // With theta near 1, rank 0 must dominate and frequency must fall
        // with rank; higher theta concentrates more mass on the head.
        let n = 1000u64;
        let count_head = |theta: f64| -> (u64, Vec<u64>) {
            let z = Zipf::new(n, theta);
            let mut rng = FastRng::new(0x5eed);
            let mut counts = vec![0u64; n as usize];
            for _ in 0..200_000 {
                counts[z.sample(&mut rng) as usize] += 1;
            }
            (counts[0], counts)
        };
        let (head_skewed, counts) = count_head(0.99);
        // Expected rank-0 mass at theta=0.99 over 1000 ranks is ~12%; uniform
        // would be 0.1%.  Frequencies must be (noisily) decreasing in rank:
        // compare decade aggregates, which are monotone even with noise.
        assert!(
            head_skewed > 10_000,
            "rank 0 drew only {head_skewed} of 200k at theta=0.99"
        );
        let decade = |lo: usize, hi: usize| counts[lo..hi].iter().sum::<u64>();
        let (d0, d1, d2) = (decade(0, 10), decade(10, 100), decade(100, 1000));
        assert!(
            d0 > d1 / 9 && d1 / 90 > d2 / 900,
            "per-rank mass must fall with rank: {d0}/10 vs {d1}/90 vs {d2}/900"
        );
        // More skew, more head mass.
        let (head_flatter, _) = count_head(0.5);
        assert!(
            head_skewed > head_flatter,
            "theta=0.99 head mass ({head_skewed}) must exceed theta=0.5 ({head_flatter})"
        );
    }

    #[test]
    fn zipf_theta_zero_is_uniform_by_chi_squared() {
        // At theta=0 the sampler must degenerate to the uniform draw: a
        // chi-squared goodness-of-fit smoke over 50 cells.  With 49 degrees
        // of freedom the 99.9th percentile of chi² is ~85; use 100 for slack
        // (the RNG and sampler are deterministic, so this cannot flake).
        let cells = 50u64;
        let per_cell = 4000u64;
        let z = Zipf::new(cells, 0.0);
        let mut rng = FastRng::new(0xc41);
        let mut counts = vec![0u64; cells as usize];
        for _ in 0..cells * per_cell {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - per_cell as f64;
                d * d / per_cell as f64
            })
            .sum();
        assert!(
            chi2 < 100.0,
            "theta=0 sample deviates from uniform (chi2 = {chi2:.1}, counts {counts:?})"
        );
    }

    #[test]
    fn zipf_keys_stay_in_range_and_op_loop_honours_theta() {
        let z = Zipf::new(97, 0.99);
        let mut rng = FastRng::new(1);
        for _ in 0..10_000 {
            assert!(z.key(&mut rng) < 97);
            assert!(z.sample(&mut rng) < 97);
        }
        // A skewed timed run completes operations like a uniform one.
        let mut cfg = RunConfig::paper_default(2, 512).quick();
        cfg.zipf_theta = 0.99;
        let r = run_timed(DsKind::ListLf, SmrKind::Hp, &cfg);
        assert!(r.ops > 0, "zipfian run completed no operations");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn zipf_rejects_negative_theta() {
        let _ = Zipf::new(10, -0.5);
    }

    #[test]
    fn every_ds_smr_pair_smoke_runs() {
        // Table 1: every structure must work under every scheme.
        let cfg = RunConfig {
            duration: Duration::from_millis(40),
            ..RunConfig::paper_default(2, 64)
        };
        for ds in DsKind::ALL {
            for smr in SmrKind::ALL {
                let r = run_timed(ds, smr, &cfg);
                assert!(r.ops > 0, "{ds} under {smr} completed no operations");
            }
        }
    }

    #[test]
    fn every_scheme_variant_is_correct_with_a_batched_pin() {
        // The `--pin-batch 16` counterpart of the Table-1 smoke: the
        // held-guard hot loop (one guard per run, refreshed in place at batch
        // edges) must stay correct under every scheme variant's repin
        // implementation.  The in-loop scan oracles (window bounds, ordering,
        // uniqueness) turn each run into a semantics check.
        let cfg = RunConfig {
            duration: Duration::from_millis(40),
            pin_batch: 16,
            mix: Mix {
                read_pct: 40,
                insert_pct: 20,
                delete_pct: 20,
                scan_pct: 20,
            },
            ..RunConfig::paper_default(2, 64)
        };
        for ds in [DsKind::ListLf, DsKind::Tree, DsKind::SkipList] {
            for smr in SmrKind::ALL {
                let r = run_timed(ds, smr, &cfg);
                assert!(
                    r.ops > 0,
                    "{ds} under {smr} with pin_batch=16 completed no operations"
                );
            }
        }
    }

    #[test]
    fn held_guard_with_repin_keeps_unreclaimed_bounded() {
        // The repin-elision hot loop holds ONE guard for the whole run and
        // refreshes it in place every `pin_batch` operations.  Under an epoch
        // scheme a guard held forever would pin the epoch and let the retire
        // backlog grow with the operation count; repinning at batch edges
        // must keep the peak bounded by a constant independent of run length.
        let mut cfg = RunConfig::paper_default(2, 256);
        cfg.duration = Duration::from_millis(120);
        cfg.mix = Mix::WRITE_ONLY;
        cfg.pin_batch = 16;
        let r = run_timed(DsKind::HmList, SmrKind::Ebr, &cfg);
        assert!(
            r.ops > 5_000,
            "run too short to observe churn: {} ops",
            r.ops
        );
        let peak = r.max_unreclaimed.expect("EBR reports memory overhead");
        assert!(
            peak < 20_000,
            "peak unreclaimed {peak} scales with the {} completed ops — \
             repin is not advancing the reclamation epoch",
            r.ops
        );
    }
}
