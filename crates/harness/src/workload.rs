//! Workload generator and runner: the Rust counterpart of the C++ benchmark
//! the paper extends (prefill, timed mixed workload, memory-overhead sampler).

use crate::hist::OpClass;
use crate::phases::{run_phased, PhaseEvent};
use scot::{
    ConcurrentMap, HarrisList, HarrisMichaelList, HashMap, NmTree, RangeScan, SkipList, Value,
    WfHarrisList,
};
use scot_smr::{Ebr, He, Hp, Hyaline, Ibr, Nbr, Nr, Smr, SmrConfig, SmrKind, Vbr};
use std::sync::atomic::{AtomicU8, Ordering};
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
#[derive(Debug, Clone, Copy)]
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
#[derive(Debug, Clone)]
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
    /// uses ≈0.99).
    pub zipf_theta: f64,
    /// Operations per critical section (`--pin-batch`).  `1` is the paper's
    /// protocol: every operation pins, runs and unpins.  Larger values hold
    /// one guard across N operations, then drop it and pin again, amortizing
    /// the pin across the batch and bounding the reclamation delay to one
    /// batch instead of one op.  Must be ≥ 1.
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
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Data structure under test.
    pub ds: String,
    /// Reclamation scheme under test ([`SmrKind::name`]).
    pub smr: String,
    /// Ablation arm this point belongs to (`pool-on` / `pool-off`, `base` /
    /// `batch`); `None` outside the `pool` and `cursor` presets.
    pub arm: Option<String>,
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
}

/// One arm of an ablation preset: its name (the `arm` field of results and
/// bench records), how it is shown next to its scheme in progress rows, and
/// the one knob it sets on a cell's configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arm {
    pub(crate) name: &'static str,
    suffix: &'static str,
    pub(crate) set: fn(&mut RunConfig),
}

impl Arm {
    /// Block pool enabled (the default configuration).
    pub(crate) const POOL_ON: Arm = Arm::new("pool-on", "+pool", |cfg| cfg.pool = true);
    /// Every node alloc/free through the global allocator.
    pub(crate) const POOL_OFF: Arm = Arm::new("pool-off", "-pool", |cfg| cfg.pool = false);
    /// The paper's per-operation pin.
    pub(crate) const BASE: Arm = Arm::new("base", "+base", |cfg| cfg.pin_batch = 1);
    /// One guard held across a batch of operations: of the requested
    /// `--pin-batch` if that is above 1, of 16 otherwise.
    pub(crate) const BATCH: Arm = Arm::new("batch", "+batch", |cfg| {
        if cfg.pin_batch <= 1 {
            cfg.pin_batch = 16;
        }
    });
    const ALL: [Arm; 4] = [Arm::POOL_ON, Arm::POOL_OFF, Arm::BASE, Arm::BATCH];

    const fn new(name: &'static str, suffix: &'static str, set: fn(&mut RunConfig)) -> Self {
        Self { name, suffix, set }
    }
}

impl RunResult {
    /// The scheme as progress rows show it: its name plus the arm's suffix
    /// (`EBR+batch`, `HP-pool`).
    fn label(&self) -> String {
        let arm = Arm::ALL
            .iter()
            .find(|arm| self.arm.as_deref() == Some(arm.name));
        format!("{}{}", self.smr, arm.map_or("", |arm| arm.suffix))
    }

    /// The sampled backlog as tables show it (`n/a` where it is not sampled).
    pub(crate) fn backlog(&self) -> String {
        self.avg_unreclaimed
            .map_or_else(|| "n/a".into(), |v| format!("{v:.1}"))
    }

    /// One-line human-readable summary (the format the binary prints).
    pub fn row(&self) -> String {
        format!(
            "{:<10} {:<7} thr={:<4} range={:<10} ops/s={:<14.0} unreclaimed(avg)={:<12} restarts={:<8} recoveries={:<8} spins={}",
            self.ds,
            self.label(),
            self.threads,
            self.key_range,
            self.ops_per_sec,
            self.backlog(),
            self.restarts,
            self.recoveries,
            self.spins,
        )
    }
}

/// What a workload stores under each key and how it checks what comes back:
/// the one point where the membership runs of the paper and the
/// value-bearing cache runs differ.  Everything else — the draw, the
/// operation, the scan oracle, prefill, the loop, the driver — is written
/// once, generic over this.
pub(crate) trait Workload: Copy + Send + Sync {
    /// The stored value type.
    type V: Value;
    /// Whether a point read fetches the value (`get`) or only asks for
    /// membership (`contains` — the wait-free list's cheaper path, and what
    /// the paper measures).
    const READS_VALUES: bool;
    /// Builds the value stored under `key`.
    fn value(&self, key: u64) -> Self::V;
    /// Verifies a value that `op` read back for `key` under a live guard
    /// (panicking on a mismatch: that is a reclamation bug, not a result) and
    /// returns a word of it, which the loop accumulates so the read cannot
    /// be optimized away.
    fn verify(&self, op: OpClass, key: u64, value: &Self::V) -> u64;
}

/// The paper's workload: keys only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Membership;

impl Workload for Membership {
    type V = ();
    const READS_VALUES: bool = false;

    fn value(&self, _key: u64) {}

    fn verify(&self, _op: OpClass, _key: u64, _value: &()) -> u64 {
        0
    }
}

/// A built structure and the reclamation domain behind it, as the runners
/// see it.
pub(crate) struct Target<C> {
    pub(crate) ds: DsKind,
    pub(crate) smr: SmrKind,
    pub(crate) map: C,
    pub(crate) unreclaimed: Box<dyn Fn() -> usize + Send + Sync>,
}

/// What runs against a built target: implemented by the timed, fault and
/// service runners, so [`with_target`] is the only place that names a
/// concrete structure or scheme type.
pub(crate) trait Visitor<V: Value> {
    /// What the run produces.
    type Out;
    /// Runs against the monomorphized structure.
    fn run<C: ConcurrentMap<u64, V>>(self, target: &Target<C>) -> Self::Out;
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
fn hash_buckets(key_range: u64) -> usize {
    ((key_range / 16).clamp(16, 65_536)) as usize
}

/// Builds the requested structure/scheme pair over values of type `V`, its
/// domain sized for `cfg.threads` workers plus `extra_threads` others, and
/// hands it to `visitor`.
///
/// This is the single dispatch point where the (data structure × SMR) matrix
/// is monomorphized, exactly once for the whole harness.
pub(crate) fn with_target<V: Value, R: Visitor<V>>(
    ds: DsKind,
    smr: SmrKind,
    cfg: &RunConfig,
    extra_threads: usize,
    visitor: R,
) -> R::Out {
    macro_rules! build_for_scheme {
        ($scheme:ty) => {{
            let smr_cfg = smr_config(smr, cfg.threads + extra_threads, cfg.pool);
            let domain = <$scheme as Smr>::new(smr_cfg.clone());
            let d = domain.clone();
            let buckets = hash_buckets(cfg.key_range);
            // The structure's own half of the target; `run` adds the rest.
            macro_rules! run {
                ($map:expr) => {
                    visitor.run(&Target {
                        ds,
                        smr,
                        map: $map,
                        unreclaimed: Box::new(move || domain.unreclaimed()),
                    })
                };
            }
            match ds {
                DsKind::ListLf => run!(HarrisList::<u64, $scheme, V>::new(d)),
                DsKind::ListWf => {
                    run!(WfHarrisList::<u64, $scheme, V>::new(d, smr_cfg.max_threads))
                }
                DsKind::HmList => run!(HarrisMichaelList::<u64, $scheme, V>::new(d)),
                DsKind::Tree => run!(NmTree::<u64, $scheme, V>::new(d)),
                DsKind::HashMap => run!(HashMap::<u64, $scheme, V>::new(buckets, d)),
                DsKind::SkipList => run!(SkipList::<u64, $scheme, V>::new(d)),
            }
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

/// A thread's operation source: its RNG, the optional Zipfian sampler and
/// the key range.
pub(crate) struct Draw {
    rng: FastRng,
    zipf: Option<Zipf>,
    key_range: u64,
}

impl Draw {
    /// The source of worker (or actor) `thread_idx` of a run seeded `seed`;
    /// `zipf_theta > 0` routes keys through the Zipf sampler.
    pub(crate) fn for_thread(
        seed: u64,
        thread_idx: usize,
        key_range: u64,
        zipf_theta: f64,
    ) -> Self {
        let key_range = key_range.max(1);
        Self {
            rng: FastRng::new(seed ^ (thread_idx as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15)),
            zipf: (zipf_theta > 0.0).then(|| Zipf::new(key_range, zipf_theta)),
            key_range,
        }
    }

    /// Draws the next operation.  One RNG word per operation, as in the
    /// original C++ harness: the low bits choose the key (key ranges stay far
    /// below 2^48) and the high 16 bits choose the operation class, so the
    /// two stay independent.  With a Zipfian skew the key comes from the
    /// sampler instead (it draws from the same RNG, so runs stay repeatable).
    #[inline]
    pub(crate) fn next(&mut self, mix: &Mix) -> (OpClass, u64) {
        let r = self.rng.next_u64();
        let op = ((r >> 48) % 100) as u32;
        let class = if op < mix.read_pct {
            OpClass::Get
        } else if op < mix.read_pct + mix.insert_pct {
            OpClass::Insert
        } else if op < mix.read_pct + mix.insert_pct + mix.delete_pct {
            OpClass::Remove
        } else {
            OpClass::Scan
        };
        let key = match &self.zipf {
            Some(z) => z.key(&mut self.rng),
            // Modulo bias is irrelevant at the key-range sizes the paper's
            // workloads use.
            None => r % self.key_range,
        };
        (class, key)
    }
}

/// What one thread's loop did: operations completed, keys its scans yielded,
/// and the accumulated words of the values it read.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    pub(crate) ops: u64,
    pub(crate) scanned: u64,
    sink: u64,
}

impl Tally {
    /// Component-wise sum, for totalling a run's workers.
    pub(crate) fn merged(self, other: Tally) -> Tally {
        Tally {
            ops: self.ops + other.ops,
            scanned: self.scanned + other.scanned,
            sink: self.sink.wrapping_add(other.sink),
        }
    }
}

/// The caller's side of [`Ops::run_loop`]: when to stop, what mix to draw
/// from, and (optionally) which operations to time.  A plain
/// `FnMut(ops_so_far, &mut Mix) -> bool` is a control that never times.
pub(crate) trait LoopControl {
    /// Called before every operation with the number completed so far; may
    /// change `mix` for the operations that follow.  `false` ends the loop.
    fn proceed(&mut self, ops: u64, mix: &mut Mix) -> bool;

    /// `Some(now)` if the coming operation is to be timed.
    #[inline]
    fn start(&mut self) -> Option<Instant> {
        None
    }

    /// Receives the class and start stamp of an operation [`Self::start`]
    /// chose to time, once it has completed.
    #[inline]
    fn finish(&mut self, _class: OpClass, _started: Instant) {}
}

impl<F: FnMut(u64, &mut Mix) -> bool> LoopControl for F {
    #[inline]
    fn proceed(&mut self, ops: u64, mix: &mut Mix) -> bool {
        self(ops, mix)
    }
}

/// The prefill "mix": inserts only.
const FILL: Mix = Mix {
    read_pct: 0,
    insert_pct: 100,
    delete_pct: 0,
    scan_pct: 0,
};

/// A workload bound to a target: the one definition of "apply an operation",
/// and of the prefill and the loop built on it.  The timed workers, the fault
/// workers and actors, the stalled readers and the service workers all go
/// through [`Ops::apply`].
pub(crate) struct Ops<'a, C, W> {
    pub(crate) target: &'a Target<C>,
    pub(crate) workload: W,
    /// Width of a scan operation's window, in keys.
    pub(crate) scan_len: u64,
}

impl<'a, W: Workload, C: ConcurrentMap<u64, W::V>> Ops<'a, C, W> {
    /// Binds `workload` to `target` and prefills the structure for a run of
    /// `cfg`.
    pub(crate) fn prefilled(target: &'a Target<C>, workload: W, cfg: &RunConfig) -> Self {
        let ops = Ops {
            target,
            workload,
            scan_len: cfg.scan_len,
        };
        ops.prefill(cfg.key_range, cfg.seed, cfg.threads);
        ops
    }

    /// Applies one operation under `guard` and verifies what comes back.
    /// Returns whether it took effect: the key was found (get, remove), the
    /// insert won, the scan yielded at least one key.
    #[inline]
    pub(crate) fn apply(
        &self,
        guard: &mut C::Guard<'_>,
        class: OpClass,
        key: u64,
        tally: &mut Tally,
    ) -> bool {
        let (map, w) = (&self.target.map, &self.workload);
        let read = match class {
            OpClass::Get if !W::READS_VALUES => return map.contains(guard, &key),
            OpClass::Get => map.get(guard, &key),
            OpClass::Insert => return map.insert(guard, key, w.value(key)).is_ok(),
            // The evicted value is still readable under the guard.
            OpClass::Remove => map.remove(guard, &key),
            OpClass::Scan => return self.scan(guard, key, tally) > 0,
        };
        if let Some(v) = read {
            tally.sink = tally.sink.wrapping_add(w.verify(class, key, v));
        }
        read.is_some()
    }

    /// One guard-scoped range scan over `[lo, lo + scan_len)`, verifying the
    /// scan's correctness oracle on the fly: every key in bounds, no
    /// duplicates, (for ordered structures) strictly ascending — and every
    /// yielded value intact.  A violation is a traversal/reclamation bug, so
    /// the harness panics rather than recording garbage throughput.  Returns
    /// the number of keys yielded.
    fn scan(&self, guard: &mut C::Guard<'_>, lo: u64, tally: &mut Tally) -> u64 {
        // Only the hash map's scans are not globally ascending.
        let ordered = self.target.ds.is_ordered();
        let hi = lo.saturating_add(self.scan_len.max(1));
        let mut scan = self.target.map.scan(guard, lo, Some(hi));
        let mut prev: Option<u64> = None;
        // Unordered (hash-map) scans: ascending order cannot prove uniqueness, so
        // the yielded keys are collected and dedup-checked after the scan.  The
        // window is at most `scan_len` keys, so this stays cheap.
        let mut seen: Vec<u64> = Vec::new();
        let mut yielded = 0u64;
        while let Some((k, v)) = scan.next_entry() {
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
            tally.sink = tally
                .sink
                .wrapping_add(self.workload.verify(OpClass::Scan, k, v));
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
        tally.scanned += yielded;
        yielded
    }

    /// One operation in a critical section of its own: pin, apply, unpin.
    pub(crate) fn once(&self, handle: &mut C::Handle, class: OpClass, key: u64) -> bool {
        let mut guard = self.target.map.pin(handle);
        self.apply(&mut guard, class, key, &mut Tally::default())
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
    fn prefill(&self, key_range: u64, seed: u64, threads: usize) {
        let target = (key_range / 2).max(1);
        if key_range <= 1024 {
            let mut handle = self.target.map.handle();
            let mut inserted = 0u64;
            let mut k = 0;
            while inserted < target {
                if self.once(&mut handle, OpClass::Insert, k) {
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
                    let mut handle = self.target.map.handle();
                    let mut draw = Draw::for_thread(seed, t as usize, key_range, 0.0);
                    let mut inserted = 0u64;
                    while inserted < share {
                        let (class, k) = draw.next(&FILL);
                        if self.once(&mut handle, class, k) {
                            inserted += 1;
                        }
                    }
                });
            }
        });
    }

    /// The measurement loop — the only one.  Draws an operation from `mix`,
    /// applies it, counts it, until `control` says stop.
    ///
    /// Pin policy: every `pin_batch` operations the guard is dropped and the
    /// handle pinned again.  At `pin_batch == 1` every operation runs in a
    /// critical section of its own, which is the paper's protocol; larger
    /// batches pay the guard-entry/exit fences once per batch while
    /// reclamation still advances at every batch edge.
    ///
    /// A timed operation's stamp is taken before the pin edge, so at
    /// `pin_batch == 1` it covers one unpin, one pin and the operation.
    pub(crate) fn run_loop(
        &self,
        draw: &mut Draw,
        mut mix: Mix,
        pin_batch: u64,
        mut control: impl LoopControl,
    ) -> Tally {
        let map = &self.target.map;
        let pin_batch = pin_batch.max(1);
        let mut handle = map.handle();
        let mut tally = Tally::default();
        let mut in_batch = 0u64;
        let mut guard = map.pin(&mut handle);
        while control.proceed(tally.ops, &mut mix) {
            let (class, key) = draw.next(&mix);
            let started = control.start();
            if in_batch == pin_batch {
                drop(guard);
                guard = map.pin(&mut handle);
                in_batch = 0;
            }
            self.apply(&mut guard, class, key, &mut tally);
            if let Some(started) = started {
                control.finish(class, started);
            }
            tally.ops += 1;
            in_batch += 1;
        }
        drop(guard);
        std::hint::black_box(tally.sink);
        tally
    }

    /// A worker of a steady run: draws from `cfg.mix` until the phase word
    /// reaches `stop_at`.  The word is polled only every 64 operations to
    /// keep the hot loop tight, as the original benchmark does.
    pub(crate) fn steady_worker(
        &self,
        cfg: &RunConfig,
        thread_idx: usize,
        phase: &AtomicU8,
        stop_at: u8,
    ) -> Tally {
        let mut draw = Draw::for_thread(cfg.seed, thread_idx, cfg.key_range, cfg.zipf_theta);
        let running = |ops: u64, _: &mut Mix| {
            !(ops.is_multiple_of(64) && phase.load(Ordering::Relaxed) >= stop_at)
        };
        self.run_loop(&mut draw, cfg.mix, cfg.pin_batch, running)
    }
}

/// The timed runner: prefill, then `cfg.threads` steady workers for
/// `cfg.duration` while the main thread samples the backlog; the numbers
/// behind one figure point come back.
struct Timed<'a, W> {
    cfg: &'a RunConfig,
    workload: W,
}

impl<W: Workload> Visitor<W::V> for Timed<'_, W> {
    type Out = RunResult;

    fn run<C: ConcurrentMap<u64, W::V>>(self, target: &Target<C>) -> RunResult {
        let cfg = self.cfg;
        cfg.mix.validate();
        let ops = Ops::prefilled(target, self.workload, cfg);
        let mut samples = Vec::new();
        let (tally, elapsed) = run_phased(
            cfg.threads,
            &|t, phase| ops.steady_worker(cfg, t, phase, 1),
            Vec::new(),
            &[cfg.duration],
            cfg.sample_interval,
            target.unreclaimed.as_ref(),
            &mut |ev: PhaseEvent| {
                // Hyaline's backlog is not sampled, as in the paper.
                if ev.edge.is_none() && target.smr != SmrKind::Hyaline {
                    samples.push(ev.unreclaimed);
                }
            },
        );
        let stats = target.map.traversal_stats();
        let sum: usize = samples.iter().sum();
        RunResult {
            ds: target.ds.name().to_string(),
            smr: target.smr.name().to_string(),
            arm: None,
            threads: cfg.threads,
            key_range: cfg.key_range,
            ops: tally.ops,
            ops_per_sec: tally.ops as f64 / elapsed,
            avg_unreclaimed: (!samples.is_empty()).then(|| sum as f64 / samples.len() as f64),
            max_unreclaimed: samples.iter().copied().max(),
            restarts: stats.restarts,
            recoveries: stats.recoveries,
            spins: stats.spins,
            scan_len: if cfg.mix.scan_pct > 0 {
                cfg.scan_len
            } else {
                0
            },
            scanned_keys: tally.scanned,
        }
    }
}

/// Runs one timed cell of `workload`.
pub(crate) fn run_workload<W: Workload>(
    ds: DsKind,
    smr: SmrKind,
    cfg: &RunConfig,
    workload: W,
) -> RunResult {
    with_target(ds, smr, cfg, 0, Timed { cfg, workload })
}

/// Runs a timed workload (the paper's main measurement mode) and returns the
/// numbers behind one figure point.
pub fn run_timed(ds: DsKind, smr: SmrKind, cfg: &RunConfig) -> RunResult {
    run_workload(ds, smr, cfg, Membership)
}

/// A scripted [`ConcurrentMap`] double for the pipeline's own tests: it
/// answers `get` and `scan` from a script instead of from a structure, and
/// counts `pin`s.
#[cfg(test)]
pub(crate) mod testing {
    use super::{DsKind, SmrKind, Target};
    use scot::{ConcurrentMap, RangeScan, TraversalSnapshot, Value};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// What the double answers, and what it saw.
    pub(crate) struct Script<V> {
        /// The answer to every `get` and `remove`.
        pub(crate) get: Option<V>,
        /// What every scan yields, in this order, whatever its bounds.
        pub(crate) scan: Vec<(u64, V)>,
        pub(crate) pins: AtomicU64,
    }

    pub(crate) struct Scripted<V>(pub(crate) Arc<Script<V>>);

    pub(crate) struct ScriptedScan<'r, V>(std::slice::Iter<'r, (u64, V)>);

    impl<V> RangeScan<u64, V> for ScriptedScan<'_, V> {
        fn next_entry(&mut self) -> Option<(u64, &V)> {
            self.0.next().map(|(k, v)| (*k, v))
        }
    }

    impl<V: Value> ConcurrentMap<u64, V> for Scripted<V> {
        type Handle = Arc<Script<V>>;
        type Guard<'h> = &'h Script<V>;
        type Range<'r, 'h>
            = ScriptedScan<'r, V>
        where
            'h: 'r;

        fn handle(&self) -> Self::Handle {
            self.0.clone()
        }

        fn pin<'h>(&self, handle: &'h mut Self::Handle) -> Self::Guard<'h> {
            handle.pins.fetch_add(1, Ordering::Relaxed);
            handle
        }

        fn get<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, _key: &u64) -> Option<&'g V> {
            guard.get.as_ref()
        }

        fn insert<'h>(&self, _guard: &mut Self::Guard<'h>, _key: u64, _value: V) -> Result<(), V> {
            Ok(())
        }

        fn remove<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, key: &u64) -> Option<&'g V> {
            self.get(guard, key)
        }

        fn scan<'r, 'h>(
            &'r self,
            _guard: &'r mut Self::Guard<'h>,
            _lo: u64,
            _hi: Option<u64>,
        ) -> Self::Range<'r, 'h>
        where
            'h: 'r,
        {
            ScriptedScan(self.0.scan.iter())
        }

        fn collect(&self, _handle: &mut Self::Handle) -> Vec<(u64, V)>
        where
            V: Clone,
        {
            self.0.scan.clone()
        }

        fn flush(&self, _handle: &mut Self::Handle) {}

        fn traversal_stats(&self) -> TraversalSnapshot {
            TraversalSnapshot::default()
        }
    }

    /// A target over a double answering reads with `get` and scans with
    /// `scan`.
    pub(crate) fn scripted<V: Value>(
        get: Option<V>,
        scan: Vec<(u64, V)>,
        ordered: bool,
    ) -> Target<Scripted<V>> {
        let script = Script {
            get,
            scan,
            pins: AtomicU64::new(0),
        };
        // Of the six structures only the hash map scans out of order.
        let ds = if ordered {
            DsKind::ListLf
        } else {
            DsKind::HashMap
        };
        Target {
            ds,
            smr: SmrKind::Nr,
            map: Scripted(Arc::new(script)),
            unreclaimed: Box::new(|| 0),
        }
    }
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

    /// Runs `per_thread` operations on each of two threads, stopping through
    /// the loop's control closure.
    struct ExactOps(u64);

    impl Visitor<()> for ExactOps {
        type Out = Tally;

        fn run<C: ConcurrentMap<u64, ()>>(self, target: &Target<C>) -> Tally {
            let ops = Ops::prefilled(target, Membership, &RunConfig::paper_default(2, 128));
            let (total, _) = run_phased(
                2,
                &|t, _| {
                    let mut draw = Draw::for_thread(7, t, 128, 0.0);
                    let stop = |done: u64, _: &mut Mix| done < self.0;
                    ops.run_loop(&mut draw, Mix::READ_50, 1, stop)
                },
                Vec::new(),
                &[Duration::from_millis(1)],
                Duration::from_millis(1),
                &|| 0,
                &mut |_| {},
            );
            total
        }
    }

    #[test]
    fn fixed_ops_mode_executes_exactly_the_requested_work() {
        // Exactly-N-operations control is the loop's stop closure.
        let cfg = RunConfig::paper_default(2, 128);
        let total = with_target(DsKind::Tree, SmrKind::Ebr, &cfg, 0, ExactOps(1_000));
        assert_eq!(total.ops, 2 * 1_000);
    }

    #[test]
    fn the_loop_pins_per_operation_unless_batched() {
        // The paper's protocol at pin_batch 1: every operation in a critical
        // section of its own, so N operations are N pins.  A batch of 4 holds
        // one guard for 4 operations, then drops it and pins again.
        let run = |n: u64, pin_batch: u64| {
            let target = testing::scripted(None::<()>, Vec::new(), true);
            let ops = Ops {
                target: &target,
                workload: Membership,
                scan_len: 8,
            };
            let mut draw = Draw::for_thread(1, 0, 64, 0.0);
            let stop = |done: u64, _: &mut Mix| done < n;
            let tally = ops.run_loop(&mut draw, Mix::READ_50, pin_batch, stop);
            assert_eq!(tally.ops, n);
            target.map.0.pins.load(Ordering::Relaxed)
        };
        for n in [1, 2, 7, 64] {
            assert_eq!(run(n, 1), n, "{n} operations, one pin each");
            assert_eq!(run(n, 4), n.div_ceil(4), "{n} operations in batches of 4");
        }
    }

    /// One scan of `[10, 18)` over a double whose scan yields `keys`.
    fn scan_scripted(keys: &[u64], ordered: bool) {
        let target = testing::scripted(None, keys.iter().map(|&k| (k, ())).collect(), ordered);
        let ops = Ops {
            target: &target,
            workload: Membership,
            scan_len: 8,
        };
        ops.once(&mut target.map.handle(), OpClass::Scan, 10);
    }

    #[test]
    fn scan_oracle_accepts_what_the_contract_allows() {
        scan_scripted(&[10, 11, 17], true);
        scan_scripted(&[17, 10, 11], false);
        scan_scripted(&[], true);
    }

    #[test]
    #[should_panic(expected = "yielded out-of-window key 18")]
    fn scan_oracle_rejects_an_out_of_window_key() {
        scan_scripted(&[10, 18], true);
    }

    #[test]
    #[should_panic(expected = "yielded 11 after Some(12) — ordering bug")]
    fn scan_oracle_rejects_a_descending_pair_in_an_ordered_structure() {
        scan_scripted(&[12, 11], true);
    }

    #[test]
    #[should_panic(expected = "yielded duplicate keys")]
    fn scan_oracle_rejects_a_duplicate_in_an_unordered_structure() {
        scan_scripted(&[12, 11, 12], false);
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
        // The `--pin-batch 16` counterpart of the Table-1 smoke: one guard
        // held across 16 operations, dropped and re-pinned at each batch edge,
        // must stay correct under every scheme variant, including the
        // checkpoint schemes' mid-batch restarts.  The in-loop scan oracles
        // (window bounds, ordering, uniqueness) turn each run into a
        // semantics check.
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
        // "repin" in the name now means the batch edge: drop + pin.
        // The batched loop holds one guard across `pin_batch` operations.
        // Under an epoch scheme a guard held forever would pin the epoch and
        // let the retire backlog grow with the operation count; re-pinning at
        // batch edges must keep the peak bounded by a constant independent of
        // run length.
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
             the batch edge is not advancing the reclamation epoch",
            r.ops
        );
    }
}
