//! Key-value (map) workload runner: the value-bearing counterpart of the
//! membership workloads in [`crate::workload`].
//!
//! The paper's benchmark only measures membership (`contains`), but the whole
//! point of the guard-scoped `ConcurrentMap` API is that a `get` can hand back
//! a borrow of the stored value under SMR protection.  This module drives
//! exactly that path: worker threads pin a guard per operation, `get` values
//! and *read their bytes* (so a use-after-free or torn read would be observed,
//! not optimized away), `insert` freshly built payloads, and `remove` entries.
//! The `exp cache` experiment sweeps this read-dominated workload over every
//! scheme variant in [`SmrKind::ALL`].
//!
//! Payload integrity doubles as a safety check: every payload is derived from
//! its key, and the hot loop panics if a value read under a guard ever
//! disagrees with its key — under a correct SMR scheme that must be
//! impossible, no matter how aggressively nodes are recycled.

use crate::workload::{
    hash_buckets, smr_config, summarize_samples, DsKind, FastRng, RunConfig, RunResult, TimedOutput,
};
use scot::{
    ConcurrentMap, HarrisList, HarrisMichaelList, HashMap, NmTree, RangeScan, SkipList,
    TraversalSnapshot, WfHarrisList,
};
use scot_smr::{Ebr, He, Hp, Hyaline, Ibr, Nbr, Nr, Smr, SmrKind, Vbr};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The value stored by the key-value workloads: a key-derived stamp followed
/// by `value_bytes` of padding whose every byte is also derived from the key.
///
/// The redundancy is deliberate: a reader holding `&Payload` can cheaply
/// verify that the borrow still belongs to the key it looked up, which turns
/// every `get` of the benchmark into a use-after-free / torn-read detector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Payload {
    stamp: u64,
    pad: Box<[u8]>,
}

impl Payload {
    /// Builds the payload for `key` with `bytes` bytes of padding.
    pub fn new(key: u64, bytes: usize) -> Self {
        Self {
            stamp: key,
            pad: vec![Self::pad_byte(key); bytes].into_boxed_slice(),
        }
    }

    #[inline]
    fn pad_byte(key: u64) -> u8 {
        (key as u8) ^ 0x5c
    }

    /// The key this payload was built for.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Number of padding bytes.
    #[inline]
    pub fn pad_len(&self) -> usize {
        self.pad.len()
    }

    /// Cheap integrity check used in the measurement hot loop: the stamp plus
    /// one padding byte (two loads — cheap enough to keep in the timed path).
    #[inline]
    pub fn quick_check(&self, key: u64) -> bool {
        self.stamp == key && self.pad.last().is_none_or(|&b| b == Self::pad_byte(key))
    }

    /// Full integrity check (every byte); used by the tests.
    pub fn verify(&self, key: u64) -> bool {
        self.stamp == key && self.pad.iter().all(|&b| b == Self::pad_byte(key))
    }
}

/// Internal: everything the kv runner needs from a concrete map.
struct KvTarget<C> {
    map: Arc<C>,
    unreclaimed: Arc<dyn Fn() -> usize + Send + Sync>,
    stats: Arc<dyn Fn() -> TraversalSnapshot + Send + Sync>,
    track_memory: bool,
    ordered: bool,
}

/// Boxed timed-run entry point of a monomorphized kv target.
type KvTimedRunner = Box<dyn FnOnce(&RunConfig) -> TimedOutput + Send>;

/// Type-erased kv target (same trampoline shape as the set runner).
struct KvTargetAny {
    run_timed: KvTimedRunner,
}

impl<C> From<KvTarget<C>> for KvTargetAny
where
    C: ConcurrentMap<u64, Payload>,
{
    fn from(target: KvTarget<C>) -> Self {
        KvTargetAny {
            run_timed: Box::new(move |cfg| kv_timed_inner(&target, cfg)),
        }
    }
}

/// Wraps a freshly built map and its domain into the type-erased target.
fn make_target<C, D>(map: C, domain: Arc<D>, track_memory: bool, ordered: bool) -> KvTargetAny
where
    C: ConcurrentMap<u64, Payload>,
    D: Smr,
{
    let map = Arc::new(map);
    let m = map.clone();
    KvTargetAny::from(KvTarget {
        map,
        unreclaimed: Arc::new(move || domain.unreclaimed()),
        stats: Arc::new(move || m.traversal_stats()),
        track_memory,
        ordered,
    })
}

/// Builds the requested structure/scheme pair with `Payload` values and hands
/// it to `f` — the kv counterpart of the set runner's dispatch point.
fn with_kv_target<R>(
    ds: DsKind,
    smr: SmrKind,
    threads: usize,
    key_range: u64,
    pool: bool,
    f: impl FnOnce(KvTargetAny) -> R,
) -> R {
    macro_rules! build_for_scheme {
        ($scheme:ty) => {{
            let cfg = smr_config(smr, threads, pool);
            let domain = <$scheme as Smr>::new(cfg.clone());
            let track_memory = smr != SmrKind::Hyaline;
            let ordered = ds.is_ordered();
            let target = match ds {
                DsKind::ListLf => make_target(
                    HarrisList::<u64, $scheme, Payload>::new(domain.clone()),
                    domain,
                    track_memory,
                    ordered,
                ),
                DsKind::ListWf => make_target(
                    WfHarrisList::<u64, $scheme, Payload>::new(domain.clone(), cfg.max_threads),
                    domain,
                    track_memory,
                    ordered,
                ),
                DsKind::HmList => make_target(
                    HarrisMichaelList::<u64, $scheme, Payload>::new(domain.clone()),
                    domain,
                    track_memory,
                    ordered,
                ),
                DsKind::Tree => make_target(
                    NmTree::<u64, $scheme, Payload>::new(domain.clone()),
                    domain,
                    track_memory,
                    ordered,
                ),
                DsKind::HashMap => make_target(
                    HashMap::<u64, $scheme, Payload>::new(hash_buckets(key_range), domain.clone()),
                    domain,
                    track_memory,
                    ordered,
                ),
                DsKind::SkipList => make_target(
                    SkipList::<u64, $scheme, Payload>::new(domain.clone()),
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

/// Prefills the map with unique keys covering 50% of the key range, mirroring
/// the set runner's prefill (values are key-derived payloads).
fn kv_prefill<C: ConcurrentMap<u64, Payload>>(
    map: &C,
    key_range: u64,
    seed: u64,
    threads: usize,
    value_bytes: usize,
) {
    let target = (key_range / 2).max(1);
    if key_range <= 1024 {
        let mut handle = map.handle();
        let mut inserted = 0u64;
        let mut k = 0;
        while inserted < target {
            let mut g = map.pin(&mut handle);
            if map.insert(&mut g, k, Payload::new(k, value_bytes)).is_ok() {
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
            let share = target / threads + if t == 0 { target % threads } else { 0 };
            s.spawn(move || {
                let mut handle = map.handle();
                let mut rng = FastRng::new(seed ^ (t + 1).wrapping_mul(0x9e3779b97f4a7c15));
                let mut inserted = 0u64;
                while inserted < share {
                    let k = rng.below(key_range);
                    let mut g = map.pin(&mut handle);
                    if map.insert(&mut g, k, Payload::new(k, value_bytes)).is_ok() {
                        inserted += 1;
                    }
                }
            });
        }
    });
}

/// The kv measurement hot loop: one guard held for the whole loop and
/// refreshed in place every `pin_batch` operations, `get` reads the value
/// bytes (with the integrity check described in the module docs), `insert`
/// builds a fresh payload, `remove` evicts.
fn kv_op_loop<C: ConcurrentMap<u64, Payload>>(
    map: &C,
    cfg: &RunConfig,
    stop: &AtomicBool,
    thread_idx: usize,
    ordered: bool,
) -> (u64, u64) {
    let mut handle = map.handle();
    let mut rng = FastRng::new(cfg.seed ^ (thread_idx as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15));
    let mut ops = 0u64;
    let mut scanned = 0u64;
    // Accumulated so the value reads cannot be optimized away.
    let mut sink = 0u64;
    let pin_batch = cfg.pin_batch.max(1);
    let mut g = map.pin(&mut handle);
    let mut in_batch = 0u64;
    loop {
        if ops.is_multiple_of(64) && stop.load(Ordering::Relaxed) {
            break;
        }
        if in_batch >= pin_batch {
            map.repin(&mut g);
            in_batch = 0;
        }
        let r = rng.next_u64();
        let key = r % cfg.key_range.max(1);
        let op = ((r >> 48) % 100) as u32;
        if op < cfg.mix.read_pct {
            if let Some(v) = map.get(&mut g, &key) {
                assert!(
                    v.quick_check(key),
                    "get({key}) returned a corrupted value under the guard: \
                     stamp={} — this is a reclamation bug",
                    v.stamp()
                );
                sink = sink.wrapping_add(v.stamp());
            }
        } else if op < cfg.mix.read_pct + cfg.mix.insert_pct {
            let _ = map.insert(&mut g, key, Payload::new(key, cfg.value_bytes));
        } else if op < cfg.mix.read_pct + cfg.mix.insert_pct + cfg.mix.delete_pct {
            if let Some(v) = map.remove(&mut g, &key) {
                // The evicted value is still readable under the guard.
                sink = sink.wrapping_add(v.stamp());
            }
        } else {
            // Range scan: every yielded value is read and integrity-checked
            // under the guard, so a scan that ever hands out a reclaimed or
            // torn payload is caught on the spot.
            let lo = key;
            let hi = lo.saturating_add(cfg.scan_len.max(1));
            let mut scan = map.scan(&mut g, lo, Some(hi));
            let mut prev: Option<u64> = None;
            // Unordered (hash-map) scans: uniqueness is dedup-checked after
            // the scan, since ascending order cannot prove it there.
            let mut seen: Vec<u64> = Vec::new();
            while let Some((k, v)) = scan.next_entry() {
                assert!(
                    (lo..hi).contains(&k),
                    "kv scan [{lo}, {hi}) yielded out-of-window key {k}"
                );
                if ordered {
                    assert!(
                        prev.is_none_or(|p| p < k),
                        "kv scan [{lo}, {hi}) yielded {k} after {prev:?}"
                    );
                } else {
                    seen.push(k);
                }
                assert!(
                    v.quick_check(k),
                    "scan yielded a corrupted value for key {k}: stamp={} — \
                     this is a reclamation bug",
                    v.stamp()
                );
                prev = Some(k);
                sink = sink.wrapping_add(v.stamp());
                scanned += 1;
            }
            if !ordered {
                seen.sort_unstable();
                let len = seen.len();
                seen.dedup();
                assert_eq!(seen.len(), len, "kv scan [{lo}, {hi}) yielded duplicates");
            }
        }
        ops += 1;
        in_batch += 1;
    }
    drop(g);
    std::hint::black_box(sink);
    (ops, scanned)
}

fn kv_timed_inner<C: ConcurrentMap<u64, Payload>>(
    target: &KvTarget<C>,
    cfg: &RunConfig,
) -> TimedOutput {
    kv_prefill(
        target.map.as_ref(),
        cfg.key_range,
        cfg.seed,
        cfg.threads,
        cfg.value_bytes,
    );
    let stop = Arc::new(AtomicBool::new(false));
    let total_ops = Arc::new(AtomicU64::new(0));
    let total_scanned = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut samples = Vec::new();
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let map = target.map.clone();
            let stop = stop.clone();
            let total_ops = total_ops.clone();
            let total_scanned = total_scanned.clone();
            let ordered = target.ordered;
            let cfg = cfg.clone();
            s.spawn(move || {
                let (ops, scanned) = kv_op_loop(map.as_ref(), &cfg, &stop, t, ordered);
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

/// Runs a timed **key-value** workload (the `exp cache` measurement mode):
/// like [`crate::run_timed`], but over `ConcurrentMap<u64, Payload>` with a
/// value-reading `get` in the mix and `cfg.value_bytes` of padding per value.
pub fn run_timed_kv(ds: DsKind, smr: SmrKind, cfg: &RunConfig) -> RunResult {
    cfg.mix.validate();
    let (ops, elapsed, samples, stats, scanned_keys) =
        with_kv_target(ds, smr, cfg.threads, cfg.key_range, cfg.pool, |t| {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Mix;
    use std::time::Duration;

    #[test]
    fn payload_integrity_roundtrip() {
        let p = Payload::new(42, 64);
        assert_eq!(p.stamp(), 42);
        assert_eq!(p.pad_len(), 64);
        assert!(p.verify(42));
        assert!(p.quick_check(42));
        assert!(!p.verify(43));
        assert!(!p.quick_check(43));
        // Zero padding is valid (the knob's lower bound).
        let empty = Payload::new(7, 0);
        assert!(empty.verify(7));
        assert!(empty.quick_check(7));
    }

    #[test]
    fn quick_kv_run_produces_sane_numbers() {
        let mut cfg = RunConfig::paper_default(2, 256).quick();
        cfg.mix = Mix::READ_90;
        cfg.value_bytes = 32;
        let r = run_timed_kv(DsKind::HashMap, SmrKind::Hp, &cfg);
        assert!(r.ops > 0, "no kv operations completed");
        assert!(r.ops_per_sec > 0.0);
        assert!(
            r.avg_unreclaimed.is_some(),
            "HP must report memory overhead"
        );
        assert_eq!(r.ds, "HashMap");
        assert_eq!(r.smr, "HP");
    }

    #[test]
    fn every_ds_runs_the_kv_workload_under_a_robust_scheme() {
        let cfg = RunConfig {
            duration: Duration::from_millis(40),
            value_bytes: 16,
            ..RunConfig::paper_default(2, 64)
        };
        for ds in DsKind::ALL {
            let r = run_timed_kv(ds, SmrKind::Ibr, &cfg);
            assert!(r.ops > 0, "{ds} completed no kv operations under IBR");
        }
    }
}
