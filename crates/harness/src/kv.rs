//! Key-value (map) workload runner: the value-bearing counterpart of the
//! membership workloads in [`crate::workload`].
//!
//! The paper's benchmark only measures membership (`contains`), but the whole
//! point of the guard-scoped `ConcurrentMap` API is that a `get` can hand back
//! a borrow of the stored value under SMR protection.  This module drives
//! exactly that path: worker threads `get` values under a guard
//! and *read their bytes* (so a use-after-free or torn read would be observed,
//! not optimized away), `insert` freshly built payloads, and `remove` entries.
//! The `exp cache` experiment sweeps this read-dominated workload over every
//! scheme variant in [`SmrKind::ALL`].
//!
//! Payload integrity doubles as a safety check: every payload is derived from
//! its key, and the hot loop panics if a value read under a guard ever
//! disagrees with its key — under a correct SMR scheme that must be
//! impossible, no matter how aggressively nodes are recycled.

use crate::hist::OpClass;
use crate::workload::{run_workload, DsKind, RunConfig, RunResult, Workload};
use scot_smr::SmrKind;

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

/// The cache workload: every key maps to its [`Payload`], and every value
/// read back — by `get`, by `remove`, by a scan — is integrity-checked under
/// the guard that protects it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cache {
    /// Padding bytes per stored value.
    pub(crate) value_bytes: usize,
}

impl Workload for Cache {
    type V = Payload;
    const READS_VALUES: bool = true;

    fn value(&self, key: u64) -> Payload {
        Payload::new(key, self.value_bytes)
    }

    fn verify(&self, op: OpClass, key: u64, value: &Payload) -> u64 {
        assert!(
            value.quick_check(key),
            "{op} of key {key} read a corrupted value under the guard: stamp={} — \
             this is a reclamation bug",
            value.stamp()
        );
        value.stamp()
    }
}

/// Runs a timed **key-value** workload (the `exp cache` measurement mode):
/// like [`crate::run_timed`], but over `ConcurrentMap<u64, Payload>` with a
/// value-reading `get` in the mix and `cfg.value_bytes` of padding per value.
pub fn run_timed_kv(ds: DsKind, smr: SmrKind, cfg: &RunConfig) -> RunResult {
    let cache = Cache {
        value_bytes: cfg.value_bytes,
    };
    run_workload(ds, smr, cfg, cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{testing, Mix, Ops};
    use scot::ConcurrentMap;
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

    /// A cache workload over a double whose every read answers with the
    /// payload of key 7.
    fn read_scripted(op: OpClass, key: u64) -> bool {
        let seven = || Payload::new(7, 8);
        let target = testing::scripted(Some(seven()), vec![(key, seven())], true);
        let ops = Ops {
            target: &target,
            workload: Cache { value_bytes: 8 },
            scan_len: 4,
        };
        ops.once(&mut target.map.handle(), op, key)
    }

    #[test]
    fn cache_verifier_accepts_the_payload_of_its_own_key() {
        for op in [OpClass::Get, OpClass::Remove, OpClass::Scan] {
            assert!(read_scripted(op, 7), "{op}");
        }
    }

    #[test]
    #[should_panic(expected = "get of key 9 read a corrupted value under the guard: stamp=7")]
    fn cache_verifier_rejects_a_get_stamped_for_another_key() {
        read_scripted(OpClass::Get, 9);
    }

    #[test]
    #[should_panic(expected = "scan of key 9 read a corrupted value under the guard: stamp=7")]
    fn cache_verifier_rejects_a_scanned_value_stamped_for_another_key() {
        read_scripted(OpClass::Scan, 9);
    }

    #[test]
    #[should_panic(expected = "yielded out-of-window key 3")]
    fn cache_scans_share_the_scan_oracle() {
        // Key 3 lies outside the scan window [7, 11) the double ignores.
        let target = testing::scripted(None, vec![(3, Payload::new(3, 8))], true);
        let ops = Ops {
            target: &target,
            workload: Cache { value_bytes: 8 },
            scan_len: 4,
        };
        ops.once(&mut target.map.handle(), OpClass::Scan, 7);
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
