//! Reclamation-focused integration tests: no leaks after quiescence, no
//! premature frees under load, and the robustness behaviour (Theorem 1 versus
//! EBR's unbounded growth) that motivates the whole paper.

use scot::{ConcurrentSet, HarrisList, NmTree, SkipList};
use scot_smr::{Ebr, He, Hp, Hyaline, Ibr, Nbr, Smr, SmrConfig, SmrHandle, Vbr};
use std::sync::Arc;

fn cfg() -> SmrConfig {
    SmrConfig {
        max_threads: 16,
        scan_threshold: 16,
        epoch_freq_per_thread: 1,
        snapshot_scan: false,
        ..SmrConfig::default()
    }
}

/// Every node retired during a churn-heavy run must eventually be reclaimed
/// once all threads are quiescent, for every scheme.
fn churn_then_quiesce<S: Smr>() {
    let domain = S::new(cfg());
    let list: Arc<HarrisList<u64, S>> = Arc::new(HarrisList::new(domain.clone()));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let list = list.clone();
            s.spawn(move || {
                let mut h = list.handle();
                for i in 0..1500u64 {
                    let k = t * 100_000 + (i % 512);
                    list.insert(&mut h, k);
                    list.remove(&mut h, &k);
                }
                h.flush();
            });
        }
    });
    let mut h = list.handle();
    for _ in 0..4 {
        h.flush();
    }
    drop(h);
    assert_eq!(
        domain.unreclaimed(),
        0,
        "{}: retired nodes must all be reclaimed after quiescence",
        domain.name()
    );
}

#[test]
fn churn_then_quiesce_hp() {
    churn_then_quiesce::<Hp>();
}

#[test]
fn churn_then_quiesce_he() {
    churn_then_quiesce::<He>();
}

#[test]
fn churn_then_quiesce_ibr() {
    churn_then_quiesce::<Ibr>();
}

#[test]
fn churn_then_quiesce_ebr() {
    churn_then_quiesce::<Ebr>();
}

#[test]
fn churn_then_quiesce_hyaline() {
    churn_then_quiesce::<Hyaline>();
}

#[test]
fn churn_then_quiesce_nbr() {
    churn_then_quiesce::<Nbr>();
}

#[test]
fn churn_then_quiesce_vbr() {
    churn_then_quiesce::<Vbr>();
}

/// Theorem 1 flavoured robustness check: with a reader stalled inside a
/// critical section, HP keeps the unreclaimed population bounded while EBR's
/// grows with the amount of churn.
#[test]
fn stalled_reader_bounded_under_hp_unbounded_under_ebr() {
    /// Resident keys, above every churned one, that the stalled reader's one
    /// lookup walks: more hops than any budget of fenced hazard publications,
    /// so under HP it stalls *light* (see `scot_smr`'s `hp` module docs) with
    /// its hazards still published.
    const RESIDENT: std::ops::Range<u64> = 1 << 20..(1 << 20) + 64;

    fn run<S: Smr>(churn: u64, long_lookup: bool) -> usize {
        type Map<S> = HarrisList<u64, S>;
        let domain = S::new(cfg());
        let list: Arc<Map<S>> = Arc::new(HarrisList::new(domain.clone()));
        let mut writer = list.handle();
        for k in RESIDENT {
            list.insert(&mut writer, k);
        }
        // Stalled reader: enters a critical section — and, in the
        // long-lookup variant, runs one lookup to the far end of the list —
        // and never leaves (the SMR-level equivalent of a preempted
        // operation).
        let mut stalled = list.handle();
        let mut guard = <Map<S> as scot::ConcurrentMap<u64, ()>>::pin(&list, &mut stalled);
        if long_lookup {
            let last = RESIDENT.end - 1;
            assert!(
                <Map<S> as scot::ConcurrentMap<u64, ()>>::get(&list, &mut guard, &last).is_some()
            );
        }

        for i in 0..churn {
            let k = 10 + (i % 1024);
            list.insert(&mut writer, k);
            list.remove(&mut writer, &k);
        }
        writer.flush();
        let backlog = domain.unreclaimed();
        drop(guard);
        backlog
    }

    // Both backlogs depend only on the churn count (the SMR state machines
    // are driven by retire/scan counters, never by wall-clock time), so the
    // assertions below are deterministic regardless of how slowly the host
    // executes: scale the churn tenfold and compare the resulting backlogs.
    const SMALL_CHURN: u64 = 2_000;
    const LARGE_CHURN: u64 = 20_000;
    let ebr_small = run::<Ebr>(SMALL_CHURN, false);
    let ebr_large = run::<Ebr>(LARGE_CHURN, false);

    // HP: bounded by H*N + N*R regardless of churn volume (Theorem 1), so the
    // backlog must NOT scale with the churn: 10x the work, same ceiling —
    // whether the reader stalled before its first hazard or light.
    let bound = scot_smr::MAX_HAZARDS * 16 + 16 * 16;
    for long_lookup in [false, true] {
        for churn in [SMALL_CHURN, LARGE_CHURN] {
            let backlog = run::<Hp>(churn, long_lookup);
            assert!(
                backlog <= bound,
                "HP churn {churn} (long_lookup={long_lookup}) exceeded bound: {backlog}"
            );
        }
    }
    // EBR: the stalled reader freezes the epoch, so the backlog grows in
    // proportion to the churn count.  Demand at least half the 10x churn
    // ratio to leave slack for the limbo entries reclaimed before the stall
    // took effect, while still distinguishing linear growth from any bound.
    assert!(
        ebr_large >= ebr_small.saturating_mul(5),
        "EBR backlog should grow ~linearly with churn under a stalled reader \
         ({ebr_small} -> {ebr_large}, expected >= 5x)"
    );
    assert!(
        ebr_small as u64 >= SMALL_CHURN / 2,
        "EBR backlog ({ebr_small}) should retain most of the {SMALL_CHURN} churned nodes"
    );
}

/// Drop-counting payload: verifies that every allocated node is dropped
/// exactly once, whether it is reclaimed by the SMR scheme or freed by the
/// structure's destructor.
#[test]
fn every_node_dropped_exactly_once() {
    // Keys are Copy, so drop-counting cannot live in the key type; instead we
    // rely on the node-level bookkeeping: every successful insert allocates
    // exactly one list node and every node is freed either via SMR
    // reclamation or at list drop.  "Dropped exactly once" is approximated by
    // the domain's unreclaimed counter reaching zero once the list is gone.
    let domain = Hp::new(cfg());
    {
        let list: HarrisList<u64, Hp> = HarrisList::new(domain.clone());
        let mut h = list.handle();
        for i in 0..1000u64 {
            list.insert(&mut h, i);
        }
        for i in (0..1000u64).step_by(3) {
            list.remove(&mut h, &i);
        }
        h.flush();
        drop(h);
        // List dropped here: frees all reachable nodes.
    }
    let mut h = domain.register();
    h.flush();
    drop(h);
    assert_eq!(
        domain.unreclaimed(),
        0,
        "all retired nodes must be reclaimed once the structure is gone"
    );
}

/// Guard-scoped value reads under reclamation churn: a `get` borrow must
/// never observe a torn or freed value, because the guard's protection (the
/// hazard slot / era interval backing the `&'g V`) outlives the borrow.  This
/// is the runtime half of the guard-lifetime argument — the compile-time half
/// lives in the `ConcurrentMap` compile-fail doc-tests.
///
/// Lives in its own module because the `ConcurrentMap` import would otherwise
/// make the set-style calls above ambiguous.
mod value_reads_under_churn {
    use super::cfg;
    use scot::{ConcurrentMap, HarrisList};
    use scot_smr::{Hp, Ibr, Smr, SmrHandle};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Redundantly encoded value: `check` fails on any torn, stale or
    /// recycled read (`b` is the complement of `a`, and `a` encodes the key).
    struct Pair {
        a: u64,
        b: u64,
    }

    impl Pair {
        fn new(key: u64) -> Self {
            let a = key.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            Self { a, b: !a }
        }

        fn check(&self, key: u64) -> bool {
            self.a == (key.wrapping_mul(0x9e3779b97f4a7c15) | 1) && self.b == !self.a
        }
    }

    fn churn<S: Smr>() {
        let domain = S::new(cfg());
        let list: Arc<HarrisList<u64, S, Pair>> = Arc::new(HarrisList::new(domain.clone()));
        let stop = Arc::new(AtomicBool::new(false));
        const KEYS: u64 = 128;
        std::thread::scope(|s| {
            // Two writers: insert/remove the whole key range and flush
            // aggressively so retired nodes are reclaimed (and pool-recycled)
            // while readers still hold guard-scoped borrows.
            for t in 0..2u64 {
                let list = list.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut h = list.handle();
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        let k = i % KEYS;
                        {
                            let mut g = list.pin(&mut h);
                            let _ = list.insert(&mut g, k, Pair::new(k));
                        }
                        {
                            let mut g = list.pin(&mut h);
                            let _ = list.remove(&mut g, &k);
                        }
                        if i.is_multiple_of(64) {
                            h.flush();
                        }
                        i += 1;
                    }
                    h.flush();
                });
            }
            // Four readers: every successful get's value must verify, and the
            // evicted value returned by a successful remove must too.
            for t in 0..4u64 {
                let list = list.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut h = list.handle();
                    let mut x = t + 1;
                    for round in 0..30_000u64 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % KEYS;
                        let mut g = list.pin(&mut h);
                        if let Some(v) = list.get(&mut g, &k) {
                            assert!(
                                v.check(k),
                                "get({k}) observed a torn/freed value \
                                 (a={:#x}, b={:#x}) at round {round}",
                                v.a,
                                v.b
                            );
                        }
                        drop(g);
                        if round == 15_000 && t == 0 {
                            // Half-way through, stop the writers so the test
                            // also covers the quiescent tail.
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
        });
        let mut h = domain.register();
        h.flush();
        drop(h);
        drop(list);
    }

    #[test]
    fn hp_guard_protects_value_borrows() {
        churn::<Hp>();
    }

    #[test]
    fn ibr_guard_protects_value_borrows() {
        churn::<Ibr>();
    }
}

/// Long optimistic traversals against a sweep storm.  Past a fixed number of
/// hops an HP guard stops fencing its hazard publications and leaves the
/// fence to the sweeper (a process-wide barrier, run only when the sweeper
/// sees such a reader — `scot_smr`'s `hp` module docs), so this is the shape
/// in which a missed hazard would show: a list several times longer than that
/// budget, a sweep every fourth retire, and a payload whose destructor
/// poisons it, so a reader still inside a freed — or freed and recycled —
/// node fails its check instead of reading plausible bytes.
mod long_traversals_under_sweep_storm {
    use scot::{ConcurrentMap, HarrisList};
    use scot_smr::{Hp, Smr, SmrConfig};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    const POISON: u64 = 0xdead_dead_dead_dead;
    /// Half of them resident at any time: a lookup walks ~64 nodes on average.
    const KEYS: u64 = 256;
    const OPS_PER_THREAD: u64 = 20_000;

    /// A value that encodes its key twice and counts its construction and its
    /// destruction.  Atomic fields, so that the poisoning stores cannot be
    /// discarded as dead and a racing read would be a failed check, not UB.
    struct Canary {
        stamp: AtomicU64,
        complement: AtomicU64,
        dropped: Arc<AtomicUsize>,
    }

    impl Canary {
        fn new(key: u64, made: &AtomicUsize, dropped: &Arc<AtomicUsize>) -> Self {
            made.fetch_add(1, Ordering::Relaxed);
            let stamp = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            Self {
                stamp: AtomicU64::new(stamp),
                complement: AtomicU64::new(!stamp),
                dropped: dropped.clone(),
            }
        }

        fn verify(&self, key: u64, what: &str) {
            let stamp = self.stamp.load(Ordering::Relaxed);
            let complement = self.complement.load(Ordering::Relaxed);
            assert!(
                stamp == key.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1 && complement == !stamp,
                "{what}({key}) read a freed or recycled value \
                 (stamp={stamp:#x}, complement={complement:#x})"
            );
        }
    }

    impl Drop for Canary {
        fn drop(&mut self) {
            self.stamp.store(POISON, Ordering::Relaxed);
            self.complement.store(POISON, Ordering::Relaxed);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn storm(snapshot_scan: bool) {
        let domain = Hp::new(SmrConfig {
            max_threads: 8,
            scan_threshold: 4,
            snapshot_scan,
            ..SmrConfig::default()
        });
        let list: HarrisList<u64, Hp, Canary> = HarrisList::new(domain.clone());
        let made = AtomicUsize::new(0);
        let dropped = Arc::new(AtomicUsize::new(0));
        {
            let mut h = list.handle();
            for k in (0..KEYS).step_by(2) {
                let mut g = list.pin(&mut h);
                assert!(list
                    .insert(&mut g, k, Canary::new(k, &made, &dropped))
                    .is_ok());
            }
        }
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (list, made, dropped, start) = (&list, &made, &dropped, &start);
                s.spawn(move || {
                    let mut h = list.handle();
                    let mut x = 0x2545_f491_4f6c_dd1d ^ (t + 1);
                    start.wait();
                    for _ in 0..OPS_PER_THREAD {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = (x >> 8) % KEYS;
                        let mut g = list.pin(&mut h);
                        // Two writers, two readers.
                        if t >= 2 {
                            if let Some(v) = list.get(&mut g, &k) {
                                v.verify(k, "get");
                            }
                        } else if x & 1 == 0 {
                            let _ = list.insert(&mut g, k, Canary::new(k, made, dropped));
                        } else if let Some(v) = list.remove(&mut g, &k) {
                            v.verify(k, "remove");
                        }
                    }
                    drop(h);
                });
            }
        });
        let mut h = list.handle();
        h.flush();
        drop(h);
        assert_eq!(
            domain.unreclaimed(),
            0,
            "{}: every retired node reclaimed at quiescence",
            domain.name()
        );
        drop(list);
        assert_eq!(
            dropped.load(Ordering::Relaxed),
            made.load(Ordering::Relaxed),
            "{}: every value destroyed exactly once",
            domain.name()
        );
    }

    #[test]
    fn hp_long_traversals_survive_a_sweep_storm() {
        storm(false);
    }

    #[test]
    fn hpopt_long_traversals_survive_a_sweep_storm() {
        storm(true);
    }
}

/// Skip-list churn under the restricted schemes, with the block pool both on
/// and off: retired towers must stay bounded while threads churn (no
/// accumulation from the multi-level unlink/handshake protocol) and account
/// to exactly zero at quiescence.  This is the acceptance gate for the
/// skip-list's claim of full reclamation-scheme compatibility.
fn skiplist_churn_bounded_and_drained<S: Smr>(pool: bool) {
    let scan_threshold = 16usize;
    let max_threads = 16usize;
    let config = SmrConfig {
        max_threads,
        scan_threshold,
        epoch_freq_per_thread: 1,
        snapshot_scan: false,
        pool_capacity: Some(if pool { 32 } else { 0 }),
    };
    let domain = S::new(config);
    let list: Arc<SkipList<u64, S>> = Arc::new(SkipList::new(domain.clone()));
    const WORKERS: u64 = 4;
    const CHURN: u64 = 1500;
    std::thread::scope(|s| {
        for t in 0..WORKERS {
            let list = list.clone();
            s.spawn(move || {
                let mut h = list.handle();
                for i in 0..CHURN {
                    let k = t * 100_000 + (i % 256);
                    list.insert(&mut h, k);
                    list.remove(&mut h, &k);
                }
                // No final flush here: the backlog assertion below must see
                // whatever the amortized scans left behind.
            });
        }
    });
    // Quiescent (exact) read before any explicit flush: the leftover backlog
    // is at most the robust bound of hazards plus per-thread limbo slack —
    // never proportional to the 4 × 1500 removals the workers performed.
    let bound = scot_smr::MAX_HAZARDS * max_threads + max_threads * scan_threshold;
    let seen = domain.unreclaimed();
    assert!(
        seen <= bound,
        "{} (pool={pool}): churn backlog {seen} exceeds robust bound {bound} \
         (churned {} nodes)",
        domain.name(),
        WORKERS * CHURN
    );
    let mut h = list.handle();
    for _ in 0..4 {
        h.flush();
    }
    drop(h);
    assert_eq!(
        domain.unreclaimed(),
        0,
        "{} (pool={pool}): retired towers must all be reclaimed after quiescence",
        domain.name()
    );
}

#[test]
fn skiplist_churn_bounded_under_hp_with_pool() {
    skiplist_churn_bounded_and_drained::<Hp>(true);
}

#[test]
fn skiplist_churn_bounded_under_hp_without_pool() {
    skiplist_churn_bounded_and_drained::<Hp>(false);
}

#[test]
fn skiplist_churn_bounded_under_ibr_with_pool() {
    skiplist_churn_bounded_and_drained::<Ibr>(true);
}

#[test]
fn skiplist_churn_bounded_under_ibr_without_pool() {
    skiplist_churn_bounded_and_drained::<Ibr>(false);
}

/// Churn-bounded backlog for the checkpoint-protocol schemes: NBR and VBR
/// are *not* robust (a stalled reader can block them, see
/// `SmrKind::is_robust`), but with every thread making progress their
/// cooperative protocols must still keep the backlog independent of the total
/// churn volume — NBR by neutralizing laggards as eras advance, VBR by
/// draining the recycle-queue prefix as the epoch moves.  After quiescence
/// both must account to exactly zero, with the block pool on and off.
fn checkpoint_scheme_churn_bounded_and_drained<S: Smr>(pool: bool) {
    let scan_threshold = 16usize;
    let max_threads = 16usize;
    let config = SmrConfig {
        max_threads,
        scan_threshold,
        epoch_freq_per_thread: 1,
        snapshot_scan: false,
        pool_capacity: Some(if pool { 32 } else { 0 }),
    };
    let domain = S::new(config);
    let list: Arc<SkipList<u64, S>> = Arc::new(SkipList::new(domain.clone()));
    const WORKERS: u64 = 4;
    const CHURN: u64 = 1500;
    std::thread::scope(|s| {
        for t in 0..WORKERS {
            let list = list.clone();
            s.spawn(move || {
                let mut h = list.handle();
                for i in 0..CHURN {
                    let k = t * 100_000 + (i % 256);
                    list.insert(&mut h, k);
                    list.remove(&mut h, &k);
                }
                // No final flush: the backlog assertion must see what the
                // amortized era/epoch advancement left behind.
            });
        }
    });
    // Not the robust H*N bound — the cooperative bound instead: each thread
    // can hold at most a few scan-threshold batches spanning the two-era
    // (two-epoch) reclamation lag.  What matters is churn-independence: 6000
    // retired towers, yet the residue stays within this fixed ceiling.
    let bound = 4 * max_threads * scan_threshold;
    let seen = domain.unreclaimed();
    assert!(
        seen <= bound,
        "{} (pool={pool}): churn backlog {seen} exceeds cooperative bound {bound} \
         (churned {} nodes)",
        domain.name(),
        WORKERS * CHURN
    );
    let mut h = list.handle();
    for _ in 0..4 {
        h.flush();
    }
    drop(h);
    assert_eq!(
        domain.unreclaimed(),
        0,
        "{} (pool={pool}): retired towers must all be reclaimed after quiescence",
        domain.name()
    );
}

#[test]
fn skiplist_churn_bounded_under_nbr_with_pool() {
    checkpoint_scheme_churn_bounded_and_drained::<Nbr>(true);
}

#[test]
fn skiplist_churn_bounded_under_nbr_without_pool() {
    checkpoint_scheme_churn_bounded_and_drained::<Nbr>(false);
}

#[test]
fn skiplist_churn_bounded_under_vbr_with_pool() {
    checkpoint_scheme_churn_bounded_and_drained::<Vbr>(true);
}

#[test]
fn skiplist_churn_bounded_under_vbr_without_pool() {
    checkpoint_scheme_churn_bounded_and_drained::<Vbr>(false);
}

/// The skip list under the remaining reclaiming schemes must also drain to
/// zero at quiescence (the robustness *bound* above is HP/IBR-specific, the
/// no-leak property is universal).
#[test]
fn skiplist_churn_then_quiesce_all_schemes() {
    fn run<S: Smr>() {
        let domain = S::new(cfg());
        let list: Arc<SkipList<u64, S>> = Arc::new(SkipList::new(domain.clone()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let list = list.clone();
                s.spawn(move || {
                    let mut h = list.handle();
                    for i in 0..1000u64 {
                        let k = t * 100_000 + (i % 256);
                        list.insert(&mut h, k);
                        list.remove(&mut h, &k);
                    }
                    h.flush();
                });
            }
        });
        let mut h = list.handle();
        for _ in 0..4 {
            h.flush();
        }
        drop(h);
        assert_eq!(domain.unreclaimed(), 0, "{}", domain.name());
    }
    run::<Ebr>();
    run::<He>();
    run::<Hyaline>();
}

/// The tree must likewise reclaim everything after mixed concurrent churn.
#[test]
fn tree_reclaims_everything_after_concurrent_churn() {
    let domain = Ibr::new(cfg());
    let tree: Arc<NmTree<u64, Ibr>> = Arc::new(NmTree::new(domain.clone()));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let tree = tree.clone();
            s.spawn(move || {
                let mut h = tree.handle();
                for i in 0..1500u64 {
                    let k = t * 7 + (i % 256) * 31;
                    tree.insert(&mut h, k);
                    if i % 2 == 0 {
                        tree.remove(&mut h, &k);
                    }
                }
                h.flush();
            });
        }
    });
    let mut h = tree.handle();
    h.flush();
    drop(h);
    assert_eq!(domain.unreclaimed(), 0);
}
