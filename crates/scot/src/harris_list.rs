//! Harris' lock-free ordered list with **SCOT** safe optimistic traversals
//! (paper §2.4, §3.2, Figure 5).
//!
//! Harris' list performs *logical* deletion by tagging the victim's `next`
//! pointer and defers the *physical* unlink: a later traversal removes a whole
//! chain of consecutively marked nodes with a single CAS, and `Search` simply
//! skips over marked nodes.  This is what makes it faster than the
//! Harris-Michael variant — fewer CAS operations and almost no restarts
//! (Table 2 of the paper) — but it is exactly what breaks hazard-pointer-style
//! reclamation: a traversal can step from a marked node to a successor that
//! has already been unlinked *and reclaimed* by someone else (Figure 2).
//!
//! SCOT's fix (§3.1): while traversing a chain of marked nodes (the
//! *dangerous zone*) keep one extra hazard slot on the **first unsafe node**
//! and, before every step deeper into the zone, validate that the **last safe
//! node still points at it**.  If the validation fails the chain may have been
//! unlinked, so the traversal either escapes to the last safe node's new
//! successor (§3.2.1 recovery) or restarts from the head.
//!
//! That protect → validate → recover loop is not implemented here: it lives,
//! exactly once, in [`crate::traverse`] as the `Cursor`.  Nor is the list:
//! [`HarrisList`] is the SCOT instantiation (`EAGER = false`) of the one list
//! core in [`crate::list`], which it shares with
//! [`crate::HarrisMichaelList`], the [`crate::HashMap`] buckets and
//! [`crate::WfHarrisList`].

/// Harris' ordered map with SCOT traversals, parameterized by the reclamation
/// scheme.  The value type defaults to `()`, which is the membership-set
/// configuration the paper benchmarks (see [`crate::ConcurrentSet`]).
///
/// ```
/// use scot::{ConcurrentMap, HarrisList};
/// use scot_smr::{Hp, Smr, SmrConfig};
///
/// let list: HarrisList<u64, Hp, &'static str> =
///     HarrisList::new(Hp::new(SmrConfig::default()));
/// let mut handle = ConcurrentMap::handle(&list);
/// let mut guard = list.pin(&mut handle);
/// assert!(list.insert(&mut guard, 7, "seven").is_ok());
/// assert_eq!(list.get(&mut guard, &7).copied(), Some("seven"));
/// // A conflicting insert hands the rejected value back.
/// assert_eq!(list.insert(&mut guard, 7, "again"), Err("again"));
/// // Remove returns one last guard-protected borrow of the evicted value.
/// assert_eq!(list.remove(&mut guard, &7).copied(), Some("seven"));
/// assert!(list.get(&mut guard, &7).is_none());
/// ```
///
/// Guard-scoped range scans come from the shared cursor as well:
///
/// ```
/// use scot::{ConcurrentMap, HarrisList, RangeScan};
/// use scot_smr::{Ibr, Smr, SmrConfig};
///
/// let list: HarrisList<u64, Ibr, u64> = HarrisList::new(Ibr::new(SmrConfig::default()));
/// let mut handle = ConcurrentMap::handle(&list);
/// let mut guard = list.pin(&mut handle);
/// for k in 0..10 {
///     list.insert(&mut guard, k, k * k).unwrap();
/// }
/// let mut scan = list.range(&mut guard, 3..7);
/// let mut seen = Vec::new();
/// while let Some((k, v)) = scan.next_entry() {
///     seen.push((k, *v));
/// }
/// assert_eq!(seen, vec![(3, 9), (4, 16), (5, 25), (6, 36)]);
/// ```
pub type HarrisList<K, S, V = ()> = crate::list::List<K, S, V, false>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::tests::{self as shared, cfg};
    use crate::ConcurrentSet;
    use scot_smr::{Ebr, Hp, Smr};
    use std::sync::Arc;

    #[test]
    fn basic_semantics_under_every_scheme() {
        shared::basic_semantics_under_every_scheme::<false>();
    }

    #[test]
    fn keys_stay_sorted_and_unique() {
        let list: HarrisList<u32, Hp> = HarrisList::with_config(cfg());
        let mut h = list.handle();
        for k in [5u32, 1, 9, 3, 7, 3, 9, 0] {
            list.insert(&mut h, k);
        }
        let keys = list.collect_keys(&mut h);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted);
        assert_eq!(keys, vec![0, 1, 3, 5, 7, 9]);
    }

    #[test]
    fn interleaved_insert_remove_sequence() {
        let list: HarrisList<u64, Ebr> = HarrisList::with_config(cfg());
        let mut h = list.handle();
        for i in 0..200u64 {
            assert!(list.insert(&mut h, i));
        }
        for i in (0..200u64).step_by(2) {
            assert!(list.remove(&mut h, &i));
        }
        for i in 0..200u64 {
            assert_eq!(list.contains(&mut h, &i), i % 2 == 1, "key {i}");
        }
        assert_eq!(list.collect_keys(&mut h).len(), 100);
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let list: Arc<HarrisList<u64, Hp>> = Arc::new(HarrisList::with_config(cfg()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let list = list.clone();
                s.spawn(move || {
                    let mut h = list.handle();
                    for i in 0..200u64 {
                        assert!(list.insert(&mut h, t * 1000 + i));
                    }
                });
            }
        });
        let mut h = list.handle();
        for t in 0..4u64 {
            for i in 0..200u64 {
                assert!(list.contains(&mut h, &(t * 1000 + i)));
            }
        }
        assert_eq!(list.collect_keys(&mut h).len(), 800);
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        shared::concurrent_mixed_workload_is_consistent::<false>();
    }

    #[test]
    fn all_retired_nodes_are_reclaimed_after_quiescence() {
        let domain = Hp::new(cfg());
        let list: Arc<HarrisList<u64, Hp>> = Arc::new(HarrisList::new(domain.clone()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let list = list.clone();
                s.spawn(move || {
                    let mut h = list.handle();
                    for i in 0..500 {
                        let k = t * 10_000 + i;
                        list.insert(&mut h, k);
                        list.remove(&mut h, &k);
                    }
                    h.flush();
                });
            }
        });
        let mut h = list.handle();
        h.flush();
        drop(h);
        assert_eq!(
            domain.unreclaimed(),
            0,
            "no retired node may remain once quiescent"
        );
    }

    mod map_api {
        use super::cfg;
        use crate::{ConcurrentMap, HarrisList};
        use scot_smr::Hp;

        #[test]
        fn values_round_trip_and_conflicts_hand_values_back() {
            let list: HarrisList<u64, Hp, String> = HarrisList::with_config(cfg());
            let mut h = list.handle();
            {
                let mut g = list.pin(&mut h);
                assert!(list.insert(&mut g, 1, "one".to_string()).is_ok());
                assert_eq!(
                    list.insert(&mut g, 1, "uno".to_string()),
                    Err("uno".to_string()),
                    "conflicting insert must hand the rejected value back"
                );
                assert_eq!(list.get(&mut g, &1).map(String::as_str), Some("one"));
                assert!(list.get(&mut g, &2).is_none());
                assert_eq!(
                    list.remove(&mut g, &1).map(String::as_str),
                    Some("one"),
                    "remove must expose the evicted value under the guard"
                );
                assert!(list.remove(&mut g, &1).is_none());
            }
            assert!(list.collect(&mut h).is_empty());
        }

        #[test]
        fn collect_returns_sorted_entries() {
            let list: HarrisList<u32, Hp, u32> = HarrisList::with_config(cfg());
            let mut h = list.handle();
            for k in [5u32, 1, 9, 3] {
                let mut g = list.pin(&mut h);
                assert!(list.insert(&mut g, k, k * 10).is_ok());
            }
            assert_eq!(
                list.collect(&mut h),
                vec![(1, 10), (3, 30), (5, 50), (9, 90)]
            );
        }
    }

    mod range_api {
        use super::cfg;
        use crate::{ConcurrentMap, HarrisList, RangeScan};
        use scot_smr::Hp;

        #[test]
        fn range_yields_sorted_window_and_iter_from_runs_to_end() {
            let list: HarrisList<u64, Hp, u64> = HarrisList::with_config(cfg());
            let mut h = list.handle();
            let mut g = list.pin(&mut h);
            for k in (0..50u64).rev() {
                list.insert(&mut g, k, k + 100).unwrap();
            }
            let mut scan = list.range(&mut g, 10..15);
            let mut seen = Vec::new();
            while let Some((k, v)) = scan.next_entry() {
                seen.push((k, *v));
            }
            assert_eq!(seen, (10..15).map(|k| (k, k + 100)).collect::<Vec<_>>());
            #[allow(clippy::drop_non_drop)] // ends the scan's guard borrow
            drop(scan);
            let mut tail = list.iter_from(&mut g, 47);
            let mut seen = Vec::new();
            while let Some((k, _)) = tail.next_entry() {
                seen.push(k);
            }
            assert_eq!(seen, vec![47, 48, 49]);
        }

        #[test]
        #[allow(clippy::reversed_empty_ranges)] // inverted windows are the point
        fn empty_and_inverted_windows_yield_nothing() {
            let list: HarrisList<u64, Hp, u64> = HarrisList::with_config(cfg());
            let mut h = list.handle();
            let mut g = list.pin(&mut h);
            for k in 0..10u64 {
                list.insert(&mut g, k, k).unwrap();
            }
            assert!(list.range(&mut g, 3..3).next_entry().is_none());
            assert!(list.range(&mut g, 7..3).next_entry().is_none());
            assert!(list.range(&mut g, 100..200).next_entry().is_none());
        }
    }

    #[test]
    fn restart_counter_stays_zero_single_threaded() {
        let list: HarrisList<u64, Hp> = HarrisList::with_config(cfg());
        let mut h = list.handle();
        for i in 0..100 {
            list.insert(&mut h, i);
        }
        for i in 0..100 {
            list.remove(&mut h, &i);
        }
        assert_eq!(crate::ConcurrentMap::traversal_stats(&list).restarts, 0);
    }
}
