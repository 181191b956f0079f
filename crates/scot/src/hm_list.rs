//! The Harris-Michael lock-free ordered list (Michael 2002) — the baseline the
//! paper compares SCOT against (paper §2.4, "Why Michael's Approach Works").
//!
//! Michael's modification of Harris' list makes it compatible with hazard
//! pointers out of the box: whenever a traversal encounters a logically
//! deleted node it **immediately** attempts to unlink that single node and, if
//! the unlink CAS fails, restarts the whole traversal from the head.  The
//! successor of a marked node is therefore never traversed, which is exactly
//! the property plain HP needs — and exactly what costs performance: more CAS
//! operations under contention and a restart rate that grows with the thread
//! count (the paper's Table 2 measures 8.19% restarts at 256 threads versus
//! ≈0% for Harris' list with SCOT).
//!
//! The hazard-slot roles are the classic three: `Hp0` = next, `Hp1` = curr,
//! `Hp2` = prev (see [`crate::slots`]).  No dangerous zone ever forms, so no
//! anchor slot is needed — the shared `crate::traverse::Cursor` runs in its
//! `ZoneMode::Eager` for this list, where a marked node is unlinked on the
//! spot instead of validated past.  That mode is the whole difference:
//! [`HarrisMichaelList`] is the eager instantiation (`EAGER = true`) of the
//! one list core in [`crate::list`], with no code of its own.

/// Harris-Michael ordered map, parameterized by the reclamation scheme.  As
/// with every structure in this crate, `V = ()` (the default) gives the
/// membership set the paper benchmarks.
///
/// ```
/// use scot::{ConcurrentSet, HarrisMichaelList};
/// use scot_smr::{Hp, Smr, SmrConfig};
///
/// let list: HarrisMichaelList<u64, Hp> =
///     HarrisMichaelList::new(Hp::new(SmrConfig::default()));
/// let mut h = list.handle();
/// assert!(list.insert(&mut h, 1));
/// assert!(list.remove(&mut h, &1));
/// ```
pub type HarrisMichaelList<K, S, V = ()> = crate::list::List<K, S, V, true>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::tests::{self as shared, cfg};
    use crate::{ConcurrentSet, HarrisList, HashMap, WfHarrisList};
    use scot_smr::{Ebr, He, Hp, Hyaline, Ibr, Nbr, Nr, Smr, Vbr};

    #[test]
    fn basic_semantics_under_every_scheme() {
        shared::basic_semantics_under_every_scheme::<true>();
    }

    #[test]
    fn marked_nodes_are_unlinked_during_traversal() {
        // After removing interior keys, a subsequent contains() physically
        // cleans the list; all removed nodes must end up retired.
        let domain = Hp::new(cfg());
        let list: HarrisMichaelList<u64, Hp> = HarrisMichaelList::new(domain.clone());
        let mut h = list.handle();
        for i in 0..64 {
            list.insert(&mut h, i);
        }
        for i in 0..64 {
            if i % 2 == 0 {
                list.remove(&mut h, &i);
            }
        }
        // Traverse to the end to trigger any remaining cleanup.
        assert!(!list.contains(&mut h, &1000));
        h.flush();
        drop(h);
        assert_eq!(domain.unreclaimed(), 0);
        let mut h = list.handle();
        assert_eq!(list.collect_keys(&mut h).len(), 32);
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        shared::concurrent_mixed_workload_is_consistent::<true>();
    }

    /// Replays the 5 000-op xorshift tape on `set`, recording every result.
    fn replay<M: ConcurrentSet<u32>>(set: M) -> (Vec<bool>, Vec<u32>) {
        let mut h = set.handle();
        let mut x = 0xdeadbeefu64;
        let mut results = Vec::with_capacity(5000);
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 128) as u32;
            results.push(match x % 3 {
                0 => set.insert(&mut h, key),
                1 => set.remove(&mut h, &key),
                _ => set.contains(&mut h, &key),
            });
        }
        let keys = set.collect_keys(&mut h);
        (results, keys)
    }

    #[test]
    fn agreement_with_harris_list_on_random_sequence() {
        // One tape, every list-backed structure, every scheme: per-op results
        // and the final key set must equal the Harris list's under HP.
        fn all_structures<S: Smr>(want: &(Vec<bool>, Vec<u32>)) {
            let name = std::any::type_name::<S>();
            assert_eq!(
                &replay(HarrisList::<u32, S>::with_config(cfg())),
                want,
                "HList/{name}"
            );
            assert_eq!(
                &replay(HarrisMichaelList::<u32, S>::with_config(cfg())),
                want,
                "HMList/{name}"
            );
            assert_eq!(
                &replay(WfHarrisList::<u32, S>::with_config(cfg())),
                want,
                "WFList/{name}"
            );
            for buckets in [1, 7] {
                assert_eq!(
                    &replay(HashMap::<u32, S>::with_config(buckets, cfg())),
                    want,
                    "HashMap({buckets})/{name}"
                );
            }
        }
        let want = replay(HarrisList::<u32, Hp>::with_config(cfg()));
        assert!(want.0.iter().any(|&r| r) && !want.1.is_empty());
        all_structures::<Nr>(&want);
        all_structures::<Ebr>(&want);
        all_structures::<Hp>(&want);
        all_structures::<He>(&want);
        all_structures::<Ibr>(&want);
        all_structures::<Hyaline>(&want);
        all_structures::<Nbr>(&want);
        all_structures::<Vbr>(&want);
    }
}
