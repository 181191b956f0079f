//! The key/operation stream: a pure function of (seed, thread, repetition).

use crate::spec::Workload;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OpClass {
    #[default]
    Get,
    Insert,
    Remove,
}

impl OpClass {
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Get => "get",
            OpClass::Insert => "insert",
            OpClass::Remove => "remove",
        }
    }
}

/// Stream ids that are not worker threads.
pub const PREFILL_STREAM: u64 = 1 << 32;
pub const ORACLE_STREAM: u64 = 2 << 32;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// xorshift64* with one draw per operation: the high half picks the key, the
/// low half the operation class, so the two stay independent.
#[derive(Clone, Debug)]
pub struct OpStream {
    state: u64,
    keys: u64,
    get_below: u64,
    insert_below: u64,
}

impl OpStream {
    /// Repetition `rep` of a run draws from `seed + rep`.
    pub fn new(seed: u64, stream: u64, rep: u64, w: &Workload) -> Self {
        let state = splitmix(splitmix(seed.wrapping_add(rep)) ^ stream.wrapping_add(1));
        OpStream {
            state: state | 1,
            keys: w.keys,
            get_below: w.get_pct,
            insert_below: w.get_pct + w.insert_pct,
        }
    }

    #[inline(always)]
    pub fn next_op(&mut self) -> (OpClass, u64) {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let key = ((r >> 32) * self.keys) >> 32;
        let pct = ((r & 0xFFFF_FFFF) * 100) >> 32;
        let class = if pct < self.get_below {
            OpClass::Get
        } else if pct < self.insert_below {
            OpClass::Insert
        } else {
            OpClass::Remove
        };
        (class, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn draw(seed: u64, stream: u64, rep: u64, n: usize) -> Vec<(OpClass, u64)> {
        let mut s = OpStream::new(seed, stream, rep, &WORKLOADS[0]);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn stream_is_a_pure_function_of_seed_thread_rep() {
        assert_eq!(draw(42, 0, 0, 1000), draw(42, 0, 0, 1000));
        assert_ne!(draw(42, 0, 0, 1000), draw(43, 0, 0, 1000));
        assert_ne!(draw(42, 0, 0, 1000), draw(42, 1, 0, 1000));
        assert_ne!(draw(42, 0, 0, 1000), draw(42, 0, 1, 1000));
        // Repetition r of seed s is repetition 0 of seed s + r.
        assert_eq!(draw(42, 1, 3, 1000), draw(45, 1, 0, 1000));
    }

    #[test]
    fn keys_stay_in_range_and_the_mix_is_respected() {
        for w in &WORKLOADS {
            let mut s = OpStream::new(7, 0, 0, w);
            let mut counts = [0u64; 3];
            let n = 200_000;
            for _ in 0..n {
                let (class, key) = s.next_op();
                assert!(key < w.keys);
                counts[class as usize] += 1;
            }
            let want = [w.get_pct, w.insert_pct, w.remove_pct()];
            for (got, want) in counts.iter().zip(want) {
                let pct = *got as f64 * 100.0 / n as f64;
                assert!(
                    (pct - want as f64).abs() < 1.0,
                    "{}: {pct} vs {want}",
                    w.name
                );
            }
        }
    }
}
