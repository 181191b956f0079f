//! Reclamation-aware block pool.
//!
//! Once limbo scans are amortized, a global-allocator round-trip per node is
//! one of the hot-path costs of every scheme's `alloc`/`retire` (the
//! observation behind DEBRA's and Hyaline's engineering): `malloc`/`free`
//! take locks or touch shared arena state on every operation of a
//! write-heavy workload.  The other one, shared state on the retire path, is
//! the retire core's: each slot's vault and its share of the `unreclaimed`
//! count sit in one cache-padded record with one writer at a time
//! (`limbo::SlotRetire`).
//!
//! [`BlockPool`] removes the allocator round-trip: every scheme handle owns
//! a bounded free-list of dead blocks, binned by allocation [`Layout`],
//! recycled in LIFO order (so reused blocks come back cache-warm).  The list
//! is intrusive — it threads through the dead blocks' own `Header::next`
//! fields — so the pool itself allocates nothing on the fast path.  When a
//! handle's pool fills up (a thread that frees more than it allocates, e.g.
//! the lucky acknowledger under Hyaline's any-thread freeing), it spills half
//! a bin at a time into the domain-shared [`PoolShared`] overflow, where
//! allocation-heavy threads refill from.  Both layers are bounded: the
//! overflow caps at `pool_capacity × max_threads` blocks and everything
//! beyond that is returned to the global allocator, so total pooled memory
//! never exceeds `2 × pool_capacity × max_threads` blocks per domain.

use crate::block::{alloc_fresh, Block, Parked};
use core::alloc::Layout;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One free list of identically-laid-out parked blocks, threaded
/// intrusively through `Header::next`.
struct Bin {
    layout: Layout,
    head: Option<Parked>,
    len: usize,
}

impl Bin {
    #[inline]
    fn push(&mut self, block: Parked) {
        block.push_onto(&mut self.head);
        self.len += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<Parked> {
        let block = Parked::pop_from(&mut self.head)?;
        self.len -= 1;
        Some(block)
    }
}

/// One layout's parked blocks inside the shared overflow.
struct OverflowBin {
    layout: Layout,
    blocks: Vec<Parked>,
}

/// Domain-shared overflow tier of the block pool.
///
/// Absorbs the imbalance between threads that free more than they allocate
/// and threads that allocate more than they free, so per-handle pool capacity
/// is never stranded on the wrong thread.  Guarded by a mutex, but touched
/// only when a handle's local pool over- or under-flows — once per
/// `pool_capacity / 2` operations in the worst case, not per operation.
/// Parked blocks are binned by layout so a refill is one `split_off` from the
/// matching bin, never a scan of foreign layouts.
pub struct PoolShared {
    overflow: Mutex<Vec<OverflowBin>>,
    /// Total blocks across all overflow bins, maintained under the lock, so
    /// empty-pool allocations can skip the mutex entirely with one relaxed
    /// load (the common case while a workload is still growing).
    overflow_count: AtomicUsize,
    /// Maximum blocks held across the overflow bins; the excess is
    /// deallocated, keeping domain-wide pooled memory bounded.
    max_overflow: usize,
}

impl PoolShared {
    /// Creates the shared overflow for a domain: `capacity` is the per-handle
    /// pool capacity, `max_threads` the domain's slot count.
    pub fn new(capacity: usize, max_threads: usize) -> Arc<Self> {
        Arc::new(Self {
            overflow: Mutex::new(Vec::new()),
            overflow_count: AtomicUsize::new(0),
            max_overflow: capacity.saturating_mul(max_threads.max(1)),
        })
    }

    /// Number of blocks currently parked in the overflow tier.
    pub fn overflow_len(&self) -> usize {
        // ORDERING: Relaxed — statistics/fast-path hint only; the authoritative
        // count is re-read under the overflow mutex by `park`/`take`.
        self.overflow_count.load(Ordering::Relaxed)
    }

    /// Parks `blocks`, all of `layout`, in the overflow, deallocating
    /// whatever exceeds the overflow bound.  The single write-side entry
    /// point, shared by [`BlockPool::spill`] and [`BlockPool::drop`] so the
    /// count mirror and the bound live in one place.
    fn park(&self, layout: Layout, mut blocks: Vec<Parked>) {
        if blocks.is_empty() {
            return;
        }
        let mut overflow = self.overflow.lock();
        // ORDERING: Relaxed — `overflow_count` is only *written* under the
        // overflow mutex (held here), so this read observes the latest value;
        // the mutex provides the synchronization.
        let total = self.overflow_count.load(Ordering::Relaxed);
        let keep = blocks.len().min(self.max_overflow.saturating_sub(total));
        let idx = match overflow.iter().position(|b| b.layout == layout) {
            Some(i) => i,
            None => {
                overflow.push(OverflowBin {
                    layout,
                    blocks: Vec::new(),
                });
                overflow.len() - 1
            }
        };
        overflow[idx].blocks.extend(blocks.drain(..keep));
        // ORDERING: Relaxed — written under the overflow mutex; readers that
        // need the exact value (park/take) also hold the mutex, and the
        // lock-free empty-check in `refill` tolerates staleness.
        self.overflow_count.store(total + keep, Ordering::Relaxed);
        drop(overflow);
        blocks.into_iter().for_each(Parked::dealloc);
    }

    /// Takes up to `want` parked blocks of `layout`.  Returns an empty vector
    /// when the overflow is contended (`try_lock`) or holds no such layout —
    /// in either case the caller falls through to the global allocator.
    fn take(&self, layout: Layout, want: usize) -> Vec<Parked> {
        let Some(mut overflow) = self.overflow.try_lock() else {
            return Vec::new();
        };
        let Some(bin) = overflow.iter_mut().find(|b| b.layout == layout) else {
            return Vec::new();
        };
        let n = bin.blocks.len().min(want);
        let taken = bin.blocks.split_off(bin.blocks.len() - n);
        // ORDERING: Relaxed — updated under the overflow mutex; see `park`.
        self.overflow_count.fetch_sub(n, Ordering::Relaxed);
        taken
    }
}

impl Drop for PoolShared {
    fn drop(&mut self) {
        for bin in self.overflow.lock().drain(..) {
            bin.blocks.into_iter().for_each(Parked::dealloc);
        }
    }
}

/// Per-handle (thread-local) tier of the block pool.
///
/// Not `Sync`: exactly one worker thread owns each pool, mirroring the scheme
/// handles that embed it.  `capacity == 0` disables pooling entirely — every
/// call degenerates to the global allocator, which is the pool-off arm of the
/// `exp pool` ablation.
pub struct BlockPool {
    shared: Arc<PoolShared>,
    /// Free lists binned by layout.  Real workloads see one or two distinct
    /// node layouts per domain, so linear search beats any map.
    bins: Vec<Bin>,
    /// Maximum blocks cached locally across all bins.
    capacity: usize,
    /// Current total across all bins.
    len: usize,
}

impl BlockPool {
    /// Creates a pool bounded at `capacity` blocks, spilling into `shared`.
    pub fn new(shared: Arc<PoolShared>, capacity: usize) -> Self {
        Self {
            shared,
            bins: Vec::new(),
            capacity,
            len: 0,
        }
    }

    /// Maximum number of blocks this pool may cache locally.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of blocks currently cached locally.
    pub fn cached(&self) -> usize {
        self.len
    }

    #[inline]
    fn bin_index(&mut self, layout: Layout) -> usize {
        if let Some(i) = self.bins.iter().position(|b| b.layout == layout) {
            return i;
        }
        self.bins.push(Bin {
            layout,
            head: None,
            len: 0,
        });
        self.bins.len() - 1
    }

    /// Allocates a block holding `value`, its header stamped with
    /// `birth_era`, reusing a cached block of the same layout when one is
    /// available (local bin first, then a batched refill from the shared
    /// overflow, then the global allocator).
    ///
    /// A reused block keeps its recycling-incarnation stamp
    /// ([`crate::block::Header::version`]) across the reinitialization,
    /// incremented by one — the stamp survives parking in either pool tier,
    /// so it counts every reuse of the raw memory since the original
    /// allocation.  VBR's version re-check relies on this monotonicity.
    pub fn alloc<T>(&mut self, value: T, birth_era: u64) -> *mut T {
        if self.capacity == 0 {
            return alloc_fresh(value, birth_era);
        }
        let bin = self.bin_index(Layout::new::<Block<T>>());
        let block = match self.bins[bin].pop() {
            Some(block) => block,
            None if self.refill(bin) => self.bins[bin].pop().expect("refilled"),
            None => return alloc_fresh(value, birth_era),
        };
        self.len -= 1;
        block.reinit(value, birth_era)
    }

    /// Recycles a block whose payload was just dropped: into a local bin
    /// while below capacity, spilling half a bin to the shared overflow when
    /// full, and falling through to the global allocator only once both tiers
    /// are at their bounds.
    pub(crate) fn recycle(&mut self, block: Parked) {
        if self.capacity == 0 {
            return block.dealloc();
        }
        if self.len >= self.capacity {
            self.spill();
        }
        if self.len >= self.capacity {
            // Overflow tier was full too: give the block back for real.
            return block.dealloc();
        }
        let bin = self.bin_index(block.layout());
        self.bins[bin].push(block);
        self.len += 1;
    }

    /// Moves up to half the local capacity from the fullest bin into the
    /// shared overflow; blocks that do not fit under the overflow bound are
    /// deallocated.  One lock acquisition amortizes `capacity / 2` frees.
    fn spill(&mut self) {
        let Some(bin) = self
            .bins
            .iter_mut()
            .max_by_key(|b| b.len)
            .filter(|b| b.len > 0)
        else {
            return;
        };
        let want = (self.capacity / 2).max(1).min(bin.len);
        let moved: Vec<Parked> = std::iter::from_fn(|| bin.pop()).take(want).collect();
        self.len -= moved.len();
        self.shared.park(bin.layout, moved);
    }

    /// Pulls up to half the local capacity of `layout`-compatible blocks from
    /// the shared overflow into the given bin.  Returns whether anything was
    /// transferred.  Skips the mutex entirely while the overflow is empty
    /// (one relaxed load), and uses `try_lock` otherwise: under contention
    /// the global allocator is cheaper than serializing on the mutex.
    fn refill(&mut self, bin: usize) -> bool {
        // ORDERING: Relaxed — empty-check fast path; a stale non-zero just
        // costs a `try_lock`, a stale zero falls through to the global
        // allocator.  Block handoff synchronizes via the overflow mutex.
        if self.shared.overflow_count.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let want = (self.capacity / 2).max(1);
        let taken = self.shared.take(self.bins[bin].layout, want);
        self.len += taken.len();
        let refilled = !taken.is_empty();
        taken
            .into_iter()
            .for_each(|block| self.bins[bin].push(block));
        refilled
    }
}

impl Drop for BlockPool {
    fn drop(&mut self) {
        // Park everything in the overflow so capacity survives thread churn;
        // whatever exceeds the overflow bound goes back to the allocator.
        for bin in &mut self.bins {
            let moved: Vec<Parked> = std::iter::from_fn(|| bin.pop()).collect();
            self.shared.park(bin.layout, moved);
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{alloc_block, version_of, Retired};
    use crate::ptr::Shared;
    use std::sync::atomic::AtomicUsize;

    /// Frees a block the test allocated and never shared into `pool`.
    fn free<T>(pool: &mut BlockPool, ptr: *mut T) {
        // SAFETY: every test block is owned by the test alone and freed once.
        unsafe { Retired::new(Shared::from_ptr(ptr)).reclaimable() }.free_into(pool);
    }

    fn version<T>(ptr: *mut T) -> u64 {
        // SAFETY: the block is live and owned by the test.
        unsafe { version_of(Shared::from_ptr(ptr)) }
    }

    fn pool(capacity: usize, max_threads: usize) -> (Arc<PoolShared>, BlockPool) {
        let shared = PoolShared::new(capacity, max_threads);
        let pool = BlockPool::new(shared.clone(), capacity);
        (shared, pool)
    }

    #[test]
    fn alloc_free_recycles_the_same_memory() {
        let (_shared, mut pool) = pool(8, 1);
        let a = pool.alloc(1u64, 0);
        let addr = a as usize;
        free(&mut pool, a);
        assert_eq!(pool.cached(), 1);
        let b = pool.alloc(2u64, 0);
        assert_eq!(b as usize, addr, "LIFO reuse of the freed block");
        assert_eq!(pool.cached(), 0);
        free(&mut pool, b);
    }

    #[test]
    fn local_pool_never_exceeds_capacity() {
        let (shared, mut pool) = pool(4, 1);
        let blocks: Vec<*mut u64> = (0..32).map(|i| pool.alloc(i as u64, 0)).collect();
        for b in blocks {
            free(&mut pool, b);
        }
        assert!(
            pool.cached() <= pool.capacity(),
            "cached {} > capacity {}",
            pool.cached(),
            pool.capacity()
        );
        // Spilled blocks land in the (bounded) overflow.
        assert!(shared.overflow_len() <= 4, "overflow exceeds its bound");
    }

    #[test]
    fn overflow_bound_is_respected_and_excess_is_deallocated() {
        let shared = PoolShared::new(2, 2); // max_overflow = 4
        let mut pool = BlockPool::new(shared.clone(), 2);
        let blocks: Vec<*mut u64> = (0..64).map(|i| pool.alloc(i as u64, 0)).collect();
        for b in blocks {
            free(&mut pool, b);
        }
        assert!(pool.cached() <= 2);
        assert!(shared.overflow_len() <= 4);
    }

    #[test]
    fn cross_pool_transfer_through_overflow() {
        let shared = PoolShared::new(8, 4);
        let mut producer = BlockPool::new(shared.clone(), 8);
        let mut consumer = BlockPool::new(shared.clone(), 8);
        // Producer frees blocks it never reuses; its pool fills and spills.
        let blocks: Vec<*mut u64> = (0..32).map(|i| producer.alloc(i as u64, 0)).collect();
        for b in blocks {
            free(&mut producer, b);
        }
        assert!(shared.overflow_len() > 0, "producer must have spilled");
        // Consumer starts empty and must refill from the overflow.
        let before = shared.overflow_len();
        let c = consumer.alloc(7u64, 0);
        assert!(
            shared.overflow_len() < before,
            "consumer must refill from the shared overflow"
        );
        free(&mut consumer, c);
    }

    #[test]
    fn zero_capacity_disables_pooling() {
        let (shared, mut pool) = pool(0, 1);
        let a = pool.alloc(1u64, 0);
        free(&mut pool, a);
        assert_eq!(pool.cached(), 0);
        assert_eq!(shared.overflow_len(), 0);
    }

    #[test]
    fn destructors_run_exactly_once_under_recycling() {
        struct DropCounter(Arc<AtomicUsize>);
        impl Drop for DropCounter {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let count = Arc::new(AtomicUsize::new(0));
        let (_shared, mut pool) = pool(4, 1);
        const ROUNDS: usize = 100;
        for _ in 0..ROUNDS {
            let p = pool.alloc(DropCounter(count.clone()), 0);
            free(&mut pool, p);
        }
        assert_eq!(count.load(Ordering::SeqCst), ROUNDS);
    }

    #[test]
    fn mixed_layouts_use_separate_bins() {
        let (_shared, mut pool) = pool(8, 1);
        let small = pool.alloc(1u64, 0);
        let big = pool.alloc([0u8; 128], 0);
        let small_addr = small as usize;
        let big_addr = big as usize;
        free(&mut pool, small);
        free(&mut pool, big);
        assert_eq!(pool.cached(), 2);
        // Each type gets back its own layout's memory, never the other's.
        let big2 = pool.alloc([1u8; 128], 0);
        let small2 = pool.alloc(2u64, 0);
        assert_eq!(big2 as usize, big_addr);
        assert_eq!(small2 as usize, small_addr);
        free(&mut pool, small2);
        free(&mut pool, big2);
    }

    #[test]
    fn pool_drop_parks_blocks_in_overflow() {
        let shared = PoolShared::new(4, 2);
        {
            let mut p = BlockPool::new(shared.clone(), 4);
            let blocks: Vec<*mut u64> = (0..4).map(|i| p.alloc(i as u64, 0)).collect();
            for b in blocks {
                free(&mut p, b);
            }
            assert_eq!(p.cached(), 4);
        }
        assert_eq!(shared.overflow_len(), 4, "handle capacity must survive");
    }

    #[test]
    fn pool_accepts_blocks_allocated_outside_it() {
        // Sweeps free whatever sits in the limbo list, including blocks that
        // were allocated by a different handle or before pooling kicked in.
        let (_shared, mut pool) = pool(4, 1);
        let raw = alloc_block(9u64);
        free(&mut pool, raw);
        assert_eq!(pool.cached(), 1);
        let back = pool.alloc(10u64, 0);
        assert_eq!(back as usize, raw as usize);
        free(&mut pool, back);
    }

    #[test]
    fn version_stamp_counts_recycling_incarnations() {
        let (_shared, mut pool) = pool(8, 1);
        let a = pool.alloc(1u64, 0);
        assert_eq!(version(a), 0, "fresh block");
        free(&mut pool, a);
        let b = pool.alloc(2u64, 0);
        assert_eq!(b as usize, a as usize, "must reuse the same memory");
        assert_eq!(version(b), 1);
        free(&mut pool, b);
        let c = pool.alloc(3u64, 0);
        assert_eq!(version(c), 2);
        free(&mut pool, c);
    }

    #[test]
    fn version_stamp_survives_the_overflow_tier() {
        let shared = PoolShared::new(8, 4);
        let mut producer = BlockPool::new(shared.clone(), 8);
        let mut consumer = BlockPool::new(shared.clone(), 8);
        // One recycle through the producer gives the block version 1, then
        // its drop parks everything in the shared overflow.
        let a = producer.alloc(1u64, 0);
        free(&mut producer, a);
        let b = producer.alloc(2u64, 0);
        assert_eq!(version(b), 1);
        free(&mut producer, b);
        drop(producer);
        // The consumer refills from the overflow; the stamp keeps counting.
        let c = consumer.alloc(3u64, 0);
        assert_eq!(c as usize, b as usize);
        assert_eq!(version(c), 2);
        free(&mut consumer, c);
    }

    #[test]
    fn concurrent_spill_and_refill_is_safe() {
        let shared = PoolShared::new(16, 8);
        std::thread::scope(|s| {
            for t in 0..4 {
                let shared = shared.clone();
                s.spawn(move || {
                    let mut pool = BlockPool::new(shared, 16);
                    for i in 0..2000u64 {
                        let p = pool.alloc(t as u64 * 1_000_000 + i, 0);
                        free(&mut pool, p);
                        if i % 7 == 0 {
                            // Burst of allocations to force refills.
                            let burst: Vec<*mut u64> =
                                (0..8).map(|j| pool.alloc(j as u64, 0)).collect();
                            for b in burst {
                                free(&mut pool, b);
                            }
                        }
                    }
                });
            }
        });
        assert!(shared.overflow_len() <= 16 * 8);
    }
}
