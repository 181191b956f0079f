//! NR — no reclamation.
//!
//! The paper's throughput figures include an "NR" baseline that simply leaks
//! retired nodes; it serves as a practical upper bound for throughput since it
//! performs no reclamation work at all (but, as the paper notes, allocation
//! cost sometimes makes real SMR schemes faster because they recycle memory
//! through the allocator).
//!
//! Even a leak-everything baseline benefits from the block pool: `alloc`
//! still reuses blocks released through `dealloc` (lost-CAS giveback), and
//! the retire-path counter is sharded like every other scheme's so NR's
//! "upper bound" role is not distorted by counter cache-line ping-pong.

use crate::pool::{BlockPool, PoolShared, ShardedCounter};
use crate::ptr::{Atomic, Shared};
use crate::registry::{PinBinding, SlotClaim, SlotRegistry};
use crate::{Smr, SmrConfig, SmrError, SmrGuard, SmrHandle, SmrKind};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The no-reclamation "scheme".
pub struct Nr {
    registry: SlotRegistry,
    retired: ShardedCounter,
    pool: Arc<PoolShared>,
    pool_capacity: usize,
}

impl Smr for Nr {
    type Handle = NrHandle;

    fn new(config: SmrConfig) -> Arc<Self> {
        let config = config.validated();
        Arc::new(Self {
            registry: SlotRegistry::new(config.max_threads),
            retired: ShardedCounter::new(config.max_threads),
            pool: PoolShared::new(config.pool_blocks(), config.max_threads),
            pool_capacity: config.pool_blocks(),
        })
    }

    fn try_register(self: &Arc<Self>) -> Result<NrHandle, SmrError> {
        let claim = self.registry.try_claim().ok_or(SmrError::RegistryFull {
            capacity: self.registry.capacity(),
        })?;
        Ok(NrHandle {
            pool: BlockPool::new(self.pool.clone(), self.pool_capacity),
            domain: self.clone(),
            claim,
            binding: PinBinding::new(),
        })
    }

    fn unreclaimed(&self) -> usize {
        self.retired.sum()
    }

    fn kind(&self) -> SmrKind {
        SmrKind::Nr
    }
}

/// Per-thread handle for [`Nr`].
pub struct NrHandle {
    domain: Arc<Nr>,
    claim: SlotClaim,
    binding: PinBinding,
    pool: BlockPool,
}

impl Drop for NrHandle {
    fn drop(&mut self) {
        self.domain.registry.release(self.claim);
    }
}

impl SmrHandle for NrHandle {
    type Guard<'g>
        = NrGuard<'g>
    where
        Self: 'g;

    fn pin(&mut self) -> NrGuard<'_> {
        self.domain
            .registry
            .check_owner_and_bind(self.claim, &mut self.binding);
        NrGuard {
            handle: self,
            _thread_bound: std::marker::PhantomData,
        }
    }

    fn flush(&mut self) {
        // NR has nothing to reclaim, but adopting dead threads' slots keeps
        // the registry from filling up under thread churn: the leaked
        // handle's slot (there is no other per-slot state) returns to the
        // free pool.
        for i in 0..self.domain.registry.capacity() {
            if i == self.claim.index {
                continue;
            }
            if let Some(adoption) = self.domain.registry.try_begin_adopt(i) {
                adoption.finish();
            }
        }
    }
}

/// Critical-section guard for [`Nr`]; every operation is a plain load.
#[must_use = "dropping a guard unpublishes every protection it holds"]
pub struct NrGuard<'g> {
    handle: &'g mut NrHandle,
    /// Makes the guard `!Send`/`!Sync`: a guard is the pinning thread's
    /// read-side critical section, and the slot registry's liveness beacon
    /// tracks exactly that thread (see [`crate::registry`]) -- a guard that
    /// crossed threads could see its protections neutralized when the
    /// pinning thread exits.
    _thread_bound: std::marker::PhantomData<*mut ()>,
}

impl SmrGuard for NrGuard<'_> {
    #[inline]
    fn domain_addr(&self) -> usize {
        std::sync::Arc::as_ptr(&self.handle.domain) as usize
    }

    #[inline]
    fn protect<T>(&mut self, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        src.load(Ordering::Acquire)
    }

    #[inline]
    fn announce<T>(&mut self, _idx: usize, _ptr: Shared<T>) {}

    #[inline]
    fn dup(&mut self, _from: usize, _to: usize) {}

    #[inline]
    fn clear(&mut self, _idx: usize) {}

    fn alloc<T: Send + 'static>(&mut self, value: T) -> Shared<T> {
        Shared::from_ptr(self.handle.pool.alloc(value))
    }

    // SAFETY: NR never frees, so any unlinked pointer is trivially safe to retire.
    #[inline]
    unsafe fn retire_batch<T: Send + 'static>(&mut self, batch: &[Shared<T>]) {
        // Leak: only account for it so memory-overhead experiments can report
        // the (ever-growing) number of unreclaimed objects.
        debug_assert!(batch.iter().all(|p| !p.is_null()));
        let handle = &*self.handle;
        handle.domain.retired.add(handle.claim.index, batch.len());
    }

    // SAFETY: callers must guarantee `ptr` was never published to other threads.
    unsafe fn dealloc<T>(&mut self, ptr: Shared<T>) {
        // SAFETY: forwarded — same contract.
        unsafe { crate::limbo::dealloc(&mut self.handle.pool, ptr) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_leaks_and_counts() {
        let d = Nr::new(SmrConfig::default());
        let mut h = d.register();
        let mut g = h.pin();
        let p = g.alloc(41u64);
        // SAFETY: `p` was just allocated by this guard and is still live.
        unsafe {
            assert_eq!(*p.deref(), 41);
            g.retire(p);
        }
        assert_eq!(d.unreclaimed(), 1);
    }

    #[test]
    fn protect_is_a_plain_load() {
        let d = Nr::new(SmrConfig::default());
        let mut h = d.register();
        let mut g = h.pin();
        let p = g.alloc(7u32);
        let cell = Atomic::new(p);
        let seen = g.protect(0, &cell);
        assert_eq!(seen, p);
        // SAFETY: `p` was never shared with another thread; the protect call is test scaffolding.
        unsafe { g.dealloc(p) };
    }

    #[test]
    fn dealloc_frees_immediately() {
        let d = Nr::new(SmrConfig::default());
        let mut h = d.register();
        let mut g = h.pin();
        let p = g.alloc(String::from("x"));
        // SAFETY: `p` was never published; dealloc is the owner's fast path.
        unsafe { g.dealloc(p) };
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn dealloc_recycles_through_the_pool() {
        let d = Nr::new(SmrConfig::default());
        let mut h = d.register();
        let mut g = h.pin();
        let p = g.alloc(1u64);
        let addr = p.untagged().into_raw();
        // SAFETY: `p` was never published; dealloc is the owner's fast path.
        unsafe { g.dealloc(p) };
        let q = g.alloc(2u64);
        assert_eq!(
            q.untagged().into_raw(),
            addr,
            "a lost-CAS giveback must be reused by the next allocation"
        );
        // SAFETY: `q` was never published; dealloc is the owner's fast path.
        unsafe { g.dealloc(q) };
    }
}
