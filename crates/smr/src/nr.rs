//! NR — no reclamation.
//!
//! The paper's throughput figures include an "NR" baseline that simply leaks
//! retired nodes; it serves as a practical upper bound for throughput since it
//! performs no reclamation work at all (but, as the paper notes, allocation
//! cost sometimes makes real SMR schemes faster because they recycle memory
//! through the allocator).
//!
//! NR counts and leaks.  The rest is the slot lifecycle every scheme shares
//! ([`crate::limbo`]) — with a release that does nothing and an adoption that
//! only recycles the slot — so `alloc` still reuses `dealloc`ed blocks
//! (lost-CAS giveback) and retirement counts on a per-thread shard.

use crate::limbo::{Domain, Handle, Lifecycle, Pinned, RetireCore};
use crate::ptr::{Atomic, Shared};
use crate::registry::AdoptGuard;
use crate::{Smr, SmrConfig, SmrError, SmrGuard, SmrHandle, SmrKind};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The no-reclamation "scheme": the retire core and nothing else.
pub struct Nr(RetireCore);

impl Smr for Nr {
    type Handle = NrHandle;

    fn new(config: SmrConfig) -> Arc<Self> {
        Arc::new(Self(RetireCore::new(config)))
    }

    fn try_register(self: &Arc<Self>) -> Result<NrHandle, SmrError> {
        Ok(NrHandle(Handle::register(self)?))
    }

    fn unreclaimed(&self) -> usize {
        self.0.unreclaimed()
    }

    fn kind(&self) -> SmrKind {
        SmrKind::Nr
    }
}

impl Domain for Nr {
    #[inline]
    fn core(&self) -> &RetireCore {
        &self.0
    }

    fn neutralize(&self, _slot: usize) {}
}

impl Lifecycle for Nr {
    fn release(_pinned: &mut Pinned<'_, Self>) {}

    fn adopt(adoption: AdoptGuard<'_>, _slot: usize, _pinned: &mut Pinned<'_, Self>) {
        adoption.finish();
    }
}

/// Per-thread handle for [`Nr`].
pub struct NrHandle(Handle<Nr>);

impl SmrHandle for NrHandle {
    type Guard<'g>
        = NrGuard<'g>
    where
        Self: 'g;

    fn pin(&mut self) -> NrGuard<'_> {
        NrGuard(self.0.pin())
    }

    fn flush(&mut self) {
        self.0.lend().adopt_orphans();
    }
}

/// Critical-section guard for [`Nr`]; every operation is a plain load.
#[must_use = "dropping a guard unpublishes every protection it holds"]
pub struct NrGuard<'g>(Pinned<'g, Nr>);

impl SmrGuard for NrGuard<'_> {
    #[inline]
    fn domain_addr(&self) -> usize {
        self.0.domain_addr()
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

    #[inline]
    fn alloc<T: Send + 'static>(&mut self, value: T) -> Shared<T> {
        self.0.alloc(value)
    }

    // SAFETY: NR never frees, so any unlinked pointer is trivially safe to retire.
    #[inline]
    unsafe fn retire_batch<T: Send + 'static>(&mut self, batch: &[Shared<T>]) {
        // Leak: only account for it so memory-overhead experiments can report
        // the (ever-growing) number of unreclaimed objects.
        debug_assert!(batch.iter().all(|p| !p.is_null()));
        self.0.count_retired(batch.len());
    }

    // SAFETY: callers must guarantee `ptr` was never published to other threads.
    #[inline]
    unsafe fn dealloc<T>(&mut self, ptr: Shared<T>) {
        // SAFETY: forwarded — same contract.
        unsafe { self.0.dealloc(ptr) };
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
