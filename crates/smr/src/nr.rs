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

use crate::block::Retired;
use crate::limbo::{Domain, Guard, Lifecycle, Pinned, ReadSide, RetireCore};
use crate::ptr::{Atomic, Shared};
use crate::registry::AdoptGuard;
use crate::SmrKind;
use std::sync::atomic::Ordering;

/// The no-reclamation "scheme": the retire core and nothing else.
pub struct Nr {
    core: RetireCore<()>,
}

impl Domain for Nr {
    const KIND: SmrKind = SmrKind::Nr;
    /// NR publishes nothing.
    type Slot = ();

    fn build(core: RetireCore<()>) -> Self {
        Self { core }
    }

    #[inline]
    fn core(&self) -> &RetireCore<()> {
        &self.core
    }

    fn neutralize(&self, _slot: usize) {}
}

impl Lifecycle for Nr {
    /// Leaks: only counts, so that memory-overhead experiments can report the
    /// (ever-growing) number of unreclaimed objects.
    #[inline]
    fn retire(pinned: &mut Pinned<'_, Self>, batch: impl ExactSizeIterator<Item = Retired>) {
        pinned.count_retired(batch.len());
    }

    fn flush(pinned: &mut Pinned<'_, Self>) {
        pinned.adopt_orphans();
    }

    fn release(_pinned: &mut Pinned<'_, Self>) {}

    fn adopt(adoption: AdoptGuard<'_>, _pinned: &mut Pinned<'_, Self>) {
        adoption.finish();
    }
}

/// Every operation is a plain load.
impl ReadSide for Nr {
    type State = ();

    #[inline]
    fn enter(&self, _slot: &()) {}

    #[inline]
    fn exit(_: &mut Guard<'_, Self>) {}

    #[inline]
    fn protect<T>(_: &mut Guard<'_, Self>, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        src.load(Ordering::Acquire)
    }

    #[inline]
    fn announce<T>(_: &mut Guard<'_, Self>, _idx: usize, _ptr: Shared<T>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Smr, SmrConfig, SmrGuard, SmrHandle};

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
