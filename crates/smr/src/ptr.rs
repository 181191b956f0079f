//! Tagged atomic pointers used by all non-blocking data structures in this
//! workspace.
//!
//! Non-blocking sets in the Harris / Natarajan-Mittal family steal one or two
//! low-order bits of a pointer to encode *logical deletion* ("marking" in
//! Harris' list, "flagging"/"tagging" in the Natarajan-Mittal tree).  [`Atomic`]
//! is a word-sized atomic cell holding such a tagged pointer and [`Shared`] is
//! the `Copy` snapshot value read out of it.
//!
//! The pointee is always the *value* part of an SMR-managed [`Block`]
//! (see [`crate::block`]), which guarantees at least 8-byte alignment, so the
//! three lowest bits are available for tags.
//!
//! [`Block`]: crate::block::Block

use core::fmt;
use core::marker::PhantomData;
use core::sync::atomic::{AtomicUsize, Ordering};

/// Bit mask of the pointer bits usable as tags (the pointee is always at least
/// 8-byte aligned, see [`crate::block::Block`]).
pub const TAG_MASK: usize = 0b111;

/// A word-sized atomic cell holding a (possibly tagged) pointer to `T`.
///
/// This is intentionally similar to `crossbeam_epoch::Atomic`, but it is not
/// tied to any particular reclamation scheme: all schemes in this crate
/// (`NR`, `EBR`, `HP`, `HE`, `IBR`, `Hyaline-1S`, `NBR`, `VBR`) operate on the
/// same pointer representation so data structures can be written once and
/// instantiated with any of them.
#[repr(transparent)]
pub struct Atomic<T> {
    data: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

// SAFETY: `Atomic<T>` is a word-sized atomic cell; the pointer value itself
// is freely movable between threads, and any thread that *dereferences* it
// must uphold the `Shared::deref` contract, which requires `T: Send + Sync`
// for shared structures — mirrored here as the bound on both impls.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
// SAFETY: all shared access goes through `&self` atomic operations; there is
// no unsynchronized interior mutability.
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let raw = self.data.load(Ordering::Relaxed);
        write!(f, "Atomic({:#x})", raw)
    }
}

impl<T> Atomic<T> {
    /// Creates a new null atomic pointer.
    pub const fn null() -> Self {
        Self {
            data: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// Creates an atomic pointer initialized to `ptr`.
    pub fn new(ptr: Shared<T>) -> Self {
        Self {
            data: AtomicUsize::new(ptr.raw),
            _marker: PhantomData,
        }
    }

    /// Loads the current value.
    #[inline]
    pub fn load(&self, ord: Ordering) -> Shared<T> {
        Shared::from_raw(self.data.load(ord))
    }

    /// Stores `ptr` into the cell.
    #[inline]
    pub fn store(&self, ptr: Shared<T>, ord: Ordering) {
        self.data.store(ptr.raw, ord);
    }

    /// Atomically swaps the stored pointer, returning the previous value.
    #[inline]
    pub fn swap(&self, ptr: Shared<T>, ord: Ordering) -> Shared<T> {
        Shared::from_raw(self.data.swap(ptr.raw, ord))
    }

    /// Single-word compare-and-swap, the only synchronization primitive used
    /// by the algorithms reproduced from the paper (§2.1).
    ///
    /// On success returns `Ok(())`; on failure returns the value observed.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: Shared<T>,
        new: Shared<T>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<(), Shared<T>> {
        match self
            .data
            .compare_exchange(current.raw, new.raw, success, failure)
        {
            Ok(_) => Ok(()),
            Err(observed) => Err(Shared::from_raw(observed)),
        }
    }

    /// Convenience CAS with `AcqRel`/`Acquire` orderings, which is what the
    /// pseudocode's bare `CAS` corresponds to throughout the paper.
    #[inline]
    pub fn cas(&self, current: Shared<T>, new: Shared<T>) -> Result<(), Shared<T>> {
        self.compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Returns a raw pointer view of the underlying atomic word.  This is used
    /// by Harris' list, which performs CAS directly on "link addresses"
    /// (`node_t **` in the paper's Figure 3) that may be either `&Head` or a
    /// node's `Next` field.
    #[inline]
    pub fn as_link(&self) -> Link<T> {
        Link {
            cell: self as *const Atomic<T>,
        }
    }
}

/// The address of an [`Atomic`] link (`node_t **` in the paper's pseudocode).
///
/// Harris' list keeps *a pointer to a link* in `prev` so the unlink CAS can
/// update the predecessor field directly, whether that field is the list head
/// or an interior node's `Next` pointer.  `Link` is `Copy` and carries no
/// lifetime; dereferencing it is `unsafe` and valid only while the node that
/// owns the link is protected by the active SMR scheme.
pub struct Link<T> {
    cell: *const Atomic<T>,
}

impl<T> Clone for Link<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Link<T> {}

impl<T> PartialEq for Link<T> {
    fn eq(&self, other: &Self) -> bool {
        core::ptr::eq(self.cell, other.cell)
    }
}
impl<T> Eq for Link<T> {}

impl<T> fmt::Debug for Link<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Link({:p})", self.cell)
    }
}

impl<T> Link<T> {
    /// Dereferences the link.
    ///
    /// # Safety
    /// The owner of the link (the list head or a protected node) must still be
    /// live, i.e. protected by a hazard slot / era reservation or reachable.
    #[inline]
    pub unsafe fn as_atomic<'a>(&self) -> &'a Atomic<T> {
        // SAFETY: the caller guarantees the link's owner is live, so the
        // `Atomic` cell it embeds is a valid, initialized atomic word.
        unsafe { &*self.cell }
    }
}

/// A snapshot of an [`Atomic`] cell: a possibly-null, possibly-tagged pointer.
///
/// `Shared` is `Copy` and intentionally does **not** borrow a guard: which
/// hazard slot protects a pointer changes from hop to hop (the paper's
/// slot-index discipline plus SCOT validation), so the lifetime of a
/// protection belongs to the traversal, not to the pointer.  The `scot`
/// crate expresses it there: its cursor holds the operation's `&mut` guard
/// borrow and hands out node references through safe accessors bounded by
/// that borrow, so the raw, `unsafe` dereferences below are confined to those
/// accessors, each stating which slot or validation step makes it sound.
pub struct Shared<T> {
    raw: usize,
    _marker: PhantomData<*mut T>,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<T> {}

impl<T> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for Shared<T> {}

impl<T> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shared({:#x})", self.raw)
    }
}

impl<T> Default for Shared<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> Shared<T> {
    /// The null pointer (tag 0).
    #[inline]
    pub const fn null() -> Self {
        Self {
            raw: 0,
            _marker: PhantomData,
        }
    }

    /// Reconstructs a `Shared` from a raw tagged word.
    #[inline]
    pub const fn from_raw(raw: usize) -> Self {
        Self {
            raw,
            _marker: PhantomData,
        }
    }

    /// Creates a `Shared` from an untagged raw pointer.
    #[inline]
    pub fn from_ptr(ptr: *mut T) -> Self {
        Self::from_raw(ptr as usize)
    }

    /// The raw tagged word.
    #[inline]
    pub const fn into_raw(self) -> usize {
        self.raw
    }

    /// The pointer with tag bits stripped.
    #[inline]
    pub fn as_ptr(&self) -> *mut T {
        (self.raw & !TAG_MASK) as *mut T
    }

    /// True if the pointer (ignoring tags) is null.
    #[inline]
    pub fn is_null(&self) -> bool {
        self.as_ptr().is_null()
    }

    /// The tag bits.
    #[inline]
    pub fn tag(&self) -> usize {
        self.raw & TAG_MASK
    }

    /// Returns the same pointer with the given tag bits.
    #[inline]
    pub fn with_tag(&self, tag: usize) -> Self {
        debug_assert_eq!(tag & !TAG_MASK, 0, "tag does not fit in the low bits");
        Self::from_raw((self.raw & !TAG_MASK) | tag)
    }

    /// Returns the same pointer with all tag bits cleared
    /// (`getUnmarked` in the paper's pseudocode).
    #[inline]
    pub fn untagged(&self) -> Self {
        self.with_tag(0)
    }

    /// Dereferences the pointer (tag bits are ignored).
    ///
    /// # Safety
    /// The pointee must be live: either protected by the SMR scheme in use
    /// (hazard slot / era reservation covering it) or provably not yet retired
    /// (e.g. still reachable and the traversal validated per SCOT).
    #[inline]
    pub unsafe fn deref<'a>(&self) -> &'a T {
        // SAFETY: the caller guarantees the pointee is live (protected or
        // validated per SCOT), and `as_ptr` strips the tag bits so the
        // address is the true allocation address.
        unsafe { &*self.as_ptr() }
    }

    /// Like [`Shared::deref`] but returns `None` for null.
    ///
    /// # Safety
    /// Same contract as [`Shared::deref`] when non-null.
    #[inline]
    pub unsafe fn as_ref<'a>(&self) -> Option<&'a T> {
        // SAFETY: the caller guarantees the pointee is live when non-null;
        // `as_ref` returns `None` for null without dereferencing.
        unsafe { self.as_ptr().as_ref() }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests free the boxes their pointers point at"
)]
mod tests {
    use super::*;

    #[test]
    fn null_roundtrip() {
        let s: Shared<u64> = Shared::null();
        assert!(s.is_null());
        assert_eq!(s.tag(), 0);
        assert_eq!(s.into_raw(), 0);
    }

    #[test]
    fn tag_roundtrip() {
        let x = Box::into_raw(Box::new(42u64));
        let s = Shared::from_ptr(x);
        assert!(!s.is_null());
        assert_eq!(s.tag(), 0);
        let m = s.with_tag(1);
        assert_eq!(m.tag(), 1);
        assert_eq!(m.as_ptr(), x);
        assert_eq!(m.untagged(), s);
        let m2 = m.with_tag(0b11);
        assert_eq!(m2.tag(), 0b11);
        assert_eq!(m2.untagged(), s);
        // SAFETY: the pointee is a live Box-backed value owned by this test; tags never change the address.
        unsafe {
            assert_eq!(*m2.deref(), 42);
            drop(Box::from_raw(x));
        }
    }

    #[test]
    fn tagged_null_is_still_null() {
        let s: Shared<u64> = Shared::null().with_tag(1);
        assert!(s.is_null());
        assert_eq!(s.tag(), 1);
    }

    #[test]
    fn atomic_load_store_swap() {
        let x = Box::into_raw(Box::new(7u32));
        let a: Atomic<u32> = Atomic::null();
        assert!(a.load(Ordering::Relaxed).is_null());
        a.store(Shared::from_ptr(x), Ordering::Release);
        assert_eq!(a.load(Ordering::Acquire).as_ptr(), x);
        let prev = a.swap(Shared::null(), Ordering::AcqRel);
        assert_eq!(prev.as_ptr(), x);
        assert!(a.load(Ordering::Acquire).is_null());
        // SAFETY: `x` came from `Box::into_raw` above and is reclaimed exactly once.
        unsafe { drop(Box::from_raw(x)) };
    }

    #[test]
    fn atomic_cas_success_and_failure() {
        let x = Box::into_raw(Box::new(1u32));
        let y = Box::into_raw(Box::new(2u32));
        let a = Atomic::new(Shared::from_ptr(x));
        // Failing CAS reports the observed value.
        let err = a.cas(Shared::from_ptr(y), Shared::null()).unwrap_err();
        assert_eq!(err.as_ptr(), x);
        // Successful CAS installs the new value.
        a.cas(Shared::from_ptr(x), Shared::from_ptr(y)).unwrap();
        assert_eq!(a.load(Ordering::Acquire).as_ptr(), y);
        // SAFETY: both pointers came from `Box::into_raw` above and are reclaimed exactly once.
        unsafe {
            drop(Box::from_raw(x));
            drop(Box::from_raw(y));
        }
    }

    #[test]
    fn link_identity() {
        let a: Atomic<u32> = Atomic::null();
        let b: Atomic<u32> = Atomic::null();
        assert_eq!(a.as_link(), a.as_link());
        assert_ne!(a.as_link(), b.as_link());
    }

    #[test]
    fn link_cas_through() {
        let x = Box::into_raw(Box::new(5u32));
        let a: Atomic<u32> = Atomic::null();
        let link = a.as_link();
        // SAFETY: the link view aliases `a`, which outlives it; `x` is reclaimed exactly once below.
        unsafe {
            let cell = link.as_atomic();
            assert!(cell.load(Ordering::Acquire).is_null());
            cell.cas(Shared::null(), Shared::from_ptr(x)).unwrap();
            assert_eq!(a.load(Ordering::Acquire).as_ptr(), x);
            drop(Box::from_raw(x));
        }
    }
}
