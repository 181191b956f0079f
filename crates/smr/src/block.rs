//! SMR-managed allocation blocks, and the one place their memory is touched.
//!
//! Every node handed to a reclamation scheme in this crate is allocated as a
//! [`Block<T>`]: a fixed-layout [`Header`] followed by the user value.  The
//! header carries the per-object metadata that the era-based schemes (HE, IBR,
//! Hyaline-1S) need — birth era, retire era — plus the intrusive links used by
//! Hyaline's batch reclamation and a type-erased vtable so that limbo lists
//! can be kept homogeneous regardless of the node type.
//!
//! Schemes that do not need a given field simply ignore it; the uniform layout
//! is what lets a single data-structure implementation run unmodified under
//! every scheme, exactly as in the paper's benchmark harness.
//!
//! ## One pointer, one type per ownership role
//!
//! Inside the crate a block is named by one private pointer, `BlockPtr`, and
//! only its methods allocate, write, read out, drop in place or deallocate
//! block memory.  A `BlockPtr` is always held by exactly one value of one of
//! three role types, and each role states once why its operations are sound:
//!
//! * [`Retired`] — unlinked and awaiting reclamation.  Minted `unsafe` from
//!   the retirer's [`Shared`] (the [`crate::SmrGuard::retire`] contract), or
//!   safely for a fresh Hyaline padding block.  Its header accessors are safe.
//! * `Reclaimable` — no thread holds or can obtain a protected reference.
//!   Minted `unsafe` where a scheme proves that: the limbo sweep after
//!   `can_free`, Hyaline's last-reference decrement, the retire core's drop.
//!   Freeing it is safe and consumes it, so a block is freed once.
//! * `Parked` — payload dropped, memory owned by one block-pool tier.  Made
//!   only from a `Reclaimable`; it reads its layout from its own header, so
//!   it is one word (with an `Option` niche) and is reused or deallocated.

use crate::pool::BlockPool;
use crate::ptr::Shared;
use core::alloc::Layout;
use core::marker::PhantomData;
use core::mem;
use core::ptr::NonNull;
use core::sync::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering};

/// Type-erased per-`T` metadata installed into every block header.
///
/// One static instance exists per payload type (obtained through const
/// promotion in [`vtable_of`]), so storing a reference costs one word per
/// block — the same as the function pointer it replaces.
pub struct BlockVTable {
    /// Runs the payload's destructor in place; the block's memory stays
    /// allocated and may be recycled afterwards.
    drop_value: fn(&BlockPtr),
    /// Allocation layout of the whole block (header + value).  Blocks with
    /// equal layouts are interchangeable as raw memory, which is the pool's
    /// recycling criterion.
    pub layout: Layout,
}

/// Returns the static vtable for payload type `T`.
#[inline]
pub fn vtable_of<T>() -> &'static BlockVTable {
    struct Vt<T>(PhantomData<T>);
    impl<T> Vt<T> {
        const VTABLE: BlockVTable = BlockVTable {
            drop_value: BlockPtr::drop_payload::<T>,
            layout: Layout::new::<Block<T>>(),
        };
    }
    // Const promotion: the value has no interior mutability and no Drop, so
    // the reference is 'static.
    &Vt::<T>::VTABLE
}

/// Per-object header preceding every SMR-managed allocation.
///
/// Field usage by scheme:
///
/// | field        | EBR / NBR      | HP/HPopt | HE/IBR           | Hyaline-1S                      | VBR                      | NR |
/// |--------------|----------------|----------|------------------|---------------------------------|--------------------------|----|
/// | `birth_era`  | –              | –        | allocation era   | allocation era                  | allocation epoch (info)  | –  |
/// | `retire_era` | retire epoch   | –        | retire era       | – (batches use min birth)       | retire epoch             | –  |
/// | `next`       | –              | –        | –                | per-slot retirement-list link   | –                        | –  |
/// | `batch_link` | –              | –        | –                | pointer to the batch REFS node  | –                        | –  |
/// | `batch_all`  | –              | –        | –                | intra-batch chain for freeing   | –                        | –  |
/// | `refs`       | –              | –        | –                | batch reference counter (REFS)  | –                        | –  |
/// | `version`    | all schemes: recycling-incarnation stamp (VBR re-checks it) ||||||
/// | `vtable`     | all schemes: type-erased destructor + allocation layout ||||||
///
/// While a block is parked in a [`BlockPool`] free list (payload already
/// dropped), the `next` field is repurposed as the free-list link; every other
/// field except `version` and `vtable` is dead and rewritten on reuse —
/// `version` survives parking and is bumped by the pool on each reuse, so it
/// counts the block's recycling incarnations across its whole life.
#[repr(C)]
pub struct Header {
    /// Global era at allocation time (HE / IBR / Hyaline-1S / VBR).
    pub birth_era: AtomicU64,
    /// Global era / epoch at retirement time (EBR / HE / IBR / NBR / VBR).
    pub retire_era: AtomicU64,
    /// Hyaline: link in a slot's retirement list.  Pool: free-list link.
    pub next: AtomicUsize,
    /// Hyaline: every node of a batch points to the batch's REFS node.
    pub batch_link: AtomicUsize,
    /// Hyaline: chain threading all nodes of one batch so the last acker can
    /// free them together.
    pub batch_all: AtomicUsize,
    /// Hyaline: reference counter, meaningful only on the REFS node of a batch.
    pub refs: AtomicIsize,
    /// Recycling-incarnation counter: 0 on a fresh allocation, incremented by
    /// [`BlockPool`] each time the raw memory is reused for a new value.
    /// Version-based reclamation re-checks it to detect that a block it
    /// optimistically dereferenced has been recycled underneath it.
    pub version: AtomicU64,
    /// Type-erased destructor and allocation layout, installed at allocation.
    pub vtable: &'static BlockVTable,
}

impl Header {
    fn new(vtable: &'static BlockVTable, birth_era: u64) -> Self {
        Self {
            birth_era: AtomicU64::new(birth_era),
            retire_era: AtomicU64::new(0),
            next: AtomicUsize::new(0),
            batch_link: AtomicUsize::new(0),
            batch_all: AtomicUsize::new(0),
            refs: AtomicIsize::new(0),
            version: AtomicU64::new(0),
            vtable,
        }
    }
}

/// An SMR-managed allocation: header followed by the user value.
#[repr(C)]
pub struct Block<T> {
    /// SMR metadata (eras, reclamation links, type-erased vtable).
    pub header: Header,
    /// The user value (e.g. a list node or tree node).
    pub value: T,
}

/// Byte offset from a block's header to its value part.
///
/// Constant for a given `T`; the header layout does not depend on `T`.
#[inline]
pub fn value_offset<T>() -> usize {
    mem::offset_of!(Block<T>, value)
}

/// The header address of an allocated block.  Private: every value is held
/// by exactly one [`Retired`], [`Reclaimable`] or [`Parked`] (or is a local
/// of a function below that owns the block outright), and its methods are
/// called only in the states noted on each.
struct BlockPtr(NonNull<Header>);

// SAFETY: a `BlockPtr` is the one handle of its block's current role, and
// handing a retired, reclaimable or parked block to another thread is part of
// the SMR contract: orphan lists, Hyaline's any-thread freeing, the pool's
// overflow tier.  Payloads are `Send` (`SmrGuard::alloc` requires it).
unsafe impl Send for BlockPtr {}

impl BlockPtr {
    /// The block whose value part is `value` (tag bits stripped, non-null).
    #[inline]
    fn of<T>(value: *mut T) -> Self {
        let hdr = value
            .wrapping_byte_sub(value_offset::<T>())
            .cast::<Header>();
        Self(NonNull::new(hdr).expect("a block's value pointer is never null"))
    }

    /// The block at header address `addr`, or `None` for 0.
    #[inline]
    fn at(addr: usize) -> Option<Self> {
        NonNull::new(addr as *mut Header).map(Self)
    }

    #[inline]
    fn addr(&self) -> usize {
        self.0.as_ptr() as usize
    }

    /// The value part, for a block laid out as `Block<T>`.
    #[inline]
    fn value<T>(&self) -> *mut T {
        self.0
            .as_ptr()
            .wrapping_byte_add(value_offset::<T>())
            .cast()
    }

    /// The header, in any role.
    #[inline]
    fn header(&self) -> &Header {
        // SAFETY: the block is allocated for as long as the role value that
        // holds this pointer exists (the module docs, one argument per role),
        // and the header is only accessed through its atomics and the
        // immutable vtable reference — except by `init`, which runs on a
        // block no other thread can reach.
        unsafe { self.0.as_ref() }
    }

    /// Allocates a fresh block holding `value`; returns the value part.
    ///
    /// The value pointer is at least 8-byte aligned (the header contains
    /// `u64`/`usize` fields and the layout is `repr(C)`), so the low three bits
    /// are usable as logical-deletion tags, which the data-structure crates
    /// rely on.
    #[inline]
    fn alloc<T>(value: T, birth_era: u64) -> *mut T {
        debug_assert!(value_offset::<T>().is_multiple_of(8));
        debug_assert!(mem::align_of::<Block<T>>().is_multiple_of(8));
        let block = Box::leak(Box::new(Block {
            header: Header::new(vtable_of::<T>(), birth_era),
            value,
        }));
        Self(NonNull::from(block).cast()).value()
    }

    /// Writes a fresh `Block<T>` over this parked block; returns the value
    /// part.  Parked only: the payload is dead and no other thread can reach
    /// the block.
    #[inline]
    #[expect(clippy::disallowed_methods, reason = "the block's one re-initializer")]
    fn init<T>(&self, value: T, birth_era: u64) -> *mut T {
        assert!(
            self.header().vtable.layout == Layout::new::<Block<T>>(),
            "a parked block is reused only for its own layout"
        );
        let block = Block {
            header: Header::new(vtable_of::<T>(), birth_era),
            value,
        };
        // SAFETY: the allocation has exactly `Block<T>`'s layout (asserted
        // above), and its old payload was dropped before it was parked:
        // writing a whole fresh block neither overruns nor double-drops.
        unsafe { core::ptr::write(self.0.cast::<Block<T>>().as_ptr(), block) };
        self.value()
    }

    /// The vtable's type-erased destructor: drops the payload in place.
    #[expect(clippy::disallowed_methods, reason = "the vtable's destructor")]
    fn drop_payload<T>(&self) {
        // SAFETY: installed for exactly the payload type `T` of this block,
        // and called once, by `Reclaimable::into_parked`, on a block no
        // thread can still reach.
        unsafe { core::ptr::drop_in_place(self.value::<T>()) }
    }

    /// Returns the block's memory to the global allocator, with the layout
    /// its header records.  The payload is dead: dropped or moved out.
    #[inline]
    #[expect(clippy::disallowed_methods, reason = "the block's one deallocator")]
    fn dealloc(self) {
        let layout = self.header().vtable.layout;
        // SAFETY: every block comes from the global allocator with the layout
        // its vtable records (`alloc`, and `init` keeps the layout); its
        // payload is dead, and consuming the one `BlockPtr` frees it once.
        unsafe { std::alloc::dealloc(self.0.as_ptr().cast(), layout) }
    }

    /// Moves the payload out and deallocates the block without running the
    /// payload's destructor.  Owned outright: never published.
    fn take<T>(self) -> T {
        #[expect(clippy::disallowed_methods, reason = "the block's one move-out")]
        // SAFETY: the block is a live `Block<T>` that only this thread can
        // reach; the value is read exactly once, and `dealloc` does not drop.
        let value = unsafe { core::ptr::read(self.value::<T>()) };
        self.dealloc();
        value
    }
}

/// Allocates a new block holding `value` straight from the global allocator
/// and returns a pointer to the **value** part.  The pooled fast path lives in
/// [`BlockPool::alloc`]; this is the slow/overflow path, and the one used for
/// structure sentinels allocated outside any guard.
pub fn alloc_block<T>(value: T) -> *mut T {
    alloc_fresh(value, 0)
}

/// [`alloc_block`] with the header's birth era stamped: the pool's path to
/// the global allocator.
#[inline]
pub(crate) fn alloc_fresh<T>(value: T, birth_era: u64) -> *mut T {
    BlockPtr::alloc(value, birth_era)
}

/// Frees a block reachable by no thread: runs the payload's destructor and
/// returns the memory to the global allocator.  The data structures' `Drop`
/// impls free what is still linked with it.
///
/// # Safety
/// `ptr` (tag bits are ignored) must come from `alloc` on a domain, or from
/// [`alloc_block`]; no thread may still reach it, and it must not be freed or
/// retired again.
pub unsafe fn free_unreachable<T>(ptr: Shared<T>) {
    Reclaimable(BlockPtr::of(ptr.untagged().as_ptr())).free();
}

/// Moves the payload out of a block that was allocated through an SMR guard
/// but **never published**, releasing the block's memory without running the
/// payload's destructor: `insert` hands the caller's value back this way on a
/// late-detected conflict instead of dropping it.
///
/// # Safety
/// `ptr` (tag bits are ignored) must come from `alloc` on a live domain, no
/// other thread may ever have observed it, and the caller must not touch the
/// block again.
pub unsafe fn take_unpublished<T>(ptr: Shared<T>) -> T {
    BlockPtr::of(ptr.untagged().as_ptr()).take()
}

/// Reads the recycling-incarnation stamp of the block holding `ptr` (see
/// [`Header::version`]): 0 for a fresh allocation, +1 per pool reuse.
///
/// This is the load behind VBR's version re-check on deref: a traversal
/// captures the stamp when it first protects a node and compares on
/// re-validation — a changed stamp proves the memory was recycled.
///
/// # Safety
/// `ptr` (tag bits are ignored) must be non-null and come from `alloc` or
/// [`alloc_block`], and the block must be live or protected, so that its
/// memory is not returned to the global allocator during the load.
#[inline]
pub unsafe fn version_of<T>(ptr: Shared<T>) -> u64 {
    BlockPtr::of(ptr.untagged().as_ptr())
        .header()
        .version
        .load(Ordering::Acquire)
}

/// A retired-but-not-yet-reclaimed block, as stored in per-slot vaults,
/// orphan lists and Hyaline batches.
///
/// Invariant: the block is unlinked from every structure, was retired exactly
/// once, and stays allocated while this record can be used — a limbo list
/// frees it only by minting a `Reclaimable` and dropping the record, and
/// Hyaline's `push_batch` drops a batch's records at the retirer's last
/// decrement.  So the header accessors are safe.
///
/// Two words: the header pointer plus the address of the value part, which is
/// what hazard-pointer slots publish and therefore what limbo scans must
/// compare against.
pub struct Retired {
    block: BlockPtr,
    value: usize,
}

impl Retired {
    /// Captures the retired block `ptr` points to (tag bits are ignored).
    ///
    /// # Safety
    /// The [`crate::SmrGuard::retire`] contract: `ptr` came from `alloc` on
    /// this domain (or [`alloc_block`]), is physically unlinked, and is
    /// retired exactly once.
    #[inline]
    pub(crate) unsafe fn new<T>(ptr: Shared<T>) -> Self {
        let value = ptr.untagged().as_ptr();
        Self {
            block: BlockPtr::of(value),
            value: value as usize,
        }
    }

    /// A fresh `()` block from `pool`, retired at once: Hyaline's padding
    /// node, which no reader can reach.
    #[inline]
    pub(crate) fn padding(pool: &mut BlockPool) -> Self {
        let value = pool.alloc((), 0);
        Self {
            block: BlockPtr::of(value),
            value: value as usize,
        }
    }

    /// The block's header.
    #[inline]
    pub fn header(&self) -> &Header {
        self.block.header()
    }

    /// Address of the block's header: its link value in Hyaline's lists.
    #[inline]
    pub(crate) fn header_addr(&self) -> usize {
        self.block.addr()
    }

    /// Address of the value part (what `Shared::as_ptr` and hazard slots
    /// hold).
    #[inline]
    pub fn value(&self) -> usize {
        self.value
    }

    /// Era at which the block was allocated.
    #[inline]
    pub fn birth_era(&self) -> u64 {
        // ORDERING: era stamps are published to this reader by the vault/limbo handoff that made the `Retired` visible.
        self.header().birth_era.load(Ordering::Relaxed)
    }

    /// Era at which the block was retired.
    #[inline]
    pub fn retire_era(&self) -> u64 {
        // ORDERING: era stamps are published to this reader by the vault/limbo handoff that made the `Retired` visible.
        self.header().retire_era.load(Ordering::Relaxed)
    }

    /// The block, ready to free.
    ///
    /// # Safety
    /// No thread holds or can obtain a protected reference to the block, and
    /// this record is dropped right after, unused.
    #[inline]
    pub(crate) unsafe fn reclaimable(&self) -> Reclaimable {
        Reclaimable(BlockPtr(self.block.0))
    }
}

/// A block no thread holds or can obtain a protected reference to, owned by
/// whoever holds this value.  Freeing consumes it.
pub(crate) struct Reclaimable(BlockPtr);

impl Reclaimable {
    /// The block whose header sits at `addr`.
    ///
    /// # Safety
    /// `addr` is the header address of a block that no thread holds or can
    /// obtain a protected reference to, and nothing else frees it.
    #[inline]
    pub(crate) unsafe fn at(addr: usize) -> Self {
        Self(BlockPtr::at(addr).expect("a reclaimable block is never null"))
    }

    /// The block's header.
    #[inline]
    pub(crate) fn header(&self) -> &Header {
        self.0.header()
    }

    /// Runs the payload's destructor; the memory stays allocated.
    #[inline]
    fn into_parked(self) -> Parked {
        (self.0.header().vtable.drop_value)(&self.0);
        Parked(self.0)
    }

    /// Runs the destructor and hands the memory to `pool` for recycling.
    #[inline]
    pub(crate) fn free_into(self, pool: &mut BlockPool) {
        pool.recycle(self.into_parked());
    }

    /// Runs the destructor and returns the memory to the global allocator.
    #[inline]
    pub(crate) fn free(self) {
        self.into_parked().dealloc();
    }
}

/// A dead block — payload dropped, memory allocated — owned by the pool tier
/// that holds it.  One word; `Option<Parked>` is one word too, the empty
/// free list.
pub(crate) struct Parked(BlockPtr);

impl Parked {
    /// The block's allocation layout, read from its header.
    #[inline]
    pub(crate) fn layout(&self) -> Layout {
        self.0.header().vtable.layout
    }

    /// Returns the memory to the global allocator.
    #[inline]
    pub(crate) fn dealloc(self) {
        self.0.dealloc();
    }

    /// Reuses the block for `value`, whose `Block<T>` must have this block's
    /// layout, preserving and bumping the recycling-incarnation stamp that a
    /// fresh header would reset to zero.
    #[inline]
    pub(crate) fn reinit<T>(self, value: T, birth_era: u64) -> *mut T {
        // ORDERING: the Relaxed read is single-owner (the stamp was last
        // written either by this pool tier or before the block crossed the
        // overflow mutex); the Release store pairs with the Acquire in
        // `version_of` so a VBR reader that observes the new stamp also
        // observes the reinitialized header.
        let incarnation = self.0.header().version.load(Ordering::Relaxed);
        let ptr = self.0.init(value, birth_era);
        self.0
            .header()
            .version
            .store(incarnation.wrapping_add(1), Ordering::Release);
        ptr
    }

    /// Pushes the block onto the intrusive free list `head`, threaded through
    /// `Header::next`.
    #[inline]
    pub(crate) fn push_onto(self, head: &mut Option<Parked>) {
        let next = head.as_ref().map_or(0, |h| h.0.addr());
        // ORDERING: Relaxed — a free list is single-owner (one thread per
        // pool tier); transfers between threads synchronize through the
        // overflow mutex, which fences these writes.
        self.0.header().next.store(next, Ordering::Relaxed);
        *head = Some(self);
    }

    /// Pops the top block of the intrusive free list `head`.
    #[inline]
    pub(crate) fn pop_from(head: &mut Option<Parked>) -> Option<Parked> {
        let top = head.take()?;
        // ORDERING: Relaxed — single-owner list; see `push_onto`.
        *head = BlockPtr::at(top.0.header().next.load(Ordering::Relaxed)).map(Parked);
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;

    struct DropCounter(Arc<StdAtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A freshly allocated block, owned outright by the test.
    fn owned<T>(value: *mut T) -> Reclaimable {
        Reclaimable(BlockPtr::of(value))
    }

    #[test]
    fn alloc_and_free_runs_destructor() {
        let count = Arc::new(StdAtomicUsize::new(0));
        let v = alloc_block(DropCounter(count.clone()));
        assert_eq!(count.load(Ordering::SeqCst), 0);
        owned(v).free();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn header_value_roundtrip() {
        let v = alloc_block(12345u64);
        let block = BlockPtr::of(v);
        assert_eq!(block.value::<u64>(), v);
        assert_eq!(block.addr() + value_offset::<u64>(), v as usize);
        // SAFETY: `v` was just allocated; this test is the sole owner of the block.
        assert_eq!(unsafe { *v }, 12345);
        Reclaimable(block).free();
    }

    #[test]
    fn value_pointer_is_tag_aligned() {
        // Different payload sizes/alignments must all yield 8-byte-aligned
        // value pointers, otherwise logical-deletion tag bits would corrupt
        // the pointer.
        let a = alloc_block(1u8);
        let b = alloc_block(1u16);
        let c = alloc_block([1u8; 3]);
        let d = alloc_block(1u128);
        assert_eq!(a as usize % 8, 0);
        assert_eq!(b as usize % 8, 0);
        assert_eq!(c as usize % 8, 0);
        assert_eq!(d as usize % 8, 0);
        owned(a).free();
        owned(b).free();
        owned(c).free();
        owned(d).free();
    }

    #[test]
    fn retired_reads_eras_from_header() {
        let v = alloc_block(7u32);
        // SAFETY: `v` was just allocated and is linked nowhere.
        let r = unsafe { Retired::new(Shared::from_ptr(v)) };
        // ORDERING: owner-only stamps on an unshared test block.
        r.header().birth_era.store(3, Ordering::Relaxed);
        // ORDERING: owner-only stamps on an unshared test block.
        r.header().retire_era.store(9, Ordering::Relaxed);
        assert_eq!(r.birth_era(), 3);
        assert_eq!(r.retire_era(), 9);
        assert_eq!(r.value(), v as usize);
        // SAFETY: nothing else can reach the block.
        unsafe { r.reclaimable() }.free();
    }

    #[test]
    fn role_types_keep_the_retire_record_two_words() {
        // The kill criterion of the role types: no word added to the record
        // every vault holds, and a parked block is one word with a niche.
        assert_eq!(mem::size_of::<Retired>(), 2 * mem::size_of::<usize>());
        assert_eq!(mem::size_of::<Reclaimable>(), mem::size_of::<usize>());
        assert_eq!(mem::size_of::<Parked>(), mem::size_of::<usize>());
        assert_eq!(mem::size_of::<Option<Parked>>(), mem::size_of::<usize>());
    }

    #[test]
    fn vtable_is_shared_per_type_and_records_layout() {
        let a = vtable_of::<u64>();
        let b = vtable_of::<u64>();
        assert!(core::ptr::eq(a, b), "one static vtable per payload type");
        assert_eq!(a.layout, Layout::new::<Block<u64>>());
        assert_ne!(
            vtable_of::<u64>().layout,
            vtable_of::<[u8; 64]>().layout,
            "different payload sizes must yield different block layouts"
        );
    }

    #[test]
    fn drop_value_then_reinit_recycles_memory_without_double_drop() {
        let count = Arc::new(StdAtomicUsize::new(0));
        let v = alloc_block(DropCounter(count.clone()));
        let parked = owned(v).into_parked();
        assert_eq!(count.load(Ordering::SeqCst), 1);
        // Reuse the same memory for a second value of the same layout.
        let v2 = parked.reinit(DropCounter(count.clone()), 0);
        assert_eq!(count.load(Ordering::SeqCst), 1, "reinit must not drop");
        assert_eq!(v2, v);
        owned(v2).free();
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn take_unpublished_moves_the_payload_out_without_dropping_it() {
        let count = Arc::new(StdAtomicUsize::new(0));
        let v = alloc_block(DropCounter(count.clone()));
        // SAFETY: `v` was just allocated and never published.
        let back = unsafe { take_unpublished(Shared::from_ptr(v)) };
        assert_eq!(count.load(Ordering::SeqCst), 0, "moved out, not dropped");
        drop(back);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn free_list_is_lifo_through_the_headers() {
        let mut head = None;
        let (a, b) = (alloc_block(1u64), alloc_block(2u64));
        owned(a).into_parked().push_onto(&mut head);
        owned(b).into_parked().push_onto(&mut head);
        let top = Parked::pop_from(&mut head).expect("two parked");
        assert_eq!(top.0.value::<u64>(), b);
        let next = Parked::pop_from(&mut head).expect("one parked");
        assert_eq!(next.0.value::<u64>(), a);
        assert!(Parked::pop_from(&mut head).is_none());
        top.dealloc();
        next.dealloc();
    }
}
