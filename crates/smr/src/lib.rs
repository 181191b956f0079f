//! Safe memory reclamation (SMR) schemes for the SCOT reproduction.
//!
//! This crate implements, from scratch, every reclamation scheme evaluated in
//! *"Fixing Non-blocking Data Structures for Better Compatibility with Memory
//! Reclamation Schemes"* (PPoPP '26):
//!
//! * [`Nr`] — no reclamation (leak everything); the throughput "upper bound"
//!   baseline of the paper's figures.
//! * [`Ebr`] — epoch-based reclamation (Fraser-style), fast but not robust:
//!   a stalled thread prevents epoch advancement and memory grows unboundedly.
//! * [`Hp`] — hazard pointers (Michael 2004), robust; `HPopt` is the same
//!   scheme with the limbo-scan snapshot optimization the paper attributes to
//!   the Hyaline work: the scan collects all hazard slots once into a sorted
//!   local snapshot instead of rescanning the global array per retired node.
//! * [`He`] — hazard eras (Ramalhete & Correia), era reservations per slot.
//! * [`Ibr`] — interval-based reclamation (2GEIBR variant of Wen et al.),
//!   per-thread `[lower, upper]` era intervals.
//! * [`Hyaline`] — a Hyaline-1S-style scheme: per-thread retirement slots,
//!   batched retirement with reference counting performed only during
//!   reclamation, birth-era exemption for robustness, and any-thread freeing.
//! * [`Nbr`] — neutralization-based reclamation in the spirit of Brown's
//!   DEBRA+ line: per-thread checkpoint eras plus a cooperative neutralize
//!   flag that asks lagging readers to restart their operation so the epoch
//!   can advance past them.  The restart request is surfaced through
//!   [`SmrGuard::needs_restart`] / [`SmrGuard::checkpoint`] and routed into
//!   the traversal cursor's restart ladder by the `scot` crate.
//! * [`Vbr`] — version-based reclamation in the spirit of Cohen's VBR:
//!   retired blocks are recycled *eagerly* through the block pool (FIFO, in
//!   retire-era order, O(1) per alloc instead of limbo scans), with a
//!   per-incarnation version stamp in every [`Header`] and allocation-driven
//!   epoch advancement that displaces long-running readers through the same
//!   checkpoint protocol.
//!
//! The slot lifecycle of all eight families — claim, pin, the reservation
//! records, one padded retire record per slot (its vault and its share of
//! `unreclaimed`), the block pool, adoption of slots whose owner thread
//! died, handle release, domain teardown — and the one [`Smr`] impl, handle
//! and guard they share are written once, in the crate-private retire core
//! (`limbo.rs`).  A scheme contributes its read-side protocol (enter, exit,
//! `protect`, `announce`, and `dup`/`clear`/`checkpoint` where it has them),
//! its reservation record, how a slot's reservation is withdrawn, and what
//! retirement, release and adoption do with its vault.
//! The six limbo-list schemes (EBR, HP, HE, IBR, NBR, VBR) also share its
//! threshold-triggered sweeps and orphan list, contributing their stamps and
//! their "may this block be freed" predicate.  Hyaline shares the lifecycle,
//! not the sweep: its vault is flushed as reference-counted batches.
//!
//! All schemes expose the same narrow interface — [`Smr`] / [`SmrHandle`] /
//! [`SmrGuard`] — modeled directly on the paper's Figure 1 (`protect`, `dup`)
//! plus allocation and retirement.  Index-based hazard slots are a no-op for
//! the schemes that do not need them (EBR, NR, IBR, Hyaline, NBR, VBR), which
//! is what allows a single data-structure implementation to run under every
//! scheme.
//!
//! # Compatibility contract
//!
//! As the paper explains at length, the robust schemes (HP, HE, IBR,
//! Hyaline-1S) are **not** safe for arbitrary data structures: a structure
//! with optimistic traversals must either unlink logically-deleted nodes
//! eagerly (Harris-Michael style) or follow the SCOT discipline (validate that
//! the last safe node still points to the first unsafe node at every step of a
//! dangerous-zone traversal).  The data structures in the `scot` crate uphold
//! this contract; nothing in this crate can check it for you.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod block;
pub mod pool;
pub mod ptr;
pub mod registry;

mod ebr;
mod he;
mod hp;
mod hyaline;
mod ibr;
mod limbo;
mod nbr;
mod nr;
mod vbr;

pub use block::{
    alloc_block, free_unreachable, take_unpublished, version_of, Block, BlockVTable, Header,
    Retired,
};
pub use ebr::Ebr;
pub use he::He;
pub use hp::Hp;
pub use hyaline::Hyaline;
pub use ibr::Ibr;
pub use nbr::Nbr;
pub use nr::Nr;
pub use pool::{BlockPool, PoolShared};
pub use ptr::{Atomic, Link, Shared, TAG_MASK};
pub use registry::{thread_beacon, AdoptGuard, Beacon, PinBinding, SlotClaim, SlotRegistry};
pub use vbr::Vbr;

use std::sync::Arc;

/// Number of hazard/era slots available to each thread for each domain.
///
/// Harris' list with SCOT needs 4 (`Hp0`–`Hp3`), the Natarajan-Mittal tree
/// needs 5 (`Hp0`–`Hp4`) plus a victim slot for its value-returning `remove`
/// (`Hp5`), and the skip list needs 7 (`Hp0`–`Hp3` for the per-level
/// traversal, `Hp4` as the restart-from-highest-valid-level anchor, `Hp5` for
/// the removal victim, `Hp6` for the inserter's own tower); 8 leaves headroom
/// for future structures.  The authoritative role-per-slot table is the
/// `scot::slots` module of the data-structure crate.
pub const MAX_HAZARDS: usize = 8;

/// Errors surfaced by the fallible SMR entry points ([`Smr::try_register`]
/// and [`SmrConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmrError {
    /// Every thread slot of the domain is claimed by a live handle; the domain
    /// was created with a `max_threads` smaller than the peak number of
    /// concurrently registered threads.
    RegistryFull {
        /// The domain's slot capacity (`SmrConfig::max_threads`).
        capacity: usize,
    },
    /// A [`SmrConfig`] field is outside its valid range; the payload names the
    /// offending constraint.
    InvalidConfig(&'static str),
}

impl std::fmt::Display for SmrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmrError::RegistryFull { capacity } => write!(
                f,
                "all {capacity} thread slots are claimed; raise SmrConfig::max_threads"
            ),
            SmrError::InvalidConfig(what) => write!(f, "invalid SmrConfig: {what}"),
        }
    }
}

impl std::error::Error for SmrError {}

/// Identifies a reclamation scheme; used by the benchmark harness to select
/// schemes by name exactly like the paper's `./bench ... EBR ...` CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SmrKind {
    /// No reclamation (leak).
    Nr,
    /// Epoch-based reclamation.
    Ebr,
    /// Hazard pointers, naive per-node scan.
    Hp,
    /// Hazard pointers with the snapshot scan optimization.
    HpOpt,
    /// Hazard eras.
    He,
    /// Hazard eras with the snapshot scan optimization.
    HeOpt,
    /// Interval-based reclamation (2GEIBR).
    Ibr,
    /// Interval-based reclamation with the snapshot scan optimization.
    IbrOpt,
    /// Hyaline-1S-style reclamation.
    Hyaline,
    /// Neutralization-based reclamation (cooperative DEBRA+-style restarts).
    Nbr,
    /// Version-based reclamation (eager recycling with version stamps).
    Vbr,
}

impl SmrKind {
    /// All kinds, in the order the paper's figures list them; the two
    /// checkpoint-protocol families (NBR, VBR) come last.
    pub const ALL: [SmrKind; 11] = [
        SmrKind::Nr,
        SmrKind::Ebr,
        SmrKind::Hp,
        SmrKind::HpOpt,
        SmrKind::Ibr,
        SmrKind::IbrOpt,
        SmrKind::He,
        SmrKind::HeOpt,
        SmrKind::Hyaline,
        SmrKind::Nbr,
        SmrKind::Vbr,
    ];

    /// Parses the names used by the paper's artifact (`NR`, `EBR`, `HP`,
    /// `HPopt`/`HPO`, `HE`, `IBR`, `HLN`/`Hyaline`, `NBR`, `VBR`),
    /// case-insensitively.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_uppercase().as_str() {
            "NR" => Some(SmrKind::Nr),
            "EBR" => Some(SmrKind::Ebr),
            "HP" => Some(SmrKind::Hp),
            "HPOPT" | "HPO" => Some(SmrKind::HpOpt),
            "HE" => Some(SmrKind::He),
            "HEOPT" | "HEO" => Some(SmrKind::HeOpt),
            "IBR" => Some(SmrKind::Ibr),
            "IBROPT" | "IBRO" => Some(SmrKind::IbrOpt),
            "HLN" | "HYALINE" | "HYALINE-1S" | "HYALINE1S" => Some(SmrKind::Hyaline),
            "NBR" | "NBR+" | "NEUTRALIZATION" => Some(SmrKind::Nbr),
            "VBR" | "VERSION" | "VERSIONED" => Some(SmrKind::Vbr),
            _ => None,
        }
    }

    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            SmrKind::Nr => "NR",
            SmrKind::Ebr => "EBR",
            SmrKind::Hp => "HP",
            SmrKind::HpOpt => "HPopt",
            SmrKind::He => "HE",
            SmrKind::HeOpt => "HEopt",
            SmrKind::Ibr => "IBR",
            SmrKind::IbrOpt => "IBRopt",
            SmrKind::Hyaline => "HLN",
            SmrKind::Nbr => "NBR",
            SmrKind::Vbr => "VBR",
        }
    }

    /// Whether the scheme is robust to stalled threads (bounded memory, the
    /// paper's property (A)).
    ///
    /// NBR and VBR are classified as *not* robust here even though the
    /// published schemes are: the originals obtain robustness from POSIX
    /// signals (NBR neutralizes a stalled reader from the outside) or from an
    /// unbounded version space (VBR readers fail their version re-validation
    /// instead of blocking reclamation).  This crate's variants are
    /// cooperative — a reader that never polls [`SmrGuard::needs_restart`]
    /// keeps its checkpoint era pinned, exactly like a stalled EBR reader —
    /// so claiming property (A) for them would overstate the implementation.
    pub fn is_robust(&self) -> bool {
        !matches!(
            self,
            SmrKind::Nr | SmrKind::Ebr | SmrKind::Nbr | SmrKind::Vbr
        )
    }
}

impl std::fmt::Display for SmrKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs shared by all schemes, with the defaults used in the paper's
/// evaluation (§5): limbo-list scans are amortized to one scan per 128 retire
/// calls, and the era/epoch counter is advanced once every
/// `12 × thread-count` allocations or retirements.
#[derive(Debug, Clone)]
pub struct SmrConfig {
    /// Maximum number of threads that may register concurrently.
    pub max_threads: usize,
    /// Retired nodes accumulated before attempting a reclamation pass.
    pub scan_threshold: usize,
    /// Allocations/retirements between era (epoch) increments, expressed as a
    /// multiple of the thread count.
    pub epoch_freq_per_thread: usize,
    /// Use the snapshot scan optimization (HPopt / HEopt / IBRopt).
    pub snapshot_scan: bool,
    /// Maximum blocks each per-thread handle caches in its block pool
    /// ([`pool::BlockPool`]); `Some(0)` disables pooling (every alloc/free
    /// goes to the global allocator).  `None` (the default) sizes the pool
    /// off `scan_threshold` — see [`SmrConfig::pool_blocks`]: a sweep frees
    /// up to one limbo list at once, so `2 × scan_threshold` lets a full
    /// sweep's worth of blocks be recycled without spilling.
    pub pool_capacity: Option<usize>,
}

impl Default for SmrConfig {
    fn default() -> Self {
        Self {
            max_threads: 192,
            scan_threshold: 128,
            epoch_freq_per_thread: 12,
            snapshot_scan: false,
            pool_capacity: None,
        }
    }
}

impl SmrConfig {
    /// Configuration sized for `threads` worker threads, using the paper's
    /// calibration values.
    pub fn for_threads(threads: usize) -> Self {
        Self {
            max_threads: threads + 2,
            ..Self::default()
        }
    }

    /// Checks the configuration's invariants: at least one thread slot and a
    /// retire threshold of at least one (a threshold of zero would make every
    /// retire call attempt a scan *before* any node is in limbo, and several
    /// amortization counters divide by it).
    pub fn validate(&self) -> Result<(), SmrError> {
        if self.max_threads == 0 {
            return Err(SmrError::InvalidConfig("max_threads must be >= 1"));
        }
        if self.scan_threshold == 0 {
            return Err(SmrError::InvalidConfig("scan_threshold must be >= 1"));
        }
        Ok(())
    }

    /// Validating pass-through used by every scheme's constructor: returns the
    /// configuration unchanged, or panics with a clear message naming the
    /// violated constraint.  Domain construction has no fallible channel (it
    /// returns `Arc<Self>`), so a misconfiguration is reported at the earliest
    /// possible point instead of surfacing as a later index error.
    pub fn validated(self) -> Self {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        self
    }

    /// Absolute era increment frequency.
    pub fn epoch_freq(&self) -> usize {
        (self.epoch_freq_per_thread * self.max_threads).max(1)
    }

    /// Returns a copy with the snapshot scan optimization enabled.
    pub fn with_snapshot_scan(mut self) -> Self {
        self.snapshot_scan = true;
        self
    }

    /// Returns a copy with the given per-handle block-pool capacity.
    pub fn with_pool_capacity(mut self, capacity: usize) -> Self {
        self.pool_capacity = Some(capacity);
        self
    }

    /// Returns a copy with block pooling disabled (the `exp pool` ablation's
    /// pool-off arm).
    pub fn without_pool(self) -> Self {
        self.with_pool_capacity(0)
    }

    /// Effective per-handle block-pool capacity: the explicit
    /// [`SmrConfig::pool_capacity`] if set, otherwise `2 × scan_threshold`
    /// so one full limbo sweep recycles without spilling.
    pub fn pool_blocks(&self) -> usize {
        self.pool_capacity
            .unwrap_or_else(|| 2 * self.scan_threshold)
    }
}

/// A reclamation domain: one instance per data structure (or shared between
/// structures whose nodes may reference each other).
///
/// Domains are reference counted (`Arc`) so per-thread handles can be moved
/// into worker threads without borrowing the data structure.
///
/// # Thread affinity of handles
///
/// Handles are `Send`, and moving one to another thread is supported: every
/// [`SmrHandle::pin`] re-binds the handle's registry slot to the liveness
/// beacon of the *pinning* thread (see [`registry`]), so orphan detection
/// tracks the thread actually using the handle, not the one that happened to
/// call [`Smr::register`].  The one unsupported pattern is a handle *parked
/// between pins* whose most recent pinning thread (or registering thread, if
/// it was never pinned) exits: a survivor may then adopt the slot — draining
/// the handle's retired backlog and neutralizing its reservations — and the
/// handle's next `pin` panics instead of publishing into the recycled slot.
/// Guards, by contrast, are `!Send`: a critical section never leaves the
/// thread that opened it (see [`SmrGuard`]).
pub trait Smr: Send + Sync + Sized + 'static {
    /// Per-thread state: the claimed registry slot, its liveness binding, the
    /// thread's block pool and era countdown.  Reservations and retired blocks
    /// live in the domain, so a survivor can adopt them if the thread dies.
    type Handle: SmrHandle + Send + 'static;

    /// Creates a new domain.  Panics if `config` violates its invariants
    /// (see [`SmrConfig::validate`]).
    fn new(config: SmrConfig) -> Arc<Self>;

    /// Registers the calling thread, claiming a thread slot; fails with
    /// [`SmrError::RegistryFull`] when `config.max_threads` handles are
    /// already live.  This is the entry point services should use when thread
    /// counts are not statically bounded (e.g. a runtime-sized worker pool).
    fn try_register(self: &Arc<Self>) -> Result<Self::Handle, SmrError>;

    /// Registers the calling thread, claiming a thread slot.  Panics if more
    /// than `config.max_threads` handles are live simultaneously; the
    /// fallible variant is [`Smr::try_register`].
    fn register(self: &Arc<Self>) -> Self::Handle {
        match self.try_register() {
            Ok(handle) => handle,
            Err(e) => panic!("SMR thread registration failed: {e}"),
        }
    }

    /// Number of retired-but-not-yet-reclaimed blocks across the whole domain.
    /// This is the quantity plotted in the paper's Figures 10–12b.
    fn unreclaimed(&self) -> usize;

    /// Scheme kind.
    fn kind(&self) -> SmrKind;

    /// Display name of the scheme.
    fn name(&self) -> &'static str {
        self.kind().name()
    }
}

/// Per-thread SMR state.  Handles are not `Sync`: each worker thread owns one.
pub trait SmrHandle {
    /// Guard marking a critical section (one data-structure operation).
    type Guard<'g>: SmrGuard
    where
        Self: 'g;

    /// Enters a critical section: publishes the epoch/era, makes the thread
    /// visible to reclaimers.  Dropping the guard leaves the critical section.
    ///
    /// Also re-binds the handle's slot to the calling thread's liveness
    /// beacon (a pointer compare on the already-bound fast path; see
    /// [`registry::PinBinding`]).
    ///
    /// # Panics
    /// If the handle's slot was adopted by a surviving thread — the thread
    /// that last pinned through this handle (or registered it, if it was
    /// never pinned) exited while the handle sat unpinned on another thread.
    /// The panic fires *before* any reservation is published, so an adopted
    /// handle can never corrupt the domain; treat it as "this handle died
    /// with its last thread, register a new one".
    #[must_use = "dropping the guard immediately leaves the critical section"]
    fn pin(&mut self) -> Self::Guard<'_>;

    /// Forces a reclamation attempt (limbo scan / epoch advance), regardless
    /// of the amortization threshold.  Used by tests and at thread shutdown.
    fn flush(&mut self);
}

/// Operations available inside a critical section.  The method set mirrors the
/// paper's Figure 1 plus allocation and retirement.
///
/// Guards are `!Send` and `!Sync`: a guard *is* the pinning thread's read-side
/// critical section, and the slot registry's orphan detection relies on the
/// slot's liveness beacon tracking exactly that thread — a guard that crossed
/// threads could have its protections neutralized the moment the pinning
/// thread exits, while the new thread is still dereferencing through them.
/// The compiler enforces this:
///
/// ```compile_fail
/// use scot_smr::{Hp, Smr, SmrConfig, SmrHandle};
///
/// let domain = Hp::new(SmrConfig::default());
/// let mut handle = domain.register();
/// let guard = handle.pin();
/// std::thread::scope(|s| {
///     s.spawn(move || drop(guard)); // ERROR: guards are `!Send`
/// });
/// ```
pub trait SmrGuard {
    /// Address of the reclamation domain this guard publishes its protections
    /// into.  Data structures use it as a brand: an operation handed a guard
    /// from a *different* domain would publish hazard slots / epoch
    /// announcements where no reclaimer of its own domain ever looks, so the
    /// `scot` structures reject foreign guards with this one pointer compare.
    fn domain_addr(&self) -> usize;
    /// Reads `src` and protects the result in hazard slot `idx`
    /// (`protect` in Figure 1).
    ///
    /// * HP: publishes the (untagged) pointer in the slot and re-reads `src`
    ///   until stable.
    /// * HE: publishes the current era in the slot's reservation and re-reads
    ///   until the era is stable.
    /// * IBR / Hyaline-1S: extends the thread's interval to the current era
    ///   and re-reads until stable (slots are ignored).
    /// * EBR / NBR / VBR / NR: a plain `Acquire` load.
    ///
    /// The returned pointer preserves tag bits; the published protection always
    /// refers to the untagged address.
    fn protect<T>(&mut self, idx: usize, src: &Atomic<T>) -> Shared<T>;

    /// Publishes an already-validated pointer in slot `idx` without re-reading
    /// any source.  Only meaningful for HP/HE; no-op elsewhere.  The caller is
    /// responsible for re-validating reachability afterwards (this is exactly
    /// the SCOT validation step).
    fn announce<T>(&mut self, idx: usize, ptr: Shared<T>);

    /// Copies the protection in slot `from` to slot `to` (`dup` in Figure 1).
    /// Per §3.2, callers must only duplicate from a lower to a higher index on
    /// the traversal path they rely on.
    fn dup(&mut self, from: usize, to: usize);

    /// Clears slot `idx`.
    fn clear(&mut self, idx: usize);

    /// Allocates a new SMR-managed node, stamping its birth era.
    fn alloc<T: Send + 'static>(&mut self, value: T) -> Shared<T>;

    /// Retires a node that has been unlinked from the data structure.  The
    /// node is reclaimed (destructor run, memory freed) once the scheme can
    /// prove no thread still holds a protected reference.  This is
    /// [`SmrGuard::retire_batch`] on a one-element batch: every scheme has
    /// one retire path.
    ///
    /// # Safety
    /// * `ptr` must have been produced by [`SmrGuard::alloc`] on this domain.
    /// * The node must be unreachable for new operations (physically unlinked).
    /// * It must be retired exactly once.
    #[inline]
    unsafe fn retire<T: Send + 'static>(&mut self, ptr: Shared<T>) {
        // SAFETY: forwarded — the caller guarantees the retire contract for
        // the batch's only element.
        unsafe { self.retire_batch(std::slice::from_ref(&ptr)) };
    }

    /// Immediately frees a node that was allocated but never published to the
    /// data structure (e.g. an `Insert` that lost its CAS and gives up).
    ///
    /// # Safety
    /// No other thread may have observed the pointer.
    unsafe fn dealloc<T>(&mut self, ptr: Shared<T>);

    /// Polls whether the scheme has asked this reader to restart its current
    /// operation (the checkpoint/neutralize protocol).
    ///
    /// NBR raises this when the reader's checkpoint era lags the global era
    /// and is blocking reclamation; VBR raises it when the global epoch has
    /// advanced far enough past the epoch announced at [`SmrHandle::pin`]
    /// that continuing would delay recycling.  All other schemes never ask.
    ///
    /// Ignoring the request is always *safe* — protection is carried entirely
    /// by the published checkpoint era/epoch, and the flag is only a progress
    /// accelerator — but a cooperative reader should answer it by calling
    /// [`SmrGuard::checkpoint`] and restarting its traversal from the
    /// structure root (the `Restart::Operation` rung of the `scot` cursor's
    /// restart ladder).
    #[inline]
    fn needs_restart(&self) -> bool {
        false
    }

    /// Acknowledges a pending restart request: discards every protection
    /// established since [`SmrHandle::pin`] and re-announces the current
    /// era/epoch, as if the guard had been dropped and re-pinned.
    ///
    /// After this call **all previously read pointers are void** — hazard
    /// slots may be reused for other nodes and era-protected blocks may be
    /// reclaimed — so callers must hold no `Shared` pointers across it and
    /// must restart from the structure root.  The `scot` cursor only polls
    /// [`SmrGuard::needs_restart`] at points where the calling operation
    /// keeps no cross-seek state, which is what makes the blanket restart
    /// sound.  No-op for schemes without the checkpoint protocol.
    #[inline]
    fn checkpoint(&mut self) {}

    /// Retires a batch of unlinked nodes in one call — a traversal unlinking a
    /// whole marked chain retires every node of the chain at once.  Schemes
    /// update the slot's retire record and run the amortized era/scan
    /// bookkeeping **once per batch** instead of once per node.
    ///
    /// # Safety
    /// Every pointer in `batch` must individually satisfy the
    /// [`SmrGuard::retire`] contract: produced by [`SmrGuard::alloc`] on this
    /// domain, physically unlinked, and retired exactly once.
    unsafe fn retire_batch<T: Send + 'static>(&mut self, batch: &[Shared<T>]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limbo::Domain;

    /// Shared body of every scheme's `retire_batch_reclaims_like_per_node_retire`:
    /// a batch of `nodes` fresh blocks retired in one call is fully reclaimed
    /// after `flushes` forced passes, exactly as per-node retirement would be.
    pub(crate) fn retire_batch_reclaims_like_per_node_retire<S: Smr>(
        config: SmrConfig,
        nodes: u64,
        flushes: usize,
    ) {
        let d = S::new(config);
        let mut h = d.register();
        {
            let mut g = h.pin();
            let batch: Vec<_> = (0..nodes).map(|i| g.alloc(i)).collect();
            // SAFETY: each block was just allocated and never published, so
            // this thread is its sole owner and retires it exactly once.
            unsafe { g.retire_batch(&batch) };
        }
        for _ in 0..flushes {
            h.flush();
        }
        assert_eq!(d.unreclaimed(), 0, "{}", d.name());
    }

    /// Shared body of every scheme's `leaked_handle_on_dead_thread_is_adopted`:
    /// a thread retires `nodes` blocks and exits with its handle leaked —
    /// and, under `leak_guard`, with its guard leaked too, so the reservation
    /// protecting the blocks stays published and the slot stays claimed past
    /// thread death.  A survivor must adopt the slot (neutralizing the
    /// reservation) and drain its vault within `flushes` forced passes.
    #[expect(
        clippy::mem_forget,
        reason = "a thread that dies without releasing its guard or handle"
    )]
    pub(crate) fn leaked_handle_on_dead_thread_is_adopted<S: Smr>(
        config: SmrConfig,
        nodes: u64,
        leak_guard: bool,
        flushes: usize,
    ) -> Arc<S> {
        let d = S::new(config);
        {
            let d = d.clone();
            std::thread::spawn(move || {
                let mut h = d.register();
                let mut g = h.pin();
                for i in 0..nodes {
                    let p = g.alloc(i);
                    if leak_guard {
                        g.protect(0, &Atomic::new(p));
                    }
                    // SAFETY: `p` is test-local and retired exactly once; a
                    // reservation published above is exactly what keeps this
                    // retire from freeing it.
                    unsafe { g.retire(p) };
                }
                if leak_guard {
                    std::mem::forget(g);
                } else {
                    drop(g);
                }
                std::mem::forget(h);
            })
            .join()
            .unwrap();
        }
        assert_eq!(d.unreclaimed(), nodes as usize, "{}", d.name());
        let mut h = d.register();
        for _ in 0..flushes {
            h.flush();
        }
        assert_eq!(
            d.unreclaimed(),
            0,
            "{}: a survivor must adopt the dead thread's slot, neutralize its \
             reservation and drain its vault",
            d.name()
        );
        d
    }

    /// Shared body of `dead_slot_is_recycled_after_one_flush_under_every_scheme`:
    /// with both slots claimed and one owner's exit simulated (no thread is
    /// spawned, so this runs under Miri), registration fails until one
    /// survivor `flush` adopts the dead slot, and then succeeds on the
    /// recycled index.  The dead handle is dropped last: its claim is stale
    /// by then, and its release must leave the new claim alone.
    fn dead_slot_is_recycled_after_one_flush<S: Smr + Domain>() {
        let d = S::new(SmrConfig {
            max_threads: 2,
            ..SmrConfig::default()
        });
        let mut survivor = d.register();
        let dead = d.register();
        let registry = d.core().registry();
        registry.simulate_owner_exit(1);
        assert_eq!(
            d.try_register().err(),
            Some(SmrError::RegistryFull { capacity: 2 }),
            "{}",
            d.name()
        );
        survivor.flush();
        assert!(!registry.is_claimed(1), "{}: adopted", d.name());
        let recycled = d.try_register().expect("the adopted slot is free");
        assert!(registry.is_claimed(1), "{}: recycled", d.name());
        drop(dead);
        assert!(registry.is_claimed(1), "{}: stale release", d.name());
        drop((recycled, survivor));
    }

    #[test]
    fn dead_slot_is_recycled_after_one_flush_under_every_scheme() {
        dead_slot_is_recycled_after_one_flush::<Nr>();
        dead_slot_is_recycled_after_one_flush::<Ebr>();
        dead_slot_is_recycled_after_one_flush::<Hp>();
        dead_slot_is_recycled_after_one_flush::<He>();
        dead_slot_is_recycled_after_one_flush::<Ibr>();
        dead_slot_is_recycled_after_one_flush::<Hyaline>();
        dead_slot_is_recycled_after_one_flush::<Nbr>();
        dead_slot_is_recycled_after_one_flush::<Vbr>();
    }

    /// Era cadence is batch-invariant: retiring `K` nodes singly (`retire`)
    /// and in batches of 1..=16 (`retire_batch`) advances the scheme's global
    /// clock the same number of times, `K` spanning several multiples of
    /// `epoch_freq`.  `clock` reads the scheme's global era/epoch.
    pub(crate) fn retire_cadence_is_batch_invariant<S: Smr>(clock: impl Fn(&S) -> u64) {
        let config = SmrConfig {
            max_threads: 2,
            scan_threshold: 1024,
            epoch_freq_per_thread: 5,
            ..SmrConfig::default()
        };
        const K: usize = 47;
        let freq = config.epoch_freq();
        let advances = |batch: usize| {
            let d = S::new(config.clone());
            let mut h = d.register();
            let mut g = h.pin();
            let nodes: Vec<_> = (0..K as u64).map(|i| g.alloc(i)).collect();
            let before = clock(&d);
            for chunk in nodes.chunks(batch.max(1)) {
                // SAFETY: each block was just allocated and never published,
                // so this thread is its sole owner and retires it exactly once.
                unsafe {
                    match batch {
                        0 => g.retire(chunk[0]),
                        _ => g.retire_batch(chunk),
                    }
                }
            }
            clock(&d) - before
        };
        let singly = advances(0);
        assert!(
            (K / freq..=K / freq + 1).contains(&(singly as usize)),
            "{K} retires at epoch_freq {freq} advanced the clock {singly} times"
        );
        for batch in 1..=16 {
            assert_eq!(advances(batch), singly, "batch={batch}");
        }
    }

    /// Payload that records, from inside its destructor, the highest strong
    /// count of the domain `Arc` any clone of it saw.  Destructors run in the
    /// middle of `retire`, a sweep or a guard drop, so this is the one vantage
    /// point from which a clone taken *and dropped again* inside those calls
    /// is visible; the count sampled between calls never moves.
    pub(crate) struct CountProbe<S> {
        domain: std::sync::Weak<S>,
        max_seen: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl<S> CountProbe<S> {
        pub(crate) fn new(domain: &Arc<S>) -> Self {
            Self {
                domain: Arc::downgrade(domain),
                max_seen: Arc::default(),
            }
        }

        /// Highest strong count any dropped clone observed (0 if none ran).
        pub(crate) fn max_seen(&self) -> usize {
            self.max_seen.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl<S> Clone for CountProbe<S> {
        fn clone(&self) -> Self {
            Self {
                domain: self.domain.clone(),
                max_seen: self.max_seen.clone(),
            }
        }
    }

    impl<S> Drop for CountProbe<S> {
        fn drop(&mut self) {
            let count = self.domain.strong_count();
            self.max_seen
                .fetch_max(count, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// The per-operation path is refcount-free: the domain's strong count
    /// changes on `register` and on handle drop, and nowhere in 1 000 ×
    /// {`pin`, `protect`, `alloc`, `retire`, guard drop} or `flush`
    /// — neither between the calls nor (see [`CountProbe`]) inside them.
    fn per_operation_path_leaves_the_refcount_alone<S: Smr>(config: SmrConfig) {
        let d = S::new(config);
        let unregistered = Arc::strong_count(&d);
        let mut h = d.register();
        let held = Arc::strong_count(&d);
        assert_eq!(held, unregistered + 1, "{}: register takes one", d.name());
        let probe = CountProbe::new(&d);
        for _ in 0..1000 {
            let mut g = h.pin();
            let cell = Atomic::new(g.alloc(probe.clone()));
            let seen = g.protect(0, &cell);
            // SAFETY: `seen` is test-local, unreachable to other threads and
            // retired exactly once.
            unsafe { g.retire(seen) };
            assert_eq!(Arc::strong_count(&d), held, "{}: inside a guard", d.name());
            drop(g);
            assert_eq!(Arc::strong_count(&d), held, "{}: guard drop", d.name());
        }
        h.flush();
        assert_eq!(Arc::strong_count(&d), held, "{}: flush", d.name());
        if d.kind() != SmrKind::Nr {
            assert_eq!(probe.max_seen(), held, "{}: inside a call", d.name());
        }
        drop(h);
        assert_eq!(Arc::strong_count(&d), unregistered, "{}: drop", d.name());
    }

    #[test]
    fn per_operation_path_leaves_the_refcount_alone_under_every_scheme() {
        let config = || SmrConfig {
            max_threads: 4,
            scan_threshold: 8,
            epoch_freq_per_thread: 1,
            ..SmrConfig::default()
        };
        per_operation_path_leaves_the_refcount_alone::<Nr>(config());
        per_operation_path_leaves_the_refcount_alone::<Ebr>(config());
        per_operation_path_leaves_the_refcount_alone::<Hp>(config());
        per_operation_path_leaves_the_refcount_alone::<He>(config());
        per_operation_path_leaves_the_refcount_alone::<Ibr>(config());
        per_operation_path_leaves_the_refcount_alone::<Hyaline>(config());
        per_operation_path_leaves_the_refcount_alone::<Nbr>(config());
        per_operation_path_leaves_the_refcount_alone::<Vbr>(config());
    }

    /// Shared body of `every_guard_fits_its_layout`: a guard of `S` is
    /// `bytes` long.
    fn guard_fits<S: Smr>(bytes: usize) {
        let size = std::mem::size_of::<<S::Handle as SmrHandle>::Guard<'static>>();
        assert_eq!(size, bytes, "{}", std::any::type_name::<S>());
    }

    /// Guard sizes on a 64-bit target, in bytes: the lent-out handle (three
    /// words), the reservation slot (one), and the scheme's state — HP's
    /// budget and mask, IBR's cached upper bound, VBR's operation epoch,
    /// Hyaline's acknowledgement boundary and cached era.  A guard is what a
    /// traversal keeps in registers or spills per hop, so growth shows up
    /// here before it shows up in a benchmark.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn every_guard_fits_its_layout() {
        guard_fits::<Ebr>(32);
        guard_fits::<Hp>(40);
        guard_fits::<He>(32);
        guard_fits::<Ibr>(40);
        guard_fits::<Hyaline>(48);
        guard_fits::<Nbr>(32);
        guard_fits::<Vbr>(40);
        guard_fits::<Nr>(32);
    }

    #[test]
    fn kind_parse_roundtrip() {
        assert_eq!(SmrKind::ALL.len(), 11, "8 families, 11 variants");
        for k in SmrKind::ALL {
            assert_eq!(SmrKind::parse(k.name()), Some(k));
        }
        assert_eq!(SmrKind::parse("ebr"), Some(SmrKind::Ebr));
        assert_eq!(SmrKind::parse("hyaline-1s"), Some(SmrKind::Hyaline));
        assert_eq!(SmrKind::parse("nbr"), Some(SmrKind::Nbr));
        assert_eq!(SmrKind::parse("NBR+"), Some(SmrKind::Nbr));
        assert_eq!(SmrKind::parse("neutralization"), Some(SmrKind::Nbr));
        assert_eq!(SmrKind::parse("vbr"), Some(SmrKind::Vbr));
        assert_eq!(SmrKind::parse("version"), Some(SmrKind::Vbr));
        assert_eq!(SmrKind::parse("versioned"), Some(SmrKind::Vbr));
        assert_eq!(SmrKind::parse("bogus"), None);
    }

    #[test]
    fn robustness_classification() {
        // The cooperative checkpoint schemes share EBR's stalled-reader
        // weakness (see `SmrKind::is_robust`).
        for k in [SmrKind::Nr, SmrKind::Ebr, SmrKind::Nbr, SmrKind::Vbr] {
            assert!(!k.is_robust(), "{k} should not claim robustness");
        }
        for k in [
            SmrKind::Hp,
            SmrKind::HpOpt,
            SmrKind::He,
            SmrKind::Ibr,
            SmrKind::Hyaline,
        ] {
            assert!(k.is_robust(), "{k} should be robust");
        }
    }

    #[test]
    fn checkpoint_protocol_defaults_to_no_restarts() {
        // Schemes without the checkpoint protocol inherit the trait defaults:
        // never ask for a restart, and acknowledge as a no-op.
        let d = Ebr::new(SmrConfig {
            max_threads: 1,
            ..SmrConfig::default()
        });
        let mut h = d.register();
        let mut g = h.pin();
        assert!(!g.needs_restart());
        g.checkpoint();
        assert!(!g.needs_restart());
    }

    /// Shared body of `try_register_surfaces_slot_exhaustion`: with both
    /// slots claimed, `try_register` reports the exact capacity and
    /// `register` panics naming the knob to raise; a dropped handle's slot
    /// serves the next registration.  Single-threaded, so it runs under Miri.
    fn slot_exhaustion_surfaces<S: Smr>() {
        let d = S::new(SmrConfig {
            max_threads: 2,
            ..SmrConfig::default()
        });
        let a = d.try_register().expect("slot 0 must be free");
        let _b = d.try_register().expect("slot 1 must be free");
        let full = Some(SmrError::RegistryFull { capacity: 2 });
        assert_eq!(d.try_register().err(), full, "{}", d.name());
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.register()))
            .err()
            .expect("a full domain must refuse `register`");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some(
                "SMR thread registration failed: all 2 thread slots are claimed; \
                 raise SmrConfig::max_threads"
            ),
            "{}",
            d.name()
        );
        drop(a);
        let _c = d.try_register().expect("released slot must be reclaimable");
    }

    #[test]
    fn try_register_surfaces_slot_exhaustion() {
        slot_exhaustion_surfaces::<Nr>();
        slot_exhaustion_surfaces::<Ebr>();
        slot_exhaustion_surfaces::<Hp>();
        slot_exhaustion_surfaces::<He>();
        slot_exhaustion_surfaces::<Ibr>();
        slot_exhaustion_surfaces::<Hyaline>();
        slot_exhaustion_surfaces::<Nbr>();
        slot_exhaustion_surfaces::<Vbr>();
    }

    /// `kind()` and `name()` of a fresh `S`, without and with
    /// `snapshot_scan`.
    fn reported<S: Smr>() -> [(SmrKind, &'static str); 2] {
        [false, true].map(|snapshot_scan| {
            let d = S::new(SmrConfig {
                max_threads: 1,
                snapshot_scan,
                ..SmrConfig::default()
            });
            (d.kind(), d.name())
        })
    }

    /// Every scheme reports its legend under both scan modes — HP, HE and IBR
    /// their `*opt` variant under `snapshot_scan`, the rest their base kind
    /// either way — every name parses back to its kind, and together the
    /// eight schemes report every kind of [`SmrKind::ALL`].
    #[test]
    fn every_scheme_reports_its_kind_in_both_scan_modes() {
        let cases = [
            (reported::<Nr>(), [SmrKind::Nr, SmrKind::Nr]),
            (reported::<Ebr>(), [SmrKind::Ebr, SmrKind::Ebr]),
            (reported::<Hp>(), [SmrKind::Hp, SmrKind::HpOpt]),
            (reported::<He>(), [SmrKind::He, SmrKind::HeOpt]),
            (reported::<Ibr>(), [SmrKind::Ibr, SmrKind::IbrOpt]),
            (reported::<Hyaline>(), [SmrKind::Hyaline, SmrKind::Hyaline]),
            (reported::<Nbr>(), [SmrKind::Nbr, SmrKind::Nbr]),
            (reported::<Vbr>(), [SmrKind::Vbr, SmrKind::Vbr]),
        ];
        for (got, want) in cases {
            for ((kind, name), want) in got.into_iter().zip(want) {
                assert_eq!(kind, want);
                assert_eq!(name, want.name());
                assert_eq!(SmrKind::parse(name), Some(kind));
            }
        }
        for k in SmrKind::ALL {
            let by_some_scheme = cases
                .iter()
                .any(|(got, _)| got.iter().any(|&(kind, _)| kind == k));
            assert!(by_some_scheme, "no scheme reports {k}");
        }
    }

    #[test]
    #[should_panic(expected = "raise SmrConfig::max_threads")]
    fn register_panics_when_full() {
        let d = Ebr::new(SmrConfig {
            max_threads: 1,
            ..SmrConfig::default()
        });
        let _a = d.register();
        let _b = d.register();
    }

    #[test]
    fn config_validation_rejects_degenerate_values() {
        let zero_threads = SmrConfig {
            max_threads: 0,
            ..SmrConfig::default()
        };
        assert_eq!(
            zero_threads.validate(),
            Err(SmrError::InvalidConfig("max_threads must be >= 1"))
        );
        let zero_scan = SmrConfig {
            scan_threshold: 0,
            ..SmrConfig::default()
        };
        assert_eq!(
            zero_scan.validate(),
            Err(SmrError::InvalidConfig("scan_threshold must be >= 1"))
        );
        assert!(SmrConfig::default().validate().is_ok());
        // The error renders a human-readable constraint.
        assert!(zero_scan
            .validate()
            .unwrap_err()
            .to_string()
            .contains(">= 1"));
    }

    #[test]
    #[should_panic(expected = "max_threads must be >= 1")]
    fn domain_construction_rejects_invalid_config() {
        let _ = Ibr::new(SmrConfig {
            max_threads: 0,
            ..SmrConfig::default()
        });
    }

    #[test]
    fn config_defaults_match_paper_calibration() {
        let c = SmrConfig::default();
        assert_eq!(c.scan_threshold, 128);
        assert_eq!(c.epoch_freq_per_thread, 12);
        assert_eq!(c.pool_blocks(), 2 * c.scan_threshold);
        // The auto-sized pool tracks scan_threshold.
        let small = SmrConfig {
            scan_threshold: 8,
            ..SmrConfig::default()
        };
        assert_eq!(small.pool_blocks(), 16);
        let c = SmrConfig::for_threads(16);
        assert_eq!(c.epoch_freq(), 12 * 18);
        assert_eq!(SmrConfig::default().without_pool().pool_blocks(), 0);
        assert_eq!(
            SmrConfig::default().with_pool_capacity(64).pool_blocks(),
            64
        );
    }
}
