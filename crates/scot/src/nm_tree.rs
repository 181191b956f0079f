//! The Natarajan-Mittal lock-free external binary search tree with **SCOT**
//! safe optimistic traversals (paper §3.3, Figure 6).
//!
//! # The data structure
//!
//! The tree is *external* (leaf-oriented): every key lives in a leaf, internal
//! nodes carry routing keys only.  Concurrent deletion works on *edges* rather
//! than nodes, using two mark bits stolen from child pointers:
//!
//! * **flag** — set on the edge to a leaf that is being deleted (the paper's
//!   analogue of Harris' logical deletion; the delete linearizes here);
//! * **tag**  — set on the sibling edge underneath the leaf's parent so no
//!   insertion can slip in while the parent is being removed.
//!
//! A `CleanUp` then prunes the whole chain of tagged edges with a **single
//! CAS** on the deepest untagged edge above it (from the *ancestor* to the
//! *successor*), which is what makes this tree faster than Ellen et al.'s —
//! and also exactly the optimistic traversal that is unsafe under HP/HE/IBR/
//! Hyaline without SCOT: a concurrent `Seek` can walk across tagged edges into
//! nodes that the pruning CAS has already handed to the reclaimer.
//!
//! # SCOT for the tree
//!
//! Five hazard slots are used (paper §3.3): `Hp0` the child pointer being
//! followed, `Hp1` the current leaf candidate, `Hp2` its parent, `Hp3` the
//! successor (entrance of the tagged zone) and `Hp4` the ancestor.  Whenever
//! the traversal crosses a **marked** (flagged or tagged) edge, it first
//! validates that the deepest clean edge above the destination still holds its
//! recorded value — `ancestor → successor` inside a tagged chain, or the
//! immediate parent edge when that edge is itself still clean — and restarts
//! the whole `Seek` if the validation fails.  Per §3.2.2 the tree does not use
//! the recovery optimization: diverging traversals simply restart.

use crate::slots::{HP_ANC, HP_CHILD, HP_LEAF, HP_PARENT, HP_SUCC, HP_VICTIM};
use crate::traverse::{owned, TraversalStats};
use crate::{Key, RangeScan, TraversalSnapshot, Value};
use scot_smr::{Atomic, Link, Shared, Smr, SmrConfig, SmrGuard, SmrHandle};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Edge mark: the child is a leaf undergoing deletion.
const FLAG: usize = 1;
/// Edge mark: no insertion may occur under this edge (sibling of a flagged
/// leaf whose parent is being removed).
const TAG: usize = 2;

/// Routing/leaf key with the three sentinel infinities of the original paper
/// (`Fin(k) < Inf0 < Inf1 < Inf2` for every real key `k`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum TreeKey<K> {
    /// A real key.
    Fin(K),
    /// Smallest sentinel (initial leaf under `S`).
    Inf0,
    /// Middle sentinel (right leaf of `S`).
    Inf1,
    /// Largest sentinel (root `R` and its right leaf).
    Inf2,
}

impl<K: Ord> PartialOrd for TreeKey<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for TreeKey<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        use TreeKey::*;
        match (self, other) {
            (Fin(a), Fin(b)) => a.cmp(b),
            (Fin(_), _) => Less,
            (_, Fin(_)) => Greater,
            (Inf0, Inf0) | (Inf1, Inf1) | (Inf2, Inf2) => Equal,
            (Inf0, _) => Less,
            (_, Inf0) => Greater,
            (Inf1, _) => Less,
            (_, Inf1) => Greater,
        }
    }
}

/// A tree node.  Leaves have two null children; internal nodes always have two
/// non-null children (external-tree invariant).  Only leaves holding a real
/// (`Fin`) key carry a value; routing nodes and the sentinels store `None`, so
/// the external-tree shape is reflected in the type: values live exactly where
/// keys are authoritative.
pub(crate) struct TreeNode<K, V> {
    pub(crate) key: TreeKey<K>,
    pub(crate) value: Option<V>,
    pub(crate) left: Atomic<TreeNode<K, V>>,
    pub(crate) right: Atomic<TreeNode<K, V>>,
}

impl<K, V> TreeNode<K, V> {
    fn sentinel_leaf(key: TreeKey<K>) -> Self {
        Self {
            key,
            value: None,
            left: Atomic::null(),
            right: Atomic::null(),
        }
    }
}

/// A generalized seek target: the ordinary "descend to `key`'s leaf" of the
/// paper, or the strictly-above probe the range scan's leaf-successor walk
/// uses ("descend to the position of `k + ε`").
#[derive(Clone, Copy, Debug)]
enum SeekQuery<K> {
    /// Descend to the leaf on `key`'s search path (the paper's `Seek(k)`).
    At(TreeKey<K>),
    /// Descend to where a key infinitesimally above `k` would live; the leaf
    /// reached is either the successor of `k` or its predecessor (whose
    /// interval upper bound — the deepest left-turn routing key — then names
    /// where the successor must be looked up).
    Above(K),
}

impl<K: Key> SeekQuery<K> {
    /// Whether the descent turns left at a node with routing key `routing`.
    #[inline]
    fn goes_left(&self, routing: &TreeKey<K>) -> bool {
        match self {
            SeekQuery::At(q) => q < routing,
            // `k + ε < routing ⟺ Fin(k) < routing`: routing keys are realized
            // key values, so nothing can sit strictly between `k` and `k + ε`.
            SeekQuery::Above(k) => &TreeKey::Fin(*k) < routing,
        }
    }

    /// Whether a leaf holding `key` satisfies this query's lower bound.
    #[inline]
    fn admits(&self, key: &K) -> bool {
        match self {
            SeekQuery::At(q) => &TreeKey::Fin(*key) >= q,
            SeekQuery::Above(k) => key > k,
        }
    }
}

/// The Natarajan-Mittal ordered map with SCOT traversals, parameterized by the
/// reclamation scheme (`V = ()` gives the paper's membership set).
///
/// ```
/// use scot::{ConcurrentSet, NmTree};
/// use scot_smr::{He, Smr, SmrConfig};
///
/// let tree: NmTree<u64, He> = NmTree::new(He::new(SmrConfig::default()));
/// let mut h = tree.handle();
/// assert!(tree.insert(&mut h, 11));
/// assert!(tree.contains(&mut h, &11));
/// assert!(tree.remove(&mut h, &11));
/// ```
pub struct NmTree<K, S: Smr, V = ()> {
    /// Root sentinel `R` (key `Inf2`); `R.left = S`, `R.right = leaf(Inf2)`.
    root: Shared<TreeNode<K, V>>,
    smr: Arc<S>,
    stats: TraversalStats,
}

// SAFETY: the structure owns its nodes; every cross-thread access goes through atomic links and the SMR protocol.
unsafe impl<K: Key, S: Smr, V: Value> Send for NmTree<K, S, V> {}
// SAFETY: shared access is mediated by atomic links and guard-protected traversal; there is no unsynchronized interior mutability.
unsafe impl<K: Key, S: Smr, V: Value> Sync for NmTree<K, S, V> {}

/// Per-thread handle for [`NmTree`].
pub struct NmTreeHandle<S: Smr> {
    pub(crate) smr: S::Handle,
}

impl<S: Smr> NmTreeHandle<S> {
    /// Forces a reclamation pass on this thread's SMR handle.
    pub fn flush(&mut self) {
        self.smr.flush();
    }
}

impl<K: Key, S: Smr, V: Value> NmTree<K, S, V> {
    /// Creates an empty tree (sentinel structure of the original paper)
    /// managed by the given reclamation domain.
    pub fn new(smr: Arc<S>) -> Self {
        // Sentinels are allocated outside any guard: they are never retired,
        // so their (zero) birth era is irrelevant to every scheme.
        let leaf_inf0 = Shared::from_ptr(scot_smr::alloc_block(TreeNode::sentinel_leaf(
            TreeKey::Inf0,
        )));
        let leaf_inf1 = Shared::from_ptr(scot_smr::alloc_block(TreeNode::sentinel_leaf(
            TreeKey::Inf1,
        )));
        let leaf_inf2 = Shared::from_ptr(scot_smr::alloc_block(TreeNode::sentinel_leaf(
            TreeKey::Inf2,
        )));
        let s_node = Shared::from_ptr(scot_smr::alloc_block(TreeNode {
            key: TreeKey::Inf1,
            value: None,
            left: Atomic::new(leaf_inf0),
            right: Atomic::new(leaf_inf1),
        }));
        let r_node = Shared::from_ptr(scot_smr::alloc_block(TreeNode {
            key: TreeKey::Inf2,
            value: None,
            left: Atomic::new(s_node),
            right: Atomic::new(leaf_inf2),
        }));
        Self {
            root: r_node,
            smr,
            stats: TraversalStats::default(),
        }
    }

    /// Creates an empty tree with a freshly created domain using `config`.
    pub fn with_config(config: SmrConfig) -> Self {
        Self::new(S::new(config))
    }

    /// The reclamation domain backing this tree.
    pub fn domain(&self) -> &Arc<S> {
        &self.smr
    }

    /// Registers the calling thread.
    pub fn handle(&self) -> NmTreeHandle<S> {
        NmTreeHandle {
            smr: self.smr.register(),
        }
    }

    /// The root sentinel `R` (always alive).
    #[inline]
    #[expect(clippy::disallowed_methods, reason = "the root sentinel constructor")]
    fn root_ref(&self) -> &TreeNode<K, V> {
        // SAFETY: the root sentinel is allocated in `new` and freed only in
        // `drop`, so it is alive for the lifetime of `&self`.
        unsafe { self.root.deref() }
    }

    /// One operation's seek record, positioned by a first `Seek::reseek`.
    fn seek<'t, 'g, G: SmrGuard>(
        &'t self,
        g: &'g mut G,
        query: &SeekQuery<K>,
        checkpoints: bool,
    ) -> Seek<'t, 'g, G, K, V> {
        let mut s = Seek::new(self, g);
        s.reseek(query, checkpoints);
        s
    }

    /// Visits every live `(key, value)` leaf pair (testing/diagnostics; must
    /// not run concurrently with removals under robust schemes — see
    /// [`crate::ConcurrentMap::collect`]).
    fn walk<F: FnMut(&K, &V)>(&self, mut f: F) {
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            if node.is_null() {
                continue;
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "a quiescent walk: no node is retired while it runs"
            )]
            // SAFETY: quiescent traversal (test/diagnostic use only).
            let node_ref = unsafe { node.untagged().deref() };
            let left = node_ref.left.load(Ordering::Acquire);
            let right = node_ref.right.load(Ordering::Acquire);
            if left.untagged().is_null() && right.untagged().is_null() {
                if let (TreeKey::Fin(k), Some(v)) = (&node_ref.key, &node_ref.value) {
                    f(k, v);
                }
            } else {
                stack.push(left.untagged());
                stack.push(right.untagged());
            }
        }
    }
}

/// The seek record of the paper's Figure 6 — the nodes a `Seek` leaves
/// behind — plus the fields (links) of its two CAS-able edges.
struct Record<K, V> {
    /// The successor: the node below the deepest untagged edge.
    successor: Shared<TreeNode<K, V>>,
    /// Parent of the leaf, protected by `HP_PARENT`.
    parent: Shared<TreeNode<K, V>>,
    /// The leaf, protected by `HP_LEAF`.
    leaf: Shared<TreeNode<K, V>>,
    /// The ancestor's child field on the search path (CAS target of
    /// CleanUp); the ancestor is protected by `HP_ANC` (or is R).
    ancestor_link: Link<TreeNode<K, V>>,
    /// The parent's child field holding the edge into `leaf`.
    parent_link: Link<TreeNode<K, V>>,
    /// Value of the parent → leaf edge when it was traversed (marks included).
    parent_edge: Shared<TreeNode<K, V>>,
    /// Routing key of the deepest node at which the descent turned left: the
    /// upper bound of the reached leaf's key interval.  The range scan's
    /// successor walk resumes from it when the seek lands on a predecessor.
    left_turn: TreeKey<K>,
    /// The removal victim parked in `HP_VICTIM` (the root sentinel if none).
    victim: Shared<TreeNode<K, V>>,
}

impl<K, V> Record<K, V> {
    /// The leaf the seek reached.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "the seek record's leaf constructor"
    )]
    fn leaf(&self) -> &TreeNode<K, V> {
        // SAFETY: `leaf` is protected by `HP_LEAF` and was validated when it
        // was the child being followed (or is a sentinel, never retired).
        unsafe { self.leaf.deref() }
    }

    /// The leaf's parent.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "the seek record's parent constructor"
    )]
    fn parent(&self) -> &TreeNode<K, V> {
        // SAFETY: `parent` is protected by `HP_PARENT` (it was the validated
        // leaf one step earlier), or is a sentinel.
        unsafe { self.parent.deref() }
    }

    /// The parent → leaf edge's field.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "the seek record's parent-edge constructor"
    )]
    fn parent_edge(&self) -> &Atomic<TreeNode<K, V>> {
        // SAFETY: the field belongs to `parent` (see `Record::parent`).
        unsafe { self.parent_link.as_atomic() }
    }

    /// The ancestor → successor edge's field.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "the seek record's ancestor-edge constructor"
    )]
    fn ancestor_edge(&self) -> &Atomic<TreeNode<K, V>> {
        // SAFETY: the field belongs to the ancestor, protected by `HP_ANC`,
        // or to the root sentinel R.
        unsafe { self.ancestor_link.as_atomic() }
    }
}

/// A tree operation's seek: the [`Record`] plus the operation's exclusive
/// `&'g mut` guard borrow, so nothing outside it can recycle the slots the
/// record's accessors rely on.  Built once per operation and re-sought in
/// place.
struct Seek<'t, 'g, G, K, V> {
    g: &'g mut G,
    rec: Record<K, V>,
    /// The root sentinel `R`: never retired, freed only by the tree's `Drop`.
    root: &'t TreeNode<K, V>,
    root_ptr: Shared<TreeNode<K, V>>,
    stats: &'t TraversalStats,
}

impl<'t, 'g, G: SmrGuard, K: Key, V: Value> Seek<'t, 'g, G, K, V> {
    /// A record parked on the root sentinel, before any descent.
    fn new<S: Smr>(tree: &'t NmTree<K, S, V>, g: &'g mut G) -> Self {
        Seek {
            g,
            rec: Record {
                successor: tree.root,
                parent: tree.root,
                leaf: tree.root,
                ancestor_link: tree.root_ref().left.as_link(),
                parent_link: tree.root_ref().left.as_link(),
                parent_edge: Shared::null(),
                left_turn: TreeKey::Inf2,
                victim: tree.root,
            },
            root: tree.root_ref(),
            root_ptr: tree.root,
            stats: &tree.stats,
        }
    }

    /// The leaf the last seek reached.
    #[inline]
    fn leaf(&self) -> &TreeNode<K, V> {
        self.rec.leaf()
    }

    /// The leaf's parent.
    #[inline]
    fn parent(&self) -> &TreeNode<K, V> {
        self.rec.parent()
    }

    /// Allocates a node through the guard.
    #[inline]
    fn alloc(&mut self, node: TreeNode<K, V>) -> Shared<TreeNode<K, V>> {
        self.g.alloc(node)
    }

    /// Frees a node that was never published.
    ///
    /// # Safety
    /// The [`SmrGuard::dealloc`] contract: no other thread observed `node`.
    #[inline]
    unsafe fn dealloc(&mut self, node: Shared<TreeNode<K, V>>) {
        // SAFETY: forwarded to the caller.
        unsafe { self.g.dealloc(node) }
    }

    /// Parks the leaf in `HP_VICTIM`, where it stays protected across the
    /// re-seeks that recycle slots 0–4.  Durable by the §3.2 dup argument:
    /// the leaf is protected by `HP_LEAF` and was validated reachable when
    /// that protection was published.
    #[inline]
    fn pin_victim(&mut self) {
        self.g.dup(HP_LEAF, HP_VICTIM);
        self.rec.victim = self.rec.leaf;
    }

    /// Ends the operation with the leaf, borrowed for as long as the guard.
    #[inline]
    fn into_leaf(self) -> &'g TreeNode<K, V> {
        let node = self.rec.leaf;
        self.into_parked(node)
    }

    /// Ends the operation with the victim parked by `Seek::pin_victim`.
    #[inline]
    fn into_victim(self) -> &'g TreeNode<K, V> {
        let node = self.rec.victim;
        self.into_parked(node)
    }

    /// `node` is the leaf or the victim.  Consuming the record hands its
    /// `&'g mut` guard borrow to the returned node: no later seek can
    /// recycle the slot that protects it while the borrow lives.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "the guard-lifetime leaf constructor"
    )]
    fn into_parked(self, node: Shared<TreeNode<K, V>>) -> &'g TreeNode<K, V> {
        // SAFETY: `node` is protected by `HP_LEAF` or `HP_VICTIM` (durable,
        // see `Record::leaf` / `Seek::pin_victim`); retiring it does not
        // free it while that slot is published, and the slot stays published
        // for `'g`.
        unsafe { node.deref() }
    }

    /// `Seek`: descend to the leaf on the query's search path, maintaining
    /// the seek record and performing SCOT validation on every marked edge.
    /// Per §3.2.2 the tree uses no recovery ladder — a failed validation
    /// restarts the whole seek.
    ///
    /// `checkpoints` enables answering a scheme's restart request
    /// (`SmrGuard::needs_restart`) between descents: the acknowledging
    /// `checkpoint` voids every protection of the guard, which is sound here
    /// because the seek restarts from the immortal root and re-publishes all
    /// slots.  Callers holding a protected pointer of their own across the
    /// seek (the remover's `Hp5` victim after injection) must pass `false`.
    fn reseek(&mut self, query: &SeekQuery<K>, checkpoints: bool) {
        // The descent runs on a local record (kept in registers) and
        // publishes it on completion.
        let (g, stats, root) = (&mut *self.g, self.stats, self.root);
        'restart: loop {
            if checkpoints && g.needs_restart() {
                g.checkpoint();
                stats.record_restart();
                // Fall through: this iteration starts from the root and
                // republishes every slot, which is a complete acknowledgment.
            }
            // R and S are never removed, so no validation is required for the
            // first two levels; the protections are still published so generic
            // dup calls below keep every slot meaningful.
            g.announce(HP_ANC, self.root_ptr);
            let s = g.protect(HP_PARENT, &root.left); // S
            g.dup(HP_PARENT, HP_SUCC);
            let mut rec = Record {
                successor: s,
                parent: s,
                ancestor_link: root.left.as_link(),
                ..self.rec
            };
            let s_left = &rec.parent().left;
            let (link, edge) = (s_left.as_link(), g.protect(HP_LEAF, s_left));
            rec.parent_link = link;
            rec.parent_edge = edge;
            rec.leaf = edge.untagged();
            // The descent into S.left is the implicit deepest left turn so
            // far (S routes everything real to its left, key `Inf1`).
            let mut left_turn = TreeKey::Inf1;
            // Whether the previous step crossed a marked edge: the zone-entry
            // statistic counts contiguous marked chains once, like the list
            // cursor's `enter_zone`, not once per edge.
            let mut in_zone = false;

            loop {
                if checkpoints && g.needs_restart() {
                    g.checkpoint();
                    stats.record_restart();
                    continue 'restart;
                }
                debug_assert!(!rec.leaf.is_null(), "external tree: S.left is never null");
                let leaf = rec.leaf();
                let field = if query.goes_left(&leaf.key) {
                    left_turn = leaf.key;
                    &leaf.left
                } else {
                    &leaf.right
                };
                let child = g.protect(HP_CHILD, field);
                let field = field.as_link();
                if child.tag() != 0 {
                    // SCOT validation: before touching a node reached through
                    // a flagged/tagged edge, confirm the deepest clean edge
                    // above it still holds its recorded value; otherwise the
                    // chain may already have been pruned and reclaimed.
                    if !in_zone {
                        stats.record_zone_entry();
                        in_zone = true;
                    }
                    // ORDERING: Acquire — a successful validation licenses
                    // the deref of `child`.
                    let ok = if rec.parent_edge.tag() == 0 {
                        // The parent edge is the deepest clean edge.
                        rec.parent_edge().load(Ordering::Acquire) == rec.parent_edge
                    } else {
                        // Inside a tagged chain: validate ancestor → successor.
                        rec.ancestor_edge().load(Ordering::Acquire) == rec.successor
                    };
                    if !ok {
                        stats.record_restart();
                        continue 'restart;
                    }
                } else {
                    in_zone = false;
                }
                if child.untagged().is_null() {
                    // `leaf` is an actual leaf: the seek ends here.
                    rec.left_turn = left_turn;
                    self.rec = rec;
                    return;
                }
                // Shift the seek record one level down (Figure 6 roles).
                if rec.parent_edge.tag() & TAG == 0 {
                    // The edge into `leaf` is untagged: it becomes the new
                    // deepest untagged edge strictly above the next level.
                    g.dup(HP_PARENT, HP_ANC);
                    rec.successor = rec.leaf;
                    g.dup(HP_LEAF, HP_SUCC);
                    rec.ancestor_link = rec.parent_link;
                }
                rec.parent = rec.leaf;
                g.dup(HP_LEAF, HP_PARENT);
                rec.leaf = child.untagged();
                g.dup(HP_CHILD, HP_LEAF);
                rec.parent_edge = child;
                rec.parent_link = field;
            }
        }
    }

    /// `CleanUp`: tag the sibling edge and prune the chain of tagged edges
    /// between the successor and the parent with one CAS on the ancestor's
    /// child field.  Returns whether the prune CAS succeeded; the winner
    /// retires every removed node.
    fn cleanup(&mut self, key: &TreeKey<K>) -> bool {
        let parent = self.rec.parent();
        let (child_field, mut sibling_field) = if *key < parent.key {
            (&parent.left, &parent.right)
        } else {
            (&parent.right, &parent.left)
        };
        let child_val = child_field.load(Ordering::Acquire);
        if child_val.tag() & FLAG == 0 {
            // We are helping a deletion whose flagged leaf is the *other*
            // child; the subtree to keep is then on our own search side.
            sibling_field = child_field;
        }
        // Tag the edge to the kept subtree so no insertion can slide under the
        // parent while it is being unlinked.
        loop {
            let v = sibling_field.load(Ordering::Acquire);
            if v.tag() & TAG != 0 {
                break;
            }
            if sibling_field
                .compare_exchange(
                    v,
                    v.with_tag(v.tag() | TAG),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                break;
            }
        }
        let sibling = sibling_field.load(Ordering::Acquire);
        // The promoted edge keeps the sibling's flag (it may itself be a leaf
        // under deletion by another operation) but drops the tag.
        let promoted = sibling.with_tag(sibling.tag() & FLAG);
        // Prune: one CAS on the ancestor's child field replaces the whole
        // chain of tagged edges (successor … parent) and the flagged leaves
        // hanging off it with the kept sibling subtree.
        if self
            .rec
            .ancestor_edge()
            .cas(self.rec.successor, promoted)
            .is_err()
        {
            return false;
        }
        // We won the prune CAS: the chain rooted at `successor` is now
        // unreachable and this thread is its unique retirer.  Retire every
        // internal node from `successor` down to `parent` plus the flagged
        // leaf hanging off each of them, keeping only the subtree rooted at
        // the promoted sibling.
        let kept = sibling.untagged();
        let mut cur = self.rec.successor;
        loop {
            debug_assert!(!cur.is_null());
            // SAFETY: the chain was detached by the prune CAS this thread
            // won, so every node on it is unreachable to new traversals but
            // still allocated — this thread owns it until retire.
            let node = unsafe { owned(cur) };
            let left = node.left.load(Ordering::Acquire);
            let right = node.right.load(Ordering::Acquire);
            // At the parent, retire the child that is not the kept sibling
            // (the flagged leaf of the deletion whose cleanup we completed);
            // an interior chain node has exactly one flagged child edge (its
            // deleted leaf), and the other (tagged) edge continues the chain.
            let (victim, next) = if cur == self.rec.parent {
                (if left.untagged() == kept { right } else { left }, None)
            } else if left.tag() & FLAG != 0 {
                (left, Some(right))
            } else {
                (right, Some(left))
            };
            debug_assert!(victim.untagged() != kept);
            // SAFETY: both nodes hang off the detached chain and are retired
            // exactly once — by the unique prune winner.
            unsafe {
                self.g.retire(victim.untagged());
                self.g.retire(cur);
            }
            match next {
                Some(next) => cur = next.untagged(),
                None => return true,
            }
        }
    }
}

/// State of a [`TreeRange`] between two advances.
enum TreeScanState<K> {
    /// Next advance seeks with this query (a fresh validated descent).
    From(SeekQuery<K>),
    /// Past the upper bound or onto the sentinels.
    Done,
}

/// Guard-scoped range scan over an [`NmTree`]: a **leaf-successor walk**.
/// Each advance is one full validated `Seek` for the position just above the
/// last yielded key; when the descent lands on the predecessor leaf instead
/// of the successor (the tree's routing sent `k + ε` into an exhausted
/// interval), the walk re-seeks at the interval's upper bound — the deepest
/// left-turn routing key — which strictly increases until the successor or a
/// sentinel is reached.
pub struct TreeRange<'r, 'h, K: Key, S: Smr, V: Value = ()> {
    seek: Seek<'r, 'r, <S::Handle as SmrHandle>::Guard<'h>, K, V>,
    state: TreeScanState<K>,
    hi: Option<K>,
}

impl<'r, 'h, K: Key, S: Smr, V: Value> RangeScan<K, V> for TreeRange<'r, 'h, K, S, V> {
    fn next_entry(&mut self) -> Option<(K, &V)> {
        // Position first (repeated seeks mutate the record), then hand out
        // the guard-scoped borrow once, outside the loop.
        let key = loop {
            let query = match &self.state {
                TreeScanState::Done => return None,
                TreeScanState::From(q) => *q,
            };
            self.seek.reseek(&query, true);
            match self.seek.leaf().key {
                TreeKey::Fin(k) if query.admits(&k) => {
                    if self.hi.is_some_and(|h| k >= h) {
                        self.state = TreeScanState::Done;
                        return None;
                    }
                    self.state = TreeScanState::From(SeekQuery::Above(k));
                    break k;
                }
                TreeKey::Fin(_) => {
                    // Landed on the predecessor leaf: no live key exists
                    // below the deepest left-turn routing key, so the
                    // successor is the smallest key at or above it — unless
                    // that bound is already a sentinel, in which case no real
                    // key remains.
                    match self.seek.rec.left_turn {
                        TreeKey::Fin(_) => {
                            self.state =
                                TreeScanState::From(SeekQuery::At(self.seek.rec.left_turn));
                        }
                        TreeKey::Inf0 | TreeKey::Inf1 | TreeKey::Inf2 => {
                            self.state = TreeScanState::Done;
                            return None;
                        }
                    }
                }
                // A sentinel leaf: past every real key.
                TreeKey::Inf0 | TreeKey::Inf1 | TreeKey::Inf2 => {
                    self.state = TreeScanState::Done;
                    return None;
                }
            }
        };
        // The leaf stays protected by HP_LEAF until the next advance.
        let value = self.seek.leaf().value.as_ref();
        Some((key, value.expect("a live Fin leaf always carries a value")))
    }
}

impl<K: Key, S: Smr, V: Value> crate::ConcurrentMap<K, V> for NmTree<K, S, V> {
    type Handle = NmTreeHandle<S>;
    type Guard<'h>
        = <S::Handle as SmrHandle>::Guard<'h>
    where
        Self: 'h;
    type Range<'r, 'h>
        = TreeRange<'r, 'h, K, S, V>
    where
        Self: 'h,
        'h: 'r;

    fn handle(&self) -> Self::Handle {
        NmTree::handle(self)
    }

    fn pin<'h>(&self, handle: &'h mut Self::Handle) -> Self::Guard<'h> {
        handle.smr.pin()
    }

    fn get<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, key: &K) -> Option<&'g V> {
        crate::check_guard(&self.smr, &*guard);
        let tkey = TreeKey::Fin(*key);
        let leaf = self.seek(guard, &SeekQuery::At(tkey), true).into_leaf();
        if leaf.key == tkey {
            leaf.value.as_ref()
        } else {
            None
        }
    }

    fn insert<'h>(&self, guard: &mut Self::Guard<'h>, key: K, value: V) -> Result<(), V> {
        crate::check_guard(&self.smr, &*guard);
        let tkey = TreeKey::Fin(key);
        let mut s = self.seek(guard, &SeekQuery::At(tkey), true);
        if s.leaf().key == tkey {
            return Err(value);
        }
        // Allocate the new leaf once; the internal router is (re)initialized on
        // every attempt because its key and children depend on the leaf found.
        let new_leaf = s.alloc(TreeNode {
            key: TreeKey::Fin(key),
            value: Some(value),
            left: Atomic::null(),
            right: Atomic::null(),
        });
        let new_internal = s.alloc(TreeNode {
            key: TreeKey::Fin(key),
            value: None,
            left: Atomic::null(),
            right: Atomic::null(),
        });
        loop {
            let (leaf, leaf_key) = (s.rec.leaf, s.leaf().key);
            let parent = s.parent();
            let child_field = if tkey < parent.key {
                &parent.left
            } else {
                &parent.right
            };
            // Arrange the new internal node: smaller key on the left, larger
            // on the right, routing key = the larger of the two.
            //
            // SAFETY: `new_internal` is exclusively ours until the CAS below.
            unsafe {
                let internal = &mut *new_internal.as_ptr();
                if tkey < leaf_key {
                    internal.key = leaf_key;
                    internal.left = Atomic::new(new_leaf);
                    internal.right = Atomic::new(leaf);
                } else {
                    internal.key = TreeKey::Fin(key);
                    internal.left = Atomic::new(leaf);
                    internal.right = Atomic::new(new_leaf);
                }
            }
            match child_field.compare_exchange(
                leaf,
                new_internal,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(()) => return Ok(()),
                Err(observed) => {
                    // If the edge still leads to our leaf but is flagged or
                    // tagged, help the pending deletion before retrying.
                    if observed.untagged() == leaf && observed.tag() != 0 {
                        s.cleanup(&tkey);
                    }
                }
            }
            // A checkpoint here is still safe: neither allocation has been
            // published, so no thread can retire them out from under us.
            s.reseek(&SeekQuery::At(tkey), true);
            if s.leaf().key == tkey {
                // A concurrent insert won the race after our first seek.
                // SAFETY: neither allocation was ever published; the router
                // carries no value, the leaf carries the caller's — reclaim
                // both blocks and hand the value back instead of dropping it.
                unsafe {
                    s.dealloc(new_internal);
                    let leaf = scot_smr::take_unpublished(new_leaf);
                    return Err(leaf.value.expect("unpublished leaf keeps its value"));
                }
            }
        }
    }

    fn remove<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, key: &K) -> Option<&'g V> {
        crate::check_guard(&self.smr, &*guard);
        let tkey = TreeKey::Fin(*key);
        let mut s = self.seek(guard, &SeekQuery::At(tkey), true);
        // Injection phase: flag the edge to the victim leaf.
        let mut injected = false;
        loop {
            if !injected {
                if s.leaf().key != tkey {
                    return None;
                }
                let leaf = s.rec.leaf;
                // Pin the prospective victim in the dedicated slot *before*
                // the injection CAS: the cleanup loop below re-seeks (and so
                // recycles slots 0–4), but slot 5 keeps the evicted leaf
                // protected until the caller's value borrow ends.
                s.pin_victim();
                let parent = s.parent();
                let child_field = if tkey < parent.key {
                    &parent.left
                } else {
                    &parent.right
                };
                match child_field.compare_exchange(
                    leaf,
                    leaf.with_tag(FLAG),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(()) => {
                        // The deletion linearizes here (injection succeeded).
                        injected = true;
                        if s.cleanup(&tkey) {
                            break;
                        }
                    }
                    Err(observed) => {
                        if observed.untagged() == leaf && observed.tag() != 0 {
                            // Help the conflicting operation, then retry.
                            s.cleanup(&tkey);
                        }
                    }
                }
            } else {
                // Cleanup phase: keep pruning until our flagged leaf is gone.
                if s.rec.leaf != s.rec.victim {
                    // Someone else already pruned our chain (helping insert or
                    // another delete); the deletion is complete.
                    break;
                }
                if s.cleanup(&tkey) {
                    break;
                }
            }
            // After injection the victim is pinned in Hp5 across re-seeks, so
            // a checkpoint (which voids that protection) must not be answered.
            s.reseek(&SeekQuery::At(tkey), !injected);
        }
        // The victim has been protected by HP_VICTIM since before the
        // injection CAS and no traversal touches that slot, so the retired
        // leaf cannot be reclaimed while the caller reads its value.
        Some(
            s.into_victim()
                .value
                .as_ref()
                .expect("a removed Fin leaf always carries a value"),
        )
    }

    fn contains<'h>(&self, guard: &mut Self::Guard<'h>, key: &K) -> bool {
        crate::check_guard(&self.smr, &*guard);
        let tkey = TreeKey::Fin(*key);
        self.seek(guard, &SeekQuery::At(tkey), true).leaf().key == tkey
    }

    fn scan<'r, 'h>(
        &'r self,
        guard: &'r mut Self::Guard<'h>,
        lo: K,
        hi: Option<K>,
    ) -> Self::Range<'r, 'h>
    where
        'h: 'r,
    {
        crate::check_guard(&self.smr, &*guard);
        TreeRange {
            seek: Seek::new(self, guard),
            state: TreeScanState::From(SeekQuery::At(TreeKey::Fin(lo))),
            hi,
        }
    }

    fn collect(&self, _handle: &mut Self::Handle) -> Vec<(K, V)>
    where
        V: Clone,
    {
        let mut out = Vec::new();
        self.walk(|k, v| out.push((*k, v.clone())));
        out.sort_unstable_by_key(|entry| entry.0);
        out
    }

    fn flush(&self, handle: &mut Self::Handle) {
        handle.flush();
    }

    fn traversal_stats(&self) -> TraversalSnapshot {
        self.stats.snapshot()
    }
}

impl<K, S: Smr, V> Drop for NmTree<K, S, V> {
    fn drop(&mut self) {
        // Free every node still reachable from the root (sentinels included).
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            if node.is_null() {
                continue;
            }
            let node = node.untagged();
            // SAFETY: exclusive access during drop; each reachable node is
            // visited exactly once (it has a single parent).
            unsafe {
                let node_ref = owned(node);
                stack.push(node_ref.left.load(Ordering::Relaxed).untagged());
                stack.push(node_ref.right.load(Ordering::Relaxed).untagged());
                scot_smr::free_unreachable(node);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConcurrentSet;
    use scot_smr::{Ebr, He, Hp, Hyaline, Ibr, Nbr, Nr, Vbr};

    fn cfg() -> SmrConfig {
        SmrConfig {
            max_threads: 16,
            scan_threshold: 8,
            epoch_freq_per_thread: 1,
            snapshot_scan: false,
            ..SmrConfig::default()
        }
    }

    #[test]
    fn tree_key_ordering() {
        type T = TreeKey<u64>;
        assert!(T::Fin(u64::MAX) < T::Inf0);
        assert!(T::Inf0 < T::Inf1);
        assert!(T::Inf1 < T::Inf2);
        assert!(T::Fin(1) < T::Fin(2));
        assert_eq!(T::Fin(3), T::Fin(3));
        assert!(T::Inf2 > T::Fin(0));
    }

    fn basic_set_semantics<S: Smr>() {
        let tree: NmTree<u64, S> = NmTree::with_config(cfg());
        let mut h = tree.handle();
        assert!(!tree.contains(&mut h, &5));
        assert!(tree.insert(&mut h, 5));
        assert!(!tree.insert(&mut h, 5));
        assert!(tree.insert(&mut h, 2));
        assert!(tree.insert(&mut h, 8));
        assert!(tree.insert(&mut h, 1));
        assert!(tree.contains(&mut h, &1));
        assert!(tree.contains(&mut h, &2));
        assert!(tree.contains(&mut h, &5));
        assert!(tree.contains(&mut h, &8));
        assert!(!tree.contains(&mut h, &3));
        assert_eq!(tree.collect_keys(&mut h), vec![1, 2, 5, 8]);
        assert!(tree.remove(&mut h, &5));
        assert!(!tree.remove(&mut h, &5));
        assert!(!tree.contains(&mut h, &5));
        assert!(tree.remove(&mut h, &1));
        assert_eq!(tree.collect_keys(&mut h), vec![2, 8]);
    }

    #[test]
    fn basic_semantics_under_every_scheme() {
        basic_set_semantics::<Nr>();
        basic_set_semantics::<Ebr>();
        basic_set_semantics::<Hp>();
        basic_set_semantics::<He>();
        basic_set_semantics::<Ibr>();
        basic_set_semantics::<Hyaline>();
        basic_set_semantics::<Nbr>();
        basic_set_semantics::<Vbr>();
    }

    #[test]
    fn sequential_model_agreement() {
        // Differential test against BTreeSet on a random operation sequence.
        use std::collections::BTreeSet;
        let tree: NmTree<u32, Hp> = NmTree::with_config(cfg());
        let mut h = tree.handle();
        let mut model = BTreeSet::new();
        let mut x = 0x12345678u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 512) as u32;
            match x % 3 {
                0 => assert_eq!(tree.insert(&mut h, key), model.insert(key), "insert {key}"),
                1 => assert_eq!(
                    tree.remove(&mut h, &key),
                    model.remove(&key),
                    "remove {key}"
                ),
                _ => assert_eq!(
                    tree.contains(&mut h, &key),
                    model.contains(&key),
                    "contains {key}"
                ),
            }
        }
        assert_eq!(
            tree.collect_keys(&mut h),
            model.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_and_single_element_edge_cases() {
        let tree: NmTree<u64, Ebr> = NmTree::with_config(cfg());
        let mut h = tree.handle();
        assert!(!tree.remove(&mut h, &0));
        assert!(tree.insert(&mut h, 0));
        assert!(tree.remove(&mut h, &0));
        assert!(!tree.remove(&mut h, &0));
        assert!(tree.collect_keys(&mut h).is_empty());
        // Re-insert after emptying.
        assert!(tree.insert(&mut h, u64::MAX));
        assert!(tree.contains(&mut h, &u64::MAX));
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let tree: Arc<NmTree<u64, Hp>> = Arc::new(NmTree::with_config(cfg()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tree = tree.clone();
                s.spawn(move || {
                    let mut h = tree.handle();
                    for i in 0..500u64 {
                        assert!(tree.insert(&mut h, t * 10_000 + i));
                    }
                });
            }
        });
        let mut h = tree.handle();
        assert_eq!(tree.collect_keys(&mut h).len(), 2000);
        for t in 0..4u64 {
            for i in 0..500u64 {
                assert!(tree.contains(&mut h, &(t * 10_000 + i)));
            }
        }
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        fn run<S: Smr>() {
            let tree: Arc<NmTree<u32, S>> = Arc::new(NmTree::with_config(cfg()));
            std::thread::scope(|s| {
                for t in 0..8u32 {
                    let tree = tree.clone();
                    s.spawn(move || {
                        let mut h = tree.handle();
                        let mut x = (t as u64) * 7 + 1;
                        for _ in 0..3000 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let key = (x % 128) as u32;
                            match x % 3 {
                                0 => {
                                    tree.insert(&mut h, key);
                                }
                                1 => {
                                    tree.remove(&mut h, &key);
                                }
                                _ => {
                                    tree.contains(&mut h, &key);
                                }
                            }
                        }
                    });
                }
            });
            let mut h = tree.handle();
            let keys = tree.collect_keys(&mut h);
            let mut dedup = keys.clone();
            dedup.dedup();
            assert_eq!(keys, dedup, "no key may appear in two leaves");
        }
        run::<Hp>();
        run::<Ebr>();
        run::<He>();
        run::<Ibr>();
        run::<Hyaline>();
        run::<Nbr>();
        run::<Vbr>();
    }

    #[test]
    fn all_retired_nodes_are_reclaimed_after_quiescence() {
        let domain = Hp::new(cfg());
        let tree: Arc<NmTree<u64, Hp>> = Arc::new(NmTree::new(domain.clone()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tree = tree.clone();
                s.spawn(move || {
                    let mut h = tree.handle();
                    for i in 0..500 {
                        let k = t * 10_000 + i;
                        tree.insert(&mut h, k);
                        tree.remove(&mut h, &k);
                    }
                    h.smr.flush();
                });
            }
        });
        let mut h = tree.handle();
        h.smr.flush();
        drop(h);
        assert_eq!(domain.unreclaimed(), 0);
    }

    #[test]
    fn contention_on_single_key_keeps_tree_valid() {
        // All threads insert and remove the same key: exercises helping,
        // flag/tag conflicts and repeated cleanup of length-1 chains.
        let tree: Arc<NmTree<u32, Ibr>> = Arc::new(NmTree::with_config(cfg()));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let tree = tree.clone();
                s.spawn(move || {
                    let mut h = tree.handle();
                    for _ in 0..2000 {
                        tree.insert(&mut h, 42);
                        tree.remove(&mut h, &42);
                    }
                });
            }
        });
        let mut h = tree.handle();
        let keys = tree.collect_keys(&mut h);
        assert!(keys.is_empty() || keys == vec![42]);
        // The structural sentinels must be intact: inserting still works.
        assert!(tree.insert(&mut h, 7) || tree.contains(&mut h, &7));
    }
}
