//! Incremental maintenance of an [`HgpaIndex`] under edge updates and
//! node churn.
//!
//! The paper's index is static; its related work (§7 — incremental PPR
//! \\[6\\], scheduled approximation over evolving graphs \\[49\\]) motivates
//! dynamic support. The hierarchy makes exact maintenance *local*:
//!
//! * every precomputed vector of a subgraph `G` depends only on edges
//!   **inside** `G`'s member set, so an edge change `(u, v)` invalidates
//!   exactly the subgraphs containing both endpoints — the chain from the
//!   root down to the lowest common subgraph `L(u, v)` — plus, for the
//!   endpoints' own base vectors, their home subgraphs;
//! * an **inserted** edge whose endpoints sit in *different children* of
//!   `L` (with neither being one of `L`'s hubs) would break the separation
//!   invariant; the updater repairs it by *promoting* one endpoint into
//!   `H(L)` — the node leaves every deeper subgraph and becomes a hub,
//!   after which separation holds again by construction;
//! * a **removed** edge can never break separation, so it only triggers
//!   the chain recomputation;
//! * an **added node** joins the least-populated leaf as an isolated
//!   member (its base vector is then computed against the new graph like
//!   any other dirty leaf member); a **removed node** is excised from
//!   every subgraph on its root-to-home chain, its stored vectors are
//!   dropped, and its id becomes a tombstone — the id space stays dense,
//!   queries for it return the empty vector.
//!
//! ## Staleness: the read set of a vector's last run
//!
//! Chain-level dirtiness alone is machine-scale: the top of every chain
//! is the root subgraph, whose hub list covers the whole graph. The
//! [`MaintenanceEngine`] therefore decides **per stored vector** whether
//! the batch can have changed it, from what that vector's last run
//! *read*. No reachability is involved: on a strongly connected graph
//! every node reaches every other, yet a run only ever looks at a few
//! rows.
//!
//! **The replay argument.** Both kernels are deterministic queue
//! machines over a subgraph view (member list, internal edges, original
//! out-degrees):
//!
//! * [`PushEngine`] reads the out-row (neighbour list and degree) of a
//!   node only when it *expands* it, and writes `D(v) ≠ 0` exactly for
//!   expanded `v`. A node that only ever *received* mass was blocked or
//!   never crossed ε (it would have been queued and expanded), so all it
//!   influenced is its own residual — which is not stored.
//! * [`SkeletonEngine`] reads the in-row of a node (its in-neighbours and
//!   their degrees) only when it *settles* it, and writes `p(u) ≠ 0`
//!   exactly for settled `u`. Here too an unsettled recipient influences
//!   nothing but its own residual.
//!
//! So the stored vector's **support is the set of nodes its last run
//! acted on**; every other member was at most a recipient. Call a node
//! *rewritten* by a batch when its own row differs between the old and
//! the new graph: the source `a` of every changed edge and of every edge
//! a node removal dropped (its out-list and its degree denominator
//! changed), and every removed node. Whatever else a batch does to a
//! view is a member appearing in or vanishing from *other* members' rows
//! — admission; promotion below `L`, removal — or the promoted hub
//! becoming blocked at `L`. A new member was in no old run. A vanished
//! or newly blocked member is itself rewritten (a promoted node is its
//! inserted edge's source), so a support that misses it saw it as a
//! recipient at most, and deleting a recipient (a monotone relabelling
//! of local ids) or blocking one changes no step of a run. If no
//! rewritten node is in a vector's support, the new run therefore pops
//! the same queue, reads the same rows and performs the same
//! floating-point operations in the same order: it **replays bit for
//! bit**, and the vector is skipped. Concretely, in a dirty subgraph:
//!
//! * a base/partial vector is stale iff its support contains a rewritten
//!   node;
//! * a skeleton column is stale iff its support contains a rewritten
//!   node `a`, **or** `a` is an unsettled member whose *inflow* the
//!   rewrite could lift above ε. This is the one place a recipient's own
//!   row matters: the residual `a` collects is scaled by `1/deg(a)`, so
//!   a removed out-edge (smaller degree) or an inserted one (a new
//!   settled out-neighbour) can push it over the threshold. While the
//!   replay holds, `a`'s residual is a running sum of non-negative terms
//!   whose total is `(1−α)/deg_new(a) · Σ_{w ∈ out_new(a)} col_old(w)`,
//!   so it never exceeds that total; the column is kept only if the
//!   total is at most `ε·(1 − 2⁻²⁰)`. The margin absorbs the difference
//!   between this sum's rounding and the kernel's (each is a sum of
//!   fewer than 2³⁰ non-negative terms, relative error below 2⁻²³);
//! * a vector that was never computed (stored empty: an admitted node's
//!   base, a freshly promoted hub's column) has no run to replay and is
//!   always computed.
//!
//! Skipped vectors are bitwise identical to what a recomputation would
//! produce, so exactness is untouched; this is pinned against scratch
//! rebuilds over the maintained hierarchy in the tests below, in
//! `tests/node_churn.rs` and `tests/dynamic_serving.rs`, and by the
//! benchmark harness. How loose the predicate is shows as a count:
//! [`UpdateStats::vectors_unchanged`] are the vectors it recomputed that
//! came out identical.
//!
//! An index built with a drop threshold (`HGPA_ad`,
//! [`HgpaBuildStats::dropped_entries`](crate::hgpa::HgpaBuildStats) `> 0`)
//! stores supports that under-state the read sets, so for such an index
//! every vector of a dirty subgraph is treated as stale.
//!
//! The serving layer's *cache* keeps its coarser predicate (a cached
//! source is evicted iff it can reach a touched node,
//! [`UpdateStats::dirty_nodes`]): evicting only sources whose assembly
//! reads a changed vector was measured on the 20 000-node Web stand-in
//! and retained 253 of 1 197 entries for a hit ratio of 0.633 against
//! 0.627 — not worth a second channel out of this module.
//!
//! Cost is O(affected region) vector recomputations instead of a full
//! rebuild; exactness is preserved (validated against the dense oracle
//! and against fresh rebuilds in the tests, and fuzzed under mixed
//! node+edge churn in `tests/node_churn.rs`).
//!
//! ## Plan, execute, commit
//!
//! Like the offline build (§5), every stored vector is an independent
//! job over a read-only subgraph view, so a batch's recomputation runs in
//! three phases:
//!
//! 1. **Plan** (sequential, ascending dirty-subgraph order): run the
//!    read-set predicate, build a view only for a subgraph that holds a
//!    stale vector, and emit one work item per stale *owner* — a leaf
//!    member, or an internal subgraph's hub — carrying its base vector
//!    and/or its skeleton column.
//! 2. **Execute**: deal the items to [`run_timed`], the pool the offline
//!    build uses, under the engine's [`ParallelismMode`]; each worker owns
//!    one [`PushEngine`]/[`SkeletonEngine`] pair for the batch. Items are
//!    per owner rather than per vector because the pool deals
//!    round-robin: per-vector items would hand every push to one worker
//!    and every skeleton run to the other.
//! 3. **Commit**: store the outputs in item order and count
//!    [`UpdateStats::vectors_recomputed`] / [`UpdateStats::vectors_unchanged`].
//!
//! Each run is a pure function of (view, source, blocked set, config).
//! Every node owns vectors in its home subgraph only, so the predicate
//! for one subgraph never reads a vector that another subgraph's commit
//! writes, and planning the whole batch before committing any of it
//! decides exactly what the interleaved order would. Stored vectors and
//! [`UpdateStats`] are therefore bit-identical in every mode (pinned by
//! `tests/parallel_build.rs`). The mode comes from the caller:
//! [`MaintenanceEngine::new`] is sequential, and the dynamic server passes
//! its `ServeConfig::parallelism` to [`MaintenanceEngine::with_parallelism`].

use crate::hgpa::{map_to_global, HgpaIndex};
use crate::parallel::{run_timed, ParallelismMode};
use crate::push::PushEngine;
use crate::skeleton::SkeletonEngine;
use crate::{PprConfig, SparseVector};
use ppr_graph::{AppliedGraphDelta, CsrGraph, DeltaError, NodeId, SubView, ViewBuilder};
use std::collections::{BTreeSet, HashSet};
use std::fmt;

/// Why an incremental update batch was rejected. The index is left
/// exactly as it was: every validation failure is detected before the
/// first mutation ([`UpdateError::HierarchyCorruption`] is the one
/// exception — it reports pre-existing damage, not damage caused by the
/// rejected batch).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// The new graph's node count does not line up with the index's node
    /// set (plus any nodes added by this batch).
    NodeSetMismatch {
        /// Nodes the index would maintain after this batch.
        index_nodes: usize,
        /// Nodes the supplied graph actually has.
        graph_nodes: usize,
    },
    /// An operation referenced a node that is not live in the index — a
    /// tombstoned (previously removed) id, or an id out of range.
    DeadNode {
        /// The offending node id.
        node: NodeId,
    },
    /// The hierarchy's membership invariant is broken: a non-hub member
    /// of an internal subgraph belongs to none of its children. This is
    /// index corruption (it cannot arise from a valid update sequence);
    /// surfacing it beats silently computing wrong promotions.
    HierarchyCorruption {
        /// Arena index of the corrupt subgraph.
        subgraph: usize,
        /// The member missing from every child.
        node: NodeId,
    },
    /// The underlying [`GraphDelta`](ppr_graph::GraphDelta) failed
    /// validation against the current graph.
    Delta(DeltaError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::NodeSetMismatch {
                index_nodes,
                graph_nodes,
            } => write!(
                f,
                "node set mismatch: the index maintains {index_nodes} nodes \
                 but the graph has {graph_nodes}"
            ),
            UpdateError::DeadNode { node } => {
                write!(f, "node {node} is not live in the index")
            }
            UpdateError::HierarchyCorruption { subgraph, node } => write!(
                f,
                "hierarchy invariant broken: node {node} is a member of \
                 subgraph {subgraph} but of none of its children"
            ),
            UpdateError::Delta(e) => write!(f, "invalid graph delta: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<DeltaError> for UpdateError {
    fn from(e: DeltaError) -> Self {
        UpdateError::Delta(e)
    }
}

/// What one incremental update batch did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Subgraphs visited because their chain was dirtied (some may have
    /// had every vector skipped by the read-set predicate).
    pub subgraphs_recomputed: usize,
    /// Nodes promoted to hub status to restore separation.
    pub promoted_hubs: Vec<NodeId>,
    /// Vectors recomputed (bases + skeleton columns).
    pub vectors_recomputed: usize,
    /// Vectors in dirty subgraphs whose last run read no rewritten row
    /// (see the module docs) and which were therefore skipped.
    pub vectors_skipped: usize,
    /// Of [`vectors_recomputed`](Self::vectors_recomputed), those that
    /// came out bit-identical to what was stored: the predicate's
    /// looseness, as a count.
    pub vectors_unchanged: usize,
    /// Nodes added to the index by this batch.
    pub nodes_added: usize,
    /// Nodes excised (tombstoned) by this batch.
    pub nodes_removed: usize,
    /// Arena indices of the subgraphs that were visited, ascending.
    pub dirty_subgraphs: Vec<usize>,
    /// The **touched node set**: endpoints of every changed or dropped
    /// edge, every added or removed node, plus all promoted hubs, sorted
    /// and deduplicated.
    ///
    /// This is the anchor of the serving layer's conservative cache
    /// staleness predicate: a source `s`'s PPV — and, bit for bit, its
    /// reconstruction from this index — can only change if `s` can reach a
    /// touched node. A walk from `s` is affected only by rewritten
    /// transition rows, i.e. rows of changed-edge sources (insertion and
    /// removal both change the source's out-degree denominator), and
    /// reachability *to* those rows is itself invariant under the batch
    /// (a path first using a changed edge `(u, v)` must already have
    /// reached `u` by unchanged edges). Promotion restructures the
    /// hierarchy around an inserted edge's endpoint; any reconstruction
    /// term it perturbs carries a skeleton coefficient that is non-zero
    /// only for sources reaching the promoted node, so it is covered by
    /// the same predicate. Index maintenance itself uses a much sharper,
    /// per-vector predicate (the module docs' read sets); the cache keeps
    /// this one — see the measurement recorded there.
    pub dirty_nodes: Vec<NodeId>,
}

/// Relative safety margin of the skeleton inflow bound (module docs): a
/// column is kept only if a rewritten recipient's total inflow stays at
/// or below `ε·(1 − INFLOW_MARGIN)`.
const INFLOW_MARGIN: f64 = 1.0 / (1u64 << 20) as f64;

/// Applies update batches to an [`HgpaIndex`]: plans each batch's
/// recomputation, executes it under the engine's [`ParallelismMode`],
/// and commits it in plan order (module docs).
///
/// The engine holds no reference to a particular index or graph and
/// carries nothing from one batch to the next — kernel arenas belong to
/// the pool's workers and live for one batch — so one engine may serve
/// many indexes.
pub struct MaintenanceEngine {
    parallelism: ParallelismMode,
}

impl Default for MaintenanceEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl MaintenanceEngine {
    /// A sequential engine: every recomputation runs in the caller's
    /// thread, the measurement-grade default of [`ParallelismMode`].
    pub fn new() -> Self {
        Self::with_parallelism(ParallelismMode::Sequential)
    }

    /// An engine that recomputes a batch's stale vectors on `mode`'s
    /// workers. Results are bit-identical to [`MaintenanceEngine::new`]'s.
    pub fn with_parallelism(mode: ParallelismMode) -> Self {
        Self { parallelism: mode }
    }

    /// Bring `idx` up to date with an applied [`ppr_graph::GraphDelta`]
    /// (node churn + net edge changes, as produced by
    /// [`ppr_graph::apply_delta`]).
    ///
    /// On `Err` the index is unchanged (all validation precedes the
    /// first mutation).
    ///
    /// An index built with [`HgpaBuildOptions::drop_threshold`]
    /// (`stats().dropped_entries > 0`) has supports that under-state its
    /// read sets, so every vector of a dirty subgraph is recomputed for
    /// it. Recomputed vectors are stored exact — the threshold is not
    /// re-applied — so such an index stays within its ε-contract and
    /// only ever gets closer to the exact one.
    ///
    /// [`HgpaBuildOptions::drop_threshold`]: crate::hgpa::HgpaBuildOptions::drop_threshold
    pub fn apply(
        &mut self,
        idx: &mut HgpaIndex,
        applied: &AppliedGraphDelta,
    ) -> Result<UpdateStats, UpdateError> {
        let changed: Vec<(NodeId, NodeId)> =
            applied.net.iter().map(|e| e.endpoints()).collect();
        self.apply_parts(
            idx,
            &applied.graph,
            &applied.added,
            &applied.removed,
            &applied.dropped_edges,
            &changed,
        )
    }

    /// Bring `idx` up to date with `g_new` over an unchanged node set,
    /// given the edges inserted or removed since the graph the index
    /// currently reflects.
    pub fn apply_edges(
        &mut self,
        idx: &mut HgpaIndex,
        g_new: &CsrGraph,
        changed_edges: &[(NodeId, NodeId)],
    ) -> Result<UpdateStats, UpdateError> {
        self.apply_parts(idx, g_new, &[], &[], &[], changed_edges)
    }

    fn apply_parts(
        &mut self,
        idx: &mut HgpaIndex,
        g_new: &CsrGraph,
        added: &[NodeId],
        removed: &[NodeId],
        dropped: &[(NodeId, NodeId)],
        changed: &[(NodeId, NodeId)],
    ) -> Result<UpdateStats, UpdateError> {
        let (plan, mut stats) = Self::plan_batch(idx, g_new, added, removed, dropped, changed)?;
        let fresh = plan.execute(idx.config(), self.parallelism);
        plan.commit(idx, fresh, &mut stats);
        Ok(stats)
    }

    /// Validate a batch, apply its structural changes to `idx` (excision,
    /// admission, promotion) and plan the recomputation it needs. The
    /// returned stats lack only what [`Plan::commit`] counts.
    fn plan_batch(
        idx: &mut HgpaIndex,
        g_new: &CsrGraph,
        added: &[NodeId],
        removed: &[NodeId],
        dropped: &[(NodeId, NodeId)],
        changed: &[(NodeId, NodeId)],
    ) -> Result<(Plan, UpdateStats), UpdateError> {
        let mut stats = UpdateStats::default();
        let old_n = idx.node_count();

        // ---- validation: everything checked before the first mutation.
        if g_new.node_count() != old_n + added.len() {
            return Err(UpdateError::NodeSetMismatch {
                index_nodes: old_n + added.len(),
                graph_nodes: g_new.node_count(),
            });
        }
        if added.is_empty() && removed.is_empty() && dropped.is_empty() && changed.is_empty() {
            return Ok((Plan::default(), stats));
        }
        for (i, &v) in added.iter().enumerate() {
            // Additions extend the dense id space in order.
            if v as usize != old_n + i {
                return Err(UpdateError::NodeSetMismatch {
                    index_nodes: old_n + added.len(),
                    graph_nodes: g_new.node_count(),
                });
            }
        }
        let removed_set: HashSet<NodeId> = removed.iter().copied().collect();
        for &v in removed {
            if !idx.is_live(v) {
                return Err(UpdateError::DeadNode { node: v });
            }
        }
        for &(u, v) in changed {
            for x in [u, v] {
                let live_old = (x as usize) < old_n && idx.is_live(x) && !removed_set.contains(&x);
                let freshly_added = (old_n..old_n + added.len()).contains(&(x as usize));
                if !live_old && !freshly_added {
                    return Err(UpdateError::DeadNode { node: x });
                }
            }
        }

        // ---- dirtiness from node churn, read against the pre-excision
        // hierarchy (a removed node's chain, and the chains of the
        // surviving sources whose out-degree its dropped edges shrank).
        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        let mut touched: BTreeSet<NodeId> = BTreeSet::new();
        for &v in removed {
            touched.insert(v);
            dirty.extend(idx.hierarchy().path_to(v));
        }
        for &(x, y) in dropped {
            touched.insert(x);
            touched.insert(y);
            dirty.extend(idx.hierarchy().path_to(x));
            dirty.insert(idx.hierarchy().home[y as usize]);
        }
        for &v in removed {
            idx.excise_node(v);
            stats.nodes_removed += 1;
        }
        for &v in added {
            let leaf = idx.admit_node(v);
            dirty.insert(leaf);
            touched.insert(v);
            stats.nodes_added += 1;
        }

        // ---- dirtiness from net edge changes, plus separation repair.
        for &(u, v) in changed {
            touched.insert(u);
            touched.insert(v);
            // Everything on the *source's* root-to-home path is
            // invalidated: the edge lives inside the common chain, and —
            // crucially — `u`'s out-degree changed, which is the
            // transition denominator of every virtual-subgraph view that
            // contains `u` (Definition 3), i.e. `u`'s whole path.
            let pu = idx.hierarchy().path_to(u);
            let pv = idx.hierarchy().path_to(v);
            dirty.extend(pu.iter().copied());
            let mut lowest_common = idx.hierarchy().root();
            for (a, b) in pu.iter().zip(pv.iter()) {
                if a != b {
                    break;
                }
                lowest_common = *a;
            }

            // Separation check (only insertions can break it): if the edge
            // exists in g_new and its endpoints fall into different
            // children of L without either being a hub of L, promote u.
            if g_new.has_edge(u, v) && idx.edge_breaks_separation(lowest_common, u, v)? {
                let below = idx.promote_to_hub(lowest_common, u);
                stats.promoted_hubs.push(u);
                dirty.extend(below);
            }

            // The target's home holds its base vector; the edge may have
            // entered/left its leaf's internal edge set when both
            // endpoints share the leaf (already covered by `pu` then, but
            // cheap to include explicitly).
            dirty.insert(idx.hierarchy().home[v as usize]);
        }
        touched.extend(stats.promoted_hubs.iter().copied());

        // ---- plan what the read-set predicate cannot rule out, in
        // deterministic ascending subgraph order, over one view builder.
        let mut rewritten: Vec<NodeId> = changed
            .iter()
            .chain(dropped)
            .map(|&(a, _)| a)
            .chain(removed.iter().copied())
            .collect();
        rewritten.sort_unstable();
        rewritten.dedup();
        let mut planner = Planner {
            vb: ViewBuilder::new(g_new),
            cfg: *idx.config(),
            rewritten,
            all_stale: idx.stats().dropped_entries > 0,
        };
        let mut plan = Plan::default();
        for &sg in &dirty {
            planner.subgraph(idx, sg, &mut plan, &mut stats);
        }
        stats.subgraphs_recomputed = dirty.len();
        stats.dirty_subgraphs = dirty.into_iter().collect();
        stats.dirty_nodes = touched.into_iter().collect();
        Ok((plan, stats))
    }
}

impl HgpaIndex {
    /// Bring the index up to date with `g_new`, given the list of edges
    /// that were inserted or removed since the graph the index was built
    /// on. The node set must be unchanged; use
    /// [`MaintenanceEngine::apply`] for batches with node churn, and
    /// [`MaintenanceEngine::with_parallelism`] to recompute on worker
    /// threads — this convenience method runs a sequential engine.
    ///
    /// On `Err` the index is unchanged.
    pub fn apply_edge_updates(
        &mut self,
        g_new: &CsrGraph,
        changed_edges: &[(NodeId, NodeId)],
    ) -> Result<UpdateStats, UpdateError> {
        MaintenanceEngine::new().apply_edges(self, g_new, changed_edges)
    }

    /// Does `(u, v)` cross children of subgraph `sg` without a hub
    /// endpoint? (`u`/`v` are members of `sg` by construction.)
    ///
    /// A non-hub member of an internal subgraph belongs to exactly one
    /// child; finding neither endpoint in any child means the hierarchy
    /// is corrupt, which is reported (and debug-asserted) rather than
    /// silently treated as "no promotion needed".
    fn edge_breaks_separation(&self, sg: usize, u: NodeId, v: NodeId) -> Result<bool, UpdateError> {
        let node = &self.hierarchy().nodes[sg];
        if node.is_leaf() {
            return Ok(false); // leaves have no separation obligations
        }
        if node.hubs.binary_search(&u).is_ok() || node.hubs.binary_search(&v).is_ok() {
            return Ok(false);
        }
        let child_of = |x: NodeId| {
            node.children
                .iter()
                .position(|&c| self.hierarchy().nodes[c].members.binary_search(&x).is_ok())
        };
        let corrupt = |node: NodeId| {
            debug_assert!(
                false,
                "hierarchy invariant broken: node {node} is a member of \
                 subgraph {sg} but of none of its children"
            );
            Err(UpdateError::HierarchyCorruption { subgraph: sg, node })
        };
        match (child_of(u), child_of(v)) {
            (Some(a), Some(b)) => Ok(a != b),
            (None, _) => corrupt(u),
            (_, None) => corrupt(v),
        }
    }

    /// Promote `u` into `H(sg)`: remove it from every descendant subgraph
    /// and register it as a hub of `sg`. Returns the arena indices of the
    /// subgraphs it was removed from (they need recomputation).
    fn promote_to_hub(&mut self, sg: usize, u: NodeId) -> Vec<usize> {
        let mut affected = Vec::new();
        // Walk u's current path strictly below `sg` and remove it.
        let path = self.hierarchy().path_to(u);
        let below: Vec<usize> = path.into_iter().skip_while(|&x| x != sg).skip(1).collect();
        for idx in below {
            let node = &mut self.hierarchy_mut().nodes[idx];
            if let Ok(pos) = node.members.binary_search(&u) {
                node.members.remove(pos);
            }
            if let Ok(pos) = node.hubs.binary_search(&u) {
                node.hubs.remove(pos);
            }
            affected.push(idx);
        }
        // Register as hub of sg.
        let level = self.hierarchy().nodes[sg].level;
        {
            let node = &mut self.hierarchy_mut().nodes[sg];
            if let Err(pos) = node.hubs.binary_search(&u) {
                node.hubs.insert(pos, u);
            }
        }
        self.hierarchy_mut().home[u as usize] = sg;
        self.hierarchy_mut().hub_level[u as usize] = Some(level);
        self.register_promoted_hub(u);
        affected
    }
}

/// A batch's recomputation work (module docs): the views of the dirty
/// subgraphs that hold a stale vector, and one item per stale owner.
#[derive(Default)]
struct Plan {
    views: Vec<PlannedView>,
    items: Vec<Item>,
}

/// One subgraph's view with its hubs blocked, shared by its items.
struct PlannedView {
    view: SubView,
    blocked: Vec<bool>,
}

/// One stale owner: which of its vectors to recompute, and where.
struct Item {
    /// Index into [`Plan::views`].
    view: usize,
    owner: NodeId,
    /// `owner`'s id in that view.
    local: NodeId,
    base: bool,
    column: bool,
}

/// An item's output: its fresh base vector and/or skeleton column.
type Fresh = (Option<SparseVector>, Option<SparseVector>);

impl Plan {
    /// Run every item on the pool, returning the outputs in item order.
    fn execute(&self, cfg: &PprConfig, mode: ParallelismMode) -> Vec<Fresh> {
        let (outputs, _) = run_timed(
            self.items.len(),
            mode,
            || (PushEngine::new(0), SkeletonEngine::new(0)),
            |_| 0,
            |i, (push, skel)| {
                let item = &self.items[i];
                let PlannedView { view, blocked } = &self.views[item.view];
                let base = item.base.then(|| {
                    map_to_global(push.run(view, item.local, blocked, cfg).partial, view)
                });
                let column = item
                    .column
                    .then(|| map_to_global(skel.run(view, item.local, cfg), view));
                (base, column)
            },
        );
        outputs.into_iter().map(|(fresh, _)| fresh).collect()
    }

    /// Store `fresh` (from [`Plan::execute`]) in item order.
    fn commit(self, idx: &mut HgpaIndex, fresh: Vec<Fresh>, stats: &mut UpdateStats) {
        let (_, mut stored) = idx.stored_vectors_mut();
        let mut store = |slot: &mut SparseVector, fresh: SparseVector| {
            stats.vectors_recomputed += 1;
            stats.vectors_unchanged += usize::from(*slot == fresh);
            *slot = fresh;
        };
        for (item, (base, column)) in self.items.iter().zip(fresh) {
            if let Some(v) = base {
                store(stored.base(item.owner), v);
            }
            if let Some(v) = column {
                store(stored.column(item.owner), v);
            }
        }
    }
}

/// The plan phase's state: one view builder for the whole dirty set, and
/// the read-set predicate's inputs.
struct Planner<'g> {
    vb: ViewBuilder<'g>,
    cfg: PprConfig,
    /// The nodes whose own row the batch rewrote (module docs), sorted.
    rewritten: Vec<NodeId>,
    /// The index is thresholded: supports under-state read sets, so
    /// nothing in a dirty subgraph may be skipped.
    all_stale: bool,
}

impl Planner<'_> {
    /// Did the base/partial vector's last run expand a rewritten node?
    fn base_stale(&self, base: &SparseVector) -> bool {
        self.all_stale || base.is_empty() || self.rewritten.iter().any(|&a| base.get(a) != 0.0)
    }

    /// Did the column's last run settle a rewritten node, or could a
    /// rewritten member it left unsettled now collect more than ε?
    fn column_stale(&self, col: &SparseVector, members: &[NodeId]) -> bool {
        self.all_stale
            || col.is_empty()
            || self.rewritten.iter().any(|&a| {
                col.get(a) != 0.0
                    || (members.binary_search(&a).is_ok() && self.inflow_may_exceed_eps(a, col))
            })
    }

    /// The inflow bound: everything the unsettled `a` can collect while
    /// the old run replays, against ε less the safety margin.
    fn inflow_may_exceed_eps(&self, a: NodeId, col: &SparseVector) -> bool {
        let g = self.vb.graph();
        let deg = g.out_degree(a);
        if deg == 0 {
            return false;
        }
        let settled: f64 = g.out_neighbors(a).iter().map(|&w| col.get(w)).sum();
        (1.0 - self.cfg.alpha) * settled / deg as f64 > self.cfg.epsilon * (1.0 - INFLOW_MARGIN)
    }

    /// Plan the stored vectors of subgraph `sg` that the predicate cannot
    /// prove unchanged: every member's local PPV in a leaf, every hub's
    /// partial vector and skeleton column in an internal subgraph. When
    /// every vector is provably clean the view is not even built.
    fn subgraph(
        &mut self,
        idx: &mut HgpaIndex,
        sg: usize,
        plan: &mut Plan,
        stats: &mut UpdateStats,
    ) {
        let (hierarchy, mut stored) = idx.stored_vectors_mut();
        let node = &hierarchy.nodes[sg];
        let owners = if node.is_leaf() { &node.members } else { &node.hubs };
        let stale_base: Vec<bool> = owners
            .iter()
            .map(|&o| self.base_stale(stored.base(o)))
            .collect();
        // Leaves hold no columns: their (empty) hub list maps to nothing.
        let stale_col: Vec<bool> = node
            .hubs
            .iter()
            .map(|&h| self.column_stale(stored.column(h), &node.members))
            .collect();
        let stale = stale_base.iter().chain(&stale_col).filter(|&&s| s).count();
        stats.vectors_skipped += stale_base.len() + stale_col.len() - stale;
        if stale == 0 {
            return;
        }

        let view = self.vb.build(&node.members);
        let mut blocked = vec![false; view.len()];
        for &h in &node.hubs {
            blocked[view.local_of(h).expect("hub is a member") as usize] = true;
        }
        for (i, &owner) in owners.iter().enumerate() {
            let (base, column) = (stale_base[i], stale_col.get(i) == Some(&true));
            if base || column {
                plan.items.push(Item {
                    view: plan.views.len(),
                    owner,
                    local: view.local_of(owner).expect("owner is a member"),
                    base,
                    column,
                });
            }
        }
        plan.views.push(PlannedView { view, blocked });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hgpa::HgpaBuildOptions;
    use crate::PprConfig;
    use ppr_graph::dense::dense_ppv;
    use ppr_graph::generators::{hierarchical_sbm, HsbmConfig};
    use ppr_graph::{apply_delta, EdgeUpdate, GraphDelta, GraphBuilder, NodeUpdate};
    use ppr_partition::HierarchyConfig;

    fn tight() -> PprConfig {
        PprConfig {
            epsilon: 1e-9,
            ..Default::default()
        }
    }

    fn opts() -> HgpaBuildOptions {
        HgpaBuildOptions {
            hierarchy: HierarchyConfig {
                max_leaf_size: 16,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn base_graph(n: usize, seed: u64) -> CsrGraph {
        hierarchical_sbm(
            &HsbmConfig {
                nodes: n,
                depth: 4,
                locality: 0.9,
                ..Default::default()
            },
            seed,
        )
    }

    fn with_edges(g: &CsrGraph, add: &[(NodeId, NodeId)], remove: &[(NodeId, NodeId)]) -> CsrGraph {
        let rm: std::collections::HashSet<(NodeId, NodeId)> = remove.iter().copied().collect();
        let mut b = GraphBuilder::new(g.node_count());
        for e in g.edges() {
            if !rm.contains(&e) {
                b.push_edge(e.0, e.1);
            }
        }
        for &(u, v) in add {
            b.push_edge(u, v);
        }
        b.build()
    }

    fn assert_exact(idx: &HgpaIndex, g: &CsrGraph, queries: &[NodeId]) {
        for &u in queries {
            let oracle = dense_ppv(g, u, 0.15);
            let got = idx.query(u);
            for v in 0..g.node_count() as NodeId {
                assert!(
                    (got.get(v) - oracle[v as usize]).abs() < 1e-5,
                    "u {u} v {v}: {} vs {}",
                    got.get(v),
                    oracle[v as usize]
                );
            }
        }
    }

    /// Bitwise comparison against a from-scratch build that reuses the
    /// maintained hierarchy — the strongest exactness pin we have (the
    /// oracle comparison above tolerates push-ordering noise; this one
    /// does not).
    fn assert_bit_identical_to_rebuild(idx: &HgpaIndex, g: &CsrGraph) {
        let fresh = HgpaIndex::build_with_hierarchy(g, idx.config(), &opts(), idx.hierarchy().clone());
        assert_eq!(idx.base_vectors(), fresh.base_vectors(), "base vectors diverged");
        // Skeleton ranks can be permuted between a maintained index
        // (promotions append) and a fresh build (hierarchy order), so
        // compare per hub id.
        for (rank, &h) in idx.hub_ids().iter().enumerate() {
            if !idx.is_live(h) {
                continue; // orphaned rank of an excised hub
            }
            let fresh_rank = fresh
                .hub_ids()
                .iter()
                .position(|&x| x == h)
                .expect("hub registered in fresh build");
            assert_eq!(
                idx.skeleton_columns()[rank],
                fresh.skeleton_columns()[fresh_rank],
                "skeleton column of hub {h} diverged"
            );
        }
    }

    #[test]
    fn intra_leaf_insertion_stays_exact() {
        let g = base_graph(200, 5);
        let mut idx = HgpaIndex::build(&g, &tight(), &opts());
        // Insert an edge between two members of the same leaf.
        let leaf = idx.hierarchy().leaves().find(|&l| idx.hierarchy().nodes[l].members.len() >= 2).unwrap();
        let (a, b) = {
            let m = &idx.hierarchy().nodes[leaf].members;
            (m[0], m[1])
        };
        let g2 = with_edges(&g, &[(a, b)], &[]);
        let stats = idx.apply_edge_updates(&g2, &[(a, b)]).expect("valid batch");
        assert!(stats.promoted_hubs.is_empty(), "no separation breach");
        assert!(stats.subgraphs_recomputed >= 1);
        assert_exact(&idx, &g2, &[a, b, 0, 199]);
        assert_bit_identical_to_rebuild(&idx, &g2);
    }

    #[test]
    fn cross_child_insertion_promotes_a_hub() {
        let g = base_graph(250, 9);
        let mut idx = HgpaIndex::build(&g, &tight(), &opts());
        // Find two non-hub nodes in different children of the root.
        let root = idx.hierarchy().root();
        let children = idx.hierarchy().nodes[root].children.clone();
        assert!(children.len() >= 2, "root must split");
        let pick = |c: usize| {
            idx.hierarchy().nodes[c]
                .members
                .iter()
                .copied()
                .find(|&v| idx.hierarchy().hub_level[v as usize].is_none())
                .expect("non-hub member")
        };
        let (a, b) = (pick(children[0]), pick(children[1]));
        assert!(!g.has_edge(a, b));

        let g2 = with_edges(&g, &[(a, b)], &[]);
        let stats = idx.apply_edge_updates(&g2, &[(a, b)]).expect("valid batch");
        assert_eq!(stats.promoted_hubs, vec![a], "endpoint promoted");
        assert!(idx.hierarchy().hub_level[a as usize].is_some());
        assert_exact(&idx, &g2, &[a, b, 10, 249]);
    }

    #[test]
    fn edge_removal_never_promotes() {
        let g = base_graph(200, 13);
        let mut idx = HgpaIndex::build(&g, &tight(), &opts());
        let (u, v) = g.edges().next().unwrap();
        let g2 = with_edges(&g, &[], &[(u, v)]);
        let stats = idx.apply_edge_updates(&g2, &[(u, v)]).expect("valid batch");
        assert!(stats.promoted_hubs.is_empty());
        assert_exact(&idx, &g2, &[u, v, 100]);
        assert_bit_identical_to_rebuild(&idx, &g2);
    }

    #[test]
    fn batched_mixed_updates_stay_exact() {
        let g = base_graph(220, 21);
        let mut idx = HgpaIndex::build(&g, &tight(), &opts());
        let removed: Vec<(NodeId, NodeId)> = g.edges().step_by(37).take(4).collect();
        let added: Vec<(NodeId, NodeId)> = vec![(3, 140), (60, 201), (10, 11)]
            .into_iter()
            .filter(|&(u, v)| !g.has_edge(u, v) && u != v)
            .collect();
        let g2 = with_edges(&g, &added, &removed);
        let mut changed = removed.clone();
        changed.extend(&added);
        let stats = idx.apply_edge_updates(&g2, &changed).expect("valid batch");
        assert!(stats.subgraphs_recomputed > 0);
        assert_exact(&idx, &g2, &[0, 3, 60, 140, 219]);
    }

    #[test]
    fn repeated_updates_accumulate_correctly() {
        let g0 = base_graph(150, 31);
        let mut idx = HgpaIndex::build(&g0, &tight(), &opts());
        let mut g = g0;
        for (step, edge) in [(0u32, (5u32, 120u32)), (1, (80, 20)), (2, (140, 2))]
            .into_iter()
        {
            let _ = step;
            if g.has_edge(edge.0, edge.1) {
                continue;
            }
            let g2 = with_edges(&g, &[edge], &[]);
            idx.apply_edge_updates(&g2, &[edge]).expect("valid batch");
            g = g2;
        }
        assert_exact(&idx, &g, &[2, 5, 80, 149]);
    }

    #[test]
    fn update_is_cheaper_than_rebuild() {
        let g = base_graph(400, 41);
        let mut idx = HgpaIndex::build(&g, &tight(), &opts());
        let leaf = idx.hierarchy().leaves().find(|&l| idx.hierarchy().nodes[l].members.len() >= 2).unwrap();
        let (a, b) = {
            let m = &idx.hierarchy().nodes[leaf].members;
            (m[0], m[1])
        };
        let g2 = with_edges(&g, &[(a, b)], &[]);
        let stats = idx.apply_edge_updates(&g2, &[(a, b)]).expect("valid batch");
        assert!(
            stats.subgraphs_recomputed <= idx.hierarchy().depth as usize + 3,
            "recomputed {} subgraphs",
            stats.subgraphs_recomputed
        );
        // Read-set narrowing: chain subgraphs hold vectors whose last
        // run never acted on the rewritten source; those must be
        // skipped, not recomputed.
        assert!(
            stats.vectors_skipped > 0,
            "expected provably-clean vectors on the dirty chains"
        );
    }

    #[test]
    fn stats_report_dirty_sets() {
        let g = base_graph(200, 5);
        let mut idx = HgpaIndex::build(&g, &tight(), &opts());
        let leaf = idx
            .hierarchy()
            .leaves()
            .find(|&l| idx.hierarchy().nodes[l].members.len() >= 2)
            .unwrap();
        let (a, b) = {
            let m = &idx.hierarchy().nodes[leaf].members;
            (m[0], m[1])
        };
        let g2 = with_edges(&g, &[(a, b)], &[]);
        let stats = idx.apply_edge_updates(&g2, &[(a, b)]).expect("valid batch");
        // Touched set = the changed edge's endpoints (no promotion here).
        assert_eq!(stats.dirty_nodes, {
            let mut e = vec![a, b];
            e.sort_unstable();
            e
        });
        assert_eq!(stats.dirty_subgraphs.len(), stats.subgraphs_recomputed);
        assert!(stats.dirty_subgraphs.windows(2).all(|w| w[0] < w[1]));
        assert!(stats.dirty_subgraphs.contains(&leaf));
    }

    #[test]
    fn promoted_hubs_join_dirty_nodes() {
        let g = base_graph(250, 9);
        let mut idx = HgpaIndex::build(&g, &tight(), &opts());
        let root = idx.hierarchy().root();
        let children = idx.hierarchy().nodes[root].children.clone();
        let pick = |c: usize| {
            idx.hierarchy().nodes[c]
                .members
                .iter()
                .copied()
                .find(|&v| idx.hierarchy().hub_level[v as usize].is_none())
                .expect("non-hub member")
        };
        let (a, b) = (pick(children[0]), pick(children[1]));
        let g2 = with_edges(&g, &[(a, b)], &[]);
        let stats = idx.apply_edge_updates(&g2, &[(a, b)]).expect("valid batch");
        assert_eq!(stats.promoted_hubs, vec![a]);
        assert!(stats.dirty_nodes.contains(&a) && stats.dirty_nodes.contains(&b));
    }

    #[test]
    fn node_set_change_rejected() {
        let g = base_graph(100, 1);
        let mut idx = HgpaIndex::build(&g, &tight(), &opts());
        let bigger = base_graph(101, 1);
        let err = idx.apply_edge_updates(&bigger, &[]).unwrap_err();
        assert!(
            matches!(err, UpdateError::NodeSetMismatch { index_nodes: 100, graph_nodes: 101 }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("node set"));
        // The rejected batch left the index untouched.
        assert_exact(&idx, &g, &[0, 99]);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "hierarchy invariant"))]
    fn hierarchy_corruption_is_reported_not_masked() {
        let g = base_graph(250, 9);
        let mut idx = HgpaIndex::build(&g, &tight(), &opts());
        let root = idx.hierarchy().root();
        let children = idx.hierarchy().nodes[root].children.clone();
        assert!(children.len() >= 2, "root must split");
        let pick = |idx: &HgpaIndex, c: usize| {
            idx.hierarchy().nodes[c]
                .members
                .iter()
                .copied()
                .find(|&v| idx.hierarchy().hub_level[v as usize].is_none())
                .expect("non-hub member")
        };
        let (a, b) = (pick(&idx, children[0]), pick(&idx, children[1]));
        // Seed the corruption: drop `a` from its root-child's member list
        // while leaving it in the root's members and in its deeper chain.
        {
            let node = &mut idx.hierarchy_mut().nodes[children[0]];
            let pos = node.members.binary_search(&a).expect("a is a member");
            node.members.remove(pos);
        }
        // A cross-child insertion now probes `a`'s child slot at the root
        // and must surface the corruption instead of skipping promotion.
        let g2 = with_edges(&g, &[(a, b)], &[]);
        let err = idx
            .apply_edge_updates(&g2, &[(a, b)])
            .expect_err("corruption must not be masked");
        assert!(
            matches!(err, UpdateError::HierarchyCorruption { subgraph, node }
                if subgraph == root && node == a),
            "got {err:?}"
        );
        assert!(err.to_string().contains("hierarchy invariant broken"));
    }

    #[test]
    fn threaded_engine_is_bit_identical_to_sequential_engine() {
        let g0 = base_graph(220, 47);
        let mut live = HgpaIndex::build(&g0, &tight(), &opts());
        let mut fresh = live.clone();
        let mut engine = MaintenanceEngine::with_parallelism(ParallelismMode::Threads(3));
        let mut g = g0;
        let batches: [&[(NodeId, NodeId)]; 3] =
            [&[(3, 140), (60, 201)], &[(10, 11)], &[(140, 2), (2, 140)]];
        for batch in batches {
            let add: Vec<(NodeId, NodeId)> = batch
                .iter()
                .copied()
                .filter(|&(u, v)| !g.has_edge(u, v) && u != v)
                .collect();
            let g2 = with_edges(&g, &add, &[]);
            // Items dealt to three workers vs run in order in this
            // thread: identical stats & vectors.
            let a = engine.apply_edges(&mut live, &g2, &add).expect("valid");
            let b = fresh.apply_edge_updates(&g2, &add).expect("valid");
            assert_eq!(a, b, "stats diverged between engine modes");
            assert_eq!(live.base_vectors(), fresh.base_vectors());
            assert_eq!(live.skeleton_columns(), fresh.skeleton_columns());
            g = g2;
        }
        assert_bit_identical_to_rebuild(&live, &g);
    }

    #[test]
    fn clean_owners_are_skipped_on_a_chain() {
        // A directed path 0 -> 1 -> ... -> n-1. The *source's* whole
        // root-to-home chain is dirtied, so without the read-set
        // predicate everything on it would recompute; with it only the
        // vectors whose last run acted on the rewritten node do.
        let n = 120usize;
        let edges: Vec<(NodeId, NodeId)> = (0..n as NodeId - 1).map(|i| (i, i + 1)).collect();
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.push_edge(u, v);
        }
        let g = b.build();
        let mut idx = HgpaIndex::build(&g, &tight(), &opts());
        // The inserted edge (2 -> 0) rewrites node 2's row only; a push
        // from any node >= 3 never gets back to it, so every such base
        // vector is skipped.
        let g2 = with_edges(&g, &[(2, 0)], &[]);
        let stats = idx.apply_edge_updates(&g2, &[(2, 0)]).expect("valid");
        assert!(
            stats.vectors_skipped > 0,
            "chain owners downstream of the update must be skipped"
        );
        assert_exact(&idx, &g2, &[0, 2, 3, 60, 119]);
        assert_bit_identical_to_rebuild(&idx, &g2);
    }

    #[test]
    fn a_batch_with_every_vector_skipped_builds_no_view_and_runs_no_item() {
        // Removing an isolated node rewrites only its own row, which no
        // run ever reads: its chain is dirty, yet nothing on it is stale.
        let n = 200;
        let mut b = GraphBuilder::new(n + 1);
        b.extend_edges(base_graph(n, 5).edges());
        let g = b.build();
        let mut idx = HgpaIndex::build(&g, &tight(), &opts());
        let v = n as NodeId;
        let applied = apply_delta(
            &g,
            &GraphDelta {
                nodes: vec![NodeUpdate::Remove(v)],
                edges: vec![],
            },
        )
        .expect("valid delta");
        assert!(applied.dropped_edges.is_empty());
        let (plan, stats) =
            MaintenanceEngine::plan_batch(&mut idx, &applied.graph, &[], &[v], &[], &[])
                .expect("valid batch");
        assert!(!stats.dirty_subgraphs.is_empty() && stats.vectors_skipped > 0);
        assert!(plan.views.is_empty(), "no view built");
        assert!(plan.items.is_empty(), "no item planned");
        let fresh = plan.execute(idx.config(), ParallelismMode::Threads(2));
        assert!(fresh.is_empty(), "no item run");
        assert_bit_identical_to_rebuild(&idx, &applied.graph);
    }

    #[test]
    fn sequential_batches_on_one_engine_stay_exact() {
        let g0 = base_graph(200, 53);
        let mut idx = HgpaIndex::build(&g0, &tight(), &opts());
        let mut engine = MaintenanceEngine::new();
        let mut g = g0;
        // Several small sequential batches, insertions and removals
        // mixed: a vector skipped by one batch must still be the output
        // of a run on the graph the next batch starts from.
        type Batch<'a> = (&'a [(NodeId, NodeId)], &'a [usize]);
        let script: [Batch; 4] = [
            (&[(5, 120)], &[]),
            (&[(80, 20), (21, 80)], &[0]),
            (&[(140, 2)], &[5]),
            (&[(2, 140), (7, 9)], &[]),
        ];
        for (adds, rm_idx) in script {
            let add: Vec<(NodeId, NodeId)> = adds
                .iter()
                .copied()
                .filter(|&(u, v)| !g.has_edge(u, v) && u != v)
                .collect();
            let rm: Vec<(NodeId, NodeId)> = rm_idx
                .iter()
                .filter_map(|&i| g.edges().nth(i))
                .collect();
            let g2 = with_edges(&g, &add, &rm);
            let mut changed = add.clone();
            changed.extend(&rm);
            engine.apply_edges(&mut idx, &g2, &changed).expect("valid");
            g = g2;
        }
        assert_bit_identical_to_rebuild(&idx, &g);
        assert_exact(&idx, &g, &[2, 5, 80, 140, 199]);
    }

    #[test]
    fn added_node_is_admitted_and_exact() {
        let g = base_graph(150, 61);
        let mut idx = HgpaIndex::build(&g, &tight(), &opts());
        let mut engine = MaintenanceEngine::new();
        let v = g.node_count() as NodeId;
        let delta = GraphDelta {
            nodes: vec![NodeUpdate::Add],
            edges: vec![EdgeUpdate::Insert(v, 3), EdgeUpdate::Insert(7, v)],
        };
        let applied = apply_delta(&g, &delta).expect("valid delta");
        let stats = engine.apply(&mut idx, &applied).expect("valid batch");
        assert_eq!(stats.nodes_added, 1);
        assert!(idx.is_live(v));
        assert_eq!(idx.node_count(), 151);
        // The new node has a home leaf and both directions serve exactly.
        assert_exact(&idx, &applied.graph, &[v, 3, 7, 0]);
        assert_bit_identical_to_rebuild(&idx, &applied.graph);
    }

    #[test]
    fn isolated_added_node_serves_alpha_self_mass() {
        let g = base_graph(120, 67);
        let mut idx = HgpaIndex::build(&g, &tight(), &opts());
        let mut engine = MaintenanceEngine::new();
        let v = g.node_count() as NodeId;
        let applied = apply_delta(
            &g,
            &GraphDelta {
                nodes: vec![NodeUpdate::Add],
                edges: vec![],
            },
        )
        .expect("valid delta");
        engine.apply(&mut idx, &applied).expect("valid batch");
        let ppv = idx.query(v);
        assert!((ppv.get(v) - 0.15).abs() < 1e-12, "isolated PPV is α at self");
        assert_eq!(ppv.nnz(), 1);
    }

    #[test]
    fn removed_node_is_excised_and_exact() {
        let g = base_graph(180, 71);
        let mut idx = HgpaIndex::build(&g, &tight(), &opts());
        let mut engine = MaintenanceEngine::new();
        // Remove a node with both in- and out-edges.
        let v = (0..180u32)
            .find(|&v| g.out_degree(v) > 0 && !g.in_neighbors(v).is_empty())
            .expect("connected node");
        let applied = apply_delta(
            &g,
            &GraphDelta {
                nodes: vec![NodeUpdate::Remove(v)],
                edges: vec![],
            },
        )
        .expect("valid delta");
        let stats = engine.apply(&mut idx, &applied).expect("valid batch");
        assert_eq!(stats.nodes_removed, 1);
        assert!(!idx.is_live(v));
        assert!(stats.dirty_nodes.contains(&v));
        // Dead node serves the empty vector / 0.0 everywhere.
        assert_eq!(idx.query(v).nnz(), 0);
        assert_eq!(idx.query_value(v, 0), 0.0);
        // Live nodes stay exact on the post-churn graph.
        let live: Vec<NodeId> = [0u32, 50, 120, 179]
            .into_iter()
            .filter(|&u| u != v)
            .collect();
        assert_exact(&idx, &applied.graph, &live);
        assert_bit_identical_to_rebuild(&idx, &applied.graph);
    }

    #[test]
    fn double_remove_is_rejected_without_damage() {
        let g = base_graph(100, 73);
        let mut idx = HgpaIndex::build(&g, &tight(), &opts());
        let mut engine = MaintenanceEngine::new();
        let rm = |v: NodeId| GraphDelta {
            nodes: vec![NodeUpdate::Remove(v)],
            edges: vec![],
        };
        let applied = apply_delta(&g, &rm(4)).expect("valid delta");
        engine.apply(&mut idx, &applied).expect("first removal");
        // Second removal of the same id: the delta layer rejects it
        // against a graph that still has the tombstone, so drive the
        // engine directly with a hand-built batch.
        let stale = AppliedGraphDelta {
            graph: applied.graph.clone(),
            added: vec![],
            removed: vec![4],
            dropped_edges: vec![],
            net: vec![],
            skipped: 0,
            cancelled: 0,
        };
        let err = engine.apply(&mut idx, &stale).unwrap_err();
        assert!(matches!(err, UpdateError::DeadNode { node: 4 }), "got {err:?}");
        // Index still serves the post-first-removal graph exactly.
        assert_exact(&idx, &applied.graph, &[0, 50, 99]);
    }

    /// A one-hub graph sized so the column's inflow bound decides: hub
    /// `h = 0`; `w = 1` has the single edge `w -> h` and is settled
    /// (`0.85 · 0.15 = 0.1275 > ε`); `a = 2` points at `w` and at eleven
    /// dangling nodes `3..=13`, so it collects `0.85 · 0.1275 / 12 ≈
    /// 0.0090 ≤ ε = 0.01` and stays unsettled. Node 14 is the second
    /// child of the hand-built two-level hierarchy.
    fn inflow_fixture() -> (CsrGraph, HgpaIndex) {
        use ppr_partition::{Hierarchy, SubgraphNode};
        let mut edges = vec![(1, 0), (2, 1)];
        edges.extend((3..=13).map(|x| (2, x)));
        let g = ppr_graph::csr::from_edges(15, &edges);
        let leaf = |members: Vec<NodeId>| SubgraphNode {
            level: 1,
            parent: Some(0),
            children: vec![],
            members,
            hubs: vec![],
        };
        let mut home = vec![1usize; 15];
        home[0] = 0;
        home[14] = 2;
        let mut hub_level = vec![None; 15];
        hub_level[0] = Some(0);
        let hierarchy = Hierarchy {
            nodes: vec![
                SubgraphNode {
                    level: 0,
                    parent: None,
                    children: vec![1, 2],
                    members: (0..15).collect(),
                    hubs: vec![0],
                },
                leaf((1..=13).collect()),
                leaf(vec![14]),
            ],
            home,
            hub_level,
            depth: 1,
        };
        let cfg = PprConfig {
            epsilon: 1e-2,
            ..Default::default()
        };
        let idx = HgpaIndex::build_with_hierarchy(&g, &cfg, &opts(), hierarchy);
        let col = &idx.skeleton_columns()[0];
        assert!(col.get(1) > 0.0 && col.get(2) == 0.0, "w settled, a not");
        (g, idx)
    }

    #[test]
    fn column_with_a_settled_out_neighbour_is_skipped_while_inflow_stays_below_eps() {
        let (g, mut idx) = inflow_fixture();
        // deg(a) 12 -> 11: inflow 0.85 · 0.1275 / 11 ≈ 0.00985 ≤ ε. The
        // column's support holds `w`, an out-neighbour of the rewritten
        // `a` — a support-only rule would recompute it.
        let g2 = with_edges(&g, &[], &[(2, 13)]);
        let stats = idx.apply_edge_updates(&g2, &[(2, 13)]).expect("valid batch");
        assert_eq!(stats.vectors_recomputed, 1, "only a's own base vector");
        assert_eq!(stats.vectors_skipped, 2 + 12, "h's pair, the other leaf members");
        assert_bit_identical_to_rebuild(&idx, &g2);
    }

    #[test]
    fn column_is_recomputed_once_inflow_can_exceed_eps() {
        let (g, mut idx) = inflow_fixture();
        // deg(a) 12 -> 10: inflow 0.85 · 0.1275 / 10 ≈ 0.0108 > ε, so the
        // new run settles `a` and the stored column is not its output.
        let gone = [(2, 12), (2, 13)];
        let g2 = with_edges(&g, &[], &gone);
        let stats = idx.apply_edge_updates(&g2, &gone).expect("valid batch");
        assert_eq!(stats.vectors_recomputed, 2, "a's base vector and h's column");
        assert_eq!(stats.vectors_unchanged, 0);
        assert!(idx.skeleton_columns()[0].get(2) > 0.0, "a is settled now");
        assert_bit_identical_to_rebuild(&idx, &g2);
    }

    #[test]
    fn thresholded_index_recomputes_every_dirty_vector_and_stays_close() {
        let g = base_graph(200, 5);
        let ad = HgpaBuildOptions {
            drop_threshold: Some(1e-4),
            ..opts()
        };
        let mut idx = HgpaIndex::build(&g, &tight(), &ad);
        assert!(idx.stats().dropped_entries > 0);
        let (u, v) = g.edges().next().unwrap();
        let g2 = with_edges(&g, &[], &[(u, v)]);
        let stats = idx.apply_edge_updates(&g2, &[(u, v)]).expect("valid batch");
        // Truncated supports under-state read sets: nothing may be skipped.
        assert_eq!(stats.vectors_skipped, 0);
        assert!(stats.vectors_recomputed > 0);
        // Within the thresholded index's contract on the new graph: no
        // further from the oracle than a thresholded rebuild is. (Every
        // stored value under-approximates and every term of Eq. 6 is
        // non-negative, so restoring dropped entries can only move an
        // answer up towards the oracle.)
        let rebuilt = HgpaIndex::build_with_hierarchy(&g2, &tight(), &ad, idx.hierarchy().clone());
        for s in [u, v, 0, 100, 199] {
            let oracle = dense_ppv(&g2, s, 0.15);
            let err = |i: &HgpaIndex| {
                let got = i.query(s);
                (0..200u32)
                    .map(|t| (got.get(t) - oracle[t as usize]).abs())
                    .fold(0.0f64, f64::max)
            };
            assert!(err(&idx) <= err(&rebuilt) + 1e-12, "source {s}");
            assert!(err(&idx) < 1e-2, "source {s}: {}", err(&idx));
        }
    }
}
