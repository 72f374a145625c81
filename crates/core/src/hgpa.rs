//! HGPA — the hierarchical, hub-distributed algorithm (§4).
//!
//! The graph is recursively partitioned into a hierarchy (Figure 6). Per
//! subgraph `G` at level `m` with hub set `H(G)` separating its children,
//! the index stores:
//!
//! * for each hub `h ∈ H(G)`: its **partial vector** `p_h[G]` (selective
//!   expansion inside the virtual subgraph `G̃`, blocked by `H(G)`) and its
//!   **skeleton column** `c_h[G](u) = r_u[G̃](h)` over the members of `G`;
//! * for each non-hub node `u` in a leaf: its full local PPV `r_u[G̃_l]`.
//!
//! The query-time reconstruction walks `u`'s root-to-home path (Eq. 6):
//!
//! ```text
//! r_u = Σ_m (1/α) Σ_{h ∈ H(G_m^{(u)})} S_u[G_m](h) · P_h[G_m]  +  base(u)
//! ```
//!
//! with `base(u)` the leaf PPV (non-hub `u`) or `u`'s own partial vector at
//! the level where it became a hub — the uniform formula that Theorem 3
//! shows telescopes to Eq. 4 and hence the exact PPV.
//!
//! Distribution (§4.4, Eq. 7, Figure 8): every subgraph's hub list is
//! split evenly over the `s` machines, and leaf subgraphs are spread
//! round-robin, so each machine does `~1/s` of every level's work — the
//! load balance the paper's Figure 10 demonstrates. Each machine's reply
//! is a single vector; the coordinator just sums (Theorem 4 communication
//! bound O(s·|V|)).

use crate::parallel::{run_timed, ParallelismMode};
use crate::push::PushEngine;
use crate::skeleton::SkeletonEngine;
use crate::{PprConfig, Scratch, SparseVector};
use ppr_graph::{CsrGraph, NodeId, ViewBuilder};
use ppr_partition::{Hierarchy, HierarchyConfig};

/// Build options for [`HgpaIndex`].
#[derive(Clone, Copy, Debug)]
pub struct HgpaBuildOptions {
    /// Hierarchical-partitioning options (fanout, depth, hub cover, ...).
    pub hierarchy: HierarchyConfig,
    /// Number of machines the index is spread over.
    pub machines: usize,
    /// `HGPA_ad` (§6.2.9): drop stored entries with value below this
    /// threshold after precomputation. `None` keeps the exact index.
    pub drop_threshold: Option<f64>,
    /// How precompute work items (per-subgraph hub slices, per-leaf local
    /// PPVs) execute. Index contents are bit-identical across modes
    /// (pinned by `tests/parallel_build.rs`);
    /// [`ParallelismMode::Sequential`] keeps per-machine modeled seconds
    /// measurement-grade, while [`ParallelismMode::Threads`] shrinks
    /// wall-clock with host cores.
    pub parallelism: ParallelismMode,
}

impl Default for HgpaBuildOptions {
    fn default() -> Self {
        Self {
            hierarchy: HierarchyConfig::default(),
            machines: 6, // the paper's default machine count (§6.1)
            drop_threshold: None,
            parallelism: ParallelismMode::Sequential,
        }
    }
}

/// Per-build statistics (offline cost accounting for Figures 12/16/17).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HgpaBuildStats {
    /// Partial-vector push operations executed.
    pub partial_pushes: u64,
    /// Skeleton columns computed.
    pub skeleton_columns: usize,
    /// Leaf PPVs computed.
    pub leaf_vectors: usize,
    /// Entries dropped by the `HGPA_ad` threshold.
    pub dropped_entries: usize,
}

/// The precomputed HGPA index.
///
/// ```
/// use ppr_core::hgpa::{HgpaBuildOptions, HgpaIndex};
/// use ppr_core::PprConfig;
/// use ppr_graph::generators::{hierarchical_sbm, HsbmConfig};
///
/// let graph = hierarchical_sbm(&HsbmConfig { nodes: 300, ..Default::default() }, 7);
/// let cfg = PprConfig { epsilon: 1e-7, ..Default::default() };
/// let index = HgpaIndex::build(&graph, &cfg, &HgpaBuildOptions::default());
///
/// // Full PPV, top-k, and node-to-node queries are all exact.
/// let ppv = index.query(0);
/// assert!(ppv.l1_norm() <= 1.0 + 1e-9);
/// assert_eq!(index.query_top_k(0, 3), ppv.top_k(3));
/// let (v, score) = ppv.top_k(1)[0];
/// assert!((index.query_value(0, v) - score).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct HgpaIndex {
    n: usize,
    cfg: PprConfig,
    machines: usize,
    hierarchy: Hierarchy,
    /// Base vector per node: leaf local PPV (non-hubs) or own partial
    /// vector at the hub's level (hubs). Entries in global ids.
    base: Vec<SparseVector>,
    /// Hub-aligned storage: `hub_rank[v]` indexes `skeletons` and
    /// `machine_of_hub`; `u32::MAX` for non-hubs.
    hub_rank: Vec<u32>,
    /// Hub node id per rank.
    hub_ids: Vec<NodeId>,
    /// Skeleton column per hub rank (keyed by member node id).
    skeletons: Vec<SparseVector>,
    /// Machine owning each hub rank (even split *within* each subgraph's
    /// hub list, per Eq. 7).
    machine_of_hub: Vec<u32>,
    /// Machine owning each node's base vector.
    machine_of_base: Vec<u32>,
    /// Build statistics.
    stats: HgpaBuildStats,
}

/// Per-machine offline (precomputation) cost report — the paper's offline
/// time metric is the maximum entry (Figures 12, 16, 20, 28).
#[derive(Clone, Debug, Default)]
pub struct OfflineReport {
    /// *Modeled* seconds each machine spent precomputing its vectors: the
    /// sum of its individually timed work items, i.e. dedicated-machine
    /// cost regardless of how many worker threads this host lent the
    /// build. Measurement-grade under [`ParallelismMode::Sequential`];
    /// under [`ParallelismMode::Threads`] core contention may inflate
    /// item times, so treat these as throughput-oriented there.
    pub per_machine_seconds: Vec<f64>,
    /// Seconds spent partitioning (done once, coordinator-side).
    pub partition_seconds: f64,
    /// Real elapsed seconds of the whole precompute fan-out in this
    /// process (excluding partitioning) — the wall-clock counterpart of
    /// the modeled [`OfflineReport::max_machine_seconds`], mirroring
    /// `ClusterQueryReport::wall_seconds` on the online path. Under
    /// `Sequential` this is ≈ the *sum* of machine times; under
    /// `Threads` with enough cores it approaches the longest item chain.
    pub wall_seconds: f64,
    /// Largest per-worker engine-arena footprint (push + skeleton
    /// scratch) the build held, in bytes — the `BENCH_offline.json`
    /// peak-scratch metric.
    pub peak_scratch_bytes: u64,
}

impl OfflineReport {
    /// Maximum per-machine time — the paper's reported offline time.
    pub fn max_machine_seconds(&self) -> f64 {
        self.per_machine_seconds.iter().copied().fold(0.0, f64::max)
    }
}

/// One unit of §5's distributed precomputation: either a leaf subgraph
/// (the owner computes every member's local PPV) or one machine's slice
/// of an internal subgraph's hub list (partial vector + skeleton column
/// per owned hub, sharing one subgraph view). Slicing hubs per machine —
/// rather than one item per hub — keeps the view-build amortization of
/// the sequential schedule, so a machine's modeled cost includes exactly
/// the view builds a dedicated machine would pay.
enum BuildItem<'h> {
    Leaf {
        sg: &'h ppr_partition::SubgraphNode,
        machine: usize,
    },
    HubSlice {
        sg: &'h ppr_partition::SubgraphNode,
        rank_base: u32,
        machine: usize,
    },
}

impl BuildItem<'_> {
    fn machine(&self) -> usize {
        match self {
            BuildItem::Leaf { machine, .. } | BuildItem::HubSlice { machine, .. } => *machine,
        }
    }
}

/// What one work item produced during distributed precomputation.
struct ItemOutput {
    bases: Vec<(NodeId, SparseVector)>,
    skeletons: Vec<(u32, SparseVector)>,
    stats: HgpaBuildStats,
}

impl HgpaIndex {
    /// Build the index: hierarchical partition + distributed per-subgraph
    /// precomputation (§5); see
    /// [`HgpaIndex::build_distributed_with_hierarchy`] for how the work
    /// is scheduled.
    pub fn build(g: &CsrGraph, cfg: &PprConfig, opts: &HgpaBuildOptions) -> Self {
        Self::build_distributed(g, cfg, opts).0
    }

    /// Build and report per-machine offline cost.
    pub fn build_distributed(
        g: &CsrGraph,
        cfg: &PprConfig,
        opts: &HgpaBuildOptions,
    ) -> (Self, OfflineReport) {
        let t0 = crate::parallel::Stopwatch::start();
        let hierarchy = Hierarchy::build(g, &opts.hierarchy);
        let partition_seconds = t0.elapsed_seconds();
        let (idx, mut report) =
            Self::build_distributed_with_hierarchy(g, cfg, opts, hierarchy);
        report.partition_seconds = partition_seconds;
        (idx, report)
    }

    /// Build from a pre-computed hierarchy (lets experiments sweep machine
    /// counts without re-partitioning).
    pub fn build_with_hierarchy(
        g: &CsrGraph,
        cfg: &PprConfig,
        opts: &HgpaBuildOptions,
        hierarchy: Hierarchy,
    ) -> Self {
        Self::build_distributed_with_hierarchy(g, cfg, opts, hierarchy).0
    }

    /// Distributed build from a pre-computed hierarchy.
    ///
    /// Work placement follows §4.4/§5 exactly: each subgraph's hub list is
    /// split evenly over machines (each machine computes the partial vector
    /// *and* skeleton column of its hubs) and leaf subgraphs are assigned
    /// round-robin (the owning machine computes every member's local PPV).
    /// Machines share nothing but the read-only graph — "we keep a copy of
    /// the graph structure on each machine" — so the work items are
    /// genuinely communication-free until the final merge, which models
    /// the vectors landing on their owners' disks.
    ///
    /// Execution is decoupled from placement: the items are dealt to
    /// [`opts.parallelism`](HgpaBuildOptions::parallelism) workers (one
    /// reusable engine set each), timed individually, and summed per
    /// owning machine — so [`OfflineReport::per_machine_seconds`] keeps
    /// reflecting dedicated-machine cost under any worker count while
    /// [`OfflineReport::wall_seconds`] tracks this host's real elapsed
    /// time. Index contents are bit-identical across modes (pinned by
    /// `tests/parallel_build.rs`).
    pub fn build_distributed_with_hierarchy(
        g: &CsrGraph,
        cfg: &PprConfig,
        opts: &HgpaBuildOptions,
        hierarchy: Hierarchy,
    ) -> (Self, OfflineReport) {
        cfg.validate();
        assert!(opts.machines >= 1);
        let n = g.node_count();
        let machines = opts.machines;

        // Hub ranks in hierarchy order (per-subgraph contiguous).
        let mut hub_rank = vec![u32::MAX; n];
        let mut hub_ids: Vec<NodeId> = Vec::new();
        let mut machine_of_hub: Vec<u32> = Vec::new();
        for sg in &hierarchy.nodes {
            for (i, &h) in sg.hubs.iter().enumerate() {
                // audit:allow(lossy-id-cast): hub rank < n, within the
                // builder-asserted u32::MAX node bound
                hub_rank[h as usize] = hub_ids.len() as u32;
                hub_ids.push(h);
                // Eq. 7: split each subgraph's hub list evenly over machines.
                // audit:allow(lossy-id-cast): machine index, bounded by `% machines`
                machine_of_hub.push((i % machines) as u32);
            }
        }

        // Decompose §5's precomputation into independent work items (leaf
        // PPV batches and per-machine hub slices, in hierarchy order) and
        // deal them to `opts.parallelism` workers. Items are timed
        // individually and summed per owning machine, so per-machine
        // modeled seconds reflect dedicated-machine cost — the quantity
        // the paper's offline figures report — under any worker count.
        // The work sets are disjoint and merge in item order, so index
        // contents are identical in every mode.
        let items = build_items(&hierarchy, machines);
        let t_build = crate::parallel::Stopwatch::start();
        let (outputs, peak_scratch_bytes) = run_timed(
            items.len(),
            opts.parallelism,
            || BuildWorker {
                push: PushEngine::new(0),
                skel: SkeletonEngine::new(0),
                vb: ViewBuilder::new(g),
            },
            |w| w.push.arena_bytes() + w.skel.arena_bytes(),
            |i, w| run_item(&items[i], cfg, machines, w),
        );
        let wall_seconds = t_build.elapsed_seconds();

        let mut base: Vec<SparseVector> = vec![SparseVector::new(); n];
        let mut skeletons: Vec<SparseVector> = vec![SparseVector::new(); hub_ids.len()];
        let mut stats = HgpaBuildStats::default();
        let mut per_machine_seconds = vec![0.0f64; machines];
        for (item, (out, secs)) in items.iter().zip(outputs) {
            for (v, vec) in out.bases {
                base[v as usize] = vec;
            }
            for (rank, col) in out.skeletons {
                skeletons[rank as usize] = col;
            }
            stats.partial_pushes += out.stats.partial_pushes;
            stats.skeleton_columns += out.stats.skeleton_columns;
            stats.leaf_vectors += out.stats.leaf_vectors;
            per_machine_seconds[item.machine()] += secs;
        }

        // HGPA_ad truncation (§6.2.9).
        if let Some(t) = opts.drop_threshold {
            for v in base.iter_mut().chain(skeletons.iter_mut()) {
                stats.dropped_entries += v.truncate_below(t);
            }
        }

        // Base-vector placement: leaf subgraphs round-robin (§4.4); hub
        // bases live with their hub's machine.
        let mut machine_of_base = vec![0u32; n];
        for (leaf_idx, leaf) in hierarchy.leaves().enumerate() {
            // audit:allow(lossy-id-cast): machine index, bounded by `% machines`
            let m = (leaf_idx % machines) as u32;
            for &v in &hierarchy.nodes[leaf].members {
                machine_of_base[v as usize] = m;
            }
        }
        for (rank, &h) in hub_ids.iter().enumerate() {
            machine_of_base[h as usize] = machine_of_hub[rank];
        }

        let idx = Self {
            n,
            cfg: *cfg,
            machines,
            hierarchy,
            base,
            hub_rank,
            hub_ids,
            skeletons,
            machine_of_hub,
            machine_of_base,
            stats,
        };
        let report = OfflineReport {
            per_machine_seconds,
            partition_seconds: 0.0,
            wall_seconds,
            peak_scratch_bytes,
        };
        (idx, report)
    }

    /// Exact PPV of `u`, reconstructed centrally (Eq. 6).
    pub fn query(&self, u: NodeId) -> SparseVector {
        self.query_preference(&[(u, 1.0)])
    }

    /// Exact PPV of a weighted preference set (the paper's general `P`,
    /// §1). By the Jeh–Widom linearity theorem the PPV of `P` is the
    /// weighted sum of its members' PPVs, so the machines simply
    /// accumulate each member's terms into the same reply vector — still
    /// one communication round.
    pub fn query_preference(&self, preference: &[(NodeId, f64)]) -> SparseVector {
        let mut dense = vec![0.0f64; self.n];
        let mut touched: Vec<NodeId> = Vec::new();
        for &(u, w) in preference {
            self.accumulate_query(u, w, None, &mut dense, &mut touched);
        }
        SparseVector::harvest_scratch(&mut dense, &mut touched)
    }

    /// The vector machine `machine` sends to the coordinator for query `u`
    /// (Algorithm 1). Summing over machines equals [`HgpaIndex::query`].
    pub fn machine_vector(&self, u: NodeId, machine: u32) -> SparseVector {
        self.machine_vector_preference(&[(u, 1.0)], machine)
    }

    /// Machine reply for a preference-set query.
    pub fn machine_vector_preference(
        &self,
        preference: &[(NodeId, f64)],
        machine: u32,
    ) -> SparseVector {
        let mut scratch = Scratch::with_len(self.n);
        self.machine_vector_preference_into(preference, machine, &mut scratch)
    }

    /// [`HgpaIndex::machine_vector_preference`] accumulating into a
    /// caller-owned [`Scratch`] — bit-identical output, but a fan-out
    /// worker answering many queries pays the O(n) dense allocation once
    /// instead of once per call.
    pub fn machine_vector_preference_into(
        &self,
        preference: &[(NodeId, f64)],
        machine: u32,
        scratch: &mut Scratch,
    ) -> SparseVector {
        scratch.ensure(self.n);
        let (dense, touched) = scratch.parts();
        for &(u, w) in preference {
            self.accumulate_query(u, w, Some(machine), dense, touched);
        }
        scratch.harvest()
    }

    fn accumulate_query(
        &self,
        u: NodeId,
        weight: f64,
        only_machine: Option<u32>,
        dense: &mut [f64],
        touched: &mut Vec<NodeId>,
    ) {
        if !self.is_live(u) {
            return; // tombstoned or out-of-range source: empty PPV
        }
        let alpha = self.cfg.alpha;
        // Walk the root-to-home path; every subgraph on it contributes its
        // hub terms (the leaf, having no hubs, contributes none).
        for sg_idx in self.hierarchy.path_to(u) {
            let sg = &self.hierarchy.nodes[sg_idx];
            for &h in &sg.hubs {
                let rank = self.hub_rank[h as usize] as usize;
                if let Some(m) = only_machine {
                    if self.machine_of_hub[rank] != m {
                        continue;
                    }
                }
                let mut coef = self.skeletons[rank].get(u);
                if h == u {
                    coef -= alpha;
                }
                if coef == 0.0 {
                    continue;
                }
                // Strict per-level partials put p_h[G_m](h) = α and no
                // other hub entries, so this writes the local skeleton
                // value at coordinate h (the recursion's exact value
                // there, Theorem 3) and the Eq. 6 hub term elsewhere.
                self.base[h as usize].scatter_into(dense, touched, weight * coef / alpha);
            }
        }
        let include_base = match only_machine {
            Some(m) => self.machine_of_base[u as usize] == m,
            None => true,
        };
        if include_base {
            self.base[u as usize].scatter_into(dense, touched, weight);
        }
    }

    /// Start a reusable query session: repeated queries share one dense
    /// accumulator instead of allocating per call. This is how the
    /// experiment harness executes the paper's 1000-query workloads.
    pub fn session(&self) -> QuerySession<'_> {
        QuerySession {
            index: self,
            dense: vec![0.0; self.n],
            touched: Vec::new(),
        }
    }

    /// Exact single-value query `r_u(v)` — the node-to-node PPR problem
    /// (§7, Lofgren et al.) answered from the index without materialising
    /// the full vector: only the hub terms along `u`'s path are probed at
    /// coordinate `v`, costing O(path hubs · log nnz).
    pub fn query_value(&self, u: NodeId, v: NodeId) -> f64 {
        if !self.is_live(u) {
            return 0.0; // tombstoned or out-of-range source
        }
        let alpha = self.cfg.alpha;
        let mut acc = self.base[u as usize].get(v);
        for sg_idx in self.hierarchy.path_to(u) {
            let sg = &self.hierarchy.nodes[sg_idx];
            for &h in &sg.hubs {
                let rank = self.hub_rank[h as usize] as usize;
                let mut coef = self.skeletons[rank].get(u);
                if h == u {
                    coef -= alpha;
                }
                if coef == 0.0 {
                    continue;
                }
                acc += coef / alpha * self.base[h as usize].get(v);
            }
        }
        acc
    }

    /// Exact top-k query (§7's top-k PPR problem): the k highest-scoring
    /// nodes of `u`'s PPV with their scores, descending.
    pub fn query_top_k(&self, u: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        self.query(u).top_k(k)
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Number of graph nodes, **including tombstones** of removed nodes
    /// (the id space stays dense under node churn).
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Is `v` a node this index currently serves? `false` for ids out of
    /// range and for tombstones left by node removal; queries for such
    /// sources return the empty vector (or `0.0` from
    /// [`HgpaIndex::query_value`]) instead of panicking.
    pub fn is_live(&self, v: NodeId) -> bool {
        (v as usize) < self.n && self.hierarchy.home[v as usize] != usize::MAX
    }

    /// The partition hierarchy backing this index.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Build-time statistics.
    pub fn stats(&self) -> &HgpaBuildStats {
        &self.stats
    }

    /// PPR configuration used at build time.
    pub fn config(&self) -> &PprConfig {
        &self.cfg
    }

    /// All hub node ids, in hierarchy order.
    pub fn hub_ids(&self) -> &[NodeId] {
        &self.hub_ids
    }

    /// Base vector of every node (leaf local PPV or own partial vector),
    /// indexed by node id. Exposed so differential tests can pin builds
    /// bit-identical.
    pub fn base_vectors(&self) -> &[SparseVector] {
        &self.base
    }

    /// Skeleton column per hub rank (aligned with [`HgpaIndex::hub_ids`]).
    pub fn skeleton_columns(&self) -> &[SparseVector] {
        &self.skeletons
    }

    /// Machine owning each hub rank (Eq. 7's even split).
    pub fn machine_of_hub(&self) -> &[u32] {
        &self.machine_of_hub
    }

    /// Machine owning each node's base vector.
    pub fn machine_of_base(&self) -> &[u32] {
        &self.machine_of_base
    }

    /// Bytes of precomputed state on each machine (Figure 11's metric).
    pub fn storage_bytes_per_machine(&self) -> Vec<u64> {
        let mut bytes = vec![0u64; self.machines];
        for (rank, &h) in self.hub_ids.iter().enumerate() {
            let m = self.machine_of_hub[rank] as usize;
            bytes[m] += self.base[h as usize].wire_bytes() + self.skeletons[rank].wire_bytes();
        }
        for v in 0..self.n as NodeId {
            if self.hub_rank[v as usize] == u32::MAX {
                bytes[self.machine_of_base[v as usize] as usize] +=
                    self.base[v as usize].wire_bytes();
            }
        }
        bytes
    }

    /// Total stored entries across machines (space accounting, §4.5).
    pub fn stored_entries(&self) -> usize {
        self.base.iter().map(SparseVector::nnz).sum::<usize>()
            + self.skeletons.iter().map(SparseVector::nnz).sum::<usize>()
    }

    /// Mutable hierarchy access for the incremental updater.
    pub(crate) fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.hierarchy
    }

    /// Split borrow for the incremental updater: the hierarchy, read-only,
    /// beside the stored vectors it rewrites.
    pub(crate) fn stored_vectors_mut(&mut self) -> (&Hierarchy, StoredVectors<'_>) {
        (
            &self.hierarchy,
            StoredVectors {
                base: &mut self.base,
                hub_rank: &self.hub_rank,
                skeletons: &mut self.skeletons,
            },
        )
    }

    /// Give a freshly promoted hub a storage rank and machine assignment.
    /// Idempotent for nodes that already hold a rank (hubs promoted from a
    /// deeper level keep their slot).
    pub(crate) fn register_promoted_hub(&mut self, u: NodeId) {
        if self.hub_rank[u as usize] != u32::MAX {
            return;
        }
        // audit:allow(lossy-id-cast): hub rank < n, within the
        // builder-asserted u32::MAX node bound
        let rank = self.hub_ids.len() as u32;
        self.hub_rank[u as usize] = rank;
        self.hub_ids.push(u);
        self.skeletons.push(SparseVector::new());
        // Least-loaded assignment keeps the Eq. 7 balance as hubs arrive.
        let mut load = vec![0usize; self.machines];
        for &m in &self.machine_of_hub {
            load[m as usize] += 1;
        }
        let machine = load
            .iter()
            .enumerate()
            .min_by_key(|&(_, l)| *l)
            .map(|(m, _)| m as u32)
            .unwrap_or(0);
        self.machine_of_hub.push(machine);
        self.machine_of_base[u as usize] = machine;
    }

    /// Admit a freshly added node (id `self.n`, extending the dense id
    /// space) as a member of the least-populated leaf; returns that
    /// leaf's arena index so the updater can dirty it. The node's base
    /// vector starts empty — the caller recomputes the leaf against the
    /// new graph.
    pub(crate) fn admit_node(&mut self, v: NodeId) -> usize {
        debug_assert_eq!(v as usize, self.n, "added ids must extend the dense id space");
        let leaf = self
            .hierarchy
            .leaves()
            .min_by_key(|&l| (self.hierarchy.nodes[l].members.len(), l))
            .expect("a hierarchy always has at least one leaf");
        // Leaf members are never hubs, so the first member's base machine
        // is the leaf's round-robin owner (empty leaf: machine 0).
        let machine = self.hierarchy.nodes[leaf]
            .members
            .first()
            .map(|&m| self.machine_of_base[m as usize])
            .unwrap_or(0);
        // Member lists are closed upward: insert into the leaf and every
        // ancestor (new ids sort after all existing members).
        let mut cursor = Some(leaf);
        while let Some(i) = cursor {
            let node = &mut self.hierarchy.nodes[i];
            if let Err(pos) = node.members.binary_search(&v) {
                node.members.insert(pos, v);
            }
            cursor = node.parent;
        }
        self.hierarchy.home.push(leaf);
        self.hierarchy.hub_level.push(None);
        self.n += 1;
        self.base.push(SparseVector::new());
        self.hub_rank.push(u32::MAX);
        self.machine_of_base.push(machine);
        leaf
    }

    /// Excise a removed node: drop it from every subgraph on its
    /// root-to-home chain (member and hub lists), clear its stored
    /// vectors, and tombstone its id (`home = usize::MAX`). The id space
    /// stays dense; a former hub's rank slot is orphaned (its skeleton
    /// column is emptied and the rank never reused).
    pub(crate) fn excise_node(&mut self, v: NodeId) {
        let path = self.hierarchy.path_to(v);
        for sg in path {
            let node = &mut self.hierarchy.nodes[sg];
            if let Ok(pos) = node.members.binary_search(&v) {
                node.members.remove(pos);
            }
            if let Ok(pos) = node.hubs.binary_search(&v) {
                node.hubs.remove(pos);
            }
        }
        self.hierarchy.home[v as usize] = usize::MAX;
        self.hierarchy.hub_level[v as usize] = None;
        self.base[v as usize] = SparseVector::new();
        let rank = self.hub_rank[v as usize];
        if rank != u32::MAX {
            self.skeletons[rank as usize] = SparseVector::new();
            self.hub_rank[v as usize] = u32::MAX;
        }
    }

    /// Reassemble from persisted fields. The loader (`core::persist`)
    /// derives `hub_rank` from the stored hub list and validates every
    /// field before calling this; build statistics round-trip so a
    /// cold-started process can still report offline cost accounting.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_persist_parts(
        n: usize,
        cfg: PprConfig,
        machines: usize,
        hierarchy: Hierarchy,
        base: Vec<SparseVector>,
        hub_rank: Vec<u32>,
        hub_ids: Vec<NodeId>,
        skeletons: Vec<SparseVector>,
        machine_of_hub: Vec<u32>,
        machine_of_base: Vec<u32>,
        stats: HgpaBuildStats,
    ) -> Self {
        Self {
            n,
            cfg,
            machines,
            hierarchy,
            base,
            hub_rank,
            hub_ids,
            skeletons,
            machine_of_hub,
            machine_of_base,
            stats,
        }
    }
}

/// The stored vectors of an [`HgpaIndex`], mutably (incremental updater).
pub(crate) struct StoredVectors<'i> {
    base: &'i mut [SparseVector],
    hub_rank: &'i [u32],
    skeletons: &'i mut [SparseVector],
}

impl StoredVectors<'_> {
    /// Node `v`'s base vector.
    pub(crate) fn base(&mut self, v: NodeId) -> &mut SparseVector {
        &mut self.base[v as usize]
    }

    /// Hub `hub`'s skeleton column.
    pub(crate) fn column(&mut self, hub: NodeId) -> &mut SparseVector {
        let rank = self.hub_rank[hub as usize];
        assert_ne!(rank, u32::MAX, "node {hub} is not a registered hub");
        &mut self.skeletons[rank as usize]
    }
}

/// Amortised query executor over one [`HgpaIndex`]: reuses a dense
/// accumulator across calls (see [`HgpaIndex::session`]).
pub struct QuerySession<'i> {
    index: &'i HgpaIndex,
    dense: Vec<f64>,
    touched: Vec<NodeId>,
}

impl QuerySession<'_> {
    /// Exact PPV of `u`; identical to [`HgpaIndex::query`].
    pub fn query(&mut self, u: NodeId) -> SparseVector {
        self.query_preference(&[(u, 1.0)])
    }

    /// Exact PPV of a weighted preference set.
    pub fn query_preference(&mut self, preference: &[(NodeId, f64)]) -> SparseVector {
        for &(u, w) in preference {
            self.index
                .accumulate_query(u, w, None, &mut self.dense, &mut self.touched);
        }
        self.harvest_reset()
    }

    /// The reply vector machine `machine` computes for query `u` —
    /// identical to [`HgpaIndex::machine_vector`] but reusing this
    /// session's dense scratch, so a batch fan-out pays the O(n)
    /// allocation once per machine instead of once per source.
    pub fn machine_vector(&mut self, u: NodeId, machine: u32) -> SparseVector {
        self.index
            .accumulate_query(u, 1.0, Some(machine), &mut self.dense, &mut self.touched);
        self.harvest_reset()
    }

    /// Sparsify the accumulator and zero the scratch for the next call.
    fn harvest_reset(&mut self) -> SparseVector {
        SparseVector::harvest_scratch(&mut self.dense, &mut self.touched)
    }
}

/// Map a view-local sparse vector to global ids, in place: a view's
/// globals ascend with its local ids, so the id order survives.
pub(crate) fn map_to_global(v: SparseVector, view: &ppr_graph::SubView) -> SparseVector {
    v.map_ids_monotone(|l| view.global_of(l))
}

/// Reusable per-worker state for the build fan-out: engines grow to the
/// largest subgraph their worker meets and are reused across every item
/// (the sequential schedule used to allocate fresh engines per machine
/// and per leaf).
struct BuildWorker<'g> {
    push: PushEngine,
    skel: SkeletonEngine,
    vb: ViewBuilder<'g>,
}

/// Enumerate §5's work items in hierarchy order: one [`BuildItem::Leaf`]
/// per leaf subgraph (owner round-robin by leaf index, §4.4) and one
/// [`BuildItem::HubSlice`] per (internal subgraph, machine) pair with a
/// non-empty hub-position slice (Eq. 7's even split of each hub list).
fn build_items(hierarchy: &Hierarchy, machines: usize) -> Vec<BuildItem<'_>> {
    let mut items = Vec::new();
    let mut rank_cursor = 0u32; // global hub rank, in hierarchy order
    let mut leaf_cursor = 0usize;
    for sg in &hierarchy.nodes {
        if sg.is_leaf() {
            items.push(BuildItem::Leaf {
                sg,
                machine: leaf_cursor % machines,
            });
            leaf_cursor += 1;
            continue;
        }
        for machine in 0..machines.min(sg.hubs.len()) {
            items.push(BuildItem::HubSlice {
                sg,
                rank_base: rank_cursor,
                machine,
            });
        }
        // audit:allow(lossy-id-cast): hub rank < n, within the
        // builder-asserted u32::MAX node bound
        rank_cursor += sg.hubs.len() as u32;
    }
    items
}

/// Execute one work item with a worker's reusable engines.
fn run_item(
    item: &BuildItem<'_>,
    cfg: &PprConfig,
    machines: usize,
    w: &mut BuildWorker<'_>,
) -> ItemOutput {
    let mut out = ItemOutput {
        bases: Vec::new(),
        skeletons: Vec::new(),
        stats: HgpaBuildStats::default(),
    };
    match *item {
        BuildItem::Leaf { sg, .. } => {
            // Leaf: full local PPV for every member (Theorem 2 turns these
            // into partial vectors w.r.t. all ancestor hubs).
            let view = w.vb.build(&sg.members);
            let no_block = vec![false; view.len()];
            for (local, &global) in view.globals().iter().enumerate() {
                let res = w.push.run(&view, local as NodeId, &no_block, cfg);
                out.stats.partial_pushes += res.pushes;
                out.stats.leaf_vectors += 1;
                out.bases.push((global, map_to_global(res.partial, &view)));
            }
        }
        BuildItem::HubSlice {
            sg,
            rank_base,
            machine,
        } => {
            // Internal subgraph: this item handles hub positions
            // machine, machine+machines, ... of the subgraph's hub list.
            let view = w.vb.build(&sg.members);
            let mut blocked = vec![false; view.len()];
            for &h in &sg.hubs {
                blocked[view.local_of(h).expect("hub is a member") as usize] = true;
            }
            for pos in (machine..sg.hubs.len()).step_by(machines) {
                let h = sg.hubs[pos];
                let lh = view.local_of(h).expect("hub is a member");
                let res = w.push.run(&view, lh, &blocked, cfg);
                out.stats.partial_pushes += res.pushes;
                out.bases.push((h, map_to_global(res.partial, &view)));

                let col = w.skel.run(&view, lh, cfg);
                out.stats.skeleton_columns += 1;
                out.skeletons
                    .push((rank_base + pos as u32, map_to_global(col, &view)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_graph::dense::dense_ppv;
    use ppr_graph::generators::{hierarchical_sbm, HsbmConfig};
    use ppr_partition::CoverAlgorithm;

    fn sample(n: usize, seed: u64) -> CsrGraph {
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

    fn tight() -> PprConfig {
        PprConfig {
            epsilon: 1e-9,
            ..Default::default()
        }
    }

    fn small_leaves() -> HgpaBuildOptions {
        HgpaBuildOptions {
            hierarchy: HierarchyConfig {
                max_leaf_size: 16,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn query_matches_dense_oracle() {
        let g = sample(200, 3);
        let idx = HgpaIndex::build(&g, &tight(), &small_leaves());
        assert!(idx.hierarchy().depth >= 2, "hierarchy should be non-trivial");
        for u in [0u32, 33, 111, 199] {
            let exact = dense_ppv(&g, u, 0.15);
            let got = idx.query(u);
            for v in 0..200u32 {
                assert!(
                    (exact[v as usize] - got.get(v)).abs() < 1e-5,
                    "u {u} v {v}: {} vs {}",
                    exact[v as usize],
                    got.get(v)
                );
            }
        }
    }

    #[test]
    fn hub_queries_exact_at_every_level() {
        let g = sample(250, 11);
        let idx = HgpaIndex::build(&g, &tight(), &small_leaves());
        // One hub from each level present.
        let mut tested = 0;
        for sg in &idx.hierarchy.nodes {
            if let Some(&h) = sg.hubs.first() {
                let exact = dense_ppv(&g, h, 0.15);
                let got = idx.query(h);
                for v in 0..250u32 {
                    assert!(
                        (exact[v as usize] - got.get(v)).abs() < 1e-5,
                        "hub {h} (level {}) v {v}",
                        sg.level
                    );
                }
                tested += 1;
            }
        }
        assert!(tested >= 2, "expected hubs at multiple levels");
    }

    #[test]
    fn machine_vectors_sum_to_query() {
        let g = sample(220, 5);
        let opts = HgpaBuildOptions {
            machines: 4,
            ..small_leaves()
        };
        let idx = HgpaIndex::build(&g, &tight(), &opts);
        for u in [3u32, 100, 219] {
            let full = idx.query(u);
            let mut dense = vec![0.0f64; 220];
            for m in 0..4 {
                for (v, x) in idx.machine_vector(u, m).iter() {
                    dense[v as usize] += x;
                }
            }
            for v in 0..220u32 {
                assert!(
                    (full.get(v) - dense[v as usize]).abs() < 1e-12,
                    "u {u} v {v}"
                );
            }
        }
    }

    #[test]
    fn hgpa_ad_truncates_but_stays_close() {
        let g = sample(200, 7);
        let exact_idx = HgpaIndex::build(&g, &tight(), &small_leaves());
        let ad_idx = HgpaIndex::build(
            &g,
            &tight(),
            &HgpaBuildOptions {
                drop_threshold: Some(1e-4),
                ..small_leaves()
            },
        );
        assert!(ad_idx.stats().dropped_entries > 0);
        assert!(ad_idx.stored_entries() < exact_idx.stored_entries());
        let a = exact_idx.query(50);
        let b = ad_idx.query(50);
        // Top entries survive truncation nearly unchanged.
        let (top, _) = a.top_k(1)[0];
        assert!((a.get(top) - b.get(top)).abs() < 1e-2);
    }

    #[test]
    fn deeper_hierarchies_store_less() {
        let g = sample(400, 13);
        let shallow = HgpaIndex::build(
            &g,
            &PprConfig::default(),
            &HgpaBuildOptions {
                hierarchy: HierarchyConfig {
                    max_depth: Some(1),
                    max_leaf_size: 0,
                    min_members: 4,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let deep = HgpaIndex::build(
            &g,
            &PprConfig::default(),
            &HgpaBuildOptions {
                hierarchy: HierarchyConfig {
                    max_depth: Some(5),
                    max_leaf_size: 24,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        assert!(
            deep.stored_entries() < shallow.stored_entries(),
            "deep {} vs shallow {}",
            deep.stored_entries(),
            shallow.stored_entries()
        );
    }

    #[test]
    fn storage_is_load_balanced() {
        let g = sample(300, 17);
        let opts = HgpaBuildOptions {
            machines: 5,
            ..small_leaves()
        };
        let idx = HgpaIndex::build(&g, &tight(), &opts);
        let bytes = idx.storage_bytes_per_machine();
        let total: u64 = bytes.iter().sum();
        let max = *bytes.iter().max().unwrap();
        // Ideal share is 20%; allow generous slack for small samples.
        assert!(
            (max as f64) < 0.5 * total as f64,
            "imbalanced storage: {bytes:?}"
        );
    }

    #[test]
    fn point_queries_match_full_queries() {
        let g = sample(200, 3);
        let idx = HgpaIndex::build(&g, &tight(), &small_leaves());
        for u in [0u32, 77, 199] {
            let full = idx.query(u);
            for v in [0u32, 1, 50, 123, 199] {
                assert!(
                    (idx.query_value(u, v) - full.get(v)).abs() < 1e-12,
                    "u {u} v {v}"
                );
            }
            // Hub source too.
            let top = idx.query_top_k(u, 10);
            assert_eq!(top, full.top_k(10));
            assert!(top.len() == 10);
            assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
        }
        if let Some(&h) = idx.hub_ids().first() {
            let full = idx.query(h);
            for v in [0u32, 100] {
                assert!((idx.query_value(h, v) - full.get(v)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn session_queries_match_one_shot() {
        let g = sample(180, 23);
        let idx = HgpaIndex::build(&g, &tight(), &small_leaves());
        let mut session = idx.session();
        for u in [0u32, 45, 90, 45, 179] {
            // repeats included: scratch must reset cleanly
            assert_eq!(session.query(u), idx.query(u), "u {u}");
        }
        let pref = [(3u32, 0.5), (99u32, 0.5)];
        assert_eq!(
            session.query_preference(&pref),
            idx.query_preference(&pref)
        );
    }

    #[test]
    fn preference_queries_match_linearity() {
        let g = sample(160, 19);
        let idx = HgpaIndex::build(&g, &tight(), &small_leaves());
        let pref = [(5u32, 0.25), (80u32, 0.75)];
        let direct = idx.query_preference(&pref);
        let a = idx.query(5);
        let b = idx.query(80);
        for v in 0..160u32 {
            let want = 0.25 * a.get(v) + 0.75 * b.get(v);
            assert!((direct.get(v) - want).abs() < 1e-12, "v {v}");
        }
    }

    #[test]
    fn konig_and_greedy_covers_both_exact() {
        let g = sample(150, 29);
        for cover in [CoverAlgorithm::KonigExact, CoverAlgorithm::Greedy] {
            let idx = HgpaIndex::build(
                &g,
                &tight(),
                &HgpaBuildOptions {
                    hierarchy: HierarchyConfig {
                        cover,
                        max_leaf_size: 16,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            let exact = dense_ppv(&g, 75, 0.15);
            let got = idx.query(75);
            for v in 0..150u32 {
                assert!(
                    (exact[v as usize] - got.get(v)).abs() < 1e-5,
                    "{cover:?} v {v}"
                );
            }
        }
    }
}
