//! Virtual-subgraph views (paper §4.1, Definition 3 and Theorem 2).
//!
//! A [`SubView`] materialises the *virtual subgraph* of a member set `S`:
//! it keeps only edges whose both endpoints lie in `S`, but remembers each
//! node's **original** out-degree. A random surfer therefore leaves a node
//! `v` along an internal edge with probability `(1-α)/outdeg_G(v)` — exactly
//! as in the full graph — and the probability mass of the removed edges
//! flows to the implicit absorbing virtual node `VN`. Theorem 2 then says
//! the PPV computed on this view equals the partial vector w.r.t. the hub
//! set that separates `S` from the rest of the graph.
//!
//! Views use a compact local id space `0..len` so the iterative kernels can
//! run on dense arrays sized to the subgraph, which is where HGPA's
//! precomputation savings come from (§4.5).

use crate::adjacency::{Adjacency, InAdjacency};
use crate::csr::CsrGraph;
use crate::NodeId;

const UNMAPPED: u32 = u32::MAX;

/// A materialised virtual subgraph with local ids.
#[derive(Clone, Debug)]
pub struct SubView {
    /// Local id -> global id, ascending.
    globals: Vec<NodeId>,
    /// CSR offsets over local ids.
    out_offsets: Vec<usize>,
    /// Internal out-edges, local target ids.
    out_targets: Vec<NodeId>,
    /// Original (full-graph) out-degree per local node.
    orig_degree: Vec<u32>,
    /// In-CSR over the internal edges (needed by residual-push kernels).
    in_offsets: Vec<usize>,
    in_sources: Vec<NodeId>,
}

impl SubView {
    /// Number of member nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    /// True when the view has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }

    /// Global id of local node `v`.
    #[inline]
    pub fn global_of(&self, v: NodeId) -> NodeId {
        self.globals[v as usize]
    }

    /// All member global ids, ascending.
    #[inline]
    pub fn globals(&self) -> &[NodeId] {
        &self.globals
    }

    /// Local id of global node `g`, if `g` is a member.
    pub fn local_of(&self, g: NodeId) -> Option<NodeId> {
        self.globals.binary_search(&g).ok().map(|i| i as NodeId)
    }

    /// Number of internal (traversable) edges.
    #[inline]
    pub fn internal_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Edges of the original graph that left the member set (absorbed by the
    /// virtual node). `internal + escaped == sum of original out-degrees`.
    pub fn escaped_edges(&self) -> usize {
        let total: u64 = self.orig_degree.iter().map(|&d| d as u64).sum();
        total as usize - self.out_targets.len()
    }
}

impl Adjacency for SubView {
    #[inline]
    fn n(&self) -> usize {
        self.globals.len()
    }
    #[inline]
    fn out(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }
    #[inline]
    fn degree(&self, v: NodeId) -> u32 {
        self.orig_degree[v as usize]
    }
    #[inline]
    fn edge_count(&self) -> usize {
        self.out_targets.len()
    }
}

impl InAdjacency for SubView {
    #[inline]
    fn inn(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }
}

/// Reusable builder for many [`SubView`]s over one graph.
///
/// Holds a graph-sized scratch map so building `k` views over disjoint
/// member sets costs O(Σ members + Σ internal edges), not O(k · |V|).
pub struct ViewBuilder<'g> {
    graph: &'g CsrGraph,
    local: Vec<u32>,
}

impl<'g> ViewBuilder<'g> {
    /// Create a builder for views over `graph`.
    pub fn new(graph: &'g CsrGraph) -> Self {
        Self {
            graph,
            local: vec![UNMAPPED; graph.node_count()],
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    /// Build the virtual subgraph induced by `members` (global ids; need not
    /// be sorted; duplicates are an error).
    ///
    /// # Panics
    /// Panics if `members` contains duplicates or out-of-range ids.
    pub fn build(&mut self, members: &[NodeId]) -> SubView {
        let mut globals = members.to_vec();
        globals.sort_unstable();
        if globals.windows(2).any(|w| w[0] == w[1]) {
            panic!("duplicate member in view");
        }
        for (i, &g) in globals.iter().enumerate() {
            assert!(
                (g as usize) < self.graph.node_count(),
                "member {g} out of range"
            );
            self.local[g as usize] = i as u32;
        }

        let k = globals.len();
        let mut out_offsets = Vec::with_capacity(k + 1);
        out_offsets.push(0usize);
        let mut out_targets = Vec::new();
        let mut orig_degree = Vec::with_capacity(k);
        for &g in &globals {
            orig_degree.push(self.graph.out_degree(g));
            for &w in self.graph.out_neighbors(g) {
                let lw = self.local[w as usize];
                if lw != UNMAPPED {
                    out_targets.push(lw);
                }
            }
            out_offsets.push(out_targets.len());
        }

        // Reset scratch for the next build.
        for &g in &globals {
            self.local[g as usize] = UNMAPPED;
        }

        // In-CSR over the internal edges via counting sort.
        let mut in_offsets = vec![0usize; k + 1];
        for &t in &out_targets {
            in_offsets[t as usize + 1] += 1;
        }
        for i in 0..k {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![0 as NodeId; out_targets.len()];
        for src in 0..k {
            for &t in &out_targets[out_offsets[src]..out_offsets[src + 1]] {
                let c = &mut cursor[t as usize];
                in_sources[*c] = src as NodeId;
                *c += 1;
            }
        }

        SubView {
            globals,
            out_offsets,
            out_targets,
            orig_degree,
            in_offsets,
            in_sources,
        }
    }
}

/// Build a view of the *entire* graph (identity mapping). Useful for running
/// subgraph-flavoured code paths on the full graph in tests.
pub fn full_view(graph: &CsrGraph) -> SubView {
    let mut vb = ViewBuilder::new(graph);
    let all: Vec<NodeId> = (0..graph.node_count() as NodeId).collect();
    vb.build(&all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::from_edges;

    /// Figure 3/4/5 of the paper: G with hub u2 (index 1 here); subgraph
    /// SG = {u4, u5, u6}. u5 has out-degree 2 in G but only 1 internal edge.
    fn paper_fig3() -> CsrGraph {
        // ids: u1=0, u2=1, u3=2, u4=3, u5=4, u6=5
        from_edges(
            6,
            &[
                (0, 1), // u1 -> u2
                (1, 0), // u2 -> u1
                (1, 2), // u3 <- u2
                (2, 1),
                (1, 4), // u2 -> u5
                (4, 1), // u5 -> u2   (the escaping edge)
                (4, 3), // u5 -> u4
                (3, 5), // u4 -> u6
                (5, 4), // u6 -> u5
            ],
        )
    }

    #[test]
    fn virtual_subgraph_keeps_original_degree() {
        let g = paper_fig3();
        let mut vb = ViewBuilder::new(&g);
        let sg = vb.build(&[3, 4, 5]);
        assert_eq!(sg.len(), 3);
        // u5 (global 4): out-degree 2 in G, 1 internal edge (to u4).
        let l5 = sg.local_of(4).unwrap();
        assert_eq!(sg.degree(l5), 2);
        assert_eq!(sg.out(l5).len(), 1);
        assert_eq!(sg.global_of(sg.out(l5)[0]), 3);
        assert_eq!(sg.escaped_edges(), 1);
    }

    #[test]
    fn local_global_roundtrip() {
        let g = paper_fig3();
        let mut vb = ViewBuilder::new(&g);
        let sg = vb.build(&[5, 3, 4]); // unsorted input
        for l in 0..sg.len() as NodeId {
            let gid = sg.global_of(l);
            assert_eq!(sg.local_of(gid), Some(l));
        }
        assert_eq!(sg.local_of(0), None);
    }

    #[test]
    fn scratch_reuse_across_builds() {
        let g = paper_fig3();
        let mut vb = ViewBuilder::new(&g);
        let a = vb.build(&[0, 1, 2]);
        let b = vb.build(&[3, 4, 5]);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
        // Edges between the two sets must appear in neither view.
        assert_eq!(a.internal_edges() + b.internal_edges() + 2, g.edge_count());
    }

    #[test]
    fn full_view_matches_graph() {
        let g = paper_fig3();
        let v = full_view(&g);
        assert_eq!(v.len(), g.node_count());
        assert_eq!(v.internal_edges(), g.edge_count());
        assert_eq!(v.escaped_edges(), 0);
        for u in 0..g.node_count() as NodeId {
            assert_eq!(v.out(u), g.out_neighbors(u));
            assert_eq!(v.degree(u), g.out_degree(u));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate member")]
    fn duplicate_member_panics() {
        let g = paper_fig3();
        let mut vb = ViewBuilder::new(&g);
        let _ = vb.build(&[1, 1]);
    }

    #[test]
    fn empty_view() {
        let g = paper_fig3();
        let mut vb = ViewBuilder::new(&g);
        let v = vb.build(&[]);
        assert!(v.is_empty());
        assert_eq!(v.internal_edges(), 0);
    }
}
