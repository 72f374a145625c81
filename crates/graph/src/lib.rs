#![deny(missing_docs)]

//! Directed-graph substrate for the exact-ppr workspace.
//!
//! This crate provides everything the Personalized PageRank algorithms need
//! from a graph library:
//!
//! * [`CsrGraph`] — an immutable compressed-sparse-row directed graph with
//!   both out- and in-adjacency, built from edge lists.
//! * [`Adjacency`] — the minimal access trait all PPR kernels are generic
//!   over. Crucially it separates *traversable out-neighbours* from the
//!   *original out-degree*, which is how the paper's "virtual subgraph"
//!   (Definition 3, Theorem 2) is realised: a [`view::SubView`] keeps the
//!   original out-degree as the transition denominator while only exposing
//!   in-subgraph targets, so the missing probability mass flows to the
//!   implicit absorbing virtual node.
//! * [`generators`] — seeded synthetic graph generators (G(n,p), Chung–Lu
//!   power-law, planted-partition SBM, hierarchical SBM) used as stand-ins
//!   for the paper's five real-world datasets.
//! * [`io`] — plain edge-list reading/writing.
//! * [`dense`] — a dense linear-system PPR solver used as machine-precision
//!   ground truth in tests.
//! * [`delta`] — [`EdgeUpdate`] / [`NodeUpdate`] batches ([`GraphDelta`])
//!   over immutable CSR graphs, the vocabulary shared by the dynamic
//!   workload generator, the incremental index updater, and the serving
//!   layer. Node removal tombstones the id (incident edges drop, the id
//!   space stays dense); node addition appends the next dense id.
//! * [`reach`] — reverse reachability (multi-source BFS over in-edges),
//!   the conservative staleness predicate of the serving cache.

pub mod adjacency;
pub mod analytics;
pub mod csr;
pub mod delta;
pub mod dense;
pub mod generators;
pub mod io;
pub mod reach;
pub mod view;

pub use adjacency::{Adjacency, InAdjacency};
pub use csr::{CsrGraph, GraphBuilder};
pub use delta::{
    apply_delta, apply_edge_updates, apply_effective_updates, AppliedDelta, AppliedGraphDelta,
    DeltaError, EdgeUpdate, GraphDelta, NodeUpdate,
};
pub use reach::reverse_reachable;
pub use view::{SubView, ViewBuilder};

/// Node identifier. Graphs are limited to `u32::MAX` nodes, which keeps
/// adjacency arrays and precomputed vectors compact (see the type-size
/// guidance in the Rust perf book).
pub type NodeId = u32;

/// The checked narrowing from machine-word indices to [`NodeId`] width.
///
/// `expr as u32` silently truncates; every id-producing narrowing in the
/// workspace goes through this function instead (the `repro audit`
/// `lossy-id-cast` rule enforces it for computed expressions). The
/// assert is one predictable compare — noise next to the hash/BTree
/// work around any call site — and turns a would-be wrong-id bug into a
/// loud panic at the point of truncation.
///
/// [`GraphBuilder::new`] rejects graphs with more than `u32::MAX` nodes,
/// so indices derived from node or edge positions are always in range;
/// the check guards the *other* callers (interning unbounded external
/// ids, synthetic-id arithmetic).
#[inline]
pub fn node_id(index: usize) -> NodeId {
    assert!(
        index <= NodeId::MAX as usize,
        "index {index} exceeds NodeId range"
    );
    // audit:allow(lossy-id-cast): asserted in range on the line above
    index as NodeId
}
