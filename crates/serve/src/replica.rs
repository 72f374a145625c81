//! Shared epoch-barrier semantics for every index replica.
//!
//! Two kinds of process maintain a live HGPA index: the coordinator's
//! [`DynamicPprServer`](crate::DynamicPprServer) and the socket-transport
//! worker processes ([`crate::worker`]), which each hold a full replica
//! cold-started from the persisted snapshot. Bit-identity across the
//! cluster requires every replica to make the **same decision** about
//! every [`GraphDelta`] — in particular whether an edge-only batch nets
//! out to nothing (no rebuild, no epoch barrier) or rebuilds the graph.
//! [`plan_delta`] is that single decision point; both the server and the
//! worker replica route through it, so a divergence would have to be a
//! bug in one shared function rather than two drifting copies.

use ppr_core::hgpa::HgpaIndex;
use ppr_core::incremental::{MaintenanceEngine, UpdateError, UpdateStats};
use ppr_graph::{delta, AppliedGraphDelta, CsrGraph, DeltaError, GraphDelta};

/// What one [`GraphDelta`] means for a replica's graph.
#[derive(Clone, Debug)]
pub enum DeltaPlan {
    /// The batch nets out to nothing: the graph stands, no epoch barrier
    /// fires, and only the bookkeeping counts survive.
    Noop {
        /// Updates dropped as no-ops against the current edge set.
        skipped: usize,
        /// Effective updates eliminated by within-batch cancellation.
        cancelled: usize,
    },
    /// An effective barrier: the rebuilt graph plus everything index
    /// maintenance needs.
    Apply(AppliedGraphDelta),
}

/// Decide — identically on every replica — what `d` does to `graph`.
///
/// Edge-only batches go through net-effect coalescing and may be a
/// [`DeltaPlan::Noop`]; batches with node churn always rebuild (the
/// churn itself is the net effect).
///
/// # Errors
/// Structurally invalid batches (double removes, edges on removed or
/// out-of-range nodes) are rejected before any state moves.
pub fn plan_delta(graph: &CsrGraph, d: &GraphDelta) -> Result<DeltaPlan, DeltaError> {
    if d.nodes.is_empty() {
        let c = delta::coalesce_updates(graph, &d.edges);
        let Some(rebuilt) = c.graph else {
            return Ok(DeltaPlan::Noop {
                skipped: c.skipped,
                cancelled: c.cancelled,
            });
        };
        return Ok(DeltaPlan::Apply(AppliedGraphDelta {
            graph: rebuilt,
            added: Vec::new(),
            removed: Vec::new(),
            dropped_edges: Vec::new(),
            net: c.net,
            skipped: c.skipped,
            cancelled: c.cancelled,
        }));
    }
    // A batch with node churn always has a net effect (the churn
    // itself), so the barrier always fires on this path.
    Ok(DeltaPlan::Apply(delta::apply_delta(graph, d)?))
}

/// A worker process's live copy of the served index: the graph, the
/// HGPA index (cold-started from the persisted snapshot), and the
/// maintenance engine that keeps it exact across epochs. The engine is
/// sequential: the cluster's worker processes already share the host's
/// cores, and each applies every epoch delta at the same time.
pub struct IndexReplica {
    graph: CsrGraph,
    index: HgpaIndex,
    engine: MaintenanceEngine,
    epoch: u64,
}

impl IndexReplica {
    /// A replica serving `index` on `graph` at `epoch` (both exactly as
    /// shipped in the coordinator's `Welcome`).
    pub fn new(graph: CsrGraph, index: HgpaIndex, epoch: u64) -> Self {
        Self {
            graph,
            index,
            engine: MaintenanceEngine::new(),
            epoch,
        }
    }

    /// The replica's current graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The replica's current index.
    pub fn index(&self) -> &HgpaIndex {
        &self.index
    }

    /// The epoch this replica last acked.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Apply one epoch delta exactly as the coordinator did — same
    /// [`plan_delta`] decision, same deterministic maintenance engine —
    /// and advance to `epoch`.
    ///
    /// # Errors
    /// Anything the coordinator's own apply would have rejected. The
    /// coordinator only publishes deltas it applied successfully, so an
    /// `Err` here means real divergence: the caller must exit and let
    /// the supervisor cold-start a fresh replica from the snapshot.
    pub fn apply(&mut self, d: &GraphDelta, epoch: u64) -> Result<UpdateStats, UpdateError> {
        let stats = match plan_delta(&self.graph, d)? {
            DeltaPlan::Noop { .. } => UpdateStats::default(),
            DeltaPlan::Apply(applied) => {
                let stats = self.engine.apply(&mut self.index, &applied)?;
                self.graph = applied.graph;
                stats
            }
        };
        self.epoch = epoch;
        Ok(stats)
    }
}
