#![deny(missing_docs)]

//! Simulated coordinator-based share-nothing cluster.
//!
//! The paper's testbed is 10 physical machines behind a 100 Mbps switch
//! (§6.1), plus EC2 at 1500 processors for Appendix B. This crate stands
//! in for that hardware: each *machine* is an isolated executor owning its
//! shard of
//! the precomputed index (machines run sequentially and are timed
//! individually, so per-machine cost reflects dedicated hardware even on a
//! single-core host), the *coordinator* gathers one vector per machine
//! per query (exactly the paper's single communication round), and the
//! [`NetworkModel`] converts the byte-accurate traffic counts into modeled
//! wire time so experiments can report both real compute cost and modeled
//! end-to-end latency.
//!
//! What is real vs modeled:
//! * per-machine compute time — **real** (each machine's work measured in
//!   isolation);
//! * bytes shipped machine → coordinator — **real counts** of the same
//!   sparse vectors the paper serializes;
//! * wire latency/bandwidth — **modeled** (the simulator runs in one
//!   process); the default model matches the paper's switch.

pub mod exec;
pub mod fault;
pub mod network;
pub mod socket;

pub use exec::{
    Cluster, ClusterBatchReport, ClusterQueryReport, DistributedQueryable, MachineStats,
};
pub use fault::{Fault, FanoutOutcome, FaultPlan, MachineOutcome, ResilienceConfig};
pub use network::NetworkModel;
pub use socket::{MachineReply, SocketCluster, SocketConfig, SupervisorStats};
// Measured-traffic counters travel with the socket supervisor
// ([`SocketCluster::metrics`]); re-exported so callers reporting wire
// totals need not depend on `ppr-wire` directly.
pub use ppr_wire::WireMetrics;
// `ParallelismMode` moved to `ppr-core::parallel` so the offline build
// paths can share the same switch (this crate depends on core, not the
// other way around); re-exported here so existing
// `ppr_cluster::ParallelismMode` imports keep working unchanged.
pub use ppr_core::parallel::ParallelismMode;

/// Cluster-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of machines (excluding the coordinator).
    pub machines: usize,
    /// Network model for modeled wire time.
    pub network: NetworkModel,
    /// How machine replies are computed within a fan-out round.
    pub parallelism: ParallelismMode,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            machines: 6, // the paper's default (§6.1)
            network: NetworkModel::default(),
            parallelism: ParallelismMode::default(),
        }
    }
}
