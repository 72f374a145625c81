#![warn(missing_docs)]

//! # exact-ppr
//!
//! A production-quality Rust reproduction of *“Distributed Algorithms on
//! Exact Personalized PageRank”* (Guo, Cao, Cong, Lu, Lin — SIGMOD 2017).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — CSR graphs, virtual-subgraph views, generators, IO.
//! * [`partition`] — METIS-like multilevel partitioner, König/greedy hub
//!   (vertex-separator) selection, hierarchical partition trees.
//! * [`core`] — PPV kernels (power iteration, selective expansion, skeleton
//!   columns), the Jeh–Widom decomposition, and the paper's GPA and HGPA
//!   indexes.
//! * [`cluster`] — a simulated coordinator-based share-nothing cluster with
//!   byte-accurate communication accounting, deterministic fault injection,
//!   and retry/hedging at the fan-out boundary.
//! * [`serve`] — the query-serving layer: request batching, a
//!   byte-accounted LRU PPV cache, exact top-k over the index, and
//!   admission control with graceful degradation to bounded-precision
//!   answers under overload or machine failure.
//! * [`baselines`] — Pregel-like and Blogel-like BSP engines, a
//!   FastPPV-style approximate method, and a Monte Carlo estimator.
//! * [`metrics`] — L1/L∞ norms, Precision@k, RAG@k, Kendall's τ.
//! * [`workload`] — named synthetic stand-ins for the paper's datasets.
//!
//! ## Quickstart
//!
//! ```
//! use exact_ppr::prelude::*;
//!
//! // A small community-structured graph.
//! let graph = hierarchical_sbm(&HsbmConfig { nodes: 200, ..Default::default() }, 42);
//! // Build the hierarchical index (the paper's HGPA, §4).
//! let config = PprConfig { alpha: 0.15, epsilon: 1e-6, ..Default::default() };
//! let index = HgpaIndex::build(&graph, &config, &HgpaBuildOptions::default());
//! // Query: exact PPV of node 0, reconstructed from partial + skeleton vectors.
//! let ppv = index.query(0);
//! assert!(ppv.l1_norm() <= 1.0 + 1e-9);
//! ```

pub use ppr_baselines as baselines;
pub use ppr_cluster as cluster;
pub use ppr_core as core;
pub use ppr_graph as graph;
pub use ppr_metrics as metrics;
pub use ppr_partition as partition;
pub use ppr_serve as serve;
pub use ppr_wire as wire;
pub use ppr_workload as workload;

/// Convenient glob import surface for examples and downstream users.
pub mod prelude {
    pub use ppr_baselines::{
        blogel::BlogelPpr, fastppv::FastPpv, monte_carlo::MonteCarloPpr, pregel::PregelPpr,
    };
    pub use ppr_cluster::{
        Cluster, ClusterConfig, FanoutOutcome, FaultPlan, NetworkModel, ParallelismMode,
        ResilienceConfig, SocketCluster, SocketConfig,
    };
    pub use ppr_core::{
        gpa::GpaBuildOptions,
        hgpa::{HgpaBuildOptions, HgpaIndex, QuerySession},
        incremental::{MaintenanceEngine, UpdateError, UpdateStats},
        persist::{load_index_file, save_hgpa_file},
        power::{global_pagerank, power_iteration, DanglingPolicy},
        sparse::SparseVector,
        PprConfig,
    };
    pub use ppr_graph::{
        generators::{gnp_directed, hierarchical_sbm, HsbmConfig},
        Adjacency, CsrGraph, EdgeUpdate, GraphBuilder, GraphDelta, NodeId, NodeUpdate,
    };
    pub use ppr_metrics::{avg_l1, kendall_tau_top_k, l_inf, precision_at_k, rag_at_k};
    pub use ppr_serve::{
        Answer, ArrivalPattern, ColdStart, Degrader, DynamicPprServer, OpenLoopConfig,
        OpenLoopReport, PprServer, Request, Response, ServeConfig, ServeEvent, ServiceModel,
    };
    pub use ppr_workload::{
        fault_script, Dataset, DatasetSpec, FaultScript, MixedEvent, MixedStream,
        MixedStreamConfig, ZipfQueryStream,
    };
}
