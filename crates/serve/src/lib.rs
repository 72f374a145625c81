#![deny(missing_docs)]

//! Query-serving subsystem for the exact-PPR indexes.
//!
//! The paper's GPA (§3) and HGPA (§4) indexes exist to *serve* exact PPV
//! queries at scale, but on their own they answer one query per cluster
//! fan-out round. This crate adds the serving layer the ROADMAP's "heavy
//! traffic" north star asks for, without giving up exactness anywhere:
//!
//! * **Request batching** ([`PprServer::run_batch`]) — the distinct
//!   source nodes of a whole batch (single-source, preference-set, and
//!   top-k requests alike) are answered in *one* fan-out round via
//!   [`ppr_cluster::Cluster::query_many`], amortizing round latency and
//!   per-machine scratch allocations; per-request answers are then
//!   assembled by Jeh–Widom linearity (Eq. 5/7), which is exact.
//! * **A byte-accounted LRU PPV cache** ([`cache::PpvCache`]) — full
//!   exact PPVs keyed by source node, sized in the same wire-byte units
//!   the cluster's communication accounting uses. Repeated and
//!   *overlapping* queries (preference sets sharing members, top-k over a
//!   hot source) skip recomputation entirely; cached answers are
//!   bit-identical to fresh ones because whole untruncated vectors are
//!   stored.
//! * **Exact top-k** ([`Request::TopK`]) — selection by a threshold
//!   early-cut ([`ppr_core::SparseVector::top_k_early_cut`]) that returns
//!   exactly the full-sort top-k, proven in its docs and pinned by
//!   proptest in `tests/serving.rs`.
//!
//! There is **one batch engine** (probe → at most one fan-out round →
//! assemble → admit → account; see [`server`]) and two front-ends that
//! hold it: [`PprServer`] borrows a frozen index of any kind,
//! [`DynamicPprServer`] owns an updatable HGPA index. Everything else is
//! configuration of that engine, not another server type:
//!
//! * **Parallelism** — `ServeConfig::shards` hash-partitions the PPV
//!   cache into N reader shards and assembles each batch's responses on
//!   one scoped worker per shard, while the cluster fan-out underneath
//!   computes machine replies concurrently
//!   ([`ppr_cluster::ParallelismMode`]); answers stay bit-identical to
//!   the one-shard sequential configuration (pinned in
//!   `tests/concurrent_serving.rs`). `PPR_TEST_THREADS=1` forces the
//!   sequential fallback everywhere, and `PPR_SERVE_SHARDS` sizes the
//!   shard fleet in `repro serve`.
//! * **Round policy** — [`DynamicPprServer::run_batch`] always runs an
//!   exact round; [`DynamicPprServer::run_batch_resilient`] lets the
//!   round report machine failures and [`DynamicPprServer::run_batch_degraded`]
//!   skips it, and whatever the engine leaves unanswered is degraded to
//!   bounded-precision [`Answer`]s and parked for exact backfill — one
//!   degrade-and-park path for both.
//! * **Transport** — [`DynamicPprServer::attach_socket`] moves the same
//!   round onto real worker processes ([`worker`]).
//!
//! Serving can **cold-start from disk**: [`ColdStart`] loads a persisted
//! index artifact (`ppr_core::persist`; GPA and HGPA indexes share one
//! format) and owns it, so a serving process skips the offline
//! build entirely and still answers bit-identically to one serving the
//! freshly built index (pinned in `tests/persist_roundtrip.rs`).
//!
//! Serving does not stop when the graph changes. [`DynamicPprServer`]
//! owns a mutable HGPA index plus the current graph and interleaves query
//! batches with [`ppr_graph::GraphDelta`] batches — edge updates *and*
//! node churn (adds/removes): updates run through `ppr-core`'s exact
//! incremental maintenance (a [`MaintenanceEngine`] that recomputes, on
//! the server's worker threads, only the vectors whose last run read a
//! row the batch rewrote), invalid batches
//! come back as [`UpdateError`] values instead of panics, and instead of
//! flushing the PPV cache it evicts **only** the sources that can reach a
//! touched node (reverse reachability over the new graph — the
//! conservative staleness predicate), so hit rates survive updates. The
//! [`openloop`] module adds a Poisson-arrival virtual-clock driver whose
//! report separates queueing delay (sojourn) from service time.
//!
//! The `repro serve` mode in `ppr-bench` drives a Zipf-skewed query
//! stream through this server and reports throughput, p50/p99 latency,
//! and cache hit rate — plus an open-loop mixed read/write phase with
//! queueing-delay percentiles; `docs/ARCHITECTURE.md` has the data-flow
//! picture.

pub mod boot;
pub mod cache;
pub mod degrade;
pub mod dynamic;
pub mod openloop;
pub mod replica;
pub mod server;
mod shard;
pub mod worker;

pub use boot::ColdStart;
pub use cache::{CacheStats, PpvCache};
pub use degrade::{Answer, Degrader, DEGRADED_WALKS};
pub use dynamic::{
    BackfillOutcome, DynamicPprServer, DynamicStats, ResilienceStats, ResilientBatchOutcome,
    UpdateOutcome, BACKLOG_CAP,
};
pub use ppr_core::incremental::{MaintenanceEngine, UpdateError, UpdateStats};
pub use openloop::{run_open_loop, OpenLoopConfig, OpenLoopReport, ServeEvent, ServiceModel};
pub use ppr_workload::ArrivalPattern;
pub use replica::{plan_delta, DeltaPlan, IndexReplica};
pub use server::{BatchOutcome, PprServer, Request, Response, ServeConfig, ServeStats};
pub use worker::{Chaos, WorkerConfig};
