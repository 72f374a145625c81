//! Serving on a graph that changes underneath the server.
//!
//! [`PprServer`](crate::PprServer) assumes a frozen index: an edge change
//! forces the caller to rebuild out of band and blast the whole PPV cache.
//! [`DynamicPprServer`] instead *owns* a mutable [`HgpaIndex`] plus the
//! current [`CsrGraph`] and accepts interleaved query batches and
//! [`GraphDelta`] batches (edge updates plus node churn):
//!
//! * updates flow through `ppr-core`'s exact incremental maintenance — a
//!   [`MaintenanceEngine`] that plans the vectors a batch made stale (from
//!   the rows each one's last run read), recomputes them on
//!   `ServeConfig::parallelism`'s workers, and commits them in plan order
//!   — never a rebuild. Batches may churn the node
//!   set: an added node joins a leaf and serves immediately, a removed
//!   node is excised (tombstoned) and thereafter answers empty;
//! * invalid batches are **rejected, not panicked on**: a structurally
//!   broken delta ([`ppr_graph::DeltaError`]) or a reference to a
//!   tombstoned node ([`UpdateError::DeadNode`](ppr_core::incremental::UpdateError))
//!   returns `Err` and leaves graph, index, cache, and epoch exactly as
//!   they were;
//! * cache invalidation is **fine-grained**: the updater reports the
//!   touched node set ([`UpdateStats::dirty_nodes`]) and the server evicts
//!   only cached sources that can *reach* a touched node
//!   ([`ppr_graph::reach::reverse_reachable`]) — the conservative
//!   staleness predicate. Sources provably unaffected keep their entries,
//!   so hit rates survive updates instead of resetting to zero. This is
//!   deliberately coarser than the index's own per-vector predicate:
//!   evicting only sources whose assembly reads a recomputed vector was
//!   measured (20 000-node Web stand-in: 253 of 1 197 entries retained,
//!   hit ratio 0.627 → 0.633) and is not worth a second channel out of
//!   [`UpdateStats`].
//!
//! Queries run through the exact same batch engine as the static server
//! (one fan-out round per batch, LRU PPV cache, exact top-k), so every
//! exactness invariant pinned in `tests/serving.rs` carries over;
//! `tests/dynamic_serving.rs` adds the differential update/query suite
//! (served answers bit-identical to a from-scratch recomputation on the
//! current graph).
//!
//! ## Epochs: updates as barriers between sharded readers
//!
//! The cache is sharded (`ServeConfig::shards`, hash-by-source) and read
//! batches assemble on one worker per shard. Writes follow an
//! **epoch discipline** echoing incremental view maintenance: all serving
//! inside one epoch sees a single `(graph, index)` version. An update
//! batch (1) *quiesces* readers — `apply_delta` takes `&mut self`, so
//! the borrow checker itself guarantees every scoped reader worker has
//! drained before the writer runs, exactly the hand-off a
//! write-preferring lock would enforce across real threads; (2) applies
//! the batch at the graph level — node churn first, then the **coalesced
//! net** edge change ([`ppr_graph::apply_delta`]) — and runs incremental
//! maintenance *once*; (3) runs fine-grained invalidation per shard, in
//! parallel — shards share nothing; and (4) releases the next
//! [`DynamicPprServer::epoch`]. No query batch ever spans an epoch
//! boundary, which is what makes the differential suites' bit-for-bit
//! comparisons well-defined under real concurrency.

use crate::cache::CacheStats;
use crate::degrade::{Answer, Degrader, DEGRADED_WALKS};
use crate::server::{
    BatchOutcome, Request, Response, RoundPolicy, ServeConfig, ServeStats, ServerCore,
};
use crate::replica::{plan_delta, DeltaPlan};
use ppr_cluster::{FanoutOutcome, FaultPlan, ResilienceConfig, SocketCluster};
use ppr_core::hgpa::{HgpaBuildOptions, HgpaIndex};
use ppr_core::incremental::{MaintenanceEngine, UpdateError, UpdateStats};
use ppr_core::{PprConfig, SparseVector};
use ppr_graph::reach::reverse_reachable;
use ppr_graph::{CsrGraph, EdgeUpdate, GraphDelta, NodeId};
use ppr_core::parallel::Stopwatch;
use std::collections::BTreeSet;
use std::sync::Arc;

/// What one [`DynamicPprServer::apply_delta`] call did.
#[derive(Clone, Debug)]
pub struct UpdateOutcome {
    /// Net updates applied to the edge set (after coalescing). Node churn
    /// is reported separately, via [`UpdateStats::nodes_added`] /
    /// [`UpdateStats::nodes_removed`] on `stats`.
    pub applied: usize,
    /// Updates skipped as no-ops (inserting an existing edge, removing a
    /// missing one, self-loops).
    pub skipped: usize,
    /// Effective-in-sequence updates eliminated by net-effect coalescing
    /// before they could reach the incremental updater
    /// (insert-then-delete pairs and the like).
    pub coalesced: usize,
    /// The incremental updater's report (dirty sets, promotions, work).
    pub stats: UpdateStats,
    /// Cached sources evicted because they can reach a touched node.
    pub evicted: usize,
    /// Cached sources that provably cannot reach any touched node and
    /// therefore survived the update.
    pub retained: usize,
    /// The epoch serving resumes in after this batch (unchanged when the
    /// batch had no net effect).
    pub epoch: u64,
    /// Real wall-clock seconds spent applying the batch (graph rebuild +
    /// index maintenance + invalidation).
    pub seconds: f64,
}

/// Cumulative update-side counters of a [`DynamicPprServer`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DynamicStats {
    /// Update batches applied.
    pub update_batches: u64,
    /// Net edge changes applied.
    pub edges_changed: u64,
    /// Updates eliminated by net-effect coalescing across all batches.
    pub updates_coalesced: u64,
    /// Nodes added by churn batches.
    pub nodes_added: u64,
    /// Nodes tombstoned by churn batches.
    pub nodes_removed: u64,
    /// Subgraph recomputations performed by the incremental updater.
    pub subgraphs_recomputed: u64,
    /// Vectors (bases + skeleton columns) recomputed.
    pub vectors_recomputed: u64,
    /// Nodes promoted to hub status to restore separation.
    pub hubs_promoted: u64,
    /// Cache entries evicted by fine-grained invalidation.
    pub entries_evicted: u64,
    /// Cache entries retained across updates (provably unaffected).
    pub entries_retained: u64,
    /// Real seconds spent inside [`DynamicPprServer::apply_updates`].
    pub update_seconds: f64,
    /// Epoch barriers broadcast to an attached socket transport.
    pub epochs_published: u64,
    /// Times the socket transport was detached because an epoch snapshot
    /// could not be persisted (serving continued on the modeled path).
    pub socket_detaches: u64,
}

/// Most sources a degraded round may park for exact backfill. The backlog
/// is the one place the resilience path accumulates state across batches,
/// so it is capped: overflow is *counted*
/// ([`ResilienceStats::backlog_overflow`]), never silently grown — an
/// extended outage must not turn the coordinator into the failure.
pub const BACKLOG_CAP: usize = 1024;

/// Default seed for the degraded-answer Monte Carlo estimator.
const DEFAULT_DEGRADE_SEED: u64 = 0xDE64_4ADE;

/// Cumulative resilience counters of a [`DynamicPprServer`]. Kept apart
/// from [`ServeStats`], which continues to describe only the exact
/// serving path.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResilienceStats {
    /// Batches routed through [`DynamicPprServer::run_batch_resilient`].
    pub resilient_batches: u64,
    /// Fan-out rounds that came back with machines missing (including
    /// failed backfill attempts).
    pub incomplete_rounds: u64,
    /// Requests answered exactly by the resilient path (complete rounds
    /// plus cache-resident requests during an outage).
    pub exact_answers: u64,
    /// Requests answered approximately, each with its explicit bound.
    pub degraded_answers: u64,
    /// Sources recovered to the exact cache by
    /// [`DynamicPprServer::backfill`].
    pub backfilled_sources: u64,
    /// Sources an incomplete round could not park because the backlog was
    /// at [`BACKLOG_CAP`] (they degrade again on their next request).
    pub backlog_overflow: u64,
}

/// What one [`DynamicPprServer::run_batch_resilient`] call did.
#[derive(Clone, Debug)]
pub struct ResilientBatchOutcome {
    /// Answers, parallel to the submitted requests. Every request resolves
    /// to exactly one [`Answer`] — the no-silent-drop invariant.
    pub answers: Vec<Answer>,
    /// Distinct sources served from cache.
    pub cached_sources: usize,
    /// Distinct sources computed fresh (exactly) this batch.
    pub fresh_sources: usize,
    /// Distinct sources answered approximately because the round came back
    /// incomplete (0 on the exact path).
    pub degraded_sources: usize,
    /// Did every machine of the batch's fan-out round answer? (`true` when
    /// no fan-out was needed.)
    pub round_complete: bool,
    /// The fan-out round's per-machine outcome, when one ran.
    pub outcome: Option<FanoutOutcome>,
    /// Modeled wire time of the round (delivered replies only).
    pub modeled_network_seconds: f64,
    /// Modeled seconds the round lost to timeouts, retries, and backoff.
    pub modeled_fault_seconds: f64,
    /// Real wall-clock seconds spent serving the batch.
    pub seconds: f64,
}

/// What one [`DynamicPprServer::backfill`] call did.
#[derive(Clone, Copy, Debug)]
pub struct BackfillOutcome {
    /// Sources the backfill round asked the cluster for.
    pub attempted: usize,
    /// Sources recovered into the exact PPV cache this call.
    pub recovered: usize,
    /// Sources still parked in the backlog afterwards.
    pub remaining: usize,
    /// Whether the backfill fan-out round was complete (`true` when the
    /// backlog was already empty and no round ran). An incomplete round
    /// recovers nothing — partial sums are never admitted.
    pub round_complete: bool,
    /// Modeled wire time of the round (delivered replies only).
    pub modeled_network_seconds: f64,
    /// Modeled seconds the round lost to timeouts, retries, and backoff.
    pub modeled_fault_seconds: f64,
    /// Real wall-clock seconds spent in the call.
    pub seconds: f64,
}

/// An owning serving front-end over one mutable HGPA index: interleaves
/// exact query serving with exact incremental index maintenance.
///
/// ```
/// use ppr_core::hgpa::HgpaBuildOptions;
/// use ppr_core::PprConfig;
/// use ppr_graph::generators::{hierarchical_sbm, HsbmConfig};
/// use ppr_graph::{EdgeUpdate, GraphDelta, NodeUpdate};
/// use ppr_serve::{DynamicPprServer, ServeConfig};
///
/// let graph = hierarchical_sbm(&HsbmConfig { nodes: 150, ..Default::default() }, 3);
/// let cfg = PprConfig { epsilon: 1e-7, ..Default::default() };
/// let mut server = DynamicPprServer::build(
///     graph,
///     &cfg,
///     &HgpaBuildOptions::default(),
///     ServeConfig::default(),
/// );
/// let before = server.query(5);
/// let outcome = server.apply_updates(&[EdgeUpdate::Insert(5, 120)]).expect("live endpoints");
/// assert_eq!(outcome.applied, 1);
/// let after = server.query(5); // exact on the *new* graph
/// assert!(server.graph().has_edge(5, 120));
/// // Node churn flows through the same epoch barrier: add node 150 and
/// // wire it in one batch — it serves exactly, immediately.
/// let churn = GraphDelta {
///     nodes: vec![NodeUpdate::Add],
///     edges: vec![EdgeUpdate::Insert(150, 5)],
/// };
/// let outcome = server.apply_delta(&churn).expect("valid churn batch");
/// assert_eq!(outcome.stats.nodes_added, 1);
/// assert!(server.query(150).get(5) > 0.0);
/// # let _ = (before, after);
/// ```
pub struct DynamicPprServer {
    graph: CsrGraph,
    index: HgpaIndex,
    engine: MaintenanceEngine,
    core: ServerCore,
    dynamic_stats: DynamicStats,
    resilience_stats: ResilienceStats,
    backlog: BTreeSet<NodeId>,
    degrade_seed: u64,
    degrade_walks: u64,
    epoch: u64,
}

impl DynamicPprServer {
    /// Build the index on `graph` and serve from it.
    pub fn build(
        graph: CsrGraph,
        cfg: &PprConfig,
        opts: &HgpaBuildOptions,
        config: ServeConfig,
    ) -> Self {
        let index = HgpaIndex::build(&graph, cfg, opts);
        Self::from_index(graph, index, config)
    }

    /// Serve from an already-built index. `graph` must be the graph the
    /// index is current for.
    ///
    /// # Panics
    /// Panics if the node counts disagree.
    pub fn from_index(graph: CsrGraph, index: HgpaIndex, config: ServeConfig) -> Self {
        assert_eq!(
            graph.node_count(),
            index.node_count(),
            "index and graph disagree on the node set"
        );
        Self {
            graph,
            engine: MaintenanceEngine::with_parallelism(config.parallelism),
            core: ServerCore::new(index.machines(), config),
            index,
            dynamic_stats: DynamicStats::default(),
            resilience_stats: ResilienceStats::default(),
            backlog: BTreeSet::new(),
            degrade_seed: DEFAULT_DEGRADE_SEED,
            degrade_walks: DEGRADED_WALKS,
            epoch: 0,
        }
    }

    /// Apply a batch of edge updates as one **epoch barrier** — the
    /// edge-only convenience wrapper over
    /// [`DynamicPprServer::apply_delta`].
    ///
    /// # Errors
    /// Rejected exactly as [`DynamicPprServer::apply_delta`] rejects; an
    /// `Err` leaves the server untouched.
    pub fn apply_updates(&mut self, updates: &[EdgeUpdate]) -> Result<UpdateOutcome, UpdateError> {
        self.apply_delta(&GraphDelta::from_edges(updates.to_vec()))
    }

    /// Apply one [`GraphDelta`] — node churn plus edge updates — as one
    /// **epoch barrier**: apply the batch at the graph level (churn
    /// first, then the coalesced net edge change), bring the index up to
    /// date incrementally (once, with the stale vectors recomputed on
    /// `ServeConfig::parallelism`'s workers), evict — per shard, in
    /// parallel — exactly the cached
    /// sources whose PPVs the batch can affect (those reaching a touched
    /// node), and release the next epoch.
    ///
    /// Readers are quiesced structurally: this method takes `&mut self`,
    /// so every scoped assembly worker of the previous query batch has
    /// provably terminated before maintenance starts — the single-writer
    /// hand-off an epoch-based RwLock would enforce in a multi-threaded
    /// deployment.
    ///
    /// # Errors
    /// A structurally invalid batch ([`UpdateError::Delta`]) or one
    /// referencing a node that is not live in the index
    /// ([`UpdateError::DeadNode`]) is rejected before any state moves:
    /// graph, index, cache, epoch, and counters stay exactly as they
    /// were, and serving continues on the current version.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<UpdateOutcome, UpdateError> {
        let t0 = Stopwatch::start();

        // Net changes only: the incremental updater derives dirty sets
        // from the changed-edge list, so feeding it no-ops — or pairs
        // that cancel within the batch — would invalidate (and
        // recompute) for nothing. `replica::plan_delta` is the single
        // decision point every replica (this server and the socket
        // workers) shares, so the coalesce-vs-rebuild call can never
        // diverge across the cluster.
        let applied = match plan_delta(&self.graph, delta).map_err(UpdateError::from)? {
            DeltaPlan::Noop { skipped, cancelled } => {
                // Edge-only fast path: a batch with no net effect skips
                // the CSR rebuild entirely (and the epoch barrier with
                // it — nothing is broadcast to socket workers either).
                self.dynamic_stats.updates_coalesced += cancelled as u64;
                return Ok(UpdateOutcome {
                    applied: 0,
                    skipped,
                    coalesced: cancelled,
                    stats: UpdateStats::default(),
                    evicted: 0,
                    retained: 0,
                    epoch: self.epoch,
                    seconds: t0.elapsed_seconds(),
                });
            }
            DeltaPlan::Apply(applied) => applied,
        };

        // Exact incremental maintenance, once per barrier. The engine
        // validates the whole batch before mutating anything, so an `Err`
        // here leaves the server on its current (consistent) version.
        let stats = self.engine.apply(&mut self.index, &applied)?;

        // Fine-grained invalidation, shard by shard: a cached PPV of
        // source `s` can only be stale if `s` reaches a touched node (see
        // UpdateStats::dirty_nodes for why this is conservative, bit for
        // bit). Shards share nothing, so they sweep concurrently.
        let mut evicted = 0usize;
        let mut retained = 0usize;
        if !self.core.cache.is_empty() {
            let stale = reverse_reachable(&applied.graph, &stats.dirty_nodes);
            (evicted, retained) = self
                .core
                .cache
                .invalidate_stale(&stale, self.core.config.parallelism);
        }
        let changed = applied.net.len();
        self.graph = applied.graph;
        self.epoch += 1; // release the next epoch to readers

        // Socket transport: push the barrier to the worker processes.
        // Snapshot-first ordering inside `publish_epoch` makes worker
        // crashes at any point recoverable; only a failed snapshot
        // *write* is fatal to the transport, in which case queries fall
        // back to the modeled path (still exact) rather than risk
        // serving from workers stuck on the previous epoch.
        if let Some(sock) = self.core.cluster.socket().cloned() {
            if sock
                .publish_epoch(&self.index, &self.graph, delta, self.epoch)
                .is_err()
            {
                self.core.cluster.detach_socket();
                self.dynamic_stats.socket_detaches += 1;
            } else {
                self.dynamic_stats.epochs_published += 1;
            }
        }

        let seconds = t0.elapsed_seconds();
        self.dynamic_stats.update_batches += 1;
        self.dynamic_stats.edges_changed += changed as u64;
        self.dynamic_stats.updates_coalesced += applied.cancelled as u64;
        self.dynamic_stats.nodes_added += stats.nodes_added as u64;
        self.dynamic_stats.nodes_removed += stats.nodes_removed as u64;
        self.dynamic_stats.subgraphs_recomputed += stats.subgraphs_recomputed as u64;
        self.dynamic_stats.vectors_recomputed += stats.vectors_recomputed as u64;
        self.dynamic_stats.hubs_promoted += stats.promoted_hubs.len() as u64;
        self.dynamic_stats.entries_evicted += evicted as u64;
        self.dynamic_stats.entries_retained += retained as u64;
        self.dynamic_stats.update_seconds += seconds;

        Ok(UpdateOutcome {
            applied: changed,
            skipped: applied.skipped,
            coalesced: applied.cancelled,
            stats,
            evicted,
            retained,
            epoch: self.epoch,
            seconds,
        })
    }

    /// Answer a request stream, coalescing up to `max_batch` requests per
    /// fan-out round. Responses come back in request order.
    pub fn serve(&mut self, requests: &[Request]) -> Vec<Response> {
        self.core.serve(&self.index, requests)
    }

    /// Execute one batch in (at most) one cluster fan-out round — the
    /// same engine as [`PprServer::run_batch`](crate::PprServer::run_batch).
    /// The whole batch runs inside the current epoch.
    pub fn run_batch(&mut self, requests: &[Request]) -> BatchOutcome {
        self.core.run_batch(&self.index, requests)
    }

    /// Route this server's fan-outs over a real multi-process
    /// [`SocketCluster`]. Answers stay bit-identical to the modeled
    /// path; epoch barriers are pushed to the workers automatically
    /// ([`DynamicPprServer::apply_delta`] publishes after applying
    /// locally). The socket cluster must have been launched from this
    /// server's current index and epoch.
    pub fn attach_socket(&mut self, socket: Arc<SocketCluster>) {
        self.core.cluster.attach_socket(socket);
    }

    /// Detach the socket transport; fan-outs return to the modeled
    /// in-process path.
    pub fn detach_socket(&mut self) -> Option<Arc<SocketCluster>> {
        self.core.cluster.detach_socket()
    }

    /// The attached socket transport, if any.
    pub fn socket(&self) -> Option<&Arc<SocketCluster>> {
        self.core.cluster.socket()
    }

    /// Install a deterministic fault plan (and keep the current retry /
    /// timeout policy). With [`FaultPlan::empty`] — the default — the
    /// resilient path is bit-identical to [`DynamicPprServer::run_batch`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.core.cluster.set_fault_plan(plan);
    }

    /// The active fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        self.core.cluster.fault_plan()
    }

    /// Replace the retry / timeout / hedging policy.
    pub fn set_resilience(&mut self, resilience: ResilienceConfig) {
        self.core.cluster.set_resilience(resilience);
    }

    /// Reconfigure the degraded-answer estimator: `seed` fixes the walk
    /// stream (degraded answers replay bit-identically), `walks` trades
    /// cost for precision ([`Degrader::bound`] shrinks as `1/√walks`).
    ///
    /// # Panics
    /// Panics if `walks` is zero.
    pub fn set_degradation(&mut self, seed: u64, walks: u64) {
        assert!(walks > 0, "a degraded answer needs at least one walk");
        self.degrade_seed = seed;
        self.degrade_walks = walks;
    }

    /// The per-source precision bound degraded answers currently carry.
    pub fn degraded_bound(&self) -> f64 {
        Degrader::new(&self.graph, self.index.config(), self.degrade_seed, self.degrade_walks)
            .bound()
    }

    /// Cumulative resilience counters.
    pub fn resilience_stats(&self) -> &ResilienceStats {
        &self.resilience_stats
    }

    /// Sources parked for exact backfill after degraded rounds.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Execute one batch under the resilience policy: at most one fan-out
    /// round with per-machine deadlines, retries, and hedging
    /// ([`ppr_cluster::Cluster::try_query_many`]).
    ///
    /// * **Complete round** (or no round needed): every answer is
    ///   [`Answer::Exact`], produced by the same probe → fan-out →
    ///   assemble → admit engine as [`DynamicPprServer::run_batch`] — bit
    ///   identical, including cache admission and [`ServeStats`]
    ///   accounting.
    /// * **Incomplete round**: the partial coordinator sums are
    ///   *discarded* — a partial Eq. 5 sum is silently wrong, which is
    ///   worse than visibly approximate — and each request is answered by
    ///   the seeded Monte Carlo [`Degrader`] with its explicit Hoeffding
    ///   bound. Cache-resident sources still resolve exactly (a request
    ///   whose every source is cached comes back [`Answer::Exact`] even
    ///   mid-outage), nothing approximate is admitted to the exact PPV
    ///   cache, and the batch's missing sources are parked (up to
    ///   [`BACKLOG_CAP`]) for [`DynamicPprServer::backfill`].
    ///
    /// Every request resolves to exactly one [`Answer`]; this method never
    /// sheds (admission control lives in the open-loop driver and
    /// [`PprServer::serve_bounded`](crate::PprServer::serve_bounded)).
    pub fn run_batch_resilient(&mut self, requests: &[Request]) -> ResilientBatchOutcome {
        self.run_degradable(requests, RoundPolicy::Resilient)
    }

    /// Execute one batch **without any fan-out round**: the
    /// load-shedding flavor of [`DynamicPprServer::run_batch_resilient`]
    /// the open-loop driver takes when the queue has already blown its
    /// SLO. Cache-resident sources answer [`Answer::Exact`]; everything
    /// else is answered by the Monte Carlo [`Degrader`] with its explicit
    /// bound — far cheaper than a fresh exact fan-out — and parked (up to
    /// [`BACKLOG_CAP`]) for [`DynamicPprServer::backfill`]. Every request
    /// resolves to exactly one [`Answer`]; nothing approximate enters the
    /// exact PPV cache.
    pub fn run_batch_degraded(&mut self, requests: &[Request]) -> ResilientBatchOutcome {
        self.run_degradable(requests, RoundPolicy::NoRound)
    }

    /// Run the batch engine under `policy`; degrade whatever it left
    /// unanswered.
    fn run_degradable(
        &mut self,
        requests: &[Request],
        policy: RoundPolicy,
    ) -> ResilientBatchOutcome {
        let t0 = Stopwatch::start();
        let done = self.core.execute(&self.index, requests, policy);
        self.resilience_stats.resilient_batches += 1;
        let round_complete = done.responses.is_some();
        let missing = done.missing.len();
        let (answers, fresh_sources, degraded_sources) = match done.responses {
            Some(responses) => {
                self.resilience_stats.exact_answers += requests.len() as u64;
                let exact = responses.into_iter().map(Answer::Exact).collect();
                (exact, missing, 0)
            }
            None => {
                self.resilience_stats.incomplete_rounds += u64::from(done.outcome.is_some());
                (self.degrade_and_park(requests, &done.missing), 0, missing)
            }
        };
        ResilientBatchOutcome {
            answers,
            cached_sources: done.cached_sources,
            fresh_sources,
            degraded_sources,
            round_complete,
            outcome: done.outcome,
            modeled_network_seconds: done.modeled_network_seconds,
            modeled_fault_seconds: done.modeled_fault_seconds,
            seconds: t0.elapsed_seconds(),
        }
    }

    /// The degraded path — answer + error bar, never a lie: every request
    /// is answered by the [`Degrader`] (exactly where its sources are
    /// cache-resident) and the `missing` sources are parked for backfill.
    fn degrade_and_park(&mut self, requests: &[Request], missing: &[NodeId]) -> Vec<Answer> {
        let degrader = Degrader::new(
            &self.graph,
            self.index.config(),
            self.degrade_seed,
            self.degrade_walks,
        );
        let cache = &self.core.cache;
        let answers: Vec<Answer> = requests
            .iter()
            .map(|req| degrader.answer(req, |u| cache.peek(u)))
            .collect();
        for &u in missing {
            if self.backlog.contains(&u) {
                continue;
            }
            if self.backlog.len() < BACKLOG_CAP {
                // audit:allow(unbounded-queue): guarded by the
                // BACKLOG_CAP check one line up; overflow is counted,
                // never silently absorbed.
                self.backlog.insert(u);
            } else {
                self.resilience_stats.backlog_overflow += 1;
            }
        }
        for a in &answers {
            if a.is_exact() {
                self.resilience_stats.exact_answers += 1;
            } else {
                self.resilience_stats.degraded_answers += 1;
            }
        }
        answers
    }

    /// Recover up to `limit` parked sources to the exact PPV cache in one
    /// fan-out round (under the active fault plan and resilience policy).
    /// On a complete round the recovered sources leave the backlog and —
    /// when the cache is enabled — their *exact* PPVs are admitted, so
    /// subsequent answers for them are bit-identical to fault-free
    /// serving. An incomplete round admits nothing and leaves the backlog
    /// as it was: backfill only ever writes exact results.
    pub fn backfill(&mut self, limit: usize) -> BackfillOutcome {
        let t0 = Stopwatch::start();
        let take: Vec<NodeId> = self.backlog.iter().copied().take(limit).collect();
        if take.is_empty() {
            return BackfillOutcome {
                attempted: 0,
                recovered: 0,
                remaining: self.backlog.len(),
                round_complete: true,
                modeled_network_seconds: 0.0,
                modeled_fault_seconds: 0.0,
                seconds: t0.elapsed_seconds(),
            };
        }
        let round = self.core.cluster.try_query_many(&self.index, &take);
        if !round.complete() {
            self.resilience_stats.incomplete_rounds += 1;
            return BackfillOutcome {
                attempted: take.len(),
                recovered: 0,
                remaining: self.backlog.len(),
                round_complete: false,
                modeled_network_seconds: round.modeled_network_seconds,
                modeled_fault_seconds: round.modeled_fault_seconds,
                seconds: t0.elapsed_seconds(),
            };
        }
        self.core.stats.rounds += 1;
        self.core.stats.fresh_sources += take.len() as u64;
        self.core.stats.modeled_network_seconds += round.modeled_network_seconds;
        self.core.stats.round_bytes += round.total_bytes();
        for (u, ppv) in take.iter().copied().zip(round.results) {
            if self.core.config.cache_capacity_bytes > 0 {
                self.core.cache.insert(u, ppv);
            }
            self.backlog.remove(&u);
        }
        self.resilience_stats.backfilled_sources += take.len() as u64;
        BackfillOutcome {
            attempted: take.len(),
            recovered: take.len(),
            remaining: self.backlog.len(),
            round_complete: true,
            modeled_network_seconds: round.modeled_network_seconds,
            modeled_fault_seconds: round.modeled_fault_seconds,
            seconds: t0.elapsed_seconds(),
        }
    }

    /// Single-request convenience: exact PPV of `u` on the current graph.
    pub fn query(&mut self, u: NodeId) -> SparseVector {
        self.core.query(&self.index, u)
    }

    /// Single-request convenience: exact top-k of `u`'s PPV.
    pub fn top_k(&mut self, u: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        self.core.top_k(&self.index, u, k)
    }

    /// The graph the index is currently exact for.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The incrementally maintained index.
    pub fn index(&self) -> &HgpaIndex {
        &self.index
    }

    /// Cumulative serving counters (query side).
    pub fn stats(&self) -> &ServeStats {
        &self.core.stats
    }

    /// Cumulative update counters.
    pub fn dynamic_stats(&self) -> &DynamicStats {
        &self.dynamic_stats
    }

    /// The current epoch: the number of effective update barriers applied
    /// so far. All queries between two [`DynamicPprServer::apply_updates`]
    /// calls observe one epoch's `(graph, index)` version.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of reader cache shards.
    pub fn shard_count(&self) -> usize {
        self.core.cache.shard_count()
    }

    /// Cumulative cache counters per shard, in shard order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.core.cache.per_shard_stats()
    }

    /// Cumulative cache counters (preserved across invalidations), summed
    /// over shards.
    pub fn cache_stats(&self) -> CacheStats {
        self.core.cache.stats()
    }

    /// Resident cache entries.
    pub fn cache_len(&self) -> usize {
        self.core.cache.len()
    }

    /// Bytes currently resident in the PPV cache.
    pub fn cache_bytes(&self) -> u64 {
        self.core.cache.bytes()
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.core.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_graph::generators::{hierarchical_sbm, HsbmConfig};
    use ppr_partition::HierarchyConfig;

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

    fn opts(machines: usize) -> HgpaBuildOptions {
        HgpaBuildOptions {
            machines,
            hierarchy: HierarchyConfig {
                max_leaf_size: 16,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn server(n: usize, seed: u64) -> DynamicPprServer {
        DynamicPprServer::build(
            sample(n, seed),
            &PprConfig::default(),
            &opts(3),
            ServeConfig::default(),
        )
    }

    #[test]
    fn noop_updates_touch_nothing() {
        let mut s = server(150, 5);
        let warm = s.query(3);
        let existing = s.graph().edges().next().unwrap();
        let out = s
            .apply_updates(&[
                EdgeUpdate::Insert(existing.0, existing.1), // already present
                EdgeUpdate::Remove(9, 9),                   // absent self-loop
            ])
            .expect("no-op batch is valid");
        assert_eq!((out.applied, out.skipped), (0, 2));
        assert_eq!((out.evicted, out.retained), (0, 0));
        assert_eq!(s.dynamic_stats().update_batches, 0);
        assert_eq!(s.query(3), warm);
        assert_eq!(s.cache_stats().hits, 1, "no-op batch must not evict");
    }

    #[test]
    fn insert_then_remove_within_batch_coalesces_away() {
        let mut s = server(150, 7);
        let warm = s.query(3);
        let (u, v) = (0u32, 140u32);
        assert!(!s.graph().has_edge(u, v));
        let out = s
            .apply_updates(&[EdgeUpdate::Insert(u, v), EdgeUpdate::Remove(u, v)])
            .expect("cancelled batch is valid");
        // Both updates are effective in sequence, but their net effect is
        // nothing: coalescing cancels them before the (expensive)
        // incremental updater runs, no epoch barrier fires, and the cache
        // is untouched.
        assert_eq!((out.applied, out.coalesced, out.skipped), (0, 2, 0));
        assert_eq!(out.stats, UpdateStats::default());
        assert_eq!((out.evicted, out.retained), (0, 0));
        assert_eq!((out.epoch, s.epoch()), (0, 0));
        assert_eq!(s.dynamic_stats().update_batches, 0);
        assert_eq!(s.dynamic_stats().updates_coalesced, 2);
        assert!(!s.graph().has_edge(u, v));
        assert_eq!(s.query(3), warm, "cancelled batch must not evict");
    }

    #[test]
    fn effective_batches_advance_the_epoch() {
        let mut s = server(150, 11);
        assert_eq!(s.epoch(), 0);
        let out = s.apply_updates(&[EdgeUpdate::Insert(0, 140)]).expect("valid");
        assert_eq!((out.applied, out.epoch), (1, 1));
        assert_eq!(s.epoch(), 1);
        let out = s.apply_updates(&[EdgeUpdate::Remove(0, 140)]).expect("valid");
        assert_eq!((out.applied, out.epoch), (1, 2));
        assert_eq!(s.epoch(), 2);
    }

    #[test]
    fn updates_change_served_answers_exactly() {
        let g0 = sample(160, 9);
        let cfg = PprConfig::default();
        let mut s = DynamicPprServer::build(g0.clone(), &cfg, &opts(3), ServeConfig::default());
        let (u, v) = (2u32, 150u32);
        assert!(!g0.has_edge(u, v));
        let before = s.query(u);
        let out = s.apply_updates(&[EdgeUpdate::Insert(u, v)]).expect("valid");
        assert_eq!(out.applied, 1);
        let after = s.query(u);
        assert_ne!(before, after, "inserting an out-edge of u must change its PPV");
        // Differential: recomputing every vector from scratch on the same
        // (updated) hierarchy must reproduce the maintained index bit for
        // bit. Central queries are the machine-agnostic comparison — a
        // promoted hub's machine assignment legitimately differs between
        // the incremental path and a rebuild, which permutes the
        // coordinator's summation order in served answers.
        let rebuilt = HgpaIndex::build_with_hierarchy(
            s.graph(),
            &cfg,
            &opts(3),
            s.index().hierarchy().clone(),
        );
        assert_eq!(s.index().query(u), rebuilt.query(u));
        // The served (cache) path must be bit-identical to a fresh
        // fan-out over the maintained index itself.
        let direct = ppr_cluster::Cluster::with_default_network()
            .query(s.index(), u)
            .result;
        assert_eq!(s.query(u), direct);
    }

    #[test]
    fn node_churn_is_served_exactly() {
        use ppr_graph::NodeUpdate;
        let cfg = PprConfig::default();
        let mut s = DynamicPprServer::build(sample(160, 21), &cfg, &opts(3), ServeConfig::default());
        let out = s
            .apply_delta(&GraphDelta {
                nodes: vec![NodeUpdate::Remove(40), NodeUpdate::Add],
                edges: vec![EdgeUpdate::Insert(2, 160), EdgeUpdate::Insert(160, 7)],
            })
            .expect("valid churn batch");
        assert_eq!((out.stats.nodes_added, out.stats.nodes_removed), (1, 1));
        assert_eq!((out.epoch, s.epoch()), (1, 1));
        assert!(s.index().is_live(160) && !s.index().is_live(40));
        assert_eq!(s.dynamic_stats().nodes_added, 1);
        assert_eq!(s.dynamic_stats().nodes_removed, 1);
        // The removed node answers empty; the added node serves at once.
        assert_eq!(s.query(40).nnz(), 0);
        assert!(s.query(160).get(7) > 0.0);
        // Differential: a from-scratch recomputation on the maintained
        // hierarchy reproduces the served answers bit for bit.
        let rebuilt = HgpaIndex::build_with_hierarchy(
            s.graph(),
            &cfg,
            &opts(3),
            s.index().hierarchy().clone(),
        );
        for u in [2u32, 7, 160] {
            assert_eq!(s.index().query(u), rebuilt.query(u));
        }
    }

    #[test]
    fn dead_node_updates_are_rejected_without_damage() {
        use ppr_graph::NodeUpdate;
        let mut s = server(150, 13);
        s.apply_delta(&GraphDelta {
            nodes: vec![NodeUpdate::Remove(9)],
            edges: vec![],
        })
        .expect("valid removal");
        let warm = s.query(3);
        let epoch = s.epoch();
        let batches = s.dynamic_stats().update_batches;
        // An edge on a tombstone is rejected by the index's liveness
        // check — an Err, not a panic — and nothing moves.
        let err = s.apply_updates(&[EdgeUpdate::Insert(9, 3)]).unwrap_err();
        assert!(matches!(err, UpdateError::DeadNode { node: 9 }), "{err}");
        assert!(err.to_string().contains("not live"));
        // Structurally invalid batches are rejected at the graph level.
        let err = s
            .apply_delta(&GraphDelta {
                nodes: vec![NodeUpdate::Remove(9), NodeUpdate::Remove(9)],
                edges: vec![],
            })
            .unwrap_err();
        assert!(matches!(err, UpdateError::Delta(_)), "{err}");
        assert_eq!(s.epoch(), epoch, "rejected batches release no epoch");
        assert_eq!(s.dynamic_stats().update_batches, batches);
        assert_eq!(s.query(3), warm, "serving continues on the old version");
    }

    #[test]
    fn resilient_batch_with_empty_plan_matches_run_batch() {
        let reqs = vec![
            Request::Ppv(3),
            Request::TopK { source: 9, k: 4 },
            Request::Preference(vec![(3, 0.5), (11, 0.5)]),
            Request::Ppv(3),
        ];
        let mut exact = server(150, 17);
        let mut resilient = server(150, 17);
        for round in 0..2 {
            let want = exact.run_batch(&reqs);
            let got = resilient.run_batch_resilient(&reqs);
            assert!(got.round_complete);
            assert_eq!(got.degraded_sources, 0);
            assert_eq!(got.answers.len(), want.responses.len());
            for (a, r) in got.answers.iter().zip(&want.responses) {
                assert_eq!(a, &Answer::Exact(r.clone()), "round {round}");
            }
            assert_eq!(got.cached_sources, want.cached_sources);
            assert_eq!(got.fresh_sources, want.fresh_sources);
        }
        // Identical cache state and exact-path accounting afterwards.
        assert_eq!(resilient.cache_len(), exact.cache_len());
        assert_eq!(resilient.stats().fresh_sources, exact.stats().fresh_sources);
        assert_eq!(resilient.stats().cached_sources, exact.stats().cached_sources);
        assert_eq!(resilient.stats().rounds, exact.stats().rounds);
        assert_eq!(resilient.resilience_stats().degraded_answers, 0);
        assert_eq!(resilient.resilience_stats().exact_answers, 8);
        assert_eq!(resilient.backlog_len(), 0);
    }

    #[test]
    fn outage_degrades_with_a_bound_that_holds_then_backfills_exactly() {
        let mut clean = server(150, 19);
        let mut s = server(150, 19);
        // Machine 0 down for the next hundred rounds.
        s.set_fault_plan(FaultPlan::empty().fail(0, 0, 100));
        let out = s.run_batch_resilient(&[Request::Ppv(5)]);
        assert!(!out.round_complete);
        assert_eq!(out.degraded_sources, 1);
        let a = &out.answers[0];
        assert!(a.is_approximate());
        let bound = a.precision_bound().unwrap();
        assert_eq!(bound, s.degraded_bound());
        // The advertised bound holds coordinate-wise against the exact PPV.
        let exact = clean.query(5);
        let approx = a.response().unwrap().as_ppv().unwrap();
        for v in 0..150u32 {
            let err = (approx.get(v) - exact.get(v)).abs();
            assert!(err <= bound, "v {v}: err {err} > bound {bound}");
        }
        // Nothing approximate entered the cache; the source is parked.
        assert_eq!(s.cache_len(), 0);
        assert_eq!(s.backlog_len(), 1);
        assert_eq!(s.resilience_stats().degraded_answers, 1);
        // Backfill under the outage recovers nothing...
        let b = s.backfill(8);
        assert!(!b.round_complete);
        assert_eq!((b.recovered, b.remaining), (0, 1));
        // ...and after recovery it restores bit-identical exact serving.
        s.set_fault_plan(FaultPlan::empty());
        let b = s.backfill(8);
        assert!(b.round_complete);
        assert_eq!((b.recovered, b.remaining), (1, 0));
        assert_eq!(s.resilience_stats().backfilled_sources, 1);
        let after = s.run_batch_resilient(&[Request::Ppv(5)]);
        assert_eq!(after.answers[0], Answer::Exact(Response::Ppv(exact)));
    }

    #[test]
    fn cached_sources_answer_exactly_even_mid_outage() {
        let mut s = server(150, 23);
        let warm = s.query(4); // cached before the fault
        s.set_fault_plan(FaultPlan::empty().fail(1, 0, u64::MAX));
        // Fully cached request: exact despite the outage, no degradation.
        let out = s.run_batch_resilient(&[Request::Ppv(4)]);
        assert!(out.round_complete && out.outcome.is_none());
        assert_eq!(out.answers[0], Answer::Exact(Response::Ppv(warm.clone())));
        // Mixed preference: the cached member stays exact, only the
        // missing member's weight is covered by the bound.
        let out = s.run_batch_resilient(&[Request::Preference(vec![(4, 0.75), (90, 0.25)])]);
        assert!(out.answers[0].is_approximate());
        assert_eq!(
            out.answers[0].precision_bound().unwrap(),
            s.degraded_bound() * 0.25
        );
        assert_eq!(s.backlog_len(), 1, "only the missing source is parked");
        // The fully-cached batch answered exactly; the mixed one degraded.
        assert_eq!(s.resilience_stats().exact_answers, 1);
        assert_eq!(s.resilience_stats().degraded_answers, 1);
    }

    #[test]
    #[should_panic(expected = "node set")]
    fn mismatched_graph_rejected() {
        let g = sample(100, 1);
        let idx = HgpaIndex::build(&sample(101, 1), &PprConfig::default(), &opts(2));
        DynamicPprServer::from_index(g, idx, ServeConfig::default());
    }
}
