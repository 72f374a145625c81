//! The serving front-end: request batching over one cluster fan-out.
//!
//! One batch engine (`ServerCore::execute`) sits between clients and a
//! [`DistributedQueryable`] index; [`PprServer`] (borrowed static index)
//! and [`DynamicPprServer`](crate::DynamicPprServer) (owned, updatable
//! index) both hold it, so the caching/batching/assembly semantics — and
//! the exactness tests that pin them — cover every front-end. Per batch
//! the engine:
//!
//! 1. collects the *distinct* source nodes the batch's requests need
//!    (a preference-set query needs one source per member — linearity,
//!    Eq. 5/7, lets every answer be assembled from per-source PPVs) and
//!    probes the sharded LRU PPV cache once per source;
//! 2. answers all missing sources in (at most) **one** cluster fan-out
//!    round ([`Cluster::query_many`]), so the round latency and
//!    per-machine scratch allocations amortize across the batch;
//! 3. assembles each request's response from the per-source exact PPVs —
//!    weighted dense accumulation for preference sets, the threshold
//!    early-cut selection for top-k — on one scoped worker per cache
//!    shard when `ServeConfig::shards > 1` and parallelism is on;
//! 4. admits the round's PPVs to the cache, in batch order, *after*
//!    assembly, and accounts the batch in [`ServeStats`].
//!
//! Every path returns *exact* answers: the cache stores full exact PPVs
//! (never truncated), linearity recombination is the same Jeh–Widom
//! theorem the index itself uses, and the top-k early cut provably equals
//! the full sort (see [`SparseVector::top_k_early_cut`]). Sharding and
//! threading change throughput, never bits (pinned differentially in
//! `tests/concurrent_serving.rs`): cache residency only decides *where* a
//! PPV comes from, assembly is per-request pure given the per-source
//! PPVs, and shard routing is deterministic.

use crate::cache::CacheStats;
use crate::degrade::Answer;
use crate::shard::ShardSet;
use ppr_cluster::{
    Cluster, ClusterConfig, DistributedQueryable, FanoutOutcome, NetworkModel, ParallelismMode,
};
use ppr_core::{Scratch, SparseVector};
use ppr_graph::NodeId;
use std::collections::{HashMap, HashSet};
use ppr_core::parallel::Stopwatch;

/// Serving knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// PPV cache capacity in bytes ([`SparseVector::wire_bytes`]
    /// accounting). Zero disables caching entirely.
    pub cache_capacity_bytes: u64,
    /// Maximum requests coalesced into one fan-out round by
    /// [`PprServer::serve`]. [`PprServer::run_batch`] trusts the caller.
    pub max_batch: usize,
    /// Network model for the modeled wire time of each round.
    pub network: NetworkModel,
    /// Reader shards: the PPV cache is hash-partitioned into this many
    /// shards and, when `parallelism` is on, a batch's responses are
    /// assembled on one scoped worker per shard. `1` (the default)
    /// assembles in the calling thread. The `repro serve` load generator
    /// reads `PPR_SERVE_SHARDS` into this field.
    pub shards: usize,
    /// How the cluster fan-out (and, where shards > 1, response
    /// assembly) executes. Defaults to [`ParallelismMode::from_env`], so
    /// `PPR_TEST_THREADS=1` forces the sequential fallback everywhere.
    pub parallelism: ParallelismMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            cache_capacity_bytes: 64 << 20, // 64 MiB
            max_batch: 32,
            network: NetworkModel::default(),
            shards: 1,
            parallelism: ParallelismMode::from_env(),
        }
    }
}

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Full exact PPV of a single source (the paper's basic query).
    Ppv(NodeId),
    /// Exact PPV of a weighted preference set `P` (§1; Jeh–Widom
    /// linearity). Weights are used as given — callers normalize.
    Preference(Vec<(NodeId, f64)>),
    /// The k highest-scoring nodes of the source's exact PPV — PPR's
    /// search/recommendation shape (§7's top-k PPR problem).
    TopK {
        /// Source node.
        source: NodeId,
        /// Number of results.
        k: usize,
    },
}

impl Request {
    /// Source nodes this request needs PPVs for.
    pub(crate) fn sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        let slice: Vec<NodeId> = match self {
            Request::Ppv(u) | Request::TopK { source: u, .. } => vec![*u],
            Request::Preference(p) => p.iter().map(|&(u, _)| u).collect(),
        };
        slice.into_iter()
    }
}

/// One response, parallel to its [`Request`].
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Exact PPV (for [`Request::Ppv`] and [`Request::Preference`]).
    Ppv(SparseVector),
    /// Exact top-k list, value-descending (ties by node id ascending).
    TopK(Vec<(NodeId, f64)>),
}

impl Response {
    /// The PPV payload, or `None` for a top-k response.
    pub fn as_ppv(&self) -> Option<&SparseVector> {
        match self {
            Response::Ppv(v) => Some(v),
            Response::TopK(_) => None,
        }
    }

    /// The top-k payload, or `None` for a PPV response.
    pub fn as_top_k(&self) -> Option<&[(NodeId, f64)]> {
        match self {
            Response::TopK(t) => Some(t),
            Response::Ppv(_) => None,
        }
    }
}

/// What one batch cost.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Responses, parallel to the submitted requests.
    pub responses: Vec<Response>,
    /// Distinct sources served from cache.
    pub cached_sources: usize,
    /// Distinct sources computed fresh this batch (0 ⇒ no fan-out round).
    pub fresh_sources: usize,
    /// Real wall-clock seconds spent serving the batch.
    pub seconds: f64,
    /// Modeled wire time of the batch's fan-out round (0 without one).
    pub modeled_network_seconds: f64,
    /// Bytes shipped machine → coordinator in the round (0 without one).
    pub round_bytes: u64,
}

/// Cumulative serving counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Requests answered.
    pub requests: u64,
    /// Batches executed.
    pub batches: u64,
    /// Cluster fan-out rounds executed (batches fully served from cache
    /// need none).
    pub rounds: u64,
    /// Distinct sources computed fresh.
    pub fresh_sources: u64,
    /// Distinct sources served from cache.
    pub cached_sources: u64,
    /// Real wall-clock seconds spent inside `run_batch`.
    pub busy_seconds: f64,
    /// Modeled wire seconds across all rounds.
    pub modeled_network_seconds: f64,
    /// Bytes shipped machine → coordinator across all rounds.
    pub round_bytes: u64,
}

impl ServeStats {
    /// Fraction of per-batch distinct source lookups served from cache.
    pub fn source_hit_rate(&self) -> f64 {
        let total = self.cached_sources + self.fresh_sources;
        if total == 0 {
            0.0
        } else {
            self.cached_sources as f64 / total as f64
        }
    }
}

/// A serving front-end over one borrowed distributed PPR index.
///
/// `ServeConfig::shards` reader shards each own a hash-partitioned slice
/// of the PPV cache; answers are bit-identical at every shard count and
/// parallelism mode.
///
/// ```
/// use ppr_core::hgpa::{HgpaBuildOptions, HgpaIndex};
/// use ppr_core::PprConfig;
/// use ppr_cluster::ParallelismMode;
/// use ppr_graph::generators::{hierarchical_sbm, HsbmConfig};
/// use ppr_serve::{PprServer, Request, ServeConfig};
///
/// let graph = hierarchical_sbm(&HsbmConfig { nodes: 200, ..Default::default() }, 9);
/// let cfg = PprConfig { epsilon: 1e-7, ..Default::default() };
/// let index = HgpaIndex::build(&graph, &cfg, &HgpaBuildOptions::default());
/// let mut server = PprServer::new(&index, ServeConfig::default());
///
/// let cold = server.query(5); // computed via one fan-out round
/// let warm = server.query(5); // served from cache, bit-identical
/// assert_eq!(cold, warm);
/// assert_eq!(server.top_k(5, 3), cold.top_k(3)); // also a cache hit
/// assert_eq!(server.stats().cached_sources, 2);
/// assert_eq!(server.stats().fresh_sources, 1);
///
/// // Reader shards and threads are configuration, not another server.
/// let mut sharded = PprServer::new(&index, ServeConfig {
///     shards: 4,
///     parallelism: ParallelismMode::Threads(4),
///     ..Default::default()
/// });
/// assert_eq!(sharded.query(5), cold); // bit-identical
/// assert_eq!(sharded.shard_count(), 4);
/// ```
pub struct PprServer<'i, I: DistributedQueryable> {
    index: &'i I,
    core: ServerCore,
}

impl<'i, I: DistributedQueryable> PprServer<'i, I> {
    /// Serve queries from `index` under `config`, with
    /// `config.shards.max(1)` reader shards.
    pub fn new(index: &'i I, config: ServeConfig) -> Self {
        Self {
            index,
            core: ServerCore::new(index.machines(), config),
        }
    }

    /// Answer a request stream, coalescing up to `max_batch` requests per
    /// fan-out round. Responses come back in request order.
    pub fn serve(&mut self, requests: &[Request]) -> Vec<Response> {
        self.core.serve(self.index, requests)
    }

    /// Execute one batch in (at most) one cluster fan-out round.
    pub fn run_batch(&mut self, requests: &[Request]) -> BatchOutcome {
        self.core.run_batch(self.index, requests)
    }

    /// Answer a request stream under **admission control**: the first
    /// `cap` requests are admitted and served exactly (same coalescing as
    /// [`PprServer::serve`]), the remainder are shed up front as
    /// [`Answer::Shed`] without touching the cluster or the cache. Answers
    /// come back in request order — every request resolves to exactly one
    /// [`Answer`], so overload degrades to explicit rejections, never to
    /// silent drops or unbounded queueing.
    pub fn serve_bounded(&mut self, requests: &[Request], cap: usize) -> Vec<Answer> {
        let admitted = cap.min(requests.len());
        let mut out: Vec<Answer> = self
            .serve(&requests[..admitted])
            .into_iter()
            .map(Answer::Exact)
            .collect();
        out.resize(requests.len(), Answer::Shed);
        out
    }

    /// Single-request convenience: exact PPV of `u`.
    pub fn query(&mut self, u: NodeId) -> SparseVector {
        self.core.query(self.index, u)
    }

    /// Single-request convenience: exact preference-set PPV.
    pub fn query_preference(&mut self, preference: &[(NodeId, f64)]) -> SparseVector {
        self.core.query_preference(self.index, preference)
    }

    /// Single-request convenience: exact top-k of `u`'s PPV.
    pub fn top_k(&mut self, u: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        self.core.top_k(self.index, u, k)
    }

    /// Cumulative serving counters.
    pub fn stats(&self) -> &ServeStats {
        &self.core.stats
    }

    /// Cumulative cache counters, summed over shards.
    pub fn cache_stats(&self) -> CacheStats {
        self.core.cache.stats()
    }

    /// Cumulative cache counters per shard, in shard order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.core.cache.per_shard_stats()
    }

    /// Number of reader shards.
    pub fn shard_count(&self) -> usize {
        self.core.cache.shard_count()
    }

    /// Bytes currently resident in the PPV cache.
    pub fn cache_bytes(&self) -> u64 {
        self.core.cache.bytes()
    }

    /// Resident cache entries.
    pub fn cache_len(&self) -> usize {
        self.core.cache.len()
    }

    /// Drop every cached PPV (call after mutating the underlying index,
    /// e.g. via `ppr-core`'s incremental updater).
    ///
    /// Invalidation empties the cache *contents only*: cumulative
    /// [`CacheStats`] (hits, misses, insertions, …) keep accumulating
    /// across invalidations, with the dropped entries counted under
    /// [`CacheStats::invalidated`]. For update-aware serving that evicts
    /// only the sources an update can actually affect, see
    /// [`DynamicPprServer`](crate::DynamicPprServer).
    pub fn invalidate_cache(&mut self) {
        self.core.cache.clear();
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.core.config
    }
}

/// Whether — and how — a batch may run its fan-out round.
#[derive(Clone, Copy)]
pub(crate) enum RoundPolicy {
    /// [`Cluster::query_many`]: always exact, always answered.
    Exact,
    /// [`Cluster::try_query_many`]: machine failures are reported; an
    /// incomplete round leaves the batch unanswered.
    Resilient,
    /// No fan-out at all (the queue already blew its SLO): the batch is
    /// probed and left unanswered.
    NoRound,
}

/// What [`ServerCore::execute`] did with one batch.
pub(crate) struct Executed {
    /// Exact responses, parallel to the requests — or `None` when the
    /// policy left the batch unanswered (incomplete round, or no round);
    /// the cache and [`ServeStats`] are then untouched beyond the probe,
    /// and the caller degrades from `missing`.
    pub responses: Option<Vec<Response>>,
    /// Distinct sources the probe did not find, first-appearance order.
    pub missing: Vec<NodeId>,
    /// Distinct sources served from cache.
    pub cached_sources: usize,
    /// The round's per-machine outcome, when one ran.
    pub outcome: Option<FanoutOutcome>,
    /// Modeled wire time of the round (delivered replies only).
    pub modeled_network_seconds: f64,
    /// Modeled seconds the round lost to scripted faults.
    pub modeled_fault_seconds: f64,
    /// Bytes that reached the coordinator in the round.
    pub round_bytes: u64,
    /// Real wall-clock seconds spent in `execute`.
    pub seconds: f64,
}

/// The state every front-end shares, and the one batch engine over it.
/// The index is passed per call: [`PprServer`] borrows a frozen one,
/// [`DynamicPprServer`](crate::DynamicPprServer) owns one it mutates
/// between batches.
pub(crate) struct ServerCore {
    pub cluster: Cluster,
    pub cache: ShardSet,
    pub config: ServeConfig,
    pub stats: ServeStats,
}

impl ServerCore {
    pub fn new(machines: usize, config: ServeConfig) -> Self {
        Self {
            cluster: Cluster::new(ClusterConfig {
                machines,
                network: config.network,
                parallelism: config.parallelism,
            }),
            cache: ShardSet::new(config.shards.max(1), config.cache_capacity_bytes),
            config,
            stats: ServeStats::default(),
        }
    }

    /// One batch, at most one cluster fan-out round: probe → round →
    /// assemble → admit → account.
    pub fn execute<I: DistributedQueryable>(
        &mut self,
        index: &I,
        requests: &[Request],
        policy: RoundPolicy,
    ) -> Executed {
        let t0 = Stopwatch::start();

        // Distinct sources, first-appearance order. Probe the cache once
        // per distinct source so recency and hit accounting are per batch,
        // not per duplicate.
        let mut missing: Vec<NodeId> = Vec::new();
        let mut probed: HashSet<NodeId> = HashSet::new();
        for req in requests {
            for u in req.sources() {
                if probed.insert(u) && self.cache.get(u).is_none() {
                    missing.push(u);
                }
            }
        }
        let mut done = Executed {
            responses: None,
            cached_sources: probed.len() - missing.len(),
            missing,
            outcome: None,
            modeled_network_seconds: 0.0,
            modeled_fault_seconds: 0.0,
            round_bytes: 0,
            seconds: 0.0,
        };

        // One fan-out round answers every missing source (Eq. 5/7: each
        // machine ships one reply vector per source; sums are exact PPVs).
        // An incomplete round contributes nothing: a partial Eq. 5 sum is
        // silently wrong, which is worse than visibly approximate.
        let round = match policy {
            RoundPolicy::NoRound => return done,
            _ if done.missing.is_empty() => None,
            RoundPolicy::Exact => Some(self.cluster.query_many(index, &done.missing)),
            RoundPolicy::Resilient => Some(self.cluster.try_query_many(index, &done.missing)),
        };
        let mut fresh: HashMap<NodeId, SparseVector> = HashMap::new();
        if let Some(round) = round {
            done.modeled_network_seconds = round.modeled_network_seconds;
            done.modeled_fault_seconds = round.modeled_fault_seconds;
            done.round_bytes = round.total_bytes();
            let complete = round.complete();
            done.outcome = Some(round.outcome);
            if !complete {
                return done;
            }
            self.stats.rounds += 1;
            fresh.extend(done.missing.iter().copied().zip(round.results));
        }

        let assembly = self.cache.assembly_mode(self.config.parallelism);
        let responses = assemble(index, &fresh, &self.cache, requests, assembly);

        // Admit the round's PPVs in batch order (deterministic recency),
        // and only *after* assembly — inserting first could evict a
        // resident entry that another request in this very batch probed
        // successfully.
        if self.config.cache_capacity_bytes > 0 {
            for &u in &done.missing {
                if let Some(ppv) = fresh.remove(&u) {
                    self.cache.insert(u, ppv);
                }
            }
        }

        done.seconds = t0.elapsed_seconds();
        self.stats.requests += requests.len() as u64;
        self.stats.batches += 1;
        self.stats.fresh_sources += done.missing.len() as u64;
        self.stats.cached_sources += done.cached_sources as u64;
        self.stats.busy_seconds += done.seconds;
        self.stats.modeled_network_seconds += done.modeled_network_seconds;
        self.stats.round_bytes += done.round_bytes;
        done.responses = Some(responses);
        done
    }

    /// [`ServerCore::execute`] under [`RoundPolicy::Exact`], which always
    /// answers.
    pub fn run_batch<I: DistributedQueryable>(
        &mut self,
        index: &I,
        requests: &[Request],
    ) -> BatchOutcome {
        let done = self.execute(index, requests, RoundPolicy::Exact);
        BatchOutcome {
            responses: done.responses.unwrap_or_default(),
            cached_sources: done.cached_sources,
            fresh_sources: done.missing.len(),
            seconds: done.seconds,
            modeled_network_seconds: done.modeled_network_seconds,
            round_bytes: done.round_bytes,
        }
    }

    /// Answer a request stream, coalescing up to `max_batch` requests per
    /// fan-out round.
    pub fn serve<I: DistributedQueryable>(
        &mut self,
        index: &I,
        requests: &[Request],
    ) -> Vec<Response> {
        let chunk = self.config.max_batch.max(1);
        let mut out = Vec::with_capacity(requests.len());
        for batch in requests.chunks(chunk) {
            out.extend(self.run_batch(index, batch).responses);
        }
        out
    }

    pub fn query<I: DistributedQueryable>(&mut self, index: &I, u: NodeId) -> SparseVector {
        match self.run_batch(index, &[Request::Ppv(u)]).responses.pop() {
            Some(Response::Ppv(v)) => v,
            // audit:allow(serve-panic): execute maps each request to its
            // same-variant response in order
            _ => unreachable!("Ppv request yields Ppv response"),
        }
    }

    pub fn query_preference<I: DistributedQueryable>(
        &mut self,
        index: &I,
        preference: &[(NodeId, f64)],
    ) -> SparseVector {
        let req = Request::Preference(preference.to_vec());
        match self.run_batch(index, &[req]).responses.pop() {
            Some(Response::Ppv(v)) => v,
            // audit:allow(serve-panic): execute maps each request to its
            // same-variant response in order
            _ => unreachable!("Preference request yields Ppv response"),
        }
    }

    pub fn top_k<I: DistributedQueryable>(
        &mut self,
        index: &I,
        u: NodeId,
        k: usize,
    ) -> Vec<(NodeId, f64)> {
        let req = Request::TopK { source: u, k };
        match self.run_batch(index, &[req]).responses.pop() {
            Some(Response::TopK(t)) => t,
            // audit:allow(serve-panic): execute maps each request to its
            // same-variant response in order
            _ => unreachable!("TopK request yields TopK response"),
        }
    }
}

/// Assemble per-request responses from the per-source exact PPVs, either
/// in the calling thread or chunked over `assembly` scoped workers, each
/// with its own [`Scratch`] arena.
///
/// Lookups borrow (only `Ppv` responses clone, to hand the vector out);
/// preference requests accumulate through the worker's own [`Scratch`]
/// arena, reused across the batch. Assembly never mutates the cache —
/// during this phase the shards are shared read-only across workers, and
/// each response depends only on its own request plus the resolved PPVs,
/// so chunking cannot change any response's bits.
fn assemble<I: DistributedQueryable>(
    index: &I,
    fresh: &HashMap<NodeId, SparseVector>,
    cache: &ShardSet,
    requests: &[Request],
    assembly: ParallelismMode,
) -> Vec<Response> {
    fn resolve<'a>(
        fresh: &'a HashMap<NodeId, SparseVector>,
        cache: &'a ShardSet,
        u: NodeId,
    ) -> &'a SparseVector {
        fresh
            .get(&u)
            .or_else(|| cache.peek(u))
            // audit:allow(serve-panic): the probe phase inserted every batch
            // source into `fresh` or the cache before assembly runs
            .expect("source resolved earlier in the batch")
    }
    fn assemble_one(
        fresh: &HashMap<NodeId, SparseVector>,
        cache: &ShardSet,
        n: usize,
        scratch: &mut Scratch,
        req: &Request,
    ) -> Response {
        match req {
            Request::Ppv(u) => Response::Ppv(resolve(fresh, cache, *u).clone()),
            Request::TopK { source, k } => {
                Response::TopK(resolve(fresh, cache, *source).top_k_early_cut(*k))
            }
            Request::Preference(pref) => {
                scratch.ensure(n);
                for &(u, w) in pref {
                    scratch.scatter(resolve(fresh, cache, u), w);
                }
                Response::Ppv(scratch.harvest())
            }
        }
    }

    let n = index.node_count();
    let workers = assembly.workers().min(requests.len().max(1));
    if workers <= 1 {
        let mut scratch = Scratch::new();
        return requests
            .iter()
            .map(|req| assemble_one(fresh, cache, n, &mut scratch, req))
            .collect();
    }

    // Contiguous chunks keep responses in request order after concat.
    let chunk = requests.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(chunk)
            .map(|reqs| {
                scope.spawn(move || {
                    let mut scratch = Scratch::new();
                    reqs.iter()
                        .map(|req| assemble_one(fresh, cache, n, &mut scratch, req))
                        .collect::<Vec<Response>>()
                })
            })
            .collect();
        handles
            .into_iter()
            // audit:allow(serve-panic): join only fails if the worker already
            // panicked; propagating beats hiding the poisoned batch
            .flat_map(|h| h.join().expect("assembly worker thread"))
            .collect()
    })
}
