//! The traced pipeline: the serving path re-issued stage by stage through
//! the crates' public functions, with a span at every layer boundary.
//!
//! `DynamicPprServer::run_batch` is one opaque call from outside. This
//! module makes the same calls it makes — `PpvCache::get`, one fan-out
//! round (`Cluster::query_many` in process, `SocketCluster::round` plus the
//! coordinator's `Scratch` sum over the wire), response assembly
//! (`clone` / `top_k_early_cut` / `scatter`+`harvest`) and
//! `PpvCache::insert` — against its own cache of the same capacity, fed the
//! same batches in the same order. Its answers must therefore be
//! bit-identical to `run_batch`'s, which is what makes the decomposition
//! trustworthy; the workloads check that on every batch.

use crate::harness::{self, Checks};
use crate::trace::Recorder;
use exact_ppr::cluster::{Cluster, ClusterConfig, ResilienceConfig, SocketCluster};
use exact_ppr::core::hgpa::HgpaIndex;
use exact_ppr::core::{Scratch, SparseVector};
use exact_ppr::graph::NodeId;
use exact_ppr::serve::{PpvCache, Request, Response};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

pub const BATCH: &str = "serve.batch";
pub const CACHE_GET: &str = "serve.cache.get";
pub const CACHE_INSERT: &str = "serve.cache.insert";
pub const ASSEMBLE: &str = "serve.assemble";
pub const ASSEMBLE_PPV: &str = "serve.assemble.ppv";
pub const TOPK: &str = "core.sparse.topk";
pub const PREFERENCE: &str = "core.sparse.preference";
pub const EXEC_ROUND: &str = "cluster.exec.query_many";
pub const MACHINE_VECTORS: &str = "core.hgpa.machine_vectors";
pub const COORDINATOR_SUM: &str = "core.sparse.sum";
pub const SOCKET_ROUND: &str = "cluster.socket.round";

/// Counts taken at the same boundaries as the spans.
#[derive(Default)]
pub struct Counts {
    pub lookups: u64,
    pub inserts: u64,
    pub topk: u64,
    pub preference: u64,
    pub fresh_sources: u64,
    pub rounds: u64,
    /// `Cluster::query_many` reports, summed (in-process transport).
    pub exec_wall_s: f64,
    pub exec_coordinator_s: f64,
    pub exec_modeled_runtime_s: f64,
    pub exec_modeled_network_s: f64,
    /// `SocketCluster::round` replies, summed (socket transport).
    pub socket_wall_s: f64,
    pub socket_max_compute_s: f64,
    pub socket_retried_rounds: u64,
}

pub struct Staged {
    index: HgpaIndex,
    cache: PpvCache,
    cluster: Cluster,
    sock: Option<Arc<SocketCluster>>,
    scratch: Scratch,
    pub rec: Recorder,
    pub counts: Counts,
    batches: u64,
}

fn sources(req: &Request) -> Vec<NodeId> {
    match req {
        Request::Ppv(u) | Request::TopK { source: u, .. } => vec![*u],
        Request::Preference(p) => p.iter().map(|&(u, _)| u).collect(),
    }
}

impl Staged {
    /// A pipeline over its own copy of the index; `sock` routes fan-outs
    /// over the worker fleet the real server uses.
    pub fn new(index: HgpaIndex, sock: Option<Arc<SocketCluster>>) -> Self {
        let config = harness::serve_config();
        let n = index.node_count();
        Self {
            cluster: Cluster::new(ClusterConfig {
                machines: index.machines(),
                network: config.network,
                parallelism: config.parallelism,
            }),
            index,
            cache: PpvCache::new(config.cache_capacity_bytes),
            sock,
            scratch: Scratch::with_len(n),
            rec: Recorder::new(),
            counts: Counts::default(),
            batches: 0,
        }
    }

    pub fn cache(&self) -> &PpvCache {
        &self.cache
    }

    /// Forget the spans and counts gathered so far (after warm-up).
    pub fn reset_measurements(&mut self) {
        self.rec = Recorder::new();
        self.counts = Counts::default();
    }

    /// One batch, stage by stage. Returns the responses and the batch's
    /// wall seconds.
    pub fn run_batch(&mut self, requests: &[Request], checks: &mut Checks) -> (Vec<Response>, f64) {
        self.batches += 1;
        self.rec.set_batch(self.batches);
        let root = self.rec.enter(BATCH);

        // Probe each distinct source once, in first-appearance order.
        self.rec.enter(CACHE_GET);
        let mut missing: Vec<NodeId> = Vec::new();
        let mut probed: HashSet<NodeId> = HashSet::new();
        for req in requests {
            for u in sources(req) {
                if probed.insert(u) && self.cache.get(u).is_none() {
                    missing.push(u);
                }
            }
        }
        self.rec.exit();
        self.counts.lookups += probed.len() as u64;

        let mut fresh: HashMap<NodeId, SparseVector> = HashMap::new();
        if !missing.is_empty() {
            let results = match self.sock.clone() {
                None => self.round_in_process(&missing),
                Some(sock) => self.round_over_socket(&sock, &missing, checks),
            };
            self.counts.rounds += 1;
            self.counts.fresh_sources += missing.len() as u64;
            fresh.extend(missing.iter().copied().zip(results));
        }

        let responses = self.assemble(requests, &fresh);

        self.rec.enter(CACHE_INSERT);
        for &u in &missing {
            if let Some(ppv) = fresh.remove(&u) {
                self.cache.insert(u, ppv);
            }
        }
        self.rec.exit();
        self.counts.inserts += missing.len() as u64;

        self.rec.exit();
        let seconds = self.rec.spans()[root].seconds();
        (responses, seconds)
    }

    /// `Cluster::query_many`; its report splits the round into the
    /// machines' compute phase and the coordinator's sum.
    fn round_in_process(&mut self, missing: &[NodeId]) -> Vec<SparseVector> {
        self.rec.enter(EXEC_ROUND);
        let t0 = self.rec.now();
        let round = self.cluster.query_many(&self.index, missing);
        let sum_start = t0 + (round.wall_seconds - round.coordinator_seconds).max(0.0);
        self.rec.reported(MACHINE_VECTORS, t0, sum_start);
        self.rec.reported(
            COORDINATOR_SUM,
            sum_start,
            sum_start + round.coordinator_seconds,
        );
        self.rec.exit();
        self.counts.exec_wall_s += round.wall_seconds;
        self.counts.exec_coordinator_s += round.coordinator_seconds;
        self.counts.exec_modeled_runtime_s += round.runtime_seconds();
        self.counts.exec_modeled_network_s += round.modeled_network_seconds;
        round.results
    }

    /// `SocketCluster::round` (workers compute and encode, the supervisor
    /// reads and decodes), then the coordinator's sum in machine order.
    fn round_over_socket(
        &mut self,
        sock: &SocketCluster,
        missing: &[NodeId],
        checks: &mut Checks,
    ) -> Vec<SparseVector> {
        let id = self.rec.enter(SOCKET_ROUND);
        let replies = sock.round(missing, &ResilienceConfig::default());
        self.rec.exit();
        self.counts.socket_wall_s += self.rec.spans()[id].seconds();

        let mut per_machine: Vec<Vec<SparseVector>> = Vec::with_capacity(replies.len());
        let mut max_compute = 0.0f64;
        let mut retried = false;
        for (m, reply) in replies.into_iter().enumerate() {
            match reply {
                Some(r) => {
                    max_compute = max_compute.max(r.compute_seconds);
                    retried |= r.attempts > 1;
                    per_machine.push(r.vectors);
                }
                None => {
                    // The real server falls back to a local compute here;
                    // so does the pipeline, and the run counts a failure.
                    checks.check(false, || {
                        format!("machine {m} never answered a traced round")
                    });
                    per_machine.push(self.index_vectors(missing, m as u32));
                }
            }
        }
        self.counts.socket_max_compute_s += max_compute;
        self.counts.socket_retried_rounds += u64::from(retried);

        self.rec.enter(COORDINATOR_SUM);
        let results = (0..missing.len())
            .map(|qi| {
                for vs in &per_machine {
                    self.scratch.scatter(&vs[qi], 1.0);
                }
                self.scratch.harvest()
            })
            .collect();
        self.rec.exit();
        results
    }

    fn index_vectors(&self, sources: &[NodeId], machine: u32) -> Vec<SparseVector> {
        use exact_ppr::cluster::DistributedQueryable;
        self.index
            .machine_vectors_into(sources, machine, &mut Scratch::new())
    }

    /// Responses from the per-source PPVs, kind by kind so that each kind
    /// is one span (assembly is per-request pure, so the order cannot
    /// change any answer).
    fn assemble(
        &mut self,
        requests: &[Request],
        fresh: &HashMap<NodeId, SparseVector>,
    ) -> Vec<Response> {
        self.rec.enter(ASSEMBLE);
        let mut out: Vec<Option<Response>> = vec![None; requests.len()];
        let cache = &self.cache;
        let resolve = |u: NodeId| {
            fresh
                .get(&u)
                .or_else(|| cache.peek(u))
                .expect("every source of the batch was probed or fetched")
        };

        self.rec.enter(ASSEMBLE_PPV);
        for (slot, req) in out.iter_mut().zip(requests) {
            if let Request::Ppv(u) = req {
                *slot = Some(Response::Ppv(resolve(*u).clone()));
            }
        }
        self.rec.exit();

        self.rec.enter(TOPK);
        for (slot, req) in out.iter_mut().zip(requests) {
            if let Request::TopK { source, k } = req {
                *slot = Some(Response::TopK(resolve(*source).top_k_early_cut(*k)));
                self.counts.topk += 1;
            }
        }
        self.rec.exit();

        self.rec.enter(PREFERENCE);
        for (slot, req) in out.iter_mut().zip(requests) {
            if let Request::Preference(pref) = req {
                for &(u, w) in pref {
                    self.scratch.scatter(resolve(u), w);
                }
                *slot = Some(Response::Ppv(self.scratch.harvest()));
                self.counts.preference += 1;
            }
        }
        self.rec.exit();

        self.rec.exit();
        out.into_iter()
            .map(|r| r.expect("every request kind was assembled"))
            .collect()
    }
}
