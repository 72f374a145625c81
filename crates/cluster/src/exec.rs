//! Query execution across simulated machines.
//!
//! The paper's query path is a single shape (Eq. 5/7, one communication
//! round): every machine computes its share from locally-stored vectors
//! (real, measured work), ships one reply vector per source to the
//! coordinator (counted in bytes), and the coordinator sums them in
//! machine order (real, measured work). This module spells that shape
//! out **once**, in the private `Cluster::round`; every public entry
//! point is a thin wrapper choosing *what* is asked and what happens
//! when a machine cannot answer:
//!
//! * [`Cluster::query`] / [`Cluster::query_preference`] /
//!   [`Cluster::query_batch`] — one source or one weighted preference
//!   set per round, the paper's per-query figures
//!   ([`ClusterQueryReport`]);
//! * [`Cluster::query_many`] — the serving-path round: a whole batch of
//!   distinct sources in one fan-out, amortizing the round latency and
//!   the per-machine scratch allocations (`ppr-serve` batches on top);
//! * [`Cluster::try_query_many`] — the same round, except that machine
//!   failures (scripted by a [`FaultPlan`] or real, over sockets) are
//!   *reported* in the [`FanoutOutcome`] instead of being computed
//!   around. The other entry points promise an exact answer, so for
//!   them a machine the transport could not reach is computed locally
//!   from the coordinator's own index copy — same bits.
//!
//! The round has one transport branch: an attached [`SocketCluster`]
//! with a matching machine count (real worker processes, measured frame
//! bytes), else the in-process `fan_out` (modeled wire, bytes from the
//! shared [`reply_frame_bytes`] formula, which pins the two equal). Both
//! yield the same per-machine replies, so everything downstream — the
//! statistics, the sum, the modeled network time — exists once and
//! answers are bit-identical across transports.
//!
//! The paper's headline metrics map to report fields:
//!
//! * "Runtime" (Figures 10/14/21/23…): [`ClusterQueryReport::runtime_seconds`]
//!   — maximum machine compute time, plus coordinator aggregation, as
//!   §6.2.2 reports ("the maximum runtime across all machines").
//! * "Communication Cost" (Figures 13/22…): total bytes received by the
//!   coordinator, [`ClusterQueryReport::total_bytes`].
//!
//! ## Modeled vs real concurrency
//!
//! Under [`ParallelismMode::Sequential`] (the default) in-process
//! machines execute one after another in the caller's thread, timed
//! individually, and concurrency is *modeled* by taking the max of the
//! per-machine times — the only measurement mode whose per-machine
//! numbers reflect dedicated hardware on a shared (possibly single-core)
//! host. Under [`ParallelismMode::Threads`] the fan-out is *real*: one
//! scoped worker thread per simulated machine (up to the worker cap),
//! each with its own reusable [`Scratch`] arena, so
//! [`ClusterQueryReport::wall_seconds`] approaches the slowest machine's
//! time on a host with enough cores. Replies are bit-identical either
//! way: machines share nothing but the read-only index and the
//! coordinator always sums in machine order.

use crate::fault::{simulate_attempts, FanoutOutcome, FaultPlan, MachineOutcome, ResilienceConfig};
use crate::socket::{MachineReply, RoundKind, SocketCluster};
use crate::{ClusterConfig, NetworkModel, ParallelismMode};
use ppr_core::hgpa::HgpaIndex;
use ppr_core::{Scratch, SparseVector};
use ppr_graph::NodeId;
use ppr_core::parallel::Stopwatch;
use ppr_wire::reply_frame_bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Anything the cluster can serve queries from: an index whose per-machine
/// reply vectors sum to the exact PPV.
pub trait DistributedQueryable: Sync {
    /// Number of machines the index was built for.
    fn machines(&self) -> usize;
    /// Number of graph nodes.
    fn node_count(&self) -> usize;

    /// The reply vector machine `machine` computes for a weighted
    /// preference-set query (linearity; a single source is the set
    /// `[(u, 1.0)]`), accumulated through a caller-owned [`Scratch`]
    /// arena so a fan-out worker pays the O(n) dense allocation once per
    /// round rather than once per source.
    fn machine_vector_preference_into(
        &self,
        preference: &[(NodeId, f64)],
        machine: u32,
        scratch: &mut Scratch,
    ) -> SparseVector;

    /// Reply vectors machine `machine` computes for a batch of distinct
    /// sources — one fan-out round, one reply vector *per source* (unlike
    /// [`DistributedQueryable::machine_vector_preference_into`], which
    /// folds a weighted set into a single combined reply), all
    /// accumulated through the one caller-owned [`Scratch`] arena.
    fn machine_vectors_into(
        &self,
        sources: &[NodeId],
        machine: u32,
        scratch: &mut Scratch,
    ) -> Vec<SparseVector> {
        sources
            .iter()
            .map(|&u| self.machine_vector_preference_into(&[(u, 1.0)], machine, scratch))
            .collect()
    }
}

impl DistributedQueryable for HgpaIndex {
    fn machines(&self) -> usize {
        HgpaIndex::machines(self)
    }
    fn node_count(&self) -> usize {
        HgpaIndex::node_count(self)
    }
    fn machine_vector_preference_into(
        &self,
        preference: &[(NodeId, f64)],
        machine: u32,
        scratch: &mut Scratch,
    ) -> SparseVector {
        HgpaIndex::machine_vector_preference_into(self, preference, machine, scratch)
    }
}

/// Per-machine execution record for one round.
#[derive(Clone, Copy, Debug, Default)]
pub struct MachineStats {
    /// Seconds this machine spent computing its reply (real). The maximum
    /// across machines is the per-machine component of the paper's
    /// "runtime" metric (Figures 10/14/21/23).
    pub compute_seconds: f64,
    /// Bytes of the reply frame (serialized size); summed over machines
    /// this is the paper's "communication cost" (Figures 13/22).
    pub bytes_sent: u64,
    /// Entries in the reply vectors (the nnz behind `bytes_sent`).
    pub entries: usize,
}

fn max_machine_seconds(machines: &[MachineStats]) -> f64 {
    machines
        .iter()
        .map(|m| m.compute_seconds)
        .fold(0.0, f64::max)
}

/// Everything measured for one single-result round ([`Cluster::query`],
/// [`Cluster::query_preference`]): the one-result view of a
/// [`ClusterBatchReport`].
#[derive(Clone, Debug)]
pub struct ClusterQueryReport {
    /// The exact PPV (sum of machine replies).
    pub result: SparseVector,
    /// Per-machine records (one entry per simulated machine).
    pub machines: Vec<MachineStats>,
    /// Seconds the coordinator spent summing replies (real) — the second
    /// component of the paper's "runtime" (§6.2.2: machines compute, then
    /// "the server aggregates the received vectors").
    pub coordinator_seconds: f64,
    /// Modeled wire time for the single communication round (the paper's
    /// 100 Mbps switch, §6.1). Not part of `runtime_seconds` — the paper
    /// reports compute runtime and communication *bytes* separately; this
    /// field only feeds `modeled_end_to_end_seconds`.
    pub modeled_network_seconds: f64,
    /// Real elapsed seconds of the whole round in this process (fan-out
    /// plus coordinator sum). Under [`ParallelismMode::Sequential`] this
    /// is ≈ the *sum* of machine times; under
    /// [`ParallelismMode::Threads`] with enough cores it approaches the
    /// *max* — the wall-clock counterpart of the modeled
    /// [`ClusterQueryReport::runtime_seconds`].
    pub wall_seconds: f64,
}

impl ClusterQueryReport {
    /// The paper's "runtime": max machine compute + coordinator time.
    pub fn runtime_seconds(&self) -> f64 {
        self.max_machine_seconds() + self.coordinator_seconds
    }

    /// Maximum per-machine compute time.
    pub fn max_machine_seconds(&self) -> f64 {
        max_machine_seconds(&self.machines)
    }

    /// Total bytes the coordinator received — the paper's communication
    /// cost metric.
    pub fn total_bytes(&self) -> u64 {
        self.machines.iter().map(|m| m.bytes_sent).sum()
    }

    /// Modeled end-to-end latency: slowest machine, then the wire, then
    /// the coordinator's aggregation.
    pub fn modeled_end_to_end_seconds(&self) -> f64 {
        self.max_machine_seconds() + self.modeled_network_seconds + self.coordinator_seconds
    }
}

/// Everything measured for one fan-out round: one result per requested
/// source, the round's costs amortized over the whole batch, and the
/// [`FanoutOutcome`] saying which machines answered. An all-answered
/// outcome *is* the healthy case — [`Cluster::query_many`] always
/// returns one; [`Cluster::try_query_many`] may not.
#[derive(Clone, Debug)]
pub struct ClusterBatchReport {
    /// Per-source sums over the machines that answered, in machine
    /// order. Exact PPVs iff [`ClusterBatchReport::complete`]; partial
    /// sums otherwise (the serving layer must not treat them as answers).
    pub results: Vec<SparseVector>,
    /// Which machines answered, with their modeled delivery timelines.
    pub outcome: FanoutOutcome,
    /// Per-machine compute/traffic records for the whole batch (a
    /// machine whose scripted reply was lost still computed; one the
    /// socket transport never reached records zeros).
    pub machines: Vec<MachineStats>,
    /// Seconds the coordinator spent summing delivered replies (real).
    pub coordinator_seconds: f64,
    /// Modeled wire time for the *delivered* bytes of the round.
    pub modeled_network_seconds: f64,
    /// Extra modeled delay attributable to the fault plan (deadline
    /// waits, backoff, straggling) beyond a fault-free round. Exactly
    /// `0.0` when no fault was scripted — real socket faults are
    /// measured in `wall_seconds`, not modeled.
    pub modeled_fault_seconds: f64,
    /// Real elapsed seconds of the whole batched round in this process
    /// (see [`ClusterQueryReport::wall_seconds`]).
    pub wall_seconds: f64,
}

impl ClusterBatchReport {
    /// Batch runtime under the paper's metric: max machine compute +
    /// coordinator aggregation (one round for the whole batch).
    pub fn runtime_seconds(&self) -> f64 {
        max_machine_seconds(&self.machines) + self.coordinator_seconds
    }

    /// Did every machine answer (making `results` exact PPVs)?
    pub fn complete(&self) -> bool {
        self.outcome.complete()
    }

    /// Bytes that actually reached the coordinator for the batch.
    pub fn total_bytes(&self) -> u64 {
        self.machines
            .iter()
            .zip(&self.outcome.machines)
            .filter(|(_, o)| o.answered)
            .map(|(s, _)| s.bytes_sent)
            .sum()
    }

    fn into_single(mut self) -> ClusterQueryReport {
        ClusterQueryReport {
            // A preference round owes exactly one vector per machine.
            result: self.results.pop().unwrap_or_default(),
            machines: self.machines,
            coordinator_seconds: self.coordinator_seconds,
            modeled_network_seconds: self.modeled_network_seconds,
            wall_seconds: self.wall_seconds,
        }
    }
}

/// What a round does about a machine that could not answer — the one
/// behavioural difference between the entry points.
#[derive(Clone, Copy, PartialEq)]
enum OnMissing {
    /// The caller was promised an exact answer: the fault plan is not
    /// consulted (a scripted loss would be recomputed to the same bits
    /// anyway) and a machine the socket transport exhausted its attempts
    /// on is computed by the coordinator from its own index copy.
    ComputeLocally,
    /// Failures, scripted or real, are reported in the
    /// [`FanoutOutcome`]; the serving layer's degrade path owns the
    /// decision. These rounds advance the fail-window round counter.
    Report,
}

/// Run `compute` for machines `0..machines`, returning per-machine
/// `(reply, measured seconds)` in machine order.
///
/// In the sequential (measurement) mode each machine gets a **fresh**
/// [`Scratch`] arena allocated inside its timed region: every machine
/// pays the same O(n) allocation a dedicated machine would, so
/// per-machine times stay comparable (the §6.2.2 max would otherwise be
/// biased toward whichever machine ran first). Scratch reuse still
/// amortizes *within* a machine's batch of sources. In the threaded
/// (serving) mode each worker owns one arena reused across all machines
/// it executes — per-machine times there are throughput-oriented, not
/// measurement-grade. Machines are dealt to workers round-robin; results
/// are reassembled by machine index, so the output — and everything the
/// coordinator derives from it — is independent of scheduling.
fn fan_out<T, F>(machines: usize, mode: ParallelismMode, compute: F) -> Vec<(T, f64)>
where
    T: Send,
    F: Fn(u32, &mut Scratch) -> T + Sync,
{
    let workers = mode.workers().min(machines.max(1));
    if workers <= 1 {
        return (0..machines as u32)
            .map(|m| {
                let t = Stopwatch::start();
                let mut scratch = Scratch::new();
                let v = compute(m, &mut scratch);
                (v, t.elapsed_seconds())
            })
            .collect();
    }

    let mut slots: Vec<Option<(T, f64)>> = (0..machines).map(|_| None).collect();
    let compute = &compute;
    let outputs: Vec<Vec<(usize, T, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut scratch = Scratch::new();
                    (w..machines)
                        .step_by(workers)
                        .map(|m| {
                            let t = Stopwatch::start();
                            let v = compute(m as u32, &mut scratch);
                            (m, v, t.elapsed_seconds())
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            // audit:allow(serve-panic): join only fails if the worker already
            // panicked; propagating beats hiding the poisoned round
            .map(|h| h.join().expect("machine worker thread"))
            .collect()
    });
    for (m, v, secs) in outputs.into_iter().flatten() {
        slots[m] = Some((v, secs));
    }
    slots
        .into_iter()
        // audit:allow(serve-panic): the round-robin deal covers every machine
        // index exactly once, so each slot is filled
        .map(|s| s.expect("every machine computed"))
        .collect()
}

/// The simulated cluster: a thin executor over a distributed index.
pub struct Cluster {
    network: NetworkModel,
    parallelism: ParallelismMode,
    plan: FaultPlan,
    resilience: ResilienceConfig,
    /// Monotone resilient fan-out round counter — the epoch axis
    /// [`Fault::Fail`](crate::fault::Fault::Fail) windows are scripted
    /// in. Only [`Cluster::try_query_many`] advances it; the plain query
    /// paths ignore it entirely.
    round: AtomicU64,
    /// Real multi-process transport, when attached. `None` (the default)
    /// keeps every fan-out on the modeled in-process path.
    socket: Option<Arc<SocketCluster>>,
}

impl Cluster {
    /// Create a cluster with the given configuration. The machine count is
    /// taken from the index at query time (indexes are built for a fixed
    /// machine count); `config.machines` is validated against it.
    pub fn new(config: ClusterConfig) -> Self {
        Self::with_faults(config, FaultPlan::empty(), ResilienceConfig::default())
    }

    /// A cluster with a scripted [`FaultPlan`] and the resilience policy
    /// that responds to it. With an empty plan this is exactly
    /// [`Cluster::new`].
    pub fn with_faults(
        config: ClusterConfig,
        plan: FaultPlan,
        resilience: ResilienceConfig,
    ) -> Self {
        Self {
            network: config.network,
            parallelism: config.parallelism,
            plan,
            resilience,
            round: AtomicU64::new(0),
            socket: None,
        }
    }

    /// Route fan-outs over a real multi-process [`SocketCluster`] instead
    /// of the in-process modeled machines. Answers stay bit-identical
    /// (workers compute the same shares from the same index and the
    /// coordinator sums in the same machine order); byte counts switch
    /// from the shared frame formula to *measured* frame sizes — which
    /// the formula pins equal. Fan-outs fall back to the modeled path if
    /// the socket cluster's machine count doesn't match the index.
    pub fn attach_socket(&mut self, socket: Arc<SocketCluster>) {
        self.socket = Some(socket);
    }

    /// Detach the socket transport, returning every fan-out to the
    /// modeled in-process path.
    pub fn detach_socket(&mut self) -> Option<Arc<SocketCluster>> {
        self.socket.take()
    }

    /// The attached socket transport, if any.
    pub fn socket(&self) -> Option<&Arc<SocketCluster>> {
        self.socket.as_ref()
    }

    /// Default cluster (paper's network model, sequential machines).
    pub fn with_default_network() -> Self {
        Self::new(ClusterConfig::default())
    }

    /// How this cluster executes machine fan-outs.
    pub fn parallelism(&self) -> ParallelismMode {
        self.parallelism
    }

    /// Replace the fault plan (the round counter keeps advancing — fail
    /// windows are absolute on this cluster's round axis).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// The active fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Replace the resilience policy.
    pub fn set_resilience(&mut self, resilience: ResilienceConfig) {
        self.resilience = resilience;
    }

    /// The active resilience policy.
    pub fn resilience(&self) -> ResilienceConfig {
        self.resilience
    }

    /// Resilient fan-out rounds started so far.
    pub fn rounds_started(&self) -> u64 {
        self.round.load(Ordering::Relaxed)
    }

    /// Execute one query: fan out to the machines, gather, sum.
    pub fn query<I: DistributedQueryable>(&self, index: &I, u: NodeId) -> ClusterQueryReport {
        self.query_preference(index, &[(u, 1.0)])
    }

    /// Execute a weighted preference-set query (the paper's general `P`):
    /// still one communication round — each machine folds every preference
    /// member into its single reply. Always exact.
    pub fn query_preference<I: DistributedQueryable>(
        &self,
        index: &I,
        preference: &[(NodeId, f64)],
    ) -> ClusterQueryReport {
        self.round(
            index,
            RoundKind::Preference(preference),
            OnMissing::ComputeLocally,
        )
        .into_single()
    }

    /// Run a batch of queries, returning per-query reports.
    ///
    /// Each query is an independent fan-out round — this measures the
    /// paper's per-query figures. For the serving path, where one round
    /// should answer many sources at once, use [`Cluster::query_many`].
    pub fn query_batch<I: DistributedQueryable>(
        &self,
        index: &I,
        queries: &[NodeId],
    ) -> Vec<ClusterQueryReport> {
        queries.iter().map(|&u| self.query(index, u)).collect()
    }

    /// Answer a batch of **distinct** sources in one fan-out round.
    ///
    /// Each machine computes one reply vector per source (Eq. 5/7 — the
    /// per-source shares that, summed over machines, give each exact PPV)
    /// and ships them all in a single message, so the round's latency and
    /// each machine's scratch allocations amortize across the batch. The
    /// coordinator then sums per source. Sources must be distinct — the
    /// caller (e.g. `ppr-serve`) dedupes so repeated sources are computed
    /// once. Always exact: the report is [`ClusterBatchReport::complete`].
    pub fn query_many<I: DistributedQueryable>(
        &self,
        index: &I,
        sources: &[NodeId],
    ) -> ClusterBatchReport {
        self.round(
            index,
            RoundKind::Sources(sources),
            OnMissing::ComputeLocally,
        )
    }

    /// [`Cluster::query_many`] with failures *reported*: in process, each
    /// machine's reply is pushed through the active [`FaultPlan`]'s
    /// modeled delivery timeline (deadlines, retries, hedging — see
    /// [`crate::fault`]) and may fail to arrive; over sockets the faults
    /// are real (worker crashes, timeouts) and the plan is ignored. The
    /// coordinator sums whatever arrived, **in machine order**, so with
    /// an empty plan and a healthy fleet the results are bit-identical to
    /// [`Cluster::query_many`] — same machines, same order, same
    /// arithmetic.
    ///
    /// When [`ClusterBatchReport::complete`] is false the partial sums in
    /// `results` are *not* exact PPVs; the serving layer decides whether
    /// to degrade to an approximate answer or retry the round later.
    /// Scripted fault decisions run entirely on modeled time derived from
    /// reply entry counts — measured wall seconds are reported but never
    /// consulted, so a run replays bit-identically on any host.
    pub fn try_query_many<I: DistributedQueryable>(
        &self,
        index: &I,
        sources: &[NodeId],
    ) -> ClusterBatchReport {
        self.round(index, RoundKind::Sources(sources), OnMissing::Report)
    }

    /// The one fan-out round every entry point runs: gather one reply per
    /// machine over the active transport, account for it, sum in machine
    /// order.
    fn round<I: DistributedQueryable>(
        &self,
        index: &I,
        kind: RoundKind<'_>,
        on_missing: OnMissing,
    ) -> ClusterBatchReport {
        let t_round = Stopwatch::start();
        let machines = index.machines();
        let round = match on_missing {
            OnMissing::Report => self.round.fetch_add(1, Ordering::Relaxed),
            OnMissing::ComputeLocally => self.round.load(Ordering::Relaxed),
        };
        let compute = |m: u32, scratch: &mut Scratch| match kind {
            RoundKind::Sources(sources) => index.machine_vectors_into(sources, m, scratch),
            RoundKind::Preference(preference) => {
                vec![index.machine_vector_preference_into(preference, m, scratch)]
            }
        };
        let computed =
            |vectors: Vec<SparseVector>, compute_seconds: f64, attempts: u32| MachineReply {
                frame_bytes: reply_frame_bytes(&vectors),
                vectors,
                compute_seconds,
                attempts,
            };
        let max_attempts = self.resilience.max_attempts.max(1);

        // The transport: real worker processes, or in-process machines
        // whose replies are priced by the same frame formula.
        let socket = self
            .socket
            .as_deref()
            .filter(|sock| sock.machines() == machines);
        let mut replies: Vec<Option<MachineReply>> = match socket {
            Some(sock) => sock.round_of(kind, &self.resilience),
            None => fan_out(machines, self.parallelism, compute)
                .into_iter()
                .map(|(vectors, seconds)| Some(computed(vectors, seconds, 1)))
                .collect(),
        };
        if on_missing == OnMissing::ComputeLocally {
            for (m, reply) in replies.iter_mut().enumerate() {
                if reply.is_none() {
                    let t = Stopwatch::start();
                    let vectors = compute(m as u32, &mut Scratch::new());
                    *reply = Some(computed(vectors, t.elapsed_seconds(), max_attempts));
                }
            }
        }

        // Per-machine records and delivery outcomes. Scripted timelines
        // only exist in process and only under a non-empty plan: skipping
        // deadlines otherwise (a fault-free cluster has no reason to time
        // out its own machines) is what pins the resilient path to the
        // plain one.
        let scripted = on_missing == OnMissing::Report && socket.is_none() && !self.plan.is_empty();
        let mut stats: Vec<MachineStats> = Vec::with_capacity(machines);
        let mut outcomes: Vec<MachineOutcome> = Vec::with_capacity(machines);
        let mut healthy_round = 0.0f64;
        for (m, reply) in replies.iter().enumerate() {
            let Some(r) = reply else {
                stats.push(MachineStats::default());
                outcomes.push(MachineOutcome {
                    answered: false,
                    attempts: max_attempts,
                    hedged: false,
                    reply_seconds: 0.0,
                });
                continue;
            };
            let entries = r.vectors.iter().map(SparseVector::nnz).sum();
            let service = self.resilience.modeled_service_seconds(entries);
            let wire = self.network.one_way_seconds(r.frame_bytes);
            healthy_round = healthy_round.max(service + wire);
            stats.push(MachineStats {
                compute_seconds: r.compute_seconds,
                bytes_sent: r.frame_bytes,
                entries,
            });
            outcomes.push(if scripted {
                simulate_attempts(&self.plan, &self.resilience, m, round, service, wire)
            } else {
                MachineOutcome {
                    answered: true,
                    attempts: r.attempts,
                    hedged: false,
                    reply_seconds: service + wire,
                }
            });
        }

        // Coordinator: sum the *delivered* replies per source into one
        // dense scratch, in machine order. An incomplete round's partial
        // sums are reported but never exact.
        let t = Stopwatch::start();
        let mut scratch = Scratch::with_len(index.node_count());
        let mut results = Vec::with_capacity(kind.expected_vectors());
        for qi in 0..kind.expected_vectors() {
            for (reply, o) in replies.iter().zip(&outcomes) {
                if let (Some(r), true) = (reply, o.answered) {
                    scratch.scatter(&r.vectors[qi], 1.0);
                }
            }
            results.push(scratch.harvest());
        }
        let coordinator_seconds = t.elapsed_seconds();

        let outcome = FanoutOutcome {
            round,
            machines: outcomes,
        };
        // Extra modeled delay attributable to the plan: the faulty round
        // timeline vs what the same replies would have taken fault-free.
        let modeled_fault_seconds = if scripted {
            (outcome.modeled_round_seconds() - healthy_round).max(0.0)
        } else {
            0.0
        };
        let mut report = ClusterBatchReport {
            results,
            outcome,
            machines: stats,
            coordinator_seconds,
            modeled_network_seconds: 0.0,
            modeled_fault_seconds,
            wall_seconds: 0.0,
        };
        report.modeled_network_seconds = self
            .network
            .receive_seconds(report.total_bytes(), report.outcome.answered());
        report.wall_seconds = t_round.elapsed_seconds();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_core::gpa::{self, GpaBuildOptions};
    use ppr_core::hgpa::{HgpaBuildOptions, HgpaIndex};
    use ppr_core::PprConfig;
    use ppr_graph::generators::{hierarchical_sbm, HsbmConfig};
    use ppr_graph::CsrGraph;
    use ppr_partition::HierarchyConfig;

    fn sample() -> CsrGraph {
        hierarchical_sbm(
            &HsbmConfig {
                nodes: 250,
                depth: 4,
                locality: 0.9,
                ..Default::default()
            },
            42,
        )
    }

    fn cfg() -> PprConfig {
        PprConfig {
            epsilon: 1e-8,
            ..Default::default()
        }
    }

    #[test]
    fn cluster_query_equals_centralized_hgpa() {
        let g = sample();
        let idx = HgpaIndex::build(
            &g,
            &cfg(),
            &HgpaBuildOptions {
                machines: 4,
                hierarchy: HierarchyConfig {
                    max_leaf_size: 16,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let cluster = Cluster::with_default_network();
        for u in [0u32, 100, 249] {
            let report = cluster.query(&idx, u);
            let central = idx.query(u);
            assert_eq!(report.machines.len(), 4);
            for v in 0..250u32 {
                assert!(
                    (report.result.get(v) - central.get(v)).abs() < 1e-12,
                    "u {u} v {v}"
                );
            }
        }
    }

    #[test]
    fn cluster_query_equals_centralized_gpa() {
        let g = sample();
        let idx = gpa::build(
            &g,
            &cfg(),
            &GpaBuildOptions {
                machines: 3,
                ..Default::default()
            },
        )
        .0;
        let cluster = Cluster::with_default_network();
        let report = cluster.query(&idx, 77);
        let central = idx.query(77);
        for v in 0..250u32 {
            assert!((report.result.get(v) - central.get(v)).abs() < 1e-12);
        }
    }

    #[test]
    fn communication_counts_are_positive_and_bounded() {
        let g = sample();
        let idx = HgpaIndex::build(
            &g,
            &cfg(),
            &HgpaBuildOptions {
                machines: 5,
                ..Default::default()
            },
        );
        let cluster = Cluster::with_default_network();
        let report = cluster.query(&idx, 10);
        let total = report.total_bytes();
        assert!(total > 0);
        // Theorem 4: O(n|V|) — each machine ships at most a |V|-vector
        // (frame envelope + ≤10 bytes/entry is under the old 12-byte/
        // entry budget for any nontrivial vector).
        assert!(total <= 5 * (8 + 12 * 250));
        assert!(report.modeled_network_seconds > 0.0);
        assert!(report.runtime_seconds() > 0.0);
    }

    #[test]
    fn more_machines_more_total_bytes() {
        // Figure 13's trend: communication grows with machine count.
        let g = sample();
        let cluster = Cluster::with_default_network();
        let mut last = 0u64;
        for machines in [2usize, 6, 10] {
            let idx = HgpaIndex::build(
                &g,
                &cfg(),
                &HgpaBuildOptions {
                    machines,
                    hierarchy: HierarchyConfig {
                        max_leaf_size: 16,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            // Average over a few queries for stability.
            let total: u64 = [5u32, 50, 150]
                .iter()
                .map(|&u| cluster.query(&idx, u).total_bytes())
                .sum();
            assert!(total >= last, "bytes should not shrink with machines");
            last = total;
        }
    }

    #[test]
    fn query_many_matches_per_query_fanout() {
        let g = sample();
        let cluster = Cluster::with_default_network();
        let sources = [0u32, 42, 100, 249];
        for machines in [1usize, 4] {
            let idx = HgpaIndex::build(
                &g,
                &cfg(),
                &HgpaBuildOptions {
                    machines,
                    hierarchy: HierarchyConfig {
                        max_leaf_size: 16,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            let batch = cluster.query_many(&idx, &sources);
            assert_eq!(batch.results.len(), sources.len());
            assert_eq!(batch.machines.len(), machines);
            assert!(batch.total_bytes() > 0);
            assert!(batch.runtime_seconds() > 0.0);
            for (i, &u) in sources.iter().enumerate() {
                let single = cluster.query(&idx, u).result;
                for v in 0..250u32 {
                    assert!(
                        (batch.results[i].get(v) - single.get(v)).abs() < 1e-12,
                        "machines {machines} u {u} v {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn query_many_single_message_per_machine() {
        // The batched round ships the same vectors as per-query rounds
        // but in one *frame* per machine, so the batch saves exactly one
        // frame envelope (header + round/machine/compute fields + the
        // vector-count varint) per machine per extra query. With 2
        // queries over 3 machines that's 3 envelopes of 13+8+4+8+1
        // bytes; the vector payloads themselves are byte-identical.
        let g = sample();
        let idx = gpa::build(
            &g,
            &cfg(),
            &GpaBuildOptions {
                machines: 3,
                ..Default::default()
            },
        )
        .0;
        let cluster = Cluster::with_default_network();
        let sources = [7u32, 90];
        let batch = cluster.query_many(&idx, &sources);
        let per_query: u64 = sources
            .iter()
            .map(|&u| cluster.query(&idx, u).total_bytes())
            .sum();
        assert!(batch.total_bytes() < per_query);
        assert_eq!(per_query - batch.total_bytes(), 3 * (13 + 8 + 4 + 8 + 1));
        let per_round_latency: f64 = sources
            .iter()
            .map(|&u| cluster.query(&idx, u).modeled_network_seconds)
            .sum();
        assert!(batch.modeled_network_seconds < per_round_latency);
    }

    #[test]
    fn threaded_fanout_is_bit_identical_to_sequential() {
        let g = sample();
        let idx = HgpaIndex::build(
            &g,
            &cfg(),
            &HgpaBuildOptions {
                machines: 5,
                hierarchy: HierarchyConfig {
                    max_leaf_size: 16,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let sequential = Cluster::with_default_network();
        assert_eq!(sequential.parallelism(), ParallelismMode::Sequential);
        // Worker counts below, at, and above the machine count.
        for workers in [2usize, 5, 9] {
            let threaded = Cluster::new(ClusterConfig {
                parallelism: ParallelismMode::Threads(workers),
                ..ClusterConfig::default()
            });
            let sources = [0u32, 42, 100, 249];
            let a = sequential.query_many(&idx, &sources);
            let b = threaded.query_many(&idx, &sources);
            assert_eq!(a.results, b.results, "workers {workers}");
            assert_eq!(a.total_bytes(), b.total_bytes());
            assert!(b.wall_seconds > 0.0);
            let pref = [(3u32, 0.25), (200u32, 0.75)];
            assert_eq!(
                sequential.query_preference(&idx, &pref).result,
                threaded.query_preference(&idx, &pref).result,
                "workers {workers}"
            );
        }
    }

    #[test]
    fn wall_clock_is_reported_alongside_modeled_runtime() {
        let g = sample();
        let idx = gpa::build(&g, &cfg(), &GpaBuildOptions::default()).0;
        let cluster = Cluster::with_default_network();
        let report = cluster.query(&idx, 11);
        // Sequentially, the whole round's wall clock dominates any single
        // machine's measured time; both numbers coexist in the report.
        assert!(report.wall_seconds >= report.max_machine_seconds());
        assert!(report.runtime_seconds() > 0.0);
    }

    #[test]
    fn batch_runs_all_queries() {
        let g = sample();
        let idx = gpa::build(&g, &cfg(), &GpaBuildOptions::default()).0;
        let cluster = Cluster::new(ClusterConfig::default());
        let reports = cluster.query_batch(&idx, &[1, 2, 3]);
        assert_eq!(reports.len(), 3);
        for r in reports {
            assert!(!r.result.is_empty());
        }
    }

    fn hgpa_idx(machines: usize) -> HgpaIndex {
        HgpaIndex::build(
            &sample(),
            &cfg(),
            &HgpaBuildOptions {
                machines,
                hierarchy: HierarchyConfig {
                    max_leaf_size: 16,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn resilient_fanout_with_empty_plan_is_bit_identical() {
        let idx = hgpa_idx(4);
        let cluster = Cluster::with_default_network();
        let sources = [0u32, 42, 100, 249];
        let plain = cluster.query_many(&idx, &sources);
        let resilient = cluster.try_query_many(&idx, &sources);
        assert!(resilient.complete());
        assert_eq!(plain.results, resilient.results);
        assert_eq!(plain.total_bytes(), resilient.total_bytes());
        assert_eq!(
            plain.modeled_network_seconds,
            resilient.modeled_network_seconds
        );
        assert_eq!(resilient.modeled_fault_seconds, 0.0);
        for o in &resilient.outcome.machines {
            assert!(o.answered);
            assert_eq!(o.attempts, 1);
            assert!(!o.hedged);
        }
        // Rounds advance per resilient call only.
        assert_eq!(cluster.rounds_started(), 1);
        cluster.query_many(&idx, &sources);
        assert_eq!(cluster.rounds_started(), 1);
    }

    #[test]
    fn failed_machine_is_reported_missing_and_excluded_from_sums() {
        let idx = hgpa_idx(4);
        let exact = Cluster::with_default_network().query_many(&idx, &[42u32]);
        let cluster = Cluster::with_faults(
            ClusterConfig::default(),
            FaultPlan::empty().fail(2, 0, 100),
            ResilienceConfig::default(),
        );
        let r = cluster.try_query_many(&idx, &[42u32]);
        assert!(!r.complete());
        assert_eq!(r.outcome.missing(), vec![2]);
        assert!(r.modeled_fault_seconds > 0.0);
        assert!(r.total_bytes() < exact.total_bytes());
        // The partial sum is machine 2's share short of the exact PPV.
        let partial_mass: f64 = (0..250u32).map(|v| r.results[0].get(v)).sum();
        let exact_mass: f64 = (0..250u32).map(|v| exact.results[0].get(v)).sum();
        assert!(partial_mass < exact_mass);
    }

    #[test]
    fn transient_drops_are_rescued_by_retries() {
        let idx = hgpa_idx(4);
        let exact = Cluster::with_default_network().query_many(&idx, &[7u32, 200]);
        let cluster = Cluster::with_faults(
            ClusterConfig::default(),
            FaultPlan::empty().with_drops(0.2, 1234),
            ResilienceConfig {
                max_attempts: 6,
                ..ResilienceConfig::default()
            },
        );
        // At 20% per-attempt drops, 6 attempts exhaust with P = 0.2^6 per
        // delivery — across 80 deliveries nearly every round completes,
        // and any complete round must reproduce the exact sums bit for
        // bit. First-attempt drops (P = 0.2 each) make retries all but
        // certain somewhere in the run.
        let mut complete_rounds = 0usize;
        let mut retried = false;
        for _ in 0..20 {
            let r = cluster.try_query_many(&idx, &[7u32, 200]);
            if r.complete() {
                complete_rounds += 1;
                assert_eq!(r.results, exact.results);
                assert_eq!(r.total_bytes(), exact.total_bytes());
            }
            retried |= r.outcome.machines.iter().any(|o| o.attempts > 1);
        }
        assert!(complete_rounds >= 15, "only {complete_rounds}/20 complete");
        assert!(retried, "20% drops over 80 deliveries must retry at least once");
    }

    #[test]
    fn straggler_is_hedged_and_cheaper_than_unhedged() {
        let idx = hgpa_idx(4);
        let plan = || FaultPlan::empty().slow(1, 64.0);
        let hedged = Cluster::with_faults(
            ClusterConfig::default(),
            plan(),
            ResilienceConfig::default(),
        );
        let r = hedged.try_query_many(&idx, &[42u32]);
        assert!(r.complete());
        assert!(r.outcome.machines[1].hedged);
        let unhedged = Cluster::with_faults(
            ClusterConfig::default(),
            plan(),
            ResilienceConfig {
                hedge_after_factor: None,
                ..ResilienceConfig::default()
            },
        );
        let u = unhedged.try_query_many(&idx, &[42u32]);
        assert!(
            r.modeled_fault_seconds < u.modeled_fault_seconds,
            "hedging must cut the straggler's modeled delay ({} vs {})",
            r.modeled_fault_seconds,
            u.modeled_fault_seconds
        );
        // Both still deliver the exact sums: hedged replies are the same
        // bits, and a straggler past every deadline is simply excluded.
        assert_eq!(
            r.results,
            Cluster::with_default_network().query_many(&idx, &[42u32]).results
        );
    }
}
