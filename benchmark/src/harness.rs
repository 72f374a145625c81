//! What every workload shares: arguments, the seeded generators, the
//! fixed system configuration, set-up of index and worker fleet, process
//! hygiene and correctness checks.

use crate::spec;
use exact_ppr::cluster::{SocketCluster, SocketConfig};
use exact_ppr::core::hgpa::{HgpaBuildOptions, HgpaIndex};
use exact_ppr::core::parallel::{ParallelismMode, Stopwatch};
use exact_ppr::core::power::power_iteration;
use exact_ppr::core::{PprConfig, SparseVector};
use exact_ppr::graph::{CsrGraph, NodeId};
use exact_ppr::partition::{Hierarchy, HierarchyConfig};
use exact_ppr::serve::{CacheStats, DynamicPprServer, Request, Response, ServeConfig};
use exact_ppr::workload::Dataset;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One run's command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Results file the run's record is appended to.
    pub results: Option<PathBuf>,
    /// Started first thing in `main`: set-up time counts from here.
    pub started: Stopwatch,
}

// ------------------------------------------------------------ generators

/// splitmix64: the harness's only source of randomness, so a seed fixes
/// every generated input.
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Stream ids, so warm-up, measured and check inputs never coincide.
pub const STREAM_MEASURED: u64 = 1;
pub const STREAM_WARMUP: u64 = 2;
pub const STREAM_CHECK: u64 = 3;

/// Nodes a PPV query may start from (out-degree > 0).
pub fn queryable(graph: &CsrGraph) -> Vec<NodeId> {
    (0..graph.node_count() as NodeId)
        .filter(|&v| graph.out_degree(v) > 0)
        .collect()
}

/// A seeded request stream in batches of [`spec::BATCH`].
pub struct RequestStream {
    rng: Rng,
    nodes: Vec<NodeId>,
    /// Cumulative rank weights over `nodes`; empty = uniform.
    cdf: Vec<f64>,
    hot_mix: bool,
    issued: usize,
}

impl RequestStream {
    /// Uniform-random sources over all queryable nodes, 7 in 8 `Ppv`, 1 in
    /// 8 `TopK`.
    pub fn fresh(graph: &CsrGraph, seed: u64, stream: u64) -> Self {
        Self {
            rng: Rng::new(seed, stream),
            nodes: queryable(graph),
            cdf: Vec::new(),
            hot_mix: false,
            issued: 0,
        }
    }

    /// The graph's [`spec::HOT_SET`] most popular sources — popularity is
    /// out-degree, as in `ZipfQueryStream` — drawn with Zipf rank weights;
    /// per 10 requests 7 `Ppv`, 1 two-member `Preference`, 2 `TopK`. The
    /// seed drives the draws, not the membership: with Zipf(1.1) a fifth of
    /// all requests go to rank 1, so a seeded membership would make the
    /// work per request a property of the seed.
    pub fn hot(graph: &CsrGraph, seed: u64, stream: u64) -> Self {
        let mut pool = queryable(graph);
        pool.sort_unstable_by(|&a, &b| {
            graph
                .out_degree(b)
                .cmp(&graph.out_degree(a))
                .then(a.cmp(&b))
        });
        pool.truncate(spec::HOT_SET);
        let mut acc = 0.0;
        let cdf = (0..pool.len())
            .map(|rank| {
                acc += 1.0 / ((rank + 1) as f64).powf(spec::ZIPF);
                acc
            })
            .collect();
        Self {
            rng: Rng::new(seed, stream),
            nodes: pool,
            cdf,
            hot_mix: true,
            issued: 0,
        }
    }

    /// The sources this stream draws from, most popular first.
    pub fn support(&self) -> &[NodeId] {
        &self.nodes
    }

    pub fn next_source(&mut self) -> NodeId {
        if self.cdf.is_empty() {
            return self.nodes[self.rng.below(self.nodes.len())];
        }
        let x = self.rng.unit() * self.cdf[self.cdf.len() - 1];
        let rank = self.cdf.partition_point(|&c| c <= x);
        self.nodes[rank.min(self.nodes.len() - 1)]
    }

    pub fn next_request(&mut self) -> Request {
        let i = self.issued;
        self.issued += 1;
        let top_k = |source| Request::TopK {
            source,
            k: spec::TOP_K,
        };
        if self.hot_mix {
            match i % 10 {
                3 => {
                    let (a, b) = (self.next_source(), self.next_source());
                    Request::Preference(vec![(a, 0.6), (b, 0.4)])
                }
                6 | 9 => top_k(self.next_source()),
                _ => Request::Ppv(self.next_source()),
            }
        } else if i % 8 == 7 {
            top_k(self.next_source())
        } else {
            Request::Ppv(self.next_source())
        }
    }

    pub fn next_batch(&mut self) -> Vec<Request> {
        (0..spec::BATCH).map(|_| self.next_request()).collect()
    }
}

// --------------------------------------------------------- configuration

/// In-process fan-out and build parallelism: `Threads(min(nproc, 4))`.
pub fn threads() -> ParallelismMode {
    ParallelismMode::with_workers(host_cores().min(spec::MACHINES))
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

pub fn ppr_config() -> PprConfig {
    PprConfig {
        alpha: spec::ALPHA,
        epsilon: spec::EPSILON,
        ..Default::default()
    }
}

pub fn build_options() -> HgpaBuildOptions {
    HgpaBuildOptions {
        hierarchy: HierarchyConfig::default(),
        machines: spec::MACHINES,
        drop_threshold: None,
        parallelism: threads(),
    }
}

/// `ServeConfig` defaults (64 MiB PPV cache, one shard) with the
/// benchmark's batch size and fan-out parallelism.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: spec::BATCH,
        parallelism: threads(),
        ..Default::default()
    }
}

// ----------------------------------------------------------------- set-up

pub fn generate_graph() -> CsrGraph {
    Dataset::Web.generate_with_nodes(spec::NODES)
}

/// Partition `graph` and precompute the HGPA index over it.
pub fn build_index(graph: &CsrGraph) -> HgpaIndex {
    let opts = build_options();
    let hierarchy = Hierarchy::build(graph, &opts.hierarchy);
    HgpaIndex::build_distributed_with_hierarchy(graph, &ppr_config(), &opts, hierarchy).0
}

/// Set the system up [`spec::SETUP_REPS`] times (once in a traced run, which
/// does not report `setup_s`), each previous one torn down first. Returns
/// the last set-up and every repetition's seconds; the first counts from
/// process start.
pub fn set_up_repeatedly<T>(args: &Args, mut set_up: impl FnMut() -> T) -> (T, Vec<f64>) {
    let reps = if args.trace { 1 } else { spec::SETUP_REPS };
    let mut seconds = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let t = if rep == 0 {
            args.started
        } else {
            Stopwatch::start()
        };
        last = Some(set_up());
        seconds.push(t.elapsed_seconds());
    }
    (last.expect("at least one set-up"), seconds)
}

/// Whether one more batch of fresh PPVs would no longer fit the server's
/// cache: warm-up is over.
pub fn cache_is_full(server: &DynamicPprServer) -> bool {
    let resident = server.cache_bytes();
    let per_entry = resident / server.cache_len().max(1) as u64;
    resident + per_entry * spec::BATCH as u64 > serve_config().cache_capacity_bytes
}

/// Share of the cache lookups since `before` that hit.
pub fn hit_ratio_since(server: &DynamicPprServer, before: CacheStats) -> f64 {
    let now = server.cache_stats();
    let (hits, misses) = (now.hits - before.hits, now.misses - before.misses);
    hits as f64 / (hits + misses).max(1) as f64
}

/// `benchmark/out/` under the current directory (the checkout root),
/// where snapshots, traces and results go.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// A file removed when the guard drops — on success and on unwind.
pub struct TempFile(pub PathBuf);

impl TempFile {
    pub fn in_out_dir(stem: &str, extension: &str) -> Self {
        Self(out_dir().join(format!("{stem}-{}.{extension}", std::process::id())))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("pprx.tmp"));
    }
}

/// The four worker processes of the socket workloads: this binary
/// re-invoked as `worker`, cold-started from a snapshot under
/// `benchmark/out/`. Dropping the fleet stops and reaps every worker,
/// checks none is left, and removes the snapshot.
pub struct Fleet {
    pub sock: Arc<SocketCluster>,
    pub launch_s: f64,
    _snapshot: TempFile,
}

impl Fleet {
    pub fn launch(index: &HgpaIndex, graph: &CsrGraph) -> Self {
        let t = Stopwatch::start();
        let snapshot = TempFile::in_out_dir("snapshot", "pprx");
        let exe = std::env::current_exe().expect("path of this binary");
        let command = vec![exe.to_string_lossy().into_owned(), "worker".to_string()];
        let config = SocketConfig::new(spec::MACHINES, command, snapshot.0.clone());
        let sock = SocketCluster::launch(config, index, graph, 0).expect("launch worker fleet");
        Self {
            sock: Arc::new(sock),
            launch_s: t.elapsed_seconds(),
            _snapshot: snapshot,
        }
    }

    pub fn worker_pids(&self) -> Vec<u32> {
        self.sock.worker_pids().into_iter().flatten().collect()
    }

    /// Stop and reap every worker; returns how many are still alive
    /// afterwards (0 unless process hygiene is broken).
    pub fn stop(&self) -> usize {
        let pids = self.worker_pids();
        self.sock.shutdown();
        pids.iter()
            .filter(|pid| std::path::Path::new(&format!("/proc/{pid}")).exists())
            .count()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative steal time of all CPUs, in jiffies (`/proc/stat`): time the
/// hypervisor ran something else while this VM had work to do.
pub fn steal_jiffies() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Most steal (jiffies) a measured piece may have seen and still count as
/// undisturbed. A quiet host shows about one jiffy every ten seconds.
pub const QUIET_STEAL_JIFFIES: u64 = 1;
/// Fewest undisturbed pieces worth taking a median over.
pub const MIN_UNDISTURBED: usize = 3;

/// Which measured pieces to take a run's numbers from, given the steal
/// each saw: the undisturbed ones — or all, when fewer than
/// [`MIN_UNDISTURBED`] were (a host that is noisy throughout is reported as
/// it is). Steal is the hypervisor's doing, not the program's, and on a
/// 2-vCPU guest a few stolen milliseconds stall a whole fan-out round.
pub fn undisturbed(steal: &[u64]) -> Vec<bool> {
    let clean: Vec<bool> = steal.iter().map(|&s| s <= QUIET_STEAL_JIFFIES).collect();
    if clean.iter().filter(|&&c| c).count() >= MIN_UNDISTURBED {
        clean
    } else {
        vec![true; steal.len()]
    }
}

// ---------------------------------------------------------------- SIGINT

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_signal: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// Turn Ctrl-C into an unwind at the next [`check_interrupt`], so guards
/// drop: workers are reaped and temp files removed.
pub fn install_sigint_handler() {
    const SIGINT: i32 = 2;
    // SAFETY: `signal` is the C library's; the handler only stores to an
    // atomic, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

/// Called between operations of every measured loop.
pub fn check_interrupt() {
    if INTERRUPTED.load(Ordering::SeqCst) {
        panic!("interrupted");
    }
}

// ------------------------------------------------------ correctness checks

/// Operations attempted and failed, plus violated run-level conditions.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Checks {
    /// Count `n` operations that completed.
    pub fn served(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Count one checked operation; a wrong one fails and says why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// A condition of the whole run (layer separation, hygiene).
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("VIOLATED: {what}");
            self.violations.push(what);
        }
    }
}

pub fn vectors_bit_identical(a: &SparseVector, b: &SparseVector) -> bool {
    a.nnz() == b.nnz()
        && a.iter()
            .zip(b.iter())
            .all(|((i, x), (j, y))| i == j && x.to_bits() == y.to_bits())
}

pub fn responses_bit_identical(a: &[Response], b: &[Response]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(a, b)| match (a, b) {
            (Response::Ppv(a), Response::Ppv(b)) => vectors_bit_identical(a, b),
            (Response::TopK(a), Response::TopK(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
            }
            _ => false,
        })
}

/// The ε-contract of `tests/exactness.rs`: every entry of `ppv` within
/// `2ε/α` of power iteration run to 1e-12 on `graph`.
pub fn within_epsilon_contract(graph: &CsrGraph, source: NodeId, ppv: &SparseVector) -> bool {
    let truth_cfg = PprConfig {
        alpha: spec::ALPHA,
        epsilon: 1e-12,
        ..Default::default()
    };
    let truth = power_iteration(graph, source, &truth_cfg);
    let bound = 2.0 * spec::EPSILON / spec::ALPHA;
    truth
        .iter()
        .enumerate()
        .all(|(v, &t)| (ppv.get(v as NodeId) - t).abs() <= bound)
}

/// Check answered `requests` against ground truth: every `Ppv` answer
/// meets the ε-contract, every `TopK` answer is the top-k of its source's
/// `Ppv` answer (`ppv_of` supplies it), every `Preference` answer is
/// within the contract of the weighted sum of its members' truths.
pub fn check_answers(
    checks: &mut Checks,
    graph: &CsrGraph,
    requests: &[Request],
    responses: &[Response],
    mut ppv_of: impl FnMut(NodeId) -> SparseVector,
) {
    checks.check(requests.len() == responses.len(), || {
        format!(
            "{} requests got {} responses",
            requests.len(),
            responses.len()
        )
    });
    for (req, resp) in requests.iter().zip(responses) {
        match (req, resp) {
            (Request::Ppv(u), Response::Ppv(v)) => {
                checks.check(within_epsilon_contract(graph, *u, v), || {
                    format!("PPV of {u} breaks the epsilon contract")
                });
            }
            (Request::TopK { source, k }, Response::TopK(top)) => {
                let want = ppv_of(*source).top_k(*k);
                let same = top.len() == want.len()
                    && top
                        .iter()
                        .zip(&want)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
                checks.check(same, || {
                    format!("top-{k} of {source} is not its PPV's top-{k}")
                });
            }
            (Request::Preference(pref), Response::Ppv(v)) => {
                let mut scratch = exact_ppr::core::Scratch::with_len(graph.node_count());
                for &(u, w) in pref {
                    scratch.scatter(&ppv_of(u), w);
                }
                checks.check(vectors_bit_identical(v, &scratch.harvest()), || {
                    format!("preference answer over {pref:?} is not the weighted sum of its PPVs")
                });
            }
            _ => checks.check(false, || format!("response kind does not match {req:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_reproducible_and_distinct() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 1), draw(1, 1));
        assert_ne!(draw(1, 1), draw(1, 2));
        assert_ne!(draw(1, 1), draw(2, 1));
        let mut r = Rng::new(5, 5);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn disturbed_pieces_are_dropped_only_when_enough_quiet_ones_remain() {
        assert_eq!(
            undisturbed(&[0, 1, 9, 0, 2]),
            [true, true, false, true, false]
        );
        assert_eq!(undisturbed(&[0, 0, 0]), [true, true, true]);
        // Two quiet pieces are too few: the run is reported as it is.
        assert_eq!(undisturbed(&[0, 5, 9, 0, 2]), [true; 5]);
        assert_eq!(undisturbed(&[]), Vec::<bool>::new());
    }

    #[test]
    fn request_mixes_have_the_stated_shares() {
        let g = Dataset::Web.generate_with_nodes(600);
        let count = |stream: &mut RequestStream, n: usize| {
            let (mut ppv, mut pref, mut topk) = (0, 0, 0);
            for _ in 0..n {
                match stream.next_request() {
                    Request::Ppv(_) => ppv += 1,
                    Request::Preference(p) => {
                        assert_eq!(p.len(), 2);
                        pref += 1;
                    }
                    Request::TopK { k, .. } => {
                        assert_eq!(k, spec::TOP_K);
                        topk += 1;
                    }
                }
            }
            (ppv, pref, topk)
        };
        assert_eq!(
            count(&mut RequestStream::fresh(&g, 1, STREAM_MEASURED), 800),
            (700, 0, 100)
        );
        let mut hot = RequestStream::hot(&g, 1, STREAM_MEASURED);
        assert_eq!(hot.support().len(), spec::HOT_SET);
        assert_eq!(count(&mut hot, 1000), (700, 100, 200));
        // Same seed, same requests; another seed, other requests over the
        // same hot set.
        let a = RequestStream::hot(&g, 1, STREAM_MEASURED).next_batch();
        assert_eq!(a, RequestStream::hot(&g, 1, STREAM_MEASURED).next_batch());
        assert_ne!(a, RequestStream::hot(&g, 2, STREAM_MEASURED).next_batch());
        assert_eq!(
            RequestStream::hot(&g, 1, STREAM_MEASURED).support(),
            RequestStream::hot(&g, 2, STREAM_MEASURED).support()
        );
    }
}
