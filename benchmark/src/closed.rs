//! The three closed-loop serving workloads: one client submits batch after
//! batch of [`spec::BATCH`] requests to a `DynamicPprServer` and waits for
//! each. `fresh-inproc` and `fresh-socket` draw uniform-random sources (the
//! working set is the whole graph, far above the cache); `hot` draws from a
//! 256-source Zipf hot set that the warm-up makes cache-resident.

use crate::harness::{self, Args, Checks, Fleet, RequestStream};
use crate::layers;
use crate::result::Metrics;
use crate::spec;
use crate::staged::{self, Staged};
use crate::stats;
use crate::Outcome;
use exact_ppr::core::hgpa::HgpaIndex;
use exact_ppr::core::parallel::Stopwatch;
use exact_ppr::graph::CsrGraph;
use exact_ppr::serve::{DynamicPprServer, Request, ServeConfig};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    FreshInproc,
    FreshSocket,
    Hot,
}

/// A served system. Field order is drop order: the server (which holds the
/// socket handle) goes before the fleet stops its workers.
struct Serving {
    server: DynamicPprServer,
    fleet: Option<Fleet>,
    graph: CsrGraph,
}

/// Graph → index → (snapshot, worker fleet) → server. With `keep_copy` a
/// second copy of the index is returned for the traced pipeline.
fn set_up(kind: Kind, keep_copy: bool) -> (Serving, Option<HgpaIndex>) {
    let graph = harness::generate_graph();
    let index = harness::build_index(&graph);
    let copy = keep_copy.then(|| index.clone());
    let fleet = (kind == Kind::FreshSocket).then(|| Fleet::launch(&index, &graph));
    let mut server = DynamicPprServer::from_index(graph.clone(), index, harness::serve_config());
    if let Some(fleet) = &fleet {
        server.attach_socket(fleet.sock.clone());
    }
    (
        Serving {
            server,
            fleet,
            graph,
        },
        copy,
    )
}

fn request_stream(kind: Kind, graph: &CsrGraph, seed: u64, stream: u64) -> RequestStream {
    match kind {
        Kind::Hot => RequestStream::hot(graph, seed, stream),
        Kind::FreshInproc | Kind::FreshSocket => RequestStream::fresh(graph, seed, stream),
    }
}

/// Fill the caches: `hot` touches every member of its hot set once;
/// `fresh-*` serves warm-up batches until the PPV cache is full, so the
/// measured window sees steady insert/evict churn from its first batch.
fn warm_up(
    kind: Kind,
    serving: &mut Serving,
    mut staged: Option<&mut Staged>,
    seed: u64,
    checks: &mut Checks,
) {
    let Serving { server, graph, .. } = serving;
    let mut serve = |server: &mut DynamicPprServer, batch: &[Request]| {
        server.run_batch(batch);
        if let Some(staged) = staged.as_deref_mut() {
            staged.run_batch(batch, checks);
        }
    };
    let mut stream = request_stream(kind, graph, seed, harness::STREAM_WARMUP);
    if kind == Kind::Hot {
        let members: Vec<Request> = stream.support().iter().map(|&u| Request::Ppv(u)).collect();
        for batch in members.chunks(spec::BATCH) {
            serve(server, batch);
        }
        return;
    }
    for _ in 0..256 {
        serve(server, &stream.next_batch());
        if harness::cache_is_full(server) {
            break;
        }
    }
}

/// One segment of a measured window.
struct Segment {
    wall_s: f64,
    /// Jiffies the hypervisor ran something else on this VM's CPUs.
    steal: u64,
    /// Wall seconds of each operation completed in the segment.
    op_seconds: Vec<f64>,
}

/// Run `op` back to back for `seconds`, in `segments` equal time segments.
/// `op` returns the wall seconds of what it did.
fn closed_loop(seconds: f64, segments: usize, mut op: impl FnMut() -> f64) -> Vec<Segment> {
    let window = Stopwatch::start();
    (1..=segments)
        .map(|seg| {
            let start = window.elapsed_seconds();
            let steal_before = harness::steal_jiffies();
            let deadline = seconds * seg as f64 / segments as f64;
            let mut op_seconds = Vec::new();
            while window.elapsed_seconds() < deadline {
                harness::check_interrupt();
                op_seconds.push(op());
            }
            Segment {
                wall_s: window.elapsed_seconds() - start,
                steal: harness::steal_jiffies() - steal_before,
                op_seconds,
            }
        })
        .collect()
}

/// The segments to take a run's numbers from: those the hypervisor left
/// alone (see [`harness::undisturbed`]), or all of them when too few were.
fn undisturbed(window: &[Segment]) -> Vec<&Segment> {
    let clean: Vec<bool> =
        harness::undisturbed(&window.iter().map(|s| s.steal).collect::<Vec<_>>());
    window
        .iter()
        .zip(clean)
        .filter(|(_, clean)| *clean)
        .map(|(s, _)| s)
        .collect()
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    if args.trace {
        run_traced(kind, args)
    } else {
        run_untraced(kind, args)
    }
}

fn run_untraced(kind: Kind, args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();

    // Set up several times, and measure a share of the window on each
    // instance: `setup_s` is the median set-up, and what one process's
    // memory layout happens to do to the timings (runs of the same seed
    // differ more than the segments of one run) averages out.
    let reps = spec::SETUP_REPS;
    let mut setup_s = Vec::new();
    let mut window: Vec<Segment> = Vec::new();
    let (mut hits, mut misses, mut rounds) = (0, 0, 0);
    let mut stream = None;
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let t = if rep == 0 {
            args.started
        } else {
            Stopwatch::start()
        };
        let (mut serving, _) = set_up(kind, false);
        warm_up(kind, &mut serving, None, args.seed, &mut checks);
        setup_s.push(t.elapsed_seconds());

        let stream = stream.get_or_insert_with(|| {
            request_stream(kind, &serving.graph, args.seed, harness::STREAM_MEASURED)
        });
        let cache_before = serving.server.cache_stats();
        let rounds_before = serving.server.stats().rounds;
        let server = &mut serving.server;
        window.extend(closed_loop(
            args.seconds / reps as f64,
            spec::SEGMENTS / reps,
            || {
                let batch = stream.next_batch();
                let t = Stopwatch::start();
                let out = server.run_batch(&batch);
                let seconds = t.elapsed_seconds();
                checks.served(out.responses.len());
                if out.responses.len() != batch.len() {
                    checks.check(false, || {
                        format!(
                            "batch of {} got {} responses",
                            batch.len(),
                            out.responses.len()
                        )
                    });
                }
                seconds
            },
        ));
        let cache = serving.server.cache_stats();
        hits += cache.hits - cache_before.hits;
        misses += cache.misses - cache_before.misses;
        rounds += serving.server.stats().rounds - rounds_before;
        last = Some(serving);
    }
    let mut serving = last.expect("at least one set-up");
    metrics.set_segments("setup_s", &setup_s);

    // Every request's latency is its batch's wall time. Timings are
    // medians over the undisturbed segments.
    let batches: usize = window.iter().map(|s| s.op_seconds.len()).sum();
    let segments = undisturbed(&window);
    let qps: Vec<f64> = segments
        .iter()
        .map(|s| (s.op_seconds.len() * spec::BATCH) as f64 / s.wall_s)
        .collect();
    let p50_ms: Vec<f64> = segments
        .iter()
        .map(|s| 1e3 * stats::percentile(&s.op_seconds, 0.50))
        .collect();
    metrics.set_segments("qps", &qps);
    metrics.set_segments("p50_ms", &p50_ms);
    // A segment alone has few batches beyond its p95 (two on
    // `fresh-socket`), so one segment's tail is rough; the median over the
    // segments is not, and a stall that lands in one or two of them does not
    // set it. The window as a whole must have ten batches beyond.
    let p95_ms: Vec<f64> = segments
        .iter()
        .map(|s| 1e3 * stats::percentile(&s.op_seconds, 0.95))
        .collect();
    metrics.set_segments("p95_ms", &p95_ms);
    checks.require(stats::supports(batches, 0.95), || {
        format!("only {batches} batches: fewer than ten samples beyond p95")
    });

    let workers = serving
        .fleet
        .as_ref()
        .map_or(Vec::new(), Fleet::worker_pids);
    let rss = harness::peak_rss_mib(std::process::id())
        + workers
            .iter()
            .map(|&pid| harness::peak_rss_mib(pid))
            .sum::<f64>();
    metrics.set("rss_mib", rss);

    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    eprintln!(
        "{batches} batches, hit ratio {hit_ratio:.4}, {rounds} fan-out rounds; {} of {} segments undisturbed (steal {:?}): qps {qps:.0?} p50_ms {p50_ms:.3?}",
        segments.len(),
        window.len(),
        window.iter().map(|s| s.steal).collect::<Vec<_>>(),
    );
    require_layer_separation(kind, hit_ratio, rounds, &mut checks);
    verify(kind, &mut serving, args.seed, &mut checks);
    stop_fleet(&serving, &mut checks);
    Outcome {
        checks,
        metrics,
        trace: None,
    }
}

/// A workload that stops exercising its layer must fail loudly, not
/// report a fast number.
fn require_layer_separation(kind: Kind, hit_ratio: f64, rounds: u64, checks: &mut Checks) {
    match kind {
        Kind::Hot => {
            checks.require(hit_ratio >= 0.99, || {
                format!("hot: cache hit ratio {hit_ratio:.4} < 0.99")
            });
            checks.require(rounds == 0, || {
                format!("hot: {rounds} fan-out rounds, expected none")
            });
        }
        Kind::FreshInproc | Kind::FreshSocket => {
            checks.require(hit_ratio <= 0.10, || {
                format!("fresh: cache hit ratio {hit_ratio:.4} > 0.10")
            });
        }
    }
}

fn stop_fleet(serving: &Serving, checks: &mut Checks) {
    if let Some(fleet) = &serving.fleet {
        let supervisor = fleet.sock.supervisor_stats();
        checks.require(
            supervisor.restarts == 0 && supervisor.spawn_failures == 0,
            || {
                format!(
                    "workers restarted {} times, {} spawn failures",
                    supervisor.restarts, supervisor.spawn_failures
                )
            },
        );
        let orphans = fleet.stop();
        checks.require(orphans == 0, || {
            format!("{orphans} worker processes outlived the run")
        });
    }
}

/// Sampled answers against ground truth, outside the timed window. On the
/// socket transport, additionally: responses bit-identical to an
/// in-process twin for the same batches, and measured reply bytes equal to
/// the twin's `reply_frame_bytes` accounting.
fn verify(kind: Kind, serving: &mut Serving, seed: u64, checks: &mut Checks) {
    let Serving { server, graph, .. } = serving;
    let mut stream = request_stream(kind, graph, seed, harness::STREAM_CHECK);
    let mut ppvs = 0;
    let batch: Vec<Request> = stream
        .next_batch()
        .into_iter()
        .filter(|r| {
            // Each PPV check costs a power iteration; keep a sample.
            if matches!(r, Request::Ppv(_)) {
                ppvs += 1;
                ppvs <= spec::CHECK_SOURCES
            } else {
                true
            }
        })
        .collect();
    let responses = server.run_batch(&batch).responses;
    harness::check_answers(checks, graph, &batch, &responses, |u| server.query(u));

    if kind == Kind::FreshSocket {
        let uncached = ServeConfig {
            cache_capacity_bytes: 0,
            ..harness::serve_config()
        };
        let mut twin =
            DynamicPprServer::from_index(graph.clone(), server.index().clone(), uncached);
        for _ in 0..4 {
            let batch = stream.next_batch();
            let over_wire = server.run_batch(&batch);
            let in_process = twin.run_batch(&batch);
            checks.check(
                harness::responses_bit_identical(&over_wire.responses, &in_process.responses),
                || "socket responses differ from the in-process twin's".into(),
            );
            // Same sources fetched on both sides: the bytes must agree.
            if over_wire.fresh_sources == in_process.fresh_sources {
                checks.check(over_wire.round_bytes == in_process.round_bytes, || {
                    format!(
                        "measured reply bytes {} != reply_frame_bytes {}",
                        over_wire.round_bytes, in_process.round_bytes
                    )
                });
            }
        }
    }
}

fn run_traced(kind: Kind, args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();

    let (mut serving, copy) = set_up(kind, true);
    let sock = serving.fleet.as_ref().map(|f| f.sock.clone());
    let mut staged = Staged::new(copy.expect("index copy for the traced pipeline"), sock);
    warm_up(
        kind,
        &mut serving,
        Some(&mut staged),
        args.seed,
        &mut checks,
    );
    staged.reset_measurements();

    // Alternate: the real `run_batch`, then the staged pipeline, on the
    // same batch; the two caches evolve in step.
    let mut stream = request_stream(kind, &serving.graph, args.seed, harness::STREAM_MEASURED);
    let cache_before = serving.server.cache_stats();
    let stats_before = *serving.server.stats();
    let mut real_s = Vec::new();
    let mut staged_s = Vec::new();
    let window = Stopwatch::start();
    while window.elapsed_seconds() < args.seconds {
        harness::check_interrupt();
        let batch = stream.next_batch();
        let t = Stopwatch::start();
        let real = serving.server.run_batch(&batch);
        real_s.push(t.elapsed_seconds());
        let (responses, seconds) = staged.run_batch(&batch, &mut checks);
        staged_s.push(seconds);
        checks.served(real.responses.len());
        checks.check(
            harness::responses_bit_identical(&real.responses, &responses),
            || "staged answers differ from run_batch's".into(),
        );
    }

    let requests = (real_s.len() * spec::BATCH) as f64;
    let (real_total, staged_total): (f64, f64) = (real_s.iter().sum(), staged_s.iter().sum());
    let own = staged.rec.self_seconds();
    let stage_self: f64 = staged
        .rec
        .spans()
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name != staged::BATCH)
        .map(|(_, own)| own)
        .sum();
    metrics.set("trace.coverage", stage_self / real_total);
    metrics.set(
        "trace.overhead_share",
        (staged_total - real_total) / staged_total,
    );

    let stats = *serving.server.stats();
    let cache = serving.server.cache_stats();
    let hit_ratio = harness::hit_ratio_since(&serving.server, cache_before);
    let rounds = stats.rounds - stats_before.rounds;
    let fresh = stats.fresh_sources - stats_before.fresh_sources;
    metrics.set("serve.cache.hit_ratio", hit_ratio);
    metrics.set(
        "serve.cache.evictions",
        (cache.evictions - cache_before.evictions) as f64,
    );
    metrics.set(
        "serve.cache.resident_mib",
        serving.server.cache_bytes() as f64 / (1 << 20) as f64,
    );
    metrics.set(
        "serve.server.batch_p99_ms",
        1e3 * stats::percentile(&real_s, 0.99),
    );
    if fresh > 0 {
        metrics.set(
            "wire_bytes_per_query",
            (stats.round_bytes - stats_before.round_bytes) as f64 / fresh as f64,
        );
    }

    let c = &staged.counts;
    let per = |name: &str, count: u64, scale: f64| {
        if count == 0 {
            0.0
        } else {
            scale * staged.rec.total(name).0 / count as f64
        }
    };
    metrics.set("serve.cache.get_us", per(staged::CACHE_GET, c.lookups, 1e6));
    metrics.set(
        "serve.cache.insert_us",
        per(staged::CACHE_INSERT, c.inserts, 1e6),
    );
    metrics.set("core.sparse.topk_us", per(staged::TOPK, c.topk, 1e6));
    metrics.set(
        "core.sparse.preference_us",
        per(staged::PREFERENCE, c.preference, 1e6),
    );
    metrics.set(
        "core.sparse.sum_us_per_source",
        per(staged::COORDINATOR_SUM, c.fresh_sources, 1e6),
    );
    // A batch's wall minus its fan-out round: probe, assembly, admission.
    let round_total =
        staged.rec.total(staged::EXEC_ROUND).0 + staged.rec.total(staged::SOCKET_ROUND).0;
    let sum_outside_round = if kind == Kind::FreshSocket {
        staged.rec.total(staged::COORDINATOR_SUM).0
    } else {
        0.0
    };
    metrics.set(
        "serve.server.assemble_ms",
        1e3 * (staged_total - round_total - sum_outside_round) / staged_s.len() as f64,
    );
    if c.rounds > 0 {
        let rounds = c.rounds as f64;
        if kind == Kind::FreshSocket {
            metrics.set(
                "cluster.socket.round_wall_ms",
                1e3 * c.socket_wall_s / rounds,
            );
            metrics.set(
                "cluster.socket.overhead_ms",
                1e3 * (c.socket_wall_s - c.socket_max_compute_s) / rounds,
            );
            metrics.set(
                "cluster.socket.retried_rounds",
                c.socket_retried_rounds as f64,
            );
        } else {
            metrics.set("cluster.exec.round_wall_ms", 1e3 * c.exec_wall_s / rounds);
            metrics.set(
                "cluster.exec.coordinator_ms",
                1e3 * c.exec_coordinator_s / rounds,
            );
            metrics.set(
                "cluster.exec.modeled_runtime_ms",
                1e3 * c.exec_modeled_runtime_s / rounds,
            );
            metrics.set(
                "cluster.exec.modeled_network_ms",
                1e3 * c.exec_modeled_network_s / rounds,
            );
            metrics.set(
                "cluster.exec.model_divergence",
                c.exec_wall_s / c.exec_modeled_runtime_s,
            );
        }
    }
    if let Some(fleet) = &serving.fleet {
        let wire = fleet.sock.metrics();
        let supervisor = fleet.sock.supervisor_stats();
        metrics.set("cluster.socket.launch_s", fleet.launch_s);
        metrics.set("cluster.socket.restarts", supervisor.restarts as f64);
        metrics.set("cluster.socket.bytes_received", wire.bytes_received as f64);
        metrics.set(
            "cluster.socket.frames",
            (wire.frames_sent + wire.frames_received) as f64,
        );
        let worker_rss = fleet
            .worker_pids()
            .iter()
            .map(|&pid| harness::peak_rss_mib(pid))
            .fold(0.0, f64::max);
        metrics.set("worker_rss_mib", worker_rss);
    }
    eprintln!(
        "{} batches real {:.3} s staged {:.3} s, {requests} requests, hit ratio {hit_ratio:.4}, {rounds} rounds",
        real_s.len(),
        real_total,
        staged_total
    );

    // Kernel timings outside the window, on this run's own index.
    if kind != Kind::Hot {
        layers::online_kernels(
            serving.server.index(),
            &serving.graph,
            args.seed,
            kind == Kind::FreshSocket,
            &mut metrics,
        );
    } else {
        layers::hot_kernels(
            staged.cache(),
            request_stream(kind, &serving.graph, args.seed, harness::STREAM_CHECK).support(),
            &mut metrics,
        );
    }

    require_layer_separation(kind, hit_ratio, rounds, &mut checks);
    verify(kind, &mut serving, args.seed, &mut checks);
    stop_fleet(&serving, &mut checks);
    Outcome {
        checks,
        metrics,
        trace: Some(staged.rec),
    }
}
