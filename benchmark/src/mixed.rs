//! The `mixed-openloop` workload: Zipf reads over all nodes arriving on
//! real time at three fixed rates, with one edge-update batch per rate
//! step, against one `DynamicPprServer`. The same serving layers as the
//! closed loops, used differently — writes beside reads — so the update
//! stall a closed-loop median never shows is what the tail measures.

use crate::harness::{self, Args, Checks};
use crate::openloop::{self, World};
use crate::result::Metrics;
use crate::spec;
use crate::stats;
use crate::trace::Recorder;
use crate::Outcome;
use exact_ppr::core::hgpa::HgpaIndex;
use exact_ppr::core::incremental::MaintenanceEngine;
use exact_ppr::core::parallel::Stopwatch;
use exact_ppr::graph::reach::reverse_reachable;
use exact_ppr::graph::{CsrGraph, EdgeUpdate, GraphDelta};
use exact_ppr::serve::{plan_delta, DeltaPlan, DynamicPprServer, Request, UpdateOutcome};
use exact_ppr::workload::{MixedEvent, MixedStream, MixedStreamConfig, ZipfQueryStream};

/// Update batches applied after the window: the untraced run times them
/// (update latency then rests on seven batches, not two — their cost
/// varies ±10 % with the edges drawn), the traced run decomposes the first
/// two stage by stage.
const EXTRA_UPDATES: usize = 5;
const STAGED_UPDATES: usize = 2;

/// Reads (7 in 8 `Ppv`, 1 in 8 `TopK`) over a Zipf stream.
fn reads(stream: &mut ZipfQueryStream, count: usize) -> Vec<Request> {
    (0..count)
        .map(|i| {
            let source = stream.next_query();
            if i % 8 == 7 {
                Request::TopK {
                    source,
                    k: spec::TOP_K,
                }
            } else {
                Request::Ppv(source)
            }
        })
        .collect()
}

/// Valid update batches, each against the graph the previous ones leave.
fn update_batches(graph: &CsrGraph, seed: u64, count: usize) -> Vec<Vec<EdgeUpdate>> {
    let config = MixedStreamConfig {
        update_rate: 1.0,
        updates_per_batch: spec::UPDATE_EDGES,
        ..Default::default()
    };
    let mut stream = MixedStream::new(graph, config, seed);
    (0..count)
        .map(|_| match stream.next_event() {
            MixedEvent::Update(batch) => batch,
            other => unreachable!("update_rate 1.0 yields only updates, got {other:?}"),
        })
        .collect()
}

struct Live<'a> {
    clock: Stopwatch,
    server: &'a mut DynamicPprServer,
    requests: &'a [Request],
    updates: &'a [Vec<EdgeUpdate>],
    outcomes: Vec<UpdateOutcome>,
    checks: &'a mut Checks,
    batch: Vec<Request>,
}

impl World for Live<'_> {
    fn now(&self) -> f64 {
        self.clock.elapsed_seconds()
    }

    fn wait_until(&mut self, t: f64) {
        // Spin, never sleep: a wake-up from sleep can come tens of
        // milliseconds late, and an idle generator has nothing to yield to.
        while self.now() < t {
            std::hint::spin_loop();
        }
        harness::check_interrupt();
    }

    fn serve_reads(&mut self, reads: &[usize]) {
        self.batch.clear();
        self.batch
            .extend(reads.iter().map(|&r| self.requests[r].clone()));
        let out = self.server.run_batch(&self.batch);
        self.checks.served(out.responses.len());
        if out.responses.len() != reads.len() {
            self.checks.check(false, || {
                format!(
                    "batch of {} got {} responses",
                    reads.len(),
                    out.responses.len()
                )
            });
        }
    }

    fn apply_update(&mut self, update: usize) {
        match self.server.apply_updates(&self.updates[update]) {
            Ok(outcome) => {
                self.checks.served(1);
                self.outcomes.push(outcome);
            }
            Err(e) => self
                .checks
                .check(false, || format!("update batch {update} rejected: {e:?}")),
        }
    }
}

struct Serving {
    server: DynamicPprServer,
    graph: CsrGraph,
}

/// Graph → index → server → warm-up: Zipf reads until the cache is full.
fn set_up(seed: u64) -> Serving {
    let graph = harness::generate_graph();
    let index = harness::build_index(&graph);
    let mut server = DynamicPprServer::from_index(graph.clone(), index, harness::serve_config());
    let mut stream = ZipfQueryStream::new(&graph, spec::ZIPF, seed ^ harness::STREAM_WARMUP);
    for _ in 0..256 {
        server.run_batch(&reads(&mut stream, spec::BATCH));
        if harness::cache_is_full(&server) {
            break;
        }
    }
    Serving { server, graph }
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();

    let (Serving { mut server, graph }, setup_s) =
        harness::set_up_repeatedly(args, || set_up(args.seed));

    // Inputs: the schedule is fixed by the frozen rates; the seed picks the
    // read sources and the updated edges.
    let steps = spec::RATES.len();
    let step_s = args.seconds / steps as f64;
    let events = openloop::schedule(&spec::RATES, step_s, spec::UPDATE_AT, spec::UPDATE_STEPS);
    let read_count = events
        .iter()
        .filter(|e| matches!(e.kind, openloop::EventKind::Read(_)))
        .count();
    let requests = reads(
        &mut ZipfQueryStream::new(&graph, spec::ZIPF, args.seed),
        read_count,
    );
    let updates = update_batches(&graph, args.seed, spec::UPDATE_STEPS + EXTRA_UPDATES);

    let cache_before = server.cache_stats();
    let mut world = Live {
        clock: Stopwatch::start(),
        server: &mut server,
        requests: &requests,
        updates: &updates,
        outcomes: Vec::new(),
        checks: &mut checks,
        batch: Vec::with_capacity(spec::BATCH),
    };
    let report = openloop::run(&mut world, &events, steps, step_s, spec::BATCH);
    let outcomes = world.outcomes;
    checks.require(outcomes.len() == spec::UPDATE_STEPS, || {
        format!(
            "{} of {} update batches were applied inside the window",
            outcomes.len(),
            spec::UPDATE_STEPS
        )
    });

    let ms = |step: usize, q: f64| 1e3 * stats::percentile(&report.steps[step].latencies, q);
    let sustained = |step: usize| {
        report.steps[step].backlog_end == 0 && ms(step, 0.99) <= spec::LATENCY_LIMIT_MS
    };
    let max_rate_ok = (0..steps)
        .filter(|&s| sustained(s))
        .map(|s| spec::RATES[s])
        .fold(0.0, f64::max);
    let overload = steps - 1;
    let mut update_ms: Vec<f64> = report.update_seconds().iter().map(|s| 1e3 * s).collect();
    for (step, r) in report.steps.iter().enumerate() {
        eprintln!(
            "step {} at {}/s: p50 {:.3} ms p95 {:.1} ms p99 {:.1} ms, backlog {} of {}, sustained {}",
            step + 1,
            spec::RATES[step],
            ms(step, 0.50),
            ms(step, 0.95),
            ms(step, 0.99),
            r.backlog_end,
            r.latencies.len(),
            sustained(step)
        );
    }
    eprintln!("updates {update_ms:?} ms, max queue {}", report.max_queue);

    if !args.trace {
        metrics.set_segments("setup_s", &setup_s);
        metrics.set("rss_mib", harness::peak_rss_mib(std::process::id()));
        // Reads completed per second while the offered rate is above
        // capacity (no update falls in this step): the read capacity.
        metrics.set(
            "qps",
            report.steps[overload].completed_in_step as f64 / step_s,
        );
        for batch in &updates[spec::UPDATE_STEPS..] {
            match server.apply_updates(batch) {
                Ok(outcome) => update_ms.push(1e3 * outcome.seconds),
                Err(e) => {
                    checks.check(false, || format!("update after the window rejected: {e:?}"))
                }
            }
        }
        // The write op's latency; the read median is a coin-flip between a
        // cache hit and a miss, which `hot` and `fresh-*` already gate.
        metrics.set("p50_ms", stats::median(&update_ms));
        // What readers saw of the stalls: the tail over both sustained
        // steps (two updates), steadier than one step's.
        let sustained_reads: Vec<f64> = report.steps[..overload]
            .iter()
            .flat_map(|s| s.latencies.iter().copied())
            .collect();
        metrics.set("p95_ms", 1e3 * stats::percentile(&sustained_reads, 0.95));
    } else {
        metrics.set("read_p50_ms", ms(1, 0.50));
        metrics.set("read_p99_ms", ms(1, 0.99));
        if !update_ms.is_empty() {
            metrics.set("update_p50_ms", stats::median(&update_ms));
        }
        metrics.set("max_rate_ok", max_rate_ok);
        let names: [[&'static str; 3]; 3] = [
            [
                "openloop.r1.p50_ms",
                "openloop.r1.p99_ms",
                "openloop.r1.backlog_end",
            ],
            [
                "openloop.r2.p50_ms",
                "openloop.r2.p99_ms",
                "openloop.r2.backlog_end",
            ],
            [
                "openloop.r3.p50_ms",
                "openloop.r3.p99_ms",
                "openloop.r3.backlog_end",
            ],
        ];
        for (step, [p50, p99, backlog]) in names.into_iter().enumerate() {
            metrics.set(p50, ms(step, 0.50));
            metrics.set(p99, ms(step, 0.99));
            metrics.set(backlog, report.steps[step].backlog_end as f64);
        }
        metrics.set("openloop.max_queue", report.max_queue as f64);
        metrics.set(
            "openloop.stall_share",
            report.update_seconds().iter().sum::<f64>() / args.seconds,
        );
        metrics.set(
            "openloop.generator_late_ms_max",
            1e3 * report.generator_late_max,
        );
        let cache = server.cache_stats();
        metrics.set(
            "serve.cache.hit_ratio",
            harness::hit_ratio_since(&server, cache_before),
        );
        metrics.set(
            "serve.cache.evictions",
            (cache.evictions - cache_before.evictions) as f64,
        );
        metrics.set(
            "serve.cache.resident_mib",
            server.cache_bytes() as f64 / (1u64 << 20) as f64,
        );
        if !outcomes.is_empty() {
            let n = outcomes.len() as f64;
            metrics.set(
                "serve.dynamic.apply_updates_s",
                outcomes.iter().map(|o| o.seconds).sum::<f64>() / n,
            );
            metrics.set(
                "serve.dynamic.evicted",
                outcomes.iter().map(|o| o.evicted).sum::<usize>() as f64,
            );
            metrics.set(
                "serve.dynamic.retained",
                outcomes.iter().map(|o| o.retained).sum::<usize>() as f64,
            );
        }
    }

    let rec = args.trace.then(|| {
        staged_updates(
            &mut server,
            &updates[spec::UPDATE_STEPS..spec::UPDATE_STEPS + STAGED_UPDATES],
            &mut metrics,
            &mut checks,
        )
    });
    verify(&mut server, args.seed, &mut checks);
    Outcome {
        checks,
        metrics,
        trace: rec,
    }
}

/// The update path stage by stage on copies of the server's graph and
/// index — `plan_delta` (the graph-level apply), `MaintenanceEngine::apply`,
/// `reverse_reachable` — each batch then applied to the server itself,
/// whose index must end up answering bit-identically.
fn staged_updates(
    server: &mut DynamicPprServer,
    batches: &[Vec<EdgeUpdate>],
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Recorder {
    let mut rec = Recorder::new();
    let mut graph = server.graph().clone();
    let mut index: HgpaIndex = server.index().clone();
    let mut engine = MaintenanceEngine::new();
    let (mut real_s, mut recomputed, mut skipped) = (0.0, 0usize, 0usize);
    for (i, batch) in batches.iter().enumerate() {
        rec.set_batch(i as u64);
        rec.enter("serve.dynamic.apply_updates");
        let plan = rec.span("graph.delta.apply", || {
            plan_delta(&graph, &GraphDelta::from_edges(batch.clone()))
        });
        if let Ok(DeltaPlan::Apply(applied)) = plan {
            match rec.span("core.incremental.apply", || {
                engine.apply(&mut index, &applied)
            }) {
                Ok(stats) => {
                    rec.span("graph.reach.reverse_reachable", || {
                        std::hint::black_box(reverse_reachable(&applied.graph, &stats.dirty_nodes))
                    });
                    recomputed += stats.vectors_recomputed;
                    skipped += stats.vectors_skipped;
                }
                Err(e) => checks.check(false, || format!("staged update {i} rejected: {e:?}")),
            }
            graph = applied.graph;
        }
        rec.exit();

        match server.apply_updates(batch) {
            Ok(outcome) => real_s += outcome.seconds,
            Err(e) => checks.check(false, || format!("update {i} rejected: {e:?}")),
        }
        for u in harness::queryable(&graph)
            .into_iter()
            .step_by(graph.node_count() / 4 + 1)
        {
            checks.check(
                harness::vectors_bit_identical(&index.query(u), &server.index().query(u)),
                || format!("staged index differs from the server's at source {u} after update {i}"),
            );
        }
    }
    let n = batches.len() as f64;
    let total = |name: &str| rec.total(name).0;
    let staged_s = total("serve.dynamic.apply_updates");
    let stages = total("graph.delta.apply")
        + total("core.incremental.apply")
        + total("graph.reach.reverse_reachable");
    metrics.set("graph.delta.apply_s", total("graph.delta.apply") / n);
    metrics.set(
        "core.incremental.apply_s",
        total("core.incremental.apply") / n,
    );
    metrics.set(
        "graph.reach.reverse_reachable_s",
        total("graph.reach.reverse_reachable") / n,
    );
    metrics.set("core.incremental.vectors_recomputed", recomputed as f64 / n);
    metrics.set(
        "core.incremental.recompute_ratio",
        recomputed as f64 / (recomputed + skipped).max(1) as f64,
    );
    if real_s > 0.0 {
        metrics.set("trace.coverage", stages / real_s);
        metrics.set("trace.overhead_share", (staged_s - real_s) / staged_s);
    }
    rec
}

/// After the run the maintained index must equal one whose every vector is
/// recomputed from scratch on the final graph (over the same hierarchy, as
/// `tests/dynamic_serving.rs` compares), and served answers must meet the
/// ε-contract on the final graph.
fn verify(server: &mut DynamicPprServer, seed: u64, checks: &mut Checks) {
    let rebuilt = HgpaIndex::build_with_hierarchy(
        server.graph(),
        &harness::ppr_config(),
        &harness::build_options(),
        server.index().hierarchy().clone(),
    );
    let graph = server.graph().clone();
    let mut stream = ZipfQueryStream::new(&graph, spec::ZIPF, seed ^ harness::STREAM_CHECK);
    let sample = reads(&mut stream, spec::CHECK_SOURCES + 2);
    for req in &sample {
        let (Request::Ppv(u) | Request::TopK { source: u, .. }) = req else {
            continue;
        };
        checks.check(
            harness::vectors_bit_identical(&server.index().query(*u), &rebuilt.query(*u)),
            || format!("maintained index differs from a scratch rebuild at source {u}"),
        );
    }
    let responses = server.run_batch(&sample).responses;
    harness::check_answers(checks, &graph, &sample, &responses, |u| server.query(u));
}
