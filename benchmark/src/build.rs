//! The `build` workload: the offline path, cycle after cycle. One cycle is
//! `Hierarchy::build` → `HgpaIndex::build_distributed_with_hierarchy` →
//! `save_hgpa_file` → `load_index_file` → first answers from the loaded
//! index. Serving layers do nothing here.

use crate::harness::{self, Args, Checks, Rng, TempFile};
use crate::layers;
use crate::result::Metrics;
use crate::stats;
use crate::trace::Recorder;
use crate::Outcome;
use exact_ppr::core::hgpa::{HgpaIndex, OfflineReport};
use exact_ppr::core::parallel::Stopwatch;
use exact_ppr::core::persist::{load_index_file, save_hgpa_file, PersistedIndex};
use exact_ppr::graph::{CsrGraph, NodeId};
use exact_ppr::partition::Hierarchy;
use std::path::Path;

/// Answers each cycle takes from the cold-started index.
const FIRST_ANSWERS: usize = 16;

/// What one cycle measured and produced.
struct Cycle {
    total_s: f64,
    hierarchy_s: f64,
    build_s: f64,
    save_s: f64,
    load_s: f64,
    coldstart_s: f64,
    hub_count: usize,
    depth: u32,
    offline: OfflineReport,
    file_bytes: u64,
    index: HgpaIndex,
    loaded: PersistedIndex,
}

fn cycle(
    graph: &CsrGraph,
    snapshot: &Path,
    sources: &[NodeId],
    mut rec: Option<&mut Recorder>,
    checks: &mut Checks,
) -> Cycle {
    // With a recorder every stage is also a span; the stopwatch readings
    // are taken either way.
    let mut stage = |enter: Option<&'static str>| {
        if let Some(rec) = rec.as_deref_mut() {
            match enter {
                Some(name) => drop(rec.enter(name)),
                None => drop(rec.exit()),
            }
        }
    };
    let opts = harness::build_options();
    let t = Stopwatch::start();
    stage(Some("build.cycle"));

    stage(Some("partition.hierarchy"));
    let hierarchy = Hierarchy::build(graph, &opts.hierarchy);
    stage(None);
    let hierarchy_s = t.elapsed_seconds();
    let (hub_count, depth) = (hierarchy.total_hubs(), hierarchy.depth);

    stage(Some("core.hgpa.precompute"));
    let (index, offline) = HgpaIndex::build_distributed_with_hierarchy(
        graph,
        &harness::ppr_config(),
        &opts,
        hierarchy,
    );
    stage(None);
    let build_s = t.elapsed_seconds();

    stage(Some("core.persist.save"));
    save_hgpa_file(&index, snapshot).expect("save snapshot");
    stage(None);
    let saved_at = t.elapsed_seconds();

    stage(Some("core.persist.load"));
    let loaded = load_index_file(snapshot).expect("load snapshot");
    stage(None);
    let loaded_at = t.elapsed_seconds();

    stage(Some("core.hgpa.first_answers"));
    let first = loaded.query(sources[0]);
    let coldstart_s = t.elapsed_seconds() - saved_at;
    let rest: Vec<_> = sources[1..].iter().map(|&u| loaded.query(u)).collect();
    stage(None);
    stage(None);
    let total_s = t.elapsed_seconds();

    // Outside the cycle's clock: the cold-started index answers exactly
    // what the index it was saved from answers.
    for (&u, got) in sources.iter().zip(std::iter::once(&first).chain(&rest)) {
        checks.check(harness::vectors_bit_identical(got, &index.query(u)), || {
            format!("cold-started answer for {u} differs from the built index's")
        });
    }
    Cycle {
        total_s,
        hierarchy_s,
        build_s,
        save_s: saved_at - build_s,
        load_s: loaded_at - saved_at,
        coldstart_s,
        hub_count,
        depth,
        offline,
        file_bytes: std::fs::metadata(snapshot).map_or(0, |m| m.len()),
        index,
        loaded,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let snapshot = TempFile::in_out_dir("build", "pprx");

    // Set-up: generate the graph and run one untimed cycle, which warms
    // the allocator and the page cache like every later cycle finds them.
    let (graph, setup_s) = harness::set_up_repeatedly(args, || {
        let graph = harness::generate_graph();
        let sources = answer_sources(&graph, args.seed);
        cycle(&graph, &snapshot.0, &sources, None, &mut checks);
        graph
    });
    let sources = answer_sources(&graph, args.seed);

    let mut rec = args.trace.then(Recorder::new);
    let mut last: Option<Cycle> = None;
    let (mut totals, mut steal, mut traced_flags) = (Vec::new(), Vec::new(), Vec::new());
    let window = Stopwatch::start();
    while window.elapsed_seconds() < args.seconds {
        harness::check_interrupt();
        // A traced run spans every other cycle; the plain ones are the
        // reference its overhead is measured against.
        let traced = rec.is_some() && totals.len() % 2 == 1;
        if let Some(rec) = rec.as_mut() {
            rec.set_batch(totals.len() as u64);
        }
        drop(last.take()); // one index in memory at a time, as in set-up
        let steal_before = harness::steal_jiffies();
        let c = cycle(
            &graph,
            &snapshot.0,
            &sources,
            rec.as_mut().filter(|_| traced),
            &mut checks,
        );
        steal.push(harness::steal_jiffies() - steal_before);
        checks.served(1);
        traced_flags.push(traced);
        totals.push(c.total_s);
        last = Some(c);
    }
    let last = last.expect("at least one cycle ran");
    eprintln!("{} cycles: {totals:.3?} s, steal {steal:?}", totals.len());

    // Two of the cold-started answers against power iteration.
    for &u in sources.iter().take(2) {
        checks.check(
            harness::within_epsilon_contract(&graph, u, &last.loaded.query(u)),
            || format!("cold-started PPV of {u} breaks the epsilon contract"),
        );
    }

    if !args.trace {
        // Numbers come from the cycles the hypervisor left alone.
        let quiet: Vec<f64> = totals
            .iter()
            .zip(harness::undisturbed(&steal))
            .filter(|(_, quiet)| *quiet)
            .map(|(&t, _)| t)
            .collect();
        metrics.set_segments("setup_s", &setup_s);
        metrics.set("qps", quiet.len() as f64 / quiet.iter().sum::<f64>());
        metrics.set("p50_ms", 1e3 * stats::median(&quiet));
        // Too few cycles for a nearest rank, which would be the slowest one.
        metrics.set("p95_ms", 1e3 * stats::p95_of_repeats(&quiet));
        metrics.set("rss_mib", harness::peak_rss_mib(std::process::id()));
        return Outcome {
            checks,
            metrics,
            trace: None,
        };
    }

    let rec = rec.expect("traced run has a recorder");
    let own = rec.self_seconds();
    let (mut stage_self, mut traced_total, mut plain_total) = (0.0, 0.0, 0.0);
    for (span, own) in rec.spans().iter().zip(&own) {
        if span.name != "build.cycle" {
            stage_self += own;
        }
    }
    let (mut traced_n, mut plain_n) = (0usize, 0usize);
    for (&seconds, &traced) in totals.iter().zip(&traced_flags) {
        if traced {
            traced_total += seconds;
            traced_n += 1;
        } else {
            plain_total += seconds;
            plain_n += 1;
        }
    }
    if traced_n > 0 && plain_n > 0 {
        let (traced_rate, plain_rate) =
            (traced_n as f64 / traced_total, plain_n as f64 / plain_total);
        metrics.set("trace.coverage", stage_self / traced_total);
        metrics.set(
            "trace.overhead_share",
            (plain_rate - traced_rate) / plain_rate,
        );
    }

    // The last cycle's numbers stand for the run (every cycle builds the
    // same index from the same graph).
    let mib = last.file_bytes as f64 / (1u64 << 20) as f64;
    metrics.set("build_s", last.build_s);
    metrics.set("save_s", last.save_s);
    metrics.set("coldstart_s", last.coldstart_s);
    metrics.set(
        "index_bytes_per_edge",
        last.file_bytes as f64 / graph.edge_count() as f64,
    );
    metrics.set("partition.hierarchy_s", last.hierarchy_s);
    metrics.set("partition.hub_count", last.hub_count as f64);
    metrics.set("partition.depth", f64::from(last.depth));
    let machine_total: f64 = last.offline.per_machine_seconds.iter().sum();
    let workers = harness::threads().workers() as f64;
    metrics.set("core.hgpa.precompute_wall_s", last.offline.wall_seconds);
    metrics.set(
        "core.hgpa.precompute_max_machine_s",
        last.offline.max_machine_seconds(),
    );
    metrics.set(
        "core.hgpa.parallel_efficiency",
        machine_total / (workers * last.offline.wall_seconds),
    );
    metrics.set(
        "core.hgpa.stored_entries",
        last.index.stored_entries() as f64,
    );
    let space = last.index.storage_bytes_per_machine();
    let mean = space.iter().sum::<u64>() as f64 / space.len() as f64;
    metrics.set(
        "core.hgpa.space_skew",
        space.iter().copied().max().unwrap_or(0) as f64 / mean,
    );
    metrics.set("core.persist.save_mib_s", mib / last.save_s);
    metrics.set("core.persist.load_mib_s", mib / last.load_s);
    metrics.set("core.persist.file_bytes", last.file_bytes as f64);
    layers::offline_kernels(&last.index, &graph, args.seed, &mut metrics);
    Outcome {
        checks,
        metrics,
        trace: Some(rec),
    }
}

/// The seeded sources whose answers every cycle takes.
fn answer_sources(graph: &CsrGraph, seed: u64) -> Vec<NodeId> {
    let pool = harness::queryable(graph);
    let mut rng = Rng::new(seed, harness::STREAM_CHECK);
    (0..FIRST_ANSWERS)
        .map(|_| pool[rng.below(pool.len())])
        .collect()
}
