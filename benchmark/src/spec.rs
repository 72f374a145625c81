//! The benchmark's frozen parameters and its names: workloads, metrics,
//! units, directions and regression bounds. `BENCHMARK.json` at the
//! repository root is this table rendered (`ppr-benchmark spec`); a unit
//! test keeps the two in step.

use ppr_bench::json::{obj, Json};

/// Nodes of the `Dataset::Web` stand-in every workload runs on
/// (≈150 k edges).
pub const NODES: usize = 20_000;
/// Machines the HGPA index is spread over (= socket worker processes).
pub const MACHINES: usize = 4;
/// Teleport probability.
pub const ALPHA: f64 = 0.15;
/// Push tolerance the index is built at.
pub const EPSILON: f64 = 1e-4;
/// Requests per batch (one closed-loop client submits batch after batch).
pub const BATCH: usize = 16;
/// `k` of every top-k request.
pub const TOP_K: usize = 20;
/// Sources in the `hot` workload's hot set.
pub const HOT_SET: usize = 256;
/// Zipf exponent of the `hot` rank weights and the `mixed-openloop` reads.
pub const ZIPF: f64 = 1.1;
/// Leading `mixed-openloop` steps that get an update batch: the sustained
/// ones. The overload step runs without, so its throughput is the read
/// capacity and the cost of writes shows where it is measured best — in
/// the update latency and in the sustained steps' tail.
pub const UPDATE_STEPS: usize = 2;
/// Edge updates per `mixed-openloop` update batch.
pub const UPDATE_EDGES: usize = 4;
/// Open-loop read rates (events/s) of the three `mixed-openloop` steps.
/// On the 2-core reference host this stream completes ≈3 900 reads per
/// second of serving time when overloaded, but only ≈1 500/s right after
/// an update has emptied the cache; `r1` and `r2` are set to drain every
/// update's backlog well inside their step, `r3` at ≈1.5× capacity to stay
/// overloaded after a sizeable speed-up (see README.md). Frozen: later
/// changes are compared at these rates.
pub const RATES: [f64; 3] = [300.0, 600.0, 6000.0];
/// Where in each open-loop step its one update batch falls due.
pub const UPDATE_AT: f64 = 0.2;
/// Latency limit a step's p99 must meet for the step to count as sustained.
pub const LATENCY_LIMIT_MS: f64 = 2000.0;
/// Equal time segments a closed-loop window is cut into; every timing
/// metric is the median over the segments the hypervisor left alone.
pub const SEGMENTS: usize = 12;
/// Complete set-ups per untraced run; `setup_s` is their median, and a
/// closed loop measures a third of its window on each.
pub const SETUP_REPS: usize = 3;
/// Sources each sampled correctness check looks at.
pub const CHECK_SOURCES: usize = 6;
/// Sources (or hubs) each per-layer kernel timing runs over.
pub const LAYER_SOURCES: usize = 64;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// A workload and the reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "build",
        why: "offline path only: partition, push/skeleton precompute, save, cold-start do the work; serving layers do nothing",
    },
    WorkloadDef {
        name: "fresh-inproc",
        why: "working set far above the cache: query kernels, coordinator sum and cache churn dominate; the wire is bypassed",
    },
    WorkloadDef {
        name: "fresh-socket",
        why: "the fresh-inproc stream over 4 worker processes: adds encode, TCP, decode, supervisor; minus its twin = transport cost",
    },
    WorkloadDef {
        name: "hot",
        why: "Zipf draws over the 256 most popular sources fit the cache: cache, assembly and top-k do all the work; kernels and wire none",
    },
    WorkloadDef {
        name: "mixed-openloop",
        why: "open-loop Zipf reads at three fixed rates beside edge-update batches: shows the update stall a closed loop hides",
    },
];

/// What a user of the system sees. Every workload reports every one of
/// these (the driver's contract), so each is defined per workload:
///
/// | metric | closed loops | `build` | `mixed-openloop` |
/// |---|---|---|---|
/// | `qps` | requests/s | build→save→cold-start cycles/s | reads/s completed at the overload step `r3` |
/// | `p50_ms` | per-request latency (= its batch's wall) | per-cycle wall | update-batch latency (the write op) |
/// | `p95_ms` | per-request latency | per-cycle wall, estimated from median and MAD (too few cycles for a rank) | read latency from due time over the sustained steps `r1` and `r2` |
/// | `rss_mib` | peak resident memory, coordinator + every worker process | same | same |
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("qps", "1/s", Better::Higher, 0.25),
    e2e("p50_ms", "ms", Better::Lower, 0.25),
    e2e("p95_ms", "ms", Better::Lower, 0.25),
    e2e("rss_mib", "MiB", Better::Lower, 0.10),
];

/// Single-layer numbers, timed or counted by the harness around public
/// calls. A layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // User-visible numbers that exist on one workload only; the driver's
    // contract wants every bounded metric on every workload, so these carry
    // no bound (README.md, "Demoted metrics"). Measured untraced.
    lower("failed_share", "share"),
    lower("build_s", "s"),
    lower("save_s", "s"),
    lower("coldstart_s", "s"),
    lower("index_bytes_per_edge", "B"),
    lower("wire_bytes_per_query", "B"),
    lower("worker_rss_mib", "MiB"),
    lower("read_p50_ms", "ms"),
    lower("read_p99_ms", "ms"),
    lower("update_p50_ms", "ms"),
    higher("max_rate_ok", "1/s"),
    // partition
    lower("partition.hierarchy_s", "s"),
    lower("partition.hub_count", "count"),
    lower("partition.depth", "count"),
    // core kernels, offline
    lower("core.push.us_per_source", "us"),
    lower("core.skeleton.us_per_hub", "us"),
    lower("core.hgpa.precompute_wall_s", "s"),
    lower("core.hgpa.precompute_max_machine_s", "s"),
    higher("core.hgpa.parallel_efficiency", "ratio"),
    lower("core.hgpa.stored_entries", "count"),
    lower("core.hgpa.space_skew", "ratio"),
    // core kernels, online
    lower("core.hgpa.machine_vectors_us_per_source", "us"),
    lower("core.hgpa.reply_entries_per_source", "count"),
    lower("core.hgpa.machine_skew", "ratio"),
    lower("core.sparse.sum_us_per_source", "us"),
    lower("core.sparse.topk_us", "us"),
    lower("core.sparse.preference_us", "us"),
    lower("core.sparse.add_scaled_us", "us"),
    // persistence
    higher("core.persist.save_mib_s", "MiB/s"),
    higher("core.persist.load_mib_s", "MiB/s"),
    lower("core.persist.file_bytes", "B"),
    // maintenance
    lower("core.incremental.apply_s", "s"),
    lower("core.incremental.vectors_recomputed", "count"),
    lower("core.incremental.recompute_ratio", "ratio"),
    lower("graph.delta.apply_s", "s"),
    lower("graph.reach.reverse_reachable_s", "s"),
    // wire
    higher("wire.frame.encode_mib_s", "MiB/s"),
    higher("wire.frame.decode_mib_s", "MiB/s"),
    lower("wire.frame.bytes_per_entry", "B"),
    // in-process fan-out
    lower("cluster.exec.round_wall_ms", "ms"),
    lower("cluster.exec.coordinator_ms", "ms"),
    lower("cluster.exec.modeled_runtime_ms", "ms"),
    lower("cluster.exec.modeled_network_ms", "ms"),
    lower("cluster.exec.model_divergence", "ratio"),
    // socket fan-out
    lower("cluster.socket.round_wall_ms", "ms"),
    lower("cluster.socket.overhead_ms", "ms"),
    lower("cluster.socket.launch_s", "s"),
    lower("cluster.socket.restarts", "count"),
    lower("cluster.socket.retried_rounds", "count"),
    lower("cluster.socket.bytes_received", "B"),
    lower("cluster.socket.frames", "count"),
    // serving
    higher("serve.cache.hit_ratio", "ratio"),
    lower("serve.cache.evictions", "count"),
    lower("serve.cache.get_us", "us"),
    lower("serve.cache.insert_us", "us"),
    lower("serve.cache.resident_mib", "MiB"),
    lower("serve.server.batch_p99_ms", "ms"),
    lower("serve.server.assemble_ms", "ms"),
    lower("serve.dynamic.apply_updates_s", "s"),
    lower("serve.dynamic.evicted", "count"),
    higher("serve.dynamic.retained", "count"),
    // open-loop driver
    lower("openloop.r1.p50_ms", "ms"),
    lower("openloop.r1.p99_ms", "ms"),
    lower("openloop.r1.backlog_end", "count"),
    lower("openloop.r2.p50_ms", "ms"),
    lower("openloop.r2.p99_ms", "ms"),
    lower("openloop.r2.backlog_end", "count"),
    lower("openloop.r3.p50_ms", "ms"),
    lower("openloop.r3.p99_ms", "ms"),
    lower("openloop.r3.backlog_end", "count"),
    lower("openloop.max_queue", "count"),
    lower("openloop.stall_share", "share"),
    lower("openloop.generator_late_ms_max", "ms"),
    // the trace itself
    higher("trace.coverage", "ratio"),
    lower("trace.overhead_share", "share"),
];

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 12;

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

pub fn find_metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricDef| {
        let mut members = vec![
            ("name", Json::Str(m.name.into())),
            ("unit", Json::Str(m.unit.into())),
            ("better", Json::Str(m.better.as_str().into())),
        ];
        if let Some(b) = m.bound {
            members.push(("bound", Json::Num(b)));
        }
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    obj([
        (
            "command",
            Json::Arr(vec![
                Json::Str("bash".into()),
                Json::Str("benchmark/run.sh".into()),
            ]),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "workload name {:?}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn bounds_follow_the_contract() {
        for m in END_TO_END {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!((0.0..=0.25).contains(&b), "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find_metric("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    /// `BENCHMARK.json` on disk is exactly the table in this file.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `ppr-benchmark spec`"
        );
    }
}
