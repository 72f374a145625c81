//! Per-layer kernel timings taken outside the measured window, by calling
//! each layer's public functions on the run's own graph and index over
//! [`spec::LAYER_SOURCES`] seeded inputs.

use crate::harness::{self, Rng};
use crate::result::Metrics;
use crate::spec;
use crate::stats;
use exact_ppr::cluster::DistributedQueryable;
use exact_ppr::core::hgpa::HgpaIndex;
use exact_ppr::core::parallel::Stopwatch;
use exact_ppr::core::push::local_ppv_push;
use exact_ppr::core::skeleton::skeleton_column_push;
use exact_ppr::core::{Scratch, SparseVector};
use exact_ppr::graph::{CsrGraph, NodeId};
use exact_ppr::serve::PpvCache;
use exact_ppr::wire::{decode_frame, encode_frame, Message, DEFAULT_MAX_FRAME_BYTES};

/// Repetitions of each kernel timing; the median is reported.
const REPS: usize = 3;
const STREAM_LAYERS: u64 = 5;

fn seeded_sources(graph: &CsrGraph, seed: u64) -> Vec<NodeId> {
    let pool = harness::queryable(graph);
    let mut rng = Rng::new(seed, STREAM_LAYERS);
    let mut sources: Vec<NodeId> = (0..spec::LAYER_SOURCES)
        .map(|_| pool[rng.below(pool.len())])
        .collect();
    sources.sort_unstable();
    sources.dedup();
    sources
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Stopwatch::start();
    let out = f();
    (out, t.elapsed_seconds())
}

const MIB: f64 = (1u64 << 20) as f64;

/// `core.hgpa` query kernels, machine by machine; with `wire`, also
/// `wire.frame` encode/decode of the replies those machine vectors make.
pub fn online_kernels(
    index: &HgpaIndex,
    graph: &CsrGraph,
    seed: u64,
    wire: bool,
    metrics: &mut Metrics,
) {
    let sources = seeded_sources(graph, seed);
    let count = sources.len() as f64;
    let machines = index.machines();
    let (mut per_source_us, mut skew) = (Vec::new(), Vec::new());
    let mut replies: Vec<Vec<SparseVector>> = Vec::new();
    for _ in 0..REPS {
        let mut machine_s = Vec::with_capacity(machines);
        replies.clear();
        for m in 0..machines as u32 {
            let (vectors, s) =
                timed(|| index.machine_vectors_into(&sources, m, &mut Scratch::new()));
            machine_s.push(s);
            replies.push(vectors);
        }
        let total: f64 = machine_s.iter().sum();
        per_source_us.push(1e6 * total / count);
        skew.push(machine_s.iter().copied().fold(0.0, f64::max) / (total / machines as f64));
    }
    metrics.set(
        "core.hgpa.machine_vectors_us_per_source",
        stats::median(&per_source_us),
    );
    metrics.set("core.hgpa.machine_skew", stats::median(&skew));
    let entries: usize = replies.iter().flatten().map(SparseVector::nnz).sum();
    metrics.set("core.hgpa.reply_entries_per_source", entries as f64 / count);

    if wire {
        let node_bound = graph.node_count() as u64;
        let (mut encode, mut decode) = (Vec::new(), Vec::new());
        let mut bytes = 0usize;
        for _ in 0..REPS {
            bytes = 0;
            let (mut encode_s, mut decode_s) = (0.0, 0.0);
            for (m, vectors) in replies.iter().enumerate() {
                let reply = Message::Reply {
                    round: 0,
                    machine: m as u32,
                    compute_seconds: 0.0,
                    vectors: vectors.clone(),
                };
                let (frame, s) = timed(|| encode_frame(&reply).expect("reply encodes"));
                encode_s += s;
                let (decoded, s) =
                    timed(|| decode_frame(&frame, node_bound, DEFAULT_MAX_FRAME_BYTES));
                decode_s += s;
                assert!(
                    decoded.expect("reply decodes") == reply,
                    "frame round trip changed a reply"
                );
                bytes += frame.len();
            }
            encode.push(bytes as f64 / MIB / encode_s);
            decode.push(bytes as f64 / MIB / decode_s);
        }
        metrics.set("wire.frame.encode_mib_s", stats::median(&encode));
        metrics.set("wire.frame.decode_mib_s", stats::median(&decode));
        metrics.set(
            "wire.frame.bytes_per_entry",
            bytes as f64 / entries.max(1) as f64,
        );
    }
}

/// `SparseVector::add_scaled` over pairs of cache-resident PPVs (the
/// merge kernel; assembly itself goes through `Scratch`).
pub fn hot_kernels(cache: &PpvCache, hot_set: &[NodeId], metrics: &mut Metrics) {
    let resident: Vec<&SparseVector> = hot_set
        .iter()
        .take(spec::LAYER_SOURCES + 1)
        .filter_map(|&u| cache.peek(u))
        .collect();
    if resident.len() < 2 {
        return;
    }
    let mut us = Vec::new();
    for _ in 0..REPS {
        let ((), s) = timed(|| {
            for pair in resident.windows(2) {
                std::hint::black_box(pair[0].add_scaled(pair[1], 0.4));
            }
        });
        us.push(1e6 * s / (resident.len() - 1) as f64);
    }
    metrics.set("core.sparse.add_scaled_us", stats::median(&us));
}

/// `core.push` and `core.skeleton` on the whole graph: one local PPV push
/// per seeded source, one skeleton column per seeded hub.
pub fn offline_kernels(index: &HgpaIndex, graph: &CsrGraph, seed: u64, metrics: &mut Metrics) {
    let cfg = harness::ppr_config();
    let sources = seeded_sources(graph, seed);
    let ((), s) = timed(|| {
        for &u in &sources {
            std::hint::black_box(local_ppv_push(graph, u, &cfg));
        }
    });
    metrics.set("core.push.us_per_source", 1e6 * s / sources.len() as f64);

    let hubs = index.hub_ids();
    if hubs.is_empty() {
        return;
    }
    let mut rng = Rng::new(seed, STREAM_LAYERS + 1);
    let picked: Vec<NodeId> = (0..spec::LAYER_SOURCES)
        .map(|_| hubs[rng.below(hubs.len())])
        .collect();
    let ((), s) = timed(|| {
        for &h in &picked {
            std::hint::black_box(skeleton_column_push(graph, h, &cfg));
        }
    });
    metrics.set("core.skeleton.us_per_hub", 1e6 * s / picked.len() as f64);
}
