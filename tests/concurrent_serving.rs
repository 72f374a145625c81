//! Concurrency exactness: the threaded cluster fan-out, the sharded
//! server configuration, and the epoch-barrier dynamic server must be
//! **bit-identical** to their sequential counterparts on any workload —
//!
//! * a threaded fan-out round equals the sequential round entry for
//!   entry (same replies, same coordinator sum);
//! * a sharded+threaded `PprServer` answers any mixed request stream
//!   exactly like the single-shard sequential one, at every shard count;
//! * a sharded+threaded `DynamicPprServer` tracks a fully sequential one
//!   through interleaved read/write streams (proptest-driven);
//! * shard-partitioned caches retain provably unaffected entries across
//!   updates — sharding must not degrade fine-grained invalidation to a
//!   clear().

use exact_ppr::core::hgpa::{HgpaBuildOptions, HgpaIndex};
use exact_ppr::core::PprConfig;
use exact_ppr::graph::generators::{hierarchical_sbm, HsbmConfig};
use exact_ppr::graph::{CsrGraph, GraphBuilder, NodeId};
use exact_ppr::partition::HierarchyConfig;
use exact_ppr::core::gpa;
use exact_ppr::prelude::{
    Cluster, ClusterConfig, DynamicPprServer, EdgeUpdate, GpaBuildOptions, ParallelismMode,
    PprServer, Request, ServeConfig,
};
use exact_ppr::workload::{MixedEvent, MixedStream, MixedStreamConfig};
use proptest::prelude::*;

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

fn sequential_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        shards: 1,
        parallelism: ParallelismMode::Sequential,
        ..Default::default()
    }
}

fn sharded_config(shards: usize) -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        shards,
        parallelism: ParallelismMode::Threads(shards.max(2)),
        ..Default::default()
    }
}

/// A deterministic mixed-shape request stream over `n` nodes.
fn request_stream(n: usize, count: usize, seed: u64) -> Vec<Request> {
    let node = |i: u64| (seed.wrapping_mul(0x9E37).wrapping_add(i * 31) % n as u64) as NodeId;
    (0..count as u64)
        .map(|i| match i % 5 {
            0 | 3 => Request::Ppv(node(i)),
            1 => Request::TopK {
                source: node(i),
                k: 1 + (i as usize % 12),
            },
            2 => Request::Preference(vec![(node(i), 0.7), (node(i + 13), 0.3)]),
            _ => Request::Ppv(node(i / 2)), // repeats: cache hits
        })
        .collect()
}

#[test]
fn threaded_cluster_rounds_equal_sequential_rounds() {
    let g = sample(230, 5);
    let cfg = PprConfig::default();
    let hgpa = HgpaIndex::build(&g, &cfg, &opts(4));
    let gpa = gpa::build(
        &g,
        &cfg,
        &GpaBuildOptions {
            machines: 5,
            ..Default::default()
        },
    )
    .0;
    let sequential = Cluster::with_default_network();
    for workers in [2usize, 4, 7] {
        let threaded = Cluster::new(ClusterConfig {
            parallelism: ParallelismMode::Threads(workers),
            ..ClusterConfig::default()
        });
        let sources: Vec<NodeId> = (0..40).map(|i| (i * 11) % 230).collect();
        let a = sequential.query_many(&hgpa, &sources);
        let b = threaded.query_many(&hgpa, &sources);
        assert_eq!(a.results, b.results, "hgpa workers {workers}");
        let a = sequential.query_many(&gpa, &sources);
        let b = threaded.query_many(&gpa, &sources);
        assert_eq!(a.results, b.results, "gpa workers {workers}");
        let pref = [(9u32, 0.4), (100u32, 0.35), (201u32, 0.25)];
        assert_eq!(
            sequential.query_preference(&hgpa, &pref).result,
            threaded.query_preference(&hgpa, &pref).result,
            "workers {workers}"
        );
    }
}

#[test]
fn sharded_server_is_bit_identical_to_sequential_server() {
    let g = sample(260, 9);
    let idx = HgpaIndex::build(&g, &PprConfig::default(), &opts(4));
    let requests = request_stream(260, 120, 0xC0FFEE);
    for shards in [2usize, 3, 4, 8] {
        let mut reference = PprServer::new(&idx, sequential_config());
        let mut sharded = PprServer::new(&idx, sharded_config(shards));
        assert_eq!(sharded.shard_count(), shards);
        let want = reference.serve(&requests);
        let got = sharded.serve(&requests);
        assert_eq!(want, got, "shards {shards}");
        // Same distinct sources were resolved; residency may differ
        // (shards split the byte budget) but lookups must all be served.
        assert_eq!(
            reference.stats().requests,
            sharded.stats().requests,
            "shards {shards}"
        );
        // The shard fleet actually spreads keys: with enough distinct
        // sources, no single shard holds everything.
        if shards > 1 {
            let per_shard = sharded.shard_stats();
            assert_eq!(per_shard.len(), shards);
            let resident = sharded.cache_len();
            assert!(resident > 0);
            let busiest = per_shard
                .iter()
                .map(|s| s.insertions)
                .max()
                .unwrap_or_default();
            let total: u64 = per_shard.iter().map(|s| s.insertions).sum();
            assert!(
                busiest < total,
                "shards {shards}: all {total} insertions landed on one shard"
            );
        }
    }
}

#[test]
fn sharded_server_with_cache_disabled_still_matches() {
    let g = sample(180, 21);
    let idx = HgpaIndex::build(&g, &PprConfig::default(), &opts(3));
    let requests = request_stream(180, 60, 7);
    let mut reference = PprServer::new(
        &idx,
        ServeConfig {
            cache_capacity_bytes: 0,
            ..sequential_config()
        },
    );
    let mut sharded = PprServer::new(
        &idx,
        ServeConfig {
            cache_capacity_bytes: 0,
            ..sharded_config(4)
        },
    );
    assert_eq!(reference.serve(&requests), sharded.serve(&requests));
    assert_eq!(sharded.cache_len(), 0);
}

/// Drive the same mixed read/write stream through a fully sequential
/// dynamic server and a sharded+threaded one; every response and the
/// final graphs must agree bit for bit.
fn dynamic_differential(n: usize, seed: u64, events: usize, shards: usize) -> Result<(), String> {
    let cfg = PprConfig::default();
    let g0 = sample(n, seed);
    let mut sequential =
        DynamicPprServer::build(g0.clone(), &cfg, &opts(3), sequential_config());
    let mut sharded = DynamicPprServer::build(g0.clone(), &cfg, &opts(3), sharded_config(shards));
    assert_eq!(sharded.shard_count(), shards);

    let mut stream = MixedStream::new(
        &g0,
        MixedStreamConfig {
            update_rate: 0.3,
            updates_per_batch: 3,
            zipf_exponent: 1.0,
            ..Default::default()
        },
        seed ^ 0x5EED,
    );
    let mut updates_seen = 0usize;
    for (i, event) in stream.take(events).into_iter().enumerate() {
        match event {
            MixedEvent::Query(u) => {
                // Mixed request shapes so every assembly path crosses the
                // worker threads.
                let reqs = [
                    Request::Ppv(u),
                    Request::TopK {
                        source: u,
                        k: 1 + i % 9,
                    },
                    Request::Preference(vec![(u, 0.6), ((u as usize % n) as NodeId, 0.4)]),
                ];
                let a = sequential.run_batch(&reqs).responses;
                let b = sharded.run_batch(&reqs).responses;
                if a != b {
                    return Err(format!(
                        "seed {seed} shards {shards}: responses diverged at event {i} (source {u})"
                    ));
                }
            }
            MixedEvent::Update(batch) => {
                updates_seen += 1;
                let a = sequential
                    .apply_updates(&batch)
                    .map_err(|e| format!("seed {seed}: sequential rejected: {e}"))?;
                let b = sharded
                    .apply_updates(&batch)
                    .map_err(|e| format!("seed {seed}: sharded rejected: {e}"))?;
                if (a.applied, a.skipped, a.coalesced, a.epoch)
                    != (b.applied, b.skipped, b.coalesced, b.epoch)
                {
                    return Err(format!(
                        "seed {seed} shards {shards}: update accounting diverged at event {i}"
                    ));
                }
            }
            MixedEvent::Churn(_) => unreachable!("churn disabled in this config"),
        }
    }
    if !sequential.graph().edges().eq(sharded.graph().edges()) {
        return Err(format!("seed {seed} shards {shards}: final graphs diverged"));
    }
    if sequential.epoch() != sharded.epoch() {
        return Err(format!("seed {seed} shards {shards}: epochs diverged"));
    }
    // Post-stream sweep: both serve the same answers on the final graph.
    for u in (0..n as NodeId).step_by(11) {
        if sequential.query(u) != sharded.query(u) {
            return Err(format!(
                "seed {seed} shards {shards}: final PPV of {u} diverged"
            ));
        }
    }
    let _ = updates_seen;
    Ok(())
}

proptest! {
    // Default-config cases so the CI deep-test job can scale this suite
    // via `PROPTEST_CASES`.
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn sharded_dynamic_server_tracks_sequential_on_mixed_streams(seed in 0u64..10_000) {
        let shards = 2 + (seed % 3) as usize; // 2..=4
        dynamic_differential(64, seed, 16, shards).map_err(|e| e.to_string())?;
    }
}

#[test]
fn sharded_dynamic_differential_bigger_run() {
    dynamic_differential(110, 77, 40, 4).unwrap();
}

/// Two disconnected halves: updates inside one cannot affect the other.
fn disjoint_halves(half: usize) -> CsrGraph {
    let n = 2 * half;
    let mut b = GraphBuilder::new(n);
    for base in [0, half] {
        for i in 0..half {
            let at = |k: usize| (base + (i + k) % half) as NodeId;
            b.push_edge(at(0), at(1));
            b.push_edge(at(0), at(3));
            b.push_edge(at(1), at(0));
        }
    }
    b.build()
}

#[test]
fn shard_caches_retain_unaffected_entries_across_updates() {
    let g = disjoint_halves(40);
    let cfg = PprConfig::default();
    let mut server = DynamicPprServer::build(g, &cfg, &opts(3), sharded_config(4));

    // Warm all shards with sources from both halves.
    let first_half: Vec<NodeId> = vec![0, 5, 11, 17, 23, 29];
    let second_half: Vec<NodeId> = vec![41, 47, 63, 71];
    for &u in first_half.iter().chain(&second_half) {
        server.query(u);
    }
    assert_eq!(server.cache_len(), first_half.len() + second_half.len());
    let hits_before = server.cache_stats().hits;

    // An update confined to the second half: every first-half entry is
    // provably unaffected and must survive in whichever shard holds it.
    let (a, b) = (41u32, 55u32);
    assert!(!server.graph().has_edge(a, b));
    let outcome = server
        .apply_updates(&[EdgeUpdate::Insert(a, b)])
        .expect("valid insert");
    assert_eq!(outcome.applied, 1);
    assert_eq!(outcome.epoch, 1);
    assert_eq!(
        outcome.retained,
        first_half.len(),
        "first-half entries must survive the per-shard sweep"
    );
    assert!(outcome.evicted <= second_half.len());

    // Survivors keep *hitting* — the epoch barrier ran a fine-grained
    // sweep, not a clear() — and stay bit-identical to fresh fan-outs.
    let cluster = Cluster::with_default_network();
    for &u in &first_half {
        assert_eq!(server.query(u), cluster.query(server.index(), u).result);
    }
    assert!(
        server.cache_stats().hits >= hits_before + first_half.len() as u64,
        "sharded caches must keep hitting across the update"
    );
    for &u in &second_half {
        assert_eq!(server.query(u), cluster.query(server.index(), u).result);
    }
    assert_eq!(server.cache_stats().invalidated, outcome.evicted as u64);
}
