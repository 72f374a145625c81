//! Criterion micro-benchmarks for the serving hot path: cache hits vs
//! cold fan-out rounds, batched vs per-query rounds, the top-k early-cut
//! selection vs the full sort, and thread-scaling of the sharded server
//! (1/2/4/8 workers; wall-clock, so the scaling shows the host's cores).

use criterion::{criterion_group, criterion_main, Criterion};
use ppr_cluster::{Cluster, ClusterConfig, ParallelismMode};
use ppr_core::hgpa::{HgpaBuildOptions, HgpaIndex};
use ppr_core::PprConfig;
use ppr_serve::{PprServer, Request, ServeConfig};
use ppr_workload::{Dataset, ZipfQueryStream};
use std::hint::black_box;

fn serving(c: &mut Criterion) {
    let g = Dataset::Web.generate_with_nodes(3_000);
    let cfg = PprConfig::default();
    let hgpa = HgpaIndex::build(&g, &cfg, &HgpaBuildOptions::default());
    let cluster = Cluster::with_default_network();

    let mut group = c.benchmark_group("serving");
    group.sample_size(10);

    // Warm server: every source resident, requests are pure cache hits.
    let mut stream = ZipfQueryStream::new(&g, 1.1, 7);
    let hot: Vec<u32> = stream.take(64);
    let mut warm = PprServer::new(&hgpa, ServeConfig::default());
    for &u in &hot {
        warm.query(u);
    }
    let mut i = 0usize;
    group.bench_function("cache_hit_query", |b| {
        b.iter(|| {
            i = (i + 1) % hot.len();
            black_box(warm.query(hot[i]))
        })
    });
    group.bench_function("cache_hit_top_20", |b| {
        b.iter(|| {
            i = (i + 1) % hot.len();
            black_box(warm.top_k(hot[i], 20))
        })
    });

    // Cold path: one uncached fan-out per call (cache disabled).
    let mut cold = PprServer::new(
        &hgpa,
        ServeConfig {
            cache_capacity_bytes: 0,
            ..Default::default()
        },
    );
    group.bench_function("cold_query_fanout", |b| {
        b.iter(|| {
            i = (i + 1) % hot.len();
            black_box(cold.query(hot[i]))
        })
    });

    // Batched round vs the same 16 sources as individual rounds.
    let sources: Vec<u32> = ZipfQueryStream::new(&g, 0.0, 11).take(16);
    group.bench_function("batched_round_16_sources", |b| {
        b.iter(|| black_box(cluster.query_many(&hgpa, &sources)))
    });
    group.bench_function("per_query_rounds_16_sources", |b| {
        b.iter(|| black_box(cluster.query_batch(&hgpa, &sources)))
    });

    // One uncached batch through the server (the `repro serve` hot loop).
    let requests: Vec<Request> = sources.iter().map(|&u| Request::Ppv(u)).collect();
    group.bench_function("server_batch_16_no_cache", |b| {
        b.iter(|| {
            let mut s = PprServer::new(
                &hgpa,
                ServeConfig {
                    cache_capacity_bytes: 0,
                    ..Default::default()
                },
            );
            black_box(s.run_batch(&requests))
        })
    });

    // Selection: early-cut vs full sort on a big PPV.
    let ppv = hgpa.query(sources[0]);
    group.bench_function("top_20_early_cut", |b| {
        b.iter(|| black_box(ppv.top_k_early_cut(20)))
    });
    group.bench_function("top_20_full_sort", |b| b.iter(|| black_box(ppv.top_k(20))));
    group.finish();
}

/// Thread-scaling: one uncached 64-request batch through the sharded
/// server at 1/2/4/8 workers (reader shards + fan-out threads), and the
/// raw threaded fan-out round next to the sequential one. Per-iteration
/// time shrinking with workers is real parallel speedup; on a single
/// core the lines collapse (plus thread overhead) by design.
fn scaling(c: &mut Criterion) {
    let g = Dataset::Web.generate_with_nodes(3_000);
    let cfg = PprConfig::default();
    let hgpa = HgpaIndex::build(&g, &cfg, &HgpaBuildOptions::default());

    let sources: Vec<u32> = ZipfQueryStream::new(&g, 0.0, 23).take(64);
    let requests: Vec<Request> = sources.iter().map(|&u| Request::Ppv(u)).collect();

    let mut group = c.benchmark_group("scaling");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_function(&format!("server_batch_64_workers_{workers}"), |b| {
            b.iter(|| {
                let mut s = PprServer::new(
                    &hgpa,
                    ServeConfig {
                        cache_capacity_bytes: 0,
                        shards: workers,
                        parallelism: ParallelismMode::with_workers(workers),
                        ..Default::default()
                    },
                );
                black_box(s.run_batch(&requests))
            })
        });
        group.bench_function(&format!("fanout_round_64_workers_{workers}"), |b| {
            let cluster = Cluster::new(ClusterConfig {
                parallelism: ParallelismMode::with_workers(workers),
                ..ClusterConfig::default()
            });
            b.iter(|| black_box(cluster.query_many(&hgpa, &sources)))
        });
    }
    group.finish();
}

criterion_group!(benches, serving, scaling);
criterion_main!(benches);
