//! Serving-layer exactness: the batching/caching/top-k front-end must be
//! indistinguishable from querying the index directly —
//!
//! * cached answers are **bit-identical** to freshly computed ones;
//! * batched answers equal per-query answers;
//! * the top-k early cut equals the full sort (proptest-pinned);
//! * everything agrees with the dense ground-truth oracle;
//! * eviction under a tiny cache never affects results.

use exact_ppr::cluster::Cluster;
use exact_ppr::core::gpa::{self, GpaBuildOptions};
use exact_ppr::core::hgpa::{HgpaBuildOptions, HgpaIndex};
use exact_ppr::core::sparse::SparseVector;
use exact_ppr::core::PprConfig;
use exact_ppr::graph::dense::dense_ppv;
use exact_ppr::graph::generators::{hierarchical_sbm, HsbmConfig};
use exact_ppr::graph::CsrGraph;
use exact_ppr::partition::HierarchyConfig;
use exact_ppr::prelude::{PprServer, Request, Response, ServeConfig};
use exact_ppr::workload::ZipfQueryStream;
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

fn tight() -> PprConfig {
    PprConfig {
        epsilon: 1e-9,
        ..Default::default()
    }
}

fn hgpa(g: &CsrGraph, machines: usize) -> HgpaIndex {
    HgpaIndex::build(
        g,
        &tight(),
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
fn cached_and_fresh_results_bit_identical() {
    let g = sample(220, 3);
    let idx = hgpa(&g, 4);
    let mut server = PprServer::new(&idx, ServeConfig::default());
    let mut uncached = PprServer::new(
        &idx,
        ServeConfig {
            cache_capacity_bytes: 0,
            ..Default::default()
        },
    );
    for u in [0u32, 57, 140, 219] {
        let fresh = server.query(u); // miss: computed via fan-out
        let warm = server.query(u); // hit: straight from cache
        assert_eq!(fresh, warm, "u {u}: cached PPV must be bit-identical");
        assert_eq!(
            fresh,
            uncached.query(u),
            "u {u}: cache on/off must not change the answer"
        );
    }
    assert_eq!(server.stats().cached_sources, 4);
    assert_eq!(server.cache_stats().hits, 4);
}

#[test]
fn server_matches_dense_oracle_hgpa_and_gpa() {
    let g = sample(200, 7);
    let h = hgpa(&g, 4);
    let gp = gpa::build(
        &g,
        &tight(),
        &GpaBuildOptions {
            machines: 3,
            ..Default::default()
        },
    )
    .0;
    let mut hs = PprServer::new(&h, ServeConfig::default());
    let mut gs = PprServer::new(&gp, ServeConfig::default());
    for u in [0u32, 99, 199] {
        let exact = dense_ppv(&g, u, 0.15);
        for (label, got) in [("hgpa", hs.query(u)), ("gpa", gs.query(u))] {
            for v in 0..200u32 {
                assert!(
                    (exact[v as usize] - got.get(v)).abs() < 1e-5,
                    "{label} u {u} v {v}"
                );
            }
        }
    }
}

#[test]
fn batch_answers_equal_per_query_answers() {
    let g = sample(240, 11);
    let idx = hgpa(&g, 4);
    let requests = vec![
        Request::Ppv(5),
        Request::TopK { source: 5, k: 10 }, // overlaps the first source
        Request::Preference(vec![(5, 0.5), (120, 0.5)]),
        Request::Ppv(120),
        Request::TopK { source: 200, k: 3 },
        Request::Preference(vec![(200, 0.2), (5, 0.8)]),
    ];
    let mut batched = PprServer::new(&idx, ServeConfig::default());
    let mut sequential = PprServer::new(&idx, ServeConfig::default());
    let all = batched.run_batch(&requests);
    let one_by_one: Vec<Response> = requests
        .iter()
        .map(|r| {
            sequential
                .run_batch(std::slice::from_ref(r))
                .responses
                .pop()
                .unwrap()
        })
        .collect();
    assert_eq!(all.responses, one_by_one);
    // The batch needed one round for 3 distinct sources; sequentially the
    // cache carried them across requests.
    assert_eq!(all.fresh_sources, 3);
    assert_eq!(batched.stats().rounds, 1);
}

#[test]
fn batch_equals_unbatched_without_cache_too() {
    // Batching alone (cache disabled) must also be answer-preserving.
    let g = sample(180, 13);
    let idx = hgpa(&g, 3);
    let no_cache = ServeConfig {
        cache_capacity_bytes: 0,
        ..Default::default()
    };
    let sources = [4u32, 90, 90, 171, 4];
    let requests: Vec<Request> = sources.iter().map(|&u| Request::Ppv(u)).collect();
    let mut batched = PprServer::new(&idx, no_cache);
    let responses = batched.run_batch(&requests).responses;
    for (&u, resp) in sources.iter().zip(&responses) {
        let direct = Cluster::with_default_network().query(&idx, u).result;
        assert_eq!(resp.as_ppv().unwrap(), &direct, "u {u}");
    }
    // Duplicates dedupe inside the batch even with no cache.
    assert_eq!(batched.stats().fresh_sources, 3);
}

#[test]
fn server_top_k_equals_full_sort_top_k() {
    let g = sample(250, 17);
    let idx = hgpa(&g, 5);
    let mut server = PprServer::new(&idx, ServeConfig::default());
    for u in [1u32, 130, 249] {
        // The served PPV and its full sort are the oracle: the early cut
        // must match it bit for bit, at every k.
        let ppv = server.query(u);
        for k in [0usize, 1, 7, 50, 10_000] {
            assert_eq!(server.top_k(u, k), ppv.top_k(k), "u {u} k {k}");
        }
        // And against the centralized index, scores agree to fp rounding
        // (coordinator sums machine replies in a different order).
        let (central, served) = (idx.query_top_k(u, 10), server.top_k(u, 10));
        for (c, s) in central.iter().zip(&served) {
            assert!((c.1 - s.1).abs() < 1e-12, "u {u}: {c:?} vs {s:?}");
        }
    }
}

#[test]
fn preference_requests_follow_linearity() {
    let g = sample(200, 19);
    let idx = hgpa(&g, 4);
    let mut server = PprServer::new(&idx, ServeConfig::default());
    let pref = [(10u32, 0.3), (60u32, 0.5), (190u32, 0.2)];
    let served = server.query_preference(&pref);
    let direct = idx.query_preference(&pref);
    for v in 0..200u32 {
        assert!(
            (served.get(v) - direct.get(v)).abs() < 1e-12,
            "v {v}: {} vs {}",
            served.get(v),
            direct.get(v)
        );
    }
}

#[test]
fn eviction_under_tiny_cache_never_changes_answers() {
    let g = sample(230, 23);
    let idx = hgpa(&g, 4);
    // Room for only a few PPVs: a Zipf stream forces constant eviction.
    let mut server = PprServer::new(
        &idx,
        ServeConfig {
            cache_capacity_bytes: 8 * 1024,
            max_batch: 4,
            ..Default::default()
        },
    );
    let mut stream = ZipfQueryStream::new(&g, 1.0, 31);
    for u in stream.take(60) {
        assert_eq!(
            server.query(u),
            Cluster::with_default_network().query(&idx, u).result,
            "u {u}"
        );
        assert!(server.cache_bytes() <= 8 * 1024);
    }
    assert!(
        server.cache_stats().evictions > 0,
        "tiny cache should have evicted"
    );
}

#[test]
fn serve_chunks_respect_max_batch() {
    let g = sample(160, 37);
    let idx = hgpa(&g, 3);
    let mut server = PprServer::new(
        &idx,
        ServeConfig {
            max_batch: 4,
            ..Default::default()
        },
    );
    let requests: Vec<Request> = (0..10).map(|i| Request::Ppv(i * 7)).collect();
    let responses = server.serve(&requests);
    assert_eq!(responses.len(), 10);
    assert_eq!(server.stats().batches, 3); // 4 + 4 + 2
    let cluster = Cluster::with_default_network();
    for (req, resp) in requests.iter().zip(&responses) {
        let Request::Ppv(u) = req else { unreachable!() };
        assert_eq!(
            resp.as_ppv().unwrap(),
            &cluster.query(&idx, *u).result,
            "u {u}"
        );
    }
}

fn arb_sparse_vector() -> impl Strategy<Value = SparseVector> {
    // Small value alphabet forces heavy ties — the hard case for the
    // early cut's tie-breaking.
    proptest::collection::vec((0u32..80, 0u8..6), 0..60).prop_map(|entries| {
        let mut seen = std::collections::HashSet::new();
        SparseVector::from_entries(
            entries
                .into_iter()
                .filter(|(id, _)| seen.insert(*id))
                .map(|(id, v)| (id, v as f64 / 10.0 + 1e-3))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topk_early_cut_equals_full_sort(v in arb_sparse_vector(), k in 0usize..90) {
        prop_assert_eq!(v.top_k_early_cut(k), v.top_k(k));
    }

    #[test]
    fn served_ppv_equals_index_on_random_graphs(seed in 0u64..500) {
        let g = sample(60, seed);
        let idx = HgpaIndex::build(
            &g,
            &PprConfig::default(),
            &HgpaBuildOptions {
                machines: 3,
                hierarchy: HierarchyConfig { max_leaf_size: 8, ..Default::default() },
                ..Default::default()
            },
        );
        let mut server = PprServer::new(&idx, ServeConfig::default());
        let u = (seed % 60) as u32;
        let served = server.query(u);
        let direct = idx.query(u);
        for v in 0..60u32 {
            prop_assert!((served.get(v) - direct.get(v)).abs() < 1e-12, "v {}", v);
        }
        prop_assert_eq!(server.top_k(u, 10), served.top_k(10));
    }
}
