//! Differential update/query suite: serving must stay *exact while the
//! graph changes*.
//!
//! The one net that catches both updater bugs and cache
//! under-invalidation: random edge-update streams interleaved with
//! queries, where every served answer is compared bit for bit against
//! ground truth on the **current** graph —
//!
//! * the served (batched, cached) answer must equal a fresh cluster
//!   fan-out over the incrementally maintained index (stale cache entries
//!   cannot hide);
//! * the maintained index itself must equal an index whose every vector
//!   is **recomputed from scratch** on the current graph over the same
//!   hierarchy (incomplete dirty tracking cannot hide). Central queries
//!   are the comparison — a promoted hub's machine assignment
//!   legitimately differs between the incremental path and a rebuild,
//!   which permutes the coordinator's floating-point summation order;
//! * and on small graphs, the dense linear-system oracle agrees within
//!   the epsilon contract.
//!
//! Separately, invalidation must be *fine-grained*: an update touching
//! one region must not evict cached sources that provably cannot reach
//! it (hit counts survive updates — not a disguised `clear()`), and the
//! open-loop queueing report must be deterministic and internally
//! consistent.

mod common;

use common::scc::strongly_connected_components;
use exact_ppr::core::hgpa::{HgpaBuildOptions, HgpaIndex};
use exact_ppr::core::PprConfig;
use exact_ppr::graph::dense::dense_ppv;
use exact_ppr::graph::generators::{hierarchical_sbm, HsbmConfig};
use exact_ppr::graph::reach::reverse_reachable;
use exact_ppr::graph::{delta, CsrGraph, EdgeUpdate, GraphBuilder, NodeId};
use exact_ppr::partition::HierarchyConfig;
use exact_ppr::prelude::{Cluster, DynamicPprServer, Request, ServeConfig};
use exact_ppr::serve::{run_open_loop, OpenLoopConfig, ServeEvent};
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
            max_leaf_size: 12,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Recompute every stored vector from scratch on `g` over the server's
/// current hierarchy — the differential reference for the incremental
/// updater.
fn scratch_rebuild(server: &DynamicPprServer, cfg: &PprConfig, machines: usize) -> HgpaIndex {
    HgpaIndex::build_with_hierarchy(
        server.graph(),
        cfg,
        &opts(machines),
        server.index().hierarchy().clone(),
    )
}

/// `g` plus the two-way ring `v ↔ v+1`: strongly connected by
/// construction — the topology on which whole-graph reachability proves
/// nothing about any vector.
fn with_ring(g: &CsrGraph) -> CsrGraph {
    let n = g.node_count() as NodeId;
    let mut b = GraphBuilder::new(n as usize);
    b.extend_edges(g.edges());
    b.extend_edges((0..n).flat_map(|v| [(v, (v + 1) % n), ((v + 1) % n, v)]));
    b.build()
}

/// Drive one randomized update/query scenario from `g0`; every served
/// answer is checked bit for bit, and the final index against a scratch
/// rebuild. Returns (queries checked, update batches applied, update
/// batches that left the graph strongly connected — where the old
/// reachability predicates could never skip a vector — and how many of
/// those the read-set predicate skipped something in) for calibration
/// assertions at the call sites.
fn differential_scenario(
    g0: CsrGraph,
    seed: u64,
    events: usize,
) -> Result<(usize, usize, usize, usize), String> {
    let machines = 3;
    let cfg = PprConfig::default();
    let n = g0.node_count();
    let mut server = DynamicPprServer::build(
        g0.clone(),
        &cfg,
        &opts(machines),
        ServeConfig {
            max_batch: 4,
            ..Default::default()
        },
    );
    let mut stream = MixedStream::new(
        &g0,
        MixedStreamConfig {
            update_rate: 0.25,
            updates_per_batch: 3,
            zipf_exponent: 1.0,
            ..Default::default()
        },
        seed ^ 0xABCD,
    );
    let mut g_shadow = g0; // maintained independently of the server
    let mut queries = 0usize;
    let mut update_batches = 0usize;
    let (mut connected, mut connected_that_skipped) = (0usize, 0usize);
    let cluster = Cluster::with_default_network();

    for event in stream.take(events) {
        match event {
            MixedEvent::Query(u) => {
                queries += 1;
                let served = server.query(u);
                let direct = cluster.query(server.index(), u).result;
                if served != direct {
                    return Err(format!(
                        "seed {seed}: served PPV of {u} diverged from a fresh \
                         fan-out after {update_batches} update batches"
                    ));
                }
            }
            MixedEvent::Update(batch) => {
                update_batches += 1;
                g_shadow = delta::apply_edge_updates(&g_shadow, &batch);
                let out = server
                    .apply_updates(&batch)
                    .map_err(|e| format!("seed {seed}: valid batch rejected: {e}"))?;
                // The stream only emits sequentially effective updates,
                // so nothing is skipped as a no-op — but pairs that
                // reverse within a batch coalesce away before reaching
                // the incremental updater.
                if out.skipped != 0 {
                    return Err(format!(
                        "seed {seed}: stream emitted a no-op update in {batch:?}"
                    ));
                }
                if out.applied + out.coalesced != batch.len() {
                    return Err(format!(
                        "seed {seed}: applied {} + coalesced {} != batch {} in {batch:?}",
                        out.applied,
                        out.coalesced,
                        batch.len()
                    ));
                }
                if strongly_connected_components(server.graph()).count == 1 {
                    connected += 1;
                    connected_that_skipped += usize::from(out.stats.vectors_skipped > 0);
                }
            }
            MixedEvent::Churn(_) => unreachable!("churn disabled in this config"),
        }
    }

    // The server's graph must track the independently maintained shadow.
    if !server.graph().edges().eq(g_shadow.edges()) {
        return Err(format!("seed {seed}: server graph diverged from shadow"));
    }

    // Updater differential: bit-identical to a from-scratch recomputation
    // of every vector on the current graph.
    let rebuilt = scratch_rebuild(&server, &cfg, machines);
    for u in (0..n as NodeId).step_by(7) {
        if server.index().query(u) != rebuilt.query(u) {
            return Err(format!(
                "seed {seed}: maintained index diverged from scratch rebuild at source {u}"
            ));
        }
    }
    Ok((queries, update_batches, connected, connected_that_skipped))
}

proptest! {
    // Default-config cases so the CI deep-test job can scale this suite
    // via `PROPTEST_CASES`.
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn served_answers_survive_random_update_streams(seed in 0u64..10_000) {
        let (queries, updates, ..) =
            differential_scenario(sample(72, seed), seed, 24).map_err(|e| e.to_string())?;
        prop_assert!(queries + updates == 24);
    }
}

#[test]
fn differential_scenario_exercises_both_sides() {
    // One deterministic, bigger run — and proof the scenario actually
    // mixes reads and writes rather than vacuously passing.
    let (queries, updates, ..) = differential_scenario(sample(120, 42), 42, 60).unwrap();
    assert!(queries >= 30, "only {queries} queries");
    assert!(updates >= 5, "only {updates} update batches");
}

#[test]
fn read_sets_skip_vectors_on_a_strongly_connected_graph() {
    // The same scenario (bit-identity to a scratch rebuild included) on a
    // graph that stays one strongly connected component. There every
    // node reaches and is reached by every touched node, so the
    // reachability predicates this suite used to run under recomputed
    // every vector of every dirty subgraph; the read-set predicate must
    // still skip some, in every batch.
    let (_, updates, connected, skipped) =
        differential_scenario(with_ring(&sample(120, 42)), 42, 60).unwrap();
    assert!(connected >= 5 && connected == updates, "{connected} of {updates}");
    assert_eq!(skipped, connected);
}

#[test]
fn maintained_server_matches_dense_oracle() {
    // End-to-end exactness on the *final* graph after a long update
    // stream: the served answers solve the PPR linear system of the
    // current graph within the epsilon contract.
    let n = 90;
    let cfg = PprConfig {
        epsilon: 1e-9,
        ..Default::default()
    };
    let g0 = sample(n, 9);
    let mut server =
        DynamicPprServer::build(g0.clone(), &cfg, &opts(3), ServeConfig::default());
    let mut stream = MixedStream::new(
        &g0,
        MixedStreamConfig {
            update_rate: 1.0, // updates only
            updates_per_batch: 2,
            ..Default::default()
        },
        77,
    );
    for event in stream.take(8) {
        if let MixedEvent::Update(batch) = event {
            server.apply_updates(&batch).expect("valid update batch");
        }
    }
    for u in [0u32, 30, 60, 89] {
        let oracle = dense_ppv(server.graph(), u, 0.15);
        let served = server.query(u);
        for v in 0..n as NodeId {
            assert!(
                (served.get(v) - oracle[v as usize]).abs() < 1e-5,
                "u {u} v {v}: {} vs {}",
                served.get(v),
                oracle[v as usize]
            );
        }
    }
}

/// Two disconnected 3-communities: updates inside one half provably
/// cannot affect sources in the other.
fn disjoint_halves(half: usize) -> CsrGraph {
    let n = 2 * half;
    let mut b = GraphBuilder::new(n);
    for base in [0, half] {
        for i in 0..half {
            let at = |k: usize| (base + (i + k) % half) as NodeId;
            b.push_edge(at(0), at(1)); // ring
            b.push_edge(at(0), at(3)); // chord
            b.push_edge(at(1), at(0)); // reciprocity
        }
    }
    b.build()
}

#[test]
fn cache_retention_is_fine_grained_not_a_clear() {
    let g = disjoint_halves(40);
    let n = g.node_count();
    let cfg = PprConfig::default();
    let mut server = DynamicPprServer::build(g, &cfg, &opts(3), ServeConfig::default());

    // Warm the cache with sources from both halves.
    let sources: Vec<NodeId> = vec![0, 5, 11, 41, 47, 63];
    for &u in &sources {
        server.query(u);
    }
    assert_eq!(server.cache_len(), sources.len());
    let hits_before = server.cache_stats().hits;

    // Update touching only the second half: insert an edge between two
    // members of one leaf subgraph there (fall back to any in-half pair).
    let (a, b) = {
        let h = server.index().hierarchy();
        h.leaves()
            .map(|l| &h.nodes[l].members)
            .filter(|m| m.len() >= 2 && m.iter().all(|&v| v as usize >= n / 2))
            .flat_map(|m| {
                m.iter()
                    .flat_map(|&x| m.iter().map(move |&y| (x, y)))
                    .filter(|&(x, y)| x != y && !server.graph().has_edge(x, y))
            })
            .next()
            .expect("an insertable in-leaf pair in the second half")
    };
    let outcome = server
        .apply_updates(&[EdgeUpdate::Insert(a, b)])
        .expect("valid insert");
    assert_eq!(outcome.applied, 1);

    // Fine-grained: first-half sources survive; the invalidation was not
    // a disguised clear().
    assert_eq!(outcome.retained, 3, "first-half entries must survive");
    assert!(outcome.evicted <= 3, "at most the second-half entries go");
    assert!(server.cache_len() >= 3);

    // Survivors are *hits* — and still bit-identical to fresh fan-outs
    // on the updated index.
    let cluster = Cluster::with_default_network();
    for &u in &sources[..3] {
        assert_eq!(server.query(u), cluster.query(server.index(), u).result);
    }
    let hits_after = server.cache_stats().hits;
    assert!(
        hits_after >= hits_before + 3,
        "cached PPVs must keep hitting across the update ({hits_before} -> {hits_after})"
    );
    // Second-half sources answer exactly too (fresh where evicted).
    for &u in &sources[3..] {
        assert_eq!(server.query(u), cluster.query(server.index(), u).result);
    }
    // Cumulative cache history survived the invalidation.
    assert_eq!(server.cache_stats().invalidated, outcome.evicted as u64);
}

#[test]
fn eviction_predicate_matches_reachability() {
    // The set the server evicts is exactly the reverse-reachable set of
    // the update's touched nodes, restricted to resident keys.
    let g = disjoint_halves(30);
    let cfg = PprConfig::default();
    let mut server = DynamicPprServer::build(g, &cfg, &opts(2), ServeConfig::default());
    for u in 0..60u32 {
        server.query(u);
    }
    assert_eq!(server.cache_len(), 60);
    let out = server
        .apply_updates(&[EdgeUpdate::Insert(2, 17)])
        .expect("valid insert");
    let stale = reverse_reachable(server.graph(), &out.stats.dirty_nodes);
    let expected_evicted = stale.iter().filter(|&&s| s).count();
    assert_eq!(out.evicted, expected_evicted);
    assert_eq!(out.retained, 60 - expected_evicted);
    // Specifically: the untouched half is fully retained.
    assert!((30..60).all(|v| !stale[v]));
}

#[test]
fn open_loop_report_is_deterministic_and_consistent() {
    let make = || {
        let g0 = sample(100, 13);
        let server = DynamicPprServer::build(
            g0.clone(),
            &PprConfig::default(),
            &opts(3),
            ServeConfig {
                max_batch: 4,
                ..Default::default()
            },
        );
        let events: Vec<ServeEvent> = MixedStream::new(
            &g0,
            MixedStreamConfig {
                update_rate: 0.15,
                ..Default::default()
            },
            5,
        )
        .take(60)
        .into_iter()
        .map(|e| match e {
            MixedEvent::Query(u) => ServeEvent::Query(Request::Ppv(u)),
            MixedEvent::Update(batch) => ServeEvent::Update(batch),
            MixedEvent::Churn(delta) => ServeEvent::Churn(delta),
        })
        .collect();
        (server, events)
    };
    let cfg = OpenLoopConfig {
        arrival_rate: 900.0, // past saturation: queueing must show up
        seed: 31,
        ..Default::default()
    };

    let (mut s1, ev1) = make();
    let r1 = run_open_loop(&mut s1, &ev1, &cfg);
    let (mut s2, ev2) = make();
    let r2 = run_open_loop(&mut s2, &ev2, &cfg);
    // Deterministic: the whole report replays bit for bit.
    assert_eq!(r1, r2);

    // Internally consistent: counts add up, percentiles are ordered, and
    // sojourn dominates service (sojourn = wait + service, wait ≥ 0).
    assert_eq!(
        r1.queries + r1.update_batches + r1.rejected_batches,
        ev1.len()
    );
    assert!(r1.update_batches > 0);
    assert_eq!(r1.rejected_batches, 0, "this stream is churn-free");
    assert!(r1.p99_sojourn_ms >= r1.p50_sojourn_ms);
    assert!(r1.p99_service_ms >= r1.p50_service_ms);
    assert!(r1.p50_sojourn_ms >= r1.p50_service_ms);
    assert!(r1.p99_sojourn_ms >= r1.p99_service_ms);
    assert!(r1.max_sojourn_ms >= r1.p99_sojourn_ms);
    assert!(r1.mean_wait_ms >= 0.0);
    assert!(r1.makespan_seconds > 0.0);
    assert!(r1.max_queue_depth >= 2, "overload must queue events");
}
