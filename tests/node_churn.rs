//! Node-churn differential suite: the index and the dynamic server must
//! stay *exact while the node set changes*.
//!
//! Two property nets:
//!
//! * random mixed streams of queries, edge batches, and **node churn**
//!   (adds wired into the live graph, removals with incident-edge drops)
//!   driven through [`DynamicPprServer::apply_delta`] — over an HGPA
//!   index on even seeds and a GPA (one-level HGPA) index on odd ones —
//!   with every served
//!   answer compared bit for bit against a fresh cluster fan-out and the
//!   final maintained index against a from-scratch recomputation of every
//!   vector on the final graph (over the maintained hierarchy — the
//!   incremental path's own structure is part of what is being checked);
//! * repeated **cross-child insertions** that force promotion cascades at
//!   varying hierarchy levels: each one must promote exactly the inserted
//!   edge's source, restore the separation invariant everywhere, keep
//!   `promoted_hubs`/`dirty_nodes` consistent, and leave the index
//!   bit-identical to a scratch rebuild.

mod common;

use common::scc::strongly_connected_components;
use exact_ppr::core::hgpa::{HgpaBuildOptions, HgpaIndex};
use exact_ppr::core::PprConfig;
use exact_ppr::graph::generators::{hierarchical_sbm, HsbmConfig};
use exact_ppr::graph::{apply_delta, delta, CsrGraph, EdgeUpdate, GraphBuilder, NodeId};
use exact_ppr::partition::{flat_partition, CoverAlgorithm, Hierarchy, HierarchyConfig};
use exact_ppr::prelude::{Cluster, DynamicPprServer, MaintenanceEngine, ServeConfig};
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

/// `g` plus two-way rings of stride 1 and 7: strongly connected by
/// construction (and still so after a few node removals) — the topology
/// on which whole-graph reachability proves nothing about any vector.
fn with_rings(g: &CsrGraph) -> CsrGraph {
    let n = g.node_count() as NodeId;
    let mut b = GraphBuilder::new(n as usize);
    b.extend_edges(g.edges());
    for stride in [1, 7] {
        b.extend_edges((0..n).flat_map(|v| [(v, (v + stride) % n), ((v + stride) % n, v)]));
    }
    b.build()
}

/// Are the live nodes of `g` one strongly connected component?
/// (Tombstones are isolated, so each is a component of its own.)
fn strongly_connected(g: &CsrGraph, live: impl Fn(NodeId) -> bool) -> bool {
    let scc = strongly_connected_components(g);
    let mut of_live = (0..g.node_count() as NodeId)
        .filter(|&v| live(v))
        .map(|v| scc.component_of[v as usize]);
    of_live.next().is_none_or(|c| of_live.all(|d| d == c))
}

/// What one churn scenario drove: event counts, and how the update
/// batches that landed on a strongly connected graph fared — there the
/// old reachability predicates could never skip a vector.
#[derive(Debug, Default)]
struct Driven {
    queries: usize,
    edge_batches: usize,
    churn_batches: usize,
    /// Update batches after which the live graph was strongly connected.
    connected_batches: usize,
    /// ... of which the read-set predicate skipped at least one vector.
    connected_batches_that_skipped: usize,
}

impl Driven {
    fn record(&mut self, server: &DynamicPprServer, skipped: usize) {
        if strongly_connected(server.graph(), |v| server.index().is_live(v)) {
            self.connected_batches += 1;
            self.connected_batches_that_skipped += usize::from(skipped > 0);
        }
    }
}

fn opts(machines: usize, max_leaf_size: usize) -> HgpaBuildOptions {
    HgpaBuildOptions {
        machines,
        hierarchy: HierarchyConfig {
            max_leaf_size,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The separation invariant, checked from first principles over the
/// public hierarchy: in every internal subgraph, an edge between two
/// non-hub members must stay inside one child.
fn separation_holds(idx: &HgpaIndex, g: &CsrGraph) -> Result<(), String> {
    let h = idx.hierarchy();
    for (sg, node) in h.nodes.iter().enumerate() {
        if node.children.is_empty() {
            continue;
        }
        for (u, v) in g.edges() {
            if node.members.binary_search(&u).is_err()
                || node.members.binary_search(&v).is_err()
                || node.hubs.binary_search(&u).is_ok()
                || node.hubs.binary_search(&v).is_ok()
            {
                continue;
            }
            let child_of = |x: NodeId| {
                node.children
                    .iter()
                    .position(|&c| h.nodes[c].members.binary_search(&x).is_ok())
            };
            match (child_of(u), child_of(v)) {
                (Some(a), Some(b)) if a == b => {}
                (Some(_), Some(_)) => {
                    return Err(format!(
                        "edge ({u}, {v}) crosses children of subgraph {sg} without a hub endpoint"
                    ));
                }
                _ => {
                    return Err(format!(
                        "a member of subgraph {sg} belongs to none of its children"
                    ));
                }
            }
        }
    }
    Ok(())
}

const MACHINES: usize = 3;

/// The scenario's starting index over `g`: HGPA's recursive hierarchy on
/// even seeds, GPA's one-level hierarchy of a flat partition on odd ones.
fn start_index(g: &CsrGraph, seed: u64) -> HgpaIndex {
    let opts = opts(MACHINES, 12);
    let hierarchy = if seed.is_multiple_of(2) {
        Hierarchy::build(g, &opts.hierarchy)
    } else {
        let parts = 2 + (seed / 2 % 4) as usize;
        let flat = flat_partition(g, parts, CoverAlgorithm::KonigExact, &Default::default());
        Hierarchy::from_flat(&flat)
    };
    HgpaIndex::build_with_hierarchy(g, &PprConfig::default(), &opts, hierarchy)
}

/// Drive one randomized churn scenario from `g0` and its starting
/// `index`; every served answer is checked bit for bit, and the final
/// index against a scratch recomputation. Returns what was driven, for
/// calibration.
fn churn_scenario(
    g0: CsrGraph,
    index: HgpaIndex,
    seed: u64,
    events: usize,
) -> Result<Driven, String> {
    let cfg = *index.config();
    let mut server = DynamicPprServer::from_index(
        g0.clone(),
        index,
        ServeConfig {
            max_batch: 4,
            ..Default::default()
        },
    );
    let mut stream = MixedStream::new(
        &g0,
        MixedStreamConfig {
            update_rate: 0.25,
            updates_per_batch: 2,
            churn_rate: 0.3,
            zipf_exponent: 1.0,
            ..Default::default()
        },
        seed ^ 0xC0FE,
    );
    let mut g_shadow = g0; // maintained independently of the server
    let cluster = Cluster::with_default_network();
    let mut driven = Driven::default();

    for event in stream.take(events) {
        match event {
            MixedEvent::Query(u) => {
                driven.queries += 1;
                let served = server.query(u);
                let direct = cluster.query(server.index(), u).result;
                if served != direct {
                    return Err(format!(
                        "seed {seed}: served PPV of {u} diverged from a fresh fan-out"
                    ));
                }
            }
            MixedEvent::Update(batch) => {
                driven.edge_batches += 1;
                g_shadow = delta::apply_edge_updates(&g_shadow, &batch);
                let out = server
                    .apply_updates(&batch)
                    .map_err(|e| format!("seed {seed}: valid edge batch rejected: {e}"))?;
                driven.record(&server, out.stats.vectors_skipped);
            }
            MixedEvent::Churn(d) => {
                driven.churn_batches += 1;
                let shadow_applied = apply_delta(&g_shadow, &d)
                    .map_err(|e| format!("seed {seed}: stream emitted invalid churn: {e}"))?;
                g_shadow = shadow_applied.graph;
                let out = server
                    .apply_delta(&d)
                    .map_err(|e| format!("seed {seed}: valid churn batch rejected: {e}"))?;
                if out.stats.nodes_added != shadow_applied.added.len()
                    || out.stats.nodes_removed != shadow_applied.removed.len()
                {
                    return Err(format!("seed {seed}: churn accounting diverged"));
                }
                // Removed nodes answer empty immediately; the stats'
                // touched set names every churned node.
                for &v in &shadow_applied.removed {
                    if server.index().is_live(v) || server.query(v).nnz() != 0 {
                        return Err(format!("seed {seed}: removed node {v} still serves"));
                    }
                    if !out.stats.dirty_nodes.contains(&v) {
                        return Err(format!("seed {seed}: removed {v} missing from dirty_nodes"));
                    }
                }
                for &v in &shadow_applied.added {
                    if !server.index().is_live(v) {
                        return Err(format!("seed {seed}: added node {v} is not live"));
                    }
                }
                driven.record(&server, out.stats.vectors_skipped);
            }
        }
    }

    // The server's graph must track the independently maintained shadow.
    if server.graph().node_count() != g_shadow.node_count()
        || !server.graph().edges().eq(g_shadow.edges())
    {
        return Err(format!("seed {seed}: server graph diverged from shadow"));
    }

    // Updater differential: bit-identical to a from-scratch recomputation
    // of every vector on the final (post-churn) graph.
    let rebuilt = HgpaIndex::build_with_hierarchy(
        server.graph(),
        &cfg,
        &opts(MACHINES, 12),
        server.index().hierarchy().clone(),
    );
    for u in 0..server.graph().node_count() as NodeId {
        if u % 5 != 0 && server.index().is_live(u) {
            continue; // all dead nodes + every 5th live node
        }
        if server.index().query(u) != rebuilt.query(u) {
            return Err(format!(
                "seed {seed}: maintained index diverged from scratch rebuild at source {u}"
            ));
        }
    }
    separation_holds(server.index(), server.graph()).map_err(|e| format!("seed {seed}: {e}"))?;
    Ok(driven)
}

proptest! {
    // Default-config cases so the CI deep-test job can scale this suite
    // via `PROPTEST_CASES`.
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn served_answers_survive_node_churn_streams(seed in 0u64..10_000) {
        let g = sample(64, seed);
        let d = churn_scenario(g.clone(), start_index(&g, seed), seed, 18)?;
        prop_assert!(d.queries + d.edge_batches + d.churn_batches == 18);
    }

    #[test]
    fn promotion_cascades_restore_separation(seed in 0u64..10_000) {
        let machines = 3;
        let cfg = PprConfig::default();
        let mut g = sample(96, seed);
        let mut idx = HgpaIndex::build(&g, &cfg, &opts(machines, 8));
        let mut engine = MaintenanceEngine::new();
        let mut promoted_total = 0usize;

        for round in 0..6usize {
            // Pick a cross-leaf non-edge: its LCA is an internal subgraph
            // whose separation the insertion breaks, forcing a promotion
            // at that level (varying the leaves varies the level).
            let leaves: Vec<usize> = idx.hierarchy().leaves().collect();
            let la = leaves[(seed as usize + round) % leaves.len()];
            let lb = leaves[(seed as usize / 3 + 2 * round + 1) % leaves.len()];
            if la == lb {
                continue;
            }
            let pick = |l: usize, salt: usize| -> Option<NodeId> {
                let m = &idx.hierarchy().nodes[l].members;
                if m.is_empty() { None } else { Some(m[salt % m.len()]) }
            };
            let (Some(u), Some(v)) = (pick(la, seed as usize + round), pick(lb, round)) else {
                continue;
            };
            if u == v || g.has_edge(u, v) {
                continue;
            }
            g = delta::apply_edge_updates(&g, &[EdgeUpdate::Insert(u, v)]);
            let stats = engine
                .apply_edges(&mut idx, &g, &[(u, v)])
                .map_err(|e| format!("seed {seed} round {round}: {e}"))?;

            // Exactly the inserted edge's source is promoted, it is a hub
            // now, and every promoted hub is in the touched set.
            prop_assert!(stats.promoted_hubs == vec![u],
                "round {round}: promoted {:?}, expected [{u}]", stats.promoted_hubs);
            prop_assert!(idx.hierarchy().hub_level[u as usize].is_some());
            for &h in &stats.promoted_hubs {
                prop_assert!(stats.dirty_nodes.contains(&h));
            }
            prop_assert!(stats.dirty_nodes.contains(&u) && stats.dirty_nodes.contains(&v));
            promoted_total += stats.promoted_hubs.len();

            separation_holds(&idx, &g).map_err(|e| format!("seed {seed} round {round}: {e}"))?;
        }
        prop_assert!(promoted_total >= 2, "only {promoted_total} promotions in 6 rounds");

        // After the whole cascade: bit-identical to a scratch rebuild over
        // the maintained hierarchy.
        let rebuilt =
            HgpaIndex::build_with_hierarchy(&g, &cfg, &opts(machines, 8), idx.hierarchy().clone());
        for s in (0..96u32).step_by(7) {
            prop_assert!(idx.query(s) == rebuilt.query(s), "source {s} diverged");
        }
    }
}

#[test]
fn churn_scenario_exercises_all_event_kinds() {
    // One deterministic, bigger run — and proof the scenario actually
    // mixes reads, edge writes, and node churn rather than vacuously
    // passing.
    let g = sample(120, 1234);
    let d = churn_scenario(g.clone(), start_index(&g, 1234), 1234, 60).unwrap();
    assert!(d.queries >= 20, "only {} queries", d.queries);
    assert!(d.edge_batches >= 4, "only {} edge batches", d.edge_batches);
    assert!(d.churn_batches >= 8, "only {} churn batches", d.churn_batches);
}

#[test]
fn read_sets_skip_vectors_where_reachability_cannot() {
    // The same stream (bit-identity to a scratch rebuild included) from a
    // strongly connected start. While the live graph stays one component
    // every node reaches and is reached by every touched node, so the
    // reachability predicates this suite used to run under recomputed
    // every vector of every dirty subgraph; the read-set predicate must
    // still skip some, in every such batch.
    let g = with_rings(&sample(120, 1234));
    let d = churn_scenario(g.clone(), start_index(&g, 1234), 1234, 60).unwrap();
    assert!(d.connected_batches >= 6, "only {} batches", d.connected_batches);
    assert_eq!(d.connected_batches_that_skipped, d.connected_batches, "{d:?}");
}
