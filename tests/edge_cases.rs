//! Degenerate and adversarial inputs: the indexes must stay correct (or
//! fail loudly) on graphs real deployments encounter — tiny, empty-ish,
//! star-shaped, self-loop-preprocessed, single-community.

use exact_ppr::core::gpa::{self, GpaBuildOptions};
use exact_ppr::core::hgpa::{HgpaBuildOptions, HgpaIndex};
use exact_ppr::core::power::{power_iteration, power_iteration_full, DanglingPolicy};
use exact_ppr::core::PprConfig;
use exact_ppr::graph::analytics::add_dangling_self_loops;
use exact_ppr::graph::csr::from_edges;
use exact_ppr::graph::dense::dense_ppv;
use exact_ppr::graph::GraphBuilder;

fn tight() -> PprConfig {
    PprConfig {
        epsilon: 1e-9,
        ..Default::default()
    }
}

#[test]
fn single_node_graph() {
    let g = from_edges(1, &[]);
    let idx = HgpaIndex::build(&g, &tight(), &HgpaBuildOptions::default());
    let ppv = idx.query(0);
    assert!((ppv.get(0) - 0.15).abs() < 1e-9);
    assert_eq!(ppv.nnz(), 1);
}

#[test]
fn two_node_graph() {
    let g = from_edges(2, &[(0, 1), (1, 0)]);
    let idx = HgpaIndex::build(&g, &tight(), &HgpaBuildOptions::default());
    let oracle = dense_ppv(&g, 0, 0.15);
    let got = idx.query(0);
    assert!((got.get(0) - oracle[0]).abs() < 1e-8);
    assert!((got.get(1) - oracle[1]).abs() < 1e-8);
}

#[test]
fn edgeless_graph() {
    let g = from_edges(5, &[]);
    let idx = HgpaIndex::build(&g, &tight(), &HgpaBuildOptions::default());
    for u in 0..5 {
        let ppv = idx.query(u);
        assert!((ppv.get(u) - 0.15).abs() < 1e-9);
        assert_eq!(ppv.nnz(), 1);
    }
}

#[test]
fn star_graph_center_and_leaf_queries() {
    // Hub-and-spoke: worst case for partitioners (no good separator other
    // than the centre itself).
    let mut b = GraphBuilder::new(40);
    for i in 1..40u32 {
        b.push_edge(0, i);
        b.push_edge(i, 0);
    }
    let g = b.build();
    let idx = HgpaIndex::build(&g, &tight(), &HgpaBuildOptions::default());
    for u in [0u32, 1, 39] {
        let oracle = dense_ppv(&g, u, 0.15);
        let got = idx.query(u);
        for v in 0..40u32 {
            assert!(
                (got.get(v) - oracle[v as usize]).abs() < 1e-6,
                "u {u} v {v}"
            );
        }
    }
}

#[test]
fn self_loop_preprocessed_graph_is_exact_and_stochastic() {
    let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 5)]);
    assert!(!g.dangling_nodes().is_empty());
    let fixed = add_dangling_self_loops(&g);
    let idx = HgpaIndex::build(&fixed, &tight(), &HgpaBuildOptions::default());
    let ppv = idx.query(0);
    // Stochastic: all mass retained.
    assert!((ppv.l1_norm() - 1.0).abs() < 1e-6);
    let oracle = dense_ppv(&fixed, 0, 0.15);
    for v in 0..6u32 {
        assert!((ppv.get(v) - oracle[v as usize]).abs() < 1e-6);
    }
}

#[test]
fn more_machines_than_meaningful_work() {
    let g = from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)]);
    let idx = HgpaIndex::build(
        &g,
        &tight(),
        &HgpaBuildOptions {
            machines: 32, // far more machines than hubs/leaves
            ..Default::default()
        },
    );
    let oracle = dense_ppv(&g, 3, 0.15);
    // Machine vectors still sum to the exact answer; idle machines reply
    // with (nearly) empty vectors.
    let mut dense = [0.0f64; 8];
    for m in 0..32 {
        for (v, x) in idx.machine_vector(3, m).iter() {
            dense[v as usize] += x;
        }
    }
    for v in 0..8 {
        assert!((dense[v] - oracle[v]).abs() < 1e-7, "v {v}");
    }
}

#[test]
fn gpa_with_more_parts_than_nodes() {
    let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
    let idx = gpa::build(
        &g,
        &tight(),
        &GpaBuildOptions {
            subgraphs: 16,
            machines: 3,
            ..Default::default()
        },
    )
    .0;
    let oracle = dense_ppv(&g, 2, 0.15);
    let got = idx.query(2);
    for v in 0..5u32 {
        assert!((got.get(v) - oracle[v as usize]).abs() < 1e-7);
    }
}

#[test]
fn restart_policy_differs_from_absorb_only_with_dangling() {
    let no_dangling = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
    let a = power_iteration(&no_dangling, 0, &tight());
    let b = power_iteration_full(&no_dangling, 0, &tight(), DanglingPolicy::RestartToSource).ppv;
    for v in 0..3 {
        assert!((a[v] - b[v]).abs() < 1e-10, "policies must agree without dangling");
    }

    let with_dangling = from_edges(3, &[(0, 1), (1, 2)]);
    let a = power_iteration(&with_dangling, 0, &tight());
    let b =
        power_iteration_full(&with_dangling, 0, &tight(), DanglingPolicy::RestartToSource).ppv;
    assert!((a[0] - b[0]).abs() > 1e-6, "policies must differ with dangling");
}

#[test]
fn persisted_index_survives_for_degenerate_graphs() {
    let g = from_edges(2, &[(0, 1)]);
    let idx = HgpaIndex::build(&g, &tight(), &HgpaBuildOptions::default());
    let mut buf = Vec::new();
    exact_ppr::core::persist::save_hgpa(&idx, &mut buf).unwrap();
    let loaded = exact_ppr::core::persist::load_index(buf.as_slice()).unwrap();
    assert_eq!(idx.query(0), loaded.query(0));
    assert_eq!(idx.query(1), loaded.query(1));
}
