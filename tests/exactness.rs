//! Cross-crate exactness: every algorithm in the workspace agrees with the
//! dense linear-system oracle and with each other (paper Theorems 1 & 3),
//! across graph shapes the paper's datasets exhibit — community structure,
//! dangling nodes, high reciprocity, disconnected pieces.

use exact_ppr::core::gpa::{self, GpaBuildOptions};
use exact_ppr::core::hgpa::{HgpaBuildOptions, HgpaIndex};
use exact_ppr::core::jw::JwIndex;
use exact_ppr::core::power::power_iteration;
use exact_ppr::core::PprConfig;
use exact_ppr::graph::dense::dense_ppv;
use exact_ppr::graph::generators::{gnp_directed, hierarchical_sbm, HsbmConfig};
use exact_ppr::graph::{CsrGraph, GraphBuilder};
use exact_ppr::partition::HierarchyConfig;

const ALPHA: f64 = 0.15;

fn tight() -> PprConfig {
    PprConfig {
        epsilon: 1e-9,
        ..Default::default()
    }
}

fn check_all_algorithms(g: &CsrGraph, queries: &[u32], tol: f64) {
    let cfg = tight();
    let hgpa = HgpaIndex::build(
        g,
        &cfg,
        &HgpaBuildOptions {
            hierarchy: HierarchyConfig {
                max_leaf_size: 16,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let gpa = gpa::build(g, &cfg, &GpaBuildOptions::default()).0;
    let jw = JwIndex::build(g, gpa.hub_ids(), &cfg);

    for &u in queries {
        let oracle = dense_ppv(g, u, ALPHA);
        let from_power = power_iteration(g, u, &cfg);
        let from_hgpa = hgpa.query(u);
        let from_gpa = gpa.query(u);
        let from_jw = jw.query(u);
        for v in 0..g.node_count() as u32 {
            let o = oracle[v as usize];
            assert!((from_power[v as usize] - o).abs() < tol, "power u={u} v={v}");
            assert!((from_hgpa.get(v) - o).abs() < tol, "hgpa u={u} v={v}: {} vs {o}", from_hgpa.get(v));
            assert!((from_gpa.get(v) - o).abs() < tol, "gpa u={u} v={v}: {} vs {o}", from_gpa.get(v));
            assert!((from_jw.get(v) - o).abs() < tol, "jw u={u} v={v}: {} vs {o}", from_jw.get(v));
        }
    }
}

#[test]
fn community_graph_all_agree() {
    let g = hierarchical_sbm(
        &HsbmConfig {
            nodes: 220,
            depth: 4,
            locality: 0.9,
            ..Default::default()
        },
        101,
    );
    check_all_algorithms(&g, &[0, 55, 110, 219], 1e-5);
}

#[test]
fn dangling_heavy_graph_all_agree() {
    // Email-like: min degree 1, many dangling after dedup + sparse tail.
    let mut b = GraphBuilder::new(150);
    let core = hierarchical_sbm(
        &HsbmConfig {
            nodes: 100,
            depth: 3,
            ..Default::default()
        },
        5,
    );
    for (u, v) in core.edges() {
        b.push_edge(u, v);
    }
    // 50 extra nodes that only receive edges (dangling).
    for i in 0..50u32 {
        b.push_edge(i % 100, 100 + i);
    }
    let g = b.build();
    assert!(g.dangling_nodes().len() >= 50);
    check_all_algorithms(&g, &[0, 42, 99], 1e-5);
}

#[test]
fn reciprocal_social_graph_all_agree() {
    let g = hierarchical_sbm(
        &HsbmConfig {
            nodes: 200,
            depth: 4,
            reciprocity: 0.8,
            min_degree: 3,
            ..Default::default()
        },
        77,
    );
    check_all_algorithms(&g, &[10, 150], 1e-5);
}

#[test]
fn disconnected_graph_all_agree() {
    // Two disjoint communities; queries see only their own side.
    let mut b = GraphBuilder::new(120);
    for base in [0u32, 60] {
        for i in 0..60 {
            b.push_edge(base + i, base + (i + 1) % 60);
            b.push_edge(base + i, base + (i * 7 + 3) % 60);
        }
    }
    let g = b.build();
    check_all_algorithms(&g, &[5, 65], 1e-5);
    // Cross-component scores are exactly zero.
    let idx = HgpaIndex::build(&g, &tight(), &HgpaBuildOptions::default());
    let ppv = idx.query(5);
    for v in 60..120 {
        assert_eq!(ppv.get(v), 0.0, "component leak at {v}");
    }
}

#[test]
fn random_gnp_graph_all_agree() {
    // G(n,p) has no community structure: worst case for the partitioner,
    // but exactness must hold regardless (Theorem 1/3 independence).
    let g = gnp_directed(120, 0.04, 33);
    check_all_algorithms(&g, &[0, 60, 119], 1e-5);
}

#[test]
fn preference_sets_by_linearity() {
    // Multi-node preference vectors via the Jeh–Widom linearity theorem:
    // the weighted sum of single-node queries.
    let g = hierarchical_sbm(
        &HsbmConfig {
            nodes: 150,
            ..Default::default()
        },
        13,
    );
    let cfg = tight();
    let idx = HgpaIndex::build(&g, &cfg, &HgpaBuildOptions::default());
    let pref = [(3u32, 0.5), (77u32, 0.3), (120u32, 0.2)];
    let oracle = exact_ppr::graph::dense::dense_ppv_preference(&g, &pref, ALPHA);
    let mut combined = vec![0.0f64; 150];
    for &(u, w) in &pref {
        for (v, x) in idx.query(u).iter() {
            combined[v as usize] += w * x;
        }
    }
    for v in 0..150 {
        assert!((combined[v] - oracle[v]).abs() < 1e-5, "v={v}");
    }
}

#[test]
fn preference_set_queries_are_first_class() {
    let g = hierarchical_sbm(
        &HsbmConfig {
            nodes: 180,
            ..Default::default()
        },
        29,
    );
    let cfg = tight();
    let pref = [(4u32, 0.6), (90u32, 0.4)];
    let oracle = exact_ppr::graph::dense::dense_ppv_preference(&g, &pref, ALPHA);

    let hgpa = HgpaIndex::build(&g, &cfg, &HgpaBuildOptions::default());
    let gpa = gpa::build(&g, &cfg, &GpaBuildOptions::default()).0;
    let jw = JwIndex::build(&g, gpa.hub_ids(), &cfg);
    let from_hgpa = hgpa.query_preference(&pref);
    let from_gpa = gpa.query_preference(&pref);
    let from_jw = jw.query_preference(&pref);
    for v in 0..180u32 {
        let o = oracle[v as usize];
        assert!((from_hgpa.get(v) - o).abs() < 1e-5, "hgpa v={v}");
        assert!((from_gpa.get(v) - o).abs() < 1e-5, "gpa v={v}");
        assert!((from_jw.get(v) - o).abs() < 1e-5, "jw v={v}");
    }

    // Through the cluster: still one round, same answer.
    let cluster = exact_ppr::cluster::Cluster::with_default_network();
    let report = cluster.query_preference(&hgpa, &pref);
    for v in 0..180u32 {
        assert!((report.result.get(v) - from_hgpa.get(v)).abs() < 1e-12);
    }
    assert_eq!(report.machines.len(), hgpa.machines());
}

#[test]
fn epsilon_contract_gpa_and_hgpa_match_power_iteration() {
    // The exactness contract the indexes advertise: ε bounds the
    // per-entry residual (PprConfig docs), and unpushed residual mass r
    // contributes at most r/α to any PPV entry. Reconstruction composes
    // two ε-accurate stages (partial vectors, then hub skeletons), so a
    // query built at tolerance ε matches the power-iteration ground
    // truth within 2ε/α. Measured errors sit at ~1.1·ε/α and scale
    // linearly with ε.
    let g = hierarchical_sbm(
        &HsbmConfig {
            nodes: 160,
            depth: 3,
            ..Default::default()
        },
        57,
    );
    let truth_cfg = PprConfig {
        epsilon: 1e-12,
        ..Default::default()
    };
    for epsilon in [1e-4, 1e-6, 1e-8] {
        let cfg = PprConfig {
            epsilon,
            ..Default::default()
        };
        let gpa = gpa::build(&g, &cfg, &GpaBuildOptions::default()).0;
        let hgpa = HgpaIndex::build(&g, &cfg, &HgpaBuildOptions::default());
        let bound = 2.0 * epsilon / cfg.alpha;
        for q in [0u32, 40, 80, 159] {
            let truth = power_iteration(&g, q, &truth_cfg);
            let from_gpa = gpa.query(q);
            let from_hgpa = hgpa.query(q);
            for v in 0..g.node_count() as u32 {
                let t = truth[v as usize];
                assert!(
                    (from_gpa.get(v) - t).abs() <= bound,
                    "GPA breaks ε-contract: ε={epsilon} q={q} v={v}: {} vs {t}",
                    from_gpa.get(v)
                );
                assert!(
                    (from_hgpa.get(v) - t).abs() <= bound,
                    "HGPA breaks ε-contract: ε={epsilon} q={q} v={v}: {} vs {t}",
                    from_hgpa.get(v)
                );
            }
        }
    }
}

#[test]
fn alpha_sweep_stays_exact() {
    let g = hierarchical_sbm(
        &HsbmConfig {
            nodes: 100,
            ..Default::default()
        },
        9,
    );
    for alpha in [0.05, 0.15, 0.5, 0.85] {
        let cfg = PprConfig {
            alpha,
            epsilon: 1e-9,
            ..Default::default()
        };
        let idx = HgpaIndex::build(&g, &cfg, &HgpaBuildOptions::default());
        let oracle = dense_ppv(&g, 20, alpha);
        let got = idx.query(20);
        for v in 0..100u32 {
            assert!(
                (oracle[v as usize] - got.get(v)).abs() < 1e-5,
                "alpha {alpha} v {v}"
            );
        }
    }
}
