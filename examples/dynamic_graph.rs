//! Operating an index over time: persist the precomputed state to disk,
//! reload it, and keep it exact under edge insertions/removals with
//! chain-local incremental updates (instead of full rebuilds).
//!
//! ```text
//! cargo run --release --example dynamic_graph
//! ```

use exact_ppr::core::hgpa::{HgpaBuildOptions, HgpaIndex};
use exact_ppr::core::persist::{load_index_file, save_hgpa_file};
use exact_ppr::core::power::power_iteration;
use exact_ppr::core::PprConfig;
use exact_ppr::graph::generators::{hierarchical_sbm, HsbmConfig};
use exact_ppr::graph::{CsrGraph, GraphBuilder, NodeId};

fn add_edge(g: &CsrGraph, u: NodeId, v: NodeId) -> CsrGraph {
    let mut b = GraphBuilder::new(g.node_count());
    for (a, c) in g.edges() {
        b.push_edge(a, c);
    }
    b.push_edge(u, v);
    b.build()
}

fn main() {
    let cfg = PprConfig {
        epsilon: 1e-7,
        ..Default::default()
    };
    let g0 = hierarchical_sbm(
        &HsbmConfig {
            nodes: 1_500,
            depth: 5,
            locality: 0.9,
            ..Default::default()
        },
        3,
    );

    // Day 0: the expensive offline phase, persisted per deployment.
    let t = std::time::Instant::now();
    let index = HgpaIndex::build(&g0, &cfg, &HgpaBuildOptions::default());
    let build_time = t.elapsed();
    let path = std::env::temp_dir().join("exact_ppr_demo.pprx");
    save_hgpa_file(&index, &path).expect("persist index");
    let bytes = std::fs::metadata(&path).unwrap().len();
    println!(
        "built in {build_time:.2?} ({} stored entries), persisted {} KB to {}",
        index.stored_entries(),
        bytes / 1024,
        path.display()
    );

    // Day 1: a new process loads the index instead of rebuilding.
    let t = std::time::Instant::now();
    let mut index = load_index_file(&path).expect("reload index");
    println!("reloaded in {:.2?}", t.elapsed());

    // The graph evolves: three new edges arrive.
    let updates = [(10u32, 1_200u32), (700, 42), (1_499, 3)];
    let mut g = g0;
    for (u, v) in updates {
        if g.has_edge(u, v) {
            continue;
        }
        g = add_edge(&g, u, v);
        let t = std::time::Instant::now();
        let stats = index
            .apply_edge_updates(&g, &[(u, v)])
            .expect("endpoints are live");
        println!(
            "insert ({u}, {v}): {} subgraphs swept, {} vectors recomputed, {} provably clean (skipped){} in {:.2?}",
            stats.subgraphs_recomputed,
            stats.vectors_recomputed,
            stats.vectors_skipped,
            if stats.promoted_hubs.is_empty() {
                String::new()
            } else {
                format!(", promoted hubs {:?}", stats.promoted_hubs)
            },
            t.elapsed()
        );
    }

    // Still exact after all of it.
    let reference = power_iteration(&g, 10, &cfg);
    let ppv = index.query(10);
    let max_err = (0..g.node_count() as u32)
        .map(|v| (reference[v as usize] - ppv.get(v)).abs())
        .fold(0.0f64, f64::max);
    println!("max |index - power iteration| after updates = {max_err:.2e}");
    assert!(max_err < 1e-4);
    std::fs::remove_file(&path).ok();
}
