//! Distributed-execution integration: one communication round, Theorem 4's
//! traffic bound, load balance, and agreement between the cluster path and
//! centralized queries — across machine counts and both indexes.

use exact_ppr::cluster::{Cluster, ClusterConfig, NetworkModel};
use exact_ppr::core::gpa::{self, GpaBuildOptions};
use exact_ppr::core::hgpa::{HgpaBuildOptions, HgpaIndex};
use exact_ppr::core::PprConfig;
use exact_ppr::workload::{query_nodes, Dataset};

fn cfg() -> PprConfig {
    PprConfig {
        epsilon: 1e-7,
        ..Default::default()
    }
}

#[test]
fn hgpa_cluster_agrees_with_centralized_across_machine_counts() {
    let g = Dataset::Web.generate_with_nodes(1_200);
    let cluster = Cluster::with_default_network();
    for machines in [1usize, 3, 7, 10] {
        let idx = HgpaIndex::build(
            &g,
            &cfg(),
            &HgpaBuildOptions {
                machines,
                ..Default::default()
            },
        );
        for &q in &query_nodes(&g, 4, 3) {
            let report = cluster.query(&idx, q);
            let central = idx.query(q);
            assert_eq!(report.machines.len(), machines);
            for v in 0..g.node_count() as u32 {
                assert!(
                    (report.result.get(v) - central.get(v)).abs() < 1e-12,
                    "machines {machines} q {q} v {v}"
                );
            }
        }
    }
}

#[test]
fn theorem4_traffic_bound_holds() {
    // Communication is O(n·|V|): each machine ships at most one |V|-sized
    // vector per query, regardless of dataset or tolerance.
    let g = Dataset::Youtube.generate_with_nodes(1_500);
    let cluster = Cluster::with_default_network();
    for machines in [2usize, 5, 10] {
        let idx = HgpaIndex::build(
            &g,
            &cfg(),
            &HgpaBuildOptions {
                machines,
                ..Default::default()
            },
        );
        let per_vector_cap = 8 + 12 * g.node_count() as u64;
        for &q in &query_nodes(&g, 3, 11) {
            let report = cluster.query(&idx, q);
            for m in &report.machines {
                assert!(m.bytes_sent <= per_vector_cap, "machine over bound");
            }
            assert!(report.total_bytes() <= machines as u64 * per_vector_cap);
        }
    }
}

#[test]
fn gpa_cluster_agrees_too() {
    let g = Dataset::Email.generate_with_nodes(900);
    let idx = gpa::build(
        &g,
        &cfg(),
        &GpaBuildOptions {
            subgraphs: 6,
            machines: 4,
            ..Default::default()
        },
    )
    .0;
    let cluster = Cluster::new(ClusterConfig {
        machines: 4,
        network: NetworkModel::infinite(),
        ..ClusterConfig::default()
    });
    let report = cluster.query(&idx, 100);
    let central = idx.query(100);
    for v in 0..g.node_count() as u32 {
        assert!((report.result.get(v) - central.get(v)).abs() < 1e-12);
    }
    assert_eq!(report.modeled_network_seconds, 0.0);
}

#[test]
fn offline_work_is_distributed() {
    // Per-machine offline times exist for every machine and none does all
    // the work (the §5 claim: each machine only precomputes its share).
    let g = Dataset::Web.generate_with_nodes(1_500);
    let (_, report) = HgpaIndex::build_distributed(
        &g,
        &cfg(),
        &HgpaBuildOptions {
            machines: 4,
            ..Default::default()
        },
    );
    assert_eq!(report.per_machine_seconds.len(), 4);
    let total: f64 = report.per_machine_seconds.iter().sum();
    let max = report.max_machine_seconds();
    assert!(total > 0.0);
    assert!(
        max < 0.9 * total,
        "one machine did almost everything: {:?}",
        report.per_machine_seconds
    );
}

#[test]
fn storage_partition_is_complete_and_balanced() {
    let g = Dataset::Pld.generate_with_nodes(1_500);
    let idx = HgpaIndex::build(
        &g,
        &cfg(),
        &HgpaBuildOptions {
            machines: 5,
            ..Default::default()
        },
    );
    let bytes = idx.storage_bytes_per_machine();
    assert_eq!(bytes.len(), 5);
    let total: u64 = bytes.iter().sum();
    let max = *bytes.iter().max().unwrap();
    assert!(total > 0);
    // Paper's load-balance claim: the max machine holds roughly 1/n.
    assert!(
        (max as f64) < 0.45 * total as f64,
        "storage imbalance: {bytes:?}"
    );
}

#[test]
fn runtime_metrics_are_consistent() {
    let g = Dataset::Web.generate_with_nodes(1_000);
    let idx = HgpaIndex::build(&g, &cfg(), &HgpaBuildOptions::default());
    let cluster = Cluster::with_default_network();
    let r = cluster.query(&idx, 50);
    assert!(r.runtime_seconds() >= r.max_machine_seconds());
    assert!(r.modeled_end_to_end_seconds() >= r.runtime_seconds());
    assert_eq!(
        r.total_bytes(),
        r.machines.iter().map(|m| m.bytes_sent).sum::<u64>()
    );
}
