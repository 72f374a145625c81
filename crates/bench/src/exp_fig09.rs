//! Figure 9: GPA vs HGPA on Web — query runtime, max-machine space,
//! offline time, and per-query network cost, at the default 6 machines.

use crate::report::{fmt_bytes, fmt_secs, Table};
use crate::{dataset_graph, default_hgpa_opts, Profile};
use ppr_cluster::Cluster;
use ppr_core::gpa::{self, GpaBuildOptions};
use ppr_core::hgpa::HgpaIndex;
use ppr_core::PprConfig;
use ppr_workload::{query_nodes, Dataset};

/// Measured comparison row for one algorithm.
pub struct AlgoRow {
    /// Mean query runtime (max over machines + coordinator), seconds.
    pub runtime: f64,
    /// Maximum per-machine storage, bytes.
    pub space: u64,
    /// Max per-machine offline precompute time, seconds.
    pub offline: f64,
    /// Mean per-query coordinator traffic, bytes.
    pub network: u64,
}

/// Run GPA and HGPA side by side. Returns (gpa, hgpa) rows.
pub fn measure(profile: &Profile) -> (AlgoRow, AlgoRow) {
    let machines = 6; // paper default
    let g = dataset_graph(Dataset::Web, profile);
    let cfg = PprConfig::default();
    let queries = query_nodes(&g, profile.queries, 11);
    let cluster = Cluster::with_default_network();

    let (gpa, gpa_off) = gpa::build(
        &g,
        &cfg,
        &GpaBuildOptions {
            subgraphs: 8,
            machines,
            parallelism: ppr_core::ParallelismMode::build_from_env(),
            ..Default::default()
        },
    );
    let (hgpa, hgpa_off) =
        HgpaIndex::build_distributed(&g, &cfg, &default_hgpa_opts(machines));

    let run = |reports: Vec<ppr_cluster::ClusterQueryReport>| -> (f64, u64) {
        let n = reports.len().max(1) as f64;
        let rt = reports.iter().map(|r| r.runtime_seconds()).sum::<f64>() / n;
        let bytes = reports.iter().map(|r| r.total_bytes()).sum::<u64>() / reports.len().max(1) as u64;
        (rt, bytes)
    };
    let (gpa_rt, gpa_net) = run(cluster.query_batch(&gpa, &queries));
    let (hgpa_rt, hgpa_net) = run(cluster.query_batch(&hgpa, &queries));

    (
        AlgoRow {
            runtime: gpa_rt,
            space: gpa.storage_bytes_per_machine().into_iter().max().unwrap_or(0),
            offline: gpa_off.max_machine_seconds(),
            network: gpa_net,
        },
        AlgoRow {
            runtime: hgpa_rt,
            space: hgpa.storage_bytes_per_machine().into_iter().max().unwrap_or(0),
            offline: hgpa_off.max_machine_seconds(),
            network: hgpa_net,
        },
    )
}

/// Print Figure 9.
pub fn run(profile: &Profile) {
    let (gpa, hgpa) = measure(profile);
    let mut t = Table::new(
        "Figure 9: GPA vs HGPA on Web (6 machines)",
        &["algorithm", "runtime", "max space", "offline", "network/query"],
    );
    for (name, row) in [("HGPA", &hgpa), ("GPA", &gpa)] {
        t.row(vec![
            name.into(),
            fmt_secs(row.runtime),
            fmt_bytes(row.space),
            fmt_secs(row.offline),
            fmt_bytes(row.network),
        ]);
    }
    t.print();
    println!(
        "paper shape: HGPA <= GPA on space and offline; comparable runtime; \
         measured space ratio GPA/HGPA = {:.2}",
        gpa.space as f64 / hgpa.space.max(1) as f64
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hgpa_beats_gpa_on_space() {
        // The paper's Figure 9 headline: HGPA stores less than GPA.
        let profile = Profile {
            node_cap: Some(1500),
            queries: 4,
            ..Profile::quick()
        };
        let (gpa, hgpa) = measure(&profile);
        assert!(
            hgpa.space <= gpa.space,
            "HGPA {} vs GPA {}",
            hgpa.space,
            gpa.space
        );
        assert!(hgpa.network > 0 && gpa.network > 0);
    }
}
