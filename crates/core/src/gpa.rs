//! GPA — the graph-partition based distributed algorithm (§3).
//!
//! The graph is split into `m` balanced subgraphs; the bridging nodes form
//! the hub set `H`. The benefit (§3.2) is that the partial vector of a
//! non-hub node is confined to its own subgraph — by Theorem 2 it *is* the
//! local PPV of the subgraph's virtual-subgraph view — collapsing the
//! dominant O((|V|−|H|)²) storage term of PPV-JW to O((|V|−|H|)²/m).
//!
//! GPA is HGPA (§4) with one level: the hubs sit at the root and each part
//! is a leaf ([`Hierarchy::from_flat`]). So a GPA index *is* an
//! [`HgpaIndex`] built over that hierarchy, and it serves, persists,
//! cold-starts and takes updates like any other. Placement follows §3.1:
//! hub rank `i` lives on machine `i % n` (holding the hub's partial vector
//! **and** skeleton column, so `S_u(h)` is local at query time) and part
//! `p` on machine `p % n`.

use crate::hgpa::{HgpaBuildOptions, HgpaIndex, OfflineReport};
use crate::parallel::{ParallelismMode, Stopwatch};
use crate::PprConfig;
use ppr_graph::CsrGraph;
use ppr_partition::{flat_partition, CoverAlgorithm, Hierarchy, PartitionConfig};

/// Build options for a GPA index ([`build`]).
#[derive(Clone, Copy, Debug)]
pub struct GpaBuildOptions {
    /// Number of subgraphs `m` the graph is partitioned into.
    pub subgraphs: usize,
    /// Number of machines `n` the index is spread over.
    pub machines: usize,
    /// Hub (vertex cover) selection algorithm.
    pub cover: CoverAlgorithm,
    /// Partitioner options.
    pub partition: PartitionConfig,
    /// How precompute work items (hub columns, per-subgraph local PPVs)
    /// execute. Index contents are bit-identical across modes (pinned by
    /// `tests/parallel_build.rs`); [`ParallelismMode::Sequential`] keeps
    /// per-machine modeled seconds measurement-grade, while
    /// [`ParallelismMode::Threads`] shrinks wall-clock with host cores.
    pub parallelism: ParallelismMode,
}

impl Default for GpaBuildOptions {
    fn default() -> Self {
        Self {
            subgraphs: 4,
            machines: 4,
            cover: CoverAlgorithm::KonigExact,
            partition: PartitionConfig::default(),
            parallelism: ParallelismMode::Sequential,
        }
    }
}

/// Partition `g` flat, select hubs, and precompute all vectors (§5): the
/// one-level [`HgpaIndex`] of [`Hierarchy::from_flat`], with per-machine
/// offline seconds and the partitioning time in the report.
pub fn build(g: &CsrGraph, cfg: &PprConfig, opts: &GpaBuildOptions) -> (HgpaIndex, OfflineReport) {
    let t0 = Stopwatch::start();
    let flat = flat_partition(g, opts.subgraphs, opts.cover, &opts.partition);
    let hierarchy = Hierarchy::from_flat(&flat);
    let partition_seconds = t0.elapsed_seconds();
    let hopts = HgpaBuildOptions {
        machines: opts.machines,
        parallelism: opts.parallelism,
        ..Default::default()
    };
    let (idx, mut report) = HgpaIndex::build_distributed_with_hierarchy(g, cfg, &hopts, hierarchy);
    report.partition_seconds = partition_seconds;
    (idx, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseVector;
    use ppr_graph::dense::dense_ppv;
    use ppr_graph::generators::{hierarchical_sbm, HsbmConfig};

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

    #[test]
    fn query_matches_dense_oracle() {
        let g = sample(200, 3);
        let (idx, _) = build(&g, &tight(), &GpaBuildOptions::default());
        assert_eq!(idx.hierarchy().depth, 1);
        for u in [0u32, 33, 111, 199] {
            let exact = dense_ppv(&g, u, 0.15);
            let got = idx.query(u);
            for v in 0..200u32 {
                assert!(
                    (exact[v as usize] - got.get(v)).abs() < 1e-5,
                    "u {u} v {v}: {} vs {}",
                    exact[v as usize],
                    got.get(v)
                );
            }
        }
    }

    #[test]
    fn hub_queries_match_too() {
        let g = sample(150, 9);
        let (idx, _) = build(&g, &tight(), &GpaBuildOptions::default());
        let hub = idx.hub_ids().first().copied().expect("sample has hubs");
        let exact = dense_ppv(&g, hub, 0.15);
        let got = idx.query(hub);
        for v in 0..150u32 {
            assert!((exact[v as usize] - got.get(v)).abs() < 1e-5, "v {v}");
        }
    }

    #[test]
    fn machine_vectors_sum_to_query() {
        let g = sample(180, 5);
        let opts = GpaBuildOptions {
            machines: 3,
            ..Default::default()
        };
        let (idx, _) = build(&g, &tight(), &opts);
        for u in [7u32, 90] {
            let full = idx.query(u);
            let mut sum = SparseVector::new();
            for m in 0..3 {
                sum = sum.add_scaled(&idx.machine_vector(u, m), 1.0);
            }
            for v in 0..180u32 {
                assert!(
                    (full.get(v) - sum.get(v)).abs() < 1e-12,
                    "u {u} v {v}"
                );
            }
        }
    }

    #[test]
    fn each_machine_owns_disjoint_state() {
        let g = sample(160, 8);
        let opts = GpaBuildOptions {
            machines: 4,
            ..Default::default()
        };
        let (idx, report) = build(&g, &tight(), &opts);
        assert!(report.partition_seconds > 0.0);
        let bytes = idx.storage_bytes_per_machine();
        assert_eq!(bytes.len(), 4);
        assert!(bytes.iter().all(|&b| b > 0), "{bytes:?}");
        // Load balance: no machine holds more than 70% of total.
        let total: u64 = bytes.iter().sum();
        for &b in &bytes {
            assert!(b as f64 <= 0.7 * total as f64, "{bytes:?}");
        }
    }

    #[test]
    fn single_machine_single_part_degenerates_gracefully() {
        let g = sample(100, 2);
        let opts = GpaBuildOptions {
            subgraphs: 1,
            machines: 1,
            ..Default::default()
        };
        let (idx, _) = build(&g, &tight(), &opts);
        assert!(idx.hub_ids().is_empty());
        let exact = dense_ppv(&g, 42, 0.15);
        let got = idx.query(42);
        for v in 0..100u32 {
            assert!((exact[v as usize] - got.get(v)).abs() < 1e-6);
        }
    }
}
