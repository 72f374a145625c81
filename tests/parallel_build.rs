//! Offline-build exactness: a [`ParallelismMode::Threads`] build must be
//! **bit-identical** to the [`ParallelismMode::Sequential`] build — same
//! base vectors, same skeleton columns, same machine placement, same
//! build statistics — on any graph, machine count, and worker count, for
//! both GPA (the one-level HGPA) and HGPA. The builds differ only in *when* each work item
//! runs (and hence in the wall-clock / modeled timing fields of
//! [`OfflineReport`], which this suite checks for shape, not value).
//!
//! Incremental maintenance recomputes an update batch's stale vectors on
//! the same pool, so the same holds for it: a threaded
//! [`MaintenanceEngine`] must leave every stored vector and report every
//! [`UpdateStats`](exact_ppr::core::incremental::UpdateStats) field
//! exactly as the sequential one does, batch after batch.

use exact_ppr::core::gpa::{self, GpaBuildOptions};
use exact_ppr::core::hgpa::{HgpaBuildOptions, HgpaIndex, OfflineReport};
use exact_ppr::core::incremental::MaintenanceEngine;
use exact_ppr::core::{ParallelismMode, PprConfig};
use exact_ppr::graph::csr::from_edges;
use exact_ppr::graph::generators::{hierarchical_sbm, HsbmConfig};
use exact_ppr::graph::{apply_delta, CsrGraph, GraphDelta};
use exact_ppr::partition::{flat_partition, HierarchyConfig};
use exact_ppr::workload::{MixedEvent, MixedStream, MixedStreamConfig};
use proptest::prelude::*;

/// Strategy: a random directed graph with 12..=80 nodes.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (12usize..=80).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 1..(n * 4));
        edges.prop_map(move |es| {
            let filtered: Vec<(u32, u32)> = es.into_iter().filter(|(u, v)| u != v).collect();
            from_edges(n, &filtered)
        })
    })
}

fn report_shape_ok(report: &OfflineReport, machines: usize) {
    assert_eq!(report.per_machine_seconds.len(), machines);
    assert!(report.per_machine_seconds.iter().all(|&s| s >= 0.0));
    assert!(report.wall_seconds > 0.0);
}

/// Sequential vs threaded builds agree on every stored artifact.
fn differential(
    build: impl Fn(ParallelismMode) -> (HgpaIndex, OfflineReport),
    machines: usize,
    workers: usize,
) -> Result<(), String> {
    let (seq, seq_report) = build(ParallelismMode::Sequential);
    let (thr, thr_report) = build(ParallelismMode::Threads(workers));
    same_index(&seq, &thr)?;
    report_shape_ok(&seq_report, machines);
    report_shape_ok(&thr_report, machines);
    Ok(())
}

fn same_index(seq: &HgpaIndex, thr: &HgpaIndex) -> Result<(), String> {
    if seq.base_vectors() != thr.base_vectors() {
        return Err("base vectors diverged".into());
    }
    if seq.skeleton_columns() != thr.skeleton_columns() {
        return Err("skeleton columns diverged".into());
    }
    if seq.hub_ids() != thr.hub_ids() {
        return Err("hub ranks diverged".into());
    }
    if seq.machine_of_hub() != thr.machine_of_hub()
        || seq.machine_of_base() != thr.machine_of_base()
    {
        return Err("machine placement diverged".into());
    }
    if seq.stats() != thr.stats() {
        return Err(format!(
            "build stats diverged: {:?} vs {:?}",
            seq.stats(),
            thr.stats()
        ));
    }
    Ok(())
}

/// GPA: sequential vs threaded builds agree on every stored artifact.
fn gpa_differential(
    g: &CsrGraph,
    cfg: &PprConfig,
    machines: usize,
    workers: usize,
) -> Result<(), String> {
    let build = |parallelism| {
        let opts = GpaBuildOptions {
            machines,
            parallelism,
            ..Default::default()
        };
        gpa::build(g, cfg, &opts)
    };
    differential(build, machines, workers)
}

/// HGPA: sequential vs threaded builds agree on every stored artifact.
fn hgpa_differential(
    g: &CsrGraph,
    cfg: &PprConfig,
    machines: usize,
    workers: usize,
) -> Result<(), String> {
    let build = |parallelism| {
        let opts = HgpaBuildOptions {
            machines,
            hierarchy: HierarchyConfig {
                max_leaf_size: 16,
                ..Default::default()
            },
            parallelism,
            ..Default::default()
        };
        HgpaIndex::build_distributed(g, cfg, &opts)
    };
    differential(build, machines, workers)
}

proptest! {
    // Default-config cases so the CI deep-test job can scale this suite
    // via `PROPTEST_CASES`.
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn gpa_threaded_build_is_bit_identical(
        g in arb_graph(),
        machines in 1usize..6,
        workers in 2usize..9,
    ) {
        gpa_differential(&g, &PprConfig::default(), machines, workers)?;
    }

    #[test]
    fn hgpa_threaded_build_is_bit_identical(
        g in arb_graph(),
        machines in 1usize..6,
        workers in 2usize..9,
    ) {
        hgpa_differential(&g, &PprConfig::default(), machines, workers)?;
    }

    #[test]
    fn gpa_is_a_one_level_hgpa(
        nodes in 5usize..60,
        seed in 0u64..10_000,
        parts in 1usize..70,
        machines in 1usize..7,
        workers in 0usize..4,
    ) {
        let parallelism = match workers {
            0 | 1 => ParallelismMode::Sequential,
            w => ParallelismMode::Threads(w),
        };
        one_level_differential(nodes, seed, parts, machines, parallelism)?;
    }

    #[test]
    fn threaded_maintenance_is_bit_identical(
        nodes in 40usize..120,
        seed in 0u64..10_000,
    ) {
        maintenance_differential(nodes, seed, 16)?;
    }
}

/// GPA (§3) built as the one-level HGPA keeps §3.1's layout: hubs in
/// flat-partition order with hub rank `i` on machine `i % k`, every
/// member of part `p` on machine `p % k` (empty parts included in the
/// count), each member's base vector confined to its own part
/// (Theorem 2), and the same index in every [`ParallelismMode`].
fn one_level_differential(
    nodes: usize,
    seed: u64,
    parts: usize,
    machines: usize,
    parallelism: ParallelismMode,
) -> Result<(), String> {
    let g = hierarchical_sbm(
        &HsbmConfig {
            nodes,
            depth: 3,
            locality: 0.9,
            ..Default::default()
        },
        seed,
    );
    let cfg = PprConfig::default();
    let opts = GpaBuildOptions {
        subgraphs: parts,
        machines,
        parallelism,
        ..Default::default()
    };
    let (idx, report) = gpa::build(&g, &cfg, &opts);
    report_shape_ok(&report, machines);
    let flat = flat_partition(&g, parts, opts.cover, &opts.partition);

    if idx.hierarchy().depth != 1 || idx.hub_ids() != flat.hubs {
        return Err("not the one-level hierarchy of the flat partition".into());
    }
    for (rank, &h) in idx.hub_ids().iter().enumerate() {
        let m = (rank % machines) as u32;
        if idx.machine_of_hub()[rank] != m || idx.machine_of_base()[h as usize] != m {
            return Err(format!("hub rank {rank} is not on machine {m}"));
        }
    }
    for (p, part) in flat.subgraphs.iter().enumerate() {
        for &v in part {
            if idx.machine_of_base()[v as usize] as usize != p % machines {
                return Err(format!("member {v} of part {p} is off machine {}", p % machines));
            }
            if let Some((w, _)) = idx.base_vectors()[v as usize]
                .iter()
                .find(|&(w, _)| flat.part_of[w as usize] != Some(p as u32))
            {
                return Err(format!("base vector of {v} (part {p}) leaks to {w}"));
            }
        }
    }

    let other = match parallelism {
        ParallelismMode::Sequential => ParallelismMode::Threads(3),
        ParallelismMode::Threads(_) => ParallelismMode::Sequential,
    };
    let (twin, _) = gpa::build(
        &g,
        &cfg,
        &GpaBuildOptions {
            parallelism: other,
            ..opts
        },
    );
    same_index(&idx, &twin)
}

/// Drive one random stream of edge and node-churn batches through a
/// sequential engine and through `Threads(2)` / `Threads(5)` engines, each
/// on its own copy of one index, comparing after every batch.
fn maintenance_differential(nodes: usize, seed: u64, events: usize) -> Result<(), String> {
    let g0 = hierarchical_sbm(
        &HsbmConfig {
            nodes,
            depth: 3,
            locality: 0.9,
            ..Default::default()
        },
        seed,
    );
    let opts = HgpaBuildOptions {
        machines: 3,
        hierarchy: HierarchyConfig {
            max_leaf_size: 12,
            ..Default::default()
        },
        ..Default::default()
    };
    let built = HgpaIndex::build(&g0, &PprConfig::default(), &opts);
    let mut reference = (MaintenanceEngine::new(), built.clone());
    let mut threaded = [2, 5].map(|workers| {
        let engine = MaintenanceEngine::with_parallelism(ParallelismMode::Threads(workers));
        (engine, built.clone())
    });
    let mut stream = MixedStream::new(
        &g0,
        MixedStreamConfig {
            update_rate: 0.6,
            updates_per_batch: 3,
            churn_rate: 0.3,
            ..Default::default()
        },
        seed,
    );
    let mut g = g0;
    for (step, event) in stream.take(events).into_iter().enumerate() {
        let delta = match event {
            MixedEvent::Query(_) => continue,
            MixedEvent::Update(edges) => GraphDelta::from_edges(edges),
            MixedEvent::Churn(d) => d,
        };
        let applied = apply_delta(&g, &delta).map_err(|e| format!("step {step}: {e}"))?;
        let (engine, idx) = &mut reference;
        let want = engine
            .apply(idx, &applied)
            .map_err(|e| format!("step {step}: sequential engine rejected: {e}"))?;
        for (engine, idx) in &mut threaded {
            let got = engine
                .apply(idx, &applied)
                .map_err(|e| format!("step {step}: threaded engine rejected: {e}"))?;
            if got != want {
                return Err(format!("step {step}: stats diverged: {got:?} vs {want:?}"));
            }
            if idx.base_vectors() != reference.1.base_vectors() {
                return Err(format!("step {step}: base vectors diverged"));
            }
            if idx.skeleton_columns() != reference.1.skeleton_columns() {
                return Err(format!("step {step}: skeleton columns diverged"));
            }
        }
        g = applied.graph;
    }
    Ok(())
}

/// A community-structured graph big enough that every worker count gets
/// many items per machine — the deterministic pin for the quick profile.
#[test]
fn bigger_builds_stay_bit_identical_across_the_worker_sweep() {
    let g = hierarchical_sbm(
        &HsbmConfig {
            nodes: 400,
            depth: 4,
            locality: 0.9,
            ..Default::default()
        },
        17,
    );
    let cfg = PprConfig::default();
    for workers in [2usize, 4, 8] {
        gpa_differential(&g, &cfg, 6, workers).unwrap();
        hgpa_differential(&g, &cfg, 6, workers).unwrap();
    }
}

/// The modeled per-machine accounting stays a *distribution* of cost —
/// every machine gets timed items — and the wall/peak fields are sane,
/// threaded or not.
#[test]
fn offline_report_accounts_modeled_and_wall_time() {
    let g = hierarchical_sbm(
        &HsbmConfig {
            nodes: 500,
            depth: 4,
            locality: 0.9,
            ..Default::default()
        },
        23,
    );
    let cfg = PprConfig::default();
    for parallelism in [ParallelismMode::Sequential, ParallelismMode::Threads(4)] {
        let (_, report) = HgpaIndex::build_distributed(
            &g,
            &cfg,
            &HgpaBuildOptions {
                machines: 4,
                parallelism,
                hierarchy: HierarchyConfig {
                    max_leaf_size: 32,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        report_shape_ok(&report, 4);
        assert!(report.peak_scratch_bytes > 0, "{parallelism:?}");
        let total: f64 = report.per_machine_seconds.iter().sum();
        assert!(total > 0.0);
        // No machine's modeled share holds all the work (§5's claim).
        assert!(
            report.max_machine_seconds() < 0.9 * total,
            "{parallelism:?}: {:?}",
            report.per_machine_seconds
        );
    }
}
