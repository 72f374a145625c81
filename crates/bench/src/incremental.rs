//! `repro bench-incremental` — initial-build vs incremental-update
//! speedup curves, by dataset topology and update position.
//!
//! The differential update engine's whole value proposition is that
//! maintaining the index under a localized change costs a small fraction
//! of rebuilding it. This phase makes that claim a *gated number*: for
//! each dataset (Email / Web / Youtube at the profile's scale) it times
//! the initial HGPA build, then times a single-edge insertion through
//! [`MaintenanceEngine::apply_edges`] at three positions in the
//! hierarchy —
//!
//! * **leaf**: both endpoints share a home leaf — the most localized
//!   change, touching one leaf plus the hub vectors whose runs read the
//!   source's row;
//! * **mid**: the endpoints' lowest common ancestor is an internal
//!   subgraph below the root — the insert crosses children there and
//!   forces a promotion cascade at that level;
//! * **root**: the LCA is the root — the least localized insert, whose
//!   promotion recomputes root-level skeleton state.
//!
//! Each position reports wall seconds (min-of-N over a pristine cloned
//! index per repetition), the speedup over the initial build, and the
//! exact number of vectors the read-set predicate could not skip. The
//! speedups for **leaf and mid are floor-gated**: `repro bench-compare`
//! fails if either ever drops to 1x or below, i.e. if incremental
//! maintenance stops beating a from-scratch rebuild on localized
//! updates. The root position is recorded for trends only — a
//! root-level promotion legitimately approaches rebuild cost on small
//! quick-profile graphs. Results land in `BENCH_incremental.json`
//! (schema `ppr-bench-baseline/v1`), compared by the same gate as the
//! offline/serve baselines.
//!
//! Every timed update is also echoed against a scratch rebuild over the
//! maintained hierarchy at the inserted edge's source — an in-run spot
//! check of the bit-identity `tests/node_churn.rs` pins exhaustively.

use crate::baseline::{BaselineKnobs, BaselineReport, Gate};
use crate::report::{fmt_secs, Table};
use crate::{dataset_graph, default_hgpa_opts, Profile};
use ppr_core::hgpa::HgpaIndex;
use ppr_core::incremental::MaintenanceEngine;
use ppr_core::PprConfig;
use ppr_graph::{delta, CsrGraph, EdgeUpdate, NodeId};
use ppr_partition::Hierarchy;
use ppr_workload::Dataset;

/// Repetitions per wall-clock measurement; the minimum is recorded
/// (same rationale as the offline/serve baseline: a preempted run can
/// only be slower).
const TIMING_REPS: usize = 3;

/// Where in the hierarchy an inserted edge lands, by its endpoints'
/// lowest common ancestor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Position {
    /// LCA is a leaf: both endpoints share a home leaf.
    Leaf,
    /// LCA is internal but not the root.
    Mid,
    /// LCA is the root.
    Root,
}

impl Position {
    fn label(self) -> &'static str {
        match self {
            Position::Leaf => "leaf",
            Position::Mid => "mid",
            Position::Root => "root",
        }
    }

    /// Leaf and mid inserts are the "localized updates" the ISSUE's
    /// acceptance criterion gates; root-level cost is informational.
    fn gate(self) -> Gate {
        match self {
            Position::Leaf | Position::Mid => Gate::Floor,
            Position::Root => Gate::Info,
        }
    }
}

/// The arena index of `u` and `v`'s lowest common ancestor subgraph.
fn lca(h: &Hierarchy, u: NodeId, v: NodeId) -> usize {
    let pu = h.path_to(u);
    let pv = h.path_to(v);
    let mut lca = h.root();
    for (a, b) in pu.iter().zip(pv.iter()) {
        if a == b {
            lca = *a;
        } else {
            break;
        }
    }
    lca
}

fn classify(h: &Hierarchy, u: NodeId, v: NodeId) -> Position {
    let l = lca(h, u, v);
    if h.nodes[l].children.is_empty() {
        Position::Leaf
    } else if l == h.root() {
        Position::Root
    } else {
        Position::Mid
    }
}

/// Deterministically pick a non-edge `(u, v)` whose LCA sits at the
/// requested position. Returns `None` when the hierarchy is too shallow
/// to host one (e.g. a two-level tree has no mid position).
fn find_edge_at(h: &Hierarchy, g: &CsrGraph, pos: Position) -> Option<(NodeId, NodeId)> {
    // Candidate subgraphs whose *own* level matches the position; the
    // pair is drawn so that this subgraph is the LCA.
    let candidates: Vec<usize> = (0..h.nodes.len())
        .filter(|&i| match pos {
            Position::Leaf => h.nodes[i].children.is_empty() && h.nodes[i].members.len() >= 2,
            Position::Mid => i != h.root() && h.nodes[i].children.len() >= 2,
            Position::Root => i == h.root() && h.nodes[i].children.len() >= 2,
        })
        .collect();
    const SCAN: usize = 16; // first few members per side are plenty
    for &sg in &candidates {
        let node = &h.nodes[sg];
        let (left, right): (&[NodeId], &[NodeId]) = if node.children.is_empty() {
            (&node.members, &node.members)
        } else {
            // Members of two distinct children exclude this subgraph's
            // hubs, so the insert genuinely crosses children here.
            let c0 = node.children[0];
            let c1 = node.children[node.children.len() - 1];
            (&h.nodes[c0].members, &h.nodes[c1].members)
        };
        for &u in left.iter().take(SCAN) {
            for &v in right.iter().take(SCAN) {
                if u != v && !g.has_edge(u, v) && classify(h, u, v) == pos {
                    return Some((u, v));
                }
            }
        }
    }
    None
}

/// Run the phase for one dataset, appending its metrics to `report` and
/// one table row per update position.
fn run_dataset(ds: Dataset, profile: &Profile, report: &mut BaselineReport, table: &mut Table) {
    let g = dataset_graph(ds, profile);
    let cfg = PprConfig::default();
    let opts = default_hgpa_opts(6);
    let name = ds.name().to_lowercase();

    // Initial build, min-of-N (any repetition's index serves as the
    // pristine subject below — builds are bit-identical).
    let mut build_wall = f64::INFINITY;
    let mut idx = None;
    for _ in 0..TIMING_REPS {
        let sw = ppr_core::parallel::Stopwatch::start();
        let built = HgpaIndex::build(&g, &cfg, &opts);
        build_wall = build_wall.min(sw.elapsed_seconds());
        idx = Some(built);
    }
    let idx = idx.expect("TIMING_REPS >= 1");
    report.push(
        format!("incr_initial_build_seconds_{name}"),
        build_wall,
        "s",
        Gate::Wall,
    );

    for pos in [Position::Leaf, Position::Mid, Position::Root] {
        let Some((u, v)) = find_edge_at(idx.hierarchy(), &g, pos) else {
            // No silent coverage holes: a too-shallow hierarchy at this
            // profile scale is reported, not skipped quietly.
            println!(
                "bench-incremental: {name}: no {} position in a depth-{} hierarchy — skipped",
                pos.label(),
                idx.hierarchy().nodes.iter().map(|n| n.level).max().unwrap_or(0)
            );
            continue;
        };
        let g2 = delta::apply_edge_updates(&g, &[EdgeUpdate::Insert(u, v)]);
        let mut update_wall = f64::INFINITY;
        let mut vectors = 0usize;
        let mut updated = None;
        for _ in 0..TIMING_REPS {
            // Pristine state per repetition: a cloned index and a cold
            // engine, so no repetition inherits the previous one's
            // grown arenas.
            let mut fresh = idx.clone();
            let mut engine = MaintenanceEngine::new();
            let sw = ppr_core::parallel::Stopwatch::start();
            let stats = engine
                .apply_edges(&mut fresh, &g2, &[(u, v)])
                .expect("endpoints are live");
            update_wall = update_wall.min(sw.elapsed_seconds());
            vectors = stats.vectors_recomputed;
            updated = Some(fresh);
        }
        let updated = updated.expect("TIMING_REPS >= 1");
        // In-run exactness echo at the inserted edge's source.
        let rebuilt =
            HgpaIndex::build_with_hierarchy(&g2, &cfg, &opts, updated.hierarchy().clone());
        assert_eq!(
            updated.query(u),
            rebuilt.query(u),
            "{name}/{}: incremental update diverged from a scratch rebuild",
            pos.label()
        );

        let speedup = build_wall / update_wall.max(1e-12);
        report.push(
            format!("incr_update_seconds_{name}_{}", pos.label()),
            update_wall,
            "s",
            Gate::Wall,
        );
        report.push(
            format!("incr_speedup_{name}_{}", pos.label()),
            speedup,
            "x",
            pos.gate(),
        );
        report.push(
            format!("incr_vectors_recomputed_{name}_{}", pos.label()),
            vectors as f64,
            "entries",
            Gate::Exact,
        );
        table.row(vec![
            name.clone(),
            pos.label().to_string(),
            fmt_secs(build_wall),
            fmt_secs(update_wall),
            format!("{speedup:.1}x"),
            vectors.to_string(),
        ]);
    }
}

/// The `repro bench-incremental` entry point: run the three datasets,
/// print the speedup table, and write `BENCH_incremental.json` to
/// [`BaselineKnobs::out_dir`].
pub fn run_and_write(profile: &Profile) {
    let knobs = BaselineKnobs::from_env();
    println!(
        "bench-incremental: Email/Web/Youtube at profile {} | out {}",
        profile.name,
        knobs.out_dir.display()
    );
    let mut report = BaselineReport::new("incremental", &[1]);
    let mut table = Table::new(
        "Initial build vs incremental update (single-edge insert, min-of-3)",
        &["dataset", "position", "build", "update", "speedup", "vectors"],
    );
    for ds in [Dataset::Email, Dataset::Web, Dataset::Youtube] {
        run_dataset(ds, profile, &mut report, &mut table);
    }
    table.print();
    match report.write_to(&knobs.out_dir) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", report.file_name());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_are_found_and_classified_consistently() {
        let profile = Profile {
            node_cap: Some(900),
            queries: 2,
            ..Profile::quick()
        };
        let g = dataset_graph(Dataset::Web, &profile);
        let idx = HgpaIndex::build(&g, &PprConfig::default(), &default_hgpa_opts(4));
        let h = idx.hierarchy();
        for pos in [Position::Leaf, Position::Mid, Position::Root] {
            let (u, v) = find_edge_at(h, &g, pos)
                .unwrap_or_else(|| panic!("no {} position at this scale", pos.label()));
            assert!(!g.has_edge(u, v));
            assert_eq!(classify(h, u, v), pos);
        }
    }

    #[test]
    fn incremental_phase_emits_gated_speedups() {
        let profile = Profile {
            node_cap: Some(900),
            queries: 2,
            ..Profile::quick()
        };
        let mut report = BaselineReport::new("incremental", &[1]);
        let mut table = Table::new("t", &["d", "p", "b", "u", "s", "v"]);
        run_dataset(Dataset::Web, &profile, &mut report, &mut table);
        let web_build = report
            .value("incr_initial_build_seconds_web")
            .expect("build metric");
        assert!(web_build > 0.0);
        for pos in ["leaf", "mid", "root"] {
            let secs = report
                .value(&format!("incr_update_seconds_web_{pos}"))
                .expect("update metric");
            assert!(secs > 0.0);
            assert!(
                report
                    .value(&format!("incr_vectors_recomputed_web_{pos}"))
                    .expect("vectors metric")
                    > 0.0
            );
        }
        // The acceptance criterion: localized updates beat a rebuild.
        let leaf = report.value("incr_speedup_web_leaf").expect("leaf speedup");
        assert!(leaf > 1.0, "leaf insert speedup {leaf:.2}x is not > 1x");
        // The gated names carry the Floor gate; root stays Info.
        let gate_of = |n: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == n)
                .map(|m| m.gate)
                .expect("metric present")
        };
        assert_eq!(gate_of("incr_speedup_web_leaf"), Gate::Floor);
        assert_eq!(gate_of("incr_speedup_web_mid"), Gate::Floor);
        assert_eq!(gate_of("incr_speedup_web_root"), Gate::Info);
    }

    #[test]
    fn read_set_predicate_is_tight_on_web() {
        use ppr_graph::{apply_delta, GraphDelta};
        use ppr_workload::{MixedEvent, MixedStream, MixedStreamConfig};
        // Looseness as a number: of the vectors the predicate could not
        // skip, how many came out bit-identical anyway? Pinned for one
        // seed so a coarser predicate shows up as a failed bound, not
        // only as a slower benchmark.
        let profile = Profile {
            node_cap: Some(2_000),
            queries: 2,
            ..Profile::quick()
        };
        let mut g = dataset_graph(Dataset::Web, &profile);
        let mut idx = HgpaIndex::build(&g, &PprConfig::default(), &default_hgpa_opts(4));
        let config = MixedStreamConfig {
            update_rate: 1.0,
            updates_per_batch: 4,
            ..Default::default()
        };
        let mut stream = MixedStream::new(&g, config, 1);
        let mut engine = MaintenanceEngine::new();
        let (mut recomputed, mut unchanged, mut skipped) = (0usize, 0usize, 0usize);
        for _ in 0..8 {
            let MixedEvent::Update(batch) = stream.next_event() else {
                unreachable!("update_rate 1.0 yields only updates")
            };
            let applied = apply_delta(&g, &GraphDelta::from_edges(batch)).expect("valid batch");
            let stats = engine.apply(&mut idx, &applied).expect("live endpoints");
            recomputed += stats.vectors_recomputed;
            unchanged += stats.vectors_unchanged;
            skipped += stats.vectors_skipped;
            g = applied.graph;
        }
        assert!(recomputed > 0 && skipped > recomputed, "{recomputed} vs {skipped} skipped");
        assert!(
            unchanged * 10 <= recomputed,
            "{unchanged} of {recomputed} recomputed vectors were unchanged"
        );
    }
}
