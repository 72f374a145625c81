#![warn(missing_docs)]

//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§6 and Appendices A/B).
//!
//! Each `exp_*` module implements one table/figure group and prints the
//! same rows/series the paper reports. The entry point is
//! `cargo run --release -p ppr-bench --bin repro -- <experiment|all>
//! [--full]`: experiments run at the *quick* profile (smaller graphs,
//! fewer queries) by default; `--full` uses the DESIGN.md dataset sizes.
//! End-to-end serving and update performance is measured by the separate
//! `benchmark/` package.
//!
//! Absolute numbers will not match the paper (scaled synthetic data, one
//! host simulating the cluster); the *shapes* — who wins, how metrics
//! move with machines/levels/tolerance — are the reproduction target.
//! EXPERIMENTS.md records both sides.

pub mod artifacts;
pub mod audit;
pub mod baseline;
pub mod exp_fig09;
pub mod exp_fig10_13;
pub mod exp_fig14_16;
pub mod exp_fig17;
pub mod exp_fig18_19;
pub mod exp_fig20_27;
pub mod exp_fig21_22;
pub mod exp_fig23_26;
pub mod exp_fig28;
pub mod exp_tables;
pub mod faults;
pub mod incremental;
pub mod json;
pub mod profile;
pub mod report;
pub mod serve;

pub use profile::Profile;

use ppr_core::hgpa::{HgpaBuildOptions, HgpaIndex};
use ppr_core::PprConfig;
use ppr_graph::CsrGraph;
use ppr_partition::HierarchyConfig;
use ppr_workload::Dataset;

/// Generate a dataset graph at the profile's scale.
///
/// The profile's `node_cap` is interpreted *proportionally*: it states the
/// node count the reference dataset (Web, 10k in DESIGN.md) should get,
/// and every other dataset scales by the same factor — so the Meetup
/// M1–M5 series keeps growing and PLD stays the biggest, as in the paper.
pub fn dataset_graph(d: Dataset, profile: &Profile) -> CsrGraph {
    const REFERENCE_NODES: f64 = 10_000.0; // Web's DESIGN.md size
    let spec_nodes = d.spec().config.nodes;
    match profile.node_cap {
        Some(cap) if (cap as f64) < REFERENCE_NODES => {
            let factor = cap as f64 / REFERENCE_NODES;
            let nodes = ((spec_nodes as f64 * factor).round() as usize).max(300);
            d.generate_with_nodes(nodes)
        }
        _ => d.generate(),
    }
}

/// The workspace-default HGPA build options for experiments.
///
/// Builds honour `PPR_BUILD_THREADS` (default sequential): the modeled
/// per-machine offline seconds are work-item sums either way, so the
/// figure numbers keep their dedicated-machine meaning, threaded or not.
pub fn default_hgpa_opts(machines: usize) -> HgpaBuildOptions {
    HgpaBuildOptions {
        machines,
        hierarchy: HierarchyConfig::default(),
        drop_threshold: None,
        parallelism: ppr_core::ParallelismMode::build_from_env(),
    }
}

/// Build an HGPA index with defaults for a dataset graph.
pub fn build_hgpa(g: &CsrGraph, machines: usize, cfg: &PprConfig) -> HgpaIndex {
    HgpaIndex::build(g, cfg, &default_hgpa_opts(machines))
}

/// Run every experiment at the given profile (the `repro all` path),
/// plus the serving scenario.
pub fn run_all(profile: &Profile) {
    exp_tables::run(profile);
    exp_fig09::run(profile);
    exp_fig10_13::run(profile);
    exp_fig14_16::run(profile);
    exp_fig17::run(profile);
    exp_fig18_19::run(profile);
    exp_fig20_27::run(profile);
    exp_fig21_22::run(profile);
    exp_fig23_26::run(profile);
    exp_fig28::run(profile);
    serve::run(profile);
}
