//! `repro index-save` / `repro index-load` — the persisted-index
//! workflow, and the `PPR_INDEX_PATH` load-or-build helper the serving
//! scenario uses to cold-start.
//!
//! `index-save` builds a GPA (one-level) and an HGPA index for the
//! serving scenario's graph (Web stand-in, 6 machines — the paper's §6.1
//! default) and writes `gpa.pprx` / `hgpa.pprx` into the artifact
//! directory. `index-load`
//! is the other half of the lifecycle: it loads whatever artifacts are
//! there **without building anything**, boots a [`ppr_serve::ColdStart`]
//! server over each, and drives a small query batch through it — the
//! full save → load → serve path, exercised by CI.
//!
//! The artifact directory is `PPR_INDEX_PATH` (default
//! `target/ppr-index`). When `PPR_INDEX_PATH` is set, `repro serve`
//! also cold-starts from it via [`load_or_build_hgpa`] /
//! [`load_or_build_gpa`]: a valid artifact whose graph size, machine
//! count, and PPR configuration match is served as-is; anything else
//! (missing file, corrupt file, stale knobs) falls back to a fresh
//! build which is then saved back, so the next run cold-starts.

use crate::report::{fmt_bytes, fmt_secs, Table};
use crate::{dataset_graph, default_hgpa_opts, Profile};
use ppr_core::gpa::{self, GpaBuildOptions};
use ppr_core::hgpa::HgpaIndex;
use ppr_core::parallel::Stopwatch;
use ppr_core::persist;
use ppr_core::PprConfig;
use ppr_graph::CsrGraph;
use ppr_serve::{ColdStart, Request, ServeConfig};
use ppr_workload::{Dataset, ZipfQueryStream};
use std::path::PathBuf;

/// The artifact directory: `PPR_INDEX_PATH`, default `target/ppr-index`.
pub fn index_dir() -> PathBuf {
    std::env::var("PPR_INDEX_PATH")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/ppr-index"))
}

/// File name of the GPA artifact inside [`index_dir`].
pub const GPA_FILE: &str = "gpa.pprx";
/// File name of the HGPA artifact inside [`index_dir`].
pub const HGPA_FILE: &str = "hgpa.pprx";

/// Where a serving index came from (printed as provenance).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Loaded from a matching on-disk artifact.
    Loaded,
    /// Built fresh (no `PPR_INDEX_PATH`, no artifact, or a stale one)
    /// and saved back to the artifact directory when one is configured.
    Built,
}

fn artifact_matches(
    node_count: usize,
    machines: usize,
    config: &PprConfig,
    g: &CsrGraph,
    want_machines: usize,
    want_cfg: &PprConfig,
) -> bool {
    node_count == g.node_count() && machines == want_machines && config == want_cfg
}

/// Load the HGPA artifact if `PPR_INDEX_PATH` is set and the stored
/// index matches the requested graph/config; otherwise build fresh (and
/// save back when a directory is configured). Never panics on a bad
/// artifact — a corrupt file is a cache miss, not a crash.
pub fn load_or_build_hgpa(
    g: &CsrGraph,
    cfg: &PprConfig,
    machines: usize,
) -> (HgpaIndex, Provenance) {
    load_or_build(g, cfg, machines, HGPA_FILE, || {
        HgpaIndex::build(g, cfg, &default_hgpa_opts(machines))
    })
}

/// GPA twin of [`load_or_build_hgpa`]: the one-level index of
/// [`gpa::build`], kept in its own artifact file.
pub fn load_or_build_gpa(
    g: &CsrGraph,
    cfg: &PprConfig,
    opts: &GpaBuildOptions,
) -> (HgpaIndex, Provenance) {
    load_or_build(g, cfg, opts.machines, GPA_FILE, || gpa::build(g, cfg, opts).0)
}

fn load_or_build(
    g: &CsrGraph,
    cfg: &PprConfig,
    machines: usize,
    file: &str,
    build: impl FnOnce() -> HgpaIndex,
) -> (HgpaIndex, Provenance) {
    let dir = std::env::var("PPR_INDEX_PATH").ok().map(PathBuf::from);
    if let Some(dir) = &dir {
        let path = dir.join(file);
        match persist::load_index_file(&path) {
            Ok(idx)
                if artifact_matches(
                    idx.node_count(),
                    idx.machines(),
                    idx.config(),
                    g,
                    machines,
                    cfg,
                ) =>
            {
                println!("serve: cold-started from {}", path.display());
                return (idx, Provenance::Loaded);
            }
            Ok(_) => println!(
                "serve: artifact {} is for a different graph/config; rebuilding",
                path.display()
            ),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => println!("serve: cannot load {}: {e}; rebuilding", path.display()),
        }
    }
    let idx = build();
    if let Some(dir) = &dir {
        save_into(dir, file, |p| persist::save_hgpa_file(&idx, p));
    }
    (idx, Provenance::Built)
}

fn save_into(dir: &std::path::Path, file: &str, save: impl FnOnce(&std::path::Path) -> std::io::Result<()>) {
    let path = dir.join(file);
    let result = std::fs::create_dir_all(dir).and_then(|()| save(&path));
    match result {
        Ok(()) => println!("serve: saved index artifact to {}", path.display()),
        Err(e) => println!("serve: cannot save {}: {e} (continuing in-memory)", path.display()),
    }
}

/// `repro index-save`: build both indexes and persist them.
pub fn run_save(profile: &Profile) {
    let dir = index_dir();
    let g = dataset_graph(Dataset::Web, profile);
    let cfg = PprConfig::default();
    let machines = 6; // paper default (§6.1), matching `repro serve`
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("index-save: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }

    let mut t = Table::new(
        format!("index-save: Web n={} -> {}", g.node_count(), dir.display()),
        &["index", "build", "save", "bytes on disk", "entries"],
    );

    let gpa_opts = GpaBuildOptions {
        subgraphs: 8,
        machines,
        parallelism: ppr_core::ParallelismMode::build_from_env(),
        ..Default::default()
    };
    save_row(&mut t, &dir, "GPA", GPA_FILE, || gpa::build(&g, &cfg, &gpa_opts).0);
    save_row(&mut t, &dir, "HGPA", HGPA_FILE, || {
        HgpaIndex::build(&g, &cfg, &default_hgpa_opts(machines))
    });
    t.print();
}

/// Build one index, save it as `dir/file`, and add its row to `t`.
fn save_row(
    t: &mut Table,
    dir: &std::path::Path,
    label: &str,
    file: &str,
    build: impl FnOnce() -> HgpaIndex,
) {
    let sw = Stopwatch::start();
    let idx = build();
    let build_s = sw.elapsed_seconds();
    let sw = Stopwatch::start();
    let path = dir.join(file);
    if let Err(e) = persist::save_hgpa_file(&idx, &path) {
        eprintln!("index-save: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    let save_s = sw.elapsed_seconds();
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    t.row(vec![
        label.into(),
        fmt_secs(build_s),
        fmt_secs(save_s),
        fmt_bytes(bytes),
        idx.stored_entries().to_string(),
    ]);
}

/// `repro index-load`: cold-start both artifacts — no builder involved —
/// and serve a query batch from each (the save → load → serve path).
/// Exits non-zero if an artifact is missing, corrupt, or serves nothing.
pub fn run_load(profile: &Profile) {
    let dir = index_dir();
    let g = dataset_graph(Dataset::Web, profile);
    let mut t = Table::new(
        format!("index-load: {} (cold start, no rebuild)", dir.display()),
        &["artifact", "depth", "load", "nodes", "machines", "entries", "served", "sections"],
    );

    for file in [GPA_FILE, HGPA_FILE] {
        let path = dir.join(file);
        let sw = Stopwatch::start();
        let cold = match ColdStart::from_path(&path, ServeConfig::default()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("index-load: {}: {e}", path.display());
                eprintln!("index-load: run `repro index-save` first");
                std::process::exit(1);
            }
        };
        let load_s = sw.elapsed_seconds();

        // Section-table introspection straight off the file.
        let sections = std::fs::read(&path)
            .ok()
            .and_then(|bytes| persist::sections(&bytes).ok())
            .map_or_else(String::new, |secs| {
                secs.iter()
                    .map(|s| {
                        format!(
                            "{}:{}",
                            s.tag.iter().map(|&b| char::from(b)).collect::<String>().trim_end_matches('\0'),
                            fmt_bytes(s.len as u64)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            });

        // Serve a small Zipf batch through the cold-started server.
        let mut stream = ZipfQueryStream::new(&g, 1.1, 0xC01D);
        let requests: Vec<Request> = (0..32.min(profile.queries * 8).max(8))
            .map(|_| Request::Ppv(stream.next_query()))
            .collect();
        let mut server = cold.server();
        let outcome = server.run_batch(&requests);
        if outcome.responses.len() != requests.len() {
            eprintln!(
                "index-load: {} served {} of {} requests",
                path.display(),
                outcome.responses.len(),
                requests.len()
            );
            std::process::exit(1);
        }

        let index = cold.index();
        t.row(vec![
            file.into(),
            index.hierarchy().depth.to_string(),
            fmt_secs(load_s),
            index.node_count().to_string(),
            index.machines().to_string(),
            index.stored_entries().to_string(),
            outcome.responses.len().to_string(),
            sections,
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_dir_defaults_under_target() {
        // Can't set the env var (tests run concurrently); the default
        // branch is what CI's bench job relies on.
        if std::env::var("PPR_INDEX_PATH").is_err() {
            assert_eq!(index_dir(), PathBuf::from("target/ppr-index"));
        }
    }

    #[test]
    fn save_then_load_round_trips_through_files() {
        let profile = Profile {
            node_cap: Some(500),
            queries: 2,
            ..Profile::quick()
        };
        let g = dataset_graph(Dataset::Web, &profile);
        let cfg = PprConfig::default();
        let dir = std::env::temp_dir().join("ppr-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();

        let hgpa = HgpaIndex::build(&g, &cfg, &default_hgpa_opts(4));
        persist::save_hgpa_file(&hgpa, dir.join(HGPA_FILE)).unwrap();
        let cold = ColdStart::from_path(dir.join(HGPA_FILE), ServeConfig::default()).unwrap();
        assert_eq!(cold.index().node_count(), g.node_count());
        assert_eq!(cold.index().query(3), hgpa.query(3));
    }
}
