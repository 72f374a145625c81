//! Cold-start: boot a serving stack from a persisted index artifact.
//!
//! The paper's split is precompute-once / serve-forever; this module is
//! the serve-forever half. [`ColdStart`] loads the index artifact a path
//! holds (a GPA index is the one-level HGPA, so there is one kind) and
//! owns it, so a serving process needs neither the graph nor the
//! builder: `ColdStart::from_path(..)?.server()` is a full
//! [`PprServer`] answering queries bit-identical to one running over the
//! freshly built in-memory index (pinned in `tests/persist_roundtrip.rs`).
//!
//! Everything here is `Err`-based: a truncated, corrupted, or
//! retired-kind artifact surfaces as an [`io::Error`] from the loader,
//! never a panic (the `serve-panic` audit rule applies to this crate).

use crate::{DynamicPprServer, PprServer, ServeConfig};
use ppr_core::hgpa::HgpaIndex;
use ppr_core::persist;
use ppr_graph::CsrGraph;
use std::io;
use std::path::Path;

/// An owning holder for a disk-loaded index plus the serving
/// configuration to run over it.
///
/// [`PprServer`] borrows its index, so *something* must own a loaded
/// one; `ColdStart` is that owner. Keep it alive as long as any server
/// built from it.
#[derive(Debug)]
pub struct ColdStart {
    index: HgpaIndex,
    config: ServeConfig,
}

impl ColdStart {
    /// Load the index artifact at `path` and pair it with `config`.
    ///
    /// Fails with an [`io::Error`] if the file is missing, truncated,
    /// corrupted, or not an index artifact; never panics.
    pub fn from_path<P: AsRef<Path>>(path: P, config: ServeConfig) -> io::Result<Self> {
        Ok(Self {
            index: persist::load_index_file(path)?,
            config,
        })
    }

    /// Wrap an already-loaded index (e.g. from an in-memory buffer).
    pub fn from_index(index: HgpaIndex, config: ServeConfig) -> Self {
        Self { index, config }
    }

    /// The loaded index.
    pub fn index(&self) -> &HgpaIndex {
        &self.index
    }

    /// The serving configuration this holder was created with.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// A batching/caching server over the loaded index (reader shards
    /// and parallelism as configured).
    pub fn server(&self) -> PprServer<'_, HgpaIndex> {
        PprServer::new(&self.index, self.config)
    }
}

impl DynamicPprServer {
    /// Cold-start a dynamic (updatable) server from a persisted index
    /// artifact plus the graph it was built from. An artifact whose node
    /// count disagrees with `graph` is an error, not a panic.
    pub fn from_persisted<P: AsRef<Path>>(
        path: P,
        graph: CsrGraph,
        config: ServeConfig,
    ) -> io::Result<Self> {
        let index = persist::load_index_file(path)?;
        if index.node_count() != graph.node_count() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "persisted index covers {} nodes but the graph has {}",
                    index.node_count(),
                    graph.node_count()
                ),
            ));
        }
        Ok(Self::from_index(graph, index, config))
    }
}
