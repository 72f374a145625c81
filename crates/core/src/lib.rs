#![warn(missing_docs)]

//! Exact Personalized PageRank: kernels, decomposition, and the paper's
//! GPA / HGPA distributed indexes.
//!
//! Module map (paper section in parentheses):
//!
//! * [`sparse`] — the sparse vector type every precomputed object uses.
//! * [`power`] — queue-based power iteration (§1 Eq. 1, Appendix C
//!   Algorithm 2); the baseline and the accuracy reference.
//! * [`push`] — selective expansion (Appendix E.1, Eq. 9) as an
//!   asynchronous residual push; computes **partial vectors** and, with an
//!   empty blocker set, full local PPVs.
//! * [`skeleton`] — the per-hub column iteration (§5.2 Eq. 8, Theorem 6)
//!   in both Jacobi and residual-push forms; computes **hubs skeleton
//!   vectors** one hub at a time, which is what makes the distribution of
//!   §5.2 possible.
//! * [`jw`] — PPV-JW (§2.3): the centralized brute-force decomposition the
//!   distributed algorithms must agree with (Theorem 1).
//! * [`gpa`] — the flat graph-partition algorithm (§3), built as the
//!   one-level case of [`hgpa`].
//! * [`hgpa`] — the hierarchical, hub-distributed algorithm (§4),
//!   including the `HGPA_ad` truncation variant of §6.2.9.
//! * [`parallel`] — the [`ParallelismMode`] switch (shared with
//!   `ppr-cluster`'s online fan-out) and the timed work pool both offline
//!   builds deal their hub-column / local-PPV work items through.
//! * [`codec`] — varint/delta/zigzag primitives, CRC32, and the
//!   compressed PPV block encoding the storage tier is built on.
//! * [`persist`] — the versioned, checksummed on-disk index format:
//!   save/load for [`hgpa::HgpaIndex`] (GPA indexes included), so §5's
//!   precomputation is paid once and served from disk thereafter.
//!
//! ## Semantics
//!
//! Everything here follows the tour/linear-system model of §2.1:
//! `r_u = α·x_u + (1-α)·Aᵀ·r_u` with `A` row-substochastic. Mass at a
//! dangling node (or at the virtual node of a subgraph view) is absorbed —
//! the semantics under which the decomposition theorems are exact. The
//! power kernel also offers the dangling policy of Algorithm 2 for
//! comparison; see [`power::DanglingPolicy`].

pub mod codec;
pub mod gpa;
pub mod hgpa;
pub mod incremental;
pub mod jw;
pub mod parallel;
pub mod persist;
pub mod power;
pub mod push;
pub mod skeleton;
pub mod sparse;

pub use parallel::ParallelismMode;
pub use sparse::{Scratch, SparseVector};

/// Shared configuration for all PPV computations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PprConfig {
    /// Teleport (restart) probability α ∈ (0, 1). The paper fixes 0.15.
    pub alpha: f64,
    /// Error tolerance ε: iterative kernels run until per-entry residuals
    /// fall below it (§6.1 uses 1e-4; exactness experiments shrink it).
    pub epsilon: f64,
    /// Safety cap on sweep-style iterations.
    pub max_iterations: u32,
}

impl Default for PprConfig {
    fn default() -> Self {
        Self {
            alpha: 0.15,
            epsilon: 1e-4,
            max_iterations: 10_000,
        }
    }
}

impl PprConfig {
    /// Construct with the paper's defaults and a custom tolerance.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self {
            epsilon,
            ..Default::default()
        }
    }

    /// Validate invariants; called by index builders.
    pub fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha < 1.0,
            "alpha must be in (0,1), got {}",
            self.alpha
        );
        assert!(self.epsilon > 0.0, "epsilon must be positive");
        assert!(self.max_iterations > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PprConfig::default();
        assert_eq!(c.alpha, 0.15);
        assert_eq!(c.epsilon, 1e-4);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        PprConfig {
            alpha: 1.5,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        PprConfig {
            epsilon: 0.0,
            ..Default::default()
        }
        .validate();
    }
}
