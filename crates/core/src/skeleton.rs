//! Hubs-skeleton columns (§5.2, Eq. 8, Theorem 6).
//!
//! The skeleton vector of `u` holds `s_u(h) = r_u(h)` for every hub `h`.
//! The paper's key distribution insight is to compute it **one hub at a
//! time**: fix `h` and iterate
//!
//! ```text
//! F_{k+1}(u) = (1-α) · Σ_{v ∈ Out(u)} F_k(v) / deg(u)  +  α · x_h(u)
//! ```
//!
//! whose fixpoint is the *column* `c_h(u) = r_u(h)` over all sources `u`
//! (Theorem 6). Each column is independent — no cross-machine dependency —
//! and needs only O(|V|) working memory, which is what makes §5.2's
//! distributed precomputation communication-free.
//!
//! Two implementations:
//! * [`skeleton_column_jacobi`] — the literal synchronous sweep of Eq. 8.
//! * [`skeleton_column_push`] — a residual (Gauss–Seidel style) variant
//!   that pushes residuals backwards along in-edges and only touches nodes
//!   whose value actually changes. Orders of magnitude faster on sparse
//!   subgraphs; identical limit (both are summations of the same Neumann
//!   series). The equivalence is property-tested and benchmarked as the
//!   ablation `skeleton_jacobi_vs_push`.

use crate::{PprConfig, SparseVector};
use ppr_graph::{Adjacency, InAdjacency, NodeId};
use std::collections::VecDeque;

/// Literal Eq. 8 sweep. Returns the dense column `u -> r_u(h)`.
pub fn skeleton_column_jacobi<A: Adjacency>(adj: &A, hub: NodeId, cfg: &PprConfig) -> Vec<f64> {
    cfg.validate();
    let n = adj.n();
    let alpha = cfg.alpha;
    let mut cur = vec![0.0f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..cfg.max_iterations {
        let mut max_diff = 0.0f64;
        for u in 0..n as NodeId {
            let deg = adj.degree(u);
            let mut acc = 0.0;
            if deg > 0 {
                for &v in adj.out(u) {
                    acc += cur[v as usize];
                }
                acc *= (1.0 - alpha) / deg as f64;
            }
            if u == hub {
                acc += alpha;
            }
            let d = (acc - cur[u as usize]).abs();
            if d > max_diff {
                max_diff = d;
            }
            next[u as usize] = acc;
        }
        std::mem::swap(&mut cur, &mut next);
        if max_diff <= cfg.epsilon {
            break;
        }
    }
    cur
}

/// Reusable residual-push engine for skeleton columns.
///
/// Invariant maintained: `c(u) = p(u) + ((I - M)^{-1} r)(u)` where
/// `M(u, v) = (1-α)/deg(u)` for each edge `u -> v`. Settling a node moves
/// its residual into the estimate and spreads `M`-weighted residual to its
/// **in-neighbours** (they reach `h` through it). Termination when all
/// residuals are at most ε gives a per-entry error of at most ε/α.
pub struct SkeletonEngine {
    p: Vec<f64>,
    r: Vec<f64>,
    in_queue: Vec<bool>,
    touched: Vec<NodeId>,
    queue: VecDeque<NodeId>,
}

impl SkeletonEngine {
    /// Engine for (sub)graphs of at most `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            p: vec![0.0; n],
            r: vec![0.0; n],
            in_queue: vec![false; n],
            touched: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    fn ensure(&mut self, n: usize) {
        if self.p.len() < n {
            self.p.resize(n, 0.0);
            self.r.resize(n, 0.0);
            self.in_queue.resize(n, false);
        }
    }

    /// Bytes of scratch this engine currently holds — the offline build's
    /// peak-scratch accounting (`OfflineReport::peak_scratch_bytes`).
    pub fn arena_bytes(&self) -> u64 {
        (self.p.len() * 8
            + self.r.len() * 8
            + self.in_queue.len()
            + self.touched.capacity() * 4
            + self.queue.capacity() * 4) as u64
    }

    /// Compute the column for `hub`, sparsified at the tolerance.
    pub fn run<A: InAdjacency>(&mut self, adj: &A, hub: NodeId, cfg: &PprConfig) -> SparseVector {
        let n = adj.n();
        self.ensure(n);
        let alpha = cfg.alpha;
        let eps = cfg.epsilon;

        self.r[hub as usize] = alpha;
        self.touched.push(hub);
        self.queue.push_back(hub);
        self.in_queue[hub as usize] = true;

        while let Some(u) = self.queue.pop_front() {
            self.in_queue[u as usize] = false;
            let res = self.r[u as usize];
            if res <= eps {
                continue;
            }
            self.r[u as usize] = 0.0;
            self.p[u as usize] += res;
            // Every in-neighbour v reaches h through u with one more step:
            // r(v) += (1-α)/deg(v) · res.
            for &v in adj.inn(u) {
                let deg = adj.degree(v);
                debug_assert!(deg > 0, "in-neighbour must have out-degree");
                let add = (1.0 - alpha) * res / deg as f64;
                if self.r[v as usize] == 0.0 && self.p[v as usize] == 0.0 {
                    self.touched.push(v);
                }
                self.r[v as usize] += add;
                if self.r[v as usize] > eps && !self.in_queue[v as usize] {
                    self.in_queue[v as usize] = true;
                    self.queue.push_back(v);
                }
            }
        }

        // Harvest in id order, counted first so both arrays are
        // allocated exactly once, and reset scratch.
        self.touched.sort_unstable();
        self.touched.dedup();
        let nnz = self
            .touched
            .iter()
            .filter(|&&v| self.p[v as usize] != 0.0)
            .count();
        let mut column = SparseVector::with_capacity(nnz);
        for &v in &self.touched {
            let val = self.p[v as usize];
            if val != 0.0 {
                column.push_sorted(v, val);
            }
            self.p[v as usize] = 0.0;
            self.r[v as usize] = 0.0;
        }
        self.touched.clear();
        self.queue.clear();
        column
    }
}

/// One-shot convenience over [`SkeletonEngine`].
pub fn skeleton_column_push<A: InAdjacency>(
    adj: &A,
    hub: NodeId,
    cfg: &PprConfig,
) -> SparseVector {
    SkeletonEngine::new(adj.n()).run(adj, hub, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_graph::csr::from_edges;
    use ppr_graph::dense::dense_ppv;
    use ppr_graph::generators::{hierarchical_sbm, HsbmConfig};
    use ppr_graph::{ViewBuilder};

    fn tight() -> PprConfig {
        PprConfig {
            epsilon: 1e-11,
            ..Default::default()
        }
    }

    #[test]
    fn column_matches_dense_rows() {
        let g = hierarchical_sbm(
            &HsbmConfig {
                nodes: 100,
                ..Default::default()
            },
            3,
        );
        let hub = 42u32;
        let col = skeleton_column_jacobi(&g, hub, &tight());
        for u in [0u32, 10, 42, 99] {
            let exact = dense_ppv(&g, u, 0.15);
            assert!(
                (col[u as usize] - exact[hub as usize]).abs() < 1e-8,
                "u {u}: {} vs {}",
                col[u as usize],
                exact[hub as usize]
            );
        }
    }

    #[test]
    fn push_equals_jacobi() {
        let g = hierarchical_sbm(
            &HsbmConfig {
                nodes: 150,
                ..Default::default()
            },
            8,
        );
        for hub in [0u32, 75, 149] {
            let a = skeleton_column_jacobi(&g, hub, &tight());
            let b = skeleton_column_push(&g, hub, &tight());
            for u in 0..150u32 {
                assert!(
                    (a[u as usize] - b.get(u)).abs() < 1e-7,
                    "hub {hub} u {u}: {} vs {}",
                    a[u as usize],
                    b.get(u)
                );
            }
        }
    }

    #[test]
    fn hub_sees_alpha_at_itself_minimum() {
        let g = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let col = skeleton_column_push(&g, 1, &tight());
        // r_1(1) >= α (trivial tour) and r_0(1) > 0 (one step away).
        assert!(col.get(1) >= 0.15 - 1e-12);
        assert!(col.get(0) > 0.0);
    }

    #[test]
    fn works_on_virtual_subgraph_views() {
        // Column on a view must honour original degrees (virtual node).
        let g = from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        let mut vb = ViewBuilder::new(&g);
        let view = vb.build(&[0, 1]); // node 1 keeps degree 2 (edge to 2 escapes)
        let l1 = view.local_of(1).unwrap();
        let col = skeleton_column_push(&view, l1, &tight());
        let exact = dense_ppv(&view, 0, 0.15); // local source u=0 (global 0)
        let l0 = view.local_of(0).unwrap();
        assert!((col.get(l0) - exact[l1 as usize]).abs() < 1e-8);
    }

    #[test]
    fn unreachable_sources_absent() {
        // 0 -> 1; nothing reaches 0, so column of hub 0 is {0: α}.
        let g = from_edges(2, &[(0, 1)]);
        let col = skeleton_column_push(&g, 0, &tight());
        assert!((col.get(0) - 0.15).abs() < 1e-12);
        assert_eq!(col.get(1), 0.0);
    }

    #[test]
    fn engine_reuse_is_clean() {
        let g = hierarchical_sbm(
            &HsbmConfig {
                nodes: 90,
                ..Default::default()
            },
            1,
        );
        let mut eng = SkeletonEngine::new(90);
        let a1 = eng.run(&g, 7, &tight());
        let _ = eng.run(&g, 44, &tight());
        let a2 = eng.run(&g, 7, &tight());
        assert_eq!(a1, a2);
    }

    #[test]
    fn epsilon_controls_error() {
        let g = hierarchical_sbm(
            &HsbmConfig {
                nodes: 200,
                ..Default::default()
            },
            12,
        );
        let exact = skeleton_column_jacobi(&g, 5, &tight());
        for eps in [1e-4, 1e-6] {
            let got = skeleton_column_push(&g, 5, &PprConfig::with_epsilon(eps));
            let max_err = (0..200u32)
                .map(|u| (exact[u as usize] - got.get(u)).abs())
                .fold(0.0f64, f64::max);
            assert!(max_err <= eps / 0.15 + 1e-12, "eps {eps}: {max_err}");
        }
    }
}
