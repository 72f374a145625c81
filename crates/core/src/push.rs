//! Selective expansion (Jeh–Widom; the paper's Appendix E.1, Eq. 9) as an
//! asynchronous residual push.
//!
//! Two intermediate vectors are maintained per source `u`: the lower
//! approximation `D` and the residual `E` (initially `x_u`). Expanding a
//! node `v` moves `α·E(v)` into `D(v)` and spreads `(1-α)·E(v)/deg(v)`
//! along its out-edges. **Hub nodes are never expanded** (mass reaching
//! them parks in `E` forever — those are exactly the tours the skeleton
//! accounts for), *except* that the source itself is always expanded on
//! its first touch, matching Jeh–Widom's schedule `Q₀ = V, Q_k = V − H`:
//! a tour's start does not count as "passing through" a hub.
//!
//! Processing nodes one at a time off a queue instead of in synchronous
//! rounds changes nothing about the limit (the pushed series is the same
//! sum over tours) but terminates adaptively: the run ends when every
//! expandable residual is at most ε, giving the paper's per-entry
//! tolerance guarantee.
//!
//! With an empty blocker set this computes the **full local PPV** of the
//! (sub)graph — which by Theorem 2 is how HGPA evaluates leaf-level
//! vectors and how partial vectors equal local PPVs of virtual subgraphs.

use crate::{PprConfig, SparseVector};
use ppr_graph::{Adjacency, NodeId};
use std::collections::VecDeque;

/// Outcome of one selective-expansion run, in the (sub)graph's id space.
#[derive(Clone, Debug)]
pub struct PushOutcome {
    /// The converged lower approximation `D` — the partial vector (or the
    /// local PPV when no blockers were given).
    pub partial: SparseVector,
    /// Residual mass parked at blocked (hub) nodes.
    pub hub_residual: SparseVector,
    /// Number of push operations performed.
    pub pushes: u64,
}

/// Reusable selective-expansion engine. Keeps graph-sized scratch buffers
/// so precomputing vectors for every node of a subgraph allocates once.
pub struct PushEngine {
    d: Vec<f64>,
    e: Vec<f64>,
    in_queue: Vec<bool>,
    touched: Vec<NodeId>,
    queue: VecDeque<NodeId>,
}

impl PushEngine {
    /// Engine for (sub)graphs of at most `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            d: vec![0.0; n],
            e: vec![0.0; n],
            in_queue: vec![false; n],
            touched: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// Grow scratch space if a larger view arrives.
    fn ensure(&mut self, n: usize) {
        if self.d.len() < n {
            self.d.resize(n, 0.0);
            self.e.resize(n, 0.0);
            self.in_queue.resize(n, false);
        }
    }

    /// Bytes of scratch this engine currently holds — the offline build's
    /// peak-scratch accounting (`OfflineReport::peak_scratch_bytes`).
    pub fn arena_bytes(&self) -> u64 {
        (self.d.len() * 8
            + self.e.len() * 8
            + self.in_queue.len()
            + self.touched.capacity() * 4
            + self.queue.capacity() * 4) as u64
    }

    /// Run selective expansion from `source`. `blocked[v]` marks hub nodes
    /// (never expanded, except `source` on its first touch). Pass all-false
    /// for a full local PPV.
    pub fn run<A: Adjacency>(
        &mut self,
        adj: &A,
        source: NodeId,
        blocked: &[bool],
        cfg: &PprConfig,
    ) -> PushOutcome {
        let n = adj.n();
        debug_assert_eq!(blocked.len(), n);
        self.ensure(n);
        let alpha = cfg.alpha;
        let eps = cfg.epsilon;
        let mut pushes = 0u64;

        let touch = |v: NodeId, touched: &mut Vec<NodeId>, e: &mut [f64], add: f64| {
            if e[v as usize] == 0.0 {
                touched.push(v);
            }
            e[v as usize] += add;
        };

        // Seed and force-expand the source once (Q₀ = V).
        touch(source, &mut self.touched, &mut self.e, 1.0);
        self.expand(adj, source, alpha, &mut pushes);
        // Note: if mass cycles back to a non-blocked source it re-enters the
        // queue like any other node; if the source is blocked, returning
        // mass parks there.

        // Enqueue whatever the seed expansion raised above tolerance.
        for &v in &self.touched {
            if self.e[v as usize] > eps && !blocked[v as usize] && !self.in_queue[v as usize] {
                self.in_queue[v as usize] = true;
                self.queue.push_back(v);
            }
        }

        while let Some(v) = self.queue.pop_front() {
            self.in_queue[v as usize] = false;
            if self.e[v as usize] <= eps || blocked[v as usize] {
                continue;
            }
            self.expand(adj, v, alpha, &mut pushes);
            // Enqueue neighbours whose residual crossed the threshold.
            for &w in adj.out(v) {
                if self.e[w as usize] > eps
                    && !blocked[w as usize]
                    && !self.in_queue[w as usize]
                {
                    self.in_queue[w as usize] = true;
                    self.queue.push_back(w);
                }
            }
        }

        // Harvest in id order and reset scratch. Sorting the touch list
        // writes both vectors' arrays directly in order; survivors are
        // counted first so each array is allocated exactly once. (A
        // duplicate touch — possible only when `α·mass` underflows —
        // is dropped by the dedup, as the read-then-reset loop did.)
        self.touched.sort_unstable();
        self.touched.dedup();
        let (mut partial_nnz, mut residual_nnz) = (0, 0);
        for &v in &self.touched {
            partial_nnz += usize::from(self.d[v as usize] != 0.0);
            residual_nnz += usize::from(self.e[v as usize] != 0.0 && blocked[v as usize]);
        }
        let mut partial = SparseVector::with_capacity(partial_nnz);
        let mut hub_residual = SparseVector::with_capacity(residual_nnz);
        for &v in &self.touched {
            let dv = self.d[v as usize];
            if dv != 0.0 {
                partial.push_sorted(v, dv);
            }
            let ev = self.e[v as usize];
            if ev != 0.0 && blocked[v as usize] {
                hub_residual.push_sorted(v, ev);
            }
            self.d[v as usize] = 0.0;
            self.e[v as usize] = 0.0;
        }
        self.touched.clear();
        self.queue.clear();

        PushOutcome {
            partial,
            hub_residual,
            pushes,
        }
    }

    /// One expansion: move α·E(v) to D(v), spread the continuation.
    fn expand<A: Adjacency>(&mut self, adj: &A, v: NodeId, alpha: f64, pushes: &mut u64) {
        let mass = self.e[v as usize];
        if mass == 0.0 {
            return;
        }
        *pushes += 1;
        self.e[v as usize] = 0.0;
        self.d[v as usize] += alpha * mass;
        let deg = adj.degree(v);
        if deg == 0 {
            return; // dangling: continuation absorbed
        }
        let share = (1.0 - alpha) * mass / deg as f64;
        for &w in adj.out(v) {
            if self.e[w as usize] == 0.0 && self.d[w as usize] == 0.0 {
                self.touched.push(w);
            }
            self.e[w as usize] += share;
        }
        // deg > outs.len(): the remainder walked to the virtual node.
    }
}

/// One-shot convenience: full local PPV by push (no blockers).
pub fn local_ppv_push<A: Adjacency>(adj: &A, source: NodeId, cfg: &PprConfig) -> SparseVector {
    let mut engine = PushEngine::new(adj.n());
    let blocked = vec![false; adj.n()];
    engine.run(adj, source, &blocked, cfg).partial
}

/// One-shot convenience: partial vector w.r.t. a blocker set.
pub fn partial_vector_push<A: Adjacency>(
    adj: &A,
    source: NodeId,
    blocked: &[bool],
    cfg: &PprConfig,
) -> PushOutcome {
    let mut engine = PushEngine::new(adj.n());
    engine.run(adj, source, blocked, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_graph::csr::from_edges;
    use ppr_graph::dense::dense_ppv;
    use ppr_graph::generators::{hierarchical_sbm, HsbmConfig};

    fn tight() -> PprConfig {
        PprConfig {
            epsilon: 1e-10,
            ..Default::default()
        }
    }

    #[test]
    fn no_blockers_equals_full_ppv() {
        let g = hierarchical_sbm(
            &HsbmConfig {
                nodes: 150,
                ..Default::default()
            },
            2,
        );
        for s in [0u32, 60, 149] {
            let exact = dense_ppv(&g, s, 0.15);
            let got = local_ppv_push(&g, s, &tight());
            for v in 0..150u32 {
                assert!(
                    (exact[v as usize] - got.get(v)).abs() < 1e-7,
                    "src {s} node {v}: {} vs {}",
                    exact[v as usize],
                    got.get(v)
                );
            }
        }
    }

    #[test]
    fn blocked_nodes_gain_no_partial_mass_beyond_alpha_e() {
        // Chain 0 -> 1 -> 2 with 1 blocked: partial(0) must see nothing at 2.
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let out = partial_vector_push(&g, 0, &[false, true, false], &tight());
        assert!((out.partial.get(0) - 0.15).abs() < 1e-12);
        assert_eq!(out.partial.get(1), 0.0, "blocked node absorbs, not scores");
        assert_eq!(out.partial.get(2), 0.0, "tours through hub must be blocked");
        // The parked residual at the hub is the full pass-through mass.
        assert!((out.hub_residual.get(1) - 0.85).abs() < 1e-12);
    }

    #[test]
    fn source_expands_even_when_blocked() {
        // Source is itself a hub: first expansion must still happen.
        let g = from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
        let out = partial_vector_push(&g, 0, &[true, false, false], &tight());
        // p_0(0) = α (the trivial tour only; returning tours park at 0).
        assert!((out.partial.get(0) - 0.15).abs() < 1e-12);
        assert!(out.partial.get(1) > 0.0);
        // Residual parked back at the blocked source.
        assert!(out.hub_residual.get(0) > 0.0);
    }

    #[test]
    fn partial_matches_paper_figure1_structure() {
        // Figure 1: u1..u5 = 0..4, hubs {u2, u3} = {1, 2}.
        // Edges (directed, as drawn): u1->u2, u1->u4, u4->u5, u5->u2,
        // u5->u3, u2->u3, u2->u1(say cycle) — we only need reachability
        // shape: p_{u1} supported on {u1, u4, u5} only.
        let g = from_edges(
            5,
            &[(0, 1), (0, 3), (3, 4), (4, 1), (4, 2), (1, 2), (2, 0)],
        );
        let blocked = [false, true, true, false, false];
        let out = partial_vector_push(&g, 0, &blocked, &tight());
        assert!(out.partial.get(0) > 0.0);
        assert!(out.partial.get(3) > 0.0, "u4 reachable without hubs");
        assert!(out.partial.get(4) > 0.0, "u5 reachable without hubs");
        assert_eq!(out.partial.get(1), 0.0);
        assert_eq!(out.partial.get(2), 0.0);
    }

    #[test]
    fn mass_conservation_with_residuals() {
        // partial mass + α-discounted future of residuals + leaked = 1.
        // With no dangling nodes and all residuals at hubs:
        // l1(D) counts α per absorbed unit; total absorbed + parked = 1.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 0)]);
        let blocked = [false, false, true, false];
        let out = partial_vector_push(&g, 0, &blocked, &tight());
        // Invariant of the push loop: each push removes residual e and adds
        // α·e to D plus at most (1-α)·e back to E, so ΣD + ΣE + leaked = 1.
        let absorbed: f64 = out.partial.l1_norm();
        let parked: f64 = out.hub_residual.l1_norm();
        assert!(
            (absorbed + parked - 1.0).abs() < 1e-6,
            "absorbed {absorbed} parked {parked}"
        );
    }

    #[test]
    fn engine_reuse_is_clean() {
        let g = hierarchical_sbm(
            &HsbmConfig {
                nodes: 80,
                ..Default::default()
            },
            9,
        );
        let blocked = vec![false; 80];
        let mut engine = PushEngine::new(80);
        let a1 = engine.run(&g, 5, &blocked, &tight()).partial;
        let _ = engine.run(&g, 50, &blocked, &tight());
        let a2 = engine.run(&g, 5, &blocked, &tight()).partial;
        assert_eq!(a1, a2, "scratch reuse must not contaminate results");
    }

    #[test]
    fn epsilon_bounds_error() {
        let g = hierarchical_sbm(
            &HsbmConfig {
                nodes: 200,
                ..Default::default()
            },
            4,
        );
        let exact = dense_ppv(&g, 10, 0.15);
        for eps in [1e-3, 1e-5, 1e-7] {
            let got = local_ppv_push(&g, 10, &PprConfig::with_epsilon(eps));
            let max_err = (0..200)
                .map(|v| (exact[v] - got.get(v as u32)).abs())
                .fold(0.0f64, f64::max);
            // Residual-based bound: leftover mass ≤ n·eps gets discounted;
            // empirically err stays well below sqrt scale of eps.
            assert!(max_err < eps * 200.0, "eps {eps}: err {max_err}");
        }
    }
}
