//! Reverse reachability: which sources can reach a given target set?
//!
//! A Personalized PageRank vector is a measure over random walks, and a
//! walk from `s` only notices an edge change `(u, v)` if it visits `u` —
//! i.e. if `s` can reach `u`. "`s` can reach a touched node" is therefore
//! the conservative staleness predicate the serving layer uses to decide
//! which cached PPVs an index update can actually affect (and, crucially,
//! which it provably cannot — those survive the update).
//!
//! [`reverse_reachable`] answers it with one multi-source BFS over the
//! *in*-adjacency, O(V + E) per update batch. (Index maintenance does not
//! use reachability: on a strongly connected graph it proves nothing, so
//! `ppr-core`'s updater decides per stored vector from the rows that
//! vector's last run read.)

use crate::csr::CsrGraph;
use crate::NodeId;

/// `out[s] == true` iff `s` can reach at least one node of `targets` in
/// `g` (every target trivially reaches itself). Multi-source BFS over
/// in-edges.
pub fn reverse_reachable(g: &CsrGraph, targets: &[NodeId]) -> Vec<bool> {
    let n = g.node_count();
    let mut reach = vec![false; n];
    let mut queue: Vec<NodeId> = Vec::with_capacity(targets.len());
    for &t in targets {
        let t_us = t as usize;
        assert!(t_us < n, "target {t} out of range for {n}-node graph");
        if !reach[t_us] {
            reach[t_us] = true;
            queue.push(t);
        }
    }
    // BFS backwards: if v reaches the target set, every in-neighbour does.
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for &p in g.in_neighbors(v) {
            if !reach[p as usize] {
                reach[p as usize] = true;
                queue.push(p);
            }
        }
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::from_edges;

    #[test]
    fn chain_reachability() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let r = reverse_reachable(&g, &[2]);
        assert_eq!(r, vec![true, true, true, false, false]);
        // Empty target set: nobody reaches anything.
        assert!(reverse_reachable(&g, &[]).iter().all(|&x| !x));
    }

    #[test]
    fn targets_reach_themselves() {
        let g = from_edges(3, &[]);
        let r = reverse_reachable(&g, &[1]);
        assert_eq!(r, vec![false, true, false]);
    }

    #[test]
    fn cycle_members_all_reach() {
        let g = from_edges(4, &[(0, 1), (1, 0), (2, 0), (3, 2)]);
        let r = reverse_reachable(&g, &[1]);
        assert_eq!(r, vec![true, true, true, true]);
    }

    #[test]
    fn matches_a_forward_search_per_source_on_random_graphs() {
        use crate::generators::{hierarchical_sbm, HsbmConfig};
        for seed in 0..8u64 {
            let g = hierarchical_sbm(
                &HsbmConfig {
                    nodes: 120,
                    reciprocity: 0.3,
                    ..Default::default()
                },
                seed,
            );
            for targets in [vec![0u32], vec![17, 100], vec![119, 1, 60, 30], Vec::new()] {
                let got = reverse_reachable(&g, &targets);
                for s in 0..120u32 {
                    // Independent oracle: plain forward DFS from `s`.
                    let mut seen = [false; 120];
                    let mut stack = vec![s];
                    seen[s as usize] = true;
                    while let Some(v) = stack.pop() {
                        for &w in g.out_neighbors(v) {
                            if !seen[w as usize] {
                                seen[w as usize] = true;
                                stack.push(w);
                            }
                        }
                    }
                    let want = targets.iter().any(|&t| seen[t as usize]);
                    assert_eq!(got[s as usize], want, "seed {seed} targets {targets:?} source {s}");
                }
            }
        }
    }

    #[test]
    fn disjoint_halves_do_not_cross() {
        // 0..3 and 3..6 are disconnected; dirtying one half leaves the
        // other provably clean — the cache-retention property.
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let r = reverse_reachable(&g, &[4]);
        assert_eq!(&r[..3], &[false, false, false]);
        assert_eq!(&r[3..], &[true, true, true]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_target_rejected() {
        let g = from_edges(2, &[(0, 1)]);
        reverse_reachable(&g, &[5]);
    }
}
