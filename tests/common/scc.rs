//! Strongly connected components (iterative Tarjan).
//!
//! The read-set suites use it to recognise the batches that leave a live
//! graph strongly connected: there every node reaches every touched node,
//! so reachability proves nothing about any vector and only the read-set
//! predicate can skip one. The implementation is the classic Tarjan
//! algorithm with an explicit stack (graphs here are far deeper than the
//! call stack allows).

use exact_ppr::graph::{CsrGraph, NodeId};

/// Result of an SCC decomposition.
#[derive(Clone, Debug)]
pub struct SccResult {
    /// Component id per node; ids are in *reverse topological* order of
    /// the condensation (Tarjan's natural output: a component is numbered
    /// before any component that can reach it).
    pub component_of: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

impl SccResult {
    /// Members of every component, indexed by component id.
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.count];
        for (v, &c) in self.component_of.iter().enumerate() {
            out[c as usize].push(v as NodeId);
        }
        out
    }

    /// Size of the largest component.
    pub fn largest(&self) -> usize {
        let mut sizes = vec![0usize; self.count];
        for &c in &self.component_of {
            sizes[c as usize] += 1;
        }
        sizes.into_iter().max().unwrap_or(0)
    }
}

const UNVISITED: u32 = u32::MAX;

/// Tarjan's algorithm, iterative.
pub fn strongly_connected_components(g: &CsrGraph) -> SccResult {
    let n = g.node_count();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut component_of = vec![0u32; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut next_index = 0u32;
    let mut count = 0u32;

    // Explicit DFS frames: (node, next child offset).
    let mut frames: Vec<(NodeId, usize)> = Vec::new();

    for root in 0..n as NodeId {
        if index[root as usize] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                // First visit.
                index[v as usize] = next_index;
                lowlink[v as usize] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v as usize] = true;
            }
            let outs = g.out_neighbors(v);
            if *child < outs.len() {
                let w = outs[*child];
                *child += 1;
                if index[w as usize] == UNVISITED {
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
                continue;
            }
            // All children done: close the frame.
            frames.pop();
            if let Some(&mut (parent, _)) = frames.last_mut() {
                lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
            }
            if lowlink[v as usize] == index[v as usize] {
                // v roots a component: pop the stack down to v.
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w as usize] = false;
                    component_of[w as usize] = count;
                    if w == v {
                        break;
                    }
                }
                count += 1;
            }
        }
    }

    SccResult {
        component_of,
        count: count as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exact_ppr::graph::csr::from_edges;
    use exact_ppr::graph::generators::{hierarchical_sbm, HsbmConfig};

    #[test]
    fn cycle_is_one_component() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.count, 1);
        assert_eq!(scc.largest(), 4);
    }

    #[test]
    fn chain_is_singletons() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.count, 4);
        assert_eq!(scc.largest(), 1);
    }

    #[test]
    fn two_cycles_with_bridge() {
        // {0,1} <-> and {2,3} <->, bridge 1 -> 2.
        let g = from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.count, 2);
        assert_eq!(scc.component_of[0], scc.component_of[1]);
        assert_eq!(scc.component_of[2], scc.component_of[3]);
        // Reverse topological: the sink component {2,3} is numbered first.
        assert!(scc.component_of[2] < scc.component_of[0]);
    }

    #[test]
    fn components_listing_partitions_nodes() {
        let g = hierarchical_sbm(
            &HsbmConfig {
                nodes: 300,
                reciprocity: 0.4,
                ..Default::default()
            },
            8,
        );
        let scc = strongly_connected_components(&g);
        let comps = scc.components();
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, 300);
        for (cid, comp) in comps.iter().enumerate() {
            assert!(!comp.is_empty(), "component {cid} empty");
        }
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        // 60k-node path: recursive Tarjan would blow the call stack.
        let n = 60_000;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let g = from_edges(n, &edges);
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.count, n);
    }

    #[test]
    fn empty_and_isolated() {
        let g = from_edges(3, &[]);
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.count, 3);
    }
}
