//! Hierarchical graph partitioning (paper §4.2, Figures 6–7).
//!
//! The graph is recursively split top-down. At every internal subgraph the
//! member set is partitioned `fanout` ways, the cut edges' vertex cover
//! becomes that subgraph's hub set `H(G_m^i)`, and the children are the
//! parts *minus* the hubs ("once a node is selected as hub node, this node
//! and all the related edges will be omitted in the next level").
//! Recursion stops when a subgraph has no internal edges (the paper's
//! criterion, §6.2.1), is tiny, or hits a depth cap.

use crate::flat::FlatPartition;
use crate::kway::partition_kway;
use crate::separator::{select_hubs, CoverAlgorithm};
use crate::work::WorkGraph;
use crate::PartitionConfig;
use ppr_graph::{CsrGraph, NodeId};

/// One subgraph in the hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubgraphNode {
    /// Level in the hierarchy; the root (whole graph) is level 0.
    pub level: u32,
    /// Arena index of the parent, `None` for the root.
    pub parent: Option<usize>,
    /// Arena indices of children (parts minus hubs), possibly empty.
    pub children: Vec<usize>,
    /// Member nodes (sorted, global ids). Includes this subgraph's own
    /// hubs; excludes every ancestor's hubs.
    pub members: Vec<NodeId>,
    /// Hub nodes separating the children (sorted). Empty for every leaf
    /// (and for the root of a hub-free [`Hierarchy::from_flat`]).
    pub hubs: Vec<NodeId>,
}

impl SubgraphNode {
    /// True when this subgraph was not split further.
    pub fn is_leaf(&self) -> bool {
        self.hubs.is_empty() && self.children.is_empty()
    }
}

/// Configuration for [`Hierarchy::build`].
#[derive(Clone, Copy, Debug)]
pub struct HierarchyConfig {
    /// Parts per split (2 = the paper's default two-way scheme, §4.2).
    pub fanout: usize,
    /// Optional depth cap (`None` = split until leaves are small enough).
    pub max_depth: Option<u32>,
    /// Do not split subgraphs smaller than this.
    pub min_members: usize,
    /// Stop splitting once a subgraph has at most this many members. The
    /// paper splits "until no edges exist within each subgraph" in the
    /// limit but notes (§6.2.4) that once leaves hold few edges further
    /// levels buy nothing; a size target keeps the total hub count small
    /// on graphs whose communities are internally dense. Set to 0 to force
    /// splitting all the way to edge-free leaves.
    pub max_leaf_size: usize,
    /// Hub-selection algorithm.
    pub cover: CoverAlgorithm,
    /// Partitioner options.
    pub partition: PartitionConfig,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self {
            fanout: 2,
            max_depth: None,
            min_members: 4,
            max_leaf_size: 32,
            cover: CoverAlgorithm::KonigExact,
            partition: PartitionConfig::default(),
        }
    }
}

/// The full hierarchical partition of a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hierarchy {
    /// Arena of subgraphs; index 0 is the root.
    pub nodes: Vec<SubgraphNode>,
    /// Per graph node: the arena index of its *home* subgraph — the leaf
    /// containing it (non-hub nodes) or the subgraph whose hub set it
    /// belongs to (hub nodes).
    pub home: Vec<usize>,
    /// Per graph node: `Some(level)` if the node is a hub at that level.
    pub hub_level: Vec<Option<u32>>,
    /// Maximum level of any subgraph.
    pub depth: u32,
}

impl Hierarchy {
    /// Build the hierarchy for `g`.
    pub fn build(g: &CsrGraph, cfg: &HierarchyConfig) -> Self {
        assert!(cfg.fanout >= 2, "fanout must be at least 2");
        let n = g.node_count();
        let all: Vec<NodeId> = (0..n as NodeId).collect();
        let mut h = Hierarchy {
            nodes: Vec::new(),
            home: vec![usize::MAX; n],
            hub_level: vec![None; n],
            depth: 0,
        };
        h.split_into(g, cfg, all, 0, None);
        debug_assert!(h.home.iter().all(|&x| x != usize::MAX));
        h
    }

    /// The one-level hierarchy of a flat partition: GPA (§3) is HGPA (§4)
    /// with a single split. The root (level 0) holds every node and has
    /// the flat hubs as its hub set; below it sits one leaf per part, in
    /// part order. Empty parts are kept as empty leaves, so leaf `i` is
    /// part `i` and HGPA's round-robin leaf placement (`i % machines`)
    /// matches GPA's part placement (`p % machines`).
    pub fn from_flat(flat: &FlatPartition) -> Self {
        let n = flat.part_of.len();
        let mut nodes = vec![SubgraphNode {
            level: 0,
            parent: None,
            children: (1..=flat.parts()).collect(),
            members: (0..n as NodeId).collect(),
            hubs: flat.hubs.clone(),
        }];
        nodes.extend(flat.subgraphs.iter().map(|members| SubgraphNode {
            level: 1,
            parent: Some(0),
            children: Vec::new(),
            members: members.clone(),
            hubs: Vec::new(),
        }));
        Hierarchy {
            nodes,
            home: flat
                .part_of
                .iter()
                .map(|p| p.map_or(0, |p| p as usize + 1))
                .collect(),
            hub_level: flat.part_of.iter().map(|p| p.is_none().then_some(0)).collect(),
            depth: 1,
        }
    }

    fn split_into(
        &mut self,
        g: &CsrGraph,
        cfg: &HierarchyConfig,
        mut members: Vec<NodeId>,
        level: u32,
        parent: Option<usize>,
    ) -> usize {
        members.sort_unstable();
        let idx = self.nodes.len();
        self.nodes.push(SubgraphNode {
            level,
            parent,
            children: Vec::new(),
            members: members.clone(),
            hubs: Vec::new(),
        });
        self.depth = self.depth.max(level);

        let stop_by_depth = cfg.max_depth.map(|d| level >= d).unwrap_or(false);
        let stop_by_size = members.len() <= cfg.max_leaf_size || members.len() < cfg.min_members;
        if stop_by_depth || stop_by_size || count_internal_edges(g, &members) == 0 {
            return self.finish_leaf(idx);
        }

        // Partition the induced subgraph.
        let (wg, globals) = WorkGraph::from_members(g, &members);
        debug_assert_eq!(globals, members);
        let pcfg = PartitionConfig {
            seed: cfg
                .partition
                .seed
                .wrapping_add((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..cfg.partition
        };
        let labels = partition_kway(&wg, cfg.fanout, &pcfg);
        let hubs = select_hubs(g, &members, &labels, cfg.cover);

        // Children = parts minus hubs.
        let is_hub = |v: NodeId| hubs.binary_search(&v).is_ok();
        let mut parts: Vec<Vec<NodeId>> = vec![Vec::new(); cfg.fanout];
        for (i, &v) in members.iter().enumerate() {
            if !is_hub(v) {
                parts[labels[i] as usize].push(v);
            }
        }
        let nonempty = parts.iter().filter(|p| !p.is_empty()).count();
        if hubs.is_empty() && nonempty <= 1 {
            // Degenerate split (e.g. a clique the partitioner refused to
            // cut without covering everything): keep as leaf.
            return self.finish_leaf(idx);
        }

        self.nodes[idx].hubs = hubs.clone();
        for &h in &hubs {
            self.home[h as usize] = idx;
            self.hub_level[h as usize] = Some(level);
        }
        for part in parts {
            if part.is_empty() {
                continue;
            }
            let child = self.split_into(g, cfg, part, level + 1, Some(idx));
            self.nodes[idx].children.push(child);
        }
        idx
    }

    fn finish_leaf(&mut self, idx: usize) -> usize {
        let members = self.nodes[idx].members.clone();
        for v in members {
            self.home[v as usize] = idx;
        }
        idx
    }

    /// Arena index of the root (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Chain of subgraphs from the root down to `v`'s home, inclusive.
    pub fn path_to(&self, v: NodeId) -> Vec<usize> {
        let mut path = Vec::new();
        let mut cur = Some(self.home[v as usize]);
        while let Some(i) = cur {
            path.push(i);
            cur = self.nodes[i].parent;
        }
        path.reverse();
        path
    }

    /// Iterator over leaf subgraph indices.
    pub fn leaves(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].is_leaf())
    }

    /// Total hub count per level (the paper's Tables 2–5).
    pub fn hubs_per_level(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.depth as usize + 1];
        for n in &self.nodes {
            counts[n.level as usize] += n.hubs.len();
        }
        while counts.last() == Some(&0) && counts.len() > 1 {
            counts.pop();
        }
        counts
    }

    /// Total number of hub nodes across all levels.
    pub fn total_hubs(&self) -> usize {
        self.nodes.iter().map(|n| n.hubs.len()).sum()
    }

    /// True if `v` is a hub at any level.
    pub fn is_hub(&self, v: NodeId) -> bool {
        self.hub_level[v as usize].is_some()
    }
}

fn count_internal_edges(g: &CsrGraph, members: &[NodeId]) -> usize {
    members
        .iter()
        .map(|&u| {
            g.out_neighbors(u)
                .iter()
                .filter(|&&v| members.binary_search(&v).is_ok())
                .count()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_graph::generators::{hierarchical_sbm, HsbmConfig};

    fn sample(n: usize) -> CsrGraph {
        hierarchical_sbm(
            &HsbmConfig {
                nodes: n,
                depth: 5,
                locality: 0.9,
                ..Default::default()
            },
            7,
        )
    }

    #[test]
    fn every_node_has_exactly_one_home() {
        let g = sample(300);
        let h = Hierarchy::build(&g, &HierarchyConfig::default());
        // Membership partition: hubs of internal nodes + members of leaves.
        let mut count = vec![0usize; 300];
        for n in &h.nodes {
            if n.is_leaf() {
                for &v in &n.members {
                    count[v as usize] += 1;
                }
            } else {
                for &v in &n.hubs {
                    count[v as usize] += 1;
                }
            }
        }
        assert!(count.iter().all(|&c| c == 1));
    }

    #[test]
    fn children_exclude_hubs_and_ancestors() {
        let g = sample(300);
        let h = Hierarchy::build(&g, &HierarchyConfig::default());
        for (i, n) in h.nodes.iter().enumerate() {
            for &c in &n.children {
                let child = &h.nodes[c];
                assert_eq!(child.parent, Some(i));
                assert_eq!(child.level, n.level + 1);
                for &v in &child.members {
                    assert!(n.members.binary_search(&v).is_ok(), "child member not in parent");
                    assert!(n.hubs.binary_search(&v).is_err(), "hub leaked into child");
                }
            }
        }
    }

    #[test]
    fn separation_invariant_at_every_internal_node() {
        let g = sample(400);
        let h = Hierarchy::build(&g, &HierarchyConfig::default());
        for n in &h.nodes {
            if n.is_leaf() {
                continue;
            }
            // An edge between members of two *different* children must not
            // exist (hubs were removed; cover guarantees separation).
            let child_of = |v: NodeId| {
                n.children
                    .iter()
                    .position(|&c| h.nodes[c].members.binary_search(&v).is_ok())
            };
            for &u in &n.members {
                if n.hubs.binary_search(&u).is_ok() {
                    continue;
                }
                for &v in g.out_neighbors(u) {
                    if n.members.binary_search(&v).is_err() || n.hubs.binary_search(&v).is_ok() {
                        continue;
                    }
                    assert_eq!(child_of(u), child_of(v), "edge ({u},{v}) crosses children");
                }
            }
        }
    }

    #[test]
    fn leaves_have_no_internal_edges_without_depth_cap() {
        let g = sample(200);
        // `max_leaf_size: 0` splits until the leaves are edge-free (§4.2):
        // only a leaf too small to split may stop early.
        let cfg = HierarchyConfig {
            min_members: 2,
            max_leaf_size: 0,
            ..Default::default()
        };
        let h = Hierarchy::build(&g, &cfg);
        for leaf in h.leaves() {
            let members = &h.nodes[leaf].members;
            if members.len() < cfg.min_members {
                continue; // stopped by size, may retain a self-loop
            }
            assert_eq!(
                count_internal_edges(&g, members),
                0,
                "leaf {leaf} with {} members keeps internal edges",
                members.len()
            );
        }
        // Structural sanity: there is at least one leaf and depth >= 1.
        assert!(h.leaves().count() >= 2);
        assert!(h.depth >= 1);
    }

    #[test]
    fn path_to_walks_root_to_home() {
        let g = sample(300);
        let h = Hierarchy::build(&g, &HierarchyConfig::default());
        for v in [0u32, 57, 123, 299] {
            let path = h.path_to(v);
            assert_eq!(path[0], h.root());
            assert_eq!(*path.last().unwrap(), h.home[v as usize]);
            for w in path.windows(2) {
                assert_eq!(h.nodes[w[1]].parent, Some(w[0]));
            }
        }
    }

    #[test]
    fn depth_cap_respected() {
        let g = sample(500);
        let cfg = HierarchyConfig {
            max_depth: Some(2),
            ..Default::default()
        };
        let h = Hierarchy::build(&g, &cfg);
        assert!(h.depth <= 2);
        for n in &h.nodes {
            assert!(n.level <= 2);
        }
    }

    #[test]
    fn hubs_per_level_sums_to_total() {
        let g = sample(400);
        let h = Hierarchy::build(&g, &HierarchyConfig::default());
        let per_level = h.hubs_per_level();
        assert_eq!(per_level.iter().sum::<usize>(), h.total_hubs());
        // Hubs are a small fraction on community graphs (paper's premise).
        assert!(h.total_hubs() < 400 / 2, "|H| = {}", h.total_hubs());
    }

    #[test]
    fn multiway_fanout() {
        let g = sample(400);
        let cfg = HierarchyConfig {
            fanout: 4,
            ..Default::default()
        };
        let h = Hierarchy::build(&g, &cfg);
        // Root should have up to 4 children.
        assert!(h.nodes[0].children.len() <= 4);
        assert!(h.nodes[0].children.len() >= 2);
        // Everyone still gets a home.
        assert!(h.home.iter().all(|&x| x != usize::MAX));
    }

    fn flat(g: &CsrGraph, parts: usize) -> Hierarchy {
        let fp = crate::flat::flat_partition(
            g,
            parts,
            CoverAlgorithm::KonigExact,
            &PartitionConfig::default(),
        );
        let h = Hierarchy::from_flat(&fp);
        assert_eq!(h.depth, 1);
        assert_eq!(h.nodes[0].hubs, fp.hubs);
        assert_eq!(h.leaves().count(), parts, "one leaf per part, empty ones too");
        for (p, members) in fp.subgraphs.iter().enumerate() {
            assert_eq!(&h.nodes[p + 1].members, members, "leaf {} is part {p}", p + 1);
        }
        h
    }

    #[test]
    fn from_flat_homes_and_hub_levels_agree() {
        let g = sample(300);
        let h = flat(&g, 4);
        assert!(h.total_hubs() > 0);
        assert_eq!(h.nodes[0].members.len(), 300);
        for v in 0..300u32 {
            let home = &h.nodes[h.home[v as usize]];
            if h.is_hub(v) {
                assert_eq!(h.hub_level[v as usize], Some(0));
                assert!(home.hubs.binary_search(&v).is_ok(), "hub {v} not homed at the root");
            } else {
                assert!(home.is_leaf() && home.members.binary_search(&v).is_ok(), "node {v}");
            }
            assert_eq!(h.path_to(v)[0], h.root());
        }
        assert!(crate::quality::verify_hierarchy_separation(&g, &h));
    }

    #[test]
    fn from_flat_keeps_empty_parts_as_leaves() {
        // Five nodes in sixteen parts: most parts are empty, and each
        // still gets its own (empty) leaf in part order.
        let g = ppr_graph::csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let h = flat(&g, 16);
        assert!(h.leaves().any(|l| h.nodes[l].members.is_empty()));
        assert!(crate::quality::verify_hierarchy_separation(&g, &h));
    }

    #[test]
    fn from_flat_one_part_has_no_hubs() {
        let g = sample(100);
        let h = flat(&g, 1);
        assert_eq!(h.total_hubs(), 0);
        assert!(!h.nodes[0].is_leaf(), "the root still has its one leaf below it");
        assert!(h.home.iter().all(|&home| home == 1));
        assert!(crate::quality::verify_hierarchy_separation(&g, &h));
    }

    #[test]
    fn tiny_graph_is_single_leaf() {
        let g = ppr_graph::csr::from_edges(3, &[(0, 1), (1, 2)]);
        let h = Hierarchy::build(&g, &HierarchyConfig::default());
        assert_eq!(h.nodes.len(), 1);
        assert!(h.nodes[0].is_leaf());
        assert_eq!(h.depth, 0);
    }
}
