//! Network topologies and generators.
//!
//! The paper's evaluation (Section 6) runs the Best-Path query over randomly
//! generated topologies: *"As input, we insert link tables for N nodes with
//! average outdegree of three, and vary the size of N from 10 to 100."*
//! [`Topology::random_out_degree`] reproduces that workload; the other
//! generators cover the worked examples (the three-node network of Figure 1)
//! and additional regression topologies (ring and line).

use crate::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// A unidirectional link with an integer cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Link {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Link cost (used by the Best-Path query).
    pub cost: u32,
}

/// A directed network topology.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Topology {
    nodes: Vec<NodeId>,
    links: Vec<Link>,
}

impl Topology {
    /// Builds a topology from an explicit node and link list.  Nodes
    /// referenced by links are added automatically.
    pub fn new(nodes: impl IntoIterator<Item = NodeId>, links: Vec<Link>) -> Self {
        let mut node_set: BTreeSet<NodeId> = nodes.into_iter().collect();
        for l in &links {
            node_set.insert(l.src);
            node_set.insert(l.dst);
        }
        Topology {
            nodes: node_set.into_iter().collect(),
            links,
        }
    }

    /// The example network of Figure 1: three nodes `a`, `b`, `c` (0, 1, 2)
    /// and unidirectional links a→b, a→c, b→c, all of cost 1.
    pub fn paper_figure1() -> Self {
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        Topology::new(
            [a, b, c],
            vec![
                Link {
                    src: a,
                    dst: b,
                    cost: 1,
                },
                Link {
                    src: a,
                    dst: c,
                    cost: 1,
                },
                Link {
                    src: b,
                    dst: c,
                    cost: 1,
                },
            ],
        )
    }

    /// A bidirectional ring of `n` nodes with unit costs.
    pub fn ring(n: u32) -> Self {
        assert!(n >= 2);
        let mut links = Vec::new();
        for i in 0..n {
            let next = (i + 1) % n;
            links.push(Link {
                src: NodeId(i),
                dst: NodeId(next),
                cost: 1,
            });
            links.push(Link {
                src: NodeId(next),
                dst: NodeId(i),
                cost: 1,
            });
        }
        Topology::new((0..n).map(NodeId), links)
    }

    /// A bidirectional line (path graph) of `n` nodes with unit costs.
    pub fn line(n: u32) -> Self {
        assert!(n >= 2);
        let mut links = Vec::new();
        for i in 0..n - 1 {
            links.push(Link {
                src: NodeId(i),
                dst: NodeId(i + 1),
                cost: 1,
            });
            links.push(Link {
                src: NodeId(i + 1),
                dst: NodeId(i),
                cost: 1,
            });
        }
        Topology::new((0..n).map(NodeId), links)
    }

    /// The paper's evaluation workload: `n` nodes, each with `out_degree`
    /// outgoing links to distinct random neighbours, link costs drawn
    /// uniformly from `1..=max_cost`.  A ring backbone is added first so the
    /// graph is always strongly connected (every pair of nodes has a best
    /// path and the recursive query reaches a global fixpoint), then random
    /// links are added until the average out-degree is reached.
    pub fn random_out_degree(n: u32, out_degree: u32, max_cost: u32, seed: u64) -> Self {
        assert!(n >= 2);
        assert!(out_degree >= 1);
        let max_cost = max_cost.max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut links = Vec::new();
        let mut existing: HashSet<(u32, u32)> = HashSet::new();
        // Ring backbone (1 outgoing link per node).
        for i in 0..n {
            let next = (i + 1) % n;
            existing.insert((i, next));
            links.push(Link {
                src: NodeId(i),
                dst: NodeId(next),
                cost: rng.gen_range(1..=max_cost),
            });
        }
        // Remaining out_degree - 1 random links per node.
        for i in 0..n {
            let mut added = 1u32;
            let mut attempts = 0u32;
            while added < out_degree && attempts < 20 * out_degree {
                attempts += 1;
                let j = rng.gen_range(0..n);
                if j == i || existing.contains(&(i, j)) {
                    continue;
                }
                existing.insert((i, j));
                links.push(Link {
                    src: NodeId(i),
                    dst: NodeId(j),
                    cost: rng.gen_range(1..=max_cost),
                });
                added += 1;
            }
        }
        Topology::new((0..n).map(NodeId), links)
    }

    /// All nodes, in ascending id order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Average out-degree across nodes.
    pub fn average_out_degree(&self) -> f64 {
        if self.nodes.is_empty() {
            0.0
        } else {
            self.links.len() as f64 / self.nodes.len() as f64
        }
    }

    /// True if every node can reach every other node following directed
    /// links.
    pub fn is_strongly_connected(&self) -> bool {
        if self.nodes.len() <= 1 {
            return true;
        }
        let reach_all = |start: NodeId, reverse: bool| {
            let mut seen: HashSet<NodeId> = HashSet::new();
            let mut queue = VecDeque::new();
            seen.insert(start);
            queue.push_back(start);
            while let Some(cur) = queue.pop_front() {
                let next_nodes = self.links.iter().filter_map(|l| match reverse {
                    false if l.src == cur => Some(l.dst),
                    true if l.dst == cur => Some(l.src),
                    _ => None,
                });
                for n in next_nodes {
                    if seen.insert(n) {
                        queue.push_back(n);
                    }
                }
            }
            seen.len() == self.nodes.len()
        };
        let start = self.nodes[0];
        reach_all(start, false) && reach_all(start, true)
    }

    /// Single-source shortest path costs (Dijkstra over link costs): the
    /// tests' oracle for the Best-Path query.
    pub fn shortest_path_costs(&self, src: NodeId) -> HashMap<NodeId, u64> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist: HashMap<NodeId, u64> = HashMap::new();
        let mut heap = BinaryHeap::new();
        dist.insert(src, 0);
        heap.push(Reverse((0u64, src)));
        while let Some(Reverse((d, node))) = heap.pop() {
            if dist.get(&node).copied().unwrap_or(u64::MAX) < d {
                continue;
            }
            for link in self.links.iter().filter(|l| l.src == node) {
                let nd = d + link.cost as u64;
                if nd < dist.get(&link.dst).copied().unwrap_or(u64::MAX) {
                    dist.insert(link.dst, nd);
                    heap.push(Reverse((nd, link.dst)));
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn figure1_topology_matches_the_paper() {
        let t = Topology::paper_figure1();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 3);
        let out_of = |node| t.links.iter().filter(move |l| l.src == node);
        let neighbors: Vec<NodeId> = out_of(NodeId(0)).map(|l| l.dst).collect();
        assert_eq!(neighbors, vec![NodeId(1), NodeId(2)]);
        // c has no outgoing links.
        assert_eq!(out_of(NodeId(2)).count(), 0);
        assert!(!t.is_strongly_connected());
    }

    #[test]
    fn ring_and_line_shapes() {
        let ring = Topology::ring(5);
        assert_eq!(ring.node_count(), 5);
        assert_eq!(ring.link_count(), 10);
        assert!(ring.is_strongly_connected());

        let line = Topology::line(4);
        assert_eq!(line.link_count(), 6);
        assert!(line.is_strongly_connected());
    }

    #[test]
    fn random_topology_matches_evaluation_parameters() {
        let t = Topology::random_out_degree(50, 3, 10, 42);
        assert_eq!(t.node_count(), 50);
        // Average out-degree of (about) three.
        let avg = t.average_out_degree();
        assert!((2.5..=3.0).contains(&avg), "avg out-degree {avg}");
        assert!(t.is_strongly_connected());
        // All costs within bounds.
        assert!(t.links().iter().all(|l| (1..=10).contains(&l.cost)));
        // No self loops, no duplicate links.
        assert!(t.links().iter().all(|l| l.src != l.dst));
        let mut seen = HashSet::new();
        assert!(t.links().iter().all(|l| seen.insert((l.src, l.dst))));
    }

    #[test]
    fn random_topology_is_deterministic_per_seed() {
        let a = Topology::random_out_degree(20, 3, 5, 7);
        let b = Topology::random_out_degree(20, 3, 5, 7);
        let c = Topology::random_out_degree(20, 3, 5, 8);
        assert_eq!(a.links(), b.links());
        assert_ne!(a.links(), c.links());
    }

    #[test]
    fn dijkstra_oracle_on_known_graph() {
        let t = Topology::line(4);
        let costs = t.shortest_path_costs(NodeId(0));
        assert_eq!(costs[&NodeId(0)], 0);
        assert_eq!(costs[&NodeId(3)], 3);

        let fig1 = Topology::paper_figure1();
        let costs = fig1.shortest_path_costs(NodeId(0));
        assert_eq!(costs[&NodeId(2)], 1);
        // b cannot reach a.
        let from_b = fig1.shortest_path_costs(NodeId(1));
        assert!(!from_b.contains_key(&NodeId(0)));
    }

    #[test]
    fn new_adds_nodes_referenced_only_by_links() {
        let t = Topology::new(
            [],
            vec![Link {
                src: NodeId(9),
                dst: NodeId(3),
                cost: 2,
            }],
        );
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.nodes(), &[NodeId(3), NodeId(9)]);
    }

    proptest! {
        #[test]
        fn prop_random_topologies_are_strongly_connected(
            n in 2u32..40,
            degree in 1u32..5,
            seed in any::<u64>()
        ) {
            let t = Topology::random_out_degree(n, degree, 10, seed);
            prop_assert!(t.is_strongly_connected());
            prop_assert_eq!(t.node_count() as u32, n);
        }

        #[test]
        fn prop_dijkstra_distances_respect_triangle_inequality(
            n in 2u32..20,
            seed in any::<u64>()
        ) {
            let t = Topology::random_out_degree(n, 3, 10, seed);
            let src = NodeId(0);
            let dist = t.shortest_path_costs(src);
            for link in t.links() {
                if let (Some(&du), Some(&dv)) = (dist.get(&link.src), dist.get(&link.dst)) {
                    prop_assert!(dv <= du + link.cost as u64);
                }
            }
        }
    }
}
