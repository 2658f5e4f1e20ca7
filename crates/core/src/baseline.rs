//! Imperative routing baselines used to validate the declarative programs.
//!
//! The declarative-networking papers the reproduction builds on argue that
//! NDlog programs "perform efficiently relative to imperative
//! implementations" — which presumes imperative implementations to compare
//! against.  This module provides them: a textbook Bellman–Ford and a
//! Dijkstra with path extraction, both operating directly on a
//! [`Topology`]: correctness oracles.  The integration tests check that the
//! Best-Path / distance-vector programs executed by the engine reach the
//! same per-destination costs (and, for path-vector, loop-free paths) that
//! the imperative algorithms compute.

use pasn_net::{NodeId, Topology};
use std::collections::{BinaryHeap, HashMap};

/// The cost and concrete path of one shortest route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShortestPath {
    /// Total path cost.
    pub cost: u64,
    /// Nodes along the path, source first, destination last.
    pub path: Vec<NodeId>,
}

/// Single-source shortest-path costs via Bellman–Ford.
///
/// Link costs are non-negative in every generator this workspace ships, but
/// Bellman–Ford is kept deliberately general (it relaxes `V-1` rounds) so it
/// can serve as an independent oracle for Dijkstra and for the engine.
pub fn bellman_ford(topology: &Topology, src: NodeId) -> HashMap<NodeId, u64> {
    let mut dist: HashMap<NodeId, u64> = HashMap::new();
    dist.insert(src, 0);
    let rounds = topology.node_count().saturating_sub(1);
    for _ in 0..rounds {
        let mut changed = false;
        for link in topology.links() {
            let Some(&d_src) = dist.get(&link.src) else {
                continue;
            };
            let candidate = d_src + u64::from(link.cost);
            let better = dist.get(&link.dst).is_none_or(|&d| candidate < d);
            if better {
                dist.insert(link.dst, candidate);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// Single-source shortest paths (cost plus concrete path) via Dijkstra.
pub fn dijkstra_paths(topology: &Topology, src: NodeId) -> HashMap<NodeId, ShortestPath> {
    #[derive(PartialEq, Eq)]
    struct Entry {
        cost: u64,
        node: NodeId,
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Min-heap on cost, ties broken by node id for determinism.
            other
                .cost
                .cmp(&self.cost)
                .then_with(|| other.node.0.cmp(&self.node.0))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut dist: HashMap<NodeId, u64> = HashMap::new();
    let mut previous: HashMap<NodeId, NodeId> = HashMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(src, 0);
    heap.push(Entry { cost: 0, node: src });

    while let Some(Entry { cost, node }) = heap.pop() {
        if dist.get(&node).is_some_and(|&d| cost > d) {
            continue;
        }
        for link in topology.outgoing(node) {
            let next = cost + u64::from(link.cost);
            let better = dist.get(&link.dst).is_none_or(|&d| next < d);
            if better {
                dist.insert(link.dst, next);
                previous.insert(link.dst, node);
                heap.push(Entry {
                    cost: next,
                    node: link.dst,
                });
            }
        }
    }

    dist.into_iter()
        .map(|(node, cost)| {
            let mut path = vec![node];
            let mut cursor = node;
            while cursor != src {
                cursor = previous[&cursor];
                path.push(cursor);
            }
            path.reverse();
            (node, ShortestPath { cost, path })
        })
        .collect()
}

/// All-pairs shortest-path costs, keyed by `(src, dst)`.  Unreachable pairs
/// are absent from the map.
pub fn all_pairs_costs(topology: &Topology) -> HashMap<(NodeId, NodeId), u64> {
    let mut out = HashMap::new();
    for &src in topology.nodes() {
        for (dst, cost) in bellman_ford(topology, src) {
            out.insert((src, dst), cost);
        }
    }
    out
}

/// True when `path` visits no node twice (the invariant the path-vector
/// program's `f_member` guard maintains).
pub fn is_loop_free(path: &[NodeId]) -> bool {
    let mut seen = std::collections::HashSet::new();
    path.iter().all(|n| seen.insert(*n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasn_net::Link;
    use proptest::prelude::*;

    fn diamond() -> Topology {
        // 0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (1), 1 -> 3 (6), 2 -> 3 (1)
        Topology::new(
            (0..4).map(NodeId),
            vec![
                Link {
                    src: NodeId(0),
                    dst: NodeId(1),
                    cost: 1,
                },
                Link {
                    src: NodeId(0),
                    dst: NodeId(2),
                    cost: 4,
                },
                Link {
                    src: NodeId(1),
                    dst: NodeId(2),
                    cost: 1,
                },
                Link {
                    src: NodeId(1),
                    dst: NodeId(3),
                    cost: 6,
                },
                Link {
                    src: NodeId(2),
                    dst: NodeId(3),
                    cost: 1,
                },
            ],
        )
    }

    #[test]
    fn bellman_ford_and_dijkstra_agree_on_the_diamond() {
        let topo = diamond();
        let bf = bellman_ford(&topo, NodeId(0));
        let dj = dijkstra_paths(&topo, NodeId(0));
        assert_eq!(bf[&NodeId(3)], 3);
        assert_eq!(dj[&NodeId(3)].cost, 3);
        assert_eq!(
            dj[&NodeId(3)].path,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        for (node, cost) in &bf {
            assert_eq!(dj[node].cost, *cost);
        }
    }

    #[test]
    fn baselines_match_the_topology_oracle() {
        let topo = Topology::random_out_degree(30, 3, 10, 99);
        for &src in topo.nodes() {
            let oracle = topo.shortest_path_costs(src);
            let bf = bellman_ford(&topo, src);
            let dj = dijkstra_paths(&topo, src);
            assert_eq!(bf.len(), oracle.len());
            for (dst, cost) in &oracle {
                assert_eq!(bf[dst], *cost, "bellman-ford {src}->{dst}");
                assert_eq!(dj[dst].cost, *cost, "dijkstra {src}->{dst}");
            }
        }
    }

    #[test]
    fn unreachable_destinations_are_absent() {
        // 0 -> 1 only; 2 is isolated.
        let topo = Topology::new(
            (0..3).map(NodeId),
            vec![Link {
                src: NodeId(0),
                dst: NodeId(1),
                cost: 2,
            }],
        );
        let bf = bellman_ford(&topo, NodeId(0));
        assert_eq!(bf.len(), 2);
        assert!(!bf.contains_key(&NodeId(2)));
        let dj = dijkstra_paths(&topo, NodeId(2));
        assert_eq!(dj.len(), 1);
        assert_eq!(dj[&NodeId(2)].path, vec![NodeId(2)]);
    }

    #[test]
    fn all_pairs_covers_reachable_pairs_only() {
        let topo = Topology::paper_figure1();
        let pairs = all_pairs_costs(&topo);
        // a→b, a→c, b→c plus the three self-pairs.
        assert_eq!(pairs[&(NodeId(0), NodeId(1))], 1);
        assert_eq!(pairs[&(NodeId(0), NodeId(2))], 1);
        assert_eq!(pairs[&(NodeId(1), NodeId(2))], 1);
        assert!(!pairs.contains_key(&(NodeId(2), NodeId(0))));
        assert!(pairs.contains_key(&(NodeId(2), NodeId(2))));
    }

    #[test]
    fn loop_detection_on_paths() {
        assert!(is_loop_free(&[NodeId(0), NodeId(1), NodeId(2)]));
        assert!(!is_loop_free(&[NodeId(0), NodeId(1), NodeId(0)]));
        assert!(is_loop_free(&[]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_dijkstra_agrees_with_bellman_ford(n in 4u32..40, degree in 1u32..4, seed in any::<u64>()) {
            let topo = Topology::random_out_degree(n, degree, 10, seed);
            let src = NodeId(0);
            let bf = bellman_ford(&topo, src);
            let dj = dijkstra_paths(&topo, src);
            prop_assert_eq!(bf.len(), dj.len());
            for (dst, sp) in &dj {
                prop_assert_eq!(bf[dst], sp.cost);
                // Every returned path starts at the source, ends at the
                // destination, and is loop-free.
                prop_assert_eq!(sp.path.first(), Some(&src));
                prop_assert_eq!(sp.path.last(), Some(dst));
                prop_assert!(is_loop_free(&sp.path));
                // And its hop costs sum to the reported cost.
                let mut sum = 0u64;
                for pair in sp.path.windows(2) {
                    let link = topo
                        .outgoing(pair[0])
                        .iter()
                        .filter(|l| l.dst == pair[1])
                        .map(|l| u64::from(l.cost))
                        .min()
                        .expect("path uses existing links");
                    sum += link;
                }
                prop_assert_eq!(sum, sp.cost);
            }
        }
    }
}
