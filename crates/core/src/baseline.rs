//! Imperative routing baselines used to validate the declarative programs.
//!
//! The declarative-networking papers the reproduction builds on argue that
//! NDlog programs "perform efficiently relative to imperative
//! implementations" — which presumes imperative implementations to compare
//! against.  This module provides them: a textbook Bellman–Ford over a
//! [`Topology`] and a path loop check, both correctness oracles.  The
//! integration tests check that the Best-Path / distance-vector programs
//! executed by the engine reach the per-destination costs Bellman–Ford
//! computes (and, for path-vector, loop-free paths).

use pasn_net::{NodeId, Topology};
use std::collections::HashMap;

/// Single-source shortest-path costs via Bellman–Ford.
///
/// Link costs are non-negative in every generator this workspace ships, but
/// Bellman–Ford is kept deliberately general (it relaxes `V-1` rounds) so it
/// can serve as an independent oracle for the engine and for
/// [`Topology::shortest_path_costs`].
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
        assert_eq!(bf[&NodeId(3)], 3);
        assert_eq!(bf, topo.shortest_path_costs(NodeId(0)));
    }

    #[test]
    fn baselines_match_the_topology_oracle() {
        let topo = Topology::random_out_degree(30, 3, 10, 99);
        for &src in topo.nodes() {
            let oracle = topo.shortest_path_costs(src);
            let bf = bellman_ford(&topo, src);
            assert_eq!(bf.len(), oracle.len());
            for (dst, cost) in &oracle {
                assert_eq!(bf[dst], *cost, "bellman-ford {src}->{dst}");
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
        let isolated = bellman_ford(&topo, NodeId(2));
        assert_eq!(isolated, HashMap::from([(NodeId(2), 0)]));
    }

    #[test]
    fn all_pairs_covers_reachable_pairs_only() {
        let topo = Topology::paper_figure1();
        let pairs: HashMap<(NodeId, NodeId), u64> = topo
            .nodes()
            .iter()
            .flat_map(|&src| {
                bellman_ford(&topo, src)
                    .into_iter()
                    .map(move |(dst, c)| ((src, dst), c))
            })
            .collect();
        // a→b, a→c, b→c plus the three self-pairs.
        assert_eq!(pairs.len(), 6);
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
            prop_assert_eq!(bellman_ford(&topo, src), topo.shortest_path_costs(src));
        }
    }
}
