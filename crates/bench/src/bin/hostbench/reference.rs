//! Independent reference answers.  The benchmark checks every fixpoint
//! against these, not against the engine's own oracles, so an engine change
//! that breaks an answer and its in-tree oracle together still fails here.

use pasn::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Adjacency lists `node -> [(neighbour, cost)]` over dense node indices.
pub fn adjacency(topology: &Topology) -> Vec<Vec<(u32, u64)>> {
    let mut adj = vec![Vec::new(); topology.node_count()];
    for link in topology.links() {
        adj[link.src.0 as usize].push((link.dst.0, link.cost as u64));
    }
    adj
}

/// Dijkstra from `src`: cheapest cost to every node, `None` if unreachable.
pub fn shortest_costs(adj: &[Vec<(u32, u64)>], src: u32) -> Vec<Option<u64>> {
    let mut best: Vec<Option<u64>> = vec![None; adj.len()];
    let mut heap = BinaryHeap::from([Reverse((0u64, src))]);
    best[src as usize] = Some(0);
    while let Some(Reverse((cost, node))) = heap.pop() {
        if best[node as usize].is_some_and(|known| known < cost) {
            continue;
        }
        for &(next, step) in &adj[node as usize] {
            let candidate = cost + step;
            if best[next as usize].is_none_or(|known| candidate < known) {
                best[next as usize] = Some(candidate);
                heap.push(Reverse((candidate, next)));
            }
        }
    }
    best
}

/// The `reachable(@src, D)` answer set: every node at the end of a path of
/// at least one link from `src` (so `src` itself only through a cycle).
pub fn reachable_from(adj: &[Vec<(u32, u64)>], src: u32) -> Vec<bool> {
    let mut seen = vec![false; adj.len()];
    let mut stack: Vec<u32> = adj[src as usize].iter().map(|(n, _)| *n).collect();
    while let Some(node) = stack.pop() {
        if !std::mem::replace(&mut seen[node as usize], true) {
            stack.extend(adj[node as usize].iter().map(|(n, _)| *n));
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{random_topology, SplitMix64};
    use pasn_net::Link;

    #[test]
    fn shortest_costs_agree_with_the_in_tree_oracle_on_small_seeds() {
        for seed in 0..8 {
            let topo = random_topology(&mut SplitMix64::new(seed), 12 + seed as u32, 3, 10);
            let adj = adjacency(&topo);
            for src in topo.nodes() {
                let oracle = topo.shortest_path_costs(*src);
                let ours = shortest_costs(&adj, src.0);
                for dst in topo.nodes() {
                    assert_eq!(
                        ours[dst.0 as usize],
                        oracle.get(dst).copied(),
                        "seed {seed}: {src} -> {dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn reachability_needs_at_least_one_link() {
        // 0 -> 1 -> 2, 2 -> 1, and 3 isolated: node 0 is on no cycle.
        let link = |src, dst| Link {
            src: NodeId(src),
            dst: NodeId(dst),
            cost: 1,
        };
        let topo = Topology::new((0..4).map(NodeId), vec![link(0, 1), link(1, 2), link(2, 1)]);
        let adj = adjacency(&topo);
        assert_eq!(reachable_from(&adj, 0), [false, true, true, false]);
        assert_eq!(reachable_from(&adj, 1), [false, true, true, false]);
        assert_eq!(reachable_from(&adj, 3), [false; 4]);
        assert_eq!(shortest_costs(&adj, 0), [Some(0), Some(1), Some(2), None]);
        // On a strongly connected graph the closure agrees with Dijkstra's
        // notion of reachability, self included (through the ring).
        let ring = random_topology(&mut SplitMix64::new(4), 9, 2, 5);
        let adj = adjacency(&ring);
        assert!(reachable_from(&adj, 0).iter().all(|r| *r));
        assert!(shortest_costs(&adj, 0).iter().all(Option::is_some));
    }
}
