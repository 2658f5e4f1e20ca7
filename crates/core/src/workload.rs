//! Workload generation: turning topologies into base facts and producing the
//! parameter sweeps of the evaluation.

use pasn_datalog::Value;
use pasn_engine::{ChurnEvent, Tuple};
use pasn_net::{NodeId, SimTime, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The location value used for a simulator node.
pub(crate) fn location_of(node: NodeId) -> Value {
    Value::Addr(node.0)
}

/// All location values of a topology, in node order.
pub(crate) fn locations_of(topology: &Topology) -> Vec<Value> {
    topology.nodes().iter().map(|n| location_of(*n)).collect()
}

/// `link(@src, dst)` facts (two-attribute form, for the reachability
/// programs), one per directed link.
pub(crate) fn link_facts(topology: &Topology) -> Vec<(Value, Tuple)> {
    topology
        .links()
        .iter()
        .map(|l| {
            (
                location_of(l.src),
                Tuple::new("link", vec![Value::Addr(l.src.0), Value::Addr(l.dst.0)]),
            )
        })
        .collect()
}

/// `link(@src, dst, cost)` facts (three-attribute form, for the Best-Path
/// query), one per directed link.
pub(crate) fn weighted_link_facts(topology: &Topology) -> Vec<(Value, Tuple)> {
    topology
        .links()
        .iter()
        .map(|l| {
            (
                location_of(l.src),
                Tuple::new(
                    "link",
                    vec![
                        Value::Addr(l.src.0),
                        Value::Addr(l.dst.0),
                        Value::Int(l.cost as i64),
                    ],
                ),
            )
        })
        .collect()
}

/// The evaluation topology of Section 6: `n` nodes with an average out-degree
/// of three and link costs in `1..=10`.
pub fn evaluation_topology(n: u32, seed: u64) -> Topology {
    Topology::random_out_degree(n, 3, 10, seed)
}

/// A synthetic stream of route updates at `node`, one a second in
/// destination order — `flap_count` to `flapping_dest`, one to every other
/// destination — as the churn events that drive
/// [`crate::programs::ROUTE_MONITOR`]'s sliding window: each
/// `routeUpdate(@node, dest, id)` is inserted at its second and retracted
/// `window` later.  Time-ordered, for `run_streaming`.
pub fn route_update_stream(
    node: NodeId,
    destinations: &[NodeId],
    flapping_dest: NodeId,
    flap_count: u32,
    window: SimTime,
    seed: u64,
) -> Vec<(SimTime, ChurnEvent)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let location = location_of(node);
    let updates = destinations.iter().flat_map(|&dest| {
        let count = if dest == flapping_dest { flap_count } else { 1 };
        std::iter::repeat_n(dest, count as usize)
    });
    let mut events = Vec::new();
    for (seq, dest) in (0u64..).zip(updates) {
        // A small random jitter keeps update identifiers unique and
        // uncorrelated between runs with different seeds.
        let jitter: i64 = rng.gen_range(0..1_000);
        let id = Value::Int((seq as i64 + 1) * 1_000 + jitter);
        let tuple = Tuple::new("routeUpdate", vec![location.clone(), location_of(dest), id]);
        let at = SimTime::from_micros(seq * 1_000_000);
        let retract = {
            let (location, tuple) = (location.clone(), tuple.clone());
            ChurnEvent::Retract { location, tuple }
        };
        let location = location.clone();
        events.extend([
            (at, ChurnEvent::Insert { location, tuple }),
            (at + window, retract),
        ]);
    }
    events.sort_by_key(|(at, _)| *at);
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_facts_cover_every_link() {
        let topo = evaluation_topology(12, 3);
        let facts = link_facts(&topo);
        assert_eq!(facts.len(), topo.link_count());
        let weighted = weighted_link_facts(&topo);
        assert_eq!(weighted.len(), topo.link_count());
        assert!(weighted
            .iter()
            .all(|(loc, t)| { t.values[0] == *loc && t.values[2].as_int().unwrap() >= 1 }));
        assert_eq!(locations_of(&topo).len(), 12);
    }

    #[test]
    fn evaluation_topology_matches_paper_parameters() {
        let topo = evaluation_topology(50, 7);
        assert_eq!(topo.node_count(), 50);
        let avg = topo.average_out_degree();
        assert!((2.5..=3.0).contains(&avg));
    }

    #[test]
    fn route_update_stream_flaps_one_destination() {
        let dests: Vec<NodeId> = (1..5).map(NodeId).collect();
        let window = SimTime::from_millis(2_500);
        let stream = route_update_stream(NodeId(0), &dests, NodeId(3), 10, window, 42);
        // Every update is inserted once and retracted once, `window` later.
        assert_eq!(stream.len(), 2 * (3 + 10));
        assert!(stream.windows(2).all(|pair| pair[0].0 <= pair[1].0));
        let inserted = |(at, event): &(SimTime, ChurnEvent)| match event {
            ChurnEvent::Insert { tuple, .. } => Some((*at, tuple.clone())),
            _ => None,
        };
        let inserts: Vec<(SimTime, Tuple)> = stream.iter().filter_map(inserted).collect();
        assert_eq!(inserts.len(), 13);
        for (at, tuple) in &inserts {
            let retract = ChurnEvent::Retract {
                location: Value::Addr(0),
                tuple: tuple.clone(),
            };
            assert!(stream.contains(&(*at + window, retract)));
        }
        let to_flapping = inserts
            .iter()
            .filter(|(_, t)| t.values[1] == Value::Addr(3));
        assert_eq!(to_flapping.count(), 10);
        // Deterministic per seed.
        assert_eq!(
            stream,
            route_update_stream(NodeId(0), &dests, NodeId(3), 10, window, 42)
        );
    }
}
