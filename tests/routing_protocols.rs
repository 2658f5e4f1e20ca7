//! The routing protocols Section 2.1 says the reachability example
//! generalises to: distance-vector and path-vector, executed by the engine
//! and checked against the imperative baselines of `pasn::baseline`.

use pasn::baseline;
use pasn::prelude::*;
use pasn::workload;
use pasn_net::NodeId;
use std::collections::{HashMap, HashSet};

fn fast(config: EngineConfig) -> EngineConfig {
    config.with_cost_model(CostModel::zero_cpu())
}

fn run_program(program: pasn_datalog::Program, topology: Topology) -> SecureNetwork {
    let mut net = SecureNetwork::builder()
        .program(program)
        .topology(topology)
        .config(fast(EngineConfig::ndlog()))
        .build()
        .expect("program compiles");
    net.engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");
    net
}

/// The pipelined MIN aggregate can leave superseded tuples in the store; the
/// protocol's answer is the minimum per (source, destination).
fn best_costs(net: &SecureNetwork, src: u32) -> HashMap<u32, i64> {
    let mut best: HashMap<u32, i64> = HashMap::new();
    for (t, _) in net.engine().query(&Value::Addr(src), "bestCost") {
        let dst = t.values[1].as_addr().expect("addr");
        let cost = t.values[2].as_int().expect("int");
        let entry = best.entry(dst).or_insert(i64::MAX);
        *entry = (*entry).min(cost);
    }
    best
}

#[test]
fn distance_vector_converges_to_bellman_ford_costs() {
    let topology = workload::evaluation_topology(9, 23);
    let net = run_program(pasn::programs::distance_vector(), topology.clone());
    for &src in topology.nodes() {
        let oracle = baseline::bellman_ford(&topology, src);
        let measured = best_costs(&net, src.0);
        for &dst in topology.nodes() {
            if dst == src {
                continue;
            }
            assert_eq!(
                measured.get(&dst.0).copied(),
                oracle.get(&dst).map(|c| *c as i64),
                "distance vector {src}->{dst}"
            );
        }
    }
}

#[test]
fn distance_vector_agrees_with_best_path_on_costs() {
    // Two different declarative programs (distance vector and Best-Path) must
    // agree on the optimal cost of every pair.
    let topology = workload::evaluation_topology(8, 5);
    let dv = run_program(pasn::programs::distance_vector(), topology.clone());
    let bp = run_program(pasn::programs::best_path(), topology.clone());
    for &src in topology.nodes() {
        // Distance vector has no path information, so on a cyclic topology it
        // also derives a cost for reaching the source itself around a cycle;
        // Best-Path suppresses those with its `f_member` guard.  Compare the
        // protocols on the pairs both define: src ≠ dst.
        let mut dv_costs = best_costs(&dv, src.0);
        dv_costs.remove(&src.0);
        let mut bp_costs: HashMap<u32, i64> = HashMap::new();
        for (t, _) in bp.engine().query(&Value::Addr(src.0), "bestPathCost") {
            let dst = t.values[1].as_addr().unwrap();
            if dst == src.0 {
                continue;
            }
            let cost = t.values[2].as_int().unwrap();
            let entry = bp_costs.entry(dst).or_insert(i64::MAX);
            *entry = (*entry).min(cost);
        }
        assert_eq!(dv_costs, bp_costs, "source {src}");
    }
}

#[test]
fn path_vector_routes_are_loop_free_real_paths() {
    let topology = workload::evaluation_topology(7, 11);
    let net = run_program(pasn::programs::path_vector(), topology.clone());
    let links: HashSet<(u32, u32)> = topology
        .links()
        .iter()
        .map(|l| (l.src.0, l.dst.0))
        .collect();

    let mut checked = 0;
    for (loc, tuple, _) in net.engine().query_all("route") {
        let src = loc.as_addr().unwrap();
        let dst = tuple.values[1].as_addr().unwrap();
        let path = tuple.values[2].as_list().expect("path vector");
        let nodes: Vec<NodeId> = path
            .iter()
            .map(|v| NodeId(v.as_addr().expect("node id")))
            .collect();
        assert_eq!(nodes.first(), Some(&NodeId(src)));
        assert_eq!(nodes.last(), Some(&NodeId(dst)));
        assert!(baseline::is_loop_free(&nodes), "{tuple} carries a loop");
        for hop in nodes.windows(2) {
            assert!(
                links.contains(&(hop[0].0, hop[1].0)),
                "{tuple}: {}->{} is not a link",
                hop[0],
                hop[1]
            );
        }
        checked += 1;
    }
    assert!(checked > 10, "checked {checked} path-vector routes");
}

#[test]
fn path_vector_reaches_exactly_the_reachable_pairs() {
    // The path-vector protocol derives a route for (S, D) iff D is reachable
    // from S — the same relation the reachability program computes, except
    // for the self-pairs a cycle closes: the path-vector `f_member` guard
    // suppresses routes back to the source (simple paths only), while plain
    // reachability happily derives `reachable(S, S)` around a cycle.
    let topology = workload::evaluation_topology(7, 3);
    let pv = run_program(pasn::programs::path_vector(), topology.clone());
    let reach = run_program(pasn::programs::reachability_ndlog(), topology);

    let pairs = |net: &SecureNetwork, predicate: &str| -> HashSet<(u32, u32)> {
        net.engine()
            .query_all(predicate)
            .into_iter()
            .map(|(loc, t, _)| (loc.as_addr().unwrap(), t.values[1].as_addr().unwrap()))
            .collect()
    };
    let routes = pairs(&pv, "route");
    let reachable: HashSet<(u32, u32)> = pairs(&reach, "reachable")
        .into_iter()
        .filter(|(s, d)| s != d)
        .collect();
    assert!(routes.iter().all(|(s, d)| s != d));
    assert_eq!(routes, reachable);
}

#[test]
fn path_vector_policy_filters_routes_through_banned_nodes() {
    // Figure 1's topology: a→b, a→c, b→c.  Node a bans b: the only accepted
    // route to c must be the direct link, and no accepted route may traverse b.
    let mut net = SecureNetwork::builder()
        .program(pasn::programs::path_vector_policy())
        .topology(Topology::paper_figure1())
        .config(fast(EngineConfig::ndlog()))
        .fact(
            Value::Addr(0),
            Tuple::new("avoid", vec![Value::Addr(0), Value::Addr(1)]),
        )
        .build()
        .expect("program compiles");
    net.engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");

    // a still learns both routes to c ...
    let all_routes = net.engine().query(&Value::Addr(0), "route");
    let to_c: Vec<_> = all_routes
        .iter()
        .filter(|(t, _)| t.values[1] == Value::Addr(2))
        .collect();
    assert_eq!(
        to_c.len(),
        2,
        "a derives both the direct and the via-b route"
    );

    // ... but accepts only those avoiding b.
    let accepted = net.engine().query(&Value::Addr(0), "acceptedRoute");
    assert!(!accepted.is_empty());
    for (tuple, _) in &accepted {
        let path = tuple.values[2].as_list().unwrap();
        assert!(
            !path.contains(&Value::Addr(1)),
            "accepted route {tuple} traverses the banned node"
        );
    }
    // The direct a→c route survives the policy.
    assert!(accepted.iter().any(|(t, _)| t.values[1] == Value::Addr(2)));
}

#[test]
fn path_vector_policy_with_no_ban_accepts_everything_at_that_node() {
    // A node whose `avoid` fact names a node that appears on no path accepts
    // every route it learns.
    let mut net = SecureNetwork::builder()
        .program(pasn::programs::path_vector_policy())
        .topology(Topology::line(4))
        .config(fast(EngineConfig::ndlog()))
        .fact(
            Value::Addr(0),
            Tuple::new("avoid", vec![Value::Addr(0), Value::Addr(99)]),
        )
        .build()
        .expect("program compiles");
    net.engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");
    let routes = net.engine().query(&Value::Addr(0), "route").len();
    let accepted = net.engine().query(&Value::Addr(0), "acceptedRoute").len();
    assert_eq!(routes, accepted);
    assert_eq!(routes, 3, "a line of four nodes gives n0 three routes");
}

#[test]
fn distance_vector_provenance_grounds_in_link_facts() {
    // Running the distance-vector protocol with distributed provenance, every
    // best cost traces back to at least one base link tuple.
    let topology = workload::evaluation_topology(6, 9);
    let mut net = SecureNetwork::builder()
        .program(pasn::programs::distance_vector())
        .topology(topology)
        .config(fast(EngineConfig::ndlog()).with_graph_mode(GraphMode::Distributed))
        .build()
        .expect("program compiles");
    net.engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");
    let stores = net.engine().distributed_stores();
    let mut checked = 0;
    for (loc, tuple, _) in net.engine().query_all("bestCost") {
        let key = tuple.render_located(Some(0));
        let result = pasn_provenance::traceback(&stores, &loc.to_string(), &key);
        assert!(!result.base_tuples.is_empty(), "no origin for {key}");
        checked += 1;
    }
    assert!(checked > 5);
}
