//! Correctness of the Best-Path evaluation query: the distributed fixpoint
//! must agree with a centralized Dijkstra oracle, for every system variant
//! (authentication and provenance must not change query results), and the
//! reported path vectors must be real paths with the reported cost.

use pasn::prelude::*;
use pasn::workload;
use std::collections::HashMap;

fn run_best_path(n: u32, seed: u64, variant: SystemVariant) -> (Topology, SecureNetwork) {
    let topology = workload::evaluation_topology(n, seed);
    let mut config = variant.config();
    config.cost_model = CostModel::zero_cpu();
    let mut net = SecureNetwork::builder()
        .program(pasn::programs::best_path())
        .topology(topology.clone())
        .config(config)
        .build()
        .expect("program compiles");
    net.run().expect("fixpoint reached");
    (topology, net)
}

fn best_costs(net: &SecureNetwork, src: NodeId) -> HashMap<u32, i64> {
    let mut best: HashMap<u32, i64> = HashMap::new();
    for (t, _) in net.query(&Value::Addr(src.0), "bestPathCost") {
        let dst = t.values[1].as_addr().expect("addr");
        let cost = t.values[2].as_int().expect("int");
        let entry = best.entry(dst).or_insert(i64::MAX);
        *entry = (*entry).min(cost);
    }
    best
}

#[test]
fn best_path_costs_match_dijkstra_for_every_variant() {
    for variant in SystemVariant::ALL {
        let (topology, net) = run_best_path(9, 17, variant);
        // The Best-Path joins have bound key columns (the localized rules
        // share location and destination variables), so the correct results
        // below are produced through the secondary-index probe path, not by
        // scanning relations.
        let metrics = net.engine().metrics();
        assert!(
            metrics.index_probes > 0 && metrics.index_hits > 0,
            "{}: joins must take the index path ({} probes / {} hits)",
            variant.name(),
            metrics.index_probes,
            metrics.index_hits
        );
        for src in topology.nodes() {
            let oracle = topology.shortest_path_costs(*src);
            let measured = best_costs(&net, *src);
            for dst in topology.nodes() {
                if dst == src {
                    continue;
                }
                assert_eq!(
                    measured.get(&dst.0).copied(),
                    Some(oracle[dst] as i64),
                    "{}: best path {src}->{dst}",
                    variant.name()
                );
            }
        }
    }
}

#[test]
fn best_path_vectors_are_real_paths_with_matching_cost() {
    let (topology, net) = run_best_path(10, 5, SystemVariant::NDLog);
    let link_cost: HashMap<(u32, u32), i64> = topology
        .links()
        .iter()
        .map(|l| ((l.src.0, l.dst.0), l.cost as i64))
        .collect();

    let mut checked = 0;
    for (loc, tuple, _) in net.query_all("bestPath") {
        let src = loc.as_addr().expect("addr location");
        let dst = tuple.values[1].as_addr().unwrap();
        let path = tuple.values[2].as_list().expect("path vector");
        let cost = tuple.values[3].as_int().unwrap();

        // The path starts at the source and ends at the destination.
        assert_eq!(path.first().and_then(Value::as_addr), Some(src));
        assert_eq!(path.last().and_then(Value::as_addr), Some(dst));
        // Consecutive hops are actual links, and their costs sum to the
        // reported cost.
        let mut sum = 0i64;
        for hop in path.windows(2) {
            let a = hop[0].as_addr().unwrap();
            let b = hop[1].as_addr().unwrap();
            let c = link_cost
                .get(&(a, b))
                .unwrap_or_else(|| panic!("hop {a}->{b} is not a link"));
            sum += c;
        }
        assert_eq!(sum, cost, "path cost of {tuple}");
        // No loops: every node appears at most once.
        let mut nodes: Vec<u32> = path.iter().filter_map(Value::as_addr).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), path.len(), "simple path {tuple}");
        checked += 1;
    }
    assert!(
        checked > 20,
        "a meaningful number of best paths were checked"
    );
}

#[test]
fn condensed_provenance_of_best_paths_names_only_on_path_principals() {
    let (_, net) = run_best_path(8, 11, SystemVariant::SeNDLogProv);
    let evaluator = TrustEvaluator::new(net.var_table(), net.engine().config());
    let mut checked = 0;
    for (loc, tuple, meta) in net.query_all("bestPath") {
        let origins = evaluator.origins(&meta.tag);
        assert!(!origins.is_empty(), "bestPath at {loc} has provenance");
        // The asserting principals can only be nodes that contributed links —
        // i.e. nodes on some path to the destination; in particular the
        // source itself must be among them.
        let src = loc.as_addr().unwrap();
        assert!(
            origins.contains(&src),
            "{tuple} at {loc}: origins {origins:?} must include the source"
        );
        checked += 1;
    }
    assert!(checked > 10);
}
