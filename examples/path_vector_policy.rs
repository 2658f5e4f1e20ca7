//! Path-vector routing with import policies — the BGP-flavoured
//! trust-management use case of Section 3: the path carried by every route
//! is its provenance, and a node accepts a route only if its origins satisfy
//! the local policy.
//!
//! ```text
//! cargo run --example path_vector_policy
//! ```

use pasn::prelude::*;
use pasn::{baseline, workload};

fn main() {
    println!("== path-vector routing with provenance-based import policies ==\n");

    let topology = workload::evaluation_topology(8, 77);
    println!(
        "topology: {} nodes, {} directed links (average out-degree {:.1})\n",
        topology.node_count(),
        topology.link_count(),
        topology.average_out_degree()
    );

    // Node 0 distrusts node 3: it refuses every route whose path traverses it.
    let banned = 3u32;
    let mut network = SecureNetwork::builder()
        .program(pasn::programs::path_vector_policy())
        .topology(topology.clone())
        .config(EngineConfig::ndlog().with_cost_model(CostModel::zero_cpu()))
        .fact(
            Value::Addr(0),
            Tuple::new("avoid", vec![Value::Addr(0), Value::Addr(banned)]),
        )
        .build()
        .expect("program compiles");
    let metrics = network
        .engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");
    println!(
        "fixpoint in {} messages / {:.1} KB\n",
        metrics.messages,
        metrics.bytes as f64 / 1_000.0
    );

    let learned = network.engine().query(&Value::Addr(0), "route");
    let accepted = network.engine().query(&Value::Addr(0), "acceptedRoute");
    println!(
        "node n0 learned {} routes, accepted {} after filtering paths through n{banned}\n",
        learned.len(),
        accepted.len()
    );

    println!("accepted routes at n0:");
    for (tuple, _) in &accepted {
        let dst = tuple.values[1].as_addr().unwrap();
        let path: Vec<String> = tuple.values[2]
            .as_list()
            .unwrap()
            .iter()
            .map(|v| format!("n{}", v.as_addr().unwrap()))
            .collect();
        println!("  to n{dst}: {}", path.join(" -> "));
    }

    println!("\nrejected routes (their path names the distrusted origin):");
    for (tuple, _) in &learned {
        let path = tuple.values[2].as_list().unwrap();
        if path.contains(&Value::Addr(banned)) {
            let dst = tuple.values[1].as_addr().unwrap();
            let rendered: Vec<String> = path
                .iter()
                .map(|v| format!("n{}", v.as_addr().unwrap()))
                .collect();
            println!("  to n{dst}: {}", rendered.join(" -> "));
        }
    }

    // Sanity check against the imperative oracle: every accepted route is a
    // real loop-free path of the topology.
    let mut verified = 0;
    for (tuple, _) in &accepted {
        let nodes: Vec<pasn_net::NodeId> = tuple.values[2]
            .as_list()
            .unwrap()
            .iter()
            .map(|v| pasn_net::NodeId(v.as_addr().unwrap()))
            .collect();
        assert!(baseline::is_loop_free(&nodes));
        verified += 1;
    }
    println!("\nall {verified} accepted routes are loop-free paths of the topology");
}
