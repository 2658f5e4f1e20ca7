//! Quickstart: deploy the paper's three-node example network (Figure 1),
//! run the reachability query with authenticated, condensed provenance, and
//! inspect the results.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use pasn::prelude::*;

fn main() {
    // The Figure 1 network: nodes a (n0), b (n1), c (n2) and unidirectional
    // links a→b, a→c, b→c.
    let topology = Topology::paper_figure1();

    // SeNDLogProv configuration: every inter-node tuple is RSA-signed and
    // carries BDD-condensed provenance (Sections 4.3 and 4.4).
    let config = EngineConfig::sendlog_prov();

    let mut network = SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(topology)
        .config(config)
        .build()
        .expect("the built-in program compiles");

    let metrics = network.run().expect("fixpoint reached");

    println!("== provenance-aware secure network: quickstart ==\n");
    println!(
        "query completion time : {:.3} s (simulated)",
        metrics.completion_secs()
    );
    println!(
        "bandwidth utilization  : {:.1} KB",
        metrics.bytes as f64 / 1_000.0
    );
    println!(
        "messages / signatures  : {} / {}",
        metrics.messages, metrics.signatures
    );
    println!();

    println!("reachable tuples and their condensed provenance:");
    for (location, tuple, meta) in network.query_all("reachable") {
        let provenance = meta.tag.render(network.var_table());
        println!("  at {location}: {tuple}  {provenance}");
    }
    println!();

    // Trust management: node c trusts only principal a (p0).  The tuple
    // reachable(a, c) condenses to <p0>, so it is accepted even though one of
    // its derivations also passes through b.
    let evaluator = TrustEvaluator::new(network.var_table(), network.engine().config());
    let policy = TrustPolicy::TrustedPrincipals([0u32].into_iter().collect());
    let tuple = Tuple::new("reachable", vec![Value::Addr(0), Value::Addr(2)]);
    let (_, meta) = network
        .query(&Value::Addr(0), "reachable")
        .into_iter()
        .find(|(t, _)| *t == tuple)
        .expect("reachable(a,c) derived");
    println!(
        "trust policy [{policy}] on {tuple} {} -> {:?}",
        meta.tag.render(network.var_table()),
        evaluator.evaluate(&meta.tag, &policy)
    );
}
