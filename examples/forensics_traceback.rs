//! Forensics: offline provenance and distributed traceback (Section 3,
//! "Forensics"; Section 4.1–4.2).
//!
//! The deployment keeps *distributed* provenance (per-node pointer records,
//! the IP-traceback analogy) plus an *offline* archive that outlives the
//! soft-state tuples.  After the routes expire we can still answer "where did
//! this routing entry come from?" with a distributed traceback query.
//!
//! ```text
//! cargo run --example forensics_traceback
//! ```

use pasn::prelude::*;
use pasn::{accountability::AccountabilityReport, forensics};

fn main() {
    let topology = Topology::random_out_degree(8, 3, 5, 21);

    let mut config = EngineConfig::sendlog()
        .with_cost_model(CostModel::zero_cpu())
        .with_graph_mode(GraphMode::Distributed)
        .with_default_ttl_us(2_000_000); // routes live for 2 simulated seconds
    config.archive_offline = true;

    let mut network = SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(topology)
        .config(config)
        .build()
        .expect("program compiles");
    let metrics = network
        .engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");
    println!("== forensic traceback over distributed + offline provenance ==\n");
    println!(
        "deployment ran to fixpoint: {} messages, {:.1} KB, {} derivations\n",
        metrics.messages,
        metrics.bytes as f64 / 1_000.0,
        metrics.derivations
    );

    // Pick a multi-hop routing entry at node n0 to investigate.
    let start = Value::Addr(0);
    let target = network
        .engine()
        .query(&start, "reachable")
        .into_iter()
        .map(|(t, _)| t)
        .max_by_key(|t| t.values[1].clone())
        .expect("node 0 reaches someone");
    let key = target.render_located(Some(0));

    // Online investigation (while the route is still alive).
    let report = forensics::investigate(&network, &start, &key);
    println!("traceback of {key} (online):");
    println!(
        "  visited {} provenance entries",
        report.traceback.visited.len()
    );
    println!("  crossed {} node boundaries", report.traceback.remote_hops);
    println!(
        "  grounded in {} base link tuples",
        report.traceback.base_tuples.len()
    );
    println!("  archived derivation records: {}\n", report.archived.len());

    // Time passes; the soft-state routes expire.
    let dropped = network
        .engine_mut()
        .expire_all(SimTime::from_secs_f64(60.0));
    println!("after 60 simulated seconds, {dropped} soft-state tuples expired");
    println!(
        "  live reachable tuples at n0: {}",
        network.engine().query(&start, "reachable").len()
    );

    // Offline investigation: the archive still answers.
    let offline = forensics::investigate(&network, &start, &key);
    println!(
        "  offline archive still holds {} derivation records for {key}\n",
        offline.archived.len()
    );

    // Accountability: who generated the traffic? (PlanetFlow analogue.)
    let audit = AccountabilityReport::collect(network.engine());
    println!("per-principal accountability report (top 3 senders):");
    for usage in audit.top_senders(3) {
        println!(
            "  {:<6} sent {:>8} bytes, asserted {:>4} derivations",
            usage.location.to_string(),
            usage.bytes_sent,
            usage.derivations
        );
    }
}
