//! Trust management over condensed and quantifiable provenance (Section 3,
//! "Trust Management" and Sections 4.4–4.5).
//!
//! A node decides whether to accept routing updates based on the *origins*
//! recorded in their provenance: a set of trusted principals, a minimum
//! security level, or a K-of-N vote.
//!
//! ```text
//! cargo run --example trust_management
//! ```

use pasn::prelude::*;
use std::collections::BTreeSet;

fn main() {
    // A small ring plus chords; node 3 will be treated as untrusted.
    let topology = Topology::random_out_degree(6, 3, 5, 7);

    let mut config = EngineConfig::sendlog_prov().with_cost_model(CostModel::zero_cpu());
    // Security levels for quantifiable provenance: node 0 is a highly trusted
    // border router (level 3), nodes 1-2 are ordinary (level 2), the rest are
    // low-trust edge nodes (level 1).
    config = config
        .with_security_level(0, 3)
        .with_security_level(1, 2)
        .with_security_level(2, 2);

    let mut network = SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(topology)
        .config(config)
        .build()
        .expect("program compiles");
    network
        .engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");

    let evaluator = TrustEvaluator::new(network.engine().var_table(), network.engine().config());

    let trusted: BTreeSet<u32> = [0u32, 1, 2].into_iter().collect();
    let policies = vec![
        TrustPolicy::TrustedPrincipals(trusted),
        TrustPolicy::MinTrustLevel(2),
        TrustPolicy::KOfN(2),
    ];

    println!("== trust management over condensed provenance ==\n");
    println!("policies applied by node n0 to its own routing state:\n");

    let entries = network.engine().query(&Value::Addr(0), "reachable");
    for policy in &policies {
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        println!("policy: {policy}");
        for (tuple, meta) in &entries {
            let decision = evaluator.evaluate(&meta.tag, policy);
            match decision {
                TrustDecision::Accept => accepted += 1,
                _ => rejected += 1,
            }
            println!(
                "  {:<22} {:<18} origins {:?} -> {:?}",
                tuple.to_string(),
                meta.tag.render(network.engine().var_table()),
                evaluator.origins(&meta.tag),
                decision
            );
        }
        println!("  => {accepted} accepted, {rejected} rejected\n");
    }

    println!(
        "A tuple is accepted by the TrustedPrincipals policy whenever *some* derivation\n\
         relies only on trusted origins — exactly the paper's example where <a + a*b>\n\
         condenses to <a> and b becomes inconsequential."
    );
}
