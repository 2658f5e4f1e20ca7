//! DNSSEC as six SeNDlog rules on the engine: the chain of trust of every
//! answer is the authenticated provenance of a `resolved` tuple, anchored at
//! the validating node's root-key fingerprint.
//!
//! ```text
//! cargo run --example dnssec_chain
//! ```

use pasn::prelude::*;
use pasn::trust::{TrustEvaluator, TrustPolicy};
use pasn_overlay::dns::{ds, resolver, DnsDeployment, ZoneTree};
use pasn_overlay::retract;

fn deploy(tree: &ZoneTree) -> DnsDeployment {
    // Per-frame RSA `says`, condensed tags, piggybacked provenance records.
    let config = EngineConfig::sendlog_prov().with_graph_mode(GraphMode::Local);
    tree.deploy(config).expect("hierarchy deploys")
}

fn main() {
    println!("== DNSSEC resolution as authenticated provenance ==\n");
    println!("{}", pasn::programs::DNSSEC);

    let tree = ZoneTree::default()
        .zone("org", ".")
        .zone("com", ".")
        .zone("example.org", "org")
        .zone("cdn.example.org", "example.org")
        .address("com", "registry.com", 0x0102_0304)
        .address("example.org", "www.example.org", 0x0a01_0001)
        .address("cdn.example.org", "edge1.cdn.example.org", 0x0a02_0001);
    let mut dns = deploy(&tree);
    let m = dns.net.engine_mut().run_to_fixpoint().expect("fixpoint");
    let (signed, verified) = (m.signatures, m.verifications);
    println!(
        "{} derivations, {signed} frames signed, {verified} verified\n",
        m.derivations
    );

    for name in ["www.example.org", "edge1.cdn.example.org", "registry.com"] {
        let res = dns.resolve(name).expect("resolution validates");
        let (address, tag) = (res.address, res.tag.render(dns.net.engine().var_table()));
        println!("{name} -> {address:#010x} via {:?}, tag {tag}", res.chain);
        // The answer's provenance tree, rooted at the trust anchor.
        let store = dns
            .net
            .engine()
            .provenance_store(&resolver())
            .expect("graph mode");
        let answer = format!("resolved(n0,{name},{address})");
        assert!(!store.derivations_of(&answer).is_empty(), "answer derived");
        println!("{}", store.render_tree(&answer));
    }

    // Trust management over the stored tag: the answer stands only while
    // every zone on its chain — the .org registry among them — is trusted.
    let res = dns.resolve("www.example.org").unwrap();
    let evaluator = TrustEvaluator::new(dns.net.engine().var_table(), dns.net.engine().config());
    for distrusted in ["", "org"] {
        let zones = res.chain.iter().filter(|zone| *zone != distrusted);
        let trusted = zones.map(|zone| dns.principal_of(zone).unwrap().0);
        let policy = TrustPolicy::TrustedPrincipals(trusted.chain([0]).collect());
        let decision = evaluator.evaluate(&res.tag, &policy);
        println!("trusting the chain minus {distrusted:?}: {decision:?}");
    }
    println!();

    // Attacks are facts the rules refuse, not silently accepted answers.
    let mut dns = deploy(&tree.clone().substitute_key("example.org"));
    dns.net.engine_mut().run_to_fixpoint().expect("fixpoint");
    let err = dns.resolve("www.example.org").expect_err("unendorsed key");
    println!("after a key-substitution attack on example.org: {err}");

    // A botched rollover is two churn events: the parent withdraws its
    // endorsement of example.org's key before endorsing the new one.
    let mut dns = deploy(&tree);
    let endorsed = ds("org", "example.org", &dns.fingerprint("example.org"));
    let script = ChurnScript::new().at(5_000_000, retract(endorsed));
    let m = dns
        .net
        .engine_mut()
        .run_scenario(&script)
        .expect("fixpoint");
    let (retractions, tombstones) = (m.retractions, m.tombstone_frames);
    let err = dns.resolve("www.example.org").expect_err("stale DS");
    println!("after org retracts its DS ({retractions} retractions, {tombstones} tombstone frames): {err}");
}
