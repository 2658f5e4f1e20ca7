//! Secure Chord routing as seven SeNDlog rules on the engine: a lookup's path
//! is the authenticated provenance of an `owner` tuple, a fetched value's is
//! both paths plus its inserter, and a departure re-homes what it owned.
//!
//! ```text
//! cargo run --example secure_chord
//! ```

use pasn::prelude::*;
use pasn::trust::{TrustEvaluator, TrustPolicy};
use pasn_crypto::SaysLevel;
use pasn_overlay::chord::{get, put, ChordConfig, Ring};

fn main() {
    println!("== secure Chord routing as authenticated provenance ==\n");
    println!("{}", pasn::programs::CHORD);

    // Per-frame HMAC `says`, condensed tags, piggybacked provenance records:
    // the engine's knobs.  The ring only says who sits where.
    let ring = Ring::build(ChordConfig {
        nodes: 24,
        bits: 24,
    })
    .expect("ring builds");
    let (publisher, reader) = (ring.members()[5], ring.members()[17]);
    let key = ring.space().key_id("manifest.toml");
    let deploy = || {
        let config = EngineConfig::ndlog()
            .with_says(SaysLevel::Hmac)
            .with_provenance(ProvenanceKind::Condensed)
            .with_graph_mode(GraphMode::Local);
        let mut dht = ring.deploy(config).expect("ring deploys");
        let manifest = put(publisher, key, "[package] name = \"pasn\"");
        for request in [manifest, get(reader, key)] {
            dht.request(request).expect("member requests");
        }
        dht
    };
    let mut stable = deploy();
    let m = stable.net.run().expect("fixpoint");
    println!(
        "24 nodes on a 2^24 ring: {} derivations, {} frames, {} verified, {} failures\n",
        m.derivations, m.frames, m.verifications, m.verification_failures
    );

    // The lookup: who owns the key, and who forwarded the question.
    let lookup = stable.lookups(reader, key).pop().expect("one answer");
    let table = stable.net.var_table();
    println!(
        "n{reader} asked for {key:#x}: owner n{}, said by n{}, {} hop(s), tag {}",
        lookup.owner,
        lookup.said_by,
        lookup.path.len(),
        lookup.tag.render(table)
    );
    let owner = ring.successor_of(key);
    assert_eq!(lookup.owner, owner);

    // The fetched value, its inserter, and its provenance tree at the reader.
    let fetched = stable.value(reader, key).expect("value fetched");
    println!(
        "fetched {:?}, inserted by n{}, tag {}",
        fetched.value,
        fetched.inserted_by,
        fetched.tag.render(table)
    );
    let at = Value::Addr(reader);
    let (row, _) = stable.net.query(&at, "value").pop().expect("value row");
    let store = stable.net.provenance_store(&at).expect("graph mode");
    let root = row.to_string();
    assert!(!store.derivations_of(&root).is_empty(), "value derived");
    println!("\n{}", store.render_tree(&root));

    // Trust management over the stored tag: enough distinct principals took
    // part, and the answer stands only while every one of them is trusted.
    let evaluator = TrustEvaluator::new(table, stable.net.engine().config());
    let hops = lookup.path.len();
    for k in [1, hops, hops + 1] {
        let decision = evaluator.evaluate(&lookup.tag, &TrustPolicy::KOfN(k));
        println!("K-of-N over the lookup path (K = {k}): {decision:?}");
    }
    let all = evaluator.origins(&fetched.tag);
    let distrusted = *lookup.path.iter().next_back().expect("a hop");
    for without in [None, Some(distrusted)] {
        let trusted = all.iter().copied().filter(|p| Some(*p) != without);
        let policy = TrustPolicy::TrustedPrincipals(trusted.collect());
        let decision = evaluator.evaluate(&fetched.tag, &policy);
        println!("trusting the value's principals minus {without:?}: {decision:?}");
    }

    // Churn: the same deployment with the owner leaving at 5 s.  The ring
    // builder re-stabilises with churn events; the standing `put` and `get`
    // are re-routed by the deletion ledger, nothing re-issues them.
    let mut dht = deploy();
    let departure = dht.ring.leave(&[owner]).expect("the owner is a member");
    let script = ChurnScript::new();
    let script = departure
        .into_iter()
        .fold(script, |s, e| s.at(5_000_000, e));
    let m = dht.net.run_scenario(&script).expect("fixpoint");
    let rehomed = dht.lookups(reader, key).pop().expect("one answer");
    let fetched = dht.value(reader, key).expect("the new owner answers");
    println!(
        "\nafter owner n{owner} departed ({} retractions, {} tombstone frames, {} rederivations):",
        m.retractions, m.tombstone_frames, m.rederivations
    );
    println!(
        "n{} now owns the key and serves {:?}, still inserted by n{}",
        rehomed.owner, fetched.value, fetched.inserted_by
    );
    assert_eq!(rehomed.owner, dht.ring.successor_of(key));
    assert!(rehomed.owner != owner && fetched.inserted_by == publisher);
}
