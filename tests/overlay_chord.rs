//! Integration tests for secure Chord routing on the engine:
//! `pasn::programs::CHORD` deployed over a stabilised ring.  The owner of a
//! key is the successor of its identifier in the sorted member list (the
//! builder's binary search, which no rule shares), a lookup's path is the
//! support of the `owner` tuple's condensed tag, stored values follow their
//! key through churn, and trust policies decide over the stored tags.

use pasn::prelude::*;
use pasn::trust::{TrustEvaluator, TrustPolicy};
use pasn_crypto::SaysLevel;
use pasn_overlay::chord::{get, put, ChordConfig, ChordDeployment, Lookup, Ring};
use pasn_overlay::insert;
use std::collections::BTreeSet;

fn ring(nodes: u32) -> Ring {
    Ring::build(ChordConfig { nodes, bits: 24 }).expect("ring builds")
}

/// One `says` level with condensed provenance; session channels batch.
fn level(level: SaysLevel) -> EngineConfig {
    let config = EngineConfig::ndlog()
        .with_says(level)
        .with_provenance(ProvenanceKind::Condensed)
        .with_cost_model(CostModel::zero_cpu());
    match level {
        SaysLevel::Session => config.with_batching(),
        _ => config,
    }
}

/// Deploys `ring` with `requests` standing and runs it to fixpoint.
fn run(
    ring: &Ring,
    config: EngineConfig,
    requests: impl IntoIterator<Item = (Value, Tuple)>,
) -> (ChordDeployment, RunMetrics) {
    let mut dht = ring.deploy(config).expect("ring deploys");
    for request in requests {
        dht.request(request).expect("member requests");
    }
    let metrics = dht.net.run().expect("fixpoint");
    (dht, metrics)
}

/// The one answer `origin` holds for `key`.
fn answer(dht: &ChordDeployment, origin: u32, key: u64) -> Lookup {
    let lookups = dht.lookups(origin, key);
    let [lookup] = &lookups[..] else {
        panic!("origin {origin} key {key:#x}: not one answer: {lookups:?}");
    };
    lookup.clone()
}

fn int(id: u64) -> Value {
    Value::Int(id as i64)
}

/// The reference walk over the builder's finger tables, written the Chord
/// paper's way (closest preceding finger) rather than the rules' (the one
/// finger whose arc holds the key): the nodes that forward, and the owner.
fn reference_path(ring: &Ring, origin: u32, key: u64) -> (BTreeSet<u32>, u32) {
    let clockwise = |from: u64, to: u64| ring.space().distance(from, to);
    let (mut at, mut path) = (origin, BTreeSet::new());
    loop {
        path.insert(at);
        let id = ring.id_of(at);
        let facts = ring.routing_facts(at);
        let node = |fact: &(Value, Tuple)| fact.1.values[1].as_addr().unwrap();
        let successor = node(&facts[1]);
        // Distance zero is a full turn: a node never owns its own identifier
        // through its successor unless it is alone.
        let full_turn = |d: u64| if d == 0 { ring.space().size() } else { d };
        let to_key = full_turn(clockwise(id, key));
        if to_key <= full_turn(clockwise(id, ring.id_of(successor))) {
            return (path, successor);
        }
        let preceding = |f: &u32| clockwise(id, ring.id_of(*f)) < to_key;
        let fingers = facts[2..].iter().map(node);
        at = fingers
            .rev()
            .find(preceding)
            .expect("the successor precedes");
    }
}

#[test]
fn every_node_resolves_every_key_to_the_same_owner() {
    let ring = ring(20);
    let keys: Vec<u64> = (0..10)
        .map(|i| ring.space().key_id(&format!("object-{i}")))
        .collect();
    let origins = ring.members().iter();
    let lookups: Vec<(u32, u64)> = origins
        .flat_map(|&origin| keys.iter().map(move |&key| (origin, key)))
        .collect();
    for says in SaysLevel::ALL {
        let requests = lookups.iter().map(|&(origin, key)| get(origin, key));
        let (dht, metrics) = run(&ring, level(says), requests);
        for &(origin, key) in &lookups {
            // The tag's principals are exactly the nodes that forwarded.
            let lookup = answer(&dht, origin, key);
            let (path, walked_to) = reference_path(&ring, origin, key);
            let owner = ring.successor_of(key);
            assert_eq!((lookup.owner, walked_to), (owner, owner), "{says:?}");
            assert_eq!(lookup.path, path, "{says:?} {origin} {key:#x}");
            assert!(path.contains(&lookup.said_by));
        }
        // The counters are the engine's own, at whatever level it was given.
        assert_eq!(metrics.verification_failures, 0);
        assert_eq!(metrics.verifications, metrics.frames, "{says:?}");
        assert!(metrics.frames > 0 && metrics.derivations > metrics.frames);
        match says {
            SaysLevel::Rsa => assert_eq!(metrics.signatures, metrics.frames),
            SaysLevel::Session => assert_eq!(metrics.rsa_sign_ops, metrics.handshakes),
            _ => assert_eq!(metrics.rsa_sign_ops, 0),
        }
    }
}

#[test]
fn stored_values_survive_churn_and_keep_their_inserter_attribution() {
    let ring = ring(16);
    let inserter = ring.members()[4];
    let file = |i: u32| ring.space().key_id(&format!("file-{i}"));
    for says in SaysLevel::ALL {
        let mut dht = ring.deploy(level(says)).expect("ring deploys");
        for i in 0..8 {
            let stored = put(inserter, file(i), &format!("payload-{i}"));
            dht.request(stored).expect("member requests");
        }
        // A quarter of the ring departs (never the inserter), then a survivor
        // asks for every file.
        let others = ring.members().iter().filter(|m| **m != inserter);
        let victims: Vec<u32> = others.take(4).copied().collect();
        let mut script = ChurnScript::new();
        for event in dht.ring.leave(&victims).expect("members leave") {
            script = script.at(5_000_000, event);
        }
        let querier = dht.ring.members()[0];
        for i in 0..8 {
            script = script.at(10_000_000, insert(get(querier, file(i))));
        }
        let metrics = dht.net.run_scenario(&script).expect("post-churn fixpoint");
        assert_eq!(metrics.verification_failures, 0);
        assert!(metrics.retractions > 0 && metrics.rederivations > 0);

        // Under the standing `put`s every value was re-homed at its key's new
        // owner, which is where the querier's lookups now end.
        let mut recovered = 0;
        for i in 0..8 {
            let lookup = answer(&dht, querier, file(i));
            let departed = |node: &u32| victims.contains(node);
            assert!(!departed(&lookup.owner) && !lookup.path.iter().any(departed));
            assert_eq!(lookup.owner, dht.ring.successor_of(file(i)));
            let stored = dht.net.query(&Value::Addr(lookup.owner), "stored");
            assert!(stored.iter().any(|(t, _)| t.values[1] == int(file(i))));
            if let Ok(fetched) = dht.value(querier, file(i)) {
                assert_eq!(fetched.value, format!("payload-{i}"));
                assert_eq!(fetched.inserted_by, inserter);
                recovered += 1;
            }
        }
        assert!(
            recovered >= 6,
            "{says:?}: only {recovered}/8 values survived"
        );
        for victim in victims {
            assert!(dht.net.query(&Value::Addr(victim), "stored").is_empty());
        }
    }
}

#[test]
fn lookup_provenance_supports_kofn_trust_decisions() {
    let ring = ring(24);
    let (origin, inserter) = (ring.members()[0], ring.members()[9]);
    let key = ring.space().key_id("kofn-object");
    let requests = [get(origin, key), put(inserter, key, "kofn")];
    let (dht, _) = run(&ring, level(SaysLevel::Hmac), requests);

    // The tag's support is exactly the set of forwarding principals: K-of-N
    // accepts up to the path length and rejects above it.
    let lookup = answer(&dht, origin, key);
    let hops = lookup.path.len();
    assert_eq!(lookup.path, reference_path(&ring, origin, key).0);
    let evaluator = TrustEvaluator::new(dht.net.var_table(), dht.net.engine().config());
    let decide = |tag: &ProvTag, policy| evaluator.evaluate(tag, &policy) == TrustDecision::Accept;
    assert!(decide(&lookup.tag, TrustPolicy::KOfN(1)));
    assert!(decide(&lookup.tag, TrustPolicy::KOfN(hops)));
    assert!(!decide(&lookup.tag, TrustPolicy::KOfN(hops + 1)));

    // The same on the stored tag: the nodes that forwarded the inserter's
    // lookup, the inserter first.
    let owner = Value::Addr(ring.successor_of(key));
    let [(_, stored)] = &dht.net.query(&owner, "stored")[..] else {
        panic!("one stored row");
    };
    let inserted_along = reference_path(&ring, inserter, key).0;
    assert_eq!(evaluator.origins(&stored.tag), inserted_along);
    assert!(decide(&stored.tag, TrustPolicy::KOfN(inserted_along.len())));
    assert!(!decide(
        &stored.tag,
        TrustPolicy::KOfN(inserted_along.len() + 1)
    ));
    // And the fetched value depends on both paths, nothing else.
    let fetched = dht.value(origin, key).expect("value fetched");
    let both: BTreeSet<u32> = lookup.path.union(&inserted_along).copied().collect();
    assert_eq!(evaluator.origins(&fetched.tag), both);
    assert_eq!(
        (fetched.value.as_str(), fetched.inserted_by),
        ("kofn", inserter)
    );
}

#[test]
fn authenticated_lookup_graphs_verify_and_expose_forgery() {
    // Node 12 is no ring member (it left before deployment), so it is on no
    // path.  It pretends the lookup reached it and that it is its own
    // successor, which makes `c2` answer the requester in its name.
    let mut ring = ring(13);
    let rogue = 12;
    ring.leave(&[rogue]).expect("the rogue is no member");
    let origin = ring.members()[3];
    let key = ring.space().key_id("graph-check");
    let (path, owner) = reference_path(&ring, origin, key);
    let (at, id) = (Value::Addr(rogue), int(ring.id_of(rogue)));
    let fact = |name: &str, values: Vec<Value>| (at.clone(), Tuple::new(name, values));
    let forged = [
        fact("node", vec![at.clone(), id.clone(), int(1 << 24)]),
        fact("succ", vec![at.clone(), at.clone(), id.clone()]),
        fact(
            "lookup",
            vec![at.clone(), int(key), Value::Addr(origin), at.clone()],
        ),
    ];
    for says in SaysLevel::ALL {
        let requests = [get(origin, key)].into_iter().chain(forged.clone());
        let (dht, metrics) = run(&ring, level(says), requests);
        // Every frame verifies: the forgery is an honest frame from the rogue.
        assert_eq!(metrics.verification_failures, 0);
        assert_eq!(metrics.verifications, metrics.frames);
        let lookups = dht.lookups(origin, key);
        let (planted, genuine): (Vec<_>, Vec<_>) =
            lookups.iter().partition(|lookup| lookup.said_by == rogue);
        let ([planted], [genuine]) = (&planted[..], &genuine[..]) else {
            panic!("{says:?}: one genuine and one planted answer: {lookups:?}");
        };
        assert_eq!((genuine.owner, &genuine.path), (owner, &path));
        // The planted row names its speaker and carries that principal alone:
        // no hop is attributed to a node that did not say it, and the policy
        // "every principal on the path" rejects it.
        assert_eq!((planted.owner, &planted.path), (rogue, &[rogue].into()));
        let evaluator = TrustEvaluator::new(dht.net.var_table(), dht.net.engine().config());
        let on_path = TrustPolicy::TrustedPrincipals(path.clone());
        assert_eq!(
            evaluator.evaluate(&genuine.tag, &on_path),
            TrustDecision::Accept
        );
        assert_ne!(
            evaluator.evaluate(&planted.tag, &on_path),
            TrustDecision::Accept
        );

        // A row the requester stores itself was said by nobody else:
        // `W says owner(N,K,S,SI,W)` does not unify and no fetch follows it.
        let named = vec![Value::Addr(origin), int(key + 1), at.clone(), id.clone()];
        let named: Vec<_> = named.into_iter().chain([at.clone()]).collect();
        let planted = (Value::Addr(origin), Tuple::new("owner", named));
        let (dht, _) = run(&ring, level(says), [get(origin, key + 1), planted]);
        assert_eq!(dht.lookups(origin, key + 1).len(), 2);
        assert!(dht.net.query(&at, "fetch").is_empty());
    }
}

#[test]
fn hop_counts_scale_logarithmically_with_ring_size() {
    let hop_stats = |nodes: u32| {
        let ring = ring(nodes);
        let samples: Vec<(u32, u64)> = (0..64)
            .map(|i| {
                let origin = ring.members()[i % ring.members().len()];
                (origin, ring.space().key_id(&format!("sample-key-{i}")))
            })
            .collect();
        let requests = samples.iter().map(|&(origin, key)| get(origin, key));
        let (dht, _) = run(&ring, level(SaysLevel::Cleartext), requests);
        let hops = samples.iter().map(|&(origin, key)| {
            let lookup = answer(&dht, origin, key);
            assert_eq!(lookup.owner, ring.successor_of(key));
            lookup.path.len()
        });
        let hops: Vec<usize> = hops.collect();
        let total: usize = hops.iter().sum();
        (total as f64 / 64.0, *hops.iter().max().unwrap())
    };
    let (avg_small, max_small) = hop_stats(8);
    let (avg_large, max_large) = hop_stats(64);
    // Eight times the nodes should cost only a few extra hops, not 8×.
    assert!(avg_large < avg_small * 3.0, "{avg_small} -> {avg_large}");
    assert!(max_large <= 2 * 6 + 1, "max hops {max_large}"); // 2·log2(64) + 1
    assert!(max_small <= 2 * 3 + 1, "max hops {max_small}");
}

#[test]
fn says_level_changes_proof_overhead_but_not_routing() {
    let ring = ring(10);
    let key = ring.space().key_id("same-key");
    let origin = ring.members()[0];
    let routed = SaysLevel::ALL.map(|says| {
        let (dht, metrics) = run(&ring, level(says), [get(origin, key)]);
        let lookup = answer(&dht, origin, key);
        ((lookup.owner, lookup.path), metrics)
    });
    let [(cleartext, clear), (hmac, mac), (session, _), (rsa, signed)] = &routed;
    assert_eq!(cleartext.0, ring.successor_of(key));
    assert!(cleartext == hmac && cleartext == session && cleartext == rsa);
    let shipped = |m: &RunMetrics| (m.derivations, m.frames);
    assert!(shipped(clear) == shipped(mac) && shipped(clear) == shipped(signed));

    // RSA proofs are materially larger than MACs, MACs than cleartext headers.
    assert!(mac.auth_bytes > clear.auth_bytes);
    assert!(signed.auth_bytes > mac.auth_bytes + 32 * signed.frames);
}
