//! Integration tests for DNSSEC on the engine: `pasn::programs::DNSSEC`
//! deployed over a zone tree.  The chain of trust of a resolution is the
//! authenticated provenance of a `resolved` tuple, trust policies over the
//! answer behave like the paper's trust-management use case, and a key
//! rollover is a churn script the deletion ledger withdraws and restores.

use pasn::diagnostics::diagnose;
use pasn::prelude::*;
use pasn::trust::{TrustEvaluator, TrustPolicy};
use pasn::AccountabilityReport;
use pasn_crypto::SaysLevel;
use pasn_overlay::dns::{dnskey, ds, resolver, rr};
use pasn_overlay::dns::{DnsDeployment, DnsError, ZoneTree};
use pasn_overlay::{insert, retract};
use pasn_provenance::{Semiring, VoteSet};

fn zones() -> ZoneTree {
    ZoneTree::default()
        .zone("com", ".")
        .zone("org", ".")
        .zone("shop.com", "com")
        .zone("example.org", "org")
        .zone("eu.example.org", "example.org")
        .address("com", "registry.com", 0xc0a8_0001)
        .address("example.org", "www.example.org", 0xc0a8_0201)
        .address("eu.example.org", "cdn.eu.example.org", 0xc0a8_0301)
        .fact(rr(
            "org",
            "org",
            "org",
            Value::Str("public interest registry".into()),
        ))
}

fn hierarchy() -> ZoneTree {
    zones().address("shop.com", "www.shop.com", 0xc0a8_0101)
}

/// The four `says` levels with condensed provenance: cleartext, per-frame
/// HMAC, session channels (batched), per-frame RSA.
fn levels() -> [EngineConfig; 4] {
    SaysLevel::ALL.map(|level| {
        let config = EngineConfig::ndlog()
            .with_says(level)
            .with_provenance(ProvenanceKind::Condensed)
            .with_cost_model(CostModel::zero_cpu());
        match level {
            SaysLevel::Session => config.with_batching(),
            _ => config,
        }
    })
}

fn run(tree: &ZoneTree, config: EngineConfig) -> (DnsDeployment, RunMetrics) {
    let mut dns = tree.deploy(config).expect("hierarchy deploys");
    let metrics = dns.net.engine_mut().run_to_fixpoint().expect("fixpoint");
    (dns, metrics)
}

#[test]
fn answers_resolve_through_the_right_zones() {
    let cases = [
        ("registry.com", 0xc0a8_0001u32, ". com"),
        ("www.shop.com", 0xc0a8_0101, ". com shop.com"),
        ("www.example.org", 0xc0a8_0201, ". org example.org"),
        (
            "cdn.eu.example.org",
            0xc0a8_0301,
            ". org example.org eu.example.org",
        ),
    ];
    for config in levels() {
        let level = config.says_level.unwrap();
        let batched = config.batch_window_us > 0;
        let (dns, metrics) = run(&hierarchy(), config);
        for (name, addr, chain) in cases {
            // The chain is read off the tag: exactly the zones on the path.
            let res = dns.resolve(name).expect(name);
            assert_eq!((res.address, res.chain.join(" ").as_str()), (addr, chain));
        }
        // A name nobody said, a label nobody was delegated, a TXT record.
        for name in ["missing.example.org", "www.other.test", "org"] {
            assert_eq!(dns.resolve(name), Err(DnsError::NameNotFound(name.into())));
        }
        // The counters are the engine's own, at whatever level it was given.
        assert_eq!(metrics.verification_failures, 0);
        assert_eq!(metrics.verifications, metrics.frames, "{level:?}");
        assert!(metrics.frames > 0 && metrics.derivations > metrics.frames);
        assert_eq!(batched, metrics.frames < metrics.batched_tuples);
        match level {
            SaysLevel::Rsa => assert_eq!(metrics.signatures, metrics.frames),
            SaysLevel::Session => assert_eq!(metrics.rsa_sign_ops, metrics.handshakes),
            _ => assert_eq!(metrics.rsa_sign_ops, 0),
        }
    }
}

#[test]
fn zone_key_fingerprints_are_pinned() {
    // The last zone's key sits at the far end of the provisioning stream:
    // it moves if any earlier key generation draws one random word more or
    // fewer.  Captured before the Montgomery kernels were merged.
    let rsa = levels()
        .into_iter()
        .find(|c| c.says_level == Some(SaysLevel::Rsa));
    let dns = hierarchy().deploy(rsa.unwrap()).expect("hierarchy deploys");
    assert_eq!(
        dns.fingerprint("eu.example.org"),
        "23acc6665d614feb0d58c870e71d5f9346c04291bcb45d28cc5cfb631d98a8ac"
    );
}

#[test]
fn every_attack_vector_is_detected() {
    let name = |n: &str| n.to_string();
    for config in levels() {
        // A rogue record: a sibling zone asserting shop.com's record ships
        // nothing; an `answer` planted at the validating node is stored but
        // was never said by shop.com, so `Z says answer(Z,…)` does not unify.
        let www = || Value::Int(0x0bad_beef);
        let sibling = zones().fact(rr("org", "shop.com", "www.shop.com", www()));
        let (dns, _) = run(&sibling, config.clone());
        let err = dns.resolve("www.shop.com").unwrap_err();
        assert_eq!(err, DnsError::NameNotFound(name("www.shop.com")));
        let planted = rr("", "shop.com", "www.shop.com", www()).1.values;
        let planted = zones().fact((resolver(), Tuple::new("answer", planted)));
        let (dns, _) = run(&planted, config.clone());
        let err = dns.resolve("www.shop.com").unwrap_err();
        assert_eq!(err, DnsError::NotSaidByItsZone(name("www.shop.com")));
        // Unrelated zones keep validating.
        assert!(dns.resolve("www.example.org").is_ok());

        // Key substitution below the root breaks that zone and everything
        // under it, and nothing else.
        let (dns, _) = run(&hierarchy().substitute_key("example.org"), config.clone());
        let broken = Err(DnsError::BrokenChain(name("org"), name("example.org")));
        assert_eq!(dns.resolve("www.example.org"), broken);
        assert_eq!(dns.resolve("cdn.eu.example.org"), broken);
        assert!(dns.resolve("www.shop.com").is_ok());

        // A wrong trust anchor — or a substituted root key — rejects everything.
        let anchored = hierarchy().anchor_at(&"07".repeat(32));
        for tree in [anchored, hierarchy().substitute_key(".")] {
            let (dns, _) = run(&tree, config.clone());
            assert_eq!(dns.resolve("registry.com"), Err(DnsError::UntrustedRoot));
            assert!(dns.net.engine().query(&resolver(), "resolved").is_empty());
        }
    }
}

#[test]
fn resolution_provenance_feeds_the_trust_management_api() {
    let [_, _, _, rsa] = levels();
    let (dns, _) = run(&hierarchy(), rsa);
    let res = dns.resolve("cdn.eu.example.org").unwrap();
    let principal = |zone: &str| dns.principal_of(zone).unwrap().0;

    // The chain's vote set is the four zones on the path; a resolver that
    // requires at least as many independent asserting principals as the
    // delegation depth accepts it, a stricter one rejects it.
    let votes = res
        .chain
        .iter()
        .map(|zone| VoteSet::principal(principal(zone)));
    let vote = ProvTag::Vote(Box::new(votes.fold(VoteSet::one(), |acc, v| acc.times(&v))));
    let evaluator = TrustEvaluator::new(dns.net.engine().var_table(), dns.net.engine().config());
    assert_eq!(
        evaluator.evaluate(&vote, &TrustPolicy::KOfN(4)),
        TrustDecision::Accept
    );
    assert_ne!(
        evaluator.evaluate(&vote, &TrustPolicy::KOfN(5)),
        TrustDecision::Accept
    );

    // Accepting the answer only if a trusted registry is on the chain; the
    // .com registry never appears in the provenance of an .org answer.
    let org = TrustPolicy::TrustedPrincipals([principal("org")].into_iter().collect());
    assert_eq!(evaluator.evaluate(&vote, &org), TrustDecision::Accept);
    assert!(!evaluator.origins(&res.tag).contains(&principal("com")));
    assert!(!res.chain.iter().any(|zone| zone == "com"));
}

#[test]
fn resolution_graph_has_one_delegation_step_per_zone() {
    let [cleartext, ..] = levels();
    let (dns, _) = run(&hierarchy(), cleartext.with_graph_mode(GraphMode::Local));
    let res = dns.resolve("www.example.org").unwrap();
    let store = dns.net.engine().provenance_store(&resolver()).unwrap();
    let answer = format!("resolved(n0,www.example.org,{})", res.address);
    assert!(!store.derivations_of(&answer).is_empty());
    let rendered = store.render_tree(&answer);
    // Two delegations (root→org, org→example.org), the anchored root and
    // the final answer.
    assert_eq!(rendered.matches("d5@").count(), 2, "{rendered}");
    assert_eq!(rendered.matches("d4@").count(), 1, "{rendered}");
    assert_eq!(rendered.matches("d6@").count(), 1, "{rendered}");
    // Every witness includes the trust anchor — and grounds out in base
    // tuples at all: the anchor, per zone its key and the resolver it
    // serves, per delegation its endorsement, and the record.
    let (_, anchor, _) = &dns.net.engine().query_all("anchor")[0];
    let anchor = store.base_support(&anchor.to_string());
    assert_eq!(anchor.len(), 1, "the anchor is its own support");
    let why = store.why_provenance(&answer);
    assert!(!why.witnesses().is_empty());
    for witness in why.witnesses() {
        assert!(anchor.is_subset(witness));
        assert_eq!(witness.len(), 1 + 3 + 3 + 2 + 1);
    }
}

/// `diagnose` reads a resolution's origins off its online provenance: the
/// base facts the chain rests on — the trust anchor, per zone its key and
/// the resolver it serves, per delegation its endorsement, and the record —
/// whatever the program calls them.
#[test]
fn a_resolution_is_diagnosed_down_to_its_base_facts() {
    let [cleartext, ..] = levels();
    let (dns, _) = run(
        &hierarchy(),
        cleartext.with_graph_mode(GraphMode::Distributed),
    );
    let res = dns.resolve("www.example.org").unwrap();
    let answer = format!("resolved(n0,www.example.org,{})", res.address);
    let diagnosis = diagnose(dns.net.engine(), &resolver(), &answer);
    let mut origins = diagnosis.suspected_origins;
    origins.sort();
    let predicates: Vec<&str> = origins.iter().filter_map(|o| o.split('(').next()).collect();
    assert_eq!(
        predicates,
        [
            "anchor", "dnskey", "dnskey", "dnskey", "ds", "ds", "resolver", "resolver", "resolver",
            "rr"
        ]
    );
    let stored: Vec<String> = ["anchor", "dnskey", "ds", "resolver", "rr"]
        .iter()
        .flat_map(|pred| dns.net.engine().query_all(pred))
        .map(|(_, tuple, _)| tuple.to_string())
        .collect();
    assert!(
        origins.iter().all(|origin| stored.contains(origin)),
        "{origins:?}"
    );
}

/// An accountability report counts every row a principal's node stores, in
/// every relation the program has — here none of the reachability names.
#[test]
fn accountability_counts_every_dnssec_relation() {
    let [cleartext, ..] = levels();
    let (dns, metrics) = run(&hierarchy(), cleartext);
    let report = AccountabilityReport::collect(dns.net.engine());
    let stored: usize = report.usage.iter().map(|u| u.tuples_stored).sum();
    assert_eq!(stored as u64, metrics.tuples_stored);
    assert!(report.usage.iter().all(|u| u.tuples_stored > 0));
}

const ROLLED: &str = "example.org";
const BELOW: [&str; 2] = ["www.example.org", "cdn.eu.example.org"];

/// A botched ZSK rollover: `example.org` retracts its old `dnskey` and
/// publishes the new one at 5 s, before its parent's new `ds` lands — which,
/// with `completed`, it does at 10 s.
fn rollover(dns: &DnsDeployment, completed: bool) -> ChurnScript {
    let (old, new) = (dns.fingerprint(ROLLED), "5eed".repeat(16));
    let script = ChurnScript::new()
        .at(5_000_000, retract(dnskey(ROLLED, &old)))
        .at(5_000_000, insert(dnskey(ROLLED, &new)));
    if !completed {
        return script;
    }
    script
        .at(10_000_000, retract(ds("org", ROLLED, &old)))
        .at(10_000_000, insert(ds("org", ROLLED, &new)))
}

/// Every `resolved` row at the validating node with its rendered tag.
fn resolved(dns: &DnsDeployment) -> Vec<(Tuple, String)> {
    let rows = dns.net.engine().query(&resolver(), "resolved").into_iter();
    let tagged = rows.map(|(tuple, meta)| (tuple, meta.tag.render(dns.net.engine().var_table())));
    let mut rows: Vec<(Tuple, String)> = tagged.collect();
    rows.sort_by_key(|(tuple, _)| tuple.to_string());
    rows
}

#[test]
fn dnssec_rollover_withdraws_the_zone_and_its_new_ds_restores_it() {
    let [.., session, rsa] = levels();
    for config in [session, rsa] {
        let (before, _) = run(&hierarchy(), config.clone());

        // Botched: every name at or below the zone — and nothing else —
        // stops validating, withdrawn through the ordinary ledger.
        let mut botched = hierarchy().deploy(config.clone()).unwrap();
        let script = rollover(&botched, false);
        let metrics = botched.net.engine_mut().run_scenario(&script).unwrap();
        let broken = DnsError::BrokenChain("org".into(), ROLLED.into());
        for name in BELOW {
            assert!(before.resolve(name).is_ok(), "{name} validates before");
            assert_eq!(botched.resolve(name), Err(broken.clone()), "{name}");
        }
        let mut unaffected = resolved(&before);
        unaffected.retain(|(tuple, _)| !BELOW.contains(&&*tuple.values[1].to_string()));
        assert_eq!(resolved(&botched), unaffected);
        assert!(metrics.retractions > 0 && metrics.tombstone_frames > 0);
        assert_eq!(
            (metrics.verification_failures, metrics.churn_events),
            (0, 2)
        );

        // Completed: the names validate again under the tags they had.
        let mut after = hierarchy().deploy(config).unwrap();
        let script = rollover(&after, true);
        let metrics = after.net.engine_mut().run_scenario(&script).unwrap();
        assert_eq!(resolved(&after), resolved(&before));
        assert!(BELOW.iter().all(|name| after.resolve(name).is_ok()));
        assert!(metrics.retractions > 0 && metrics.rederivations > 0);
        assert_eq!(
            (metrics.verification_failures, metrics.churn_events),
            (0, 4)
        );
    }
}

#[test]
fn dnssec_rollover_over_lossy_links_ends_where_the_reliable_run_does() {
    let [.., session, _] = levels();
    let mut reliable = hierarchy().deploy(session.clone()).unwrap();
    let script = rollover(&reliable, true);
    reliable.net.engine_mut().run_scenario(&script).unwrap();
    for seed in [41, 987_654_321] {
        // Heavier loss than the default plan: the deployment ships few frames.
        let plan = FaultPlan::new(seed).with_drop_per_mille(250);
        let mut lossy = hierarchy()
            .deploy(session.clone().with_fault_plan(plan))
            .unwrap();
        let metrics = lossy.net.engine_mut().run_scenario(&script).unwrap();
        assert!(metrics.frames_dropped > 0, "the fault plan must bite");
        assert_eq!(metrics.verification_failures, 0);
        assert_eq!(resolved(&lossy), resolved(&reliable), "seed {seed}");
    }
}
