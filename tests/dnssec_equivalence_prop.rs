//! Property test: two of the engine's oracles on its first non-routing
//! program.  Random zone trees (depth ≤ 4, fan-out ≤ 3) × random scripts of
//! key rollovers, re-endorsements, withdrawn delegations and record changes
//! over `pasn::programs::DNSSEC`, across `says` levels and batch knobs:
//! **churn ≡ from-scratch** (the derived rows and their condensed tags, as
//! Boolean functions of the principals, equal those of a fresh deployment of
//! the facts the script left behind) and **batch ≡ stream** (`run_scenario`
//! and `run_streaming` leave identical insertion-ordered stores and an empty
//! `RunMetrics::diff` at `Scope::Schedule`).

use pasn::prelude::*;
use pasn_engine::Scope;
use pasn_overlay::dns::{dnskey, ds, resolver, rr, DnsDeployment, ZoneTree};
use pasn_overlay::{insert, retract};
use proptest::prelude::*;

#[path = "../crates/engine/tests/common/mod.rs"]
mod common;
use common::{boolean_fixpoint, says_config};

const BASE: [&str; 5] = ["anchor", "resolver", "dnskey", "ds", "rr"];
const DERIVED: [&str; 5] = ["key", "deleg", "answer", "trusted", "resolved"];

/// A random zone tree: each word delegates one more zone from a random zone
/// that is not yet three labels deep and has fewer than three children.
/// Returns the tree and its `(zone, parent)` pairs.
fn zone_tree(words: &[u64]) -> (ZoneTree, Vec<(String, String)>) {
    let mut zones: Vec<(String, String)> = Vec::new();
    let mut tree = ZoneTree::default().address(".", "host", 1);
    for (i, word) in words.iter().enumerate() {
        let open = |zone: &&str| {
            let children = zones.iter().filter(|(_, parent)| parent == zone).count();
            children < 3 && (*zone == "." || zone.split('.').count() < 3)
        };
        let declared = zones.iter().map(|(zone, _)| zone.as_str());
        let open: Vec<&str> = std::iter::once(".").chain(declared).filter(open).collect();
        let parent = open[*word as usize % open.len()].to_string();
        let name = format!("z{i}.{parent}").replace("..", "");
        let host = format!("host.{name}");
        tree = tree
            .zone(&name, &parent)
            .address(&name, &host, (word >> 8) as u32);
        zones.push((name, parent));
    }
    (tree, zones)
}

/// The base facts a deployment holds, canonically ordered.
fn base_facts(dns: &DnsDeployment) -> Vec<(Value, Tuple)> {
    let rows = BASE
        .iter()
        .flat_map(|pred| dns.net.engine().query_all(pred));
    let mut facts: Vec<_> = rows.map(|(at, tuple, _)| (at, tuple)).collect();
    facts.sort_by_key(|(at, tuple)| format!("{at} {tuple}"));
    facts
}

/// A random script over `facts` (kept in step with it): one event pair per
/// word, each rewriting one published key, endorsement or record.
fn script(
    words: &[u64],
    zones: &[(String, String)],
    facts: &mut Vec<(Value, Tuple)>,
) -> ChurnScript {
    let mut script = ChurnScript::new();
    for (i, word) in words.iter().enumerate() {
        let at = 5_000_000 + i as u64 * 400_000;
        let (zone, parent) = &zones[(word >> 4) as usize % zones.len()];
        // The fact of `predicate` about the zone (a `ds` names it second).
        let about = |predicate: &str, t: &Tuple| {
            let subject = &t.values[(predicate == "ds") as usize];
            &*t.predicate == predicate && subject.to_string() == *zone
        };
        let published = facts.iter().find(|(_, t)| about("dnskey", t));
        let published = published.map(|(_, t)| t.values[1].to_string());
        let (predicate, new) = match word % 4 {
            // Key rollover: botched until the parent follows.
            0 => ("dnskey", Some(dnskey(zone, &format!("{:064x}", word | 1)))),
            // The parent endorses what the child publishes now.
            1 => ("ds", published.map(|fp| ds(parent, zone, &fp))),
            // The parent withdraws the delegation.
            2 => ("ds", None),
            // The zone's record changes.
            _ => {
                let data = Value::Int((word >> 32) as i64);
                ("rr", Some(rr(zone, zone, &format!("host.{zone}"), data)))
            }
        };
        if let Some(old) = facts.iter().position(|(_, t)| about(predicate, t)) {
            script = script.at(at, retract(facts.remove(old)));
        }
        if let Some(new) = new {
            script = script.at(at, insert(new.clone()));
            facts.push(new);
        }
    }
    script
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dnssec_churn_is_from_scratch_and_stream_is_batch(
        shape in prop::collection::vec(any::<u64>(), 1..9),
        events in prop::collection::vec(any::<u64>(), 1..10),
        knobs in any::<u64>(),
    ) {
        let (tree, zones) = zone_tree(&shape);
        let config = || {
            says_config(knobs >> 24)
                .with_provenance(ProvenanceKind::Condensed)
                .with_cost_model(CostModel::zero_cpu())
                .with_batch_window_us(knobs % 3_000)
                .with_max_batch_tuples(1 + ((knobs >> 16) % 5) as usize)
        };
        let deploy = || tree.deploy(config()).expect("tree deploys");

        // The facts the tree starts from, read off a static run; the script
        // edits them in step with the events it emits.
        let mut initial = deploy();
        initial.net.engine_mut().run_to_fixpoint().unwrap();
        let mut facts = base_facts(&initial);
        let script = script(&events, &zones, &mut facts);
        facts.sort_by_key(|(at, tuple)| format!("{at} {tuple}"));

        let mut churned = deploy();
        let metrics = churned.net.engine_mut().run_scenario(&script).unwrap();
        prop_assert_eq!(base_facts(&churned), facts.clone());
        prop_assert_eq!(metrics.churn_events, script.events().len() as u64);
        prop_assert_eq!(metrics.verification_failures, 0);
        prop_assert_eq!(churned.net.engine().check_ledger_consistency(), Ok(()));
        prop_assert_eq!(churned.net.engine().check_link_consistency(), Ok(()));

        // churn ≡ from-scratch: the final facts on a fresh deployment.
        let mut fresh = SecureNetwork::builder()
            .program(pasn::programs::dnssec())
            .locations(churned.net.engine().locations().to_vec())
            .config(config());
        for (at, tuple) in facts {
            fresh = fresh.fact(at, tuple);
        }
        let mut fresh = fresh.build().unwrap();
        let fresh_metrics = fresh.engine_mut().run_to_fixpoint().unwrap();
        prop_assert_eq!(
            boolean_fixpoint(churned.net.engine(), &DERIVED, true),
            boolean_fixpoint(fresh.engine(), &DERIVED, true)
        );
        prop_assert_eq!(metrics.tuples_stored, fresh_metrics.tuples_stored);
        prop_assert!(!churned.net.engine().query(&resolver(), "resolved").is_empty());

        // batch ≡ stream: the same script through the streaming driver.
        let mut streamed = deploy();
        let streamed_metrics = streamed.net.engine_mut().run_streaming(script.events().iter().cloned()).unwrap();
        prop_assert_eq!(metrics.diff(&streamed_metrics, Scope::Schedule), vec![]);
        let all: Vec<&str> = BASE.iter().chain(&DERIVED).copied().collect();
        prop_assert_eq!(
            boolean_fixpoint(churned.net.engine(), &all, false),
            boolean_fixpoint(streamed.net.engine(), &all, false)
        );
    }
}
