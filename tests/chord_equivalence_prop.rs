//! Property test: the engine's oracles on `pasn::programs::CHORD`.  Random
//! ring sizes × random leave / rejoin scripts over standing `get`s and `put`s,
//! across `says` levels and batch knobs: every surviving lookup ends at the
//! successor of its key in the sorted member ids (the builder's binary
//! search, which no rule shares); **churn ≡ from-scratch** (the derived rows
//! equal those of a fresh deployment of the ring the script left behind, and
//! so do their condensed tags, as Boolean functions of the principals, when
//! the script lets each withdrawal wave drain before it asserts);
//! **batch ≡ stream** (`run_scenario` and `run_streaming` leave identical
//! insertion-ordered stores and an empty `RunMetrics::diff` at
//! `Scope::Schedule`); **lossy ≡ reliable** (the same rows) under fault seeds
//! 41 and `987_654_321`.  And one fixed case: fingers that forward a key to
//! each other reach a fixpoint, with no answer.

use pasn::prelude::*;
use pasn_engine::Scope;
use pasn_overlay::chord::{get, put, ChordConfig, ChordDeployment, Ring};
use pasn_overlay::retract;
use proptest::prelude::*;

#[path = "../crates/engine/tests/common/mod.rs"]
mod common;
use common::{boolean_fixpoint, says_config};

const BASE: [&str; 5] = ["node", "succ", "finger", "get", "put"];
const DERIVED: [&str; 5] = ["lookup", "owner", "stored", "fetch", "value"];

/// The rows of `preds` across all nodes, sorted, tags aside.
fn rows(engine: &pasn_engine::DistributedEngine, preds: &[&str]) -> Vec<String> {
    let rows = preds.iter().flat_map(|pred| engine.query_all(pred));
    let mut rows: Vec<String> = rows.map(|(at, tuple, _)| format!("{at} {tuple}")).collect();
    rows.sort();
    rows
}

/// Six standing lookups and two stored values, at origins the word picks.
fn requests(ring: &Ring, word: u64) -> Vec<(u32, (Value, Tuple))> {
    let nodes = ring.members().len() as u64;
    let request = |i: u64| {
        let origin = ring.members()[((word >> (4 * i)) % nodes) as usize];
        let key = ring.space().key_id(&format!("key-{}", i % 6));
        let stored = || put(origin, key, &format!("value-{i}"));
        (origin, if i < 6 { get(origin, key) } else { stored() })
    };
    (0..8).map(request).collect()
}

/// One membership change per word that can apply: the node it names leaves
/// if it is a member (and not the last), rejoins if it has left.  What a
/// change asserts lands `settle_us` after what it withdraws.
fn script(words: &[u64], dht: &mut ChordDeployment, settle_us: u64) -> ChurnScript {
    let mut script = ChurnScript::new();
    for (i, word) in words.iter().enumerate() {
        let at = 5_000_000 + i as u64 * 400_000;
        let node = (word % dht.net.engine().locations().len() as u64) as u32;
        let changed = match dht.ring.members().contains(&node) {
            true => dht.ring.leave(&[node]),
            false => dht.ring.rejoin(&[node]),
        };
        for event in changed.unwrap_or_default() {
            let asserts = matches!(
                event,
                ChurnEvent::Insert { .. } | ChurnEvent::NodeRejoin { .. }
            );
            script = script.at(at + if asserts { settle_us } else { 0 }, event);
        }
    }
    script
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn chord_churn_is_from_scratch_stream_is_batch_and_lossy_is_reliable(
        size in 2u32..10,
        events in prop::collection::vec(any::<u64>(), 1..6),
        knobs in any::<u64>(),
    ) {
        let ring = Ring::build(ChordConfig { nodes: size, bits: 16 }).unwrap();
        let requests = requests(&ring, knobs >> 32);
        let config = || {
            says_config(knobs >> 24)
                .with_provenance(ProvenanceKind::Condensed)
                .with_cost_model(CostModel::zero_cpu())
                .with_batch_window_us(knobs % 3_000)
                .with_max_batch_tuples(1 + ((knobs >> 16) % 5) as usize)
        };
        let deploy = |ring: &Ring, config: EngineConfig, alive: &dyn Fn(u32) -> bool| {
            let mut dht = ring.deploy(config).expect("ring deploys");
            for (_, request) in requests.iter().filter(|(origin, _)| alive(*origin)) {
                dht.request(request.clone()).expect("member requests");
            }
            dht
        };

        let mut churned = deploy(&ring, config(), &|_| true);
        // A tag is a snapshot taken when a rule fires: re-stabilised in one
        // instant, a row the old and the new route both reach may be read
        // under either, so only a script that lets each withdrawal wave drain
        // first promises from-scratch's tags as well as its rows.
        let settled = knobs >> 40 & 1 == 1;
        let script = script(&events, &mut churned, if settled { 200_000 } else { 0 });
        let metrics = churned.net.engine_mut().run_scenario(&script).unwrap();
        let engine = churned.net.engine();
        prop_assert_eq!(metrics.churn_events, script.events().len() as u64);
        prop_assert_eq!(metrics.verification_failures, 0);
        prop_assert_eq!(engine.check_ledger_consistency(), Ok(()));
        prop_assert_eq!(engine.check_speaker_consistency(), Ok(()));
        prop_assert_eq!(engine.check_link_consistency(), Ok(()));

        // Owners are the sorted-id reference's, for every surviving request.
        let after = &churned.ring;
        let member = |node: u32| after.members().contains(&node);
        for (origin, (_, request)) in &requests {
            let key = request.values[1].as_int().unwrap() as u64;
            let owners: Vec<u32> = churned.lookups(*origin, key).iter().map(|l| l.owner).collect();
            let reference = member(*origin).then(|| after.successor_of(key));
            prop_assert_eq!(owners, Vec::from_iter(reference), "origin {} key {}", origin, key);
        }

        // churn ≡ from-scratch: the final ring on a fresh deployment.
        let mut fresh = deploy(after, config(), &member);
        let fresh_metrics = fresh.net.engine_mut().run_to_fixpoint().unwrap();
        prop_assert_eq!(
            boolean_fixpoint(engine, &BASE, true),
            boolean_fixpoint(fresh.net.engine(), &BASE, true)
        );
        prop_assert_eq!(rows(engine, &DERIVED), rows(fresh.net.engine(), &DERIVED));
        if settled {
            prop_assert_eq!(
                boolean_fixpoint(engine, &DERIVED, true),
                boolean_fixpoint(fresh.net.engine(), &DERIVED, true)
            );
        }
        prop_assert_eq!(metrics.tuples_stored, fresh_metrics.tuples_stored);

        // batch ≡ stream: the same script through the streaming driver.
        let mut streamed = deploy(&ring, config(), &|_| true);
        let streamed_metrics = streamed.net.engine_mut().run_streaming(script.events().iter().cloned()).unwrap();
        prop_assert_eq!(metrics.diff(&streamed_metrics, Scope::Schedule), vec![]);
        let all: Vec<&str> = BASE.iter().chain(&DERIVED).copied().collect();
        prop_assert_eq!(
            boolean_fixpoint(engine, &all, false),
            boolean_fixpoint(streamed.net.engine(), &all, false)
        );

        // lossy ≡ reliable: the same script over links that drop, duplicate
        // and delay frames ends at the same rows.  (Not the same tags: a tag
        // is a snapshot taken when a rule fires, a re-homed `stored` row that
        // merges its new derivation before the old one's tombstone lands
        // fires nothing again, and the loss decides which lands first.)
        for seed in [41, 987_654_321] {
            let plan = FaultPlan::new(seed).with_drop_per_mille(150);
            let mut lossy = deploy(&ring, config().with_fault_plan(plan), &|_| true);
            let lossy_metrics = lossy.net.engine_mut().run_scenario(&script).unwrap();
            prop_assert_eq!(lossy_metrics.verification_failures, 0);
            prop_assert_eq!(rows(lossy.net.engine(), &all), rows(engine, &all), "seed {}", seed);
            prop_assert_eq!(lossy.net.engine().check_ledger_consistency(), Ok(()));
            prop_assert_eq!(lossy.net.engine().check_speaker_consistency(), Ok(()));
        }
    }
}

#[test]
fn fingers_forwarding_a_key_to_each_other_reach_a_fixpoint_without_an_answer() {
    // Two nodes, each told the other sits one step clockwise of it and covers
    // the whole ring: whichever holds the lookup forwards it.  No hop counter
    // ends that; the third `lookup` row is one the first node already said.
    let (a, b) = (Value::Addr(0), Value::Addr(1));
    let int = Value::Int;
    let fact = |at: &Value, name: &str, rest: &[i64]| {
        let values = [at.clone()]
            .into_iter()
            .chain(rest.iter().copied().map(int));
        (at.clone(), Tuple::new(name, values.collect::<Vec<_>>()))
    };
    let finger = |at: &Value, to: &Value, id: i64, next: i64| {
        let values = vec![at.clone(), to.clone(), int(id), int(next)];
        (at.clone(), Tuple::new("finger", values))
    };
    let asked = fact(&a, "get", &[5]);
    let facts = [
        fact(&a, "node", &[10, 256]),
        fact(&b, "node", &[20, 256]),
        finger(&a, &b, 11, 10),
        finger(&b, &a, 21, 20),
        asked.clone(),
    ];
    for pick in 0..3 {
        let config = says_config(pick).with_cost_model(CostModel::zero_cpu());
        let mut net = SecureNetwork::builder()
            .program(pasn::programs::chord())
            .locations(vec![a.clone(), b.clone()])
            .config(config);
        for (at, tuple) in facts.clone() {
            net = net.fact(at, tuple);
        }
        let mut net = net.build().unwrap();
        // Withdrawing the request later leaves the two forwarded rows holding
        // each other up; the well-founded sweep collects the cycle.
        let script = ChurnScript::new().at(5_000_000, retract(asked.clone()));
        let metrics = net.engine_mut().run_scenario(&script).unwrap();
        assert_eq!(metrics.derivations, 4, "c0, then c3 three times");
        assert_eq!(metrics.retractions, 4, "the request and its three lookups");
        assert!(net.engine().query_all("owner").is_empty());
        assert!(net.engine().query_all("lookup").is_empty());
        assert_eq!(net.engine().check_ledger_consistency(), Ok(()));
    }
}
