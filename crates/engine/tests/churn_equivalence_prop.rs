//! Property tests: provenance-guided incremental deletion is exact.
//!
//! 1. **Re-convergence** — for random topologies × random churn scripts
//!    (link downs, some coming back up) × random batch knobs × random
//!    `says` levels, the post-churn fixpoint equals a from-scratch
//!    evaluation of the final topology: identical tuple sets (canonically
//!    ordered) at every node and identical totals.  Insertion *order*
//!    necessarily differs — churn is part of the history — so fixpoints
//!    are compared in canonical (sorted) order.
//! 2. **Count exactness** — with `DerivationCount` tags over alternative
//!    derivations, retracting one derivation leaves the survivor with an
//!    exactly decremented tag, matching the from-scratch run.  (Deeper
//!    tag equality is deliberately not claimed: merged-tag snapshots are
//!    schedule-shaped, exactly as documented for batching.)
//! 3. **Aggregates elect** — `a_COUNT` (the route monitor over timed
//!    update scripts) and `a_SUM` (inbound link costs under link churn):
//!    churn ≡ from-scratch, the streaming driver ≡ the batch scenario on
//!    insertion-ordered rows and every schedule counter, and every group
//!    ends holding one row whose value a count or sum over the script's
//!    live facts — computed here, sharing nothing with the engine — agrees
//!    with.

use pasn_datalog::Value;
use pasn_engine::{
    ChurnEvent, ChurnScript, DistributedEngine, EngineConfig, RunMetrics, Scope, Tuple,
};
use pasn_net::{CostModel, SimTime};
use pasn_provenance::ProvenanceKind;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

mod common;
use common::{
    fixpoint_of, locations, ordered_fixpoint_of, reach_engine, says_config, str_val, NODES,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random link churn over random topologies: the churned run's
    /// post-churn fixpoint is the from-scratch fixpoint of whatever
    /// topology the script left behind.
    #[test]
    fn churned_runs_reconverge_to_the_final_topology_fixpoint(
        words in prop::collection::vec(any::<u64>(), 1..20),
        knobs in any::<u64>(),
    ) {
        // One word per candidate link: endpoints plus down / re-up flags.
        let mut initial: Vec<(usize, usize)> = Vec::new();
        let mut flags: HashMap<(usize, usize), (bool, bool)> = HashMap::new();
        for w in words {
            let link = ((w % 4) as usize, ((w >> 8) % 4) as usize);
            if link.0 == link.1 || flags.contains_key(&link) {
                continue;
            }
            initial.push(link);
            flags.insert(link, ((w >> 16) & 1 == 1, (w >> 17) & 1 == 1));
        }
        prop_assume!(!initial.is_empty());
        let window = knobs % 3_000;
        let cap = 1 + ((knobs >> 16) % 5) as usize;
        let config = || {
            says_config(knobs >> 24)
                .with_batch_window_us(window)
                .with_max_batch_tuples(cap)
        };

        // The script: flagged links go down well after initial convergence,
        // a sub-subset comes back later.
        let mut script = ChurnScript::new();
        let mut downs = 0u64;
        for (i, link) in initial.iter().enumerate() {
            let (down, up) = flags[link];
            if down {
                downs += 1;
                script = script.link_down(
                    5_000_000 + i as u64 * 1_000,
                    str_val(NODES[link.0]),
                    str_val(NODES[link.1]),
                );
                if up {
                    script = script.link_up(
                        10_000_000 + i as u64 * 1_000,
                        str_val(NODES[link.0]),
                        str_val(NODES[link.1]),
                    );
                }
            }
        }
        let final_links: Vec<(usize, usize)> = initial
            .iter()
            .filter(|link| {
                let (down, up) = flags[link];
                !down || up
            })
            .copied()
            .collect();

        let mut churned = reach_engine(config(), &initial);
        let metrics = churned.run_scenario(&script).unwrap();

        let mut fresh = reach_engine(config(), &final_links);
        let fresh_metrics: RunMetrics = fresh.run_to_fixpoint().unwrap();

        prop_assert_eq!(fixpoint_of(&churned, "link"), fixpoint_of(&fresh, "link"));
        prop_assert_eq!(
            fixpoint_of(&churned, "reachable"),
            fixpoint_of(&fresh, "reachable"),
            "window {} cap {} downs {}",
            window,
            cap,
            downs
        );
        prop_assert_eq!(metrics.tuples_stored, fresh_metrics.tuples_stored);
        prop_assert_eq!(metrics.churn_events, script.events().len() as u64);
        prop_assert_eq!(metrics.verification_failures, 0);
        if downs > 0 {
            prop_assert!(metrics.retractions > 0);
        }
        prop_assert_eq!(churned.check_ledger_consistency(), Ok(()));
        prop_assert_eq!(churned.check_link_consistency(), Ok(()));
    }

    /// Alternative derivations under `DerivationCount`: retracting one
    /// leaves the survivor with an exactly decremented tag — the churned
    /// tags equal the from-scratch tags of the final database.
    #[test]
    fn retractions_decrement_derivation_counts_exactly(
        words in prop::collection::vec(any::<u64>(), 1..16),
        knobs in any::<u64>(),
    ) {
        let program = pasn_datalog::parse_program(
            "At S:\n d1 p(X) :- q(X).\n d2 p(X) :- r(X).",
        )
        .unwrap();
        let loc = str_val("a");
        let window = knobs % 2_000;
        let config = || {
            EngineConfig::ndlog()
                .with_cost_model(CostModel::zero_cpu())
                .with_provenance(ProvenanceKind::Count)
                .with_batch_window_us(window)
                .with_dynamics()
        };
        // One word per base fact: relation, value, retract flag.
        let mut facts: Vec<(&str, i64, bool)> = Vec::new();
        let mut seen: HashMap<(u64, i64), ()> = HashMap::new();
        for w in words {
            let rel = if (w >> 8) % 2 == 0 { "q" } else { "r" };
            let x = (w % 8) as i64;
            if seen.insert(((w >> 8) % 2, x), ()).is_some() {
                continue;
            }
            facts.push((rel, x, (w >> 16) & 1 == 1));
        }

        let build = |keep_only: bool| {
            let mut engine = DistributedEngine::new(
                &program,
                config(),
                std::slice::from_ref(&loc),
            )
            .unwrap();
            for (rel, x, retract) in &facts {
                if keep_only && *retract {
                    continue;
                }
                engine
                    .insert_fact(loc.clone(), Tuple::new(*rel, vec![Value::Int(*x)]))
                    .unwrap();
            }
            engine
        };

        let mut script = ChurnScript::new();
        for (i, (rel, x, retract)) in facts.iter().enumerate() {
            if *retract {
                script = script.at(
                    5_000_000 + i as u64 * 1_000,
                    pasn_engine::ChurnEvent::Retract {
                        location: loc.clone(),
                        tuple: Tuple::new(*rel, vec![Value::Int(*x)]),
                    },
                );
            }
        }

        let mut churned = build(false);
        churned.run_scenario(&script).unwrap();
        let mut fresh = build(true);
        fresh.run_to_fixpoint().unwrap();

        for pred in ["p", "q", "r"] {
            prop_assert_eq!(
                fixpoint_of(&churned, pred),
                fixpoint_of(&fresh, pred),
                "{} diverged (window {})",
                pred,
                window
            );
        }
        prop_assert_eq!(churned.check_ledger_consistency(), Ok(()));
        prop_assert_eq!(churned.check_link_consistency(), Ok(()));
    }
}

/// `pasn::programs::ROUTE_MONITOR`: per destination, the number of route
/// updates a node holds, and an alarm while it exceeds the node's threshold.
const ROUTE_MONITOR: &str = "
    m1 updateCount(@S,D,a_COUNT<C>) :- routeUpdate(@S,D,C).
    m2 alarm(@S,D,N) :- updateCount(@S,D,N), threshold(@S,T), N > T.
";

/// Every node sums the costs of its live in-links.
const INBOUND: &str = "
    s0 inLink(@D,S,C) :- link(@S,D,C).
    s1 inbound(@D,a_SUM<C>) :- inLink(@D,S,C).
";

/// A fact and the position in [`NODES`] it is asserted at.
type Fact = (usize, Tuple);

/// `program` over [`NODES`] with dynamics armed, zero CPU cost and `facts`
/// asserted at time zero.
fn engine_with(program: &str, config: EngineConfig, facts: &[Fact]) -> DistributedEngine {
    let program = pasn_datalog::parse_program(program).unwrap();
    let config = config
        .with_cost_model(CostModel::zero_cpu())
        .with_dynamics();
    let mut engine = DistributedEngine::new(&program, config, &locations()).unwrap();
    for (at, tuple) in facts {
        engine
            .insert_fact(str_val(NODES[*at]), tuple.clone())
            .unwrap();
    }
    engine
}

/// Runs `script` over `program` with `initial` asserted, as a batch
/// scenario and streamed, and `live` — the facts the script leaves — from
/// scratch.  Asserts churn ≡ from-scratch and stream ≡ batch on every
/// predicate of `preds` and on the schedule counters, and returns the
/// scenario's engine.
fn scenario_matches_stream_and_scratch(
    program: &str,
    config: &dyn Fn() -> EngineConfig,
    initial: &[Fact],
    script: &ChurnScript,
    live: &[Fact],
    preds: &[&str],
) -> DistributedEngine {
    let mut batch = engine_with(program, config(), initial);
    let batch_metrics = batch.run_scenario(script).unwrap();
    let mut events = script.events().to_vec();
    events.sort_by_key(|(at, _)| *at);
    let mut streaming = engine_with(program, config(), initial);
    let streaming_metrics = streaming.run_streaming(events).unwrap();
    let mut fresh = engine_with(program, config(), live);
    fresh.run_to_fixpoint().unwrap();
    for pred in preds {
        let churned = fixpoint_of(&batch, pred);
        assert_eq!(
            churned,
            fixpoint_of(&fresh, pred),
            "{pred}: churned vs from scratch"
        );
        let streamed = ordered_fixpoint_of(&streaming, pred);
        assert_eq!(
            streamed,
            ordered_fixpoint_of(&batch, pred),
            "{pred}: streamed vs batch"
        );
    }
    assert_eq!(
        streaming_metrics.diff(&batch_metrics, Scope::Schedule),
        vec![]
    );
    assert_eq!(batch.check_ledger_consistency(), Ok(()));
    assert_eq!(streaming.check_ledger_consistency(), Ok(()));
    batch
}

/// Per-node sorted value lists of `pred` — the reference side renders its
/// expected rows the same way.
fn rows_of(engine: &DistributedEngine, pred: &str) -> Vec<Vec<String>> {
    let rows = |loc| engine.query(loc, pred).into_iter().map(|(t, _)| t.values);
    let render = |loc| {
        let mut rows: Vec<String> = rows(loc).map(|v| format!("{v:?}")).collect();
        rows.sort();
        rows
    };
    engine.locations().iter().map(render).collect()
}

/// Expected rows per node, rendered and sorted like [`rows_of`].
fn expected_rows(rows: impl IntoIterator<Item = (usize, Vec<Value>)>) -> Vec<Vec<String>> {
    let mut per_node = vec![Vec::new(); NODES.len()];
    for (at, values) in rows {
        per_node[at].push(format!("{values:?}"));
    }
    per_node.iter_mut().for_each(|rows| rows.sort());
    per_node
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The route monitor over a random timed script of route updates, each
    /// retracted a random while after it arrived or never: one
    /// `updateCount` row per node and destination that still holds
    /// updates, valued at how many it holds, and an `alarm` row exactly
    /// where that exceeds the node's threshold.
    #[test]
    fn windowed_route_counts_are_exact(
        words in prop::collection::vec(any::<u64>(), 1..24),
        knobs in any::<u64>(),
    ) {
        let window = knobs % 3_000;
        let cap = 1 + ((knobs >> 16) % 5) as usize;
        let config = || {
            says_config(knobs >> 24)
                .with_batch_window_us(window)
                .with_max_batch_tuples(cap)
        };
        let threshold = |node: usize| 1 + (knobs >> (40 + 2 * node)) % 3;
        let thresholds: Vec<Fact> = (0..2)
            .map(|node| {
                let t = Value::Int(threshold(node) as i64);
                (node, Tuple::new("threshold", vec![str_val(NODES[node]), t]))
            })
            .collect();

        // One word per update: node, destination, id, arrival on a
        // quarter-second grid, and a lifetime unless it stays.  Four groups
        // of up to eight updates, so counts climb past every threshold.
        let mut script = ChurnScript::new();
        let mut live = thresholds.clone();
        let mut seen = HashMap::new();
        for w in words {
            let (node, dest, id) = ((w % 2) as usize, ((w >> 8) % 2) as usize, (w >> 16) % 8);
            if seen.insert((node, dest, id), ()).is_some() {
                continue;
            }
            let values = vec![str_val(NODES[node]), str_val(NODES[dest]), Value::Int(id as i64)];
            let update = Tuple::new("routeUpdate", values);
            let location = str_val(NODES[node]);
            let at = (w >> 24) % 40 * 250_000;
            let insert = ChurnEvent::Insert { location: location.clone(), tuple: update.clone() };
            script = script.at(at, insert);
            if (w >> 32) % 2 == 0 {
                live.push((node, update));
            } else {
                let life = (1 + (w >> 40) % 16) * 250_000;
                script = script.at(at + life, ChurnEvent::Retract { location, tuple: update });
            }
        }

        let preds = ["routeUpdate", "updateCount", "alarm"];
        let churned = scenario_matches_stream_and_scratch(
            ROUTE_MONITOR, &config, &thresholds, &script, &live, &preds,
        );

        // The reference: a count of the live updates per group.
        let mut counts: BTreeMap<(usize, Value), i64> = BTreeMap::new();
        for (node, update) in live.iter().filter(|(_, t)| &*t.predicate == "routeUpdate") {
            *counts.entry((*node, update.values[1].clone())).or_default() += 1;
        }
        let row = |((node, dest), n): (&(usize, Value), &i64)| {
            (*node, vec![str_val(NODES[*node]), dest.clone(), Value::Int(*n)])
        };
        prop_assert_eq!(rows_of(&churned, "updateCount"), expected_rows(counts.iter().map(row)));
        let alarmed = counts.iter().filter(|((node, _), n)| **n as u64 > threshold(*node));
        prop_assert_eq!(rows_of(&churned, "alarm"), expected_rows(alarmed.map(row)));
    }

    /// Inbound link costs under random link churn — downs, some coming
    /// back up at a new cost: one `inbound` row per node with a live
    /// in-link, valued at the sum of their costs.
    #[test]
    fn summed_inbound_costs_are_exact(
        words in prop::collection::vec(any::<u64>(), 1..20),
        knobs in any::<u64>(),
    ) {
        let window = knobs % 3_000;
        let cap = 1 + ((knobs >> 16) % 5) as usize;
        let config = || {
            says_config(knobs >> 24)
                .with_batch_window_us(window)
                .with_max_batch_tuples(cap)
        };
        let link = |src: usize, dst: usize, cost: i64| {
            let values = vec![str_val(NODES[src]), str_val(NODES[dst]), Value::Int(cost)];
            (src, Tuple::new("link", values))
        };

        // One word per candidate link: endpoints, cost, and down / re-up
        // flags with the cost it comes back at.
        let mut initial: Vec<Fact> = Vec::new();
        let mut live: Vec<Fact> = Vec::new();
        let mut script = ChurnScript::new();
        let mut seen = HashMap::new();
        for (i, w) in words.iter().enumerate() {
            let (src, dst) = ((w % 4) as usize, ((w >> 8) % 4) as usize);
            if src == dst || seen.insert((src, dst), ()).is_some() {
                continue;
            }
            let (cost, new_cost) = (1 + (w >> 24) % 9, 1 + (w >> 28) % 9);
            initial.push(link(src, dst, cost as i64));
            let (down, up) = ((w >> 16) & 1 == 1, (w >> 17) & 1 == 1);
            let (at, src_v, dst_v) = (i as u64 * 1_000, str_val(NODES[src]), str_val(NODES[dst]));
            if down {
                script = script.link_down(5_000_000 + at, src_v.clone(), dst_v.clone());
            }
            if down && up {
                let event = ChurnEvent::LinkUp { src: src_v, dst: dst_v, cost: Some(new_cost as i64) };
                script = script.at(10_000_000 + at, event);
                live.push(link(src, dst, new_cost as i64));
            } else if !down {
                live.push(link(src, dst, cost as i64));
            }
        }
        prop_assume!(!initial.is_empty());

        let preds = ["link", "inLink", "inbound"];
        let churned = scenario_matches_stream_and_scratch(
            INBOUND, &config, &initial, &script, &live, &preds,
        );

        // The reference: a sum of the live in-link costs per node.
        let mut sums: BTreeMap<usize, i64> = BTreeMap::new();
        for (_, link) in &live {
            let dst = NODES.iter().position(|n| str_val(n) == link.values[1]).unwrap();
            *sums.entry(dst).or_default() += link.values[2].as_int().unwrap();
        }
        let rows = sums.iter().map(|(&dst, &sum)| (dst, vec![str_val(NODES[dst]), Value::Int(sum)]));
        prop_assert_eq!(rows_of(&churned, "inbound"), expected_rows(rows));
    }
}

/// The window the route monitor counts over is the facts' lifetimes: with
/// one update a second, each retracted 2.5 s later, the count climbs to 3,
/// settles and drains to nothing, one row per instant.
#[test]
fn a_count_goes_down_when_its_candidates_die() {
    let update = |id: i64| {
        let values = vec![str_val("a"), str_val("b"), Value::Int(id)];
        Tuple::new("routeUpdate", values)
    };
    let mut events = Vec::new();
    for id in 0..5 {
        let location = str_val("a");
        let at = SimTime::from_micros(id as u64 * 1_000_000);
        let retract = ChurnEvent::Retract {
            location: location.clone(),
            tuple: update(id),
        };
        events.push((
            at,
            ChurnEvent::Insert {
                location,
                tuple: update(id),
            },
        ));
        events.push((SimTime::from_micros(at.as_micros() + 2_500_000), retract));
    }
    events.sort_by_key(|(at, _)| *at);
    let threshold = (
        0,
        Tuple::new("threshold", vec![str_val("a"), Value::Int(2)]),
    );
    let mut engine = engine_with(ROUTE_MONITOR, EngineConfig::ndlog(), &[threshold]);
    let mut seen = Vec::new();
    for event in events {
        engine.run_streaming([event]).unwrap();
        let counts = engine.query(&str_val("a"), "updateCount");
        assert!(counts.len() <= 1, "one row per group: {counts:?}");
        seen.push(
            counts
                .first()
                .map_or(0, |(t, _)| t.values[2].as_int().unwrap()),
        );
    }
    assert_eq!(seen, [1, 2, 3, 2, 3, 2, 3, 2, 1, 0]);
    assert_eq!(engine.check_ledger_consistency(), Ok(()));
}
