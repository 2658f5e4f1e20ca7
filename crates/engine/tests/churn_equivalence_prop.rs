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

use pasn_datalog::Value;
use pasn_engine::{ChurnScript, DistributedEngine, EngineConfig, RunMetrics, Tuple};
use pasn_net::CostModel;
use pasn_provenance::ProvenanceKind;
use proptest::prelude::*;
use std::collections::HashMap;

mod common;
use common::{fixpoint_of, reach_engine, says_config, str_val, NODES};

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
        prop_assert_eq!(metrics.churn_events, script.len() as u64);
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
