//! Property tests: the streaming driver is schedule-exact.
//!
//! `DistributedEngine::run_streaming` pulls churn events from an iterator
//! and injects each one only once the queue has drained up to that event's
//! scenario cut, instead of materialising the whole script in the work
//! queue up front.  The claim is not merely that both drivers converge to
//! equivalent fixpoints — it is that they execute the *same schedule*:
//! identical insertion-ordered stores at every node, and an empty
//! `RunMetrics::diff` at `Scope::Schedule` (every schedule counter of the
//! metrics table), across says levels × batch knobs × churn scripts ×
//! soft-state TTLs.

use pasn_engine::{ChurnScript, EngineConfig, Scope};
use proptest::prelude::*;
use std::collections::HashMap;

mod common;
use common::{ordered_fixpoint_of, reach_engine, says_config, str_val, NODES};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming injection reproduces the batch scenario bit for bit:
    /// same insertion-ordered stores, same counters.
    #[test]
    fn streaming_matches_batch_scenario_exactly(
        words in prop::collection::vec(any::<u64>(), 1..20),
        knobs in any::<u64>(),
    ) {
        // One word per candidate link: endpoints plus down / re-up flags.
        let mut initial: Vec<(usize, usize)> = Vec::new();
        let mut flags: HashMap<(usize, usize), (bool, bool)> = HashMap::new();
        for w in &words {
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
        // A TTL on one case in four exercises mid-run soft-state expiry —
        // the generational shape the streaming driver exists for.
        let ttl = if (knobs >> 33) & 3 == 0 { Some(7_000_000u64) } else { None };
        let config = || {
            let mut c = says_config(knobs >> 24)
                .with_batch_window_us(window)
                .with_max_batch_tuples(cap);
            if let Some(ttl) = ttl {
                c = c.with_default_ttl_us(ttl);
            }
            c
        };

        let mut script = ChurnScript::new();
        for (i, link) in initial.iter().enumerate() {
            let (down, up) = flags[link];
            if down {
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

        let mut batch = reach_engine(config(), &initial);
        let batch_metrics = batch.run_scenario(&script).unwrap();

        // Streaming requires time order; a *stable* sort keeps script order
        // on same-instant ties, which is exactly the scenario's seq-based
        // tiebreak for scripted events.
        let mut events = script.events().to_vec();
        events.sort_by_key(|(at, _)| *at);

        let mut streaming = reach_engine(config(), &initial);
        let streaming_metrics = streaming.run_streaming(events).unwrap();

        for pred in ["link", "reachable"] {
            prop_assert_eq!(
                ordered_fixpoint_of(&streaming, pred),
                ordered_fixpoint_of(&batch, pred),
                "{} diverged (window {} cap {} ttl {:?})",
                pred,
                window,
                cap,
                ttl
            );
        }
        prop_assert_eq!(streaming_metrics.diff(&batch_metrics, Scope::Schedule), vec![]);
        prop_assert_eq!(streaming_metrics.churn_events, script.events().len() as u64);
        // The sampled peaks must dominate the final footprint.
        prop_assert!(
            streaming_metrics.peak_store_bytes >= streaming_metrics.store_bytes
        );
        prop_assert!(
            streaming_metrics.peak_index_bytes >= streaming_metrics.index_bytes
        );
        // Both drivers reclaim at the same work items: the ledger gauge is
        // part of the empty diff above, and what is left is well-formed.
        prop_assert_eq!(streaming.check_ledger_consistency(), Ok(()));
        prop_assert_eq!(batch.check_ledger_consistency(), Ok(()));
    }
}

/// Out-of-order streams are rejected up front rather than silently
/// reordered (silent reordering would break the scenario-cut equivalence).
#[test]
fn streaming_rejects_time_disordered_events() {
    let mut engine = reach_engine(EngineConfig::ndlog(), &[(0, 1)]);
    let events = vec![
        (
            pasn_net::SimTime::from_micros(5_000_000),
            pasn_engine::ChurnEvent::LinkDown {
                src: str_val("a"),
                dst: str_val("b"),
            },
        ),
        (
            pasn_net::SimTime::from_micros(4_000_000),
            pasn_engine::ChurnEvent::LinkUp {
                src: str_val("a"),
                dst: str_val("b"),
                cost: None,
            },
        ),
    ];
    let err = engine.run_streaming(events).unwrap_err();
    assert!(err.to_string().contains("time-ordered"), "{err}");
}
