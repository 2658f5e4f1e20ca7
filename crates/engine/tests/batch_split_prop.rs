//! Property test: any batching of a delta stream converges to the
//! tuple-at-a-time fixpoint.
//!
//! A random stream of `link` facts (random edges, random insertion times)
//! is run through the reachability program twice — once per-tuple
//! (`batch_window = 0`, the seed semantics) and once with a random batch
//! window and frame cap — and both runs must reach the identical fixpoint:
//! same tuples at every node, same totals, one signature per frame.

use pasn_engine::{DistributedEngine, EngineConfig, Tuple};
use pasn_net::{CostModel, SimTime};
use proptest::prelude::*;

mod common;
use common::{decode_fact, locations, str_val, NODES, REACHABLE};

/// Runs the reachability program over the fact stream with one config and
/// returns (metrics, per-node sorted reachable sets).
fn run(
    facts: &[(usize, usize, u64)],
    config: EngineConfig,
) -> (pasn_engine::RunMetrics, Vec<Vec<Tuple>>) {
    let program = pasn_datalog::parse_program(REACHABLE).unwrap();
    let locations = locations();
    let mut engine = DistributedEngine::new(
        &program,
        config.with_cost_model(CostModel::zero_cpu()),
        &locations,
    )
    .unwrap();
    for &(src, dst, at) in facts {
        if src == dst {
            continue; // self-loops add nothing
        }
        engine
            .insert_fact_at(
                str_val(NODES[src]),
                Tuple::new("link", vec![str_val(NODES[src]), str_val(NODES[dst])]),
                SimTime::from_micros(at),
            )
            .unwrap();
    }
    let metrics = engine.run_to_fixpoint().unwrap();
    let fixpoint = locations
        .iter()
        .map(|loc| {
            let mut rows: Vec<Tuple> = engine
                .query(loc, "reachable")
                .into_iter()
                .map(|(t, _)| t)
                .collect();
            rows.sort_by_key(|t| t.to_string());
            rows
        })
        .collect();
    (metrics, fixpoint)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random batch splits of the delta stream — any window, any frame cap —
    /// converge to the per-tuple fixpoint.
    #[test]
    fn random_batch_splits_converge_to_the_per_tuple_fixpoint(
        words in prop::collection::vec(any::<u64>(), 1..24),
        knobs in any::<u64>(),
    ) {
        let facts: Vec<(usize, usize, u64)> = words.into_iter().map(|w| decode_fact(w, 4)).collect();
        let window = 1 + knobs % 3_000;
        let max_batch = 1 + ((knobs >> 16) % 5) as usize;

        let (baseline, want) = run(&facts, EngineConfig::sendlog());
        let (batched, got) = run(
            &facts,
            EngineConfig::sendlog()
                .with_batch_window_us(window)
                .with_max_batch_tuples(max_batch),
        );

        prop_assert_eq!(got, want, "fixpoint diverged (window {}, cap {})", window, max_batch);
        prop_assert_eq!(batched.tuples_stored, baseline.tuples_stored);
        // Seq-capped visibility makes every (rule, partner set) fire exactly
        // once regardless of how the stream is split into batches.
        prop_assert_eq!(batched.derivations, baseline.derivations);
        // Frames are signed and verified once each, and batching never
        // ships more tuples than per-tuple evaluation did.
        prop_assert_eq!(batched.signatures, batched.frames);
        prop_assert_eq!(batched.verifications, batched.frames);
        prop_assert!(batched.frames <= batched.batched_tuples);
        prop_assert!(batched.batched_tuples <= baseline.messages);
        prop_assert_eq!(batched.verification_failures, 0);
    }
}
