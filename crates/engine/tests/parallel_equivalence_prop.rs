//! Property tests: sharded wave-parallel evaluation is bit-identical to
//! the sequential run.
//!
//! The worker pool is a pure execution strategy — partitioning the nodes,
//! evaluating a conservative same-instant wave concurrently, and replaying
//! the recorded effect logs in sequential order must not change a single
//! observable: not the fixpoint, not the derivation count, not a byte on
//! the wire, not even the simulated completion instant.  These properties
//! drive random topologies × batch knobs × `says` levels × cost models ×
//! churn scripts through worker counts {2, 4, 8} and demand an empty
//! `RunMetrics::diff` against the `workers = 1` baseline at
//! `Scope::Schedule` — every counter of the metrics table except the
//! `Layout` rows (worker-pool telemetry) and host time, which describe *how*
//! the run was executed and are exactly what is allowed to differ.

use pasn_datalog::Value;
use pasn_engine::{ChurnScript, DistributedEngine, EngineConfig, RunMetrics, Scope, Tuple};
use pasn_net::{CostModel, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

mod common;
use common::{decode_fact, fixpoint_of, says_config, str_val, REACHABLE};

// Ten nodes so every swept worker count {2, 4, 8} leaves several nodes on
// one partition — the multi-node-per-partition regime is where lane-order
// hazards live, and a deployment small enough to give each node its own
// partition cannot expose them.
const NODES: [&str; 10] = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"];

fn locations() -> Vec<Value> {
    NODES.iter().map(|n| str_val(n)).collect()
}

/// Per-node *insertion-ordered* fixpoints — the strong form: the parallel
/// run must store every tuple in the same order the sequential run did.
fn ordered_fixpoint_of(engine: &DistributedEngine, pred: &str) -> Vec<Vec<Tuple>> {
    locations()
        .iter()
        .map(|loc| {
            engine
                .query(loc, pred)
                .into_iter()
                .map(|(t, _)| t)
                .collect()
        })
        .collect()
}

/// Runs the reachability program over the fact stream with `workers`
/// evaluation threads and returns the finished engine plus its metrics.
fn run(
    facts: &[(usize, usize, u64)],
    config: EngineConfig,
    workers: usize,
) -> (DistributedEngine, RunMetrics) {
    let program = pasn_datalog::parse_program(REACHABLE).unwrap();
    let mut engine =
        DistributedEngine::new(&program, config.with_workers(workers), &locations()).unwrap();
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
    (engine, metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fact streams × batch knobs × `says` levels × cost models:
    /// every worker count reproduces the sequential run bit for bit —
    /// ordered fixpoint, all counters, and the simulated completion time.
    #[test]
    fn worker_pools_reproduce_the_sequential_run_bit_for_bit(
        words in prop::collection::vec(any::<u64>(), 1..24),
        knobs in any::<u64>(),
    ) {
        let facts: Vec<(usize, usize, u64)> = words.into_iter().map(|w| decode_fact(w, 10)).collect();
        let window = knobs % 3_000;
        let cap = 1 + ((knobs >> 16) % 5) as usize;
        // Half the cases run the paper's CPU/latency model so the claim
        // covers simulated time, not just counts.
        let config = || {
            let base = says_config(knobs >> 24)
                .with_batch_window_us(window)
                .with_max_batch_tuples(cap);
            if (knobs >> 40) & 1 == 1 {
                base.with_cost_model(CostModel::zero_cpu())
            } else {
                base
            }
        };

        let (sequential, baseline) = run(&facts, config(), 1);
        let want_ordered = ordered_fixpoint_of(&sequential, "reachable");
        prop_assert_eq!(baseline.worker_threads, 1);
        prop_assert_eq!(baseline.partitions, 1);
        prop_assert_eq!(baseline.cross_partition_frames, 0);

        for workers in [2usize, 4, 8] {
            let (parallel, metrics) = run(&facts, config(), workers);
            prop_assert_eq!(
                ordered_fixpoint_of(&parallel, "reachable"),
                want_ordered.clone(),
                "ordered fixpoint diverged at {} workers (window {}, cap {})",
                workers, window, cap
            );
            prop_assert_eq!(
                metrics.diff(&baseline, Scope::Schedule),
                vec![],
                "counters diverged at {} workers (window {}, cap {})",
                workers, window, cap
            );
            prop_assert_eq!(metrics.worker_threads, workers as u64);
            prop_assert!(metrics.partitions >= 1);
            prop_assert!(metrics.partitions <= workers as u64);
        }
    }

    /// Churn scripts force the scheduler back onto the sequential path
    /// (dynamics work never wave-parallelises), so a worker pool must be
    /// observationally invisible there too: same retractions, same
    /// rederivations, same everything.
    #[test]
    fn churned_runs_are_worker_count_invariant(
        words in prop::collection::vec(any::<u64>(), 1..16),
        knobs in any::<u64>(),
    ) {
        let mut links: Vec<(usize, usize)> = Vec::new();
        let mut down: HashMap<(usize, usize), bool> = HashMap::new();
        for w in words {
            let link = ((w % 10) as usize, ((w >> 8) % 10) as usize);
            if link.0 == link.1 || down.contains_key(&link) {
                continue;
            }
            links.push(link);
            down.insert(link, (w >> 16) & 1 == 1);
        }
        prop_assume!(!links.is_empty());
        let window = knobs % 2_000;
        let config = || {
            says_config(knobs >> 24)
                .with_cost_model(CostModel::zero_cpu())
                .with_batch_window_us(window)
                .with_dynamics()
        };

        let mut script = ChurnScript::new();
        for (i, link) in links.iter().enumerate() {
            if down[link] {
                script = script.link_down(
                    5_000_000 + i as u64 * 1_000,
                    str_val(NODES[link.0]),
                    str_val(NODES[link.1]),
                );
            }
        }

        let build = |workers: usize| {
            let program = pasn_datalog::parse_program(REACHABLE).unwrap();
            let mut engine = DistributedEngine::new(
                &program,
                config().with_workers(workers),
                &locations(),
            )
            .unwrap();
            for &(src, dst) in &links {
                engine
                    .insert_fact(
                        str_val(NODES[src]),
                        Tuple::new("link", vec![str_val(NODES[src]), str_val(NODES[dst])]),
                    )
                    .unwrap();
            }
            let metrics = engine.run_scenario(&script).unwrap();
            (engine, metrics)
        };

        let (sequential, baseline) = build(1);
        let want_link = fixpoint_of(&sequential, "link");
        let want_reach = fixpoint_of(&sequential, "reachable");

        for workers in [2usize, 4, 8] {
            let (parallel, metrics) = build(workers);
            prop_assert_eq!(fixpoint_of(&parallel, "link"), want_link.clone());
            prop_assert_eq!(
                fixpoint_of(&parallel, "reachable"),
                want_reach.clone(),
                "churned fixpoint diverged at {} workers (window {})",
                workers, window
            );
            prop_assert_eq!(
                metrics.diff(&baseline, Scope::Schedule),
                vec![],
                "churned counters diverged at {} workers (window {})",
                workers, window
            );
        }
    }
}
