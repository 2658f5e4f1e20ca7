//! Property tests: the unreliable-network mode is exact.
//!
//! 1. **Lossy re-convergence** — for random topologies × seeded fault
//!    plans (per-link drop / duplicate / delay, plus a crash-style link
//!    cut that discards in-flight frames) × random `says` levels × batch
//!    knobs, the lossy run's fixpoint equals a from-scratch
//!    *reliable* evaluation of the surviving topology: identical tuple
//!    sets (canonically ordered) at every node and identical totals.
//! 2. **Counter determinism** — re-running the same seeded plan yields
//!    bit-identical fault counters (drops, duplicates, retransmits, acks,
//!    backoffs), because every transport decision is a pure function of
//!    `(seed, link, frame seq, attempt)`.
//! 3. **Retry-budget exhaustion** — under sustained total loss with bursts
//!    longer than the retry budget, every data frame exhausts its budget,
//!    is reconciled as a cut-link casualty, and the run terminates with no
//!    row anywhere that only a lost frame could have delivered.
//! 4. **Aggregate re-election** — retracting the tuple that carried the
//!    current `a_MIN` best under churn converges to the surviving
//!    candidates' best (the stale-best-on-deletion regression).

use pasn_datalog::Value;
use pasn_engine::{ChurnScript, DistributedEngine, EngineConfig, RunMetrics, Scope, Tuple};
use pasn_net::{CostModel, FaultPlan, NodeId};
use proptest::prelude::*;
use std::collections::HashMap;

mod common;
use common::{fixpoint_of, locations, reach_engine, says_config, str_val, NODES};

/// Runs one lossy scenario and its reliable from-scratch counterpart and
/// asserts the fixpoints agree; returns the lossy metrics.
fn assert_lossy_matches_reliable(
    config: impl Fn() -> EngineConfig,
    initial: &[(usize, usize)],
    surviving: &[(usize, usize)],
    plan: FaultPlan,
) -> RunMetrics {
    let mut lossy = reach_engine(config().with_fault_plan(plan), initial);
    let metrics = lossy.run_to_fixpoint().unwrap();
    let mut fresh = reach_engine(config(), surviving);
    let fresh_metrics = fresh.run_to_fixpoint().unwrap();
    assert_eq!(fixpoint_of(&lossy, "link"), fixpoint_of(&fresh, "link"));
    assert_eq!(
        fixpoint_of(&lossy, "reachable"),
        fixpoint_of(&fresh, "reachable")
    );
    assert_eq!(metrics.tuples_stored, fresh_metrics.tuples_stored);
    assert_eq!(metrics.verification_failures, 0);
    assert_eq!(lossy.check_ledger_consistency(), Ok(()));
    assert_eq!(lossy.check_link_consistency(), Ok(()));
    metrics
}

/// Every `says` level under `seed`, then under a second fault schedule:
/// whichever frames die, the lossy fixpoint is the reliable one.
fn levels_and_seeds(seed: u64) -> impl Iterator<Item = (u64, u64)> {
    let seeds = [seed, 987_654_321].into_iter();
    seeds.flat_map(|seed| (0..3).map(move |says| (says, seed)))
}

/// Dense 4-node topology, default lossy plan (6% drop, 2% duplicate, 3%
/// delayed) plus a crash-style link cut: every `says` level re-converges
/// bit-identically to the reliable fixpoint of the surviving topology, with
/// deterministic counters across repeat runs.
#[test]
fn seeded_fault_plan_reconverges_bit_identically() {
    let initial: Vec<(usize, usize)> = vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)];
    let surviving: Vec<(usize, usize)> =
        initial.iter().filter(|&&l| l != (0, 2)).copied().collect();
    for (says, seed) in levels_and_seeds(7) {
        let config = || says_config(says);
        let plan = || FaultPlan::new(seed).cut_link(5_000_000, 0, 2);
        let first = assert_lossy_matches_reliable(config, &initial, &surviving, plan());
        let second = assert_lossy_matches_reliable(config, &initial, &surviving, plan());
        assert!(
            first.frames_dropped > 0,
            "plan never dropped a frame (says {says})"
        );
        assert!(
            first.retransmits > 0,
            "drops without retransmissions (says {says})"
        );
        // The retry budget bounds the worst per-frame retransmit count.
        assert!(first.max_retransmit_per_frame < u64::from(pasn_engine::DEFAULT_RETRY_BUDGET));
        assert_eq!(
            first.diff(&second, Scope::Layout),
            vec![],
            "same-seed counters diverged (says {says})"
        );
    }
}

/// A crash that takes a whole node down (discarding everything in flight
/// to and from it) re-converges to the reliable fixpoint without the
/// node's base tuples.
#[test]
fn node_crash_without_drain_reconverges() {
    let initial: Vec<(usize, usize)> = vec![(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)];
    // Node b (index 1) crashes: its own link tuples die with it.
    let surviving: Vec<(usize, usize)> =
        initial.iter().filter(|&&(s, _)| s != 1).copied().collect();
    for (says, seed) in levels_and_seeds(11) {
        let config = || says_config(says);
        let plan = FaultPlan::new(seed).crash_node(5_000_000, 1);
        let mut lossy = reach_engine(config().with_fault_plan(plan), &initial);
        let metrics = lossy.run_to_fixpoint().unwrap();
        let mut fresh = reach_engine(config(), &surviving);
        fresh.run_to_fixpoint().unwrap();
        assert_eq!(
            fixpoint_of(&lossy, "reachable"),
            fixpoint_of(&fresh, "reachable"),
            "says {says}"
        );
        assert_eq!(metrics.verification_failures, 0);
    }
}

/// The transport edge bounded loss bursts never reach: a plan that drops
/// *every* attempt of every data frame, with bursts allowed to outlast the
/// retry budget.  Each frame must burn exactly its budget of
/// retransmissions, die, and be reconciled like a cut-link casualty — the
/// run terminates instead of livelocking, and each node ends up holding
/// only what it derived itself (nothing rests on a frame that never
/// arrived).  At the `Session` and `Rsa` levels.
#[test]
fn sustained_loss_exhausts_the_retry_budget_and_terminates() {
    let budget = u64::from(pasn_engine::DEFAULT_RETRY_BUDGET);
    let links: Vec<(usize, usize)> = vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)];
    for base in [EngineConfig::sendlog_session, EngineConfig::sendlog] {
        let mut plan = FaultPlan::lossless(7).with_drop_per_mille(1000);
        plan.max_consecutive_drops = u8::MAX;
        let config = base().with_batching();
        let mut engine = reach_engine(config.with_fault_plan(plan), &links);
        let m = engine.run_to_fixpoint().unwrap();

        // Every data frame was offered `budget` times (the original send
        // plus budget − 1 re-rolls, all dropped) and abandoned when its
        // budget-th timer fired; none was ever delivered, so the only acks
        // answer the (reliable, control-plane) channel handshakes.
        assert!(m.frames > 0, "the topology must ship frames");
        assert_eq!(m.max_retransmit_per_frame, budget);
        assert_eq!(m.retransmits, m.frames * budget);
        assert_eq!(m.frames_dropped, m.frames * budget);
        assert_eq!(m.backoff_events, m.frames * (budget - 1));
        assert_eq!(m.verifications, 0);
        assert!(m.acks <= m.handshakes, "{} acks", m.acks);
        assert_eq!(m.verification_failures, 0);

        // No row anywhere was delivered by a frame: every stored tuple
        // originates at the node storing it, and reachability is exactly
        // each node's own links.
        let predicates: Vec<String> = engine
            .compiled()
            .symbols
            .iter()
            .map(|(_, name)| name.to_string())
            .collect();
        for (i, loc) in locations().iter().enumerate() {
            for pred in &predicates {
                for (tuple, meta) in engine.query(loc, pred) {
                    let here = NodeId(i as u32);
                    assert_eq!(meta.origin, here, "{tuple} at {loc} rode a dead frame");
                }
            }
            let own_links = links.iter().filter(|(src, _)| *src == i).count();
            assert_eq!(engine.query(loc, "link").len(), own_links);
            assert_eq!(engine.query(loc, "reachable").len(), own_links);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random topology × seeded fault plan × `says` level × batch window:
    /// the lossy fixpoint is the reliable fixpoint of the
    /// surviving topology, and same-seed counters are deterministic.
    #[test]
    fn lossy_equivalence_prop(
        words in prop::collection::vec(any::<u64>(), 1..20),
        knobs in any::<u64>(),
    ) {
        // One word per candidate link: endpoints plus a cut flag.
        let mut initial: Vec<(usize, usize)> = Vec::new();
        let mut cut: HashMap<(usize, usize), bool> = HashMap::new();
        for w in words {
            let link = ((w % 4) as usize, ((w >> 8) % 4) as usize);
            if link.0 == link.1 || cut.contains_key(&link) {
                continue;
            }
            initial.push(link);
            cut.insert(link, (w >> 16) & 1 == 1);
        }
        prop_assume!(!initial.is_empty());
        let seed = knobs ^ 0x9e37_79b9_7f4a_7c15;
        let window = knobs % 3_000;
        let config = || says_config(knobs >> 24).with_batch_window_us(window);
        let plan = || {
            let mut plan = FaultPlan::new(seed);
            for (i, link) in initial.iter().enumerate() {
                if cut[link] {
                    plan = plan.cut_link(
                        5_000_000 + i as u64 * 1_000,
                        link.0 as u32,
                        link.1 as u32,
                    );
                }
            }
            plan
        };
        let surviving: Vec<(usize, usize)> = initial
            .iter()
            .filter(|link| !cut[*link])
            .copied()
            .collect();

        let mut lossy = reach_engine(config().with_fault_plan(plan()), &initial);
        let metrics = lossy.run_to_fixpoint().unwrap();
        let mut fresh = reach_engine(config(), &surviving);
        let fresh_metrics = fresh.run_to_fixpoint().unwrap();

        prop_assert_eq!(fixpoint_of(&lossy, "link"), fixpoint_of(&fresh, "link"));
        prop_assert_eq!(
            fixpoint_of(&lossy, "reachable"),
            fixpoint_of(&fresh, "reachable"),
            "seed {} window {}",
            seed,
            window
        );
        prop_assert_eq!(metrics.tuples_stored, fresh_metrics.tuples_stored);
        prop_assert_eq!(metrics.verification_failures, 0);

        // Same seed, same decisions: counters are bit-identical.
        let mut again = reach_engine(config().with_fault_plan(plan()), &initial);
        let again_metrics = again.run_to_fixpoint().unwrap();
        prop_assert_eq!(metrics.diff(&again_metrics, Scope::Layout), vec![]);
        prop_assert_eq!(lossy.check_ledger_consistency(), Ok(()));
        prop_assert_eq!(lossy.check_link_consistency(), Ok(()));
    }
}

/// The stale-best-on-deletion regression: retracting the `link` tuple
/// carrying the current `a_MIN` best path mid-run re-elects the surviving
/// next-best, matching the from-scratch fixpoint of the final topology.
#[test]
fn retracting_the_current_best_reelects_the_next_best() {
    let best_path = "
        sp1 path(@S,D,P,C) :- link(@S,D,C), P := f_init(S,D).
        sp2 path(@S,D,P,C) :- link(@S,Z,C1), bestPathCost(@Z,D,C2), C := C1 + C2, P := f_init(S,D).
        sp3 bestPathCost(@S,D,a_MIN<C>) :- path(@S,D,P,C).
    ";
    let program = pasn_datalog::parse_program(best_path).unwrap();
    // Two routes a→c: direct (cost 1, the best) and via b (cost 2 + 3).
    let links: Vec<(usize, usize, i64)> = vec![(0, 2, 1), (0, 1, 2), (1, 2, 3)];
    let build = |drop_best: bool| {
        let mut engine = DistributedEngine::new(
            &program,
            EngineConfig::ndlog()
                .with_cost_model(CostModel::zero_cpu())
                .with_dynamics(),
            &locations(),
        )
        .unwrap();
        for &(src, dst, cost) in &links {
            if drop_best && (src, dst) == (0, 2) {
                continue;
            }
            engine
                .insert_fact(
                    str_val(NODES[src]),
                    Tuple::new(
                        "link",
                        vec![str_val(NODES[src]), str_val(NODES[dst]), Value::Int(cost)],
                    ),
                )
                .unwrap();
        }
        engine
    };

    // Retract the best route mid-run: the a→c best must fall back to 5.
    let script = ChurnScript::new().at(
        5_000_000,
        pasn_engine::ChurnEvent::Retract {
            location: str_val("a"),
            tuple: Tuple::new("link", vec![str_val("a"), str_val("c"), Value::Int(1)]),
        },
    );
    let mut churned = build(false);
    churned.run_scenario(&script).unwrap();
    let mut fresh = build(true);
    fresh.run_to_fixpoint().unwrap();

    let best_of = |engine: &DistributedEngine| -> Vec<(Value, i64)> {
        let mut rows: Vec<(Value, i64)> = engine
            .query(&str_val("a"), "bestPathCost")
            .into_iter()
            .map(|(t, _)| (t.values[1].clone(), t.values[2].as_int().unwrap()))
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(best_of(&churned), best_of(&fresh));
    assert!(
        best_of(&churned)
            .iter()
            .any(|(d, c)| *d == str_val("c") && *c == 5),
        "a→c best did not fall back to the surviving route: {:?}",
        best_of(&churned)
    );
    assert_eq!(
        fixpoint_of(&churned, "bestPathCost"),
        fixpoint_of(&fresh, "bestPathCost")
    );
}
