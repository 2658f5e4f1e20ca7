//! Property test: session-keyed channels are a pure crypto substitution.
//!
//! A random stream of `link` facts (random edges, random insertion times)
//! is run through the reachability program under a random batching
//! configuration twice — once with per-frame RSA signatures
//! (`SaysLevel::Rsa`) and once over session channels
//! (`SaysLevel::Session`, including a random rebind horizon) — and both
//! runs must reach the identical fixpoint: same tuples in the same
//! insertion order at every node, same derivation counts, and the exact
//! same frame stream.  Only the crypto operation mix may differ: the
//! session run performs exactly `handshakes` RSA signs (one per live
//! directed link per epoch) instead of one per frame.

use pasn_engine::{ChurnEvent, ChurnScript, DistributedEngine, EngineConfig, Tuple};
use pasn_net::{CostModel, SimTime};
use proptest::prelude::*;

mod common;
use common::{decode_fact, locations, str_val, NODES, REACHABLE};

/// Runs the reachability program over the fact stream with one config and
/// returns (metrics, per-node insertion-ordered reachable sets).
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
    assert_eq!(engine.check_link_consistency(), Ok(()));
    let fixpoint = locations
        .iter()
        .map(|loc| {
            engine
                .query(loc, "reachable")
                .into_iter()
                .map(|(t, _)| t)
                .collect()
        })
        .collect();
    (metrics, fixpoint)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random topology × random batching knobs × {Rsa, Session}: the same
    /// fixpoint, derivations and frame stream, with RSA amortised to the
    /// handshake count.
    #[test]
    fn session_channels_match_the_rsa_level_bit_for_bit(
        words in prop::collection::vec(any::<u64>(), 1..24),
        knobs in any::<u64>(),
    ) {
        let facts: Vec<(usize, usize, u64)> = words.into_iter().map(|w| decode_fact(w, 4)).collect();
        let window = knobs % 3_000; // 0 = per-tuple frames
        let max_batch = 1 + ((knobs >> 16) % 5) as usize;
        let rebind = 1 + (knobs >> 32) % 64;
        let batching = |config: EngineConfig| {
            config
                .with_batch_window_us(window)
                .with_max_batch_tuples(max_batch)
        };

        let (rsa, want) = run(&facts, batching(EngineConfig::sendlog()));
        let (session, got) = run(
            &facts,
            batching(EngineConfig::sendlog_session()).with_channel_rebind_frames(rebind),
        );

        // Identical evaluation: fixpoint (in insertion order), derivation
        // counts, stored tuples, and the exact same frame stream.
        prop_assert_eq!(got, want, "fixpoint diverged (window {}, cap {}, rebind {})",
            window, max_batch, rebind);
        prop_assert_eq!(session.derivations, rsa.derivations);
        prop_assert_eq!(session.tuples_stored, rsa.tuples_stored);
        prop_assert_eq!(session.frames, rsa.frames);
        prop_assert_eq!(session.batched_tuples, rsa.batched_tuples);

        // Only the crypto mix differs: every frame still carries one proof
        // and passes one verification, but RSA work equals the handshake
        // count (one per live directed link per epoch) instead of the frame
        // count, and frames ride HMACs.
        prop_assert_eq!(session.signatures, session.frames);
        prop_assert_eq!(session.verifications, session.frames);
        prop_assert_eq!(session.verification_failures, 0);
        prop_assert_eq!(session.rsa_sign_ops, session.handshakes);
        prop_assert_eq!(session.rsa_verify_ops, session.handshakes);
        prop_assert_eq!(rsa.rsa_sign_ops, rsa.frames);
        prop_assert_eq!(rsa.handshakes, 0);
        prop_assert!(session.handshakes <= session.frames.max(1));
        if session.frames > 0 {
            prop_assert!(session.handshakes > 0);
            prop_assert!(session.hmac_ops >= 2 * session.frames);
            // Handshake messages ride the same wire, on top of the frames.
            prop_assert_eq!(session.messages, session.frames + session.handshakes);
        }
    }
}

/// Regression (found by `config_swarm_prop`): with every frame rebinding
/// its link and zero CPU cost, a link's rebind handshake arrives in the
/// same wave as the frame MAC'd under the epoch it replaces.  Coalesced
/// ahead of that frame, it made the receiver refuse it, and `d` never
/// learned `reachable(d,d)`.
#[test]
fn a_rebind_never_overtakes_a_frame_of_its_own_link() {
    let facts = [(1, 3, 0), (0, 2, 0), (1, 2, 0), (3, 2, 0), (3, 1, 0)];
    let (rsa, want) = run(&facts, EngineConfig::sendlog());
    let session = EngineConfig::sendlog_session().with_channel_rebind_frames(1);
    let (session, got) = run(&facts, session);
    assert_eq!(got, want);
    assert_eq!(session.verification_failures, 0);
    assert_eq!(session.verifications, rsa.verifications);
}

/// Regression (found by `config_swarm_prop`): same-instant work runs
/// retractions after wave-safe work, so a rebind handshake that tied with
/// the tombstones sealed before it on its link was installed first, and
/// the receiver refused the tombstones MAC'd under the old epoch.  The
/// handshake now lands a microsecond after them.
#[test]
fn a_rebind_never_overtakes_a_tombstone_of_its_own_link() {
    let program = pasn_datalog::parse_program(REACHABLE).unwrap();
    let config = EngineConfig::sendlog_session()
        .with_channel_rebind_frames(5)
        .with_cost_model(CostModel::zero_cpu());
    let mut engine = DistributedEngine::new(&program, config, &locations()).unwrap();
    for (src, dst) in [(1, 0), (0, 2), (2, 1)] {
        let link = Tuple::new("link", vec![str_val(NODES[src]), str_val(NODES[dst])]);
        engine.insert_fact(str_val(NODES[src]), link).unwrap();
    }
    let (a, c) = (str_val("a"), str_val("c"));
    let cut = ChurnEvent::LinkCut { src: a, dst: c };
    let metrics = engine
        .run_scenario(&ChurnScript::new().at(6_001_000, cut))
        .unwrap();
    assert!(metrics.tombstone_frames > 0 && metrics.handshakes > 3);
    assert_eq!(metrics.verification_failures, 0);
    assert_eq!(metrics.verifications, metrics.frames);
    assert_eq!(engine.check_ledger_consistency(), Ok(()));
}

/// Regression (found by `config_swarm_prop`): on a reliable transport a
/// link cut evicted the channel at once, under the tombstones an earlier
/// cut's cascade still had in flight on it, and the receiver refused them.
/// A reliable cut now tears the channel down after they arrive.
#[test]
fn a_cut_on_a_reliable_link_lets_its_frames_arrive() {
    let program = pasn_datalog::parse_program(REACHABLE).unwrap();
    let config = EngineConfig::sendlog_session().with_cost_model(CostModel::zero_cpu());
    let mut engine = DistributedEngine::new(&program, config, &locations()).unwrap();
    for (src, dst) in [(3, 2), (0, 2), (2, 3)] {
        let link = Tuple::new("link", vec![str_val(NODES[src]), str_val(NODES[dst])]);
        engine.insert_fact(str_val(NODES[src]), link).unwrap();
    }
    let (a, c, d) = (str_val("a"), str_val("c"), str_val("d"));
    let script = ChurnScript::new()
        .link_down(5_001_000, a, c.clone())
        .at(
            6_000_000,
            ChurnEvent::LinkCut {
                src: d.clone(),
                dst: c.clone(),
            },
        )
        .at(6_002_000, ChurnEvent::LinkCut { src: c, dst: d });
    let metrics = engine.run_scenario(&script).unwrap();
    assert!(metrics.tombstone_frames > 0);
    assert_eq!(metrics.verification_failures, 0);
    assert_eq!(metrics.verifications, metrics.frames);
    assert_eq!(engine.check_ledger_consistency(), Ok(()));
}
