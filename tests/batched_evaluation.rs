//! Integration tests for batched delta evaluation and signed multi-tuple
//! shipment frames.
//!
//! Three claims are pinned down here: (a) `batch_window = 0` reproduces the
//! seed's per-tuple evaluation bit for bit (the hardcoded counters below
//! were captured from the pre-batching engine); (b) with batching enabled,
//! every frame is signed exactly once and frames undercut the per-tuple
//! message count while the fixpoint is unchanged; and (c) duplicate head
//! tuples inside one pending frame are deduplicated before signing.

use pasn::prelude::*;
use pasn_net::SimTime;

const REACHABLE: &str = "
    r1 reachable(@S,D) :- link(@S,D).
    r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
";

fn str_val(s: &str) -> Value {
    Value::Str(s.into())
}

/// The paper's Figure 1 deployment (`a → b → c`, `a → c`) with a given
/// configuration (zero-CPU cost model so only transport shapes the clock).
fn figure1(config: EngineConfig) -> SecureNetwork {
    let mut builder = SecureNetwork::builder()
        .program_text(REACHABLE)
        .unwrap()
        .locations(vec![str_val("a"), str_val("b"), str_val("c")])
        .config(config.with_cost_model(CostModel::zero_cpu()));
    for (l, s, d) in [("a", "a", "b"), ("a", "a", "c"), ("b", "b", "c")] {
        builder = builder.fact(str_val(l), Tuple::new("link", vec![str_val(s), str_val(d)]));
    }
    builder.build().unwrap()
}

fn ordered(net: &SecureNetwork, loc: &str, predicate: &str) -> Vec<String> {
    net.engine()
        .query(&str_val(loc), predicate)
        .into_iter()
        .map(|(t, _)| t.to_string())
        .collect()
}

/// (a) Per-tuple mode (`batch_window = 0`, the default) matches the seed
/// engine's counters and insertion orderings exactly, across all three
/// system variants.  The expected values were captured from the pre-frame
/// tuple-at-a-time evaluator on this exact workload.
#[test]
fn batch_window_zero_matches_seed_counters_and_orderings() {
    // (variant, bytes, auth_bytes, provenance_bytes, signatures, prov_ops)
    let expected = [
        (EngineConfig::ndlog(), 276, 0, 0, 0, 0),
        (EngineConfig::sendlog(), 560, 284, 0, 4, 0),
        (EngineConfig::sendlog_prov(), 588, 284, 28, 4, 18),
    ];
    for (config, bytes, auth, prov, sigs, prov_ops) in expected {
        assert_eq!(config.batch_window_us, 0, "per-tuple is the default");
        let mut net = figure1(config);
        let m = net.engine_mut().run_to_fixpoint().unwrap();
        assert_eq!(m.completion, SimTime::from_micros(2_000));
        assert_eq!(m.messages, 4);
        assert_eq!(m.bytes, bytes);
        assert_eq!(m.auth_bytes, auth);
        assert_eq!(m.provenance_bytes, prov);
        assert_eq!(m.derivations, 7);
        assert_eq!(m.tuples_stored, 9);
        assert_eq!(m.signatures, sigs);
        assert_eq!(m.verifications, sigs);
        assert_eq!(m.provenance_ops, prov_ops);
        assert_eq!((m.index_probes, m.index_hits, m.scan_probes), (6, 1, 0));
        assert_eq!((m.store_bytes, m.index_bytes), (282, 72));
        // Every frame carries exactly one tuple, one per message.
        assert_eq!(m.frames, 4);
        assert_eq!(m.batched_tuples, 4);
        assert_eq!(m.mean_batch_occupancy(), 1.0);
        // Insertion orderings are the seed's, byte for byte.
        assert_eq!(
            ordered(&net, "a", "reachable"),
            vec!["reachable(a,b)", "reachable(a,c)"]
        );
        assert_eq!(ordered(&net, "b", "reachable"), vec!["reachable(b,c)"]);
        assert!(ordered(&net, "c", "reachable").is_empty());
    }
}

/// (b) Batching signs once per frame: `signatures == frames`, frames
/// undercut the per-tuple message count, bandwidth drops, and the fixpoint
/// tuple sets are unchanged on every node.
#[test]
fn batched_frames_amortise_signatures_without_changing_the_fixpoint() {
    // A 6-node ring: the transitive closure keeps re-deriving through every
    // node, so each node ships several tuples per window.
    let ring = |config: EngineConfig| {
        SecureNetwork::builder()
            .program_text(REACHABLE)
            .unwrap()
            .topology(Topology::ring(6))
            .config(config.with_cost_model(CostModel::zero_cpu()))
            .build()
            .unwrap()
    };
    let mut per_tuple = ring(EngineConfig::sendlog());
    let baseline = per_tuple.engine_mut().run_to_fixpoint().unwrap();

    let mut batched = ring(EngineConfig::sendlog().with_batching());
    let m = batched.engine_mut().run_to_fixpoint().unwrap();

    assert_eq!(m.signatures, m.frames);
    assert_eq!(m.verifications, m.frames);
    assert!(
        m.frames < baseline.messages,
        "{} frames vs {} per-tuple messages",
        m.frames,
        baseline.messages
    );
    assert!(m.bytes < baseline.bytes);
    assert!(m.mean_batch_occupancy() > 1.0);
    assert_eq!(m.tuples_stored, baseline.tuples_stored);
    assert_eq!(m.derivations, baseline.derivations);
    for loc in per_tuple.engine().locations().to_vec() {
        let mut want: Vec<Tuple> = per_tuple
            .engine()
            .query(&loc, "reachable")
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        let mut got: Vec<Tuple> = batched
            .engine()
            .query(&loc, "reachable")
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        want.sort_by_key(|t| t.to_string());
        got.sort_by_key(|t| t.to_string());
        assert_eq!(got, want, "fixpoint at {loc}");
    }
}

/// (c) Duplicate `(pred, row)` tuples inside one pending shipment frame are
/// deduplicated before signing: the receiver's row→seq map would absorb
/// them anyway, so shipping them only wasted signature bytes and bandwidth.
#[test]
fn in_frame_duplicates_are_deduped_before_signing() {
    // Both source facts project to the same head row `fwd(@b,1)`.
    let build = |config: EngineConfig| {
        SecureNetwork::builder()
            .program_text("f1 fwd(@D,X) :- src(@S,X,D,T).")
            .unwrap()
            .locations(vec![str_val("a"), str_val("b")])
            .config(config.with_cost_model(CostModel::zero_cpu()))
            .fact(
                str_val("a"),
                Tuple::new(
                    "src",
                    vec![str_val("a"), Value::Int(1), str_val("b"), Value::Int(10)],
                ),
            )
            .fact(
                str_val("a"),
                Tuple::new(
                    "src",
                    vec![str_val("a"), Value::Int(1), str_val("b"), Value::Int(20)],
                ),
            )
            .build()
            .unwrap()
    };

    // Per-tuple mode ships (and signs) the duplicate, only for the
    // receiver to drop it.
    let mut per_tuple = build(EngineConfig::sendlog());
    let baseline = per_tuple.engine_mut().run_to_fixpoint().unwrap();
    assert_eq!(baseline.derivations, 2);
    assert_eq!(baseline.messages, 2);
    assert_eq!(baseline.signatures, 2);

    // Batched mode dedups inside the pending frame: one tuple, one
    // signature, one frame.
    let mut batched = build(EngineConfig::sendlog().with_batching());
    let m = batched.engine_mut().run_to_fixpoint().unwrap();
    assert_eq!(m.derivations, 2, "both rule firings still happen");
    assert_eq!(m.frames, 1);
    assert_eq!(m.batched_tuples, 1, "the duplicate never hit the wire");
    assert_eq!(m.signatures, 1);
    assert_eq!(m.auth_bytes * 2, baseline.auth_bytes);
    assert!(m.bytes < baseline.bytes);
    assert_eq!(
        ordered(&batched, "b", "fwd"),
        ordered(&per_tuple, "b", "fwd")
    );
    assert_eq!(ordered(&batched, "b", "fwd"), vec!["fwd(b,1)"]);
}

/// Self-joins derive identically under batching: each delta row only joins
/// rows inserted no later than itself (the store seq caps visibility), so
/// batch siblings are not double-joined and the derivation count — which
/// pipelined `a_COUNT`/`a_SUM` aggregates observe — matches per-tuple
/// evaluation exactly.
#[test]
fn self_joins_do_not_double_derive_across_batch_siblings() {
    let build = |config: EngineConfig| {
        let mut builder = SecureNetwork::builder()
            .program_text("t1 two(@X,Y,Z) :- e(@X,Y), e(@X,Z).\nc1 cnt(@X,a_COUNT<Y>) :- e(@X,Y).")
            .unwrap()
            .locations(vec![str_val("a")])
            .config(config.with_cost_model(CostModel::zero_cpu()));
        for i in 0..3 {
            builder = builder.fact(
                str_val("a"),
                Tuple::new("e", vec![str_val("a"), Value::Int(i)]),
            );
        }
        builder.build().unwrap()
    };
    let mut per_tuple = build(EngineConfig::ndlog());
    let baseline = per_tuple.engine_mut().run_to_fixpoint().unwrap();
    // All 3 e-rows land in one delta batch; without the seq visibility cap
    // each row would also join its later siblings and over-derive.
    let mut batched = build(EngineConfig::ndlog().with_batching());
    let m = batched.engine_mut().run_to_fixpoint().unwrap();
    assert_eq!(m.derivations, baseline.derivations);
    assert_eq!(m.tuples_stored, baseline.tuples_stored);
    assert_eq!(ordered(&batched, "a", "two").len(), 9);
    // The pipelined count converges to the same value in both modes.
    let count_of = |net: &SecureNetwork| {
        net.engine()
            .query(&str_val("a"), "cnt")
            .into_iter()
            .map(|(t, _)| t.values[1].clone())
            .max_by_key(|v| v.as_int())
            .unwrap()
    };
    assert_eq!(count_of(&batched), count_of(&per_tuple));
    assert_eq!(count_of(&batched), Value::Int(3));
}

/// The cap is hard: a batch that already holds `max_batch_tuples` rows —
/// including one sealed at creation under a cap of 1 — never accepts
/// another, even when several distinct head tuples land on the same
/// `(src, dst, pred, window)` key.
#[test]
fn max_batch_tuples_is_a_hard_per_frame_cap() {
    // Two distinct head tuples for the same frame key, derived in the same
    // window from facts inserted at time zero.
    let mut net = SecureNetwork::builder()
        .program_text("f1 fwd(@D,X) :- src(@S,X,D).")
        .unwrap()
        .locations(vec![str_val("a"), str_val("b")])
        .config(
            EngineConfig::sendlog()
                .with_batching()
                .with_max_batch_tuples(1)
                .with_cost_model(CostModel::zero_cpu()),
        )
        .fact(
            str_val("a"),
            Tuple::new("src", vec![str_val("a"), Value::Int(1), str_val("b")]),
        )
        .fact(
            str_val("a"),
            Tuple::new("src", vec![str_val("a"), Value::Int(2), str_val("b")]),
        )
        .build()
        .unwrap();
    let m = net.engine_mut().run_to_fixpoint().unwrap();
    assert_eq!(m.batched_tuples, 2);
    assert_eq!(m.frames, 2, "a cap of 1 must never co-batch two tuples");
    assert_eq!(m.signatures, 2);
    assert_eq!(ordered(&net, "b", "fwd"), vec!["fwd(b,1)", "fwd(b,2)"]);
}

/// A capped batch seals early: later tuples of the same window open a new
/// frame at the same flush time, so every tuple still ships exactly once.
#[test]
fn max_batch_tuples_seals_frames_early() {
    let mut per_tuple = figure1(EngineConfig::sendlog());
    let baseline = per_tuple.engine_mut().run_to_fixpoint().unwrap();

    let mut capped = figure1(
        EngineConfig::sendlog()
            .with_batching()
            .with_max_batch_tuples(1),
    );
    let m = capped.engine_mut().run_to_fixpoint().unwrap();
    // Cap 1 means one tuple per frame again — but flushed on window
    // boundaries, so the tuple count is preserved.
    assert_eq!(m.batched_tuples, baseline.messages);
    assert_eq!(m.frames, m.batched_tuples);
    assert_eq!(m.signatures, m.frames);
    assert_eq!(m.tuples_stored, baseline.tuples_stored);
}
