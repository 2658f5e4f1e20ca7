//! Integration tests for session-keyed authenticated channels
//! (`SaysLevel::Session`): the N=30 reachability deployment of the repro's
//! `session_reachability_30` point, checked end to end against the
//! per-frame-RSA baseline it amortises.

use pasn::prelude::*;
use pasn::workload;
use pasn_crypto::channel::{HandshakeTranscript, CHANNEL_PROOF_LEN};
use pasn_crypto::says::SaysLevel;
use pasn_crypto::PrincipalId;

fn reachability_30(config: EngineConfig) -> SecureNetwork {
    SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(workload::evaluation_topology(30, 7))
        .config(config.with_cost_model(CostModel::zero_cpu()))
        .build()
        .unwrap()
}

/// The acceptance bar of the session-channel work: on the batched N=30
/// deployment, `SaysLevel::Session` performs exactly `handshakes` RSA signs
/// — one per live directed link, far below the per-frame count — while the
/// evaluation itself (fixpoint, derivations, orderings, frame stream) is
/// bit-identical to the `Rsa` level.
#[test]
fn session_channels_amortise_rsa_on_the_n30_deployment() {
    let mut rsa_net = reachability_30(EngineConfig::sendlog().with_batching());
    let rsa = rsa_net.engine_mut().run_to_fixpoint().unwrap();
    let mut session_net = reachability_30(EngineConfig::sendlog_session().with_batching());
    let session = session_net.engine_mut().run_to_fixpoint().unwrap();

    // The evaluation is unchanged, bit for bit.
    assert_eq!(session.derivations, rsa.derivations);
    assert_eq!(session.tuples_stored, rsa.tuples_stored);
    assert_eq!(session.frames, rsa.frames);
    assert_eq!(session.batched_tuples, rsa.batched_tuples);
    for loc in rsa_net.engine().locations().to_vec() {
        let want: Vec<Tuple> = rsa_net
            .engine()
            .query(&loc, "reachable")
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        let got: Vec<Tuple> = session_net
            .engine()
            .query(&loc, "reachable")
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(got, want, "insertion ordering diverged at {loc}");
    }

    // RSA collapses from one sign per frame to one per live directed link.
    assert_eq!(rsa.rsa_sign_ops, rsa.frames);
    assert_eq!(session.rsa_sign_ops, session.handshakes);
    assert_eq!(session.rsa_verify_ops, session.handshakes);
    assert!(session.handshakes > 0);
    assert!(
        session.handshakes * 2 < session.frames,
        "{} handshakes (live directed links) should sit well below {} frames",
        session.handshakes,
        session.frames
    );
    // Every frame still carries exactly one proof (now an HMAC) and passes
    // exactly one verification; the handshakes ride the wire on top.
    assert_eq!(session.signatures, session.frames);
    assert_eq!(session.verifications, session.frames);
    assert_eq!(session.verification_failures, 0);
    assert!(session.hmac_ops >= 2 * session.frames);
    assert_eq!(session.messages, session.frames + session.handshakes);
    // Auth bandwidth is accounted honestly: every frame's channel MAC
    // (principal id + proof-tag byte + epoch/counter/tag) plus every
    // handshake's transcript and RSA signature — channel setup is on the
    // books, not hidden.
    let proof_wire = 4 + 1 + CHANNEL_PROOF_LEN as u64;
    let handshake_wire = HandshakeTranscript {
        src: PrincipalId(0),
        dst: PrincipalId(1),
        epoch: 0,
    }
    .wire_len() as u64
        + (session_net.engine().config().rsa_modulus_bits as u64) / 8;
    assert_eq!(
        session.auth_bytes,
        session.frames * proof_wire + session.handshakes * handshake_wire
    );
}

/// `EngineConfig::sendlog_session()` is `sendlog()` with the level swapped:
/// authentication stays on, imports verified, and the facade surfaces the
/// crypto counters.
#[test]
fn session_preset_and_counters_round_trip_through_the_facade() {
    let mut net = reachability_30(EngineConfig::sendlog_session().with_batching());
    assert_eq!(net.engine().config().says_level, Some(SaysLevel::Session));
    let m = net.engine_mut().run_to_fixpoint().unwrap();
    assert_eq!(net.engine().metrics().rsa_sign_ops, m.rsa_sign_ops);
    assert_eq!(net.engine().metrics().rsa_verify_ops, m.rsa_verify_ops);
    assert_eq!(net.engine().metrics().hmac_ops, m.hmac_ops);
    assert_eq!(net.engine().metrics().handshakes, m.handshakes);
    assert_eq!(net.engine().metrics().frames, m.frames);
}

/// Forcing rebinds (tiny channel lifetime) degenerates to per-frame RSA
/// again without disturbing the fixpoint — the explicit rebind-on-expiry
/// path at deployment scale.
#[test]
fn rebinding_every_frame_degenerates_to_per_frame_rsa() {
    let mut unlimited = reachability_30(EngineConfig::sendlog_session().with_batching());
    let base = unlimited.engine_mut().run_to_fixpoint().unwrap();
    let mut churny = reachability_30(
        EngineConfig::sendlog_session()
            .with_batching()
            .with_channel_rebind_frames(1),
    );
    let m = churny.engine_mut().run_to_fixpoint().unwrap();
    assert_eq!(m.handshakes, m.frames);
    assert_eq!(m.rsa_sign_ops, m.frames);
    assert!(m.handshakes > base.handshakes);
    assert_eq!(m.derivations, base.derivations);
    assert_eq!(m.tuples_stored, base.tuples_stored);
    assert_eq!(m.verification_failures, 0);
}
