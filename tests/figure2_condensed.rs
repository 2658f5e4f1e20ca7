//! Integration test for Figure 2: the SeNDlog derivation with authenticated
//! communication and condensed provenance.  The paper's worked example —
//! `reachable(a,c)` carries `<a + a*b>` which condenses to `<a>`, so trusting
//! `a` suffices and the trust level is `max(2, min(2,1)) = 2` — is checked
//! end to end through the public API.

use pasn::prelude::*;

fn figure2_network() -> SecureNetwork {
    let mut config = EngineConfig::sendlog_prov().with_cost_model(CostModel::zero_cpu());
    // Security levels from the paper's Section 4.5 example: a has level 2,
    // b has level 1.
    config = config.with_security_level(0, 2).with_security_level(1, 1);
    let mut net = SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(Topology::paper_figure1())
        .config(config)
        .build()
        .expect("program compiles");
    net.engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");
    net
}

#[test]
fn condensed_provenance_collapses_a_plus_a_times_b_to_a() {
    let net = figure2_network();
    let tuple = Tuple::new("reachable", vec![Value::Addr(0), Value::Addr(2)]);
    let rendered = net
        .engine()
        .render_provenance(&Value::Addr(0), &tuple)
        .expect("annotation recorded");
    assert_eq!(rendered, "<p0>", "a + a*b condenses to a");
}

#[test]
fn every_remote_tuple_was_signed_and_verified() {
    let net = figure2_network();
    let metrics = net.engine().metrics();
    assert!(metrics.messages > 0);
    assert_eq!(metrics.signatures, metrics.messages);
    assert_eq!(metrics.verifications, metrics.messages);
    assert_eq!(metrics.verification_failures, 0);
    // RSA proofs dominate the authentication bytes.
    assert!(metrics.auth_bytes >= 64 * metrics.messages);
}

#[test]
fn trust_policies_follow_the_paper_example() {
    let net = figure2_network();
    let evaluator = TrustEvaluator::new(net.engine().var_table(), net.engine().config());

    let tuple = Tuple::new("reachable", vec![Value::Addr(0), Value::Addr(2)]);
    let (_, meta) = net
        .engine()
        .query(&Value::Addr(0), "reachable")
        .into_iter()
        .find(|(t, _)| *t == tuple)
        .expect("reachable(a,c) stored at a");

    // Trusting a alone accepts the tuple; trusting b alone does not.
    let trust_a = TrustPolicy::TrustedPrincipals([0u32].into_iter().collect());
    let trust_b = TrustPolicy::TrustedPrincipals([1u32].into_iter().collect());
    assert_eq!(
        evaluator.evaluate(&meta.tag, &trust_a),
        TrustDecision::Accept
    );
    assert_ne!(
        evaluator.evaluate(&meta.tag, &trust_b),
        TrustDecision::Accept
    );

    // Quantifiable provenance: trust level max(2, min(2,1)) = 2.
    assert_eq!(
        evaluator.evaluate(&meta.tag, &TrustPolicy::MinTrustLevel(2)),
        TrustDecision::Accept
    );
    assert_ne!(
        evaluator.evaluate(&meta.tag, &TrustPolicy::MinTrustLevel(3)),
        TrustDecision::Accept
    );

    // The condensed origins are exactly {a}.
    assert_eq!(evaluator.origins(&meta.tag), [0u32].into_iter().collect());
}

#[test]
fn sendlog_surface_program_produces_equivalent_routes() {
    // Running the actual SeNDlog-syntax program (context blocks + says)
    // produces the same reachability relation at a as the NDlog form.
    let mut net = SecureNetwork::builder()
        .program(pasn::programs::reachability_sendlog())
        .topology(Topology::paper_figure1())
        .config(EngineConfig::sendlog().with_cost_model(CostModel::zero_cpu()))
        .build()
        .expect("program compiles");
    net.engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");
    let mut at_a: Vec<Vec<Value>> = net
        .engine()
        .query(&Value::Addr(0), "reachable")
        .into_iter()
        .map(|(t, _)| t.values.to_vec())
        .collect();
    at_a.sort();
    assert_eq!(
        at_a,
        vec![
            vec![Value::Addr(0), Value::Addr(1)],
            vec![Value::Addr(0), Value::Addr(2)],
        ]
    );
}
