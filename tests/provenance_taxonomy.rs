//! Property-style integration tests over the provenance taxonomy (Section 4):
//! whatever the topology, the different provenance axes must stay mutually
//! consistent when computed through the full stack.

use pasn::prelude::*;
use pasn::workload;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn run_reachability(n: u32, seed: u64, config: EngineConfig) -> SecureNetwork {
    let topology = workload::evaluation_topology(n, seed);
    let mut net = SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(topology)
        .config(config.with_cost_model(CostModel::zero_cpu()))
        .build()
        .expect("program compiles");
    net.engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Condensed provenance is always accepted when every principal is
    /// trusted, and always rejected when no principal is trusted.
    #[test]
    fn trust_policy_extremes(n in 4u32..10, seed in 0u64..500) {
        let net = run_reachability(n, seed, EngineConfig::ndlog().with_provenance(ProvenanceKind::Condensed));
        let evaluator = TrustEvaluator::new(net.engine().var_table(), net.engine().config());
        let everyone: BTreeSet<u32> = (0..n).collect();
        let nobody: BTreeSet<u32> = BTreeSet::new();
        for (_, _, meta) in net.engine().query_all("reachable") {
            prop_assert_eq!(evaluator
                .evaluate(&meta.tag, &TrustPolicy::TrustedPrincipals(everyone.clone())), TrustDecision::Accept);
            prop_assert_ne!(evaluator
                .evaluate(&meta.tag, &TrustPolicy::TrustedPrincipals(nobody.clone())), TrustDecision::Accept);
        }
    }

    /// The condensed origins of a tuple are a subset of the principals on
    /// the deployment, and always include the tuple's own source node
    /// (the reachability of S is always grounded in one of S's own links).
    #[test]
    fn condensed_origins_are_well_formed(n in 4u32..10, seed in 0u64..500) {
        let net = run_reachability(n, seed, EngineConfig::ndlog().with_provenance(ProvenanceKind::Condensed));
        let evaluator = TrustEvaluator::new(net.engine().var_table(), net.engine().config());
        for (loc, _, meta) in net.engine().query_all("reachable") {
            let origins = evaluator.origins(&meta.tag);
            prop_assert!(!origins.is_empty());
            prop_assert!(origins.iter().all(|p| *p < n));
            let src = loc.as_addr().unwrap();
            prop_assert!(origins.contains(&src));
        }
    }

    /// Vote provenance never reports more asserting principals than exist,
    /// and the count semiring never reports zero derivations for a stored
    /// tuple.
    #[test]
    fn quantifiable_provenance_is_bounded(n in 4u32..9, seed in 0u64..500) {
        let vote_net = run_reachability(n, seed, EngineConfig::ndlog().with_provenance(ProvenanceKind::Vote));
        for (_, _, meta) in vote_net.engine().query_all("reachable") {
            match &meta.tag {
                ProvTag::Vote(v) => prop_assert!(v.count() <= n as usize),
                other => prop_assert!(false, "unexpected tag {other:?}"),
            }
        }
        let count_net = run_reachability(n, seed, EngineConfig::ndlog().with_provenance(ProvenanceKind::Count));
        for (_, _, meta) in count_net.engine().query_all("reachable") {
            match &meta.tag {
                ProvTag::Count(c) => prop_assert!(c.0 >= 1),
                other => prop_assert!(false, "unexpected tag {other:?}"),
            }
        }
    }

    /// Distributed traceback always reaches at least one base link for every
    /// derived tuple, regardless of topology.
    #[test]
    fn traceback_always_grounds_out(n in 4u32..9, seed in 0u64..500) {
        let net = run_reachability(n, seed, EngineConfig::ndlog().with_graph_mode(GraphMode::Distributed));
        let stores = net.engine().distributed_stores();
        for (loc, tuple, _) in net.engine().query_all("reachable") {
            let key = tuple.render_located(Some(0));
            let result = pasn_provenance::traceback(&stores, &loc.to_string(), &key);
            prop_assert!(
                !result.base_tuples.is_empty(),
                "no origin found for {key} at {loc}"
            );
        }
    }
}

#[test]
fn authentication_does_not_change_results() {
    // The same topology evaluated with and without authentication produces
    // identical reachability relations (security must not alter semantics).
    let plain = run_reachability(8, 99, EngineConfig::ndlog());
    let secure = run_reachability(8, 99, EngineConfig::sendlog());
    let collect = |net: &SecureNetwork| {
        let mut rows: Vec<(String, Vec<Value>)> = net
            .engine()
            .query_all("reachable")
            .into_iter()
            .map(|(l, t, _)| (l.to_string(), t.values.to_vec()))
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(collect(&plain), collect(&secure));
}
