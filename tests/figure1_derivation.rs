//! Integration test for Figure 1: the NDlog derivation tree of
//! `reachable(@a,c)` on the three-node example network, reconstructed through
//! the public `pasn` API with local (piggybacked) provenance.

use pasn::prelude::*;

fn figure1_network(config: EngineConfig) -> SecureNetwork {
    let mut net = SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(Topology::paper_figure1())
        .config(
            config
                .with_cost_model(CostModel::zero_cpu())
                .with_graph_mode(GraphMode::Local),
        )
        .build()
        .expect("program compiles");
    net.engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");
    net
}

#[test]
fn reachable_a_c_has_the_two_derivations_of_figure1() {
    let net = figure1_network(EngineConfig::ndlog());
    let a = Value::Addr(0);
    let store = net
        .engine()
        .provenance_store(&a)
        .expect("local provenance maintained");
    let root = "reachable(@n0,n2)";

    // Two alternative derivations: r1 over link(a,c) and r2 over link(a,b)
    // joined with reachable(b,c).  A record's rule reads `rule@node`.
    let derivations = store.derivations_of(root);
    assert_eq!(derivations.len(), 2, "union of r1 and r2");
    let rules: Vec<&str> = derivations
        .iter()
        .map(|d| d.rule.split('@').next().unwrap_or_default())
        .collect();
    assert!(rules.contains(&"r1"));
    assert!(rules.contains(&"r2"));

    // The leaves are exactly the three base links of the example network.
    let support = store.base_support(root);
    assert_eq!(support.len(), 3);

    // The rendered tree shows the union and the base tuples, like Figure 1.
    let tree = store.render_tree(root);
    assert!(tree.contains("union"), "{tree}");
    assert!(tree.contains("link(@n0,n2) [base]"), "{tree}");
    assert!(tree.contains("link(@n0,n1) [base]"), "{tree}");
    assert!(tree.contains("link(@n1,n2) [base]"), "{tree}");
    assert!(tree.contains("reachable(@n1,n2)"), "{tree}");
}

#[test]
fn every_node_gets_locally_complete_provenance() {
    let net = figure1_network(EngineConfig::ndlog());
    // Node a reaches b and c; both tuples have complete local provenance.
    let a = Value::Addr(0);
    let store = net.engine().provenance_store(&a).unwrap();
    for (tuple, _) in net.engine().query(&a, "reachable") {
        let key = tuple.render_located(Some(0));
        assert!(
            !store.derivations_of(&key).is_empty(),
            "missing provenance for {key}"
        );
        assert!(
            !store.base_support(&key).is_empty(),
            "{key} grounded in base tuples"
        );
    }
}

#[test]
fn reachability_results_match_the_example_topology() {
    let net = figure1_network(EngineConfig::ndlog());
    // a reaches {b, c}, b reaches {c}, c reaches nothing.
    assert_eq!(net.engine().query(&Value::Addr(0), "reachable").len(), 2);
    assert_eq!(net.engine().query(&Value::Addr(1), "reachable").len(), 1);
    assert_eq!(net.engine().query(&Value::Addr(2), "reachable").len(), 0);
    // The Figure 1 derivations above were produced through index probes:
    // both localized joins of r2 key on the shared location variable.
    let metrics = net.engine().metrics();
    assert!(
        metrics.index_probes > 0 && metrics.index_hits > 0,
        "joins must take the index path ({} probes / {} hits)",
        metrics.index_probes,
        metrics.index_hits
    );
}

/// The SeNDlog form of the same query: the rules of an `At S:` block name
/// their antecedents without an `@` column, and a base tuple is recorded
/// under the identity its predicate is declared with — so a traceback, or a
/// local store's view, of a context-block program grounds out like the NDlog
/// one.
#[test]
fn sendlog_provenance_grounds_out_in_both_graph_modes() {
    let network = |mode| {
        let config = EngineConfig::sendlog_prov().with_cost_model(CostModel::zero_cpu());
        let mut net = SecureNetwork::builder()
            .program(pasn::programs::reachability_sendlog())
            .topology(Topology::paper_figure1())
            .config(config.with_graph_mode(mode))
            .build()
            .expect("program compiles");
        net.engine_mut()
            .run_to_fixpoint()
            .expect("fixpoint reached");
        net
    };
    let (distributed, local) = (network(GraphMode::Distributed), network(GraphMode::Local));
    let rows = distributed.engine().query_all("reachable");
    assert_eq!(rows.len(), 3);
    for (location, tuple, _) in rows {
        let key = tuple.to_string();
        let report = pasn::forensics::investigate(&distributed, &location, &key);
        assert!(report.has_origin(), "{key}: {:?}", report.traceback);
        assert!(report.traceback.unresolved.is_empty(), "{key}");
        let store = local.engine().provenance_store(&location).unwrap();
        assert!(!store.derivations_of(&key).is_empty(), "derived here too");
        assert!(!store.why_provenance(&key).witnesses().is_empty(), "{key}");
        assert_eq!(store.base_support(&key), report.traceback.base_tuples);
    }
}
