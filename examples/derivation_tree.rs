//! Reproduces the derivation trees of Figures 1 and 2.
//!
//! Figure 1 shows the NDlog derivation tree for `reachable(@a,c)` on the
//! three-node example network; Figure 2 shows the SeNDlog version where every
//! node is asserted by a principal and the tuple carries a condensed
//! provenance annotation (`<a + a*b>` condensing to `<a>`).
//!
//! ```text
//! cargo run --example derivation_tree
//! ```

use pasn::prelude::*;

fn main() {
    let topology = Topology::paper_figure1();

    // ---- Figure 1: NDlog derivation tree -------------------------------
    let mut plain = SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(topology.clone())
        .config(
            EngineConfig::ndlog()
                .with_cost_model(CostModel::zero_cpu())
                .with_graph_mode(GraphMode::Local),
        )
        .build()
        .expect("program compiles");
    plain
        .engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");

    let a = Value::Addr(0);
    let store = plain
        .engine()
        .provenance_store(&a)
        .expect("local provenance recorded");
    let root = "reachable(@n0,n2)";
    let derivations = store.derivations_of(root).len();
    assert!(derivations > 0, "reachable(a,c) derived at a");

    println!("== Figure 1: NDlog derivation tree for reachable(@a,c) ==");
    println!("(node a = n0, b = n1, c = n2)\n");
    println!("{}", store.render_tree(root));
    println!(
        "why-provenance: {}  ({derivations} alternative derivations over {} base tuples)\n",
        store.why_provenance(root),
        store.base_support(root).len(),
    );

    // ---- Figure 2: SeNDlog tree with condensed provenance ---------------
    let mut secure = SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(topology)
        .config(
            EngineConfig::sendlog_prov()
                .with_cost_model(CostModel::zero_cpu())
                .with_graph_mode(GraphMode::Local),
        )
        .build()
        .expect("program compiles");
    secure
        .engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");

    println!("== Figure 2: SeNDlog derivation tree with condensed provenance ==\n");
    let store = secure
        .engine()
        .provenance_store(&a)
        .expect("local provenance recorded");
    assert!(!store.derivations_of(root).is_empty(), "derived");
    println!("{}", store.render_tree(root));

    println!("condensed annotations (the <...> field of Figure 2):");
    for (tuple, meta) in secure.engine().query(&a, "reachable") {
        println!(
            "  {}  {}",
            tuple,
            meta.tag.render(secure.engine().var_table())
        );
    }
    println!();
    println!(
        "reachable(a,c) has provenance a + a*b over principals, which the BDD\n\
         encoding condenses to {} — principal b is inconsequential once a is trusted.",
        secure
            .engine()
            .render_provenance(
                &a,
                &Tuple::new("reachable", vec![Value::Addr(0), Value::Addr(2)])
            )
            .expect("annotation available")
    );
}
