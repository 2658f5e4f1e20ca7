//! Network dynamics under churn: scripted link flaps, node failures and
//! scheduled soft-state expiry, with provenance-guided incremental deletion
//! keeping derived state exact — the paper's "soft state under continuous
//! operation" reading, pinned end to end over the facade.

use pasn::prelude::*;
use pasn::workload;
use pasn_net::Topology;
use pasn_provenance::{moonwalk_with, MoonwalkConfig, ProvenanceKind};

fn fast(config: EngineConfig) -> EngineConfig {
    config.with_cost_model(CostModel::zero_cpu())
}

fn build_n30(config: EngineConfig) -> SecureNetwork {
    SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(workload::evaluation_topology(30, 7))
        .config(fast(config))
        .build()
        .expect("program compiles")
}

/// Canonically ordered `(values, tag)` renderings of `pred` at `loc`.
fn sorted_rows(net: &SecureNetwork, loc: &Value, pred: &str) -> Vec<String> {
    let mut rows: Vec<String> = net
        .engine()
        .query(loc, pred)
        .into_iter()
        .map(|(t, m)| format!("{:?} {}", t.values, m.tag))
        .collect();
    rows.sort();
    rows
}

/// The acceptance pin: flap one link of the N=30 evaluation deployment down
/// and back up — the same deployment `repro` writes as
/// `churn_reachability_30` — and the post-churn fixpoint must be
/// bit-identical (tuples and tags, canonically ordered) to the run that
/// never flapped.
#[test]
fn churn_reachability_30_reconverges_bit_identically() {
    let config = || EngineConfig::sendlog_session().with_batching();
    let mut stat = build_n30(config());
    let baseline = stat.engine_mut().run_to_fixpoint().expect("fixpoint");

    let link = stat.topology().expect("topology-built").links()[0];
    let (src, dst) = (Value::Addr(link.src.0), Value::Addr(link.dst.0));
    let script = ChurnScript::new()
        .link_down(5_000_000, src.clone(), dst.clone())
        .link_up(10_000_000, src, dst);

    let mut flapped = build_n30(config());
    let metrics = flapped
        .engine_mut()
        .run_scenario(&script)
        .expect("post-churn fixpoint");

    for loc in flapped.engine().locations().to_vec() {
        assert_eq!(
            sorted_rows(&flapped, &loc, "reachable"),
            sorted_rows(&stat, &loc, "reachable"),
            "post-flap reachable set diverged at {loc}"
        );
        assert_eq!(
            sorted_rows(&flapped, &loc, "link"),
            sorted_rows(&stat, &loc, "link"),
        );
    }
    assert_eq!(metrics.tuples_stored, baseline.tuples_stored);
    // The flap genuinely exercised deletion and re-derivation, with the
    // remote withdrawals shipped as authenticated tombstone frames.
    assert_eq!(metrics.churn_events, 2);
    assert!(metrics.retractions > 0, "{metrics}");
    assert!(metrics.rederivations > 0, "{metrics}");
    assert!(metrics.tombstone_frames > 0, "{metrics}");
    assert!(metrics.derivations >= baseline.derivations);
    // The flapped link's session channel was evicted and rebound at a
    // fresh epoch; nothing was refused along the way.
    assert!(metrics.handshakes > baseline.handshakes, "{metrics}");
    assert_eq!(metrics.verification_failures, 0, "{metrics}");
}

/// Provenance-exact survival: with `DerivationCount` tags, a tuple that
/// loses one of two derivations survives with a decremented tag; losing
/// the last one cascades it away.
#[test]
fn retraction_decrements_derivation_counts() {
    let build = || {
        SecureNetwork::builder()
            .program(pasn::programs::reachability_ndlog())
            .topology(Topology::paper_figure1())
            .config(fast(
                EngineConfig::ndlog().with_provenance(ProvenanceKind::Count),
            ))
            .build()
            .unwrap()
    };
    let reach_ac = Tuple::new("reachable", vec![Value::Addr(0), Value::Addr(2)]);
    let link_ac = Tuple::new("link", vec![Value::Addr(0), Value::Addr(2)]);

    let mut net = build();
    net.engine_mut().run_to_fixpoint().unwrap();
    assert_eq!(
        net.engine()
            .render_provenance(&Value::Addr(0), &reach_ac)
            .unwrap(),
        "<2 derivations>"
    );

    let mut churned = build();
    let script = ChurnScript::new().at(
        5_000_000,
        ChurnEvent::Retract {
            location: Value::Addr(0),
            tuple: link_ac,
        },
    );
    churned.engine_mut().run_scenario(&script).unwrap();
    assert_eq!(
        churned
            .engine()
            .render_provenance(&Value::Addr(0), &reach_ac)
            .unwrap(),
        "<1 derivations>",
        "the surviving alternative derivation keeps the tuple with a \
         decremented DerivationCount"
    );
}

/// Scheduled expiry: with a TTL configured and dynamics armed, derived
/// soft state dies *during* the run — no manual `expire_all` — and the
/// deletions cascade through the ledger.
#[test]
fn soft_state_expires_mid_run_without_manual_sweeps() {
    let mut net = SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(Topology::ring(5))
        .config(fast(EngineConfig::ndlog().with_default_ttl_us(2_000_000)))
        .build()
        .unwrap();
    let metrics = net.engine_mut().run_scenario(&ChurnScript::new()).unwrap();
    for loc in net.engine().locations().to_vec() {
        assert_eq!(
            net.engine().query(&loc, "reachable").len(),
            0,
            "soft state at {loc}"
        );
        // A ring is bidirectional: each node keeps its two base links.
        assert_eq!(
            net.engine().query(&loc, "link").len(),
            2,
            "hard state at {loc}"
        );
    }
    assert!(metrics.retractions > 0);
}

/// The forensic guarantee under churn: a tuple deleted mid-run stays
/// explainable.  Its distributed pointer records survive (offline
/// provenance outlives the soft state it describes), so a moonwalk still
/// funnels to the true origin, and the offline archive holds the tuple
/// stamped with its deletion time.
#[test]
fn moonwalk_explains_a_tuple_deleted_mid_run() {
    let mut config = fast(EngineConfig::ndlog())
        .with_graph_mode(GraphMode::Distributed)
        .with_provenance(ProvenanceKind::Condensed);
    config.archive_offline = true;
    // A 4-node line: n0 → n1 → n2 → n3.  reachable(@0,3) exists only via
    // the chain, so retracting link(2,3) deletes it.
    let mut net = SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(Topology::line(4))
        .config(config)
        .build()
        .unwrap();
    let script = ChurnScript::new().at(
        5_000_000,
        ChurnEvent::Retract {
            location: Value::Addr(2),
            tuple: Tuple::new("link", vec![Value::Addr(2), Value::Addr(3)]),
        },
    );
    let metrics = net.engine_mut().run_scenario(&script).unwrap();

    // The tuple is really gone from the soft state...
    let reach_03 = Tuple::new("reachable", vec![Value::Addr(0), Value::Addr(3)]);
    assert!(!net
        .engine()
        .query(&Value::Addr(0), "reachable")
        .iter()
        .any(|(t, _)| *t == reach_03));
    assert!(metrics.retractions > 0);

    // ...but its provenance is still walkable: the moonwalk funnels back
    // to base links of the chain that derived it.
    let stores = net.engine().distributed_stores();
    let key = reach_03.render_located(Some(0));
    let sampled = moonwalk_with(
        |name| stores.get(name).copied(),
        &Value::Addr(0).to_string(),
        &key,
        &MoonwalkConfig {
            walks: 64,
            seed: 5,
            ..MoonwalkConfig::default()
        },
    );
    assert!(
        sampled.hit_rate() > 0.5,
        "deleted tuple no longer explainable: hit rate {}",
        sampled.hit_rate()
    );
    assert!(sampled.suspected_origin().is_some());

    // And the offline archive recorded the deletion itself.
    let archive = net
        .engine()
        .archive(&Value::Addr(0))
        .expect("known location");
    let entries = archive.query(&key, None, None);
    assert!(!entries.is_empty(), "archive lost the deleted tuple");
    assert!(
        entries.iter().all(|e| e.expired_at.is_some()),
        "deletion time not stamped: {entries:?}"
    );
}

/// A node failure withdraws everything the node asserted; its rejoin
/// restores the fixpoint.
#[test]
fn node_failure_and_rejoin_restore_the_fixpoint() {
    let build = || {
        SecureNetwork::builder()
            .program(pasn::programs::reachability_ndlog())
            .topology(Topology::ring(6))
            .config(fast(EngineConfig::sendlog().with_batching()))
            .build()
            .unwrap()
    };
    let mut stat = build();
    let baseline = stat.engine_mut().run_to_fixpoint().unwrap();

    let script = ChurnScript::new()
        .node_fail(5_000_000, Value::Addr(2))
        .node_rejoin(10_000_000, Value::Addr(2));
    let mut churned = build();
    let metrics = churned.engine_mut().run_scenario(&script).unwrap();

    for loc in churned.engine().locations().to_vec() {
        assert_eq!(
            sorted_rows(&churned, &loc, "reachable"),
            sorted_rows(&stat, &loc, "reachable"),
            "post-rejoin fixpoint at {loc}"
        );
    }
    assert_eq!(metrics.tuples_stored, baseline.tuples_stored);
    assert!(metrics.retractions > 0);
    assert!(metrics.rederivations > 0);
}
