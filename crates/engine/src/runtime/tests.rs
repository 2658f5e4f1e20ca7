use super::*;
use crate::config::GraphMode;
use crate::metrics::Scope;
use pasn_datalog::parse_program;
use pasn_net::CostModel;
use pasn_provenance::{moonwalk_with, traceback, MaintenanceMode, ProvenanceKind};

const REACHABLE: &str = "
    r1 reachable(@S,D) :- link(@S,D).
    r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
";

fn str_val(s: &str) -> Value {
    Value::Str(s.into())
}

fn figure1_locations() -> Vec<Value> {
    vec![str_val("a"), str_val("b"), str_val("c")]
}

fn link(s: &str, d: &str) -> Tuple {
    Tuple::new("link", vec![str_val(s), str_val(d)])
}

fn insert_figure1_links(engine: &mut DistributedEngine) {
    engine.insert_fact(str_val("a"), link("a", "b")).unwrap();
    engine.insert_fact(str_val("a"), link("a", "c")).unwrap();
    engine.insert_fact(str_val("b"), link("b", "c")).unwrap();
}

fn fast_cost() -> CostModel {
    CostModel::zero_cpu()
}

#[test]
fn ndlog_reachability_reaches_fixpoint_with_correct_results() {
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::ndlog().with_cost_model(fast_cost());
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    let metrics = engine.run_to_fixpoint().unwrap();

    // a reaches b and c; b reaches c; c reaches nothing.
    let at_a: Vec<Tuple> = engine
        .query(&str_val("a"), "reachable")
        .into_iter()
        .map(|(t, _)| t)
        .collect();
    assert_eq!(at_a.len(), 2);
    assert!(at_a.contains(&Tuple::new("reachable", vec![str_val("a"), str_val("c")])));
    assert_eq!(engine.query(&str_val("b"), "reachable").len(), 1);
    assert_eq!(engine.query(&str_val("c"), "reachable").len(), 0);

    // The link forwarding rule generated messages.
    assert!(metrics.messages > 0);
    assert!(metrics.bytes > 0);
    assert_eq!(metrics.signatures, 0);
    assert_eq!(metrics.verifications, 0);
    assert!(metrics.completion > SimTime::ZERO);
}

#[test]
fn sendlog_reachability_signs_and_verifies_every_remote_tuple() {
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::sendlog().with_cost_model(fast_cost());
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    let metrics = engine.run_to_fixpoint().unwrap();

    assert_eq!(engine.query(&str_val("a"), "reachable").len(), 2);
    assert_eq!(metrics.signatures, metrics.messages);
    assert_eq!(metrics.verifications, metrics.messages);
    assert_eq!(metrics.verification_failures, 0);
    assert!(metrics.auth_bytes >= 64 * metrics.messages);
}

#[test]
fn sendlog_prov_condenses_figure2_annotation() {
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::sendlog_prov().with_cost_model(fast_cost());
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    engine.run_to_fixpoint().unwrap();

    // reachable(a,c) has two derivations: directly via link(a,c), and via
    // b.  Both root at principal a's link assertions, so the condensed
    // provenance is just <p0> (the paper's <a>).
    let tuple = Tuple::new("reachable", vec![str_val("a"), str_val("c")]);
    let rendered = engine.render_provenance(&str_val("a"), &tuple).unwrap();
    assert_eq!(rendered, "<p0>");

    // reachable(b,c) is asserted purely from b's own link.
    let tuple_b = Tuple::new("reachable", vec![str_val("b"), str_val("c")]);
    assert_eq!(
        engine.render_provenance(&str_val("b"), &tuple_b).unwrap(),
        "<p1>"
    );
}

#[test]
fn local_graph_mode_reconstructs_figure1_tree() {
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::ndlog()
        .with_cost_model(fast_cost())
        .with_graph_mode(GraphMode::Local);
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    let metrics = engine.run_to_fixpoint().unwrap();

    let store = engine.provenance_store(&str_val("a")).unwrap();
    assert!(!store.derivations_of("reachable(@a,c)").is_empty());
    let tree = store.render_tree("reachable(@a,c)");
    assert!(tree.contains("union"), "{tree}");
    assert!(tree.contains("r1@a"));
    assert!(tree.contains("r2@"));
    assert!(tree.contains("link(@b,c) [base]"));
    // Local provenance piggybacks each head's records on the wire.
    assert!(metrics.provenance_bytes > 0);
}

#[test]
fn distributed_graph_mode_supports_traceback() {
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::ndlog()
        .with_cost_model(fast_cost())
        .with_graph_mode(GraphMode::Distributed);
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    let metrics = engine.run_to_fixpoint().unwrap();

    let stores = engine.distributed_stores();
    let result = traceback(&stores, "a", "reachable(@a,c)");
    assert!(result.base_tuples.len() >= 2, "{result:?}");
    assert!(result.remote_hops >= 1);
    // Distributed provenance adds no shipping overhead.
    assert_eq!(metrics.provenance_bytes, 0);

    // The engine's own walks resolve nodes through its name directory and
    // agree with the walks over the snapshot — from a deployed location
    // and from a value that names no node.
    let walks = MoonwalkConfig {
        walks: 8,
        ..MoonwalkConfig::default()
    };
    for (start, name) in [(str_val("a"), "a"), (Value::Int(7), "7")] {
        assert_eq!(start.to_string(), name);
        let via_engine = engine.traceback(&start, "reachable(@a,c)");
        assert_eq!(via_engine, traceback(&stores, name, "reachable(@a,c)"));
        let sampled = engine.moonwalk(&start, "reachable(@a,c)", &walks);
        let by_name = |name: &str| stores.get(name).copied();
        let expected = moonwalk_with(by_name, name, "reachable(@a,c)", &walks);
        assert_eq!(sampled.walks, expected.walks);
        assert_eq!(sampled.base_frequency, expected.base_frequency);
        assert_eq!(sampled.records_read, expected.records_read);
    }
    assert_eq!(engine.traceback(&str_val("a"), "reachable(@a,c)"), result);
}

#[test]
fn each_graph_mode_writes_only_its_own_records() {
    let program = parse_program(REACHABLE).unwrap();
    let run = |mode| {
        let config = EngineConfig::ndlog()
            .with_cost_model(fast_cost())
            .with_graph_mode(mode);
        let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
        insert_figure1_links(&mut engine);
        let metrics = engine.run_to_fixpoint().unwrap();
        (engine, metrics.provenance_bytes)
    };
    // The `recv` pointers every stored `reachable` row holds.
    let recv_records = |engine: &DistributedEngine| -> usize {
        let rows = engine.query_all("reachable").into_iter();
        let records = rows.flat_map(|(at, tuple, _)| {
            let store = engine.provenance_store(&at).unwrap();
            store
                .derivations_of(&tuple.render_located(Some(0)))
                .to_vec()
        });
        records.filter(|d| d.rule.starts_with("recv@")).count()
    };
    // Local ships bundles and merges them: no `recv` pointer, every
    // traceback stays at its own node.
    let (local, local_bytes) = run(GraphMode::Local);
    assert!(local_bytes > 0);
    assert_eq!(recv_records(&local), 0);
    let walk = local.traceback(&str_val("a"), "reachable(@a,c)");
    assert_eq!((walk.remote_hops, walk.base_tuples.len()), (0, 3));
    // Distributed ships no provenance and points back at each sender.
    let (distributed, distributed_bytes) = run(GraphMode::Distributed);
    assert_eq!(distributed_bytes, 0);
    assert!(recv_records(&distributed) > 0);
    let walk = distributed.traceback(&str_val("a"), "reachable(@a,c)");
    assert!(walk.remote_hops > 0);
}

#[test]
fn manual_expiry_forgets_the_expired_keys_of_a_local_node() {
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::ndlog()
        .with_cost_model(fast_cost())
        .with_graph_mode(GraphMode::Local)
        .with_default_ttl_us(1_000_000);
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    engine.run_to_fixpoint().unwrap();
    let store = engine.provenance_store(&str_val("a")).unwrap();
    assert_eq!(store.derivations_of("reachable(@a,c)").len(), 2);
    assert_eq!(store.base_support("reachable(@a,c)").len(), 3);
    let shipped = store.derivations_of("reachable(@b,c)").len();
    assert_eq!(shipped, 1, "merged from b's bundle");

    assert!(engine.expire_all(SimTime::from_secs_f64(10.0)) > 0);
    // The expired rows' keys are gone from the store a's rows lived in,
    // and so is every record that used one; the hard-state links stay.
    let store = engine.provenance_store(&str_val("a")).unwrap();
    assert!(store.derivations_of("reachable(@a,c)").is_empty());
    assert!(store.derivations_of("reachable(@a,b)").is_empty());
    assert!(store
        .why_provenance("reachable(@a,c)")
        .witnesses()
        .is_empty());
    assert_eq!(store.base_support("link(@a,c)").len(), 1);
}

#[test]
fn best_path_matches_dijkstra_on_a_small_topology() {
    let best_path = "
        sp1 path(@S,D,P,C) :- link(@S,D,C), P := f_init(S,D).
        sp2 path(@S,D,P,C) :- link(@S,Z,C1), bestPath(@Z,D,P2,C2), f_member(P2,S) == false, C := C1 + C2, P := f_concat(S,P2).
        sp3 bestPathCost(@S,D,a_MIN<C>) :- path(@S,D,P,C).
        sp4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
    ";
    let program = parse_program(best_path).unwrap();
    let topo = pasn_net::Topology::random_out_degree(8, 3, 10, 11);
    let locations: Vec<Value> = topo.nodes().iter().map(|n| Value::Addr(n.0)).collect();
    let config = EngineConfig::ndlog().with_cost_model(fast_cost());
    let mut engine = DistributedEngine::new(&program, config, &locations).unwrap();
    for l in topo.links() {
        engine
            .insert_fact(
                Value::Addr(l.src.0),
                Tuple::new(
                    "link",
                    vec![
                        Value::Addr(l.src.0),
                        Value::Addr(l.dst.0),
                        Value::Int(l.cost as i64),
                    ],
                ),
            )
            .unwrap();
    }
    engine.run_to_fixpoint().unwrap();

    // Every pair's minimum bestPathCost equals the Dijkstra oracle.
    for src in topo.nodes() {
        let oracle = topo.shortest_path_costs(*src);
        let mut best: HashMap<u32, i64> = HashMap::new();
        for (t, _) in engine.query(&Value::Addr(src.0), "bestPathCost") {
            let dst = t.values[1].as_addr().unwrap();
            let cost = t.values[2].as_int().unwrap();
            let entry = best.entry(dst).or_insert(i64::MAX);
            *entry = (*entry).min(cost);
        }
        for dst in topo.nodes() {
            if dst == src {
                continue;
            }
            let expected = oracle[dst] as i64;
            assert_eq!(
                best.get(&dst.0).copied(),
                Some(expected),
                "best path {src}->{dst}"
            );
        }
    }
}

#[test]
fn variant_overheads_follow_the_paper_ordering() {
    let program = parse_program(REACHABLE).unwrap();
    let mut results = Vec::new();
    for variant in crate::config::SystemVariant::ALL {
        let mut config = variant.config();
        config.cost_model = CostModel::paper_2008();
        let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
        insert_figure1_links(&mut engine);
        results.push(engine.run_to_fixpoint().unwrap());
    }
    let (nd, se, sp) = (&results[0], &results[1], &results[2]);
    assert!(se.completion > nd.completion, "SeNDLog slower than NDLog");
    assert!(
        sp.completion >= se.completion,
        "SeNDLogProv at least as slow as SeNDLog"
    );
    assert!(se.bytes > nd.bytes, "SeNDLog uses more bandwidth");
    assert!(sp.bytes > se.bytes, "SeNDLogProv uses the most bandwidth");
}

#[test]
fn sendlog_context_program_executes_with_says_bindings() {
    // The SeNDlog form of the reachability program (paper Section 2.2):
    // s3 runs in the context of S, joins link-destination tuples asserted
    // by the upstream neighbour Z with reachability facts asserted by W,
    // and exports the derived tuple back to Z.
    let program = parse_program(
        "At S:\n\
         s1 reachable(S,D) :- link(S,D).\n\
         s2 linkD(D,S)@D :- link(S,D).\n\
         s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y).",
    )
    .unwrap();
    let config = EngineConfig::sendlog().with_cost_model(fast_cost());
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    let metrics = engine.run_to_fixpoint().unwrap();
    // a's context ends up knowing it reaches c (directly and via b, the
    // latter derived remotely at b by rule s3 and exported back to a).
    let at_a = engine.query(&str_val("a"), "reachable");
    assert!(at_a
        .iter()
        .any(|(t, _)| t.values == vec![str_val("a"), str_val("c")]));
    // Rule s3 fired at b: it needed b's linkD and reachable facts.
    assert!(metrics.derivations > 3);
    assert!(metrics.signatures > 0);
}

/// A 5-node line `n0 → n1 → n2 → n3 → n4`: transitive closure ships
/// several frames per directed link, so channel amortisation is visible.
fn line5_locations() -> Vec<Value> {
    (0..5).map(|i| str_val(&format!("n{i}"))).collect()
}

fn insert_line5_links(engine: &mut DistributedEngine) {
    for i in 0..4 {
        let (s, d) = (format!("n{i}"), format!("n{}", i + 1));
        engine.insert_fact(str_val(&s), link(&s, &d)).unwrap();
    }
}

#[test]
fn session_level_amortises_rsa_to_one_handshake_per_link() {
    let program = parse_program(REACHABLE).unwrap();
    let run = |config: EngineConfig| {
        let mut engine = DistributedEngine::new(
            &program,
            config.with_cost_model(fast_cost()),
            &line5_locations(),
        )
        .unwrap();
        insert_line5_links(&mut engine);
        let metrics = engine.run_to_fixpoint().unwrap();
        (metrics, engine)
    };
    let (rsa, rsa_engine) = run(EngineConfig::sendlog());
    let (session, session_engine) = run(EngineConfig::sendlog_session());

    // The fixpoint, derivations, orderings and frame stream are the
    // Rsa level's, bit for bit.
    assert_eq!(session.derivations, rsa.derivations);
    assert_eq!(session.tuples_stored, rsa.tuples_stored);
    assert_eq!(session.frames, rsa.frames);
    assert_eq!(session.batched_tuples, rsa.batched_tuples);
    for loc in line5_locations() {
        let want: Vec<Tuple> = rsa_engine
            .query(&loc, "reachable")
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        let got: Vec<Tuple> = session_engine
            .query(&loc, "reachable")
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(got, want, "fixpoint ordering at {loc}");
    }

    // RSA work collapses to one sign (and one verify) per live
    // directed link; every frame is MAC-authenticated instead.
    assert_eq!(session.rsa_sign_ops, session.handshakes);
    assert_eq!(session.rsa_verify_ops, session.handshakes);
    assert!(session.handshakes > 0);
    assert!(session.handshakes < session.frames);
    assert_eq!(rsa.rsa_sign_ops, rsa.frames);
    assert_eq!(session.signatures, session.frames);
    assert_eq!(session.verifications, session.frames);
    assert_eq!(session.verification_failures, 0);
    assert!(session.hmac_ops >= 2 * session.frames);
    // Handshakes travel as real messages with honest byte accounting.
    assert_eq!(session.messages, session.frames + session.handshakes);
    assert!(session.auth_bytes > 0);
}

#[test]
fn session_channels_rebind_on_expiry() {
    let program = parse_program(REACHABLE).unwrap();
    let run = |rebind: Option<u64>| {
        let mut config = EngineConfig::sendlog_session().with_cost_model(fast_cost());
        if let Some(frames) = rebind {
            config = config.with_channel_rebind_frames(frames);
        }
        let mut engine = DistributedEngine::new(&program, config, &line5_locations()).unwrap();
        insert_line5_links(&mut engine);
        engine.run_to_fixpoint().unwrap()
    };
    let unlimited = run(None);
    // A channel good for one frame rebinds before every frame: the
    // handshake count degenerates to the frame count, i.e. per-frame
    // RSA again — the cost the default amortises away.
    let exhausted = run(Some(1));
    assert_eq!(exhausted.handshakes, exhausted.frames);
    assert_eq!(exhausted.rsa_sign_ops, exhausted.handshakes);
    assert!(exhausted.handshakes > unlimited.handshakes);
    // The fixpoint does not care how often the links rebind.
    assert_eq!(exhausted.tuples_stored, unlimited.tuples_stored);
    assert_eq!(exhausted.derivations, unlimited.derivations);
    assert_eq!(exhausted.verification_failures, 0);
}

#[test]
fn ttl_expiry_drops_soft_state() {
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::ndlog()
        .with_cost_model(fast_cost())
        .with_default_ttl_us(1_000_000);
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    engine.run_to_fixpoint().unwrap();
    assert!(!engine.query(&str_val("a"), "reachable").is_empty());
    // Base links are hard state; derived tuples expire.
    let dropped = engine.expire_all(SimTime::from_secs_f64(10.0));
    assert!(dropped > 0);
    assert_eq!(engine.query(&str_val("a"), "reachable").len(), 0);
    assert_eq!(engine.query(&str_val("a"), "link").len(), 2);
}

#[test]
fn reactive_maintenance_defers_graph_construction() {
    let program = parse_program(REACHABLE).unwrap();
    let mut config = EngineConfig::ndlog()
        .with_cost_model(fast_cost())
        .with_graph_mode(GraphMode::Distributed);
    config.maintenance = MaintenanceMode::Reactive;
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    engine.run_to_fixpoint().unwrap();
    // Nothing materialised yet (only base records exist).
    let stores = engine.distributed_stores();
    assert!(stores["a"].derivations_of("reachable(@a,c)").is_empty());
    // Materialise on demand (e.g. after an anomaly is detected).
    let materialised = engine.materialize_provenance();
    assert!(materialised > 0);
    let stores = engine.distributed_stores();
    assert!(!stores["a"].derivations_of("reachable(@a,c)").is_empty());
}

/// Regression (found by `config_swarm_prop`): a row that died before
/// reactive maintenance materialised its records left an archive entry
/// that never learned of the death, where proactive maintenance stamps it.
/// The death now materialises the row's deferred records first.
#[test]
fn a_reactive_archive_stamps_rows_that_died_before_materialisation() {
    let program = parse_program(REACHABLE).unwrap();
    let archive = |maintenance| {
        let mut config = EngineConfig::ndlog().with_cost_model(fast_cost());
        config.maintenance = maintenance;
        config.archive_offline = true;
        let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
        insert_figure1_links(&mut engine);
        let down = ChurnScript::new().link_down(5_000_000, str_val("a"), str_val("b"));
        engine.run_scenario(&down).unwrap();
        engine.materialize_provenance();
        let archive = engine.archive(&str_val("a")).unwrap();
        let entries = ["link", "reachable"].map(|pred| archive.query(pred, None, None));
        let mut entries: Vec<String> = entries.concat().iter().map(|e| format!("{e:?}")).collect();
        entries.sort();
        entries
    };
    let (lazy, eager) = (
        archive(MaintenanceMode::Reactive),
        archive(MaintenanceMode::Proactive),
    );
    assert!(eager
        .iter()
        .any(|e| e.contains("reachable(@a,b)") && e.contains("r1@a")));
    assert_eq!(lazy, eager);
}

/// Regression: an archive entry is filed where the rule fired, and the
/// row's death used to stamp only the archive of the node it died at.
#[test]
fn a_death_stamps_the_archive_of_the_node_that_derived_the_row() {
    let program = parse_program(REACHABLE).unwrap();
    let mut config = EngineConfig::ndlog().with_cost_model(fast_cost());
    config.archive_offline = true;
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    let down = ChurnScript::new().link_down(5_000_000, str_val("a"), str_val("b"));
    engine.run_scenario(&down).unwrap();
    // `r2`'s localized first half fires at a and ships `link_at_z(a,@b)`
    // to b, where it dies once the link is down.
    assert!(engine.query(&str_val("b"), "link_at_z").is_empty());
    let archive = engine.archive(&str_val("a")).unwrap();
    let entries: Vec<_> = archive.entries_of("link_at_z(a,@b)").collect();
    assert!(!entries.is_empty());
    assert!(
        entries.iter().all(|entry| entry.expired_at.is_some()),
        "{entries:?}"
    );
}

#[test]
fn joins_probe_secondary_indexes() {
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::ndlog().with_cost_model(fast_cost());
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    // The planner's specs were installed on every node store up front.
    assert!(!engine.compiled().index_specs().is_empty());
    insert_figure1_links(&mut engine);
    let metrics = engine.run_to_fixpoint().unwrap();
    // Every localized reachability join keys on the shared location
    // variable, so all join work goes through the index path.
    assert!(metrics.index_probes > 0, "{metrics}");
    assert!(metrics.index_hits > 0, "{metrics}");
    assert_eq!(metrics.scan_probes, 0, "{metrics}");
    // The results are the same as the scan-based engine produced.
    assert_eq!(engine.query(&str_val("a"), "reachable").len(), 2);
    assert_eq!(engine.query(&str_val("b"), "reachable").len(), 1);
}

#[test]
fn cross_products_fall_back_to_ordered_scans() {
    // q and r share no value variables (SeNDlog context, so there are
    // no location columns either): the join has no bound key columns
    // and must scan.
    let program = parse_program("At S:\n x p(X,Y) :- q(X), r(Y).").unwrap();
    let config = EngineConfig::ndlog().with_cost_model(fast_cost());
    let locations = vec![str_val("a")];
    let mut engine = DistributedEngine::new(&program, config, &locations).unwrap();
    engine
        .insert_fact(str_val("a"), Tuple::new("q", vec![Value::Int(1)]))
        .unwrap();
    engine
        .insert_fact(str_val("a"), Tuple::new("r", vec![Value::Int(2)]))
        .unwrap();
    let metrics = engine.run_to_fixpoint().unwrap();
    assert_eq!(engine.query(&str_val("a"), "p").len(), 1);
    assert!(metrics.scan_probes > 0, "{metrics}");
    assert_eq!(metrics.index_probes, 0, "{metrics}");
}

/// A three-column `link(a,b,9)`, which REACHABLE's two-column `link` refuses.
fn wide_link() -> Tuple {
    Tuple::new("link", vec![str_val("a"), str_val("b"), Value::Int(9)])
}

/// A predicate REACHABLE never names, so any arity goes.
fn sensor() -> Tuple {
    Tuple::new("sensor", vec![Value::Int(1)])
}

fn assert_wide_link_refused(result: Result<impl fmt::Debug, EngineError>) {
    match result.unwrap_err() {
        EngineError::ArityMismatch {
            predicate,
            expected,
            got,
        } => {
            assert_eq!(predicate, "link");
            assert_eq!((expected, got), (2, 3));
        }
        other => panic!("expected arity mismatch, got {other}"),
    }
}

/// A deployment of REACHABLE over Figure 1's links with dynamics and soft
/// state, so retractions and refreshes apply.
fn churnable_figure1() -> DistributedEngine {
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::ndlog()
        .with_cost_model(fast_cost())
        .with_default_ttl_us(60_000_000)
        .with_dynamics();
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    engine
}

#[test]
fn arity_mismatch_is_rejected_at_insertion() {
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::ndlog().with_cost_model(fast_cost());
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    assert_wide_link_refused(engine.insert_fact(str_val("a"), wide_link()));
    // Predicates unknown to the program are not constrained.
    engine.insert_fact(str_val("a"), sensor()).unwrap();
}

#[test]
fn arity_mismatch_is_rejected_at_retraction() {
    let mut engine = churnable_figure1();
    assert_wide_link_refused(engine.retract_fact_at(str_val("a"), wide_link(), SimTime::ZERO));
    // Predicates unknown to the program are not constrained; one never
    // asserted has nothing to withdraw.
    engine
        .retract_fact_at(str_val("a"), sensor(), SimTime::ZERO)
        .unwrap();
    engine.run_scenario(&ChurnScript::new()).unwrap();
    assert_eq!(engine.query(&str_val("a"), "link").len(), 2);
}

#[test]
fn arity_mismatch_is_rejected_in_a_scripted_retraction() {
    let retract = ChurnEvent::Retract {
        location: str_val("a"),
        tuple: wide_link(),
    };
    let script = ChurnScript::new().at(5_000_000, retract);
    assert_wide_link_refused(churnable_figure1().run_scenario(&script));
}

#[test]
fn arity_mismatch_is_rejected_in_a_scripted_refresh() {
    let refresh = ChurnEvent::Refresh {
        location: str_val("a"),
        tuple: wide_link(),
    };
    let script = ChurnScript::new().at(5_000_000, refresh);
    assert_wide_link_refused(churnable_figure1().run_scenario(&script));
    // The same refresh at the declared arity runs.
    let refresh = ChurnEvent::Refresh {
        location: str_val("a"),
        tuple: link("a", "b"),
    };
    let script = ChurnScript::new().at(5_000_000, refresh);
    churnable_figure1().run_scenario(&script).unwrap();
}

#[test]
fn unknown_location_is_an_error() {
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::ndlog().with_cost_model(fast_cost());
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    let err = engine
        .insert_fact(str_val("zz"), link("zz", "a"))
        .unwrap_err();
    assert!(matches!(err, EngineError::UnknownLocation(_)));
    assert!(err.to_string().contains("unknown location"));
}

fn sorted_rows(engine: &DistributedEngine, loc: &Value, pred: &str) -> Vec<String> {
    let mut rows: Vec<String> = engine
        .query(loc, pred)
        .into_iter()
        .map(|(t, m)| format!("{:?} {}", t.values, m.tag))
        .collect();
    rows.sort();
    rows
}

#[test]
fn retraction_is_provenance_exact_under_derivation_counts() {
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::ndlog()
        .with_cost_model(fast_cost())
        .with_provenance(ProvenanceKind::Count)
        .with_dynamics();
    let reach_ac = Tuple::new("reachable", vec![str_val("a"), str_val("c")]);
    let reach_bc = Tuple::new("reachable", vec![str_val("b"), str_val("c")]);

    // Static fixpoint: reachable(a,c) has two derivations (directly via
    // link(a,c), and via b).
    let mut engine =
        DistributedEngine::new(&program, config.clone(), &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    engine.run_to_fixpoint().unwrap();
    assert_eq!(
        engine.render_provenance(&str_val("a"), &reach_ac).unwrap(),
        "<2 derivations>"
    );

    // Retract link(a,c): the direct derivation is withdrawn, the tuple
    // survives with a decremented DerivationCount.
    let script = ChurnScript::new().at(
        5_000_000,
        ChurnEvent::Retract {
            location: str_val("a"),
            tuple: link("a", "c"),
        },
    );
    let mut engine =
        DistributedEngine::new(&program, config.clone(), &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    let metrics = engine.run_scenario(&script).unwrap();
    assert_eq!(
        engine.render_provenance(&str_val("a"), &reach_ac).unwrap(),
        "<1 derivations>"
    );
    assert_eq!(metrics.churn_events, 1);
    // link(a,c) itself plus the localized intermediate tuple derived
    // solely from it; reachable(a,c) survives on the path through b.
    assert!(metrics.retractions >= 1, "{metrics}");
    assert_eq!(engine.query(&str_val("a"), "reachable").len(), 2);

    // Retract link(a,b) too: reachable(a,c) loses its last derivation
    // and cascades away; b's own state is untouched.
    let script = script.at(
        6_000_000,
        ChurnEvent::Retract {
            location: str_val("a"),
            tuple: link("a", "b"),
        },
    );
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    let metrics = engine.run_scenario(&script).unwrap();
    assert!(engine.query(&str_val("a"), "reachable").is_empty());
    assert_eq!(
        engine.render_provenance(&str_val("b"), &reach_bc).unwrap(),
        "<1 derivations>"
    );
    assert!(metrics.retractions > 2, "the cascade removed derived state");
}

#[test]
fn link_flap_reconverges_to_the_never_flapped_fixpoint() {
    let program = parse_program(REACHABLE).unwrap();
    let config = || EngineConfig::sendlog_session().with_cost_model(fast_cost());

    let mut stat = DistributedEngine::new(&program, config(), &line5_locations()).unwrap();
    insert_line5_links(&mut stat);
    let static_metrics = stat.run_to_fixpoint().unwrap();

    // Flap n1 → n2 down, then back up: everything derived through the
    // link is withdrawn (tombstones across nodes), then re-derived.
    let script = ChurnScript::new()
        .link_down(5_000_000, str_val("n1"), str_val("n2"))
        .link_up(10_000_000, str_val("n1"), str_val("n2"));
    let mut flapped = DistributedEngine::new(&program, config(), &line5_locations()).unwrap();
    insert_line5_links(&mut flapped);
    let metrics = flapped.run_scenario(&script).unwrap();

    for loc in line5_locations() {
        assert_eq!(
            sorted_rows(&flapped, &loc, "reachable"),
            sorted_rows(&stat, &loc, "reachable"),
            "post-flap fixpoint at {loc}"
        );
        assert_eq!(
            sorted_rows(&flapped, &loc, "link"),
            sorted_rows(&stat, &loc, "link"),
        );
    }
    assert_eq!(metrics.tuples_stored, static_metrics.tuples_stored);
    assert_eq!(metrics.churn_events, 2);
    assert!(metrics.retractions > 0, "{metrics}");
    assert!(metrics.rederivations > 0, "{metrics}");
    assert!(metrics.tombstone_frames > 0, "{metrics}");
    // The flapped link's channel was evicted and rebound with a fresh
    // epoch: more handshakes than the static run, no replay anomalies.
    assert!(metrics.handshakes > static_metrics.handshakes);
    assert_eq!(metrics.verification_failures, 0);
}

#[test]
fn scheduled_expiry_kills_soft_state_mid_run() {
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::ndlog()
        .with_cost_model(fast_cost())
        .with_default_ttl_us(2_000_000)
        .with_dynamics();
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    // No churn events at all: the TTL alone kills every derived tuple
    // during the run — no manual expire_all needed.
    let metrics = engine.run_scenario(&ChurnScript::new()).unwrap();
    assert_eq!(engine.query(&str_val("a"), "reachable").len(), 0);
    assert_eq!(engine.query(&str_val("a"), "link").len(), 2, "hard state");
    assert!(metrics.retractions > 0);
    assert_eq!(metrics.churn_events, 0);
}

#[test]
fn node_fail_and_rejoin_reconverge() {
    let program = parse_program(REACHABLE).unwrap();
    let config = || EngineConfig::sendlog().with_cost_model(fast_cost());
    let mut stat = DistributedEngine::new(&program, config(), &figure1_locations()).unwrap();
    insert_figure1_links(&mut stat);
    stat.run_to_fixpoint().unwrap();

    let script = ChurnScript::new()
        .node_fail(5_000_000, str_val("b"))
        .node_rejoin(9_000_000, str_val("b"));
    let mut churned = DistributedEngine::new(&program, config(), &figure1_locations()).unwrap();
    insert_figure1_links(&mut churned);
    let metrics = churned.run_scenario(&script).unwrap();
    for loc in figure1_locations() {
        assert_eq!(
            sorted_rows(&churned, &loc, "reachable"),
            sorted_rows(&stat, &loc, "reachable"),
            "post-rejoin fixpoint at {loc}"
        );
    }
    assert!(metrics.retractions > 0);
    assert!(metrics.rederivations > 0);
}

#[test]
fn rejoin_reasserts_a_twice_asserted_base_row_exactly_once() {
    // link(b,c) is base-asserted twice and one assertion is retracted: the
    // row survives on the other.  When b fails and rejoins, the row comes
    // back as *one* assertion — a single later retraction removes it.
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::ndlog()
        .with_cost_model(fast_cost())
        .with_provenance(ProvenanceKind::Count);
    let retract_bc = |script: ChurnScript, at| {
        let (location, tuple) = (str_val("b"), link("b", "c"));
        script.at(at, ChurnEvent::Retract { location, tuple })
    };
    let fail_and_rejoin = |script: ChurnScript| {
        script
            .node_fail(5_000_000, str_val("b"))
            .node_rejoin(9_000_000, str_val("b"))
    };
    let run = |script: ChurnScript| {
        let mut engine = DistributedEngine::new(&program, config.clone(), &figure1_locations())
            .expect("deployable");
        insert_figure1_links(&mut engine);
        engine.insert_fact(str_val("b"), link("b", "c")).unwrap();
        engine.run_scenario(&script).unwrap();
        engine
    };

    let once = retract_bc(ChurnScript::new(), 1_000_000);
    let rejoined = fail_and_rejoin(once.clone());
    let gone = run(retract_bc(rejoined.clone(), 12_000_000));
    let (once, rejoined) = (run(once), run(rejoined));
    for loc in figure1_locations() {
        for pred in ["link", "reachable"] {
            assert_eq!(
                sorted_rows(&rejoined, &loc, pred),
                sorted_rows(&once, &loc, pred),
                "{pred} at {loc}: rejoin restores the singly asserted fixpoint, tags included"
            );
        }
    }
    assert!(sorted_rows(&gone, &str_val("b"), "link").is_empty());
    assert!(sorted_rows(&gone, &str_val("b"), "reachable").is_empty());
}

#[test]
fn tombstones_never_consume_base_support() {
    // p(1) is both base-asserted and derived from q(1).  Without
    // semiring provenance every contribution tag is `ProvTag::None`,
    // so a tombstone for the derived contribution could match the base
    // entry by tag alone — it must not: after retracting q(1), p(1)
    // survives on its base assertion.
    let program = parse_program("At S:\n r1 p(X) :- q(X).").unwrap();
    let config = EngineConfig::ndlog()
        .with_cost_model(fast_cost())
        .with_dynamics();
    let locations = vec![str_val("a")];
    let mut engine = DistributedEngine::new(&program, config, &locations).unwrap();
    let p1 = Tuple::new("p", vec![Value::Int(1)]);
    engine
        .insert_fact(str_val("a"), Tuple::new("q", vec![Value::Int(1)]))
        .unwrap();
    engine.insert_fact(str_val("a"), p1.clone()).unwrap();
    let script = ChurnScript::new().at(
        5_000_000,
        ChurnEvent::Retract {
            location: str_val("a"),
            tuple: Tuple::new("q", vec![Value::Int(1)]),
        },
    );
    engine.run_scenario(&script).unwrap();
    assert_eq!(engine.query(&str_val("a"), "q").len(), 0);
    assert!(
        engine
            .query(&str_val("a"), "p")
            .iter()
            .any(|(t, _)| *t == p1),
        "base-asserted p(1) must survive the derived contribution's tombstone"
    );
}

#[test]
fn recursive_self_support_is_swept() {
    // p and q support each other; only the base q(1) grounds them.
    // Counting alone would keep the pair alive after the base is
    // retracted — the well-founded sweep must collect the cycle.
    let program = parse_program(
        "At S:\n\
         r1 p(X) :- q(X).\n\
         r2 q(X) :- p(X).",
    )
    .unwrap();
    let config = EngineConfig::ndlog()
        .with_cost_model(fast_cost())
        .with_dynamics();
    let locations = vec![str_val("a")];
    let mut engine = DistributedEngine::new(&program, config, &locations).unwrap();
    engine
        .insert_fact(str_val("a"), Tuple::new("q", vec![Value::Int(1)]))
        .unwrap();
    let script = ChurnScript::new().at(
        5_000_000,
        ChurnEvent::Retract {
            location: str_val("a"),
            tuple: Tuple::new("q", vec![Value::Int(1)]),
        },
    );
    let metrics = engine.run_scenario(&script).unwrap();
    assert_eq!(engine.query(&str_val("a"), "p").len(), 0);
    assert_eq!(engine.query(&str_val("a"), "q").len(), 0);
    assert!(metrics.retractions >= 2);
}

#[test]
fn a_dropped_ledger_starts_over_and_keeps_cascading() {
    // One node joining 12 x 12 facts: 144 firings.  Retracting the left
    // facts one event at a time leaves the log more and more dead — it is
    // kept whole while any firing lives — until the twelfth drops it.  What
    // follows runs on ids that start over: new firings, then a cascade
    // through their lists.
    let program = parse_program("At S:\n j1 both(X,Y) :- left(X), right(Y).").unwrap();
    let config = EngineConfig::ndlog()
        .with_cost_model(fast_cost())
        .with_dynamics();
    let a = str_val("a");
    let fact = |side: &str, i: i64| Tuple::new(side, vec![Value::Int(i)]);
    let deploy = |lefts: &[i64], rights: &[i64]| {
        let locations = std::slice::from_ref(&a);
        let mut engine = DistributedEngine::new(&program, config.clone(), locations).unwrap();
        let facts = lefts.iter().map(|&i| fact("left", i));
        for tuple in facts.chain(rights.iter().map(|&i| fact("right", i))) {
            engine.insert_fact(a.clone(), tuple).unwrap();
        }
        engine
    };
    let mut script = ChurnScript::new();
    let lefts = (0..12).map(|i| ("left", i, false));
    let rest = [("left", 20, true), ("right", 0, false)];
    for (n, (side, i, insert)) in lefts.chain(rest).enumerate() {
        let (location, tuple) = (a.clone(), fact(side, i));
        let event = match insert {
            true => ChurnEvent::Insert { location, tuple },
            false => ChurnEvent::Retract { location, tuple },
        };
        script = script.at(5_000_000 + n as u64 * 1_000, event);
    }
    let all: Vec<i64> = (0..12).collect();
    let mut churned = deploy(&all, &all);
    let metrics = churned.run_scenario(&script).unwrap();
    let mut fresh = deploy(&[20], &all[1..]);
    fresh.run_to_fixpoint().unwrap();
    assert_eq!(
        sorted_rows(&churned, &a, "both"),
        sorted_rows(&fresh, &a, "both")
    );
    assert_eq!(metrics.derivations, 144 + 12);
    assert_eq!(metrics.peak_ledger_firings, 144);
    let ledger = &churned.nodes[0].ledger;
    assert_eq!(ledger.firings.len(), 12, "the 144 dead firings went whole");
    assert_eq!(ledger.firings.iter().filter(|f| f.alive).count(), 11);
    churned.check_ledger_consistency().unwrap();
}

#[test]
fn dynamics_cannot_be_armed_after_evaluation() {
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::ndlog().with_cost_model(fast_cost());
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    engine.run_to_fixpoint().unwrap();
    let err = engine.run_scenario(&ChurnScript::new()).unwrap_err();
    assert!(matches!(
        err,
        EngineError::Config(ConfigError::DynamicsAfterStart {
            entry_point: "run_scenario"
        })
    ));
    let err = engine.run_streaming(Vec::new()).unwrap_err();
    assert!(matches!(
        err,
        EngineError::Config(ConfigError::DynamicsAfterStart {
            entry_point: "run_streaming"
        })
    ));
    // And retractions without dynamics are refused up front.
    let err = engine
        .retract_fact_at(str_val("a"), link("a", "b"), SimTime::ZERO)
        .unwrap_err();
    let without = matches!(
        err,
        EngineError::Config(ConfigError::RetractionWithoutDynamics)
    );
    assert!(without);
}

#[test]
fn metrics_accessors_and_queries() {
    let program = parse_program(REACHABLE).unwrap();
    let config = EngineConfig::ndlog().with_cost_model(fast_cost());
    let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
    insert_figure1_links(&mut engine);
    let metrics = engine.run_to_fixpoint().unwrap();
    assert_eq!(engine.metrics(), &metrics);
    assert_eq!(engine.locations().len(), 3);
    assert_eq!(engine.principal_of(&str_val("b")), Some(PrincipalId(1)));
    assert_eq!(engine.principal_of(&str_val("zz")), None);
    let everywhere = engine.query_all("reachable");
    assert_eq!(everywhere.len(), 3);
    assert!(metrics.tuples_stored >= 6);
    assert!(metrics.derivations >= 3);
}

/// The modeled pool is bookkeeping on the one evaluation loop: whatever
/// `workers` says, every stored row (in insertion order, metadata included)
/// and every schedule counter is that of `workers = 1`.  Only the `Layout`
/// rows move; the pins are what a thread pool sharded `node_id % workers`
/// (PR 18's evaluator) reported on this deployment.
#[test]
fn modeled_pool_size_moves_only_the_layout_rows() {
    let program = parse_program(REACHABLE).unwrap();
    // Three disjoint 4-node clusters, each a ring plus a two-hop chord; at
    // every swept pool size a cluster's nodes land on several partitions.
    let locations: Vec<Value> = (0..12).map(Value::Addr).collect();
    let run = |config: EngineConfig| {
        let mut engine = DistributedEngine::new(&program, config, &locations).unwrap();
        for i in 0..12u32 {
            let base = i / 4 * 4;
            for offset in [1, 2] {
                let (src, dst) = (Value::Addr(i), Value::Addr(base + (i + offset) % 4));
                let link = Tuple::new("link", vec![src.clone(), dst]);
                engine.insert_fact(src, link).unwrap();
            }
        }
        let metrics = engine.run_to_fixpoint().unwrap();
        let rows: Vec<String> = locations
            .iter()
            .flat_map(|loc| engine.query(loc, "reachable"))
            .map(|(tuple, meta)| format!("{tuple:?} {meta:?}"))
            .collect();
        (metrics, rows)
    };
    let layout = |m: &RunMetrics| {
        let wall_us = m.parallel_wall.as_micros() as u64;
        (
            m.partitions,
            m.cross_partition_frames,
            m.max_partition_queue,
            wall_us,
        )
    };

    // The paper's cost model, batched: the configuration the pool served.
    let batched = || EngineConfig::ndlog().with_batching();
    let (baseline, want) = run(batched());
    assert_eq!(want.len(), 12 * 4, "every node reaches its whole cluster");
    assert_eq!(layout(&baseline), (1, 0, 0, 337_200));
    let pool = [
        (2, (2, 42, 18, 192_720)),
        (4, (4, 84, 9, 132_420)),
        (8, (8, 84, 6, 88_280)),
    ];
    for (workers, pinned) in pool {
        let (metrics, rows) = run(batched().with_workers(workers));
        assert_eq!(metrics.diff(&baseline, Scope::Schedule), [], "{workers}");
        assert_eq!(rows, want, "insertion order at {workers} workers");
        assert_eq!(metrics.worker_threads, workers as u64);
        assert_eq!(layout(&metrics), pinned, "layout at {workers} workers");
    }

    // Unbatched with condensed provenance — inline seals, the shared
    // variable table: what kept threads off is nothing to a model.
    let (baseline, want) = run(EngineConfig::sendlog_prov());
    let (metrics, rows) = run(EngineConfig::sendlog_prov().with_workers(4));
    assert_eq!(metrics.diff(&baseline, Scope::Schedule), []);
    assert_eq!(rows, want);
    assert!(metrics.parallel_wall < baseline.parallel_wall);
}

/// One scheduling event either way: a `Handshakes` of one evaluated
/// directly — as the lossy transport releases it — and the same handshake
/// queued and popped through `pop_wave`'s coalescing count one batch and one
/// RSA verification, occupy the receiver's lane alike and install the channel.
#[test]
fn a_lone_handshake_and_a_coalesced_one_charge_the_same() {
    let program = parse_program(REACHABLE).unwrap();
    let (a, b) = (NodeId(0), NodeId(1));
    let at = SimTime::from_micros(700);
    let deliver = |queued: bool| {
        let config = EngineConfig::sendlog_session();
        let mut engine = DistributedEngine::new(&program, config, &figure1_locations()).unwrap();
        let sender = engine.nodes[ix(a)].authenticator.as_ref().unwrap();
        let (handshake, _) = sender.open_channel(principal_of(b), 0, 64);
        let work = NodeWork::Handshakes {
            destination: b,
            handshakes: vec![handshake],
        };
        if queued {
            engine.queue.push_node(at, work);
            engine.run_to_fixpoint().unwrap();
        } else {
            engine.eval_event(at, work).unwrap();
        }
        let receiver = &engine.nodes[ix(b)];
        assert!(receiver.peers[&a].recv.is_some(), "channel installed");
        let m = &engine.metrics;
        let lane = (receiver.busy_until, receiver.cpu_spent);
        (m.handshake_batches, m.rsa_verify_ops, m.hmac_ops, lane)
    };
    let lone = deliver(false);
    let verify = SimTime::from_micros(CostModel::paper_2008().rsa_verify_us);
    assert_eq!(lone, (1, 1, 1, (at + verify, verify)));
    assert_eq!(deliver(true), lone);
}

#[test]
fn a_row_is_said_only_by_principals_that_still_say_it() {
    // p(n2,1) is said to n2 by n0, then by n1; then one of them withdraws.
    // The stored row must unify `W says p(…)` with a principal that still
    // says it, as the from-scratch run of the final facts does.
    let program = parse_program(
        "At N:\n\
         t1 p(D,X)@D :- src(N,D,X).\n\
         t2 q(N,X,W) :- W says p(N,X).",
    )
    .unwrap();
    let locations: Vec<Value> = (0..3).map(Value::Addr).collect();
    let src = |n: u32| {
        let values = vec![Value::Addr(n), Value::Addr(2), Value::Int(1)];
        (Value::Addr(n), Tuple::new("src", values))
    };
    // The `p` and `q` rows at n2 with their rendered tags.
    let said = |engine: &DistributedEngine| -> Vec<String> {
        let rows = ["p", "q"].into_iter();
        let rows = rows.flat_map(|pred| engine.query(&Value::Addr(2), pred));
        rows.map(|(t, m)| format!("{t} {}", m.tag.render(engine.var_table())))
            .collect()
    };
    for config in [EngineConfig::ndlog(), EngineConfig::sendlog_prov()] {
        let config = config.with_cost_model(fast_cost()).with_dynamics();
        let engine = |first: u32| {
            let mut engine = DistributedEngine::new(&program, config.clone(), &locations).unwrap();
            let (location, tuple) = src(first);
            engine.insert_fact(location, tuple).unwrap();
            engine
        };
        // n0 says it first, n1 a second later, `leaver` withdraws at 5 s.
        let churned = |leaver: u32| {
            let (second, tuple) = src(1);
            let script = ChurnScript::new().at(
                1_000_000,
                ChurnEvent::Insert {
                    location: second,
                    tuple,
                },
            );
            let (location, tuple) = src(leaver);
            let script = script.at(5_000_000, ChurnEvent::Retract { location, tuple });
            let mut engine = engine(0);
            let metrics = engine.run_scenario(&script).unwrap();
            assert_eq!(engine.check_ledger_consistency(), Ok(()));
            assert_eq!(engine.check_speaker_consistency(), Ok(()));
            (said(&engine), metrics.retractions, metrics.rederivations)
        };
        let fresh = |only: u32| {
            let mut engine = engine(only);
            engine.run_to_fixpoint().unwrap();
            said(&engine)
        };
        // The recorded speaker withdraws: the row dies with its cascade
        // (src, p, q) and the survivor is said again under its own name.
        let (rows, retractions, rederivations) = churned(0);
        assert!(rows[1].starts_with("q(n2,1,n1)"), "{rows:?}");
        assert_eq!((rows, retractions, rederivations), (fresh(1), 3, 1));
        // The other one withdraws: nothing but its own contribution moves.
        assert_eq!(churned(1), (fresh(0), 1, 0));
    }
}
