//! The paper's provenance optimisations as pinned counter claims, each on the
//! reachability deployment (`reachability_ndlog()` over
//! `workload::evaluation_topology(n, seed)`, default cost model): BDD
//! condensation (§4.4), provenance granularity, local vs distributed graphs
//! (§4.1), proactive vs reactive maintenance, sampling and random moonwalks
//! (§5), and the `says` strength spectrum (§2.2).  Each test asserts the
//! direction of effect the paper argues *and* pins the counters exactly, so a
//! change to how provenance is recorded or shipped moves them knowingly.

use pasn::prelude::*;
use pasn::workload;
use pasn_crypto::says::SaysLevel;
use pasn_engine::{ConfigError, EngineError};
use pasn_provenance::{
    ArchivedEntry, Granularity, MaintenanceMode, MoonwalkConfig, SamplingPolicy,
};

fn builder(config: EngineConfig, n: u32, seed: u64) -> pasn::SecureNetworkBuilder {
    SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(workload::evaluation_topology(n, seed))
        .config(config)
}

fn deploy(config: EngineConfig, n: u32, seed: u64) -> (SecureNetwork, RunMetrics) {
    let mut net = builder(config, n, seed).build().expect("program compiles");
    let metrics = net
        .engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");
    (net, metrics)
}

/// Pointer records held across every node's distributed store.
fn pointer_entries(net: &SecureNetwork) -> usize {
    let stores = net.engine().distributed_stores();
    stores.values().map(|s| s.entry_count()).sum()
}

fn distributed(maintenance: MaintenanceMode, sampling: SamplingPolicy) -> EngineConfig {
    let mut config = EngineConfig::ndlog().with_graph_mode(GraphMode::Distributed);
    config.maintenance = maintenance;
    config.sampling = sampling;
    config
}

/// The query the local-vs-distributed and sampling claims ask at node 0.
const TARGET: &str = "reachable(@n0,n5)";

#[test]
fn condensed_provenance_ships_fewer_bytes_than_why_provenance() {
    let run = |kind| deploy(EngineConfig::ndlog().with_provenance(kind), 20, 5).1;
    let none = run(ProvenanceKind::None);
    let condensed = run(ProvenanceKind::Condensed);
    let why = run(ProvenanceKind::Why);
    let bytes = [&none, &condensed, &why].map(|m| m.provenance_bytes);
    assert!(bytes[0] < bytes[1] && bytes[1] < bytes[2], "{bytes:?}");
    assert_eq!(bytes, [0, 19_332, 37_700]);
    // Tags ride along with the rows: the fixpoint and its work are the same.
    for m in [&none, &condensed, &why] {
        assert_eq!((m.derivations, m.tuples_stored), (1_320, 520));
    }
}

#[test]
fn as_granularity_collapses_condensed_origins() {
    let n = 16;
    let run = |granularity| {
        let mut config = EngineConfig::ndlog().with_provenance(ProvenanceKind::Condensed);
        config.granularity = granularity;
        let (net, metrics) = deploy(config, n, 9);
        // A condensed tag's variables are its origins, interned densely.
        let table = net.engine().var_table();
        let origins = (0..).take_while(|&v| table.principal_of(v).is_some());
        (metrics.provenance_bytes, origins.count())
    };
    let node = run(Granularity::Node);
    let as_of_4 = run(Granularity::uniform_as(n, 4));
    let as_of_8 = run(Granularity::uniform_as(n, 8));
    // Coarser origins: fewer provenance variables, fewer tag bytes.
    assert!(node.0 > as_of_4.0 && as_of_4.0 > as_of_8.0);
    assert_eq!(
        [node, as_of_4, as_of_8],
        [(11_728, 16), (8_616, 4), (7_088, 2)]
    );
}

#[test]
fn local_graphs_ship_provenance_and_answer_without_remote_hops() {
    let n0 = Value::Addr(0);
    let graphs = |mode| EngineConfig::ndlog().with_graph_mode(mode);
    let (local, local_m) = deploy(graphs(GraphMode::Local), 15, 5);
    let (dist, dist_m) = deploy(graphs(GraphMode::Distributed), 15, 5);
    // Local provenance piggybacks every subtree; distributed ships nothing.
    assert_eq!(
        (local_m.provenance_bytes, dist_m.provenance_bytes),
        (227_595, 0)
    );

    // Local: n0's own store answers, no other node is asked.
    let store = local
        .engine()
        .provenance_store(&n0)
        .expect("n0 is deployed");
    assert!(!store.derivations_of(TARGET).is_empty(), "derived at n0");
    let local_support = store.base_support(TARGET);
    // The same traceback over the Local deployment never leaves n0's store
    // (Section 4.1: local provenance answers without a distributed query).
    let at_n0 = local.engine().traceback(&n0, TARGET);
    assert_eq!(at_n0.remote_hops, 0);
    assert!(at_n0.base_tuples.is_superset(&local_support));
    // Distributed: the same question is a traceback across the stores.
    let traceback = dist.engine().traceback(&n0, TARGET);
    let walked = (traceback.visited.len(), traceback.remote_hops);
    assert_eq!(walked, (77, 48));
    assert_eq!((local_support.len(), traceback.base_tuples.len()), (9, 24));
    // Both the local records and a tag are firing-time snapshots, so the
    // local answer is a subset of what the traceback finds, not necessarily
    // equal.
    assert!(local_support.is_subset(&traceback.base_tuples));
    let (why, _) = deploy(
        EngineConfig::ndlog().with_provenance(ProvenanceKind::Why),
        15,
        5,
    );
    let mut rows = why.engine().query(&n0, "reachable").into_iter();
    let (_, meta) = rows
        .find(|(t, _)| t.render_located(Some(0)) == TARGET)
        .expect("derived");
    let ProvTag::Why(tag) = meta.tag else {
        panic!("expected an uncondensed why tag, got {:?}", meta.tag)
    };
    assert_eq!(tag.support(), local_support);
}

#[test]
fn reactive_provenance_defers_work_until_materialisation() {
    let (proactive, _) = deploy(
        distributed(MaintenanceMode::Proactive, SamplingPolicy::always()),
        15,
        13,
    );
    let (mut reactive, _) = deploy(
        distributed(MaintenanceMode::Reactive, SamplingPolicy::always()),
        15,
        13,
    );
    // Reactive maintenance holds the base records only until an event asks
    // for provenance; materialising then records exactly what proactive did.
    let deferred = pointer_entries(&reactive);
    let materialised = reactive.engine_mut().materialize_provenance();
    let counts = (pointer_entries(&proactive), deferred, materialised);
    assert_eq!(counts, (1_530, 45, 1_485));
    assert_eq!(pointer_entries(&reactive), pointer_entries(&proactive));
    let n0 = Value::Addr(0);
    let eager = proactive.engine().traceback(&n0, TARGET);
    let lazy = reactive.engine().traceback(&n0, TARGET);
    assert_eq!(lazy.base_tuples, eager.base_tuples);
    assert!(!lazy.base_tuples.is_empty());

    // With offline archives on, materialising also archives exactly what
    // proactive did: rule firings only, never a `recv` pointer.
    let archives = |maintenance| {
        let mut config = distributed(maintenance, SamplingPolicy::always());
        config.archive_offline = true;
        let (mut net, _) = deploy(config, 15, 13);
        net.engine_mut().materialize_provenance();
        let node = |at| {
            let archive = net.engine().archive(&Value::Addr(at)).expect("deployed");
            let predicates = net.engine().compiled().symbols.iter();
            let entries = predicates.flat_map(|(_, pred)| archive.query(pred, None, None));
            let fields = |e: &ArchivedEntry| (e.key.clone(), e.annotation.clone(), e.derived_at);
            entries.map(fields).collect::<Vec<_>>()
        };
        (0..15).map(node).collect::<Vec<_>>()
    };
    let (eager, lazy) = (
        archives(MaintenanceMode::Proactive),
        archives(MaintenanceMode::Reactive),
    );
    assert!(eager.iter().all(|node| !node.is_empty()));
    assert_eq!(lazy, eager);

    // A local graph has nothing to piggyback before it is materialised, so
    // reactive maintenance of local graphs would lose every remote subtree.
    let mut local = EngineConfig::ndlog().with_graph_mode(GraphMode::Local);
    local.maintenance = MaintenanceMode::Reactive;
    match builder(local, 15, 13).build() {
        Err(EngineError::Config(ConfigError::ReactiveLocalGraphs)) => {}
        Err(other) => panic!("expected the reactive + local rejection, got {other}"),
        Ok(_) => panic!("reactive maintenance of local graphs was accepted"),
    }
}

#[test]
fn sampling_reduces_recorded_provenance() {
    let run = |policy| deploy(distributed(MaintenanceMode::Proactive, policy), 15, 5);
    let runs = [1, 4, 16].map(|k| run(SamplingPolicy { one_in: k }));
    // Sampling chooses what is recorded, never what is derived.
    let rows = |net: &SecureNetwork| {
        let rows = net.engine().query_all("reachable").into_iter();
        rows.map(|(at, t, _)| (at, t)).collect::<Vec<_>>()
    };
    for (net, _) in &runs[1..] {
        assert_eq!(rows(net), rows(&runs[0].0));
    }
    let recorded = runs
        .each_ref()
        .map(|(_, m)| (m.derivations - m.sampled_out, m.derivations));
    assert_eq!(recorded, [(765, 765), (151, 765), (50, 765)]);
    // 1-in-k keeps the 45 base records and about 1/k of the pointers.
    let entries = runs.each_ref().map(|(net, _)| pointer_entries(net));
    assert_eq!(entries, [1_530, 340, 143]);
    // A receiver keeps its `recv` pointer exactly when the sender kept the
    // record it points at: over every row's traceback, (tracebacks that
    // ground out, pointers left unresolved).
    let tracebacks = runs.each_ref().map(|(net, _)| {
        let rows = net.engine().query_all("reachable").into_iter();
        rows.map(|(at, t, _)| net.engine().traceback(&at, &t.render_located(Some(0))))
            .fold((0, 0), |(grounded, unresolved), tb| {
                let grounded = grounded + usize::from(!tb.base_tuples.is_empty());
                (grounded, unresolved + tb.unresolved.len())
            })
    });
    assert_eq!(tracebacks, [(225, 0), (33, 461), (5, 303)]);

    // Random moonwalks over the full store: a growing sample of the origins
    // exhaustive traceback finds, never a tuple it does not.
    let (full, _) = &runs[0];
    let n0 = Value::Addr(0);
    let traceback = full.engine().traceback(&n0, TARGET);
    assert_eq!(traceback.base_tuples.len(), 24);
    let walks = [8, 32, 128].map(|walks| {
        let sampled = full.engine().moonwalk(
            &n0,
            TARGET,
            &MoonwalkConfig {
                walks,
                ..MoonwalkConfig::default()
            },
        );
        let found = sampled.base_frequency.keys();
        assert!(found.into_iter().all(|b| traceback.base_tuples.contains(b)));
        (sampled.records_read, sampled.base_frequency.len())
    });
    assert_eq!(walks, [(45, 7), (166, 11), (671, 17)]);
}

#[test]
fn hmac_says_level_is_cheaper_than_rsa_but_still_adds_bytes() {
    let levels = [
        None,
        Some(SaysLevel::Cleartext),
        Some(SaysLevel::Hmac),
        Some(SaysLevel::Session),
        Some(SaysLevel::Rsa),
    ];
    let runs = levels.map(|level| {
        let config = EngineConfig::ndlog();
        deploy(level.map_or(config.clone(), |l| config.with_says(l)), 20, 5).1
    });
    let [none, clear, _, session, rsa] = &runs;
    // Proof bytes and completion time ordered by mechanism strength.  A
    // cleartext `says` still carries the 5-byte principal header the paper
    // mentions ("simply append a cleartext principal header to a message"),
    // so it is cheap but not free; only the unauthenticated baseline adds
    // nothing.
    let auth = runs.each_ref().map(|m| m.auth_bytes);
    assert!(auth.windows(2).all(|w| w[0] < w[1]), "{auth:?}");
    assert_eq!(auth, [0, 6_300, 46_620, 71_484, 89_460]);
    assert_eq!(clear.auth_bytes, 5 * clear.messages);
    let completion = runs.each_ref().map(|m| m.completion.as_micros());
    assert!(
        completion.windows(2).all(|w| w[0] <= w[1]),
        "{completion:?}"
    );
    assert_eq!(completion, [143_010, 143_010, 144_018, 156_658, 302_710]);
    // One message per frame everywhere; session channels add a handshake
    // per link.
    let messages = runs.each_ref().map(|m| m.messages);
    assert_eq!(messages, [1_260, 1_260, 1_260, 1_376, 1_260]);
    assert_eq!(session.handshakes, 116);
    assert_eq!(rsa.verifications, rsa.messages);
    assert_eq!(none.verifications, 0);
}

#[test]
fn online_provenance_follows_soft_state_lifetimes() {
    let config = EngineConfig::ndlog()
        .with_graph_mode(GraphMode::Local)
        .with_default_ttl_us(1_000_000)
        .with_cost_model(CostModel::zero_cpu());
    let (mut net, _) = deploy(config, 6, 2);

    let loc = Value::Addr(0);
    let live = net.engine().query(&loc, "reachable").into_iter();
    let live: Vec<String> = live.map(|(t, _)| t.render_located(Some(0))).collect();
    assert!(!live.is_empty());
    let records_before = net.engine().provenance_store(&loc).unwrap().entry_count();
    assert!(records_before > 0);

    // After the TTL passes, both the tuples and their online provenance are
    // gone; base links (hard state) survive.
    let dropped = net.engine_mut().expire_all(SimTime::from_secs_f64(30.0));
    assert!(dropped >= live.len());
    assert_eq!(net.engine().query(&loc, "reachable").len(), 0);
    assert!(!net.engine().query(&loc, "link").is_empty());
    let store = net.engine().provenance_store(&loc).unwrap();
    assert!(store.entry_count() < records_before);
    for key in &live {
        assert!(store.derivations_of(key).is_empty(), "{key} forgotten");
    }
}
