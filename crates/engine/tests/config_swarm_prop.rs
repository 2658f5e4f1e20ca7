//! Property test: the configuration table is the whole truth.
//!
//! `config_swarm_prop` draws a topology over [`NODES`], a churn script, a
//! driver (`run_to_fixpoint`, `run_scenario` or `run_streaming`) and an
//! [`EngineConfig`] from [`arb_config`] — a swarm, each field sometimes off
//! — and checks what holds in every reachable configuration:
//!
//! 1. **The table, both ways.**  `DistributedEngine::new` refuses exactly
//!    the configurations [`refusals`] names (this file's own statement of
//!    the table), with one of the errors it names; every other one
//!    converges, with consistent ledgers and links under dynamics.
//! 2. **Rows.**  Every node's `link` and `reachable` rows equal those of
//!    the *minimal twin*: the same configuration — TTL, dynamics, cost
//!    model and churn included — in cleartext, with no provenance, no
//!    batching, reliable links and no tracing.
//! 3. **Tags.**  Every row's tag equals that of the *tag twin*: the same
//!    configuration with graph mode `None`, proactive maintenance, full
//!    sampling and no tracing.  Graph bookkeeping never changes a tag.
//! 4. **Counters.**  The [`BLIND_COUNTERS`] equal the minimal twin's.
//! 5. **Maintenance is timing only.**  Under reactive maintenance, once
//!    materialised, every node's records and archive equal those of the
//!    *proactive twin*.
//! 6. **Stores and archives** ([`provenance_invariants`]): no `recv`
//!    pointer dangles, a dead row's archive entries are stamped, and a
//!    sweep by predicate reads that predicate only.
//!
//! Every run ends with `materialize_provenance`, and a `run_to_fixpoint`
//! run (no dynamics unless drawn) with `expire_all` past every TTL.
//! Invariants 5 and 6 are the ones the provenance-knob bugs of the
//! project's history would have broken: `recv` pointers kept for sampled-out
//! tuples, `expire_all` leaving provenance unsettled, reactive maintenance
//! archiving `recv` entries, and a predicate sweep matching a longer name.
//!
//! A failing case is shrunk before it is reported: each drawn field is
//! reset to its default in turn, and kept reset while the case still
//! fails, so the report names the smallest set of fields that fails.

use pasn_datalog::Value;
use pasn_engine::{
    ChurnEvent, ChurnScript, ConfigError, DistributedEngine, EngineConfig, EngineError, GraphMode,
    RunMetrics, Scope, TraceConfig, Tuple, TupleMeta,
};
use pasn_net::{FaultEvent, SimTime};
use pasn_provenance::{
    AntecedentRef, ArchiveStore, ArchivedEntry, MaintenanceMode, ProvenanceKind, SamplingPolicy,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

mod common;
use common::{arb_config, str_val, CONFIG_FIELDS, NODES};

/// Cases per run.
const CASES: u32 = 128;

/// The `Schedule` counters no knob the swarm draws may move: the minimal
/// twin's values are every configuration's.  They are the ones that read
/// the rows a run keeps (`tuples_stored`, the `store_bytes` /
/// `index_bytes` encoding of them and the `compaction_walked` their
/// deletions cost), the script (`churn_events`) and its honesty
/// (`verification_failures`).  Every other one moves with `says`,
/// batching, faults or provenance (`messages`, `bytes`, `frames`,
/// `signatures`, `derivations`, …) or with the schedule those change
/// (`completion`, `index_probes`, the peak gauges).
const BLIND_COUNTERS: [&str; 6] = [
    "tuples_stored",
    "store_bytes",
    "index_bytes",
    "compaction_walked",
    "churn_events",
    "verification_failures",
];

/// How a case drives its engine.
#[derive(Clone, Copy, Debug)]
enum Driver {
    Fixpoint,
    Scenario,
    Streaming,
}

/// Everything a case draws besides the configuration.
#[derive(Clone, Debug)]
struct Case {
    links: Vec<(usize, usize)>,
    script: ChurnScript,
    driver: Driver,
}

/// Up to eight links over [`NODES`], a churn script over them (a link
/// goes down, or down and up again, or is cut; sometimes a node crashes)
/// and a driver.
fn draw_case(rng: &mut TestRng) -> Case {
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut events: Vec<(u64, ChurnEvent)> = Vec::new();
    let node = |i: usize| str_val(NODES[i]);
    for _ in 0..1 + rng.below(8) {
        let word = rng.next_u64();
        let link = ((word % 4) as usize, ((word >> 8) % 4) as usize);
        if link.0 == link.1 || links.contains(&link) {
            continue;
        }
        let i = links.len() as u64;
        links.push(link);
        let (src, dst) = (node(link.0), node(link.1));
        match (word >> 16) % 4 {
            0 => events.push((5_000_000 + i * 1_000, ChurnEvent::LinkDown { src, dst })),
            1 => {
                let down = ChurnEvent::LinkDown {
                    src: src.clone(),
                    dst: dst.clone(),
                };
                events.push((5_000_000 + i * 1_000, down));
                let up = ChurnEvent::LinkUp {
                    src,
                    dst,
                    cost: None,
                };
                events.push((10_000_000 + i * 1_000, up));
            }
            2 => events.push((6_000_000 + i * 1_000, ChurnEvent::LinkCut { src, dst })),
            _ => {}
        }
    }
    if rng.below(4) == 0 {
        let crashed = node(rng.below(4) as usize);
        events.push((7_000_000, ChurnEvent::NodeCrash { node: crashed }));
    }
    events.sort_by_key(|&(at, _)| at);
    let script = events
        .into_iter()
        .fold(ChurnScript::new(), |script, (at, event)| {
            script.at(at, event)
        });
    let driver = match rng.below(3) {
        0 => Driver::Fixpoint,
        1 => Driver::Scenario,
        _ => Driver::Streaming,
    };
    Case {
        links,
        script,
        driver,
    }
}

/// The table, stated again from the field docs: every error the engine may
/// refuse `config` with on a deployment of `nodes` nodes, in no order.
fn refusals(config: &EngineConfig, nodes: usize) -> Vec<ConfigError> {
    let mut refused = Vec::new();
    if config.workers == 0 {
        refused.push(ConfigError::ZeroWorkers);
    }
    if config.max_batch_tuples == 0 {
        refused.push(ConfigError::ZeroBatchCap);
    }
    if config.channel_rebind_frames == 0 {
        refused.push(ConfigError::ZeroRebindHorizon);
    }
    if config.sampling.one_in == 0 {
        refused.push(ConfigError::ZeroSamplingRate);
    }
    let bits = config.rsa_modulus_bits;
    if config.says_level.is_some() && bits < 512 {
        refused.push(ConfigError::ModulusTooSmall { bits });
    }
    if config.maintenance == MaintenanceMode::Reactive && config.graph_mode == GraphMode::Local {
        refused.push(ConfigError::ReactiveLocalGraphs);
    }
    if let Some(plan) = &config.fault_plan {
        for &(_, event) in &plan.events {
            let named = match event {
                FaultEvent::LinkCut { src, dst } => vec![src, dst],
                FaultEvent::NodeCrash { node } => vec![node],
            };
            let outside = named.into_iter().filter(|&node| node as usize >= nodes);
            refused.extend(
                outside.map(|node| ConfigError::FaultEventOutsideDeployment { node, nodes }),
            );
        }
        let rates = [
            plan.drop_per_mille,
            plan.duplicate_per_mille,
            plan.delay_per_mille,
        ];
        let over = rates.into_iter().filter(|&rate| rate > 1000);
        refused.extend(over.map(|per_mille| ConfigError::FaultRateOutOfRange { per_mille }));
    }
    refused
}

/// What one run left behind.
struct Outcome {
    engine: DistributedEngine,
    metrics: RunMetrics,
}

/// Builds `config` over the case's topology and drives it; `Err` is the
/// engine's refusal or failure.
fn run(case: &Case, config: EngineConfig) -> Result<Outcome, EngineError> {
    let program = pasn_datalog::parse_program(common::REACHABLE).unwrap();
    let mut engine = DistributedEngine::new(&program, config, &common::locations())?;
    for &(src, dst) in &case.links {
        let link = Tuple::new("link", vec![str_val(NODES[src]), str_val(NODES[dst])]);
        engine.insert_fact(str_val(NODES[src]), link)?;
    }
    let metrics = match case.driver {
        Driver::Fixpoint => engine.run_to_fixpoint()?,
        Driver::Scenario => engine.run_scenario(&case.script)?,
        Driver::Streaming => engine.run_streaming(case.script.events().iter().cloned())?,
    };
    engine.materialize_provenance();
    if let Driver::Fixpoint = case.driver {
        // Without dynamics nothing expires during the run: a TTL's rows
        // are dropped here, long after the last one could have lived.
        engine.expire_all(SimTime::from_micros(1 << 40));
    }
    Ok(Outcome { engine, metrics })
}

/// Every node's rows of the reachability program, sorted, each rendered
/// by `render`.
fn rows_by(
    engine: &DistributedEngine,
    render: impl Fn(&Tuple, &TupleMeta) -> String,
) -> Vec<Vec<String>> {
    let node_rows = |location| {
        let rows = ["link", "reachable"].map(|pred| engine.query(location, pred));
        let mut rows: Vec<String> = rows.concat().iter().map(|(t, m)| render(t, m)).collect();
        rows.sort();
        rows
    };
    engine.locations().iter().map(node_rows).collect()
}

/// Every node's rows, values only.
fn rows(engine: &DistributedEngine) -> Vec<Vec<String>> {
    rows_by(engine, |tuple, _| tuple.to_string())
}

/// Every node's rows with their tags; a condensed tag as its minimal
/// products, which do not depend on where the BDD keeps its nodes.
fn tagged_rows(engine: &DistributedEngine) -> Vec<Vec<String>> {
    let table = engine.var_table();
    rows_by(engine, |tuple, meta| {
        format!("{tuple} {}", meta.tag.render(table))
    })
}

/// Checks one case; `Err` says what broke.
fn check(case: &Case, config: &EngineConfig) -> Result<(), String> {
    let refused = refusals(config, NODES.len());
    let outcome = match (run(case, config.clone()), refused.is_empty()) {
        (Ok(outcome), true) => outcome,
        (Err(EngineError::Config(e)), false) if refused.contains(&e) => return Ok(()),
        (Err(e), false) => return Err(format!("refused with `{e}`, the table says {refused:?}")),
        (Ok(_), false) => return Err(format!("converged, the table refuses {refused:?}")),
        (Err(e), true) => return Err(format!("the table admits it, the run failed: {e}")),
    };
    let meant = outcome.engine.config().clone();
    if meant.dynamics {
        outcome.engine.check_ledger_consistency()?;
        outcome.engine.check_link_consistency()?;
    }

    let minimal = EngineConfig {
        says_level: None,
        provenance: ProvenanceKind::None,
        graph_mode: GraphMode::None,
        maintenance: MaintenanceMode::Proactive,
        sampling: SamplingPolicy::always(),
        granularity: EngineConfig::default().granularity,
        archive_offline: false,
        batch_window_us: 0,
        fault_plan: None,
        trace: None,
        ..meant.clone()
    };
    let minimal = run(case, minimal).map_err(|e| format!("minimal twin: {e}"))?;
    if rows(&outcome.engine) != rows(&minimal.engine) {
        return Err(format!(
            "rows differ from the minimal twin's:\n  run     {:?}\n  minimal {:?}",
            rows(&outcome.engine),
            rows(&minimal.engine)
        ));
    }
    let moved = outcome.metrics.diff(&minimal.metrics, Scope::Schedule);
    let blind: Vec<_> = moved
        .iter()
        .filter(|(name, ..)| BLIND_COUNTERS.contains(name))
        .collect();
    if !blind.is_empty() {
        return Err(format!("(counter, run, minimal twin) moved: {blind:?}"));
    }

    provenance_invariants(&outcome.engine)?;
    if meant.maintenance == MaintenanceMode::Reactive {
        let proactive = EngineConfig {
            maintenance: MaintenanceMode::Proactive,
            trace: None,
            ..meant.clone()
        };
        let proactive = run(case, proactive).map_err(|e| format!("proactive twin: {e}"))?;
        let (lazy, eager) = (records(&outcome.engine), records(&proactive.engine));
        if lazy != eager {
            return Err(format!(
                "materialised records differ from the proactive twin's:\n  run  {lazy:?}\n  twin {eager:?}"
            ));
        }
    }

    let untracked = EngineConfig {
        graph_mode: GraphMode::None,
        maintenance: MaintenanceMode::Proactive,
        sampling: SamplingPolicy::always(),
        trace: None::<TraceConfig>,
        ..meant
    };
    if format!("{untracked:?}") == format!("{:?}", outcome.engine.config()) {
        return Ok(());
    }
    let untracked = run(case, untracked).map_err(|e| format!("tag twin: {e}"))?;
    if tagged_rows(&outcome.engine) != tagged_rows(&untracked.engine) {
        return Err(format!(
            "tags differ from the tag twin's:\n  run  {:?}\n  twin {:?}",
            tagged_rows(&outcome.engine),
            tagged_rows(&untracked.engine)
        ));
    }
    Ok(())
}

/// Every predicate of the localized program: the two of `REACHABLE` and
/// the intermediate its localizer ships `r2`'s link under (`link_at_z`,
/// located at its second column).
const PREDICATES: [&str; 3] = ["link", "reachable", "link_at_z"];

/// The keys the live rows at `location` are recorded under: each located
/// at the column its predicate is declared with.
fn live_keys(engine: &DistributedEngine, location: &Value) -> Vec<String> {
    let compiled = engine.compiled();
    let column = |pred: &str| {
        let id = compiled.symbols.resolve(pred)?;
        compiled.location_of_pred(id).flatten()
    };
    let rows = PREDICATES.map(|pred| engine.query(location, pred));
    let key = |(tuple, _): &(Tuple, TupleMeta)| tuple.render_located(column(&tuple.predicate));
    rows.concat().iter().map(key).collect()
}

/// Every entry of `archive`, predicate by predicate.
fn archived(archive: &ArchiveStore) -> Vec<&ArchivedEntry> {
    let swept = PREDICATES.map(|pred| archive.query(pred, None, None));
    swept.concat()
}

/// Every node's provenance, as sorted text: its records for each live row,
/// its record count and its archive entries (whose order is the order
/// they were written in, which reactive maintenance defers).
fn records(engine: &DistributedEngine) -> Vec<Vec<String>> {
    let node_records = |location: &Value| {
        let store = engine.provenance_store(location).unwrap();
        let live = live_keys(engine, location).into_iter();
        let mut texts: Vec<String> = live
            .map(|key| {
                let (base, records) = (store.base_support(&key), store.derivations_of(&key));
                format!("{key} {base:?} {records:?}")
            })
            .collect();
        texts.push(format!("{} records", store.entry_count()));
        let archive = archived(engine.archive(location).unwrap()).into_iter();
        texts.extend(archive.map(|entry| format!("{entry:?}")));
        texts.sort();
        texts
    };
    engine.locations().iter().map(node_records).collect()
}

/// What holds of every deployment's provenance stores and archives:
/// - **a `recv` pointer never dangles** — the sender holds a record of the
///   key it points at, since sampling decides both ends from the key alone;
/// - **a dead row's archive entries are stamped** — every archived entry,
///   at whichever node the firing that derived it was filed, whose key no
///   longer lives carries the time it died;
/// - **a sweep reads one predicate** — `ArchiveStore::query` by a
///   predicate name returns entries of that predicate only, and the
///   program's predicates together return every entry.
fn provenance_invariants(engine: &DistributedEngine) -> Result<(), String> {
    let store_of = |name: &str| engine.provenance_store(&str_val(name)).unwrap();
    let locations = engine.locations().iter();
    let everywhere: Vec<String> = locations.flat_map(|at| live_keys(engine, at)).collect();
    for location in engine.locations() {
        let store = engine.provenance_store(location).unwrap();
        let live = live_keys(engine, location);
        for key in &live {
            for record in store.derivations_of(key) {
                let [AntecedentRef::Remote {
                    location: from,
                    key: pointed,
                }] = &record.antecedents[..]
                else {
                    continue;
                };
                let sender = store_of(from);
                let resolves = !sender.derivations_of(pointed).is_empty()
                    || !sender.base_support(pointed).is_empty();
                if **pointed == **key && !resolves {
                    return Err(format!(
                        "{key} at {location}: its `recv` pointer to {from} dangles"
                    ));
                }
            }
        }
        let archive = engine.archive(location).unwrap();
        for entry in archived(archive) {
            if entry.expired_at.is_none() && !everywhere.contains(&entry.key.to_string()) {
                return Err(format!("{entry:?} at {location}: dead, and not stamped"));
            }
        }
        for pred in PREDICATES {
            let swept = archive.query(pred, None, None);
            let named = |key: &str| {
                key.strip_prefix(pred)
                    .is_some_and(|rest| rest.starts_with('('))
            };
            if let Some(stray) = swept.iter().find(|entry| !named(&entry.key)) {
                return Err(format!("a sweep of {pred} at {location} read {stray:?}"));
            }
        }
        if archived(archive).len() != archive.len() {
            return Err(format!("the sweeps at {location} miss an entry"));
        }
    }
    Ok(())
}

/// `check`, with a panic inside the engine reported as a failure.
fn outcome_of(case: &Case, config: &EngineConfig) -> Result<(), String> {
    let checked = catch_unwind(AssertUnwindSafe(|| check(case, config)));
    checked.unwrap_or_else(|panic| {
        let text = panic.downcast_ref::<String>().cloned();
        let text = text.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(format!("panicked: {}", text.unwrap_or_default()))
    })
}

/// Resets one field at a time to its default, keeping each reset under
/// which `case` still fails, until no single reset keeps it failing.
/// Returns the shrunk configuration, its failure and the fields it still
/// draws.
fn shrink(case: &Case, mut config: EngineConfig, mut failure: String) -> (EngineConfig, String) {
    let mut shrunk = true;
    while shrunk {
        shrunk = false;
        for (_, reset) in CONFIG_FIELDS {
            let mut candidate = config.clone();
            reset(&mut candidate);
            if format!("{candidate:?}") == format!("{config:?}") {
                continue;
            }
            if let Err(still) = outcome_of(case, &candidate) {
                (config, failure, shrunk) = (candidate, still, true);
            }
        }
    }
    (config, failure)
}

/// The fields of `config` off their default.
fn drawn_fields(config: &EngineConfig) -> Vec<&'static str> {
    let drawn = CONFIG_FIELDS.iter().filter(|(_, reset)| {
        let mut default = config.clone();
        reset(&mut default);
        format!("{default:?}") != format!("{config:?}")
    });
    drawn.map(|&(name, _)| name).collect()
}

#[test]
fn config_swarm_prop() {
    let mut rng = TestRng::for_test("config_swarm_prop");
    let (mut refused, mut converged) = (0, 0);
    for number in 0..CASES {
        let config = arb_config().generate(&mut rng);
        let case = draw_case(&mut rng);
        match outcome_of(&case, &config) {
            Ok(()) if refusals(&config, NODES.len()).is_empty() => converged += 1,
            Ok(()) => refused += 1,
            Err(failure) => {
                let (shrunk, failure) = shrink(&case, config, failure);
                panic!(
                    "case {number} fails with {:?} off their defaults:\n{failure}\n\
                     configuration {shrunk:#?}\ncase {case:#?}",
                    drawn_fields(&shrunk),
                );
            }
        }
    }
    // The swarm exercises both halves of the table.
    assert!(
        refused > 0 && converged > refused,
        "{refused} refused, {converged} converged"
    );
}
