//! Scaffolding shared by the engine's property tests: the reachability
//! program, the default four-node deployment and the helpers that build,
//! seed and read back an engine over it.  Every test binary uses its own
//! subset, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

use pasn_crypto::says::SaysLevel;
use pasn_datalog::Value;
use pasn_engine::{DistributedEngine, EngineConfig, GraphMode, TraceConfig, Tuple};
use pasn_net::{CostModel, FaultEvent, FaultPlan};
use pasn_provenance::{Granularity, MaintenanceMode, ProvTag, ProvenanceKind, SamplingPolicy};
use proptest::prelude::*;

pub const REACHABLE: &str = "
    r1 reachable(@S,D) :- link(@S,D).
    r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
";

/// The default deployment.
pub const NODES: [&str; 4] = ["a", "b", "c", "d"];

pub fn str_val(s: &str) -> Value {
    Value::Str(s.into())
}

/// The location values of [`NODES`].
pub fn locations() -> Vec<Value> {
    NODES.iter().map(|n| str_val(n)).collect()
}

/// One of the three `says` levels the equivalence properties sweep.
pub fn says_config(pick: u64) -> EngineConfig {
    match pick % 3 {
        0 => EngineConfig::ndlog(),
        1 => EngineConfig::sendlog(),
        _ => EngineConfig::sendlog_session(),
    }
}

/// The reachability program over [`NODES`] with dynamics armed, zero CPU
/// cost and `links` (node positions) inserted at time zero.
pub fn reach_engine(config: EngineConfig, links: &[(usize, usize)]) -> DistributedEngine {
    let program = pasn_datalog::parse_program(REACHABLE).unwrap();
    let mut engine = DistributedEngine::new(
        &program,
        config
            .with_cost_model(CostModel::zero_cpu())
            .with_dynamics(),
        &locations(),
    )
    .unwrap();
    for &(src, dst) in links {
        engine
            .insert_fact(
                str_val(NODES[src]),
                Tuple::new("link", vec![str_val(NODES[src]), str_val(NODES[dst])]),
            )
            .unwrap();
    }
    engine
}

/// Per-node canonically ordered `(values, tag)` renderings of `pred`.
pub fn fixpoint_of(engine: &DistributedEngine, pred: &str) -> Vec<Vec<String>> {
    engine
        .locations()
        .iter()
        .map(|loc| {
            let mut rows: Vec<String> = engine
                .query(loc, pred)
                .into_iter()
                .map(|(t, m)| format!("{:?} {}", t.values, m.tag))
                .collect();
            rows.sort();
            rows
        })
        .collect()
}

/// Per-node *insertion-ordered* `(values, tag)` renderings of `pred` — no
/// sorting, so any schedule divergence between two drivers shows up.
pub fn ordered_fixpoint_of(engine: &DistributedEngine, pred: &str) -> Vec<Vec<String>> {
    engine
        .locations()
        .iter()
        .map(|loc| {
            engine
                .query(loc, pred)
                .into_iter()
                .map(|(t, m)| format!("{:?} {}", t.values, m.tag))
                .collect()
        })
        .collect()
}

/// The rows of `preds` across all nodes, each with its condensed tag as a
/// Boolean function — its value under every assignment of the (at most a
/// dozen) principals; sorted when `canonical`, in insertion order otherwise.
pub fn boolean_fixpoint(
    engine: &DistributedEngine,
    preds: &[&str],
    canonical: bool,
) -> Vec<String> {
    let table = engine.var_table();
    let truth_table = |tag: &ProvTag| -> Vec<bool> {
        let ProvTag::Condensed(bdd) = tag else {
            panic!("condensed provenance expected, got {tag:?}");
        };
        let present = |assignment: u32, var| {
            let principal = table.principal_of(var).expect("principal-granularity tags");
            assignment >> principal.0 & 1 == 1
        };
        let assignments = 0..1u32 << engine.locations().len();
        let value = |a| table.manager().evaluate(*bdd, |var| present(a, var));
        assignments.map(value).collect()
    };
    let rows = preds.iter().flat_map(|pred| engine.query_all(pred));
    let mut rows: Vec<String> = rows
        .map(|(at, tuple, meta)| format!("{at} {tuple} {:?}", truth_table(&meta.tag)))
        .collect();
    if canonical {
        rows.sort();
    }
    rows
}

/// Decodes one packed random word into `(src, dst, at_us)` over `nodes`
/// nodes — the offline proptest shim has no tuple strategies, so each fact
/// travels as one `u64`.
pub fn decode_fact(word: u64, nodes: u64) -> (usize, usize, u64) {
    (
        (word % nodes) as usize,
        ((word >> 8) % nodes) as usize,
        (word >> 16) % 4_000,
    )
}

/// A field of [`EngineConfig`] as the swarm sees it: its name, and what
/// sets it back to [`EngineConfig::default`]'s value.
pub type ConfigField = (&'static str, fn(&mut EngineConfig));

/// `(name, reset)` for each named field of [`EngineConfig`].
macro_rules! config_fields {
    ($($field:ident),* $(,)?) => {
        [$((stringify!($field), |c: &mut EngineConfig| {
            c.$field = EngineConfig::default().$field
        })),*]
    };
}

/// Every field [`arb_config`] draws, in draw order.  `rsa_modulus_bits` is
/// drawn as its default or a refused size only: every other size costs a
/// key generation per case.
pub const CONFIG_FIELDS: [ConfigField; 20] = config_fields![
    says_level,
    provenance,
    graph_mode,
    maintenance,
    sampling,
    granularity,
    archive_offline,
    default_ttl_us,
    cost_model,
    key_seed,
    security_levels,
    use_secondary_indexes,
    batch_window_us,
    max_batch_tuples,
    channel_rebind_frames,
    dynamics,
    fault_plan,
    workers,
    trace,
    rsa_modulus_bits,
];

/// A random [`EngineConfig`] for a deployment over [`NODES`], drawn as a
/// swarm (Groce et al., "Swarm Testing", ISSTA 2012): each field of
/// [`CONFIG_FIELDS`] is left at its default half the time, and otherwise
/// drawn.  About one drawn value in sixteen is one the engine refuses — a
/// zero, a fault rate above 1000‰, a fault event naming a node outside the
/// deployment, an RSA modulus too small to sign with — and reactive
/// maintenance meets local graphs by chance.
/// Fault plans carry drop, duplicate and delay faults only: a property
/// that wants crashes and cuts schedules them as churn.
pub fn arb_config() -> impl Strategy<Value = EngineConfig> {
    any::<u64>().prop_map(draw_config)
}

fn draw_config(seed: u64) -> EngineConfig {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut config = EngineConfig::default();
    for (name, _) in CONFIG_FIELDS {
        let word = next();
        if word & 1 == 0 {
            continue;
        }
        // One pick in sixteen is the refused value where a field has one.
        let refused = (word >> 1) % 16 == 0;
        let pick = word >> 5;
        let of = |options: &[u64]| options[(pick % options.len() as u64) as usize];
        match name {
            "says_level" => {
                let levels = [
                    SaysLevel::Cleartext,
                    SaysLevel::Hmac,
                    SaysLevel::Session,
                    SaysLevel::Rsa,
                ];
                config.says_level = Some(levels[(pick % 4) as usize]);
            }
            "provenance" => {
                let kinds = [
                    ProvenanceKind::Why,
                    ProvenanceKind::Condensed,
                    ProvenanceKind::Trust,
                    ProvenanceKind::Count,
                    ProvenanceKind::Vote,
                ];
                config.provenance = kinds[(pick % 5) as usize];
            }
            "graph_mode" => {
                let modes = [GraphMode::Local, GraphMode::Distributed];
                config.graph_mode = modes[(pick % 2) as usize];
            }
            "maintenance" => config.maintenance = MaintenanceMode::Reactive,
            "sampling" => {
                let one_in = if refused { 0 } else { of(&[2, 3, 4]) as u32 };
                config.sampling = SamplingPolicy { one_in };
            }
            "granularity" => config.granularity = Granularity::uniform_as(NODES.len() as u32, 2),
            "archive_offline" => config.archive_offline = true,
            "default_ttl_us" => {
                config.default_ttl_us = Some(of(&[3_000, 40_000, 2_000_000, 30_000_000]));
            }
            "cost_model" => config.cost_model = CostModel::zero_cpu(),
            "key_seed" => config.key_seed = pick,
            "security_levels" => {
                for principal in 0..NODES.len() as u32 {
                    let level = 1 + (pick >> (2 * principal)) % 4;
                    config.security_levels.insert(principal, level as u8);
                }
            }
            "use_secondary_indexes" => config.use_secondary_indexes = false,
            "batch_window_us" => config.batch_window_us = of(&[500, 1_000, 2_500]),
            "max_batch_tuples" => {
                config.max_batch_tuples = if refused { 0 } else { 1 + (pick % 5) as usize };
            }
            "channel_rebind_frames" => {
                config.channel_rebind_frames = if refused { 0 } else { of(&[1, 2, 5]) };
            }
            "dynamics" => config.dynamics = true,
            "fault_plan" => {
                let rate = |shift: u32| ((pick >> shift) % 301) as u16;
                let mut plan = FaultPlan::new(pick).with_drop_per_mille(rate(0));
                plan.duplicate_per_mille = rate(10);
                plan.delay_per_mille = rate(20);
                if refused {
                    match pick % 2 {
                        0 => plan.delay_per_mille = 1_001 + rate(30),
                        _ => {
                            let node = (NODES.len() as u64 + (pick >> 30) % 4) as u32;
                            plan.events
                                .push((5_000_000, FaultEvent::NodeCrash { node }));
                        }
                    }
                }
                config.fault_plan = Some(plan);
            }
            "workers" => config.workers = if refused { 0 } else { of(&[2, 3, 4]) as usize },
            "trace" => {
                let trace = TraceConfig::new().with_ring(of(&[0, 16, 256]) as usize);
                config.trace = Some(trace.with_gauge_interval_us(of(&[0, 1_000])));
            }
            "rsa_modulus_bits" => {
                if refused {
                    config.rsa_modulus_bits = of(&[0, 256, 511]) as usize;
                }
            }
            _ => unreachable!("{name} is not drawn"),
        }
    }
    config
}
