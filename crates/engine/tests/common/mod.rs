//! Scaffolding shared by the engine's property tests: the reachability
//! program, the default four-node deployment and the helpers that build,
//! seed and read back an engine over it.  Every test binary uses its own
//! subset, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

use pasn_datalog::Value;
use pasn_engine::{DistributedEngine, EngineConfig, Tuple};
use pasn_net::CostModel;
use pasn_provenance::ProvTag;

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
