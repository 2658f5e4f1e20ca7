//! Real-time diagnostics (Section 3, first use case).
//!
//! The paper sketches a continuous query that counts the changes to a routing
//! table entry over the past `T` seconds and raises an alarm when the count
//! exceeds a threshold, after which the system queries the online provenance
//! of the offending entry to locate the source of the instability.
//!
//! The window and the alarm are rules: [`crate::programs::ROUTE_MONITOR`]
//! over `routeUpdate` facts that each live `T` — asserted when the update
//! happens and retracted `T` later, as
//! [`crate::workload::route_update_stream`] schedules them — keeps one
//! `updateCount` row per entry, the number of updates in the window, and an
//! `alarm` row while that number exceeds the threshold.  [`diagnose`] is the
//! provenance lookup.

use pasn_datalog::Value;
use pasn_engine::DistributedEngine;

/// The result of diagnosing a routing entry: its origins, obtained from the
/// online provenance.
#[derive(Clone, Debug, Default)]
pub struct Diagnosis {
    /// The diagnosed key (e.g. `reachable(@n0,n3)`).
    pub key: String,
    /// The base tuples the entry depends on, in traceback visit order: the
    /// visited keys whose predicate the deployed program does not derive.
    pub suspected_origins: Vec<String>,
    /// Number of cross-node provenance hops the diagnosis needed.
    pub provenance_hops: usize,
}

/// Diagnoses the routing entry `key` by tracing its online distributed
/// provenance from `location`.
pub fn diagnose(engine: &DistributedEngine, location: &Value, key: &str) -> Diagnosis {
    // The deployed program is the localized one: a copy such as Best-Path's
    // `link_at_z` is derived, not an origin.
    let derived = engine.compiled().program.derived_predicates();
    let is_origin = |visited: &&String| {
        let predicate = visited.split('(').next().unwrap_or(visited);
        !derived.contains(predicate)
    };
    let result = engine.traceback(location, key);
    Diagnosis {
        key: key.to_string(),
        suspected_origins: result.visited.iter().filter(is_origin).cloned().collect(),
        provenance_hops: result.remote_hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SecureNetwork;
    use crate::programs;
    use pasn_datalog::Program;
    use pasn_engine::{EngineConfig, GraphMode};
    use pasn_net::{CostModel, Topology};

    fn traced(program: Program, topology: Topology) -> SecureNetwork {
        let mut net = SecureNetwork::builder()
            .program(program)
            .topology(topology)
            .config(
                EngineConfig::ndlog()
                    .with_cost_model(CostModel::zero_cpu())
                    .with_graph_mode(GraphMode::Distributed),
            )
            .build()
            .unwrap();
        net.engine_mut().run_to_fixpoint().unwrap();
        net
    }

    #[test]
    fn diagnose_traces_online_provenance() {
        let net = traced(programs::reachability_ndlog(), Topology::line(3));
        let diagnosis = diagnose(net.engine(), &Value::Addr(0), "reachable(@n0,n2)");
        assert_eq!(diagnosis.key, "reachable(@n0,n2)");
        // The line's links run both ways, so derivations through the
        // cycles back to `n0` and `n1` are recorded too.
        assert_eq!(
            diagnosis.suspected_origins,
            [
                "link(@n0,n1)",
                "link(@n1,n2)",
                "link(@n1,n0)",
                "link(@n2,n1)"
            ]
        );
    }

    /// A flapping `bestPath` entry where two equal-cost paths compete: on a
    /// four-ring `n0` reaches `n2` through `n1` and through `n3`.  What the
    /// diagnosis reports is pinned, so a change to how the traceback is
    /// reached shows here.
    #[test]
    fn diagnosis_of_a_two_path_best_path_is_pinned() {
        let net = traced(programs::best_path(), Topology::ring(4));
        let at = Value::Addr(0);
        let entries = net.engine().query(&at, "bestPath");
        let mut flapping = entries
            .iter()
            .filter(|(tuple, _)| tuple.values.get(1) == Some(&Value::Addr(2)))
            .map(|(tuple, _)| tuple.render_located(Some(0)));
        let key = flapping.next().expect("n0 has a best path to n2");
        let diagnosis = diagnose(net.engine(), &at, &key);
        assert_eq!(diagnosis.key, "bestPath(@n0,n2,[n0,n1,n2],2)");
        // Visit order.  The traceback also visits `link_at_z(1,n0,@n1)`,
        // the localized copy of `link(@n0,n1,1)` that rule `sp2` joins at
        // `n1`; the program derives it, so it is no origin.
        assert_eq!(
            diagnosis.suspected_origins,
            ["link(@n0,n1,1)", "link(@n1,n2,1)"]
        );
        assert_eq!(diagnosis.provenance_hops, 2);
    }
}
