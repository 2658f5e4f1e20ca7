//! Real-time diagnostics (Section 3, first use case).
//!
//! The paper sketches a continuous query that counts the changes to a routing
//! table entry over the past `T` seconds and raises an alarm when the count
//! exceeds a threshold, after which the system queries the online provenance
//! of the offending entry to locate the source of the instability.
//!
//! [`FlapMonitor`] is that sliding-window counter; [`diagnose`] combines an
//! alarm with an online provenance lookup.

use pasn_datalog::Value;
use pasn_engine::Tuple;
use pasn_net::SimTime;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// An alarm raised when a route changed too often within the window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlapAlarm {
    /// The routing-table key (e.g. "bestPath(@n0,n7)") that is flapping.
    pub key: String,
    /// Number of changes observed inside the window.
    pub changes: usize,
    /// Time the alarm fired.
    pub at: SimTime,
}

/// Sliding-window route-change monitor.
#[derive(Clone, Debug)]
pub struct FlapMonitor {
    window: SimTime,
    threshold: usize,
    events: HashMap<String, VecDeque<SimTime>>,
}

impl FlapMonitor {
    /// Creates a monitor that alarms when a key changes more than `threshold`
    /// times within `window`.
    pub fn new(window: SimTime, threshold: usize) -> Self {
        FlapMonitor {
            window,
            threshold,
            events: HashMap::new(),
        }
    }

    /// Records a route change for `key` at time `now`; returns an alarm if
    /// the threshold is exceeded within the window.
    pub fn record(&mut self, key: &str, now: SimTime) -> Option<FlapAlarm> {
        let queue = self.events.entry(key.to_string()).or_default();
        queue.push_back(now);
        let horizon = now.as_micros().saturating_sub(self.window.as_micros());
        while queue.front().is_some_and(|t| t.as_micros() < horizon) {
            queue.pop_front();
        }
        if queue.len() > self.threshold {
            Some(FlapAlarm {
                key: key.to_string(),
                changes: queue.len(),
                at: now,
            })
        } else {
            None
        }
    }

    /// Number of changes currently inside the window for `key`.
    pub fn changes_in_window(&self, key: &str) -> usize {
        self.events.get(key).map_or(0, VecDeque::len)
    }
}

/// The result of diagnosing an alarm: the origins of the flapping entry,
/// obtained from the online provenance.
#[derive(Clone, Debug, Default)]
pub struct Diagnosis {
    /// The alarmed key.
    pub key: String,
    /// Base tuples (by provenance key) the flapping entry depends on.
    pub suspected_origins: Vec<String>,
    /// Number of cross-node provenance hops the diagnosis needed.
    pub provenance_hops: usize,
}

/// Diagnoses an alarm by tracing the online distributed provenance of the
/// flapping entry from `location`.
pub fn diagnose(
    network: &crate::network::SecureNetwork,
    location: &Value,
    alarm: &FlapAlarm,
) -> Diagnosis {
    let result = network.engine().traceback(location, &alarm.key);
    Diagnosis {
        key: alarm.key.clone(),
        suspected_origins: result
            .visited
            .iter()
            .filter(|k| k.starts_with("link"))
            .cloned()
            .collect(),
        provenance_hops: result.remote_hops,
    }
}

/// Summarises per-destination route-update counts from a stream of
/// `routeUpdate(@node, dest, seq)` tuples — the declarative counterpart used
/// by the `diagnostics_monitor` example to cross-check [`FlapMonitor`].
pub fn update_counts(updates: &[Tuple]) -> BTreeMap<u32, usize> {
    let mut counts = BTreeMap::new();
    for t in updates {
        if let Some(Value::Addr(dest)) = t.value(1) {
            *counts.entry(*dest).or_insert(0) += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_alarms_only_above_threshold_within_window() {
        let mut monitor = FlapMonitor::new(SimTime::from_secs_f64(10.0), 3);
        let key = "bestPath(@n0,n7)";
        for i in 0..3u64 {
            assert!(monitor
                .record(key, SimTime::from_secs_f64(i as f64))
                .is_none());
        }
        let alarm = monitor
            .record(key, SimTime::from_secs_f64(3.0))
            .expect("fourth change within 10s trips the threshold");
        assert_eq!(alarm.changes, 4);
        assert_eq!(alarm.key, key);
        assert_eq!(monitor.changes_in_window(key), 4);
        assert_eq!(monitor.changes_in_window("other"), 0);
    }

    #[test]
    fn old_changes_slide_out_of_the_window() {
        let mut monitor = FlapMonitor::new(SimTime::from_secs_f64(5.0), 2);
        let key = "bestPath(@n0,n1)";
        assert!(monitor.record(key, SimTime::from_secs_f64(0.0)).is_none());
        assert!(monitor.record(key, SimTime::from_secs_f64(1.0)).is_none());
        // 100 seconds later the early changes have expired.
        assert!(monitor.record(key, SimTime::from_secs_f64(100.0)).is_none());
        assert_eq!(monitor.changes_in_window(key), 1);
    }

    #[test]
    fn different_keys_are_tracked_independently() {
        let mut monitor = FlapMonitor::new(SimTime::from_secs_f64(10.0), 1);
        assert!(monitor.record("a", SimTime::from_secs_f64(0.0)).is_none());
        assert!(monitor.record("b", SimTime::from_secs_f64(0.0)).is_none());
        assert!(monitor.record("a", SimTime::from_secs_f64(1.0)).is_some());
    }

    #[test]
    fn update_counts_aggregate_by_destination() {
        let updates = vec![
            Tuple::new(
                "routeUpdate",
                vec![Value::Addr(0), Value::Addr(1), Value::Int(1)],
            ),
            Tuple::new(
                "routeUpdate",
                vec![Value::Addr(0), Value::Addr(1), Value::Int(2)],
            ),
            Tuple::new(
                "routeUpdate",
                vec![Value::Addr(0), Value::Addr(2), Value::Int(3)],
            ),
        ];
        let counts = update_counts(&updates);
        assert_eq!(counts[&1], 2);
        assert_eq!(counts[&2], 1);
    }

    #[test]
    fn diagnose_traces_online_provenance() {
        use crate::network::SecureNetwork;
        use crate::programs;
        use pasn_engine::{EngineConfig, GraphMode};
        use pasn_net::{CostModel, Topology};

        let mut net = SecureNetwork::builder()
            .program(programs::reachability_ndlog())
            .topology(Topology::line(3))
            .config(
                EngineConfig::ndlog()
                    .with_cost_model(CostModel::zero_cpu())
                    .with_graph_mode(GraphMode::Distributed),
            )
            .build()
            .unwrap();
        net.run().unwrap();
        let alarm = FlapAlarm {
            key: "reachable(@n0,n2)".to_string(),
            changes: 5,
            at: SimTime::ZERO,
        };
        let diagnosis = diagnose(&net, &Value::Addr(0), &alarm);
        assert_eq!(diagnosis.key, alarm.key);
        assert!(!diagnosis.suspected_origins.is_empty());
    }

    /// A flapping `bestPath` entry where two equal-cost paths compete: on a
    /// four-ring `n0` reaches `n2` through `n1` and through `n3`.  What the
    /// diagnosis reports is pinned, so a change to how the traceback is
    /// reached shows here.
    #[test]
    fn diagnosis_of_a_two_path_best_path_is_pinned() {
        use crate::network::SecureNetwork;
        use crate::programs;
        use pasn_engine::{EngineConfig, GraphMode};
        use pasn_net::{CostModel, Topology};

        let mut net = SecureNetwork::builder()
            .program(programs::best_path())
            .topology(Topology::ring(4))
            .config(
                EngineConfig::ndlog()
                    .with_cost_model(CostModel::zero_cpu())
                    .with_graph_mode(GraphMode::Distributed),
            )
            .build()
            .unwrap();
        net.run().unwrap();
        let at = Value::Addr(0);
        let entries = net.query(&at, "bestPath");
        let mut flapping = entries
            .iter()
            .filter(|(tuple, _)| tuple.value(1) == Some(&Value::Addr(2)))
            .map(|(tuple, _)| tuple.render_located(Some(0)));
        let alarm = FlapAlarm {
            key: flapping.next().expect("n0 has a best path to n2"),
            changes: 4,
            at: SimTime::ZERO,
        };
        let diagnosis = diagnose(&net, &at, &alarm);
        assert_eq!(diagnosis.key, "bestPath(@n0,n2,[n0,n1,n2],2)");
        // Visit order; `link_at_z` is the localized copy of `link(@n1,n0,1)`
        // that rule `sp2` joins at `n0`.
        assert_eq!(
            diagnosis.suspected_origins,
            ["link_at_z(1,n0,@n1)", "link(@n0,n1,1)", "link(@n1,n2,1)"]
        );
        assert_eq!(diagnosis.provenance_hops, 2);
    }
}
