//! Forensics (Section 3, second use case): offline provenance plus
//! distributed traceback.
//!
//! Forensic analysis needs *historical* data — provenance that survives the
//! expiry of the tuples themselves — and the ability to trace where
//! information originated without trusting unauthenticated headers.  This
//! module combines the offline [`pasn_provenance::ArchiveStore`] with the
//! engine's distributed traceback
//! ([`pasn_engine::DistributedEngine::traceback`]).

use crate::network::SecureNetwork;
use pasn_datalog::Value;
use pasn_provenance::{ArchivedEntry, TracebackResult};

/// The outcome of a forensic investigation into one tuple.
#[derive(Clone, Debug)]
pub struct ForensicReport {
    /// The tuple key investigated.
    pub key: String,
    /// Distributed traceback over the pointer provenance.
    pub traceback: TracebackResult,
    /// Matching offline archive entries (provenance retained past expiry),
    /// each with the node whose archive holds it.
    pub archived: Vec<(Value, ArchivedEntry)>,
}

impl ForensicReport {
    /// True if the investigation reached at least one base tuple.
    pub fn has_origin(&self) -> bool {
        !self.traceback.base_tuples.is_empty()
    }
}

/// Investigates `key` starting at `location`: runs a distributed traceback
/// over the pointer provenance and collects the archived records of exactly
/// that key from every node, each paired with that node (the derivation is
/// archived where the rule fired, which is generally not where the tuple
/// ends up stored), even if the tuple itself has long expired.  Each archive
/// is read through its key index, not scanned; a predicate-wide sweep is
/// [`archived_activity`].
pub fn investigate(network: &SecureNetwork, location: &Value, key: &str) -> ForensicReport {
    let engine = network.engine();
    let archives = engine
        .locations()
        .iter()
        .filter_map(|loc| Some((loc, engine.archive(loc)?)));
    ForensicReport {
        key: key.to_string(),
        traceback: engine.traceback(location, key),
        archived: archives
            .flat_map(|(loc, archive)| {
                let entries = archive.entries_of(key);
                entries.map(move |entry| (loc.clone(), entry.clone()))
            })
            .collect(),
    }
}

/// Collects every archived derivation across all nodes inside a time window,
/// each with the node whose archive holds it — the "correlate traffic
/// patterns of attackers" query of the forensics use case.  A `key_prefix`
/// without `(` is a predicate name ([`pasn_provenance::ArchiveStore::query`]).
pub fn archived_activity(
    network: &SecureNetwork,
    key_prefix: &str,
    from: Option<u64>,
    to: Option<u64>,
) -> Vec<(Value, ArchivedEntry)> {
    let engine = network.engine();
    let mut out = Vec::new();
    for loc in engine.locations() {
        if let Some(archive) = engine.archive(loc) {
            for entry in archive.query(key_prefix, from, to) {
                out.push((loc.clone(), entry.clone()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use pasn_engine::{EngineConfig, GraphMode};
    use pasn_net::{CostModel, SimTime, Topology};
    use std::sync::Arc;

    fn forensic_network() -> SecureNetwork {
        let mut config = EngineConfig::ndlog()
            .with_cost_model(CostModel::zero_cpu())
            .with_graph_mode(GraphMode::Distributed)
            .with_default_ttl_us(1_000_000);
        config.archive_offline = true;
        let mut net = SecureNetwork::builder()
            .program(programs::reachability_ndlog())
            .topology(Topology::line(4))
            .config(config)
            .build()
            .unwrap();
        net.engine_mut().run_to_fixpoint().unwrap();
        net
    }

    #[test]
    fn investigation_finds_origins_and_archive_entries() {
        let net = forensic_network();
        let report = investigate(&net, &Value::Addr(0), "reachable(@n0,n3)");
        assert!(report.has_origin());
        assert!(report.traceback.remote_hops >= 1);
        assert!(!report.archived.is_empty());
    }

    #[test]
    fn offline_provenance_survives_tuple_expiry() {
        let mut net = forensic_network();
        // Expire all derived soft state.
        let now = SimTime::from_secs_f64(100.0);
        let dropped = net.engine_mut().expire_all(now);
        assert!(dropped > 0);
        assert!(net.engine().query(&Value::Addr(0), "reachable").is_empty());
        // The archive still answers forensic queries.
        let activity = archived_activity(&net, "reachable", None, None);
        assert!(!activity.is_empty());
        let report = investigate(&net, &Value::Addr(0), "reachable(@n0,n3)");
        assert!(!report.archived.is_empty());
        // ... and records when the tuple expired at the node that stored it,
        // as scheduled expiry does.
        let stamp = report
            .archived
            .iter()
            .find(|(node, _)| *node == Value::Addr(0));
        let (_, stamp) = stamp.expect("n0 archived the expiry");
        assert_eq!(&*stamp.annotation, "expired");
        assert_eq!(stamp.expired_at, Some(now.as_micros()));
    }

    #[test]
    fn time_windows_restrict_archived_activity() {
        let net = forensic_network();
        let all = archived_activity(&net, "reachable", None, None);
        let none = archived_activity(&net, "reachable", Some(u64::MAX - 1), None);
        assert!(all.len() > none.len());
        assert!(none.is_empty());
    }

    #[test]
    fn a_complete_key_reads_what_the_prefix_sweep_reads() {
        let mut net = forensic_network();
        // Stamp some expiries so the entries compared are not all alike.
        net.engine_mut().expire_all(SimTime::from_secs_f64(100.0));
        for (loc, tuple, _) in net.engine().query_all("link") {
            let key = tuple.render_located(Some(0));
            let report = investigate(&net, &loc, &key);
            assert!(report.archived.is_empty(), "base tuples are not archived");
        }
        let keys: Vec<Arc<str>> = archived_activity(&net, "reachable", None, None)
            .into_iter()
            .map(|(_, entry)| entry.key)
            .collect();
        assert!(!keys.is_empty());
        for key in keys {
            let swept = archived_activity(&net, &key, None, None);
            let report = investigate(&net, &Value::Addr(0), &key);
            assert_eq!(report.archived, swept, "{key}");
        }
    }

    #[test]
    fn a_predicate_sweep_reads_that_predicate_only() {
        // Best-Path stores `bestPath` and `bestPathCost` rows: a sweep of one
        // predicate must not read the other, whose name it begins.
        let mut config = EngineConfig::ndlog()
            .with_cost_model(CostModel::zero_cpu())
            .with_graph_mode(GraphMode::Distributed);
        config.archive_offline = true;
        let mut net = SecureNetwork::builder()
            .program(programs::best_path())
            .topology(Topology::line(4))
            .config(config)
            .build()
            .unwrap();
        net.engine_mut().run_to_fixpoint().unwrap();
        let keys = |prefix: &str| -> Vec<Arc<str>> {
            let swept = archived_activity(&net, prefix, None, None);
            swept.into_iter().map(|(_, entry)| entry.key).collect()
        };
        let (paths, costs) = (keys("bestPath"), keys("bestPathCost"));
        assert!(!paths.is_empty() && !costs.is_empty());
        assert!(paths.iter().all(|key| key.starts_with("bestPath(")));
        assert!(costs.iter().all(|key| key.starts_with("bestPathCost(")));
        // A prefix with `(` keeps matching every key it begins.
        assert_eq!(keys("bestPath("), paths);
        let at_n0 = keys("bestPath(@n0,");
        assert!(!at_n0.is_empty() && at_n0.len() < paths.len());
    }

    #[test]
    fn a_start_that_is_no_node_leaves_the_key_unresolved() {
        let net = forensic_network();
        for stranger in [Value::Addr(99), Value::Str("elsewhere".into())] {
            let report = investigate(&net, &stranger, "reachable(@n0,n3)");
            assert!(!report.has_origin());
            assert_eq!(report.traceback.visited, ["reachable(@n0,n3)"]);
            assert_eq!(report.traceback.unresolved, ["reachable(@n0,n3)"]);
            assert_eq!(report.traceback.remote_hops, 0);
            // The archives are read by key, wherever the walk started.
            assert!(!report.archived.is_empty());
        }
    }

    #[test]
    fn unknown_keys_produce_empty_reports() {
        let net = forensic_network();
        let report = investigate(&net, &Value::Addr(0), "bogus(@n0)");
        assert!(!report.has_origin());
        assert!(report.archived.is_empty());
        assert_eq!(report.traceback.unresolved, vec!["bogus(@n0)".to_string()]);
    }
}
