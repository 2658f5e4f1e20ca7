//! Accountability (Section 3, third use case): per-principal usage auditing,
//! the PlanetFlow analogue.
//!
//! PlanetFlow maintains, for every PlanetLab service, a record of all traffic
//! it generated.  Here the equivalent audit is produced from the simulator's
//! per-node traffic counters plus each node's offline archive: for every
//! principal we report the bytes it pushed into the network and the number of
//! derivations it asserted.

use crate::network::SecureNetwork;
use pasn_datalog::Value;
use std::fmt;

/// The audit record of one principal.
#[derive(Clone, Debug, PartialEq)]
pub struct PrincipalUsage {
    /// The principal's location value.
    pub location: Value,
    /// Bytes this principal sent into the network.
    pub bytes_sent: u64,
    /// Derivations this principal asserted (from its offline archive, when
    /// enabled).
    pub derivations: usize,
    /// Rows currently stored at this principal's node, over every relation.
    pub tuples_stored: usize,
}

/// A network-wide accountability report.
#[derive(Clone, Debug, Default)]
pub struct AccountabilityReport {
    /// Per-principal usage, sorted by descending bytes sent.
    pub usage: Vec<PrincipalUsage>,
}

impl AccountabilityReport {
    /// Builds the report from a finished deployment.
    pub fn collect(network: &SecureNetwork) -> Self {
        let bytes = network.bytes_sent_per_node();
        let mut usage: Vec<PrincipalUsage> = network
            .engine()
            .locations()
            .iter()
            .map(|loc| {
                let derivations = network.archive(loc).map_or(0, |a| a.len());
                PrincipalUsage {
                    location: loc.clone(),
                    bytes_sent: bytes.get(loc).copied().unwrap_or(0),
                    derivations,
                    tuples_stored: network.engine().tuples_at(loc),
                }
            })
            .collect();
        usage.sort_by(|a, b| {
            b.bytes_sent
                .cmp(&a.bytes_sent)
                .then(a.location.cmp(&b.location))
        });
        AccountabilityReport { usage }
    }

    /// The heaviest senders, most active first.
    pub fn top_senders(&self, k: usize) -> &[PrincipalUsage] {
        &self.usage[..k.min(self.usage.len())]
    }
}

impl fmt::Display for AccountabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>12} {:>12} {:>12}",
            "principal", "bytes", "derivations", "tuples"
        )?;
        for u in &self.usage {
            writeln!(
                f,
                "{:<12} {:>12} {:>12} {:>12}",
                u.location.to_string(),
                u.bytes_sent,
                u.derivations,
                u.tuples_stored
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SecureNetwork;
    use crate::programs;
    use pasn_engine::EngineConfig;
    use pasn_net::{CostModel, Topology};

    fn run_network() -> SecureNetwork {
        let mut config = EngineConfig::ndlog().with_cost_model(CostModel::zero_cpu());
        config.archive_offline = true;
        let mut net = SecureNetwork::builder()
            .program(programs::reachability_ndlog())
            .topology(Topology::ring(5))
            .config(config)
            .build()
            .unwrap();
        net.run().unwrap();
        net
    }

    #[test]
    fn report_covers_every_principal_and_sorts_by_bytes() {
        let net = run_network();
        let report = AccountabilityReport::collect(&net);
        assert_eq!(report.usage.len(), 5);
        assert!(report.usage.iter().any(|u| u.bytes_sent > 0));
        // Sorted descending.
        for pair in report.usage.windows(2) {
            assert!(pair[0].bytes_sent >= pair[1].bytes_sent);
        }
        // Every node stores tuples and asserted derivations, and the stored
        // rows are every relation's — the localized `link_at_z` copies too.
        assert!(report.usage.iter().all(|u| u.tuples_stored > 0));
        let stored: usize = report.usage.iter().map(|u| u.tuples_stored).sum();
        assert_eq!(stored as u64, net.metrics().tuples_stored);
        assert!(report.usage.iter().all(|u| u.derivations > 0));
        let rendered = report.to_string();
        assert!(rendered.contains("principal"));
        assert!(rendered.contains("n0"));
    }

    #[test]
    fn top_senders_and_totals() {
        let net = run_network();
        let report = AccountabilityReport::collect(&net);
        assert_eq!(report.top_senders(2).len(), 2);
        assert_eq!(report.top_senders(100).len(), 5);
        // Degenerate report.
        assert!(AccountabilityReport::default().usage.is_empty());
    }
}
