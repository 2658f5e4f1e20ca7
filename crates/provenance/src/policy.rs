//! Maintenance policies and the optimisation knobs of Section 5.
//!
//! * **Proactive vs reactive provenance** — eagerly maintain provenance for
//!   every derivation, or defer it until a triggering event (route
//!   divergence, a forensic query) arrives.
//! * **Sampling** — record provenance for only a fraction of derivations
//!   (the IP-traceback "1/20,000 packets" idea).
//! * **Provenance granularity** — aggregate principals to their AS before
//!   recording provenance, trading per-node detail for storage.

use pasn_crypto::PrincipalId;
use std::collections::HashMap;

/// When provenance is computed and propagated (Section 5, "Proactive vs
/// reactive provenance").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MaintenanceMode {
    /// Provenance of every new tuple is maintained and propagated eagerly.
    #[default]
    Proactive,
    /// Provenance is only materialised once a triggering network event is
    /// observed (lazy provenance).
    Reactive,
}

/// Records provenance for one out of every `one_in` derivations,
/// deterministically from the derivation's key hash so repeated runs sample
/// the same derivations: IP-traceback style sampling (the paper cites
/// 1/20,000 packets).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SamplingPolicy {
    /// Record one derivation out of this many (1 = record everything; the
    /// engine refuses 0 when it is configured).
    pub one_in: u32,
}

impl Default for SamplingPolicy {
    fn default() -> Self {
        SamplingPolicy { one_in: 1 }
    }
}

impl SamplingPolicy {
    /// Records everything.
    pub fn always() -> Self {
        SamplingPolicy { one_in: 1 }
    }

    /// Decides whether the derivation identified by `key_hash` is recorded.
    pub fn records(&self, key_hash: u64) -> bool {
        if self.one_in <= 1 {
            return true;
        }
        // A cheap multiplicative hash spreads consecutive ids over buckets.
        let mixed = key_hash.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        mixed.is_multiple_of(self.one_in as u64)
    }
}

/// The granularity at which provenance identifies origins (Section 5,
/// "Provenance granularity").
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum Granularity {
    /// Track individual nodes / principals.
    #[default]
    Node,
    /// Aggregate principals to their autonomous system: provenance variables
    /// are AS identifiers, so the expression (and the storage) shrinks while
    /// still supporting AS-level attribution.
    As {
        /// Mapping from principal to AS number; unmapped principals fall into
        /// AS 0.
        mapping: HashMap<u32, u32>,
    },
}

impl Granularity {
    /// Builds an AS-level granularity with `as_size` consecutive principals
    /// per AS (the synthetic grouping the granularity claim of
    /// `tests/optimizations.rs` pins).
    pub fn uniform_as(principal_count: u32, as_size: u32) -> Self {
        let as_size = as_size.max(1);
        let mapping = (0..principal_count).map(|p| (p, p / as_size)).collect();
        Granularity::As { mapping }
    }

    /// The provenance-variable identity of `principal` under this
    /// granularity: the principal itself, or its AS.
    pub fn origin_of(&self, principal: PrincipalId) -> PrincipalId {
        match self {
            Granularity::Node => principal,
            Granularity::As { mapping } => {
                PrincipalId(mapping.get(&principal.0).copied().unwrap_or(0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maintenance_mode_defaults_to_proactive() {
        assert_eq!(MaintenanceMode::default(), MaintenanceMode::Proactive);
    }

    #[test]
    fn sampling_always_records_everything() {
        let p = SamplingPolicy::always();
        assert!((0..1000u64).all(|h| p.records(h)));
        assert_eq!(SamplingPolicy::default(), SamplingPolicy::always());
    }

    #[test]
    fn sampling_rate_is_approximately_honoured() {
        let p = SamplingPolicy { one_in: 10 };
        let recorded = (0..100_000u64).filter(|h| p.records(*h)).count();
        let fraction = recorded as f64 / 100_000.0;
        assert!(
            (0.05..0.2).contains(&fraction),
            "observed fraction {fraction}"
        );
        // Deterministic across calls.
        assert_eq!(p.records(12345), p.records(12345));
    }

    #[test]
    fn node_granularity_is_identity() {
        let g = Granularity::Node;
        assert_eq!(g.origin_of(PrincipalId(17)), PrincipalId(17));
    }

    #[test]
    fn as_granularity_collapses_principals() {
        let g = Granularity::uniform_as(10, 4);
        // Principals 0..3 -> AS 0, 4..7 -> AS 1, 8..9 -> AS 2.
        assert_eq!(g.origin_of(PrincipalId(0)), PrincipalId(0));
        assert_eq!(g.origin_of(PrincipalId(5)), PrincipalId(1));
        assert_eq!(g.origin_of(PrincipalId(9)), PrincipalId(2));
        // Unknown principals land in AS 0.
        assert_eq!(g.origin_of(PrincipalId(99)), PrincipalId(0));
    }
}
