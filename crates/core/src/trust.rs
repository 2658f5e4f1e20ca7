//! Trust management over provenance (Section 3 "Trust Management" and
//! Section 4.4/4.5).
//!
//! A node enforces trust by inspecting the provenance of incoming (or stored)
//! tuples: condensed provenance tells it *which principals* a tuple's
//! existence depends on, quantifiable provenance reduces that to a trust
//! level or a vote count.  [`TrustPolicy`] captures the three policies the
//! paper describes; [`TrustEvaluator`] applies them to a tuple's
//! [`ProvTag`].

use pasn_engine::EngineConfig;
use pasn_provenance::{ProvTag, VarTable};
use std::collections::BTreeSet;
use std::fmt;

/// A trust-management policy applied to a tuple's provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrustPolicy {
    /// Accept a tuple only if it has some derivation relying exclusively on
    /// trusted principals (the Orchestra-style policy of Section 3; the
    /// paper's example: `<a + a*b>` is accepted whenever `a` is trusted,
    /// regardless of `b`).
    TrustedPrincipals(BTreeSet<u32>),
    /// Accept a tuple only if its quantifiable trust level (max over
    /// derivations of the min principal level, Section 4.5) reaches the
    /// threshold.
    MinTrustLevel(u8),
    /// Accept an update only if at least `k` distinct principals took part in
    /// asserting it ("accepting an update only if over K principals assert
    /// the update", Section 3).
    KOfN(usize),
}

impl fmt::Display for TrustPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrustPolicy::TrustedPrincipals(set) => write!(
                f,
                "trusted principals {{{}}}",
                set.iter()
                    .map(|p| format!("p{p}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            TrustPolicy::MinTrustLevel(l) => write!(f, "minimum trust level {l}"),
            TrustPolicy::KOfN(k) => write!(f, "at least {k} asserting principals"),
        }
    }
}

/// The outcome of applying a policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrustDecision {
    /// The tuple satisfies the policy.
    Accept,
    /// The tuple violates the policy.
    Reject,
    /// The tuple's provenance annotation does not carry the information the
    /// policy needs (e.g. a `KOfN` policy over a trust-level tag).
    NotApplicable,
}

/// Applies [`TrustPolicy`]s to provenance tags.
pub struct TrustEvaluator<'a> {
    var_table: &'a VarTable,
    config: &'a EngineConfig,
}

impl<'a> TrustEvaluator<'a> {
    /// Creates an evaluator over the engine's shared variable table, reading
    /// per-principal security levels off the deployment's configuration
    /// ([`EngineConfig::level_of`]).
    pub fn new(var_table: &'a VarTable, config: &'a EngineConfig) -> Self {
        TrustEvaluator { var_table, config }
    }

    /// Evaluates `policy` against `tag`.
    pub fn evaluate(&self, tag: &ProvTag, policy: &TrustPolicy) -> TrustDecision {
        match policy {
            TrustPolicy::TrustedPrincipals(trusted) => match tag {
                ProvTag::Condensed(bdd) => {
                    // The tuple is acceptable if its provenance function is
                    // satisfied by the assignment "trusted principals exist,
                    // everything else does not".
                    let manager = self.var_table.manager();
                    let accepted = manager.evaluate(*bdd, |var| {
                        self.var_table
                            .principal_of(var)
                            .map(|p| trusted.contains(&p.0))
                            .unwrap_or(false)
                    });
                    if accepted {
                        TrustDecision::Accept
                    } else {
                        TrustDecision::Reject
                    }
                }
                ProvTag::Vote(votes) => {
                    if votes.principals().iter().any(|p| trusted.contains(p)) {
                        TrustDecision::Accept
                    } else {
                        TrustDecision::Reject
                    }
                }
                _ => TrustDecision::NotApplicable,
            },
            TrustPolicy::MinTrustLevel(threshold) => {
                let level = tag.trust_level(self.var_table, |p| self.config.level_of(p));
                match level {
                    Some(l) if l >= *threshold => TrustDecision::Accept,
                    Some(_) => TrustDecision::Reject,
                    None => TrustDecision::NotApplicable,
                }
            }
            TrustPolicy::KOfN(k) => match tag {
                ProvTag::Vote(votes) => {
                    if votes.satisfies_threshold(*k) {
                        TrustDecision::Accept
                    } else {
                        TrustDecision::Reject
                    }
                }
                ProvTag::Condensed(bdd) => {
                    // Count the distinct principals in the provenance support.
                    let support = self.var_table.manager().support(*bdd);
                    let distinct = support
                        .iter()
                        .filter_map(|v| self.var_table.principal_of(*v))
                        .count();
                    if distinct >= *k {
                        TrustDecision::Accept
                    } else {
                        TrustDecision::Reject
                    }
                }
                _ => TrustDecision::NotApplicable,
            },
        }
    }

    /// Renders the condensed provenance of a tag as the set of principals it
    /// depends on (the "source origins" trust management cares about).
    pub fn origins(&self, tag: &ProvTag) -> BTreeSet<u32> {
        match tag {
            ProvTag::Condensed(bdd) => self
                .var_table
                .manager()
                .support(*bdd)
                .into_iter()
                .filter_map(|v| self.var_table.principal_of(v).map(|p| p.0))
                .collect(),
            ProvTag::Vote(votes) => votes.principals().clone(),
            _ => BTreeSet::new(),
        }
    }

    /// Convenience: renders a tag's condensed expression through the shared
    /// table (e.g. `<p0 + p1*p2>`).
    pub fn render(&self, tag: &ProvTag) -> String {
        tag.render(self.var_table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasn_crypto::PrincipalId;
    use pasn_provenance::{BaseTupleId, ProvenanceKind, Semiring, VoteSet};

    /// Builds the paper's `<a + a*b>` condensed tag with a = p0, b = p1.
    fn figure2_tag(table: &mut VarTable) -> ProvTag {
        let a = ProvTag::base(
            ProvenanceKind::Condensed,
            table,
            BaseTupleId(0),
            "link(a,c)",
            PrincipalId(0),
            2,
        );
        let b = ProvTag::base(
            ProvenanceKind::Condensed,
            table,
            BaseTupleId(1),
            "link(a,b)",
            PrincipalId(1),
            1,
        );
        let ab = a.times(&b, table);
        a.plus(&ab, table)
    }

    #[test]
    fn trusted_principal_policy_matches_paper_example() {
        let mut table = VarTable::new();
        let tag = figure2_tag(&mut table);
        let config = EngineConfig::default();
        let evaluator = TrustEvaluator::new(&table, &config);

        // Trusting a alone is enough, b is inconsequential.
        let trust_a = TrustPolicy::TrustedPrincipals([0u32].into_iter().collect());
        assert_eq!(evaluator.evaluate(&tag, &trust_a), TrustDecision::Accept);
        // Trusting only b is not enough: every derivation needs a.
        let trust_b = TrustPolicy::TrustedPrincipals([1u32].into_iter().collect());
        assert_eq!(evaluator.evaluate(&tag, &trust_b), TrustDecision::Reject);
        // Origins reflect the condensation: only a remains.
        assert_eq!(evaluator.origins(&tag), [0u32].into_iter().collect());
        assert_eq!(evaluator.render(&tag), "<p0>");
    }

    #[test]
    fn min_trust_level_policy_uses_quantifiable_provenance() {
        let mut table = VarTable::new();
        let tag = figure2_tag(&mut table);
        let mut config = EngineConfig::default();
        config.security_levels.extend([(0, 2), (1, 1)]);
        let evaluator = TrustEvaluator::new(&table, &config);
        // max(2, min(2,1)) = 2
        assert_eq!(
            evaluator.evaluate(&tag, &TrustPolicy::MinTrustLevel(2)),
            TrustDecision::Accept
        );
        assert_eq!(
            evaluator.evaluate(&tag, &TrustPolicy::MinTrustLevel(3)),
            TrustDecision::Reject
        );
    }

    #[test]
    fn k_of_n_policy_over_votes_and_condensed() {
        let table = VarTable::new();
        let config = EngineConfig::default();
        let evaluator = TrustEvaluator::new(&table, &config);
        let votes = ProvTag::Vote(Box::new(
            VoteSet::principal(0)
                .plus(&VoteSet::principal(1))
                .plus(&VoteSet::principal(2)),
        ));
        assert_eq!(
            evaluator.evaluate(&votes, &TrustPolicy::KOfN(2)),
            TrustDecision::Accept
        );
        assert_eq!(
            evaluator.evaluate(&votes, &TrustPolicy::KOfN(4)),
            TrustDecision::Reject
        );
        assert_eq!(evaluator.origins(&votes).len(), 3);

        let mut table2 = VarTable::new();
        let condensed = figure2_tag(&mut table2);
        let evaluator2 = TrustEvaluator::new(&table2, &config);
        // Condensed support is {a} only → 1 distinct principal.
        assert_eq!(
            evaluator2.evaluate(&condensed, &TrustPolicy::KOfN(1)),
            TrustDecision::Accept
        );
        assert_eq!(
            evaluator2.evaluate(&condensed, &TrustPolicy::KOfN(2)),
            TrustDecision::Reject
        );
    }

    #[test]
    fn policies_report_not_applicable_on_missing_information() {
        let table = VarTable::new();
        let config = EngineConfig::default();
        let evaluator = TrustEvaluator::new(&table, &config);
        let none = ProvTag::None;
        assert_eq!(
            evaluator.evaluate(&none, &TrustPolicy::TrustedPrincipals(BTreeSet::new())),
            TrustDecision::NotApplicable
        );
        assert_eq!(
            evaluator.evaluate(&none, &TrustPolicy::MinTrustLevel(1)),
            TrustDecision::NotApplicable
        );
        assert_eq!(
            evaluator.evaluate(&none, &TrustPolicy::KOfN(1)),
            TrustDecision::NotApplicable
        );
    }

    #[test]
    fn policy_display_is_informative() {
        assert_eq!(
            TrustPolicy::TrustedPrincipals([3u32, 5].into_iter().collect()).to_string(),
            "trusted principals {p3,p5}"
        );
        assert_eq!(
            TrustPolicy::MinTrustLevel(2).to_string(),
            "minimum trust level 2"
        );
        assert_eq!(
            TrustPolicy::KOfN(3).to_string(),
            "at least 3 asserting principals"
        );
    }
}
