//! Provenance semirings (Green, Karvounarakis, Tannen — PODS 2007), the
//! formal basis the paper borrows from the Orchestra system for *condensed*
//! (Section 4.4) and *quantifiable* (Section 4.5) provenance.
//!
//! A provenance semiring annotates every tuple with an element of a
//! commutative semiring; joins multiply annotations (`*`), unions of
//! alternative derivations add them (`+`).  Different semirings answer
//! different questions about the same derivations:
//!
//! | semiring | `+` | `*` | question answered |
//! |---|---|---|---|
//! | [`WhyProvenance`] | union of witness sets | pairwise union | which base tuples explain this tuple? |
//! | [`TrustLevel`] | max | min | what is the trust level of the best derivation? (paper §4.5) |
//! | [`DerivationCount`] | `+` | `×` | how many distinct derivations exist? (paper cites view maintenance counts) |
//! | [`VoteSet`] | union | union | which principals took part in some derivation? (K-of-N vote policies) |

use std::collections::BTreeSet;
use std::fmt;

/// A commutative semiring used to annotate tuples with provenance.
pub trait Semiring: Clone + PartialEq + fmt::Debug {
    /// The annotation of a tuple with no derivation (identity of `+`).
    fn zero() -> Self;
    /// The annotation of an axiomatically true tuple (identity of `*`).
    fn one() -> Self;
    /// Combine alternative derivations (the paper's `+`).
    fn plus(&self, other: &Self) -> Self;
    /// Combine joined antecedents within one derivation (the paper's `*`).
    fn times(&self, other: &Self) -> Self;
}

/// Identifier of a base (extensional) tuple, the "unique keys of base input
/// tuples" the paper builds provenance expressions from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BaseTupleId(pub u64);

impl fmt::Display for BaseTupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{:x}", self.0)
    }
}

/// Why-provenance: the set of minimal witness sets of base tuples.
///
/// `a + a*b` has witnesses `{{a}, {a,b}}`; the `{a,b}` witness is absorbed by
/// `{a}`, so the minimal form is `{{a}}` — the same condensation the paper
/// performs through BDDs, kept here in set form because it is convenient for
/// assertions and small examples.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct WhyProvenance {
    witnesses: BTreeSet<BTreeSet<BaseTupleId>>,
}

impl WhyProvenance {
    /// Provenance of a base tuple: a single singleton witness.
    pub(crate) fn base(id: BaseTupleId) -> Self {
        let mut w = BTreeSet::new();
        w.insert(std::iter::once(id).collect());
        WhyProvenance { witnesses: w }
    }

    /// The minimal witness sets.
    pub fn witnesses(&self) -> &BTreeSet<BTreeSet<BaseTupleId>> {
        &self.witnesses
    }

    /// All base tuples appearing in some minimal witness (the tuple's
    /// *support*; for trust decisions this is the set of principals that
    /// matter).
    pub fn support(&self) -> BTreeSet<BaseTupleId> {
        self.witnesses.iter().flatten().copied().collect()
    }

    /// Total number of base-tuple occurrences across witnesses — a size
    /// measure for the condensation experiments.
    pub(crate) fn size(&self) -> usize {
        self.witnesses.iter().map(|w| w.len()).sum()
    }

    fn minimise(mut witnesses: BTreeSet<BTreeSet<BaseTupleId>>) -> Self {
        // Absorption: drop any witness that is a superset of another.
        let snapshot: Vec<BTreeSet<BaseTupleId>> = witnesses.iter().cloned().collect();
        witnesses.retain(|w| {
            !snapshot
                .iter()
                .any(|other| other != w && other.is_subset(w))
        });
        WhyProvenance { witnesses }
    }
}

impl Semiring for WhyProvenance {
    fn zero() -> Self {
        WhyProvenance::default()
    }

    fn one() -> Self {
        let mut w = BTreeSet::new();
        w.insert(BTreeSet::new());
        WhyProvenance { witnesses: w }
    }

    fn plus(&self, other: &Self) -> Self {
        let union: BTreeSet<_> = self
            .witnesses
            .iter()
            .chain(other.witnesses.iter())
            .cloned()
            .collect();
        WhyProvenance::minimise(union)
    }

    fn times(&self, other: &Self) -> Self {
        if self.witnesses.is_empty() || other.witnesses.is_empty() {
            return WhyProvenance::zero();
        }
        let mut out = BTreeSet::new();
        for a in &self.witnesses {
            for b in &other.witnesses {
                out.insert(a.union(b).copied().collect());
            }
        }
        WhyProvenance::minimise(out)
    }
}

impl fmt::Display for WhyProvenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.witnesses.is_empty() {
            return write!(f, "0");
        }
        let rendered: Vec<String> = self
            .witnesses
            .iter()
            .map(|w| {
                if w.is_empty() {
                    "1".to_string()
                } else {
                    w.iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join("*")
                }
            })
            .collect();
        write!(f, "{}", rendered.join(" + "))
    }
}

/// The trust-level semiring of Section 4.5: a derivation's trust is the
/// minimum security level along its antecedents, and a tuple's trust is the
/// maximum over its alternative derivations.
///
/// The paper's example: `<a + a*b>` with `level(a)=2`, `level(b)=1` yields
/// `max(2, min(2,1)) = 2`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct TrustLevel(pub u8);

impl Semiring for TrustLevel {
    fn zero() -> Self {
        TrustLevel(0)
    }

    fn one() -> Self {
        TrustLevel(u8::MAX)
    }

    fn plus(&self, other: &Self) -> Self {
        TrustLevel(self.0.max(other.0))
    }

    fn times(&self, other: &Self) -> Self {
        TrustLevel(self.0.min(other.0))
    }
}

impl fmt::Display for TrustLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "level {}", self.0)
    }
}

/// The counting semiring: how many distinct derivations a tuple has
/// (saturating so cyclic programs cannot overflow).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct DerivationCount(pub u64);

impl Semiring for DerivationCount {
    fn zero() -> Self {
        DerivationCount(0)
    }

    fn one() -> Self {
        DerivationCount(1)
    }

    fn plus(&self, other: &Self) -> Self {
        DerivationCount(self.0.saturating_add(other.0))
    }

    fn times(&self, other: &Self) -> Self {
        DerivationCount(self.0.saturating_mul(other.0))
    }
}

impl fmt::Display for DerivationCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} derivations", self.0)
    }
}

/// The vote semiring: the set of principals that took part in any derivation
/// of the tuple.  A K-of-N trust policy ("accept an update only if over K
/// principals assert it", Section 3) checks the cardinality of this set.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct VoteSet {
    principals: BTreeSet<u32>,
    /// Distinguishes "no derivation" (zero) from "derived with no principal
    /// involvement" (one); only zero annihilates under `times`.
    derivable: bool,
}

impl VoteSet {
    /// A vote cast by a single principal (a base tuple asserted by it).
    pub fn principal(id: u32) -> Self {
        VoteSet {
            principals: std::iter::once(id).collect(),
            derivable: true,
        }
    }

    /// The asserting principals.
    pub fn principals(&self) -> &BTreeSet<u32> {
        &self.principals
    }

    /// Number of distinct principals involved.
    pub fn count(&self) -> usize {
        self.principals.len()
    }

    /// True if at least `k` distinct principals are involved.
    pub fn satisfies_threshold(&self, k: usize) -> bool {
        self.derivable && self.count() >= k
    }
}

impl Semiring for VoteSet {
    fn zero() -> Self {
        VoteSet::default()
    }

    fn one() -> Self {
        VoteSet {
            principals: BTreeSet::new(),
            derivable: true,
        }
    }

    fn plus(&self, other: &Self) -> Self {
        VoteSet {
            principals: self.principals.union(&other.principals).copied().collect(),
            derivable: self.derivable || other.derivable,
        }
    }

    fn times(&self, other: &Self) -> Self {
        if !self.derivable || !other.derivable {
            return VoteSet::zero();
        }
        VoteSet {
            principals: self.principals.union(&other.principals).copied().collect(),
            derivable: true,
        }
    }
}

impl fmt::Display for VoteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{{}}}",
            self.principals
                .iter()
                .map(|p| format!("p{p}"))
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(id: u64) -> BaseTupleId {
        BaseTupleId(id)
    }

    #[test]
    fn why_provenance_absorption_matches_the_paper_example() {
        // a + a*b  =>  {{a}}
        let a = WhyProvenance::base(t(0));
        let b = WhyProvenance::base(t(1));
        let expr = a.plus(&a.times(&b));
        assert_eq!(expr, a);
        assert_eq!(expr.support().len(), 1);
        assert_eq!(expr.to_string(), "t0");
    }

    #[test]
    fn why_provenance_zero_and_one_laws() {
        let a = WhyProvenance::base(t(3));
        assert_eq!(a.plus(&WhyProvenance::zero()), a);
        assert_eq!(a.times(&WhyProvenance::one()), a);
        assert_eq!(a.times(&WhyProvenance::zero()), WhyProvenance::zero());
        assert_eq!(WhyProvenance::zero().to_string(), "0");
        assert_eq!(WhyProvenance::one().to_string(), "1");
    }

    #[test]
    fn why_provenance_join_of_distinct_bases() {
        let a = WhyProvenance::base(t(0));
        let b = WhyProvenance::base(t(1));
        let c = WhyProvenance::base(t(2));
        let joined = a.times(&b).plus(&c);
        assert_eq!(joined.witnesses().len(), 2);
        assert_eq!(joined.size(), 3);
        assert_eq!(joined.support().len(), 3);
        assert_eq!(joined.to_string(), "t0*t1 + t2");
    }

    #[test]
    fn trust_level_matches_paper_example() {
        // <a + a*b> with level(a)=2, level(b)=1 -> max(2, min(2,1)) = 2.
        let a = TrustLevel(2);
        let b = TrustLevel(1);
        let result = a.plus(&a.times(&b));
        assert_eq!(result, TrustLevel(2));
        assert_eq!(result.to_string(), "level 2");
    }

    #[test]
    fn derivation_count_arithmetic() {
        let two = DerivationCount(2);
        let three = DerivationCount(3);
        assert_eq!(two.plus(&three), DerivationCount(5));
        assert_eq!(two.times(&three), DerivationCount(6));
        assert_eq!(
            DerivationCount(u64::MAX).plus(&two),
            DerivationCount(u64::MAX)
        );
        assert_eq!(two.to_string(), "2 derivations");
    }

    #[test]
    fn vote_set_threshold_policy() {
        let from_a = VoteSet::principal(0);
        let from_b = VoteSet::principal(1);
        let from_c = VoteSet::principal(2);
        // The same update asserted independently by three principals.
        let votes = from_a.plus(&from_b).plus(&from_c);
        assert_eq!(votes.count(), 3);
        assert!(votes.satisfies_threshold(2));
        assert!(!votes.satisfies_threshold(4));
        assert_eq!(votes.to_string(), "{p0,p1,p2}");
        // A join chains principals rather than adding votes.
        let chained = from_a.times(&from_b);
        assert_eq!(chained.count(), 2);
        // zero annihilates joins.
        assert_eq!(chained.times(&VoteSet::zero()), VoteSet::zero());
        assert!(!VoteSet::zero().satisfies_threshold(0));
        assert!(VoteSet::one().satisfies_threshold(0));
    }

    // Generic semiring law checks, instantiated per implementation.
    fn check_laws<S: Semiring>(a: S, b: S, c: S) {
        // + commutative/associative with identity zero.
        assert_eq!(a.plus(&b), b.plus(&a));
        assert_eq!(a.plus(&b).plus(&c), a.plus(&b.plus(&c)));
        assert_eq!(a.plus(&S::zero()), a);
        // * commutative/associative with identity one and annihilator zero.
        assert_eq!(a.times(&b), b.times(&a));
        assert_eq!(a.times(&b).times(&c), a.times(&b.times(&c)));
        assert_eq!(a.times(&S::one()), a);
        assert_eq!(a.times(&S::zero()), S::zero());
    }

    proptest! {
        #[test]
        fn prop_trust_level_laws(a in 0u8..=255, b in 0u8..=255, c in 0u8..=255) {
            check_laws(TrustLevel(a), TrustLevel(b), TrustLevel(c));
            // Distributivity holds for the (max, min) lattice semiring.
            let (a, b, c) = (TrustLevel(a), TrustLevel(b), TrustLevel(c));
            prop_assert_eq!(a.times(&b.plus(&c)), a.times(&b).plus(&a.times(&c)));
        }

        #[test]
        fn prop_count_laws(a in 0u64..1000, b in 0u64..1000, c in 0u64..1000) {
            check_laws(DerivationCount(a), DerivationCount(b), DerivationCount(c));
            let (a, b, c) = (DerivationCount(a), DerivationCount(b), DerivationCount(c));
            prop_assert_eq!(a.times(&b.plus(&c)), a.times(&b).plus(&a.times(&c)));
        }

        #[test]
        fn prop_why_provenance_laws(
            xs in proptest::collection::vec(0u64..6, 1..4),
            ys in proptest::collection::vec(0u64..6, 1..4),
            zs in proptest::collection::vec(0u64..6, 1..4),
        ) {
            let build = |ids: &[u64]| {
                ids.iter().fold(WhyProvenance::one(), |acc, &i| acc.times(&WhyProvenance::base(t(i))))
            };
            let (a, b, c) = (build(&xs), build(&ys), build(&zs));
            check_laws(a.clone(), b.clone(), c.clone());
            // Distributivity (holds after minimisation).
            prop_assert_eq!(a.times(&b.plus(&c)), a.times(&b).plus(&a.times(&c)));
            // Absorption: a + a*b == a.
            prop_assert_eq!(a.plus(&a.times(&b)), a);
        }

        #[test]
        fn prop_vote_set_laws(
            xs in proptest::collection::vec(0u32..8, 0..4),
            ys in proptest::collection::vec(0u32..8, 0..4),
            zs in proptest::collection::vec(0u32..8, 0..4),
        ) {
            let build = |ids: &[u32]| {
                ids.iter().fold(VoteSet::one(), |acc, &i| acc.times(&VoteSet::principal(i)))
            };
            check_laws(build(&xs), build(&ys), build(&zs));
        }
    }
}
