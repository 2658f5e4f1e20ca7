//! Per-tuple provenance annotations ("tags") carried by the engine.
//!
//! The engine annotates every derived tuple with a [`ProvTag`]; the variant
//! in use is chosen by the experiment configuration and corresponds to a row
//! of the paper's taxonomy:
//!
//! * [`ProvTag::None`] — plain NDlog, no provenance (the NDLog baseline of
//!   Section 6);
//! * [`ProvTag::Condensed`] — BDD-condensed local provenance over the
//!   asserting principals (Section 4.4, the SeNDLogProv configuration);
//! * [`ProvTag::Why`] — uncondensed witness sets, against which the
//!   condensation claim of `tests/optimizations.rs` measures how much the
//!   BDD encoding saves;
//! * [`ProvTag::Trust`], [`ProvTag::Count`], [`ProvTag::Vote`] — the
//!   quantifiable-provenance semirings of Section 4.5.
//!
//! Condensed tags are canonicalised through a shared [`VarTable`] /
//! [`pasn_bdd::BddManager`], so `a + a*b` and `a` produce identical tags.
//! Everything else a condensed tag shows is read straight off its diagram:
//! its text ([`VarTable::render`]) and wire size ([`ProvTag::wire_size`])
//! are its minimal positive sum of products, its trust level a fold over
//! its nodes ([`ProvTag::trust_level`]).  A diagram node never changes once
//! made, so the wire size — asked once per shipped tuple — is read off once
//! per [`BddRef`] and memoised in the [`VarTable`].

use crate::key::DigestMap;
use crate::semiring::{BaseTupleId, DerivationCount, Semiring, TrustLevel, VoteSet, WhyProvenance};
use pasn_bdd::{BddManager, BddRef, VarId};
use pasn_crypto::PrincipalId;
use std::cell::RefCell;
use std::fmt;

/// Which provenance annotation the engine maintains.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProvenanceKind {
    /// No provenance at all.
    #[default]
    None,
    /// Uncondensed why-provenance (witness sets of base tuples).
    Why,
    /// BDD-condensed provenance over asserting principals (Section 4.4).
    Condensed,
    /// Trust levels (max/min semiring, Section 4.5).
    Trust,
    /// Number of distinct derivations.
    Count,
    /// Set of principals involved in any derivation (K-of-N votes).
    Vote,
}

impl ProvenanceKind {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ProvenanceKind::None => "none",
            ProvenanceKind::Why => "why",
            ProvenanceKind::Condensed => "condensed",
            ProvenanceKind::Trust => "trust",
            ProvenanceKind::Count => "count",
            ProvenanceKind::Vote => "vote",
        }
    }
}

/// Maps provenance variables (principals and base-tuple keys) to BDD
/// variables and owns the shared BDD manager used for condensation.
#[derive(Debug, Default)]
pub struct VarTable {
    manager: BddManager,
    by_principal: DigestMap<u32, VarId>,
    by_base: DigestMap<BaseTupleId, VarId>,
    names: Vec<String>,
    /// The principal behind each variable, indexed by [`VarId`] (`None` for
    /// a base-tuple variable).
    principals: Vec<Option<PrincipalId>>,
    /// Wire size of every condensed tag asked for so far, indexed by
    /// [`BddRef::index`]; 0 until asked (a shipped tag is at least 2 bytes).
    /// Never stale: the manager only adds nodes, it never changes one.
    wire_sizes: RefCell<Vec<usize>>,
}

impl VarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        VarTable::default()
    }

    /// Variable for a principal, interned on first use.
    pub(crate) fn principal_var(&mut self, principal: PrincipalId) -> VarId {
        if let Some(&v) = self.by_principal.get(&principal.0) {
            return v;
        }
        let v = self.intern(format!("{principal}"), Some(principal));
        self.by_principal.insert(principal.0, v);
        v
    }

    /// Variable for a base tuple, interned on first use.
    pub(crate) fn base_var(&mut self, base: BaseTupleId, name: impl Into<String>) -> VarId {
        if let Some(&v) = self.by_base.get(&base) {
            return v;
        }
        let v = self.intern(name.into(), None);
        self.by_base.insert(base, v);
        v
    }

    /// Allots the next variable.
    fn intern(&mut self, name: String, principal: Option<PrincipalId>) -> VarId {
        self.names.push(name);
        self.principals.push(principal);
        (self.names.len() - 1) as VarId
    }

    /// The principal behind a BDD variable, if the variable was interned via
    /// `VarTable::principal_var`.
    pub fn principal_of(&self, var: VarId) -> Option<PrincipalId> {
        self.principals.get(var as usize).copied().flatten()
    }

    /// Human-readable name of a variable.
    pub(crate) fn name_of(&self, var: VarId) -> &str {
        self.names
            .get(var as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// The underlying BDD manager.
    pub fn manager_mut(&mut self) -> &mut BddManager {
        &mut self.manager
    }

    /// The underlying BDD manager (shared access).
    pub fn manager(&self) -> &BddManager {
        &self.manager
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no variables have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Renders a condensed BDD as the paper's `<...>` annotation: its
    /// minimal products (`min_products`) by variable name, `*` within a
    /// product and ` + ` between them, e.g. `<p0*p1 + p2>`; `<0>` for
    /// `false` and `<1>` for `true`.
    pub fn render(&self, bdd: BddRef) -> String {
        let products = min_products(&self.manager, bdd);
        let names = |p: &[VarId]| -> Vec<&str> { p.iter().map(|&v| self.name_of(v)).collect() };
        let text = match products.as_slice() {
            [] => "0".to_string(),
            [only] if only.is_empty() => "1".to_string(),
            _ => {
                let terms: Vec<String> = products.iter().map(|p| names(p).join("*")).collect();
                terms.join(" + ")
            }
        };
        format!("<{text}>")
    }

    /// The bytes `bdd` ships as: a 2-byte header and 4 per literal of its
    /// minimal products ([`min_products`]), read off on the first ask and
    /// memoised — the node behind `bdd` never changes.
    fn wire_size(&self, bdd: BddRef) -> usize {
        let at = bdd.index() as usize;
        let mut memo = self.wire_sizes.borrow_mut();
        if memo.len() <= at {
            memo.resize(self.manager.node_count(), 0);
        }
        if memo[at] == 0 {
            let products = min_products(&self.manager, bdd);
            memo[at] = 2 + products.iter().map(Vec::len).sum::<usize>() * 4;
        }
        memo[at]
    }
}

/// The minimal positive products of a monotone BDD — a provenance function,
/// which never negates: the positive literals of each path to `true` (a path
/// meets variables in order, so each product comes sorted), sorted and
/// deduplicated, every product that contains another absorbed.  `[]` for
/// `false`, `[[]]` for `true`.
fn min_products(manager: &BddManager, bdd: BddRef) -> Vec<Vec<VarId>> {
    let paths = manager.cubes(bdd, usize::MAX).into_iter();
    let mut products: Vec<Vec<VarId>> = paths
        .map(|path| path.into_iter().filter(|l| l.1).map(|l| l.0).collect())
        .collect();
    products.sort();
    products.dedup();
    let all = products.clone();
    products.retain(|p| {
        !all.iter()
            .any(|q| q != p && q.iter().all(|v| p.contains(v)))
    });
    products
}

/// Witness-encoding budget above which a [`ProvTag::Why`] tag is
/// automatically converted to its BDD-condensed form by the semiring
/// operations ([`ProvTag::times`] / [`ProvTag::plus`]).  Uncondensed
/// witness sets grow multiplicatively under joins — the exact blow-up the
/// paper's condensation (Section 4.4) exists to stop — so above this many
/// base-tuple entries the canonical BDD becomes the default
/// representation and tag memory stops scaling with derivation count.
/// Small tags stay uncondensed: the condensation claim measures them, and
/// below this size they are cheaper than BDD nodes.
pub(crate) const CONDENSE_WITNESS_THRESHOLD: usize = 16;

/// A per-tuple provenance annotation.
#[derive(Clone, PartialEq, Debug, Default)]
pub enum ProvTag {
    /// No provenance maintained.
    #[default]
    None,
    /// Uncondensed why-provenance.
    Why(Box<WhyProvenance>),
    /// Condensed provenance: a canonical BDD owned by the shared
    /// [`VarTable`].
    Condensed(BddRef),
    /// Trust level of the best derivation.
    Trust(TrustLevel),
    /// Number of distinct derivations.
    Count(DerivationCount),
    /// Principals involved in the derivations.
    Vote(Box<VoteSet>),
}

// Every ledger firing, stored slot and shipped row holds a tag: the two set
// kinds are boxed so the others keep a tag at two words.
const _: () = assert!(std::mem::size_of::<ProvTag>() == 16);

impl ProvTag {
    /// The kind of this tag.
    pub(crate) fn kind(&self) -> ProvenanceKind {
        match self {
            ProvTag::None => ProvenanceKind::None,
            ProvTag::Why(_) => ProvenanceKind::Why,
            ProvTag::Condensed(_) => ProvenanceKind::Condensed,
            ProvTag::Trust(_) => ProvenanceKind::Trust,
            ProvTag::Count(_) => ProvenanceKind::Count,
            ProvTag::Vote(_) => ProvenanceKind::Vote,
        }
    }

    /// The annotation of a base tuple asserted by `principal` (whose
    /// security level is `level`), under the given provenance kind.
    pub fn base(
        kind: ProvenanceKind,
        table: &mut VarTable,
        base_id: BaseTupleId,
        base_name: &str,
        principal: PrincipalId,
        level: u8,
    ) -> ProvTag {
        match kind {
            ProvenanceKind::None => ProvTag::None,
            ProvenanceKind::Why => ProvTag::Why(Box::new(WhyProvenance::base(base_id))),
            ProvenanceKind::Condensed => {
                // Condensed provenance tracks the asserting principal, which
                // is what trust decisions need (paper §4.4); the base-tuple
                // name is retained only for rendering.
                let _ = base_name;
                let var = table.principal_var(principal);
                ProvTag::Condensed(table.manager_mut().var(var))
            }
            ProvenanceKind::Trust => ProvTag::Trust(TrustLevel(level)),
            ProvenanceKind::Count => ProvTag::Count(DerivationCount(1)),
            ProvenanceKind::Vote => ProvTag::Vote(Box::new(VoteSet::principal(principal.0))),
        }
    }

    /// The multiplicative identity for `kind` (used when folding joins).
    /// Every kind's identity is a constant — the condensed one is
    /// [`BddRef::TRUE`] — so the table goes unread.
    pub fn one(kind: ProvenanceKind, _table: &mut VarTable) -> ProvTag {
        match kind {
            ProvenanceKind::None => ProvTag::None,
            ProvenanceKind::Why => ProvTag::Why(Box::new(WhyProvenance::one())),
            ProvenanceKind::Condensed => ProvTag::Condensed(BddRef::TRUE),
            ProvenanceKind::Trust => ProvTag::Trust(TrustLevel::one()),
            ProvenanceKind::Count => ProvTag::Count(DerivationCount::one()),
            ProvenanceKind::Vote => ProvTag::Vote(Box::new(VoteSet::one())),
        }
    }

    /// Join combination (`*`): both tags must have the same kind, except
    /// that `Why` and `Condensed` mix freely — an uncondensed tag meeting
    /// one that already crossed `CONDENSE_WITNESS_THRESHOLD` is condensed
    /// on the spot.  A `Why` result above the threshold condenses too.
    pub fn times(&self, other: &ProvTag, table: &mut VarTable) -> ProvTag {
        match (self, other) {
            (ProvTag::None, ProvTag::None) => ProvTag::None,
            (ProvTag::Why(a), ProvTag::Why(b)) => {
                ProvTag::Why(Box::new(a.times(b))).condense_if_large(table)
            }
            (ProvTag::Condensed(a), ProvTag::Condensed(b)) => {
                ProvTag::Condensed(table.manager_mut().and(*a, *b))
            }
            (ProvTag::Why(_), ProvTag::Condensed(_)) | (ProvTag::Condensed(_), ProvTag::Why(_)) => {
                let (a, b) = (self.condensed_ref(table), other.condensed_ref(table));
                ProvTag::Condensed(table.manager_mut().and(a, b))
            }
            (ProvTag::Trust(a), ProvTag::Trust(b)) => ProvTag::Trust(a.times(b)),
            (ProvTag::Count(a), ProvTag::Count(b)) => ProvTag::Count(a.times(b)),
            (ProvTag::Vote(a), ProvTag::Vote(b)) => ProvTag::Vote(Box::new(a.times(b))),
            (a, b) => panic!(
                "provenance kind mismatch in times: {:?} vs {:?}",
                a.kind(),
                b.kind()
            ),
        }
    }

    /// Alternative-derivation combination (`+`): both tags must have the
    /// same kind, with the same `Why` / `Condensed` mixing and
    /// auto-condensation rules as [`ProvTag::times`].
    pub fn plus(&self, other: &ProvTag, table: &mut VarTable) -> ProvTag {
        match (self, other) {
            (ProvTag::None, ProvTag::None) => ProvTag::None,
            (ProvTag::Why(a), ProvTag::Why(b)) => {
                ProvTag::Why(Box::new(a.plus(b))).condense_if_large(table)
            }
            (ProvTag::Condensed(a), ProvTag::Condensed(b)) => {
                ProvTag::Condensed(table.manager_mut().or(*a, *b))
            }
            (ProvTag::Why(_), ProvTag::Condensed(_)) | (ProvTag::Condensed(_), ProvTag::Why(_)) => {
                let (a, b) = (self.condensed_ref(table), other.condensed_ref(table));
                ProvTag::Condensed(table.manager_mut().or(a, b))
            }
            (ProvTag::Trust(a), ProvTag::Trust(b)) => ProvTag::Trust(a.plus(b)),
            (ProvTag::Count(a), ProvTag::Count(b)) => ProvTag::Count(a.plus(b)),
            (ProvTag::Vote(a), ProvTag::Vote(b)) => ProvTag::Vote(Box::new(a.plus(b))),
            (a, b) => panic!(
                "provenance kind mismatch in plus: {:?} vs {:?}",
                a.kind(),
                b.kind()
            ),
        }
    }

    /// Converts a `Why` tag into the equivalent canonical BDD over
    /// base-tuple variables: each witness set becomes a conjunction, the
    /// alternatives a disjunction.  `Condensed` tags pass through; other
    /// kinds have no condensed form.
    pub fn condense(&self, table: &mut VarTable) -> Option<ProvTag> {
        match self {
            ProvTag::Condensed(b) => Some(ProvTag::Condensed(*b)),
            ProvTag::Why(w) => {
                let mut acc = BddRef::FALSE;
                for witness in w.witnesses() {
                    let mut cube = BddRef::TRUE;
                    for id in witness {
                        let var = table.base_var(*id, id.to_string());
                        let lit = table.manager_mut().var(var);
                        cube = table.manager_mut().and(cube, lit);
                    }
                    acc = table.manager_mut().or(acc, cube);
                }
                Some(ProvTag::Condensed(acc))
            }
            _ => None,
        }
    }

    /// The canonical BDD behind a `Why` or `Condensed` tag (condensing the
    /// former); callers guarantee the kind.
    fn condensed_ref(&self, table: &mut VarTable) -> BddRef {
        match self.condense(table).expect("tag has a condensed form") {
            ProvTag::Condensed(b) => b,
            _ => unreachable!("condense returns a condensed tag"),
        }
    }

    /// Applies the auto-condensation policy: a `Why` tag whose witness
    /// encoding exceeds [`CONDENSE_WITNESS_THRESHOLD`] base-tuple entries
    /// is replaced by its canonical BDD; everything else passes through.
    pub(crate) fn condense_if_large(self, table: &mut VarTable) -> ProvTag {
        match &self {
            ProvTag::Why(w) if w.size() > CONDENSE_WITNESS_THRESHOLD => self
                .condense(table)
                .expect("why tags always have a condensed form"),
            _ => self,
        }
    }

    /// Number of bytes this tag adds to a tuple shipped on the wire.
    ///
    /// Condensed provenance is shipped as the minimal positive sum of
    /// products [`VarTable::render`] shows: a 2-byte header and 4 bytes per
    /// principal literal (`2 + 4·literals`, 2 for a constant), which is the
    /// compact form the paper attributes to the BDD encoding.  The table
    /// reads it off once per diagram and remembers it.
    /// Why-provenance ships every witness uncondensed (8 bytes per
    /// base-tuple key plus one per witness), which is what the condensation
    /// claim of `tests/optimizations.rs` compares against.
    pub fn wire_size(&self, table: &VarTable) -> usize {
        match self {
            ProvTag::None => 0,
            ProvTag::Why(w) => 2 + w.size() * 8 + w.witnesses().len(),
            ProvTag::Condensed(bdd) => table.wire_size(*bdd),
            ProvTag::Trust(_) => 1,
            ProvTag::Count(_) => 8,
            ProvTag::Vote(v) => 2 + v.count() * 4,
        }
    }

    /// Renders the tag as the paper's `<...>` annotation.
    pub fn render(&self, table: &VarTable) -> String {
        match self {
            ProvTag::None => "<>".to_string(),
            ProvTag::Why(w) => format!("<{w}>"),
            ProvTag::Condensed(bdd) => table.render(*bdd),
            ProvTag::Trust(t) => format!("<{t}>"),
            ProvTag::Count(c) => format!("<{c}>"),
            ProvTag::Vote(v) => format!("<{v}>"),
        }
    }

    /// Evaluates the trust level of this tag given a per-principal security
    /// level function; only meaningful for condensed tags (the quantifiable
    /// evaluation of Section 4.5) and trust tags (already a level).  A
    /// condensed tag's level is the max over its derivations of the min
    /// level of the principals each one needs: over the BDD's paths to
    /// `true`, the min over each path's positive principal literals, folded
    /// once per node — `None` for `false`, `u8::MAX` for `true`.
    pub fn trust_level<F: Fn(u32) -> u8>(&self, table: &VarTable, level_of: F) -> Option<u8> {
        match self {
            ProvTag::Trust(t) => Some(t.0),
            ProvTag::Condensed(bdd) => {
                let level = |var| table.principal_of(var).map_or(u8::MAX, |p| level_of(p.0));
                // `None` orders below every level, so `max` skips a dead end.
                let node = |var, low: &Option<u8>, high: &Option<u8>| {
                    (*low).max(high.map(|high| high.min(level(var))))
                };
                table.manager().fold(*bdd, None, Some(u8::MAX), node)
            }
            _ => None,
        }
    }
}

impl fmt::Display for ProvTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvTag::None => write!(f, "<>"),
            ProvTag::Why(w) => write!(f, "<{w}>"),
            ProvTag::Condensed(b) => write!(f, "<bdd#{}>", b.index()),
            ProvTag::Trust(t) => write!(f, "<{t}>"),
            ProvTag::Count(c) => write!(f, "<{c}>"),
            ProvTag::Vote(v) => write!(f, "<{v}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(id: u32) -> PrincipalId {
        PrincipalId(id)
    }

    #[test]
    fn condensed_tag_reproduces_figure2_condensation() {
        let mut table = VarTable::new();
        let a = ProvTag::base(
            ProvenanceKind::Condensed,
            &mut table,
            BaseTupleId(0),
            "link(a,c)",
            p(0),
            2,
        );
        let b = ProvTag::base(
            ProvenanceKind::Condensed,
            &mut table,
            BaseTupleId(1),
            "link(a,b)",
            p(1),
            1,
        );
        // reachable(a,c) = a + a*b
        let ab = a.times(&b, &mut table);
        let expr = a.plus(&ab, &mut table);
        // Condensation: equal to plain <a>.
        assert_eq!(expr, a);
        assert_eq!(expr.render(&table), "<p0>");
        // Quantifiable trust: max(2, min(2,1)) = 2.
        let levels = |pid: u32| if pid == 0 { 2 } else { 1 };
        assert_eq!(expr.trust_level(&table, levels), Some(2));
        // The uncondensed union a + a*b would have 3 literals; condensed has 1.
        assert!(expr.wire_size(&table) < 2 + 3 * 4 + 1);
    }

    /// The condensed tag of principal `id`.
    fn said_by(table: &mut VarTable, id: u32) -> ProvTag {
        let kind = ProvenanceKind::Condensed;
        ProvTag::base(kind, table, BaseTupleId(id.into()), "t", p(id), 1)
    }

    /// The max–min by brute force: over every assignment of the first
    /// `vars` variables that satisfies the tag, the least level of the
    /// principals it sets (`u8::MAX` for none); `None` if none satisfies.
    fn brute_force_level(table: &VarTable, tag: &ProvTag, vars: u32, level: &[u8]) -> Option<u8> {
        let ProvTag::Condensed(bdd) = tag else {
            panic!("condensed tag expected");
        };
        let set = |assignment: u32, var: VarId| assignment >> var & 1 == 1;
        let satisfying =
            (0..1u32 << vars).filter(|&a| table.manager().evaluate(*bdd, |v| set(a, v)));
        let level_of = |var| level[table.principal_of(var).unwrap().0 as usize];
        let least = |a: u32| (0..vars).filter(|&v| set(a, v)).map(level_of).min();
        satisfying.map(|a| least(a).unwrap_or(u8::MAX)).max()
    }

    #[test]
    fn trust_levels_are_the_max_min_over_every_assignment() {
        // Random monotone tags — sums of products of eight principals —
        // under random levels, from a fixed splitmix64 stream.
        let mut state = 0x5eed_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let mut table = VarTable::new();
        let principals: Vec<ProvTag> = (0..8).map(|id| said_by(&mut table, id)).collect();
        for _ in 0..64 {
            let level: Vec<u8> = (0..8).map(|_| next(5) as u8).collect();
            let mut tag = ProvTag::Condensed(BddRef::FALSE);
            for _ in 0..1 + next(4) {
                let mut product = ProvTag::one(ProvenanceKind::Condensed, &mut table);
                for _ in 0..1 + next(4) {
                    product = product.times(&principals[next(8) as usize], &mut table);
                }
                tag = tag.plus(&product, &mut table);
            }
            let expected = brute_force_level(&table, &tag, 8, &level);
            assert_eq!(tag.trust_level(&table, |id| level[id as usize]), expected);
        }
        let never = ProvTag::Condensed(BddRef::FALSE);
        assert_eq!(never.trust_level(&table, |_| 1), None);
    }

    #[test]
    fn a_tag_with_more_paths_than_any_cap_is_levelled_exactly() {
        // (a0 + b0) * (a1 + b1) * ... * (a12 + b12): 2^13 paths.  With a0 at
        // level 1, b0 at 4 and everyone else at 3, the best derivation takes
        // b0 and one principal per other clause: level 3.  The paths through
        // a0 alone — the first 4,096 a depth-first walk meets — say 1.
        let mut table = VarTable::new();
        let mut tag = ProvTag::one(ProvenanceKind::Condensed, &mut table);
        for clause in 0..13 {
            let a = said_by(&mut table, 2 * clause);
            let b = said_by(&mut table, 2 * clause + 1);
            tag = tag.times(&a.plus(&b, &mut table), &mut table);
        }
        let ProvTag::Condensed(bdd) = tag else {
            unreachable!("condensed tags multiply to a condensed tag");
        };
        assert_eq!(table.manager().cubes(bdd, usize::MAX).len(), 1 << 13);
        let level = |id: u32| match id {
            0 => 1,
            1 => 4,
            _ => 3,
        };
        let per_clause = (0..13).map(|c| level(2 * c).max(level(2 * c + 1)));
        assert_eq!(per_clause.min(), Some(3));
        assert_eq!(tag.trust_level(&table, level), Some(3));
    }

    proptest! {
        #[test]
        fn prop_render_and_wire_size_are_the_minimal_satisfying_sets(
            sum in proptest::collection::vec(proptest::collection::vec(0u32..8, 0..5), 0..5)
        ) {
            let mut table = VarTable::new();
            let principals: Vec<ProvTag> = (0..8).map(|id| said_by(&mut table, id)).collect();
            let mut tag = ProvTag::Condensed(BddRef::FALSE);
            for product in &sum {
                let mut term = ProvTag::one(ProvenanceKind::Condensed, &mut table);
                for &id in product {
                    term = term.times(&principals[id as usize], &mut table);
                }
                tag = tag.plus(&term, &mut table);
            }
            let ProvTag::Condensed(bdd) = tag else {
                unreachable!("condensed tags sum to a condensed tag");
            };
            // Every assignment of the eight principals; the satisfying ones
            // no other satisfying one is a subset of, as sorted var lists.
            let sat: Vec<u32> =
                (0..256).filter(|&a| table.manager().evaluate(bdd, |v| a >> v & 1 == 1)).collect();
            let minimal = sat.iter().filter(|&&a| !sat.iter().any(|&b| b != a && b & a == b));
            let mut sets: Vec<Vec<u32>> =
                minimal.map(|&a| (0..8).filter(|v| a >> v & 1 == 1).collect()).collect();
            sets.sort();
            let text = match sets.as_slice() {
                [] => "0".to_string(),
                [only] if only.is_empty() => "1".to_string(),
                _ => sets
                    .iter()
                    .map(|set| set.iter().map(|v| format!("p{v}")).collect::<Vec<_>>().join("*"))
                    .collect::<Vec<_>>()
                    .join(" + "),
            };
            prop_assert_eq!(tag.render(&table), format!("<{text}>"));
            let literals: usize = sets.iter().map(Vec::len).sum();
            prop_assert_eq!(tag.wire_size(&table), 2 + 4 * literals);
        }
    }

    /// The sum of products `sum` over principals, built in `table`.
    fn sum_of_products(table: &mut VarTable, sum: &[Vec<u32>]) -> ProvTag {
        let mut tag = ProvTag::Condensed(BddRef::FALSE);
        for product in sum {
            let mut term = ProvTag::one(ProvenanceKind::Condensed, table);
            for &id in product {
                term = term.times(&said_by(table, id), table);
            }
            tag = tag.plus(&term, table);
        }
        tag
    }

    #[test]
    fn a_memoised_wire_size_is_what_a_fresh_table_reads_off() {
        // Sums of products of eight principals from a fixed splitmix64
        // stream, each asked for once it is built and again after every
        // later tag has grown the shared manager.
        let mut state = 0x3a7e_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let fresh = |sum: &[Vec<u32>]| {
            let mut table = VarTable::new();
            sum_of_products(&mut table, sum).wire_size(&table)
        };
        let mut shared = VarTable::new();
        let mut built = Vec::new();
        for _ in 0..48 {
            let sum: Vec<Vec<u32>> = (0..next(4))
                .map(|_| (0..1 + next(4)).map(|_| next(8) as u32).collect())
                .collect();
            let tag = sum_of_products(&mut shared, &sum);
            let expected = fresh(&sum);
            assert_eq!(tag.wire_size(&shared), expected, "{sum:?}");
            built.push((tag, expected));
        }
        for (tag, expected) in &built {
            assert_eq!(tag.wire_size(&shared), *expected);
        }
        assert!(
            built.iter().any(|(_, bytes)| *bytes > 6),
            "some tag is wide"
        );
    }

    #[test]
    fn a_base_tuple_has_one_name_condensed_or_not() {
        let mut table = VarTable::new();
        let why = ProvTag::Why(Box::new(WhyProvenance::base(BaseTupleId(26))));
        let condensed = why.condense(&mut table).expect("why tags condense");
        assert_eq!(why.render(&table), "<t1a>");
        assert_eq!(condensed.render(&table), "<t1a>");
    }

    #[test]
    fn principals_are_read_off_their_variables() {
        let mut table = VarTable::new();
        let base = table.base_var(BaseTupleId(5), "link(a,b)");
        let seven = table.principal_var(p(7));
        assert_eq!(table.principal_of(seven), Some(p(7)));
        assert_eq!(table.principal_of(base), None);
        assert_eq!(table.principal_of(99), None);
    }

    #[test]
    fn why_tag_tracks_witnesses_uncondensed_size() {
        let mut table = VarTable::new();
        let a = ProvTag::base(
            ProvenanceKind::Why,
            &mut table,
            BaseTupleId(0),
            "a",
            p(0),
            1,
        );
        let b = ProvTag::base(
            ProvenanceKind::Why,
            &mut table,
            BaseTupleId(1),
            "b",
            p(1),
            1,
        );
        let joined = a.times(&b, &mut table);
        match &joined {
            ProvTag::Why(w) => assert_eq!(w.size(), 2),
            other => panic!("unexpected tag {other:?}"),
        }
        assert!(joined.wire_size(&table) > a.wire_size(&table));
    }

    #[test]
    fn trust_count_vote_tags_follow_their_semirings() {
        let mut table = VarTable::new();
        let t2 = ProvTag::base(
            ProvenanceKind::Trust,
            &mut table,
            BaseTupleId(0),
            "a",
            p(0),
            2,
        );
        let t1 = ProvTag::base(
            ProvenanceKind::Trust,
            &mut table,
            BaseTupleId(1),
            "b",
            p(1),
            1,
        );
        assert_eq!(
            t2.plus(&t2.times(&t1, &mut table), &mut table),
            ProvTag::Trust(TrustLevel(2))
        );

        let c = ProvTag::base(
            ProvenanceKind::Count,
            &mut table,
            BaseTupleId(0),
            "a",
            p(0),
            1,
        );
        assert_eq!(c.plus(&c, &mut table), ProvTag::Count(DerivationCount(2)));

        let v0 = ProvTag::base(
            ProvenanceKind::Vote,
            &mut table,
            BaseTupleId(0),
            "a",
            p(0),
            1,
        );
        let v1 = ProvTag::base(
            ProvenanceKind::Vote,
            &mut table,
            BaseTupleId(1),
            "b",
            p(1),
            1,
        );
        match v0.plus(&v1, &mut table) {
            ProvTag::Vote(v) => assert!(v.satisfies_threshold(2)),
            other => panic!("unexpected tag {other:?}"),
        }
    }

    #[test]
    fn none_tag_is_free() {
        let mut table = VarTable::new();
        let none = ProvTag::base(
            ProvenanceKind::None,
            &mut table,
            BaseTupleId(0),
            "a",
            p(0),
            1,
        );
        assert_eq!(none.wire_size(&table), 0);
        assert_eq!(none.plus(&ProvTag::None, &mut table), ProvTag::None);
        assert_eq!(none.render(&table), "<>");
        assert_eq!(none.kind(), ProvenanceKind::None);
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn mixing_kinds_panics() {
        let mut table = VarTable::new();
        let a = ProvTag::base(
            ProvenanceKind::Trust,
            &mut table,
            BaseTupleId(0),
            "a",
            p(0),
            1,
        );
        let b = ProvTag::base(
            ProvenanceKind::Count,
            &mut table,
            BaseTupleId(1),
            "b",
            p(1),
            1,
        );
        let _ = a.times(&b, &mut table);
    }

    #[test]
    fn why_tags_condense_past_the_threshold() {
        let mut table = VarTable::new();
        // A chain join of distinct base tuples: witness size grows by one
        // per `times`, so the tag stays Why until it crosses the budget,
        // then flips to Condensed exactly once.
        let mut tag = ProvTag::base(
            ProvenanceKind::Why,
            &mut table,
            BaseTupleId(0),
            "t0",
            p(0),
            1,
        );
        for i in 1..=CONDENSE_WITNESS_THRESHOLD as u64 {
            let next = ProvTag::base(
                ProvenanceKind::Why,
                &mut table,
                BaseTupleId(i),
                "t",
                p(i as u32),
                1,
            );
            tag = tag.times(&next, &mut table);
        }
        assert_eq!(
            tag.kind(),
            ProvenanceKind::Condensed,
            "size {} tag must have condensed",
            CONDENSE_WITNESS_THRESHOLD + 1
        );
        // Further combination with uncondensed tags mixes cleanly in both
        // operand orders and through both operations.
        let small = ProvTag::base(
            ProvenanceKind::Why,
            &mut table,
            BaseTupleId(999),
            "t999",
            p(999),
            1,
        );
        assert_eq!(
            small.times(&tag, &mut table).kind(),
            ProvenanceKind::Condensed
        );
        assert_eq!(
            tag.plus(&small, &mut table).kind(),
            ProvenanceKind::Condensed
        );
    }

    #[test]
    fn condensation_preserves_the_boolean_function() {
        let mut table = VarTable::new();
        let a = ProvTag::base(
            ProvenanceKind::Why,
            &mut table,
            BaseTupleId(0),
            "a",
            p(0),
            1,
        );
        let b = ProvTag::base(
            ProvenanceKind::Why,
            &mut table,
            BaseTupleId(1),
            "b",
            p(1),
            1,
        );
        // a + a*b condenses to <a> — the same absorption the BDD performs.
        let ab = a.times(&b, &mut table);
        let expr = a.plus(&ab, &mut table);
        let condensed = expr.condense(&mut table).unwrap();
        let just_a = a.condense(&mut table).unwrap();
        assert_eq!(condensed, just_a);
        assert_eq!(condensed.render(&table), "<t0>");
        // The condensed wire form undercuts a genuinely larger witness set.
        let c = ProvTag::base(
            ProvenanceKind::Why,
            &mut table,
            BaseTupleId(2),
            "c",
            p(2),
            1,
        );
        let wide = a
            .times(&b, &mut table)
            .plus(&b.times(&c, &mut table), &mut table);
        let wide_condensed = wide.condense(&mut table).unwrap();
        assert!(wide_condensed.wire_size(&table) <= wide.wire_size(&table));
        // Non-condensable kinds report None.
        assert!(ProvTag::Trust(TrustLevel(1)).condense(&mut table).is_none());
    }

    #[test]
    fn var_table_interns_and_names() {
        let mut table = VarTable::new();
        let v0 = table.principal_var(p(7));
        let v0_again = table.principal_var(p(7));
        assert_eq!(v0, v0_again);
        let v1 = table.base_var(BaseTupleId(9), "link(a,b)");
        assert_ne!(v0, v1);
        assert_eq!(table.name_of(v0), "p7");
        assert_eq!(table.name_of(v1), "link(a,b)");
        assert_eq!(table.name_of(99), "?");
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(ProvenanceKind::Condensed.name(), "condensed");
        assert_eq!(ProvenanceKind::default(), ProvenanceKind::None);
        for kind in [
            ProvenanceKind::None,
            ProvenanceKind::Why,
            ProvenanceKind::Condensed,
            ProvenanceKind::Trust,
            ProvenanceKind::Count,
            ProvenanceKind::Vote,
        ] {
            assert!(!kind.name().is_empty());
        }
    }
}
