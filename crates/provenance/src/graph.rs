//! Derivation graphs — the tree-shaped provenance of Figures 1 and 2.
//!
//! Every derived tuple is explained by one or more *derivations*; each
//! derivation records the rule that fired, the location (or SeNDlog context)
//! where it executed, and the antecedent tuples it joined.  Base tuples are
//! leaves.  Multiple derivations of the same tuple correspond to the `union`
//! oval in Figure 1.

use crate::key::ProvKey;
use crate::semiring::{BaseTupleId, Semiring, WhyProvenance};
use pasn_crypto::PrincipalId;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// Index of a tuple node within a [`DerivationGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ProvNodeId(pub u32);

/// One way a tuple was derived.
#[derive(Clone, Debug, PartialEq)]
pub struct Derivation {
    /// Label of the rule that fired (`r1`, `sp2`, ...).
    pub rule: String,
    /// Location (or SeNDlog context) where the rule executed.
    pub location: String,
    /// Antecedent tuple nodes, in body order.
    pub antecedents: Vec<ProvNodeId>,
}

/// A tuple node in the derivation graph.
#[derive(Clone, Debug, PartialEq)]
pub struct TupleNode {
    /// Rendered tuple, e.g. `reachable(@a,c)`.
    pub key: String,
    /// Location storing the tuple.
    pub location: String,
    /// The principal that asserted / derived the tuple.
    pub asserted_by: Option<PrincipalId>,
    /// Base-tuple identifier when this is an extensional leaf.
    pub base_id: Option<BaseTupleId>,
    /// Creation timestamp (simulated microseconds) — provenance of
    /// distributed streams is annotated with time (Section 4).
    pub created_at: u64,
    /// Expiry timestamp for soft-state tuples, `None` for hard state.
    pub expires_at: Option<u64>,
    /// Alternative derivations (empty for base tuples).
    pub derivations: Vec<Derivation>,
}

/// One derivation to record with [`DerivationGraph::add_derivation`].
#[derive(Clone, Debug)]
pub struct NewDerivation<'a> {
    /// Rendered head tuple.
    pub head: &'a str,
    /// Location storing the head (and any placeholder antecedents).
    pub head_location: &'a str,
    /// Label of the rule that fired.
    pub rule: &'a str,
    /// Location (or SeNDlog context) where the rule executed.
    pub rule_location: &'a str,
    /// Rendered antecedent tuples, in body order.
    pub antecedents: &'a [String],
    /// The principal that derived the head.
    pub asserted_by: Option<PrincipalId>,
    /// Creation timestamp (simulated microseconds).
    pub created_at: u64,
    /// Expiry timestamp for soft-state heads, `None` for hard state.
    pub expires_at: Option<u64>,
}

impl TupleNode {
    /// True if this node is an extensional (base) tuple.
    pub fn is_base(&self) -> bool {
        self.base_id.is_some()
    }
}

/// A provenance graph for the tuples derived at (or known to) one node, or —
/// in the *local provenance* configuration — the complete graph piggybacked
/// with a tuple.
#[derive(Clone, Debug, Default)]
pub struct DerivationGraph {
    nodes: Vec<TupleNode>,
    /// Tuple lookup by derived [`ProvKey`] — the rendered string lives only
    /// once, in its [`TupleNode`], for display.
    index: HashMap<ProvKey, ProvNodeId>,
    /// Reverse-use index: antecedent → heads with a derivation referencing
    /// it.  Keeps [`DerivationGraph::retract`] proportional to the tuple's
    /// actual users instead of the whole graph.  An over-approximation:
    /// entries are not pruned when a derivation is dropped, so a stale
    /// head costs one no-op `retain` later.
    used_in: HashMap<ProvNodeId, HashSet<ProvNodeId>>,
}

impl DerivationGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tuple nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total number of derivation (rule-firing) records.
    pub fn derivation_count(&self) -> usize {
        self.nodes.iter().map(|n| n.derivations.len()).sum()
    }

    /// Looks up a tuple node by its rendered key (shim over
    /// [`DerivationGraph::find_key`]).
    pub fn find(&self, key: &str) -> Option<ProvNodeId> {
        self.find_key(ProvKey::from_rendered(key))
    }

    /// Looks up a tuple node by an already derived [`ProvKey`], skipping the
    /// re-hash of the rendered form.
    pub fn find_key(&self, key: ProvKey) -> Option<ProvNodeId> {
        self.index.get(&key).copied()
    }

    /// The node behind an id.
    pub fn node(&self, id: ProvNodeId) -> &TupleNode {
        &self.nodes[id.0 as usize]
    }

    fn intern(&mut self, key: &str, location: &str, created_at: u64) -> ProvNodeId {
        let hashed = ProvKey::from_rendered(key);
        if let Some(&id) = self.index.get(&hashed) {
            // A digest hit must be the same rendered tuple — a collision
            // would silently merge two unrelated tuples' provenance, which
            // the exact string keys this map replaced could never do.
            debug_assert_eq!(
                self.nodes[id.0 as usize].key, key,
                "ProvKey collision: distinct tuples share digest {hashed}"
            );
            return id;
        }
        let id = ProvNodeId(self.nodes.len() as u32);
        self.nodes.push(TupleNode {
            key: key.to_string(),
            location: location.to_string(),
            asserted_by: None,
            base_id: None,
            created_at,
            expires_at: None,
            derivations: Vec::new(),
        });
        self.index.insert(hashed, id);
        id
    }

    /// Adds (or updates) a base tuple node.
    pub fn add_base(
        &mut self,
        key: &str,
        location: &str,
        base_id: BaseTupleId,
        asserted_by: Option<PrincipalId>,
        created_at: u64,
        expires_at: Option<u64>,
    ) -> ProvNodeId {
        let id = self.intern(key, location, created_at);
        let node = &mut self.nodes[id.0 as usize];
        node.base_id = Some(base_id);
        node.asserted_by = asserted_by;
        node.created_at = created_at;
        node.expires_at = expires_at;
        id
    }

    /// Adds a derivation (unknown antecedents are created as placeholder
    /// nodes).
    pub fn add_derivation(&mut self, d: NewDerivation<'_>) -> ProvNodeId {
        let antecedent_ids: Vec<ProvNodeId> = d
            .antecedents
            .iter()
            .map(|a| self.intern(a, d.head_location, d.created_at))
            .collect();
        let head_id = self.intern(d.head, d.head_location, d.created_at);
        for a in &antecedent_ids {
            self.used_in.entry(*a).or_default().insert(head_id);
        }
        let node = &mut self.nodes[head_id.0 as usize];
        if node.asserted_by.is_none() {
            node.asserted_by = d.asserted_by;
        }
        node.expires_at = d.expires_at;
        let derivation = Derivation {
            rule: d.rule.to_string(),
            location: d.rule_location.to_string(),
            antecedents: antecedent_ids,
        };
        if !node.derivations.contains(&derivation) {
            node.derivations.push(derivation);
        }
        head_id
    }

    /// The why-provenance of a tuple: minimal witness sets over base tuples.
    /// Cyclic derivations are cut at the first revisit (a revisit cannot add
    /// a new minimal witness).
    pub fn why_provenance(&self, id: ProvNodeId) -> WhyProvenance {
        let mut visiting = HashSet::new();
        self.why_rec(id, &mut visiting)
    }

    fn why_rec(&self, id: ProvNodeId, visiting: &mut HashSet<ProvNodeId>) -> WhyProvenance {
        let node = self.node(id);
        if let Some(base) = node.base_id {
            return WhyProvenance::base(base);
        }
        if node.derivations.is_empty() {
            return WhyProvenance::zero();
        }
        if !visiting.insert(id) {
            return WhyProvenance::zero();
        }
        let mut acc = WhyProvenance::zero();
        for d in &node.derivations {
            let mut term = WhyProvenance::one();
            for &a in &d.antecedents {
                term = term.times(&self.why_rec(a, visiting));
            }
            acc = acc.plus(&term);
        }
        visiting.remove(&id);
        acc
    }

    /// The set of base tuples a tuple ultimately depends on.
    pub fn base_support(&self, id: ProvNodeId) -> BTreeSet<BaseTupleId> {
        self.why_provenance(id).support()
    }

    /// Renders the derivation tree rooted at `id` in the style of Figure 1.
    pub fn render_tree(&self, id: ProvNodeId) -> String {
        let mut out = String::new();
        let mut visited = HashSet::new();
        self.render_rec(id, "", true, true, &mut out, &mut visited);
        out
    }

    fn render_rec(
        &self,
        id: ProvNodeId,
        prefix: &str,
        is_last: bool,
        is_root: bool,
        out: &mut String,
        visited: &mut HashSet<ProvNodeId>,
    ) {
        let node = self.node(id);
        let connector = if is_root {
            String::new()
        } else if is_last {
            format!("{prefix}└─ ")
        } else {
            format!("{prefix}├─ ")
        };
        let kind = if node.is_base() { " [base]" } else { "" };
        let by = node
            .asserted_by
            .map(|p| format!(" ({p} says)"))
            .unwrap_or_default();
        out.push_str(&format!("{connector}{}{kind}{by}\n", node.key));
        if !visited.insert(id) {
            let child_prefix = child_prefix(prefix, is_last, is_root);
            out.push_str(&format!("{child_prefix}└─ (see above)\n"));
            return;
        }
        let child_prefix = child_prefix(prefix, is_last, is_root);
        let multi = node.derivations.len() > 1;
        if multi {
            out.push_str(&format!("{child_prefix}└─ union\n"));
        }
        let deriv_prefix = if multi {
            format!("{child_prefix}   ")
        } else {
            child_prefix.clone()
        };
        for (di, d) in node.derivations.iter().enumerate() {
            let last_d = di + 1 == node.derivations.len();
            let d_connector = if last_d { "└─" } else { "├─" };
            out.push_str(&format!(
                "{deriv_prefix}{d_connector} {}@{}\n",
                d.rule, d.location
            ));
            let next_prefix = format!("{deriv_prefix}{}  ", if last_d { " " } else { "│" });
            for (ai, &a) in d.antecedents.iter().enumerate() {
                let last_a = ai + 1 == d.antecedents.len();
                self.render_rec(a, &next_prefix, last_a, false, out, visited);
            }
        }
        visited.remove(&id);
    }

    /// Extracts the self-contained subgraph reachable from `id` — the piece
    /// of provenance that *local provenance* (Section 4.1) piggybacks onto a
    /// tuple when it is shipped to another node.
    pub fn subtree(&self, id: ProvNodeId) -> DerivationGraph {
        let mut out = DerivationGraph::new();
        let mut stack = vec![id];
        let mut seen = HashSet::new();
        while let Some(cur) = stack.pop() {
            if !seen.insert(cur) {
                continue;
            }
            let node = self.node(cur);
            if let Some(base) = node.base_id {
                out.add_base(
                    &node.key,
                    &node.location,
                    base,
                    node.asserted_by,
                    node.created_at,
                    node.expires_at,
                );
            }
            for d in &node.derivations {
                let antecedent_keys: Vec<String> = d
                    .antecedents
                    .iter()
                    .map(|a| self.node(*a).key.clone())
                    .collect();
                out.add_derivation(NewDerivation {
                    head: &node.key,
                    head_location: &node.location,
                    rule: &d.rule,
                    rule_location: &d.location,
                    antecedents: &antecedent_keys,
                    asserted_by: node.asserted_by,
                    created_at: node.created_at,
                    expires_at: node.expires_at,
                });
                stack.extend(d.antecedents.iter().copied());
            }
        }
        // Make sure the root exists even if it has no derivations yet.
        if out.find(&self.node(id).key).is_none() {
            let node = self.node(id);
            out.intern(&node.key, &node.location, node.created_at);
        }
        out
    }

    /// Merges every node and derivation of `other` into this graph (union by
    /// tuple key).  Used by the receiving node to extend its locally
    /// complete provenance with the piggybacked subtree.
    pub fn merge(&mut self, other: &DerivationGraph) {
        for (_, node) in other.iter() {
            if let Some(base) = node.base_id {
                self.add_base(
                    &node.key,
                    &node.location,
                    base,
                    node.asserted_by,
                    node.created_at,
                    node.expires_at,
                );
            }
            for d in &node.derivations {
                let antecedent_keys: Vec<String> = d
                    .antecedents
                    .iter()
                    .map(|a| other.node(*a).key.clone())
                    .collect();
                self.add_derivation(NewDerivation {
                    head: &node.key,
                    head_location: &node.location,
                    rule: &d.rule,
                    rule_location: &d.location,
                    antecedents: &antecedent_keys,
                    asserted_by: node.asserted_by,
                    created_at: node.created_at,
                    expires_at: node.expires_at,
                });
            }
        }
    }

    /// Rough wire size (bytes) of shipping this graph with a tuple: each
    /// tuple node costs its key plus fixed metadata, each derivation its rule
    /// label, location and antecedent references.  Charged to
    /// `provenance_bytes` when a local-provenance frame seals (pinned by the
    /// local-vs-distributed claim in `tests/optimizations.rs`).
    pub fn estimated_wire_size(&self) -> usize {
        let mut size = 0usize;
        for (_, node) in self.iter() {
            size += node.key.len() + 12;
            for d in &node.derivations {
                size += d.rule.len() + d.location.len() + 4 * d.antecedents.len() + 4;
            }
        }
        size
    }

    /// Iterates over all nodes with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (ProvNodeId, &TupleNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (ProvNodeId(i as u32), n))
    }

    /// Retracts one tuple from the online graph: its node is emptied (the
    /// slot stays — ids are stable) and every derivation referencing it is
    /// dropped, exactly as [`DerivationGraph::purge_expired`] does for
    /// expired soft state.  Returns `false` when the key is unknown.  The
    /// engine calls this when provenance-guided deletion removes a tuple
    /// mid-run; the *offline* records (archive, distributed pointer stores)
    /// deliberately survive so forensic queries can still explain the
    /// deleted tuple.
    pub fn retract(&mut self, key: &str) -> bool {
        let hashed = ProvKey::from_rendered(key);
        let Some(&id) = self.index.get(&hashed) else {
            return false;
        };
        // Only the tuple's actual users are touched, via the reverse-use
        // index — a retraction wave stays linear in the derivations it
        // really severs, not in the graph size.
        if let Some(users) = self.used_in.remove(&id) {
            for head in users {
                self.nodes[head.0 as usize]
                    .derivations
                    .retain(|d| !d.antecedents.contains(&id));
            }
        }
        self.index.remove(&hashed);
        let node = &mut self.nodes[id.0 as usize];
        node.derivations.clear();
        node.base_id = None;
        node.expires_at = None;
        true
    }

    /// Removes expired tuples (and derivations referencing them) given the
    /// current time; used by the *online* provenance store.
    pub fn purge_expired(&mut self, now: u64) -> usize {
        let expired: HashSet<ProvNodeId> = self
            .iter()
            .filter(|(_, n)| n.expires_at.is_some_and(|e| e <= now))
            .map(|(id, _)| id)
            .collect();
        if expired.is_empty() {
            return 0;
        }
        for node in &mut self.nodes {
            node.derivations
                .retain(|d| !d.antecedents.iter().any(|a| expired.contains(a)));
        }
        for id in &expired {
            let key = ProvKey::from_rendered(&self.nodes[id.0 as usize].key);
            self.index.remove(&key);
            // Keep the slot (ids are stable) but mark it empty.
            self.nodes[id.0 as usize].derivations.clear();
            self.nodes[id.0 as usize].base_id = None;
            self.nodes[id.0 as usize].expires_at = None;
        }
        expired.len()
    }
}

impl fmt::Display for DerivationGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DerivationGraph({} tuples, {} derivations)",
            self.len(),
            self.derivation_count()
        )
    }
}

fn child_prefix(prefix: &str, is_last: bool, is_root: bool) -> String {
    if is_root {
        String::new()
    } else if is_last {
        format!("{prefix}   ")
    } else {
        format!("{prefix}│  ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `head` derived at `at` via `rule` — unasserted, created at 0, hard state.
    fn derived<'a>(
        head: &'a str,
        at: &'a str,
        rule: &'a str,
        antecedents: &'a [String],
    ) -> NewDerivation<'a> {
        NewDerivation {
            head,
            head_location: at,
            rule,
            rule_location: at,
            antecedents,
            asserted_by: None,
            created_at: 0,
            expires_at: None,
        }
    }

    /// Builds the Figure 1 derivation graph for reachable(@a,c):
    ///   r1: reachable(@a,c) :- link(@a,c)
    ///   r2: reachable(@a,c) :- link(@a,b), reachable(@b,c)
    ///   r1: reachable(@b,c) :- link(@b,c)
    fn figure1() -> (DerivationGraph, ProvNodeId) {
        let mut g = DerivationGraph::new();
        g.add_base(
            "link(@a,b)",
            "a",
            BaseTupleId(1),
            Some(PrincipalId(0)),
            0,
            None,
        );
        g.add_base(
            "link(@a,c)",
            "a",
            BaseTupleId(2),
            Some(PrincipalId(0)),
            0,
            None,
        );
        g.add_base(
            "link(@b,c)",
            "b",
            BaseTupleId(3),
            Some(PrincipalId(1)),
            0,
            None,
        );
        g.add_derivation(NewDerivation {
            asserted_by: Some(PrincipalId(1)),
            created_at: 1,
            ..derived("reachable(@b,c)", "b", "r1", &["link(@b,c)".into()])
        });
        g.add_derivation(NewDerivation {
            asserted_by: Some(PrincipalId(0)),
            created_at: 1,
            ..derived("reachable(@a,c)", "a", "r1", &["link(@a,c)".into()])
        });
        let root = g.add_derivation(NewDerivation {
            asserted_by: Some(PrincipalId(0)),
            created_at: 2,
            ..derived(
                "reachable(@a,c)",
                "a",
                "r2",
                &["link(@a,b)".into(), "reachable(@b,c)".into()],
            )
        });
        (g, root)
    }

    #[test]
    fn figure1_graph_shape() {
        let (g, root) = figure1();
        assert_eq!(g.len(), 5);
        assert_eq!(g.derivation_count(), 3);
        let root_node = g.node(root);
        assert_eq!(root_node.key, "reachable(@a,c)");
        assert_eq!(root_node.derivations.len(), 2, "union of r1 and r2");
        assert!(!root_node.is_base());
        assert!(g.node(g.find("link(@a,b)").unwrap()).is_base());
    }

    #[test]
    fn figure1_why_provenance_and_support() {
        let (g, root) = figure1();
        let why = g.why_provenance(root);
        // reachable(@a,c) = link(a,c) + link(a,b)*link(b,c)
        assert_eq!(why.witnesses().len(), 2);
        let support = g.base_support(root);
        assert_eq!(support.len(), 3);
    }

    #[test]
    fn render_tree_shows_union_rules_and_leaves() {
        let (g, root) = figure1();
        let tree = g.render_tree(root);
        assert!(tree.starts_with("reachable(@a,c)"));
        assert!(tree.contains("union"));
        assert!(tree.contains("r1@a"));
        assert!(tree.contains("r2@a"));
        assert!(tree.contains("link(@a,b) [base]"));
        assert!(tree.contains("reachable(@b,c)"));
        assert!(tree.contains("(p0 says)"));
    }

    #[test]
    fn cycles_are_cut_not_looped() {
        let mut g = DerivationGraph::new();
        g.add_base("link(@a,b)", "a", BaseTupleId(1), None, 0, None);
        // Mutual recursion: p depends on q, q depends on p (plus a base).
        g.add_derivation(derived("p(a)", "a", "r1", &["q(a)".into()]));
        g.add_derivation(derived(
            "q(a)",
            "a",
            "r2",
            &["p(a)".into(), "link(@a,b)".into()],
        ));
        let p = g.find("p(a)").unwrap();
        let why = g.why_provenance(p);
        // No derivation grounded purely in base tuples exists for p.
        assert_eq!(why, WhyProvenance::zero());
        // Rendering terminates.
        let rendered = g.render_tree(p);
        assert!(rendered.contains("(see above)"));
    }

    #[test]
    fn duplicate_derivations_are_not_recorded_twice() {
        let mut g = DerivationGraph::new();
        g.add_base("link(@a,b)", "a", BaseTupleId(1), None, 0, None);
        for _ in 0..3 {
            g.add_derivation(derived(
                "reachable(@a,b)",
                "a",
                "r1",
                &["link(@a,b)".into()],
            ));
        }
        let id = g.find("reachable(@a,b)").unwrap();
        assert_eq!(g.node(id).derivations.len(), 1);
    }

    #[test]
    fn retract_drops_the_tuple_and_its_uses() {
        let (mut g, root) = figure1();
        // Retracting link(@a,c) removes the direct r1 derivation of
        // reachable(@a,c); the r2 path through b survives.
        assert!(g.retract("link(@a,c)"));
        assert!(g.find("link(@a,c)").is_none());
        let node = g.node(root);
        assert_eq!(node.derivations.len(), 1);
        assert_eq!(node.derivations[0].rule, "r2");
        let why = g.why_provenance(root);
        assert_eq!(why.witnesses().len(), 1);
        // Unknown keys are a no-op.
        assert!(!g.retract("no-such-tuple"));
    }

    #[test]
    fn purge_expired_removes_soft_state() {
        let mut g = DerivationGraph::new();
        g.add_base("link(@a,b)", "a", BaseTupleId(1), None, 0, Some(100));
        g.add_derivation(NewDerivation {
            expires_at: Some(100),
            ..derived("reachable(@a,b)", "a", "r1", &["link(@a,b)".into()])
        });
        let root = g.find("reachable(@a,b)").unwrap();
        assert_eq!(g.why_provenance(root).witnesses().len(), 1);
        let purged = g.purge_expired(150);
        assert_eq!(purged, 2);
        assert!(g.find("reachable(@a,b)").is_none());
        assert_eq!(g.purge_expired(150), 0);
    }

    #[test]
    fn subtree_and_merge_reconstruct_local_provenance() {
        let (g, root) = figure1();
        // The subtree of reachable(@a,c) contains everything Figure 1 shows.
        let sub = g.subtree(root);
        assert_eq!(sub.len(), 5);
        assert_eq!(sub.derivation_count(), 3);
        assert!(sub.estimated_wire_size() > 0);

        // A fresh node that only knows its own base tuple merges the shipped
        // subtree and ends up with locally complete provenance.
        let mut receiver = DerivationGraph::new();
        receiver.add_base("link(@d,a)", "d", BaseTupleId(7), None, 0, None);
        receiver.merge(&sub);
        let merged_root = receiver.find("reachable(@a,c)").unwrap();
        assert_eq!(receiver.why_provenance(merged_root), g.why_provenance(root));
        // Merging twice is idempotent.
        let before = receiver.derivation_count();
        receiver.merge(&sub);
        assert_eq!(receiver.derivation_count(), before);
    }

    #[test]
    fn subtree_of_underived_tuple_contains_just_that_node() {
        let mut g = DerivationGraph::new();
        g.add_derivation(derived("p(a)", "a", "r", &["q(a)".into()]));
        let q = g.find("q(a)").unwrap();
        let sub = g.subtree(q);
        assert_eq!(sub.len(), 1);
        assert!(sub.find("q(a)").is_some());
    }
}
