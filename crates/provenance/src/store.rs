//! Provenance storage along the paper's taxonomy axes.
//!
//! * **Local vs distributed** (Section 4.1): both modes keep the same
//!   pointer records in a per-node [`DistributedStore`]; they differ in
//!   *where* the records live.  A distributed node records what it derived
//!   and points at the node each remote antecedent came from, so
//!   reconstructing provenance is a [`traceback_with`] across nodes.  A
//!   local node merges the [`bundle`](DistributedStore::bundle) piggybacked
//!   on every tuple it receives, so its store is locally complete: the same
//!   walk, and the store's own view ([`DistributedStore::why_provenance`],
//!   [`DistributedStore::render_tree`]), never leave it.
//! * **Online vs offline** (Section 4.2): a local node
//!   [forgets](DistributedStore::forget) a tuple that dies; the
//!   [`ArchiveStore`] retains snapshots beyond expiry for forensics and
//!   accountability, with an age-out policy.

use crate::key::{DigestMap, DigestSet, ProvKey};
use crate::semiring::{BaseTupleId, Semiring, WhyProvenance};
use pasn_crypto::PrincipalId;
use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write;
use std::sync::Arc;

/// A reference to an antecedent held by a [`DistributedStore`].  Keys and
/// node names are shared: the engine renders each once and every record
/// that names it holds the same allocation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AntecedentRef {
    /// The antecedent is stored at the same node.
    Local(Arc<str>),
    /// The antecedent (and its provenance) lives at another node; a traceback
    /// query must visit that node to continue.
    Remote {
        /// The node holding the antecedent's provenance.
        location: Arc<str>,
        /// The antecedent tuple key at that node.
        key: Arc<str>,
    },
}

impl AntecedentRef {
    /// The antecedent's tuple key, wherever it lives.
    pub(crate) fn key(&self) -> &str {
        match self {
            AntecedentRef::Local(key) | AntecedentRef::Remote { key, .. } => key,
        }
    }
}

/// A pointer-style derivation record: enough to reconstruct provenance on
/// demand, at the cost of a distributed query (the IP-traceback analogy of
/// Section 4.1).
#[derive(Clone, Debug, PartialEq)]
pub struct PointerDerivation {
    /// The rule that fired and the node it fired at, `rule@node` (e.g.
    /// `r2@n1`; shared with every record of the rule at that node).
    pub rule: Arc<str>,
    /// Antecedents, local or remote.
    pub antecedents: Vec<AntecedentRef>,
}

/// The records of one derived key.
#[derive(Clone, Debug)]
struct Derived {
    /// The principal of the node that fired the key's first recorded
    /// derivation: who a rendered tree says the key.
    speaker: PrincipalId,
    derivations: Vec<PointerDerivation>,
}

/// A per-node provenance store of pointer records, in either graph mode.
///
/// Entries are keyed by derived [`ProvKey`]s (64-bit digests of the tuple
/// identity) rather than cloned rendered strings; the rendered form only
/// travels inside [`AntecedentRef`]s, where a walk needs it for display and
/// cross-node routing.
#[derive(Clone, Debug, Default)]
pub struct DistributedStore {
    entries: DigestMap<ProvKey, Derived>,
    /// Base tuples, each with the principal that asserted it.
    bases: DigestMap<ProvKey, (BaseTupleId, PrincipalId)>,
}

impl DistributedStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a base tuple stored at this node, asserted by `speaker`.
    pub fn record_base(&mut self, key: &str, id: BaseTupleId, speaker: PrincipalId) {
        self.bases
            .insert(ProvKey::from_rendered(key), (id, speaker));
    }

    /// Records one derivation of `key` at this node, made by `speaker`'s
    /// node; a derivation already recorded is not recorded twice.
    pub fn record_derivation(
        &mut self,
        key: &str,
        speaker: PrincipalId,
        derivation: PointerDerivation,
    ) {
        let digest = ProvKey::from_rendered(key);
        let derivations = &mut self.derived(digest, speaker).derivations;
        if !derivations.contains(&derivation) {
            derivations.push(derivation);
        }
    }

    /// The records of `key`, created empty with `speaker` if there are none.
    fn derived(&mut self, key: ProvKey, speaker: PrincipalId) -> &mut Derived {
        self.entries.entry(key).or_insert_with(|| Derived {
            speaker,
            derivations: Vec::new(),
        })
    }

    /// Derivations of a locally stored tuple.
    pub fn derivations_of(&self, key: &str) -> &[PointerDerivation] {
        self.derivations_at(ProvKey::from_rendered(key))
    }

    /// [`DistributedStore::derivations_of`] for a caller that already holds
    /// the key's digest.
    pub(crate) fn derivations_at(&self, key: ProvKey) -> &[PointerDerivation] {
        self.entries.get(&key).map_or(&[], |d| &d.derivations)
    }

    /// The base tuple id `key` (by its digest) is recorded under at this
    /// node, if it is a base tuple here.
    pub(crate) fn base_at(&self, key: ProvKey) -> Option<BaseTupleId> {
        self.bases.get(&key).map(|&(id, _)| id)
    }

    /// Number of stored pointer records (per-node storage overhead metric).
    pub fn entry_count(&self) -> usize {
        let derivations = self.entries.values().map(|d| d.derivations.len());
        derivations.sum::<usize>() + self.bases.len()
    }

    /// Forgets `key` (a tuple that died here): its records and base go, and
    /// so does every record that names it as an antecedent.  Returns `false`
    /// when the store held nothing of it.  Local mode forgets; a distributed
    /// store keeps its records, so a moonwalk still explains a dead tuple.
    pub fn forget(&mut self, key: &str) -> bool {
        let digest = ProvKey::from_rendered(key);
        let mut forgot = self.entries.remove(&digest).is_some();
        forgot |= self.bases.remove(&digest).is_some();
        for derived in self.entries.values_mut() {
            let before = derived.derivations.len();
            let uses = |d: &PointerDerivation| d.antecedents.iter().any(|a| a.key() == key);
            derived.derivations.retain(|d| !uses(d));
            forgot |= derived.derivations.len() != before;
        }
        forgot
    }

    /// Visits every key reachable from `root` through this store's records,
    /// `root` included, once each, with its digest and rendered form.
    fn reach<'a>(&'a self, root: &'a str, mut visit: impl FnMut(ProvKey, &'a str)) {
        let mut seen = DigestSet::default();
        let mut stack = vec![root];
        while let Some(key) = stack.pop() {
            let digest = ProvKey::from_rendered(key);
            if seen.insert(digest) {
                visit(digest, key);
                let antecedents = self
                    .derivations_at(digest)
                    .iter()
                    .flat_map(|d| &d.antecedents);
                stack.extend(antecedents.map(AntecedentRef::key));
            }
        }
    }

    /// The records reachable from `key`, as a store of their own: what a
    /// Local node piggybacks on the tuple it ships (Section 4.1), and what
    /// the receiver [`merge`](DistributedStore::merge)s.  `None` when this
    /// store holds nothing of `key`.
    pub fn bundle(&self, key: &str) -> Option<DistributedStore> {
        let digest = ProvKey::from_rendered(key);
        if !self.entries.contains_key(&digest) && !self.bases.contains_key(&digest) {
            return None;
        }
        let mut bundle = DistributedStore::default();
        self.reach(key, |digest, _| {
            if let Some(&base) = self.bases.get(&digest) {
                bundle.bases.insert(digest, base);
            }
            if let Some(derived) = self.entries.get(&digest) {
                bundle.entries.insert(digest, derived.clone());
            }
        });
        Some(bundle)
    }

    /// Merges every record of `other` into this store: a received bundle
    /// extends a Local node's locally complete provenance.  A base record
    /// takes `other`'s speaker; a derived key keeps the speaker it had.
    pub fn merge(&mut self, other: &DistributedStore) {
        self.bases.extend(&other.bases);
        for (&digest, theirs) in &other.entries {
            let derivations = &mut self.derived(digest, theirs.speaker).derivations;
            for derivation in &theirs.derivations {
                if !derivations.contains(derivation) {
                    derivations.push(derivation.clone());
                }
            }
        }
    }

    /// Wire size (bytes) of shipping the records reachable from `root` with
    /// the tuple: each key costs its rendered length plus 12 bytes of
    /// metadata, each record its `rule@node` label, 3 bytes and 4 per
    /// antecedent.  Charged to `provenance_bytes` when a Local frame seals
    /// (pinned by the local-vs-distributed claim in `tests/optimizations.rs`).
    pub fn wire_size(&self, root: &str) -> usize {
        let mut size = 0;
        self.reach(root, |digest, key| {
            size += key.len() + 12;
            for d in self.derivations_at(digest) {
                size += d.rule.len() + 3 + 4 * d.antecedents.len();
            }
        });
        size
    }

    /// The why-provenance of `key` over this store alone: minimal witness
    /// sets over base tuples.  A cycle is cut at its first revisit (a
    /// revisit cannot add a new minimal witness).
    pub fn why_provenance(&self, key: &str) -> WhyProvenance {
        self.why_at(ProvKey::from_rendered(key), &mut DigestSet::default())
    }

    fn why_at(&self, key: ProvKey, visiting: &mut DigestSet<ProvKey>) -> WhyProvenance {
        if let Some(base) = self.base_at(key) {
            return WhyProvenance::base(base);
        }
        let derivations = self.derivations_at(key);
        if derivations.is_empty() || !visiting.insert(key) {
            return WhyProvenance::zero();
        }
        let mut acc = WhyProvenance::zero();
        for d in derivations {
            let mut term = WhyProvenance::one();
            for a in &d.antecedents {
                term = term.times(&self.why_at(ProvKey::from_rendered(a.key()), visiting));
            }
            acc = acc.plus(&term);
        }
        visiting.remove(&key);
        acc
    }

    /// The set of base tuples `key` ultimately depends on, by this store.
    pub fn base_support(&self, key: &str) -> BTreeSet<BaseTupleId> {
        self.why_provenance(key).support()
    }

    /// Renders the derivation tree rooted at `key` in the style of Figure 1:
    /// every key with its speaker, a `union` over alternative derivations,
    /// each derivation by its `rule@node`, base tuples as leaves.
    pub fn render_tree(&self, key: &str) -> String {
        let mut out = String::new();
        self.render_at(key, "", None, &mut out, &mut DigestSet::default());
        out
    }

    /// Renders `key` and, unless it is already on the path above, its
    /// derivations.  `last` is `None` at the root, else whether `key` is its
    /// derivation's last antecedent.
    fn render_at(
        &self,
        key: &str,
        prefix: &str,
        last: Option<bool>,
        out: &mut String,
        path: &mut DigestSet<ProvKey>,
    ) {
        let digest = ProvKey::from_rendered(key);
        let (connector, child_prefix) = match last {
            None => (String::new(), String::new()),
            Some(true) => (format!("{prefix}└─ "), format!("{prefix}   ")),
            Some(false) => (format!("{prefix}├─ "), format!("{prefix}│  ")),
        };
        let base = self.bases.get(&digest);
        let kind = if base.is_some() { " [base]" } else { "" };
        let derived = self.entries.get(&digest);
        let speaker = base.map(|&(_, p)| p).or(derived.map(|d| d.speaker));
        let by = speaker.map(|p| format!(" ({p} says)")).unwrap_or_default();
        let _ = writeln!(out, "{connector}{key}{kind}{by}");
        if !path.insert(digest) {
            let _ = writeln!(out, "{child_prefix}└─ (see above)");
            return;
        }
        let derivations = self.derivations_at(digest);
        let mut deriv_prefix = child_prefix;
        if derivations.len() > 1 {
            let _ = writeln!(out, "{deriv_prefix}└─ union");
            deriv_prefix.push_str("   ");
        }
        for (di, d) in derivations.iter().enumerate() {
            let last_d = di + 1 == derivations.len();
            let (d_connector, indent) = if last_d {
                ("└─", "   ")
            } else {
                ("├─", "│  ")
            };
            let _ = writeln!(out, "{deriv_prefix}{d_connector} {}", d.rule);
            let next_prefix = format!("{deriv_prefix}{indent}");
            for (ai, a) in d.antecedents.iter().enumerate() {
                let last_a = ai + 1 == d.antecedents.len();
                self.render_at(a.key(), &next_prefix, Some(last_a), out, path);
            }
        }
        path.remove(&digest);
    }
}

/// Result of a distributed traceback query.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TracebackResult {
    /// Base tuples the queried tuple depends on.
    pub base_tuples: BTreeSet<BaseTupleId>,
    /// Keys visited, in visit order.
    pub visited: Vec<String>,
    /// Number of cross-node hops the query needed (each hop is one
    /// provenance-query message in a real deployment).
    pub remote_hops: usize,
    /// Keys whose provenance could not be resolved (missing node or entry).
    pub unresolved: Vec<String>,
}

/// Executes a traceback query over a collection of per-node
/// [`DistributedStore`]s, starting from `key` at `start_node`.
///
/// In a deployment each remote hop is a network round trip; the simulator
/// charges them through the returned [`TracebackResult::remote_hops`].
///
/// For callers that own a map of stores; a deployment that can name its
/// stores itself passes the lookup to [`traceback_with`] and builds no map.
pub fn traceback<S: Borrow<DistributedStore>>(
    stores: &HashMap<String, S>,
    start_node: &str,
    key: &str,
) -> TracebackResult {
    traceback_with(|node| stores.get(node).map(Borrow::borrow), start_node, key)
}

/// Keys a traceback's queue and `seen` set are sized for up front: a query
/// over a converged deployment visits tens of keys, so both start past their
/// first doublings.
const WALK_CAPACITY: usize = 64;

/// One `(node, key)` a traceback has reached: the node's name digest (its
/// identity in the `seen` set) and store, and the key as the pointing record
/// spells it.
#[derive(Clone, Copy)]
struct Reached<'a> {
    node: ProvKey,
    store: Option<&'a DistributedStore>,
    key: &'a str,
    digest: ProvKey,
}

/// The traceback itself: a breadth-first walk over the stores `resolve`
/// names, starting from `key` at `start_node`.
///
/// The walk borrows: queued keys are the `&str`s the pointer records hold, a
/// `(node, key)` pair is remembered by its two digests, each key is digested
/// once per edge and looked up by digest, and a node is resolved once per
/// new remote edge.  It allocates the strings [`TracebackResult`] returns.
pub fn traceback_with<'a>(
    resolve: impl Fn(&str) -> Option<&'a DistributedStore>,
    start_node: &str,
    key: &'a str,
) -> TracebackResult {
    let mut result = TracebackResult::default();
    let mut seen: DigestSet<(ProvKey, ProvKey)> =
        DigestSet::with_capacity_and_hasher(WALK_CAPACITY, Default::default());
    // Walked by a cursor, never popped: once the cursor reaches the end the
    // queue *is* the visit order.
    let mut queue: Vec<Reached<'a>> = Vec::with_capacity(WALK_CAPACITY);
    let start = Reached {
        node: ProvKey::from_rendered(start_node),
        store: resolve(start_node),
        key,
        digest: ProvKey::from_rendered(key),
    };
    seen.insert((start.node, start.digest));
    queue.push(start);

    let mut cursor = 0;
    while let Some(&at) = queue.get(cursor) {
        cursor += 1;
        let Some(store) = at.store else {
            result.unresolved.push(at.key.to_string());
            continue;
        };
        if let Some(base) = store.base_at(at.digest) {
            result.base_tuples.insert(base);
            continue;
        }
        let derivations = store.derivations_at(at.digest);
        if derivations.is_empty() {
            result.unresolved.push(at.key.to_string());
            continue;
        }
        for antecedent in derivations.iter().flat_map(|d| &d.antecedents) {
            let (node, remote, key) = match antecedent {
                AntecedentRef::Local(key) => (at.node, None, key),
                AntecedentRef::Remote { location, key } => {
                    (ProvKey::from_rendered(location), Some(location), key)
                }
            };
            let digest = ProvKey::from_rendered(key);
            if !seen.insert((node, digest)) {
                continue;
            }
            let store = match remote {
                None => Some(store),
                Some(location) => {
                    result.remote_hops += 1;
                    resolve(location)
                }
            };
            queue.push(Reached {
                node,
                store,
                key,
                digest,
            });
        }
    }
    result.visited = queue.iter().map(|at| at.key.to_string()).collect();
    result
}

/// One archived provenance record (offline provenance, Section 4.2).  Its
/// strings are shared, so archiving a derivation (or cloning an entry out
/// of the archive) copies no bytes.  An entry names no node: it is the entry of
/// the node whose [`ArchiveStore`] holds it, and it stays there: nothing
/// ages an entry out.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchivedEntry {
    /// The tuple key.
    pub key: Arc<str>,
    /// How the entry came to be: `rule@node` for an archived derivation
    /// (e.g. `r2@n3`), the deletion reason (e.g. `retracted`) for a record
    /// [`ArchiveStore::record_expiry`] had to create.
    pub annotation: Arc<str>,
    /// Simulated time the tuple was derived.
    pub derived_at: u64,
    /// Simulated time the tuple expired (if it did).
    pub expired_at: Option<u64>,
}

/// End of a key chain in [`ArchiveStore`]'s `u32` link space.
const END: u32 = u32::MAX;

/// An *offline* provenance archive: entries survive tuple expiry so that
/// forensic queries can correlate long-gone traffic.  The engine keeps one
/// per node.  Nothing ages an archive: every entry it records stays for
/// the life of the deployment, so an archive-on run's archives grow with
/// its history, without bound.
///
/// Entries are a log in arrival order; a key index threads the entries of
/// one key into a chain through it (first and last position per key digest,
/// one `u32` next-link per entry), so the by-key operations read a key's
/// entries and not the log.
#[derive(Clone, Debug, Default)]
pub struct ArchiveStore {
    entries: Vec<ArchivedEntry>,
    /// Key digest → positions of the first and last entry filed under it.
    chains: DigestMap<ProvKey, (u32, u32)>,
    /// Per entry: position of the next entry under the same digest, or
    /// [`END`].
    next: Vec<u32>,
}

/// Appends the entry about to be pushed at position `next.len()` to the
/// chain of `key`.
fn link(chains: &mut DigestMap<ProvKey, (u32, u32)>, next: &mut Vec<u32>, key: &str) {
    let at = u32::try_from(next.len())
        .ok()
        .filter(|at| *at != END)
        .expect("an archive holds fewer than 2^32 - 1 entries");
    match chains.entry(ProvKey::from_rendered(key)) {
        Entry::Occupied(mut chain) => {
            let (_, last) = chain.get_mut();
            next[*last as usize] = at;
            *last = at;
        }
        Entry::Vacant(chain) => {
            chain.insert((at, at));
        }
    }
    next.push(END);
}

impl ArchiveStore {
    /// Creates an empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry.
    pub fn record(&mut self, entry: ArchivedEntry) {
        link(&mut self.chains, &mut self.next, &entry.key);
        self.entries.push(entry);
    }

    /// Position of the oldest entry filed under `key`'s digest, or [`END`].
    /// A digest is not the key: whoever follows the chain compares the key.
    fn first_of(&self, key: &str) -> u32 {
        let chain = self.chains.get(&ProvKey::from_rendered(key));
        chain.map_or(END, |&(first, _)| first)
    }

    /// Applies `update` to every entry whose key is exactly `key`, oldest
    /// first.
    fn update_entries_of(&mut self, key: &str, mut update: impl FnMut(&mut ArchivedEntry)) {
        let mut at = self.first_of(key);
        while at != END {
            let entry = &mut self.entries[at as usize];
            if *entry.key == *key {
                update(entry);
            }
            at = self.next[at as usize];
        }
    }

    /// Entries whose key is exactly `key`, oldest first: what
    /// [`ArchiveStore::query`] returns for a complete key, without reading
    /// the rest of the log.
    pub fn entries_of<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a ArchivedEntry> + 'a {
        let link = |at: u32| (at != END).then_some(at as usize);
        std::iter::successors(link(self.first_of(key)), move |&at| link(self.next[at]))
            .map(|at| &self.entries[at])
            .filter(move |entry| *entry.key == *key)
    }

    /// Stamps every live entry for `key` with the time the tuple behind it
    /// was deleted, `expired_at`; returns how many it stamped.  What a node
    /// that derived a tuple stored elsewhere does when the tuple dies.
    pub fn stamp(&mut self, key: &str, expired_at: u64) -> usize {
        let mut stamped = 0;
        self.update_entries_of(key, |e| {
            if e.expired_at.is_none() {
                e.expired_at = Some(expired_at);
                stamped += 1;
            }
        });
        stamped
    }

    /// Records that the tuple behind `key` was deleted (retracted or
    /// expired) at `expired_at`: every live entry for the key is
    /// [stamped](ArchiveStore::stamp), and if the archive held no entry
    /// yet — the tuple was derived elsewhere or before archiving was
    /// enabled, or sampled out — a fresh one is appended so the deletion
    /// itself is never lost.  Returns the number of entries stamped or
    /// created.  This is the archive-on-delete path: soft state dies
    /// mid-run, but its forensic record (and hence moonwalk/traceback
    /// reachability) survives.
    pub fn record_expiry(
        &mut self,
        key: &str,
        annotation: &str,
        derived_at: u64,
        expired_at: u64,
    ) -> usize {
        let mut stamped = self.stamp(key, expired_at);
        if stamped == 0 {
            self.record(ArchivedEntry {
                key: key.into(),
                annotation: annotation.into(),
                derived_at,
                expired_at: Some(expired_at),
            });
            stamped = 1;
        }
        stamped
    }

    /// Entries whose rendered key starts with `key_prefix`, optionally
    /// restricted to a derivation-time window.  A prefix without `(` is a
    /// predicate name and matches that predicate's keys only: `bestPath`
    /// reads `bestPath(...)`, not `bestPathCost(...)`.
    pub fn query(
        &self,
        key_prefix: &str,
        from: Option<u64>,
        to: Option<u64>,
    ) -> Vec<&ArchivedEntry> {
        let predicate = !key_prefix.contains('(');
        let matches = |key: &str| {
            key.strip_prefix(key_prefix)
                .is_some_and(|rest| !predicate || rest.starts_with('('))
        };
        self.entries
            .iter()
            .filter(|e| matches(&e.key))
            .filter(|e| from.is_none_or(|f| e.derived_at >= f))
            .filter(|e| to.is_none_or(|t| e.derived_at <= t))
            .collect()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: PrincipalId = PrincipalId(0);

    fn pointer(rule: &str, antecedents: Vec<AntecedentRef>) -> PointerDerivation {
        let rule = rule.into();
        PointerDerivation { rule, antecedents }
    }

    fn local(key: &str) -> AntecedentRef {
        AntecedentRef::Local(key.into())
    }

    fn pointer_stores() -> HashMap<String, DistributedStore> {
        // reachable(@a,c) derived at a from link(@a,b) [local] and
        // reachable(@b,c) [remote at b]; reachable(@b,c) derived at b from
        // link(@b,c) [local base].
        let mut a = DistributedStore::new();
        a.record_base("link(@a,b)", BaseTupleId(1), P0);
        a.record_base("link(@a,c)", BaseTupleId(2), P0);
        let remote = AntecedentRef::Remote {
            location: "b".into(),
            key: "reachable(@b,c)".into(),
        };
        let r2 = pointer("r2@a", vec![local("link(@a,b)"), remote]);
        a.record_derivation("reachable(@a,c)", P0, r2);
        let r1 = pointer("r1@a", vec![local("link(@a,c)")]);
        a.record_derivation("reachable(@a,c)", P0, r1);
        let mut b = DistributedStore::new();
        let p1 = PrincipalId(1);
        b.record_base("link(@b,c)", BaseTupleId(3), p1);
        let r1 = pointer("r1@b", vec![local("link(@b,c)")]);
        b.record_derivation("reachable(@b,c)", p1, r1);
        let mut stores = HashMap::new();
        stores.insert("a".to_string(), a);
        stores.insert("b".to_string(), b);
        stores
    }

    /// The Figure 1 records of reachable(@a,c), all at one Local node:
    ///   r1: reachable(@a,c) :- link(@a,c)
    ///   r2: reachable(@a,c) :- link(@a,b), reachable(@b,c)
    ///   r1: reachable(@b,c) :- link(@b,c)
    fn figure1() -> DistributedStore {
        let mut s = DistributedStore::new();
        s.record_base("link(@a,b)", BaseTupleId(1), P0);
        s.record_base("link(@a,c)", BaseTupleId(2), P0);
        s.record_base("link(@b,c)", BaseTupleId(3), PrincipalId(1));
        let r1 = pointer("r1@b", vec![local("link(@b,c)")]);
        s.record_derivation("reachable(@b,c)", PrincipalId(1), r1);
        let r1 = pointer("r1@a", vec![local("link(@a,c)")]);
        s.record_derivation("reachable(@a,c)", P0, r1);
        let r2 = pointer("r2@a", vec![local("link(@a,b)"), local("reachable(@b,c)")]);
        s.record_derivation("reachable(@a,c)", P0, r2);
        s
    }

    #[test]
    fn figure1_records_shape() {
        let s = figure1();
        assert_eq!(s.entry_count(), 6, "3 bases, 3 derivations");
        let root = s.derivations_of("reachable(@a,c)");
        assert_eq!(root.len(), 2, "union of r1 and r2");
        assert_eq!(s.base_at(ProvKey::from_rendered("reachable(@a,c)")), None);
        assert_eq!(
            s.base_at(ProvKey::from_rendered("link(@a,b)")),
            Some(BaseTupleId(1))
        );
    }

    #[test]
    fn figure1_why_provenance_and_support() {
        let s = figure1();
        let why = s.why_provenance("reachable(@a,c)");
        // reachable(@a,c) = link(a,c) + link(a,b)*link(b,c)
        assert_eq!(why.witnesses().len(), 2);
        assert_eq!(s.base_support("reachable(@a,c)").len(), 3);
    }

    #[test]
    fn render_tree_shows_union_rules_and_leaves() {
        let tree = figure1().render_tree("reachable(@a,c)");
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
        let mut s = DistributedStore::new();
        s.record_base("link(@a,b)", BaseTupleId(1), P0);
        // Mutual recursion: p depends on q, q depends on p (plus a base).
        s.record_derivation("p(a)", P0, pointer("r1@a", vec![local("q(a)")]));
        let r2 = pointer("r2@a", vec![local("p(a)"), local("link(@a,b)")]);
        s.record_derivation("q(a)", P0, r2);
        // No derivation grounded purely in base tuples exists for p.
        assert_eq!(s.why_provenance("p(a)"), WhyProvenance::zero());
        // Rendering terminates.
        assert!(s.render_tree("p(a)").contains("(see above)"));
    }

    #[test]
    fn duplicate_derivations_are_not_recorded_twice() {
        let mut s = DistributedStore::new();
        s.record_base("link(@a,b)", BaseTupleId(1), P0);
        for _ in 0..3 {
            let r1 = pointer("r1@a", vec![local("link(@a,b)")]);
            s.record_derivation("reachable(@a,b)", P0, r1);
        }
        assert_eq!(s.derivations_of("reachable(@a,b)").len(), 1);
    }

    #[test]
    fn forget_drops_the_tuple_and_its_uses() {
        let mut s = figure1();
        // Forgetting link(@a,c) removes the direct r1 derivation of
        // reachable(@a,c); the r2 path through b survives.
        assert!(s.forget("link(@a,c)"));
        assert_eq!(s.base_at(ProvKey::from_rendered("link(@a,c)")), None);
        let root = s.derivations_of("reachable(@a,c)");
        assert_eq!(root.len(), 1);
        assert_eq!(&*root[0].rule, "r2@a");
        assert_eq!(s.why_provenance("reachable(@a,c)").witnesses().len(), 1);
        // Unknown keys are a no-op.
        assert!(!s.forget("no-such-tuple"));
    }

    #[test]
    fn bundle_and_merge_make_a_node_locally_complete() {
        let s = figure1();
        // The bundle of reachable(@a,c) holds every record Figure 1 shows.
        let bundle = s.bundle("reachable(@a,c)").expect("derived");
        assert_eq!(bundle.entry_count(), 6);
        // Keys: 5 of them, each its length + 12; records: label + 3 + 4 per
        // antecedent.
        let keys = "reachable(@a,c)link(@a,c)link(@a,b)reachable(@b,c)link(@b,c)";
        let records = (4 + 3 + 4) * 2 + (4 + 3 + 8);
        assert_eq!(
            bundle.wire_size("reachable(@a,c)"),
            keys.len() + 5 * 12 + records
        );

        // A fresh node that only knows its own base tuple merges the shipped
        // bundle and ends up with locally complete provenance.
        let mut receiver = DistributedStore::new();
        receiver.record_base("link(@d,a)", BaseTupleId(7), PrincipalId(3));
        receiver.merge(&bundle);
        let why = receiver.why_provenance("reachable(@a,c)");
        assert_eq!(why, s.why_provenance("reachable(@a,c)"));
        let tree = receiver.render_tree("reachable(@a,c)");
        assert_eq!(tree, s.render_tree("reachable(@a,c)"));
        // Merging twice is idempotent.
        let before = receiver.entry_count();
        receiver.merge(&bundle);
        assert_eq!(receiver.entry_count(), before);
    }

    #[test]
    fn an_underived_key_has_no_bundle() {
        let mut s = DistributedStore::new();
        s.record_derivation("p(a)", P0, pointer("r@a", vec![local("q(a)")]));
        // q(a) is only named as an antecedent: nothing to ship.
        assert!(s.bundle("q(a)").is_none());
        let bundle = s.bundle("p(a)").expect("derived");
        assert_eq!(bundle.derivations_of("p(a)").len(), 1);
        assert_eq!(bundle.wire_size("p(a)"), 4 + 12 + 4 + 12 + 3 + 3 + 4);
    }

    #[test]
    fn traceback_collects_bases_and_counts_remote_hops() {
        let stores = pointer_stores();
        let result = traceback(&stores, "a", "reachable(@a,c)");
        assert_eq!(result.base_tuples.len(), 3);
        assert_eq!(result.remote_hops, 1, "one hop to node b");
        assert!(result.unresolved.is_empty());
        assert!(result.visited.contains(&"reachable(@b,c)".to_string()));
    }

    #[test]
    fn traceback_reports_unresolved_pointers() {
        let mut stores = pointer_stores();
        stores.remove("b");
        let result = traceback(&stores, "a", "reachable(@a,c)");
        assert_eq!(result.unresolved, vec!["reachable(@b,c)".to_string()]);
        // The locally reachable base tuples are still found.
        assert_eq!(result.base_tuples.len(), 2);
    }

    #[test]
    fn traceback_of_unknown_tuple() {
        let stores = pointer_stores();
        let result = traceback(&stores, "a", "nonexistent(@a)");
        assert_eq!(result.unresolved, vec!["nonexistent(@a)".to_string()]);
        assert!(result.base_tuples.is_empty());
    }

    #[test]
    fn distributed_store_deduplicates_and_counts_entries() {
        let mut s = DistributedStore::new();
        let d = pointer("r1@a", vec![local("x")]);
        s.record_derivation("p", P0, d.clone());
        s.record_derivation("p", P0, d);
        s.record_base("x", BaseTupleId(9), P0);
        assert_eq!(s.derivations_of("p").len(), 1);
        assert_eq!(s.entry_count(), 2);
        assert_eq!(s.base_at(ProvKey::from_rendered("x")), Some(BaseTupleId(9)));
        assert_eq!(s.base_at(ProvKey::from_rendered("y")), None);
        assert!(s.derivations_of("missing").is_empty());
    }

    #[test]
    fn archive_survives_expiry() {
        let mut archive = ArchiveStore::new();
        for i in 0..10u64 {
            archive.record(ArchivedEntry {
                key: format!("bestPath(@n0,n{i})").into(),
                annotation: "<p0>".into(),
                derived_at: i * 100,
                expired_at: Some(i * 100 + 50),
            });
        }
        assert_eq!(archive.len(), 10);
        assert!(archive.query("bestPath(@n0,n2)", None, None).len() == 1);

        // Time-window query.
        let in_window = archive.query("bestPath", Some(500), Some(700));
        assert_eq!(in_window.len(), 3);
        assert!(!archive.is_empty());
    }

    #[test]
    fn record_expiry_stamps_or_creates_entries() {
        let mut archive = ArchiveStore::new();
        archive.record(ArchivedEntry {
            key: "reachable(@a,c)".into(),
            annotation: "r1@a".into(),
            derived_at: 100,
            expired_at: None,
        });
        // A live entry gets its expiry stamped in place.
        assert_eq!(
            archive.record_expiry("reachable(@a,c)", "retracted", 100, 900),
            1
        );
        assert_eq!(archive.entries[0].expired_at, Some(900));
        assert_eq!(archive.len(), 1);
        // An already-stamped entry is left alone; the deletion of a tuple
        // the archive never saw appends a fresh record.
        assert_eq!(
            archive.record_expiry("reachable(@a,d)", "retracted", 200, 950),
            1
        );
        assert_eq!(archive.len(), 2);
        let fresh = &archive.entries[1];
        assert_eq!(&*fresh.key, "reachable(@a,d)");
        assert_eq!(&*fresh.annotation, "retracted");
        assert_eq!(fresh.expired_at, Some(950));
        // A plain stamp never appends: a key without a live entry stamps none.
        assert_eq!(archive.stamp("reachable(@a,c)", 990), 0);
        assert_eq!(archive.len(), 2);
    }
}
