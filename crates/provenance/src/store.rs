//! Provenance storage along the paper's taxonomy axes.
//!
//! * **Local vs distributed** (Section 4.1): local provenance is a plain
//!   [`DerivationGraph`](crate::graph::DerivationGraph) kept at the tuple's
//!   final storage node (complete provenance piggybacked with each shipped
//!   tuple); [`DistributedStore`] keeps only per-node pointer records and
//!   reconstructs provenance on demand via a recursive traceback.
//! * **Online vs offline** (Section 4.2): online graph entries follow the
//!   soft-state lifetime of their tuples
//!   ([`DerivationGraph::purge_expired`](crate::graph::DerivationGraph::purge_expired));
//!   the [`ArchiveStore`] retains snapshots beyond expiry for forensics and
//!   accountability, with an age-out policy.

use crate::key::{DigestMap, DigestSet, ProvKey};
use crate::semiring::BaseTupleId;
use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
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

/// A pointer-style derivation record: enough to reconstruct provenance on
/// demand, at the cost of a distributed query (the IP-traceback analogy of
/// Section 4.1).
#[derive(Clone, Debug, PartialEq)]
pub struct PointerDerivation {
    /// Rule that fired (shared with every record of the rule).
    pub rule: Arc<str>,
    /// Antecedents, local or remote.
    pub antecedents: Vec<AntecedentRef>,
}

/// A per-node *distributed* provenance store.
///
/// Entries are keyed by derived [`ProvKey`]s (64-bit digests of the tuple
/// identity) rather than cloned rendered strings; the rendered form only
/// travels inside [`AntecedentRef`]s, where traceback needs it for display
/// and cross-node routing.
#[derive(Clone, Debug, Default)]
pub struct DistributedStore {
    /// This node's name (matches tuple locations).
    pub node: String,
    entries: DigestMap<ProvKey, Vec<PointerDerivation>>,
    bases: DigestMap<ProvKey, BaseTupleId>,
}

impl DistributedStore {
    /// Creates an empty store for `node`.
    pub fn new(node: impl Into<String>) -> Self {
        DistributedStore {
            node: node.into(),
            entries: DigestMap::default(),
            bases: DigestMap::default(),
        }
    }

    /// Records a base tuple stored at this node.
    pub fn record_base(&mut self, key: &str, id: BaseTupleId) {
        self.bases.insert(ProvKey::from_rendered(key), id);
    }

    /// Records one derivation of `key` at this node.
    pub fn record_derivation(&mut self, key: &str, derivation: PointerDerivation) {
        let entry = self.entries.entry(ProvKey::from_rendered(key)).or_default();
        if !entry.contains(&derivation) {
            entry.push(derivation);
        }
    }

    /// Derivations of a locally stored tuple.
    pub fn derivations_of(&self, key: &str) -> &[PointerDerivation] {
        self.derivations_at(ProvKey::from_rendered(key))
    }

    /// [`DistributedStore::derivations_of`] for a caller that already holds
    /// the key's digest.
    pub fn derivations_at(&self, key: ProvKey) -> &[PointerDerivation] {
        self.entries.get(&key).map_or(&[], Vec::as_slice)
    }

    /// True if `key` is a base tuple at this node.
    pub fn base_id(&self, key: &str) -> Option<BaseTupleId> {
        self.base_at(ProvKey::from_rendered(key))
    }

    /// [`DistributedStore::base_id`] for a caller that already holds the
    /// key's digest.
    pub fn base_at(&self, key: ProvKey) -> Option<BaseTupleId> {
        self.bases.get(&key).copied()
    }

    /// Number of stored pointer records (per-node storage overhead metric).
    pub fn entry_count(&self) -> usize {
        self.entries.values().map(Vec::len).sum::<usize>() + self.bases.len()
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
/// of the archive) copies no bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchivedEntry {
    /// The tuple key.
    pub key: Arc<str>,
    /// Node that stored the tuple.
    pub location: Arc<str>,
    /// How the entry came to be: `rule@node` for an archived derivation
    /// (e.g. `r2@n3`), the deletion reason (e.g. `retracted`) for a record
    /// [`ArchiveStore::record_expiry`] had to create.
    pub annotation: Arc<str>,
    /// Simulated time the tuple was derived.
    pub derived_at: u64,
    /// Simulated time the tuple expired (if it did).
    pub expired_at: Option<u64>,
    /// Marked to persist beyond the age-out horizon (e.g. flagged during a
    /// network anomaly, Section 5).
    pub pinned: bool,
}

/// End of a key chain in [`ArchiveStore`]'s `u32` link space.
const END: u32 = u32::MAX;

/// An *offline* provenance archive: entries survive tuple expiry so that
/// forensic queries can correlate long-gone traffic.
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

    /// Records that the tuple behind `key` was deleted (retracted or
    /// expired) at `expired_at`: every live entry for the key is stamped
    /// with the expiry time, and if the archive held no entry yet — the
    /// tuple was derived before archiving was enabled, or sampled out — a
    /// fresh one is appended so the deletion itself is never lost.  Returns
    /// the number of entries stamped or created.  This is the
    /// archive-on-delete path: soft state dies mid-run, but its forensic
    /// record (and hence moonwalk/traceback reachability) survives.
    pub fn record_expiry(
        &mut self,
        key: &str,
        location: &str,
        annotation: &str,
        derived_at: u64,
        expired_at: u64,
    ) -> usize {
        let mut stamped = 0;
        self.update_entries_of(key, |e| {
            if e.expired_at.is_none() {
                e.expired_at = Some(expired_at);
                stamped += 1;
            }
        });
        if stamped == 0 {
            self.record(ArchivedEntry {
                key: key.into(),
                location: location.into(),
                annotation: annotation.into(),
                derived_at,
                expired_at: Some(expired_at),
                pinned: false,
            });
            stamped = 1;
        }
        stamped
    }

    /// Marks every entry matching `key` as pinned so age-out keeps it.
    pub fn pin(&mut self, key: &str) -> usize {
        let mut count = 0;
        self.update_entries_of(key, |e| {
            e.pinned = true;
            count += 1;
        });
        count
    }

    /// Drops unpinned entries derived before `horizon`; returns how many were
    /// removed (the storage-reduction knob of Section 5).
    pub fn age_out(&mut self, horizon: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.pinned || e.derived_at >= horizon);
        let removed = before - self.entries.len();
        if removed > 0 {
            // Every surviving entry may have moved: thread the chains anew.
            self.chains.clear();
            self.next.clear();
            for entry in &self.entries {
                link(&mut self.chains, &mut self.next, &entry.key);
            }
        }
        removed
    }

    /// All entries, oldest first.
    pub fn entries(&self) -> &[ArchivedEntry] {
        &self.entries
    }

    /// Entries for a given predicate (prefix match on the rendered key),
    /// optionally restricted to a derivation-time window.
    pub fn query(
        &self,
        key_prefix: &str,
        from: Option<u64>,
        to: Option<u64>,
    ) -> Vec<&ArchivedEntry> {
        self.entries
            .iter()
            .filter(|e| e.key.starts_with(key_prefix))
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

    fn pointer_stores() -> HashMap<String, DistributedStore> {
        // reachable(@a,c) derived at a from link(@a,b) [local] and
        // reachable(@b,c) [remote at b]; reachable(@b,c) derived at b from
        // link(@b,c) [local base].
        let mut a = DistributedStore::new("a");
        a.record_base("link(@a,b)", BaseTupleId(1));
        a.record_base("link(@a,c)", BaseTupleId(2));
        a.record_derivation(
            "reachable(@a,c)",
            PointerDerivation {
                rule: "r2".into(),
                antecedents: vec![
                    AntecedentRef::Local("link(@a,b)".into()),
                    AntecedentRef::Remote {
                        location: "b".into(),
                        key: "reachable(@b,c)".into(),
                    },
                ],
            },
        );
        a.record_derivation(
            "reachable(@a,c)",
            PointerDerivation {
                rule: "r1".into(),
                antecedents: vec![AntecedentRef::Local("link(@a,c)".into())],
            },
        );
        let mut b = DistributedStore::new("b");
        b.record_base("link(@b,c)", BaseTupleId(3));
        b.record_derivation(
            "reachable(@b,c)",
            PointerDerivation {
                rule: "r1".into(),
                antecedents: vec![AntecedentRef::Local("link(@b,c)".into())],
            },
        );
        let mut stores = HashMap::new();
        stores.insert("a".to_string(), a);
        stores.insert("b".to_string(), b);
        stores
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
        let mut s = DistributedStore::new("a");
        let d = PointerDerivation {
            rule: "r1".into(),
            antecedents: vec![AntecedentRef::Local("x".into())],
        };
        s.record_derivation("p", d.clone());
        s.record_derivation("p", d);
        s.record_base("x", BaseTupleId(9));
        assert_eq!(s.derivations_of("p").len(), 1);
        assert_eq!(s.entry_count(), 2);
        assert_eq!(s.base_id("x"), Some(BaseTupleId(9)));
        assert_eq!(s.base_id("y"), None);
        assert!(s.derivations_of("missing").is_empty());
    }

    #[test]
    fn archive_survives_expiry_and_ages_out() {
        let mut archive = ArchiveStore::new();
        for i in 0..10u64 {
            archive.record(ArchivedEntry {
                key: format!("bestPath(@n0,n{i})").into(),
                location: "n0".into(),
                annotation: "<p0>".into(),
                derived_at: i * 100,
                expired_at: Some(i * 100 + 50),
                pinned: false,
            });
        }
        assert_eq!(archive.len(), 10);
        // Pin one entry, then age out everything older than t=500.
        assert_eq!(archive.pin("bestPath(@n0,n2)"), 1);
        let removed = archive.age_out(500);
        assert_eq!(removed, 4, "entries 0,1,3,4 removed; 2 pinned");
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
            location: "a".into(),
            annotation: "r1@a".into(),
            derived_at: 100,
            expired_at: None,
            pinned: false,
        });
        // A live entry gets its expiry stamped in place.
        assert_eq!(
            archive.record_expiry("reachable(@a,c)", "a", "retracted", 100, 900),
            1
        );
        assert_eq!(archive.entries()[0].expired_at, Some(900));
        assert_eq!(archive.len(), 1);
        // An already-stamped entry is left alone; the deletion of a tuple
        // the archive never saw appends a fresh record.
        assert_eq!(
            archive.record_expiry("reachable(@a,d)", "a", "retracted", 200, 950),
            1
        );
        assert_eq!(archive.len(), 2);
        let fresh = &archive.entries()[1];
        assert_eq!(&*fresh.key, "reachable(@a,d)");
        assert_eq!(&*fresh.annotation, "retracted");
        assert_eq!(fresh.expired_at, Some(950));
    }
}
