//! The borrowing walks against the walks they replaced.
//!
//! The traceback and the moonwalk used to clone a `(node, key)` `String`
//! pair per edge and resolve the node's store by name on every step; they
//! are now [`traceback_with`] / [`moonwalk_with`] (with [`traceback`] a
//! wrapper for a map of stores), which queue borrowed keys, remember pairs
//! by digest and resolve a node once per remote edge.  This file keeps the
//! old walks, verbatim, as the reference and checks on random pointer
//! graphs — cycles, one key recorded at two nodes, duplicate antecedents,
//! pointers to absent nodes and to keys nobody recorded — that the results
//! are equal field for field, `visited` order included.

use pasn_crypto::PrincipalId;
use pasn_provenance::{
    moonwalk_with, traceback, traceback_with, AntecedentRef, BaseTupleId, DistributedStore,
    MoonwalkConfig, MoonwalkResult, PointerDerivation, TracebackResult, Walk,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

const NODES: u64 = 4;
const KEYS: u64 = 6;

fn node_name(i: u64) -> String {
    format!("n{i}")
}

fn key_name(i: u64) -> String {
    format!("k(@{i})")
}

/// The base tuple filed under each `(node, key)`, as the reference walks
/// look it up: a model of the stores' base records, kept beside them.
type Bases = HashMap<(String, String), BaseTupleId>;

/// Files one packed record (the offline proptest shim has no tuple
/// strategies): a base tuple one time in four, else a derivation with up to
/// three antecedents.  Pointers draw from one more node and one more key
/// than are ever recorded, so some dangle.
fn file_record(stores: &mut HashMap<String, DistributedStore>, bases: &mut Bases, word: u64) {
    let node = node_name(word % NODES);
    let key = key_name((word >> 8) % KEYS);
    let store = stores.entry(node.clone()).or_default();
    if (word >> 4).is_multiple_of(4) {
        let id = BaseTupleId((word >> 12) % 8);
        store.record_base(&key, id, PrincipalId(0));
        bases.insert((node, key), id);
        return;
    }
    let antecedents = (0..(word >> 16) % 4)
        .map(|i| {
            let bits = (word >> (20 + 12 * i)) & 0xfff;
            let key = key_name((bits >> 5) % (KEYS + 1));
            match bits % 3 {
                0 => AntecedentRef::Local(key.into()),
                _ => AntecedentRef::Remote {
                    location: node_name((bits >> 2) % (NODES + 1)).into(),
                    key: key.into(),
                },
            }
        })
        .collect();
    let rule = format!("r{}", (word >> 56) % 3).into();
    let derivation = PointerDerivation { rule, antecedents };
    store.record_derivation(&key, PrincipalId(0), derivation);
}

fn graph(records: &[u64]) -> (HashMap<String, DistributedStore>, Bases) {
    let (mut stores, mut bases) = (HashMap::new(), Bases::new());
    for word in records {
        file_record(&mut stores, &mut bases, *word);
    }
    (stores, bases)
}

/// Where a query starts: possibly at the absent node, possibly on the key
/// nobody recorded.
fn start(word: u64) -> (String, String) {
    (
        node_name(word % (NODES + 1)),
        key_name((word >> 8) % (KEYS + 1)),
    )
}

/// The breadth-first traceback as it was before the borrowing walk.
fn reference_traceback(
    stores: &HashMap<String, DistributedStore>,
    bases: &Bases,
    start_node: &str,
    key: &str,
) -> TracebackResult {
    let mut result = TracebackResult::default();
    let mut queue: VecDeque<(String, String)> = VecDeque::new();
    let mut seen: HashSet<(String, String)> = HashSet::new();
    queue.push_back((start_node.to_string(), key.to_string()));
    seen.insert((start_node.to_string(), key.to_string()));

    while let Some((node, key)) = queue.pop_front() {
        result.visited.push(key.clone());
        let Some(store) = stores.get(&node) else {
            result.unresolved.push(key);
            continue;
        };
        if let Some(&base) = bases.get(&(node.clone(), key.clone())) {
            result.base_tuples.insert(base);
            continue;
        }
        let derivations = store.derivations_of(&key);
        if derivations.is_empty() {
            result.unresolved.push(key);
            continue;
        }
        for d in derivations {
            for antecedent in &d.antecedents {
                match antecedent {
                    AntecedentRef::Local(k) => {
                        if seen.insert((node.clone(), k.to_string())) {
                            queue.push_back((node.clone(), k.to_string()));
                        }
                    }
                    AntecedentRef::Remote { location, key: k } => {
                        if seen.insert((location.to_string(), k.to_string())) {
                            result.remote_hops += 1;
                            queue.push_back((location.to_string(), k.to_string()));
                        }
                    }
                }
            }
        }
    }
    result
}

/// The moonwalk's SplitMix64, as `moonwalk.rs` keeps it private.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_index(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// The random walk as it was before the borrowing walk.
fn reference_moonwalk(
    stores: &HashMap<String, DistributedStore>,
    bases: &Bases,
    start_node: &str,
    key: &str,
    config: &MoonwalkConfig,
) -> MoonwalkResult {
    let mut rng = SplitMix64(config.seed);
    let mut result = MoonwalkResult::default();

    for _ in 0..config.walks {
        let mut node = start_node.to_string();
        let mut current = key.to_string();
        let mut walk = Walk {
            path: vec![current.clone()],
            terminal_base: None,
            remote_hops: 0,
        };
        *result.visit_frequency.entry(current.clone()).or_default() += 1;

        for _ in 0..config.max_depth {
            let Some(store) = stores.get(&node) else {
                break;
            };
            result.records_read += 1;
            if let Some(&base) = bases.get(&(node.clone(), current.clone())) {
                walk.terminal_base = Some(base);
                break;
            }
            let derivations = store.derivations_of(&current);
            if derivations.is_empty() {
                break;
            }
            let derivation = &derivations[rng.next_index(derivations.len())];
            if derivation.antecedents.is_empty() {
                break;
            }
            let antecedent = &derivation.antecedents[rng.next_index(derivation.antecedents.len())];
            match antecedent {
                AntecedentRef::Local(k) => {
                    current = k.to_string();
                }
                AntecedentRef::Remote { location, key: k } => {
                    walk.remote_hops += 1;
                    result.remote_hops += 1;
                    node = location.to_string();
                    current = k.to_string();
                }
            }
            walk.path.push(current.clone());
            *result.visit_frequency.entry(current.clone()).or_default() += 1;
        }

        if let Some(base) = walk.terminal_base {
            *result.base_frequency.entry(base).or_default() += 1;
        }
        result.walks.push(walk);
    }
    result
}

/// `MoonwalkResult` derives no `PartialEq`: compare it field by field.
fn assert_same_moonwalk(got: &MoonwalkResult, want: &MoonwalkResult) {
    assert_eq!(got.walks, want.walks);
    assert_eq!(got.base_frequency, want.base_frequency);
    assert_eq!(got.visit_frequency, want.visit_frequency);
    assert_eq!(got.records_read, want.records_read);
    assert_eq!(got.remote_hops, want.remote_hops);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The whole `TracebackResult` — bases, `visited` in visit order,
    /// `remote_hops`, `unresolved` — through the map wrapper and through a
    /// resolver that is not a map at all.
    #[test]
    fn traceback_equivalence_prop(
        records in prop::collection::vec(any::<u64>(), 0..40),
        from in any::<u64>(),
    ) {
        let (stores, bases) = graph(&records);
        let (node, key) = start(from);
        let want = reference_traceback(&stores, &bases, &node, &key);
        prop_assert_eq!(&traceback(&stores, &node, &key), &want);

        let by_scan: Vec<(&String, &DistributedStore)> = stores.iter().collect();
        let resolve = |name: &str| by_scan.iter().find(|(node, _)| *node == name).map(|(_, store)| *store);
        prop_assert_eq!(&traceback_with(resolve, &node, &key), &want);
    }

    /// Every walk, both frequency tables and both counters, for the same
    /// seed.
    #[test]
    fn moonwalk_equivalence_prop(
        records in prop::collection::vec(any::<u64>(), 0..40),
        from in any::<u64>(),
        seed in any::<u64>(),
        depth in 0usize..12,
    ) {
        let (stores, bases) = graph(&records);
        let (node, key) = start(from);
        let config = MoonwalkConfig { walks: 8, max_depth: depth, seed };
        let want = reference_moonwalk(&stores, &bases, &node, &key, &config);
        let by_name = |name: &str| stores.get(name);
        assert_same_moonwalk(&moonwalk_with(by_name, &node, &key, &config), &want);

        let by_scan: Vec<(&String, &DistributedStore)> = stores.iter().collect();
        let resolve = |name: &str| by_scan.iter().find(|(node, _)| *node == name).map(|(_, store)| *store);
        assert_same_moonwalk(&moonwalk_with(resolve, &node, &key, &config), &want);
    }
}
