//! Random moonwalks — sampled distributed provenance queries (Section 5).
//!
//! A full traceback query ([`crate::store::traceback`]) visits every
//! antecedent of every derivation, which for a large epidemic-style event
//! graph means touching most of the network's provenance.  The paper points
//! to *random moonwalks* (Xie et al., "Forensic analysis for epidemic attacks
//! in federated networks") as a sampling technique that avoids querying all
//! provenance: instead of the exhaustive traversal, the querier performs many
//! short, independent backward walks, each time choosing **one** antecedent
//! uniformly at random.  Because every derivation of an epidemic ultimately
//! funnels back through the origin, the origin (and the tuples close to it)
//! shows up disproportionately often among the walk endpoints, so a frequency
//! ranking over a modest number of walks identifies the source while reading
//! only a small fraction of the provenance records.
//!
//! This module implements the technique over the same per-node
//! [`DistributedStore`]s used by exhaustive traceback, so the two approaches
//! can be compared head to head (the sampling claim of
//! `tests/optimizations.rs` pins both; see also the forensics example).

use crate::key::ProvKey;
use crate::semiring::BaseTupleId;
use crate::store::{AntecedentRef, DistributedStore};
use std::collections::BTreeMap;

/// Configuration of a moonwalk sampling run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MoonwalkConfig {
    /// Number of independent backward walks.
    pub walks: usize,
    /// Maximum number of backward steps per walk (a walk also stops when it
    /// reaches a base tuple or an unresolved antecedent).
    pub max_depth: usize,
    /// Seed for the deterministic pseudo-random choices.
    pub seed: u64,
}

impl Default for MoonwalkConfig {
    fn default() -> Self {
        MoonwalkConfig {
            walks: 64,
            max_depth: 32,
            seed: 0x6d6f6f6e,
        }
    }
}

/// Outcome of one backward walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Walk {
    /// Keys visited, in order, starting with the queried tuple.
    pub path: Vec<String>,
    /// The base tuple the walk terminated on, if it reached one.
    pub terminal_base: Option<BaseTupleId>,
    /// Number of cross-node hops the walk performed.
    pub remote_hops: usize,
}

/// Aggregate result of a moonwalk sampling run.
#[derive(Clone, Debug, Default)]
pub struct MoonwalkResult {
    /// Every individual walk, for inspection.
    pub walks: Vec<Walk>,
    /// How often each base tuple terminated a walk.
    pub base_frequency: BTreeMap<BaseTupleId, usize>,
    /// How often each intermediate key was visited across all walks.
    pub visit_frequency: BTreeMap<String, usize>,
    /// Total provenance records read (the cost the sampling is meant to
    /// bound; compare with [`crate::store::TracebackResult::visited`]).
    pub records_read: usize,
    /// Total cross-node hops across all walks.
    pub remote_hops: usize,
}

impl MoonwalkResult {
    /// The most frequently hit base tuple — the suspected origin.
    pub fn suspected_origin(&self) -> Option<BaseTupleId> {
        self.base_frequency
            .iter()
            .max_by_key(|(id, count)| (**count, std::cmp::Reverse(id.0)))
            .map(|(id, _)| *id)
    }

    /// Fraction of walks that reached any base tuple.
    pub fn hit_rate(&self) -> f64 {
        if self.walks.is_empty() {
            return 0.0;
        }
        let hits = self
            .walks
            .iter()
            .filter(|w| w.terminal_base.is_some())
            .count();
        hits as f64 / self.walks.len() as f64
    }
}

/// A small deterministic SplitMix64 generator so the module needs no
/// external RNG dependency and results are reproducible for a given seed.
#[derive(Clone, Debug)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `[0, bound)`; `bound` must be non-zero.
    fn next_index(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Appends `key` to `walk` and counts the visit.
fn visit(result: &mut MoonwalkResult, walk: &mut Walk, key: &str) {
    walk.path.push(key.to_string());
    if let Some(count) = result.visit_frequency.get_mut(key) {
        *count += 1;
    } else {
        result.visit_frequency.insert(key.to_string(), 1);
    }
}

/// Runs a random-moonwalk sampling query over per-node distributed
/// provenance stores, starting from `key` held at `start_node`; `resolve`
/// names a node's store (a deployment passes its name directory, a caller
/// owning a map `|name| stores.get(name)`).
///
/// Each walk starts at the queried tuple and repeatedly steps backward to a
/// uniformly chosen antecedent of a uniformly chosen derivation, crossing to
/// the remote store when the antecedent is a
/// [`AntecedentRef::Remote`] pointer, until it reaches a base tuple, an
/// unresolved key, or the depth limit.  A walk holds the `&str`s the pointer
/// records hold and resolves a node once per remote hop; it allocates the
/// strings [`MoonwalkResult`] returns.
pub fn moonwalk_with<'a>(
    resolve: impl Fn(&str) -> Option<&'a DistributedStore>,
    start_node: &str,
    key: &'a str,
    config: &MoonwalkConfig,
) -> MoonwalkResult {
    let mut rng = SplitMix64::new(config.seed);
    let mut result = MoonwalkResult::default();
    let start = resolve(start_node);

    for _ in 0..config.walks {
        let mut store = start;
        let mut current = key;
        let mut walk = Walk {
            path: Vec::new(),
            terminal_base: None,
            remote_hops: 0,
        };
        visit(&mut result, &mut walk, current);

        for _ in 0..config.max_depth {
            let Some(at) = store else {
                break;
            };
            result.records_read += 1;
            let digest = ProvKey::from_rendered(current);
            if let Some(base) = at.base_at(digest) {
                walk.terminal_base = Some(base);
                break;
            }
            let derivations = at.derivations_at(digest);
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
                    current = k;
                }
                AntecedentRef::Remote { location, key: k } => {
                    walk.remote_hops += 1;
                    result.remote_hops += 1;
                    store = resolve(location);
                    current = k;
                }
            }
            visit(&mut result, &mut walk, current);
        }

        if let Some(base) = walk.terminal_base {
            *result.base_frequency.entry(base).or_default() += 1;
        }
        result.walks.push(walk);
    }

    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PointerDerivation;
    use pasn_crypto::PrincipalId;
    use std::collections::HashMap;

    /// Walks `stores` by name, the way a caller owning a map resolves them.
    fn walk(
        stores: &HashMap<String, DistributedStore>,
        start_node: &str,
        key: &str,
        config: &MoonwalkConfig,
    ) -> MoonwalkResult {
        moonwalk_with(|name| stores.get(name), start_node, key, config)
    }

    /// Builds a fan-in provenance shape: one origin base tuple `attack@n0`
    /// from which a chain of derived tuples spreads across `n` nodes, plus a
    /// handful of unrelated benign base tuples that only support their own
    /// local derivations.
    fn epidemic_stores(n: usize) -> HashMap<String, DistributedStore> {
        let mut stores = HashMap::new();
        let origin = BaseTupleId(1);
        let mut s0 = DistributedStore::new();
        s0.record_base("attack(n0)", origin, PrincipalId(0));
        s0.record_derivation(
            "infected(n0)",
            PrincipalId(0),
            PointerDerivation {
                rule: "e1".into(),
                antecedents: vec![AntecedentRef::Local("attack(n0)".into())],
            },
        );
        stores.insert("n0".to_string(), s0);

        for i in 1..n {
            let node = format!("n{i}");
            let mut s = DistributedStore::new();
            // Each node derives its infection from the previous node's
            // infection plus a local benign base tuple.
            let benign = BaseTupleId(100 + i as u64);
            s.record_base(&format!("benign({node})"), benign, PrincipalId(0));
            s.record_derivation(
                &format!("infected({node})"),
                PrincipalId(0),
                PointerDerivation {
                    rule: "e2".into(),
                    antecedents: vec![
                        AntecedentRef::Remote {
                            location: format!("n{}", i - 1).into(),
                            key: format!("infected(n{})", i - 1).into(),
                        },
                        AntecedentRef::Local(format!("benign({node})").into()),
                    ],
                },
            );
            stores.insert(node, s);
        }
        stores
    }

    #[test]
    fn walks_are_deterministic_for_a_seed() {
        let stores = epidemic_stores(6);
        let config = MoonwalkConfig {
            walks: 32,
            seed: 7,
            ..MoonwalkConfig::default()
        };
        let a = walk(&stores, "n5", "infected(n5)", &config);
        let b = walk(&stores, "n5", "infected(n5)", &config);
        assert_eq!(a.base_frequency, b.base_frequency);
        assert_eq!(a.records_read, b.records_read);
        assert_eq!(a.walks.len(), 32);
    }

    #[test]
    fn different_seeds_still_find_the_origin() {
        let stores = epidemic_stores(5);
        for seed in [1, 2, 3, 99] {
            let config = MoonwalkConfig {
                walks: 200,
                seed,
                ..MoonwalkConfig::default()
            };
            let result = walk(&stores, "n4", "infected(n4)", &config);
            // Each walk flips a coin at every hop between continuing toward
            // the origin and stopping on a local benign base; with 200 walks
            // the origin at the end of the funnel is reached often enough to
            // appear, and every chain tuple is visited.
            assert!(
                result.base_frequency.contains_key(&BaseTupleId(1)),
                "seed {seed}"
            );
            assert!(
                result.hit_rate() > 0.9,
                "seed {seed}: {}",
                result.hit_rate()
            );
        }
    }

    #[test]
    fn origin_dominates_on_a_fan_in_graph() {
        // A star: many infected tuples all derived directly from the single
        // attack base tuple, each also joined with its own benign base.  The
        // origin should terminate roughly half the walks; each benign tuple
        // only its own small share.
        let mut stores = HashMap::new();
        let origin = BaseTupleId(1);
        let mut s0 = DistributedStore::new();
        s0.record_base("attack(n0)", origin, PrincipalId(0));
        stores.insert("n0".to_string(), s0);
        for i in 1..9 {
            let node = format!("n{i}");
            let mut s = DistributedStore::new();
            s.record_base(
                &format!("benign({node})"),
                BaseTupleId(100 + i as u64),
                PrincipalId(0),
            );
            s.record_derivation(
                &format!("infected({node})"),
                PrincipalId(0),
                PointerDerivation {
                    rule: "e1".into(),
                    antecedents: vec![
                        AntecedentRef::Remote {
                            location: "n0".into(),
                            key: "attack(n0)".into(),
                        },
                        AntecedentRef::Local(format!("benign({node})").into()),
                    ],
                },
            );
            stores.insert(node, s);
        }
        // Query several infected tuples and pool the counts the way an
        // operator chasing an epidemic would.
        let mut pooled: BTreeMap<BaseTupleId, usize> = BTreeMap::new();
        for i in 1..9 {
            let result = walk(
                &stores,
                &format!("n{i}"),
                &format!("infected(n{i})"),
                &MoonwalkConfig {
                    walks: 50,
                    seed: i as u64,
                    ..MoonwalkConfig::default()
                },
            );
            for (base, count) in result.base_frequency {
                *pooled.entry(base).or_default() += count;
            }
        }
        let origin_hits = pooled.get(&origin).copied().unwrap_or(0);
        let max_benign = pooled
            .iter()
            .filter(|(id, _)| **id != origin)
            .map(|(_, c)| *c)
            .max()
            .unwrap_or(0);
        assert!(
            origin_hits > max_benign * 3,
            "origin {origin_hits} vs best benign {max_benign}"
        );
    }

    #[test]
    fn records_read_is_bounded_by_walks_times_depth() {
        let stores = epidemic_stores(10);
        let config = MoonwalkConfig {
            walks: 16,
            max_depth: 4,
            seed: 3,
        };
        let result = walk(&stores, "n9", "infected(n9)", &config);
        assert!(result.records_read <= 16 * 4);
        for walk in &result.walks {
            assert!(walk.path.len() <= 5);
        }
    }

    #[test]
    fn walk_on_missing_key_terminates_without_bases() {
        let stores = epidemic_stores(3);
        let result = walk(
            &stores,
            "n2",
            "no-such-tuple",
            &MoonwalkConfig {
                walks: 4,
                ..MoonwalkConfig::default()
            },
        );
        assert!(result.base_frequency.is_empty());
        assert_eq!(result.hit_rate(), 0.0);
        assert_eq!(result.walks.len(), 4);
    }

    #[test]
    fn walk_on_missing_node_terminates() {
        let stores = epidemic_stores(3);
        let result = walk(
            &stores,
            "absent-node",
            "infected(n2)",
            &MoonwalkConfig {
                walks: 4,
                ..MoonwalkConfig::default()
            },
        );
        assert!(result.base_frequency.is_empty());
        assert_eq!(result.records_read, 0);
    }

    #[test]
    fn suspected_origin_is_the_most_frequent_then_lowest_id() {
        let mut result = MoonwalkResult::default();
        result.base_frequency.insert(BaseTupleId(5), 3);
        result.base_frequency.insert(BaseTupleId(2), 7);
        result.base_frequency.insert(BaseTupleId(9), 3);
        assert_eq!(result.suspected_origin(), Some(BaseTupleId(2)));
        result.base_frequency.insert(BaseTupleId(2), 3);
        assert_eq!(result.suspected_origin(), Some(BaseTupleId(2)));
    }

    #[test]
    fn default_config_is_reasonable() {
        let config = MoonwalkConfig::default();
        assert!(config.walks >= 16);
        assert!(config.max_depth >= 8);
        let tweaked = MoonwalkConfig {
            max_depth: 3,
            seed: 1,
            ..config
        };
        assert_eq!(tweaked.max_depth, 3);
        assert_eq!(tweaked.seed, 1);
    }
}
