//! [`ArchiveStore`]'s key index against the scans it replaced.
//!
//! `record_expiry` and the exact-key read used to compare every entry's
//! key; they now follow a per-key chain threaded through the log.  Random
//! scripts of every archive operation run against a model that still scans:
//! the log and every return value must be identical after each step, and so
//! must the exact-key read of every key the script can name.

use pasn_provenance::{ArchiveStore, ArchivedEntry};
use proptest::prelude::*;

/// Keys the scripts draw from: some are prefixes of others, so the prefix
/// query and the exact-key read disagree on them, and `bestPath` is both a
/// predicate name and the start of another (`bestPathCost`).
const KEYS: [&str; 8] = [
    "reachable(@n0,n1)",
    "reachable(@n0,n10)",
    "reachable(@n0,n1",
    "bestPath(@n0,n1)",
    "bestPathCost(@n0,n1)",
    "reachable",
    "bestPath",
    "",
];

/// The archive as it was: one log, every by-key operation a scan.
#[derive(Default)]
struct ScanModel {
    entries: Vec<ArchivedEntry>,
}

impl ScanModel {
    fn record_expiry(&mut self, key: &str, derived_at: u64, expired_at: u64) -> usize {
        let mut stamped = 0;
        for e in &mut self.entries {
            if *e.key == *key && e.expired_at.is_none() {
                e.expired_at = Some(expired_at);
                stamped += 1;
            }
        }
        if stamped == 0 {
            self.entries.push(ArchivedEntry {
                key: key.into(),
                annotation: "retracted".into(),
                derived_at,
                expired_at: Some(expired_at),
            });
            stamped = 1;
        }
        stamped
    }

    /// A prefix with `(` matches every key it begins; one without is a
    /// predicate name and matches `name(...)` keys only.
    fn query(&self, prefix: &str, from: Option<u64>, to: Option<u64>) -> Vec<&ArchivedEntry> {
        let pattern = if prefix.contains('(') {
            prefix.to_string()
        } else {
            format!("{prefix}(")
        };
        self.entries
            .iter()
            .filter(|e| e.key.starts_with(&pattern))
            .filter(|e| from.is_none_or(|f| e.derived_at >= f))
            .filter(|e| to.is_none_or(|t| e.derived_at <= t))
            .collect()
    }

    fn entries_of(&self, key: &str) -> Vec<&ArchivedEntry> {
        self.entries.iter().filter(|e| *e.key == *key).collect()
    }
}

/// Applies one packed op (the offline proptest shim has no tuple
/// strategies) to the archive and the model alike and compares what it
/// returns.
fn apply(archive: &mut ArchiveStore, model: &mut ScanModel, word: u64) {
    let key = KEYS[((word >> 4) % KEYS.len() as u64) as usize];
    let (t, u) = ((word >> 8) % 40, (word >> 16) % 40);
    match word % 6 {
        0..=2 => {
            let entry = ArchivedEntry {
                key: key.into(),
                annotation: format!("r{}@n0", (word >> 28) % 3).into(),
                derived_at: t,
                expired_at: (word >> 32).is_multiple_of(3).then_some(t + u),
            };
            archive.record(entry.clone());
            model.entries.push(entry);
        }
        3 => assert_eq!(
            archive.record_expiry(key, "retracted", t, t + u),
            model.record_expiry(key, t, t + u),
            "record_expiry({key:?})"
        ),
        4 => {
            let from = (word >> 32).is_multiple_of(2).then_some(t);
            let to = (word >> 33).is_multiple_of(2).then_some(t + u);
            assert_eq!(archive.query(key, from, to), model.query(key, from, to));
        }
        _ => assert_eq!(
            archive.entries_of(key).collect::<Vec<_>>(),
            model.entries_of(key)
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn archive_index_matches_scan_prop(
        script in prop::collection::vec(any::<u64>(), 1..120),
    ) {
        let mut archive = ArchiveStore::new();
        let mut model = ScanModel::default();
        for word in script {
            apply(&mut archive, &mut model, word);
            prop_assert_eq!(archive.entries(), model.entries.as_slice());
            prop_assert_eq!(archive.len(), model.entries.len());
            for key in KEYS {
                let indexed: Vec<&ArchivedEntry> = archive.entries_of(key).collect();
                prop_assert_eq!(indexed, model.entries_of(key), "entries_of({:?})", key);
            }
        }
    }
}
