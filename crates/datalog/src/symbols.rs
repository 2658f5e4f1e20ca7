//! Predicate interning: dense integer ids for predicate names.
//!
//! Every predicate a compiled program mentions is interned into a
//! [`Symbols`] table at plan time, yielding a dense [`PredId`].  The
//! evaluator's hot path (plan dispatch, store addressing, index probes)
//! then compares and hashes `u32`s instead of `String`s; the interner keeps
//! each name exactly once as an `Arc<str>` shared by every consumer, and
//! name-based APIs resolve through it once at the boundary.
//!
//! The table is append-only, so interning the same sequence of names always
//! yields the same ids — the runtime exploits this to mirror the engine's
//! table into every node store ([`Symbols::len`] acts as the sync cursor).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A dense predicate identifier assigned by a [`Symbols`] interner.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PredId(pub u32);

impl PredId {
    /// The id as a `usize` table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An append-only predicate-name interner.
#[derive(Clone, Debug, Default)]
pub struct Symbols {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, PredId>,
}

impl Symbols {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id of `name`, allocating the next dense id on first
    /// sight.
    pub fn intern(&mut self, name: &str) -> PredId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = PredId(self.names.len() as u32);
        let shared: Arc<str> = Arc::from(name);
        self.names.push(shared.clone());
        self.index.insert(shared, id);
        id
    }

    /// The id of `name`, if already interned.
    pub fn resolve(&self, name: &str) -> Option<PredId> {
        self.index.get(name).copied()
    }

    /// The name behind an id.
    pub fn name(&self, id: PredId) -> Option<&str> {
        self.names.get(id.index()).map(|s| &**s)
    }

    /// The shared name behind an id: a clone is a refcount bump, so a read
    /// that hands names out copies no string.
    pub fn shared_name(&self, id: PredId) -> Option<&Arc<str>> {
        self.names.get(id.index())
    }

    /// Number of interned predicates (also the next id to be assigned).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (PredId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (PredId(i as u32), &**n))
    }

    /// Appends every entry of `other` this table does not know yet, in
    /// `other`'s id order.  When `self` was seeded from a prefix of `other`
    /// (the engine/store mirroring protocol) the two tables end up assigning
    /// identical ids to identical names.
    ///
    /// Mirroring is only sound if `self` really is a prefix of `other`: a
    /// mirror that interned its own names first would silently map the same
    /// id to different predicates on each side.  Debug builds verify the
    /// shared prefix (the whole test suite runs under this check); release
    /// builds keep the O(1)-when-in-sync fast path.
    pub fn sync_from(&mut self, other: &Symbols) {
        debug_assert!(
            self.names
                .iter()
                .zip(other.names.iter())
                .all(|(a, b)| a == b),
            "sync_from requires the mirror to be a prefix of the authority"
        );
        for i in self.names.len()..other.names.len() {
            self.intern(&other.names[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_dense_and_idempotent() {
        let mut syms = Symbols::new();
        assert!(syms.is_empty());
        let link = syms.intern("link");
        let reach = syms.intern("reachable");
        assert_eq!(link, PredId(0));
        assert_eq!(reach, PredId(1));
        assert_eq!(syms.intern("link"), link, "re-interning returns the id");
        assert_eq!(syms.len(), 2);
        assert_eq!(syms.resolve("link"), Some(link));
        assert_eq!(syms.resolve("nope"), None);
        assert_eq!(syms.name(reach), Some("reachable"));
        assert_eq!(syms.name(PredId(9)), None);
        assert_eq!(link.index(), 0);
        assert_eq!(link.to_string(), "#0");
    }

    #[test]
    fn sync_from_mirrors_id_assignment() {
        let mut authority = Symbols::new();
        authority.intern("link");
        authority.intern("reachable");
        let mut mirror = Symbols::new();
        mirror.sync_from(&authority);
        authority.intern("sensor");
        mirror.sync_from(&authority);
        for (id, name) in authority.iter() {
            assert_eq!(mirror.resolve(name), Some(id));
            assert_eq!(mirror.name(id), Some(name));
        }
        // Syncing is idempotent.
        mirror.sync_from(&authority);
        assert_eq!(mirror.len(), authority.len());
    }
}
