//! # pasn-bdd
//!
//! A from-scratch ordered binary decision diagram (OBDD) package, standing in
//! for the BuDDy library used by the paper's prototype (Section 6: "We
//! utilize the OpenSSL v0.9.8b, and Buddy BDD v2.4 libraries to support
//! encryption and provenance").
//!
//! Condensed provenance (Section 4.4) annotates each tuple with a boolean
//! function of the principals (or base tuples) it was derived from: `+` is
//! logical OR (alternative derivations), `*` is logical AND (joined
//! antecedents).  Kept as reduced OBDDs those functions are canonical and
//! absorbed — the paper's `<a + a*b>` condenses to `<a>` because the two
//! functions are equal, so [`BddManager`] hands out the same [`BddRef`].
//!
//! The manager keeps what the provenance layer calls: `var`, `and` / `or`
//! (hash-consed nodes, one memoised `apply` cache), the two constants
//! ([`BddRef::FALSE`] / [`BddRef::TRUE`]), and the reads — `evaluate` (trust
//! policies), `support` (origins), `cubes` (the paths a tag's text and wire
//! size are read off), `fold` (trust levels, once per node) and
//! `node_count`.  Provenance functions never negate, so there is no `not`.
//! The unique table, the apply cache and the walks' maps are keyed by ids
//! the manager minted, so they hash with a fixed multiply-rotate fold, not
//! SipHash; a hash places an entry and never orders node creation, so a
//! [`BddRef`]'s index depends only on the sequence of calls.
//!
//! ```
//! use pasn_bdd::BddManager;
//! let mut m = BddManager::new();
//! let a = m.var(0);
//! let b = m.var(1);
//! // a + a*b  ==  a   (absorption — the paper's Figure 2 example)
//! let ab = m.and(a, b);
//! let expr = m.or(a, ab);
//! assert_eq!(expr, a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod manager;

pub use manager::{BddManager, BddRef, VarId};
