//! The declarative network programs used throughout the paper.
//!
//! * [`reachability_ndlog`] — the two-rule all-pairs reachability query of
//!   Section 2.1 (the running example behind Figures 1 and 2);
//! * [`reachability_sendlog`] — its SeNDlog form with context blocks and the
//!   `says` operator (Section 2.2);
//! * [`best_path`] — the Best-Path recursive query used by the evaluation
//!   (Section 6): all-pairs shortest paths carrying the actual path vector
//!   and cost, with a MIN aggregation selecting the best path;
//! * [`route_monitor`] — the continuous route-change monitoring query
//!   sketched in Section 3 (real-time diagnostics use case);
//! * [`distance_vector`], [`path_vector`], [`path_vector_policy`] — the
//!   distance-vector and path-vector routing protocols Section 2.1 says the
//!   reachability example generalises to, the latter with an import policy
//!   that filters routes by the origins carried in their path (the BGP /
//!   trust-management use case of Section 3);
//! * [`dnssec`] — the DNSSEC chain of trust the paper's conclusion names as
//!   future work, as six SeNDlog rules;
//! * [`chord`] — the conclusion's other overlay, secure Chord routing: lookup
//!   over a stabilised ring plus `put` / `get`, as seven SeNDlog rules.

use pasn_datalog::{parse_program, Program};

/// Source text of the NDlog reachability program (Section 2.1).
pub const REACHABILITY_NDLOG: &str = "\
r1 reachable(@S,D) :- link(@S,D).
r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
";

/// Source text of the SeNDlog reachability program (Section 2.2).
pub const REACHABILITY_SENDLOG: &str = "\
At S:
s1 reachable(S,D) :- link(S,D).
s2 linkD(D,S)@D :- link(S,D).
s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y).
";

/// Source text of the Best-Path query (Section 6).
///
/// The query extends the reachability program with path vectors, additive
/// costs and a MIN aggregation, exactly as described in the evaluation:
/// *"This query is obtained from the NDlog all-pairs reachability query
/// presented in Section 2, with additional predicates to compute the actual
/// path, cost of the path, and two extra rules for computing the best
/// paths."*
pub const BEST_PATH: &str = "\
sp1 path(@S,D,P,C) :- link(@S,D,C), P := f_init(S,D).
sp2 path(@S,D,P,C) :- link(@S,Z,C1), bestPath(@Z,D,P2,C2), f_member(P2,S) == false, C := C1 + C2, P := f_concat(S,P2).
sp3 bestPathCost(@S,D,a_MIN<C>) :- path(@S,D,P,C).
sp4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
";

/// Source text of the route-change monitoring query (Section 3, real-time
/// diagnostics): counts route updates per destination and raises an alarm
/// tuple while the count exceeds a threshold.  Under dynamics the count is
/// of the live `routeUpdate` facts, so updates that each live `T` make it a
/// count over the past `T` (see [`crate::workload::route_update_stream`]).
pub const ROUTE_MONITOR: &str = "\
m1 updateCount(@S,D,a_COUNT<C>) :- routeUpdate(@S,D,C).
m2 alarm(@S,D,N) :- updateCount(@S,D,N), threshold(@S,T), N > T.
";

/// Source text of a distance-vector routing protocol.
///
/// Section 2.1 notes that the reachability example generalises to *"more
/// complex routing protocols, such as the distance vector and path vector
/// routing protocols"*.  This is the distance-vector form: each node
/// advertises only its best known cost per destination, and neighbours relax
/// their own estimates against those advertisements (the declarative
/// Bellman–Ford of the Declarative Routing paper).
pub const DISTANCE_VECTOR: &str = "\
dv1 cost(@S,D,C) :- link(@S,D,C).
dv2 cost(@S,D,C) :- link(@S,Z,C1), bestCost(@Z,D,C2), C := C1 + C2.
dv3 bestCost(@S,D,a_MIN<C>) :- cost(@S,D,C).
";

/// Source text of a path-vector routing protocol (the BGP analogue).
///
/// Every route advertisement carries the full path, which lets a node drop
/// advertisements that already contain itself (`f_member(P2,S) == false` —
/// loop suppression) and, more generally, lets policy inspect the *origins*
/// of a route before accepting it — exactly the trust-management use the
/// paper motivates with BGP in Section 3.
pub const PATH_VECTOR: &str = "\
pv1 route(@S,D,P) :- link(@S,D), P := f_init(S,D).
pv2 route(@S,D,P) :- link(@S,Z), route(@Z,D,P2), f_member(P2,S) == false, P := f_concat(S,P2).
";

/// [`PATH_VECTOR`] extended with an import policy: a route is *accepted*
/// only if it avoids the node named by the local `avoid(@S,B)` fact.
///
/// The filter is the declarative form of "reject updates whose provenance
/// contains an untrusted origin" (Section 3, trust management): the carried
/// path is the route's provenance, and `f_member(P,B) == false` checks it
/// against the local policy.  Each `avoid` fact expresses one banned
/// principal; a node that bans nobody simply inserts `avoid(@S, S)`-style
/// sentinel facts or none at all (in which case no `acceptedRoute` tuples
/// are derived at that node).
pub const PATH_VECTOR_POLICY: &str = "\
pv1 route(@S,D,P) :- link(@S,D), P := f_init(S,D).
pv2 route(@S,D,P) :- link(@S,Z), route(@Z,D,P2), f_member(P2,S) == false, P := f_concat(S,P2).
pv3 acceptedRoute(@S,D,P) :- route(@S,D,P), avoid(@S,B), f_member(P,B) == false.
";

/// Source text of the DNSSEC chain of trust (the conclusion's future work).
///
/// Every node runs the block.  A zone `N` exports what it publishes to the
/// resolver `R` it serves (`d1`–`d3`): its key fingerprint (DNSKEY), the
/// child-key fingerprints it endorses (DS) and its records — shipped under
/// the zone's `says`, which is the RRSIG.  The resolver trusts a zone whose
/// said key matches its trust anchor (`d4`), extends trust along every
/// delegation whose endorsed fingerprint the child itself says (`d5`), and
/// accepts an answer only from the zone that says it, once trusted (`d6`).
/// The condensed tag of a `resolved` row is the resolver plus exactly the
/// zones on the chain.
pub const DNSSEC: &str = "\
At N:
d1 key(N,Fp)@R :- dnskey(N,Fp), resolver(N,R).
d2 deleg(N,C,Fp)@R :- ds(N,C,Fp), resolver(N,R).
d3 answer(N,Q,A)@R :- rr(N,Q,A), resolver(N,R).
d4 trusted(N,Z) :- anchor(N,Z,Fp), Z says key(Z,Fp).
d5 trusted(N,C) :- trusted(N,P), P says deleg(P,C,Fp), C says key(C,Fp).
d6 resolved(N,Q,A) :- trusted(N,Z), Z says answer(Z,Q,A).
";

/// Source text of secure Chord routing (the conclusion's other future work).
///
/// Every ring member runs the block over the base facts of a stabilised
/// ring: `node(N,I,M)` (its identifier `I` on a ring of `M` identifiers),
/// `succ(N,S,SI)` and one `finger(N,F,FI,NI)` per distinct finger node —
/// successor included, sorted by clockwise distance, each carrying the arc it
/// covers: `NI` is the next finger's identifier, the last one's wraps to `I`.
/// A `get` or a `put` starts a lookup at its own node (`c0`, `c1`).  A node
/// holding a lookup answers the requester `R` when the key lies in
/// `(I, SI]` (`c2`) and otherwise forwards it to the one finger whose arc
/// holds the key (`c3`) — ring distance is `(B - A + M) % M`, and the
/// `+ M - 1 … + 1` form maps distance zero to a full turn, which is what
/// makes `K == I` and the one-node ring come out right.  The speaker is named
/// in the row (`W says lookup(N,K,R,W)`), so a hop cannot be attributed to a
/// node that did not say it, and a forwarding loop over inconsistent fingers
/// ends by set-semantics deduplication — no hop counter.  The requester hands
/// a `put` value to the owner (`c4`) or asks it for one (`c5`); the owner
/// answers a `fetch` with what it stores, inserter attached (`c6`).  The
/// condensed tag of an `owner` row is exactly the principals that forwarded
/// the lookup; a `value` row's is the reader's path times the inserter's.
pub const CHORD: &str = "\
At N:
c0 lookup(N,K,N,N) :- get(N,K).
c1 lookup(N,K,N,N) :- put(N,K,V).
c2 owner(R,K,S,SI,N)@R :- W says lookup(N,K,R,W), node(N,I,M), succ(N,S,SI),
   DK := (K - I + M - 1) % M + 1, DS := (SI - I + M - 1) % M + 1, DK <= DS.
c3 lookup(F,K,R,N)@F :- W says lookup(N,K,R,W), node(N,I,M), finger(N,F,FI,NI),
   DK := (K - I + M - 1) % M + 1, DF := (FI - I + M) % M,
   DN := (NI - I + M - 1) % M + 1, DF < DK, DK <= DN.
c4 stored(S,K,V,N)@S :- W says owner(N,K,S,SI,W), put(N,K,V).
c5 fetch(S,K,N)@S :- W says owner(N,K,S,SI,W), get(N,K).
c6 value(R,K,V,I)@R :- R says fetch(N,K,R), I says stored(N,K,V,I).
";

/// Parses [`REACHABILITY_NDLOG`].
pub fn reachability_ndlog() -> Program {
    parse_program(REACHABILITY_NDLOG).expect("built-in program parses")
}

/// Parses [`REACHABILITY_SENDLOG`].
pub fn reachability_sendlog() -> Program {
    parse_program(REACHABILITY_SENDLOG).expect("built-in program parses")
}

/// Parses [`BEST_PATH`].
pub fn best_path() -> Program {
    parse_program(BEST_PATH).expect("built-in program parses")
}

/// Parses [`ROUTE_MONITOR`].
pub fn route_monitor() -> Program {
    parse_program(ROUTE_MONITOR).expect("built-in program parses")
}

/// Parses [`DISTANCE_VECTOR`].
pub fn distance_vector() -> Program {
    parse_program(DISTANCE_VECTOR).expect("built-in program parses")
}

/// Parses [`PATH_VECTOR`].
pub fn path_vector() -> Program {
    parse_program(PATH_VECTOR).expect("built-in program parses")
}

/// Parses [`PATH_VECTOR_POLICY`].
pub fn path_vector_policy() -> Program {
    parse_program(PATH_VECTOR_POLICY).expect("built-in program parses")
}

/// Parses [`DNSSEC`].
pub fn dnssec() -> Program {
    parse_program(DNSSEC).expect("built-in program parses")
}

/// Parses [`CHORD`].
pub fn chord() -> Program {
    parse_program(CHORD).expect("built-in program parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasn_datalog::compile_program;

    #[test]
    fn all_built_in_programs_parse_and_compile() {
        for program in [
            reachability_ndlog(),
            reachability_sendlog(),
            best_path(),
            route_monitor(),
            distance_vector(),
            path_vector(),
            path_vector_policy(),
            dnssec(),
            chord(),
        ] {
            compile_program(&program).expect("program compiles");
        }
    }

    #[test]
    fn routing_protocol_programs_have_the_expected_shape() {
        let dv = distance_vector();
        assert_eq!(dv.rules.len(), 3);
        assert!(dv.rules[2].head.has_aggregate());
        let pv = path_vector();
        assert_eq!(pv.rules.len(), 2);
        assert!(!pv.rules.iter().any(|r| r.head.has_aggregate()));
        let policy = path_vector_policy();
        assert_eq!(policy.rules.len(), 3);
        assert!(!policy.uses_sendlog());
    }

    #[test]
    fn best_path_has_the_expected_structure() {
        let p = best_path();
        assert_eq!(p.rules.len(), 4);
        assert!(p.rules[2].head.has_aggregate());
        assert!(!p.uses_sendlog());
    }

    #[test]
    fn sendlog_variant_uses_says() {
        assert!(reachability_sendlog().uses_sendlog());
        assert!(!reachability_ndlog().uses_sendlog());
    }
}
