//! Secure Chord routing with authenticated, provenance-tracked lookups.
//!
//! The paper's future work names *secure Chord routing* as the first overlay
//! it intends to express on the provenance-aware SeNDlog stack.  The full
//! 47-rule declarative Chord of Loo et al. needs bit-level identifier
//! built-ins the NDlog front-end of this reproduction does not grow, so this
//! module implements the overlay directly on the same substrates the engine
//! itself uses: the `says` construct of `pasn-crypto` authenticates every
//! lookup hop, and `pasn-provenance` derivation graphs record *why* a lookup
//! returned the owner it did.  That preserves the behaviour the paper cares
//! about — the querier can verify who forwarded its lookup, enforce trust
//! policies over those principals, and trace a stored value back to the node
//! that inserted it — while the routing state itself (successors, finger
//! tables, replica placement) follows the Chord paper the reproduction
//! cites.
//!
//! The ring is built in its *stabilised* state (every node's successor,
//! predecessor, finger table and successor list are globally consistent),
//! and churn is modelled by [`ChordRing::remove_node`] /
//! [`ChordRing::rejoin_node`] followed by [`ChordRing::stabilize`], which is
//! what a converged run of Chord's periodic stabilisation produces.

use crate::id::{ChordId, IdSpace};
use pasn_crypto::{Authenticator, KeyAuthority, Principal, PrincipalId, SaysAssertion, SaysLevel};
use pasn_provenance::{BaseTupleId, DerivationGraph, NewDerivation, VoteSet};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Errors raised by the Chord overlay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChordError {
    /// The ring must contain at least one node.
    EmptyRing,
    /// The configured `says` level cannot back single-shot hop assertions
    /// (session proofs only exist on an established frame channel).
    UnsupportedSaysLevel(SaysLevel),
    /// Key provisioning for the node principals failed.
    KeyProvisioning(String),
    /// The referenced node is not (or no longer) a ring member.
    UnknownNode(ChordId),
    /// The lookup visited more nodes than the ring contains — the routing
    /// state is inconsistent.
    LookupLoop {
        /// The key being looked up.
        key: ChordId,
        /// Nodes visited before the loop was detected.
        visited: usize,
    },
    /// A hop assertion failed to verify, or the hop chain is inconsistent.
    InvalidLookup(String),
    /// No value is stored under the requested name.
    NotFound(String),
}

impl fmt::Display for ChordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChordError::EmptyRing => write!(f, "a chord ring needs at least one node"),
            ChordError::UnsupportedSaysLevel(level) => write!(
                f,
                "says level {} cannot back per-hop assertions (use cleartext, hmac or rsa)",
                level.name()
            ),
            ChordError::KeyProvisioning(e) => write!(f, "key provisioning failed: {e}"),
            ChordError::UnknownNode(id) => write!(f, "node {id} is not a ring member"),
            ChordError::LookupLoop { key, visited } => {
                write!(
                    f,
                    "lookup for {key} visited {visited} nodes without converging"
                )
            }
            ChordError::InvalidLookup(msg) => write!(f, "lookup verification failed: {msg}"),
            ChordError::NotFound(name) => write!(f, "no value stored under {name:?}"),
        }
    }
}

impl std::error::Error for ChordError {}

/// Configuration of a [`ChordRing`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChordConfig {
    /// Number of ring members.
    pub nodes: u32,
    /// Identifier bits (the `m` of Chord).
    pub bits: u32,
    /// Strength of the `says` assertions on lookup hops and stored values.
    /// Hops assert individual statements, so only the single-shot levels
    /// apply (`Cleartext` / `Hmac` / `Rsa`); `SaysLevel::Session` proofs
    /// live on an established frame channel and cannot back per-hop
    /// assertions.
    pub says_level: SaysLevel,
    /// RSA modulus size used when provisioning node keys.
    pub modulus_bits: usize,
    /// Seed for key provisioning (node placement is derived from principal
    /// identities, so it is deterministic independently of this seed).
    pub seed: u64,
    /// Length of each node's successor list (replication factor).
    pub successor_list_len: usize,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            nodes: 16,
            bits: 32,
            says_level: SaysLevel::Hmac,
            modulus_bits: 512,
            seed: 0xc0de,
            successor_list_len: 3,
        }
    }
}

/// One finger-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FingerEntry {
    /// Start of the finger interval, `(n + 2^k) mod 2^m`.
    pub start: ChordId,
    /// First ring member at or after `start`.
    pub node: ChordId,
}

/// A value stored in the DHT, signed by the principal that inserted it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredValue {
    /// Application-level name of the value.
    pub name: String,
    /// The stored payload.
    pub value: Vec<u8>,
    /// Principal that inserted the value.
    pub inserted_by: PrincipalId,
    /// `inserted_by says put(name, value)`.
    pub assertion: SaysAssertion,
}

impl StoredValue {
    /// The canonical byte string the inserting principal signs.
    pub fn payload(name: &str, value: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(name.len() + value.len() + 5);
        out.extend_from_slice(b"put:");
        out.extend_from_slice(name.as_bytes());
        out.push(0);
        out.extend_from_slice(value);
        out
    }
}

/// One ring member.
pub struct ChordNode {
    /// Ring identifier.
    pub id: ChordId,
    /// The node's security principal.
    pub principal: PrincipalId,
    /// Immediate successor on the ring.
    pub successor: ChordId,
    /// Immediate predecessor on the ring.
    pub predecessor: ChordId,
    /// Finger table, one entry per identifier bit.
    pub fingers: Vec<FingerEntry>,
    /// The next `r` successors (replica set).
    pub successor_list: Vec<ChordId>,
    authenticator: Authenticator,
    storage: BTreeMap<ChordId, StoredValue>,
}

impl fmt::Debug for ChordNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChordNode")
            .field("id", &self.id)
            .field("principal", &self.principal)
            .field("successor", &self.successor)
            .field("predecessor", &self.predecessor)
            .field("fingers", &self.fingers.len())
            .field("stored", &self.storage.len())
            .finish()
    }
}

impl ChordNode {
    /// The closest finger preceding `key`, falling back to the node itself.
    fn closest_preceding_node(&self, space: &IdSpace, key: ChordId) -> ChordId {
        for finger in self.fingers.iter().rev() {
            if space.in_open_open(self.id, key, finger.node) {
                return finger.node;
            }
        }
        if space.in_open_open(self.id, key, self.successor) {
            return self.successor;
        }
        self.id
    }
}

/// One hop of an authenticated lookup.
#[derive(Clone, Debug)]
pub struct LookupHop {
    /// The node that handled this step of the lookup.
    pub node: ChordId,
    /// The principal behind that node.
    pub principal: PrincipalId,
    /// Where the node forwarded the lookup (the owner, for the final hop).
    pub forwarded_to: ChordId,
    /// The canonical payload the principal asserted.
    pub payload: Vec<u8>,
    /// `principal says payload`.
    pub assertion: SaysAssertion,
}

impl LookupHop {
    /// The canonical byte string a forwarding node signs for one hop.
    pub fn hop_payload(
        key: ChordId,
        index: usize,
        node: ChordId,
        forwarded_to: ChordId,
    ) -> Vec<u8> {
        format!(
            "chordHop:{:#x}:{index}:{:#x}->{:#x}",
            key.0, node.0, forwarded_to.0
        )
        .into_bytes()
    }
}

/// The authenticated trace of one lookup.
#[derive(Clone, Debug)]
pub struct LookupTrace {
    /// The key that was looked up.
    pub key: ChordId,
    /// The node that issued the lookup.
    pub origin: ChordId,
    /// The node responsible for the key.
    pub owner: ChordId,
    /// Every forwarding step, in order (the final hop is performed by the
    /// owner's predecessor on the lookup path, or by the origin itself).
    pub hops: Vec<LookupHop>,
}

impl LookupTrace {
    /// Number of forwarding steps.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The principals involved in answering this lookup, in path order and
    /// deduplicated.
    pub fn principals(&self) -> Vec<PrincipalId> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for hop in &self.hops {
            if seen.insert(hop.principal) {
                out.push(hop.principal);
            }
        }
        out
    }

    /// A vote-semiring value over the principals on the path, for K-of-N
    /// style trust decisions on the lookup result.
    pub fn vote(&self) -> VoteSet {
        use pasn_provenance::Semiring;
        self.hops
            .iter()
            .map(|h| VoteSet::principal(h.principal.0))
            .fold(VoteSet::one(), |acc, v| acc.times(&v))
    }

    /// Builds the derivation graph of the lookup: each hop derives the next
    /// lookup step from the previous one plus the forwarding node's
    /// membership fact, and the final result is derived from the last step
    /// plus the owner's membership fact.  The membership facts are the base
    /// tuples, asserted by the corresponding principals — the same shape the
    /// engine produces for routing tuples (Figure 2 of the paper).
    ///
    /// The graph is *unauthenticated*; use
    /// [`ChordRing::authenticated_lookup_graph`] when each derivation step
    /// should carry a `says` assertion by the node that performed it
    /// (Section 4.3 of the paper).
    pub fn provenance_graph(&self, owner_principal: PrincipalId) -> DerivationGraph {
        self.provenance_graph_with(owner_principal, |_, _| None)
    }

    /// [`LookupTrace::provenance_graph`] with a caller-supplied signer: for
    /// every derivation, `sign(node, payload)` is asked for the `says`
    /// assertion the executing node makes over the canonical
    /// [`pasn_provenance::derivation_payload`].
    pub fn provenance_graph_with<F>(
        &self,
        owner_principal: PrincipalId,
        mut sign: F,
    ) -> DerivationGraph
    where
        F: FnMut(ChordId, &[u8]) -> Option<SaysAssertion>,
    {
        use pasn_provenance::derivation_payload;
        let mut graph = DerivationGraph::new();
        let key = format!("{:#x}", self.key.0);
        let mut previous: Option<String> = None;
        for (i, hop) in self.hops.iter().enumerate() {
            let location = format!("{:#x}", hop.node.0);
            let member_key = format!("chordNode({:#x})", hop.node.0);
            graph.add_base(
                &member_key,
                &location,
                BaseTupleId(hop.principal.0 as u64),
                Some(hop.principal),
                i as u64,
                None,
            );
            let step_key = format!("lookupStep({key},{i})");
            let mut antecedents = vec![member_key];
            if let Some(prev) = &previous {
                antecedents.push(prev.clone());
            }
            let payload = derivation_payload(&step_key, "ch_forward", &location, &antecedents);
            let assertion = sign(hop.node, &payload);
            graph.add_derivation(NewDerivation {
                head: &step_key,
                head_location: &location,
                rule: "ch_forward",
                rule_location: &location,
                antecedents: &antecedents,
                asserted_by: Some(hop.principal),
                assertion,
                created_at: i as u64,
                expires_at: None,
            });
            previous = Some(step_key);
        }
        let owner_location = format!("{:#x}", self.owner.0);
        let origin_location = format!("{:#x}", self.origin.0);
        let owner_key = format!("chordNode({:#x})", self.owner.0);
        graph.add_base(
            &owner_key,
            &owner_location,
            BaseTupleId(owner_principal.0 as u64),
            Some(owner_principal),
            self.hops.len() as u64,
            None,
        );
        let mut antecedents = vec![owner_key];
        if let Some(prev) = previous {
            antecedents.push(prev);
        }
        let result_key = format!("lookupResult({key},{:#x})", self.owner.0);
        let payload = derivation_payload(&result_key, "ch_result", &origin_location, &antecedents);
        let assertion = sign(self.owner, &payload);
        graph.add_derivation(NewDerivation {
            head: &result_key,
            head_location: &origin_location,
            rule: "ch_result",
            rule_location: &origin_location,
            antecedents: &antecedents,
            asserted_by: Some(owner_principal),
            assertion,
            created_at: self.hops.len() as u64,
            expires_at: None,
        });
        graph
    }
}

/// Result of fetching a value through the DHT.
#[derive(Clone, Debug)]
pub struct GetResult {
    /// The stored value as held by the owner (primary or replica).
    pub value: StoredValue,
    /// The authenticated lookup that located the owner.
    pub trace: LookupTrace,
}

/// A Chord ring in its stabilised state.
pub struct ChordRing {
    space: IdSpace,
    says_level: SaysLevel,
    authority: KeyAuthority,
    nodes: BTreeMap<ChordId, ChordNode>,
    departed: BTreeMap<ChordId, ChordNode>,
    successor_list_len: usize,
}

impl fmt::Debug for ChordRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChordRing")
            .field("nodes", &self.nodes.len())
            .field("bits", &self.space.bits())
            .field("says_level", &self.says_level.name())
            .finish()
    }
}

impl ChordRing {
    /// Builds a stabilised ring per `config`.
    pub fn build(config: ChordConfig) -> Result<Self, ChordError> {
        if config.nodes == 0 {
            return Err(ChordError::EmptyRing);
        }
        // Hops assert individual statements; channel-bound session proofs
        // cannot back them, so refuse the level up front instead of
        // panicking on the first lookup.
        if config.says_level == SaysLevel::Session {
            return Err(ChordError::UnsupportedSaysLevel(config.says_level));
        }
        let space = IdSpace::new(config.bits);
        let principals: Vec<Principal> = (0..config.nodes)
            .map(|i| Principal::new(i, format!("chord{i}")))
            .collect();
        let authority =
            KeyAuthority::provision_with_modulus(&principals, config.seed, config.modulus_bits)
                .map_err(|e| ChordError::KeyProvisioning(format!("{e:?}")))?;

        let mut nodes = BTreeMap::new();
        for principal in &principals {
            let mut id = space.node_id(principal.id);
            // Linear probing on the rare identifier collision keeps every
            // principal on the ring.
            while nodes.contains_key(&id) {
                id = space.add(id, 1);
            }
            let keyring = authority
                .keyring_for(principal.id)
                .ok_or_else(|| ChordError::KeyProvisioning("missing keyring".into()))?;
            nodes.insert(
                id,
                ChordNode {
                    id,
                    principal: principal.id,
                    successor: id,
                    predecessor: id,
                    fingers: Vec::new(),
                    successor_list: Vec::new(),
                    authenticator: Authenticator::new(keyring, config.says_level),
                    storage: BTreeMap::new(),
                },
            );
        }

        let mut ring = ChordRing {
            space,
            says_level: config.says_level,
            authority,
            nodes,
            departed: BTreeMap::new(),
            successor_list_len: config.successor_list_len.max(1),
        };
        ring.stabilize();
        Ok(ring)
    }

    /// The identifier space of the ring.
    pub fn space(&self) -> &IdSpace {
        &self.space
    }

    /// The `says` level in use.
    pub fn says_level(&self) -> SaysLevel {
        self.says_level
    }

    /// The key authority provisioned for the ring members.
    pub fn authority(&self) -> &KeyAuthority {
        &self.authority
    }

    /// Current ring members, in identifier order.
    pub fn node_ids(&self) -> Vec<ChordId> {
        self.nodes.keys().copied().collect()
    }

    /// Number of current members.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the ring has no members (only possible after removing every
    /// node).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A member node.
    pub fn node(&self, id: ChordId) -> Result<&ChordNode, ChordError> {
        self.nodes.get(&id).ok_or(ChordError::UnknownNode(id))
    }

    /// The principal that operates `node`.
    pub fn principal_of(&self, node: ChordId) -> Result<PrincipalId, ChordError> {
        Ok(self.node(node)?.principal)
    }

    /// Ground truth: the ring member responsible for `key` (its successor).
    pub fn successor_of(&self, key: ChordId) -> ChordId {
        match self.nodes.range(key..).next() {
            Some((id, _)) => *id,
            None => *self
                .nodes
                .keys()
                .next()
                .expect("stabilised ring always has at least one member"),
        }
    }

    /// Recomputes every node's successor, predecessor, finger table and
    /// successor list from the current membership — the converged state of
    /// Chord's periodic stabilisation.
    pub fn stabilize(&mut self) {
        let ids: Vec<ChordId> = self.nodes.keys().copied().collect();
        if ids.is_empty() {
            return;
        }
        let n = ids.len();
        let successor_of = |key: ChordId| -> ChordId {
            match ids.binary_search(&key) {
                Ok(i) => ids[i],
                Err(i) => ids[i % n],
            }
        };
        let bits = self.space.bits();
        let space = self.space;
        let list_len = self.successor_list_len.min(n.saturating_sub(1));
        for (pos, id) in ids.iter().enumerate() {
            let successor = ids[(pos + 1) % n];
            let predecessor = ids[(pos + n - 1) % n];
            let fingers = (0..bits)
                .map(|k| {
                    let start = space.finger_start(*id, k);
                    FingerEntry {
                        start,
                        node: successor_of(start),
                    }
                })
                .collect();
            let successor_list = (1..=list_len).map(|i| ids[(pos + i) % n]).collect();
            let node = self.nodes.get_mut(id).expect("id enumerated from the map");
            node.successor = successor;
            node.predecessor = predecessor;
            node.fingers = fingers;
            node.successor_list = successor_list;
        }
    }

    /// Removes a member (node departure / failure).  Its stored values stay
    /// on the replicas; call [`ChordRing::stabilize`] afterwards to repair
    /// the routing state, as Chord's stabilisation protocol would.
    pub fn remove_node(&mut self, id: ChordId) -> Result<(), ChordError> {
        let node = self.nodes.remove(&id).ok_or(ChordError::UnknownNode(id))?;
        self.departed.insert(id, node);
        Ok(())
    }

    /// Re-admits a previously removed member with its old identity and
    /// storage.
    pub fn rejoin_node(&mut self, id: ChordId) -> Result<(), ChordError> {
        let node = self
            .departed
            .remove(&id)
            .ok_or(ChordError::UnknownNode(id))?;
        self.nodes.insert(id, node);
        Ok(())
    }

    /// Performs an iterative, authenticated lookup of `key` starting at
    /// `origin`.  Every forwarding step is asserted by the node that
    /// performed it.
    pub fn lookup(&self, origin: ChordId, key: ChordId) -> Result<LookupTrace, ChordError> {
        let mut current = self.node(origin)?;
        let mut hops = Vec::new();
        loop {
            if hops.len() > self.nodes.len() {
                return Err(ChordError::LookupLoop {
                    key,
                    visited: hops.len(),
                });
            }
            let (forwarded_to, done) =
                if self
                    .space
                    .in_open_closed(current.id, current.successor, key)
                    || current.id == current.successor
                {
                    (current.successor, true)
                } else {
                    let next = current.closest_preceding_node(&self.space, key);
                    if next == current.id {
                        (current.successor, true)
                    } else {
                        (next, false)
                    }
                };
            let payload = LookupHop::hop_payload(key, hops.len(), current.id, forwarded_to);
            let assertion = current.authenticator.assert(&payload);
            hops.push(LookupHop {
                node: current.id,
                principal: current.principal,
                forwarded_to,
                payload,
                assertion,
            });
            if done {
                return Ok(LookupTrace {
                    key,
                    origin,
                    owner: forwarded_to,
                    hops,
                });
            }
            current = self.node(forwarded_to)?;
        }
    }

    /// Verifies an authenticated lookup trace: every hop's `says` assertion
    /// must check out against its payload, the payloads must encode the hop
    /// chain consistently, and the chain must end at the claimed owner.
    pub fn verify_lookup(&self, trace: &LookupTrace) -> Result<(), ChordError> {
        if trace.hops.is_empty() {
            return Err(ChordError::InvalidLookup("empty hop chain".into()));
        }
        // Any member can verify: the key directory is shared.  Prefer the
        // origin's view when it is still a member.
        let verifier = match self
            .nodes
            .get(&trace.origin)
            .or_else(|| self.nodes.values().next())
        {
            Some(node) => &node.authenticator,
            None => return Err(ChordError::EmptyRing),
        };
        let mut expected_node = trace.hops[0].node;
        if expected_node != trace.origin {
            return Err(ChordError::InvalidLookup(format!(
                "lookup claims to originate at {} but the first hop was performed by {}",
                trace.origin, expected_node
            )));
        }
        for (i, hop) in trace.hops.iter().enumerate() {
            if hop.node != expected_node {
                return Err(ChordError::InvalidLookup(format!(
                    "hop {i} was performed by {} but the previous hop forwarded to {}",
                    hop.node, expected_node
                )));
            }
            let expected_payload = LookupHop::hop_payload(trace.key, i, hop.node, hop.forwarded_to);
            if expected_payload != hop.payload {
                return Err(ChordError::InvalidLookup(format!(
                    "hop {i} payload does not match its claimed key/route"
                )));
            }
            if hop.assertion.principal != hop.principal {
                return Err(ChordError::InvalidLookup(format!(
                    "hop {i} assertion was made by {} instead of {}",
                    hop.assertion.principal, hop.principal
                )));
            }
            verifier
                .verify_at_level(&hop.payload, &hop.assertion, self.says_level)
                .map_err(|e| ChordError::InvalidLookup(format!("hop {i}: {e}")))?;
            expected_node = hop.forwarded_to;
        }
        if expected_node != trace.owner {
            return Err(ChordError::InvalidLookup(format!(
                "hop chain ends at {} but the trace claims owner {}",
                expected_node, trace.owner
            )));
        }
        Ok(())
    }

    /// Builds the *authenticated* provenance graph of a lookup: each
    /// derivation step carries a `says` assertion, over the canonical
    /// derivation payload, by the node that executed it — the authenticated
    /// provenance of Section 4.3 applied to overlay routing.
    pub fn authenticated_lookup_graph(
        &self,
        trace: &LookupTrace,
    ) -> Result<DerivationGraph, ChordError> {
        let owner_principal = self.principal_of(trace.owner)?;
        Ok(
            trace.provenance_graph_with(owner_principal, |node, payload| {
                self.nodes
                    .get(&node)
                    .map(|n| n.authenticator.assert(payload))
            }),
        )
    }

    /// Stores `value` under `name`: the inserting node signs the value, the
    /// key's owner stores the primary copy and each member of the owner's
    /// successor list stores a replica.  Returns the lookup trace used to
    /// locate the owner.
    pub fn put(
        &mut self,
        origin: ChordId,
        name: &str,
        value: &[u8],
    ) -> Result<LookupTrace, ChordError> {
        let key = self.space.key_id(name);
        let trace = self.lookup(origin, key)?;
        let inserter = self.node(origin)?;
        let payload = StoredValue::payload(name, value);
        let stored = StoredValue {
            name: name.to_string(),
            value: value.to_vec(),
            inserted_by: inserter.principal,
            assertion: inserter.authenticator.assert(&payload),
        };
        let owner = trace.owner;
        let replicas: Vec<ChordId> = self
            .node(owner)?
            .successor_list
            .iter()
            .copied()
            .filter(|r| *r != owner)
            .collect();
        self.nodes
            .get_mut(&owner)
            .ok_or(ChordError::UnknownNode(owner))?
            .storage
            .insert(key, stored.clone());
        for replica in replicas {
            if let Some(node) = self.nodes.get_mut(&replica) {
                node.storage.insert(key, stored.clone());
            }
        }
        Ok(trace)
    }

    /// Looks up `name` and fetches its value from the owner, falling back to
    /// the owner's replicas if the owner does not hold it (e.g. after a
    /// departure re-mapped the key).  The returned value's signature is
    /// verified before it is handed back.
    pub fn get(&self, origin: ChordId, name: &str) -> Result<GetResult, ChordError> {
        let key = self.space.key_id(name);
        let trace = self.lookup(origin, key)?;
        let owner = self.node(trace.owner)?;
        let mut holders = vec![trace.owner];
        holders.extend(owner.successor_list.iter().copied());
        let stored = holders
            .iter()
            .filter_map(|h| self.nodes.get(h))
            .find_map(|n| n.storage.get(&key))
            .cloned()
            .ok_or_else(|| ChordError::NotFound(name.to_string()))?;
        let payload = StoredValue::payload(&stored.name, &stored.value);
        let verifier = &self.node(origin)?.authenticator;
        verifier
            .verify_at_level(&payload, &stored.assertion, self.says_level)
            .map_err(|e| ChordError::InvalidLookup(format!("stored value: {e}")))?;
        Ok(GetResult {
            value: stored,
            trace,
        })
    }

    /// Average and maximum hop counts over `samples` deterministic lookups,
    /// used by the overlay benchmarks and the O(log N) routing test.
    pub fn lookup_hop_stats(&self, samples: usize) -> Result<(f64, usize), ChordError> {
        if self.nodes.is_empty() {
            return Err(ChordError::EmptyRing);
        }
        let origins = self.node_ids();
        let mut total = 0usize;
        let mut max = 0usize;
        for i in 0..samples {
            let origin = origins[i % origins.len()];
            let key = self.space.key_id(&format!("sample-key-{i}"));
            let trace = self.lookup(origin, key)?;
            total += trace.hop_count();
            max = max.max(trace.hop_count());
        }
        Ok((total as f64 / samples.max(1) as f64, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ring(nodes: u32, level: SaysLevel) -> ChordRing {
        ChordRing::build(ChordConfig {
            nodes,
            bits: 16,
            says_level: level,
            modulus_bits: 512,
            seed: 11,
            successor_list_len: 2,
        })
        .unwrap()
    }

    #[test]
    fn build_rejects_an_empty_ring() {
        let err = ChordRing::build(ChordConfig {
            nodes: 0,
            ..ChordConfig::default()
        })
        .unwrap_err();
        assert_eq!(err, ChordError::EmptyRing);
        // Session-level says is channel-bound and cannot back per-hop
        // assertions: refused at build time, not a panic mid-lookup.
        assert_eq!(
            ChordRing::build(ChordConfig {
                says_level: SaysLevel::Session,
                ..ChordConfig::default()
            })
            .unwrap_err(),
            ChordError::UnsupportedSaysLevel(SaysLevel::Session)
        );
    }

    #[test]
    fn ring_pointers_are_consistent_after_build() {
        let ring = small_ring(12, SaysLevel::Cleartext);
        let ids = ring.node_ids();
        assert_eq!(ids.len(), 12);
        for (i, id) in ids.iter().enumerate() {
            let node = ring.node(*id).unwrap();
            assert_eq!(node.successor, ids[(i + 1) % ids.len()]);
            assert_eq!(node.predecessor, ids[(i + ids.len() - 1) % ids.len()]);
            assert_eq!(node.fingers.len(), 16);
            assert_eq!(node.successor_list.len(), 2);
            // Every finger points at the true successor of its start.
            for finger in &node.fingers {
                assert_eq!(finger.node, ring.successor_of(finger.start));
            }
        }
    }

    #[test]
    fn lookup_finds_the_true_successor_from_every_origin() {
        let ring = small_ring(10, SaysLevel::Cleartext);
        for origin in ring.node_ids() {
            for i in 0..20 {
                let key = ring.space().key_id(&format!("k{i}"));
                let trace = ring.lookup(origin, key).unwrap();
                assert_eq!(
                    trace.owner,
                    ring.successor_of(key),
                    "origin {origin} key k{i}"
                );
                assert_eq!(trace.origin, origin);
                assert!(trace.hop_count() >= 1);
            }
        }
    }

    #[test]
    fn lookup_hops_stay_logarithmic() {
        let ring = small_ring(32, SaysLevel::Cleartext);
        let (avg, max) = ring.lookup_hop_stats(64).unwrap();
        // 2 * log2(32) = 10 is a generous bound for a stabilised ring.
        assert!(max <= 10, "max hops {max}");
        assert!(avg <= 6.0, "avg hops {avg}");
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let ring = small_ring(1, SaysLevel::Cleartext);
        let only = ring.node_ids()[0];
        let key = ring.space().key_id("anything");
        let trace = ring.lookup(only, key).unwrap();
        assert_eq!(trace.owner, only);
        assert_eq!(trace.hop_count(), 1);
        assert!(ring.verify_lookup(&trace).is_ok());
    }

    #[test]
    fn hmac_lookups_verify_and_tampering_is_detected() {
        let ring = small_ring(8, SaysLevel::Hmac);
        let origin = ring.node_ids()[0];
        let key = ring.space().key_id("document-42");
        let trace = ring.lookup(origin, key).unwrap();
        assert!(ring.verify_lookup(&trace).is_ok());

        // Tamper with the claimed route of an intermediate hop.
        let mut tampered = trace.clone();
        let last = tampered.hops.len() - 1;
        tampered.hops[last].forwarded_to = ring.node_ids()[1];
        assert!(matches!(
            ring.verify_lookup(&tampered),
            Err(ChordError::InvalidLookup(_))
        ));

        // Tamper with the payload (claim a different key was routed).
        let mut tampered = trace.clone();
        tampered.hops[0].payload = LookupHop::hop_payload(
            ring.space().key_id("other"),
            0,
            tampered.hops[0].node,
            tampered.hops[0].forwarded_to,
        );
        assert!(ring.verify_lookup(&tampered).is_err());

        // Claim the lookup was issued by a different origin.
        let mut tampered = trace.clone();
        tampered.origin = ring.node_ids()[2];
        assert!(ring.verify_lookup(&tampered).is_err());

        // Claim a different owner than the chain ends at.
        let mut tampered = trace;
        tampered.owner = origin;
        assert!(ring.verify_lookup(&tampered).is_err());
    }

    #[test]
    fn rsa_lookups_verify_end_to_end() {
        let ring = ChordRing::build(ChordConfig {
            nodes: 4,
            bits: 16,
            says_level: SaysLevel::Rsa,
            modulus_bits: 512,
            seed: 3,
            successor_list_len: 1,
        })
        .unwrap();
        let origin = ring.node_ids()[2];
        let key = ring.space().key_id("rsa-protected");
        let trace = ring.lookup(origin, key).unwrap();
        assert!(ring.verify_lookup(&trace).is_ok());
        // A forged assertion principal is rejected.
        let mut forged = trace.clone();
        forged.hops[0].assertion.principal = PrincipalId(999);
        assert!(ring.verify_lookup(&forged).is_err());
    }

    #[test]
    fn put_and_get_round_trip_with_replication() {
        let mut ring = small_ring(8, SaysLevel::Hmac);
        let origin = ring.node_ids()[3];
        ring.put(origin, "alice.txt", b"hello provenance").unwrap();
        let fetched = ring.get(ring.node_ids()[5], "alice.txt").unwrap();
        assert_eq!(fetched.value.value, b"hello provenance");
        assert_eq!(
            fetched.value.inserted_by,
            ring.principal_of(origin).unwrap()
        );
        // The primary owner plus its successor-list replicas hold the value.
        let key = ring.space().key_id("alice.txt");
        let owner = ring.successor_of(key);
        assert!(ring.node(owner).unwrap().storage.contains_key(&key));
        let holders = ring
            .node_ids()
            .into_iter()
            .filter(|id| ring.node(*id).unwrap().storage.contains_key(&key))
            .count();
        assert!(holders >= 2, "expected replicas, got {holders} holder(s)");
    }

    #[test]
    fn get_survives_owner_departure_via_replicas() {
        let mut ring = small_ring(8, SaysLevel::Cleartext);
        let origin = ring.node_ids()[0];
        ring.put(origin, "resilient", b"still here").unwrap();
        let key = ring.space().key_id("resilient");
        let owner = ring.successor_of(key);
        let querier = ring.node_ids().into_iter().find(|id| *id != owner).unwrap();
        ring.remove_node(owner).unwrap();
        ring.stabilize();
        let fetched = ring.get(querier, "resilient").unwrap();
        assert_eq!(fetched.value.value, b"still here");
    }

    #[test]
    fn missing_value_and_unknown_node_are_reported() {
        let mut ring = small_ring(4, SaysLevel::Cleartext);
        let origin = ring.node_ids()[0];
        assert!(matches!(
            ring.get(origin, "never-stored"),
            Err(ChordError::NotFound(_))
        ));
        assert!(matches!(
            ring.lookup(ChordId(0xdead_beef), ChordId(1)),
            Err(ChordError::UnknownNode(_))
        ));
        let gone = ring.node_ids()[1];
        ring.remove_node(gone).unwrap();
        assert!(matches!(
            ring.rejoin_node(ChordId(42)),
            Err(ChordError::UnknownNode(_))
        ));
        ring.rejoin_node(gone).unwrap();
        assert_eq!(ring.len(), 4);
    }

    #[test]
    fn departure_and_rejoin_keep_lookups_correct() {
        let mut ring = small_ring(12, SaysLevel::Cleartext);
        let victim = ring.node_ids()[6];
        ring.remove_node(victim).unwrap();
        ring.stabilize();
        assert_eq!(ring.len(), 11);
        for i in 0..12 {
            let key = ring.space().key_id(&format!("churn-{i}"));
            let origin = ring.node_ids()[i % ring.len()];
            let trace = ring.lookup(origin, key).unwrap();
            assert_eq!(trace.owner, ring.successor_of(key));
        }
        ring.rejoin_node(victim).unwrap();
        ring.stabilize();
        assert_eq!(ring.len(), 12);
        let key = ring.space().key_id("after-rejoin");
        let trace = ring.lookup(victim, key).unwrap();
        assert_eq!(trace.owner, ring.successor_of(key));
    }

    #[test]
    fn lookup_provenance_graph_matches_the_hop_chain() {
        let ring = small_ring(10, SaysLevel::Hmac);
        let origin = ring.node_ids()[1];
        let key = ring.space().key_id("graph-me");
        let trace = ring.lookup(origin, key).unwrap();
        let graph = ring.authenticated_lookup_graph(&trace).unwrap();

        // One membership base per distinct node on the path (plus the owner),
        // one lookupStep per hop, one lookupResult.
        let result_key = format!("lookupResult({:#x},{:#x})", key.0, trace.owner.0);
        let result = graph.find(&result_key).expect("result node exists");
        let why = graph.why_provenance(result);
        assert!(!why.witnesses().is_empty());
        // The rendered tree names the rule used at every hop.
        let rendered = graph.render_tree(result);
        assert!(rendered.contains("ch_forward") || trace.hop_count() == 1);
        assert!(rendered.contains("ch_result"));

        // Authenticated provenance: every derivation assertion verifies with
        // the ring's keys.
        let verifier = ring.node(origin).unwrap();
        let failures = graph.verify_assertions(result, false, |principal, payload, assertion| {
            assert_eq!(principal, assertion.principal);
            verifier
                .authenticator
                .verify_at_level(payload, assertion, ring.says_level())
                .is_ok()
        });
        assert!(failures.is_empty(), "failures: {failures:?}");

        // The vote over the lookup path counts each principal once.
        let vote = trace.vote();
        assert_eq!(vote.count(), trace.principals().len());
        assert!(vote.satisfies_threshold(1));
    }

    #[test]
    fn ring_is_deterministic_for_a_seed() {
        let a = small_ring(8, SaysLevel::Cleartext);
        let b = small_ring(8, SaysLevel::Cleartext);
        assert_eq!(a.node_ids(), b.node_ids());
        let key = a.space().key_id("same");
        assert_eq!(a.successor_of(key), b.successor_of(key));
    }
}
