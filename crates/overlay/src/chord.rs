//! Secure Chord routing as seven SeNDlog rules on the engine: a lookup's path
//! is the authenticated provenance of an `owner` tuple.
//!
//! [`pasn::programs::CHORD`] is the protocol; this module is what surrounds
//! it.  [`Ring`] hashes members onto the identifier circle and turns the
//! *stabilised* ring into locations (node `i` is `Value::Addr(i)`) and base
//! facts (`node`, `succ`, one `finger` per distinct finger node, carrying the
//! arc it covers); [`get`] and [`put`] are the request facts; a
//! [`ChordDeployment`] reads typed answers out of the fixpoint.  Signing,
//! verification, session channels, batching, tags, graphs, deletion and
//! tracing are the engine's, chosen by the ordinary `EngineConfig` given to
//! [`Ring::deploy`] (a path is read off a condensed tag, so it wants
//! `ProvenanceKind::Condensed`).
//!
//! Membership change is churn events.  [`Ring::leave`] and [`Ring::rejoin`]
//! re-stabilise by reconciling two logs of base facts — the routing state
//! before and after — and emit only the difference: a leaver's routing facts
//! are retracted and the node `NodeFail`s (its requests die with it, its
//! channels are evicted), a rejoiner `NodeRejoin`s (its requests come back)
//! and gets the routing facts of the ring it returns to, and every survivor's
//! changed `succ` / `finger` rows are retracted and re-asserted.  Standing
//! lookups are re-routed by the deletion ledger; nothing here re-issues them.
//! The events come retractions first, then the membership events, then the
//! assertions.  Scheduled at one instant they leave from-scratch's rows; the
//! tags are from-scratch's too when the assertions land after the withdrawal
//! wave has drained — a tag is a snapshot taken when a rule fires, and a row
//! the old and the new route both reach is read under whichever came first.
//!
//! That is also the whole of replication.  Under a standing `put` fact the
//! owner's departure withdraws `stored` there and re-derives it at the key's
//! new owner — that *is* the repair — and a replica derived from `stored`
//! could never outlive it, so there is no successor list and no `replica`
//! rule.  What the rules do not do: a value dies with its inserter's `put`
//! (the inserter is soft state's refresher), and nothing stabilises
//! periodically — no periodic rules in this front-end; the builder computes
//! the converged ring.

use crate::id::IdSpace;
use crate::{insert, retract};
use pasn::prelude::{ChurnEvent, EngineConfig, ProvTag, SecureNetwork, Tuple, Value};
use pasn::{programs, TrustEvaluator};
use std::collections::BTreeSet;
use std::fmt;

/// Errors raised while building the ring, changing its membership or
/// reading answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChordError {
    /// The ring must contain at least one node.
    EmptyRing,
    /// The node is not a member (to leave) or not a departed one (to rejoin).
    UnknownNode(u32),
    /// The engine refused the deployment or a request.
    Engine(String),
    /// The reader holds no `value` row for the key.
    NotFound(u64),
}

impl fmt::Display for ChordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChordError::EmptyRing => write!(f, "a chord ring needs at least one node"),
            ChordError::UnknownNode(n) => write!(f, "node {n} cannot leave or rejoin the ring now"),
            ChordError::Engine(e) => write!(f, "deployment failed: {e}"),
            ChordError::NotFound(key) => write!(f, "no value fetched for key {key:#x}"),
        }
    }
}

impl std::error::Error for ChordError {}

/// Size of a [`Ring`]; everything else is the `EngineConfig` of the deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChordConfig {
    /// Number of nodes, all members at first.
    pub nodes: u32,
    /// Identifier bits (the `m` of Chord).
    pub bits: u32,
}

fn int(id: u64) -> Value {
    Value::Int(id as i64)
}

/// `origin` asks for the value stored under `key` (and so looks `key` up).
pub fn get(origin: u32, key: u64) -> (Value, Tuple) {
    let values = vec![Value::Addr(origin), int(key)];
    (Value::Addr(origin), Tuple::new("get", values))
}

/// `origin` stores `value` under `key` for as long as the fact stands.
pub fn put(origin: u32, key: u64, value: &str) -> (Value, Tuple) {
    let values = vec![Value::Addr(origin), int(key), Value::Str(value.into())];
    (Value::Addr(origin), Tuple::new("put", values))
}

/// A stabilised Chord ring: who is a member, and the base facts that follow.
#[derive(Clone, Debug)]
pub struct Ring {
    space: IdSpace,
    /// Ring identifier of every node, member or not, by node number.
    ids: Vec<u64>,
    /// Current members in identifier order.
    members: Vec<u32>,
}

impl Ring {
    /// Places `config.nodes` nodes on the ring, all members.
    pub fn build(config: ChordConfig) -> Result<Self, ChordError> {
        if config.nodes == 0 {
            return Err(ChordError::EmptyRing);
        }
        let space = IdSpace::new(config.bits);
        let mut ids: Vec<u64> = Vec::new();
        for node in 0..config.nodes {
            // Linear probing on the rare collision keeps every node on the ring.
            let mut id = space.node_id(node);
            while ids.contains(&id) {
                id = (id + 1) % space.size();
            }
            ids.push(id);
        }
        let mut members: Vec<u32> = (0..config.nodes).collect();
        members.sort_by_key(|&node| ids[node as usize]);
        Ok(Ring {
            space,
            ids,
            members,
        })
    }

    /// The identifier space of the ring.
    pub fn space(&self) -> &IdSpace {
        &self.space
    }

    /// Current members, in identifier order.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// The ring identifier of `node`.
    pub fn id_of(&self, node: u32) -> u64 {
        self.ids[node as usize]
    }

    /// Ground truth: the member responsible for `key`, the first at or after
    /// it in identifier order.
    pub fn successor_of(&self, key: u64) -> u32 {
        let at = self.members.partition_point(|&m| self.id_of(m) < key);
        self.members[at % self.members.len()]
    }

    /// The routing facts member `node` asserts: `node(N,I,M)`, `succ(N,S,SI)`
    /// and one `finger(N,F,FI,NI)` per distinct finger node, sorted by
    /// clockwise distance, `NI` the next one's identifier (the last wraps to `I`).
    pub fn routing_facts(&self, node: u32) -> Vec<(Value, Tuple)> {
        let (at, id) = (Value::Addr(node), self.id_of(node));
        let fact = |name: &str, values: Vec<Value>| (at.clone(), Tuple::new(name, values));
        let entry = |name: &str, to: u32, rest: Option<u64>| {
            let values = [at.clone(), Value::Addr(to), int(self.id_of(to))];
            fact(name, values.into_iter().chain(rest.map(int)).collect())
        };
        let starts = (0..self.space.bits()).map(|k| (id + (1 << k)) % self.space.size());
        let fingers: BTreeSet<u32> = starts.map(|start| self.successor_of(start)).collect();
        let mut fingers: Vec<u32> = fingers.into_iter().filter(|&f| f != node).collect();
        fingers.sort_by_key(|&f| self.space.distance(id, self.id_of(f)));
        let next_ids = fingers.iter().skip(1).map(|&f| self.id_of(f)).chain([id]);
        // The closest finger is the successor; a node alone is its own.
        let successor = fingers.first().copied().unwrap_or(node);
        let mut facts = vec![
            fact("node", vec![at.clone(), int(id), int(self.space.size())]),
            entry("succ", successor, None),
        ];
        let arcs = fingers.iter().zip(next_ids);
        facts.extend(arcs.map(|(&f, next)| entry("finger", f, Some(next))));
        facts
    }

    /// Members `nodes` depart: the churn events that re-stabilise the ring.
    pub fn leave(&mut self, nodes: &[u32]) -> Result<Vec<ChurnEvent>, ChordError> {
        let unknown = nodes.iter().find(|n| !self.members.contains(n));
        if let Some(&node) = unknown {
            return Err(ChordError::UnknownNode(node));
        } else if nodes.len() >= self.members.len() {
            return Err(ChordError::EmptyRing);
        }
        let staying = |m: &u32| !nodes.contains(m);
        let members = self.members.iter().copied().filter(staying).collect();
        let fail = |&node: &u32| ChurnEvent::NodeFail {
            node: Value::Addr(node),
        };
        Ok(self.restabilise(members, nodes.iter().map(fail).collect()))
    }

    /// Departed `nodes` return: the churn events that re-stabilise the ring.
    pub fn rejoin(&mut self, nodes: &[u32]) -> Result<Vec<ChurnEvent>, ChordError> {
        let member = |n: &u32| *n as usize >= self.ids.len() || self.members.contains(n);
        if let Some(&node) = nodes.iter().find(|n| member(n)) {
            return Err(ChordError::UnknownNode(node));
        }
        let mut members: Vec<u32> = self.members.iter().chain(nodes).copied().collect();
        members.sort_by_key(|&node| self.id_of(node));
        members.dedup();
        let rejoin = |&node: &u32| ChurnEvent::NodeRejoin {
            node: Value::Addr(node),
        };
        Ok(self.restabilise(members, nodes.iter().map(rejoin).collect()))
    }

    /// Swaps the membership and reconciles the two logs of routing facts:
    /// retractions of what no longer holds, then the membership events
    /// (`NodeFail` remembers — and `NodeRejoin` restores — only what is left,
    /// the node's requests), then what holds now and did not before.
    fn restabilise(&mut self, members: Vec<u32>, membership: Vec<ChurnEvent>) -> Vec<ChurnEvent> {
        let facts_of = |ring: &Ring, node: u32| match ring.members.contains(&node) {
            true => ring.routing_facts(node),
            false => Vec::new(),
        };
        let before: Vec<_> = (0..self.ids.len() as u32)
            .map(|n| facts_of(self, n))
            .collect();
        self.members = members;
        let mut events = Vec::new();
        let mut inserts = Vec::new();
        for (node, before) in (0..).zip(before) {
            let after = facts_of(self, node);
            let gone = before.iter().filter(|fact| !after.contains(fact));
            events.extend(gone.cloned().map(retract));
            let new = after.iter().filter(|fact| !before.contains(fact));
            inserts.extend(new.cloned().map(insert));
        }
        events.extend(membership);
        events.extend(inserts);
        events
    }

    /// Deploys [`programs::CHORD`] over one node per ring node, the members'
    /// routing facts scheduled at time zero; add requests, then run
    /// [`ChordDeployment::net`].
    pub fn deploy(&self, config: EngineConfig) -> Result<ChordDeployment, ChordError> {
        let built = SecureNetwork::builder()
            .program(programs::chord())
            .locations((0..self.ids.len() as u32).map(Value::Addr).collect())
            .config(config)
            .build();
        let net = built.map_err(|e| ChordError::Engine(e.to_string()))?;
        let ring = self.clone();
        let mut dht = ChordDeployment { net, ring };
        let members = self.members.iter();
        for fact in members.flat_map(|&node| self.routing_facts(node)) {
            dht.request(fact)?;
        }
        Ok(dht)
    }
}

/// One answered lookup, read off an `owner` tuple at the requester.
#[derive(Clone, Debug, PartialEq)]
pub struct Lookup {
    /// The node answered to be responsible for the key.
    pub owner: u32,
    /// The node that said so: the last hop, named in the row.
    pub said_by: u32,
    /// The principals that forwarded the lookup, requester included — the
    /// support of the tag; its size is the hop count.
    pub path: BTreeSet<u32>,
    /// The tuple's provenance tag.
    pub tag: ProvTag,
}

/// One fetched value, read off a `value` tuple at the reader.
#[derive(Clone, Debug, PartialEq)]
pub struct Fetched {
    /// The stored payload.
    pub value: String,
    /// The node whose `put` the owner says it stores.
    pub inserted_by: u32,
    /// The tuple's provenance tag: the reader's lookup path and the inserter's.
    pub tag: ProvTag,
}

/// [`programs::CHORD`] deployed over a [`Ring`].
pub struct ChordDeployment {
    /// The deployment, to run (`run_scenario`, …), query and inspect.
    pub net: SecureNetwork,
    /// The ring, to re-stabilise ([`Ring::leave`], [`Ring::rejoin`]) in step.
    pub ring: Ring,
}

impl ChordDeployment {
    /// Asserts a request ([`get`], [`put`]) or any other fact at time zero.
    pub fn request(&mut self, (location, tuple): (Value, Tuple)) -> Result<(), ChordError> {
        let inserted = self.net.engine_mut().insert_fact(location, tuple);
        inserted.map_err(|e| ChordError::Engine(e.to_string()))
    }

    /// Every answer `origin` holds for `key`: one on a consistent ring.
    pub fn lookups(&self, origin: u32, key: u64) -> Vec<Lookup> {
        let engine = self.net.engine();
        let trust = TrustEvaluator::new(engine.var_table(), engine.config());
        let rows = engine.query(&Value::Addr(origin), "owner").into_iter();
        let asked = rows.filter(|(t, _)| t.values[1] == int(key));
        let answer = asked.filter_map(|(t, meta)| {
            Some(Lookup {
                owner: t.values[2].as_addr()?,
                said_by: t.values[4].as_addr()?,
                path: trust.origins(&meta.tag),
                tag: meta.tag,
            })
        });
        answer.collect()
    }

    /// The value `reader` fetched for `key`, with the inserter the owner named.
    pub fn value(&self, reader: u32, key: u64) -> Result<Fetched, ChordError> {
        let rows = self.net.engine().query(&Value::Addr(reader), "value");
        let rows = rows.into_iter();
        let mut fetched = rows.filter(|(t, _)| t.values[1] == int(key));
        let (row, meta) = fetched.next().ok_or(ChordError::NotFound(key))?;
        let inserted_by = row.values[3].as_addr().ok_or(ChordError::NotFound(key))?;
        Ok(Fetched {
            value: row.values[2].to_string(),
            inserted_by,
            tag: meta.tag,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(nodes: u32) -> Ring {
        Ring::build(ChordConfig { nodes, bits: 16 }).unwrap()
    }

    #[test]
    fn routing_facts_describe_the_stabilised_ring() {
        let empty = ChordConfig { nodes: 0, bits: 16 };
        assert_eq!(Ring::build(empty).unwrap_err(), ChordError::EmptyRing);
        let twelve = ring(12);
        let members = twelve.members();
        let ids: Vec<u64> = members.iter().map(|&m| twelve.id_of(m)).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        for (at, &node) in members.iter().enumerate() {
            let facts = twelve.routing_facts(node);
            assert!(facts.iter().all(|(at, _)| *at == Value::Addr(node)));
            let next = Value::Addr(members[(at + 1) % members.len()]);
            assert_eq!(facts[1].1.values[1], next, "successor");
            // The fingers start at the successor and their arcs tile the ring:
            // each ends where the next begins, the last at the node itself.
            let fingers: Vec<&Tuple> = facts[2..].iter().map(|(_, t)| t).collect();
            assert_eq!(fingers[0].values[1], next);
            for (finger, after) in fingers.iter().zip(&fingers[1..]) {
                assert_eq!(finger.values[3], after.values[2]);
            }
            assert_eq!(fingers.last().unwrap().values[3], int(ids[at]));
        }
        // One node: its own successor, no finger.
        let alone = ring(1).routing_facts(0);
        assert_eq!((alone.len(), &alone[1].1.values[1]), (2, &Value::Addr(0)));
    }

    #[test]
    fn membership_change_ships_only_the_difference() {
        let mut ring = ring(12);
        let facts = |ring: &Ring| (0..12).map(|n| ring.routing_facts(n)).collect::<Vec<_>>();
        let stable = facts(&ring);
        let victim = ring.members()[6];
        assert_eq!(ring.rejoin(&[victim]), Err(ChordError::UnknownNode(victim)));
        assert_eq!(ring.leave(&[99]), Err(ChordError::UnknownNode(99)));
        let everyone = ring.members().to_vec();
        assert_eq!(ring.leave(&everyone), Err(ChordError::EmptyRing));

        let events = ring.leave(&[victim]).unwrap();
        assert_eq!(ring.members().len(), 11);
        let count = |events: &[ChurnEvent], wanted: fn(&ChurnEvent) -> bool| {
            events.iter().filter(|e| wanted(e)).count()
        };
        assert_eq!(
            count(&events, |e| matches!(e, ChurnEvent::NodeFail { .. })),
            1
        );
        // Every routing fact of the victim goes, and a few of its
        // predecessors' — far fewer than the ring holds.
        let retracted = count(&events, |e| matches!(e, ChurnEvent::Retract { .. }));
        let total: usize = stable.iter().map(Vec::len).sum();
        assert!(stable[victim as usize].len() < retracted && retracted < total / 2);
        assert_eq!(ring.leave(&[victim]), Err(ChordError::UnknownNode(victim)));

        // Rejoining undoes it: the facts it retracted come back, the ones it
        // asserted go, and the routing state is the stable ring's again.
        let back = ring.rejoin(&[victim]).unwrap();
        assert_eq!(
            count(&back, |e| matches!(e, ChurnEvent::NodeRejoin { .. })),
            1
        );
        assert_eq!(
            count(&back, |e| matches!(e, ChurnEvent::Insert { .. })),
            retracted
        );
        assert_eq!(back.len(), events.len());
        assert_eq!(facts(&ring), stable);
    }
}
