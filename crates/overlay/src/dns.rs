//! DNSSEC as six SeNDlog rules on the engine: an answer's chain of trust is
//! the authenticated provenance of a `resolved` tuple.
//!
//! [`pasn::programs::DNSSEC`] is the protocol; this module is what surrounds
//! it.  [`ZoneTree`] validates a hierarchy and turns it into locations (the
//! validating node [`resolver`] plus one node per zone) and base facts
//! (`anchor`, [`dnskey`], [`ds`], [`rr`], `resolver`); [`DnsDeployment`] reads
//! typed answers out of the fixpoint.  Signing, verification, batching, tags,
//! graphs, deletion and tracing are the engine's, chosen by the ordinary
//! `EngineConfig` given to [`ZoneTree::deploy`] (a chain is read off a
//! condensed tag, so it wants `ProvenanceKind::Condensed`).
//!
//! Attacks and rollovers are facts: a substituted key is a `dnskey`
//! fingerprint the parent's `ds` never endorsed, a wrong anchor an `anchor`
//! fingerprint that is not the root's, a rogue record an `rr` (or `answer`)
//! asserted at a node that is not its zone, a rollover [`crate::retract`] /
//! [`crate::insert`] churn events.  Bailiwick is the view's:
//! [`DnsDeployment::resolve`] reads only what the deepest declared zone
//! enclosing the name said.  Forging the bytes of a frame in flight has no
//! engine injection point until ROADMAP item 5's `corrupt_per_mille`; that
//! check stays with `pasn-crypto`'s `says` tests and
//! `tests/session_channels.rs`.

use pasn::prelude::{EngineConfig, ProvTag, SecureNetwork, Tuple, Value};
use pasn::{programs, TrustEvaluator};
use pasn_crypto::sha256::{sha256, to_hex};
use std::{fmt, iter};

/// Errors raised while building the hierarchy or resolving names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DnsError {
    /// A zone was declared twice.
    DuplicateZone(String),
    /// A zone (first) names a parent (second) that does not exist.
    MissingParent(String, String),
    /// A zone (first) is not a dot-separated extension of its parent (second).
    InvalidZoneName(String, String),
    /// The engine refused the deployment (a fact at an undeclared zone, keys).
    Engine(String),
    /// The name's zone said no address record for it.
    NameNotFound(String),
    /// The name's answer is stored, but no `Z says answer(Z,…)` unified with it.
    NotSaidByItsZone(String),
    /// The key the root says does not match the trust anchor.
    UntrustedRoot,
    /// The second zone says a key the first, its parent, did not endorse.
    BrokenChain(String, String),
}

impl fmt::Display for DnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnsError::DuplicateZone(z) => write!(f, "zone {z:?} declared twice"),
            DnsError::MissingParent(z, p) => write!(f, "zone {z:?} has no parent {p:?}"),
            DnsError::InvalidZoneName(z, p) => write!(f, "{z:?} is not a subdomain of {p:?}"),
            DnsError::Engine(e) => write!(f, "deployment failed: {e}"),
            DnsError::NameNotFound(n) => write!(f, "name {n:?} has no address record"),
            DnsError::NotSaidByItsZone(n) => write!(f, "{n:?} was not said by its zone"),
            DnsError::UntrustedRoot => write!(f, "root key does not match the trust anchor"),
            DnsError::BrokenChain(p, c) => write!(f, "{c:?} says a key {p:?} did not endorse"),
        }
    }
}

impl std::error::Error for DnsError {}

fn node(zone: &str) -> Value {
    Value::Str(zone.into())
}

/// The validating node's location (zones are strings, so no zone is it).
pub fn resolver() -> Value {
    Value::Addr(0)
}

/// DNSKEY: `zone` publishes the key with this fingerprint.
pub fn dnskey(zone: &str, fingerprint: &str) -> (Value, Tuple) {
    let values = [zone, fingerprint].map(node);
    (node(zone), Tuple::new("dnskey", Vec::from(values)))
}

/// DS: `parent` endorses `child`'s key fingerprint.
pub fn ds(parent: &str, child: &str, fingerprint: &str) -> (Value, Tuple) {
    let values = [parent, child, fingerprint].map(node);
    (node(parent), Tuple::new("ds", Vec::from(values)))
}

/// A record of `zone` for `owner`, asserted at `said_by` (the zone, unless rogue).
pub fn rr(said_by: &str, zone: &str, owner: &str, data: Value) -> (Value, Tuple) {
    let values = vec![node(zone), node(owner), data];
    (node(said_by), Tuple::new("rr", values))
}

/// The fingerprint of nothing that signs: cleartext zones, substituted keys.
fn name_fingerprint(name: &str) -> String {
    to_hex(&sha256(name.as_bytes()))
}

fn is_subdomain(child: &str, parent: &str) -> bool {
    if parent == "." {
        return child != "." && !child.is_empty();
    }
    let label_end = child.len().saturating_sub(parent.len());
    label_end > 0 && child.ends_with(parent) && child[..label_end].ends_with('.')
}

/// A zone hierarchy under the root `"."` and the facts asserted in it.
#[derive(Clone, Debug, Default)]
pub struct ZoneTree {
    /// `(zone, parent)` in declaration order.
    zones: Vec<(String, String)>,
    facts: Vec<(Value, Tuple)>,
    substituted: Vec<String>,
    anchor: Option<String>,
}

impl ZoneTree {
    /// Declares a zone delegated from `parent`.
    pub fn zone(mut self, name: &str, parent: &str) -> Self {
        self.zones.push((name.into(), parent.into()));
        self
    }

    /// Adds a base fact and the node asserting it: a record, or a forgery.
    pub fn fact(mut self, fact: (Value, Tuple)) -> Self {
        self.facts.push(fact);
        self
    }

    /// Adds an address record for `owner` in `zone`.
    pub fn address(self, zone: &str, owner: &str, addr: u32) -> Self {
        self.fact(rr(zone, zone, owner, Value::Int(addr.into())))
    }

    /// Adds a text record for `owner` in `zone`.
    pub fn text(self, zone: &str, owner: &str, text: &str) -> Self {
        self.fact(rr(zone, zone, owner, node(text)))
    }

    /// Attack: `zone` publishes a key its parent never endorsed.
    pub fn substitute_key(mut self, zone: &str) -> Self {
        self.substituted.push(zone.into());
        self
    }

    /// Attack: the validating node anchors at this fingerprint, not the root's.
    pub fn anchor_at(mut self, fingerprint: &str) -> Self {
        self.anchor = Some(fingerprint.into());
        self
    }

    /// Every zone and its parent, the root first.
    fn zones(&self) -> impl Iterator<Item = (&str, Option<&str>)> {
        let root = iter::once((".", None));
        root.chain(self.zones.iter().map(|(z, p)| (&**z, Some(&**p))))
    }

    fn validate(&self) -> Result<(), DnsError> {
        let declared = |name: &str| self.zones().filter(|(z, _)| *z == name).count();
        for (zone, parent) in &self.zones {
            if declared(zone) > 1 {
                return Err(DnsError::DuplicateZone(zone.clone()));
            } else if declared(parent) == 0 {
                return Err(DnsError::MissingParent(zone.clone(), parent.clone()));
            } else if !is_subdomain(zone, parent) {
                return Err(DnsError::InvalidZoneName(zone.clone(), parent.clone()));
            }
        }
        Ok(())
    }

    /// The zones from the root to the deepest declared one enclosing `name`.
    pub(crate) fn delegation_chain(&self, name: &str) -> Vec<&str> {
        let mut chain = vec!["."];
        loop {
            let children = self.zones.iter().filter(|(z, p)| {
                Some(&p.as_str()) == chain.last() && (name == z || is_subdomain(name, z))
            });
            match children.max_by_key(|(z, _)| z.len()) {
                Some((zone, _)) => chain.push(zone),
                None => return chain,
            }
        }
    }

    /// Deploys [`programs::DNSSEC`] over the validating node and one node per
    /// zone, the tree's facts scheduled at time zero; run [`DnsDeployment::net`].
    pub fn deploy(&self, config: EngineConfig) -> Result<DnsDeployment, DnsError> {
        self.validate()?;
        let engine_error = |e: &dyn fmt::Display| DnsError::Engine(e.to_string());
        let locations = iter::once(resolver()).chain(self.zones().map(|(z, _)| node(z)));
        let built = SecureNetwork::builder()
            .program(programs::dnssec())
            .locations(locations.collect())
            .config(config)
            .build();
        let net = built.map_err(|e| engine_error(&e))?;
        let tree = self.clone();
        let mut dns = DnsDeployment { net, tree };
        let anchored = self.anchor.clone().unwrap_or_else(|| dns.fingerprint("."));
        let anchor = vec![resolver(), node("."), node(&anchored)];
        let mut facts = vec![(resolver(), Tuple::new("anchor", anchor))];
        for (zone, parent) in self.zones() {
            let serves = Tuple::new("resolver", vec![node(zone), resolver()]);
            let endorsed = dns.fingerprint(zone);
            let substituted = self.substituted.iter().any(|z| z == zone);
            let published = substituted.then(|| name_fingerprint(&format!("rogue {zone}")));
            facts.push(dnskey(zone, published.as_ref().unwrap_or(&endorsed)));
            facts.extend(parent.map(|parent| ds(parent, zone, &endorsed)));
            facts.push((node(zone), serves));
        }
        for (location, tuple) in facts.into_iter().chain(self.facts.clone()) {
            let inserted = dns.net.engine_mut().insert_fact(location, tuple);
            inserted.map_err(|e| engine_error(&e))?;
        }
        Ok(dns)
    }
}

/// A validated answer, read off a `resolved` tuple at the validating node.
#[derive(Clone, Debug, PartialEq)]
pub struct Resolution {
    /// The resolved address.
    pub address: u32,
    /// The zones the answer depends on, root first.
    pub chain: Vec<String>,
    /// The tuple's provenance tag: the validating node × the chain's zones.
    pub tag: ProvTag,
}

/// [`programs::DNSSEC`] deployed over a [`ZoneTree`].
pub struct DnsDeployment {
    /// The deployment, to run (`run_scenario`, …), query and inspect.
    pub net: SecureNetwork,
    tree: ZoneTree,
}

impl DnsDeployment {
    /// The principal operating `zone` (the validating node is principal 0).
    pub fn principal_of(&self, zone: &str) -> Option<pasn_crypto::PrincipalId> {
        self.net.engine().principal_of(&node(zone))
    }

    /// What `zone`'s parent endorses: the fingerprint of its frame-signing key.
    pub fn fingerprint(&self, zone: &str) -> String {
        let key = self.net.engine().public_key_of(&node(zone));
        key.map_or_else(|| name_fingerprint(zone), |key| to_hex(&key.fingerprint()))
    }

    /// The validated address of `name`, or the link its chain of trust lacks.
    pub fn resolve(&self, name: &str) -> Result<Resolution, DnsError> {
        let chain = self.tree.delegation_chain(name);
        let zone = chain[chain.len() - 1];
        let rows = |predicate: &str| self.net.query(&resolver(), predicate).into_iter();
        let address = |t: &Tuple| t.values[2].as_int().and_then(|a| u32::try_from(a).ok());
        let said = |t: &Tuple| t.values[..2] == [node(zone), node(name)];
        let answer = rows("answer").find_map(|(t, _)| address(&t).filter(|_| said(&t)));
        let address = answer.ok_or_else(|| DnsError::NameNotFound(name.to_string()))?;
        let trusts = |zone: &str| rows("trusted").any(|(t, _)| t.values[1] == node(zone));
        if !trusts(".") {
            return Err(DnsError::UntrustedRoot);
        } else if let Some(link) = chain.windows(2).find(|link| !trusts(link[1])) {
            return Err(DnsError::BrokenChain(link[0].into(), link[1].into()));
        }
        let said = [node(name), Value::Int(address.into())];
        let resolved = rows("resolved").find(|(t, _)| t.values[1..] == said);
        let (_, meta) = resolved.ok_or_else(|| DnsError::NotSaidByItsZone(name.to_string()))?;
        let trust = TrustEvaluator::new(self.net.var_table(), self.net.engine().config());
        let locations = self.net.engine().locations();
        let zones = trust.origins(&meta.tag).into_iter().filter(|p| *p != 0);
        let mut chain: Vec<String> = zones.map(|p| locations[p as usize].to_string()).collect();
        chain.sort_by_key(|z| (z != ".", z.len()));
        Ok(Resolution {
            address,
            chain,
            tag: meta.tag,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_the_zone_tree() {
        let refused = |tree: ZoneTree| tree.deploy(EngineConfig::ndlog()).err().unwrap();
        let twice = ZoneTree::default().zone("org", ".").zone("org", ".");
        assert_eq!(refused(twice), DnsError::DuplicateZone("org".into()));
        let orphan = ZoneTree::default().zone("example.org", "org");
        assert!(matches!(refused(orphan), DnsError::MissingParent(..)));
        let unrelated = ZoneTree::default().zone("org", ".").zone("b.net", "org");
        assert!(matches!(refused(unrelated), DnsError::InvalidZoneName(..)));
        let stray = ZoneTree::default().address("nonexistent", "www.nonexistent", 1);
        assert!(matches!(refused(stray), DnsError::Engine(_)));
    }

    #[test]
    fn delegation_chain_prefers_the_deepest_matching_zone() {
        let tree = ZoneTree::default().zone("org", ".").zone("net", ".");
        let tree = tree.zone("example.org", "org");
        let tree = tree.zone("cs.example.org", "example.org");
        let chain = tree.delegation_chain("x.cs.example.org");
        assert_eq!(chain, [".", "org", "example.org", "cs.example.org"]);
        assert_eq!(tree.delegation_chain("unrelated.test"), ["."]);
        assert!(is_subdomain("org", ".") && is_subdomain("a.b.example.org", "example.org"));
        for child in ["notorg", "org", ".", "example.net"] {
            assert!(!is_subdomain(child, "org") && !is_subdomain(".", child));
        }
    }
}
