//! A DNSSEC-style secure name hierarchy whose chain of trust is
//! authenticated provenance.
//!
//! The paper's future work lists DNSSEC alongside secure Chord as a network
//! to specify on the provenance-aware stack.  The essence of DNSSEC maps
//! directly onto the paper's vocabulary: every resource record is a tuple
//! *asserted* (`says`-signed) by the zone principal that owns it, a
//! delegation is a derivation whose antecedents are the parent's signed DS
//! endorsement of the child's key, and a validated answer is a derivation
//! tree rooted at the resolver's trust anchor.  Verifying a resolution is
//! therefore exactly the *authenticated provenance* check of Section 4.3,
//! and the set of zone principals a resolution depends on is its condensed
//! provenance, over which the resolver can enforce trust policies.
//!
//! The module keeps the record model deliberately small (addresses,
//! delegations with key fingerprints, and text records) — enough to exercise
//! multi-level delegation, signature verification, and broken-chain
//! detection without reproducing the full DNS wire protocol.

use pasn_crypto::sha256::{to_hex, Digest};
use pasn_crypto::{Authenticator, SaysError};
use pasn_crypto::{KeyAuthority, Principal, PrincipalId, RsaPublicKey, SaysAssertion, SaysLevel};
use pasn_provenance::{BaseTupleId, DerivationGraph, NewDerivation, VoteSet};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Errors raised while building the hierarchy or resolving names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DnsError {
    /// A zone was declared twice.
    DuplicateZone(String),
    /// A zone's declared parent does not exist.
    MissingParent {
        /// The zone being attached.
        zone: String,
        /// The parent it referenced.
        parent: String,
    },
    /// A zone name is not a dot-separated suffix extension of its parent.
    InvalidZoneName {
        /// The offending zone.
        zone: String,
        /// Its declared parent.
        parent: String,
    },
    /// Key provisioning failed.
    KeyProvisioning(String),
    /// The referenced zone does not exist.
    UnknownZone(String),
    /// No zone in the hierarchy is authoritative for the queried name.
    NoAuthority(String),
    /// The queried name has no address record in its authoritative zone.
    NameNotFound(String),
    /// The resolver's trust anchor does not match the root zone's published
    /// key.
    UntrustedRoot,
    /// A record signature failed to verify.
    BadSignature {
        /// The zone whose record failed.
        zone: String,
        /// The record owner name.
        owner: String,
    },
    /// A child zone's published key does not match the fingerprint its
    /// parent endorsed (a key-substitution attack, or a stale delegation).
    BrokenChain {
        /// The parent zone holding the endorsement.
        parent: String,
        /// The child whose key failed the check.
        child: String,
    },
}

impl fmt::Display for DnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnsError::DuplicateZone(z) => write!(f, "zone {z:?} declared twice"),
            DnsError::MissingParent { zone, parent } => {
                write!(f, "zone {zone:?} references missing parent {parent:?}")
            }
            DnsError::InvalidZoneName { zone, parent } => {
                write!(
                    f,
                    "zone {zone:?} is not a subdomain of its parent {parent:?}"
                )
            }
            DnsError::KeyProvisioning(e) => write!(f, "key provisioning failed: {e}"),
            DnsError::UnknownZone(z) => write!(f, "unknown zone {z:?}"),
            DnsError::NoAuthority(n) => write!(f, "no zone is authoritative for {n:?}"),
            DnsError::NameNotFound(n) => write!(f, "name {n:?} has no address record"),
            DnsError::UntrustedRoot => write!(f, "root key does not match the trust anchor"),
            DnsError::BadSignature { zone, owner } => {
                write!(
                    f,
                    "record {owner:?} in zone {zone:?} has an invalid signature"
                )
            }
            DnsError::BrokenChain { parent, child } => write!(
                f,
                "zone {child:?} publishes a key its parent {parent:?} did not endorse"
            ),
        }
    }
}

impl std::error::Error for DnsError {}

/// The data carried by a resource record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordData {
    /// An address record (the A record analogue).
    Address(u32),
    /// A delegation to a child zone, endorsing the fingerprint of the
    /// child's zone key (the NS + DS pair of DNSSEC).
    Delegation {
        /// Name of the delegated child zone.
        child_zone: String,
        /// SHA-256 fingerprint of the child zone's public key.
        key_fingerprint: Digest,
    },
    /// Free-form text (the TXT record analogue).
    Text(String),
}

impl RecordData {
    /// Short type name used in rendered chains.
    pub fn type_name(&self) -> &'static str {
        match self {
            RecordData::Address(_) => "A",
            RecordData::Delegation { .. } => "DS",
            RecordData::Text(_) => "TXT",
        }
    }
}

/// An unsigned resource record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Fully qualified owner name.
    pub owner: String,
    /// The zone the record belongs to.
    pub zone: String,
    /// The record data.
    pub data: RecordData,
}

impl ResourceRecord {
    /// The canonical byte string the zone principal signs (the RRSIG
    /// analogue covers exactly these bytes).
    pub fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.zone.as_bytes());
        out.push(0);
        out.extend_from_slice(self.owner.as_bytes());
        out.push(0);
        match &self.data {
            RecordData::Address(a) => {
                out.push(1);
                out.extend_from_slice(&a.to_be_bytes());
            }
            RecordData::Delegation {
                child_zone,
                key_fingerprint,
            } => {
                out.push(2);
                out.extend_from_slice(child_zone.as_bytes());
                out.push(0);
                out.extend_from_slice(key_fingerprint);
            }
            RecordData::Text(t) => {
                out.push(3);
                out.extend_from_slice(t.as_bytes());
            }
        }
        out
    }
}

/// A resource record together with its zone's `says` assertion.
#[derive(Clone, Debug)]
pub struct SignedRecord {
    /// The record.
    pub record: ResourceRecord,
    /// `zone-principal says record`.
    pub assertion: SaysAssertion,
}

/// One zone of the hierarchy.
pub struct Zone {
    /// Fully qualified zone name (the root zone is `"."`).
    pub name: String,
    /// Parent zone name (`None` for the root).
    pub parent: Option<String>,
    /// The principal operating the zone.
    pub principal: PrincipalId,
    records: Vec<SignedRecord>,
    published_key: RsaPublicKey,
}

impl fmt::Debug for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Zone")
            .field("name", &self.name)
            .field("principal", &self.principal)
            .field("records", &self.records.len())
            .finish()
    }
}

impl Zone {
    /// All signed records of the zone.
    pub fn records(&self) -> &[SignedRecord] {
        &self.records
    }

    /// The key the zone currently publishes (what an untrusted server would
    /// hand a resolver; validated against the parent's DS endorsement).
    pub fn published_key(&self) -> &RsaPublicKey {
        &self.published_key
    }

    /// The zone's address record for `name`, if any.
    pub fn address_record(&self, name: &str) -> Option<&SignedRecord> {
        self.records
            .iter()
            .find(|r| r.record.owner == name && matches!(r.record.data, RecordData::Address(_)))
    }

    /// The delegation record for `child_zone`, if any.
    pub fn delegation_record(&self, child_zone: &str) -> Option<&SignedRecord> {
        self.records.iter().find(|r| {
            matches!(&r.record.data, RecordData::Delegation { child_zone: c, .. } if c == child_zone)
        })
    }
}

fn is_subdomain(child: &str, parent: &str) -> bool {
    if parent == "." {
        return child != "." && !child.is_empty();
    }
    child.len() > parent.len() && child.ends_with(parent) && {
        let prefix = &child[..child.len() - parent.len()];
        prefix.ends_with('.')
    }
}

/// Builder for a [`SecureDns`] hierarchy.
#[derive(Clone, Debug, Default)]
pub struct SecureDnsBuilder {
    zones: Vec<(String, Option<String>)>,
    addresses: Vec<(String, String, u32)>,
    texts: Vec<(String, String, String)>,
    seed: u64,
    modulus_bits: usize,
}

impl SecureDnsBuilder {
    /// Starts a hierarchy with a root zone (named `"."`).
    pub fn new() -> Self {
        SecureDnsBuilder {
            zones: vec![(".".to_string(), None)],
            addresses: Vec::new(),
            texts: Vec::new(),
            seed: 0xd15c,
            modulus_bits: 512,
        }
    }

    /// Builder: sets the key-provisioning seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sets the RSA modulus size (smaller keys keep tests fast).
    pub fn modulus_bits(mut self, bits: usize) -> Self {
        self.modulus_bits = bits;
        self
    }

    /// Declares a zone delegated from `parent`.
    pub fn zone(mut self, name: &str, parent: &str) -> Self {
        self.zones
            .push((name.to_string(), Some(parent.to_string())));
        self
    }

    /// Adds an address record for `owner` in `zone`.
    pub fn address(mut self, zone: &str, owner: &str, addr: u32) -> Self {
        self.addresses
            .push((zone.to_string(), owner.to_string(), addr));
        self
    }

    /// Adds a text record for `owner` in `zone`.
    pub fn text(mut self, zone: &str, owner: &str, value: &str) -> Self {
        self.texts
            .push((zone.to_string(), owner.to_string(), value.to_string()));
        self
    }

    /// Provisions zone keys, signs every record, and signs a DS endorsement
    /// in each parent for each child zone.
    pub fn build(self) -> Result<SecureDns, DnsError> {
        // Validate the zone tree first.
        let mut declared: BTreeMap<String, Option<String>> = BTreeMap::new();
        for (name, parent) in &self.zones {
            if declared.insert(name.clone(), parent.clone()).is_some() {
                return Err(DnsError::DuplicateZone(name.clone()));
            }
        }
        for (name, parent) in &self.zones {
            if let Some(parent) = parent {
                if !declared.contains_key(parent) {
                    return Err(DnsError::MissingParent {
                        zone: name.clone(),
                        parent: parent.clone(),
                    });
                }
                if !is_subdomain(name, parent) {
                    return Err(DnsError::InvalidZoneName {
                        zone: name.clone(),
                        parent: parent.clone(),
                    });
                }
            }
        }

        // One principal per zone, in declaration order.
        let principals: Vec<Principal> = self
            .zones
            .iter()
            .enumerate()
            .map(|(i, (name, _))| Principal::new(i as u32, name.clone()))
            .collect();
        let authority =
            KeyAuthority::provision_with_modulus(&principals, self.seed, self.modulus_bits)
                .map_err(|e| DnsError::KeyProvisioning(format!("{e:?}")))?;

        let mut zones: BTreeMap<String, Zone> = BTreeMap::new();
        let mut signers: HashMap<String, Authenticator> = HashMap::new();
        for (i, (name, parent)) in self.zones.iter().enumerate() {
            let principal = PrincipalId(i as u32);
            let keyring = authority
                .keyring_for(principal)
                .ok_or_else(|| DnsError::KeyProvisioning("missing keyring".into()))?;
            let published_key = keyring.rsa_keypair().public_key().clone();
            signers.insert(name.clone(), Authenticator::new(keyring, SaysLevel::Rsa));
            zones.insert(
                name.clone(),
                Zone {
                    name: name.clone(),
                    parent: parent.clone(),
                    principal,
                    records: Vec::new(),
                    published_key,
                },
            );
        }

        let sign = |signers: &HashMap<String, Authenticator>, record: ResourceRecord| {
            let signer = &signers[&record.zone];
            let assertion = signer.assert(&record.payload());
            SignedRecord { record, assertion }
        };

        // Delegations: each parent endorses its child's key fingerprint.
        let child_fingerprints: Vec<(String, String, Digest)> = self
            .zones
            .iter()
            .filter_map(|(name, parent)| {
                parent.as_ref().map(|p| {
                    (
                        p.clone(),
                        name.clone(),
                        zones[name].published_key.fingerprint(),
                    )
                })
            })
            .collect();
        for (parent, child, fingerprint) in child_fingerprints {
            let record = ResourceRecord {
                owner: child.clone(),
                zone: parent.clone(),
                data: RecordData::Delegation {
                    child_zone: child,
                    key_fingerprint: fingerprint,
                },
            };
            let signed = sign(&signers, record);
            zones
                .get_mut(&parent)
                .expect("validated above")
                .records
                .push(signed);
        }

        // Address and text records.
        for (zone, owner, addr) in &self.addresses {
            let zone_entry = zones
                .get_mut(zone)
                .ok_or_else(|| DnsError::UnknownZone(zone.clone()))?;
            let record = ResourceRecord {
                owner: owner.clone(),
                zone: zone.clone(),
                data: RecordData::Address(*addr),
            };
            zone_entry.records.push(sign(&signers, record));
        }
        for (zone, owner, value) in &self.texts {
            let zone_entry = zones
                .get_mut(zone)
                .ok_or_else(|| DnsError::UnknownZone(zone.clone()))?;
            let record = ResourceRecord {
                owner: owner.clone(),
                zone: zone.clone(),
                data: RecordData::Text(value.clone()),
            };
            zone_entry.records.push(sign(&signers, record));
        }

        Ok(SecureDns { zones, authority })
    }
}

/// A built secure name hierarchy.
pub struct SecureDns {
    zones: BTreeMap<String, Zone>,
    authority: KeyAuthority,
}

impl fmt::Debug for SecureDns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecureDns")
            .field("zones", &self.zones.len())
            .finish()
    }
}

impl SecureDns {
    /// Starts building a hierarchy.
    pub fn builder() -> SecureDnsBuilder {
        SecureDnsBuilder::new()
    }

    /// The zone named `name`.
    pub fn zone(&self, name: &str) -> Result<&Zone, DnsError> {
        self.zones
            .get(name)
            .ok_or_else(|| DnsError::UnknownZone(name.to_string()))
    }

    /// All zone names, sorted.
    pub fn zone_names(&self) -> Vec<&str> {
        self.zones.keys().map(String::as_str).collect()
    }

    /// The key authority behind the hierarchy (useful for trust evaluation
    /// in the examples).
    pub fn authority(&self) -> &KeyAuthority {
        &self.authority
    }

    /// The fingerprint of the root zone's genuine key — what an operator
    /// would configure as a resolver trust anchor.
    pub fn root_fingerprint(&self) -> Result<Digest, DnsError> {
        Ok(self.zone(".")?.published_key().fingerprint())
    }

    /// The chain of zones from the root to the zone authoritative for
    /// `name`, longest-suffix-first resolution (root, then each delegated
    /// child whose name suffixes `name`).
    pub fn delegation_chain(&self, name: &str) -> Vec<&Zone> {
        let mut chain = vec![];
        if let Some(root) = self.zones.get(".") {
            chain.push(root);
        }
        while let Some(&current) = chain.last() {
            // Deepest declared child of `current` whose name is a suffix of
            // the queried name.
            let next = self
                .zones
                .values()
                .filter(|z| z.parent.as_deref() == Some(current.name.as_str()))
                .filter(|z| name == z.name || is_subdomain(name, &z.name))
                .max_by_key(|z| z.name.len());
            match next {
                Some(z) => chain.push(z),
                None => break,
            }
        }
        chain
    }

    /// Testing / attack-simulation hook: overwrites the address carried by a
    /// record *without* re-signing it (an on-path attacker rewriting an
    /// answer).
    pub fn tamper_address(&mut self, zone: &str, owner: &str, addr: u32) -> Result<(), DnsError> {
        let zone = self
            .zones
            .get_mut(zone)
            .ok_or_else(|| DnsError::UnknownZone(zone.to_string()))?;
        for record in &mut zone.records {
            if record.record.owner == owner {
                if let RecordData::Address(a) = &mut record.record.data {
                    *a = addr;
                    return Ok(());
                }
            }
        }
        Err(DnsError::NameNotFound(owner.to_string()))
    }

    /// Testing / attack-simulation hook: replaces the key a zone publishes
    /// with one its parent never endorsed (a key-substitution attack).
    pub fn substitute_zone_key(&mut self, zone: &str, seed: u64) -> Result<(), DnsError> {
        let principal = vec![Principal::new(0u32, format!("rogue-{zone}"))];
        let rogue = KeyAuthority::provision_with_modulus(&principal, seed, 512)
            .map_err(|e| DnsError::KeyProvisioning(format!("{e:?}")))?;
        let rogue_key = rogue
            .keyring_for(PrincipalId(0))
            .expect("provisioned above")
            .rsa_keypair()
            .public_key()
            .clone();
        let zone = self
            .zones
            .get_mut(zone)
            .ok_or_else(|| DnsError::UnknownZone(zone.to_string()))?;
        zone.published_key = rogue_key;
        Ok(())
    }
}

/// One verified step of a resolution's chain of trust.
#[derive(Clone, Debug)]
pub struct ChainStep {
    /// The zone that signed the record used at this step.
    pub zone: String,
    /// The zone's principal.
    pub principal: PrincipalId,
    /// The record used (delegation for intermediate steps, address for the
    /// final step).
    pub record: ResourceRecord,
}

/// A validated resolution: the answer plus its chain of trust, exposed as
/// authenticated provenance.
#[derive(Clone, Debug)]
pub struct Resolution {
    /// The queried name.
    pub name: String,
    /// The resolved address.
    pub address: u32,
    /// The verified chain of trust, root first.
    pub chain: Vec<ChainStep>,
}

impl Resolution {
    /// The principals the answer depends on (the zones on the chain).
    pub fn principals(&self) -> BTreeSet<PrincipalId> {
        self.chain.iter().map(|s| s.principal).collect()
    }

    /// The vote-semiring value over the chain's principals.
    pub fn vote(&self) -> VoteSet {
        use pasn_provenance::Semiring;
        self.chain
            .iter()
            .map(|s| VoteSet::principal(s.principal.0))
            .fold(VoteSet::one(), |acc, v| acc.times(&v))
    }

    /// Builds the derivation graph of the answer: the trust anchor and each
    /// signed record are base tuples, and each delegation step derives the
    /// next zone's validated key from the parent's endorsement, exactly like
    /// the rule-by-rule trees of Figures 1 and 2.
    pub fn provenance_graph(&self) -> DerivationGraph {
        let mut graph = DerivationGraph::new();
        graph.add_base("trustAnchor(.)", ".", BaseTupleId(u64::MAX), None, 0, None);
        let mut previous = "trustAnchor(.)".to_string();
        for (i, step) in self.chain.iter().enumerate() {
            let record_key = format!(
                "record({},{},{})",
                step.zone,
                step.record.owner,
                step.record.data.type_name()
            );
            graph.add_base(
                &record_key,
                &step.zone,
                BaseTupleId(step.principal.0 as u64),
                Some(step.principal),
                i as u64,
                None,
            );
            let derived_key = if i + 1 == self.chain.len() {
                format!("resolved({},{})", self.name, self.address)
            } else {
                format!("validatedZone({})", step.record.owner)
            };
            graph.add_derivation(NewDerivation {
                head: &derived_key,
                head_location: &step.zone,
                rule: if i + 1 == self.chain.len() {
                    "dns_answer"
                } else {
                    "dns_delegate"
                },
                rule_location: &step.zone,
                antecedents: &[previous.clone(), record_key],
                asserted_by: Some(step.principal),
                assertion: None,
                created_at: i as u64,
                expires_at: None,
            });
            previous = derived_key;
        }
        graph
    }

    /// Renders the chain of trust, one step per line.
    pub fn render_chain(&self) -> String {
        let mut out = String::new();
        for step in &self.chain {
            out.push_str(&format!(
                "{} says {} {} ({})\n",
                step.zone,
                step.record.data.type_name(),
                step.record.owner,
                match &step.record.data {
                    RecordData::Address(a) => format!("address {a}"),
                    RecordData::Delegation {
                        key_fingerprint, ..
                    } => format!("key {}", &to_hex(key_fingerprint)[..16]),
                    RecordData::Text(t) => t.clone(),
                }
            ));
        }
        out
    }
}

/// A validating resolver configured with a trust anchor for the root zone.
#[derive(Clone, Debug)]
pub struct Resolver {
    trust_anchor: Digest,
}

impl Resolver {
    /// Creates a resolver trusting the root key with this fingerprint.
    pub fn new(trust_anchor: Digest) -> Self {
        Resolver { trust_anchor }
    }

    /// A resolver anchored at the hierarchy's genuine root key.
    pub fn anchored_at(dns: &SecureDns) -> Result<Self, DnsError> {
        Ok(Resolver::new(dns.root_fingerprint()?))
    }

    fn verify_record(key: &RsaPublicKey, record: &SignedRecord) -> Result<(), DnsError> {
        let valid = match &record.assertion.proof {
            pasn_crypto::SaysProof::Rsa(sig) => key.verify(&record.record.payload(), sig),
            _ => false,
        };
        if valid {
            Ok(())
        } else {
            Err(DnsError::BadSignature {
                zone: record.record.zone.clone(),
                owner: record.record.owner.clone(),
            })
        }
    }

    /// Resolves `name`, validating every signature and every delegation
    /// against the chain of trust anchored at the resolver's root key.
    pub fn resolve(&self, dns: &SecureDns, name: &str) -> Result<Resolution, DnsError> {
        let chain_zones = dns.delegation_chain(name);
        if chain_zones.is_empty() {
            return Err(DnsError::NoAuthority(name.to_string()));
        }
        let root = chain_zones[0];
        if root.published_key().fingerprint() != self.trust_anchor {
            return Err(DnsError::UntrustedRoot);
        }

        let mut chain = Vec::new();
        let mut current_key = root.published_key().clone();
        for (i, zone) in chain_zones.iter().enumerate() {
            let is_last = i + 1 == chain_zones.len();
            if is_last {
                let record = zone
                    .address_record(name)
                    .ok_or_else(|| DnsError::NameNotFound(name.to_string()))?;
                Self::verify_record(&current_key, record)?;
                let address = match record.record.data {
                    RecordData::Address(a) => a,
                    _ => unreachable!("address_record returns only address records"),
                };
                chain.push(ChainStep {
                    zone: zone.name.clone(),
                    principal: zone.principal,
                    record: record.record.clone(),
                });
                return Ok(Resolution {
                    name: name.to_string(),
                    address,
                    chain,
                });
            }

            let child = chain_zones[i + 1];
            let delegation =
                zone.delegation_record(&child.name)
                    .ok_or_else(|| DnsError::BrokenChain {
                        parent: zone.name.clone(),
                        child: child.name.clone(),
                    })?;
            Self::verify_record(&current_key, delegation)?;
            let endorsed = match &delegation.record.data {
                RecordData::Delegation {
                    key_fingerprint, ..
                } => *key_fingerprint,
                _ => unreachable!("delegation_record returns only delegations"),
            };
            let child_key = child.published_key().clone();
            if child_key.fingerprint() != endorsed {
                return Err(DnsError::BrokenChain {
                    parent: zone.name.clone(),
                    child: child.name.clone(),
                });
            }
            chain.push(ChainStep {
                zone: zone.name.clone(),
                principal: zone.principal,
                record: delegation.record.clone(),
            });
            current_key = child_key;
        }
        Err(DnsError::NameNotFound(name.to_string()))
    }
}

/// Convenience: the error type a verification helper may surface when the
/// hierarchy is queried through an [`Authenticator`] rather than raw keys.
pub type SaysVerification = Result<(), SaysError>;

#[cfg(test)]
mod tests {
    use super::*;

    fn example_hierarchy() -> SecureDns {
        SecureDns::builder()
            .modulus_bits(512)
            .seed(21)
            .zone("org", ".")
            .zone("example.org", "org")
            .zone("cs.example.org", "example.org")
            .zone("net", ".")
            .address("example.org", "www.example.org", 0x0a00_0001)
            .address("cs.example.org", "gw.cs.example.org", 0x0a00_0102)
            .address("net", "a.net", 0x0a00_0200)
            .address(".", "root-host", 0x7f00_0001)
            .text("example.org", "example.org", "hello provenance")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_the_zone_tree() {
        let err = SecureDns::builder()
            .modulus_bits(512)
            .zone("org", ".")
            .zone("org", ".")
            .build()
            .unwrap_err();
        assert_eq!(err, DnsError::DuplicateZone("org".into()));

        let err = SecureDns::builder()
            .modulus_bits(512)
            .zone("example.org", "org")
            .build()
            .unwrap_err();
        assert!(matches!(err, DnsError::MissingParent { .. }));

        let err = SecureDns::builder()
            .modulus_bits(512)
            .zone("org", ".")
            .zone("unrelated.net", "org")
            .build()
            .unwrap_err();
        assert!(matches!(err, DnsError::InvalidZoneName { .. }));

        let err = SecureDns::builder()
            .modulus_bits(512)
            .address("nonexistent", "www.nonexistent", 1)
            .build()
            .unwrap_err();
        assert!(matches!(err, DnsError::UnknownZone(_)));
    }

    #[test]
    fn resolution_walks_the_delegation_chain() {
        let dns = example_hierarchy();
        let resolver = Resolver::anchored_at(&dns).unwrap();

        let res = resolver.resolve(&dns, "www.example.org").unwrap();
        assert_eq!(res.address, 0x0a00_0001);
        let zones: Vec<&str> = res.chain.iter().map(|s| s.zone.as_str()).collect();
        assert_eq!(zones, vec![".", "org", "example.org"]);
        assert_eq!(res.principals().len(), 3);

        let deep = resolver.resolve(&dns, "gw.cs.example.org").unwrap();
        assert_eq!(deep.address, 0x0a00_0102);
        assert_eq!(deep.chain.len(), 4);

        let shallow = resolver.resolve(&dns, "root-host").unwrap();
        assert_eq!(shallow.chain.len(), 1);
        assert_eq!(shallow.address, 0x7f00_0001);
    }

    #[test]
    fn missing_names_are_reported() {
        let dns = example_hierarchy();
        let resolver = Resolver::anchored_at(&dns).unwrap();
        assert!(matches!(
            resolver.resolve(&dns, "missing.example.org"),
            Err(DnsError::NameNotFound(_))
        ));
        // A name under an undelegated label falls back to the closest
        // enclosing zone, which has no record for it.
        assert!(matches!(
            resolver.resolve(&dns, "www.other.test"),
            Err(DnsError::NameNotFound(_))
        ));
    }

    #[test]
    fn tampered_address_records_fail_signature_validation() {
        let mut dns = example_hierarchy();
        dns.tamper_address("example.org", "www.example.org", 0x0bad_1dea)
            .unwrap();
        let resolver = Resolver::anchored_at(&dns).unwrap();
        assert!(matches!(
            resolver.resolve(&dns, "www.example.org"),
            Err(DnsError::BadSignature { .. })
        ));
        // Other names are unaffected.
        assert!(resolver.resolve(&dns, "a.net").is_ok());
    }

    #[test]
    fn key_substitution_breaks_the_chain_of_trust() {
        let mut dns = example_hierarchy();
        dns.substitute_zone_key("example.org", 99).unwrap();
        let resolver = Resolver::anchored_at(&dns).unwrap();
        let err = resolver.resolve(&dns, "www.example.org").unwrap_err();
        assert!(
            matches!(err, DnsError::BrokenChain { ref parent, ref child }
                if parent == "org" && child == "example.org"),
            "{err:?}"
        );
        // Substituting the root key invalidates the trust anchor itself.
        let mut dns = example_hierarchy();
        dns.substitute_zone_key(".", 7).unwrap();
        let resolver = Resolver::new([0u8; 32]);
        assert!(matches!(
            resolver.resolve(&dns, "a.net"),
            Err(DnsError::UntrustedRoot)
        ));
    }

    #[test]
    fn wrong_trust_anchor_is_rejected() {
        let dns = example_hierarchy();
        let resolver = Resolver::new([0xab; 32]);
        assert_eq!(
            resolver.resolve(&dns, "www.example.org").unwrap_err(),
            DnsError::UntrustedRoot
        );
    }

    #[test]
    fn resolution_provenance_graph_is_rooted_at_the_trust_anchor() {
        let dns = example_hierarchy();
        let resolver = Resolver::anchored_at(&dns).unwrap();
        let res = resolver.resolve(&dns, "gw.cs.example.org").unwrap();
        let graph = res.provenance_graph();
        let answer = graph
            .find(&format!("resolved(gw.cs.example.org,{})", res.address))
            .expect("answer node exists");
        let why = graph.why_provenance(answer);
        let support = graph.base_support(answer);
        // The answer depends on the anchor plus one signed record per zone.
        assert_eq!(support.len(), res.chain.len() + 1);
        assert!(!why.witnesses().is_empty());
        let rendered = graph.render_tree(answer);
        assert!(rendered.contains("dns_answer"));
        assert!(rendered.contains("dns_delegate"));
        assert!(rendered.contains("trustAnchor"));
        // The chain renders one line per step.
        assert_eq!(res.render_chain().lines().count(), res.chain.len());
        assert!(res.vote().satisfies_threshold(res.chain.len()));
    }

    #[test]
    fn delegation_chain_prefers_the_deepest_matching_zone() {
        let dns = example_hierarchy();
        let chain = dns.delegation_chain("x.cs.example.org");
        let names: Vec<&str> = chain.iter().map(|z| z.name.as_str()).collect();
        assert_eq!(names, vec![".", "org", "example.org", "cs.example.org"]);
        let chain = dns.delegation_chain("unrelated.test");
        assert_eq!(chain.len(), 1);
        assert_eq!(dns.zone_names().len(), 5);
    }

    #[test]
    fn is_subdomain_handles_edge_cases() {
        assert!(is_subdomain("org", "."));
        assert!(is_subdomain("example.org", "org"));
        assert!(is_subdomain("a.b.example.org", "example.org"));
        assert!(!is_subdomain("notorg", "org"));
        assert!(!is_subdomain("org", "org"));
        assert!(!is_subdomain(".", "."));
        assert!(!is_subdomain("example.net", "org"));
    }
}
