//! Security principals and key management.
//!
//! In SeNDlog every rule executes within the *context* of a principal
//! (Section 2.2 of the paper); derived tuples exported to another context are
//! asserted with `says`.  This module provides principal identities, their
//! key material, and a simulation-wide [`KeyAuthority`] that plays the role
//! of the out-of-band key distribution the paper assumes ("derived tuples
//! signed using the private key of the exporting context can be imported into
//! another context and checked using the corresponding public key").

use crate::hmac::TAG_LEN;
use crate::rsa::{RsaError, RsaKeyPair, RsaPublicKey, DEFAULT_MODULUS_BITS};
use crate::sha256::sha256;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A compact identifier for a security principal (in the network setting a
/// principal is a node, or an AS when provenance is kept at AS granularity).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct PrincipalId(pub u32);

impl fmt::Display for PrincipalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for PrincipalId {
    fn from(v: u32) -> Self {
        PrincipalId(v)
    }
}

/// A principal together with its human-readable name.
#[derive(Clone, Debug)]
pub struct Principal {
    /// Stable identifier.
    pub id: PrincipalId,
    /// Human-readable name (e.g. `"a"`, `"node7"`, `"AS701"`).
    pub name: String,
}

impl Principal {
    /// Creates a principal.
    pub fn new(id: impl Into<PrincipalId>, name: impl Into<String>) -> Self {
        Principal {
            id: id.into(),
            name: name.into(),
        }
    }
}

/// Private key material held by a single principal, plus the public directory
/// needed to verify assertions made by others.
#[derive(Clone)]
pub struct Keyring {
    owner: PrincipalId,
    rsa: Arc<RsaKeyPair>,
    /// Public keys of every known principal (including the owner).
    directory: Arc<HashMap<PrincipalId, RsaPublicKey>>,
    /// Per-principal MAC secrets.  In a real deployment these would be
    /// pairwise; the simulator models them as per-principal secrets shared
    /// with the key authority, which preserves the per-tuple MAC cost.
    mac_secrets: Arc<HashMap<PrincipalId, [u8; TAG_LEN]>>,
}

impl fmt::Debug for Keyring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Keyring")
            .field("owner", &self.owner)
            .field("known_principals", &self.directory.len())
            .finish()
    }
}

impl Keyring {
    /// The principal that owns this keyring.
    pub(crate) fn owner(&self) -> PrincipalId {
        self.owner
    }

    /// The owner's RSA key pair.
    pub fn rsa_keypair(&self) -> &RsaKeyPair {
        &self.rsa
    }

    /// Looks up the public key of `principal`.
    pub(crate) fn public_key_of(&self, principal: PrincipalId) -> Option<&RsaPublicKey> {
        self.directory.get(&principal)
    }

    /// Looks up the MAC secret of `principal`.
    pub(crate) fn mac_secret_of(&self, principal: PrincipalId) -> Option<&[u8; TAG_LEN]> {
        self.mac_secrets.get(&principal)
    }

    /// The owner's MAC secret.
    pub(crate) fn own_mac_secret(&self) -> &[u8; TAG_LEN] {
        self.mac_secrets
            .get(&self.owner)
            .expect("keyring always contains the owner's MAC secret")
    }
}

/// Simulation-wide key authority: generates key material for every principal
/// and hands out per-principal [`Keyring`] views.
///
/// Key generation is by far the most expensive setup step, so the authority
/// is constructed once per deployment, mirroring the paper's setup where
/// certificates are provisioned before the query is issued.  For a keyed
/// configuration that happens inside `DistributedEngine::new`, so it is
/// inside whatever times a deployment: at ~0.73–0.9 ms per principal on a
/// 2-vCPU x86-64 host it is ~99 % of `hostbench`'s `deploy_s` on the keyed
/// workloads (`bestpath_secprov`, `lossy_session`, `prov_query`).
pub struct KeyAuthority {
    keypairs: HashMap<PrincipalId, Arc<RsaKeyPair>>,
    directory: Arc<HashMap<PrincipalId, RsaPublicKey>>,
    mac_secrets: Arc<HashMap<PrincipalId, [u8; TAG_LEN]>>,
}

impl fmt::Debug for KeyAuthority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyAuthority")
            .field("principals", &self.keypairs.len())
            .finish()
    }
}

impl KeyAuthority {
    /// Provisions key material for `principals` with the default modulus size.
    pub fn provision(principals: &[Principal], seed: u64) -> Result<Self, RsaError> {
        Self::provision_with_modulus(principals, seed, DEFAULT_MODULUS_BITS)
    }

    /// Provisions key material with an explicit RSA modulus size.
    pub fn provision_with_modulus(
        principals: &[Principal],
        seed: u64,
        modulus_bits: usize,
    ) -> Result<Self, RsaError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keypairs = HashMap::with_capacity(principals.len());
        let mut directory = HashMap::with_capacity(principals.len());
        let mut mac_secrets = HashMap::with_capacity(principals.len());
        for p in principals {
            let kp = RsaKeyPair::generate(modulus_bits, &mut rng)?;
            directory.insert(p.id, kp.public_key().clone());
            keypairs.insert(p.id, Arc::new(kp));

            let mut secret = [0u8; TAG_LEN];
            rng.fill_bytes(&mut secret);
            // Bind the secret to the principal id so identical RNG states for
            // different principals cannot collide.
            let bound = sha256(&[&secret[..], &p.id.0.to_be_bytes()[..]].concat());
            mac_secrets.insert(p.id, bound);
        }
        Ok(KeyAuthority {
            keypairs,
            directory: Arc::new(directory),
            mac_secrets: Arc::new(mac_secrets),
        })
    }

    /// Returns the keyring view for `principal`, or `None` if it was not
    /// provisioned.
    pub fn keyring_for(&self, principal: PrincipalId) -> Option<Keyring> {
        let rsa = self.keypairs.get(&principal)?.clone();
        Some(Keyring {
            owner: principal,
            rsa,
            directory: Arc::clone(&self.directory),
            mac_secrets: Arc::clone(&self.mac_secrets),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn principals(n: u32) -> Vec<Principal> {
        (0..n).map(|i| Principal::new(i, format!("n{i}"))).collect()
    }

    #[test]
    fn provision_creates_distinct_keys() {
        let auth = KeyAuthority::provision(&principals(3), 42).unwrap();
        let k0 = auth.keyring_for(PrincipalId(0)).unwrap();
        let k1 = auth.keyring_for(PrincipalId(1)).unwrap();
        assert_ne!(
            k0.rsa_keypair().public_key().fingerprint(),
            k1.rsa_keypair().public_key().fingerprint()
        );
        assert_ne!(k0.own_mac_secret(), k1.own_mac_secret());
        assert_eq!(k0.directory.len(), 3);
    }

    #[test]
    fn keyrings_share_a_directory() {
        let auth = KeyAuthority::provision(&principals(3), 7).unwrap();
        let k0 = auth.keyring_for(PrincipalId(0)).unwrap();
        let k2 = auth.keyring_for(PrincipalId(2)).unwrap();
        // Node 0 can verify node 2's signatures via the directory.
        let msg = b"reachable(a,c)";
        let sig = k2.rsa_keypair().sign(msg);
        assert!(k0.public_key_of(PrincipalId(2)).unwrap().verify(msg, &sig));
        assert!(!k0.public_key_of(PrincipalId(1)).unwrap().verify(msg, &sig));
    }

    #[test]
    fn unknown_principal_has_no_keyring() {
        let auth = KeyAuthority::provision(&principals(2), 1).unwrap();
        assert!(auth.keyring_for(PrincipalId(99)).is_none());
    }

    #[test]
    fn provisioning_is_deterministic_for_a_seed() {
        let a = KeyAuthority::provision(&principals(2), 1234).unwrap();
        let b = KeyAuthority::provision(&principals(2), 1234).unwrap();
        assert_eq!(
            a.keyring_for(PrincipalId(0))
                .unwrap()
                .rsa_keypair()
                .public_key()
                .fingerprint(),
            b.keyring_for(PrincipalId(0))
                .unwrap()
                .rsa_keypair()
                .public_key()
                .fingerprint()
        );
        let c = KeyAuthority::provision(&principals(2), 9999).unwrap();
        assert_ne!(
            a.keyring_for(PrincipalId(0))
                .unwrap()
                .rsa_keypair()
                .public_key()
                .fingerprint(),
            c.keyring_for(PrincipalId(0))
                .unwrap()
                .rsa_keypair()
                .public_key()
                .fingerprint()
        );
    }

    #[test]
    fn provisioning_pins_the_whole_rng_stream() {
        // `known_answer_signature_vector` sees only the first key of a fresh
        // stream.  Each later key starts wherever the previous one's last
        // Miller–Rabin round left the generator, so these values — captured
        // before the Montgomery kernels were merged — move if keygen draws
        // one word more or fewer anywhere along the way.
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let auth = KeyAuthority::provision(&principals(3), 1234).unwrap();
        let ring = auth.keyring_for(PrincipalId(2)).unwrap();
        let fingerprints: Vec<String> = (0..3)
            .map(|i| hex(&ring.public_key_of(PrincipalId(i)).unwrap().fingerprint()))
            .collect();
        assert_eq!(
            fingerprints,
            [
                "2629def4c32af374a17aa95048d63aaf81b9c8149ffecc67bddcf5bcce4246f3",
                "fc10a85dea6a9f7142fe8665835bea48468f7a55096f5d26a47f304e782ad0e1",
                "cd7e5021782857964d1bb28a0390ae0881a26a5b7de323f4889238d713ad7327",
            ]
        );
        assert_eq!(
            hex(ring.own_mac_secret()),
            "97c0e2386605edb67668f3f955cdbb4903f4ee96c4e2aca1b14aef851039555c"
        );
    }
}
