//! Identity key material: user and group RSA key pairs.
//!
//! "Each user has a public-private key pair ... This key pair effectively
//! serves as the identity of the user. User groups also have a similar
//! public-private key pair" (§II-A). The enterprise generates these during
//! migration; public keys are assumed known to everyone (PKI / IBE), private
//! keys never leave the enterprise domain.

use crate::error::{CoreError, Result};
use sharoes_crypto::{RandomSource, RsaPrivateKey, RsaPublicKey, SymKey};
use sharoes_fs::{Gid, Uid, UserDb};
use sharoes_net::{Cursor, NetError, WireRead, WireWrite};
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::RwLock;

/// All identity keys for the enterprise (the migration tool holds this;
/// individual users hold only their own slice — see [`UserIdentity`]).
#[derive(Debug, Clone, Default)]
pub struct Keyring {
    users: HashMap<Uid, RsaPrivateKey>,
    groups: HashMap<Gid, RsaPrivateKey>,
}

impl Keyring {
    /// Generates key pairs for every user and group in the directory.
    pub fn generate<R: RandomSource + ?Sized>(
        db: &UserDb,
        rsa_bits: usize,
        rng: &mut R,
    ) -> Result<Self> {
        let mut ring = Keyring::default();
        for user in db.users() {
            ring.users.insert(user.uid, RsaPrivateKey::generate(rsa_bits, rng)?);
        }
        for group in db.groups() {
            ring.groups.insert(group.gid, RsaPrivateKey::generate(rsa_bits, rng)?);
        }
        Ok(ring)
    }

    /// A user's public key (the PKI everyone can consult).
    pub fn user_public(&self, uid: Uid) -> Result<&RsaPublicKey> {
        self.users
            .get(&uid)
            .map(|k| k.public_key())
            .ok_or_else(|| CoreError::UnknownPrincipal(uid.to_string()))
    }

    /// A group's public key.
    pub fn group_public(&self, gid: Gid) -> Result<&RsaPublicKey> {
        self.groups
            .get(&gid)
            .map(|k| k.public_key())
            .ok_or_else(|| CoreError::UnknownPrincipal(gid.to_string()))
    }

    /// A user's private key (enterprise-side only).
    pub fn user_private(&self, uid: Uid) -> Result<&RsaPrivateKey> {
        self.users.get(&uid).ok_or_else(|| CoreError::UnknownPrincipal(uid.to_string()))
    }

    /// A group's private key (enterprise-side only; distributed to members
    /// in-band via group key blocks).
    pub fn group_private(&self, gid: Gid) -> Result<&RsaPrivateKey> {
        self.groups.get(&gid).ok_or_else(|| CoreError::UnknownPrincipal(gid.to_string()))
    }

    /// Extracts the slice a single user legitimately holds: their own key
    /// pair (group keys arrive in-band after mount).
    pub fn identity(&self, uid: Uid) -> Result<UserIdentity> {
        Ok(UserIdentity {
            uid,
            private: self.user_private(uid)?.clone(),
            group_keys: Arc::new(RwLock::new(HashMap::new())),
        })
    }

    /// Uids with keys.
    pub fn user_ids(&self) -> Vec<Uid> {
        let mut ids: Vec<Uid> = self.users.keys().copied().collect();
        ids.sort();
        ids
    }

    /// The public half of the keyring — what the paper's PKI assumption
    /// ("each user knows the public keys for all other users") makes
    /// available to every client.
    pub fn public_directory(&self) -> Pki {
        Pki {
            users: self.users.iter().map(|(&uid, k)| (uid, k.public_key().clone())).collect(),
            groups: self.groups.iter().map(|(&gid, k)| (gid, k.public_key().clone())).collect(),
        }
    }
}

/// Public keys of all enterprise principals (the PKI of §II-A).
#[derive(Clone, Debug, Default)]
pub struct Pki {
    users: HashMap<Uid, RsaPublicKey>,
    groups: HashMap<Gid, RsaPublicKey>,
}

impl Pki {
    /// A user's public key.
    pub fn user(&self, uid: Uid) -> Result<&RsaPublicKey> {
        self.users.get(&uid).ok_or_else(|| CoreError::UnknownPrincipal(uid.to_string()))
    }

    /// A group's public key.
    pub fn group(&self, gid: Gid) -> Result<&RsaPublicKey> {
        self.groups.get(&gid).ok_or_else(|| CoreError::UnknownPrincipal(gid.to_string()))
    }
}

/// The key material one mounted user possesses.
///
/// The single pair the paper requires each user to manage, plus group keys
/// recovered in-band at mount time ("she obtains her encrypted group key
/// blocks and uses her private key to decrypt", §II-A).
#[derive(Clone, Debug)]
pub struct UserIdentity {
    /// Who this is.
    pub uid: Uid,
    /// The user's private key.
    pub private: RsaPrivateKey,
    /// Group private keys recovered from group key blocks at mount.
    pub group_keys: Arc<RwLock<HashMap<Gid, RsaPrivateKey>>>,
}

impl UserIdentity {
    /// Installs a group key recovered in-band.
    pub fn install_group_key(&self, gid: Gid, key: RsaPrivateKey) {
        self.group_keys.write().unwrap_or_else(|e| e.into_inner()).insert(gid, key);
    }

    /// A group private key, if this user recovered it.
    pub fn group_key(&self, gid: Gid) -> Option<RsaPrivateKey> {
        self.group_keys.read().unwrap_or_else(|e| e.into_inner()).get(&gid).cloned()
    }
}

/// A versioned per-mount key-encryption-key chain (the key-rotation
/// lifecycle of DESIGN.md §10).
///
/// Version `n` (the highest) is the *sealing* version: every new escrow
/// record is sealed under it. Earlier versions are retained so blobs sealed
/// before a rotation stay decryptable, until the enterprise explicitly
/// [`retires`](KekChain::retire_through) them after re-escrowing. A
/// [`snapshot`](KekChain::snapshot_through) models what a decommissioned
/// client or stolen backup holds: it provably cannot open anything sealed
/// under a later version, because the later key simply is not in it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KekChain {
    /// Index = version; `None` marks a retired (destroyed) version.
    keys: Vec<Option<SymKey>>,
}

impl KekChain {
    /// A fresh chain at version 0.
    pub fn generate<R: RandomSource + ?Sized>(rng: &mut R) -> Self {
        KekChain { keys: vec![Some(SymKey::random(rng))] }
    }

    /// The current (sealing) version.
    pub fn current_version(&self) -> u32 {
        (self.keys.len() - 1) as u32
    }

    /// Appends a fresh version and returns it. Older versions stay usable
    /// for opening until retired.
    pub fn rotate<R: RandomSource + ?Sized>(&mut self, rng: &mut R) -> u32 {
        self.keys.push(Some(SymKey::random(rng)));
        self.current_version()
    }

    /// Seals `plain` under the current version. The version tag travels in
    /// the clear ahead of the ciphertext so any holder of the chain can
    /// route the blob to the right key.
    pub fn seal<R: RandomSource + ?Sized>(&self, rng: &mut R, plain: &[u8]) -> Vec<u8> {
        let key = self.keys.last().and_then(|k| k.as_ref()).expect("current version retired");
        let mut out = self.current_version().to_be_bytes().to_vec();
        out.extend_from_slice(&key.seal(rng, plain));
        out
    }

    /// The version a sealed blob was produced under.
    pub fn sealed_version(blob: &[u8]) -> Result<u32> {
        let tag: [u8; 4] = blob
            .get(..4)
            .and_then(|b| b.try_into().ok())
            .ok_or(CoreError::Corrupt("KEK blob too short"))?;
        Ok(u32::from_be_bytes(tag))
    }

    /// Opens a blob sealed by [`KekChain::seal`] under any retained version.
    ///
    /// Fails when the blob's version is newer than anything this chain
    /// holds (a rotated-away snapshot probing post-rotation data) or when
    /// the version was retired.
    pub fn open(&self, blob: &[u8]) -> Result<Vec<u8>> {
        let version = Self::sealed_version(blob)?;
        let key = match self.keys.get(version as usize) {
            None => {
                return Err(CoreError::TamperDetected(format!(
                    "KEK version {version} not held (chain ends at {})",
                    self.current_version()
                )))
            }
            Some(None) => {
                return Err(CoreError::TamperDetected(format!("KEK version {version} retired")))
            }
            Some(Some(key)) => key,
        };
        Ok(key.open(&blob[4..])?)
    }

    /// Destroys key material for every version `<= version` (after the
    /// enterprise has re-escrowed whatever those versions protected).
    /// Returns the number of versions destroyed. The current version is
    /// never retired.
    pub fn retire_through(&mut self, version: u32) -> usize {
        let stop = (version as usize + 1).min(self.keys.len().saturating_sub(1));
        let mut retired = 0;
        for slot in &mut self.keys[..stop] {
            if slot.take().is_some() {
                retired += 1;
            }
        }
        retired
    }

    /// The chain as it existed at `version`: what a client decommissioned
    /// (or a backup taken) before later rotations holds.
    pub fn snapshot_through(&self, version: u32) -> KekChain {
        let end = (version as usize + 1).min(self.keys.len());
        KekChain { keys: self.keys[..end].to_vec() }
    }

    /// Seals the whole chain for publication at the SSP under a user's
    /// public key (the same in-band pattern as the superblock).
    pub fn seal_for<R: RandomSource + ?Sized>(
        &self,
        pk: &RsaPublicKey,
        rng: &mut R,
    ) -> Result<Vec<u8>> {
        Ok(pk.encrypt_blob(rng, &self.to_wire())?)
    }

    /// Opens a published chain with the mounting user's private key.
    pub fn open_with(private: &RsaPrivateKey, blob: &[u8]) -> Result<KekChain> {
        let plain = private
            .decrypt_blob(blob)
            .map_err(|_| CoreError::TamperDetected("KEK chain decryption failed".into()))?;
        KekChain::from_wire(&plain).map_err(|_| CoreError::Corrupt("KEK chain body"))
    }
}

impl WireWrite for KekChain {
    fn write(&self, out: &mut Vec<u8>) {
        (self.keys.len() as u32).write(out);
        for key in &self.keys {
            match key {
                None => 0u8.write(out),
                Some(k) => {
                    1u8.write(out);
                    k.0.write(out);
                }
            }
        }
    }
}

impl WireRead for KekChain {
    fn read(r: &mut Cursor<'_>) -> std::result::Result<Self, NetError> {
        let n = u32::read(r)?;
        if n == 0 {
            return Err(NetError::Codec("empty KEK chain"));
        }
        // `n` is untrusted: reserve no more than a small bound up front.
        let mut keys = Vec::with_capacity((n as usize).min(1024));
        for _ in 0..n {
            keys.push(match u8::read(r)? {
                0 => None,
                1 => Some(SymKey(<[u8; 16]>::read(r)?)),
                _ => return Err(NetError::Codec("invalid KEK slot")),
            });
        }
        if keys.last().map(|k| k.is_none()).unwrap_or(true) {
            return Err(NetError::Codec("current KEK version retired"));
        }
        Ok(KekChain { keys })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharoes_crypto::HmacDrbg;

    fn db() -> UserDb {
        let mut db = UserDb::new();
        db.add_group(Gid(10), "g").unwrap();
        db.add_user(Uid(1), "a", Gid(10)).unwrap();
        db.add_user(Uid(2), "b", Gid(10)).unwrap();
        db
    }

    #[test]
    fn generate_covers_all_principals() {
        let mut rng = HmacDrbg::from_seed_u64(1);
        let ring = Keyring::generate(&db(), 512, &mut rng).unwrap();
        assert!(ring.user_public(Uid(1)).is_ok());
        assert!(ring.user_public(Uid(2)).is_ok());
        assert!(ring.group_public(Gid(10)).is_ok());
        assert!(matches!(ring.user_public(Uid(9)), Err(CoreError::UnknownPrincipal(_))));
        assert_eq!(ring.user_ids(), vec![Uid(1), Uid(2)]);
    }

    #[test]
    fn identity_decrypts_what_public_encrypted() {
        let mut rng = HmacDrbg::from_seed_u64(2);
        let ring = Keyring::generate(&db(), 512, &mut rng).unwrap();
        let identity = ring.identity(Uid(1)).unwrap();
        let ct = ring.user_public(Uid(1)).unwrap().encrypt(&mut rng, b"hello").unwrap();
        assert_eq!(identity.private.decrypt(&ct).unwrap(), b"hello");
    }

    #[test]
    fn kek_chain_rotation_keeps_old_blobs_and_locks_out_snapshots() {
        let mut rng = HmacDrbg::from_seed_u64(10);
        let mut chain = KekChain::generate(&mut rng);
        assert_eq!(chain.current_version(), 0);
        let old_blob = chain.seal(&mut rng, b"v0 secret");

        let snapshot = chain.snapshot_through(0);
        assert_eq!(chain.rotate(&mut rng), 1);
        let new_blob = chain.seal(&mut rng, b"v1 secret");
        assert_eq!(KekChain::sealed_version(&new_blob).unwrap(), 1);

        // Old-version blobs stay decryptable after rotation.
        assert_eq!(chain.open(&old_blob).unwrap(), b"v0 secret");
        assert_eq!(chain.open(&new_blob).unwrap(), b"v1 secret");

        // The rotated-away snapshot provably cannot open new blobs.
        assert_eq!(snapshot.open(&old_blob).unwrap(), b"v0 secret");
        assert!(matches!(snapshot.open(&new_blob), Err(CoreError::TamperDetected(_))));

        // Retiring destroys the old version; the current one survives.
        assert_eq!(chain.retire_through(0), 1);
        assert!(matches!(chain.open(&old_blob), Err(CoreError::TamperDetected(_))));
        assert_eq!(chain.open(&new_blob).unwrap(), b"v1 secret");
        assert_eq!(chain.retire_through(99), 0, "current version never retires");
    }

    #[test]
    fn kek_chain_publishes_in_band() {
        let mut rng = HmacDrbg::from_seed_u64(11);
        let rsa = RsaPrivateKey::generate(512, &mut rng).unwrap();
        let mut chain = KekChain::generate(&mut rng);
        chain.rotate(&mut rng);
        let blob = chain.seal(&mut rng, b"escrow");
        let sealed = chain.seal_for(rsa.public_key(), &mut rng).unwrap();
        let recovered = KekChain::open_with(&rsa, &sealed).unwrap();
        assert_eq!(recovered, chain);
        assert_eq!(recovered.open(&blob).unwrap(), b"escrow");

        let other = RsaPrivateKey::generate(512, &mut rng).unwrap();
        assert!(KekChain::open_with(&other, &sealed).is_err());
        assert!(KekChain::from_wire(&[0, 0, 0, 0]).is_err(), "empty chain rejected");
    }

    #[test]
    fn kek_chain_with_a_huge_count_is_a_typed_error() {
        // A count of 2^32 - 1 and one truncated slot must not preallocate
        // for the count.
        assert!(matches!(
            KekChain::from_wire(&[0xff, 0xff, 0xff, 0xff, 0x01]),
            Err(NetError::Codec(_))
        ));
    }

    #[test]
    fn group_key_install_and_lookup() {
        let mut rng = HmacDrbg::from_seed_u64(3);
        let ring = Keyring::generate(&db(), 512, &mut rng).unwrap();
        let identity = ring.identity(Uid(1)).unwrap();
        assert!(identity.group_key(Gid(10)).is_none());
        identity.install_group_key(Gid(10), ring.group_private(Gid(10)).unwrap().clone());
        assert!(identity.group_key(Gid(10)).is_some());
    }
}
