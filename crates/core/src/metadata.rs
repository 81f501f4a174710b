//! Metadata objects: layout, wire codec, sealing, and signing.
//!
//! A metadata object (paper Figure 2) carries the traditional attributes
//! plus the key fields that make metadata "not only point to the data block
//! but also provide knowledge (keys) to appropriately read/write to that
//! data block". Field *presence* is per-CAP: a replica for a read-only class
//! simply does not contain the DSK.

use crate::error::{CoreError, Result};
use crate::ids::ClassTag;
use sharoes_crypto::{
    HmacDrbg, RandomSource, RsaPrivateKey, RsaPublicKey, SigningKey, SymKey, VerifyKey,
};
use sharoes_fs::{NodeKind, Uid};
use sharoes_net::{Cursor, NetError, ObjectKey, WireRead, WireWrite};

/// Identifies which replica view a principal follows.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ViewId {
    /// Scheme-1 (and all baselines): the per-user tree of `uid`.
    User(u32),
    /// Scheme-2: a shared CAP instance.
    Class(ClassTag),
}

impl ViewId {
    /// The 16-byte SSP view tag for this view of `inode`.
    pub fn tag(&self, inode: u64) -> [u8; 16] {
        match self {
            ViewId::User(uid) => crate::ids::user_view(Uid(*uid)),
            ViewId::Class(class) => crate::ids::cap_view(inode, *class),
        }
    }
}

impl WireWrite for ViewId {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            ViewId::User(u) => {
                0u8.write(out);
                u.write(out);
            }
            ViewId::Class(c) => {
                1u8.write(out);
                c.write(out);
            }
        }
    }
}

impl WireRead for ViewId {
    fn read(r: &mut Cursor<'_>) -> std::result::Result<Self, NetError> {
        Ok(match u8::read(r)? {
            0 => ViewId::User(u32::read(r)?),
            1 => ViewId::Class(ClassTag::read(r)?),
            _ => return Err(NetError::Codec("unknown view id tag")),
        })
    }
}

/// One ACL entry as carried inside metadata (plaintext attributes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AclEntryWire {
    /// True for a named-group entry.
    pub is_group: bool,
    /// uid or gid.
    pub id: u32,
    /// rwx bits (0..=7).
    pub bits: u8,
}

impl WireWrite for AclEntryWire {
    fn write(&self, out: &mut Vec<u8>) {
        self.is_group.write(out);
        self.id.write(out);
        self.bits.write(out);
    }
}

impl WireRead for AclEntryWire {
    fn read(r: &mut Cursor<'_>) -> std::result::Result<Self, NetError> {
        Ok(AclEntryWire { is_group: bool::read(r)?, id: u32::read(r)?, bits: u8::read(r)? })
    }
}

/// The plaintext content of one metadata replica.
#[derive(Clone, Debug)]
pub struct MetadataBody {
    /// Inode number.
    pub inode: u64,
    /// File or directory.
    pub kind: NodeKind,
    /// Owner uid.
    pub owner: u32,
    /// Owning group gid.
    pub group: u32,
    /// Mode bits (octal encoding).
    pub mode: u32,
    /// File size in bytes (directory: entry count).
    pub size: u64,
    /// Number of data blocks.
    pub nblocks: u32,
    /// Key epoch; bumped on revocation so data moves to a fresh view.
    pub generation: u64,
    /// Monotonic metadata version, bumped on every owner metadata rewrite.
    /// Clients remember the highest version seen per replica and flag any
    /// regression as SSP rollback (session-level freshness; full fork
    /// consistency is SUNDR's job, paper §VI).
    pub version: u64,
    /// Lazy-revocation marker: access was revoked but keys not yet rotated;
    /// the next owner write must rotate the DEK (§IV-A.1).
    pub rekey_pending: bool,
    /// ACL entries (attributes; the cryptographic effect lives in CAPs).
    pub acl: Vec<AclEntryWire>,
    /// DEK: data encryption key (file content / this class's table replica).
    pub dek: Option<SymKey>,
    /// DVK: data verification key.
    pub dvk: Option<VerifyKey>,
    /// DSK: data signing key (writers only).
    pub dsk: Option<SigningKey>,
    /// MSK: metadata signing key (owners only).
    pub msk: Option<SigningKey>,
    /// For writable directory CAPs: the table keys of *all* replicas, so a
    /// writer can update every CAP's view on mkdir/create/unlink/rename
    /// (paper Figure 8: "\[*\] per required CAP").
    pub write_teks: Vec<(ViewId, SymKey)>,
    /// For owner CAPs under SHAROES: the MEKs of every replica, so the owner
    /// can rebuild all views on chmod/set_acl without touching the parent.
    pub owner_meks: Vec<(ViewId, SymKey)>,
}

impl MetadataBody {
    /// A key-less body with the given attributes.
    pub fn bare(inode: u64, kind: NodeKind, owner: u32, group: u32, mode: u32) -> Self {
        MetadataBody {
            inode,
            kind,
            owner,
            group,
            mode,
            size: 0,
            nblocks: 0,
            generation: 0,
            version: 1,
            rekey_pending: false,
            acl: Vec::new(),
            dek: None,
            dvk: None,
            dsk: None,
            msk: None,
            write_teks: Vec::new(),
            owner_meks: Vec::new(),
        }
    }
}

fn write_opt_key(out: &mut Vec<u8>, key: &Option<SymKey>) {
    match key {
        None => 0u8.write(out),
        Some(k) => {
            1u8.write(out);
            k.0.write(out);
        }
    }
}

fn read_opt_key(r: &mut Cursor<'_>) -> std::result::Result<Option<SymKey>, NetError> {
    match u8::read(r)? {
        0 => Ok(None),
        1 => Ok(Some(SymKey(<[u8; 16]>::read(r)?))),
        _ => Err(NetError::Codec("invalid key option")),
    }
}

fn write_opt_blob(out: &mut Vec<u8>, blob: &Option<Vec<u8>>) {
    blob.write(out);
}

impl WireWrite for MetadataBody {
    fn write(&self, out: &mut Vec<u8>) {
        self.inode.write(out);
        (matches!(self.kind, NodeKind::Dir) as u8).write(out);
        self.owner.write(out);
        self.group.write(out);
        self.mode.write(out);
        self.size.write(out);
        self.nblocks.write(out);
        self.generation.write(out);
        self.version.write(out);
        self.rekey_pending.write(out);
        self.acl.write(out);
        write_opt_key(out, &self.dek);
        write_opt_blob(out, &self.dvk.as_ref().map(|k| k.to_bytes()));
        write_opt_blob(out, &self.dsk.as_ref().map(|k| k.to_bytes()));
        write_opt_blob(out, &self.msk.as_ref().map(|k| k.to_bytes()));
        (self.write_teks.len() as u32).write(out);
        for (view, tek) in &self.write_teks {
            view.write(out);
            tek.0.write(out);
        }
        (self.owner_meks.len() as u32).write(out);
        for (view, mek) in &self.owner_meks {
            view.write(out);
            mek.0.write(out);
        }
    }
}

impl WireRead for MetadataBody {
    fn read(r: &mut Cursor<'_>) -> std::result::Result<Self, NetError> {
        let inode = u64::read(r)?;
        let kind = if u8::read(r)? == 1 { NodeKind::Dir } else { NodeKind::File };
        let owner = u32::read(r)?;
        let group = u32::read(r)?;
        let mode = u32::read(r)?;
        let size = u64::read(r)?;
        let nblocks = u32::read(r)?;
        let generation = u64::read(r)?;
        let version = u64::read(r)?;
        let rekey_pending = bool::read(r)?;
        let acl = Vec::<AclEntryWire>::read(r)?;
        let dek = read_opt_key(r)?;
        let parse_vk = |b: Option<Vec<u8>>| -> std::result::Result<Option<VerifyKey>, NetError> {
            b.map(|bytes| VerifyKey::from_bytes(&bytes))
                .transpose()
                .map_err(|_| NetError::Codec("bad verify key"))
        };
        let parse_sk = |b: Option<Vec<u8>>| -> std::result::Result<Option<SigningKey>, NetError> {
            b.map(|bytes| SigningKey::from_bytes(&bytes))
                .transpose()
                .map_err(|_| NetError::Codec("bad signing key"))
        };
        let dvk = parse_vk(Option::<Vec<u8>>::read(r)?)?;
        let dsk = parse_sk(Option::<Vec<u8>>::read(r)?)?;
        let msk = parse_sk(Option::<Vec<u8>>::read(r)?)?;
        let n = u32::read(r)? as usize;
        if n > r.remaining() {
            return Err(NetError::Codec("write_teks length exceeds input"));
        }
        let mut write_teks = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let view = ViewId::read(r)?;
            let tek = SymKey(<[u8; 16]>::read(r)?);
            write_teks.push((view, tek));
        }
        let n = u32::read(r)? as usize;
        if n > r.remaining() {
            return Err(NetError::Codec("owner_meks length exceeds input"));
        }
        let mut owner_meks = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let view = ViewId::read(r)?;
            let mek = SymKey(<[u8; 16]>::read(r)?);
            owner_meks.push((view, mek));
        }
        Ok(MetadataBody {
            inode,
            kind,
            owner,
            group,
            mode,
            size,
            nblocks,
            generation,
            version,
            rekey_pending,
            acl,
            dek,
            dvk,
            dsk,
            msk,
            write_teks,
            owner_meks,
        })
    }
}

/// A stored object: ciphertext (or plaintext for NO-ENC policies) plus an
/// optional signature binding it to its SSP slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedObject {
    /// Encrypted (or plain) body bytes.
    pub ciphertext: Vec<u8>,
    /// Signature over `signing_context(key) || ciphertext`, if the policy
    /// signs.
    pub signature: Option<Vec<u8>>,
}

impl WireWrite for SealedObject {
    fn write(&self, out: &mut Vec<u8>) {
        self.ciphertext.write(out);
        self.signature.write(out);
    }
}

impl WireRead for SealedObject {
    fn read(r: &mut Cursor<'_>) -> std::result::Result<Self, NetError> {
        let sealed = SealedRef::read(r)?;
        Ok(SealedObject {
            ciphertext: sealed.ciphertext.to_vec(),
            signature: sealed.signature.map(<[u8]>::to_vec),
        })
    }
}

/// A borrowed view of a sealed record's wire bytes: the fields of a
/// [`SealedObject`], decoded by the same rules, pointing into the record
/// instead of copied out of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SealedRef<'a> {
    /// Encrypted (or plain) body bytes.
    pub ciphertext: &'a [u8],
    /// Signature over `signing_context(key) || ciphertext`, if any.
    pub signature: Option<&'a [u8]>,
}

impl<'a> SealedRef<'a> {
    /// Decodes a whole record.
    pub fn parse(record: &'a [u8]) -> std::result::Result<Self, NetError> {
        let mut cur = Cursor::new(record);
        let sealed = Self::read(&mut cur)?;
        cur.expect_end()?;
        Ok(sealed)
    }

    fn read(r: &mut Cursor<'a>) -> std::result::Result<Self, NetError> {
        let ciphertext = r.take_bytes()?;
        let signature = match u8::read(r)? {
            0 => None,
            1 => Some(r.take_bytes()?),
            _ => return Err(NetError::Codec("invalid option tag")),
        };
        Ok(SealedRef { ciphertext, signature })
    }

    /// Verifies the signature for slot `key`; `None` verifier skips.
    pub fn verify(&self, key: &ObjectKey, verifier: Option<&VerifyKey>) -> Result<()> {
        let Some(vk) = verifier else { return Ok(()) };
        let Some(sig) = self.signature else {
            return Err(CoreError::TamperDetected(format!("missing signature on {key:?}")));
        };
        let mut msg = signing_context(key);
        msg.extend_from_slice(self.ciphertext);
        vk.verify(&msg, sig)
            .map_err(|_| CoreError::TamperDetected(format!("bad signature on {key:?}")))
    }
}

/// Domain-separation prefix binding a signature to the slot it protects, so
/// a malicious SSP cannot swap signed objects between keys.
pub fn signing_context(key: &ObjectKey) -> Vec<u8> {
    let mut ctx = Vec::with_capacity(64);
    ctx.extend_from_slice(b"sharoes:sig:v1");
    key.write(&mut ctx);
    ctx
}

impl SealedObject {
    /// Signs `ciphertext` for slot `key` with `signer`.
    pub fn signed<R: RandomSource + ?Sized>(
        ciphertext: Vec<u8>,
        key: &ObjectKey,
        signer: &SigningKey,
        rng: &mut R,
    ) -> Self {
        let mut msg = signing_context(key);
        msg.extend_from_slice(&ciphertext);
        let signature = signer.sign(rng, &msg);
        SealedObject { ciphertext, signature: Some(signature) }
    }

    /// An unsigned object (baseline policies).
    pub fn unsigned(ciphertext: Vec<u8>) -> Self {
        SealedObject { ciphertext, signature: None }
    }

    /// The wire record of an unsigned object whose ciphertext is
    /// `prefix || body` after `seal` has rewritten it in place: the bytes
    /// of `SealedObject::unsigned(ciphertext).to_wire()`, built in one
    /// allocation with no intermediate ciphertext.
    pub fn unsigned_wire(prefix: &[u8], body: &[u8], seal: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let len = prefix.len() + body.len();
        let mut record = Vec::with_capacity(4 + len + 1);
        (len as u32).write(&mut record);
        record.extend_from_slice(prefix);
        record.extend_from_slice(body);
        seal(&mut record[4..]);
        record.push(0); // no signature
        record
    }

    /// Signs, for slot `key`, a record [`SealedObject::unsigned_wire`]
    /// built, in place: the bytes of
    /// `SealedObject::signed(ciphertext, key, signer, rng).to_wire()`.
    pub fn sign_wire<R: RandomSource + ?Sized>(
        record: &mut Vec<u8>,
        key: &ObjectKey,
        signer: &SigningKey,
        rng: &mut R,
    ) {
        debug_assert_eq!(record.last(), Some(&0), "an unsigned record");
        let mut msg = signing_context(key);
        msg.extend_from_slice(&record[4..record.len() - 1]);
        let signature = signer.sign(rng, &msg);
        record.pop();
        Some(signature).write(record);
    }

    /// Verifies the signature for slot `key`; `None` verifier skips.
    pub fn verify(&self, key: &ObjectKey, verifier: Option<&VerifyKey>) -> Result<()> {
        SealedRef { ciphertext: &self.ciphertext, signature: self.signature.as_deref() }
            .verify(key, verifier)
    }
}

/// How to seal a metadata body (policy-dependent).
pub enum MetaSeal<'a> {
    /// No encryption (NO-ENC-MD-D, NO-ENC-MD).
    Plain,
    /// Symmetric with the replica's MEK (SHAROES).
    Sym(&'a SymKey),
    /// Whole body public-key encrypted (PUBLIC).
    Public(&'a RsaPublicKey),
    /// Hybrid: fresh symmetric key wrapped with the public key (PUB-OPT).
    PubOpt(&'a RsaPublicKey),
}

/// How to open a sealed metadata body.
pub enum MetaOpen<'a> {
    /// Plaintext.
    Plain,
    /// Symmetric MEK.
    Sym(&'a SymKey),
    /// User private key: PUBLIC (whole-blob) decryption.
    Public(&'a RsaPrivateKey),
    /// User private key: PUB-OPT (unwrap key, then symmetric).
    PubOpt(&'a RsaPrivateKey),
}

/// Seals serialized body bytes per policy.
pub fn seal_metadata<R: RandomSource + ?Sized>(
    seal: MetaSeal<'_>,
    body: &[u8],
    rng: &mut R,
) -> Result<Vec<u8>> {
    Ok(match seal {
        MetaSeal::Plain => body.to_vec(),
        MetaSeal::Sym(mek) => mek.seal(rng, body),
        MetaSeal::Public(pk) => pk.encrypt_blob(rng, body)?,
        MetaSeal::PubOpt(pk) => {
            let mek = SymKey::random(rng);
            let wrapped = pk.encrypt(rng, &mek.0)?;
            let mut out = Vec::with_capacity(wrapped.len() + body.len() + 24);
            wrapped.write(&mut out);
            let sealed = mek.seal(rng, body);
            sealed.write(&mut out);
            out
        }
    })
}

/// Opens sealed metadata bytes per policy.
pub fn open_metadata(open: MetaOpen<'_>, blob: &[u8]) -> Result<Vec<u8>> {
    Ok(match open {
        MetaOpen::Plain => blob.to_vec(),
        MetaOpen::Sym(mek) => mek.open(blob)?,
        MetaOpen::Public(sk) => sk.decrypt_blob(blob)?,
        MetaOpen::PubOpt(sk) => {
            let mut cur = Cursor::new(blob);
            let wrapped =
                Vec::<u8>::read(&mut cur).map_err(|_| CoreError::Corrupt("pub-opt header"))?;
            let sealed =
                Vec::<u8>::read(&mut cur).map_err(|_| CoreError::Corrupt("pub-opt body"))?;
            cur.expect_end().map_err(|_| CoreError::Corrupt("pub-opt trailing"))?;
            let key_bytes = sk.decrypt(&wrapped)?;
            let mek = SymKey::from_slice(&key_bytes)?;
            mek.open(&sealed)?
        }
    })
}

/// Convenience: deterministic RNG for tests.
pub fn test_rng(seed: u64) -> HmacDrbg {
    HmacDrbg::from_seed_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CryptoParams;
    use sharoes_crypto::generate_signing_pair;

    fn sample_body(with_keys: bool) -> MetadataBody {
        let mut rng = test_rng(1);
        let mut body = MetadataBody::bare(42, NodeKind::Dir, 1000, 100, 0o755);
        body.size = 3;
        body.nblocks = 1;
        body.generation = 2;
        body.acl.push(AclEntryWire { is_group: false, id: 7, bits: 0o5 });
        if with_keys {
            let p = CryptoParams::test();
            let (dsk, dvk) = generate_signing_pair(p.sig_scheme, p.sig_bits, &mut rng).unwrap();
            let (msk, _) = generate_signing_pair(p.sig_scheme, p.sig_bits, &mut rng).unwrap();
            body.dek = Some(SymKey::random(&mut rng));
            body.dvk = Some(dvk);
            body.dsk = Some(dsk);
            body.msk = Some(msk);
            body.write_teks = vec![
                (ViewId::Class(ClassTag::Owner), SymKey::random(&mut rng)),
                (ViewId::User(5), SymKey::random(&mut rng)),
            ];
            body.owner_meks = vec![(ViewId::Class(ClassTag::Other), SymKey::random(&mut rng))];
        }
        body
    }

    fn assert_bodies_equal(a: &MetadataBody, b: &MetadataBody) {
        assert_eq!(a.inode, b.inode);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.owner, b.owner);
        assert_eq!(a.mode, b.mode);
        assert_eq!(a.acl, b.acl);
        assert_eq!(a.dek, b.dek);
        assert_eq!(a.dvk, b.dvk);
        assert_eq!(a.dek.is_some(), b.dek.is_some());
        assert_eq!(a.dsk.is_some(), b.dsk.is_some());
        assert_eq!(a.msk.is_some(), b.msk.is_some());
        assert_eq!(a.write_teks.len(), b.write_teks.len());
        for ((v1, k1), (v2, k2)) in a.write_teks.iter().zip(b.write_teks.iter()) {
            assert_eq!(v1, v2);
            assert_eq!(k1, k2);
        }
        assert_eq!(a.owner_meks.len(), b.owner_meks.len());
    }

    #[test]
    fn body_codec_roundtrip() {
        for with_keys in [false, true] {
            let body = sample_body(with_keys);
            let decoded = MetadataBody::from_wire(&body.to_wire()).unwrap();
            assert_bodies_equal(&body, &decoded);
        }
    }

    #[test]
    fn body_codec_rejects_garbage() {
        assert!(MetadataBody::from_wire(&[1, 2, 3]).is_err());
        let mut bytes = sample_body(true).to_wire();
        bytes.truncate(bytes.len() / 2);
        assert!(MetadataBody::from_wire(&bytes).is_err());
    }

    #[test]
    fn all_seal_policies_roundtrip() {
        let mut rng = test_rng(2);
        let rsa = RsaPrivateKey::generate(512, &mut rng).unwrap();
        let mek = SymKey::random(&mut rng);
        let body = sample_body(true).to_wire();

        let plain = seal_metadata(MetaSeal::Plain, &body, &mut rng).unwrap();
        assert_eq!(open_metadata(MetaOpen::Plain, &plain).unwrap(), body);
        assert_eq!(plain, body, "plain sealing must not transform bytes");

        let sym = seal_metadata(MetaSeal::Sym(&mek), &body, &mut rng).unwrap();
        assert_ne!(sym, body);
        assert_eq!(open_metadata(MetaOpen::Sym(&mek), &sym).unwrap(), body);

        let public = seal_metadata(MetaSeal::Public(rsa.public_key()), &body, &mut rng).unwrap();
        assert!(public.len() > body.len());
        assert_eq!(open_metadata(MetaOpen::Public(&rsa), &public).unwrap(), body);

        let pubopt = seal_metadata(MetaSeal::PubOpt(rsa.public_key()), &body, &mut rng).unwrap();
        assert_eq!(open_metadata(MetaOpen::PubOpt(&rsa), &pubopt).unwrap(), body);

        // PUB-OPT pays one RSA block regardless of body size; PUBLIC pays
        // one per chunk — the entire point of the optimization. Visible on
        // bodies larger than one RSA block.
        let big = vec![0xAB; 4096];
        let public_big = seal_metadata(MetaSeal::Public(rsa.public_key()), &big, &mut rng).unwrap();
        let pubopt_big = seal_metadata(MetaSeal::PubOpt(rsa.public_key()), &big, &mut rng).unwrap();
        assert!(pubopt_big.len() < public_big.len());
        assert_eq!(open_metadata(MetaOpen::PubOpt(&rsa), &pubopt_big).unwrap(), big);
        assert_eq!(open_metadata(MetaOpen::Public(&rsa), &public_big).unwrap(), big);
    }

    #[test]
    fn signature_binds_slot() {
        let mut rng = test_rng(3);
        let p = CryptoParams::test();
        let (msk, mvk) = generate_signing_pair(p.sig_scheme, p.sig_bits, &mut rng).unwrap();
        let key = ObjectKey::metadata(1, [1; 16]);
        let other = ObjectKey::metadata(2, [1; 16]);
        let obj = SealedObject::signed(vec![1, 2, 3], &key, &msk, &mut rng);
        obj.verify(&key, Some(&mvk)).unwrap();
        // Swapping the object into another slot must fail verification.
        assert!(matches!(obj.verify(&other, Some(&mvk)), Err(CoreError::TamperDetected(_))));
        // Bit-flip in ciphertext fails.
        let mut bad = obj.clone();
        bad.ciphertext[0] ^= 1;
        assert!(bad.verify(&key, Some(&mvk)).is_err());
        // Missing signature fails when a verifier is expected.
        let unsigned = SealedObject::unsigned(vec![1]);
        assert!(unsigned.verify(&key, Some(&mvk)).is_err());
        // No verifier: unsigned passes (baseline policies).
        unsigned.verify(&key, None).unwrap();
    }

    #[test]
    fn sealed_object_codec() {
        let obj = SealedObject { ciphertext: vec![9; 40], signature: Some(vec![1; 8]) };
        assert_eq!(SealedObject::from_wire(&obj.to_wire()).unwrap(), obj);
        let obj = SealedObject::unsigned(vec![]);
        assert_eq!(SealedObject::from_wire(&obj.to_wire()).unwrap(), obj);
    }

    #[test]
    fn borrowed_view_decodes_what_the_owned_codec_does() {
        let signed = SealedObject { ciphertext: vec![9; 40], signature: Some(vec![1; 8]) };
        for obj in [signed, SealedObject::unsigned(vec![]), SealedObject::unsigned(vec![7; 5])] {
            let wire = obj.to_wire();
            let view = SealedRef::parse(&wire).unwrap();
            assert_eq!(view.ciphertext, &obj.ciphertext[..]);
            assert_eq!(view.signature, obj.signature.as_deref());
            // Every truncation, an extra byte and a bad option tag fail.
            for cut in 0..wire.len() {
                assert!(SealedRef::parse(&wire[..cut]).is_err(), "cut at {cut}");
            }
            let mut long = wire.clone();
            long.push(0);
            assert!(SealedRef::parse(&long).is_err());
        }
        let mut bad_tag = SealedObject::unsigned(vec![3; 4]).to_wire();
        *bad_tag.last_mut().unwrap() = 2;
        assert!(SealedRef::parse(&bad_tag).is_err());
        assert!(SealedObject::from_wire(&bad_tag).is_err());
    }

    #[test]
    fn unsigned_wire_matches_the_owned_encoding() {
        for (prefix, body) in [(&[][..], &[][..]), (&[1u8; 16][..], &[2u8; 33][..])] {
            let ciphertext = [prefix, body].concat();
            let sealed: Vec<u8> = ciphertext.iter().map(|b| b ^ 0x5a).collect();
            let record = SealedObject::unsigned_wire(prefix, body, |ct| {
                assert_eq!(ct, &ciphertext[..]);
                ct.iter_mut().for_each(|b| *b ^= 0x5a);
            });
            assert_eq!(record, SealedObject::unsigned(sealed).to_wire());
        }
    }

    #[test]
    fn sign_wire_matches_the_owned_encoding() {
        let p = CryptoParams::test();
        let (dsk, _) = generate_signing_pair(p.sig_scheme, p.sig_bits, &mut test_rng(4)).unwrap();
        let key = ObjectKey::data(7, [3; 16], 0);
        for body in [&[][..], &[5u8; 300][..]] {
            let mut record = SealedObject::unsigned_wire(&[1; 16], body, |_| {});
            SealedObject::sign_wire(&mut record, &key, &dsk, &mut test_rng(5));
            let owned =
                SealedObject::signed([&[1; 16], body].concat(), &key, &dsk, &mut test_rng(5));
            assert_eq!(record, owned.to_wire());
        }
    }

    #[test]
    fn view_id_tags() {
        assert_eq!(ViewId::User(1).tag(5), ViewId::User(1).tag(9), "user views ignore inode");
        assert_ne!(
            ViewId::Class(ClassTag::Owner).tag(5),
            ViewId::Class(ClassTag::Owner).tag(9),
            "cap views bind the inode"
        );
        for v in [ViewId::User(3), ViewId::Class(ClassTag::AclGroup(8))] {
            assert_eq!(ViewId::from_wire(&v.to_wire()).unwrap(), v);
        }
    }
}
