//! Layout engine: materializes filesystem objects as encrypted SSP records.
//!
//! This module is shared by the migration tool (bulk transition, §IV) and
//! the client's write operations (mkdir/mknod/chmod, Figure 8). It knows how
//! to:
//!
//! * enumerate the replica **views** of an object (per-user for Scheme-1 and
//!   all baselines, per permission class for Scheme-2),
//! * derive each view's **CAP** and build the correspondingly filtered
//!   metadata replica,
//! * build per-view **directory-table** materializations (names-only, full,
//!   exec-only),
//! * compute Scheme-2 **continuations and split points** from class
//!   populations (§III-D.2), and
//! * chunk, seal, and sign **file data** blocks and their manifest.

use crate::cap::{dir_cap, file_cap, TableAccess};
use crate::dirtable::{ChildRef, DirTable};
use crate::error::{CoreError, Result};
use crate::ids::{self, ClassTag};
use crate::keyring::Pki;
use crate::metadata::{
    seal_metadata, AclEntryWire, MetaSeal, MetadataBody, SealedObject, SealedRef, ViewId,
};
use crate::params::{CryptoPolicy, Scheme};
use crate::superblock::Superblock;
use sharoes_crypto::modes::{ctr_seal, ctr_xor};
use sharoes_crypto::{RandomSource, Sha256, SigningKey, SymKey, VerifyKey};
use sharoes_fs::{
    class_perm_with_acl, classify_with_acl, Acl, AclClass, Gid, Mode, NodeKind, Perm, Uid, UserDb,
};
use sharoes_net::{Cursor, NetError, ObjectKey, WireRead, WireWrite};
use std::collections::{BTreeMap, HashMap};

/// Block index reserved for the per-file manifest (size + block count +
/// per-block ciphertext hashes).
pub const MANIFEST_BLOCK: u32 = u32::MAX;

/// The per-file data manifest: the single DSK-signed object that
/// authenticates a file's entire content, mirroring the paper's "writers
/// sign the hash of the file content" (§II-B). Individual data blocks are
/// not signed; readers check each block's ciphertext hash against this
/// manifest instead — one signature (and one verification) per file, not
/// per block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// File length in bytes.
    pub size: u64,
    /// Monotonic write version within one key generation; clients flag
    /// regressions as rollback.
    pub version: u64,
    /// Number of data blocks.
    pub nblocks: u32,
    /// SHA-256 of each block's ciphertext (empty when the policy does not
    /// sign).
    pub block_hashes: Vec<[u8; 32]>,
}

impl Manifest {
    /// The write version a new file's first manifest carries.
    pub const FIRST_VERSION: u64 = 1;

    /// The manifest [`Layout::data_records`] seals for empty content: what
    /// a newly created file's manifest record opens to.
    pub fn empty() -> Manifest {
        Manifest { size: 0, version: Self::FIRST_VERSION, nblocks: 0, block_hashes: Vec::new() }
    }

    /// Serializes the manifest payload.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + 32 * self.block_hashes.len());
        self.size.write(&mut out);
        self.version.write(&mut out);
        self.nblocks.write(&mut out);
        (self.block_hashes.len() as u32).write(&mut out);
        for h in &self.block_hashes {
            out.extend_from_slice(h);
        }
        out
    }

    /// Parses a manifest payload.
    pub fn from_wire(plain: &[u8]) -> Result<Manifest> {
        let mut cur = Cursor::new(plain);
        let size = u64::read(&mut cur).map_err(|_| CoreError::Corrupt("manifest size"))?;
        let version = u64::read(&mut cur).map_err(|_| CoreError::Corrupt("manifest version"))?;
        let nblocks = u32::read(&mut cur).map_err(|_| CoreError::Corrupt("manifest nblocks"))?;
        let nhashes =
            u32::read(&mut cur).map_err(|_| CoreError::Corrupt("manifest hashes"))? as usize;
        if nhashes != 0 && nhashes != nblocks as usize {
            return Err(CoreError::Corrupt("manifest hash count"));
        }
        let mut block_hashes = Vec::with_capacity(nhashes.min(65_536));
        for _ in 0..nhashes {
            block_hashes
                .push(<[u8; 32]>::read(&mut cur).map_err(|_| CoreError::Corrupt("manifest hash"))?);
        }
        cur.expect_end().map_err(|_| CoreError::Corrupt("manifest trailing"))?;
        Ok(Manifest { size, version, nblocks, block_hashes })
    }

    /// Expected hash for block `i`, if hashes are present.
    pub fn hash_of(&self, i: u32) -> Option<&[u8; 32]> {
        self.block_hashes.get(i as usize)
    }
}

/// The keys a file's data records are sealed under: the DEK when the
/// policy encrypts data, the DSK when it signs.
#[derive(Clone, Copy)]
pub struct DataKeys<'a> {
    /// Data encryption key; `None` stores blocks and manifest in the clear.
    pub dek: Option<&'a SymKey>,
    /// Data signing key; `None` leaves the manifest unsigned and hashless.
    pub dsk: Option<&'a SigningKey>,
}

/// Seals `content` into the data records of data view `view` of `inode`:
/// the manifest first, then one unsigned record per `block_size` block.
///
/// The DEK is expanded once for the file. Each block is copied straight
/// into its wire record (`len || iv || ct || 0`) and encrypted there, its
/// IV drawn in block order; the block ciphertext hashes the manifest
/// carries are then computed in one batch ([`Sha256::digest_many`]), and
/// the manifest is sealed and signed last. The DRBG draws, and so every
/// byte, are those of sealing block by block with [`SymKey::seal`].
pub fn seal_data<R: RandomSource + ?Sized>(
    inode: u64,
    view: [u8; 16],
    block_size: usize,
    content: &[u8],
    version: u64,
    keys: DataKeys<'_>,
    rng: &mut R,
) -> Vec<(ObjectKey, Vec<u8>)> {
    let aes = keys.dek.map(SymKey::cipher);
    let nblocks = content.len().div_ceil(block_size);
    let mkey = ObjectKey::data(inode, view, MANIFEST_BLOCK);
    let mut records = Vec::with_capacity(nblocks + 1);
    records.push((mkey, Vec::new()));
    for (i, chunk) in content.chunks(block_size).enumerate() {
        let record = match &aes {
            Some(aes) => {
                let mut iv = [0u8; 16];
                rng.fill_bytes(&mut iv);
                SealedObject::unsigned_wire(&iv, chunk, |ct| ctr_xor(aes, &iv, &mut ct[16..]))
            }
            None => SealedObject::unsigned_wire(&[], chunk, |_| {}),
        };
        records.push((ObjectKey::data(inode, view, i as u32), record));
    }

    let block_hashes = if keys.dsk.is_some() {
        let ciphertexts: Vec<&[u8]> = records[1..]
            .iter()
            .map(|(_, record)| SealedRef::parse(record).expect("record built above").ciphertext)
            .collect();
        Sha256::digest_many(&ciphertexts)
    } else {
        Vec::new()
    };
    let manifest =
        Manifest { size: content.len() as u64, version, nblocks: nblocks as u32, block_hashes };
    let mplain = manifest.to_wire();
    let mciphertext = match &aes {
        Some(aes) => ctr_seal(aes, rng, &mplain),
        None => mplain,
    };
    let msealed = match keys.dsk {
        Some(dsk) => SealedObject::signed(mciphertext, &mkey, dsk, rng),
        None => SealedObject::unsigned(mciphertext),
    };
    records[0].1 = msealed.to_wire();
    records
}

/// The keys a directory's table replica is sealed under: its view's TEK
/// when the policy encrypts data, the directory's DSK when it signs.
#[derive(Clone, Copy)]
pub struct TableKeys<'a> {
    /// Table encryption key; `None` stores the table in the clear.
    pub tek: Option<&'a SymKey>,
    /// Directory signing key; `None` leaves the record unsigned.
    pub dsk: Option<&'a SigningKey>,
}

/// Seals `table` into the table record for slot `key`: its plaintext
/// bytes are copied once into the record and encrypted there under the
/// TEK, and the record is then signed with the DSK, as [`seal_data`] seals
/// a file. The DRBG draws, and so every byte, are those of [`SymKey::seal`]
/// followed by [`SealedObject::signed`]. The one place a table record is
/// sealed (paper Figure 3, §III-A).
pub fn seal_table<R: RandomSource + ?Sized>(
    key: &ObjectKey,
    table: &DirTable,
    keys: TableKeys<'_>,
    rng: &mut R,
) -> Vec<u8> {
    let plain = table.as_bytes();
    let mut record = match keys.tek {
        Some(tek) => {
            let mut iv = [0u8; 16];
            rng.fill_bytes(&mut iv);
            SealedObject::unsigned_wire(&iv, plain, |ct| ctr_xor(&tek.cipher(), &iv, &mut ct[16..]))
        }
        None => SealedObject::unsigned_wire(&[], plain, |_| {}),
    };
    if let Some(dsk) = keys.dsk {
        SealedObject::sign_wire(&mut record, key, dsk, rng);
    }
    record
}

/// Opens a table record that [`seal_table`] sealed for slot `key`: checks
/// it against `dvk` when `policy` signs, decrypts it under `tek` when
/// `policy` encrypts data, and opens the table on the plaintext, which it
/// keeps (its length is what a cache charges). A bad signature is
/// [`CoreError::TamperDetected`] and is reported before a missing TEK.
pub fn open_table(
    policy: CryptoPolicy,
    key: &ObjectKey,
    record: &[u8],
    tek: Option<&SymKey>,
    dvk: Option<&VerifyKey>,
) -> Result<DirTable> {
    let sealed = SealedRef::parse(record).map_err(|_| CoreError::Corrupt("sealed table"))?;
    sealed.verify(key, dvk.filter(|_| policy.signs()))?;
    let plain = if policy.encrypts_data() {
        let tek = tek.ok_or(CoreError::PermissionDenied {
            path: format!("inode#{}", key.inode),
            needed: "DEK (directory table key)",
        })?;
        tek.open(sealed.ciphertext)?
    } else {
        sealed.ciphertext.to_vec()
    };
    DirTable::from_vec(plain)
}

/// Plaintext attributes the layout engine decides from.
#[derive(Clone, Debug)]
pub struct ObjectAttrs {
    /// Inode number.
    pub inode: u64,
    /// File or directory.
    pub kind: NodeKind,
    /// Owner.
    pub owner: Uid,
    /// Owning group.
    pub group: Gid,
    /// Mode bits.
    pub mode: Mode,
    /// POSIX ACL.
    pub acl: Acl,
    /// Size in bytes at last metadata update.
    pub size: u64,
    /// Data blocks at last metadata update.
    pub nblocks: u32,
    /// Key epoch.
    pub generation: u64,
    /// Monotonic metadata version (see `MetadataBody::version`).
    pub version: u64,
    /// Lazy-revocation marker (see `MetadataBody::rekey_pending`).
    pub rekey_pending: bool,
}

impl ObjectAttrs {
    /// Fresh attributes for a new object.
    pub fn new(inode: u64, kind: NodeKind, owner: Uid, group: Gid, mode: Mode) -> Self {
        ObjectAttrs {
            inode,
            kind,
            owner,
            group,
            mode,
            acl: Acl::empty(),
            size: 0,
            nblocks: 0,
            generation: 0,
            version: 1,
            rekey_pending: false,
        }
    }

    /// Rebuilds attributes from a decrypted metadata body.
    pub fn from_body(body: &MetadataBody) -> Self {
        let mut acl = Acl::empty();
        for e in &body.acl {
            let perm = Perm::from_bits(e.bits as u32);
            if e.is_group {
                acl.set_group(Gid(e.id), perm);
            } else {
                acl.set_user(Uid(e.id), perm);
            }
        }
        ObjectAttrs {
            inode: body.inode,
            kind: body.kind,
            owner: Uid(body.owner),
            group: Gid(body.group),
            mode: Mode::from_octal(body.mode),
            acl,
            size: body.size,
            nblocks: body.nblocks,
            generation: body.generation,
            version: body.version,
            rekey_pending: body.rekey_pending,
        }
    }

    /// ACL entries in wire form.
    pub fn acl_wire(&self) -> Vec<AclEntryWire> {
        let mut out = Vec::with_capacity(self.acl.len());
        for (uid, perm) in self.acl.user_entries() {
            out.push(AclEntryWire { is_group: false, id: uid.0, bits: perm.bits() as u8 });
        }
        for (gid, perm) in self.acl.group_entries() {
            out.push(AclEntryWire { is_group: true, id: gid.0, bits: perm.bits() as u8 });
        }
        out
    }

    /// The Scheme-2 permission classes this object has.
    pub fn classes(&self) -> Vec<ClassTag> {
        let mut out = vec![ClassTag::Owner, ClassTag::Group, ClassTag::Other];
        for (uid, _) in self.acl.user_entries() {
            out.push(ClassTag::AclUser(uid.0));
        }
        for (gid, _) in self.acl.group_entries() {
            out.push(ClassTag::AclGroup(gid.0));
        }
        out
    }

    /// `uid`'s class on this object.
    pub fn class_of(&self, uid: Uid, db: &UserDb) -> ClassTag {
        match classify_with_acl(uid, self.owner, self.group, &self.acl, db) {
            AclClass::Owner => ClassTag::Owner,
            AclClass::AclUser(u) => ClassTag::AclUser(u.0),
            AclClass::Group => ClassTag::Group,
            AclClass::AclGroup(g) => ClassTag::AclGroup(g.0),
            AclClass::Other => ClassTag::Other,
        }
    }

    /// The permission a class receives on this object.
    pub fn class_perm(&self, class: ClassTag) -> Perm {
        let acl_class = match class {
            ClassTag::Owner => AclClass::Owner,
            ClassTag::Group => AclClass::Group,
            ClassTag::Other => AclClass::Other,
            ClassTag::AclUser(u) => AclClass::AclUser(Uid(u)),
            ClassTag::AclGroup(g) => AclClass::AclGroup(Gid(g)),
        };
        class_perm_with_acl(acl_class, self.mode, &self.acl)
    }

    /// `uid`'s effective permission.
    pub fn perm_of(&self, uid: Uid, db: &UserDb) -> Perm {
        self.class_perm(self.class_of(uid, db))
    }
}

/// Secret key material for one filesystem object.
#[derive(Clone, Debug)]
pub struct ObjectSecrets {
    /// File data encryption key.
    pub dek: SymKey,
    /// Per-view table encryption keys (directories).
    pub teks: HashMap<ViewId, SymKey>,
    /// Per-view metadata encryption keys (SHAROES only).
    pub meks: HashMap<ViewId, SymKey>,
    /// Signing machinery, if the policy carries signature keys.
    pub sig: Option<SigPairs>,
}

/// The DSK/DVK and MSK/MVK pairs of one object (paper Figure 2).
#[derive(Clone, Debug)]
pub struct SigPairs {
    /// Data signing key.
    pub dsk: SigningKey,
    /// Data verification key.
    pub dvk: VerifyKey,
    /// Metadata signing key.
    pub msk: SigningKey,
    /// Metadata verification key.
    pub mvk: VerifyKey,
}

/// A Scheme-2 split-point entry: the per-principal pointer to the right CAP
/// replica, public-key encrypted (§III-D.2).
#[derive(Clone, Debug, PartialEq)]
pub struct SplitEntry {
    /// View tag of the principal's true replica.
    pub view: [u8; 16],
    /// MEK for that replica (SHAROES).
    pub mek: Option<SymKey>,
    /// MVK for that replica.
    pub mvk: Option<VerifyKey>,
}

impl WireWrite for SplitEntry {
    fn write(&self, out: &mut Vec<u8>) {
        self.view.write(out);
        match &self.mek {
            None => 0u8.write(out),
            Some(k) => {
                1u8.write(out);
                k.0.write(out);
            }
        }
        self.mvk.as_ref().map(|k| k.to_bytes()).write(out);
    }
}

impl WireRead for SplitEntry {
    fn read(r: &mut Cursor<'_>) -> std::result::Result<Self, NetError> {
        Ok(SplitEntry {
            view: <[u8; 16]>::read(r)?,
            mek: match u8::read(r)? {
                0 => None,
                1 => Some(SymKey(<[u8; 16]>::read(r)?)),
                _ => return Err(NetError::Codec("invalid mek option")),
            },
            mvk: Option::<Vec<u8>>::read(r)?
                .map(|b| VerifyKey::from_bytes(&b))
                .transpose()
                .map_err(|_| NetError::Codec("bad split mvk"))?,
        })
    }
}

/// What a parent's table row (and a split entry) needs of one child: its
/// attributes, the MEKs of its metadata views that the writer holds, and the
/// MVK rows carry (`None` when the policy does not sign).
#[derive(Clone, Copy)]
pub struct ChildKeys<'a> {
    /// The child's attributes.
    pub attrs: &'a ObjectAttrs,
    /// Per-view MEKs of the child's metadata replicas.
    pub meks: &'a HashMap<ViewId, SymKey>,
    /// The child's MVK, as rows carry it.
    pub mvk: Option<&'a VerifyKey>,
}

/// The layout engine: scheme + policy + enterprise directory + PKI.
pub struct Layout<'a> {
    /// Effective replica scheme.
    pub scheme: Scheme,
    /// Which of the five implementations.
    pub policy: CryptoPolicy,
    /// File data block size.
    pub block_size: usize,
    /// Enterprise directory (class populations).
    pub db: &'a UserDb,
    /// Public keys of all principals.
    pub pki: &'a Pki,
}

impl<'a> Layout<'a> {
    /// All replica views of `attrs`, with the permission each grants.
    pub fn views(&self, attrs: &ObjectAttrs) -> Vec<(ViewId, Perm)> {
        match self.scheme {
            Scheme::PerUser => self
                .db
                .users()
                .map(|u| (ViewId::User(u.uid.0), attrs.perm_of(u.uid, self.db)))
                .collect(),
            Scheme::SharedCaps => attrs
                .classes()
                .into_iter()
                .map(|c| (ViewId::Class(c), attrs.class_perm(c)))
                .collect(),
        }
    }

    /// The view `uid` follows for `attrs`.
    pub fn view_of(&self, attrs: &ObjectAttrs, uid: Uid) -> ViewId {
        match self.scheme {
            Scheme::PerUser => ViewId::User(uid.0),
            Scheme::SharedCaps => ViewId::Class(attrs.class_of(uid, self.db)),
        }
    }

    /// True when `view` is the owner's view of `attrs`.
    pub fn is_owner_view(view: ViewId, attrs: &ObjectAttrs) -> bool {
        match view {
            ViewId::User(u) => Uid(u) == attrs.owner,
            ViewId::Class(c) => c == ClassTag::Owner,
        }
    }

    /// The table materialization stored for one directory view. The owner's
    /// replica is always a full table — the owner can reach any state via
    /// chmod, so hiding rows from them protects nothing and would break
    /// re-keying (see client::update_access).
    pub fn table_access_for(
        &self,
        view: ViewId,
        attrs: &ObjectAttrs,
        perm: Perm,
    ) -> Result<TableAccess> {
        let cap = dir_cap(perm)?;
        if Self::is_owner_view(view, attrs) {
            return Ok(TableAccess::Full);
        }
        Ok(crate::cap::effective_table_access(cap.table, self.policy.encrypts_data()))
    }

    /// The table-bearing views of directory `attrs` with their
    /// materialization levels, in [`Layout::views`] order.
    pub fn table_views(&self, attrs: &ObjectAttrs) -> Result<Vec<(ViewId, TableAccess)>> {
        let mut out = Vec::new();
        for (view, perm) in self.views(attrs) {
            let access = self.table_access_for(view, attrs, perm)?;
            if access != TableAccess::None {
                out.push((view, access));
            }
        }
        Ok(out)
    }

    /// Whether metadata bodies carry DSK/DVK/MSK material at all.
    fn carries_sig_keys(&self) -> bool {
        matches!(self.policy, CryptoPolicy::Sharoes | CryptoPolicy::Public | CryptoPolicy::PubOpt)
    }

    /// Validates that every class permission of `attrs` has a CAP; returns
    /// the offending error otherwise. Used before any materialization.
    pub fn validate_perms(&self, attrs: &ObjectAttrs) -> Result<()> {
        for (_, perm) in self.views(attrs) {
            match attrs.kind {
                NodeKind::File => {
                    file_cap(perm)?;
                }
                NodeKind::Dir => {
                    dir_cap(perm)?;
                }
            }
        }
        Ok(())
    }

    /// Generates fresh secrets for an object with the given views.
    pub fn generate_secrets<R: RandomSource + ?Sized>(
        &self,
        attrs: &ObjectAttrs,
        pool: &crate::keypool::SigKeyPool,
        rng: &mut R,
    ) -> ObjectSecrets {
        let views = self.views(attrs);
        let mut teks = HashMap::new();
        let mut meks = HashMap::new();
        for (view, _) in &views {
            if attrs.kind == NodeKind::Dir {
                teks.insert(*view, SymKey::random(rng));
            }
            if self.policy == CryptoPolicy::Sharoes {
                meks.insert(*view, SymKey::random(rng));
            }
        }
        let sig = if self.carries_sig_keys() {
            let (dsk, dvk) = pool.take(rng);
            let (msk, mvk) = pool.take(rng);
            Some(SigPairs { dsk, dvk, msk, mvk })
        } else {
            None
        };
        ObjectSecrets { dek: SymKey::random(rng), teks, meks, sig }
    }

    /// Builds the metadata replica records for every view of `attrs`.
    pub fn metadata_records<R: RandomSource + ?Sized>(
        &self,
        attrs: &ObjectAttrs,
        secrets: &ObjectSecrets,
        rng: &mut R,
    ) -> Result<Vec<(ObjectKey, Vec<u8>)>> {
        let bodies = self.metadata_bodies(attrs, secrets)?;
        self.seal_metadata_bodies(attrs, secrets, &bodies, rng)
    }

    /// The plaintext body of every metadata replica of `attrs`, with its
    /// view, in [`Layout::views`] order: what each record of
    /// [`Layout::metadata_records`] opens to. Draws no randomness.
    pub fn metadata_bodies(
        &self,
        attrs: &ObjectAttrs,
        secrets: &ObjectSecrets,
    ) -> Result<Vec<(ViewId, MetadataBody)>> {
        let views = self.views(attrs);
        // Each view's tag is hashed once, not once per comparison: the
        // comparison count follows HashMap order, the hashing would too.
        let all_teks: Vec<(ViewId, SymKey)> = {
            let mut v: Vec<_> = secrets.teks.iter().map(|(k, s)| (*k, s.clone())).collect();
            v.sort_by_cached_key(|(view, _)| view.tag(attrs.inode));
            v
        };
        let all_meks: Vec<(ViewId, SymKey)> = {
            let mut v: Vec<_> = secrets.meks.iter().map(|(k, s)| (*k, s.clone())).collect();
            v.sort_by_cached_key(|(view, _)| view.tag(attrs.inode));
            v
        };

        let mut out = Vec::with_capacity(views.len());
        for (view, perm) in views {
            let mut body = MetadataBody::bare(
                attrs.inode,
                attrs.kind,
                attrs.owner.0,
                attrs.group.0,
                attrs.mode.octal(),
            );
            body.size = attrs.size;
            body.nblocks = attrs.nblocks;
            body.generation = attrs.generation;
            body.version = attrs.version;
            body.rekey_pending = attrs.rekey_pending;
            body.acl = attrs.acl_wire();

            // The owner replica always retains the full key material,
            // whatever the owner's own mode bits say: the owner must be able
            // to chmod back and re-provision keys to other classes. *nix
            // semantics for the owner's own access are enforced by the
            // client from the mode bits (the owner trivially controls their
            // own client anyway).
            let is_owner_view = Self::is_owner_view(view, attrs);

            match attrs.kind {
                NodeKind::File => {
                    let cap = file_cap(perm)?;
                    if (cap.dek || is_owner_view) && self.policy.encrypts_data() {
                        body.dek = Some(secrets.dek.clone());
                    }
                    if let Some(sig) = &secrets.sig {
                        if cap.dvk || is_owner_view {
                            body.dvk = Some(sig.dvk.clone());
                        }
                        if cap.dsk || is_owner_view {
                            body.dsk = Some(sig.dsk.clone());
                        }
                    }
                }
                NodeKind::Dir => {
                    let cap = dir_cap(perm)?;
                    if (cap.dek || is_owner_view) && self.policy.encrypts_data() {
                        body.dek = secrets.teks.get(&view).cloned();
                    }
                    if let Some(sig) = &secrets.sig {
                        if cap.dvk || is_owner_view {
                            body.dvk = Some(sig.dvk.clone());
                        }
                        if cap.dsk || is_owner_view {
                            body.dsk = Some(sig.dsk.clone());
                        }
                    }
                    if (cap.dsk || is_owner_view) && self.policy.encrypts_data() {
                        body.write_teks = all_teks.clone();
                    }
                }
            }

            if is_owner_view {
                if let Some(sig) = &secrets.sig {
                    body.msk = Some(sig.msk.clone());
                }
                if self.policy == CryptoPolicy::Sharoes {
                    body.owner_meks = all_meks.clone();
                }
            }
            out.push((view, body));
        }
        Ok(out)
    }

    /// Seals the [`Layout::metadata_bodies`] of `attrs` into their records,
    /// in order.
    pub fn seal_metadata_bodies<R: RandomSource + ?Sized>(
        &self,
        attrs: &ObjectAttrs,
        secrets: &ObjectSecrets,
        bodies: &[(ViewId, MetadataBody)],
        rng: &mut R,
    ) -> Result<Vec<(ObjectKey, Vec<u8>)>> {
        let mut out = Vec::with_capacity(bodies.len());
        for (view, body) in bodies {
            let body_bytes = body.to_wire();
            let seal = match (self.policy, *view) {
                (CryptoPolicy::NoEncMdD | CryptoPolicy::NoEncMd, _) => MetaSeal::Plain,
                (CryptoPolicy::Sharoes, v) => MetaSeal::Sym(
                    secrets.meks.get(&v).ok_or(CoreError::Corrupt("missing MEK for view"))?,
                ),
                (CryptoPolicy::Public, ViewId::User(u)) => MetaSeal::Public(self.pki.user(Uid(u))?),
                (CryptoPolicy::PubOpt, ViewId::User(u)) => MetaSeal::PubOpt(self.pki.user(Uid(u))?),
                (CryptoPolicy::Public | CryptoPolicy::PubOpt, ViewId::Class(_)) => {
                    return Err(CoreError::Corrupt("public policies are per-user"))
                }
            };
            let ciphertext = seal_metadata(seal, &body_bytes, rng)?;
            let key = ObjectKey::metadata(attrs.inode, view.tag(attrs.inode));
            let sealed = match (&secrets.sig, self.policy.signs()) {
                (Some(sig), true) => SealedObject::signed(ciphertext, &key, &sig.msk, rng),
                _ => SealedObject::unsigned(ciphertext),
            };
            out.push((key, sealed.to_wire()));
        }
        Ok(out)
    }

    /// The users whose class on `attrs` is exactly `class`.
    pub fn population(&self, attrs: &ObjectAttrs, class: ClassTag) -> Vec<Uid> {
        self.db.users().filter(|u| attrs.class_of(u.uid, self.db) == class).map(|u| u.uid).collect()
    }

    /// Scheme-2 continuation of `parent_class` into `child`:
    /// `(row continuation class, divergent users with their true classes)`.
    pub fn continuation(
        &self,
        parent: &ObjectAttrs,
        parent_class: ClassTag,
        child: &ObjectAttrs,
    ) -> (ClassTag, Vec<(Uid, ClassTag)>) {
        let pop = self.population(parent, parent_class);
        if pop.is_empty() {
            // Nobody follows this chain; point at the matching child class
            // when it exists, else Other.
            let fallback = if child.classes().contains(&parent_class) {
                parent_class
            } else {
                ClassTag::Other
            };
            return (fallback, Vec::new());
        }
        let mut counts: HashMap<ClassTag, usize> = HashMap::new();
        let assignments: Vec<(Uid, ClassTag)> = pop
            .iter()
            .map(|&u| {
                let c = child.class_of(u, self.db);
                *counts.entry(c).or_insert(0) += 1;
                (u, c)
            })
            .collect();
        // Plurality continuation; deterministic tie-break on the view tag.
        let cont = counts
            .iter()
            .max_by_key(|(class, count)| (**count, class.domain_order()))
            .map(|(class, _)| *class)
            .expect("non-empty population");
        let divergent = assignments.into_iter().filter(|(_, c)| *c != cont).collect();
        (cont, divergent)
    }

    /// Builds the [`ChildRef`] stored in a given parent view's row, plus any
    /// divergent users needing split entries.
    pub fn child_ref(
        &self,
        parent: &ObjectAttrs,
        parent_view: ViewId,
        child: ChildKeys<'_>,
    ) -> (ChildRef, Vec<(Uid, ClassTag)>) {
        let (view, divergent) = match parent_view {
            ViewId::User(u) => (ViewId::User(u), Vec::new()),
            ViewId::Class(pc) => {
                let (cont, divergent) = self.continuation(parent, pc, child.attrs);
                (ViewId::Class(cont), divergent)
            }
        };
        let child_ref = ChildRef {
            inode: child.attrs.inode,
            kind: child.attrs.kind,
            view: view.tag(child.attrs.inode),
            mek: child.meks.get(&view).cloned(),
            mvk: child.mvk.cloned(),
            split: !divergent.is_empty(),
        };
        (child_ref, divergent)
    }

    /// The split entries `child` newly needs when its directory's attributes
    /// go from `old` to `new`: users who diverge at `child` under a
    /// table-bearing view of `new` but under none of `old`, whose entries
    /// were written then. A pair whose class MEK `child` lacks is skipped:
    /// an entry without it opens nothing.
    pub fn new_splits(
        &self,
        old: &ObjectAttrs,
        new: &ObjectAttrs,
        child: ChildKeys<'_>,
    ) -> Result<Vec<(Uid, ClassTag)>> {
        let divergent = |dir: &ObjectAttrs| -> Result<Vec<(Uid, ClassTag)>> {
            let mut out = Vec::new();
            for (view, _) in self.table_views(dir)? {
                if let ViewId::Class(class) = view {
                    out.extend(self.continuation(dir, class, child.attrs).1);
                }
            }
            Ok(out)
        };
        let before = divergent(old)?;
        let mut out: Vec<(Uid, ClassTag)> = Vec::new();
        for d in divergent(new)? {
            let has_mek = child.meks.contains_key(&ViewId::Class(d.1));
            if has_mek && !before.contains(&d) && !out.contains(&d) {
                out.push(d);
            }
        }
        Ok(out)
    }

    /// The users an ACL entry of `attrs` makes divergent, with their ACL
    /// class: no parent-class continuation ever routes to those CAPs, so
    /// each needs a split entry.
    pub fn acl_divergent(&self, attrs: &ObjectAttrs) -> Vec<(Uid, ClassTag)> {
        let mut out: Vec<(Uid, ClassTag)> =
            attrs.acl.user_entries().map(|(uid, _)| (uid, ClassTag::AclUser(uid.0))).collect();
        for (gid, _) in attrs.acl.group_entries() {
            let Some(group) = self.db.group(gid) else { continue };
            for &member in &group.members {
                // Only members whose first-match class IS this ACL group entry.
                if attrs.class_of(member, self.db) == ClassTag::AclGroup(gid.0) {
                    out.push((member, ClassTag::AclGroup(gid.0)));
                }
            }
        }
        out
    }

    /// The candidate views a child's metadata replicas live under.
    pub fn candidate_child_views(&self, child: &ObjectAttrs) -> Vec<ViewId> {
        match self.scheme {
            Scheme::PerUser => self.db.users().map(|u| ViewId::User(u.uid.0)).collect(),
            Scheme::SharedCaps => child.classes().into_iter().map(ViewId::Class).collect(),
        }
    }

    /// What a parent's row of `attrs` carries from `secrets`: every view's
    /// MEK, and the MVK when the policy signs.
    pub fn child_keys<'s>(
        &self,
        attrs: &'s ObjectAttrs,
        secrets: &'s ObjectSecrets,
    ) -> ChildKeys<'s> {
        ChildKeys {
            attrs,
            meks: &secrets.meks,
            mvk: secrets.sig.as_ref().filter(|_| self.policy.signs()).map(|sig| &sig.mvk),
        }
    }

    /// The keys `view`'s table replica is sealed under, as the policy uses
    /// them: the view's TEK from `teks` (which must hold it when the policy
    /// encrypts data) and `dsk` when the policy signs.
    pub fn table_keys<'k>(
        &self,
        view: ViewId,
        teks: &'k HashMap<ViewId, SymKey>,
        dsk: Option<&'k SigningKey>,
    ) -> Result<TableKeys<'k>> {
        let tek = if self.policy.encrypts_data() {
            Some(teks.get(&view).ok_or(CoreError::Corrupt("missing TEK"))?)
        } else {
            None
        };
        Ok(TableKeys { tek, dsk: dsk.filter(|_| self.policy.signs()) })
    }

    /// Builds the per-view directory-table records for `dir`, given its
    /// entries. Returns the records plus the union of divergent users per
    /// child (for split-entry creation).
    #[allow(clippy::type_complexity)]
    pub fn table_records<R: RandomSource + ?Sized>(
        &self,
        dir: &ObjectAttrs,
        dir_secrets: &ObjectSecrets,
        entries: &[(String, ChildKeys<'_>)],
        rng: &mut R,
    ) -> Result<(Vec<(ObjectKey, Vec<u8>)>, BTreeMap<u64, Vec<(Uid, ClassTag)>>)> {
        let mut records = Vec::new();
        // BTreeMap: callers iterate this to draw per-child randomness, so the
        // order must be a pure function of the tree, not of hasher state.
        let mut splits: BTreeMap<u64, Vec<(Uid, ClassTag)>> = BTreeMap::new();
        let mut add_split = |inode: u64, d: (Uid, ClassTag)| {
            let list = splits.entry(inode).or_default();
            if !list.contains(&d) {
                list.push(d);
            }
        };
        let dsk = dir_secrets.sig.as_ref().map(|sig| &sig.dsk);

        for (view, access) in self.table_views(dir)? {
            let mut view_entries: Vec<(String, ChildRef)> = Vec::with_capacity(entries.len());
            for (name, child) in entries {
                let (child_ref, divergent) = self.child_ref(dir, view, *child);
                for d in divergent {
                    add_split(child.attrs.inode, d);
                }
                view_entries.push((name.clone(), child_ref));
            }
            let keys = self.table_keys(view, &dir_secrets.teks, dsk)?;
            let table = match access {
                TableAccess::NamesOnly => DirTable::names_only(&view_entries),
                TableAccess::Full => DirTable::full(&view_entries),
                TableAccess::ExecOnly => {
                    let tek =
                        keys.tek.ok_or(CoreError::Corrupt("missing TEK for exec-only view"))?;
                    DirTable::exec_only(&view_entries, tek, rng)
                }
                TableAccess::None => return Err(CoreError::Corrupt("no table for this view")),
            };
            let key = ObjectKey::data(dir.inode, view.tag(dir.inode), 0);
            records.push((key, seal_table(&key, &table, keys, rng)));
        }

        for (_, child) in entries {
            for d in self.acl_divergent(child.attrs) {
                add_split(child.attrs.inode, d);
            }
        }
        Ok((records, splits))
    }

    /// Builds split-point records for `child`: per-user entries encrypted
    /// with user public keys, with a group-addressed entry replacing the
    /// members of the child's owning group when at least two diverge there.
    pub fn split_records<R: RandomSource + ?Sized>(
        &self,
        keys: ChildKeys<'_>,
        divergent: &[(Uid, ClassTag)],
        rng: &mut R,
    ) -> Result<Vec<(ObjectKey, Vec<u8>)>> {
        if self.scheme != Scheme::SharedCaps {
            return Ok(Vec::new());
        }
        let child = keys.attrs;
        let mut out = Vec::new();

        let entry_for = |class: ClassTag| -> SplitEntry {
            let view = ViewId::Class(class);
            SplitEntry {
                view: view.tag(child.inode),
                mek: keys.meks.get(&view).cloned(),
                mvk: keys.mvk.cloned(),
            }
        };

        // Group-addressed optimization (§II-A group keys put to work): all
        // divergent users landing in the child's Group class share one
        // entry encrypted with the group public key.
        let group_class_users: Vec<Uid> =
            divergent.iter().filter(|(_, c)| *c == ClassTag::Group).map(|(u, _)| *u).collect();
        let use_group_entry = group_class_users.len() >= 2 && self.pki.group(child.group).is_ok();
        if use_group_entry {
            let payload = entry_for(ClassTag::Group).to_wire();
            let blob = self.pki.group(child.group)?.encrypt_blob(rng, &payload)?;
            out.push((
                ObjectKey::metadata(child.inode, ids::split_group_view(child.inode, child.group)),
                blob,
            ));
        }

        for (uid, class) in divergent {
            if use_group_entry && *class == ClassTag::Group {
                continue;
            }
            let payload = entry_for(*class).to_wire();
            let blob = self.pki.user(*uid)?.encrypt_blob(rng, &payload)?;
            out.push((
                ObjectKey::metadata(child.inode, ids::split_user_view(child.inode, *uid)),
                blob,
            ));
        }
        Ok(out)
    }

    /// Builds the data records (manifest + blocks) for file content.
    ///
    /// Blocks are sealed but unsigned; the DSK-signed manifest carries their
    /// ciphertext hashes (one signature per file, per the paper).
    pub fn data_records<R: RandomSource + ?Sized>(
        &self,
        attrs: &ObjectAttrs,
        secrets: &ObjectSecrets,
        content: &[u8],
        rng: &mut R,
    ) -> Vec<(ObjectKey, Vec<u8>)> {
        let keys = DataKeys {
            dek: self.policy.encrypts_data().then_some(&secrets.dek),
            dsk: secrets.sig.as_ref().filter(|_| self.policy.signs()).map(|sig| &sig.dsk),
        };
        let view = ids::data_view(attrs.inode, attrs.generation);
        seal_data(attrs.inode, view, self.block_size, content, Manifest::FIRST_VERSION, keys, rng)
    }

    /// Parses a fetched manifest payload.
    pub fn parse_manifest(plain: &[u8]) -> Result<Manifest> {
        Manifest::from_wire(plain)
    }

    /// Builds the superblock record for one user.
    pub fn superblock_record<R: RandomSource + ?Sized>(
        &self,
        uid: Uid,
        root: &ObjectAttrs,
        root_secrets: &ObjectSecrets,
        rng: &mut R,
    ) -> Result<(ObjectKey, Vec<u8>)> {
        let view = self.view_of(root, uid);
        let sb = Superblock {
            root_inode: root.inode,
            root_view: view.tag(root.inode),
            root_mek: root_secrets.meks.get(&view).cloned(),
            root_mvk: self.child_keys(root, root_secrets).mvk.cloned(),
            block_size: self.block_size as u32,
            scheme_tag: match self.scheme {
                Scheme::PerUser => 0,
                Scheme::SharedCaps => 1,
            },
        };
        let blob = sb.seal_for(self.pki.user(uid)?, rng)?;
        Ok((ObjectKey::superblock(ids::superblock_view(uid)), blob))
    }

    /// SSP slots occupied by `attrs`'s metadata and table replicas (for
    /// deletion).
    pub fn replica_slots(&self, attrs: &ObjectAttrs) -> Vec<ObjectKey> {
        let mut out = Vec::new();
        for (view, perm) in self.views(attrs) {
            out.push(ObjectKey::metadata(attrs.inode, view.tag(attrs.inode)));
            if attrs.kind == NodeKind::Dir {
                let has_table = self
                    .table_access_for(view, attrs, perm)
                    .map(|a| a != TableAccess::None)
                    .unwrap_or(false);
                if has_table {
                    out.push(ObjectKey::data(attrs.inode, view.tag(attrs.inode), 0));
                }
            }
        }
        out
    }
}

impl ClassTag {
    /// Deterministic ordering for tie-breaking.
    fn domain_order(&self) -> u64 {
        match self {
            ClassTag::Owner => 4,
            ClassTag::Group => 3,
            ClassTag::Other => 2,
            ClassTag::AclUser(u) => 1 + ((*u as u64) << 8),
            ClassTag::AclGroup(g) => (*g as u64) << 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keypool::SigKeyPool;
    use crate::keyring::Keyring;
    use crate::params::CryptoParams;
    use sharoes_crypto::HmacDrbg;

    fn db() -> UserDb {
        let mut db = UserDb::new();
        db.add_group(Gid(0), "wheel").unwrap();
        db.add_group(Gid(100), "staff").unwrap();
        db.add_user(Uid(0), "root", Gid(0)).unwrap();
        db.add_user(Uid(1), "alice", Gid(100)).unwrap();
        db.add_user(Uid(2), "bob", Gid(100)).unwrap();
        db.add_user(Uid(3), "carol", Gid(100)).unwrap();
        db
    }

    struct Fixture {
        db: UserDb,
        ring: Keyring,
    }

    impl Fixture {
        fn new() -> Self {
            let db = db();
            let mut rng = HmacDrbg::from_seed_u64(7);
            let ring = Keyring::generate(&db, 512, &mut rng).unwrap();
            Fixture { db, ring }
        }
    }

    #[test]
    fn views_per_scheme() {
        let f = Fixture::new();
        let pki = f.ring.public_directory();
        let attrs = ObjectAttrs::new(5, NodeKind::File, Uid(1), Gid(100), Mode::from_octal(0o644));

        let layout = Layout {
            scheme: Scheme::PerUser,
            policy: CryptoPolicy::Sharoes,
            block_size: 4096,
            db: &f.db,
            pki: &pki,
        };
        assert_eq!(layout.views(&attrs).len(), 4); // one per user

        let layout = Layout { scheme: Scheme::SharedCaps, ..layout };
        let views = layout.views(&attrs);
        assert_eq!(views.len(), 3); // owner/group/other
                                    // Owner gets rw-, group and other get r--.
        for (view, perm) in views {
            match view {
                ViewId::Class(ClassTag::Owner) => assert_eq!(perm, Perm::RW),
                ViewId::Class(_) => assert_eq!(perm, Perm::R),
                _ => panic!("unexpected per-user view"),
            }
        }
    }

    #[test]
    fn acl_adds_views() {
        let f = Fixture::new();
        let pki = f.ring.public_directory();
        let mut attrs =
            ObjectAttrs::new(5, NodeKind::File, Uid(1), Gid(100), Mode::from_octal(0o640));
        attrs.acl.set_user(Uid(3), Perm::R);
        let layout = Layout {
            scheme: Scheme::SharedCaps,
            policy: CryptoPolicy::Sharoes,
            block_size: 4096,
            db: &f.db,
            pki: &pki,
        };
        let views = layout.views(&attrs);
        assert_eq!(views.len(), 4);
        assert!(views
            .iter()
            .any(|(v, p)| *v == ViewId::Class(ClassTag::AclUser(3)) && *p == Perm::R));
    }

    #[test]
    fn metadata_records_respect_caps() {
        let f = Fixture::new();
        let pki = f.ring.public_directory();
        let pool = SigKeyPool::new(CryptoParams::test());
        let mut rng = HmacDrbg::from_seed_u64(9);
        let attrs = ObjectAttrs::new(7, NodeKind::File, Uid(1), Gid(100), Mode::from_octal(0o640));
        let layout = Layout {
            scheme: Scheme::SharedCaps,
            policy: CryptoPolicy::Sharoes,
            block_size: 4096,
            db: &f.db,
            pki: &pki,
        };
        let secrets = layout.generate_secrets(&attrs, &pool, &mut rng);
        let records = layout.metadata_records(&attrs, &secrets, &mut rng).unwrap();
        assert_eq!(records.len(), 3);

        // Open each replica with its MEK and check field presence.
        for class in [ClassTag::Owner, ClassTag::Group, ClassTag::Other] {
            let view = ViewId::Class(class);
            let key = ObjectKey::metadata(attrs.inode, view.tag(attrs.inode));
            let (_, blob) = records.iter().find(|(k, _)| *k == key).unwrap();
            let sealed = SealedObject::from_wire(blob).unwrap();
            sealed.verify(&key, Some(&secrets.sig.as_ref().unwrap().mvk)).unwrap();
            let mek = secrets.meks.get(&view).unwrap();
            let plain = mek.open(&sealed.ciphertext).unwrap();
            let body = MetadataBody::from_wire(&plain).unwrap();
            match class {
                ClassTag::Owner => {
                    // rw-: dek + dvk + dsk + msk + owner_meks
                    assert!(body.dek.is_some());
                    assert!(body.dvk.is_some());
                    assert!(body.dsk.is_some());
                    assert!(body.msk.is_some());
                    assert_eq!(body.owner_meks.len(), 3);
                }
                ClassTag::Group => {
                    // r--: dek + dvk only
                    assert!(body.dek.is_some());
                    assert!(body.dvk.is_some());
                    assert!(body.dsk.is_none());
                    assert!(body.msk.is_none());
                }
                ClassTag::Other => {
                    // ---: attributes visible, no keys at all
                    assert!(body.dek.is_none());
                    assert!(body.dvk.is_none());
                    assert!(body.dsk.is_none());
                    assert!(body.msk.is_none());
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn bodies_are_what_their_records_open_to() {
        // A creator caches the body of its own view and the empty manifest
        // instead of fetching them: each must be what its record opens to.
        let f = Fixture::new();
        let pki = f.ring.public_directory();
        let pool = SigKeyPool::new(CryptoParams::test());
        let mut rng = HmacDrbg::from_seed_u64(13);
        for (scheme, policy) in [
            (Scheme::SharedCaps, CryptoPolicy::Sharoes),
            (Scheme::PerUser, CryptoPolicy::Sharoes),
            (Scheme::PerUser, CryptoPolicy::NoEncMdD),
        ] {
            let layout = Layout { scheme, policy, block_size: 4096, db: &f.db, pki: &pki };
            for kind in [NodeKind::File, NodeKind::Dir] {
                let attrs = ObjectAttrs::new(6, kind, Uid(1), Gid(100), Mode::from_octal(0o750));
                let secrets = layout.generate_secrets(&attrs, &pool, &mut rng);
                let bodies = layout.metadata_bodies(&attrs, &secrets).unwrap();
                let records = layout.metadata_records(&attrs, &secrets, &mut rng).unwrap();
                assert_eq!(bodies.len(), records.len());
                for ((view, body), (key, blob)) in bodies.iter().zip(&records) {
                    assert_eq!(*key, ObjectKey::metadata(attrs.inode, view.tag(attrs.inode)));
                    let sealed = SealedObject::from_wire(blob).unwrap();
                    let plain = match policy {
                        CryptoPolicy::Sharoes => {
                            secrets.meks.get(view).unwrap().open(&sealed.ciphertext).unwrap()
                        }
                        _ => sealed.ciphertext.clone(),
                    };
                    assert_eq!(body.to_wire(), plain, "{scheme:?} {policy:?} {kind:?} {view:?}");
                }
            }

            let attrs =
                ObjectAttrs::new(7, NodeKind::File, Uid(1), Gid(100), Mode::from_octal(0o644));
            let secrets = layout.generate_secrets(&attrs, &pool, &mut rng);
            let records = layout.data_records(&attrs, &secrets, &[], &mut rng);
            let sealed = SealedObject::from_wire(&records[0].1).unwrap();
            let plain = match policy {
                CryptoPolicy::Sharoes => secrets.dek.open(&sealed.ciphertext).unwrap(),
                _ => sealed.ciphertext.clone(),
            };
            assert_eq!(records.len(), 1, "empty content seals only its manifest");
            assert_eq!(Manifest::from_wire(&plain).unwrap(), Manifest::empty());
        }
    }

    #[test]
    fn zero_perm_replica_has_attrs_but_no_keys() {
        let f = Fixture::new();
        let pki = f.ring.public_directory();
        let pool = SigKeyPool::new(CryptoParams::test());
        let mut rng = HmacDrbg::from_seed_u64(10);
        let attrs = ObjectAttrs::new(8, NodeKind::File, Uid(1), Gid(100), Mode::from_octal(0o600));
        let layout = Layout {
            scheme: Scheme::SharedCaps,
            policy: CryptoPolicy::Sharoes,
            block_size: 4096,
            db: &f.db,
            pki: &pki,
        };
        let secrets = layout.generate_secrets(&attrs, &pool, &mut rng);
        let records = layout.metadata_records(&attrs, &secrets, &mut rng).unwrap();
        let view = ViewId::Class(ClassTag::Other);
        let key = ObjectKey::metadata(attrs.inode, view.tag(attrs.inode));
        let (_, blob) = records.iter().find(|(k, _)| *k == key).unwrap();
        let sealed = SealedObject::from_wire(blob).unwrap();
        let plain = secrets.meks.get(&view).unwrap().open(&sealed.ciphertext).unwrap();
        let body = MetadataBody::from_wire(&plain).unwrap();
        assert_eq!(body.mode, 0o600);
        assert_eq!(body.owner, 1);
        assert!(body.dek.is_none());
        assert!(body.dvk.is_none());
        assert!(body.dsk.is_none());
        assert!(body.msk.is_none());
    }

    #[test]
    fn continuation_and_splits_at_home() {
        // /home owned by root 0755; /home/alice owned by alice.
        let f = Fixture::new();
        let pki = f.ring.public_directory();
        let layout = Layout {
            scheme: Scheme::SharedCaps,
            policy: CryptoPolicy::Sharoes,
            block_size: 4096,
            db: &f.db,
            pki: &pki,
        };
        let home = ObjectAttrs::new(2, NodeKind::Dir, Uid(0), Gid(0), Mode::from_octal(0o755));
        let alice_home =
            ObjectAttrs::new(3, NodeKind::Dir, Uid(1), Gid(100), Mode::from_octal(0o700));

        // Other population of /home = {alice, bob, carol}; at /home/alice,
        // alice is Owner, bob and carol are Group (staff). Plurality: Group;
        // alice diverges.
        let (cont, divergent) = layout.continuation(&home, ClassTag::Other, &alice_home);
        assert_eq!(cont, ClassTag::Group);
        assert_eq!(divergent, vec![(Uid(1), ClassTag::Owner)]);

        // Owner population of /home = {root}; root is Other at /home/alice.
        let (cont, divergent) = layout.continuation(&home, ClassTag::Owner, &alice_home);
        assert_eq!(cont, ClassTag::Other);
        assert!(divergent.is_empty());
    }

    #[test]
    fn empty_population_has_fallback_continuation() {
        let f = Fixture::new();
        let pki = f.ring.public_directory();
        let layout = Layout {
            scheme: Scheme::SharedCaps,
            policy: CryptoPolicy::Sharoes,
            block_size: 4096,
            db: &f.db,
            pki: &pki,
        };
        // A directory owned by root with group wheel: the Group population
        // (wheel members minus root) is empty.
        let dir = ObjectAttrs::new(2, NodeKind::Dir, Uid(0), Gid(0), Mode::from_octal(0o755));
        let child = ObjectAttrs::new(3, NodeKind::File, Uid(0), Gid(0), Mode::from_octal(0o644));
        let (cont, divergent) = layout.continuation(&dir, ClassTag::Group, &child);
        assert!(divergent.is_empty());
        assert_eq!(cont, ClassTag::Group);
    }

    #[test]
    fn data_records_roundtrip() {
        let f = Fixture::new();
        let pki = f.ring.public_directory();
        let pool = SigKeyPool::new(CryptoParams::test());
        let mut rng = HmacDrbg::from_seed_u64(11);
        let attrs = ObjectAttrs::new(9, NodeKind::File, Uid(1), Gid(100), Mode::from_octal(0o644));
        let layout = Layout {
            scheme: Scheme::SharedCaps,
            policy: CryptoPolicy::Sharoes,
            block_size: 16,
            db: &f.db,
            pki: &pki,
        };
        let secrets = layout.generate_secrets(&attrs, &pool, &mut rng);
        let content: Vec<u8> = (0..50u8).collect(); // 4 blocks of 16
        let records = layout.data_records(&attrs, &secrets, &content, &mut rng);
        assert_eq!(records.len(), 5); // manifest + 4 blocks

        // Manifest decodes and is the (only) signed data object.
        let view = ids::data_view(attrs.inode, 0);
        let mkey = ObjectKey::data(attrs.inode, view, MANIFEST_BLOCK);
        let (_, mblob) = records.iter().find(|(k, _)| *k == mkey).unwrap();
        let sealed = SealedObject::from_wire(mblob).unwrap();
        sealed.verify(&mkey, Some(&secrets.sig.as_ref().unwrap().dvk)).unwrap();
        let plain = secrets.dek.open(&sealed.ciphertext).unwrap();
        let manifest = Layout::parse_manifest(&plain).unwrap();
        assert_eq!(manifest.size, 50);
        assert_eq!(manifest.nblocks, 4);
        assert_eq!(manifest.block_hashes.len(), 4);

        // Blocks reassemble, each matching its manifest hash.
        let mut reassembled = Vec::new();
        for i in 0..manifest.nblocks {
            let key = ObjectKey::data(attrs.inode, view, i);
            let (_, blob) = records.iter().find(|(k, _)| *k == key).unwrap();
            let sealed = SealedObject::from_wire(blob).unwrap();
            assert!(sealed.signature.is_none(), "blocks are authenticated via the manifest");
            assert_eq!(
                &sharoes_crypto::Sha256::digest(&sealed.ciphertext),
                manifest.hash_of(i).unwrap()
            );
            reassembled.extend_from_slice(&secrets.dek.open(&sealed.ciphertext).unwrap());
        }
        assert_eq!(reassembled, content);
    }

    #[test]
    fn validate_rejects_unsupported() {
        let f = Fixture::new();
        let pki = f.ring.public_directory();
        let layout = Layout {
            scheme: Scheme::SharedCaps,
            policy: CryptoPolicy::Sharoes,
            block_size: 4096,
            db: &f.db,
            pki: &pki,
        };
        // Directory with -wx for group.
        let attrs = ObjectAttrs::new(4, NodeKind::Dir, Uid(1), Gid(100), Mode::from_octal(0o730));
        assert!(matches!(
            layout.validate_perms(&attrs),
            Err(CoreError::UnsupportedPermission { .. })
        ));
        // File with write-only for other.
        let attrs = ObjectAttrs::new(4, NodeKind::File, Uid(1), Gid(100), Mode::from_octal(0o642));
        assert!(layout.validate_perms(&attrs).is_err());
        // Fine modes pass.
        let attrs = ObjectAttrs::new(4, NodeKind::Dir, Uid(1), Gid(100), Mode::from_octal(0o711));
        layout.validate_perms(&attrs).unwrap();
    }

    #[test]
    fn split_entry_codec_and_records() {
        let f = Fixture::new();
        let pki = f.ring.public_directory();
        let pool = SigKeyPool::new(CryptoParams::test());
        let mut rng = HmacDrbg::from_seed_u64(12);
        let layout = Layout {
            scheme: Scheme::SharedCaps,
            policy: CryptoPolicy::Sharoes,
            block_size: 4096,
            db: &f.db,
            pki: &pki,
        };
        let child = ObjectAttrs::new(9, NodeKind::Dir, Uid(1), Gid(100), Mode::from_octal(0o750));
        let secrets = layout.generate_secrets(&child, &pool, &mut rng);
        let divergent =
            vec![(Uid(1), ClassTag::Owner), (Uid(2), ClassTag::Group), (Uid(3), ClassTag::Group)];
        let keys = layout.child_keys(&child, &secrets);
        let records = layout.split_records(keys, &divergent, &mut rng).unwrap();
        // bob and carol share a group-addressed entry; alice gets her own.
        assert_eq!(records.len(), 2);
        let group_slot =
            ObjectKey::metadata(child.inode, ids::split_group_view(child.inode, Gid(100)));
        let user_slot = ObjectKey::metadata(child.inode, ids::split_user_view(child.inode, Uid(1)));
        assert!(records.iter().any(|(k, _)| *k == group_slot));
        assert!(records.iter().any(|(k, _)| *k == user_slot));

        // Alice decrypts her entry and lands on her Owner view.
        let (_, blob) = records.iter().find(|(k, _)| *k == user_slot).unwrap();
        let alice_priv = f.ring.user_private(Uid(1)).unwrap();
        let plain = alice_priv.decrypt_blob(blob).unwrap();
        let entry = SplitEntry::from_wire(&plain).unwrap();
        assert_eq!(entry.view, ViewId::Class(ClassTag::Owner).tag(child.inode));
        assert!(entry.mek.is_some());
    }

    #[test]
    fn table_records_views_match_caps() {
        let f = Fixture::new();
        let pki = f.ring.public_directory();
        let pool = SigKeyPool::new(CryptoParams::test());
        let mut rng = HmacDrbg::from_seed_u64(13);
        let layout = Layout {
            scheme: Scheme::SharedCaps,
            policy: CryptoPolicy::Sharoes,
            block_size: 4096,
            db: &f.db,
            pki: &pki,
        };
        // 0711: owner rwx (Full), group --x (ExecOnly), other --x (ExecOnly)
        let dir = ObjectAttrs::new(20, NodeKind::Dir, Uid(1), Gid(100), Mode::from_octal(0o711));
        let dir_secrets = layout.generate_secrets(&dir, &pool, &mut rng);
        let child = ObjectAttrs::new(21, NodeKind::File, Uid(1), Gid(100), Mode::from_octal(0o644));
        let child_secrets = layout.generate_secrets(&child, &pool, &mut rng);
        let entries = vec![("doc.txt".to_string(), layout.child_keys(&child, &child_secrets))];
        let (records, _) = layout.table_records(&dir, &dir_secrets, &entries, &mut rng).unwrap();
        assert_eq!(records.len(), 3);

        // Owner view: full table with the name visible after decryption.
        let owner_view = ViewId::Class(ClassTag::Owner);
        let key = ObjectKey::data(dir.inode, owner_view.tag(dir.inode), 0);
        let (_, blob) = records.iter().find(|(k, _)| *k == key).unwrap();
        let sealed = SealedObject::from_wire(blob).unwrap();
        sealed.verify(&key, Some(&dir_secrets.sig.as_ref().unwrap().dvk)).unwrap();
        let tek = dir_secrets.teks.get(&owner_view).unwrap();
        let table = DirTable::from_wire(&tek.open(&sealed.ciphertext).unwrap()).unwrap();
        let child_ref = table.lookup("doc.txt", None).unwrap().unwrap();
        assert_eq!(child_ref.inode, 21);

        // Group view: exec-only — lookup needs the name + TEK.
        let group_view = ViewId::Class(ClassTag::Group);
        let key = ObjectKey::data(dir.inode, group_view.tag(dir.inode), 0);
        let (_, blob) = records.iter().find(|(k, _)| *k == key).unwrap();
        let sealed = SealedObject::from_wire(blob).unwrap();
        let tek = dir_secrets.teks.get(&group_view).unwrap();
        let table = DirTable::from_wire(&tek.open(&sealed.ciphertext).unwrap()).unwrap();
        assert!(table.list().next().is_none());
        let child_ref = table.lookup("doc.txt", Some(tek)).unwrap().unwrap();
        assert_eq!(child_ref.inode, 21);
    }

    #[test]
    fn replica_slots_cover_views() {
        let f = Fixture::new();
        let pki = f.ring.public_directory();
        let layout = Layout {
            scheme: Scheme::SharedCaps,
            policy: CryptoPolicy::Sharoes,
            block_size: 4096,
            db: &f.db,
            pki: &pki,
        };
        let dir = ObjectAttrs::new(30, NodeKind::Dir, Uid(1), Gid(100), Mode::from_octal(0o700));
        let slots = layout.replica_slots(&dir);
        // 3 metadata replicas + 1 table (only owner class has table access).
        assert_eq!(slots.len(), 4);
        let file = ObjectAttrs::new(31, NodeKind::File, Uid(1), Gid(100), Mode::from_octal(0o644));
        assert_eq!(layout.replica_slots(&file).len(), 3);
    }
}
