//! The Sharoes client filesystem (paper §IV-A).
//!
//! Provides filesystem-like access over remotely stored SSP data: it
//! navigates the CAP-based design, performs all encryption/decryption and
//! signing/verification, maintains the write-back cache, and implements the
//! operations of Figure 8 (`getattr`, `mkdir`, `mknod`, `chmod`, `read`,
//! `write`, `close`, plus `readdir`, `unlink`, `rmdir`, `rename`,
//! `set_acl`).
//!
//! The paper's FUSE layer is replaced by this library API plus the
//! `sharoes-cli` shell (see DESIGN.md substitution #1): every cryptographic,
//! metadata, and network code path the paper measures lives here unchanged.
//!
//! One client instance is one mounted user; all four baseline
//! implementations of §V run through the same code with a different
//! [`CryptoPolicy`].

use crate::cache::{CacheKey, CacheStats, ClientCache};
use crate::cap::TableAccess;
use crate::dirtable::{ChildRef, DirTable};
use crate::error::{CoreError, Result};
use crate::groups::{group_key_slot, open_group_key_block};
use crate::ids::{self, ClassTag};
use crate::keypool::SigKeyPool;
use crate::keyring::{KekChain, Pki, UserIdentity};
use crate::metadata::{open_metadata, MetaOpen, MetadataBody, SealedRef, ViewId};
use crate::params::{ClientConfig, CryptoPolicy, RevocationMode, Scheme};
use crate::scheme::{
    open_table, seal_data, seal_table, ChildKeys, DataKeys, Layout, Manifest, ObjectAttrs,
    ObjectSecrets, SigPairs, SplitEntry, MANIFEST_BLOCK,
};
use crate::superblock::Superblock;
use sharoes_crypto::{HmacDrbg, RandomSource, Sha256, SymKey, SystemRandom, VerifyKey};
use sharoes_fs::{path as fspath, Acl, Gid, Mode, NodeKind, Uid, UserDb};
use sharoes_index::verify_scan_page;
use sharoes_net::{
    CostMeter, ObjectKey, OpClass, Request, Response, Transport, WireRead, WireWrite,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// What `getattr` returns — the visible attributes of Figure 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileStat {
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
    /// Size at last metadata update (writes update data blocks only, per
    /// Figure 8; see README "Size semantics").
    pub size: u64,
    /// Block count at last metadata update.
    pub nblocks: u32,
    /// Key epoch.
    pub generation: u64,
    /// Lazy-revocation marker.
    pub rekey_pending: bool,
}

/// One `readdir` result row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadDirEntry {
    /// Entry name.
    pub name: String,
    /// Entry kind.
    pub kind: NodeKind,
    /// Inode, when the caller's CAP exposes it (read-only CAPs list names
    /// only).
    pub inode: Option<u64>,
}

/// How to reach and open one metadata replica.
#[derive(Clone, Debug)]
struct NodeHandle {
    inode: u64,
    view: [u8; 16],
    mek: Option<SymKey>,
    mvk: Option<VerifyKey>,
}

struct MountState {
    root: NodeHandle,
}

/// A pending whole-file write staged by [`SharoesClient::write`].
struct PendingWrite {
    content: Vec<u8>,
}

/// The Sharoes client filesystem.
pub struct SharoesClient {
    transport: Box<dyn Transport>,
    meter: Arc<CostMeter>,
    config: ClientConfig,
    db: Arc<UserDb>,
    pki: Arc<Pki>,
    identity: UserIdentity,
    pool: Arc<SigKeyPool>,
    rng: HmacDrbg,
    /// Mints 128-bit trace ids for root spans. Deliberately seeded from the
    /// uid alone — never from `rng` — so enabling tracing cannot perturb
    /// nonce/inode streams (the wire-determinism regression tests depend on
    /// those being a pure function of the crypto seed).
    trace_rng: HmacDrbg,
    /// Fresh entropy mixed into inode allocation so two clients seeded with
    /// the same deterministic RNG can never collide on inode numbers.
    mount_nonce: u64,
    cache: ClientCache,
    mount: Option<MountState>,
    pending: HashMap<String, PendingWrite>,
    /// Session freshness ledger: the highest signed version observed per
    /// metadata replica and per data generation. A later observation with a
    /// lower version means the SSP replayed stale (validly signed) state —
    /// the rollback half of the paper's §VIII "integrity mechanisms" future
    /// work (full fork consistency is SUNDR's, §VI).
    freshness: HashMap<FreshKey, u64>,
    /// True after a call exhausted its transport's retries: the SSP is
    /// unreachable and the client is serving what it can from cache.
    /// Cleared by the next successful call.
    degraded: bool,
    /// This mount's versioned KEK chain (DESIGN.md §10), recovered from (or
    /// published to) the SSP by [`SharoesClient::load_kek_chain`]. `None`
    /// until loaded; escrow records are only written while a chain is held.
    kek: Option<KekChain>,
    /// Root pinning for verified scans (DESIGN.md §13): the last index
    /// root this client accepted a proof against. `None` until the first
    /// verified scan trust-on-first-use pins whatever root it sees.
    pinned_root: Option<[u8; 32]>,
    /// True once a mutation has been acknowledged since the last pin —
    /// only then may the next verified scan accept (and re-pin) a root
    /// that moved.
    root_dirty: bool,
}

/// Keys of the session freshness ledger.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum FreshKey {
    /// A metadata replica `(inode, view tag)`.
    Meta(u64, [u8; 16]),
    /// A file's data manifest within one key generation.
    Data(u64, u64),
}

impl SharoesClient {
    /// Creates a client for one user. Call [`SharoesClient::mount`] before
    /// any filesystem operation.
    pub fn new(
        transport: Box<dyn Transport>,
        config: ClientConfig,
        db: Arc<UserDb>,
        pki: Arc<Pki>,
        identity: UserIdentity,
        pool: Arc<SigKeyPool>,
    ) -> Self {
        let mut seed = [0u8; 32];
        SystemRandom::new().fill_bytes(&mut seed);
        Self::with_rng(transport, config, db, pki, identity, pool, HmacDrbg::new(&seed))
    }

    /// Like [`SharoesClient::new`] with a caller-controlled generator.
    ///
    /// The session is a pure function of the seed: the per-mount inode
    /// nonce is drawn from `rng`, so two clients built with identical
    /// seeds replay identical wire traffic (the determinism regression
    /// test depends on this). Callers mounting several same-uid sessions
    /// against one store must therefore vary the seed per mount, or their
    /// inode allocations will collide.
    pub fn with_rng(
        transport: Box<dyn Transport>,
        config: ClientConfig,
        db: Arc<UserDb>,
        pki: Arc<Pki>,
        identity: UserIdentity,
        pool: Arc<SigKeyPool>,
        mut rng: HmacDrbg,
    ) -> Self {
        let meter = Arc::clone(transport.meter());
        let cache = ClientCache::new(config.cache_capacity);
        let nonce = rng.next_u64().to_be_bytes();
        let mut trace_seed = Vec::from(&b"sharoes-trace-v1"[..]);
        trace_seed.extend_from_slice(&identity.uid.0.to_be_bytes());
        let trace_rng = HmacDrbg::new(&Sha256::digest(&trace_seed));
        SharoesClient {
            transport,
            meter,
            config,
            db,
            pki,
            identity,
            pool,
            rng,
            trace_rng,
            mount_nonce: u64::from_be_bytes(nonce),
            cache,
            mount: None,
            pending: HashMap::new(),
            freshness: HashMap::new(),
            degraded: false,
            kek: None,
            pinned_root: None,
            root_dirty: false,
        }
    }

    /// Who this client is mounted as.
    pub fn uid(&self) -> Uid {
        self.identity.uid
    }

    /// The client configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// The cost meter shared with the transport.
    pub fn meter(&self) -> &Arc<CostMeter> {
        &self.meter
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// True while the SSP is unreachable and the client is degraded to
    /// serving cached reads. Operations that need the network return
    /// [`CoreError::SspUnavailable`]; cache-resident `getattr`/`read`/
    /// `readdir` keep working. Cleared by the next call that reaches the
    /// SSP.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    fn layout(&self) -> Layout<'_> {
        Layout {
            scheme: self.config.effective_scheme(),
            policy: self.config.policy,
            block_size: self.config.block_size,
            db: &self.db,
            pki: &self.pki,
        }
    }

    fn signs(&self) -> bool {
        self.config.policy.signs()
    }

    fn encrypts_data(&self) -> bool {
        self.config.policy.encrypts_data()
    }

    // ---------------------------------------------------------------- I/O

    fn call(&mut self, req: &Request) -> Result<Response> {
        use sharoes_net::ErrorClass;
        match self.transport.call(req) {
            Ok(response) => {
                self.degraded = false;
                // An acknowledged mutation legitimately moves the SSP's
                // index root; let the next verified scan re-pin.
                if matches!(OpClass::of(req), OpClass::Put | OpClass::Delete) {
                    self.root_dirty = true;
                }
                Ok(response)
            }
            // Retries exhausted on a retryable failure = connectivity loss.
            // Flag degraded mode and surface a typed, non-panicking error;
            // cache-resident reads keep working around it.
            Err(err) if err.class() == ErrorClass::Retryable => {
                if !self.degraded {
                    sharoes_obs::counter("core_degraded_entries_total").inc();
                    sharoes_obs::obs_event!(sharoes_obs::Level::Warn, "core.degraded");
                }
                self.degraded = true;
                Err(CoreError::SspUnavailable(err.to_string()))
            }
            Err(err) => Err(CoreError::Net(err)),
        }
    }

    fn fetch(&mut self, key: ObjectKey) -> Result<Option<Vec<u8>>> {
        match self.call(&Request::Get { key })? {
            Response::Object(v) => Ok(v),
            _ => Err(CoreError::Corrupt("unexpected response to Get")),
        }
    }

    /// Fetches `keys` in one round trip: one slot per key, in key order.
    fn fetch_many(&mut self, keys: Vec<ObjectKey>) -> Result<Vec<Option<Vec<u8>>>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let asked = keys.len();
        match self.call(&Request::GetMany { keys })? {
            Response::Objects(v) if v.len() == asked => Ok(v),
            Response::Objects(_) => Err(CoreError::Corrupt("GetMany reply has the wrong length")),
            _ => Err(CoreError::Corrupt("unexpected response to GetMany")),
        }
    }

    /// Ships one op's mutations in one round trip: the SSP applies the
    /// puts, then the deletes, then drops every data key of each
    /// `(inode, view)` in `drop_views`.
    fn mutate(
        &mut self,
        puts: Vec<(ObjectKey, Vec<u8>)>,
        deletes: Vec<ObjectKey>,
        drop_views: Vec<(u64, [u8; 16])>,
    ) -> Result<()> {
        if puts.is_empty() && deletes.is_empty() && drop_views.is_empty() {
            return Ok(());
        }
        match self.call(&Request::Mutate { puts, deletes, drop_views })? {
            Response::Ok => Ok(()),
            _ => Err(CoreError::Corrupt("unexpected response to Mutate")),
        }
    }

    // ------------------------------------------------- verified listings

    /// One page of the SSP keyspace under a Merkle range proof (DESIGN.md
    /// §13): the page provably contains exactly the stored keys in
    /// `(after, page-end]`, in order — the SSP cannot omit, inject, or
    /// reorder entries without detection.
    ///
    /// Roots are pinned trust-on-first-use: the first verified scan adopts
    /// whatever root it sees; afterwards the SSP may present a *different*
    /// root only after this client's own acknowledged mutation (which
    /// legitimately moves the keyspace). A page whose proof fails, or a
    /// root that moved with no local mutation, returns
    /// [`CoreError::ScanForged`] and leaves the pin untouched.
    pub fn verified_scan(
        &mut self,
        after: Option<ObjectKey>,
        limit: u32,
    ) -> Result<(Vec<ObjectKey>, bool)> {
        let _span = self.op_span("core.verified_scan", || format!("limit={limit}"));
        let (keys, done, root, proof) = match self.call(&Request::ScanVerified { after, limit })? {
            Response::KeysProof { keys, done, root, proof } => (keys, done, root, proof),
            _ => return Err(CoreError::Corrupt("unexpected response to ScanVerified")),
        };
        if let Some(pinned) = self.pinned_root {
            if pinned != root && !self.root_dirty {
                sharoes_obs::counter("core_scan_root_rejections_total").inc();
                return Err(CoreError::ScanForged(format!(
                    "index root moved without a local mutation (pinned {}…, got {}…)",
                    hex_prefix(&pinned),
                    hex_prefix(&root),
                )));
            }
        }
        verify_scan_page(&root, after.as_ref(), limit, &keys, done, &proof)
            .map_err(|e| CoreError::ScanForged(e.to_string()))?;
        // Proof good against a root we accept: (re)pin it.
        self.pinned_root = Some(root);
        self.root_dirty = false;
        Ok((keys, done))
    }

    /// Walks the whole keyspace through [`SharoesClient::verified_scan`]
    /// pages of `limit` keys, verifying every page. The complete listing
    /// or the first page's typed failure.
    pub fn verified_scan_all(&mut self, limit: u32) -> Result<Vec<ObjectKey>> {
        let mut out: Vec<ObjectKey> = Vec::new();
        let mut after: Option<ObjectKey> = None;
        loop {
            let (keys, done) = self.verified_scan(after, limit)?;
            after = keys.last().copied().or(after);
            out.extend(keys);
            if done {
                return Ok(out);
            }
        }
    }

    /// The index root this client has pinned, once a verified scan has run.
    pub fn pinned_root(&self) -> Option<[u8; 32]> {
        self.pinned_root
    }

    /// Records an observed signed version, flagging regressions as rollback.
    fn check_freshness(&mut self, key: FreshKey, observed: u64, what: &str) -> Result<()> {
        match self.freshness.get(&key) {
            Some(&seen) if observed < seen => Err(CoreError::TamperDetected(format!(
                "{what} rolled back from version {seen} to {observed}"
            ))),
            _ => {
                self.freshness.insert(key, observed);
                Ok(())
            }
        }
    }

    /// Runs `f`, charging its wall time and the crypto work it counted on
    /// this thread to the CRYPTO cost component (and its wall time, when a
    /// trace span is live, to the span's `crypto` phase).
    fn timed_crypto<T>(meter: &CostMeter, f: impl FnOnce() -> T) -> T {
        use std::sync::OnceLock;
        static CRYPTO_NS: OnceLock<sharoes_obs::Histogram> = OnceLock::new();
        let t0 = Instant::now();
        let (out, work) = sharoes_crypto::work::counted(f);
        let ns = t0.elapsed().as_nanos() as u64;
        meter.charge_crypto(ns, &work);
        CRYPTO_NS.get_or_init(|| sharoes_obs::histogram_ns("core_crypto_op_ns")).observe(ns);
        sharoes_obs::phase_add(sharoes_obs::Phase::Crypto, ns);
        out
    }

    /// Runs `f` with the layout and a clone of the client DRBG as one timed
    /// crypto op, then reseeds the client DRBG with `label`, which moves it
    /// past the states `f` drew.
    fn with_drbg<T>(&mut self, label: &[u8], f: impl FnOnce(&Layout<'_>, &mut HmacDrbg) -> T) -> T {
        let mut rng = self.rng.clone();
        let out = Self::timed_crypto(&self.meter, || f(&self.layout(), &mut rng));
        self.rng.reseed(label);
        out
    }

    /// Opens the root span for one client operation. When no trace is live
    /// on this thread, a fresh 128-bit trace id is minted from the client's
    /// dedicated trace DRBG and becomes the root every nested span — local
    /// and, via the wire header, remote — hangs under. Inside an existing
    /// trace the span is an ordinary child. The root span id is a pure
    /// function of (trace id, op name), so re-running a seeded workload
    /// reproduces the whole tree byte for byte.
    fn op_span(
        &mut self,
        name: &'static str,
        fields: impl FnOnce() -> String,
    ) -> sharoes_obs::SpanGuard {
        use sharoes_obs::{Level, SpanGuard, TraceContext};
        if sharoes_obs::in_span() || !sharoes_obs::tracer().enabled("core", Level::Debug) {
            return SpanGuard::enter(name, fields);
        }
        let hi = self.trace_rng.next_u64() as u128;
        let lo = self.trace_rng.next_u64() as u128;
        let trace_id = (hi << 64) | lo;
        let mut buf = Vec::with_capacity(16 + name.len());
        buf.extend_from_slice(&trace_id.to_be_bytes());
        buf.extend_from_slice(name.as_bytes());
        let span_id = sharoes_obs::trace::fnv1a_64(&buf).max(1);
        SpanGuard::enter_with(name, TraceContext { trace_id, span_id, parent_id: 0 }, fields)
    }

    // -------------------------------------------------------------- mount

    /// Mounts the filesystem: decrypts this user's superblock with their
    /// private key (the one-time public-key operation of §III-C) and
    /// recovers group keys in-band (§II-A).
    pub fn mount(&mut self) -> Result<()> {
        let _span = self.op_span("core.mount", String::new);
        let uid = self.identity.uid;
        let sb_key = ObjectKey::superblock(ids::superblock_view(uid));
        let blob = self
            .fetch(sb_key)?
            .ok_or_else(|| CoreError::NotFound(format!("superblock for {uid}")))?;
        let meter = Arc::clone(&self.meter);
        let private = self.identity.private.clone();
        let sb = Self::timed_crypto(&meter, || Superblock::open_with(&private, &blob))?;

        // Group key blocks, one fetch for all memberships.
        let gids = self.db.groups_of(uid);
        let slots: Vec<ObjectKey> = gids.iter().map(|&g| group_key_slot(g, uid)).collect();
        let blobs = self.fetch_many(slots)?;
        for (gid, blob) in gids.into_iter().zip(blobs) {
            if let Some(blob) = blob {
                let key = Self::timed_crypto(&meter, || open_group_key_block(&private, &blob))?;
                self.identity.install_group_key(gid, key);
            }
        }

        self.cache.clear();
        self.pending.clear();
        self.freshness.clear();
        self.mount = Some(MountState {
            root: NodeHandle {
                inode: sb.root_inode,
                view: sb.root_view,
                mek: sb.root_mek,
                mvk: sb.root_mvk,
            },
        });
        Ok(())
    }

    /// True once mounted.
    pub fn is_mounted(&self) -> bool {
        self.mount.is_some()
    }

    // ------------------------------------------------------ metadata path

    /// Fetches, verifies, and decrypts one metadata replica (the `getattr`
    /// path of Figure 8: one network receive plus one decryption).
    fn open_metadata_at(&mut self, h: &NodeHandle) -> Result<Arc<MetadataBody>> {
        if let Some(body) = self.cache.get(&CacheKey::Meta(h.inode, h.view)) {
            return Ok(body);
        }
        let blob = self.fetch(ObjectKey::metadata(h.inode, h.view))?;
        self.open_metadata_record(h, blob)
    }

    /// [`open_metadata_at`](Self::open_metadata_at) for many handles: the
    /// bodies the cache misses are fetched in one round trip, then each is
    /// opened in order.
    fn open_metadata_many(&mut self, handles: &[NodeHandle]) -> Result<Vec<Arc<MetadataBody>>> {
        let cached: Vec<Option<Arc<MetadataBody>>> =
            handles.iter().map(|h| self.cache.get(&CacheKey::Meta(h.inode, h.view))).collect();
        let missing = handles
            .iter()
            .zip(&cached)
            .filter(|(_, body)| body.is_none())
            .map(|(h, _)| ObjectKey::metadata(h.inode, h.view))
            .collect();
        let mut fetched = self.fetch_many(missing)?.into_iter();
        let mut bodies = Vec::with_capacity(handles.len());
        for (h, body) in handles.iter().zip(cached) {
            bodies.push(match body {
                Some(body) => body,
                None => self.open_metadata_record(h, fetched.next().flatten())?,
            });
        }
        Ok(bodies)
    }

    /// Verifies, decrypts, inode- and freshness-checks the metadata record
    /// fetched for `h` (`None`: the slot is empty), and caches the body.
    fn open_metadata_record(
        &mut self,
        h: &NodeHandle,
        blob: Option<Vec<u8>>,
    ) -> Result<Arc<MetadataBody>> {
        let key = ObjectKey::metadata(h.inode, h.view);
        let blob =
            blob.ok_or_else(|| CoreError::NotFound(format!("metadata inode#{}", h.inode)))?;
        let sealed = SealedRef::parse(&blob).map_err(|_| CoreError::Corrupt("sealed metadata"))?;

        let meter = Arc::clone(&self.meter);
        let policy = self.config.policy;
        let signs = self.signs();
        let private = &self.identity.private;
        let plain = Self::timed_crypto(&meter, || -> Result<Vec<u8>> {
            sealed.verify(&key, if signs { h.mvk.as_ref() } else { None })?;
            let opener = match policy {
                CryptoPolicy::NoEncMdD | CryptoPolicy::NoEncMd => MetaOpen::Plain,
                CryptoPolicy::Sharoes => {
                    let mek = h.mek.as_ref().ok_or(CoreError::PermissionDenied {
                        path: format!("inode#{}", h.inode),
                        needed: "MEK (metadata key)",
                    })?;
                    MetaOpen::Sym(mek)
                }
                CryptoPolicy::Public => MetaOpen::Public(private),
                CryptoPolicy::PubOpt => MetaOpen::PubOpt(private),
            };
            open_metadata(opener, sealed.ciphertext)
        })?;
        let body = Arc::new(
            MetadataBody::from_wire(&plain).map_err(|_| CoreError::Corrupt("metadata body"))?,
        );
        if body.inode != h.inode {
            return Err(CoreError::TamperDetected(format!(
                "metadata inode mismatch: expected {}, got {}",
                h.inode, body.inode
            )));
        }
        self.check_freshness(
            FreshKey::Meta(h.inode, h.view),
            body.version,
            &format!("metadata inode#{}", h.inode),
        )?;
        self.cache.put(CacheKey::Meta(h.inode, h.view), Arc::clone(&body), plain.len());
        Ok(body)
    }

    /// Scheme-2 split-point resolution (§III-D.2): if this user's class on
    /// the object differs from the continuation replica we landed on,
    /// follow the per-user/per-group split entry to the right CAP.
    fn reconcile(
        &mut self,
        h: NodeHandle,
        body: Arc<MetadataBody>,
    ) -> Result<(NodeHandle, Arc<MetadataBody>)> {
        if self.config.effective_scheme() != Scheme::SharedCaps {
            return Ok((h, body));
        }
        let attrs = ObjectAttrs::from_body(&body);
        let my_class = attrs.class_of(self.identity.uid, &self.db);
        let my_tag = ViewId::Class(my_class).tag(h.inode);
        if my_tag == h.view {
            return Ok((h, body));
        }

        // Candidate split slots: personal first, then group-addressed.
        let mut candidates: Vec<(ObjectKey, Option<Gid>)> = vec![(
            ObjectKey::metadata(h.inode, ids::split_user_view(h.inode, self.identity.uid)),
            None,
        )];
        for gid in self.db.groups_of(self.identity.uid) {
            candidates.push((
                ObjectKey::metadata(h.inode, ids::split_group_view(h.inode, gid)),
                Some(gid),
            ));
        }

        for (slot, via_group) in candidates {
            let ck = CacheKey::Meta(slot.inode, slot.view);
            let entry = match self.cache.get::<SplitEntry>(&ck) {
                Some(entry) => entry,
                None => {
                    let Some(blob) = self.fetch(slot)? else { continue };
                    let meter = Arc::clone(&self.meter);
                    let group_key;
                    let key = match via_group {
                        None => &self.identity.private,
                        Some(gid) => {
                            let Some(k) = self.identity.group_key(gid) else { continue };
                            group_key = k;
                            &group_key
                        }
                    };
                    let decrypted = Self::timed_crypto(&meter, || key.decrypt_blob(&blob));
                    // An entry that does not open is not addressed to us.
                    let Ok(plain) = decrypted else { continue };
                    let entry = Arc::new(
                        SplitEntry::from_wire(&plain)
                            .map_err(|_| CoreError::Corrupt("split entry"))?,
                    );
                    self.cache.put(ck, Arc::clone(&entry), plain.len());
                    entry
                }
            };
            let nh = NodeHandle {
                inode: h.inode,
                view: entry.view,
                mek: entry.mek.clone(),
                mvk: entry.mvk.clone(),
            };
            let nbody = self.open_metadata_at(&nh)?;
            return Ok((nh, nbody));
        }
        // No entry: the continuation CAP is (at least) our class's CAP —
        // permissions may coincide. Use it.
        Ok((h, body))
    }

    /// Fetches, verifies, and decrypts the directory-table replica for `h`.
    fn load_table(&mut self, h: &NodeHandle, body: &MetadataBody) -> Result<Arc<DirTable>> {
        let ck = CacheKey::Table(h.inode, h.view);
        if let Some(table) = self.cache.get(&ck) {
            return Ok(table);
        }
        let key = ObjectKey::data(h.inode, h.view, 0);
        let blob = self.fetch(key)?.ok_or(CoreError::PermissionDenied {
            path: format!("inode#{}", h.inode),
            needed: "directory-table access (no replica for this CAP)",
        })?;
        let policy = self.config.policy;
        let table = Self::timed_crypto(&self.meter, || {
            open_table(policy, &key, &blob, body.dek.as_ref(), body.dvk.as_ref())
        })?;
        let plain_len = table.as_bytes().len();
        let table = Arc::new(table);
        self.cache.put(ck, Arc::clone(&table), plain_len);
        Ok(table)
    }

    /// Resolves an absolute path to `(handle, body)` with traversal checks.
    fn resolve(&mut self, path: &str) -> Result<(NodeHandle, Arc<MetadataBody>)> {
        let parts = fspath::split(path)?;
        let root = self.mount.as_ref().ok_or(CoreError::NotMounted)?.root.clone();
        let mut h = root;
        let mut body = self.open_metadata_at(&h)?;
        let (nh, nbody) = self.reconcile(h, body)?;
        h = nh;
        body = nbody;

        for (i, comp) in parts.iter().enumerate() {
            let attrs = ObjectAttrs::from_body(&body);
            if attrs.kind != NodeKind::Dir {
                return Err(CoreError::NotADirectory(fspath::join(&parts[..i])));
            }
            let perm = attrs.perm_of(self.identity.uid, &self.db);
            if !perm.exec {
                return Err(CoreError::PermissionDenied {
                    path: fspath::join(&parts[..i]),
                    needed: "exec (traverse)",
                });
            }
            let table = self.load_table(&h, &body)?;
            let tek = body.dek.as_ref();
            let child = match table.lookup(comp, tek)? {
                Some(child) => child,
                None => {
                    // The cached table may predate another client's create:
                    // revalidate once before declaring the entry missing.
                    self.cache.invalidate(&CacheKey::Table(h.inode, h.view));
                    let fresh = self.load_table(&h, &body)?;
                    fresh
                        .lookup(comp, tek)?
                        .ok_or_else(|| CoreError::NotFound(fspath::join(&parts[..=i])))?
                }
            };
            h = NodeHandle { inode: child.inode, view: child.view, mek: child.mek, mvk: child.mvk };
            body = self.open_metadata_at(&h)?;
            let (nh, nbody) = self.reconcile(h, body)?;
            h = nh;
            body = nbody;
        }
        Ok((h, body))
    }

    // ------------------------------------------------------------ readers

    /// `stat`: attributes of the object at `path` (Figure 8 `getattr`).
    pub fn getattr(&mut self, path: &str) -> Result<FileStat> {
        let _span = self.op_span("core.getattr", || format!("path={path:?}"));
        let (_, body) = self.resolve(path)?;
        Ok(FileStat {
            inode: body.inode,
            kind: body.kind,
            owner: Uid(body.owner),
            group: Gid(body.group),
            mode: Mode::from_octal(body.mode),
            size: body.size,
            nblocks: body.nblocks,
            generation: body.generation,
            rekey_pending: body.rekey_pending,
        })
    }

    /// Lists a directory (requires the read permission; exec-only CAPs
    /// cannot list — §III-A).
    pub fn readdir(&mut self, path: &str) -> Result<Vec<ReadDirEntry>> {
        let _span = self.op_span("core.readdir", || format!("path={path:?}"));
        let (h, body) = self.resolve(path)?;
        let attrs = ObjectAttrs::from_body(&body);
        if attrs.kind != NodeKind::Dir {
            return Err(CoreError::NotADirectory(path.to_string()));
        }
        let perm = attrs.perm_of(self.identity.uid, &self.db);
        if !perm.read {
            return Err(CoreError::PermissionDenied { path: path.to_string(), needed: "read" });
        }
        let table = self.load_table(&h, &body)?;
        Ok(table
            .list()
            .map(|(name, kind, inode)| ReadDirEntry { name: name.to_string(), kind, inode })
            .collect())
    }

    /// Fetches, verifies, and decrypts the data manifest — the per-file
    /// DSK-signed object that authenticates every block (§II-B: "writers
    /// sign the hash of the file content"). Speculatively fetches block 0 in
    /// the same round trip on a cold read.
    fn load_manifest(&mut self, body: &MetadataBody) -> Result<Arc<Manifest>> {
        let inode = body.inode;
        let generation = body.generation;
        let ck = CacheKey::Manifest(inode, generation);
        if let Some(manifest) = self.cache.get(&ck) {
            return Ok(manifest);
        }
        let dview = ids::data_view(inode, generation);
        let mkey = ObjectKey::data(inode, dview, MANIFEST_BLOCK);
        let b0key = ObjectKey::data(inode, dview, 0);
        let fetched = self.fetch_many(vec![mkey, b0key])?;
        let mblob = fetched[0].clone().ok_or(CoreError::Corrupt("missing data manifest"))?;
        let mplain = self.open_manifest_record(&mkey, &mblob, body)?;
        let manifest = Arc::new(Layout::parse_manifest(&mplain)?);
        self.check_freshness(
            FreshKey::Data(inode, generation),
            manifest.version,
            &format!("data manifest inode#{inode}"),
        )?;
        self.cache.put(ck, Arc::clone(&manifest), mplain.len());
        if let Some(b0) = &fetched[1] {
            if let Ok(mut plain) = self.open_data_blocks(body, &manifest, &[(b0key, b0)]) {
                let plain = plain.remove(0);
                let len = plain.len();
                self.cache.put(CacheKey::Block(inode, generation, 0), plain, len);
            }
        }
        Ok(manifest)
    }

    /// Like [`Self::load_manifest`] but without the speculative block-0
    /// fetch (used by close, which overwrites the data anyway).
    fn load_manifest_lean(&mut self, body: &MetadataBody) -> Result<Arc<Manifest>> {
        let ck = CacheKey::Manifest(body.inode, body.generation);
        if let Some(manifest) = self.cache.get(&ck) {
            return Ok(manifest);
        }
        let dview = ids::data_view(body.inode, body.generation);
        let mkey = ObjectKey::data(body.inode, dview, MANIFEST_BLOCK);
        let blob = self.fetch(mkey)?.ok_or(CoreError::Corrupt("missing data manifest"))?;
        let plain = self.open_manifest_record(&mkey, &blob, body)?;
        let manifest = Arc::new(Layout::parse_manifest(&plain)?);
        self.check_freshness(
            FreshKey::Data(body.inode, body.generation),
            manifest.version,
            &format!("data manifest inode#{}", body.inode),
        )?;
        self.cache.put(ck, Arc::clone(&manifest), plain.len());
        Ok(manifest)
    }

    /// Verifies (signature) and decrypts the manifest record.
    fn open_manifest_record(
        &mut self,
        key: &ObjectKey,
        blob: &[u8],
        body: &MetadataBody,
    ) -> Result<Vec<u8>> {
        let sealed = SealedRef::parse(blob).map_err(|_| CoreError::Corrupt("sealed manifest"))?;
        let meter = Arc::clone(&self.meter);
        let signs = self.signs();
        let encrypts = self.encrypts_data();
        let dvk = body.dvk.clone();
        let dek = body.dek.clone();
        Self::timed_crypto(&meter, || -> Result<Vec<u8>> {
            sealed.verify(key, if signs { dvk.as_ref() } else { None })?;
            if encrypts {
                let dek = dek.as_ref().ok_or(CoreError::PermissionDenied {
                    path: format!("inode#{}", key.inode),
                    needed: "DEK (read)",
                })?;
                Ok(dek.open(sealed.ciphertext)?)
            } else {
                Ok(sealed.ciphertext.to_vec())
            }
        })
    }

    /// Authenticates and decrypts fetched data blocks of one file, the
    /// one block-open path. Every ciphertext is borrowed from its fetched
    /// record; when the policy signs, all of them are hashed in one batch
    /// and checked against `manifest` before any is decrypted. Each block
    /// is then decrypted straight into the buffer the cache keeps, under
    /// one DEK key schedule. Returns the plaintexts in `blocks` order.
    fn open_data_blocks(
        &self,
        body: &MetadataBody,
        manifest: &Manifest,
        blocks: &[(ObjectKey, &[u8])],
    ) -> Result<Vec<Arc<[u8]>>> {
        let sealed = blocks
            .iter()
            .map(|(_, blob)| SealedRef::parse(blob).map_err(|_| CoreError::Corrupt("sealed block")))
            .collect::<Result<Vec<_>>>()?;
        let signs = self.signs();
        let encrypts = self.encrypts_data();
        Self::timed_crypto(&self.meter, || -> Result<Vec<Arc<[u8]>>> {
            if signs {
                let ciphertexts: Vec<&[u8]> = sealed.iter().map(|s| s.ciphertext).collect();
                for ((key, _), actual) in blocks.iter().zip(Sha256::digest_many(&ciphertexts)) {
                    let expected = manifest.hash_of(key.block).ok_or_else(|| {
                        CoreError::TamperDetected(format!("block {key:?} not covered by manifest"))
                    })?;
                    if !sharoes_crypto::ct_eq(&actual, expected) {
                        return Err(CoreError::TamperDetected(format!(
                            "block hash mismatch on {key:?}"
                        )));
                    }
                }
            }
            if !encrypts {
                return Ok(sealed.iter().map(|s| Arc::from(s.ciphertext)).collect());
            }
            let aes = body
                .dek
                .as_ref()
                .ok_or(CoreError::PermissionDenied {
                    path: format!("inode#{}", body.inode),
                    needed: "DEK (read)",
                })?
                .cipher();
            sealed
                .iter()
                .map(|s| {
                    let (iv, ct) = s.ciphertext.split_first_chunk::<16>().ok_or(
                        sharoes_crypto::CryptoError::InvalidCiphertext("CTR blob shorter than IV"),
                    )?;
                    let mut plain = Arc::<[u8]>::from(ct);
                    let buf = Arc::get_mut(&mut plain).expect("a fresh Arc is unshared");
                    sharoes_crypto::modes::ctr_xor(&aes, iv, buf);
                    Ok(plain)
                })
                .collect()
        })
    }

    /// Reads a whole file (Figure 8 `read`: obtain data and decrypt).
    pub fn read(&mut self, path: &str) -> Result<Vec<u8>> {
        let _span = self.op_span("core.read", || format!("path={path:?}"));
        // Unflushed local writes are visible to the writer.
        if let Some(p) = self.pending.get(path) {
            return Ok(p.content.clone());
        }
        let (_, body) = self.resolve(path)?;
        let attrs = ObjectAttrs::from_body(&body);
        if attrs.kind != NodeKind::File {
            return Err(CoreError::IsADirectory(path.to_string()));
        }
        let perm = attrs.perm_of(self.identity.uid, &self.db);
        if !perm.read {
            return Err(CoreError::PermissionDenied { path: path.to_string(), needed: "read" });
        }
        if self.encrypts_data() && body.dek.is_none() {
            return Err(CoreError::PermissionDenied {
                path: path.to_string(),
                needed: "DEK (read)",
            });
        }

        let manifest = self.load_manifest(&body)?;
        let inode = body.inode;
        let generation = body.generation;
        let dview = ids::data_view(inode, generation);

        // Blocks are assembled from local copies; the cache is populated
        // opportunistically and may evict under a small capacity without
        // affecting correctness.
        let mut blocks: Vec<Option<Arc<[u8]>>> = vec![None; manifest.nblocks as usize];
        let mut missing = Vec::new();
        for (i, slot) in blocks.iter_mut().enumerate() {
            *slot = self.cache.get(&CacheKey::Block(inode, generation, i as u32));
            if slot.is_none() {
                missing.push(ObjectKey::data(inode, dview, i as u32));
            }
        }
        let fetched = self.fetch_many(missing.clone())?;
        let fetched = fetched
            .iter()
            .zip(&missing)
            .map(|(blob, key)| {
                Ok((*key, blob.as_deref().ok_or(CoreError::Corrupt("missing data block"))?))
            })
            .collect::<Result<Vec<_>>>()?;
        let opened = self.open_data_blocks(&body, &manifest, &fetched)?;
        for ((key, _), block) in fetched.iter().zip(opened) {
            let len = block.len();
            let ck = CacheKey::Block(inode, generation, key.block);
            self.cache.put(ck, Arc::clone(&block), len);
            blocks[key.block as usize] = Some(block);
        }

        let mut out = Vec::with_capacity(manifest.size as usize);
        for block in blocks {
            out.extend_from_slice(&block.ok_or(CoreError::Corrupt("missing data block"))?);
        }
        out.truncate(manifest.size as usize);
        Ok(out)
    }

    // ------------------------------------------------------------ writers

    /// Stages a whole-file write. "We cache all writes locally and only
    /// encrypt the file before sending it to the SSP as the result of a
    /// file close" (§IV-A.1).
    pub fn write(&mut self, path: &str, data: &[u8]) -> Result<()> {
        let _span = self.op_span("core.write", || format!("path={path:?}"));
        let (_, body) = self.resolve(path)?;
        let attrs = ObjectAttrs::from_body(&body);
        if attrs.kind != NodeKind::File {
            return Err(CoreError::IsADirectory(path.to_string()));
        }
        let perm = attrs.perm_of(self.identity.uid, &self.db);
        if !perm.write {
            return Err(CoreError::PermissionDenied { path: path.to_string(), needed: "write" });
        }
        if self.encrypts_data() && body.dek.is_none() {
            return Err(CoreError::PermissionDenied { path: path.to_string(), needed: "DEK" });
        }
        if self.signs() && body.dsk.is_none() {
            return Err(CoreError::PermissionDenied {
                path: path.to_string(),
                needed: "DSK (write)",
            });
        }
        self.pending.insert(path.to_string(), PendingWrite { content: data.to_vec() });
        Ok(())
    }

    /// Flushes a staged write (Figure 8 `close`: encrypt file, send to
    /// server — one data encryption, one data send).
    pub fn close(&mut self, path: &str) -> Result<()> {
        let Some(pending) = self.pending.remove(path) else {
            return Ok(()); // close without write is a no-op
        };
        let (h, body) = self.resolve(path)?;

        // Lazy-revocation hook: an owner flushing content rotates the DEK.
        if body.rekey_pending && self.config.policy == CryptoPolicy::Sharoes && body.msk.is_some() {
            self.rekey_and_write(h, &body, &pending.content)?;
            return Ok(());
        }

        let inode = body.inode;
        let generation = body.generation;
        let dview = ids::data_view(inode, generation);
        // Only the block count (and write version) matter here; skip the
        // speculative block-0 fetch the read path does.
        let (old_nblocks, old_version) =
            self.load_manifest_lean(&body).map(|m| (m.nblocks, m.version)).unwrap_or((0, 0));

        let records = self.seal_file_content(&body, &pending.content, old_version + 1)?;
        let new_nblocks = pending.content.len().div_ceil(self.config.block_size.max(1)) as u32;
        // A shrink's stale trailing blocks ride in the same request and go
        // after the puts: the manifest is replaced, never deleted, so a
        // refused close leaves the old file whole.
        let stale = (new_nblocks..old_nblocks).map(|b| ObjectKey::data(inode, dview, b)).collect();
        self.mutate(records, stale, Vec::new())?;
        self.freshness.insert(FreshKey::Data(inode, generation), old_version + 1);

        // Refresh caches with the new plaintext (manifest refetched lazily:
        // its hashes live in the sealed records we just built).
        self.cache.invalidate(&CacheKey::Manifest(inode, generation));
        for i in 0..old_nblocks.max(new_nblocks) {
            self.cache.invalidate(&CacheKey::Block(inode, generation, i));
        }
        for (i, chunk) in pending.content.chunks(self.config.block_size.max(1)).enumerate() {
            let ck = CacheKey::Block(inode, generation, i as u32);
            self.cache.put(ck, Arc::<[u8]>::from(chunk), chunk.len());
        }
        Ok(())
    }

    /// Seals file content into manifest + block records using the keys in
    /// `body` (a writer's CAP).
    fn seal_file_content(
        &mut self,
        body: &MetadataBody,
        content: &[u8],
        version: u64,
    ) -> Result<Vec<(ObjectKey, Vec<u8>)>> {
        let inode = body.inode;
        let dview = ids::data_view(inode, body.generation);
        let block_size = self.config.block_size.max(1);
        let denied =
            |needed| CoreError::PermissionDenied { path: format!("inode#{inode}"), needed };
        let keys = DataKeys {
            dek: if self.encrypts_data() {
                Some(body.dek.as_ref().ok_or_else(|| denied("DEK"))?)
            } else {
                None
            },
            dsk: if self.signs() {
                Some(body.dsk.as_ref().ok_or_else(|| denied("DSK (write)"))?)
            } else {
                None
            },
        };
        Ok(self.with_drbg(b"seal-file-content", |_, rng| {
            seal_data(inode, dview, block_size, content, version, keys, rng)
        }))
    }

    /// Convenience: write + close in one call.
    pub fn write_file(&mut self, path: &str, data: &[u8]) -> Result<()> {
        let _span = self.op_span("core.write_file", || format!("path={path:?}"));
        self.write(path, data)?;
        self.close(path)
    }

    /// Creates an empty file (Figure 8 `mknod`).
    pub fn create(&mut self, path: &str, mode: Mode) -> Result<u64> {
        self.create_child(path, mode, NodeKind::File)
    }

    /// Creates a directory (Figure 8 `mkdir`).
    pub fn mkdir(&mut self, path: &str, mode: Mode) -> Result<u64> {
        self.create_child(path, mode, NodeKind::Dir)
    }

    fn alloc_inode(&mut self) -> u64 {
        // Random 64-bit inode numbers: collision-free in practice and
        // allocatable without coordination between distributed clients. The
        // per-mount nonce guarantees distinctness even across clients built
        // from identical deterministic RNG seeds.
        loop {
            let candidate = self.rng.next_u64() ^ self.mount_nonce;
            if candidate > 1 {
                return candidate;
            }
        }
    }

    fn primary_gid(&self) -> Result<Gid> {
        self.db
            .user(self.identity.uid)
            .map(|u| u.primary_gid)
            .ok_or_else(|| CoreError::UnknownPrincipal(self.identity.uid.to_string()))
    }

    fn create_child(&mut self, path: &str, mode: Mode, kind: NodeKind) -> Result<u64> {
        let _span = self.op_span("core.create", || format!("path={path:?} kind={kind:?}"));
        let (parent_parts, name) = fspath::split_parent(path)?;
        fspath::validate_name(name)?;
        let parent_path = fspath::join(&parent_parts);
        let name = name.to_string();
        let (ph, pbody) = self.resolve(&parent_path)?;
        let pattrs = ObjectAttrs::from_body(&pbody);
        if pattrs.kind != NodeKind::Dir {
            return Err(CoreError::NotADirectory(parent_path));
        }
        let perm = pattrs.perm_of(self.identity.uid, &self.db);
        if !(perm.write && perm.exec) {
            return Err(CoreError::PermissionDenied {
                path: path.to_string(),
                needed: "write+exec on parent",
            });
        }
        // Duplicate check through our own (full) table view.
        let table = self.load_table(&ph, &pbody)?;
        if table.lookup(&name, pbody.dek.as_ref())?.is_some() {
            return Err(CoreError::AlreadyExists(path.to_string()));
        }

        let inode = self.alloc_inode();
        let gid = self.primary_gid()?;
        let child_attrs = ObjectAttrs::new(inode, kind, self.identity.uid, gid, mode);
        self.layout().validate_perms(&child_attrs)?;

        let pool = Arc::clone(&self.pool);
        let child_secrets = self.with_drbg(b"create-child", |layout, rng| {
            layout.generate_secrets(&child_attrs, &pool, rng)
        });

        // Child records: metadata replicas + (empty) content. The body of
        // our own view is kept to be cached once the records are stored.
        let my_view = self.layout().view_of(&child_attrs, self.identity.uid);
        let (mut records, my_body) = self.with_drbg(b"create-records", |layout, rng| {
            let mut bodies = layout.metadata_bodies(&child_attrs, &child_secrets)?;
            let mut recs =
                layout.seal_metadata_bodies(&child_attrs, &child_secrets, &bodies, rng)?;
            match kind {
                NodeKind::File => {
                    recs.extend(layout.data_records(&child_attrs, &child_secrets, &[], rng))
                }
                NodeKind::Dir => {
                    recs.extend(layout.table_records(&child_attrs, &child_secrets, &[], rng)?.0)
                }
            }
            let mine = bodies.iter().position(|(view, _)| *view == my_view);
            Ok::<_, CoreError>((recs, mine.map(|i| bodies.swap_remove(i).1)))
        })?;

        // Parent tables: add one row per view (the "[*] per required CAP"
        // cost of Figure 8), collecting split targets for the new child.
        let (table_records, divergent) = self.rebuild_parent_tables(
            &ph,
            &pbody,
            TableEdit::Insert { name: &name, child: &child_attrs, child_secrets: &child_secrets },
        )?;
        records.extend(table_records);

        if !divergent.is_empty() {
            records.extend(self.with_drbg(b"create-splits", |layout, rng| {
                layout.split_records(
                    layout.child_keys(&child_attrs, &child_secrets),
                    &divergent,
                    rng,
                )
            })?);
        }

        // One round trip ships everything (paper mkdir: "send both").
        self.mutate(records, Vec::new(), Vec::new())?;

        // rebuild_parent_tables refreshed the table caches in place. Cache
        // what was just sealed, with its freshness version, so a following
        // write fetches nothing: our own metadata body and a file's empty
        // manifest, as opening their records would give them.
        if let Some(body) = my_body {
            let view = my_view.tag(inode);
            self.freshness.insert(FreshKey::Meta(inode, view), body.version);
            let plain_len = body.to_wire().len();
            self.cache.put(CacheKey::Meta(inode, view), Arc::new(body), plain_len);
        }
        if kind == NodeKind::File {
            let manifest = Manifest::empty();
            let generation = child_attrs.generation;
            self.freshness.insert(FreshKey::Data(inode, generation), manifest.version);
            let plain_len = manifest.to_wire().len();
            self.cache.put(CacheKey::Manifest(inode, generation), Arc::new(manifest), plain_len);
        }
        Ok(inode)
    }

    /// Removes a file.
    pub fn unlink(&mut self, path: &str) -> Result<()> {
        self.remove_child(path, NodeKind::File)
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &str) -> Result<()> {
        self.remove_child(path, NodeKind::Dir)
    }

    fn remove_child(&mut self, path: &str, expect: NodeKind) -> Result<()> {
        let _span = self.op_span("core.remove", || format!("path={path:?}"));
        let (parent_parts, name) = fspath::split_parent(path)?;
        let parent_path = fspath::join(&parent_parts);
        let name = name.to_string();
        let (ph, pbody) = self.resolve(&parent_path)?;
        let pattrs = ObjectAttrs::from_body(&pbody);
        let perm = pattrs.perm_of(self.identity.uid, &self.db);
        if !(perm.write && perm.exec) {
            return Err(CoreError::PermissionDenied {
                path: path.to_string(),
                needed: "write+exec on parent",
            });
        }

        let (ch, cbody) = self.resolve(path)?;
        let cattrs = ObjectAttrs::from_body(&cbody);
        match (expect, cattrs.kind) {
            (NodeKind::File, NodeKind::Dir) => {
                return Err(CoreError::IsADirectory(path.to_string()))
            }
            (NodeKind::Dir, NodeKind::File) => {
                return Err(CoreError::NotADirectory(path.to_string()))
            }
            _ => {}
        }
        if expect == NodeKind::Dir {
            // Emptiness check requires a table-bearing CAP on the child.
            let table = self.load_table(&ch, &cbody)?;
            if !table.is_empty() {
                return Err(CoreError::NotEmpty(path.to_string()));
            }
        }

        let (table_records, _) =
            self.rebuild_parent_tables(&ph, &pbody, TableEdit::Remove { name: &name })?;

        // Delete the child's replicas, split entries, and data, in the
        // round trip that stores the parent's edited tables.
        let mut doomed = self.layout().replica_slots(&cattrs);
        for user in self.db.users() {
            doomed.push(ObjectKey::metadata(
                cattrs.inode,
                ids::split_user_view(cattrs.inode, user.uid),
            ));
        }
        for group in self.db.groups() {
            doomed.push(ObjectKey::metadata(
                cattrs.inode,
                ids::split_group_view(cattrs.inode, group.gid),
            ));
        }
        let data = match cattrs.kind {
            NodeKind::File => vec![(cattrs.inode, ids::data_view(cattrs.inode, cattrs.generation))],
            NodeKind::Dir => Vec::new(),
        };
        self.mutate(table_records, doomed, data)?;

        self.pending.remove(path);
        self.cache.invalidate_inode(cattrs.inode);
        Ok(())
    }

    /// Renames an entry within the same directory (cross-directory moves
    /// are supported for objects the caller owns; see DESIGN.md).
    pub fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        let _span = self.op_span("core.rename", || format!("from={from:?} to={to:?}"));
        let (from_parent_parts, from_name) = fspath::split_parent(from)?;
        let (to_parent_parts, to_name) = fspath::split_parent(to)?;
        fspath::validate_name(to_name)?;
        if from_parent_parts != to_parent_parts {
            return Err(CoreError::PermissionDenied {
                path: to.to_string(),
                needed: "same-directory rename (cross-directory moves: copy+unlink)",
            });
        }
        let parent_path = fspath::join(&from_parent_parts);
        let from_name = from_name.to_string();
        let to_name = to_name.to_string();

        let (ph, pbody) = self.resolve(&parent_path)?;
        let pattrs = ObjectAttrs::from_body(&pbody);
        let perm = pattrs.perm_of(self.identity.uid, &self.db);
        if !(perm.write && perm.exec) {
            return Err(CoreError::PermissionDenied {
                path: from.to_string(),
                needed: "write+exec on parent",
            });
        }
        let table = self.load_table(&ph, &pbody)?;
        if table.lookup(&from_name, pbody.dek.as_ref())?.is_none() {
            return Err(CoreError::NotFound(from.to_string()));
        }
        if table.lookup(&to_name, pbody.dek.as_ref())?.is_some() {
            return Err(CoreError::AlreadyExists(to.to_string()));
        }

        let (table_records, _) = self.rebuild_parent_tables(
            &ph,
            &pbody,
            TableEdit::Rename { from: &from_name, to: &to_name },
        )?;
        self.mutate(table_records, Vec::new(), Vec::new())?;
        Ok(())
    }

    // --------------------------------------------- parent table rebuilds

    /// Applies an edit to every table replica of a directory.
    ///
    /// The writer holds all table keys (`write_teks`), fetches every view's
    /// current table, applies the edit, and re-seals each — this is exactly
    /// the per-CAP cost the paper charges mkdir/mknod with.
    #[allow(clippy::type_complexity)]
    fn rebuild_parent_tables(
        &mut self,
        ph: &NodeHandle,
        pbody: &MetadataBody,
        edit: TableEdit<'_>,
    ) -> Result<(Vec<(ObjectKey, Vec<u8>)>, Vec<(Uid, ClassTag)>)> {
        let pattrs = ObjectAttrs::from_body(pbody);
        let views = self.layout().table_views(&pattrs)?;

        // Table keys per view.
        let teks: HashMap<ViewId, SymKey> = pbody.write_teks.iter().cloned().collect();
        if self.encrypts_data() && teks.len() < views.len() {
            return Err(CoreError::PermissionDenied {
                path: format!("inode#{}", ph.inode),
                needed: "write TEKs (directory write)",
            });
        }

        // Names come from our own (full) view.
        let my_table = self.load_table(ph, pbody)?;

        // Current replicas: cached where possible (the paper's mkdir costs
        // are sends only — the client caches the parent table), fetched in
        // one round trip otherwise.
        let keys: Vec<ObjectKey> = views
            .iter()
            .map(|(view, _)| ObjectKey::data(ph.inode, view.tag(ph.inode), 0))
            .collect();
        let mut tables: Vec<Option<Arc<DirTable>>> = Vec::with_capacity(views.len());
        let mut missing: Vec<(usize, ObjectKey)> = Vec::new();
        for (i, (view, _)) in views.iter().enumerate() {
            let ck = CacheKey::Table(ph.inode, view.tag(ph.inode));
            let table = self.cache.get(&ck);
            if table.is_none() {
                missing.push((i, keys[i]));
            }
            tables.push(table);
        }
        if !missing.is_empty() {
            let fetched = self.fetch_many(missing.iter().map(|(_, k)| *k).collect())?;
            let policy = self.config.policy;
            // Every replica is checked against the directory's DVK before it
            // is opened: its content is re-signed with our DSK below.
            for ((slot, key), blob) in missing.iter().zip(fetched) {
                let blob = blob.ok_or(CoreError::Corrupt("missing table replica"))?;
                let tek = teks.get(&views[*slot].0);
                let table = Self::timed_crypto(&self.meter, || {
                    open_table(policy, key, &blob, tek, pbody.dvk.as_ref())
                })?;
                tables[*slot] = Some(Arc::new(table));
            }
        }

        let dsk = if self.signs() {
            Some(pbody.dsk.as_ref().ok_or(CoreError::PermissionDenied {
                path: format!("inode#{}", ph.inode),
                needed: "DSK (directory write)",
            })?)
        } else {
            None
        };
        let mut rng = self.rng.clone();
        let mut divergent_union: Vec<(Uid, ClassTag)> = Vec::new();
        let mut records = Vec::with_capacity(views.len());

        for ((view, access), (key, table)) in views.iter().zip(keys.iter().zip(tables)) {
            let access = *access;
            let table = table.ok_or(CoreError::Corrupt("missing table replica"))?;

            // An insert's row in this view.
            let inserted = match &edit {
                TableEdit::Insert { name, child, child_secrets } => {
                    let layout = self.layout();
                    let keys = layout.child_keys(child, child_secrets);
                    let (child_ref, divergent) = layout.child_ref(&pattrs, *view, keys);
                    for d in divergent {
                        if !divergent_union.contains(&d) {
                            divergent_union.push(d);
                        }
                    }
                    Some((name.to_string(), child_ref))
                }
                TableEdit::Remove { .. } | TableEdit::Rename { .. } => None,
            };

            let keys = self.layout().table_keys(*view, &teks, dsk)?;
            let (record, edited) = match access {
                // Named rows are edited in the cached table's bytes: one row
                // appended, cut out or renamed; nothing else is re-encoded.
                TableAccess::Full | TableAccess::NamesOnly => {
                    let mut edited = DirTable::clone(&table);
                    match (&edit, inserted) {
                        (TableEdit::Insert { .. }, Some((name, child))) => match access {
                            TableAccess::Full => edited.push_full(&name, &child),
                            _ => edited.push_name(&name, child.kind),
                        },
                        (TableEdit::Remove { name }, _) => edited.remove(name),
                        (TableEdit::Rename { from, to }, _) => edited.rename(from, to),
                        (TableEdit::Insert { .. }, None) => unreachable!("resolved above"),
                    }
                    let record = Self::timed_crypto(&self.meter, || {
                        seal_table(key, &edited, keys, &mut rng)
                    });
                    (record, edited)
                }
                // Exec-only rows are each sealed under a key derived from
                // their name: recover every row through our own view's
                // names, edit the entries, and re-seal all of them.
                TableAccess::ExecOnly => {
                    let tek =
                        teks.get(view).ok_or(CoreError::Corrupt("exec-only rebuild needs TEK"))?;
                    let mut entries: Vec<(String, ChildRef)> = Vec::with_capacity(table.len() + 1);
                    for (name, ..) in my_table.list() {
                        if let Some(child) = table.lookup(name, Some(tek))? {
                            entries.push((name.to_string(), child));
                        }
                    }
                    match &edit {
                        TableEdit::Insert { .. } => entries.extend(inserted),
                        TableEdit::Remove { name } => entries.retain(|(n, _)| n != name),
                        TableEdit::Rename { from, to } => {
                            for (n, _) in entries.iter_mut() {
                                if n == from {
                                    *n = to.to_string();
                                }
                            }
                        }
                    }
                    Self::timed_crypto(&self.meter, || {
                        let edited = DirTable::exec_only(&entries, tek, &mut rng);
                        (seal_table(key, &edited, keys, &mut rng), edited)
                    })
                }
                TableAccess::None => unreachable!("filtered"),
            };
            let ck = CacheKey::Table(ph.inode, view.tag(ph.inode));
            let plain_len = edited.as_bytes().len();
            self.cache.put(ck, Arc::new(edited), plain_len);
            records.push((*key, record));
        }
        self.rng.reseed(b"rebuild-tables");
        Ok((records, divergent_union))
    }

    // ----------------------------------------------------------- chmod &c

    /// Changes permissions (Figure 8 `chmod`). Owner only. Revocations
    /// re-key per the configured [`RevocationMode`].
    pub fn chmod(&mut self, path: &str, mode: Mode) -> Result<()> {
        self.update_access(path, Some(mode), None)
    }

    /// Replaces the POSIX ACL. Owner only. New named principals get split
    /// entries; removed grants trigger revocation handling.
    pub fn set_acl(&mut self, path: &str, acl: Acl) -> Result<()> {
        self.update_access(path, None, Some(acl))
    }

    fn update_access(&mut self, path: &str, mode: Option<Mode>, acl: Option<Acl>) -> Result<()> {
        let _span = self.op_span("core.update_access", || format!("path={path:?}"));
        let (h, body) = self.resolve(path)?;
        let old_attrs = ObjectAttrs::from_body(&body);
        if old_attrs.owner != self.identity.uid {
            return Err(CoreError::PermissionDenied {
                path: path.to_string(),
                needed: "ownership",
            });
        }
        if self.signs() && body.msk.is_none() {
            return Err(CoreError::PermissionDenied {
                path: path.to_string(),
                needed: "MSK (owner)",
            });
        }

        let mut new_attrs = old_attrs.clone();
        new_attrs.version += 1;
        if let Some(mode) = mode {
            new_attrs.mode = mode;
        }
        if let Some(acl) = acl {
            new_attrs.acl = acl;
        }
        self.layout().validate_perms(&new_attrs)?;

        // Revocation detection: any user whose effective permission shrinks.
        let mut revocation = false;
        for user in self.db.users() {
            let old = old_attrs.perm_of(user.uid, &self.db);
            let new = new_attrs.perm_of(user.uid, &self.db);
            if !new.covers(old) {
                revocation = true;
                break;
            }
        }

        // Rebuild secrets from the owner CAP.
        let mut secrets = self.secrets_from_owner_body(&h, &body)?;

        // New views (added ACL classes) need fresh MEKs/TEKs.
        let layout_views: Vec<ViewId> =
            self.layout().views(&new_attrs).into_iter().map(|(v, _)| v).collect();
        for view in &layout_views {
            if self.config.policy == CryptoPolicy::Sharoes && !secrets.meks.contains_key(view) {
                secrets.meks.insert(*view, SymKey::random(&mut self.rng));
            }
            if new_attrs.kind == NodeKind::Dir && !secrets.teks.contains_key(view) {
                secrets.teks.insert(*view, SymKey::random(&mut self.rng));
            }
        }

        let mut records = Vec::new();
        let mut dropped_views = Vec::new();
        let mut stale_slots: Vec<ObjectKey> = Vec::new();

        // Directories need their children's key material to rebuild table
        // replicas (both grants, which may create replicas for classes that
        // never had one, and revocations, which rotate TEKs).
        let children = if new_attrs.kind == NodeKind::Dir {
            Some(self.collect_dir_children(&h, &body)?)
        } else {
            None
        };

        if revocation && self.config.revocation == RevocationMode::Immediate {
            // Immediate revocation: rotate the DEK (and directory TEKs) and
            // re-encrypt content under a fresh generation.
            match new_attrs.kind {
                NodeKind::File => {
                    let content = self.read_content_for_rekey(&body)?;
                    let old_view = ids::data_view(new_attrs.inode, new_attrs.generation);
                    new_attrs.generation += 1;
                    secrets.dek = SymKey::random(&mut self.rng);
                    records.extend(self.with_drbg(b"rekey-data", |layout, rng| {
                        layout.data_records(&new_attrs, &secrets, &content, rng)
                    }));
                    dropped_views.push((new_attrs.inode, old_view));
                    new_attrs.size = content.len() as u64;
                    new_attrs.nblocks =
                        content.len().div_ceil(self.config.block_size.max(1)) as u32;
                }
                NodeKind::Dir => {
                    // Rotate every table key; the rebuild below re-seals.
                    for view in &layout_views {
                        secrets.teks.insert(*view, SymKey::random(&mut self.rng));
                    }
                }
            }
            new_attrs.rekey_pending = false;
        } else if revocation && self.config.revocation == RevocationMode::Lazy {
            new_attrs.rekey_pending = true;
        }

        if let Some(children) = &children {
            let entries: Vec<(String, ChildKeys<'_>)> =
                children.iter().map(|c| (c.name.clone(), c.keys())).collect();
            records.extend(self.with_drbg(b"build-dir-tables", |layout, rng| -> Result<_> {
                let (mut tables, _) = layout.table_records(&new_attrs, &secrets, &entries, rng)?;
                // A row that now continues away from a user's class needs a
                // split entry the old rows never did.
                for (_, child) in &entries {
                    let fresh = layout.new_splits(&old_attrs, &new_attrs, *child)?;
                    tables.extend(layout.split_records(*child, &fresh, rng)?);
                }
                Ok(tables)
            })?);
            // Views that lost table access keep stale replicas around;
            // delete them (they are sealed under rotated-away keys anyway).
            let new_tags: Vec<[u8; 16]> = self
                .layout()
                .table_views(&new_attrs)?
                .into_iter()
                .map(|(v, _)| v.tag(new_attrs.inode))
                .collect();
            for (view, _) in self.layout().table_views(&old_attrs)? {
                let tag = view.tag(new_attrs.inode);
                if !new_tags.contains(&tag) {
                    stale_slots.push(ObjectKey::data(new_attrs.inode, tag, 0));
                }
            }
        }

        // Rebuild all metadata replicas.
        records.extend(self.with_drbg(b"update-access-md", |layout, rng| {
            layout.metadata_records(&new_attrs, &secrets, rng)
        })?);

        // Split entries for ACL-named principals.
        let divergent = self.layout().acl_divergent(&new_attrs);
        if !divergent.is_empty() {
            records.extend(self.with_drbg(b"update-access-splits", |layout, rng| {
                layout.split_records(layout.child_keys(&new_attrs, &secrets), &divergent, rng)
            })?);
        }

        self.mutate(records, stale_slots, dropped_views)?;
        self.cache.invalidate_inode(new_attrs.inode);
        Ok(())
    }

    /// Everything an owner needs to rebuild a directory's table replicas:
    /// per-child attributes, per-view MEKs, and the metadata verify key.
    fn collect_dir_children(
        &mut self,
        h: &NodeHandle,
        body: &MetadataBody,
    ) -> Result<Vec<ChildInfo>> {
        let attrs = ObjectAttrs::from_body(body);
        // Owner's replica is always a full table.
        let my_table = self.load_table(h, body)?;
        let rows: Vec<(String, ChildRef)> = my_table
            .children()
            .map(|row| row.map(|(name, child)| (name.to_string(), child)))
            .collect::<Result<_>>()?;

        // Harvest per-view child MEKs from every existing replica: the
        // owner holds all TEKs, so all rows open. The owner's replica is
        // `my_table`, already open; only the others are fetched.
        let old_views = self.layout().table_views(&attrs)?;
        let teks: HashMap<ViewId, SymKey> = body.write_teks.iter().cloned().collect();
        let keys: Vec<ObjectKey> = old_views
            .iter()
            .map(|(view, _)| ObjectKey::data(h.inode, view.tag(h.inode), 0))
            .collect();
        let mine = ObjectKey::data(h.inode, h.view, 0);
        let mut blobs =
            self.fetch_many(keys.iter().copied().filter(|k| *k != mine).collect())?.into_iter();
        let policy = self.config.policy;
        let mut harvested: HashMap<(u64, [u8; 16]), SymKey> = HashMap::new();
        for ((view, access), key) in old_views.iter().zip(&keys) {
            let fetched;
            let table: &DirTable = if *key == mine {
                &my_table
            } else {
                let Some(blob) = blobs.next().flatten() else { continue };
                let opened = Self::timed_crypto(&self.meter, || {
                    open_table(policy, key, &blob, teks.get(view), body.dvk.as_ref())
                });
                fetched = match opened {
                    Ok(table) => table,
                    // The harvested MEKs are re-sealed under our DSK, so a
                    // replica that fails the directory's DVK stops the
                    // rebuild.
                    Err(e @ CoreError::TamperDetected(_)) => return Err(e),
                    // A replica with no TEK here, or one that will not
                    // open, is skipped.
                    Err(_) => continue,
                };
                &fetched
            };
            match access {
                TableAccess::Full => {
                    // A row that does not decode gives no MEK.
                    for (_, child) in table.children().flatten() {
                        if let Some(mek) = child.mek {
                            harvested.insert((child.inode, child.view), mek);
                        }
                    }
                }
                TableAccess::ExecOnly => {
                    let Some(tek) = teks.get(view) else { continue };
                    for (name, _) in &rows {
                        if let Ok(Some(child)) = table.lookup(name, Some(tek)) {
                            if let Some(mek) = &child.mek {
                                harvested.insert((child.inode, child.view), mek.clone());
                            }
                        }
                    }
                }
                _ => {}
            }
        }

        // Every child's metadata, in one round trip for the bodies the
        // cache misses.
        let handles: Vec<NodeHandle> = rows
            .iter()
            .map(|(_, child)| NodeHandle {
                inode: child.inode,
                view: child.view,
                mek: child.mek.clone(),
                mvk: child.mvk.clone(),
            })
            .collect();
        let bodies = self.open_metadata_many(&handles)?;

        let mut out = Vec::with_capacity(rows.len());
        for ((name, child_ref), cbody) in rows.into_iter().zip(bodies) {
            let cattrs = ObjectAttrs::from_body(&cbody);
            let mut meks: HashMap<ViewId, SymKey> = HashMap::new();
            if Uid(cbody.owner) == self.identity.uid {
                // Owned child: its owner replica carries all MEKs.
                meks.extend(cbody.owner_meks.iter().cloned());
            }
            // Fill gaps from harvested rows.
            let candidates = self.layout().candidate_child_views(&cattrs);
            for view in candidates {
                if meks.contains_key(&view) {
                    continue;
                }
                let tag = view.tag(cattrs.inode);
                if let Some(mek) = harvested.get(&(cattrs.inode, tag)) {
                    meks.insert(view, mek.clone());
                }
            }
            out.push(ChildInfo { name, attrs: cattrs, meks, mvk: child_ref.mvk });
        }
        Ok(out)
    }

    /// Reconstructs [`ObjectSecrets`] from an owner's metadata replica.
    fn secrets_from_owner_body(
        &self,
        h: &NodeHandle,
        body: &MetadataBody,
    ) -> Result<ObjectSecrets> {
        let sig = match (self.signs(), &body.dsk, &body.dvk, &body.msk, &h.mvk) {
            (false, ..) => None,
            (true, Some(dsk), Some(dvk), Some(msk), Some(mvk)) => Some(SigPairs {
                dsk: dsk.clone(),
                dvk: dvk.clone(),
                msk: msk.clone(),
                mvk: mvk.clone(),
            }),
            _ => {
                return Err(CoreError::PermissionDenied {
                    path: format!("inode#{}", h.inode),
                    needed: "owner key material (DSK/DVK/MSK/MVK)",
                })
            }
        };
        let dek = match (body.kind, &body.dek) {
            (NodeKind::File, Some(dek)) => dek.clone(),
            // Directories keep per-view TEKs; dek below is unused. Files
            // without encryption (NO-ENC policies) take a placeholder.
            _ => SymKey([0u8; 16]),
        };
        Ok(ObjectSecrets {
            dek,
            teks: body.write_teks.iter().cloned().collect(),
            meks: body.owner_meks.iter().cloned().collect(),
            sig,
        })
    }

    /// Reads a file's full plaintext for re-keying (bypasses permission
    /// checks — the caller is the owner mid-revocation).
    fn read_content_for_rekey(&mut self, body: &MetadataBody) -> Result<Vec<u8>> {
        let manifest = self.load_manifest(body)?;
        let dview = ids::data_view(body.inode, body.generation);
        let keys: Vec<ObjectKey> =
            (0..manifest.nblocks).map(|i| ObjectKey::data(body.inode, dview, i)).collect();
        let blobs = self.fetch_many(keys.clone())?;
        let fetched = blobs
            .iter()
            .zip(keys)
            .map(|(blob, key)| {
                Ok((key, blob.as_deref().ok_or(CoreError::Corrupt("missing block during rekey"))?))
            })
            .collect::<Result<Vec<_>>>()?;
        let mut out = Vec::with_capacity(manifest.size as usize);
        for block in self.open_data_blocks(body, &manifest, &fetched)? {
            out.extend_from_slice(&block);
        }
        out.truncate(manifest.size as usize);
        Ok(out)
    }

    /// Flushes the DEK rotation deferred by lazy revocation, then writes.
    /// Returns the new key epoch and the fresh DEK so callers (the rotation
    /// lifecycle) can escrow the key they just minted.
    fn rekey_and_write(
        &mut self,
        h: NodeHandle,
        body: &MetadataBody,
        content: &[u8],
    ) -> Result<(u64, SymKey)> {
        let mut attrs = ObjectAttrs::from_body(body);
        let mut secrets = self.secrets_from_owner_body(&h, body)?;
        let old_view = ids::data_view(attrs.inode, attrs.generation);
        attrs.generation += 1;
        attrs.version += 1;
        attrs.rekey_pending = false;
        attrs.size = content.len() as u64;
        attrs.nblocks = content.len().div_ceil(self.config.block_size.max(1)) as u32;
        secrets.dek = SymKey::random(&mut self.rng);
        let new_dek = secrets.dek.clone();

        // Two timed ops on one DRBG clone, so not `with_drbg`: the data and
        // the metadata each count as one crypto op.
        let mut rng = self.rng.clone();
        let layout = self.layout();
        let mut records = Self::timed_crypto(&self.meter, || {
            layout.data_records(&attrs, &secrets, content, &mut rng)
        });
        records.extend(Self::timed_crypto(&self.meter, || {
            layout.metadata_records(&attrs, &secrets, &mut rng)
        })?);
        self.rng.reseed(b"lazy-rekey");
        self.mutate(records, Vec::new(), vec![(attrs.inode, old_view)])?;
        self.cache.invalidate_inode(attrs.inode);
        Ok((attrs.generation, new_dek))
    }

    /// Refreshes the size/nblocks attributes in this owner's metadata
    /// replicas from the current manifest (writes leave metadata untouched,
    /// per Figure 8 — this is the explicit owner-side refresh).
    pub fn fsync_metadata(&mut self, path: &str) -> Result<()> {
        let (h, body) = self.resolve(path)?;
        let mut attrs = ObjectAttrs::from_body(&body);
        if attrs.owner != self.identity.uid {
            return Err(CoreError::PermissionDenied {
                path: path.to_string(),
                needed: "ownership",
            });
        }
        if attrs.kind == NodeKind::File {
            let manifest = self.load_manifest(&body)?;
            attrs.size = manifest.size;
            attrs.nblocks = manifest.nblocks;
        }
        attrs.version += 1;
        let secrets = self.secrets_from_owner_body(&h, &body)?;
        let records = self.with_drbg(b"fsync-metadata", |layout, rng| {
            layout.metadata_records(&attrs, &secrets, rng)
        })?;
        self.mutate(records, Vec::new(), Vec::new())?;
        self.cache.invalidate_inode(attrs.inode);
        Ok(())
    }

    // ------------------------------------- key-rotation lifecycle (§10)

    /// Loads this mount's versioned KEK chain from the SSP, generating and
    /// publishing a fresh single-version chain on first use (DESIGN.md
    /// §10). The chain lives at the superblock-space slot
    /// [`ids::kek_chain_view`], sealed under this user's public RSA key, so
    /// it is recovered in-band exactly like the superblock. Returns the
    /// current chain version. Idempotent: a chain already held in memory is
    /// kept as-is.
    pub fn load_kek_chain(&mut self) -> Result<u32> {
        if let Some(chain) = &self.kek {
            return Ok(chain.current_version());
        }
        let uid = self.identity.uid;
        let slot = ObjectKey::superblock(ids::kek_chain_view(uid));
        let chain = match self.fetch(slot)? {
            Some(blob) => KekChain::open_with(&self.identity.private, &blob)?,
            None => {
                let chain = KekChain::generate(&mut self.rng);
                let sealed = chain.seal_for(self.pki.user(uid)?, &mut self.rng)?;
                self.mutate(vec![(slot, sealed)], Vec::new(), Vec::new())?;
                chain
            }
        };
        let version = chain.current_version();
        self.kek = Some(chain);
        Ok(version)
    }

    /// Rotates this mount's KEK: appends a fresh version to the chain and
    /// republishes the sealed chain at the SSP. Escrow records written
    /// after this call seal under the new version — a holder of a
    /// pre-rotation snapshot ([`KekChain::snapshot_through`]) provably
    /// cannot open them — while every old record stays readable until
    /// old versions are destroyed via [`KekChain::retire_through`].
    /// Returns the new current version.
    pub fn rotate_mount_kek(&mut self) -> Result<u32> {
        self.load_kek_chain()?;
        let mut chain = self.kek.take().expect("chain loaded above");
        let version = chain.rotate(&mut self.rng);
        let uid = self.identity.uid;
        let sealed = chain.seal_for(self.pki.user(uid)?, &mut self.rng)?;
        self.kek = Some(chain);
        self.mutate(
            vec![(ObjectKey::superblock(ids::kek_chain_view(uid)), sealed)],
            Vec::new(),
            Vec::new(),
        )?;
        Ok(version)
    }

    /// The loaded KEK chain. Test oracles snapshot it
    /// ([`KekChain::snapshot_through`]) to model a holder whose key
    /// material predates a rotation.
    pub fn kek_chain(&self) -> Option<&KekChain> {
        self.kek.as_ref()
    }

    /// Owner-driven key rotation for one file: mints a fresh DEK, bumps the
    /// key epoch, re-encrypts the content into the new data view, deletes
    /// the old view, and — when a KEK chain is loaded — escrows the new
    /// DEK sealed under the current KEK version. Returns the new
    /// generation. Pre-rotation readers lose the data (their cached DEK no
    /// longer even locates the blocks); escrow keeps the owner's recovery
    /// path version-gated.
    pub fn rotate_file_keys(&mut self, path: &str) -> Result<u64> {
        let (h, body) = self.resolve(path)?;
        let attrs = ObjectAttrs::from_body(&body);
        if attrs.kind != NodeKind::File {
            return Err(CoreError::IsADirectory(path.to_string()));
        }
        if attrs.owner != self.identity.uid {
            return Err(CoreError::PermissionDenied {
                path: path.to_string(),
                needed: "ownership (rotate)",
            });
        }
        if self.encrypts_data() && body.dek.is_none() {
            return Err(CoreError::PermissionDenied {
                path: path.to_string(),
                needed: "DEK (rotate)",
            });
        }
        if self.signs() && body.msk.is_none() {
            return Err(CoreError::PermissionDenied {
                path: path.to_string(),
                needed: "MSK (rotate)",
            });
        }
        let content = self.read_content_for_rekey(&body)?;
        let inode = attrs.inode;
        let (generation, dek) = self.rekey_and_write(h, &body, &content)?;
        if self.kek.is_some() {
            self.escrow_dek(inode, generation, &dek)?;
        }
        Ok(generation)
    }

    /// Writes the escrow record for `(inode, generation)`: the DEK sealed
    /// under the current KEK version, stored at the data-space slot
    /// [`ids::dek_escrow_view`] with the generation as the block index.
    fn escrow_dek(&mut self, inode: u64, generation: u64, dek: &SymKey) -> Result<()> {
        let chain = self.kek.as_ref().expect("escrow requires a loaded KEK chain");
        let record = chain.seal(&mut self.rng, &dek.0);
        let key = ObjectKey::data(
            inode,
            ids::dek_escrow_view(self.identity.uid, inode),
            generation as u32,
        );
        self.mutate(vec![(key, record)], Vec::new(), Vec::new())
    }

    /// Recovers the escrowed DEK for `(inode, generation)` with the loaded
    /// KEK chain. Fails with [`CoreError::TamperDetected`] when the
    /// record's sealing version is not held by the chain (rotated away or
    /// retired).
    pub fn escrowed_dek(&mut self, inode: u64, generation: u64) -> Result<SymKey> {
        let blob = self
            .fetch_escrow_record(inode, generation)?
            .ok_or(CoreError::Corrupt("missing DEK escrow record"))?;
        let chain = self.kek.as_ref().ok_or(CoreError::Corrupt("no KEK chain loaded"))?;
        let plain = chain.open(&blob)?;
        Ok(SymKey::from_slice(&plain)?)
    }

    /// Raw escrow-record fetch for `(inode, generation)` — exposed so test
    /// oracles can probe records against chain snapshots
    /// ([`KekChain::snapshot_through`]) without the client's own chain in
    /// the way.
    pub fn fetch_escrow_record(&mut self, inode: u64, generation: u64) -> Result<Option<Vec<u8>>> {
        let key = ObjectKey::data(
            inode,
            ids::dek_escrow_view(self.identity.uid, inode),
            generation as u32,
        );
        self.fetch(key)
    }
}

/// Short hex prefix of a root hash for error messages.
fn hex_prefix(hash: &[u8; 32]) -> String {
    hash[..4].iter().map(|b| format!("{b:02x}")).collect()
}

/// Per-child material collected for directory table rebuilds.
struct ChildInfo {
    name: String,
    attrs: ObjectAttrs,
    meks: HashMap<ViewId, SymKey>,
    mvk: Option<VerifyKey>,
}

impl ChildInfo {
    fn keys(&self) -> ChildKeys<'_> {
        ChildKeys { attrs: &self.attrs, meks: &self.meks, mvk: self.mvk.as_ref() }
    }
}

/// Directory-table edits supported by `rebuild_parent_tables`.
enum TableEdit<'a> {
    /// Insert a new child row.
    Insert {
        /// Entry name.
        name: &'a str,
        /// Child attributes.
        child: &'a ObjectAttrs,
        /// Child key material.
        child_secrets: &'a ObjectSecrets,
    },
    /// Remove a row by name.
    Remove {
        /// Entry name.
        name: &'a str,
    },
    /// Rename a row.
    Rename {
        /// Old name.
        from: &'a str,
        /// New name.
        to: &'a str,
    },
}
