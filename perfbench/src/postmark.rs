//! `postmark`: PostMark-style metadata-heavy traffic from one SHAROES
//! client over one blocking TCP connection to an in-process sspd backed by
//! the WAL engine (fsync after every record, auto-compaction on).
//!
//! The WAL directory is the engine's in-memory filesystem (`FaultFs` with
//! no faults armed): like tmpfs, fsync is free, so device latency does not
//! swamp the numbers.

use crate::driver::{ssp_registry, timed, Config, Counts, Kind, LayerInfo, Step, Workload};
use crate::gen::{content, Mix, Rng, Sizes};
use crate::layers::{span, FsCounts, TracedFs, TracedTransport};
use sharoes_core::{
    ClientConfig, CryptoParams, CryptoPolicy, Keyring, Migrator, RevocationMode, Scheme,
    SharoesClient, SigKeyPool,
};
use sharoes_crypto::{HmacDrbg, RsaPrivateKey};
use sharoes_fs::{Gid, LocalFs, Mode, NodeKind, Uid, UserDb, ROOT_UID};
use sharoes_net::{InMemoryTransport, TcpTransport, Transport};
use sharoes_ssp::{serve, EngineConfig, FaultFs, LogEngine, SspServer, TcpServerHandle, Vfs};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The mounted user, owner of `/bench`.
pub const ALICE: Uid = Uid(1000);
/// Identity keys come from a fixed seed: set-up cost must not depend on the
/// input seed's luck in the RSA prime search.
pub const KEY_SEED: u64 = 0x5EED_0001;
/// Size range of PostMark's defaults, bytes.
const SIZES: (u64, u64) = (500, 9770);
/// Mode of every file: group read on, toggled by chmod.
const FILE_MODE: u32 = 0o644;
const REVOKED_MODE: u32 = 0o604;
/// Signing pairs one create takes (data and metadata pairs). A chmod, even
/// a revoking one, re-keys with symmetric keys only and takes none.
const PAIRS_PER_CREATE: u64 = 2;
/// Op rate the distinct signing pairs are generated for (about what the
/// timed phase completes on a 2-vCPU VM); set-up generates that many.
const DISTINCT_OPS_PER_S: f64 = 800.0;
/// Op rate the plan is sized for: 2.5 times the fastest rate measured (1,750
/// ops/s, in the host's fastest state), so a faster program still runs the
/// whole timed phase. Pairs beyond the distinct ones are clones of one pair
/// (one keygen): taking a pair from the pool costs the same either way.
const PLAN_OPS_PER_S: f64 = 4500.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Read,
    Overwrite,
    Readdir,
    Create,
    Unlink,
    Chmod,
}

/// Per block of 80 ops: creates and unlinks pair up to keep the file count
/// level; chmod is the small re-keying share. The slow ops (create and
/// unlink, 6-8 ms each) are 7.5% of the mix, so `op_p95_us` falls inside
/// their distribution rather than on the edge between them and the tail of
/// the fast ops, where it would jump from run to run.
const MIX: [(Op, usize); 6] = [
    (Op::Read, 32),
    (Op::Overwrite, 25),
    (Op::Readdir, 15),
    (Op::Create, 3),
    (Op::Unlink, 3),
    (Op::Chmod, 2),
];

struct FileModel {
    id: u64,
    dir: usize,
    size: usize,
    salt: u64,
    group_read: bool,
}

fn file_path(dir: usize, id: u64) -> String {
    format!("/bench/s{dir:02}/f{id}")
}

fn dir_path(dir: usize) -> String {
    format!("/bench/s{dir:02}")
}

/// The `postmark` workload.
pub struct Postmark {
    // Field order is drop order: the connection closes, then the server
    // stops.
    client: SharoesClient,
    server: Arc<SspServer>,
    _tcp: TcpServerHandle,
    pool: Arc<SigKeyPool>,
    fs_counts: Arc<FsCounts>,
    rsa: RsaPrivateKey,
    files: Vec<FileModel>,
    listing: Vec<BTreeSet<String>>,
    subdirs: usize,
    next_id: u64,
    salt: u64,
    mix: Mix<Op>,
    sizes: Sizes,
    pick: Rng,
    done: u64,
    plan: u64,
    user_bytes: u64,
    live_bytes: u64,
}

impl Postmark {
    fn random_file(&mut self) -> usize {
        self.pick.below(self.files.len() as u64) as usize
    }

    fn check_read(
        &self,
        idx: usize,
        stat_mode: Mode,
        kind: NodeKind,
        data: &[u8],
    ) -> Option<String> {
        let f = &self.files[idx];
        let want_mode = if f.group_read { FILE_MODE } else { REVOKED_MODE };
        if kind != NodeKind::File || stat_mode != Mode::from_octal(want_mode) {
            return Some(format!("{}: getattr {kind:?} {stat_mode}", file_path(f.dir, f.id)));
        }
        if data != content(f.size, f.salt).as_slice() {
            return Some(format!("{}: read returned wrong bytes", file_path(f.dir, f.id)));
        }
        None
    }

    fn run_op(&mut self, op: Op) -> Step {
        match op {
            Op::Read => {
                let idx = self.random_file();
                let path = file_path(self.files[idx].dir, self.files[idx].id);
                let client = &mut self.client;
                let (step, r) = timed(Kind::Read, "op.read", || {
                    let st = span("core.getattr", || client.getattr(&path))?;
                    let data = span("core.read", || client.read(&path))?;
                    Ok::<_, sharoes_core::CoreError>((st, data))
                });
                let error = match r {
                    Ok((st, data)) => self.check_read(idx, st.mode, st.kind, &data),
                    Err(e) => Some(format!("{path}: {e}")),
                };
                step.with_error(error)
            }
            Op::Overwrite => {
                let idx = self.random_file();
                let size = self.sizes.draw() as usize;
                self.salt += 1;
                let data = content(size, self.salt);
                let path = file_path(self.files[idx].dir, self.files[idx].id);
                let client = &mut self.client;
                let (step, r) = timed(Kind::Write, "op.overwrite", || {
                    span("core.write", || client.write_file(&path, &data))
                });
                let f = &mut self.files[idx];
                self.live_bytes = self.live_bytes + size as u64 - f.size as u64;
                self.user_bytes += size as u64;
                f.size = size;
                f.salt = self.salt;
                step.with_error(r.err().map(|e| format!("{path}: {e}")))
            }
            Op::Readdir => {
                let dir = self.pick.below(self.subdirs as u64) as usize;
                let path = dir_path(dir);
                let client = &mut self.client;
                let (step, r) = timed(Kind::Read, "op.readdir", || {
                    span("core.readdir", || client.readdir(&path))
                });
                let error = match r {
                    Ok(entries) => {
                        let names: BTreeSet<String> = entries.into_iter().map(|e| e.name).collect();
                        (names != self.listing[dir])
                            .then(|| format!("{path}: readdir listed {} names", names.len()))
                    }
                    Err(e) => Some(format!("{path}: {e}")),
                };
                step.with_error(error)
            }
            Op::Create => {
                let id = self.next_id;
                self.next_id += 1;
                let dir = (id % self.subdirs as u64) as usize;
                let size = self.sizes.draw() as usize;
                self.salt += 1;
                let data = content(size, self.salt);
                let path = file_path(dir, id);
                let client = &mut self.client;
                let (step, r) = timed(Kind::Write, "op.create", || {
                    span("core.create", || client.create(&path, Mode::from_octal(FILE_MODE)))?;
                    span("core.write", || client.write_file(&path, &data))
                });
                self.files.push(FileModel { id, dir, size, salt: self.salt, group_read: true });
                self.listing[dir].insert(format!("f{id}"));
                self.live_bytes += size as u64;
                self.user_bytes += size as u64;
                step.with_error(r.err().map(|e| format!("{path}: {e}")))
            }
            Op::Unlink => {
                let idx = self.random_file();
                let f = self.files.swap_remove(idx);
                let path = file_path(f.dir, f.id);
                let client = &mut self.client;
                let (step, r) = timed(Kind::Write, "op.unlink", || {
                    span("core.unlink", || client.unlink(&path))
                });
                self.listing[f.dir].remove(&format!("f{}", f.id));
                self.live_bytes -= f.size as u64;
                step.with_error(r.err().map(|e| format!("{path}: {e}")))
            }
            Op::Chmod => {
                let idx = self.random_file();
                let f = &mut self.files[idx];
                f.group_read = !f.group_read;
                let mode = Mode::from_octal(if f.group_read { FILE_MODE } else { REVOKED_MODE });
                let path = file_path(f.dir, f.id);
                let client = &mut self.client;
                let (step, r) = timed(Kind::Write, "op.chmod", || {
                    span("core.chmod", || client.chmod(&path, mode))
                });
                step.with_error(r.err().map(|e| format!("{path}: {e}")))
            }
        }
    }
}

fn planned_pairs(mix: &Mix<Op>, ops: u64) -> u64 {
    let blocks = ops.div_ceil(mix.block_len() as u64);
    blocks * mix.count_of(|k| k == Op::Create) as u64 * PAIRS_PER_CREATE
}

impl Workload for Postmark {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let files = cfg.pick(2000, 60);
        let subdirs = cfg.pick(20, 3);
        let warmup = cfg.pick(200, 20);
        let plan = warmup + ((PLAN_OPS_PER_S * cfg.seconds) as u64).max(Self::count_window(cfg));
        let distinct = warmup + ((DISTINCT_OPS_PER_S * cfg.seconds) as u64).min(plan);
        let e = |e: &dyn std::fmt::Display| e.to_string();

        let mut db = UserDb::new();
        db.add_group(Gid(0), "wheel").map_err(|x| e(&x))?;
        db.add_group(Gid(100), "staff").map_err(|x| e(&x))?;
        db.add_user(ROOT_UID, "root", Gid(0)).map_err(|x| e(&x))?;
        db.add_user(ALICE, "alice", Gid(100)).map_err(|x| e(&x))?;
        let mut local = LocalFs::new(db, Gid(0), Mode::from_octal(0o755));
        local.mkdir(ROOT_UID, "/bench", Mode::from_octal(0o775)).map_err(|x| e(&x))?;
        local.chown(ROOT_UID, "/bench", ALICE, Gid(100)).map_err(|x| e(&x))?;
        let mut listing = vec![BTreeSet::new(); subdirs];
        for d in 0..subdirs {
            local.mkdir(ALICE, &dir_path(d), Mode::from_octal(0o755)).map_err(|x| e(&x))?;
        }
        let mut sizes = Sizes::new(Rng::new(cfg.seed, 1), SIZES.0, SIZES.1, 16);
        let mut model = Vec::with_capacity(files);
        let mut live_bytes = 0;
        for id in 0..files as u64 {
            let dir = (id % subdirs as u64) as usize;
            let size = sizes.draw() as usize;
            let path = file_path(dir, id);
            local.create(ALICE, &path, Mode::from_octal(FILE_MODE)).map_err(|x| e(&x))?;
            local.write(ALICE, &path, &content(size, id)).map_err(|x| e(&x))?;
            listing[dir].insert(format!("f{id}"));
            model.push(FileModel { id, dir, size, salt: id, group_read: true });
            live_bytes += size as u64;
        }

        let ring = Keyring::generate(local.users(), 2048, &mut HmacDrbg::from_seed_u64(KEY_SEED))
            .map_err(|x| e(&x))?;
        let crypto = CryptoParams::bench();
        let footprint = live_bytes;
        let config = ClientConfig {
            scheme: Scheme::SharedCaps,
            policy: CryptoPolicy::Sharoes,
            revocation: RevocationMode::Immediate,
            block_size: 4096,
            cache_capacity: Some(footprint / 10),
            crypto,
        };
        let mix = Mix::new(Rng::new(cfg.seed, 2), &MIX);
        // A pair for every key-consuming op the plan can reach, so keygen
        // never runs inside a timed op. The pool pops the last pair pushed:
        // the distinct pairs go in last and are taken first.
        let pool = Arc::new(SigKeyPool::new(crypto));
        let distinct_pairs = planned_pairs(&mix, distinct) as usize + 16;
        let clones = (planned_pairs(&mix, plan) as usize + 16).saturating_sub(distinct_pairs);
        pool.prefill_cloned(clones, &mut HmacDrbg::from_seed_u64(KEY_SEED ^ 0xC10E));
        pool.prefill_parallel(distinct_pairs, KEY_SEED);
        // The WAL lives in the engine's in-memory filesystem, a tmpfs
        // stand-in: fsync costs no device time.
        let base: Arc<dyn Vfs> = Arc::new(FaultFs::new());
        let fs_counts = Arc::new(FsCounts::default());
        let vfs: Arc<dyn Vfs> =
            if cfg.trace { Arc::new(TracedFs::new(base, Arc::clone(&fs_counts))) } else { base };
        let engine =
            LogEngine::open(vfs, "/wal".as_ref(), EngineConfig::default()).map_err(|x| e(&x))?;
        let server = SspServer::with_engine(Arc::new(engine)).into_shared();

        // Migration populates the store. Its objects share one signing
        // pair (set-up only: the per-object pairs would otherwise be
        // thousands of keygens); every timed create and re-key draws a
        // distinct pair from `pool`.
        let migration_pool = SigKeyPool::new(crypto);
        let mut rng = HmacDrbg::from_seed_u64(cfg.seed ^ 0x3316);
        migration_pool.prefill_cloned(2 * (files + subdirs + 2) + 64, &mut rng);
        let mut mem = InMemoryTransport::new(Arc::clone(&server) as _);
        Migrator {
            fs: &local,
            config: &config,
            ring: &ring,
            pool: &migration_pool,
            downgrade_unsupported: true,
        }
        .migrate(&mut mem, &mut rng)
        .map_err(|x| format!("migration: {x}"))?;
        let tcp = serve(Arc::clone(&server), "127.0.0.1:0").map_err(|x| e(&x))?;
        let mut transport: Box<dyn Transport> =
            Box::new(TcpTransport::connect(&tcp.addr().to_string()).map_err(|x| e(&x))?);
        if cfg.trace {
            transport = Box::new(TracedTransport::new(transport, "net.call", Arc::default()));
        }
        let identity = ring.identity(ALICE).map_err(|x| e(&x))?;
        let rsa = ring.user_private(ALICE).map_err(|x| e(&x))?.clone();
        let mut client = SharoesClient::with_rng(
            transport,
            config,
            Arc::new(local.users().clone()),
            Arc::new(ring.public_directory()),
            identity,
            Arc::clone(&pool),
            HmacDrbg::from_seed_u64(cfg.seed ^ 0xC11E),
        );
        client.mount().map_err(|x| format!("mount: {x}"))?;

        let mut w = Postmark {
            client,
            server,
            _tcp: tcp,
            pool,
            fs_counts,
            rsa,
            files: model,
            listing,
            subdirs,
            next_id: files as u64,
            salt: 1 << 40,
            mix,
            sizes,
            pick: Rng::new(cfg.seed, 3),
            done: 0,
            plan,
            user_bytes: 0,
            live_bytes,
        };
        for _ in 0..warmup {
            if let Some(err) = w.step().error {
                return Err(format!("warm-up: {err}"));
            }
        }
        Ok(w)
    }

    fn step(&mut self) -> Step {
        let op = self.mix.draw();
        self.done += 1;
        self.run_op(op)
    }

    fn exhausted(&self) -> bool {
        self.done >= self.plan
    }

    fn counts(&self) -> Counts {
        let meter = self.client.meter().sample();
        let cache = self.client.cache_stats();
        let (handle_ns, requests) = ssp_registry();
        Counts {
            bytes_up: meter.bytes_up,
            bytes_down: meter.bytes_down,
            round_trips: meter.round_trips,
            crypto_ns: meter.crypto_ns,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            pool_len: self.pool.len() as u64,
            fs: self.fs_counts.sample(),
            ssp_handle_ns: handle_ns,
            ssp_requests: requests,
            user_bytes_written: self.user_bytes,
            stored_bytes: self.server.engine().map_or(0, |e| e.byte_count()),
            live_user_bytes: self.live_bytes,
            ..Counts::default()
        }
    }

    fn count_window(cfg: &Config) -> u64 {
        cfg.pick(1200, 100)
    }

    fn audit(&mut self) -> Result<(), String> {
        // `ls -lR /bench` plus a read of every file, against the model.
        let top = self.client.readdir("/bench").map_err(|e| format!("/bench: {e}"))?;
        let dirs: BTreeSet<String> = top.into_iter().map(|e| e.name).collect();
        let want: BTreeSet<String> = (0..self.subdirs).map(|d| format!("s{d:02}")).collect();
        if dirs != want {
            return Err(format!("/bench lists {dirs:?}"));
        }
        for d in 0..self.subdirs {
            let names: BTreeSet<String> = self
                .client
                .readdir(&dir_path(d))
                .map_err(|e| format!("{}: {e}", dir_path(d)))?
                .into_iter()
                .map(|e| e.name)
                .collect();
            if names != self.listing[d] {
                return Err(format!("{}: listing differs from the model", dir_path(d)));
            }
        }
        for idx in 0..self.files.len() {
            let path = file_path(self.files[idx].dir, self.files[idx].id);
            let st = self.client.getattr(&path).map_err(|e| format!("{path}: {e}"))?;
            let data = self.client.read(&path).map_err(|e| format!("{path}: {e}"))?;
            if let Some(err) = self.check_read(idx, st.mode, st.kind, &data) {
                return Err(err);
            }
        }
        Ok(())
    }

    fn layer_info(&self) -> LayerInfo {
        LayerInfo {
            index_keys: self.server.engine().map_or(0, |e| e.object_count() as usize),
            rsa: Some(self.rsa.clone()),
            proof_bytes_keys: None,
        }
    }

    fn pool_ran_dry(&self) -> bool {
        self.pool.is_empty()
    }
}
