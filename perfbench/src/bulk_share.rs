//! `bulk_share`: the paper's cross-user sharing path with bulk data. User A
//! creates, writes and closes 64 KiB–1 MiB files in a group-readable
//! directory; user B, in the same group and mounted separately, reads each
//! file cold and checks its bytes. Both clients reach a memory-backend
//! `SspServer` through `InMemoryTransport` (full wire codec, no socket).

use crate::driver::{ssp_registry, timed, Config, Counts, Kind, LayerInfo, Step, Workload};
use crate::gen::{content, Rng, Sizes};
use crate::layers::{span, TracedHandler, TracedTransport};
use sharoes_core::{
    ClientConfig, CryptoParams, CryptoPolicy, Keyring, Migrator, RevocationMode, Scheme,
    SharoesClient, SigKeyPool,
};
use sharoes_crypto::{HmacDrbg, RsaPrivateKey};
use sharoes_fs::{Gid, LocalFs, Mode, Uid, UserDb, ROOT_UID};
use sharoes_net::{InMemoryTransport, RequestHandler, Transport};
use sharoes_ssp::SspServer;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

const ALICE: Uid = Uid(1000);
const BOB: Uid = Uid(1001);
/// Identity keys come from a fixed seed (see `postmark::KEY_SEED`).
const KEY_SEED: u64 = 0x5EED_0002;
/// File size range, bytes.
const SIZES: (u64, u64) = (64 << 10, 1 << 20);
/// Size strata per block of files.
const STRATA: u64 = 32;
/// Files alive at once: A unlinks its oldest before creating past this.
const LIVE: usize = 16;
/// Group-readable files in a group-searchable directory.
const FILE_MODE: u32 = 0o640;
const DIR_MODE: u32 = 0o750;
/// File rate the distinct signing pairs are generated for (a little above
/// what the timed phase completes on a 2-vCPU VM).
const DISTINCT_FILES_PER_S: f64 = 25.0;
/// File rate the plan is sized for: 3.5 times the fastest rate measured (36
/// files/s, in the host's fastest state), so a faster program still runs
/// the whole timed phase. Pairs beyond the distinct ones are clones of one
/// pair (one keygen): taking a pair from the pool costs the same either way.
const PLAN_FILES_PER_S: f64 = 125.0;

struct FileModel {
    id: u64,
    size: usize,
}

fn file_path(id: u64) -> String {
    format!("/share/f{id}")
}

/// The `bulk_share` workload.
pub struct BulkShare {
    writer: SharoesClient,
    reader: SharoesClient,
    server: Arc<SspServer>,
    pool: Arc<SigKeyPool>,
    rsa: RsaPrivateKey,
    live: VecDeque<FileModel>,
    next_id: u64,
    /// B's read of the file A just wrote is next.
    reading: bool,
    sizes: Sizes,
    salt_base: u64,
    files_planned: u64,
    user_bytes: u64,
    live_bytes: u64,
}

impl BulkShare {
    fn salt(&self, id: u64) -> u64 {
        self.salt_base ^ id
    }

    fn check(&self, who: &str, f: &FileModel, data: &[u8]) -> Option<String> {
        (data != content(f.size, self.salt(f.id)).as_slice())
            .then(|| format!("{who} read wrong bytes from {}", file_path(f.id)))
    }
}

impl Workload for BulkShare {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let warmup_files = cfg.pick(4, 2);
        let files_planned = warmup_files
            + ((PLAN_FILES_PER_S * cfg.seconds) as u64).max(Self::count_window(cfg).div_ceil(2));
        let files_distinct =
            warmup_files + ((DISTINCT_FILES_PER_S * cfg.seconds) as u64).min(files_planned);
        let e = |e: &dyn std::fmt::Display| e.to_string();

        let mut db = UserDb::new();
        db.add_group(Gid(0), "wheel").map_err(|x| e(&x))?;
        db.add_group(Gid(100), "staff").map_err(|x| e(&x))?;
        db.add_user(ROOT_UID, "root", Gid(0)).map_err(|x| e(&x))?;
        db.add_user(ALICE, "alice", Gid(100)).map_err(|x| e(&x))?;
        db.add_user(BOB, "bob", Gid(100)).map_err(|x| e(&x))?;
        let mut local = LocalFs::new(db, Gid(0), Mode::from_octal(0o755));
        local.mkdir(ROOT_UID, "/share", Mode::from_octal(DIR_MODE)).map_err(|x| e(&x))?;
        local.chown(ROOT_UID, "/share", ALICE, Gid(100)).map_err(|x| e(&x))?;

        let ring = Keyring::generate(local.users(), 2048, &mut HmacDrbg::from_seed_u64(KEY_SEED))
            .map_err(|x| e(&x))?;
        let crypto = CryptoParams::bench();
        let config = ClientConfig {
            scheme: Scheme::SharedCaps,
            policy: CryptoPolicy::Sharoes,
            revocation: RevocationMode::Immediate,
            block_size: 4096,
            cache_capacity: None,
            crypto,
        };
        // Two pairs per planned create; none for reads or unlinks. The pool
        // pops the last pair pushed: the distinct pairs go in last and are
        // taken first.
        let pool = Arc::new(SigKeyPool::new(crypto));
        let distinct_pairs = 2 * files_distinct as usize + 8;
        let clones = (2 * files_planned as usize + 8).saturating_sub(distinct_pairs);
        pool.prefill_cloned(clones, &mut HmacDrbg::from_seed_u64(KEY_SEED ^ 0xC10E));
        pool.prefill_parallel(distinct_pairs, KEY_SEED);

        let server = SspServer::new().into_shared();
        let handler: Arc<dyn RequestHandler> = if cfg.trace {
            Arc::new(TracedHandler(Arc::clone(&server) as _))
        } else {
            Arc::clone(&server) as _
        };
        let migration_pool = SigKeyPool::new(crypto);
        let mut rng = HmacDrbg::from_seed_u64(cfg.seed ^ 0x3316);
        migration_pool.prefill_cloned(16, &mut rng);
        Migrator {
            fs: &local,
            config: &config,
            ring: &ring,
            pool: &migration_pool,
            downgrade_unsupported: true,
        }
        .migrate(&mut InMemoryTransport::new(Arc::clone(&server) as _), &mut rng)
        .map_err(|x| format!("migration: {x}"))?;

        let db = Arc::new(local.users().clone());
        let pki = Arc::new(ring.public_directory());
        let mount = |uid: Uid, cache: u64, salt: u64| -> Result<SharoesClient, String> {
            let mut t: Box<dyn Transport> = Box::new(InMemoryTransport::new(Arc::clone(&handler)));
            if cfg.trace {
                t = Box::new(TracedTransport::new(t, "net.call", Arc::default()));
            }
            let mut c = SharoesClient::with_rng(
                t,
                ClientConfig { cache_capacity: Some(cache), ..config.clone() },
                Arc::clone(&db),
                Arc::clone(&pki),
                ring.identity(uid).map_err(|x| e(&x))?,
                Arc::clone(&pool),
                HmacDrbg::from_seed_u64(cfg.seed ^ salt),
            );
            c.mount().map_err(|x| format!("mount {uid}: {x}"))?;
            Ok(c)
        };
        // B's cache holds the whole live set (twice over): its reads are
        // cold because each file is new, not because the cache is small.
        let writer = mount(ALICE, 16 << 20, 0xA11CE)?;
        let reader = mount(BOB, 2 * LIVE as u64 * SIZES.1, 0xB0B)?;

        let mut w = BulkShare {
            writer,
            reader,
            server,
            pool,
            rsa: ring.user_private(ALICE).map_err(|x| e(&x))?.clone(),
            live: VecDeque::new(),
            next_id: 0,
            reading: false,
            sizes: Sizes::new(Rng::new(cfg.seed, 5), SIZES.0, SIZES.1, STRATA),
            salt_base: Rng::new(cfg.seed, 2).next_u64(),
            files_planned,
            user_bytes: 0,
            live_bytes: 0,
        };
        while w.next_id < warmup_files {
            if let Some(err) = w.step().error {
                return Err(format!("warm-up: {err}"));
            }
        }
        // Timed files start a fresh block of strata, so the count window
        // (whole blocks) writes and reads the same size mix at every seed.
        w.sizes = Sizes::new(Rng::new(cfg.seed, 1), SIZES.0, SIZES.1, STRATA);
        Ok(w)
    }

    fn step(&mut self) -> Step {
        if self.reading {
            self.reading = false;
            let f = self.live.back().expect("just written");
            let path = file_path(f.id);
            let reader = &mut self.reader;
            let (step, r) =
                timed(Kind::Read, "op.read", || span("core.read", || reader.read(&path)));
            let error = match r {
                Ok(data) => self.check("B", f, &data),
                Err(e) => Some(format!("B: {path}: {e}")),
            };
            return step.with_error(error);
        }
        // A retires its oldest file once the window is full, then creates,
        // writes and closes a new one: one op.
        let retired = (self.live.len() >= LIVE).then(|| self.live.pop_front()).flatten();
        let old = retired.as_ref().map(|f| file_path(f.id));
        let id = self.next_id;
        self.next_id += 1;
        let size = self.sizes.draw() as usize;
        let data = content(size, self.salt(id));
        let path = file_path(id);
        let writer = &mut self.writer;
        let (step, r) = timed(Kind::Write, "op.write", || {
            if let Some(old) = &old {
                span("core.unlink", || writer.unlink(old))?;
            }
            span("core.create", || writer.create(&path, Mode::from_octal(FILE_MODE)))?;
            span("core.write", || writer.write_file(&path, &data))
        });
        if let Some(f) = retired {
            self.live_bytes -= f.size as u64;
        }
        self.live.push_back(FileModel { id, size });
        self.live_bytes += size as u64;
        self.user_bytes += size as u64;
        self.reading = true;
        step.with_error(r.err().map(|e| format!("{path}: {e}")))
    }

    fn exhausted(&self) -> bool {
        self.next_id >= self.files_planned && !self.reading
    }

    fn counts(&self) -> Counts {
        let (a, b) = (self.writer.meter().sample(), self.reader.meter().sample());
        let (ca, cb) = (self.writer.cache_stats(), self.reader.cache_stats());
        let (handle_ns, requests) = ssp_registry();
        Counts {
            bytes_up: a.bytes_up + b.bytes_up,
            bytes_down: a.bytes_down + b.bytes_down,
            round_trips: a.round_trips + b.round_trips,
            crypto_ns: a.crypto_ns + b.crypto_ns,
            cache_hits: ca.hits + cb.hits,
            cache_misses: ca.misses + cb.misses,
            cache_evictions: ca.evictions + cb.evictions,
            pool_len: self.pool.len() as u64,
            ssp_handle_ns: handle_ns,
            ssp_requests: requests,
            user_bytes_written: self.user_bytes,
            stored_bytes: self.server.store().byte_count(),
            live_user_bytes: self.live_bytes,
            ..Counts::default()
        }
    }

    fn count_window(cfg: &Config) -> u64 {
        cfg.pick(4 * STRATA, 30)
    }

    fn audit(&mut self) -> Result<(), String> {
        // A fresh mount of B (empty cache) lists and reads every live file;
        // A reads them back too; both must equal what A wrote.
        self.reader.mount().map_err(|e| format!("remount B: {e}"))?;
        let names: BTreeSet<String> = self
            .reader
            .readdir("/share")
            .map_err(|e| format!("B: /share: {e}"))?
            .into_iter()
            .map(|e| e.name)
            .collect();
        let want: BTreeSet<String> = self.live.iter().map(|f| format!("f{}", f.id)).collect();
        if names != want {
            return Err(format!(
                "B lists {} files in /share, expected {}",
                names.len(),
                want.len()
            ));
        }
        for f in &self.live {
            let path = file_path(f.id);
            let b = self.reader.read(&path).map_err(|e| format!("B: {path}: {e}"))?;
            let a = self.writer.read(&path).map_err(|e| format!("A: {path}: {e}"))?;
            if let Some(err) = self.check("B", f, &b).or_else(|| self.check("A", f, &a)) {
                return Err(err);
            }
        }
        Ok(())
    }

    fn layer_info(&self) -> LayerInfo {
        LayerInfo {
            index_keys: self.server.store().object_count() as usize,
            rsa: Some(self.rsa.clone()),
            proof_bytes_keys: None,
        }
    }

    fn pool_ran_dry(&self) -> bool {
        self.pool.is_empty()
    }
}
