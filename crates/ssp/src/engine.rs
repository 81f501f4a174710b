//! The object store's write-ahead journal: the durability layer behind
//! [`ObjectStore::open`] and `sharoes-sspd --wal`.
//!
//! Every value lives in the store's in-memory table; the journal only makes
//! mutations survive a crash. It holds an append-only WAL, rolled into
//! sealed files, and checkpoints — the store's own sorted `SHAROES2`
//! snapshot — that let compaction drop the WAL they cover. See DESIGN.md
//! §11 for the on-disk formats and the recovery state machine;
//! `tests/crashpoints.rs` holds the crash-point matrix that proves the
//! atomicity story.
//!
//! Durability model (the crash-consistency invariants):
//!
//! 1. A mutation is acknowledged after its record is appended to the active
//!    WAL; it is *durable* once the WAL has been fsynced — every
//!    [`EngineConfig::group_commit`]'th append, or on [`ObjectStore::flush`].
//! 2. Recovery truncates at most one torn record at the very tail of the
//!    *last* WAL file (the signature of a crashed append). A torn or
//!    bit-rotten record anywhere else is a typed
//!    [`sharoes_net::NetError::Corrupt`] — never a silent short replay.
//! 3. A checkpoint is written to a `.tmp`, fsynced, renamed into place, and
//!    the directory fsynced before any WAL file is deleted; record sequence
//!    numbers are globally contiguous, so recovery can always prove the
//!    (checkpoint, WAL-tail) pair it picked covers every durable record —
//!    or fail loudly.
//!
//! Rot in any file is caught when [`ObjectStore::open`] reads it; reads
//! never touch the filesystem afterwards. All I/O goes through
//! [`crate::faultfs::Vfs`], so the crash tests drive the journal over a
//! seeded fault-injecting filesystem.

use crate::faultfs::{VFile, Vfs};
use crate::segment::{checkpoint_name, classify, wal_name, TMP_SUFFIX};
use crate::store::{
    decode_snapshot, encode_snapshot, shard_of, sorted_entries, ObjectStore, Shard,
};
use crate::wal::{
    decode_wal_header, encode_record, encode_wal_header, replay, WalError, WalOp, WalRecord,
    WAL_HEADER_LEN,
};
use sharoes_net::NetError;
use sharoes_obs::{Counter, Histogram};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLockWriteGuard};
use std::time::Instant;

/// The journalled [`ObjectStore`] under its original name:
/// `LogEngine::open` is [`ObjectStore::open`].
pub type LogEngine = ObjectStore;

/// Tuning knobs for a journalled store.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Fsync the WAL after this many appended records (1 = every record,
    /// the strongest durability; larger values batch the fsync cost).
    pub group_commit: usize,
    /// Seal the active WAL and start a new file once it exceeds this size.
    pub roll_bytes: u64,
    /// Auto-compaction trigger: superseded record bytes must reach this
    /// floor (and outweigh live bytes) before a compaction is worth it.
    pub compact_min_dead_bytes: u64,
    /// Whether mutations trigger threshold compaction automatically
    /// ([`ObjectStore::compact`] always works regardless).
    pub auto_compact: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            group_commit: 1,
            roll_bytes: 4 * 1024 * 1024,
            compact_min_dead_bytes: 1024 * 1024,
            auto_compact: true,
        }
    }
}

/// Checkpoints reach the filesystem in appends of about this size, so a
/// compaction never holds a second copy of the table.
const CHECKPOINT_CHUNK: usize = 64 * 1024;

/// All file-level state: the WAL chain and the group-commit bookkeeping.
/// One mutex serializes every append — callers blocked on it form the
/// group-commit queue, so `pending` batches their fsyncs.
struct FileState {
    /// Active WAL handle.
    wal: Box<dyn VFile>,
    wal_id: u64,
    wal_len: u64,
    /// Ids of the sealed WAL files still on disk, ascending.
    sealed: Vec<u64>,
    /// Sequence number the current checkpoint covers through.
    checkpoint: Option<u64>,
    /// This process's generation stamp (max seen on disk + 1).
    gen: u64,
    /// Sequence number the next record gets.
    next_seq: u64,
    /// Appends since the last WAL fsync.
    pending: usize,
}

/// The durability layer of a journalled [`ObjectStore`].
pub(crate) struct Journal {
    fs: Arc<dyn Vfs>,
    dir: PathBuf,
    config: EngineConfig,
    files: Mutex<FileState>,
    /// Bytes of superseded (garbage) records across WAL files + checkpoint.
    dead_bytes: AtomicU64,
}

/// The journal's registry handles, looked up by name once: a lookup takes
/// the registry lock and allocates the name, which the append and fsync
/// paths would otherwise pay on every record.
struct JournalMetrics {
    appends: Counter,
    fsyncs: Counter,
    compactions: Counter,
    checkpoint_rejects: Counter,
    replayed_records: Counter,
    recovery_ms: Histogram,
}

fn journal_metrics() -> &'static JournalMetrics {
    static METRICS: OnceLock<JournalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| JournalMetrics {
        appends: sharoes_obs::counter("ssp_wal_appends"),
        fsyncs: sharoes_obs::counter("ssp_wal_fsyncs"),
        compactions: sharoes_obs::counter("ssp_compactions"),
        checkpoint_rejects: sharoes_obs::counter("ssp_checkpoint_rejects"),
        replayed_records: sharoes_obs::counter("ssp_recovery_replayed_records"),
        recovery_ms: sharoes_obs::histogram_ms("ssp_recovery_ms"),
    })
}

fn corrupt(msg: String) -> NetError {
    NetError::Corrupt(msg)
}

/// Runs `acquire`, attributing its wait to the enclosing span's `lock`
/// phase when a trace span is live.
pub(crate) fn lock_timed<G>(acquire: impl FnOnce() -> G) -> G {
    if !sharoes_obs::in_span() {
        return acquire();
    }
    let start = Instant::now();
    let guard = acquire();
    sharoes_obs::phase_add(sharoes_obs::Phase::Lock, start.elapsed().as_nanos() as u64);
    guard
}

impl Journal {
    /// Recovers the journal in `dir` into `shards` (empty on entry).
    ///
    /// Recovery state machine:
    /// 1. sweep leftover `.tmp` files;
    /// 2. load the newest checkpoint whose integrity trailer verifies
    ///    (falling back to an older generation on rot);
    /// 3. replay every WAL file in id order, skipping records the
    ///    checkpoint already covers, enforcing global sequence contiguity,
    ///    and tolerating a torn tail only on the last file (which is
    ///    truncated to its last valid record boundary);
    /// 4. fail with a typed [`NetError::Corrupt`] if the surviving
    ///    (checkpoint, WAL) pair provably misses records — stale data is
    ///    never served silently.
    pub(crate) fn recover(
        fs: Arc<dyn Vfs>,
        dir: &Path,
        config: EngineConfig,
        shards: &mut [Shard],
    ) -> Result<Journal, NetError> {
        let t0 = Instant::now();
        let _span = sharoes_obs::span!("ssp.engine_recover");
        fs.create_dir_all(dir)?;
        let listing = classify(&fs.list(dir)?);
        for tmp in &listing.tmps {
            fs.remove(&dir.join(tmp)).ok();
        }
        let n = shards.len();

        // Newest verifiable checkpoint wins; rotten generations are skipped
        // (the sequence-contiguity check below decides whether the WAL can
        // still bridge the gap — if not, recovery fails loudly).
        let mut checkpoint: Option<u64> = None;
        let mut first_ck_err: Option<NetError> = None;
        for (seq, name) in listing.checkpoints.iter().rev() {
            match fs.read(&dir.join(name)).map_err(NetError::from).and_then(|b| decode_snapshot(&b))
            {
                Ok(entries) => {
                    for (key, value) in entries {
                        shards[shard_of(&key, n)].insert(key, value, false);
                    }
                    checkpoint = Some(*seq);
                    break;
                }
                Err(e) => {
                    journal_metrics().checkpoint_rejects.inc();
                    sharoes_obs::obs_event!(sharoes_obs::Level::Warn, "ssp.checkpoint_reject");
                    first_ck_err.get_or_insert(e);
                }
            }
        }
        let base_seq = checkpoint.unwrap_or(0);

        // Replay the WAL chain.
        let mut dead_bytes = 0u64;
        let mut sealed = Vec::new();
        let mut first_seq: Option<u64> = None;
        let mut last_seq: Option<u64> = None;
        let mut max_gen = 0u64;
        let mut replayed = 0u64;
        let mut active: Option<(u64, String, usize, bool)> = None; // id, name, valid_len, reset
        for (i, (id, name)) in listing.wals.iter().enumerate() {
            let is_last = i + 1 == listing.wals.len();
            let bytes = fs.read(&dir.join(name))?;
            match decode_wal_header(&bytes) {
                Ok((hid, hgen)) => {
                    if hid != *id {
                        return Err(corrupt(format!(
                            "wal header id {hid} does not match file name {name}"
                        )));
                    }
                    max_gen = max_gen.max(hgen);
                }
                // A torn header can only be the crashed creation of the
                // newest file: it holds no records yet, reset it below.
                Err(WalError::TornTail { .. }) if is_last => {
                    active = Some((*id, name.clone(), 0, true));
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
            // Strict replay for sealed files: they were fsynced before the
            // next file was created, so a torn record in one is corruption.
            let rp = replay(&bytes, WAL_HEADER_LEN, is_last)?;
            for (_, rlen, rec) in rp.records {
                max_gen = max_gen.max(rec.gen);
                first_seq.get_or_insert(rec.seq);
                if let Some(prev) = last_seq {
                    if rec.seq != prev + 1 {
                        return Err(corrupt(format!(
                            "wal sequence gap in {name}: {prev} then {}",
                            rec.seq
                        )));
                    }
                }
                last_seq = Some(rec.seq);
                if rec.seq <= base_seq {
                    continue; // already covered by the checkpoint
                }
                replayed += 1;
                let old = match rec.op {
                    WalOp::Put { key, value } => shards[shard_of(&key, n)].insert(key, value, true),
                    WalOp::Delete { key } => {
                        dead_bytes += rlen as u64;
                        shards[shard_of(&key, n)].remove(&key)
                    }
                };
                dead_bytes += old.map_or(0, |old| old.dead);
            }
            if is_last {
                active = Some((*id, name.clone(), rp.valid_len, false));
            } else {
                sealed.push(*id);
            }
        }

        // Coverage proof: the oldest surviving record must chain onto the
        // checkpoint (or be the very first record ever written).
        if let Some(first) = first_seq {
            if first > base_seq + 1 {
                return Err(corrupt(format!(
                    "wal starts at seq {first} but checkpoint covers only through {base_seq}"
                )));
            }
        } else if checkpoint.is_none() && !listing.checkpoints.is_empty() {
            // Every checkpoint is rotten and no WAL records survive to
            // rebuild from: refuse to come up empty over existing data.
            // Classified as corruption (Fatal), not a codec slip: retrying
            // would reread the same rotten bytes.
            let e = first_ck_err.expect("rejected checkpoints imply a recorded error");
            return Err(corrupt(format!("no readable checkpoint and an empty wal: {e}")));
        }
        // A checkpoint gets its name only after its contents are durable
        // (tmp fsync → rename → dir fsync), so the newest checkpoint *name*
        // is a floor on what recovery must cover. If that generation rotted
        // and the WAL (pruned by the same compaction) cannot bridge back to
        // an older one, fail loudly rather than serve a stale generation.
        let newest_named = listing.checkpoints.last().map(|(seq, _)| *seq).unwrap_or(0);
        let covered = last_seq.unwrap_or(0).max(base_seq);
        if covered < newest_named {
            return Err(corrupt(format!(
                "checkpoint through seq {newest_named} is unreadable and the \
                 surviving wal covers only through {covered}"
            )));
        }
        let gen = max_gen + 1;

        // Set up the active WAL: truncate a torn tail, rebuild a torn
        // header, or create the first file of a fresh directory.
        let (wal_id, wal, wal_len) = match active {
            Some((id, name, valid_len, reset)) => {
                let mut handle = fs.open(&dir.join(&name), false)?;
                if reset {
                    handle.truncate(0)?;
                    handle.append(&encode_wal_header(id, gen))?;
                    handle.sync()?;
                } else if (valid_len as u64) < handle.len() {
                    handle.truncate(valid_len as u64)?;
                    handle.sync()?;
                }
                let len = handle.len();
                (id, handle, len)
            }
            None => {
                let id = 1u64;
                let mut handle = fs.open(&dir.join(wal_name(id)), true)?;
                handle.append(&encode_wal_header(id, gen))?;
                handle.sync()?;
                fs.sync_dir(dir)?;
                let len = handle.len();
                (id, handle, len)
            }
        };

        let metrics = journal_metrics();
        metrics.replayed_records.add(replayed);
        metrics.recovery_ms.observe(t0.elapsed().as_millis() as u64);
        let files = FileState {
            wal,
            wal_id,
            wal_len,
            sealed,
            checkpoint,
            gen,
            next_seq: covered + 1,
            pending: 0,
        };
        Ok(Journal {
            fs,
            dir: dir.to_path_buf(),
            config,
            files: Mutex::new(files),
            dead_bytes: AtomicU64::new(dead_bytes),
        })
    }

    fn lock(&self) -> MutexGuard<'_, FileState> {
        lock_timed(|| self.files.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn sync_wal(files: &mut FileState) -> Result<(), NetError> {
        files.wal.sync()?;
        files.pending = 0;
        journal_metrics().fsyncs.inc();
        Ok(())
    }

    /// Appends `op` as one record, fsyncs per the group-commit config, and
    /// (if `roll`) seals a full WAL file. Returns `op` back with the fsync
    /// outcome: a failed fsync means the record is logged but *not
    /// durable* — the caller applies it and surfaces the error (retry is
    /// idempotent), and a later successful fsync or recovery replay of the
    /// surviving bytes covers it.
    pub(crate) fn log(
        &self,
        op: WalOp,
        roll: bool,
    ) -> Result<(WalOp, Result<(), NetError>), NetError> {
        let mut files = self.lock();
        let rec = WalRecord { gen: files.gen, seq: files.next_seq, op };
        let bytes = encode_record(&rec);
        files.wal.append(&bytes)?;
        files.next_seq += 1;
        files.wal_len += bytes.len() as u64;
        files.pending += 1;
        journal_metrics().appends.inc();
        let synced = if files.pending >= self.config.group_commit.max(1) {
            Self::sync_wal(&mut files)
        } else {
            Ok(())
        };
        if roll && synced.is_ok() && files.wal_len >= self.config.roll_bytes {
            self.roll_locked(&mut files)?;
        }
        Ok((rec.op, synced))
    }

    /// Seals the active WAL if it is full (the end-of-sweep roll check).
    pub(crate) fn roll_if_due(&self) -> Result<(), NetError> {
        let mut files = self.lock();
        if files.wal_len >= self.config.roll_bytes {
            self.roll_locked(&mut files)?;
        }
        Ok(())
    }

    /// Seals the active WAL and starts a fresh file.
    fn roll_locked(&self, files: &mut FileState) -> Result<(), NetError> {
        Self::sync_wal(files)?; // the sealed file must be fully durable
        let new_id = files.wal_id + 1;
        let mut handle = self.fs.open(&self.dir.join(wal_name(new_id)), true)?;
        handle.append(&encode_wal_header(new_id, files.gen))?;
        handle.sync()?;
        self.fs.sync_dir(&self.dir)?;
        files.wal = handle;
        files.sealed.push(files.wal_id);
        files.wal_id = new_id;
        files.wal_len = WAL_HEADER_LEN as u64;
        Ok(())
    }

    /// Fsyncs any pending (group-commit buffered) appends.
    pub(crate) fn flush(&self) -> Result<(), NetError> {
        let mut files = self.lock();
        if files.pending > 0 {
            Self::sync_wal(&mut files)?;
        }
        Ok(())
    }

    /// Counts `bytes` of the journal as superseded garbage.
    pub(crate) fn charge(&self, bytes: u64) {
        self.dead_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Whether auto-compaction is on and the garbage thresholds say a
    /// compaction is worth it against `live_bytes` of values.
    pub(crate) fn compaction_due(&self, live_bytes: u64) -> bool {
        let dead = self.dead_bytes.load(Ordering::Relaxed);
        self.config.auto_compact && dead >= self.config.compact_min_dead_bytes && dead >= live_bytes
    }

    /// Writes a checkpoint of `shards` covering everything appended so far,
    /// then drops the superseded WAL files and all but one older
    /// checkpoint. Caller holds *every* shard write lock (ascending).
    pub(crate) fn checkpoint(
        &self,
        shards: &mut [RwLockWriteGuard<'_, Shard>],
    ) -> Result<(), NetError> {
        let _span = sharoes_obs::span!("ssp.compact");
        let mut files = self.lock();
        Self::sync_wal(&mut files)?; // checkpoint must cover acknowledged state
        let seq = files.next_seq - 1;

        // Stream the table's sorted snapshot straight from the borrowed
        // values; tmp → fsync file → rename → fsync dir: only then is the
        // checkpoint allowed to supersede any WAL file.
        let final_name = checkpoint_name(seq);
        let tmp = self.dir.join(format!("{final_name}{TMP_SUFFIX}"));
        let mut f = self.fs.open(&tmp, true)?;
        let mut chunk = Vec::with_capacity(CHECKPOINT_CHUNK);
        encode_snapshot(&sorted_entries(shards), &mut |bytes| {
            chunk.extend_from_slice(bytes);
            if chunk.len() >= CHECKPOINT_CHUNK {
                f.append(&chunk)?;
                chunk.clear();
            }
            Ok(())
        })?;
        if !chunk.is_empty() {
            f.append(&chunk)?;
        }
        f.sync()?;
        drop(f);
        self.fs.rename(&tmp, &self.dir.join(&final_name))?;
        self.fs.sync_dir(&self.dir)?;
        for shard in shards.iter_mut() {
            shard.logged.clear();
        }

        // Fresh WAL, durable before the old chain is deleted.
        let new_id = files.wal_id + 1;
        let mut wal = self.fs.open(&self.dir.join(wal_name(new_id)), true)?;
        wal.append(&encode_wal_header(new_id, files.gen))?;
        wal.sync()?;

        // Delete superseded WAL files and prune checkpoints down to the new
        // one plus a single fallback generation.
        for id in files.sealed.iter().chain([&files.wal_id]) {
            self.fs.remove(&self.dir.join(wal_name(*id))).ok();
        }
        let listing = classify(&self.fs.list(&self.dir)?);
        if listing.checkpoints.len() > 2 {
            for (_, name) in &listing.checkpoints[..listing.checkpoints.len() - 2] {
                self.fs.remove(&self.dir.join(name)).ok();
            }
        }
        self.fs.sync_dir(&self.dir)?;

        files.sealed.clear();
        files.checkpoint = Some(seq);
        files.wal = wal;
        files.wal_id = new_id;
        files.wal_len = WAL_HEADER_LEN as u64;
        self.dead_bytes.store(0, Ordering::Relaxed);
        journal_metrics().compactions.inc();
        Ok(())
    }

    /// `(active wal id, active wal bytes, sealed wal count, checkpoint seq)`.
    pub(crate) fn shape(&self) -> (u64, u64, usize, Option<u64>) {
        let files = self.lock();
        (files.wal_id, files.wal_len, files.sealed.len(), files.checkpoint)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultfs::{CrashMode, FaultFs};
    use sharoes_crypto::{HmacDrbg, Sha256};
    use sharoes_index::MerkleIndex;
    use sharoes_net::{KeySpace, ObjectKey};

    fn key(i: u64, b: u32) -> ObjectKey {
        ObjectKey::data(i, [i as u8; 16], b)
    }

    fn mem_engine(config: EngineConfig) -> (FaultFs, LogEngine) {
        let fs = FaultFs::new();
        let engine =
            LogEngine::open(Arc::new(fs.clone()), Path::new("/data"), config).expect("open");
        (fs, engine)
    }

    #[test]
    fn put_get_delete_roundtrip_and_reopen() {
        let (fs, engine) = mem_engine(EngineConfig::default());
        assert!(engine.is_journalled());
        assert_eq!(engine.get(&key(1, 0)), None);
        engine.put(key(1, 0), vec![1, 2, 3]).unwrap();
        engine.put(key(2, 0), vec![9; 40]).unwrap();
        engine.put(key(1, 0), vec![4, 5]).unwrap(); // replace
        assert!(engine.delete(&key(2, 0)).unwrap());
        assert!(!engine.delete(&key(2, 0)).unwrap());
        assert_eq!(engine.get(&key(1, 0)), Some(vec![4, 5]));
        assert_eq!(engine.object_count(), 1);
        assert_eq!(engine.byte_count(), 2);
        drop(engine);

        let reopened =
            LogEngine::open(Arc::new(fs), Path::new("/data"), EngineConfig::default()).unwrap();
        assert_eq!(reopened.get(&key(1, 0)), Some(vec![4, 5]));
        assert_eq!(reopened.get(&key(2, 0)), None);
        assert_eq!(reopened.object_count(), 1);
        assert_eq!(reopened.byte_count(), 2);
    }

    #[test]
    fn rolling_seals_files_and_reopen_replays_them() {
        let config =
            EngineConfig { roll_bytes: 256, auto_compact: false, ..EngineConfig::default() };
        let (fs, engine) = mem_engine(config);
        for i in 0..40u64 {
            engine.put(key(i, 0), vec![i as u8; 24]).unwrap();
        }
        let (wal_id, _, sealed, _) = engine.debug_shape();
        assert!(wal_id > 1 && sealed > 0, "workload must roll: id={wal_id} sealed={sealed}");
        drop(engine);
        let reopened = LogEngine::open(Arc::new(fs), Path::new("/data"), config).unwrap();
        for i in 0..40u64 {
            assert_eq!(reopened.get(&key(i, 0)), Some(vec![i as u8; 24]), "key {i}");
        }
    }

    #[test]
    fn compaction_drops_wal_files_and_preserves_state() {
        let config = EngineConfig { roll_bytes: 256, auto_compact: false, ..Default::default() };
        let (fs, engine) = mem_engine(config);
        for round in 0..3 {
            for i in 0..20u64 {
                engine.put(key(i, 0), vec![round as u8; 16]).unwrap();
            }
        }
        engine.delete(&key(19, 0)).unwrap();
        let fingerprint = engine.snapshot();
        engine.compact().unwrap();
        let (_, _, sealed, ck) = engine.debug_shape();
        assert_eq!(sealed, 0, "compaction must drop sealed files");
        // The checkpoint is byte-for-byte the store's own snapshot.
        let ck = fs.read(&Path::new("/data").join(checkpoint_name(ck.unwrap()))).unwrap();
        assert_eq!(ck, fingerprint);
        assert_eq!(engine.snapshot(), fingerprint, "compaction must not change state");
        // And a reopen replays checkpoint + empty tail to the same state.
        drop(engine);
        let reopened = LogEngine::open(Arc::new(fs), Path::new("/data"), config).unwrap();
        assert_eq!(reopened.snapshot(), fingerprint);
        assert_eq!(reopened.get(&key(19, 0)), None);
    }

    #[test]
    fn auto_compaction_triggers_on_dead_bytes() {
        let config = EngineConfig {
            group_commit: 4,
            roll_bytes: 1 << 20,
            compact_min_dead_bytes: 2_000,
            auto_compact: true,
        };
        let (_fs, engine) = mem_engine(config);
        // Overwrite the same key until garbage crosses the threshold.
        for i in 0..200u32 {
            engine.put(key(7, 0), vec![i as u8; 64]).unwrap();
        }
        let (_, _, _, ck) = engine.debug_shape();
        assert!(ck.is_some(), "threshold compaction should have fired");
        assert_eq!(engine.get(&key(7, 0)), Some(vec![199; 64]));
        assert_eq!(engine.object_count(), 1);
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        // Counted on the instance's own crash images, not a process-wide
        // counter: a record is durable iff a power cut keeps it.
        let config = EngineConfig { group_commit: 8, auto_compact: false, ..Default::default() };
        let (fs, engine) = mem_engine(config);
        let durable = |fs: &FaultFs| {
            let mut rng = HmacDrbg::from_seed_u64(8);
            let image = fs.crash_image(CrashMode::LoseUnsynced, &mut rng);
            LogEngine::open(Arc::new(image), Path::new("/data"), config).unwrap().object_count()
        };
        for i in 0..7u64 {
            engine.put(key(i, 0), vec![0; 8]).unwrap();
        }
        assert_eq!(durable(&fs), 0, "7 appends at group 8: nothing fsynced yet");
        engine.put(key(7, 0), vec![0; 8]).unwrap();
        assert_eq!(durable(&fs), 8, "the 8th append fsyncs the whole group");
        engine.put(key(8, 0), vec![1]).unwrap();
        assert_eq!(durable(&fs), 8);
        engine.flush().unwrap();
        assert_eq!(durable(&fs), 9, "flush fsyncs the partial group");
    }

    #[test]
    fn delete_blocks_logs_per_key_and_survives_reopen() {
        let (fs, engine) = mem_engine(EngineConfig::default());
        for b in 0..5u32 {
            engine.put(key(9, b), vec![b as u8; 10]).unwrap();
        }
        engine.put(ObjectKey::data(9, [8; 16], 0), vec![1]).unwrap();
        engine.put(ObjectKey::metadata(9, [9; 16]), vec![2]).unwrap();
        assert_eq!(engine.delete_blocks(9, [9; 16]).unwrap(), 5);
        assert_eq!(engine.delete_blocks(9, [9; 16]).unwrap(), 0);
        assert_eq!(engine.object_count(), 2);
        drop(engine);
        let reopened =
            LogEngine::open(Arc::new(fs), Path::new("/data"), EngineConfig::default()).unwrap();
        assert_eq!(reopened.object_count(), 2);
        assert!(reopened.get(&ObjectKey::metadata(9, [9; 16])).is_some());
        assert_eq!(reopened.bytes_by_space()[&KeySpace::Data], 1);
    }

    #[test]
    fn index_root_tracks_mutations_compaction_and_reopen() {
        let config = EngineConfig { roll_bytes: 256, auto_compact: false, ..Default::default() };
        let (fs, engine) = mem_engine(config);
        for i in 0..30u64 {
            engine.put(key(i, (i % 3) as u32), vec![i as u8; 12]).unwrap();
        }
        engine.delete(&key(4, 1)).unwrap();
        engine.delete_blocks(9, [9; 16]).unwrap();
        let (keys, done) = engine.scan_keys(None, 10_000);
        assert!(done);
        let mut rebuilt = MerkleIndex::from_keys(keys.iter().copied());
        let expect = (rebuilt.root(), keys.len() as u64);
        assert_eq!(engine.index_root(), expect);
        // Compaction changes the physical layout, never the key set.
        engine.compact().unwrap();
        assert_eq!(engine.index_root(), expect);
        // Reopen rebuilds the same root from checkpoint + WAL replay.
        drop(engine);
        let reopened = LogEngine::open(Arc::new(fs), Path::new("/data"), config).unwrap();
        assert_eq!(reopened.index_root(), expect);
        // Proofs from the engine verify against its root.
        let p = reopened.scan_proof(None, 7);
        sharoes_index::verify_scan_page(&expect.0, None, 7, &p.keys, p.done, &p.proof)
            .expect("honest engine proof must verify");
        let [Some(bytes)] = &reopened.index_nodes(&[expect.0])[..] else {
            panic!("root node served")
        };
        assert_eq!(Sha256::digest(bytes), expect.0);
    }

    #[test]
    fn fsync_failure_surfaces_and_engine_stays_usable() {
        let (fs, engine) = mem_engine(EngineConfig::default());
        engine.put(key(1, 0), vec![1]).unwrap();
        fs.fail_next_syncs(1);
        let err = engine.put(key(2, 0), vec![2]).unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "injected fsync error must surface: {err}");
        // The record is appended but unsynced; the next successful op's
        // group fsync makes both durable.
        engine.put(key(3, 0), vec![3]).unwrap();
        assert_eq!(engine.get(&key(2, 0)), Some(vec![2]));
        assert_eq!(engine.get(&key(3, 0)), Some(vec![3]));
        assert_eq!(fs.sync_failures(), 1);
    }

    #[test]
    fn concurrent_writers_converge_to_sequential_state() {
        let config = EngineConfig { group_commit: 4, auto_compact: false, ..Default::default() };
        let (_fs, engine) = mem_engine(config);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let engine = &engine;
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let k = key(t * 1000 + i, 0);
                        engine.put(k, vec![t as u8; 16]).unwrap();
                        if i % 5 == 0 {
                            assert_eq!(engine.get(&k), Some(vec![t as u8; 16]));
                        }
                        if i % 7 == 0 {
                            engine.delete(&k).unwrap();
                        }
                    }
                });
            }
        });
        engine.flush().unwrap();
        let expect: u64 = 8 * (50 - 8); // 8 of 50 per thread hit i % 7 == 0
        assert_eq!(engine.object_count(), expect);
        let (keys, done) = engine.scan_keys(None, 10_000);
        assert!(done);
        assert_eq!(keys.len() as u64, expect);
        // The authenticated index agrees with a from-scratch rebuild.
        let mut rebuilt = MerkleIndex::from_keys(keys.iter().copied());
        assert_eq!(engine.index_root(), (rebuilt.root(), expect));
    }

    #[test]
    fn fresh_dir_has_header_only_wal() {
        let (fs, engine) = mem_engine(EngineConfig::default());
        let (id, len, sealed, ck) = engine.debug_shape();
        assert_eq!((id, len, sealed, ck), (1, WAL_HEADER_LEN as u64, 0, None));
        assert_eq!(fs.read(Path::new("/data/wal-000001.log")).unwrap().len(), WAL_HEADER_LEN);
    }
}
