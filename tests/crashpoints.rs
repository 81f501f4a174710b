//! Crash-point recovery matrix for the log-structured SSP engine.
//!
//! The tentpole gate: a seeded workload is applied through the fault-
//! injecting filesystem, then the engine is killed at EVERY byte offset of
//! the WAL and recovered. The oracle is exact: recovery must land on the
//! state at the greatest completed-operation boundary at or below the kill
//! point — never a partial operation, never a panic, never silent loss of
//! an fsync-acknowledged record. A second sweep takes power-cut images
//! (both crash modes) after every operation with rolling and compaction
//! enabled, and further cases inject fsync failures and storage bit rot.
//!
//! Replay a failure with `SHAROES_TEST_SEED=<seed> cargo test --test
//! crashpoints`.

use sharoes::crypto::{Digest, Sha256};
use sharoes::net::ObjectKey;
use sharoes::ssp::segment::wal_name;
use sharoes::ssp::wal::{WalRecord, WAL_HEADER_LEN};
use sharoes::ssp::{
    snapshot_from_entries, CrashMode, EngineConfig, FaultFs, LogEngine, ObjectStore, Vfs,
};
use sharoes_index::MerkleIndex;
use sharoes_testkit::rng::{test_rng_for, test_seed, HmacDrbg, RandomSource};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

const DIR: &str = "/ssp";

fn key_for(r: u64) -> ObjectKey {
    match r % 3 {
        0 => ObjectKey::metadata(r / 3 % 5, [(r / 15 % 2) as u8; 16]),
        _ => ObjectKey::data(r / 3 % 5, [(r / 15 % 2) as u8; 16], (r / 30 % 4) as u32),
    }
}

/// One workload step that always appends exactly one WAL record.
#[derive(Clone)]
enum Op {
    Put(ObjectKey, Vec<u8>),
    Delete(ObjectKey),
}

/// A seeded workload where every delete targets a then-present key, so the
/// on-disk record boundaries are a pure function of the op list.
fn workload(rng: &mut HmacDrbg, steps: usize) -> Vec<Op> {
    let mut model: BTreeMap<ObjectKey, Vec<u8>> = BTreeMap::new();
    let mut ops = Vec::with_capacity(steps);
    for _ in 0..steps {
        let r = rng.next_u64();
        let op = if r % 4 == 3 && !model.is_empty() {
            let nth = (r / 4) as usize % model.len();
            let key = *model.keys().nth(nth).expect("nth < len");
            model.remove(&key);
            Op::Delete(key)
        } else {
            let key = key_for(r / 4);
            let len = (r / 64 % 48) as usize;
            let mut value = vec![0u8; len];
            rng.fill_bytes(&mut value);
            model.insert(key, value.clone());
            Op::Put(key, value)
        };
        ops.push(op);
    }
    ops
}

/// The canonical fingerprint of the model state after each prefix of `ops`
/// (`states[k]` = after `k` ops), plus the WAL byte boundary each op ends
/// at — computed from the record-length formulas, independently of the
/// engine's own writer — plus the Merkle index root a from-scratch rebuild
/// of each prefix's key set must produce (history independence makes this
/// a well-defined oracle for the engine's incrementally maintained index).
struct Oracle {
    /// `states[k]` — canonical snapshot fingerprint after `k` ops.
    states: Vec<Vec<u8>>,
    /// `bounds[k]` — WAL byte offset op `k` ends at (bounds[0] = header).
    bounds: Vec<usize>,
    /// `roots[k]` — (index root, key count) of a from-scratch rebuild.
    roots: Vec<([u8; 32], u64)>,
}

fn oracle(ops: &[Op]) -> Oracle {
    let mut model: BTreeMap<ObjectKey, Vec<u8>> = BTreeMap::new();
    let fingerprint = |m: &BTreeMap<ObjectKey, Vec<u8>>| {
        let entries: Vec<(ObjectKey, Vec<u8>)> = m.iter().map(|(k, v)| (*k, v.clone())).collect();
        snapshot_from_entries(&entries)
    };
    let root_of = |m: &BTreeMap<ObjectKey, Vec<u8>>| {
        let mut rebuilt = MerkleIndex::from_keys(m.keys().copied());
        (rebuilt.root(), m.len() as u64)
    };
    let mut states = vec![fingerprint(&model)];
    let mut bounds = vec![WAL_HEADER_LEN];
    let mut roots = vec![root_of(&model)];
    for op in ops {
        let last = *bounds.last().expect("non-empty");
        match op {
            Op::Put(key, value) => {
                model.insert(*key, value.clone());
                bounds.push(last + WalRecord::put_len(value.len()));
            }
            Op::Delete(key) => {
                assert!(model.remove(key).is_some(), "workload deletes are always present");
                bounds.push(last + WalRecord::delete_len());
            }
        }
        states.push(fingerprint(&model));
        roots.push(root_of(&model));
    }
    Oracle { states, bounds, roots }
}

fn apply(engine: &LogEngine, op: &Op) {
    match op {
        Op::Put(key, value) => engine.put(*key, value.clone()).expect("put"),
        Op::Delete(key) => {
            assert!(engine.delete(key).expect("delete"), "workload deletes are always present");
        }
    }
}

/// Every-record-fsynced config with one giant WAL file, so each operation
/// is durable the moment it returns and the byte layout is a single file.
fn matrix_config() -> EngineConfig {
    EngineConfig {
        group_commit: 1,
        roll_bytes: u64::MAX,
        auto_compact: false,
        ..EngineConfig::default()
    }
}

/// THE MATRIX: kill the engine at every WAL byte offset; recovery must
/// land exactly on the last completed operation's state.
#[test]
fn recovery_lands_on_an_op_boundary_at_every_wal_offset() {
    println!("crashpoints seed: {:#x} (set SHAROES_TEST_SEED to replay)", test_seed());
    let dir = Path::new(DIR);
    let mut rng = test_rng_for("crashpoints-matrix");
    let ops = workload(&mut rng, 24);
    let Oracle { states, bounds, roots } = oracle(&ops);

    let fs = FaultFs::new();
    let engine = LogEngine::open(Arc::new(fs.clone()), dir, matrix_config()).unwrap();
    for op in &ops {
        apply(&engine, op);
    }
    drop(engine);

    let wal_path = dir.join(wal_name(1));
    let wal = fs.read(&wal_path).unwrap();
    // The independently computed boundaries must describe the real file:
    // this pins the on-disk format (header + per-record framing) itself.
    assert_eq!(
        wal.len(),
        *bounds.last().unwrap(),
        "record-length formulas diverge from the writer"
    );

    for cut in 0..=wal.len() {
        let crashed = FaultFs::new();
        crashed.install(&wal_path, wal[..cut].to_vec());
        let recovered = LogEngine::open(Arc::new(crashed.clone()), dir, matrix_config())
            .unwrap_or_else(|e| panic!("recovery at wal offset {cut} failed: {e}"));
        // Greatest completed-op boundary at or below the kill point; a cut
        // inside the 25-byte header is a crashed file creation (state 0).
        let completed = bounds.partition_point(|b| *b <= cut).saturating_sub(1);
        let got = recovered.snapshot();
        assert_eq!(
            got, states[completed],
            "recovery at wal offset {cut} is neither pre- nor post-op state \
             (expected state after {completed} ops)"
        );
        // The authenticated index rebuilt during recovery must equal a
        // from-scratch build over the recovered key set — at EVERY cut.
        assert_eq!(
            recovered.index_root(),
            roots[completed],
            "recovered index root at wal offset {cut} diverges from a \
             from-scratch rebuild (state after {completed} ops)"
        );
        // Spot-check the recovered engine is writable, not just readable.
        if cut % 97 == 0 {
            recovered.put(ObjectKey::superblock([7; 16]), vec![1, 2, 3]).unwrap();
        }
    }
}

/// Power-cut images after every operation, in both crash modes, with
/// rolling and compaction enabled: the recovered state is the state of
/// some fsync-acknowledged prefix within the group-commit window.
#[test]
fn crash_images_recover_an_acknowledged_prefix_under_rolling_and_compaction() {
    let dir = Path::new(DIR);
    let config = EngineConfig {
        group_commit: 2,
        roll_bytes: 1024,
        compact_min_dead_bytes: 512,
        auto_compact: true,
    };
    let mut rng = test_rng_for("crashpoints-images");
    let ops = workload(&mut rng, 60);
    let Oracle { states, roots, .. } = oracle(&ops);

    let fs = FaultFs::new();
    let engine = LogEngine::open(Arc::new(fs.clone()), dir, config).unwrap();
    let mut crash_rng = test_rng_for("crashpoints-images-crash");
    for (k, op) in ops.iter().enumerate() {
        apply(&engine, op);
        for mode in [CrashMode::LoseUnsynced, CrashMode::TornTail] {
            let image = fs.crash_image(mode, &mut crash_rng);
            let recovered = LogEngine::open(Arc::new(image), dir, config)
                .unwrap_or_else(|e| panic!("recovery of {mode:?} image after op {k} failed: {e}"));
            let got = recovered.snapshot();
            // With group_commit=2 at most one acknowledged record may still
            // be unsynced: the image holds state k or k+1 (1-indexed ops).
            let window = [&states[k], &states[k + 1]];
            let slot = window.iter().position(|s| **s == got).unwrap_or_else(|| {
                panic!(
                    "{mode:?} image after op {k} recovered to a state outside \
                     the group-commit window"
                )
            });
            // Whichever window state it landed on, the rebuilt index must
            // agree with a from-scratch build over that state's keys.
            assert_eq!(
                recovered.index_root(),
                roots[k + slot],
                "{mode:?} image after op {k}: recovered index root diverges \
                 from a from-scratch rebuild"
            );
        }
    }
    // The workload above must actually have exercised roll + compaction.
    engine.flush().unwrap();
    let (wal_id, _, _, checkpoint) = engine.debug_shape();
    assert!(wal_id > 1, "workload never rolled the WAL");
    assert!(checkpoint.is_some(), "workload never compacted");
}

/// Injected fsync failures surface as typed errors — no panic, and the
/// engine keeps serving (a retry is idempotent; the record is still
/// logged, so a later crash image may legitimately contain it).
#[test]
fn fsync_failures_are_typed_and_nonfatal() {
    let dir = Path::new(DIR);
    let fs = FaultFs::new();
    let engine = LogEngine::open(Arc::new(fs.clone()), dir, matrix_config()).unwrap();
    let key = ObjectKey::metadata(1, [3; 16]);
    engine.put(key, vec![1]).unwrap();

    fs.fail_next_syncs(2);
    let err = engine.put(key, vec![2]).expect_err("failed fsync must surface");
    assert!(err.to_string().contains("sync"), "unexpected error: {err}");
    // Applied in memory (the caller knows it is not durable yet) …
    assert_eq!(engine.get(&key), Some(vec![2]));
    // … and the next mutation both fails (second injected fault) and then
    // recovers: the engine never wedges.
    assert!(engine.put(key, vec![3]).is_err());
    engine.put(key, vec![4]).expect("engine must stay usable after fsync faults");
    engine.flush().unwrap();

    drop(engine);
    let reopened = LogEngine::open(Arc::new(fs.clone()), dir, matrix_config()).unwrap();
    assert_eq!(reopened.get(&key), Some(vec![4]));
}

/// Bit rot in a sealed WAL segment is caught by recovery as a typed
/// corruption error — sealed files get strict replay, no torn-tail mercy.
#[test]
fn sealed_segment_bit_rot_fails_recovery_loudly() {
    let dir = Path::new(DIR);
    let config = EngineConfig { roll_bytes: 512, auto_compact: false, ..EngineConfig::default() };
    let fs = FaultFs::new();
    let engine = LogEngine::open(Arc::new(fs.clone()), dir, config).unwrap();
    let model = ObjectStore::new();
    let mut rng = test_rng_for("crashpoints-rot");
    for _ in 0..40 {
        let r = rng.next_u64();
        let mut value = vec![0u8; (r % 64) as usize];
        rng.fill_bytes(&mut value);
        engine.put(key_for(r), value.clone()).unwrap();
        model.put(key_for(r), value).unwrap();
    }
    let (wal_id, _, sealed, _) = engine.debug_shape();
    assert!(sealed > 0, "workload never sealed a segment");
    drop(engine);

    // Rot a byte beyond the first sealed file's header.
    let victim = dir.join(wal_name(1));
    assert!(wal_id > 1 && fs.exists(&victim));
    let mut rot = test_rng_for("crashpoints-rot-flip");
    loop {
        let at = fs.flip_bit(&victim, &mut rot).expect("sealed file is non-empty");
        if at as usize >= WAL_HEADER_LEN {
            break;
        }
        fs.flip_bit(&victim, &mut rot); // undo-by-reflip is not guaranteed; just flip again
    }

    let err = LogEngine::open(Arc::new(fs.clone()), dir, config)
        .err()
        .expect("rotten sealed segment must fail recovery");
    assert!(err.to_string().contains("corrupt"), "expected corruption, got: {err}");
}

/// Bit rot inside the checkpoint is caught when recovery reads it: values
/// are served from RAM, so the live store keeps serving the bytes it was
/// given, and a reopen over the rotten checkpoint — whose WAL compaction
/// pruned — fails with a typed corruption error instead of coming up stale.
#[test]
fn checkpoint_bit_rot_is_caught_at_recovery() {
    let dir = Path::new(DIR);
    let fs = FaultFs::new();
    let engine = LogEngine::open(Arc::new(fs.clone()), dir, matrix_config()).unwrap();
    let mut rng = test_rng_for("crashpoints-ckrot");
    let mut written = Vec::new();
    for i in 0..16u64 {
        let key = ObjectKey::data(i, [9; 16], 0);
        let mut value = vec![0u8; 64];
        rng.fill_bytes(&mut value);
        engine.put(key, value.clone()).unwrap();
        written.push((key, value));
    }
    engine.compact().unwrap();

    let listing = sharoes::ssp::segment::classify(&fs.list(dir).unwrap());
    let (_, ck_name) = listing.checkpoints.last().expect("compaction wrote a checkpoint");
    fs.flip_bit(&dir.join(ck_name), &mut rng).unwrap();
    for (key, value) in &written {
        assert_eq!(engine.get(key).as_ref(), Some(value), "reads never touch the rotten file");
    }
    drop(engine);

    let err = LogEngine::open(Arc::new(fs.clone()), dir, matrix_config())
        .err()
        .expect("a rotten checkpoint with no WAL bridge must fail recovery");
    assert!(err.to_string().contains("corruption"), "expected corruption, got: {err}");
}

/// SHA-256 over the sorted `(name, bytes)` listing of `dir`: the exact
/// on-disk image, file names and contents both.
fn image_digest(fs: &FaultFs, dir: &Path) -> String {
    let mut sha = Sha256::new();
    for name in fs.list(dir).unwrap() {
        let bytes = fs.read(&dir.join(&name)).unwrap();
        sha.update(&(name.len() as u32).to_be_bytes());
        sha.update(name.as_bytes());
        sha.update(&(bytes.len() as u64).to_be_bytes());
        sha.update(&bytes);
    }
    sha.finalize_vec().iter().map(|b| format!("{b:02x}")).collect()
}

/// On-disk golden image: a fixed-seed journalled workload covering put,
/// overwrite, delete, `delete_blocks`, WAL rolls, an auto-compaction and a
/// reopen must leave byte-for-byte the same files — names, WAL records,
/// checkpoint bytes, and the points where rolls and compactions fired — as
/// the reference digest records. A change to this digest is an on-disk
/// format change.
#[test]
fn on_disk_image_matches_the_golden_digest() {
    let dir = Path::new("/golden");
    let config = EngineConfig {
        group_commit: 1,
        roll_bytes: 2048,
        compact_min_dead_bytes: 1024,
        auto_compact: true,
    };
    let fs = FaultFs::new();
    let mut rng = HmacDrbg::from_seed_u64(0x0601_DE17);
    let (mut rolled, mut compacted) = (false, false);
    for session in 0..2 {
        let engine = LogEngine::open(Arc::new(fs.clone()), dir, config).unwrap();
        for _ in 0..150 {
            let r = rng.next_u64();
            let inode = r % 6;
            let view = [(r / 6 % 2) as u8; 16];
            match r / 12 % 10 {
                0..=3 => {
                    let key = ObjectKey::data(inode, view, (r / 120 % 4) as u32);
                    let mut value = vec![0u8; 8 + (r / 480 % 56) as usize];
                    rng.fill_bytes(&mut value);
                    engine.put(key, value).unwrap();
                }
                4..=6 => {
                    let mut value = vec![0u8; 8 + (r / 120 % 40) as usize];
                    rng.fill_bytes(&mut value);
                    engine.put(ObjectKey::metadata(inode, view), value).unwrap();
                }
                7 | 8 => {
                    engine.delete(&ObjectKey::metadata(inode, view)).unwrap();
                }
                _ => {
                    engine.delete_blocks(inode, view).unwrap();
                }
            }
            let (_, _, sealed, checkpoint) = engine.debug_shape();
            rolled |= sealed > 0;
            compacted |= checkpoint.is_some() && session == 0;
        }
        engine.flush().unwrap();
    }
    assert!(rolled, "the golden workload must roll the WAL");
    assert!(compacted, "the golden workload must auto-compact");
    assert_eq!(
        image_digest(&fs, dir),
        "c0e96782e7c5e21ac08dc7a831b5c3a5445cddd10a3c65038b1eac87c6cda0ba",
        "the on-disk image changed: WAL records, file names, checkpoint bytes, or when \
         rolls and compactions fire"
    );
}
