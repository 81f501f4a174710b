//! Regression: recovery through a checkpoint + WAL tail is byte-identical
//! (same `snapshot()` fingerprint) to a full-WAL-only replay of the same
//! seeded workload — and both match an in-memory `ObjectStore` model.
//! Also pins the fallback rules with checkpoints in the mix: a rotten
//! newest checkpoint recovers from the surviving WAL when it bridges, and
//! fails loudly when it cannot. Every `delete_blocks` sweep is checked
//! against a plain `BTreeMap` that applies the filter rule.

use sharoes_net::{KeySpace, ObjectKey};
use sharoes_ssp::segment::classify;
use sharoes_ssp::{snapshot_from_entries, EngineConfig, FaultFs, LogEngine, ObjectStore, Vfs};
use sharoes_testkit::rng::{test_rng_for, test_seed, HmacDrbg, RandomSource};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// View `x % 3` of three, or that view with its last byte one below or
/// one above: keys of a neighbouring view sort right next to a swept one.
fn view_for(x: u64) -> [u8; 16] {
    let mut view = [(x % 3) as u8; 16];
    view[15] = match x / 3 % 3 {
        0 => view[15],
        1 => view[15].wrapping_add(1),
        _ => view[15].wrapping_sub(1),
    };
    view
}

/// A key on or next to the edges of a `delete_blocks` range: blocks 0 and
/// `u32::MAX`, neighbouring inodes and views, and `Metadata` and
/// `Superblock` keys that share a swept inode and view.
fn key_for(r: u64) -> ObjectKey {
    const SPACES: [KeySpace; 5] =
        [KeySpace::Metadata, KeySpace::Data, KeySpace::Data, KeySpace::Data, KeySpace::Superblock];
    const BLOCKS: [u32; 5] = [0, 1, 2, 3, u32::MAX];
    ObjectKey {
        space: SPACES[(r % 5) as usize],
        inode: r / 5 % 7,
        view: view_for(r / 35),
        block: BLOCKS[(r / 315 % 5) as usize],
    }
}

/// Drives `steps` seeded mutations into the engine and the model store,
/// occasionally compacting when `compact_every` is set. After every
/// `delete_blocks`, both stores must hold exactly what a `BTreeMap` holds
/// once it drops every `Data` key of the swept inode and view.
fn drive(
    engine: &LogEngine,
    model: &ObjectStore,
    rng: &mut HmacDrbg,
    steps: usize,
    compact_every: Option<usize>,
) {
    let mut oracle: BTreeMap<ObjectKey, Vec<u8>> = BTreeMap::new();
    for i in 0..steps {
        let r = rng.next_u64();
        match r % 10 {
            0..=6 => {
                let key = key_for(r / 10);
                let len = (r / 1000 % 200) as usize;
                let mut value = vec![0u8; len];
                rng.fill_bytes(&mut value);
                engine.put(key, value.clone()).expect("put");
                model.put(key, value.clone()).unwrap();
                oracle.insert(key, value);
            }
            7 | 8 => {
                let key = key_for(r / 10);
                let e = engine.delete(&key).expect("delete");
                let m = model.delete(&key).unwrap();
                assert_eq!(e, m, "delete presence diverged at step {i}");
                oracle.remove(&key);
            }
            _ => {
                let inode = r / 10 % 7;
                let view = view_for(r / 70);
                let e = engine.delete_blocks(inode, view).expect("delete_blocks");
                let m = model.delete_blocks(inode, view).unwrap();
                let before = oracle.len();
                oracle.retain(|k, _| {
                    !(k.space == KeySpace::Data && k.inode == inode && k.view == view)
                });
                let swept = before - oracle.len();
                assert_eq!(e, swept, "engine delete_blocks count diverged at step {i}");
                assert_eq!(m, swept, "model delete_blocks count diverged at step {i}");
                let keys: Vec<ObjectKey> = oracle.keys().copied().collect();
                let entries: Vec<(ObjectKey, Vec<u8>)> =
                    oracle.iter().map(|(k, v)| (*k, v.clone())).collect();
                let expected = snapshot_from_entries(&entries);
                for (name, store) in [("engine", engine), ("model", model)] {
                    assert_eq!(
                        store.scan_keys(None, usize::MAX),
                        (keys.clone(), true),
                        "{name} index diverged from the oracle after the sweep at step {i}"
                    );
                    assert_eq!(
                        store.snapshot(),
                        expected,
                        "{name} contents diverged from the oracle after the sweep at step {i}"
                    );
                }
            }
        }
        if let Some(every) = compact_every {
            if i > 0 && i % every == 0 {
                engine.compact().expect("compact");
            }
        }
    }
    engine.flush().expect("flush");
}

fn small_roll() -> EngineConfig {
    EngineConfig { roll_bytes: 2048, ..EngineConfig::default() }
}

fn wal_only() -> EngineConfig {
    EngineConfig { auto_compact: false, ..EngineConfig::default() }
}

#[test]
fn checkpoint_tail_recovery_matches_full_wal_recovery() {
    println!("recovery-equiv seed: {:#x} (set SHAROES_TEST_SEED to replay)", test_seed());
    let dir = Path::new("/eng");

    // Engine A: small segments, periodic compaction → recovery sees a
    // checkpoint plus a WAL tail. Engine B: one giant WAL, no compaction.
    let fs_a = FaultFs::new();
    let fs_b = FaultFs::new();
    let a = LogEngine::open(Arc::new(fs_a.clone()), dir, small_roll()).unwrap();
    let b = LogEngine::open(Arc::new(fs_b.clone()), dir, wal_only()).unwrap();
    let model_a = ObjectStore::new();
    let model_b = ObjectStore::new();
    let mut rng_a = test_rng_for("recovery-equiv");
    let mut rng_b = test_rng_for("recovery-equiv");
    drive(&a, &model_a, &mut rng_a, 400, Some(90));
    drive(&b, &model_b, &mut rng_b, 400, None);
    drop(a);
    drop(b);

    let a2 = LogEngine::open(Arc::new(fs_a.clone()), dir, small_roll()).unwrap();
    let b2 = LogEngine::open(Arc::new(fs_b.clone()), dir, wal_only()).unwrap();

    // Recovery paths actually differ: A replays through a checkpoint,
    // B through nothing but log records.
    let (_, _, _, ck_a) = a2.debug_shape();
    let (_, _, _, ck_b) = b2.debug_shape();
    assert!(ck_a.is_some(), "engine A should have recovered via a checkpoint");
    assert!(ck_b.is_none(), "engine B should have recovered from the WAL alone");

    let snap_a = a2.snapshot();
    let snap_b = b2.snapshot();
    assert_eq!(snap_a, snap_b, "checkpoint+tail and full-WAL recovery diverged");
    assert_eq!(snap_a, model_a.snapshot(), "recovered state diverged from the model");
    assert_eq!(model_a.snapshot(), model_b.snapshot(), "seeded workloads diverged");
}

/// Pre-compaction WAL files bridge a rotten newest checkpoint: recovery
/// falls back and rebuilds the exact same state from records alone.
#[test]
fn rotten_checkpoint_falls_back_to_bridging_wal() {
    let dir = Path::new("/eng");
    let fs = FaultFs::new();
    let engine = LogEngine::open(Arc::new(fs.clone()), dir, small_roll()).unwrap();
    let model = ObjectStore::new();
    let mut rng = test_rng_for("recovery-fallback");
    drive(&engine, &model, &mut rng, 200, None);

    // Freeze the full pre-compaction WAL chain, then compact.
    let listing = classify(&fs.list(dir).unwrap());
    let wals: Vec<(String, Vec<u8>)> = listing
        .wals
        .iter()
        .map(|(_, name)| (name.clone(), fs.read(&dir.join(name)).unwrap()))
        .collect();
    assert!(wals.len() > 1, "workload should have rolled the WAL");
    engine.compact().unwrap();
    drop(engine);

    // Reconstruct the crash window where the checkpoint rename is durable
    // but the old-WAL deletions are not: checkpoint + every old WAL file.
    let listing = classify(&fs.list(dir).unwrap());
    let (_, ck_name) = listing.checkpoints.last().expect("compaction wrote a checkpoint");
    let crashed = FaultFs::new();
    crashed.install(&dir.join(ck_name), fs.read(&dir.join(ck_name)).unwrap());
    for (name, bytes) in &wals {
        crashed.install(&dir.join(name), bytes.clone());
    }

    // Rot the checkpoint: recovery must fall back to pure WAL replay and
    // land on the identical fingerprint.
    let mut rot = test_rng_for("recovery-fallback-rot");
    crashed.flip_bit(&dir.join(ck_name), &mut rot).expect("checkpoint is non-empty");
    let recovered = LogEngine::open(Arc::new(crashed.clone()), dir, small_roll()).unwrap();
    let (_, _, _, ck) = recovered.debug_shape();
    assert!(ck.is_none(), "rotten checkpoint must not be used");
    assert_eq!(recovered.snapshot(), model.snapshot());
}

/// Once compaction has pruned the old WALs, a rotten newest checkpoint is
/// unrecoverable — the engine must refuse to come up stale or empty.
#[test]
fn rotten_checkpoint_without_bridge_fails_loudly() {
    let dir = Path::new("/eng");
    let fs = FaultFs::new();
    let engine = LogEngine::open(Arc::new(fs.clone()), dir, small_roll()).unwrap();
    let model = ObjectStore::new();
    let mut rng = test_rng_for("recovery-nobridge");
    drive(&engine, &model, &mut rng, 200, None);
    engine.compact().unwrap();
    drop(engine);

    let listing = classify(&fs.list(dir).unwrap());
    let (_, ck_name) = listing.checkpoints.last().unwrap();
    let mut rot = test_rng_for("recovery-nobridge-rot");
    fs.flip_bit(&dir.join(ck_name), &mut rot).unwrap();

    let err = LogEngine::open(Arc::new(fs.clone()), dir, small_roll())
        .err()
        .expect("recovery over a pruned WAL and rotten checkpoint must fail");
    assert!(
        err.to_string().contains("corruption"),
        "expected a typed corruption error, got: {err}"
    );
}
