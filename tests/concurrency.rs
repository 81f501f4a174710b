//! Concurrency gate (seventh pinned seed): the sharded SSP front end must
//! be *semantically invisible*. The same seeded op sequence is applied
//! three ways — sequentially against a single-lock `ObjectStore`
//! (`with_shards(1)`, the pre-sharding baseline), concurrently against the
//! default sharded store, and concurrently through the TCP front end, one
//! connection per worker — and every way must converge to
//! **byte-identical** snapshots and index roots. A fourth pass drives the
//! sharded `LogEngine` concurrently and holds it to the same snapshot
//! bytes.
//!
//! Determinism under concurrency comes from key partitioning: each worker
//! owns a disjoint slice of the keyspace (by inode residue), so the final
//! per-key state is a pure function of the seed regardless of thread
//! interleaving. The snapshot pairs are exported under `target/` for ci.sh
//! to diff independently of the in-test assertions (the throughput floor
//! itself is held by the `paper-figures concurrency` bench step).
//!
//! Everything is a pure function of the printed seed; replay with
//! `SHAROES_TEST_SEED=<seed> cargo test --test concurrency`.

use sharoes::crypto::{HmacDrbg, RandomSource};
use sharoes::net::{ObjectKey, Request, Response, TcpTransport, Transport};
use sharoes::ssp::{
    serve_with, EngineConfig, FaultFs, LogEngine, ObjectStore, ServeOptions, SspServer,
};
use std::path::Path;
use std::sync::Arc;

const WORKERS: usize = 8;
const OPS: usize = 2_000;

/// One step of the seeded workload. `None` value means delete.
#[derive(Clone)]
struct Op {
    key: ObjectKey,
    value: Option<Vec<u8>>,
}

/// The pinned-seed op sequence: puts and deletes over a keyspace small
/// enough that keys are rewritten and deleted many times (contended
/// per-key history), spread across every shard of the default shard map.
fn workload(seed: u64) -> Vec<Op> {
    let mut rng = HmacDrbg::from_seed_u64(seed ^ 0x5CA1_AB1E);
    let mut ops = Vec::with_capacity(OPS);
    for i in 0..OPS {
        let inode = rng.next_u64() % 256;
        let block = (rng.next_u64() % 4) as u32;
        let view = [(inode % 251) as u8; 16];
        let key = ObjectKey::data(inode, view, block);
        // ~1 in 5 ops is a delete; values encode (op index, inode) so a
        // cross-matched or stale write shows up as a byte diff.
        let value = if rng.next_u64().is_multiple_of(5) {
            None
        } else {
            let len = 16 + (rng.next_u64() % 48) as usize;
            let mut v = vec![(i % 251) as u8; len];
            v[..8].copy_from_slice(&inode.to_be_bytes());
            Some(v)
        };
        ops.push(Op { key, value });
    }
    ops
}

/// The partition a key belongs to: workers own disjoint inode residues, so
/// concurrent execution has a deterministic final state.
fn owner(key: &ObjectKey) -> usize {
    (key.inode % WORKERS as u64) as usize
}

/// Applies the full sequence in order against one store.
fn apply_sequential(store: &ObjectStore, ops: &[Op]) {
    ops.iter().for_each(|op| apply(store, op));
}

/// Applies one op.
fn apply(store: &ObjectStore, op: &Op) {
    match &op.value {
        Some(v) => store.put(op.key, v.clone()).expect("put"),
        None => {
            store.delete(&op.key).expect("delete");
        }
    }
}

/// Applies the sequence with `WORKERS` threads, each owning its partition.
fn apply_concurrent(store: &ObjectStore, ops: &[Op]) {
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let ops = &ops;
            scope.spawn(move || {
                for op in ops.iter().filter(|op| owner(&op.key) == w) {
                    apply(store, op);
                }
            });
        }
    });
}

#[test]
fn sharded_store_matches_single_lock_baseline_byte_for_byte() {
    let seed = sharoes_testkit::rng::test_seed();
    println!("concurrency gate seed: {seed:#x} (set SHAROES_TEST_SEED to replay)");
    let ops = workload(seed);

    let baseline = ObjectStore::with_shards(1);
    apply_sequential(&baseline, &ops);

    let sharded = ObjectStore::new();
    apply_concurrent(&sharded, &ops);

    let snap_a = baseline.snapshot();
    let snap_b = sharded.snapshot();

    // Keep the exports on disk for CI's independent diff.
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/concurrency-store-a.bin", &snap_a).expect("write snapshot a");
    std::fs::write("target/concurrency-store-b.bin", &snap_b).expect("write snapshot b");

    assert_eq!(baseline.object_count(), sharded.object_count());
    assert_eq!(baseline.byte_count(), sharded.byte_count());
    assert_eq!(
        baseline.index_root(),
        sharded.index_root(),
        "authenticated index roots diverged between single-lock and sharded stores"
    );
    assert_eq!(
        snap_a, snap_b,
        "sharded store snapshot diverged from the single-lock baseline \
         (diff target/concurrency-store-{{a,b}}.bin)"
    );
}

#[test]
fn sharded_engine_matches_single_lock_store_baseline() {
    let seed = sharoes_testkit::rng::test_seed();
    println!("engine concurrency seed: {seed:#x} (set SHAROES_TEST_SEED to replay)");
    let ops = workload(seed);

    let baseline = ObjectStore::with_shards(1);
    apply_sequential(&baseline, &ops);

    // Small roll size + compaction on, so the concurrent run exercises WAL
    // rolls and shard-merging compaction, not just the in-memory maps.
    let config = EngineConfig { roll_bytes: 16 * 1024, group_commit: 4, ..Default::default() };
    let engine =
        LogEngine::open(Arc::new(FaultFs::new()), Path::new("/gate"), config).expect("open engine");
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let ops = &ops;
            let engine = &engine;
            scope.spawn(move || {
                for op in ops.iter().filter(|op| owner(&op.key) == w) {
                    apply(engine, op);
                }
            });
        }
    });

    let snap_a = baseline.snapshot();
    let snap_b = engine.snapshot();
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/concurrency-engine-a.bin", &snap_a).expect("write snapshot a");
    std::fs::write("target/concurrency-engine-b.bin", &snap_b).expect("write snapshot b");

    assert_eq!(baseline.object_count(), engine.object_count());
    assert_eq!(
        baseline.index_root(),
        engine.index_root(),
        "engine index root diverged from the single-lock store baseline"
    );
    assert_eq!(
        snap_a, snap_b,
        "concurrent sharded engine snapshot diverged from the single-lock baseline \
         (diff target/concurrency-engine-{{a,b}}.bin)"
    );
}

#[test]
fn tcp_drive_converges_to_the_sequential_baseline() {
    let seed = sharoes_testkit::rng::test_seed();
    println!("tcp concurrency seed: {seed:#x} (set SHAROES_TEST_SEED to replay)");
    let ops = workload(seed);

    let baseline = ObjectStore::with_shards(1);
    apply_sequential(&baseline, &ops);

    let server = SspServer::new().into_shared();
    let store = Arc::clone(server.store());
    let handle = serve_with(server, "127.0.0.1:0", ServeOptions::default()).expect("bind sspd");
    let addr = handle.addr().to_string();

    // Each worker owns its connection; sspd serves them all at once.
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let ops = &ops;
            let mut client = TcpTransport::connect(&addr).expect("connect");
            scope.spawn(move || {
                let mut last: std::collections::BTreeMap<ObjectKey, Option<Vec<u8>>> =
                    Default::default();
                for op in ops.iter().filter(|op| owner(&op.key) == w) {
                    let request = match &op.value {
                        Some(v) => Request::Put { key: op.key, value: v.clone() },
                        None => Request::Delete { key: op.key },
                    };
                    match client.call(&request).expect("tcp call") {
                        Response::Ok => {}
                        other => panic!("unexpected mutation reply: {other:?}"),
                    }
                    last.insert(op.key, op.value.clone());
                }
                // Read back every key this worker owns: another worker's
                // bytes here would mean its writes landed on this key.
                for (key, expected) in &last {
                    match client.call(&Request::Get { key: *key }).expect("tcp get") {
                        Response::Object(got) => {
                            assert_eq!(&got, expected, "stale or crossed read for {key:?}");
                        }
                        other => panic!("unexpected get reply: {other:?}"),
                    }
                }
            });
        }
    });

    let snap_a = baseline.snapshot();
    let snap_b = store.snapshot();
    handle.shutdown();
    assert_eq!(
        snap_a, snap_b,
        "concurrent TCP drive diverged from the sequential single-lock baseline"
    );
}
