//! Chaos suite: the full client stack driven over deterministic
//! fault-injecting connections, plus SSP crash/restart recovery and client
//! degraded mode.
//!
//! Everything here is replayable: the fault schedule, the client session,
//! and the deployment are pure functions of the printed seed. Rerun a
//! failure with `SHAROES_TEST_SEED=<seed> cargo test --test chaos`.
//! `SHAROES_CHAOS_RATE=<0.0..1.0>` adds an extra fault rate to the sweep.

use sharoes::fs::treegen::{generate, TreeSpec};
use sharoes::net::{
    fault, CostMeter, FakeSleeper, FaultConfig, FaultCounts, FaultSchedule, ObjectKey, RetryPolicy,
    WallClockSleeper, WireRead, WireWrite,
};
use sharoes::prelude::*;
use sharoes::ssp::segment::classify;
use sharoes::ssp::{
    CrashMode, EngineConfig, FaultFs, ObjectStore, SspServer, TcpServerHandle, Vfs,
};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn test_config() -> ClientConfig {
    ClientConfig::test_with(CryptoPolicy::Sharoes, Scheme::SharedCaps)
}

struct World {
    server: Arc<SspServer>,
    deployment: Deployment,
}

impl World {
    /// An unmounted client for `uid` over `transport`, drawing from `seed`.
    fn client(&self, uid: Uid, transport: impl Transport + 'static, seed: u64) -> SharoesClient {
        let rng = HmacDrbg::from_seed_u64(seed);
        self.deployment.client_with_rng(uid, Box::new(transport), rng).unwrap()
    }
}

/// Builds a deployment that is a pure function of `seed`.
fn deploy(seed: u64) -> World {
    deploy_on(seed, SspServer::new().into_shared())
}

/// Where the journalled deployments keep their WAL directory.
const WAL_DIR: &str = "/sspd.wal";

/// A deployment whose SSP journals to a fault-injecting filesystem, the
/// way `sharoes-sspd --wal` journals to disk.
fn deploy_journalled(seed: u64) -> (World, FaultFs) {
    let fs = FaultFs::new();
    let store =
        ObjectStore::open(Arc::new(fs.clone()), Path::new(WAL_DIR), EngineConfig::default())
            .expect("open journal");
    (deploy_on(seed, SspServer::with_store(Arc::new(store)).into_shared()), fs)
}

/// Recovers an SSP from the disk image `fs` alone, as a restarted sspd
/// does, and returns it with the checkpoint recovery started from.
fn recover(fs: FaultFs) -> (Arc<SspServer>, Option<u64>) {
    let store = ObjectStore::open(Arc::new(fs), Path::new(WAL_DIR), EngineConfig::default())
        .expect("recovery");
    let checkpoint = store.debug_shape().3;
    (SspServer::with_store(Arc::new(store)).into_shared(), checkpoint)
}

/// Serves `server` over TCP and mounts a fresh client on it.
fn mount_over_tcp(world: &World, server: Arc<SspServer>) -> (TcpServerHandle, SharoesClient) {
    let handle = sharoes::ssp::serve(server, "127.0.0.1:0").unwrap();
    let transport = TcpTransport::connect(&handle.addr().to_string()).unwrap();
    let mut client = world.client(Uid(1000), transport, 77);
    client.mount().expect("mount against recovered store");
    (handle, client)
}

/// Builds a deployment on `server` that is a pure function of `seed`.
fn deploy_on(seed: u64, server: Arc<SspServer>) -> World {
    let spec =
        TreeSpec { users: 2, dirs_per_user: 1, files_per_dir: 1, seed, ..Default::default() };
    let (local, _) = generate(&spec).expect("treegen");
    let mut rng = HmacDrbg::from_seed_u64(seed);
    let deployment = Deployment::new(local.users(), test_config(), &mut rng).unwrap();
    let mut transport = InMemoryTransport::new(Arc::clone(&server) as _);
    deployment.migrate(&local, &mut transport, &mut rng).expect("migration");
    World { server, deployment }
}

/// The store's contents as (key, value) pairs sorted by wire-encoded key
/// (shard hashing randomizes the raw snapshot order, not the entries).
fn sorted_entries(server: &SspServer) -> Vec<(Vec<u8>, Vec<u8>)> {
    let snap = server.store().snapshot();
    let mut cur = sharoes::net::Cursor::new(&snap[8..]);
    let count = u64::read(&mut cur).expect("snapshot count");
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let key = ObjectKey::read(&mut cur).expect("snapshot key");
        let value = Vec::<u8>::read(&mut cur).expect("snapshot value");
        entries.push((key.to_wire(), value));
    }
    entries.sort();
    entries
}

/// A client whose every SSP call crosses seeded fault-injecting connections
/// beneath a retrying, re-dialling `TcpTransport` — the production failure
/// path.
fn chaos_client(
    world: &World,
    faults: FaultConfig,
    fault_seed: u64,
    session_seed: u64,
) -> (SharoesClient, Arc<Mutex<FaultSchedule>>) {
    let schedule = FaultSchedule::shared(faults, fault_seed);
    let meter = CostMeter::new_shared();
    let connector =
        fault::connector(Arc::clone(&world.server) as _, Arc::clone(&schedule), Arc::clone(&meter));
    // 12 attempts: at a 20% fault rate a call fails only with probability
    // 0.2^12 ≈ 4e-9, and the seeded schedule pins the exact outcome anyway.
    // Production-shaped exponential backoff runs against a FakeSleeper, so
    // the retry/backoff/jitter path is fully exercised without the suite
    // ever sleeping for real. Every reply is queued while its request is
    // written, so the short call timeout is only ever waited out by a lost
    // request or reply.
    let policy = RetryPolicy { max_attempts: 12, ..RetryPolicy::default() };
    let transport = TcpTransport::with_connector(
        connector,
        Duration::from_millis(5),
        policy,
        Box::new(FakeSleeper::new()),
        meter,
    )
    .expect("connect");
    let client = world.client(Uid(1000), transport, session_seed);
    (client, schedule)
}

/// A representative create/write/overwrite/read/chmod/unlink workload.
/// Returns every byte read back, for cross-rate comparison.
fn run_workload(client: &mut SharoesClient) -> Vec<Vec<u8>> {
    client.mount().expect("mount");
    client.mkdir("/home/user0/chaos", Mode::from_octal(0o755)).expect("mkdir");
    for i in 0..5u32 {
        let path = format!("/home/user0/chaos/f{i}");
        client.create(&path, Mode::from_octal(0o644)).expect("create");
        let body = format!("chaos payload {i} ").repeat(20 + i as usize);
        client.write_file(&path, body.as_bytes()).expect("write");
    }
    // Overwrites that grow each file to two blocks and shrink it back to
    // one, so shrinking closes run under faults too. The rounds also keep
    // the workload above 130 requests, so a 5 % schedule injects no fault
    // at only ~0.1 % of seeds (0.95^130).
    for round in 0..10u32 {
        for i in 0..5u32 {
            let path = format!("/home/user0/chaos/f{i}");
            let repeats = if (round + i) % 2 == 0 { 300 } else { 2 };
            let body = format!("chaos round {round} {i} ").repeat(repeats);
            client.write_file(&path, body.as_bytes()).expect("overwrite");
        }
    }
    client.chmod("/home/user0/chaos/f0", Mode::from_octal(0o600)).expect("chmod");
    client.unlink("/home/user0/chaos/f4").expect("unlink");
    let mut reads = Vec::new();
    for i in 0..4u32 {
        let path = format!("/home/user0/chaos/f{i}");
        client.getattr(&path).expect("getattr");
        reads.push(client.read(&path).expect("read"));
    }
    let mut listing: Vec<String> =
        client.readdir("/home/user0/chaos").expect("readdir").into_iter().map(|e| e.name).collect();
    listing.sort();
    reads.push(listing.join(",").into_bytes());
    reads
}

/// What one chaos run yields: read-backs, final store entries, fault
/// tallies.
type RunOutcome = (Vec<Vec<u8>>, Vec<(Vec<u8>, Vec<u8>)>, FaultCounts);

/// One full chaos run under `faults`.
fn run_with(seed: u64, faults: FaultConfig) -> RunOutcome {
    let world = deploy(seed);
    let (mut client, schedule) = chaos_client(&world, faults, seed ^ 0xFA17, seed ^ 0x5E55);
    let reads = run_workload(&mut client);
    assert!(!client.is_degraded(), "workload completed, client must not be degraded");
    let counts = schedule.lock().unwrap().counts();
    (reads, sorted_entries(&world.server), counts)
}

#[test]
fn chaos_workloads_complete_identically_across_fault_rates() {
    let seed = sharoes_testkit::rng::test_seed();
    println!("chaos seed: {seed:#x} (set SHAROES_TEST_SEED to replay)");
    let mut runs: Vec<(String, FaultConfig)> =
        [0.05, 0.20].map(|rate| (format!("rate {rate}"), FaultConfig::at_rate(rate))).into();
    if let Some(extra) = std::env::var("SHAROES_CHAOS_RATE").ok().and_then(|v| v.parse().ok()) {
        runs.push((format!("rate {extra}"), FaultConfig::at_rate(extra)));
    }
    // Every fault a disconnect, so the re-dial path runs at any seed.
    let mut disconnects = FaultConfig::at_rate(0.20);
    disconnects.weights = [0, 0, 1, 0, 0, 0, 0];
    runs.push(("disconnects at rate 0.2".into(), disconnects));
    let (baseline_reads, baseline_entries, _) = run_with(seed, FaultConfig::at_rate(0.0));
    assert!(!baseline_entries.is_empty());
    for (name, faults) in runs {
        let (reads, entries, counts) = run_with(seed, faults);
        println!("{name}: {} faults injected ({counts:?})", counts.total());
        assert!(counts.total() > 0, "{name} injected nothing — schedule broken");
        assert_eq!(reads, baseline_reads, "read-backs diverged at {name}");
        assert_eq!(
            entries, baseline_entries,
            "final SSP state diverged from the fault-free run at {name}"
        );
    }
}

#[test]
fn chaos_schedule_is_replayable_from_seed() {
    let seed = sharoes_testkit::rng::test_seed();
    let (reads_a, entries_a, counts_a) = run_with(seed, FaultConfig::at_rate(0.20));
    let (reads_b, entries_b, counts_b) = run_with(seed, FaultConfig::at_rate(0.20));
    assert_eq!(counts_a, counts_b, "same seed must inject the same faults");
    assert_eq!(reads_a, reads_b);
    assert_eq!(entries_a, entries_b);
}

#[test]
fn sspd_restart_recovers_checkpointed_objects() {
    // Populate, checkpoint (what sspd's compaction does), then leave a WAL
    // tail past the checkpoint.
    let (world, fs) = deploy_journalled(0xC4A5_0001);
    let (mut client, _) = chaos_client(&world, FaultConfig::at_rate(0.0), 1, 2);
    let reads = run_workload(&mut client);
    world.server.store().compact().unwrap();
    let tail = b"written after the checkpoint";
    client.write_file("/home/user0/chaos/f1", tail).expect("tail write");
    let entries_before = sorted_entries(&world.server);
    drop(client);

    // "Kill" the SSP process — only what reached the disk survives — and
    // restart it: checkpoint + WAL tail, served over TCP, remounted.
    let image = fs.crash_image(CrashMode::LoseUnsynced, &mut HmacDrbg::from_seed_u64(1));
    let (server, checkpoint) = recover(image);
    assert!(checkpoint.is_some(), "recovery must start from the checkpoint");
    assert_eq!(sorted_entries(&server), entries_before, "recovery must be lossless");
    let (handle, mut client) = mount_over_tcp(&world, server);
    assert_eq!(client.read("/home/user0/chaos/f1").expect("read after restart"), tail);
    assert_eq!(client.read("/home/user0/chaos/f2").expect("read after restart"), reads[2]);
    handle.shutdown();
}

#[test]
fn torn_checkpoint_falls_back_to_previous_generation() {
    let dir = Path::new(WAL_DIR);
    let (world, fs) = deploy_journalled(0xC4A5_0002);
    world.server.store().compact().unwrap(); // generation 1: the migrated tree
    let (_, _, _, gen1) = world.server.store().debug_shape();

    // More data, then generation 2. In the crash window between that
    // checkpoint's rename and the old WAL deletions reaching disk, the WAL
    // chain it prunes still bridges generation 1 to it: keep a copy.
    let (mut client, _) = chaos_client(&world, FaultConfig::at_rate(0.0), 1, 3);
    let reads = run_workload(&mut client);
    let expected = sorted_entries(&world.server);
    let bridge: Vec<(String, Vec<u8>)> = classify(&fs.list(dir).unwrap())
        .wals
        .into_iter()
        .map(|(_, name)| (name.clone(), fs.read(&dir.join(&name)).unwrap()))
        .collect();
    world.server.store().compact().unwrap();
    let listing = classify(&fs.list(dir).unwrap());
    assert_eq!(listing.checkpoints.len(), 2, "one fallback generation is kept");
    let (_, newest) = listing.checkpoints.last().unwrap();
    let full = fs.read(&dir.join(newest)).unwrap();

    // Tear the newest checkpoint (a kill mid-write), or rot one byte of it.
    let mut flipped = full.clone();
    flipped[full.len() / 3] ^= 0x10;
    for damaged in [full[..full.len() / 2].to_vec(), flipped] {
        let image = |with_bridge: bool| {
            let image = fs.crash_image(CrashMode::LoseUnsynced, &mut HmacDrbg::from_seed_u64(2));
            if with_bridge {
                for (name, bytes) in &bridge {
                    image.install(&dir.join(name), bytes.clone());
                }
            }
            image.install(&dir.join(newest), damaged.clone());
            image
        };
        // The fallback generation plus the WAL bridge serves exactly the
        // same bytes, through the full client stack too.
        let (server, checkpoint) = recover(image(true));
        assert_eq!(checkpoint, gen1, "recovery must fall back to generation 1");
        assert_eq!(sorted_entries(&server), expected, "fallback + bridge must be lossless");
        let (handle, mut client) = mount_over_tcp(&world, server);
        assert_eq!(client.read("/home/user0/chaos/f1").expect("read after fallback"), reads[1]);
        handle.shutdown();

        // Without the bridge, generation 1 alone is stale: recovery fails
        // loudly instead of serving it.
        let err = ObjectStore::open(Arc::new(image(false)), dir, EngineConfig::default())
            .err()
            .expect("a damaged newest checkpoint with a pruned WAL must not recover");
        assert!(err.to_string().contains("corruption"), "expected corruption, got: {err}");
    }
}

/// A `TcpTransport` to `addr` with a 500 ms call timeout and one retry.
fn dial_with_one_retry(addr: &str) -> TcpTransport {
    let timeout = Duration::from_millis(500);
    TcpTransport::with_connector(
        TcpTransport::dialer(addr, timeout),
        timeout,
        RetryPolicy::fast(2),
        Box::new(WallClockSleeper),
        CostMeter::new_shared(),
    )
    .expect("dial")
}

#[test]
fn ssp_outage_degrades_to_cached_reads_without_panicking() {
    // Serve over real TCP with a short server-side read timeout so that
    // stopping the listener actually severs the client's connection (idle
    // connection threads die instead of pinning the shared store).
    let world = deploy(0xC4A5_0003);
    let options =
        ServeOptions { read_timeout: Some(Duration::from_millis(100)), ..ServeOptions::default() };
    let handle =
        sharoes::ssp::serve_with(Arc::clone(&world.server), "127.0.0.1:0", options).expect("serve");
    let transport = dial_with_one_retry(&handle.addr().to_string());
    let mut client = world.client(Uid(1000), transport, 11);
    client.mount().expect("mount");
    // Warm the cache on one file, leave another cold.
    let warm = "/home/user0/proj0/file0.dat";
    let warm_bytes = client.read(warm).expect("warm read");
    client.getattr(warm).expect("warm getattr");
    assert!(!client.is_degraded());

    // Take the SSP down and wait out the server-side idle timeout so the
    // established connection is truly gone.
    handle.shutdown();
    std::thread::sleep(Duration::from_millis(300));

    // Uncached operations fail with the typed outage error — no panic.
    let err = client.create("/home/user0/proj0/new.txt", Mode::from_octal(0o644)).unwrap_err();
    assert!(matches!(err, CoreError::SspUnavailable(_)), "expected SspUnavailable, got: {err}");
    assert!(client.is_degraded(), "outage must flip the degraded flag");

    // Cache-resident reads keep working in degraded mode.
    assert_eq!(client.read(warm).expect("degraded cached read"), warm_bytes);
    client.getattr(warm).expect("degraded cached getattr");
    assert!(client.is_degraded(), "cached reads must not clear degradation");

    // Writes against the dead SSP stay typed errors too.
    let err = client.write_file(warm, b"no ssp").unwrap_err();
    assert!(matches!(err, CoreError::SspUnavailable(_)), "write should fail typed: {err}");
}

#[test]
fn degraded_client_fails_revocation_cleanly_without_dropping_the_acl() {
    // Regression: a chmod/set_acl attempted during an SSP outage must come
    // back as a typed `SspUnavailable` error AND leave the access state
    // exactly as it was — not "succeed" locally while the SSP never hears
    // about it (a silently dropped revocation is an access-control hole).
    let world = deploy(0xC4A5_0004);
    let options =
        ServeOptions { read_timeout: Some(Duration::from_millis(100)), ..ServeOptions::default() };
    let handle =
        sharoes::ssp::serve_with(Arc::clone(&world.server), "127.0.0.1:0", options).expect("serve");
    let transport = dial_with_one_retry(&handle.addr().to_string());
    let owner = Uid(1000);
    let grantee = Uid(1001);
    let mut client = world.client(owner, transport, 12);
    client.mount().expect("mount");

    // Open the path for traversal so the ACL grant below is reachable,
    // then create the shared file whose access we will try (and fail) to
    // revoke.
    client.chmod("/home/user0", Mode::from_octal(0o711)).expect("open home");
    client.chmod("/home/user0/proj0", Mode::from_octal(0o711)).expect("open proj");
    let path = "/home/user0/proj0/shared.dat";
    let mode_before = Mode::from_octal(0o644);
    client.create(path, mode_before).expect("create");
    client.write_file(path, b"pre-outage secret").expect("write");
    let mut acl = Acl::empty();
    acl.set_user(grantee, Perm::R);
    client.set_acl(path, acl).expect("grant");
    client.getattr(path).expect("warm attr cache");
    client.read(path).expect("warm data cache");
    assert!(!client.is_degraded());

    handle.shutdown();
    std::thread::sleep(Duration::from_millis(300));

    // The revocation pair fails typed — chmod and the ACL edit alike.
    let err = client.chmod(path, Mode::from_octal(0o600)).unwrap_err();
    assert!(matches!(err, CoreError::SspUnavailable(_)), "chmod must fail typed: {err}");
    let err = client.set_acl(path, Acl::empty()).unwrap_err();
    assert!(matches!(err, CoreError::SspUnavailable(_)), "set_acl must fail typed: {err}");
    assert!(client.is_degraded(), "failed revocation must flip the degraded flag");

    // Cache-hit reads still serve, and the cached view never pretends the
    // failed revocation happened.
    let stat = client.getattr(path).expect("degraded cached getattr");
    assert_eq!(stat.mode, mode_before, "failed chmod leaked into the cached attrs");
    assert_eq!(client.read(path).expect("degraded cached read"), b"pre-outage secret");

    // Ground truth on the (shared, in-process) store once connectivity is
    // back: mode unchanged, and the grantee's ACL entry still grants — the
    // revocation neither half-applied nor silently dropped the ACL.
    let mut fresh = world.client(owner, InMemoryTransport::new(Arc::clone(&world.server) as _), 13);
    fresh.mount().expect("remount");
    let stat = fresh.getattr(path).expect("post-outage getattr");
    assert_eq!(stat.mode, mode_before, "failed chmod reached the SSP after all");
    let mut reader =
        world.client(grantee, InMemoryTransport::new(Arc::clone(&world.server) as _), 14);
    reader.mount().expect("grantee mount");
    assert_eq!(reader.read(path).expect("grantee read (ACL must be intact)"), b"pre-outage secret");
}
