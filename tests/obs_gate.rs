//! Metrics-determinism gate: the same seeded chaos workload, run twice in
//! one process, must move the observability registry by byte-identical
//! deltas (for the deterministic subset — everything that is not wall-clock
//! time). This is what makes the metrics trustworthy for regression
//! comparison: a counter that drifts across identical runs is a bug in the
//! instrumentation, not signal.
//!
//! The two per-pass exports are also written to
//! `target/metrics-determinism-{a,b}.txt` so CI can `diff` them as an
//! independent check (and a human can eyeball what the registry carries).

use sharoes::cluster::{ClusterOpts, ClusterTransport};
use sharoes::fs::treegen::{generate, TreeSpec};
use sharoes::net::{
    CostMeter, FakeSleeper, FaultConfig, FaultInjector, FaultSchedule, NetError, RequestHandler,
    ResilientTransport, RetryPolicy, Transport,
};
use sharoes::prelude::*;
use sharoes::ssp::SspServer;
use std::sync::{Arc, Mutex};

mod common;

const NODE_NAMES: [&str; 3] = ["a", "b", "c"];

/// Both gates in this file mutate process-global observability state (the
/// trace buffer, its filter, the slow-op ring); running them concurrently
/// would let one pass's spans bleed into the other's export. Each test
/// holds this for its whole body.
static OBS_GATE: Mutex<()> = Mutex::new(());

struct World {
    servers: Vec<Arc<SspServer>>,
    db: Arc<UserDb>,
    pki: Arc<Pki>,
    ring: Keyring,
    pool: Arc<SigKeyPool>,
    config: ClientConfig,
    /// The migration cluster's own meter and cluster counts, by series name.
    migration_facts: Vec<(&'static str, u64)>,
}

/// A 3-node cluster link set: each node behind a seeded fault injector and
/// a resilient transport with production-shaped backoff virtualized through
/// a [`FakeSleeper`] (the backoff path runs; the suite never sleeps).
fn make_cluster(servers: &[Arc<SspServer>], rate: f64, fault_seed: u64) -> ClusterTransport {
    let opts = ClusterOpts { replication: 2, write_quorum: 1, ..ClusterOpts::default() };
    // One meter for the cluster and every link, so a client mounted on it
    // reads the whole deployment's traffic, retries and faults.
    let meter = CostMeter::new_shared();
    let mut cluster = ClusterTransport::with_meter(opts, Arc::clone(&meter));
    for (idx, server) in servers.iter().enumerate() {
        let schedule =
            FaultSchedule::shared(FaultConfig::at_rate(rate), fault_seed ^ (idx as u64) << 8);
        let meter = Arc::clone(&meter);
        let handler = Arc::clone(server) as Arc<dyn RequestHandler>;
        let connector = Box::new(move || -> Result<Box<dyn Transport>, NetError> {
            let inner = InMemoryTransport::with_meter(Arc::clone(&handler), Arc::clone(&meter));
            Ok(Box::new(FaultInjector::new(inner, Arc::clone(&schedule))))
        });
        let policy = RetryPolicy { max_attempts: 12, ..RetryPolicy::default() };
        let link = ResilientTransport::connect_with_sleeper(
            connector,
            policy,
            Box::new(FakeSleeper::new()),
        )
        .expect("connect");
        cluster.add_node(NODE_NAMES[idx], Box::new(link));
    }
    cluster
}

/// Builds a replicated deployment that is a pure function of `seed`.
fn deploy(seed: u64) -> World {
    let spec =
        TreeSpec { users: 2, dirs_per_user: 1, files_per_dir: 1, seed, ..Default::default() };
    let (local, _) = generate(&spec).expect("treegen");
    let mut rng = HmacDrbg::from_seed_u64(seed);
    let ring = Keyring::generate(local.users(), 512, &mut rng).unwrap();
    let config = ClientConfig::test_with(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let pool = Arc::new(SigKeyPool::new(config.crypto));
    let servers: Vec<Arc<SspServer>> =
        (0..NODE_NAMES.len()).map(|_| SspServer::new().into_shared()).collect();
    let mut cluster = make_cluster(&servers, 0.0, 0);
    Migrator { fs: &local, config: &config, ring: &ring, pool: &pool, downgrade_unsupported: true }
        .migrate(&mut cluster, &mut rng)
        .expect("migration");
    let migration_facts = cluster
        .meter()
        .sample()
        .series()
        .into_iter()
        .chain(cluster.stats_handle().sample().series())
        .collect();
    World {
        servers,
        db: Arc::new(local.users().clone()),
        pki: Arc::new(ring.public_directory()),
        ring,
        pool,
        config,
        migration_facts,
    }
}

/// The chaos workload behind the gate: create/write/chmod/unlink/read plus
/// a listing, all through the faulted cluster.
fn run_workload(client: &mut SharoesClient) {
    client.mount().expect("mount");
    client.mkdir("/home/user0/obs", Mode::from_octal(0o755)).expect("mkdir");
    for i in 0..4u32 {
        let path = format!("/home/user0/obs/f{i}");
        client.create(&path, Mode::from_octal(0o644)).expect("create");
        let body = format!("observed payload {i} ").repeat(12 + i as usize);
        client.write_file(&path, body.as_bytes()).expect("write");
    }
    client.chmod("/home/user0/obs/f0", Mode::from_octal(0o600)).expect("chmod");
    client.unlink("/home/user0/obs/f3").expect("unlink");
    for i in 0..3u32 {
        let path = format!("/home/user0/obs/f{i}");
        client.getattr(&path).expect("getattr");
        client.read(&path).expect("read");
    }
    client.readdir("/home/user0/obs").expect("readdir");
}

/// A deterministic log-engine workload: seeded mutations through the
/// crash-consistent engine, a compaction, and a recovery (reopen). Every
/// engine counter this moves — appends, fsyncs, compactions, replayed
/// records — must land in the deterministic export identically per pass.
fn run_engine_workload(seed: u64) {
    use sharoes::crypto::RandomSource;
    use sharoes::net::ObjectKey;
    use sharoes::ssp::{EngineConfig, FaultFs, LogEngine};

    let fs = FaultFs::new();
    let dir = std::path::Path::new("/obs-gate-engine");
    let config = EngineConfig { group_commit: 2, ..EngineConfig::default() };
    let engine = LogEngine::open(Arc::new(fs.clone()), dir, config).expect("engine open");
    let mut rng = HmacDrbg::from_seed_u64(seed ^ 0xE46);
    for i in 0..24u64 {
        let key = ObjectKey::data(i % 5, [(i % 3) as u8; 16], (i % 4) as u32);
        let mut value = vec![0u8; 48];
        rng.fill_bytes(&mut value);
        engine.put(key, value).expect("engine put");
        if i % 7 == 6 {
            engine.delete(&key).expect("engine delete");
        }
    }
    engine.compact().expect("engine compact");
    // A post-compaction tail so the reopen below has records to replay.
    for i in 0..4u64 {
        engine.put(ObjectKey::metadata(i, [7; 16]), vec![i as u8; 16]).expect("engine put");
    }
    engine.flush().expect("engine flush");
    drop(engine);
    // Reopen: recovery replays the WAL tail and moves the recovery counters.
    let engine = LogEngine::open(Arc::new(fs.clone()), dir, config).expect("engine reopen");
    engine.flush().expect("engine flush");
}

/// One full pass; returns the deterministic registry delta it caused,
/// with the migration's and the workload client's own facts merged in.
fn registry_delta_for_pass(seed: u64) -> String {
    let before = sharoes::obs::global().snapshot();
    let world = deploy(seed);
    let cluster = make_cluster(&world.servers, 0.10, seed ^ 0xFA17);
    let cluster_stats = cluster.stats_handle();
    let mut client = SharoesClient::with_rng(
        Box::new(cluster),
        world.config.clone(),
        Arc::clone(&world.db),
        Arc::clone(&world.pki),
        world.ring.identity(Uid(1000)).unwrap(),
        Arc::clone(&world.pool),
        HmacDrbg::from_seed_u64(seed ^ 0x5E55),
    );
    run_workload(&mut client);
    assert!(!client.is_degraded(), "workload completed, client must not be degraded");
    run_engine_workload(seed);
    let mut delta = sharoes::obs::global().snapshot().delta(&before);
    common::merge(&mut delta, &world.migration_facts);
    common::merge(&mut delta, &client.meter().sample().series());
    common::merge(&mut delta, &client.cache_stats().series());
    common::merge(&mut delta, &cluster_stats.sample().series());
    delta.deterministic_text()
}

#[test]
fn identical_seeded_runs_move_the_registry_identically() {
    let _gate = OBS_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let seed = sharoes_testkit::rng::test_seed();
    println!("obs gate seed: {seed:#x} (set SHAROES_TEST_SEED to replay)");
    let pass_a = registry_delta_for_pass(seed);
    let pass_b = registry_delta_for_pass(seed);

    // Keep both exports on disk for CI's independent diff (and for humans).
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/metrics-determinism-a.txt", &pass_a).expect("write pass a");
    std::fs::write("target/metrics-determinism-b.txt", &pass_b).expect("write pass b");

    // The gate itself: byte-identical deterministic deltas.
    assert_eq!(
        pass_a, pass_b,
        "deterministic metrics diverged between identical seeded runs — \
         a nondeterministic series leaked past the _ns exclusion rule \
         (diff target/metrics-determinism-{{a,b}}.txt)"
    );

    // And the delta must be substantive: the workload's instrumentation
    // crossed every layer (wire, resilience, ssp ops, cluster, cache).
    let get = |key: &str| -> u64 {
        pass_a
            .lines()
            .find(|l| l.starts_with(key) && l.as_bytes().get(key.len()) == Some(&b' '))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    assert!(get("net_round_trips_total") > 0, "wire layer silent:\n{pass_a}");
    assert!(get("net_faults_injected_total") > 0, "10% fault rate injected nothing");
    assert!(get("net_retries_total") > 0, "faults must force retries");
    assert!(get("net_backoff_sleeps_total") > 0, "real backoff policy must schedule sleeps");
    assert!(get("ssp_op_put_many_ns_count") > 0, "ssp op histograms silent:\n{pass_a}");
    assert!(get("ssp_op_get_ns_count") > 0, "ssp get histogram silent");
    assert!(get("core_cache_misses_total") > 0, "client cache counters silent");

    // The log-engine workload must move the durability counters, and the
    // wall-clock recovery histogram must export only its count.
    assert!(get("ssp_wal_appends") > 0, "engine append counter silent:\n{pass_a}");
    assert!(get("ssp_wal_fsyncs") > 0, "engine fsync counter silent");
    assert!(get("ssp_compactions") > 0, "engine compaction counter silent");
    assert!(get("ssp_recovery_replayed_records") > 0, "recovery replayed no records");
    assert!(get("ssp_recovery_ms_count") > 0, "recovery histogram count missing");
    assert!(
        !pass_a.contains("ssp_recovery_ms_sum") && !pass_a.contains("ssp_recovery_ms_bucket"),
        "wall-clock recovery series leaked into the deterministic export"
    );
}

/// One traced pass: same deployment and chaos workload as the metrics gate,
/// but with the span tracer on. Returns the deterministic rendering (wall
/// clock excluded) of every assembled trace tree.
fn trace_render_for_pass(seed: u64) -> String {
    let tracer = sharoes::obs::tracer();
    // Deploy and migrate untraced: those spans are setup noise, and keeping
    // the filter off means the phase is also fast.
    tracer.set_filter(sharoes::obs::Filter::off());
    let world = deploy(seed);
    let cluster = make_cluster(&world.servers, 0.10, seed ^ 0xFA17);
    let mut client = SharoesClient::with_rng(
        Box::new(cluster),
        world.config.clone(),
        Arc::clone(&world.db),
        Arc::clone(&world.pki),
        world.ring.identity(Uid(1000)).unwrap(),
        Arc::clone(&world.pool),
        HmacDrbg::from_seed_u64(seed ^ 0x5E55),
    );
    // Headroom so a whole pass fits without eviction (eviction order is
    // deterministic too, but a full buffer would silently truncate trees).
    tracer.set_capacity(65_536);
    tracer.set_filter(sharoes::obs::Filter::parse("debug"));
    let _ = tracer.take();
    sharoes::obs::clear_slow_ops();
    run_workload(&mut client);
    tracer.set_filter(sharoes::obs::Filter::off());
    let events: Vec<sharoes::obs::OwnedEvent> =
        tracer.take().iter().map(sharoes::obs::OwnedEvent::from).collect();
    tracer.set_capacity(4096);
    let trees = sharoes::obs::assemble(&events);
    sharoes::obs::tree::render(&trees, false)
}

#[test]
fn identical_seeded_runs_render_identical_trace_trees() {
    let _gate = OBS_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let seed = sharoes_testkit::rng::test_seed();
    println!("trace gate seed: {seed:#x} (set SHAROES_TEST_SEED to replay)");
    let pass_a = trace_render_for_pass(seed);
    let pass_b = trace_render_for_pass(seed);

    std::fs::create_dir_all("target").ok();
    std::fs::write("target/trace-determinism-a.txt", &pass_a).expect("write pass a");
    std::fs::write("target/trace-determinism-b.txt", &pass_b).expect("write pass b");

    assert_eq!(
        pass_a, pass_b,
        "trace trees diverged between identical seeded runs — a span id, \
         field, or tree shape is not a pure function of the workload \
         (diff target/trace-determinism-{{a,b}}.txt)"
    );

    // The trees must be substantive: a client-op root whose subtree spans
    // the cluster fan-out and the per-replica server work.
    assert!(
        pass_a.lines().any(|l| l.trim_start().starts_with("core.")),
        "no client-op root span in the assembled trees:\n{pass_a}"
    );
    let replicas_hit: std::collections::BTreeSet<&str> = pass_a
        .lines()
        .filter(|l| l.trim_start().starts_with("cluster.replica"))
        .filter_map(|l| l.split("node=").nth(1))
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();
    assert!(
        replicas_hit.len() >= 2,
        "expected spans on >=2 distinct replicas, saw {replicas_hit:?}:\n{pass_a}"
    );
    assert!(
        pass_a.contains("ssp.rpc"),
        "no adopted server-side rpc span — wire propagation broke:\n{pass_a}"
    );
    assert!(
        pass_a.lines().any(|l| l.contains("ssp.op") && l.contains("storage_ops=")),
        "ssp.op spans carry no storage phase attribution:\n{pass_a}"
    );
    assert!(
        pass_a.lines().any(|l| l.trim_start().starts_with("core.") && l.contains("crypto_ops=")),
        "client roots carry no rolled-up crypto phase attribution:\n{pass_a}"
    );
    assert!(
        pass_a.lines().any(|l| l.contains("net_ops=")),
        "no network phase attribution anywhere:\n{pass_a}"
    );
    assert!(!pass_a.contains("_ns="), "wall-clock fields leaked into the deterministic rendering");
}
