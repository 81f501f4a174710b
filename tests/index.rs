//! Authenticated-index gate (sixth pinned seed): verified O(log n) scans
//! through the full client stack over a faulted 3-node cluster, the
//! tampering oracle (a provider that drops, substitutes, or rewrites a
//! page must be caught by the client verifier with a typed error), and a
//! same-seed determinism export CI diffs independently.
//!
//! Everything is a pure function of the printed seed; replay with
//! `SHAROES_TEST_SEED=<seed> cargo test --test index`.

use sharoes::cluster::{ClusterOpts, ClusterTransport};
use sharoes::fs::treegen::{generate, TreeSpec};
use sharoes::net::{
    CostMeter, FakeSleeper, FaultConfig, FaultInjector, FaultSchedule, NetError, Request,
    RequestHandler, ResilientTransport, RetryPolicy, Transport,
};
use sharoes::net::{ObjectKey, Response};
use sharoes::prelude::*;
use sharoes::ssp::SspServer;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

mod common;

const NODE_NAMES: [&str; 3] = ["a", "b", "c"];

/// All tests here read process-global observability counters; hold this so
/// concurrent tests cannot bleed into each other's deltas.
static INDEX_GATE: Mutex<()> = Mutex::new(());

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
/// a resilient transport whose backoff is virtualized (never sleeps).
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

fn client_over(world: &World, transport: Box<dyn Transport>, session_seed: u64) -> SharoesClient {
    SharoesClient::with_rng(
        transport,
        world.config.clone(),
        Arc::clone(&world.db),
        Arc::clone(&world.pki),
        world.ring.identity(Uid(1000)).unwrap(),
        Arc::clone(&world.pool),
        HmacDrbg::from_seed_u64(session_seed),
    )
}

/// Every key stored anywhere in the cluster, straight off the node stores.
fn cluster_keyspace(world: &World) -> BTreeSet<ObjectKey> {
    let mut keys = BTreeSet::new();
    for server in &world.servers {
        let mut after: Option<ObjectKey> = None;
        loop {
            let (page, done) = server.store().scan_keys(after.as_ref(), 64);
            after = page.last().copied().or(after);
            keys.extend(page);
            if done {
                break;
            }
        }
    }
    keys
}

fn counter(name: &str) -> u64 {
    sharoes::obs::global().snapshot().get(name)
}

#[test]
fn verified_scans_hold_over_a_faulted_cluster_and_rotate_with_mutations() {
    let _gate = INDEX_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let seed = sharoes_testkit::rng::test_seed();
    println!("index gate seed: {seed:#x} (set SHAROES_TEST_SEED to replay)");

    let world = deploy(seed);
    let cluster = make_cluster(&world.servers, 0.10, seed ^ 0xFA17);
    let mut client = client_over(&world, Box::new(cluster), seed ^ 0x5E55);
    client.mount().expect("mount");

    // Honest verified listing under 10% link faults: every page must carry
    // a valid Merkle range proof, and the walked keys must be exactly the
    // union keyspace of the cluster.
    let keys = client.verified_scan_all(16).expect("verified scan over faulted links");
    assert!(!keys.is_empty(), "migrated deployment cannot have an empty keyspace");
    let walked: BTreeSet<ObjectKey> = keys.iter().copied().collect();
    assert_eq!(walked.len(), keys.len(), "verified walk repeated a key");
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "verified walk must be strictly ordered");
    assert_eq!(walked, cluster_keyspace(&world), "verified walk missed or invented keys");
    let pinned = client.pinned_root().expect("first verified scan pins a root");

    // A client mutation legitimately moves the root: the next verified
    // scan accepts the rotation and re-pins.
    client.create("/home/user0/indexed.txt", Mode::from_octal(0o644)).expect("create");
    let keys_after = client.verified_scan_all(16).expect("verified scan after mutation");
    assert!(keys_after.len() > keys.len(), "create must add objects to the verified keyspace");
    let repinned = client.pinned_root().expect("still pinned");
    assert_ne!(pinned, repinned, "root must rotate across an acknowledged mutation");
}

/// A man-in-the-middle provider: passes everything through except
/// `KeysProof` pages, which it rewrites per `mode`.
struct TamperingSsp {
    inner: Box<dyn Transport>,
    mode: TamperMode,
    fired: Arc<AtomicBool>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TamperMode {
    /// Silently omit the first key of the page (an unlinked file the
    /// provider hopes nobody misses).
    DropKey,
    /// Substitute the first key (serve a different object under the range).
    SubstituteKey,
    /// Flip one proof byte (forge the evidence itself).
    CorruptProof,
}

impl Transport for TamperingSsp {
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        let response = self.inner.call(request)?;
        if let Response::KeysProof { mut keys, done, root, mut proof } = response {
            if !keys.is_empty() {
                self.fired.store(true, Ordering::SeqCst);
                match self.mode {
                    TamperMode::DropKey => {
                        keys.remove(0);
                    }
                    TamperMode::SubstituteKey => {
                        keys[0].inode ^= 0x1DE1;
                    }
                    TamperMode::CorruptProof => {
                        proof[0] ^= 0x40;
                    }
                }
            }
            return Ok(Response::KeysProof { keys, done, root, proof });
        }
        Ok(response)
    }

    fn meter(&self) -> &Arc<CostMeter> {
        self.inner.meter()
    }
}

#[test]
fn tampered_scan_pages_are_detected_with_a_typed_error() {
    let _gate = INDEX_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let seed = sharoes_testkit::rng::test_seed();
    println!("tamper oracle seed: {seed:#x} (set SHAROES_TEST_SEED to replay)");
    let world = deploy(seed);

    // Honest control first: the same stack with no tampering verifies.
    let cluster = make_cluster(&world.servers, 0.0, 0);
    let mut honest = client_over(&world, Box::new(cluster), seed ^ 0x5E55);
    honest.mount().expect("mount");
    honest.verified_scan(None, 8).expect("honest page must verify");

    for mode in [TamperMode::DropKey, TamperMode::SubstituteKey, TamperMode::CorruptProof] {
        let fired = Arc::new(AtomicBool::new(false));
        let tampering = TamperingSsp {
            inner: Box::new(make_cluster(&world.servers, 0.0, 0)),
            mode,
            fired: Arc::clone(&fired),
        };
        let mut client = client_over(&world, Box::new(tampering), seed ^ 0x5E55);
        client.mount().expect("mount");
        let failures_before = counter("index_verify_failures_total");
        let err = client.verified_scan(None, 8).expect_err("tampered page must be rejected");
        assert!(fired.load(Ordering::SeqCst), "{mode:?}: tamper hook never fired");
        assert!(
            matches!(err, CoreError::ScanForged(_)),
            "{mode:?}: expected CoreError::ScanForged, got {err:?}"
        );
        assert!(
            counter("index_verify_failures_total") > failures_before,
            "{mode:?}: index_verify_failures_total did not move"
        );
        assert!(client.pinned_root().is_none(), "{mode:?}: a forged page must not pin a root");
    }

    // Rollback/fork half: pin a root, then mutate the stores out of band.
    // The moved root arrives with a valid proof but no local mutation
    // authorized it — the client must refuse to follow.
    let mut pinned =
        client_over(&world, Box::new(make_cluster(&world.servers, 0.0, 0)), seed ^ 0x77);
    pinned.mount().expect("mount");
    pinned.verified_scan(None, 8).expect("pin");
    for server in &world.servers {
        server.store().put(ObjectKey::data(0x0DD, [0xAB; 16], 0), vec![1, 2, 3]).unwrap();
    }
    let rejections_before = counter("core_scan_root_rejections_total");
    let err = pinned.verified_scan(None, 8).expect_err("unauthorized root move must be rejected");
    assert!(matches!(err, CoreError::ScanForged(_)), "expected ScanForged, got {err:?}");
    assert!(
        counter("core_scan_root_rejections_total") > rejections_before,
        "core_scan_root_rejections_total did not move"
    );
}

/// One full gate pass: mount over the faulted cluster, verified-walk the
/// keyspace, mutate, verified-walk again — returning the deterministic
/// registry delta (with the migration's and the client's own facts merged
/// in) and trace
/// rendering the pass produced.
fn gate_pass(seed: u64) -> (String, String) {
    let tracer = sharoes::obs::tracer();
    tracer.set_filter(sharoes::obs::Filter::off());
    let before = sharoes::obs::global().snapshot();
    let world = deploy(seed);
    let cluster = make_cluster(&world.servers, 0.10, seed ^ 0xFA17);
    let cluster_stats = cluster.stats_handle();
    let mut client = client_over(&world, Box::new(cluster), seed ^ 0x5E55);
    client.mount().expect("mount");

    tracer.set_capacity(65_536);
    tracer.set_filter(sharoes::obs::Filter::parse("debug"));
    let _ = tracer.take();
    sharoes::obs::clear_slow_ops();
    let keys = client.verified_scan_all(16).expect("verified walk");
    client.create("/home/user0/gate.txt", Mode::from_octal(0o644)).expect("create");
    client.write_file("/home/user0/gate.txt", b"authenticated").expect("write");
    let keys_after = client.verified_scan_all(16).expect("verified walk after mutation");
    assert!(keys_after.len() > keys.len());
    tracer.set_filter(sharoes::obs::Filter::off());
    let events: Vec<sharoes::obs::OwnedEvent> =
        tracer.take().iter().map(sharoes::obs::OwnedEvent::from).collect();
    tracer.set_capacity(4096);
    let trees = sharoes::obs::assemble(&events);
    let render = sharoes::obs::tree::render(&trees, false);
    let mut delta = sharoes::obs::global().snapshot().delta(&before);
    common::merge(&mut delta, &world.migration_facts);
    common::merge(&mut delta, &client.meter().sample().series());
    common::merge(&mut delta, &client.cache_stats().series());
    common::merge(&mut delta, &cluster_stats.sample().series());
    (delta.deterministic_text(), render)
}

#[test]
fn identical_seeded_passes_export_identical_registry_and_trace_deltas() {
    let _gate = INDEX_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let seed = sharoes_testkit::rng::test_seed();
    println!("index determinism seed: {seed:#x} (set SHAROES_TEST_SEED to replay)");
    let (reg_a, trace_a) = gate_pass(seed);
    let (reg_b, trace_b) = gate_pass(seed);

    // Keep the exports on disk for CI's independent diff.
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/index-registry-a.txt", &reg_a).expect("write registry a");
    std::fs::write("target/index-registry-b.txt", &reg_b).expect("write registry b");
    std::fs::write("target/index-trace-a.txt", &trace_a).expect("write trace a");
    std::fs::write("target/index-trace-b.txt", &trace_b).expect("write trace b");

    assert_eq!(
        reg_a, reg_b,
        "index registry deltas diverged between identical seeded runs \
         (diff target/index-registry-{{a,b}}.txt)"
    );
    assert_eq!(
        trace_a, trace_b,
        "index trace trees diverged between identical seeded runs \
         (diff target/index-trace-{{a,b}}.txt)"
    );

    // The delta must show the index machinery actually ran, end to end.
    let get = |key: &str| -> u64 {
        reg_a
            .lines()
            .find(|l| l.starts_with(key) && l.as_bytes().get(key.len()) == Some(&b' '))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    assert!(get("index_proofs_total") > 0, "no proofs generated:\n{reg_a}");
    assert!(get("index_verify_total") > 0, "client verified nothing");
    assert_eq!(get("index_verify_failures_total"), 0, "honest pass must not fail verification");
    assert!(get("cluster_index_union_rebuilds_total") > 0, "union index never built");
    assert!(get("cluster_index_nodes_fetched_total") > 0, "no index nodes fetched from replicas");
    assert!(get("net_faults_injected_total") > 0, "10% fault rate injected nothing");
    assert!(
        trace_a.lines().any(|l| l.trim_start().contains("core.verified_scan")),
        "no verified-scan span in the trace trees:\n{trace_a}"
    );
}
