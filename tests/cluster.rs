//! Cluster chaos suite: the full client stack mounted through a
//! `ClusterTransport` over N=3 SSP nodes at R=2, with seeded
//! fault-injecting connections on every node link and one node killed
//! permanently mid-workload.
//!
//! The workload must complete byte-identically to the fault-free run, and
//! after retiring the dead node and rebalancing, the replica audit must
//! show every live key on R replicas. Everything is a pure function of the
//! printed seed; replay with `SHAROES_TEST_SEED=<seed> cargo test --test
//! cluster`.

use sharoes::cluster::{ClusterOpts, ClusterTransport};
use sharoes::fs::treegen::{generate, TreeSpec};
use sharoes::net::{
    fault, Connector, CostMeter, FaultConfig, FaultCounts, FaultSchedule, FrameSink, NetError,
    RetryPolicy, WallClockSleeper,
};
use sharoes::prelude::*;
use sharoes::ssp::SspServer;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const NODE_NAMES: [&str; 3] = ["a", "b", "c"];

/// A connection's write half that takes `calls_left` request frames and
/// then fails every write forever — a node crash. The budget is shared by
/// every connection to the node, so a re-dial cannot revive it either.
struct KillSwitch {
    inner: Box<dyn FrameSink>,
    calls_left: Arc<AtomicI64>,
}

impl FrameSink for KillSwitch {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if self.calls_left.fetch_sub(1, Ordering::SeqCst) <= 0 {
            return Err(NetError::Closed);
        }
        self.inner.send(frame)
    }
}

/// `connector` with every connection it dials behind one shared
/// [`KillSwitch`] budget.
fn killable(connector: Connector, calls_left: Arc<AtomicI64>) -> Connector {
    Box::new(move || {
        let (inner, source) = connector()?;
        let calls_left = Arc::clone(&calls_left);
        Ok((Box::new(KillSwitch { inner, calls_left }) as Box<dyn FrameSink>, source))
    })
}

struct World {
    servers: Vec<Arc<SspServer>>,
    deployment: Deployment,
}

fn cluster_opts() -> ClusterOpts {
    // W=1: a write succeeds on one ack, so losing one of three nodes never
    // blocks the workload; read repair + rebalance restore full replication.
    ClusterOpts { replication: 2, write_quorum: 1, ..ClusterOpts::default() }
}

/// Per-node observability handles a [`make_cluster`] call hands back.
type NodeHandles = (ClusterTransport, Vec<Arc<Mutex<FaultSchedule>>>, Vec<Arc<CostMeter>>);

/// A cluster transport over `servers`. Each node link runs over seeded
/// fault-injecting connections (per-node fault seed) with retries, and the
/// node at `kill` carries a shared call budget after which it is dead.
fn make_cluster(
    servers: &[Arc<SspServer>],
    rate: f64,
    fault_seed: u64,
    kill: Option<(usize, Arc<AtomicI64>)>,
) -> NodeHandles {
    let mut cluster = ClusterTransport::new(cluster_opts());
    let mut schedules = Vec::new();
    let mut meters = Vec::new();
    for (idx, server) in servers.iter().enumerate() {
        let schedule =
            FaultSchedule::shared(FaultConfig::at_rate(rate), fault_seed ^ (idx as u64) << 8);
        let meter = CostMeter::new_shared();
        let mut connector =
            fault::connector(Arc::clone(server) as _, Arc::clone(&schedule), Arc::clone(&meter));
        if let Some((_, fuse)) = kill.as_ref().filter(|(k, _)| *k == idx) {
            connector = killable(connector, Arc::clone(fuse));
        }
        let link = TcpTransport::with_connector(
            connector,
            Duration::from_millis(5),
            RetryPolicy::fast(12),
            Box::new(WallClockSleeper),
            Arc::clone(&meter),
        )
        .expect("connect");
        cluster.add_node(NODE_NAMES[idx], Box::new(link));
        schedules.push(schedule);
        meters.push(meter);
    }
    (cluster, schedules, meters)
}

/// Builds a 3-node deployment that is a pure function of `seed`: the local
/// tree is migrated through the cluster transport itself, so objects land
/// placed and replicated from the start.
fn deploy(seed: u64) -> World {
    let spec =
        TreeSpec { users: 2, dirs_per_user: 1, files_per_dir: 1, seed, ..Default::default() };
    let (local, _) = generate(&spec).expect("treegen");
    let mut rng = HmacDrbg::from_seed_u64(seed);
    let config = ClientConfig::test_with(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let deployment = Deployment::new(local.users(), config, &mut rng).unwrap();
    let servers: Vec<Arc<SspServer>> =
        (0..NODE_NAMES.len()).map(|_| SspServer::new().into_shared()).collect();
    let (mut cluster, _, _) = make_cluster(&servers, 0.0, 0, None);
    deployment.migrate(&local, &mut cluster, &mut rng).expect("migration");
    World { servers, deployment }
}

fn client_over(world: &World, cluster: ClusterTransport, session_seed: u64) -> SharoesClient {
    world
        .deployment
        .client_with_rng(Uid(1000), Box::new(cluster), HmacDrbg::from_seed_u64(session_seed))
        .unwrap()
}

/// The chaos workload: create/write/chmod/unlink/read across several files.
/// Returns every byte read back, for cross-run comparison.
fn run_workload(client: &mut SharoesClient) -> Vec<Vec<u8>> {
    client.mount().expect("mount");
    client.mkdir("/home/user0/cluster", Mode::from_octal(0o755)).expect("mkdir");
    for i in 0..6u32 {
        let path = format!("/home/user0/cluster/f{i}");
        client.create(&path, Mode::from_octal(0o644)).expect("create");
        let body = format!("replicated payload {i} ").repeat(15 + i as usize);
        client.write_file(&path, body.as_bytes()).expect("write");
    }
    client.chmod("/home/user0/cluster/f0", Mode::from_octal(0o600)).expect("chmod");
    client.unlink("/home/user0/cluster/f5").expect("unlink");
    let mut reads = Vec::new();
    for i in 0..5u32 {
        let path = format!("/home/user0/cluster/f{i}");
        client.getattr(&path).expect("getattr");
        reads.push(client.read(&path).expect("read"));
    }
    let mut listing: Vec<String> = client
        .readdir("/home/user0/cluster")
        .expect("readdir")
        .into_iter()
        .map(|e| e.name)
        .collect();
    listing.sort();
    reads.push(listing.join(",").into_bytes());
    reads
}

/// A fault-free baseline run; returns the read-backs and how many calls the
/// to-be-killed node served (used to aim the kill at mid-workload).
fn baseline(seed: u64, victim: usize) -> (Vec<Vec<u8>>, u64) {
    let world = deploy(seed);
    let (cluster, _, meters) = make_cluster(&world.servers, 0.0, 0, None);
    let mut client = client_over(&world, cluster, seed ^ 0x5E55);
    let reads = run_workload(&mut client);
    (reads, meters[victim].sample().round_trips)
}

#[test]
fn cluster_survives_node_death_mid_workload_and_rebalances_to_full_replication() {
    let seed = sharoes_testkit::rng::test_seed();
    println!("cluster seed: {seed:#x} (set SHAROES_TEST_SEED to replay)");
    let victim = 2; // node "c"

    // Fault-free baseline, plus calibration for the kill point.
    let (baseline_reads, victim_calls) = baseline(seed, victim);
    assert!(victim_calls > 4, "node c must participate in the baseline ({victim_calls} calls)");
    let fuse = (victim_calls / 2) as i64;

    // Chaos run on an identical deployment: every link faulted at 10%, and
    // node c dies for good halfway through its baseline call count.
    let world = deploy(seed);
    let calls_left = Arc::new(AtomicI64::new(fuse));
    let (cluster, schedules, _) =
        make_cluster(&world.servers, 0.10, seed ^ 0xFA17, Some((victim, Arc::clone(&calls_left))));
    let mut client = client_over(&world, cluster, seed ^ 0x5E55);
    let reads = run_workload(&mut client);

    assert_eq!(reads, baseline_reads, "read-backs diverged from the fault-free run");
    assert!(calls_left.load(Ordering::SeqCst) <= 0, "the kill switch never fired");
    let injected: u64 =
        schedules.iter().map(|s| s.lock().unwrap().counts()).map(|c: FaultCounts| c.total()).sum();
    assert!(injected > 0, "10% rate injected nothing — schedule broken");
    assert!(!client.is_degraded(), "workload completed, client must not be degraded");

    // Operator phase: retire the dead node, stream misplaced/missing keys
    // back to R replicas, and audit the result.
    let (mut ops, _, _) = make_cluster(&world.servers, 0.0, 0, None);
    assert!(ops.retire_node(NODE_NAMES[victim]));
    let report = ops.rebalance(64).expect("rebalance");
    assert!(report.keys > 0, "rebalance must see the surviving keys");
    let audit = ops.audit(64).expect("audit");
    assert!(audit.clean(), "post-rebalance audit must be clean: {audit:?}");
    assert_eq!(
        audit.fully_replicated, audit.keys,
        "every live key must sit on R replicas: {audit:?}"
    );
    assert!(audit.keys > 0);

    // A second rebalance pass is a no-op: the protocol is idempotent.
    let again = ops.rebalance(64).expect("second rebalance");
    assert_eq!((again.copied, again.refreshed, again.dropped), (0, 0, 0), "{again:?}");

    // A fresh client mounted over just the survivors reads everything back.
    let live: Vec<Arc<SspServer>> = world
        .servers
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != victim)
        .map(|(_, s)| Arc::clone(s))
        .collect();
    let mut survivors = ClusterTransport::new(cluster_opts());
    for (idx, server) in live.iter().enumerate() {
        let name = NODE_NAMES.iter().filter(|n| **n != NODE_NAMES[victim]).nth(idx).unwrap();
        survivors.add_node(name, Box::new(InMemoryTransport::new(Arc::clone(server) as _)));
    }
    let mut reader = client_over(&world, survivors, seed ^ 0x0BB5);
    reader.mount().expect("mount over survivors");
    for (i, expected) in baseline_reads.iter().take(5).enumerate() {
        let got = reader.read(&format!("/home/user0/cluster/f{i}")).expect("survivor read");
        assert_eq!(&got, expected, "f{i} diverged after failover + rebalance");
    }
}

#[test]
fn cluster_chaos_is_replayable_from_seed() {
    let seed = sharoes_testkit::rng::test_seed();
    let run = |victim: usize| {
        let world = deploy(seed);
        let calls_left = Arc::new(AtomicI64::new(20));
        let (cluster, schedules, _) =
            make_cluster(&world.servers, 0.15, seed ^ 0xFA17, Some((victim, calls_left)));
        let mut client = client_over(&world, cluster, seed ^ 0x5E55);
        let reads = run_workload(&mut client);
        let counts: Vec<FaultCounts> =
            schedules.iter().map(|s| s.lock().unwrap().counts()).collect();
        (reads, counts)
    };
    let (reads_a, counts_a) = run(1);
    let (reads_b, counts_b) = run(1);
    assert_eq!(counts_a, counts_b, "same seed must inject the same faults");
    assert_eq!(reads_a, reads_b);
}
