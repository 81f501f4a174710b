//! Blob-level cluster semantics against real SSP stores: replication
//! placement, quorum enforcement, failover reads, read repair, and
//! rebalancing after ring changes.

use sharoes_cluster::{ClusterOpts, ClusterTransport};
use sharoes_net::{
    CostMeter, InMemoryTransport, NetError, ObjectKey, Request, RequestHandler, Response, Transport,
};
use sharoes_ssp::{ObjectStore, SspServer};
use std::sync::Arc;

/// A cluster over in-process SSP nodes whose stores stay inspectable.
struct World {
    cluster: ClusterTransport,
    stores: Vec<Arc<ObjectStore>>,
}

fn world(names: &[&str], opts: ClusterOpts) -> World {
    let mut cluster = ClusterTransport::new(opts);
    let mut stores = Vec::new();
    for name in names {
        let store = Arc::new(ObjectStore::new());
        let server: Arc<dyn RequestHandler> = Arc::new(SspServer::with_store(Arc::clone(&store)));
        cluster.add_node(name, Box::new(InMemoryTransport::new(server)));
        stores.push(store);
    }
    World { cluster, stores }
}

/// A node whose transport always fails (a crashed SSP).
struct DeadTransport(Arc<CostMeter>);

impl Transport for DeadTransport {
    fn call(&mut self, _request: &Request) -> Result<Response, NetError> {
        Err(NetError::Closed)
    }
    fn meter(&self) -> &Arc<CostMeter> {
        &self.0
    }
}

fn key(i: u64) -> ObjectKey {
    ObjectKey::data(i, [(i % 251) as u8; 16], 0)
}

fn blob(i: u64) -> Vec<u8> {
    vec![(i % 251) as u8; 8 + (i % 5) as usize]
}

/// How many node stores physically hold `k`.
fn holders(w: &World, k: &ObjectKey) -> usize {
    w.stores.iter().filter(|s| s.get(k).is_some()).count()
}

#[test]
fn writes_land_on_exactly_r_replicas() {
    let mut w = world(&["a", "b", "c"], ClusterOpts { replication: 2, ..Default::default() });
    for i in 0..40 {
        assert_eq!(
            w.cluster.call(&Request::Put { key: key(i), value: blob(i) }).unwrap(),
            Response::Ok
        );
    }
    for i in 0..40 {
        assert_eq!(holders(&w, &key(i)), 2, "key {i} not on exactly R=2 nodes");
    }
    // Reads come back through the quorum path.
    for i in 0..40 {
        assert_eq!(
            w.cluster.call(&Request::Get { key: key(i) }).unwrap(),
            Response::Object(Some(blob(i)))
        );
    }
    // Deletes clear every replica.
    for i in 0..40 {
        w.cluster.call(&Request::Delete { key: key(i) }).unwrap();
        assert_eq!(holders(&w, &key(i)), 0, "key {i} survived delete");
    }
}

#[test]
fn batch_writes_replicate_like_single_writes() {
    let mut w = world(&["a", "b", "c"], ClusterOpts { replication: 2, ..Default::default() });
    let items: Vec<(ObjectKey, Vec<u8>)> = (0..30).map(|i| (key(i), blob(i))).collect();
    w.cluster.call(&Request::PutMany { items }).unwrap();
    for i in 0..30 {
        assert_eq!(holders(&w, &key(i)), 2);
    }
    let got = w.cluster.call(&Request::GetMany { keys: (0..30).map(key).collect() }).unwrap();
    assert_eq!(got, Response::Objects((0..30).map(|i| Some(blob(i))).collect()));
    let deletes = (0..30).map(key).collect();
    w.cluster.call(&Request::Mutate { puts: vec![], deletes, drop_views: vec![] }).unwrap();
    assert_eq!((0..30).map(|i| holders(&w, &key(i))).sum::<usize>(), 0);
}

#[test]
fn read_fails_over_and_repairs_a_missing_replica() {
    let mut w = world(&["a", "b", "c"], ClusterOpts { replication: 2, ..Default::default() });
    let stats = w.cluster.stats_handle();
    w.cluster.call(&Request::Put { key: key(7), value: blob(7) }).unwrap();
    // Knock the blob off one replica behind the cluster's back.
    let victim = w.stores.iter().position(|s| s.get(&key(7)).is_some()).unwrap();
    w.stores[victim].delete(&key(7)).unwrap();
    assert_eq!(holders(&w, &key(7)), 1);
    // The read still sees the surviving copy (presence wins)…
    assert_eq!(
        w.cluster.call(&Request::Get { key: key(7) }).unwrap(),
        Response::Object(Some(blob(7)))
    );
    // …and repaired the hole on its way out.
    assert_eq!(holders(&w, &key(7)), 2, "read repair must restore the replica");
    assert_eq!(stats.sample().read_repairs, 1);
}

#[test]
fn divergent_replicas_reconcile_and_repair() {
    let mut w = world(&["a", "b", "c"], ClusterOpts { replication: 2, ..Default::default() });
    w.cluster.call(&Request::Put { key: key(3), value: blob(3) }).unwrap();
    // Corrupt one replica with a different (stale) value.
    let victim = w.stores.iter().position(|s| s.get(&key(3)).is_some()).unwrap();
    w.stores[victim].put(key(3), b"stale".to_vec()).unwrap();
    let got = w.cluster.call(&Request::Get { key: key(3) }).unwrap();
    // Majority can't decide 1-vs-1; ring order picks a winner
    // deterministically, and both replicas converge on it.
    let Response::Object(Some(winner)) = got else { panic!("lost the blob") };
    let values: Vec<Vec<u8>> = w.stores.iter().filter_map(|s| s.get(&key(3))).collect();
    assert_eq!(values.len(), 2);
    assert!(values.iter().all(|v| *v == winner), "replicas must converge after repair");
}

#[test]
fn batched_reads_also_fail_over_and_repair() {
    let mut w = world(&["a", "b", "c"], ClusterOpts { replication: 2, ..Default::default() });
    let keys: Vec<ObjectKey> = (0..20).map(key).collect();
    for (i, k) in keys.iter().enumerate() {
        w.cluster.call(&Request::Put { key: *k, value: blob(i as u64) }).unwrap();
    }
    // Drop every key from one (arbitrary) holding store.
    for k in &keys {
        let victim = w.stores.iter().position(|s| s.get(k).is_some()).unwrap();
        w.stores[victim].delete(k).unwrap();
    }
    let got = w.cluster.call(&Request::GetMany { keys: keys.clone() }).unwrap();
    assert_eq!(got, Response::Objects((0..20).map(|i| Some(blob(i))).collect()));
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(holders(&w, k), 2, "key {i} not repaired by batched read");
    }
}

#[test]
fn write_quorum_gates_success() {
    // Two nodes, R=2: with W=2 a dead node fails every write; with W=1 the
    // same cluster stays available.
    for (quorum, expect_ok) in [(2usize, false), (1usize, true)] {
        let mut cluster = ClusterTransport::new(ClusterOpts {
            replication: 2,
            write_quorum: quorum,
            ..Default::default()
        });
        let store = Arc::new(ObjectStore::new());
        let server: Arc<dyn RequestHandler> = Arc::new(SspServer::with_store(Arc::clone(&store)));
        cluster.add_node("live", Box::new(InMemoryTransport::new(server)));
        cluster.add_node("dead", Box::new(DeadTransport(CostMeter::new_shared())));
        let outcome = cluster.call(&Request::Put { key: key(1), value: blob(1) });
        assert_eq!(outcome.is_ok(), expect_ok, "W={quorum}");
        if expect_ok {
            // The surviving ack landed, and the shortfall was recorded.
            assert!(cluster.stats_handle().sample().quorum_shortfalls >= 1);
        }
    }
}

#[test]
fn cluster_scan_merges_and_dedupes_replicas() {
    let mut w = world(&["a", "b", "c"], ClusterOpts { replication: 2, ..Default::default() });
    let mut expect: Vec<ObjectKey> = (0..25).map(key).collect();
    for k in &expect {
        w.cluster.call(&Request::Put { key: *k, value: vec![1] }).unwrap();
    }
    expect.sort_unstable();
    // Page through the merged global index.
    let mut seen = Vec::new();
    let mut after = None;
    loop {
        let Response::Keys { keys, done } =
            w.cluster.call(&Request::Scan { after, limit: 7 }).unwrap()
        else {
            panic!("wrong response shape")
        };
        assert!(keys.len() <= 7);
        after = keys.last().copied().or(after);
        seen.extend(keys);
        if done {
            break;
        }
    }
    // Each key appears once despite living on two nodes.
    assert_eq!(seen, expect);
}

#[test]
fn rebalance_after_join_restores_placement() {
    let mut w = world(&["a", "b"], ClusterOpts { replication: 2, ..Default::default() });
    for i in 0..60 {
        w.cluster.call(&Request::Put { key: key(i), value: blob(i) }).unwrap();
    }
    // A third node joins empty: placement now disagrees with reality.
    let store = Arc::new(ObjectStore::new());
    let server: Arc<dyn RequestHandler> = Arc::new(SspServer::with_store(Arc::clone(&store)));
    w.cluster.add_node("c", Box::new(InMemoryTransport::new(server)));
    w.stores.push(store);
    assert!(!w.cluster.audit(16).unwrap().clean(), "join must disturb placement");

    let report = w.cluster.rebalance(16).unwrap();
    assert_eq!(report.keys, 60);
    assert!(report.copied > 0, "the new node must receive keys");
    assert!(report.dropped > 0, "old over-placed copies must be dropped");

    let audit = w.cluster.audit(16).unwrap();
    assert!(audit.clean(), "after rebalance: {audit:?}");
    assert_eq!(audit.keys, 60);
    // And the data still reads back.
    for i in 0..60 {
        assert_eq!(
            w.cluster.call(&Request::Get { key: key(i) }).unwrap(),
            Response::Object(Some(blob(i)))
        );
    }
    // A second pass is a no-op.
    assert_eq!(
        w.cluster.rebalance(16).unwrap(),
        sharoes_cluster::RebalanceReport { keys: 60, ..Default::default() }
    );
}

#[test]
fn rebalance_after_retire_restores_replication() {
    let mut w = world(&["a", "b", "c"], ClusterOpts { replication: 2, ..Default::default() });
    for i in 0..60 {
        w.cluster.call(&Request::Put { key: key(i), value: blob(i) }).unwrap();
    }
    assert!(w.cluster.retire_node("b"));
    assert!(!w.cluster.retire_node("b"), "double retire must report false");
    assert_eq!(w.cluster.active_nodes(), vec!["a", "c"]);

    // Keys that had a copy on b are now under-replicated.
    let audit = w.cluster.audit(16).unwrap();
    assert!(audit.under_replicated > 0, "retiring a node must cost replicas: {audit:?}");

    w.cluster.rebalance(16).unwrap();
    let audit = w.cluster.audit(16).unwrap();
    assert!(audit.clean(), "after rebalance: {audit:?}");
    assert_eq!(audit.keys, 60);
    for i in 0..60 {
        assert_eq!(
            w.cluster.call(&Request::Get { key: key(i) }).unwrap(),
            Response::Object(Some(blob(i)))
        );
    }
}

#[test]
fn dropped_views_fan_out_to_every_node() {
    let mut w = world(&["a", "b", "c"], ClusterOpts { replication: 2, ..Default::default() });
    let (view, next) = ([9u8; 16], [8u8; 16]);
    for b in (0..12u32).chain([u32::MAX]) {
        let k = ObjectKey::data(77, view, b);
        w.cluster.call(&Request::Put { key: k, value: vec![b as u8; 4] }).unwrap();
    }
    w.cluster.call(&Request::Put { key: ObjectKey::metadata(77, view), value: vec![1] }).unwrap();
    // The re-key shape: the old view is dropped next to puts into a new
    // one and a delete, in one request.
    let puts: Vec<(ObjectKey, Vec<u8>)> =
        (0..3u32).map(|b| (ObjectKey::data(77, next, b), vec![7])).collect();
    let deletes = vec![ObjectKey::metadata(77, view)];
    let request = Request::Mutate { puts: puts.clone(), deletes, drop_views: vec![(77, view)] };
    assert_eq!(w.cluster.call(&request).unwrap(), Response::Ok);
    for b in (0..12u32).chain([u32::MAX]) {
        assert_eq!(holders(&w, &ObjectKey::data(77, view, b)), 0, "block {b} survived");
    }
    assert_eq!(holders(&w, &ObjectKey::metadata(77, view)), 0);
    for (k, _) in &puts {
        assert_eq!(holders(&w, k), 2, "{k:?} not on exactly R=2 nodes");
    }

    // A node that holds none of a mutation's keys still drops the view:
    // a block put behind the cluster's back on every node goes everywhere.
    for store in &w.stores {
        store.put(ObjectKey::data(78, view, 5), vec![1]).unwrap();
    }
    let request = Request::Mutate { puts: vec![], deletes: vec![], drop_views: vec![(78, view)] };
    assert_eq!(w.cluster.call(&request).unwrap(), Response::Ok);
    assert_eq!(holders(&w, &ObjectKey::data(78, view, 5)), 0);
}

#[test]
fn a_dropped_view_needs_w_nodes_to_ack() {
    // R = 3 over three nodes, W = 2: one dead node leaves a quorum for
    // the view drop, two do not.
    let opts = ClusterOpts { replication: 3, ..Default::default() };
    let mut cluster = ClusterTransport::new(opts);
    let store = Arc::new(ObjectStore::new());
    let server: Arc<dyn RequestHandler> = Arc::new(SspServer::with_store(Arc::clone(&store)));
    cluster.add_node("a", Box::new(InMemoryTransport::new(server)));
    cluster.add_node("b", Box::new(DeadTransport(CostMeter::new_shared())));
    cluster.add_node("c", Box::new(DeadTransport(CostMeter::new_shared())));
    store.put(ObjectKey::data(5, [5; 16], 0), vec![1]).unwrap();
    let request = Request::Mutate { puts: vec![], deletes: vec![], drop_views: vec![(5, [5; 16])] };
    assert!(cluster.call(&request).is_err(), "one ack of three met a W=2 quorum");
    // The live node applied its share all the same (no rollback).
    assert!(store.get(&ObjectKey::data(5, [5; 16], 0)).is_none());
}

#[test]
fn stats_aggregate_physical_storage() {
    let mut w = world(&["a", "b", "c"], ClusterOpts { replication: 2, ..Default::default() });
    w.cluster.call(&Request::Put { key: key(1), value: vec![0; 100] }).unwrap();
    // The cluster's Metrics reply has one `# node` section per node, each
    // carrying that node's own `ssp_store_*` gauges.
    let Response::Metrics { text } = w.cluster.call(&Request::Metrics).unwrap() else {
        panic!("expected a Metrics reply")
    };
    assert_eq!(text.lines().filter(|l| l.starts_with("# node ")).count(), 3);
    let total = |name: &str| -> u64 {
        text.lines()
            .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<u64>().ok())
            .sum()
    };
    // R=2 copies → 200 physical bytes, 2 physical objects.
    assert_eq!((total("ssp_store_objects"), total("ssp_store_bytes")), (2, 200));
    assert_eq!(w.cluster.call(&Request::Ping).unwrap(), Response::Pong);
}

/// A node that answers `Trace { max }` with one event more than asked for.
struct Overfull;

impl RequestHandler for Overfull {
    fn handle(&self, request: Request) -> Response {
        match request {
            Request::Trace { max } => {
                let event = sharoes_obs::OwnedEvent {
                    seq: 0,
                    time_ns: 0,
                    depth: 0,
                    level: sharoes_obs::Level::Info,
                    kind: sharoes_obs::EventKind::Instant,
                    trace_id: 0,
                    span_id: 0,
                    parent_id: 0,
                    name: "e".into(),
                    fields: String::new(),
                    node: String::new(),
                };
                Response::Trace { events: vec![event; max as usize + 1], dropped: 0 }
            }
            _ => Response::Error("unsupported".into()),
        }
    }
}

#[test]
fn a_trace_reply_over_its_cap_is_refused() {
    let mut cluster = ClusterTransport::new(ClusterOpts::default());
    cluster.add_node("a", Box::new(InMemoryTransport::new(Arc::new(Overfull))));
    let err = cluster.call(&Request::Trace { max: 3 }).unwrap_err();
    assert!(matches!(err, NetError::Codec(_)), "{err}");
}
