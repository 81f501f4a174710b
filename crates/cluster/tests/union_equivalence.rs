//! The cluster's incrementally maintained union index against a
//! from-scratch oracle: after every `Root` / `ScanVerified`, the union root
//! and count must equal `MerkleIndex::from_keys` over the union of the
//! reachable nodes' key sets — through replicated writes, a second writer
//! editing one node's store directly, a node whose link goes down for a few
//! rounds and comes back (drop-out and rejoin), and a node whose index
//! fetches fail while its scans still work (the `Scan` fallback). Other
//! rounds run in the high-churn regime of the verified-scan benchmark,
//! where most leaves of every node change between two refreshes. A
//! hostile replica serving trees that reach one node twice must never
//! take an honest replica's keys out of the union, and one answering node
//! batches with the wrong slots must be read through its `Scan` instead.
//!
//! Seeded; replay with `SHAROES_TEST_SEED=<seed> cargo test -p
//! sharoes-cluster --test union_equivalence`.

use sharoes_cluster::{ClusterOpts, ClusterTransport};
use sharoes_index::{
    decode_node, encode_node, node_hash, verify_scan_page, IndexNode, MerkleIndex,
};
use sharoes_net::{
    CostMeter, InMemoryTransport, NetError, ObjectKey, Request, RequestHandler, Response, Transport,
};
use sharoes_ssp::{ObjectStore, SspServer};
use sharoes_testkit::prelude::*;
use sharoes_testkit::rng::test_rng_for;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Link {
    Up,
    /// Every call fails: the node drops out of the union.
    Down,
    /// `IndexNode` calls fail: a moved root forces the `Scan` fallback.
    IndexBroken,
}

/// An in-memory link whose failure mode the test switches between rounds.
struct Switched {
    inner: InMemoryTransport,
    link: Arc<Mutex<Link>>,
    /// `Scan` requests carried: the union reads a node by `Scan` only when
    /// its index walk failed.
    scans: Arc<AtomicUsize>,
}

impl Transport for Switched {
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        if matches!(request, Request::Scan { .. }) {
            self.scans.fetch_add(1, Ordering::Relaxed);
        }
        match *self.link.lock().unwrap() {
            Link::Down => Err(NetError::Closed),
            Link::IndexBroken if matches!(request, Request::IndexNode { .. }) => {
                Err(NetError::Closed)
            }
            _ => self.inner.call(request),
        }
    }

    fn meter(&self) -> &Arc<CostMeter> {
        self.inner.meter()
    }
}

struct World {
    cluster: ClusterTransport,
    stores: Vec<Arc<ObjectStore>>,
    links: Vec<Arc<Mutex<Link>>>,
    scans: Arc<AtomicUsize>,
}

fn world(replication: usize) -> World {
    // W = 1 keeps writes available while one node is down.
    let opts = ClusterOpts { replication, write_quorum: 1, ..ClusterOpts::default() };
    let mut cluster = ClusterTransport::new(opts);
    let (mut stores, mut links) = (Vec::new(), Vec::new());
    let scans = Arc::new(AtomicUsize::new(0));
    for name in ["a", "b", "c"] {
        let store = Arc::new(ObjectStore::new());
        let server: Arc<dyn RequestHandler> = Arc::new(SspServer::with_store(Arc::clone(&store)));
        let link = Arc::new(Mutex::new(Link::Up));
        let inner = InMemoryTransport::new(server);
        let scans = Arc::clone(&scans);
        cluster.add_node(name, Box::new(Switched { inner, link: Arc::clone(&link), scans }));
        stores.push(store);
        links.push(link);
    }
    World { cluster, stores, links, scans }
}

/// Keys from a domain small enough that deletes and overwrites hit, large
/// enough for multi-level trees.
fn key(rng: &mut HmacDrbg) -> ObjectKey {
    let id = rng.next_u64() % 3000;
    ObjectKey::data(id.wrapping_mul(0x9E37_79B9_7F4A_7C15), [(id % 7) as u8; 16], 0)
}

/// The oracle: a from-scratch index over every reachable node's keys.
fn oracle(w: &World) -> MerkleIndex {
    let mut keys = BTreeSet::new();
    for (store, link) in w.stores.iter().zip(&w.links) {
        if *link.lock().unwrap() != Link::Down {
            keys.extend(store.scan_keys_flat(None, usize::MAX).0);
        }
    }
    MerkleIndex::from_keys(keys)
}

/// One random mutation: through the cluster, or straight into node `a`'s
/// store as a second writer the cluster never sees.
fn mutate(w: &mut World, rng: &mut HmacDrbg) {
    let value = vec![(rng.next_u64() % 251) as u8; 8];
    let request = match rng.next_u64() % 6 {
        0 => Request::Put { key: key(rng), value },
        1 => Request::PutMany { items: (0..8).map(|_| (key(rng), value.clone())).collect() },
        2 => Request::Delete { key: key(rng) },
        3 => Request::Mutate {
            puts: (0..4).map(|_| (key(rng), value.clone())).collect(),
            deletes: (0..4).map(|_| key(rng)).collect(),
            drop_views: (0..2).map(|_| key(rng)).map(|k| (k.inode, k.view)).collect(),
        },
        4 => {
            w.stores[0].put(key(rng), value).unwrap();
            return;
        }
        _ => {
            w.stores[0].delete(&key(rng)).unwrap();
            return;
        }
    };
    assert_eq!(w.cluster.call(&request).unwrap(), Response::Ok, "{request:?}");
}

/// Node `c`'s link by round: down for a few rounds, back, then
/// index-broken for a few rounds, back.
fn link_for(round: usize) -> Link {
    match round {
        12..=16 => Link::Down,
        28..=32 => Link::IndexBroken,
        44..=46 => Link::Down,
        _ => Link::Up,
    }
}

/// Drives one cluster through the rounds, checking the union every round.
fn rounds(replication: usize) {
    let mut rng = test_rng_for("union_equivalence");
    let mut w = world(replication);
    for _ in 0..200 {
        let items = (0..8).map(|_| (key(&mut rng), vec![1u8; 8])).collect();
        assert_eq!(w.cluster.call(&Request::PutMany { items }).unwrap(), Response::Ok);
    }
    for round in 0..60 {
        *w.links[2].lock().unwrap() = link_for(round);
        let scans_before = w.scans.load(Ordering::Relaxed);
        for _ in 0..rng.next_u64() % 40 {
            mutate(&mut w, &mut rng);
        }
        let mut want = oracle(&w);
        let (root, count) = (want.root(), want.len());
        if rng.next_u64().is_multiple_of(2) {
            let got = w.cluster.call(&Request::Root).unwrap();
            assert_eq!(got, Response::Root { root, count }, "round {round}: union root");
            let node = w.cluster.call(&Request::IndexNode { hashes: vec![root] }).unwrap();
            assert_eq!(node, Response::IndexNode { nodes: vec![want.node_bytes(&root)] });
        } else {
            let all = want.all_keys();
            let after = match rng.next_u64() % 3 {
                0 => None,
                _ => Some(all[(rng.next_u64() % all.len() as u64) as usize]),
            };
            let limit = 1 + (rng.next_u64() % 64) as u32;
            let Response::KeysProof { keys, done, root: got_root, proof } =
                w.cluster.call(&Request::ScanVerified { after, limit }).unwrap()
            else {
                panic!("round {round}: unexpected scan response");
            };
            assert_eq!(got_root, root, "round {round}: union root behind the page");
            verify_scan_page(&root, after.as_ref(), limit, &keys, done, &proof)
                .unwrap_or_else(|e| panic!("round {round}: honest page rejected: {e}"));
            assert_eq!((keys, done), want.scan_page(after.as_ref(), limit as usize));
            let Response::Root { count: got_count, .. } = w.cluster.call(&Request::Root).unwrap()
            else {
                panic!("round {round}: unexpected root response");
            };
            assert_eq!(got_count, count, "round {round}: union count");
        }
        if link_for(round) != Link::IndexBroken {
            // The index walk must succeed whenever the links let it. (Counted
            // on this world's links: the registry's fallback counter is
            // shared with the hostile test running beside this one.)
            let scans = w.scans.load(Ordering::Relaxed);
            assert_eq!(scans, scans_before, "round {round}: needless scan fallback");
        }
    }
}

#[test]
fn union_index_matches_a_from_scratch_rebuild_every_round() {
    // R = 2: each node holds its own slice of the keyspace.
    rounds(2);
    // R = 3: replicas share subtrees, so one node's walk reuses nodes
    // another node's walk fetched.
    rounds(3);
    // The rounds above must have taken the paths they claim to cover.
    let counter = |name| sharoes_obs::global().snapshot().get(name);
    assert!(counter("cluster_index_scan_fallbacks_total") > 0, "no scan fallback exercised");
    assert!(counter("cluster_index_memo_hits_total") > 0, "no subtree reused");
}

/// Every leaf hash of `store`'s index tree.
fn leaf_hashes(store: &ObjectStore) -> HashSet<[u8; 32]> {
    let mut leaves = HashSet::new();
    let mut level = vec![store.index_root().0];
    while !level.is_empty() {
        let mut next = Vec::new();
        for (hash, bytes) in level.iter().zip(store.index_nodes(&level)) {
            match decode_node(&bytes.expect("a current node")).unwrap() {
                IndexNode::Leaf(_) => drop(leaves.insert(*hash)),
                IndexNode::Internal(entries) => next.extend(entries.iter().map(|(_, h)| *h)),
            }
        }
        level = next;
    }
    leaves
}

#[test]
fn union_index_matches_a_from_scratch_rebuild_under_high_churn() {
    // The verified-scan workload's regime: about 13k keys per node at
    // R = 2 of 3, and between two refreshes about 1,000 key changes per
    // node, which leave few of its leaves unchanged.
    let mut rng = test_rng_for("union_equivalence_churn");
    let mut w = world(2);
    let key = |id: u64| ObjectKey::data(id.wrapping_mul(0x9E37_79B9_7F4A_7C15), [0; 16], 0);
    let mut live: Vec<u64> = (0..20_000).collect();
    for ids in live.chunks(500) {
        let items = ids.iter().map(|id| (key(*id), vec![1u8; 8])).collect();
        assert_eq!(w.cluster.call(&Request::PutMany { items }).unwrap(), Response::Ok);
    }
    let mut next_id = live.len() as u64;
    for round in 0..4 {
        let before: Vec<HashSet<[u8; 32]>> = w.stores.iter().map(|s| leaf_hashes(s)).collect();
        let scans_before = w.scans.load(Ordering::Relaxed);
        if round > 0 {
            for _ in 0..750 {
                let put = Request::Put { key: key(next_id), value: vec![2u8; 8] };
                assert_eq!(w.cluster.call(&put).unwrap(), Response::Ok);
                live.push(next_id);
                next_id += 1;
                let gone = live.swap_remove((rng.next_u64() % live.len() as u64) as usize);
                assert_eq!(
                    w.cluster.call(&Request::Delete { key: key(gone) }).unwrap(),
                    Response::Ok
                );
            }
        }
        let mut want = oracle(&w);
        let (root, count) = (want.root(), want.len());
        assert_eq!(count, live.len() as u64);
        let got = w.cluster.call(&Request::Root).unwrap();
        assert_eq!(got, Response::Root { root, count }, "round {round}: union root");
        let all = want.all_keys();
        let after = Some(all[(rng.next_u64() % all.len() as u64) as usize]);
        let Response::KeysProof { keys, done, root: got_root, proof } =
            w.cluster.call(&Request::ScanVerified { after, limit: 64 }).unwrap()
        else {
            panic!("round {round}: unexpected scan response");
        };
        assert_eq!(got_root, root, "round {round}: union root behind the page");
        verify_scan_page(&root, after.as_ref(), 64, &keys, done, &proof)
            .unwrap_or_else(|e| panic!("round {round}: honest page rejected: {e}"));
        assert_eq!((keys, done), want.scan_page(after.as_ref(), 64));
        assert_eq!(w.scans.load(Ordering::Relaxed), scans_before, "round {round}: scan fallback");
        if round > 0 {
            for (idx, (store, old)) in w.stores.iter().zip(&before).enumerate() {
                let now = leaf_hashes(store);
                let kept = now.intersection(old).count();
                assert!(
                    kept * 2 < now.len(),
                    "round {round}, node {idx}: {kept} of {} leaves unchanged",
                    now.len()
                );
            }
        }
    }
}

/// The `(root, count)` a replica reports, or `None` while its link is down.
type Reported = Option<([u8; 32], u64)>;

/// How a hostile replica answers an `IndexNode` batch of two or more hashes
/// (it answers the root's one-hash batch honestly, so the walk fails midway
/// and must be undone).
#[derive(Clone, Copy, Debug)]
enum Batch {
    Honest,
    /// One slot too few.
    Short,
    /// One slot too many.
    Long,
    /// The last slot empty.
    Hole,
    /// Every node in another hash's slot.
    Swapped,
}

/// A replica that answers `Root` and `IndexNode` from hand-built nodes,
/// `Scan` with a fixed listing, and fails every other call.
struct Hostile {
    nodes: HashMap<[u8; 32], Vec<u8>>,
    serving: Arc<Mutex<Reported>>,
    batch: Arc<Mutex<Batch>>,
    listing: Vec<ObjectKey>,
    scans: Arc<AtomicUsize>,
    meter: Arc<CostMeter>,
}

impl Hostile {
    /// Makes `node` servable; returns its hash.
    fn add(&mut self, node: IndexNode) -> [u8; 32] {
        let hash = node_hash(&node);
        self.nodes.insert(hash, encode_node(&node));
        hash
    }
}

impl Transport for Hostile {
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        let Some((root, count)) = *self.serving.lock().unwrap() else {
            return Err(NetError::Closed);
        };
        match request {
            Request::Root => Ok(Response::Root { root, count }),
            Request::IndexNode { hashes } => {
                let mut nodes: Vec<Option<Vec<u8>>> =
                    hashes.iter().map(|h| self.nodes.get(h).cloned()).collect();
                if hashes.len() > 1 {
                    match *self.batch.lock().unwrap() {
                        Batch::Honest => {}
                        Batch::Short => drop(nodes.pop()),
                        Batch::Long => nodes.push(nodes[0].clone()),
                        Batch::Hole => *nodes.last_mut().unwrap() = None,
                        Batch::Swapped => nodes.rotate_left(1),
                    }
                }
                Ok(Response::IndexNode { nodes })
            }
            Request::Scan { after, .. } => {
                self.scans.fetch_add(1, Ordering::Relaxed);
                let keys = self.listing.iter().filter(|k| after.is_none_or(|a| **k > a));
                Ok(Response::Keys { keys: keys.copied().collect(), done: true })
            }
            _ => Err(NetError::Closed),
        }
    }

    fn meter(&self) -> &Arc<CostMeter> {
        &self.meter
    }
}

#[test]
fn hostile_trees_and_batches_cannot_hide_honest_keys() {
    let mut rng = test_rng_for("union_equivalence_hostile");
    let mut cluster = ClusterTransport::new(ClusterOpts::default());
    let mut honest = BTreeSet::new();
    for name in ["a", "b"] {
        let store = Arc::new(ObjectStore::new());
        for _ in 0..300 {
            let k = key(&mut rng);
            store.put(k, vec![1]).unwrap();
            honest.insert(k);
        }
        let server: Arc<dyn RequestHandler> = Arc::new(SspServer::with_store(store));
        cluster.add_node(name, Box::new(InMemoryTransport::new(server)));
    }
    // `x`, `y` and `z` are honest keys the hostile replica also lists;
    // `last` sorts after every key.
    let mut listed = honest.iter().copied();
    let (x, y, z) = (listed.next().unwrap(), listed.next().unwrap(), listed.next().unwrap());
    let last = ObjectKey::data(u64::MAX, [0xFF; 16], u32::MAX);
    let serving = Arc::new(Mutex::new(None));
    let batch = Arc::new(Mutex::new(Batch::Honest));
    let scans = Arc::new(AtomicUsize::new(0));
    let mut h = Hostile {
        nodes: HashMap::new(),
        serving: Arc::clone(&serving),
        batch: Arc::clone(&batch),
        listing: vec![x, y, z],
        scans: Arc::clone(&scans),
        meter: CostMeter::new_shared(),
    };
    let leaf = h.add(IndexNode::Leaf(vec![x]));
    // The leaf twice in one node.
    let twice = h.add(IndexNode::Internal(vec![(x, leaf), (last, leaf)]));
    // The leaf under two parents.
    let left = h.add(IndexNode::Internal(vec![(x, leaf)]));
    let right = h.add(IndexNode::Internal(vec![(last, leaf)]));
    let two_parents = h.add(IndexNode::Internal(vec![(x, left), (last, right)]));
    // A well-formed chain to `leaf`, then a tree keeping that chain and
    // adding the leaf again: the second reference is the only new one.
    let chain = h.add(IndexNode::Internal(vec![(x, left)]));
    let chain_and_leaf = h.add(IndexNode::Internal(vec![(x, left), (last, leaf)]));
    // A well-formed tree whose second level is one batch of two leaves that
    // no earlier tree held.
    let leaf_y = h.add(IndexNode::Leaf(vec![y]));
    let leaf_z = h.add(IndexNode::Leaf(vec![z]));
    let pair = h.add(IndexNode::Internal(vec![(y, leaf_y), (z, leaf_z)]));
    cluster.add_node("h", Box::new(h));

    let mut want = MerkleIndex::from_keys(honest.iter().copied());
    let want = Response::Root { root: want.root(), count: want.len() };
    // `(root, key count, batch answer)`; a `None` round takes the replica
    // down, so the next round walks its tree afresh.
    let trees = [
        (Some(leaf), 1, Batch::Honest),
        (Some(twice), 1, Batch::Honest),
        (None, 0, Batch::Honest),
        (Some(leaf), 1, Batch::Honest),
        (Some(two_parents), 1, Batch::Honest),
        (None, 0, Batch::Honest),
        (Some(chain), 1, Batch::Honest),
        (Some(chain_and_leaf), 1, Batch::Honest),
        (None, 0, Batch::Honest),
    ];
    // Each bad answer to `pair`'s leaf batch, then the honest one, which
    // walks with no `Scan`.
    let batches = [Batch::Short, Batch::Long, Batch::Hole, Batch::Swapped, Batch::Honest]
        .into_iter()
        .flat_map(|b| [(Some(pair), 2, b), (None, 0, Batch::Honest)]);
    for (round, (root, count, answer)) in trees.into_iter().chain(batches).enumerate() {
        *serving.lock().unwrap() = root.map(|r| (r, count));
        *batch.lock().unwrap() = answer;
        let scans_before = scans.load(Ordering::Relaxed);
        let got = cluster.call(&Request::Root).unwrap();
        assert_eq!(got, want, "round {round}: the union lost an honest key");
        let scanned = scans.load(Ordering::Relaxed) > scans_before;
        if root == Some(pair) {
            let bad = !matches!(answer, Batch::Honest);
            assert_eq!(scanned, bad, "round {round}: a {answer:?} batch, scanned: {scanned}");
        }
    }
}
