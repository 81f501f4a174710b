//! `cluster_rpc`: raw SSP requests, no client crypto, from one thread
//! through a `ClusterTransport` (default options: R=2, majority quorum)
//! fronting three in-memory nodes, each a memory-backend `SspServer`. The
//! mix is Put (new keys and overwrites), Zipf-skewed Get, Delete, and
//! 64-key `ScanVerified` pages checked with `verify_scan_page`.

use crate::driver::{ssp_registry, timed, Config, Counts, Kind, LayerInfo, Step, Workload};
use crate::gen::{content, Mix, Rng, Sizes, Zipf};
use crate::layers::{span, LinkCounts, TracedHandler, TracedTransport};
use sharoes_cluster::{ClusterOpts, ClusterTransport};
use sharoes_index::verify_scan_page;
use sharoes_net::{
    CostMeter, InMemoryTransport, ObjectKey, Request, RequestHandler, Response, Transport,
};
use sharoes_ssp::SspServer;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Value size range, bytes.
const SIZES: (u64, u64) = (512, 4096);
/// Keys per verified scan page.
const PAGE: u32 = 64;
/// Zipf exponent of Get targets.
const ZIPF_S: f64 = 0.99;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Get,
    PutNew,
    PutOverwrite,
    Delete,
    Scan,
}

/// Per block of 5000 ops: new puts and deletes balance, keeping the live
/// key count level. A verified page after any mutation makes the cluster
/// rebuild its union index over every node's keys, thousands of times the
/// cost of a Get at 20k keys, so one page per block gives scans a visible
/// but not dominant share of the run's time.
const MIX: [(Op, usize); 5] = [
    (Op::Get, 2250),
    (Op::PutNew, 750),
    (Op::PutOverwrite, 1249),
    (Op::Delete, 750),
    (Op::Scan, 1),
];

/// Value bookkeeping: size and content salt.
#[derive(Clone, Copy)]
struct Val {
    size: u32,
    salt: u64,
}

/// The `cluster_rpc` workload.
pub struct ClusterRpc {
    cluster: Box<dyn Transport>,
    nodes: Vec<Arc<SspServer>>,
    meter: Arc<CostMeter>,
    cluster_link: Arc<LinkCounts>,
    node_links: Arc<LinkCounts>,
    model: BTreeMap<ObjectKey, Val>,
    live: Vec<ObjectKey>,
    slot: HashMap<ObjectKey, usize>,
    zipf: Zipf,
    mix: Mix<Op>,
    sizes: Sizes,
    pick: Rng,
    next_id: u64,
    salt: u64,
    cursor: Option<ObjectKey>,
    pinned: Option<[u8; 32]>,
    mutated: bool,
    scan_pages: u64,
    proof_bytes: u64,
    proof_keys: u64,
    user_bytes: u64,
    live_bytes: u64,
}

fn key_of(id: u64) -> ObjectKey {
    // Spread ids over the keyspace so pages and index paths are not
    // insertion-ordered.
    let inode = id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    ObjectKey::data(inode, [0; 16], 0)
}

/// A short rendering of an unexpected reply (values can be kilobytes).
fn brief<T: std::fmt::Debug>(reply: &T) -> String {
    format!("{reply:?}").chars().take(160).collect()
}

impl ClusterRpc {
    fn insert_live(&mut self, key: ObjectKey, val: Val) {
        if let Some(old) = self.model.insert(key, val) {
            self.live_bytes -= old.size as u64;
        } else {
            self.slot.insert(key, self.live.len());
            self.live.push(key);
        }
        self.live_bytes += val.size as u64;
    }

    fn remove_live(&mut self, key: &ObjectKey) {
        let old = self.model.remove(key).expect("live key");
        self.live_bytes -= old.size as u64;
        let idx = self.slot.remove(key).expect("live key");
        self.live.swap_remove(idx);
        if let Some(moved) = self.live.get(idx) {
            self.slot.insert(*moved, idx);
        }
    }

    fn new_val(&mut self) -> Val {
        self.salt += 1;
        Val { size: self.sizes.draw() as u32, salt: self.salt }
    }

    fn put(&mut self, key: ObjectKey, val: Val, span_name: &'static str) -> Step {
        let value = content(val.size as usize, val.salt);
        let cluster = &mut self.cluster;
        let (step, r) =
            timed(Kind::Write, span_name, || cluster.call(&Request::Put { key, value }));
        self.insert_live(key, val);
        self.mutated = true;
        self.user_bytes += val.size as u64;
        let error = match r {
            Ok(Response::Ok) => None,
            other => Some(format!("put {key:?}: {}", brief(&other))),
        };
        step.with_error(error)
    }

    fn scan(&mut self) -> Step {
        let after = self.cursor;
        let cluster = &mut self.cluster;
        let pinned = self.pinned;
        let mutated = self.mutated;
        let (step, r) = timed(Kind::Read, "op.scan", || {
            let resp = cluster.call(&Request::ScanVerified { after, limit: PAGE });
            let Ok(Response::KeysProof { keys, done, root, proof }) = resp else {
                return Err(format!("scan: {}", brief(&resp)));
            };
            // As `SharoesClient::verified_scan`: a pinned root may move only
            // after this client's own acknowledged mutation.
            if pinned.is_some_and(|p| p != root) && !mutated {
                return Err("index root moved without a mutation".to_string());
            }
            span("index.verify", || {
                verify_scan_page(&root, after.as_ref(), PAGE, &keys, done, &proof)
            })
            .map_err(|e| format!("scan proof: {e}"))?;
            Ok((keys, done, root, proof.len()))
        });
        self.scan_pages += 1;
        let error = match r {
            Ok((keys, done, root, proof_len)) => {
                self.pinned = Some(root);
                self.mutated = false;
                self.proof_bytes += proof_len as u64;
                self.proof_keys += keys.len() as u64;
                let start = after.map_or(Bound::Unbounded, Bound::Excluded);
                let mut range = self.model.range((start, Bound::Unbounded)).map(|(k, _)| *k);
                let want: Vec<ObjectKey> = range.by_ref().take(PAGE as usize).collect();
                let want_done = range.next().is_none();
                self.cursor = if done { None } else { keys.last().copied() };
                (keys != want || done != want_done)
                    .then(|| format!("scan after {after:?}: {} keys, done={done}", keys.len()))
            }
            Err(e) => {
                self.cursor = None;
                Some(e)
            }
        };
        step.with_error(error)
    }
}

impl Workload for ClusterRpc {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let keys = cfg.pick(20_000, 600);
        let warmup = cfg.pick(200, 20);

        let meter = CostMeter::new_shared();
        let node_links = Arc::new(LinkCounts::default());
        let cluster_link = Arc::new(LinkCounts::default());
        let mut cluster = ClusterTransport::new(ClusterOpts::default());
        let mut nodes = Vec::new();
        for i in 0..3 {
            let server = SspServer::new().into_shared();
            let handler: Arc<dyn RequestHandler> = if cfg.trace {
                Arc::new(TracedHandler(Arc::clone(&server) as _))
            } else {
                Arc::clone(&server) as _
            };
            // One meter across the node links: the sum over every link.
            let mut link: Box<dyn Transport> =
                Box::new(InMemoryTransport::with_meter(handler, Arc::clone(&meter)));
            if cfg.trace {
                link = Box::new(TracedTransport::new(link, "net.node", Arc::clone(&node_links)));
            }
            cluster.add_node(&format!("node{i}"), link);
            nodes.push(server);
        }
        let cluster: Box<dyn Transport> = if cfg.trace {
            Box::new(TracedTransport::new(
                Box::new(cluster),
                "cluster.call",
                Arc::clone(&cluster_link),
            ))
        } else {
            Box::new(cluster)
        };

        let mut w = ClusterRpc {
            cluster,
            nodes,
            meter,
            cluster_link,
            node_links,
            model: BTreeMap::new(),
            live: Vec::new(),
            slot: HashMap::new(),
            zipf: Zipf::new(keys, ZIPF_S),
            mix: Mix::new(Rng::new(cfg.seed, 2), &MIX),
            sizes: Sizes::new(Rng::new(cfg.seed, 1), SIZES.0, SIZES.1, 16),
            pick: Rng::new(cfg.seed, 3),
            next_id: 0,
            salt: Rng::new(cfg.seed, 4).next_u64() >> 8,
            cursor: None,
            pinned: None,
            mutated: false,
            scan_pages: 0,
            proof_bytes: 0,
            proof_keys: 0,
            user_bytes: 0,
            live_bytes: 0,
        };
        // Preload the live key set in batches.
        while w.next_id < keys as u64 {
            let batch: Vec<(ObjectKey, Val)> = (0..256.min(keys as u64 - w.next_id))
                .map(|_| {
                    w.next_id += 1;
                    (key_of(w.next_id), w.new_val())
                })
                .collect();
            let items = batch.iter().map(|(k, v)| (*k, content(v.size as usize, v.salt))).collect();
            match w.cluster.call(&Request::PutMany { items }) {
                Ok(Response::Ok) => {}
                other => return Err(format!("preload: {}", brief(&other))),
            }
            for (k, v) in batch {
                w.insert_live(k, v);
            }
        }
        w.mutated = true;
        for _ in 0..warmup {
            if let Some(err) = w.step().error {
                return Err(format!("warm-up: {err}"));
            }
        }
        Ok(w)
    }

    fn step(&mut self) -> Step {
        match self.mix.draw() {
            Op::Get => {
                let rank = self.zipf.sample(&mut self.pick).min(self.live.len() - 1);
                let key = self.live[rank];
                let cluster = &mut self.cluster;
                let (step, r) = timed(Kind::Read, "op.get", || cluster.call(&Request::Get { key }));
                let val = self.model[&key];
                let error = match r {
                    Ok(Response::Object(Some(v))) if v == content(val.size as usize, val.salt) => {
                        None
                    }
                    other => Some(format!("get {key:?}: {}", brief(&other))),
                };
                step.with_error(error)
            }
            Op::PutNew => {
                self.next_id += 1;
                let (key, val) = (key_of(self.next_id), self.new_val());
                self.put(key, val, "op.put")
            }
            Op::PutOverwrite => {
                let key = self.live[self.pick.below(self.live.len() as u64) as usize];
                let val = self.new_val();
                self.put(key, val, "op.put")
            }
            Op::Delete => {
                let key = self.live[self.pick.below(self.live.len() as u64) as usize];
                let cluster = &mut self.cluster;
                let (step, r) =
                    timed(Kind::Write, "op.delete", || cluster.call(&Request::Delete { key }));
                self.remove_live(&key);
                self.mutated = true;
                let error = match r {
                    Ok(Response::Ok) => None,
                    other => Some(format!("delete {key:?}: {}", brief(&other))),
                };
                step.with_error(error)
            }
            Op::Scan => self.scan(),
        }
    }

    fn exhausted(&self) -> bool {
        false
    }

    fn counts(&self) -> Counts {
        let m = self.meter.sample();
        let (handle_ns, requests) = ssp_registry();
        Counts {
            bytes_up: m.bytes_up,
            bytes_down: m.bytes_down,
            round_trips: m.round_trips,
            crypto_ns: m.crypto_ns,
            cluster_calls: self.cluster_link.calls.load(Relaxed),
            node_calls: self.node_links.calls.load(Relaxed),
            union_fetches: self.node_links.index_calls.load(Relaxed),
            scan_pages: self.scan_pages,
            ssp_handle_ns: handle_ns,
            ssp_requests: requests,
            user_bytes_written: self.user_bytes,
            stored_bytes: self.nodes.iter().map(|n| n.store().byte_count()).sum(),
            live_user_bytes: self.live_bytes,
            ..Counts::default()
        }
    }

    fn count_window(cfg: &Config) -> u64 {
        cfg.pick(20_000, 2_000)
    }

    fn audit(&mut self) -> Result<(), String> {
        // A full verified scan must list exactly the model's key set.
        let mut after = None;
        let mut listed = Vec::new();
        loop {
            let (keys, done, root, proof) = match self
                .cluster
                .call(&Request::ScanVerified { after, limit: PAGE })
            {
                Ok(Response::KeysProof { keys, done, root, proof }) => (keys, done, root, proof),
                other => return Err(format!("audit scan: {}", brief(&other))),
            };
            verify_scan_page(&root, after.as_ref(), PAGE, &keys, done, &proof)
                .map_err(|e| format!("audit scan proof: {e}"))?;
            after = keys.last().copied().or(after);
            listed.extend(keys);
            if done {
                break;
            }
        }
        if !listed.iter().eq(self.model.keys()) {
            return Err(format!(
                "scan lists {} keys, model holds {}",
                listed.len(),
                self.model.len()
            ));
        }
        Ok(())
    }

    fn layer_info(&self) -> LayerInfo {
        LayerInfo {
            index_keys: self.model.len(),
            rsa: None,
            proof_bytes_keys: Some((self.proof_bytes, self.proof_keys)),
        }
    }
}
