//! [`ClusterTransport`]: the blob protocol fanned out over N SSP nodes.
//!
//! Implements the same [`Transport`] trait the client already mounts
//! through, so `sharoes-core` needs no changes to run against a cluster:
//!
//! * **Writes** (`Put`/`PutMany`/`Delete`/`DeleteMany`) go to the R ring
//!   replicas of each key and succeed once W of them acknowledge.
//! * **Reads** (`Get`/`GetMany`) survey the R replicas, reconcile by
//!   *presence wins* (a stored blob beats a miss; among differing blobs the
//!   majority wins, ring order breaking ties), and **read-repair** any
//!   replica that returned a stale or missing copy.
//! * **Scans** merge per-node key pages into one global ordered page.
//!
//! Blobs are client-sealed (encrypted + signed) before they reach this
//! layer, so replication never needs to understand content — the paper's
//! in-band key management is exactly what makes placement free to change.
//! The flip side: the SSP layer has no version numbers, so reconciliation
//! is heuristic. A write that reached only W < R replicas, followed by the
//! death of all W, *can* resurface an older blob — the client's signature
//! and freshness checks above this layer are what reject genuinely stale
//! state (see DESIGN.md §8 for the full invariant).

use crate::ring::HashRing;
use crate::sync::IndexSync;
use sharoes_net::{
    CostMeter, NetError, ObjectKey, Request, Response, Transport, TRANSIENT_ERROR_PREFIX,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Placement and quorum parameters for a [`ClusterTransport`].
#[derive(Clone, Copy, Debug)]
pub struct ClusterOpts {
    /// Replication factor R: copies kept per key.
    pub replication: usize,
    /// Write quorum W: acks required before a write succeeds. `0` means
    /// "majority of R" (the safe default); `1` maximizes availability at
    /// the cost of weaker durability until read repair catches up.
    pub write_quorum: usize,
    /// Virtual nodes per physical node (placement smoothness).
    pub vnodes: usize,
    /// Ring placement seed.
    pub seed: u64,
}

impl Default for ClusterOpts {
    fn default() -> Self {
        ClusterOpts { replication: 2, write_quorum: 0, vnodes: 64, seed: 0x5A0E5 }
    }
}

/// Counters describing cluster-layer behavior (failover, repair activity).
/// The only count of these facts; read it through
/// [`ClusterTransport::stats_handle`].
#[derive(Debug, Default)]
pub struct ClusterStats {
    failovers: AtomicU64,
    read_repairs: AtomicU64,
    quorum_shortfalls: AtomicU64,
    node_errors: AtomicU64,
}

/// A point-in-time copy of [`ClusterStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterStatsSample {
    /// Reads served despite the preferred replica failing.
    pub failovers: u64,
    /// Replica copies re-written because a read found them stale/missing.
    pub read_repairs: u64,
    /// Writes that succeeded with fewer than R (but ≥ W) acks.
    pub quorum_shortfalls: u64,
    /// Individual node calls that failed.
    pub node_errors: u64,
}

impl ClusterStatsSample {
    /// The counts under their series names.
    pub fn series(&self) -> [(&'static str, u64); 4] {
        [
            ("cluster_failovers_total", self.failovers),
            ("cluster_read_repairs_total", self.read_repairs),
            ("cluster_quorum_shortfalls_total", self.quorum_shortfalls),
            ("cluster_node_errors_total", self.node_errors),
        ]
    }
}

impl ClusterStats {
    fn bump_failovers(&self, n: u64) {
        self.failovers.fetch_add(n, Ordering::Relaxed);
    }

    fn bump_read_repairs(&self, n: u64) {
        self.read_repairs.fetch_add(n, Ordering::Relaxed);
    }

    fn bump_quorum_shortfalls(&self) {
        self.quorum_shortfalls.fetch_add(1, Ordering::Relaxed);
    }

    fn bump_node_errors(&self) {
        self.node_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Current totals.
    pub fn sample(&self) -> ClusterStatsSample {
        ClusterStatsSample {
            failovers: self.failovers.load(Ordering::Relaxed),
            read_repairs: self.read_repairs.load(Ordering::Relaxed),
            quorum_shortfalls: self.quorum_shortfalls.load(Ordering::Relaxed),
            node_errors: self.node_errors.load(Ordering::Relaxed),
        }
    }
}

struct Node {
    name: String,
    transport: Box<dyn Transport>,
    retired: bool,
}

/// The blob protocol fanned out over a ring of SSP nodes.
pub struct ClusterTransport {
    opts: ClusterOpts,
    ring: HashRing,
    nodes: Vec<Node>,
    meter: Arc<CostMeter>,
    stats: Arc<ClusterStats>,
    /// Every node's last verified index tree, the memo of decoded index
    /// nodes they reach, and the union index maintained from their key
    /// deltas (see `sync.rs`).
    pub(crate) sync: IndexSync,
}

impl ClusterTransport {
    /// An empty cluster with its own meter; add nodes before use.
    pub fn new(opts: ClusterOpts) -> Self {
        Self::with_meter(opts, CostMeter::new_shared())
    }

    /// An empty cluster charging an existing meter. Per-node transports
    /// keep their own meters; share one across them and this cluster to get
    /// a single aggregate (the bench harness does exactly that).
    pub fn with_meter(opts: ClusterOpts, meter: Arc<CostMeter>) -> Self {
        assert!(opts.replication >= 1, "replication factor must be at least 1");
        ClusterTransport {
            ring: HashRing::new(opts.seed, opts.vnodes),
            opts,
            nodes: Vec::new(),
            meter,
            stats: Arc::new(ClusterStats::default()),
            sync: IndexSync::default(),
        }
    }

    /// Adds a named node backed by `transport` and places it on the ring.
    ///
    /// # Panics
    /// If the name is already present (including retired nodes — a retired
    /// slot keeps its name so stats stay attributable).
    pub fn add_node(&mut self, name: &str, transport: Box<dyn Transport>) {
        assert!(!self.nodes.iter().any(|n| n.name == name), "duplicate cluster node name: {name}");
        self.ring.add_node(name);
        self.nodes.push(Node { name: name.to_string(), transport, retired: false });
    }

    /// Takes a node off the ring (crash response or planned decommission).
    /// Its keys become the responsibility of the next ring replicas; run
    /// [`Self::rebalance`](crate::rebalance) to restore R copies of
    /// everything it held. Returns false if no active node has this name.
    pub fn retire_node(&mut self, name: &str) -> bool {
        let Some(node) = self.nodes.iter_mut().find(|n| n.name == name && !n.retired) else {
            return false;
        };
        node.retired = true;
        self.ring.remove_node(name)
    }

    /// Names of nodes currently serving (on the ring).
    pub fn active_nodes(&self) -> Vec<&str> {
        self.nodes.iter().filter(|n| !n.retired).map(|n| n.name.as_str()).collect()
    }

    /// The placement ring (active nodes only).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The configured replication factor R.
    pub fn replication(&self) -> usize {
        self.opts.replication
    }

    /// The effective write quorum W (resolving `0` to majority of R).
    pub fn write_quorum(&self) -> usize {
        if self.opts.write_quorum == 0 {
            self.opts.replication / 2 + 1
        } else {
            self.opts.write_quorum.min(self.opts.replication)
        }
    }

    /// A handle to the cluster's behavior counters, readable after the
    /// transport itself has been handed to a client.
    pub fn stats_handle(&self) -> Arc<ClusterStats> {
        Arc::clone(&self.stats)
    }

    /// Total node slots, retired included (slot indices are stable).
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// True if slot `idx` is still serving.
    pub(crate) fn is_active(&self, idx: usize) -> bool {
        !self.nodes[idx].retired
    }

    /// Node indices holding replicas of `key`, in ring preference order.
    pub(crate) fn replica_indices(&self, key: &ObjectKey) -> Vec<usize> {
        self.ring
            .replicas(key, self.opts.replication)
            .into_iter()
            .map(|name| {
                self.nodes
                    .iter()
                    .position(|n| n.name == name)
                    .expect("ring node has a transport slot")
            })
            .collect()
    }

    pub(crate) fn active_indices(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|i| !self.nodes[*i].retired).collect()
    }

    /// One call to one node. `Response::Error` is folded into the error
    /// path so every caller sees a single failure channel; retired slots
    /// fail `Closed` without a node-error bump.
    pub(crate) fn node_call(
        &mut self,
        idx: usize,
        request: &Request,
    ) -> Result<Response, NetError> {
        let node = &mut self.nodes[idx];
        if node.retired {
            return Err(NetError::Closed);
        }
        // One trace span per replica touch: the child transport's `ssp.rpc`
        // span (and everything the remote node does) nests under this, so a
        // cross-node trace tree shows which replica served each leg.
        let _span =
            sharoes_obs::SpanGuard::enter("cluster.replica", || format!("node={:?}", node.name));
        let outcome = match node.transport.call(request) {
            Ok(Response::Error(msg)) => Err(NetError::Remote(msg)),
            other => other,
        };
        if outcome.is_err() {
            self.stats.bump_node_errors();
        }
        outcome
    }

    /// Issues one request per target node, in order, returning outcomes in
    /// call order. Sequential calls keep per-node fault-schedule draws and
    /// trace span order deterministic, which the pinned-seed gates rely on.
    pub(crate) fn fan_calls(
        &mut self,
        calls: &[(usize, Request)],
    ) -> Vec<Result<Response, NetError>> {
        calls.iter().map(|(idx, req)| self.node_call(*idx, req)).collect()
    }

    pub(crate) fn no_nodes_err() -> NetError {
        NetError::Remote(format!("{TRANSIENT_ERROR_PREFIX}: cluster has no active nodes"))
    }

    /// Replicated single-key write (`Put`/`Delete`): R replicas, W acks.
    fn write_one(&mut self, key: &ObjectKey, request: &Request) -> Result<Response, NetError> {
        let replicas = self.replica_indices(key);
        if replicas.is_empty() {
            return Err(Self::no_nodes_err());
        }
        let need = self.write_quorum().min(replicas.len());
        let total = replicas.len();
        let calls: Vec<(usize, Request)> =
            replicas.into_iter().map(|idx| (idx, request.clone())).collect();
        let mut acks = 0usize;
        let mut last_err: Option<NetError> = None;
        for outcome in self.fan_calls(&calls) {
            match outcome {
                Ok(Response::Ok) => acks += 1,
                Ok(_) => last_err = Some(NetError::Codec("unexpected write response shape")),
                Err(e) => last_err = Some(e),
            }
        }
        self.settle_write(acks, need, total, last_err)
    }

    /// Replicated batch write (`PutMany`/`DeleteMany`): items are grouped
    /// into one sub-request per node; every item needs W acks.
    fn write_many(
        &mut self,
        keys: &[ObjectKey],
        build: impl Fn(&[usize]) -> Request,
    ) -> Result<Response, NetError> {
        if keys.is_empty() {
            return Ok(Response::Ok);
        }
        let replica_sets: Vec<Vec<usize>> = keys.iter().map(|k| self.replica_indices(k)).collect();
        if replica_sets.iter().any(|r| r.is_empty()) {
            return Err(Self::no_nodes_err());
        }
        let mut per_node: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (item, replicas) in replica_sets.iter().enumerate() {
            for idx in replicas {
                per_node.entry(*idx).or_default().push(item);
            }
        }
        let calls: Vec<(usize, Request)> =
            per_node.iter().map(|(idx, items)| (*idx, build(items))).collect();
        let mut acks = vec![0usize; keys.len()];
        let mut last_err: Option<NetError> = None;
        for ((_, items), outcome) in per_node.iter().zip(self.fan_calls(&calls)) {
            match outcome {
                Ok(Response::Ok) => {
                    for i in items {
                        acks[*i] += 1;
                    }
                }
                Ok(_) => last_err = Some(NetError::Codec("unexpected write response shape")),
                Err(e) => last_err = Some(e),
            }
        }
        // The whole batch succeeds only if every item met its quorum; the
        // worst-off item decides.
        let need = self.write_quorum();
        let satisfied =
            acks.iter().zip(&replica_sets).all(|(a, replicas)| *a >= need.min(replicas.len()));
        if satisfied {
            if acks.iter().zip(&replica_sets).any(|(a, replicas)| *a < replicas.len()) {
                self.stats.bump_quorum_shortfalls();
            }
            Ok(Response::Ok)
        } else {
            let worst = acks.iter().copied().min().unwrap_or(0);
            Err(last_err.unwrap_or_else(|| {
                NetError::Remote(format!(
                    "{TRANSIENT_ERROR_PREFIX}: write quorum not met ({worst}/{need} acks)"
                ))
            }))
        }
    }

    /// Shared tail of the write paths: quorum check + shortfall accounting.
    fn settle_write(
        &mut self,
        acks: usize,
        need: usize,
        total: usize,
        last_err: Option<NetError>,
    ) -> Result<Response, NetError> {
        if acks >= need {
            if acks < total {
                self.stats.bump_quorum_shortfalls();
            }
            Ok(Response::Ok)
        } else {
            Err(last_err.unwrap_or_else(|| {
                NetError::Remote(format!(
                    "{TRANSIENT_ERROR_PREFIX}: write quorum not met ({acks}/{need} acks)"
                ))
            }))
        }
    }

    /// Picks the winning value among replica responses: presence beats
    /// absence; among present values the most-replicated wins, with ring
    /// order breaking ties. Returns `(winner, responders_to_repair)`.
    pub(crate) fn reconcile(responses: &[(usize, Option<Vec<u8>>)]) -> Option<Vec<u8>> {
        let mut candidates: Vec<(&Vec<u8>, usize)> = Vec::new();
        for (_, value) in responses {
            if let Some(v) = value {
                match candidates.iter_mut().find(|(c, _)| *c == v) {
                    Some((_, count)) => *count += 1,
                    None => candidates.push((v, 1)),
                }
            }
        }
        // `candidates` is in first-seen (ring) order, so max_by_key with a
        // strict `>` keeps the earliest on ties.
        candidates.iter().max_by_key(|(_, count)| *count).map(|(v, _)| (*v).clone())
    }

    /// Quorum read with failover + read repair for one key.
    fn read_one(&mut self, key: &ObjectKey) -> Result<Response, NetError> {
        let replicas = self.replica_indices(key);
        if replicas.is_empty() {
            return Err(Self::no_nodes_err());
        }
        let calls: Vec<(usize, Request)> =
            replicas.iter().map(|idx| (*idx, Request::Get { key: *key })).collect();
        let mut responses: Vec<(usize, Option<Vec<u8>>)> = Vec::with_capacity(replicas.len());
        let mut primary_failed = false;
        let mut last_err: Option<NetError> = None;
        for (pos, (idx, outcome)) in replicas.iter().zip(self.fan_calls(&calls)).enumerate() {
            match outcome {
                Ok(Response::Object(v)) => responses.push((*idx, v)),
                Ok(_) => last_err = Some(NetError::Codec("unexpected read response shape")),
                Err(e) => {
                    if pos == 0 {
                        primary_failed = true;
                    }
                    last_err = Some(e);
                }
            }
        }
        if responses.is_empty() {
            return Err(last_err.unwrap_or_else(Self::no_nodes_err));
        }
        if primary_failed {
            self.stats.bump_failovers(1);
        }
        let winner = Self::reconcile(&responses);
        if let Some(value) = &winner {
            let stale: Vec<usize> = responses
                .iter()
                .filter(|(_, v)| v.as_ref() != Some(value))
                .map(|(idx, _)| *idx)
                .collect();
            for idx in stale {
                // Best effort: a failed repair leaves the replica for the
                // next divergent read or the rebalancer.
                if self.node_call(idx, &Request::Put { key: *key, value: value.clone() }).is_ok() {
                    self.stats.bump_read_repairs(1);
                }
            }
        }
        Ok(Response::Object(winner))
    }

    /// Batched quorum read: one `GetMany` per involved node, reassembled
    /// per key with the same reconcile + repair rules as [`Self::read_one`].
    fn read_many(&mut self, keys: &[ObjectKey]) -> Result<Response, NetError> {
        if keys.is_empty() {
            return Ok(Response::Objects(Vec::new()));
        }
        let replica_sets: Vec<Vec<usize>> = keys.iter().map(|k| self.replica_indices(k)).collect();
        if replica_sets.iter().any(|r| r.is_empty()) {
            return Err(Self::no_nodes_err());
        }
        let mut per_node: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (item, replicas) in replica_sets.iter().enumerate() {
            for idx in replicas {
                per_node.entry(*idx).or_default().push(item);
            }
        }
        let calls: Vec<(usize, Request)> = per_node
            .iter()
            .map(|(idx, items)| {
                (*idx, Request::GetMany { keys: items.iter().map(|i| keys[*i]).collect() })
            })
            .collect();
        let mut got: Vec<Vec<(usize, Option<Vec<u8>>)>> = vec![Vec::new(); keys.len()];
        let mut failed_nodes: Vec<usize> = Vec::new();
        let mut last_err: Option<NetError> = None;
        for ((idx, items), outcome) in per_node.iter().zip(self.fan_calls(&calls)) {
            match outcome {
                Ok(Response::Objects(values)) if values.len() == items.len() => {
                    for (i, v) in items.iter().zip(values) {
                        got[*i].push((*idx, v));
                    }
                }
                Ok(_) => {
                    failed_nodes.push(*idx);
                    last_err = Some(NetError::Codec("unexpected read response shape"));
                }
                Err(e) => {
                    failed_nodes.push(*idx);
                    last_err = Some(e);
                }
            }
        }
        let mut out: Vec<Option<Vec<u8>>> = Vec::with_capacity(keys.len());
        let mut repairs: BTreeMap<usize, Vec<(ObjectKey, Vec<u8>)>> = BTreeMap::new();
        let mut failovers = 0u64;
        for (i, key) in keys.iter().enumerate() {
            if got[i].is_empty() {
                // Every replica failed: returning None here would let a
                // total outage masquerade as a deleted object.
                return Err(last_err.unwrap_or_else(Self::no_nodes_err));
            }
            if failed_nodes.contains(&replica_sets[i][0]) {
                failovers += 1;
            }
            let winner = Self::reconcile(&got[i]);
            if let Some(value) = &winner {
                for (idx, v) in &got[i] {
                    if v.as_ref() != Some(value) {
                        repairs.entry(*idx).or_default().push((*key, value.clone()));
                    }
                }
            }
            out.push(winner);
        }
        self.stats.bump_failovers(failovers);
        for (idx, items) in repairs {
            let count = items.len() as u64;
            if self.node_call(idx, &Request::PutMany { items }).is_ok() {
                self.stats.bump_read_repairs(count);
            }
        }
        Ok(Response::Objects(out))
    }

    /// Fan-out to every active node; succeeds when ≥ `need` nodes ack.
    fn fanout_all(&mut self, request: &Request, need: usize) -> Result<Response, NetError> {
        let active = self.active_indices();
        if active.is_empty() {
            return Err(Self::no_nodes_err());
        }
        let need = need.min(active.len()).max(1);
        let total = active.len();
        let calls: Vec<(usize, Request)> =
            active.into_iter().map(|idx| (idx, request.clone())).collect();
        let mut acks = 0usize;
        let mut last_err = None;
        for outcome in self.fan_calls(&calls) {
            match outcome {
                Ok(Response::Ok) => acks += 1,
                Ok(_) => last_err = Some(NetError::Codec("unexpected response shape")),
                Err(e) => last_err = Some(e),
            }
        }
        self.settle_write(acks, need, total, last_err)
    }

    /// Merged global key scan: each node reports its page after the cursor;
    /// pages are merged, deduplicated (replicas!), and re-limited.
    fn scan(&mut self, after: &Option<ObjectKey>, limit: u32) -> Result<Response, NetError> {
        let active = self.active_indices();
        if active.is_empty() {
            return Err(Self::no_nodes_err());
        }
        let calls: Vec<(usize, Request)> =
            active.into_iter().map(|idx| (idx, Request::Scan { after: *after, limit })).collect();
        let mut merged: Vec<ObjectKey> = Vec::new();
        let mut all_done = true;
        let mut any_ok = false;
        let mut last_err = None;
        for outcome in self.fan_calls(&calls) {
            match outcome {
                Ok(Response::Keys { keys, done }) => {
                    merged.extend(keys);
                    all_done &= done;
                    any_ok = true;
                }
                Ok(_) => last_err = Some(NetError::Codec("unexpected scan response shape")),
                Err(e) => last_err = Some(e),
            }
        }
        if !any_ok {
            return Err(last_err.unwrap_or_else(Self::no_nodes_err));
        }
        merged.sort_unstable();
        merged.dedup();
        let done = all_done && merged.len() <= limit as usize;
        merged.truncate(limit as usize);
        Ok(Response::Keys { keys: merged, done })
    }

    /// First active node that answers the ping.
    fn ping(&mut self) -> Result<Response, NetError> {
        let active = self.active_indices();
        let mut last_err = None;
        for (pos, idx) in active.iter().enumerate() {
            match self.node_call(*idx, &Request::Ping) {
                Ok(Response::Pong) => {
                    if pos > 0 {
                        self.stats.bump_failovers(1);
                    }
                    return Ok(Response::Pong);
                }
                Ok(_) => last_err = Some(NetError::Codec("unexpected ping response shape")),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(Self::no_nodes_err))
    }

    /// Metrics exposition fanned out to every active node, concatenated with
    /// `# node <name>` section headers so per-node series stay attributable.
    fn metrics_call(&mut self) -> Result<Response, NetError> {
        let active = self.active_indices();
        let calls: Vec<(usize, Request)> =
            active.iter().map(|idx| (*idx, Request::Metrics)).collect();
        let mut text = String::new();
        let mut any_ok = false;
        let mut last_err = None;
        let outcomes = self.fan_calls(&calls);
        for (idx, outcome) in active.into_iter().zip(outcomes) {
            let name = self.nodes[idx].name.clone();
            match outcome {
                Ok(Response::Metrics { text: node_text }) => {
                    text.push_str(&format!("# node {name}\n"));
                    text.push_str(&node_text);
                    any_ok = true;
                }
                Ok(_) => last_err = Some(NetError::Codec("unexpected metrics response shape")),
                Err(e) => last_err = Some(e),
            }
        }
        if any_ok {
            Ok(Response::Metrics { text })
        } else {
            Err(last_err.unwrap_or_else(Self::no_nodes_err))
        }
    }

    /// Trace-buffer scrape fanned out to every active node. `max` is a
    /// *per-node* budget; each event is stamped with its node's name (unless
    /// a deeper layer already stamped it) so the shell can assemble
    /// cross-node span trees keyed by trace id.
    fn trace_call(&mut self, max: u32) -> Result<Response, NetError> {
        let active = self.active_indices();
        let calls: Vec<(usize, Request)> =
            active.iter().map(|idx| (*idx, Request::Trace { max })).collect();
        let mut events = Vec::new();
        let mut dropped = 0u64;
        let mut any_ok = false;
        let mut last_err = None;
        let outcomes = self.fan_calls(&calls);
        for (idx, outcome) in active.into_iter().zip(outcomes) {
            let name = self.nodes[idx].name.clone();
            match outcome {
                Ok(Response::Trace { events: node_events, dropped: d }) => {
                    for mut ev in node_events {
                        if ev.node.is_empty() {
                            ev.node = name.clone();
                        }
                        events.push(ev);
                    }
                    dropped += d;
                    any_ok = true;
                }
                Ok(_) => last_err = Some(NetError::Codec("unexpected trace response shape")),
                Err(e) => last_err = Some(e),
            }
        }
        if any_ok {
            Ok(Response::Trace { events, dropped })
        } else {
            Err(last_err.unwrap_or_else(Self::no_nodes_err))
        }
    }
}

impl Transport for ClusterTransport {
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        match request {
            Request::Ping => self.ping(),
            Request::Put { key, .. } => self.write_one(key, request),
            Request::Delete { key } => self.write_one(key, request),
            Request::PutMany { items } => {
                let keys: Vec<ObjectKey> = items.iter().map(|(k, _)| *k).collect();
                let items = items.clone();
                self.write_many(&keys, |ids| Request::PutMany {
                    items: ids.iter().map(|i| items[*i].clone()).collect(),
                })
            }
            Request::DeleteMany { keys } => {
                let keys = keys.clone();
                self.write_many(&keys, |ids| Request::DeleteMany {
                    keys: ids.iter().map(|i| keys[*i]).collect(),
                })
            }
            Request::Get { key } => self.read_one(key),
            Request::GetMany { keys } => {
                let keys = keys.clone();
                self.read_many(&keys)
            }
            // Blocks of one (inode, view) scatter across the ring, so the
            // bulk delete must visit every node; W acks keep it available
            // under partial failure (best effort, like all deletes here).
            Request::DeleteBlocks { .. } => {
                let need = self.write_quorum();
                self.fanout_all(request, need)
            }
            Request::Metrics => self.metrics_call(),
            Request::Trace { max } => self.trace_call(*max),
            Request::Scan { after, limit } => {
                let (after, limit) = (*after, *limit);
                self.scan(&after, limit)
            }
            // The authenticated-index view of the cluster: a single union
            // index over every active node's keyspace (see `sync.rs`), so
            // clients can pin one root and verify cluster-wide scans the
            // same way they verify a single SSP's.
            Request::Root => self.union_root(),
            Request::IndexNode { hash } => {
                let hash = *hash;
                self.union_node(&hash)
            }
            Request::ScanVerified { after, limit } => {
                let (after, limit) = (*after, *limit);
                self.scan_verified(&after, limit)
            }
        }
    }

    fn meter(&self) -> &Arc<CostMeter> {
        &self.meter
    }
}
