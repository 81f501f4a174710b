//! [`ClusterTransport`]: the blob protocol fanned out over N SSP nodes.
//!
//! Implements the same [`Transport`] trait the client already mounts
//! through, so `sharoes-core` needs no changes to run against a cluster:
//!
//! * **Writes** (`Put`/`PutMany`/`Delete`/`Mutate`) go to the R ring
//!   replicas of each key and succeed once W of them acknowledge. A batch
//!   is one sub-request per node holding any of its keys. A `Mutate` that
//!   drops views goes to every active node, since a view's data keys
//!   scatter across the ring, and also needs W of them to acknowledge.
//! * **Reads** (`Get`/`GetMany`) survey the R replicas, put each key's
//!   replies in its ring order, reconcile by *presence wins* (a stored blob
//!   beats a miss; among differing blobs the majority wins, and a tie goes
//!   to the later replica in ring order), and **read-repair** any replica
//!   that returned a stale or missing copy.
//! * Every keyed request, one key or a batch, takes one of two fan-outs,
//!   [`ClusterTransport`]'s write or read path. A node whose share of the
//!   keys is the whole request is sent the caller's request itself.
//! * **Scans** are served from the union index (see `sync.rs`), which
//!   holds the deduplicated union of every node's keys.
//!
//! Blobs are client-sealed (encrypted + signed) before they reach this
//! layer, so replication never needs to understand content — the paper's
//! in-band key management is exactly what makes placement free to change.
//! The flip side: the SSP layer has no version numbers, so reconciliation
//! is heuristic. A write that reached only W < R replicas, followed by the
//! death of all W, *can* resurface an older blob — the client's signature
//! and freshness checks above this layer are what reject a stale metadata
//! replica or data manifest; directory-table replicas carry no version, so
//! a stale one is accepted (see DESIGN.md §7.2 and §8.2).

use crate::ring::HashRing;
use crate::sync::IndexSync;
use sharoes_net::{
    CostMeter, NetError, ObjectKey, Request, Response, Transport, TRANSIENT_ERROR_PREFIX,
};
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

/// Where a keyed request's items live: each item's replica nodes in ring
/// order, and every node holding any of them.
#[derive(Default)]
struct Placement {
    /// Replicas per item: `min(R, active nodes)`, the same for every key
    /// (1 when there are no items, so `rings.chunks(r)` is always valid).
    r: usize,
    /// Item `i`'s replicas are `rings[i * r..(i + 1) * r]`.
    rings: Vec<usize>,
    /// The nodes in the order they first appear walking `rings`.
    nodes: Vec<usize>,
}

impl Placement {
    /// The ids of the items node `idx` holds, ascending: its share.
    fn share(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        let held =
            self.rings.chunks(self.r).enumerate().filter(move |(_, ring)| ring.contains(&idx));
        held.map(|(i, _)| i)
    }

    /// The ring position of item `item`'s replica on node `idx`.
    fn pos(&self, item: usize, idx: usize) -> usize {
        let pos = self.rings[item * self.r..][..self.r].iter().position(|n| *n == idx);
        pos.expect("a share's node is a replica of each of its items")
    }
}

/// The blob protocol fanned out over a ring of SSP nodes.
pub struct ClusterTransport {
    opts: ClusterOpts,
    ring: HashRing,
    nodes: Vec<Node>,
    /// The slot in `nodes` of each ring node, by its index on the ring.
    slots: Vec<usize>,
    meter: Arc<CostMeter>,
    stats: Arc<ClusterStats>,
    /// Every node's last verified index tree, the memo of decoded index
    /// nodes they reach, and the union index maintained from their key
    /// deltas (see `sync.rs`).
    pub(crate) sync: IndexSync,
    /// The last keyed request's placement, kept so the next one reuses its
    /// buffers (see `place`).
    place: Placement,
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
            slots: Vec::new(),
            meter,
            stats: Arc::new(ClusterStats::default()),
            sync: IndexSync::default(),
            place: Placement::default(),
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
        self.map_ring_slots();
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
        let removed = self.ring.remove_node(name);
        self.map_ring_slots();
        removed
    }

    /// Re-derives `slots` after the ring's membership changed.
    fn map_ring_slots(&mut self) {
        let slot = |name: &String| self.nodes.iter().position(|n| n.name == *name);
        let slots =
            self.ring.nodes().iter().map(|name| slot(name).expect("a ring node has a slot"));
        self.slots = slots.collect();
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

    /// The nodes holding replicas of `key`, in ring preference order.
    pub(crate) fn replicas(&self, key: &ObjectKey) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.opts.replication);
        self.place_key(key, &mut out);
        out
    }

    /// Appends the slots of `key`'s replicas to `out`, in ring preference
    /// order.
    fn place_key(&self, key: &ObjectKey, out: &mut Vec<usize>) {
        let start = out.len();
        self.ring.place(key, self.opts.replication, out);
        for idx in &mut out[start..] {
            *idx = self.slots[*idx];
        }
    }

    pub(crate) fn active_indices(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|i| !self.nodes[*i].retired).collect()
    }

    /// One call to one node. Retired slots fail `Closed` without a
    /// node-error bump.
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
        let outcome = node.transport.call(request);
        if outcome.is_err() {
            self.stats.node_errors.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    pub(crate) fn no_nodes_err() -> NetError {
        NetError::Remote(format!("{TRANSIENT_ERROR_PREFIX}: cluster has no active nodes"))
    }

    /// The placement of `keys`. Nodes come in the order they first appear
    /// walking the keys and each key's replicas in ring order, so a one-key
    /// request visits its replicas in ring order. It is built in the
    /// buffers of the last request's placement; a fan-out hands them back
    /// (`self.place = place`) when it is done, so grouping a one-key request
    /// allocates nothing (an allocation costs about as much as the grouping).
    fn place(&mut self, keys: &[ObjectKey]) -> Result<Placement, NetError> {
        let mut place = std::mem::take(&mut self.place);
        place.rings.clear();
        place.nodes.clear();
        place.r = 1;
        for key in keys {
            let start = place.rings.len();
            self.place_key(key, &mut place.rings);
            place.r = place.rings.len() - start;
            if place.r == 0 {
                return Err(Self::no_nodes_err());
            }
            for i in start..place.rings.len() {
                if !place.nodes.contains(&place.rings[i]) {
                    place.nodes.push(place.rings[i]);
                }
            }
        }
        Ok(place)
    }

    /// Sends each of `place`'s nodes its share, in order: the caller's
    /// `request` itself when the share is all `items`, else `build` of the
    /// share's item ids. `take` gets each node's reply and refuses one of the
    /// wrong shape. Returns the nodes whose call failed or was refused, and
    /// the last error.
    fn send_shares(
        &mut self,
        place: &Placement,
        items: usize,
        request: &Request,
        build: impl Fn(&[usize]) -> Request,
        mut take: impl FnMut(usize, Response) -> Result<(), NetError>,
    ) -> (Vec<usize>, Option<NetError>) {
        let mut failed = Vec::new();
        let mut last_err = None;
        for idx in &place.nodes {
            let outcome = if place.share(*idx).count() == items {
                self.node_call(*idx, request)
            } else {
                self.node_call(*idx, &build(&place.share(*idx).collect::<Vec<_>>()))
            };
            if let Err(e) = outcome.and_then(|reply| take(*idx, reply)) {
                failed.push(*idx);
                last_err = Some(e);
            }
        }
        (failed, last_err)
    }

    /// Replicated write (`Put`/`Delete`/`PutMany`/`Mutate`): each keyed item
    /// goes to its R replicas and needs W acks. A node whose share is the
    /// whole request is sent `request` itself; any other gets `build` of its
    /// item ids. With `everywhere`, every active node gets a share, possibly
    /// with no items, and W of them must ack it too.
    fn write(
        &mut self,
        request: &Request,
        keys: &[ObjectKey],
        everywhere: bool,
        build: impl Fn(&[usize]) -> Request,
    ) -> Result<Response, NetError> {
        let mut place = self.place(keys)?;
        if everywhere {
            let active = self.active_indices();
            if active.is_empty() {
                return Err(Self::no_nodes_err());
            }
            for idx in active {
                if !place.nodes.contains(&idx) {
                    place.nodes.push(idx);
                }
            }
        }
        let (failed, last_err) =
            self.send_shares(&place, keys.len(), request, build, |_, reply| match reply {
                Response::Ok => Ok(()),
                _ => Err(NetError::Codec("unexpected write response shape")),
            });
        // The whole request succeeds only if every item, and the fan-out to
        // every node, met its quorum; the worst-off one decides.
        let need = self.write_quorum();
        // `(acks, replicas)` of every item, then of the fan-out to every node.
        let items = place
            .rings
            .chunks(place.r)
            .map(|ring| (ring.iter().filter(|n| !failed.contains(n)).count(), ring.len()));
        let fan_out = everywhere.then_some((place.nodes.len() - failed.len(), place.nodes.len()));
        let tallies = items.chain(fan_out);
        // Only a failed node can leave a quorum short.
        let short =
            !failed.is_empty() && tallies.clone().any(|(acks, total)| acks < need.min(total));
        let worst = short.then(|| tallies.map(|(acks, _)| acks).min().unwrap_or(0));
        self.place = place;
        if let Some(worst) = worst {
            return Err(last_err.unwrap_or_else(|| {
                NetError::Remote(format!(
                    "{TRANSIENT_ERROR_PREFIX}: write quorum not met ({worst}/{need} acks)"
                ))
            }));
        }
        if !failed.is_empty() {
            self.stats.quorum_shortfalls.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Response::Ok)
    }

    /// Picks the winning value among one key's replica replies, given in
    /// that key's ring order: presence beats absence; among present values
    /// the most-replicated wins, and a tie goes to the value whose first
    /// reply is later in ring order. Every read path and rebalance apply
    /// this one rule. Returns the position of a reply holding the winner, so
    /// the caller can move the value out; `None` when no replica holds the
    /// key.
    pub(crate) fn reconcile<'a>(
        replies: impl Iterator<Item = Option<&'a Vec<u8>>> + Clone,
    ) -> Option<usize> {
        // `(replies holding the value, position of its first reply)`.
        let mut best: Option<(usize, usize)> = None;
        for (pos, value) in replies.clone().enumerate() {
            // Count each value once, at its first reply.
            if value.is_none() || replies.clone().take(pos).any(|v| v == value) {
                continue;
            }
            let count = 1 + replies.clone().skip(pos + 1).filter(|v| *v == value).count();
            // Values come in ring order, so `>=` hands a tie to the later one.
            if best.is_none_or(|(most, _)| count >= most) {
                best = Some((count, pos));
            }
        }
        best.map(|(_, pos)| pos)
    }

    /// Quorum read (`Get`/`GetMany`) with failover and read repair: each
    /// key's replicas are surveyed, their replies put in the key's ring
    /// order and reconciled, and every replica that answered with a missing
    /// or different copy is re-put the winner (one item as `Put`, more as
    /// `PutMany`). A node whose share is the whole request is sent `request`
    /// itself, and answers a `Get` with `Object`; any other share goes as a
    /// `GetMany`. Hands each key's value to `emit`, in key order.
    fn read(
        &mut self,
        request: &Request,
        keys: &[ObjectKey],
        mut emit: impl FnMut(Option<Vec<u8>>),
    ) -> Result<(), NetError> {
        let place = self.place(keys)?;
        let one = matches!(request, Request::Get { .. });
        // `(item, ring position, node, reply)` for each reply received.
        let mut got: Vec<(usize, usize, usize, Option<Vec<u8>>)> =
            Vec::with_capacity(place.rings.len());
        let build =
            |ids: &[usize]| Request::GetMany { keys: ids.iter().map(|i| keys[*i]).collect() };
        let (failed, last_err) =
            self.send_shares(&place, keys.len(), request, build, |idx, reply| match reply {
                Response::Object(v) if one => {
                    got.push((0, place.pos(0, idx), idx, v));
                    Ok(())
                }
                Response::Objects(values) if !one && values.len() == place.share(idx).count() => {
                    for (i, v) in place.share(idx).zip(values) {
                        got.push((i, place.pos(i, idx), idx, v));
                    }
                    Ok(())
                }
                _ => Err(NetError::Codec("unexpected read response shape")),
            });
        // Each key's replies together, in its ring order.
        got.sort_unstable_by_key(|(i, pos, ..)| (*i, *pos));
        let mut by_key = got.chunk_by_mut(|a, b| a.0 == b.0).peekable();
        let mut repairs: Vec<(usize, Vec<_>)> = Vec::new();
        let mut failovers = 0u64;
        for (i, key) in keys.iter().enumerate() {
            let Some(replies) = by_key.next_if(|replies| replies[0].0 == i) else {
                // Every replica failed: returning None here would let a
                // total outage masquerade as a deleted object.
                return Err(last_err.unwrap_or_else(Self::no_nodes_err));
            };
            if failed.contains(&place.rings[i * place.r]) {
                failovers += 1;
            }
            let Some(win) = Self::reconcile(replies.iter().map(|(.., v)| v.as_ref())) else {
                emit(None);
                continue;
            };
            let winner = replies[win].3.take();
            if let Some(value) = &winner {
                for (pos, (.., idx, v)) in replies.iter().enumerate() {
                    if pos == win || v.as_ref() == Some(value) {
                        continue;
                    }
                    let item = (*key, value.clone());
                    match repairs.iter_mut().find(|(n, _)| n == idx) {
                        Some((_, items)) => items.push(item),
                        None => repairs.push((*idx, vec![item])),
                    }
                }
            }
            emit(winner);
        }
        self.place = place;
        if failovers > 0 {
            self.stats.failovers.fetch_add(failovers, Ordering::Relaxed);
        }
        // Best effort: a failed repair leaves the replica for the next
        // divergent read or the rebalancer.
        for (idx, mut items) in repairs {
            let count = items.len() as u64;
            let repair = if items.len() == 1 {
                let (key, value) = items.remove(0);
                Request::Put { key, value }
            } else {
                Request::PutMany { items }
            };
            if self.node_call(idx, &repair).is_ok() {
                self.stats.read_repairs.fetch_add(count, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// First active node that answers the ping.
    fn ping(&mut self) -> Result<Response, NetError> {
        let active = self.active_indices();
        let mut last_err = None;
        for (pos, idx) in active.iter().enumerate() {
            match self.node_call(*idx, &Request::Ping) {
                Ok(Response::Pong) => {
                    if pos > 0 {
                        self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(Response::Pong);
                }
                Ok(_) => last_err = Some(NetError::Codec("unexpected ping response shape")),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(Self::no_nodes_err))
    }

    /// Sends `request` to every active node, in slot order, and hands each
    /// reply to `take` with the node's name; `take` refuses a reply of the
    /// wrong shape. Fails only when no node's reply was taken.
    fn scrape(
        &mut self,
        request: &Request,
        mut take: impl FnMut(&str, Response) -> Result<(), NetError>,
    ) -> Result<(), NetError> {
        let mut any_ok = false;
        let mut last_err = None;
        for idx in self.active_indices() {
            match self.node_call(idx, request).and_then(|reply| take(&self.nodes[idx].name, reply))
            {
                Ok(()) => any_ok = true,
                Err(e) => last_err = Some(e),
            }
        }
        if any_ok {
            Ok(())
        } else {
            Err(last_err.unwrap_or_else(Self::no_nodes_err))
        }
    }

    /// Metrics exposition fanned out to every active node, concatenated with
    /// `# node <name>` section headers so per-node series stay attributable.
    fn metrics_call(&mut self) -> Result<Response, NetError> {
        let mut text = String::new();
        self.scrape(&Request::Metrics, |name, reply| match reply {
            Response::Metrics { text: node_text } => {
                text.push_str(&format!("# node {name}\n"));
                text.push_str(&node_text);
                Ok(())
            }
            _ => Err(NetError::Codec("unexpected metrics response shape")),
        })?;
        Ok(Response::Metrics { text })
    }

    /// Trace-buffer scrape fanned out to every active node. `max` is a
    /// *per-node* budget; each event is stamped with its node's name (unless
    /// a deeper layer already stamped it) so the shell can assemble
    /// cross-node span trees keyed by trace id.
    fn trace_call(&mut self, max: u32) -> Result<Response, NetError> {
        let mut events = Vec::new();
        let mut dropped = 0u64;
        self.scrape(&Request::Trace { max }, |name, reply| match reply {
            Response::Trace { events: node_events, .. } if node_events.len() > max as usize => {
                Err(NetError::Codec("trace reply over its event cap"))
            }
            Response::Trace { events: node_events, dropped: d } => {
                for mut ev in node_events {
                    if ev.node.is_empty() {
                        ev.node = name.to_string();
                    }
                    events.push(ev);
                }
                dropped += d;
                Ok(())
            }
            _ => Err(NetError::Codec("unexpected trace response shape")),
        })?;
        Ok(Response::Trace { events, dropped })
    }
}

impl Transport for ClusterTransport {
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        match request {
            Request::Ping => self.ping(),
            // A one-key request's only share is the whole request.
            Request::Put { key, .. } | Request::Delete { key } => {
                self.write(request, std::slice::from_ref(key), false, |_| request.clone())
            }
            Request::PutMany { items } => {
                let keys: Vec<ObjectKey> = items.iter().map(|(k, _)| *k).collect();
                self.write(request, &keys, false, |ids| Request::PutMany {
                    items: ids.iter().map(|i| items[*i].clone()).collect(),
                })
            }
            // Item `i` is put `i` below `puts.len()`, and a delete above it.
            Request::Mutate { puts, deletes, drop_views } => {
                let keys: Vec<ObjectKey> =
                    puts.iter().map(|(k, _)| *k).chain(deletes.iter().copied()).collect();
                let split = puts.len();
                self.write(request, &keys, !drop_views.is_empty(), |ids| {
                    let (put_ids, delete_ids) = ids.split_at(ids.partition_point(|i| *i < split));
                    Request::Mutate {
                        puts: put_ids.iter().map(|i| puts[*i].clone()).collect(),
                        deletes: delete_ids.iter().map(|i| deletes[*i - split]).collect(),
                        drop_views: drop_views.clone(),
                    }
                })
            }
            // One key, one value.
            Request::Get { key } => {
                let mut value = None;
                self.read(request, std::slice::from_ref(key), |v| value = v)?;
                Ok(Response::Object(value))
            }
            Request::GetMany { keys } => {
                let mut values = Vec::with_capacity(keys.len());
                self.read(request, keys, |v| values.push(v))?;
                Ok(Response::Objects(values))
            }
            Request::Metrics => self.metrics_call(),
            Request::Trace { max } => self.trace_call(*max),
            // The authenticated-index view of the cluster: a single union
            // index over every active node's keyspace (see `sync.rs`), so
            // clients can pin one root and verify cluster-wide scans the
            // same way they verify a single SSP's.
            Request::Root => self.union_root(),
            // Each key once, however many nodes hold it.
            Request::Scan { after, limit } => {
                let (keys, done) = self.union_index()?.scan_page(after.as_ref(), *limit as usize);
                Ok(Response::Keys { keys, done })
            }
            Request::IndexNode { hashes } => self.union_nodes(hashes),
            Request::ScanVerified { after, limit } => self.scan_verified(after, *limit),
        }
    }

    fn meter(&self) -> &Arc<CostMeter> {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A link that is never called.
    struct Unused(Arc<CostMeter>);

    impl Transport for Unused {
        fn call(&mut self, _: &Request) -> Result<Response, NetError> {
            Err(NetError::Closed)
        }

        fn meter(&self) -> &Arc<CostMeter> {
            &self.0
        }
    }

    #[test]
    fn replica_slots_are_the_ring_placement_by_name() {
        for replication in 1..=4 {
            let mut cluster =
                ClusterTransport::new(ClusterOpts { replication, ..ClusterOpts::default() });
            for i in 0..6 {
                cluster.add_node(&format!("n{i}"), Box::new(Unused(CostMeter::new_shared())));
            }
            // Retired slots stay, so slot and ring index part ways.
            assert!(cluster.retire_node("n1") && cluster.retire_node("n4"));
            for i in 0..300u64 {
                let key = ObjectKey::data(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), [3; 16], 0);
                let slots = cluster.replicas(&key);
                let names: Vec<&str> =
                    slots.iter().map(|s| cluster.nodes[*s].name.as_str()).collect();
                assert_eq!(names, cluster.ring.replicas(&key, replication), "key {i}");
            }
        }
    }
}
