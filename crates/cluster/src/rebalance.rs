//! Rebalancing and replica auditing: restoring the placement invariant
//! after the ring changes.
//!
//! The invariant: every stored key lives on exactly the R ring replicas of
//! its point, byte-identical everywhere. Node joins, crashes (retirement),
//! and missed W<R writes all break it; [`ClusterTransport::rebalance`]
//! restores it by discovering every node's key set and moving what is
//! misplaced, and [`ClusterTransport::audit`] proves it held. Discovery
//! goes through each node's authenticated index (`Root` compare plus the
//! level-order subtree-diff descent against the node's last verified
//! tree, one batched `IndexNode` request per level, see `sync.rs`) rather
//! than streaming every key through paged `Scan`s: discovery costs one
//! `Root` per node when nothing moved, and at most 1 + height requests for
//! a node that did. A pass then surveys every key with one `Get` per
//! holder, settled cluster or not, so it costs O(keys × R) round trips
//! (60 keys at R = 2 over 3 nodes: 3 `Root`s and 120 `Get`s on a pass
//! that changes nothing), plus one `Put` or `Delete` per replica it fixes.
//! Both remain client-driven — nodes never talk to each other, keeping the
//! SSP as dumb (and as untrusted) as the paper requires.

use crate::transport::ClusterTransport;
use sharoes_net::{NetError, ObjectKey, Request, Response};
use std::collections::BTreeMap;

/// What a rebalance pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Distinct keys examined.
    pub keys: u64,
    /// Replica copies created on nodes that lacked them.
    pub copied: u64,
    /// Stale divergent copies overwritten with the reconciled value.
    pub refreshed: u64,
    /// Copies deleted from nodes no longer responsible for the key.
    pub dropped: u64,
}

/// What a replica audit found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Distinct keys examined.
    pub keys: u64,
    /// Keys present and byte-identical on all R target replicas.
    pub fully_replicated: u64,
    /// Keys missing from at least one target replica.
    pub under_replicated: u64,
    /// Keys whose target replicas disagree on content.
    pub divergent: u64,
    /// Keys with copies parked on non-replica nodes.
    pub misplaced: u64,
}

impl AuditReport {
    /// True when every key satisfies the placement invariant.
    pub fn clean(&self) -> bool {
        self.keys == self.fully_replicated
            && self.under_replicated == 0
            && self.divergent == 0
            && self.misplaced == 0
    }
}

impl ClusterTransport {
    /// Streams the full key index of one node through the paged `Scan` op.
    /// Fallback path: the indexed walk in `sync.rs` is preferred. A page
    /// that is not the last must end past the cursor; one that does not
    /// (empty, or ending at or before it) would be asked for again forever,
    /// so it fails the scan.
    pub(crate) fn scan_node(&mut self, idx: usize, page: u32) -> Result<Vec<ObjectKey>, NetError> {
        let mut keys = Vec::new();
        let mut after: Option<ObjectKey> = None;
        loop {
            match self.node_call(idx, &Request::Scan { after, limit: page })? {
                Response::Keys { keys: batch, done } => {
                    if done {
                        keys.extend(batch);
                        return Ok(keys);
                    }
                    match batch.last() {
                        Some(last) if after.is_none_or(|cursor| *last > cursor) => {
                            after = Some(*last);
                        }
                        _ => return Err(NetError::Codec("scan page made no progress")),
                    }
                    keys.extend(batch);
                }
                _ => return Err(NetError::Codec("unexpected scan response shape")),
            }
        }
    }

    /// Builds the global `key → holder nodes` map from every active node,
    /// via each node's authenticated index: one `Root` RPC per node, then
    /// a descent only into subtrees that neither the node's last verified
    /// tree nor the memo holds — a node whose root did not move costs
    /// nothing beyond the root fetch. Nodes whose index walk *and* scan
    /// fallback both fail are skipped (their copies are invisible this
    /// round and will be found by a later pass).
    fn holders_map(&mut self, page: u32) -> BTreeMap<ObjectKey, Vec<usize>> {
        let mut holders: BTreeMap<ObjectKey, Vec<usize>> = BTreeMap::new();
        for idx in 0..self.node_count() {
            if !self.is_active(idx) {
                continue;
            }
            if let Ok(keys) = self.node_keys(idx, page) {
                for key in keys {
                    holders.entry(key).or_default().push(idx);
                }
            }
        }
        holders
    }

    /// Reads `key` from each of `nodes`, returning `(node, value)` pairs
    /// for the nodes that answered.
    fn survey(&mut self, key: &ObjectKey, nodes: &[usize]) -> Vec<(usize, Option<Vec<u8>>)> {
        let mut out = Vec::with_capacity(nodes.len());
        for idx in nodes {
            if let Ok(Response::Object(v)) = self.node_call(*idx, &Request::Get { key: *key }) {
                out.push((*idx, v));
            }
        }
        out
    }

    /// Moves every key onto exactly its R ring replicas, `page` keys per
    /// scan round trip. Idempotent: a second pass over a settled cluster
    /// reports all zeros.
    pub fn rebalance(&mut self, page: u32) -> Result<RebalanceReport, NetError> {
        let _span = sharoes_obs::span!("cluster.rebalance", page);
        let page = page.max(1);
        let mut report = RebalanceReport::default();
        let holders = self.holders_map(page);
        for (key, holding) in holders {
            report.keys += 1;
            let targets = self.replicas(&key);
            // Reconcile the value across current holders before propagating
            // it. Targets come first, in ring order, so a divergence among
            // them resolves as a read of the key would.
            let mut surveyed: Vec<usize> =
                targets.iter().copied().filter(|t| holding.contains(t)).collect();
            surveyed.extend(holding.iter().filter(|h| !targets.contains(h)));
            let responses = self.survey(&key, &surveyed);
            let winner = ClusterTransport::reconcile(responses.iter().map(|(_, v)| v.as_ref()));
            let Some(value) = winner.and_then(|win| responses[win].1.as_ref()) else {
                continue; // deleted under our feet: nothing to place
            };
            for target in &targets {
                let held = responses.iter().find(|(idx, _)| idx == target).map(|(_, v)| v);
                match held {
                    Some(Some(v)) if v == value => {}
                    Some(Some(_)) | Some(None) | None => {
                        let fresh = matches!(held, Some(Some(_)));
                        if self
                            .node_call(*target, &Request::Put { key, value: value.clone() })
                            .is_ok()
                        {
                            if fresh {
                                report.refreshed += 1;
                            } else {
                                report.copied += 1;
                            }
                        }
                    }
                }
            }
            for idx in holding {
                if !targets.contains(&idx) && self.node_call(idx, &Request::Delete { key }).is_ok()
                {
                    report.dropped += 1;
                }
            }
        }
        let m = sharoes_obs::global();
        m.counter("cluster_rebalance_keys_total").add(report.keys);
        m.counter("cluster_rebalance_copied_total").add(report.copied);
        m.counter("cluster_rebalance_refreshed_total").add(report.refreshed);
        m.counter("cluster_rebalance_dropped_total").add(report.dropped);
        Ok(report)
    }

    /// Verifies the placement invariant without mutating anything: every
    /// key present on all R replicas, byte-identical, and nowhere else.
    pub fn audit(&mut self, page: u32) -> Result<AuditReport, NetError> {
        let page = page.max(1);
        let mut report = AuditReport::default();
        let holders = self.holders_map(page);
        for (key, holding) in holders {
            report.keys += 1;
            let targets = self.replicas(&key);
            let responses = self.survey(&key, &targets);
            let present: Vec<&Vec<u8>> = responses.iter().filter_map(|(_, v)| v.as_ref()).collect();
            let missing = targets.len() - present.len();
            let identical = present.windows(2).all(|w| w[0] == w[1]);
            let misplaced = holding.iter().any(|idx| !targets.contains(idx));
            if missing > 0 {
                report.under_replicated += 1;
            }
            if !identical {
                report.divergent += 1;
            }
            if misplaced {
                report.misplaced += 1;
            }
            if missing == 0 && identical && !misplaced {
                report.fully_replicated += 1;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterOpts;
    use sharoes_net::{InMemoryTransport, RequestHandler};
    use std::sync::Arc;

    /// A node that answers every `Scan` through `page` (given its cursor)
    /// and refuses everything else.
    struct Scripted(fn(Option<ObjectKey>) -> Response);

    impl RequestHandler for Scripted {
        fn handle(&self, request: Request) -> Response {
            match request {
                Request::Scan { after, .. } => (self.0)(after),
                _ => Response::Error("unsupported".into()),
            }
        }
    }

    fn key(i: u64) -> ObjectKey {
        ObjectKey::data(i, [0; 16], 0)
    }

    fn scan(page: fn(Option<ObjectKey>) -> Response) -> Result<Vec<ObjectKey>, NetError> {
        let mut cluster = ClusterTransport::new(ClusterOpts::default());
        cluster.add_node("a", Box::new(InMemoryTransport::new(Arc::new(Scripted(page)))));
        cluster.scan_node(0, 2)
    }

    #[test]
    fn scan_pages_that_make_no_progress_fail_typed() {
        let stuck: [fn(Option<ObjectKey>) -> Response; 3] = [
            // An empty page that is not the last.
            |_| Response::Keys { keys: vec![], done: false },
            // The same page again, whatever the cursor.
            |_| Response::Keys { keys: vec![key(1), key(2)], done: false },
            // A page ending before the cursor.
            |after| {
                let keys = if after.is_none() { vec![key(5)] } else { vec![key(3)] };
                Response::Keys { keys, done: false }
            },
        ];
        for page in stuck {
            assert!(matches!(scan(page), Err(NetError::Codec("scan page made no progress"))));
        }
    }

    #[test]
    fn a_paged_scan_collects_every_key() {
        let paged = |after: Option<ObjectKey>| {
            let from = after.map_or(0, |k| k.inode + 1);
            let keys: Vec<ObjectKey> = (from..5).take(2).map(key).collect();
            Response::Keys { done: from + 2 >= 5, keys }
        };
        assert_eq!(scan(paged).unwrap(), (0..5).map(key).collect::<Vec<_>>());
        // A last page may be empty.
        assert_eq!(scan(|_| Response::Keys { keys: vec![], done: true }).unwrap(), vec![]);
    }
}
