//! The SSP request handler: protocol dispatch over the object store.

use crate::engine::LogEngine;
use crate::store::ObjectStore;
use sharoes_net::{NetError, ObjectKey, Request, RequestHandler, Response, MAX_INDEX_BATCH};
use sharoes_obs::{Counter, Histogram};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Per-op service-time histograms, one per protocol verb, and the
/// storage-error counter. The histogram's `_count` series doubles as the
/// op counter, so there is no separate `ssp_op_*_total` family to keep in
/// sync.
struct SspMetrics {
    storage_errors: Counter,
    ping: Histogram,
    put: Histogram,
    put_many: Histogram,
    get: Histogram,
    get_many: Histogram,
    delete: Histogram,
    mutate: Histogram,
    scan: Histogram,
    metrics: Histogram,
    trace: Histogram,
    root: Histogram,
    index_node: Histogram,
    scan_verified: Histogram,
}

fn ssp_metrics() -> &'static SspMetrics {
    static METRICS: OnceLock<SspMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let h = sharoes_obs::histogram_ns;
        SspMetrics {
            storage_errors: sharoes_obs::counter("ssp_storage_errors"),
            ping: h("ssp_op_ping_ns"),
            put: h("ssp_op_put_ns"),
            put_many: h("ssp_op_put_many_ns"),
            get: h("ssp_op_get_ns"),
            get_many: h("ssp_op_get_many_ns"),
            delete: h("ssp_op_delete_ns"),
            mutate: h("ssp_op_mutate_ns"),
            scan: h("ssp_op_scan_ns"),
            metrics: h("ssp_op_metrics_ns"),
            trace: h("ssp_op_trace_ns"),
            root: h("ssp_op_root_ns"),
            index_node: h("ssp_op_index_node_ns"),
            scan_verified: h("ssp_op_scan_verified_ns"),
        }
    })
}

/// The SSP data-serving component (paper §IV, "SSP Server").
///
/// Wraps an [`ObjectStore`] — a memory store or a journalled one — and
/// speaks the [`Request`]/[`Response`] protocol. It performs no computation
/// on stored content and cannot: everything it holds is encrypted by
/// clients.
pub struct SspServer {
    store: Arc<ObjectStore>,
}

impl Default for SspServer {
    fn default() -> Self {
        Self::new()
    }
}

impl SspServer {
    /// A fresh server with an empty memory store.
    pub fn new() -> Self {
        Self::with_store(Arc::new(ObjectStore::new()))
    }

    /// A server over an existing store (pre-migrated state, or a
    /// journalled store from [`ObjectStore::open`]).
    pub fn with_store(store: Arc<ObjectStore>) -> Self {
        SspServer { store }
    }

    /// [`Self::with_store`] under the name callers of a journalled store use.
    pub fn with_engine(engine: Arc<LogEngine>) -> Self {
        Self::with_store(engine)
    }

    /// Direct access to the underlying store (inspection, tamper tests).
    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.store
    }

    /// The store, when it is journalled.
    pub fn engine(&self) -> Option<&Arc<LogEngine>> {
        Some(&self.store).filter(|s| s.is_journalled())
    }

    /// Wraps the server for sharing across transports/threads.
    pub fn into_shared(self) -> Arc<SspServer> {
        Arc::new(self)
    }
}

/// Storage failures surface as protocol errors. Engine errors (fsync
/// failure, detected corruption) are deliberately *not* marked transient:
/// blind resend rereads the same rotten bytes, and the cluster layer fails
/// reads over to another replica instead.
fn storage_err(e: NetError) -> Response {
    ssp_metrics().storage_errors.inc();
    Response::Error(format!("storage: {e}"))
}

/// Applies a `Mutate` (or a `PutMany`, which is one with only puts): every
/// put, then every delete, then every dropped view. Each key is its own
/// logged store op, so a crash recovers a prefix of them; the first
/// storage error stops the rest.
fn apply_mutate(
    s: &ObjectStore,
    puts: Vec<(ObjectKey, Vec<u8>)>,
    deletes: &[ObjectKey],
    drop_views: &[(u64, [u8; 16])],
) -> Response {
    let applied = puts
        .into_iter()
        .try_for_each(|(key, value)| s.put(key, value))
        .and_then(|()| deletes.iter().try_for_each(|key| s.delete(key).map(drop)))
        .and_then(|()| {
            drop_views.iter().try_for_each(|(inode, view)| s.delete_blocks(*inode, *view).map(drop))
        });
    match applied {
        Ok(()) => Response::Ok,
        Err(e) => storage_err(e),
    }
}

impl RequestHandler for SspServer {
    fn handle(&self, request: Request) -> Response {
        let m = ssp_metrics();
        let (op, hist) = match &request {
            Request::Ping => ("ping", &m.ping),
            Request::Put { .. } => ("put", &m.put),
            Request::PutMany { .. } => ("put_many", &m.put_many),
            Request::Get { .. } => ("get", &m.get),
            Request::GetMany { .. } => ("get_many", &m.get_many),
            Request::Delete { .. } => ("delete", &m.delete),
            Request::Mutate { .. } => ("mutate", &m.mutate),
            Request::Scan { .. } => ("scan", &m.scan),
            Request::Metrics => ("metrics", &m.metrics),
            Request::Trace { .. } => ("trace", &m.trace),
            Request::Root => ("root", &m.root),
            Request::IndexNode { .. } => ("index_node", &m.index_node),
            Request::ScanVerified { .. } => ("scan_verified", &m.scan_verified),
        };
        let _span = sharoes_obs::span!("ssp.op", op);
        let start = Instant::now();
        let s = &self.store;
        let response = match request {
            Request::Ping => Response::Pong,
            Request::Put { key, value } => match s.put(key, value) {
                Ok(()) => Response::Ok,
                Err(e) => storage_err(e),
            },
            Request::PutMany { items } => apply_mutate(s, items, &[], &[]),
            Request::Mutate { puts, deletes, drop_views } => {
                apply_mutate(s, puts, &deletes, &drop_views)
            }
            Request::Get { key } => Response::Object(s.get(&key)),
            Request::GetMany { keys } => Response::Objects(keys.iter().map(|k| s.get(k)).collect()),
            Request::Delete { key } => match s.delete(&key) {
                Ok(_) => Response::Ok,
                Err(e) => storage_err(e),
            },
            Request::Scan { after, limit } => {
                let (keys, done) = s.scan_keys(after.as_ref(), limit as usize);
                Response::Keys { keys, done }
            }
            Request::Root => {
                let (root, count) = s.index_root();
                Response::Root { root, count }
            }
            Request::IndexNode { hashes } if hashes.len() > MAX_INDEX_BATCH => {
                Response::Error(format!("index node batch over {MAX_INDEX_BATCH} hashes"))
            }
            Request::IndexNode { hashes } => Response::IndexNode { nodes: s.index_nodes(&hashes) },
            Request::ScanVerified { after, limit } => {
                let p = s.scan_proof(after.as_ref(), limit);
                Response::KeysProof { keys: p.keys, done: p.done, root: p.root, proof: p.proof }
            }
            // The store's size is this server's own fact, read at request
            // time, so servers sharing one process never clobber it.
            Request::Metrics => Response::Metrics {
                text: format!(
                    "{}# TYPE ssp_store_objects gauge\nssp_store_objects {}\n\
                     # TYPE ssp_store_bytes gauge\nssp_store_bytes {}\n",
                    sharoes_obs::global().render(),
                    s.object_count(),
                    s.byte_count()
                ),
            },
            Request::Trace { max } => {
                // Non-draining snapshot: a remote scrape must not race
                // local consumers (`take()` is drain-only). Newest events
                // win when the ring holds more than `max`.
                let tracer = sharoes_obs::tracer();
                let all = tracer.snapshot();
                let skip = all.len().saturating_sub(max as usize);
                let events: Vec<sharoes_obs::OwnedEvent> =
                    all.iter().skip(skip).map(sharoes_obs::OwnedEvent::from).collect();
                Response::Trace { events, dropped: tracer.dropped() + skip as u64 }
            }
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        hist.observe(elapsed);
        // Attribute the server's handling time to the enclosing span (the
        // adopted `ssp.rpc` frame when the request envelope carried a trace
        // context).
        sharoes_obs::phase_add(sharoes_obs::Phase::Storage, elapsed);
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_dispatch() {
        let server = SspServer::new();
        assert_eq!(server.handle(Request::Ping), Response::Pong);
        let key = ObjectKey::metadata(1, [0; 16]);
        assert_eq!(server.handle(Request::Put { key, value: vec![1, 2] }), Response::Ok);
        assert_eq!(server.handle(Request::Get { key }), Response::Object(Some(vec![1, 2])));
        assert_eq!(
            server.handle(Request::Get { key: ObjectKey::metadata(2, [0; 16]) }),
            Response::Object(None)
        );
    }

    #[test]
    fn batch_operations() {
        let server = SspServer::new();
        let k1 = ObjectKey::data(1, [0; 16], 0);
        let k2 = ObjectKey::data(1, [0; 16], 1);
        server.handle(Request::PutMany { items: vec![(k1, vec![1]), (k2, vec![2])] });
        assert_eq!(
            server.handle(Request::GetMany { keys: vec![k2, k1] }),
            Response::Objects(vec![Some(vec![2]), Some(vec![1])])
        );
        let drop =
            Request::Mutate { puts: vec![], deletes: vec![], drop_views: vec![(1, [0; 16])] };
        assert_eq!(server.handle(drop), Response::Ok);
        assert_eq!(
            server.handle(Request::GetMany { keys: vec![k1, k2] }),
            Response::Objects(vec![None, None])
        );
    }

    #[test]
    fn mutate_applies_puts_then_deletes_then_dropped_views() {
        let server = SspServer::new();
        let (old, new) = ([1u8; 16], [2u8; 16]);
        let meta = ObjectKey::metadata(7, old);
        let stale = ObjectKey::data(7, old, 3);
        for key in [meta, stale, ObjectKey::data(7, old, 0), ObjectKey::data(7, old, u32::MAX)] {
            server.handle(Request::Put { key, value: vec![0] });
        }
        // A shrink: the new manifest and block 0 land, then the stale
        // trailing block goes. A put of a key that is also deleted is gone.
        let manifest = ObjectKey::data(7, old, u32::MAX);
        let gone = ObjectKey::data(7, old, 9);
        let shrink = Request::Mutate {
            puts: vec![(manifest, vec![5]), (gone, vec![5])],
            deletes: vec![stale, gone],
            drop_views: vec![],
        };
        assert_eq!(server.handle(shrink), Response::Ok);
        let get = |key| server.handle(Request::Get { key });
        assert_eq!(get(manifest), Response::Object(Some(vec![5])));
        assert_eq!(get(stale), Response::Object(None));
        assert_eq!(get(gone), Response::Object(None));
        // A re-key: the old view is dropped next to puts into the new one.
        // Dropped views come last, so a put into a dropped view is gone too.
        let rekey = Request::Mutate {
            puts: vec![
                (ObjectKey::data(7, new, 0), vec![6]),
                (ObjectKey::data(7, new, u32::MAX), vec![6]),
                (ObjectKey::data(7, old, 1), vec![6]),
                (ObjectKey::metadata(7, new), vec![6]),
            ],
            deletes: vec![meta],
            drop_views: vec![(7, old)],
        };
        assert_eq!(server.handle(rekey), Response::Ok);
        let Response::Keys { keys, done: true } =
            server.handle(Request::Scan { after: None, limit: 10 })
        else {
            panic!("expected one page of keys")
        };
        let mut want = vec![
            ObjectKey::metadata(7, new),
            ObjectKey::data(7, new, 0),
            ObjectKey::data(7, new, u32::MAX),
        ];
        want.sort();
        assert_eq!(keys, want);
    }

    #[test]
    fn index_node_batches_answer_every_slot_up_to_the_cap() {
        let server = SspServer::new();
        for b in 0..40 {
            server.handle(Request::Put { key: ObjectKey::data(1, [0; 16], b), value: vec![1] });
        }
        let Response::Root { root, .. } = server.handle(Request::Root) else {
            panic!("expected a Root reply")
        };
        let unknown = [0xAA; 32];
        let Response::IndexNode { nodes } =
            server.handle(Request::IndexNode { hashes: vec![unknown, root, unknown] })
        else {
            panic!("expected an IndexNode reply")
        };
        assert_eq!(nodes, vec![None, server.store().index_nodes(&[root]).pop().unwrap(), None]);
        assert!(nodes[1].is_some());
        let full = server.handle(Request::IndexNode { hashes: vec![root; MAX_INDEX_BATCH] });
        assert!(matches!(full, Response::IndexNode { nodes } if nodes.len() == MAX_INDEX_BATCH));
        let over = server.handle(Request::IndexNode { hashes: vec![root; MAX_INDEX_BATCH + 1] });
        assert!(matches!(over, Response::Error(_)), "{over:?}");
    }

    #[test]
    fn scan_pages_through_keys() {
        let server = SspServer::new();
        let keys: Vec<ObjectKey> = (0..5).map(|b| ObjectKey::data(1, [0; 16], b)).collect();
        for k in &keys {
            server.handle(Request::Put { key: *k, value: vec![1] });
        }
        assert_eq!(
            server.handle(Request::Scan { after: None, limit: 3 }),
            Response::Keys { keys: keys[..3].to_vec(), done: false }
        );
        assert_eq!(
            server.handle(Request::Scan { after: Some(keys[2]), limit: 3 }),
            Response::Keys { keys: keys[3..].to_vec(), done: true }
        );
    }

    /// The `ssp_store_*` gauges of this server's own `Metrics` reply.
    fn store_gauges(server: &SspServer) -> (u64, u64) {
        let Response::Metrics { text } = server.handle(Request::Metrics) else {
            panic!("expected a Metrics reply")
        };
        let gauge = |name: &str| -> u64 {
            let line = text.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
            line.and_then(|v| v.parse().ok()).expect("store gauge present")
        };
        (gauge("ssp_store_objects"), gauge("ssp_store_bytes"))
    }

    #[test]
    fn metrics_carry_this_stores_size() {
        let server = SspServer::new();
        server.handle(Request::Put { key: ObjectKey::superblock([1; 16]), value: vec![0; 64] });
        assert_eq!(store_gauges(&server), (1, 64));
        // A second server in the same process reports its own store.
        assert_eq!(store_gauges(&SspServer::new()), (0, 0));
        server.handle(Request::Delete { key: ObjectKey::superblock([1; 16]) });
        assert_eq!(store_gauges(&server), (0, 0));
    }

    #[test]
    fn engine_backend_serves_the_full_protocol() {
        let fs = crate::faultfs::FaultFs::new();
        let engine = Arc::new(
            LogEngine::open(
                Arc::new(fs),
                std::path::Path::new("/srv"),
                crate::engine::EngineConfig::default(),
            )
            .unwrap(),
        );
        let server = SspServer::with_engine(Arc::clone(&engine));
        assert!(server.engine().is_some());
        assert!(SspServer::new().engine().is_none());
        assert_eq!(server.handle(Request::Ping), Response::Pong);
        let k1 = ObjectKey::data(1, [0; 16], 0);
        let k2 = ObjectKey::data(1, [0; 16], 1);
        server.handle(Request::PutMany { items: vec![(k1, vec![1]), (k2, vec![2; 10])] });
        assert_eq!(server.handle(Request::Get { key: k1 }), Response::Object(Some(vec![1])));
        assert_eq!(store_gauges(&server), (2, 11));
        assert_eq!(
            server.handle(Request::Scan { after: None, limit: 10 }),
            Response::Keys { keys: vec![k1, k2], done: true }
        );
        server.handle(Request::Mutate {
            puts: vec![],
            deletes: vec![],
            drop_views: vec![(1, [0; 16])],
        });
        assert_eq!(store_gauges(&server), (0, 0));
    }

    #[test]
    fn metrics_request_returns_exposition_text() {
        let server = SspServer::new();
        server.handle(Request::Put { key: ObjectKey::metadata(7, [3; 16]), value: vec![9] });
        match server.handle(Request::Metrics) {
            Response::Metrics { text } => {
                assert!(text.contains("ssp_op_put_ns_count"), "missing put count in:\n{text}");
            }
            other => panic!("expected Metrics response, got {other:?}"),
        }
    }
}
