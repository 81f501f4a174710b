//! What each client op sends, request by request: an op's mutations ride
//! in one `Mutate`, a new file's first write fetches nothing, and a
//! shrinking close that the SSP refuses leaves the old file whole.

mod common;

use common::{World, ALICE};
use sharoes_core::{ClientConfig, CryptoPolicy, Scheme};
use sharoes_fs::Mode;
use sharoes_net::{KeySpace, ObjectKey, Request, RequestHandler, Response};
use sharoes_ssp::SspServer;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Forwards every request to the server and logs it.
struct RequestLog {
    server: Arc<SspServer>,
    sent: Mutex<Vec<Request>>,
}

impl RequestLog {
    fn take(&self) -> Vec<Request> {
        std::mem::take(&mut *self.sent.lock().unwrap())
    }
}

impl RequestHandler for RequestLog {
    fn handle(&self, request: Request) -> Response {
        self.sent.lock().unwrap().push(request.clone());
        self.server.handle(request)
    }
}

/// The requests of a log by kind, for failure messages.
fn kinds(sent: &[Request]) -> Vec<String> {
    sent.iter()
        .map(|r| format!("{r:?}").chars().take_while(|c| c.is_alphanumeric()).collect())
        .collect()
}

/// A `Mutate`'s put keys, deletes and dropped views.
type Mutation = (Vec<ObjectKey>, Vec<ObjectKey>, Vec<(u64, [u8; 16])>);

/// The `Mutate` a log holds, which must be its only request.
fn only_mutate(sent: &[Request], op: &str) -> Mutation {
    match sent {
        [Request::Mutate { puts, deletes, drop_views }] => {
            (puts.iter().map(|(k, _)| *k).collect(), deletes.clone(), drop_views.clone())
        }
        _ => panic!("{op} sent {:?}, not one Mutate", kinds(sent)),
    }
}

/// The manifest `Get` and the `Mutate` of an overwrite's close.
fn manifest_get_then_mutate(sent: &[Request], op: &str) -> (ObjectKey, Vec<ObjectKey>) {
    match sent {
        [Request::Get { key }, Request::Mutate { puts, deletes, drop_views }] => {
            assert_eq!((key.space, key.block), (KeySpace::Data, u32::MAX), "{op}: not a manifest");
            assert!(puts.iter().any(|(k, _)| k == key), "{op}: the manifest is not replaced");
            assert!(drop_views.is_empty(), "{op}: dropped a view");
            (*key, deletes.clone())
        }
        _ => panic!("{op} sent {:?}, not a manifest Get and one Mutate", kinds(sent)),
    }
}

#[test]
fn each_write_path_sends_one_mutate() {
    for policy in [CryptoPolicy::NoEncMdD, CryptoPolicy::Sharoes] {
        let world = World::new(policy, Scheme::SharedCaps);
        let log =
            Arc::new(RequestLog { server: Arc::clone(&world.server), sent: Mutex::default() });
        let mut alice =
            world.client_via(ALICE, world.deployment.config.clone(), Arc::clone(&log) as _);
        let path = "/home/alice/logged";
        // A first create caches every table replica of the directory.
        alice.create("/home/alice/warm", Mode::from_octal(0o644)).unwrap();
        log.take();

        let inode = alice.create(path, Mode::from_octal(0o644)).unwrap();
        only_mutate(&log.take(), "create");

        // The creator cached the metadata and the empty manifest it sealed.
        let first: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        alice.write_file(path, &first).unwrap();
        let (puts, deletes, drops) = only_mutate(&log.take(), "first write_file");
        assert_eq!((puts.len(), deletes.len(), drops.len()), (3, 0, 0), "manifest + 2 blocks");

        let same: Vec<u8> = first.iter().map(|b| b ^ 0x5A).collect();
        alice.write_file(path, &same).unwrap();
        let (_, deletes) = manifest_get_then_mutate(&log.take(), "same-size overwrite");
        assert!(deletes.is_empty());

        // A shrink from two blocks to one deletes block 1, and only it.
        alice.write_file(path, b"short").unwrap();
        let (manifest, deletes) = manifest_get_then_mutate(&log.take(), "shrinking overwrite");
        assert_eq!(deletes, vec![ObjectKey { block: 1, ..manifest }]);
        assert_eq!(world.server.store().get(&ObjectKey { block: 1, ..manifest }), None);
        assert_eq!(world.client(ALICE).read(path).unwrap(), b"short", "{policy:?}");

        alice.unlink(path).unwrap();
        let sent = log.take();
        assert_eq!(sent.iter().filter(|r| matches!(r, Request::Mutate { .. })).count(), 1);
        let (_, deletes, drops) = only_mutate(&sent[sent.len() - 1..], "unlink");
        assert!(deletes.iter().all(|k| k.inode == inode && k.space == KeySpace::Metadata));
        assert_eq!(drops, vec![(inode, manifest.view)]);
        let (left, _) = world.server.store().scan_keys_flat(None, usize::MAX);
        assert!(left.iter().all(|k| k.inode != inode), "{policy:?}: unlink left {left:?}");
    }
}

/// Refuses every `Mutate` once armed, as a failing store would.
struct RefuseMutations {
    server: Arc<SspServer>,
    armed: AtomicBool,
}

impl RequestHandler for RefuseMutations {
    fn handle(&self, request: Request) -> Response {
        if self.armed.load(Ordering::SeqCst) && matches!(request, Request::Mutate { .. }) {
            return Response::Error("storage: refused".into());
        }
        self.server.handle(request)
    }
}

#[test]
fn a_refused_shrinking_close_leaves_the_old_file_readable() {
    for policy in [CryptoPolicy::NoEncMdD, CryptoPolicy::Sharoes] {
        let world = World::new(policy, Scheme::SharedCaps);
        let path = "/home/alice/shrinks";
        let old: Vec<u8> = (0..3 * 4096 + 17).map(|i| i as u8).collect();
        let mut alice = world.client(ALICE);
        alice.create(path, Mode::from_octal(0o644)).unwrap();
        alice.write_file(path, &old).unwrap();

        let handler = Arc::new(RefuseMutations {
            server: Arc::clone(&world.server),
            armed: AtomicBool::new(false),
        });
        // A one-byte cache: the writer refetches, and so re-checks, what
        // it reads after the refusal.
        let config = ClientConfig { cache_capacity: Some(1), ..world.deployment.config.clone() };
        let mut writer = world.client_via(ALICE, config, Arc::clone(&handler) as _);
        writer.getattr(path).unwrap();
        handler.armed.store(true, Ordering::SeqCst);
        assert!(writer.write_file(path, b"short").is_err(), "{policy:?}");
        assert_eq!(world.client(ALICE).read(path).unwrap(), old, "{policy:?}");
        // The refused writer's own ledger did not move past the store.
        handler.armed.store(false, Ordering::SeqCst);
        assert_eq!(writer.read(path).unwrap(), old, "{policy:?}");
        writer.write_file(path, b"short").unwrap();
        assert_eq!(world.client(ALICE).read(path).unwrap(), b"short", "{policy:?}");
    }
}
