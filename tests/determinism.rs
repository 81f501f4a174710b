//! Determinism regression tests: the whole stack is a pure function of its
//! seeds. Two deployments built from the same seed must store byte-identical
//! objects (superblocks, CAP'd metadata rows, data blocks), and two
//! identically-seeded client sessions must emit byte-identical wire traffic.
//!
//! This is what makes `SHAROES_TEST_SEED` reruns faithful: if anything in
//! the pipeline silently consults ambient entropy (or an unordered map's
//! iteration order) these tests break.

use sharoes::fs::treegen::{generate, TreeSpec};
use sharoes::net::{CostMeter, NetError, ObjectKey, Request, Response, WireRead, WireWrite};
use sharoes::prelude::*;
use sharoes::ssp::SspServer;
use std::sync::{Arc, Mutex};

fn test_config() -> ClientConfig {
    ClientConfig::test_with(CryptoPolicy::Sharoes, Scheme::SharedCaps)
}

struct World {
    server: Arc<SspServer>,
    deployment: Deployment,
}

/// Builds a deployment that is a pure function of `seed`.
fn deploy(seed: u64) -> World {
    let spec =
        TreeSpec { users: 2, dirs_per_user: 2, files_per_dir: 1, seed, ..Default::default() };
    let (local, _) = generate(&spec).expect("treegen");
    let mut rng = HmacDrbg::from_seed_u64(seed);
    let deployment = Deployment::new(local.users(), test_config(), &mut rng).unwrap();
    let server = SspServer::new().into_shared();
    let mut transport = InMemoryTransport::new(Arc::clone(&server) as _);
    deployment.migrate(&local, &mut transport, &mut rng).expect("migration");
    World { server, deployment }
}

/// The store's contents as (key, value) pairs sorted by wire-encoded key.
///
/// The store itself is sharded `HashMap`s with random hasher state, so the
/// raw snapshot byte stream legitimately varies run to run; the *entries*
/// must not.
fn sorted_entries(server: &SspServer) -> Vec<(Vec<u8>, Vec<u8>)> {
    let snap = server.store().snapshot();
    let mut cur = sharoes::net::Cursor::new(&snap[8..]);
    let count = u64::read(&mut cur).expect("snapshot count");
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let key = ObjectKey::read(&mut cur).expect("snapshot key");
        let value = Vec::<u8>::read(&mut cur).expect("snapshot value");
        entries.push((key.to_wire(), value));
    }
    entries.sort();
    entries
}

#[test]
fn identically_seeded_migrations_store_identical_objects() {
    let a = deploy(0xD5EED);
    let b = deploy(0xD5EED);
    let ea = sorted_entries(&a.server);
    let eb = sorted_entries(&b.server);
    assert!(!ea.is_empty(), "migration stored nothing");
    assert_eq!(ea.len(), eb.len(), "object counts diverged");
    for (i, ((ka, va), (kb, vb))) in ea.iter().zip(&eb).enumerate() {
        assert_eq!(ka, kb, "key #{i} diverged");
        assert_eq!(va, vb, "value for key #{i} diverged");
    }
}

#[test]
fn different_seeds_store_different_objects() {
    // Sanity check that the comparison above has teeth: seeds must matter.
    let a = deploy(1);
    let b = deploy(2);
    assert_ne!(sorted_entries(&a.server), sorted_entries(&b.server));
}

/// Wraps a transport, recording every request and response byte-for-byte.
struct RecordingTransport {
    inner: InMemoryTransport,
    log: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl Transport for RecordingTransport {
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        let response = self.inner.call(request)?;
        let mut log = self.log.lock().unwrap();
        log.push(request.to_wire());
        log.push(response.to_wire());
        Ok(response)
    }

    fn meter(&self) -> &Arc<CostMeter> {
        self.inner.meter()
    }
}

/// Mounts a client with a recorded transport and drives a representative op
/// sequence; returns the wire log.
fn run_session(world: &World, seed: u64) -> Vec<Vec<u8>> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let transport = RecordingTransport {
        inner: InMemoryTransport::new(Arc::clone(&world.server) as _),
        log: Arc::clone(&log),
    };
    let uid = Uid(1000);
    let mut client = world
        .deployment
        .client_with_rng(uid, Box::new(transport), HmacDrbg::from_seed_u64(seed))
        .unwrap();
    client.mount().expect("mount");
    client.mkdir("/home/user0/ws", Mode::from_octal(0o755)).expect("mkdir");
    client.create("/home/user0/ws/f0", Mode::from_octal(0o644)).expect("create");
    client.write_file("/home/user0/ws/f0", b"deterministic payload").expect("write");
    client.getattr("/home/user0/ws/f0").expect("getattr");
    assert_eq!(client.read("/home/user0/ws/f0").expect("read"), b"deterministic payload");
    client.readdir("/home/user0/ws").expect("readdir");
    client.chmod("/home/user0/ws/f0", Mode::from_octal(0o600)).expect("chmod");
    client.unlink("/home/user0/ws/f0").expect("unlink");
    let log = log.lock().unwrap().clone();
    log
}

#[test]
fn identically_seeded_sessions_replay_identical_wire_traffic() {
    // Two separate but identically-seeded deployments, one identically-
    // seeded session each, running the same op sequence: every request and
    // every response must match byte for byte, and so must the final stores.
    let a = deploy(0xACE);
    let b = deploy(0xACE);
    let la = run_session(&a, 0x5E55_1011);
    let lb = run_session(&b, 0x5E55_1011);
    assert_eq!(la.len(), lb.len(), "session lengths diverged");
    for (i, (ma, mb)) in la.iter().zip(&lb).enumerate() {
        assert_eq!(ma, mb, "wire message #{i} diverged ({} vs {} bytes)", ma.len(), mb.len());
    }
    assert!(!la.is_empty(), "session recorded no traffic");
    assert_eq!(sorted_entries(&a.server), sorted_entries(&b.server));
}
