//! Shared end-to-end test fixture: a migrated enterprise with mountable
//! per-user clients.

use sharoes_core::{ClientConfig, CryptoPolicy, Deployment, Scheme, SharoesClient};
use sharoes_crypto::HmacDrbg;
use sharoes_fs::{Gid, LocalFs, Mode, Uid, UserDb, ROOT_UID};
use sharoes_net::{InMemoryTransport, RequestHandler};
use sharoes_ssp::SspServer;
use std::sync::Arc;

/// A migrated deployment and the SSP it lives on, from which clients mount.
pub struct World {
    pub server: Arc<SspServer>,
    pub deployment: Deployment,
}

pub const ALICE: Uid = Uid(1);
pub const BOB: Uid = Uid(2);
pub const CAROL: Uid = Uid(3);
pub const STAFF: Gid = Gid(100);
pub const OUTSIDE: Gid = Gid(200);

/// Users: root, alice+bob in `staff`, carol in `outside`.
pub fn small_db() -> UserDb {
    let mut db = UserDb::new();
    db.add_group(Gid(0), "wheel").unwrap();
    db.add_group(STAFF, "staff").unwrap();
    db.add_group(OUTSIDE, "outside").unwrap();
    db.add_user(ROOT_UID, "root", Gid(0)).unwrap();
    db.add_user(ALICE, "alice", STAFF).unwrap();
    db.add_user(BOB, "bob", STAFF).unwrap();
    db.add_user(CAROL, "carol", OUTSIDE).unwrap();
    db
}

/// A local tree exercising the interesting permission shapes:
///
/// ```text
/// /                        root 0755
/// /home                    root 0755
/// /home/alice              alice:staff 0755
/// /home/alice/notes.txt    alice 0644  "alice's notes"
/// /home/alice/private      alice 0700
/// /home/alice/private/key  alice 0600  "top secret"
/// /home/alice/dropbox      alice 0711  (exec-only for group/other)
/// /home/alice/dropbox/drop alice 0644  "droppable"
/// /home/alice/listing      alice 0744  (read-only listing for others)
/// /home/alice/listing/seen alice 0644  "listed"
/// /shared                  root:staff 0775 (staff-writable)
/// /shared/board.txt        alice 0664  "minutes"
/// ```
pub fn sample_tree() -> LocalFs {
    let mut fs = LocalFs::new(small_db(), Gid(0), Mode::from_octal(0o755));
    let m = Mode::from_octal;
    fs.mkdir(ROOT_UID, "/home", m(0o755)).unwrap();
    fs.mkdir(ROOT_UID, "/home/alice", m(0o755)).unwrap();
    fs.chown(ROOT_UID, "/home/alice", ALICE, STAFF).unwrap();
    fs.create(ALICE, "/home/alice/notes.txt", m(0o644)).unwrap();
    fs.write(ALICE, "/home/alice/notes.txt", b"alice's notes").unwrap();
    fs.mkdir(ALICE, "/home/alice/private", m(0o700)).unwrap();
    fs.create(ALICE, "/home/alice/private/key", m(0o600)).unwrap();
    fs.write(ALICE, "/home/alice/private/key", b"top secret").unwrap();
    fs.mkdir(ALICE, "/home/alice/dropbox", m(0o711)).unwrap();
    fs.create(ALICE, "/home/alice/dropbox/drop", m(0o644)).unwrap();
    fs.write(ALICE, "/home/alice/dropbox/drop", b"droppable").unwrap();
    fs.mkdir(ALICE, "/home/alice/listing", m(0o744)).unwrap();
    fs.create(ALICE, "/home/alice/listing/seen", m(0o644)).unwrap();
    fs.write(ALICE, "/home/alice/listing/seen", b"listed").unwrap();
    fs.mkdir(ROOT_UID, "/shared", m(0o775)).unwrap();
    fs.chown(ROOT_UID, "/shared", ROOT_UID, STAFF).unwrap();
    fs.create(ALICE, "/shared/board.txt", m(0o664)).unwrap();
    fs.write(ALICE, "/shared/board.txt", b"minutes").unwrap();
    fs
}

impl World {
    /// Migrates `sample_tree()` under the given policy/scheme.
    pub fn new(policy: CryptoPolicy, scheme: Scheme) -> World {
        Self::from_fs(sample_tree(), policy, scheme, 0xC0FFEE)
    }

    /// Migrates an arbitrary tree.
    pub fn from_fs(fs: LocalFs, policy: CryptoPolicy, scheme: Scheme, seed: u64) -> World {
        let mut rng = HmacDrbg::from_seed_u64(seed);
        let config = ClientConfig::test_with(policy, scheme);
        let deployment = Deployment::new(fs.users(), config, &mut rng).expect("keyring");
        let server = SspServer::new().into_shared();
        let mut transport = InMemoryTransport::new(Arc::clone(&server) as _);
        deployment.migrate(&fs, &mut transport, &mut rng).expect("migration");
        World { server, deployment }
    }

    /// Mounts a client for `uid`.
    pub fn client(&self, uid: Uid) -> SharoesClient {
        self.client_with_config(uid, self.deployment.config.clone())
    }

    /// Mounts a client with a custom config (e.g. a small cache).
    pub fn client_with_config(&self, uid: Uid, config: ClientConfig) -> SharoesClient {
        self.client_via(uid, config, Arc::clone(&self.server) as _)
    }

    /// Mounts a client whose requests go to `handler`, which must reach
    /// this world's server (e.g. a wrapper that logs them).
    pub fn client_via(
        &self,
        uid: Uid,
        config: ClientConfig,
        handler: Arc<dyn RequestHandler>,
    ) -> SharoesClient {
        // Identically-seeded sessions allocate identical inodes, so each
        // mount folds in a process-wide counter to stay collision-free when
        // a test mounts the same uid twice.
        static MOUNTS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let mount = MOUNTS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let rng = HmacDrbg::from_seed_u64(
            0xBEEF ^ uid.0 as u64 ^ mount.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let mut client = Deployment { config, ..self.deployment.clone() }
            .client_with_rng(uid, Box::new(InMemoryTransport::new(handler)), rng)
            .expect("identity");
        client.mount().expect("mount");
        client
    }
}
