//! Revocation semantics (paper §IV-A.1): immediate vs lazy re-keying on
//! chmod, ACL grants/revocations, and split-entry routing for ACL users.

mod common;

use common::{small_db, World, ALICE, BOB, CAROL, OUTSIDE};
use sharoes_core::{ClientConfig, CoreError, CryptoPolicy, Deployment, RevocationMode, Scheme};
use sharoes_fs::{Acl, Gid, LocalFs, Mode, Perm, ROOT_UID};
use sharoes_net::{KeySpace, ObjectKey, Request, RequestHandler, Response};
use sharoes_ssp::SspServer;
use std::sync::{Arc, Mutex};

#[test]
fn immediate_revocation_locks_out_reader() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let mut bob = world.client(BOB);

    // bob can read 0644 notes.
    assert_eq!(bob.read("/home/alice/notes.txt").unwrap(), b"alice's notes");
    let gen_before = bob.getattr("/home/alice/notes.txt").unwrap().generation;

    // alice revokes group/other read.
    alice.chmod("/home/alice/notes.txt", Mode::from_octal(0o600)).unwrap();

    // A fresh bob client (no cached plaintext) is locked out.
    let mut bob2 = world.client(BOB);
    assert!(bob2.read("/home/alice/notes.txt").is_err());

    // Immediate mode re-keyed: the generation advanced and data moved.
    let mut alice2 = world.client(ALICE);
    let st = alice2.getattr("/home/alice/notes.txt").unwrap();
    assert_eq!(st.generation, gen_before + 1);
    assert!(!st.rekey_pending);
    assert_eq!(alice2.read("/home/alice/notes.txt").unwrap(), b"alice's notes");
}

#[test]
fn grant_then_revoke_roundtrip() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);

    // private/key is 0600; grant group read.
    alice.chmod("/home/alice/private", Mode::from_octal(0o750)).unwrap();
    alice.chmod("/home/alice/private/key", Mode::from_octal(0o640)).unwrap();
    let mut bob = world.client(BOB);
    assert_eq!(bob.read("/home/alice/private/key").unwrap(), b"top secret");

    // Revoke again.
    alice.chmod("/home/alice/private/key", Mode::from_octal(0o600)).unwrap();
    let mut bob2 = world.client(BOB);
    assert!(bob2.read("/home/alice/private/key").is_err());
}

#[test]
fn lazy_revocation_defers_rekey_until_owner_write() {
    let mut config = ClientConfig::test_with(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    config.revocation = RevocationMode::Lazy;
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);

    let mut alice = world.client_with_config(ALICE, config.clone());
    let gen_before = alice.getattr("/home/alice/notes.txt").unwrap().generation;
    alice.chmod("/home/alice/notes.txt", Mode::from_octal(0o600)).unwrap();

    // Lazy: marked pending, generation unchanged, data not re-encrypted.
    let st = alice.getattr("/home/alice/notes.txt").unwrap();
    assert!(st.rekey_pending);
    assert_eq!(st.generation, gen_before);

    // A fresh bob cannot read through the metadata path (his CAP lost the
    // DEK) even though the ciphertext is unchanged.
    let mut bob = world.client(BOB);
    assert!(bob.read("/home/alice/notes.txt").is_err());

    // The next owner write rotates the key.
    alice.write_file("/home/alice/notes.txt", b"rotated now").unwrap();
    let st = alice.getattr("/home/alice/notes.txt").unwrap();
    assert!(!st.rekey_pending);
    assert_eq!(st.generation, gen_before + 1);
    assert_eq!(alice.read("/home/alice/notes.txt").unwrap(), b"rotated now");
}

#[test]
fn acl_grant_gives_named_user_access() {
    for scheme in [Scheme::SharedCaps, Scheme::PerUser] {
        let world = World::new(CryptoPolicy::Sharoes, scheme);
        let mut alice = world.client(ALICE);

        // carol (other, 0600 file → no access after tightening).
        alice.chmod("/home/alice/notes.txt", Mode::from_octal(0o600)).unwrap();
        let mut carol = world.client(CAROL);
        assert!(carol.read("/home/alice/notes.txt").is_err());

        // Named-user ACL entry for carol.
        let mut acl = Acl::empty();
        acl.set_user(CAROL, Perm::R);
        alice.set_acl("/home/alice/notes.txt", acl).unwrap();

        let mut carol2 = world.client(CAROL);
        assert_eq!(carol2.read("/home/alice/notes.txt").unwrap(), b"alice's notes", "{scheme:?}");
        // bob still locked out.
        let mut bob = world.client(BOB);
        assert!(bob.read("/home/alice/notes.txt").is_err());
    }
}

#[test]
fn acl_removal_revokes() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    alice.chmod("/home/alice/notes.txt", Mode::from_octal(0o600)).unwrap();
    let mut acl = Acl::empty();
    acl.set_user(CAROL, Perm::R);
    alice.set_acl("/home/alice/notes.txt", acl).unwrap();
    let mut carol = world.client(CAROL);
    assert!(carol.read("/home/alice/notes.txt").is_ok());

    // Remove the entry: immediate revocation re-keys.
    let gen_before = alice.getattr("/home/alice/notes.txt").unwrap().generation;
    alice.set_acl("/home/alice/notes.txt", Acl::empty()).unwrap();
    let st = alice.getattr("/home/alice/notes.txt").unwrap();
    assert_eq!(st.generation, gen_before + 1);
    let mut carol2 = world.client(CAROL);
    assert!(carol2.read("/home/alice/notes.txt").is_err());
    assert_eq!(alice.read("/home/alice/notes.txt").unwrap(), b"alice's notes");
}

#[test]
fn directory_revocation_rotates_table_keys() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let mut bob = world.client(BOB);
    // bob can list /home/alice (0755).
    assert!(bob.readdir("/home/alice").is_ok());

    alice.chmod("/home/alice", Mode::from_octal(0o700)).unwrap();
    let mut bob2 = world.client(BOB);
    let err = bob2.readdir("/home/alice").unwrap_err();
    assert!(matches!(err, CoreError::PermissionDenied { .. }), "{err}");
    assert!(bob2.read("/home/alice/notes.txt").is_err());

    // alice still works, and can re-grant.
    assert!(alice.readdir("/home/alice").is_ok());
    alice.chmod("/home/alice", Mode::from_octal(0o755)).unwrap();
    let mut bob3 = world.client(BOB);
    assert!(bob3.readdir("/home/alice").is_ok());
    assert_eq!(bob3.read("/home/alice/notes.txt").unwrap(), b"alice's notes");
}

#[test]
fn chmod_to_exec_only_changes_directory_semantics() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    // /home/alice/listing is 0744 (others list, no traverse). Flip to 0711.
    alice.chmod("/home/alice/listing", Mode::from_octal(0o711)).unwrap();
    let mut bob = world.client(BOB);
    assert!(bob.readdir("/home/alice/listing").is_err());
    assert_eq!(bob.read("/home/alice/listing/seen").unwrap(), b"listed");
}

#[test]
fn revoked_generation_moves_data_view() {
    // After immediate revocation the old ciphertext blocks are deleted from
    // the SSP — a revoked reader with a cached DEK has nothing to decrypt.
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let objects_before = world.server.store().object_count();
    let mut alice = world.client(ALICE);
    alice.chmod("/home/alice/notes.txt", Mode::from_octal(0o600)).unwrap();
    // Same number of data objects (old deleted, new written).
    let objects_after = world.server.store().object_count();
    assert_eq!(objects_before, objects_after);
}

#[test]
fn group_membership_revocation_via_rekey() {
    // Removing a user from a group (enterprise-side) revokes future access
    // once the owner re-keys (paper footnote 5).
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut bob = world.client(BOB);
    assert_eq!(bob.read("/shared/board.txt").unwrap(), b"minutes");

    // Enterprise removes bob from staff, then the owner re-keys by touching
    // permissions (chmod to the same-but-tighter mode triggers revocation
    // because bob's effective perm shrinks).
    let mut db = (*world.deployment.db).clone();
    db.remove_member(common::STAFF, BOB).unwrap();
    let moved = Deployment { db: Arc::new(db), ..world.deployment.clone() };
    let session = |uid, seed| {
        let transport = sharoes_net::InMemoryTransport::new(Arc::clone(&world.server) as _);
        let rng = sharoes_crypto::HmacDrbg::from_seed_u64(seed);
        moved.client_with_rng(uid, Box::new(transport), rng).unwrap()
    };

    // alice's client must use the updated directory.
    let mut alice = session(ALICE, 0xA11CE);
    alice.mount().unwrap();
    alice.chmod("/shared/board.txt", Mode::from_octal(0o660)).unwrap();

    // bob, now outside the group (fresh client with updated db), is out.
    let mut bob2 = session(BOB, 0xB0B);
    bob2.mount().unwrap();
    assert!(bob2.read("/shared/board.txt").is_err());
}

// ------------------------------------- split entries after a directory edit

/// A group cutting across staff and outside: bob and carol.
const MIX: Gid = Gid(300);

/// `small_db` plus `mix`, with `/d` root:wheel `dir_mode` (and `dir_acl`)
/// holding `/d/c`, root:outside `file_mode`, content `"c"`. A carol or bob
/// row of `/d` can continue into a class of `/d/c` that is not theirs.
fn split_tree(dir_mode: u32, dir_acl: Acl, file_mode: u32) -> LocalFs {
    let mut db = small_db();
    db.add_group(MIX, "mix").unwrap();
    db.add_member(MIX, BOB).unwrap();
    db.add_member(MIX, CAROL).unwrap();
    let mut fs = LocalFs::new(db, Gid(0), Mode::from_octal(0o755));
    fs.mkdir(ROOT_UID, "/d", Mode::from_octal(dir_mode)).unwrap();
    fs.set_acl(ROOT_UID, "/d", dir_acl).unwrap();
    fs.create(ROOT_UID, "/d/c", Mode::from_octal(file_mode)).unwrap();
    fs.write(ROOT_UID, "/d/c", b"c").unwrap();
    fs.chown(ROOT_UID, "/d/c", ROOT_UID, OUTSIDE).unwrap();
    fs
}

fn mix_rx() -> Acl {
    let mut acl = Acl::empty();
    acl.set_group(MIX, Perm::RX);
    acl
}

#[test]
fn directory_set_acl_writes_the_split_entries_its_rows_need() {
    // The mix row of /d continues into /d/c's Group class (carol's); bob is
    // Other there and needs a split entry he never had.
    let world = World::from_fs(
        split_tree(0o755, Acl::empty(), 0o604),
        CryptoPolicy::Sharoes,
        Scheme::SharedCaps,
        0x5B117,
    );
    assert_eq!(world.client(BOB).read("/d/c").unwrap(), b"c");
    world.client(ROOT_UID).set_acl("/d", mix_rx()).unwrap();
    assert_eq!(world.client(BOB).read("/d/c").unwrap(), b"c");

    // Control: the same tree migrated with the ACL in place.
    let world = World::from_fs(
        split_tree(0o755, mix_rx(), 0o604),
        CryptoPolicy::Sharoes,
        Scheme::SharedCaps,
        0x5B117,
    );
    assert_eq!(world.client(BOB).read("/d/c").unwrap(), b"c");
}

#[test]
fn directory_chmod_writes_the_split_entries_its_rows_need() {
    // Under 0750 the Other view of /d has no table, so carol, who diverges
    // there, got no split entry; 0755 gives that view a table.
    let world = World::from_fs(
        split_tree(0o750, Acl::empty(), 0o640),
        CryptoPolicy::Sharoes,
        Scheme::SharedCaps,
        0xC4A0D,
    );
    world.client(ROOT_UID).chmod("/d", Mode::from_octal(0o755)).unwrap();
    assert_eq!(world.client(CAROL).read("/d/c").unwrap(), b"c");

    // Control: the same tree migrated with the mode in place.
    let world = World::from_fs(
        split_tree(0o755, Acl::empty(), 0o640),
        CryptoPolicy::Sharoes,
        Scheme::SharedCaps,
        0xC4A0D,
    );
    assert_eq!(world.client(CAROL).read("/d/c").unwrap(), b"c");
}

/// Forwards every request to the server and logs the keys that `Get` and
/// `GetMany` ask for.
struct FetchLog {
    server: Arc<SspServer>,
    keys: Mutex<Vec<ObjectKey>>,
}

impl RequestHandler for FetchLog {
    fn handle(&self, request: Request) -> Response {
        match &request {
            Request::Get { key } => self.keys.lock().unwrap().push(*key),
            Request::GetMany { keys } => self.keys.lock().unwrap().extend(keys),
            _ => {}
        }
        self.server.handle(request)
    }
}

#[test]
fn cold_directory_chmod_round_trips_do_not_grow_with_its_entries() {
    // /home/alice/one holds one file and /home/alice/ten holds ten. A cold
    // owner client fetches the children's metadata of either in one round
    // trip, so both chmods cost the same.
    let mut fs = common::sample_tree();
    for (dir, files) in [("/home/alice/one", 1), ("/home/alice/ten", 10)] {
        fs.mkdir(ALICE, dir, Mode::from_octal(0o755)).unwrap();
        for i in 0..files {
            fs.create(ALICE, &format!("{dir}/f{i}"), Mode::from_octal(0o644)).unwrap();
        }
    }
    let world = World::from_fs(fs, CryptoPolicy::Sharoes, Scheme::SharedCaps, 0xC01D);
    let cold_chmod = |dir: &str| {
        let inode = world.client(ALICE).getattr(dir).unwrap().inode;
        let log = Arc::new(FetchLog { server: Arc::clone(&world.server), keys: Mutex::default() });
        let mut alice =
            world.client_via(ALICE, world.deployment.config.clone(), Arc::clone(&log) as _);
        let before = alice.meter().sample().round_trips;
        alice.chmod(dir, Mode::from_octal(0o750)).unwrap();
        let fetched = std::mem::take(&mut *log.keys.lock().unwrap());
        (alice.meter().sample().round_trips - before, inode, fetched)
    };
    let (one, ..) = cold_chmod("/home/alice/one");
    let (ten, inode, fetched) = cold_chmod("/home/alice/ten");
    assert_eq!(ten, one, "a directory chmod's round trips grew with its entries");
    // Resolving the path: metadata and table of /, /home and /home/alice,
    // then the directory's metadata (7 Gets). The owner's table (1 Get),
    // the other table replicas (1 GetMany), the children's metadata (1
    // GetMany), and one Mutate that stores the new records and deletes the
    // Other view's table, which 0750 drops.
    assert_eq!(ten, 11);
    // The owner's table replica is the first of the directory's table
    // slots to be fetched, and the harvest of the others must not fetch it
    // again.
    let tables: Vec<ObjectKey> =
        fetched.iter().copied().filter(|k| k.space == KeySpace::Data && k.inode == inode).collect();
    assert!(tables.len() > 1, "the chmod fetched no other table replica: {tables:?}");
    let owner = tables[0];
    assert_eq!(tables.iter().filter(|k| **k == owner).count(), 1, "owner's slot fetched twice");
    assert_eq!(world.client(BOB).readdir("/home/alice/ten").unwrap().len(), 10);
    assert!(world.client(CAROL).readdir("/home/alice/ten").is_err());
}
