//! Additional client coverage: group-addressed split entries, metadata
//! refresh, rename restrictions, cache behaviour, and edge cases.

mod common;

use common::{World, ALICE, BOB};
use sharoes_core::{ClientConfig, CoreError, CryptoPolicy, Scheme};
use sharoes_crypto::HmacDrbg;
use sharoes_fs::{Gid, LocalFs, Mode, Uid, UserDb, ROOT_UID};
use std::sync::Arc;

/// A deployment where THREE staff members diverge to the Group class at
/// /team (owned by alice): the migration emits one group-addressed split
/// entry instead of three per-user ones, and members must recover the group
/// key in-band at mount to follow it.
fn group_split_world() -> (World, Vec<Uid>) {
    let mut db = UserDb::new();
    db.add_group(Gid(0), "wheel").unwrap();
    db.add_group(Gid(100), "staff").unwrap();
    db.add_group(Gid(200), "outsiders").unwrap();
    db.add_user(ROOT_UID, "root", Gid(0)).unwrap();
    let staff: Vec<Uid> = (1..=4).map(Uid).collect();
    for (i, &uid) in staff.iter().enumerate() {
        db.add_user(uid, &format!("s{i}"), Gid(100)).unwrap();
    }
    // Four outsiders outnumber the three non-owner staff members, so the
    // continuation of "/"'s Other class into /team is Other — and all three
    // staff members diverge to Group together, triggering the
    // group-addressed split entry (one entry under the group public key
    // instead of three per-user ones).
    for i in 0..4u32 {
        db.add_user(Uid(10 + i), &format!("o{i}"), Gid(200)).unwrap();
    }

    let mut fs = LocalFs::new(db, Gid(0), Mode::from_octal(0o755));
    let m = Mode::from_octal;
    // /team owned by s0, group staff, group-accessible only.
    fs.mkdir(ROOT_UID, "/team", m(0o750)).unwrap();
    fs.chown(ROOT_UID, "/team", staff[0], Gid(100)).unwrap();
    fs.create(staff[0], "/team/plan.txt", m(0o640)).unwrap();
    fs.write(staff[0], "/team/plan.txt", b"group plan").unwrap();

    let world = World::from_fs(fs, CryptoPolicy::Sharoes, Scheme::SharedCaps, 0x97); // seed
    (world, staff)
}

#[test]
fn group_addressed_split_entries_route_members() {
    let (world, staff) = group_split_world();

    // Structural check: a group-addressed split entry exists for /team.
    let mut probe = world.client(staff[0]);
    let team_inode = probe.getattr("/team").unwrap().inode;
    let group_slot = sharoes_net::ObjectKey::metadata(
        team_inode,
        sharoes_core::ids::split_group_view(team_inode, Gid(100)),
    );
    assert!(
        world.server.store().get(&group_slot).is_some(),
        "expected a group-addressed split entry for /team"
    );

    // Functional: every staff member reaches the Group CAP through the
    // in-band group key (recovered from their group key block at mount),
    // while outsiders cannot traverse at all (0750).
    for &uid in &staff[1..] {
        let mut member = world.client(uid);
        assert_eq!(
            member.read("/team/plan.txt").unwrap(),
            b"group plan",
            "staff member {uid} must reach the Group CAP"
        );
        // Group CAP for 0640 file has no write.
        assert!(member.write("/team/plan.txt", b"nope").is_err());
    }
    // The owner keeps full control via their Owner CAP.
    let mut owner = world.client(staff[0]);
    owner.write_file("/team/plan.txt", b"group plan v2").unwrap();
    let mut member = world.client(staff[2]);
    assert_eq!(member.read("/team/plan.txt").unwrap(), b"group plan v2");

    // Outsiders follow the (keyless) Other continuation and are denied.
    let mut outsider = world.client(Uid(10));
    assert!(outsider.read("/team/plan.txt").is_err());
}

#[test]
fn fsync_metadata_refreshes_size() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    alice.create("/home/alice/grow.txt", Mode::from_octal(0o644)).unwrap();
    alice.write_file("/home/alice/grow.txt", &vec![7u8; 5000]).unwrap();

    // Per Figure 8, close updates data only: a fresh client still sees the
    // creation-time metadata size.
    let mut fresh = world.client(ALICE);
    assert_eq!(fresh.getattr("/home/alice/grow.txt").unwrap().size, 0);
    // The data itself is authoritative.
    assert_eq!(fresh.read("/home/alice/grow.txt").unwrap().len(), 5000);

    // The owner can push attributes explicitly.
    alice.fsync_metadata("/home/alice/grow.txt").unwrap();
    let mut fresh2 = world.client(ALICE);
    let st = fresh2.getattr("/home/alice/grow.txt").unwrap();
    assert_eq!(st.size, 5000);
    assert_eq!(st.nblocks, 2); // 5000 bytes at 4096 block size

    // Non-owners cannot.
    let mut bob = world.client(BOB);
    assert!(matches!(
        bob.fsync_metadata("/home/alice/notes.txt").unwrap_err(),
        CoreError::PermissionDenied { .. }
    ));
}

#[test]
fn cross_directory_rename_restricted() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    alice.mkdir("/home/alice/a", Mode::from_octal(0o755)).unwrap();
    alice.mkdir("/home/alice/b", Mode::from_octal(0o755)).unwrap();
    alice.create("/home/alice/a/f", Mode::from_octal(0o644)).unwrap();
    let err = alice.rename("/home/alice/a/f", "/home/alice/b/f").unwrap_err();
    assert!(matches!(err, CoreError::PermissionDenied { .. }), "{err}");
    // Same-directory rename still works afterwards.
    alice.rename("/home/alice/a/f", "/home/alice/a/g").unwrap();
    assert!(alice.getattr("/home/alice/a/g").is_ok());
}

#[test]
fn empty_and_single_byte_files() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    alice.create("/home/alice/empty", Mode::from_octal(0o644)).unwrap();
    assert_eq!(alice.read("/home/alice/empty").unwrap(), b"");
    alice.write_file("/home/alice/empty", b"x").unwrap();
    assert_eq!(alice.read("/home/alice/empty").unwrap(), b"x");
    alice.write_file("/home/alice/empty", b"").unwrap();
    assert_eq!(alice.read("/home/alice/empty").unwrap(), b"");
    let mut bob = world.client(BOB);
    assert_eq!(bob.read("/home/alice/empty").unwrap(), b"");
}

#[test]
fn exact_block_boundary_files() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    for size in [4096usize, 8192, 4095, 4097] {
        let path = format!("/home/alice/b{size}");
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        alice.create(&path, Mode::from_octal(0o644)).unwrap();
        alice.write_file(&path, &data).unwrap();
        assert_eq!(alice.read(&path).unwrap(), data, "size {size}");
        let mut fresh = world.client(ALICE);
        assert_eq!(fresh.read(&path).unwrap(), data, "cold size {size}");
    }
}

#[test]
fn deep_nesting_resolves() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let mut path = "/home/alice".to_string();
    for depth in 0..8 {
        path = format!("{path}/d{depth}");
        alice.mkdir(&path, Mode::from_octal(0o755)).unwrap();
    }
    let file = format!("{path}/leaf.txt");
    alice.create(&file, Mode::from_octal(0o644)).unwrap();
    alice.write_file(&file, b"deep").unwrap();
    let mut bob = world.client(BOB);
    assert_eq!(bob.read(&file).unwrap(), b"deep");
}

#[test]
fn bounded_cache_still_correct() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut config = ClientConfig::test_with(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    config.cache_capacity = Some(512); // pathologically small
    let mut alice = world.client_with_config(ALICE, config);
    // Everything still works; it is just slower (more refetches).
    assert_eq!(alice.read("/home/alice/notes.txt").unwrap(), b"alice's notes");
    alice.create("/home/alice/small-cache.txt", Mode::from_octal(0o644)).unwrap();
    alice.write_file("/home/alice/small-cache.txt", &vec![3u8; 10_000]).unwrap();
    assert_eq!(alice.read("/home/alice/small-cache.txt").unwrap(), vec![3u8; 10_000]);
    let stats = alice.cache_stats();
    assert!(stats.evictions > 0, "tiny cache must evict");
}

#[test]
fn write_then_grant_then_read_by_new_reader() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    alice.create("/home/alice/secret-draft", Mode::from_octal(0o600)).unwrap();
    alice.write_file("/home/alice/secret-draft", b"v1 private").unwrap();
    let mut bob = world.client(BOB);
    assert!(bob.read("/home/alice/secret-draft").is_err());
    // Grant group read after content exists: the existing DEK is
    // re-provisioned into the group CAP (no re-encryption needed for grants).
    let gen_before = alice.getattr("/home/alice/secret-draft").unwrap().generation;
    alice.chmod("/home/alice/secret-draft", Mode::from_octal(0o640)).unwrap();
    assert_eq!(
        alice.getattr("/home/alice/secret-draft").unwrap().generation,
        gen_before,
        "grants must not re-key"
    );
    let mut bob2 = world.client(BOB);
    assert_eq!(bob2.read("/home/alice/secret-draft").unwrap(), b"v1 private");
}

#[test]
fn unmounted_operations_fail_cleanly() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let transport = sharoes_net::InMemoryTransport::new(Arc::clone(&world.server) as _);
    let rng = HmacDrbg::from_seed_u64(1);
    let mut client = world.deployment.client_with_rng(ALICE, Box::new(transport), rng).unwrap();
    for err in [
        client.read("/x").unwrap_err(),
        client.getattr("/x").unwrap_err(),
        client.readdir("/").unwrap_err(),
        client.mkdir("/x", Mode::from_octal(0o755)).unwrap_err(),
        client.unlink("/x").unwrap_err(),
    ] {
        assert!(matches!(err, CoreError::NotMounted), "{err}");
    }
}

#[test]
fn readdir_sees_other_clients_creates() {
    // The lookup-miss revalidation also applies to listing freshness via
    // table refetch on invalidation; a fresh mount always sees the truth.
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let mut bob = world.client(BOB);
    let before = bob.readdir("/shared").unwrap().len();
    alice.create("/shared/new-entry", Mode::from_octal(0o664)).unwrap();
    // bob resolves the new entry by name despite his stale cached table.
    assert!(bob.getattr("/shared/new-entry").is_ok());
    let mut bob_fresh = world.client(BOB);
    assert_eq!(bob_fresh.readdir("/shared").unwrap().len(), before + 1);
}
