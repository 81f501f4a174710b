//! End-to-end semantics: the Sharoes client must expose *nix-equivalent
//! data sharing semantics over the untrusted SSP, for both schemes and all
//! five implementations.

mod common;

use common::{sample_tree, World, ALICE, BOB, CAROL};
use sharoes_core::scheme::MANIFEST_BLOCK;
use sharoes_core::{
    ids, ClassTag, ClientConfig, CoreError, CryptoPolicy, Scheme, SharoesClient, ViewId,
};
use sharoes_crypto::{HmacDrbg, Sha256};
use sharoes_fs::{Acl, Mode, NodeKind, Perm};
use sharoes_net::{InMemoryTransport, ObjectKey};
use std::sync::Arc;

fn all_schemes() -> [Scheme; 2] {
    [Scheme::SharedCaps, Scheme::PerUser]
}

#[test]
fn owner_reads_own_tree() {
    for scheme in all_schemes() {
        let world = World::new(CryptoPolicy::Sharoes, scheme);
        let mut alice = world.client(ALICE);
        assert_eq!(alice.read("/home/alice/notes.txt").unwrap(), b"alice's notes");
        assert_eq!(alice.read("/home/alice/private/key").unwrap(), b"top secret");
        let st = alice.getattr("/home/alice/notes.txt").unwrap();
        assert_eq!(st.owner, ALICE);
        assert_eq!(st.mode, Mode::from_octal(0o644));
        assert_eq!(st.kind, NodeKind::File);
        assert_eq!(st.size, 13);
    }
}

#[test]
fn group_member_reads_world_readable() {
    for scheme in all_schemes() {
        let world = World::new(CryptoPolicy::Sharoes, scheme);
        let mut bob = world.client(BOB);
        assert_eq!(bob.read("/home/alice/notes.txt").unwrap(), b"alice's notes", "{scheme:?}");
        assert_eq!(bob.read("/shared/board.txt").unwrap(), b"minutes");
    }
}

#[test]
fn private_dir_blocks_traversal() {
    for scheme in all_schemes() {
        let world = World::new(CryptoPolicy::Sharoes, scheme);
        let mut bob = world.client(BOB);
        let err = bob.read("/home/alice/private/key").unwrap_err();
        assert!(
            matches!(err, CoreError::PermissionDenied { .. } | CoreError::NotFound(_)),
            "{scheme:?}: {err}"
        );
        let mut carol = world.client(CAROL);
        assert!(carol.read("/home/alice/private/key").is_err());
    }
}

#[test]
fn exec_only_dropbox_semantics() {
    for scheme in all_schemes() {
        let world = World::new(CryptoPolicy::Sharoes, scheme);
        let mut bob = world.client(BOB);
        // Cannot list...
        let err = bob.readdir("/home/alice/dropbox").unwrap_err();
        assert!(matches!(err, CoreError::PermissionDenied { needed: "read", .. }), "{scheme:?}");
        // ...but can fetch by exact name (the paper's §III-A headline CAP).
        assert_eq!(bob.read("/home/alice/dropbox/drop").unwrap(), b"droppable");
        // Wrong name: not found, and no information about what exists.
        assert!(matches!(
            bob.read("/home/alice/dropbox/guess").unwrap_err(),
            CoreError::NotFound(_)
        ));
    }
}

#[test]
fn read_only_listing_semantics() {
    for scheme in all_schemes() {
        let world = World::new(CryptoPolicy::Sharoes, scheme);
        let mut bob = world.client(BOB);
        // Can list names...
        let entries = bob.readdir("/home/alice/listing").unwrap();
        assert_eq!(entries.len(), 1, "{scheme:?}");
        assert_eq!(entries[0].name, "seen");
        // Read-only CAP hides inode numbers and keys.
        assert_eq!(entries[0].inode, None);
        // ...but cannot traverse (no exec).
        assert!(matches!(
            bob.read("/home/alice/listing/seen").unwrap_err(),
            CoreError::PermissionDenied { needed: "exec (traverse)", .. }
        ));
        assert!(bob.getattr("/home/alice/listing/seen").is_err());
    }
}

#[test]
fn owner_readdir_shows_full_rows() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let mut entries = alice.readdir("/home/alice").unwrap();
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec!["dropbox", "listing", "notes.txt", "private"]);
    assert!(entries.iter().all(|e| e.inode.is_some()));
}

#[test]
fn group_writer_updates_shared_file() {
    for scheme in all_schemes() {
        let world = World::new(CryptoPolicy::Sharoes, scheme);
        let mut bob = world.client(BOB);
        bob.write_file("/shared/board.txt", b"minutes v2 by bob").unwrap();
        // Both bob and alice see the update.
        assert_eq!(bob.read("/shared/board.txt").unwrap(), b"minutes v2 by bob");
        let mut alice = world.client(ALICE);
        assert_eq!(alice.read("/shared/board.txt").unwrap(), b"minutes v2 by bob", "{scheme:?}");
    }
}

#[test]
fn non_writer_cannot_write() {
    for scheme in all_schemes() {
        let world = World::new(CryptoPolicy::Sharoes, scheme);
        let mut carol = world.client(CAROL);
        // carol can read /shared/board.txt (0664 other=r) but not write.
        assert_eq!(carol.read("/shared/board.txt").unwrap(), b"minutes");
        assert!(matches!(
            carol.write("/shared/board.txt", b"vandalism"),
            Err(CoreError::PermissionDenied { .. })
        ));
        // And bob cannot write alice's notes (0644).
        let mut bob = world.client(BOB);
        assert!(bob.write("/home/alice/notes.txt", b"graffiti").is_err());
    }
}

#[test]
fn create_write_read_delete_cycle() {
    for scheme in all_schemes() {
        let world = World::new(CryptoPolicy::Sharoes, scheme);
        let mut alice = world.client(ALICE);
        alice.create("/home/alice/fresh.txt", Mode::from_octal(0o644)).unwrap();
        assert_eq!(alice.read("/home/alice/fresh.txt").unwrap(), b"");
        alice.write_file("/home/alice/fresh.txt", b"fresh content").unwrap();
        assert_eq!(alice.read("/home/alice/fresh.txt").unwrap(), b"fresh content");

        // Visible to another mounted client.
        let mut bob = world.client(BOB);
        assert_eq!(bob.read("/home/alice/fresh.txt").unwrap(), b"fresh content", "{scheme:?}");

        alice.unlink("/home/alice/fresh.txt").unwrap();
        assert!(matches!(alice.read("/home/alice/fresh.txt").unwrap_err(), CoreError::NotFound(_)));
        let mut bob2 = world.client(BOB);
        assert!(bob2.read("/home/alice/fresh.txt").is_err());
    }
}

#[test]
fn mkdir_and_nested_creation() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    alice.mkdir("/home/alice/proj", Mode::from_octal(0o755)).unwrap();
    alice.mkdir("/home/alice/proj/src", Mode::from_octal(0o755)).unwrap();
    alice.create("/home/alice/proj/src/main.rs", Mode::from_octal(0o644)).unwrap();
    alice.write_file("/home/alice/proj/src/main.rs", b"fn main() {}").unwrap();
    assert_eq!(alice.read("/home/alice/proj/src/main.rs").unwrap(), b"fn main() {}");
    let st = alice.getattr("/home/alice/proj").unwrap();
    assert_eq!(st.kind, NodeKind::Dir);

    // Fresh client (cold cache) sees the whole subtree.
    let mut bob = world.client(BOB);
    assert_eq!(bob.read("/home/alice/proj/src/main.rs").unwrap(), b"fn main() {}");
}

#[test]
fn create_in_shared_dir_by_group_member() {
    for scheme in all_schemes() {
        let world = World::new(CryptoPolicy::Sharoes, scheme);
        let mut bob = world.client(BOB);
        bob.create("/shared/bobs.txt", Mode::from_octal(0o664)).unwrap();
        bob.write_file("/shared/bobs.txt", b"from bob").unwrap();
        let mut alice = world.client(ALICE);
        assert_eq!(alice.read("/shared/bobs.txt").unwrap(), b"from bob", "{scheme:?}");
        // alice (group member) can edit bob's 0664 file.
        alice.write_file("/shared/bobs.txt", b"edited by alice").unwrap();
        let mut bob2 = world.client(BOB);
        assert_eq!(bob2.read("/shared/bobs.txt").unwrap(), b"edited by alice");
        // carol (other) cannot create here.
        let mut carol = world.client(CAROL);
        assert!(carol.create("/shared/carols.txt", Mode::from_octal(0o644)).is_err());
    }
}

#[test]
fn duplicate_and_missing_errors() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    assert!(matches!(
        alice.create("/home/alice/notes.txt", Mode::from_octal(0o644)).unwrap_err(),
        CoreError::AlreadyExists(_)
    ));
    assert!(matches!(alice.read("/home/alice/nope").unwrap_err(), CoreError::NotFound(_)));
    assert!(matches!(
        alice.read("/home/alice/notes.txt/sub").unwrap_err(),
        CoreError::NotADirectory(_)
    ));
    assert!(matches!(alice.read("/home/alice").unwrap_err(), CoreError::IsADirectory(_)));
}

#[test]
fn rename_within_directory() {
    for scheme in all_schemes() {
        let world = World::new(CryptoPolicy::Sharoes, scheme);
        let mut alice = world.client(ALICE);
        alice.rename("/home/alice/notes.txt", "/home/alice/renamed.txt").unwrap();
        assert!(alice.read("/home/alice/notes.txt").is_err());
        assert_eq!(alice.read("/home/alice/renamed.txt").unwrap(), b"alice's notes");
        // Another client agrees.
        let mut bob = world.client(BOB);
        assert_eq!(bob.read("/home/alice/renamed.txt").unwrap(), b"alice's notes", "{scheme:?}");
        // Rename through an exec-only view re-keys hidden rows correctly.
        alice.rename("/home/alice/dropbox/drop", "/home/alice/dropbox/drop2").unwrap();
        let mut bob2 = world.client(BOB);
        assert!(bob2.read("/home/alice/dropbox/drop").is_err());
        assert_eq!(bob2.read("/home/alice/dropbox/drop2").unwrap(), b"droppable");
    }
}

#[test]
fn rmdir_requires_empty() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    assert!(matches!(alice.rmdir("/home/alice/private").unwrap_err(), CoreError::NotEmpty(_)));
    alice.unlink("/home/alice/private/key").unwrap();
    alice.rmdir("/home/alice/private").unwrap();
    assert!(alice.getattr("/home/alice/private").is_err());
}

#[test]
fn all_policies_basic_semantics() {
    for policy in [
        CryptoPolicy::NoEncMdD,
        CryptoPolicy::NoEncMd,
        CryptoPolicy::Sharoes,
        CryptoPolicy::Public,
        CryptoPolicy::PubOpt,
    ] {
        let world = World::new(policy, Scheme::SharedCaps);
        let mut alice = world.client(ALICE);
        assert_eq!(alice.read("/home/alice/notes.txt").unwrap(), b"alice's notes", "{policy:?}");
        alice.create("/home/alice/x.txt", Mode::from_octal(0o644)).unwrap();
        alice.write_file("/home/alice/x.txt", b"xyz").unwrap();
        assert_eq!(alice.read("/home/alice/x.txt").unwrap(), b"xyz", "{policy:?}");
        let mut bob = world.client(BOB);
        assert_eq!(bob.read("/home/alice/x.txt").unwrap(), b"xyz", "{policy:?}");
        // Exec-only still behaves across policies.
        assert!(bob.readdir("/home/alice/dropbox").is_err());
        assert_eq!(bob.read("/home/alice/dropbox/drop").unwrap(), b"droppable", "{policy:?}");
    }
}

#[test]
fn multi_block_files_roundtrip() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    // Default test block size is 4096; write ~3.5 blocks.
    let big: Vec<u8> = (0..14_000u32).map(|i| (i % 251) as u8).collect();
    alice.create("/home/alice/big.bin", Mode::from_octal(0o644)).unwrap();
    alice.write_file("/home/alice/big.bin", &big).unwrap();
    assert_eq!(alice.read("/home/alice/big.bin").unwrap(), big);
    let mut bob = world.client(BOB);
    assert_eq!(bob.read("/home/alice/big.bin").unwrap(), big);

    // Shrink: stale blocks must disappear.
    alice.write_file("/home/alice/big.bin", b"now tiny").unwrap();
    let mut bob2 = world.client(BOB);
    assert_eq!(bob2.read("/home/alice/big.bin").unwrap(), b"now tiny");
}

#[test]
fn split_points_route_owner_and_group() {
    // /home is root-owned; /home/alice is alice-owned: continuation for
    // /home's classes lands on Group or Other, and alice reaches her Owner
    // CAP via a split entry (§III-D.2).
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let st = alice.getattr("/home/alice").unwrap();
    assert_eq!(st.owner, ALICE);
    // Owner powers prove she reached her Owner CAP: she can chmod.
    alice.chmod("/home/alice/notes.txt", Mode::from_octal(0o600)).unwrap();
    let mut bob = world.client(BOB);
    assert!(bob.read("/home/alice/notes.txt").is_err());
}

#[test]
fn deep_unshared_paths_have_no_splits_for_owner() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    // Below /home/alice everything is alice-owned: her class stays Owner,
    // so resolution succeeds repeatedly (and cheaply) without split lookups.
    for _ in 0..3 {
        assert_eq!(alice.read("/home/alice/private/key").unwrap(), b"top secret");
    }
}

#[test]
fn perm_of_matches_local_model() {
    // The client's permission view must agree with the local-fs reference.
    let fs = common::sample_tree();
    let world = World::from_fs(fs.clone(), CryptoPolicy::Sharoes, Scheme::SharedCaps, 7);
    let mut clients: Vec<_> =
        [ALICE, BOB, CAROL].into_iter().map(|u| (u, world.client(u))).collect();
    for path in ["/home/alice/notes.txt", "/shared/board.txt", "/home/alice/dropbox/drop"] {
        for (uid, client) in clients.iter_mut() {
            let local = fs.read(*uid, path);
            let remote = client.read(path);
            assert_eq!(
                local.is_ok(),
                remote.is_ok(),
                "access parity broke for {uid} on {path}: local={local:?} remote={remote:?}"
            );
            if let (Ok(l), Ok(r)) = (local, remote) {
                assert_eq!(l, r, "content parity broke for {uid} on {path}");
            }
        }
    }
}

#[test]
fn write_visibility_before_close() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    alice.write("/home/alice/notes.txt", b"draft").unwrap();
    // The writer sees their own uncommitted draft...
    assert_eq!(alice.read("/home/alice/notes.txt").unwrap(), b"draft");
    // ...but other clients still see the old content until close.
    let mut bob = world.client(BOB);
    assert_eq!(bob.read("/home/alice/notes.txt").unwrap(), b"alice's notes");
    alice.close("/home/alice/notes.txt").unwrap();
    let mut bob2 = world.client(BOB);
    assert_eq!(bob2.read("/home/alice/notes.txt").unwrap(), b"draft");
}

#[test]
fn unsupported_permissions_rejected_at_runtime() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    // Directory write-exec for group.
    assert!(matches!(
        alice.mkdir("/home/alice/wx", Mode::from_octal(0o730)).unwrap_err(),
        CoreError::UnsupportedPermission { .. }
    ));
    // File write-only for other.
    assert!(matches!(
        alice.create("/home/alice/wo", Mode::from_octal(0o642)).unwrap_err(),
        CoreError::UnsupportedPermission { .. }
    ));
    // chmod into an unsupported mode is refused too.
    assert!(alice.chmod("/home/alice/notes.txt", Mode::from_octal(0o602)).is_err());
    let _ = Perm::WX; // referenced for readability
}

#[test]
fn chmod_requires_ownership() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut bob = world.client(BOB);
    assert!(matches!(
        bob.chmod("/home/alice/notes.txt", Mode::from_octal(0o666)).unwrap_err(),
        CoreError::PermissionDenied { .. }
    ));
}

#[test]
fn mount_required() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let transport = InMemoryTransport::new(Arc::clone(&world.server) as _);
    let mut client = world.deployment.client(ALICE, Box::new(transport)).unwrap();
    assert!(matches!(client.read("/shared/board.txt").unwrap_err(), CoreError::NotMounted));
    client.mount().unwrap();
    assert!(client.is_mounted());
    assert_eq!(client.read("/shared/board.txt").unwrap(), b"minutes");
}

// ------------------------------------------------- sealed-byte golden pins

// A migrated deployment and one client, both seeded, write files of 0, 1,
// 4095, 4096, 4097 and 70 x 4096 + 5 bytes through `write_file`. Every
// record the SSP then stores for them (manifest and blocks) is hashed and
// pinned, as is the whole store's snapshot, which also covers the records
// the migration sealed. A changed digest means a sealed byte moved: an IV,
// a DRBG draw, a manifest or a signature.

const SIZES: [usize; 6] = [0, 1, 4095, 4096, 4097, 70 * 4096 + 5];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Writes the files and returns, per file, the SHA-256 over the SHA-256s
/// of its stored records (manifest first, then blocks in order), followed
/// by the SHA-256 of the whole store's snapshot.
fn sealed_digests(policy: CryptoPolicy) -> Vec<String> {
    let world = World::from_fs(sample_tree(), policy, Scheme::SharedCaps, 0x5EA1);
    let transport = InMemoryTransport::new(Arc::clone(&world.server) as _);
    let rng = HmacDrbg::from_seed_u64(0x005E_A1ED);
    let mut alice = world.deployment.client_with_rng(ALICE, Box::new(transport), rng).unwrap();
    alice.mount().expect("mount");

    let mut out = Vec::new();
    for (n, size) in SIZES.into_iter().enumerate() {
        let path = format!("/home/alice/golden-{n}.bin");
        let content: Vec<u8> = (0..size).map(|i| ((i * 31 + 7) % 251) as u8).collect();
        alice.create(&path, Mode::from_octal(0o644)).unwrap();
        alice.write_file(&path, &content).unwrap();
        assert_eq!(alice.read(&path).unwrap(), content);

        let inode = alice.getattr(&path).unwrap().inode;
        let dview = ids::data_view(inode, 0);
        let nblocks = size.div_ceil(4096) as u32;
        let store = world.server.store();
        let mut h = Sha256::new();
        for block in std::iter::once(MANIFEST_BLOCK).chain(0..nblocks) {
            let record = store.get(&ObjectKey::data(inode, dview, block)).expect("record stored");
            h.update(&Sha256::digest(&record));
        }
        assert!(store.get(&ObjectKey::data(inode, dview, nblocks)).is_none());
        out.push(hex(&h.finalize_array()));
    }
    out.push(hex(&Sha256::digest(&world.server.store().snapshot())));
    out
}

#[test]
fn sealed_records_match_the_golden_digests() {
    let golden: [(CryptoPolicy, [&str; 7]); 3] = [
        (
            CryptoPolicy::Sharoes,
            [
                "264c04e10da47139d4f60c6045867aef84ee638a378c57df5cd31962127d576d",
                "16a0c36226196d998730e6c72b6953716875a48efc14c1ec18419c4a400e78f5",
                "3859db57d34f549b4398ea9c359573c831907c317599f44423c65a8d8f20897e",
                "fa9895525f3dd98ddd8fdb97f117afb4e256e12cc3482d33652e729f044d11f7",
                "902310b6da7bd1f19a23c0cd9bb3f47a7e43acc2b33d2e3261ee6b4776aff1fe",
                "ce1fc5e6e7845622bd6d3ae2e130d1ab796a875fbb4cc7f11c2a0081237f4baf",
                "dc41661837bf214fe818eccdfeb81ec79f4ed4a41407da43199546a42dd52320",
            ],
        ),
        (
            CryptoPolicy::NoEncMd,
            [
                "eb7f58c4efd0f28e289a6e7f716dce8cf2f282656fe900645db2a4430a7379d8",
                "cd69de1ffb9d2ac85f04cc8350b72a906d20dfb0f8179868ee7b2a2ba13356ab",
                "427b693b9ac29bd448f3354c5f5692680d0fb1ede3a5834afc721a3491ca5e45",
                "c9b911281fb488ef4da2cea2448478507457b904d1b920cd3ecc0444b26bb7f4",
                "31df3b3d9bc231b04a052f797fbcc421e8d4a49aab6f32f93e82f9955f552b14",
                "b6a1ee05026b81eaf9b52119e3383c53b991522f00ade6eb1ede34970cacfe3e",
                "736d92041eaead54f6480801d51c21e421afb6da89526bc76ce20d3399e7cd86",
            ],
        ),
        (
            CryptoPolicy::NoEncMdD,
            [
                "3a543cf386f6b20989915030908e107b0ca9223d89ca177d11800ce3d720706f",
                "7b976beba68b17bdeaeb9170963afa56e89f57a5809337c3d9b904f39518bec5",
                "78c53fe127052b54ea7ba777116d376cfc08f90820a18faa349a9ee7a97c9df7",
                "58c201f70e7c86dad66e353c7a9380fe39db6862beeb15ca8688d4b7ea5023fb",
                "fea71a08761fb5e3ab0855e7a25ea374e9caa0cbea135a2f384e18e75292ac7d",
                "156dcd20f3bc250a07e0676874f8eaf2db232f377ae2cbf4ee6395fa658c86f6",
                "a2dc84fbfd120a84dd9a84acdad136c1a5a68ea5902d53750286069092198536",
            ],
        ),
    ];
    for (policy, want) in golden {
        let got = sealed_digests(policy);
        assert_eq!(got, want, "{policy:?}");
    }
}

// ---------------------------------------------- directory-table golden pins

// A migrated deployment and one seeded alice client run a fixed sequence of
// directory edits: mkdir, create, rename and unlink in a 0755 directory,
// creates and unlinks in the 0711 exec-only dropbox, a chmod 0755 -> 0750
// -> 0755, and a set_acl that makes no user newly divergent. After each
// step the table replicas of the directories it touched are hashed and
// pinned, as is the whole store's snapshot at the end. A changed digest
// means a sealed table byte moved: a row, an IV, a DRBG draw or a
// signature. The baselines are per-user whatever the configured scheme, so
// both of their runs check one pinned list.

/// SHA-256 over the SHA-256s of every table-replica slot of directory
/// `inode` (an absent slot hashes as 32 zero bytes), in a fixed view order.
fn table_digest(world: &World, inode: u64) -> [u8; 32] {
    let views: Vec<ViewId> = match world.deployment.config.effective_scheme() {
        Scheme::PerUser => (0..=3).map(ViewId::User).collect(),
        Scheme::SharedCaps => {
            [ClassTag::Owner, ClassTag::Group, ClassTag::Other, ClassTag::AclUser(2)]
                .into_iter()
                .map(ViewId::Class)
                .collect()
        }
    };
    let store = world.server.store();
    let mut h = Sha256::new();
    for view in views {
        match store.get(&ObjectKey::data(inode, view.tag(inode), 0)) {
            Some(record) => h.update(&Sha256::digest(&record)),
            None => h.update(&[0u8; 32]),
        }
    }
    h.finalize_array()
}

/// Runs the edit sequence and returns one digest per step (the touched
/// directories' [`table_digest`]s, hashed together), then the snapshot's.
fn table_digests(policy: CryptoPolicy, scheme: Scheme) -> Vec<String> {
    let world = World::from_fs(sample_tree(), policy, scheme, 0x7AB1E);
    let transport = InMemoryTransport::new(Arc::clone(&world.server) as _);
    let rng = HmacDrbg::from_seed_u64(0x7AB1_E5ED);
    let mut alice = world.deployment.client_with_rng(ALICE, Box::new(transport), rng).unwrap();
    alice.mount().expect("mount");
    let mut out = Vec::new();
    let mut pin = |alice: &mut SharoesClient, dirs: &[&str]| {
        let mut h = Sha256::new();
        for dir in dirs {
            let inode = alice.getattr(dir).unwrap().inode;
            h.update(&table_digest(&world, inode));
        }
        out.push(hex(&h.finalize_array()));
    };
    let m = Mode::from_octal;
    let (home, t, dropbox) = ("/home/alice", "/home/alice/t", "/home/alice/dropbox");
    alice.mkdir(t, m(0o755)).unwrap();
    pin(&mut alice, &[home, t]);
    alice.create("/home/alice/t/f", m(0o644)).unwrap();
    pin(&mut alice, &[t]);
    alice.rename("/home/alice/t/f", "/home/alice/t/g").unwrap();
    pin(&mut alice, &[t]);
    alice.create("/home/alice/t/h", m(0o644)).unwrap();
    pin(&mut alice, &[t]);
    alice.unlink("/home/alice/t/g").unwrap();
    pin(&mut alice, &[t]);
    alice.create("/home/alice/dropbox/x", m(0o644)).unwrap();
    pin(&mut alice, &[dropbox]);
    alice.create("/home/alice/dropbox/y", m(0o644)).unwrap();
    pin(&mut alice, &[dropbox]);
    alice.unlink("/home/alice/dropbox/x").unwrap();
    pin(&mut alice, &[dropbox]);
    alice.chmod(t, m(0o750)).unwrap();
    pin(&mut alice, &[t]);
    alice.chmod(t, m(0o755)).unwrap();
    pin(&mut alice, &[t]);
    // bob's ACL class at t continues into h's Group class, which is his.
    let mut acl = Acl::empty();
    acl.set_user(BOB, Perm::RX);
    alice.set_acl(t, acl).unwrap();
    pin(&mut alice, &[t]);
    out.push(hex(&Sha256::digest(&world.server.store().snapshot())));
    out
}

#[test]
fn table_records_match_the_golden_digests() {
    let golden: [(CryptoPolicy, Scheme, [&str; 12]); 4] = [
        (
            CryptoPolicy::Sharoes,
            Scheme::SharedCaps,
            [
                "adc2f122c5f1862195980fed3a1d42473650386e1e7dbb25c129e1699a6445ab",
                "136cccfc7129c4c9ffadceb3e29a2089e8267bd1ae7099468c146cab6fde7a57",
                "c4e91b30fc0ff00362d8d5a9445fb679631c5036509898a28c99ddffe27f9579",
                "5e82907cf0b7bd866a375db1e0d523800747addd3b72001bc276c9bccda0940b",
                "6788363598052f9a5466fea7560bfe0636c15d757c9ff2705e93a2f6a9098a0d",
                "3f6f30d96aee403e5962ad4478cc0d22b8cdb1cc389c8796cccdf83a10b7e797",
                "d6a1b271ddd6aa426ad92b29a310d21d24a0765df5eb500f678cd12761b9979e",
                "18d8cf14a4796ab6957a2072ebc9e883c99142880b0f723b9171f463fc073bd5",
                "db9b04d07cee16ea961f048208f3d2f37f5e20606dd921d5ef6dc548fc83c5e3",
                "c797f3fcb35b0316cf29c18e9d16658057d1018a8008e82160b7b1a6590bcf3d",
                "078b5a57d7dc99c2749eea6f712ca64a0ccc2341634b00ba22bb91fd5cfa4564",
                "569a24223efbccb8e872ae39e3ac359189c6a02143b3488c881401230583bdfb",
            ],
        ),
        (
            CryptoPolicy::Sharoes,
            Scheme::PerUser,
            [
                "8ea36b7ac7d2ba60e2ae84d5f089aeb5eae397beab0cf3f7341f33a10d681b35",
                "029ba8a91af540a29a92793f9207d86a5997ec64993aadf20037713ecc28207b",
                "e030a56d37d0f989eefb27a994f70229105170c085fd2b58c235616612033033",
                "cbd8287356c8218ee733c882edd3679f572141fdef3fe048e3351a77c49ea465",
                "65b4f7d0a5ee92e2a831f8146066345b0ecc599d8c0c3dfaaf02bf8046b4ed77",
                "dece066b249452c10a7210159c5a3df36d4f6420bbfaa9811d66f6032358fa65",
                "73349746ae4b999553a054703c67165c31eec9caab46a4ff19d0ece86554b982",
                "323678c870229b84d4e8f8c487c0c3921a19687bbc9100899c27be59a4b2442a",
                "1dea001b3b1cefe6f06c06bb6545c4c239f9a3fae294e7b1c4e1f2fa83a23601",
                "50ed4e42858757e245770ccefb5125edfce1d3f358524b15f3d3e390c14cd27e",
                "bf9f91f48e3a7bc0c605fa2d9a30f093352b235301881ac8e00caf436faf6532",
                "5c2da92ac935cef6f0aab4d6620097bb93467615a1e7a4c34a684020e956f85f",
            ],
        ),
        (
            CryptoPolicy::NoEncMd,
            Scheme::PerUser,
            [
                "63566981c05ab77767fb6f54be6e7e9aa644758ae27919bc5d925d44b7f9eb75",
                "7f726a29e2de1d5cdd6669a624609606d9e3300a503c69fbfc73ee6b19d53809",
                "08be7596bb2e5d54f9288c67897c8c349cc5d0b4cce4797092fd9e4e8de618aa",
                "781db53a01130d3e5d500c1ae39b951148c6665339cca455f3238436da8236f8",
                "baafb953ab9fb4c28e2e4d1eb999a23c8e5427a169a1df236c4fa6a9eda65870",
                "5e45f66617004289c60b6a4e438e63c5d4dc14ebb853613f5733b01f2a65c952",
                "1e6c9927bab3de22eebb20fbb34a25aff9cdf9b7c17bab3cd9e90d1f2081c52e",
                "e2662335cda98c53823ff951ae6d3e26c3246237ae76077485e7b3ba706649cd",
                "5ab5ec72152539068cd6745d9969f7b013ede06e18e13869db9246f67bfd190f",
                "efe3fe582949fe6981ed4e3d4692e22f5f74c4ac430d87608b4635076c7989b2",
                "50fe37d8439f43afeb83701131a3eb96fa7e37711f4fd4209a82e169602b54c3",
                "f90b1f2d9b610172af147843159a9ef9e4b9af7cf024e0009258f8727fccc779",
            ],
        ),
        (
            CryptoPolicy::NoEncMdD,
            Scheme::PerUser,
            [
                "dae2bc95c6ecf2ef131956ed48c8a7437f6a7891659c7ee5c1f5afda0c7c8e36",
                "55d9da044bac705f569624fbb1c28f01ded9770bf31f355787b24b091a99fefa",
                "83b47dd250cdd4f3e875d71973c63421f41b8d7919c20a65b0d23a4708d5b6d9",
                "cc89560dfc7ba9e66c212e127b6654a4ae8d3e96f907a4aa1828566597314f6b",
                "1352871ec15dd9d58fffa9f1ec84882fab96a13256b0fe1046423b18b1af2be6",
                "b00cf0954af0ff7373c0b3944a3e8b6b19a4e39ca40dfcd406f666aa2ea36a8f",
                "8a19c397626cd6c84a79395d9bd30a694883cf353e0dad1cfbd35d6c6aca3269",
                "cfb85e67cba36edbb1101928e0711ad112dd59d236a874cae438e12fa95c40ea",
                "b85c3071d35eb06e0d241d3e4e79b072e54d663cf4fff5e038026c1038c4901e",
                "1352871ec15dd9d58fffa9f1ec84882fab96a13256b0fe1046423b18b1af2be6",
                "1352871ec15dd9d58fffa9f1ec84882fab96a13256b0fe1046423b18b1af2be6",
                "77e1b892081c25d9c2e93c688d4e4cdc5ce08bba4b971e5f1b62df2198c4d4f9",
            ],
        ),
    ];
    for policy in [CryptoPolicy::Sharoes, CryptoPolicy::NoEncMd, CryptoPolicy::NoEncMdD] {
        for scheme in all_schemes() {
            let effective = ClientConfig::test_with(policy, scheme).effective_scheme();
            let (.., want) = golden
                .iter()
                .find(|(p, s, _)| *p == policy && *s == effective)
                .expect("a pinned list");
            assert_eq!(table_digests(policy, scheme), want, "{policy:?} under {scheme:?}");
        }
    }
}
