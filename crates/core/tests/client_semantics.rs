//! End-to-end semantics: the Sharoes client must expose *nix-equivalent
//! data sharing semantics over the untrusted SSP, for both schemes and all
//! five implementations.

mod common;

use common::{sample_tree, World, ALICE, BOB, CAROL};
use sharoes_core::scheme::MANIFEST_BLOCK;
use sharoes_core::{ids, CoreError, CryptoPolicy, Scheme, SharoesClient};
use sharoes_crypto::{Digest, HmacDrbg, Sha256};
use sharoes_fs::{Mode, NodeKind, Perm};
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
    let transport = sharoes_net::InMemoryTransport::new(std::sync::Arc::clone(&world.server) as _);
    let identity = world.ring.identity(ALICE).unwrap();
    let mut client = sharoes_core::SharoesClient::new(
        Box::new(transport),
        world.config.clone(),
        std::sync::Arc::clone(&world.db),
        std::sync::Arc::clone(&world.pki),
        identity,
        std::sync::Arc::clone(&world.pool),
    );
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
    let mut alice = SharoesClient::with_rng(
        Box::new(transport),
        world.config.clone(),
        Arc::clone(&world.db),
        Arc::clone(&world.pki),
        world.ring.identity(ALICE).expect("identity"),
        Arc::clone(&world.pool),
        HmacDrbg::from_seed_u64(0x005E_A1ED),
    );
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
        out.push(hex(&h.finalize_vec()));
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
