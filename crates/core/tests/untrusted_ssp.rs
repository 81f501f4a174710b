//! Untrusted-SSP threat model (paper §VII): the SSP is trusted to store and
//! serve bytes, but not with confidentiality or access control. These tests
//! play a malicious SSP: inspecting, tampering, swapping, and forging.

mod common;

use common::{World, ALICE, BOB, CAROL};
use sharoes_core::{ClassTag, CoreError, CryptoPolicy, Scheme, SealedObject, ViewId};
use sharoes_fs::{Mode, ROOT_UID};
use sharoes_net::{ObjectKey, WireRead, WireWrite};

/// Collects all stored values by brute-forcing through the public API is
/// impossible (keys are opaque hashes) — which is itself the point. For the
/// *test*, we re-derive the keys the client would use and fetch those.
fn fetch_all_known(world: &World, inode: u64) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let store = world.server.store();
    for class in [ClassTag::Owner, ClassTag::Group, ClassTag::Other] {
        let view = ViewId::Class(class).tag(inode);
        if let Some(v) = store.get(&ObjectKey::metadata(inode, view)) {
            out.push(v);
        }
        if let Some(v) = store.get(&ObjectKey::data(inode, view, 0)) {
            out.push(v);
        }
    }
    for generation in 0..4u64 {
        let dview = sharoes_core::ids::data_view(inode, generation);
        for block in [0u32, 1, u32::MAX] {
            if let Some(v) = store.get(&ObjectKey::data(inode, dview, block)) {
                out.push(v);
            }
        }
    }
    out
}

#[test]
fn ssp_stores_no_plaintext_under_sharoes() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let inode = alice.getattr("/home/alice/notes.txt").unwrap().inode;
    let blobs = fetch_all_known(&world, inode);
    assert!(!blobs.is_empty());
    for blob in &blobs {
        assert!(
            !blob.windows(13).any(|w| w == b"alice's notes"),
            "file plaintext visible at the SSP"
        );
    }
    // Directory names are likewise invisible in the parent's stored bytes.
    let parent_inode = alice.getattr("/home/alice").unwrap().inode;
    for blob in fetch_all_known(&world, parent_inode) {
        assert!(!blob.windows(9).any(|w| w == b"notes.txt"), "entry name visible at the SSP");
    }
}

#[test]
fn no_enc_baseline_leaks_everything_by_design() {
    // Sanity check of the test methodology: the NO-ENC baseline *does* leak.
    let world = World::new(CryptoPolicy::NoEncMdD, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let inode = alice.getattr("/home/alice/notes.txt").unwrap().inode;
    // Per-user layout for baselines.
    let view = sharoes_core::ViewId::User(ALICE.0).tag(inode);
    let dview = sharoes_core::ids::data_view(inode, 0);
    let block = world.server.store().get(&ObjectKey::data(inode, dview, 0)).expect("block exists");
    assert!(block.windows(13).any(|w| w == b"alice's notes"));
    let _ = view;
}

#[test]
fn tampered_data_block_detected() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let inode = alice.getattr("/home/alice/notes.txt").unwrap().inode;
    let dview = sharoes_core::ids::data_view(inode, 0);
    let key = ObjectKey::data(inode, dview, 0);
    let mut blob = world.server.store().get(&key).unwrap();
    let mid = blob.len() / 2;
    blob[mid] ^= 0xFF;
    world.server.store().put(key, blob).unwrap();

    let mut bob = world.client(BOB);
    let err = bob.read("/home/alice/notes.txt").unwrap_err();
    assert!(matches!(err, CoreError::TamperDetected(_)), "{err}");
}

#[test]
fn tampered_metadata_detected() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let inode = alice.getattr("/home/alice/notes.txt").unwrap().inode;
    let view = sharoes_core::ViewId::Class(sharoes_core::ClassTag::Group).tag(inode);
    let key = ObjectKey::metadata(inode, view);
    let mut blob = world.server.store().get(&key).unwrap();
    let mid = blob.len() / 2;
    blob[mid] ^= 0x01;
    world.server.store().put(key, blob).unwrap();

    let mut bob = world.client(BOB);
    let err = bob.getattr("/home/alice/notes.txt").unwrap_err();
    assert!(matches!(err, CoreError::TamperDetected(_) | CoreError::Corrupt(_)), "{err}");
}

#[test]
fn object_swapping_between_slots_detected() {
    // A malicious SSP serving object A's (validly signed) bytes for object B
    // must be caught: signatures bind the slot (inode, view, block).
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let notes = alice.getattr("/home/alice/notes.txt").unwrap().inode;
    let board = alice.getattr("/shared/board.txt").unwrap().inode;

    let notes_key = ObjectKey::data(notes, sharoes_core::ids::data_view(notes, 0), 0);
    let board_key = ObjectKey::data(board, sharoes_core::ids::data_view(board, 0), 0);
    let board_blob = world.server.store().get(&board_key).unwrap();
    world.server.store().put(notes_key, board_blob).unwrap();

    let mut bob = world.client(BOB);
    let err = bob.read("/home/alice/notes.txt").unwrap_err();
    assert!(matches!(err, CoreError::TamperDetected(_)), "{err}");
}

#[test]
fn reader_forging_write_is_detected() {
    // §II-B: "any user who has read permissions, thus possesses the DEK, can
    // attempt to write to that file as well ... signing and verification is
    // one such technique" to catch it.
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let inode = alice.getattr("/home/alice/notes.txt").unwrap().inode;
    let dview = sharoes_core::ids::data_view(inode, 0);
    let key = ObjectKey::data(inode, dview, 0);

    // A reader (who has the DEK) re-encrypts different content and plants it
    // at the SSP — but cannot produce a valid DSK signature, so we simulate
    // the strongest reader attack: replace ciphertext, keep the old
    // signature envelope.
    let blob = world.server.store().get(&key).unwrap();
    let mut sealed =
        <sharoes_core::SealedObject as sharoes_net::WireRead>::from_wire(&blob).unwrap();
    // Forge: flip ciphertext bits (the reader could also produce a fully
    // valid AES-CTR encryption of chosen text; either way the signature
    // cannot match).
    if !sealed.ciphertext.is_empty() {
        let mid = sealed.ciphertext.len() / 2;
        sealed.ciphertext[mid] ^= 0xAA;
    }
    world.server.store().put(key, sharoes_net::WireWrite::to_wire(&sealed)).unwrap();

    let mut bob = world.client(BOB);
    assert!(matches!(bob.read("/home/alice/notes.txt").unwrap_err(), CoreError::TamperDetected(_)));
}

#[test]
fn block_reordering_within_a_file_detected() {
    // The manifest hashes are positional: a malicious SSP swapping two
    // (individually valid) ciphertext blocks of the same file is caught.
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let big: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    alice.create("/home/alice/big.bin", sharoes_fs::Mode::from_octal(0o644)).unwrap();
    alice.write_file("/home/alice/big.bin", &big).unwrap();
    let inode = alice.getattr("/home/alice/big.bin").unwrap().inode;
    let dview = sharoes_core::ids::data_view(inode, 0);

    let k0 = ObjectKey::data(inode, dview, 0);
    let k1 = ObjectKey::data(inode, dview, 1);
    let b0 = world.server.store().get(&k0).unwrap();
    let b1 = world.server.store().get(&k1).unwrap();
    world.server.store().put(k0, b1).unwrap();
    world.server.store().put(k1, b0).unwrap();

    let mut bob = world.client(BOB);
    assert!(matches!(bob.read("/home/alice/big.bin").unwrap_err(), CoreError::TamperDetected(_)));
}

#[test]
fn replayed_manifest_with_fresh_blocks_detected() {
    // A writer updates a file; the SSP replays the OLD blocks alongside the
    // NEW manifest (or vice versa) — hash mismatch either way.
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let inode = alice.getattr("/home/alice/notes.txt").unwrap().inode;
    let dview = sharoes_core::ids::data_view(inode, 0);
    let old_block = world.server.store().get(&ObjectKey::data(inode, dview, 0)).unwrap();

    alice.write_file("/home/alice/notes.txt", b"completely new contents").unwrap();
    // SSP serves the stale block under the fresh manifest.
    world.server.store().put(ObjectKey::data(inode, dview, 0), old_block).unwrap();

    let mut bob = world.client(BOB);
    assert!(matches!(bob.read("/home/alice/notes.txt").unwrap_err(), CoreError::TamperDetected(_)));
}

#[test]
fn metadata_rollback_detected_within_session() {
    // The SSP replays an OLD (validly signed) metadata replica after the
    // owner rewrote it: the session freshness ledger catches the version
    // regression. (A tiny cache forces refetches.)
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut config = world.config.clone();
    config.cache_capacity = Some(1);
    let mut alice = world.client_with_config(ALICE, config);

    let inode = alice.getattr("/home/alice/notes.txt").unwrap().inode;
    let view = sharoes_core::ViewId::Class(sharoes_core::ClassTag::Owner).tag(inode);
    let key = ObjectKey::metadata(inode, view);
    let stale = world.server.store().get(&key).unwrap();

    // Owner rewrites metadata (version bumps) and re-reads it (records v+1).
    alice.chmod("/home/alice/notes.txt", sharoes_fs::Mode::from_octal(0o640)).unwrap();
    alice.getattr("/home/alice/notes.txt").unwrap();

    // SSP replays the stale replica.
    world.server.store().put(key, stale).unwrap();
    let err = alice.getattr("/home/alice/notes.txt").unwrap_err();
    assert!(matches!(&err, CoreError::TamperDetected(msg) if msg.contains("rolled back")), "{err}");
}

#[test]
fn manifest_rollback_detected_within_session() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut config = world.config.clone();
    config.cache_capacity = Some(1);
    let mut alice = world.client_with_config(ALICE, config);

    let inode = alice.getattr("/home/alice/notes.txt").unwrap().inode;
    let dview = sharoes_core::ids::data_view(inode, 0);
    let mkey = ObjectKey::data(inode, dview, u32::MAX);
    let stale_manifest = world.server.store().get(&mkey).unwrap();
    let stale_block = world.server.store().get(&ObjectKey::data(inode, dview, 0)).unwrap();

    // A write bumps the manifest version; a read observes it.
    alice.write_file("/home/alice/notes.txt", b"version two").unwrap();
    assert_eq!(alice.read("/home/alice/notes.txt").unwrap(), b"version two");

    // SSP replays the entire old (internally consistent!) data state.
    world.server.store().put(mkey, stale_manifest).unwrap();
    world.server.store().put(ObjectKey::data(inode, dview, 0), stale_block).unwrap();
    let err = alice.read("/home/alice/notes.txt").unwrap_err();
    assert!(matches!(&err, CoreError::TamperDetected(msg) if msg.contains("rolled back")), "{err}");

    // A FRESH session has no ledger and accepts the replay — exactly the
    // residual gap the paper defers to SUNDR-style fork consistency.
    let mut fresh = world.client(ALICE);
    assert_eq!(fresh.read("/home/alice/notes.txt").unwrap(), b"alice's notes");
}

#[test]
fn a_write_over_a_rolled_back_manifest_is_refused() {
    // The SSP puts the version-1 manifest back after a version-2 write.
    // The next close must refuse to seal over it: sealing version 1 again
    // would write the rollback into the file and lower the ledger.
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut config = world.config.clone();
    config.cache_capacity = Some(1);
    let mut alice = world.client_with_config(ALICE, config);

    let inode = alice.getattr("/home/alice/notes.txt").unwrap().inode;
    let mkey = ObjectKey::data(inode, sharoes_core::ids::data_view(inode, 0), u32::MAX);
    let stale_manifest = world.server.store().get(&mkey).unwrap();
    alice.write_file("/home/alice/notes.txt", b"version two").unwrap();

    world.server.store().put(mkey, stale_manifest).unwrap();
    let err = alice.read("/home/alice/notes.txt").unwrap_err();
    assert!(matches!(&err, CoreError::TamperDetected(msg) if msg.contains("rolled back")), "{err}");
    let err = alice.write_file("/home/alice/notes.txt", b"version three").unwrap_err();
    assert!(matches!(&err, CoreError::TamperDetected(msg) if msg.contains("rolled back")), "{err}");
}

#[test]
fn deletion_is_detected_as_missing_not_garbage() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let inode = alice.getattr("/home/alice/notes.txt").unwrap().inode;
    let dview = sharoes_core::ids::data_view(inode, 0);
    world.server.store().delete(&ObjectKey::data(inode, dview, u32::MAX)).unwrap();

    let mut bob = world.client(BOB);
    let err = bob.read("/home/alice/notes.txt").unwrap_err();
    assert!(matches!(err, CoreError::Corrupt(_)), "{err}");
}

#[test]
fn stolen_superblock_is_useless_to_others() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    // The SSP hands alice's superblock to bob; bob's private key cannot open
    // it. (Simulated by swapping the stored superblocks.)
    let alice_slot = ObjectKey::superblock(sharoes_core::ids::superblock_view(ALICE));
    let bob_slot = ObjectKey::superblock(sharoes_core::ids::superblock_view(BOB));
    let alice_sb = world.server.store().get(&alice_slot).unwrap();
    world.server.store().put(bob_slot, alice_sb).unwrap();

    let transport = sharoes_net::InMemoryTransport::new(std::sync::Arc::clone(&world.server) as _);
    let mut bob = sharoes_core::SharoesClient::with_rng(
        Box::new(transport),
        world.config.clone(),
        std::sync::Arc::clone(&world.db),
        std::sync::Arc::clone(&world.pki),
        world.ring.identity(BOB).unwrap(),
        std::sync::Arc::clone(&world.pool),
        sharoes_crypto::HmacDrbg::from_seed_u64(1),
    );
    assert!(bob.mount().is_err());
}

#[test]
fn ciphertexts_differ_per_replica() {
    // Two CAP replicas of the same metadata must not be byte-identical
    // (separate MEKs + fresh IVs), or the SSP could correlate contents.
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let inode = alice.getattr("/home/alice/notes.txt").unwrap().inode;
    let store = world.server.store();
    let owner = store
        .get(&ObjectKey::metadata(
            inode,
            sharoes_core::ViewId::Class(sharoes_core::ClassTag::Owner).tag(inode),
        ))
        .unwrap();
    let group = store
        .get(&ObjectKey::metadata(
            inode,
            sharoes_core::ViewId::Class(sharoes_core::ClassTag::Group).tag(inode),
        ))
        .unwrap();
    assert_ne!(owner, group);
}

/// The table-replica slots of directory `inode`, one per class view.
fn table_keys(inode: u64) -> Vec<ObjectKey> {
    [ClassTag::Owner, ClassTag::Group, ClassTag::Other]
        .into_iter()
        .map(|class| ObjectKey::data(inode, ViewId::Class(class).tag(inode), 0))
        .collect()
}

/// What the table-replica slots of `inode` hold now.
fn table_snapshot(world: &World, inode: u64) -> Vec<Option<Vec<u8>>> {
    table_keys(inode).iter().map(|k| world.server.store().get(k)).collect()
}

/// Flips one ciphertext byte of `class`'s table replica of `inode`, leaving
/// its signature as it was; returns the snapshot of all replica slots taken
/// after the flip.
fn flip_table_replica(world: &World, inode: u64, class: ClassTag) -> Vec<Option<Vec<u8>>> {
    let store = world.server.store();
    let key = ObjectKey::data(inode, ViewId::Class(class).tag(inode), 0);
    let mut sealed = SealedObject::from_wire(&store.get(&key).expect("replica exists")).unwrap();
    let mid = sealed.ciphertext.len() / 2;
    sealed.ciphertext[mid] ^= 0x01;
    store.put(key, sealed.to_wire()).unwrap();
    table_snapshot(world, inode)
}

/// Copies `from`'s table replica of `inode`, validly signed for its own
/// slot, into `to`'s slot; returns the snapshot of all replica slots taken
/// after the move.
fn move_table_replica(
    world: &World,
    inode: u64,
    from: ClassTag,
    to: ClassTag,
) -> Vec<Option<Vec<u8>>> {
    let store = world.server.store();
    let slot = |class| ObjectKey::data(inode, ViewId::Class(class).tag(inode), 0);
    store.put(slot(to), store.get(&slot(from)).expect("replica exists")).unwrap();
    table_snapshot(world, inode)
}

#[test]
fn writer_refuses_to_resign_a_tampered_table_replica() {
    // AES-CTR is malleable: a flipped ciphertext byte flips one plaintext
    // byte. A writer that rebuilds every replica of /shared must not open
    // the "other" replica unverified and re-sign it under its own DSK.
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let inode = world.client(ALICE).getattr("/shared").unwrap().inode;
    let stored = flip_table_replica(&world, inode, ClassTag::Other);

    let mut alice = world.client(ALICE); // cold cache: every replica is fetched
    let err = alice.create("/shared/new.txt", Mode::from_octal(0o644)).unwrap_err();
    assert!(matches!(err, CoreError::TamperDetected(_)), "{err}");
    assert_eq!(table_snapshot(&world, inode), stored, "no replica may be re-signed");

    let err = world.client(CAROL).readdir("/shared").unwrap_err();
    assert!(matches!(err, CoreError::TamperDetected(_)), "{err}");
}

#[test]
fn owner_chmod_refuses_a_tampered_table_replica() {
    // chmod on a directory harvests child MEKs from every replica and
    // re-seals them: a tampered replica must stop it before anything is
    // re-signed.
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let inode = world.client(ALICE).getattr("/home/alice/listing").unwrap().inode;
    let stored = flip_table_replica(&world, inode, ClassTag::Other);

    let mut alice = world.client(ALICE);
    let err = alice.chmod("/home/alice/listing", Mode::from_octal(0o755)).unwrap_err();
    assert!(matches!(err, CoreError::TamperDetected(_)), "{err}");
    assert_eq!(table_snapshot(&world, inode), stored, "no replica may be re-signed");
}

#[test]
fn table_replica_moved_to_another_slot_is_refused_by_every_opener() {
    // The Group replica of /shared carries a good signature, but for the
    // Group slot. Served from the Other slot to cold caches, it must stop
    // a reader, a writer that rebuilds every replica, and the owner's chmod
    // that harvests child keys from every replica.
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let inode = world.client(ALICE).getattr("/shared").unwrap().inode;
    let stored = move_table_replica(&world, inode, ClassTag::Group, ClassTag::Other);

    let err = world.client(CAROL).readdir("/shared").unwrap_err();
    assert!(matches!(err, CoreError::TamperDetected(_)), "{err}");
    let err = world.client(ALICE).create("/shared/new.txt", Mode::from_octal(0o644)).unwrap_err();
    assert!(matches!(err, CoreError::TamperDetected(_)), "{err}");
    let err = world.client(ROOT_UID).chmod("/shared", Mode::from_octal(0o755)).unwrap_err();
    assert!(matches!(err, CoreError::TamperDetected(_)), "{err}");
    assert_eq!(table_snapshot(&world, inode), stored, "no replica may be re-signed");
}

/// Writes a 48-block file as alice, lets `tamper` rewrite its stored data
/// records (inode and data view given), and returns bob's read error. The
/// file is long enough that the reader's block hashes run in full batches.
fn tampered_big_file_read(tamper: impl FnOnce(&World, u64, [u8; 16])) -> CoreError {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let content: Vec<u8> = (0..48 * 4096 + 100u32).map(|i| (i % 253) as u8).collect();
    alice.create("/home/alice/large.bin", Mode::from_octal(0o644)).unwrap();
    alice.write_file("/home/alice/large.bin", &content).unwrap();
    let inode = alice.getattr("/home/alice/large.bin").unwrap().inode;
    assert_eq!(world.client(BOB).read("/home/alice/large.bin").unwrap(), content);

    tamper(&world, inode, sharoes_core::ids::data_view(inode, 0));
    world.client(BOB).read("/home/alice/large.bin").unwrap_err()
}

/// Applies `f` to the stored wire record of block `block`.
fn rewrite_record(
    world: &World,
    inode: u64,
    dview: [u8; 16],
    block: u32,
    f: impl FnOnce(&mut Vec<u8>),
) {
    let key = ObjectKey::data(inode, dview, block);
    let mut record = world.server.store().get(&key).unwrap();
    f(&mut record);
    world.server.store().put(key, record).unwrap();
}

#[test]
fn flipped_byte_in_a_late_block_detected() {
    let err = tampered_big_file_read(|world, inode, dview| {
        rewrite_record(world, inode, dview, 23, |r| {
            let mid = r.len() / 2;
            r[mid] ^= 0x04;
        })
    });
    assert!(matches!(err, CoreError::TamperDetected(_)), "{err}");
}

#[test]
fn swapped_adjacent_blocks_detected() {
    let err = tampered_big_file_read(|world, inode, dview| {
        let store = world.server.store();
        let (k17, k18) = (ObjectKey::data(inode, dview, 17), ObjectKey::data(inode, dview, 18));
        let (b17, b18) = (store.get(&k17).unwrap(), store.get(&k18).unwrap());
        store.put(k17, b18).unwrap();
        store.put(k18, b17).unwrap();
    });
    assert!(matches!(err, CoreError::TamperDetected(_)), "{err}");
}

#[test]
fn truncated_block_record_detected() {
    let err = tampered_big_file_read(|world, inode, dview| {
        rewrite_record(world, inode, dview, 31, |r| r.truncate(r.len() - 9));
    });
    assert!(matches!(err, CoreError::TamperDetected(_) | CoreError::Corrupt(_)), "{err}");
}

#[test]
fn unknown_signature_tag_on_a_block_detected() {
    let err = tampered_big_file_read(|world, inode, dview| {
        // The last byte of an unsigned block record is the signature's
        // option tag, 0 for "none".
        rewrite_record(world, inode, dview, 40, |r| *r.last_mut().unwrap() = 2);
    });
    assert!(matches!(err, CoreError::TamperDetected(_) | CoreError::Corrupt(_)), "{err}");
}

/// An SSP that answers every `GetMany` with one object too few (`short`)
/// or one too many, once armed.
struct MiscountingSsp {
    server: std::sync::Arc<sharoes_ssp::SspServer>,
    short: bool,
    armed: std::sync::atomic::AtomicBool,
}

impl sharoes_net::RequestHandler for MiscountingSsp {
    fn handle(&self, request: sharoes_net::Request) -> sharoes_net::Response {
        use sharoes_net::{Request, Response};
        let getmany = matches!(request, Request::GetMany { .. });
        match self.server.handle(request) {
            Response::Objects(mut objects)
                if getmany && self.armed.load(std::sync::atomic::Ordering::SeqCst) =>
            {
                if self.short {
                    objects.pop();
                } else {
                    objects.push(None);
                }
                Response::Objects(objects)
            }
            other => other,
        }
    }
}

#[test]
fn getmany_replies_of_the_wrong_length_are_corrupt() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let honest = world.client(ALICE).readdir("/home/alice").unwrap();
    for short in [true, false] {
        let miscount = if short { "short" } else { "long" };
        // Each op on a freshly mounted client, so its caches are cold.
        let client = || {
            let ssp = Arc::new(MiscountingSsp {
                server: Arc::clone(&world.server),
                short,
                armed: AtomicBool::new(false),
            });
            let client = world.client_via(ALICE, world.config.clone(), Arc::clone(&ssp) as _);
            ssp.armed.store(true, Ordering::SeqCst);
            client
        };
        let err = client().read("/home/alice/notes.txt").unwrap_err();
        assert!(matches!(err, CoreError::Corrupt(_)), "read over a {miscount} reply: {err}");
        let err = client().chmod("/home/alice/listing", Mode::from_octal(0o755)).unwrap_err();
        assert!(matches!(err, CoreError::Corrupt(_)), "chmod over a {miscount} reply: {err}");
        // A listing is one table `Get`: no batch to miscount.
        assert_eq!(client().readdir("/home/alice").unwrap(), honest, "{miscount}");
    }
}
