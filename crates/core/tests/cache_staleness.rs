//! Cache staleness: the client cache holds decoded values shared behind
//! `Arc`s, so a read after a mutation must see the new state, never a value
//! from a slot the mutation replaced or invalidated.
//!
//! Each step warms every cache the next mutation touches (getattr, readdir
//! and read through the parent), mutates, and reads back through the same
//! client. A second client's create is seen through the lookup-miss
//! revalidation in path resolution.

mod common;

use common::{World, ALICE, BOB};
use sharoes_core::{CoreError, CryptoPolicy, Scheme, SharoesClient};
use sharoes_fs::{Mode, NodeKind};

const DIR: &str = "/home/alice";

fn names(client: &mut SharoesClient, dir: &str) -> Vec<String> {
    let mut names: Vec<String> = client.readdir(dir).unwrap().into_iter().map(|e| e.name).collect();
    names.sort();
    names
}

/// Fills the metadata, table, manifest and block caches for `path`.
fn warm(client: &mut SharoesClient, path: &str) {
    client.getattr(path).unwrap();
    client.readdir(DIR).unwrap();
    client.read(path).unwrap();
}

fn assert_gone(client: &mut SharoesClient, path: &str) {
    assert!(matches!(client.getattr(path), Err(CoreError::NotFound(_))), "{path} still resolves");
    assert!(client.read(path).is_err(), "{path} still reads");
}

#[test]
fn own_mutations_are_seen_by_the_next_read() {
    for scheme in [Scheme::SharedCaps, Scheme::PerUser] {
        let world = World::new(CryptoPolicy::Sharoes, scheme);
        let mut alice = world.client(ALICE);
        let notes = "/home/alice/notes.txt";

        warm(&mut alice, notes);
        alice.chmod(notes, Mode::from_octal(0o600)).unwrap();
        assert_eq!(alice.getattr(notes).unwrap().mode, Mode::from_octal(0o600), "{scheme:?}");
        assert_eq!(alice.read(notes).unwrap(), b"alice's notes");

        warm(&mut alice, notes);
        let renamed = "/home/alice/renamed.txt";
        alice.rename(notes, renamed).unwrap();
        assert_eq!(names(&mut alice, DIR), ["dropbox", "listing", "private", "renamed.txt"]);
        assert_gone(&mut alice, notes);
        assert_eq!(alice.getattr(renamed).unwrap().mode, Mode::from_octal(0o600));
        assert_eq!(alice.read(renamed).unwrap(), b"alice's notes");

        warm(&mut alice, renamed);
        alice.unlink(renamed).unwrap();
        assert_eq!(names(&mut alice, DIR), ["dropbox", "listing", "private"]);
        assert_gone(&mut alice, renamed);

        let fresh = "/home/alice/fresh.txt";
        alice.create(fresh, Mode::from_octal(0o644)).unwrap();
        assert_eq!(names(&mut alice, DIR), ["dropbox", "fresh.txt", "listing", "private"]);
        let st = alice.getattr(fresh).unwrap();
        assert_eq!((st.kind, st.size), (NodeKind::File, 0));
        assert_eq!(alice.read(fresh).unwrap(), b"");

        // Overwrites: longer, then shorter (the shrink drops trailing
        // blocks), each read back from the refreshed block cache.
        let long = vec![7u8; 3 * world.deployment.config.block_size + 5];
        for content in [b"first".to_vec(), long, b"x".to_vec()] {
            warm(&mut alice, fresh);
            alice.write_file(fresh, &content).unwrap();
            assert_eq!(alice.read(fresh).unwrap(), content, "{scheme:?}");
        }

        // A name unlinked and created again is a new object, not the
        // cached old one.
        warm(&mut alice, fresh);
        let old_inode = alice.getattr(fresh).unwrap().inode;
        alice.unlink(fresh).unwrap();
        let new_inode = alice.create(fresh, Mode::from_octal(0o600)).unwrap();
        assert_ne!(new_inode, old_inode);
        let st = alice.getattr(fresh).unwrap();
        assert_eq!((st.inode, st.mode), (new_inode, Mode::from_octal(0o600)));
        assert_eq!(alice.read(fresh).unwrap(), b"");
    }
}

#[test]
fn another_clients_create_is_seen_after_revalidation() {
    for scheme in [Scheme::SharedCaps, Scheme::PerUser] {
        let world = World::new(CryptoPolicy::Sharoes, scheme);
        let mut alice = world.client(ALICE);
        let mut bob = world.client(BOB);
        let before = names(&mut alice, "/shared");
        alice.getattr("/shared/board.txt").unwrap();

        bob.create("/shared/from-bob", Mode::from_octal(0o664)).unwrap();
        bob.write_file("/shared/from-bob", b"bob wrote this").unwrap();

        // Alice's cached table predates the create; the lookup miss
        // revalidates it once, and the refetched table replaces the slot.
        assert_eq!(alice.getattr("/shared/from-bob").unwrap().owner, BOB, "{scheme:?}");
        assert_eq!(alice.read("/shared/from-bob").unwrap(), b"bob wrote this");
        let mut after = before.clone();
        after.push("from-bob".to_string());
        after.sort();
        assert_eq!(names(&mut alice, "/shared"), after);
        assert_eq!(alice.read("/shared/board.txt").unwrap(), b"minutes");
    }
}

#[test]
fn exec_only_rebuilds_keep_every_entry_reachable() {
    let world = World::new(CryptoPolicy::Sharoes, Scheme::SharedCaps);
    let mut alice = world.client(ALICE);
    let mut bob = world.client(BOB);
    let dir = "/home/alice/dropbox";
    let path = |i: usize| format!("{dir}/f{i}");
    for i in 0..24 {
        alice.create(&path(i), Mode::from_octal(0o644)).unwrap();
        alice.write_file(&path(i), format!("content {i}").as_bytes()).unwrap();
    }
    for i in (0..24).step_by(3) {
        alice.unlink(&path(i)).unwrap();
    }
    alice.rename(&path(1), &format!("{dir}/renamed")).unwrap();

    // Bob holds only the exec-only CAP: every surviving name opens, by its
    // exact name, through the rebuilt hidden rows.
    assert_eq!(bob.read(&format!("{dir}/renamed")).unwrap(), b"content 1");
    assert_eq!(bob.read(&format!("{dir}/drop")).unwrap(), b"droppable");
    for i in 2..24 {
        let got = bob.read(&path(i));
        if i % 3 == 0 {
            assert!(matches!(got, Err(CoreError::NotFound(_))), "f{i} was unlinked");
        } else {
            assert_eq!(got.unwrap(), format!("content {i}").as_bytes(), "f{i}");
        }
    }
}
