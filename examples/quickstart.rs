//! Quickstart: migrate a small enterprise tree to an (untrusted) SSP and
//! access it through the Sharoes client with fully in-band key management.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sharoes::prelude::*;
use std::sync::Arc;

fn main() {
    // ------------------------------------------------- 1. the enterprise
    // Users and groups: the identities whose public keys anchor all key
    // distribution (paper §II-A).
    let mut db = UserDb::new();
    db.add_group(Gid(0), "wheel").unwrap();
    db.add_group(Gid(100), "eng").unwrap();
    db.add_user(Uid(0), "root", Gid(0)).unwrap();
    db.add_user(Uid(1), "alice", Gid(100)).unwrap();
    db.add_user(Uid(2), "bob", Gid(100)).unwrap();

    // A local filesystem, as it would exist before outsourcing.
    let mut local = LocalFs::new(db, Gid(0), Mode::from_octal(0o755));
    local.mkdir(Uid(0), "/projects", Mode::from_octal(0o775)).unwrap();
    local.chown(Uid(0), "/projects", Uid(0), Gid(100)).unwrap();
    local.create(Uid(1), "/projects/design.md", Mode::from_octal(0o664)).unwrap();
    local.write(Uid(1), "/projects/design.md", b"# Design\nEncrypt everything.\n").unwrap();
    println!("local tree ready: {} inodes", local.inode_count());

    // --------------------------------------- 2. keys, SSP, and migration
    let mut rng = HmacDrbg::from_seed_u64(2024);
    println!("generating identity keys (RSA) ...");
    let config = ClientConfig {
        crypto: CryptoParams { rsa_bits: 1024, ..CryptoParams::test() },
        ..Default::default()
    };
    let deployment = Deployment::new(local.users(), config, &mut rng).unwrap();
    deployment.pool.prefill_parallel(16, 7);

    // The SSP: a dumb encrypted-object store. It could equally be the
    // `sharoes-sspd` binary reached over TCP (see examples/migration.rs).
    let server = SspServer::new().into_shared();

    let mut transport = InMemoryTransport::new(Arc::clone(&server) as _);
    let report = deployment.migrate(&local, &mut transport, &mut rng).unwrap();
    println!(
        "migrated: {} objects -> {} records ({} bytes) at the SSP, {} split entries",
        report.objects, report.records, report.bytes, report.split_entries
    );

    // ------------------------------------------------- 3. mount and use
    let mount = |uid: Uid| -> SharoesClient {
        let transport = InMemoryTransport::new(Arc::clone(&server) as _);
        let mut client = deployment.client(uid, Box::new(transport)).unwrap();
        client.mount().unwrap();
        client
    };

    let mut alice = mount(Uid(1));
    let mut bob = mount(Uid(2));

    // bob (same group) reads alice's group-readable file.
    let text = bob.read("/projects/design.md").unwrap();
    println!("bob reads design.md: {:?}", String::from_utf8_lossy(&text));

    // bob edits it (0664: group-writable), alice sees the change.
    bob.write_file("/projects/design.md", b"# Design v2\nSigned and sealed.\n").unwrap();
    let text = alice.read("/projects/design.md").unwrap();
    println!("alice reads back:  {:?}", String::from_utf8_lossy(&text));

    // Everything at the SSP is ciphertext: show what the provider sees.
    let stat = alice.getattr("/projects/design.md").unwrap();
    println!(
        "metadata at the client: inode#{} mode {} owner {:?}",
        stat.inode, stat.mode, stat.owner
    );
    println!(
        "the SSP holds {} opaque objects totalling {} bytes and no keys",
        server.store().object_count(),
        server.store().byte_count()
    );
}
