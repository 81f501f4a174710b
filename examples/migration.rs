//! Migration over a real network: runs the `sharoes-sspd` TCP server on a
//! loopback port, migrates a synthetic enterprise tree into it over the
//! wire, then mounts a client over TCP and walks the data — the full
//! three-component architecture of paper Figure 6.
//!
//! ```sh
//! cargo run --example migration
//! ```

use sharoes::fs::treegen::{generate, TreeSpec};
use sharoes::prelude::*;
use std::sync::Arc;

fn main() {
    // ----------------------------------------------- the SSP site (remote)
    let server = SspServer::new().into_shared();
    let handle = serve(Arc::clone(&server), "127.0.0.1:0").expect("bind SSP");
    let addr = handle.addr().to_string();
    println!("sharoes-sspd listening on {addr}");

    // --------------------------------------- the enterprise (local) side
    let (local, stats) =
        generate(&TreeSpec { users: 3, dirs_per_user: 3, files_per_dir: 2, ..Default::default() })
            .expect("tree generation");
    println!("local tree: {} dirs, {} files, {} bytes", stats.dirs, stats.files, stats.bytes);

    let mut rng = HmacDrbg::from_seed_u64(1234);
    println!("creating cryptographic infrastructure (user/group RSA keys) ...");
    let config = ClientConfig {
        crypto: CryptoParams { rsa_bits: 1024, ..CryptoParams::test() },
        ..Default::default()
    };
    let deployment = Deployment::new(local.users(), config, &mut rng).unwrap();
    deployment.pool.prefill_parallel(((stats.dirs + stats.files) * 2 + 16).min(256), 77);

    // ------------------------------------------ migration over the wire
    let mut transport = TcpTransport::connect(&addr).expect("connect");
    let report = deployment.migrate(&local, &mut transport, &mut rng).expect("migration");
    println!(
        "migration complete: {} records / {} bytes shipped over TCP; \
         {} superblocks, {} group key blocks, {} split entries",
        report.records,
        report.bytes,
        report.superblocks,
        report.group_key_blocks,
        report.split_entries
    );

    // --------------------------------------------- a client, also on TCP
    let uid = Uid(1000); // user0
    let transport = TcpTransport::connect(&addr).expect("connect client");
    let mut client = deployment.client(uid, Box::new(transport)).unwrap();
    client.mount().expect("mount over TCP");
    println!("\nmounted as user0; walking /home/user0:");

    let entries = client.readdir("/home/user0").expect("readdir");
    for entry in &entries {
        let path = format!("/home/user0/{}", entry.name);
        let st = client.getattr(&path).expect("stat");
        println!("  {:>9}  {}  {}", format!("{}", st.mode), st.size, entry.name);
    }

    // Read one file end-to-end and verify it matches the local original.
    let path = "/home/user0/proj0/file0.dat";
    let remote = client.read(path).expect("read over TCP");
    let local_copy = local.read(uid, path).expect("local read");
    assert_eq!(remote, local_copy, "migrated content must match the original");
    println!("\nverified {path}: {} bytes identical to the pre-migration original", remote.len());

    let meter = client.meter().sample();
    println!(
        "client traffic: {} round trips, {} B up, {} B down",
        meter.round_trips, meter.bytes_up, meter.bytes_down
    );
    handle.shutdown();
    println!("SSP shut down; done.");
}
