//! Revocation strategies (paper §IV-A.1): immediate vs lazy re-keying, and
//! what a revoked reader with cached keys can still do under each.
//!
//! ```sh
//! cargo run --example revocation
//! ```

use sharoes::prelude::*;
use std::sync::Arc;

const ALICE: Uid = Uid(1);
const BOB: Uid = Uid(2);

fn deploy() -> (Arc<SspServer>, Deployment) {
    let mut db = UserDb::new();
    db.add_group(Gid(0), "wheel").unwrap();
    db.add_group(Gid(100), "eng").unwrap();
    db.add_user(Uid(0), "root", Gid(0)).unwrap();
    db.add_user(ALICE, "alice", Gid(100)).unwrap();
    db.add_user(BOB, "bob", Gid(100)).unwrap();

    let mut local = LocalFs::new(db, Gid(0), Mode::from_octal(0o755));
    local.mkdir(Uid(0), "/shared", Mode::from_octal(0o775)).unwrap();
    local.chown(Uid(0), "/shared", ALICE, Gid(100)).unwrap();
    local.create(ALICE, "/shared/roadmap.txt", Mode::from_octal(0o644)).unwrap();
    local.write(ALICE, "/shared/roadmap.txt", b"2026: world domination").unwrap();

    let mut rng = HmacDrbg::from_seed_u64(55);
    let config = ClientConfig {
        crypto: CryptoParams { rsa_bits: 1024, ..CryptoParams::test() },
        ..Default::default()
    };
    let deployment = Deployment::new(local.users(), config, &mut rng).unwrap();
    deployment.pool.prefill_parallel(16, 3);
    let server = SspServer::new().into_shared();
    let mut transport = InMemoryTransport::new(Arc::clone(&server) as _);
    deployment.migrate(&local, &mut transport, &mut rng).unwrap();
    (server, deployment)
}

fn main() {
    let (server, deployment) = deploy();
    let mount = |uid: Uid, revocation: RevocationMode| -> SharoesClient {
        let config = ClientConfig { revocation, ..deployment.config.clone() };
        let transport = InMemoryTransport::new(Arc::clone(&server) as _);
        let mut c =
            Deployment { config, ..deployment.clone() }.client(uid, Box::new(transport)).unwrap();
        c.mount().unwrap();
        c
    };

    // ------------------------------------------------ immediate revocation
    println!("== immediate revocation (the prototype default) ==");
    let mut alice = mount(ALICE, RevocationMode::Immediate);
    let mut bob = mount(BOB, RevocationMode::Immediate);
    println!("bob reads: {:?}", String::from_utf8_lossy(&bob.read("/shared/roadmap.txt").unwrap()));

    let before = alice.meter().sample();
    alice.chmod("/shared/roadmap.txt", Mode::from_octal(0o600)).unwrap();
    let cost = alice.meter().sample().since(&before);
    println!(
        "chmod 600: re-keyed + re-encrypted immediately \
         ({} round trips, {} B up — the data moved under a fresh DEK)",
        cost.round_trips, cost.bytes_up
    );

    let mut bob_fresh = mount(BOB, RevocationMode::Immediate);
    println!(
        "fresh bob mount: {:?}",
        bob_fresh.read("/shared/roadmap.txt").err().map(|e| e.to_string())
    );
    let st = alice.getattr("/shared/roadmap.txt").unwrap();
    println!("generation after immediate revoke: {}", st.generation);

    // ------------------------------------------------------ lazy revocation
    println!("\n== lazy revocation (Plutus-style) ==");
    alice.chmod("/shared/roadmap.txt", Mode::from_octal(0o644)).unwrap(); // re-grant
    let mut alice_lazy = mount(ALICE, RevocationMode::Lazy);

    let before = alice_lazy.meter().sample();
    alice_lazy.chmod("/shared/roadmap.txt", Mode::from_octal(0o600)).unwrap();
    let cost = alice_lazy.meter().sample().since(&before);
    let st = alice_lazy.getattr("/shared/roadmap.txt").unwrap();
    println!(
        "lazy chmod 600: only metadata replicas rewritten ({} B up), \
         rekey_pending = {}, generation still {}",
        cost.bytes_up, st.rekey_pending, st.generation
    );
    println!("(a revoked reader with a cached DEK could still decrypt the old ciphertext)");

    let before = alice_lazy.meter().sample();
    alice_lazy.write_file("/shared/roadmap.txt", b"2027: world domination (revised)").unwrap();
    let cost = alice_lazy.meter().sample().since(&before);
    let st = alice_lazy.getattr("/shared/roadmap.txt").unwrap();
    println!(
        "next owner write pays the deferred rekey: generation -> {}, \
         rekey_pending = {}, {} B up",
        st.generation, st.rekey_pending, cost.bytes_up
    );

    let mut bob_last = mount(BOB, RevocationMode::Lazy);
    println!(
        "bob after lazy rekey: {:?}",
        bob_last.read("/shared/roadmap.txt").err().map(|e| e.to_string())
    );
    println!(
        "owner still reads: {:?}",
        String::from_utf8_lossy(&alice_lazy.read("/shared/roadmap.txt").unwrap())
    );
}
