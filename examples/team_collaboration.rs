//! Team collaboration: the paper's data-sharing semantics in action —
//! group-writable project space, an exec-only "dropbox", read-only
//! listings, and a POSIX-ACL grant routed through a Scheme-2 split point.
//!
//! ```sh
//! cargo run --example team_collaboration
//! ```

use sharoes::prelude::*;
use std::sync::Arc;

const ALICE: Uid = Uid(1);
const BOB: Uid = Uid(2);
const CAROL: Uid = Uid(3);

fn deploy() -> (Arc<SspServer>, Deployment) {
    let mut db = UserDb::new();
    db.add_group(Gid(0), "wheel").unwrap();
    db.add_group(Gid(100), "eng").unwrap();
    db.add_group(Gid(200), "sales").unwrap();
    db.add_user(Uid(0), "root", Gid(0)).unwrap();
    db.add_user(ALICE, "alice", Gid(100)).unwrap();
    db.add_user(BOB, "bob", Gid(100)).unwrap();
    db.add_user(CAROL, "carol", Gid(200)).unwrap();

    let mut local = LocalFs::new(db, Gid(0), Mode::from_octal(0o755));
    local.mkdir(Uid(0), "/home", Mode::from_octal(0o755)).unwrap();
    local.mkdir(Uid(0), "/home/alice", Mode::from_octal(0o755)).unwrap();
    local.chown(Uid(0), "/home/alice", ALICE, Gid(100)).unwrap();

    let mut rng = HmacDrbg::from_seed_u64(99);
    let config = ClientConfig {
        crypto: CryptoParams { rsa_bits: 1024, ..CryptoParams::test() },
        ..Default::default()
    };
    let deployment = Deployment::new(local.users(), config, &mut rng).unwrap();
    deployment.pool.prefill_parallel(32, 5);
    let server = SspServer::new().into_shared();
    let mut transport = InMemoryTransport::new(Arc::clone(&server) as _);
    deployment.migrate(&local, &mut transport, &mut rng).unwrap();
    (server, deployment)
}

fn show(result: Result<Vec<u8>, CoreError>) -> String {
    match result {
        Ok(bytes) => format!("OK: {:?}", String::from_utf8_lossy(&bytes)),
        Err(e) => format!("DENIED: {e}"),
    }
}

fn main() {
    let (server, deployment) = deploy();
    let mount = |uid: Uid| -> SharoesClient {
        let transport = InMemoryTransport::new(Arc::clone(&server) as _);
        let mut client = deployment.client(uid, Box::new(transport)).unwrap();
        client.mount().unwrap();
        client
    };
    let mut alice = mount(ALICE);
    let mut bob = mount(BOB);
    let mut carol = mount(CAROL);

    // --- an exec-only dropbox (the paper's flagship CAP, §III-A) --------
    println!("== exec-only dropbox (mode 711) ==");
    alice.mkdir("/home/alice/dropbox", Mode::from_octal(0o711)).unwrap();
    alice.create("/home/alice/dropbox/for-bob.txt", Mode::from_octal(0o644)).unwrap();
    alice.write_file("/home/alice/dropbox/for-bob.txt", b"psst, the demo is friday").unwrap();

    println!(
        "bob lists dropbox      -> {:?}",
        bob.readdir("/home/alice/dropbox").err().map(|e| e.to_string())
    );
    println!("bob fetches exact name -> {}", show(bob.read("/home/alice/dropbox/for-bob.txt")));
    println!(
        "bob guesses a name     -> {}",
        show(bob.read("/home/alice/dropbox/secret-plans.txt"))
    );

    // --- a read-only listing (mode 744) ---------------------------------
    println!("\n== read-only listing (mode 744) ==");
    alice.mkdir("/home/alice/published", Mode::from_octal(0o744)).unwrap();
    alice.create("/home/alice/published/v1.tar", Mode::from_octal(0o644)).unwrap();
    let listing = bob.readdir("/home/alice/published").unwrap();
    println!(
        "bob sees names only: {:?} (inode hidden: {})",
        listing.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
        listing[0].inode.is_none()
    );
    println!("bob opens the entry -> {}", show(bob.read("/home/alice/published/v1.tar")));

    // --- group collaboration --------------------------------------------
    println!("\n== group-writable notes (mode 664) ==");
    alice.create("/home/alice/notes.md", Mode::from_octal(0o664)).unwrap();
    alice.write_file("/home/alice/notes.md", b"- kickoff monday\n").unwrap();
    let mut current = bob.read("/home/alice/notes.md").unwrap();
    current.extend_from_slice(b"- bob: bring donuts\n");
    bob.write_file("/home/alice/notes.md", &current).unwrap();
    println!("alice sees: {}", show(alice.read("/home/alice/notes.md")));
    println!("carol (other, r--): {}", show(carol.read("/home/alice/notes.md")));
    println!(
        "carol tries to write: {:?}",
        carol.write("/home/alice/notes.md", b"x").err().map(|e| e.to_string())
    );

    // --- an ACL grant for carol (Scheme-2 split point, §III-D.2) --------
    println!("\n== POSIX ACL grant for carol ==");
    alice.create("/home/alice/budget.xls", Mode::from_octal(0o640)).unwrap();
    alice.write_file("/home/alice/budget.xls", b"Q3: modest").unwrap();
    println!("carol before grant: {}", show(carol.read("/home/alice/budget.xls")));
    let mut acl = Acl::empty();
    acl.set_user(CAROL, Perm::R);
    alice.set_acl("/home/alice/budget.xls", acl).unwrap();
    let mut carol_fresh = mount(CAROL);
    println!("carol after grant:  {}", show(carol_fresh.read("/home/alice/budget.xls")));

    // --- revocation ------------------------------------------------------
    println!("\n== immediate revocation (chmod 600) ==");
    alice.chmod("/home/alice/notes.md", Mode::from_octal(0o600)).unwrap();
    let mut bob_fresh = mount(BOB);
    println!("bob after revoke: {}", show(bob_fresh.read("/home/alice/notes.md")));
    let st = alice.getattr("/home/alice/notes.md").unwrap();
    println!("file re-keyed: generation {} (data re-encrypted under a fresh DEK)", st.generation);
}
