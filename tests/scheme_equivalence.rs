//! Scheme-1 and Scheme-2 must be *observably identical*: the paper presents
//! them as storage/update trade-offs with the same access-control semantics
//! (§III-D). This test migrates one generated tree under both schemes and
//! checks that every user gets byte-identical outcomes for stat, list, and
//! read on every node — and the same denials where access is lacking.

use sharoes::fs::treegen::{generate, TreeSpec};
use sharoes::prelude::*;
use std::sync::Arc;

struct World {
    server: Arc<SspServer>,
    deployment: Deployment,
}

/// Both schemes' deployments of `fs`, sharing one set of identity keys
/// drawn from `keyring_seed`.
fn deploy_both(fs: &LocalFs, keyring_seed: u64) -> (World, World) {
    let mut rng = HmacDrbg::from_seed_u64(keyring_seed);
    let config = ClientConfig::test_with(CryptoPolicy::Sharoes, Scheme::PerUser);
    let keys = Deployment::new(fs.users(), config, &mut rng).unwrap();
    let deploy = |scheme| {
        let deployment = Deployment {
            config: ClientConfig::test_with(CryptoPolicy::Sharoes, scheme),
            ..keys.clone()
        };
        let server = SspServer::new().into_shared();
        let mut transport = InMemoryTransport::new(Arc::clone(&server) as _);
        let mut rng = HmacDrbg::from_seed_u64(0xEE);
        deployment.migrate(fs, &mut transport, &mut rng).expect("migration");
        World { server, deployment }
    };
    (deploy(Scheme::PerUser), deploy(Scheme::SharedCaps))
}

impl World {
    fn mount(&self, uid: Uid) -> SharoesClient {
        let transport = InMemoryTransport::new(Arc::clone(&self.server) as _);
        let mut client = self.deployment.client(uid, Box::new(transport)).unwrap();
        client.mount().expect("mount");
        client
    }
}

/// Normalized observation of one (user, path) probe.
#[derive(Debug, PartialEq, Eq)]
enum Observation {
    Dir {
        /// Visible entry names (sorted); `None` when listing is denied.
        listing: Option<Vec<String>>,
    },
    File {
        /// File bytes; `None` when reading is denied.
        content: Option<Vec<u8>>,
    },
    /// Stat itself failed (no traversal).
    Hidden,
}

fn observe(client: &mut SharoesClient, path: &str, kind: NodeKind) -> Observation {
    match kind {
        NodeKind::Dir => match client.getattr(path) {
            Err(_) => Observation::Hidden,
            Ok(_) => Observation::Dir {
                listing: client.readdir(path).ok().map(|mut entries| {
                    let mut names: Vec<String> = entries.drain(..).map(|e| e.name).collect();
                    names.sort();
                    names
                }),
            },
        },
        NodeKind::File => match client.getattr(path) {
            Err(_) => Observation::Hidden,
            Ok(_) => Observation::File { content: client.read(path).ok() },
        },
    }
}

#[test]
fn schemes_are_observably_equivalent() {
    let spec = TreeSpec {
        users: 3,
        dirs_per_user: 3,
        files_per_dir: 2,
        file_size: (100, 600),
        seed: 1234,
        ..Default::default()
    };
    let (fs, _) = generate(&spec).expect("treegen");
    let (w1, w2) = deploy_both(&fs, 0x5EED);

    let walk = fs.walk();
    let uids: Vec<Uid> = fs.users().users().map(|u| u.uid).collect();
    let mut probes = 0usize;
    let mut denials = 0usize;
    for uid in uids {
        let mut c1 = w1.mount(uid);
        let mut c2 = w2.mount(uid);
        for (path, attr) in &walk {
            let o1 = observe(&mut c1, path, attr.kind);
            let o2 = observe(&mut c2, path, attr.kind);
            assert_eq!(
                o1, o2,
                "scheme divergence for {uid} at {path}: per-user={o1:?} shared-caps={o2:?}"
            );
            probes += 1;
            if matches!(
                o1,
                Observation::Hidden
                    | Observation::Dir { listing: None }
                    | Observation::File { content: None }
            ) {
                denials += 1;
            }
        }
    }
    // Sanity: the tree's permission mix must actually exercise both sides.
    assert!(probes > 50, "tree too small to be meaningful ({probes} probes)");
    assert!(denials > 0, "no denials observed — permission mix too permissive");
    assert!(denials < probes, "everything denied — permission mix too restrictive");
}

#[test]
fn schemes_equivalent_after_mutations() {
    // Run the same mutation script against both schemes and require
    // identical end states for every user.
    let spec =
        TreeSpec { users: 2, dirs_per_user: 2, files_per_dir: 1, seed: 77, ..Default::default() };
    let (fs, _) = generate(&spec).expect("treegen");
    let (w1, w2) = deploy_both(&fs, 0x5EED2);

    let owner = Uid(1000);
    for world in [&w1, &w2] {
        let mut c = world.mount(owner);
        c.mkdir("/home/user0/newdir", Mode::from_octal(0o711)).unwrap();
        c.create("/home/user0/newdir/inner.txt", Mode::from_octal(0o644)).unwrap();
        c.write_file("/home/user0/newdir/inner.txt", b"both schemes").unwrap();
        c.chmod("/home/user0/proj0/file0.dat", Mode::from_octal(0o600)).unwrap();
        c.rename("/home/user0/newdir/inner.txt", "/home/user0/newdir/renamed.txt").unwrap();
    }

    let other = Uid(1001);
    for path in [
        "/home/user0/newdir",             // exec-only dir: list denied
        "/home/user0/newdir/renamed.txt", // reachable by exact name
        "/home/user0/proj0/file0.dat",    // revoked: read denied
    ] {
        let mut c1 = w1.mount(other);
        let mut c2 = w2.mount(other);
        let kind = if path.ends_with(".txt") || path.ends_with(".dat") {
            NodeKind::File
        } else {
            NodeKind::Dir
        };
        assert_eq!(
            observe(&mut c1, path, kind),
            observe(&mut c2, path, kind),
            "post-mutation divergence at {path}"
        );
    }
    // And the positive outcome is the expected one in both.
    let mut c2 = w2.mount(other);
    assert_eq!(c2.read("/home/user0/newdir/renamed.txt").unwrap(), b"both schemes");
    let mut c2b = w2.mount(other);
    assert!(c2b.read("/home/user0/proj0/file0.dat").is_err());
}
