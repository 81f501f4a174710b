//! Property test: migrating one randomized enterprise (random group graph,
//! random modes, random ACL grants) under Scheme-1 and Scheme-2 preserves
//! every reader/writer capability — the two layouts must admit and deny
//! exactly the same principals on every file, before and after a write.
//!
//! The fixed-shape version of this lives in `tests/scheme_equivalence.rs`;
//! this one drives the shape itself from the property tape.

use sharoes_core::{ClientConfig, CryptoPolicy, Deployment, Scheme, SharoesClient};
use sharoes_fs::{Acl, Gid, LocalFs, Mode, Perm, Uid, UserDb, ROOT_UID};
use sharoes_net::InMemoryTransport;
use sharoes_ssp::SspServer;
use sharoes_testkit::prelude::*;
use std::sync::Arc;

/// One generated file: (owner index, mode octal, ACL grants as
/// (grantee index, read-write?) pairs).
type FileSpec = (usize, u32, Vec<(usize, bool)>);

/// A randomized enterprise: group graph + homed files with random sharing.
#[derive(Debug, Clone)]
struct GraphSpec {
    users: usize,
    groups: usize,
    /// user index -> primary group index.
    primary: Vec<usize>,
    /// (user index, extra group index) memberships.
    extra: Vec<(usize, usize)>,
    files: Vec<FileSpec>,
    keyring_seed: u64,
}

fn uid(i: usize) -> Uid {
    Uid(1000 + i as u32)
}

fn gid(j: usize) -> Gid {
    Gid(200 + j as u32)
}

fn graphs() -> Gen<GraphSpec> {
    Gen::from_fn(|t| {
        let users = t.usize_in(2, 5);
        let groups = t.usize_in(1, 4);
        let primary = (0..users).map(|_| t.usize_in(0, groups)).collect::<Vec<_>>();
        let mut extra = Vec::new();
        for u in 0..users {
            if t.bool() {
                extra.push((u, t.usize_in(0, groups)));
            }
        }
        let files = (0..t.usize_in(1, 4))
            .map(|_| {
                let owner = t.usize_in(0, users);
                let mode = t.u64_in(0, 0o1000) as u32;
                let grants = (0..t.usize_in(0, 3))
                    .map(|_| (t.usize_in(0, users), t.bool()))
                    .filter(|(g, _)| *g != owner)
                    .collect();
                (owner, mode, grants)
            })
            .collect();
        Ok(GraphSpec { users, groups, primary, extra, files, keyring_seed: t.u64() })
    })
}

/// Builds the ground-truth local filesystem described by the spec.
fn build_fs(spec: &GraphSpec) -> LocalFs {
    let mut db = UserDb::new();
    db.add_group(Gid(0), "wheel").unwrap();
    for j in 0..spec.groups {
        db.add_group(gid(j), &format!("g{j}")).unwrap();
    }
    db.add_user(ROOT_UID, "root", Gid(0)).unwrap();
    for (i, &pg) in spec.primary.iter().enumerate() {
        db.add_user(uid(i), &format!("u{i}"), gid(pg)).unwrap();
    }
    for &(u, g) in &spec.extra {
        db.add_member(gid(g), uid(u)).unwrap();
    }
    let mut fs = LocalFs::new(db, Gid(0), Mode::from_octal(0o755));
    fs.mkdir(ROOT_UID, "/home", Mode::from_octal(0o755)).unwrap();
    for i in 0..spec.users {
        let home = format!("/home/u{i}");
        fs.mkdir(ROOT_UID, &home, Mode::from_octal(0o755)).unwrap();
        fs.chown(ROOT_UID, &home, uid(i), gid(spec.primary[i])).unwrap();
    }
    for (fi, (owner, mode, grants)) in spec.files.iter().enumerate() {
        let path = format!("/home/u{owner}/f{fi}.dat");
        fs.create(uid(*owner), &path, Mode::from_octal(0o600)).unwrap();
        fs.write(uid(*owner), &path, format!("file {fi} body").as_bytes()).unwrap();
        if !grants.is_empty() {
            let mut acl = Acl::empty();
            for &(g, rw) in grants {
                acl.set_user(uid(g), if rw { Perm::RW } else { Perm::R });
            }
            fs.set_acl(uid(*owner), &path, acl).unwrap();
        }
        fs.chmod(uid(*owner), &path, Mode::from_octal(*mode)).unwrap();
    }
    fs
}

/// Migrates `fs` under `scheme` with `keys`' identity keys.
fn deploy(fs: &LocalFs, keys: &Deployment, scheme: Scheme, seed: u64) -> World {
    let deployment = Deployment {
        config: ClientConfig::test_with(CryptoPolicy::Sharoes, scheme),
        ..keys.clone()
    };
    let server = SspServer::new().into_shared();
    let mut transport = InMemoryTransport::new(Arc::clone(&server) as _);
    let mut rng = HmacDrbg::from_seed_u64(seed);
    deployment.migrate(fs, &mut transport, &mut rng).expect("migration");
    World { server, deployment }
}

struct World {
    server: Arc<SspServer>,
    deployment: Deployment,
}

impl World {
    fn mount(&self, uid: Uid) -> SharoesClient {
        let transport = InMemoryTransport::new(Arc::clone(&self.server) as _);
        let mut client = self.deployment.client(uid, Box::new(transport)).unwrap();
        client.mount().expect("mount");
        client
    }
}

prop! {
    // Each case pays two migrations plus per-user RSA keygen; a handful of
    // randomized graphs buys far more shape coverage than the two fixed
    // trees in scheme_equivalence.rs.
    #![cases(6)]

    fn migrate_preserves_capabilities_across_schemes(spec in graphs()) {
        let fs = build_fs(&spec);
        let mut rng = HmacDrbg::from_seed_u64(spec.keyring_seed);
        let config = ClientConfig::test_with(CryptoPolicy::Sharoes, Scheme::PerUser);
        let keys = Deployment::new(fs.users(), config, &mut rng).unwrap();
        let w1 = deploy(&fs, &keys, Scheme::PerUser, spec.keyring_seed ^ 1);
        let w2 = deploy(&fs, &keys, Scheme::SharedCaps, spec.keyring_seed ^ 2);

        for u in 0..spec.users {
            let mut c1 = w1.mount(uid(u));
            let mut c2 = w2.mount(uid(u));
            for (fi, (owner, mode, _)) in spec.files.iter().enumerate() {
                let path = format!("/home/u{owner}/f{fi}.dat");

                // Reader capability: identical outcome, identical bytes.
                let r1 = c1.read(&path);
                let r2 = c2.read(&path);
                prop_assert_eq!(
                    r1.is_ok(),
                    r2.is_ok(),
                    "read capability diverged for u{u} at {path}: \
                     per-user={r1:?} shared-caps={r2:?}"
                );
                if let (Ok(b1), Ok(b2)) = (&r1, &r2) {
                    prop_assert_eq!(b1, b2, "content diverged for u{u} at {path}");
                }
                // Positive control: an owner whose class bits grant rw (a
                // combination migration always supports) must keep reading
                // their own data. Other modes may legitimately deny even
                // the owner (e.g. 0o077), so no blanket owner assertion.
                if u == *owner && (mode >> 6) & 0o7 == 0o6 {
                    prop_assert!(r1.is_ok(), "owner u{u} lost read on {path} (mode {mode:o})");
                }

                // Writer capability: both schemes admit or deny together,
                // and an admitted write is visible identically afterwards.
                let body = format!("rewrite by u{u} of f{fi}");
                let w1_res = c1.write_file(&path, body.as_bytes());
                let w2_res = c2.write_file(&path, body.as_bytes());
                prop_assert_eq!(
                    w1_res.is_ok(),
                    w2_res.is_ok(),
                    "write capability diverged for u{u} at {path}: \
                     per-user={w1_res:?} shared-caps={w2_res:?}"
                );
                if w1_res.is_ok() {
                    let rb1 = c1.read(&path);
                    let rb2 = c2.read(&path);
                    prop_assert_eq!(
                        rb1.is_ok(),
                        rb2.is_ok(),
                        "post-write read capability diverged for u{u} at {path}"
                    );
                    if let (Ok(b1), Ok(b2)) = (rb1, rb2) {
                        prop_assert_eq!(&b1, body.as_bytes(), "stale bytes after write");
                        prop_assert_eq!(b1, b2, "post-write content diverged at {path}");
                    }
                }
            }
        }
    }
}
