//! Whole-stack integration: migration and client access over real TCP
//! sockets, multi-user concurrency, and local-vs-remote semantic parity on
//! generated trees — the paper's Figure 6 architecture end to end.

use sharoes::fs::treegen::{generate, TreeSpec};
use sharoes::prelude::*;
use std::sync::Arc;

fn test_config() -> ClientConfig {
    ClientConfig::test_with(CryptoPolicy::Sharoes, Scheme::SharedCaps)
}

struct TcpWorld {
    handle: sharoes::ssp::TcpServerHandle,
    deployment: Deployment,
    local: LocalFs,
}

fn deploy_over_tcp(spec: &TreeSpec) -> TcpWorld {
    let (local, _) = generate(spec).expect("treegen");
    let mut rng = HmacDrbg::from_seed_u64(0x7C9);
    let deployment = Deployment::new(local.users(), test_config(), &mut rng).unwrap();
    let server = SspServer::new().into_shared();
    let handle = sharoes::ssp::serve(server, "127.0.0.1:0").expect("bind");

    let mut transport = TcpTransport::connect(&handle.addr().to_string()).expect("connect");
    deployment.migrate(&local, &mut transport, &mut rng).expect("migration over tcp");

    TcpWorld { handle, deployment, local }
}

impl TcpWorld {
    fn mount(&self, uid: Uid) -> SharoesClient {
        let transport =
            TcpTransport::connect(&self.handle.addr().to_string()).expect("connect client");
        let mut client = self.deployment.client(uid, Box::new(transport)).unwrap();
        client.mount().expect("mount over tcp");
        client
    }
}

#[test]
fn migrated_tree_matches_local_over_tcp() {
    let spec = TreeSpec { users: 2, dirs_per_user: 2, files_per_dir: 2, ..Default::default() };
    let world = deploy_over_tcp(&spec);

    // Every user sees exactly what they saw locally, now through TCP +
    // encryption + verification.
    for u in 0..spec.users {
        let uid = Uid(1000 + u as u32);
        let mut client = world.mount(uid);
        for (path, attr) in world.local.walk() {
            if attr.kind != NodeKind::File {
                continue;
            }
            let local = world.local.read(uid, &path);
            let remote = client.read(&path);
            assert_eq!(
                local.is_ok(),
                remote.is_ok(),
                "parity broke for {uid} on {path}: local={local:?} remote={remote:?}"
            );
            if let (Ok(l), Ok(r)) = (local, remote) {
                assert_eq!(l, r, "content mismatch on {path}");
            }
        }
    }
    world.handle.shutdown();
}

#[test]
fn concurrent_clients_share_one_ssp() {
    let spec = TreeSpec { users: 3, dirs_per_user: 1, files_per_dir: 1, ..Default::default() };
    let world = Arc::new(deploy_over_tcp(&spec));

    let threads: Vec<_> = (0..3usize)
        .map(|u| {
            let world = Arc::clone(&world);
            std::thread::spawn(move || {
                let uid = Uid(1000 + u as u32);
                let mut client = world.mount(uid);
                let dir = format!("/home/user{u}/ws");
                client.mkdir(&dir, Mode::from_octal(0o755)).expect("mkdir");
                for i in 0..4 {
                    let path = format!("{dir}/f{i}");
                    client.create(&path, Mode::from_octal(0o644)).expect("create");
                    client.write_file(&path, format!("user{u} file{i}").as_bytes()).expect("write");
                }
                for i in 0..4 {
                    let path = format!("{dir}/f{i}");
                    assert_eq!(
                        client.read(&path).expect("read back"),
                        format!("user{u} file{i}").as_bytes()
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("worker");
    }

    // Cross-visibility: user0 reads user1's 0644 files through a fresh mount.
    let mut reader = world.mount(Uid(1000));
    assert_eq!(reader.read("/home/user1/ws/f0").expect("cross read"), b"user1 file0");
    // The handle shuts down on drop (Arc-owned here).
}

#[test]
fn treegen_permission_mix_respected_remotely() {
    // Generated trees include exec-only (711) and owner-only (700) dirs;
    // verify a non-owner experiences the right semantics through Sharoes.
    let spec =
        TreeSpec { users: 2, dirs_per_user: 4, files_per_dir: 1, seed: 9, ..Default::default() };
    let world = deploy_over_tcp(&spec);
    let owner = Uid(1000);
    let other = Uid(1001);
    let mut other_client = world.mount(other);

    for (path, attr) in world.local.walk() {
        if attr.kind != NodeKind::Dir || !path.starts_with("/home/user0/") {
            continue;
        }
        let local_list = world.local.readdir(other, &path);
        let remote_list = other_client.readdir(&path);
        assert_eq!(
            local_list.is_ok(),
            remote_list.is_ok(),
            "readdir parity broke on {path} ({:?} vs {:?})",
            local_list.as_ref().map(|v| v.len()),
            remote_list.as_ref().map(|v| v.len())
        );
    }
    let _ = owner;
    world.handle.shutdown();
}

#[test]
fn ssp_restart_loses_nothing_in_memory_semantics() {
    // The SSP's store is shared state: dropping the TCP listener and
    // re-serving the same store keeps all data (the handle owns the
    // listener, not the store).
    let spec = TreeSpec { users: 2, dirs_per_user: 1, files_per_dir: 1, ..Default::default() };
    let (local, _) = generate(&spec).unwrap();
    let mut rng = HmacDrbg::from_seed_u64(0xABC);
    let deployment = Deployment::new(local.users(), test_config(), &mut rng).unwrap();
    let server = SspServer::new().into_shared();

    let handle = sharoes::ssp::serve(Arc::clone(&server), "127.0.0.1:0").unwrap();
    let mut transport = TcpTransport::connect(&handle.addr().to_string()).unwrap();
    deployment.migrate(&local, &mut transport, &mut rng).unwrap();
    drop(transport);
    handle.shutdown();

    // "Restart" the front end on a new port over the same store.
    let handle2 = sharoes::ssp::serve(Arc::clone(&server), "127.0.0.1:0").unwrap();
    let transport = TcpTransport::connect(&handle2.addr().to_string()).unwrap();
    let mut client = deployment.client(Uid(1000), Box::new(transport)).unwrap();
    client.mount().expect("mount after restart");
    assert!(client.read("/home/user0/proj0/file0.dat").is_ok());
    handle2.shutdown();
}
