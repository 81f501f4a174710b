//! `sharoes-shell` — an interactive shell over the Sharoes client filesystem.
//!
//! Stands in for the paper's FUSE mount (DESIGN.md substitution #1): the
//! same operation set, driven from a prompt instead of the VFS.
//!
//! ```sh
//! sharoes-shell              # in-process demo deployment
//! sharoes-shell --tcp        # same, over loopback TCP
//! sharoes-shell --cluster 3  # same, replicated over 3 in-process SSP nodes
//! sharoes-shell stats ADDR   # dump a running sspd's live metrics and exit
//! sharoes-shell trace ADDR.. # assemble cross-node span trees from sspd's
//! sharoes-shell root ADDR..  # per-node index roots + replica-agreement verdict
//! ```
//!
//! Type `help` at the prompt for commands.

#![forbid(unsafe_code)]

use sharoes_cluster::{ClusterOpts, ClusterStats, ClusterTransport};
use sharoes_core::{
    ClientConfig, CryptoParams, CryptoPolicy, Keyring, Migrator, Pki, Scheme, SharoesClient,
    SigKeyPool,
};
use sharoes_crypto::HmacDrbg;
use sharoes_fs::{Acl, Gid, LocalFs, Mode, Perm, Uid, UserDb, ROOT_UID};
use sharoes_net::{InMemoryTransport, Request, RequestHandler, Response, TcpTransport, Transport};
use sharoes_ssp::{serve, SspServer, TcpServerHandle};
use std::io::{BufRead, Write};
use std::sync::Arc;

struct Shell {
    /// One entry in single-SSP mode, N named nodes in `--cluster N` mode.
    servers: Vec<(String, Arc<SspServer>)>,
    /// Set in cluster mode: placement options shared by every mount.
    cluster: Option<ClusterOpts>,
    /// Behavior counters of the *current* mount's cluster transport.
    cluster_stats: Option<Arc<ClusterStats>>,
    tcp: Option<TcpServerHandle>,
    db: Arc<UserDb>,
    pki: Arc<Pki>,
    ring: Keyring,
    pool: Arc<SigKeyPool>,
    config: ClientConfig,
    client: SharoesClient,
    user: String,
    cwd: String,
}

/// Builds the cluster transport every cluster-mode mount (and the initial
/// migration) uses: one in-memory channel per node, shared placement opts.
fn cluster_transport(servers: &[(String, Arc<SspServer>)], opts: ClusterOpts) -> ClusterTransport {
    let mut cluster = ClusterTransport::new(opts);
    for (name, server) in servers {
        let handler: Arc<dyn RequestHandler> = Arc::clone(server) as _;
        cluster.add_node(name, Box::new(InMemoryTransport::new(handler)));
    }
    cluster
}

/// Everything [`demo_world`] builds: named SSP nodes, cluster placement
/// options (cluster mode only), and the shared key/config material.
type DemoWorld = (
    Vec<(String, Arc<SspServer>)>,
    Option<ClusterOpts>,
    UserDb,
    Keyring,
    Arc<SigKeyPool>,
    ClientConfig,
);

fn demo_world(cluster_n: usize) -> DemoWorld {
    let mut db = UserDb::new();
    db.add_group(Gid(0), "wheel").unwrap();
    db.add_group(Gid(100), "eng").unwrap();
    db.add_user(ROOT_UID, "root", Gid(0)).unwrap();
    db.add_user(Uid(1), "alice", Gid(100)).unwrap();
    db.add_user(Uid(2), "bob", Gid(100)).unwrap();

    let mut local = LocalFs::new(db, Gid(0), Mode::from_octal(0o755));
    let m = Mode::from_octal;
    local.mkdir(ROOT_UID, "/home", m(0o755)).unwrap();
    for (name, uid) in [("alice", Uid(1)), ("bob", Uid(2))] {
        let home = format!("/home/{name}");
        local.mkdir(ROOT_UID, &home, m(0o755)).unwrap();
        local.chown(ROOT_UID, &home, uid, Gid(100)).unwrap();
        local.create(uid, &format!("{home}/welcome.txt"), m(0o644)).unwrap();
        local
            .write(uid, &format!("{home}/welcome.txt"), format!("hello from {name}\n").as_bytes())
            .unwrap();
    }
    local.mkdir(ROOT_UID, "/shared", m(0o775)).unwrap();
    local.chown(ROOT_UID, "/shared", ROOT_UID, Gid(100)).unwrap();

    eprintln!("[demo] generating keys and migrating the demo tree ...");
    let mut rng = HmacDrbg::from_seed_u64(0xD3340);
    let ring = Keyring::generate(local.users(), 1024, &mut rng).unwrap();
    let config = ClientConfig {
        crypto: CryptoParams { rsa_bits: 1024, ..CryptoParams::test() },
        scheme: Scheme::SharedCaps,
        policy: CryptoPolicy::Sharoes,
        ..Default::default()
    };
    let pool = Arc::new(SigKeyPool::new(config.crypto));
    pool.prefill_parallel(32, 11);
    let (servers, cluster): (Vec<(String, Arc<SspServer>)>, Option<ClusterOpts>) = if cluster_n >= 2
    {
        let servers =
            (0..cluster_n).map(|i| (format!("node{i}"), SspServer::new().into_shared())).collect();
        (servers, Some(ClusterOpts { replication: 2, ..Default::default() }))
    } else {
        (vec![("ssp".to_string(), SspServer::new().into_shared())], None)
    };
    let migrator = Migrator {
        fs: &local,
        config: &config,
        ring: &ring,
        pool: &pool,
        downgrade_unsupported: true,
    };
    match cluster {
        Some(opts) => {
            let mut transport = cluster_transport(&servers, opts);
            migrator.migrate(&mut transport, &mut rng).unwrap();
        }
        None => {
            let mut transport = InMemoryTransport::new(Arc::clone(&servers[0].1) as _);
            migrator.migrate(&mut transport, &mut rng).unwrap();
        }
    }
    for (name, server) in &servers {
        eprintln!(
            "[demo] {name} holds {} encrypted objects ({} bytes)",
            server.store().object_count(),
            server.store().byte_count()
        );
    }
    (servers, cluster, local.users().clone(), ring, pool, config)
}

impl Shell {
    fn new(use_tcp: bool, cluster_n: usize) -> Shell {
        let (servers, cluster, db, ring, pool, config) = demo_world(cluster_n);
        let tcp = if use_tcp {
            let handle = serve(Arc::clone(&servers[0].1), "127.0.0.1:0").expect("bind tcp");
            eprintln!("[demo] SSP serving on tcp://{}", handle.addr());
            Some(handle)
        } else {
            None
        };
        let db = Arc::new(db);
        let pki = Arc::new(ring.public_directory());
        let (client, cluster_stats) =
            Self::mount_user(&servers, cluster, &tcp, &db, &pki, &ring, &pool, &config, "alice")
                .expect("mount alice");
        Shell {
            servers,
            cluster,
            cluster_stats,
            tcp,
            db,
            pki,
            ring,
            pool,
            config,
            client,
            user: "alice".into(),
            cwd: "/".into(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn mount_user(
        servers: &[(String, Arc<SspServer>)],
        cluster: Option<ClusterOpts>,
        tcp: &Option<TcpServerHandle>,
        db: &Arc<UserDb>,
        pki: &Arc<Pki>,
        ring: &Keyring,
        pool: &Arc<SigKeyPool>,
        config: &ClientConfig,
        name: &str,
    ) -> Result<(SharoesClient, Option<Arc<ClusterStats>>), String> {
        let user = db.user_by_name(name).ok_or_else(|| format!("no such user: {name}"))?;
        let mut cluster_stats = None;
        let transport: Box<dyn Transport> = match (cluster, tcp) {
            (Some(opts), _) => {
                // The client mounts through the cluster unchanged — same
                // Transport trait, now with R replicas behind it.
                let cluster = cluster_transport(servers, opts);
                cluster_stats = Some(cluster.stats_handle());
                Box::new(cluster)
            }
            (None, Some(handle)) => Box::new(
                TcpTransport::connect(&handle.addr().to_string()).map_err(|e| e.to_string())?,
            ),
            (None, None) => Box::new(InMemoryTransport::new(Arc::clone(&servers[0].1) as _)),
        };
        let identity = ring.identity(user.uid).map_err(|e| e.to_string())?;
        let mut client = SharoesClient::new(
            transport,
            config.clone(),
            Arc::clone(db),
            Arc::clone(pki),
            identity,
            Arc::clone(pool),
        );
        client.mount().map_err(|e| e.to_string())?;
        Ok((client, cluster_stats))
    }

    fn abspath(&self, arg: &str) -> String {
        if arg.starts_with('/') {
            arg.to_string()
        } else if self.cwd == "/" {
            format!("/{arg}")
        } else {
            format!("{}/{arg}", self.cwd)
        }
    }

    fn run_line(&mut self, line: &str) -> bool {
        let parts: Vec<&str> = line.split_whitespace().collect();
        let Some(&cmd) = parts.first() else { return true };
        let args = &parts[1..];
        let result = match cmd {
            "help" => {
                println!(
                    "commands:\n\
                     \x20 ls [PATH]         list directory\n\
                     \x20 cd PATH           change directory\n\
                     \x20 pwd               print working directory\n\
                     \x20 cat PATH          print file contents\n\
                     \x20 put PATH TEXT..   write TEXT to a file (creates it)\n\
                     \x20 mkdir PATH [MODE] create directory (default 755)\n\
                     \x20 touch PATH [MODE] create empty file (default 644)\n\
                     \x20 rm PATH           remove file\n\
                     \x20 rmdir PATH        remove empty directory\n\
                     \x20 mv FROM TO        rename within a directory\n\
                     \x20 chmod MODE PATH   change permissions (octal)\n\
                     \x20 setfacl u:NAME:rwx PATH   grant a named-user ACL entry\n\
                     \x20 stat PATH         show attributes\n\
                     \x20 su NAME           remount as another user (alice, bob, root)\n\
                     \x20 whoami            current user\n\
                     \x20 verify            verified keyspace listing (Merkle proof per page)\n\
                     \x20 ssp               show what the provider stores\n\
                     \x20 cluster-status    nodes, replication, and repair counters\n\
                     \x20 costs             traffic/crypto counters for this mount\n\
                     \x20 stats             full metrics registry (counters, histograms)\n\
                     \x20 trace             assembled span trees from the trace buffer\n\
                     \x20 slow              slowest captured ops with their span trees\n\
                     \x20 exit              quit"
                );
                Ok(())
            }
            "pwd" => {
                println!("{}", self.cwd);
                Ok(())
            }
            "whoami" => {
                println!("{} ({})", self.user, self.client.uid());
                Ok(())
            }
            "cd" => match args {
                [path] => {
                    let target = self.abspath(path);
                    match self.client.getattr(&target) {
                        Ok(st) if st.kind == sharoes_fs::NodeKind::Dir => {
                            self.cwd = target;
                            Ok(())
                        }
                        Ok(_) => Err(format!("not a directory: {target}")),
                        Err(e) => Err(e.to_string()),
                    }
                }
                _ => Err("usage: cd PATH".into()),
            },
            "ls" => {
                let path =
                    args.first().map(|p| self.abspath(p)).unwrap_or_else(|| self.cwd.clone());
                match self.client.readdir(&path) {
                    Ok(entries) => {
                        for e in entries {
                            let kind = match e.kind {
                                sharoes_fs::NodeKind::Dir => "d",
                                sharoes_fs::NodeKind::File => "-",
                            };
                            let inode = e
                                .inode
                                .map(|i| format!("{i:>20}"))
                                .unwrap_or_else(|| format!("{:>20}", "(hidden)"));
                            println!("{kind} {inode}  {}", e.name);
                        }
                        Ok(())
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
            "cat" => match args {
                [path] => self
                    .client
                    .read(&self.abspath(path))
                    .map(|data| print!("{}", String::from_utf8_lossy(&data)))
                    .map_err(|e| e.to_string()),
                _ => Err("usage: cat PATH".into()),
            },
            "put" => {
                if args.len() < 2 {
                    Err("usage: put PATH TEXT...".into())
                } else {
                    let path = self.abspath(args[0]);
                    let text = format!("{}\n", args[1..].join(" "));
                    let mut result = Ok(());
                    if self.client.getattr(&path).is_err() {
                        result = self
                            .client
                            .create(&path, Mode::from_octal(0o644))
                            .map(|_| ())
                            .map_err(|e| e.to_string());
                    }
                    result.and_then(|()| {
                        self.client.write_file(&path, text.as_bytes()).map_err(|e| e.to_string())
                    })
                }
            }
            "mkdir" => match args {
                [path] => self
                    .client
                    .mkdir(&self.abspath(path), Mode::from_octal(0o755))
                    .map(|_| ())
                    .map_err(|e| e.to_string()),
                [path, mode] => u32::from_str_radix(mode, 8)
                    .map_err(|_| "bad octal mode".to_string())
                    .and_then(|m| {
                        self.client
                            .mkdir(&self.abspath(path), Mode::from_octal(m))
                            .map(|_| ())
                            .map_err(|e| e.to_string())
                    }),
                _ => Err("usage: mkdir PATH [MODE]".into()),
            },
            "touch" => match args {
                [path] => self
                    .client
                    .create(&self.abspath(path), Mode::from_octal(0o644))
                    .map(|_| ())
                    .map_err(|e| e.to_string()),
                [path, mode] => u32::from_str_radix(mode, 8)
                    .map_err(|_| "bad octal mode".to_string())
                    .and_then(|m| {
                        self.client
                            .create(&self.abspath(path), Mode::from_octal(m))
                            .map(|_| ())
                            .map_err(|e| e.to_string())
                    }),
                _ => Err("usage: touch PATH [MODE]".into()),
            },
            "rm" => match args {
                [path] => self.client.unlink(&self.abspath(path)).map_err(|e| e.to_string()),
                _ => Err("usage: rm PATH".into()),
            },
            "rmdir" => match args {
                [path] => self.client.rmdir(&self.abspath(path)).map_err(|e| e.to_string()),
                _ => Err("usage: rmdir PATH".into()),
            },
            "mv" => match args {
                [from, to] => self
                    .client
                    .rename(&self.abspath(from), &self.abspath(to))
                    .map_err(|e| e.to_string()),
                _ => Err("usage: mv FROM TO".into()),
            },
            "chmod" => match args {
                [mode, path] => u32::from_str_radix(mode, 8)
                    .map_err(|_| "bad octal mode".to_string())
                    .and_then(|m| {
                        self.client
                            .chmod(&self.abspath(path), Mode::from_octal(m))
                            .map_err(|e| e.to_string())
                    }),
                _ => Err("usage: chmod MODE PATH".into()),
            },
            "setfacl" => match args {
                [entry, path] => self.setfacl(entry, &self.abspath(path)),
                _ => Err("usage: setfacl u:NAME:rwx PATH".into()),
            },
            "stat" => match args {
                [path] => match self.client.getattr(&self.abspath(path)) {
                    Ok(st) => {
                        println!(
                            "inode#{}  {:?}  mode {}  owner {}  group {}  size {}  gen {}{}",
                            st.inode,
                            st.kind,
                            st.mode,
                            st.owner,
                            st.group,
                            st.size,
                            st.generation,
                            if st.rekey_pending { "  [rekey pending]" } else { "" }
                        );
                        Ok(())
                    }
                    Err(e) => Err(e.to_string()),
                },
                _ => Err("usage: stat PATH".into()),
            },
            "su" => match args {
                [name] => match Self::mount_user(
                    &self.servers,
                    self.cluster,
                    &self.tcp,
                    &self.db,
                    &self.pki,
                    &self.ring,
                    &self.pool,
                    &self.config,
                    name,
                ) {
                    Ok((client, cluster_stats)) => {
                        self.client = client;
                        self.cluster_stats = cluster_stats;
                        self.user = name.to_string();
                        self.cwd = "/".into();
                        println!("now {name}");
                        Ok(())
                    }
                    Err(e) => Err(e),
                },
                _ => Err("usage: su NAME".into()),
            },
            "verify" => match self.client.verified_scan_all(64) {
                Ok(keys) => {
                    let root = self.client.pinned_root().expect("pinned after verified scan");
                    println!(
                        "verified {} keys against index root {} — every page carried a \
                         Merkle range proof; no key omitted, injected, or reordered",
                        keys.len(),
                        hex(&root)
                    );
                    Ok(())
                }
                Err(e) => Err(e.to_string()),
            },
            "ssp" => {
                let objects: u64 = self.servers.iter().map(|(_, s)| s.store().object_count()).sum();
                let bytes: u64 = self.servers.iter().map(|(_, s)| s.store().byte_count()).sum();
                println!(
                    "the provider stores {objects} opaque encrypted objects, {bytes} bytes total \
                     across {} node(s) — no names, no keys, no plaintext",
                    self.servers.len(),
                );
                Ok(())
            }
            "cluster-status" => match self.cluster {
                Some(opts) => {
                    let w = if opts.write_quorum == 0 {
                        opts.replication / 2 + 1
                    } else {
                        opts.write_quorum
                    };
                    println!(
                        "cluster: {} nodes, R={}, W={}, {} vnodes/node, seed {:#x}",
                        self.servers.len(),
                        opts.replication,
                        w,
                        opts.vnodes,
                        opts.seed
                    );
                    let mut roots = Vec::with_capacity(self.servers.len());
                    for (name, server) in &self.servers {
                        let (root, count) = server.store().index_root();
                        println!(
                            "  {name:>8}: {:>6} objects  {:>10} bytes  root {}… ({count} keys)",
                            server.store().object_count(),
                            server.store().byte_count(),
                            &hex(&root)[..16],
                        );
                        roots.push(root);
                    }
                    let agree = roots.windows(2).all(|w| w[0] == w[1]);
                    println!(
                        "  index roots: {}",
                        if agree {
                            "all nodes agree (identical key sets)"
                        } else {
                            "diverge (nodes hold different replica subsets when R < N)"
                        }
                    );
                    if let Some(stats) = &self.cluster_stats {
                        let s = stats.sample();
                        println!(
                            "  this mount: {} failovers, {} read repairs, {} quorum shortfalls, \
                             {} node errors",
                            s.failovers, s.read_repairs, s.quorum_shortfalls, s.node_errors
                        );
                    }
                    // Rebalancing is process-side, so the registry owns it.
                    let rebalanced =
                        sharoes_obs::global().snapshot().get("cluster_rebalance_keys_total");
                    println!("  all mounts: {rebalanced} rebalanced keys");
                    Ok(())
                }
                None => Err("not in cluster mode (start with --cluster N)".into()),
            },
            "costs" => {
                let s = self.client.meter().sample();
                println!(
                    "round trips {}  up {} B  down {} B  crypto {:.2} ms",
                    s.round_trips,
                    s.bytes_up,
                    s.bytes_down,
                    s.crypto_ns as f64 / 1e6
                );
                Ok(())
            }
            "stats" => {
                // Everything this shell talks to is in-process (including
                // the --tcp server), so the global registry holds the
                // server-side series. The client-side facts live in this
                // mount's own meter, cache and cluster transport.
                print!("{}", sharoes_obs::global().render());
                let (m, c) = (self.client.meter().sample(), self.client.cache_stats());
                let mut mine: Vec<_> = m.series().into_iter().chain(c.series()).collect();
                mine.push(("net_crypto_ns", m.crypto_ns));
                if let Some(stats) = &self.cluster_stats {
                    mine.extend(stats.sample().series());
                }
                println!("# this mount's client");
                for (name, v) in mine {
                    println!("{name} {v}");
                }
                let snap = sharoes_obs::global().snapshot();
                let hists: Vec<String> = snap
                    .values
                    .keys()
                    .filter_map(|k| k.strip_suffix("_count"))
                    .filter(|m| snap.values.contains_key(&format!("{m}_bucket{{le=\"+Inf\"}}")))
                    .map(str::to_string)
                    .collect();
                let mut any = false;
                for m in hists {
                    if let Some((p50, p95, p99)) = snap.quantile_summary(&m) {
                        if !any {
                            println!("# quantiles (interpolated from buckets)");
                            any = true;
                        }
                        println!("{m} p50={p50} p95={p95} p99={p99}");
                    }
                }
                Ok(())
            }
            "trace" => {
                // The demo deployment is in-process end to end, so the
                // global trace buffer already holds client *and* server
                // spans; assemble them into per-trace trees.
                let events: Vec<sharoes_obs::OwnedEvent> = sharoes_obs::tracer()
                    .snapshot()
                    .iter()
                    .map(sharoes_obs::OwnedEvent::from)
                    .collect();
                let trees = sharoes_obs::assemble(&events);
                if trees.is_empty() {
                    println!("no traces captured (run with SHAROES_LOG=debug, then do some ops)");
                } else {
                    print!("{}", sharoes_obs::tree::render(&trees, true));
                }
                Ok(())
            }
            "slow" => {
                let caps = sharoes_obs::slow_ops();
                if caps.is_empty() {
                    println!("no slow ops captured (run with SHAROES_LOG=debug, then do some ops)");
                }
                for c in caps {
                    println!(
                        "{} {:.3} ms trace={:032x}",
                        c.root,
                        c.duration_ns as f64 / 1e6,
                        c.trace_id
                    );
                    let trees = sharoes_obs::assemble(&c.events);
                    print!("{}", sharoes_obs::tree::render(&trees, true));
                }
                Ok(())
            }
            "exit" | "quit" => return false,
            other => Err(format!("unknown command: {other} (try `help`)")),
        };
        if let Err(e) = result {
            println!("error: {e}");
        }
        true
    }

    fn setfacl(&mut self, entry: &str, path: &str) -> Result<(), String> {
        let parts: Vec<&str> = entry.split(':').collect();
        let [kind, name, perms] = parts[..] else {
            return Err("entry must look like u:NAME:rwx".into());
        };
        let perm = Perm {
            read: perms.contains('r'),
            write: perms.contains('w'),
            exec: perms.contains('x'),
        };
        let mut acl = Acl::empty();
        match kind {
            "u" => {
                let user = self.db.user_by_name(name).ok_or_else(|| format!("no user {name}"))?;
                acl.set_user(user.uid, perm);
            }
            "g" => {
                let group =
                    self.db.group_by_name(name).ok_or_else(|| format!("no group {name}"))?;
                acl.set_group(group.gid, perm);
            }
            _ => return Err("entry must start with u: or g:".into()),
        }
        self.client.set_acl(path, acl).map_err(|e| e.to_string())
    }
}

/// `sharoes-shell stats ADDR`: pull a running sspd's metrics over TCP in
/// one round trip and print them, non-interactively (for scripts and CI).
/// The header's storage counts come from the reply's `ssp_store_*` gauges.
fn remote_stats(addr: &str) -> i32 {
    let mut transport = match TcpTransport::connect(addr) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sharoes-shell: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    match transport.call(&Request::Metrics) {
        Ok(Response::Metrics { text }) => {
            let gauge = |name: &str| {
                text.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')).unwrap_or("?")
            };
            let (objects, bytes) = (gauge("ssp_store_objects"), gauge("ssp_store_bytes"));
            println!("# sspd {addr}: {objects} objects, {bytes} bytes");
            print!("{text}");
            0
        }
        Ok(other) => {
            eprintln!("sharoes-shell: unexpected Metrics response: {other:?}");
            1
        }
        Err(e) => {
            eprintln!("sharoes-shell: Metrics call failed: {e}");
            1
        }
    }
}

/// `sharoes-shell trace ADDR...`: scrape the span buffer off one or more
/// running sspd's, stamp each event with the node it came from, and print
/// the assembled cross-node trace trees (for scripts and CI).
fn remote_trace(addrs: &[String]) -> i32 {
    /// Per-node scrape budget — newest events win on overflow.
    const MAX_EVENTS: u32 = 4096;
    let mut events: Vec<sharoes_obs::OwnedEvent> = Vec::new();
    let mut dropped = 0u64;
    for addr in addrs {
        let mut transport = match TcpTransport::connect(addr) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sharoes-shell: cannot connect to {addr}: {e}");
                return 1;
            }
        };
        match transport.call(&Request::Trace { max: MAX_EVENTS }) {
            Ok(Response::Trace { events: scraped, .. }) if scraped.len() > MAX_EVENTS as usize => {
                eprintln!("sharoes-shell: {addr} sent more trace events than asked for");
                return 1;
            }
            Ok(Response::Trace { events: scraped, dropped: d }) => {
                dropped += d;
                for mut ev in scraped {
                    if ev.node.is_empty() {
                        ev.node = addr.clone();
                    }
                    events.push(ev);
                }
            }
            Ok(other) => {
                eprintln!("sharoes-shell: unexpected Trace response: {other:?}");
                return 1;
            }
            Err(e) => {
                eprintln!("sharoes-shell: Trace call failed against {addr}: {e}");
                return 1;
            }
        }
    }
    let trees = sharoes_obs::assemble(&events);
    println!(
        "# {} trace(s) from {} event(s), {} dropped at source",
        trees.len(),
        events.len(),
        dropped
    );
    print!("{}", sharoes_obs::tree::render(&trees, true));
    0
}

/// `sharoes-shell root ADDR...`: fetch each node's authenticated index
/// root over TCP and report replica agreement, non-interactively (for
/// scripts and CI audits). Exit 0 on MATCH, 1 on MISMATCH or error.
fn remote_root(addrs: &[String]) -> i32 {
    let mut roots: Vec<[u8; 32]> = Vec::new();
    for addr in addrs {
        let mut transport = match TcpTransport::connect(addr) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sharoes-shell: cannot connect to {addr}: {e}");
                return 1;
            }
        };
        match transport.call(&Request::Root) {
            Ok(Response::Root { root, count }) => {
                println!("{addr}: root {} ({count} keys)", hex(&root));
                roots.push(root);
            }
            Ok(other) => {
                eprintln!("sharoes-shell: unexpected Root response: {other:?}");
                return 1;
            }
            Err(e) => {
                eprintln!("sharoes-shell: Root call failed against {addr}: {e}");
                return 1;
            }
        }
    }
    if roots.windows(2).all(|w| w[0] == w[1]) {
        println!("verdict: MATCH ({} node(s) hold identical key sets)", roots.len());
        0
    } else {
        println!("verdict: MISMATCH (replica key sets diverge — audit or rebalance)");
        1
    }
}

/// Lowercase hex of a 32-byte root.
fn hex(hash: &[u8; 32]) -> String {
    hash.iter().map(|b| format!("{b:02x}")).collect()
}

fn main() {
    let mut use_tcp = false;
    let mut cluster_n = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "stats" => {
                let Some(addr) = args.next() else {
                    eprintln!("sharoes-shell: stats needs an address (host:port)");
                    std::process::exit(2);
                };
                std::process::exit(remote_stats(&addr));
            }
            "trace" => {
                let addrs: Vec<String> = args.collect();
                if addrs.is_empty() {
                    eprintln!("sharoes-shell: trace needs one or more addresses (host:port)");
                    std::process::exit(2);
                }
                std::process::exit(remote_trace(&addrs));
            }
            "root" => {
                let addrs: Vec<String> = args.collect();
                if addrs.is_empty() {
                    eprintln!("sharoes-shell: root needs one or more addresses (host:port)");
                    std::process::exit(2);
                }
                std::process::exit(remote_root(&addrs));
            }
            "--tcp" => use_tcp = true,
            "--cluster" => {
                cluster_n = args.next().and_then(|n| n.parse().ok()).unwrap_or_else(|| {
                    eprintln!("sharoes-shell: --cluster needs a node count (e.g. --cluster 3)");
                    std::process::exit(2);
                });
                if cluster_n < 2 {
                    eprintln!("sharoes-shell: --cluster needs at least 2 nodes");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!("sharoes-shell: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if use_tcp && cluster_n > 0 {
        eprintln!("sharoes-shell: --tcp and --cluster are mutually exclusive");
        std::process::exit(2);
    }
    let mut shell = Shell::new(use_tcp, cluster_n);
    println!("sharoes shell — type `help` for commands, `exit` to quit");
    let stdin = std::io::stdin();
    loop {
        print!("{}@sharoes:{}$ ", shell.user, shell.cwd);
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {
                if !shell.run_line(line.trim()) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    println!("bye");
}
