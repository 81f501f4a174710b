//! `sharoes-sspd` — standalone SSP server.
//!
//! Usage: `sharoes-sspd [ADDR] [--wal DIR] [--cluster FILE --node NAME]`
//! (default `127.0.0.1:7070`, in-memory only).
//!
//! With `--wal DIR`, the store is journalled — the SSP's "faithfully
//! store/retrieve" obligation of paper §VII: every mutation is fsynced into
//! an append-only WAL under DIR before it is acknowledged, compaction
//! checkpoints the table once enough garbage accumulates (keeping one older
//! checkpoint generation as a fallback), and a restart recovers the newest
//! verifiable checkpoint plus the WAL tail (see DESIGN.md §11 and the
//! README "Durability" section for the DIR layout). All persisted bytes are
//! client-encrypted blobs.
//!
//! With `--cluster CONFIG --node NAME`, the daemon runs as the named member
//! of a cluster config (see `sharoes-cluster`): the bind address comes from
//! the config's `node NAME ADDR` line, and — unless `--wal` is given — the
//! journal defaults to `<NAME>.wal` so each member persists separately.
//! Nodes never talk to each other; replication is entirely client-driven.

use sharoes_cluster::ClusterConfig;
use sharoes_ssp::{serve, EngineConfig, ObjectStore, RealFs, SspServer};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut addr: Option<String> = None;
    let mut wal: Option<PathBuf> = None;
    let mut cluster: Option<PathBuf> = None;
    let mut node: Option<String> = None;
    let mut args = std::env::args().skip(1);
    let missing = |flag: &str| -> String {
        eprintln!("sharoes-sspd: {flag} needs a value");
        std::process::exit(2);
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--wal" => wal = Some(PathBuf::from(args.next().unwrap_or_else(|| missing("--wal")))),
            "--cluster" => {
                cluster = Some(PathBuf::from(args.next().unwrap_or_else(|| missing("--cluster"))))
            }
            "--node" => node = Some(args.next().unwrap_or_else(|| missing("--node"))),
            flag if flag.starts_with("--") => {
                eprintln!("sharoes-sspd: unknown flag {flag}");
                std::process::exit(2);
            }
            other => addr = Some(other.to_string()),
        }
    }

    if let Some(config_path) = &cluster {
        let Some(name) = &node else {
            eprintln!("sharoes-sspd: --cluster requires --node NAME");
            std::process::exit(2);
        };
        let text = std::fs::read_to_string(config_path).unwrap_or_else(|e| {
            eprintln!("sharoes-sspd: cannot read {}: {e}", config_path.display());
            std::process::exit(1);
        });
        let config = ClusterConfig::parse(&text).unwrap_or_else(|e| {
            eprintln!("sharoes-sspd: bad cluster config {}: {e}", config_path.display());
            std::process::exit(1);
        });
        let Some(spec) = config.node(name) else {
            let known: Vec<&str> = config.nodes.iter().map(|n| n.name.as_str()).collect();
            eprintln!("sharoes-sspd: node {name:?} not in config (members: {known:?})");
            std::process::exit(1);
        };
        if let Some(explicit) = &addr {
            if *explicit != spec.addr {
                eprintln!(
                    "sharoes-sspd: ADDR {explicit} conflicts with config address {} for {name}",
                    spec.addr
                );
                std::process::exit(2);
            }
        }
        addr = Some(spec.addr.clone());
        wal.get_or_insert_with(|| PathBuf::from(format!("{name}.wal")));
        eprintln!(
            "sharoes-sspd: cluster member {name} (R={}, W={}, {} nodes)",
            config.replication,
            config.write_quorum,
            config.nodes.len()
        );
    } else if node.is_some() {
        eprintln!("sharoes-sspd: --node requires --cluster FILE");
        std::process::exit(2);
    }
    let addr = addr.unwrap_or_else(|| "127.0.0.1:7070".to_string());

    let store = match &wal {
        Some(dir) => match ObjectStore::open(Arc::new(RealFs), dir, EngineConfig::default()) {
            Ok(store) => {
                eprintln!(
                    "sharoes-sspd: recovered {} objects ({} bytes) from {}",
                    store.object_count(),
                    store.byte_count(),
                    dir.display()
                );
                Arc::new(store)
            }
            Err(e) => {
                eprintln!("sharoes-sspd: recovery in {} failed: {e}", dir.display());
                std::process::exit(1);
            }
        },
        None => Arc::new(ObjectStore::new()),
    };
    match serve(SspServer::with_store(Arc::clone(&store)).into_shared(), &addr) {
        Ok(handle) => {
            eprintln!("sharoes-sspd listening on {}", handle.addr());
            // Mutations group-fsync on their own; this loop only covers a
            // group-commit remainder that never filled up.
            loop {
                std::thread::sleep(Duration::from_secs(30));
                if let Err(e) = store.flush() {
                    eprintln!("sharoes-sspd: wal flush failed: {e}");
                }
            }
        }
        Err(e) => {
            eprintln!("sharoes-sspd: failed to bind {addr}: {e}");
            std::process::exit(1);
        }
    }
}
