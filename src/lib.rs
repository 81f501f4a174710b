//! # Sharoes
//!
//! A from-scratch Rust reproduction of **Sharoes: A Data Sharing Platform
//! for Outsourced Enterprise Storage Environments** (Aameek Singh, Ling Liu
//! — ICDE 2008): rich *nix-like data sharing over a Storage Service
//! Provider that is never trusted with confidentiality or access control.
//!
//! This crate is the facade over the workspace:
//!
//! * [`crypto`] — AES-128-CTR, SHA-256, HMAC-SHA-256, RSA, ESIGN, and the
//!   bignum core, all implemented in this repository.
//! * [`fs`] — the local *nix filesystem model (the thing you migrate).
//! * [`net`] — wire protocol, transports, and the WAN cost model.
//! * [`index`] — the authenticated ordered index (a history-independent
//!   Merkle search tree) both SSP backends maintain over their keyspace:
//!   O(log n) scans, Merkle range proofs, and 32-byte root commitments the
//!   cluster layer diffs instead of streaming keys.
//! * [`ssp`] — the untrusted Storage Service Provider.
//! * [`cluster`] — client-driven replication over several SSP nodes:
//!   consistent-hash placement, quorum writes, failover reads with read
//!   repair, and rebalancing after ring changes.
//! * [`core`] — CAPs, metadata/directory-table layouts, Scheme-1/2, the
//!   client filesystem, and the migration tool.
//! * [`obs`] — zero-dependency observability: the process-wide metrics
//!   registry (counters, gauges, latency/size histograms) every layer above
//!   feeds, plus the `span!`/`obs_event!` tracing facade gated by the
//!   `SHAROES_LOG` environment variable.
//!
//! ## Quickstart
//!
//! ```
//! use sharoes::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. An enterprise: users, groups, and a local filesystem.
//! let mut db = UserDb::new();
//! db.add_group(Gid(100), "eng").unwrap();
//! db.add_user(Uid(0), "root", Gid(100)).unwrap();
//! db.add_user(Uid(1), "alice", Gid(100)).unwrap();
//! let mut local = LocalFs::new(db, Gid(100), Mode::from_octal(0o755));
//! local.mkdir(Uid(0), "/docs", Mode::from_octal(0o775)).unwrap();
//! local.create(Uid(1), "/docs/plan.txt", Mode::from_octal(0o644)).unwrap();
//! local.write(Uid(1), "/docs/plan.txt", b"ship it").unwrap();
//!
//! // 2. Identity keys and an (untrusted) SSP.
//! let mut rng = HmacDrbg::from_seed_u64(7);
//! let ring = Keyring::generate(local.users(), 512, &mut rng).unwrap();
//! let config = ClientConfig::test_with(CryptoPolicy::Sharoes, Scheme::SharedCaps);
//! let pool = Arc::new(SigKeyPool::new(config.crypto));
//! let server = SspServer::new().into_shared();
//!
//! // 3. Migrate.
//! let mut transport = InMemoryTransport::new(Arc::clone(&server) as _);
//! Migrator { fs: &local, config: &config, ring: &ring, pool: &pool, downgrade_unsupported: true }
//!     .migrate(&mut transport, &mut rng)
//!     .unwrap();
//!
//! // 4. Mount as alice and read back — keys arrive fully in-band.
//! let transport = InMemoryTransport::new(Arc::clone(&server) as _);
//! let mut alice = SharoesClient::new(
//!     Box::new(transport),
//!     config.clone(),
//!     Arc::new(local.users().clone()),
//!     Arc::new(ring.public_directory()),
//!     ring.identity(Uid(1)).unwrap(),
//!     pool,
//! );
//! alice.mount().unwrap();
//! assert_eq!(alice.read("/docs/plan.txt").unwrap(), b"ship it");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use sharoes_cluster as cluster;
pub use sharoes_core as core;
pub use sharoes_crypto as crypto;
pub use sharoes_fs as fs;
pub use sharoes_index as index;
pub use sharoes_net as net;
pub use sharoes_obs as obs;
pub use sharoes_ssp as ssp;

/// Everything needed for typical use, in one import.
pub mod prelude {
    pub use sharoes_cluster::{ClusterConfig, ClusterOpts, ClusterTransport};
    pub use sharoes_core::client::{FileStat, ReadDirEntry};
    pub use sharoes_core::{
        ClientConfig, CoreError, CryptoParams, CryptoPolicy, KekChain, Keyring, MigrationReport,
        Migrator, Pki, RevocationMode, Scheme, SharoesClient, SigKeyPool, UserIdentity,
    };
    pub use sharoes_crypto::{HmacDrbg, SystemRandom};
    pub use sharoes_fs::prelude::*;
    pub use sharoes_net::{
        FaultConfig, FaultInjector, FaultSchedule, InMemoryTransport, NetModel, ResilientTransport,
        RetryPolicy, TcpTransport, Transport,
    };
    pub use sharoes_ssp::{serve, serve_with, ServeOptions, SspServer};
}
