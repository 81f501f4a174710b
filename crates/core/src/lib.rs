//! # sharoes-core
//!
//! The core of the Sharoes reproduction (Singh & Liu, ICDE 2008): rich
//! *nix-like data sharing over an untrusted Storage Service Provider,
//! without trusting the SSP for confidentiality or access control.
//!
//! * [`cap`] — Cryptographic Access-control Primitives (Figures 4–5).
//! * [`metadata`] / [`dirtable`] — the key-carrying metadata objects and
//!   four-column directory tables (Figures 2–3).
//! * [`scheme`] — the layout engine: per-user (Scheme-1) and shared-CAP
//!   (Scheme-2) replication, continuations, and split points (§III-D).
//! * [`superblock`] / [`groups`] — in-band key distribution (§II-A, §III-C).
//! * [`client`] — the Sharoes filesystem client (§IV-A, Figure 8) with the
//!   four baseline implementations of §V as alternative crypto policies.
//! * [`migrate`] — the migration tool (§IV).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod cap;
pub mod client;
pub mod dirtable;
pub mod error;
pub mod groups;
pub mod ids;
pub mod keypool;
pub mod keyring;
pub mod metadata;
pub mod migrate;
pub mod params;
pub mod scheme;
pub mod superblock;

pub use cache::{CacheStats, ClientCache};
pub use client::SharoesClient;
pub use error::{CoreError, Result};
pub use ids::ClassTag;
pub use keypool::SigKeyPool;
pub use keyring::{KekChain, Keyring, Pki, UserIdentity};
pub use metadata::{MetadataBody, SealedObject, SealedRef, ViewId};
pub use migrate::{MigrationReport, Migrator};
pub use params::{ClientConfig, CryptoParams, CryptoPolicy, RevocationMode, Scheme};
pub use scheme::{Layout, ObjectAttrs, ObjectSecrets};
