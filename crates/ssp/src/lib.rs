//! # sharoes-ssp
//!
//! The Storage Service Provider: the *untrusted* half of the Sharoes
//! architecture. It stores encrypted metadata objects, encrypted data
//! blocks, per-user superblocks, and group key blocks in a sharded
//! hashtable, indexed by inode number plus a view selector (user-hash for
//! Scheme-1, CAP id for Scheme-2) — and understands nothing about any of it.
//!
//! * [`store::ObjectStore`] — the blob table, every value in RAM; either a
//!   plain memory store or journalled ([`ObjectStore::open`]).
//! * [`engine`] — the store's crash-consistent write-ahead journal (WAL +
//!   sealed segments + checkpoints; see DESIGN.md §11), built on the
//!   [`faultfs::Vfs`] abstraction so the crash tests can inject disk faults.
//! * [`server::SspServer`] — protocol dispatch (implements
//!   `sharoes_net::RequestHandler`, so it plugs into both the in-memory and
//!   TCP transports) over one store.
//! * [`tcp`] — the standalone serving loop; `sharoes-sspd` is the binary.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod faultfs;
pub mod segment;
pub mod server;
pub mod store;
pub mod tcp;
pub mod wal;

pub use engine::{EngineConfig, LogEngine};
pub use faultfs::{CrashMode, FaultFs, RealFs, VFile, Vfs};
pub use server::SspServer;
pub use store::{shard_of, snapshot_from_entries, ObjectStore, DEFAULT_SHARDS};
pub use tcp::{serve, serve_with, ServeOptions, TcpServerHandle};
pub use wal::{WalError, WalOp, WalRecord};
