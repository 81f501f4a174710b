//! # sharoes-cluster
//!
//! Replicated multi-SSP cluster layer: consistent-hash placement, quorum
//! failover, read repair, and rebalancing over the unchanged blob protocol.
//!
//! The paper binds an enterprise to a single outsourced SSP (§II) — a scale
//! ceiling and a single point of failure. Because Sharoes' key management is
//! in-band (blobs are self-protecting: encrypted and signed before they
//! leave the client), the storage layer is free to place them anywhere. This
//! crate exploits that:
//!
//! * [`ring::HashRing`] — deterministic seeded consistent hashing; every
//!   party derives identical placement from the shared config.
//! * [`transport::ClusterTransport`] — implements the same
//!   [`sharoes_net::Transport`] trait the client mounts through, fanning
//!   writes to R replicas (W-quorum), failing reads over across replicas,
//!   and read-repairing stale copies.
//! * [`rebalance`] — restores placement after ring changes and audits the
//!   R-replica invariant, discovering each node's key set through its
//!   authenticated index (root compare + subtree-diff descent against
//!   each node's last verified tree) instead of streaming every key every
//!   round.
//! * [`config::ClusterConfig`] — the tiny shared file `sspd --cluster`,
//!   the CLI, and clients all read.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod rebalance;
pub mod ring;
mod sync;
pub mod transport;

pub use config::{ClusterConfig, NodeSpec};
pub use rebalance::{AuditReport, RebalanceReport};
pub use ring::HashRing;
pub use transport::{ClusterOpts, ClusterStats, ClusterStatsSample, ClusterTransport};
