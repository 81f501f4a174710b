//! End-to-end and per-layer benchmark of the Sharoes client → wire → SSP →
//! storage path. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.

pub mod bulk_share;
pub mod calib;
pub mod cluster_rpc;
pub mod driver;
pub mod floors;
pub mod gen;
pub mod layers;
pub mod postmark;
pub mod sys;

use driver::{Config, Outcome};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["postmark", "bulk_share", "cluster_rpc"];

/// Runs the named workload.
pub fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, String> {
    match name {
        "postmark" => driver::run::<postmark::Postmark>(cfg),
        "bulk_share" => driver::run::<bulk_share::BulkShare>(cfg),
        "cluster_rpc" => driver::run::<cluster_rpc::ClusterRpc>(cfg),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
}
