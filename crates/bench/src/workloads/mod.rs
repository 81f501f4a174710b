//! Workload generators and figure harnesses.

pub mod ablations;
pub mod andrew;
pub mod concurrency;
pub mod createlist;
pub mod enterprise;
pub mod opcosts;
pub mod postmark;
pub mod storage;
