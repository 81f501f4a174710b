//! # sharoes-bench
//!
//! Workload generators and figure harnesses reproducing every table and
//! figure in the Sharoes ICDE 2008 evaluation (§V), plus the ablations in
//! DESIGN.md. The `paper-figures` binary prints each figure's rows/series;
//! EXPERIMENTS.md records paper-vs-measured results.
//!
//! | Experiment | Module |
//! |------------|--------|
//! | E1 Figure 9 (Create-and-List) | [`workloads::createlist`] |
//! | E2 Figure 10 (Postmark cache sweep) | [`workloads::postmark`] |
//! | E3/E4 Figures 11–12 (Andrew) | [`workloads::andrew`] |
//! | E5 Figure 13 (op-cost breakdown) | [`workloads::opcosts`] |
//! | E6 storage overhead | [`workloads::storage`] |
//! | A1–A4 ablations | [`workloads::ablations`] |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod workloads;

pub use harness::{
    all_policies, four_policies, quantile_lines, scheme_for, Bench, BenchOpts, PhaseTimer, Table,
};
