//! # sharoes-testkit
//!
//! The in-tree deterministic test and benchmark substrate for the Sharoes
//! workspace. Nothing here touches the network or the crates.io registry;
//! the whole kit is built from `std` plus the workspace's own
//! `sharoes-crypto` crate, which keeps `cargo build --offline && cargo test
//! --offline` hermetic and byte-for-byte reproducible.
//!
//! Three pieces:
//!
//! * [`rng`] — a seeded randomness facade over the NIST HMAC-DRBG in
//!   `sharoes-crypto`. Every test draws entropy through this, so two runs
//!   with the same seed are identical. `SHAROES_TEST_SEED` overrides the
//!   default seed.
//! * [`prop`] + [`gen`] + [`tape`] — a minimal property-testing runner. The
//!   [`prop!`] macro generates `#[test]` functions; generators draw bytes
//!   from a recorded [`tape::Tape`], and failures are shrunk by greedily
//!   simplifying the tape (delete chunks, zero chunks, shrink bytes), which
//!   shrinks *any* composed generator without per-type shrinker code.
//! * [`bench`] — a wall-clock micro-benchmark harness (warmup, N samples,
//!   median/p95 reporting) for `harness = false` bench targets.
//! * [`enterprise`] — a seeded enterprise-scale population generator
//!   (Zipf group membership and sharing graphs, mixed traffic streams),
//!   env-tunable via `SHAROES_SCALE` from CI-small to million-entity.
//!
//! ## Example
//!
//! ```
//! use sharoes_testkit::prelude::*;
//!
//! sharoes_testkit::prop! {
//!     #![cases(64)]
//!     fn reverse_is_involutive(v in gen::vecs(gen::u8s(), 0..64)) {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         prop_assert_eq!(w, v);
//!     }
//! }
//! # fn main() {}
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod enterprise;
pub mod gen;
pub mod keys;
pub mod prop;
pub mod rng;
pub mod tape;

/// One-stop imports for test files.
pub mod prelude {
    pub use crate::enterprise::{Enterprise, EnterpriseSpec, Scale, TrafficOp};
    pub use crate::gen::{self, Gen, Index, Rejected};
    pub use crate::prop::{CaseError, CaseResult, Config};
    pub use crate::rng::{test_rng, test_seed};
    pub use crate::tape::Tape;
    pub use crate::{prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume};
    pub use sharoes_crypto::{HmacDrbg, RandomSource};
}
