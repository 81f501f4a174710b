//! Shared by the registry-determinism gates (`obs_gate`, `index`,
//! `enterprise`).
//!
//! The process-wide registry holds only process-side facts. A client's
//! traffic, retries, injected faults and cache activity are counted once,
//! by that client's own meter, cache and cluster transport; a gate merges
//! their `series()` into its exported registry delta.

use sharoes::obs::Snapshot;

/// Adds `series` to `delta`, summing with any value already there.
pub fn merge(delta: &mut Snapshot, series: &[(&str, u64)]) {
    for &(name, v) in series {
        *delta.values.entry(name.to_string()).or_default() += v;
    }
}
