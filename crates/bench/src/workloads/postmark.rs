//! E2 — Figure 10: the Postmark benchmark with a cache-size sweep.
//!
//! "500 small files are created and then 500 randomly chosen transactions
//! (read, write, create, delete) are performed on these files. It is a
//! metadata intensive workload representative of web and mail servers. We
//! used the default settings of file sizes ranging between 500 bytes and
//! 9.77 KB." The x-axis sweeps the local cache size as a percentage of the
//! total data size.

use crate::harness::{content, scheme_for, Bench, BenchOpts, PhaseTimer, BENCH_USER};
use sharoes_core::CryptoPolicy;
use sharoes_fs::treegen::SplitMix64;
use sharoes_fs::Mode;

/// Postmark parameters (paper defaults; PostMark's `subdirectories` knob
/// spreads the file set so directory tables stay realistic).
#[derive(Clone, Copy, Debug)]
pub struct PostmarkSpec {
    /// Initial file set size.
    pub files: usize,
    /// Number of transactions.
    pub transactions: usize,
    /// File size range in bytes.
    pub size_range: (usize, usize),
    /// Subdirectories to spread files across (PostMark `set subdirectories`).
    pub subdirs: usize,
}

impl Default for PostmarkSpec {
    fn default() -> Self {
        PostmarkSpec { files: 500, transactions: 500, size_range: (500, 9770), subdirs: 20 }
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct PostmarkPoint {
    /// Cache size as a percentage of the workload data footprint.
    pub cache_pct: u64,
    /// Virtual seconds for the full run (create + transactions).
    pub secs: f64,
    /// Cache hit rate observed.
    pub hit_rate: f64,
}

/// Runs Postmark for one implementation at one cache size.
pub fn run_point(
    policy: CryptoPolicy,
    spec: &PostmarkSpec,
    cache_pct: u64,
    opts: &BenchOpts,
) -> PostmarkPoint {
    let bench =
        Bench::new(policy, scheme_for(policy), opts, (spec.files + spec.transactions) * 2 + 16);
    // Estimate the data footprint for the cache budget.
    let avg = (spec.size_range.0 + spec.size_range.1) / 2;
    let footprint = (spec.files * avg) as u64;
    let capacity = if cache_pct >= 100 {
        None // "infinite cache"
    } else {
        Some((footprint * cache_pct / 100).max(1))
    };
    let mut client = bench.client(BENCH_USER, capacity);
    let mut rng = SplitMix64::new(opts.seed ^ cache_pct);
    let subdirs = spec.subdirs.max(1);
    let pm_path = |id: u32| format!("/bench/s{}/pm{id}", id as usize % subdirs);

    let timer = PhaseTimer::start(&client);
    for d in 0..subdirs {
        client.mkdir(&format!("/bench/s{d}"), Mode::from_octal(0o755)).expect("mkdir subdir");
    }

    // Phase 1: create the initial file set.
    let mut live: Vec<(u32, usize)> = Vec::with_capacity(spec.files); // (id, size)
    let mut next_id: u32 = 0;
    for _ in 0..spec.files {
        let size = rng.range(spec.size_range.0 as u64, spec.size_range.1 as u64) as usize;
        let path = pm_path(next_id);
        client.create(&path, Mode::from_octal(0o644)).expect("create");
        client.write_file(&path, &content(size, next_id as u64)).expect("write");
        live.push((next_id, size));
        next_id += 1;
    }

    // Phase 2: transactions.
    for _ in 0..spec.transactions {
        match rng.below(4) {
            0 => {
                // read a random file
                let idx = rng.below(live.len() as u64) as usize;
                let (id, _) = live[idx];
                client.read(&pm_path(id)).expect("read");
            }
            1 => {
                // rewrite a random file
                let idx = rng.below(live.len() as u64) as usize;
                let (id, _) = live[idx];
                let size = rng.range(spec.size_range.0 as u64, spec.size_range.1 as u64) as usize;
                client.write_file(&pm_path(id), &content(size, id as u64 + 7)).expect("rewrite");
                live[idx].1 = size;
            }
            2 => {
                // create a new file
                let size = rng.range(spec.size_range.0 as u64, spec.size_range.1 as u64) as usize;
                let path = pm_path(next_id);
                client.create(&path, Mode::from_octal(0o644)).expect("create");
                client.write_file(&path, &content(size, next_id as u64)).expect("write");
                live.push((next_id, size));
                next_id += 1;
            }
            _ => {
                // delete a random file (keep at least one alive)
                if live.len() > 1 {
                    let idx = rng.below(live.len() as u64) as usize;
                    let (id, _) = live.swap_remove(idx);
                    client.unlink(&pm_path(id)).expect("unlink");
                }
            }
        }
    }
    let secs = timer.seconds(&client, opts);
    let stats = client.cache_stats();
    let total = stats.hits + stats.misses;
    PostmarkPoint {
        cache_pct,
        secs,
        hit_rate: if total == 0 { 0.0 } else { stats.hits as f64 / total as f64 },
    }
}

/// The cache sweep of Figure 10.
pub fn sweep_points() -> Vec<u64> {
    vec![0, 10, 20, 40, 60, 80, 100]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharoes_core::CryptoParams;

    #[test]
    fn bigger_caches_are_not_slower() {
        let opts = BenchOpts { users: 2, crypto: CryptoParams::test(), ..Default::default() };
        let spec =
            PostmarkSpec { files: 10, transactions: 20, size_range: (500, 2000), subdirs: 2 };
        let cold = run_point(CryptoPolicy::Sharoes, &spec, 0, &opts);
        let warm = run_point(CryptoPolicy::Sharoes, &spec, 100, &opts);
        assert!(
            warm.secs <= cold.secs * 1.05,
            "infinite cache ({}) should not lose to no cache ({})",
            warm.secs,
            cold.secs
        );
        assert!(warm.hit_rate >= cold.hit_rate);
    }

    #[test]
    fn pubopt_hurts_more_with_small_cache() {
        // Test-size keys: crypto is priced per operation, not per key bit,
        // so the private-key tax per metadata miss survives small keys.
        let opts = BenchOpts { users: 2, crypto: CryptoParams::test(), ..Default::default() };
        let spec =
            PostmarkSpec { files: 10, transactions: 20, size_range: (500, 2000), subdirs: 2 };
        let sharoes = run_point(CryptoPolicy::Sharoes, &spec, 10, &opts);
        let pubopt = run_point(CryptoPolicy::PubOpt, &spec, 10, &opts);
        assert!(
            pubopt.secs > sharoes.secs,
            "PUB-OPT ({}) should exceed SHAROES ({}) at a 10% cache",
            pubopt.secs,
            sharoes.secs
        );
    }
}
