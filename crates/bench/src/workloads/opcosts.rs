//! E5 — Figure 13: per-operation cost decomposition.
//!
//! Breaks getattr, mkdir (per required CAP), and large-file I/O into
//! NETWORK / CRYPTO components, reproducing the paper's finding that "the
//! CRYPTO component is less than 7% for all filesystem operations" under
//! SHAROES. CRYPTO is the operation's counted crypto work at the harness's
//! reference prices, so the split is the same on any host.

use crate::harness::{content, scheme_for, Bench, BenchOpts, PhaseTimer, BENCH_USER};
use sharoes_core::{CryptoPolicy, SharoesClient};
use sharoes_fs::Mode;

/// One measured operation.
#[derive(Clone, Debug)]
pub struct OpCost {
    /// Operation label matching Figure 13.
    pub label: &'static str,
    /// NETWORK seconds.
    pub network: f64,
    /// CRYPTO seconds.
    pub crypto: f64,
}

impl OpCost {
    /// Total seconds.
    pub fn total(&self) -> f64 {
        self.network + self.crypto
    }

    /// CRYPTO share of the total.
    pub fn crypto_share(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            self.crypto / self.total()
        }
    }
}

/// Running sums of one operation's repetitions.
#[derive(Default)]
struct Sums {
    network: f64,
    crypto: f64,
    reps: usize,
}

impl Sums {
    /// Adds the repetition `t` timed on `c`.
    fn add(&mut self, t: &PhaseTimer, c: &SharoesClient, opts: &BenchOpts) {
        let (n, cr) = t.breakdown(c, opts);
        self.network += n;
        self.crypto += cr;
        self.reps += 1;
    }

    fn mean(&self, label: &'static str) -> OpCost {
        let n = self.reps.max(1) as f64;
        OpCost { label, network: self.network / n, crypto: self.crypto / n }
    }
}

/// Measures Figure 13's operation set for one implementation, averaging
/// `reps` repetitions of each operation.
pub fn run(policy: CryptoPolicy, reps: usize, opts: &BenchOpts) -> Vec<OpCost> {
    let bench = Bench::new(policy, scheme_for(policy), opts, 64 + reps * 8);
    let mut setup = bench.client(BENCH_USER, None);
    setup.create("/bench/statme", Mode::from_octal(0o644)).expect("create");
    setup.create("/bench/onemb", Mode::from_octal(0o644)).expect("create");
    let one_mb = content(1 << 20, 42);
    setup.write_file("/bench/onemb", &one_mb).expect("prewrite 1MB");

    let mut out = Vec::new();

    // getattr: cold stat of a file. The parent directory is resolved first
    // (Figure 8 charges getattr one metadata receive + one decryption, not
    // a whole path walk).
    let mut sums = Sums::default();
    for _ in 0..reps {
        let mut c = bench.client(BENCH_USER, None);
        c.getattr("/bench").expect("warm parent");
        let t = PhaseTimer::start(&c);
        c.getattr("/bench/statme").expect("stat");
        sums.add(&t, &c, opts);
    }
    out.push(sums.mean("getattr"));

    // mkdir variants: 0700 = one rwx CAP; 0111 = exec-only CAPs;
    // 0711 = both (the paper's "mkdir:both").
    for (label, mode) in [("mkdir:rwx", 0o700u32), ("mkdir:--x", 0o111), ("mkdir:both", 0o711)] {
        let mut c = bench.client(BENCH_USER, None);
        c.getattr("/bench").expect("warm parent");
        let mut sums = Sums::default();
        for i in 0..reps {
            let t = PhaseTimer::start(&c);
            c.mkdir(&format!("/bench/{label}-{i}"), Mode::from_octal(mode)).expect("mkdir");
            sums.add(&t, &c, opts);
        }
        out.push(sums.mean(label));
    }

    // read-1MB: cold read of the 1 MB file.
    let mut sums = Sums::default();
    for _ in 0..reps {
        let mut c = bench.client(BENCH_USER, None);
        c.getattr("/bench").expect("warm parent");
        let t = PhaseTimer::start(&c);
        let data = c.read("/bench/onemb").expect("read 1MB");
        assert_eq!(data.len(), 1 << 20);
        sums.add(&t, &c, opts);
    }
    out.push(sums.mean("read-1MB"));

    // write-1MB (write + close).
    let mut sums = Sums::default();
    for i in 0..reps {
        let mut c = bench.client(BENCH_USER, None);
        c.getattr("/bench").expect("warm parent");
        let t = PhaseTimer::start(&c);
        c.write_file("/bench/onemb", &content(1 << 20, i as u64)).expect("write 1MB");
        sums.add(&t, &c, opts);
    }
    out.push(sums.mean("wr+cl-1MB"));

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharoes_core::CryptoParams;

    #[test]
    fn sharoes_crypto_share_is_small() {
        let opts = BenchOpts { users: 2, crypto: CryptoParams::test(), ..Default::default() };
        let costs = run(CryptoPolicy::Sharoes, 2, &opts);
        assert_eq!(costs.len(), 6);
        for cost in &costs {
            assert!(cost.crypto > 0.0, "{}: no crypto work counted", cost.label);
            // Counted work at reference prices against the modelled link:
            // both sides are deterministic, so this holds on a loaded host.
            assert!(
                cost.crypto_share() < 0.30,
                "{}: crypto share {:.2} unexpectedly high",
                cost.label,
                cost.crypto_share()
            );
            assert!(cost.network > cost.crypto, "{}: network must dominate", cost.label);
        }
    }

    #[test]
    fn mkdir_both_costs_at_least_rwx() {
        let opts = BenchOpts { users: 2, crypto: CryptoParams::test(), ..Default::default() };
        let costs = run(CryptoPolicy::Sharoes, 2, &opts);
        let get = |label: &str| costs.iter().find(|c| c.label == label).unwrap().total();
        assert!(get("mkdir:both") >= get("mkdir:rwx") * 0.8);
        // 1 MB transfers dwarf metadata ops on the DSL link.
        assert!(get("read-1MB") > get("getattr") * 10.0);
    }
}
