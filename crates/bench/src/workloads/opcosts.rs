//! E5 — Figure 13: per-operation cost decomposition.
//!
//! Breaks getattr, mkdir (per required CAP), and large-file I/O into
//! NETWORK / CRYPTO / OTHER components, reproducing the paper's finding
//! that "the CRYPTO component is less than 7% for all filesystem
//! operations" under SHAROES.
//!
//! CRYPTO is reported twice: as measured wall time (the figure), and as the
//! cryptographic work the operation did, counted by
//! [`sharoes_crypto::work`] and priced at fixed reference speeds (the
//! deterministic check that the network dominates).

use crate::harness::{content, scheme_for, Bench, BenchOpts, PhaseTimer, BENCH_USER};
use sharoes_core::{CryptoPolicy, SharoesClient};
use sharoes_crypto::work::Work;
use sharoes_fs::Mode;

/// Reference prices for counted crypto work: the primitive table in
/// EXPERIMENTS.md at the paper's key sizes, each class priced at its
/// slowest member, and AES at the portable (scalar) speed.
mod price {
    /// AES-128-CTR, portable code: ~22 ms per MiB.
    pub const SYM_SECS_PER_BYTE: f64 = 22e-3 / (1u64 << 20) as f64;
    /// RSA-2048 encrypt (ESIGN-768 verify is ~11 µs).
    pub const PUBLIC_OP_SECS: f64 = 170e-6;
    /// RSA-2048 CRT decrypt (ESIGN-768 sign is ~59 µs).
    pub const PRIVATE_OP_SECS: f64 = 1.9e-3;
    /// ESIGN-768 key generation.
    pub const KEYGEN_SECS: f64 = 3.7e-3;
}

/// Seconds `work` costs at the reference prices.
pub fn priced_crypto_secs(work: &Work) -> f64 {
    work.sym_bytes as f64 * price::SYM_SECS_PER_BYTE
        + work.public_ops as f64 * price::PUBLIC_OP_SECS
        + work.private_ops as f64 * price::PRIVATE_OP_SECS
        + work.keygens as f64 * price::KEYGEN_SECS
}

/// One measured operation.
#[derive(Clone, Debug)]
pub struct OpCost {
    /// Operation label matching Figure 13.
    pub label: &'static str,
    /// NETWORK seconds.
    pub network: f64,
    /// CRYPTO seconds.
    pub crypto: f64,
    /// OTHER seconds.
    pub other: f64,
    /// CRYPTO seconds as counted work at reference prices
    /// ([`priced_crypto_secs`]): independent of the host and its load.
    pub crypto_priced: f64,
}

impl OpCost {
    /// Total seconds.
    pub fn total(&self) -> f64 {
        self.network + self.crypto + self.other
    }

    /// CRYPTO share of the total.
    pub fn crypto_share(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            self.crypto / self.total()
        }
    }

    /// Priced CRYPTO share of NETWORK plus priced CRYPTO: deterministic
    /// at a fixed seed.
    pub fn priced_crypto_share(&self) -> f64 {
        let total = self.network + self.crypto_priced;
        if total == 0.0 {
            0.0
        } else {
            self.crypto_priced / total
        }
    }
}

/// Running sums of one operation's repetitions.
#[derive(Default)]
struct Sums {
    network: f64,
    crypto: f64,
    other: f64,
    crypto_priced: f64,
    reps: usize,
}

impl Sums {
    /// Adds the repetition `t` timed on `c`.
    fn add(&mut self, t: &PhaseTimer, c: &SharoesClient, opts: &BenchOpts) {
        let (n, cr, o) = t.breakdown(c, opts);
        self.network += n;
        self.crypto += cr;
        self.other += o;
        self.crypto_priced += priced_crypto_secs(&t.crypto_work());
        self.reps += 1;
    }

    fn mean(&self, label: &'static str) -> OpCost {
        let n = self.reps.max(1) as f64;
        OpCost {
            label,
            network: self.network / n,
            crypto: self.crypto / n,
            other: self.other / n,
            crypto_priced: self.crypto_priced / n,
        }
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
            assert!(cost.total() > 0.0, "{} empty", cost.label);
            assert!(cost.crypto_priced > 0.0, "{}: no crypto work counted", cost.label);
            // Counted work at reference prices against the modelled link:
            // both sides are deterministic, so this holds on a loaded host.
            assert!(
                cost.priced_crypto_share() < 0.30,
                "{}: priced crypto share {:.2} unexpectedly high",
                cost.label,
                cost.priced_crypto_share()
            );
            assert!(cost.network > cost.crypto_priced, "{}: network must dominate", cost.label);
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
