//! Enterprise-scenario gate: the seeded enterprise suite (Zipf sharing
//! graph, membership churn with revocation oracles, key-rotation
//! lifecycle) must (a) hold its security oracles and (b) move the
//! observability registry by byte-identical deterministic deltas across
//! two same-seed passes in one process — the same contract `obs_gate.rs`
//! enforces for the chaos workload.
//!
//! The two per-pass exports are written to
//! `target/enterprise-registry-{a,b}.txt` so CI can `diff` them as an
//! independent check.
//!
//! Population size honors `SHAROES_SCALE` (small|medium|large|million,
//! default small) so the suite runs in seconds under CI but the same code
//! path scales to a million-entity graph.

use sharoes_bench::harness::BenchOpts;
use sharoes_bench::workloads::enterprise as drivers;
use sharoes_core::CryptoParams;
use sharoes_testkit::enterprise::{Enterprise, Scale};
use sharoes_testkit::rng::test_seed;

mod common;

/// CI-speed options: tiny asymmetric keys, two enterprise users.
fn quick_opts(seed: u64) -> BenchOpts {
    BenchOpts { users: 2, crypto: CryptoParams::test(), seed, ..Default::default() }
}

/// One full pass of the registry-visible drivers; returns the
/// deterministic registry delta (with every driver client's and
/// migration's own facts merged in) plus the oracle reports.
fn gate_pass(seed: u64) -> (String, drivers::ChurnReport, drivers::RotationReport) {
    let before = sharoes_obs::global().snapshot();
    let opts = quick_opts(seed);

    let ent = Enterprise::generate(&Scale::Small.spec(seed));
    let churn = drivers::membership_churn(&ent, &opts, 3);
    let rotation = drivers::rotation_lifecycle(&opts);
    let storm = drivers::revocation_storm(&[2], 2, 2048, &opts);
    assert_eq!(storm.len(), 2, "one point per revocation mode");

    let mut delta = sharoes_obs::global().snapshot().delta(&before);
    for facts in storm.iter().map(|p| p.facts).chain([churn.facts, rotation.facts]) {
        common::merge(&mut delta, &facts.cost.series());
        common::merge(&mut delta, &facts.cache.series());
    }
    (delta.deterministic_text(), churn, rotation)
}

/// The single registry-reading test in this binary (the registry is
/// process-global; a second concurrent reader would race the deltas).
/// Everything else in this file is registry-free pure generation.
#[test]
fn enterprise_gate_holds_oracles_and_is_registry_deterministic() {
    let seed = test_seed();
    println!("enterprise gate seed: {seed:#x} (set SHAROES_TEST_SEED to replay)");
    let (pass_a, churn_a, rotation_a) = gate_pass(seed);
    let (pass_b, churn_b, rotation_b) = gate_pass(seed);

    // Security oracles, both passes.
    for (tag, churn, rotation) in [("a", &churn_a, &rotation_a), ("b", &churn_b, &rotation_b)] {
        assert!(churn.revocations > 0, "pass {tag}: churn revoked nobody — vacuous oracle");
        assert_eq!(
            churn.denied_after_revocation, churn.revocations,
            "pass {tag}: a revoked reader was not denied"
        );
        assert_eq!(churn.stale_reader_leaks, 0, "pass {tag}: stale reader saw new plaintext");
        assert!(
            rotation.all_hold(),
            "pass {tag}: rotation lifecycle oracle violated: {rotation:?}"
        );
        assert_eq!(rotation.kek_versions, (0, 1), "pass {tag}: KEK must rotate v0 -> v1");
    }

    // Keep both exports on disk for CI's independent diff.
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/enterprise-registry-a.txt", &pass_a).expect("write pass a");
    std::fs::write("target/enterprise-registry-b.txt", &pass_b).expect("write pass b");

    assert_eq!(
        pass_a, pass_b,
        "enterprise registry deltas diverged between identical seeded runs \
         (diff target/enterprise-registry-{{a,b}}.txt)"
    );

    // The delta must be substantive: the drivers crossed the wire and the
    // client cache, not just local data structures.
    let get = |key: &str| -> u64 {
        pass_a
            .lines()
            .find(|l| l.starts_with(key) && l.as_bytes().get(key.len()) == Some(&b' '))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    assert!(get("net_round_trips_total") > 0, "wire layer silent:\n{pass_a}");
    assert!(get("net_tx_bytes_total") > 0, "no bytes shipped to the SSP");
    assert!(get("core_cache_misses_total") > 0, "client cache counters silent");
}

#[test]
fn scale_honors_env_and_generation_is_seed_deterministic() {
    // The suite must default to CI-small when SHAROES_SCALE is unset; CI
    // sets nothing, so this also guards the "runs in seconds" budget.
    if std::env::var("SHAROES_SCALE").is_err() {
        assert!(matches!(Scale::from_env(), Scale::Small));
    }
    let spec = Scale::from_env().spec(0xC1A55);
    let a = Enterprise::generate(&spec);
    let b = Enterprise::generate(&spec);
    assert_eq!(a.fingerprint(), b.fingerprint(), "same seed must reproduce the graph");
    let other = Enterprise::generate(&Scale::from_env().spec(0xC1A56));
    assert_ne!(a.fingerprint(), other.fingerprint(), "seed must steer the graph");
}

#[test]
fn replay_accounts_for_every_traffic_op() {
    let ent = Enterprise::generate(&Scale::from_env().spec(test_seed()));
    let mut fs = ent.materialize();
    let stats = ent.replay_local(&mut fs);
    let replayed =
        stats.reads_ok + stats.reads_denied + stats.writes_ok + stats.writes_denied + stats.chmods;
    assert_eq!(replayed as usize, ent.ops.len(), "an op vanished during replay");
    assert!(stats.reads_ok > 0, "traffic mix must contain successful reads");
}
