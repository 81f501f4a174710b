//! How [`crate::TcpTransport`] spaces its retries: a bounded attempt count
//! and exponential backoff with deterministic jitter.
//!
//! Jitter is drawn from a seeded HMAC-DRBG, so a backoff sequence, like
//! everything else in the test and bench harness, is a pure function of
//! the seed. The wait itself goes through a [`Sleeper`]: production sleeps
//! on the wall clock, tests record the delay instead ([`FakeSleeper`]).

use sharoes_crypto::{HmacDrbg, RandomSource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a transport waits out a backoff delay.
///
/// The default [`WallClockSleeper`] actually sleeps. Tests and chaos
/// suites inject a [`FakeSleeper`] instead, so realistic backoff policies
/// (real `base_backoff`, real jitter arithmetic) can be exercised without
/// paying wall-clock time — the requested durations are still recorded and
/// observable.
pub trait Sleeper: Send + Sync {
    /// Waits (or pretends to wait) for `d`.
    fn sleep(&self, d: Duration);
}

/// The production sleeper: `std::thread::sleep`.
#[derive(Debug, Default)]
pub struct WallClockSleeper;

impl Sleeper for WallClockSleeper {
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A sleeper that only records what it was asked to sleep, never blocking.
/// Clone-shared via [`FakeSleeper::total_ns`] so a test can assert on the
/// virtual time a retry schedule would have cost.
#[derive(Clone, Debug, Default)]
pub struct FakeSleeper {
    slept_ns: Arc<AtomicU64>,
}

impl FakeSleeper {
    /// A fresh recording sleeper.
    pub fn new() -> Self {
        FakeSleeper::default()
    }

    /// Handle to the accumulated virtual sleep time (nanoseconds).
    pub fn total_ns(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.slept_ns)
    }
}

impl Sleeper for FakeSleeper {
    fn sleep(&self, d: Duration) {
        self.slept_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Retry/backoff parameters.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Maximum attempts per call (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0x5AA0_E55E_0BAC_0FF5,
        }
    }
}

impl RetryPolicy {
    /// A policy with zero backoff, for tests and chaos runs where wall-clock
    /// sleeping only slows the suite down.
    pub fn fast(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        }
    }

    /// The backoff before attempt `n` (0-based: attempt 0 never sleeps),
    /// with `jitter` in `0..=100` adding up to +100% of the base delay.
    fn backoff(&self, n: u32, jitter_pct: u64) -> Duration {
        if n == 0 || self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self.base_backoff.saturating_mul(1u32 << (n - 1).min(16));
        let capped = exp.min(self.max_backoff);
        capped + capped.mul_f64(jitter_pct as f64 / 100.0)
    }
}

/// A policy in force: its jitter stream and the sleeper that waits.
pub(crate) struct Backoff {
    policy: RetryPolicy,
    jitter: HmacDrbg,
    sleeper: Box<dyn Sleeper>,
}

impl Backoff {
    pub(crate) fn new(policy: RetryPolicy, sleeper: Box<dyn Sleeper>) -> Self {
        let jitter = HmacDrbg::from_seed_u64(policy.jitter_seed);
        Backoff { policy, jitter, sleeper }
    }

    /// Attempts per call, first try included.
    pub(crate) fn attempts(&self) -> u32 {
        self.policy.max_attempts.max(1)
    }

    /// Waits out the backoff before attempt `n`, counting each real wait in
    /// `net_backoff_sleeps_total` and `net_backoff_slept_ns`.
    pub(crate) fn sleep_before(&mut self, n: u32) {
        let jitter_pct = self.jitter.next_u64() % 101;
        let d = self.policy.backoff(n, jitter_pct);
        if !d.is_zero() {
            sharoes_obs::counter("net_backoff_sleeps_total").inc();
            sharoes_obs::counter("net_backoff_slept_ns").add(d.as_nanos() as u64);
            self.sleeper.sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fake_sleeper_records_exactly_the_jittered_schedule() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 11,
        };
        let sleeper = FakeSleeper::new();
        let slept = sleeper.total_ns();
        let mut backoff = Backoff::new(policy.clone(), Box::new(sleeper));
        let start = std::time::Instant::now();
        for n in 1..=3 {
            backoff.sleep_before(n);
        }
        assert!(start.elapsed() < Duration::from_millis(50), "a fake sleeper must not block");
        let mut jitter = HmacDrbg::from_seed_u64(policy.jitter_seed);
        let expect: u64 =
            (1..=3u32).map(|n| policy.backoff(n, jitter.next_u64() % 101).as_nanos() as u64).sum();
        assert_eq!(slept.load(Ordering::SeqCst), expect);
    }

    #[test]
    fn backoff_schedule_is_exponential_capped_and_deterministic() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
            jitter_seed: 9,
        };
        // Without jitter: 0, 10, 20, 40, 40 (capped), 40 …
        assert_eq!(policy.backoff(0, 0), Duration::ZERO);
        assert_eq!(policy.backoff(1, 0), Duration::from_millis(10));
        assert_eq!(policy.backoff(2, 0), Duration::from_millis(20));
        assert_eq!(policy.backoff(3, 0), Duration::from_millis(40));
        assert_eq!(policy.backoff(4, 0), Duration::from_millis(40));
        // Jitter adds at most +100% of the capped delay.
        assert_eq!(policy.backoff(2, 100), Duration::from_millis(40));
        // The jitter stream is a pure function of the seed.
        let mut a = HmacDrbg::from_seed_u64(policy.jitter_seed);
        let mut b = HmacDrbg::from_seed_u64(policy.jitter_seed);
        let da: Vec<u64> = (0..8).map(|_| a.next_u64() % 101).collect();
        let db: Vec<u64> = (0..8).map(|_| b.next_u64() % 101).collect();
        assert_eq!(da, db);
    }
}
