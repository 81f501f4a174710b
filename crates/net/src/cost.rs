//! Cost accounting: the NETWORK / CRYPTO decomposition of Figure 13.
//!
//! Every client operation charges bytes and round trips to a [`CostMeter`],
//! and each crypto section charges its wall time and the primitive work it
//! counted ([`sharoes_crypto::work::Work`]) with [`CostMeter::charge_crypto`].
//! The benchmark harness turns byte counts into seconds with a
//! [`crate::netmodel::NetModel`] and prices the counted work from one fixed
//! table, so figures are independent of the machine the reproduction runs
//! on. The wall time is for live diagnostics (the shell, perfbench).

use sharoes_crypto::work::Work;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shared, thread-safe accumulator of operation costs. It is the only
/// counter for these facts: read them through [`CostMeter::sample`].
#[derive(Debug, Default)]
pub struct CostMeter {
    bytes_up: AtomicU64,
    bytes_down: AtomicU64,
    round_trips: AtomicU64,
    crypto_ns: AtomicU64,
    work: Mutex<Work>,
    retries: AtomicU64,
    reconnects: AtomicU64,
    faults_injected: AtomicU64,
}

/// A snapshot of accumulated costs, or the delta between two snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostSample {
    /// Bytes sent client → SSP.
    pub bytes_up: u64,
    /// Bytes received SSP → client.
    pub bytes_down: u64,
    /// Request/response round trips.
    pub round_trips: u64,
    /// Wall-clock nanoseconds spent in cryptographic operations.
    pub crypto_ns: u64,
    /// Cryptographic work done in those operations, counted per primitive.
    pub work: Work,
    /// Requests re-sent by the resilience layer after a retryable failure.
    pub retries: u64,
    /// Fresh connections established after a connection was torn down.
    pub reconnects: u64,
    /// Faults a fault-injecting transport deliberately introduced.
    pub faults_injected: u64,
}

impl CostSample {
    /// Component-wise difference (`self - earlier`); saturates at zero.
    pub fn since(&self, earlier: &CostSample) -> CostSample {
        CostSample {
            bytes_up: self.bytes_up.saturating_sub(earlier.bytes_up),
            bytes_down: self.bytes_down.saturating_sub(earlier.bytes_down),
            round_trips: self.round_trips.saturating_sub(earlier.round_trips),
            crypto_ns: self.crypto_ns.saturating_sub(earlier.crypto_ns),
            work: self.work.since(&earlier.work),
            retries: self.retries.saturating_sub(earlier.retries),
            reconnects: self.reconnects.saturating_sub(earlier.reconnects),
            faults_injected: self.faults_injected.saturating_sub(earlier.faults_injected),
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &CostSample) -> CostSample {
        CostSample {
            bytes_up: self.bytes_up + other.bytes_up,
            bytes_down: self.bytes_down + other.bytes_down,
            round_trips: self.round_trips + other.round_trips,
            crypto_ns: self.crypto_ns + other.crypto_ns,
            work: self.work.plus(&other.work),
            retries: self.retries + other.retries,
            reconnects: self.reconnects + other.reconnects,
            faults_injected: self.faults_injected + other.faults_injected,
        }
    }

    /// The wire counts under their series names. The wall-clock
    /// `crypto_ns` is left out: it differs between identical runs.
    pub fn series(&self) -> [(&'static str, u64); 6] {
        [
            ("net_round_trips_total", self.round_trips),
            ("net_tx_bytes_total", self.bytes_up),
            ("net_rx_bytes_total", self.bytes_down),
            ("net_retries_total", self.retries),
            ("net_reconnects_total", self.reconnects),
            ("net_faults_injected_total", self.faults_injected),
        ]
    }
}

impl CostMeter {
    /// A fresh meter wrapped for sharing.
    pub fn new_shared() -> Arc<CostMeter> {
        Arc::new(CostMeter::default())
    }

    /// Charges one round trip of `up` request bytes and `down` response bytes.
    pub fn charge_round_trip(&self, up: u64, down: u64) {
        self.bytes_up.fetch_add(up, Ordering::Relaxed);
        self.bytes_down.fetch_add(down, Ordering::Relaxed);
        self.round_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request retry.
    pub fn charge_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one reconnect.
    pub fn charge_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one deliberately injected fault.
    pub fn charge_fault(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Charges one crypto section: its wall time and the work it did.
    pub fn charge_crypto(&self, ns: u64, work: &Work) {
        self.crypto_ns.fetch_add(ns, Ordering::Relaxed);
        let mut total = self.work.lock().unwrap_or_else(|e| e.into_inner());
        *total = total.plus(work);
    }

    /// Current totals.
    pub fn sample(&self) -> CostSample {
        CostSample {
            bytes_up: self.bytes_up.load(Ordering::Relaxed),
            bytes_down: self.bytes_down.load(Ordering::Relaxed),
            round_trips: self.round_trips.load(Ordering::Relaxed),
            crypto_ns: self.crypto_ns.load(Ordering::Relaxed),
            work: *self.work.lock().unwrap_or_else(|e| e.into_inner()),
            retries: self.retries.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let m = CostMeter::default();
        m.charge_round_trip(100, 200);
        m.charge_round_trip(1, 2);
        let work = Work { aes_ctr_bytes: 64, esign_sign: 1, ..Work::default() };
        m.charge_crypto(500, &work);
        m.charge_crypto(20, &work);
        let s = m.sample();
        assert_eq!(s.bytes_up, 101);
        assert_eq!(s.bytes_down, 202);
        assert_eq!(s.round_trips, 2);
        assert_eq!(s.crypto_ns, 520);
        assert_eq!(s.work, work.plus(&work));
    }

    #[test]
    fn delta_between_snapshots() {
        let m = CostMeter::default();
        m.charge_round_trip(10, 10);
        let before = m.sample();
        m.charge_round_trip(5, 7);
        let delta = m.sample().since(&before);
        assert_eq!(delta.bytes_up, 5);
        assert_eq!(delta.bytes_down, 7);
        assert_eq!(delta.round_trips, 1);
    }

    #[test]
    fn plus_sums() {
        let a = CostSample {
            bytes_up: 1,
            bytes_down: 2,
            round_trips: 3,
            crypto_ns: 4,
            work: Work { sha256_bytes: 5, ..Work::default() },
            retries: 6,
            reconnects: 7,
            faults_injected: 8,
        };
        let b = a.plus(&a);
        assert_eq!(b.bytes_up, 2);
        assert_eq!(b.work.sha256_bytes, 10);
        assert_eq!(b.since(&a), a);
        assert_eq!(b.retries, 12);
        assert_eq!(b.faults_injected, 16);
    }

    #[test]
    fn resilience_counters_accumulate_and_delta() {
        let m = CostMeter::default();
        m.charge_retry();
        m.charge_retry();
        m.charge_reconnect();
        m.charge_fault();
        let before = m.sample();
        assert_eq!(before.retries, 2);
        assert_eq!(before.reconnects, 1);
        assert_eq!(before.faults_injected, 1);
        m.charge_retry();
        let delta = m.sample().since(&before);
        assert_eq!(delta.retries, 1);
        assert_eq!(delta.reconnects, 0);
    }

    #[test]
    fn shared_across_threads() {
        let m = CostMeter::new_shared();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.charge_round_trip(1, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.sample().round_trips, 8000);
    }
}
