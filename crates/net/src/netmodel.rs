//! Deterministic wide-area network cost model.
//!
//! The paper's testbed is a client in Birmingham, AL reaching an SSP at
//! Georgia Tech over a home DSL line with measured upload 850 Kbit/s and
//! download 350 Kbit/s (§V-A). We model each request/response as
//! `RTT + bytes_up/upload + bytes_down/download` plus per-message framing
//! overhead, which is what lets the benchmark harness reproduce the paper's
//! *figure shapes* deterministically on any machine.

use crate::cost::CostSample;
use std::time::Duration;

/// Link parameters for the virtual-clock conversion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetModel {
    /// Client upstream bandwidth in bits per second.
    pub upload_bps: f64,
    /// Client downstream bandwidth in bits per second.
    pub download_bps: f64,
    /// Round-trip latency.
    pub rtt: Duration,
    /// Fixed protocol overhead bytes charged per message in each direction
    /// (TCP/IP + framing).
    pub per_message_overhead: u64,
}

impl NetModel {
    /// The paper's measured DSL link (850 Kbit/s up, 350 Kbit/s down). The
    /// RTT is calibrated to Figure 13's observation that getattr "completes
    /// in a little over 100 ms, with the majority of the cost coming from
    /// the network component" — consumer DSL latency to a shared server
    /// ~150 miles away.
    pub fn paper_dsl() -> Self {
        NetModel {
            upload_bps: 850_000.0,
            download_bps: 350_000.0,
            rtt: Duration::from_millis(90),
            per_message_overhead: 64,
        }
    }

    /// A fast enterprise WAN (100 Mbit/s symmetric, 10 ms RTT) for the
    /// network-sweep ablation.
    pub fn enterprise_wan() -> Self {
        NetModel {
            upload_bps: 100_000_000.0,
            download_bps: 100_000_000.0,
            rtt: Duration::from_millis(10),
            per_message_overhead: 64,
        }
    }

    /// A LAN-like link (1 Gbit/s, 0.5 ms RTT).
    pub fn lan() -> Self {
        NetModel {
            upload_bps: 1_000_000_000.0,
            download_bps: 1_000_000_000.0,
            rtt: Duration::from_micros(500),
            per_message_overhead: 64,
        }
    }

    /// Transfer time for one message pair of the given sizes.
    pub fn message_time(&self, bytes_up: u64, bytes_down: u64) -> Duration {
        let up = (bytes_up + self.per_message_overhead) as f64 * 8.0 / self.upload_bps;
        let down = (bytes_down + self.per_message_overhead) as f64 * 8.0 / self.download_bps;
        self.rtt + Duration::from_secs_f64(up + down)
    }

    /// Total network time for an accumulated [`CostSample`].
    ///
    /// Bandwidth terms aggregate linearly; latency is charged once per round
    /// trip.
    pub fn network_time(&self, cost: &CostSample) -> Duration {
        let overhead = cost.round_trips * self.per_message_overhead;
        let up = (cost.bytes_up + overhead) as f64 * 8.0 / self.upload_bps;
        let down = (cost.bytes_down + overhead) as f64 * 8.0 / self.download_bps;
        self.rtt * cost.round_trips as u32 + Duration::from_secs_f64(up + down)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_link_is_asymmetric() {
        let m = NetModel::paper_dsl();
        // Uploading 1 MB is faster than downloading it on this link.
        let up_heavy = m.message_time(1_000_000, 0);
        let down_heavy = m.message_time(0, 1_000_000);
        assert!(down_heavy > up_heavy);
        // 1 MB down at 350 kbit/s ≈ 22.9 s.
        assert!((down_heavy.as_secs_f64() - 22.9).abs() < 0.5, "{down_heavy:?}");
    }

    #[test]
    fn rtt_charged_per_round_trip() {
        let m = NetModel::paper_dsl();
        let cost = CostSample { round_trips: 10, ..Default::default() };
        let t = m.network_time(&cost);
        assert!(t >= m.rtt * 10);
    }

    #[test]
    fn zero_cost_is_zero_time() {
        let m = NetModel::lan();
        assert_eq!(m.network_time(&CostSample::default()), Duration::ZERO);
    }

    #[test]
    fn faster_links_are_faster() {
        let cost = CostSample {
            bytes_up: 100_000,
            bytes_down: 100_000,
            round_trips: 5,
            ..Default::default()
        };
        let dsl = NetModel::paper_dsl().network_time(&cost);
        let wan = NetModel::enterprise_wan().network_time(&cost);
        let lan = NetModel::lan().network_time(&cost);
        assert!(dsl > wan);
        assert!(wan > lan);
    }
}
