//! Deterministic fault injection for transports.
//!
//! [`FaultInjector`] wraps any [`Transport`] and, driven by a seeded
//! HMAC-DRBG schedule, makes it misbehave the way a WAN link to an
//! outsourced SSP does (paper §VII: outages and partial failures are why
//! the SSP relationship is governed by SLAs): dropped requests, lost
//! responses, torn connections, corrupted and truncated frames, stale
//! replies from a desynchronized stream, and transient server errors.
//!
//! The schedule is a pure function of its seed and the call sequence, so a
//! chaos run is fully replayable: rerun with the same `SHAROES_TEST_SEED`
//! and the same faults hit the same calls. The schedule state is shared
//! (`Arc`) across reconnections, so a resilient caller that replaces a
//! broken connection keeps consuming the same fault stream.
//!
//! Two deliberate design points keep injected faults *detectable at the
//! transport layer* (and therefore survivable by retry):
//!
//! * Frame corruption smashes the response tag byte rather than flipping a
//!   random payload bit. TCP checksums make random line corruption
//!   frame-detectable in practice; corruption that survives transport
//!   checksums is indistinguishable from tampering, which the client's
//!   crypto layer correctly treats as fatal — injecting it would make
//!   "eventually completes" unachievable by design, not by bug.
//! * Stale replies are only injected when the remembered previous response
//!   has a different shape than the current request expects (see
//!   [`Request::matches_response`]). Same-shape staleness is the rollback
//!   problem the client's signed-version freshness ledger owns.

use crate::cost::CostMeter;
use crate::error::{NetError, TRANSIENT_ERROR_PREFIX};
use crate::message::{Request, Response};
use crate::transport::Transport;
use crate::wire::{WireRead, WireWrite};
use sharoes_crypto::{HmacDrbg, RandomSource};
use std::sync::{Arc, Mutex, OnceLock};

/// Cached global-registry counters, one per [`FaultKind`] (in
/// `FaultKind::ALL` order). The per-link total is counted by the wrapped
/// transport's meter ([`CostMeter::charge_fault`], read back as
/// `CostSample::faults_injected`).
fn fault_counters() -> &'static [sharoes_obs::Counter; 7] {
    static COUNTERS: OnceLock<[sharoes_obs::Counter; 7]> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        [
            sharoes_obs::counter("net_fault_requests_lost_total"),
            sharoes_obs::counter("net_fault_responses_lost_total"),
            sharoes_obs::counter("net_fault_disconnects_total"),
            sharoes_obs::counter("net_fault_corrupt_frames_total"),
            sharoes_obs::counter("net_fault_truncated_frames_total"),
            sharoes_obs::counter("net_fault_stale_responses_total"),
            sharoes_obs::counter("net_fault_transient_errors_total"),
        ]
    })
}

/// Operation classes for per-op fault probabilities.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpClass {
    /// `Request::Ping`.
    Ping,
    /// `Request::Get` / `Request::GetMany`.
    Get,
    /// `Request::Put` / `Request::PutMany`.
    Put,
    /// `Request::Delete` / `Request::DeleteBlocks` / `Request::DeleteMany`.
    Delete,
    /// `Request::Metrics` / `Request::Trace` (operational introspection).
    Stats,
}

impl OpClass {
    /// The class of a request.
    pub fn of(request: &Request) -> Self {
        match request {
            Request::Ping => OpClass::Ping,
            // Scans (verified or not) and index lookups are read-only index
            // walks; class them with the reads.
            Request::Get { .. }
            | Request::GetMany { .. }
            | Request::Scan { .. }
            | Request::ScanVerified { .. }
            | Request::Root
            | Request::IndexNode { .. } => OpClass::Get,
            Request::Put { .. } | Request::PutMany { .. } => OpClass::Put,
            Request::Delete { .. } | Request::DeleteBlocks { .. } | Request::DeleteMany { .. } => {
                OpClass::Delete
            }
            Request::Metrics | Request::Trace { .. } => OpClass::Stats,
        }
    }
}

/// The kinds of fault the injector can introduce.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The request never reaches the server; the call times out.
    RequestLost,
    /// The server performs the operation but the response is lost.
    ResponseLost,
    /// The connection tears down; subsequent calls on it fail until the
    /// caller reconnects.
    Disconnect,
    /// The response frame arrives corrupted (unparseable).
    CorruptFrame,
    /// The response frame arrives truncated (unparseable).
    TruncatedFrame,
    /// A stale reply from a desynchronized stream: the previous response is
    /// replayed instead of performing the call.
    StaleResponse,
    /// The server sheds load with a transient error.
    TransientError,
}

impl FaultKind {
    const ALL: [FaultKind; 7] = [
        FaultKind::RequestLost,
        FaultKind::ResponseLost,
        FaultKind::Disconnect,
        FaultKind::CorruptFrame,
        FaultKind::TruncatedFrame,
        FaultKind::StaleResponse,
        FaultKind::TransientError,
    ];
}

/// Per-kind injection tallies (for reporting and replay assertions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Requests dropped before delivery.
    pub requests_lost: u64,
    /// Responses dropped after delivery.
    pub responses_lost: u64,
    /// Connections torn down.
    pub disconnects: u64,
    /// Corrupted response frames.
    pub corrupt_frames: u64,
    /// Truncated response frames.
    pub truncated_frames: u64,
    /// Stale responses replayed.
    pub stale_responses: u64,
    /// Transient server errors injected.
    pub transient_errors: u64,
}

impl FaultCounts {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.requests_lost
            + self.responses_lost
            + self.disconnects
            + self.corrupt_frames
            + self.truncated_frames
            + self.stale_responses
            + self.transient_errors
    }

    fn bump(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::RequestLost => self.requests_lost += 1,
            FaultKind::ResponseLost => self.responses_lost += 1,
            FaultKind::Disconnect => self.disconnects += 1,
            FaultKind::CorruptFrame => self.corrupt_frames += 1,
            FaultKind::TruncatedFrame => self.truncated_frames += 1,
            FaultKind::StaleResponse => self.stale_responses += 1,
            FaultKind::TransientError => self.transient_errors += 1,
        }
    }
}

/// Fault probabilities.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Base probability (0.0..=1.0) that any given call is faulted.
    pub rate: f64,
    /// Per-op overrides of the base rate (absolute probabilities).
    pub op_rates: Vec<(OpClass, f64)>,
    /// Relative weights of each [`FaultKind`], indexed in `FaultKind::ALL`
    /// order. A zero weight disables that kind.
    pub weights: [u32; 7],
}

impl FaultConfig {
    /// Every fault kind equally likely, at `rate`.
    pub fn at_rate(rate: f64) -> Self {
        FaultConfig { rate, op_rates: Vec::new(), weights: [1; 7] }
    }

    /// The effective fault probability for `request`.
    fn rate_for(&self, request: &Request) -> f64 {
        let class = OpClass::of(request);
        self.op_rates
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, r)| *r)
            .unwrap_or(self.rate)
            .clamp(0.0, 1.0)
    }
}

/// The shared, replayable fault schedule.
///
/// Shared via `Arc<Mutex<..>>` so reconnections (which build a fresh
/// [`FaultInjector`]) continue the same deterministic stream.
pub struct FaultSchedule {
    rng: HmacDrbg,
    /// Live fault probabilities; adjustable mid-run (e.g. to quiesce the
    /// schedule after a chaos phase).
    pub config: FaultConfig,
    counts: FaultCounts,
    /// Previous successfully delivered response, for stale replay.
    last_response: Option<Response>,
}

impl FaultSchedule {
    /// A schedule driven by `config`, seeded with `seed`.
    pub fn shared(config: FaultConfig, seed: u64) -> Arc<Mutex<FaultSchedule>> {
        Arc::new(Mutex::new(FaultSchedule {
            rng: HmacDrbg::from_seed_u64(seed),
            config,
            counts: FaultCounts::default(),
            last_response: None,
        }))
    }

    /// Injection tallies so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Decides the fault (if any) for `request`, consuming schedule
    /// entropy. Exactly one `next_u64` per call plus one per fault keeps
    /// the stream a pure function of the call sequence.
    fn decide(&mut self, request: &Request) -> Option<FaultKind> {
        let rate = self.config.rate_for(request);
        let draw = self.rng.next_u64() as f64 / u64::MAX as f64;
        if draw >= rate {
            return None;
        }
        let total: u64 = self.config.weights.iter().map(|&w| w as u64).sum();
        if total == 0 {
            return None;
        }
        let mut pick = self.rng.next_u64() % total;
        for (kind, &w) in FaultKind::ALL.iter().zip(&self.config.weights) {
            if pick < w as u64 {
                return Some(*kind);
            }
            pick -= w as u64;
        }
        None
    }
}

/// A transport decorator that injects deterministic faults.
pub struct FaultInjector<T: Transport> {
    inner: T,
    schedule: Arc<Mutex<FaultSchedule>>,
    /// Set once a `Disconnect` fault fires: this connection is dead and
    /// every further call fails until the caller reconnects (building a
    /// fresh injector around the shared schedule).
    broken: bool,
}

impl<T: Transport> FaultInjector<T> {
    /// Wraps `inner`, drawing faults from `schedule`.
    pub fn new(inner: T, schedule: Arc<Mutex<FaultSchedule>>) -> Self {
        FaultInjector { inner, schedule, broken: false }
    }

    /// Injection tallies so far (across all connections on this schedule).
    pub fn counts(&self) -> FaultCounts {
        self.schedule.lock().unwrap_or_else(|e| e.into_inner()).counts
    }

    fn io(kind: std::io::ErrorKind, what: &str) -> NetError {
        NetError::Io(std::io::Error::new(kind, format!("injected fault: {what}")))
    }

    /// Remembers a delivered response for later stale replay.
    fn remember(&self, response: &Response) {
        let mut s = self.schedule.lock().unwrap_or_else(|e| e.into_inner());
        s.last_response = Some(response.clone());
    }
}

impl<T: Transport> Transport for FaultInjector<T> {
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        if self.broken {
            return Err(NetError::Closed);
        }
        let decision = {
            let mut s = self.schedule.lock().unwrap_or_else(|e| e.into_inner());
            match s.decide(request) {
                // Stale replay is only injectable when it is shape-detectable
                // (see module docs); otherwise the call proceeds cleanly.
                Some(FaultKind::StaleResponse) => match &s.last_response {
                    Some(prev) if !request.matches_response(prev) => Some(FaultKind::StaleResponse),
                    _ => None,
                },
                other => other,
            }
        };
        let Some(kind) = decision else {
            let response = self.inner.call(request)?;
            self.remember(&response);
            return Ok(response);
        };
        {
            let mut s = self.schedule.lock().unwrap_or_else(|e| e.into_inner());
            s.counts.bump(kind);
        }
        let pos = FaultKind::ALL.iter().position(|k| *k == kind).expect("kind is in ALL");
        fault_counters()[pos].inc();
        sharoes_obs::obs_event!(sharoes_obs::Level::Trace, "net.fault", kind);
        self.inner.meter().charge_fault();
        match kind {
            FaultKind::RequestLost => Err(Self::io(std::io::ErrorKind::TimedOut, "request lost")),
            FaultKind::ResponseLost => {
                // The server performs the operation; only the reply is lost.
                // Retrying is safe because every SSP op is idempotent.
                let response = self.inner.call(request)?;
                self.remember(&response);
                Err(Self::io(std::io::ErrorKind::TimedOut, "response lost"))
            }
            FaultKind::Disconnect => {
                self.broken = true;
                Err(Self::io(std::io::ErrorKind::ConnectionReset, "connection torn down"))
            }
            FaultKind::CorruptFrame => {
                let response = self.inner.call(request)?;
                self.remember(&response);
                let mut bytes = response.to_wire();
                // Smash the tag byte so the frame is detectably garbage.
                bytes[0] = 0xAA;
                Response::from_wire(&bytes)
            }
            FaultKind::TruncatedFrame => {
                let response = self.inner.call(request)?;
                self.remember(&response);
                let bytes = response.to_wire();
                let keep = {
                    let mut s = self.schedule.lock().unwrap_or_else(|e| e.into_inner());
                    (s.rng.next_u64() as usize) % bytes.len().max(1)
                };
                // A strict prefix never parses: every variant's payload is
                // fixed-size or length-prefixed, so the cursor runs dry.
                Response::from_wire(&bytes[..keep])
            }
            FaultKind::StaleResponse => {
                // Consume the remembered reply: a desynchronized stream has
                // exactly one late frame to drain, so a reconnect-and-retry
                // observes a clean stream.
                let prev = {
                    let mut s = self.schedule.lock().unwrap_or_else(|e| e.into_inner());
                    s.last_response.take()
                };
                Ok(prev.expect("stale replay gated on a remembered response"))
            }
            FaultKind::TransientError => {
                Ok(Response::Error(format!("{TRANSIENT_ERROR_PREFIX}: injected server overload")))
            }
        }
    }

    fn meter(&self) -> &Arc<CostMeter> {
        self.inner.meter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ObjectKey;
    use crate::transport::{InMemoryTransport, RequestHandler};
    use std::collections::HashMap;

    struct MapStore(Mutex<HashMap<ObjectKey, Vec<u8>>>);

    impl RequestHandler for MapStore {
        fn handle(&self, request: Request) -> Response {
            match request {
                Request::Ping => Response::Pong,
                Request::Put { key, value } => {
                    self.0.lock().unwrap().insert(key, value);
                    Response::Ok
                }
                Request::Get { key } => Response::Object(self.0.lock().unwrap().get(&key).cloned()),
                _ => Response::Error("unsupported in test".into()),
            }
        }
    }

    fn injector(rate: f64, seed: u64) -> FaultInjector<InMemoryTransport> {
        let handler = Arc::new(MapStore(Mutex::new(HashMap::new())));
        let schedule = FaultSchedule::shared(FaultConfig::at_rate(rate), seed);
        FaultInjector::new(InMemoryTransport::new(handler), schedule)
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let mut t = injector(0.0, 1);
        for _ in 0..50 {
            assert_eq!(t.call(&Request::Ping).unwrap(), Response::Pong);
        }
        assert_eq!(t.counts().total(), 0);
        assert_eq!(t.meter().sample().faults_injected, 0);
    }

    #[test]
    fn full_rate_faults_every_call() {
        let mut t = injector(1.0, 2);
        let key = ObjectKey::metadata(1, [0; 16]);
        let mut faulted = 0;
        for i in 0..60u32 {
            let r = t.call(&Request::Put { key, value: vec![i as u8] });
            match r {
                Err(_) => faulted += 1,
                Ok(Response::Error(msg)) => {
                    assert!(msg.starts_with(TRANSIENT_ERROR_PREFIX));
                    faulted += 1;
                }
                Ok(Response::Pong) => faulted += 1, // stale replay of a Ping reply
                Ok(other) => panic!("unfaulted response at rate 1.0: {other:?}"),
            }
            if t.broken {
                break;
            }
        }
        assert!(faulted > 0);
        assert_eq!(t.counts().total(), faulted);
        assert_eq!(t.meter().sample().faults_injected, faulted);
    }

    #[test]
    fn schedule_is_replayable() {
        let run = |seed: u64| {
            let mut t = injector(0.3, seed);
            let key = ObjectKey::metadata(9, [1; 16]);
            let mut outcomes = Vec::new();
            for i in 0..40u32 {
                if t.broken {
                    // Simulate a reconnect: fresh injector, same schedule.
                    let handler = Arc::new(MapStore(Mutex::new(HashMap::new())));
                    t = FaultInjector::new(
                        InMemoryTransport::new(handler),
                        Arc::clone(&t.schedule),
                    );
                }
                outcomes.push(t.call(&Request::Put { key, value: vec![i as u8] }).is_ok());
            }
            (outcomes, t.counts())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds should differ");
    }

    #[test]
    fn disconnect_latches_until_reconnect() {
        // Weight only disconnects, rate 1: the first call breaks the
        // connection, later calls fail with Closed.
        let handler = Arc::new(MapStore(Mutex::new(HashMap::new())));
        let mut config = FaultConfig::at_rate(1.0);
        config.weights = [0, 0, 1, 0, 0, 0, 0];
        let schedule = FaultSchedule::shared(config, 3);
        let mut t = FaultInjector::new(InMemoryTransport::new(handler.clone()), schedule.clone());
        assert!(t.call(&Request::Ping).is_err());
        assert!(matches!(t.call(&Request::Ping), Err(NetError::Closed)));
        // A reconnect (fresh injector, same schedule) works again —
        // until the next scheduled disconnect.
        let mut t2 = FaultInjector::new(InMemoryTransport::new(handler), schedule);
        assert!(matches!(t2.call(&Request::Ping), Err(NetError::Io(_))));
    }

    #[test]
    fn response_lost_still_applies_the_mutation() {
        let handler = Arc::new(MapStore(Mutex::new(HashMap::new())));
        let mut config = FaultConfig::at_rate(1.0);
        config.weights = [0, 1, 0, 0, 0, 0, 0]; // only ResponseLost
        let schedule = FaultSchedule::shared(config, 4);
        let mut t = FaultInjector::new(InMemoryTransport::new(handler.clone()), schedule);
        let key = ObjectKey::metadata(5, [5; 16]);
        assert!(t.call(&Request::Put { key, value: vec![42] }).is_err());
        // The store took the write even though the reply was dropped.
        assert_eq!(handler.0.lock().unwrap().get(&key), Some(&vec![42]));
    }

    #[test]
    fn stale_replay_is_always_shape_detectable() {
        let mut config = FaultConfig::at_rate(1.0);
        config.weights = [0, 0, 0, 0, 0, 1, 0]; // only StaleResponse
        let handler = Arc::new(MapStore(Mutex::new(HashMap::new())));
        let schedule = FaultSchedule::shared(config, 5);
        let mut t = FaultInjector::new(InMemoryTransport::new(handler), schedule);
        let key = ObjectKey::metadata(6, [6; 16]);
        // First call: nothing remembered yet, so no stale fault fires.
        assert_eq!(t.call(&Request::Put { key, value: vec![1] }).unwrap(), Response::Ok);
        // A second Put would get a shape-compatible `Ok` replay, which the
        // injector refuses (falls through to a clean call).
        assert_eq!(t.call(&Request::Put { key, value: vec![2] }).unwrap(), Response::Ok);
        // A Get now draws the remembered `Ok` — a shape mismatch the
        // resilient layer can detect. The replay consumes the late frame.
        let stale = t.call(&Request::Get { key }).unwrap();
        assert_eq!(stale, Response::Ok);
        assert!(!Request::Get { key }.matches_response(&stale));
        // Stream drained: the next Get is clean again.
        assert_eq!(t.call(&Request::Get { key }).unwrap(), Response::Object(Some(vec![2])));
    }

    #[test]
    fn corrupt_and_truncated_frames_fail_parse() {
        for (weights, name) in
            [([0, 0, 0, 1, 0, 0, 0], "corrupt"), ([0, 0, 0, 0, 1, 0, 0], "truncated")]
        {
            let mut config = FaultConfig::at_rate(1.0);
            config.weights = weights;
            let handler = Arc::new(MapStore(Mutex::new(HashMap::new())));
            let schedule = FaultSchedule::shared(config, 6);
            let mut t = FaultInjector::new(InMemoryTransport::new(handler), schedule);
            let key = ObjectKey::metadata(7, [7; 16]);
            for i in 0..10u32 {
                let r = t.call(&Request::Put { key, value: vec![i as u8; 40] });
                assert!(matches!(r, Err(NetError::Codec(_))), "{name} frame parsed: {r:?}");
            }
        }
    }

    #[test]
    fn per_op_rates_override_base() {
        let mut config = FaultConfig::at_rate(0.0);
        config.op_rates = vec![(OpClass::Put, 1.0)];
        config.weights = [0, 0, 0, 0, 0, 0, 1]; // only transient errors
        let handler = Arc::new(MapStore(Mutex::new(HashMap::new())));
        let schedule = FaultSchedule::shared(config, 7);
        let mut t = FaultInjector::new(InMemoryTransport::new(handler), schedule);
        let key = ObjectKey::metadata(8, [8; 16]);
        // Gets are clean; Puts always shed.
        assert_eq!(t.call(&Request::Get { key }).unwrap(), Response::Object(None));
        assert!(matches!(
            t.call(&Request::Put { key, value: vec![] }).unwrap(),
            Response::Error(_)
        ));
    }
}
