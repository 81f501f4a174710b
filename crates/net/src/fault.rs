//! Deterministic fault injection beneath [`crate::TcpTransport`].
//!
//! [`connector`] dials connections to an in-process [`RequestHandler`] that
//! misbehave the way a WAN link to an outsourced SSP does (paper §VII:
//! outages and partial failures are why the SSP relationship is governed
//! by SLAs). Each connection is a frame writer plus a [`FrameSource`]: the
//! writer serves each request frame synchronously through [`serve_frame`]
//! and queues what the reader will see, after drawing the request's fault
//! from a seeded [`FaultSchedule`]. Every fault is a frame-level action
//! (see [`FaultKind`]), so the transport above runs the same correlation
//! dispatcher and retry loop that it runs over a socket.
//!
//! The schedule is a pure function of its seed and the request sequence,
//! so a chaos run is fully replayable: rerun with the same
//! `SHAROES_TEST_SEED` and the same faults hit the same calls. Outcomes
//! do not depend on timing either: a reply is queued while its request is
//! written or never, and a reader facing an empty queue blocks until its
//! deadline. The schedule is shared (`Arc`) by every connection a
//! connector dials, so a re-dialled connection keeps consuming the same
//! fault stream.
//!
//! Two deliberate design points keep injected faults *detectable at the
//! transport layer* (and therefore survivable by retry):
//!
//! * Damage hits the reply's message, never its envelope. TCP checksums
//!   make random line corruption frame-detectable in practice; corruption
//!   that survives transport checksums is indistinguishable from
//!   tampering, which the client's crypto layer correctly treats as fatal
//!   — injecting it would make "eventually completes" unachievable by
//!   design, not by bug.
//! * A stale reply keeps its old correlation id, so the dispatcher counts
//!   it as an orphan and the call still gets its own reply. Same-id
//!   staleness is the rollback problem the client's signed-version
//!   freshness ledger owns.

use crate::cost::CostMeter;
use crate::envelope::{Envelope, ENVELOPE_LEN};
use crate::error::{NetError, TRANSIENT_ERROR_PREFIX};
use crate::message::{Request, Response};
use crate::pipeline::{FrameSource, Inbound};
use crate::transport::{serve_frame, Connector, FrameSink, RequestHandler};
use crate::wire::WireRead;
use sharoes_crypto::{HmacDrbg, RandomSource};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Cached global-registry counters, one per [`FaultKind`] (in
/// `FaultKind::ALL` order). The per-link total is counted by the
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
    /// `Request::Put` / `Request::PutMany`, and a `Request::Mutate` that
    /// puts anything.
    Put,
    /// `Request::Delete`, and a `Request::Mutate` that only deletes.
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
            Request::Mutate { puts, .. } if !puts.is_empty() => OpClass::Put,
            Request::Delete { .. } | Request::Mutate { .. } => OpClass::Delete,
            Request::Metrics | Request::Trace { .. } => OpClass::Stats,
        }
    }
}

/// The kinds of fault a connection can inject, each a frame-level action.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The request frame is dropped before the server sees it; the call
    /// times out.
    RequestLost,
    /// The server performs the operation but its reply frame is dropped;
    /// the call times out.
    ResponseLost,
    /// The connection is lost before the request is served; the caller
    /// dials a new one.
    Disconnect,
    /// The reply frame arrives with its message tag smashed (unparseable).
    CorruptFrame,
    /// The reply frame arrives with its message cut short (unparseable).
    TruncatedFrame,
    /// An earlier reply frame on the connection arrives again, under its
    /// old correlation id, ahead of the call's own reply.
    StaleResponse,
    /// The server sheds load: a `transient…` error reply under the
    /// request's id, without serving it.
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
    /// Stale reply frames replayed.
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
/// Shared via `Arc<Mutex<..>>` so every connection a [`connector`] dials
/// continues the same deterministic stream.
pub struct FaultSchedule {
    rng: HmacDrbg,
    /// Live fault probabilities; adjustable mid-run (e.g. to quiesce the
    /// schedule after a chaos phase).
    pub config: FaultConfig,
    counts: FaultCounts,
}

impl FaultSchedule {
    /// A schedule driven by `config`, seeded with `seed`.
    pub fn shared(config: FaultConfig, seed: u64) -> Arc<Mutex<FaultSchedule>> {
        Arc::new(Mutex::new(FaultSchedule {
            rng: HmacDrbg::from_seed_u64(seed),
            config,
            counts: FaultCounts::default(),
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

/// A connector whose connections serve `handler` in-process, inject
/// `schedule`'s faults, and count each fault in `meter`.
pub fn connector(
    handler: Arc<dyn RequestHandler>,
    schedule: Arc<Mutex<FaultSchedule>>,
    meter: Arc<CostMeter>,
) -> Connector {
    Box::new(move || {
        let line = Arc::new(Line::default());
        let writer = FaultWriter {
            line: Arc::clone(&line),
            handler: Arc::clone(&handler),
            schedule: Arc::clone(&schedule),
            meter: Arc::clone(&meter),
            last_reply: None,
            lost: false,
        };
        Ok((Box::new(writer) as Box<dyn FrameSink>, Box::new(Reader(line)) as Box<dyn FrameSource>))
    })
}

/// What one connection's writer has queued for its reader.
#[derive(Default)]
struct Line {
    queue: Mutex<VecDeque<Inbound>>,
    queued: Condvar,
}

/// The write half: serves each request frame as it is written.
struct FaultWriter {
    line: Arc<Line>,
    handler: Arc<dyn RequestHandler>,
    schedule: Arc<Mutex<FaultSchedule>>,
    meter: Arc<CostMeter>,
    /// The last reply frame served on this connection, with its id: what a
    /// stale fault replays.
    last_reply: Option<(u64, Vec<u8>)>,
    /// Set by a disconnect: later writes fail.
    lost: bool,
}

impl FaultWriter {
    /// Serves `frame` and remembers the reply for a later stale fault.
    fn serve(&mut self, corr: u64, frame: &[u8]) -> Vec<u8> {
        let reply = serve_frame(&*self.handler, frame, "mem").unwrap_or_else(|error| error);
        self.last_reply = Some((corr, reply.clone()));
        reply
    }
}

impl FrameSink for FaultWriter {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if self.lost {
            return Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "injected fault: write after disconnect",
            )));
        }
        let (env, message) = Envelope::open(frame)?;
        let request = Request::from_wire(message)?;
        let corr = env.corr;
        let fault = {
            let mut s = self.schedule.lock().unwrap_or_else(|e| e.into_inner());
            // A stale reply needs an earlier one on this connection;
            // without it the call proceeds cleanly.
            let fault = s
                .decide(&request)
                .filter(|kind| *kind != FaultKind::StaleResponse || self.last_reply.is_some());
            if let Some(kind) = fault {
                s.counts.bump(kind);
            }
            fault
        };
        if let Some(kind) = fault {
            let pos = FaultKind::ALL.iter().position(|k| *k == kind).expect("kind is in ALL");
            fault_counters()[pos].inc();
            sharoes_obs::obs_event!(sharoes_obs::Level::Trace, "net.fault", kind);
            self.meter.charge_fault();
        }
        let reply = |frame: Vec<u8>| Inbound::Reply { corr, frame };
        let inbound: Vec<Inbound> = match fault {
            None => vec![reply(self.serve(corr, frame))],
            Some(FaultKind::RequestLost) => Vec::new(),
            Some(FaultKind::ResponseLost) => {
                // The server performs the operation; only the reply is
                // lost. Retrying is safe because every SSP op is idempotent.
                self.serve(corr, frame);
                Vec::new()
            }
            Some(FaultKind::Disconnect) => {
                self.lost = true;
                vec![Inbound::Lost("injected fault: connection torn down".into())]
            }
            Some(FaultKind::CorruptFrame) => {
                let mut damaged = self.serve(corr, frame);
                damaged[ENVELOPE_LEN] = 0xAA;
                vec![reply(damaged)]
            }
            Some(FaultKind::TruncatedFrame) => {
                let mut damaged = self.serve(corr, frame);
                let message_len = damaged.len() - ENVELOPE_LEN;
                let keep = {
                    let mut s = self.schedule.lock().unwrap_or_else(|e| e.into_inner());
                    (s.rng.next_u64() as usize) % message_len.max(1)
                };
                // A strict prefix never parses: every variant's payload is
                // fixed-size or length-prefixed, so the cursor runs dry.
                damaged.truncate(ENVELOPE_LEN + keep);
                vec![reply(damaged)]
            }
            Some(FaultKind::StaleResponse) => {
                let (old_corr, old) = self.last_reply.take().expect("stale gated on a reply");
                let stale = Inbound::Reply { corr: old_corr, frame: old };
                vec![stale, reply(self.serve(corr, frame))]
            }
            Some(FaultKind::TransientError) => {
                let shed =
                    Response::Error(format!("{TRANSIENT_ERROR_PREFIX}: injected server overload"));
                vec![reply(Envelope::untraced(corr).seal(&shed))]
            }
        };
        if !inbound.is_empty() {
            self.line.queue.lock().unwrap_or_else(|e| e.into_inner()).extend(inbound);
            self.line.queued.notify_all();
        }
        Ok(())
    }
}

/// The read half: hands out what the writer queued, and blocks until the
/// deadline while the queue is empty.
struct Reader(Arc<Line>);

impl FrameSource for Reader {
    fn next_frame(&mut self, deadline: Instant) -> Inbound {
        let mut queue = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(inbound) = queue.pop_front() {
                return inbound;
            }
            let now = Instant::now();
            if now >= deadline {
                return Inbound::Idle;
            }
            queue = self
                .0
                .queued
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorClass;
    use crate::message::ObjectKey;
    use crate::retry::{FakeSleeper, RetryPolicy};
    use crate::transport::{TcpTransport, Transport};
    use std::collections::HashMap;
    use std::io::ErrorKind;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[derive(Default)]
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

    /// A transport over fault connections to `handler`, `attempts` tries
    /// per call and a short call timeout.
    fn faulty(
        handler: Arc<dyn RequestHandler>,
        config: FaultConfig,
        seed: u64,
        attempts: u32,
    ) -> (TcpTransport, Arc<Mutex<FaultSchedule>>) {
        let schedule = FaultSchedule::shared(config, seed);
        let meter = CostMeter::new_shared();
        let t = TcpTransport::with_connector(
            connector(handler, Arc::clone(&schedule), Arc::clone(&meter)),
            Duration::from_millis(20),
            RetryPolicy::fast(attempts),
            Box::new(FakeSleeper::new()),
            meter,
        )
        .unwrap();
        (t, schedule)
    }

    /// Only `kind`, on every request.
    fn only(kind: FaultKind) -> FaultConfig {
        let mut config = FaultConfig::at_rate(1.0);
        config.weights = FaultKind::ALL.map(|k| u32::from(k == kind));
        config
    }

    fn put(i: u8) -> Request {
        Request::Put { key: ObjectKey::metadata(i as u64, [i; 16]), value: vec![i; 40] }
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let (t, schedule) = faulty(Arc::new(MapStore::default()), FaultConfig::at_rate(0.0), 1, 1);
        for _ in 0..50 {
            assert_eq!(t.call(&Request::Ping).unwrap(), Response::Pong);
        }
        assert_eq!(schedule.lock().unwrap().counts().total(), 0);
        let s = t.meter().sample();
        assert_eq!((s.faults_injected, s.round_trips, s.retries), (0, 50, 0));
    }

    #[test]
    fn lost_requests_and_responses_time_out_and_only_the_response_loss_is_served() {
        for (kind, served) in [(FaultKind::RequestLost, false), (FaultKind::ResponseLost, true)] {
            let store = Arc::new(MapStore::default());
            let (t, _) = faulty(Arc::clone(&store) as _, only(kind), 2, 1);
            let err = t.call(&put(1)).unwrap_err();
            assert!(
                matches!(&err, NetError::Io(e) if e.kind() == ErrorKind::TimedOut),
                "{kind:?}: {err}"
            );
            assert_eq!(store.0.lock().unwrap().len(), usize::from(served), "{kind:?}");
            assert_eq!(t.meter().sample().faults_injected, 1);
        }
    }

    #[test]
    fn a_disconnect_loses_the_connection_and_the_retry_redials() {
        let store = Arc::new(MapStore::default());
        let (t, schedule) = faulty(Arc::clone(&store) as _, only(FaultKind::Disconnect), 3, 2);
        // Both attempts draw a disconnect; the second went out on a new
        // connection.
        let err = t.call(&Request::Ping).unwrap_err();
        assert!(err.to_string().contains("connection lost"), "{err}");
        assert_eq!(err.class(), ErrorClass::Retryable);
        let s = t.meter().sample();
        assert_eq!((s.retries, s.reconnects, s.faults_injected), (1, 1, 2));
        // Quiet the schedule: the next call finds its connection dead and
        // re-dials before it succeeds.
        schedule.lock().unwrap().config.rate = 0.0;
        assert_eq!(t.call(&Request::Ping).unwrap(), Response::Pong);
        assert_eq!(t.meter().sample().reconnects, 2);
    }

    #[test]
    fn damaged_replies_are_retryable_codec_errors_on_a_live_connection() {
        for kind in [FaultKind::CorruptFrame, FaultKind::TruncatedFrame] {
            let store = Arc::new(MapStore::default());
            let (t, schedule) = faulty(Arc::clone(&store) as _, only(kind), 4, 1);
            for i in 0..10 {
                let err = t.call(&put(i)).unwrap_err();
                assert!(matches!(err, NetError::Codec(_)), "{kind:?} reply parsed: {err}");
                assert_eq!(err.class(), ErrorClass::Retryable);
            }
            // The server performed every call; the connection stays framed.
            assert_eq!(store.0.lock().unwrap().len(), 10);
            schedule.lock().unwrap().config.rate = 0.0;
            assert_eq!(t.call(&Request::Ping).unwrap(), Response::Pong);
            assert_eq!(t.meter().sample().reconnects, 0, "{kind:?}");
        }
    }

    #[test]
    fn a_stale_reply_is_orphaned_and_the_call_still_answered() {
        let orphans = sharoes_obs::global().counter("net_corr_orphans_total");
        let store = Arc::new(MapStore::default());
        let (t, schedule) = faulty(Arc::clone(&store) as _, only(FaultKind::StaleResponse), 5, 1);
        // Nothing to replay on a fresh connection: the first call is clean.
        assert_eq!(t.call(&put(6)).unwrap(), Response::Ok);
        assert_eq!(schedule.lock().unwrap().counts().stale_responses, 0);
        // The Put's `Ok` arrives again ahead of the Get's own reply.
        let before = orphans.get();
        let key = ObjectKey::metadata(6, [6; 16]);
        assert_eq!(t.call(&Request::Get { key }).unwrap(), Response::Object(Some(vec![6; 40])));
        assert!(orphans.get() > before, "the stale reply was not orphaned");
        assert_eq!(schedule.lock().unwrap().counts().stale_responses, 1);
        let s = t.meter().sample();
        assert_eq!((s.retries, s.reconnects, s.round_trips), (0, 0, 2));
    }

    #[test]
    fn a_transient_error_retries_on_the_same_connection() {
        let store = Arc::new(MapStore::default());
        let (t, _) = faulty(Arc::clone(&store) as _, only(FaultKind::TransientError), 6, 3);
        let err = t.call(&put(1)).unwrap_err();
        assert!(matches!(&err, NetError::Remote(m) if m.starts_with(TRANSIENT_ERROR_PREFIX)));
        let s = t.meter().sample();
        assert_eq!((s.retries, s.reconnects, s.faults_injected), (2, 0, 3));
        assert!(store.0.lock().unwrap().is_empty(), "a shed request is never served");
    }

    #[test]
    fn a_server_that_sheds_then_recovers_is_retried_until_it_answers() {
        // A handler that sheds the first two calls, then recovers.
        struct Flaky(AtomicU64);
        impl RequestHandler for Flaky {
            fn handle(&self, _request: Request) -> Response {
                if self.0.fetch_add(1, Ordering::SeqCst) < 2 {
                    Response::Error("transient: warming up".into())
                } else {
                    Response::Pong
                }
            }
        }
        let flaky = Arc::new(Flaky(AtomicU64::new(0)));
        let (t, _) = faulty(flaky, FaultConfig::at_rate(0.0), 7, 5);
        assert_eq!(t.call(&Request::Ping).unwrap(), Response::Pong);
        let s = t.meter().sample();
        assert_eq!((s.retries, s.reconnects), (2, 0), "transient errors keep the connection");
    }

    #[test]
    fn fatal_errors_surface_after_one_attempt() {
        let (t, _) = faulty(Arc::new(MapStore::default()), FaultConfig::at_rate(0.0), 8, 5);
        // MapStore answers Metrics with a non-transient error.
        let err = t.call(&Request::Metrics).unwrap_err();
        assert!(matches!(err, NetError::Remote(_)));
        assert_eq!(err.class(), ErrorClass::Fatal);
        assert_eq!(t.meter().sample().retries, 0);
    }

    #[test]
    fn heavy_fault_rates_are_survived_by_retries() {
        // At a 40% fault rate, 8 attempts make per-call failure vanishingly
        // unlikely (0.4^8 ≈ 0.07%), and the seed pins the exact schedule.
        let (t, _) = faulty(Arc::new(MapStore::default()), FaultConfig::at_rate(0.4), 42, 8);
        for i in 0..50u8 {
            assert_eq!(t.call(&put(i)).unwrap(), Response::Ok);
            let key = ObjectKey::metadata(i as u64, [i; 16]);
            assert_eq!(t.call(&Request::Get { key }).unwrap(), Response::Object(Some(vec![i; 40])));
        }
        let s = t.meter().sample();
        assert!(s.retries > 0 && s.reconnects > 0 && s.faults_injected > 0, "{s:?}");
    }

    #[test]
    fn schedule_is_replayable() {
        let run = |seed: u64| {
            let (t, schedule) =
                faulty(Arc::new(MapStore::default()), FaultConfig::at_rate(0.3), seed, 2);
            let outcomes: Vec<bool> = (0..40).map(|i| t.call(&put(i)).is_ok()).collect();
            let counts = schedule.lock().unwrap().counts();
            (outcomes, counts, t.meter().sample().faults_injected)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1, "different seeds should differ");
    }

    #[test]
    fn per_op_rates_override_base() {
        let mut config = FaultConfig::at_rate(0.0);
        config.op_rates = vec![(OpClass::Put, 1.0)];
        config.weights = [0, 0, 0, 0, 0, 0, 1]; // only transient errors
        let (t, _) = faulty(Arc::new(MapStore::default()), config, 9, 1);
        // Gets are clean; Puts always shed.
        let key = ObjectKey::metadata(8, [8; 16]);
        assert_eq!(t.call(&Request::Get { key }).unwrap(), Response::Object(None));
        assert!(matches!(t.call(&put(8)), Err(NetError::Remote(_))));
    }

    #[test]
    fn a_mutate_is_classed_as_a_mutation() {
        let key = ObjectKey::data(3, [3; 16], 0);
        let mutate = |puts: Vec<(ObjectKey, Vec<u8>)>, deletes, drop_views| Request::Mutate {
            puts,
            deletes,
            drop_views,
        };
        assert_eq!(OpClass::of(&mutate(vec![(key, vec![1])], vec![key], vec![])), OpClass::Put);
        assert_eq!(OpClass::of(&mutate(vec![], vec![key], vec![])), OpClass::Delete);
        assert_eq!(OpClass::of(&mutate(vec![], vec![], vec![(3, [3; 16])])), OpClass::Delete);
    }

    #[test]
    fn an_index_node_batch_is_classed_as_a_read() {
        for hashes in [vec![], vec![[1; 32]], vec![[2; 32]; 3]] {
            assert_eq!(OpClass::of(&Request::IndexNode { hashes }), OpClass::Get);
        }
    }
}
