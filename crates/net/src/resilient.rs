//! A retrying, reconnecting transport decorator.
//!
//! [`ResilientTransport`] wraps a [`Connector`] (a factory producing fresh
//! connections) and gives the client a single durable channel to the SSP:
//!
//! * **Bounded retries with exponential backoff.** A call that fails with a
//!   [`ErrorClass::Retryable`] error is retried up to
//!   [`RetryPolicy::max_attempts`] times, sleeping `base_backoff * 2^n`
//!   (capped at [`RetryPolicy::max_backoff`]) plus deterministic jitter
//!   between attempts. [`ErrorClass::Fatal`] errors surface immediately.
//! * **Automatic reconnect.** Connection-level failures (I/O errors, torn
//!   or garbled frames) drop the current connection; the next attempt asks
//!   the connector for a new one. Transient server errors retry on the same
//!   connection — the stream is still synchronized.
//! * **Desync detection.** A reply whose shape does not match the request
//!   (see [`Request::matches_response`]) means the stream slipped by a
//!   frame (a late reply after a timeout). The connection is dropped and
//!   the call retried on a fresh one.
//!
//! Retrying is safe because every SSP operation is an idempotent put / get /
//! delete of client-sealed blobs (see [`crate::error::ErrorClass`] for the
//! full argument); the decorator only ever resends the same request.
//!
//! Jitter is drawn from a seeded HMAC-DRBG, so backoff sequences — like
//! everything else in the test/bench harness — are a pure function of the
//! seed.

use crate::cost::CostMeter;
use crate::error::{ErrorClass, NetError};
use crate::message::{Request, Response};
use crate::transport::Transport;
use sharoes_crypto::{HmacDrbg, RandomSource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// How a [`ResilientTransport`] waits out a backoff delay.
///
/// The default [`WallClockSleeper`] actually sleeps. Tests and chaos
/// suites inject a [`FakeSleeper`] instead, so realistic backoff policies
/// (real `base_backoff`, real jitter arithmetic) can be exercised without
/// paying wall-clock time — the requested durations are still recorded and
/// observable.
pub trait Sleeper: Send {
    /// Waits (or pretends to wait) for `d`.
    fn sleep(&mut self, d: Duration);
}

/// The production sleeper: `std::thread::sleep`.
#[derive(Debug, Default)]
pub struct WallClockSleeper;

impl Sleeper for WallClockSleeper {
    fn sleep(&mut self, d: Duration) {
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
    fn sleep(&mut self, d: Duration) {
        self.slept_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Cached global-registry handles for the resilience-layer metrics.
struct ResilienceMetrics {
    backoff_sleeps: sharoes_obs::Counter,
    backoff_slept_ns: sharoes_obs::Counter,
    desyncs: sharoes_obs::Counter,
    batch_splits: sharoes_obs::Counter,
}

fn resilience_metrics() -> &'static ResilienceMetrics {
    static METRICS: OnceLock<ResilienceMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ResilienceMetrics {
        backoff_sleeps: sharoes_obs::counter("net_backoff_sleeps_total"),
        backoff_slept_ns: sharoes_obs::counter("net_backoff_slept_ns"),
        desyncs: sharoes_obs::counter("net_desyncs_total"),
        batch_splits: sharoes_obs::counter("net_batch_splits_total"),
    })
}

/// A factory producing fresh connections to the SSP.
///
/// Implemented for any `FnMut() -> Result<Box<dyn Transport>, NetError>`,
/// e.g. a closure around [`crate::transport::TcpTransport::connect_with`]
/// (one per-call timeout and the meter shared across reconnects) or one
/// building a [`crate::fault::FaultInjector`] over a shared fault schedule.
/// A connection that fails a call with a retryable error is dropped and
/// replaced through this factory; for a [`crate::TcpTransport`] that
/// includes being shed by the server, whose reason arrives as a
/// `transient…` [`NetError::Remote`].
pub trait Connector: Send {
    /// Opens a new connection.
    fn connect(&mut self) -> Result<Box<dyn Transport>, NetError>;
}

impl<F> Connector for F
where
    F: FnMut() -> Result<Box<dyn Transport>, NetError> + Send,
{
    fn connect(&mut self) -> Result<Box<dyn Transport>, NetError> {
        self()
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

/// A transport that retries, backs off, and reconnects.
pub struct ResilientTransport {
    connector: Box<dyn Connector>,
    policy: RetryPolicy,
    conn: Option<Box<dyn Transport>>,
    jitter: HmacDrbg,
    meter: Arc<CostMeter>,
    sleeper: Box<dyn Sleeper>,
}

impl ResilientTransport {
    /// Builds the decorator and eagerly opens the first connection so the
    /// shared meter (and early reachability errors) surface at build time.
    /// Backoff delays really sleep; see [`Self::connect_with_sleeper`].
    pub fn connect(connector: Box<dyn Connector>, policy: RetryPolicy) -> Result<Self, NetError> {
        Self::connect_with_sleeper(connector, policy, Box::new(WallClockSleeper))
    }

    /// Like [`Self::connect`] but with an injected [`Sleeper`], so chaos
    /// suites can run realistic backoff policies without wall-clock waits.
    pub fn connect_with_sleeper(
        mut connector: Box<dyn Connector>,
        policy: RetryPolicy,
        sleeper: Box<dyn Sleeper>,
    ) -> Result<Self, NetError> {
        let conn = connector.connect()?;
        let meter = Arc::clone(conn.meter());
        let jitter = HmacDrbg::from_seed_u64(policy.jitter_seed);
        Ok(ResilientTransport { connector, policy, conn: Some(conn), jitter, meter, sleeper })
    }

    /// True while no live connection is held (the last attempt tore it
    /// down and no call has re-established one yet).
    pub fn is_disconnected(&self) -> bool {
        self.conn.is_none()
    }

    /// Returns the live connection, reconnecting if necessary.
    fn ensure_conn(&mut self) -> Result<&mut Box<dyn Transport>, NetError> {
        if self.conn.is_none() {
            let conn = self.connector.connect()?;
            self.meter.charge_reconnect();
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }

    fn sleep_before(&mut self, attempt: u32) {
        let jitter_pct = self.jitter.next_u64() % 101;
        let d = self.policy.backoff(attempt, jitter_pct);
        if !d.is_zero() {
            let m = resilience_metrics();
            m.backoff_sleeps.inc();
            m.backoff_slept_ns.add(d.as_nanos() as u64);
            self.sleeper.sleep(d);
        }
    }

    /// One request through the full retry/reconnect/backoff schedule.
    fn call_retrying(&mut self, request: &Request) -> Result<Response, NetError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.meter.charge_retry();
                self.sleep_before(attempt);
            }
            let conn = match self.ensure_conn() {
                Ok(c) => c,
                Err(e) => {
                    // Connect failures are connectivity loss: retryable.
                    last_err = Some(e);
                    continue;
                }
            };
            match conn.call(request) {
                Ok(response) => {
                    if let Response::Error(msg) = &response {
                        let err = NetError::Remote(msg.clone());
                        if err.class() == ErrorClass::Fatal {
                            return Err(err);
                        }
                        // Transient server error: the stream is still in
                        // sync, so retry on the same connection.
                        last_err = Some(err);
                        continue;
                    }
                    if !request.matches_response(&response) {
                        // Desynchronized stream (a late reply slipped in):
                        // this connection can no longer be trusted to pair
                        // frames correctly. Drop it and retry fresh.
                        self.conn = None;
                        resilience_metrics().desyncs.inc();
                        sharoes_obs::obs_event!(sharoes_obs::Level::Warn, "net.desync", attempt);
                        last_err = Some(NetError::Codec("response does not match request"));
                        continue;
                    }
                    return Ok(response);
                }
                Err(e) => match e.class() {
                    ErrorClass::Fatal => return Err(e),
                    ErrorClass::Retryable => {
                        // Connection-level failure: the stream state is
                        // unknown, so reconnect before the next attempt.
                        self.conn = None;
                        last_err = Some(e);
                    }
                },
            }
        }
        Err(last_err.unwrap_or(NetError::Closed))
    }

    /// Batch-aware fatal handling: a fatal error on a multi-item batch is
    /// usually *one* bad item (an oversized value, a key the server
    /// rejects) poisoning the whole round trip. Bisect the batch and rerun
    /// each half through the full retry schedule, recursively, until the
    /// failure is pinned to a single item. Healthy items are applied
    /// (idempotently — re-running a committed half stores the same bytes)
    /// and the surfaced error names only the true culprit's sub-batch.
    fn isolate_batch_failure(
        &mut self,
        request: &Request,
        err: NetError,
    ) -> Result<Response, NetError> {
        let Some((left, right)) = split_batch(request) else { return Err(err) };
        resilience_metrics().batch_splits.inc();
        let halves = 2u32;
        sharoes_obs::obs_event!(sharoes_obs::Level::Warn, "net.batch_split", halves);
        let left_result = self.call(&left);
        let right_result = self.call(&right);
        merge_halves(left_result, right_result)
    }
}

/// Splits a multi-item batch request down the middle. `None` for
/// non-batch requests and single-item batches (nothing left to isolate).
fn split_batch(request: &Request) -> Option<(Request, Request)> {
    match request {
        Request::PutMany { items } if items.len() >= 2 => {
            let (l, r) = items.split_at(items.len() / 2);
            Some((Request::PutMany { items: l.to_vec() }, Request::PutMany { items: r.to_vec() }))
        }
        Request::GetMany { keys } if keys.len() >= 2 => {
            let (l, r) = keys.split_at(keys.len() / 2);
            Some((Request::GetMany { keys: l.to_vec() }, Request::GetMany { keys: r.to_vec() }))
        }
        Request::DeleteMany { keys } if keys.len() >= 2 => {
            let (l, r) = keys.split_at(keys.len() / 2);
            Some((
                Request::DeleteMany { keys: l.to_vec() },
                Request::DeleteMany { keys: r.to_vec() },
            ))
        }
        _ => None,
    }
}

/// Recombines two half-batch outcomes. The first error wins (its half —
/// recursively bisected — pins the failure to a single item).
fn merge_halves(
    left: Result<Response, NetError>,
    right: Result<Response, NetError>,
) -> Result<Response, NetError> {
    match (left, right) {
        (Ok(Response::Ok), Ok(Response::Ok)) => Ok(Response::Ok),
        (Ok(Response::Objects(mut l)), Ok(Response::Objects(r))) => {
            l.extend(r);
            Ok(Response::Objects(l))
        }
        (Err(e), _) | (_, Err(e)) => Err(e),
        (Ok(_), Ok(_)) => Err(NetError::Codec("mismatched batch half responses")),
    }
}

impl Transport for ResilientTransport {
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        match self.call_retrying(request) {
            // Retryable exhaustion surfaces as-is; a *fatal* failure on a
            // batch gets bisected to isolate the poisoned item.
            Err(e) if e.class() == ErrorClass::Fatal => self.isolate_batch_failure(request, e),
            other => other,
        }
    }

    fn meter(&self) -> &Arc<CostMeter> {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultInjector, FaultSchedule};
    use crate::message::ObjectKey;
    use crate::transport::{InMemoryTransport, RequestHandler};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

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

    /// A connector over a shared in-memory store + shared fault schedule:
    /// the same shape the chaos suite uses.
    fn faulty_connector(
        handler: Arc<MapStore>,
        schedule: Arc<Mutex<FaultSchedule>>,
        meter: Arc<CostMeter>,
    ) -> Box<dyn Connector> {
        Box::new(move || -> Result<Box<dyn Transport>, NetError> {
            let inner = InMemoryTransport::with_meter(
                Arc::clone(&handler) as Arc<dyn RequestHandler>,
                Arc::clone(&meter),
            );
            Ok(Box::new(FaultInjector::new(inner, Arc::clone(&schedule))))
        })
    }

    #[test]
    fn clean_path_passes_through() {
        let handler = Arc::new(MapStore(Mutex::new(HashMap::new())));
        let schedule = FaultSchedule::shared(FaultConfig::at_rate(0.0), 1);
        let meter = CostMeter::new_shared();
        let mut t = ResilientTransport::connect(
            faulty_connector(handler, schedule, meter),
            RetryPolicy::fast(3),
        )
        .unwrap();
        assert_eq!(t.call(&Request::Ping).unwrap(), Response::Pong);
        let s = t.meter().sample();
        assert_eq!(s.retries, 0);
        assert_eq!(s.reconnects, 0);
    }

    #[test]
    fn survives_heavy_fault_rates() {
        // At a 40% fault rate, 8 attempts make per-call failure vanishingly
        // unlikely (0.4^8 ≈ 0.07%), and the seed pins the exact schedule.
        let handler = Arc::new(MapStore(Mutex::new(HashMap::new())));
        let schedule = FaultSchedule::shared(FaultConfig::at_rate(0.4), 42);
        let meter = CostMeter::new_shared();
        let mut t = ResilientTransport::connect(
            faulty_connector(Arc::clone(&handler), schedule, meter),
            RetryPolicy::fast(8),
        )
        .unwrap();
        for i in 0..50u64 {
            let key = ObjectKey::metadata(i, [0; 16]);
            assert_eq!(
                t.call(&Request::Put { key, value: vec![i as u8; 64] }).unwrap(),
                Response::Ok
            );
            assert_eq!(
                t.call(&Request::Get { key }).unwrap(),
                Response::Object(Some(vec![i as u8; 64]))
            );
        }
        let s = t.meter().sample();
        assert!(s.retries > 0, "a 40% fault rate must force retries");
        assert!(s.faults_injected > 0);
    }

    #[test]
    fn fatal_errors_surface_immediately() {
        let handler = Arc::new(MapStore(Mutex::new(HashMap::new())));
        let schedule = FaultSchedule::shared(FaultConfig::at_rate(0.0), 2);
        let meter = CostMeter::new_shared();
        let mut t = ResilientTransport::connect(
            faulty_connector(handler, schedule, meter),
            RetryPolicy::fast(5),
        )
        .unwrap();
        // MapStore answers Metrics with a non-transient error: fatal, no retries.
        let err = t.call(&Request::Metrics).unwrap_err();
        assert!(matches!(err, NetError::Remote(_)));
        assert_eq!(err.class(), ErrorClass::Fatal);
        assert_eq!(t.meter().sample().retries, 0);
    }

    #[test]
    fn retries_are_bounded() {
        // A connector whose every connection always fails: the call must
        // give up after max_attempts, not spin forever.
        struct DeadTransport(Arc<CostMeter>);
        impl Transport for DeadTransport {
            fn call(&mut self, _request: &Request) -> Result<Response, NetError> {
                Err(NetError::Io(std::io::Error::from(std::io::ErrorKind::ConnectionReset)))
            }
            fn meter(&self) -> &Arc<CostMeter> {
                &self.0
            }
        }
        let meter = CostMeter::new_shared();
        let dials = Arc::new(AtomicU64::new(0));
        let dials2 = Arc::clone(&dials);
        let meter2 = Arc::clone(&meter);
        let connector = Box::new(move || -> Result<Box<dyn Transport>, NetError> {
            dials2.fetch_add(1, Ordering::SeqCst);
            Ok(Box::new(DeadTransport(Arc::clone(&meter2))) as Box<dyn Transport>)
        });
        let mut t = ResilientTransport::connect(connector, RetryPolicy::fast(4)).unwrap();
        let err = t.call(&Request::Ping).unwrap_err();
        assert_eq!(err.class(), ErrorClass::Retryable);
        assert!(t.is_disconnected());
        let s = t.meter().sample();
        assert_eq!(s.retries, 3, "4 attempts = 3 retries");
        // Initial dial + 3 redials (each failed attempt drops the conn).
        assert_eq!(dials.load(Ordering::SeqCst), 4);
        assert_eq!(s.reconnects, 3);
    }

    #[test]
    fn reconnects_after_disconnect_faults() {
        let handler = Arc::new(MapStore(Mutex::new(HashMap::new())));
        // Only disconnect faults, always.
        let mut config = FaultConfig::at_rate(1.0);
        config.weights = [0, 0, 1, 0, 0, 0, 0];
        let schedule = FaultSchedule::shared(config, 3);
        let meter = CostMeter::new_shared();
        let mut t = ResilientTransport::connect(
            faulty_connector(Arc::clone(&handler), Arc::clone(&schedule), meter),
            RetryPolicy::fast(3),
        )
        .unwrap();
        // Every attempt disconnects; retries are bounded.
        assert!(t.call(&Request::Ping).is_err());
        assert!(t.meter().sample().reconnects >= 2);
        // Quiet the schedule; the next call dials a fresh connection and
        // succeeds.
        schedule.lock().unwrap().config.rate = 0.0;
        assert_eq!(t.call(&Request::Ping).unwrap(), Response::Pong);
    }

    #[test]
    fn desync_detected_and_recovered() {
        let handler = Arc::new(MapStore(Mutex::new(HashMap::new())));
        // Only stale-response faults, always (injectable only when the
        // remembered reply has a mismatched shape, i.e. guaranteed desync).
        let mut config = FaultConfig::at_rate(1.0);
        config.weights = [0, 0, 0, 0, 0, 1, 0];
        let schedule = FaultSchedule::shared(config, 4);
        let meter = CostMeter::new_shared();
        let mut t = ResilientTransport::connect(
            faulty_connector(Arc::clone(&handler), Arc::clone(&schedule), meter),
            RetryPolicy::fast(4),
        )
        .unwrap();
        let key = ObjectKey::metadata(1, [1; 16]);
        // First call has nothing to replay: clean.
        assert_eq!(t.call(&Request::Put { key, value: vec![7] }).unwrap(), Response::Ok);
        // The Get draws the stale `Ok`; the decorator detects the shape
        // mismatch, reconnects, and the retry (whose replay of the same-shape
        // `Object` reply is refused by the injector) succeeds.
        assert_eq!(t.call(&Request::Get { key }).unwrap(), Response::Object(Some(vec![7])));
        let s = t.meter().sample();
        assert!(s.retries >= 1, "desync must trigger a retry");
        assert!(s.reconnects >= 1, "desync must drop the connection");
    }

    #[test]
    fn transient_server_errors_retry_without_reconnect() {
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
        let handler = Arc::new(Flaky(AtomicU64::new(0)));
        let connector = Box::new(move || -> Result<Box<dyn Transport>, NetError> {
            Ok(Box::new(InMemoryTransport::new(Arc::clone(&handler) as Arc<dyn RequestHandler>)))
        });
        let mut t = ResilientTransport::connect(connector, RetryPolicy::fast(5)).unwrap();
        assert_eq!(t.call(&Request::Ping).unwrap(), Response::Pong);
        let s = t.meter().sample();
        assert_eq!(s.retries, 2);
        assert_eq!(s.reconnects, 0, "transient errors keep the connection");
    }

    /// A store that fatally rejects exactly one poisoned key, in singles
    /// and batches alike — the shape of "one oversized/forbidden item
    /// poisons the whole batch round trip".
    struct PoisonStore {
        poison: ObjectKey,
        map: Mutex<HashMap<ObjectKey, Vec<u8>>>,
    }

    impl RequestHandler for PoisonStore {
        fn handle(&self, request: Request) -> Response {
            let keys: Vec<ObjectKey> = match &request {
                Request::Put { key, .. } | Request::Get { key } | Request::Delete { key } => {
                    vec![*key]
                }
                Request::PutMany { items } => items.iter().map(|(k, _)| *k).collect(),
                Request::GetMany { keys } | Request::DeleteMany { keys } => keys.clone(),
                _ => Vec::new(),
            };
            if keys.contains(&self.poison) {
                return Response::Error("value exceeds server limit".into());
            }
            let mut map = self.map.lock().unwrap();
            match request {
                Request::PutMany { items } => {
                    for (k, v) in items {
                        map.insert(k, v);
                    }
                    Response::Ok
                }
                Request::GetMany { keys } => {
                    Response::Objects(keys.iter().map(|k| map.get(k).cloned()).collect())
                }
                Request::DeleteMany { keys } => {
                    for k in &keys {
                        map.remove(k);
                    }
                    Response::Ok
                }
                _ => Response::Error("unsupported in test".into()),
            }
        }
    }

    fn poison_transport(poison: ObjectKey) -> (ResilientTransport, Arc<PoisonStore>) {
        let handler = Arc::new(PoisonStore { poison, map: Mutex::new(HashMap::new()) });
        let h = Arc::clone(&handler);
        let connector = Box::new(move || -> Result<Box<dyn Transport>, NetError> {
            Ok(Box::new(InMemoryTransport::new(Arc::clone(&h) as Arc<dyn RequestHandler>)))
        });
        (ResilientTransport::connect(connector, RetryPolicy::fast(2)).unwrap(), handler)
    }

    #[test]
    fn fatal_batch_failure_is_bisected_to_the_poisoned_item() {
        let poison = ObjectKey::metadata(2, [2; 16]);
        let (mut t, handler) = poison_transport(poison);
        let items: Vec<(ObjectKey, Vec<u8>)> =
            (0..8u64).map(|i| (ObjectKey::metadata(i, [i as u8; 16]), vec![i as u8; 8])).collect();
        let err = t.call(&Request::PutMany { items }).unwrap_err();
        assert_eq!(err.class(), ErrorClass::Fatal, "culprit must still surface: {err}");
        // Every healthy item landed despite the poisoned batch-mate.
        let map = handler.map.lock().unwrap();
        assert_eq!(map.len(), 7, "7 of 8 items are healthy");
        for i in 0..8u64 {
            let key = ObjectKey::metadata(i, [i as u8; 16]);
            assert_eq!(map.contains_key(&key), i != 2, "item {i}");
        }
    }

    #[test]
    fn get_many_halves_merge_in_order() {
        let absent_poison = ObjectKey::metadata(99, [9; 16]);
        let (mut t, handler) = poison_transport(absent_poison);
        let keys: Vec<ObjectKey> =
            (0..5u64).map(|i| ObjectKey::metadata(i, [i as u8; 16])).collect();
        {
            let mut map = handler.map.lock().unwrap();
            for (i, k) in keys.iter().enumerate() {
                if i % 2 == 0 {
                    map.insert(*k, vec![i as u8; 4]);
                }
            }
        }
        // Clean path first: no splitting without a fatal error.
        let got = t.call(&Request::GetMany { keys: keys.clone() }).unwrap();
        match got {
            Response::Objects(vs) => {
                assert_eq!(vs.len(), 5);
                for (i, v) in vs.iter().enumerate() {
                    assert_eq!(v.is_some(), i % 2 == 0, "slot {i}");
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
        // With the poison appended, the split still returns an error (the
        // caller must know the batch did not fully resolve)…
        let mut with_poison = keys;
        with_poison.push(absent_poison);
        let err = t.call(&Request::GetMany { keys: with_poison }).unwrap_err();
        assert_eq!(err.class(), ErrorClass::Fatal);
    }

    #[test]
    fn single_item_batches_do_not_split() {
        let poison = ObjectKey::metadata(2, [2; 16]);
        let (mut t, _handler) = poison_transport(poison);
        let err = t.call(&Request::PutMany { items: vec![(poison, vec![1])] }).unwrap_err();
        assert_eq!(err.class(), ErrorClass::Fatal);
        assert_eq!(t.meter().sample().retries, 0, "fatal singles surface without retry");
    }

    #[test]
    fn fake_sleeper_absorbs_real_backoff_policies() {
        // A policy with real (wall-clock-visible) backoff, driven through a
        // recording sleeper: the call path must not actually block, but the
        // virtual time it would have slept must be observable and exact.
        // Shed the first three calls so three backoffs fire.
        struct Flaky(AtomicU64);
        impl RequestHandler for Flaky {
            fn handle(&self, _request: Request) -> Response {
                if self.0.fetch_add(1, Ordering::SeqCst) < 3 {
                    Response::Error("transient: shedding".into())
                } else {
                    Response::Pong
                }
            }
        }
        let flaky = Arc::new(Flaky(AtomicU64::new(0)));
        let connector = Box::new(move || -> Result<Box<dyn Transport>, NetError> {
            Ok(Box::new(InMemoryTransport::new(Arc::clone(&flaky) as Arc<dyn RequestHandler>)))
        });
        let policy = RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 11,
        };
        let sleeper = FakeSleeper::new();
        let slept = sleeper.total_ns();
        let start = std::time::Instant::now();
        let mut t =
            ResilientTransport::connect_with_sleeper(connector, policy.clone(), Box::new(sleeper))
                .unwrap();
        assert_eq!(t.call(&Request::Ping).unwrap(), Response::Pong);
        assert!(
            start.elapsed() < Duration::from_millis(50),
            "fake sleeper must not block for the backoff"
        );
        // Expected virtual sleep: the same jitter stream the transport drew.
        let mut jitter = HmacDrbg::from_seed_u64(policy.jitter_seed);
        let expect: u64 =
            (1..=3u32).map(|n| policy.backoff(n, jitter.next_u64() % 101).as_nanos() as u64).sum();
        assert_eq!(slept.load(Ordering::SeqCst), expect);
        assert_eq!(t.meter().sample().retries, 3);
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
