//! Property tests for `TcpTransport`'s reply matching and re-dials, over a
//! scripted `Connector`: each connection is a recording `FrameSink` plus a
//! scripted `FrameSource`, so the properties pin the protocol logic with
//! no socket in the loop.
//!
//! Every attempt's script is an arbitrary run of frames under other ids
//! and early `Idle`s, then one ending: the caller's own reply, a
//! `transient…` error reply, no reply at all (the attempt times out), a
//! lost connection, or a refusal. The checks:
//!
//! * each call returns its own payload or a typed error that matches how
//!   its last attempt ended, never another id's payload;
//! * the orphan count rises by exactly the other-id frames read;
//! * a lost or refused connection (or two timeouts in a row within one
//!   call) costs exactly one re-dial, and every other attempt stays on
//!   its connection;
//! * ids start at 1 on each connection and rise by one per attempt.
//!
//! The envelope that carries the correlation id is property-tested with
//! the rest of the wire codec in `prop_wire.rs`.

use sharoes_net::{
    Connection, Connector, CostMeter, Envelope, ErrorClass, FakeSleeper, FrameSink, FrameSource,
    Inbound, NetError, Request, Response, RetryPolicy, TcpTransport, Transport,
    TRANSIENT_ERROR_PREFIX,
};
use sharoes_testkit::prelude::*;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Attempts per call.
const ATTEMPTS: u32 = 3;

/// How long an attempt waits for its reply. It is spent only by attempts
/// whose script ends without one.
const TIMEOUT: Duration = Duration::from_millis(15);

/// What a scripted connection yields before an attempt's ending.
#[derive(Clone, Debug)]
enum Pre {
    /// A reply frame under the attempt's id plus `delta` (never 0).
    Other(i64),
    /// An early `Idle`: the caller reads again.
    Idle,
}

/// How an attempt's script ends.
#[derive(Clone, Debug, PartialEq)]
enum End {
    /// The caller's own reply.
    Own,
    /// A `transient…` error reply under the caller's id.
    Shed,
    /// Nothing more: the reader idles until the deadline.
    Silent,
    /// The connection is lost.
    Lost,
    /// The server refuses the connection with this reason.
    Refused(String),
}

#[derive(Clone, Debug)]
struct Plan {
    pre: Vec<Pre>,
    end: End,
}

/// How an attempt actually ended, as the scripted source saw it: the last
/// thing the caller read.
#[derive(Clone, Debug, PartialEq)]
enum Ending {
    Own,
    Shed,
    Lost,
    Refused(String),
    /// An early `Idle`, a frame under another id, or the deadline: the
    /// attempt timed out.
    TimedOut,
}

/// One attempt, as the sink and source recorded it.
#[derive(Clone, Debug)]
struct Attempt {
    conn: usize,
    id: u64,
    call: usize,
    ending: Ending,
}

/// What every connection of one transport shares with the test.
#[derive(Default)]
struct Shared {
    /// Scripts for the attempts still to come; a missing one is `Own`.
    plans: VecDeque<Plan>,
    /// The steps left of the attempt being read.
    steps: VecDeque<Result<Pre, End>>,
    attempts: Vec<Attempt>,
    /// Frames under another id handed to the caller.
    others_read: u64,
    /// The call in progress, set by the test.
    call: usize,
    dials: usize,
}

type State = Arc<Mutex<Shared>>;

fn lock(state: &State) -> MutexGuard<'_, Shared> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// The payload of the reply to attempt `id` of call `call`.
fn own(call: usize, id: u64) -> Vec<u8> {
    [&b"own"[..], &(call as u64).to_be_bytes(), &id.to_be_bytes()].concat()
}

fn reply(id: u64, response: &Response) -> Inbound {
    Inbound::Reply { corr: id, frame: Envelope::untraced(id).seal(response) }
}

struct Sink {
    state: State,
    conn: usize,
}

impl FrameSink for Sink {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let (env, _) = Envelope::open(frame)?;
        let mut s = lock(&self.state);
        let plan = s.plans.pop_front().unwrap_or(Plan { pre: Vec::new(), end: End::Own });
        s.steps = plan.pre.into_iter().map(Ok).chain([Err(plan.end)]).collect();
        let call = s.call;
        s.attempts.push(Attempt { conn: self.conn, id: env.corr, call, ending: Ending::TimedOut });
        Ok(())
    }
}

struct Source {
    state: State,
}

impl FrameSource for Source {
    fn next_frame(&mut self, deadline: Instant) -> Inbound {
        let mut s = lock(&self.state);
        let attempt = s.attempts.last().expect("a frame was sent").clone();
        let step = s.steps.pop_front().unwrap_or(Err(End::Silent));
        let (ending, inbound) = match step {
            Ok(Pre::Other(delta)) => {
                s.others_read += 1;
                // Another id, never 0 (a connection-level reply).
                let corr = attempt.id.checked_add_signed(delta).filter(|&c| c != 0);
                let corr = corr.unwrap_or(attempt.id + delta.unsigned_abs());
                let foreign = Response::Object(Some(b"foreign".to_vec()));
                (Ending::TimedOut, reply(corr, &foreign))
            }
            Ok(Pre::Idle) => (Ending::TimedOut, Inbound::Idle),
            Err(End::Own) => (
                Ending::Own,
                reply(attempt.id, &Response::Object(Some(own(attempt.call, attempt.id)))),
            ),
            Err(End::Shed) => {
                let shed = Response::Error(format!("{TRANSIENT_ERROR_PREFIX}: scripted shed"));
                (Ending::Shed, reply(attempt.id, &shed))
            }
            Err(End::Silent) => {
                drop(s);
                std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                s = lock(&self.state);
                (Ending::TimedOut, Inbound::Idle)
            }
            Err(End::Lost) => (Ending::Lost, Inbound::Lost("scripted loss".into())),
            Err(End::Refused(reason)) => {
                (Ending::Refused(reason.clone()), Inbound::Refused(reason))
            }
        };
        s.attempts.last_mut().expect("a frame was sent").ending = ending;
        inbound
    }
}

/// A transport over scripted connections sharing `state`.
fn scripted(state: &State, timeout: Duration) -> (TcpTransport, Arc<CostMeter>) {
    let dial_state = Arc::clone(state);
    let connector: Connector = Box::new(move || {
        let conn = {
            let mut s = lock(&dial_state);
            s.dials += 1;
            s.dials
        };
        let sink = Sink { state: Arc::clone(&dial_state), conn };
        let source = Source { state: Arc::clone(&dial_state) };
        let conn: Connection = (Box::new(sink), Box::new(source));
        Ok(conn)
    });
    let meter = CostMeter::new_shared();
    let t = TcpTransport::with_connector(
        connector,
        timeout,
        RetryPolicy::fast(ATTEMPTS),
        Box::new(FakeSleeper::new()),
        Arc::clone(&meter),
    )
    .expect("the first dial succeeds");
    (t, meter)
}

/// The process-wide orphan count; only the property below reads frames
/// under other ids, so no other test in this file moves it.
fn orphans() -> u64 {
    sharoes_obs::global().counter("net_corr_orphans_total").get()
}

fn plans() -> Gen<Vec<Plan>> {
    Gen::from_fn(|t| {
        let n = t.usize_in(1, 12);
        let mut plans = Vec::with_capacity(n);
        for _ in 0..n {
            let pre = (0..t.usize_in(0, 4))
                .map(|_| match t.u8() % 3 {
                    0 => Pre::Idle,
                    _ => {
                        let delta = 1 + (t.u8() % 4) as i64;
                        Pre::Other(if t.bool() { delta } else { -delta })
                    }
                })
                .collect();
            let end = match t.u8() % 10 {
                0 => End::Silent,
                1 => End::Shed,
                2 => End::Lost,
                3 => End::Refused(format!("{TRANSIENT_ERROR_PREFIX}: over connection capacity")),
                4 => End::Refused("bad request: torn envelope".into()),
                _ => End::Own,
            };
            plans.push(Plan { pre, end });
        }
        Ok(plans)
    })
}

/// Whether `result` is what an attempt ending in `ending` returns for
/// call `call` (whose last attempt had id `id`).
fn matches_ending(
    result: &Result<Response, NetError>,
    ending: &Ending,
    call: usize,
    id: u64,
) -> bool {
    match (ending, result) {
        (Ending::Own, Ok(Response::Object(Some(payload)))) => *payload == own(call, id),
        (Ending::Shed, Err(NetError::Remote(m))) => m.starts_with(TRANSIENT_ERROR_PREFIX),
        (Ending::Lost, Err(NetError::Io(e))) => {
            e.kind() == ErrorKind::BrokenPipe && e.to_string().contains("scripted loss")
        }
        (Ending::Refused(reason), Err(NetError::Remote(m))) => m == reason,
        (Ending::TimedOut, Err(NetError::Io(e))) => e.kind() == ErrorKind::TimedOut,
        _ => false,
    }
}

fn retryable(ending: &Ending) -> bool {
    match ending {
        Ending::Own => false,
        Ending::Refused(reason) => reason.starts_with(TRANSIENT_ERROR_PREFIX),
        Ending::Shed | Ending::Lost | Ending::TimedOut => true,
    }
}

sharoes_testkit::prop! {
    #![cases(48)]

    fn each_call_gets_its_own_reply_or_a_typed_error(
        plans in plans(),
        calls in gen::in_range(1usize..5),
    ) {
        let state: State = Arc::default();
        lock(&state).plans = plans.into_iter().collect();
        let (mut t, meter) = scripted(&state, TIMEOUT);
        let orphans_before = orphans();

        for call in 0..calls {
            lock(&state).call = call;
            let result = t.call(&Request::Ping);
            let s = lock(&state);
            let mine: Vec<&Attempt> = s.attempts.iter().filter(|a| a.call == call).collect();
            let last = *mine.last().expect("every call makes an attempt");
            prop_assert!(
                matches_ending(&result, &last.ending, call, last.id),
                "call {call} returned {result:?} after its last attempt ended {:?}",
                last.ending
            );
            if let Ok(response) = &result {
                prop_assert_eq!(response, &Response::Object(Some(own(call, last.id))));
            }
            // Every attempt but the last failed retryably; the last one is
            // retried no further only if it succeeded, failed for good, or
            // used up the attempts.
            for attempt in &mine[..mine.len() - 1] {
                prop_assert!(retryable(&attempt.ending), "retried after {:?}", attempt.ending);
            }
            if retryable(&last.ending) {
                prop_assert_eq!(mine.len(), ATTEMPTS as usize);
            }
            if let Err(e) = &result {
                prop_assert_eq!(e.class() == ErrorClass::Retryable, retryable(&last.ending));
            }
        }

        let s = lock(&state);
        prop_assert_eq!(orphans() - orphans_before, s.others_read);
        // Replay the attempts: a lost or refused connection, or a second
        // timeout in a row within one call, is followed by exactly one new
        // connection; every other attempt stays on the one it used.
        let mut redials = 0u64;
        let mut stalled = false;
        let mut expect_id = 1;
        for (prev, next) in s.attempts.iter().zip(s.attempts.iter().skip(1).map(Some).chain([None])) {
            prop_assert_eq!(prev.id, expect_id, "ids rise by one per attempt on a connection");
            let dropped = match &prev.ending {
                Ending::Lost | Ending::Refused(_) => true,
                Ending::TimedOut => std::mem::replace(&mut stalled, true),
                Ending::Own | Ending::Shed => {
                    stalled = false;
                    false
                }
            };
            let Some(next) = next else { break };
            if next.call != prev.call {
                stalled = false;
            }
            if dropped {
                prop_assert_eq!(next.conn, prev.conn + 1, "a dropped connection is re-dialled");
                redials += 1;
                stalled = false;
                expect_id = 1;
            } else {
                prop_assert_eq!(next.conn, prev.conn, "a live connection is kept");
                expect_id += 1;
            }
        }
        prop_assert_eq!(meter.sample().reconnects, redials);
        prop_assert_eq!(s.dials as u64, 1 + redials);
        let answered = s.attempts.iter().filter(|a| matches!(a.ending, Ending::Own | Ending::Shed));
        prop_assert_eq!(meter.sample().round_trips, answered.count() as u64);
    }
}

#[test]
fn a_reply_at_hand_is_read_past_the_deadline() {
    // With no time to wait at all, the reply already queued is still read
    // and returned, not timed out.
    let state: State = Arc::default();
    let (mut t, _) = scripted(&state, Duration::ZERO);
    assert_eq!(t.call(&Request::Ping).unwrap(), Response::Object(Some(own(0, 1))));
}

#[test]
fn a_refusal_fails_the_call_with_the_servers_reason_and_the_next_call_redials() {
    let state: State = Arc::default();
    let reason = "frame too large: 99 bytes".to_string();
    lock(&state).plans =
        [Plan { pre: Vec::new(), end: End::Refused(reason.clone()) }].into_iter().collect();
    let (mut t, meter) = scripted(&state, TIMEOUT);
    let err = t.call(&Request::Ping).unwrap_err();
    assert!(matches!(&err, NetError::Remote(m) if *m == reason), "{err}");
    assert_eq!(err.class(), ErrorClass::Fatal);
    lock(&state).call = 1;
    assert_eq!(t.call(&Request::Ping).unwrap(), Response::Object(Some(own(1, 1))));
    let s = meter.sample();
    assert_eq!((s.retries, s.reconnects, s.round_trips), (0, 1, 1));
}
