//! Correlation bookkeeping for pipelined connections: many in-flight
//! requests on one connection, matched back to their callers by the
//! envelope's correlation id (see [`crate::envelope`]).
//!
//! There is no reader thread. A caller waiting on its id reads the
//! connection itself when no other caller is reading, routes every frame
//! it reads to that frame's slot, and hands the reader role on once its
//! own reply has arrived, its deadline has passed, or the connection has
//! died. Other concurrent callers park until their reply is routed to them
//! or the role is handed to them. A lone caller therefore writes its frame,
//! reads its own reply and returns: one thread wake-up per round trip.
//!
//! [`CorrDispatcher`] is the socket-free half of [`crate::TcpTransport`]:
//! it hands out ids, holds the connection's read half ([`FrameSource`])
//! while nobody reads it, parks waiters and routes frames. It is
//! property-tested in isolation over scripted sources, so the "never
//! cross-match payloads" invariant does not depend on socket timing.

use crate::error::NetError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What one read of a connection produced.
#[derive(Debug)]
pub enum Inbound {
    /// A whole reply frame answering correlation id `corr`.
    Reply {
        /// The id the frame's envelope carries.
        corr: u64,
        /// The frame body, envelope included.
        frame: Vec<u8>,
    },
    /// No frame began before the deadline; the connection is still
    /// framable.
    Idle,
    /// The server ended the connection with a connection-level error: its
    /// message.
    Refused(String),
    /// The connection can no longer be read (closed, an I/O error, a
    /// timeout partway through a frame, an undecodable frame): why.
    Lost(String),
}

/// The read half of one connection, held by whichever waiter is reading.
pub trait FrameSource: Send {
    /// Reads the next frame, returning [`Inbound::Idle`] if none has begun
    /// by `deadline`. It may also return `Idle` earlier; the reader then
    /// reads again.
    fn next_frame(&mut self, deadline: Instant) -> Inbound;
}

impl<S: FrameSource + ?Sized> FrameSource for Box<S> {
    fn next_frame(&mut self, deadline: Instant) -> Inbound {
        (**self).next_frame(deadline)
    }
}

/// Why a connection can no longer complete requests.
#[derive(Clone)]
enum Death {
    /// Lost on this side (socket error, undecodable frame, a failed
    /// write): a retryable I/O error, so the transport re-dials.
    Lost(String),
    /// Ended by the server with a connection-level error: its message,
    /// classified like any server error (`transient…` is retryable).
    Refused(String),
}

impl Death {
    fn error(&self) -> NetError {
        match self {
            Death::Lost(why) => NetError::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                format!("connection lost: {why}"),
            )),
            Death::Refused(reason) => NetError::Remote(reason.clone()),
        }
    }
}

struct DispatchState<S> {
    /// In-flight slots keyed by correlation id: `None` until the reply
    /// arrives.
    slots: HashMap<u64, Option<Vec<u8>>>,
    /// Set once the connection is unrecoverable; every present and future
    /// waiter fails with it.
    dead: Option<Death>,
    /// The connection's read half; `None` while a waiter is reading it.
    source: Option<S>,
    /// Waiters parked on the condvar, so a reader wakes them only when
    /// someone is there.
    parked: usize,
}

/// Correlation bookkeeping for one pipelined connection.
///
/// Socket-free on purpose: replies can arrive in any order, slots can be
/// abandoned (a waiter timing out), and the whole dispatcher can be failed
/// at once (connection loss). Each frame read reaches exactly the waiter
/// that registered its id, never another, and at most one waiter reads the
/// source at a time.
pub struct CorrDispatcher<S> {
    next_id: AtomicU64,
    state: Mutex<DispatchState<S>>,
    cv: Condvar,
}

/// How many orphaned replies (a reply for an id nobody waits on, e.g. a
/// timed-out caller's late reply) arrived, process-wide.
fn orphan_counter() -> sharoes_obs::Counter {
    sharoes_obs::global().counter("net_corr_orphans_total")
}

impl<S: FrameSource> CorrDispatcher<S> {
    /// A dispatcher reading replies from `source`; ids start at 1 (0 is
    /// [`crate::envelope::CONNECTION_ERROR_ID`]).
    pub fn new(source: S) -> Self {
        CorrDispatcher {
            next_id: AtomicU64::new(1),
            state: Mutex::new(DispatchState {
                slots: HashMap::new(),
                dead: None,
                source: Some(source),
                parked: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, DispatchState<S>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a fresh in-flight slot and returns its correlation id.
    ///
    /// Fails if the connection already died — no point queueing work that
    /// can never complete.
    pub fn register(&self) -> Result<u64, NetError> {
        let mut st = self.lock();
        if let Some(death) = &st.dead {
            return Err(death.error());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        st.slots.insert(id, None);
        Ok(id)
    }

    /// Marks the connection lost: every current and future waiter gets a
    /// retryable error carrying `why`.
    pub fn fail_all(&self, why: &str) {
        let mut st = self.lock();
        self.die(&mut st, Death::Lost(why.to_string()));
    }

    /// The first death wins: later ones describe its aftermath.
    fn die(&self, st: &mut DispatchState<S>, death: Death) {
        if st.dead.is_none() {
            st.dead = Some(death);
        }
        self.cv.notify_all();
    }

    /// Blocks until the reply for `id` arrives, the connection dies, or
    /// `timeout` elapses, reading the source itself while no other waiter
    /// does. The slot is always deregistered on return, so a late reply
    /// after a timeout becomes an orphan, not a cross-match.
    pub fn wait(&self, id: u64, timeout: Duration) -> Result<Vec<u8>, NetError> {
        let deadline = Instant::now() + timeout;
        // A waiter given any time reads a free source at least once before
        // it times out, so a reply already at hand is not lost to a late
        // wake-up.
        let mut read_once = timeout.is_zero();
        let mut st = self.lock();
        let outcome = loop {
            match st.slots.get_mut(&id) {
                Some(slot) => {
                    if let Some(frame) = slot.take() {
                        break Ok(frame);
                    }
                }
                None => return Err(NetError::Codec("correlation id waited on twice")),
            }
            if let Some(death) = &st.dead {
                break Err(death.error());
            }
            let now = Instant::now();
            if now >= deadline && (read_once || st.source.is_none()) {
                break Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("call {id} timed out"),
                )));
            }
            if let Some(mut source) = st.source.take() {
                read_once = true;
                drop(st);
                let inbound = source.next_frame(deadline);
                st = self.lock();
                st.source = Some(source);
                self.route(&mut st, id, inbound);
            } else {
                st.parked += 1;
                st = self.cv.wait_timeout(st, deadline - now).unwrap_or_else(|e| e.into_inner()).0;
                st.parked -= 1;
            }
        };
        st.slots.remove(&id);
        // Hand the reader role on: a parked waiter may be left with no one
        // reading for it.
        if st.parked > 0 && st.source.is_some() {
            self.cv.notify_all();
        }
        outcome
    }

    /// Applies what the reading waiter `reader` just read.
    fn route(&self, st: &mut DispatchState<S>, reader: u64, inbound: Inbound) {
        match inbound {
            Inbound::Reply { corr, frame } => match st.slots.get_mut(&corr) {
                Some(slot) => {
                    *slot = Some(frame);
                    if corr != reader && st.parked > 0 {
                        self.cv.notify_all();
                    }
                }
                None => orphan_counter().inc(),
            },
            Inbound::Idle => {}
            Inbound::Refused(reason) => self.die(st, Death::Refused(reason)),
            Inbound::Lost(why) => self.die(st, Death::Lost(why)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// A source replaying a fixed list; once it runs out it idles until the
    /// deadline.
    struct Script(VecDeque<Inbound>);

    impl FrameSource for Script {
        fn next_frame(&mut self, deadline: Instant) -> Inbound {
            self.0.pop_front().unwrap_or_else(|| {
                std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                Inbound::Idle
            })
        }
    }

    fn reply(corr: u64, byte: u8) -> Inbound {
        Inbound::Reply { corr, frame: vec![byte] }
    }

    #[test]
    fn dispatcher_routes_by_id() {
        // Replies arrive in reverse order; each waiter still gets its own
        // bytes, the first one read by the first waiter on the second's
        // behalf.
        let d = CorrDispatcher::new(Script(VecDeque::from([reply(2, 2), reply(1, 1)])));
        let a = d.register().unwrap();
        let b = d.register().unwrap();
        assert_eq!((a, b), (1, 2));
        assert_eq!(d.wait(a, Duration::from_secs(1)).unwrap(), vec![1]);
        assert_eq!(d.wait(b, Duration::from_secs(1)).unwrap(), vec![2]);
    }

    #[test]
    fn a_reply_at_hand_is_delivered_past_the_deadline() {
        // A 1 ns timeout has expired by the time the waiter looks; the
        // queued reply is still read and delivered, not timed out.
        let d = CorrDispatcher::new(Script(VecDeque::from([reply(1, 7)])));
        let id = d.register().unwrap();
        assert_eq!(d.wait(id, Duration::from_nanos(1)).unwrap(), vec![7]);
    }

    #[test]
    fn timeout_deregisters_and_late_reply_is_orphaned() {
        let d = CorrDispatcher::new(Script(VecDeque::new()));
        let id = d.register().unwrap();
        let err = d.wait(id, Duration::from_millis(10)).unwrap_err();
        assert_eq!(err.class(), crate::ErrorClass::Retryable);
        // The late reply must not be deliverable to anyone.
        d.lock().source = Some(Script(VecDeque::from([reply(id, 9)])));
        let fresh = d.register().unwrap();
        let err = d.wait(fresh, Duration::from_millis(10)).unwrap_err();
        assert_eq!(err.class(), crate::ErrorClass::Retryable);
        assert!(d.wait(id, Duration::from_millis(10)).is_err());
    }

    #[test]
    fn refusal_fails_waiters_with_the_servers_reason() {
        let refused = Inbound::Refused("frame too large: 99 bytes".into());
        let d = CorrDispatcher::new(Script(VecDeque::from([refused])));
        let id = d.register().unwrap();
        let err = d.wait(id, Duration::from_secs(1)).unwrap_err();
        assert!(matches!(&err, NetError::Remote(m) if m == "frame too large: 99 bytes"), "{err}");
        assert_eq!(err.class(), crate::ErrorClass::Fatal);
        let err = d.register().unwrap_err();
        assert!(matches!(err, NetError::Remote(_)), "{err}");
    }

    #[test]
    fn fail_all_wakes_waiters_with_retryable_error() {
        let d = Arc::new(CorrDispatcher::new(Script(VecDeque::new())));
        let id = d.register().unwrap();
        let d2 = Arc::clone(&d);
        // The waiter reads (and idles) until its deadline; `fail_all`
        // lands meanwhile and is seen when the read returns.
        let waiter = std::thread::spawn(move || d2.wait(id, Duration::from_millis(200)));
        std::thread::sleep(Duration::from_millis(20));
        d.fail_all("socket torn");
        let err = waiter.join().unwrap().unwrap_err();
        assert_eq!(err.class(), crate::ErrorClass::Retryable);
        assert!(err.to_string().contains("socket torn"), "{err}");
        // Dead dispatchers refuse new registrations.
        assert!(d.register().is_err());
    }
}
