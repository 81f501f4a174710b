//! Correlation bookkeeping for pipelined connections: many in-flight
//! requests on one connection, matched back to their callers by the
//! envelope's correlation id (see [`crate::envelope`]).
//!
//! A connection is not FIFO: the client keeps writing frames while earlier
//! ones execute, and the server's worker pool may finish them out of
//! order. [`CorrDispatcher`] is the socket-free half of
//! [`crate::TcpTransport`]: it hands out ids, parks waiters and routes
//! completions. It is property-tested in isolation so the "never
//! cross-match payloads" invariant does not depend on socket timing.

use crate::error::NetError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One registered in-flight slot: `None` until completed.
type Slot = Option<Result<Vec<u8>, String>>;

/// Why a connection can no longer complete requests.
#[derive(Clone)]
enum Death {
    /// Lost on this side (socket error, undecodable frame, client
    /// dropped): a retryable I/O error, so the resilient layer reconnects.
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

struct DispatchState {
    /// In-flight slots keyed by correlation id.
    slots: HashMap<u64, Slot>,
    /// Set once the connection is unrecoverable; every present and future
    /// waiter fails with it.
    dead: Option<Death>,
}

/// Correlation bookkeeping for one pipelined connection.
///
/// Socket-free on purpose: completions can arrive in any order (the server
/// worker pool does not promise FIFO), slots can be abandoned (a waiter
/// timing out), and the whole dispatcher can be failed at once (connection
/// loss). Each delivered payload reaches exactly the waiter that
/// registered its id — never another.
pub struct CorrDispatcher {
    next_id: AtomicU64,
    state: Mutex<DispatchState>,
    cv: Condvar,
}

/// How many orphaned completions (response for an id nobody waits on —
/// e.g. a timed-out caller's late reply) arrived, process-wide.
fn orphan_counter() -> sharoes_obs::Counter {
    sharoes_obs::global().counter("net_corr_orphans_total")
}

impl Default for CorrDispatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl CorrDispatcher {
    /// An empty dispatcher; ids start at 1 (0 is
    /// [`crate::envelope::CONNECTION_ERROR_ID`]).
    pub fn new() -> Self {
        CorrDispatcher {
            next_id: AtomicU64::new(1),
            state: Mutex::new(DispatchState { slots: HashMap::new(), dead: None }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, DispatchState> {
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

    /// Delivers the outcome for `id`, waking its waiter. A completion for
    /// an unknown id (waiter timed out and deregistered) is counted and
    /// dropped, never delivered elsewhere.
    pub fn complete(&self, id: u64, outcome: Result<Vec<u8>, String>) {
        let mut st = self.lock();
        match st.slots.get_mut(&id) {
            Some(slot) => {
                *slot = Some(outcome);
                self.cv.notify_all();
            }
            None => orphan_counter().inc(),
        }
    }

    /// Marks the connection lost: every current and future waiter gets a
    /// retryable error carrying `why`.
    pub fn fail_all(&self, why: &str) {
        self.die(Death::Lost(why.to_string()));
    }

    /// Marks the connection refused by the server: every current and
    /// future waiter gets [`NetError::Remote`] with the server's `reason`.
    pub fn refuse_all(&self, reason: String) {
        self.die(Death::Refused(reason));
    }

    /// The first death wins: later ones describe its aftermath.
    fn die(&self, death: Death) {
        let mut st = self.lock();
        if st.dead.is_none() {
            st.dead = Some(death);
        }
        self.cv.notify_all();
    }

    /// Blocks until the outcome for `id` arrives, the connection dies, or
    /// `timeout` elapses. The slot is always deregistered on return, so a
    /// late completion after a timeout becomes an orphan, not a
    /// cross-match.
    pub fn wait(&self, id: u64, timeout: Duration) -> Result<Vec<u8>, NetError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        loop {
            match st.slots.get(&id) {
                Some(Some(_)) => {
                    let outcome = st.slots.remove(&id).flatten().expect("checked above");
                    return outcome.map_err(NetError::Remote);
                }
                Some(None) => {}
                None => return Err(NetError::Codec("correlation id waited on twice")),
            }
            if let Some(death) = &st.dead {
                let err = death.error();
                st.slots.remove(&id);
                return Err(err);
            }
            let now = Instant::now();
            if now >= deadline {
                st.slots.remove(&id);
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("call {id} timed out"),
                )));
            }
            let (g, _) =
                self.cv.wait_timeout(st, deadline - now).unwrap_or_else(|e| e.into_inner());
            st = g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn dispatcher_routes_by_id() {
        let d = CorrDispatcher::new();
        let a = d.register().unwrap();
        let b = d.register().unwrap();
        assert_ne!(a, b);
        // Complete in reverse order; each waiter still gets its own bytes.
        d.complete(b, Ok(vec![2]));
        d.complete(a, Ok(vec![1]));
        assert_eq!(d.wait(a, Duration::from_secs(1)).unwrap(), vec![1]);
        assert_eq!(d.wait(b, Duration::from_secs(1)).unwrap(), vec![2]);
    }

    #[test]
    fn timeout_deregisters_and_late_reply_is_orphaned() {
        let d = CorrDispatcher::new();
        let id = d.register().unwrap();
        let err = d.wait(id, Duration::from_millis(10)).unwrap_err();
        assert_eq!(err.class(), crate::ErrorClass::Retryable);
        // The late completion must not be deliverable to anyone.
        d.complete(id, Ok(vec![9]));
        assert!(d.wait(id, Duration::from_millis(10)).is_err());
    }

    #[test]
    fn refusal_fails_waiters_with_the_servers_reason() {
        let d = CorrDispatcher::new();
        let id = d.register().unwrap();
        d.refuse_all("frame too large: 99 bytes".into());
        let err = d.wait(id, Duration::from_secs(1)).unwrap_err();
        assert!(matches!(&err, NetError::Remote(m) if m == "frame too large: 99 bytes"), "{err}");
        assert_eq!(err.class(), crate::ErrorClass::Fatal);
        let err = d.register().unwrap_err();
        assert!(matches!(err, NetError::Remote(_)), "{err}");
    }

    #[test]
    fn fail_all_wakes_waiters_with_retryable_error() {
        let d = Arc::new(CorrDispatcher::new());
        let id = d.register().unwrap();
        let d2 = Arc::clone(&d);
        let waiter = std::thread::spawn(move || d2.wait(id, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        d.fail_all("socket torn");
        let err = waiter.join().unwrap().unwrap_err();
        assert_eq!(err.class(), crate::ErrorClass::Retryable);
        assert!(err.to_string().contains("socket torn"));
        // Dead dispatchers refuse new registrations.
        assert!(d.register().is_err());
    }
}
