//! TCP serving loop for the SSP.
//!
//! The front end has two layers (DESIGN.md §14.2):
//!
//! * an **accept loop** that claims a connection-budget slot and starts one
//!   thread per connection;
//! * per-connection **threads** that read a frame, run it through
//!   [`sharoes_net::serve_frame`] (envelope, request, store, enveloped
//!   response) and write the reply, then read the next frame. Execution is
//!   capped process-wide: a request runs only while it holds one of
//!   [`ServeOptions::workers`] permits, released before its reply is
//!   written. An idle connection holds none.
//!
//! Every frame carries an envelope (`sharoes_net::envelope`) with a
//! correlation id, and each reply echoes it. A connection reads its next
//! frame only after it has answered the last one, so one connection's
//! replies come back in request order and TCP flow control back-pressures
//! a client that writes faster than it is served.
//!
//! The SSP must stay up under hostile or flaky clients, so the loop is
//! hardened:
//!
//! * Oversized length prefixes get a connection-level error (correlation
//!   id 0, `Response::Error("frame too large…")`) before the connection
//!   closes, instead of a silent hangup. A frame whose envelope does not
//!   decode gets the same kind of reply; a bad message inside a valid
//!   envelope gets an error under its own id.
//! * Each connection carries a read timeout ([`ServeOptions::read_timeout`])
//!   so wedged or half-open peers cannot pin a thread forever.
//! * Concurrent connections are bounded ([`ServeOptions::max_connections`]);
//!   excess connections are shed with a *transient* connection-level error
//!   so clients back off and retry on a new connection.
//! * The accept loop blocks in `accept` and checks a stop flag after each
//!   connection. [`TcpServerHandle::shutdown`] sets the flag and connects to
//!   the listener to wake it, on the loopback address of its family when it
//!   is bound on `0.0.0.0` or `::`. Shutdown then waits for executing
//!   requests to finish, and no request starts after it returns.

use crate::server::SspServer;
use sharoes_net::envelope::connection_error;
use sharoes_net::transport::{read_frame, write_frame, FRAME_READ_BUF, MAX_FRAME_LEN};
use sharoes_net::{serve_frame, NetError};
use sharoes_obs::{Counter, Gauge};
use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Connection-lifecycle metrics for the serving loop.
struct ConnMetrics {
    accepted: Counter,
    shed: Counter,
    active: Gauge,
    frames_too_large: Counter,
    bad_requests: Counter,
}

fn conn_metrics() -> &'static ConnMetrics {
    static METRICS: OnceLock<ConnMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ConnMetrics {
        accepted: sharoes_obs::counter("ssp_conns_accepted_total"),
        shed: sharoes_obs::counter("ssp_conns_shed_total"),
        active: sharoes_obs::gauge("ssp_conns_active"),
        frames_too_large: sharoes_obs::counter("ssp_frames_too_large_total"),
        bad_requests: sharoes_obs::counter("ssp_bad_requests_total"),
    })
}

/// Serving knobs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Per-connection read timeout; `None` waits forever (discouraged).
    pub read_timeout: Option<Duration>,
    /// Maximum concurrent connections before new ones are shed.
    pub max_connections: usize,
    /// Requests executing at once across all connections; a connection
    /// thread waits for a free permit before it serves a frame. 0 picks an
    /// automatic size (available parallelism clamped to 2..=16).
    pub workers: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            read_timeout: Some(Duration::from_secs(30)),
            max_connections: 256,
            workers: 0,
        }
    }
}

fn resolve_workers(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(2, 16)
}

/// A running TCP server, stoppable and joinable.
pub struct TcpServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    cap: Arc<ExecCap>,
}

impl TcpServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits for the accept loop to exit and for
    /// executing requests to finish.
    ///
    /// Idempotent with [`Drop`]: whichever runs first joins the accept
    /// thread; the other is a no-op.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.accept_thread.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop is parked in `accept`: one connection wakes it,
        // and it then sees the stop flag. An unspecified address is not
        // connectable everywhere, so poke the loopback of its family.
        let mut poke = self.addr;
        if poke.ip().is_unspecified() {
            poke.set_ip(match poke.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Some(t) = self.accept_thread.take() {
            // Retry a poke that times out, until one lands or the loop exits.
            loop {
                let landed = TcpStream::connect_timeout(&poke, Duration::from_millis(50)).is_ok();
                if landed || t.is_finished() {
                    break;
                }
            }
            let _ = t.join();
        }
        // Requests already executing finish; connection threads that read
        // another frame find the cap closed and hang up.
        self.cap.close_and_drain();
    }
}

impl Drop for TcpServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Starts serving `server` on `addr` with default [`ServeOptions`]
/// (use port 0 for an ephemeral port).
pub fn serve(server: Arc<SspServer>, addr: &str) -> Result<TcpServerHandle, NetError> {
    serve_with(server, addr, ServeOptions::default())
}

/// Starts serving `server` on `addr` with explicit [`ServeOptions`].
pub fn serve_with(
    server: Arc<SspServer>,
    addr: &str,
    options: ServeOptions,
) -> Result<TcpServerHandle, NetError> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let live = Arc::new(AtomicUsize::new(0));
    let cap = Arc::new(ExecCap::new(resolve_workers(options.workers)));

    let accept_cap = Arc::clone(&cap);
    let accept_thread = std::thread::Builder::new()
        .name("sspd-accept".into())
        .spawn(move || {
            while !stop2.load(Ordering::SeqCst) {
                let Ok((sock, _)) = listener.accept() else { continue };
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let slot = ConnSlot::claim(&live, options.max_connections);
                let Some(slot) = slot else {
                    conn_metrics().shed.inc();
                    let peer = peer_label(&sock);
                    let reason = "connection budget exhausted";
                    let limit = options.max_connections;
                    sharoes_obs::obs_event!(
                        sharoes_obs::Level::Warn,
                        "ssp.conn_shed",
                        peer,
                        reason,
                        limit
                    );
                    shed_connection(sock);
                    continue;
                };
                conn_metrics().accepted.inc();
                let server = Arc::clone(&server);
                let cap = Arc::clone(&accept_cap);
                let read_timeout = options.read_timeout;
                let _ = std::thread::Builder::new().name("sspd-conn".into()).spawn(move || {
                    serve_connection(&server, &cap, &sock, read_timeout);
                    drop(slot);
                });
            }
        })
        .expect("spawn accept thread");

    Ok(TcpServerHandle { addr: local, stop, accept_thread: Some(accept_thread), cap })
}

/// The process-wide execution cap: a counter of free permits. Closing it
/// refuses every later permit.
struct ExecCap {
    state: Mutex<CapState>,
    freed: Condvar,
}

struct CapState {
    free: usize,
    total: usize,
    /// Threads waiting on `freed`, so a release wakes someone only when
    /// someone is there.
    waiting: usize,
    closed: bool,
}

/// One held permit; released on drop.
struct Permit<'a>(&'a ExecCap);

impl ExecCap {
    fn new(total: usize) -> ExecCap {
        ExecCap {
            state: Mutex::new(CapState { free: total, total, waiting: 0, closed: false }),
            freed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CapState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Waits for a free permit; `None` once the cap is closed.
    fn acquire(&self) -> Option<Permit<'_>> {
        let mut st = self.lock();
        while st.free == 0 && !st.closed {
            st.waiting += 1;
            st = self.freed.wait(st).unwrap_or_else(|e| e.into_inner());
            st.waiting -= 1;
        }
        if st.closed {
            return None;
        }
        st.free -= 1;
        Some(Permit(self))
    }

    /// Refuses every later permit, then waits until the held ones are
    /// back.
    fn close_and_drain(&self) {
        let mut st = self.lock();
        st.closed = true;
        self.freed.notify_all();
        while st.free < st.total {
            st.waiting += 1;
            st = self.freed.wait(st).unwrap_or_else(|e| e.into_inner());
            st.waiting -= 1;
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.free += 1;
        // A closed cap has a drain waiting, which a single wake-up might
        // miss; otherwise one waiting request can take the permit.
        if st.closed {
            self.0.freed.notify_all();
        } else if st.waiting > 0 {
            self.0.freed.notify_one();
        }
    }
}

/// A claimed slot in the connection budget; released on drop.
struct ConnSlot(Arc<AtomicUsize>);

impl ConnSlot {
    fn claim(live: &Arc<AtomicUsize>, max: usize) -> Option<ConnSlot> {
        let prev = live.fetch_add(1, Ordering::SeqCst);
        if prev >= max {
            live.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        conn_metrics().active.add(1);
        Some(ConnSlot(Arc::clone(live)))
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
        conn_metrics().active.sub(1);
    }
}

/// Rejects a connection over the budget. The error is marked transient so
/// clients back off and re-dial instead of failing permanently.
fn shed_connection(mut sock: TcpStream) {
    let reply = connection_error("transient: server at connection capacity".into());
    let _ = write_frame(&mut sock, &reply);
}

/// Best-effort peer address for triage events ("?" when the socket cannot
/// say, e.g. it already reset).
fn peer_label(sock: &TcpStream) -> String {
    sock.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into())
}

/// One connection's thread: reads a frame, serves it under an execution
/// permit, writes the reply, and reads the next, until the peer hangs up,
/// idles past `read_timeout`, or the server shuts down.
fn serve_connection(
    server: &SspServer,
    cap: &ExecCap,
    sock: &TcpStream,
    read_timeout: Option<Duration>,
) {
    let _ = sock.set_nodelay(true);
    let _ = sock.set_read_timeout(read_timeout);
    let mut reader = BufReader::with_capacity(FRAME_READ_BUF, sock);
    let mut writer = sock;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(NetError::FrameTooLarge(n)) => {
                // Tell the client why before hanging up; the stream is no
                // longer framable (the body was never read), so close.
                conn_metrics().frames_too_large.inc();
                let peer = peer_label(sock);
                let bytes = n;
                let limit = MAX_FRAME_LEN;
                sharoes_obs::obs_event!(
                    sharoes_obs::Level::Warn,
                    "ssp.frame_too_large",
                    peer,
                    bytes,
                    limit
                );
                let _ = write_frame(
                    &mut writer,
                    &connection_error(format!("frame too large: {n} bytes")),
                );
                return;
            }
            Err(_) => return, // disconnect or idle timeout
        };
        let reply = {
            let Some(_permit) = cap.acquire() else { return };
            serve_frame(server, &frame, "tcp").unwrap_or_else(|error| {
                conn_metrics().bad_requests.inc();
                error
            })
        };
        if write_frame(&mut writer, &reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharoes_net::{
        Envelope, ErrorClass, ObjectKey, Request, Response, TcpTransport, WireRead, WireWrite,
        CONNECTION_ERROR_ID,
    };
    use std::io::Write;

    /// Reads one response frame off a raw socket: its correlation id and
    /// message.
    fn read_reply(sock: &mut TcpStream) -> (u64, Response) {
        let frame = read_frame(sock).unwrap();
        let (env, message) = Envelope::open(&frame).unwrap();
        (env.corr, Response::from_wire(message).unwrap())
    }

    #[test]
    fn serves_multiple_clients() {
        let server = SspServer::new().into_shared();
        let handle = serve(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let addr = handle.addr().to_string();

        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let transport = TcpTransport::connect(&addr).unwrap();
                    for i in 0..20u32 {
                        let key = ObjectKey::data(t, [t as u8; 16], i);
                        transport.call(&Request::Put { key, value: vec![t as u8; 32] }).unwrap();
                    }
                    let key = ObjectKey::data(t, [t as u8; 16], 7);
                    assert_eq!(
                        transport.call(&Request::Get { key }).unwrap(),
                        Response::Object(Some(vec![t as u8; 32]))
                    );
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.store().object_count(), 80);
        handle.shutdown();
    }

    #[test]
    fn one_client_multiplexes_one_connection() {
        let server = SspServer::new().into_shared();
        let handle = serve(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let client = TcpTransport::connect(&handle.addr().to_string()).unwrap();
        // Many threads share ONE socket; every response must come back to
        // the thread that asked (the value encodes the asker).
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let client = &client;
                scope.spawn(move || {
                    for i in 0..25u32 {
                        let key = ObjectKey::data(t, [t as u8; 16], i);
                        let put = Request::Put { key, value: vec![t as u8; 16] };
                        assert_eq!(client.call(&put).unwrap(), Response::Ok);
                        assert_eq!(
                            client.call(&Request::Get { key }).unwrap(),
                            Response::Object(Some(vec![t as u8; 16])),
                            "response crossed between pipelined requests"
                        );
                    }
                });
            }
        });
        assert_eq!(server.store().object_count(), 200);
        handle.shutdown();
    }

    #[test]
    fn one_permit_still_serves_every_connection() {
        let server = SspServer::new().into_shared();
        let options = ServeOptions { workers: 1, ..ServeOptions::default() };
        let handle = serve_with(Arc::clone(&server), "127.0.0.1:0", options).unwrap();
        let addr = handle.addr().to_string();
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let transport = TcpTransport::connect(&addr).unwrap();
                    for i in 0..10u32 {
                        let key = ObjectKey::data(t, [t as u8; 16], i);
                        transport.call(&Request::Put { key, value: vec![1] }).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.store().object_count(), 40);
        handle.shutdown();
    }

    #[test]
    fn malformed_request_gets_error_response() {
        let server = SspServer::new().into_shared();
        let handle = serve(server, "127.0.0.1:0").unwrap();
        let mut sock = TcpStream::connect(handle.addr()).unwrap();
        // A bad message inside a valid envelope: an error under its own id,
        // and the connection stays open.
        let bad = [Envelope::untraced(5).seal(&Request::Ping), vec![0xFF, 0xFF]].concat();
        write_frame(&mut sock, &bad).unwrap();
        match read_reply(&mut sock) {
            (5, Response::Error(msg)) => assert!(msg.contains("bad request"), "{msg}"),
            other => panic!("expected error under id 5, got {other:?}"),
        }
        write_frame(&mut sock, &Envelope::untraced(6).seal(&Request::Ping)).unwrap();
        assert_eq!(read_reply(&mut sock), (6, Response::Pong));
        // A frame without a valid envelope is never parsed as a bare
        // message: a connection-level error.
        write_frame(&mut sock, &Request::Ping.to_wire()).unwrap();
        match read_reply(&mut sock) {
            (CONNECTION_ERROR_ID, Response::Error(msg)) => {
                assert!(msg.contains("bad request"), "{msg}")
            }
            other => panic!("expected connection-level error, got {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn oversized_frame_gets_error_before_close() {
        let server = SspServer::new().into_shared();
        let handle = serve(server, "127.0.0.1:0").unwrap();
        let mut sock = TcpStream::connect(handle.addr()).unwrap();
        // Claim a frame one byte over the limit; send no body.
        sock.write_all(&((MAX_FRAME_LEN as u32) + 1).to_be_bytes()).unwrap();
        sock.flush().unwrap();
        match read_reply(&mut sock) {
            (CONNECTION_ERROR_ID, Response::Error(msg)) => {
                assert!(msg.contains("frame too large"), "unexpected error: {msg}");
                // Non-transient: a client must not retry this.
                assert_eq!(NetError::Remote(msg).class(), ErrorClass::Fatal);
            }
            other => panic!("expected connection-level error, got {other:?}"),
        }
        // The connection is then closed.
        assert!(read_frame(&mut sock).is_err());
        handle.shutdown();
    }

    #[test]
    fn connection_budget_sheds_excess_with_transient_error() {
        let server = SspServer::new().into_shared();
        let options = ServeOptions { max_connections: 1, ..ServeOptions::default() };
        let handle = serve_with(server, "127.0.0.1:0", options).unwrap();
        let addr = handle.addr().to_string();

        // First client occupies the only slot.
        let first = TcpTransport::connect(&addr).unwrap();
        assert_eq!(first.call(&Request::Ping).unwrap(), Response::Pong);

        // Second client is shed with a transient (retryable) error.
        let mut sock = TcpStream::connect(handle.addr()).unwrap();
        match read_reply(&mut sock) {
            (CONNECTION_ERROR_ID, Response::Error(msg)) => {
                assert_eq!(NetError::Remote(msg).class(), ErrorClass::Retryable);
            }
            other => panic!("expected shed error, got {other:?}"),
        }

        // Releasing the first slot lets a new client in (the conn thread
        // needs a moment to notice the hangup and free the slot).
        drop(first);
        let mut ok = false;
        for _ in 0..100 {
            let t = TcpTransport::connect(&addr).unwrap();
            if matches!(t.call(&Request::Ping), Ok(Response::Pong)) {
                ok = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(ok, "slot never freed after first client disconnected");
        handle.shutdown();
    }

    #[test]
    fn shed_client_sees_the_servers_reason() {
        let server = SspServer::new().into_shared();
        let options = ServeOptions { max_connections: 1, ..ServeOptions::default() };
        let handle = serve_with(server, "127.0.0.1:0", options).unwrap();
        let addr = handle.addr().to_string();
        let first = TcpTransport::connect(&addr).unwrap();
        assert_eq!(first.call(&Request::Ping).unwrap(), Response::Pong);

        let shed = TcpTransport::connect(&addr).unwrap();
        let err = shed.call(&Request::Ping).unwrap_err();
        assert_eq!(err.class(), ErrorClass::Retryable, "{err}");
        assert!(err.to_string().contains("connection capacity"), "reason lost: {err}");
        handle.shutdown();
    }

    #[test]
    fn idle_connections_time_out() {
        let server = SspServer::new().into_shared();
        let options = ServeOptions {
            read_timeout: Some(Duration::from_millis(50)),
            ..ServeOptions::default()
        };
        let handle = serve_with(server, "127.0.0.1:0", options).unwrap();
        let mut sock = TcpStream::connect(handle.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Send nothing; the server must hang up on us, not wait forever.
        let mut buf = [0u8; 1];
        let n = std::io::Read::read(&mut sock, &mut buf).unwrap_or(0);
        assert_eq!(n, 0, "expected EOF from server-side idle timeout");
        handle.shutdown();
    }

    #[test]
    fn shutdown_stops_accepting() {
        let server = SspServer::new().into_shared();
        let handle = serve(server, "127.0.0.1:0").unwrap();
        let addr = handle.addr();
        handle.shutdown();
        // After shutdown new connections are refused or immediately closed.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut sock) => {
                let _ = write_frame(&mut sock, &Envelope::untraced(1).seal(&Request::Ping));
                assert!(read_frame(&mut sock).is_err());
            }
        }
    }

    #[test]
    fn shutdown_terminates_even_when_bound_on_all_interfaces() {
        // `0.0.0.0:port` is not a connectable address on every platform;
        // shutdown must wake the blocking accept through 127.0.0.1.
        let server = SspServer::new().into_shared();
        let handle = serve(server, "0.0.0.0:0").unwrap();
        let start = std::time::Instant::now();
        handle.shutdown();
        assert!(start.elapsed() < Duration::from_secs(2), "shutdown hung");
    }

    #[test]
    fn drop_after_shutdown_is_idempotent() {
        let server = SspServer::new().into_shared();
        let mut handle = serve(server, "127.0.0.1:0").unwrap();
        handle.stop_and_join();
        handle.stop_and_join(); // second call is a no-op
        drop(handle); // Drop after explicit stop must not hang or panic
    }
}
