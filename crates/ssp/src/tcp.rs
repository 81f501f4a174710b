//! TCP serving loop for the SSP.
//!
//! The front end is split into three layers (DESIGN.md §14):
//!
//! * an **accept loop** that claims a connection-budget slot and starts a
//!   thin reader per connection;
//! * per-connection **readers** that do nothing but read frames and apply
//!   the in-flight admission cap, then enqueue the frame;
//! * a **bounded worker pool** ([`ServeOptions::workers`]) that runs each
//!   frame through [`sharoes_net::serve_frame`] (envelope, request, store,
//!   enveloped response) and writes the response back — so request
//!   execution concurrency is capped by the pool, not by the client count.
//!
//! Every frame carries an envelope (`sharoes_net::envelope`) with a
//! correlation id. A connection may keep up to `PIPELINE_DEPTH` requests in
//! flight; responses echo the id and may complete out of order.
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
//!   so resilient clients back off and retry.
//! * The accept loop polls a stop flag on a nonblocking listener, so
//!   [`TcpServerHandle::shutdown`] never hangs waiting for one more
//!   connection — even when the listener is bound on `0.0.0.0` and the
//!   loopback "poke" cannot reach it.

use crate::server::SspServer;
use sharoes_net::envelope::connection_error;
use sharoes_net::transport::{read_frame, write_frame, MAX_FRAME_LEN};
use sharoes_net::{serve_frame, NetError};
use sharoes_obs::{Counter, Gauge};
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Connection-lifecycle metrics for the serving loop.
struct ConnMetrics {
    accepted: Counter,
    shed: Counter,
    active: Gauge,
    frames_too_large: Counter,
    bad_requests: Counter,
    queued: Counter,
}

fn conn_metrics() -> &'static ConnMetrics {
    static METRICS: OnceLock<ConnMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ConnMetrics {
        accepted: sharoes_obs::counter("ssp_conns_accepted_total"),
        shed: sharoes_obs::counter("ssp_conns_shed_total"),
        active: sharoes_obs::gauge("ssp_conns_active"),
        frames_too_large: sharoes_obs::counter("ssp_frames_too_large_total"),
        bad_requests: sharoes_obs::counter("ssp_bad_requests_total"),
        queued: sharoes_obs::counter("ssp_requests_queued_total"),
    })
}

/// How often the accept loop re-checks the stop flag while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Maximum requests in flight on one connection; the reader stops reading
/// until a response frees a slot.
const PIPELINE_DEPTH: usize = 32;

/// Serving knobs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Per-connection read timeout; `None` waits forever (discouraged).
    pub read_timeout: Option<Duration>,
    /// Maximum concurrent connections before new ones are shed.
    pub max_connections: usize,
    /// Worker threads executing requests; 0 picks an automatic size
    /// (available parallelism clamped to 2..=16).
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
    pool: Arc<Pool>,
    workers: Vec<JoinHandle<()>>,
}

impl TcpServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits for the accept loop to exit.
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
        // Best-effort poke so a parked accept wakes immediately. The loop is
        // nonblocking and polls the stop flag, so a failed poke (e.g. no
        // route to a `0.0.0.0` binding) only costs one poll interval.
        let mut poke = self.addr;
        if poke.ip().is_unspecified() {
            poke.set_ip(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST));
        }
        let _ = TcpStream::connect_timeout(&poke, Duration::from_millis(50));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Drain the worker pool: already-queued requests finish, parked
        // workers wake and join.
        self.pool.stop();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
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
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let live = Arc::new(AtomicUsize::new(0));

    let pool = Arc::new(Pool {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        stopping: AtomicBool::new(false),
    });
    let workers = (0..resolve_workers(options.workers))
        .map(|i| {
            let pool = Arc::clone(&pool);
            let server = Arc::clone(&server);
            std::thread::Builder::new()
                .name(format!("sspd-worker-{i}"))
                .spawn(move || {
                    while let Some(job) = pool.pop() {
                        run_job(&server, job);
                    }
                })
                .expect("spawn worker thread")
        })
        .collect();

    let accept_pool = Arc::clone(&pool);
    let accept_thread = std::thread::Builder::new()
        .name("sspd-accept".into())
        .spawn(move || {
            while !stop2.load(Ordering::SeqCst) {
                let sock = match listener.accept() {
                    Ok((sock, _)) => sock,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                        continue;
                    }
                    Err(_) => continue,
                };
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
                let pool = Arc::clone(&accept_pool);
                let read_timeout = options.read_timeout;
                let _ = std::thread::Builder::new()
                    .name("sspd-conn".into())
                    .spawn(move || read_connection(pool, sock, read_timeout, slot));
            }
        })
        .expect("spawn accept thread");

    Ok(TcpServerHandle { addr: local, stop, accept_thread: Some(accept_thread), pool, workers })
}

/// One request frame waiting for a worker.
struct Job {
    frame: Vec<u8>,
    conn: Arc<ConnShared>,
}

/// The bounded worker pool: a FIFO queue drained by `workers` threads.
struct Pool {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    stopping: AtomicBool,
}

impl Pool {
    fn push(&self, job: Job) {
        if self.stopping.load(Ordering::SeqCst) {
            job.conn.finish();
            return;
        }
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).push_back(job);
        conn_metrics().queued.inc();
        self.available.notify_one();
    }

    /// Next job, blocking while the queue is empty. Returns `None` once the
    /// pool is stopping *and* the queue has drained.
    fn pop(&self) -> Option<Job> {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            if self.stopping.load(Ordering::SeqCst) {
                return None;
            }
            queue = self.available.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }
}

/// Per-connection state shared by its reader thread and the workers
/// holding its queued jobs: the (mutex-serialized) write half, and the
/// in-flight admission count that implements pipeline-depth gating. The
/// budget slot rides along so it frees only when the reader *and* every
/// outstanding job are done.
struct ConnShared {
    writer: Mutex<TcpStream>,
    inflight: Mutex<usize>,
    room: Condvar,
    _slot: ConnSlot,
}

impl ConnShared {
    /// Blocks until this connection is below [`PIPELINE_DEPTH`] in-flight
    /// requests, then claims one admission.
    fn admit(&self) {
        let mut n = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        while *n >= PIPELINE_DEPTH {
            n = self.room.wait(n).unwrap_or_else(|e| e.into_inner());
        }
        *n += 1;
    }

    /// Releases one admission (response written, or the job was dropped).
    fn finish(&self) {
        let mut n = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        *n = n.saturating_sub(1);
        drop(n);
        self.room.notify_all();
    }

    /// Writes one response frame. Write errors are swallowed: the reader
    /// notices the dead socket and winds the connection down.
    fn write_response(&self, frame: &[u8]) {
        let mut sock = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = write_frame(&mut *sock, frame);
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
/// resilient clients back off and retry instead of failing permanently.
fn shed_connection(mut sock: TcpStream) {
    let reply = connection_error("transient: server at connection capacity".into());
    let _ = write_frame(&mut sock, &reply);
}

/// Best-effort peer address for triage events ("?" when the socket cannot
/// say, e.g. it already reset).
fn peer_label(sock: &TcpStream) -> String {
    sock.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into())
}

/// Per-connection reader: reads frames, applies the in-flight admission
/// cap, and feeds the worker pool. Envelope and request decoding and all
/// request execution happen on the workers.
fn read_connection(
    pool: Arc<Pool>,
    mut sock: TcpStream,
    read_timeout: Option<Duration>,
    slot: ConnSlot,
) {
    let _ = sock.set_nodelay(true);
    let _ = sock.set_read_timeout(read_timeout);
    let writer = match sock.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn = Arc::new(ConnShared {
        writer: Mutex::new(writer),
        inflight: Mutex::new(0),
        room: Condvar::new(),
        _slot: slot,
    });
    loop {
        let frame = match read_frame(&mut sock) {
            Ok(f) => f,
            Err(NetError::FrameTooLarge(n)) => {
                // Tell the client why before hanging up; the stream is no
                // longer framable (the body was never read), so close.
                conn_metrics().frames_too_large.inc();
                let peer = peer_label(&sock);
                let bytes = n;
                let limit = MAX_FRAME_LEN;
                sharoes_obs::obs_event!(
                    sharoes_obs::Level::Warn,
                    "ssp.frame_too_large",
                    peer,
                    bytes,
                    limit
                );
                conn.write_response(&connection_error(format!("frame too large: {n} bytes")));
                return;
            }
            Err(_) => return, // disconnect or idle timeout
        };
        conn.admit();
        pool.push(Job { frame, conn: Arc::clone(&conn) });
    }
}

/// Executes one queued request frame on a worker thread and writes its
/// response.
fn run_job(server: &Arc<SspServer>, job: Job) {
    let reply = serve_frame(server.as_ref(), &job.frame, "tcp").unwrap_or_else(|error| {
        conn_metrics().bad_requests.inc();
        error
    });
    job.conn.write_response(&reply);
    job.conn.finish();
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
    fn single_worker_pool_still_serves_all_clients() {
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
                // Non-transient: a resilient client must not retry this.
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
        // The old shutdown poked `0.0.0.0:port` directly, which is not a
        // connectable address on every platform; the nonblocking accept
        // loop must join regardless.
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
