//! Transports: how serialized requests reach the SSP.
//!
//! Two implementations with identical semantics and identical bytes:
//!
//! * [`InMemoryTransport`] — serializes through the full wire codec, charges
//!   a [`CostMeter`], and dispatches to an in-process handler. This is the
//!   deterministic path the benchmark harness uses (network time is modeled,
//!   not slept).
//! * [`TcpTransport`] — real sockets with length-prefixed frames. One
//!   connection carries many requests in flight: `&self` calls from any
//!   number of threads, matched back to their callers by correlation id.
//!   Each caller reads replies itself (no reader thread), so a lone
//!   caller's round trip wakes no other thread on this side.
//!
//! Every frame body is an [`Envelope`] followed by one message. Both sides
//! read frames through a [`FRAME_READ_BUF`]-byte buffer, so a small frame
//! costs one `read` call. The server half of a round trip is
//! [`serve_frame`], shared by the in-memory path and sspd's connection
//! threads, so both meter exactly the same bytes.

use crate::cost::CostMeter;
use crate::envelope::{connection_error, Envelope, CONNECTION_ERROR_ID};
use crate::error::NetError;
use crate::message::{Request, Response};
use crate::pipeline::{CorrDispatcher, FrameSource, Inbound};
use crate::wire::WireRead;
use std::io::{BufRead, BufReader, ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on a single frame (64 MiB) to bound hostile allocations.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Frame-read chunk size: memory is committed only as payload bytes
/// actually arrive, so a hostile length prefix alone cannot force a large
/// allocation.
const READ_CHUNK: usize = 64 << 10;

/// Something that can serve SSP requests in-process.
///
/// Implemented by the `sharoes-ssp` server; defined here so transports do
/// not depend on the server crate.
pub trait RequestHandler: Send + Sync {
    /// Handles one request.
    fn handle(&self, request: Request) -> Response;
}

/// A bidirectional request channel to the SSP.
pub trait Transport: Send {
    /// Sends a request and waits for the response.
    fn call(&mut self, request: &Request) -> Result<Response, NetError>;

    /// The meter recording this transport's traffic.
    fn meter(&self) -> &Arc<CostMeter>;
}

/// The server half of one round trip: opens the request frame's envelope,
/// adopts the caller's trace context as an `ssp.rpc` span labelled
/// `transport` (`"mem"` or `"tcp"`), decodes and handles the request, and
/// returns the response frame under the request's id.
///
/// A rejected frame returns `Err` carrying the error reply to send: a
/// message that does not decode is answered under its own id, a frame
/// whose envelope does not decode under [`CONNECTION_ERROR_ID`].
pub fn serve_frame(
    handler: &dyn RequestHandler,
    frame: &[u8],
    transport: &'static str,
) -> Result<Vec<u8>, Vec<u8>> {
    let (env, message) =
        Envelope::open(frame).map_err(|e| connection_error(format!("bad request: {e}")))?;
    let reply = Envelope::untraced(env.corr);
    let request = Request::from_wire(message)
        .map_err(|e| reply.seal(&Response::Error(format!("bad request: {e}"))))?;
    let response = {
        let _rpc = env.trace.map(|ctx| {
            sharoes_obs::SpanGuard::enter_with("ssp.rpc", ctx, || {
                format!("transport={transport:?}")
            })
        });
        handler.handle(request)
    };
    Ok(reply.seal(&response))
}

/// The request frame for call `corr`, carrying the trace context of an
/// `ssp.rpc` child span when the caller is traced.
fn request_frame(corr: u64, request: &Request) -> Vec<u8> {
    Envelope { corr, trace: sharoes_obs::mint_child("ssp.rpc") }.seal(request)
}

/// Decodes the response frame answering call `corr`.
fn open_response(corr: u64, frame: &[u8]) -> Result<Response, NetError> {
    let (env, message) = Envelope::open(frame)?;
    if env.corr != corr {
        return Err(NetError::Codec("response answers another request"));
    }
    Response::from_wire(message)
}

/// Charges the wall time of a round trip started at `timing` to the
/// enclosing span's network phase.
fn charge_net_phase(timing: Option<Instant>) {
    if let Some(start) = timing {
        sharoes_obs::phase_add(sharoes_obs::Phase::Net, start.elapsed().as_nanos() as u64);
    }
}

/// In-process transport with full serialization and cost metering.
pub struct InMemoryTransport {
    handler: Arc<dyn RequestHandler>,
    meter: Arc<CostMeter>,
    last_id: u64,
}

impl InMemoryTransport {
    /// Creates a transport speaking to `handler`.
    pub fn new(handler: Arc<dyn RequestHandler>) -> Self {
        Self::with_meter(handler, CostMeter::new_shared())
    }

    /// Creates a transport sharing an existing meter.
    pub fn with_meter(handler: Arc<dyn RequestHandler>, meter: Arc<CostMeter>) -> Self {
        InMemoryTransport { handler, meter, last_id: 0 }
    }
}

impl Transport for InMemoryTransport {
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        // Round-trip through the real codec and the server's own frame
        // handling so byte counts (and any codec bugs) are identical to
        // the TCP path.
        let timing = sharoes_obs::in_span().then(Instant::now);
        self.last_id += 1;
        let frame = request_frame(self.last_id, request);
        let reply = serve_frame(&*self.handler, &frame, "mem").unwrap_or_else(|error| error);
        self.meter.charge_round_trip(frame.len() as u64 + 4, reply.len() as u64 + 4);
        charge_net_phase(timing);
        open_response(self.last_id, &reply)
    }

    fn meter(&self) -> &Arc<CostMeter> {
        &self.meter
    }
}

/// Writes one length-prefixed frame with a single vectored write when the
/// socket takes it all, resuming byte-exactly after a partial write.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), NetError> {
    if body.len() > MAX_FRAME_LEN {
        return Err(NetError::FrameTooLarge(body.len()));
    }
    let prefix = (body.len() as u32).to_be_bytes();
    let n = w.write_vectored(&[IoSlice::new(&prefix), IoSlice::new(body)])?;
    if n < prefix.len() {
        w.write_all(&prefix[n..])?;
        w.write_all(body)?;
    } else {
        w.write_all(&body[n - prefix.len()..])?;
    }
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, NetError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(NetError::FrameTooLarge(len));
    }
    let mut body = Vec::with_capacity(len.min(READ_CHUNK));
    while body.len() < len {
        let take = (len - body.len()).min(READ_CHUNK);
        let start = body.len();
        body.resize(start + take, 0);
        r.read_exact(&mut body[start..])?;
    }
    Ok(body)
}

/// Default bound on one call: the socket write and the wait for its
/// response.
const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Read buffer per connection, on both sides: a frame smaller than this
/// costs one `read` call.
pub const FRAME_READ_BUF: usize = 16 << 10;

/// TCP transport: one connection, many requests in flight.
///
/// Calls take `&self`, so one transport can serve many threads at once.
/// A writer lock serializes frames onto the socket; there is no reader
/// thread. A waiting caller reads the socket itself while no other caller
/// does and routes each reply to its caller by correlation id
/// ([`CorrDispatcher`]). Used through the [`Transport`] trait it is an
/// ordinary one-call-at-a-time transport that reads its own replies.
pub struct TcpTransport {
    writer: Mutex<TcpStream>,
    dispatcher: CorrDispatcher<SocketSource>,
    meter: Arc<CostMeter>,
    timeout: Duration,
}

impl TcpTransport {
    /// Connects to an SSP server at `addr` (e.g. `"127.0.0.1:7070"`).
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        Self::connect_with(addr, DEFAULT_CALL_TIMEOUT, CostMeter::new_shared())
    }

    /// Connects with a per-call deadline and a caller-supplied meter.
    ///
    /// `timeout` bounds how long one call can stall on a dead or wedged
    /// peer, writing its frame or awaiting the response (either surfaces
    /// as a retryable [`NetError::Io`]). Sharing a meter lets a
    /// reconnecting caller (the resilient transport) accumulate costs
    /// across connections.
    pub fn connect_with(
        addr: &str,
        timeout: Duration,
        meter: Arc<CostMeter>,
    ) -> Result<Self, NetError> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        sock.set_write_timeout(Some(timeout))?;
        let source = SocketSource(BufReader::with_capacity(FRAME_READ_BUF, sock.try_clone()?));
        Ok(TcpTransport {
            writer: Mutex::new(sock),
            dispatcher: CorrDispatcher::new(source),
            meter,
            timeout,
        })
    }

    /// One full round trip. Takes `&self`: concurrent callers pipeline
    /// naturally, each matched to its own response by correlation id.
    pub fn call(&self, request: &Request) -> Result<Response, NetError> {
        let timing = sharoes_obs::in_span().then(Instant::now);
        let out = (|| {
            let id = self.dispatcher.register()?;
            let frame = request_frame(id, request);
            let written = {
                let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
                write_frame(&mut *w, &frame)
            };
            if let Err(e) = written {
                // A half-written frame leaves the stream unframable.
                self.dispatcher.fail_all(&e.to_string());
                return Err(e);
            }
            let reply = self.dispatcher.wait(id, self.timeout)?;
            self.meter.charge_round_trip(frame.len() as u64 + 4, reply.len() as u64 + 4);
            let response = open_response(id, &reply)?;
            if !request.matches_response(&response) {
                return Err(NetError::Codec("response does not match request"));
            }
            Ok(response)
        })();
        charge_net_phase(timing);
        out
    }
}

impl Transport for TcpTransport {
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        TcpTransport::call(self, request)
    }

    fn meter(&self) -> &Arc<CostMeter> {
        &self.meter
    }
}

/// The client's read half: the socket behind a read buffer.
struct SocketSource(BufReader<TcpStream>);

impl FrameSource for SocketSource {
    /// Reads one reply frame. The caller's deadline bounds only the wait
    /// for a frame's first byte; a timeout after that leaves the stream
    /// unframable and loses the connection. A connection-level reply
    /// (id 0) refuses the connection with the server's own words.
    fn next_frame(&mut self, deadline: Instant) -> Inbound {
        if self.0.buffer().is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Inbound::Idle;
            }
            if let Err(e) = self.0.get_ref().set_read_timeout(Some(left)) {
                return Inbound::Lost(e.to_string());
            }
            match self.0.fill_buf() {
                Ok([]) => return Inbound::Lost("closed by the server".into()),
                Ok(_) => {}
                // A socket read timeout is `WouldBlock` on Unix and
                // `TimedOut` on Windows.
                Err(e) => {
                    return match e.kind() {
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted => {
                            Inbound::Idle
                        }
                        _ => Inbound::Lost(e.to_string()),
                    }
                }
            }
        }
        let frame = match read_frame(&mut self.0) {
            Ok(frame) => frame,
            Err(e) => return Inbound::Lost(e.to_string()),
        };
        match Envelope::open(&frame) {
            Ok((env, message)) if env.corr == CONNECTION_ERROR_ID => {
                Inbound::Refused(match Response::from_wire(message) {
                    Ok(Response::Error(reason)) => reason,
                    _ => "connection-level reply without a reason".into(),
                })
            }
            Ok((env, _)) => Inbound::Reply { corr: env.corr, frame },
            Err(e) => Inbound::Lost(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::ENVELOPE_LEN;
    use crate::message::ObjectKey;
    use crate::wire::WireWrite;
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// Toy handler used by transport tests.
    struct EchoStore(Mutex<HashMap<ObjectKey, Vec<u8>>>);

    impl RequestHandler for EchoStore {
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

    #[test]
    fn in_memory_roundtrip_and_metering() {
        let handler = Arc::new(EchoStore(Mutex::new(HashMap::new())));
        let mut t = InMemoryTransport::new(handler);
        assert_eq!(t.call(&Request::Ping).unwrap(), Response::Pong);
        let key = ObjectKey::metadata(1, [0; 16]);
        t.call(&Request::Put { key, value: vec![9; 100] }).unwrap();
        assert_eq!(t.call(&Request::Get { key }).unwrap(), Response::Object(Some(vec![9; 100])));
        let s = t.meter().sample();
        assert_eq!(s.round_trips, 3);
        assert!(s.bytes_up > 100, "upload should include the 100-byte payload");
        assert!(s.bytes_down > 100, "download should include the fetched object");
    }

    #[test]
    fn frames_roundtrip_over_buffers() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frame").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello frame");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert!(read_frame(&mut cursor).is_err()); // EOF
    }

    #[test]
    fn frames_are_a_big_endian_length_then_the_body() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"head tail").unwrap();
        assert_eq!(buf, [&[0, 0, 0, 9][..], b"head tail"].concat());
    }

    /// A writer that accepts at most `cap` bytes per call, forcing
    /// `write_frame` through its partial-write resume logic.
    struct Dribble {
        out: Vec<u8>,
        cap: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_writes_survive_partial_writes() {
        let body: Vec<u8> = (0..999u32).map(|i| (i % 251) as u8).collect();
        for cap in [1, 3, 4, 7, 100] {
            let mut w = Dribble { out: Vec::new(), cap };
            write_frame(&mut w, &body).unwrap();
            let mut cursor = std::io::Cursor::new(w.out);
            assert_eq!(read_frame(&mut cursor).unwrap(), body, "cap={cap}");
        }
    }

    #[test]
    fn oversized_frames_rejected() {
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &vec![0u8; MAX_FRAME_LEN + 1]),
            Err(NetError::FrameTooLarge(_))
        ));
        let mut evil = Vec::new();
        evil.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut cursor = std::io::Cursor::new(evil);
        assert!(matches!(read_frame(&mut cursor), Err(NetError::FrameTooLarge(_))));
    }

    /// A reader claiming a huge frame and then delivering ~0 payload bytes.
    /// Records the largest buffer a single `read` call was handed: chunked
    /// frame reads must never ask for (or allocate) the full claimed length
    /// up front.
    struct HugeClaimReader {
        prefix: Vec<u8>,
        sent: usize,
        max_read_buf: usize,
    }

    impl Read for HugeClaimReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.sent < self.prefix.len() {
                let n = buf.len().min(self.prefix.len() - self.sent);
                buf[..n].copy_from_slice(&self.prefix[self.sent..self.sent + n]);
                self.sent += n;
                return Ok(n);
            }
            self.max_read_buf = self.max_read_buf.max(buf.len());
            Ok(0) // EOF: the payload never arrives
        }
    }

    #[test]
    fn huge_length_prefix_does_not_preallocate() {
        // Claim a maximum-size frame, send no payload. The old code did
        // `vec![0u8; len]` (64 MiB) before reading a byte; the chunked
        // reader must fail at EOF having requested at most one chunk.
        let claimed = (MAX_FRAME_LEN as u32).to_be_bytes().to_vec();
        let mut r = HugeClaimReader { prefix: claimed, sent: 0, max_read_buf: 0 };
        assert!(matches!(read_frame(&mut r), Err(NetError::Io(_))));
        assert!(
            r.max_read_buf <= 64 << 10,
            "read buffer {} exceeds the 64 KiB chunk bound",
            r.max_read_buf
        );
    }

    #[test]
    fn chunked_reads_reassemble_large_frames() {
        // A frame spanning several chunks round-trips intact.
        let body: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), body);
    }

    #[test]
    fn tcp_transport_against_toy_server() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let store = EchoStore(Mutex::new(HashMap::new()));
            // Serve until the client hangs up.
            while let Ok(frame) = read_frame(&mut sock) {
                let reply = serve_frame(&store, &frame, "tcp").unwrap();
                write_frame(&mut sock, &reply).unwrap();
            }
        });

        let t = TcpTransport::connect(&addr.to_string()).unwrap();
        assert_eq!(t.call(&Request::Ping).unwrap(), Response::Pong);
        let key = ObjectKey::data(3, [1; 16], 0);
        t.call(&Request::Put { key, value: b"over tcp".to_vec() }).unwrap();
        assert_eq!(
            t.call(&Request::Get { key }).unwrap(),
            Response::Object(Some(b"over tcp".to_vec()))
        );
        assert_eq!(t.meter().sample().round_trips, 3);
        drop(t);
        server.join().unwrap();
    }

    #[test]
    fn both_transports_meter_the_same_bytes() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let store = EchoStore(Mutex::new(HashMap::new()));
            while let Ok(frame) = read_frame(&mut sock) {
                write_frame(&mut sock, &serve_frame(&store, &frame, "tcp").unwrap()).unwrap();
            }
        });
        let key = ObjectKey::data(1, [2; 16], 0);
        let calls =
            [Request::Ping, Request::Put { key, value: vec![5; 300] }, Request::Get { key }];
        let mut mem = InMemoryTransport::new(Arc::new(EchoStore(Mutex::new(HashMap::new()))));
        let tcp = TcpTransport::connect(&addr.to_string()).unwrap();
        for request in &calls {
            assert_eq!(Transport::call(&mut mem, request).unwrap(), tcp.call(request).unwrap());
        }
        assert_eq!(mem.meter().sample(), tcp.meter().sample());
        // Each round trip carries one 14-byte envelope each way.
        let bare: u64 = calls.iter().map(|r| r.to_wire().len() as u64 + 4).sum();
        assert_eq!(mem.meter().sample().bytes_up, bare + 3 * ENVELOPE_LEN as u64);
        drop(tcp);
        server.join().unwrap();
    }

    /// Reads one request frame off a raw socket: its id and request.
    fn read_request(sock: &mut TcpStream) -> (u64, Request) {
        let frame = read_frame(sock).unwrap();
        let (env, message) = Envelope::open(&frame).unwrap();
        (env.corr, Request::from_wire(message).unwrap())
    }

    /// Answers call `corr` with a one-byte object naming the call.
    fn answer(sock: &mut TcpStream, corr: u64, tag: u8) {
        let reply = Envelope::untraced(corr).seal(&Response::Object(Some(vec![tag])));
        write_frame(sock, &reply).unwrap();
    }

    #[test]
    fn replies_in_reverse_order_reach_their_own_callers() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The peer waits for both calls, then answers the second first.
        let peer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let first = read_request(&mut sock);
            let second = read_request(&mut sock);
            for (corr, request) in [second, first] {
                let Request::Get { key } = request else { panic!("expected a Get") };
                answer(&mut sock, corr, key.inode as u8);
            }
            // Hold the socket open until the client hangs up.
            let _ = read_frame(&mut sock);
        });
        let t = TcpTransport::connect(&addr.to_string()).unwrap();
        std::thread::scope(|scope| {
            let callers: Vec<_> = [1u64, 2]
                .into_iter()
                .map(|inode| {
                    let t = &t;
                    scope.spawn(move || {
                        let key = ObjectKey::data(inode, [0; 16], 0);
                        (inode, t.call(&Request::Get { key }).unwrap())
                    })
                })
                .collect();
            for caller in callers {
                let (inode, response) = caller.join().unwrap();
                assert_eq!(response, Response::Object(Some(vec![inode as u8])), "crossed reply");
            }
        });
        drop(t);
        peer.join().unwrap();
    }

    #[test]
    fn a_timed_out_call_leaves_the_connection_usable_and_its_reply_an_orphan() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (timed_out_tx, timed_out_rx) = std::sync::mpsc::channel::<()>();
        // The peer answers the first call only after the caller gave up,
        // then answers the next call promptly.
        let peer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let (late, _) = read_request(&mut sock);
            timed_out_rx.recv().unwrap();
            answer(&mut sock, late, 1);
            let (next, _) = read_request(&mut sock);
            answer(&mut sock, next, 2);
            let _ = read_frame(&mut sock);
        });
        let orphans = sharoes_obs::global().counter("net_corr_orphans_total");
        let before = orphans.get();
        let t = TcpTransport::connect_with(
            &addr.to_string(),
            Duration::from_millis(100),
            CostMeter::new_shared(),
        )
        .unwrap();
        let key = ObjectKey::data(1, [0; 16], 0);
        let err = t.call(&Request::Get { key }).unwrap_err();
        assert!(
            matches!(&err, NetError::Io(e) if e.kind() == ErrorKind::TimedOut),
            "expected a timeout, got {err}"
        );
        timed_out_tx.send(()).unwrap();
        // The late reply is read and dropped on the way to this one.
        assert_eq!(t.call(&Request::Get { key }).unwrap(), Response::Object(Some(vec![2])));
        assert!(orphans.get() > before, "the late reply was not counted as an orphan");
        assert_eq!(t.meter().sample().round_trips, 1);
        drop(t);
        peer.join().unwrap();
    }

    #[test]
    fn malformed_frames_are_rejected_with_typed_replies() {
        let store = EchoStore(Mutex::new(HashMap::new()));
        // A bare message without an envelope: a connection-level error.
        let reply = serve_frame(&store, &Request::Ping.to_wire(), "mem").unwrap_err();
        let (env, message) = Envelope::open(&reply).unwrap();
        assert_eq!(env.corr, CONNECTION_ERROR_ID);
        assert!(
            matches!(Response::from_wire(message).unwrap(), Response::Error(m) if m.contains("bad request"))
        );
        // A valid envelope around a bad message: an error under its own id.
        let frame = [Envelope::untraced(42).seal(&Request::Ping), vec![0xFF]].concat();
        let reply = serve_frame(&store, &frame, "mem").unwrap_err();
        let (env, message) = Envelope::open(&reply).unwrap();
        assert_eq!(env.corr, 42);
        assert!(
            matches!(Response::from_wire(message).unwrap(), Response::Error(m) if m.contains("bad request"))
        );
    }
}
