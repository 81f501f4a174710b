//! # sharoes-net
//!
//! Wire protocol, transports, and the wide-area network cost model for the
//! Sharoes reproduction.
//!
//! * [`wire`] — hand-rolled, hostile-input-safe binary codec.
//! * [`message`] — the content-oblivious client↔SSP protocol ([`ObjectKey`],
//!   [`Request`], [`Response`]).
//! * [`envelope`] — the one versioned, checksummed header on every frame:
//!   correlation id plus an optional trace context.
//! * [`transport`] — [`InMemoryTransport`] (deterministic, metered) and
//!   [`TcpTransport`] (many requests in flight per connection, retries and
//!   re-dials built in), both speaking the identical byte format through
//!   the shared server half [`serve_frame`].
//! * [`pipeline`] — [`CorrDispatcher`], the socket-free correlation-id
//!   bookkeeping behind [`TcpTransport`]: waiting callers take turns
//!   reading the connection and route each reply to its caller.
//! * [`retry`] — [`RetryPolicy`]: bounded attempts with exponential
//!   backoff, for the failures the [`error::ErrorClass`] taxonomy marks
//!   retryable.
//! * [`cost`] / [`netmodel`] — the NETWORK/CRYPTO/OTHER accounting and the
//!   paper's DSL link model that converts byte counts to seconds.
//! * [`fault`] — deterministic, seed-replayable fault-injecting
//!   connections beneath [`TcpTransport`], for chaos testing.
//! * [`traceframe`] — the wire form of trace events for the `Trace` scrape
//!   op.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod envelope;
pub mod error;
pub mod fault;
pub mod message;
pub mod netmodel;
pub mod pipeline;
pub mod retry;
pub mod traceframe;
pub mod transport;
pub mod wire;

pub use cost::{CostMeter, CostSample};
pub use envelope::{Envelope, CONNECTION_ERROR_ID, ENVELOPE_LEN, TRACED_ENVELOPE_LEN};
pub use error::{ErrorClass, NetError, TRANSIENT_ERROR_PREFIX};
pub use fault::{FaultConfig, FaultCounts, FaultKind, FaultSchedule, OpClass};
pub use message::{KeySpace, ObjectKey, Request, Response, MAX_INDEX_BATCH};
pub use netmodel::NetModel;
pub use pipeline::{CorrDispatcher, FrameSource, Inbound};
pub use retry::{FakeSleeper, RetryPolicy, Sleeper, WallClockSleeper};
pub use traceframe::TraceEventWire;
pub use transport::{
    serve_frame, Connection, Connector, FrameSink, InMemoryTransport, RequestHandler, TcpTransport,
    Transport,
};
pub use wire::{Cursor, WireRead, WireWrite};
