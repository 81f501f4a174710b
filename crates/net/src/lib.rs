//! # sharoes-net
//!
//! Wire protocol, transports, and the wide-area network cost model for the
//! Sharoes reproduction.
//!
//! * [`wire`] — hand-rolled, hostile-input-safe binary codec.
//! * [`message`] — the content-oblivious client↔SSP protocol ([`ObjectKey`],
//!   [`Request`], [`Response`]).
//! * [`transport`] — [`InMemoryTransport`] (deterministic, metered) and
//!   [`TcpTransport`] (real sockets), both speaking the identical byte
//!   format.
//! * [`cost`] / [`netmodel`] — the NETWORK/CRYPTO/OTHER accounting and the
//!   paper's DSL link model that converts byte counts to seconds.
//! * [`fault`] — deterministic, seed-replayable fault injection for chaos
//!   testing any transport.
//! * [`pipeline`] — correlation-id request pipelining: many in-flight
//!   requests multiplexed over one connection ([`PipelinedClient`]).
//! * [`resilient`] — retrying/reconnecting transport decorator built on the
//!   [`error::ErrorClass`] taxonomy.
//! * [`traceframe`] — the optional checksummed trace-context header
//!   prefixed to request frames, and the wire form of trace events.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod error;
pub mod fault;
pub mod message;
pub mod netmodel;
pub mod pipeline;
pub mod resilient;
pub mod traceframe;
pub mod transport;
pub mod wire;

pub use cost::{CostMeter, CostSample};
pub use error::{ErrorClass, NetError, TRANSIENT_ERROR_PREFIX};
pub use fault::{FaultConfig, FaultCounts, FaultInjector, FaultKind, FaultSchedule, OpClass};
pub use message::{KeySpace, ObjectKey, Request, Response};
pub use netmodel::NetModel;
pub use pipeline::{
    attach_corr, corr_header, split_corr, CorrDispatcher, PipelinedClient, PipelinedTransport,
    CORR_HEADER_LEN,
};
pub use resilient::{
    Connector, FakeSleeper, ResilientTransport, RetryPolicy, Sleeper, WallClockSleeper,
};
pub use traceframe::{TraceEventWire, TRACE_HEADER_LEN, TRACE_HEADER_VERSION};
pub use transport::{
    write_frame_vectored, InMemoryTransport, RequestHandler, TcpTransport, Transport,
};
pub use wire::{Cursor, WireRead, WireWrite};
