//! The wire envelope: one mandatory, versioned header in front of every
//! frame body, requests and responses alike.
//!
//! Layout (all big-endian):
//!
//! ```text
//! +---------+-------+---------+----------+---------+-----------+----------+
//! | version | flags | corr id | trace_id | span_id | parent_id | checksum |
//! |    1    |   1   |    8    |    16    |    8    |     8     |    4     |
//! +---------+-------+---------+----------+---------+-----------+----------+
//!                             \___ only when flags bit 0 (trace) ___/
//! ```
//!
//! That is [`ENVELOPE_LEN`] (14) bytes untraced and [`TRACED_ENVELOPE_LEN`]
//! (46) traced. The checksum is FNV-1a-32 over every preceding envelope
//! byte — not a security boundary (frames cross an untrusted SSP; the
//! integrity of *data* is the crypto layer's job) but enough to turn a
//! bit-flipped or mis-split header into a typed error instead of a
//! misrouted reply or a garbage trace. Unknown versions, unknown flag
//! bits, truncation and checksum mismatches are all [`NetError::Codec`]:
//! a frame without a valid envelope is never parsed as a message.
//!
//! A request carries its caller's correlation id, plus the trace context
//! of the caller's `ssp.rpc` child span when the caller is traced. A
//! response echoes the id and carries no trace. Id [`CONNECTION_ERROR_ID`]
//! is reserved for connection-level server errors (shed, frame too large,
//! malformed envelope): the message is a `Response::Error` naming the
//! reason, and the client fails every waiter on the connection with it.

use crate::error::NetError;
use crate::message::Response;
use crate::wire::{Cursor, WireRead, WireWrite};
use sharoes_obs::TraceContext;

/// The only envelope version this build speaks.
const ENVELOPE_VERSION: u8 = 1;
/// Flags bit 0: a trace context follows the correlation id.
const FLAG_TRACE: u8 = 0x01;
/// Envelope length in bytes without a trace context.
pub const ENVELOPE_LEN: usize = 14;
/// Envelope length in bytes with a trace context.
pub const TRACED_ENVELOPE_LEN: usize = 46;
/// Correlation id of connection-level server errors; never a request's.
pub const CONNECTION_ERROR_ID: u64 = 0;
/// Initial capacity of a sealed frame body.
const SEAL_CAPACITY: usize = 128;

fn fnv1a_32(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The decoded header of one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Correlation id: the request's, echoed by its response.
    pub corr: u64,
    /// The trace context a traced request's server span adopts.
    pub trace: Option<TraceContext>,
}

impl Envelope {
    /// An untraced envelope for `corr`.
    pub fn untraced(corr: u64) -> Self {
        Envelope { corr, trace: None }
    }

    /// Appends the encoded envelope to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        let start = out.len();
        ENVELOPE_VERSION.write(out);
        (if self.trace.is_some() { FLAG_TRACE } else { 0 }).write(out);
        self.corr.write(out);
        if let Some(ctx) = &self.trace {
            ctx.trace_id.write(out);
            ctx.span_id.write(out);
            ctx.parent_id.write(out);
        }
        fnv1a_32(&out[start..]).write(out);
    }

    /// A frame body: this envelope followed by `message`.
    pub fn seal(&self, message: &impl WireWrite) -> Vec<u8> {
        // Room for the envelope and a small message up front: growing an
        // empty vector through several small reallocations costs a
        // measurable share of an in-memory round trip.
        let mut out = Vec::with_capacity(SEAL_CAPACITY);
        self.write(&mut out);
        message.write(&mut out);
        out
    }

    /// Splits a frame body into its envelope and the message bytes after
    /// it.
    pub fn open(frame: &[u8]) -> Result<(Envelope, &[u8]), NetError> {
        let mut r = Cursor::new(frame);
        if u8::read(&mut r)? != ENVELOPE_VERSION {
            return Err(NetError::Codec("unsupported envelope version"));
        }
        let flags = u8::read(&mut r)?;
        if flags & !FLAG_TRACE != 0 {
            return Err(NetError::Codec("unknown envelope flags"));
        }
        let corr = u64::read(&mut r)?;
        let trace = if flags & FLAG_TRACE != 0 {
            Some(TraceContext {
                trace_id: u128::read(&mut r)?,
                span_id: u64::read(&mut r)?,
                parent_id: u64::read(&mut r)?,
            })
        } else {
            None
        };
        let covered = frame.len() - r.remaining();
        if u32::read(&mut r)? != fnv1a_32(&frame[..covered]) {
            return Err(NetError::Codec("envelope checksum mismatch"));
        }
        Ok((Envelope { corr, trace }, &frame[frame.len() - r.remaining()..]))
    }
}

/// A connection-level server error frame: `reason` under
/// [`CONNECTION_ERROR_ID`].
pub fn connection_error(reason: String) -> Vec<u8> {
    Envelope::untraced(CONNECTION_ERROR_ID).seal(&Response::Error(reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Request;

    #[test]
    fn golden_bytes_pin_the_layout() {
        let ctx = TraceContext {
            trace_id: 0x0102_0304_0506_0708_090A_0B0C_0D0E_0F10,
            span_id: 0x1112_1314_1516_1718,
            parent_id: 0x2122_2324_2526_2728,
        };
        let traced = Envelope { corr: 0xA1A2_A3A4_A5A6_A7A8, trace: Some(ctx) };
        let want: Vec<u8> = [
            &[0x01, 0x01][..],
            &[0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8],
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
            &[0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18],
            &[0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28],
            &[0xD8, 0xC9, 0xEC, 0x97],
            &[0x00], // Request::Ping
        ]
        .concat();
        assert_eq!(traced.seal(&Request::Ping), want);
        assert_eq!(want.len(), TRACED_ENVELOPE_LEN + 1);
        assert_eq!(Envelope::open(&want).unwrap(), (traced, &[0x00][..]));

        let untraced = Envelope::untraced(7);
        let want = [&[0x01, 0x00, 0, 0, 0, 0, 0, 0, 0, 7][..], &[0xE6, 0xC3, 0xE4, 0x51], &[0]];
        assert_eq!(untraced.seal(&Request::Ping), want.concat());
        assert_eq!(want.concat().len(), ENVELOPE_LEN + 1);
    }

    #[test]
    fn damaged_envelopes_are_typed_errors() {
        let frame = Envelope::untraced(9).seal(&Request::Ping);
        let expect = |bytes: &[u8], why: &str| match Envelope::open(bytes) {
            Err(NetError::Codec(got)) => assert_eq!(got, why),
            other => panic!("expected {why:?}, got {other:?}"),
        };
        expect(&[], "truncated input");
        expect(&frame[..ENVELOPE_LEN - 1], "truncated input");
        let mut bad = frame.clone();
        bad[0] = 2;
        expect(&bad, "unsupported envelope version");
        let mut bad = frame.clone();
        bad[1] = 0x02;
        expect(&bad, "unknown envelope flags");
        let mut bad = frame.clone();
        bad[5] ^= 0x10;
        expect(&bad, "envelope checksum mismatch");
    }

    #[test]
    fn connection_errors_carry_their_reason_under_id_zero() {
        let frame = connection_error("transient: full".into());
        let (env, message) = Envelope::open(&frame).unwrap();
        assert_eq!(env, Envelope::untraced(CONNECTION_ERROR_ID));
        assert_eq!(
            Response::from_wire(message).unwrap(),
            Response::Error("transient: full".into())
        );
    }
}
