//! Network-layer error type and the retryability taxonomy.

use std::fmt;

/// Whether a failed SSP call may safely be retried.
///
/// Every SSP operation is an idempotent put/get/delete of client-sealed
/// blobs — the server keeps no per-connection state, and re-applying a
/// mutation whose response was lost yields the same stored bytes. Failures
/// therefore split cleanly:
///
/// * [`ErrorClass::Retryable`] — connectivity loss, timeouts, garbled
///   reply frames, and transient server-side errors. Retrying (over a
///   fresh connection if needed) is safe and expected to succeed once the
///   fault clears.
/// * [`ErrorClass::Fatal`] — protocol violations (oversized frames) and
///   persistent server-side rejections. Retrying cannot help. Crucially,
///   integrity failures detected *above* this layer (signature or tamper
///   errors, `CoreError::TamperDetected`) never reach this taxonomy as
///   retryable: [`crate::TcpTransport`] only ever replays the same
///   request, and the client treats verification failures as terminal,
///   so tampered state is never "retried into oblivion".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorClass {
    /// Safe to retry (all SSP ops are idempotent).
    Retryable,
    /// Retrying cannot help; surface to the caller.
    Fatal,
}

/// Prefix marking a server error message as transient (safe to retry).
///
/// The SSP uses it for load-shedding style rejections; fault-injecting
/// connections use it for injected soft failures.
pub const TRANSIENT_ERROR_PREFIX: &str = "transient";

/// Errors from the wire codec and transports.
#[derive(Debug)]
pub enum NetError {
    /// Malformed bytes on the wire.
    Codec(&'static str),
    /// Underlying socket failure.
    Io(std::io::Error),
    /// The server replied with an error message.
    Remote(String),
    /// A frame exceeded the configured maximum size.
    FrameTooLarge(usize),
    /// The transport has been shut down.
    Closed,
    /// Stored bytes failed integrity verification (torn WAL record, sealed
    /// segment bit rot, checkpoint checksum mismatch). Unlike [`Self::Codec`]
    /// — line noise that a resend gets past — corruption is in the
    /// durable state itself: retrying rereads the same rotten bytes.
    Corrupt(String),
}

impl NetError {
    /// Classifies this error as [`ErrorClass::Retryable`] or
    /// [`ErrorClass::Fatal`] (see the [`ErrorClass`] docs for the safety
    /// argument).
    pub fn class(&self) -> ErrorClass {
        match self {
            // Socket failures, torn connections, and timeouts: the request
            // or its response was lost in transit. Idempotency makes a
            // resend safe.
            NetError::Io(_) | NetError::Closed => ErrorClass::Retryable,
            // A garbled frame: the server only ever emits well-formed
            // responses, so a codec failure at the transport boundary
            // means line corruption. Replies are matched by correlation
            // id, so the connection stays framed and a resend is safe.
            NetError::Codec(_) => ErrorClass::Retryable,
            // A frame-size violation is a protocol bug (or an attack); the
            // same request would be rejected forever.
            NetError::FrameTooLarge(_) => ErrorClass::Fatal,
            // On-disk corruption persists across retries; surfacing it is
            // the point (cluster reads fail over to another replica at a
            // higher layer, not by blind resend to the rotten node).
            NetError::Corrupt(_) => ErrorClass::Fatal,
            // Server-side errors are fatal unless the server explicitly
            // marked them transient.
            NetError::Remote(msg) => {
                if msg.starts_with(TRANSIENT_ERROR_PREFIX) {
                    ErrorClass::Retryable
                } else {
                    ErrorClass::Fatal
                }
            }
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Codec(why) => write!(f, "codec error: {why}"),
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Remote(msg) => write!(f, "remote error: {msg}"),
            NetError::FrameTooLarge(n) => write!(f, "frame too large: {n} bytes"),
            NetError::Closed => write!(f, "transport closed"),
            NetError::Corrupt(why) => write!(f, "storage corruption: {why}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(NetError::Codec("bad tag").to_string(), "codec error: bad tag");
        assert_eq!(NetError::Closed.to_string(), "transport closed");
        assert_eq!(NetError::FrameTooLarge(99).to_string(), "frame too large: 99 bytes");
    }

    /// Table-driven check of the Retryable/Fatal split. Tamper-adjacent
    /// failures (signature mismatches surface as non-transient remote or
    /// higher-layer errors) must never classify as retryable.
    #[test]
    fn classification_table() {
        use std::io;
        let table: Vec<(NetError, ErrorClass)> = vec![
            (NetError::Io(io::Error::from(io::ErrorKind::TimedOut)), ErrorClass::Retryable),
            (NetError::Io(io::Error::from(io::ErrorKind::ConnectionReset)), ErrorClass::Retryable),
            (
                NetError::Io(io::Error::from(io::ErrorKind::ConnectionRefused)),
                ErrorClass::Retryable,
            ),
            (NetError::Io(io::Error::from(io::ErrorKind::UnexpectedEof)), ErrorClass::Retryable),
            (NetError::Closed, ErrorClass::Retryable),
            (NetError::Codec("truncated input"), ErrorClass::Retryable),
            (NetError::Codec("unknown response tag"), ErrorClass::Retryable),
            (NetError::FrameTooLarge(usize::MAX), ErrorClass::Fatal),
            // Durable-state corruption must never be blindly retried.
            (NetError::Corrupt("torn record tail at byte 7".into()), ErrorClass::Fatal),
            (NetError::Corrupt("record checksum mismatch".into()), ErrorClass::Fatal),
            (NetError::Remote("transient: injected fault".into()), ErrorClass::Retryable),
            (NetError::Remote("transient overload, back off".into()), ErrorClass::Retryable),
            (NetError::Remote("frame too large".into()), ErrorClass::Fatal),
            (NetError::Remote("bad request: unknown request tag".into()), ErrorClass::Fatal),
            // Tamper/signature-shaped server messages MUST be fatal.
            (NetError::Remote("signature verification failed".into()), ErrorClass::Fatal),
            (NetError::Remote("tamper detected: rollback".into()), ErrorClass::Fatal),
        ];
        for (err, want) in table {
            assert_eq!(err.class(), want, "misclassified: {err}");
        }
    }
}
