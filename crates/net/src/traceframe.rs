//! The wire form of trace events, as returned by the `Trace` scrape op.
//! (Trace *context* travels in the frame envelope; see
//! [`crate::envelope`].)

use crate::error::NetError;
use crate::wire::{Cursor, WireRead, WireWrite};
use sharoes_obs::{EventKind, Level, OwnedEvent, TraceEvent};

/// The wire form of one trace event, as returned by the `Trace` scrape
/// op. Mirrors [`TraceEvent`] with owned strings plus a `node` stamp the
/// cluster fan-out fills in when merging several rings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEventWire {
    /// Per-process monotonic sequence number.
    pub seq: u64,
    /// Timestamp (sequence number in deterministic mode).
    pub time_ns: u64,
    /// Thread-local nesting depth when recorded.
    pub depth: u16,
    /// Severity.
    pub level: Level,
    /// Enter/exit/instant.
    pub kind: EventKind,
    /// 128-bit trace id (0 = untraced).
    pub trace_id: u128,
    /// Owning span id.
    pub span_id: u64,
    /// Owning span's parent id.
    pub parent_id: u64,
    /// Span/event name.
    pub name: String,
    /// Rendered `key=value` fields.
    pub fields: String,
    /// Node the event was scraped from ("" until a merger stamps it).
    pub node: String,
}

impl From<&TraceEvent> for TraceEventWire {
    fn from(e: &TraceEvent) -> TraceEventWire {
        TraceEventWire {
            seq: e.seq,
            time_ns: e.time_ns,
            depth: e.depth,
            level: e.level,
            kind: e.kind,
            trace_id: e.trace_id,
            span_id: e.span_id,
            parent_id: e.parent_id,
            name: e.name.to_string(),
            fields: e.fields.clone(),
            node: String::new(),
        }
    }
}

impl From<&TraceEventWire> for OwnedEvent {
    fn from(e: &TraceEventWire) -> OwnedEvent {
        OwnedEvent {
            seq: e.seq,
            time_ns: e.time_ns,
            depth: e.depth,
            level: e.level,
            kind: e.kind,
            trace_id: e.trace_id,
            span_id: e.span_id,
            parent_id: e.parent_id,
            name: e.name.clone(),
            fields: e.fields.clone(),
            node: e.node.clone(),
        }
    }
}

impl WireWrite for TraceEventWire {
    fn write(&self, out: &mut Vec<u8>) {
        self.seq.write(out);
        self.time_ns.write(out);
        self.depth.write(out);
        self.level.as_u8().write(out);
        self.kind.as_u8().write(out);
        self.trace_id.write(out);
        self.span_id.write(out);
        self.parent_id.write(out);
        self.name.write(out);
        self.fields.write(out);
        self.node.write(out);
    }
}

impl WireRead for TraceEventWire {
    fn read(r: &mut Cursor<'_>) -> Result<Self, NetError> {
        Ok(TraceEventWire {
            seq: u64::read(r)?,
            time_ns: u64::read(r)?,
            depth: u16::read(r)?,
            level: Level::from_u8(u8::read(r)?).ok_or(NetError::Codec("unknown trace level"))?,
            kind: EventKind::from_u8(u8::read(r)?)
                .ok_or(NetError::Codec("unknown trace event kind"))?,
            trace_id: u128::read(r)?,
            span_id: u64::read(r)?,
            parent_id: u64::read(r)?,
            name: String::read(r)?,
            fields: String::read(r)?,
            node: String::read(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_event_wire_roundtrips() {
        let e = TraceEventWire {
            seq: 12,
            time_ns: 34,
            depth: 2,
            level: Level::Warn,
            kind: EventKind::Instant,
            trace_id: u128::MAX - 1,
            span_id: 55,
            parent_id: 44,
            name: "ssp.op".into(),
            fields: "op=\"get\"".into(),
            node: "node-a".into(),
        };
        let decoded = TraceEventWire::from_wire(&e.to_wire()).unwrap();
        assert_eq!(decoded, e);
        // Unknown level / kind bytes are rejected.
        let mut bad = e.to_wire();
        bad[18] = 99; // level byte: 8 seq + 8 time + 2 depth
        assert!(TraceEventWire::from_wire(&bad).is_err());
    }
}
