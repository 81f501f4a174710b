//! The wire form of trace events, as returned by the `Trace` scrape op:
//! each event is an [`OwnedEvent`], whose `node` stamp the cluster fan-out
//! fills in when merging several rings. (Trace *context* travels in the
//! frame envelope; see [`crate::envelope`].)

use crate::error::NetError;
use crate::wire::{Cursor, WireRead, WireWrite};
use sharoes_obs::{EventKind, Level, OwnedEvent};

impl WireWrite for OwnedEvent {
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

impl WireRead for OwnedEvent {
    fn read(r: &mut Cursor<'_>) -> Result<Self, NetError> {
        Ok(OwnedEvent {
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
    fn trace_events_roundtrip() {
        let e = OwnedEvent {
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
        let decoded = OwnedEvent::from_wire(&e.to_wire()).unwrap();
        assert_eq!(decoded, e);
        // Unknown level / kind bytes are rejected.
        let mut bad = e.to_wire();
        bad[18] = 99; // level byte: 8 seq + 8 time + 2 depth
        assert!(OwnedEvent::from_wire(&bad).is_err());
    }
}
