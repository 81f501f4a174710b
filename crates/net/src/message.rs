//! The client↔SSP request/response protocol.
//!
//! The SSP is a dumb, untrusted object store (paper §IV): "it simply
//! maintains a large hashtable for encrypted metadata objects and encrypted
//! data blocks, both indexed by the inode numbers and either hash of
//! user/group ID (for Scheme-1) or CAP ID (Scheme-2)". [`ObjectKey`] is that
//! index; the protocol is deliberately content-oblivious.

use crate::error::NetError;
use crate::wire::{Cursor, WireRead, WireWrite};

/// Which logical table at the SSP an object lives in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum KeySpace {
    /// Encrypted metadata objects.
    Metadata,
    /// Encrypted data blocks (file contents / directory tables).
    Data,
    /// Per-user encrypted superblocks (§III-C).
    Superblock,
    /// Group key blocks: group private keys encrypted per member (§II-A).
    GroupKey,
}

impl KeySpace {
    fn tag(self) -> u8 {
        match self {
            KeySpace::Metadata => 0,
            KeySpace::Data => 1,
            KeySpace::Superblock => 2,
            KeySpace::GroupKey => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, NetError> {
        Ok(match tag {
            0 => KeySpace::Metadata,
            1 => KeySpace::Data,
            2 => KeySpace::Superblock,
            3 => KeySpace::GroupKey,
            _ => return Err(NetError::Codec("unknown keyspace tag")),
        })
    }
}

/// A composite key the SSP indexes by, opaque to the SSP itself.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ObjectKey {
    /// Logical table.
    pub space: KeySpace,
    /// Inode number (0 where not applicable, e.g. superblocks).
    pub inode: u64,
    /// View selector: hash of user/group id (Scheme-1) or CAP id (Scheme-2).
    pub view: [u8; 16],
    /// Block index for multi-block file data; 0 otherwise.
    pub block: u32,
}

impl ObjectKey {
    /// Metadata object key.
    pub fn metadata(inode: u64, view: [u8; 16]) -> Self {
        ObjectKey { space: KeySpace::Metadata, inode, view, block: 0 }
    }

    /// Data block key.
    pub fn data(inode: u64, view: [u8; 16], block: u32) -> Self {
        ObjectKey { space: KeySpace::Data, inode, view, block }
    }

    /// Superblock key for a user-hash view.
    pub fn superblock(view: [u8; 16]) -> Self {
        ObjectKey { space: KeySpace::Superblock, inode: 0, view, block: 0 }
    }

    /// Group-key block for `(gid, member-hash)`.
    pub fn group_key(gid: u64, view: [u8; 16]) -> Self {
        ObjectKey { space: KeySpace::GroupKey, inode: gid, view, block: 0 }
    }
}

impl WireWrite for ObjectKey {
    fn write(&self, out: &mut Vec<u8>) {
        self.space.tag().write(out);
        self.inode.write(out);
        self.view.write(out);
        self.block.write(out);
    }
}

impl WireRead for ObjectKey {
    fn read(r: &mut Cursor<'_>) -> Result<Self, NetError> {
        Ok(ObjectKey {
            space: KeySpace::from_tag(u8::read(r)?)?,
            inode: u64::read(r)?,
            view: <[u8; 16]>::read(r)?,
            block: u32::read(r)?,
        })
    }
}

/// A client request to the SSP.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Stores (or replaces) one object.
    Put {
        /// Target key.
        key: ObjectKey,
        /// Encrypted object bytes.
        value: Vec<u8>,
    },
    /// Stores several objects in one round trip (mkdir/migration batching).
    PutMany {
        /// `(key, value)` pairs.
        items: Vec<(ObjectKey, Vec<u8>)>,
    },
    /// Fetches one object.
    Get {
        /// Source key.
        key: ObjectKey,
    },
    /// Fetches several objects in one round trip.
    GetMany {
        /// Keys to fetch; response preserves order.
        keys: Vec<ObjectKey>,
    },
    /// Deletes one object.
    Delete {
        /// Target key.
        key: ObjectKey,
    },
    /// Deletes every block of a data object (file truncation/removal).
    DeleteBlocks {
        /// Inode whose data blocks should go.
        inode: u64,
        /// View selector.
        view: [u8; 16],
    },
    /// Deletes several objects in one round trip (unlink/revocation).
    DeleteMany {
        /// Keys to delete.
        keys: Vec<ObjectKey>,
    },
    /// Live observability export: the serving process renders its global
    /// metrics registry (Prometheus text format), plus its own store's
    /// `ssp_store_objects` / `ssp_store_bytes` gauges. Content-oblivious
    /// like everything else — operational counters only, never stored data.
    Metrics,
    /// Pages through stored keys in `ObjectKey` order (cluster rebalancing
    /// and replica audits). Content stays opaque: only the index is listed,
    /// which the SSP already knows.
    Scan {
        /// Resume after this key (exclusive); `None` starts from the front.
        after: Option<ObjectKey>,
        /// Maximum keys per page.
        limit: u32,
    },
    /// Scrapes the serving process's trace ring (non-draining — local
    /// consumers keep their events). Like `Metrics`, operational telemetry
    /// only: span names and cost attribution, never stored data.
    Trace {
        /// Maximum events to return (the newest ones win).
        max: u32,
    },
    /// Fetches the root hash of the SSP's authenticated key index (the
    /// Merkle search tree over every stored `ObjectKey`). Clients pin this
    /// root; cluster audits compare it across replicas.
    Root,
    /// Fetches one node of the authenticated index by its hash, for
    /// subtree-diff descent during replica audits. The node encoding is
    /// owned by `sharoes-index`; the wire layer treats it as opaque bytes.
    IndexNode {
        /// Hash of the requested node.
        hash: [u8; 32],
    },
    /// Like `Scan`, but the reply carries the index root and a Merkle range
    /// proof that no key was omitted, inserted, or reordered between the
    /// cursor and the page end.
    ScanVerified {
        /// Resume after this key (exclusive); `None` starts from the front.
        after: Option<ObjectKey>,
        /// Maximum keys per page (at least 1; servers clamp 0 up to 1).
        limit: u32,
    },
}

impl Request {
    /// True when `response` is a plausible reply to this request.
    ///
    /// The protocol carries no sequence numbers, so after a timeout a late
    /// reply can desynchronize a connection by one frame. The resilient
    /// transport uses this shape check to detect such stale/duplicate
    /// replies and recover by reconnecting. (A stale reply of the *same*
    /// shape — an old `Object` for a different `Get` — is indistinguishable
    /// here by design; that is the rollback-detection problem the client's
    /// signed-version freshness ledger handles.)
    pub fn matches_response(&self, response: &Response) -> bool {
        match (self, response) {
            // Errors are a valid reply to anything.
            (_, Response::Error(_)) => true,
            (Request::Ping, Response::Pong) => true,
            (
                Request::Put { .. }
                | Request::PutMany { .. }
                | Request::Delete { .. }
                | Request::DeleteBlocks { .. }
                | Request::DeleteMany { .. },
                Response::Ok,
            ) => true,
            (Request::Get { .. }, Response::Object(_)) => true,
            (Request::GetMany { keys }, Response::Objects(vs)) => vs.len() == keys.len(),
            (Request::Metrics, Response::Metrics { .. }) => true,
            (Request::Scan { limit, .. }, Response::Keys { keys, .. }) => {
                keys.len() <= *limit as usize
            }
            // Trace checks the event cap, so an oversized stale reply is
            // detectable.
            (Request::Trace { max }, Response::Trace { events, .. }) => {
                events.len() <= *max as usize
            }
            (Request::Root, Response::Root { .. }) => true,
            (Request::IndexNode { .. }, Response::IndexNode { .. }) => true,
            // Verified scans enforce the page limit like plain scans (the
            // proof itself is checked by the client against its pinned root).
            (Request::ScanVerified { limit, .. }, Response::KeysProof { keys, .. }) => {
                keys.len() <= (*limit).max(1) as usize
            }
            _ => false,
        }
    }
}

/// An SSP response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// Mutation acknowledged.
    Ok,
    /// One object (or `None` if absent).
    Object(Option<Vec<u8>>),
    /// Several objects, order matching the request.
    Objects(Vec<Option<Vec<u8>>>),
    /// One page of a key scan.
    Keys {
        /// Keys in `ObjectKey` order, all strictly after the request's
        /// `after` cursor.
        keys: Vec<ObjectKey>,
        /// True when no keys remain beyond this page.
        done: bool,
    },
    /// Rendered metrics registry (Prometheus text exposition format).
    Metrics {
        /// The export text.
        text: String,
    },
    /// One bounded scrape of a trace ring.
    Trace {
        /// The newest buffered events, oldest first.
        events: Vec<crate::traceframe::TraceEventWire>,
        /// Events evicted from the ring before this scrape (plus any cut
        /// by the request's `max`), so assemblers know the view is partial.
        dropped: u64,
    },
    /// The root hash of the authenticated key index.
    Root {
        /// Root hash of the Merkle search tree over all stored keys.
        root: [u8; 32],
        /// Number of keys the index covers.
        count: u64,
    },
    /// One node of the authenticated index, or `None` if the hash is
    /// unknown (e.g. the tree mutated since the root was fetched).
    IndexNode {
        /// Opaque `sharoes-index` node encoding; its hash is its identity,
        /// so the fetcher verifies it by recomputing the digest.
        node: Option<Vec<u8>>,
    },
    /// One page of a verified key scan.
    KeysProof {
        /// Keys in `ObjectKey` order, all strictly after the request's
        /// `after` cursor.
        keys: Vec<ObjectKey>,
        /// True when no keys remain beyond this page.
        done: bool,
        /// Index root hash this page was proven against.
        root: [u8; 32],
        /// Opaque Merkle range proof (`sharoes-index` encoding) tying the
        /// page to `root`.
        proof: Vec<u8>,
    },
    /// Server-side failure.
    Error(String),
}

impl WireWrite for Request {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => 0u8.write(out),
            Request::Put { key, value } => {
                1u8.write(out);
                key.write(out);
                value.write(out);
            }
            Request::PutMany { items } => {
                2u8.write(out);
                items.write(out);
            }
            Request::Get { key } => {
                3u8.write(out);
                key.write(out);
            }
            Request::GetMany { keys } => {
                4u8.write(out);
                keys.write(out);
            }
            Request::Delete { key } => {
                5u8.write(out);
                key.write(out);
            }
            Request::DeleteBlocks { inode, view } => {
                6u8.write(out);
                inode.write(out);
                view.write(out);
            }
            // Tag 7 is reserved: it carried the retired storage-accounting
            // op, whose counts now ride in the `Metrics` reply.
            Request::DeleteMany { keys } => {
                8u8.write(out);
                keys.write(out);
            }
            Request::Scan { after, limit } => {
                9u8.write(out);
                after.write(out);
                limit.write(out);
            }
            Request::Metrics => 10u8.write(out),
            Request::Trace { max } => {
                11u8.write(out);
                max.write(out);
            }
            Request::Root => 12u8.write(out),
            Request::IndexNode { hash } => {
                13u8.write(out);
                hash.write(out);
            }
            Request::ScanVerified { after, limit } => {
                14u8.write(out);
                after.write(out);
                limit.write(out);
            }
        }
    }
}

impl WireRead for Request {
    fn read(r: &mut Cursor<'_>) -> Result<Self, NetError> {
        Ok(match u8::read(r)? {
            0 => Request::Ping,
            1 => Request::Put { key: ObjectKey::read(r)?, value: Vec::<u8>::read(r)? },
            2 => Request::PutMany { items: Vec::read(r)? },
            3 => Request::Get { key: ObjectKey::read(r)? },
            4 => Request::GetMany { keys: Vec::read(r)? },
            5 => Request::Delete { key: ObjectKey::read(r)? },
            6 => Request::DeleteBlocks { inode: u64::read(r)?, view: <[u8; 16]>::read(r)? },
            8 => Request::DeleteMany { keys: Vec::read(r)? },
            9 => Request::Scan { after: Option::read(r)?, limit: u32::read(r)? },
            10 => Request::Metrics,
            11 => Request::Trace { max: u32::read(r)? },
            12 => Request::Root,
            13 => Request::IndexNode { hash: <[u8; 32]>::read(r)? },
            14 => Request::ScanVerified { after: Option::read(r)?, limit: u32::read(r)? },
            _ => return Err(NetError::Codec("unknown request tag")),
        })
    }
}

impl WireWrite for Response {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => 0u8.write(out),
            Response::Ok => 1u8.write(out),
            Response::Object(v) => {
                2u8.write(out);
                v.write(out);
            }
            Response::Objects(vs) => {
                3u8.write(out);
                vs.write(out);
            }
            // Tag 4 is reserved: it carried the retired storage-accounting
            // reply.
            Response::Error(msg) => {
                5u8.write(out);
                msg.write(out);
            }
            Response::Keys { keys, done } => {
                6u8.write(out);
                keys.write(out);
                done.write(out);
            }
            Response::Metrics { text } => {
                7u8.write(out);
                text.write(out);
            }
            Response::Trace { events, dropped } => {
                8u8.write(out);
                events.write(out);
                dropped.write(out);
            }
            Response::Root { root, count } => {
                9u8.write(out);
                root.write(out);
                count.write(out);
            }
            Response::IndexNode { node } => {
                10u8.write(out);
                node.write(out);
            }
            Response::KeysProof { keys, done, root, proof } => {
                11u8.write(out);
                keys.write(out);
                done.write(out);
                root.write(out);
                proof.write(out);
            }
        }
    }
}

impl WireRead for Response {
    fn read(r: &mut Cursor<'_>) -> Result<Self, NetError> {
        Ok(match u8::read(r)? {
            0 => Response::Pong,
            1 => Response::Ok,
            2 => Response::Object(Option::read(r)?),
            3 => Response::Objects(Vec::read(r)?),
            5 => Response::Error(String::read(r)?),
            6 => Response::Keys { keys: Vec::read(r)?, done: bool::read(r)? },
            7 => Response::Metrics { text: String::read(r)? },
            8 => Response::Trace { events: Vec::read(r)?, dropped: u64::read(r)? },
            9 => Response::Root { root: <[u8; 32]>::read(r)?, count: u64::read(r)? },
            10 => Response::IndexNode { node: Option::read(r)? },
            11 => Response::KeysProof {
                keys: Vec::read(r)?,
                done: bool::read(r)?,
                root: <[u8; 32]>::read(r)?,
                proof: Vec::read(r)?,
            },
            _ => return Err(NetError::Codec("unknown response tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        assert_eq!(Request::from_wire(&req.to_wire()).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        assert_eq!(Response::from_wire(&resp.to_wire()).unwrap(), resp);
    }

    #[test]
    fn all_requests_roundtrip() {
        let key = ObjectKey::metadata(42, [7u8; 16]);
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Put { key, value: vec![1, 2, 3] });
        roundtrip_req(Request::PutMany {
            items: vec![(key, vec![1]), (ObjectKey::data(9, [0; 16], 3), vec![])],
        });
        roundtrip_req(Request::Get { key });
        roundtrip_req(Request::GetMany { keys: vec![key, ObjectKey::superblock([1; 16])] });
        roundtrip_req(Request::Delete { key });
        roundtrip_req(Request::DeleteBlocks { inode: 5, view: [9; 16] });
        roundtrip_req(Request::DeleteMany { keys: vec![key, ObjectKey::superblock([2; 16])] });
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Scan { after: None, limit: 128 });
        roundtrip_req(Request::Scan { after: Some(key), limit: 0 });
        roundtrip_req(Request::Trace { max: 512 });
        roundtrip_req(Request::Root);
        roundtrip_req(Request::IndexNode { hash: [0xAB; 32] });
        roundtrip_req(Request::ScanVerified { after: None, limit: 64 });
        roundtrip_req(Request::ScanVerified { after: Some(key), limit: 1 });
    }

    #[test]
    fn all_responses_roundtrip() {
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Object(None));
        roundtrip_resp(Response::Object(Some(vec![5, 6])));
        roundtrip_resp(Response::Objects(vec![None, Some(vec![])]));
        roundtrip_resp(Response::Metrics { text: String::new() });
        roundtrip_resp(Response::Metrics { text: "a_total 1\nb_ns_count 2\n".into() });
        roundtrip_resp(Response::Error("boom".into()));
        roundtrip_resp(Response::Trace { events: vec![], dropped: 7 });
        roundtrip_resp(Response::Trace {
            events: vec![crate::traceframe::TraceEventWire {
                seq: 1,
                time_ns: 2,
                depth: 0,
                level: sharoes_obs::Level::Debug,
                kind: sharoes_obs::EventKind::Enter,
                trace_id: 9,
                span_id: 8,
                parent_id: 0,
                name: "core.read".into(),
                fields: String::new(),
                node: "a".into(),
            }],
            dropped: 0,
        });
        roundtrip_resp(Response::Keys { keys: vec![], done: true });
        roundtrip_resp(Response::Keys {
            keys: vec![ObjectKey::metadata(1, [4; 16]), ObjectKey::data(2, [5; 16], 7)],
            done: false,
        });
        roundtrip_resp(Response::Root { root: [0xCD; 32], count: 12345 });
        roundtrip_resp(Response::IndexNode { node: None });
        roundtrip_resp(Response::IndexNode { node: Some(vec![1, 2, 3]) });
        roundtrip_resp(Response::KeysProof {
            keys: vec![ObjectKey::metadata(1, [4; 16])],
            done: false,
            root: [0xEF; 32],
            proof: vec![9, 8, 7],
        });
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(Request::from_wire(&[99]).is_err());
        assert!(Response::from_wire(&[99]).is_err());
    }

    #[test]
    fn reserved_tags_decode_to_typed_errors() {
        // Request tag 7 and response tag 4 belonged to the retired
        // storage-accounting op; a peer still sending them (bare, or with
        // the old two-u64 reply body) gets a codec error, never a panic.
        let mut old_reply = vec![4u8];
        old_reply.extend_from_slice(&[0xFF; 16]);
        for r in [Request::from_wire(&[7]), Request::from_wire(&[7, 0, 1])] {
            assert!(matches!(r, Err(NetError::Codec(_))), "{r:?}");
        }
        for r in [Response::from_wire(&[4]), Response::from_wire(&old_reply)] {
            assert!(matches!(r, Err(NetError::Codec(_))), "{r:?}");
        }
    }

    #[test]
    fn response_shape_matching() {
        let key = ObjectKey::metadata(1, [0; 16]);
        assert!(Request::Ping.matches_response(&Response::Pong));
        assert!(!Request::Ping.matches_response(&Response::Ok));
        assert!(Request::Put { key, value: vec![] }.matches_response(&Response::Ok));
        assert!(!Request::Put { key, value: vec![] }.matches_response(&Response::Pong));
        assert!(Request::Get { key }.matches_response(&Response::Object(None)));
        assert!(!Request::Get { key }.matches_response(&Response::Objects(vec![])));
        // GetMany checks arity, so a stale shorter reply is detectable.
        let two = Request::GetMany { keys: vec![key, key] };
        assert!(two.matches_response(&Response::Objects(vec![None, None])));
        assert!(!two.matches_response(&Response::Objects(vec![None])));
        // Errors match anything.
        assert!(two.matches_response(&Response::Error("x".into())));
        // Scan checks the page limit, so an oversized stale reply is detectable.
        let scan = Request::Scan { after: None, limit: 1 };
        assert!(scan.matches_response(&Response::Keys { keys: vec![key], done: true }));
        assert!(!scan.matches_response(&Response::Keys { keys: vec![key, key], done: false }));
        assert!(!scan.matches_response(&Response::Ok));
        // Metrics pairs only with a Metrics reply (or an error).
        assert!(Request::Metrics.matches_response(&Response::Metrics { text: "x".into() }));
        assert!(!Request::Metrics.matches_response(&Response::Ok));
        assert!(!Request::Ping.matches_response(&Response::Metrics { text: "x".into() }));
        // Trace checks the event cap.
        assert!(Request::Trace { max: 0 }
            .matches_response(&Response::Trace { events: vec![], dropped: 0 }));
        assert!(!Request::Trace { max: 0 }.matches_response(&Response::Metrics { text: "".into() }));
        // Index ops pair only with their own replies; verified scans check
        // the page limit like plain scans.
        assert!(Request::Root.matches_response(&Response::Root { root: [0; 32], count: 0 }));
        assert!(!Request::Root.matches_response(&Response::Ok));
        assert!(Request::IndexNode { hash: [0; 32] }
            .matches_response(&Response::IndexNode { node: None }));
        assert!(!Request::IndexNode { hash: [0; 32] }.matches_response(&Response::Ok));
        let vscan = Request::ScanVerified { after: None, limit: 1 };
        let page = |keys| Response::KeysProof { keys, done: true, root: [0; 32], proof: vec![] };
        assert!(vscan.matches_response(&page(vec![key])));
        assert!(!vscan.matches_response(&page(vec![key, key])));
        assert!(!vscan.matches_response(&Response::Keys { keys: vec![], done: true }));
    }

    #[test]
    fn key_constructors() {
        let k = ObjectKey::group_key(7, [1; 16]);
        assert_eq!(k.space, KeySpace::GroupKey);
        assert_eq!(k.inode, 7);
        let k = ObjectKey::data(3, [2; 16], 9);
        assert_eq!(k.block, 9);
        let k = ObjectKey::superblock([3; 16]);
        assert_eq!(k.inode, 0);
    }
}
