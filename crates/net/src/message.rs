//! The client↔SSP request/response protocol.
//!
//! The SSP is a dumb, untrusted object store (paper §IV): "it simply
//! maintains a large hashtable for encrypted metadata objects and encrypted
//! data blocks, both indexed by the inode numbers and either hash of
//! user/group ID (for Scheme-1) or CAP ID (Scheme-2)". [`ObjectKey`] is that
//! index; the protocol is deliberately content-oblivious.
//!
//! A client op ships all of its mutations in one [`Request::Mutate`]: the
//! puts, then the deletes, then every data key of each dropped view, applied
//! in that order. `PutMany` stays for bulk loaders that only store.
//!
//! Request tags: 0 `Ping`, 1 `Put`, 2 `PutMany`, 3 `Get`, 4 `GetMany`,
//! 5 `Delete`, 9 `Scan`, 10 `Metrics`, 11 `Trace`, 12 `Root`,
//! 14 `ScanVerified`, 15 `Mutate`, 16 `IndexNode`. Tags 6, 7, 8 and 13 are
//! reserved: they carried retired requests, and decode to
//! [`NetError::Codec`].
//!
//! Response tags: 0 `Pong`, 1 `Ok`, 2 `Object`, 3 `Objects`, 5 `Error`,
//! 6 `Keys`, 7 `Metrics`, 8 `Trace`, 9 `Root`, 11 `KeysProof`,
//! 12 `IndexNode`. Tags 4 and 10 are reserved the same way.

use crate::error::NetError;
use crate::wire::{Cursor, WireRead, WireWrite};

/// Most node hashes one [`Request::IndexNode`] may ask for. A server
/// refuses a longer batch with [`Response::Error`]; a fetcher splits its
/// batches at this size.
pub const MAX_INDEX_BATCH: usize = 1024;

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

impl ObjectKey {
    /// Bytes in a key's wire encoding: the keyspace tag, then the inode,
    /// view and block, integers big-endian. Byte order of two encodings is
    /// the keys' order.
    pub const WIRE_LEN: usize = 29;

    /// The key's wire encoding, built on the stack.
    pub fn to_wire_bytes(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[0] = self.space.tag();
        out[1..9].copy_from_slice(&self.inode.to_be_bytes());
        out[9..25].copy_from_slice(&self.view);
        out[25..].copy_from_slice(&self.block.to_be_bytes());
        out
    }

    /// Decodes one key's wire encoding; fails only on an unknown keyspace
    /// tag.
    pub fn from_wire_bytes(bytes: &[u8; Self::WIRE_LEN]) -> Result<Self, NetError> {
        let field = "fixed-width key field";
        Ok(ObjectKey {
            space: KeySpace::from_tag(bytes[0])?,
            inode: u64::from_be_bytes(bytes[1..9].try_into().expect(field)),
            view: bytes[9..25].try_into().expect(field),
            block: u32::from_be_bytes(bytes[25..].try_into().expect(field)),
        })
    }
}

impl WireWrite for ObjectKey {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_wire_bytes());
    }
}

impl WireRead for ObjectKey {
    fn read(r: &mut Cursor<'_>) -> Result<Self, NetError> {
        // The tag first, so a bad tag reads as such even in a short input.
        let mut bytes = [0u8; Self::WIRE_LEN];
        bytes[0] = u8::read(r)?;
        KeySpace::from_tag(bytes[0])?;
        bytes[1..].copy_from_slice(r.take(Self::WIRE_LEN - 1)?);
        Self::from_wire_bytes(&bytes)
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
    /// Stores several objects in one round trip; served as a
    /// [`Request::Mutate`] with only puts.
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
    /// One client op's mutations in one round trip, applied in field order:
    /// every put, then every delete, then every dropped view. Each key is
    /// applied (and journalled) on its own, so a crash keeps a prefix.
    Mutate {
        /// `(key, value)` pairs to store or replace.
        puts: Vec<(ObjectKey, Vec<u8>)>,
        /// Keys to delete; an absent key is not an error.
        deletes: Vec<ObjectKey>,
        /// `(inode, view)` pairs whose every data key goes, blocks and
        /// manifest alike (file removal, a re-keyed generation).
        drop_views: Vec<(u64, [u8; 16])>,
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
    /// Fetches nodes of the authenticated index by their hashes, for the
    /// subtree-diff descent of replica sync and audits: one request per tree
    /// level. The node encoding is owned by `sharoes-index`; the wire layer
    /// treats it as opaque bytes.
    IndexNode {
        /// Hashes of the requested nodes, at most [`MAX_INDEX_BATCH`].
        hashes: Vec<[u8; 32]>,
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
        events: Vec<sharoes_obs::OwnedEvent>,
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
    /// Nodes of the authenticated index, one slot per requested hash in
    /// request order; `None` where the hash is unknown (e.g. the tree
    /// mutated since the root was fetched).
    IndexNode {
        /// Opaque `sharoes-index` node encodings; a node's hash is its
        /// identity, so the fetcher verifies each by recomputing the digest.
        nodes: Vec<Option<Vec<u8>>>,
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
            // Tags 6, 7 and 8 are reserved: they carried the retired
            // one-view block sweep, storage-accounting op and key-list
            // delete. `Mutate` carries the sweeps and deletes; the storage
            // counts ride in the `Metrics` reply.
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
            // Tag 13 is reserved: it carried the retired one-hash node fetch.
            Request::ScanVerified { after, limit } => {
                14u8.write(out);
                after.write(out);
                limit.write(out);
            }
            Request::Mutate { puts, deletes, drop_views } => {
                15u8.write(out);
                puts.write(out);
                deletes.write(out);
                drop_views.write(out);
            }
            Request::IndexNode { hashes } => {
                16u8.write(out);
                hashes.write(out);
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
            9 => Request::Scan { after: Option::read(r)?, limit: u32::read(r)? },
            10 => Request::Metrics,
            11 => Request::Trace { max: u32::read(r)? },
            12 => Request::Root,
            14 => Request::ScanVerified { after: Option::read(r)?, limit: u32::read(r)? },
            15 => Request::Mutate {
                puts: Vec::read(r)?,
                deletes: Vec::read(r)?,
                drop_views: Vec::read(r)?,
            },
            16 => Request::IndexNode { hashes: Vec::read(r)? },
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
            // Tag 10 is reserved: it carried the retired one-node reply.
            Response::KeysProof { keys, done, root, proof } => {
                11u8.write(out);
                keys.write(out);
                done.write(out);
                root.write(out);
                proof.write(out);
            }
            Response::IndexNode { nodes } => {
                // A batch runs to hundreds of kilobytes: room for it at once.
                let len: usize = nodes.iter().map(|n| 5 + n.as_ref().map_or(0, Vec::len)).sum();
                out.reserve(5 + len);
                12u8.write(out);
                nodes.write(out);
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
            11 => Response::KeysProof {
                keys: Vec::read(r)?,
                done: bool::read(r)?,
                root: <[u8; 32]>::read(r)?,
                proof: Vec::read(r)?,
            },
            12 => Response::IndexNode { nodes: Vec::read(r)? },
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
    fn key_encodings_are_fixed_width_and_sort_as_the_keys() {
        let keys = [
            ObjectKey::metadata(u64::MAX, [9; 16]),
            ObjectKey::data(0, [0; 16], 7),
            ObjectKey::data(1 << 40, [0; 16], 0),
            ObjectKey::data(1 << 40, [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0),
            ObjectKey::superblock([0xFF; 16]),
            ObjectKey::group_key(3, [2; 16]),
        ];
        for a in &keys {
            assert_eq!(a.to_wire_bytes().len(), ObjectKey::WIRE_LEN);
            assert_eq!(ObjectKey::from_wire(&a.to_wire_bytes()).unwrap(), *a);
            for b in &keys {
                assert_eq!(a.to_wire_bytes().cmp(&b.to_wire_bytes()), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
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
        roundtrip_req(Request::Mutate { puts: vec![], deletes: vec![], drop_views: vec![] });
        roundtrip_req(Request::Mutate {
            puts: vec![(key, vec![1]), (ObjectKey::data(9, [0; 16], 3), vec![])],
            deletes: vec![key, ObjectKey::superblock([2; 16])],
            drop_views: vec![(5, [9; 16]), (6, [0; 16])],
        });
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Scan { after: None, limit: 128 });
        roundtrip_req(Request::Scan { after: Some(key), limit: 0 });
        roundtrip_req(Request::Trace { max: 512 });
        roundtrip_req(Request::Root);
        roundtrip_req(Request::IndexNode { hashes: vec![] });
        roundtrip_req(Request::IndexNode { hashes: vec![[0xAB; 32]] });
        roundtrip_req(Request::IndexNode { hashes: (0..=255).map(|b| [b; 32]).collect() });
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
            events: vec![sharoes_obs::OwnedEvent {
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
        roundtrip_resp(Response::IndexNode { nodes: vec![] });
        roundtrip_resp(Response::IndexNode { nodes: vec![None] });
        roundtrip_resp(Response::IndexNode { nodes: vec![Some(vec![1, 2, 3])] });
        roundtrip_resp(Response::IndexNode {
            nodes: vec![Some(vec![]), None, Some(vec![7; 300]), None],
        });
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
        // storage-accounting op, request tags 6 and 8 to the one-view block
        // sweep and the key-list delete, request tag 13 and response tag 10
        // to the one-hash node fetch; a peer still sending them (bare, or
        // with their old bodies) gets a codec error, never a panic.
        let mut old_reply = vec![4u8];
        old_reply.extend_from_slice(&[0xFF; 16]);
        let mut old_fetch = vec![13u8];
        old_fetch.extend_from_slice(&[0xAB; 32]);
        let mut old_node = vec![10u8];
        Some(vec![1u8, 2, 3]).write(&mut old_node);
        let mut old_sweep = vec![6u8];
        old_sweep.extend_from_slice(&5u64.to_be_bytes());
        old_sweep.extend_from_slice(&[9; 16]);
        let mut old_deletes = vec![8u8];
        vec![ObjectKey::metadata(1, [2; 16])].write(&mut old_deletes);
        for r in [
            Request::from_wire(&[7]),
            Request::from_wire(&[7, 0, 1]),
            Request::from_wire(&[6]),
            Request::from_wire(&old_sweep),
            Request::from_wire(&[8]),
            Request::from_wire(&old_deletes),
            Request::from_wire(&[13]),
            Request::from_wire(&old_fetch),
        ] {
            assert!(matches!(r, Err(NetError::Codec(_))), "{r:?}");
        }
        for r in [
            Response::from_wire(&[4]),
            Response::from_wire(&old_reply),
            Response::from_wire(&[10]),
            Response::from_wire(&[10, 0]),
            Response::from_wire(&old_node),
        ] {
            assert!(matches!(r, Err(NetError::Codec(_))), "{r:?}");
        }
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
