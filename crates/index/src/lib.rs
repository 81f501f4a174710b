//! # sharoes-index
//!
//! An authenticated, ordered index over the SSP keyspace: a deterministic,
//! **history-independent** Merkle search tree keyed by [`ObjectKey`].
//!
//! The SSP is untrusted (paper §IV): it could silently truncate or forge a
//! `Scan` page and the flat-hashtable store of earlier revisions had no way
//! for a client to notice. This crate gives every stored keyspace a single
//! 32-byte commitment — the tree's *root hash* — with three properties:
//!
//! * **History independence** (prolly-tree-style content-defined chunking):
//!   node boundaries are drawn from key digests, so the same key *set*
//!   yields byte-identical trees — and the same root — no matter the order
//!   of inserts and deletes that produced it. Two honest replicas holding
//!   the same keys always agree on the root; a from-scratch rebuild after
//!   crash recovery matches the incrementally maintained tree.
//! * **Verifiable range scans**: a scan page travels with a Merkle range
//!   proof ([`MerkleIndex::prove_scan`] / [`verify_scan_page`]) showing no
//!   key was omitted, inserted, or reordered between the cursor and the
//!   page end, relative to a pinned root.
//! * **O(log n) replica diff**: nodes are content-addressed by their hash
//!   ([`MerkleIndex::node_bytes`], [`decode_node`]), so two replicas whose
//!   roots differ can descend only into differing subtrees to localize the
//!   divergent key ranges instead of streaming both keyspaces.
//!
//! ## Tree shape
//!
//! Keys live in leaves, sorted. A key *starts a new leaf* iff the first two
//! bytes of `SHA-256(leaf-salt ‖ key-wire-bytes)` fall under a threshold
//! (1/16 — mean leaf occupancy 16 keys); the globally smallest key starts
//! the first leaf regardless. Internal levels chunk the same way on child
//! *hashes*, recursing until one node remains. Every boundary decision is a
//! pure function of key content, never of mutation order.
//!
//! Hashes are digests of the canonical node encoding (leaf/internal tag,
//! length-prefixed sorted entries), so a node's wire form *is* its hash
//! preimage and fetchers verify nodes by re-digesting the bytes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod proof;
mod tree;

pub use proof::{verify_scan_page, ProofError, MAX_PROOF_DEPTH};
pub use tree::{MerkleIndex, VerifiedPage};

use sharoes_crypto::Sha256;
use sharoes_net::ObjectKey;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};

/// Node-encoding tag for leaves (also the leaf hash domain separator).
const LEAF_TAG: u8 = 0x00;
/// Node-encoding tag for internal nodes (also their hash domain separator).
const INTERNAL_TAG: u8 = 0x01;
/// Salt for the per-key leaf-boundary digest.
const LEAF_BOUNDARY_SALT: &[u8] = b"sharoes-index-leaf-v1";
/// Salt for the per-child internal-node boundary digest.
const NODE_BOUNDARY_SALT: &[u8] = b"sharoes-index-node-v1";
/// Preimage of the empty tree's root.
const EMPTY_ROOT_PREIMAGE: &[u8] = b"sharoes-index-empty-v1";
/// A key/child is a chunk boundary when its 16-bit digest prefix falls
/// below this (4096/65536 = 1/16 → target fanout 16).
const BOUNDARY_THRESHOLD: u16 = 4096;

/// A `HashMap` keyed by node hashes or [`ObjectKey`]s, hashed with
/// [`KeyHasher`].
pub type KeyMap<K, V> = HashMap<K, V, KeyHasher>;

/// Builds hashers for fixed-width keys: node hashes and [`ObjectKey`]s.
/// Each 8 bytes of key cost one folded multiply, where SipHash (the std
/// default) spends several rounds. Every map draws its own seed from std's
/// `RandomState`, so keys picked by an adversary (a hostile replica names
/// child hashes and leaf keys) cannot be aimed at one bucket without it.
#[derive(Clone)]
pub struct KeyHasher {
    seed: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher { seed: RandomState::new().hash_one(0u8) }
    }
}

impl BuildHasher for KeyHasher {
    type Hasher = KeyHash;

    fn build_hasher(&self) -> KeyHash {
        KeyHash(self.seed)
    }
}

/// The running state of one [`KeyHasher`] hash.
pub struct KeyHash(u64);

impl KeyHash {
    fn mix(&mut self, word: u64) {
        const MULTIPLIER: u128 = 0x9E37_79B9_7F4A_7C15;
        let product = u128::from(self.0 ^ word) * MULTIPLIER;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for KeyHash {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8-byte word")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Root hash of the empty index.
pub fn empty_root() -> [u8; 32] {
    Sha256::digest(EMPTY_ROOT_PREIMAGE)
}

/// Bytes of one leaf entry: a key's wire encoding.
const KEY_LEN: usize = ObjectKey::WIRE_LEN;
/// Bytes of one internal entry: a key, then a child hash.
const ENTRY_LEN: usize = KEY_LEN + 32;
/// Bytes before a node's entries: the tag, then the entry count.
const HEADER_LEN: usize = 5;

/// True when `key` starts a new leaf (content-defined chunk boundary).
fn is_leaf_boundary(key: &ObjectKey) -> bool {
    let mut buf = [0u8; LEAF_BOUNDARY_SALT.len() + KEY_LEN];
    buf[..LEAF_BOUNDARY_SALT.len()].copy_from_slice(LEAF_BOUNDARY_SALT);
    buf[LEAF_BOUNDARY_SALT.len()..].copy_from_slice(&key.to_wire_bytes());
    is_boundary_digest(&Sha256::digest(&buf))
}

/// The digest preimage deciding whether a child with this hash starts a
/// new internal node.
fn boundary_preimage(hash: &[u8; 32]) -> [u8; NODE_BOUNDARY_SALT.len() + 32] {
    let mut buf = [0u8; NODE_BOUNDARY_SALT.len() + 32];
    buf[..NODE_BOUNDARY_SALT.len()].copy_from_slice(NODE_BOUNDARY_SALT);
    buf[NODE_BOUNDARY_SALT.len()..].copy_from_slice(hash);
    buf
}

/// True when a boundary digest falls under the threshold.
fn is_boundary_digest(d: &[u8; 32]) -> bool {
    u16::from_be_bytes([d[0], d[1]]) < BOUNDARY_THRESHOLD
}

/// Node encodings (or other digest preimages) written back to back, then
/// hashed side by side ([`Sha256::digest_many`]).
#[derive(Default)]
struct Batch {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Batch {
    /// Appends one message that `write` writes.
    fn push(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        write(&mut self.bytes);
        self.ends.push(self.bytes.len());
    }

    /// The digest of each message, in push order.
    fn digests(&self) -> Vec<[u8; 32]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        let msgs: Vec<&[u8]> = starts.zip(&self.ends).map(|(a, b)| &self.bytes[a..*b]).collect();
        Sha256::digest_many(&msgs)
    }
}

/// One node of the tree, as served over the `IndexNode` wire op.
///
/// The encoding ([`encode_node`]) is canonical and doubles as the hash
/// preimage: `node_hash(n) == SHA-256(encode_node(n))`, so a fetcher
/// authenticates a node by re-digesting the bytes it received.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IndexNode {
    /// A leaf: a sorted, non-empty run of stored keys.
    Leaf(Vec<ObjectKey>),
    /// An internal node: sorted `(first key of subtree, child hash)`
    /// entries. `first key` is the smallest key anywhere under the child.
    Internal(Vec<(ObjectKey, [u8; 32])>),
}

/// Canonical node encoding (also the node-hash preimage).
pub fn encode_node(node: &IndexNode) -> Vec<u8> {
    let mut out = Vec::new();
    match node {
        IndexNode::Leaf(keys) => encode_leaf(keys, &mut out),
        IndexNode::Internal(entries) => {
            encode_internal(entries.iter().map(|(k, h)| (k, h)), &mut out)
        }
    }
    out
}

/// Bytes in the encoding of a leaf holding `keys`.
fn leaf_len(keys: &[ObjectKey]) -> usize {
    HEADER_LEN + KEY_LEN * keys.len()
}

/// Appends the encoding of `IndexNode::Leaf(keys)` to `out`, without
/// owning the keys.
fn encode_leaf(keys: &[ObjectKey], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + leaf_len(keys), 0);
    let (head, body) = out[start..].split_at_mut(HEADER_LEN);
    head[0] = LEAF_TAG;
    head[1..].copy_from_slice(&(keys.len() as u32).to_be_bytes());
    for (slot, key) in body.chunks_exact_mut(KEY_LEN).zip(keys) {
        slot.copy_from_slice(&key.to_wire_bytes());
    }
}

/// Appends the encoding of `IndexNode::Internal(entries)` to `out`,
/// straight off an entry iterator (a range of the level below, in the
/// tree).
fn encode_internal<'a>(
    entries: impl Iterator<Item = (&'a ObjectKey, &'a [u8; 32])>,
    out: &mut Vec<u8>,
) {
    let start = out.len();
    out.push(INTERNAL_TAG);
    out.extend_from_slice(&[0; 4]); // the entry count, patched in once counted
    let mut n = 0u32;
    for (key, hash) in entries {
        out.extend_from_slice(&key.to_wire_bytes());
        out.extend_from_slice(hash);
        n += 1;
    }
    out[start + 1..start + HEADER_LEN].copy_from_slice(&n.to_be_bytes());
}

/// The SHA-256 of a node encoding that `encode` writes into `buf`, which
/// it empties first.
fn digest_with(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> [u8; 32] {
    buf.clear();
    encode(buf);
    Sha256::digest(buf)
}

/// Structurally validates one node encoding: known tag, an entry count
/// that matches the length exactly, non-empty, every key decodable and
/// strictly sorted. Returns the entry width.
fn check_node(bytes: &[u8]) -> Result<usize, ProofError> {
    let malformed = ProofError::Decode("malformed index node");
    let width = match bytes.first() {
        Some(&LEAF_TAG) => KEY_LEN,
        Some(&INTERNAL_TAG) => ENTRY_LEN,
        Some(_) => return Err(ProofError::Decode("unknown index node tag")),
        None => return Err(malformed),
    };
    let count = bytes.get(1..HEADER_LEN).ok_or(malformed)?;
    let count = u32::from_be_bytes(count.try_into().expect("4-byte count")) as usize;
    if count.checked_mul(width) != Some(bytes.len() - HEADER_LEN) {
        return Err(malformed);
    }
    let mut sorted = count > 0;
    let mut prev = None;
    for entry in bytes[HEADER_LEN..].chunks_exact(width) {
        let key = ObjectKey::from_wire_bytes(entry[..KEY_LEN].try_into().expect("key-wide"))
            .map_err(|_| malformed)?;
        sorted &= prev.is_none_or(|p| p < key);
        prev = Some(key);
    }
    if !sorted {
        return Err(ProofError::Decode("empty or unsorted index node"));
    }
    Ok(width)
}

/// The key opening a checked entry.
fn entry_key(entry: &[u8]) -> ObjectKey {
    let bytes = entry[..KEY_LEN].try_into().expect("entries are at least key-wide");
    ObjectKey::from_wire_bytes(bytes).expect("entry keys were checked")
}

/// The child hash closing a checked internal entry.
fn entry_hash(entry: &[u8]) -> [u8; 32] {
    entry[KEY_LEN..].try_into().expect("internal entries end in a hash")
}

/// Decodes and structurally validates one node: known tag, nothing
/// trailing, non-empty, strictly sorted entries. (Hash authenticity is the
/// caller's job — re-digest the raw bytes and compare.)
pub fn decode_node(bytes: &[u8]) -> Result<IndexNode, ProofError> {
    let width = check_node(bytes)?;
    let entries = bytes[HEADER_LEN..].chunks_exact(width);
    Ok(if width == KEY_LEN {
        IndexNode::Leaf(entries.map(entry_key).collect())
    } else {
        IndexNode::Internal(entries.map(|e| (entry_key(e), entry_hash(e))).collect())
    })
}

/// One node's canonical encoding, checked as [`decode_node`] checks it and
/// then read in place: a fetcher keeps the bytes it received and
/// authenticated, and never copies them into an [`IndexNode`].
#[derive(Clone, Debug)]
pub struct EncodedNode {
    bytes: Vec<u8>,
    width: usize,
}

impl EncodedNode {
    /// Keeps `bytes` once they pass [`decode_node`]'s checks.
    pub fn new(bytes: Vec<u8>) -> Result<Self, ProofError> {
        let width = check_node(&bytes)?;
        Ok(EncodedNode { bytes, width })
    }

    /// True for a leaf.
    pub fn is_leaf(&self) -> bool {
        self.width == KEY_LEN
    }

    /// Number of entries (at least one): a leaf's keys or an internal
    /// node's children.
    pub fn entry_count(&self) -> usize {
        (self.bytes.len() - HEADER_LEN) / self.width
    }

    fn entries(&self) -> std::slice::ChunksExact<'_, u8> {
        self.bytes[HEADER_LEN..].chunks_exact(self.width)
    }

    /// A leaf's keys, or an internal node's first keys of its children, in
    /// order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = ObjectKey> + '_ {
        self.entries().map(entry_key)
    }

    /// A leaf's keys as their wire encodings back to back, in place,
    /// [`ObjectKey::WIRE_LEN`] bytes each; empty for an internal node. Byte
    /// order of two encodings is the keys' order, so runs of keys compare
    /// without decoding ([`ObjectKey::from_wire_bytes`] decodes one).
    pub fn encoded_keys(&self) -> &[u8] {
        if self.is_leaf() {
            &self.bytes[HEADER_LEN..]
        } else {
            &[]
        }
    }

    /// An internal node's child hashes, in order; none for a leaf.
    pub fn children(&self) -> impl DoubleEndedIterator<Item = [u8; 32]> + '_ {
        let internal = !self.is_leaf();
        self.entries().filter(move |_| internal).map(entry_hash)
    }
}

/// The content hash (= identity) of a node.
pub fn node_hash(node: &IndexNode) -> [u8; 32] {
    Sha256::digest(&encode_node(node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharoes_net::KeySpace;

    fn key(i: u64) -> ObjectKey {
        ObjectKey { space: KeySpace::Data, inode: i, view: [7; 16], block: 0 }
    }

    #[test]
    fn empty_root_is_stable_and_distinct() {
        assert_eq!(empty_root(), empty_root());
        assert_ne!(empty_root(), node_hash(&IndexNode::Leaf(vec![key(1)])));
    }

    #[test]
    fn node_roundtrip_and_hash_identity() {
        let leaf = IndexNode::Leaf(vec![key(1), key(2), key(9)]);
        let enc = encode_node(&leaf);
        assert_eq!(decode_node(&enc).unwrap(), leaf);
        assert_eq!(node_hash(&leaf), Sha256::digest(&enc));
        let internal = IndexNode::Internal(vec![(key(1), [1; 32]), (key(5), [2; 32])]);
        let enc = encode_node(&internal);
        assert_eq!(decode_node(&enc).unwrap(), internal);
    }

    #[test]
    fn encoded_nodes_read_in_place_as_they_decode() {
        let leaf = vec![key(1), key(2), key(9)];
        let node = EncodedNode::new(encode_node(&IndexNode::Leaf(leaf.clone()))).unwrap();
        assert!(node.is_leaf());
        assert_eq!(node.entry_count(), 3);
        assert_eq!(node.keys().collect::<Vec<_>>(), leaf);
        assert_eq!(
            node.encoded_keys(),
            leaf.iter().flat_map(|k| k.to_wire_bytes()).collect::<Vec<_>>()
        );
        assert_eq!(node.children().count(), 0);
        let entries = vec![(key(1), [1; 32]), (key(5), [2; 32])];
        let node = EncodedNode::new(encode_node(&IndexNode::Internal(entries.clone()))).unwrap();
        assert!(!node.is_leaf());
        assert_eq!(node.entry_count(), 2);
        assert_eq!(node.keys().zip(node.children()).collect::<Vec<_>>(), entries);
        assert_eq!(node.children().next_back(), Some([2; 32]));
        assert!(node.encoded_keys().is_empty());
    }

    #[test]
    fn hostile_nodes_rejected() {
        let rejected = |bytes: &[u8]| {
            let err = decode_node(bytes).err();
            assert_eq!(EncodedNode::new(bytes.to_vec()).err(), err, "{bytes:?}");
            err.is_some()
        };
        // Unknown tag; nothing at all.
        assert!(rejected(&[9, 0, 0, 0, 0]));
        assert!(rejected(&[]));
        // Empty leaf.
        assert!(rejected(&encode_node(&IndexNode::Leaf(vec![]))));
        // Unsorted leaf.
        let bad = IndexNode::Leaf(vec![key(2), key(1)]);
        assert!(rejected(&encode_node(&bad)));
        // Duplicate internal entries.
        let bad = IndexNode::Internal(vec![(key(1), [0; 32]), (key(1), [1; 32])]);
        assert!(rejected(&encode_node(&bad)));
        // Trailing garbage.
        let mut enc = encode_node(&IndexNode::Leaf(vec![key(1)]));
        enc.push(0);
        assert!(rejected(&enc));
        // Truncation.
        let enc = encode_node(&IndexNode::Leaf(vec![key(1)]));
        assert!(rejected(&enc[..enc.len() - 1]));
        assert!(rejected(&enc[..3]));
        // An unknown keyspace tag on a key; a count far past the input.
        let mut enc = encode_node(&IndexNode::Leaf(vec![key(1), key(2)]));
        enc[HEADER_LEN + KEY_LEN] = 9;
        assert!(rejected(&enc));
        assert!(rejected(&[LEAF_TAG, 0xFF, 0xFF, 0xFF, 0xFF, 1]));
    }

    #[test]
    fn leaf_and_internal_hashes_domain_separated() {
        // A leaf and an internal node can never share an encoding: the tag
        // byte differs even before the payload.
        assert_ne!(encode_node(&IndexNode::Leaf(vec![key(1)]))[0], {
            encode_node(&IndexNode::Internal(vec![(key(1), [0; 32])]))[0]
        });
    }
}
