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
use sharoes_net::{Cursor, ObjectKey, WireRead, WireWrite};

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

/// Root hash of the empty index.
pub fn empty_root() -> [u8; 32] {
    Sha256::digest(EMPTY_ROOT_PREIMAGE)
}

/// True when `key` starts a new leaf (content-defined chunk boundary).
fn is_leaf_boundary(key: &ObjectKey) -> bool {
    let mut buf = Vec::with_capacity(LEAF_BOUNDARY_SALT.len() + 29);
    buf.extend_from_slice(LEAF_BOUNDARY_SALT);
    key.write(&mut buf);
    let d = Sha256::digest(&buf);
    u16::from_be_bytes([d[0], d[1]]) < BOUNDARY_THRESHOLD
}

/// True when a child with this hash starts a new internal node.
fn is_node_boundary(hash: &[u8; 32]) -> bool {
    let mut buf = [0u8; NODE_BOUNDARY_SALT.len() + 32];
    buf[..NODE_BOUNDARY_SALT.len()].copy_from_slice(NODE_BOUNDARY_SALT);
    buf[NODE_BOUNDARY_SALT.len()..].copy_from_slice(hash);
    let d = Sha256::digest(&buf);
    u16::from_be_bytes([d[0], d[1]]) < BOUNDARY_THRESHOLD
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
    match node {
        IndexNode::Leaf(keys) => encode_leaf(keys),
        IndexNode::Internal(entries) => encode_internal(entries.iter().map(|(k, h)| (k, h))),
    }
}

/// The encoding of `IndexNode::Leaf(keys)`, without owning the keys.
fn encode_leaf(keys: &[ObjectKey]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + 29 * keys.len());
    LEAF_TAG.write(&mut out);
    (keys.len() as u32).write(&mut out);
    ObjectKey::write_all(keys, &mut out);
    out
}

/// The encoding of `IndexNode::Internal(entries)`, straight off an entry
/// iterator (a range of the level below, in the tree).
fn encode_internal<'a>(entries: impl Iterator<Item = (&'a ObjectKey, &'a [u8; 32])>) -> Vec<u8> {
    let mut out = Vec::new();
    INTERNAL_TAG.write(&mut out);
    0u32.write(&mut out); // the entry count, patched in once counted
    let mut n = 0u32;
    for entry in entries {
        entry.0.write(&mut out);
        entry.1.write(&mut out);
        n += 1;
    }
    out[1..5].copy_from_slice(&n.to_wire());
    out
}

/// Decodes and structurally validates one node: known tag, nothing
/// trailing, non-empty, strictly sorted entries. (Hash authenticity is the
/// caller's job — re-digest the raw bytes and compare.)
pub fn decode_node(bytes: &[u8]) -> Result<IndexNode, ProofError> {
    let mut cur = Cursor::new(bytes);
    let bad = |_| ProofError::Decode("malformed index node");
    let node = match u8::read(&mut cur).map_err(bad)? {
        LEAF_TAG => IndexNode::Leaf(Vec::read(&mut cur).map_err(bad)?),
        INTERNAL_TAG => IndexNode::Internal(Vec::read(&mut cur).map_err(bad)?),
        _ => return Err(ProofError::Decode("unknown index node tag")),
    };
    cur.expect_end().map_err(bad)?;
    let sorted = match &node {
        IndexNode::Leaf(keys) => !keys.is_empty() && keys.windows(2).all(|w| w[0] < w[1]),
        IndexNode::Internal(entries) => {
            !entries.is_empty() && entries.windows(2).all(|w| w[0].0 < w[1].0)
        }
    };
    if !sorted {
        return Err(ProofError::Decode("empty or unsorted index node"));
    }
    Ok(node)
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
    fn hostile_nodes_rejected() {
        // Unknown tag.
        assert!(decode_node(&[9, 0, 0, 0, 0]).is_err());
        // Empty leaf.
        assert!(decode_node(&encode_node(&IndexNode::Leaf(vec![]))).is_err());
        // Unsorted leaf.
        let bad = IndexNode::Leaf(vec![key(2), key(1)]);
        assert!(decode_node(&encode_node(&bad)).is_err());
        // Duplicate internal entries.
        let bad = IndexNode::Internal(vec![(key(1), [0; 32]), (key(1), [1; 32])]);
        assert!(decode_node(&encode_node(&bad)).is_err());
        // Trailing garbage.
        let mut enc = encode_node(&IndexNode::Leaf(vec![key(1)]));
        enc.push(0);
        assert!(decode_node(&enc).is_err());
        // Truncation.
        let enc = encode_node(&IndexNode::Leaf(vec![key(1)]));
        assert!(decode_node(&enc[..enc.len() - 1]).is_err());
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
