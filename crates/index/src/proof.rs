//! Merkle range proofs for scan pages.
//!
//! A proof is the root-to-page slice of the tree: leaves overlapping the
//! scanned range are revealed in full, everything else is pruned to a
//! `(first key, hash)` stub. The verifier recomputes the root bottom-up
//! from the revealed content plus the stubs, then checks the *range*
//! claims: every pruned subtree must be provably outside `(after,
//! page-end]`, the page must equal the revealed in-range keys, and a
//! non-final page must come with evidence that a successor key exists.
//!
//! The encoding is deliberately self-contained bytes (not a wire enum):
//! the net layer carries proofs opaquely, keeping this crate out of the
//! protocol's dependency cycle.

use crate::{digest_with, empty_root, encode_internal, encode_leaf};
use sharoes_net::{Cursor, ObjectKey, WireRead, WireWrite};
use std::sync::OnceLock;

/// Maximum proof-tree nesting the decoder accepts. Honest trees with
/// target fanout 16 stay single-digit deep for any feasible keyspace.
pub const MAX_PROOF_DEPTH: usize = 64;

const TAG_EMPTY: u8 = 0;
const TAG_LEAF: u8 = 1;
const TAG_NODE: u8 = 2;
const CHILD_OMITTED: u8 = 0;
const CHILD_TREE: u8 = 1;

fn verify_total() -> &'static sharoes_obs::Counter {
    static C: OnceLock<sharoes_obs::Counter> = OnceLock::new();
    C.get_or_init(|| sharoes_obs::counter("index_verify_total"))
}

fn verify_failures() -> &'static sharoes_obs::Counter {
    static C: OnceLock<sharoes_obs::Counter> = OnceLock::new();
    C.get_or_init(|| sharoes_obs::counter("index_verify_failures_total"))
}

/// Why a proof was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// The proof bytes are malformed (truncated, bad tag, empty node…).
    Decode(&'static str),
    /// Nesting beyond [`MAX_PROOF_DEPTH`].
    TooDeep,
    /// The recomputed root differs from the pinned root (stale or forged).
    RootMismatch,
    /// Revealed keys are not strictly increasing.
    Unsorted,
    /// A pruned subtree could overlap `(after, page-end]` — keys may have
    /// been hidden.
    OmittedInRange,
    /// The page disagrees with the authenticated in-range keys (omitted,
    /// extra, or reordered entries).
    PageMismatch,
    /// `done = false`, but nothing proves any key follows the page.
    MissingSuccessor,
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::Decode(what) => write!(f, "malformed proof: {what}"),
            ProofError::TooDeep => write!(f, "proof nesting exceeds {MAX_PROOF_DEPTH}"),
            ProofError::RootMismatch => write!(f, "proof root does not match the pinned root"),
            ProofError::Unsorted => write!(f, "revealed keys out of order"),
            ProofError::OmittedInRange => {
                write!(f, "proof hides a subtree inside the scanned range")
            }
            ProofError::PageMismatch => {
                write!(f, "page disagrees with the authenticated key range")
            }
            ProofError::MissingSuccessor => {
                write!(f, "non-final page without evidence of a successor key")
            }
        }
    }
}

impl std::error::Error for ProofError {}

/// The proof's tree slice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ProofTree {
    /// The whole index is empty (root must be the empty sentinel).
    Empty,
    /// A revealed leaf.
    Leaf(Vec<ObjectKey>),
    /// A revealed internal node.
    Node(Vec<ProofChild>),
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ProofChild {
    /// A pruned subtree: its smallest key and its hash (both checked
    /// against the parent's hash preimage).
    Omitted { first_key: ObjectKey, hash: [u8; 32] },
    /// A revealed subtree.
    Tree(ProofTree),
}

pub(crate) fn encode_proof(tree: &ProofTree) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(tree, &mut out);
    out
}

fn encode_into(tree: &ProofTree, out: &mut Vec<u8>) {
    match tree {
        ProofTree::Empty => TAG_EMPTY.write(out),
        ProofTree::Leaf(keys) => {
            TAG_LEAF.write(out);
            keys.write(out);
        }
        ProofTree::Node(children) => {
            TAG_NODE.write(out);
            (children.len() as u32).write(out);
            for c in children {
                match c {
                    ProofChild::Omitted { first_key, hash } => {
                        CHILD_OMITTED.write(out);
                        first_key.write(out);
                        hash.write(out);
                    }
                    ProofChild::Tree(t) => {
                        CHILD_TREE.write(out);
                        encode_into(t, out);
                    }
                }
            }
        }
    }
}

pub(crate) fn decode_proof(bytes: &[u8]) -> Result<ProofTree, ProofError> {
    let mut cur = Cursor::new(bytes);
    let tree = decode_tree(&mut cur, 0)?;
    cur.expect_end().map_err(|_| ProofError::Decode("trailing bytes"))?;
    Ok(tree)
}

fn decode_tree(cur: &mut Cursor<'_>, depth: usize) -> Result<ProofTree, ProofError> {
    if depth > MAX_PROOF_DEPTH {
        return Err(ProofError::TooDeep);
    }
    let truncated = |_| ProofError::Decode("truncated proof");
    Ok(match u8::read(cur).map_err(truncated)? {
        TAG_EMPTY => ProofTree::Empty,
        TAG_LEAF => ProofTree::Leaf(Vec::read(cur).map_err(truncated)?),
        TAG_NODE => {
            let n = u32::read(cur).map_err(truncated)? as usize;
            // Hostile-length guard: each child costs at least one byte.
            if n > cur.remaining() {
                return Err(ProofError::Decode("child count exceeds input"));
            }
            let mut children = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                children.push(match u8::read(cur).map_err(truncated)? {
                    CHILD_OMITTED => ProofChild::Omitted {
                        first_key: ObjectKey::read(cur).map_err(truncated)?,
                        hash: <[u8; 32]>::read(cur).map_err(truncated)?,
                    },
                    CHILD_TREE => ProofChild::Tree(decode_tree(cur, depth + 1)?),
                    _ => return Err(ProofError::Decode("unknown child tag")),
                });
            }
            ProofTree::Node(children)
        }
        _ => return Err(ProofError::Decode("unknown proof tag")),
    })
}

#[derive(Default)]
struct Walk {
    /// Every revealed key, in proof order.
    revealed: Vec<ObjectKey>,
    /// Every pruned subtree: `(its first key, its next sibling's first
    /// key)` — the sibling bound is what proves the subtree ends before
    /// the cursor.
    omitted: Vec<(ObjectKey, Option<ObjectKey>)>,
    /// Each node's encoding, rebuilt here to be hashed.
    buf: Vec<u8>,
}

/// Recomputes `(first key, hash)` of a subtree, collecting revealed keys
/// and omission bounds along the way.
fn walk(tree: &ProofTree, depth: usize, w: &mut Walk) -> Result<(ObjectKey, [u8; 32]), ProofError> {
    if depth > MAX_PROOF_DEPTH {
        return Err(ProofError::TooDeep);
    }
    match tree {
        ProofTree::Empty => Err(ProofError::Decode("empty marker inside a proof")),
        ProofTree::Leaf(keys) => {
            if keys.is_empty() {
                return Err(ProofError::Decode("empty leaf"));
            }
            if !keys.windows(2).all(|p| p[0] < p[1]) {
                return Err(ProofError::Unsorted);
            }
            w.revealed.extend_from_slice(keys);
            Ok((keys[0], digest_with(&mut w.buf, |b| encode_leaf(keys, b))))
        }
        ProofTree::Node(children) => {
            if children.is_empty() {
                return Err(ProofError::Decode("empty internal node"));
            }
            let mut entries: Vec<(ObjectKey, [u8; 32])> = Vec::with_capacity(children.len());
            let mut omitted_at: Vec<usize> = Vec::new();
            for (i, c) in children.iter().enumerate() {
                let (fk, hash) = match c {
                    ProofChild::Omitted { first_key, hash } => {
                        omitted_at.push(i);
                        (*first_key, *hash)
                    }
                    ProofChild::Tree(t) => walk(t, depth + 1, w)?,
                };
                if let Some(&(prev, _)) = entries.last() {
                    if fk <= prev {
                        return Err(ProofError::Unsorted);
                    }
                }
                entries.push((fk, hash));
            }
            for i in omitted_at {
                w.omitted.push((entries[i].0, entries.get(i + 1).map(|e| e.0)));
            }
            let hash = digest_with(&mut w.buf, |b| {
                encode_internal(entries.iter().map(|(k, h)| (k, h)), b)
            });
            Ok((entries[0].0, hash))
        }
    }
}

/// Verifies one scan page against a pinned root.
///
/// Checks, in order: the proof re-hashes to `root`; revealed keys are
/// globally sorted; `page` equals the revealed keys in `(after, …]`
/// (truncated at `limit`); every pruned subtree is provably outside the
/// range (its next sibling starts at or before the cursor, or its first
/// key lies beyond the page end on a non-final page); and a non-final page
/// carries successor evidence (a revealed residue key or a pruned subtree
/// past the page end). `limit` is clamped up to 1, mirroring servers.
pub fn verify_scan_page(
    root: &[u8; 32],
    after: Option<&ObjectKey>,
    limit: u32,
    page: &[ObjectKey],
    done: bool,
    proof: &[u8],
) -> Result<(), ProofError> {
    verify_total().inc();
    let r = verify_inner(root, after, limit, page, done, proof);
    if r.is_err() {
        verify_failures().inc();
    }
    r
}

fn verify_inner(
    root: &[u8; 32],
    after: Option<&ObjectKey>,
    limit: u32,
    page: &[ObjectKey],
    done: bool,
    proof: &[u8],
) -> Result<(), ProofError> {
    let limit = limit.max(1) as usize;
    let tree = decode_proof(proof)?;
    if tree == ProofTree::Empty {
        if *root != empty_root() {
            return Err(ProofError::RootMismatch);
        }
        if !page.is_empty() || !done {
            return Err(ProofError::PageMismatch);
        }
        return Ok(());
    }
    let mut w = Walk::default();
    let (_, computed) = walk(&tree, 0, &mut w)?;
    if computed != *root {
        return Err(ProofError::RootMismatch);
    }
    // Entries are sorted within each node; this catches a (committed)
    // malformed tree whose subtrees overlap.
    if !w.revealed.windows(2).all(|p| p[0] < p[1]) {
        return Err(ProofError::Unsorted);
    }
    let in_range: Vec<ObjectKey> =
        w.revealed.iter().filter(|k| after.is_none_or(|a| *k > a)).copied().collect();
    if done {
        if page.len() > limit || in_range != page {
            return Err(ProofError::PageMismatch);
        }
    } else if page.len() != limit || in_range.len() < limit || in_range[..limit] != *page {
        return Err(ProofError::PageMismatch);
    }
    let page_end = page.last();
    for (fk, next) in &w.omitted {
        // Left of the cursor: the subtree's keys all precede its next
        // sibling's first key, so `next <= after` bounds it away from the
        // range. Right of the page: its own first key already does.
        let left_ok = matches!((after, next), (Some(a), Some(n)) if n <= a);
        let right_ok = !done && page_end.is_some_and(|e| fk > e);
        if !(left_ok || right_ok) {
            return Err(ProofError::OmittedInRange);
        }
    }
    if !done {
        let residue = in_range.len() > limit;
        let pruned_successor = page_end.is_some_and(|e| w.omitted.iter().any(|(fk, _)| fk > e));
        if !(residue || pruned_successor) {
            return Err(ProofError::MissingSuccessor);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MerkleIndex;
    use sharoes_net::KeySpace;

    fn key(i: u64) -> ObjectKey {
        ObjectKey { space: KeySpace::Metadata, inode: i, view: [3; 16], block: 0 }
    }

    fn tree_with(n: u64) -> MerkleIndex {
        MerkleIndex::from_keys((0..n).map(key))
    }

    #[test]
    fn empty_proof_verifies_only_against_empty_root() {
        let mut t = MerkleIndex::new();
        let p = t.prove_scan(None, 8);
        assert!(p.keys.is_empty() && p.done);
        verify_scan_page(&p.root, None, 8, &p.keys, p.done, &p.proof).unwrap();
        assert_eq!(
            verify_scan_page(&[1; 32], None, 8, &p.keys, p.done, &p.proof),
            Err(ProofError::RootMismatch)
        );
    }

    #[test]
    fn dropped_key_detected() {
        let mut t = tree_with(100);
        let root = t.root();
        let p = t.prove_scan(None, 10);
        let mut page = p.keys.clone();
        page.remove(4);
        assert_eq!(
            verify_scan_page(&root, None, 10, &page, p.done, &p.proof),
            Err(ProofError::PageMismatch)
        );
    }

    #[test]
    fn substituted_key_detected() {
        let mut t = tree_with(100);
        let root = t.root();
        let p = t.prove_scan(None, 10);
        let mut page = p.keys.clone();
        page[3] = key(5000);
        assert_eq!(
            verify_scan_page(&root, None, 10, &page, p.done, &p.proof),
            Err(ProofError::PageMismatch)
        );
    }

    #[test]
    fn reordered_page_detected() {
        let mut t = tree_with(100);
        let root = t.root();
        let p = t.prove_scan(None, 10);
        let mut page = p.keys.clone();
        page.swap(1, 2);
        assert_eq!(
            verify_scan_page(&root, None, 10, &page, p.done, &p.proof),
            Err(ProofError::PageMismatch)
        );
    }

    #[test]
    fn premature_done_detected() {
        // Claiming the keyspace ends at the page hides every later key.
        let mut t = tree_with(100);
        let root = t.root();
        let p = t.prove_scan(None, 10);
        assert!(!p.done);
        let err = verify_scan_page(&root, None, 10, &p.keys, true, &p.proof).unwrap_err();
        assert!(
            matches!(err, ProofError::PageMismatch | ProofError::OmittedInRange),
            "got {err:?}"
        );
    }

    #[test]
    fn bitflipped_proof_detected() {
        let mut t = tree_with(64);
        let root = t.root();
        let p = t.prove_scan(None, 16);
        for pos in [p.proof.len() / 3, p.proof.len() / 2, p.proof.len() - 1] {
            let mut bad = p.proof.clone();
            bad[pos] ^= 0x40;
            assert!(
                verify_scan_page(&root, None, 16, &p.keys, p.done, &bad).is_err(),
                "flip at {pos} accepted"
            );
        }
    }

    #[test]
    fn stale_root_detected() {
        let mut t = tree_with(50);
        let old_root = t.root();
        t.insert(key(999));
        let p = t.prove_scan(None, 10);
        assert_eq!(
            verify_scan_page(&old_root, None, 10, &p.keys, p.done, &p.proof),
            Err(ProofError::RootMismatch)
        );
    }

    #[test]
    fn truncated_and_oversized_proofs_rejected() {
        let mut t = tree_with(40);
        let p = t.prove_scan(None, 10);
        assert!(matches!(
            verify_scan_page(&p.root, None, 10, &p.keys, p.done, &p.proof[..p.proof.len() - 2]),
            Err(ProofError::Decode(_))
        ));
        let mut padded = p.proof.clone();
        padded.push(0);
        assert!(matches!(
            verify_scan_page(&p.root, None, 10, &p.keys, p.done, &padded),
            Err(ProofError::Decode(_))
        ));
        // A pathological nesting bomb trips the depth cap, not a stack
        // overflow.
        let mut bomb = Vec::new();
        for _ in 0..(MAX_PROOF_DEPTH + 2) {
            bomb.push(TAG_NODE);
            bomb.extend_from_slice(&1u32.to_be_bytes());
            bomb.push(CHILD_TREE);
        }
        bomb.push(TAG_EMPTY);
        assert_eq!(
            verify_scan_page(&p.root, None, 10, &p.keys, p.done, &bomb),
            Err(ProofError::TooDeep)
        );
    }

    #[test]
    fn cursor_pages_cannot_hide_mid_range_keys() {
        // Ask for the page after key(20) but hand back a proof/page pair
        // that skips key(21): the verifier must notice the revealed range
        // disagrees.
        let mut t = tree_with(60);
        let root = t.root();
        let after = key(20);
        let p = t.prove_scan(Some(&after), 10);
        assert_eq!(p.keys[0], key(21));
        let mut page = p.keys.clone();
        page.remove(0);
        assert_eq!(
            verify_scan_page(&root, Some(&after), 10, &page, p.done, &p.proof),
            Err(ProofError::PageMismatch)
        );
    }

    #[test]
    fn proof_for_wrong_cursor_rejected() {
        // A proof minted for one cursor cannot authenticate another: the
        // left frontier would hide (after, first-revealed) keys.
        let mut t = tree_with(200);
        let root = t.root();
        let p = t.prove_scan(Some(&key(150)), 10);
        assert!(
            verify_scan_page(&root, Some(&key(10)), 10, &p.keys, p.done, &p.proof).is_err(),
            "cursor-shifted proof accepted"
        );
    }

    #[test]
    fn mid_pagination_verification_with_cursor() {
        let mut t = tree_with(120);
        let root = t.root();
        for start in [0u64, 17, 63, 118] {
            let after = key(start);
            let p = t.prove_scan(Some(&after), 7);
            verify_scan_page(&root, Some(&after), 7, &p.keys, p.done, &p.proof).unwrap();
        }
        // Cursor past the end: empty final page still verifies.
        let after = key(500);
        let p = t.prove_scan(Some(&after), 7);
        assert!(p.keys.is_empty() && p.done);
        verify_scan_page(&root, Some(&after), 7, &p.keys, p.done, &p.proof).unwrap();
    }
}
