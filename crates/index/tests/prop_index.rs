//! Property tests for the authenticated index: history independence of the
//! root hash, incremental ≡ canonical maintenance, and the proof verifier
//! rejecting every tampering class with a typed error.

use sharoes_index::{
    decode_node, empty_root, verify_scan_page, IndexNode, MerkleIndex, ProofError,
};
use sharoes_net::{KeySpace, ObjectKey};
use sharoes_testkit::prelude::*;
use std::collections::BTreeSet;

fn keyspaces() -> Gen<KeySpace> {
    gen::one_of(vec![
        Gen::constant(KeySpace::Metadata),
        Gen::constant(KeySpace::Data),
        Gen::constant(KeySpace::Superblock),
        Gen::constant(KeySpace::GroupKey),
    ])
}

/// Keys drawn from a deliberately small domain so inserts collide, deletes
/// hit, and leaves split/merge on the boundaries that matter.
fn keys() -> Gen<ObjectKey> {
    let space = keyspaces();
    Gen::from_fn(move |t| {
        Ok(ObjectKey {
            space: space.sample(t)?,
            inode: t.u64() % 64,
            view: [(t.u32() % 4) as u8; 16],
            block: t.u32() % 4,
        })
    })
}

fn shuffled<T>(items: &mut [T], seed: u64) {
    let mut rng = HmacDrbg::from_seed_u64(seed ^ 0x1DE15EED);
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

prop! {
    #![cases(64)]

    // Any permutation of the same insert set yields the identical root.
    fn insertion_order_never_changes_the_root(
        keys in gen::vecs(keys(), 0..200),
        seed in Gen::from_fn(|t| Ok(t.u64())),
    ) {
        let mut a = MerkleIndex::new();
        for k in &keys {
            a.insert(*k);
        }
        let mut permuted = keys.clone();
        shuffled(&mut permuted, seed);
        let mut b = MerkleIndex::new();
        for k in &permuted {
            b.insert(*k);
        }
        prop_assert_eq!(a.root(), b.root());
        prop_assert_eq!(a.len(), b.len());
    }

    // Any interleaving of inserts and deletes lands on the canonical tree
    // for the surviving key set — incremental maintenance is
    // history-independent and agrees with a from-scratch rebuild.
    fn mutation_history_never_changes_the_root(
        inserts in gen::vecs(keys(), 1..150),
        deletes in gen::vecs(keys(), 0..150),
        seed in Gen::from_fn(|t| Ok(t.u64())),
    ) {
        // Oracle: the final set under the chosen interleaving.
        let mut ops: Vec<(bool, ObjectKey)> = inserts
            .iter()
            .map(|k| (true, *k))
            .chain(deletes.iter().map(|k| (false, *k)))
            .collect();
        shuffled(&mut ops, seed);
        let mut tree = MerkleIndex::new();
        let mut oracle = BTreeSet::new();
        for (is_insert, k) in &ops {
            if *is_insert {
                prop_assert_eq!(tree.insert(*k), oracle.insert(*k));
            } else {
                prop_assert_eq!(tree.remove(k), oracle.remove(k));
            }
        }
        prop_assert_eq!(tree.len(), oracle.len() as u64);
        let mut canonical = MerkleIndex::from_keys(oracle.iter().copied());
        prop_assert_eq!(tree.root(), canonical.root());
        if oracle.is_empty() {
            prop_assert_eq!(tree.root(), empty_root());
        }
    }

    // Honest pages verify at every cursor; every page walk covers the key
    // set exactly once.
    fn honest_pagination_verifies_and_covers(
        keyset in gen::vecs(keys(), 0..200),
        limit in gen::in_range_incl(1u32..=17),
    ) {
        let expected: BTreeSet<ObjectKey> = keyset.iter().copied().collect();
        let mut tree = MerkleIndex::from_keys(keyset.iter().copied());
        let root = tree.root();
        let mut after: Option<ObjectKey> = None;
        let mut walked = Vec::new();
        loop {
            let p = tree.prove_scan(after.as_ref(), limit);
            prop_assert_eq!(p.root, root);
            let verdict = verify_scan_page(&root, after.as_ref(), limit, &p.keys, p.done, &p.proof);
            prop_assert!(verdict.is_ok(), "honest page rejected: {:?}", verdict);
            walked.extend_from_slice(&p.keys);
            if p.done {
                break;
            }
            after = p.keys.last().copied();
        }
        prop_assert_eq!(walked, expected.into_iter().collect::<Vec<_>>());
    }

    // Dropping, substituting, adding, or reordering page keys is caught
    // with a typed error.
    fn tampered_pages_rejected(
        keyset in gen::vecs(keys(), 2..200),
        limit in gen::in_range_incl(1u32..=17),
        tamper in gen::in_range_incl(0u8..=3),
        victim in gen::indices(),
        outsider in keys(),
    ) {
        let mut tree = MerkleIndex::from_keys(keyset.iter().copied());
        let root = tree.root();
        let p = tree.prove_scan(None, limit);
        prop_assume!(!p.keys.is_empty());
        let mut page = p.keys.clone();
        let i = victim.index(page.len());
        match tamper {
            0 => {
                page.remove(i);
            }
            1 => {
                prop_assume!(!tree.all_keys().contains(&outsider));
                page[i] = outsider;
            }
            2 => {
                page.push(outsider);
            }
            _ => {
                prop_assume!(page.len() >= 2);
                let j = (i + 1) % page.len();
                page.swap(i, j);
            }
        }
        prop_assume!(page != p.keys);
        let verdict = verify_scan_page(&root, None, limit, &page, p.done, &p.proof);
        prop_assert!(
            matches!(verdict, Err(ProofError::PageMismatch | ProofError::Unsorted)),
            "tampered page not rejected with a typed error: {:?}",
            verdict
        );
    }

    // Any single bit flip anywhere in the proof bytes is rejected.
    fn bitflipped_proofs_rejected(
        keyset in gen::vecs(keys(), 1..150),
        limit in gen::in_range_incl(1u32..=17),
        at in gen::indices(),
        bit in gen::in_range_incl(0u8..=7),
    ) {
        let mut tree = MerkleIndex::from_keys(keyset.iter().copied());
        let root = tree.root();
        let p = tree.prove_scan(None, limit);
        let mut damaged = p.proof.clone();
        let pos = at.index(damaged.len());
        damaged[pos] ^= 1 << bit;
        prop_assume!(damaged != p.proof);
        prop_assert!(
            verify_scan_page(&root, None, limit, &p.keys, p.done, &damaged).is_err()
        );
    }

    // Proofs minted against a mutated tree fail against the stale pinned
    // root with `RootMismatch` (and vice versa).
    fn stale_roots_rejected(
        keyset in gen::vecs(keys(), 1..150),
        extra in keys(),
        limit in gen::in_range_incl(1u32..=17),
    ) {
        let mut tree = MerkleIndex::from_keys(keyset.iter().copied());
        let stale = tree.root();
        prop_assume!(tree.insert(extra));
        let p = tree.prove_scan(None, limit);
        prop_assert_eq!(
            verify_scan_page(&stale, None, limit, &p.keys, p.done, &p.proof),
            Err(ProofError::RootMismatch)
        );
    }

    // Hostile proof bytes never panic the verifier.
    fn arbitrary_proof_bytes_never_panic(
        bytes in gen::vecs(gen::u8s(), 0..512),
        keyset in gen::vecs(keys(), 0..20),
        limit in gen::in_range_incl(1u32..=8),
    ) {
        let mut tree = MerkleIndex::from_keys(keyset.iter().copied());
        let root = tree.root();
        let (page, done) = tree.scan_page(None, limit as usize);
        let _ = verify_scan_page(&root, None, limit, &page, done, &bytes);
    }
}

/// One step of an interleaved history: a mutation or a read.
#[derive(Clone, Copy, Debug)]
enum Step {
    Insert(ObjectKey),
    Remove(ObjectKey),
    Root,
    Prove(ObjectKey, u32),
    NodeBytes(u32),
}

fn steps() -> Gen<Step> {
    let key = keys();
    Gen::from_fn(move |t| {
        let k = key.sample(t)?;
        Ok(match t.u32() % 7 {
            0 | 1 => Step::Insert(k),
            2 | 3 => Step::Remove(k),
            4 => Step::Root,
            5 => Step::Prove(k, 1 + t.u32() % 24),
            _ => Step::NodeBytes(t.u32()),
        })
    })
}

/// Every node hash of `tree`, walked from the root through `node_bytes`.
fn node_set(tree: &mut MerkleIndex) -> BTreeSet<[u8; 32]> {
    let mut out = BTreeSet::new();
    let mut stack = vec![tree.root()];
    while let Some(hash) = stack.pop() {
        let Some(bytes) = tree.node_bytes(&hash) else { continue };
        out.insert(hash);
        if let IndexNode::Internal(entries) = decode_node(&bytes).unwrap() {
            stack.extend(entries.iter().map(|(_, h)| *h));
        }
    }
    out
}

prop! {
    #![cases(64)]

    // Reads interleaved with inserts and removes see exactly the canonical
    // tree: after every `root`, `prove_scan` or `node_bytes`, the root is
    // the from-scratch root, every honest page verifies, and `node_bytes`
    // serves exactly the canonical tree's nodes — every hash the tree ever
    // had but no longer has answers `None`.
    fn interleaved_reads_see_the_canonical_tree(
        initial in gen::vecs(keys(), 0..300),
        history in gen::vecs(steps(), 1..120),
    ) {
        let mut tree = MerkleIndex::from_keys(initial.iter().copied());
        let mut oracle: BTreeSet<ObjectKey> = initial.iter().copied().collect();
        let mut seen: BTreeSet<[u8; 32]> = BTreeSet::new();
        for step in history {
            // The read under test runs first, so it is the call that
            // settles whatever the mutations before it left dirty.
            match step {
                Step::Insert(k) => {
                    prop_assert_eq!(tree.insert(k), oracle.insert(k));
                    continue;
                }
                Step::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), oracle.remove(&k));
                    continue;
                }
                Step::Root => {
                    tree.root();
                }
                Step::Prove(after, limit) => {
                    let p = tree.prove_scan(Some(&after), limit);
                    let verdict =
                        verify_scan_page(&p.root, Some(&after), limit, &p.keys, p.done, &p.proof);
                    prop_assert!(verdict.is_ok(), "honest page rejected: {:?}", verdict);
                }
                Step::NodeBytes(pick) => {
                    let known: Vec<[u8; 32]> = seen.iter().copied().collect();
                    let hash = known.get(pick as usize % known.len().max(1)).copied();
                    tree.node_bytes(&hash.unwrap_or([0; 32]));
                }
            }
            let mut canonical = MerkleIndex::from_keys(oracle.iter().copied());
            let root = canonical.root();
            prop_assert_eq!(tree.root(), root);
            prop_assert_eq!(tree.len(), oracle.len() as u64);
            let nodes = node_set(&mut canonical);
            for hash in &nodes {
                prop_assert_eq!(tree.node_bytes(hash), canonical.node_bytes(hash));
            }
            for stale in seen.difference(&nodes) {
                prop_assert!(tree.node_bytes(stale).is_none(), "stale node still served");
            }
            seen.extend(nodes);
            let mut after: Option<ObjectKey> = None;
            loop {
                let p = tree.prove_scan(after.as_ref(), 16);
                let verdict = verify_scan_page(&root, after.as_ref(), 16, &p.keys, p.done, &p.proof);
                prop_assert!(verdict.is_ok(), "honest page rejected: {:?}", verdict);
                if p.done {
                    break;
                }
                after = p.keys.last().copied();
            }
        }
    }
}
