//! Property test: `ObjectStore::scan_keys` pagination is exactly-once —
//! walking the cursor to completion yields every resident key exactly once,
//! with no overlap or gap across page boundaries, for any page size and any
//! key mix across spaces/inodes/blocks. Keys inserted *between* pages obey
//! the documented snapshot rule: a key sorting after the cursor is picked
//! up by a later page (exactly once); a key sorting at or before the cursor
//! is missed by this scan — never duplicated.

use sharoes_net::ObjectKey;
use sharoes_ssp::ObjectStore;
use sharoes_testkit::prelude::*;
use std::collections::BTreeSet;

/// A random key drawn from every `ObjectKey` constructor family so pages
/// cross key-space boundaries, not just block numbers.
fn keys() -> Gen<ObjectKey> {
    Gen::from_fn(|t| {
        let view = [t.u64_in(0, 4) as u8; 16];
        let inode = t.u64_in(0, 6);
        Ok(match t.u64_in(0, 4) {
            0 => ObjectKey::metadata(inode, view),
            1 => ObjectKey::data(inode, view, t.u64_in(0, 4) as u32),
            2 => ObjectKey::superblock(view),
            _ => ObjectKey::group_key(200 + t.u64_in(0, 3), view),
        })
    })
}

fn key_sets() -> Gen<BTreeSet<ObjectKey>> {
    Gen::from_fn(|t| {
        let n = t.usize_in(0, 40);
        let mut set = BTreeSet::new();
        for _ in 0..n {
            set.insert(keys().sample(t)?);
        }
        Ok(set)
    })
}

/// Drains the cursor to completion, returning every key seen in order.
fn drain(store: &ObjectStore, limit: usize) -> Vec<ObjectKey> {
    let mut seen = Vec::new();
    let mut cursor: Option<ObjectKey> = None;
    loop {
        let (page, done) = store.scan_keys(cursor.as_ref(), limit);
        assert!(page.len() <= limit, "page overflows its limit");
        seen.extend(page.iter().copied());
        cursor = page.last().copied().or(cursor);
        if done {
            return seen;
        }
        assert!(!page.is_empty(), "incomplete scan returned an empty page");
    }
}

prop! {
    #![cases(96)]

    fn scan_pages_cover_every_key_exactly_once(
        base in key_sets(),
        limit in gen::in_range(1usize..9),
    ) {
        let store = ObjectStore::new();
        for key in &base {
            store.put(*key, vec![0xAB]).unwrap();
        }
        let seen = drain(&store, limit);
        // In order, no overlap, no gap: the walk IS the sorted key set.
        let expect: Vec<ObjectKey> = base.iter().copied().collect();
        prop_assert_eq!(seen, expect);
    }

    fn keys_inserted_between_pages_never_duplicate(
        base in key_sets(),
        mid in key_sets(),
        limit in gen::in_range(1usize..9),
        insert_after_page in gen::in_range(0usize..4),
    ) {
        let store = ObjectStore::new();
        for key in &base {
            store.put(*key, vec![1]).unwrap();
        }
        // Where the second batch landed relative to the scan.
        enum When {
            /// Inserted between two pages; the cursor stood here.
            During(Option<ObjectKey>),
            /// The scan completed before the insertion point was reached.
            After,
        }
        let mut seen = Vec::new();
        let mut cursor: Option<ObjectKey> = None;
        let mut when = When::After;
        let mut page_no = 0usize;
        loop {
            let (page, done) = store.scan_keys(cursor.as_ref(), limit);
            seen.extend(page.iter().copied());
            cursor = page.last().copied().or(cursor);
            if done {
                break;
            }
            if page_no == insert_after_page && matches!(when, When::After) {
                for key in &mid {
                    store.put(*key, vec![2]).unwrap();
                }
                when = When::During(cursor);
            }
            page_no += 1;
        }
        if matches!(when, When::After) {
            // Completed scans trivially miss a post-completion insert.
            for key in &mid {
                store.put(*key, vec![2]).unwrap();
            }
        }

        // Global exactly-once: nothing is ever yielded twice.
        let unique: BTreeSet<ObjectKey> = seen.iter().copied().collect();
        prop_assert_eq!(unique.len(), seen.len(), "a key was yielded twice");

        // Every base key appears exactly once.
        for key in &base {
            prop_assert_eq!(
                seen.iter().filter(|k| *k == key).count(),
                1,
                "base key missed or duplicated: {key:?}"
            );
        }
        // A mid-scan insert past the cursor is seen exactly once; one at or
        // before the cursor (or after scan completion) is missed by this
        // scan — never duplicated.
        for key in mid.iter().filter(|k| !base.contains(k)) {
            let expected = match &when {
                When::During(Some(c)) => usize::from(key > c),
                When::During(None) => 1,
                When::After => 0,
            };
            prop_assert_eq!(
                seen.iter().filter(|k| *k == key).count(),
                expected,
                "mid-scan key {key:?}"
            );
        }
    }

    fn indexed_scan_matches_flat_oracle_after_interleaved_deletes(
        base in key_sets(),
        victims in key_sets(),
        limit in gen::in_range(1usize..9),
        cursor_pick in gen::in_range(0usize..64),
    ) {
        let store = ObjectStore::new();
        for key in &base {
            store.put(*key, vec![1]).unwrap();
        }
        for key in &victims {
            store.delete(key).unwrap();
        }
        // Overwrites must not perturb the index (key set unchanged).
        for key in base.iter().take(3) {
            if !victims.contains(key) {
                store.put(*key, vec![9, 9]).unwrap();
            }
        }

        // Full drains agree page-by-page with the flat-sort debug oracle…
        let indexed = drain(&store, limit);
        let (flat, done) = store.scan_keys_flat(None, usize::MAX);
        prop_assert!(done);
        prop_assert_eq!(&indexed, &flat, "indexed walk diverged from flat oracle");

        // …and so does a single page from an arbitrary interior cursor.
        let cursor = indexed.get(cursor_pick % indexed.len().max(1)).copied();
        prop_assert_eq!(
            store.scan_keys(cursor.as_ref(), limit),
            store.scan_keys_flat(cursor.as_ref(), limit),
            "paged scan at cursor {cursor:?} diverged from flat oracle"
        );
    }

    fn scan_proofs_verify_at_arbitrary_cursors(
        base in key_sets(),
        victims in key_sets(),
        limit in gen::in_range(1u32..9),
        cursor_pick in gen::in_range(0usize..64),
    ) {
        let store = ObjectStore::new();
        for key in &base {
            store.put(*key, vec![1]).unwrap();
        }
        for key in &victims {
            store.delete(key).unwrap();
        }
        let (all, _) = store.scan_keys_flat(None, usize::MAX);
        let cursor = all.get(cursor_pick % all.len().max(1)).copied();

        let page = store.scan_proof(cursor.as_ref(), limit);
        let (root, count) = store.index_root();
        prop_assert_eq!(page.root, root, "proof carries a stale root");
        prop_assert_eq!(count as usize, all.len());
        prop_assert_eq!(
            (&page.keys, page.done),
            (&store.scan_keys(cursor.as_ref(), limit as usize).0,
             store.scan_keys(cursor.as_ref(), limit as usize).1),
        );
        prop_assert!(
            sharoes_index::verify_scan_page(
                &page.root, cursor.as_ref(), limit, &page.keys, page.done, &page.proof,
            )
            .is_ok(),
            "honest proof failed verification at cursor {cursor:?}"
        );
    }
}
