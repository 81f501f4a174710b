//! Property tests for core data structures: metadata bodies, directory
//! tables, CAP invariants, and hostile-bytes safety.

use sharoes_core::cap::{dir_cap, downgrade, file_cap, TableAccess};
use sharoes_core::dirtable::{ChildRef, DirTable};
use sharoes_core::metadata::{AclEntryWire, MetadataBody, SealedObject};
use sharoes_core::scheme::{Layout, ObjectAttrs, SplitEntry};
use sharoes_core::superblock::Superblock;
use sharoes_core::{CoreError, CryptoPolicy, Keyring, Scheme};
use sharoes_crypto::{generate_signing_pair, SignatureScheme, SymKey, VerifyKey};
use sharoes_fs::{Gid, Mode, NodeKind, Perm, Uid, UserDb};
use sharoes_net::{WireRead, WireWrite};
use sharoes_testkit::prelude::*;
use std::sync::OnceLock;

fn perms() -> Gen<Perm> {
    Gen::from_fn(|t| Ok(Perm { read: t.bool(), write: t.bool(), exec: t.bool() }))
}

fn bodies() -> Gen<MetadataBody> {
    Gen::from_fn(|t| {
        let mut body = MetadataBody::bare(
            t.u64(),
            if t.bool() { NodeKind::Dir } else { NodeKind::File },
            t.u32(),
            t.u32(),
            t.u64_in(0, 0o1000) as u32,
        );
        body.size = t.u64();
        body.nblocks = t.u32();
        body.generation = t.u64();
        body.rekey_pending = t.bool();
        let n_acl = t.usize_in(0, 4);
        body.acl = (0..n_acl)
            .map(|_| AclEntryWire { is_group: t.bool(), id: t.u32(), bits: t.u64_in(0, 8) as u8 })
            .collect();
        body.dek = gen::option_of(gen::byte_arrays::<16>()).sample(t)?.map(SymKey);
        Ok(body)
    })
}

fn children() -> Gen<ChildRef> {
    Gen::from_fn(|t| {
        Ok(ChildRef {
            inode: t.u64(),
            kind: if t.bool() { NodeKind::Dir } else { NodeKind::File },
            view: gen::byte_arrays::<16>().sample(t)?,
            mek: gen::option_of(gen::byte_arrays::<16>()).sample(t)?.map(SymKey),
            mvk: t.bool().then(|| sample_mvk().clone()),
            split: t.bool(),
        })
    })
}

/// One fixed verify key, so generated rows can carry an MVK without a key
/// generation per case.
fn sample_mvk() -> &'static VerifyKey {
    static MVK: OnceLock<VerifyKey> = OnceLock::new();
    MVK.get_or_init(|| {
        let mut rng = HmacDrbg::from_seed_u64(0x4D564B);
        generate_signing_pair(SignatureScheme::Esign, 384, &mut rng).unwrap().1
    })
}

fn names() -> Gen<String> {
    gen::string_of(gen::NAMEY, 1..25)
}

fn entry_lists() -> Gen<Vec<(String, ChildRef)>> {
    gen::entry_maps(names(), children(), 0..12)
}

/// One parent-table edit, as a create, unlink or rename applies it. An
/// index picks an existing entry once the list's length is known.
#[derive(Clone, Debug)]
enum Edit {
    Insert(String, ChildRef),
    Remove(gen::Index),
    Rename(gen::Index, String),
}

fn edit_lists() -> Gen<Vec<Edit>> {
    let edit = Gen::from_fn(|t| {
        Ok(match t.u64_in(0, 3) {
            0 => Edit::Insert(names().sample(t)?, children().sample(t)?),
            1 => Edit::Remove(gen::indices().sample(t)?),
            _ => Edit::Rename(gen::indices().sample(t)?, names().sample(t)?),
        })
    });
    gen::vecs(edit, 0..16)
}

prop! {
    #![cases(128)]

    fn metadata_body_roundtrips(body in bodies()) {
        let bytes = body.to_wire();
        let decoded = MetadataBody::from_wire(&bytes).unwrap();
        prop_assert_eq!(decoded.inode, body.inode);
        prop_assert_eq!(decoded.kind, body.kind);
        prop_assert_eq!(decoded.owner, body.owner);
        prop_assert_eq!(decoded.group, body.group);
        prop_assert_eq!(decoded.mode, body.mode);
        prop_assert_eq!(decoded.size, body.size);
        prop_assert_eq!(decoded.generation, body.generation);
        prop_assert_eq!(decoded.rekey_pending, body.rekey_pending);
        prop_assert_eq!(decoded.acl, body.acl);
        prop_assert_eq!(decoded.dek, body.dek);
    }

    fn dirtable_views_roundtrip(
        entries in entry_lists(),
        tek in gen::byte_arrays::<16>(),
        seed in gen::u64s(),
    ) {
        let tek = SymKey(tek);
        let mut rng = HmacDrbg::from_seed_u64(seed);
        for table in [
            DirTable::names_only(&entries),
            DirTable::full(&entries),
            DirTable::exec_only(&entries, &tek, &mut rng),
        ] {
            let bytes = table.to_wire();
            prop_assert_eq!(DirTable::from_wire(&bytes).unwrap(), table);
        }
    }

    fn full_view_lookup_finds_every_entry(entries in entry_lists()) {
        let table = DirTable::full(&entries);
        for (name, child) in &entries {
            let found = table.lookup(name, None).unwrap().unwrap();
            prop_assert_eq!(&found, child);
        }
        prop_assert_eq!(table.list().count(), entries.len());
    }

    fn exec_only_lookup_by_exact_name_only(
        entries in entry_lists(),
        tek in gen::byte_arrays::<16>(),
        probe in gen::string_of(gen::NAMEY, 1..25),
        seed in gen::u64s(),
    ) {
        let tek = SymKey(tek);
        let mut rng = HmacDrbg::from_seed_u64(seed);
        let table = DirTable::exec_only(&entries, &tek, &mut rng);
        // Every real name opens; names are never listable.
        for (name, child) in &entries {
            let found = table.lookup(name, Some(&tek)).unwrap().unwrap();
            prop_assert_eq!(found.inode, child.inode);
        }
        prop_assert!(table.list().next().is_none());
        // A probe that is not an entry returns None.
        if !entries.iter().any(|(n, _)| n == &probe) {
            prop_assert!(table.lookup(&probe, Some(&tek)).unwrap().is_none());
        }
        // No plaintext names in the serialization.
        let bytes = table.to_wire();
        for (name, _) in &entries {
            if name.len() >= 4 {
                prop_assert!(
                    !bytes.windows(name.len()).any(|w| w == name.as_bytes()),
                    "leaked name {name}"
                );
            }
        }
    }

    fn table_edits_equal_a_rebuild_of_the_edited_entries(
        entries in entry_lists(),
        edits in edit_lists(),
        probe in names(),
    ) {
        // The model is the entry list a rebuild would seal; names stay
        // unique, as the client's duplicate checks keep them.
        let mut model = entries.clone();
        let mut full = DirTable::full(&entries);
        let mut names_only = DirTable::names_only(&entries);
        for edit in &edits {
            match edit {
                Edit::Insert(name, child) => {
                    if model.iter().any(|(n, _)| n == name) {
                        continue;
                    }
                    full.push_full(name, child);
                    names_only.push_name(name, child.kind);
                    model.push((name.clone(), child.clone()));
                }
                Edit::Remove(i) => {
                    let Some((name, _)) = model.get(i.index(model.len())).cloned() else {
                        continue;
                    };
                    full.remove(&name);
                    names_only.remove(&name);
                    model.retain(|(n, _)| *n != name);
                }
                Edit::Rename(i, to) => {
                    if model.is_empty() || model.iter().any(|(n, _)| n == to) {
                        continue;
                    }
                    let from = model[i.index(model.len())].0.clone();
                    full.rename(&from, to);
                    names_only.rename(&from, to);
                    for (n, _) in &mut model {
                        if *n == from {
                            *n = to.clone();
                        }
                    }
                }
            }
            prop_assert_eq!(full.to_wire(), DirTable::full(&model).to_wire());
            prop_assert_eq!(names_only.to_wire(), DirTable::names_only(&model).to_wire());
        }

        // The edited tables answer as the decoded rows do, and reopen to
        // themselves.
        let expected: Vec<(String, NodeKind)> =
            model.iter().map(|(n, c)| (n.clone(), c.kind)).collect();
        for table in [&full, &names_only] {
            let listed: Vec<(String, NodeKind)> =
                table.list().map(|(n, kind, _)| (n.to_string(), kind)).collect();
            prop_assert_eq!(&listed, &expected);
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(&DirTable::from_wire(&table.to_wire()).unwrap(), table);
        }
        for (name, child) in &model {
            prop_assert_eq!(full.lookup(name, None).unwrap(), Some(child.clone()));
            let denied =
                matches!(names_only.lookup(name, None), Err(CoreError::PermissionDenied { .. }));
            prop_assert!(denied, "names-only lookup of {name} must be denied");
        }
        if !model.iter().any(|(n, _)| *n == probe) {
            prop_assert!(full.lookup(&probe, None).unwrap().is_none());
            prop_assert!(names_only.lookup(&probe, None).unwrap().is_none());
        }
    }

    fn cap_tables_are_total_and_consistent(perm in perms()) {
        // Every permission either has a CAP or downgrades to one that does.
        for is_dir in [true, false] {
            let direct_ok = if is_dir { dir_cap(perm).is_ok() } else { file_cap(perm).is_ok() };
            let softened = downgrade(perm, is_dir);
            let softened_ok =
                if is_dir { dir_cap(softened).is_ok() } else { file_cap(softened).is_ok() };
            prop_assert!(softened_ok, "downgrade({perm}, {is_dir}) still unsupported");
            // Downgrade never grants anything new.
            prop_assert!(perm.covers(softened));
            if direct_ok {
                prop_assert_eq!(softened, perm, "supported perms must not change");
            }
        }
    }

    fn dir_cap_monotonicity(perm in perms()) {
        // If a permission grants the signing key, it must also grant the
        // table key (writers re-encrypt), and rwx must be Full.
        if let Ok(cap) = dir_cap(perm) {
            if cap.dsk {
                prop_assert!(cap.dek);
                prop_assert_eq!(cap.table, TableAccess::Full);
            }
            if cap.table != TableAccess::None {
                prop_assert!(cap.dek, "table access requires the table key");
            }
        }
    }

    fn sealed_object_roundtrips(
        ct in gen::vecs(gen::u8s(), 0..512),
        sig in gen::option_of(gen::vecs(gen::u8s(), 0..128)),
    ) {
        let obj = SealedObject { ciphertext: ct, signature: sig };
        prop_assert_eq!(SealedObject::from_wire(&obj.to_wire()).unwrap(), obj);
    }

    fn split_entry_roundtrips(
        view in gen::byte_arrays::<16>(),
        mek in gen::option_of(gen::byte_arrays::<16>()),
    ) {
        let entry = SplitEntry { view, mek: mek.map(SymKey), mvk: None };
        prop_assert_eq!(SplitEntry::from_wire(&entry.to_wire()).unwrap(), entry);
    }

    fn continuation_covers_every_population_member(
        parent_owner in gen::in_range(0u32..6),
        parent_group in gen::in_range(1u32..4),
        parent_mode in gen::in_range(0u32..0o1000),
        child_owner in gen::in_range(0u32..6),
        child_group in gen::in_range(1u32..4),
        class_idx in gen::in_range(0usize..3),
    ) {
        // THE Scheme-2 routing invariant: for any parent class, every user
        // in its population either follows the row continuation or appears
        // in the divergent (split-entry) set — nobody is stranded.
        fn fixture() -> &'static (UserDb, Keyring) {
            static FX: OnceLock<(UserDb, Keyring)> = OnceLock::new();
            FX.get_or_init(|| {
                let mut db = UserDb::new();
                db.add_group(Gid(1), "g1").unwrap();
                db.add_group(Gid(2), "g2").unwrap();
                db.add_group(Gid(3), "g3").unwrap();
                for i in 0..6u32 {
                    db.add_user(Uid(i), &format!("u{i}"), Gid(1 + i % 3)).unwrap();
                }
                let mut rng = sharoes_crypto::HmacDrbg::from_seed_u64(0xC0);
                let ring = Keyring::generate(&db, 512, &mut rng).unwrap();
                (db, ring)
            })
        }
        let (db, ring) = fixture();
        let pki = ring.public_directory();
        let layout = Layout {
            scheme: Scheme::SharedCaps,
            policy: CryptoPolicy::Sharoes,
            block_size: 4096,
            db,
            pki: &pki,
        };
        let parent = ObjectAttrs::new(
            10,
            NodeKind::Dir,
            Uid(parent_owner),
            Gid(parent_group),
            Mode::from_octal(parent_mode & 0o777),
        );
        let child = ObjectAttrs::new(
            11,
            NodeKind::File,
            Uid(child_owner),
            Gid(child_group),
            Mode::from_octal(0o640),
        );
        let classes = [
            sharoes_core::ClassTag::Owner,
            sharoes_core::ClassTag::Group,
            sharoes_core::ClassTag::Other,
        ];
        let parent_class = classes[class_idx];
        let (cont, divergent) = layout.continuation(&parent, parent_class, &child);
        for uid in layout.population(&parent, parent_class) {
            let true_class = child.class_of(uid, db);
            if true_class == cont {
                prop_assert!(
                    !divergent.iter().any(|(u, _)| *u == uid),
                    "{uid} both continues and diverges"
                );
            } else {
                prop_assert!(
                    divergent.contains(&(uid, true_class)),
                    "{uid} (class {true_class:?}) stranded: continuation {cont:?}, divergent {divergent:?}"
                );
            }
        }
    }

    fn hostile_bytes_never_panic(bytes in gen::vecs(gen::u8s(), 0..512)) {
        let _ = MetadataBody::from_wire(&bytes);
        let _ = DirTable::from_wire(&bytes);
        let _ = SealedObject::from_wire(&bytes);
        let _ = SplitEntry::from_wire(&bytes);
        let _ = Superblock::from_wire(&bytes);
    }

    fn damaged_full_tables_open_look_up_and_edit_or_fail_typed(
        entries in entry_lists(),
        cut in gen::option_of(gen::indices()),
        flips in gen::vecs(gen::indices(), 0..4),
        xor in gen::in_range(1u8..255),
        edits in edit_lists(),
    ) {
        // A valid full table's plaintext, truncated and/or with bytes
        // flipped (the MVK bytes included, since rows carry MVKs).
        let mut bytes = DirTable::full(&entries).to_wire();
        if let Some(cut) = cut {
            bytes.truncate(cut.index(bytes.len()));
        }
        for at in &flips {
            if !bytes.is_empty() {
                let at = at.index(bytes.len());
                bytes[at] ^= xor;
            }
        }
        let mut table = match DirTable::from_wire(&bytes) {
            Ok(table) => table,
            Err(e) => {
                prop_assert!(matches!(e, CoreError::Corrupt(_)), "open: {e:?}");
                return Ok(());
            }
        };
        // A flipped row tag can leave a well-framed names-only row, which
        // denies traversal.
        let typed = |r: sharoes_core::Result<Option<ChildRef>>| {
            matches!(r, Ok(_) | Err(CoreError::Corrupt(_) | CoreError::PermissionDenied { .. }))
        };
        for (name, _) in &entries {
            prop_assert!(typed(table.lookup(name, None)), "lookup {name}");
        }
        let _ = table.list().count();
        for row in table.children() {
            prop_assert!(matches!(row, Ok(_) | Err(CoreError::Corrupt(_))));
        }
        // Every edit of an opened table leaves it well framed.
        for edit in &edits {
            match edit {
                Edit::Insert(name, child) => table.push_full(name, child),
                Edit::Remove(i) => {
                    if let Some((name, _)) = entries.get(i.index(entries.len())) {
                        table.remove(name);
                    }
                }
                Edit::Rename(i, to) => {
                    if let Some((from, _)) = entries.get(i.index(entries.len())) {
                        table.rename(from, to);
                    }
                }
            }
            prop_assert_eq!(&DirTable::from_wire(table.as_bytes()).unwrap(), &table);
        }
    }

    fn superblock_roundtrips(
        root_inode in gen::u64s(),
        root_view in gen::byte_arrays::<16>(),
        mek in gen::option_of(gen::byte_arrays::<16>()),
        block_size in gen::in_range(1u32..1_000_000),
        scheme_tag in gen::in_range(0u8..2),
    ) {
        let sb = Superblock {
            root_inode,
            root_view,
            root_mek: mek.map(SymKey),
            root_mvk: None,
            block_size,
            scheme_tag,
        };
        let decoded = Superblock::from_wire(&sb.to_wire()).unwrap();
        prop_assert_eq!(decoded.root_inode, sb.root_inode);
        prop_assert_eq!(decoded.root_view, sb.root_view);
        prop_assert_eq!(decoded.root_mek, sb.root_mek);
        prop_assert_eq!(decoded.block_size, sb.block_size);
        prop_assert_eq!(decoded.scheme_tag, sb.scheme_tag);
    }
}
