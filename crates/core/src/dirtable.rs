//! Directory tables (paper Figure 3) and their per-CAP views.
//!
//! The table extends the ext2 layout `(inode#, name)` with the MEK and MVK
//! of each child, so "the directory table not only provides information
//! about how to obtain the metadata object for subfiles/directories, but
//! also provides the keys to decrypt/verify that metadata object".
//!
//! Three materialized views exist, matching Figure 4:
//! * names-only (read / read-write CAPs),
//! * full four-column (read-exec / rwx CAPs),
//! * exec-only: each row sealed under a key derived from the entry name via
//!   the keyed hash `H_DEKthis(name)`, so traversal works only with the
//!   exact name.

use crate::error::{CoreError, Result};
use sharoes_crypto::{hmac_sha256, RandomSource, SymKey, VerifyKey};
use sharoes_fs::NodeKind;
use sharoes_net::{Cursor, NetError, WireRead, WireWrite};

/// Everything a row reveals about one child in a traversable view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChildRef {
    /// Child inode number.
    pub inode: u64,
    /// Child kind (file/dir).
    pub kind: NodeKind,
    /// View tag of the child's metadata replica this class continues into.
    pub view: [u8; 16],
    /// MEK for that replica (None for baseline policies, which open
    /// metadata with the user's private key instead).
    pub mek: Option<SymKey>,
    /// MVK for that replica (None when the policy doesn't sign).
    pub mvk: Option<VerifyKey>,
    /// True when the class population diverges at this child: affected
    /// principals must consult their split-point entry (§III-D.2).
    pub split: bool,
}

impl WireWrite for ChildRef {
    fn write(&self, out: &mut Vec<u8>) {
        self.inode.write(out);
        (matches!(self.kind, NodeKind::Dir) as u8).write(out);
        self.view.write(out);
        match &self.mek {
            None => 0u8.write(out),
            Some(k) => {
                1u8.write(out);
                k.0.write(out);
            }
        }
        self.mvk.as_ref().map(|k| k.to_bytes()).write(out);
        self.split.write(out);
    }
}

impl WireRead for ChildRef {
    fn read(r: &mut Cursor<'_>) -> std::result::Result<Self, NetError> {
        let inode = u64::read(r)?;
        let kind = if u8::read(r)? == 1 { NodeKind::Dir } else { NodeKind::File };
        let view = <[u8; 16]>::read(r)?;
        let mek = match u8::read(r)? {
            0 => None,
            1 => Some(SymKey(<[u8; 16]>::read(r)?)),
            _ => return Err(NetError::Codec("invalid mek option")),
        };
        let mvk = Option::<Vec<u8>>::read(r)?
            .map(|b| VerifyKey::from_bytes(&b))
            .transpose()
            .map_err(|_| NetError::Codec("bad mvk"))?;
        let split = bool::read(r)?;
        Ok(ChildRef { inode, kind, view, mek, mvk, split })
    }
}

/// One row of a materialized table view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Row {
    /// Name column only (read-only views).
    Name {
        /// Entry name.
        name: String,
        /// Entry kind, shown by `ls` coloring; carries no keys.
        kind: NodeKind,
    },
    /// All columns (read-exec / rwx views).
    Full {
        /// Entry name.
        name: String,
        /// Keys and pointer for the child.
        child: ChildRef,
    },
    /// Row-encrypted (exec-only views): only derivable with the exact name.
    Hidden {
        /// `HMAC(TEK, "rowid:" || name)` truncated to 16 bytes.
        rowid: [u8; 16],
        /// `ChildRef` sealed under `H_TEK(name)`.
        sealed: Vec<u8>,
    },
}

impl WireWrite for Row {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Row::Name { name, kind } => {
                0u8.write(out);
                name.write(out);
                (matches!(kind, NodeKind::Dir) as u8).write(out);
            }
            Row::Full { name, child } => {
                1u8.write(out);
                name.write(out);
                child.write(out);
            }
            Row::Hidden { rowid, sealed } => {
                2u8.write(out);
                rowid.write(out);
                sealed.write(out);
            }
        }
    }
}

impl WireRead for Row {
    fn read(r: &mut Cursor<'_>) -> std::result::Result<Self, NetError> {
        Ok(match u8::read(r)? {
            0 => Row::Name {
                name: String::read(r)?,
                kind: if u8::read(r)? == 1 { NodeKind::Dir } else { NodeKind::File },
            },
            1 => Row::Full { name: String::read(r)?, child: ChildRef::read(r)? },
            2 => Row::Hidden { rowid: <[u8; 16]>::read(r)?, sealed: Vec::<u8>::read(r)? },
            _ => return Err(NetError::Codec("unknown row tag")),
        })
    }
}

/// A materialized directory-table view.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DirTable {
    /// Rows, in no particular order for hidden views.
    pub rows: Vec<Row>,
}

impl WireWrite for DirTable {
    fn write(&self, out: &mut Vec<u8>) {
        self.rows.write(out);
    }
}

impl WireRead for DirTable {
    fn read(r: &mut Cursor<'_>) -> std::result::Result<Self, NetError> {
        Ok(DirTable { rows: Vec::<Row>::read(r)? })
    }
}

/// `HMAC(TEK, "rowid:" || name)[..16]` — the exec-only lookup index.
pub fn row_id(tek: &SymKey, name: &str) -> [u8; 16] {
    let mut msg = Vec::with_capacity(6 + name.len());
    msg.extend_from_slice(b"rowid:");
    msg.extend_from_slice(name.as_bytes());
    let mac = hmac_sha256(&tek.0, &msg);
    let mut out = [0u8; 16];
    out.copy_from_slice(&mac[..16]);
    out
}

/// The per-row sealing key `H_DEKthis(name)` of §III-A.
pub fn row_key(tek: &SymKey, name: &str) -> SymKey {
    let mut label = Vec::with_capacity(4 + name.len());
    label.extend_from_slice(b"row:");
    label.extend_from_slice(name.as_bytes());
    SymKey::derive(tek, &label)
}

impl DirTable {
    /// Builds the names-only view.
    pub fn names_only(entries: &[(String, ChildRef)]) -> DirTable {
        DirTable {
            rows: entries
                .iter()
                .map(|(name, child)| Row::Name { name: name.clone(), kind: child.kind })
                .collect(),
        }
    }

    /// Builds the full four-column view.
    pub fn full(entries: &[(String, ChildRef)]) -> DirTable {
        DirTable {
            rows: entries
                .iter()
                .map(|(name, child)| Row::Full { name: name.clone(), child: child.clone() })
                .collect(),
        }
    }

    /// Builds the exec-only view: each row independently sealed under a key
    /// derived from its name.
    pub fn exec_only<R: RandomSource + ?Sized>(
        entries: &[(String, ChildRef)],
        tek: &SymKey,
        rng: &mut R,
    ) -> DirTable {
        DirTable {
            rows: entries
                .iter()
                .map(|(name, child)| Row::Hidden {
                    rowid: row_id(tek, name),
                    sealed: row_key(tek, name).seal(rng, &child.to_wire()),
                })
                .collect(),
        }
    }

    /// Looks up `name`, decrypting hidden rows when `tek` is provided.
    ///
    /// Returns `Ok(None)` when absent, `PermissionDenied` when the view
    /// doesn't support traversal (names-only rows).
    pub fn lookup(&self, name: &str, tek: Option<&SymKey>) -> Result<Option<ChildRef>> {
        // The name's row id, computed at the first hidden row.
        let mut id: Option<[u8; 16]> = None;
        for row in &self.rows {
            match row {
                Row::Full { name: n, child } if n == name => return Ok(Some(child.clone())),
                Row::Name { name: n, .. } if n == name => {
                    return Err(CoreError::PermissionDenied {
                        path: name.to_string(),
                        needed: "exec (traverse) on directory",
                    })
                }
                Row::Hidden { rowid, sealed } => {
                    let Some(tek) = tek else { continue };
                    if *rowid == *id.get_or_insert_with(|| row_id(tek, name)) {
                        return open_row(tek, name, sealed).map(Some);
                    }
                }
                _ => {}
            }
        }
        Ok(None)
    }

    /// Listable entries: `(name, kind, Option<&ChildRef>)`. Hidden rows are
    /// not listable (that is the exec-only semantics).
    pub fn list(&self) -> impl Iterator<Item = (&str, NodeKind, Option<&ChildRef>)> {
        self.rows.iter().filter_map(|row| match row {
            Row::Name { name, kind } => Some((name.as_str(), *kind, None)),
            Row::Full { name, child } => Some((name.as_str(), child.kind, Some(child))),
            Row::Hidden { .. } => None,
        })
    }

    /// Number of rows (including hidden ones).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Opens the hidden row sealed for `name`.
fn open_row(tek: &SymKey, name: &str, sealed: &[u8]) -> Result<ChildRef> {
    let plain = row_key(tek, name).open(sealed).map_err(|_| CoreError::Corrupt("exec-only row"))?;
    ChildRef::from_wire(&plain).map_err(|_| CoreError::Corrupt("exec-only row body"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharoes_crypto::HmacDrbg;

    fn sample_entries(n: usize) -> Vec<(String, ChildRef)> {
        (0..n)
            .map(|i| {
                (
                    format!("entry{i}"),
                    ChildRef {
                        inode: 100 + i as u64,
                        kind: if i % 2 == 0 { NodeKind::File } else { NodeKind::Dir },
                        view: [i as u8; 16],
                        mek: Some(SymKey([i as u8 + 1; 16])),
                        mvk: None,
                        split: i == 2,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn codec_roundtrip_all_views() {
        let entries = sample_entries(4);
        let mut rng = HmacDrbg::from_seed_u64(1);
        let tek = SymKey([9; 16]);
        for table in [
            DirTable::names_only(&entries),
            DirTable::full(&entries),
            DirTable::exec_only(&entries, &tek, &mut rng),
        ] {
            assert_eq!(DirTable::from_wire(&table.to_wire()).unwrap(), table);
        }
    }

    #[test]
    fn full_view_lookup() {
        let entries = sample_entries(3);
        let table = DirTable::full(&entries);
        let child = table.lookup("entry1", None).unwrap().unwrap();
        assert_eq!(child.inode, 101);
        assert_eq!(child.kind, NodeKind::Dir);
        assert!(table.lookup("absent", None).unwrap().is_none());
        assert_eq!(table.list().count(), 3);
    }

    #[test]
    fn names_only_view_lists_but_cannot_traverse() {
        let entries = sample_entries(2);
        let table = DirTable::names_only(&entries);
        let listed: Vec<_> = table.list().collect();
        assert_eq!(listed.len(), 2);
        assert!(listed.iter().all(|(_, _, child)| child.is_none()));
        assert!(matches!(table.lookup("entry0", None), Err(CoreError::PermissionDenied { .. })));
    }

    #[test]
    fn exec_only_semantics() {
        let entries = sample_entries(3);
        let mut rng = HmacDrbg::from_seed_u64(2);
        let tek = SymKey([7; 16]);
        let table = DirTable::exec_only(&entries, &tek, &mut rng);

        // Cannot list: no names are recoverable.
        assert!(table.list().next().is_none());
        assert_eq!(table.len(), 3);

        // With the exact name and the TEK, the row opens.
        let child = table.lookup("entry2", Some(&tek)).unwrap().unwrap();
        assert_eq!(child.inode, 102);
        assert!(child.split);

        // Wrong name: nothing.
        assert!(table.lookup("entry9", Some(&tek)).unwrap().is_none());

        // No TEK: nothing (not even an error revealing existence).
        assert!(table.lookup("entry2", None).unwrap().is_none());

        // Wrong TEK: row ids don't match, so nothing.
        assert!(table.lookup("entry2", Some(&SymKey([8; 16]))).unwrap().is_none());
    }

    #[test]
    fn exec_only_rebuild_reopens_every_name() {
        let entries = sample_entries(200);
        let tek = SymKey([6; 16]);
        let table = DirTable::exec_only(&entries, &tek, &mut HmacDrbg::from_seed_u64(5));

        // What an exec-only rebuild does: look up each name in the names'
        // order (one row-id HMAC per lookup) and reseal.
        let mut recovered = Vec::with_capacity(entries.len());
        for (name, _) in &entries {
            let child = table.lookup(name, Some(&tek)).unwrap().expect("every name has a row");
            recovered.push((name.clone(), child));
        }
        assert_eq!(recovered, entries);
        assert!(table.lookup("entry200", Some(&tek)).unwrap().is_none());

        // Same entries, order and rng: the rebuilt view is byte-identical,
        // and every name opens to the same ChildRef.
        let rebuilt = DirTable::exec_only(&recovered, &tek, &mut HmacDrbg::from_seed_u64(5));
        assert_eq!(rebuilt.to_wire(), table.to_wire());
        for (name, child) in &entries {
            assert_eq!(rebuilt.lookup(name, Some(&tek)).unwrap().as_ref(), Some(child));
        }
    }

    #[test]
    fn exec_only_rows_leak_no_plaintext_names() {
        let entries = vec![(
            "supersecretname".to_string(),
            ChildRef {
                inode: 1,
                kind: NodeKind::File,
                view: [0; 16],
                mek: None,
                mvk: None,
                split: false,
            },
        )];
        let mut rng = HmacDrbg::from_seed_u64(3);
        let table = DirTable::exec_only(&entries, &SymKey([1; 16]), &mut rng);
        let bytes = table.to_wire();
        let needle = b"supersecretname";
        assert!(
            !bytes.windows(needle.len()).any(|w| w == needle),
            "entry name must not appear in serialized exec-only table"
        );
    }

    #[test]
    fn tampered_hidden_row_detected() {
        let entries = sample_entries(1);
        let mut rng = HmacDrbg::from_seed_u64(4);
        let tek = SymKey([5; 16]);
        let mut table = DirTable::exec_only(&entries, &tek, &mut rng);
        if let Row::Hidden { sealed, .. } = &mut table.rows[0] {
            // Truncate so the decrypted ChildRef cannot parse.
            sealed.truncate(sealed.len() / 2);
        }
        assert!(matches!(table.lookup("entry0", Some(&tek)), Err(CoreError::Corrupt(_))));
    }

    #[test]
    fn row_keys_differ_per_name_and_tek() {
        let tek = SymKey([1; 16]);
        assert_ne!(row_id(&tek, "a"), row_id(&tek, "b"));
        assert_ne!(row_key(&tek, "a"), row_key(&tek, "b"));
        assert_ne!(row_id(&tek, "a"), row_id(&SymKey([2; 16]), "a"));
    }
}
