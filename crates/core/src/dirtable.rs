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
//!
//! A [`DirTable`] is its plaintext wire bytes plus an index of where each
//! row sits in them. Opening a table checks every row's framing once and
//! decodes nothing; [`DirTable::lookup`] decodes only the matched row's
//! [`ChildRef`], and [`DirTable::list`] borrows names from the bytes. A
//! parent-table edit works on the bytes too: an insert appends one encoded
//! row, a remove cuts one row out, a rename rewrites one name, so an edited
//! table is byte-identical to one built from the edited entries.

use crate::error::{CoreError, Result};
use sharoes_crypto::{hmac_sha256, RandomSource, SymKey, VerifyKey};
use sharoes_fs::NodeKind;
use sharoes_net::{Cursor, NetError, WireRead, WireWrite};
use std::ops::Range;

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
        kind_byte(self.kind).write(out);
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
        let f = ChildFields::read(r)?;
        let mvk =
            f.mvk.map(VerifyKey::from_bytes).transpose().map_err(|_| NetError::Codec("bad mvk"))?;
        Ok(ChildRef { inode: f.inode, kind: f.kind, view: f.view, mek: f.mek, mvk, split: f.split })
    }
}

/// A [`ChildRef`]'s fields as its encoding frames them, with the MVK left
/// as bytes: the one reader of that encoding. Opening a table checks each
/// full row with it; only a lookup parses the MVK.
struct ChildFields<'a> {
    inode: u64,
    kind: NodeKind,
    view: [u8; 16],
    mek: Option<SymKey>,
    mvk: Option<&'a [u8]>,
    split: bool,
}

impl<'a> ChildFields<'a> {
    fn read(r: &mut Cursor<'a>) -> std::result::Result<Self, NetError> {
        let inode = u64::read(r)?;
        let kind = kind_of(u8::read(r)?);
        let view = <[u8; 16]>::read(r)?;
        let mek = match u8::read(r)? {
            0 => None,
            1 => Some(SymKey(<[u8; 16]>::read(r)?)),
            _ => return Err(NetError::Codec("invalid mek option")),
        };
        let mvk = match u8::read(r)? {
            0 => None,
            1 => Some(r.take_bytes()?),
            _ => return Err(NetError::Codec("invalid option tag")),
        };
        let split = bool::read(r)?;
        Ok(ChildFields { inode, kind, view, mek, mvk, split })
    }
}

fn kind_byte(kind: NodeKind) -> u8 {
    matches!(kind, NodeKind::Dir) as u8
}

fn kind_of(byte: u8) -> NodeKind {
    if byte == 1 {
        NodeKind::Dir
    } else {
        NodeKind::File
    }
}

/// Row tags. A row is `tag || ...`:
/// * names-only: `0 || name || kind`,
/// * full: `1 || name || ChildRef`,
/// * exec-only: `2 || rowid[16] || sealed`,
///
/// where `name` and `sealed` carry a `u32` length prefix.
const NAME_ROW: u8 = 0;
const FULL_ROW: u8 = 1;
const HIDDEN_ROW: u8 = 2;

/// Offset of a named row's name bytes from its start: the tag and the
/// name's length prefix.
const NAME_AT: usize = 5;

/// What a row shows without decoding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RowKind {
    /// Name column only; the entry's kind.
    Name(NodeKind),
    /// All columns; the child's kind.
    Full(NodeKind),
    /// Row-encrypted (exec-only).
    Hidden,
}

/// Where one row sits in a table's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RowSpan {
    /// Offset of the row's tag byte.
    start: usize,
    /// Offset one past the row's last byte.
    end: usize,
    /// Length of a named row's name (0 for a hidden row).
    name_len: usize,
    kind: RowKind,
}

impl RowSpan {
    fn name(&self) -> Range<usize> {
        self.start + NAME_AT..self.start + NAME_AT + self.name_len
    }

    /// A full row's encoded `ChildRef`.
    fn child(&self) -> Range<usize> {
        self.name().end..self.end
    }

    /// A hidden row's row id.
    fn rowid(&self) -> Range<usize> {
        self.start + 1..self.start + 17
    }

    /// A hidden row's sealed `ChildRef`, after the id and its length
    /// prefix.
    fn sealed(&self) -> Range<usize> {
        self.start + 21..self.end
    }
}

/// A materialized directory-table view: its plaintext wire bytes (a `u32`
/// row count, then the rows) and the span of each row in them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirTable {
    bytes: Vec<u8>,
    /// One span per row, in row order (no particular order for hidden
    /// views).
    rows: Vec<RowSpan>,
}

impl Default for DirTable {
    fn default() -> Self {
        DirTable::with_capacity(0)
    }
}

impl WireWrite for DirTable {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.bytes);
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
    fn with_capacity(rows: usize) -> DirTable {
        DirTable { bytes: 0u32.to_wire(), rows: Vec::with_capacity(rows) }
    }

    /// Builds the names-only view.
    pub fn names_only(entries: &[(String, ChildRef)]) -> DirTable {
        let mut table = DirTable::with_capacity(entries.len());
        for (name, child) in entries {
            table.push_name(name, child.kind);
        }
        table
    }

    /// Builds the full four-column view.
    pub fn full(entries: &[(String, ChildRef)]) -> DirTable {
        let mut table = DirTable::with_capacity(entries.len());
        for (name, child) in entries {
            table.push_full(name, child);
        }
        table
    }

    /// Builds the exec-only view: each row independently sealed under a key
    /// derived from its name.
    pub fn exec_only<R: RandomSource + ?Sized>(
        entries: &[(String, ChildRef)],
        tek: &SymKey,
        rng: &mut R,
    ) -> DirTable {
        let mut table = DirTable::with_capacity(entries.len());
        for (name, child) in entries {
            let rowid = row_id(tek, name);
            table.push_hidden(&rowid, &row_key(tek, name).seal(rng, &child.to_wire()));
        }
        table
    }

    /// Opens a table from its plaintext wire bytes.
    pub fn from_wire(bytes: &[u8]) -> Result<DirTable> {
        DirTable::from_vec(bytes.to_vec())
    }

    /// Opens a table from its plaintext wire bytes, keeping them: checks
    /// every row's framing and indexes it, without decoding a name, a
    /// `ChildRef` or a verify key. A malformed MVK is found by the
    /// [`lookup`](DirTable::lookup) that decodes its row.
    pub fn from_vec(bytes: Vec<u8>) -> Result<DirTable> {
        let rows = index_rows(&bytes).map_err(|_| CoreError::Corrupt("table body"))?;
        Ok(DirTable { bytes, rows })
    }

    /// The plaintext wire bytes (what a table record seals).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Looks up `name`, decrypting hidden rows when `tek` is provided.
    ///
    /// Returns `Ok(None)` when absent, `PermissionDenied` when the view
    /// doesn't support traversal (names-only rows), and `Corrupt` when the
    /// matched row does not decode.
    pub fn lookup(&self, name: &str, tek: Option<&SymKey>) -> Result<Option<ChildRef>> {
        // The name's row id, computed at the first hidden row.
        let mut id: Option<[u8; 16]> = None;
        for row in &self.rows {
            match row.kind {
                RowKind::Full(_) if self.is_named(row, name) => return self.child(row).map(Some),
                RowKind::Name(_) if self.is_named(row, name) => {
                    return Err(CoreError::PermissionDenied {
                        path: name.to_string(),
                        needed: "exec (traverse) on directory",
                    })
                }
                RowKind::Hidden => {
                    let Some(tek) = tek else { continue };
                    if self.bytes[row.rowid()] == *id.get_or_insert_with(|| row_id(tek, name)) {
                        return open_row(tek, name, &self.bytes[row.sealed()]).map(Some);
                    }
                }
                _ => {}
            }
        }
        Ok(None)
    }

    /// Listable entries: `(name, kind, inode)`, the inode only for full
    /// rows. Hidden rows are not listable (that is the exec-only
    /// semantics).
    pub fn list(&self) -> impl Iterator<Item = (&str, NodeKind, Option<u64>)> {
        self.rows.iter().filter_map(|row| match row.kind {
            RowKind::Name(kind) => Some((self.name(row), kind, None)),
            RowKind::Full(kind) => {
                let mut inode = [0u8; 8];
                inode.copy_from_slice(&self.bytes[row.child().start..][..8]);
                Some((self.name(row), kind, Some(u64::from_be_bytes(inode))))
            }
            RowKind::Hidden => None,
        })
    }

    /// The full rows, decoded, in row order. A row that does not decode
    /// (a malformed MVK) is `Corrupt`.
    pub fn children(&self) -> impl Iterator<Item = Result<(&str, ChildRef)>> {
        self.rows
            .iter()
            .filter(|row| matches!(row.kind, RowKind::Full(_)))
            .map(|row| Ok((self.name(row), self.child(row)?)))
    }

    /// Appends a full four-column row.
    pub fn push_full(&mut self, name: &str, child: &ChildRef) {
        let start = self.begin_named(FULL_ROW, name);
        child.write(&mut self.bytes);
        self.end_row(start, name.len(), RowKind::Full(child.kind));
    }

    /// Appends a names-only row.
    pub fn push_name(&mut self, name: &str, kind: NodeKind) {
        let start = self.begin_named(NAME_ROW, name);
        self.bytes.push(kind_byte(kind));
        self.end_row(start, name.len(), RowKind::Name(kind));
    }

    fn push_hidden(&mut self, rowid: &[u8; 16], sealed: &[u8]) {
        let start = self.bytes.len();
        self.bytes.push(HIDDEN_ROW);
        self.bytes.extend_from_slice(rowid);
        (sealed.len() as u32).write(&mut self.bytes);
        self.bytes.extend_from_slice(sealed);
        self.end_row(start, 0, RowKind::Hidden);
    }

    /// Drops every named row called `name`: its span is cut out of the
    /// bytes.
    pub fn remove(&mut self, name: &str) {
        let mut i = 0;
        while i < self.rows.len() {
            let row = self.rows[i];
            if !self.is_named(&row, name) {
                i += 1;
                continue;
            }
            self.bytes.drain(row.start..row.end);
            self.rows.remove(i);
            self.shift(i, 0, row.end - row.start);
        }
        self.write_count();
    }

    /// Renames every named row called `from` to `to`: its name bytes and
    /// their length prefix are rewritten in place.
    pub fn rename(&mut self, from: &str, to: &str) {
        for i in 0..self.rows.len() {
            let row = self.rows[i];
            if !self.is_named(&row, from) {
                continue;
            }
            self.bytes[row.start + 1..row.start + NAME_AT]
                .copy_from_slice(&(to.len() as u32).to_be_bytes());
            self.bytes.splice(row.name(), to.bytes());
            self.rows[i].name_len = to.len();
            self.rows[i].end = row.end + to.len() - from.len();
            self.shift(i + 1, to.len(), from.len());
        }
    }

    /// Number of rows (including hidden ones).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn is_named(&self, row: &RowSpan, name: &str) -> bool {
        row.kind != RowKind::Hidden && self.bytes[row.name()] == *name.as_bytes()
    }

    fn name(&self, row: &RowSpan) -> &str {
        std::str::from_utf8(&self.bytes[row.name()]).expect("row names are UTF-8 checked at open")
    }

    fn child(&self, row: &RowSpan) -> Result<ChildRef> {
        ChildRef::from_wire(&self.bytes[row.child()]).map_err(|_| CoreError::Corrupt("table row"))
    }

    fn begin_named(&mut self, tag: u8, name: &str) -> usize {
        let start = self.bytes.len();
        self.bytes.push(tag);
        (name.len() as u32).write(&mut self.bytes);
        self.bytes.extend_from_slice(name.as_bytes());
        start
    }

    fn end_row(&mut self, start: usize, name_len: usize, kind: RowKind) {
        self.rows.push(RowSpan { start, end: self.bytes.len(), name_len, kind });
        self.write_count();
    }

    fn write_count(&mut self) {
        self.bytes[..4].copy_from_slice(&(self.rows.len() as u32).to_be_bytes());
    }

    /// Moves the spans of rows `from..` by `grown - shrunk` bytes.
    fn shift(&mut self, from: usize, grown: usize, shrunk: usize) {
        for row in &mut self.rows[from..] {
            row.start = row.start + grown - shrunk;
            row.end = row.end + grown - shrunk;
        }
    }
}

/// Checks the framing of every row of a table's bytes and returns their
/// spans. Names are checked to be UTF-8; nothing is allocated per row.
fn index_rows(bytes: &[u8]) -> std::result::Result<Vec<RowSpan>, NetError> {
    let mut r = Cursor::new(bytes);
    let count = u32::read(&mut r)? as usize;
    // Each row costs at least one byte.
    if count > r.remaining() {
        return Err(NetError::Codec("vector length exceeds input"));
    }
    // Grows from a capped guess: a hostile count must not reserve a span
    // per input byte.
    let mut rows = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let start = bytes.len() - r.remaining();
        let (name_len, kind) = match u8::read(&mut r)? {
            NAME_ROW => (read_name(&mut r)?, RowKind::Name(kind_of(u8::read(&mut r)?))),
            FULL_ROW => (read_name(&mut r)?, RowKind::Full(ChildFields::read(&mut r)?.kind)),
            HIDDEN_ROW => {
                <[u8; 16]>::read(&mut r)?;
                r.take_bytes()?;
                (0, RowKind::Hidden)
            }
            _ => return Err(NetError::Codec("unknown row tag")),
        };
        rows.push(RowSpan { start, end: bytes.len() - r.remaining(), name_len, kind });
    }
    r.expect_end()?;
    Ok(rows)
}

/// Checks a length-prefixed UTF-8 name and returns its length.
fn read_name(r: &mut Cursor<'_>) -> std::result::Result<usize, NetError> {
    let name = r.take_bytes()?;
    std::str::from_utf8(name).map_err(|_| NetError::Codec("invalid utf-8"))?;
    Ok(name.len())
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
        // Truncate the sealed row so the decrypted ChildRef cannot parse.
        let sealed = row_key(&tek, "entry0").seal(&mut rng, &entries[0].1.to_wire());
        let mut table = DirTable::default();
        table.push_hidden(&row_id(&tek, "entry0"), &sealed[..sealed.len() / 2]);
        let table = DirTable::from_wire(&table.to_wire()).unwrap();
        assert!(matches!(table.lookup("entry0", Some(&tek)), Err(CoreError::Corrupt(_))));
    }

    #[test]
    fn malformed_mvk_fails_typed_at_lookup_not_at_open() {
        let entries = sample_entries(3);
        // Give entry1 an MVK field whose bytes are not a verify key: the
        // row's framing is sound, so the table opens and the other rows
        // still resolve.
        let bad = {
            let mut t = DirTable::default();
            t.push_full("entry1", &entries[1].1);
            let mut row = t.to_wire()[4..].to_vec();
            let mvk_tag = row.len() - 2;
            row.truncate(mvk_tag);
            row.extend_from_slice(&[1, 0, 0, 0, 3, 9, 9, 9, 0]);
            row
        };
        let good = DirTable::full(&entries[..1]).to_wire();
        let rest = DirTable::full(&entries[2..]).to_wire();
        let mut bytes = 3u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&good[4..]);
        bytes.extend_from_slice(&bad);
        bytes.extend_from_slice(&rest[4..]);
        let table = DirTable::from_wire(&bytes).unwrap();
        assert_eq!(table.len(), 3);
        assert_eq!(table.lookup("entry0", None).unwrap().unwrap().inode, 100);
        assert_eq!(table.lookup("entry2", None).unwrap().unwrap().inode, 102);
        assert!(matches!(table.lookup("entry1", None), Err(CoreError::Corrupt("table row"))));
        assert_eq!(table.list().nth(1), Some(("entry1", NodeKind::Dir, Some(101))));
        assert_eq!(table.children().filter(|row| row.is_err()).count(), 1);
    }

    #[test]
    fn row_keys_differ_per_name_and_tek() {
        let tek = SymKey([1; 16]);
        assert_ne!(row_id(&tek, "a"), row_id(&tek, "b"));
        assert_ne!(row_key(&tek, "a"), row_key(&tek, "b"));
        assert_ne!(row_id(&tek, "a"), row_id(&SymKey([2; 16]), "a"));
    }
}
