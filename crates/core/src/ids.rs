//! View-tag derivation: how objects are addressed at the SSP.
//!
//! The SSP indexes objects "by the inode numbers and either hash of
//! user/group ID (for Scheme-1) or CAP ID (Scheme-2)" (paper §IV). All tags
//! are 16-byte truncated SHA-256 over domain-separated inputs, so the SSP
//! learns nothing about principals or permissions from the key structure.

use sharoes_crypto::Sha256;
use sharoes_fs::{Gid, Uid};
use sharoes_net::{Cursor, NetError, WireRead, WireWrite};

/// Which permission class a Scheme-2 CAP instance belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum ClassTag {
    /// The object owner.
    Owner,
    /// The owning group (minus the owner).
    Group,
    /// Everyone else.
    Other,
    /// A POSIX-ACL named user.
    AclUser(u32),
    /// A POSIX-ACL named group.
    AclGroup(u32),
}

impl ClassTag {
    fn domain_bytes(self) -> Vec<u8> {
        match self {
            ClassTag::Owner => b"owner".to_vec(),
            ClassTag::Group => b"group".to_vec(),
            ClassTag::Other => b"other".to_vec(),
            ClassTag::AclUser(u) => format!("acl-u:{u}").into_bytes(),
            ClassTag::AclGroup(g) => format!("acl-g:{g}").into_bytes(),
        }
    }
}

impl WireWrite for ClassTag {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            ClassTag::Owner => 0u8.write(out),
            ClassTag::Group => 1u8.write(out),
            ClassTag::Other => 2u8.write(out),
            ClassTag::AclUser(u) => {
                3u8.write(out);
                u.write(out);
            }
            ClassTag::AclGroup(g) => {
                4u8.write(out);
                g.write(out);
            }
        }
    }
}

impl WireRead for ClassTag {
    fn read(r: &mut Cursor<'_>) -> std::result::Result<Self, NetError> {
        Ok(match u8::read(r)? {
            0 => ClassTag::Owner,
            1 => ClassTag::Group,
            2 => ClassTag::Other,
            3 => ClassTag::AclUser(u32::read(r)?),
            4 => ClassTag::AclGroup(u32::read(r)?),
            _ => return Err(NetError::Codec("unknown class tag")),
        })
    }
}

fn h16(parts: &[&[u8]]) -> [u8; 16] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(&(p.len() as u32).to_be_bytes());
        h.update(p);
    }
    let digest = h.finalize_array();
    let mut out = [0u8; 16];
    out.copy_from_slice(&digest[..16]);
    out
}

/// Scheme-1 view: the per-user tree of `uid`.
pub fn user_view(uid: Uid) -> [u8; 16] {
    h16(&[b"sharoes:view:user", &uid.0.to_be_bytes()])
}

/// Scheme-2 view: the CAP instance of `(inode, class)`.
pub fn cap_view(inode: u64, class: ClassTag) -> [u8; 16] {
    h16(&[b"sharoes:view:cap", &inode.to_be_bytes(), &class.domain_bytes()])
}

/// View under which file data blocks are stored for key epoch `generation`.
///
/// Rotating the DEK (revocation) moves data to a fresh view so stale cached
/// keys cannot even locate the re-encrypted blocks.
pub fn data_view(inode: u64, generation: u64) -> [u8; 16] {
    h16(&[b"sharoes:view:data", &inode.to_be_bytes(), &generation.to_be_bytes()])
}

/// Per-user superblock slot (§III-C).
pub fn superblock_view(uid: Uid) -> [u8; 16] {
    h16(&[b"sharoes:view:superblock", &uid.0.to_be_bytes()])
}

/// Group-key block slot for `(gid, member uid)` (§II-A).
pub fn group_key_view(uid: Uid) -> [u8; 16] {
    h16(&[b"sharoes:view:groupkey", &uid.0.to_be_bytes()])
}

/// Per-mount versioned KEK-chain slot for `uid` (rotation lifecycle,
/// DESIGN.md §10). Lives in the superblock key space: like the superblock,
/// the chain is sealed under the user's public key and recovered in-band.
pub fn kek_chain_view(uid: Uid) -> [u8; 16] {
    h16(&[b"sharoes:view:kek-chain", &uid.0.to_be_bytes()])
}

/// DEK escrow slot for `(owner uid, inode)`. Escrow records are stored as
/// data-space objects whose block index carries the key generation, sealed
/// under the owner's current mount-KEK version.
pub fn dek_escrow_view(uid: Uid, inode: u64) -> [u8; 16] {
    h16(&[b"sharoes:view:dek-escrow", &uid.0.to_be_bytes(), &inode.to_be_bytes()])
}

/// Scheme-2 split-point entry addressed to a single user (§III-D.2).
pub fn split_user_view(inode: u64, uid: Uid) -> [u8; 16] {
    h16(&[b"sharoes:view:split-user", &inode.to_be_bytes(), &uid.0.to_be_bytes()])
}

/// Scheme-2 split-point entry addressed to a whole group.
pub fn split_group_view(inode: u64, gid: Gid) -> [u8; 16] {
    h16(&[b"sharoes:view:split-group", &inode.to_be_bytes(), &gid.0.to_be_bytes()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_are_deterministic_and_distinct() {
        assert_eq!(user_view(Uid(1)), user_view(Uid(1)));
        assert_ne!(user_view(Uid(1)), user_view(Uid(2)));
        assert_ne!(user_view(Uid(1)), superblock_view(Uid(1)));
        assert_ne!(kek_chain_view(Uid(1)), superblock_view(Uid(1)));
        assert_ne!(dek_escrow_view(Uid(1), 7), data_view(7, 0));
        assert_ne!(dek_escrow_view(Uid(1), 7), dek_escrow_view(Uid(2), 7));
        assert_ne!(cap_view(1, ClassTag::Owner), cap_view(1, ClassTag::Group));
        assert_ne!(cap_view(1, ClassTag::Owner), cap_view(2, ClassTag::Owner));
        assert_ne!(data_view(1, 0), data_view(1, 1));
        assert_ne!(split_user_view(1, Uid(1)), split_group_view(1, Gid(1)));
    }

    #[test]
    fn acl_classes_distinct_per_principal() {
        assert_ne!(cap_view(1, ClassTag::AclUser(5)), cap_view(1, ClassTag::AclUser(6)));
        assert_ne!(cap_view(1, ClassTag::AclUser(5)), cap_view(1, ClassTag::AclGroup(5)));
    }

    #[test]
    fn class_tag_wire_roundtrip() {
        for tag in [
            ClassTag::Owner,
            ClassTag::Group,
            ClassTag::Other,
            ClassTag::AclUser(42),
            ClassTag::AclGroup(7),
        ] {
            assert_eq!(ClassTag::from_wire(&tag.to_wire()).unwrap(), tag);
        }
        assert!(ClassTag::from_wire(&[9]).is_err());
    }

    #[test]
    fn domain_separation_resists_concatenation_tricks() {
        // ("ab", "c") and ("a", "bc") must hash differently: lengths are
        // mixed into the hash.
        assert_ne!(h16(&[b"ab", b"c"]), h16(&[b"a", b"bc"]));
    }
}
