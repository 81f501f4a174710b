//! # sharoes-fs
//!
//! The local *nix filesystem model underlying the Sharoes reproduction:
//!
//! * [`users`] — the enterprise user/group directory (identities whose
//!   public keys anchor Sharoes key distribution).
//! * [`mode`] / [`acl`] — permission bits, POSIX ACLs, and the permission-
//!   class evaluation that Sharoes CAPs replicate cryptographically.
//! * [`fsys`] — an in-memory filesystem with full permission enforcement:
//!   the "local storage" the migration tool transitions to the SSP, and the
//!   reference semantics the Sharoes client must match.
//! * [`treegen`] — reproducible synthetic trees with a realistic permission
//!   mix (stand-in for the paper's proprietary enterprise traces).
//!
//! ## Example
//!
//! ```
//! use sharoes_fs::prelude::*;
//!
//! let mut db = UserDb::new();
//! db.add_group(Gid(100), "eng").unwrap();
//! db.add_user(Uid(0), "root", Gid(100)).unwrap();
//! db.add_user(Uid(1), "alice", Gid(100)).unwrap();
//!
//! let mut fs = LocalFs::new(db, Gid(100), Mode::from_octal(0o755));
//! fs.mkdir(Uid(0), "/shared", Mode::from_octal(0o775)).unwrap();
//! fs.create(Uid(1), "/shared/doc.txt", Mode::from_octal(0o644)).unwrap();
//! fs.write(Uid(1), "/shared/doc.txt", b"design notes").unwrap();
//! assert_eq!(fs.read(Uid(1), "/shared/doc.txt").unwrap(), b"design notes");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod acl;
pub mod fsys;
pub mod inode;
pub mod mode;
pub mod path;
pub mod treegen;
pub mod users;

/// Convenient re-exports of the commonly used types.
pub mod prelude {
    pub use crate::acl::Acl;
    pub use crate::fsys::{DirEntry, FsError, LocalFs, ROOT_UID};
    pub use crate::inode::{Attr, InodeId, NodeKind};
    pub use crate::mode::{
        class_perm_with_acl, classify, classify_with_acl, effective_perm, AclClass, Mode, Perm,
        PermClass,
    };
    pub use crate::users::{Gid, Uid, User, UserDb};
}

pub use prelude::*;
