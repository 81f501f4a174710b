//! An in-memory *nix filesystem with full permission enforcement.
//!
//! This is the "local storage" of the paper's transition story: the thing an
//! enterprise runs *before* outsourcing, the input to the migration tool, and
//! the reference model our integration tests compare the Sharoes client
//! against (the client must expose *equivalent data sharing semantics*).

use crate::acl::Acl;
use crate::inode::{Attr, InodeId, NodeKind};
use crate::mode::{effective_perm, Mode, Perm};
use crate::path::{self, PathError};
use crate::users::{Gid, Uid, UserDb};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// The superuser, who bypasses permission checks (classic *nix root).
pub const ROOT_UID: Uid = Uid(0);

/// Errors from filesystem operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// A path component does not exist.
    NotFound(String),
    /// Expected a directory, found a file.
    NotADirectory(String),
    /// Expected a file, found a directory.
    IsADirectory(String),
    /// The caller lacks the needed permission.
    PermissionDenied {
        /// The path (or name) the check failed on.
        path: String,
        /// What was needed, e.g. "write+exec on parent".
        needed: &'static str,
    },
    /// Target name already exists.
    AlreadyExists(String),
    /// Directory is not empty.
    NotEmpty(String),
    /// Path failed validation.
    BadPath(PathError),
    /// Operation not valid on the root directory.
    RootForbidden,
    /// Unknown user.
    NoSuchUser(Uid),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            FsError::PermissionDenied { path, needed } => {
                write!(f, "permission denied on {path} (needed {needed})")
            }
            FsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            FsError::NotEmpty(p) => write!(f, "directory not empty: {p}"),
            FsError::BadPath(e) => write!(f, "{e}"),
            FsError::RootForbidden => write!(f, "operation not permitted on /"),
            FsError::NoSuchUser(u) => write!(f, "no such user: {u}"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<PathError> for FsError {
    fn from(e: PathError) -> Self {
        FsError::BadPath(e)
    }
}

/// One directory entry as returned by `readdir`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name.
    pub name: String,
    /// Target inode.
    pub inode: InodeId,
    /// Target kind.
    pub kind: NodeKind,
}

#[derive(Clone, Debug)]
enum Content {
    File(Vec<u8>),
    Dir(BTreeMap<String, InodeId>),
}

#[derive(Clone, Debug)]
struct Node {
    attr: Attr,
    content: Content,
}

/// The in-memory filesystem.
#[derive(Clone, Debug)]
pub struct LocalFs {
    nodes: HashMap<u64, Node>,
    next_inode: u64,
    root: InodeId,
    users: UserDb,
}

impl LocalFs {
    /// Creates a filesystem whose root is owned by `root:root_gid` with the
    /// given mode (conventionally `0o755`).
    pub fn new(users: UserDb, root_group: Gid, root_mode: Mode) -> Self {
        let root = InodeId(1);
        let mut nodes = HashMap::new();
        nodes.insert(
            root.0,
            Node {
                attr: Attr::new(root, NodeKind::Dir, ROOT_UID, root_group, root_mode),
                content: Content::Dir(BTreeMap::new()),
            },
        );
        LocalFs { nodes, next_inode: 2, root, users }
    }

    /// The enterprise user directory backing permission checks.
    pub fn users(&self) -> &UserDb {
        &self.users
    }

    /// The root inode.
    pub fn root(&self) -> InodeId {
        self.root
    }

    /// Number of live inodes (including the root).
    pub fn inode_count(&self) -> usize {
        self.nodes.len()
    }

    fn node(&self, ino: InodeId) -> &Node {
        self.nodes.get(&ino.0).expect("dangling inode id")
    }

    fn node_mut(&mut self, ino: InodeId) -> &mut Node {
        self.nodes.get_mut(&ino.0).expect("dangling inode id")
    }

    fn effective(&self, uid: Uid, attr: &Attr) -> Perm {
        if uid == ROOT_UID {
            return Perm::RWX;
        }
        effective_perm(uid, attr.owner, attr.group, attr.mode, &attr.acl, &self.users)
    }

    /// Resolves the parent chain of `parts`, checking exec (traverse) on
    /// every directory along the way, and returns the final inode.
    fn resolve_components(&self, uid: Uid, parts: &[&str]) -> Result<InodeId, FsError> {
        let mut cur = self.root;
        for (i, &comp) in parts.iter().enumerate() {
            let node = self.node(cur);
            let Content::Dir(entries) = &node.content else {
                return Err(FsError::NotADirectory(path::join(&parts[..i])));
            };
            if !self.effective(uid, &node.attr).exec {
                return Err(FsError::PermissionDenied {
                    path: path::join(&parts[..i]),
                    needed: "exec (traverse)",
                });
            }
            cur = *entries.get(comp).ok_or_else(|| FsError::NotFound(path::join(&parts[..=i])))?;
        }
        Ok(cur)
    }

    /// Resolves an absolute path to an inode (checking traversal rights).
    pub fn resolve(&self, uid: Uid, p: &str) -> Result<InodeId, FsError> {
        let parts = path::split(p)?;
        self.resolve_components(uid, &parts)
    }

    /// Resolves the parent directory of `p` and returns `(parent, name)`.
    fn resolve_parent<'a>(&self, uid: Uid, p: &'a str) -> Result<(InodeId, &'a str), FsError> {
        let (parent_parts, name) = path::split_parent(p)?;
        let parent = self.resolve_components(uid, &parent_parts)?;
        Ok((parent, name))
    }

    /// `stat`: attributes of the object at `p`.
    ///
    /// Like *nix, requires traverse on ancestors but no permission on the
    /// object itself.
    pub fn getattr(&self, uid: Uid, p: &str) -> Result<Attr, FsError> {
        let ino = self.resolve(uid, p)?;
        Ok(self.node(ino).attr.clone())
    }

    /// Lists a directory; requires read on it.
    pub fn readdir(&self, uid: Uid, p: &str) -> Result<Vec<DirEntry>, FsError> {
        let ino = self.resolve(uid, p)?;
        let node = self.node(ino);
        let Content::Dir(entries) = &node.content else {
            return Err(FsError::NotADirectory(p.to_string()));
        };
        if !self.effective(uid, &node.attr).read {
            return Err(FsError::PermissionDenied { path: p.to_string(), needed: "read" });
        }
        Ok(entries
            .iter()
            .map(|(name, &ino)| DirEntry {
                name: name.clone(),
                inode: ino,
                kind: self.node(ino).attr.kind,
            })
            .collect())
    }

    fn check_parent_writable(&self, uid: Uid, parent: InodeId, p: &str) -> Result<(), FsError> {
        let node = self.node(parent);
        let perm = self.effective(uid, &node.attr);
        // Adding/removing entries needs write; the traversal to get here
        // already checked exec on ancestors, but write requires exec too.
        if !(perm.write && perm.exec) {
            return Err(FsError::PermissionDenied {
                path: p.to_string(),
                needed: "write+exec on parent",
            });
        }
        Ok(())
    }

    fn insert_child(
        &mut self,
        uid: Uid,
        p: &str,
        kind: NodeKind,
        mode: Mode,
    ) -> Result<InodeId, FsError> {
        path::validate_name(path::split_parent(p)?.1)?;
        let (parent, name) = self.resolve_parent(uid, p)?;
        if !matches!(self.node(parent).content, Content::Dir(_)) {
            return Err(FsError::NotADirectory(p.to_string()));
        }
        self.check_parent_writable(uid, parent, p)?;
        let user = self.users.user(uid).ok_or(FsError::NoSuchUser(uid))?;
        let group = user.primary_gid;

        let Content::Dir(entries) = &self.node(parent).content else { unreachable!() };
        if entries.contains_key(name) {
            return Err(FsError::AlreadyExists(p.to_string()));
        }

        let ino = InodeId(self.next_inode);
        self.next_inode += 1;
        let content = match kind {
            NodeKind::File => Content::File(Vec::new()),
            NodeKind::Dir => Content::Dir(BTreeMap::new()),
        };
        self.nodes.insert(ino.0, Node { attr: Attr::new(ino, kind, uid, group, mode), content });
        let name = name.to_string();
        let parent_node = self.node_mut(parent);
        let Content::Dir(entries) = &mut parent_node.content else { unreachable!() };
        entries.insert(name, ino);
        parent_node.attr.size = entries.len() as u64;
        parent_node.attr.version += 1;
        Ok(ino)
    }

    /// `mkdir`: creates a directory.
    pub fn mkdir(&mut self, uid: Uid, p: &str, mode: Mode) -> Result<InodeId, FsError> {
        self.insert_child(uid, p, NodeKind::Dir, mode)
    }

    /// `mknod`/`creat`: creates an empty file.
    pub fn create(&mut self, uid: Uid, p: &str, mode: Mode) -> Result<InodeId, FsError> {
        self.insert_child(uid, p, NodeKind::File, mode)
    }

    /// Reads a whole file; requires read on the file.
    pub fn read(&self, uid: Uid, p: &str) -> Result<Vec<u8>, FsError> {
        let ino = self.resolve(uid, p)?;
        let node = self.node(ino);
        let Content::File(data) = &node.content else {
            return Err(FsError::IsADirectory(p.to_string()));
        };
        if !self.effective(uid, &node.attr).read {
            return Err(FsError::PermissionDenied { path: p.to_string(), needed: "read" });
        }
        Ok(data.clone())
    }

    /// Replaces a file's contents; requires write on the file.
    pub fn write(&mut self, uid: Uid, p: &str, data: &[u8]) -> Result<(), FsError> {
        let ino = self.resolve(uid, p)?;
        let node = self.node(ino);
        if !matches!(node.content, Content::File(_)) {
            return Err(FsError::IsADirectory(p.to_string()));
        }
        if !self.effective(uid, &node.attr).write {
            return Err(FsError::PermissionDenied { path: p.to_string(), needed: "write" });
        }
        let node = self.node_mut(ino);
        node.content = Content::File(data.to_vec());
        node.attr.size = data.len() as u64;
        node.attr.version += 1;
        Ok(())
    }

    /// Removes a file; requires write+exec on the parent.
    pub fn unlink(&mut self, uid: Uid, p: &str) -> Result<(), FsError> {
        let (parent, name) = self.resolve_parent(uid, p)?;
        self.check_parent_writable(uid, parent, p)?;
        let Content::Dir(entries) = &self.node(parent).content else {
            return Err(FsError::NotADirectory(p.to_string()));
        };
        let &ino = entries.get(name).ok_or_else(|| FsError::NotFound(p.to_string()))?;
        if matches!(self.node(ino).content, Content::Dir(_)) {
            return Err(FsError::IsADirectory(p.to_string()));
        }
        self.detach(parent, name);
        self.nodes.remove(&ino.0);
        Ok(())
    }

    /// Removes an empty directory; requires write+exec on the parent.
    pub fn rmdir(&mut self, uid: Uid, p: &str) -> Result<(), FsError> {
        let (parent, name) = self.resolve_parent(uid, p)?;
        self.check_parent_writable(uid, parent, p)?;
        let Content::Dir(entries) = &self.node(parent).content else {
            return Err(FsError::NotADirectory(p.to_string()));
        };
        let &ino = entries.get(name).ok_or_else(|| FsError::NotFound(p.to_string()))?;
        match &self.node(ino).content {
            Content::File(_) => return Err(FsError::NotADirectory(p.to_string())),
            Content::Dir(children) if !children.is_empty() => {
                return Err(FsError::NotEmpty(p.to_string()))
            }
            Content::Dir(_) => {}
        }
        self.detach(parent, name);
        self.nodes.remove(&ino.0);
        Ok(())
    }

    fn detach(&mut self, parent: InodeId, name: &str) {
        let parent_node = self.node_mut(parent);
        let Content::Dir(entries) = &mut parent_node.content else { unreachable!() };
        entries.remove(name);
        parent_node.attr.size = entries.len() as u64;
        parent_node.attr.version += 1;
    }

    /// Renames `from` to `to`; requires write+exec on both parents. The
    /// destination must not exist.
    pub fn rename(&mut self, uid: Uid, from: &str, to: &str) -> Result<(), FsError> {
        let (from_parent, from_name) = self.resolve_parent(uid, from)?;
        let (to_parent, to_name) = self.resolve_parent(uid, to)?;
        path::validate_name(to_name)?;
        self.check_parent_writable(uid, from_parent, from)?;
        self.check_parent_writable(uid, to_parent, to)?;
        let Content::Dir(from_entries) = &self.node(from_parent).content else {
            return Err(FsError::NotADirectory(from.to_string()));
        };
        let &ino =
            from_entries.get(from_name).ok_or_else(|| FsError::NotFound(from.to_string()))?;
        let Content::Dir(to_entries) = &self.node(to_parent).content else {
            return Err(FsError::NotADirectory(to.to_string()));
        };
        if to_entries.contains_key(to_name) {
            return Err(FsError::AlreadyExists(to.to_string()));
        }
        let to_name = to_name.to_string();
        let from_name = from_name.to_string();
        self.detach(from_parent, &from_name);
        let to_node = self.node_mut(to_parent);
        let Content::Dir(entries) = &mut to_node.content else { unreachable!() };
        entries.insert(to_name, ino);
        to_node.attr.size = entries.len() as u64;
        to_node.attr.version += 1;
        Ok(())
    }

    /// `chmod`: only the owner (or root) may change permissions.
    pub fn chmod(&mut self, uid: Uid, p: &str, mode: Mode) -> Result<(), FsError> {
        let ino = self.resolve(uid, p)?;
        let node = self.node_mut(ino);
        if uid != ROOT_UID && uid != node.attr.owner {
            return Err(FsError::PermissionDenied { path: p.to_string(), needed: "ownership" });
        }
        node.attr.mode = mode;
        node.attr.version += 1;
        Ok(())
    }

    /// Replaces the ACL; only the owner (or root).
    pub fn set_acl(&mut self, uid: Uid, p: &str, acl: Acl) -> Result<(), FsError> {
        let ino = self.resolve(uid, p)?;
        let node = self.node_mut(ino);
        if uid != ROOT_UID && uid != node.attr.owner {
            return Err(FsError::PermissionDenied { path: p.to_string(), needed: "ownership" });
        }
        node.attr.acl = acl;
        node.attr.version += 1;
        Ok(())
    }

    /// `chown`: root may set any owner/group; an owner may change the group
    /// to one they belong to.
    pub fn chown(&mut self, uid: Uid, p: &str, owner: Uid, group: Gid) -> Result<(), FsError> {
        let ino = self.resolve(uid, p)?;
        let attr = &self.node(ino).attr;
        if uid != ROOT_UID {
            if uid != attr.owner || owner != attr.owner {
                return Err(FsError::PermissionDenied {
                    path: p.to_string(),
                    needed: "root (chown)",
                });
            }
            if !self.users.is_member(uid, group) {
                return Err(FsError::PermissionDenied {
                    path: p.to_string(),
                    needed: "group membership",
                });
            }
        }
        let node = self.node_mut(ino);
        node.attr.owner = owner;
        node.attr.group = group;
        node.attr.version += 1;
        Ok(())
    }

    /// Depth-first walk of the whole tree as `(path, attr)` pairs, in
    /// lexicographic order. Trusted (no permission checks) — this is what
    /// the migration tool uses.
    pub fn walk(&self) -> Vec<(String, Attr)> {
        let mut out = Vec::with_capacity(self.nodes.len());
        self.walk_rec(self.root, &mut Vec::new(), &mut out);
        out
    }

    fn walk_rec<'a>(
        &'a self,
        ino: InodeId,
        comps: &mut Vec<&'a str>,
        out: &mut Vec<(String, Attr)>,
    ) {
        let node = self.node(ino);
        out.push((path::join(comps), node.attr.clone()));
        if let Content::Dir(entries) = &node.content {
            for (name, &child) in entries {
                comps.push(name);
                self.walk_rec(child, comps, out);
                comps.pop();
            }
        }
    }

    /// Raw file bytes by inode (trusted; used by the migration tool).
    pub fn file_contents(&self, ino: InodeId) -> Option<&[u8]> {
        match &self.nodes.get(&ino.0)?.content {
            Content::File(data) => Some(data),
            Content::Dir(_) => None,
        }
    }

    /// Directory entries by inode (trusted; used by the migration tool).
    pub fn dir_entries(&self, ino: InodeId) -> Option<Vec<(String, InodeId)>> {
        match &self.nodes.get(&ino.0)?.content {
            Content::Dir(entries) => Some(entries.iter().map(|(n, &i)| (n.clone(), i)).collect()),
            Content::File(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> LocalFs {
        let mut db = UserDb::new();
        db.add_group(Gid(100), "eng").unwrap();
        db.add_group(Gid(0), "wheel").unwrap();
        db.add_user(Uid(0), "root", Gid(0)).unwrap();
        db.add_user(Uid(1), "alice", Gid(100)).unwrap();
        db.add_user(Uid(2), "bob", Gid(100)).unwrap();
        db.add_group(Gid(200), "outsiders").unwrap();
        db.add_user(Uid(3), "mallory", Gid(200)).unwrap();
        LocalFs::new(db, Gid(0), Mode::from_octal(0o755))
    }

    const ALICE: Uid = Uid(1);
    const BOB: Uid = Uid(2);
    const MALLORY: Uid = Uid(3);

    fn setup_home(fs: &mut LocalFs) {
        fs.mkdir(ROOT_UID, "/home", Mode::from_octal(0o755)).unwrap();
        fs.mkdir(ROOT_UID, "/home/alice", Mode::from_octal(0o755)).unwrap();
        fs.chown(ROOT_UID, "/home/alice", ALICE, Gid(100)).unwrap();
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = fs();
        setup_home(&mut fs);
        fs.create(ALICE, "/home/alice/notes.txt", Mode::from_octal(0o644)).unwrap();
        fs.write(ALICE, "/home/alice/notes.txt", b"hello").unwrap();
        assert_eq!(fs.read(ALICE, "/home/alice/notes.txt").unwrap(), b"hello");
        let attr = fs.getattr(ALICE, "/home/alice/notes.txt").unwrap();
        assert_eq!(attr.size, 5);
        assert_eq!(attr.owner, ALICE);
        assert_eq!(attr.kind, NodeKind::File);
    }

    #[test]
    fn group_and_other_permissions_enforced() {
        let mut fs = fs();
        setup_home(&mut fs);
        fs.create(ALICE, "/home/alice/shared", Mode::from_octal(0o640)).unwrap();
        fs.write(ALICE, "/home/alice/shared", b"data").unwrap();
        // bob (group eng) may read but not write.
        assert_eq!(fs.read(BOB, "/home/alice/shared").unwrap(), b"data");
        assert!(matches!(
            fs.write(BOB, "/home/alice/shared", b"x"),
            Err(FsError::PermissionDenied { .. })
        ));
        // mallory (other) may not read.
        assert!(matches!(
            fs.read(MALLORY, "/home/alice/shared"),
            Err(FsError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn traverse_requires_exec() {
        let mut fs = fs();
        setup_home(&mut fs);
        fs.mkdir(ALICE, "/home/alice/private", Mode::from_octal(0o700)).unwrap();
        fs.create(ALICE, "/home/alice/private/secret", Mode::from_octal(0o644)).unwrap();
        // Even though the file itself is world-readable, bob cannot traverse.
        assert!(matches!(
            fs.read(BOB, "/home/alice/private/secret"),
            Err(FsError::PermissionDenied { needed: "exec (traverse)", .. })
        ));
    }

    #[test]
    fn exec_only_directory_semantics() {
        let mut fs = fs();
        setup_home(&mut fs);
        fs.mkdir(ALICE, "/home/alice/dropbox", Mode::from_octal(0o711)).unwrap();
        fs.create(ALICE, "/home/alice/dropbox/known-name", Mode::from_octal(0o644)).unwrap();
        fs.write(ALICE, "/home/alice/dropbox/known-name", b"visible").unwrap();
        // bob cannot list...
        assert!(matches!(
            fs.readdir(BOB, "/home/alice/dropbox"),
            Err(FsError::PermissionDenied { needed: "read", .. })
        ));
        // ...but can access the file by exact name.
        assert_eq!(fs.read(BOB, "/home/alice/dropbox/known-name").unwrap(), b"visible");
    }

    #[test]
    fn read_only_directory_lists_but_no_traverse() {
        let mut fs = fs();
        setup_home(&mut fs);
        fs.mkdir(ALICE, "/home/alice/listing", Mode::from_octal(0o744)).unwrap();
        fs.create(ALICE, "/home/alice/listing/entry", Mode::from_octal(0o644)).unwrap();
        // bob can list the names...
        let names: Vec<_> = fs.readdir(BOB, "/home/alice/listing").unwrap();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].name, "entry");
        // ...but cannot stat/read through it (no exec).
        assert!(fs.read(BOB, "/home/alice/listing/entry").is_err());
        assert!(fs.getattr(BOB, "/home/alice/listing/entry").is_err());
    }

    #[test]
    fn create_requires_parent_write() {
        let mut fs = fs();
        setup_home(&mut fs);
        assert!(matches!(
            fs.create(BOB, "/home/alice/intruder", Mode::from_octal(0o644)),
            Err(FsError::PermissionDenied { .. })
        ));
        assert!(matches!(
            fs.mkdir(MALLORY, "/home/alice/dir", Mode::from_octal(0o755)),
            Err(FsError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn unlink_and_rmdir() {
        let mut fs = fs();
        setup_home(&mut fs);
        fs.mkdir(ALICE, "/home/alice/d", Mode::from_octal(0o755)).unwrap();
        fs.create(ALICE, "/home/alice/d/f", Mode::from_octal(0o644)).unwrap();
        assert_eq!(
            fs.rmdir(ALICE, "/home/alice/d"),
            Err(FsError::NotEmpty("/home/alice/d".into()))
        );
        assert_eq!(
            fs.unlink(ALICE, "/home/alice/d"),
            Err(FsError::IsADirectory("/home/alice/d".into()))
        );
        fs.unlink(ALICE, "/home/alice/d/f").unwrap();
        fs.rmdir(ALICE, "/home/alice/d").unwrap();
        assert!(matches!(fs.getattr(ALICE, "/home/alice/d"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn rename_moves_entries() {
        let mut fs = fs();
        setup_home(&mut fs);
        fs.create(ALICE, "/home/alice/a", Mode::from_octal(0o644)).unwrap();
        fs.write(ALICE, "/home/alice/a", b"payload").unwrap();
        fs.mkdir(ALICE, "/home/alice/sub", Mode::from_octal(0o755)).unwrap();
        fs.rename(ALICE, "/home/alice/a", "/home/alice/sub/b").unwrap();
        assert!(fs.getattr(ALICE, "/home/alice/a").is_err());
        assert_eq!(fs.read(ALICE, "/home/alice/sub/b").unwrap(), b"payload");
        // Destination collision rejected.
        fs.create(ALICE, "/home/alice/c", Mode::from_octal(0o644)).unwrap();
        assert!(matches!(
            fs.rename(ALICE, "/home/alice/c", "/home/alice/sub/b"),
            Err(FsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn chmod_owner_only() {
        let mut fs = fs();
        setup_home(&mut fs);
        fs.create(ALICE, "/home/alice/f", Mode::from_octal(0o644)).unwrap();
        assert!(fs.chmod(BOB, "/home/alice/f", Mode::from_octal(0o777)).is_err());
        fs.chmod(ALICE, "/home/alice/f", Mode::from_octal(0o600)).unwrap();
        assert!(fs.read(BOB, "/home/alice/f").is_err());
    }

    #[test]
    fn chown_rules() {
        let mut fs = fs();
        setup_home(&mut fs);
        fs.create(ALICE, "/home/alice/f", Mode::from_octal(0o644)).unwrap();
        // Non-root cannot give away ownership.
        assert!(fs.chown(ALICE, "/home/alice/f", BOB, Gid(100)).is_err());
        // Owner may re-group within own groups.
        fs.chown(ALICE, "/home/alice/f", ALICE, Gid(100)).unwrap();
        // ...but not to foreign groups.
        assert!(fs.chown(ALICE, "/home/alice/f", ALICE, Gid(200)).is_err());
        // Root can do anything.
        fs.chown(ROOT_UID, "/home/alice/f", MALLORY, Gid(200)).unwrap();
        assert_eq!(fs.getattr(ALICE, "/home/alice/f").unwrap().owner, MALLORY);
    }

    #[test]
    fn acl_grants_access_beyond_mode() {
        let mut fs = fs();
        setup_home(&mut fs);
        fs.create(ALICE, "/home/alice/f", Mode::from_octal(0o600)).unwrap();
        fs.write(ALICE, "/home/alice/f", b"x").unwrap();
        assert!(fs.read(MALLORY, "/home/alice/f").is_err());
        let mut acl = Acl::empty();
        acl.set_user(MALLORY, Perm::R);
        fs.set_acl(ALICE, "/home/alice/f", acl).unwrap();
        assert_eq!(fs.read(MALLORY, "/home/alice/f").unwrap(), b"x");
    }

    #[test]
    fn walk_lists_everything() {
        let mut fs = fs();
        setup_home(&mut fs);
        fs.create(ALICE, "/home/alice/f", Mode::from_octal(0o644)).unwrap();
        let walked = fs.walk();
        let paths: Vec<_> = walked.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["/", "/home", "/home/alice", "/home/alice/f"]);
        assert_eq!(fs.inode_count(), 4);
    }

    #[test]
    fn versions_bump_on_change() {
        let mut fs = fs();
        setup_home(&mut fs);
        fs.create(ALICE, "/home/alice/f", Mode::from_octal(0o644)).unwrap();
        let v1 = fs.getattr(ALICE, "/home/alice/f").unwrap().version;
        fs.write(ALICE, "/home/alice/f", b"data").unwrap();
        let v2 = fs.getattr(ALICE, "/home/alice/f").unwrap().version;
        assert!(v2 > v1);
        fs.chmod(ALICE, "/home/alice/f", Mode::from_octal(0o640)).unwrap();
        let v3 = fs.getattr(ALICE, "/home/alice/f").unwrap().version;
        assert!(v3 > v2);
    }

    #[test]
    fn bad_paths_rejected() {
        let fs = fs();
        assert!(matches!(fs.getattr(ALICE, "relative"), Err(FsError::BadPath(_))));
        assert!(matches!(fs.getattr(ALICE, "/a/../b"), Err(FsError::BadPath(_))));
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut fs = fs();
        setup_home(&mut fs);
        fs.create(ALICE, "/home/alice/f", Mode::from_octal(0o644)).unwrap();
        assert!(matches!(
            fs.create(ALICE, "/home/alice/f", Mode::from_octal(0o644)),
            Err(FsError::AlreadyExists(_))
        ));
    }
}
