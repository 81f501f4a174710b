//! The migration tool (paper §IV): transitions local storage to the
//! outsourced model.
//!
//! "This component is responsible for the initial setup and migration of
//! data from local storage to the outsourced model. It can perform more
//! efficient bulk data transfers ... and create the cryptographic
//! infrastructure, if required."
//!
//! The migrator walks a `LocalFs`, materializes every object through the
//! [`Layout`] engine, and ships records to the SSP in batched `Mutate`
//! requests that only put. It also writes the per-user superblocks and
//! group key blocks that make key management fully in-band afterwards.
//! A [`Deployment`] holds what the setup creates (the identity keyring, its
//! public half and the signing-pair pool) and builds clients from it.

use crate::cap::downgrade;
use crate::client::SharoesClient;
use crate::error::{CoreError, Result};
use crate::groups::build_group_key_blocks;
use crate::keypool::SigKeyPool;
use crate::keyring::{Keyring, Pki};
use crate::params::ClientConfig;
use crate::scheme::{ChildKeys, Layout, ObjectAttrs, ObjectSecrets};
use sharoes_crypto::{HmacDrbg, RandomSource};
use sharoes_fs::{InodeId, LocalFs, Mode, NodeKind, Uid, UserDb};
use sharoes_net::{ObjectKey, Request, Response, Transport};
use std::collections::HashMap;
use std::sync::Arc;

/// Records per `Mutate` batch during bulk transfer.
const BATCH: usize = 64;

/// What happened during a migration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Filesystem objects migrated.
    pub objects: usize,
    /// SSP records written.
    pub records: usize,
    /// Total record bytes shipped.
    pub bytes: u64,
    /// Split-point entries created (Scheme-2).
    pub split_entries: usize,
    /// Superblocks written (one per user).
    pub superblocks: usize,
    /// Group key blocks written.
    pub group_key_blocks: usize,
    /// Objects whose permissions were downgraded to a representable mode.
    pub downgraded: usize,
}

/// The migration tool.
pub struct Migrator<'a> {
    /// Source filesystem.
    pub fs: &'a LocalFs,
    /// Target configuration (scheme, policy, key sizes).
    pub config: &'a ClientConfig,
    /// Enterprise identity keys.
    pub ring: &'a Keyring,
    /// Pool of pre-generated signing pairs.
    pub pool: &'a SigKeyPool,
    /// Downgrade cryptographically unrepresentable permissions instead of
    /// failing (`-wx` directories, write-only/exec-only files).
    pub downgrade_unsupported: bool,
}

impl<'a> Migrator<'a> {
    /// Runs the migration. Per-object secrets are *not* retained — all key
    /// distribution is in-band afterwards.
    pub fn migrate<T: Transport + ?Sized, R: RandomSource + ?Sized>(
        &self,
        transport: &mut T,
        rng: &mut R,
    ) -> Result<MigrationReport> {
        let pki = self.ring.public_directory();
        let layout = Layout {
            scheme: self.config.effective_scheme(),
            policy: self.config.policy,
            block_size: self.config.block_size,
            db: self.fs.users(),
            pki: &pki,
        };
        let mut report = MigrationReport::default();

        // Pass 1: attributes (with optional downgrade) and secrets per inode.
        let walked = self.fs.walk();
        let mut attrs_by_inode: HashMap<u64, ObjectAttrs> = HashMap::new();
        let mut secrets_by_inode: HashMap<u64, ObjectSecrets> = HashMap::new();
        for (_path, attr) in &walked {
            let is_dir = attr.kind == NodeKind::Dir;
            let mut mode = attr.mode;
            let softened = Mode {
                owner: downgrade(mode.owner, is_dir),
                group: downgrade(mode.group, is_dir),
                other: downgrade(mode.other, is_dir),
            };
            if softened != mode && self.downgrade_unsupported {
                report.downgraded += 1;
                mode = softened;
            }
            // else: validate_perms below reports the precise failure.
            let mut attrs = ObjectAttrs::new(attr.inode.0, attr.kind, attr.owner, attr.group, mode);
            attrs.acl = attr.acl.clone();
            if self.downgrade_unsupported {
                // ACL entries may also carry unrepresentable grants.
                let mut acl = attrs.acl.clone();
                for (uid, perm) in attrs.acl.user_entries() {
                    let d = downgrade(perm, is_dir);
                    if d != perm {
                        acl.set_user(uid, d);
                        report.downgraded += 1;
                    }
                }
                for (gid, perm) in attrs.acl.group_entries() {
                    let d = downgrade(perm, is_dir);
                    if d != perm {
                        acl.set_group(gid, d);
                        report.downgraded += 1;
                    }
                }
                attrs.acl = acl;
            }
            layout.validate_perms(&attrs)?;
            attrs.size = attr.size;
            attrs.version = attr.version;
            let secrets = layout.generate_secrets(&attrs, self.pool, rng);
            attrs_by_inode.insert(attr.inode.0, attrs);
            secrets_by_inode.insert(attr.inode.0, secrets);
        }

        // Pass 2: build records.
        let mut records: Vec<(ObjectKey, Vec<u8>)> = Vec::new();
        for (_path, attr) in &walked {
            let inode = attr.inode.0;
            report.objects += 1;

            match attr.kind {
                NodeKind::File => {
                    let content = self
                        .fs
                        .file_contents(InodeId(inode))
                        .ok_or(CoreError::Corrupt("walked file vanished"))?;
                    {
                        let attrs = attrs_by_inode.get_mut(&inode).expect("pass-1 attrs");
                        attrs.size = content.len() as u64;
                        attrs.nblocks =
                            content.len().div_ceil(self.config.block_size.max(1)) as u32;
                    }
                    let attrs = &attrs_by_inode[&inode];
                    let secrets = &secrets_by_inode[&inode];
                    records.extend(layout.metadata_records(attrs, secrets, rng)?);
                    records.extend(layout.data_records(attrs, secrets, content, rng));
                }
                NodeKind::Dir => {
                    let children = self
                        .fs
                        .dir_entries(InodeId(inode))
                        .ok_or(CoreError::Corrupt("walked dir vanished"))?;
                    {
                        let attrs = attrs_by_inode.get_mut(&inode).expect("pass-1 attrs");
                        attrs.size = children.len() as u64;
                    }
                    let entry_refs: Vec<(String, ChildKeys<'_>)> = children
                        .iter()
                        .map(|(name, child_ino)| {
                            let (attrs, secrets) =
                                (&attrs_by_inode[&child_ino.0], &secrets_by_inode[&child_ino.0]);
                            (name.clone(), layout.child_keys(attrs, secrets))
                        })
                        .collect();
                    let attrs = &attrs_by_inode[&inode];
                    let secrets = &secrets_by_inode[&inode];
                    records.extend(layout.metadata_records(attrs, secrets, rng)?);
                    let (tables, splits) =
                        layout.table_records(attrs, secrets, &entry_refs, rng)?;
                    records.extend(tables);
                    for (child_inode, divergent) in splits {
                        let child = layout.child_keys(
                            &attrs_by_inode[&child_inode],
                            &secrets_by_inode[&child_inode],
                        );
                        let split_records = layout.split_records(child, &divergent, rng)?;
                        report.split_entries += split_records.len();
                        records.extend(split_records);
                    }
                }
            }
        }

        // Pass 3: in-band key distribution — superblocks and group keys.
        let root_attrs = &attrs_by_inode[&self.fs.root().0];
        let root_secrets = &secrets_by_inode[&self.fs.root().0];
        for user in self.fs.users().users() {
            records.push(layout.superblock_record(user.uid, root_attrs, root_secrets, rng)?);
            report.superblocks += 1;
        }
        let gkb = build_group_key_blocks(self.fs.users(), self.ring, rng)?;
        report.group_key_blocks = gkb.len();
        records.extend(gkb);

        // Ship in batches (the paper's "more efficient bulk data transfers").
        report.records = records.len();
        report.bytes = records.iter().map(|(_, v)| v.len() as u64).sum();
        for chunk in records.chunks(BATCH) {
            let batch =
                Request::Mutate { puts: chunk.to_vec(), deletes: vec![], drop_views: vec![] };
            match transport.call(&batch)? {
                Response::Ok => {}
                _ => return Err(CoreError::Corrupt("unexpected migration response")),
            }
        }
        Ok(report)
    }
}

/// One enterprise's setup: the configuration, user directory, identity
/// keys and signing-pair pool that migration writes with and that every
/// client mounts with. All fields are shared handles, so a clone is cheap;
/// a client that needs another configuration (a cache size, a revocation
/// mode) mounts from a clone with `config` changed.
#[derive(Clone)]
pub struct Deployment {
    /// Configuration migration writes with and clients mount with.
    pub config: ClientConfig,
    /// The enterprise directory.
    pub db: Arc<UserDb>,
    /// The public half of `ring`.
    pub pki: Arc<Pki>,
    /// All identity keys (setup-side).
    pub ring: Arc<Keyring>,
    /// Pre-generated signature pairs, empty until a caller prefills it.
    pub pool: Arc<SigKeyPool>,
}

impl Deployment {
    /// Generates the identity keys of every principal in `db` from `rng`,
    /// at `config.crypto.rsa_bits`.
    pub fn new<R: RandomSource + ?Sized>(
        db: &UserDb,
        config: ClientConfig,
        rng: &mut R,
    ) -> Result<Self> {
        let ring = Keyring::generate(db, config.crypto.rsa_bits, rng)?;
        Ok(Self::with_ring(db, config, ring))
    }

    /// A deployment over identity keys made elsewhere.
    pub fn with_ring(db: &UserDb, config: ClientConfig, ring: Keyring) -> Self {
        let pool = Arc::new(SigKeyPool::new(config.crypto));
        Deployment {
            db: Arc::new(db.clone()),
            pki: Arc::new(ring.public_directory()),
            ring: Arc::new(ring),
            pool,
            config,
        }
    }

    /// Migrates `fs` through `transport`, downgrading permissions that the
    /// CAPs cannot represent.
    pub fn migrate<T: Transport + ?Sized, R: RandomSource + ?Sized>(
        &self,
        fs: &LocalFs,
        transport: &mut T,
        rng: &mut R,
    ) -> Result<MigrationReport> {
        Migrator {
            fs,
            config: &self.config,
            ring: &self.ring,
            pool: &self.pool,
            downgrade_unsupported: true,
        }
        .migrate(transport, rng)
    }

    /// An unmounted client for `uid` (see [`SharoesClient::new`]).
    pub fn client(&self, uid: Uid, transport: Box<dyn Transport>) -> Result<SharoesClient> {
        Ok(SharoesClient::new(
            transport,
            self.config.clone(),
            Arc::clone(&self.db),
            Arc::clone(&self.pki),
            self.ring.identity(uid)?,
            Arc::clone(&self.pool),
        ))
    }

    /// An unmounted client for `uid` drawing from `rng` (see
    /// [`SharoesClient::with_rng`]).
    pub fn client_with_rng(
        &self,
        uid: Uid,
        transport: Box<dyn Transport>,
        rng: HmacDrbg,
    ) -> Result<SharoesClient> {
        Ok(SharoesClient::with_rng(
            transport,
            self.config.clone(),
            Arc::clone(&self.db),
            Arc::clone(&self.pki),
            self.ring.identity(uid)?,
            Arc::clone(&self.pool),
            rng,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{CryptoPolicy, Scheme};
    use sharoes_fs::treegen::{generate, TreeSpec};
    use sharoes_net::InMemoryTransport;
    use sharoes_ssp::SspServer;

    fn run_migration(policy: CryptoPolicy, scheme: Scheme) -> (MigrationReport, Arc<SspServer>) {
        run_migration_with_users(policy, scheme, 2)
    }

    fn run_migration_with_users(
        policy: CryptoPolicy,
        scheme: Scheme,
        users: usize,
    ) -> (MigrationReport, Arc<SspServer>) {
        let (fs, _) =
            generate(&TreeSpec { users, dirs_per_user: 2, files_per_dir: 1, ..Default::default() })
                .unwrap();
        let mut rng = HmacDrbg::from_seed_u64(1);
        let deployment =
            Deployment::new(fs.users(), ClientConfig::test_with(policy, scheme), &mut rng).unwrap();
        let server = SspServer::new().into_shared();
        let mut transport = InMemoryTransport::new(Arc::clone(&server) as _);
        let report = deployment.migrate(&fs, &mut transport, &mut rng).unwrap();
        (report, server)
    }

    #[test]
    fn sharoes_scheme2_migration_populates_ssp() {
        let (report, server) = run_migration(CryptoPolicy::Sharoes, Scheme::SharedCaps);
        assert!(report.objects > 0);
        assert!(report.records > 0);
        assert_eq!(report.superblocks, 3); // root + 2 users
        assert!(report.group_key_blocks >= 3);
        assert_eq!(server.store().object_count() as usize, report.records);
        assert_eq!(server.store().byte_count(), report.bytes);
    }

    #[test]
    fn scheme1_stores_more_than_scheme2() {
        // Scheme-1 scales with the user count, Scheme-2 with the (constant)
        // number of permission classes.
        let (s2, _) = run_migration_with_users(CryptoPolicy::Sharoes, Scheme::SharedCaps, 6);
        let (s1, _) = run_migration_with_users(CryptoPolicy::Sharoes, Scheme::PerUser, 6);
        assert!(
            s1.records > s2.records,
            "per-user replication should write more records ({} vs {})",
            s1.records,
            s2.records
        );
        assert!(s1.bytes > s2.bytes);
    }

    #[test]
    fn all_policies_migrate() {
        for policy in [
            CryptoPolicy::NoEncMdD,
            CryptoPolicy::NoEncMd,
            CryptoPolicy::Sharoes,
            CryptoPolicy::Public,
            CryptoPolicy::PubOpt,
        ] {
            let (report, _) = run_migration(policy, Scheme::SharedCaps);
            assert!(report.records > 0, "{policy:?}");
        }
    }
}
