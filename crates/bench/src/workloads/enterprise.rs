//! Enterprise scenario drivers over the testkit population generator:
//! revocation storms, group-membership churn with correctness oracles, the
//! key-rotation lifecycle, and the Scheme-1 vs Scheme-2 sharing-density
//! crossover (DESIGN.md §10).
//!
//! Everything here is seeded and asserts on deterministic byte counters
//! (`CostMeter`, SSP space accounting) rather than wall-clock time; virtual
//! seconds are reported alongside for the figures.

use crate::harness::{content, Bench, BenchOpts, PhaseTimer, BENCH_USER};
use sharoes_core::{
    ids, CacheStats, CryptoPolicy, RevocationMode, Scheme, SealedObject, SharoesClient,
};
use sharoes_fs::{Acl, Mode, Perm, Uid};
use sharoes_net::{CostSample, KeySpace, ObjectKey, WireRead};
use sharoes_testkit::enterprise::Enterprise;
use std::sync::Arc;

/// A mounted client for `uid` with an explicit [`RevocationMode`]
/// ([`Bench`] itself always deploys Immediate).
fn client_with_mode(bench: &Bench, uid: Uid, mode: RevocationMode, seed: u64) -> SharoesClient {
    let mut config = bench.config.clone();
    config.revocation = mode;
    let transport = sharoes_net::InMemoryTransport::new(Arc::clone(&bench.server) as _);
    let identity = bench.ring.identity(uid).expect("identity");
    let mut client = SharoesClient::with_rng(
        Box::new(transport),
        config,
        Arc::clone(&bench.db),
        Arc::clone(&bench.pki),
        identity,
        Arc::clone(&bench.pool),
        sharoes_crypto::HmacDrbg::from_seed_u64(seed),
    );
    client.mount().expect("mount");
    client
}

/// Wire costs and plaintext-cache activity summed over a driver's clients
/// and the migration that built its deployment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientFacts {
    /// Summed wire costs.
    pub cost: CostSample,
    /// Summed cache activity.
    pub cache: CacheStats,
}

impl ClientFacts {
    fn of_migration(bench: &Bench) -> ClientFacts {
        ClientFacts { cost: bench.migration_cost, cache: CacheStats::default() }
    }

    fn add(&mut self, client: &SharoesClient) {
        self.cost = self.cost.plus(&client.meter().sample());
        self.cache = self.cache.plus(&client.cache_stats());
    }
}

/// One revocation-storm measurement: `files` group-shared files revoked
/// back-to-back at a given sharing density, under one [`RevocationMode`].
#[derive(Clone, Debug)]
pub struct StormPoint {
    /// Number of non-owner readers each file was shared with.
    pub density: usize,
    /// Revocation mode measured.
    pub mode: RevocationMode,
    /// Files revoked in the storm.
    pub files: usize,
    /// Upload bytes during the chmod storm (deterministic).
    pub chmod_bytes_up: u64,
    /// Upload bytes during the post-storm rewrite of every file (the lazy
    /// mode pays its deferred re-encryption here).
    pub next_write_bytes_up: u64,
    /// Virtual seconds for the chmod storm.
    pub chmod_secs: f64,
    /// Virtual seconds for the post-storm rewrite.
    pub next_write_secs: f64,
    /// The storm client's and the migration's traffic and cache activity.
    pub facts: ClientFacts,
}

/// Revocation storm: for each sharing density, every file is group-readable
/// by `density` readers, then the owner revokes group access on all of them
/// in one burst. Immediate mode re-encrypts during the storm; lazy mode
/// defers the cost to the next write, which the second phase then pays.
pub fn revocation_storm(
    densities: &[usize],
    files: usize,
    file_size: usize,
    opts: &BenchOpts,
) -> Vec<StormPoint> {
    let mut out = Vec::new();
    for &density in densities {
        for mode in [RevocationMode::Immediate, RevocationMode::Lazy] {
            let mut o = opts.clone();
            o.users = density + 1;
            let bench = Bench::new(CryptoPolicy::Sharoes, Scheme::SharedCaps, &o, files * 2 + 8);
            let mut client = client_with_mode(&bench, BENCH_USER, mode, 0x570A + density as u64);
            for i in 0..files {
                let path = format!("/bench/s{i}.dat");
                client.create(&path, Mode::from_octal(0o640)).expect("create");
                client.write_file(&path, &content(file_size, i as u64)).expect("write");
            }

            let timer = PhaseTimer::start(&client);
            for i in 0..files {
                client.chmod(&format!("/bench/s{i}.dat"), Mode::from_octal(0o600)).expect("chmod");
            }
            let chmod_bytes_up = timer.cost(&client).bytes_up;
            let chmod_secs = timer.seconds(&client, &o);

            let timer = PhaseTimer::start(&client);
            for i in 0..files {
                client
                    .write_file(&format!("/bench/s{i}.dat"), &content(file_size, 1000 + i as u64))
                    .expect("post-storm write");
            }
            let mut facts = ClientFacts::of_migration(&bench);
            facts.add(&client);
            out.push(StormPoint {
                density,
                mode,
                files,
                chmod_bytes_up,
                next_write_bytes_up: timer.cost(&client).bytes_up,
                chmod_secs,
                next_write_secs: timer.seconds(&client, &o),
                facts,
            });
        }
    }
    out
}

/// Outcome of a membership-churn run. The oracles are hard: any
/// post-revocation read that succeeds for a revoked principal, or any stale
/// client that observes post-revocation plaintext, is a correctness bug.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnReport {
    /// ACL revocations performed.
    pub revocations: usize,
    /// Revoked readers whose fresh-mount read failed afterwards (must
    /// equal `revocations`).
    pub denied_after_revocation: usize,
    /// Stale (pre-revocation) clients that obtained post-revocation
    /// plaintext (must be 0).
    pub stale_reader_leaks: usize,
    /// Surviving grantees who could still read the post-revocation write
    /// (positive control).
    pub grants_verified: usize,
    /// Every churn client's and the migration's traffic and cache activity.
    pub facts: ClientFacts,
}

/// Group-membership churn over a generated enterprise: for each shared
/// file (up to `max_events`), the owner revokes the first ACL grantee,
/// then writes fresh content. Oracles: the revoked reader's fresh mount
/// cannot read; a reader mounted *before* the revocation never observes
/// the new plaintext; surviving grantees still can.
pub fn membership_churn(ent: &Enterprise, opts: &BenchOpts, max_events: usize) -> ChurnReport {
    let bench =
        Bench::from_fs(ent.materialize(), CryptoPolicy::Sharoes, Scheme::SharedCaps, opts, 64);
    let mut report = ChurnReport { facts: ClientFacts::of_migration(&bench), ..Default::default() };
    for f in ent.files.iter().filter(|f| !f.acl_readers.is_empty()).take(max_events) {
        let path = f.path();
        let owner = Enterprise::uid(f.owner);
        let revoked = Enterprise::uid(f.acl_readers[0]);

        // A reader mounted before the revocation, with the page warm.
        let mut stale = bench.client(revoked, None);
        let before = stale.read(&path).expect("grantee must read pre-revocation");

        // Full revocation event: drop the named-user grant AND any
        // group/other read bits — generated files may be group- or
        // world-readable, and a real revocation closes every path.
        let mut owner_client = bench.client(owner, None);
        let mut acl = Acl::empty();
        for &r in &f.acl_readers[1..] {
            acl.set_user(Enterprise::uid(r), Perm::R);
        }
        owner_client.set_acl(&path, acl).expect("revoke acl entry");
        owner_client.chmod(&path, Mode::from_octal(0o600)).expect("revoke class bits");
        report.revocations += 1;

        let after = content(f.len as usize, 0xC0DE ^ f.id as u64);
        owner_client.write_file(&path, &after).expect("post-revocation write");
        assert_ne!(before, after, "churn content must actually change");

        // Oracle 1: a fresh mount for the revoked reader cannot read.
        let mut fresh = bench.client(revoked, None);
        match fresh.read(&path) {
            Ok(_) => panic!("revoked reader {revoked:?} still reads {path}"),
            Err(_) => report.denied_after_revocation += 1,
        }

        // Oracle 2: the stale client must never see the new plaintext —
        // either its read fails (key/view moved) or it serves the old
        // cached bytes.
        if let Ok(seen) = stale.read(&path) {
            if seen == after {
                report.stale_reader_leaks += 1;
            }
        }

        // Positive control: a surviving grantee reads the new content.
        if let Some(&survivor) = f.acl_readers.get(1) {
            let mut ok_reader = bench.client(Enterprise::uid(survivor), None);
            let seen = ok_reader.read(&path).expect("surviving grantee must read");
            assert_eq!(seen, after, "surviving grantee must see the new content");
            report.grants_verified += 1;
            report.facts.add(&ok_reader);
        }
        for client in [&stale, &owner_client, &fresh] {
            report.facts.add(client);
        }
    }
    report
}

/// Outcome of the key-rotation lifecycle driver. Every flag must be true.
#[derive(Clone, Debug)]
pub struct RotationReport {
    /// Key epochs the file moved through (initial, after first rotation,
    /// after second rotation).
    pub generations: [u64; 3],
    /// Mount-KEK versions before and after [`SharoesClient::rotate_mount_kek`].
    pub kek_versions: (u32, u32),
    /// Content survived the first rotation byte-for-byte.
    pub old_read_ok: bool,
    /// The pre-rotation escrow record still opens after the KEK rotation
    /// (old-version reads stay decryptable).
    pub old_escrow_ok: bool,
    /// A chain snapshot taken before the KEK rotation fails to open the
    /// post-rotation escrow record.
    pub snapshot_locked_out: bool,
    /// The old file DEK fails to open the re-encrypted block ciphertext.
    pub old_dek_rejected: bool,
    /// The newly escrowed DEK opens the current block ciphertext.
    pub new_dek_opens: bool,
    /// The lifecycle client's and the migration's traffic and cache
    /// activity.
    pub facts: ClientFacts,
}

impl RotationReport {
    /// True when every lifecycle oracle held.
    pub fn all_hold(&self) -> bool {
        self.old_read_ok
            && self.old_escrow_ok
            && self.snapshot_locked_out
            && self.old_dek_rejected
            && self.new_dek_opens
    }
}

/// The end-to-end key-rotation lifecycle (DESIGN.md §10): publish a KEK
/// chain, rotate a file's keys (escrow under KEK v0), rotate the mount KEK,
/// rotate the file again (escrow under v1), then prove that old versions
/// stay readable while rotated-away key material opens nothing new.
pub fn rotation_lifecycle(opts: &BenchOpts) -> RotationReport {
    let bench = Bench::new(CryptoPolicy::Sharoes, Scheme::SharedCaps, opts, 16);
    let mut client = bench.client(BENCH_USER, None);
    let path = "/bench/rotated.dat";
    let v0 = client.load_kek_chain().expect("load kek chain");

    client.create(path, Mode::from_octal(0o640)).expect("create");
    let body_v1 = content(2048, 0xA11CE);
    client.write_file(path, &body_v1).expect("write v1");
    let stat = client.getattr(path).expect("stat");
    let gen0 = stat.generation;
    let inode = stat.inode;

    let gen1 = client.rotate_file_keys(path).expect("first rotation");
    let old_read_ok = client.read(path).expect("read after rotation") == body_v1;
    let dek_gen1 = client.escrowed_dek(inode, gen1).expect("escrowed DEK (gen1)");

    // A holder whose chain predates the KEK rotation.
    let snapshot = client.kek_chain().expect("chain loaded").snapshot_through(v0);
    let v1 = client.rotate_mount_kek().expect("rotate mount kek");

    let body_v2 = content(2048, 0xB0B);
    client.write_file(path, &body_v2).expect("write v2");
    let gen2 = client.rotate_file_keys(path).expect("second rotation");
    let dek_gen2 = client.escrowed_dek(inode, gen2).expect("escrowed DEK (gen2)");
    let old_escrow_ok = client.escrowed_dek(inode, gen1).is_ok();

    let record_gen2 = client
        .fetch_escrow_record(inode, gen2)
        .expect("fetch escrow record")
        .expect("escrow record exists");
    let snapshot_locked_out = snapshot.open(&record_gen2).is_err();
    let mut facts = ClientFacts::of_migration(&bench);
    facts.add(&client);

    // Block-level oracle against the raw store: only the current DEK
    // recovers the plaintext. AES-CTR is unauthenticated by design
    // (integrity lives in the signed manifest hashes), so "unable to
    // open" means the wrong key yields garbage, never the block bytes.
    let block_key = ObjectKey::data(inode, ids::data_view(inode, gen2), 0);
    let raw = bench.server.store().get(&block_key).expect("current data block at the SSP");
    let sealed = SealedObject::from_wire(&raw).expect("sealed block");
    let old_dek_rejected =
        dek_gen1.open(&sealed.ciphertext).map(|plain| plain != body_v2).unwrap_or(true);
    let new_dek_opens =
        dek_gen2.open(&sealed.ciphertext).map(|plain| plain == body_v2).unwrap_or(false);

    RotationReport {
        generations: [gen0, gen1, gen2],
        kek_versions: (v0, v1),
        old_read_ok,
        old_escrow_ok,
        snapshot_locked_out,
        old_dek_rejected,
        new_dek_opens,
        facts,
    }
}

/// One sharing density measured under both schemes.
#[derive(Clone, Debug)]
pub struct CrossoverPoint {
    /// Non-owner readers per file.
    pub density: usize,
    /// Upload bytes to create+populate the tree under Scheme-1 (per-user
    /// metadata replication).
    pub per_user_create_bytes: u64,
    /// Same under Scheme-2 (shared CAPs).
    pub shared_create_bytes: u64,
    /// Upload bytes for the revocation burst under Scheme-1.
    pub per_user_revoke_bytes: u64,
    /// Same under Scheme-2.
    pub shared_revoke_bytes: u64,
    /// Metadata bytes resident at the SSP under Scheme-1.
    pub per_user_md_bytes: u64,
    /// Same under Scheme-2.
    pub shared_md_bytes: u64,
}

impl CrossoverPoint {
    /// Total measured upload bytes under Scheme-1.
    pub fn per_user_total(&self) -> u64 {
        self.per_user_create_bytes + self.per_user_revoke_bytes
    }

    /// Total measured upload bytes under Scheme-2.
    pub fn shared_total(&self) -> u64 {
        self.shared_create_bytes + self.shared_revoke_bytes
    }
}

/// Scheme-1 vs Scheme-2 as sharing density scales: each point deploys both
/// schemes on a population of `density + 1` users, creates `files`
/// group-readable files, then revokes group access on all of them.
/// Scheme-1 replicates metadata per reader, so its costs grow with
/// density; Scheme-2 pays a constant CAP-indirection tax. The crossover is
/// the density where the shared-CAP total drops below per-user.
pub fn crossover_ablation(
    densities: &[usize],
    files: usize,
    opts: &BenchOpts,
) -> Vec<CrossoverPoint> {
    let mut out = Vec::new();
    for &density in densities {
        let mut bytes = [[0u64; 3]; 2]; // [scheme][create, revoke, md]
        for (si, scheme) in [Scheme::PerUser, Scheme::SharedCaps].into_iter().enumerate() {
            let mut o = opts.clone();
            o.users = density + 1;
            let bench = Bench::new(CryptoPolicy::Sharoes, scheme, &o, files * 2 + 8);
            let mut client = bench.client(BENCH_USER, None);

            let timer = PhaseTimer::start(&client);
            for i in 0..files {
                let path = format!("/bench/x{i}.dat");
                client.create(&path, Mode::from_octal(0o640)).expect("create");
                client.write_file(&path, &content(256, i as u64)).expect("write");
            }
            bytes[si][0] = timer.cost(&client).bytes_up;

            let timer = PhaseTimer::start(&client);
            for i in 0..files {
                client.chmod(&format!("/bench/x{i}.dat"), Mode::from_octal(0o600)).expect("chmod");
            }
            bytes[si][1] = timer.cost(&client).bytes_up;
            bytes[si][2] = bench
                .server
                .store()
                .bytes_by_space()
                .get(&KeySpace::Metadata)
                .copied()
                .unwrap_or(0);
        }
        out.push(CrossoverPoint {
            density,
            per_user_create_bytes: bytes[0][0],
            shared_create_bytes: bytes[1][0],
            per_user_revoke_bytes: bytes[0][1],
            shared_revoke_bytes: bytes[1][1],
            per_user_md_bytes: bytes[0][2],
            shared_md_bytes: bytes[1][2],
        });
    }
    out
}

/// The first measured density where Scheme-2's total upload bytes beat
/// Scheme-1's, if any.
pub fn crossover_density(points: &[CrossoverPoint]) -> Option<usize> {
    points.iter().find(|p| p.shared_total() < p.per_user_total()).map(|p| p.density)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharoes_core::CryptoParams;
    use sharoes_testkit::enterprise::Scale;

    fn quick() -> BenchOpts {
        BenchOpts { users: 2, crypto: CryptoParams::test(), ..Default::default() }
    }

    #[test]
    fn storm_places_cost_by_mode() {
        let points = revocation_storm(&[2], 3, 4096, &quick());
        let imm = points.iter().find(|p| p.mode == RevocationMode::Immediate).unwrap();
        let lazy = points.iter().find(|p| p.mode == RevocationMode::Lazy).unwrap();
        assert!(
            imm.chmod_bytes_up > lazy.chmod_bytes_up,
            "immediate storm ships re-encrypted files during chmod: {} vs {}",
            imm.chmod_bytes_up,
            lazy.chmod_bytes_up
        );
        assert!(
            lazy.next_write_bytes_up > imm.next_write_bytes_up,
            "lazy mode pays the debt on the next write: {} vs {}",
            lazy.next_write_bytes_up,
            imm.next_write_bytes_up
        );
    }

    #[test]
    fn churn_oracles_hold() {
        let ent = Enterprise::generate(&Scale::Small.spec(0xC0FFEE));
        let report = membership_churn(&ent, &quick(), 3);
        assert!(report.revocations > 0, "small scale must produce shared files to revoke");
        assert_eq!(report.denied_after_revocation, report.revocations);
        assert_eq!(report.stale_reader_leaks, 0, "stale reader observed post-revocation data");
    }

    #[test]
    fn rotation_lifecycle_oracles_hold() {
        let report = rotation_lifecycle(&quick());
        assert_eq!(report.kek_versions, (0, 1));
        let [g0, g1, g2] = report.generations;
        assert!(g0 < g1 && g1 < g2, "each rotation must bump the epoch: {g0} {g1} {g2}");
        assert!(report.old_read_ok, "content must survive rotation");
        assert!(report.old_escrow_ok, "old escrow records must stay decryptable");
        assert!(report.snapshot_locked_out, "pre-rotation chain opened a post-rotation record");
        assert!(report.old_dek_rejected, "rotated-away DEK opened a new block");
        assert!(report.new_dek_opens, "current escrowed DEK must open the current block");
    }

    #[test]
    fn crossover_scales_per_user_costs_only() {
        let points = crossover_ablation(&[1, 6], 3, &quick());
        let [low, high] = points.as_slice() else { panic!("expected 2 points") };
        assert!(
            high.per_user_md_bytes > low.per_user_md_bytes * 2,
            "Scheme-1 metadata must grow with density: {} vs {}",
            high.per_user_md_bytes,
            low.per_user_md_bytes
        );
        assert!(
            high.shared_md_bytes < high.per_user_md_bytes,
            "at density 6 shared CAPs must store less than per-user replicas: {} vs {}",
            high.shared_md_bytes,
            high.per_user_md_bytes
        );
        assert!(
            high.shared_md_bytes < low.shared_md_bytes * 4,
            "Scheme-2 metadata must stay near-flat across density: {} vs {}",
            high.shared_md_bytes,
            low.shared_md_bytes
        );
    }
}
