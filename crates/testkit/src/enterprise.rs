//! Deterministic enterprise-scale scenario generation.
//!
//! The paper evaluates Sharoes with paper-scale workloads (Create-and-List,
//! Andrew, PostMark); enterprise dynamics — revocation storms, group churn,
//! Scheme-1 vs Scheme-2 crossover — need populations with realistic *shape*:
//! a few enormous groups and many tiny ones, a few prolific sharers and a
//! long tail of private files. This module generates that shape from the
//! testkit DRBG so every run replays byte-identically from
//! `SHAROES_TEST_SEED`, and at the million-entity scale the generated graph
//! can be fingerprinted without ever materializing a filesystem.
//!
//! Layers:
//!
//! * [`Zipf`] — an integer cumulative-weight Zipf sampler (binary search,
//!   no float math at sample time).
//! * [`EnterpriseSpec`] / [`Scale`] — population sizes, env-tunable via
//!   `SHAROES_SCALE` (`small` | `medium` | `large` | `million`).
//! * [`Enterprise`] — the generated population: group membership, file
//!   sharing graph, and a mixed read/write/chmod traffic stream. Small
//!   scales [`materialize`](Enterprise::materialize) into a [`LocalFs`]
//!   for end-to-end drivers; every scale supports
//!   [`fingerprint`](Enterprise::fingerprint) and [`GraphStats`].

use sharoes_crypto::{HmacDrbg, RandomSource, Sha256};
use sharoes_fs::{Acl, Gid, LocalFs, Mode, Perm, Uid, UserDb, ROOT_UID};

/// First generated uid; user index `i` is `Uid(BASE_UID + i)`.
pub const BASE_UID: u32 = 1000;
/// First generated gid; group index `j` is `Gid(BASE_GID + j)`.
pub const BASE_GID: u32 = 200;

/// Uniform draw in `[0, bound)` from a [`RandomSource`].
fn below<R: RandomSource + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    assert!(bound > 0);
    // Modulo bias is irrelevant here: bounds are tiny relative to 2^64 and
    // the draw only shapes synthetic populations.
    rng.next_u64() % bound
}

/// Bernoulli draw with probability `percent / 100`.
fn percent<R: RandomSource + ?Sized>(rng: &mut R, p: u64) -> bool {
    below(rng, 100) < p
}

/// A Zipf(s) sampler over ranks `0..n` using an integer cumulative-weight
/// table: rank `r` gets weight `⌊10⁹ / (r+1)^s⌋` (clamped to ≥ 1), samples
/// binary-search the table. Float math happens once at construction; the
/// sample path is pure integer, so replay is byte-exact.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<u64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s` (1.0 = classic Zipf).
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty domain");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0u64;
        for rank in 1..=n {
            let w = (1.0e9 / (rank as f64).powf(s)).max(1.0) as u64;
            total += w;
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True when the domain is empty (never: construction asserts `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample<R: RandomSource + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty table");
        let roll = below(rng, total);
        self.cumulative.partition_point(|&c| c <= roll)
    }
}

/// Named population sizes, selectable at runtime via `SHAROES_SCALE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI default: seconds end-to-end including crypto.
    Small,
    /// Heavier local run.
    Medium,
    /// Graph-level stress (materialization feasible, crypto drivers slow).
    Large,
    /// ≥ 10⁶ generated entities (users + groups + files + traffic ops).
    /// Graph generation and fingerprinting only — materializing would mean
    /// hundreds of thousands of RSA keygens.
    Million,
}

impl Scale {
    /// Reads `SHAROES_SCALE` (default [`Scale::Small`]). Panics on an
    /// unknown value so CI can't silently run the wrong size.
    pub fn from_env() -> Scale {
        match std::env::var("SHAROES_SCALE") {
            Err(_) => Scale::Small,
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "small" => Scale::Small,
                "medium" => Scale::Medium,
                "large" => Scale::Large,
                "million" => Scale::Million,
                other => {
                    panic!("SHAROES_SCALE={other:?} — expected small | medium | large | million")
                }
            },
        }
    }

    /// The population sizes for this scale, seeded with `seed`.
    pub fn spec(self, seed: u64) -> EnterpriseSpec {
        let (users, groups, files, ops) = match self {
            Scale::Small => (8, 4, 24, 96),
            Scale::Medium => (64, 12, 256, 1024),
            Scale::Large => (4_096, 256, 16_384, 32_768),
            Scale::Million => (400_000, 20_000, 500_000, 100_000),
        };
        EnterpriseSpec { users, groups, files, ops, zipf_s: 1.0, seed }
    }
}

/// Population sizes and distribution shape for one generated enterprise.
#[derive(Clone, Debug)]
pub struct EnterpriseSpec {
    /// Number of users (`Uid(1000)..`).
    pub users: usize,
    /// Number of groups (`Gid(200)..`).
    pub groups: usize,
    /// Number of files.
    pub files: usize,
    /// Length of the mixed traffic stream.
    pub ops: usize,
    /// Zipf exponent shared by the group-popularity, file-ownership, and
    /// file-heat distributions.
    pub zipf_s: f64,
    /// DRBG seed; equal specs generate byte-identical enterprises.
    pub seed: u64,
}

impl EnterpriseSpec {
    /// Total generated entities (users + groups + files + traffic ops) —
    /// the "million" in million-entity scale.
    pub fn entities(&self) -> usize {
        self.users + self.groups + self.files + self.ops
    }
}

/// One generated file: owner, mode, named-user read grants, and content
/// parameters (content is derived from `salt`, never stored).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileSpec {
    /// Global file id (position in [`Enterprise::files`]).
    pub id: u32,
    /// Owner user index.
    pub owner: u32,
    /// Final mode bits (octal).
    pub mode_octal: u32,
    /// User indices granted read via a named-user ACL entry (the Scheme-2
    /// split-point driver).
    pub acl_readers: Vec<u32>,
    /// Content length in bytes.
    pub len: u32,
    /// Content salt; see [`FileSpec::content`].
    pub salt: u64,
}

impl FileSpec {
    /// Path of this file under its owner's home.
    pub fn path(&self) -> String {
        format!("/home/u{}/f{}.dat", self.owner, self.id)
    }

    /// The file's deterministic content.
    pub fn content(&self) -> Vec<u8> {
        content_bytes(self.len as usize, self.salt)
    }
}

/// Deterministic filler bytes for a `(len, salt)` pair.
pub fn content_bytes(len: usize, salt: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9e37_79b9).wrapping_add(salt);
            (x ^ (x >> 29)) as u8
        })
        .collect()
}

/// One step of the mixed traffic stream. Actors and files are indices into
/// the generated population; drivers translate them to uids/paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrafficOp {
    /// `actor` opens and reads `file`.
    Read {
        /// Acting user index.
        actor: u32,
        /// Target file id.
        file: u32,
    },
    /// `actor` rewrites `file` with fresh salted content.
    Write {
        /// Acting user index.
        actor: u32,
        /// Target file id.
        file: u32,
        /// Salt for the replacement content.
        salt: u64,
    },
    /// The owner flips `file` to `octal` (the revocation/grant driver).
    Chmod {
        /// Target file id.
        file: u32,
        /// New mode bits.
        octal: u32,
    },
}

/// Shape summary of a generated enterprise, cheap at any scale.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Members of the largest group (primary + secondary).
    pub max_group_size: usize,
    /// Total membership edges (every user has 1 primary + n secondary).
    pub membership_edges: usize,
    /// Files owned by the most prolific owner.
    pub max_files_per_owner: usize,
    /// Files carrying at least one named-user ACL grant.
    pub shared_files: usize,
    /// Total named-user ACL entries.
    pub acl_entries: usize,
}

/// A generated enterprise population: membership graph, sharing graph, and
/// traffic stream. Pure data — no keys, no filesystem — until
/// [`materialize`](Enterprise::materialize).
#[derive(Clone, Debug)]
pub struct Enterprise {
    /// The spec this population was generated from.
    pub spec: EnterpriseSpec,
    /// Primary group index per user.
    pub primary_group: Vec<u32>,
    /// Secondary group indices per user (sorted, deduped, excludes
    /// primary).
    pub extra_groups: Vec<Vec<u32>>,
    /// The sharing graph.
    pub files: Vec<FileSpec>,
    /// The traffic stream.
    pub ops: Vec<TrafficOp>,
    /// Shape summary.
    pub stats: GraphStats,
}

/// Weighted final file modes: mostly group-readable, a private tail, a
/// world-readable head. All representable under every crypto policy.
const FILE_MODES: [(u32, u64); 4] = [(0o600, 30), (0o640, 30), (0o644, 25), (0o660, 15)];

fn pick_mode<R: RandomSource + ?Sized>(rng: &mut R) -> u32 {
    let total: u64 = FILE_MODES.iter().map(|&(_, w)| w).sum();
    let mut roll = below(rng, total);
    for &(mode, w) in &FILE_MODES {
        if roll < w {
            return mode;
        }
        roll -= w;
    }
    FILE_MODES[FILE_MODES.len() - 1].0
}

impl Enterprise {
    /// Generates the population for `spec`. Deterministic: the DRBG is
    /// derived from `spec.seed` alone.
    pub fn generate(spec: &EnterpriseSpec) -> Enterprise {
        assert!(spec.users > 0 && spec.groups > 0 && spec.files > 0);
        let mut rng =
            HmacDrbg::new(&[&spec.seed.to_be_bytes()[..], b"sharoes:enterprise"].concat());
        let group_pop = Zipf::new(spec.groups, spec.zipf_s);
        let user_pop = Zipf::new(spec.users, spec.zipf_s);

        // Membership: Zipf primary group plus a geometric-ish tail of
        // secondary memberships (most users: none; a few: up to 3).
        let mut group_sizes = vec![0usize; spec.groups];
        let mut primary_group = Vec::with_capacity(spec.users);
        let mut extra_groups = Vec::with_capacity(spec.users);
        let mut membership_edges = 0usize;
        for _ in 0..spec.users {
            let primary = group_pop.sample(&mut rng) as u32;
            group_sizes[primary as usize] += 1;
            membership_edges += 1;
            let mut extras: Vec<u32> = Vec::new();
            while extras.len() < 3 && percent(&mut rng, 25) {
                let g = group_pop.sample(&mut rng) as u32;
                if g != primary && !extras.contains(&g) {
                    group_sizes[g as usize] += 1;
                    membership_edges += 1;
                    extras.push(g);
                }
            }
            extras.sort_unstable();
            primary_group.push(primary);
            extra_groups.push(extras);
        }

        // Sharing graph: Zipf owners, weighted modes, occasional
        // named-user read grants to Zipf-popular users.
        let mut files = Vec::with_capacity(spec.files);
        let mut files_per_owner = vec![0usize; spec.users];
        let mut shared_files = 0usize;
        let mut acl_entries = 0usize;
        for id in 0..spec.files {
            let owner = user_pop.sample(&mut rng) as u32;
            files_per_owner[owner as usize] += 1;
            let mode_octal = pick_mode(&mut rng);
            let mut acl_readers: Vec<u32> = Vec::new();
            if percent(&mut rng, 20) {
                let n = 1 + below(&mut rng, 3) as usize;
                while acl_readers.len() < n {
                    let r = user_pop.sample(&mut rng) as u32;
                    if r != owner && !acl_readers.contains(&r) {
                        acl_readers.push(r);
                    } else if spec.users <= n {
                        break; // tiny populations can't fill the quota
                    }
                }
                acl_readers.sort_unstable();
                if !acl_readers.is_empty() {
                    shared_files += 1;
                    acl_entries += acl_readers.len();
                }
            }
            files.push(FileSpec {
                id: id as u32,
                owner,
                mode_octal,
                acl_readers,
                len: 64 + below(&mut rng, 449) as u32, // 64..=512 bytes
                salt: rng.next_u64(),
            });
        }

        // Traffic: Zipf-hot files; reads dominate, then rewrites, then
        // permission flips. Actors are mostly legitimate readers (owner or
        // an ACL grantee), with a dissident tail exercising denials.
        let file_heat = Zipf::new(spec.files, spec.zipf_s);
        let mut ops = Vec::with_capacity(spec.ops);
        for _ in 0..spec.ops {
            let file = &files[file_heat.sample(&mut rng)];
            let actor = if !file.acl_readers.is_empty() && percent(&mut rng, 40) {
                file.acl_readers[below(&mut rng, file.acl_readers.len() as u64) as usize]
            } else if percent(&mut rng, 25) {
                below(&mut rng, spec.users as u64) as u32
            } else {
                file.owner
            };
            ops.push(match below(&mut rng, 100) {
                0..=59 => TrafficOp::Read { actor, file: file.id },
                60..=84 => {
                    TrafficOp::Write { actor: file.owner, file: file.id, salt: rng.next_u64() }
                }
                _ => TrafficOp::Chmod { file: file.id, octal: pick_mode(&mut rng) },
            });
        }

        let stats = GraphStats {
            max_group_size: group_sizes.iter().copied().max().unwrap_or(0),
            membership_edges,
            max_files_per_owner: files_per_owner.iter().copied().max().unwrap_or(0),
            shared_files,
            acl_entries,
        };
        Enterprise { spec: spec.clone(), primary_group, extra_groups, files, ops, stats }
    }

    /// Uid of user index `i`.
    pub fn uid(i: u32) -> Uid {
        Uid(BASE_UID + i)
    }

    /// Gid of group index `j`.
    pub fn gid(j: u32) -> Gid {
        Gid(BASE_GID + j)
    }

    /// A 128-bit hex fingerprint of the full generated structure
    /// (membership, sharing graph, traffic stream). Two runs at the same
    /// seed must agree byte-for-byte — this is the replay oracle that works
    /// at every scale, including [`Scale::Million`] where materialization
    /// is off the table.
    pub fn fingerprint(&self) -> String {
        let mut h = Sha256::new();
        for (i, &g) in self.primary_group.iter().enumerate() {
            h.update(&(i as u32).to_be_bytes());
            h.update(&g.to_be_bytes());
            for &e in &self.extra_groups[i] {
                h.update(&e.to_be_bytes());
            }
        }
        for f in &self.files {
            h.update(&f.id.to_be_bytes());
            h.update(&f.owner.to_be_bytes());
            h.update(&f.mode_octal.to_be_bytes());
            for &r in &f.acl_readers {
                h.update(&r.to_be_bytes());
            }
            h.update(&f.len.to_be_bytes());
            h.update(&f.salt.to_be_bytes());
        }
        for op in &self.ops {
            match op {
                TrafficOp::Read { actor, file } => {
                    h.update(b"r");
                    h.update(&actor.to_be_bytes());
                    h.update(&file.to_be_bytes());
                }
                TrafficOp::Write { actor, file, salt } => {
                    h.update(b"w");
                    h.update(&actor.to_be_bytes());
                    h.update(&file.to_be_bytes());
                    h.update(&salt.to_be_bytes());
                }
                TrafficOp::Chmod { file, octal } => {
                    h.update(b"c");
                    h.update(&file.to_be_bytes());
                    h.update(&octal.to_be_bytes());
                }
            }
        }
        let digest = h.finalize_array();
        digest[..16].iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Builds the [`UserDb`] for this population (root + wheel, groups,
    /// users with primary and secondary memberships).
    pub fn user_db(&self) -> UserDb {
        let mut db = UserDb::new();
        db.add_group(Gid(0), "wheel").expect("fresh db");
        for j in 0..self.spec.groups {
            db.add_group(Self::gid(j as u32), &format!("g{j}")).expect("unique gid");
        }
        db.add_user(ROOT_UID, "root", Gid(0)).expect("fresh db");
        for (i, &primary) in self.primary_group.iter().enumerate() {
            let uid = Self::uid(i as u32);
            db.add_user(uid, &format!("u{i}"), Self::gid(primary)).expect("unique uid");
            for &extra in &self.extra_groups[i] {
                db.add_member(Self::gid(extra), uid).expect("user exists");
            }
        }
        db
    }

    /// Materializes the population into a [`LocalFs`]: homes under
    /// `/home/u{i}` (world-traversable; privacy lives in file modes and
    /// ACLs), each file created by its owner with salted content, ACL
    /// grants, and its final mode. Feasible up to [`Scale::Large`]; the
    /// million scale stays graph-only.
    pub fn materialize(&self) -> LocalFs {
        let mut fs = LocalFs::new(self.user_db(), Gid(0), Mode::from_octal(0o755));
        fs.mkdir(ROOT_UID, "/home", Mode::from_octal(0o755)).expect("mkdir /home");
        let mut has_home = vec![false; self.spec.users];
        for f in &self.files {
            has_home[f.owner as usize] = true;
        }
        for (i, &primary) in self.primary_group.iter().enumerate() {
            if !has_home[i] {
                continue; // skip homes nothing references: keeps Large lean
            }
            let uid = Self::uid(i as u32);
            let home = format!("/home/u{i}");
            fs.mkdir(ROOT_UID, &home, Mode::from_octal(0o755)).expect("mkdir home");
            fs.chown(ROOT_UID, &home, uid, Self::gid(primary)).expect("chown home");
        }
        for f in &self.files {
            let uid = Self::uid(f.owner);
            let path = f.path();
            fs.create(uid, &path, Mode::from_octal(0o600)).expect("create file");
            fs.write(uid, &path, &f.content()).expect("write file");
            if !f.acl_readers.is_empty() {
                let mut acl = Acl::empty();
                for &r in &f.acl_readers {
                    acl.set_user(Self::uid(r), Perm::R);
                }
                fs.set_acl(uid, &path, acl).expect("set acl");
            }
            fs.chmod(uid, &path, Mode::from_octal(f.mode_octal)).expect("chmod file");
        }
        fs
    }

    /// Replays the traffic stream against a materialized [`LocalFs`],
    /// counting outcomes. Permission denials are expected (the stream
    /// includes dissident actors); any other failure panics. The counts
    /// are part of the deterministic surface drivers can assert on.
    pub fn replay_local(&self, fs: &mut LocalFs) -> ReplayStats {
        let mut stats = ReplayStats::default();
        for op in &self.ops {
            match op {
                TrafficOp::Read { actor, file } => {
                    match fs.read(Self::uid(*actor), &self.files[*file as usize].path()) {
                        Ok(_) => stats.reads_ok += 1,
                        Err(_) => stats.reads_denied += 1,
                    }
                }
                TrafficOp::Write { actor, file, salt } => {
                    let f = &self.files[*file as usize];
                    let body = content_bytes(f.len as usize, *salt);
                    match fs.write(Self::uid(*actor), &f.path(), &body) {
                        Ok(()) => stats.writes_ok += 1,
                        Err(_) => stats.writes_denied += 1,
                    }
                }
                TrafficOp::Chmod { file, octal } => {
                    let f = &self.files[*file as usize];
                    fs.chmod(Self::uid(f.owner), &f.path(), Mode::from_octal(*octal))
                        .expect("owner chmod");
                    stats.chmods += 1;
                }
            }
        }
        stats
    }
}

/// Outcome counts from [`Enterprise::replay_local`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Reads that succeeded.
    pub reads_ok: usize,
    /// Reads denied by permissions.
    pub reads_denied: usize,
    /// Writes that succeeded.
    pub writes_ok: usize,
    /// Writes denied by permissions.
    pub writes_denied: usize,
    /// Owner chmods applied.
    pub chmods: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_front_loaded_and_in_range() {
        let z = Zipf::new(100, 1.0);
        let mut rng = HmacDrbg::from_seed_u64(7);
        let mut counts = vec![0usize; 100];
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 100);
            counts[r] += 1;
        }
        assert!(
            counts[0] > counts[50] * 5,
            "rank 0 ({}) should dwarf rank 50 ({})",
            counts[0],
            counts[50]
        );
        assert!(counts.iter().filter(|&&c| c > 0).count() > 30, "tail must still be sampled");
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = Scale::Small.spec(0xE17E);
        let a = Enterprise::generate(&spec);
        let b = Enterprise::generate(&spec);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.stats, b.stats);
        let other = Enterprise::generate(&Scale::Small.spec(0xE17F));
        assert_ne!(a.fingerprint(), other.fingerprint(), "seed must matter");
    }

    #[test]
    fn materialized_population_obeys_the_graph() {
        let ent = Enterprise::generate(&Scale::Small.spec(0xBEEF));
        let mut fs = ent.materialize();
        // Every file readable by its owner and by each ACL grantee.
        for f in &ent.files {
            assert_eq!(fs.read(Enterprise::uid(f.owner), &f.path()).unwrap(), f.content());
            for &r in &f.acl_readers {
                fs.read(Enterprise::uid(r), &f.path())
                    .unwrap_or_else(|e| panic!("grantee u{r} denied on {}: {e:?}", f.path()));
            }
        }
        let stats = ent.replay_local(&mut fs);
        assert_eq!(
            stats.reads_ok
                + stats.reads_denied
                + stats.writes_ok
                + stats.writes_denied
                + stats.chmods,
            ent.ops.len()
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let ent = Enterprise::generate(&Scale::Small.spec(0xD15C));
        let s1 = ent.replay_local(&mut ent.materialize());
        let s2 = ent.replay_local(&mut ent.materialize());
        assert_eq!(s1, s2);
    }

    #[test]
    fn million_scale_generates_and_fingerprints_without_materializing() {
        // Smoke-scaled structural check of the Million spec: entity count
        // and graph-only generation. The full sweep runs from the bench
        // binary (SHAROES_SCALE=million).
        let spec = Scale::Million.spec(1);
        assert!(spec.entities() >= 1_000_000, "Million scale must clear 10^6 entities");
        let scaled = EnterpriseSpec { users: 2_000, groups: 100, files: 2_500, ops: 500, ..spec };
        let ent = Enterprise::generate(&scaled);
        assert_eq!(ent.fingerprint().len(), 32);
        assert!(ent.stats.max_group_size > scaled.users / scaled.groups);
        assert!(ent.stats.max_files_per_owner > scaled.files / scaled.users);
    }
}
