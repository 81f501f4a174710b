//! Shared benchmark fixture and virtual-clock reporting.
//!
//! Every figure harness builds a [`Bench`] deployment, runs client
//! operations, and converts the accumulated [`CostSample`] into seconds with
//! the paper's DSL link model plus a CPU scale factor that maps this
//! machine's measured crypto time onto the paper's 2002-era client (see
//! EXPERIMENTS.md "Calibration").

use sharoes_core::{
    ClientConfig, CryptoParams, CryptoPolicy, Keyring, Migrator, Pki, RevocationMode, Scheme,
    SharoesClient, SigKeyPool,
};
use sharoes_crypto::work::Work;
use sharoes_crypto::HmacDrbg;
use sharoes_fs::{Gid, LocalFs, Mode, Uid, UserDb, ROOT_UID};
use sharoes_net::{CostSample, InMemoryTransport, NetModel, Transport};
use sharoes_ssp::SspServer;
use std::sync::Arc;
use std::time::Duration;

/// Default CPU scale: measured crypto nanoseconds on this machine are
/// multiplied by this factor to model the paper's 1 GHz Pentium-4 client.
/// Calibrated against the PUB-OPT list-phase overhead of Figure 9 (see
/// EXPERIMENTS.md); the *orderings* in every figure are insensitive to
/// values within roughly 20–200.
pub const DEFAULT_CPU_SCALE: f64 = 50.0;

/// The primary user driving benchmark workloads.
pub const BENCH_USER: Uid = Uid(1000);

/// Global knobs for a figure run.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Link model (default: the paper's DSL).
    pub net: NetModel,
    /// CPU scale factor for measured crypto/other time.
    pub cpu_scale: f64,
    /// Number of enterprise users (baselines replicate per user).
    pub users: usize,
    /// Asymmetric key sizing.
    pub crypto: CryptoParams,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            net: NetModel::paper_dsl(),
            cpu_scale: DEFAULT_CPU_SCALE,
            users: 4,
            crypto: CryptoParams::bench(),
            seed: 0x5AA0E5,
        }
    }
}

/// One deployed implementation: SSP + keys + a mounted primary client.
pub struct Bench {
    clients_created: std::sync::atomic::AtomicU64,
    /// The SSP.
    pub server: Arc<SspServer>,
    /// Enterprise directory.
    pub db: Arc<UserDb>,
    /// Public keys.
    pub pki: Arc<Pki>,
    /// All identity keys (setup-side).
    pub ring: Arc<Keyring>,
    /// Pre-generated signature pairs (see EXPERIMENTS.md "Key pooling").
    pub pool: Arc<SigKeyPool>,
    /// Client configuration in force.
    pub config: ClientConfig,
    /// Options used to build this bench.
    pub opts: BenchOpts,
    /// Wire costs of the migration that built the deployment.
    pub migration_cost: CostSample,
}

impl Bench {
    /// Builds the empty deployment for `policy` (with `/bench` as a
    /// world-writable working directory) and pre-fills the signature pool.
    pub fn new(policy: CryptoPolicy, scheme: Scheme, opts: &BenchOpts, prefill: usize) -> Bench {
        let mut db = UserDb::new();
        db.add_group(Gid(0), "wheel").expect("fresh db");
        db.add_group(Gid(100), "staff").expect("fresh db");
        db.add_user(ROOT_UID, "root", Gid(0)).expect("fresh db");
        for i in 0..opts.users {
            db.add_user(Uid(1000 + i as u32), &format!("user{i}"), Gid(100)).expect("unique user");
        }
        let mut fs = LocalFs::new(db, Gid(0), Mode::from_octal(0o755));
        // The working directory belongs to the benchmark user (like the
        // paper's single-user run in its own directory): the owner chain
        // continues cleanly below it, so splits are a one-time cost.
        fs.mkdir(ROOT_UID, "/bench", Mode::from_octal(0o775)).expect("mkdir /bench");
        fs.chown(ROOT_UID, "/bench", BENCH_USER, Gid(100)).expect("chown /bench");

        Self::from_fs(fs, policy, scheme, opts, prefill)
    }

    /// Builds a deployment by migrating an existing local tree.
    pub fn from_fs(
        fs: LocalFs,
        policy: CryptoPolicy,
        scheme: Scheme,
        opts: &BenchOpts,
        prefill: usize,
    ) -> Bench {
        let mut rng = HmacDrbg::from_seed_u64(opts.seed);
        let ring = Keyring::generate(fs.users(), opts.crypto.rsa_bits, &mut rng)
            .expect("keyring generation");
        // The PUBLIC/PUB-OPT baselines represent the related work (SiRiUS,
        // SNAD, Farsite), which signed with RSA — their metadata objects
        // therefore carry multi-hundred-byte RSA signing keys, which is
        // exactly what makes whole-object public-key encryption so painful
        // in Figure 9. SHAROES keeps fast ESIGN pairs (paper footnote 3).
        let crypto = match policy {
            CryptoPolicy::Public | CryptoPolicy::PubOpt => CryptoParams {
                sig_scheme: sharoes_crypto::SignatureScheme::Rsa,
                sig_bits: opts.crypto.rsa_bits,
                ..opts.crypto
            },
            _ => opts.crypto,
        };
        let config = ClientConfig {
            scheme,
            policy,
            revocation: RevocationMode::Immediate,
            block_size: 4096,
            cache_capacity: None,
            crypto,
        };
        let pool = Arc::new(SigKeyPool::new(crypto));
        match policy {
            CryptoPolicy::NoEncMdD | CryptoPolicy::NoEncMd => {}
            // Baselines never sign — their pooled RSA pairs are carried
            // bytes only, so clones of one pair preserve every cost.
            CryptoPolicy::Public | CryptoPolicy::PubOpt => pool.prefill_cloned(prefill, &mut rng),
            CryptoPolicy::Sharoes => pool.prefill_parallel(prefill, opts.seed),
        }
        let server = SspServer::new().into_shared();
        let mut transport = InMemoryTransport::new(Arc::clone(&server) as _);
        let migrator = Migrator {
            fs: &fs,
            config: &config,
            ring: &ring,
            pool: &pool,
            downgrade_unsupported: true,
        };
        migrator.migrate(&mut transport, &mut rng).expect("migration");
        let migration_cost = transport.meter().sample();
        let db = Arc::new(fs.users().clone());
        let pki = Arc::new(ring.public_directory());
        Bench {
            clients_created: std::sync::atomic::AtomicU64::new(0),
            server,
            db,
            pki,
            ring: Arc::new(ring),
            pool,
            config,
            opts: opts.clone(),
            migration_cost,
        }
    }

    /// Mounts a client for `uid` with an optional cache capacity.
    pub fn client(&self, uid: Uid, cache_capacity: Option<u64>) -> SharoesClient {
        let transport = InMemoryTransport::new(Arc::clone(&self.server) as _);
        let mut config = self.config.clone();
        config.cache_capacity = cache_capacity;
        let identity = self.ring.identity(uid).expect("identity");
        let mut client = SharoesClient::with_rng(
            Box::new(transport),
            config,
            Arc::clone(&self.db),
            Arc::clone(&self.pki),
            identity,
            Arc::clone(&self.pool),
            HmacDrbg::from_seed_u64(
                self.opts.seed
                    ^ (uid.0 as u64)
                    ^ (self
                        .clients_created
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                        .wrapping_mul(0x9e3779b97f4a7c15)),
            ),
        );
        client.mount().expect("mount");
        client
    }
}

/// A virtual-clock phase timer over a client's meter.
pub struct PhaseTimer {
    start: CostSample,
    work_start: Work,
}

impl PhaseTimer {
    /// Starts timing from the client's current meter state.
    pub fn start(client: &SharoesClient) -> PhaseTimer {
        PhaseTimer { start: client.meter().sample(), work_start: sharoes_crypto::work::tally() }
    }

    /// Cryptographic work this thread did since `start` (the client runs
    /// its crypto on the calling thread).
    pub fn crypto_work(&self) -> Work {
        sharoes_crypto::work::tally().since(&self.work_start)
    }

    /// The cost accumulated since `start`.
    pub fn cost(&self, client: &SharoesClient) -> CostSample {
        client.meter().sample().since(&self.start)
    }

    /// Virtual seconds elapsed under `opts`' link model and CPU scale.
    pub fn seconds(&self, client: &SharoesClient, opts: &BenchOpts) -> f64 {
        opts.net.total_time(&self.cost(client), opts.cpu_scale).as_secs_f64()
    }

    /// NETWORK / CRYPTO / OTHER decomposition in seconds (Figure 13).
    pub fn breakdown(&self, client: &SharoesClient, opts: &BenchOpts) -> (f64, f64, f64) {
        opts.net.breakdown(&self.cost(client), opts.cpu_scale)
    }
}

/// One `metric p50=… p95=… p99=…` line per histogram present in `snap`
/// (quantiles interpolated from its cumulative buckets — works on deltas
/// too, so phase tables can report the quantiles of just that phase).
/// Histograms with no observations are skipped.
pub fn quantile_lines(snap: &sharoes_obs::Snapshot) -> Vec<String> {
    snap.values
        .keys()
        .filter_map(|k| k.strip_suffix("_count"))
        .filter(|m| snap.values.contains_key(&format!("{m}_bucket{{le=\"+Inf\"}}")))
        .filter_map(|m| {
            snap.quantile_summary(m)
                .map(|(p50, p95, p99)| format!("{m} p50={p50} p95={p95} p99={p99}"))
        })
        .collect()
}

/// Renders a duration in the paper's style (seconds with sensible width).
pub fn fmt_secs(d: f64) -> String {
    if d >= 100.0 {
        format!("{d:.0}")
    } else if d >= 10.0 {
        format!("{d:.1}")
    } else {
        format!("{d:.2}")
    }
}

/// Simple fixed-width table printer for figure output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Prints with aligned columns.
    pub fn print(&self) {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate().take(ncols) {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{cell:>width$}", width = widths[i]));
            }
            println!("{s}");
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        println!("{}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// The five implementations in figure order.
pub fn all_policies() -> [CryptoPolicy; 5] {
    [
        CryptoPolicy::NoEncMdD,
        CryptoPolicy::NoEncMd,
        CryptoPolicy::Sharoes,
        CryptoPolicy::Public,
        CryptoPolicy::PubOpt,
    ]
}

/// Figure 10/11 skip PUBLIC ("we do not compare the PUBLIC implementation
/// and instead use its optimized version").
pub fn four_policies() -> [CryptoPolicy; 4] {
    [CryptoPolicy::NoEncMdD, CryptoPolicy::NoEncMd, CryptoPolicy::Sharoes, CryptoPolicy::PubOpt]
}

/// Scheme used by a policy in figure runs: Sharoes gets Scheme-2, baselines
/// are inherently per-user.
pub fn scheme_for(policy: CryptoPolicy) -> Scheme {
    if policy == CryptoPolicy::Sharoes {
        Scheme::SharedCaps
    } else {
        Scheme::PerUser
    }
}

/// Deterministic content generator for workload files.
pub fn content(len: usize, salt: u64) -> Vec<u8> {
    (0..len).map(|i| ((i as u64).wrapping_mul(131).wrapping_add(salt * 17) % 251) as u8).collect()
}

/// Convenience: a `Duration` as float seconds.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}
