//! Shared benchmark fixture and virtual-clock reporting.
//!
//! Every figure harness builds a [`Bench`] deployment, runs client
//! operations, and converts the accumulated [`CostSample`] into seconds:
//! the paper's DSL link model for its bytes and round trips, plus the
//! crypto work the client counted, priced from the one fixed table in
//! [`price`] (see EXPERIMENTS.md "Calibration"). Nothing here reads a
//! clock, so a figure is a function of its seed alone.

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

/// Reference prices of counted crypto work, in seconds of the paper's
/// 1 GHz Pentium-4 client. Each is a row of EXPERIMENTS.md's primitive
/// table, measured on a 2-vCPU 2.0 GHz Xeon VM, times the calibration
/// factor [`price::CALIBRATION`], frozen when the harness stopped timing
/// crypto. AES-CTR and SHA-256 take the portable rows: the paper's P4 had
/// neither AES-NI nor SHA-NI. Prices do not depend on key size; the
/// workloads run RSA-2048 and ESIGN-768.
pub mod price {
    /// The P4-to-VM slowdown the table is scaled by, once calibrated
    /// against Figure 9's PUB-OPT list-phase overhead.
    pub const CALIBRATION: f64 = 50.0;
    const MIB: f64 = (1u64 << 20) as f64;
    /// AES-128-CTR, portable: ~22 ms per MiB.
    pub const AES_CTR_PER_BYTE: f64 = 22e-3 / MIB * CALIBRATION;
    /// SHA-256, portable: ~8.9 ms per MiB.
    pub const SHA256_PER_BYTE: f64 = 8.9e-3 / MIB * CALIBRATION;
    /// RSA-2048 public op (encrypt): ~51 µs.
    pub const RSA_PUBLIC: f64 = 51e-6 * CALIBRATION;
    /// RSA-2048 private op (CRT decrypt): ~1.6 ms.
    pub const RSA_PRIVATE: f64 = 1.6e-3 * CALIBRATION;
    /// RSA-2048 key generation: ~150 ms.
    pub const RSA_KEYGEN: f64 = 150e-3 * CALIBRATION;
    /// ESIGN-768 sign: ~27 µs.
    pub const ESIGN_SIGN: f64 = 27e-6 * CALIBRATION;
    /// ESIGN-768 verify: ~4.3 µs.
    pub const ESIGN_VERIFY: f64 = 4.3e-6 * CALIBRATION;
    /// ESIGN-768 key generation: ~3.6 ms.
    pub const ESIGN_KEYGEN: f64 = 3.6e-3 * CALIBRATION;
}

/// Seconds `work` costs at the [`price`] table.
pub fn crypto_secs(work: &Work) -> f64 {
    work.aes_ctr_bytes as f64 * price::AES_CTR_PER_BYTE
        + work.sha256_bytes as f64 * price::SHA256_PER_BYTE
        + work.rsa_public as f64 * price::RSA_PUBLIC
        + work.rsa_private as f64 * price::RSA_PRIVATE
        + work.rsa_keygen as f64 * price::RSA_KEYGEN
        + work.esign_sign as f64 * price::ESIGN_SIGN
        + work.esign_verify as f64 * price::ESIGN_VERIFY
        + work.esign_keygen as f64 * price::ESIGN_KEYGEN
}

/// Virtual seconds of `cost` on `net`: its network time plus its priced
/// crypto work.
pub fn virtual_secs(cost: &CostSample, net: &NetModel) -> f64 {
    net.network_time(cost).as_secs_f64() + crypto_secs(&cost.work)
}

/// The primary user driving benchmark workloads.
pub const BENCH_USER: Uid = Uid(1000);

/// Global knobs for a figure run.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Link model (default: the paper's DSL).
    pub net: NetModel,
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
        let config = ClientConfig { cache_capacity, ..self.config.clone() };
        let transport = InMemoryTransport::new(Arc::clone(&self.server) as _);
        self.mount(uid, config, Box::new(transport))
    }

    /// Mounts a client for `uid` under `config`, reaching the SSP through
    /// `transport`.
    pub fn mount(
        &self,
        uid: Uid,
        config: ClientConfig,
        transport: Box<dyn Transport>,
    ) -> SharoesClient {
        let identity = self.ring.identity(uid).expect("identity");
        let nth = self.clients_created.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut client = SharoesClient::with_rng(
            transport,
            config,
            Arc::clone(&self.db),
            Arc::clone(&self.pki),
            identity,
            Arc::clone(&self.pool),
            HmacDrbg::from_seed_u64(
                self.opts.seed ^ (uid.0 as u64) ^ nth.wrapping_mul(0x9e3779b97f4a7c15),
            ),
        );
        client.mount().expect("mount");
        client
    }
}

/// A virtual-clock phase timer over a client's meter.
pub struct PhaseTimer {
    start: CostSample,
}

impl PhaseTimer {
    /// Starts timing from the client's current meter state.
    pub fn start(client: &SharoesClient) -> PhaseTimer {
        PhaseTimer { start: client.meter().sample() }
    }

    /// The cost accumulated since `start`.
    pub fn cost(&self, client: &SharoesClient) -> CostSample {
        client.meter().sample().since(&self.start)
    }

    /// Virtual seconds elapsed under `opts`' link model and the price table.
    pub fn seconds(&self, client: &SharoesClient, opts: &BenchOpts) -> f64 {
        virtual_secs(&self.cost(client), &opts.net)
    }

    /// NETWORK / CRYPTO decomposition in seconds (Figure 13).
    pub fn breakdown(&self, client: &SharoesClient, opts: &BenchOpts) -> (f64, f64) {
        let cost = self.cost(client);
        (opts.net.network_time(&cost).as_secs_f64(), crypto_secs(&cost.work))
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
