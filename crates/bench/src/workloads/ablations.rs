//! Ablations A1–A6: design-choice studies called out in DESIGN.md.
//!
//! * A1 — Scheme-1 vs Scheme-2: update fan-out and access latency.
//! * A2 — immediate vs lazy revocation: chmod cost vs next-write cost.
//! * A3 — ESIGN vs RSA for DSK/MSK signing: create-phase crypto.
//! * A4 — network sweep: SHAROES vs PUB-OPT across link qualities.
//! * A5 — op-cost overhead of the transport's retries vs injected fault
//!   rate: the workload always completes; only retry traffic grows.
//! * A6 — cluster op cost and availability vs node count, replication
//!   factor, and per-node fault rate.

use crate::harness::{content, virtual_secs, Bench, BenchOpts, PhaseTimer, BENCH_USER};
use crate::workloads::createlist::{self, CreateListSpec};
use sharoes_core::{ClientConfig, CryptoPolicy, RevocationMode, Scheme};
use sharoes_crypto::work::Work;
use sharoes_crypto::SignatureScheme;
use sharoes_fs::Mode;
use sharoes_net::NetModel;
use std::time::Duration;

/// A1 result: per-scheme create and stat latencies.
#[derive(Clone, Debug)]
pub struct SchemeComparison {
    /// Scheme measured.
    pub scheme: Scheme,
    /// Virtual seconds to create `n` files.
    pub create_secs: f64,
    /// Virtual seconds to stat them all (cold).
    pub stat_secs: f64,
    /// SSP bytes after the run.
    pub ssp_bytes: u64,
}

/// A1: same workload under Scheme-1 and Scheme-2.
pub fn scheme_comparison(n: usize, users: usize, opts: &BenchOpts) -> Vec<SchemeComparison> {
    let mut out = Vec::new();
    for scheme in [Scheme::SharedCaps, Scheme::PerUser] {
        let mut o = opts.clone();
        o.users = users;
        let bench = Bench::new(CryptoPolicy::Sharoes, scheme, &o, n * 2 + 8);
        let mut client = bench.client(BENCH_USER, None);
        let timer = PhaseTimer::start(&client);
        for i in 0..n {
            client.create(&format!("/bench/f{i}"), Mode::from_octal(0o644)).expect("create");
        }
        let create_secs = timer.seconds(&client, &o);

        let mut stat_client = bench.client(BENCH_USER, None);
        let timer = PhaseTimer::start(&stat_client);
        for i in 0..n {
            stat_client.getattr(&format!("/bench/f{i}")).expect("stat");
        }
        let stat_secs = timer.seconds(&stat_client, &o);
        out.push(SchemeComparison {
            scheme,
            create_secs,
            stat_secs,
            ssp_bytes: bench.server.store().byte_count(),
        });
    }
    out
}

/// A2 result for one file size.
#[derive(Clone, Debug)]
pub struct RevocationCosts {
    /// File size tested.
    pub file_size: usize,
    /// chmod seconds under immediate revocation.
    pub immediate_chmod: f64,
    /// chmod seconds under lazy revocation.
    pub lazy_chmod: f64,
    /// Next-write seconds under immediate revocation (no rekey debt).
    pub immediate_write: f64,
    /// Next-write seconds under lazy revocation (pays the deferred rekey).
    pub lazy_write: f64,
    /// The crypto work of the next write under immediate revocation.
    pub immediate_write_work: Work,
    /// The crypto work of the next write under lazy revocation.
    pub lazy_write_work: Work,
}

/// A2: revocation cost placement for growing file sizes.
pub fn revocation_costs(file_sizes: &[usize], opts: &BenchOpts) -> Vec<RevocationCosts> {
    let mut out = Vec::new();
    for &file_size in file_sizes {
        let mut measured = [0.0f64; 4];
        let mut write_work = [Work::default(), Work::default()];
        for (idx, mode) in [RevocationMode::Immediate, RevocationMode::Lazy].into_iter().enumerate()
        {
            let bench = Bench::new(CryptoPolicy::Sharoes, Scheme::SharedCaps, opts, 32);
            let config = ClientConfig { revocation: mode, ..bench.deployment.config.clone() };
            let transport = sharoes_net::InMemoryTransport::new(bench.server.clone() as _);
            let mut client = bench.mount(BENCH_USER, config, Box::new(transport));
            client.create("/bench/victim", Mode::from_octal(0o644)).expect("create");
            client.write_file("/bench/victim", &content(file_size, 3)).expect("write");

            let timer = PhaseTimer::start(&client);
            client.chmod("/bench/victim", Mode::from_octal(0o600)).expect("chmod");
            measured[idx * 2] = timer.seconds(&client, opts);

            let timer = PhaseTimer::start(&client);
            client.write_file("/bench/victim", &content(file_size, 4)).expect("post-chmod write");
            measured[idx * 2 + 1] = timer.seconds(&client, opts);
            write_work[idx] = timer.cost(&client).work;
        }
        out.push(RevocationCosts {
            file_size,
            immediate_chmod: measured[0],
            immediate_write: measured[1],
            lazy_chmod: measured[2],
            lazy_write: measured[3],
            immediate_write_work: write_work[0],
            lazy_write_work: write_work[1],
        });
    }
    out
}

/// A3 result.
#[derive(Clone, Debug)]
pub struct SigningComparison {
    /// Scheme measured.
    pub scheme: SignatureScheme,
    /// Virtual seconds for the create phase.
    pub create_secs: f64,
    /// The create phase's crypto work (priced by
    /// [`crypto_secs`](crate::harness::crypto_secs)).
    pub work: Work,
}

/// A3: the create phase with ESIGN vs RSA signing keys. Key generation runs
/// in-phase here (no pool) because keygen cost is part of the comparison.
pub fn signing_comparison(n: usize, opts: &BenchOpts) -> Vec<SigningComparison> {
    let mut out = Vec::new();
    for scheme in [SignatureScheme::Esign, SignatureScheme::Rsa] {
        let mut o = opts.clone();
        o.crypto.sig_scheme = scheme;
        // Equal modulus sizes for a fair fight.
        o.crypto.sig_bits = 1536;
        let bench = Bench::new(CryptoPolicy::Sharoes, Scheme::SharedCaps, &o, 0);
        let mut client = bench.client(BENCH_USER, None);
        let timer = PhaseTimer::start(&client);
        for i in 0..n {
            client.create(&format!("/bench/s{i}"), Mode::from_octal(0o644)).expect("create");
        }
        let cost = timer.cost(&client);
        out.push(SigningComparison {
            scheme,
            create_secs: virtual_secs(&cost, &o.net),
            work: cost.work,
        });
    }
    out
}

/// A4 result for one link.
#[derive(Clone, Debug)]
pub struct NetSweepPoint {
    /// Link label.
    pub link: &'static str,
    /// SHAROES list seconds.
    pub sharoes: f64,
    /// PUB-OPT list seconds.
    pub pubopt: f64,
}

/// A4: where does PUB-OPT's crypto tax stop hiding behind the network?
pub fn net_sweep(files: usize, opts: &BenchOpts) -> Vec<NetSweepPoint> {
    let spec = CreateListSpec { files, dirs: files / 20 + 1 };
    let links: [(&'static str, NetModel); 3] = [
        ("paper-DSL", NetModel::paper_dsl()),
        ("enterprise-WAN", NetModel::enterprise_wan()),
        ("LAN", NetModel::lan()),
    ];
    let mut out = Vec::new();
    for (label, net) in links {
        let mut o = opts.clone();
        o.net = net;
        let sharoes = createlist::run(CryptoPolicy::Sharoes, &spec, &o);
        let pubopt = createlist::run(CryptoPolicy::PubOpt, &spec, &o);
        out.push(NetSweepPoint {
            link: label,
            sharoes: sharoes.list_secs,
            pubopt: pubopt.list_secs,
        });
    }
    out
}

/// A5 result for one injected fault rate.
#[derive(Clone, Debug)]
pub struct FaultOverheadPoint {
    /// Probability that any single SSP call is faulted.
    pub rate: f64,
    /// Wire round trips the workload needed (retries included).
    pub round_trips: u64,
    /// Retries the transport performed.
    pub retries: u64,
    /// Re-dials after lost connections.
    pub reconnects: u64,
    /// Faults the connections injected.
    pub faults_injected: u64,
}

/// Call timeout of the A5/A6 fault links: a lost request or reply costs
/// this much wall time, and nothing else waits on it.
const FAULT_CALL_TIMEOUT: Duration = Duration::from_millis(5);

/// A transport to `handler` over seeded fault-injecting connections, with
/// zero-backoff retries (`attempts` per call) and costs charged to `meter`.
fn fault_link(
    handler: std::sync::Arc<dyn sharoes_net::RequestHandler>,
    rate: f64,
    seed: u64,
    attempts: u32,
    meter: &std::sync::Arc<sharoes_net::CostMeter>,
) -> sharoes_net::TcpTransport {
    use sharoes_net::{fault, FaultConfig, FaultSchedule, RetryPolicy, TcpTransport};
    use std::sync::Arc;
    let schedule = FaultSchedule::shared(FaultConfig::at_rate(rate), seed);
    TcpTransport::with_connector(
        fault::connector(handler, schedule, Arc::clone(meter)),
        FAULT_CALL_TIMEOUT,
        RetryPolicy::fast(attempts),
        Box::new(sharoes_net::WallClockSleeper),
        Arc::clone(meter),
    )
    .expect("an in-process connection always dials")
}

/// A5: how much op-cost the fault rate adds. A seeded fault schedule breaks
/// calls at `rate`; the transport retries and re-dials around every fault,
/// so the create+write+read workload completes at each point and the
/// deltas are pure retry overhead.
pub fn fault_overhead(n: usize, rates: &[f64], opts: &BenchOpts) -> Vec<FaultOverheadPoint> {
    let mut out = Vec::new();
    for &rate in rates {
        let bench = Bench::new(CryptoPolicy::Sharoes, Scheme::SharedCaps, opts, n + 4);
        let meter = sharoes_net::CostMeter::new_shared();
        let transport = fault_link(bench.server.clone() as _, rate, 0xA5, 10, &meter);
        let mut client =
            bench.mount(BENCH_USER, bench.deployment.config.clone(), Box::new(transport));
        for i in 0..n {
            let path = format!("/bench/r{i}");
            client.create(&path, Mode::from_octal(0o644)).expect("create");
            client.write_file(&path, &content(2048, i as u64)).expect("write");
            client.read(&path).expect("read");
        }
        let s = meter.sample();
        out.push(FaultOverheadPoint {
            rate,
            round_trips: s.round_trips,
            retries: s.retries,
            reconnects: s.reconnects,
            faults_injected: s.faults_injected,
        });
    }
    out
}

/// A6 result for one (nodes, replication, fault-rate) configuration.
#[derive(Clone, Debug)]
pub struct ClusterAblationPoint {
    /// Cluster size N.
    pub nodes: usize,
    /// Replication factor R.
    pub replication: usize,
    /// Probability that any single node call is faulted.
    pub rate: f64,
    /// Blob operations attempted (puts + gets + deletes).
    pub attempts: u64,
    /// Operations that failed even after retries/failover.
    pub failures: u64,
    /// Wire round trips across all replicas (retries included).
    pub round_trips: u64,
    /// Retries the per-node transports performed.
    pub retries: u64,
    /// Faults the node connections injected.
    pub faults_injected: u64,
    /// Reads that failed over past the preferred replica.
    pub failovers: u64,
    /// Replica copies rewritten by read repair.
    pub read_repairs: u64,
    /// Virtual seconds for the whole workload under `opts.net`.
    pub op_secs: f64,
}

impl ClusterAblationPoint {
    /// Fraction of blob operations that succeeded.
    pub fn availability(&self) -> f64 {
        if self.attempts == 0 {
            return 1.0;
        }
        (self.attempts - self.failures) as f64 / self.attempts as f64
    }
}

/// A6: the cluster layer under load. For each `(nodes, replication, rate)`
/// point, a put/get/delete workload of `ops` blobs runs through a
/// [`ClusterTransport`](sharoes_cluster::ClusterTransport) whose node links
/// each run over seeded fault-injecting connections, with retries. More
/// replicas buy availability under faults and cost extra write fan-out;
/// the meter and cluster stats make both sides of that trade visible.
pub fn cluster_ablation(
    ops: usize,
    points: &[(usize, usize, f64)],
    opts: &BenchOpts,
) -> Vec<ClusterAblationPoint> {
    use sharoes_cluster::{ClusterOpts, ClusterTransport};
    use sharoes_net::{CostMeter, ObjectKey, Request, Transport};
    use sharoes_ssp::SspServer;
    use std::sync::Arc;

    let key = |i: u64| ObjectKey::data(i, [(i % 251) as u8; 16], 0);
    let blob = |i: u64| vec![(i % 251) as u8; 64 + (i % 7) as usize];

    let mut out = Vec::new();
    for &(nodes, replication, rate) in points {
        let meter = CostMeter::new_shared();
        // W=1 so a write survives any single-node outage; the read path's
        // failover + read repair covers the resulting shortfalls.
        let cluster_opts = ClusterOpts { replication, write_quorum: 1, ..ClusterOpts::default() };
        let mut cluster = ClusterTransport::with_meter(cluster_opts, Arc::clone(&meter));
        for idx in 0..nodes {
            let link =
                fault_link(SspServer::new().into_shared(), rate, 0xA600 + idx as u64, 8, &meter);
            cluster.add_node(&format!("node{idx}"), Box::new(link));
        }
        let stats = cluster.stats_handle();

        let mut attempts = 0u64;
        let mut failures = 0u64;
        let mut run = |req: Request| {
            attempts += 1;
            if cluster.call(&req).is_err() {
                failures += 1;
            }
        };
        for i in 0..ops as u64 {
            run(Request::Put { key: key(i), value: blob(i) });
        }
        for i in 0..ops as u64 {
            run(Request::Get { key: key(i) });
        }
        for i in 0..ops as u64 {
            run(Request::Delete { key: key(i) });
        }

        let cost = meter.sample();
        let cluster_stats = stats.sample();
        out.push(ClusterAblationPoint {
            nodes,
            replication,
            rate,
            attempts,
            failures,
            round_trips: cost.round_trips,
            retries: cost.retries,
            faults_injected: cost.faults_injected,
            failovers: cluster_stats.failovers,
            read_repairs: cluster_stats.read_repairs,
            op_secs: virtual_secs(&cost, &opts.net),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::crypto_secs;
    use sharoes_core::CryptoParams;

    fn quick() -> BenchOpts {
        BenchOpts { users: 2, crypto: CryptoParams::test(), ..Default::default() }
    }

    #[test]
    fn a1_scheme1_stores_more() {
        let rows = scheme_comparison(20, 4, &quick());
        let s2 = rows.iter().find(|r| r.scheme == Scheme::SharedCaps).unwrap();
        let s1 = rows.iter().find(|r| r.scheme == Scheme::PerUser).unwrap();
        assert!(s1.ssp_bytes > s2.ssp_bytes);
        // Per-user replication also costs more per create: more records up
        // and more signatures. Scheme-2 pays once per session to unwrap its
        // group keys (three RSA private ops here), so Scheme-1 overtakes
        // it only after ~9 creates.
        assert!(
            s1.create_secs > s2.create_secs,
            "scheme-1 create must cost more: {} vs {}",
            s1.create_secs,
            s2.create_secs
        );
    }

    #[test]
    fn a2_lazy_shifts_cost_to_write() {
        let rows = revocation_costs(&[16_384], &quick());
        let r = &rows[0];
        assert!(
            r.immediate_chmod > r.lazy_chmod,
            "immediate chmod re-encrypts the file: {} vs {}",
            r.immediate_chmod,
            r.lazy_chmod
        );
        // The lazy next-write carries the deferred re-key: a fresh key and
        // a metadata reseal for every view, on top of the content the
        // immediate next-write encrypts too.
        let (lazy_crypto, immediate_crypto) =
            (crypto_secs(&r.lazy_write_work), crypto_secs(&r.immediate_write_work));
        assert!(
            r.lazy_write_work.esign_sign > r.immediate_write_work.esign_sign,
            "the lazy next-write re-seals every view's metadata: {} vs {} signatures",
            r.lazy_write_work.esign_sign,
            r.immediate_write_work.esign_sign
        );
        assert!(
            lazy_crypto > immediate_crypto,
            "the lazy next-write carries the deferred re-key: {lazy_crypto} vs {immediate_crypto}"
        );
        // Its re-key starts a fresh generation, so it fetches no manifest,
        // and the rebuild rides in its one round trip. Immediate
        // revocation encrypts the content twice (at the chmod and at the
        // write), lazy once, so lazy costs less over both steps.
        assert!(
            r.lazy_chmod + r.lazy_write < r.immediate_chmod + r.immediate_write,
            "lazy revocation re-encrypts once: {} + {} vs {} + {}",
            r.lazy_chmod,
            r.lazy_write,
            r.immediate_chmod,
            r.immediate_write
        );
    }

    #[test]
    fn a3_esign_beats_rsa() {
        let rows = signing_comparison(3, &quick());
        let esign = rows.iter().find(|r| r.scheme == SignatureScheme::Esign).unwrap();
        let rsa = rows.iter().find(|r| r.scheme == SignatureScheme::Rsa).unwrap();
        // No pool: every create generates its signing pairs in-phase, one
        // kind per scheme and as many of either.
        assert!(esign.work.esign_keygen > 0);
        assert_eq!(esign.work.rsa_keygen, 0);
        assert_eq!(rsa.work.esign_keygen, 0);
        assert_eq!(rsa.work.rsa_keygen, esign.work.esign_keygen);
        let (esign_crypto, rsa_crypto) = (crypto_secs(&esign.work), crypto_secs(&rsa.work));
        assert!(
            esign_crypto * 10.0 < rsa_crypto,
            "ESIGN crypto {esign_crypto:.2}s must beat RSA {rsa_crypto:.2}s by an order of magnitude"
        );
        assert!(esign.create_secs < rsa.create_secs);
    }

    #[test]
    fn a5_overhead_grows_with_fault_rate_and_workload_completes() {
        let points = fault_overhead(3, &[0.0, 0.2], &quick());
        let clean = &points[0];
        let faulty = &points[1];
        assert_eq!(clean.retries, 0);
        assert_eq!(clean.faults_injected, 0);
        assert!(faulty.faults_injected > 0, "20% rate must inject faults");
        assert!(faulty.retries > 0, "faults must force retries");
        assert!(
            faulty.round_trips > clean.round_trips,
            "retry traffic must show up in round trips: {} vs {}",
            faulty.round_trips,
            clean.round_trips
        );
    }

    #[test]
    fn a6_replication_buys_availability_and_costs_fanout() {
        let points = cluster_ablation(8, &[(3, 1, 0.0), (3, 2, 0.0), (3, 2, 0.25)], &quick());
        let [r1_clean, r2_clean, r2_faulty] = points.as_slice() else {
            panic!("expected 3 points")
        };
        // Fault-free runs complete fully at either replication factor.
        assert_eq!(r1_clean.failures, 0);
        assert_eq!(r2_clean.failures, 0);
        assert_eq!(r1_clean.faults_injected, 0);
        // Extra replicas cost extra write fan-out.
        assert!(
            r2_clean.round_trips > r1_clean.round_trips,
            "R=2 must fan out more than R=1: {} vs {}",
            r2_clean.round_trips,
            r1_clean.round_trips
        );
        // Under faults the retry/failover machinery engages and the
        // workload still completes.
        assert!(r2_faulty.faults_injected > 0, "25% rate must inject faults");
        assert!(
            r2_faulty.retries > 0 || r2_faulty.failovers > 0,
            "faults must force retries or failovers"
        );
        assert_eq!(r2_faulty.failures, 0, "R=2/W=1 must ride out a 25% per-node fault rate");
        assert!((r2_faulty.availability() - 1.0).abs() < f64::EPSILON);
        assert!(
            r2_faulty.round_trips > r2_clean.round_trips,
            "fault recovery traffic must show up in round trips"
        );
    }

    #[test]
    fn a4_gap_widens_relative_on_fast_links() {
        let points = net_sweep(10, &quick());
        assert_eq!(points.len(), 3);
        let dsl = &points[0];
        let lan = &points[2];
        let dsl_ratio = dsl.pubopt / dsl.sharoes;
        let lan_ratio = lan.pubopt / lan.sharoes;
        assert!(
            lan_ratio > dsl_ratio,
            "crypto tax should dominate on fast links: LAN {lan_ratio:.1}x vs DSL {dsl_ratio:.1}x"
        );
    }
}
