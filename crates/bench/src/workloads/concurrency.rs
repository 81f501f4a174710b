//! Contention benchmark for the high-concurrency SSP front end.
//!
//! Drives a real `sspd` over TCP with N client threads × M ops in two
//! client modes, and a 3-node TCP cluster. Every thread owns its
//! connections, each carrying one request at a time:
//!
//! * `blocking`  — one [`TcpTransport`] per thread, one `Put` or `Get` per
//!   round trip.
//! * `batched`   — one [`TcpTransport`] per thread, one `PutMany` batch per
//!   round trip.
//! * `cluster-seq` — each thread owns a [`ClusterTransport`] over 3 TCP
//!   nodes (R=3), fanning out to the replicas one after another.
//!
//! Throughput is wall-clock ops/sec; latencies are p50/p95/p99 per request
//! from the `bench_concurrency_op_ns` sharoes-obs histogram (delta'd per
//! point, so points never contaminate each other). The `paper-figures
//! concurrency` command prints the table, writes `BENCH_concurrency.json`,
//! and fails if multi-threaded throughput does not clear the speedup floor
//! over the single-threaded blocking baseline — the CI contention gate.

use sharoes_cluster::{ClusterOpts, ClusterTransport};
use sharoes_net::{ObjectKey, Request, Response, TcpTransport, Transport};
use sharoes_ssp::{serve_with, ServeOptions, SspServer, TcpServerHandle};
use std::time::Instant;

/// The per-request latency histogram every mode observes into.
pub const OP_HISTOGRAM: &str = "bench_concurrency_op_ns";

/// Workload shape.
#[derive(Clone, Debug)]
pub struct ConcurrencySpec {
    /// Client thread counts to sweep (must include 1 for the baseline).
    pub threads: Vec<usize>,
    /// Requests per thread per point.
    pub ops_per_thread: usize,
    /// Value size per object.
    pub value_len: usize,
    /// Items per `PutMany` in batched mode.
    pub batch: usize,
}

impl Default for ConcurrencySpec {
    fn default() -> Self {
        ConcurrencySpec { threads: vec![1, 4, 8], ops_per_thread: 4_000, value_len: 128, batch: 16 }
    }
}

impl ConcurrencySpec {
    /// A ~4x smaller spec for `--quick` / CI smoke runs.
    pub fn quick() -> Self {
        ConcurrencySpec { threads: vec![1, 4], ops_per_thread: 150, value_len: 64, batch: 8 }
    }
}

/// One measured (mode, threads) point.
#[derive(Clone, Debug)]
pub struct ConcurrencyPoint {
    /// Client mode label (`blocking`, `batched`, `cluster-*`).
    pub mode: &'static str,
    /// Client threads driving the point.
    pub threads: usize,
    /// Total requests issued.
    pub ops: u64,
    /// Wall-clock throughput.
    pub ops_per_sec: f64,
    /// Per-request latency quantiles in nanoseconds (p50, p95, p99).
    pub latency_ns: (u64, u64, u64),
}

fn observe(ns: u64) {
    sharoes_obs::histogram_ns(OP_HISTOGRAM).observe(ns);
}

/// Distinct per-thread key: disjoint inode ranges keep threads from
/// overwriting each other, so every mode stores the same object count.
fn key(mode_tag: u64, thread: usize, i: usize) -> ObjectKey {
    ObjectKey::data(mode_tag * 1_000_000 + thread as u64 * 10_000 + i as u64, [thread as u8; 16], 0)
}

/// Measures one point: `threads` workers each running `per_thread` timed
/// calls produced by `make_worker` (which returns a closure issuing one
/// op batch and the number of requests it covered).
fn measure<W>(
    threads: usize,
    make_worker: impl Fn(usize) -> W + Sync,
) -> (u64, f64, (u64, u64, u64))
where
    W: FnMut() -> Result<u64, String> + Send,
{
    let before = sharoes_obs::global().snapshot();
    let total_ops = std::sync::atomic::AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let mut worker = make_worker(t);
            let total_ops = &total_ops;
            scope.spawn(move || {
                let mut done = 0u64;
                loop {
                    match worker() {
                        Ok(0) => break,
                        Ok(n) => done += n,
                        Err(e) => panic!("bench worker failed: {e}"),
                    }
                }
                total_ops.fetch_add(done, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    let ops = total_ops.into_inner();
    let delta = sharoes_obs::global().snapshot().delta(&before);
    let lat = delta.quantile_summary(OP_HISTOGRAM).unwrap_or((0, 0, 0));
    (ops, ops as f64 / secs, lat)
}

/// Starts a fresh in-memory-backed sspd on an ephemeral port.
fn spawn_sspd() -> (TcpServerHandle, String) {
    let server = SspServer::new().into_shared();
    let handle =
        serve_with(server, "127.0.0.1:0", ServeOptions::default()).expect("bind bench sspd");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// Sweeps the single-sspd client modes. Returns one point per
/// (mode, thread-count).
pub fn run_single(spec: &ConcurrencySpec) -> Vec<ConcurrencyPoint> {
    let (handle, addr) = spawn_sspd();
    let mut points = Vec::new();

    for (mode_tag, &threads) in spec.threads.iter().enumerate() {
        let per_thread = spec.ops_per_thread;
        let value_len = spec.value_len;
        let addr = addr.clone();
        let (ops, rate, lat) = measure(threads, |t| {
            let mut transport = TcpTransport::connect(&addr).expect("connect");
            let mut i = 0usize;
            let tag = mode_tag as u64 * 10 + 1;
            move || {
                if i >= per_thread {
                    return Ok(0);
                }
                let k = key(tag, t, i);
                let req = if i.is_multiple_of(2) {
                    Request::Put { key: k, value: vec![t as u8; value_len] }
                } else {
                    Request::Get { key: key(tag, t, i - 1) }
                };
                let t0 = Instant::now();
                transport.call(&req).map_err(|e| e.to_string())?;
                observe(t0.elapsed().as_nanos() as u64);
                i += 1;
                Ok(1)
            }
        });
        points.push(ConcurrencyPoint {
            mode: "blocking",
            threads,
            ops,
            ops_per_sec: rate,
            latency_ns: lat,
        });
    }

    for (mode_tag, &threads) in spec.threads.iter().enumerate() {
        let per_thread = spec.ops_per_thread;
        let value_len = spec.value_len;
        let batch = spec.batch.max(1);
        let (ops, rate, lat) = measure(threads, |t| {
            let mut client = TcpTransport::connect(&addr).expect("connect batched");
            let mut issued = 0usize;
            let tag = mode_tag as u64 * 10 + 3;
            move || {
                if issued >= per_thread {
                    return Ok(0);
                }
                let n = batch.min(per_thread - issued);
                let items: Vec<(ObjectKey, Vec<u8>)> =
                    (0..n).map(|j| (key(tag, t, issued + j), vec![t as u8; value_len])).collect();
                let t0 = Instant::now();
                let resp = client.call(&Request::PutMany { items }).map_err(|e| e.to_string())?;
                observe(t0.elapsed().as_nanos() as u64 / n as u64);
                if !matches!(resp, Response::Ok) {
                    return Err(format!("unexpected batch response: {resp:?}"));
                }
                issued += n;
                Ok(n as u64)
            }
        });
        points.push(ConcurrencyPoint {
            mode: "batched",
            threads,
            ops,
            ops_per_sec: rate,
            latency_ns: lat,
        });
    }

    handle.shutdown();
    points
}

/// Sweeps a 3-node TCP cluster (R=3); each client thread owns its own
/// [`ClusterTransport`].
pub fn run_cluster(spec: &ConcurrencySpec) -> Vec<ConcurrencyPoint> {
    let nodes: Vec<(TcpServerHandle, String)> = (0..3).map(|_| spawn_sspd()).collect();
    let addrs: Vec<String> = nodes.iter().map(|(_, a)| a.clone()).collect();
    let mut points = Vec::new();

    for (mode_tag, &threads) in spec.threads.iter().enumerate() {
        let per_thread = spec.ops_per_thread;
        let value_len = spec.value_len;
        let addrs = addrs.clone();
        let (ops, rate, lat) = measure(threads, |t| {
            let opts = ClusterOpts { replication: 3, write_quorum: 1, ..ClusterOpts::default() };
            let mut cluster = ClusterTransport::new(opts);
            for (n, addr) in addrs.iter().enumerate() {
                let transport = TcpTransport::connect(addr).expect("connect cluster node");
                cluster.add_node(&format!("n{n}"), Box::new(transport));
            }
            let mut i = 0usize;
            let tag = 500 + mode_tag as u64 * 10;
            move || {
                if i >= per_thread {
                    return Ok(0);
                }
                let k = key(tag, t, i);
                let req = if i.is_multiple_of(2) {
                    Request::Put { key: k, value: vec![t as u8; value_len] }
                } else {
                    Request::Get { key: key(tag, t, i - 1) }
                };
                let t0 = Instant::now();
                cluster.call(&req).map_err(|e| e.to_string())?;
                observe(t0.elapsed().as_nanos() as u64);
                i += 1;
                Ok(1)
            }
        });
        points.push(ConcurrencyPoint {
            mode: "cluster-seq",
            threads,
            ops,
            ops_per_sec: rate,
            latency_ns: lat,
        });
    }

    for (handle, _) in nodes {
        handle.shutdown();
    }
    points
}

/// The headline number the contention gate holds: best multi-threaded
/// throughput over the single-threaded blocking baseline.
pub fn speedup_multi_vs_single(points: &[ConcurrencyPoint]) -> f64 {
    let baseline = points
        .iter()
        .find(|p| p.mode == "blocking" && p.threads == 1)
        .map(|p| p.ops_per_sec)
        .unwrap_or(0.0);
    if baseline <= 0.0 {
        return 0.0;
    }
    points.iter().filter(|p| p.threads > 1).map(|p| p.ops_per_sec / baseline).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_spec_sweeps_and_reports() {
        let spec =
            ConcurrencySpec { threads: vec![1, 2], ops_per_thread: 40, value_len: 32, batch: 8 };
        let points = run_single(&spec);
        // 2 modes × 2 thread counts.
        assert_eq!(points.len(), 4);
        for p in &points {
            assert_eq!(p.ops, (spec.ops_per_thread * p.threads) as u64, "{}", p.mode);
            assert!(p.ops_per_sec > 0.0);
            let (p50, p95, p99) = p.latency_ns;
            assert!(p50 <= p95 && p95 <= p99, "quantiles must be ordered");
        }
        assert!(speedup_multi_vs_single(&points) > 0.0);
    }

    #[test]
    fn cluster_sweep_reports_every_thread_count() {
        let spec =
            ConcurrencySpec { threads: vec![1, 2], ops_per_thread: 30, value_len: 32, batch: 8 };
        let points = run_cluster(&spec);
        assert_eq!(points.len(), 2);
        for (p, threads) in points.iter().zip([1, 2]) {
            assert_eq!((p.mode, p.threads), ("cluster-seq", threads));
            assert_eq!(p.ops, (spec.ops_per_thread * p.threads) as u64);
        }
    }
}
