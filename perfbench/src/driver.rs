//! The closed-loop driver shared by every workload: set-up (repeated, the
//! median reported), the timed phase with its count window, the audit, and
//! the assembly of end-to-end and per-layer metrics.

use crate::calib::{slowdown_of, Reference, Slice};
use crate::floors::Floors;
use crate::layers::{self, FsSample, SpanStats};
use crate::sys;
use sharoes_net::{CostSample, NetModel};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Input size of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// A smoke-test size that finishes in seconds.
    Tiny,
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// How many times set-up runs; `setup_s` is the median.
    pub setup_reps: usize,
    /// Fresh scratch directory for this run (span dumps).
    pub work_dir: PathBuf,
}

impl Config {
    /// `full` at full scale, `tiny` at smoke-test scale.
    pub fn pick<T>(&self, full: T, tiny: T) -> T {
        match self.scale {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

/// Read-kind or mutating op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// getattr+read, readdir, cold read, Get, scan page.
    Read,
    /// write/close, create, unlink, chmod, Put, Delete.
    Write,
}

/// One executed op.
pub struct Step {
    /// Its kind.
    pub kind: Kind,
    /// Its name (the op's root span).
    pub name: &'static str,
    /// Latency of the program calls alone, ns (oracle checks excluded).
    pub ns: u64,
    /// Why the op failed or returned wrong data.
    pub error: Option<String>,
}

impl Step {
    /// This step, failed with `error` if there is one.
    pub fn with_error(self, error: Option<String>) -> Step {
        Step { error, ..self }
    }
}

/// Times `f` as one op named `name`: the latency clock and, in traced
/// runs, the op's root span cover exactly the program calls inside `f`.
pub fn timed<T>(kind: Kind, name: &'static str, f: impl FnOnce() -> T) -> (Step, T) {
    let t = Instant::now();
    let out = layers::op_span(name, f);
    (Step { kind, name, ns: t.elapsed().as_nanos() as u64, error: None }, out)
}

/// Cumulative counters a workload exposes; [`run`] takes deltas.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Wire bytes client → SSP, summed over every client↔SSP link.
    pub bytes_up: u64,
    /// Wire bytes SSP → client.
    pub bytes_down: u64,
    /// Transport round trips.
    pub round_trips: u64,
    /// Client crypto time (`CostMeter`), ns.
    pub crypto_ns: u64,
    /// Client cache hits.
    pub cache_hits: u64,
    /// Client cache misses.
    pub cache_misses: u64,
    /// Client cache evictions.
    pub cache_evictions: u64,
    /// Signing pairs left in the pool.
    pub pool_len: u64,
    /// Storage engine file counters.
    pub fs: FsSample,
    /// Requests into the cluster transport.
    pub cluster_calls: u64,
    /// Calls on the cluster's node links.
    pub node_calls: u64,
    /// `Root`/`IndexNode` node calls (union-index fetches).
    pub union_fetches: u64,
    /// Verified scan pages requested.
    pub scan_pages: u64,
    /// SSP request handling time from the servers' own histograms, ns.
    pub ssp_handle_ns: u64,
    /// SSP requests from the servers' own histograms.
    pub ssp_requests: u64,
    /// User payload bytes written so far.
    pub user_bytes_written: u64,
    /// Live bytes the SSPs store now (absolute).
    pub stored_bytes: u64,
    /// Live user payload bytes now (absolute).
    pub live_user_bytes: u64,
}

/// Facts a workload gives the per-layer floors.
pub struct LayerInfo {
    /// Live keys the SSP index holds.
    pub index_keys: usize,
    /// An RSA-2048 identity key of the deployment, if it has one.
    pub rsa: Option<sharoes_crypto::RsaPrivateKey>,
    /// Proof bytes and keys over the workload's own verified pages.
    pub proof_bytes_keys: Option<(u64, u64)>,
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Builds the deployment and runs the untimed warm-up.
    fn setup(cfg: &Config) -> Result<Self, String>;
    /// Runs the next planned op and checks it against the model.
    fn step(&mut self) -> Step;
    /// True once the planned op sequence is used up.
    fn exhausted(&self) -> bool;
    /// Current counters.
    fn counts(&self) -> Counts;
    /// Ops whose counters make up the count window.
    fn count_window(cfg: &Config) -> u64;
    /// The untimed end-of-run check of everything stored against the model.
    fn audit(&mut self) -> Result<(), String>;
    /// Inputs for the per-layer floors.
    fn layer_info(&self) -> LayerInfo;
    /// Whether the signing-key pool ever ran dry (keygen inside an op).
    fn pool_ran_dry(&self) -> bool {
        false
    }
}

/// A run's result.
pub struct Outcome {
    /// Every op and the audit matched the model.
    pub correct: bool,
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed or returned wrong data.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable notes (stderr and the run record).
    pub notes: Vec<String>,
}

struct Tally {
    read: Vec<u64>,
    write: Vec<u64>,
    by_name: BTreeMap<&'static str, Vec<u64>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            read: Vec::new(),
            write: Vec::new(),
            by_name: Default::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn add(&mut self, s: Step) {
        self.attempted += 1;
        match s.kind {
            Kind::Read => self.read.push(s.ns),
            Kind::Write => self.write.push(s.ns),
        }
        self.by_name.entry(s.name).or_default().push(s.ns);
        if let Some(e) = s.error {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Nearest-rank quantile of an unsorted sample, µs.
fn quantile_us(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 / 1e3
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Wall time between host speed reference slices in the timed phase.
const SLICE_EVERY_S: f64 = 0.05;

/// Runs workload `W` under `cfg`.
pub fn run<W: Workload>(cfg: &Config) -> Result<Outcome, String> {
    sharoes_obs::tracer().set_filter(sharoes_obs::Filter::off());
    layers::set_enabled(false);
    let mut notes = Vec::new();
    let mut reference = Reference::new();

    let mut setup_times = Vec::new();
    let mut world: Option<W> = None;
    for _ in 0..cfg.setup_reps.max(1) {
        drop(world.take());
        let t = Instant::now();
        world = Some(W::setup(cfg)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut w = world.expect("at least one set-up");
    notes.push(format!("setup_s each: {setup_times:?}"));
    let setup_s = median(&mut setup_times);

    let window = W::count_window(cfg);
    let mut tally = Tally::new();
    let c0 = w.counts();
    let mut ck: Option<Counts> = None;
    // Peak RSS over set-up and the count window: the same work on every
    // run, however many ops the timed phase completes.
    let mut rss_k = 0.0;
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    // Untraced: one phase. Traced: phase 1 records spans (the count window
    // lies inside it); phase 2 measures the tracing overheads. Reference
    // slices run between ops; their wall and CPU time is taken out of the
    // phase.
    let phase1 = if cfg.trace { cfg.seconds * 0.6 } else { cfg.seconds };
    let (mut slice_wall, mut slice_cpu, mut next_slice) = (0.0, 0.0, 0.0);
    layers::set_enabled(cfg.trace);
    loop {
        let now = t0.elapsed().as_secs_f64();
        if now >= phase1 + slice_wall || w.exhausted() {
            break;
        }
        if now >= next_slice + slice_wall {
            let t = Instant::now();
            slice_cpu += reference.slice().total() as f64 / 1e9;
            slice_wall += t.elapsed().as_secs_f64();
            next_slice += SLICE_EVERY_S;
            continue;
        }
        tally.add(w.step());
        if tally.attempted == window {
            ck = Some(w.counts());
            rss_k = sys::peak_rss_mib();
        }
    }
    layers::set_enabled(false);
    let phase1_s = t0.elapsed().as_secs_f64() - slice_wall;
    let cpu1 = sys::cpu_seconds() - slice_cpu;
    let c1 = w.counts();
    let ops1 = tally.attempted;
    let spans = layers::take_spans();

    // Phase 2 rotates ops through [plain, bench spans, program spans], one
    // op each, so every mode sees the same op mix and host drift.
    let mut by_mode: [BTreeMap<&'static str, Vec<u64>>; 3] = Default::default();
    if cfg.trace {
        let mut mode = 0;
        while t0.elapsed().as_secs_f64() < cfg.seconds && !w.exhausted() {
            layers::set_enabled(mode == 1);
            if mode == 2 {
                sharoes_obs::tracer().set_filter(sharoes_obs::Filter::parse("debug"));
            }
            let step = w.step();
            layers::set_enabled(false);
            sharoes_obs::tracer().set_filter(sharoes_obs::Filter::off());
            by_mode[mode].entry(step.name).or_default().push(step.ns);
            tally.add(step);
            mode = (mode + 1) % 3;
        }
        layers::take_spans();
    }
    if w.exhausted() {
        notes.push(format!(
            "planned op sequence ran out after {:.2}s; the timed phase ended early",
            t0.elapsed().as_secs_f64()
        ));
    }
    let ck = ck.unwrap_or_else(|| {
        notes.push(format!("count window of {window} ops not reached ({ops1} ops)"));
        rss_k = sys::peak_rss_mib();
        c1.clone()
    });
    let kops = window.min(ops1).max(1) as f64;

    let audit = w.audit();
    if let Err(e) = &audit {
        notes.push(format!("audit failed: {e}"));
    }
    let dry = w.pool_ran_dry();
    if dry {
        notes.push("signing-key pool ran dry: keygen ran inside timed ops".into());
    }
    for e in &tally.errors {
        notes.push(format!("op failed: {e}"));
    }
    if tally.attempted < 200 {
        notes.push(format!("only {} ops; p95 needs at least 200", tally.attempted));
    }
    let correct = tally.failed == 0 && audit.is_ok() && !dry;
    for (name, v) in &mut tally.by_name {
        let n = v.len();
        let (p50, p95) = (quantile_us(v, 0.5), quantile_us(v, 0.95));
        notes.push(format!(
            "{name}: n={n} p50={p50:.0}us p95={p95:.0}us max={:.0}us",
            v[n - 1] as f64 / 1e3
        ));
    }

    // Host speed: every end-to-end time is reported at the reference speed
    // (divided by `slow`), the measured value beside it in a note.
    let slow = slowdown_of(reference.slices());
    let parts = |f: fn(&Slice) -> u64| {
        let mut v: Vec<f64> = reference.slices().iter().map(|s| f(s) as f64 / 1e3).collect();
        median(&mut v)
    };
    notes.push(format!(
        "host slowdown {slow:.4} over {} reference slices (median us: table {:.0}, mul {:.0})",
        reference.slices().len(),
        parts(|s| s.table),
        parts(|s| s.mul),
    ));

    let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let d = |f: fn(&Counts) -> u64| (f(&ck).saturating_sub(f(&c0))) as f64;
    if !cfg.trace {
        let mut all: Vec<u64> = tally.read.iter().chain(&tally.write).copied().collect();
        let (up, down, rts) = (d(|c| c.bytes_up), d(|c| c.bytes_down), d(|c| c.round_trips));
        let sample = CostSample {
            bytes_up: up as u64,
            bytes_down: down as u64,
            round_trips: rts as u64,
            ..Default::default()
        };
        let dsl_ms = NetModel::paper_dsl().network_time(&sample).as_secs_f64() * 1e3;
        let ops_per_s = ops1 as f64 / phase1_s;
        let read_p50 = quantile_us(&mut tally.read, 0.5);
        let write_p50 = quantile_us(&mut tally.write, 0.5);
        let op_p95 = quantile_us(&mut all, 0.95);
        let cpu_ms = (cpu1 - cpu0) * 1e3 / ops1.max(1) as f64;
        notes.push(format!(
            "measured at host speed: ops_per_s {ops_per_s} read_p50_us {read_p50} \
             write_p50_us {write_p50} op_p95_us {op_p95} cpu_ms_per_op {cpu_ms} setup_s {setup_s}"
        ));
        m.push(("ops_per_s", ops_per_s * slow, "1/s"));
        m.push(("read_p50_us", read_p50 / slow, "us"));
        m.push(("write_p50_us", write_p50 / slow, "us"));
        m.push(("op_p95_us", op_p95 / slow, "us"));
        m.push(("wire_bytes_per_op", (up + down) / kops, "B"));
        m.push(("round_trips_per_op", rts / kops, "1"));
        m.push(("dsl_model_ms_per_op", dsl_ms / kops, "ms"));
        m.push((
            "stored_bytes_per_user_byte",
            ratio(ck.stored_bytes as f64, ck.live_user_bytes as f64),
            "1",
        ));
        m.push(("cpu_ms_per_op", cpu_ms / slow, "ms"));
        m.push(("peak_rss_mib", rss_k, "MiB"));
        m.push(("setup_s", setup_s / slow, "s"));
        notes.push(format!(
            "failed_op_frac: {}",
            ratio(tally.failed as f64, tally.attempted as f64)
        ));
    } else {
        let info = w.layer_info();
        let floors = Floors::measure(&info);
        per_layer(&mut m, &spans, &c0, &ck, &c1, ops1, kops, &mut by_mode, &floors, &info);
        m.push(("bench.host_slowdown", slow, "1"));
        if let Some(dir) = cfg.work_dir.parent() {
            let path = dir.join(format!("spans-{}.tsv", std::process::id()));
            if layers::write_tsv(&path, &spans).is_ok() {
                notes.push(format!("spans written to {}", path.display()));
            }
        }
    }
    Ok(Outcome { correct, attempted: tally.attempted, failed: tally.failed, metrics: m, notes })
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Vec<(&'static str, f64, &'static str)>,
    spans: &[layers::Span],
    c0: &Counts,
    ck: &Counts,
    c1: &Counts,
    ops1: u64,
    kops: f64,
    by_mode: &mut [BTreeMap<&'static str, Vec<u64>>; 3],
    floors: &Floors,
    info: &LayerInfo,
) {
    let st = SpanStats::new(spans);
    // Kinds every mode saw, with their total count.
    let mut by_mode_counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (name, v) in &by_mode[0] {
        if by_mode[1].contains_key(name) && by_mode[2].contains_key(name) {
            let n = v.len() + by_mode[1][name].len() + by_mode[2][name].len();
            by_mode_counts.insert(name, n);
        }
    }
    let traced_ops = st.count_prefix("op.").max(1) as f64;
    let ops1 = ops1.max(1) as f64;
    // Count window deltas (exact at a fixed seed) and phase-1 deltas.
    let w = |f: fn(&Counts) -> u64| (f(ck).saturating_sub(f(c0))) as f64;
    let p = |f: fn(&Counts) -> u64| (f(c1).saturating_sub(f(c0))) as f64;
    let fsw = |f: fn(&FsSample) -> u64| (f(&ck.fs).saturating_sub(f(&c0.fs))) as f64;
    let fsp = |f: fn(&FsSample) -> u64| (f(&c1.fs).saturating_sub(f(&c0.fs))) as f64;
    let mean_us = |names: &[&str]| {
        let n: u64 = names.iter().map(|x| st.count(x)).sum();
        let t: u64 = names.iter().map(|x| st.total_ns(x)).sum();
        ratio(t as f64, n as f64) / 1e3
    };

    m.push(("crypto.client_ms_per_op", p(|c| c.crypto_ns) / ops1 / 1e6, "ms"));
    m.push(("crypto.aes_ctr_mib_per_s", floors.aes_ctr_mib_s, "MiB/s"));
    m.push(("crypto.sha256_mib_per_s", floors.sha256_mib_s, "MiB/s"));
    m.push(("crypto.esign_sign_us", floors.esign_sign_us, "us"));
    m.push(("crypto.esign_verify_us", floors.esign_verify_us, "us"));
    m.push(("crypto.esign_keygen_ms", floors.esign_keygen_ms, "ms"));
    m.push(("crypto.rsa2048_private_us", floors.rsa_private_us, "us"));

    for (metric, span) in [
        ("core.getattr_us", "core.getattr"),
        ("core.read_us", "core.read"),
        ("core.write_us", "core.write"),
        ("core.create_us", "core.create"),
        ("core.unlink_us", "core.unlink"),
        ("core.readdir_us", "core.readdir"),
        ("core.chmod_us", "core.chmod"),
    ] {
        m.push((metric, st.p50_us(span), "us"));
    }
    m.push(("core.self_us_per_op", st.self_prefix_ns("core.") as f64 / traced_ops / 1e3, "us"));
    let lookups = w(|c| c.cache_hits) + w(|c| c.cache_misses);
    m.push(("core.cache_hit_frac", ratio(w(|c| c.cache_hits), lookups), "1"));
    m.push(("core.cache_evictions_per_op", w(|c| c.cache_evictions) / kops, "1"));
    let pairs = c0.pool_len.saturating_sub(ck.pool_len) as f64;
    m.push(("core.sigpairs_per_op", pairs / kops, "1"));

    // Links are the client↔SSP transport calls: the client's transport, or
    // each cluster node link.
    let links = ["net.call", "net.node"];
    let n_links: u64 = links.iter().map(|x| st.count(x)).sum();
    let link_ns: u64 = links.iter().map(|x| st.total_ns(x)).sum();
    // SSP handling time: the handler wrapper's spans on in-memory paths;
    // behind TCP the server's own per-op histograms (same phase).
    let (handle_ns, handles) = if st.count("ssp.handle") > 0 {
        (st.total_ns("ssp.handle") as f64, st.count("ssp.handle") as f64)
    } else {
        (p(|c| c.ssp_handle_ns), p(|c| c.ssp_requests))
    };
    m.push(("net.call_us_per_rt", mean_us(&links), "us"));
    let codec = ratio(link_ns as f64 - handle_ns, n_links as f64) / 1e3;
    m.push(("net.codec_us_per_rt", if n_links > 0 { codec.max(0.0) } else { 0.0 }, "us"));
    m.push(("net.bytes_up_per_op", w(|c| c.bytes_up) / kops, "B"));
    m.push(("net.bytes_down_per_op", w(|c| c.bytes_down) / kops, "B"));

    m.push(("ssp.handle_us_per_req", ratio(handle_ns, handles) / 1e3, "us"));
    m.push(("ssp.fsyncs_per_op", fsw(|f| f.fsyncs) / kops, "1"));
    m.push(("ssp.fsync_us_per_op", fsp(|f| f.fsync_ns) / ops1 / 1e3, "us"));
    m.push(("ssp.vfs_write_us_per_op", fsp(|f| f.append_ns) / ops1 / 1e3, "us"));
    let wal_per_user = ratio(fsw(|f| f.wal_bytes), w(|c| c.user_bytes_written));
    m.push(("ssp.wal_bytes_per_user_byte", wal_per_user, "1"));
    m.push(("ssp.compactions_per_kop", fsp(|f| f.checkpoints) * 1e3 / ops1, "count"));
    m.push(("ssp.compaction_bytes_per_op", fsp(|f| f.checkpoint_bytes) / ops1, "B"));
    m.push(("ssp.wal_rolls_per_kop", fsp(|f| f.wal_opens) * 1e3 / ops1, "count"));

    m.push(("index.insert_us", floors.index_insert_us, "us"));
    m.push(("index.remove_us", floors.index_remove_us, "us"));
    m.push(("index.prove_page_us", floors.index_prove_us, "us"));
    let verify = if st.count("index.verify") > 0 {
        mean_us(&["index.verify"])
    } else {
        floors.index_verify_us
    };
    m.push(("index.verify_page_us", verify, "us"));
    let proof_per_key = match info.proof_bytes_keys {
        Some((bytes, keys)) => ratio(bytes as f64, keys as f64),
        None => floors.index_proof_bytes_per_key,
    };
    m.push(("index.proof_bytes_per_key", proof_per_key, "B"));

    m.push(("cluster.node_calls_per_req", ratio(w(|c| c.node_calls), w(|c| c.cluster_calls)), "1"));
    m.push(("cluster.node_call_us", mean_us(&["net.node"]), "us"));
    m.push((
        "cluster.self_us_per_req",
        ratio(st.self_prefix_ns("cluster.call") as f64, st.count("cluster.call") as f64) / 1e3,
        "us",
    ));
    m.push((
        "cluster.union_fetches_per_page",
        ratio(w(|c| c.union_fetches), w(|c| c.scan_pages)),
        "1",
    ));

    // Overhead = 1 - plain time / traced time, each the sum over op kinds
    // of (ops of that kind) x (median latency of that kind in the mode), so
    // neither the op mix a mode happened to draw nor a compaction pause
    // landing in one mode decides the result.
    let weighted = |mode: &mut BTreeMap<&'static str, Vec<u64>>| -> f64 {
        mode.iter_mut()
            .map(|(name, v)| {
                let n: usize = by_mode_counts.get(name).copied().unwrap_or(0);
                n as f64 * quantile_us(v, 0.5)
            })
            .sum()
    };
    let [plain, bench, program] = by_mode;
    let plain = weighted(plain);
    let overhead = |traced: f64| if traced > 0.0 { 1.0 - plain / traced } else { 0.0 };
    m.push(("obs.span_overhead_frac", overhead(weighted(program)), "1"));
    m.push(("bench.trace_overhead_frac", overhead(weighted(bench)), "1"));
    let op_ns = st.total_prefix_ns("op.") as f64;
    m.push(("bench.layer_coverage_frac", 1.0 - ratio(st.self_prefix_ns("op.") as f64, op_ns), "1"));
}

/// SSP request handling time (ns) and request count from the servers' own
/// per-op histograms in the process-wide registry.
pub fn ssp_registry() -> (u64, u64) {
    let snap = sharoes_obs::global().snapshot();
    let mut out = (0, 0);
    for (k, v) in &snap.values {
        if let Some(rest) = k.strip_prefix("ssp_op_") {
            if rest.ends_with("_ns_sum") {
                out.0 += v;
            } else if rest.ends_with("_ns_count") {
                out.1 += v;
            }
        }
    }
    out
}
