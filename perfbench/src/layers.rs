//! Per-layer tracing from outside the program.
//!
//! Spans are recorded around calls into each crate's public functions and
//! trait objects: the benchmark's own op (`op.*`), `SharoesClient` calls
//! (`core.*`), the client's `Transport` (`net.call`), the `ClusterTransport`
//! (`cluster.call`) and its per-node links (`net.node`), each `SspServer`'s
//! `RequestHandler` (`ssp.handle`), index proof checks (`index.verify`), and
//! the engine's `Vfs` (`vfs.append`, `vfs.sync`). A span's parent is the
//! innermost open span on its thread; work on SSP server threads hangs
//! under the transport call the single client is blocked in.
//!
//! Recording is gated by one flag; with it off every wrapper is a plain
//! pass-through. Counters in the wrappers always count (they feed the
//! count metrics of the traced run's count window).

use sharoes_net::{CostMeter, NetError, Request, RequestHandler, Response, Transport};
use sharoes_ssp::{VFile, Vfs};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (never 0).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// The benchmark op this span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `core.read`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static OP: AtomicU64 = AtomicU64::new(0);
/// The innermost transport call in flight: parent of spans opened on
/// threads with no span of their own (SSP server workers).
static RPC_PARENT: AtomicU64 = AtomicU64::new(0);

fn spans() -> &'static Mutex<Vec<Span>> {
    static SPANS: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Relaxed);
}

/// Takes every recorded span, leaving the recorder empty.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *spans().lock().unwrap_or_else(|e| e.into_inner()))
}

fn record<T>(name: &'static str, rpc: bool, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Relaxed);
    let parent =
        STACK.with(|s| s.borrow().last().copied()).unwrap_or_else(|| RPC_PARENT.load(Relaxed));
    STACK.with(|s| s.borrow_mut().push(id));
    let outer_rpc = rpc.then(|| RPC_PARENT.swap(id, Relaxed));
    let start = now_ns();
    let out = f();
    let end = now_ns();
    if let Some(prev) = outer_rpc {
        RPC_PARENT.store(prev, Relaxed);
    }
    STACK.with(|s| s.borrow_mut().pop());
    let op = OP.load(Relaxed);
    spans().lock().unwrap_or_else(|e| e.into_inner()).push(Span {
        id,
        parent,
        op,
        name,
        start,
        end,
    });
    out
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    record(name, false, f)
}

/// Runs one benchmark op inside a root span, under a fresh op id.
pub fn op_span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if ENABLED.load(Relaxed) {
        OP.fetch_add(1, Relaxed);
    }
    record(name, false, f)
}

/// Counts of one wrapped link.
#[derive(Debug, Default)]
pub struct LinkCounts {
    /// Transport calls.
    pub calls: AtomicU64,
    /// `Root` / `IndexNode` calls (the cluster's union-index fetches).
    pub index_calls: AtomicU64,
}

/// A `Transport` wrapper: one span per call.
pub struct TracedTransport {
    inner: Box<dyn Transport>,
    name: &'static str,
    counts: Arc<LinkCounts>,
}

impl TracedTransport {
    /// Wraps `inner`; spans are named `name`.
    pub fn new(inner: Box<dyn Transport>, name: &'static str, counts: Arc<LinkCounts>) -> Self {
        TracedTransport { inner, name, counts }
    }
}

impl Transport for TracedTransport {
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        self.counts.calls.fetch_add(1, Relaxed);
        if matches!(request, Request::Root | Request::IndexNode { .. }) {
            self.counts.index_calls.fetch_add(1, Relaxed);
        }
        let inner = &mut self.inner;
        record(self.name, true, || inner.call(request))
    }

    fn meter(&self) -> &Arc<CostMeter> {
        self.inner.meter()
    }
}

/// A `RequestHandler` wrapper: one `ssp.handle` span per request.
pub struct TracedHandler(pub Arc<dyn RequestHandler>);

impl RequestHandler for TracedHandler {
    fn handle(&self, request: Request) -> Response {
        span("ssp.handle", || self.0.handle(request))
    }
}

/// What the storage engine did to its files.
#[derive(Debug, Default)]
pub struct FsCounts {
    /// Bytes appended to `wal-*.log` files.
    pub wal_bytes: AtomicU64,
    /// Bytes appended to checkpoint files (compaction output).
    pub checkpoint_bytes: AtomicU64,
    /// Time spent in appends, ns.
    pub append_ns: AtomicU64,
    /// File and directory fsyncs.
    pub fsyncs: AtomicU64,
    /// Time spent in fsyncs, ns.
    pub fsync_ns: AtomicU64,
    /// Checkpoints published by rename (one per compaction).
    pub checkpoints: AtomicU64,
    /// New `wal-*.log` files opened.
    pub wal_opens: AtomicU64,
}

/// A copy of [`FsCounts`] at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct FsSample {
    /// See [`FsCounts::wal_bytes`].
    pub wal_bytes: u64,
    /// See [`FsCounts::checkpoint_bytes`].
    pub checkpoint_bytes: u64,
    /// See [`FsCounts::append_ns`].
    pub append_ns: u64,
    /// See [`FsCounts::fsyncs`].
    pub fsyncs: u64,
    /// See [`FsCounts::fsync_ns`].
    pub fsync_ns: u64,
    /// See [`FsCounts::checkpoints`].
    pub checkpoints: u64,
    /// See [`FsCounts::wal_opens`].
    pub wal_opens: u64,
}

impl FsCounts {
    /// Current values.
    pub fn sample(&self) -> FsSample {
        FsSample {
            wal_bytes: self.wal_bytes.load(Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Relaxed),
            append_ns: self.append_ns.load(Relaxed),
            fsyncs: self.fsyncs.load(Relaxed),
            fsync_ns: self.fsync_ns.load(Relaxed),
            checkpoints: self.checkpoints.load(Relaxed),
            wal_opens: self.wal_opens.load(Relaxed),
        }
    }
}

#[derive(Clone, Copy)]
enum FileKind {
    Wal,
    Checkpoint,
    Other,
}

fn kind_of(path: &Path) -> FileKind {
    let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
    if name.starts_with("wal-") {
        FileKind::Wal
    } else if name.starts_with("checkpoint-") {
        FileKind::Checkpoint
    } else {
        FileKind::Other
    }
}

/// A `Vfs` wrapper over the engine's real filesystem.
pub struct TracedFs {
    inner: Arc<dyn Vfs>,
    counts: Arc<FsCounts>,
}

impl TracedFs {
    /// Wraps `inner`, counting into `counts`.
    pub fn new(inner: Arc<dyn Vfs>, counts: Arc<FsCounts>) -> Self {
        TracedFs { inner, counts }
    }
}

struct TracedFile {
    inner: Box<dyn VFile>,
    kind: FileKind,
    counts: Arc<FsCounts>,
}

impl VFile for TracedFile {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn append(&mut self, data: &[u8]) -> std::io::Result<()> {
        let t = Instant::now();
        let r = span("vfs.append", || self.inner.append(data));
        self.counts.append_ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        match self.kind {
            FileKind::Wal => self.counts.wal_bytes.fetch_add(data.len() as u64, Relaxed),
            FileKind::Checkpoint => {
                self.counts.checkpoint_bytes.fetch_add(data.len() as u64, Relaxed)
            }
            FileKind::Other => 0,
        };
        r
    }

    fn read_at(&mut self, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        self.inner.read_at(offset, len)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let t = Instant::now();
        let r = span("vfs.sync", || self.inner.sync());
        self.counts.fsync_ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.counts.fsyncs.fetch_add(1, Relaxed);
        r
    }

    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.inner.truncate(len)
    }
}

impl Vfs for TracedFs {
    fn open(&self, path: &Path, create: bool) -> std::io::Result<Box<dyn VFile>> {
        let kind = kind_of(path);
        if create && matches!(kind, FileKind::Wal) && !self.inner.exists(path) {
            self.counts.wal_opens.fetch_add(1, Relaxed);
        }
        let inner = self.inner.open(path, create)?;
        Ok(Box::new(TracedFile { inner, kind, counts: Arc::clone(&self.counts) }))
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        if matches!(kind_of(to), FileKind::Checkpoint) {
            self.counts.checkpoints.fetch_add(1, Relaxed);
        }
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        let t = Instant::now();
        let r = span("vfs.sync", || self.inner.sync_dir(dir));
        self.counts.fsync_ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.counts.fsyncs.fetch_add(1, Relaxed);
        r
    }

    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// Aggregates over a set of spans.
pub struct SpanStats {
    by_name: HashMap<&'static str, Vec<u64>>,
    self_by_name: HashMap<&'static str, u64>,
}

impl SpanStats {
    /// Indexes `spans`: durations per name, and self time per name
    /// (duration minus the time covered by child spans).
    pub fn new(spans: &[Span]) -> SpanStats {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.dur();
        }
        let mut by_name: HashMap<&'static str, Vec<u64>> = HashMap::new();
        let mut self_by_name: HashMap<&'static str, u64> = HashMap::new();
        for s in spans {
            by_name.entry(s.name).or_default().push(s.dur());
            let kids = child_ns.get(&s.id).copied().unwrap_or(0);
            *self_by_name.entry(s.name).or_default() += s.dur().saturating_sub(kids);
        }
        for v in by_name.values_mut() {
            v.sort_unstable();
        }
        SpanStats { by_name, self_by_name }
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |v| v.len() as u64)
    }

    /// Number of spans whose name starts with `prefix`.
    pub fn count_prefix(&self, prefix: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v.len() as u64)
            .sum()
    }

    /// Median duration of `name` spans in µs (0 when none).
    pub fn p50_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| v[v.len() / 2] as f64 / 1e3)
    }

    /// Total duration of `name` spans in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |v| v.iter().sum())
    }

    /// Total duration of spans whose name starts with `prefix`, ns.
    pub fn total_prefix_ns(&self, prefix: &str) -> u64 {
        self.by_name.iter().filter(|(n, _)| n.starts_with(prefix)).flat_map(|(_, v)| v).sum()
    }

    /// Total self time of spans whose name starts with `prefix`, ns.
    pub fn self_prefix_ns(&self, prefix: &str) -> u64 {
        self.self_by_name.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, v)| v).sum()
    }
}

/// Writes spans as TSV (`id parent op name start_ns end_ns`).
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\top\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(w, "{}\t{}\t{}\t{}\t{}\t{}", s.id, s.parent, s.op, s.name, s.start, s.end)?;
    }
    w.flush()
}
