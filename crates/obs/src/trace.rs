//! Span tracing: a `span!`-macro facade over a bounded ring-buffer event
//! log, with `SHAROES_LOG`-style level/target filtering. Events carry wall
//! clock; [`crate::tree::render`] drops it when asked, which is what makes
//! a seeded run's rendering byte-stable across runs.
//!
//! A span's *target* is the prefix of its name before the first `.`
//! (`span!("ssp.get", ..)` has target `ssp`), which is what filter specs
//! select on: `SHAROES_LOG=net=trace,ssp=debug,off`.
//!
//! Since PR 7 every event also carries a [`TraceContext`] — a 128-bit
//! trace id plus span/parent ids — maintained on a thread-local frame
//! stack. Client ops mint root contexts from a seeded DRBG; child span
//! ids are *derived* (FNV-1a over trace id, parent id, span name, and
//! sibling index), so the whole id tree is a pure function of the seed
//! and the workload. Each frame additionally accumulates per-[`Phase`]
//! cost (crypto / net / storage / lock-wait), rolled up into the parent
//! frame on exit, so a root span's exit event attributes where its time
//! went across every layer it crossed — including remote ones, when the
//! remote events are scraped and assembled with [`crate::tree`].

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::tree::OwnedEvent;

/// Verbosity levels, most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable trouble.
    Error,
    /// Survivable trouble (retries, sheds, failovers).
    Warn,
    /// Milestones (mounts, snapshots, rebalances).
    Info,
    /// Per-operation spans.
    Debug,
    /// Everything.
    Trace,
}

impl Level {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }

    /// Stable numeric encoding for the wire (`Error` = 0 .. `Trace` = 4).
    pub fn as_u8(self) -> u8 {
        match self {
            Level::Error => 0,
            Level::Warn => 1,
            Level::Info => 2,
            Level::Debug => 3,
            Level::Trace => 4,
        }
    }

    /// Inverse of [`Level::as_u8`]; `None` for unknown encodings.
    pub fn from_u8(v: u8) -> Option<Level> {
        Some(match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            3 => Level::Debug,
            4 => Level::Trace,
            _ => return None,
        })
    }

    /// Parses one level token; `Ok(None)` means "off".
    fn parse(s: &str) -> Result<Option<Level>, ()> {
        Ok(Some(match s.trim().to_ascii_lowercase().as_str() {
            "error" => Level::Error,
            "warn" => Level::Warn,
            "info" => Level::Info,
            "debug" => Level::Debug,
            "trace" => Level::Trace,
            "off" | "none" => return Ok(None),
            _ => return Err(()),
        }))
    }
}

/// A parsed `SHAROES_LOG` spec: a default level plus per-target overrides.
///
/// Grammar (comma-separated, later entries win):
/// `LEVEL` sets the default; `TARGET=LEVEL` overrides one target;
/// unparseable tokens are ignored (env filters must never crash a run).
#[derive(Clone, Debug, Default)]
pub struct Filter {
    default_level: Option<Level>,
    targets: Vec<(String, Option<Level>)>,
}

impl Filter {
    /// Everything disabled.
    pub fn off() -> Filter {
        Filter::default()
    }

    /// Parses a spec like `"info"`, `"net=trace,ssp=debug"`, or
    /// `"debug,cluster=off"`.
    pub fn parse(spec: &str) -> Filter {
        let mut filter = Filter::default();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            match token.split_once('=') {
                Some((target, level)) => {
                    if let Ok(level) = Level::parse(level) {
                        let target = target.trim().to_string();
                        filter.targets.retain(|(t, _)| *t != target);
                        filter.targets.push((target, level));
                    }
                }
                None => {
                    if let Ok(level) = Level::parse(token) {
                        filter.default_level = level;
                    }
                }
            }
        }
        filter
    }

    /// True when some target records events at some level.
    pub fn enables_anything(&self) -> bool {
        self.default_level.is_some() || self.targets.iter().any(|(_, level)| level.is_some())
    }

    /// True when events at `level` for `target` should be recorded.
    pub fn enabled(&self, target: &str, level: Level) -> bool {
        let effective = self
            .targets
            .iter()
            .find(|(t, _)| *t == target)
            .map(|(_, l)| *l)
            .unwrap_or(self.default_level);
        match effective {
            Some(max) => level <= max,
            None => false,
        }
    }
}

/// What a recorded event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened.
    Enter,
    /// Span closed; carries the span's duration.
    Exit,
    /// A point event.
    Instant,
}

impl EventKind {
    /// Stable numeric encoding for the wire (`Enter` = 0, `Exit` = 1,
    /// `Instant` = 2).
    pub fn as_u8(self) -> u8 {
        match self {
            EventKind::Enter => 0,
            EventKind::Exit => 1,
            EventKind::Instant => 2,
        }
    }

    /// Inverse of [`EventKind::as_u8`]; `None` for unknown encodings.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::Enter,
            1 => EventKind::Exit,
            2 => EventKind::Instant,
            _ => return None,
        })
    }
}

/// The causal identity of one span: which end-to-end request it belongs
/// to (`trace_id`), its own id, and its parent's.
///
/// A zero `trace_id` means "untraced" — spans still record and nest, but
/// tree assembly skips them and transports attach no wire header.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit id shared by every span of one end-to-end request.
    pub trace_id: u128,
    /// This span's id (64-bit, derived or DRBG-minted).
    pub span_id: u64,
    /// The id of the span this one nests under (0 for a root).
    pub parent_id: u64,
}

impl TraceContext {
    /// True when this context carries a real trace (nonzero trace id).
    pub fn is_traced(&self) -> bool {
        self.trace_id != 0
    }
}

/// Cost phases attributed to spans: which layer an op's time went to.
///
/// Phases are *independent accumulators*, not a partition — along an
/// in-process call path the same nanosecond can be counted under both
/// `Net` (the client's view of a round trip) and `Storage` (the server's
/// view of handling it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// AES/SHA/HMAC/modexp work in `crates/crypto` (client side).
    Crypto,
    /// Transport round trips (client's view, includes serialization).
    Net,
    /// SSP request handling (engine/store work, server's view).
    Storage,
    /// Waiting to acquire the engine or store locks.
    Lock,
}

const PHASE_COUNT: usize = 4;

impl Phase {
    fn idx(self) -> usize {
        match self {
            Phase::Crypto => 0,
            Phase::Net => 1,
            Phase::Storage => 2,
            Phase::Lock => 3,
        }
    }

    /// The `snake_case` field prefix this phase renders under
    /// (`crypto_ops=`/`crypto_ns=` etc).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Crypto => "crypto",
            Phase::Net => "net",
            Phase::Storage => "storage",
            Phase::Lock => "lock",
        }
    }
}

/// One frame of the thread-local span stack.
struct Frame {
    ctx: TraceContext,
    /// Number of children derived so far (the sibling index feed).
    children: u32,
    phase_ns: [u64; PHASE_COUNT],
    phase_ops: [u64; PHASE_COUNT],
}

impl Frame {
    fn new(ctx: TraceContext) -> Frame {
        Frame { ctx, children: 0, phase_ns: [0; PHASE_COUNT], phase_ops: [0; PHASE_COUNT] }
    }
}

thread_local! {
    static DEPTH: Cell<u16> = const { Cell::new(0) };
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// FNV-1a 64-bit over `data` — the child-span-id derivation hash.
/// Deterministic and dependency-free; not cryptographic, which is fine:
/// span ids need uniqueness-in-practice and seed-stability, not secrecy.
pub fn fnv1a_64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn child_span_id(trace_id: u128, parent_span: u64, name: &str, idx: u32) -> u64 {
    let mut buf = Vec::with_capacity(16 + 8 + name.len() + 4);
    buf.extend_from_slice(&trace_id.to_be_bytes());
    buf.extend_from_slice(&parent_span.to_be_bytes());
    buf.extend_from_slice(name.as_bytes());
    buf.extend_from_slice(&idx.to_be_bytes());
    let id = fnv1a_64(&buf);
    // A zero span id would read as "no span"; nudge it off zero.
    if id == 0 {
        1
    } else {
        id
    }
}

/// The current thread's innermost *traced* context, if any.
pub fn current() -> Option<TraceContext> {
    STACK.with(|s| s.borrow().last().map(|f| f.ctx).filter(|c| c.is_traced()))
}

/// True when the current thread is inside any span frame (traced or not).
/// Hot paths use this to skip cost-attribution timing entirely when no
/// one is listening.
pub fn in_span() -> bool {
    STACK.with(|s| !s.borrow().is_empty())
}

/// Derives a child [`TraceContext`] under the current traced span — the
/// id a *remote* span named `name` will adopt — and advances the sibling
/// counter. Returns `None` outside a traced span, in which case
/// transports send the envelope without a trace context.
pub fn mint_child(name: &str) -> Option<TraceContext> {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let f = s.last_mut()?;
        if !f.ctx.is_traced() {
            return None;
        }
        let idx = f.children;
        f.children += 1;
        Some(TraceContext {
            trace_id: f.ctx.trace_id,
            span_id: child_span_id(f.ctx.trace_id, f.ctx.span_id, name, idx),
            parent_id: f.ctx.span_id,
        })
    })
}

/// The context a newly entered span should use: a derived child of the
/// innermost traced frame, or the zero (untraced) context.
fn derive_span_ctx(name: &str) -> TraceContext {
    mint_child(name).unwrap_or_default()
}

/// Adds `ns` nanoseconds (and one operation) of `phase` cost to the
/// innermost span frame. No-op outside any span, so instrumented hot
/// paths cost one thread-local check when tracing is off.
pub fn phase_add(phase: Phase, ns: u64) {
    STACK.with(|s| {
        if let Some(f) = s.borrow_mut().last_mut() {
            let i = phase.idx();
            f.phase_ns[i] = f.phase_ns[i].saturating_add(ns);
            f.phase_ops[i] += 1;
        }
    });
}

/// One recorded trace event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Monotonic sequence number (never reused, survives ring eviction).
    pub seq: u64,
    /// Nanoseconds since the log's epoch.
    pub time_ns: u64,
    /// Span nesting depth at the time of the event (thread-local).
    pub depth: u16,
    /// Severity.
    pub level: Level,
    /// Span/event name, e.g. `ssp.get`.
    pub name: &'static str,
    /// Rendered `key=value` fields.
    pub fields: String,
    /// Enter/exit/instant.
    pub kind: EventKind,
    /// 128-bit trace id (0 = untraced).
    pub trace_id: u128,
    /// Id of the span this event belongs to (for `Enter`/`Exit`, the span
    /// itself; for `Instant`, the enclosing span).
    pub span_id: u64,
    /// Id of that span's parent (0 for roots).
    pub parent_id: u64,
}

struct LogInner {
    filter: Filter,
    events: VecDeque<TraceEvent>,
    seq: u64,
    dropped: u64,
    cap: usize,
}

/// A bounded ring buffer of [`TraceEvent`]s behind a filter.
pub struct EventLog {
    epoch: Instant,
    /// Whether the filter enables anything, readable without the lock, so
    /// spans and events that are switched off take no lock at all. It
    /// publishes no other data (the filter itself is read under the lock),
    /// so `Relaxed` suffices.
    any_enabled: AtomicBool,
    inner: Mutex<LogInner>,
}

impl EventLog {
    /// A log keeping at most `cap` events, filter taken from `filter`.
    pub fn new(cap: usize, filter: Filter) -> EventLog {
        EventLog {
            epoch: Instant::now(),
            any_enabled: AtomicBool::new(filter.enables_anything()),
            inner: Mutex::new(LogInner {
                filter,
                events: VecDeque::new(),
                seq: 0,
                dropped: 0,
                cap: cap.max(1),
            }),
        }
    }

    /// Replaces the filter (tests and the CLI's `trace` toggles use this).
    pub fn set_filter(&self, filter: Filter) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.any_enabled.store(filter.enables_anything(), Ordering::Relaxed);
        inner.filter = filter;
    }

    /// Resizes the ring, evicting oldest events (counted as dropped) if
    /// the new capacity is smaller than the current population.
    pub fn set_capacity(&self, cap: usize) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.cap = cap.max(1);
        while inner.events.len() > inner.cap {
            inner.events.pop_front();
            inner.dropped += 1;
        }
    }

    /// True when events at `level` for `target` would be recorded. Takes
    /// no lock while the filter enables nothing.
    pub fn enabled(&self, target: &str, level: Level) -> bool {
        if !self.any_enabled.load(Ordering::Relaxed) {
            return false;
        }
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).filter.enabled(target, level)
    }

    fn record(
        &self,
        level: Level,
        name: &'static str,
        fields: String,
        kind: EventKind,
        ctx: TraceContext,
    ) {
        let depth = DEPTH.with(|d| d.get());
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let seq = inner.seq;
        inner.seq += 1;
        if inner.events.len() == inner.cap {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(TraceEvent {
            seq,
            time_ns: now_ns,
            depth,
            level,
            name,
            fields,
            kind,
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
        });
    }

    /// Records a point event if the filter enables it (the `obs_event!`
    /// macro pre-checks `enabled` only to skip field formatting). The
    /// event inherits the thread's innermost span context.
    pub fn event(&self, level: Level, name: &'static str, fields: String) {
        let target = name.split('.').next().unwrap_or(name);
        if !self.enabled(target, level) {
            return;
        }
        let ctx = STACK.with(|s| s.borrow().last().map(|f| f.ctx).unwrap_or_default());
        self.record(level, name, fields, EventKind::Instant, ctx);
    }

    /// Drains and returns all buffered events.
    pub fn take(&self) -> Vec<TraceEvent> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.events.drain(..).collect()
    }

    /// Clones and returns all buffered events *without* draining — the
    /// scrape-safe read: a remote `Trace` request must not race local
    /// consumers out of their events.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.events.iter().cloned().collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }
}

/// A captured slow operation: the root span's duration plus every event
/// of its trace that was still in the ring when the root exited.
#[derive(Clone, Debug)]
pub struct SlowCapture {
    /// Wall-clock duration of the root span, in nanoseconds.
    pub duration_ns: u64,
    /// The trace this capture belongs to.
    pub trace_id: u128,
    /// Root span name (the client op).
    pub root: &'static str,
    /// The trace's events, ready for [`crate::tree::assemble`].
    pub events: Vec<OwnedEvent>,
}

const SLOW_K: usize = 8;

static SLOW: Mutex<Vec<SlowCapture>> = Mutex::new(Vec::new());

fn maybe_capture_slow(log: &EventLog, trace_id: u128, root: &'static str, duration_ns: u64) {
    let mut slow = SLOW.lock().unwrap_or_else(|e| e.into_inner());
    if slow.len() >= SLOW_K
        && !slow.iter().any(|c| c.trace_id == trace_id)
        && slow.iter().all(|c| c.duration_ns >= duration_ns)
    {
        return;
    }
    let events: Vec<OwnedEvent> = {
        let inner = log.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.events.iter().filter(|e| e.trace_id == trace_id).map(OwnedEvent::from).collect()
    };
    // Re-runs of the same seeded trace replace their previous capture
    // rather than crowding out other ops.
    slow.retain(|c| c.trace_id != trace_id);
    slow.push(SlowCapture { duration_ns, trace_id, root, events });
    slow.sort_by(|a, b| b.duration_ns.cmp(&a.duration_ns).then(a.trace_id.cmp(&b.trace_id)));
    slow.truncate(SLOW_K);
}

/// The top-K slowest root ops captured so far (longest first).
pub fn slow_ops() -> Vec<SlowCapture> {
    SLOW.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Empties the slow-op ring (tests and the CLI's `slow clear`).
pub fn clear_slow_ops() {
    SLOW.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// RAII guard for one span: records `Enter` on creation and `Exit` (with
/// duration and per-phase attribution) on drop. Use via the
/// [`span!`](crate::span) macro, or [`SpanGuard::enter_with`] to adopt a
/// wire-carried context.
pub struct SpanGuard {
    active: Option<SpanActive>,
}

struct SpanActive {
    name: &'static str,
    start: Instant,
    ctx: TraceContext,
}

impl SpanGuard {
    /// Opens a span named `name` (target = prefix before the first `.`)
    /// against the global log. `fields` is only evaluated when the filter
    /// enables the span, keeping disabled spans nearly free. The span's
    /// context is derived from the innermost traced frame, if any.
    pub fn enter(name: &'static str, fields: impl FnOnce() -> String) -> SpanGuard {
        let log = crate::tracer();
        let target = name.split('.').next().unwrap_or(name);
        if !log.enabled(target, Level::Debug) {
            return SpanGuard { active: None };
        }
        let ctx = derive_span_ctx(name);
        SpanGuard::enter_impl(log, name, ctx, fields())
    }

    /// Opens a span that *adopts* `ctx` verbatim instead of deriving a
    /// child — the server side of trace propagation: the wire header's
    /// ids become this span's ids, so remote children nest under the
    /// caller's tree.
    pub fn enter_with(
        name: &'static str,
        ctx: TraceContext,
        fields: impl FnOnce() -> String,
    ) -> SpanGuard {
        let log = crate::tracer();
        let target = name.split('.').next().unwrap_or(name);
        if !log.enabled(target, Level::Debug) {
            return SpanGuard { active: None };
        }
        SpanGuard::enter_impl(log, name, ctx, fields())
    }

    fn enter_impl(
        log: &EventLog,
        name: &'static str,
        ctx: TraceContext,
        fields: String,
    ) -> SpanGuard {
        log.record(Level::Debug, name, fields, EventKind::Enter, ctx);
        STACK.with(|s| s.borrow_mut().push(Frame::new(ctx)));
        DEPTH.with(|d| d.set(d.get().saturating_add(1)));
        SpanGuard { active: Some(SpanActive { name, start: Instant::now(), ctx }) }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let frame = STACK.with(|s| s.borrow_mut().pop());
        let log = crate::tracer();
        let elapsed = active.start.elapsed().as_nanos() as u64;
        let mut fields = String::new();
        let mut stack_empty = true;
        if let Some(frame) = frame {
            // Phase attribution: op counts are workload-pure; nanoseconds
            // are wall clock, which `tree::render` drops on request (same
            // rule as the metrics export).
            for phase in [Phase::Crypto, Phase::Net, Phase::Storage, Phase::Lock] {
                let i = phase.idx();
                if frame.phase_ops[i] == 0 {
                    continue;
                }
                if !fields.is_empty() {
                    fields.push(' ');
                }
                let _ = write!(
                    fields,
                    "{label}_ops={} {label}_ns={}",
                    frame.phase_ops[i],
                    frame.phase_ns[i],
                    label = phase.label()
                );
            }
            // Roll this frame's phase costs up into the parent, so a root
            // span's exit carries the whole request's attribution.
            stack_empty = STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(parent) = s.last_mut() {
                    for i in 0..PHASE_COUNT {
                        parent.phase_ns[i] = parent.phase_ns[i].saturating_add(frame.phase_ns[i]);
                        parent.phase_ops[i] += frame.phase_ops[i];
                    }
                    false
                } else {
                    true
                }
            });
        }
        if !fields.is_empty() {
            fields.push(' ');
        }
        let _ = write!(fields, "elapsed_ns={elapsed}");
        log.record(Level::Debug, active.name, fields, EventKind::Exit, active.ctx);
        if stack_empty && active.ctx.is_traced() {
            maybe_capture_slow(log, active.ctx.trace_id, active.name, elapsed);
        }
    }
}

/// Opens a span against the global event log; returns a guard that closes
/// it on drop. Extra arguments are captured as `name=value` fields
/// (rendered with `Debug`), evaluated only if the span is enabled.
///
/// ```
/// let key = 42;
/// let _span = sharoes_obs::span!("ssp.get", key);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::enter($name, String::new)
    };
    ($name:expr, $($field:expr),+ $(,)?) => {
        $crate::trace::SpanGuard::enter($name, || {
            let mut s = String::new();
            $(
                if !s.is_empty() {
                    s.push(' ');
                }
                s.push_str(stringify!($field));
                s.push('=');
                s.push_str(&format!("{:?}", &$field));
            )+
            s
        })
    };
}

/// Records a point event at an explicit [`Level`](crate::Level) if the
/// filter enables it.
#[macro_export]
macro_rules! obs_event {
    ($level:expr, $name:expr) => {{
        let name: &'static str = $name;
        let target = name.split('.').next().unwrap_or(name);
        let log = $crate::tracer();
        if log.enabled(target, $level) {
            log.event($level, name, String::new());
        }
    }};
    ($level:expr, $name:expr, $($field:expr),+ $(,)?) => {{
        let name: &'static str = $name;
        let target = name.split('.').next().unwrap_or(name);
        let log = $crate::tracer();
        if log.enabled(target, $level) {
            let mut s = String::new();
            $(
                if !s.is_empty() {
                    s.push(' ');
                }
                s.push_str(stringify!($field));
                s.push('=');
                s.push_str(&format!("{:?}", &$field));
            )+
            log.event($level, name, s);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_parsing_defaults_and_overrides() {
        let f = Filter::parse("info");
        assert!(f.enabled("net", Level::Info));
        assert!(!f.enabled("net", Level::Debug));

        let f = Filter::parse("net=trace,ssp=debug");
        assert!(f.enabled("net", Level::Trace));
        assert!(f.enabled("ssp", Level::Debug));
        assert!(!f.enabled("ssp", Level::Trace));
        assert!(!f.enabled("core", Level::Error), "no default means off");

        let f = Filter::parse("debug,cluster=off");
        assert!(f.enabled("core", Level::Debug));
        assert!(!f.enabled("cluster", Level::Error));

        // Later entries win; junk is ignored.
        let f = Filter::parse("net=info,net=trace,garbage,also=bad=worse");
        assert!(f.enabled("net", Level::Trace));

        let f = Filter::parse("");
        assert!(!f.enabled("net", Level::Error));
    }

    #[test]
    fn the_published_flag_follows_the_filter() {
        assert!(!Filter::off().enables_anything());
        assert!(!Filter::parse("net=off,garbage").enables_anything());
        assert!(Filter::parse("off,ssp=debug").enables_anything());
        assert!(Filter::parse("warn").enables_anything());

        let log = EventLog::new(8, Filter::off());
        log.event(Level::Error, "t.x", String::new());
        assert!(!log.enabled("t", Level::Error));
        log.set_filter(Filter::parse("t=info"));
        assert!(log.enabled("t", Level::Info));
        assert!(!log.enabled("u", Level::Error));
        log.event(Level::Info, "t.x", String::new());
        log.set_filter(Filter::off());
        assert!(!log.enabled("t", Level::Info));
        log.event(Level::Info, "t.x", String::new());
        assert_eq!(log.len(), 1, "only the event under the enabling filter is kept");
    }

    #[test]
    fn ring_buffer_bounds_and_counts_drops() {
        let log = EventLog::new(3, Filter::parse("trace"));
        for _ in 0..5 {
            log.event(Level::Info, "t.x", String::new());
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let events = log.take();
        assert_eq!(events.len(), 3);
        // Sequence numbers survive eviction: the oldest surviving is seq 2.
        assert_eq!(events[0].seq, 2);
        assert!(log.is_empty());
    }

    #[test]
    fn disabled_targets_record_nothing() {
        let log = EventLog::new(8, Filter::parse("ssp=debug"));
        log.event(Level::Debug, "net.retry", String::new());
        assert!(log.is_empty());
        log.event(Level::Debug, "ssp.get", String::new());
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn snapshot_does_not_drain() {
        let log = EventLog::new(8, Filter::parse("trace"));
        log.event(Level::Info, "t.a", String::new());
        log.event(Level::Info, "t.b", String::new());
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(log.len(), 2, "snapshot must leave the ring intact");
        let again = log.snapshot();
        assert_eq!(again.len(), 2, "snapshots are repeatable");
        assert_eq!(log.take().len(), 2, "take still drains afterwards");
    }

    #[test]
    fn set_capacity_evicts_and_counts() {
        let log = EventLog::new(8, Filter::parse("trace"));
        for _ in 0..6 {
            log.event(Level::Info, "t.x", String::new());
        }
        log.set_capacity(2);
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 4);
        log.set_capacity(16);
        log.event(Level::Info, "t.y", String::new());
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn child_span_ids_are_deterministic_and_distinct() {
        let a = child_span_id(7, 9, "ssp.rpc", 0);
        let b = child_span_id(7, 9, "ssp.rpc", 0);
        assert_eq!(a, b, "same inputs, same id");
        assert_ne!(a, child_span_id(7, 9, "ssp.rpc", 1), "sibling index separates ids");
        assert_ne!(a, child_span_id(7, 9, "cluster.replica", 0), "name separates ids");
        assert_ne!(a, child_span_id(8, 9, "ssp.rpc", 0), "trace id separates ids");
        assert_ne!(a, 0, "span ids are never zero");
    }

    #[test]
    fn level_and_kind_wire_encodings_round_trip() {
        for l in [Level::Error, Level::Warn, Level::Info, Level::Debug, Level::Trace] {
            assert_eq!(Level::from_u8(l.as_u8()), Some(l));
        }
        assert_eq!(Level::from_u8(5), None);
        for k in [EventKind::Enter, EventKind::Exit, EventKind::Instant] {
            assert_eq!(EventKind::from_u8(k.as_u8()), Some(k));
        }
        assert_eq!(EventKind::from_u8(3), None);
    }
}
