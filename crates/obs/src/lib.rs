//! # sharoes-obs
//!
//! Zero-dependency observability for the Sharoes workspace: a lock-light
//! [`metrics`] registry (counters, gauges, fixed-bucket histograms) and a
//! [`trace`] span facade over a bounded event log. Both have process-global
//! instances so every layer — net, ssp, cluster, core, bench — reports into
//! one place, and a running `sspd` can export the lot over the wire
//! (`Request::Metrics`).
//!
//! One environment variable configures the globals at first use:
//! `SHAROES_LOG`, the trace filter spec, e.g. `info`, `net=trace,ssp=debug`,
//! `debug,cluster=off`. Unset means tracing is off.
//!
//! Both facilities always record wall clock, and both drop it on export:
//! [`Snapshot::deterministic_text`] leaves out wall-clock series, and
//! [`tree::render`] without wall clock leaves out every `*_ns=` field. A
//! seeded run's exports are therefore byte-stable with no special mode;
//! the CI metrics- and trace-determinism gates diff exactly these forms.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod trace;
pub mod tree;

pub use metrics::{
    Counter, Gauge, Histogram, Registry, Snapshot, LATENCY_BOUNDS_MS, LATENCY_BOUNDS_NS,
    SIZE_BOUNDS_BYTES,
};
pub use trace::{
    clear_slow_ops, current, in_span, mint_child, phase_add, slow_ops, EventKind, EventLog, Filter,
    Level, Phase, SlowCapture, SpanGuard, TraceContext, TraceEvent,
};
pub use tree::{assemble, OwnedEvent, SpanNode, SpanTree};

use std::sync::OnceLock;

/// The process-global metrics registry every layer reports into.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// The process-global trace log. Filter comes from `SHAROES_LOG`.
pub fn tracer() -> &'static EventLog {
    static TRACER: OnceLock<EventLog> = OnceLock::new();
    TRACER.get_or_init(|| {
        let filter = match std::env::var("SHAROES_LOG") {
            Ok(spec) => Filter::parse(&spec),
            Err(_) => Filter::off(),
        };
        EventLog::new(4096, filter)
    })
}

/// Global-registry counter (handle is cacheable; see [`Registry::counter`]).
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Global-registry gauge.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Global-registry latency histogram with the default ns buckets. By
/// convention the name must end in `_ns` so the deterministic export knows
/// to drop its wall-clock series.
pub fn histogram_ns(name: &str) -> Histogram {
    debug_assert!(name.ends_with("_ns"), "latency histograms must use the _ns suffix: {name}");
    global().histogram(name, &LATENCY_BOUNDS_NS)
}

/// Global-registry size histogram with the default byte buckets.
pub fn histogram_bytes(name: &str) -> Histogram {
    global().histogram(name, &SIZE_BOUNDS_BYTES)
}

/// Global-registry coarse-latency histogram with the default ms buckets,
/// for slow, rare operations (recovery replay, compaction). Same `_ms`
/// wall-clock naming convention as [`histogram_ns`]'s `_ns`.
pub fn histogram_ms(name: &str) -> Histogram {
    debug_assert!(name.ends_with("_ms"), "ms histograms must use the _ms suffix: {name}");
    global().histogram(name, &LATENCY_BOUNDS_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One combined test because the global tracer is shared process state:
    /// splitting these into parallel #[test]s would race on the ring.
    #[test]
    fn global_tracer_spans_nest_and_assemble_into_trees() {
        let log = tracer();
        log.set_filter(Filter::parse("trace"));
        log.take(); // start clean

        {
            let outer = 1u32;
            let _a = span!("t.outer", outer);
            {
                let _b = span!("t.inner");
                obs_event!(Level::Info, "t.mark", outer);
            }
        }
        let events = log.take();
        assert_eq!(events.len(), 5, "enter/enter/mark/exit/exit: {events:?}");
        assert_eq!(events[0].kind, EventKind::Enter);
        assert_eq!(events[0].depth, 0);
        assert_eq!(events[1].name, "t.inner");
        assert_eq!(events[1].depth, 1, "inner span nests under outer");
        assert_eq!(events[2].depth, 2, "the event sits inside both spans");
        assert_eq!(events[2].fields, "outer=1");
        assert_eq!(events[3].kind, EventKind::Exit);
        assert_eq!(events[3].depth, 1);
        assert_eq!(events[4].depth, 0, "outer exit returns to depth 0");

        // --- Trace-context propagation, still under the same global lock
        // of a single #[test] (parallel tests would race the ring). ---
        let root = TraceContext { trace_id: 0xABCD, span_id: 77, parent_id: 0 };
        {
            let _a = trace::SpanGuard::enter_with("t.root", root, String::new);
            assert_eq!(current(), Some(root));
            let child = mint_child("t.remote").expect("inside a traced span");
            assert_eq!(child.trace_id, root.trace_id);
            assert_eq!(child.parent_id, root.span_id);
            assert_ne!(child.span_id, root.span_id);
            {
                let _b = span!("t.child");
                phase_add(Phase::Crypto, 1_000);
                phase_add(Phase::Crypto, 2_000);
            }
            phase_add(Phase::Net, 5_000);
        }
        let events = log.take();
        let owned: Vec<OwnedEvent> = events.iter().map(OwnedEvent::from).collect();
        // Child span derived its ids from the root frame.
        let child_enter = events.iter().find(|e| e.name == "t.child").unwrap();
        assert_eq!(child_enter.trace_id, root.trace_id);
        assert_eq!(child_enter.parent_id, root.span_id);
        // Exit fields carry phase op counts; with the wall-clock `*_ns`
        // tokens stripped, as `tree::render` strips them, they are exact.
        let counts = |fields: &str| {
            let ops = fields
                .split_whitespace()
                .filter(|t| !t.split('=').next().unwrap().ends_with("_ns"));
            ops.collect::<Vec<_>>().join(" ")
        };
        let child_exit =
            events.iter().find(|e| e.name == "t.child" && e.kind == EventKind::Exit).unwrap();
        assert_eq!(counts(&child_exit.fields), "crypto_ops=2");
        let root_exit =
            events.iter().find(|e| e.name == "t.root" && e.kind == EventKind::Exit).unwrap();
        assert_eq!(
            counts(&root_exit.fields),
            "crypto_ops=2 net_ops=1",
            "child phases roll up into the root"
        );
        // The whole thing assembles into one tree rooted at t.root.
        let trees = assemble(&owned);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].trace_id, 0xABCD);
        assert_eq!(trees[0].roots.len(), 1);
        assert_eq!(trees[0].roots[0].name, "t.root");
        assert_eq!(trees[0].roots[0].children[0].name, "t.child");
        // And the root op landed in the slow-op ring with its events.
        let slow = slow_ops();
        let cap = slow.iter().find(|c| c.trace_id == 0xABCD).expect("root op captured");
        assert_eq!(cap.root, "t.root");
        assert!(cap.events.len() >= 4, "capture holds the trace's events");
        clear_slow_ops();

        log.set_filter(Filter::off());
    }

    #[test]
    fn global_registry_is_append_only_and_shared() {
        let c = counter("obs_selftest_total");
        c.add(2);
        assert_eq!(counter("obs_selftest_total").get(), 2);
        let h = histogram_ns("obs_selftest_ns");
        h.observe(5);
        assert_eq!(h.count(), 1);
        let text = global().render();
        assert!(text.contains("obs_selftest_total 2"));
    }
}
