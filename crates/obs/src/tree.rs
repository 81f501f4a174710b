//! Cross-node span-tree assembly: turn flat [`TraceEvent`] streams —
//! possibly scraped from several processes — into per-trace trees keyed
//! by trace id, and render them deterministically.
//!
//! Assembly is *orphan-tolerant*: a scrape of one SSP's ring sees the
//! server-side spans but not the client root, so any span whose parent id
//! is absent from the batch becomes a root of its trace's forest. Sibling
//! order is `(node, start seq)` — sequence numbers are per-process, so
//! they only order events from the same node; the node name breaks ties
//! across processes deterministically.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{EventKind, Level, TraceEvent};

/// An owned, node-stamped trace event: what crosses the wire and what
/// assembly consumes. Unlike [`TraceEvent`] the name is a `String`
/// (decoded names are not `'static`), and `node` records which process's
/// ring the event came from (`""` until a scraper stamps it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnedEvent {
    /// Per-process monotonic sequence number.
    pub seq: u64,
    /// Timestamp: nanoseconds since the recording log's epoch.
    pub time_ns: u64,
    /// Thread-local nesting depth when recorded.
    pub depth: u16,
    /// Severity.
    pub level: Level,
    /// Enter/exit/instant.
    pub kind: EventKind,
    /// 128-bit trace id (0 = untraced; skipped by assembly).
    pub trace_id: u128,
    /// Owning span id.
    pub span_id: u64,
    /// Owning span's parent id.
    pub parent_id: u64,
    /// Span/event name.
    pub name: String,
    /// Rendered `key=value` fields.
    pub fields: String,
    /// Which node's ring this event was scraped from ("" = local).
    pub node: String,
}

impl From<&TraceEvent> for OwnedEvent {
    fn from(e: &TraceEvent) -> OwnedEvent {
        OwnedEvent {
            seq: e.seq,
            time_ns: e.time_ns,
            depth: e.depth,
            level: e.level,
            kind: e.kind,
            trace_id: e.trace_id,
            span_id: e.span_id,
            parent_id: e.parent_id,
            name: e.name.to_string(),
            fields: e.fields.clone(),
            node: String::new(),
        }
    }
}

/// One span reconstructed from its `Enter`/`Exit` events.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// The span's id.
    pub span_id: u64,
    /// Its parent's id (0, or an id absent from the batch, makes it a root).
    pub parent_id: u64,
    /// Span name.
    pub name: String,
    /// Node the span ran on ("" = local/unknown).
    pub node: String,
    /// Fields captured at `Enter`.
    pub enter_fields: String,
    /// Fields captured at `Exit` (phase attribution lives here).
    pub exit_fields: String,
    /// Sequence number of the `Enter` event (sibling-order key).
    pub start_seq: u64,
    /// `Instant` events recorded inside this span.
    pub events: Vec<OwnedEvent>,
    /// Child spans, sorted by `(node, start_seq)`.
    pub children: Vec<SpanNode>,
}

/// All spans of one trace id, as an orphan-tolerant forest.
#[derive(Clone, Debug)]
pub struct SpanTree {
    /// The shared 128-bit trace id.
    pub trace_id: u128,
    /// Root spans (parent absent from the batch), sorted by
    /// `(node, start_seq)`.
    pub roots: Vec<SpanNode>,
}

impl SpanTree {
    /// Total number of spans in the forest.
    pub fn span_count(&self) -> usize {
        fn count(n: &SpanNode) -> usize {
            1 + n.children.iter().map(count).sum::<usize>()
        }
        self.roots.iter().map(count).sum()
    }
}

/// Groups `events` by trace id and reconstructs span forests. Untraced
/// events (trace id 0) are skipped. Duplicate span ids (the same span
/// scraped twice) collapse into one node.
pub fn assemble(events: &[OwnedEvent]) -> Vec<SpanTree> {
    let mut by_trace: BTreeMap<u128, Vec<&OwnedEvent>> = BTreeMap::new();
    for e in events {
        if e.trace_id != 0 {
            by_trace.entry(e.trace_id).or_default().push(e);
        }
    }
    let mut trees = Vec::new();
    for (trace_id, events) in by_trace {
        // span_id -> partially built node.
        let mut spans: BTreeMap<u64, SpanNode> = BTreeMap::new();
        let mut instants: Vec<&OwnedEvent> = Vec::new();
        for e in &events {
            match e.kind {
                EventKind::Enter => {
                    let node = spans.entry(e.span_id).or_insert_with(|| SpanNode {
                        span_id: e.span_id,
                        parent_id: e.parent_id,
                        name: e.name.clone(),
                        node: e.node.clone(),
                        enter_fields: String::new(),
                        exit_fields: String::new(),
                        start_seq: e.seq,
                        events: Vec::new(),
                        children: Vec::new(),
                    });
                    node.name = e.name.clone();
                    node.node = e.node.clone();
                    node.enter_fields = e.fields.clone();
                    node.start_seq = e.seq;
                }
                EventKind::Exit => {
                    let node = spans.entry(e.span_id).or_insert_with(|| SpanNode {
                        span_id: e.span_id,
                        parent_id: e.parent_id,
                        name: e.name.clone(),
                        node: e.node.clone(),
                        enter_fields: String::new(),
                        exit_fields: String::new(),
                        // Enter fell out of the ring: order by the exit seq.
                        start_seq: e.seq,
                        events: Vec::new(),
                        children: Vec::new(),
                    });
                    node.exit_fields = e.fields.clone();
                }
                EventKind::Instant => instants.push(e),
            }
        }
        for e in instants {
            if let Some(node) = spans.get_mut(&e.span_id) {
                node.events.push((*e).clone());
            }
        }
        for node in spans.values_mut() {
            node.events.sort_by(|a, b| (&a.node, a.seq).cmp(&(&b.node, b.seq)));
        }
        // Link children under present parents; absent parents make roots.
        let ids: Vec<u64> = spans.keys().copied().collect();
        let mut roots: Vec<SpanNode> = Vec::new();
        // Detach in id order, then attach; a child always finds its parent
        // because attachment happens after all nodes exist.
        let mut detached: BTreeMap<u64, SpanNode> = spans;
        let mut child_ids: Vec<u64> = Vec::new();
        for id in &ids {
            let parent = detached[id].parent_id;
            if parent != 0 && detached.contains_key(&parent) && parent != *id {
                child_ids.push(*id);
            }
        }
        // Repeatedly move leaf-most children under their parents. Iterating
        // in reverse-id order is not depth-aware, so instead splice by
        // collecting (parent, node) pairs and inserting bottom-up: simplest
        // correct approach is to pull children out, then insert into their
        // parents in an order where a parent is still detached when its
        // children arrive — i.e. deepest first. Compute depth by walking up.
        let depth_of = |id: u64, m: &BTreeMap<u64, SpanNode>| {
            let mut d = 0u32;
            let mut cur = id;
            while let Some(n) = m.get(&cur) {
                if n.parent_id == 0 || n.parent_id == cur || !m.contains_key(&n.parent_id) {
                    break;
                }
                cur = n.parent_id;
                d += 1;
                if d > 64 {
                    break; // cycle guard
                }
            }
            d
        };
        let mut ordered: Vec<(u32, u64)> =
            child_ids.iter().map(|id| (depth_of(*id, &detached), *id)).collect();
        ordered.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (_, id) in ordered {
            if let Some(node) = detached.remove(&id) {
                let parent = node.parent_id;
                if let Some(p) = detached.get_mut(&parent) {
                    p.children.push(node);
                } else {
                    roots.push(node);
                }
            }
        }
        roots.extend(detached.into_values());
        fn sort_children(n: &mut SpanNode) {
            n.children.sort_by(|a, b| (&a.node, a.start_seq).cmp(&(&b.node, b.start_seq)));
            for c in &mut n.children {
                sort_children(c);
            }
        }
        roots.sort_by(|a, b| (&a.node, a.start_seq).cmp(&(&b.node, b.start_seq)));
        for r in &mut roots {
            sort_children(r);
        }
        trees.push(SpanTree { trace_id, roots });
    }
    trees
}

/// True for `key=value` tokens whose key carries wall-clock nanoseconds.
fn is_wall_clock_token(tok: &str) -> bool {
    match tok.split_once('=') {
        Some((k, _)) => k.ends_with("_ns"),
        None => false,
    }
}

fn render_fields(out: &mut String, fields: &str, include_wall_clock: bool) {
    for tok in fields.split_whitespace() {
        if !include_wall_clock && is_wall_clock_token(tok) {
            continue;
        }
        out.push(' ');
        out.push_str(tok);
    }
}

fn render_span(out: &mut String, n: &SpanNode, depth: usize, include_wall_clock: bool) {
    let indent = "  ".repeat(depth + 1);
    let _ = write!(out, "{indent}{} sid={:016x}", n.name, n.span_id);
    if !n.node.is_empty() {
        let _ = write!(out, " @{}", n.node);
    }
    render_fields(out, &n.enter_fields, include_wall_clock);
    render_fields(out, &n.exit_fields, include_wall_clock);
    out.push('\n');
    for e in &n.events {
        let _ = write!(out, "{indent}  - {} {}", e.level.name(), e.name);
        render_fields(out, &e.fields, include_wall_clock);
        out.push('\n');
    }
    for c in &n.children {
        render_span(out, c, depth + 1, include_wall_clock);
    }
}

/// Renders assembled trees, one indented block per trace. With
/// `include_wall_clock` false every `*_ns=` field token is dropped, so
/// the output of a seeded run is byte-identical across repeats — the
/// form the CI trace-determinism gate diffs.
pub fn render(trees: &[SpanTree], include_wall_clock: bool) -> String {
    let mut out = String::new();
    for t in trees {
        let _ = writeln!(out, "trace {:032x} spans={}", t.trace_id, t.span_count());
        for r in &t.roots {
            render_span(&mut out, r, 0, include_wall_clock);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn ev(
        seq: u64,
        kind: EventKind,
        trace_id: u128,
        span_id: u64,
        parent_id: u64,
        name: &str,
        fields: &str,
        node: &str,
    ) -> OwnedEvent {
        OwnedEvent {
            seq,
            time_ns: seq,
            depth: 0,
            level: Level::Debug,
            kind,
            trace_id,
            span_id,
            parent_id,
            name: name.to_string(),
            fields: fields.to_string(),
            node: node.to_string(),
        }
    }

    #[test]
    fn assembles_nested_spans_and_instants() {
        let events = vec![
            ev(0, EventKind::Enter, 5, 10, 0, "core.read", "path=\"/a\"", ""),
            ev(1, EventKind::Enter, 5, 11, 10, "cluster.replica", "node=\"a\"", ""),
            ev(2, EventKind::Instant, 5, 11, 10, "net.retry", "attempt=1", ""),
            ev(3, EventKind::Exit, 5, 11, 10, "cluster.replica", "net_ops=1 net_ns=99", ""),
            ev(4, EventKind::Exit, 5, 10, 0, "core.read", "elapsed_ns=123", ""),
        ];
        let trees = assemble(&events);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].trace_id, 5);
        assert_eq!(trees[0].span_count(), 2);
        assert_eq!(trees[0].roots.len(), 1);
        let root = &trees[0].roots[0];
        assert_eq!(root.name, "core.read");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "cluster.replica");
        assert_eq!(root.children[0].events.len(), 1, "instant attaches to its span");

        let full = render(&trees, true);
        assert!(full.contains("net_ns=99"));
        assert!(full.contains("elapsed_ns=123"));
        let det = render(&trees, false);
        assert!(!det.contains("_ns="), "deterministic render drops wall-clock fields: {det}");
        assert!(det.contains("net_ops=1"), "op counts stay: {det}");
        assert!(det.contains("attempt=1"));
    }

    #[test]
    fn orphans_become_roots_and_untraced_is_skipped() {
        let events = vec![
            // Remote scrape: ssp.rpc's parent (the client span) is absent.
            ev(7, EventKind::Enter, 9, 21, 20, "ssp.rpc", "", "node-b"),
            ev(8, EventKind::Enter, 9, 22, 21, "ssp.op", "op=\"put\"", "node-b"),
            ev(9, EventKind::Exit, 9, 22, 21, "ssp.op", "storage_ops=1", "node-b"),
            ev(10, EventKind::Exit, 9, 21, 20, "ssp.rpc", "", "node-b"),
            // Untraced noise.
            ev(11, EventKind::Instant, 0, 0, 0, "net.fault", "", ""),
        ];
        let trees = assemble(&events);
        assert_eq!(trees.len(), 1, "trace id 0 is not a tree");
        assert_eq!(trees[0].roots.len(), 1, "orphan parent makes ssp.rpc a root");
        assert_eq!(trees[0].roots[0].name, "ssp.rpc");
        assert_eq!(trees[0].roots[0].children[0].name, "ssp.op");
        let text = render(&trees, false);
        assert!(text.contains("@node-b"), "node stamp renders: {text}");
    }

    #[test]
    fn deep_nesting_links_every_level() {
        // a(1) <- b(2) <- c(3) <- d(4): attachment must work bottom-up.
        let events = vec![
            ev(0, EventKind::Enter, 3, 1, 0, "a", "", ""),
            ev(1, EventKind::Enter, 3, 2, 1, "b", "", ""),
            ev(2, EventKind::Enter, 3, 3, 2, "c", "", ""),
            ev(3, EventKind::Enter, 3, 4, 3, "d", "", ""),
        ];
        let trees = assemble(&events);
        assert_eq!(trees[0].roots.len(), 1);
        let a = &trees[0].roots[0];
        assert_eq!(a.children.len(), 1);
        assert_eq!(a.children[0].children[0].children[0].name, "d");
        assert_eq!(trees[0].span_count(), 4);
    }
}
