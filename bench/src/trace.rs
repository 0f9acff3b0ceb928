//! The bench's span recorder. Spans are recorded by the bench's own
//! code — around its calls into each layer, and inside the handlers it
//! deploys — kept in per-thread buffers, and written out at exit. The
//! programs under test are not instrumented.
//!
//! A span is `{id, parent, op, name, start_ns, end_ns}`. Client-side
//! spans know their parent when they start. A span recorded inside a
//! handler runs on a server thread and cannot: it carries the op id it
//! found in the request (0 if the request has none) and `parent = 0`,
//! and [`resolve_parents`] attaches it afterwards to the innermost
//! client span of that op whose interval contains it.

use crate::stats::percentile;
use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Name of the root span of an operation.
pub const ROOT: &str = "op";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root, or for a handler span not yet resolved.
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static TRACING: AtomicBool = AtomicBool::new(false);
static THREADS: AtomicU64 = AtomicU64::new(0);

type Buffer = Arc<Mutex<Vec<Span>>>;

fn buffers() -> &'static Mutex<Vec<Buffer>> {
    static BUFFERS: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Local {
    buffer: Buffer,
    /// High bits of every id minted on this thread, so ids are unique
    /// without a shared counter on the recording path.
    thread: u64,
    seq: Cell<u64>,
}

thread_local! {
    static LOCAL: Local = {
        let buffer: Buffer = Arc::new(Mutex::new(Vec::with_capacity(1 << 14)));
        buffers()
            .lock()
            .expect("span buffer list poisoned")
            .push(buffer.clone());
        Local {
            buffer,
            thread: THREADS.fetch_add(1, Ordering::Relaxed) + 1,
            seq: Cell::new(0),
        }
    };
}

pub fn set_on(on: bool) {
    epoch();
    TRACING.store(on, Ordering::SeqCst);
}

pub fn is_on() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// An open span; records itself when dropped. Inert (one relaxed load
/// to create, nothing to drop) while tracing is off.
pub struct Guard {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

impl Guard {
    /// The id children name as their parent; 0 when tracing is off.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Open a span. `parent` is the enclosing guard's [`Guard::id`], or 0
/// for a root span and for a handler span (see the module docs).
pub fn begin(name: &'static str, op: u64, parent: u64) -> Guard {
    if !is_on() {
        return Guard {
            id: 0,
            parent: 0,
            op: 0,
            name,
            start_ns: 0,
        };
    }
    let id = LOCAL.with(|local| {
        let seq = local.seq.get() + 1;
        local.seq.set(seq);
        (local.thread << 40) | seq
    });
    Guard {
        id,
        parent,
        op,
        name,
        start_ns: now_ns(),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: now_ns(),
        };
        LOCAL.with(|local| {
            if let Ok(mut buffer) = local.buffer.lock() {
                buffer.push(span);
            }
        });
    }
}

/// Take every recorded span out of every thread's buffer.
pub fn drain() -> Vec<Span> {
    let mut all = Vec::new();
    for buffer in buffers().lock().expect("span buffer list poisoned").iter() {
        all.append(&mut buffer.lock().expect("span buffer poisoned"));
    }
    all
}

/// Give every unresolved handler span (`parent == 0`, not a root) the
/// innermost client span that contains its interval — among the spans
/// of its own op when the request carried an op id, among all client
/// spans otherwise (two clients at most are in flight, so the latter
/// is ambiguous only when both ops overlap the handler; the shorter
/// one wins). Spans that nothing contains stay unresolved.
pub fn resolve_parents(spans: &mut [Span]) {
    let is_handler = |s: &Span| s.parent == 0 && s.name != ROOT;
    let mut order: Vec<usize> = (0..spans.len())
        .filter(|&i| !is_handler(&spans[i]))
        .collect();
    order.sort_by_key(|&i| spans[i].start_ns);
    let starts: Vec<u64> = order.iter().map(|&i| spans[i].start_ns).collect();
    let mut by_op: HashMap<u64, Vec<usize>> = HashMap::new();
    for &c in &order {
        by_op.entry(spans[c].op).or_default().push(c);
    }
    // A span that started longer ago than the longest client span lasts
    // cannot contain anything now: bounds the walk back through time.
    let longest = order
        .iter()
        .map(|&c| spans[c].duration_ns())
        .max()
        .unwrap_or(0);

    for i in 0..spans.len() {
        if !is_handler(&spans[i]) {
            continue;
        }
        let (start, end, op) = (spans[i].start_ns, spans[i].end_ns, spans[i].op);
        let contains = |c: &usize| spans[*c].start_ns <= start && spans[*c].end_ns >= end;
        let innermost = |candidates: &mut dyn Iterator<Item = usize>| {
            candidates.min_by_key(|&c| spans[c].duration_ns())
        };
        let best = if op != 0 {
            let own = by_op.get(&op).map_or(&[][..], Vec::as_slice);
            innermost(&mut own.iter().copied().filter(contains))
        } else {
            let upto = starts.partition_point(|&s| s <= start);
            let recent = order[..upto]
                .iter()
                .rev()
                .copied()
                .take_while(|&c| spans[c].start_ns + longest >= start);
            innermost(&mut recent.filter(contains))
        };
        if let Some(b) = best {
            spans[i].parent = spans[b].id;
        }
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover (overlapping children are not counted
/// twice). Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&p) = index.get(&span.parent) {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// What the traced run reports about the spans of one workload.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// Root spans.
    pub ops: usize,
    /// p50 of root span durations, ns.
    pub op_p50_ns: u64,
    /// Per span name: `(count, p50 self time ns, p50 duration ns)`.
    pub by_name: HashMap<&'static str, (usize, u64, u64)>,
    /// `1 - Σ root self time / Σ root duration`: the share of the op
    /// spans that named child spans account for.
    pub accounted_ratio: f64,
}

impl Summary {
    pub fn count(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    /// p50 self time of spans called `name`, µs (0 if none).
    pub fn self_p50_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.1 as f64 / 1e3)
    }

    /// p50 duration of spans called `name`, µs (0 if none).
    pub fn duration_p50_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.2 as f64 / 1e3)
    }

    /// The non-root span name with the largest p50 self time.
    pub fn largest_self(&self) -> Option<(&'static str, f64)> {
        self.by_name
            .iter()
            .filter(|(name, _)| **name != ROOT)
            .map(|(name, e)| (*name, e.1 as f64 / 1e3))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(a.0)))
    }
}

/// Summarise resolved spans (call [`resolve_parents`] first).
pub fn summarise(spans: &[Span]) -> Summary {
    let selfs = self_times(spans);
    let mut groups: HashMap<&'static str, (Vec<u64>, Vec<u64>)> = HashMap::new();
    let (mut root_self, mut root_total) = (0u64, 0u64);
    for (span, &own) in spans.iter().zip(&selfs) {
        let group = groups.entry(span.name).or_default();
        group.0.push(own);
        group.1.push(span.duration_ns());
        if span.name == ROOT {
            root_self += own;
            root_total += span.duration_ns();
        }
    }
    let mut summary = Summary {
        accounted_ratio: if root_total == 0 {
            0.0
        } else {
            1.0 - root_self as f64 / root_total as f64
        },
        ..Summary::default()
    };
    for (name, (mut own, mut total)) in groups {
        own.sort_unstable();
        total.sort_unstable();
        if name == ROOT {
            summary.ops = total.len();
            summary.op_p50_ns = percentile(&total, 50.0);
        }
        summary.by_name.insert(
            name,
            (own.len(), percentile(&own, 50.0), percentile(&total, 50.0)),
        );
    }
    summary
}

/// Stream `spans` to `out` as one JSON document. Written by hand, not
/// through [`crate::json::Json`]: a traced run holds a few hundred
/// thousand spans and one tree node per field would dwarf them.
pub fn write_json(out: &mut impl Write, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    writeln!(
        out,
        "{{\"workload\":\"{workload}\",\"clock\":\"ns since recorder start\",\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, op: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = vec![
            span(1, 0, 7, ROOT, 0, 100),
            span(2, 1, 7, "a", 10, 40),
            // Overlaps `a` by 10 and sticks 20 out of the parent.
            span(3, 1, 7, "b", 30, 120),
            span(4, 2, 7, "leaf", 15, 20),
        ];
        let own = self_times(&spans);
        // Children cover [10, 100) of the root: 90.
        assert_eq!(own[0], 10);
        assert_eq!(own[1], 25);
        assert_eq!(own[2], 90);
        assert_eq!(own[3], 5);
    }

    #[test]
    fn handler_spans_attach_to_the_innermost_containing_span_of_their_op() {
        let mut spans = vec![
            span(1, 0, 7, ROOT, 0, 100),
            span(2, 1, 7, "client.wire", 10, 90),
            span(3, 0, 8, ROOT, 5, 95),
            span(4, 3, 8, "client.wire", 12, 88),
            // Carries op 8: must not land under op 7's tighter span.
            span(5, 0, 8, "handler", 20, 30),
            // No op id: the shortest containing span wins.
            span(6, 0, 0, "registry.handler", 40, 50),
            // Contained by nothing.
            span(7, 0, 0, "registry.handler", 500, 600),
        ];
        resolve_parents(&mut spans);
        assert_eq!(spans[4].parent, 4);
        assert_eq!(spans[5].parent, 4);
        assert_eq!(spans[6].parent, 0);
        // Roots stay roots.
        assert_eq!(spans[0].parent, 0);
    }

    #[test]
    fn summary_reports_p50s_counts_and_the_accounted_share() {
        let mut spans = Vec::new();
        for i in 0..10u64 {
            let base = i * 1_000;
            spans.push(span(100 + i, 0, i + 1, ROOT, base, base + 100));
            spans.push(span(
                200 + i,
                100 + i,
                i + 1,
                "client.wire",
                base + 10,
                base + 90,
            ));
            spans.push(span(300 + i, 0, i + 1, "handler", base + 20, base + 30 + i));
        }
        resolve_parents(&mut spans);
        let s = summarise(&spans);
        assert_eq!(s.ops, 10);
        assert_eq!(s.op_p50_ns, 100);
        assert_eq!(s.count("handler"), 10);
        assert_eq!(s.duration_p50_us("client.wire"), 0.08);
        // Handler durations are 10..=19 ns; nearest-rank p50 is 14.
        assert_eq!(s.self_p50_us("handler"), 0.014);
        // Wire self time = 80 - handler.
        assert_eq!(s.self_p50_us("client.wire"), 0.065);
        assert!((s.accounted_ratio - 0.8).abs() < 1e-12);
        assert_eq!(s.largest_self().unwrap().0, "client.wire");
    }

    #[test]
    fn recorder_is_inert_when_off_and_records_when_on() {
        // The only test that flips the process-wide switch.
        set_on(false);
        drop(begin("never", 1, 0));
        set_on(true);
        let (root_id, child_id);
        {
            let root = begin(ROOT, 42, 0);
            root_id = root.id();
            let child = begin("client.wire", 42, root.id());
            child_id = child.id();
        }
        set_on(false);
        let mine: Vec<Span> = drain().into_iter().filter(|s| s.op == 42).collect();
        assert_eq!(mine.len(), 2);
        assert_ne!(root_id, 0);
        assert_ne!(root_id, child_id);
        let child = mine.iter().find(|s| s.id == child_id).unwrap();
        assert_eq!(child.parent, root_id);
        assert!(child.end_ns >= child.start_ns);
        assert!(!mine.iter().any(|s| s.name == "never"));
    }

    #[test]
    fn trace_file_is_valid_json() {
        let spans = vec![span(1, 0, 7, ROOT, 0, 100), span(2, 1, 7, "a", 10, 40)];
        let mut out = Vec::new();
        write_json(&mut out, "demo", &spans).unwrap();
        let doc = crate::json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(doc.get("workload").and_then(|w| w.as_str()), Some("demo"));
        let items = doc.get("spans").unwrap().items();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("parent").and_then(|p| p.as_f64()), Some(1.0));
    }
}
