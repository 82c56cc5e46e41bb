//! The benchmark's own spans: recorded around calls into each layer's
//! public functions, kept in memory, written out at exit.
//!
//! A span is (name, start, end, parent, op); spans of one replayed
//! operation share the op id. A layer's *self time* is its span's duration
//! minus the part its direct children cover, so self times of one
//! operation add up to its root span exactly and a layer is never billed
//! for work it delegated.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`module.function` granularity, e.g. `cypher.exec`).
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation (one replayed request) this span belongs to.
    pub op: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::enter`], consumed by [`Recorder::exit`].
#[must_use = "a span that is never exited has no end time"]
pub struct Open(u32);

/// Single-threaded in-memory span recorder.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new operation and returns its op id.
    pub fn begin_op(&mut self, name: &'static str) -> (u32, Open) {
        assert!(self.stack.is_empty(), "operations do not nest");
        self.op += 1;
        (self.op, self.enter(name))
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.stack.push(index);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        Open(index)
    }

    /// Closes a span; spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(open.0), "spans close in LIFO order");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Ends the recording and hands over the spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Nanoseconds one enter/exit pair costs here, measured on empty spans
    /// of a scratch recorder: what the tracer itself adds per span.
    pub fn calibrate() -> f64 {
        const PAIRS: u32 = 200_000;
        let mut rec = Recorder::default();
        rec.spans.reserve(PAIRS as usize);
        let t0 = Instant::now();
        for _ in 0..PAIRS {
            let open = rec.enter("calibrate");
            rec.exit(open);
        }
        std::hint::black_box(&rec.spans);
        t0.elapsed().as_nanos() as f64 / f64::from(PAIRS)
    }
}

/// Self time of every span: duration minus the part of it covered by its
/// direct children (clipped to the span, so a child can never make a
/// parent's self time negative).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            covered[parent as usize] += end - start;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per-operation view of a trace: for each op, its root duration and the
/// self time billed to each layer name.
#[derive(Debug, Clone, Default)]
pub struct OpBreakdown {
    /// The root span's name (the op type).
    pub kind: &'static str,
    /// The root span's duration.
    pub total_ns: u64,
    /// Self time per layer name, root included.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Total (inclusive) time per layer name.
    pub inclusive_ns: BTreeMap<&'static str, u64>,
    /// Spans recorded for the op, root included.
    pub span_count: usize,
}

/// Groups a trace by operation.
pub fn breakdown(spans: &[Span]) -> Vec<OpBreakdown> {
    let selfs = self_times_ns(spans);
    let mut ops: BTreeMap<u32, OpBreakdown> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let op = ops.entry(span.op).or_default();
        if span.parent.is_none() {
            op.kind = span.name;
            op.total_ns = span.duration_ns();
        }
        *op.self_ns.entry(span.name).or_default() += self_ns;
        *op.inclusive_ns.entry(span.name).or_default() += span.duration_ns();
        op.span_count += 1;
    }
    ops.into_values().collect()
}

/// Writes traces as JSON: per workload, one object per span with `id`,
/// `name`, `start_ns`, `end_ns`, `parent` (span id or null) and `op`.
pub fn write_json(path: &Path, seed: u64, sections: &[(&str, &[Span])]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"seed\":{seed},\"unit\":\"ns\",\"workloads\":[")?;
    for (w, (workload, spans)) in sections.iter().enumerate() {
        if w > 0 {
            out.write_all(b",")?;
        }
        write!(out, "\n{{\"workload\":\"{workload}\",\"spans\":[")?;
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.write_all(b"\n]}")?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 { a 10..40 { a1 15..25 }, b 50..90 { b1 50..60, b2 70..90 } }
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
            span("b1", 50, 60, Some(3)),
            span("b2", 70, 90, Some(3)),
        ];
        // Grandchildren are subtracted from their parent only, never twice.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 10, 10, 20]);
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_child_overrunning_its_parent_is_clipped() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 30, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 15]);
    }

    #[test]
    fn recorder_links_parents_and_ops() {
        let mut rec = Recorder::default();
        let (op, root) = rec.begin_op("op.one");
        let inner = rec.span("layer.a", || {
            std::hint::black_box(1 + 1);
            7
        });
        let b = rec.enter("layer.b");
        rec.span("layer.c", || ());
        rec.exit(b);
        rec.exit(root);
        let (op2, root2) = rec.begin_op("op.two");
        rec.exit(root2);
        assert_eq!((inner, op, op2), (7, 1, 2));
        let s = rec.into_spans();
        assert_eq!(
            s.iter()
                .map(|s| (s.name, s.parent, s.op))
                .collect::<Vec<_>>(),
            vec![
                ("op.one", None, 1),
                ("layer.a", Some(0), 1),
                ("layer.b", Some(0), 1),
                ("layer.c", Some(2), 1),
                ("op.two", None, 2),
            ]
        );
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));

        let ops = breakdown(&s);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].kind, "op.one");
        assert_eq!(ops[0].span_count, 4);
        // Self times of an op add up to its root span exactly.
        assert_eq!(ops[0].self_ns.values().sum::<u64>(), ops[0].total_ns);
    }

    #[test]
    fn trace_file_is_valid_json() {
        let dir = std::env::temp_dir().join(format!("loadbench-trace-{}", std::process::id()));
        let path = dir.join("trace.json");
        let spans = vec![span("root", 0, 9, None), span("leaf", 1, 4, Some(0))];
        write_json(&path, 5, &[("w", &spans), ("empty", &[])]).unwrap();
        let parsed: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed["seed"].as_u64(), Some(5));
        let w = &parsed["workloads"][0];
        assert_eq!(w["workload"], "w");
        assert_eq!(w["spans"][1]["parent"].as_u64(), Some(0));
        assert_eq!(w["spans"][0]["parent"], serde_json::Value::Null);
        assert_eq!(
            parsed["workloads"][1]["spans"].as_array().map(<[_]>::len),
            Some(0)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
