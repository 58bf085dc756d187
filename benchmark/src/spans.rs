//! The benchmark's own tracing: spans around the calls it makes into the
//! program, recorded by the benchmark (nothing inside the program is read).
//!
//! Every worker owns one [`Recorder`] with preallocated buffers. A span is
//! `{id, parent, name, worker, node, start_ns, end_ns}`; its parent is the
//! span open on the same recorder when it started (a call's parent is its
//! round or segment, a segment's parent is the workload span). With tracing
//! off the recorder still times the workload's *unit* calls (two `Instant`
//! reads each) because the end-to-end latency percentiles need them.

use crate::stats::SegmentPercentiles;
use std::io::Write as _;
use std::time::Instant;

/// Id of the workload span every segment hangs under.
pub const ROOT: u64 = 1;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub worker: u16,
    pub node: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls and bytes the span covers (probe batches; 1 and 0 otherwise).
    pub calls: u64,
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: returned by [`Recorder::open`], consumed by `close`.
#[derive(Clone, Copy)]
pub struct Tok {
    start: Option<Instant>,
    id: u64,
    parent: u64,
}

pub struct Recorder {
    epoch: Instant,
    worker: u16,
    node: u16,
    /// Spans are recorded while this is set (one traced segment).
    pub tracing: bool,
    cur: u64,
    next: u64,
    pub spans: Vec<Span>,
    /// Unit-call latencies of the timed region.
    pub unit: SegmentPercentiles,
}

impl Recorder {
    /// `epoch` is shared by all recorders of a run so their clocks agree.
    pub fn new(epoch: Instant, worker: usize, node: usize, span_cap: usize) -> Recorder {
        Recorder {
            epoch,
            worker: worker as u16,
            node: node as u16,
            tracing: false,
            cur: ROOT,
            // Ids are unique across workers: the worker index is the high half.
            next: ((worker as u64 + 1) << 32) + 1,
            spans: Vec::with_capacity(span_cap),
            unit: SegmentPercentiles::default(),
        }
    }

    /// Room for `n` more spans without growing the buffer?
    pub fn has_room(&self, n: usize) -> bool {
        self.spans.capacity() - self.spans.len() >= n
    }

    /// Start timing a call. `unit` marks the workload's unit of latency;
    /// other calls cost nothing while tracing is off.
    #[inline]
    pub fn open(&mut self, unit: bool) -> Tok {
        if !(unit || self.tracing) {
            return Tok { start: None, id: 0, parent: 0 };
        }
        let tok = Tok { start: Some(Instant::now()), id: self.next, parent: self.cur };
        self.next += 1;
        self.cur = tok.id;
        tok
    }

    /// Finish a call opened with the same `unit` flag.
    #[inline]
    pub fn close(&mut self, tok: Tok, name: &'static str, unit: bool) {
        let Some(start) = tok.start else { return };
        let end = Instant::now();
        self.cur = tok.parent;
        if unit {
            self.unit.record((end - start).as_nanos() as u64);
        }
        if self.tracing {
            self.push(tok.id, tok.parent, name, start, end, 1, 0);
        }
    }

    /// Record a span measured by the caller (segments, probe batches).
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        calls: u64,
        bytes: u64,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            worker: self.worker,
            node: self.node,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            calls,
            bytes,
        });
    }

    /// A fresh id for a span the caller will `push` itself; spans opened
    /// until [`Recorder::leave`] become its children.
    pub fn enter(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        self.cur = id;
        id
    }

    pub fn leave(&mut self) {
        self.cur = ROOT;
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children are counted once, and a child is
/// clipped to its parent). Returns `(span index, self_ns)` in input order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut by_parent: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        by_parent.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = by_parent.get_mut(&s.id) else { return s.dur_ns() };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Durations (ns, per call) of the spans called `name`, optionally of one
/// node's worker only.
pub fn durations(spans: &[Span], name: &str, node: Option<u16>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && node.is_none_or(|n| s.node == n))
        .map(|s| s.dur_ns() as f64 / s.calls.max(1) as f64)
        .collect()
}

/// Median duration (ns, per call) of the spans called `name`; 0 if there are
/// none (the workload makes no such call).
pub fn p50_ns(spans: &[Span], name: &str, node: Option<u16>) -> f64 {
    crate::stats::median(&durations(spans, name, node))
}

/// Write spans as JSON lines, one span per line, with its self time.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(selfs) {
        // Names are identifiers of this crate: nothing in them needs escaping.
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"worker\": {}, \"node\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"calls\": {}, \"bytes\": {}}}",
            s.id, s.parent, s.name, s.worker, s.node, s.start_ns, s.end_ns, s.calls, s.bytes
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "t", worker: 0, node: 0, start_ns, end_ns, calls: 1, bytes: 0 }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = [
            span(1, 0, 0, 1000),   // workload
            span(2, 1, 100, 600),  // segment: two adjacent calls and a gap
            span(3, 2, 100, 300),  // call
            span(4, 2, 300, 500),  // adjacent call
            span(5, 3, 150, 250),  // nested inside the first call
            span(6, 1, 700, 1200), // child running past its parent: clipped
        ];
        assert_eq!(self_times(&spans), vec![1000 - 500 - 300, 500 - 400, 200 - 100, 200, 100, 500]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 80)];
        assert_eq!(self_times(&spans)[0], 100 - 70);
    }

    #[test]
    fn recorder_links_calls_to_the_open_span() {
        let mut r = Recorder::new(Instant::now(), 1, 1, 16);
        r.tracing = true;
        let seg = r.enter();
        let outer = r.open(true);
        let inner = r.open(false);
        r.close(inner, "api.inner", false);
        r.close(outer, "api.outer", true);
        r.leave();
        let after = r.open(false);
        r.close(after, "api.after", false);

        let by_name = |n: &str| r.spans.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by_name("api.outer").parent, seg);
        assert_eq!(by_name("api.inner").parent, by_name("api.outer").id);
        assert_eq!(by_name("api.after").parent, ROOT);
        assert_eq!(r.unit.open_len(), 1, "only the unit call is a latency sample");
        assert!(r.spans.iter().all(|s| s.id >> 32 == 2 && s.node == 1));

        // Tracing off: non-unit calls are free, unit calls are still timed.
        r.tracing = false;
        let n = r.spans.len();
        let t = r.open(false);
        r.close(t, "api.free", false);
        let t = r.open(true);
        r.close(t, "api.unit", true);
        assert_eq!((r.spans.len(), r.unit.open_len()), (n, 2));
    }

    #[test]
    fn durations_filter_by_name_and_node() {
        let mut a = span(1, 0, 0, 400);
        a.calls = 4;
        let mut b = span(2, 0, 0, 50);
        b.node = 1;
        assert_eq!(durations(&[a.clone(), b.clone()], "t", None), vec![100.0, 50.0]);
        assert_eq!(durations(&[a, b], "t", Some(1)), vec![50.0]);
    }
}
