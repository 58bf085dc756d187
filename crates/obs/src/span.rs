//! Causal span records and the fixed-capacity rings that hold their tails.
//!
//! A remote op's life, with the wall-clock stamps each side takes:
//!
//! ```text
//! client thread      issue ──────────────────────────────────► resume
//!                      │                                          ▲
//! coordinator fwd      └─► fwd (TCP only: op enters the wire)     │
//!                            │                                    │
//! serving node            dispatch (OpGate hands the op to        │
//!                            │      the protocol server)          │
//! home node                home (AtomicReq/CLockReq handled       │
//!                            │      at the authoritative copy)    │
//! serving node             reply (result leaves the server) ──────┘
//! ```
//!
//! `dispatch` doubles as the protocol-server-handle stamp: the gate
//! dispatch *is* the `on_op` call in this architecture, so the two span
//! points the wire protocol distinguishes collapse into one instant here.
//!
//! Sequence numbers are per-thread: the client counts ops as it issues
//! them and the serving side counts them as the gate dispatches them; the
//! fabric is per-thread FIFO and the gate admits one op per thread at a
//! time, so the two counts align exactly and `(thread, seq)` joins the
//! halves without any id riding the data path.

use crate::hist::OpClass;
use munin_types::ThreadId;

/// The server half of a span, recorded by the node that served the op
/// (and shipped home in the op's `Resume` frame when that node is a
/// remote process).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SrvSpan {
    /// Per-thread dispatch sequence number (starts at 1, matching the
    /// client's issue numbering).
    pub seq: u64,
    /// Wall µs when the coordinator forwarded the op onto the wire;
    /// 0 when the op never crossed a process boundary (rt fabric, or a
    /// thread served by the coordinator-resident node 0).
    pub fwd_us: u64,
    /// Wall µs when the gate dispatched the op to the protocol server.
    pub dispatch_us: u64,
    /// Wall µs when the result left the server (resume/complete).
    pub reply_us: u64,
}

/// The client half of a span, recorded at the token wait.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ClientSpan {
    pub seq: u64,
    pub class: OpClass,
    pub pipelined: bool,
    pub issue_us: u64,
    pub resume_us: u64,
}

/// A fully joined span: one op's causal timeline across processes. The
/// optional stamps are missing when the op never reached that stage (a
/// local hit has no home leg) or when the matching ring entry was
/// overwritten before teardown (only the last [`crate::SPAN_RING_CAP`]
/// spans per thread are kept).
#[derive(Debug, Clone, PartialEq)]
pub struct OpSpan {
    pub thread: ThreadId,
    pub seq: u64,
    pub class: OpClass,
    pub pipelined: bool,
    pub issue_us: u64,
    pub fwd_us: Option<u64>,
    pub dispatch_us: Option<u64>,
    pub home_us: Option<u64>,
    pub reply_us: Option<u64>,
    pub resume_us: u64,
}

impl OpSpan {
    /// End-to-end wall latency (µs) as the client saw it.
    pub fn total_us(&self) -> u64 {
        self.resume_us.saturating_sub(self.issue_us)
    }

    /// The named segments of the span, in causal order, as
    /// (label, start_us, end_us) — only the stages this op went through.
    /// Adjacent segments share endpoints, so their lengths telescope to
    /// [`OpSpan::total_us`] exactly (the stamps are one clock).
    pub fn segments(&self) -> Vec<(&'static str, u64, u64)> {
        let mut marks: Vec<(&'static str, u64)> = vec![("issue", self.issue_us)];
        if let Some(f) = self.fwd_us {
            marks.push(("fwd", f));
        }
        if let Some(d) = self.dispatch_us {
            marks.push(("dispatch", d));
        }
        if let Some(h) = self.home_us {
            marks.push(("home", h));
        }
        if let Some(r) = self.reply_us {
            marks.push(("reply", r));
        }
        marks.push(("resume", self.resume_us));
        marks.windows(2).map(|w| (w[1].0, w[0].1, w[1].1)).collect()
    }
}

/// A fixed-capacity overwrite-oldest ring. The buffer is reserved up
/// front, so pushes never allocate; once full, new entries replace the
/// oldest and `dropped` counts what was lost.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    buf: Vec<T>,
    cap: usize,
    next: usize,
    pub dropped: u64,
}

impl<T: Clone> Ring<T> {
    pub fn new(cap: usize) -> Self {
        Ring { buf: Vec::with_capacity(cap), cap, next: 0, dropped: 0 }
    }

    pub fn push(&mut self, v: T) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.next] = v;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Entries oldest-first.
    pub fn iter_in_order(&self) -> impl Iterator<Item = &T> {
        self.buf[self.next..].iter().chain(self.buf[..self.next].iter())
    }

    /// Drain into a fresh Vec, oldest-first, leaving the ring empty (the
    /// reserved capacity is kept).
    pub fn take_in_order(&mut self) -> Vec<T> {
        let out: Vec<T> = self.iter_in_order().cloned().collect();
        self.buf.clear();
        self.next = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_reports_order() {
        let mut r: Ring<u32> = Ring::new(3);
        for v in 0..5 {
            r.push(v);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped, 2);
        assert_eq!(r.iter_in_order().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.take_in_order(), vec![2, 3, 4]);
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn segments_telescope_to_total() {
        let s = OpSpan {
            thread: ThreadId(1),
            seq: 7,
            class: OpClass::FetchAdd,
            pipelined: false,
            issue_us: 100,
            fwd_us: Some(110),
            dispatch_us: Some(130),
            home_us: Some(160),
            reply_us: Some(180),
            resume_us: 200,
        };
        let segs = s.segments();
        assert_eq!(segs.len(), 5);
        let sum: u64 = segs.iter().map(|(_, a, b)| b - a).sum();
        assert_eq!(sum, s.total_us());
        assert_eq!(segs[0].0, "fwd");
        assert_eq!(segs.last().unwrap().0, "resume");
    }

    #[test]
    fn local_spans_have_two_segments() {
        let s = OpSpan {
            thread: ThreadId(0),
            seq: 0,
            class: OpClass::Read,
            pipelined: true,
            issue_us: 50,
            fwd_us: None,
            dispatch_us: Some(60),
            home_us: None,
            reply_us: Some(70),
            resume_us: 90,
        };
        let segs = s.segments();
        assert_eq!(
            segs.iter().map(|(n, _, _)| *n).collect::<Vec<_>>(),
            vec!["dispatch", "reply", "resume"]
        );
        let sum: u64 = segs.iter().map(|(_, a, b)| b - a).sum();
        assert_eq!(sum, 40);
    }
}
