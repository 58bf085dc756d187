//! The per-world collector both fabrics thread through their shared
//! state.
//!
//! One `ObsCollector` lives in the rt kernel's `Shared` (each process of
//! the TCP fabric has its own and the wire carries the server halves
//! home). Layout is strictly per-thread: the client-side recorders are
//! touched only by the owning application thread, the server-side state
//! only by the (single) server loop currently holding that thread's op —
//! so the mutexes below are uncontended by construction and exist to make
//! concurrent snapshots sound, not to arbitrate writers.
//!
//! Everything is preallocated at construction: recording never allocates.

use crate::hist::{AtomicHistogram, OpClass};
use crate::snapshot::{join_spans, ClassStat, MetricsSnapshot, ObjectStat};
use crate::span::{ClientSpan, Ring, SrvSpan};
use crate::wall_us;
use munin_net::NetStats;
use munin_types::{ObjectId, Telemetry, ThreadId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Spans kept per thread (client ring, server ring and home-stamp ring
/// each): the observability tail a failing run ships with its artifacts.
pub const SPAN_RING_CAP: usize = 128;

/// Slots in the fixed per-object access table. Objects beyond the table's
/// reach are counted in `overflow` rather than dropped silently.
pub const OBJ_TABLE_SLOTS: usize = 64;

/// Expected upper bound on ops queued between wire arrival and gate
/// dispatch (the client windows in-flight ops far below this).
const ARRIVAL_QUEUE_CAP: usize = 1024;

/// Most server halves one thread keeps open at once (the client windows
/// in-flight ops below this). A dispatch beyond it closes the oldest half
/// on the spot, so an op that never resumed cannot grow the queue.
const OPEN_HALVES_CAP: usize = 64;

/// What an access did to an object — feeds the per-object counters the
/// future retyping detectors read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
    Atomic,
}

/// Server-side per-thread span state. The gate may hold several of one
/// thread's ops in the server at once, but they complete in dispatch order,
/// so the open halves are a FIFO and each completion closes the oldest.
#[derive(Debug)]
struct SrvState {
    /// Wire-forward stamps for ops that arrived but are not yet
    /// dispatched (queued in the gate). FIFO matches dispatch order.
    arrivals: VecDeque<u64>,
    /// Dispatches counted so far — the server half of the span seq.
    next_seq: u64,
    /// (seq, fwd_us, dispatch_us) of each op currently in the server,
    /// oldest first.
    open: VecDeque<(u64, u64, u64)>,
    done: Ring<SrvSpan>,
}

#[derive(Debug)]
struct ThreadObs {
    /// `[class][blocking|pipelined]` latency recorders.
    hist: Vec<AtomicHistogram>,
    client: Mutex<Ring<ClientSpan>>,
    srv: Mutex<SrvState>,
    homes: Mutex<Ring<u64>>,
}

impl ThreadObs {
    fn new() -> Self {
        ThreadObs {
            hist: (0..OpClass::COUNT * 2).map(|_| AtomicHistogram::default()).collect(),
            client: Mutex::new(Ring::new(SPAN_RING_CAP)),
            srv: Mutex::new(SrvState {
                arrivals: VecDeque::with_capacity(ARRIVAL_QUEUE_CAP),
                next_seq: 0,
                open: VecDeque::with_capacity(OPEN_HALVES_CAP),
                done: Ring::new(SPAN_RING_CAP),
            }),
            homes: Mutex::new(Ring::new(SPAN_RING_CAP)),
        }
    }
}

/// Fixed-size per-object access counters: open addressing over
/// [`OBJ_TABLE_SLOTS`] slots, claimed by CAS on first touch. A full table
/// counts further objects in `overflow` — no allocation, ever.
#[derive(Debug)]
struct ObjTable {
    keys: Vec<AtomicU64>,
    reads: Vec<AtomicU64>,
    writes: Vec<AtomicU64>,
    atomics: Vec<AtomicU64>,
    overflow: AtomicU64,
}

impl ObjTable {
    fn new() -> Self {
        ObjTable {
            keys: (0..OBJ_TABLE_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            reads: (0..OBJ_TABLE_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            writes: (0..OBJ_TABLE_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            atomics: (0..OBJ_TABLE_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
        }
    }

    fn note(&self, obj: ObjectId, kind: AccessKind) {
        let key = obj.0.wrapping_add(1);
        let start = (obj.0 as usize) % OBJ_TABLE_SLOTS;
        for probe in 0..OBJ_TABLE_SLOTS {
            let i = (start + probe) % OBJ_TABLE_SLOTS;
            let k = self.keys[i].load(Ordering::Relaxed);
            let claimed = k == key
                || (k == 0
                    && self.keys[i]
                        .compare_exchange(0, key, Ordering::Relaxed, Ordering::Relaxed)
                        .map(|_| true)
                        .unwrap_or_else(|cur| cur == key));
            if claimed {
                let ctr = match kind {
                    AccessKind::Read => &self.reads[i],
                    AccessKind::Write => &self.writes[i],
                    AccessKind::Atomic => &self.atomics[i],
                };
                ctr.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.overflow.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> (Vec<ObjectStat>, u64) {
        let mut out = Vec::new();
        for i in 0..OBJ_TABLE_SLOTS {
            let k = self.keys[i].load(Ordering::Relaxed);
            if k == 0 {
                continue;
            }
            out.push(ObjectStat {
                obj: ObjectId(k - 1),
                reads: self.reads[i].load(Ordering::Relaxed),
                writes: self.writes[i].load(Ordering::Relaxed),
                atomics: self.atomics[i].load(Ordering::Relaxed),
            });
        }
        out.sort_by_key(|s| s.obj.0);
        (out, self.overflow.load(Ordering::Relaxed))
    }
}

/// The collector: one per world (per process on the TCP fabric).
#[derive(Debug)]
pub struct ObsCollector {
    mode: Telemetry,
    threads: Vec<ThreadObs>,
    objects: ObjTable,
}

impl ObsCollector {
    pub fn new(mode: Telemetry, n_threads: usize) -> Self {
        // With telemetry off, size nothing: the collector is a branch.
        let slots = if mode.enabled() { n_threads } else { 0 };
        ObsCollector {
            mode,
            threads: (0..slots).map(|_| ThreadObs::new()).collect(),
            objects: ObjTable::new(),
        }
    }

    pub fn mode(&self) -> Telemetry {
        self.mode
    }

    pub fn enabled(&self) -> bool {
        self.mode.enabled()
    }

    pub fn spans(&self) -> bool {
        self.mode.spans()
    }

    #[inline]
    fn slot(&self, t: ThreadId) -> Option<&ThreadObs> {
        self.threads.get(t.0 as usize)
    }

    // ---- client side (the op hot path) --------------------------------

    /// Record one completed op's wall latency.
    #[inline]
    pub fn record_op(&self, t: ThreadId, class: OpClass, pipelined: bool, us: u64) {
        if let Some(s) = self.slot(t) {
            s.hist[class.index() * 2 + pipelined as usize].record(us);
        }
    }

    /// Count an application-level access against its object.
    #[inline]
    pub fn note_access(&self, obj: ObjectId, kind: AccessKind) {
        if self.mode.enabled() {
            self.objects.note(obj, kind);
        }
    }

    /// Record the client half of a span (called at the token wait).
    pub fn client_span(
        &self,
        t: ThreadId,
        seq: u64,
        class: OpClass,
        pipelined: bool,
        issue_us: u64,
        resume_us: u64,
    ) {
        if !self.mode.spans() {
            return;
        }
        if let Some(s) = self.slot(t) {
            s.client.lock().unwrap_or_else(|p| p.into_inner()).push(ClientSpan {
                seq,
                class,
                pipelined,
                issue_us,
                resume_us,
            });
        }
    }

    // ---- serving side -------------------------------------------------

    /// A forwarded op for `t` just came off the wire (TCP children only);
    /// remember its forward stamp for the dispatch that will follow.
    pub fn note_wire_arrival(&self, t: ThreadId, fwd_us: u64) {
        if !self.mode.spans() || fwd_us == 0 {
            return;
        }
        if let Some(s) = self.slot(t) {
            s.srv.lock().unwrap_or_else(|p| p.into_inner()).arrivals.push_back(fwd_us);
        }
    }

    /// The gate just handed `t`'s next op to the protocol server: stamp
    /// it and assign the next per-thread seq.
    pub fn srv_dispatch(&self, t: ThreadId) {
        if !self.mode.spans() {
            return;
        }
        if let Some(s) = self.slot(t) {
            let mut srv = s.srv.lock().unwrap_or_else(|p| p.into_inner());
            // Only ops that never resumed can fill the queue; close the
            // oldest degenerately so seq alignment survives.
            if srv.open.len() == OPEN_HALVES_CAP {
                let (seq, fwd, disp) = srv.open.pop_front().expect("queue is full");
                srv.done.push(SrvSpan { seq, fwd_us: fwd, dispatch_us: disp, reply_us: disp });
            }
            // Pre-increment: the client numbers issues starting at 1, and
            // gate dispatches happen once per issue in the same order.
            srv.next_seq += 1;
            let seq = srv.next_seq;
            let fwd = srv.arrivals.pop_front().unwrap_or(0);
            srv.open.push_back((seq, fwd, wall_us()));
        }
    }

    /// The oldest op the server holds for `t` just produced its result:
    /// stamp the reply, file the span, and return it (the TCP child
    /// attaches it to the `Resume` frame).
    pub fn srv_finish(&self, t: ThreadId) -> Option<SrvSpan> {
        if !self.mode.spans() {
            return None;
        }
        let s = self.slot(t)?;
        let mut srv = s.srv.lock().unwrap_or_else(|p| p.into_inner());
        let (seq, fwd_us, dispatch_us) = srv.open.pop_front()?;
        let span = SrvSpan { seq, fwd_us, dispatch_us, reply_us: wall_us() };
        srv.done.push(span);
        Some(span)
    }

    /// Ingest a server half that arrived over the wire (coordinator side).
    pub fn srv_record(&self, t: ThreadId, span: SrvSpan) {
        if !self.mode.spans() {
            return;
        }
        if let Some(s) = self.slot(t) {
            s.srv.lock().unwrap_or_else(|p| p.into_inner()).done.push(span);
        }
    }

    /// The home node just handled the authoritative part of an op issued
    /// by `t` (e.g. the fetch-add at the object's home).
    pub fn srv_home(&self, t: ThreadId) {
        if !self.mode.spans() {
            return;
        }
        if let Some(s) = self.slot(t) {
            s.homes.lock().unwrap_or_else(|p| p.into_inner()).push(wall_us());
        }
    }

    /// Drain the home stamps for shipping in a TCP child's `Done` frame.
    pub fn take_homes(&self) -> Vec<(ThreadId, u64)> {
        if !self.mode.spans() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (i, s) in self.threads.iter().enumerate() {
            let t = ThreadId(i as u32);
            for us in s.homes.lock().unwrap_or_else(|p| p.into_inner()).take_in_order() {
                out.push((t, us));
            }
        }
        out
    }

    /// Ingest home stamps shipped from a remote node.
    pub fn ingest_homes(&self, homes: &[(ThreadId, u64)]) {
        if !self.mode.spans() {
            return;
        }
        for (t, us) in homes {
            if let Some(s) = self.slot(*t) {
                s.homes.lock().unwrap_or_else(|p| p.into_inner()).push(*us);
            }
        }
    }

    // ---- snapshot ------------------------------------------------------

    /// Merge everything recorded so far into a [`MetricsSnapshot`]. Safe
    /// to call while the world is still running (the SIGUSR1 path does);
    /// concurrent recording simply lands in the next snapshot.
    pub fn snapshot(&self, net: NetStats) -> MetricsSnapshot {
        let mut hists: Vec<ClassStat> = Vec::new();
        for class in OpClass::ALL {
            for pipelined in [false, true] {
                let mut merged = crate::Histogram::default();
                for s in &self.threads {
                    let h = &s.hist[class.index() * 2 + pipelined as usize];
                    if !h.is_empty() {
                        merged.merge(&h.snapshot());
                    }
                }
                if !merged.is_empty() {
                    hists.push(ClassStat { class, pipelined, hist: merged });
                }
            }
        }
        let (objects, objects_overflow) = self.objects.snapshot();

        let mut spans = Vec::new();
        let mut spans_dropped = 0u64;
        if self.mode.spans() {
            for (i, s) in self.threads.iter().enumerate() {
                let t = ThreadId(i as u32);
                let client = s.client.lock().unwrap_or_else(|p| p.into_inner());
                let srv = s.srv.lock().unwrap_or_else(|p| p.into_inner());
                let homes = s.homes.lock().unwrap_or_else(|p| p.into_inner());
                spans_dropped += client.dropped + srv.done.dropped;
                let clients: Vec<_> = client.iter_in_order().copied().collect();
                let srvs: Vec<_> = srv.done.iter_in_order().copied().collect();
                let home_stamps: Vec<u64> = homes.iter_in_order().copied().collect();
                spans.extend(join_spans(t, &clients, &srvs, &home_stamps));
            }
        }

        MetricsSnapshot {
            telemetry: self.mode,
            hists,
            objects,
            objects_overflow,
            net,
            spans,
            spans_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_mode_records_nothing() {
        let c = ObsCollector::new(Telemetry::Off, 2);
        c.record_op(ThreadId(0), OpClass::Read, false, 10);
        c.note_access(ObjectId(3), AccessKind::Read);
        c.srv_dispatch(ThreadId(0));
        assert!(c.srv_finish(ThreadId(0)).is_none());
        let snap = c.snapshot(NetStats::default());
        assert!(snap.hists.is_empty());
        assert!(snap.objects.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn counters_mode_fills_histograms_and_objects() {
        let c = ObsCollector::new(Telemetry::Counters, 2);
        c.record_op(ThreadId(0), OpClass::FetchAdd, false, 7);
        c.record_op(ThreadId(1), OpClass::FetchAdd, false, 9);
        c.record_op(ThreadId(1), OpClass::FetchAdd, true, 3);
        c.note_access(ObjectId(5), AccessKind::Atomic);
        c.note_access(ObjectId(5), AccessKind::Atomic);
        c.note_access(ObjectId(6), AccessKind::Write);
        let snap = c.snapshot(NetStats::default());
        let blocking = snap
            .hists
            .iter()
            .find(|h| h.class == OpClass::FetchAdd && !h.pipelined)
            .expect("blocking fetch-add histogram");
        assert_eq!(blocking.hist.count, 2);
        assert_eq!(blocking.hist.sum_us, 16);
        let piped = snap
            .hists
            .iter()
            .find(|h| h.class == OpClass::FetchAdd && h.pipelined)
            .expect("pipelined fetch-add histogram");
        assert_eq!(piped.hist.count, 1);
        assert_eq!(snap.objects.len(), 2);
        assert_eq!(snap.objects[0].atomics, 2);
        assert_eq!(snap.objects[1].writes, 1);
        // Counters mode keeps no spans.
        c.srv_dispatch(ThreadId(0));
        assert!(c.srv_finish(ThreadId(0)).is_none());
    }

    #[test]
    fn spans_join_client_server_and_home_halves() {
        let c = ObsCollector::new(Telemetry::Spans, 1);
        let t = ThreadId(0);
        // Op 0: dispatched and finished, with a home stamp in-window.
        c.note_wire_arrival(t, wall_us());
        c.srv_dispatch(t);
        c.srv_home(t);
        let srv = c.srv_finish(t).expect("server half");
        assert_eq!(srv.seq, 1, "seq numbering starts at 1, like the client's");
        assert!(srv.fwd_us > 0 && srv.reply_us >= srv.dispatch_us);
        c.client_span(t, 1, OpClass::FetchAdd, false, srv.fwd_us - 1, srv.reply_us + 1);
        let snap = c.snapshot(NetStats::default());
        assert_eq!(snap.spans.len(), 1);
        let s = &snap.spans[0];
        assert_eq!(s.seq, 1);
        assert_eq!(s.class, OpClass::FetchAdd);
        assert!(s.fwd_us.is_some());
        assert!(s.home_us.is_some(), "home stamp should match the dispatch..reply window");
        assert!(s.reply_us.is_some());
        let sum: u64 = s.segments().iter().map(|(_, a, b)| b - a).sum();
        assert_eq!(sum, s.total_us());
    }

    #[test]
    fn object_table_overflow_counts_instead_of_dropping() {
        let c = ObsCollector::new(Telemetry::Counters, 1);
        for i in 0..(OBJ_TABLE_SLOTS as u64 + 10) {
            c.note_access(ObjectId(i), AccessKind::Read);
        }
        let snap = c.snapshot(NetStats::default());
        assert_eq!(snap.objects.len(), OBJ_TABLE_SLOTS);
        assert_eq!(snap.objects_overflow, 10);
    }

    #[test]
    fn homes_round_trip_through_take_and_ingest() {
        let child = ObsCollector::new(Telemetry::Spans, 2);
        child.srv_home(ThreadId(1));
        child.srv_home(ThreadId(1));
        let shipped = child.take_homes();
        assert_eq!(shipped.len(), 2);
        assert!(child.take_homes().is_empty(), "take drains");
        let coord = ObsCollector::new(Telemetry::Spans, 2);
        coord.ingest_homes(&shipped);
        // Join them: fabricate matching client+server halves around them.
        let t = ThreadId(1);
        let us = shipped[0].1;
        coord.srv_record(t, SrvSpan { seq: 0, fwd_us: 0, dispatch_us: us - 1, reply_us: us + 1 });
        coord.client_span(t, 0, OpClass::Lock, false, us - 2, us + 2);
        let snap = coord.snapshot(NetStats::default());
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].home_us, Some(us));
    }
}
