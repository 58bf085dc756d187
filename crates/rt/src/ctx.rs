//! The application-thread side of the real-time kernel: the one client
//! path ([`munin_sim::Client`]) over an [`RtPort`]. Threads run whenever
//! the OS runs them, submit ops to their node through the fabric's
//! [`OpPort`], and park on a private [`ResumeSlot`], waking periodically to
//! check the stall watchdog's poison flag, so a wedged protocol tears the
//! thread down (with a panic the harness reports) instead of hanging.
//!
//! A pipelined op leaves its thread when the thread is about to park: the
//! port is flushed only before a wait for a result not queued yet and
//! before modelled compute. On TCP a window of `Op` frames so leaves in one
//! socket write, whichever node the thread is placed on.

use crate::fabric::{NodeEvent, Shared};
use crate::world::{ComputeMode, RtTuning};
use munin_obs::{wall_us, AccessKind, OpClass};
use munin_sim::{Client, DsmOp, OpResult, Port, ResumeSlot, TakeError};
use munin_types::ThreadId;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a blocked thread wakes to check for poisoning.
const POISON_POLL: Duration = Duration::from_millis(25);

/// Where an application thread's ops enter its node: the node server's
/// inbox (this impl on the inbox `Sender`), or on TCP node 0's step run
/// inline and the coordinator's link to node j. Per-thread issue order is
/// the order the node's op gate sees.
pub trait OpPort: Send {
    /// Hand `op` to the node; it is on its way for certain once
    /// [`OpPort::flush`] returned. A `pipelined` op (async, or a combined
    /// write) may wait for the flush; a blocking op is waited for at once.
    /// `false` means the fabric is gone (teardown).
    fn submit(&mut self, thread: ThreadId, op: DsmOp, pipelined: bool) -> bool;

    /// Push out whatever `submit` queued: called only when the thread is
    /// about to park, and before modelled compute.
    fn flush(&mut self) {}
}

impl<P: Send + Sync> OpPort for Sender<NodeEvent<P>> {
    fn submit(&mut self, thread: ThreadId, op: DsmOp, _pipelined: bool) -> bool {
        self.send(NodeEvent::Op(thread, op)).is_ok()
    }
}

/// Handle through which application code talks to the real-time DSM.
pub type RtCtx = Client<RtPort>;

/// The wall-clock fabrics' [`Port`]: the fabric's [`OpPort`], the resume
/// slot with its poison polling, modelled compute and telemetry.
pub struct RtPort {
    thread: ThreadId,
    pub(crate) to_server: Box<dyn OpPort>,
    slot: Arc<ResumeSlot>,
    pub(crate) shared: Arc<Shared>,
    tuning: RtTuning,
    /// Ops submitted so far: the client's sequence numbers.
    submitted: u64,
    /// Each op in flight, oldest first, while telemetry is on.
    issued: VecDeque<Issued>,
}

/// What telemetry keeps of one op in flight.
struct Issued {
    seq: u64,
    class: OpClass,
    pipelined: bool,
    at: Instant,
    /// Wall stamp at issue (µs since epoch); 0 unless spans are on.
    wall: u64,
}

/// Classify an op for the latency recorders.
fn op_class(op: &DsmOp) -> OpClass {
    match op {
        DsmOp::Alloc(_) => OpClass::Alloc,
        DsmOp::Read { .. } => OpClass::Read,
        DsmOp::Write { .. } => OpClass::Write,
        DsmOp::AtomicFetchAdd { .. } => OpClass::FetchAdd,
        DsmOp::Lock(_) => OpClass::Lock,
        DsmOp::Unlock(_) => OpClass::Unlock,
        DsmOp::BarrierWait(_) => OpClass::Barrier,
        DsmOp::CondWait { .. } | DsmOp::CondSignal { .. } => OpClass::Cond,
        DsmOp::Flush => OpClass::Flush,
        _ => OpClass::Other,
    }
}

impl RtPort {
    /// A port over `to_server`, the fabric's [`OpPort`] for this thread's
    /// node (every fabric hosts its application threads in this process;
    /// the port points each at its logical node).
    pub(crate) fn new(
        thread: ThreadId,
        to_server: Box<dyn OpPort>,
        slot: Arc<ResumeSlot>,
        shared: Arc<Shared>,
        tuning: RtTuning,
    ) -> Self {
        RtPort { thread, to_server, slot, shared, tuning, submitted: 0, issued: VecDeque::new() }
    }

    /// Park for the next result: flush the port first, and wake every
    /// [`POISON_POLL`] to check the watchdog's flag. Every wait ends here,
    /// so none can miss poisoning.
    fn park(&mut self, wait_label: &'static str) -> OpResult {
        self.to_server.flush();
        self.shared.blocked.fetch_add(1, Ordering::SeqCst);
        let result = loop {
            match self.slot.take_timeout(POISON_POLL) {
                Ok(r) => break r,
                Err(TakeError::TimedOut) => {
                    if self.shared.is_poisoned() {
                        panic!(
                            "real-time kernel stalled while thread was blocked in '{wait_label}'"
                        );
                    }
                }
                Err(TakeError::Closed) => {
                    panic!("real-time kernel tore down while thread was blocked in '{wait_label}'")
                }
            }
        };
        self.shared.blocked.fetch_sub(1, Ordering::SeqCst);
        result
    }
}

impl Port for RtPort {
    /// Refuse new calls once the run is poisoned: on a distributed run a
    /// lost peer poisons the world while threads whose ops still succeed
    /// locally grind on, stretching teardown from milliseconds to the whole
    /// remaining run. (The message prefix marks this as a teardown
    /// consequence, not an application bug — see `drive_app_thread`.) Then
    /// count the call, and note the access against its object for the
    /// per-object telemetry (one branch when telemetry is off).
    fn begin(&mut self, op: &DsmOp) {
        if self.shared.is_poisoned() {
            panic!("real-time kernel poisoned before '{}' was issued", op.label());
        }
        self.shared.ops.fetch_add(1, Ordering::Relaxed);
        if !self.tuning.telemetry.enabled() {
            return;
        }
        let (obj, kind) = match op {
            DsmOp::Read { obj, .. } => (obj, AccessKind::Read),
            DsmOp::Write { obj, .. } => (obj, AccessKind::Write),
            DsmOp::AtomicFetchAdd { obj, .. } => (obj, AccessKind::Atomic),
            _ => return,
        };
        self.shared.obs.note_access(*obj, kind);
    }

    fn submit(&mut self, op: DsmOp, pipelined: bool) {
        let label = op.label();
        self.submitted += 1;
        let class = op_class(&op);
        let wall = if self.tuning.telemetry.spans() { wall_us() } else { 0 };
        if !self.to_server.submit(self.thread, op, pipelined) {
            panic!("real-time kernel vanished while issuing '{label}'");
        }
        if self.tuning.telemetry.enabled() {
            let seq = self.submitted;
            self.issued.push_back(Issued { seq, class, pipelined, at: Instant::now(), wall });
        }
    }

    /// The single client-side completion point: every op's latency is
    /// recorded here, and the client half of its span when enabled. A
    /// pipelined op's result already queued is taken without a flush, so
    /// the ops issued meanwhile leave together once the slot runs dry; a
    /// blocking op goes straight to the flush and the wait.
    fn take(&mut self, pipelined: bool, wait_label: &'static str) -> OpResult {
        let queued = pipelined.then(|| self.slot.take_timeout(Duration::ZERO).ok()).flatten();
        let result = queued.unwrap_or_else(|| self.park(wait_label));
        if let Some(op) = self.issued.pop_front() {
            let observed = u64::try_from(op.at.elapsed().as_micros()).unwrap_or(u64::MAX);
            let obs = &self.shared.obs;
            obs.record_op(self.thread, op.class, op.pipelined, observed);
            if self.tuning.telemetry.spans() {
                obs.client_span(self.thread, op.seq, op.class, op.pipelined, op.wall, wall_us());
            }
        }
        result
    }

    /// Modelled compute runs on the calling thread, never on the server:
    /// that locality is what lets workers compute in parallel.
    fn compute(&mut self, us: u64) -> bool {
        if us > 0 && self.tuning.compute == ComputeMode::Sleep {
            // Going away for `us`: let queued async ops travel meanwhile.
            self.to_server.flush();
            std::thread::sleep(Duration::from_micros(us));
        }
        true
    }

    fn now_us(&mut self) -> u64 {
        self.shared.now_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_sim::client::WC_MAX_BYTES;
    use munin_sim::{DsmThread, MAX_INFLIGHT};
    use munin_types::{BarrierId, ByteRange, NodeId, ObjectId, TokenState};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::{channel, Receiver};

    fn lone_ctx() -> (RtCtx, Receiver<NodeEvent<()>>, Arc<ResumeSlot>) {
        let (op_tx, op_rx) = channel();
        let slot = Arc::new(ResumeSlot::new());
        let shared = Arc::new(Shared::new(Vec::new(), 1, munin_types::Telemetry::default()));
        let port =
            RtPort::new(ThreadId(0), Box::new(op_tx), slot.clone(), shared, RtTuning::default());
        (RtCtx::new(port, ThreadId(0), NodeId(0), 1, 1), op_rx, slot)
    }

    /// A node that answers on flush: each op `submit` queued is completed
    /// (with its issue number) only when the context flushes the port, and
    /// the flushes are counted.
    struct AnswerOnFlush {
        slot: Arc<ResumeSlot>,
        submitted: i64,
        answered: i64,
        flushes: Arc<AtomicUsize>,
    }

    impl OpPort for AnswerOnFlush {
        fn submit(&mut self, _thread: ThreadId, _op: DsmOp, _pipelined: bool) -> bool {
            self.submitted += 1;
            true
        }

        fn flush(&mut self) {
            self.flushes.fetch_add(1, Ordering::Relaxed);
            for v in self.answered + 1..=self.submitted {
                self.slot.deliver(OpResult::Value(v));
            }
            self.answered = self.submitted;
        }
    }

    /// `lone_ctx` over an [`AnswerOnFlush`] port; the counter is its flushes.
    fn flush_counting_ctx() -> (RtCtx, Arc<AtomicUsize>, Arc<ResumeSlot>) {
        let (mut ctx, _op_rx, slot) = lone_ctx();
        let flushes = Arc::new(AtomicUsize::new(0));
        ctx.port_mut().to_server = Box::new(AnswerOnFlush {
            slot: slot.clone(),
            submitted: 0,
            answered: 0,
            flushes: flushes.clone(),
        });
        (ctx, flushes, slot)
    }

    /// The flush rule: the port is flushed only when the thread is about to
    /// park. A 32-op async run on a window of 16 parks twice, once when the
    /// 17th issue finds the slot empty and once when the 17th token does;
    /// every other result is already queued and taken without a flush.
    #[test]
    fn a_pipelined_run_flushes_only_when_the_slot_runs_dry() {
        let (mut ctx, flushes, _slot) = flush_counting_ctx();
        let add = DsmOp::AtomicFetchAdd { obj: ObjectId(0), offset: 0, delta: 1 };
        let tokens: Vec<TokenState> = (0..32).map(|_| ctx.op_async(add.clone())).collect();
        assert_eq!(flushes.load(Ordering::Relaxed), 1, "the full window parked once");
        let got: Vec<i64> = tokens.into_iter().map(|t| ctx.token_wait(t)).collect();
        assert_eq!(got, (1..=32).collect::<Vec<_>>());
        assert_eq!(flushes.load(Ordering::Relaxed), 2, "the 17th token parked once more");
        ctx.drain_ops();
        assert_eq!(flushes.load(Ordering::Relaxed), 2, "nothing left to drain");
    }

    /// A lone blocking op flushes exactly once, before it parks, even when
    /// its result is already queued (a local hit on an inline port): it
    /// makes no try on the slot first. Modelled compute flushes too.
    #[test]
    fn a_lone_blocking_op_and_compute_each_flush_once() {
        let (mut ctx, flushes, slot) = flush_counting_ctx();
        assert_eq!(ctx.fetch_add(ObjectId(0), 0, 1), 1);
        assert_eq!(flushes.load(Ordering::Relaxed), 1);
        slot.deliver(OpResult::Value(7));
        assert_eq!(ctx.fetch_add(ObjectId(0), 0, 1), 7, "the queued result, not the flush's");
        assert_eq!(flushes.load(Ordering::Relaxed), 2);
        ctx.op(DsmOp::Compute(1));
        assert_eq!(flushes.load(Ordering::Relaxed), 3);
    }

    /// Regression (PR 7 satellite): a thread blocked redeeming a token must
    /// see watchdog poisoning just like a thread blocked in a sync op —
    /// before the unified wait path, only `send_and_wait` poison-polled and
    /// a token waiter could have hung until the channel disconnected.
    #[test]
    fn blocked_token_waiter_sees_poison() {
        let (mut ctx, _op_rx, _res) = lone_ctx();
        let state = ctx.op_async(DsmOp::AtomicFetchAdd { obj: ObjectId(0), offset: 0, delta: 1 });
        assert!(matches!(state, TokenState::Pending(_)));
        ctx.port().shared.poisoned.store(true, Ordering::Release);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.token_wait(state);
        }))
        .expect_err("token wait must panic on a poisoned run");
        let msg = munin_sim::panic_message(&*err);
        assert!(
            msg.contains("real-time kernel stalled while thread was blocked in 'token_wait'"),
            "unexpected panic: {msg}"
        );
    }

    /// The issue path refuses new ops (sync or async) once poisoned.
    #[test]
    fn poisoned_issue_refuses_async_ops() {
        let (mut ctx, _op_rx, _res) = lone_ctx();
        ctx.port().shared.poisoned.store(true, Ordering::Release);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.op_async(DsmOp::AtomicFetchAdd { obj: ObjectId(0), offset: 0, delta: 1 });
        }))
        .expect_err("async issue must panic on a poisoned run");
        let msg = munin_sim::panic_message(&*err);
        assert!(msg.contains("poisoned before 'fetch-add' was issued"), "unexpected: {msg}");
    }

    /// Write combining folds contiguous writes into one op and any
    /// non-write op flushes the buffer first (program order on the wire).
    #[test]
    fn write_combining_coalesces_and_flushes_in_order() {
        let (mut ctx, op_rx, res) = lone_ctx();
        ctx.write(ObjectId(3), 0, vec![1, 2, 3, 4]);
        ctx.write(ObjectId(3), 4, vec![5, 6]); // appends
        ctx.write(ObjectId(3), 2, vec![9, 9]); // contained overwrite
        assert!(op_rx.try_recv().is_err(), "writes must buffer client-side");
        // A read flushes the combined write first, then issues itself.
        res.deliver(OpResult::Unit); // combined write completes
        res.deliver(OpResult::Bytes(vec![0u8; 4])); // read completes
        let bytes = ctx.read(ObjectId(3), ByteRange::new(0, 4));
        assert_eq!(bytes.len(), 4);
        let NodeEvent::Op(_, DsmOp::Write { obj, range, data }) =
            op_rx.try_recv().expect("combined write first")
        else {
            panic!("expected the combined write")
        };
        assert_eq!(obj, ObjectId(3));
        assert_eq!((range.start, range.len), (0, 6));
        assert_eq!(data, vec![1, 2, 9, 9, 5, 6]);
        let NodeEvent::Op(_, DsmOp::Read { .. }) = op_rx.try_recv().expect("then the read") else {
            panic!("expected the read")
        };
        // Ops counted per app-level call: 3 writes + 1 read.
        assert_eq!(ctx.port().shared.ops.load(Ordering::Relaxed), 4);
    }

    /// Disjoint writes to the same object don't merge: the first is emitted
    /// (async) and the second starts a fresh buffer.
    #[test]
    fn write_combining_splits_disjoint_ranges() {
        let (mut ctx, op_rx, _res) = lone_ctx();
        ctx.write(ObjectId(1), 0, vec![1, 2]);
        ctx.write(ObjectId(1), 100, vec![3, 4]);
        let NodeEvent::Op(_, DsmOp::Write { range, .. }) =
            op_rx.try_recv().expect("first range emitted on split")
        else {
            panic!("expected a write")
        };
        assert_eq!((range.start, range.len), (0, 2));
        assert!(op_rx.try_recv().is_err(), "second range still buffering");
    }

    /// A write overlapping the buffer's front edge rebuilds the buffer
    /// around both ranges, with the later write winning on the overlap.
    #[test]
    fn write_combining_merges_a_prepending_overlap() {
        let (mut ctx, op_rx, res) = lone_ctx();
        ctx.write(ObjectId(2), 4, vec![1, 2, 3, 4]); // buffer [4, 8)
        ctx.write(ObjectId(2), 2, vec![9, 9, 9]); // [2, 5): extends front, overwrites 4
        assert!(op_rx.try_recv().is_err(), "overlap must merge, not emit");
        res.deliver(OpResult::Unit);
        ctx.drain_ops();
        let NodeEvent::Op(_, DsmOp::Write { range, data, .. }) =
            op_rx.try_recv().expect("one merged write")
        else {
            panic!("expected a write")
        };
        assert_eq!((range.start, range.len), (2, 6));
        assert_eq!(data, vec![9, 9, 9, 2, 3, 4]);
    }

    /// Writes to distinct objects never merge, however adjacent the byte
    /// ranges look: the first buffer is emitted and the second starts fresh.
    #[test]
    fn write_combining_does_not_merge_across_objects() {
        let (mut ctx, op_rx, _res) = lone_ctx();
        ctx.write(ObjectId(1), 0, vec![1, 2]);
        ctx.write(ObjectId(2), 2, vec![3, 4]); // would append if same object
        let NodeEvent::Op(_, DsmOp::Write { obj, .. }) =
            op_rx.try_recv().expect("first object's buffer emitted")
        else {
            panic!("expected a write")
        };
        assert_eq!(obj, ObjectId(1));
        assert!(op_rx.try_recv().is_err(), "second object still buffering");
    }

    /// The combining buffer respects its byte ceiling: a merge that would
    /// exceed `WC_MAX_BYTES` emits the old buffer instead, and a single
    /// write at or above the ceiling is emitted immediately.
    #[test]
    fn write_combining_respects_the_byte_cap() {
        let (mut ctx, op_rx, res) = lone_ctx();
        let half = WC_MAX_BYTES / 2 + 1; // two halves together exceed the cap
        ctx.write(ObjectId(1), 0, vec![7u8; half]);
        ctx.write(ObjectId(1), half as u32, vec![8u8; half]); // adjacent, too big
        let NodeEvent::Op(_, DsmOp::Write { range, .. }) =
            op_rx.try_recv().expect("over-cap merge emits the old buffer")
        else {
            panic!("expected a write")
        };
        assert_eq!((range.start, range.len as usize), (0, half));
        assert!(op_rx.try_recv().is_err(), "the new write starts a fresh buffer");

        res.deliver(OpResult::Unit); // the emitted first buffer
        res.deliver(OpResult::Unit); // the second buffer, flushed now
        ctx.drain_ops();
        let _ = op_rx.try_recv();
        ctx.write(ObjectId(1), 0, vec![9u8; WC_MAX_BYTES]);
        let NodeEvent::Op(_, DsmOp::Write { range, .. }) =
            op_rx.try_recv().expect("an at-cap write is emitted immediately")
        else {
            panic!("expected a write")
        };
        assert_eq!(range.len as usize, WC_MAX_BYTES);
    }

    /// Adjacent stores separated by a sync op must NOT merge: release
    /// consistency pins the first write before the sync point. The wire
    /// order is write / barrier / write even though the byte ranges touch.
    #[test]
    fn sync_op_splits_adjacent_stores() {
        let (mut ctx, op_rx, res) = lone_ctx();
        ctx.write(ObjectId(5), 0, vec![1, 2]);
        res.deliver(OpResult::Unit); // flushed combined write
        res.deliver(OpResult::Unit); // the barrier itself
        ctx.barrier(BarrierId(0));
        ctx.write(ObjectId(5), 2, vec![3, 4]); // adjacent to the first
        res.deliver(OpResult::Unit);
        ctx.drain_ops();
        let mut kinds = Vec::new();
        while let Ok(NodeEvent::Op(_, op)) = op_rx.try_recv() {
            kinds.push(match op {
                DsmOp::Write { range, .. } => format!("write[{},{})", range.start, range.len),
                DsmOp::BarrierWait(_) => "barrier".to_string(),
                other => panic!("unexpected op: {other:?}"),
            });
        }
        assert_eq!(kinds, ["write[0,2)", "barrier", "write[2,2)"]);
    }

    /// A drain that parks on in-flight ops sees watchdog poisoning — the
    /// explicit-drain analogue of the blocked-token-waiter regression.
    #[test]
    fn blocked_drain_sees_poison() {
        let (mut ctx, _op_rx, _res) = lone_ctx();
        ctx.op_async(DsmOp::AtomicFetchAdd { obj: ObjectId(0), offset: 0, delta: 1 });
        ctx.port().shared.poisoned.store(true, Ordering::Release);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.drain_ops();
        }))
        .expect_err("drain must panic on a poisoned run");
        let msg = munin_sim::panic_message(&*err);
        assert!(
            msg.contains("real-time kernel stalled while thread was blocked in 'drain'"),
            "unexpected panic: {msg}"
        );
    }

    /// A thread parked in a blocking op whose slot closes under it (the
    /// fabric tore down) unwinds at once, naming the op, instead of
    /// waiting for a poison flag nobody will set.
    #[test]
    fn a_closed_slot_tears_down_a_parked_thread() {
        let (mut ctx, _op_rx, res) = lone_ctx();
        let closer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            res.close();
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.fetch_add(ObjectId(0), 0, 1);
        }))
        .expect_err("a closed slot must tear the blocked thread down");
        closer.join().unwrap();
        let msg = munin_sim::panic_message(&*err);
        assert!(
            msg.contains("real-time kernel tore down while thread was blocked in 'fetch-add'"),
            "unexpected panic: {msg}"
        );
        assert!(!ctx.port().shared.is_poisoned(), "no watchdog was involved");
    }

    /// Fail closed: an errored op whose token was never redeemed must not
    /// survive a drain (= sync point) silently.
    #[test]
    fn unredeemed_errored_token_fails_the_next_drain() {
        let (mut ctx, _op_rx, res) = lone_ctx();
        let _token = ctx.op_async(DsmOp::AtomicFetchAdd { obj: ObjectId(0), offset: 0, delta: 1 });
        res.deliver(OpResult::Err(munin_types::DsmError::UnknownObject(ObjectId(0))));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.drain_ops();
        }))
        .expect_err("an errored claimed op must fail the drain");
        let msg = munin_sim::panic_message(&*err);
        assert!(
            msg.contains("asynchronous 'fetch-add' failed before a sync point"),
            "unexpected panic: {msg}"
        );
    }

    /// The in-flight window cap makes the (cap+1)-th async issue wait for
    /// the oldest completion instead of queueing without bound.
    #[test]
    fn inflight_window_caps_at_max_inflight() {
        let (mut ctx, op_rx, res) = lone_ctx();
        let add = DsmOp::AtomicFetchAdd { obj: ObjectId(0), offset: 0, delta: 1 };
        let tokens: Vec<TokenState> =
            (0..MAX_INFLIGHT).map(|_| ctx.op_async(add.clone())).collect();
        res.deliver(OpResult::Value(10));
        let last = ctx.op_async(add);
        assert!(res.take_timeout(Duration::ZERO).is_err(), "issue retired the oldest op");
        assert_eq!(op_rx.try_iter().count(), MAX_INFLIGHT + 1);
        // The first op completed out from under the window; its token
        // redeems from the claimable set without touching the slot.
        assert_eq!(ctx.token_wait(tokens[0]), 10);
        for v in 11..=(10 + MAX_INFLIGHT as i64) {
            res.deliver(OpResult::Value(v));
        }
        assert_eq!(ctx.token_wait(last), 10 + MAX_INFLIGHT as i64);
        drop(op_rx);
    }
}
