//! The application-thread side of the real-time kernel.
//!
//! Unlike the simulator's rendezvous ([`munin_sim::ThreadCtx`]), an
//! [`RtCtx`] never hands control to a scheduler: threads run whenever the
//! OS runs them, submit operations to their node through an [`OpPort`], and
//! block on a private resume channel until the protocol completes the fault. The
//! recv loop wakes periodically to check the stall watchdog's poison flag,
//! so a wedged protocol tears the thread down (with a panic the harness
//! reports) instead of hanging the process.
//!
//! The issue path is pipelined: ops can be issued asynchronously (up to
//! [`MAX_INFLIGHT`] per thread) and completed later by a token wait or,
//! implicitly, by the next blocking op — every blocking op waits for its
//! *own* completion, which on the per-thread FIFO resume channel drains
//! everything issued before it. Adjacent writes to the same object are
//! always combined client-side and leave as one async write at the next
//! non-write op.

use crate::fabric::{NodeEvent, Shared};
use crate::world::{ComputeMode, RtTuning};
use munin_obs::{wall_us, AccessKind, OpClass};
use munin_sim::report::WaitTable;
use munin_sim::{DsmOp, OpResult};
use munin_types::{
    BarrierId, ByteRange, CondId, LockId, NodeId, ObjectDecl, ObjectId, ThreadId, TokenState,
};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most ops one thread keeps in flight before an issue blocks on the
/// oldest completion.
pub const MAX_INFLIGHT: usize = 16;

/// How often a blocked thread wakes to check for poisoning.
const POISON_POLL: Duration = Duration::from_millis(25);

/// Hard ceiling on the client-side write-combining buffer. A single
/// combined write larger than this is emitted immediately rather than
/// accumulating further.
const WC_MAX_BYTES: usize = 64 * 1024;

/// Where an application thread's ops enter its node. The in-process fabric
/// mails them to the node server's inbox (this impl on the inbox `Sender`);
/// the TCP fabric runs a node-0 thread's op inline under the node's mutex
/// and encodes a node-j thread's op onto the coordinator's link to node j.
/// Whatever the port, per-thread issue order is the order the node's op
/// gate sees.
pub trait OpPort: Send {
    /// Hand `op` to the node. A port may only queue it: it is on its way
    /// for certain once [`OpPort::flush`] returned. `false` means the
    /// fabric is gone (teardown).
    fn submit(&mut self, thread: ThreadId, op: DsmOp) -> bool;

    /// Push out whatever `submit` queued. The context calls this before it
    /// parks for a completion (a blocking op, a token wait, a full window)
    /// and before it sleeps in modelled compute.
    fn flush(&mut self) {}
}

impl<P: Send + Sync> OpPort for Sender<NodeEvent<P>> {
    fn submit(&mut self, thread: ThreadId, op: DsmOp) -> bool {
        self.send(NodeEvent::Op(thread, op)).is_ok()
    }
}

/// One op this thread has issued but not yet seen complete.
#[derive(Clone, Copy)]
struct InFlight {
    seq: u64,
    label: &'static str,
    issued: Instant,
    /// A token exists that may later claim this op's result. Unclaimed
    /// non-unit results are dropped at receive time — except errors, which
    /// panic immediately (fail-closed: a combined write with no token must
    /// not fail silently).
    claimed: bool,
    /// Latency-accounting class (telemetry).
    class: OpClass,
    /// Issued through the async path (telemetry splits blocking from
    /// pipelined latencies — they measure different things).
    pipelined: bool,
    /// Wall stamp at issue (µs since epoch); 0 unless spans are on.
    issue_wall: u64,
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

/// The client-side write-combining buffer: one contiguous byte range of one
/// object, absorbed from consecutive `write` calls.
struct WcBuf {
    obj: ObjectId,
    start: u32,
    data: Vec<u8>,
}

/// Handle through which application code talks to the real-time DSM.
pub struct RtCtx<P> {
    pub(crate) thread: ThreadId,
    pub(crate) node: NodeId,
    pub(crate) n_nodes: usize,
    pub(crate) n_threads: usize,
    pub(crate) to_server: Box<dyn OpPort>,
    pub(crate) resume_rx: Receiver<OpResult>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) tuning: RtTuning,
    /// Real-microsecond wait accounting per op label (feeds the report's
    /// `thread_waits`, same shape as the simulator's virtual-time table).
    pub(crate) waits: WaitTable,
    /// Sequence number of the most recently issued op (0 = none yet).
    next_seq: u64,
    /// Highest sequence whose result has been taken off the resume channel.
    received_through: u64,
    /// In-flight ops, oldest first. The per-thread server-side op gate
    /// completes ops in issue order, so the resume channel is a FIFO over
    /// exactly this queue.
    pending: VecDeque<InFlight>,
    /// Completed-but-unredeemed token results (`seq`, label, result).
    claimable: Vec<(u64, &'static str, OpResult)>,
    /// Pending write-combining buffer, flushed by any non-write op.
    wc: Option<WcBuf>,
    /// The protocol payload type of the world this context belongs to (the
    /// harness picks the `Par` impl by it); the context itself never
    /// touches a payload.
    _payload: PhantomData<fn() -> P>,
}

impl<P> RtCtx<P> {
    /// Assemble a context over `to_server`, the fabric's [`OpPort`] for this
    /// thread's node. `munin-tcp`'s coordinator hosts every application
    /// thread and uses this to point each one at its logical node.
    pub fn new(
        thread: ThreadId,
        node: NodeId,
        n_nodes: usize,
        n_threads: usize,
        to_server: Box<dyn OpPort>,
        resume_rx: Receiver<OpResult>,
        shared: Arc<Shared>,
        tuning: RtTuning,
    ) -> Self {
        RtCtx {
            thread,
            node,
            n_nodes,
            n_threads,
            to_server,
            resume_rx,
            shared,
            tuning,
            waits: WaitTable::new(),
            next_seq: 0,
            received_through: 0,
            pending: VecDeque::new(),
            claimable: Vec::new(),
            wc: None,
            _payload: PhantomData,
        }
    }

    /// This thread's global id.
    pub fn thread_id(&self) -> ThreadId {
        self.thread
    }

    /// The node this thread runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Total nodes in the world.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Total application threads in the world.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Issue a raw operation and block until the protocol completes it.
    ///
    /// `Compute` never reaches the server: the calling thread performs it
    /// locally according to [`ComputeMode`] — that locality is exactly what
    /// lets workers compute in parallel.
    ///
    /// Waiting for this op's own completion drains every async op issued
    /// before it (the resume channel is a per-thread FIFO), which is what
    /// makes every blocking op — and so every sync point — an implicit
    /// `drain`, as release consistency requires.
    ///
    /// Panics if the watchdog poisoned the run (the panic is caught by the
    /// harness wrapper and reported as a run error, mirroring the
    /// simulator's deadlock teardown).
    pub fn op(&mut self, op: DsmOp) -> OpResult {
        let label = op.label();
        self.check_issue_poison(label);
        let issued = Instant::now();
        self.shared.ops.fetch_add(1, Ordering::Relaxed);
        self.note_access(&op);
        let result = if let DsmOp::Compute(us) = op {
            // Executed locally, but still counted as an op with a wait-table
            // row so rt and simulator reports stay comparable.
            self.compute_inner(us);
            OpResult::Unit
        } else {
            self.flush_wc();
            let seq = self.issue(op, label, false, false);
            self.wait_seq(seq, label)
        };
        self.record_wait(label, issued);
        result
    }

    /// Issue an operation without waiting; returns a token state redeemable
    /// with [`RtCtx::token_wait`]. Writes go through the combining buffer
    /// and come back [`TokenState::Ready`] — the combined op is emitted
    /// (still async) by the next non-write op.
    pub fn op_async(&mut self, op: DsmOp) -> TokenState {
        let label = op.label();
        self.check_issue_poison(label);
        let issued = Instant::now();
        self.shared.ops.fetch_add(1, Ordering::Relaxed);
        self.note_access(&op);
        let state = match op {
            DsmOp::Compute(us) => {
                self.compute_inner(us);
                TokenState::Ready(0)
            }
            DsmOp::Write { obj, range, data } => {
                self.wc_absorb(obj, range.start, data);
                TokenState::Ready(0)
            }
            other => {
                self.flush_wc();
                let seq = self.issue(other, label, true, true);
                TokenState::Pending(seq)
            }
        };
        self.record_wait(label, issued);
        state
    }

    /// Redeem a token: the raw result of the async op (0 for unit results).
    pub fn token_wait(&mut self, state: TokenState) -> i64 {
        match state {
            TokenState::Ready(v) => v,
            TokenState::Pending(seq) => {
                let issued = Instant::now();
                let result = self.wait_seq(seq, "token_wait");
                self.record_wait("token_wait", issued);
                match result {
                    OpResult::Unit => 0,
                    OpResult::Value(v) => v,
                    OpResult::Err(e) => panic!("asynchronous op failed: {e}"),
                    other => panic!("async token redeemed a non-scalar result: {other:?}"),
                }
            }
        }
    }

    /// Complete every in-flight op (including the write-combining buffer).
    /// Blocking ops do this implicitly; applications only need it to bound
    /// the in-flight window by hand.
    pub fn drain_ops(&mut self) {
        self.flush_wc();
        if !self.pending.is_empty() {
            let issued = Instant::now();
            while !self.pending.is_empty() {
                let (seq, label, claimed, r) = self.receive_one("drain");
                self.park_result(seq, label, claimed, r);
            }
            self.record_wait("drain", issued);
        }
        // Fail closed: an errored op whose token was never redeemed must
        // not survive a drain (= sync point) silently.
        if let Some((_, label, OpResult::Err(e))) =
            self.claimable.iter().find(|(_, _, r)| matches!(r, OpResult::Err(_)))
        {
            panic!("asynchronous '{label}' failed before a sync point: {e}");
        }
    }

    // ---- the pipelined issue/receive machinery --------------------------

    /// Issue-time poison check: on a distributed run a lost peer poisons
    /// the world while threads whose ops still succeed locally are
    /// unblocked — without this check they would grind on until their
    /// bodies finish, stretching teardown from milliseconds to the whole
    /// remaining run. (The message prefix marks this as a teardown
    /// consequence, not an application bug — see `drive_app_thread`.)
    fn check_issue_poison(&self, label: &'static str) {
        if self.shared.is_poisoned() {
            panic!("real-time kernel poisoned before '{label}' was issued");
        }
    }

    /// Count the application-level access against its object (feeds the
    /// per-object telemetry the retyping detectors will read). One branch
    /// when telemetry is off.
    #[inline]
    fn note_access(&self, op: &DsmOp) {
        if !self.tuning.telemetry.enabled() {
            return;
        }
        match op {
            DsmOp::Read { obj, .. } => self.shared.obs.note_access(*obj, AccessKind::Read),
            DsmOp::Write { obj, .. } => self.shared.obs.note_access(*obj, AccessKind::Write),
            DsmOp::AtomicFetchAdd { obj, .. } => {
                self.shared.obs.note_access(*obj, AccessKind::Atomic)
            }
            _ => {}
        }
    }

    fn record_wait(&mut self, label: &'static str, issued: Instant) {
        let waited = u64::try_from(issued.elapsed().as_micros()).unwrap_or(u64::MAX);
        let e = self.waits.entry(label).or_insert((0, 0));
        e.0 += 1;
        e.1 += waited;
    }

    /// Mail one op to the server and enqueue it in the in-flight window,
    /// first making room if the window is full.
    fn issue(&mut self, op: DsmOp, label: &'static str, claimed: bool, pipelined: bool) -> u64 {
        while self.pending.len() >= MAX_INFLIGHT {
            let (seq, l, c, r) = self.receive_one(label);
            self.park_result(seq, l, c, r);
        }
        let class = op_class(&op);
        let issue_wall = if self.tuning.telemetry.spans() { wall_us() } else { 0 };
        if !self.to_server.submit(self.thread, op) {
            panic!("real-time kernel vanished while issuing '{label}'");
        }
        self.next_seq += 1;
        let seq = self.next_seq;
        self.pending.push_back(InFlight {
            seq,
            label,
            issued: Instant::now(),
            claimed,
            class,
            pipelined,
            issue_wall,
        });
        seq
    }

    /// Block until op `seq` completes and return its result. Earlier
    /// in-flight results received along the way are parked for their
    /// tokens (or dropped if unit/unclaimed).
    fn wait_seq(&mut self, seq: u64, wait_label: &'static str) -> OpResult {
        if seq <= self.received_through {
            return self.claim(seq);
        }
        loop {
            let (s, label, claimed, r) = self.receive_one(wait_label);
            if s == seq {
                return r;
            }
            self.park_result(s, label, claimed, r);
        }
    }

    /// Take one already-received result out of the claimable set (unit
    /// results are never stored, so absence means unit).
    fn claim(&mut self, seq: u64) -> OpResult {
        match self.claimable.iter().position(|(s, _, _)| *s == seq) {
            Some(i) => self.claimable.swap_remove(i).2,
            None => OpResult::Unit,
        }
    }

    /// File an out-of-order-received result: tokens redeem it later; unit
    /// results vanish; an error nobody holds a claim on panics now rather
    /// than getting lost.
    fn park_result(&mut self, seq: u64, label: &'static str, claimed: bool, r: OpResult) {
        match r {
            OpResult::Unit => {}
            OpResult::Err(e) if !claimed => panic!("asynchronous '{label}' failed: {e}"),
            other => {
                if claimed {
                    self.claimable.push((seq, label, other));
                }
            }
        }
    }

    /// Receive the oldest in-flight op's completion off the resume channel.
    /// `wait_label` names the op the *caller* is blocked in, for
    /// poison/teardown panics.
    fn receive_one(&mut self, wait_label: &'static str) -> (u64, &'static str, bool, OpResult) {
        let head = *self.pending.front().expect("receive with nothing in flight");
        self.shared.blocked.fetch_add(1, Ordering::SeqCst);
        let result = self.recv_result(wait_label);
        self.shared.blocked.fetch_sub(1, Ordering::SeqCst);
        self.pending.pop_front();
        self.received_through = head.seq;
        // The single client-side completion point: every op's latency is
        // recorded here, and the client half of its span when enabled.
        if self.tuning.telemetry.enabled() {
            let observed = u64::try_from(head.issued.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.shared.obs.record_op(self.thread, head.class, head.pipelined, observed);
            if self.tuning.telemetry.spans() {
                self.shared.obs.client_span(
                    self.thread,
                    head.seq,
                    head.class,
                    head.pipelined,
                    head.issue_wall,
                    wall_us(),
                );
            }
        }
        (head.seq, head.label, head.claimed, result)
    }

    /// One completion off the channel: a parked wait that wakes every
    /// [`POISON_POLL`] to check the watchdog's flag. This is the *single*
    /// wait path — blocking ops and token waits both end here, so neither
    /// can miss poisoning.
    fn recv_result(&mut self, wait_label: &'static str) -> OpResult {
        self.to_server.flush();
        loop {
            match self.resume_rx.recv_timeout(POISON_POLL) {
                Ok(r) => return r,
                Err(RecvTimeoutError::Timeout) => {
                    if self.shared.is_poisoned() {
                        panic!(
                            "real-time kernel stalled while thread was blocked in '{wait_label}'"
                        );
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("real-time kernel tore down while thread was blocked in '{wait_label}'")
                }
            }
        }
    }

    // ---- client-side write combining ------------------------------------

    /// Fold a write into the combining buffer, or flush and restart it if
    /// the write is not contiguous with what's buffered.
    fn wc_absorb(&mut self, obj: ObjectId, start: u32, data: Vec<u8>) {
        if let Some(b) = &mut self.wc {
            let bs = b.start as usize;
            let be = bs + b.data.len();
            let ns = start as usize;
            let ne = ns + data.len();
            let touches = b.obj == obj && ns <= be && ne >= bs;
            if touches {
                let merged_len = ne.max(be) - ns.min(bs);
                if merged_len <= WC_MAX_BYTES {
                    if ns == be {
                        // Common case: strictly appending (stripe fills).
                        b.data.extend_from_slice(&data);
                    } else if ns >= bs && ne <= be {
                        // Contained overwrite.
                        b.data[ns - bs..ne - bs].copy_from_slice(&data);
                    } else {
                        // General overlap/extension: rebuild around both.
                        let new_start = ns.min(bs);
                        let mut merged = vec![0u8; merged_len];
                        merged[bs - new_start..be - new_start].copy_from_slice(&b.data);
                        merged[ns - new_start..ne - new_start].copy_from_slice(&data);
                        b.start = new_start as u32;
                        b.data = merged;
                    }
                    return;
                }
            }
        }
        self.flush_wc();
        let oversized = data.len() >= WC_MAX_BYTES;
        self.wc = Some(WcBuf { obj, start, data });
        if oversized {
            self.flush_wc();
        }
    }

    /// Emit the combining buffer as one asynchronous write. Called by every
    /// non-write op *before* it issues, so per-thread program order — and
    /// with it read-your-writes — is preserved on the server's FIFO.
    fn flush_wc(&mut self) {
        let Some(b) = self.wc.take() else { return };
        let range = ByteRange::new(b.start, b.data.len() as u32);
        // Already counted in `shared.ops` once per app-level write when it
        // was absorbed; the combined emission is fabric bookkeeping.
        self.issue(DsmOp::Write { obj: b.obj, range, data: b.data }, "write", false, true);
    }

    // ---- convenience wrappers (same surface as the simulator's
    // ThreadCtx, so the API harness treats both uniformly) ----------------

    /// Allocate a shared object; `id`/`home` are filled in by the runtime.
    pub fn alloc(&mut self, decl: ObjectDecl) -> ObjectId {
        self.op(DsmOp::Alloc(decl)).into_object()
    }

    /// Read a byte range of an object.
    pub fn read(&mut self, obj: ObjectId, range: ByteRange) -> Vec<u8> {
        self.op(DsmOp::Read { obj, range }).into_bytes()
    }

    /// Read a byte range into a caller-owned buffer (`out.len()` must equal
    /// `range.len`).
    pub fn read_into(&mut self, obj: ObjectId, range: ByteRange, out: &mut [u8]) {
        let bytes = self.op(DsmOp::Read { obj, range }).into_bytes();
        assert_eq!(
            out.len(),
            bytes.len(),
            "read_into buffer is {} bytes for a {} byte range",
            out.len(),
            bytes.len()
        );
        out.copy_from_slice(&bytes);
    }

    /// Write bytes at `start` within an object. Consecutive contiguous
    /// writes coalesce client-side and complete asynchronously by the next
    /// non-write op; program order per thread is preserved.
    pub fn write(&mut self, obj: ObjectId, start: u32, data: Vec<u8>) {
        let range = ByteRange::new(start, data.len() as u32);
        // Always `Ready`: nothing to redeem, and an error of the combined
        // write fails closed in `park_result`.
        let _ = self.op_async(DsmOp::Write { obj, range, data });
    }

    /// Write borrowed bytes at `start` within an object.
    pub fn write_raw(&mut self, obj: ObjectId, start: u32, data: &[u8]) {
        self.write(obj, start, data.to_vec());
    }

    /// Atomic fetch-and-add on the i64 at `offset`; returns the old value.
    pub fn fetch_add(&mut self, obj: ObjectId, offset: u32, delta: i64) -> i64 {
        self.op(DsmOp::AtomicFetchAdd { obj, offset, delta }).into_value()
    }

    pub fn lock(&mut self, lock: LockId) {
        self.op(DsmOp::Lock(lock)).expect_unit();
    }

    pub fn unlock(&mut self, lock: LockId) {
        self.op(DsmOp::Unlock(lock)).expect_unit();
    }

    pub fn barrier(&mut self, barrier: BarrierId) {
        self.op(DsmOp::BarrierWait(barrier)).expect_unit();
    }

    /// Monitor wait: releases `lock`, waits for a signal, re-acquires.
    pub fn cond_wait(&mut self, cond: CondId, lock: LockId) {
        self.op(DsmOp::CondWait { cond, lock }).expect_unit();
    }

    pub fn cond_signal(&mut self, cond: CondId) {
        self.op(DsmOp::CondSignal { cond, broadcast: false }).expect_unit();
    }

    pub fn cond_broadcast(&mut self, cond: CondId) {
        self.op(DsmOp::CondSignal { cond, broadcast: true }).expect_unit();
    }

    /// Flush this thread's delayed update queue.
    pub fn flush(&mut self) {
        self.op(DsmOp::Flush).expect_unit();
    }

    /// Mark the beginning of program phase `n`.
    pub fn phase(&mut self, n: u32) {
        self.op(DsmOp::Phase(n)).expect_unit();
    }

    /// Perform `us` microseconds of modelled computation on *this* thread
    /// (see [`ComputeMode`]); never involves the server. Goes through
    /// [`RtCtx::op`] so the op counter and wait table see it, like the
    /// simulator's compute handling.
    pub fn compute(&mut self, us: u64) {
        self.op(DsmOp::Compute(us)).expect_unit();
    }

    fn compute_inner(&mut self, us: u64) {
        if us == 0 || self.tuning.compute == ComputeMode::Skip {
            return;
        }
        // Going away for `us`: let queued async ops travel meanwhile.
        self.to_server.flush();
        std::thread::sleep(Duration::from_micros(us));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn lone_ctx() -> (RtCtx<()>, Receiver<NodeEvent<()>>, Sender<OpResult>) {
        let (op_tx, op_rx) = channel();
        let (res_tx, res_rx) = channel();
        let shared = Arc::new(Shared::new(Vec::new(), 1, munin_types::Telemetry::default()));
        let ctx = RtCtx::new(
            ThreadId(0),
            NodeId(0),
            1,
            1,
            Box::new(op_tx),
            res_rx,
            shared,
            RtTuning::default(),
        );
        (ctx, op_rx, res_tx)
    }

    /// Regression (PR 7 satellite): a thread blocked redeeming a token must
    /// see watchdog poisoning just like a thread blocked in a sync op —
    /// before the unified wait path, only `send_and_wait` poison-polled and
    /// a token waiter could have hung until the channel disconnected.
    #[test]
    fn blocked_token_waiter_sees_poison() {
        let (mut ctx, _op_rx, _res_tx) = lone_ctx();
        let state = ctx.op_async(DsmOp::AtomicFetchAdd { obj: ObjectId(0), offset: 0, delta: 1 });
        assert!(matches!(state, TokenState::Pending(_)));
        ctx.shared.poisoned.store(true, Ordering::Release);
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
        let (mut ctx, _op_rx, _res_tx) = lone_ctx();
        ctx.shared.poisoned.store(true, Ordering::Release);
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
        let (mut ctx, op_rx, res_tx) = lone_ctx();
        ctx.write(ObjectId(3), 0, vec![1, 2, 3, 4]);
        ctx.write(ObjectId(3), 4, vec![5, 6]); // appends
        ctx.write(ObjectId(3), 2, vec![9, 9]); // contained overwrite
        assert!(op_rx.try_recv().is_err(), "writes must buffer client-side");
        // A read flushes the combined write first, then issues itself.
        res_tx.send(OpResult::Unit).unwrap(); // combined write completes
        res_tx.send(OpResult::Bytes(vec![0u8; 4])).unwrap(); // read completes
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
        assert_eq!(ctx.shared.ops.load(Ordering::Relaxed), 4);
    }

    /// Disjoint writes to the same object don't merge: the first is emitted
    /// (async) and the second starts a fresh buffer.
    #[test]
    fn write_combining_splits_disjoint_ranges() {
        let (mut ctx, op_rx, _res_tx) = lone_ctx();
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
        let (mut ctx, op_rx, res_tx) = lone_ctx();
        ctx.write(ObjectId(2), 4, vec![1, 2, 3, 4]); // buffer [4, 8)
        ctx.write(ObjectId(2), 2, vec![9, 9, 9]); // [2, 5): extends front, overwrites 4
        assert!(op_rx.try_recv().is_err(), "overlap must merge, not emit");
        res_tx.send(OpResult::Unit).unwrap();
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
        let (mut ctx, op_rx, _res_tx) = lone_ctx();
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
        let (mut ctx, op_rx, res_tx) = lone_ctx();
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

        res_tx.send(OpResult::Unit).unwrap(); // the emitted first buffer
        res_tx.send(OpResult::Unit).unwrap(); // the second buffer, flushed now
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
        let (mut ctx, op_rx, res_tx) = lone_ctx();
        ctx.write(ObjectId(5), 0, vec![1, 2]);
        res_tx.send(OpResult::Unit).unwrap(); // flushed combined write
        res_tx.send(OpResult::Unit).unwrap(); // the barrier itself
        ctx.barrier(BarrierId(0));
        ctx.write(ObjectId(5), 2, vec![3, 4]); // adjacent to the first
        res_tx.send(OpResult::Unit).unwrap();
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
        let (mut ctx, _op_rx, _res_tx) = lone_ctx();
        ctx.op_async(DsmOp::AtomicFetchAdd { obj: ObjectId(0), offset: 0, delta: 1 });
        ctx.shared.poisoned.store(true, Ordering::Release);
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

    /// Fail closed: an errored op whose token was never redeemed must not
    /// survive a drain (= sync point) silently.
    #[test]
    fn unredeemed_errored_token_fails_the_next_drain() {
        let (mut ctx, _op_rx, res_tx) = lone_ctx();
        let _token = ctx.op_async(DsmOp::AtomicFetchAdd { obj: ObjectId(0), offset: 0, delta: 1 });
        res_tx.send(OpResult::Err(munin_types::DsmError::UnknownObject(ObjectId(0)))).unwrap();
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
        let (mut ctx, op_rx, res_tx) = lone_ctx();
        let add = DsmOp::AtomicFetchAdd { obj: ObjectId(0), offset: 0, delta: 1 };
        let tokens: Vec<TokenState> =
            (0..MAX_INFLIGHT).map(|_| ctx.op_async(add.clone())).collect();
        assert_eq!(ctx.pending.len(), MAX_INFLIGHT);
        res_tx.send(OpResult::Value(10)).unwrap();
        let last = ctx.op_async(add);
        assert_eq!(ctx.pending.len(), MAX_INFLIGHT, "issue retired the oldest op to make room");
        // The first op completed out from under the window; its token
        // redeems from the claimable set without touching the channel.
        assert_eq!(ctx.token_wait(tokens[0]), 10);
        for v in 11..=(10 + MAX_INFLIGHT as i64) {
            res_tx.send(OpResult::Value(v)).unwrap();
        }
        assert_eq!(ctx.token_wait(last), 10 + MAX_INFLIGHT as i64);
        drop(op_rx);
    }
}
