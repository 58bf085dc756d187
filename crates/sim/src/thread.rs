//! The application-thread side of the simulation.
//!
//! Application code receives a [`ThreadCtx`] and performs blocking DSM
//! operations on it. There is no event-loop thread: the world state is a
//! [`Baton`] that exactly one application thread holds at a time. An
//! operation takes the baton, dispatches itself and runs the event queue on
//! the calling thread until an event resumes some thread. If that is the
//! caller, the operation returns without a thread switch; otherwise the
//! caller wakes that thread and parks until an event resumes it in turn.
//! Exactly one application thread executes at any wall-clock moment, which
//! is what makes runs deterministic.

use crate::op::{DsmOp, OpResult};
use crossbeam_channel::Receiver;
use munin_types::{BarrierId, ByteRange, CondId, LockId, NodeId, ObjectDecl, ObjectId, ThreadId};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The world state as a thread sees it: each call holds the baton until it
/// returns.
pub(crate) trait Baton: Send + Sync {
    /// Dispatch `op` for `thread`, then run events until one resumes a
    /// thread: `Some(result)` if that is `thread` itself, `None` if `thread`
    /// must park on its resume channel.
    fn op(&self, thread: ThreadId, op: DsmOp) -> Option<OpResult>;
    /// `thread`'s body returned (`None`) or panicked (`Some(msg)`): retire
    /// it and pass the baton on.
    fn exit(&self, thread: ThreadId, panic: Option<String>);
}

/// The payload a parked thread unwinds with when the world tears down
/// (deadlock, handler panic); [`ThreadCtx::run`] swallows it silently.
struct TornDown;

/// Handle through which application code talks to the simulated DSM.
pub struct ThreadCtx {
    pub(crate) thread: ThreadId,
    pub(crate) node: NodeId,
    pub(crate) n_nodes: usize,
    pub(crate) n_threads: usize,
    pub(crate) baton: Arc<dyn Baton>,
    pub(crate) resume_rx: Receiver<OpResult>,
}

impl ThreadCtx {
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

    /// Issue a raw operation and block until it completes.
    ///
    /// If the world tears down while this thread is blocked, it unwinds
    /// with a private payload that its wrapper swallows: the run reports
    /// the deadlock once, not once per blocked thread.
    pub fn op(&mut self, op: DsmOp) -> OpResult {
        match self.baton.op(self.thread, op) {
            Some(result) => result,
            None => self.park(),
        }
    }

    /// Wait until an event resumes this thread.
    fn park(&self) -> OpResult {
        self.resume_rx.recv().unwrap_or_else(|_| resume_unwind(Box::new(TornDown)))
    }

    /// A simulated thread's whole life: wait for the t=0 resume, run `body`,
    /// exit, and report a panic as a run error.
    pub(crate) fn run(mut self, body: impl FnOnce(&mut ThreadCtx)) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.park();
            body(&mut self);
            // Graceful exit is itself a synchronization point (flushes the
            // delayed update queue).
            self.op(DsmOp::Exit);
        }));
        let panic = match result {
            Ok(()) => None,
            Err(p) if p.is::<TornDown>() => return,
            Err(p) => Some(panic_message(&*p)),
        };
        self.baton.exit(self.thread, panic);
    }

    // ---- convenience wrappers -------------------------------------------

    /// Allocate a shared object; the declaration's `id` and `home` fields are
    /// filled in by the runtime (home = this thread's node).
    pub fn alloc(&mut self, decl: ObjectDecl) -> ObjectId {
        self.op(DsmOp::Alloc(decl)).into_object()
    }

    /// Read a byte range of an object.
    pub fn read(&mut self, obj: ObjectId, range: ByteRange) -> Vec<u8> {
        self.op(DsmOp::Read { obj, range }).into_bytes()
    }

    /// Read a byte range of an object into a caller-owned buffer
    /// (`out.len()` must equal `range.len`). The op still returns one owned
    /// buffer from the server side, but the caller-facing path allocates
    /// nothing, which is what the typed API layers on.
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

    /// Write bytes at `start` within an object.
    pub fn write(&mut self, obj: ObjectId, start: u32, data: Vec<u8>) {
        let range = ByteRange::new(start, data.len() as u32);
        self.op(DsmOp::Write { obj, range, data }).expect_unit();
    }

    /// Write borrowed bytes at `start` within an object. One copy into the
    /// owned [`DsmOp`] is inherent; the caller keeps its buffer.
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

    /// Mark the beginning of program phase `n` (phase 0 = initialization; the
    /// first call with `n >= 1` publishes write-once objects).
    pub fn phase(&mut self, n: u32) {
        self.op(DsmOp::Phase(n)).expect_unit();
    }

    /// Spend `us` microseconds of virtual compute time.
    pub fn compute(&mut self, us: u64) {
        self.op(DsmOp::Compute(us)).expect_unit();
    }
}

fn panic_message(p: &(dyn Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    // ThreadCtx is exercised end-to-end in world.rs tests; here we only pin
    // down the request encoding of the convenience wrappers via a fake
    // baton that records each dispatched op and completes it at once.
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct FakeBaton(Mutex<Vec<(ThreadId, DsmOp)>>);

    impl Baton for FakeBaton {
        fn op(&self, thread: ThreadId, op: DsmOp) -> Option<OpResult> {
            self.0.lock().unwrap().push((thread, op));
            Some(OpResult::Unit)
        }
        fn exit(&self, _thread: ThreadId, _panic: Option<String>) {}
    }

    fn fake_ctx() -> (ThreadCtx, Arc<FakeBaton>) {
        let baton = Arc::new(FakeBaton::default());
        let ctx = ThreadCtx {
            thread: ThreadId(3),
            node: NodeId(1),
            n_nodes: 4,
            n_threads: 8,
            baton: baton.clone(),
            resume_rx: crossbeam_channel::unbounded().1,
        };
        (ctx, baton)
    }

    #[test]
    fn write_encodes_range_from_data_len() {
        let (mut ctx, baton) = fake_ctx();
        ctx.write(ObjectId(5), 8, vec![1, 2, 3]);
        let ops = baton.0.lock().unwrap();
        match &ops[..] {
            [(ThreadId(3), DsmOp::Write { obj, range, data })] => {
                assert_eq!(*obj, ObjectId(5));
                assert_eq!(*range, ByteRange::new(8, 3));
                assert_eq!(*data, vec![1, 2, 3]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn metadata_accessors() {
        let (ctx, _baton) = fake_ctx();
        assert_eq!(ctx.thread_id(), ThreadId(3));
        assert_eq!(ctx.node(), NodeId(1));
        assert_eq!(ctx.n_nodes(), 4);
        assert_eq!(ctx.n_threads(), 8);
    }
}
