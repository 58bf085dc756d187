//! The application-thread side of the simulation.
//!
//! Application code receives a [`ThreadCtx`] and performs blocking DSM
//! operations on it. There is no event-loop thread: the world state is a
//! [`Baton`] that exactly one application thread holds at a time. An
//! operation takes the baton, dispatches itself and runs the event queue on
//! the calling thread until an event resumes some thread. If that is the
//! caller, the operation returns without a thread switch; otherwise the
//! caller queues the result in that thread's [`ResumeSlot`], releases the
//! baton, and only then wakes that thread and parks until an event resumes
//! it in turn (a thread woken under the baton would block on it at once).
//! Exactly one application thread executes at any wall-clock moment, which
//! is what makes runs deterministic.

use crate::desc::ThreadBody;
use crate::op::{DsmOp, DsmThread, OpResult};
use crate::resume::ResumeSlot;
use munin_types::{NodeId, ThreadId};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The world state as a thread sees it: each call holds the baton until it
/// returns.
pub(crate) trait Baton: Send + Sync {
    /// Dispatch `op` for `thread`, then run events until one resumes a
    /// thread: `Some(result)` if that is `thread` itself, `None` if `thread`
    /// must park on its resume slot.
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
    pub(crate) slot: Arc<ResumeSlot>,
}

impl DsmThread for ThreadCtx {
    /// Issue a raw operation and block until it completes.
    ///
    /// If the world tears down while this thread is blocked, it unwinds
    /// with a private payload that its wrapper swallows: the run reports
    /// the deadlock once, not once per blocked thread.
    fn op(&mut self, op: DsmOp) -> OpResult {
        match self.baton.op(self.thread, op) {
            Some(result) => result,
            None => self.park(),
        }
    }

    fn thread_id(&self) -> ThreadId {
        self.thread
    }

    fn node(&self) -> NodeId {
        self.node
    }

    fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    fn n_threads(&self) -> usize {
        self.n_threads
    }
}

impl ThreadCtx {
    /// Wait until an event resumes this thread.
    fn park(&self) -> OpResult {
        self.slot.take().unwrap_or_else(|_| resume_unwind(Box::new(TornDown)))
    }

    /// A simulated thread's whole life: wait for the t=0 resume, run `body`,
    /// exit, and report a panic as a run error.
    pub(crate) fn run(mut self, body: ThreadBody) {
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
}

/// The text of a caught panic payload (every kernel reports application
/// and step panics through this).
pub fn panic_message(p: &(dyn Any + Send)) -> String {
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
    use munin_types::{ByteRange, ObjectId};
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
            slot: Arc::new(ResumeSlot::new()),
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
