//! The application-thread side of the simulation.
//!
//! Application code receives a [`ThreadCtx`]: the one [`Client`] over the
//! simulator's [`SimPort`]. Each application thread is a fiber on the
//! thread that called `World::run`, and the world state is a `Baton` that
//! one fiber holds at a time. A submitted op is dispatched through the
//! world's op gate under the baton, and the thread runs on at the same
//! virtual instant. To take a result, it runs the event queue until an
//! event resumes some thread: itself, or another one, whose result it
//! leaves in the world state before it releases the baton and switches to
//! that thread's fiber. One thread runs at a time: runs are deterministic.

use crate::client::{Client, Port};
use crate::desc::ThreadBody;
use crate::op::{DsmOp, DsmThread, OpHead, OpResult};
use crate::report::WaitTable;
use munin_types::ThreadId;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The world state as a thread sees it: each call holds the baton while it
/// works and releases it before switching to another thread's fiber.
pub(crate) trait Baton: Send + Sync {
    /// `thread` began an application call: count and trace it.
    fn begin(&self, thread: ThreadId, op: OpHead<'_>);
    /// Dispatch `op` for `thread` through the op gate.
    fn submit(&self, thread: ThreadId, op: DsmOp);
    /// Run events until one resumes `thread`, switching to any other thread
    /// they resume first; return `thread`'s result and the virtual clock, in
    /// µs. `label` names the call it is blocked in, for a deadlock report.
    fn wait(&self, thread: ThreadId, label: &'static str) -> (OpResult, u64);
    /// The result that a switch to `thread`'s fiber brought, and the clock.
    fn resumed(&self, thread: ThreadId) -> (OpResult, u64);
    /// `thread`'s body returned or panicked (`Some(msg)`): keep its `waits`,
    /// retire it and pass the baton on for good.
    fn exit(&self, thread: ThreadId, panic: Option<String>, waits: WaitTable);
}

/// What a suspended thread unwinds with when the world tears down (deadlock,
/// handler panic). [`ThreadCtx`]'s run swallows it silently, so the run
/// reports a deadlock once, not once per blocked thread.
struct TornDown;

pub(crate) fn torn_down() -> ! {
    resume_unwind(Box::new(TornDown))
}

/// The simulator's [`Port`]: the world's baton.
pub struct SimPort {
    pub(crate) thread: ThreadId,
    pub(crate) baton: Arc<dyn Baton>,
    /// The virtual time this thread last resumed at: nothing advances the
    /// clock while it runs.
    pub(crate) now: u64,
}

/// Handle through which application code talks to the simulated DSM.
pub type ThreadCtx = Client<SimPort>;

impl Port for SimPort {
    fn begin(&mut self, head: OpHead<'_>) {
        self.baton.begin(self.thread, head);
    }

    fn submit(&mut self, op: DsmOp, _pipelined: bool) {
        self.baton.submit(self.thread, op);
    }

    fn take(&mut self, _pipelined: bool, wait_label: &'static str) -> OpResult {
        let (result, now) = self.baton.wait(self.thread, wait_label);
        self.now = now;
        result
    }

    fn now_us(&mut self) -> u64 {
        self.now
    }
}

impl ThreadCtx {
    /// A simulated thread's whole life, on its fiber: take the t=0 resume,
    /// run `body`, exit, and report a panic as a run error.
    pub(crate) fn run(mut self, body: ThreadBody) {
        let thread = self.thread_id();
        let baton = self.port().baton.clone();
        let result = catch_unwind(AssertUnwindSafe(|| {
            baton.resumed(thread);
            body(&mut self);
            // Graceful exit is itself a synchronization point (flushes the
            // delayed update queue).
            self.op(DsmOp::Exit);
        }));
        let panic = result.err().filter(|p| !p.is::<TornDown>()).map(|p| panic_message(&*p));
        baton.exit(thread, panic, self.into_waits());
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
    use munin_types::{ByteRange, NodeId, ObjectId};
    use std::sync::Mutex;

    #[derive(Default)]
    struct FakeBaton(Mutex<Vec<(ThreadId, DsmOp)>>);

    impl Baton for FakeBaton {
        fn begin(&self, _thread: ThreadId, _op: OpHead<'_>) {}
        fn submit(&self, thread: ThreadId, op: DsmOp) {
            self.0.lock().unwrap().push((thread, op));
        }
        fn wait(&self, _thread: ThreadId, _label: &'static str) -> (OpResult, u64) {
            (OpResult::Unit, 0)
        }
        fn resumed(&self, _thread: ThreadId) -> (OpResult, u64) {
            (OpResult::Unit, 0)
        }
        fn exit(&self, _thread: ThreadId, _panic: Option<String>, _waits: WaitTable) {}
    }

    fn fake_ctx() -> (ThreadCtx, Arc<FakeBaton>) {
        let baton = Arc::new(FakeBaton::default());
        let port = SimPort { thread: ThreadId(3), baton: baton.clone(), now: 0 };
        (Client::new(port, ThreadId(3), NodeId(1), 4, 8), baton)
    }

    #[test]
    fn write_encodes_range_from_data_len() {
        let (mut ctx, baton) = fake_ctx();
        ctx.write(ObjectId(5), 8, vec![1, 2, 3]);
        ctx.drain_ops();
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
