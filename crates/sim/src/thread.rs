//! The application-thread side of the simulation.
//!
//! Application code receives a [`ThreadCtx`]: the one [`Client`] over the
//! simulator's [`SimPort`]. The world state is a `Baton` that one
//! application thread holds at a time. A submitted op is dispatched through
//! the world's op gate under the baton, and the thread runs on at the same
//! virtual instant. To take a result, it runs the event queue until an
//! event resumes some thread: itself, or another one, whose result it
//! queues in that thread's [`ResumeSlot`] before it releases the baton,
//! wakes that thread and parks. Exactly one application thread executes
//! at any moment, which is what makes runs deterministic.

use crate::client::{Client, Port};
use crate::desc::ThreadBody;
use crate::op::{DsmOp, DsmThread, OpHead, OpResult};
use crate::report::WaitTable;
use crate::resume::ResumeSlot;
use munin_types::ThreadId;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The world state as a thread sees it: each call holds the baton until it
/// returns.
pub(crate) trait Baton: Send + Sync {
    /// `thread` began an application call: count and trace it.
    fn begin(&self, thread: ThreadId, op: OpHead<'_>);
    /// Dispatch `op` for `thread` through the op gate. `false` means a
    /// protocol handler panicked: the world is ending.
    fn submit(&self, thread: ThreadId, op: DsmOp) -> bool;
    /// Run events until one resumes a thread: `Some(result)` if that is
    /// `thread` itself, `None` if `thread` must park on its resume slot.
    /// `label` names the call it is blocked in, for a deadlock report.
    fn wait(&self, thread: ThreadId, label: &'static str) -> Option<OpResult>;
    /// The virtual clock, in µs.
    fn now(&self) -> u64;
    /// `thread`'s body returned (`None`) or panicked (`Some(msg)`): retire
    /// it and pass the baton on.
    fn exit(&self, thread: ThreadId, panic: Option<String>);
}

/// The payload a parked thread unwinds with when the world tears down
/// (deadlock, handler panic); [`ThreadCtx`]'s run swallows it silently.
struct TornDown;

/// The simulator's [`Port`]: the world's baton, and the slot this thread
/// parks on.
pub struct SimPort {
    pub(crate) thread: ThreadId,
    pub(crate) baton: Arc<dyn Baton>,
    pub(crate) slot: Arc<ResumeSlot>,
    /// The virtual time this thread last resumed at: nothing advances the
    /// clock while it runs.
    pub(crate) now: u64,
}

/// Handle through which application code talks to the simulated DSM.
pub type ThreadCtx = Client<SimPort>;

impl SimPort {
    /// Wait until an event resumes this thread. If the world tears down
    /// meanwhile, unwind with a private payload that the thread's run
    /// swallows: the run reports the deadlock once, not once per blocked
    /// thread.
    fn park(&mut self) -> OpResult {
        self.slot.take().unwrap_or_else(|_| resume_unwind(Box::new(TornDown)))
    }
}

impl Port for SimPort {
    fn begin(&mut self, head: OpHead<'_>) {
        self.baton.begin(self.thread, head);
    }

    fn submit(&mut self, op: DsmOp, _pipelined: bool) {
        if !self.baton.submit(self.thread, op) {
            self.park();
        }
    }

    fn take(&mut self, _pipelined: bool, wait_label: &'static str) -> OpResult {
        let result = match self.baton.wait(self.thread, wait_label) {
            Some(result) => result,
            None => self.park(),
        };
        self.now = self.baton.now();
        result
    }

    fn now_us(&mut self) -> u64 {
        self.now
    }
}

impl ThreadCtx {
    /// A simulated thread's whole life: wait for the t=0 resume, run `body`,
    /// exit, and report a panic as a run error. Returns its wait table.
    pub(crate) fn run(mut self, body: ThreadBody) -> WaitTable {
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.port_mut().park();
            body(&mut self);
            // Graceful exit is itself a synchronization point (flushes the
            // delayed update queue).
            self.op(DsmOp::Exit);
        }));
        let panic = match result {
            Ok(()) => None,
            Err(p) if p.is::<TornDown>() => return self.into_waits(),
            Err(p) => Some(panic_message(&*p)),
        };
        self.port().baton.exit(self.thread_id(), panic);
        self.into_waits()
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
        fn submit(&self, thread: ThreadId, op: DsmOp) -> bool {
            self.0.lock().unwrap().push((thread, op));
            true
        }
        fn wait(&self, _thread: ThreadId, _label: &'static str) -> Option<OpResult> {
            Some(OpResult::Unit)
        }
        fn now(&self) -> u64 {
            0
        }
        fn exit(&self, _thread: ThreadId, _panic: Option<String>) {}
    }

    fn fake_ctx() -> (ThreadCtx, Arc<FakeBaton>) {
        let baton = Arc::new(FakeBaton::default());
        let port = SimPort {
            thread: ThreadId(3),
            baton: baton.clone(),
            slot: Arc::new(ResumeSlot::new()),
            now: 0,
        };
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
