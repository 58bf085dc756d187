//! Deadlock teardown is quiet: threads still blocked when the event queue
//! runs dry leave without panicking, so a deadlock prints nothing per
//! thread and is reported once, as a run error.
//!
//! A file of its own because it installs a process-wide panic hook.

use munin_net::{MsgClass, PayloadInfo};
use munin_sim::{
    DsmOp, DsmThread, KernelApi, NullTracer, OpOutcome, Server, TransportConfig, World, WorldDesc,
};
use munin_types::{ByteRange, NodeId, ObjectId, ThreadId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Never;

impl PayloadInfo for Never {
    fn class(&self) -> MsgClass {
        MsgClass::Control
    }
    fn kind(&self) -> &'static str {
        "Never"
    }
    fn wire_bytes(&self) -> usize {
        0
    }
}

/// Blocks every read forever.
struct BlackHole;

impl Server for BlackHole {
    type Payload = Never;
    fn on_op(&mut self, _k: &mut dyn KernelApi<Never>, _t: ThreadId, op: DsmOp) -> OpOutcome {
        match op {
            DsmOp::Read { .. } => OpOutcome::Blocked,
            _ => OpOutcome::unit(0),
        }
    }
    fn on_message(&mut self, _k: &mut dyn KernelApi<Never>, _f: NodeId, _p: Never) {}
}

#[test]
fn blocked_threads_leave_a_deadlock_without_panicking() {
    let panics = Arc::new(AtomicUsize::new(0));
    let seen = panics.clone();
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        seen.fetch_add(1, Ordering::SeqCst);
        default_hook(info);
    }));

    let mut b = WorldDesc::new(1);
    for _ in 0..3 {
        b.spawn(NodeId(0), |ctx: &mut dyn DsmThread| {
            ctx.read(ObjectId(0), ByteRange::new(0, 4));
        });
    }
    let report =
        World::new(b, vec![BlackHole], TransportConfig::default(), Box::new(NullTracer)).run();

    assert!(report.deadlocked);
    assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
    assert!(report.errors[0].starts_with("deadlock: 3 thread(s)"), "{:?}", report.errors);
    assert_eq!(panics.load(Ordering::SeqCst), 0, "a blocked thread panicked on teardown");
}
