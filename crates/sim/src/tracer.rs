//! Tracing hooks.
//!
//! The sharing study (paper §2) needs a per-access record of who touched
//! what, when, and how; the kernel emits one [`TraceEvent`] per application
//! call and per message. The default tracer is a no-op with zero
//! allocation on the hot path.

use crate::op::DsmOp;
use munin_net::MsgClass;
use munin_types::{NodeId, ThreadId, VirtualTime};

/// One observable event inside the kernel.
#[derive(Debug, Clone)]
pub enum TraceEvent<'a> {
    /// A thread made an application call (a combined write is traced as
    /// the calls it was made of).
    OpIssued { at: VirtualTime, thread: ThreadId, node: NodeId, op: &'a DsmOp },
    /// A message was placed on the wire.
    MessageSent {
        at: VirtualTime,
        src: NodeId,
        dst: NodeId,
        class: MsgClass,
        kind: &'static str,
        bytes: usize,
    },
}

/// Observer of kernel events. Implementations must be deterministic (they
/// run inside the simulation loop).
pub trait Tracer: Send {
    fn record(&mut self, event: TraceEvent<'_>);
}

/// The default no-op tracer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline]
    fn record(&mut self, _event: TraceEvent<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_is_send() {
        fn assert_send<T: Send>(_: T) {}
        assert_send(NullTracer);
    }
}
