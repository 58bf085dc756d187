//! One node's protocol step, shared by every wall-clock fabric.
//!
//! A [`NodeStep`] is a node's `{server, kernel, op gate}`, its kernel the
//! one [`WallKernel`] over the fabric's [`crate::Link`]. Its one entry
//! point, [`NodeStep::step`], handles a run of [`NodeEvent`]s in order
//! (dispatch through the gate / `on_message` / `on_timer` / state dump),
//! settles the completions each event caused, and ends by flushing what the
//! kernel queued outbound, under a single activity-epoch bump. The one
//! step that skips the flush is a TCP node-0 thread's pipelined op
//! ([`NodeStep::step_unflushed`]): its frames wait in the link until the
//! thread is about to park, or until any later step of the node flushes,
//! so a window of them leaves in one socket write. The fabrics differ,
//! above the link, only in *which thread* calls it:
//!
//! * the in-process channel fabric runs it on one server thread per node
//!   ([`server_loop`]: a blocking `recv`, then `try_recv`s up to
//!   `BATCH_MAX` events in all, is one step);
//! * the TCP fabric (`munin-tcp`) keeps the step behind a mutex and runs it
//!   on whichever thread already holds the event: the data-stream reader
//!   that decoded the frames, the coordinator-hosted application thread
//!   issuing an op on node 0, the timer thread. See `munin_tcp::node`.
//!
//! Either way the protocol server sees one event at a time and, through the
//! op gate, one outstanding op per thread, the concurrency model it was
//! written for; only ops the server declares ordered through one peer
//! ([`Server::ordered_peer`]) overlap.

use crate::fabric::{MsgBody, NodeEvent};
use crate::kernel::{Link, WallKernel};
use munin_net::PayloadInfo;
use munin_sim::{panic_message, DsmOp, KernelApi, OpOutcome, Server};
use munin_types::{NodeId, ThreadId};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

/// Most inbox events one channel-fabric server wake-up drains (and
/// processes under a single activity-epoch bump) before flushing its
/// outbound batches and re-checking the channel.
const BATCH_MAX: usize = 128;

/// The per-thread op gate. The protocol servers were written for one
/// outstanding op per thread (their pending structures are keyed by
/// thread), so pipelining is a *fabric* property: clients may have K ops in
/// flight, and the step feeds the server a thread's ops one at a time,
/// queueing the rest here. The one exception is an op whose
/// [`Server::ordered_peer`] names a peer: such ops complete in issue order
/// through that peer's replies, so while a thread's in-flight ops all wait
/// on one peer, its next op to the same peer goes in too. Either way
/// completions are per-thread FIFO, which is what lets the client match
/// results to tokens with a plain sequence counter.
#[derive(Default)]
struct OpGate {
    threads: Vec<GateSlot>,
}

#[derive(Default)]
struct GateSlot {
    /// Ops waiting behind the thread's in-flight ops, oldest first.
    queued: VecDeque<DsmOp>,
    /// Ops inside the server that haven't completed yet.
    inflight: u32,
    /// The peer every in-flight op completes through, when they are
    /// ordered-peer ops (`None` while `inflight` is 0).
    peer: Option<NodeId>,
}

impl OpGate {
    fn slot(&mut self, t: ThreadId) -> &mut GateSlot {
        let i = t.index();
        if i >= self.threads.len() {
            self.threads.resize_with(i + 1, Default::default);
        }
        &mut self.threads[i]
    }

    /// A Blocked dispatch put one more of `t`'s ops inside the server.
    fn admit(&mut self, t: ThreadId, peer: Option<NodeId>) {
        let s = self.slot(t);
        debug_assert!(s.inflight == 0 || (peer.is_some() && s.peer == peer));
        s.inflight += 1;
        s.peer = peer;
    }

    /// One of `t`'s blocked ops completed; once none is left, hand back the
    /// thread's next queued op, if any.
    fn complete(&mut self, t: ThreadId) -> Option<DsmOp> {
        let s = self.slot(t);
        debug_assert!(s.inflight > 0, "completion for {t:?} with no op in flight");
        s.inflight = s.inflight.saturating_sub(1);
        if s.inflight > 0 {
            return None;
        }
        s.peer = None;
        s.queued.pop_front()
    }
}

/// One node's protocol state and the step that advances it. Not `Sync` by
/// itself: exactly one thread at a time may call [`NodeStep::step`] — the
/// rt fabric owns it on the node's server thread, the TCP fabric guards it
/// with the node's mutex.
pub struct NodeStep<S, L> {
    pub server: S,
    pub kernel: WallKernel<L>,
    gate: OpGate,
}

impl<S, L> NodeStep<S, L>
where
    S: Server,
    L: Link<S::Payload>,
{
    pub fn new(server: S, kernel: WallKernel<L>) -> Self {
        NodeStep { server, kernel, gate: OpGate::default() }
    }

    /// One server step: [`NodeStep::step_unflushed`], then flush everything
    /// the kernel queued outbound, so nothing this step sent can be stranded
    /// while its caller blocks again. Returns `false` once the events
    /// contained `Shutdown`.
    pub fn step(&mut self, events: impl IntoIterator<Item = NodeEvent<S::Payload>>) -> bool {
        let live = self.step_unflushed(events);
        self.flush();
        live
    }

    /// Handle `events` in order under a single activity-epoch bump (the
    /// watchdog only needs to know the node made progress, not how much),
    /// leaving what they sent queued in the link: it leaves with the next
    /// flush, the end of any later step or [`NodeStep::flush`]. Only a
    /// caller that flushes before it waits may skip the flush: the TCP
    /// fabric's node-0 application thread, for a pipelined op.
    pub fn step_unflushed(
        &mut self,
        events: impl IntoIterator<Item = NodeEvent<S::Payload>>,
    ) -> bool {
        self.kernel.shared().mark_activity();
        events.into_iter().all(|ev| self.handle(ev))
    }

    /// Hand everything the kernel queued outbound to the fabric.
    pub fn flush(&mut self) {
        self.kernel.flush_outbound();
    }

    /// Handle one event, then settle what it completed.
    fn handle(&mut self, ev: NodeEvent<S::Payload>) -> bool {
        match ev {
            NodeEvent::Op(thread, op) => {
                // Admit at once when nothing is in flight, or when the op
                // joins in-flight ops to the same ordered peer and nothing
                // queued ahead of it.
                let slot = self.gate.slot(thread);
                let admit = slot.inflight == 0
                    || (slot.queued.is_empty()
                        && slot.peer.is_some()
                        && self.server.ordered_peer(&self.kernel, &op) == slot.peer);
                if admit {
                    self.dispatch(thread, op);
                } else {
                    slot.queued.push_back(op);
                }
            }
            NodeEvent::Msg(from, body) => self.on_message(from, body),
            // One channel op from one peer step; per-(src,dst) FIFO is the
            // vector order.
            NodeEvent::Batch(items) => {
                for (from, body) in items {
                    self.on_message(from, body);
                }
            }
            NodeEvent::Timer(token) => self.server.on_timer(&mut self.kernel, token),
            NodeEvent::Dump(reply) => {
                let _ = reply.send(self.server.debug_stuck_state());
            }
            NodeEvent::Shutdown => return false,
        }
        // Settle: any event (a Done op, a protocol message, a timer) can
        // complete other threads' blocked ops; reopen their gates and
        // dispatch what queued behind them — repeatedly, since a dispatched
        // op can itself complete further threads.
        loop {
            let completed = self.kernel.take_completions();
            if completed.is_empty() {
                return true;
            }
            for t in completed {
                if let Some(op) = self.gate.complete(t) {
                    self.dispatch(t, op);
                }
            }
        }
    }

    /// Feed one thread's op to the server, then keep feeding that thread's
    /// queue while ops complete synchronously, or while they block on the
    /// same ordered peer as the op before them. Any other Blocked outcome
    /// closes the thread's gate until the protocol calls `complete`.
    fn dispatch(&mut self, thread: ThreadId, first: DsmOp) {
        let mut next = Some(first);
        while let Some(op) = next {
            let peer = self.server.ordered_peer(&self.kernel, &op);
            // Gate dispatch *is* the protocol server's handle instant: the
            // span's dispatch timestamp and its server half open here. The
            // matching `srv_finish` happens inside the kernel's resume /
            // complete paths (whichever ends this op).
            self.kernel.shared().obs.srv_dispatch(thread);
            match self.server.on_op(&mut self.kernel, thread, op) {
                OpOutcome::Done { result, cost_us: _ } => {
                    // A Done op with a peer could overtake the in-flight
                    // ops it was admitted behind.
                    debug_assert!(peer.is_none(), "ordered-peer op completed synchronously");
                    self.kernel.resume(thread, result);
                    let slot = self.gate.slot(thread);
                    next = if slot.inflight == 0 { slot.queued.pop_front() } else { None };
                }
                OpOutcome::Blocked => {
                    self.gate.admit(thread, peer);
                    let queued = &mut self.gate.threads[thread.index()].queued;
                    next = match queued.front() {
                        Some(front)
                            if peer.is_some()
                                && self.server.ordered_peer(&self.kernel, front) == peer =>
                        {
                            queued.pop_front()
                        }
                        _ => None,
                    };
                }
            }
        }
    }

    fn on_message(&mut self, from: NodeId, body: MsgBody<S::Payload>) {
        let obs = &self.kernel.shared().obs;
        if obs.spans() {
            if let Some(t) = body.payload().span_home_thread() {
                obs.srv_home(t);
            }
        }
        self.server.on_message(&mut self.kernel, from, body.into_payload());
    }
}

/// One node's event loop on the channel fabric: single-threaded per node by
/// construction. Each wake-up takes one blocking `recv` then greedily
/// `try_recv`s up to `BATCH_MAX` events in total and hands them to
/// [`NodeStep::step`] as one step. Returns this node's traffic shard for
/// the world to merge at teardown.
///
/// A panicking step ends the loop the way it ends a TCP node's cell: one
/// error naming the node, and the run poisoned, so the threads blocked on
/// this node tear down instead of reporting a clean run.
pub(crate) fn server_loop<S, L>(
    node: NodeId,
    server: S,
    kernel: WallKernel<L>,
    inbox: Receiver<NodeEvent<S::Payload>>,
) -> munin_net::NetStats
where
    S: Server,
    L: Link<S::Payload>,
{
    let shared = kernel.shared().clone();
    let mut step = NodeStep::new(server, kernel);
    loop {
        let first = match inbox.recv_timeout(Duration::from_millis(50)) {
            Ok(ev) => ev,
            Err(RecvTimeoutError::Timeout) => {
                // An idle poll is *not* activity — bumping the epoch here
                // would reset the watchdog's stability window every 50 ms
                // and stop it from ever firing on a genuinely stalled run.
                if shared.is_poisoned() {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let rest = std::iter::from_fn(|| inbox.try_recv().ok());
        let events = std::iter::once(first).chain(rest).take(BATCH_MAX);
        match catch_unwind(AssertUnwindSafe(|| step.step(events))) {
            Ok(true) => {}
            Ok(false) => break,
            Err(p) => {
                let msg = panic_message(&*p);
                shared.error(format!("node n{}: protocol step panicked: {msg}", node.index()));
                shared.poisoned.store(true, Ordering::Release);
                break;
            }
        }
    }
    step.kernel.take_stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Shared;
    use munin_net::MsgClass;
    use munin_obs::SrvSpan;
    use munin_sim::OpResult;
    use munin_types::{ByteRange, CostModel, ObjectId, Telemetry};
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    /// The one message of the fake protocol: `from`'s reply to `thread`'s
    /// request.
    #[derive(Debug, Clone)]
    struct Reply(ThreadId);

    impl PayloadInfo for Reply {
        fn class(&self) -> MsgClass {
            MsgClass::Sync
        }
        fn kind(&self) -> &'static str {
            "Reply"
        }
        fn wire_bytes(&self) -> usize {
            0
        }
    }

    /// A fake node 0 that records the order ops reach it. A fetch-add on
    /// object `n` goes to node `n`: remote homes block on one request and
    /// are ordered through their home, node 0's own completes at once. A
    /// read blocks with no ordered peer.
    #[derive(Default)]
    struct Recorder {
        dispatched: Vec<(ThreadId, DsmOp)>,
    }

    fn home(op: &DsmOp) -> Option<NodeId> {
        match op {
            DsmOp::AtomicFetchAdd { obj, .. } => Some(NodeId(obj.0 as u16)),
            _ => None,
        }
    }

    impl Server for Recorder {
        type Payload = Reply;
        fn on_op(&mut self, _k: &mut dyn KernelApi<Reply>, t: ThreadId, op: DsmOp) -> OpOutcome {
            let local = home(&op) == Some(NodeId(0));
            self.dispatched.push((t, op));
            if local {
                OpOutcome::done(OpResult::Value(self.dispatched.len() as i64), 0)
            } else {
                OpOutcome::Blocked
            }
        }
        fn ordered_peer(&mut self, _k: &dyn KernelApi<Reply>, op: &DsmOp) -> Option<NodeId> {
            home(op).filter(|&h| h != NodeId(0))
        }
        fn on_message(&mut self, k: &mut dyn KernelApi<Reply>, _from: NodeId, msg: Reply) {
            k.complete(msg.0, OpResult::Unit, 0);
        }
    }

    /// A link that only records which thread each result resumed.
    #[derive(Default)]
    struct Resumed(Vec<ThreadId>);

    impl Link<Reply> for Resumed {
        fn send(&mut self, _dst: NodeId, _payload: Reply) {}
        fn multicast(&mut self, _dsts: &[NodeId], _payload: Reply) {}
        fn flush(&mut self) {}
        fn resume(&mut self, thread: ThreadId, _result: OpResult, _span: Option<SrvSpan>) {
            self.0.push(thread);
        }
    }

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn node() -> NodeStep<Recorder, Resumed> {
        let shared = Arc::new(Shared::new(Vec::new(), 2, Telemetry::Off));
        let (timer_tx, _) = channel();
        let kernel =
            WallKernel::new(NodeId(0), CostModel::default(), Resumed::default(), timer_tx, shared);
        NodeStep::new(Recorder::default(), kernel)
    }

    fn add(home: u64) -> DsmOp {
        DsmOp::AtomicFetchAdd { obj: ObjectId(home), offset: 0, delta: 1 }
    }

    fn op(t: ThreadId, op: DsmOp) -> NodeEvent<Reply> {
        NodeEvent::Op(t, op)
    }

    fn reply(from: u16, t: ThreadId) -> NodeEvent<Reply> {
        NodeEvent::Msg(NodeId(from), MsgBody::Owned(Reply(t)))
    }

    fn dispatched(n: &NodeStep<Recorder, Resumed>) -> Vec<(ThreadId, DsmOp)> {
        n.server.dispatched.clone()
    }

    #[test]
    fn same_peer_ops_overlap_and_others_wait_for_the_drain() {
        let mut n = node();
        // Three fetch-adds to node 1's home all reach the server before
        // any reply.
        n.step([op(T0, add(1)), op(T0, add(1)), op(T0, add(1))]);
        assert_eq!(dispatched(&n), vec![(T0, add(1)); 3]);
        // A different peer, a local home, then the first peer again: all
        // wait (the last one behind the two queued ahead of it), and
        // another thread is not held up.
        n.step([op(T0, add(2)), op(T0, add(0)), op(T0, add(1)), op(T1, add(2))]);
        assert_eq!(dispatched(&n).len(), 4);
        assert_eq!(dispatched(&n)[3], (T1, add(2)));
        // Two of three replies leave one in flight: still nothing moves.
        n.step([reply(1, T0), reply(1, T0)]);
        assert_eq!(dispatched(&n).len(), 4);
        // The last reply drains the window; the node-2 add goes in and
        // blocks, and the local add behind it has no peer, so it waits.
        n.step([reply(1, T0)]);
        assert_eq!(dispatched(&n)[4..], [(T0, add(2))]);
        // Its reply lets the local add complete inline and the queued
        // node-1 add dispatch right behind it.
        n.step([reply(2, T0)]);
        assert_eq!(dispatched(&n)[5..], [(T0, add(0)), (T0, add(1))]);
        n.step([reply(2, T1), reply(1, T0)]);
        assert_eq!(n.kernel.link().0, [T0, T0, T0, T0, T0, T1, T0]);
        assert_eq!(dispatched(&n).len(), 7);
    }

    #[test]
    fn ops_behind_an_unordered_block_wait_even_for_the_same_peer() {
        let mut n = node();
        let read = DsmOp::Read { obj: ObjectId(1), range: ByteRange::new(0, 8) };
        // A read blocks with no ordered peer: the fetch-adds behind it wait,
        // then go in together once it completes.
        n.step([op(T0, read.clone()), op(T0, add(1)), op(T0, add(1))]);
        assert_eq!(dispatched(&n), [(T0, read.clone())]);
        n.step([reply(1, T0)]);
        assert_eq!(dispatched(&n), [(T0, read), (T0, add(1)), (T0, add(1))]);
    }
}
