//! One node's protocol step, shared by every wall-clock fabric.
//!
//! A [`NodeStep`] is a node's `{server, kernel, op gate}`. Its one entry
//! point, [`NodeStep::step`], handles a run of [`NodeEvent`]s in order
//! (dispatch through the gate / `on_message` / `on_timer` / state dump),
//! settles the completions each event caused, and ends by flushing what the
//! kernel queued outbound, under a single activity-epoch bump. The fabrics
//! differ only in *which thread* calls it:
//!
//! * the in-process channel fabric runs it on one server thread per node
//!   ([`server_loop`]: a blocking `recv`, then `try_recv`s up to
//!   `BATCH_MAX` events in all, is one step);
//! * the TCP fabric (`munin-tcp`) keeps the step behind a mutex and runs it
//!   on whichever thread already holds the event: the data-stream reader
//!   that decoded the frames, the coordinator-hosted application thread
//!   issuing an op on node 0, the timer thread. See `munin_tcp::node`.
//!
//! Either way the protocol server sees one event at a time and at most one
//! outstanding op per thread, the concurrency model it was written for.
//! [`NodeKernel`] is the small extra contract the step needs beyond
//! [`KernelApi`]: local thread resumption, access to the run-wide shared
//! state, and the traffic shard taken at teardown.

use crate::fabric::{MsgBody, NodeEvent, Shared};
use munin_net::PayloadInfo;
use munin_sim::{panic_message, DsmOp, KernelApi, OpOutcome, OpResult, Server};
use munin_types::{NodeId, ThreadId};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Most inbox events one channel-fabric server wake-up drains (and
/// processes under a single activity-epoch bump) before flushing its
/// outbound batches and re-checking the channel.
const BATCH_MAX: usize = 128;

/// What a wall-clock fabric's kernel provides to the shared step, on top of
/// the protocol-facing [`KernelApi`]. Implemented by the in-process
/// [`crate::RtKernel`] and by `munin-tcp`'s socket kernel.
pub trait NodeKernel<P: PayloadInfo + Clone>: KernelApi<P> {
    /// Run-wide shared state (activity epochs, poisoning, error log).
    fn shared(&self) -> &Arc<Shared>;

    /// Resume a blocked application thread whose op completed locally
    /// without going through [`KernelApi::complete`]'s bookkeeping.
    fn resume(&mut self, thread: ThreadId, result: OpResult);

    /// Threads whose *blocked* op the protocol completed (via
    /// [`KernelApi::complete`]) since the last call. The op gate uses this
    /// to dispatch those threads' queued pipelined ops; the synchronous
    /// Done path never lands here (the step sees it inline).
    fn take_completions(&mut self) -> Vec<ThreadId>;

    /// This node's traffic counters, taken at teardown (the world merges
    /// every node's shard into the run totals).
    fn take_stats(&mut self) -> munin_net::NetStats;
}

/// The per-thread op gate: the protocol servers were written for at most
/// one outstanding op per thread (their pending structures are keyed by
/// thread), so pipelining is a *fabric* property — clients may have K ops
/// in flight, but the step feeds the server a thread's ops strictly one at
/// a time, queueing the rest here. Completions are per-thread FIFO by
/// construction, which is what lets the client match results to tokens with
/// a plain sequence counter.
#[derive(Default)]
struct OpGate {
    /// Ops waiting behind the thread's in-flight op, oldest first.
    queued: Vec<VecDeque<DsmOp>>,
    /// Thread has an op inside the server that hasn't completed yet.
    busy: Vec<bool>,
}

impl OpGate {
    fn ensure(&mut self, t: ThreadId) {
        let i = t.index();
        if i >= self.busy.len() {
            self.busy.resize(i + 1, false);
            self.queued.resize_with(i + 1, Default::default);
        }
    }

    fn is_busy(&mut self, t: ThreadId) -> bool {
        self.ensure(t);
        self.busy[t.index()]
    }

    fn enqueue(&mut self, t: ThreadId, op: DsmOp) {
        self.ensure(t);
        self.queued[t.index()].push_back(op);
    }

    /// Mark `t`'s blocked op done and hand back its next queued op, if any.
    fn unblock(&mut self, t: ThreadId) -> Option<DsmOp> {
        self.ensure(t);
        self.busy[t.index()] = false;
        self.queued[t.index()].pop_front()
    }
}

/// One node's protocol state and the step that advances it. Not `Sync` by
/// itself: exactly one thread at a time may call [`NodeStep::step`] — the
/// rt fabric owns it on the node's server thread, the TCP fabric guards it
/// with the node's mutex.
pub struct NodeStep<S, K> {
    pub server: S,
    pub kernel: K,
    gate: OpGate,
}

impl<S, K> NodeStep<S, K>
where
    S: Server,
    K: NodeKernel<S::Payload>,
{
    pub fn new(server: S, kernel: K) -> Self {
        NodeStep { server, kernel, gate: OpGate::default() }
    }

    /// One server step: handle `events` in order under a single
    /// activity-epoch bump (the watchdog only needs to know the node made
    /// progress, not how much), then flush everything the kernel queued
    /// outbound, so nothing this step sent can be stranded while its caller
    /// blocks again. Returns `false` once the events contained `Shutdown`.
    pub fn step(&mut self, events: impl IntoIterator<Item = NodeEvent<S::Payload>>) -> bool {
        self.kernel.shared().mark_activity();
        let live = events.into_iter().all(|ev| self.handle(ev));
        self.kernel.flush_outbound();
        live
    }

    /// Handle one event, then settle what it completed.
    fn handle(&mut self, ev: NodeEvent<S::Payload>) -> bool {
        match ev {
            NodeEvent::Op(thread, op) => {
                if self.gate.is_busy(thread) {
                    self.gate.enqueue(thread, op);
                } else {
                    self.dispatch(thread, op);
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
                if let Some(op) = self.gate.unblock(t) {
                    self.dispatch(t, op);
                }
            }
        }
    }

    /// Feed one thread's op to the server, then keep feeding that thread's
    /// queue while ops complete synchronously; a Blocked outcome closes the
    /// thread's gate until the protocol calls `complete`.
    fn dispatch(&mut self, thread: ThreadId, first: DsmOp) {
        let mut next = Some(first);
        while let Some(op) = next {
            // Gate dispatch *is* the protocol server's handle instant: the
            // span's dispatch timestamp and its server half open here. The
            // matching `srv_finish` happens inside the kernel's resume /
            // complete paths (whichever ends this op).
            self.kernel.shared().obs.srv_dispatch(thread);
            match self.server.on_op(&mut self.kernel, thread, op) {
                OpOutcome::Done { result, cost_us: _ } => {
                    self.kernel.resume(thread, result);
                    next = self.gate.unblock(thread);
                }
                OpOutcome::Blocked => {
                    self.gate.ensure(thread);
                    self.gate.busy[thread.index()] = true;
                    next = None;
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
pub fn server_loop<S, K>(
    node: NodeId,
    server: S,
    kernel: K,
    inbox: Receiver<NodeEvent<S::Payload>>,
) -> munin_net::NetStats
where
    S: Server,
    K: NodeKernel<S::Payload>,
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
