//! The op gate: how a node's protocol server sees its threads' ops, on
//! every fabric.
//!
//! The protocol servers were written for one outstanding op per thread
//! (their pending structures are keyed by thread), so the gate hands the
//! server a thread's ops one at a time and queues the rest. The exception
//! is an op whose [`Server::ordered_peer`] names a peer: such ops complete
//! in issue order through that peer's replies, so while a thread's ops in
//! flight all wait on one peer, its next op to the same peer goes in too.
//! Either way a thread's results come back in issue order, which is what
//! lets the client match them to tokens by sequence number.

use crate::kernel::KernelApi;
use crate::op::{DsmOp, OpOutcome, OpResult};
use crate::world::Server;
use munin_net::PayloadInfo;
use munin_types::{NodeId, ThreadId};
use std::collections::VecDeque;

/// What the gate needs from the kernel it dispatches into, beyond the
/// servers' [`KernelApi`].
pub trait GateKernel<P: PayloadInfo + Clone>: KernelApi<P> {
    /// Resume `thread` with the result of an op its server finished at
    /// once, `cost_us` of modelled time from now. `true`: the op is over,
    /// and the thread's next op may go in at once; `false`: the op is over
    /// when the kernel calls [`OpGate::complete`] for it.
    fn finish(&mut self, thread: ThreadId, result: OpResult, cost_us: u64) -> bool;

    /// `thread`'s op is about to reach its server (telemetry).
    fn dispatching(&mut self, _thread: ThreadId) {}
}

/// The per-thread op gate of one kernel. An op is over when the kernel
/// says so: on the wall-clock fabrics as the server completes it, on the
/// simulator when its result reaches the thread in virtual time, so that a
/// thread's ops there take their modelled costs one after another.
#[derive(Default)]
pub struct OpGate {
    threads: Vec<GateSlot>,
}

#[derive(Default)]
struct GateSlot {
    /// Ops waiting behind the thread's in-flight ops, oldest first.
    queued: VecDeque<DsmOp>,
    /// Ops dispatched and not over yet.
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

    /// `thread` issued `op`: queue it, and dispatch what may go in.
    pub fn offer<S: Server, K: GateKernel<S::Payload>>(
        &mut self,
        server: &mut S,
        kernel: &mut K,
        thread: ThreadId,
        op: DsmOp,
    ) {
        self.slot(thread).queued.push_back(op);
        self.pump(server, kernel, thread);
    }

    /// One of `thread`'s ops is over: once none is in flight, dispatch
    /// what queued behind them.
    pub fn complete<S: Server, K: GateKernel<S::Payload>>(
        &mut self,
        server: &mut S,
        kernel: &mut K,
        thread: ThreadId,
    ) {
        let s = self.slot(thread);
        debug_assert!(s.inflight > 0, "completion for {thread:?} with no op in flight");
        s.inflight = s.inflight.saturating_sub(1);
        if s.inflight == 0 {
            s.peer = None;
            self.pump(server, kernel, thread);
        }
    }

    /// Dispatch `thread`'s queued ops, oldest first, while each may go in:
    /// when nothing is in flight, or when it joins ops in flight to the
    /// same ordered peer. `Compute` is the kernel's own: it is over after
    /// its modelled time, unseen by the server.
    fn pump<S: Server, K: GateKernel<S::Payload>>(
        &mut self,
        server: &mut S,
        kernel: &mut K,
        thread: ThreadId,
    ) {
        loop {
            let slot = self.slot(thread);
            let Some(front) = slot.queued.front() else { return };
            let peer = server.ordered_peer(kernel, front);
            if slot.inflight > 0 && (peer.is_none() || peer != slot.peer) {
                return;
            }
            let op = slot.queued.pop_front().expect("front checked");
            kernel.dispatching(thread);
            let outcome = match op {
                DsmOp::Compute(us) => OpOutcome::unit(us),
                op => server.on_op(kernel, thread, op),
            };
            let slot = self.slot(thread);
            match outcome {
                OpOutcome::Done { result, cost_us } => {
                    // A Done op with a peer could overtake the ops in
                    // flight it was admitted behind.
                    debug_assert!(peer.is_none(), "ordered-peer op completed synchronously");
                    if !kernel.finish(thread, result, cost_us) {
                        slot.inflight += 1;
                    }
                }
                OpOutcome::Blocked => {
                    slot.inflight += 1;
                    slot.peer = peer;
                }
            }
        }
    }
}
