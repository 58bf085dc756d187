//! The one client path, on the simulator and both wall-clock fabrics.
//!
//! A [`Client`] keeps up to [`MAX_INFLIGHT`] ops in flight. An async op
//! returns a token at once; a blocking op waits for its own result, which
//! drains everything issued before it, since a thread's results come back
//! in issue order. Adjacent writes to one object are combined and leave
//! asynchronously with the next non-write op, so program order holds at
//! the node. What differs per fabric sits behind a [`Port`]: the
//! simulator's ([`crate::SimPort`]) dispatches under the world's baton and
//! waits by running events; the wall-clock one (`munin_rt::RtPort`) mails
//! ops to the node and parks on a resume slot.

use crate::op::{DsmOp, DsmThread, OpResult};
use crate::report::WaitTable;
use munin_types::{ByteRange, NodeId, ObjectId, ThreadId, TokenState};
use std::collections::VecDeque;

/// Most ops one thread keeps in flight before an issue waits for the
/// oldest.
pub const MAX_INFLIGHT: usize = 16;

/// Ceiling on a combined write: a merge that would grow past it emits the
/// buffer first, and a write this large leaves at once.
pub const WC_MAX_BYTES: usize = 64 * 1024;

/// Where a [`Client`]'s ops enter its node and their results come back.
pub trait Port {
    /// An application call begins: count it (and trace it, on the
    /// simulator), whatever the client makes of it.
    fn begin(&mut self, op: &DsmOp);

    /// Hand `op` to the node. `pipelined`: the thread will not wait for it
    /// next, so the port may hold it until the thread is about to park.
    fn submit(&mut self, op: DsmOp, pipelined: bool);

    /// The oldest result not taken yet (`pipelined` is its op's flag),
    /// waiting for it in a call named `wait_label`.
    fn take(&mut self, pipelined: bool, wait_label: &'static str) -> OpResult;

    /// Model `us` of compute on the thread itself, or return `false` to
    /// send it to the node as [`DsmOp::Compute`] (the simulator's clock is
    /// the world's).
    fn compute(&mut self, _us: u64) -> bool {
        false
    }

    /// The clock of the wait table, in µs.
    fn now_us(&mut self) -> u64;
}

/// One op issued and not yet taken from the port.
#[derive(Clone, Copy)]
struct InFlight {
    seq: u64,
    label: &'static str,
    /// A token may claim the result; an unclaimed error panics on arrival
    /// (a combined write must not fail silently).
    claimed: bool,
    pipelined: bool,
}

/// An application thread's handle on shared memory over port `P`: the
/// simulator's [`crate::ThreadCtx`] and the wall-clock `munin_rt::RtCtx`.
pub struct Client<P> {
    port: P,
    thread: ThreadId,
    node: NodeId,
    n_nodes: usize,
    n_threads: usize,
    /// Per-call wait accounting, in the port's clock.
    waits: WaitTable,
    /// Sequence number of the latest op issued (0: none yet).
    next_seq: u64,
    /// Highest sequence whose result was taken from the port.
    received_through: u64,
    /// Ops in flight, oldest first: the order their results come back in.
    pending: VecDeque<InFlight>,
    /// Taken but unredeemed token results (`seq`, label, result).
    claimable: Vec<(u64, &'static str, OpResult)>,
    /// The combined write: (object, start, bytes).
    wc: Option<(ObjectId, u32, Vec<u8>)>,
}

impl<P: Port> Client<P> {
    pub fn new(port: P, thread: ThreadId, node: NodeId, n_nodes: usize, n_threads: usize) -> Self {
        Client {
            port,
            thread,
            node,
            n_nodes,
            n_threads,
            waits: WaitTable::new(),
            next_seq: 0,
            received_through: 0,
            pending: VecDeque::new(),
            claimable: Vec::new(),
            wc: None,
        }
    }

    pub fn port(&self) -> &P {
        &self.port
    }

    pub fn port_mut(&mut self) -> &mut P {
        &mut self.port
    }

    /// The per-call wait table: (calls, µs of the port's clock) per label.
    pub fn into_waits(self) -> WaitTable {
        self.waits
    }

    /// Begin an application call: its label and start time.
    fn begin(&mut self, op: &DsmOp) -> (&'static str, u64) {
        let since = self.port.now_us();
        self.port.begin(op);
        (op.label(), since)
    }

    fn record_wait(&mut self, label: &'static str, since: u64) {
        let waited = self.port.now_us().saturating_sub(since);
        let e = self.waits.entry(label).or_insert((0, 0));
        e.0 += 1;
        e.1 += waited;
    }

    /// Emit the combined write, then hand `op` to the port behind it (which
    /// keeps program order, and read-your-writes, at the node), first
    /// making room if the window is full.
    fn issue(&mut self, op: DsmOp, label: &'static str, claimed: bool, pipelined: bool) -> u64 {
        self.drain_wc();
        while self.pending.len() >= MAX_INFLIGHT {
            let (head, result) = self.receive(label);
            self.file(head, result);
        }
        self.port.submit(op, pipelined);
        self.next_seq += 1;
        self.pending.push_back(InFlight { seq: self.next_seq, label, claimed, pipelined });
        self.next_seq
    }

    /// Wait for op `seq` and return its result; results taken on the way
    /// are filed for their tokens.
    fn wait_seq(&mut self, seq: u64, wait_label: &'static str) -> OpResult {
        if seq <= self.received_through {
            // Unit results are never filed, so absence means unit.
            return match self.claimable.iter().position(|(s, _, _)| *s == seq) {
                Some(i) => self.claimable.swap_remove(i).2,
                None => OpResult::Unit,
            };
        }
        loop {
            let (head, result) = self.receive(wait_label);
            if head.seq == seq {
                return result;
            }
            self.file(head, result);
        }
    }

    /// Take the oldest op's result from the port.
    fn receive(&mut self, wait_label: &'static str) -> (InFlight, OpResult) {
        let head = self.pending.pop_front().expect("receive with nothing in flight");
        self.received_through = head.seq;
        (head, self.port.take(head.pipelined, wait_label))
    }

    /// File a result nobody waits for yet: tokens redeem it later, unit
    /// results vanish, and an error nobody can claim panics now.
    fn file(&mut self, head: InFlight, result: OpResult) {
        match result {
            OpResult::Unit => {}
            OpResult::Err(e) if !head.claimed => {
                panic!("asynchronous '{}' failed: {e}", head.label)
            }
            other if head.claimed => self.claimable.push((head.seq, head.label, other)),
            _ => {}
        }
    }

    /// Fold a write into the combined write, or emit that and start anew
    /// if the write does not touch it.
    fn absorb(&mut self, obj: ObjectId, start: u32, data: Vec<u8>) {
        if let Some((o, bstart, buf)) = &mut self.wc {
            let (bs, be) = (*bstart as usize, *bstart as usize + buf.len());
            let (ns, ne) = (start as usize, start as usize + data.len());
            let merged_len = ne.max(be) - ns.min(bs);
            if *o == obj && ns <= be && ne >= bs && merged_len <= WC_MAX_BYTES {
                if ns == be {
                    // Strictly appending (stripe fills): the common case.
                    buf.extend_from_slice(&data);
                } else if ns >= bs && ne <= be {
                    buf[ns - bs..ne - bs].copy_from_slice(&data);
                } else {
                    // Overlap or extension at the front: rebuild around both.
                    let new_start = ns.min(bs);
                    let mut merged = vec![0u8; merged_len];
                    merged[bs - new_start..be - new_start].copy_from_slice(buf);
                    merged[ns - new_start..ne - new_start].copy_from_slice(&data);
                    *bstart = new_start as u32;
                    *buf = merged;
                }
                return;
            }
            self.drain_wc();
        }
        let oversized = data.len() >= WC_MAX_BYTES;
        self.wc = Some((obj, start, data));
        if oversized {
            self.drain_wc();
        }
    }

    /// Emit the combined write on its own (asynchronously).
    fn drain_wc(&mut self) {
        if let Some((obj, start, data)) = self.wc.take() {
            let range = ByteRange::new(start, data.len() as u32);
            self.issue(DsmOp::Write { obj, range, data }, "write", false, true);
        }
    }
}

impl<P: Port> DsmThread for Client<P> {
    /// Issue an op and wait for it, which drains every op issued before it:
    /// each blocking op, so each sync point, is an implicit drain, as
    /// release consistency requires.
    fn op(&mut self, op: DsmOp) -> OpResult {
        let (label, since) = self.begin(&op);
        let result = match op {
            DsmOp::Compute(us) if self.port.compute(us) => OpResult::Unit,
            op => {
                let seq = self.issue(op, label, false, false);
                self.wait_seq(seq, label)
            }
        };
        self.record_wait(label, since);
        result
    }

    /// Issue an op without waiting. A write is absorbed by the combined
    /// write and comes back ready; anything else comes back pending.
    fn op_async(&mut self, op: DsmOp) -> TokenState {
        let (label, since) = self.begin(&op);
        let state = match op {
            DsmOp::Compute(us) if self.port.compute(us) => TokenState::Ready(0),
            DsmOp::Write { obj, range, data } => {
                self.absorb(obj, range.start, data);
                TokenState::Ready(0)
            }
            op => TokenState::Pending(self.issue(op, label, true, true)),
        };
        self.record_wait(label, since);
        state
    }

    fn token_wait(&mut self, state: TokenState) -> i64 {
        let seq = match state {
            TokenState::Ready(v) => return v,
            TokenState::Pending(seq) => seq,
        };
        let since = self.port.now_us();
        let result = self.wait_seq(seq, "token_wait");
        self.record_wait("token_wait", since);
        match result {
            OpResult::Unit => 0,
            OpResult::Value(v) => v,
            OpResult::Err(e) => panic!("asynchronous op failed: {e}"),
            other => panic!("async token redeemed a non-scalar result: {other:?}"),
        }
    }

    /// Complete every op in flight, the combined write included, and fail
    /// closed on an errored op whose token was never redeemed.
    fn drain_ops(&mut self) {
        self.drain_wc();
        if !self.pending.is_empty() {
            let since = self.port.now_us();
            while !self.pending.is_empty() {
                let (head, result) = self.receive("drain");
                self.file(head, result);
            }
            self.record_wait("drain", since);
        }
        if let Some((_, label, OpResult::Err(e))) =
            self.claimable.iter().find(|(_, _, r)| matches!(r, OpResult::Err(_)))
        {
            panic!("asynchronous '{label}' failed before a sync point: {e}");
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
