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
//!
//! The per-call contract. Every op call is one [`Port::begin`] and one
//! entry in the wait table; a token wait or a drain that has something to
//! wait for is one entry under a label of its own. A call that does not
//! wait (a write the combined write absorbs, an async op issued into a
//! window that is not full, a token whose result was already taken) reads
//! no clock, walks no map and allocates nothing: a borrowed write is copied
//! from the caller's slice straight into the combined write, and only a
//! write that starts a new combined write gets a buffer. The wait clock
//! starts when a call first takes a result from the port, or before
//! modelled compute on the thread, and stops when the call ends; a call
//! that never waits books 0 µs. On the simulator the clock moves only
//! while a thread takes a result, so this is the whole time from call to
//! return there too.

use crate::op::{DsmOp, DsmThread, OpHead, OpResult};
use crate::report::WaitTable;
use munin_types::{ByteRange, NodeId, ObjectId, ThreadId, TokenState};
use std::collections::VecDeque;

/// Wait-table slots: each op's own ([`DsmOp::kind`]), then the client's
/// two waits of its own.
const TOKEN_WAIT: usize = DsmOp::LABELS.len();
const DRAIN: usize = TOKEN_WAIT + 1;
const WAIT_SLOTS: usize = DRAIN + 1;

fn wait_label(slot: usize) -> &'static str {
    match slot {
        TOKEN_WAIT => "token_wait",
        DRAIN => "drain",
        op => DsmOp::LABELS[op],
    }
}

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
    fn begin(&mut self, head: OpHead<'_>);

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

    /// The clock of the wait table, in µs: read only by a call that waits.
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
    /// Per-call wait accounting, in the port's clock: (calls, µs) per slot.
    waits: [(u64, u64); WAIT_SLOTS],
    /// The port's clock when the current call first waited.
    wait_since: Option<u64>,
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
            waits: [(0, 0); WAIT_SLOTS],
            wait_since: None,
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
        (0..WAIT_SLOTS)
            .filter(|&slot| self.waits[slot].0 > 0)
            .map(|slot| (wait_label(slot), self.waits[slot]))
            .collect()
    }

    /// Start the wait clock, unless this call has started it already.
    fn start_wait(&mut self) {
        if self.wait_since.is_none() {
            self.wait_since = Some(self.port.now_us());
        }
    }

    /// End a call booked under wait slot `slot`: one call, and the time
    /// since it first waited.
    fn end_call(&mut self, slot: usize) {
        let waited = match self.wait_since.take() {
            Some(since) => self.port.now_us().saturating_sub(since),
            None => 0,
        };
        let e = &mut self.waits[slot];
        e.0 += 1;
        e.1 += waited;
    }

    /// Model `us` of compute on the thread if the port does; that time is
    /// the call's wait.
    fn compute_here(&mut self, us: u64) -> bool {
        self.start_wait();
        self.port.compute(us)
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

    /// Take the oldest op's result from the port: the one place a call
    /// waits, so the one place its wait clock starts.
    fn receive(&mut self, wait_label: &'static str) -> (InFlight, OpResult) {
        let head = self.pending.pop_front().expect("receive with nothing in flight");
        self.received_through = head.seq;
        self.start_wait();
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

    /// Fold a write into the combined write if it touches it and the merge
    /// stays under the ceiling. If not, emit the combined write and return
    /// `false`: the write starts the next one ([`Client::start_wc`]).
    fn merge(&mut self, obj: ObjectId, start: u32, data: &[u8]) -> bool {
        if let Some((o, bstart, buf)) = &mut self.wc {
            let (bs, be) = (*bstart as usize, *bstart as usize + buf.len());
            let (ns, ne) = (start as usize, start as usize + data.len());
            let merged_len = ne.max(be) - ns.min(bs);
            if *o == obj && ns <= be && ne >= bs && merged_len <= WC_MAX_BYTES {
                if ns == be {
                    // Strictly appending (stripe fills): the common case.
                    buf.extend_from_slice(data);
                } else if ns >= bs && ne <= be {
                    buf[ns - bs..ne - bs].copy_from_slice(data);
                } else {
                    // Overlap or extension at the front: rebuild around both.
                    let new_start = ns.min(bs);
                    let mut merged = vec![0u8; merged_len];
                    merged[bs - new_start..be - new_start].copy_from_slice(buf);
                    merged[ns - new_start..ne - new_start].copy_from_slice(data);
                    *bstart = new_start as u32;
                    *buf = merged;
                }
                return true;
            }
        }
        self.drain_wc();
        false
    }

    /// Start a combined write with `data`; one at the ceiling leaves at
    /// once.
    fn start_wc(&mut self, obj: ObjectId, start: u32, data: Vec<u8>) {
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
        self.port.begin(op.head());
        let (slot, label) = (op.kind(), op.label());
        let result = match op {
            DsmOp::Compute(us) if self.compute_here(us) => OpResult::Unit,
            op => {
                let seq = self.issue(op, label, false, false);
                self.wait_seq(seq, label)
            }
        };
        self.end_call(slot);
        result
    }

    /// Issue an op without waiting. A write is absorbed by the combined
    /// write and comes back ready; anything else comes back pending.
    fn op_async(&mut self, op: DsmOp) -> TokenState {
        self.port.begin(op.head());
        let (slot, label) = (op.kind(), op.label());
        let state = match op {
            DsmOp::Compute(us) if self.compute_here(us) => TokenState::Ready(0),
            DsmOp::Write { obj, range, data } => {
                if !self.merge(obj, range.start, &data) {
                    self.start_wc(obj, range.start, data);
                }
                TokenState::Ready(0)
            }
            op => TokenState::Pending(self.issue(op, label, true, true)),
        };
        self.end_call(slot);
        state
    }

    /// A borrowed write: its bytes go from `data` straight into the
    /// combined write.
    fn write_raw(&mut self, obj: ObjectId, start: u32, data: &[u8]) {
        let _ = self.write_raw_async(obj, start, data);
    }

    fn write_raw_async(&mut self, obj: ObjectId, start: u32, data: &[u8]) -> TokenState {
        self.port.begin(OpHead::Write { obj, range: ByteRange::new(start, data.len() as u32) });
        if !self.merge(obj, start, data) {
            self.start_wc(obj, start, data.to_vec());
        }
        self.end_call(DsmOp::WRITE);
        TokenState::Ready(0)
    }

    fn token_wait(&mut self, state: TokenState) -> i64 {
        let seq = match state {
            TokenState::Ready(v) => return v,
            TokenState::Pending(seq) => seq,
        };
        let result = self.wait_seq(seq, "token_wait");
        self.end_call(TOKEN_WAIT);
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
            while !self.pending.is_empty() {
                let (head, result) = self.receive("drain");
                self.file(head, result);
            }
            self.end_call(DRAIN);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A port whose node answers every op at once, and whose clock moves
    /// 10 µs on each read: it counts the reads, the calls begun and what
    /// left for the node.
    #[derive(Default)]
    struct CountingPort {
        begun: usize,
        clock_reads: u64,
        sent: Vec<DsmOp>,
        untaken: VecDeque<OpResult>,
        adds: i64,
    }

    impl Port for CountingPort {
        fn begin(&mut self, _head: OpHead<'_>) {
            self.begun += 1;
        }

        fn submit(&mut self, op: DsmOp, _pipelined: bool) {
            let result = match &op {
                DsmOp::AtomicFetchAdd { .. } => {
                    self.adds += 1;
                    OpResult::Value(self.adds)
                }
                DsmOp::Read { range, .. } => OpResult::Bytes(vec![0; range.len as usize]),
                _ => OpResult::Unit,
            };
            self.sent.push(op);
            self.untaken.push_back(result);
        }

        fn take(&mut self, _pipelined: bool, _wait_label: &'static str) -> OpResult {
            self.untaken.pop_front().expect("take with nothing submitted")
        }

        fn now_us(&mut self) -> u64 {
            self.clock_reads += 1;
            self.clock_reads * 10
        }
    }

    fn client() -> Client<CountingPort> {
        Client::new(CountingPort::default(), ThreadId(0), NodeId(0), 1, 1)
    }

    const OBJ: ObjectId = ObjectId(7);

    /// The fast path: an absorbed write, and an async fetch-add into a
    /// window that is not full, read no clock. A blocking op reads it
    /// twice, however many results it takes: the wait starts at its first.
    #[test]
    fn only_a_call_that_waits_reads_the_clock() {
        let mut c = client();
        let _ = c.write_raw_async(OBJ, 0, &[1; 8]);
        let _ = c.write_raw_async(OBJ, 8, &[2; 8]);
        assert_eq!(c.port().clock_reads, 0, "a write into the combined write");
        // The combined write takes one slot; fill the other 15.
        for _ in 1..MAX_INFLIGHT {
            let _ = c.fetch_add_async(OBJ, 0, 1);
        }
        assert_eq!(c.port().clock_reads, 0, "async fetch-adds into a window with room");
        assert_eq!(c.pending.len(), MAX_INFLIGHT);
        assert_eq!(c.fetch_add(OBJ, 0, 1), MAX_INFLIGHT as i64);
        assert_eq!(c.port().clock_reads, 2, "a blocking op behind a full window");
        assert_eq!(c.into_waits()["fetch-add"], (MAX_INFLIGHT as u64, 10));
    }

    /// The flat table books what the per-call map did: one call per
    /// application call, a token only when pending and a drain only when
    /// something was in flight; a call that waited books the clock's move.
    #[test]
    fn the_wait_table_books_each_call_once_under_its_label() {
        let mut c = client();
        let _ = c.write_raw_async(OBJ, 0, &[1; 8]);
        c.write_raw(OBJ, 8, &[2; 8]);
        c.write(OBJ, 16, vec![3; 8]);
        let t1 = c.fetch_add_async(OBJ, 0, 1);
        let t2 = c.fetch_add_async(OBJ, 0, 1);
        assert_eq!(c.token_wait(t2), 2, "takes the combined write, t1 and t2");
        assert_eq!(c.token_wait(t1), 1, "already taken: no wait");
        assert_eq!(c.token_wait(TokenState::Ready(5)), 5, "not a call");
        assert_eq!(c.read(OBJ, ByteRange::new(0, 4)), vec![0; 4]);
        let _ = c.fetch_add_async(OBJ, 0, 1);
        c.drain_ops();
        c.drain_ops(); // nothing in flight: not booked
        c.compute(5); // the port sends it to the node
        assert_eq!(c.port().begun, 8, "three writes, three adds, a read, a compute");
        let write = DsmOp::Write {
            obj: OBJ,
            range: ByteRange::new(0, 24),
            data: [[1; 8], [2; 8], [3; 8]].concat(),
        };
        assert_eq!(c.port().sent[0], write, "the three writes leave as one");
        let want = WaitTable::from([
            ("compute", (1, 10)),
            ("drain", (1, 10)),
            ("fetch-add", (3, 0)),
            ("read", (1, 10)),
            ("token_wait", (2, 10)),
            ("write", (3, 0)),
        ]);
        assert_eq!(c.into_waits(), want);
    }

    /// Every label of the table names a slot of its own.
    #[test]
    fn every_wait_slot_has_its_own_label() {
        let labels: std::collections::BTreeSet<_> = (0..WAIT_SLOTS).map(wait_label).collect();
        assert_eq!(labels.len(), WAIT_SLOTS);
        assert_eq!(wait_label(DsmOp::WRITE), "write");
    }
}
