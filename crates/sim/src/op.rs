//! The operations an application thread can request from its node's DSM
//! server, and the results it gets back.
//!
//! This is the boundary that replaces the paper's page-fault trap: every
//! shared access funnels through one of these operations, and the node
//! server's fault handlers see exactly what a VM-based implementation's
//! handlers would see (object, byte range, read/write).

use munin_types::{
    BarrierId, ByteRange, CondId, DsmError, LockId, NodeId, ObjectDecl, ObjectId, ThreadId,
    TokenState,
};

/// One request from an application thread to the DSM runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum DsmOp {
    /// Dynamically allocate a shared object (setup-time allocation goes
    /// through the same path before threads start).
    Alloc(ObjectDecl),
    /// Read `range` of `obj`; resolves to [`OpResult::Bytes`].
    Read { obj: ObjectId, range: ByteRange },
    /// Write `data` at `range.start` of `obj` (`data.len() == range.len`).
    Write { obj: ObjectId, range: ByteRange, data: Vec<u8> },
    /// Atomic fetch-and-add on an 8-byte little-endian integer at `offset`.
    /// Used for distributed counters and work-queue indices; resolves to the
    /// *previous* value as [`OpResult::Value`].
    AtomicFetchAdd { obj: ObjectId, offset: u32, delta: i64 },
    /// Acquire a distributed lock (blocks until granted).
    Lock(LockId),
    /// Release a distributed lock.
    Unlock(LockId),
    /// Wait at a barrier until all participants arrive.
    BarrierWait(BarrierId),
    /// Release the lock and wait on the condition variable (monitor-style);
    /// re-acquires the lock before returning.
    CondWait { cond: CondId, lock: LockId },
    /// Wake one (or all) waiters of a condition variable. The caller must
    /// hold the associated monitor lock.
    CondSignal { cond: CondId, broadcast: bool },
    /// Flush this thread's delayed update queue without synchronizing.
    Flush,
    /// Mark a program phase boundary; phase 0 is initialization. Consumed by
    /// the tracer (the study's init-vs-compute split) and by the write-once
    /// protocol (publication point).
    Phase(u32),
    /// Pure computation costing `us` of virtual time; no DSM interaction.
    Compute(u64),
    /// Thread termination. Sent automatically when the thread body returns
    /// (or panics — the panic flag is carried in the wrapper, not here).
    Exit,
}

impl DsmOp {
    /// Is this one of the explicit synchronization operations that flush the
    /// delayed update queue? ("the delayed update queue must be flushed
    /// whenever a thread synchronizes", including thread exit.)
    pub fn is_synchronizing(&self) -> bool {
        matches!(
            self,
            DsmOp::Lock(_)
                | DsmOp::Unlock(_)
                | DsmOp::BarrierWait(_)
                | DsmOp::CondWait { .. }
                | DsmOp::CondSignal { .. }
                | DsmOp::Flush
                | DsmOp::Exit
        )
    }

    /// Short label for traces.
    pub fn label(&self) -> &'static str {
        match self {
            DsmOp::Alloc(_) => "alloc",
            DsmOp::Read { .. } => "read",
            DsmOp::Write { .. } => "write",
            DsmOp::AtomicFetchAdd { .. } => "fetch-add",
            DsmOp::Lock(_) => "lock",
            DsmOp::Unlock(_) => "unlock",
            DsmOp::BarrierWait(_) => "barrier",
            DsmOp::CondWait { .. } => "cond-wait",
            DsmOp::CondSignal { .. } => "cond-signal",
            DsmOp::Flush => "flush",
            DsmOp::Phase(_) => "phase",
            DsmOp::Compute(_) => "compute",
            DsmOp::Exit => "exit",
        }
    }
}

/// Completion value of a [`DsmOp`].
#[derive(Debug, Clone, PartialEq)]
pub enum OpResult {
    Unit,
    Bytes(Vec<u8>),
    Value(i64),
    Object(ObjectId),
    Err(DsmError),
}

impl OpResult {
    /// Unwrap bytes; panics (with the runtime error if present) otherwise.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            OpResult::Bytes(b) => b,
            OpResult::Err(e) => panic!("DSM read failed: {e}"),
            other => panic!("expected bytes, got {other:?}"),
        }
    }

    pub fn into_value(self) -> i64 {
        match self {
            OpResult::Value(v) => v,
            OpResult::Err(e) => panic!("DSM atomic failed: {e}"),
            other => panic!("expected value, got {other:?}"),
        }
    }

    pub fn into_object(self) -> ObjectId {
        match self {
            OpResult::Object(o) => o,
            OpResult::Err(e) => panic!("DSM alloc failed: {e}"),
            other => panic!("expected object id, got {other:?}"),
        }
    }

    /// Panic if this result is an error (for unit-valued ops).
    pub fn expect_unit(self) {
        match self {
            OpResult::Unit => {}
            OpResult::Err(e) => panic!("DSM op failed: {e}"),
            other => panic!("expected unit, got {other:?}"),
        }
    }

    pub fn err(&self) -> Option<&DsmError> {
        match self {
            OpResult::Err(e) => Some(e),
            _ => None,
        }
    }
}

/// An application thread's handle on shared memory, on every backend: the
/// one thread trait (`munin_api::Par` is this trait under its application
/// name) and the one place that knows how an application call becomes a
/// [`DsmOp`] and how its [`OpResult`] is unwrapped.
///
/// A context supplies [`DsmThread::op`] and its identity; the wrappers are
/// provided. By default an op completes inline, which is right for native
/// threads. Every fabric keeps ops in flight through the one
/// [`crate::Client`], which overrides the three pipelining hooks,
/// [`DsmThread::op_async`], [`DsmThread::token_wait`] and
/// [`DsmThread::drain_ops`]. A context whose memory is directly addressable
/// (native threads) overrides the byte-level wrappers instead, so that
/// access through borrowed buffers makes no copy into an op.
///
/// Applications use the typed layer over it (`munin_api::ParTyped`) rather
/// than the byte-level wrappers.
pub trait DsmThread {
    /// Issue a raw operation and block until it completes.
    fn op(&mut self, op: DsmOp) -> OpResult;

    /// This thread's global id.
    fn thread_id(&self) -> ThreadId;

    /// The node this thread runs on.
    fn node(&self) -> NodeId;

    /// Total nodes in the world.
    fn n_nodes(&self) -> usize;

    /// Total application threads in the world.
    fn n_threads(&self) -> usize;

    /// This thread's index (0-based, dense): its id as a number.
    fn self_id(&self) -> usize {
        self.thread_id().index()
    }

    // ---- pipelining hooks -----------------------------------------------

    /// Issue a write or a fetch-and-add without waiting for it; redeem the
    /// state with [`DsmThread::token_wait`]. The op is complete by then or
    /// by the next blocking op, whichever comes first. By default it
    /// completes inline and the state is already ready.
    fn op_async(&mut self, op: DsmOp) -> TokenState {
        let fetch_add = matches!(op, DsmOp::AtomicFetchAdd { .. });
        let result = self.op(op);
        if fetch_add {
            TokenState::Ready(result.into_value())
        } else {
            result.expect_unit();
            TokenState::Ready(0)
        }
    }

    /// Redeem a token state: the raw result of its async op (0 for unit
    /// results).
    fn token_wait(&mut self, state: TokenState) -> i64 {
        match state {
            TokenState::Ready(v) => v,
            TokenState::Pending(seq) => {
                panic!("this backend never issued pending token {seq} — token from another ctx?")
            }
        }
    }

    /// Complete every op this thread has in flight. Every blocking op does
    /// this implicitly; a no-op where ops complete inline.
    fn drain_ops(&mut self) {}

    // ---- the wrappers ---------------------------------------------------

    /// Allocate a shared object; the declaration's `id` and `home` fields are
    /// filled in by the runtime (home = this thread's node).
    fn alloc(&mut self, decl: ObjectDecl) -> ObjectId {
        self.op(DsmOp::Alloc(decl)).into_object()
    }

    /// Read a byte range of an object into the op's own buffer.
    fn read(&mut self, obj: ObjectId, range: ByteRange) -> Vec<u8> {
        self.op(DsmOp::Read { obj, range }).into_bytes()
    }

    /// Read a byte range of an object into a caller-owned buffer
    /// (`out.len()` must equal `range.len`).
    fn read_raw_into(&mut self, obj: ObjectId, range: ByteRange, out: &mut [u8]) {
        let bytes = self.read(obj, range);
        assert_eq!(
            out.len(),
            bytes.len(),
            "read_raw_into buffer is {} bytes for a {} byte range",
            out.len(),
            bytes.len()
        );
        out.copy_from_slice(&bytes);
    }

    /// Write bytes at `start` within an object. It goes through
    /// [`DsmThread::op_async`], so a fabric may combine consecutive
    /// contiguous writes and complete them by the next non-write op;
    /// program order per thread is preserved either way.
    fn write(&mut self, obj: ObjectId, start: u32, data: Vec<u8>) {
        let range = ByteRange::new(start, data.len() as u32);
        // Ready on every fabric: nothing to redeem, and an error fails
        // closed where the write completes.
        let _ = self.op_async(DsmOp::Write { obj, range, data });
    }

    /// Write borrowed bytes at `start` within an object. One copy into the
    /// owned [`DsmOp`] is inherent; the caller keeps its buffer.
    fn write_raw(&mut self, obj: ObjectId, start: u32, data: &[u8]) {
        self.write(obj, start, data.to_vec());
    }

    /// Asynchronous [`DsmThread::write_raw`].
    fn write_raw_async(&mut self, obj: ObjectId, start: u32, data: &[u8]) -> TokenState {
        let range = ByteRange::new(start, data.len() as u32);
        self.op_async(DsmOp::Write { obj, range, data: data.to_vec() })
    }

    /// Atomic fetch-and-add on the i64 at `offset`; returns the old value.
    fn fetch_add(&mut self, obj: ObjectId, offset: u32, delta: i64) -> i64 {
        self.op(DsmOp::AtomicFetchAdd { obj, offset, delta }).into_value()
    }

    /// Asynchronous [`DsmThread::fetch_add`]; the old value arrives when
    /// the token is redeemed.
    fn fetch_add_async(&mut self, obj: ObjectId, offset: u32, delta: i64) -> TokenState {
        self.op_async(DsmOp::AtomicFetchAdd { obj, offset, delta })
    }

    fn lock(&mut self, lock: LockId) {
        self.op(DsmOp::Lock(lock)).expect_unit();
    }

    fn unlock(&mut self, lock: LockId) {
        self.op(DsmOp::Unlock(lock)).expect_unit();
    }

    fn barrier(&mut self, barrier: BarrierId) {
        self.op(DsmOp::BarrierWait(barrier)).expect_unit();
    }

    /// Monitor wait: releases `lock`, waits for a signal, re-acquires.
    fn cond_wait(&mut self, cond: CondId, lock: LockId) {
        self.op(DsmOp::CondWait { cond, lock }).expect_unit();
    }

    /// Wake one (`broadcast = false`) or all waiters of `cond`.
    fn cond_signal(&mut self, cond: CondId, broadcast: bool) {
        self.op(DsmOp::CondSignal { cond, broadcast }).expect_unit();
    }

    /// Flush this thread's delayed update queue.
    fn flush(&mut self) {
        self.op(DsmOp::Flush).expect_unit();
    }

    /// Mark the beginning of program phase `n` (phase 0 = initialization; the
    /// first call with `n >= 1` publishes write-once objects).
    fn phase(&mut self, n: u32) {
        self.op(DsmOp::Phase(n)).expect_unit();
    }

    /// Spend `us` microseconds of compute: virtual time on the simulator,
    /// modelled locally on the thread by the wall-clock fabrics.
    fn compute(&mut self, us: u64) {
        self.op(DsmOp::Compute(us)).expect_unit();
    }
}

/// What the server tells the kernel after seeing an op.
#[derive(Debug)]
pub enum OpOutcome {
    /// The op finished locally: resume the thread after `cost_us` of virtual
    /// time with `result`.
    Done { result: OpResult, cost_us: u64 },
    /// The op needs remote interaction (or must wait for a lock/barrier);
    /// the server will call [`crate::KernelApi::complete`] later.
    Blocked,
}

impl OpOutcome {
    pub fn done(result: OpResult, cost_us: u64) -> Self {
        OpOutcome::Done { result, cost_us }
    }

    pub fn unit(cost_us: u64) -> Self {
        OpOutcome::Done { result: OpResult::Unit, cost_us }
    }

    pub fn fail(err: DsmError) -> Self {
        OpOutcome::Done { result: OpResult::Err(err), cost_us: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_types::NodeId;
    use munin_types::SharingType;

    #[test]
    fn synchronizing_ops() {
        assert!(DsmOp::Lock(LockId(0)).is_synchronizing());
        assert!(DsmOp::Unlock(LockId(0)).is_synchronizing());
        assert!(DsmOp::BarrierWait(BarrierId(0)).is_synchronizing());
        assert!(DsmOp::Exit.is_synchronizing());
        assert!(DsmOp::Flush.is_synchronizing());
        assert!(!DsmOp::Read { obj: ObjectId(0), range: ByteRange::new(0, 4) }.is_synchronizing());
        assert!(!DsmOp::Compute(10).is_synchronizing());
        assert!(!DsmOp::Phase(1).is_synchronizing());
    }

    #[test]
    fn result_unwrappers() {
        assert_eq!(OpResult::Bytes(vec![1, 2]).into_bytes(), vec![1, 2]);
        assert_eq!(OpResult::Value(-3).into_value(), -3);
        assert_eq!(OpResult::Object(ObjectId(9)).into_object(), ObjectId(9));
        OpResult::Unit.expect_unit();
    }

    #[test]
    #[should_panic(expected = "DSM read failed")]
    fn error_result_panics_with_context() {
        OpResult::Err(DsmError::UnknownObject(ObjectId(1))).into_bytes();
    }

    #[test]
    fn alloc_label() {
        let decl = ObjectDecl::new(ObjectId(0), "x", 8, SharingType::WriteMany, NodeId(0));
        assert_eq!(DsmOp::Alloc(decl).label(), "alloc");
    }
}
