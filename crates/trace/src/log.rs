//! The trace log and the kernel tracer that fills it.

use munin_sim::{AccessKind, DsmOp, OpHead, TraceEvent, Tracer};
use munin_types::{ByteRange, NodeId, ObjectId, ThreadId, VirtualTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// One data access (read/write/atomic) as issued by an application thread.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Access {
    pub at: VirtualTime,
    pub thread: ThreadId,
    pub node: NodeId,
    pub obj: ObjectId,
    pub range: ByteRange,
    pub is_write: bool,
    /// Issued before this thread's first barrier arrival (the study's
    /// "initialization" window).
    pub init_phase: bool,
}

/// One synchronization operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncEvent {
    pub at: VirtualTime,
    pub thread: ThreadId,
    /// "lock" / "unlock" / "barrier" / "cond-wait" / "cond-signal" / "flush".
    pub kind: &'static str,
    /// Lock/barrier id (as a plain integer; kinds don't collide in use).
    pub id: u32,
}

/// Everything a study run records.
#[derive(Debug, Default)]
pub struct TraceLog {
    pub accesses: Vec<Access>,
    pub syncs: Vec<SyncEvent>,
    /// Messages observed (count only; byte totals come from `NetStats`).
    pub messages: u64,
}

impl TraceLog {
    /// Accesses to one object, in issue order.
    pub fn accesses_of(&self, obj: ObjectId) -> Vec<&Access> {
        self.accesses.iter().filter(|a| a.obj == obj).collect()
    }

    /// Distinct objects touched.
    pub fn objects_touched(&self) -> Vec<ObjectId> {
        let set: BTreeSet<ObjectId> = self.accesses.iter().map(|a| a.obj).collect();
        set.into_iter().collect()
    }
}

/// Kernel tracer recording the study log. Share the inner handle, run the
/// program, then inspect.
pub struct StudyTracer {
    log: Arc<Mutex<TraceLog>>,
    /// Threads that have arrived at a barrier at least once (end of their
    /// initialization window).
    past_init: BTreeSet<ThreadId>,
}

impl StudyTracer {
    /// Create a tracer plus the shared handle to read the log afterwards.
    pub fn new() -> (Box<Self>, Arc<Mutex<TraceLog>>) {
        let log = Arc::new(Mutex::new(TraceLog::default()));
        (Box::new(StudyTracer { log: log.clone(), past_init: BTreeSet::new() }), log)
    }
}

impl Tracer for StudyTracer {
    fn record(&mut self, event: TraceEvent<'_>) {
        match event {
            TraceEvent::OpIssued { at, thread, node, op } => {
                let mut log = self.log.lock().expect("tracer lock");
                if let Some((obj, range, kind)) = op.access() {
                    let init_phase = !self.past_init.contains(&thread);
                    let is_write = kind != AccessKind::Read;
                    log.accesses.push(Access {
                        at,
                        thread,
                        node,
                        obj,
                        range,
                        is_write,
                        init_phase,
                    });
                    return;
                }
                let (kind, id) = match op {
                    OpHead::Other(DsmOp::Lock(l)) => ("lock", l.0),
                    OpHead::Other(DsmOp::Unlock(l)) => ("unlock", l.0),
                    OpHead::Other(DsmOp::BarrierWait(b)) => {
                        self.past_init.insert(thread);
                        ("barrier", b.0)
                    }
                    OpHead::Other(DsmOp::CondWait { cond, .. }) => ("cond-wait", cond.0),
                    OpHead::Other(DsmOp::CondSignal { cond, .. }) => ("cond-signal", cond.0),
                    OpHead::Other(DsmOp::Flush) => ("flush", 0),
                    _ => return,
                };
                log.syncs.push(SyncEvent { at, thread, kind, id });
            }
            TraceEvent::MessageSent { .. } => {
                self.log.lock().expect("tracer lock").messages += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_types::LockId;

    #[test]
    fn tracer_records_accesses_and_marks_init() {
        let (mut tracer, log) = StudyTracer::new();
        let read = DsmOp::Read { obj: ObjectId(1), range: ByteRange::new(0, 8) };
        let t0 = ThreadId(0);
        tracer.record(TraceEvent::OpIssued {
            at: VirtualTime::ZERO,
            thread: t0,
            node: NodeId(0),
            op: read.head(),
        });
        tracer.record(TraceEvent::OpIssued {
            at: VirtualTime::micros(5),
            thread: t0,
            node: NodeId(0),
            op: DsmOp::BarrierWait(munin_types::BarrierId(0)).head(),
        });
        tracer.record(TraceEvent::OpIssued {
            at: VirtualTime::micros(10),
            thread: t0,
            node: NodeId(0),
            op: read.head(),
        });
        let log = log.lock().unwrap();
        assert_eq!(log.accesses.len(), 2);
        assert!(log.accesses[0].init_phase);
        assert!(!log.accesses[1].init_phase, "post-barrier access is compute phase");
        assert_eq!(log.syncs.len(), 1);
    }

    #[test]
    fn atomic_counts_as_write() {
        let (mut tracer, log) = StudyTracer::new();
        tracer.record(TraceEvent::OpIssued {
            at: VirtualTime::ZERO,
            thread: ThreadId(1),
            node: NodeId(0),
            op: DsmOp::AtomicFetchAdd { obj: ObjectId(2), offset: 8, delta: 1 }.head(),
        });
        let log = log.lock().unwrap();
        assert!(log.accesses[0].is_write);
        assert_eq!(log.accesses[0].range, ByteRange::new(8, 8));
    }

    #[test]
    fn a_write_is_traced_by_its_header() {
        let (mut tracer, log) = StudyTracer::new();
        tracer.record(TraceEvent::OpIssued {
            at: VirtualTime::ZERO,
            thread: ThreadId(0),
            node: NodeId(0),
            op: OpHead::Write { obj: ObjectId(2), range: ByteRange::new(16, 8) },
        });
        let log = log.lock().unwrap();
        assert!(log.accesses[0].is_write);
        assert_eq!(
            (log.accesses[0].obj, log.accesses[0].range),
            (ObjectId(2), ByteRange::new(16, 8))
        );
    }

    #[test]
    fn lock_ops_recorded_as_sync() {
        let (mut tracer, log) = StudyTracer::new();
        tracer.record(TraceEvent::OpIssued {
            at: VirtualTime::ZERO,
            thread: ThreadId(0),
            node: NodeId(0),
            op: DsmOp::Lock(LockId(3)).head(),
        });
        let log = log.lock().unwrap();
        assert_eq!(log.syncs[0].kind, "lock");
        assert_eq!(log.syncs[0].id, 3);
    }
}
