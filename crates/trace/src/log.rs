//! The trace log and the kernel tracer that fills it.

use munin_sim::{DsmOp, TraceEvent, Tracer};
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
                match op {
                    DsmOp::Read { obj, range } => log.accesses.push(Access {
                        at,
                        thread,
                        node,
                        obj: *obj,
                        range: *range,
                        is_write: false,
                        init_phase: !self.past_init.contains(&thread),
                    }),
                    DsmOp::Write { obj, range, .. } => log.accesses.push(Access {
                        at,
                        thread,
                        node,
                        obj: *obj,
                        range: *range,
                        is_write: true,
                        init_phase: !self.past_init.contains(&thread),
                    }),
                    DsmOp::AtomicFetchAdd { obj, offset, .. } => log.accesses.push(Access {
                        at,
                        thread,
                        node,
                        obj: *obj,
                        range: ByteRange::new(*offset, 8),
                        is_write: true,
                        init_phase: !self.past_init.contains(&thread),
                    }),
                    DsmOp::Lock(l) => {
                        log.syncs.push(SyncEvent { at, thread, kind: "lock", id: l.0 })
                    }
                    DsmOp::Unlock(l) => {
                        log.syncs.push(SyncEvent { at, thread, kind: "unlock", id: l.0 })
                    }
                    DsmOp::BarrierWait(b) => {
                        drop(log);
                        self.past_init.insert(thread);
                        let mut log = self.log.lock().expect("tracer lock");
                        log.syncs.push(SyncEvent { at, thread, kind: "barrier", id: b.0 });
                    }
                    DsmOp::CondWait { cond, .. } => {
                        log.syncs.push(SyncEvent { at, thread, kind: "cond-wait", id: cond.0 })
                    }
                    DsmOp::CondSignal { cond, .. } => {
                        log.syncs.push(SyncEvent { at, thread, kind: "cond-signal", id: cond.0 })
                    }
                    DsmOp::Flush => log.syncs.push(SyncEvent { at, thread, kind: "flush", id: 0 }),
                    _ => {}
                }
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
            op: &read,
        });
        tracer.record(TraceEvent::OpIssued {
            at: VirtualTime::micros(5),
            thread: t0,
            node: NodeId(0),
            op: &DsmOp::BarrierWait(munin_types::BarrierId(0)),
        });
        tracer.record(TraceEvent::OpIssued {
            at: VirtualTime::micros(10),
            thread: t0,
            node: NodeId(0),
            op: &read,
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
            op: &DsmOp::AtomicFetchAdd { obj: ObjectId(2), offset: 8, delta: 1 },
        });
        let log = log.lock().unwrap();
        assert!(log.accesses[0].is_write);
        assert_eq!(log.accesses[0].range, ByteRange::new(8, 8));
    }

    #[test]
    fn lock_ops_recorded_as_sync() {
        let (mut tracer, log) = StudyTracer::new();
        tracer.record(TraceEvent::OpIssued {
            at: VirtualTime::ZERO,
            thread: ThreadId(0),
            node: NodeId(0),
            op: &DsmOp::Lock(LockId(3)),
        });
        let log = log.lock().unwrap();
        assert_eq!(log.syncs[0].kind, "lock");
        assert_eq!(log.syncs[0].id, 3);
    }
}
