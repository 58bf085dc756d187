//! Pending-operation bookkeeping for the Ivy server.
//!
//! An application access may span several pages (objects are packed, so a
//! range can straddle a boundary); the operation completes when every page
//! it touches is locally available with the required access. DSM-resident
//! synchronization (test-and-set locks, counter+sense barriers) also parks
//! here while its words' pages are acquired.

use munin_mem::PageSpan;
use munin_types::{BarrierId, ByteRange, LockId, ObjectId, ThreadId};

/// What a parked thread is waiting to do.
#[derive(Debug)]
pub enum PendingIvyOp {
    /// A data read of `range` in `obj`.
    Read { thread: ThreadId, obj: ObjectId, range: ByteRange },
    /// A data write.
    Write { thread: ThreadId, obj: ObjectId, range: ByteRange, data: Vec<u8> },
    /// An atomic fetch-and-add (needs write access to the word's page).
    AtomicAdd { thread: ThreadId, obj: ObjectId, offset: u32, delta: i64 },
    /// Draw a ticket from a DSM-resident ticket lock (atomic increment of
    /// the `next_ticket` word under exclusive page access). Completes
    /// immediately when the drawn ticket is already being served; otherwise
    /// parks as [`PendingIvyOp::TicketWait`].
    TicketTake { thread: ThreadId, lock: LockId },
    /// Spin (read-only, cache-coherent) on the lock's `now_serving` word
    /// until it reaches `ticket`. Parked spinners are event-driven: they
    /// wake when their cached copy is invalidated or the word matches.
    TicketWait { thread: ThreadId, lock: LockId, ticket: u64 },
    /// A DSM-resident barrier arrival (fetch-increment of the counter word;
    /// flips the sense word when last).
    BarrierArrive { thread: ThreadId, barrier: BarrierId },
    /// A poll of the sense word (needs only read access).
    BarrierPoll { thread: ThreadId, barrier: BarrierId, expected_sense: u8 },
    /// An unlock (increment of the `now_serving` word; needs write access).
    Unlock { thread: ThreadId, lock: LockId },
}

impl PendingIvyOp {
    pub fn thread(&self) -> ThreadId {
        match self {
            PendingIvyOp::Read { thread, .. }
            | PendingIvyOp::Write { thread, .. }
            | PendingIvyOp::AtomicAdd { thread, .. }
            | PendingIvyOp::TicketTake { thread, .. }
            | PendingIvyOp::TicketWait { thread, .. }
            | PendingIvyOp::BarrierArrive { thread, .. }
            | PendingIvyOp::BarrierPoll { thread, .. }
            | PendingIvyOp::Unlock { thread, .. } => *thread,
        }
    }
}

/// Outstanding page requests from this node (suppress duplicates; a write
/// request is never issued while a read is still in flight for the same
/// page — the reply would race the grant).
#[derive(Debug, Default, Clone, Copy)]
pub struct PageInflight {
    pub read: bool,
    pub write: bool,
}

impl PageInflight {
    pub fn any(self) -> bool {
        self.read || self.write
    }
}

/// The pages a pending op needs, and whether it needs them writable. An
/// access is one run of bytes, so its pages are one span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageNeed {
    pub span: PageSpan,
    pub write: bool,
}

/// A pending op and its needs, which are fixed by the layout and so never
/// change while it waits.
#[derive(Debug)]
pub struct Waiting {
    pub op: PendingIvyOp,
    pub need: PageNeed,
    /// Found blocked, with its page requests out, and no page of its span
    /// has changed local state since: a rescan passes it by.
    pub settled: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_accessor_covers_all_variants() {
        let t = ThreadId(7);
        let ops = vec![
            PendingIvyOp::Read { thread: t, obj: ObjectId(0), range: ByteRange::new(0, 1) },
            PendingIvyOp::TicketTake { thread: t, lock: LockId(0) },
            PendingIvyOp::TicketWait { thread: t, lock: LockId(0), ticket: 3 },
            PendingIvyOp::BarrierPoll { thread: t, barrier: BarrierId(0), expected_sense: 1 },
            PendingIvyOp::Unlock { thread: t, lock: LockId(0) },
        ];
        for op in ops {
            assert_eq!(op.thread(), t);
        }
    }

    #[test]
    fn inflight_any() {
        assert!(!PageInflight::default().any());
        assert!(PageInflight { read: true, write: false }.any());
        assert!(PageInflight { read: false, write: true }.any());
    }
}
