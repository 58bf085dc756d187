//! Per-node protocol state: local copy state, directory entries (held at
//! each object's home), pending fault tables, and the static synchronization
//! object declarations.

use munin_types::{ByteRange, NodeId, SharingType, ThreadId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// State of the local copy of one object on one node.
#[derive(Debug, Default)]
pub struct LocalState {
    /// A valid local copy exists (for write-once with paging, validity is
    /// per-page — see `valid_pages`).
    pub valid: bool,
    /// This node may write locally without a fault (general read-write
    /// ownership, migratory holdership, or a loose-coherence replica).
    pub writable: bool,
    /// Per-page validity for large write-once objects (empty = whole-object
    /// granularity).
    pub valid_pages: BTreeSet<u32>,
    /// Local read count (classification + adaptation).
    pub reads: u64,
    /// Local write count.
    pub writes: u64,
    /// Was the local copy read since the last incoming update? Reported to
    /// the home in `FlushOutAck` — the invalidate-vs-refresh signal.
    pub used_since_update: bool,
}

/// A fault that parked a thread until the protocol installs what it needs.
#[derive(Debug)]
pub enum PendingFault {
    Read { thread: ThreadId, range: ByteRange },
    Write { thread: ThreadId, range: ByteRange, data: Vec<u8> },
}

impl PendingFault {
    pub fn thread(&self) -> ThreadId {
        match self {
            PendingFault::Read { thread, .. } | PendingFault::Write { thread, .. } => *thread,
        }
    }
}

/// Outstanding request kinds, to avoid duplicate fault messages when several
/// local threads miss on the same object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InflightKind {
    /// Whole-object read copy requested.
    ReadCopy,
    /// A specific page of a write-once object.
    Page(u32),
    /// General read-write ownership.
    Ownership,
    /// Migratory fetch.
    Migration,
}

/// A queued directory transaction (general read-write, migratory): the home
/// serializes conflicting coherence transactions per object.
#[derive(Debug)]
pub enum DirOp {
    Read { requester: NodeId },
    Write { requester: NodeId },
    Migrate { requester: NodeId },
}

/// The in-progress exclusive transaction at the home.
#[derive(Debug)]
pub struct ActiveWrite {
    pub requester: NodeId,
    /// Invalidation acks still outstanding.
    pub pending_invals: usize,
    /// Ownership/data fetch from the previous owner still outstanding.
    pub awaiting_owner_data: bool,
    /// Did the requester already hold a valid copy (no data transfer needed)?
    pub requester_had_copy: bool,
}

/// Directory entry for one object, held at its home node.
#[derive(Debug)]
pub struct DirEntry {
    pub sharing: SharingType,
    /// Nodes with valid copies (never includes the home itself).
    pub copyset: BTreeSet<NodeId>,
    /// Current owner (general read-write) — the home until someone takes
    /// ownership.
    pub owner: NodeId,
    /// Producer-consumer: nodes that have read the object.
    pub consumers: BTreeSet<NodeId>,
    /// Write-once: initialization finished; copies may be handed out.
    pub published: bool,
    /// Write-once: read requests parked until publication.
    pub waiting_publication: Vec<(NodeId, Option<u32>)>,
    /// Requesters whose forwarded read copies are in flight; write
    /// transactions wait for their confirmations.
    pub pending_reads: BTreeSet<NodeId>,
    /// Serialized exclusive transactions (general read-write).
    pub active_write: Option<ActiveWrite>,
    pub queued: VecDeque<DirOp>,
    /// A runtime retype waiting for the recall transaction to complete.
    pub pending_retype: Option<SharingType>,
    /// Per-copy usage feedback: false once an update was pushed, true again
    /// when the holder reports it read the refreshed copy. Drives the
    /// adaptive invalidate-vs-refresh decision.
    pub copy_usage: BTreeMap<NodeId, UsageStat>,
    /// Remote reads/writes observed at the home (classification).
    pub remote_reads: u64,
    pub remote_writes: u64,
}

/// Exponentially-weighted usage history for one copy holder.
#[derive(Debug, Default, Clone, Copy)]
pub struct UsageStat {
    /// Updates pushed to this holder.
    pub updates: u32,
    /// Of those, how many were followed by at least one read before the next
    /// update.
    pub used: u32,
}

impl UsageStat {
    /// Estimated probability the holder re-reads between updates.
    pub fn reuse_rate(&self) -> f64 {
        if self.updates == 0 {
            // No evidence yet: assume reuse (refresh-friendly prior — most
            // programs read far more than they write).
            1.0
        } else {
            self.used as f64 / self.updates as f64
        }
    }
}

impl DirEntry {
    pub fn new(sharing: SharingType, home: NodeId) -> Self {
        DirEntry {
            sharing,
            copyset: BTreeSet::new(),
            owner: home,
            consumers: BTreeSet::new(),
            published: false,
            waiting_publication: Vec::new(),
            pending_reads: BTreeSet::new(),
            active_write: None,
            queued: VecDeque::new(),
            pending_retype: None,
            copy_usage: BTreeMap::new(),
            remote_reads: 0,
            remote_writes: 0,
        }
    }
}

pub use munin_types::syncdecl::{BarrierDecl, CondDecl, LockDecl, SyncDecls};

#[cfg(test)]
mod tests {
    use super::*;
    use munin_types::{BarrierId, LockId};

    #[test]
    fn usage_stat_prior_favors_refresh() {
        let u = UsageStat::default();
        assert_eq!(u.reuse_rate(), 1.0);
        let u = UsageStat { updates: 4, used: 1 };
        assert_eq!(u.reuse_rate(), 0.25);
    }

    #[test]
    fn round_robin_sync_decls() {
        let s = SyncDecls::round_robin(5, 2, 8, 3);
        assert_eq!(s.locks.len(), 5);
        assert_eq!(s.locks[3], LockDecl { id: LockId(3), home: NodeId(0) });
        assert_eq!(s.locks[4].home, NodeId(1));
        assert_eq!(s.barriers[1], BarrierDecl { id: BarrierId(1), home: NodeId(1), count: 8 });
        assert!(s.conds.is_empty());
    }

    #[test]
    fn dir_entry_defaults() {
        let d = DirEntry::new(SharingType::GeneralReadWrite, NodeId(2));
        assert_eq!(d.owner, NodeId(2));
        assert!(d.copyset.is_empty());
        assert!(!d.published);
        assert!(d.active_write.is_none());
    }

    #[test]
    fn pending_fault_thread_accessor() {
        let f = PendingFault::Read { thread: ThreadId(4), range: ByteRange::new(0, 4) };
        assert_eq!(f.thread(), ThreadId(4));
        let f =
            PendingFault::Write { thread: ThreadId(5), range: ByteRange::new(0, 1), data: vec![0] };
        assert_eq!(f.thread(), ThreadId(5));
    }
}
