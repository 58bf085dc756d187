//! Declarations of synchronization objects (locks, barriers, condition
//! variables). Like data-object annotations, these are "compiled into the
//! program": every node knows the full set and the home placement, so no
//! naming traffic is ever modelled.

use crate::ids::{BarrierId, CondId, LockId, NodeId};

/// Declaration of a distributed lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockDecl {
    pub id: LockId,
    /// The lock's home: runs the global queue for the token.
    pub home: NodeId,
}

/// Declaration of a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierDecl {
    pub id: BarrierId,
    /// Coordinator node.
    pub home: NodeId,
    /// Number of threads that must arrive per episode.
    pub count: u32,
}

/// Declaration of a condition variable (monitor member).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CondDecl {
    pub id: CondId,
    pub home: NodeId,
}

/// All synchronization objects in the program, known to every server
/// (declarations are compiled into the program, like object annotations).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SyncDecls {
    pub locks: Vec<LockDecl>,
    pub barriers: Vec<BarrierDecl>,
    pub conds: Vec<CondDecl>,
}

impl SyncDecls {
    /// Round-robin homes across `n_nodes` — the default placement used by
    /// the harness.
    pub fn round_robin(n_locks: u32, n_barriers: u32, barrier_count: u32, n_nodes: usize) -> Self {
        SyncDecls {
            locks: (0..n_locks)
                .map(|i| LockDecl { id: LockId(i), home: NodeId((i as usize % n_nodes) as u16) })
                .collect(),
            barriers: (0..n_barriers)
                .map(|i| BarrierDecl {
                    id: BarrierId(i),
                    home: NodeId((i as usize % n_nodes) as u16),
                    count: barrier_count,
                })
                .collect(),
            conds: Vec::new(),
        }
    }
}
