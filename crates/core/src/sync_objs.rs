//! State for the distributed synchronization objects.
//!
//! "Our distributed locks employ proxy objects to reduce network overhead.
//! When a thread wants to acquire or test a global lock, it performs the
//! lock operation on a local proxy for the distributed lock. Proxy objects
//! are maintained by a collection of distributed lock servers, one per
//! processor."
//!
//! Each lock has a single *token*; the node holding the token may grant the
//! lock to local threads with no communication at all. The lock's home node
//! runs the global FIFO queue of requesting nodes and directs the token
//! holder to pass the token on ("Munin passes lock ownership amongst the
//! distributed lock servers. Each lock has a queue associated with it...").

use munin_types::{NodeId, ThreadId};
use std::collections::VecDeque;

/// Per-node proxy for one distributed lock.
#[derive(Debug)]
pub struct ProxyLock {
    /// This node holds the token (the global lock ownership).
    pub has_token: bool,
    /// Thread currently inside the critical section (token must be held).
    pub locked_by: Option<ThreadId>,
    /// Local threads waiting for the lock.
    pub local_queue: VecDeque<ThreadId>,
    /// Nodes the home has directed us to pass the token to, in order.
    pub pending_pass: VecDeque<NodeId>,
    /// A `LockReq` is outstanding (suppress duplicates).
    pub requested: bool,
}

impl ProxyLock {
    pub fn new(starts_with_token: bool) -> Self {
        ProxyLock {
            has_token: starts_with_token,
            locked_by: None,
            local_queue: VecDeque::new(),
            pending_pass: VecDeque::new(),
            requested: false,
        }
    }

    /// Can a local thread take the lock right now without messages?
    pub fn can_grant_locally(&self) -> bool {
        self.has_token && self.locked_by.is_none()
    }
}

/// Home-side state for one lock: the global queue.
#[derive(Debug)]
pub struct LockHomeState {
    /// Last node confirmed (via `LockNotify`) to hold the token.
    pub token_at: NodeId,
    /// Nodes waiting for the token, FIFO.
    pub queue: VecDeque<NodeId>,
    /// A `LockFetch` is outstanding; wait for `LockNotify` before issuing
    /// the next one (keeps the token's travel serialized and fair).
    pub fetch_outstanding: bool,
}

impl LockHomeState {
    pub fn new(home: NodeId) -> Self {
        LockHomeState { token_at: home, queue: VecDeque::new(), fetch_outstanding: false }
    }
}

/// Home-side state for one condition variable.
#[derive(Debug, Default)]
pub struct CondHomeState {
    /// Waiting (node, thread) pairs, FIFO.
    pub waiters: VecDeque<(NodeId, ThreadId)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_grant_conditions() {
        let mut p = ProxyLock::new(true);
        assert!(p.can_grant_locally());
        p.locked_by = Some(ThreadId(1));
        assert!(!p.can_grant_locally());
        p.locked_by = None;
        p.has_token = false;
        assert!(!p.can_grant_locally());
    }

    #[test]
    fn home_state_starts_at_home() {
        let h = LockHomeState::new(NodeId(3));
        assert_eq!(h.token_at, NodeId(3));
        assert!(h.queue.is_empty());
        assert!(!h.fetch_outstanding);
    }
}
