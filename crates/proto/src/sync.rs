//! Home-based synchronization: one service for every protocol server.
//!
//! Munin makes synchronization objects a sharing type of their own, served
//! by "a collection of distributed lock servers, one per processor". Every
//! lock, barrier and condition variable is declared with a home node
//! ([`SyncDecls`], compiled into the program), and each server keeps one
//! [`HomeSync`]: the declarations indexed by id, the home state of the
//! objects homed on its node, and the threads it has parked at a barrier.
//! The service is pure state; each server sends its own messages, labels
//! its own coverage and applies its own stamps.
//!
//! Barriers: centralized coordinator with multicast release. Each arrival
//! from a remote node is one arrive message to the home; the home releases
//! every participating node with one release message (a single wire
//! transmission under hardware multicast). Local arrivals and releases cost
//! no messages. Episodes chain safely because a thread cannot arrive at
//! episode *k+1* before its node received the release of episode *k*, and
//! node-pair channels are FIFO.
//!
//! Home locks ([`HomeLock`]): the home grants in FIFO order of the requests
//! it receives, hands the lock straight to the next requester on release,
//! and marks it free when nobody waits. Munin's own locks are proxies with
//! a migrating token and Ivy's default locks live in shared pages; those
//! are different algorithms and stay in their servers. The central-server
//! ablation (Ivy) and Tardis use this one.
//!
//! A [`Stamp`] rides every release and grant: `()` for Munin and Ivy, the
//! logical timestamp (`u64`, merged by `max`) for Tardis, whose acquirers
//! lift their clock past every earlier releaser's.

use munin_net::PayloadInfo;
use munin_sim::{DsmOp, KernelApi, OpResult};
use munin_types::{BarrierId, CondId, DsmError, IdMap, LockId, NodeId, SyncDecls, ThreadId};
use std::collections::VecDeque;

/// What a release hands to the next acquirer.
pub trait Stamp: Copy + Default + std::fmt::Debug {
    /// The stamp that is at least both.
    fn merge(self, other: Self) -> Self;
}

impl Stamp for () {
    fn merge(self, _: ()) {}
}

impl Stamp for u64 {
    fn merge(self, other: u64) -> u64 {
        self.max(other)
    }
}

/// A completed barrier episode, as the home sees it.
#[derive(Debug, PartialEq)]
pub struct Release<S> {
    /// The remote nodes that arrived this episode, sorted: the multicast
    /// set.
    pub nodes: Vec<NodeId>,
    /// Every arrival's stamp merged (over all episodes so far).
    pub stamp: S,
}

/// Home-side state of one barrier: the current episode's arrivals.
#[derive(Debug)]
pub struct HomeBarrier<S> {
    count: u32,
    arrived: u32,
    stamp: S,
    nodes: Vec<NodeId>,
}

impl<S: Stamp> HomeBarrier<S> {
    /// A barrier whose episodes complete after `count` thread arrivals.
    pub fn new(count: u32) -> Self {
        HomeBarrier { count, arrived: 0, stamp: S::default(), nodes: Vec::new() }
    }

    /// Count `threads` arrivals, from `remote` (`None` for the home's own
    /// threads); the arrival that completes the episode gets its release.
    pub fn arrive(&mut self, remote: Option<NodeId>, threads: u32, stamp: S) -> Option<Release<S>> {
        self.arrived += threads;
        self.stamp = self.stamp.merge(stamp);
        if let Some(node) = remote.filter(|n| !self.nodes.contains(n)) {
            self.nodes.push(node);
        }
        if self.arrived < self.count {
            return None;
        }
        self.arrived = 0;
        let mut nodes = std::mem::take(&mut self.nodes);
        nodes.sort_unstable();
        Some(Release { nodes, stamp: self.stamp })
    }
}

/// A lock passing to `thread` on `node`, with the stamp it acquires.
#[derive(Debug, PartialEq)]
pub struct Grant<S> {
    pub node: NodeId,
    pub thread: ThreadId,
    pub stamp: S,
}

/// Home-side state of one FIFO home lock.
#[derive(Debug, Default)]
pub struct HomeLock<S> {
    held: bool,
    /// Every releaser's and granted acquirer's stamp merged.
    stamp: S,
    /// Waiting requesters in arrival order, each with its request's stamp.
    queue: VecDeque<Grant<S>>,
}

impl<S: Stamp> HomeLock<S> {
    /// A request from `thread` on `node`: granted at once if the lock is
    /// free, queued (`None`) otherwise.
    pub fn acquire(&mut self, node: NodeId, thread: ThreadId, stamp: S) -> Option<Grant<S>> {
        if self.held {
            self.queue.push_back(Grant { node, thread, stamp });
            return None;
        }
        self.held = true;
        self.stamp = self.stamp.merge(stamp);
        Some(Grant { node, thread, stamp: self.stamp })
    }

    /// The holder released with `stamp`: hand the lock to the first waiter,
    /// or mark it free (`None`).
    pub fn release(&mut self, stamp: S) -> Option<Grant<S>> {
        self.stamp = self.stamp.merge(stamp);
        let Some(mut next) = self.queue.pop_front() else {
            self.held = false;
            return None;
        };
        self.stamp = self.stamp.merge(next.stamp);
        next.stamp = self.stamp;
        Some(next)
    }
}

/// One declared barrier, as one node sees it.
#[derive(Debug)]
struct BarrierEntry<S> {
    home: NodeId,
    /// The episode state; used on the home only.
    episode: HomeBarrier<S>,
    /// This node's threads waiting for the release, in arrival order.
    parked: Vec<ThreadId>,
}

/// One node's synchronization service: the declared locks, barriers and
/// condition variables indexed by id, with the home state of each.
///
/// An op naming an undeclared object is rejected by [`HomeSync::check`] at
/// the op boundary; past it, every lookup is of a declared id and panics
/// otherwise.
#[derive(Debug)]
pub struct HomeSync<S> {
    node: NodeId,
    locks: IdMap<LockId, (NodeId, HomeLock<S>)>,
    barriers: IdMap<BarrierId, BarrierEntry<S>>,
    conds: IdMap<CondId, NodeId>,
}

impl<S: Stamp> HomeSync<S> {
    pub fn new(node: NodeId, decls: &SyncDecls) -> Self {
        HomeSync {
            node,
            locks: decls.locks.iter().map(|l| (l.id, (l.home, HomeLock::default()))).collect(),
            barriers: decls
                .barriers
                .iter()
                .map(|b| {
                    let episode = HomeBarrier::new(b.count);
                    (b.id, BarrierEntry { home: b.home, episode, parked: Vec::new() })
                })
                .collect(),
            conds: decls.conds.iter().map(|c| (c.id, c.home)).collect(),
        }
    }

    /// Reject an op that names an undeclared lock, barrier or condition
    /// variable, with [`DsmError::UndeclaredSync`].
    pub fn check(&self, op: &DsmOp) -> Result<(), DsmError> {
        let undeclared = |name: String| Err(DsmError::UndeclaredSync(name));
        match *op {
            DsmOp::Lock(l) | DsmOp::Unlock(l) if !self.locks.contains_key(&l) => {
                undeclared(l.to_string())
            }
            DsmOp::BarrierWait(b) if !self.barriers.contains_key(&b) => undeclared(b.to_string()),
            DsmOp::CondWait { lock, .. } if !self.locks.contains_key(&lock) => {
                undeclared(lock.to_string())
            }
            DsmOp::CondWait { cond, .. } | DsmOp::CondSignal { cond, .. }
                if !self.conds.contains_key(&cond) =>
            {
                undeclared(cond.to_string())
            }
            _ => Ok(()),
        }
    }

    pub fn lock_home(&self, l: LockId) -> NodeId {
        self.locks[&l].0
    }

    pub fn cond_home(&self, c: CondId) -> NodeId {
        self.conds[&c]
    }

    /// Threads per episode of `b`.
    pub fn barrier_count(&self, b: BarrierId) -> u32 {
        self.barriers[&b].episode.count
    }

    /// Thread side: park `thread` at `b` until its release; returns the
    /// home to send the arrival to.
    pub fn park(&mut self, b: BarrierId, thread: ThreadId) -> NodeId {
        let e = self.barrier_mut(b);
        e.parked.push(thread);
        e.home
    }

    /// Home side: count arrivals at `b` from `from`; see
    /// [`HomeBarrier::arrive`].
    pub fn arrive(
        &mut self,
        b: BarrierId,
        from: NodeId,
        threads: u32,
        stamp: S,
    ) -> Option<Release<S>> {
        let remote = (from != self.node).then_some(from);
        self.barrier_mut(b).episode.arrive(remote, threads, stamp)
    }

    /// A release of `b` reached this node: resume its parked threads.
    pub fn wake<P: PayloadInfo + Clone>(&mut self, k: &mut dyn KernelApi<P>, b: BarrierId) {
        for t in std::mem::take(&mut self.barrier_mut(b).parked) {
            k.complete(t, OpResult::Unit, k.cost().local_lock_us);
        }
    }

    /// The home state of lock `l`.
    pub fn home_lock(&mut self, l: LockId) -> &mut HomeLock<S> {
        &mut self.locks.get_mut(&l).expect("lock ids are checked at the op boundary").1
    }

    /// The held home locks and the barriers with arrivals or parked
    /// threads, for a server's `debug_stuck_state`.
    pub fn stuck_state(&self) -> String {
        let locks = self.locks.iter().filter(|(_, (_, h))| h.held);
        let barriers =
            self.barriers.iter().filter(|(_, e)| e.episode.arrived > 0 || !e.parked.is_empty());
        let locks = locks.map(|(l, (_, h))| format!("home {l}: {h:?}; "));
        locks.chain(barriers.map(|(b, e)| format!("{b}: {e:?}; "))).collect()
    }

    fn barrier_mut(&mut self, b: BarrierId) -> &mut BarrierEntry<S> {
        self.barriers.get_mut(&b).expect("barrier ids are checked at the op boundary")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_types::{BarrierDecl, CondDecl, LockDecl};

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const N2: NodeId = NodeId(2);

    #[test]
    fn barrier_releases_the_sorted_remote_nodes_with_the_merged_stamp() {
        let mut b = HomeBarrier::<u64>::new(4);
        assert_eq!(b.arrive(Some(N2), 1, 7), None);
        assert_eq!(b.arrive(None, 1, 3), None);
        assert_eq!(b.arrive(Some(N1), 1, 5), None);
        let rel = b.arrive(Some(N2), 1, 1).expect("fourth arrival completes");
        assert_eq!(rel, Release { nodes: vec![N1, N2], stamp: 7 });
        // The next episode starts empty but keeps the stamp.
        assert_eq!(b.arrive(Some(N1), 3, 2), None);
        assert_eq!(b.arrive(None, 1, 0), Some(Release { nodes: vec![N1], stamp: 7 }));
    }

    #[test]
    fn home_lock_grants_fifo_and_hands_off_the_merged_stamp() {
        let (t0, t1, t2) = (ThreadId(0), ThreadId(1), ThreadId(2));
        let mut l = HomeLock::<u64>::default();
        assert_eq!(l.acquire(N1, t1, 4), Some(Grant { node: N1, thread: t1, stamp: 4 }));
        assert_eq!(l.acquire(N2, t2, 9), None);
        assert_eq!(l.acquire(N0, t0, 1), None);
        assert_eq!(l.release(6), Some(Grant { node: N2, thread: t2, stamp: 9 }));
        assert_eq!(l.release(10), Some(Grant { node: N0, thread: t0, stamp: 10 }));
        assert_eq!(l.release(2), None);
        // Free again: the next request is granted at once, past every stamp.
        assert_eq!(l.acquire(N1, t1, 0), Some(Grant { node: N1, thread: t1, stamp: 10 }));
    }

    #[test]
    fn undeclared_sync_ids_are_rejected_by_name() {
        let decls = SyncDecls {
            locks: vec![LockDecl { id: LockId(0), home: N1 }],
            barriers: vec![BarrierDecl { id: BarrierId(0), home: N0, count: 2 }],
            conds: vec![CondDecl { id: CondId(0), home: N2 }],
        };
        let sync = HomeSync::<()>::new(N0, &decls);
        let err = |name: &str| Err(DsmError::UndeclaredSync(name.into()));
        assert_eq!(sync.check(&DsmOp::Lock(LockId(7))), err("lk7"));
        assert_eq!(sync.check(&DsmOp::Unlock(LockId(7))), err("lk7"));
        assert_eq!(sync.check(&DsmOp::BarrierWait(BarrierId(9))), err("bar9"));
        let wait = |cond, lock| DsmOp::CondWait { cond: CondId(cond), lock: LockId(lock) };
        assert_eq!(sync.check(&wait(3, 0)), err("cv3"));
        assert_eq!(sync.check(&wait(0, 7)), err("lk7"));
        assert_eq!(sync.check(&DsmOp::CondSignal { cond: CondId(3), broadcast: true }), err("cv3"));
        for op in
            [DsmOp::Lock(LockId(0)), DsmOp::BarrierWait(BarrierId(0)), wait(0, 0), DsmOp::Flush]
        {
            assert_eq!(sync.check(&op), Ok(()));
        }
        assert_eq!((sync.lock_home(LockId(0)), sync.cond_home(CondId(0))), (N1, N2));
        assert_eq!(sync.barrier_count(BarrierId(0)), 2);
    }

    #[test]
    fn only_the_homes_own_arrivals_stay_off_the_release_set() {
        let decls = SyncDecls {
            barriers: vec![BarrierDecl { id: BarrierId(0), home: N1, count: 2 }],
            ..SyncDecls::default()
        };
        let mut sync = HomeSync::<()>::new(N1, &decls);
        assert_eq!(sync.park(BarrierId(0), ThreadId(5)), N1);
        assert_eq!(sync.arrive(BarrierId(0), N1, 1, ()), None);
        assert!(sync.stuck_state().contains("arrived: 1"), "{}", sync.stuck_state());
        let rel = sync.arrive(BarrierId(0), N0, 1, ()).expect("complete");
        assert_eq!(rel.nodes, vec![N0]);
    }
}
