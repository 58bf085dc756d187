//! [`RtKernel`]: the per-node-server implementation of the
//! [`munin_sim::KernelApi`] seam over channels, atomics and wall-clock
//! timers.

use crate::fabric::{MsgBody, NodeEvent, Shared};
use crate::timer::TimerReq;
use munin_net::PayloadInfo;
use munin_sim::{KernelApi, OpResult};
use munin_types::{CostModel, NodeId, ObjectDecl, ObjectId, SharingType, ThreadId, VirtualTime};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kernel services for one node's server thread.
///
/// Each server thread owns its own `RtKernel` — including its own clones of
/// every peer inbox sender — so sends from node A to node B always travel
/// through A's clone of B's channel, preserving the per-(src,dst) FIFO
/// ordering the protocols assume. Send failures are ignored by design: they
/// only happen when the destination already shut down during teardown.
///
/// Protocol sends issued while the server handles one batch of inbox
/// events are buffered per destination and flushed as a single
/// [`NodeEvent::Batch`] channel message when the step ends
/// ([`KernelApi::flush_outbound`], called by the server loop before it
/// blocks again) — a K-item fan-out costs the fabric one channel operation
/// and one receiver wake-up per destination instead of one per item. The
/// outbox is strictly per-destination and in send order, so coalescing
/// never reorders a (src,dst) pair.
pub struct RtKernel<P> {
    pub(crate) node: NodeId,
    pub(crate) cost: CostModel,
    pub(crate) inboxes: Vec<Sender<NodeEvent<P>>>,
    pub(crate) resumes: Vec<Sender<OpResult>>,
    pub(crate) timer_tx: Sender<TimerReq>,
    pub(crate) shared: Arc<Shared>,
    /// Per-kernel traffic accounting, returned by the owning server thread
    /// when its loop exits and merged into the run totals there — keeps the
    /// send path free of cross-node locking.
    pub(crate) stats: munin_net::NetStats,
    /// Outbound messages buffered during the current server step, one queue
    /// per destination node.
    pub(crate) outbox: Vec<Vec<(NodeId, MsgBody<P>)>>,
    /// Threads whose blocked op completed this step (via
    /// [`KernelApi::complete`]); drained by the server loop's op gate.
    pub(crate) completions: Vec<ThreadId>,
}

impl<P> RtKernel<P> {
    /// This node's traffic counters, taken by the owning server loop when
    /// it exits (the world merges every node's share into the run totals).
    pub(crate) fn take_stats(&mut self) -> munin_net::NetStats {
        std::mem::take(&mut self.stats)
    }
}

impl<P: PayloadInfo + Clone> crate::serve::NodeKernel<P> for RtKernel<P> {
    fn node_id(&self) -> NodeId {
        self.node
    }

    fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    fn resume(&mut self, thread: ThreadId, result: OpResult) {
        // Close the span's server half; the in-process fabric has no wire
        // hop, so the SrvSpan stays in the collector's ring (nothing to
        // attach to a reply frame).
        let _ = self.shared.obs.srv_finish(thread);
        let _ = self.resumes[thread.index()].send(result);
    }

    fn take_completions(&mut self) -> Vec<ThreadId> {
        std::mem::take(&mut self.completions)
    }

    fn take_stats(&mut self) -> munin_net::NetStats {
        RtKernel::take_stats(self)
    }
}

impl<P: PayloadInfo + Clone> KernelApi<P> for RtKernel<P> {
    fn now(&self) -> VirtualTime {
        VirtualTime::micros(self.shared.now_us())
    }

    fn cost(&self) -> &CostModel {
        &self.cost
    }

    fn send(&mut self, src: NodeId, dst: NodeId, payload: P) {
        debug_assert_eq!(src, self.node, "rt kernels send on behalf of their own node");
        debug_assert_ne!(src, dst, "servers handle local work locally, not by self-send");
        self.stats.record(payload.class(), payload.kind(), payload.wire_bytes());
        self.outbox[dst.index()].push((src, MsgBody::Owned(payload)));
    }

    fn multicast(&mut self, src: NodeId, dsts: &[NodeId], payload: P) {
        // Match the simulated transport: an empty destination list is not a
        // multicast (keeps `stats.multicasts` comparable across kernels).
        if dsts.is_empty() {
            return;
        }
        for _ in dsts {
            self.stats.record(payload.class(), payload.kind(), payload.wire_bytes());
        }
        // No hardware multicast on a channel fabric: fanout == sends. The
        // *payload*, however, is shared — one `Arc` for every destination
        // instead of a deep clone per destination.
        self.stats.record_multicast(dsts.len(), dsts.len());
        let shared_payload = Arc::new(payload);
        for &dst in dsts {
            debug_assert_ne!(src, dst);
            self.outbox[dst.index()].push((src, MsgBody::Shared(shared_payload.clone())));
        }
    }

    fn flush_outbound(&mut self) {
        for dst in 0..self.outbox.len() {
            match self.outbox[dst].len() {
                0 => continue,
                // A lone message needs no batch wrapper (and no Vec on the
                // receiving side).
                1 => {
                    let (src, body) = self.outbox[dst].pop().expect("len checked");
                    let _ = self.inboxes[dst].send(NodeEvent::Msg(src, body));
                }
                _ => {
                    let items = std::mem::take(&mut self.outbox[dst]);
                    let _ = self.inboxes[dst].send(NodeEvent::Batch(items));
                }
            }
        }
    }

    fn complete(&mut self, thread: ThreadId, result: OpResult, _extra_cost_us: u64) {
        // Modelled completion cost is a virtual-time concept; here the
        // thread's real wait *is* the cost, so resume immediately. Record
        // the thread so the server loop's op gate can dispatch whatever
        // pipelined ops queued behind the one that just completed.
        let _ = self.shared.obs.srv_finish(thread);
        let _ = self.resumes[thread.index()].send(result);
        self.completions.push(thread);
    }

    fn set_timer(&mut self, node: NodeId, delay_us: u64, token: u64) {
        // Count the timer as pending *before* the request is mailed, so the
        // watchdog can never catch the arm in flight (it would otherwise
        // see "all threads blocked, no activity, no pending timer" while
        // the request sits in the timer thread's queue).
        self.shared.timers_pending.fetch_add(1, Ordering::Release);
        let req = TimerReq { due: Instant::now() + Duration::from_micros(delay_us), node, token };
        if self.timer_tx.send(req).is_err() {
            // Teardown: the timer thread is gone, the timer will never
            // fire — don't leave the counter stuck above zero.
            self.shared.timers_pending.fetch_sub(1, Ordering::Release);
        }
    }

    fn register_decl(&mut self, mut decl: ObjectDecl, home: NodeId) -> ObjectId {
        let id = ObjectId(self.shared.next_object.fetch_add(1, Ordering::Relaxed));
        decl.id = id;
        decl.home = home;
        self.shared.registry.write().expect("registry poisoned").insert(id, decl);
        id
    }

    fn decl(&self, obj: ObjectId) -> Option<ObjectDecl> {
        self.shared.registry.read().expect("registry poisoned").get(&obj).cloned()
    }

    fn assoc_objects(&self, lock: munin_types::LockId) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = self
            .shared
            .registry
            .read()
            .expect("registry poisoned")
            .values()
            .filter(|d| d.associated_lock == Some(lock))
            .map(|d| d.id)
            .collect();
        v.sort_unstable();
        v
    }

    fn retype(&mut self, obj: ObjectId, sharing: SharingType) {
        let mut reg = self.shared.registry.write().expect("registry poisoned");
        if let Some(d) = reg.get_mut(&obj) {
            d.sharing = sharing;
            self.shared.registry_version.fetch_add(1, Ordering::Release);
        }
    }

    fn registry_version(&self) -> u64 {
        self.shared.registry_version.load(Ordering::Acquire)
    }

    fn error(&mut self, msg: String) {
        self.shared.error(msg);
    }

    fn coverage(&self) -> Option<&munin_obs::CoverageMap> {
        self.shared.coverage.as_deref()
    }
}
