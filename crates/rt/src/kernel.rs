//! [`WallKernel`]: the one implementation of the [`munin_sim::KernelApi`]
//! seam for both wall-clock fabrics, generic over the [`Link`] that carries
//! what differs between them.

use crate::fabric::{MsgBody, NodeEvent, Shared};
use crate::timer::{self, TimerReq};
use munin_net::PayloadInfo;
use munin_obs::SrvSpan;
use munin_sim::{KernelApi, OpResult, Registry, ResumeSlot};
use munin_types::{
    CostModel, LockId, NodeId, ObjectDecl, ObjectId, SharingType, ThreadId, VirtualTime,
};
use std::sync::mpsc::Sender;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// What a wall-clock fabric puts under the kernel: the three things the
/// in-process channel fabric and the TCP process fabric do differently.
/// The kernel keeps everything else (traffic counts, completions, timers,
/// registry reads, errors) once for both.
pub trait Link<P> {
    /// Queue `payload` for `dst`. Nothing leaves before [`Link::flush`],
    /// and a (src, dst) pair keeps send order.
    fn send(&mut self, dst: NodeId, payload: P);

    /// Queue one `payload` for every node of `dsts` (never empty).
    fn multicast(&mut self, dsts: &[NodeId], payload: P);

    /// The end of a step: hand everything queued since the last flush to
    /// the fabric, one hand-off per destination.
    fn flush(&mut self);

    /// Resume `thread` with `result`. `span` is the server half of the op's
    /// telemetry span, for a fabric whose thread lives in another process.
    fn resume(&mut self, thread: ThreadId, result: OpResult, span: Option<SrvSpan>);

    /// Make a registry write visible to every node. The default writes the
    /// process's one registry in place; `None` means the registry could not
    /// be reached (the run is tearing down).
    fn register_decl(
        &mut self,
        registry: &RwLock<Registry>,
        decl: ObjectDecl,
        home: NodeId,
    ) -> Option<ObjectId> {
        Some(registry.write().expect("registry poisoned").register_decl(decl, home))
    }

    /// As [`Link::register_decl`], for a retype; `false` when the registry
    /// could not be reached.
    fn retype(&mut self, registry: &RwLock<Registry>, obj: ObjectId, sharing: SharingType) -> bool {
        registry.write().expect("registry poisoned").retype(obj, sharing);
        true
    }
}

/// Kernel services for one node's protocol steps on a wall-clock fabric.
///
/// One instance per node, used by one step at a time (the rt fabric's
/// server thread owns it; the TCP fabric keeps it under the node's mutex).
/// Sends are counted here and queued on the link, which delivers them when
/// the step ends ([`KernelApi::flush_outbound`]), or for an unflushed step
/// ([`crate::NodeStep::step_unflushed`]) at the next flush. Registry reads
/// go to the process's registry in [`Shared`]; writes go through the link.
pub struct WallKernel<L> {
    node: NodeId,
    cost: CostModel,
    link: L,
    timer_tx: Sender<TimerReq>,
    shared: Arc<Shared>,
    /// This node's traffic counters, merged into the run totals at
    /// teardown, so the send path takes no cross-node lock.
    stats: munin_net::NetStats,
    /// Threads whose blocked op completed this step (via
    /// [`KernelApi::complete`]); drained by the step's op gate.
    completions: Vec<ThreadId>,
}

impl<L> WallKernel<L> {
    pub fn new(
        node: NodeId,
        cost: CostModel,
        link: L,
        timer_tx: Sender<TimerReq>,
        shared: Arc<Shared>,
    ) -> Self {
        WallKernel {
            node,
            cost,
            link,
            timer_tx,
            shared,
            stats: munin_net::NetStats::new(),
            completions: Vec::new(),
        }
    }

    /// Run-wide shared state (activity epochs, poisoning, error log).
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// The link under this kernel.
    pub fn link(&self) -> &L {
        &self.link
    }

    /// The link under this kernel, for the fabric's own bookkeeping
    /// between steps.
    pub fn link_mut(&mut self) -> &mut L {
        &mut self.link
    }

    /// This node's traffic counters, taken at teardown.
    pub fn take_stats(&mut self) -> munin_net::NetStats {
        std::mem::take(&mut self.stats)
    }

    /// Threads whose blocked op the protocol completed since the last
    /// call. The op gate dispatches what they queued behind it.
    pub(crate) fn take_completions(&mut self) -> Vec<ThreadId> {
        std::mem::take(&mut self.completions)
    }

    fn registry(&self) -> std::sync::RwLockReadGuard<'_, Registry> {
        self.shared.registry.read().expect("registry poisoned")
    }

    fn unreachable_registry(&self, what: String) {
        self.shared.error(format!(
            "node n{}: registry unavailable for {what} (run tearing down)",
            self.node.index()
        ));
    }

    /// Resume a thread: close the op's server span half and hand the
    /// result to the link. The step's Done path calls this directly, since
    /// it dispatches the thread's next queued op itself.
    pub(crate) fn resume<P>(&mut self, thread: ThreadId, result: OpResult)
    where
        L: Link<P>,
    {
        let span = self.shared.obs.srv_finish(thread);
        self.link.resume(thread, result, span);
    }
}

impl<L: Link<P>, P: PayloadInfo + Clone> KernelApi<P> for WallKernel<L> {
    fn now(&self) -> VirtualTime {
        VirtualTime::micros(self.shared.now_us())
    }

    fn cost(&self) -> &CostModel {
        &self.cost
    }

    fn send(&mut self, src: NodeId, dst: NodeId, payload: P) {
        debug_assert_eq!(src, self.node, "a kernel sends on behalf of its own node");
        debug_assert_ne!(src, dst, "servers handle local work locally, not by self-send");
        self.stats.record(payload.class(), payload.kind(), payload.wire_bytes());
        self.link.send(dst, payload);
    }

    fn multicast(&mut self, src: NodeId, dsts: &[NodeId], payload: P) {
        // Match the simulated transport: an empty destination list is not a
        // multicast (keeps `stats.multicasts` comparable across kernels).
        if dsts.is_empty() {
            return;
        }
        debug_assert!(!dsts.contains(&src), "servers handle local work locally");
        for _ in dsts {
            self.stats.record(payload.class(), payload.kind(), payload.wire_bytes());
        }
        // No hardware multicast on either fabric: fanout == sends.
        self.stats.record_multicast(dsts.len(), dsts.len());
        self.link.multicast(dsts, payload);
    }

    fn flush_outbound(&mut self) {
        self.link.flush();
    }

    fn complete(&mut self, thread: ThreadId, result: OpResult, _extra_cost_us: u64) {
        // Modelled completion cost is a virtual-time concept; here the
        // thread's real wait *is* the cost, so resume at once. Record the
        // thread so the op gate can dispatch what queued behind the op.
        self.resume(thread, result);
        self.completions.push(thread);
    }

    fn set_timer(&mut self, node: NodeId, delay_us: u64, token: u64) {
        debug_assert_eq!(node, self.node, "servers only arm timers for themselves");
        let due = Instant::now() + Duration::from_micros(delay_us);
        timer::arm(&self.timer_tx, &self.shared, node, due, token);
    }

    fn register_decl(&mut self, decl: ObjectDecl, home: NodeId) -> ObjectId {
        match self.link.register_decl(&self.shared.registry, decl, home) {
            Some(id) => id,
            None => {
                // The sentinel id keeps the (already failing) protocol from
                // dereferencing a real object.
                self.unreachable_registry("register_decl".into());
                ObjectId(u64::MAX)
            }
        }
    }

    fn decl(&self, obj: ObjectId) -> Option<ObjectDecl> {
        self.registry().decl(obj).cloned()
    }

    fn assoc_objects(&self, lock: LockId) -> Vec<ObjectId> {
        self.registry().assoc_objects(lock)
    }

    fn retype(&mut self, obj: ObjectId, sharing: SharingType) {
        if !self.link.retype(&self.shared.registry, obj, sharing) {
            self.unreachable_registry(format!("retype of {obj}"));
        }
    }

    fn registry_version(&self) -> u64 {
        self.registry().version()
    }

    fn error(&mut self, msg: String) {
        self.shared.error(msg);
    }

    fn coverage(&self) -> Option<&munin_obs::CoverageMap> {
        self.shared.coverage.as_deref()
    }
}

/// The in-process channel fabric's link: a per-destination outbox flushed
/// as one channel send per destination, and the threads' resume slots.
///
/// Each node's link holds its own clone of every peer's inbox sender, so a
/// (src, dst) pair always travels through one channel and keeps FIFO order.
/// A step's K messages to one destination cost one channel operation and
/// one receiver wake-up ([`NodeEvent::Batch`]). Send failures are ignored:
/// they only happen when the destination already shut down.
pub(crate) struct ChanLink<P> {
    pub(crate) me: NodeId,
    pub(crate) inboxes: Vec<Sender<NodeEvent<P>>>,
    pub(crate) resumes: Vec<Arc<ResumeSlot>>,
    /// Messages queued during the current step, one queue per destination.
    pub(crate) outbox: Vec<Vec<(NodeId, MsgBody<P>)>>,
}

impl<P> Link<P> for ChanLink<P> {
    fn send(&mut self, dst: NodeId, payload: P) {
        self.outbox[dst.index()].push((self.me, MsgBody::Owned(payload)));
    }

    /// One `Arc` for every destination instead of a deep clone each.
    fn multicast(&mut self, dsts: &[NodeId], payload: P) {
        let shared = Arc::new(payload);
        for &dst in dsts {
            self.outbox[dst.index()].push((self.me, MsgBody::Shared(shared.clone())));
        }
    }

    fn flush(&mut self) {
        for (inbox, queued) in self.inboxes.iter().zip(&mut self.outbox) {
            let _ = match queued.len() {
                0 => continue,
                // A lone message needs no batch wrapper (and no Vec on the
                // receiving side).
                1 => {
                    let (src, body) = queued.pop().expect("len checked");
                    inbox.send(NodeEvent::Msg(src, body))
                }
                _ => inbox.send(NodeEvent::Batch(std::mem::take(queued))),
            };
        }
    }

    /// The thread is in this process; the in-process fabric has no wire
    /// hop, so the span stays in the collector's ring. The server thread
    /// holds no lock, so the wake goes out at once.
    fn resume(&mut self, thread: ThreadId, result: OpResult, _span: Option<SrvSpan>) {
        self.resumes[thread.index()].deliver(result);
    }
}
