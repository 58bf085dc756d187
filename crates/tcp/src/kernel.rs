//! [`TcpKernel`]: the socket implementation of the kernel seam.
//!
//! One instance per node process, living beside the node's protocol server
//! in its [`crate::node::NodeCell`] and used only under that cell's lock
//! (the same single-writer discipline as `munin_rt::RtKernel`, kept by a
//! mutex instead of by a dedicated thread). A remote send encodes the
//! payload once, straight into the destination [`Link`]'s out-buffer;
//! `flush_outbound`, which ends every step, gives each link this step wrote
//! to one non-blocking socket write. So everything one step sends to a
//! destination leaves in a single write, the kernel never blocks on a
//! socket (see [`crate::link`] for the flow-control invariant), and the
//! only blocking call a step can make while it holds the cell is the
//! registry RPC (`register_decl` / `retype`), which is served by threads
//! that need no node state.

use crate::frames::{put_msg, put_resume, RegReply, RegRequest};
use crate::link::Link;
use crate::registry::RegClient;
use munin_net::PayloadInfo;
use munin_proto::Wire;
use munin_rt::timer::TimerReq;
use munin_rt::{NodeKernel, Shared};
use munin_sim::{KernelApi, OpResult};
use munin_types::{CostModel, NodeId, ObjectDecl, ObjectId, SharingType, ThreadId, VirtualTime};
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where completed operations resume their thread.
pub enum ResumeSink {
    /// The coordinator process hosts every application thread: resume on
    /// the thread's in-process channel.
    Local(Vec<Sender<OpResult>>),
    /// A child process: the thread lives in the coordinator, so the resume
    /// travels back as a `Resume` frame on the link to node 0.
    Remote,
}

/// Kernel services for one node's protocol steps, over sockets.
pub struct TcpKernel<P> {
    node: NodeId,
    cost: CostModel,
    /// Per-pair links, indexed by destination node (`None` at our own
    /// index).
    links: Vec<Option<Arc<Link>>>,
    /// Links this step pushed frames onto; `flush_outbound` flushes these.
    dirty: Vec<bool>,
    resumes: ResumeSink,
    timer_tx: Sender<TimerReq>,
    shared: Arc<Shared>,
    registry: RegClient,
    stats: munin_net::NetStats,
    /// Threads whose blocked op completed this step (via
    /// [`KernelApi::complete`]); drained by the step's op gate.
    completions: Vec<ThreadId>,
    _payload: PhantomData<fn(P)>,
}

impl<P> TcpKernel<P> {
    pub(crate) fn new(
        node: NodeId,
        cost: CostModel,
        links: Vec<Option<Arc<Link>>>,
        resumes: ResumeSink,
        timer_tx: Sender<TimerReq>,
        registry: RegClient,
        shared: Arc<Shared>,
    ) -> Self {
        TcpKernel {
            node,
            cost,
            dirty: vec![false; links.len()],
            links,
            resumes,
            timer_tx,
            shared,
            registry,
            stats: munin_net::NetStats::new(),
            completions: Vec::new(),
            _payload: PhantomData,
        }
    }

    /// The links whose non-blocking send stopped fitting (small socket
    /// buffers, a slow peer), for the SIGUSR1 / stall dump; links that never
    /// overflowed are left out, so an empty string means none did.
    pub(crate) fn overflows(&self) -> String {
        let overflowed: Vec<String> = self
            .links
            .iter()
            .flatten()
            .filter_map(|l| match l.overflow_stats() {
                (0, 0) => None,
                (frames, bytes) => Some(format!(
                    "to n{}: {frames} frame(s) took the overflow writer, {bytes} B left behind",
                    l.peer().index()
                )),
            })
            .collect();
        overflowed.join("; ")
    }

    /// Queue one frame for `dst`; it leaves at the end of the step.
    fn push(&mut self, dst: NodeId, encode: impl FnOnce(&mut Vec<u8>)) {
        let Some(link) = &self.links[dst.index()] else {
            // No link can only mean a send to our own node index. The
            // other fabrics would deliver it, so dropping silently would
            // turn a protocol change into an unexplained stall — surface
            // it loudly instead (and fail fast in debug builds).
            debug_assert!(false, "send to self over the socket fabric");
            self.shared.error(format!(
                "node n{}: dropped a frame addressed to n{} with no stream (self-send?)",
                self.node.index(),
                dst.index()
            ));
            return;
        };
        link.push(encode);
        self.dirty[dst.index()] = true;
    }

    fn deliver_result(&mut self, thread: ThreadId, result: OpResult) {
        // Close the op's server span half. On node 0 (Local) the span stays
        // in the coordinator's collector directly; on a child (Remote) it
        // rides the Resume frame back to the coordinator's span table.
        let span = self.shared.obs.srv_finish(thread);
        if let ResumeSink::Local(resumes) = &self.resumes {
            let _ = resumes[thread.index()].send(result);
        } else {
            self.push(NodeId(0), |out| put_resume(thread, &result, &span, out));
        }
    }
}

impl<P: PayloadInfo + Wire + Clone> NodeKernel<P> for TcpKernel<P> {
    fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    fn resume(&mut self, thread: ThreadId, result: OpResult) {
        // The step's Done path: deliver without recording a completion (the
        // step dispatches the thread's next queued op itself).
        self.deliver_result(thread, result);
    }

    fn take_completions(&mut self) -> Vec<ThreadId> {
        std::mem::take(&mut self.completions)
    }

    fn take_stats(&mut self) -> munin_net::NetStats {
        std::mem::take(&mut self.stats)
    }
}

impl<P: PayloadInfo + Wire + Clone> KernelApi<P> for TcpKernel<P> {
    fn now(&self) -> VirtualTime {
        VirtualTime::micros(self.shared.now_us())
    }

    fn cost(&self) -> &CostModel {
        &self.cost
    }

    fn send(&mut self, src: NodeId, dst: NodeId, payload: P) {
        debug_assert_eq!(src, self.node, "tcp kernels send on behalf of their own node");
        debug_assert_ne!(src, dst, "servers handle local work locally, not by self-send");
        self.stats.record(payload.class(), payload.kind(), payload.wire_bytes());
        self.push(dst, |out| put_msg(&payload, out));
    }

    fn multicast(&mut self, src: NodeId, dsts: &[NodeId], payload: P) {
        // Match the other fabrics: an empty destination list is not a
        // multicast (keeps `stats.multicasts` comparable across kernels).
        if dsts.is_empty() {
            return;
        }
        for _ in dsts {
            self.stats.record(payload.class(), payload.kind(), payload.wire_bytes());
        }
        // No hardware multicast on a socket fabric: fanout == sends, each
        // encoded from the one payload into its destination's link.
        self.stats.record_multicast(dsts.len(), dsts.len());
        for &dst in dsts {
            debug_assert_ne!(src, dst);
            self.push(dst, |out| put_msg(&payload, out));
        }
    }

    fn flush_outbound(&mut self) {
        for (link, dirty) in self.links.iter().zip(&mut self.dirty) {
            if std::mem::take(dirty) {
                link.as_ref().expect("only existing links get dirty").flush();
            }
        }
    }

    fn complete(&mut self, thread: ThreadId, result: OpResult, _extra_cost_us: u64) {
        self.deliver_result(thread, result);
        self.completions.push(thread);
    }

    fn set_timer(&mut self, node: NodeId, delay_us: u64, token: u64) {
        debug_assert_eq!(node, self.node, "servers only arm timers for themselves");
        // Same additive discipline as the rt kernel: count the timer as
        // pending *before* mailing the request so the distributed watchdog
        // (which sums heartbeat-reported pending counts) can never catch
        // the arm in flight.
        self.shared.timers_pending.fetch_add(1, Ordering::Release);
        let req = TimerReq { due: Instant::now() + Duration::from_micros(delay_us), node, token };
        if self.timer_tx.send(req).is_err() {
            self.shared.timers_pending.fetch_sub(1, Ordering::Release);
        }
    }

    fn register_decl(&mut self, decl: ObjectDecl, home: NodeId) -> ObjectId {
        match self.registry.write(RegRequest::Decl { decl, home }) {
            Some(RegReply::Decl { id, .. }) => id,
            _ => {
                // Only reachable when the run is tearing down underneath
                // the server; the sentinel id keeps the (already failing)
                // protocol from dereferencing a real object.
                self.shared.error(format!(
                    "node n{}: registry unavailable for register_decl (run tearing down)",
                    self.node.index()
                ));
                ObjectId(u64::MAX)
            }
        }
    }

    fn decl(&self, obj: ObjectId) -> Option<ObjectDecl> {
        self.registry.cache.decl(obj)
    }

    fn assoc_objects(&self, lock: munin_types::LockId) -> Vec<ObjectId> {
        self.registry.cache.assoc_objects(lock)
    }

    fn retype(&mut self, obj: ObjectId, sharing: SharingType) {
        if self.registry.write(RegRequest::Retype { obj, sharing }).is_none() {
            self.shared.error(format!(
                "node n{}: registry unavailable for retype of {obj} (run tearing down)",
                self.node.index()
            ));
        }
    }

    fn registry_version(&self) -> u64 {
        self.registry.cache.version()
    }

    fn error(&mut self, msg: String) {
        self.shared.error(msg);
    }

    fn coverage(&self) -> Option<&munin_obs::CoverageMap> {
        self.shared.coverage.as_deref()
    }
}
