//! The coordinator-hosted registry service.
//!
//! In-process nodes share one `munin_sim::Registry`; real processes cannot.
//! Here every process keeps its own copy in its `munin_rt::Shared`, and the
//! coordinator's copy is the master:
//!
//! * **reads** (`decl`, `assoc_objects`, `registry_version`) are answered
//!   from the process's copy without any communication — matching the
//!   paper's premise that declarations are "compiled into the program";
//! * **writes** (`register_decl`, `retype`) are request/reply messages to
//!   the registry service, which applies the write to the master copy,
//!   pushes the same write to every child, **waits for all acks, and only
//!   then replies** to the writer. The service makes one write at a time
//!   and every child replays them in its order, so every copy assigns the
//!   same ids.
//!
//! The ack-barrier is what makes the split correct without cross-stream
//! ordering guarantees: when the writer's kernel returns from the blocking
//! write, every peer's copy already contains the update, so any protocol
//! message the writer sends next — on whatever stream — is causally ordered
//! after the update everywhere it could matter. Writes are rare (dynamic
//! allocation, adaptive retyping), so the barrier costs nothing on the
//! steady-state path.

use crate::frames::{send_shared, CtrlFrame, RegReply, RegRequest, SharedWriter};
use munin_rt::Shared;
use munin_sim::Registry;
use munin_types::NodeId;
use std::collections::{BTreeSet, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// How long the registry service waits for acks before giving up on a
/// silent node (the run is already failing if a node stops acking; the
/// fault paths will name it).
const ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// Apply one registry write to a process's copy: the service's to the
/// master, a child's to its own, in the service's order.
pub(crate) fn apply(registry: &RwLock<Registry>, req: RegRequest) -> RegReply {
    let mut registry = registry.write().expect("registry poisoned");
    match req {
        RegRequest::Decl { decl, home } => {
            RegReply::Decl { id: registry.register_decl(decl, home) }
        }
        RegRequest::Retype { obj, sharing } => {
            registry.retype(obj, sharing);
            RegReply::Retype
        }
    }
}

/// Input to the registry service thread: write requests and acks, funneled
/// from every child's control reader plus node 0's local client.
pub enum RegEvent {
    Request {
        from: NodeId,
        req: RegRequest,
    },
    /// A node applied the update broadcast with barrier sequence `seq`.
    Ack {
        from: NodeId,
        seq: u64,
    },
}

/// The registry service: runs on its own coordinator thread for the whole
/// run, exits when the last funnel sender drops at teardown. `ctrls` are
/// the children's control streams, indexed by node (`None` at node 0, whose
/// replies go down `local_reply`); the master copy is `shared.registry`.
pub fn run_registry_service(
    rx: Receiver<RegEvent>,
    ctrls: Vec<Option<SharedWriter>>,
    local_reply: Sender<RegReply>,
    shared: Arc<Shared>,
) {
    // Barrier sequence: every broadcast gets a fresh value, and only acks
    // echoing the *current* value count — a late ack from a barrier that
    // timed out (its node descheduled past ACK_TIMEOUT) must not release
    // a later barrier before that node's copy actually applied it.
    let mut seq: u64 = 0;
    // Requests that arrived while an ack-barrier was in progress.
    let mut backlog: VecDeque<RegEvent> = VecDeque::new();
    loop {
        let ev = match backlog.pop_front() {
            Some(ev) => ev,
            None => match rx.recv() {
                Ok(ev) => ev,
                Err(_) => return,
            },
        };
        let (from, req) = match ev {
            RegEvent::Request { from, req } => (from, req),
            // An ack outside a barrier is the tail of one that timed out;
            // with per-seq attribution it is safely ignorable noise.
            RegEvent::Ack { .. } => continue,
        };
        let reply = apply(&shared.registry, req.clone());
        seq += 1;
        broadcast(&ctrls, &rx, &mut backlog, &shared, req, seq);
        match &ctrls[from.index()] {
            None => {
                let _ = local_reply.send(reply);
            }
            Some(ctrl) => {
                let _ = send_shared(ctrl, &CtrlFrame::RegReply(reply));
            }
        }
    }
}

/// Push `req` to every child's copy and wait until all of them acked
/// **this barrier** (acks carry the barrier's `seq` and are attributed per
/// node, so neither a stale ack from a timed-out earlier barrier nor a
/// duplicate from one node can release it early). Unrelated requests
/// arriving mid-barrier are buffered into `backlog`.
fn broadcast(
    ctrls: &[Option<SharedWriter>],
    rx: &Receiver<RegEvent>,
    backlog: &mut VecDeque<RegEvent>,
    shared: &Shared,
    req: RegRequest,
    seq: u64,
) {
    let mut pending: BTreeSet<NodeId> = BTreeSet::new();
    for (i, ctrl) in ctrls.iter().enumerate() {
        let Some(ctrl) = ctrl else { continue };
        // A failed send means the node is gone; the reader threads report
        // lost peers, so just don't wait for its ack.
        if send_shared(ctrl, &CtrlFrame::RegUpdate { req: req.clone(), seq }).is_ok() {
            pending.insert(NodeId(i as u16));
        }
    }
    let deadline = Instant::now() + ACK_TIMEOUT;
    while !pending.is_empty() {
        let timeout = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(timeout) {
            Ok(RegEvent::Ack { from, seq: ack_seq }) => {
                // Acks for older barriers are late tails of a timeout —
                // ignore them; only this barrier's acks release it.
                if ack_seq == seq {
                    pending.remove(&from);
                }
            }
            Ok(other) => backlog.push_back(other),
            Err(RecvTimeoutError::Timeout) => {
                shared.error(format!(
                    "registry: node(s) {pending:?} did not ack {req:?} within {ACK_TIMEOUT:?}"
                ));
                return;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// A node-side handle for registry **writes** (reads go straight to the
/// process's copy). One outstanding write at a time per node — writes only
/// ever come from a step, which holds the node's lock.
pub struct RegClient {
    pub path: RegWritePath,
    pub reply_rx: Receiver<RegReply>,
    pub shared: Arc<Shared>,
}

pub enum RegWritePath {
    /// Node 0: funnel straight into the service thread.
    Local { tx: Sender<RegEvent>, node: NodeId },
    /// Child: over the control stream (the control reader routes the
    /// service's `RegReply` back into `reply_rx`).
    Remote { ctrl: SharedWriter },
}

impl RegClient {
    /// Issue a write and block until the service's ack-barriered reply.
    /// Returns `None` if the run tore down underneath us (poisoned or
    /// disconnected) — the caller records an error and proceeds, since the
    /// run is already failing.
    pub fn write(&self, req: RegRequest) -> Option<RegReply> {
        match &self.path {
            RegWritePath::Local { tx, node } => {
                if tx.send(RegEvent::Request { from: *node, req }).is_err() {
                    return None;
                }
            }
            RegWritePath::Remote { ctrl } => {
                if send_shared(ctrl, &CtrlFrame::Reg(req)).is_err() {
                    return None;
                }
            }
        }
        loop {
            match self.reply_rx.recv_timeout(Duration::from_millis(100)) {
                Ok(r) => return Some(r),
                Err(RecvTimeoutError::Timeout) => {
                    if self.shared.is_poisoned() {
                        return None;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }
}
