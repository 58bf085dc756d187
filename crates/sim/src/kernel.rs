//! The kernel-services seam between protocol servers and the runtime that
//! hosts them.
//!
//! [`crate::Server`] implementations (the Munin per-node server, the Ivy
//! manager) do not care *how* they are scheduled — only that they can send
//! protocol messages, complete blocked threads, register declarations, arm
//! timers and report errors. [`KernelApi`] captures exactly that contract,
//! so the same protocol logic runs on two very different kernels:
//!
//! * the **virtual-time kernel** ([`crate::Kernel`] inside
//!   [`crate::World`]) — deterministic discrete-event simulation, one
//!   runnable thread at a time;
//! * the **wall-clock kernel** (`munin_rt::WallKernel`) — app threads truly
//!   in parallel, wall-clock timers, and a link under it that is either
//!   in-process channels (`munin-rt`) or sockets between processes
//!   (`munin-tcp`).
//!
//! The trait is object-safe on purpose: servers take
//! `&mut dyn KernelApi<P>`, which keeps every fault handler monomorphic
//! (no per-kernel code duplication) and keeps the `Server` trait itself
//! kernel-agnostic.

use crate::op::OpResult;
use munin_net::PayloadInfo;
use munin_types::{
    CostModel, LockId, NodeId, ObjectDecl, ObjectId, SharingType, ThreadId, VirtualTime,
};
use std::collections::HashMap;

/// Kernel services available to a [`crate::Server`] while it handles
/// operations, messages and timers.
///
/// Implemented by the deterministic virtual-time kernel
/// ([`crate::Kernel`]) and by the wall-clock kernel of the rt and TCP
/// fabrics (`munin_rt::WallKernel`).
pub trait KernelApi<P: PayloadInfo + Clone> {
    /// Current time: virtual microseconds on the simulator, wall-clock
    /// microseconds since run start on the real-time kernel.
    fn now(&self) -> VirtualTime;

    /// The cost model in force. On the simulator every charge below advances
    /// the clock; the real-time kernel keeps the model purely for the
    /// protocols' bookkeeping (real latencies are measured, not modelled).
    fn cost(&self) -> &CostModel;

    /// Send a protocol message to another node's server.
    fn send(&mut self, src: NodeId, dst: NodeId, payload: P);

    /// Multicast a protocol message. Callers pass sorted destination lists
    /// so simulator traces stay stable across refactorings.
    fn multicast(&mut self, src: NodeId, dsts: &[NodeId], payload: P);

    /// End-of-step batching hook: kernels that coalesce outbound sends
    /// flush everything buffered since the last call as one channel
    /// message per destination. The hosting event loop calls this after
    /// each bounded batch of server events, before it can block again, so
    /// no buffered message is ever stranded behind a sleeping server. The
    /// virtual-time kernel delivers every send eagerly into its event
    /// queue, so its implementation is the default no-op.
    fn flush_outbound(&mut self) {}

    /// Complete a blocked thread's pending operation. `extra_cost_us` is
    /// virtual time on the simulator; the real-time kernel resumes the
    /// thread immediately (its cost *is* the elapsed wall clock).
    fn complete(&mut self, thread: ThreadId, result: OpResult, extra_cost_us: u64);

    /// Register a server timer: `on_timer(token)` fires on `node`'s server
    /// after `delay_us` (virtual or wall-clock microseconds).
    fn set_timer(&mut self, node: NodeId, delay_us: u64, token: u64);

    /// Allocate a fresh object id and register its declaration. The
    /// declaration's `id` field is overwritten with the assigned id and
    /// `home` with the allocating node.
    fn register_decl(&mut self, decl: ObjectDecl, home: NodeId) -> ObjectId;

    /// Look up an object's declaration (cloned — declarations are tiny and
    /// servers cache the hot fields). Declarations are globally known (the
    /// paper compiles them into the program), so this models no
    /// communication.
    fn decl(&self, obj: ObjectId) -> Option<ObjectDecl>;

    /// Ids of objects declared with `lock` as their associated lock, sorted
    /// by id. This is the lock-token piggyback query — it runs on every
    /// token pass, so it is a targeted lookup returning plain ids rather
    /// than a clone of the whole registry.
    fn assoc_objects(&self, lock: LockId) -> Vec<ObjectId>;

    /// Change an object's sharing annotation at runtime — the paper's §4
    /// dynamic re-typing. The caller (the object's home server) is
    /// responsible for resetting protocol state.
    fn retype(&mut self, obj: ObjectId, sharing: SharingType);

    /// Monotone counter bumped on every runtime retype; servers use it to
    /// revalidate their declaration caches cheaply.
    fn registry_version(&self) -> u64;

    /// Report a server-detected error (invariant violation, livelock). The
    /// run continues but the report will not be clean.
    fn error(&mut self, msg: String);

    /// The run's protocol-state coverage recorder, when one is attached
    /// (campaign explore mode). Default is `None`, so an uninstrumented run
    /// pays exactly one predicted branch per note site — protocol servers
    /// call `if let Some(c) = k.coverage() { c.note(...) }`.
    fn coverage(&self) -> Option<&munin_obs::CoverageMap> {
        None
    }
}

/// The object-declaration registry behind [`KernelApi`]'s five registry
/// methods, as a plain value: the simulator's kernel owns one, and each
/// wall-clock process keeps one behind a lock (the TCP fabric replays every
/// write to each process's copy in the same order, so all copies agree).
#[derive(Debug)]
pub struct Registry {
    decls: HashMap<ObjectId, ObjectDecl>,
    version: u64,
    next_object: u64,
}

impl Registry {
    /// A registry holding the build-time declarations; dynamically
    /// registered ids continue after the largest one.
    pub fn new(decls: impl IntoIterator<Item = ObjectDecl>) -> Self {
        let decls: HashMap<ObjectId, ObjectDecl> = decls.into_iter().map(|d| (d.id, d)).collect();
        let next_object = decls.keys().map(|id| id.0 + 1).max().unwrap_or(0);
        Registry { decls, version: 0, next_object }
    }

    /// See [`KernelApi::register_decl`].
    pub fn register_decl(&mut self, mut decl: ObjectDecl, home: NodeId) -> ObjectId {
        let id = ObjectId(self.next_object);
        self.next_object += 1;
        decl.id = id;
        decl.home = home;
        self.decls.insert(id, decl);
        id
    }

    /// See [`KernelApi::decl`].
    pub fn decl(&self, obj: ObjectId) -> Option<&ObjectDecl> {
        self.decls.get(&obj)
    }

    /// See [`KernelApi::assoc_objects`].
    pub fn assoc_objects(&self, lock: LockId) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> =
            self.decls.values().filter(|d| d.associated_lock == Some(lock)).map(|d| d.id).collect();
        v.sort_unstable();
        v
    }

    /// See [`KernelApi::retype`]. The version moves only when `obj` exists.
    pub fn retype(&mut self, obj: ObjectId, sharing: SharingType) {
        if let Some(d) = self.decls.get_mut(&obj) {
            d.sharing = sharing;
            self.version += 1;
        }
    }

    /// See [`KernelApi::registry_version`].
    pub fn version(&self) -> u64 {
        self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Never constructed: only the type is needed for the object-safety
    // check below.
    #[derive(Debug, Clone)]
    #[allow(dead_code)]
    struct Nop;

    impl PayloadInfo for Nop {
        fn class(&self) -> munin_net::MsgClass {
            munin_net::MsgClass::Control
        }
        fn kind(&self) -> &'static str {
            "Nop"
        }
        fn wire_bytes(&self) -> usize {
            0
        }
    }

    // Object safety is the load-bearing property: the whole protocol layer
    // takes `&mut dyn KernelApi<P>`.
    #[test]
    fn kernel_api_is_object_safe() {
        fn _takes_dyn(_: &mut dyn KernelApi<Nop>) {}
    }
}
