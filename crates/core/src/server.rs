//! The per-node Munin server.
//!
//! "Munin servers on each machine interact with the applications program and
//! the underlying distributed operating system to ensure that segments are
//! correctly mapped into local memory when they are accessed. ... The server
//! checks what type of object the thread faulted on and invokes the
//! appropriate fault handler."
//!
//! This file holds the server state and the top-level dispatch; the fault
//! handlers themselves live in sibling modules (`faults`, `flush`,
//! `ownership`, `migrate`, `locks`, `condvar`, `atomic`, `adapt`), each
//! adding an `impl MuninServer` block; barriers run on the shared home
//! barrier of [`munin_proto::sync`], here in the dispatch.

use crate::adapt::DetectStat;
use crate::duq::Duq;
use crate::msg::MuninMsg;
use crate::state::{DirEntry, InflightKind, LocalState, PendingFault, SyncDecls};
use crate::sync_objs::{CondHomeState, LockHomeState, ProxyLock};
use munin_mem::{ObjectStore, TwinStore};
use munin_proto::HomeSync;
use munin_sim::{DsmOp, KernelApi, OpOutcome, OpResult, Server};
use munin_types::{
    BarrierId, ByteRange, CondId, DsmError, IdMap, LockId, MuninConfig, NodeId, ObjectId,
    SharingType, ThreadId,
};
use std::collections::{BTreeMap, BTreeSet};

/// Cached slice of an [`munin_types::ObjectDecl`] — everything the hot paths
/// need without cloning the name string.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DeclLite {
    pub sharing: SharingType,
    pub home: NodeId,
    pub size: u32,
    pub eager: bool,
    pub associated_lock: Option<LockId>,
}

/// Why a flush session exists; decides what happens when it completes.
#[derive(Debug)]
pub(crate) enum SessionKind {
    /// Part of a synchronization flush; completion may release sync waiters.
    SyncFlush,
    /// A write-through data operation (read-mostly writes); completion
    /// resumes the writing thread.
    WriteThrough { thread: ThreadId },
}

/// Flusher-side session: counts `FlushDone` acks still expected (one per
/// home the flush batch was split across).
#[derive(Debug)]
pub(crate) struct Session {
    pub pending_homes: usize,
    pub kind: SessionKind,
}

/// Home-side distribution session: counts `FlushOutAck`s still expected.
#[derive(Debug)]
pub(crate) struct OutSession {
    pub origin: NodeId,
    pub pending_acks: usize,
}

/// A synchronization operation waiting for the delayed update queue to
/// finish flushing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SyncCont {
    Lock(LockId),
    Unlock(LockId),
    Barrier(BarrierId),
    CondWait { cond: CondId, lock: LockId },
    CondSignal { cond: CondId, broadcast: bool },
    FlushOnly,
    Exit,
}

/// The Munin server for one node.
pub struct MuninServer {
    pub(crate) node: NodeId,
    pub(crate) cfg: MuninConfig,
    pub(crate) sync: HomeSync<()>,

    // ---- memory -----------------------------------------------------------
    pub(crate) store: ObjectStore,
    pub(crate) twins: TwinStore,
    pub(crate) local: IdMap<ObjectId, LocalState>,
    pub(crate) decl_cache: IdMap<ObjectId, DeclLite>,
    pub(crate) decl_cache_version: u64,

    // ---- directory (for objects homed here) --------------------------------
    pub(crate) dir: IdMap<ObjectId, DirEntry>,

    // ---- delayed updates ----------------------------------------------------
    pub(crate) duq: Duq,
    /// Producer-consumer objects with eager pushes since the last flush
    /// (they need an acknowledged fence at the next synchronization).
    pub(crate) eager_dirty: BTreeSet<ObjectId>,
    pub(crate) sessions: BTreeMap<u64, Session>,
    pub(crate) out_sessions: BTreeMap<u64, OutSession>,
    pub(crate) next_session: u64,
    pub(crate) sync_waiters: Vec<(ThreadId, SyncCont)>,

    // ---- fault service --------------------------------------------------------
    pub(crate) faults: IdMap<ObjectId, Vec<PendingFault>>,
    pub(crate) inflight: IdMap<ObjectId, BTreeSet<InflightKind>>,

    // ---- migratory chains --------------------------------------------------------
    pub(crate) probable_holder: IdMap<ObjectId, NodeId>,

    // ---- synchronization objects ---------------------------------------------------
    pub(crate) proxies: IdMap<LockId, ProxyLock>,
    pub(crate) lock_homes: IdMap<LockId, LockHomeState>,
    pub(crate) cond_homes: IdMap<CondId, CondHomeState>,
    pub(crate) cv_parked: IdMap<ThreadId, LockId>,

    // ---- result-object write logs (ranges this node wrote) --------------------------
    pub(crate) result_written: IdMap<ObjectId, Vec<munin_types::ByteRange>>,

    // ---- dynamic decisions ------------------------------------------------------------
    pub(crate) detect: IdMap<ObjectId, DetectStat>,

    // ---- fault-campaign chaos (checker mutation tests) -------------------------------
    /// Copyset distribution sends performed so far, counted only when
    /// `cfg.chaos_skip_updates` is armed (the Nth send is skipped).
    pub(crate) chaos_dist_sends: u64,
}

impl MuninServer {
    pub fn new(node: NodeId, cfg: MuninConfig, sync: SyncDecls) -> Self {
        let mut proxies = IdMap::default();
        let mut lock_homes = IdMap::default();
        for l in &sync.locks {
            // The token starts at the lock's home.
            proxies.insert(l.id, ProxyLock::new(l.home == node));
            if l.home == node {
                lock_homes.insert(l.id, LockHomeState::new(node));
            }
        }
        // Session ids must be globally unique (they cross the wire and come
        // back): partition the u64 space by node.
        let next_session = (node.0 as u64) << 48;
        MuninServer {
            node,
            cfg,
            sync: HomeSync::new(node, &sync),
            store: ObjectStore::new(),
            twins: TwinStore::new(),
            local: IdMap::default(),
            decl_cache: IdMap::default(),
            decl_cache_version: 0,
            dir: IdMap::default(),
            duq: Duq::new(),
            eager_dirty: BTreeSet::new(),
            sessions: BTreeMap::new(),
            out_sessions: BTreeMap::new(),
            next_session,
            sync_waiters: Vec::new(),
            faults: IdMap::default(),
            inflight: IdMap::default(),
            probable_holder: IdMap::default(),
            proxies,
            lock_homes,
            cond_homes: IdMap::default(),
            cv_parked: IdMap::default(),
            result_written: IdMap::default(),
            detect: IdMap::default(),
            chaos_dist_sends: 0,
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    // ---- common helpers -----------------------------------------------------

    /// Fetch (and cache) the lite declaration of an object. The cache is
    /// dropped wholesale whenever the kernel's registry version moves (a
    /// runtime retype happened somewhere).
    pub(crate) fn decl(&mut self, k: &dyn KernelApi<MuninMsg>, obj: ObjectId) -> Option<DeclLite> {
        if self.decl_cache_version != k.registry_version() {
            self.decl_cache.clear();
            self.decl_cache_version = k.registry_version();
        }
        if let Some(d) = self.decl_cache.get(&obj) {
            return Some(*d);
        }
        let d = k.decl(obj)?;
        let lite = DeclLite {
            sharing: d.sharing,
            home: d.home,
            size: d.size,
            eager: d.eager,
            associated_lock: d.associated_lock,
        };
        self.decl_cache.insert(obj, lite);
        Some(lite)
    }

    /// Drop the cached declaration (after a runtime retype).
    pub(crate) fn uncache_decl(&mut self, obj: ObjectId) {
        self.decl_cache.remove(&obj);
    }

    pub(crate) fn local_mut(&mut self, obj: ObjectId) -> &mut LocalState {
        self.local.entry(obj).or_default()
    }

    /// Materialize the home copy + directory entry for an object homed here.
    ///
    /// Materialization happens exactly once, on first touch: after that, an
    /// absent store entry means the object legitimately lives elsewhere
    /// (migrated away, carried off by a lock pass) and must NOT be
    /// resurrected as a stale zero-filled copy.
    pub(crate) fn ensure_home(&mut self, decl: DeclLite, obj: ObjectId) {
        debug_assert_eq!(decl.home, self.node);
        if !self.dir.contains_key(&obj) {
            self.dir.insert(obj, DirEntry::new(decl.sharing, self.node));
            self.store.ensure_zeroed(obj, decl.size);
            let st = self.local.entry(obj).or_default();
            st.valid = true;
            st.writable = true;
        }
        self.probable_holder.entry(obj).or_insert(self.node);
    }

    /// Route a protocol message: remote destinations go over the wire, the
    /// local node is handled by a direct (zero-cost, zero-latency) call —
    /// the moral equivalent of the server invoking its own handler.
    pub(crate) fn route(&mut self, k: &mut dyn KernelApi<MuninMsg>, dst: NodeId, msg: MuninMsg) {
        if dst == self.node {
            self.handle_msg(k, self.node, msg);
        } else {
            k.send(self.node, dst, msg);
        }
    }

    /// Park a faulting thread on an object.
    pub(crate) fn pend_fault(&mut self, obj: ObjectId, fault: PendingFault) {
        self.faults.entry(obj).or_default().push(fault);
    }

    /// Is a request of `kind` already outstanding for `obj`?
    pub(crate) fn inflight_contains(&self, obj: ObjectId, kind: InflightKind) -> bool {
        self.inflight.get(&obj).is_some_and(|s| s.contains(&kind))
    }

    pub(crate) fn inflight_insert(&mut self, obj: ObjectId, kind: InflightKind) {
        self.inflight.entry(obj).or_default().insert(kind);
    }

    pub(crate) fn inflight_remove(&mut self, obj: ObjectId, kind: InflightKind) {
        if let Some(s) = self.inflight.get_mut(&obj) {
            s.remove(&kind);
            if s.is_empty() {
                self.inflight.remove(&obj);
            }
        }
    }

    /// Cost charged when a fault completes: trap overhead + the access.
    pub(crate) fn fault_cost(&self, k: &dyn KernelApi<MuninMsg>) -> u64 {
        k.cost().fault_overhead_us + k.cost().local_access_us
    }

    /// Publish every unpublished write-once object homed on this node and
    /// serve readers that were waiting for publication. Called at every
    /// local synchronization operation and phase transition.
    pub(crate) fn publish_write_once(&mut self, k: &mut dyn KernelApi<MuninMsg>) {
        let candidates: Vec<ObjectId> = self
            .dir
            .iter()
            .filter(|(_, e)| e.sharing == SharingType::WriteOnce && !e.published)
            .map(|(o, _)| *o)
            .collect();
        for obj in candidates {
            let waiting = {
                let e = self.dir.get_mut(&obj).expect("candidate has dir entry");
                e.published = true;
                std::mem::take(&mut e.waiting_publication)
            };
            for (requester, page) in waiting {
                self.serve_read_copy(k, obj, requester, page);
            }
        }
    }

    /// The synchronization entry point shared by all sync ops: publish
    /// write-once objects, start the DUQ flush, run (or queue) the
    /// continuation.
    pub(crate) fn op_sync(
        &mut self,
        k: &mut dyn KernelApi<MuninMsg>,
        thread: ThreadId,
        cont: SyncCont,
    ) -> OpOutcome {
        self.publish_write_once(k);
        self.start_sync_flush(k, thread);
        if self.sessions.is_empty() {
            self.run_cont(k, thread, cont);
        } else {
            self.sync_waiters.push((thread, cont));
        }
        OpOutcome::Blocked
    }

    /// Execute a sync continuation after its flush completed.
    pub(crate) fn run_cont(
        &mut self,
        k: &mut dyn KernelApi<MuninMsg>,
        thread: ThreadId,
        cont: SyncCont,
    ) {
        match cont {
            SyncCont::FlushOnly | SyncCont::Exit => {
                k.complete(thread, OpResult::Unit, k.cost().local_access_us);
            }
            SyncCont::Lock(l) => self.lock_acquire(k, thread, l),
            SyncCont::Unlock(l) => self.lock_release(k, thread, l),
            SyncCont::Barrier(b) => {
                let home = self.sync.park(b, thread);
                self.route(k, home, MuninMsg::BarrierArrive { barrier: b, threads: 1 });
            }
            SyncCont::CondWait { cond, lock } => self.cond_wait(k, thread, cond, lock),
            SyncCont::CondSignal { cond, broadcast } => {
                self.cond_signal(k, thread, cond, broadcast)
            }
        }
    }

    /// Called when the set of open sessions drains to empty: run every
    /// queued sync continuation (FIFO).
    pub(crate) fn maybe_release_sync_waiters(&mut self, k: &mut dyn KernelApi<MuninMsg>) {
        if !self.sessions.is_empty() {
            return;
        }
        let waiters = std::mem::take(&mut self.sync_waiters);
        for (thread, cont) in waiters {
            self.run_cont(k, thread, cont);
        }
    }

    pub(crate) fn fresh_session(&mut self, kind: SessionKind, pending_homes: usize) -> u64 {
        let id = self.next_session;
        self.next_session += 1;
        self.sessions.insert(id, Session { pending_homes, kind });
        id
    }

    /// Record an access for the runtime type detector (home side).
    pub(crate) fn note_dir_access(
        &mut self,
        k: &mut dyn KernelApi<MuninMsg>,
        obj: ObjectId,
        from: NodeId,
        is_write: bool,
    ) {
        if let Some(e) = self.dir.get_mut(&obj) {
            if is_write {
                e.remote_writes += 1;
            } else {
                e.remote_reads += 1;
            }
        }
        if self.cfg.adaptive_typing {
            self.detect.entry(obj).or_default().note(from, is_write);
            self.maybe_retype(k, obj);
        }
    }
}

impl Server for MuninServer {
    type Payload = MuninMsg;

    fn on_op(&mut self, k: &mut dyn KernelApi<MuninMsg>, thread: ThreadId, op: DsmOp) -> OpOutcome {
        if let Err(e) = self.sync.check(&op) {
            return OpOutcome::fail(e);
        }
        match op {
            DsmOp::Alloc(decl) => {
                let sharing = decl.sharing;
                if sharing == SharingType::Synchronization {
                    return OpOutcome::fail(DsmError::SharingViolation {
                        obj: decl.id,
                        sharing,
                        detail: "synchronization objects are declared via SyncDecls, not Alloc",
                    });
                }
                let id = k.register_decl(decl, self.node);
                let lite = self.decl(k, id).expect("just registered");
                self.ensure_home(lite, id);
                OpOutcome::done(OpResult::Object(id), k.cost().local_access_us)
            }
            DsmOp::Read { obj, range } => self.op_read(k, thread, obj, range),
            DsmOp::Write { obj, range, data } => self.op_write(k, thread, obj, range, data),
            DsmOp::AtomicFetchAdd { obj, offset, delta } => {
                self.op_atomic(k, thread, obj, offset, delta)
            }
            DsmOp::Lock(l) => self.op_sync(k, thread, SyncCont::Lock(l)),
            DsmOp::Unlock(l) => self.op_sync(k, thread, SyncCont::Unlock(l)),
            DsmOp::BarrierWait(b) => self.op_sync(k, thread, SyncCont::Barrier(b)),
            DsmOp::CondWait { cond, lock } => {
                self.op_sync(k, thread, SyncCont::CondWait { cond, lock })
            }
            DsmOp::CondSignal { cond, broadcast } => {
                self.op_sync(k, thread, SyncCont::CondSignal { cond, broadcast })
            }
            DsmOp::Flush => self.op_sync(k, thread, SyncCont::FlushOnly),
            DsmOp::Exit => self.op_sync(k, thread, SyncCont::Exit),
            DsmOp::Phase(n) => {
                if n > 0 {
                    self.publish_write_once(k);
                }
                OpOutcome::unit(k.cost().local_access_us)
            }
            DsmOp::Compute(us) => OpOutcome::unit(us), // normally kernel-handled
        }
    }

    /// A fetch-add on an object homed elsewhere is one `AtomicReq` to the
    /// home and completes on its `AtomicReply` (see `atomic.rs`), with no
    /// per-thread state in between.
    fn ordered_peer(&mut self, k: &dyn KernelApi<MuninMsg>, op: &DsmOp) -> Option<NodeId> {
        match op {
            DsmOp::AtomicFetchAdd { obj, .. } => {
                self.decl(k, *obj).map(|d| d.home).filter(|&home| home != self.node)
            }
            _ => None,
        }
    }

    fn on_message(&mut self, k: &mut dyn KernelApi<MuninMsg>, from: NodeId, payload: MuninMsg) {
        self.handle_msg(k, from, payload);
    }

    fn debug_stuck_state(&self) -> String {
        use std::fmt::Write;
        // Compact snapshot of everything that can hold a thread: pending
        // faults, in-flight coherence transactions, flush sessions, and the
        // synchronization subsystem. Empty sections are omitted so a mostly
        // idle node dumps a short line, not a page.
        let mut out = String::new();
        if !self.sync_waiters.is_empty() {
            let _ = write!(out, "sync_waiters={:?}; ", self.sync_waiters);
        }
        if !self.faults.is_empty() {
            let faults: Vec<_> = self.faults.iter().map(|(obj, pend)| (*obj, pend.len())).collect();
            let _ = write!(out, "faults={faults:?}; ");
        }
        if !self.inflight.is_empty() {
            let _ = write!(out, "inflight={:?}; ", self.inflight);
        }
        if !self.sessions.is_empty() {
            let _ = write!(out, "flush_sessions={:?}; ", self.sessions);
        }
        if !self.out_sessions.is_empty() {
            let _ = write!(out, "out_sessions={:?}; ", self.out_sessions);
        }
        for (l, p) in &self.proxies {
            if p.locked_by.is_some() || !p.local_queue.is_empty() || p.requested {
                let _ = write!(
                    out,
                    "proxy {l}: token={} locked_by={:?} queue={:?} requested={}; ",
                    p.has_token, p.locked_by, p.local_queue, p.requested
                );
            }
        }
        for (l, h) in &self.lock_homes {
            if !h.queue.is_empty() || h.fetch_outstanding {
                let _ = write!(
                    out,
                    "lock_home {l}: token_at={} queue={:?} fetch_outstanding={}; ",
                    h.token_at, h.queue, h.fetch_outstanding
                );
            }
        }
        out.push_str(&self.sync.stuck_state());
        if !self.cv_parked.is_empty() {
            let _ = write!(out, "cv_parked={:?}; ", self.cv_parked);
        }
        out
    }
}

impl MuninServer {
    /// Unified message dispatch (also reachable via `route` for local
    /// destinations).
    pub(crate) fn handle_msg(
        &mut self,
        k: &mut dyn KernelApi<MuninMsg>,
        from: NodeId,
        msg: MuninMsg,
    ) {
        use MuninMsg::*;
        match msg {
            ReadReq { obj, page } => self.handle_read_req(k, from, obj, page),
            ReadReply { obj, page, data, install, confirm } => {
                self.handle_read_reply(k, from, obj, page, data, install, confirm)
            }
            ReadConfirm { obj } => self.handle_read_confirm(k, from, obj),
            FwdRead { obj, requester } => self.handle_fwd_read(k, obj, requester),
            WriteReq { obj } => self.handle_write_req(k, from, obj),
            OwnerYield { obj } => self.handle_owner_yield(k, from, obj),
            OwnerData { obj, data } => self.handle_owner_data(k, from, obj, data),
            OwnerGrant { obj, data } => self.handle_owner_grant(k, from, obj, data),
            Inval { obj, session } => self.handle_inval(k, from, obj, session),
            InvalAck { obj, session } => self.handle_inval_ack(k, from, obj, session),
            MigrateReq { obj } => self.handle_migrate_req(k, from, obj),
            MigrateYield { obj, requester } => self.handle_migrate_yield(k, from, obj, requester),
            MigrateData { obj, data } => self.handle_migrate_data(k, from, obj, data),
            MigrateNotify { obj } => self.handle_migrate_notify(k, from, obj),
            FlushIn { session, items } => self.handle_flush_in(k, from, session, items),
            FlushOut { session, items } => self.handle_flush_out(k, from, session, items),
            FlushInval { session, objs } => self.handle_flush_inval(k, from, session, objs),
            FlushOutAck { session, used } => self.handle_flush_out_ack(k, from, session, used),
            FlushDone { session } => self.handle_flush_done(k, from, session),
            Eager { items } => self.handle_eager(k, from, items),
            EagerOut { items } => self.handle_eager_out(k, from, items),
            AtomicReq { obj, offset, delta, thread } => {
                self.handle_atomic_req(k, from, obj, offset, delta, thread)
            }
            AtomicReply { thread, old } => {
                k.complete(thread, OpResult::Value(old), self.fault_cost(k));
            }
            LockReq { lock } => self.handle_lock_req(k, from, lock),
            LockFetch { lock, to } => self.handle_lock_fetch(k, from, lock, to),
            LockPass { lock, piggyback } => self.handle_lock_pass(k, from, lock, piggyback),
            LockNotify { lock } => self.handle_lock_notify(k, from, lock),
            BarrierArrive { barrier, threads } => {
                if let Some(release) = self.sync.arrive(barrier, from, threads, ()) {
                    k.multicast(self.node, &release.nodes, BarrierRelease { barrier });
                    self.sync.wake(k, barrier);
                }
            }
            BarrierRelease { barrier } => self.sync.wake(k, barrier),
            CvWait { cond, thread } => self.handle_cv_wait(k, from, cond, thread),
            CvSignal { cond, broadcast } => self.handle_cv_signal(k, from, cond, broadcast),
            CvWake { cond, thread } => self.handle_cv_wake(k, from, cond, thread),
        }
    }

    /// Bounds-check an access against the declared size.
    pub(crate) fn check_bounds(
        &self,
        decl: DeclLite,
        obj: ObjectId,
        range: ByteRange,
    ) -> Result<(), DsmError> {
        if range.fits_in(decl.size) {
            Ok(())
        } else {
            Err(DsmError::OutOfBounds { obj, range, size: decl.size })
        }
    }
}
