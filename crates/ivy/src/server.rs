//! The Ivy per-node server: page-based strict coherence plus DSM-resident
//! (or central) synchronization.

use crate::msg::IvyMsg;
use crate::pending::{PageInflight, PageNeed, PendingIvyOp, Waiting};
use munin_mem::{page_pieces, AddressSpace, PageId, PagePiece, PageSpan};
use munin_sim::{DsmOp, KernelApi, OpOutcome, OpResult, Server};
use munin_types::{
    BarrierId, DsmError, IdMap, IvyConfig, LockId, NodeId, ObjectDecl, ObjectId, SyncStrategy,
    ThreadId,
};
use std::collections::{BTreeMap, VecDeque};

/// Note a protocol-state transition into the run's coverage map, if one is
/// attached (campaign explore mode). One predicted branch when off.
#[inline]
fn cover(
    k: &dyn KernelApi<IvyMsg>,
    object: &'static str,
    state: &'static str,
    event: &'static str,
) {
    if let Some(c) = k.coverage() {
        c.note(munin_sim::Transition::new("ivy", object, state, event));
    }
}

/// Local copy of one page.
#[derive(Debug)]
struct PageCopy {
    data: Vec<u8>,
    write: bool,
}

/// Manager-side directory entry for one page.
#[derive(Debug)]
struct PageDir {
    owner: NodeId,
    /// Nodes with copies — *including* the manager itself when it holds
    /// one (the manager's copy must be invalidated like any other, or a
    /// write transaction would leave it stale).
    copyset: NodeSet,
    active: Option<ActivePageTxn>,
    /// Requesters whose forwarded read copies are in flight; write
    /// transactions wait for these confirmations.
    pending_reads: NodeSet,
    queued: VecDeque<(NodeId, bool)>, // (requester, is_write)
}

/// A set of nodes, kept as a sorted `Vec`: copysets are small and change
/// on every page transfer, and iterating in node order keeps the
/// invalidation sends in a fixed order.
#[derive(Debug, Default)]
struct NodeSet(Vec<NodeId>);

impl NodeSet {
    fn insert(&mut self, n: NodeId) {
        if let Err(i) = self.0.binary_search(&n) {
            self.0.insert(i, n);
        }
    }

    fn remove(&mut self, n: NodeId) {
        if let Ok(i) = self.0.binary_search(&n) {
            self.0.remove(i);
        }
    }

    fn contains(&self, n: NodeId) -> bool {
        self.0.binary_search(&n).is_ok()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[derive(Debug)]
struct ActivePageTxn {
    requester: NodeId,
    pending_invals: usize,
    awaiting_yield: bool,
    requester_had_copy: bool,
    /// Bytes yielded by the previous owner, in transit to the requester.
    xfer: Option<Vec<u8>>,
}

/// Home-side state for central-server locks/barriers (the ablation mode).
#[derive(Debug, Default)]
struct CentralLock {
    busy: bool,
    queue: VecDeque<(NodeId, ThreadId)>,
}

#[derive(Debug, Default)]
struct CentralBarrier {
    arrived: u32,
    nodes: Vec<NodeId>,
}

/// The Ivy server for one node.
pub struct IvyServer {
    node: NodeId,
    cfg: IvyConfig,
    n_nodes: usize,
    space: AddressSpace,
    lock_addr: IdMap<LockId, u64>,
    barrier_addr: IdMap<BarrierId, u64>, // counter at addr, sense at addr+8
    barrier_count: IdMap<BarrierId, u32>,
    lock_home: IdMap<LockId, NodeId>,
    barrier_home: IdMap<BarrierId, NodeId>,

    pages: IdMap<PageId, PageCopy>,
    dir: IdMap<PageId, PageDir>,
    inflight: IdMap<PageId, PageInflight>,
    pending: Vec<Waiting>,
    /// Pages whose local state changed since the current rescan pass
    /// began: presence or write flag in `pages`, or `inflight` flags
    /// cleared (see [`IvyServer::touch`]).
    changed: Vec<PageId>,
    /// Bumped by every local page-state change and every rescan pass.
    epoch: u64,
    /// Pages whose `now_serving` word a local unlock advanced since the
    /// current rescan pass began.
    served: Vec<PageId>,
    /// Spare buffers for [`IvyServer::rescan`], kept between passes.
    spare_ops: Vec<Waiting>,
    spare_needs: Vec<PageNeed>,
    /// Ops parked on a backoff timer, keyed by thread id (one op per thread).
    parked: IdMap<u64, PendingIvyOp>,
    /// Consecutive failed spin attempts per thread (for backoff + livelock
    /// detection).
    attempts: IdMap<ThreadId, u32>,
    /// Lock probes spinning on a locally cached copy of their lock word's
    /// page, by page. A cache-coherent test-and-test-and-set spinner costs
    /// nothing while its copy stays valid; it is woken when the copy is
    /// invalidated or the word reads free (see
    /// [`IvyServer::wake_lock_probes`]).
    lock_waiters: BTreeMap<PageId, Vec<PendingIvyOp>>,

    central_locks: IdMap<LockId, CentralLock>,
    central_barriers: IdMap<BarrierId, CentralBarrier>,
    barrier_parked: IdMap<BarrierId, Vec<ThreadId>>,
}

impl IvyServer {
    /// Build a server. Every node must receive the identical `decls` slice
    /// (sorted by id) and sync declarations, so all nodes compute the same
    /// address-space layout without communication.
    pub fn new(
        node: NodeId,
        cfg: IvyConfig,
        n_nodes: usize,
        decls: &[ObjectDecl],
        sync: &munin_types::SyncDecls,
    ) -> Self {
        let mut space = AddressSpace::new(cfg.page_size, cfg.alloc);
        for d in decls {
            space.place(d.id, d.size.max(1));
        }
        // Synchronization words live in the same shared space, after the
        // data objects (packed ⇒ locks share pages: authentic contention).
        let mut lock_addr = IdMap::default();
        let mut lock_home = IdMap::default();
        let mut next_sync_obj = u64::MAX; // placement ids that never collide
        for l in &sync.locks {
            let id = ObjectId(next_sync_obj);
            next_sync_obj -= 1;
            // Two words per lock: [next_ticket, now_serving] — a ticket lock
            // built on ordinary DSM pages. Plain test-and-set starves under
            // this simulator's determinism (the node co-located with a fast
            // re-acquirer always wins the page race); tickets grant in FIFO
            // order of the managers' exclusive-page queue, so acquisition is
            // starvation-free without any special synchronization support.
            let base = space.place(id, 16);
            lock_addr.insert(l.id, base);
            lock_home.insert(l.id, l.home);
        }
        let mut barrier_addr = IdMap::default();
        let mut barrier_count = IdMap::default();
        let mut barrier_home = IdMap::default();
        for b in &sync.barriers {
            let id = ObjectId(next_sync_obj);
            next_sync_obj -= 1;
            let base = space.place(id, 16);
            barrier_addr.insert(b.id, base);
            barrier_count.insert(b.id, b.count);
            barrier_home.insert(b.id, b.home);
        }
        IvyServer {
            node,
            cfg,
            n_nodes,
            space,
            lock_addr,
            barrier_addr,
            barrier_count,
            lock_home,
            barrier_home,
            pages: IdMap::default(),
            dir: IdMap::default(),
            inflight: IdMap::default(),
            pending: Vec::new(),
            changed: Vec::new(),
            epoch: 0,
            served: Vec::new(),
            spare_ops: Vec::new(),
            spare_needs: Vec::new(),
            parked: IdMap::default(),
            attempts: IdMap::default(),
            lock_waiters: BTreeMap::new(),
            central_locks: IdMap::default(),
            central_barriers: IdMap::default(),
            barrier_parked: IdMap::default(),
        }
    }

    fn manager(&self, page: PageId) -> NodeId {
        NodeId((page.0 % self.n_nodes as u64) as u16)
    }

    fn route(&mut self, k: &mut dyn KernelApi<IvyMsg>, dst: NodeId, msg: IvyMsg) {
        if dst == self.node {
            self.handle_msg(k, self.node, msg);
        } else {
            k.send(self.node, dst, msg);
        }
    }

    /// Manager-side lazy materialization: the first touch of a page conjures
    /// a zero-filled copy at its manager.
    fn ensure_dir(&mut self, page: PageId) {
        debug_assert_eq!(self.manager(page), self.node);
        let ps = self.cfg.page_size as usize;
        let node = self.node;
        self.dir.entry(page).or_insert_with(|| PageDir {
            owner: node,
            copyset: NodeSet(vec![node]),
            active: None,
            pending_reads: NodeSet::default(),
            queued: VecDeque::new(),
        });
        let owner_here = self.dir.get(&page).map(|d| d.owner) == Some(self.node);
        if owner_here && !self.pages.contains_key(&page) {
            self.pages.insert(page, PageCopy { data: vec![0; ps], write: true });
            self.touch(page);
        }
    }

    /// Note that `page`'s local state changed: its presence or write flag
    /// in `pages`, or a cleared `inflight` flag. The next rescan pass
    /// re-checks the pending ops whose span holds it. Setting an `inflight`
    /// flag is no change: it neither grants a page nor un-suppresses a
    /// request.
    fn touch(&mut self, page: PageId) {
        self.changed.push(page);
        self.epoch += 1;
    }

    // ==================================================================
    // Data access helpers
    // ==================================================================

    fn have(&self, page: PageId, write: bool) -> bool {
        match self.pages.get(&page) {
            Some(c) => !write || c.write,
            None => false,
        }
    }

    fn have_all(&self, need: PageNeed) -> bool {
        need.span.pages().all(|p| self.have(p, need.write))
    }

    /// The page pieces of bytes `[addr, addr + len)`; a piece's
    /// `obj_offset` is its offset in the access.
    fn pieces_at(&self, addr: u64, len: usize) -> impl Iterator<Item = PagePiece> {
        page_pieces(self.cfg.page_size, addr, 0, len as u32)
    }

    /// The local copy's bytes of `piece` (caller checked availability).
    fn piece_bytes(&self, piece: PagePiece) -> &[u8] {
        let copy = self.pages.get(&piece.page).expect("availability checked");
        let off = piece.off_in_page as usize;
        &copy.data[off..off + piece.len as usize]
    }

    /// Gather bytes `[addr, addr + len)` from local page copies.
    fn gather(&self, addr: u64, len: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(len as usize);
        for piece in self.pieces_at(addr, len as usize) {
            out.extend_from_slice(self.piece_bytes(piece));
        }
        out
    }

    fn copy_addr(&self, addr: u64, out: &mut [u8]) {
        for piece in self.pieces_at(addr, out.len()) {
            let at = piece.obj_offset as usize;
            out[at..at + piece.len as usize].copy_from_slice(self.piece_bytes(piece));
        }
    }

    /// Scatter `data` into local page copies from flat address `addr`.
    fn put_addr(&mut self, addr: u64, data: &[u8]) {
        for piece in self.pieces_at(addr, data.len()) {
            let copy = self.pages.get_mut(&piece.page).expect("availability checked");
            debug_assert!(copy.write);
            let (off, at, n) =
                (piece.off_in_page as usize, piece.obj_offset as usize, piece.len as usize);
            copy.data[off..off + n].copy_from_slice(&data[at..at + n]);
        }
    }

    fn read_u64_at(&self, addr: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.copy_addr(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    fn write_u64_at(&mut self, addr: u64, value: u64) {
        self.put_addr(addr, &value.to_le_bytes());
    }

    /// Flat address of byte `offset` of a placed object.
    fn addr_of(&self, obj: ObjectId, offset: u32) -> u64 {
        self.space.base(obj).unwrap_or(0) + offset as u64
    }

    // ==================================================================
    // Pending-op engine
    // ==================================================================

    fn addr_needs(&self, addr: u64, len: u32, write: bool) -> PageNeed {
        PageNeed { span: PageSpan::of_bytes(addr, len, self.cfg.page_size), write }
    }

    /// Page needs of a pending op.
    fn op_needs(&self, op: &PendingIvyOp) -> PageNeed {
        match op {
            PendingIvyOp::Read { obj, range, .. } | PendingIvyOp::Write { obj, range, .. } => {
                let write = matches!(op, PendingIvyOp::Write { .. });
                let span = self.space.span(*obj, *range).map(|(_, span)| span);
                PageNeed { span: span.unwrap_or_default(), write }
            }
            PendingIvyOp::AtomicAdd { obj, offset, .. } => {
                self.addr_needs(self.addr_of(*obj, *offset), 8, true)
            }
            PendingIvyOp::TicketTake { lock, .. } | PendingIvyOp::Unlock { lock, .. } => {
                self.addr_needs(self.lock_addr[lock], 16, true)
            }
            PendingIvyOp::TicketWait { lock, .. } => {
                self.addr_needs(self.lock_addr[lock] + 8, 8, false)
            }
            PendingIvyOp::BarrierArrive { barrier, .. } => {
                self.addr_needs(self.barrier_addr[barrier], 16, true)
            }
            PendingIvyOp::BarrierPoll { barrier, .. } => {
                self.addr_needs(self.barrier_addr[barrier] + 8, 8, false)
            }
        }
    }

    /// Append an op to `pending`; the next rescan pass checks it.
    fn queue(&mut self, op: PendingIvyOp) {
        let need = self.op_needs(&op);
        self.pending.push(Waiting { op, need, settled: false });
    }

    /// Issue page requests for unmet needs (duplicate-suppressed; a write
    /// request waits for any in-flight read to land first).
    fn request_needs(&mut self, k: &mut dyn KernelApi<IvyMsg>, need: PageNeed) {
        for page in need.span.pages() {
            if self.have(page, need.write) {
                continue;
            }
            let fl = self.inflight.entry(page).or_default();
            if fl.write || fl.read {
                continue;
            }
            if need.write {
                fl.write = true;
                let upgrade = self.pages.contains_key(&page);
                cover(k, "page", if upgrade { "read-only" } else { "invalid" }, "write-fault");
                let mgr = self.manager(page);
                self.route(k, mgr, IvyMsg::WReq { page });
            } else {
                fl.read = true;
                cover(k, "page", "invalid", "read-fault");
                let mgr = self.manager(page);
                self.route(k, mgr, IvyMsg::RReq { page });
            }
        }
    }

    /// Wake parked ticket spinners whose parking condition no longer holds:
    /// the cached copy of the `now_serving` word's page vanished
    /// (invalidated, yielded) or the word reached their ticket. Only pages
    /// in `changed` (copy state) or `served` (word advanced) can hold such
    /// spinners; they are visited in ascending page order, so woken
    /// spinners land in `pending` in an order fixed by the run, for the
    /// surrounding rescan pass.
    fn wake_lock_probes(&mut self, changed: &mut Vec<PageId>) {
        if self.lock_waiters.is_empty() {
            self.served.clear();
            return;
        }
        changed.append(&mut self.served);
        changed.sort_unstable();
        changed.dedup();
        let mut waiters = std::mem::take(&mut self.lock_waiters);
        for page in changed.iter() {
            let Some(spinners) = waiters.get_mut(page) else { continue };
            spinners.retain(|op| {
                let &PendingIvyOp::TicketWait { thread, lock, ticket } = op else {
                    return true;
                };
                let need = self.op_needs(op);
                if self.have_all(need) && self.read_u64_at(self.lock_addr[&lock] + 8) != ticket {
                    return true; // copy valid, not our turn yet: keep spinning locally
                }
                self.pending.push(Waiting {
                    op: PendingIvyOp::TicketWait { thread, lock, ticket },
                    need,
                    settled: false,
                });
                false
            });
            if spinners.is_empty() {
                waiters.remove(page);
            }
        }
        self.lock_waiters = waiters;
    }

    /// Try to complete pending ops; request what is still missing. Runs to
    /// fixpoint: completing one op can unblock another (barrier flips, lock
    /// releases).
    ///
    /// Each pass does what a check of every pending op would, in the same
    /// order, but only checks the ops that could act differently from last
    /// time: those queued since (`settled` unset) and those whose span holds
    /// a page in `changed`. A settled op elsewhere is still blocked and has
    /// its requests out, so checking it would do nothing. Executing an op
    /// changes no page's local state, so the pass's checks all see the
    /// state it began with.
    fn rescan(&mut self, k: &mut dyn KernelApi<IvyMsg>) {
        loop {
            self.epoch += 1;
            let mut changed = std::mem::take(&mut self.changed);
            self.wake_lock_probes(&mut changed);
            if self.pending.is_empty() {
                changed.clear();
                self.changed = changed;
                return;
            }
            let mut progressed = false;
            let mut ops = std::mem::take(&mut self.pending);
            let mut still = std::mem::take(&mut self.spare_ops);
            for mut w in ops.drain(..) {
                if w.settled && !changed.iter().any(|p| w.need.span.contains(*p)) {
                    still.push(w);
                } else if self.have_all(w.need) {
                    self.execute(k, w.op);
                    progressed = true;
                } else {
                    w.settled = false;
                    still.push(w);
                }
            }
            debug_assert!(self.changed.is_empty(), "an executed op changed a page's state");
            // Ops queued by executed ops (a barrier arrival's sense poll) go
            // before the blocked ones.
            let first = self.pending.len();
            if first == 0 {
                std::mem::swap(&mut self.pending, &mut still);
            } else {
                self.pending.append(&mut still);
            }
            self.spare_ops = ops;
            // Request everything still blocked. A request routed to this
            // node's own manager may change page state and re-enter
            // `rescan`, which reorders `pending`; from then on this pass
            // re-issues every blocked op's requests from its own copy of
            // their needs, as a full check would.
            let mut needs = std::mem::take(&mut self.spare_needs);
            needs.clear();
            needs.extend(self.pending[first..].iter().map(|w| w.need));
            let epoch = self.epoch;
            for (i, &need) in needs.iter().enumerate() {
                let in_place = self.epoch == epoch;
                if in_place && self.pending[first + i].settled {
                    continue;
                }
                self.request_needs(k, need);
                if in_place && self.epoch == epoch {
                    self.pending[first + i].settled = true;
                }
            }
            self.spare_needs = needs;
            if self.changed.is_empty() {
                changed.clear();
                self.changed = changed;
            }
            if !progressed {
                debug_assert!(self.settled_ops_are_quiet(), "a settled op would act");
                return;
            }
        }
    }

    /// What `settled` promises: the op is blocked and re-requesting its
    /// pages would send nothing, unless one of its pages has changed since.
    fn settled_ops_are_quiet(&self) -> bool {
        self.pending.iter().filter(|w| w.settled).all(|w| {
            let requested = |p: PageId| {
                self.have(p, w.need.write) || self.inflight.get(&p).is_some_and(|f| f.any())
            };
            w.need.span.pages().any(|p| self.changed.contains(&p))
                || (!self.have_all(w.need) && w.need.span.pages().all(requested))
        })
    }

    /// Execute an op whose pages are all locally available.
    fn execute(&mut self, k: &mut dyn KernelApi<IvyMsg>, op: PendingIvyOp) {
        let cost = k.cost().fault_overhead_us + k.cost().local_access_us;
        match op {
            PendingIvyOp::Read { thread, obj, range } => {
                let bytes = self.gather(self.addr_of(obj, range.start), range.len);
                k.complete(thread, OpResult::Bytes(bytes), cost);
            }
            PendingIvyOp::Write { thread, obj, range, data } => {
                self.put_addr(self.addr_of(obj, range.start), &data);
                k.complete(thread, OpResult::Unit, cost);
            }
            PendingIvyOp::AtomicAdd { thread, obj, offset, delta } => {
                let addr = self.addr_of(obj, offset);
                let old = self.read_u64_at(addr) as i64;
                self.write_u64_at(addr, old.wrapping_add(delta) as u64);
                k.complete(thread, OpResult::Value(old), cost);
            }
            PendingIvyOp::TicketTake { thread, lock } => {
                let addr = self.lock_addr[&lock];
                let ticket = self.read_u64_at(addr);
                self.write_u64_at(addr, ticket + 1);
                if self.read_u64_at(addr + 8) == ticket {
                    cover(k, "lock", "free", "acquire");
                    self.attempts.remove(&thread);
                    k.complete(thread, OpResult::Unit, cost);
                } else {
                    cover(k, "lock", "held", "spin-park");
                    self.park_ticket_wait(k, thread, lock, ticket);
                }
            }
            PendingIvyOp::TicketWait { thread, lock, ticket } => {
                let addr = self.lock_addr[&lock];
                if self.read_u64_at(addr + 8) == ticket {
                    self.attempts.remove(&thread);
                    k.complete(thread, OpResult::Unit, cost);
                } else {
                    self.park_ticket_wait(k, thread, lock, ticket);
                }
            }
            PendingIvyOp::Unlock { thread, lock } => {
                cover(k, "lock", "held", "release");
                let addr = self.lock_addr[&lock];
                let serving = self.read_u64_at(addr + 8);
                self.write_u64_at(addr + 8, serving + 1);
                self.served.push(PageId((addr + 8) / self.cfg.page_size as u64));
                k.complete(thread, OpResult::Unit, cost);
            }
            PendingIvyOp::BarrierArrive { thread, barrier } => {
                let addr = self.barrier_addr[&barrier];
                let count = self.barrier_count[&barrier];
                let arrived = self.read_u64_at(addr) + 1;
                if arrived as u32 >= count {
                    cover(k, "barrier", "gather", "sense-flip");
                    self.write_u64_at(addr, 0);
                    let sense = self.read_u64_at(addr + 8);
                    self.write_u64_at(addr + 8, sense ^ 1);
                    k.complete(thread, OpResult::Unit, cost);
                } else {
                    cover(k, "barrier", "gather", "arrive");
                    self.write_u64_at(addr, arrived);
                    let expected = (self.read_u64_at(addr + 8) ^ 1) as u8;
                    // Start polling the sense word.
                    self.queue(PendingIvyOp::BarrierPoll {
                        thread,
                        barrier,
                        expected_sense: expected,
                    });
                }
            }
            PendingIvyOp::BarrierPoll { thread, barrier, expected_sense } => {
                let addr = self.barrier_addr[&barrier];
                let sense = self.read_u64_at(addr + 8) as u8;
                if sense == expected_sense {
                    self.attempts.remove(&thread);
                    k.complete(thread, OpResult::Unit, cost);
                } else {
                    self.spin_retry(
                        k,
                        thread,
                        PendingIvyOp::BarrierPoll { thread, barrier, expected_sense },
                    );
                }
            }
        }
    }

    /// Park a ticket spinner on its locally cached `now_serving` word: the
    /// local spin costs nothing until the copy is invalidated or the word
    /// is locally advanced, at which point [`IvyServer::wake_lock_probes`]
    /// re-runs it. Timer-based backoff is wrong here — against a holder
    /// that re-acquires on a fixed period, periodic sampling can miss the
    /// free window indefinitely (observed as multi-hour starvation in the
    /// tsp work-queue polling loop).
    fn park_ticket_wait(
        &mut self,
        k: &mut dyn KernelApi<IvyMsg>,
        thread: ThreadId,
        lock: LockId,
        ticket: u64,
    ) {
        let n = self.attempts.entry(thread).or_insert(0);
        *n += 1;
        if *n > self.cfg.spin_attempt_limit {
            // Diagnostic backstop. The thread dies holding an unserved
            // ticket, so the lock's remaining users can never be served;
            // because ticket waiters are event-driven (no timers), they
            // then quiesce and the kernel's deadlock teardown reports them
            // alongside this error — the run terminates with diagnosis
            // rather than limping on a poisoned lock.
            k.error(format!("spin livelock: {thread} exceeded attempt limit"));
            k.complete(thread, OpResult::Err(DsmError::Livelock("DSM spin lock")), 0);
            return;
        }
        let page = PageId((self.lock_addr[&lock] + 8) / self.cfg.page_size as u64);
        self.lock_waiters.entry(page).or_default().push(PendingIvyOp::TicketWait {
            thread,
            lock,
            ticket,
        });
    }

    /// Back off and retry a spin (barrier sense poll) later.
    fn spin_retry(&mut self, k: &mut dyn KernelApi<IvyMsg>, thread: ThreadId, op: PendingIvyOp) {
        let n = self.attempts.entry(thread).or_insert(0);
        *n += 1;
        if *n > self.cfg.barrier_poll_limit {
            k.error(format!("spin livelock: {thread} exceeded attempt limit"));
            k.complete(thread, OpResult::Err(DsmError::Livelock("DSM spin lock")), 0);
            return;
        }
        let shift = (*n).min(6);
        // Deterministic *per-attempt* jitter inside the backoff window. A
        // fixed per-thread stagger de-synchronizes spinners from each other
        // but can phase-lock a spinner with a fast re-acquiring holder (a
        // work-queue poller re-takes the lock on a fixed period, and the
        // spinner then samples the lock word only at instants where it is
        // held — permanent starvation). Varying the delay by attempt number
        // breaks any such resonance while keeping runs reproducible.
        let window = (self.cfg.spin_backoff_us << shift).max(1);
        let mut h =
            (thread.0 as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(*n as u64);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        let delay = window + h % window;
        let token = thread.0 as u64;
        self.parked.insert(token, op);
        k.set_timer(self.node, delay, token);
    }

    // ==================================================================
    // Page protocol: manager side
    // ==================================================================

    fn handle_rreq(&mut self, k: &mut dyn KernelApi<IvyMsg>, from: NodeId, page: PageId) {
        self.ensure_dir(page);
        {
            let d = self.dir.get_mut(&page).expect("ensured");
            if d.active.is_some() {
                d.queued.push_back((from, false));
                return;
            }
        }
        self.serve_page_read(k, from, page);
    }

    fn serve_page_read(&mut self, k: &mut dyn KernelApi<IvyMsg>, from: NodeId, page: PageId) {
        let owner = {
            let d = self.dir.get_mut(&page).expect("ensured");
            d.copyset.insert(from);
            d.owner
        };
        if owner == self.node {
            // Manager owns: serve (and downgrade own copy — the owner may
            // no longer write behind the readers' backs). No confirmation
            // needed: a later invalidation to `from` travels the same FIFO
            // channel as this copy, so it cannot overtake it.
            cover(k, "page", "owned", "serve-read");
            let data = {
                let copy = self.pages.get_mut(&page).expect("owner holds copy");
                copy.write = false;
                copy.data.clone()
            };
            self.touch(page);
            self.route(k, from, IvyMsg::PData { page, data, confirm: false });
            self.rescan(k);
        } else if owner == from {
            k.error(format!("{page}: owner {from} read-faulted"));
        } else {
            // Forwarded: the copy travels owner→requester, off this
            // manager's channels — hold write transactions until confirmed.
            cover(k, "page", "remote-owned", "forward-read");
            self.dir.get_mut(&page).expect("ensured").pending_reads.insert(from);
            self.route(k, owner, IvyMsg::FwdRead { page, requester: from });
        }
    }

    fn handle_fwd_read(&mut self, k: &mut dyn KernelApi<IvyMsg>, page: PageId, requester: NodeId) {
        let data = {
            let Some(copy) = self.pages.get_mut(&page) else {
                k.error(format!("FwdRead at non-holder for {page}"));
                return;
            };
            copy.write = false;
            copy.data.clone()
        };
        self.touch(page);
        self.route(k, requester, IvyMsg::PData { page, data, confirm: true });
        // Our own pending writes to this page lost write access.
        self.rescan(k);
    }

    fn handle_wreq(&mut self, k: &mut dyn KernelApi<IvyMsg>, from: NodeId, page: PageId) {
        self.ensure_dir(page);
        {
            let d = self.dir.get_mut(&page).expect("ensured");
            if d.active.is_some() || !d.pending_reads.is_empty() {
                d.queued.push_back((from, true));
                return;
            }
        }
        self.start_page_txn(k, from, page);
    }

    fn start_page_txn(&mut self, k: &mut dyn KernelApi<IvyMsg>, requester: NodeId, page: PageId) {
        let me = self.node;
        let d = self.dir.get_mut(&page).expect("ensured");
        let owner = d.owner;
        let had_copy = if requester == me {
            self.pages.contains_key(&page)
        } else {
            d.copyset.contains(requester)
        };
        // Copies to invalidate: every holder but the requester and the owner.
        // The manager's own stale copy dies locally (no message, no ack).
        let stale = move |n: NodeId| n != requester && n != owner;
        let remote_invals = d.copyset.0.iter().filter(|&&n| stale(n) && n != me).count();
        let self_inval = stale(me) && d.copyset.contains(me);
        let awaiting_yield = owner != requester && owner != me;
        d.active = Some(ActivePageTxn {
            requester,
            pending_invals: remote_invals,
            awaiting_yield,
            requester_had_copy: had_copy,
            xfer: None,
        });
        cover(k, "page", "manager", "write-txn");
        if awaiting_yield {
            cover(k, "page", "remote-owned", "yield-request");
            self.route(k, owner, IvyMsg::Yield { page });
        }
        if self_inval {
            self.pages.remove(&page);
            self.touch(page);
            self.rescan(k);
        }
        if remote_invals > 0 {
            cover(k, "page", "copyset", "invalidate");
            // The rescan left the copyset as it was: while the transaction
            // is active, requests for the page queue, and only the acks of
            // these invalidations (or the yield) complete it.
            for &n in &self.dir[&page].copyset.0 {
                if stale(n) && n != me {
                    k.send(me, n, IvyMsg::Inval { page });
                }
            }
        }
        self.check_page_txn(k, page);
    }

    fn handle_yield(&mut self, k: &mut dyn KernelApi<IvyMsg>, from: NodeId, page: PageId) {
        let Some(copy) = self.pages.remove(&page) else {
            k.error(format!("Yield at non-holder for {page}"));
            return;
        };
        self.touch(page);
        self.route(k, from, IvyMsg::YieldData { page, data: copy.data });
        self.rescan(k);
    }

    fn handle_yield_data(
        &mut self,
        k: &mut dyn KernelApi<IvyMsg>,
        _from: NodeId,
        page: PageId,
        data: Vec<u8>,
    ) {
        if let Some(txn) = self.dir.get_mut(&page).and_then(|d| d.active.as_mut()) {
            txn.xfer = Some(data);
            txn.awaiting_yield = false;
        }
        self.check_page_txn(k, page);
    }

    fn handle_inval(&mut self, k: &mut dyn KernelApi<IvyMsg>, from: NodeId, page: PageId) {
        cover(k, "page", "valid", "invalidated");
        self.pages.remove(&page);
        self.touch(page);
        self.route(k, from, IvyMsg::InvalAck { page });
        self.rescan(k);
    }

    fn handle_inval_ack(&mut self, k: &mut dyn KernelApi<IvyMsg>, from: NodeId, page: PageId) {
        {
            let Some(txn) = self.dir.get_mut(&page).and_then(|d| d.active.as_mut()) else {
                k.error(format!("InvalAck without transaction for {page} from {from}"));
                return;
            };
            txn.pending_invals -= 1;
        }
        self.check_page_txn(k, page);
    }

    fn check_page_txn(&mut self, k: &mut dyn KernelApi<IvyMsg>, page: PageId) {
        let ready = self
            .dir
            .get(&page)
            .and_then(|d| d.active.as_ref())
            .is_some_and(|t| t.pending_invals == 0 && !t.awaiting_yield);
        if !ready {
            return;
        }
        let txn = self.dir.get_mut(&page).expect("exists").active.take().expect("ready");
        let requester = txn.requester;
        // Source bytes: yielded data, or the manager's own copy.
        let source = match txn.xfer {
            Some(d) => Some(d),
            None => {
                if requester != self.node {
                    self.touch(page);
                    self.pages.remove(&page).map(|c| c.data)
                } else {
                    None
                }
            }
        };
        {
            let d = self.dir.get_mut(&page).expect("exists");
            d.owner = requester;
            d.copyset.0.clear();
            d.copyset.0.push(requester);
        }
        if requester == self.node {
            match source {
                Some(data) => {
                    self.pages.insert(page, PageCopy { data, write: true });
                }
                None => {
                    // Upgrade (or manager-owned materialization).
                    let ps = self.cfg.page_size as usize;
                    let copy = self
                        .pages
                        .entry(page)
                        .or_insert_with(|| PageCopy { data: vec![0; ps], write: false });
                    copy.write = true;
                }
            }
            self.inflight.remove(&page);
            self.touch(page);
            self.rescan(k);
        } else {
            let data = if txn.requester_had_copy { None } else { source };
            self.route(k, requester, IvyMsg::Grant { page, data });
            // Serving the transfer may have consumed the manager's own copy
            // (`source` above): re-evaluate local pending ops and parked
            // lock spinners, which must now re-fault.
            self.rescan(k);
        }
        self.process_page_queue(k, page);
    }

    fn process_page_queue(&mut self, k: &mut dyn KernelApi<IvyMsg>, page: PageId) {
        loop {
            let op = {
                let d = self.dir.get_mut(&page).expect("exists");
                if d.active.is_some() {
                    return;
                }
                d.queued.pop_front()
            };
            match op {
                None => return,
                Some((requester, false)) => self.serve_page_read(k, requester, page),
                Some((requester, true)) => {
                    let reads_pending = {
                        let d = self.dir.get_mut(&page).expect("exists");
                        if !d.pending_reads.is_empty() {
                            d.queued.push_front((requester, true));
                            true
                        } else {
                            false
                        }
                    };
                    if reads_pending {
                        return;
                    }
                    self.start_page_txn(k, requester, page);
                    return;
                }
            }
        }
    }

    // ==================================================================
    // Page protocol: requester side
    // ==================================================================

    fn handle_pdata(
        &mut self,
        k: &mut dyn KernelApi<IvyMsg>,
        _from: NodeId,
        page: PageId,
        data: Vec<u8>,
        confirm: bool,
    ) {
        cover(k, "page", "invalid", "install-read");
        self.pages.insert(page, PageCopy { data, write: false });
        if let Some(fl) = self.inflight.get_mut(&page) {
            fl.read = false;
        }
        self.touch(page);
        if confirm {
            let mgr = self.manager(page);
            self.route(k, mgr, IvyMsg::RConfirm { page });
        }
        self.rescan(k);
    }

    fn handle_rconfirm(&mut self, k: &mut dyn KernelApi<IvyMsg>, from: NodeId, page: PageId) {
        let drained = {
            let Some(d) = self.dir.get_mut(&page) else {
                return;
            };
            d.pending_reads.remove(from);
            d.pending_reads.is_empty() && d.active.is_none()
        };
        if drained {
            self.process_page_queue(k, page);
        }
    }

    fn handle_grant(
        &mut self,
        k: &mut dyn KernelApi<IvyMsg>,
        _from: NodeId,
        page: PageId,
        data: Option<Vec<u8>>,
    ) {
        match data {
            Some(d) => {
                cover(k, "page", "invalid", "ownership-transfer");
                self.pages.insert(page, PageCopy { data: d, write: true });
            }
            None => {
                cover(k, "page", "read-only", "upgrade");
                let ps = self.cfg.page_size as usize;
                let copy = self
                    .pages
                    .entry(page)
                    .or_insert_with(|| PageCopy { data: vec![0; ps], write: false });
                copy.write = true;
            }
        }
        self.inflight.remove(&page);
        self.touch(page);
        self.rescan(k);
    }

    // ==================================================================
    // Central synchronization (ablation)
    // ==================================================================

    fn central_lock_req(
        &mut self,
        k: &mut dyn KernelApi<IvyMsg>,
        from: NodeId,
        lock: LockId,
        thread: ThreadId,
    ) {
        let grant = {
            let st = self.central_locks.entry(lock).or_default();
            if st.busy {
                cover(k, "lock", "central", "queue");
                st.queue.push_back((from, thread));
                None
            } else {
                cover(k, "lock", "central", "grant");
                st.busy = true;
                Some((from, thread))
            }
        };
        if let Some((node, thread)) = grant {
            if node == self.node {
                k.complete(thread, OpResult::Unit, k.cost().local_lock_us);
            } else {
                self.route(k, node, IvyMsg::CLockGrant { thread });
            }
        }
    }

    fn central_unlock(&mut self, k: &mut dyn KernelApi<IvyMsg>, lock: LockId) {
        let next = {
            let st = self.central_locks.entry(lock).or_default();
            match st.queue.pop_front() {
                Some(n) => Some(n),
                None => {
                    st.busy = false;
                    None
                }
            }
        };
        if let Some((node, thread)) = next {
            if node == self.node {
                k.complete(thread, OpResult::Unit, k.cost().local_lock_us);
            } else {
                self.route(k, node, IvyMsg::CLockGrant { thread });
            }
        }
    }

    fn central_barrier_arrive(
        &mut self,
        k: &mut dyn KernelApi<IvyMsg>,
        from: NodeId,
        b: BarrierId,
        threads: u32,
    ) {
        let count = self.barrier_count[&b];
        cover(k, "barrier", "central", "arrive");
        let release = {
            let st = self.central_barriers.entry(b).or_default();
            st.arrived += threads;
            if from != self.node && !st.nodes.contains(&from) {
                st.nodes.push(from);
            }
            st.arrived >= count
        };
        if release {
            let mut nodes = {
                let st = self.central_barriers.get_mut(&b).expect("exists");
                st.arrived = 0;
                std::mem::take(&mut st.nodes)
            };
            nodes.sort_unstable();
            k.multicast(self.node, &nodes, IvyMsg::CBarrierRelease { barrier: b });
            self.central_barrier_release(k, b);
        }
    }

    fn central_barrier_release(&mut self, k: &mut dyn KernelApi<IvyMsg>, b: BarrierId) {
        for t in self.barrier_parked.remove(&b).unwrap_or_default() {
            k.complete(t, OpResult::Unit, k.cost().local_lock_us);
        }
    }

    // ==================================================================
    // Dispatch
    // ==================================================================

    fn handle_msg(&mut self, k: &mut dyn KernelApi<IvyMsg>, from: NodeId, msg: IvyMsg) {
        use IvyMsg::*;
        match msg {
            RReq { page } => self.handle_rreq(k, from, page),
            FwdRead { page, requester } => self.handle_fwd_read(k, page, requester),
            PData { page, data, confirm } => self.handle_pdata(k, from, page, data, confirm),
            RConfirm { page } => self.handle_rconfirm(k, from, page),
            WReq { page } => self.handle_wreq(k, from, page),
            Yield { page } => self.handle_yield(k, from, page),
            YieldData { page, data } => self.handle_yield_data(k, from, page, data),
            Inval { page } => self.handle_inval(k, from, page),
            InvalAck { page } => self.handle_inval_ack(k, from, page),
            Grant { page, data } => self.handle_grant(k, from, page, data),
            CLockReq { lock, thread } => self.central_lock_req(k, from, lock, thread),
            CLockGrant { thread } => {
                k.complete(thread, OpResult::Unit, k.cost().local_lock_us);
            }
            CUnlock { lock } => self.central_unlock(k, lock),
            CBarrierArrive { barrier, threads } => {
                self.central_barrier_arrive(k, from, barrier, threads)
            }
            CBarrierRelease { barrier } => self.central_barrier_release(k, barrier),
        }
    }

    /// Park a data/spin op and try to satisfy it.
    fn submit(&mut self, k: &mut dyn KernelApi<IvyMsg>, op: PendingIvyOp) {
        self.queue(op);
        self.rescan(k);
    }
}

impl Server for IvyServer {
    type Payload = IvyMsg;

    fn on_op(&mut self, k: &mut dyn KernelApi<IvyMsg>, thread: ThreadId, op: DsmOp) -> OpOutcome {
        match op {
            DsmOp::Alloc(_) => OpOutcome::fail(DsmError::Internal(
                "Ivy requires all objects to be declared before the run".into(),
            )),
            DsmOp::Read { obj, range } => {
                let Some((addr, span)) = self.space.span(obj, range) else {
                    return OpOutcome::fail(DsmError::OutOfBounds {
                        obj,
                        range,
                        size: self.space.size(obj).unwrap_or(0),
                    });
                };
                if self.have_all(PageNeed { span, write: false }) {
                    return OpOutcome::done(
                        OpResult::Bytes(self.gather(addr, range.len)),
                        k.cost().local_access_us,
                    );
                }
                self.submit(k, PendingIvyOp::Read { thread, obj, range });
                OpOutcome::Blocked
            }
            DsmOp::Write { obj, range, data } => {
                let Some((addr, span)) = self.space.span(obj, range) else {
                    return OpOutcome::fail(DsmError::OutOfBounds {
                        obj,
                        range,
                        size: self.space.size(obj).unwrap_or(0),
                    });
                };
                if self.have_all(PageNeed { span, write: true }) {
                    self.put_addr(addr, &data);
                    return OpOutcome::unit(k.cost().local_access_us);
                }
                self.submit(k, PendingIvyOp::Write { thread, obj, range, data });
                OpOutcome::Blocked
            }
            DsmOp::AtomicFetchAdd { obj, offset, delta } => {
                self.submit(k, PendingIvyOp::AtomicAdd { thread, obj, offset, delta });
                OpOutcome::Blocked
            }
            DsmOp::Lock(l) => match self.cfg.sync {
                SyncStrategy::CentralServer => {
                    let home = self.lock_home[&l];
                    if home == self.node {
                        self.central_lock_req(k, self.node, l, thread);
                    } else {
                        self.route(k, home, IvyMsg::CLockReq { lock: l, thread });
                    }
                    OpOutcome::Blocked
                }
                _ => {
                    self.submit(k, PendingIvyOp::TicketTake { thread, lock: l });
                    OpOutcome::Blocked
                }
            },
            DsmOp::Unlock(l) => match self.cfg.sync {
                SyncStrategy::CentralServer => {
                    let home = self.lock_home[&l];
                    if home == self.node {
                        self.central_unlock(k, l);
                    } else {
                        self.route(k, home, IvyMsg::CUnlock { lock: l });
                    }
                    OpOutcome::unit(k.cost().local_lock_us)
                }
                _ => {
                    self.submit(k, PendingIvyOp::Unlock { thread, lock: l });
                    OpOutcome::Blocked
                }
            },
            DsmOp::BarrierWait(b) => match self.cfg.sync {
                SyncStrategy::CentralServer => {
                    self.barrier_parked.entry(b).or_default().push(thread);
                    let home = self.barrier_home[&b];
                    if home == self.node {
                        self.central_barrier_arrive(k, self.node, b, 1);
                    } else {
                        self.route(k, home, IvyMsg::CBarrierArrive { barrier: b, threads: 1 });
                    }
                    OpOutcome::Blocked
                }
                _ => {
                    self.submit(k, PendingIvyOp::BarrierArrive { thread, barrier: b });
                    OpOutcome::Blocked
                }
            },
            DsmOp::CondWait { .. } | DsmOp::CondSignal { .. } => {
                OpOutcome::fail(DsmError::Internal(
                    "Ivy has no condition variables (no special sync provisions)".into(),
                ))
            }
            DsmOp::Flush | DsmOp::Phase(_) => OpOutcome::unit(k.cost().local_access_us),
            DsmOp::Exit => OpOutcome::unit(0),
            DsmOp::Compute(us) => OpOutcome::unit(us),
        }
    }

    fn on_message(&mut self, k: &mut dyn KernelApi<IvyMsg>, from: NodeId, payload: IvyMsg) {
        self.handle_msg(k, from, payload);
    }

    fn debug_stuck_state(&self) -> String {
        use std::fmt::Write;
        // A lock's 16-byte record may straddle a page boundary (packed
        // allocation); read each word only when every page it touches is
        // locally present, or the diagnostic itself would panic.
        let word = |addr: u64| -> Option<u64> {
            let ps = self.cfg.page_size as u64;
            if (addr / ps..=(addr + 7) / ps).all(|pg| self.pages.contains_key(&PageId(pg))) {
                Some(self.read_u64_at(addr))
            } else {
                None
            }
        };
        let mut out = String::new();
        let mut locks: Vec<_> = self.lock_addr.iter().collect();
        locks.sort_unstable();
        for (l, addr) in locks {
            let page = PageId(*addr / self.cfg.page_size as u64);
            let copy = self.pages.get(&page).map(|c| {
                format!(
                    "copy(write={}, next={:?}, serving={:?})",
                    c.write,
                    word(*addr),
                    word(*addr + 8)
                )
            });
            let _ = write!(out, "{l}@{addr} {copy:?}; ");
        }
        let pending: Vec<_> = self.pending.iter().map(|w| &w.op).collect();
        let _ = write!(out, "pending={pending:?}; ");
        let mut inflight: Vec<_> = self.inflight.iter().collect();
        inflight.sort_unstable_by_key(|(page, _)| **page);
        let _ = write!(out, "inflight={inflight:?}; ");
        let _ = write!(out, "waiters={:?}; ", self.lock_waiters);
        let mut dir: Vec<_> = self.dir.iter().collect();
        dir.sort_unstable_by_key(|(page, _)| **page);
        for (page, d) in dir {
            let _ = write!(
                out,
                "dir {page:?}: owner={} copyset={:?} active={} queued={:?} pending_reads={:?}; ",
                d.owner,
                d.copyset.0,
                d.active.is_some(),
                d.queued,
                d.pending_reads.0
            );
        }
        out
    }

    fn on_timer(&mut self, k: &mut dyn KernelApi<IvyMsg>, token: u64) {
        if let Some(op) = self.parked.remove(&token) {
            self.queue(op);
            self.rescan(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_types::{CostModel, LockDecl, ObjectDecl, SharingType, SyncDecls, VirtualTime};

    /// A kernel that records what the server sends and completes.
    #[derive(Default)]
    struct Recorder {
        cost: CostModel,
        sent: Vec<(NodeId, IvyMsg)>,
        done: Vec<ThreadId>,
    }

    impl KernelApi<IvyMsg> for Recorder {
        fn now(&self) -> VirtualTime {
            VirtualTime::ZERO
        }
        fn cost(&self) -> &CostModel {
            &self.cost
        }
        fn send(&mut self, _src: NodeId, dst: NodeId, payload: IvyMsg) {
            self.sent.push((dst, payload));
        }
        fn multicast(&mut self, src: NodeId, dsts: &[NodeId], payload: IvyMsg) {
            for d in dsts {
                self.send(src, *d, payload.clone());
            }
        }
        fn complete(&mut self, thread: ThreadId, result: OpResult, _extra_cost_us: u64) {
            assert!(matches!(result, OpResult::Unit), "{thread}: {result:?}");
            self.done.push(thread);
        }
        fn set_timer(&mut self, _node: NodeId, _delay_us: u64, _token: u64) {}
        fn register_decl(&mut self, _decl: ObjectDecl, _home: NodeId) -> ObjectId {
            unreachable!("Ivy declares everything up front")
        }
        fn decl(&self, _obj: ObjectId) -> Option<ObjectDecl> {
            None
        }
        fn assoc_objects(&self, _lock: LockId) -> Vec<ObjectId> {
            Vec::new()
        }
        fn retype(&mut self, _obj: ObjectId, _sharing: SharingType) {}
        fn registry_version(&self) -> u64 {
            0
        }
        fn error(&mut self, msg: String) {
            panic!("server error: {msg}");
        }
    }

    /// Node 2 of three, with 16-byte pages and two ticket locks: lock 0's
    /// words fill page 0 (managed by node 0), lock 1's page 1 (node 1).
    fn two_lock_server() -> IvyServer {
        let cfg = IvyConfig { page_size: 16, ..IvyConfig::default() };
        let sync = SyncDecls {
            locks: (0..2).map(|i| LockDecl { id: LockId(i), home: NodeId(0) }).collect(),
            ..SyncDecls::default()
        };
        IvyServer::new(NodeId(2), cfg, 3, &[], &sync)
    }

    /// Take `lock` with `holder` (faulting its page in writable from
    /// `mgr`), then park `spinner` behind it on the local copy.
    fn hold_and_park(
        s: &mut IvyServer,
        k: &mut Recorder,
        lock: LockId,
        mgr: NodeId,
        holder: ThreadId,
        spinner: ThreadId,
    ) {
        let page = PageId(lock.0 as u64);
        assert!(matches!(s.on_op(k, holder, DsmOp::Lock(lock)), OpOutcome::Blocked));
        assert_eq!(k.sent.pop(), Some((mgr, IvyMsg::WReq { page })));
        s.on_message(k, mgr, IvyMsg::Grant { page, data: Some(vec![0; 16]) });
        assert_eq!(k.done.pop(), Some(holder), "the free lock is taken at once");
        assert!(matches!(s.on_op(k, spinner, DsmOp::Lock(lock)), OpOutcome::Blocked));
        assert!(k.sent.is_empty() && k.done.is_empty(), "the spinner spins on its local copy");
    }

    #[test]
    fn one_rescan_wakes_spinners_in_page_order() {
        let mut s = two_lock_server();
        let mut k = Recorder::default();
        // Park lock 1's spinner first, so insertion order is not page order.
        hold_and_park(&mut s, &mut k, LockId(1), NodeId(1), ThreadId(1), ThreadId(2));
        hold_and_park(&mut s, &mut k, LockId(0), NodeId(0), ThreadId(3), ThreadId(4));
        assert_eq!(s.lock_waiters.len(), 2);
        // Both copies vanish before the next rescan (no single message
        // drops two pages, so the test drops them itself).
        for page in [PageId(1), PageId(0)] {
            s.pages.remove(&page);
            s.touch(page);
        }
        s.rescan(&mut k);
        let woken: Vec<ThreadId> = s.pending.iter().map(|w| w.op.thread()).collect();
        assert_eq!(woken, [ThreadId(4), ThreadId(2)], "lock 0's page first");
        assert_eq!(
            k.sent,
            [
                (NodeId(0), IvyMsg::RReq { page: PageId(0) }),
                (NodeId(1), IvyMsg::RReq { page: PageId(1) })
            ]
        );
        assert!(s.lock_waiters.is_empty());
    }

    #[test]
    fn a_settled_op_is_passed_by_until_its_page_changes() {
        let mut s = two_lock_server();
        let mut k = Recorder::default();
        assert!(matches!(s.on_op(&mut k, ThreadId(1), DsmOp::Lock(LockId(1))), OpOutcome::Blocked));
        assert_eq!(k.sent.len(), 1);
        assert!(s.pending[0].settled, "blocked, with its request out");
        // A change to another page leaves it alone: no second request.
        s.touch(PageId(0));
        s.rescan(&mut k);
        assert_eq!(k.sent.len(), 1);
        assert!(s.pending[0].settled);
        // Its own page arriving runs it.
        s.on_message(&mut k, NodeId(1), IvyMsg::Grant { page: PageId(1), data: Some(vec![0; 16]) });
        assert_eq!(k.done, [ThreadId(1)]);
        assert!(s.pending.is_empty());
    }
}
