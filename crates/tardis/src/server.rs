//! The Tardis per-node server: timestamp-lease coherence behind the same
//! [`munin_sim::Server`] seam as the Munin runtime and the Ivy baseline.
//!
//! Per-node state is one logical clock (`pts`) plus two maps:
//!
//! * **home side** — for every object homed here, the authoritative bytes
//!   and two timestamps, `wts` (version) and `rts` (lease horizon). That is
//!   the entire directory: no copyset, no owner chain, no transactions.
//! * **requester side** — leased copies of remote objects, each valid while
//!   the node's `pts` stays within the copy's `[wts, rts]` window, and one
//!   parked op per blocked thread (the fabrics keep threads
//!   single-outstanding).
//!
//! Writes never notify readers. The home stamps each write at
//! `max(wts, rts, writer_pts) + 1` — strictly past every lease it ever
//! granted — so a reader that synchronizes with the writer (lock grant,
//! barrier release, atomic reply: all carry timestamps) finds its own
//! clock beyond its copy's lease and refetches. A reader that has *not*
//! synchronized keeps reading its leased copy: it is reading in the
//! logical past, which is exactly what release consistency permits.

use crate::msg::TardisMsg;
use munin_proto::HomeSync;
use munin_sim::{DsmOp, KernelApi, OpOutcome, OpResult, Server};
use munin_types::{
    ByteRange, DsmError, IdMap, LockId, NodeId, ObjectId, SyncDecls, TardisConfig, ThreadId,
};

/// Timer token for the lease-decay sweep (Tardis arms no other timers).
const SWEEP_TOKEN: u64 = u64::MAX;

/// Note a protocol-state transition into the run's coverage map, if one is
/// attached (campaign explore mode). One predicted branch when off.
#[inline]
fn cover(
    k: &dyn KernelApi<TardisMsg>,
    object: &'static str,
    state: &'static str,
    event: &'static str,
) {
    if let Some(c) = k.coverage() {
        c.note(munin_sim::Transition::new("tardis", object, state, event));
    }
}

/// Authoritative per-object state at its home node.
#[derive(Debug)]
struct HomeObj {
    data: Vec<u8>,
    /// Timestamp of the latest write.
    wts: u64,
    /// Horizon of the furthest read lease ever granted.
    rts: u64,
}

/// A leased copy of a remote-homed object.
#[derive(Debug)]
struct CachedCopy {
    data: Vec<u8>,
    wts: u64,
    rts: u64,
}

/// What a blocked thread is waiting for (requester side). The op payloads
/// exist for `debug_stuck_state`, which prints the map via `Debug`.
#[derive(Debug)]
#[allow(dead_code)]
enum PendingTardisOp {
    /// A read awaiting `ReadReply`/`RenewAck`; the fetched copy is
    /// installed whole and `range` is served from it.
    Read { obj: ObjectId, range: ByteRange },
    /// A write-through awaiting `WriteAck`.
    Write { obj: ObjectId },
    /// An atomic awaiting `AtomicReply`.
    Atomic { obj: ObjectId },
    /// A lock acquisition awaiting `LockGrant`.
    Lock { lock: LockId },
}

/// The Tardis server for one node.
pub struct TardisServer {
    node: NodeId,
    cfg: TardisConfig,
    /// This node's logical program timestamp.
    pts: u64,
    home: IdMap<ObjectId, HomeObj>,
    cache: IdMap<ObjectId, CachedCopy>,
    pending: IdMap<ThreadId, PendingTardisOp>,
    /// Declaration cache (home node + size), invalidated by registry
    /// version like the other protocols' caches.
    meta: IdMap<ObjectId, (NodeId, u32)>,
    meta_version: u64,
    /// Locks and barriers; each grant and release carries a timestamp.
    sync: HomeSync<u64>,
    sweep_armed: bool,
    sweep_activity: bool,
    /// Home-side write applications seen so far; drives `chaos_skip_wts`.
    chaos_writes: u64,
}

impl TardisServer {
    pub fn new(node: NodeId, cfg: TardisConfig, sync: &SyncDecls) -> Self {
        TardisServer {
            node,
            cfg,
            pts: 0,
            home: IdMap::default(),
            cache: IdMap::default(),
            pending: IdMap::default(),
            meta: IdMap::default(),
            meta_version: 0,
            sync: HomeSync::new(node, sync),
            sweep_armed: false,
            sweep_activity: false,
            chaos_writes: 0,
        }
    }

    fn route(&mut self, k: &mut dyn KernelApi<TardisMsg>, dst: NodeId, msg: TardisMsg) {
        if dst == self.node {
            self.handle_msg(k, self.node, msg);
        } else {
            k.send(self.node, dst, msg);
        }
    }

    /// Home node and size of `obj`, through the version-checked decl cache.
    fn meta(&mut self, k: &dyn KernelApi<TardisMsg>, obj: ObjectId) -> Option<(NodeId, u32)> {
        let v = k.registry_version();
        if v != self.meta_version {
            self.meta.clear();
            self.meta_version = v;
        }
        if let Some(m) = self.meta.get(&obj) {
            return Some(*m);
        }
        let d = k.decl(obj)?;
        self.meta.insert(obj, (d.home, d.size));
        Some((d.home, d.size))
    }

    /// Materialize the home state of an object homed here (zero-filled on
    /// first touch, like every other protocol's lazy home copy).
    fn ensure_home(&mut self, k: &dyn KernelApi<TardisMsg>, obj: ObjectId) -> Option<&mut HomeObj> {
        if let std::collections::hash_map::Entry::Vacant(e) = self.home.entry(obj) {
            let size = k.decl(obj)?.size as usize;
            e.insert(HomeObj { data: vec![0; size.max(1)], wts: 0, rts: 0 });
        }
        self.home.get_mut(&obj)
    }

    fn bounds_err(obj: ObjectId, range: ByteRange, size: u32) -> OpOutcome {
        OpOutcome::fail(DsmError::OutOfBounds { obj, range, size })
    }

    fn in_bounds(range: ByteRange, size: u32) -> bool {
        range.start as u64 + range.len as u64 <= size as u64
    }

    /// Mark cache activity and make sure the decay sweep is armed.
    fn touch_cache(&mut self, k: &mut dyn KernelApi<TardisMsg>) {
        if self.cfg.decay_us == 0 {
            return;
        }
        if self.sweep_armed {
            self.sweep_activity = true;
        } else {
            self.sweep_armed = true;
            self.sweep_activity = false;
            k.set_timer(self.node, self.cfg.decay_us, SWEEP_TOKEN);
        }
    }

    // ==================================================================
    // Home side: data protocol
    // ==================================================================

    /// Grant/extend a read lease and return `(data, wts, rts)`.
    fn home_grant_lease(
        &mut self,
        k: &mut dyn KernelApi<TardisMsg>,
        obj: ObjectId,
        reader_pts: u64,
    ) -> Option<(u64, u64)> {
        let lease = self.cfg.lease;
        let h = self.ensure_home(k, obj)?;
        h.rts = h.rts.max(reader_pts + lease).max(h.wts);
        let granted = (h.wts, h.rts);
        cover(k, "object", "home", "lease-grant");
        Some(granted)
    }

    fn handle_read_req(
        &mut self,
        k: &mut dyn KernelApi<TardisMsg>,
        from: NodeId,
        obj: ObjectId,
        thread: ThreadId,
        pts: u64,
    ) {
        let Some((wts, rts)) = self.home_grant_lease(k, obj, pts) else {
            k.error(format!("ReadReq for unknown object {obj}"));
            return;
        };
        let data = self.home[&obj].data.clone();
        self.route(k, from, TardisMsg::ReadReply { thread, obj, data, wts, rts });
    }

    fn handle_renew_req(
        &mut self,
        k: &mut dyn KernelApi<TardisMsg>,
        from: NodeId,
        obj: ObjectId,
        thread: ThreadId,
        pts: u64,
        have_wts: u64,
    ) {
        let Some((wts, rts)) = self.home_grant_lease(k, obj, pts) else {
            k.error(format!("RenewReq for unknown object {obj}"));
            return;
        };
        if wts == have_wts {
            // Copy still current: extend the lease without resending bytes.
            cover(k, "object", "lease", "renew-extend");
            self.route(k, from, TardisMsg::RenewAck { thread, obj, wts, rts });
        } else {
            cover(k, "object", "lease", "renew-refetch");
            let data = self.home[&obj].data.clone();
            self.route(k, from, TardisMsg::ReadReply { thread, obj, data, wts, rts });
        }
    }

    /// Apply a write at the home: stamp it strictly past every granted
    /// lease and return the new `wts`.
    fn home_apply_write(
        &mut self,
        k: &mut dyn KernelApi<TardisMsg>,
        obj: ObjectId,
        range: ByteRange,
        data: &[u8],
        writer_pts: u64,
    ) -> Option<u64> {
        let skip_bump = self.cfg.chaos_skip_wts != 0 && {
            self.chaos_writes += 1;
            self.chaos_writes == self.cfg.chaos_skip_wts
        };
        let h = self.ensure_home(k, obj)?;
        let s = range.start as usize;
        h.data[s..s + data.len()].copy_from_slice(data);
        if skip_bump {
            // Chaos mutation: the bytes land but the version does not move,
            // so every outstanding lease keeps validating pre-write copies
            // and renewals extend them. The checker must catch this.
            return Some(h.wts);
        }
        let wts = h.wts.max(h.rts).max(writer_pts) + 1;
        // A lease granted past the last write forces the stamp to jump over
        // it — the mechanism that replaces invalidation fan-out.
        let jumped = h.rts > h.wts;
        h.wts = wts;
        h.rts = wts;
        cover(k, "object", "home", if jumped { "write-jump" } else { "write" });
        Some(wts)
    }

    fn home_apply_atomic(
        &mut self,
        k: &mut dyn KernelApi<TardisMsg>,
        obj: ObjectId,
        offset: u32,
        delta: i64,
        writer_pts: u64,
    ) -> Option<(i64, u64)> {
        let h = self.ensure_home(k, obj)?;
        let wts = h.wts.max(h.rts).max(writer_pts) + 1;
        let s = offset as usize;
        let old = i64::from_le_bytes(h.data[s..s + 8].try_into().expect("bounds checked"));
        h.data[s..s + 8].copy_from_slice(&old.wrapping_add(delta).to_le_bytes());
        h.wts = wts;
        h.rts = wts;
        cover(k, "object", "home", "atomic");
        Some((old, wts))
    }

    // ==================================================================
    // Requester side: replies
    // ==================================================================

    /// Serve a pending read from a just-installed/renewed copy.
    fn finish_read(&mut self, k: &mut dyn KernelApi<TardisMsg>, thread: ThreadId, obj: ObjectId) {
        let cost = k.cost().fault_overhead_us + k.cost().local_access_us;
        match self.pending.remove(&thread) {
            Some(PendingTardisOp::Read { obj: pobj, range }) if pobj == obj => {
                let copy = self.cache.get(&obj).expect("just installed");
                let s = range.start as usize;
                let bytes = copy.data[s..s + range.len as usize].to_vec();
                k.complete(thread, OpResult::Bytes(bytes), cost);
            }
            other => {
                k.error(format!("read reply for {obj} but {thread} was pending {other:?}"));
            }
        }
    }

    fn handle_read_reply(
        &mut self,
        k: &mut dyn KernelApi<TardisMsg>,
        thread: ThreadId,
        obj: ObjectId,
        data: Vec<u8>,
        wts: u64,
        rts: u64,
    ) {
        cover(k, "object", "copy", "install");
        self.cache.insert(obj, CachedCopy { data, wts, rts });
        self.touch_cache(k);
        self.pts = self.pts.max(wts);
        self.finish_read(k, thread, obj);
    }

    fn handle_renew_ack(
        &mut self,
        k: &mut dyn KernelApi<TardisMsg>,
        thread: ThreadId,
        obj: ObjectId,
        wts: u64,
        rts: u64,
    ) {
        match self.cache.get_mut(&obj) {
            Some(copy) if copy.wts == wts => copy.rts = rts,
            _ => {
                // The copy was dropped (a local write raced the renewal) or
                // superseded; fail the op back through a fresh fetch.
                cover(k, "object", "copy", "renew-race-refetch");
                let pts = self.pts;
                let home = self.meta(k, obj).map(|(h, _)| h).unwrap_or(self.node);
                self.route(k, home, TardisMsg::ReadReq { obj, thread, pts });
                return;
            }
        }
        cover(k, "object", "copy", "renew-ok");
        self.touch_cache(k);
        self.pts = self.pts.max(wts);
        self.finish_read(k, thread, obj);
    }

    // ==================================================================
    // Dispatch
    // ==================================================================

    fn handle_msg(&mut self, k: &mut dyn KernelApi<TardisMsg>, from: NodeId, msg: TardisMsg) {
        use TardisMsg::*;
        match msg {
            ReadReq { obj, thread, pts } => self.handle_read_req(k, from, obj, thread, pts),
            ReadReply { thread, obj, data, wts, rts } => {
                self.handle_read_reply(k, thread, obj, data, wts, rts)
            }
            RenewReq { obj, thread, pts, have_wts } => {
                self.handle_renew_req(k, from, obj, thread, pts, have_wts)
            }
            RenewAck { thread, obj, wts, rts } => self.handle_renew_ack(k, thread, obj, wts, rts),
            WriteReq { obj, range, data, thread, pts } => {
                match self.home_apply_write(k, obj, range, &data, pts) {
                    Some(wts) => self.route(k, from, WriteAck { thread, wts }),
                    None => k.error(format!("WriteReq for unknown object {obj}")),
                }
            }
            WriteAck { thread, wts } => {
                self.pts = self.pts.max(wts);
                self.pending.remove(&thread);
                k.complete(thread, OpResult::Unit, k.cost().fault_overhead_us);
            }
            AtomicReq { obj, offset, delta, thread, pts } => {
                match self.home_apply_atomic(k, obj, offset, delta, pts) {
                    Some((old, wts)) => self.route(k, from, AtomicReply { thread, old, wts }),
                    None => k.error(format!("AtomicReq for unknown object {obj}")),
                }
            }
            AtomicReply { thread, old, wts } => {
                self.pts = self.pts.max(wts);
                self.pending.remove(&thread);
                k.complete(thread, OpResult::Value(old), k.cost().fault_overhead_us);
            }
            LockReq { lock, thread, pts } => {
                match self.sync.home_lock(lock).acquire(from, thread, pts) {
                    Some(g) => {
                        cover(k, "lock", "free", "grant");
                        self.route(k, g.node, LockGrant { thread: g.thread, ts: g.stamp });
                    }
                    None => cover(k, "lock", "held", "queue"),
                }
            }
            LockGrant { thread, ts } => {
                self.pts = self.pts.max(ts);
                self.pending.remove(&thread);
                k.complete(thread, OpResult::Unit, k.cost().local_lock_us);
            }
            Unlock { lock, pts } => match self.sync.home_lock(lock).release(pts) {
                Some(g) => {
                    cover(k, "lock", "held", "handoff");
                    self.route(k, g.node, LockGrant { thread: g.thread, ts: g.stamp });
                }
                None => cover(k, "lock", "held", "release"),
            },
            BarrierArrive { barrier, threads, pts } => {
                cover(k, "barrier", "gather", "arrive");
                if let Some(release) = self.sync.arrive(barrier, from, threads, pts) {
                    cover(k, "barrier", "gather", "release");
                    let pts = release.stamp;
                    k.multicast(self.node, &release.nodes, BarrierRelease { barrier, pts });
                    self.handle_msg(k, self.node, BarrierRelease { barrier, pts });
                }
            }
            BarrierRelease { barrier, pts } => {
                self.pts = self.pts.max(pts);
                self.sync.wake(k, barrier);
            }
        }
    }
}

impl Server for TardisServer {
    type Payload = TardisMsg;

    fn on_op(
        &mut self,
        k: &mut dyn KernelApi<TardisMsg>,
        thread: ThreadId,
        op: DsmOp,
    ) -> OpOutcome {
        if let Err(e) = self.sync.check(&op) {
            return OpOutcome::fail(e);
        }
        match op {
            DsmOp::Alloc(decl) => {
                let id = k.register_decl(decl, self.node);
                OpOutcome::done(OpResult::Object(id), k.cost().local_access_us)
            }
            DsmOp::Read { obj, range } => {
                let Some((home, size)) = self.meta(k, obj) else {
                    return OpOutcome::fail(DsmError::UnknownObject(obj));
                };
                if !Self::in_bounds(range, size) {
                    return Self::bounds_err(obj, range, size);
                }
                if home == self.node {
                    cover(k, "object", "home", "local-read");
                    self.ensure_home(k, obj).expect("decl checked");
                    let h = &self.home[&obj];
                    self.pts = self.pts.max(h.wts);
                    let s = range.start as usize;
                    let bytes = h.data[s..s + range.len as usize].to_vec();
                    return OpOutcome::done(OpResult::Bytes(bytes), k.cost().local_access_us);
                }
                if let Some(copy) = self.cache.get(&obj) {
                    if self.pts <= copy.rts {
                        // Lease hit: serve locally, no traffic at all.
                        cover(k, "object", "lease", "read-hit");
                        let wts = copy.wts;
                        let s = range.start as usize;
                        let bytes = copy.data[s..s + range.len as usize].to_vec();
                        self.pts = self.pts.max(wts);
                        self.touch_cache(k);
                        return OpOutcome::done(OpResult::Bytes(bytes), k.cost().local_access_us);
                    }
                    // Copy present but the lease expired: renew.
                    cover(k, "object", "lease", "expired-renew");
                    let have_wts = copy.wts;
                    let pts = self.pts;
                    self.pending.insert(thread, PendingTardisOp::Read { obj, range });
                    self.route(k, home, TardisMsg::RenewReq { obj, thread, pts, have_wts });
                    return OpOutcome::Blocked;
                }
                cover(k, "object", "copy", "fetch");
                let pts = self.pts;
                self.pending.insert(thread, PendingTardisOp::Read { obj, range });
                self.route(k, home, TardisMsg::ReadReq { obj, thread, pts });
                OpOutcome::Blocked
            }
            DsmOp::Write { obj, range, data } => {
                let Some((home, size)) = self.meta(k, obj) else {
                    return OpOutcome::fail(DsmError::UnknownObject(obj));
                };
                if !Self::in_bounds(range, size) || data.len() != range.len as usize {
                    return Self::bounds_err(obj, range, size);
                }
                if home == self.node {
                    let pts = self.pts;
                    let wts = self.home_apply_write(k, obj, range, &data, pts).expect("checked");
                    self.pts = wts;
                    return OpOutcome::unit(k.cost().local_access_us);
                }
                // Write-through to the home. Our own stale copy dies now so
                // this node's later reads refetch the post-write bytes.
                if self.cache.remove(&obj).is_some() {
                    cover(k, "object", "copy", "self-invalidate");
                }
                cover(k, "object", "copy", "write-through");
                let pts = self.pts;
                self.pending.insert(thread, PendingTardisOp::Write { obj });
                self.route(k, home, TardisMsg::WriteReq { obj, range, data, thread, pts });
                OpOutcome::Blocked
            }
            DsmOp::AtomicFetchAdd { obj, offset, delta } => {
                let Some((home, size)) = self.meta(k, obj) else {
                    return OpOutcome::fail(DsmError::UnknownObject(obj));
                };
                let range = ByteRange::new(offset, 8);
                if !Self::in_bounds(range, size) {
                    return Self::bounds_err(obj, range, size);
                }
                if home == self.node {
                    let pts = self.pts;
                    let (old, wts) =
                        self.home_apply_atomic(k, obj, offset, delta, pts).expect("checked");
                    self.pts = wts;
                    return OpOutcome::done(OpResult::Value(old), k.cost().local_access_us);
                }
                self.cache.remove(&obj);
                let pts = self.pts;
                self.pending.insert(thread, PendingTardisOp::Atomic { obj });
                self.route(k, home, TardisMsg::AtomicReq { obj, offset, delta, thread, pts });
                OpOutcome::Blocked
            }
            DsmOp::Lock(lock) => {
                let (home, pts) = (self.sync.lock_home(lock), self.pts);
                self.pending.insert(thread, PendingTardisOp::Lock { lock });
                self.route(k, home, TardisMsg::LockReq { lock, thread, pts });
                OpOutcome::Blocked
            }
            DsmOp::Unlock(lock) => {
                let (home, pts) = (self.sync.lock_home(lock), self.pts);
                self.route(k, home, TardisMsg::Unlock { lock, pts });
                OpOutcome::unit(k.cost().local_lock_us)
            }
            DsmOp::BarrierWait(barrier) => {
                let (home, pts) = (self.sync.park(barrier, thread), self.pts);
                self.route(k, home, TardisMsg::BarrierArrive { barrier, threads: 1, pts });
                OpOutcome::Blocked
            }
            DsmOp::CondWait { .. } | DsmOp::CondSignal { .. } => {
                OpOutcome::fail(DsmError::Internal(
                    "Tardis has no monitors; synchronize with locks/barriers".into(),
                ))
            }
            DsmOp::Flush | DsmOp::Phase(_) => OpOutcome::unit(k.cost().local_access_us),
            DsmOp::Exit => OpOutcome::unit(0),
            DsmOp::Compute(us) => OpOutcome::unit(us),
        }
    }

    fn on_message(&mut self, k: &mut dyn KernelApi<TardisMsg>, from: NodeId, payload: TardisMsg) {
        self.handle_msg(k, from, payload);
    }

    fn on_timer(&mut self, k: &mut dyn KernelApi<TardisMsg>, token: u64) {
        if token != SWEEP_TOKEN {
            return;
        }
        self.sweep_armed = false;
        let pts = self.pts;
        // Evict copies whose lease this node's own clock has outrun: they
        // could never satisfy another read here.
        let before = self.cache.len();
        self.cache.retain(|_, c| c.rts >= pts);
        cover(
            k,
            "object",
            "lease",
            if self.cache.len() < before { "decay-evict" } else { "sweep-idle" },
        );
        // Re-arm only if the cache was touched since the sweep was armed —
        // an idle node must quiesce (the virtual-time kernel treats a
        // perpetually re-arming timer as liveness).
        if self.sweep_activity && !self.cache.is_empty() {
            self.sweep_armed = true;
            self.sweep_activity = false;
            k.set_timer(self.node, self.cfg.decay_us, SWEEP_TOKEN);
        }
    }

    fn debug_stuck_state(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(out, "pts={}; ", self.pts);
        let _ = write!(out, "pending={:?}; ", self.pending);
        out.push_str(&self.sync.stuck_state());
        for (o, c) in &self.cache {
            let _ = write!(out, "copy {o}: wts={} rts={}; ", c.wts, c.rts);
        }
        for (o, h) in &self.home {
            let _ = write!(out, "home {o}: wts={} rts={}; ", h.wts, h.rts);
        }
        out
    }
}
