//! The distributed proxy-lock protocol.
//!
//! Protocol summary (one token per lock; home runs the global FIFO queue):
//!
//! * **acquire** — token here and free: grant locally, zero messages.
//!   Otherwise queue locally and (once) send `LockReq` to the home.
//! * **home** — appends the requesting node to the global queue; whenever no
//!   fetch is outstanding, sends `LockFetch{to}` to the current token holder
//!   for the queue head.
//! * **holder** — passes the token immediately if free, or remembers the
//!   destination and passes on release. The `LockPass` carries the bytes of
//!   every *migratory object associated with the lock* that currently lives
//!   here — "the object is migrated, together with the lock itself, to the
//!   next thread in the lock queue" — so the next critical section faults on
//!   nothing.
//! * **release** — local waiters first (zero messages), then pending passes,
//!   otherwise the token stays (re-acquisition by this node remains free).

use crate::cover;
use crate::msg::MuninMsg;
use crate::server::MuninServer;
use crate::sync_objs::ProxyLock;
use munin_sim::{KernelApi, OpResult};
use munin_types::{DsmError, LockId, NodeId, ObjectId, ThreadId};

impl MuninServer {
    /// Thread-side acquire (after the sync flush completed).
    pub(crate) fn lock_acquire(
        &mut self,
        k: &mut dyn KernelApi<MuninMsg>,
        thread: ThreadId,
        l: LockId,
    ) {
        let home = self.sync.lock_home(l);
        let p = self.proxies.entry(l).or_insert_with(|| ProxyLock::new(false));
        if p.can_grant_locally() {
            cover(k, "lock", "token-here", "local-grant");
            p.locked_by = Some(thread);
            k.complete(thread, OpResult::Unit, k.cost().local_lock_us);
            return;
        }
        p.local_queue.push_back(thread);
        if !p.has_token && !p.requested {
            cover(k, "lock", "token-remote", "request");
            p.requested = true;
            self.route(k, home, MuninMsg::LockReq { lock: l });
        }
        // If we hold the token but it is locked, the release path grants.
    }

    /// Thread-side release.
    pub(crate) fn lock_release(
        &mut self,
        k: &mut dyn KernelApi<MuninMsg>,
        thread: ThreadId,
        l: LockId,
    ) {
        let holds = self.proxies.get(&l).is_some_and(|p| p.locked_by == Some(thread));
        if !holds {
            k.complete(thread, OpResult::Err(DsmError::NotLockHolder { lock: l, thread }), 0);
            return;
        }
        let p = self.proxies.get_mut(&l).expect("checked above");
        p.locked_by = None;
        // Local handoff first: the proxy win.
        if let Some(next) = p.local_queue.pop_front() {
            cover(k, "lock", "token-here", "proxy-handoff");
            p.locked_by = Some(next);
            k.complete(next, OpResult::Unit, k.cost().local_lock_us);
            k.complete(thread, OpResult::Unit, k.cost().local_lock_us);
            return;
        }
        // Then honour a pending pass from the home.
        if let Some(dst) = p.pending_pass.pop_front() {
            self.pass_token(k, l, dst);
        }
        k.complete(thread, OpResult::Unit, k.cost().local_lock_us);
    }

    /// Send the token (and associated migratory objects) to `dst`.
    pub(crate) fn pass_token(&mut self, k: &mut dyn KernelApi<MuninMsg>, l: LockId, dst: NodeId) {
        debug_assert_ne!(dst, self.node, "home never directs a pass to the current holder");
        {
            let p = self.proxies.get_mut(&l).expect("pass_token on known proxy");
            debug_assert!(p.has_token);
            debug_assert!(p.locked_by.is_none());
            p.has_token = false;
        }
        let piggyback = self.collect_lock_associates(k, l, dst);
        cover(
            k,
            "lock",
            "token-here",
            if piggyback.is_empty() { "token-pass" } else { "token-pass-migrate" },
        );
        self.route(k, dst, MuninMsg::LockPass { lock: l, piggyback });
    }

    /// Gather the migratory objects associated with `l` that live here; they
    /// ride the token. Their local copies are evicted and the probable-holder
    /// chain is pointed at the destination.
    fn collect_lock_associates(
        &mut self,
        k: &mut dyn KernelApi<MuninMsg>,
        l: LockId,
        dst: NodeId,
    ) -> Vec<(ObjectId, Vec<u8>)> {
        let assoc = k.assoc_objects(l);
        let mut out = Vec::new();
        for obj in assoc {
            let holds = self.local.get(&obj).is_some_and(|s| s.valid);
            if !holds {
                continue;
            }
            if let Some(data) = self.store.evict(obj) {
                let st = self.local_mut(obj);
                st.valid = false;
                st.writable = false;
                self.twins.drop_twin(obj);
                self.duq.remove(obj);
                self.probable_holder.insert(obj, dst);
                out.push((obj, data));
            }
        }
        out
    }

    // ---- home side -----------------------------------------------------------

    pub(crate) fn handle_lock_req(
        &mut self,
        k: &mut dyn KernelApi<MuninMsg>,
        from: NodeId,
        l: LockId,
    ) {
        let h = self.lock_homes.get_mut(&l).expect("LockReq routed to lock home");
        h.queue.push_back(from);
        self.dispatch_lock_fetch(k, l);
    }

    /// If the token is idle (no fetch in flight) and someone is waiting,
    /// direct the holder to pass it.
    pub(crate) fn dispatch_lock_fetch(&mut self, k: &mut dyn KernelApi<MuninMsg>, l: LockId) {
        let (to, holder) = {
            let h = self.lock_homes.get_mut(&l).expect("dispatch on lock home");
            if h.fetch_outstanding {
                return;
            }
            let Some(&next) = h.queue.front() else { return };
            h.fetch_outstanding = true;
            h.queue.pop_front();
            (next, h.token_at)
        };
        if holder == self.node {
            self.handle_lock_fetch(k, self.node, l, to);
        } else {
            self.route(k, holder, MuninMsg::LockFetch { lock: l, to });
        }
    }

    // ---- holder side -----------------------------------------------------------

    pub(crate) fn handle_lock_fetch(
        &mut self,
        k: &mut dyn KernelApi<MuninMsg>,
        _from: NodeId,
        l: LockId,
        to: NodeId,
    ) {
        let can_pass = {
            let p = self.proxies.get_mut(&l).expect("fetch routed to token holder");
            if !p.has_token {
                // Should be impossible: the home serializes fetches and
                // learns of every pass via LockNotify before issuing the
                // next one.
                k.error(format!("n{}: LockFetch for {l} but token not here", self.node.0));
                return;
            }
            p.locked_by.is_none() && p.local_queue.is_empty()
        };
        if can_pass {
            self.pass_token(k, l, to);
        } else {
            cover(k, "lock", "token-here", "pass-deferred");
            self.proxies.get_mut(&l).expect("proxy exists").pending_pass.push_back(to);
        }
    }

    pub(crate) fn handle_lock_pass(
        &mut self,
        k: &mut dyn KernelApi<MuninMsg>,
        _from: NodeId,
        l: LockId,
        piggyback: Vec<(ObjectId, Vec<u8>)>,
    ) {
        // Install the migratory objects that rode along.
        for (obj, data) in piggyback {
            self.store.install(obj, data);
            let st = self.local_mut(obj);
            st.valid = true;
            st.writable = true;
            self.probable_holder.insert(obj, self.node);
            self.replay_faults(k, obj);
        }
        let home = self.sync.lock_home(l);
        {
            let p = self.proxies.get_mut(&l).expect("proxy exists for passed lock");
            p.has_token = true;
            p.requested = false;
        }
        // Tell the home where the token lives now.
        if home == self.node {
            self.note_token_arrival(k, l, self.node);
        } else {
            self.route(k, home, MuninMsg::LockNotify { lock: l });
        }
        // Grant to the first local waiter.
        let grant = {
            let p = self.proxies.get_mut(&l).expect("proxy exists");
            if p.locked_by.is_none() {
                p.local_queue.pop_front()
            } else {
                None
            }
        };
        if let Some(t) = grant {
            self.proxies.get_mut(&l).expect("proxy exists").locked_by = Some(t);
            k.complete(t, OpResult::Unit, k.cost().local_lock_us);
        }
    }

    pub(crate) fn handle_lock_notify(
        &mut self,
        k: &mut dyn KernelApi<MuninMsg>,
        from: NodeId,
        l: LockId,
    ) {
        self.note_token_arrival(k, l, from);
    }

    fn note_token_arrival(&mut self, k: &mut dyn KernelApi<MuninMsg>, l: LockId, at: NodeId) {
        {
            let h = self.lock_homes.get_mut(&l).expect("notify routed to lock home");
            h.token_at = at;
            h.fetch_outstanding = false;
        }
        self.dispatch_lock_fetch(k, l);
    }
}
