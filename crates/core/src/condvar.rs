//! Condition variables (Mesa-style monitors, built on the distributed
//! locks — "more elaborate synchronization objects, such as monitors and
//! atomic integers, are built on top of this").
//!
//! `cond_wait` releases the monitor lock, registers the thread with the
//! condition variable's home, and — when a signal arrives — re-acquires the
//! lock through the normal proxy path before the thread resumes. Signals
//! with no waiters are lost (Mesa semantics); `broadcast` wakes everyone.

use crate::msg::MuninMsg;
use crate::server::MuninServer;
use munin_sim::{KernelApi, OpResult};
use munin_types::{CondId, LockId, NodeId, ThreadId};

impl MuninServer {
    /// Thread-side wait (after the sync flush). The thread must hold `lock`.
    pub(crate) fn cond_wait(
        &mut self,
        k: &mut dyn KernelApi<MuninMsg>,
        thread: ThreadId,
        cond: CondId,
        lock: LockId,
    ) {
        let holds = self.proxies.get(&lock).is_some_and(|p| p.locked_by == Some(thread));
        if !holds {
            k.complete(
                thread,
                OpResult::Err(munin_types::DsmError::NotLockHolder { lock, thread }),
                0,
            );
            return;
        }
        // Remember how to resume, then release the monitor lock. The release
        // path may grant to a local waiter or pass the token; we must not
        // complete `thread` — so we inline the release logic rather than
        // calling lock_release (which completes the caller).
        self.cv_parked.insert(thread, lock);
        let p = self.proxies.get_mut(&lock).expect("checked above");
        p.locked_by = None;
        if let Some(next) = p.local_queue.pop_front() {
            p.locked_by = Some(next);
            k.complete(next, OpResult::Unit, k.cost().local_lock_us);
        } else if let Some(dst) = p.pending_pass.pop_front() {
            self.pass_token(k, lock, dst);
        }
        let home = self.sync.cond_home(cond);
        if home == self.node {
            self.handle_cv_wait(k, self.node, cond, thread);
        } else {
            self.route(k, home, MuninMsg::CvWait { cond, thread });
        }
    }

    /// Thread-side signal (after the sync flush).
    pub(crate) fn cond_signal(
        &mut self,
        k: &mut dyn KernelApi<MuninMsg>,
        thread: ThreadId,
        cond: CondId,
        broadcast: bool,
    ) {
        let home = self.sync.cond_home(cond);
        if home == self.node {
            self.handle_cv_signal(k, self.node, cond, broadcast);
        } else {
            self.route(k, home, MuninMsg::CvSignal { cond, broadcast });
        }
        k.complete(thread, OpResult::Unit, k.cost().local_lock_us);
    }

    // ---- home side -------------------------------------------------------

    pub(crate) fn handle_cv_wait(
        &mut self,
        _k: &mut dyn KernelApi<MuninMsg>,
        from: NodeId,
        cond: CondId,
        thread: ThreadId,
    ) {
        self.cond_homes.entry(cond).or_default().waiters.push_back((from, thread));
    }

    pub(crate) fn handle_cv_signal(
        &mut self,
        k: &mut dyn KernelApi<MuninMsg>,
        _from: NodeId,
        cond: CondId,
        broadcast: bool,
    ) {
        let woken: Vec<(NodeId, ThreadId)> = {
            let st = self.cond_homes.entry(cond).or_default();
            if broadcast {
                st.waiters.drain(..).collect()
            } else {
                st.waiters.pop_front().into_iter().collect()
            }
        };
        for (node, thread) in woken {
            if node == self.node {
                self.handle_cv_wake(k, self.node, cond, thread);
            } else {
                self.route(k, node, MuninMsg::CvWake { cond, thread });
            }
        }
    }

    // ---- waiter's node -----------------------------------------------------

    /// The signal reached us: re-acquire the monitor lock on the thread's
    /// behalf; the pending CondWait op completes when the lock is granted.
    pub(crate) fn handle_cv_wake(
        &mut self,
        k: &mut dyn KernelApi<MuninMsg>,
        _from: NodeId,
        _cond: CondId,
        thread: ThreadId,
    ) {
        let Some(lock) = self.cv_parked.remove(&thread) else {
            k.error(format!("CvWake for {thread} which is not cv-parked"));
            return;
        };
        self.lock_acquire(k, thread, lock);
    }
}
