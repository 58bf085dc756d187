//! Mesa-style monitors, bundled from a distributed lock and condition
//! variable — the abstraction Presto programs used ("parallelism
//! (lightweight processes) and synchronization (locks and Mesa-style
//! monitors)"), built exactly as the paper prescribes: "more elaborate
//! synchronization objects, such as monitors and atomic integers, are built
//! on top of [the distributed locks]".

use crate::harness::ProgramBuilder;
use crate::par::Par;
use munin_types::{CondId, LockId};

/// A monitor handle: one lock plus one condition variable.
///
/// Note: condition variables are supported by the Munin and native backends;
/// the Ivy baseline (true to its "no special provisions") rejects them.
#[derive(Debug, Clone, Copy)]
pub struct Monitor {
    pub lock: LockId,
    pub cond: CondId,
}

impl Monitor {
    /// Declare a monitor homed on `home`.
    pub fn declare(p: &mut ProgramBuilder, home: usize) -> Monitor {
        Monitor { lock: p.lock(home), cond: p.cond(home) }
    }

    /// Enter the monitor (acquire the lock).
    pub fn enter(&self, par: &mut dyn Par) {
        par.lock(self.lock);
    }

    /// Leave the monitor (release the lock).
    pub fn exit(&self, par: &mut dyn Par) {
        par.unlock(self.lock);
    }

    /// Run `body` inside the monitor.
    pub fn with<R>(&self, par: &mut dyn Par, body: impl FnOnce(&mut dyn Par) -> R) -> R {
        self.enter(par);
        let r = body(par);
        self.exit(par);
        r
    }

    /// Mesa wait: must hold the monitor; releases, sleeps, re-acquires.
    /// Always re-test the predicate after waking.
    pub fn wait(&self, par: &mut dyn Par) {
        par.cond_wait(self.cond, self.lock);
    }

    /// Wake one waiter (signal-and-continue).
    pub fn signal(&self, par: &mut dyn Par) {
        par.cond_signal(self.cond, false);
    }

    /// Wake all waiters.
    pub fn broadcast(&self, par: &mut dyn Par) {
        par.cond_signal(self.cond, true);
    }

    /// The classic pattern: wait until `pred` holds (re-tested after every
    /// wake, as Mesa semantics require).
    pub fn wait_until(&self, par: &mut dyn Par, mut pred: impl FnMut(&mut dyn Par) -> bool) {
        while !pred(par) {
            self.wait(par);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Backend;
    use crate::par::ParTyped;
    use munin_types::{MuninConfig, ObjectDecl, SharingType};
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    fn bounded_buffer(backend: Backend) {
        // A 1-slot bounded buffer guarded by a monitor: the canonical
        // monitor exercise, across nodes.
        let mut p = ProgramBuilder::new(2);
        let m = Monitor::declare(&mut p, 0);
        // slot[0] = full flag, slot[1] = value.
        let slot = p.array_decl::<i64>(
            ObjectDecl::template("slot", SharingType::Migratory).with_lock(m.lock),
            2,
            0,
        );
        let got = Arc::new(AtomicI64::new(0));
        let g = got.clone();
        p.thread(0, move |par: &mut dyn Par| {
            // Consumer: take 5 items.
            let mut sum = 0;
            for _ in 0..5 {
                m.enter(par);
                m.wait_until(par, |par| par.get(&slot, 0) == 1);
                sum += par.get(&slot, 1);
                par.set(&slot, 0, 0);
                m.broadcast(par);
                m.exit(par);
            }
            g.store(sum, Ordering::SeqCst);
        });
        p.thread(1, move |par: &mut dyn Par| {
            // Producer: put 1..=5.
            for v in 1..=5i64 {
                m.enter(par);
                m.wait_until(par, |par| par.get(&slot, 0) == 0);
                par.set(&slot, 1, v);
                par.set(&slot, 0, 1);
                m.broadcast(par);
                m.exit(par);
            }
        });
        p.run(backend).assert_clean();
        assert_eq!(got.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn bounded_buffer_producer_consumer_on_munin() {
        bounded_buffer(Backend::sim(MuninConfig::default()));
    }

    #[test]
    fn bounded_buffer_producer_consumer_on_native() {
        bounded_buffer(Backend::Native);
    }

    #[test]
    fn with_releases_on_normal_exit() {
        let mut p = ProgramBuilder::new(1);
        let m = Monitor::declare(&mut p, 0);
        p.thread(0, move |par: &mut dyn Par| {
            for _ in 0..3 {
                m.with(par, |_| {});
            }
            // If `with` leaked the lock, this would deadlock.
            m.enter(par);
            m.exit(par);
        });
        p.run(Backend::sim(MuninConfig::default())).assert_clean();
    }
}
