//! The native shared-memory backend: real OS threads, real locks — the
//! "Sequent Symmetry" the paper's study programs originally ran on.
//!
//! Used as the semantic reference (the same application code must produce
//! the same results here as on either DSM backend) and for wall-clock
//! comparison. There is no network and no coherence: objects are plain
//! byte vectors behind reader-writer locks.

use munin_sim::{DsmOp, DsmThread, OpResult, WorldDesc};
use munin_types::{ByteRange, CondId, LockId, NodeId, ObjectId, SyncDecls, ThreadId};
use parking_lot::{Condvar, Mutex, RwLock};
use std::sync::{Arc, Barrier};

/// A manually lockable mutex (guards can't span `Par::lock`/`Par::unlock`
/// calls, so we implement holding explicitly).
#[derive(Default)]
struct HeldLock {
    held: Mutex<bool>,
    cv: Condvar,
}

impl HeldLock {
    fn acquire(&self) {
        let mut g = self.held.lock();
        while *g {
            self.cv.wait(&mut g);
        }
        *g = true;
    }

    fn release(&self) {
        let mut g = self.held.lock();
        *g = false;
        self.cv.notify_one();
    }
}

/// A native condition variable: a generation counter + condvar. Every
/// signal bumps the generation and wakes everyone (Mesa semantics permit
/// spurious wakeups; predicates are re-tested).
#[derive(Default)]
struct NativeCond {
    generation: Mutex<u64>,
    cv: Condvar,
}

/// Shared state of a native run.
pub struct NativeWorld {
    objects: Vec<RwLock<Vec<u8>>>,
    locks: Vec<HeldLock>,
    barriers: Vec<Barrier>,
    conds: Vec<NativeCond>,
    n_nodes: usize,
    n_threads: usize,
}

impl NativeWorld {
    /// Real memory for `desc`'s objects (indexed by their dense ids) and
    /// real locks, barriers and condition variables for `sync`'s.
    pub fn new(desc: &WorldDesc, sync: &SyncDecls) -> Arc<Self> {
        Arc::new(NativeWorld {
            objects: desc.decls().iter().map(|d| RwLock::new(vec![0u8; d.size as usize])).collect(),
            locks: sync.locks.iter().map(|_| HeldLock::default()).collect(),
            barriers: sync.barriers.iter().map(|b| Barrier::new(b.count as usize)).collect(),
            conds: sync.conds.iter().map(|_| NativeCond::default()).collect(),
            n_nodes: desc.n_nodes(),
            n_threads: desc.n_threads(),
        })
    }

    /// Run every thread of `desc` (the description this world was made
    /// from) on its own OS thread, and join them all.
    pub fn run(self: Arc<Self>, desc: WorldDesc) {
        let joins: Vec<_> = desc
            .into_threads()
            .map(|(thread, node, body)| {
                let mut ctx = NativeCtx::new(self.clone(), thread, node);
                std::thread::spawn(move || body(&mut ctx))
            })
            .collect();
        for j in joins {
            j.join().expect("native program thread panicked");
        }
    }

    /// Read an object's final bytes after the run (result collection).
    pub fn snapshot(&self, obj: ObjectId) -> Vec<u8> {
        self.objects[obj.index()].read().clone()
    }
}

/// Per-thread handle: a [`DsmThread`] (`Par`) over the native world. Every op completes
/// inline; the byte-level access wrappers are overridden to copy straight
/// between the caller's buffer and the object, so typed access allocates
/// nothing.
pub struct NativeCtx {
    world: Arc<NativeWorld>,
    thread: ThreadId,
    node: NodeId,
}

impl NativeCtx {
    pub fn new(world: Arc<NativeWorld>, thread: ThreadId, node: NodeId) -> Self {
        NativeCtx { world, thread, node }
    }

    fn read_at(&self, obj: ObjectId, range: ByteRange, out: &mut [u8]) {
        let g = self.world.objects[obj.index()].read();
        out.copy_from_slice(&g[range.start as usize..range.end() as usize]);
    }

    fn write_at(&self, obj: ObjectId, start: u32, data: &[u8]) {
        let mut g = self.world.objects[obj.index()].write();
        g[start as usize..start as usize + data.len()].copy_from_slice(data);
    }

    fn fetch_add_at(&self, obj: ObjectId, offset: u32, delta: i64) -> i64 {
        let mut g = self.world.objects[obj.index()].write();
        let s = offset as usize;
        let old = i64::from_le_bytes(g[s..s + 8].try_into().expect("8 bytes"));
        g[s..s + 8].copy_from_slice(&old.wrapping_add(delta).to_le_bytes());
        old
    }

    fn cond_wait_on(&self, cond: CondId, lock: LockId) {
        let nc = &self.world.conds[cond.index()];
        // Read the generation while still inside the monitor: a signal can
        // only happen while the monitor lock is held, so no wakeup between
        // this read and the wait below can be missed.
        let gen = *nc.generation.lock();
        self.world.locks[lock.index()].release();
        {
            let mut g = nc.generation.lock();
            while *g == gen {
                nc.cv.wait(&mut g);
            }
        }
        self.world.locks[lock.index()].acquire();
    }
}

impl DsmThread for NativeCtx {
    fn op(&mut self, op: DsmOp) -> OpResult {
        match op {
            DsmOp::Read { obj, range } => {
                let mut out = vec![0u8; range.len as usize];
                self.read_at(obj, range, &mut out);
                return OpResult::Bytes(out);
            }
            DsmOp::Write { obj, range, data } => self.write_at(obj, range.start, &data),
            DsmOp::AtomicFetchAdd { obj, offset, delta } => {
                return OpResult::Value(self.fetch_add_at(obj, offset, delta));
            }
            DsmOp::Lock(lock) => self.world.locks[lock.index()].acquire(),
            DsmOp::Unlock(lock) => self.world.locks[lock.index()].release(),
            DsmOp::BarrierWait(barrier) => {
                self.world.barriers[barrier.index()].wait();
            }
            DsmOp::CondWait { cond, lock } => self.cond_wait_on(cond, lock),
            DsmOp::CondSignal { cond, .. } => {
                // Every signal wakes everyone (see `NativeCond`).
                let nc = &self.world.conds[cond.index()];
                *nc.generation.lock() += 1;
                nc.cv.notify_all();
            }
            DsmOp::Alloc(decl) => {
                panic!("the native backend has no run-time allocation (object `{}`)", decl.name)
            }
            // No coherence to flush, no phase to publish, and native runs
            // do real work, so modelled compute is a no-op.
            DsmOp::Flush | DsmOp::Phase(_) | DsmOp::Compute(_) | DsmOp::Exit => {}
        }
        OpResult::Unit
    }

    fn read_raw_into(&mut self, obj: ObjectId, range: ByteRange, out: &mut [u8]) {
        self.read_at(obj, range, out);
    }

    fn write_raw(&mut self, obj: ObjectId, start: u32, data: &[u8]) {
        self.write_at(obj, start, data);
    }

    fn thread_id(&self) -> ThreadId {
        self.thread
    }

    fn node(&self) -> NodeId {
        self.node
    }

    fn n_nodes(&self) -> usize {
        self.world.n_nodes
    }

    fn n_threads(&self) -> usize {
        self.world.n_threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::ParTyped;
    use munin_types::{
        BarrierDecl, BarrierId, LockDecl, ObjectDecl, SharedArray, SharedScalar, SharingType,
    };

    /// A world of one `size`-byte object, one lock and one barrier for
    /// `threads` threads, all on node 0.
    fn world(size: u32, threads: u32) -> (WorldDesc, SyncDecls, ObjectId) {
        let mut desc = WorldDesc::new(1);
        let decl = ObjectDecl::new(ObjectId(0), "o", size, SharingType::WriteMany, NodeId(0));
        let obj = desc.declare(decl, NodeId(0));
        let sync = SyncDecls {
            locks: vec![LockDecl { id: LockId(0), home: NodeId(0) }],
            barriers: vec![BarrierDecl { id: BarrierId(0), home: NodeId(0), count: threads }],
            conds: Vec::new(),
        };
        (desc, sync, obj)
    }

    #[test]
    fn native_world_basics() {
        let (mut desc, sync, obj) = world(64, 2);
        let arr: SharedArray<f64> = SharedArray::from_raw(obj, 8, SharingType::WriteMany);
        desc.spawn(NodeId(0), |_| {});
        desc.spawn(NodeId(0), move |par| {
            par.set(&arr, 2, 9.0);
            assert_eq!(par.get(&arr, 2), 9.0);
            assert_eq!(par.self_id(), 1);
            assert_eq!(par.n_threads(), 2);
            assert_eq!(par.n_nodes(), 1);
        });
        let w = NativeWorld::new(&desc, &sync);
        w.clone().run(desc);
        assert_eq!(w.snapshot(obj).len(), 64);
        assert_eq!(w.snapshot(obj)[16..24], 9.0f64.to_le_bytes());
    }

    #[test]
    fn native_locks_exclude_and_barriers_meet() {
        let (mut desc, sync, obj) = world(8, 4);
        let ctr: SharedScalar<i64> = SharedScalar::from_raw(obj, SharingType::GeneralReadWrite);
        for _ in 0..4 {
            desc.spawn(NodeId(0), move |ctx| {
                for _ in 0..100 {
                    ctx.lock(LockId(0));
                    let v = ctx.load(&ctr);
                    ctx.store(&ctr, v + 1);
                    ctx.unlock(LockId(0));
                }
                ctx.barrier(BarrierId(0));
                // After the barrier everyone must see the final count.
                assert_eq!(ctx.load(&ctr), 400);
            });
        }
        NativeWorld::new(&desc, &sync).run(desc);
    }

    #[test]
    fn native_fetch_add_is_atomic() {
        let (mut desc, sync, obj) = world(8, 8);
        let seen = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..8 {
            let seen = seen.clone();
            desc.spawn(NodeId(0), move |ctx| {
                let mine: Vec<i64> = (0..50).map(|_| ctx.fetch_add(obj, 0, 1)).collect();
                seen.lock().extend(mine);
            });
        }
        NativeWorld::new(&desc, &sync).run(desc);
        let mut all = std::mem::take(&mut *seen.lock());
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<i64>>());
    }
}
