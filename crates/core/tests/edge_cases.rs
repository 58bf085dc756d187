//! Edge-case and failure-path tests for the Munin runtime.

use munin_core::{MuninServer, SyncDecls};
use munin_sim::{DsmThread, NullTracer, RunReport, TransportConfig, World, WorldDesc};
use munin_types::{
    BarrierId, ByteRange, CondId, LockId, MuninConfig, NodeId, ObjectDecl, ObjectId, SharingType,
};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

fn run_world(
    n_nodes: usize,
    cfg: MuninConfig,
    sync: SyncDecls,
    setup: impl FnOnce(&mut WorldDesc),
) -> RunReport {
    let mut b = WorldDesc::new(n_nodes);
    setup(&mut b);
    let servers: Vec<MuninServer> = (0..n_nodes)
        .map(|i| MuninServer::new(NodeId(i as u16), cfg.clone(), sync.clone()))
        .collect();
    World::new(b, servers, TransportConfig::default(), Box::new(NullTracer)).run()
}

fn decl(name: &str, size: u32, sharing: SharingType) -> ObjectDecl {
    ObjectDecl::new(ObjectId(0), name, size, sharing, NodeId(0))
}

#[test]
fn out_of_bounds_read_is_reported_not_hung() {
    let report = run_world(1, MuninConfig::default(), SyncDecls::default(), |b| {
        let obj = b.declare(decl("small", 8, SharingType::WriteMany), NodeId(0));
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            let _ = ctx.read(obj, ByteRange::new(4, 8)); // 4..12 of size 8
        });
    });
    assert!(!report.is_clean());
    assert!(report.errors[0].contains("out of bounds"), "{:?}", report.errors);
}

#[test]
fn unknown_object_is_reported() {
    let report = run_world(1, MuninConfig::default(), SyncDecls::default(), |b| {
        b.spawn(NodeId(0), |ctx: &mut dyn DsmThread| {
            let _ = ctx.read(ObjectId(999), ByteRange::new(0, 4));
        });
    });
    assert!(!report.is_clean());
    assert!(report.errors[0].contains("unknown object"), "{:?}", report.errors);
}

#[test]
fn remote_private_access_is_a_sharing_violation() {
    let report = run_world(2, MuninConfig::default(), SyncDecls::default(), |b| {
        let obj = b.declare(decl("mine", 8, SharingType::Private), NodeId(0));
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            let _ = ctx.read(obj, ByteRange::new(0, 8));
        });
    });
    assert!(!report.is_clean());
    assert!(report.errors[0].contains("private"), "{:?}", report.errors);
}

#[test]
fn unlock_without_hold_is_reported() {
    let sync = SyncDecls::round_robin(1, 0, 0, 1);
    let report = run_world(1, MuninConfig::default(), sync, |b| {
        b.spawn(NodeId(0), |ctx: &mut dyn DsmThread| {
            ctx.unlock(LockId(0));
        });
    });
    assert!(!report.is_clean());
    assert!(report.errors[0].contains("without holding"), "{:?}", report.errors);
}

#[test]
fn duq_pressure_triggers_background_flush() {
    let mut cfg = MuninConfig::default();
    cfg.duq_max_objects = 4;
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let report = run_world(2, cfg, sync, |b| {
        // Eight distinct objects dirtied without any synchronization: the
        // queue limit must force flushes before the barrier.
        let objs: Vec<ObjectId> = (0..8)
            .map(|i| b.declare(decl(&format!("o{i}"), 16, SharingType::WriteMany), NodeId(0)))
            .collect();
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            for (i, o) in objs.iter().enumerate() {
                ctx.write(*o, 0, vec![i as u8 + 1; 16]);
            }
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
        });
    });
    report.assert_clean();
    assert!(
        report.stats.kind("FlushIn").count >= 2,
        "queue pressure split the flush: {:?}",
        report.stats.by_kind
    );
}

#[test]
fn write_allocate_fetches_before_writing() {
    // First access to a write-many object from a remote node is a write:
    // the runtime must fetch a copy (write-allocate), apply, then flush.
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s2 = seen.clone();
    let report = run_world(2, MuninConfig::default(), sync, |b| {
        let obj = b.declare(decl("x", 16, SharingType::WriteMany), NodeId(0));
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 0, vec![1; 16]); // home initializes
            ctx.barrier(BarrierId(0));
            ctx.barrier(BarrierId(0));
            s2.lock().unwrap().extend(ctx.read(obj, ByteRange::new(0, 16)));
        });
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            ctx.write(obj, 4, vec![2; 4]); // write-allocate fault
            ctx.barrier(BarrierId(0));
        });
    });
    report.assert_clean();
    let want = vec![1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1];
    assert_eq!(*seen.lock().unwrap(), want);
    assert_eq!(report.stats.kind("ReadReply").count, 1, "write-allocate fetched a copy");
}

#[test]
fn multiple_threads_per_node_share_the_duq() {
    let sync = SyncDecls::round_robin(0, 1, 3, 2);
    let report = run_world(2, MuninConfig::default(), sync, |b| {
        let obj = b.declare(decl("x", 32, SharingType::WriteMany), NodeId(0));
        // Two threads on node 1 write disjoint halves; their updates flush
        // together (per-node DUQ).
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 0, vec![1; 16]);
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 16, vec![2; 16]);
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            let v = ctx.read(obj, ByteRange::new(0, 32));
            assert_eq!(&v[..16], &[1; 16]);
            assert_eq!(&v[16..], &[2; 16]);
        });
    });
    report.assert_clean();
    // Both threads' writes travelled in (at most) two FlushIn batches.
    assert!(report.stats.kind("FlushIn").count <= 2, "{:?}", report.stats.by_kind);
}

#[test]
fn cond_broadcast_wakes_all_waiters() {
    let sync = SyncDecls {
        locks: vec![munin_types::LockDecl { id: LockId(0), home: NodeId(0) }],
        barriers: vec![],
        conds: vec![munin_types::CondDecl { id: CondId(0), home: NodeId(0) }],
    };
    let woken = Arc::new(AtomicI64::new(0));
    let report = run_world(3, MuninConfig::default(), sync, |b| {
        let flag =
            b.declare(decl("flag", 8, SharingType::Migratory).with_lock(LockId(0)), NodeId(0));
        for i in 0..2 {
            let woken = woken.clone();
            b.spawn(NodeId(i as u16), move |ctx: &mut dyn DsmThread| {
                ctx.lock(LockId(0));
                loop {
                    let v = ctx.read(flag, ByteRange::new(0, 8));
                    if i64::from_le_bytes(v.try_into().unwrap()) != 0 {
                        break;
                    }
                    ctx.cond_wait(CondId(0), LockId(0));
                }
                ctx.unlock(LockId(0));
                woken.fetch_add(1, Ordering::SeqCst);
            });
        }
        b.spawn(NodeId(2), move |ctx: &mut dyn DsmThread| {
            ctx.compute(20_000);
            ctx.lock(LockId(0));
            ctx.write(flag, 0, 1i64.to_le_bytes().to_vec());
            ctx.cond_signal(CondId(0), true);
            ctx.unlock(LockId(0));
        });
    });
    report.assert_clean();
    assert_eq!(woken.load(Ordering::SeqCst), 2);
}

#[test]
fn atomics_from_all_nodes_serialize_at_home() {
    let sync = SyncDecls::round_robin(0, 1, 3, 3);
    let report = run_world(3, MuninConfig::default(), sync, |b| {
        let ctr = b.declare(decl("ctr", 16, SharingType::GeneralReadWrite), NodeId(2));
        for i in 0..3 {
            b.spawn(NodeId(i as u16), move |ctx: &mut dyn DsmThread| {
                for _ in 0..10 {
                    ctx.fetch_add(ctr, 8, 1);
                }
                ctx.barrier(BarrierId(0));
                if ctx.node() == NodeId(2) {
                    assert_eq!(ctx.fetch_add(ctr, 8, 0), 30);
                }
            });
        }
    });
    report.assert_clean();
    // Remote atomics: 2 nodes × 10 ops × (req + reply).
    assert_eq!(report.stats.kind("AtomicReq").count, 20);
}

#[test]
fn eager_fence_orders_pushes_before_barrier_release() {
    // A producer whose eager pushes ride a slow (big-payload) path must
    // still never let a consumer read stale data after the barrier: the
    // acknowledged fence flush guarantees it.
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let report = run_world(2, MuninConfig::default(), sync, |b| {
        let obj =
            b.declare(decl("bnd", 8192, SharingType::ProducerConsumer).with_eager(true), NodeId(0));
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 0, vec![1; 8192]);
            ctx.barrier(BarrierId(0));
            ctx.barrier(BarrierId(0));
            // Big eager push right before the barrier.
            ctx.write(obj, 0, vec![2; 8192]);
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            assert_eq!(ctx.read(obj, ByteRange::new(0, 4)), vec![1; 4]);
            ctx.barrier(BarrierId(0));
            ctx.barrier(BarrierId(0));
            assert_eq!(
                ctx.read(obj, ByteRange::new(8000, 4)),
                vec![2; 4],
                "barrier must not release before the eager push is applied"
            );
        });
    });
    report.assert_clean();
}

#[test]
fn migratory_three_node_chain_follows_probable_holders() {
    // The object hops 0 → 1 → 2 by faults; node 0's final fault must chase
    // the probable-holder chain to node 2.
    let sync = SyncDecls::round_robin(0, 2, 3, 3);
    let report = run_world(3, MuninConfig::default(), sync, |b| {
        let obj = b.declare(decl("hot", 8, SharingType::Migratory), NodeId(0));
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 0, vec![1; 8]);
            ctx.barrier(BarrierId(0));
            ctx.barrier(BarrierId(1));
            let v = ctx.read(obj, ByteRange::new(0, 8));
            assert_eq!(v, vec![3; 8], "value written by the last holder");
        });
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            ctx.write(obj, 0, vec![2; 8]);
            ctx.barrier(BarrierId(1));
        });
        b.spawn(NodeId(2), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            ctx.compute(50_000); // after node 1 took it
            ctx.write(obj, 0, vec![3; 8]);
            ctx.barrier(BarrierId(1));
        });
    });
    report.assert_clean();
}

#[test]
fn dynamic_alloc_creates_usable_objects() {
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let shared_id = Arc::new(AtomicI64::new(-1));
    let s2 = shared_id.clone();
    let report = run_world(2, MuninConfig::default(), sync, |b| {
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            let id = ctx.alloc(decl("dyn", 64, SharingType::WriteMany));
            ctx.write(id, 0, vec![9; 64]);
            s2.store(id.0 as i64, Ordering::SeqCst);
            ctx.barrier(BarrierId(0));
            ctx.barrier(BarrierId(0));
        });
        let shared_id = shared_id.clone();
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            let id = ObjectId(shared_id.load(Ordering::SeqCst) as u64);
            assert_eq!(ctx.read(id, ByteRange::new(60, 4)), vec![9; 4]);
            ctx.barrier(BarrierId(0));
        });
    });
    report.assert_clean();
}

#[test]
fn zero_length_accesses_are_harmless() {
    let report = run_world(1, MuninConfig::default(), SyncDecls::default(), |b| {
        let obj = b.declare(decl("x", 8, SharingType::WriteMany), NodeId(0));
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            assert_eq!(ctx.read(obj, ByteRange::new(0, 0)), Vec::<u8>::new());
            ctx.write(obj, 8, vec![]); // zero-length write at the end: ok
            assert_eq!(ctx.read(obj, ByteRange::new(8, 0)), Vec::<u8>::new());
        });
    });
    report.assert_clean();
}
