//! End-to-end protocol tests: Munin servers running under the deterministic
//! simulation kernel, exercised by scripted application threads.

use munin_core::{MuninServer, SyncDecls};
use munin_sim::{DsmThread, NullTracer, RunReport, TransportConfig, World, WorldDesc};
use munin_types::{
    BarrierId, ByteRange, LockId, MuninConfig, NodeId, ObjectDecl, ObjectId, SharingType,
};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

/// Build and run an n-node Munin world.
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

// ====================================================================
// Write-once
// ====================================================================

#[test]
fn write_once_replicates_after_publication() {
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let report = run_world(2, MuninConfig::default(), sync, |b| {
        let obj = b.declare(decl("table", 64, SharingType::WriteOnce), NodeId(0));
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 0, vec![7; 64]);
            ctx.phase(1); // publish
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            let v = ctx.read(obj, ByteRange::new(0, 64));
            assert_eq!(v, vec![7; 64]);
            // Second read must be free (local copy, never invalidated).
            let v2 = ctx.read(obj, ByteRange::new(10, 4));
            assert_eq!(v2, vec![7; 4]);
        });
    });
    report.assert_clean();
    assert_eq!(report.stats.kind("ReadReq").count, 1, "{:?}", report.stats.by_kind);
    assert_eq!(report.stats.kind("ReadReply").count, 1);
}

#[test]
fn write_once_read_blocks_until_publication() {
    // Reader faults before the creator publishes; it must get the final
    // initialized bytes, not zeros.
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    let report = run_world(2, MuninConfig::default(), sync, |b| {
        let obj = b.declare(decl("table", 16, SharingType::WriteOnce), NodeId(0));
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            // Fault immediately at t=0, before initialization finishes.
            let v = ctx.read(obj, ByteRange::new(0, 16));
            seen2.lock().unwrap().extend(v);
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.compute(50_000); // slow initialization
            ctx.write(obj, 0, vec![9; 16]);
            ctx.phase(1);
            ctx.barrier(BarrierId(0));
        });
    });
    report.assert_clean();
    assert_eq!(*seen.lock().unwrap(), vec![9; 16]);
}

#[test]
fn write_once_write_after_publication_is_violation() {
    let sync = SyncDecls::round_robin(0, 0, 0, 1);
    let report = run_world(1, MuninConfig::default(), sync, |b| {
        let obj = b.declare(decl("table", 8, SharingType::WriteOnce), NodeId(0));
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 0, vec![1; 8]);
            ctx.phase(1);
            ctx.write(obj, 0, vec![2; 8]); // must panic (violation)
        });
    });
    assert!(!report.is_clean());
    assert!(report.errors[0].contains("write-once"), "{:?}", report.errors);
}

#[test]
fn large_write_once_pages_in_lazily() {
    let mut cfg = MuninConfig::default();
    cfg.write_once_page = 1024;
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let report = run_world(2, cfg, sync, |b| {
        let obj = b.declare(decl("big", 8192, SharingType::WriteOnce), NodeId(0));
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 0, vec![5; 8192]);
            ctx.phase(1);
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            // Touch only the first and last pages.
            assert_eq!(ctx.read(obj, ByteRange::new(0, 4)), vec![5; 4]);
            assert_eq!(ctx.read(obj, ByteRange::new(8000, 8)), vec![5; 8]);
        });
    });
    report.assert_clean();
    // Two page requests, not eight.
    assert_eq!(report.stats.kind("ReadReq").count, 2, "{:?}", report.stats.by_kind);
    let bytes = report.stats.kind("ReadReply").bytes;
    assert!(bytes <= 2 * 1024, "fetched {} bytes, expected <= 2 pages", bytes);
}

// ====================================================================
// Write-many + DUQ
// ====================================================================

#[test]
fn write_many_disjoint_writers_merge() {
    let sync = SyncDecls::round_robin(0, 1, 3, 3);
    let result = Arc::new(Mutex::new(Vec::new()));
    let r2 = result.clone();
    let report = run_world(3, MuninConfig::default(), sync, |b| {
        let obj = b.declare(decl("grid", 32, SharingType::WriteMany), NodeId(0));
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 0, vec![1; 16]);
            ctx.barrier(BarrierId(0));
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(2), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 16, vec![2; 16]);
            ctx.barrier(BarrierId(0));
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            let v = ctx.read(obj, ByteRange::new(0, 32));
            r2.lock().unwrap().extend(v);
            ctx.barrier(BarrierId(0));
        });
    });
    report.assert_clean();
    let mut want = vec![1u8; 16];
    want.extend(vec![2u8; 16]);
    assert_eq!(*result.lock().unwrap(), want, "disjoint writes both visible after barrier");
}

#[test]
fn duq_combines_many_writes_into_one_update() {
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let report = run_world(2, MuninConfig::default(), sync, |b| {
        let obj = b.declare(decl("obj", 1024, SharingType::WriteMany), NodeId(0));
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            // Fetch a copy first (write-allocate on first write).
            for i in 0..100u32 {
                ctx.write(obj, (i * 8) % 1024, vec![i as u8; 8]);
            }
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
        });
    });
    report.assert_clean();
    // 100 writes → exactly one FlushIn at the barrier.
    assert_eq!(report.stats.kind("FlushIn").count, 1, "{:?}", report.stats.by_kind);
}

#[test]
fn strict_ablation_sends_update_per_write() {
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let report = run_world(2, MuninConfig::default().strict(), sync, |b| {
        let obj = b.declare(decl("obj", 256, SharingType::WriteMany), NodeId(0));
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            for i in 0..10u32 {
                ctx.write(obj, i * 8, vec![1; 8]);
            }
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
        });
    });
    report.assert_clean();
    assert_eq!(
        report.stats.kind("FlushIn").count,
        10,
        "write-through: one coherence round per write"
    );
}

#[test]
fn unflushed_writes_survive_invalidation() {
    // Node 1 writes half the object; node 2's flush invalidates node 1's
    // copy (invalidate policy) while node 1 still has pending writes; node
    // 1's writes must still reach the home at its own sync.
    let mut cfg = MuninConfig::default();
    cfg.write_many_policy = munin_types::UpdatePolicy::Invalidate;
    let sync = SyncDecls::round_robin(1, 1, 3, 3);
    let result = Arc::new(Mutex::new(Vec::new()));
    let r2 = result.clone();
    let report = run_world(3, cfg, sync, |b| {
        let obj = b.declare(decl("grid", 8, SharingType::WriteMany), NodeId(0));
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 0, vec![1; 4]); // pending, not yet flushed
            ctx.compute(500_000); // hold the writes across node 2's flush
            ctx.barrier(BarrierId(0));
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(2), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 4, vec![2; 4]);
            ctx.flush(); // propagates early; invalidates node 1's copy
            ctx.barrier(BarrierId(0));
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            let v = ctx.read(obj, ByteRange::new(0, 8));
            r2.lock().unwrap().extend(v);
            ctx.barrier(BarrierId(0));
        });
    });
    report.assert_clean();
    assert_eq!(*result.lock().unwrap(), vec![1, 1, 1, 1, 2, 2, 2, 2]);
}

// ====================================================================
// Result objects
// ====================================================================

#[test]
fn result_objects_collect_without_replication() {
    let sync = SyncDecls::round_robin(0, 1, 3, 3);
    let collected = Arc::new(Mutex::new(Vec::new()));
    let c2 = collected.clone();
    let report = run_world(3, MuninConfig::default(), sync, |b| {
        let obj = b.declare(decl("result", 16, SharingType::Result), NodeId(0));
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 0, vec![1; 8]);
            // Re-reading our own bytes is local.
            assert_eq!(ctx.read(obj, ByteRange::new(0, 8)), vec![1; 8]);
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(2), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 8, vec![2; 8]);
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            let v = ctx.read(obj, ByteRange::new(0, 16));
            c2.lock().unwrap().extend(v);
        });
    });
    report.assert_clean();
    let mut want = vec![1u8; 8];
    want.extend(vec![2u8; 8]);
    assert_eq!(*collected.lock().unwrap(), want);
    // Writers never fetched copies: no ReadReply data traffic to them.
    assert_eq!(report.stats.kind("ReadReply").count, 0, "{:?}", report.stats.by_kind);
    // And the home never distributed updates (no copyset).
    assert_eq!(report.stats.kind("FlushOut").count, 0);
}

// ====================================================================
// Migratory + lock piggybacking
// ====================================================================

#[test]
fn migratory_rides_the_lock() {
    let n = 4usize;
    let sync = SyncDecls::round_robin(1, 1, n as u32, n);
    let total = Arc::new(AtomicI64::new(0));
    let report = {
        let mut b = WorldDesc::new(n);
        let obj =
            b.declare(decl("counter", 8, SharingType::Migratory).with_lock(LockId(0)), NodeId(0));
        for i in 0..n {
            let total = total.clone();
            b.spawn(NodeId(i as u16), move |ctx: &mut dyn DsmThread| {
                for _ in 0..5 {
                    ctx.lock(LockId(0));
                    let v = ctx.read(obj, ByteRange::new(0, 8));
                    let cur = i64::from_le_bytes(v.try_into().unwrap());
                    ctx.write(obj, 0, (cur + 1).to_le_bytes().to_vec());
                    ctx.unlock(LockId(0));
                }
                ctx.barrier(BarrierId(0));
                if ctx.node() == NodeId(0) && total.load(Ordering::SeqCst) == 0 {
                    ctx.lock(LockId(0));
                    let v = ctx.read(obj, ByteRange::new(0, 8));
                    total.store(i64::from_le_bytes(v.try_into().unwrap()), Ordering::SeqCst);
                    ctx.unlock(LockId(0));
                }
            });
        }
        let cfg = MuninConfig::default();
        let servers: Vec<MuninServer> =
            (0..n).map(|i| MuninServer::new(NodeId(i as u16), cfg.clone(), sync.clone())).collect();
        World::new(b, servers, TransportConfig::default(), Box::new(NullTracer)).run()
    };
    report.assert_clean();
    assert_eq!(total.load(Ordering::SeqCst), (n * 5) as i64, "mutual exclusion held");
    // The object moved with the lock: no separate migration traffic.
    assert_eq!(report.stats.kind("MigrateReq").count, 0, "{:?}", report.stats.by_kind);
    assert_eq!(report.stats.kind("MigrateYield").count, 0);
}

#[test]
fn unassociated_migratory_faults_and_migrates() {
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let report = run_world(2, MuninConfig::default(), sync, |b| {
        let obj = b.declare(decl("mig", 16, SharingType::Migratory), NodeId(0));
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 0, vec![3; 16]);
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            assert_eq!(ctx.read(obj, ByteRange::new(0, 16)), vec![3; 16]);
            ctx.write(obj, 0, vec![4; 16]);
            // Second access after migration: local, no traffic.
            assert_eq!(ctx.read(obj, ByteRange::new(0, 4)), vec![4; 4]);
        });
    });
    report.assert_clean();
    assert_eq!(report.stats.kind("MigrateReq").count, 1, "{:?}", report.stats.by_kind);
    assert_eq!(report.stats.kind("MigrateData").count, 1);
}

// ====================================================================
// Producer-consumer
// ====================================================================

#[test]
fn producer_consumer_eager_push_prefeeds_consumers() {
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let report = run_world(2, MuninConfig::default(), sync, |b| {
        let obj = b.declare(
            decl("boundary", 64, SharingType::ProducerConsumer).with_eager(true),
            NodeId(0),
        );
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            // Generation 0: produce initial values; consumer joins.
            ctx.write(obj, 0, vec![1; 64]);
            ctx.barrier(BarrierId(0));
            ctx.barrier(BarrierId(0));
            // Generation 1.
            ctx.write(obj, 0, vec![2; 64]);
            ctx.barrier(BarrierId(0));
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            assert_eq!(ctx.read(obj, ByteRange::new(0, 64)), vec![1; 64]);
            ctx.barrier(BarrierId(0));
            ctx.barrier(BarrierId(0));
            // New generation's values must be present with NO read fault.
            assert_eq!(ctx.read(obj, ByteRange::new(0, 64)), vec![2; 64]);
            ctx.barrier(BarrierId(0));
        });
    });
    report.assert_clean();
    assert_eq!(
        report.stats.kind("ReadReq").count,
        1,
        "only the first generation faults: {:?}",
        report.stats.by_kind
    );
    assert!(report.stats.kind("EagerOut").count >= 1, "updates were pushed eagerly");
}

#[test]
fn producer_consumer_demand_ablation_refaults() {
    let mut cfg = MuninConfig::default();
    cfg.pc_policy = munin_types::UpdatePolicy::Invalidate;
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let report = run_world(2, cfg, sync, |b| {
        let obj = b.declare(decl("boundary", 64, SharingType::ProducerConsumer), NodeId(0));
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 0, vec![1; 64]);
            ctx.barrier(BarrierId(0));
            ctx.barrier(BarrierId(0));
            ctx.write(obj, 0, vec![2; 64]);
            ctx.barrier(BarrierId(0));
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            assert_eq!(ctx.read(obj, ByteRange::new(0, 64)), vec![1; 64]);
            ctx.barrier(BarrierId(0));
            ctx.barrier(BarrierId(0));
            assert_eq!(ctx.read(obj, ByteRange::new(0, 64)), vec![2; 64]);
            ctx.barrier(BarrierId(0));
        });
    });
    report.assert_clean();
    assert_eq!(
        report.stats.kind("ReadReq").count,
        2,
        "demand fetch: each generation re-faults: {:?}",
        report.stats.by_kind
    );
}

// ====================================================================
// General read-write (Berkeley ownership, strict)
// ====================================================================

#[test]
fn general_rw_ownership_transfers_and_invalidates() {
    let sync = SyncDecls::round_robin(1, 1, 2, 2);
    let seen = Arc::new(Mutex::new(vec![]));
    let s2 = seen.clone();
    let report = run_world(2, MuninConfig::default(), sync, |b| {
        let obj = b.declare(decl("grw", 8, SharingType::GeneralReadWrite), NodeId(0));
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.write(obj, 0, vec![1; 8]);
            ctx.barrier(BarrierId(0));
            // Node 1 then writes; our next read must see it (strict).
            ctx.barrier(BarrierId(0));
            let v = ctx.read(obj, ByteRange::new(0, 8));
            s2.lock().unwrap().extend(v);
        });
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            assert_eq!(ctx.read(obj, ByteRange::new(0, 8)), vec![1; 8]);
            ctx.write(obj, 0, vec![2; 8]);
            ctx.barrier(BarrierId(0));
        });
    });
    report.assert_clean();
    assert_eq!(*seen.lock().unwrap(), vec![2; 8], "strict coherence: latest write visible");
    assert!(report.stats.kind("WriteReq").count >= 1, "{:?}", report.stats.by_kind);
}

// ====================================================================
// Read-mostly
// ====================================================================

#[test]
fn read_mostly_remote_access_pays_per_read() {
    let mut cfg = MuninConfig::default();
    cfg.read_mostly = munin_types::ReadMostlyMode::RemoteAccess;
    let sync = SyncDecls::round_robin(0, 0, 0, 2);
    let report = run_world(2, cfg, sync, |b| {
        let obj = b.declare(decl("bound", 8, SharingType::ReadMostly), NodeId(0));
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            for _ in 0..5 {
                ctx.read(obj, ByteRange::new(0, 8));
            }
        });
    });
    report.assert_clean();
    assert_eq!(report.stats.kind("ReadReq").count, 5, "every read is a remote load");
}

#[test]
fn read_mostly_replicated_refresh_updates_copies() {
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let report = run_world(2, MuninConfig::default(), sync, |b| {
        let obj = b.declare(decl("bound", 8, SharingType::ReadMostly), NodeId(0));
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            for _ in 0..5 {
                ctx.read(obj, ByteRange::new(0, 8));
            }
            ctx.barrier(BarrierId(0));
            // After node 0's write, the refresh arrives; reads stay local.
            ctx.barrier(BarrierId(0));
            assert_eq!(ctx.read(obj, ByteRange::new(0, 8)), vec![9; 8]);
        });
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.barrier(BarrierId(0));
            ctx.write(obj, 0, vec![9; 8]); // write-through + refresh
            ctx.barrier(BarrierId(0));
        });
    });
    report.assert_clean();
    assert_eq!(report.stats.kind("ReadReq").count, 1, "one fault, then local reads");
    assert_eq!(report.stats.kind("FlushOut").count, 1, "one refresh to the one copy");
}

// ====================================================================
// Synchronization
// ====================================================================

#[test]
fn local_lock_reacquisition_is_free() {
    let sync = SyncDecls::round_robin(1, 0, 0, 2);
    let report = run_world(2, MuninConfig::default(), sync, |b| {
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            // Lock 0 is homed on node 0: the token never leaves.
            for _ in 0..100 {
                ctx.lock(LockId(0));
                ctx.unlock(LockId(0));
            }
        });
    });
    report.assert_clean();
    assert_eq!(report.stats.messages, 0, "local proxy: zero messages for 100 acquisitions");
}

#[test]
fn contended_lock_is_fair_and_exclusive() {
    let n = 4usize;
    let sync = SyncDecls::round_robin(1, 1, n as u32, n);
    let log = Arc::new(Mutex::new(Vec::new()));
    let report = {
        let mut b = WorldDesc::new(n);
        let obj =
            b.declare(decl("shared", 8, SharingType::Migratory).with_lock(LockId(0)), NodeId(0));
        for i in 0..n {
            let log = log.clone();
            b.spawn(NodeId(i as u16), move |ctx: &mut dyn DsmThread| {
                for _ in 0..3 {
                    ctx.lock(LockId(0));
                    let v = ctx.read(obj, ByteRange::new(0, 8));
                    let cur = i64::from_le_bytes(v.try_into().unwrap());
                    ctx.compute(100);
                    ctx.write(obj, 0, (cur + 1).to_le_bytes().to_vec());
                    log.lock().unwrap().push((ctx.thread_id().0, cur));
                    ctx.unlock(LockId(0));
                }
                ctx.barrier(BarrierId(0));
            });
        }
        let cfg = MuninConfig::default();
        let servers: Vec<MuninServer> =
            (0..n).map(|i| MuninServer::new(NodeId(i as u16), cfg.clone(), sync.clone())).collect();
        World::new(b, servers, TransportConfig::default(), Box::new(NullTracer)).run()
    };
    report.assert_clean();
    let log = log.lock().unwrap();
    // The counter values observed under the lock must be 0..12 in order:
    // perfect mutual exclusion.
    let values: Vec<i64> = log.iter().map(|(_, v)| *v).collect();
    assert_eq!(values, (0..12).collect::<Vec<i64>>());
}

#[test]
fn barrier_releases_all_threads_together() {
    let n = 3usize;
    let sync = SyncDecls::round_robin(0, 1, (n * 2) as u32, n);
    let order = Arc::new(Mutex::new(Vec::new()));
    let report = {
        let mut b = WorldDesc::new(n);
        for i in 0..n {
            for j in 0..2 {
                let order = order.clone();
                b.spawn(NodeId(i as u16), move |ctx: &mut dyn DsmThread| {
                    ctx.compute((i * 100 + j * 17) as u64);
                    order.lock().unwrap().push(('b', ctx.thread_id().0));
                    ctx.barrier(BarrierId(0));
                    order.lock().unwrap().push(('a', ctx.thread_id().0));
                });
            }
        }
        let cfg = MuninConfig::default();
        let servers: Vec<MuninServer> =
            (0..n).map(|i| MuninServer::new(NodeId(i as u16), cfg.clone(), sync.clone())).collect();
        World::new(b, servers, TransportConfig::default(), Box::new(NullTracer)).run()
    };
    report.assert_clean();
    let order = order.lock().unwrap();
    let first_after = order.iter().position(|(p, _)| *p == 'a').unwrap();
    assert!(
        order[..first_after].iter().all(|(p, _)| *p == 'b'),
        "no thread passed the barrier before all arrived: {order:?}"
    );
}

#[test]
fn condition_variable_handoff() {
    let sync = SyncDecls {
        locks: vec![munin_core::LockDecl { id: LockId(0), home: NodeId(0) }],
        barriers: vec![],
        conds: vec![munin_core::CondDecl { id: munin_types::CondId(0), home: NodeId(0) }],
    };
    let got = Arc::new(AtomicI64::new(0));
    let g2 = got.clone();
    let report = run_world(2, MuninConfig::default(), sync, |b| {
        let obj =
            b.declare(decl("slot", 8, SharingType::Migratory).with_lock(LockId(0)), NodeId(0));
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.lock(LockId(0));
            // Wait until the producer fills the slot.
            loop {
                let v = ctx.read(obj, ByteRange::new(0, 8));
                let cur = i64::from_le_bytes(v.try_into().unwrap());
                if cur != 0 {
                    g2.store(cur, Ordering::SeqCst);
                    break;
                }
                ctx.cond_wait(munin_types::CondId(0), LockId(0));
            }
            ctx.unlock(LockId(0));
        });
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            ctx.compute(10_000);
            ctx.lock(LockId(0));
            ctx.write(obj, 0, 42i64.to_le_bytes().to_vec());
            ctx.cond_signal(munin_types::CondId(0), false);
            ctx.unlock(LockId(0));
        });
    });
    report.assert_clean();
    assert_eq!(got.load(Ordering::SeqCst), 42);
}

#[test]
fn distributed_atomic_counter() {
    let n = 4usize;
    let sync = SyncDecls::round_robin(0, 1, n as u32, n);
    let finals = Arc::new(Mutex::new(Vec::new()));
    let report = {
        let mut b = WorldDesc::new(n);
        let obj = b.declare(decl("ctr", 8, SharingType::GeneralReadWrite), NodeId(0));
        for i in 0..n {
            let finals = finals.clone();
            b.spawn(NodeId(i as u16), move |ctx: &mut dyn DsmThread| {
                let mut mine = Vec::new();
                for _ in 0..10 {
                    mine.push(ctx.fetch_add(obj, 0, 1));
                }
                ctx.barrier(BarrierId(0));
                finals.lock().unwrap().extend(mine);
            });
        }
        let cfg = MuninConfig::default();
        let servers: Vec<MuninServer> =
            (0..n).map(|i| MuninServer::new(NodeId(i as u16), cfg.clone(), sync.clone())).collect();
        World::new(b, servers, TransportConfig::default(), Box::new(NullTracer)).run()
    };
    report.assert_clean();
    let mut vals = finals.lock().unwrap().clone();
    vals.sort_unstable();
    assert_eq!(vals, (0..40).collect::<Vec<i64>>(), "fetch-add is linearizable");
}

// ====================================================================
// Runtime type detection (§4 future work)
// ====================================================================

#[test]
fn detector_promotes_general_to_producer_consumer() {
    let mut cfg = MuninConfig::default();
    cfg.adaptive_typing = true;
    cfg.adapt_min_samples = 16;
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let report = run_world(3, cfg, sync, |b| {
        // Homed on node 0; producer on node 1, consumer on node 2: the home
        // observes a pure producer-consumer pattern.
        let obj = b.declare(decl("pc?", 32, SharingType::GeneralReadWrite), NodeId(0));
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            for g in 0..30u8 {
                ctx.write(obj, 0, vec![g; 32]);
                ctx.barrier(BarrierId(0));
                ctx.barrier(BarrierId(0));
            }
        });
        b.spawn(NodeId(2), move |ctx: &mut dyn DsmThread| {
            for g in 0..30u8 {
                ctx.barrier(BarrierId(0));
                assert_eq!(ctx.read(obj, ByteRange::new(0, 32)), vec![g; 32]);
                ctx.barrier(BarrierId(0));
            }
        });
    });
    report.assert_clean();
    // After promotion the consumer stops re-faulting: far fewer ReadReqs
    // than the 30 a pure write-invalidate pattern would need.
    let rr = report.stats.kind("ReadReq").count;
    assert!(rr < 25, "detector cut read faults: {rr} ReadReqs {:?}", report.stats.by_kind);
    assert!(report.stats.kind("FlushOut").count > 0, "updates flow as refreshes after promotion");
}

// ====================================================================
// Determinism of the full stack
// ====================================================================

#[test]
fn full_stack_runs_are_bit_identical() {
    let run = || {
        let sync = SyncDecls::round_robin(2, 1, 4, 4);
        let report = {
            let mut b = WorldDesc::new(4);
            let grid = b.declare(decl("grid", 256, SharingType::WriteMany), NodeId(0));
            let ctr =
                b.declare(decl("ctr", 8, SharingType::Migratory).with_lock(LockId(0)), NodeId(1));
            for i in 0..4 {
                b.spawn(NodeId(i as u16), move |ctx: &mut dyn DsmThread| {
                    for round in 0..3u32 {
                        ctx.write(grid, (i as u32) * 64, vec![round as u8; 64]);
                        ctx.lock(LockId(0));
                        let v = ctx.read(ctr, ByteRange::new(0, 8));
                        let cur = i64::from_le_bytes(v.try_into().unwrap());
                        ctx.write(ctr, 0, (cur + 1).to_le_bytes().to_vec());
                        ctx.unlock(LockId(0));
                        ctx.barrier(BarrierId(0));
                    }
                });
            }
            let cfg = MuninConfig::default();
            let servers: Vec<MuninServer> = (0..4)
                .map(|i| MuninServer::new(NodeId(i as u16), cfg.clone(), sync.clone()))
                .collect();
            World::new(b, servers, TransportConfig::default(), Box::new(NullTracer)).run()
        };
        report.assert_clean();
        (report.finished_at, report.stats.messages, report.stats.bytes, report.ops)
    };
    assert_eq!(run(), run());
}
