//! End-to-end smoke of the socket fabric using the builder directly (the
//! full six-app matrix runs in `tests/tests/cross_backend.rs` through the
//! API harness). Skips with a notice when the sandbox has no loopback
//! sockets or the `munin-node` binary is missing.

use munin_core::{MuninMsg, MuninProto};
use munin_ivy::{IvyMsg, IvyProto};
use munin_rt::RtWorldBuilder;
use munin_tardis::{TardisMsg, TardisProto};
use munin_tcp::{run_proto, tcp_support};
use munin_types::{
    BarrierDecl, BarrierId, IvyConfig, LockDecl, LockId, MuninConfig, NodeId, ObjectDecl,
    SharingType, SyncDecls, TardisConfig,
};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

fn skip() -> bool {
    if let Err(notice) = tcp_support() {
        eprintln!("skipping tcp smoke test: {notice}");
        return true;
    }
    false
}

fn sync_decls(n_threads: u32) -> SyncDecls {
    SyncDecls {
        locks: vec![LockDecl { id: LockId(0), home: NodeId(0) }],
        barriers: vec![BarrierDecl { id: BarrierId(0), home: NodeId(0), count: n_threads }],
        conds: Vec::new(),
    }
}

/// Shared fetch-add counter across real processes: no lost updates, and the
/// final value reads back identically from node 0.
#[test]
fn munin_counter_across_processes() {
    if skip() {
        return;
    }
    for n_nodes in [2usize, 3] {
        let mut b = RtWorldBuilder::<MuninMsg>::new(n_nodes);
        let ctr = b.declare(
            ObjectDecl::new(
                munin_types::ObjectId(0),
                "ctr",
                8,
                SharingType::GeneralReadWrite,
                NodeId(0),
            ),
            NodeId(0),
        );
        let total = Arc::new(AtomicI64::new(-1));
        for i in 0..n_nodes {
            let total = total.clone();
            b.spawn(NodeId(i as u16), move |ctx| {
                for _ in 0..10 {
                    ctx.fetch_add(ctr, 0, 1);
                }
                ctx.barrier(BarrierId(0));
                if ctx.thread_id().index() == 0 {
                    let v = ctx.fetch_add(ctr, 0, 0);
                    total.store(v, Ordering::SeqCst);
                }
            });
        }
        let report =
            run_proto::<MuninProto>(b, MuninConfig::default(), sync_decls(n_nodes as u32), None);
        report.assert_clean();
        assert_eq!(total.load(Ordering::SeqCst), 10 * n_nodes as i64, "at {n_nodes} nodes");
        assert!(report.stats.messages > 0, "remote atomics must cross the wire");
    }
}

/// Same shape on the Ivy baseline (page protocol + DSM spin locks).
#[test]
fn ivy_lock_counter_across_processes() {
    if skip() {
        return;
    }
    let n_nodes = 2usize;
    let mut b = RtWorldBuilder::<IvyMsg>::new(n_nodes);
    let ctr = b.declare(
        ObjectDecl::new(
            munin_types::ObjectId(0),
            "ctr",
            8,
            SharingType::GeneralReadWrite,
            NodeId(0),
        ),
        NodeId(0),
    );
    let total = Arc::new(AtomicI64::new(-1));
    for i in 0..n_nodes {
        let total = total.clone();
        b.spawn(NodeId(i as u16), move |ctx| {
            for _ in 0..5 {
                ctx.lock(LockId(0));
                let v = i64::from_le_bytes(
                    ctx.read(ctr, munin_types::ByteRange::new(0, 8)).try_into().unwrap(),
                );
                ctx.write(ctr, 0, (v + 1).to_le_bytes().to_vec());
                ctx.unlock(LockId(0));
            }
            ctx.barrier(BarrierId(0));
            if ctx.thread_id().index() == 0 {
                ctx.lock(LockId(0));
                let v = i64::from_le_bytes(
                    ctx.read(ctr, munin_types::ByteRange::new(0, 8)).try_into().unwrap(),
                );
                total.store(v, Ordering::SeqCst);
                ctx.unlock(LockId(0));
            }
        });
    }
    let report = run_proto::<IvyProto>(b, IvyConfig::default(), sync_decls(n_nodes as u32), None);
    report.assert_clean();
    assert_eq!(total.load(Ordering::SeqCst), 5 * n_nodes as i64);
}

/// The third protocol over the same fabric: Tardis child processes are
/// built from the start frame's tag + opaque config, exercising the
/// registry dispatch path end to end.
#[test]
fn tardis_lock_counter_across_processes() {
    if skip() {
        return;
    }
    let n_nodes = 2usize;
    let mut b = RtWorldBuilder::<TardisMsg>::new(n_nodes);
    let ctr = b.declare(
        ObjectDecl::new(
            munin_types::ObjectId(0),
            "ctr",
            8,
            SharingType::GeneralReadWrite,
            NodeId(0),
        ),
        NodeId(0),
    );
    let total = Arc::new(AtomicI64::new(-1));
    for i in 0..n_nodes {
        let total = total.clone();
        b.spawn(NodeId(i as u16), move |ctx| {
            for _ in 0..5 {
                ctx.lock(LockId(0));
                let v = i64::from_le_bytes(
                    ctx.read(ctr, munin_types::ByteRange::new(0, 8)).try_into().unwrap(),
                );
                ctx.write(ctr, 0, (v + 1).to_le_bytes().to_vec());
                ctx.unlock(LockId(0));
            }
            ctx.barrier(BarrierId(0));
            if ctx.thread_id().index() == 0 {
                ctx.lock(LockId(0));
                let v = i64::from_le_bytes(
                    ctx.read(ctr, munin_types::ByteRange::new(0, 8)).try_into().unwrap(),
                );
                total.store(v, Ordering::SeqCst);
                ctx.unlock(LockId(0));
            }
        });
    }
    let report =
        run_proto::<TardisProto>(b, TardisConfig::default(), sync_decls(n_nodes as u32), None);
    report.assert_clean();
    assert_eq!(total.load(Ordering::SeqCst), 5 * n_nodes as i64);
}
