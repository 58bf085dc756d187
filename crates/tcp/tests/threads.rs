//! The thread model of the fabric (`munin_tcp::node`): protocol steps run on
//! data-stream readers, on node 0's application threads and on the timer
//! thread, under one mutex per node. These tests drive the three ways that
//! could go wrong, on every protocol the node binary links:
//!
//! * flow control — every node pushes multi-MiB frames at a peer at once;
//!   a reader that blocked in a socket write would stop reading and the run
//!   would stall;
//! * the registry RPC — the one blocking call made while a node's lock is
//!   held — while every other thread keeps a full window of pipelined ops
//!   aimed at that node;
//! * a panic inside a step, on the coordinator and on a child: a run error
//!   naming the node and a prompt teardown, not a hang.
//!
//! Skips with a notice when the sandbox has no loopback sockets or the
//! `munin-node` binary is missing.

use munin_core::MuninProto;
use munin_ivy::IvyProto;
use munin_proto::Protocol;
use munin_rt::{RtTuning, RtWorldBuilder};
use munin_sim::{DsmOp, RunReport};
use munin_tardis::TardisProto;
use munin_tcp::{run_proto, tcp_support, TestFault};
use munin_types::{
    BarrierDecl, BarrierId, ByteRange, NodeId, ObjectDecl, ObjectId, SharingType, SyncDecls,
    TokenState,
};
use std::time::{Duration, Instant};

fn skip() -> bool {
    if let Err(notice) = tcp_support() {
        eprintln!("skipping tcp thread-model test: {notice}");
        return true;
    }
    false
}

fn one_barrier(n_threads: u32) -> SyncDecls {
    SyncDecls {
        locks: Vec::new(),
        barriers: vec![BarrierDecl { id: BarrierId(0), home: NodeId(0), count: n_threads }],
        conds: Vec::new(),
    }
}

fn decl(name: &str, size: u32, sharing: SharingType, home: u16) -> (ObjectDecl, NodeId) {
    (ObjectDecl::new(ObjectId(0), name, size, sharing, NodeId(home)), NodeId(home))
}

const NODES: usize = 3;

/// Every node writes all of a `share`-byte write-many object homed on the
/// *next* node, then all meet at the barrier: three multi-MiB transfers
/// cross at once, each node sending one while it receives another.
/// Repeated, and the home checks what arrived.
fn flow_control<Pr: Protocol>(cfg: Pr::Config, share: u32) -> RunReport {
    const ROUNDS: u8 = 3;
    let mut b = RtWorldBuilder::<Pr::Msg>::new(NODES);
    let objs: Vec<ObjectId> = (0..NODES)
        .map(|i| {
            let (d, home) = decl("share", share, SharingType::WriteMany, ((i + 1) % NODES) as u16);
            b.declare(d, home)
        })
        .collect();
    for i in 0..NODES {
        let objs = objs.clone();
        b.spawn(NodeId(i as u16), move |ctx| {
            let written_by_prev = objs[(i + NODES - 1) % NODES];
            for round in 1..=ROUNDS {
                ctx.write(objs[i], 0, vec![round + i as u8; share as usize]);
                ctx.barrier(BarrierId(0));
                // This node is the home of its predecessor's share.
                let want = round + ((i + NODES - 1) % NODES) as u8;
                for at in [0, share / 2, share - 8] {
                    let got = ctx.read(written_by_prev, ByteRange::new(at, 8));
                    assert_eq!(got, vec![want; 8], "round {round}, home n{i}, offset {at}");
                }
                ctx.barrier(BarrierId(0));
            }
        });
    }
    run_proto::<Pr>(b, cfg, one_barrier(NODES as u32), None)
}

#[test]
fn crossing_multi_mib_flushes_finish_clean_on_every_protocol() {
    if skip() {
        return;
    }
    flow_control::<MuninProto>(Default::default(), 8 << 20).assert_clean();
    flow_control::<TardisProto>(Default::default(), 8 << 20).assert_clean();
    // Ivy moves a share page by page (1 KiB frames, thousands in flight),
    // and its server recurses once per page of a multi-page op: 8 MiB
    // overflows a 2 MiB thread stack, at the parent commit too. That is the
    // protocol's limit, not this fabric's, so Ivy gets a share that fits.
    flow_control::<IvyProto>(Default::default(), 2 << 20).assert_clean();
}

/// Node 1's thread allocates objects — each `alloc` is a registry write
/// with its ack-barrier, made by a step that holds node 1's lock — while
/// the threads of nodes 0 and 2 keep full windows of pipelined fetch-adds
/// in flight against a counter homed on node 1, so node 1's readers queue
/// on that lock the whole time. Nothing may be lost and the new objects
/// must work.
fn alloc_under_load<Pr: Protocol>(cfg: Pr::Config) -> RunReport {
    const ALLOCS: usize = 24;
    const ADDS: i64 = 400;
    let mut b = RtWorldBuilder::<Pr::Msg>::new(NODES);
    let (d, home) = decl("ctr", 8, SharingType::GeneralReadWrite, 1);
    let ctr = b.declare(d, home);
    for i in 0..NODES {
        b.spawn(NodeId(i as u16), move |ctx| {
            if i == 1 {
                for k in 0..ALLOCS {
                    let (d, _) = decl("dyn", 64, SharingType::WriteMany, 1);
                    let obj = ctx.alloc(d);
                    ctx.write(obj, 0, vec![k as u8; 64]);
                    assert_eq!(ctx.read(obj, ByteRange::new(0, 64)), vec![k as u8; 64]);
                }
            } else {
                // Never redeemed one by one: the window (16) stalls the
                // issue path, the barrier drains the rest.
                for _ in 0..ADDS {
                    let tok = ctx.op_async(DsmOp::AtomicFetchAdd { obj: ctr, offset: 0, delta: 1 });
                    assert!(matches!(tok, TokenState::Pending(_)));
                }
            }
            ctx.barrier(BarrierId(0));
            if i == 0 {
                assert_eq!(ctx.fetch_add(ctr, 0, 0), 2 * ADDS, "a pipelined add was lost");
            }
        });
    }
    run_proto::<Pr>(b, cfg, one_barrier(NODES as u32), None)
}

/// (Ivy declares every object before the run; it has no `alloc`.)
#[test]
fn registry_writes_proceed_under_full_async_windows() {
    if skip() {
        return;
    }
    alloc_under_load::<MuninProto>(Default::default()).assert_clean();
    alloc_under_load::<TardisProto>(Default::default()).assert_clean();
}

/// Two threads trade fetch-adds until `victim`'s next step panics (an
/// injected fault, raised inside the step while the node's lock is held).
/// The run must come back with an error naming the node, well inside the
/// stall timeout — found by the panic's report, not by the watchdog.
fn step_panic<Pr: Protocol>(cfg: Pr::Config, victim: u16) {
    let stall = Duration::from_secs(20);
    let mut tuning = RtTuning::default();
    tuning.stall_timeout = stall;
    let mut b = RtWorldBuilder::<Pr::Msg>::new(2).tuning(tuning);
    let ctrs: Vec<ObjectId> = (0..2)
        .map(|home| {
            let (d, home) = decl("ctr", 8, SharingType::GeneralReadWrite, home);
            b.declare(d, home)
        })
        .collect();
    for i in 0..2usize {
        let ctrs = ctrs.clone();
        b.spawn(NodeId(i as u16), move |ctx| loop {
            // Both nodes step all the time; the run only ends by the fault.
            ctx.fetch_add(ctrs[1 - i], 0, 1);
        });
    }
    let started = Instant::now();
    let fault = TestFault::StepPanic { node: NodeId(victim), after: Duration::from_millis(300) };
    let report = run_proto::<Pr>(b, cfg, one_barrier(2), Some(fault));
    let took = started.elapsed();
    let named = format!("node n{victim}: protocol step panicked");
    assert!(
        report.errors.iter().any(|e| e.contains(&named) && e.contains("injected step panic")),
        "{}: no error names the panicked step of n{victim}: {:#?}",
        Pr::NAME,
        report.errors
    );
    assert!(report.deadlocked, "{}: a panicked step must poison the run", Pr::NAME);
    assert!(took < stall / 2, "{}: teardown took {took:?}, the watchdog's way out", Pr::NAME);
}

#[test]
fn a_panicking_step_names_its_node_and_tears_the_run_down() {
    if skip() {
        return;
    }
    for victim in [0, 1] {
        step_panic::<MuninProto>(Default::default(), victim);
        step_panic::<IvyProto>(Default::default(), victim);
        step_panic::<TardisProto>(Default::default(), victim);
    }
}
