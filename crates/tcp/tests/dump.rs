//! The on-demand state dump, on both wall-clock fabrics: raising SIGUSR1
//! mid-run makes the run's watchdog pull `debug_stuck_state` from **every**
//! node (on TCP, from every node process over the wire), print it to stderr
//! and record it in the report's `dumps` section — without poisoning the
//! run.
//!
//! Exactly one test lives in this binary: the trigger is a real SIGUSR1
//! delivered through the installed handler (raised at ourselves from a
//! timer thread), and process signals are global state. It runs the same
//! program on the in-process fabric and then on TCP.

use munin_core::{MuninMsg, MuninProto};
use munin_proto::Protocol;
use munin_rt::{sig, RtWorldBuilder};
use munin_sim::RunReport;
use munin_tcp::{run_proto, tcp_support};
use munin_types::{BarrierDecl, BarrierId, LockDecl, LockId, MuninConfig, NodeId, SyncDecls};
use std::time::Duration;

const NODES: usize = 2;
const LOCK: LockId = LockId(0);

/// Thread 0 holds the lock inside a long compute while thread 1 is blocked
/// waiting for it, so both nodes have non-trivial lock state to dump.
fn lock_held_world() -> (RtWorldBuilder<MuninMsg>, SyncDecls) {
    let mut b = RtWorldBuilder::<MuninMsg>::new(NODES);
    b.spawn(NodeId(0), move |ctx| {
        ctx.lock(LOCK);
        ctx.compute(1_500_000); // hold the lock across the dump point
        ctx.unlock(LOCK);
        ctx.barrier(BarrierId(0));
    });
    b.spawn(NodeId(1), move |ctx| {
        ctx.compute(100_000);
        ctx.lock(LOCK); // blocked at dump time: n1's proxy has requested the token
        ctx.unlock(LOCK);
        ctx.barrier(BarrierId(0));
    });
    let sync = SyncDecls {
        locks: vec![LockDecl { id: LOCK, home: NodeId(0) }],
        barriers: vec![BarrierDecl { id: BarrierId(0), home: NodeId(0), count: 2 }],
        conds: Vec::new(),
    };
    (b, sync)
}

/// Run `run` with SIGUSR1 raised at this process 400 ms in, then check the
/// dump it left in the report.
fn dump_while_lock_is_held(fabric: &str, run: impl FnOnce() -> RunReport) {
    let raiser = std::thread::spawn(|| {
        std::thread::sleep(Duration::from_millis(400));
        sig::raise_dump_signal();
    });
    let report = run();
    raiser.join().expect("the signal thread only sleeps and raises");

    // The dump is diagnostic: the run itself must stay clean.
    report.assert_clean();
    // One stuck-state entry per node, plus the live telemetry snapshot (the
    // default mode is Counters, so the metrics surface is on).
    let node_dumps: Vec<&String> =
        report.dumps.iter().filter(|d| d.starts_with("[dump n")).collect();
    assert_eq!(
        node_dumps.len(),
        NODES,
        "{fabric}: one dump entry per node; got {:#?}",
        report.dumps
    );
    assert!(
        report.dumps.iter().any(|d| d.starts_with("[metrics]")),
        "{fabric}: SIGUSR1 should also render the live metrics snapshot: {:#?}",
        report.dumps
    );
    for (i, dump) in node_dumps.iter().enumerate() {
        assert!(dump.starts_with(&format!("[dump n{i}]")), "{fabric}: dump {i} must name its node");
        assert!(
            dump.contains("lk0"),
            "{fabric}: node {i}'s debug_stuck_state should show the contended lock lk0: {dump:?}"
        );
    }
    // Node 0 is the lock home: its dump shows the holder and/or the queued
    // remote requester. Node 1's dump shows its proxy waiting on the token.
    assert!(
        node_dumps[0].contains("lock_home") || node_dumps[0].contains("proxy"),
        "{fabric}: n0 dump should include Munin lock state: {:?}",
        node_dumps[0]
    );
    assert!(
        node_dumps[1].contains("proxy"),
        "{fabric}: n1 dump should include its proxy lock state: {:?}",
        node_dumps[1]
    );
}

#[test]
fn sigusr1_dumps_every_nodes_stuck_state_without_poisoning() {
    // The handler goes in first: the signal's default action would end the
    // process before the run installs it.
    sig::install();
    let cfg = MuninConfig::default();
    dump_while_lock_is_held("rt", || {
        let (b, sync) = lock_held_world();
        let servers =
            (0..NODES).map(|i| MuninProto::server(&cfg, NodeId(i as u16), NODES, &[], &sync));
        b.run(servers.collect())
    });
    if let Err(notice) = tcp_support() {
        eprintln!("skipping the tcp half of the dump test: {notice}");
        return;
    }
    dump_while_lock_is_held("tcp", || {
        let (b, sync) = lock_held_world();
        run_proto::<MuninProto>(b, cfg.clone(), sync, None)
    });
}
