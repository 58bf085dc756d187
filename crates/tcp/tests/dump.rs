//! The on-demand state dump (ROADMAP: "SIGUSR1 → DumpStuck to every
//! node"): raising SIGUSR1 at the coordinator mid-run pulls
//! `debug_stuck_state` from **every** node process over the wire, prints it
//! to stderr and records it in the report's `dumps` section — without
//! poisoning the run.
//!
//! Exactly one test lives in this binary: the trigger is a real SIGUSR1
//! delivered through the installed handler (raised at ourselves from a
//! timer thread), and process signals are global state.

use munin_core::{MuninMsg, MuninProto};
use munin_tcp::{sig, tcp_support, TcpWorldBuilder};
use munin_types::{BarrierDecl, BarrierId, LockDecl, LockId, MuninConfig, NodeId, SyncDecls};
use std::time::Duration;

#[test]
fn sigusr1_dumps_every_nodes_stuck_state_without_poisoning() {
    if let Err(notice) = tcp_support() {
        eprintln!("skipping tcp dump test: {notice}");
        return;
    }
    let n_nodes = 2usize;
    // Raise SIGUSR1 at ourselves 400 ms in — while thread 0 holds the lock
    // inside a long compute and thread 1 is blocked waiting for it, so both
    // nodes have non-trivial lock state to dump. The handler goes in first:
    // the signal's default action would end the process.
    sig::install();
    let raiser = std::thread::spawn(|| {
        std::thread::sleep(Duration::from_millis(400));
        sig::raise_dump_signal();
    });
    let mut b = TcpWorldBuilder::<MuninMsg>::new(n_nodes);
    let lock = LockId(0);
    b.spawn(NodeId(0), move |ctx| {
        ctx.lock(lock);
        ctx.compute(1_500_000); // hold the lock across the dump point
        ctx.unlock(lock);
        ctx.barrier(BarrierId(0));
    });
    b.spawn(NodeId(1), move |ctx| {
        ctx.compute(100_000);
        ctx.lock(lock); // blocked at dump time: n1's proxy has requested the token
        ctx.unlock(lock);
        ctx.barrier(BarrierId(0));
    });
    let sync = SyncDecls {
        locks: vec![LockDecl { id: lock, home: NodeId(0) }],
        barriers: vec![BarrierDecl { id: BarrierId(0), home: NodeId(0), count: 2 }],
        conds: Vec::new(),
    };
    let report = b.run_proto::<MuninProto>(MuninConfig::default(), sync);
    raiser.join().expect("the signal thread only sleeps and raises");

    // The dump is diagnostic: the run itself must stay clean.
    report.assert_clean();
    // One stuck-state entry per node process, plus the live telemetry
    // snapshot (the default mode is Counters, so the metrics surface is on).
    let node_dumps: Vec<&String> =
        report.dumps.iter().filter(|d| d.starts_with("[dump n")).collect();
    assert_eq!(
        node_dumps.len(),
        n_nodes,
        "one dump entry per node process; got {:#?}",
        report.dumps
    );
    assert!(
        report.dumps.iter().any(|d| d.starts_with("[metrics]")),
        "SIGUSR1 should also render the live metrics snapshot: {:#?}",
        report.dumps
    );
    for (i, dump) in node_dumps.iter().enumerate() {
        assert!(dump.starts_with(&format!("[dump n{i}]")), "dump {i} must name its node: {dump:?}");
        assert!(
            dump.contains("lk0"),
            "node {i}'s debug_stuck_state should show the contended lock lk0: {dump:?}"
        );
    }
    // Node 0 is the lock home: its dump shows the holder and/or the queued
    // remote requester. Node 1's dump shows its proxy waiting on the token.
    assert!(
        report.dumps[0].contains("lock_home") || report.dumps[0].contains("proxy"),
        "n0 dump should include Munin lock state: {:?}",
        report.dumps[0]
    );
    assert!(
        report.dumps[1].contains("proxy"),
        "n1 dump should include its proxy lock state: {:?}",
        report.dumps[1]
    );
}
