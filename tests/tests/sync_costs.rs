//! The sync-cost ledger: exact simulator counts for a barrier-episode
//! program and a lock-passage program under every lock and barrier
//! algorithm (Munin's proxy locks and home barrier, Ivy's DSM spin lock and
//! sense barrier, Ivy's central server, Tardis's timestamped home lock and
//! barrier), asserted byte for byte against `tests/golden/sync_costs.tsv`.
//!
//! A PR that means to move them regenerates the file with
//! `MUNIN_BLESS=1 cargo test -p xtests --test sync_costs`; a PR that must
//! not move them leaves the file untouched.
//!
//! The same four algorithms reject an undeclared lock, barrier or
//! condition variable alike: the op fails with
//! `DsmError::UndeclaredSync`, and the run stays clean.

use munin_api::{Backend, Par, ProgramBuilder};
use munin_net::MsgClass;
use munin_sim::{DsmOp, OpResult};
use munin_types::{
    BarrierId, CondId, DsmError, IvyConfig, LockId, MuninConfig, SyncStrategy, TardisConfig,
};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/sync_costs.tsv");
const NODES: [usize; 3] = [2, 4, 16];
/// Barrier episodes per thread in the barrier program.
const EPISODES: u64 = 4;
/// Critical sections per thread in the lock program.
const PASSAGES: u64 = 4;

/// Each row's label and backend: the four sync algorithms on the simulator.
fn sync_backends() -> [(&'static str, Backend); 4] {
    let mut central = IvyConfig::default();
    central.sync = SyncStrategy::CentralServer;
    let mut spin = IvyConfig::default();
    spin.sync = SyncStrategy::DsmSpin;
    [
        ("munin", Backend::sim(MuninConfig::default())),
        ("ivy-spin", Backend::sim(spin)),
        ("ivy-central", Backend::sim(central)),
        ("tardis", Backend::sim(TardisConfig::default())),
    ]
}

/// One thread per node; every thread passes `EPISODES` barrier episodes of
/// a barrier homed on node 0, arriving in a staggered order.
fn barrier_program(nodes: usize) -> ProgramBuilder {
    let mut p = ProgramBuilder::new(nodes);
    let bar = p.barrier(0, nodes as u32);
    for t in 0..nodes {
        p.thread(t, move |par: &mut dyn Par| {
            for _ in 0..EPISODES {
                par.compute(10 * (t as u64 + 1));
                par.barrier(bar);
            }
        });
    }
    p
}

/// One thread per node; every thread passes `PASSAGES` critical sections of
/// a lock homed on node 0, with compute inside and between them.
fn lock_program(nodes: usize) -> ProgramBuilder {
    let mut p = ProgramBuilder::new(nodes);
    let l = p.lock(0);
    for t in 0..nodes {
        p.thread(t, move |par: &mut dyn Par| {
            for _ in 0..PASSAGES {
                par.lock(l);
                par.compute(20);
                par.unlock(l);
                par.compute(50 + 5 * t as u64);
            }
        });
    }
    p
}

fn ledger() -> String {
    let mut out =
        String::from("program\tprotocol\tnodes\tmessages\tbytes\tsync_msgs\tfinished_at_us\n");
    let programs: [(&str, fn(usize) -> ProgramBuilder); 2] =
        [("barrier", barrier_program), ("lock", lock_program)];
    for (program, build) in programs {
        for (label, backend) in sync_backends() {
            for nodes in NODES {
                let outcome = build(nodes).run(backend.clone());
                outcome.assert_clean();
                let r = outcome.report();
                writeln!(
                    out,
                    "{program}\t{label}\t{nodes}\t{}\t{}\t{}\t{}",
                    r.stats.messages,
                    r.stats.bytes,
                    r.stats.class(MsgClass::Sync).count,
                    r.finished_at.as_micros()
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn sync_cost_ledger_matches_golden_file() {
    let got = ledger();
    if std::env::var_os("MUNIN_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden ledger");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("read golden ledger");
    if want != got {
        let diff: Vec<String> = want
            .lines()
            .zip(got.lines())
            .filter(|(w, g)| w != g)
            .map(|(w, g)| format!("  want {w}\n  got  {g}"))
            .collect();
        panic!(
            "sync costs moved ({} row(s) differ, {} vs {} rows); rerun with MUNIN_BLESS=1 if the \
             change is intended:\n{}",
            diff.len(),
            want.lines().count(),
            got.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn undeclared_sync_ids_fail_the_op_alike_on_every_protocol() {
    let ops = || {
        [
            DsmOp::Lock(LockId(7)),
            DsmOp::Unlock(LockId(7)),
            DsmOp::BarrierWait(BarrierId(9)),
            DsmOp::CondWait { cond: CondId(3), lock: LockId(0) },
            DsmOp::CondSignal { cond: CondId(3), broadcast: false },
        ]
    };
    let want: Vec<OpResult> = ["lk7", "lk7", "bar9", "cv3", "cv3"]
        .into_iter()
        .map(|name| OpResult::Err(DsmError::UndeclaredSync(name.into())))
        .collect();
    for (label, backend) in sync_backends() {
        // Lock 0 is declared, so the wait names only its condition wrongly.
        // Both nodes try: one is every object's home, the other is not.
        let mut p = ProgramBuilder::new(2);
        p.lock(0);
        let got: Arc<Mutex<Vec<Vec<OpResult>>>> = Arc::default();
        for node in 0..2 {
            let got = got.clone();
            p.thread(node, move |par: &mut dyn Par| {
                let results = ops().into_iter().map(|op| par.op(op)).collect();
                got.lock().unwrap().push(results);
            });
        }
        p.run(backend).assert_clean();
        let got = got.lock().unwrap();
        assert_eq!(got.len(), 2, "{label}");
        for results in got.iter() {
            assert_eq!(results, &want, "{label}");
        }
    }
}
