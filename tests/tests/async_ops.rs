//! Ordering edges of the pipelined (async) op path: tokens that outlive
//! the sync block they were issued in, read-your-writes through the
//! client-side write-combining buffer, interleaved pipelined adds from two
//! threads on one object, and implicit draining of unredeemed tokens at
//! sync points — across every in-process backend, with a TCP-fabric pass
//! when the environment supports it. One thread's window of fetch-adds
//! spread over several homes pins the op gate's ordering: the gate lets
//! adds to one remote home overlap, and results must still come back in
//! issue order. On TCP a node-0 thread's pipelined `Op` frame waits in the
//! link until the thread is about to park; two cases pin that it still
//! leaves, behind local hits and behind the thread's exit.
//!
//! (The companion failure-path test — pipelined ops against a killed TCP
//! peer — lives in `crates/tcp/tests/campaign_faults.rs` as the
//! `tcp-kill-pipelined` scenario, because only same-package tests force
//! the `munin-node` binary to build.)

use munin_api::{Backend, Par, ParTyped, ProgramBuilder};
use munin_types::{IvyConfig, MuninConfig, SharingType};
use std::sync::{Arc, Mutex};

/// Every in-process backend: the async API must behave identically whether
/// the backend pipelines for real (MuninRt/IvyRt) or completes each op
/// inline and hands back a ready token (simulators, native threads).
fn all_backends() -> Vec<Backend> {
    vec![
        Backend::sim(MuninConfig::default()),
        Backend::sim(IvyConfig::default()),
        Backend::Native,
        Backend::rt(MuninConfig::default()),
        Backend::rt(IvyConfig::default()),
    ]
}

/// A token issued before a barrier is redeemed after it. The barrier is a
/// release point, so it drains the op; the token must stay redeemable past
/// the sync block and still hand back the observed previous value.
#[test]
fn tokens_outlive_their_sync_block() {
    for backend in all_backends() {
        let name = backend.name();
        let mut p = ProgramBuilder::new(2);
        let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
        let bar = p.barrier(0, 2);
        let prevs: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
        for t in 0..2 {
            let prevs = prevs.clone();
            p.thread(t, move |par: &mut dyn Par| {
                let tok = par.fetch_add_scalar_async(&ctr, 1);
                par.barrier(bar);
                let prev = par.wait(tok);
                prevs.lock().unwrap().push(prev);
                par.barrier(bar);
                if par.self_id() == 0 {
                    assert_eq!(par.fetch_add_scalar(&ctr, 0), 2);
                }
            });
        }
        p.run(backend).assert_clean();
        let mut got = prevs.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1], "{name}: both adds must observe distinct slots");
    }
}

/// Read-your-writes through the combining buffer: two adjacent async
/// stores coalesce client-side, and a read of the same range must flush
/// the buffer first and observe both pending values.
#[test]
fn combined_writes_are_flushed_by_a_read_of_the_same_range() {
    let mut p = ProgramBuilder::new(1);
    let arr = p.array::<i64>("a", 4, SharingType::WriteMany, 0);
    p.thread(0, move |par: &mut dyn Par| {
        let t0 = par.set_async(&arr, 0, 7);
        let t1 = par.set_async(&arr, 1, 9);
        assert_eq!(par.get(&arr, 0), 7, "read must see the combined pending write");
        assert_eq!(par.get(&arr, 1), 9, "read must see the combined pending write");
        par.wait(t0);
        par.wait(t1);
        // Overlapping rewrite pre-sync: last write wins in program order.
        let t2 = par.set_async(&arr, 1, 11);
        assert_eq!(par.get(&arr, 1), 11);
        par.wait(t2);
    });
    p.run(Backend::rt(MuninConfig::default())).assert_clean();
}

/// Two threads keep a full window of pipelined fetch-adds in flight on one
/// counter. Per-thread FIFO means each thread's observed previous values
/// rise strictly in issue order, and atomicity means the union of both
/// threads' observations covers every slot exactly once.
#[test]
fn interleaved_pipelined_adds_from_two_threads_cover_every_slot() {
    const N: i64 = 32;
    for backend in [Backend::rt(MuninConfig::default()), Backend::rt(IvyConfig::default())] {
        let name = backend.name();
        let mut p = ProgramBuilder::new(2);
        let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
        let bar = p.barrier(0, 2);
        let prevs: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
        for t in 0..2 {
            let prevs = prevs.clone();
            p.thread(t, move |par: &mut dyn Par| {
                let toks: Vec<_> = (0..N).map(|_| par.fetch_add_scalar_async(&ctr, 1)).collect();
                let got = par.wait_all(toks);
                for w in got.windows(2) {
                    assert!(
                        w[1] > w[0],
                        "per-thread FIFO: observed prevs must rise in issue order, got {got:?}"
                    );
                }
                prevs.lock().unwrap().extend(got);
                par.barrier(bar);
                if par.self_id() == 0 {
                    assert_eq!(par.fetch_add_scalar(&ctr, 0), 2 * N);
                }
            });
        }
        p.run(backend).assert_clean();
        let mut all = prevs.lock().unwrap().clone();
        all.sort_unstable();
        assert_eq!(all, (0..2 * N).collect::<Vec<_>>(), "{name}: a slot was lost or duplicated");
    }
}

/// Tokens the program never redeems are still completed by the next sync
/// point (release consistency: a barrier drains every in-flight op), so
/// the adds land before any thread crosses the barrier.
#[test]
fn sync_points_drain_unredeemed_tokens() {
    for backend in all_backends() {
        let name = backend.name();
        let mut p = ProgramBuilder::new(2);
        let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
        let bar = p.barrier(0, 2);
        for t in 0..2 {
            let name = name.clone();
            p.thread(t, move |par: &mut dyn Par| {
                if par.self_id() == 1 {
                    for _ in 0..8 {
                        let _ = par.fetch_add_scalar_async(&ctr, 1);
                    }
                }
                par.barrier(bar);
                if par.self_id() == 0 {
                    assert_eq!(par.fetch_add_scalar(&ctr, 0), 8, "{name}");
                }
            });
        }
        p.run(backend).assert_clean();
    }
}

/// The interleaving test on the real multi-process fabric, when the
/// environment supports it: pipelined ops cross real sockets (one `Op`
/// frame each, a thread's queued frames leaving in one socket write when it
/// is about to wait) yet the same atomicity and FIFO guarantees hold.
#[test]
fn pipelined_adds_cover_every_slot_on_the_tcp_fabric() {
    if let Err(notice) = munin_api::tcp_support() {
        eprintln!("NOTICE: skipping TCP async-op test: {notice}");
        return;
    }
    const N: i64 = 32;
    let workers = 4usize;
    let mut p = ProgramBuilder::new(workers);
    let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
    let bar = p.barrier(0, workers as u32);
    let prevs: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    for t in 0..workers {
        let prevs = prevs.clone();
        p.thread(t, move |par: &mut dyn Par| {
            let toks: Vec<_> = (0..N).map(|_| par.fetch_add_scalar_async(&ctr, 1)).collect();
            let got = par.wait_all(toks);
            for w in got.windows(2) {
                assert!(w[1] > w[0], "per-thread FIFO violated: {got:?}");
            }
            prevs.lock().unwrap().extend(got);
            par.barrier(bar);
            if par.self_id() == 0 {
                assert_eq!(par.fetch_add_scalar(&ctr, 0), workers as i64 * N);
            }
        });
    }
    p.run(Backend::tcp(MuninConfig::default())).assert_clean();
    let mut all = prevs.lock().unwrap().clone();
    all.sort_unstable();
    assert_eq!(all, (0..workers as i64 * N).collect::<Vec<_>>());
}

/// One thread keeps a window of async fetch-adds cycling, in runs of
/// `RUN`, over counters homed on node 1, node 2 and its own node 0, with a
/// blocking read in the middle. Munin's gate overlaps each run of adds to
/// one remote home; every other op waits for the in-flight ones to drain. Whatever the backend
/// does, each counter must hand out consecutive old values in issue order,
/// and the tokens, redeemed in issue order, must carry exactly those.
fn mixed_home_window(backend: Backend) {
    const ADDS: usize = 192;
    const HOMES: [usize; 3] = [1, 2, 0];
    const RUN: usize = 4;
    let home_of = |i: usize| i / RUN % HOMES.len();
    let name = backend.name();
    let mut p = ProgramBuilder::new(3);
    let ctrs: Vec<_> = HOMES
        .iter()
        .map(|&h| p.scalar::<i64>(&format!("ctr{h}"), SharingType::GeneralReadWrite, h))
        .collect();
    let probe = p.scalar::<i64>("probe", SharingType::GeneralReadWrite, 2);
    let got: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let out = got.clone();
    p.thread(0, move |par: &mut dyn Par| {
        par.store(&probe, 7);
        let mut toks = Vec::with_capacity(ADDS);
        for i in 0..ADDS {
            toks.push(par.fetch_add_scalar_async(&ctrs[home_of(i)], 1));
            if i == ADDS / 2 {
                assert_eq!(par.load(&probe), 7, "the blocking read mid-window");
            }
        }
        *out.lock().unwrap() = par.wait_all(toks);
        for c in &ctrs {
            assert_eq!(par.fetch_add_scalar(c, 0), (ADDS / HOMES.len()) as i64);
        }
    });
    p.run(backend).assert_clean();
    let got = got.lock().unwrap().clone();
    let mut next = [0i64; HOMES.len()];
    for (i, old) in got.iter().enumerate() {
        let c = home_of(i);
        assert_eq!(*old, next[c], "{name}: add {i} (counter on n{}) in {got:?}", HOMES[c]);
        next[c] += 1;
    }
}

#[test]
fn a_window_over_three_homes_completes_in_issue_order() {
    for backend in Backend::matrix().into_iter().filter(|b| !b.is_distributed()) {
        mixed_home_window(backend);
    }
}

#[test]
fn a_window_over_three_homes_completes_in_issue_order_on_the_tcp_fabric() {
    if let Err(notice) = munin_api::tcp_support() {
        eprintln!("NOTICE: skipping TCP mixed-home window test: {notice}");
        return;
    }
    for backend in Backend::matrix().into_iter().filter(|b| b.is_distributed()) {
        mixed_home_window(backend);
    }
}

/// The TCP fabric sends a node-0 thread's pipelined op when the thread is
/// about to park, not when the op's inline step ends; these pin that the
/// deferred frame still leaves. Every distributed backend runs both cases.
fn tcp_backends(what: &str) -> Vec<Backend> {
    if let Err(notice) = munin_api::tcp_support() {
        eprintln!("NOTICE: skipping TCP {what} test: {notice}");
        return Vec::new();
    }
    Backend::matrix().into_iter().filter(|b| b.is_distributed()).collect()
}

/// A node-0 thread sends an async fetch-add to node 1's counter, then does
/// only local hits, blocking ops that never wait on the wire, before it
/// redeems the token: the deferred `Op` frame must still reach node 1
/// (a frame left behind stalls the run, which the watchdog fails), and the
/// token must carry the counter's old value.
#[test]
fn a_deferred_op_frame_leaves_behind_local_hits_on_the_tcp_fabric() {
    const HITS: i64 = 64;
    for backend in tcp_backends("deferred-frame") {
        let mut p = ProgramBuilder::new(2);
        let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 1);
        let local = p.scalar::<i64>("local", SharingType::GeneralReadWrite, 0);
        p.thread(0, move |par: &mut dyn Par| {
            par.store(&local, 5);
            let tok = par.fetch_add_scalar_async(&ctr, 3);
            let sum: i64 = (0..HITS).map(|_| par.load(&local)).sum();
            assert_eq!(sum, 5 * HITS);
            assert_eq!(par.wait(tok), 0, "the add's old value");
            assert_eq!(par.fetch_add_scalar(&ctr, 0), 3);
        });
        p.run(backend).assert_clean();
    }
}

/// A node-0 thread whose last act is an async fetch-add: its implicit
/// `Exit` carries the deferred frame out. `Exit` is a blocking op, so it
/// completes only once node 1 has answered the add; no other thread runs
/// whose frames could carry it instead.
#[test]
fn a_thread_that_exits_behind_an_async_op_sends_it_on_the_tcp_fabric() {
    for backend in tcp_backends("exit-behind-async") {
        let mut p = ProgramBuilder::new(2);
        let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 1);
        p.thread(0, move |par: &mut dyn Par| {
            let _ = par.fetch_add_scalar_async(&ctr, 1);
        });
        p.run(backend).assert_clean();
    }
}
