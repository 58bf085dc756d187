//! Regression tests for the stall watchdog every wall-clock fabric shares,
//! run on the in-process rt fabric and on TCP: idle polls must never count
//! as progress, a timer in flight must never look like a stall, and a
//! declared stall must capture each stuck node's state once. Plus the rt
//! backends' refusal of simulator-only transport settings, which they would
//! otherwise silently ignore.

use munin_api::{
    tcp_support, Backend, ComputeMode, Par, ParTyped, ProgramBuilder, Proto, RtTuning,
};
use munin_net::{LinkFault, LinkSchedule};
use munin_sim::{RunReport, TransportConfig};
use munin_types::{IvyConfig, MuninConfig, NodeId, SharingType};
use std::time::{Duration, Instant};

/// The wall-clock backends of `cfg`'s protocol: rt, plus TCP where the
/// sandbox has loopback sockets and the `munin-node` binary.
fn wall_clock(cfg: impl Into<Proto>) -> Vec<Backend> {
    let proto = cfg.into();
    let mut backends = vec![Backend::rt(proto.clone())];
    match tcp_support() {
        Ok(()) => backends.push(Backend::tcp(proto)),
        Err(notice) => eprintln!("skipping the tcp half: {notice}"),
    }
    backends
}

/// A stall captured the stuck state of exactly the nodes in `stuck`, one
/// `[stall dump nX]` entry each, in the report's dumps.
fn assert_stall_dumps(r: &RunReport, stuck: &[usize], backend: &str) {
    let dumped: Vec<&String> = r.dumps.iter().filter(|d| d.starts_with("[stall dump n")).collect();
    let expected: Vec<String> = stuck.iter().map(|n| format!("[stall dump n{n}] ")).collect();
    assert_eq!(dumped.len(), expected.len(), "{backend}: stall dumps {:#?}", r.dumps);
    for (dump, prefix) in dumped.iter().zip(&expected) {
        assert!(dump.starts_with(prefix), "{backend}: expected {prefix:?}, got {:#?}", r.dumps);
    }
}

/// Run a one-thread program on `MuninRt` with a transport `set` edits.
fn run_rt_with(set: impl FnOnce(&mut TransportConfig)) {
    let mut p = ProgramBuilder::new(2);
    let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 1);
    p.thread(0, move |par: &mut dyn Par| par.store(&ctr, 1));
    let mut transport = TransportConfig::default();
    set(&mut transport);
    p.run_with(Backend::rt(MuninConfig::default()), transport, None);
}

#[test]
#[should_panic(expected = "cannot simulate")]
fn rt_rejects_transport_jitter() {
    run_rt_with(|t| t.jitter_us = 50);
}

#[test]
#[should_panic(expected = "cannot simulate")]
fn rt_rejects_scheduled_link_faults() {
    run_rt_with(|t| {
        t.link_faults = LinkSchedule::new(vec![LinkFault::isolate(NodeId(1), 0, 1_000)])
    });
}

/// Idle polls must not mask stalls: a server's 50 ms `recv_timeout`
/// wake-ups (on TCP, a child's heartbeats) are not activity, so a run whose
/// servers sit idle forever (one thread parked at a barrier nobody else
/// will reach, no timers anywhere) must be declared stalled by the watchdog
/// — and within the stall window plus slack, not eventually. If an idle
/// poll ever counts as activity the watchdog never fires and this test
/// hangs until the CI-level timeout.
#[test]
fn watchdog_fires_while_servers_are_completely_idle() {
    let mut tuning = RtTuning::default();
    tuning.compute = ComputeMode::Skip;
    tuning.stall_timeout = Duration::from_millis(500);

    for backend in wall_clock(MuninConfig::default()) {
        let name = backend.name();
        let mut p = ProgramBuilder::new(1);
        p.rt_tuning(tuning.clone());
        let bar = p.barrier(0, 2); // two participants, only one thread: never satisfied
        p.thread(0, move |par: &mut dyn Par| {
            par.barrier(bar);
        });
        let started = Instant::now();
        let o = p.run(backend);
        let elapsed = started.elapsed();
        let r = o.report();
        assert!(r.deadlocked, "{name}: watchdog never fired on an idle, stalled run");
        assert!(
            r.errors.iter().any(|e| e.contains("stall")),
            "{name}: stall not reported: {:?}",
            r.errors
        );
        assert!(
            elapsed >= Duration::from_millis(500),
            "{name}: stall declared before the window elapsed: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_secs(30),
            "{name}: idle polls delayed stall detection far beyond the window: {elapsed:?}"
        );
        // The one node parks the one thread at its barrier.
        assert_stall_dumps(r, &[0], &name);
    }
}

/// The same idle-stall detection must hold on the *batched* server loop
/// with a batch in flight beforehand: traffic first, then a wedge.
#[test]
fn watchdog_fires_after_real_traffic_goes_quiet() {
    let mut tuning = RtTuning::default();
    tuning.compute = ComputeMode::Skip;
    tuning.stall_timeout = Duration::from_millis(600);

    const NODES: usize = 2;
    for backend in wall_clock(MuninConfig::default()) {
        let name = backend.name();
        let mut p = ProgramBuilder::new(NODES);
        p.rt_tuning(tuning.clone());
        let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
        let l = p.lock(0);
        let wedge = p.barrier(0, (NODES + 1) as u32); // one participant short
        for t in 0..NODES {
            p.thread(t, move |par: &mut dyn Par| {
                for _ in 0..10 {
                    par.lock(l);
                    let v = par.load(&ctr);
                    par.store(&ctr, v + 1);
                    par.unlock(l);
                }
                par.barrier(wedge); // everyone arrives; nobody ever releases
            });
        }
        let started = Instant::now();
        let o = p.run(backend);
        let r = o.report();
        assert!(r.deadlocked, "{name}: watchdog missed the post-traffic stall");
        assert!(started.elapsed() < Duration::from_secs(30), "{name}");
        // Every node parks its own thread at the barrier.
        assert_stall_dumps(r, &[0, 1], &name);
    }
}

/// Timer-in-flight watchdog race: the timer thread used to decrement
/// `timers_pending` *before* delivering the fired event, so a watchdog with
/// a tight stall window could observe "all threads blocked + no activity +
/// no pending timer" while the event that would unblock the run was still
/// in flight, and declare a false stall.
///
/// This run makes wall-clock backoff timers the *only* progress signal for
/// long stretches: Ivy spin-lock waiters park on armed timers between
/// polls, every thread is blocked (no modelled compute), and the stall
/// window is far below the backoff windows. A clean finish means every
/// fire was accounted as pending-until-delivered and counted as activity.
#[test]
fn tight_stall_window_sees_no_false_stall_from_in_flight_timers() {
    let mut tuning = RtTuning::default();
    tuning.compute = ComputeMode::Skip;
    tuning.stall_timeout = Duration::from_millis(400);

    // Long backoff windows (up to 64x the base) keep waiters parked on
    // nothing but a pending timer for multiples of the stall window.
    let mut cfg = IvyConfig::default();
    cfg.spin_backoff_us = 2_000;

    const NODES: usize = 3;
    const ITERS: usize = 30;
    for backend in wall_clock(cfg) {
        let name = backend.name();
        let mut p = ProgramBuilder::new(NODES);
        p.rt_tuning(tuning.clone());
        let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
        let l = p.lock(0);
        let bar = p.barrier(0, NODES as u32);
        for t in 0..NODES {
            p.thread(t, move |par: &mut dyn Par| {
                for _ in 0..ITERS {
                    par.lock(l);
                    let v = par.load(&ctr);
                    par.store(&ctr, v + 1);
                    par.unlock(l);
                }
                par.barrier(bar);
                if par.self_id() == 0 {
                    par.lock(l);
                    let total = par.load(&ctr);
                    par.unlock(l);
                    assert_eq!(total, (NODES * ITERS) as i64);
                }
            });
        }
        let o = p.run(backend);
        let r = o.report();
        assert!(
            !r.deadlocked,
            "{name}: false stall: watchdog fired while timer-driven progress was pending: {:?}",
            r.errors
        );
        o.assert_clean();
    }
}
