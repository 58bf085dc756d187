//! Regression tests for the rt kernel's stall watchdog: idle inbox polls
//! must never count as progress, and a timer in flight must never look
//! like a stall.

use munin_api::{Backend, ComputeMode, Par, ParTyped, ProgramBuilder, RtTuning};
use munin_types::{IvyConfig, MuninConfig, SharingType};
use std::time::{Duration, Instant};

/// Idle inbox polls must not mask stalls: a server's 50 ms `recv_timeout`
/// wake-ups are not activity, so a run whose servers sit idle forever (one
/// thread parked at a barrier nobody else will reach, no timers anywhere)
/// must be declared stalled by the watchdog — and within the stall window
/// plus slack, not eventually. If an idle poll ever counts as activity the
/// watchdog never fires and this test hangs until the CI-level timeout.
#[test]
fn watchdog_fires_while_servers_are_completely_idle() {
    let mut tuning = RtTuning::default();
    tuning.compute = ComputeMode::Skip;
    tuning.stall_timeout = Duration::from_millis(500);

    let mut p = ProgramBuilder::new(1);
    p.rt_tuning(tuning);
    let bar = p.barrier(0, 2); // two participants, only one thread: never satisfied
    p.thread(0, move |par: &mut dyn Par| {
        par.barrier(bar);
    });
    let started = Instant::now();
    let o = p.run(Backend::MuninRt(MuninConfig::default()));
    let elapsed = started.elapsed();
    let r = o.report();
    assert!(r.deadlocked, "watchdog never fired on an idle, stalled run");
    assert!(r.errors.iter().any(|e| e.contains("stall")), "stall not reported: {:?}", r.errors);
    assert!(
        elapsed >= Duration::from_millis(500),
        "stall declared before the window elapsed: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "idle polls delayed stall detection far beyond the window: {elapsed:?}"
    );
}

/// The same idle-stall detection must hold on the *batched* server loop
/// with a batch in flight beforehand: traffic first, then a wedge.
#[test]
fn watchdog_fires_after_real_traffic_goes_quiet() {
    let mut tuning = RtTuning::default();
    tuning.compute = ComputeMode::Skip;
    tuning.stall_timeout = Duration::from_millis(600);

    const NODES: usize = 2;
    let mut p = ProgramBuilder::new(NODES);
    p.rt_tuning(tuning);
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
    let o = p.run(Backend::MuninRt(MuninConfig::default()));
    let r = o.report();
    assert!(r.deadlocked, "watchdog missed the post-traffic stall");
    assert!(started.elapsed() < Duration::from_secs(30));
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
    let mut p = ProgramBuilder::new(NODES);
    p.rt_tuning(tuning);
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
    let o = p.run(Backend::IvyRt(cfg));
    let r = o.report();
    assert!(
        !r.deadlocked,
        "false stall: watchdog fired while timer-driven progress was pending: {:?}",
        r.errors
    );
    o.assert_clean();
}
