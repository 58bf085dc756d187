//! Real-concurrency stress tests for the synchronization objects on the
//! real-time backends.
//!
//! The simulator can only ever explore one interleaving per (program,
//! config, seed); here the OS scheduler explores a fresh one every run, so
//! these tests are the closest thing the repo has to a model-checker for
//! the lock/barrier/condvar protocols under true parallelism. Each test
//! asserts *semantics* (no lost updates, correct phase counts, no
//! deadlock) and a generous wall-clock budget — the rt watchdog plus the
//! CI-level timeout turn a wedged protocol into a fast, diagnosable
//! failure instead of a hung job.

use munin_api::{Backend, ComputeMode, Par, ParTyped, ProgramBuilder, RtTuning};
use munin_types::{IvyConfig, MuninConfig, SharingType};
use std::time::{Duration, Instant};

/// Tuning for stress runs: no modelled compute (pure protocol pressure)
/// and a stall timeout short enough that a deadlock fails the test quickly
/// but long enough to never trip on a merely slow scheduler.
fn stress_tuning() -> RtTuning {
    let mut t = RtTuning::default();
    t.compute = ComputeMode::Skip;
    t.stall_timeout = Duration::from_secs(5);
    t
}

const WALL_BUDGET: Duration = Duration::from_secs(120);

/// N threads hammer one shared counter under a single lock, in `phases`
/// barrier-separated rounds. Every increment is a read-modify-write, so a
/// single lost update changes the final count.
fn lock_counter_program(
    backend: Backend,
    nodes: usize,
    threads_per_node: usize,
    iters: usize,
    phases: usize,
) {
    let n_threads = nodes * threads_per_node;
    let mut p = ProgramBuilder::new(nodes);
    p.rt_tuning(stress_tuning());
    let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
    let l = p.lock(0);
    let bar = p.barrier(0, n_threads as u32);
    for t in 0..n_threads {
        p.thread(t % nodes, move |par: &mut dyn Par| {
            for phase in 0..phases {
                for _ in 0..iters {
                    par.lock(l);
                    let v = par.load(&ctr);
                    par.store(&ctr, v + 1);
                    par.unlock(l);
                }
                par.barrier(bar);
                // Everyone observes the full phase total before anyone may
                // start the next phase (reads are outside the lock: the
                // barrier is the synchronization that publishes them).
                par.lock(l);
                let seen = par.load(&ctr);
                par.unlock(l);
                let want = ((phase + 1) * iters * par.n_threads()) as i64;
                assert_eq!(seen, want, "lost update: phase {phase} shows {seen}, want {want}");
                par.barrier(bar);
            }
        });
    }
    let started = Instant::now();
    let name = backend.name();
    p.run(backend).assert_clean();
    assert!(
        started.elapsed() < WALL_BUDGET,
        "{name} lock stress exceeded wall budget: {:?}",
        started.elapsed()
    );
}

#[test]
fn munin_rt_lock_counter_no_lost_updates() {
    lock_counter_program(Backend::rt(MuninConfig::default()), 4, 2, 50, 4);
}

#[test]
fn ivy_rt_spin_lock_counter_no_lost_updates() {
    // The DSM-resident ticket lock under genuine contention: ticket draws
    // ride the page protocol while other nodes' waiters spin on cached
    // copies of now_serving.
    lock_counter_program(Backend::rt(IvyConfig::default()), 4, 2, 25, 2);
}

#[test]
fn ivy_rt_central_lock_counter_no_lost_updates() {
    lock_counter_program(Backend::rt(IvyConfig::default().with_central_locks()), 4, 2, 50, 2);
}

/// Atomic fetch-and-add from every thread concurrently: the old values
/// returned across all threads must be a permutation of 0..total — any
/// duplicate or gap means two RMWs raced.
#[test]
fn munin_rt_fetch_add_is_globally_atomic() {
    const NODES: usize = 4;
    const PER: usize = 2;
    const ITERS: usize = 200;
    let n_threads = NODES * PER;
    let mut p = ProgramBuilder::new(NODES);
    p.rt_tuning(stress_tuning());
    let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
    let tickets = p.array::<i64>("tickets", (n_threads * ITERS) as u32, SharingType::Result, 0);
    let bar = p.barrier(0, n_threads as u32);
    for t in 0..n_threads {
        p.thread(t % NODES, move |par: &mut dyn Par| {
            let base = (par.self_id() * ITERS) as u32;
            for i in 0..ITERS {
                let old = par.fetch_add_scalar(&ctr, 1);
                par.set(&tickets, base + i as u32, old);
            }
            par.barrier(bar);
            if par.self_id() == 0 {
                let mut seen = par.read_all(&tickets);
                seen.sort_unstable();
                let want: Vec<i64> = (0..(par.n_threads() * ITERS) as i64).collect();
                assert_eq!(seen, want, "fetch-add old values are not a permutation");
            }
        });
    }
    let started = Instant::now();
    p.run(Backend::rt(MuninConfig::default())).assert_clean();
    assert!(started.elapsed() < WALL_BUDGET);
}

/// A monitor-style bounded handoff on the rt backend: producers block on
/// `not_full`, consumers on `not_empty`, all through DSM condvars — the
/// pattern most sensitive to lost wakeups under real concurrency.
#[test]
fn munin_rt_condvar_handoff_loses_no_items() {
    const NODES: usize = 2;
    const ITEMS: i64 = 150;
    let mut p = ProgramBuilder::new(NODES);
    p.rt_tuning(stress_tuning());
    // Slot: -1 = empty, otherwise the item. Consumed sum accumulates.
    let slot = p.scalar::<i64>("slot", SharingType::GeneralReadWrite, 0);
    let sum = p.scalar::<i64>("sum", SharingType::GeneralReadWrite, 1);
    let m = p.lock(0);
    let not_full = p.cond(0);
    let not_empty = p.cond(1);
    p.thread(0, move |par: &mut dyn Par| {
        // Producer: slot starts zeroed, so mark it empty first.
        par.lock(m);
        par.store(&slot, -1);
        par.cond_signal(not_empty, true);
        par.unlock(m);
        for item in 1..=ITEMS {
            par.lock(m);
            while par.load(&slot) != -1 {
                par.cond_wait(not_full, m);
            }
            par.store(&slot, item);
            par.cond_signal(not_empty, true);
            par.unlock(m);
        }
    });
    p.thread(1, move |par: &mut dyn Par| {
        let mut got = 0i64;
        let mut expected_next = 1i64;
        while got < ITEMS {
            par.lock(m);
            loop {
                let v = par.load(&slot);
                if v > 0 {
                    break;
                }
                par.cond_wait(not_empty, m);
            }
            let item = par.load(&slot);
            assert_eq!(item, expected_next, "handoff out of order");
            expected_next += 1;
            got += 1;
            par.store(&slot, -1);
            let s = par.load(&sum);
            par.store(&sum, s + item);
            par.cond_signal(not_full, true);
            par.unlock(m);
        }
        let total = par.load(&sum);
        assert_eq!(total, ITEMS * (ITEMS + 1) / 2, "items lost in handoff");
    });
    let started = Instant::now();
    p.run(Backend::rt(MuninConfig::default())).assert_clean();
    assert!(started.elapsed() < WALL_BUDGET);
}

/// Barrier phases alternate writers on the rt backend: even phases thread 0
/// writes, odd phases thread N-1 writes; every thread checks it observes
/// the phase's writer. Catches barriers that release early or tear.
#[test]
fn munin_rt_barrier_phases_publish_writes() {
    const NODES: usize = 4;
    const PHASES: u32 = 40;
    let mut p = ProgramBuilder::new(NODES);
    p.rt_tuning(stress_tuning());
    let word = p.scalar::<i64>("word", SharingType::WriteMany, 0);
    let bar = p.barrier(0, NODES as u32);
    for t in 0..NODES {
        p.thread(t, move |par: &mut dyn Par| {
            for phase in 0..PHASES {
                let writer = if phase % 2 == 0 { 0 } else { par.n_threads() - 1 };
                if par.self_id() == writer {
                    par.store(&word, phase as i64 * 10 + writer as i64);
                }
                par.barrier(bar);
                let seen = par.load(&word);
                assert_eq!(
                    seen,
                    phase as i64 * 10 + writer as i64,
                    "thread {} saw stale value in phase {phase}",
                    par.self_id()
                );
                par.barrier(bar);
            }
        });
    }
    let started = Instant::now();
    p.run(Backend::rt(MuninConfig::default())).assert_clean();
    assert!(started.elapsed() < WALL_BUDGET);
}

/// The watchdog is the rt replacement for quiescence deadlock detection:
/// a genuine lock-order deadlock must be detected, reported (not hung),
/// and torn down within the stall window plus slack.
#[test]
fn rt_watchdog_detects_deadlock_and_tears_down() {
    let mut p = ProgramBuilder::new(2);
    let a = p.lock(0);
    let b = p.lock(1);
    let bar = p.barrier(0, 2);
    p.thread(0, move |par: &mut dyn Par| {
        par.lock(a);
        par.barrier(bar);
        par.lock(b); // held by thread 1, which waits for a: classic cycle
    });
    p.thread(1, move |par: &mut dyn Par| {
        par.lock(b);
        par.barrier(bar);
        par.lock(a);
    });
    let mut t = stress_tuning();
    t.stall_timeout = Duration::from_millis(800);
    p.rt_tuning(t);
    let started = Instant::now();
    let outcome = p.run(Backend::rt(MuninConfig::default()));
    let r = outcome.report();
    assert!(r.deadlocked, "watchdog missed a real deadlock");
    assert!(r.errors.iter().any(|e| e.contains("stall")), "stall not reported: {:?}", r.errors);
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "teardown too slow: {:?}",
        started.elapsed()
    );
    // The wall section is present even on failed runs.
    assert_eq!(r.wall.as_ref().map(|w| w.workers), Some(2));
}
