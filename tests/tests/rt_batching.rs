//! The batched rt message pipeline must be an invisible optimization:
//! coalescing inbox drains and outbound fan-outs changes how many *channel*
//! operations the fabric performs, never which *protocol* messages flow or
//! what the program computes. Where the protocol traffic is deterministic
//! by construction, two runs of the same program must agree on the entire
//! `NetStats` block however the OS scheduled the batches; elsewhere results
//! stay exact under real contention.

use munin_api::{Backend, ComputeMode, Par, ParTyped, ProgramBuilder, RtTuning};
use munin_net::NetStats;
use munin_sim::RunReport;
use munin_types::{IvyConfig, MuninConfig, SharingType};
use std::time::Duration;

fn base_tuning() -> RtTuning {
    let mut t = RtTuning::default();
    t.compute = ComputeMode::Skip;
    t.stall_timeout = Duration::from_secs(5);
    t
}

/// Round-robin lock counter: in round `r` only thread `r % N` takes the
/// lock, with a barrier between rounds. The lock token therefore migrates
/// in one fixed order regardless of OS scheduling, which makes the protocol
/// traffic — not just the result — deterministic, so two runs must
/// produce byte-identical `NetStats`.
fn ordered_lock_counter(nodes: usize, rounds: usize, tuning: RtTuning) -> ProgramBuilder {
    let mut p = ProgramBuilder::new(nodes);
    p.rt_tuning(tuning);
    let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
    let l = p.lock(0);
    let bar = p.barrier(0, nodes as u32);
    for t in 0..nodes {
        p.thread(t, move |par: &mut dyn Par| {
            for r in 0..rounds {
                if r % par.n_threads() == par.self_id() {
                    par.lock(l);
                    let v = par.load(&ctr);
                    par.store(&ctr, v + 1);
                    par.unlock(l);
                }
                par.barrier(bar);
            }
            // One designated checker: a concurrent check from every thread
            // would re-race the lock, and the token migration order (hence
            // the message count) would stop being deterministic.
            if par.self_id() == 0 {
                par.lock(l);
                let total = par.load(&ctr);
                par.unlock(l);
                assert_eq!(total, rounds as i64, "lost update under ordered locking");
            }
        });
    }
    p
}

/// Contended lock counter (every thread hammers the lock concurrently).
/// Message counts here legitimately vary run to run — the token migration
/// order is whatever the OS race produced — so this asserts only that the
/// *result* is exact while real contention stresses the batch path.
fn contended_lock_counter(nodes: usize, iters: usize, tuning: RtTuning) -> ProgramBuilder {
    let mut p = ProgramBuilder::new(nodes);
    p.rt_tuning(tuning);
    let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
    let l = p.lock(0);
    let bar = p.barrier(0, nodes as u32);
    for t in 0..nodes {
        p.thread(t, move |par: &mut dyn Par| {
            for _ in 0..iters {
                par.lock(l);
                let v = par.load(&ctr);
                par.store(&ctr, v + 1);
                par.unlock(l);
            }
            par.barrier(bar);
            par.lock(l);
            let total = par.load(&ctr);
            par.unlock(l);
            assert_eq!(total, (iters * par.n_threads()) as i64, "lost update under contention");
        });
    }
    p
}

fn run_report(p: ProgramBuilder, backend: Backend) -> RunReport {
    let o = p.run(backend);
    o.assert_clean();
    o.report().clone()
}

fn assert_stats_identical(first: &NetStats, second: &NetStats, what: &str) {
    assert_eq!(first.messages, second.messages, "{what}: protocol message count differs");
    assert_eq!(first.bytes, second.bytes, "{what}: wire bytes differ");
    assert_eq!(first, second, "{what}: traffic breakdown differs");
}

#[test]
fn ordered_lock_counter_identical_stats_across_runs_munin_rt() {
    let run = || {
        run_report(ordered_lock_counter(4, 12, base_tuning()), Backend::rt(MuninConfig::default()))
    };
    let (first, second) = (run(), run());
    assert_stats_identical(&first.stats, &second.stats, "ordered lock counter (MuninRt)");
    assert_eq!(first.ops, second.ops, "op counts must match");
}

#[test]
fn ordered_lock_counter_identical_stats_across_runs_ivy_rt_central() {
    // Central-server locks keep Ivy's sync traffic deterministic too (the
    // spin path arms wall-clock backoff timers, whose counts are timing-
    // dependent by nature).
    let cfg = IvyConfig::default().with_central_locks();
    let run = || run_report(ordered_lock_counter(4, 12, base_tuning()), Backend::rt(cfg.clone()));
    let (first, second) = (run(), run());
    assert_stats_identical(&first.stats, &second.stats, "ordered lock counter (IvyRt)");
    assert_eq!(first.ops, second.ops, "op counts must match");
}

#[test]
fn contended_lock_counter_exact_result_on_every_rt_backend() {
    // Every in-process real-time backend in the matrix: a protocol added to
    // `Backend::matrix()` is covered here without an edit.
    let rt_backends: Vec<Backend> =
        Backend::matrix().into_iter().filter(|b| b.is_realtime() && !b.is_distributed()).collect();
    assert!(rt_backends.len() >= 3, "matrix must cover every protocol's rt backend");
    for backend in &rt_backends {
        contended_lock_counter(4, 25, base_tuning()).run(backend.clone()).assert_clean();
    }
}

/// Life is the flush-heavy study app: boundary rows are eager
/// producer-consumer objects, so every generation ends in a flush whose
/// updates fan out to every copyholder — exactly the traffic the outbound
/// coalescer batches. Its phases are barrier-separated, so its protocol
/// traffic is schedule-independent: every run must match the sequential
/// reference, and two runs must agree on every traffic counter.
#[test]
fn life_flush_fanout_identical_results_and_stats_across_runs() {
    use munin_apps::life;
    let cfg = life::LifeCfg { width: 48, height: 48, generations: 6, nodes: 4, seed: 17 };
    let want = life::reference(&cfg);
    let run = || {
        let (mut p, out) = life::build(&cfg);
        p.rt_tuning(base_tuning());
        let o = p.run(Backend::rt(MuninConfig::default()));
        o.assert_clean();
        life::check(&out, &want);
        o.report().clone()
    };
    let (first, second) = (run(), run());
    assert_stats_identical(&first.stats, &second.stats, "life flush fan-out");
    assert_eq!(first.ops, second.ops, "op counts must match");
}
