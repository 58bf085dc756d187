//! The telemetry overhead gate: `Telemetry::Counters` (the default,
//! always-on mode) must cost less than 5% ops/s against `Telemetry::Off`
//! on the op-bound fetch-add workload. CI runs this as a regression gate —
//! the moment someone puts an allocation, a syscall or a contended lock on
//! the recording path, this bench fails before the change lands.
//!
//! Methodology: the two modes alternate, best-of-[`TRIES`] each, so a
//! warm-up or scheduler hiccup on one side cannot manufacture (or mask) a
//! regression. Best-of compares the modes at their least-noisy, which is
//! exactly where a systematic per-op cost shows up.

use munin_api::{Backend, ComputeMode, ParTyped, ProgramBuilder, RtTuning, Telemetry};
use munin_types::{MuninConfig, SharingType};
use std::time::Instant;

/// Fetch-adds per worker per try: enough ops that per-op overhead
/// dominates world setup/teardown.
const OPS_PER_WORKER: usize = 4_000;
const WORKERS: usize = 2;
const TRIES: usize = 5;

/// One timed run: `WORKERS` threads hammer a node-0-homed counter with
/// blocking fetch-adds (every op crosses the kernel, so every op passes
/// through the telemetry branch). Returns ops/s.
fn one_run(telemetry: Telemetry) -> f64 {
    let mut p = ProgramBuilder::new(WORKERS);
    let mut t = RtTuning::default();
    t.compute = ComputeMode::Skip;
    t.telemetry = telemetry;
    p.rt_tuning(t);
    let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
    for i in 0..WORKERS {
        p.thread(i, move |par| {
            for _ in 0..OPS_PER_WORKER {
                par.fetch_add_scalar(&ctr, 1);
            }
        });
    }
    let started = Instant::now();
    p.run(Backend::rt(MuninConfig::default())).assert_clean();
    (WORKERS * OPS_PER_WORKER) as f64 / started.elapsed().as_secs_f64()
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        println!("obs_overhead: skipping measurement under --test");
        return;
    }
    // Interleave the modes so drift (thermal, noisy neighbours) hits both.
    let (mut best_off, mut best_on) = (0.0f64, 0.0f64);
    for _ in 0..TRIES {
        best_off = best_off.max(one_run(Telemetry::Off));
        best_on = best_on.max(one_run(Telemetry::Counters));
    }
    let overhead = 1.0 - best_on / best_off;
    println!(
        "obs_overhead: off {best_off:>9.0} ops/s | counters {best_on:>9.0} ops/s | \
         overhead {:.1}%",
        overhead * 100.0
    );
    assert!(
        best_on >= 0.95 * best_off,
        "telemetry=Counters costs {:.1}% ops/s over Off (gate: <5%): {best_on:.0} vs \
         {best_off:.0}",
        overhead * 100.0
    );
}
