//! The telemetry overhead gate: `Telemetry::Counters` (the default,
//! always-on mode) must cost less than 5% ops/s against `Telemetry::Off`
//! on the op-bound fetch-add workload. CI runs this as a regression gate —
//! the moment someone puts an allocation, a syscall or a contended lock on
//! the recording path, this bench fails before the change lands.
//!
//! Methodology, chosen so that the gate repeats on a small shared host:
//! * the process is confined to the one CPU it starts on, as the
//!   repository's benchmark does, so every run sees the same wake-up
//!   costs (on a 2-vCPU VM a cross-CPU wake costs tens of microseconds
//!   and the kernel's choice of CPU drifts within a run);
//! * one Off/Counters pair runs first as a warm-up and is discarded: the
//!   first runs after a fresh build pay for cold page-cache and allocator
//!   state that later runs do not;
//! * the two modes run as [`PAIRS`] back-to-back pairs, alternating which
//!   mode goes first, so drift hits both sides of a pair alike;
//! * the verdict is the median of the per-pair ratios, so a pair hit by a
//!   scheduler hiccup moves it by at most one rank.
//!
//! A systematic per-op cost on the recording path shifts every pair's
//! ratio, and so the median, by its full size.

use munin_api::{Backend, ComputeMode, ParTyped, ProgramBuilder, RtTuning, Telemetry};
use munin_types::{MuninConfig, SharingType};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Fetch-adds per worker per run: enough ops that per-op overhead
/// dominates world setup/teardown.
const OPS_PER_WORKER: usize = 4_000;
const WORKERS: usize = 2;
/// Off/Counters pairs per gate run.
const PAIRS: usize = 20;
/// The largest overhead the gate accepts, as a share of Off's ops/s.
const BOUND: f64 = 0.05;

/// One timed run: `WORKERS` threads hammer a node-0-homed counter with
/// blocking fetch-adds (every op crosses the kernel, so every op passes
/// through the telemetry branch). Returns ops/s from the first op issued
/// to the last one completed, so world setup and teardown, which the
/// telemetry mode does not touch, add no noise.
fn one_run(telemetry: Telemetry) -> f64 {
    let mut p = ProgramBuilder::new(WORKERS);
    let mut t = RtTuning::default();
    t.compute = ComputeMode::Skip;
    t.telemetry = telemetry;
    p.rt_tuning(t);
    let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
    let spans = Arc::new(Mutex::new(Vec::new()));
    for i in 0..WORKERS {
        let spans = spans.clone();
        p.thread(i, move |par| {
            let began = Instant::now();
            for _ in 0..OPS_PER_WORKER {
                par.fetch_add_scalar(&ctr, 1);
            }
            spans.lock().unwrap().push((began, Instant::now()));
        });
    }
    p.run(Backend::rt(MuninConfig::default())).assert_clean();
    let spans = spans.lock().unwrap();
    let first = spans.iter().map(|s| s.0).min().expect("every worker ran");
    let last = spans.iter().map(|s| s.1).max().expect("every worker ran");
    (WORKERS * OPS_PER_WORKER) as f64 / (last - first).as_secs_f64()
}

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_getcpu() -> i32;
}

/// Confine the calling thread, and every thread started from it
/// afterwards, to the CPU it is running on; returns that CPU.
fn confine_to_one_cpu() -> usize {
    // SAFETY: `sched_getcpu` takes no arguments; `sched_setaffinity` reads
    // `size` bytes from a live `cpu_set_t`-sized array, and pid 0 is the
    // calling thread.
    unsafe {
        let cpu = sched_getcpu().max(0) as usize;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        let rc = sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one);
        assert_eq!(rc, 0, "sched_setaffinity to cpu {cpu} failed");
        cpu
    }
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        println!("obs_overhead: skipping measurement under --test");
        return;
    }
    let cpu = confine_to_one_cpu();
    one_run(Telemetry::Off);
    one_run(Telemetry::Counters);
    // Counters/Off ops/s of each pair.
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|i| {
            let (off, on) = if i % 2 == 0 {
                let off = one_run(Telemetry::Off);
                (off, one_run(Telemetry::Counters))
            } else {
                let on = one_run(Telemetry::Counters);
                (one_run(Telemetry::Off), on)
            };
            on / off
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let quantile = |q: f64| ratios[((PAIRS - 1) as f64 * q).round() as usize];
    let overhead = |ratio: f64| (1.0 - ratio) * 100.0;
    let median = (ratios[PAIRS / 2 - 1] + ratios[PAIRS / 2]) / 2.0;
    println!(
        "obs_overhead: cpu {cpu}, {PAIRS} pairs | overhead median {:.1}% (pair quartiles \
         {:.1}% .. {:.1}%)",
        overhead(median),
        overhead(quantile(0.75)),
        overhead(quantile(0.25)),
    );
    assert!(
        median >= 1.0 - BOUND,
        "telemetry=Counters costs {:.1}% ops/s over Off in the median of {PAIRS} pairs \
         (gate: <{:.0}%)",
        overhead(median),
        BOUND * 100.0
    );
}
