//! Real-time runtime benchmark: wall-clock speedup vs worker count.
//!
//! The virtual-time experiments measure *protocol* quantities (messages,
//! bytes, modelled stalls); this benchmark measures the one thing the
//! simulator cannot: how much faster the program actually finishes when the
//! real-time kernel runs its workers in parallel. Each study app is run on
//! `Backend::rt(MuninConfig)` at 1, 2 and 4 workers (one worker thread per node,
//! the paper's placement) and timed end to end; the headline figure is
//! `speedup4 = wall(1 worker) / wall(4 workers)`.
//!
//! Modelled compute executes as real timed waits (`ComputeMode::Sleep`,
//! the rt default), so the measurement isolates what the runtime controls —
//! overlap of compute across workers against the coherence traffic it
//! costs — and is stable whether the host has 1 core or 64. Results are
//! written to `BENCH_rt.json` at the workspace root (see
//! `scripts/bench.sh`), asserting the acceptance floor: speedup > 1 at 4
//! workers on at least two apps.

use munin_api::Backend;
use munin_apps::{life, matmul, tsp};
use munin_types::{IvyConfig, MuninConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Wall-seconds to run `build()`'s program on `backend`, verified, best of
/// `reps` (min filters scheduler noise; these are second-scale runs on a
/// shared host).
fn wall_s(reps: usize, mut run_once: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| run_once()).fold(f64::INFINITY, f64::min)
}

fn run_matmul(n: u32, workers: usize, backend: Backend) -> f64 {
    let cfg = matmul::MatmulCfg { n, nodes: workers, seed: 11 };
    let want = matmul::reference(&cfg);
    let (p, out) = matmul::build(&cfg);
    let started = Instant::now();
    p.run(backend).assert_clean();
    let wall = started.elapsed().as_secs_f64();
    matmul::check(&out, &want);
    wall
}

fn run_tsp(cities: u32, workers: usize, backend: Backend) -> f64 {
    let cfg = tsp::TspCfg { cities, nodes: workers, seed: 13 };
    let want = tsp::reference(&cfg);
    let (p, out) = tsp::build(&cfg);
    let started = Instant::now();
    p.run(backend).assert_clean();
    let wall = started.elapsed().as_secs_f64();
    tsp::check(&out, want);
    wall
}

fn run_life(side: u32, generations: u32, workers: usize, backend: Backend) -> f64 {
    let cfg = life::LifeCfg { width: side, height: side, generations, nodes: workers, seed: 17 };
    let want = life::reference(&cfg);
    let (p, out) = life::build(&cfg);
    let started = Instant::now();
    p.run(backend).assert_clean();
    let wall = started.elapsed().as_secs_f64();
    life::check(&out, &want);
    wall
}

struct AppRow {
    name: &'static str,
    wall_1: f64,
    wall_2: f64,
    wall_4: f64,
    ivy_rt_4: f64,
}

impl AppRow {
    fn speedup4(&self) -> f64 {
        self.wall_1 / self.wall_4
    }
}

fn main() {
    // `cargo bench -- --test` (and criterion-style smoke invocations) must
    // not run the full measurement; `cargo bench` proper has no such arg.
    if std::env::args().any(|a| a == "--test") {
        println!("runtime_rt: skipping measurement under --test");
        return;
    }
    const REPS: usize = 3;
    let apps: Vec<AppRow> = vec![
        AppRow {
            name: "matmul64",
            wall_1: wall_s(REPS, || run_matmul(64, 1, Backend::rt(MuninConfig::default()))),
            wall_2: wall_s(REPS, || run_matmul(64, 2, Backend::rt(MuninConfig::default()))),
            wall_4: wall_s(REPS, || run_matmul(64, 4, Backend::rt(MuninConfig::default()))),
            ivy_rt_4: wall_s(REPS, || run_matmul(64, 4, Backend::rt(IvyConfig::default()))),
        },
        AppRow {
            name: "life128x12",
            wall_1: wall_s(REPS, || run_life(128, 12, 1, Backend::rt(MuninConfig::default()))),
            wall_2: wall_s(REPS, || run_life(128, 12, 2, Backend::rt(MuninConfig::default()))),
            wall_4: wall_s(REPS, || run_life(128, 12, 4, Backend::rt(MuninConfig::default()))),
            ivy_rt_4: wall_s(REPS, || run_life(128, 12, 4, Backend::rt(IvyConfig::default()))),
        },
        AppRow {
            name: "tsp9",
            wall_1: wall_s(REPS, || run_tsp(9, 1, Backend::rt(MuninConfig::default()))),
            wall_2: wall_s(REPS, || run_tsp(9, 2, Backend::rt(MuninConfig::default()))),
            wall_4: wall_s(REPS, || run_tsp(9, 4, Backend::rt(MuninConfig::default()))),
            ivy_rt_4: wall_s(REPS, || run_tsp(9, 4, Backend::rt(IvyConfig::default()))),
        },
    ];

    let mut rows = String::new();
    for a in &apps {
        println!(
            "rt {:<10} 1w {:>7.1} ms | 2w {:>7.1} ms | 4w {:>7.1} ms | speedup4 {:>5.2}x | \
             ivy-rt 4w {:>7.1} ms",
            a.name,
            a.wall_1 * 1e3,
            a.wall_2 * 1e3,
            a.wall_4 * 1e3,
            a.speedup4(),
            a.ivy_rt_4 * 1e3,
        );
        let _ = writeln!(
            rows,
            "    {{\"app\": \"{}\", \"munin_rt_wall_s\": {{\"w1\": {:.6}, \"w2\": {:.6}, \
             \"w4\": {:.6}}}, \"speedup_4w_vs_1w\": {:.3}, \"ivy_rt_wall_s_w4\": {:.6}}},",
            a.name,
            a.wall_1,
            a.wall_2,
            a.wall_4,
            a.speedup4(),
            a.ivy_rt_4,
        );
    }
    let rows = rows.trim_end_matches(",\n").to_string();

    let winners = apps.iter().filter(|a| a.speedup4() > 1.0).count();
    assert!(
        winners >= 2,
        "acceptance: wall-clock speedup at 4 workers vs 1 must exceed 1x on at least two \
         apps (got {winners}: {:?})",
        apps.iter().map(|a| (a.name, a.speedup4())).collect::<Vec<_>>()
    );

    let json = format!(
        "{{\n  \"bench\": \"runtime_rt\",\n  \"backend\": \"MuninRt\",\n  \
         \"compute_mode\": \"sleep\",\n  \"reps_min_of\": {REPS},\n  \"apps\": [\n{rows}\n  ],\n  \
         \"apps_with_speedup_gt_1_at_4w\": {winners}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rt.json");
    std::fs::write(path, &json).expect("write BENCH_rt.json");
    println!("wrote {path}");
}
