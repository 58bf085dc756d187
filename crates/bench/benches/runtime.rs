//! Criterion benchmarks of the full runtime stack: simulation-kernel
//! throughput, the proxy-lock local path, flush rounds, and a small
//! end-to-end application per backend. These measure the *host* cost of
//! simulating the protocols (events per second), complementing the
//! virtual-time measurements in the `repro` experiments.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use munin_api::{Backend, Par, ParTyped, ProgramBuilder};
use munin_apps::matmul;
use munin_types::{IvyConfig, MuninConfig, SharingType};

/// Spin up a world whose single thread performs `ops` compute ops: measures
/// raw event-loop + rendezvous throughput.
fn bench_kernel(c: &mut Criterion) {
    c.bench_function("kernel rendezvous x1000", |b| {
        b.iter(|| {
            let mut p = ProgramBuilder::new(1);
            p.thread(0, |par: &mut dyn Par| {
                for _ in 0..1000 {
                    par.compute(1);
                }
            });
            black_box(p.run(Backend::sim(MuninConfig::default())).report().ops)
        })
    });
}

fn bench_local_paths(c: &mut Criterion) {
    c.bench_function("munin local lock/unlock x500", |b| {
        b.iter(|| {
            let mut p = ProgramBuilder::new(1);
            let l = p.lock(0);
            p.thread(0, move |par: &mut dyn Par| {
                for _ in 0..500 {
                    par.lock(l);
                    par.unlock(l);
                }
            });
            p.run(Backend::sim(MuninConfig::default())).assert_clean();
        })
    });
    c.bench_function("munin local read/write x500", |b| {
        b.iter(|| {
            let mut p = ProgramBuilder::new(1);
            let obj = p.array::<i64>("x", 512, SharingType::WriteMany, 0);
            p.thread(0, move |par: &mut dyn Par| {
                for i in 0..500u32 {
                    par.set(&obj, i % 512, i as i64);
                    let _ = par.get(&obj, i % 512);
                }
            });
            p.run(Backend::sim(MuninConfig::default())).assert_clean();
        })
    });
}

fn bench_flush_round(c: &mut Criterion) {
    c.bench_function("flush round: 64 dirty writes, 2 nodes", |b| {
        b.iter(|| {
            let mut p = ProgramBuilder::new(2);
            let obj = p.array::<i64>("x", 512, SharingType::WriteMany, 0);
            let bar = p.barrier(0, 2);
            p.thread(1, move |par: &mut dyn Par| {
                for i in 0..64u32 {
                    par.set(&obj, i * 8 % 512, (i + 1) as i64);
                }
                par.barrier(bar);
            });
            p.thread(0, move |par: &mut dyn Par| {
                par.barrier(bar);
            });
            p.run(Backend::sim(MuninConfig::default())).assert_clean();
        })
    });
}

fn bench_apps(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul16x3");
    g.sample_size(20);
    g.bench_function("munin", |b| {
        b.iter(|| {
            let cfg = matmul::MatmulCfg { n: 16, nodes: 3, seed: 1 };
            let (p, _out) = matmul::build(&cfg);
            p.run(Backend::sim(MuninConfig::default())).assert_clean();
        })
    });
    g.bench_function("ivy", |b| {
        b.iter(|| {
            let cfg = matmul::MatmulCfg { n: 16, nodes: 3, seed: 1 };
            let (p, _out) = matmul::build(&cfg);
            p.run(Backend::sim(IvyConfig::default())).assert_clean();
        })
    });
    g.bench_function("native", |b| {
        b.iter(|| {
            let cfg = matmul::MatmulCfg { n: 16, nodes: 3, seed: 1 };
            let (p, _out) = matmul::build(&cfg);
            p.run(Backend::Native).assert_clean();
        })
    });
    g.finish();
}

criterion_group!(benches, bench_kernel, bench_local_paths, bench_flush_round, bench_apps);
criterion_main!(benches);
