//! `apps_tcp` / `apps_sim`: what users actually run.
//!
//! The six study applications (matmul, gauss, fft, qsort, tsp, life), each on
//! the three protocols (Munin, Ivy, Tardis): 18 cells, one
//! `ProgramBuilder::run` each, every output checked against the
//! application's sequential `reference`. A *round* is the 18 cells once;
//! rounds repeat until `--seconds` have been measured. The unit of latency
//! is one cell (time to one verified solution).
//!
//! `apps_tcp` runs 2 nodes on the TCP fabric (locks, barriers, condvars,
//! migratory and producer-consumer objects and mostly local hits across all
//! three protocol servers; per-run set-up is deliberately inside the time).
//! `apps_sim` runs 4 nodes on the simulator: message, byte and virtual-time
//! totals are exact functions of the inputs, and host time is the
//! simulator's own speed.

use crate::harness::{self, Opts, RunOut};
use crate::host::Reference;
use crate::json::Json;
use crate::spans::{Recorder, ROOT};
use crate::stats::{self, Stat};
use munin_api::{ParTyped, ProgramBuilder};
use munin_apps::{fft, gauss, life, matmul, qsort, tsp, OutputCell};
use munin_types::{ObjectDecl, SharingType};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fabric {
    Sim,
    Tcp,
}

/// `(layer, simulator backend, TCP backend)` of each protocol server.
pub const PROTOCOLS: [(&str, &str, &str); 3] =
    [("core", "munin", "munin-tcp"), ("ivy", "ivy", "ivy-tcp"), ("tardis", "tardis", "tardis-tcp")];
pub const APPS: [&str; 6] = ["matmul", "gauss", "fft", "qsort", "tsp", "life"];
const SPAN_NAMES: [&str; 6] =
    ["apps.matmul", "apps.gauss", "apps.fft", "apps.qsort", "apps.tsp", "apps.life"];

pub const NODES_TCP: usize = 2;
pub const NODES_SIM: usize = 4;
pub const MATMUL_N: u32 = 160;
pub const GAUSS_N: u32 = 128;
pub const FFT_N: u32 = 1024;
pub const QSORT_N: u32 = 1024;
pub const QSORT_CUTOFF: u32 = 16;
pub const TSP_CITIES: u32 = 6;
pub const LIFE_SIDE: u32 = 192;
pub const LIFE_GENERATIONS: u32 = 24;
/// How much of a cell's time follows the host's speed at the reference load
/// (`host::Reference::to_nominal`; measured, see README.md). On TCP half of
/// a cell is the application's own arithmetic; the simulator hands every
/// operation from an application thread to the event loop and back, and
/// moves with the host like the reference load itself.
pub const HOST_SENSITIVITY_TCP: f64 = 0.5;
pub const HOST_SENSITIVITY_SIM: f64 = 1.0;
/// Lock hand-offs and barriers of the sync probe, per TCP backend.
pub const SYNC_PROBE_OPS: u64 = 1_000;

pub fn sizes() -> Json {
    let n = |x: u32| Json::Num(x as f64);
    Json::obj([
        ("nodes_tcp", n(NODES_TCP as u32)),
        ("nodes_sim", n(NODES_SIM as u32)),
        ("matmul_n", n(MATMUL_N)),
        ("gauss_n", n(GAUSS_N)),
        ("fft_n", n(FFT_N)),
        ("qsort_n", n(QSORT_N)),
        ("qsort_cutoff", n(QSORT_CUTOFF)),
        ("tsp_cities", n(TSP_CITIES)),
        ("life_side", n(LIFE_SIDE)),
        ("life_generations", n(LIFE_GENERATIONS)),
    ])
}

/// The six configurations of one run. The benchmark seed reaches the
/// programs only here, as the seed of each application's input generator.
#[derive(Debug, Clone)]
pub struct Cfgs {
    pub matmul: matmul::MatmulCfg,
    pub gauss: gauss::GaussCfg,
    pub fft: fft::FftCfg,
    pub qsort: qsort::QsortCfg,
    pub tsp: tsp::TspCfg,
    pub life: life::LifeCfg,
}

/// Input seed of application `index` under benchmark seed `seed`
/// (splitmix64, so neighbouring seeds give unrelated inputs).
pub fn input_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn cfgs(seed: u64, nodes: usize) -> Cfgs {
    Cfgs {
        matmul: matmul::MatmulCfg { n: MATMUL_N, nodes, seed: input_seed(seed, 0) },
        gauss: gauss::GaussCfg { n: GAUSS_N, nodes, seed: input_seed(seed, 1) },
        fft: fft::FftCfg { n: FFT_N, nodes, seed: input_seed(seed, 2) },
        qsort: qsort::QsortCfg {
            n: QSORT_N,
            nodes,
            seed: input_seed(seed, 3),
            cutoff: QSORT_CUTOFF,
        },
        tsp: tsp::TspCfg { cities: TSP_CITIES, nodes, seed: input_seed(seed, 4) },
        life: life::LifeCfg {
            width: LIFE_SIDE,
            height: LIFE_SIDE,
            generations: LIFE_GENERATIONS,
            nodes,
            seed: input_seed(seed, 5),
        },
    }
}

/// What one cell (one application on one backend, once) measured.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Index into [`APPS`] and [`PROTOCOLS`].
    app: usize,
    proto: usize,
    ok: bool,
    /// As measured.
    wall_s: f64,
    /// `wall_s` as on the nominal host (the run loop fills it in from the
    /// reference load measured before and after the cell).
    nominal_s: f64,
    rtt_ns: f64,
    ops: u64,
    msgs: u64,
    net_bytes: u64,
    virtual_ms: f64,
    /// CPU seconds of this process and the node processes the cell reaped.
    cpu_s: f64,
    start: Instant,
    end: Instant,
}

/// Run one application once on `(protocol index, that protocol's backend)`.
type RunCell = dyn Fn(usize, &str) -> Sample;

/// One application with its reference output, runnable on any backend.
struct App {
    index: usize,
    run: Box<RunCell>,
}

/// Bind an application's `build` / `reference` / `check` into an [`App`].
/// The reference is computed once, before anything is timed.
fn app<C: 'static, O: 'static, W: 'static>(
    index: usize,
    cfg: C,
    build: fn(&C) -> (ProgramBuilder, OutputCell<O>),
    reference: fn(&C) -> W,
    check: impl Fn(&OutputCell<O>, &W) + 'static,
) -> App {
    let want = reference(&cfg);
    let run = move |proto: usize, backend: &str| {
        let (mut p, output) = build(&cfg);
        p.rt_tuning(harness::tuning());
        let cpu0 = crate::host::cpu_seconds();
        let start = Instant::now();
        let outcome = p.run(harness::backend(backend));
        let end = Instant::now();
        let cpu_s = crate::host::cpu_seconds() - cpu0;
        let report = outcome.report();
        // `check` panics on a mismatch (and on a missing output).
        let verified = catch_unwind(AssertUnwindSafe(|| check(&output, &want))).is_ok();
        Sample {
            app: index,
            proto,
            ok: report.is_clean() && verified,
            wall_s: (end - start).as_secs_f64(),
            nominal_s: 0.0,
            rtt_ns: 0.0,
            ops: report.ops,
            msgs: report.stats.messages,
            net_bytes: report.stats.bytes,
            virtual_ms: report.finished_at.as_millis_f64(),
            cpu_s,
            start,
            end,
        }
    };
    App { index, run: Box::new(run) }
}

fn apps_of(c: Cfgs) -> Vec<App> {
    vec![
        app(0, c.matmul, matmul::build, matmul::reference, |o, w| matmul::check(o, w)),
        app(1, c.gauss, gauss::build, gauss::reference, |o, w| gauss::check(o, w)),
        app(2, c.fft, fft::build, fft::reference, fft::check),
        app(3, c.qsort, qsort::build, qsort::reference, |o, w| qsort::check(o, w)),
        app(4, c.tsp, tsp::build, tsp::reference, |o, w| tsp::check(o, *w)),
        app(5, c.life, life::build, life::reference, |o, w| life::check(o, w)),
    ]
}

pub fn run(fabric: Fabric, opts: &Opts) -> RunOut {
    let (nodes, workload, sensitivity) = match fabric {
        Fabric::Sim => (NODES_SIM, "apps_sim", HOST_SENSITIVITY_SIM),
        Fabric::Tcp => (NODES_TCP, "apps_tcp", HOST_SENSITIVITY_TCP),
    };
    let backend_of = |proto: usize| match fabric {
        Fabric::Sim => PROTOCOLS[proto].1,
        Fabric::Tcp => PROTOCOLS[proto].2,
    };
    let mut apps = apps_of(cfgs(opts.seed, nodes));
    let mut protos: Vec<usize> = (0..PROTOCOLS.len()).collect();
    if opts.quick {
        apps.retain(|a| [0, 2, 5].contains(&a.index));
        protos.truncate(1);
    }
    let backends: Vec<&str> = protos.iter().map(|&p| backend_of(p)).collect();
    let mut out = RunOut::default();
    // Outside the timed region the benchmark prepares the inputs and the
    // reference outputs; the worlds' own set-up is inside each cell's time,
    // so the program's share is what an empty program costs.
    harness::setup_metrics(
        &mut out,
        opts,
        &backends,
        || {
            std::hint::black_box(apps_of(cfgs(opts.seed, nodes)));
            let empty = || harness::empty_program(nodes, |_| {});
            backends.iter().for_each(|b| harness::run_clean(empty(), b));
        },
        nodes,
        |_| {},
    );

    // rounds[r][cell], cells in app-major order.
    let mut rounds: Vec<Vec<Sample>> = Vec::new();
    let mut rec = Recorder::new(Instant::now(), 0, 0, if opts.trace { 4096 } else { 0 });
    rec.tracing = opts.trace;
    // The reference load is measured between cells, when nothing else runs.
    let mut reference = Reference::new();
    let mut rtt_before = reference.rtt_ns();
    let began = Instant::now();
    loop {
        let id = rec.enter();
        let start = Instant::now();
        let mut round = Vec::new();
        for a in &apps {
            for &proto in &protos {
                let mut s = (a.run)(proto, backend_of(proto));
                let rtt_after = reference.rtt_ns();
                s.rtt_ns = (rtt_before + rtt_after) / 2.0;
                s.nominal_s = s.wall_s * Reference::to_nominal(s.rtt_ns, sensitivity);
                rtt_before = rtt_after;
                if opts.trace && rec.has_room(2) {
                    let cell = rec.enter();
                    rec.push(cell, id, SPAN_NAMES[a.index], s.start, s.end, s.ops, s.net_bytes);
                }
                round.push(s);
            }
        }
        rec.leave();
        if opts.trace && rec.has_room(1) {
            rec.push(id, ROOT, "round", start, Instant::now(), 1, 0);
        }
        rounds.push(round);
        if began.elapsed().as_secs_f64() >= opts.seconds || opts.quick {
            break;
        }
    }

    for (r, round) in rounds.iter().enumerate() {
        for (s, first) in round.iter().zip(&rounds[0]) {
            let cell = format!("{} on {}", APPS[s.app], backend_of(s.proto));
            out.check(s.ok, || format!("round {r}: {cell} was unclean or wrong"));
            // The simulator is deterministic: every round repeats the first.
            if fabric == Fabric::Sim {
                let same = (s.msgs, s.net_bytes, s.virtual_ms.to_bits(), s.ops)
                    == (first.msgs, first.net_bytes, first.virtual_ms.to_bits(), first.ops);
                out.check(same, || format!("{cell}: counts differ between rounds"));
            }
        }
    }

    // Median over rounds of a per-round total, restricted to some cells.
    let per_round = |keep: &dyn Fn(&Sample) -> bool, f: &dyn Fn(&Sample) -> f64| -> f64 {
        let totals: Vec<f64> =
            rounds.iter().map(|round| round.iter().filter(|s| keep(s)).map(f).sum()).collect();
        stats::median(&totals)
    };
    let all = |_: &Sample| true;

    // Every cell weighs the same: a metric is taken per cell, per DSM
    // operation, and then combined across the 18 cells. (Totals would let the
    // seed decide the mix: tsp's search and qsort's partitions, and with them
    // their operation counts, depend on the input.) Across rounds a cell's
    // time per operation, as on the nominal host, and its counts are medians.
    let cells = rounds[0].len();
    let over_rounds = |c: usize, f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        rounds.iter().map(|r| f(&r[c])).collect()
    };
    let per_op = |s: &Sample, x: f64| x / s.ops.max(1) as f64;
    // Time per operation as the application sees it (compute included).
    let us_per_op: Vec<f64> = (0..cells)
        .map(|c| stats::median(&over_rounds(c, &|s| per_op(s, s.nominal_s * 1e6))))
        .collect();
    // Geometric mean over cells of operations per second.
    let log_rates: Vec<f64> = us_per_op.iter().map(|us| (1e6 / us).ln()).collect();
    // Sorted: the typical cell, and the cell with the dearest operations.
    // Typical is the geometric mean of the middle half of the cells: the
    // median of 18 unlike cells sits on a knee between two groups (27 and
    // 43 us on `apps_tcp`) and jumps with the seed.
    let us_per_op = stats::sorted(us_per_op);
    let middle = &us_per_op[cells / 4..cells - cells / 4];
    let typical_us = stats::mean(&middle.iter().map(|us| us.ln()).collect::<Vec<_>>()).exp();

    if opts.trace {
        for (p, (layer, ..)) in PROTOCOLS.iter().enumerate() {
            let mine = move |s: &Sample| s.proto == p;
            let ops = per_round(&mine, &|s| s.ops as f64);
            let wall = per_round(&mine, &|s| s.wall_s);
            out.num(format!("{layer}.msgs"), per_round(&mine, &|s| s.msgs as f64));
            out.num(format!("{layer}.net_bytes"), per_round(&mine, &|s| s.net_bytes as f64));
            out.num(format!("{layer}.wall_s"), wall);
            if fabric == Fabric::Sim {
                out.num(format!("{layer}.virtual_ms"), per_round(&mine, &|s| s.virtual_ms));
                out.num(format!("{layer}.host_us_per_op"), wall * 1e6 / ops.max(1.0));
            }
        }
        for (a, name) in APPS.iter().enumerate() {
            let mine = move |s: &Sample| s.app == a;
            out.num(format!("apps.{name}.wall_s"), per_round(&mine, &|s| s.wall_s));
            out.num(format!("apps.{name}.msgs"), per_round(&mine, &|s| s.msgs as f64));
        }
        out.num("apps.wall_s", per_round(&all, &|s| s.wall_s));
        out.num("api.op_p99_us", stats::percentile(&us_per_op, 99.0));
        let ops = per_round(&all, &|s| s.ops as f64).max(1.0);
        out.num("net.bytes_per_op", per_round(&all, &|s| s.net_bytes as f64) / ops);
        out.num("host.cpu_us_per_op", per_round(&all, &|s| s.cpu_s * 1e6) / ops);
        // The host beside the numbers: how fast it was, and the rate as
        // measured on it.
        let rtts: Vec<f64> = rounds.iter().flatten().map(|s| s.rtt_ns / 1e3).collect();
        out.set("host.ref_rtt_us", Stat::of(&rtts));
        let raw: Vec<f64> = (0..cells)
            .map(|c| stats::median(&over_rounds(c, &|s| (s.ops.max(1) as f64 / s.wall_s).ln())))
            .collect();
        out.num("host.raw_ops_per_s", stats::mean(&raw).exp());
        match fabric {
            Fabric::Sim => {
                out.num("sim.host_s", per_round(&all, &|s| s.wall_s));
                out.num("sim.virtual_ms", per_round(&all, &|s| s.virtual_ms));
            }
            Fabric::Tcp => {
                for &p in &protos {
                    sync_probe(p, &mut rec, &mut out);
                }
            }
        }
        crate::write_trace(opts, workload, &rec.spans);
    } else {
        out.num("ops_per_s", stats::mean(&log_rates).exp());
        out.num("op_p50_us", typical_us);
        let msgs_per_op: Vec<f64> = (0..cells)
            .map(|c| stats::median(&over_rounds(c, &|s| per_op(s, s.msgs as f64))))
            .collect();
        out.num("msgs_per_op", stats::mean(&msgs_per_op));
        out.num("peak_rss_mib", crate::host::peak_rss_mib());
    }
    out
}

/// The sync probe: two workers alternate one lock guarding a `Migratory`
/// cell, then meet at two-party barriers, on one protocol's TCP backend.
/// Locks move tsp and qsort, barriers the other four applications.
fn sync_probe(proto: usize, rec: &mut Recorder, out: &mut RunOut) {
    let (layer, _, backend) = PROTOCOLS[proto];
    let mut p = harness::program(NODES_TCP);
    let lock = p.lock(0);
    let cell = p.scalar_decl::<i64>(
        ObjectDecl::template("guarded cell", SharingType::Migratory).with_lock(lock),
        0,
    );
    let bar = p.barrier(0, NODES_TCP as u32);
    let times = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    for id in 0..NODES_TCP {
        let times = times.clone();
        p.thread(id, move |par| {
            par.barrier(bar);
            let t0 = Instant::now();
            for _ in 0..SYNC_PROBE_OPS {
                par.lock(lock);
                let v = par.load(&cell);
                par.store(&cell, v + 1);
                par.unlock(lock);
            }
            par.barrier(bar);
            let t1 = Instant::now();
            for _ in 0..SYNC_PROBE_OPS {
                par.barrier(bar);
            }
            let t2 = Instant::now();
            par.lock(lock);
            let total = par.load(&cell);
            par.unlock(lock);
            times.lock().expect("probe thread panicked").push((id, t0, t1, t2, total));
        });
    }
    let outcome = p.run(harness::backend(backend));
    let times = times.lock().expect("probe thread panicked");
    let want = (NODES_TCP as u64 * SYNC_PROBE_OPS) as i64;
    out.check(
        outcome.report().is_clean()
            && times.len() == NODES_TCP
            && times.iter().all(|t| t.4 == want),
        || format!("sync probe on {backend}: unclean, or the guarded cell is not {want}"),
    );
    let Some(&(_, t0, t1, t2, _)) = times.iter().find(|t| t.0 == 0) else { return };
    // Both workers take the lock SYNC_PROBE_OPS times: 2x that many grants.
    let acquisitions = NODES_TCP as u64 * SYNC_PROBE_OPS;
    out.num(
        format!("{layer}.lock_handoff_us"),
        (t1 - t0).as_secs_f64() * 1e6 / acquisitions as f64,
    );
    out.num(format!("{layer}.barrier_us"), (t2 - t1).as_secs_f64() * 1e6 / SYNC_PROBE_OPS as f64);
    if rec.has_room(2) {
        let id = rec.enter();
        rec.push(id, ROOT, "probe.lock_handoff", t0, t1, acquisitions, 0);
        let id = rec.enter();
        rec.push(id, ROOT, "probe.barrier", t1, t2, SYNC_PROBE_OPS, 0);
        rec.leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (a, b, c) = (cfgs(7, 2), cfgs(7, 2), cfgs(8, 2));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(matmul::reference(&a.matmul), matmul::reference(&b.matmul));
        assert_eq!(qsort::reference(&a.qsort), qsort::reference(&b.qsort));
        assert_ne!(qsort::reference(&a.qsort), qsort::reference(&c.qsort));
        assert_ne!(a.tsp.seed, c.tsp.seed);
    }

    #[test]
    fn the_seed_reaches_the_programs_only_as_input_seeds() {
        // Sizes, node counts and everything else are the same for any seed.
        let strip = |c: &Cfgs| {
            (
                c.matmul.n,
                c.gauss.n,
                c.fft.n,
                c.qsort.n,
                c.qsort.cutoff,
                c.tsp.cities,
                c.life.width,
                c.life.height,
                c.life.generations,
                c.matmul.nodes,
                c.life.nodes,
            )
        };
        assert_eq!(strip(&cfgs(1, 4)), strip(&cfgs(999, 4)));
        // Six applications, six different input seeds, none the raw seed.
        let c = cfgs(1, 4);
        let seeds =
            [c.matmul.seed, c.gauss.seed, c.fft.seed, c.qsort.seed, c.tsp.seed, c.life.seed];
        for (i, s) in seeds.iter().enumerate() {
            assert_ne!(*s, 1);
            assert!(seeds[i + 1..].iter().all(|t| t != s));
        }
        assert_eq!(input_seed(1, 0), input_seed(1, 0));
        assert_ne!(input_seed(1, 0), input_seed(2, 0));
    }
}
