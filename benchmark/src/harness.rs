//! What the four micro-workloads share: the closed segment loop each worker
//! runs, the set-up measurement, and the arithmetic that turns per-worker
//! segment records into the end-to-end and tracing metrics.
//!
//! Load shape: closed loop, 2 nodes, one application thread per node, both
//! generated from this (the coordinator) process. A workload builds *one*
//! world, warms up, then runs segments of fixed work separated by barriers
//! until `--seconds` have been measured. Between two segments, while every
//! application thread is parked at a barrier, worker 0 measures the
//! reference load ([`Reference`]); a segment's rate is reported as it would
//! have been on the nominal host, and a run's rate is the median over its
//! segments.
//! Timing starts after the first barrier, so process spawn, mesh handshake
//! and teardown are in no rate. They are `setup_s`.

use crate::host::Reference;
use crate::spans::{Recorder, Span, ROOT};
use crate::stats::{self, Stat};
use munin_api::{Backend, ComputeMode, Outcome, Par, ProgramBuilder, RtTuning};
use munin_types::BarrierId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const NODES: usize = 2;
/// Traced segments per run whose spans are kept (odd segments of a traced
/// run, until this many are full); later segments run untraced.
pub const MAX_TRACED_SEGMENTS: usize = 4;

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One segment per micro-workload, three apps on one protocol.
    pub quick: bool,
    pub out_dir: std::path::PathBuf,
}

/// What one run of one workload reports.
#[derive(Debug, Default)]
pub struct RunOut {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, Stat)>,
    /// Why operations failed, for the operator (never parsed).
    pub notes: Vec<String>,
}

impl RunOut {
    pub fn set(&mut self, name: impl Into<String>, stat: Stat) {
        self.metrics.push((name.into(), stat));
    }

    pub fn num(&mut self, name: impl Into<String>, value: f64) {
        self.set(name, Stat::single(value));
    }

    /// Count one checked expectation; a miss is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// Resolve a backend by its CLI name only, so a change to how `Backend` is
/// represented cannot break the benchmark.
pub fn backend(name: &str) -> Backend {
    Backend::parse(name).unwrap_or_else(|| panic!("the program knows no backend `{name}`"))
}

/// The shipped defaults, with the one setting the benchmark makes: modelled
/// compute is dropped (real arithmetic is kept).
pub fn tuning() -> RtTuning {
    RtTuning { compute: ComputeMode::Skip, ..RtTuning::default() }
}

pub fn program(nodes: usize) -> ProgramBuilder {
    let mut p = ProgramBuilder::new(nodes);
    p.rt_tuning(tuning());
    p
}

/// Shared by the workers of one run: when to stop, and the common clock.
pub struct Ctl {
    pub stop: AtomicBool,
    pub seconds: f64,
    pub max_segments: usize,
    pub trace: bool,
    pub epoch: Instant,
}

impl Ctl {
    /// For a run with no timed region: the workers stop at the first barrier.
    pub fn stopped() -> Arc<Ctl> {
        Arc::new(Ctl {
            stop: AtomicBool::new(true),
            seconds: 0.0,
            max_segments: 0,
            trace: false,
            epoch: Instant::now(),
        })
    }

    pub fn new(opts: &Opts) -> Arc<Ctl> {
        Arc::new(Ctl {
            stop: AtomicBool::new(false),
            seconds: opts.seconds,
            // Quick: one segment, and a traced one beside it in a traced run.
            max_segments: match (opts.quick, opts.trace) {
                (true, false) => 1,
                (true, true) => 2,
                (false, _) => usize::MAX,
            },
            trace: opts.trace,
            epoch: Instant::now(),
        })
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Seg {
    pub start: Instant,
    pub end: Instant,
    pub traced: bool,
}

/// One application thread's side of a run.
pub struct Worker {
    pub id: usize,
    pub rec: Recorder,
    pub segs: Vec<Seg>,
    /// Worker 0 only: the reference round trip (ns) before each segment and
    /// after the last, so one more than `segs`.
    pub refs: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub note: Option<String>,
}

impl Worker {
    /// `spans_per_segment` sizes the span buffer (traced runs only), which
    /// like the latency histogram is allocated before timing.
    pub fn new(id: usize, ctl: &Ctl, spans_per_segment: usize) -> Worker {
        let span_cap =
            if ctl.trace { MAX_TRACED_SEGMENTS * (spans_per_segment + 8) + 64 } else { 0 };
        Worker {
            id,
            rec: Recorder::new(ctl.epoch, id, id, span_cap),
            segs: Vec::with_capacity(if ctl.max_segments == 0 { 0 } else { 4096 }),
            refs: Vec::with_capacity(if ctl.max_segments == 0 || id != 0 { 0 } else { 4097 }),
            attempted: 0,
            failed: 0,
            note: None,
        }
    }

    /// Count one verified result of the program.
    #[inline]
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note.get_or_insert_with(what);
        }
    }
}

/// Where a worker leaves its record for the coordinator when it exits.
pub type Slots = Arc<Mutex<Vec<Option<Worker>>>>;

pub fn slots() -> Slots {
    Arc::new(Mutex::new((0..NODES).map(|_| None).collect()))
}

pub fn deposit(slots: &Slots, w: Worker) {
    let id = w.id;
    slots.lock().expect("a worker panicked holding the slots")[id] = Some(w);
}

/// The segment loop. Two barriers separate segments: after the first every
/// application thread but worker 0 parks at the second, and worker 0 has the
/// CPU to itself for the reference load. Worker 0 decides after each of its
/// segments whether the measured time is used up and says so before the
/// next barrier, so both workers leave after the same one.
pub fn drive(
    par: &mut dyn Par,
    bar: BarrierId,
    ctl: &Ctl,
    w: &mut Worker,
    mut segment: impl FnMut(&mut dyn Par, &mut Worker, usize),
) {
    // A run with no timed region (set-up) measures no reference either.
    let mut reference = (w.id == 0 && ctl.max_segments > 0).then(Reference::new);
    let mut first_start = None;
    for seg in 0.. {
        let tok = w.rec.open(false);
        par.barrier(bar);
        w.rec.close(tok, "api.barrier", false);
        let stop = ctl.stop.load(Ordering::SeqCst);
        if let Some(reference) = &mut reference {
            w.refs.push(reference.rtt_ns());
        }
        par.barrier(bar);
        if stop {
            break;
        }
        // A traced run alternates untraced and traced segments, so both
        // rates come from one world and their ratio is the tracing cost.
        let traced = ctl.trace && seg % 2 == 1 && seg < 2 * MAX_TRACED_SEGMENTS;
        w.rec.tracing = traced;
        let id = w.rec.enter();
        let start = Instant::now();
        segment(par, w, seg);
        let end = Instant::now();
        w.rec.leave();
        w.rec.unit.end_segment();
        if traced {
            w.rec.push(id, ROOT, "segment", start, end, 1, 0);
        }
        w.segs.push(Seg { start, end, traced });
        if w.id == 0 {
            let measured = end - *first_start.get_or_insert(start);
            if measured.as_secs_f64() >= ctl.seconds || seg + 1 >= ctl.max_segments {
                ctl.stop.store(true, Ordering::SeqCst);
            }
        }
    }
    w.rec.tracing = false;
}

/// Median wall time of `rep`, repeated at least five times and for one
/// second (hundreds of times for the in-process worlds). Repetitions run in
/// blocks of 30 ms or more between two measurements of the reference load,
/// and each time is reported as on the nominal host (`sensitivity` as in
/// [`Reference::to_nominal`]; 0: as measured).
fn measure(opts: &Opts, sensitivity: f64, mut rep: impl FnMut()) -> Stat {
    let budget = Duration::from_millis(if opts.quick { 100 } else { 1000 });
    let mut reference = Reference::new();
    let began = Instant::now();
    let mut samples = Vec::new();
    let mut rtt_before = reference.rtt_ns();
    while samples.len() < 5 || began.elapsed() < budget {
        let block = samples.len();
        let block_began = Instant::now();
        while samples.len() == block || block_began.elapsed() < Duration::from_millis(30) {
            let t = Instant::now();
            rep();
            samples.push(t.elapsed().as_secs_f64());
        }
        let rtt_after = reference.rtt_ns();
        let to_nominal = Reference::to_nominal((rtt_before + rtt_after) / 2.0, sensitivity);
        samples[block..].iter_mut().for_each(|s| *s *= to_nominal);
        rtt_before = rtt_after;
    }
    Stat::of(&samples)
}

/// How much of a world's set-up time follows the host's speed at the
/// reference load: an in-process world (threads, channels) moves with it; a
/// TCP world's set-up is mostly the fabric's polling sleeps, which do not
/// (ten runs each: the spread of `setup_s` falls from 15 % to 4 % on
/// `counter_rt` and from 18 % to 7 % on `apps_sim` at 1, and is least, 2 to
/// 6 %, as measured on the TCP workloads).
pub fn setup_sensitivity(backends: &[&str]) -> f64 {
    if backends.iter().any(|b| b.ends_with("tcp")) {
        0.0
    } else {
        1.0
    }
}

/// Run a set-up program; it must come back clean.
pub fn run_clean(p: ProgramBuilder, backend_name: &str) {
    let out = p.run(backend(backend_name));
    let report = out.report();
    assert!(report.is_clean(), "set-up program failed on {backend_name}: {:?}", report.errors);
}

/// The set-up metrics of a workload on `backends`.
///
/// Untraced, `setup_s`: everything a run does outside its timed region,
/// measured as `no_timed_region`, a run of the workload that stops at the
/// first barrier: inputs and reference outputs, world build, process spawn,
/// mesh handshake, warm-up, final checks, teardown. Work moved out of the
/// timed region lands here.
///
/// Traced, the program's share of that: `api.run_empty_s`, the wall time of
/// an empty program (`declare`'s objects on `nodes` nodes, one barrier, exit)
/// summed over the backends, and on TCP what processes and sockets add to it
/// over the in-process rt fabric.
pub fn setup_metrics(
    out: &mut RunOut,
    opts: &Opts,
    backends: &[&str],
    no_timed_region: impl FnMut(),
    nodes: usize,
    declare: impl Fn(&mut ProgramBuilder),
) {
    if !opts.trace {
        return out.set("setup_s", measure(opts, setup_sensitivity(backends), no_timed_region));
    }
    let empty = || empty_program(nodes, &declare);
    // Per-layer times are as measured.
    let here = measure(opts, 0.0, || backends.iter().for_each(|b| run_clean(empty(), b)));
    out.set("api.run_empty_s", here);
    if backends.iter().all(|b| b.ends_with("tcp")) {
        let rt = measure(opts, 0.0, || run_clean(empty(), "munin-rt"));
        out.num("tcp.spawn_s", here.value / backends.len() as f64 - rt.value);
    }
}

/// An empty program over `declare`'s objects: one barrier, exit.
pub fn empty_program(nodes: usize, declare: impl Fn(&mut ProgramBuilder)) -> ProgramBuilder {
    let mut p = program(nodes);
    declare(&mut p);
    let bar = p.barrier(0, nodes as u32);
    for i in 0..nodes {
        p.thread(i, move |par| par.barrier(bar));
    }
    p
}

/// A finished micro-workload world, ready to be turned into metrics.
pub struct MicroRun {
    pub workers: Vec<Worker>,
    pub outcome: Outcome,
    /// CPU seconds (coordinator + reaped node processes) around the run.
    pub cpu_s: f64,
    /// DSM operations one worker issues per segment.
    pub ops_per_segment: u64,
    /// The workload's `HOST_SENSITIVITY` ([`Reference::to_nominal`]).
    pub sensitivity: f64,
}

/// Run `p` on `backend_name` and collect the workers' records.
pub fn run_world(
    p: ProgramBuilder,
    backend_name: &str,
    slots: &Slots,
    ops_per_segment: u64,
    sensitivity: f64,
) -> MicroRun {
    let cpu0 = crate::host::cpu_seconds();
    let outcome = p.run(backend(backend_name));
    let cpu_s = crate::host::cpu_seconds() - cpu0;
    let workers: Vec<Worker> = slots
        .lock()
        .expect("a worker panicked holding the slots")
        .iter_mut()
        .filter_map(Option::take)
        .collect();
    MicroRun { workers, outcome, cpu_s, ops_per_segment, sensitivity }
}

impl MicroRun {
    /// Wall time of segment `i`: first worker in to last worker out.
    fn segment_wall(&self, i: usize) -> f64 {
        let start = self.workers.iter().map(|w| w.segs[i].start).min().expect("workers");
        let end = self.workers.iter().map(|w| w.segs[i].end).max().expect("workers");
        (end - start).as_secs_f64()
    }

    /// Worker 0's measurements of the reference round trip.
    fn refs(&self) -> &[f64] {
        self.workers.iter().find(|w| w.id == 0).map_or(&[], |w| &w.refs)
    }

    /// The reference round trip (ns) around segment `i`: the mean of the
    /// measurements before and after it (nominal if worker 0 left none: that
    /// run has failed anyway).
    fn segment_rtt_ns(&self, i: usize) -> f64 {
        match (self.refs().get(i), self.refs().get(i + 1)) {
            (Some(before), Some(after)) => (before + after) / 2.0,
            _ => crate::host::NOMINAL_RTT_NS,
        }
    }

    /// What turns a time of segment `i` into the nominal host's.
    fn to_nominal(&self, i: usize) -> f64 {
        Reference::to_nominal(self.segment_rtt_ns(i), self.sensitivity)
    }

    /// Operations per second of every segment among the first `window` that
    /// was (not) traced: as measured, or (`nominal`) as on the nominal host.
    pub fn rates(&self, traced: bool, window: usize, nominal: bool) -> Vec<f64> {
        let Some(first) = self.workers.first() else { return Vec::new() };
        let n = self.workers.iter().map(|w| w.segs.len()).min().unwrap_or(0).min(window);
        let ops = (self.ops_per_segment * self.workers.len() as u64) as f64;
        (0..n)
            .filter(|&i| first.segs[i].traced == traced)
            .map(|i| {
                let seconds = self.segment_wall(i) * if nominal { self.to_nominal(i) } else { 1.0 };
                ops / seconds
            })
            .collect()
    }

    /// All workers' spans, moved out of their recorders.
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.workers.iter_mut().flat_map(|w| std::mem::take(&mut w.rec.spans)).collect()
    }

    /// Fold the workers' verdicts and the run's own into `out`.
    pub fn verdict(&self, out: &mut RunOut) {
        out.check(self.workers.len() == NODES, || "a worker left no record (panicked)".into());
        for w in &self.workers {
            out.attempted += w.attempted;
            out.failed += w.failed;
            out.notes.extend(w.note.clone());
        }
        let report = self.outcome.report();
        out.check(report.is_clean(), || format!("unclean run: {:?}", report.errors));
    }

    /// `(p50, p99)` of the workload's unit call in microseconds, as its
    /// caller sees it: percentiles per worker (each worker's distribution is
    /// unimodal, their union is not) per segment, each as on the nominal
    /// host; the median over segments, then the mean over workers.
    fn unit_latency_us(&self) -> (f64, f64) {
        let over_segments = |per_segment: &[f64]| {
            let nominal: Vec<f64> =
                per_segment.iter().enumerate().map(|(i, ns)| ns * self.to_nominal(i)).collect();
            stats::median(&nominal) / 1e3
        };
        let p50: Vec<f64> = self.workers.iter().map(|w| over_segments(&w.rec.unit.p50)).collect();
        let p99: Vec<f64> = self.workers.iter().map(|w| over_segments(&w.rec.unit.p99)).collect();
        (stats::mean(&p50), stats::mean(&p99))
    }

    /// The end-to-end metrics every micro-workload shares. A rate is the
    /// median over segments, each as on the nominal host.
    pub fn end_to_end(&self, out: &mut RunOut) {
        let report = self.outcome.report();
        let ops = report.ops.max(1) as f64;
        out.set("ops_per_s", Stat::of(&self.rates(false, usize::MAX, true)));
        out.num("op_p50_us", self.unit_latency_us().0);
        out.num("msgs_per_op", report.stats.messages as f64 / ops);
        out.num("peak_rss_mib", crate::host::peak_rss_mib());
    }

    /// The per-layer metrics every traced micro-workload shares: what the
    /// traced pass says about itself (the cost of tracing, as traced and
    /// untraced segments alternate in one world, and the share of a traced
    /// segment that is inside no API call, the benchmark's own loop), the
    /// modelled payload bytes and the CPU time per operation. Returns the
    /// loop's share.
    pub fn trace_metrics(&self, spans: &[Span], out: &mut RunOut) -> f64 {
        // Like with like: the traced segments against the untraced ones
        // they alternate with, not against the rest of the run.
        let window = 2 * MAX_TRACED_SEGMENTS;
        let (traced, untraced) = (self.rates(true, window, true), self.rates(false, window, true));
        if !traced.is_empty() && !untraced.is_empty() {
            out.num(
                "trace_overhead_share",
                1.0 - stats::median(&traced) / stats::median(&untraced),
            );
        }
        let selfs = crate::spans::self_times(spans);
        let shares: Vec<f64> = spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == "segment")
            .map(|(s, self_ns)| self_ns as f64 / s.dur_ns().max(1) as f64)
            .collect();
        let loop_self_share = stats::median(&shares);
        out.num("trace.loop_self_share", loop_self_share);
        let report = self.outcome.report();
        let ops = report.ops.max(1) as f64;
        out.num("net.bytes_per_op", report.stats.bytes as f64 / ops);
        out.num("host.cpu_us_per_op", self.cpu_s * 1e6 / ops);
        // The host beside the numbers: how fast it was, and the rate as
        // measured on it.
        let segments = self.refs().len().saturating_sub(1);
        let rtts: Vec<f64> = (0..segments).map(|i| self.segment_rtt_ns(i) / 1e3).collect();
        out.set("host.ref_rtt_us", Stat::of(&rtts));
        out.set("host.raw_ops_per_s", Stat::of(&self.rates(false, usize::MAX, false)));
        out.num("api.op_p99_us", self.unit_latency_us().1);
        loop_self_share
    }
}
