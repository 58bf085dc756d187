//! `counter_rt` / `counter_tcp`: the latency-bound remote operation.
//!
//! Worker *i* does blocking `fetch_add_scalar` on a `GeneralReadWrite`
//! scalar homed on the *other* node, so both workers are remote and the load
//! is symmetric. On `MuninRt` the op crosses no codec and no socket (inbox
//! hop, `OpGate`, spin-then-park resume); on `MuninTcp` the same program pays
//! the control-stream forward + resume (node 1's worker) and the data-stream
//! round trip (both workers).

use crate::harness::{self, Ctl, MicroRun, Opts, RunOut, Slots, Worker, NODES};
use crate::spans;
use munin_api::{ParTyped, ProgramBuilder};
use munin_types::{SharedArray, SharedScalar, SharingType};
use std::sync::Arc;

pub const WARMUP_OPS: u64 = 200;
/// Fetch-adds per worker per segment: about 50 ms of work, so that the host
/// rarely changes speed inside a segment and a run has some two hundred
/// segments to take the median over.
pub const OPS_PER_SEGMENT_RT: u64 = 4_000;
pub const OPS_PER_SEGMENT_TCP: u64 = 1_000;
/// Read hits per worker in the traced pass's read-hit phase.
pub const READ_HITS: u64 = 2_000;
/// How much of a fetch-add's time follows the host's speed at the reference
/// load (`host::Reference::to_nominal`; measured, see README.md): on TCP the
/// operation *is* system calls, loopback frames and hand-offs; in one
/// process half of it is user-space work the host's state hardly touches.
pub const HOST_SENSITIVITY_RT: f64 = 0.5;
pub const HOST_SENSITIVITY_TCP: f64 = 1.0;
const HIT_ELEMS: u32 = 64;

#[derive(Clone, Copy)]
struct Objs {
    ctrs: [SharedScalar<i64>; NODES],
    hits: SharedArray<i64>,
}

fn declare(p: &mut ProgramBuilder) -> Objs {
    Objs {
        ctrs: [0, 1].map(|home| p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, home)),
        hits: p.array::<i64>("hits", HIT_ELEMS, SharingType::ReadMostly, 0),
    }
}

/// The workload's program: declarations, and one worker per node that warms
/// up, runs segments until `ctl` says stop, checks the final values and (in a
/// traced run) does the read-hit phase.
fn build(seed: u64, per_segment: u64, ctl: &Arc<Ctl>, slots: &Slots) -> ProgramBuilder {
    let mut p = harness::program(NODES);
    let objs = declare(&mut p);
    let bar = p.barrier(0, NODES as u32);
    // The seed picks the deltas; the program sees only them.
    let deltas: [i64; NODES] = [0, 1].map(|i| 1 + ((seed >> (8 * i)) & 0x7) as i64);
    for id in 0..NODES {
        let (ctl, slots) = (ctl.clone(), slots.clone());
        p.thread(id, move |par| {
            let mut w = Worker::new(id, &ctl, per_segment as usize);
            let target = objs.ctrs[1 - id];
            let delta = deltas[id];
            // This worker is the only writer of its target, so every old
            // value is known in advance.
            let mut expect = 0i64;
            for _ in 0..WARMUP_OPS {
                let old = par.fetch_add_scalar(&target, delta);
                w.check(old == expect, || format!("warm-up old value {old}, expected {expect}"));
                expect += delta;
            }
            w.rec.unit.clear();
            harness::drive(par, bar, &ctl, &mut w, |par, w, _| {
                for _ in 0..per_segment {
                    let tok = w.rec.open(true);
                    let old = par.fetch_add_scalar(&target, delta);
                    w.rec.close(tok, "api.fetch_add", true);
                    w.check(old == expect, || format!("old value {old}, expected {expect}"));
                    expect += delta;
                }
            });
            // Final value as the *other* worker left it, read at its home.
            let mine = par.load(&objs.ctrs[id]);
            let segments = w.segs.len() as u64;
            let want = (WARMUP_OPS + segments * per_segment) as i64 * deltas[1 - id];
            w.check(mine == want, || format!("final counter {mine}, expected {want}"));

            if ctl.trace {
                // Read-hit phase: `get` on a replicated read-mostly array.
                // The first read may fetch the replica; the rest must be
                // local hits that send nothing.
                let _ = par.get(&objs.hits, 0);
                w.rec.tracing = true;
                for i in 0..READ_HITS {
                    let tok = w.rec.open(false);
                    let v = par.get(&objs.hits, (i % HIT_ELEMS as u64) as u32);
                    w.rec.close(tok, "api.read_hit", false);
                    w.check(v == 0, || format!("read hit returned {v}"));
                }
                w.rec.tracing = false;
            }
            harness::deposit(&slots, w);
        });
    }
    p
}

pub fn run(backend: &'static str, opts: &Opts) -> RunOut {
    let tcp = backend.ends_with("tcp");
    let per_segment = if tcp { OPS_PER_SEGMENT_TCP } else { OPS_PER_SEGMENT_RT };
    let mut out = RunOut::default();
    harness::setup_metrics(
        &mut out,
        opts,
        &[backend],
        || {
            let p = build(opts.seed, per_segment, &Ctl::stopped(), &harness::slots());
            harness::run_clean(p, backend)
        },
        NODES,
        |p| {
            declare(p);
        },
    );

    let slots = harness::slots();
    let p = build(opts.seed, per_segment, &Ctl::new(opts), &slots);
    let sensitivity = if tcp { HOST_SENSITIVITY_TCP } else { HOST_SENSITIVITY_RT };
    let mut run = harness::run_world(p, backend, &slots, per_segment, sensitivity);
    run.verdict(&mut out);
    check_messages(&run, opts, &mut out);
    if opts.trace {
        let spans = run.take_spans();
        per_layer(&run, &spans, tcp, &mut out);
        crate::write_trace(opts, if tcp { "counter_tcp" } else { "counter_rt" }, &spans);
    } else {
        run.end_to_end(&mut out);
    }
    out
}

/// No more messages than the protocol's analytic count: two per remote
/// fetch-add (request, reply), two per barrier (node 1's arrival and its
/// release; node 0 is the barrier's home; two barriers before every segment
/// and two to end the loop) and, in a traced run, two to
/// replicate the read-hit array once. The final loads are served at home.
/// A read hit that sent anything would show here.
fn check_messages(run: &MicroRun, opts: &Opts, out: &mut RunOut) {
    let Some(w0) = run.workers.first() else { return };
    let segments = w0.segs.len() as u64;
    let fetch_adds = NODES as u64 * (WARMUP_OPS + segments * run.ops_per_segment);
    let expected = 2 * fetch_adds + 4 * (segments + 1) + if opts.trace { 2 } else { 0 };
    let got = run.outcome.report().stats.messages;
    out.check(got <= expected, || format!("{got} messages, analytic count is {expected}"));
}

fn per_layer(run: &MicroRun, spans: &[spans::Span], tcp: bool, out: &mut RunOut) {
    let p50 = |name: &str, node: u16| spans::p50_ns(spans, name, Some(node)) / 1e3;
    let fa = [p50("api.fetch_add", 0), p50("api.fetch_add", 1)];
    let hit = [p50("api.read_hit", 0), p50("api.read_hit", 1)];
    out.num("api.fetch_add_us.node0", fa[0]);
    out.num("api.fetch_add_us.node1", fa[1]);
    out.num("api.read_hit_us.node0", hit[0]);
    out.num("api.read_hit_us.node1", hit[1]);
    // A hit on node 0 is thread -> own server inbox -> OpGate -> resume wake.
    out.num("rt.local_op_us", hit[0]);
    if tcp {
        // Node 1's thread lives in the coordinator: its hit also pays the
        // forward and resume frames on the control stream.
        out.num("tcp.ctrl_hop_pair_us", hit[1] - hit[0]);
        out.num("tcp.data_hop_pair_us", fa[0] - hit[0]);
    } else {
        out.num("rt.home_hop_us", fa[0] - hit[0]);
    }
    // The traced pass accounts for itself: the fetch-add spans of a segment
    // add up to its wall time.
    let outside = run.trace_metrics(spans, out);
    out.check(outside < 0.05, || {
        format!("{:.1} % of a segment is outside the fetch-add spans", outside * 100.0)
    });
}
