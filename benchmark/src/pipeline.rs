//! `pipeline_tcp`: the throughput-bound use of the layers `counter_tcp`
//! stresses for latency.
//!
//! Per round each worker issues 256 adjacent `set_async` stores into its own
//! slice of a `WriteMany` array, then 64 `fetch_add_scalar_async` on the
//! other node's counter, redeems the tokens with `wait_all` (the old values
//! must be consecutive) and `drain`s. Window of 16, client-side write
//! combining and `OpBatch` frames do the work, so a latency win bought by
//! giving up batching shows here as a loss. The unit of latency is a round.

use crate::harness::{self, Ctl, Opts, RunOut, Slots, Worker, NODES};
use crate::spans;
use munin_api::{ParTyped, ProgramBuilder};
use munin_types::{SharedArray, SharedScalar, SharingType};
use std::sync::Arc;

pub const STORES_PER_ROUND: u32 = 256;
pub const FETCH_ADDS_PER_ROUND: u64 = 64;
pub const ROUNDS_PER_SEGMENT: u64 = 50;
pub const WARMUP_ROUNDS: u64 = 2;
const OPS_PER_ROUND: u64 = STORES_PER_ROUND as u64 + FETCH_ADDS_PER_ROUND;
/// How much of a round's time follows the host's speed at the reference load
/// (`host::Reference::to_nominal`; measured, see README.md): batching and
/// combining are user-space work, the frames and hand-offs are not.
pub const HOST_SENSITIVITY: f64 = 0.75;

#[derive(Clone, Copy)]
struct Objs {
    slots: SharedArray<i64>,
    ctrs: [SharedScalar<i64>; NODES],
}

fn declare(p: &mut ProgramBuilder) -> Objs {
    Objs {
        slots: p.array::<i64>("slots", STORES_PER_ROUND * NODES as u32, SharingType::WriteMany, 0),
        ctrs: [0, 1].map(|home| p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, home)),
    }
}

/// Value stored in slot `s` of `worker` in round `round`; every round
/// rewrites every slot with a new value.
fn stored(seed: u64, worker: usize, round: u64, s: u32) -> i64 {
    (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (round << 20) ^ ((worker as u64) << 16) ^ s as u64)
        as i64
}

const BACKEND: &str = "munin-tcp";

/// The workload's program: declarations, and one worker per node that warms
/// up, runs segments of rounds until `ctl` says stop, and reads back the
/// other worker's slice.
fn build(seed: u64, ctl: &Arc<Ctl>, slots: &Slots) -> ProgramBuilder {
    let mut p = harness::program(NODES);
    let objs = declare(&mut p);
    let bar = p.barrier(0, NODES as u32);
    for id in 0..NODES {
        let (ctl, slots) = (ctl.clone(), slots.clone());
        let spans_per_segment = (ROUNDS_PER_SEGMENT * (OPS_PER_ROUND + 3)) as usize;
        p.thread(id, move |par| {
            let mut w = Worker::new(id, &ctl, spans_per_segment);
            let base = id as u32 * STORES_PER_ROUND;
            let target = objs.ctrs[1 - id];
            let mut round = 0u64;
            let mut expect = 0i64;
            let mut tokens = Vec::with_capacity(FETCH_ADDS_PER_ROUND as usize);
            let mut readback = vec![0i64; STORES_PER_ROUND as usize];
            let mut one_round = |par: &mut dyn munin_api::Par, w: &mut Worker| {
                let unit = w.rec.open(true);
                for s in 0..STORES_PER_ROUND {
                    let tok = w.rec.open(false);
                    let _ = par.set_async(&objs.slots, base + s, stored(seed, id, round, s));
                    w.rec.close(tok, "api.set_async", false);
                }
                for _ in 0..FETCH_ADDS_PER_ROUND {
                    let tok = w.rec.open(false);
                    tokens.push(par.fetch_add_scalar_async(&target, 1));
                    w.rec.close(tok, "api.fetch_add_async", false);
                }
                let tok = w.rec.open(false);
                let olds = par.wait_all(tokens.drain(..));
                w.rec.close(tok, "api.wait_all", false);
                let tok = w.rec.open(false);
                par.drain();
                w.rec.close(tok, "api.drain", false);
                w.rec.close(unit, "round", true);
                let consecutive = olds.iter().zip(expect..).all(|(&old, want)| old == want);
                w.check(consecutive && olds.len() as u64 == FETCH_ADDS_PER_ROUND, || {
                    format!(
                        "round {round}: old values {:?}.. not consecutive from {expect}",
                        olds.first()
                    )
                });
                expect += FETCH_ADDS_PER_ROUND as i64;
                round += 1;
            };
            for _ in 0..WARMUP_ROUNDS {
                one_round(par, &mut w);
            }
            w.rec.unit.clear();
            harness::drive(par, bar, &ctl, &mut w, |par, w, _| {
                for _ in 0..ROUNDS_PER_SEGMENT {
                    one_round(par, w);
                }
            });
            // After the closing barrier each worker reads back the *other*
            // worker's slice: the last round's stores must all be there.
            let other = 1 - id;
            par.read_into(&objs.slots, other as u32 * STORES_PER_ROUND, &mut readback);
            let last = round - 1;
            let intact = readback.iter().zip(0..).all(|(&v, s)| v == stored(seed, other, last, s));
            w.check(intact, || format!("worker {other}'s slice does not hold round {last}"));
            harness::deposit(&slots, w);
        });
    }
    p
}

pub fn run(opts: &Opts) -> RunOut {
    let mut out = RunOut::default();
    harness::setup_metrics(
        &mut out,
        opts,
        &[BACKEND],
        || harness::run_clean(build(opts.seed, &Ctl::stopped(), &harness::slots()), BACKEND),
        NODES,
        |p| {
            declare(p);
        },
    );

    let slots = harness::slots();
    let p = build(opts.seed, &Ctl::new(opts), &slots);
    let mut run = harness::run_world(
        p,
        BACKEND,
        &slots,
        ROUNDS_PER_SEGMENT * OPS_PER_ROUND,
        HOST_SENSITIVITY,
    );
    run.verdict(&mut out);
    // Analytic message count: two per fetch-add; at each barrier (two before
    // every segment, two to end the loop) node 1's arrival and release plus,
    // at most, its flush to the array's home and the home's refresh of node
    // 1's copy (in + done, out + ack); two to replicate the array on node 1
    // once.
    let segments = run.workers.first().map_or(0, |w| w.segs.len() as u64);
    let rounds = WARMUP_ROUNDS + segments * ROUNDS_PER_SEGMENT;
    let expected = 2 * NODES as u64 * rounds * FETCH_ADDS_PER_ROUND + 12 * (segments + 1) + 2;
    let got = run.outcome.report().stats.messages;
    out.check(got <= expected, || format!("{got} messages, analytic count is {expected}"));
    if opts.trace {
        let spans = run.take_spans();
        let p50 = |name: &str| spans::p50_ns(&spans, name, None);
        out.num("api.set_async_ns", p50("api.set_async"));
        out.num("api.fetch_add_async_ns", p50("api.fetch_add_async"));
        out.num("api.wait_all_us", p50("api.wait_all") / 1e3);
        out.num("api.drain_us", p50("api.drain") / 1e3);
        let _ = run.trace_metrics(&spans, &mut out);
        crate::write_trace(opts, "pipeline_tcp", &spans);
    } else {
        run.end_to_end(&mut out);
    }
    out
}
