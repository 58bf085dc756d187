//! `bulk_tcp`: the bytes-bound path.
//!
//! A 1 MiB `WriteMany` `i64` array. Per round each worker `write_from`s its
//! 512 KiB half with fresh seed-derived values, meets the other at a barrier
//! (the delayed-update flush ships the diff), `read_into`s the *other* half
//! and checks every element, and meets at a second barrier. Twin + diff
//! (`mem`), the flush (`core`), encode of large payloads (`proto`) and the
//! frame write (`tcp`) do the work; per-op wake-ups are almost none. The unit
//! of latency is a round.

use crate::harness::{self, Ctl, Opts, RunOut, Slots, Worker, NODES};
use crate::spans;
use crate::stats::Stat;
use munin_api::{ParTyped, ProgramBuilder};
use munin_types::{SharedArray, SharingType};
use std::sync::Arc;

pub const HALF_ELEMS: u32 = 65_536;
pub const HALF_BYTES: u64 = HALF_ELEMS as u64 * 8;
pub const ROUNDS_PER_SEGMENT: u64 = 80;
pub const WARMUP_ROUNDS: u64 = 2;
/// Distinct buffers a worker cycles through, so that consecutive rounds
/// differ in (nearly) every byte and the diff is always full.
const PATTERNS: usize = 4;
/// write_from, barrier, read_into, barrier.
const OPS_PER_ROUND: u64 = 4;
/// How much of a round's time follows the host's speed at the reference load
/// (`host::Reference::to_nominal`; measured, see README.md): half is copying
/// and comparing memory, which the host's state touches less.
pub const HOST_SENSITIVITY: f64 = 0.5;

fn declare(p: &mut ProgramBuilder) -> SharedArray<i64> {
    p.array::<i64>("bulk", HALF_ELEMS * NODES as u32, SharingType::WriteMany, 0)
}

/// `PATTERNS` buffers of pseudo-random elements per worker, from the seed.
fn patterns(seed: u64) -> Vec<Vec<Vec<i64>>> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x as i64
    };
    (0..NODES)
        .map(|_| (0..PATTERNS).map(|_| (0..HALF_ELEMS).map(|_| next()).collect()).collect())
        .collect()
}

const BACKEND: &str = "munin-tcp";

/// The workload's program: the seed's patterns, declarations, and one worker
/// per node that warms up and runs segments of rounds until `ctl` says stop.
fn build(seed: u64, ctl: &Arc<Ctl>, slots: &Slots) -> ProgramBuilder {
    let mut p = harness::program(NODES);
    let arr = declare(&mut p);
    let seg_bar = p.barrier(0, NODES as u32);
    let round_bar = p.barrier(0, NODES as u32);
    let pats = Arc::new(patterns(seed));
    for id in 0..NODES {
        let (ctl, slots, pats) = (ctl.clone(), slots.clone(), pats.clone());
        let spans_per_segment = (ROUNDS_PER_SEGMENT * (OPS_PER_ROUND + 1)) as usize;
        p.thread(id, move |par| {
            let mut w = Worker::new(id, &ctl, spans_per_segment);
            let other = 1 - id;
            let mut round = 0usize;
            let mut readback = vec![0i64; HALF_ELEMS as usize];
            let mut one_round = |par: &mut dyn munin_api::Par, w: &mut Worker| {
                let unit = w.rec.open(true);
                let tok = w.rec.open(false);
                par.write_from(&arr, id as u32 * HALF_ELEMS, &pats[id][round % PATTERNS]);
                w.rec.close(tok, "api.write_from", false);
                let tok = w.rec.open(false);
                par.barrier(round_bar);
                w.rec.close(tok, "api.barrier_flush", false);
                let tok = w.rec.open(false);
                par.read_into(&arr, other as u32 * HALF_ELEMS, &mut readback);
                w.rec.close(tok, "api.read_into", false);
                let tok = w.rec.open(false);
                par.barrier(round_bar);
                w.rec.close(tok, "api.barrier", false);
                w.rec.close(unit, "round", true);
                w.check(readback == pats[other][round % PATTERNS], || {
                    format!("round {round}: worker {other}'s half read back wrong")
                });
                round += 1;
            };
            for _ in 0..WARMUP_ROUNDS {
                one_round(par, &mut w);
            }
            w.rec.unit.clear();
            harness::drive(par, seg_bar, &ctl, &mut w, |par, w, _| {
                for _ in 0..ROUNDS_PER_SEGMENT {
                    one_round(par, w);
                }
            });
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
    let spans = run.take_spans();
    let report = run.outcome.report();
    let segments = run.workers.first().map_or(0, |w| w.segs.len() as u64);
    let rounds = segments * ROUNDS_PER_SEGMENT + WARMUP_ROUNDS;
    // Analytic count, eight messages a round: node 1's flush to the array's
    // home (in + done), the home's refresh of node 1's copy (out + ack; the
    // first round replicates the array instead), node 1's arrival and
    // release at each of the two barriers. Two more per segment barrier
    // (two before every segment, two to end the loop).
    let expected = 8 * rounds + 4 * (segments + 1);
    out.check(report.stats.messages <= expected, || {
        format!("{} messages, analytic count is {expected}", report.stats.messages)
    });
    if opts.trace {
        let p50_us = |name: &str| spans::p50_ns(&spans, name, None) / 1e3;
        out.num("api.write_from_us", p50_us("api.write_from"));
        out.num("api.read_into_us", p50_us("api.read_into"));
        out.num("api.barrier_flush_us", p50_us("api.barrier_flush"));
        out.num("api.barrier_us", p50_us("api.barrier"));
        // Each round moves both halves across: one MiB of payload, verified.
        // The rate is `ops_per_s` of the untraced segments, in MiB.
        let payload = (NODES as u64 * HALF_BYTES) as f64;
        let rounds_per_s = Stat::of(&run.rates(false, usize::MAX, true)).value
            / (NODES as u64 * OPS_PER_ROUND) as f64;
        out.num("api.payload_mib_per_s", rounds_per_s * payload / 1048576.0);
        out.num("core.msgs_per_round", report.stats.messages as f64 / rounds as f64);
        out.num(
            "core.net_bytes_per_payload_byte",
            report.stats.bytes as f64 / (rounds as f64 * payload),
        );
        let _ = run.trace_metrics(&spans, &mut out);
        crate::write_trace(opts, "bulk_tcp", &spans);
    } else {
        run.end_to_end(&mut out);
    }
    out
}
