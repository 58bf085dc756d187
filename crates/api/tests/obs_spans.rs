//! Cross-backend span coherence: with `Telemetry::Spans` on, both
//! wall-clock fabrics must produce a metrics snapshot whose causal spans
//! are internally consistent — timestamps monotone within each span,
//! per-thread tails FIFO-ordered by seq, and segment lengths telescoping
//! exactly to the end-to-end latency the client saw. On the TCP fabric a
//! remote fetch-add must additionally show the wire hop (`fwd`) so the
//! span really decomposes issue → fwd → dispatch → home → reply → resume.

use munin_api::{
    tcp_support, Backend, MetricsSnapshot, OpClass, Par, ParTyped, ProgramBuilder, RtTuning,
    Telemetry,
};
use munin_types::{MuninConfig, SharingType};
use std::time::Instant;

const N_THREADS: usize = 2;
const ROUNDS: i64 = 20;
/// Async fetch-adds thread 0 keeps in flight (the client's full window).
const WINDOW: usize = 16;

/// Two threads hammer one counter homed on node 1, so thread 0's adds are
/// remote on every fabric with more than one node.
fn run_fetch_adds(backend: Backend) -> (MetricsSnapshot, u64) {
    let mut p = ProgramBuilder::new(2);
    let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 1);
    let bar = p.barrier(0, N_THREADS as u32);
    for t in 0..N_THREADS {
        p.thread(t, move |par: &mut dyn Par| {
            for _ in 0..ROUNDS {
                par.fetch_add_scalar(&ctr, 1);
            }
            par.barrier(bar);
            if par.self_id() == 0 {
                assert_eq!(par.fetch_add_scalar(&ctr, 0), N_THREADS as i64 * ROUNDS);
            }
        });
    }
    run_with_spans(p, backend)
}

/// Thread 0 keeps a full window of async fetch-adds on the node-1 counter,
/// so the op gate holds several of its ops inside the server at once;
/// thread 1 only meets it at the barrier.
fn run_async_fetch_adds(backend: Backend) -> (MetricsSnapshot, u64) {
    let mut p = ProgramBuilder::new(2);
    let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 1);
    let bar = p.barrier(0, N_THREADS as u32);
    for t in 0..N_THREADS {
        p.thread(t, move |par: &mut dyn Par| {
            if par.self_id() == 0 {
                for _ in 0..ROUNDS {
                    let toks: Vec<_> =
                        (0..WINDOW).map(|_| par.fetch_add_scalar_async(&ctr, 1)).collect();
                    par.wait_all(toks);
                }
            }
            par.barrier(bar);
            if par.self_id() == 0 {
                assert_eq!(par.fetch_add_scalar(&ctr, 0), ROUNDS * WINDOW as i64);
            }
        });
    }
    run_with_spans(p, backend)
}

fn run_with_spans(mut p: ProgramBuilder, backend: Backend) -> (MetricsSnapshot, u64) {
    let mut tuning = RtTuning::default();
    tuning.telemetry = Telemetry::Spans;
    p.rt_tuning(tuning);
    let started = Instant::now();
    let outcome = p.run(backend);
    let wall_us = started.elapsed().as_micros() as u64;
    outcome.assert_clean();
    let metrics = outcome.metrics().expect("spans mode must fill RunReport::metrics").clone();
    (metrics, wall_us)
}

/// Every remote fetch-add of the async window carries its own server half:
/// a dispatch stamp and a later reply stamp. A half closed on the spot
/// (reply == dispatch) is what a gate overlap would leave if the collector
/// still kept one open half per thread.
fn check_overlapped_halves(m: &MetricsSnapshot, fabric: &str) {
    let adds: Vec<_> = m
        .spans
        .iter()
        .filter(|s| s.thread.0 == 0 && s.class == OpClass::FetchAdd && s.pipelined)
        .collect();
    assert!(adds.len() >= WINDOW, "{fabric}: the window left {} spans", adds.len());
    for s in adds {
        let (dispatch, reply) = (s.dispatch_us.expect("dispatch"), s.reply_us.expect("reply"));
        assert!(reply > dispatch, "{fabric}: span closed on the spot: {s:?}");
    }
}

/// The invariants every joined span tail must satisfy, on any fabric.
fn check_span_invariants(m: &MetricsSnapshot, fabric: &str) {
    assert!(!m.spans.is_empty(), "{fabric}: spans mode produced no spans");
    assert!(
        m.spans.iter().any(|s| s.class == OpClass::FetchAdd),
        "{fabric}: the fetch-add workload must leave fetch-add spans"
    );
    for s in &m.spans {
        // Monotone within one span: every present stamp sits between its
        // causal neighbours, so each segment has a non-negative length and
        // the lengths telescope exactly to the client-observed latency.
        let mut last = s.issue_us;
        for (label, a, b) in s.segments() {
            assert_eq!(a, last, "{fabric}: segment {label} not contiguous in {s:?}");
            assert!(b >= a, "{fabric}: segment {label} goes backwards in {s:?}");
            last = b;
        }
        assert_eq!(last, s.resume_us);
        let sum: u64 = s.segments().iter().map(|(_, a, b)| b - a).sum();
        assert_eq!(sum, s.total_us(), "{fabric}: segments must telescope in {s:?}");
    }
    // Per-thread FIFO: the tail is ordered by issue seq within a thread
    // (the gate overlaps a thread's ops only when they complete in issue
    // order, so resume order is issue order).
    for t in 0..N_THREADS as u32 {
        let seqs: Vec<u64> = m.spans.iter().filter(|s| s.thread.0 == t).map(|s| s.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(seqs.len(), sorted.len(), "thread {t} has duplicate seqs: {seqs:?}");
        assert_eq!(seqs, sorted, "{fabric}: thread {t} span tail out of issue order: {seqs:?}");
    }
}

#[test]
fn rt_spans_are_monotone_and_fifo() {
    let (m, _) = run_fetch_adds(Backend::rt(MuninConfig::default()));
    assert_eq!(m.telemetry, Telemetry::Spans);
    check_span_invariants(&m, "rt");
    // In-process fabric: ops never cross the wire, so no span carries a
    // forward stamp.
    assert!(m.spans.iter().all(|s| s.fwd_us.is_none()), "rt spans must have no wire hop");
}

#[test]
fn tcp_remote_fetch_add_decomposes_into_wire_segments() {
    if let Err(notice) = tcp_support() {
        eprintln!("skipping tcp span test: {notice}");
        return;
    }
    let (m, run_wall_us) = run_fetch_adds(Backend::tcp(MuninConfig::default()));
    check_span_invariants(&m, "tcp");
    // The counter is homed on node 1 (a child process): thread 0's adds
    // crossed the wire, so at least one fetch-add span must record the
    // forward stamp and its full issue→fwd→dispatch→…→resume decomposition.
    let remote = m
        .spans
        .iter()
        .find(|s| s.class == OpClass::FetchAdd && s.fwd_us.is_some())
        .expect("a remote fetch-add span with a wire hop");
    assert!(remote.dispatch_us.is_some(), "wire hop implies a stamped dispatch: {remote:?}");
    assert!(remote.reply_us.is_some(), "wire hop implies a stamped reply: {remote:?}");
    // The decomposition accounts for the whole client-observed latency,
    // and that latency is physically plausible: no span outlives the run.
    let sum: u64 = remote.segments().iter().map(|(_, a, b)| b - a).sum();
    assert_eq!(sum, remote.total_us());
    assert!(
        remote.total_us() <= run_wall_us,
        "span latency {}us exceeds the whole run's {}us",
        remote.total_us(),
        run_wall_us
    );
}

#[test]
fn rt_async_window_keeps_one_span_per_op() {
    let (m, _) = run_async_fetch_adds(Backend::rt(MuninConfig::default()));
    check_span_invariants(&m, "rt async");
    check_overlapped_halves(&m, "rt async");
}

#[test]
fn tcp_async_window_keeps_one_span_per_op() {
    if let Err(notice) = tcp_support() {
        eprintln!("skipping tcp async span test: {notice}");
        return;
    }
    let (m, _) = run_async_fetch_adds(Backend::tcp(MuninConfig::default()));
    check_span_invariants(&m, "tcp async");
    check_overlapped_halves(&m, "tcp async");
}
