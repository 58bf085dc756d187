//! Socket fabric vs in-process channels: what does crossing a real process
//! boundary cost per DSM operation?
//!
//! The workload is deliberately op-bound (`ComputeMode::Skip`, small
//! payloads): each worker hammers a node-0-homed counter with atomic
//! fetch-adds — every one a full client → server → home → server → client
//! round trip for remote workers. On `MuninRt` that round trip is two
//! channel sends and two thread wake-ups; on `MuninTcp` the same logical
//! path crosses the data stream to the thread's node (op + resume) and a
//! per-node-pair data stream (AtomicReq/AtomicReply frames), so the ratio
//! between the two columns is the per-op price of serialization + loopback
//! TCP + an extra process hop. A bulk-payload row (whole-row reads of a
//! 256 KiB array) shows the gap narrowing when bandwidth, not per-op
//! latency, dominates.
//!
//! Results go to `BENCH_tcp.json` (regenerate with `scripts/bench.sh tcp`);
//! correctness (bit-identical app results across the fabrics) is asserted
//! by `tests/tests/cross_backend.rs`, and this bench re-checks one app
//! (matmul) per run as a guard.

use munin_api::{
    Backend, ComputeMode, MetricsSnapshot, ParTyped, ProgramBuilder, RtTuning, SpinWait, Telemetry,
};
use munin_apps::App;
use munin_bench::read_heavy::{inval_msgs, read_heavy_stats};
use munin_net::NetStats;
use munin_types::{MuninConfig, SharingType};
use std::fmt::Write as _;
use std::time::Instant;

/// Fetch-adds per worker in the op-bound row.
const OPS_PER_WORKER: usize = 1500;
/// Row reads per worker in the bulk row.
const READS_PER_WORKER: usize = 40;
/// Elements of the bulk array (i64): 32768 * 8 B = 256 KiB.
const BULK_ELEMS: u32 = 32_768;

fn tuning() -> RtTuning {
    let mut t = RtTuning::default();
    t.compute = ComputeMode::Skip;
    t
}

/// The PR-5-era remote-op path, reconstructed from the current code: a
/// window of one blocking op, no client-side write combining, park
/// immediately instead of spinning. This is the "before" column of the
/// before/after record the pipelined rows are judged against.
fn baseline_tuning() -> RtTuning {
    let mut t = tuning();
    t.max_inflight = 1;
    t.write_combine = false;
    t.spin_wait = SpinWait::Off;
    t
}

/// (total DSM ops, wall seconds) for `workers` fetch-add hammers.
/// `pipelined` issues the adds asynchronously (window bounded by
/// `tuning.max_inflight`) and redeems every token at the end; otherwise
/// each add blocks for its reply.
fn run_counter_with(
    workers: usize,
    backend: Backend,
    tuning: RtTuning,
    pipelined: bool,
) -> (u64, f64) {
    let mut p = ProgramBuilder::new(workers);
    p.rt_tuning(tuning);
    let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
    for i in 0..workers {
        p.thread(i, move |par| {
            if pipelined {
                let toks: Vec<_> =
                    (0..OPS_PER_WORKER).map(|_| par.fetch_add_scalar_async(&ctr, 1)).collect();
                par.wait_all(toks);
            } else {
                for _ in 0..OPS_PER_WORKER {
                    par.fetch_add_scalar(&ctr, 1);
                }
            }
        });
    }
    let started = Instant::now();
    let out = p.run(backend);
    out.assert_clean();
    let wall = started.elapsed().as_secs_f64();
    let r = out.report();
    assert_eq!(r.ops, (workers * OPS_PER_WORKER) as u64 + workers as u64); // + exits
    (r.ops, wall)
}

fn run_counter(workers: usize, backend: Backend) -> (u64, f64) {
    run_counter_with(workers, backend, tuning(), false)
}

/// Slots each worker owns in the write-combining row.
const WC_SLOTS: usize = 256;
/// Rewrite passes over those slots.
const WC_PASSES: usize = 8;

/// (app-level writes, wall seconds): every worker streams async stores
/// into its own `WC_SLOTS` adjacent array slots, `WC_PASSES` times,
/// draining between passes. With combining on, each pass coalesces into
/// one wire op per worker; off, every store is its own round trip.
fn run_writes(workers: usize, backend: Backend, combine: bool) -> (u64, f64) {
    let mut p = ProgramBuilder::new(workers);
    let mut t = tuning();
    t.write_combine = combine;
    p.rt_tuning(t);
    let arr = p.array::<i64>("wc", (workers * WC_SLOTS) as u32, SharingType::WriteMany, 0);
    for i in 0..workers {
        p.thread(i, move |par| {
            let base = (i * WC_SLOTS) as u32;
            for pass in 0..WC_PASSES {
                for s in 0..WC_SLOTS as u32 {
                    let _ = par.set_async(&arr, base + s, (pass * WC_SLOTS) as i64 + s as i64);
                }
                par.drain();
            }
        });
    }
    let started = Instant::now();
    p.run(backend).assert_clean();
    let wall = started.elapsed().as_secs_f64();
    ((workers * WC_SLOTS * WC_PASSES) as u64, wall)
}

/// (total bytes moved, wall seconds) for bulk whole-array reads from
/// non-home workers (read-mostly replication: first read ships the array,
/// later reads hit the local copy — so this measures the data path plus
/// local-hit op overhead).
fn run_bulk(workers: usize, backend: Backend) -> (u64, f64) {
    let mut p = ProgramBuilder::new(workers);
    p.rt_tuning(tuning());
    let arr = p.array::<i64>("bulk", BULK_ELEMS, SharingType::ReadMostly, 0);
    for i in 0..workers {
        p.thread(i, move |par| {
            let mut buf = vec![0i64; BULK_ELEMS as usize];
            for _ in 0..READS_PER_WORKER {
                par.read_into(&arr, 0, &mut buf);
            }
            assert_eq!(buf[0], 0);
        });
    }
    let started = Instant::now();
    let out = p.run(backend);
    out.assert_clean();
    let wall = started.elapsed().as_secs_f64();
    (out.report().stats.bytes, wall)
}

/// One full-telemetry pass of the op-bound counter workload on the TCP
/// fabric: the per-op latency distributions and the causal span tail the
/// run leaves behind. Separate from the throughput rows so the span
/// stamping cost never pollutes the ops/s columns.
fn run_latency_pass(workers: usize) -> MetricsSnapshot {
    let mut p = ProgramBuilder::new(workers);
    let mut t = tuning();
    t.telemetry = Telemetry::Spans;
    p.rt_tuning(t);
    let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
    for i in 0..workers {
        p.thread(i, move |par| {
            for _ in 0..OPS_PER_WORKER {
                par.fetch_add_scalar(&ctr, 1);
            }
        });
    }
    let out = p.run(Backend::MuninTcp(MuninConfig::default()));
    out.assert_clean();
    out.metrics().expect("spans mode fills RunReport::metrics").clone()
}

struct Row {
    workers: usize,
    rt_ops_s: f64,
    tcp_ops_s: f64,
}

struct PipeRow {
    k: usize,
    rt_ops_s: f64,
    tcp_ops_s: f64,
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        println!("tcp_fabric: skipping measurement under --test");
        return;
    }
    if let Err(notice) = munin_api::tcp_support() {
        eprintln!("tcp_fabric: {notice} — nothing to measure");
        return;
    }

    // Correctness guard: one real app, bit-identical across the fabrics.
    let (p, verify) = App::Matmul.build_default(4);
    p.run(Backend::MuninTcp(MuninConfig::default())).assert_clean();
    verify();

    let mut rows = Vec::new();
    for workers in [2usize, 4] {
        let (ops, rt_wall) = run_counter(workers, Backend::MuninRt(MuninConfig::default()));
        let (_, tcp_wall) = run_counter(workers, Backend::MuninTcp(MuninConfig::default()));
        let row = Row { workers, rt_ops_s: ops as f64 / rt_wall, tcp_ops_s: ops as f64 / tcp_wall };
        println!(
            "counter {}w   MuninRt {:>9.0} ops/s | MuninTcp {:>9.0} ops/s | tcp/rt {:>5.2}x",
            row.workers,
            row.rt_ops_s,
            row.tcp_ops_s,
            row.tcp_ops_s / row.rt_ops_s,
        );
        assert!(row.tcp_ops_s > 1_000.0, "loopback fabric should sustain >1k ops/s");
        rows.push(row);
    }

    // Before/after: the reconstructed PR-5 path (blocking, window 1, no
    // spin) vs the pipelined path at increasing in-flight depth, all at 4
    // workers on the op-bound counter.
    let (base_ops, base_rt_wall) =
        run_counter_with(4, Backend::MuninRt(MuninConfig::default()), baseline_tuning(), false);
    let (_, base_tcp_wall) =
        run_counter_with(4, Backend::MuninTcp(MuninConfig::default()), baseline_tuning(), false);
    let base_rt = base_ops as f64 / base_rt_wall;
    let base_tcp = base_ops as f64 / base_tcp_wall;
    println!(
        "baseline 4w  MuninRt {base_rt:>9.0} ops/s | MuninTcp {base_tcp:>9.0} ops/s \
         (blocking, window 1, no spin)"
    );
    let mut pipe_rows = Vec::new();
    for k in [1usize, 4, 16] {
        let mut t = tuning();
        t.max_inflight = k;
        let (ops, rt_wall) =
            run_counter_with(4, Backend::MuninRt(MuninConfig::default()), t.clone(), true);
        let (_, tcp_wall) = run_counter_with(4, Backend::MuninTcp(MuninConfig::default()), t, true);
        let row = PipeRow { k, rt_ops_s: ops as f64 / rt_wall, tcp_ops_s: ops as f64 / tcp_wall };
        println!(
            "pipelined 4w K={:<2} MuninRt {:>9.0} ops/s | MuninTcp {:>9.0} ops/s | \
             tcp vs baseline {:>5.2}x",
            row.k,
            row.rt_ops_s,
            row.tcp_ops_s,
            row.tcp_ops_s / base_tcp,
        );
        pipe_rows.push(row);
    }
    // On a single-core host nothing can physically overlap — every hop of
    // the remote chain timeslices, pipelining only amortizes the forward
    // and resume legs, and the spin layer disables itself — so the 2x bar
    // is only enforced where the machine can actually overlap the window.
    let multicore = std::thread::available_parallelism().map(|p| p.get() >= 2).unwrap_or(false);
    let best = pipe_rows.last().expect("sweep ran");
    if multicore {
        assert!(
            best.tcp_ops_s >= 2.0 * base_tcp,
            "pipelining at K={} should at least double MuninTcp ops/s over the blocking \
             baseline: {:.0} vs {:.0}",
            best.k,
            best.tcp_ops_s,
            base_tcp
        );
    } else {
        println!(
            "NOTE: single-core host — skipping the 2x pipelining bar (measured {:.2}x)",
            best.tcp_ops_s / base_tcp
        );
    }

    // Client-side write combining: the same async store stream with the
    // combiner on vs off.
    let (writes, comb_wall) = run_writes(4, Backend::MuninTcp(MuninConfig::default()), true);
    let (_, raw_wall) = run_writes(4, Backend::MuninTcp(MuninConfig::default()), false);
    let comb_w_s = writes as f64 / comb_wall;
    let raw_w_s = writes as f64 / raw_wall;
    println!(
        "writes 4w    combined {comb_w_s:>9.0} w/s | uncombined {raw_w_s:>9.0} w/s | \
         {:>5.2}x",
        comb_w_s / raw_w_s
    );

    // Per-op latency percentiles under full span telemetry, 4 workers.
    let metrics = run_latency_pass(4);
    for cs in &metrics.hists {
        println!(
            "latency 4w   {:>9}/{:<9} p50 {:>6} us | p90 {:>6} us | p99 {:>6} us ({} ops)",
            cs.class.label(),
            cs.mode_label(),
            cs.hist.p50_us(),
            cs.hist.p90_us(),
            cs.hist.p99_us(),
            cs.hist.count,
        );
    }
    assert!(
        metrics.class_hist(munin_api::OpClass::FetchAdd, false).is_some(),
        "the counter workload must leave a blocking fetch-add histogram"
    );
    assert!(!metrics.spans.is_empty(), "spans mode must leave a span tail");

    // Every protocol in the matrix across the process boundary: the
    // op-bound counter on each TCP backend, plus the read-heavy sharing
    // workload with its traffic breakdown. The lease protocol must cross
    // the real wire without a single invalidation message.
    let tcp_backends: Vec<Backend> =
        Backend::matrix().into_iter().filter(|b| b.is_distributed()).collect();
    let mut proto_rows: Vec<(&'static str, f64, NetStats)> = Vec::new();
    for backend in &tcp_backends {
        let name = backend.name();
        let (ops, wall) = run_counter(4, backend.clone());
        let ops_s = ops as f64 / wall;
        let stats = read_heavy_stats(backend.clone());
        println!(
            "proto 4w     {name:>9}: counter {ops_s:>9.0} ops/s | read-heavy {:>5} msgs \
             {:>3} inval",
            stats.messages,
            inval_msgs(&stats),
        );
        proto_rows.push((name, ops_s, stats));
    }
    let tardis_stats =
        &proto_rows.iter().find(|(n, _, _)| *n == "TardisTcp").expect("TardisTcp row").2;
    assert_eq!(
        inval_msgs(tardis_stats),
        0,
        "TardisTcp must finish the read-heavy workload with zero invalidation messages"
    );

    let (bytes, rt_bulk) = run_bulk(4, Backend::MuninRt(MuninConfig::default()));
    let (tcp_bytes, tcp_bulk) = run_bulk(4, Backend::MuninTcp(MuninConfig::default()));
    assert_eq!(bytes, tcp_bytes, "both fabrics must account identical protocol bytes");
    println!(
        "bulk 4w      MuninRt {:>9.1} MiB/s | MuninTcp {:>9.1} MiB/s (protocol payload)",
        bytes as f64 / rt_bulk / (1 << 20) as f64,
        bytes as f64 / tcp_bulk / (1 << 20) as f64,
    );

    let mut json = String::from("{\n  \"bench\": \"tcp_fabric\",\n  \"compute_mode\": \"skip\",\n");
    let _ = writeln!(json, "  \"ops_per_worker\": {OPS_PER_WORKER},");
    json.push_str("  \"counter_rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workers\": {}, \"munin_rt_ops_per_s\": {:.0}, \"munin_tcp_ops_per_s\": \
             {:.0}, \"tcp_over_rt\": {:.3}}}",
            r.workers,
            r.rt_ops_s,
            r.tcp_ops_s,
            r.tcp_ops_s / r.rt_ops_s
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"baseline_4w\": {{\"munin_rt_ops_per_s\": {base_rt:.0}, \
         \"munin_tcp_ops_per_s\": {base_tcp:.0}}},"
    );
    json.push_str("  \"pipelined_rows_4w\": [\n");
    for (i, r) in pipe_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"k\": {}, \"munin_rt_ops_per_s\": {:.0}, \"munin_tcp_ops_per_s\": {:.0}, \
             \"tcp_speedup_vs_baseline\": {:.3}}}",
            r.k,
            r.rt_ops_s,
            r.tcp_ops_s,
            r.tcp_ops_s / base_tcp
        );
        json.push_str(if i + 1 < pipe_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"write_combine_4w\": {{\"combined_writes_per_s\": {comb_w_s:.0}, \
         \"uncombined_writes_per_s\": {raw_w_s:.0}, \"combine_speedup\": {:.3}}},",
        comb_w_s / raw_w_s
    );
    let _ = writeln!(
        json,
        "  \"bulk_4w\": {{\"payload_bytes\": {bytes}, \"munin_rt_mib_per_s\": {:.1}, \
         \"munin_tcp_mib_per_s\": {:.1}}},",
        bytes as f64 / rt_bulk / (1 << 20) as f64,
        bytes as f64 / tcp_bulk / (1 << 20) as f64
    );
    json.push_str("  \"protocol_rows_4w\": [\n");
    for (i, (name, ops_s, stats)) in proto_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"backend\": \"{name}\", \"counter_ops_per_s\": {ops_s:.0}, \
             \"read_heavy_messages\": {}, \"read_heavy_inval_msgs\": {}, \
             \"read_heavy_multicasts\": {}}}",
            stats.messages,
            inval_msgs(stats),
            stats.multicasts
        );
        json.push_str(if i + 1 < proto_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"latency_us_4w\": [\n");
    for (i, cs) in metrics.hists.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"class\": \"{}\", \"mode\": \"{}\", \"count\": {}, \"p50\": {}, \
             \"p90\": {}, \"p99\": {}}}",
            cs.class.label(),
            cs.mode_label(),
            cs.hist.count,
            cs.hist.p50_us(),
            cs.hist.p90_us(),
            cs.hist.p99_us()
        );
        json.push_str(if i + 1 < metrics.hists.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tcp.json");
    std::fs::write(path, &json).expect("write BENCH_tcp.json");
    println!("wrote {path}");

    // The full snapshot (schema: README "Observability") for dashboards
    // and the bench.sh summary.
    let mpath = concat!(env!("CARGO_MANIFEST_DIR"), "/../../metrics.json");
    std::fs::write(mpath, metrics.render_json()).expect("write metrics.json");
    println!("wrote {mpath}");
}
