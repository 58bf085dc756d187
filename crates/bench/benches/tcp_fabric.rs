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
    Backend, ComputeMode, MetricsSnapshot, ParTyped, ProgramBuilder, RtTuning, Telemetry,
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

/// (total DSM ops, wall seconds) for `workers` fetch-add hammers.
/// `pipelined` issues the adds asynchronously (window bounded by
/// `munin_rt::MAX_INFLIGHT`) and redeems every token at the end; otherwise
/// each add blocks for its reply.
fn run_counter(workers: usize, backend: Backend, pipelined: bool) -> (u64, f64) {
    let mut p = ProgramBuilder::new(workers);
    p.rt_tuning(tuning());
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
    let out = p.run(Backend::tcp(MuninConfig::default()));
    out.assert_clean();
    out.metrics().expect("spans mode fills RunReport::metrics").clone()
}

struct Row {
    workers: usize,
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
    p.run(Backend::tcp(MuninConfig::default())).assert_clean();
    verify();

    let mut rows = Vec::new();
    for workers in [2usize, 4] {
        let (ops, rt_wall) = run_counter(workers, Backend::rt(MuninConfig::default()), false);
        let (_, tcp_wall) = run_counter(workers, Backend::tcp(MuninConfig::default()), false);
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

    // The same 4-worker hammer pipelined: every add issued async, at most
    // `MAX_INFLIGHT` in flight per thread, all tokens redeemed at the end.
    let blocking = rows.last().expect("4-worker counter row");
    let (ops, rt_wall) = run_counter(4, Backend::rt(MuninConfig::default()), true);
    let (_, tcp_wall) = run_counter(4, Backend::tcp(MuninConfig::default()), true);
    let pipe = Row { workers: 4, rt_ops_s: ops as f64 / rt_wall, tcp_ops_s: ops as f64 / tcp_wall };
    let pipe_gain = pipe.tcp_ops_s / blocking.tcp_ops_s;
    println!(
        "pipelined {}w MuninRt {:>9.0} ops/s | MuninTcp {:>9.0} ops/s | tcp vs blocking {:>5.2}x",
        pipe.workers, pipe.rt_ops_s, pipe.tcp_ops_s, pipe_gain,
    );
    // The op gate overlaps each thread's fetch-adds to the remote home, so
    // the window amortizes the home round trip too, not only the forward
    // and resume legs: even a 2-core host clears 3.5x, and the bar holds
    // on every host.
    assert!(
        pipe_gain >= 2.0,
        "pipelining should at least double MuninTcp ops/s over the blocking hammer: \
         {:.0} vs {:.0}",
        pipe.tcp_ops_s,
        blocking.tcp_ops_s
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
    let mut proto_rows: Vec<(String, f64, NetStats)> = Vec::new();
    for backend in &tcp_backends {
        let name = backend.name();
        let (ops, wall) = run_counter(4, backend.clone(), false);
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

    let (bytes, rt_bulk) = run_bulk(4, Backend::rt(MuninConfig::default()));
    let (tcp_bytes, tcp_bulk) = run_bulk(4, Backend::tcp(MuninConfig::default()));
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
        "  \"pipelined_4w\": {{\"munin_rt_ops_per_s\": {:.0}, \"munin_tcp_ops_per_s\": {:.0}, \
         \"tcp_over_blocking\": {pipe_gain:.3}}},",
        pipe.rt_ops_s, pipe.tcp_ops_s
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
