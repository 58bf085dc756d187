//! The flush-pipeline benchmark: diff throughput and end-to-end flush cost
//! for sparse writes to large objects.
//!
//! Three diff strategies over the same workload (a 1 MiB object with a
//! handful of dirty bytes):
//!
//! * `naive_full_scan` — the pre-dirty-range algorithm: byte-at-a-time
//!   comparison of the whole object against a full twin, one payload
//!   allocation per run;
//! * `word_full_scan`  — [`Diff::between`]: still whole-object, but the
//!   unchanged stretches are skipped eight bytes per compare and runs share
//!   one payload buffer;
//! * `dirty_range`     — [`TwinStore::take_diff`]: only the byte ranges the
//!   writes touched are snapshotted and scanned, so cost is O(bytes
//!   written) regardless of object size.
//!
//! A counting global allocator verifies the zero-clone claim end-to-end: a
//! sparse flush round through the full Munin runtime performs **zero**
//! full-object-sized allocations.
//!
//! Besides the criterion timings, the benchmark measures throughput and
//! per-flush latency directly and writes `BENCH_flush.json` at the
//! workspace root (see `scripts/bench.sh`) — the perf trajectory's first
//! data point. It asserts the acceptance floor: word-scan ≥ 4x naive on
//! sparse 1 MiB diffs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use munin_api::{Backend, Par, ParTyped, ProgramBuilder};
use munin_mem::{Diff, TwinStore};
use munin_types::{ByteRange, MuninConfig, ObjectId, SharingType};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[path = "../../mem/testsupport/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{big_allocs, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const OBJ_BYTES: usize = 1 << 20;
/// 8 dirty runs of 8 bytes, spread across the object.
const DIRTY_RUNS: usize = 8;
const RUN_LEN: usize = 8;

/// The sparse-write workload: pristine 1 MiB buffer, working copy with
/// `DIRTY_RUNS` short runs changed, and the list of written ranges.
fn workload() -> (Vec<u8>, Vec<u8>, Vec<ByteRange>) {
    let old: Vec<u8> = (0..OBJ_BYTES).map(|i| (i % 251) as u8).collect();
    let mut new = old.clone();
    let mut ranges = Vec::new();
    for r in 0..DIRTY_RUNS {
        let start = r * (OBJ_BYTES / DIRTY_RUNS) + 1000 + 13 * r;
        for b in &mut new[start..start + RUN_LEN] {
            *b = b.wrapping_add(1);
        }
        ranges.push(ByteRange::new(start as u32, RUN_LEN as u32));
    }
    (old, new, ranges)
}

/// The pre-PR diff inner loop, verbatim: byte-at-a-time scan, one payload
/// vector per run. Kept here as the baseline the speedup is measured
/// against.
fn naive_between(old: &[u8], new: &[u8]) -> Vec<(ByteRange, Vec<u8>)> {
    let mut runs = Vec::new();
    let mut i = 0usize;
    let n = new.len();
    while i < n {
        if old[i] != new[i] {
            let start = i;
            while i < n && old[i] != new[i] {
                i += 1;
            }
            runs.push((ByteRange::new(start as u32, (i - start) as u32), new[start..i].to_vec()));
        } else {
            i += 1;
        }
    }
    runs
}

/// Time `f` in a repeat loop for ~`budget_ms`, returning ns per call.
fn time_ns(budget_ms: u64, mut f: impl FnMut()) -> f64 {
    // Warm up.
    f();
    let budget = std::time::Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget {
        f();
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / (ns / 1e9) / 1e6
}

/// One end-to-end program: 2 nodes, a 1 MiB write-many array; node 1
/// installs a replica, then runs `rounds` sparse write+flush rounds.
/// Returns (ns per flush round, big allocations per flush round).
fn e2e_flush(rounds: u32) -> (f64, f64) {
    let timing: Arc<Mutex<(f64, f64)>> = Arc::new(Mutex::new((0.0, 0.0)));
    let timing2 = timing.clone();
    let mut p = ProgramBuilder::new(2);
    let arr = p.array::<i64>("big", (OBJ_BYTES / 8) as u32, SharingType::WriteMany, 0);
    p.thread(1, move |par: &mut dyn Par| {
        let _ = par.get(&arr, 0); // install the replica (the one real transfer)
        let before_allocs = big_allocs();
        let start = Instant::now();
        for round in 0..rounds {
            for r in 0..DIRTY_RUNS as u32 {
                let idx = r * (OBJ_BYTES as u32 / 8 / DIRTY_RUNS as u32) + 125 + r;
                par.set(&arr, idx, (round + r) as i64);
            }
            par.flush();
        }
        let ns = start.elapsed().as_nanos() as f64 / rounds as f64;
        let allocs = (big_allocs() - before_allocs) as f64 / rounds as f64;
        *timing2.lock().unwrap() = (ns, allocs);
    });
    p.run(Backend::sim(MuninConfig::default())).assert_clean();
    let t = *timing.lock().unwrap();
    t
}

/// Direct measurement + acceptance assertions + BENCH_flush.json.
fn measure_and_record(c: &mut Criterion) {
    let (old, new, ranges) = workload();
    let dirty_bytes: usize = ranges.iter().map(|r| r.len as usize).sum();

    let naive_ns = time_ns(300, || {
        black_box(naive_between(black_box(&old), black_box(&new)));
    });
    let word_ns = time_ns(300, || {
        black_box(Diff::between(black_box(&old), black_box(&new)));
    });
    // Dirty-range path: note_write + take_diff per round, exactly what the
    // runtime does between two synchronizations.
    let obj = ObjectId(1);
    let dirty_ns = time_ns(300, || {
        let mut t = TwinStore::new();
        for r in &ranges {
            t.note_write(obj, *r, black_box(&old));
        }
        black_box(t.take_diff(obj, black_box(&new)));
    });

    // Sanity: all three see the same changes.
    let d = Diff::between(&old, &new);
    assert_eq!(d.data_bytes(), dirty_bytes);
    assert_eq!(d.run_count(), DIRTY_RUNS);
    assert_eq!(naive_between(&old, &new).len(), DIRTY_RUNS);

    let word_speedup = naive_ns / word_ns;
    let dirty_speedup = naive_ns / dirty_ns;
    println!(
        "flush-diff 1MiB/{dirty_bytes}B dirty: naive {:.0} ns, word {:.0} ns ({word_speedup:.1}x), \
         dirty-range {:.0} ns ({dirty_speedup:.1}x)",
        naive_ns, word_ns, dirty_ns
    );
    assert!(
        word_speedup >= 4.0,
        "acceptance: word-at-a-time full scan must be >= 4x the naive byte scan \
         (got {word_speedup:.2}x)"
    );
    assert!(
        dirty_speedup > word_speedup,
        "dirty-range diffing must beat even the word-at-a-time full scan"
    );

    let (e2e_ns, e2e_big_allocs) = e2e_flush(200);
    println!(
        "flush-e2e 1MiB/{} runs dirty: {:.0} ns/flush, {:.2} full-object allocs/flush",
        DIRTY_RUNS, e2e_ns, e2e_big_allocs
    );
    assert_eq!(
        e2e_big_allocs, 0.0,
        "acceptance: the end-to-end flush path must perform zero full-object-sized allocations"
    );

    let json = format!(
        "{{\n  \"bench\": \"flush\",\n  \"object_bytes\": {OBJ_BYTES},\n  \
         \"dirty_bytes\": {dirty_bytes},\n  \"dirty_runs\": {DIRTY_RUNS},\n  \
         \"naive_full_scan_ns\": {naive_ns:.1},\n  \"naive_full_scan_mb_s\": {:.1},\n  \
         \"word_full_scan_ns\": {word_ns:.1},\n  \"word_full_scan_mb_s\": {:.1},\n  \
         \"dirty_range_ns\": {dirty_ns:.1},\n  \
         \"speedup_word_vs_naive\": {word_speedup:.2},\n  \
         \"speedup_dirty_range_vs_naive\": {dirty_speedup:.2},\n  \
         \"e2e_flush_ns\": {e2e_ns:.1},\n  \"e2e_big_allocs_per_flush\": {e2e_big_allocs:.2}\n}}\n",
        mb_per_s(OBJ_BYTES, naive_ns),
        mb_per_s(OBJ_BYTES, word_ns),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_flush.json");
    std::fs::write(path, &json).expect("write BENCH_flush.json");
    println!("wrote {path}");

    // Criterion timings for the same three strategies.
    let mut g = c.benchmark_group("diff1MiB_sparse");
    g.bench_function("naive_full_scan", |b| {
        b.iter(|| naive_between(black_box(&old), black_box(&new)))
    });
    g.bench_function("word_full_scan", |b| {
        b.iter(|| Diff::between(black_box(&old), black_box(&new)))
    });
    g.bench_function("dirty_range", |b| {
        b.iter(|| {
            let mut t = TwinStore::new();
            for r in &ranges {
                t.note_write(obj, *r, black_box(&old));
            }
            t.take_diff(obj, black_box(&new))
        })
    });
    g.finish();
}

/// Criterion wrapper for the end-to-end flush program (includes world setup
/// and the initial 1 MiB replica install; the per-flush figure in
/// BENCH_flush.json isolates the rounds themselves).
fn bench_e2e(c: &mut Criterion) {
    let mut g = c.benchmark_group("flush_e2e_1MiB");
    g.sample_size(10);
    g.bench_function("64_sparse_rounds", |b| b.iter(|| e2e_flush(64)));
    g.finish();
}

criterion_group!(benches, measure_and_record, bench_e2e);
criterion_main!(benches);
