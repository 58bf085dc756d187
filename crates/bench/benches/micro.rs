//! Criterion micro-benchmarks for the substrate data structures: the
//! run-length diff machinery (the DUQ's hot path), the twin store, the
//! receiver-side reorder buffer, vector clocks, the address-space
//! translation Ivy performs on every access — and the typed zero-copy
//! access path (time *and* allocations per access, measured on the native
//! backend).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use munin_api::native::{NativeCtx, NativeWorld};
use munin_api::ParTyped;
use munin_check::VectorClock;
use munin_mem::{AddressSpace, Diff, TwinStore};
use munin_types::{AllocPolicy, ByteRange, ObjectId, SharedArray, SharingType, ThreadId};

/// Counts heap allocations so the typed access bench reports allocations
/// per access, not just time.
#[path = "../../mem/testsupport/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocs_of, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Typed zero-copy access on the native backend (no simulator in the way,
/// so the measurement isolates the API layer itself), plus the assertion
/// that bulk typed access into caller buffers never allocates.
fn bench_typed_api(c: &mut Criterion) {
    const N: u32 = 256; // elements per bulk op
    let world = NativeWorld::new([(ObjectId(0), N as usize * 8)], 0, &[], 0, 1);
    let mut par = NativeCtx::new(world, 0);
    let arr: SharedArray<f64> = SharedArray::from_raw(ObjectId(0), N, SharingType::WriteMany);
    let vals = vec![1.5f64; N as usize];
    let mut buf = vec![0f64; N as usize];

    par.write_from(&arr, 0, &vals);
    let typed_allocs = allocs_of(|| {
        par.write_from(&arr, 0, black_box(&vals));
        par.read_into(&arr, 0, black_box(&mut buf));
    });
    println!(
        "alloc  typed zero-copy path                             ... {typed_allocs:>10} allocs / {N}-element read+write round"
    );
    assert_eq!(typed_allocs, 0, "typed bulk access into caller buffers is allocation-free");

    let mut g = c.benchmark_group("access256xf64");
    g.bench_function("typed_read_into", |b| {
        b.iter(|| par.read_into(black_box(&arr), 0, black_box(&mut buf)))
    });
    g.bench_function("typed_write_from", |b| {
        b.iter(|| par.write_from(black_box(&arr), 0, black_box(&vals)))
    });
    g.bench_function("typed_get_single", |b| b.iter(|| black_box(par.get(black_box(&arr), 17))));
    g.finish();
}

fn bench_diff(c: &mut Criterion) {
    let mut g = c.benchmark_group("diff");
    for size in [1024usize, 16 * 1024] {
        let old = vec![0u8; size];
        // 10% of bytes changed in 16-byte runs.
        let mut new = old.clone();
        let mut i = 0;
        while i < size {
            for b in new[i..(i + 16).min(size)].iter_mut() {
                *b = 1;
            }
            i += 160;
        }
        g.bench_with_input(BenchmarkId::new("between", size), &size, |b, _| {
            b.iter(|| Diff::between(black_box(&old), black_box(&new)))
        });
        let d = Diff::between(&old, &new);
        g.bench_with_input(BenchmarkId::new("apply", size), &size, |b, _| {
            let mut target = old.clone();
            b.iter(|| d.apply(black_box(&mut target)))
        });
        g.bench_with_input(BenchmarkId::new("wire_bytes", size), &size, |b, _| {
            b.iter(|| black_box(&d).wire_bytes())
        });
    }
    g.finish();
}

fn bench_twins(c: &mut Criterion) {
    // Two sparse writes to a 4 KiB object: snapshot the written ranges,
    // then produce the flush diff (the per-object cost of one DUQ cycle).
    c.bench_function("twin 2 writes+diff 4KiB", |b| {
        let data = vec![7u8; 4096];
        let mut dirty = data.clone();
        dirty[100] = 1;
        dirty[2000] = 2;
        b.iter(|| {
            let mut t = TwinStore::new();
            t.note_write(ObjectId(1), ByteRange::new(100, 1), black_box(&data));
            t.note_write(ObjectId(1), ByteRange::new(2000, 1), black_box(&data));
            t.take_diff(ObjectId(1), black_box(&dirty))
        })
    });
}

fn bench_reorder(c: &mut Criterion) {
    c.bench_function("reorder in-order x256", |b| {
        b.iter(|| {
            let mut rb = munin_net::ReorderBuffer::new();
            for i in 0..256u64 {
                black_box(rb.offer(i, i));
            }
        })
    });
    c.bench_function("reorder reversed x64", |b| {
        b.iter(|| {
            let mut rb = munin_net::ReorderBuffer::new();
            for i in (0..64u64).rev() {
                black_box(rb.offer(i, i));
            }
        })
    });
}

fn bench_vclock(c: &mut Criterion) {
    c.bench_function("vclock join+leq 16 threads", |b| {
        let mut a = VectorClock::new(16);
        let mut d = VectorClock::new(16);
        for i in 0..16 {
            a.tick(ThreadId(i));
            d.tick(ThreadId(15 - i));
        }
        b.iter(|| {
            let mut j = a.clone();
            j.join(black_box(&d));
            black_box(j.leq(&a))
        })
    });
}

/// The async token plumbing on the native backend, where every op
/// completes inline and hands back a ready token: issue+redeem vs the
/// plain blocking call isolates the cost of the token wrapper itself
/// (state wrap, redeem dispatch) from any fabric latency it hides.
fn bench_token_path(c: &mut Criterion) {
    let world = NativeWorld::new([(ObjectId(0), 8 * 8)], 0, &[], 0, 1);
    let mut par = NativeCtx::new(world, 0);
    let arr: SharedArray<i64> = SharedArray::from_raw(ObjectId(0), 8, SharingType::WriteMany);
    let mut g = c.benchmark_group("token_path");
    g.bench_function("set blocking", |b| b.iter(|| par.set(&arr, 0, black_box(1i64))));
    g.bench_function("set_async + wait", |b| {
        b.iter(|| {
            let t = par.set_async(&arr, 0, black_box(1i64));
            par.wait(t)
        })
    });
    g.finish();
}

fn bench_addr(c: &mut Criterion) {
    let mut space = AddressSpace::new(1024, AllocPolicy::Packed);
    for i in 0..64 {
        space.place(ObjectId(i), 300);
    }
    c.bench_function("addr pieces (straddling)", |b| {
        b.iter(|| space.pieces(black_box(ObjectId(10)), black_box(ByteRange::new(100, 180))))
    });
}

criterion_group!(
    benches,
    bench_typed_api,
    bench_diff,
    bench_twins,
    bench_reorder,
    bench_vclock,
    bench_addr,
    bench_token_path
);
criterion_main!(benches);
