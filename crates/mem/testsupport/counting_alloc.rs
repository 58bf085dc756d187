//! A counting global allocator shared by the allocation-regression tests
//! and benches (included via `#[path]`, not a cargo dependency, because a
//! `#[global_allocator]` must be installed by each binary itself).
//!
//! Counts every allocation **per thread**, and process-wide those at or
//! above [`BIG`] — the "full-object copy" detector for the 1 MiB flush
//! workloads: 64 KiB is three orders of magnitude above any legitimate
//! per-flush allocation, so the threshold separates object clones from
//! ordinary bookkeeping with a huge margin.
//!
//! The two scopes follow their users. [`allocs_of`] asserts "this call
//! allocates nothing" about work done on the calling thread, so it must not
//! see what a test running in parallel on another thread allocates (with a
//! process-wide counter `crates/obs/tests/alloc.rs` failed about one run in
//! seven). [`big_allocs`] is read by an application thread about work its
//! node's server does on another thread, so it stays process-wide.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations of at least this size count as "big" (full-object copies in
/// the 1 MiB workloads).
pub const BIG: usize = 64 * 1024;

thread_local! {
    // Const-initialized and without a destructor: touching it from inside
    // the allocator neither allocates nor registers anything.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counters have no side effects
// on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note(size: usize) {
    // `try_with`: a thread may still free and allocate while its locals
    // are being torn down.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    if size >= BIG {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Allocations (of any size) the calling thread has made so far.
pub fn total_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Allocations of at least [`BIG`] bytes so far, by any thread.
pub fn big_allocs() -> u64 {
    BIG_ALLOCS.load(Ordering::Relaxed)
}

/// Allocations the calling thread performs while running `f`.
pub fn allocs_of(mut f: impl FnMut()) -> u64 {
    let before = total_allocs();
    f();
    total_allocs() - before
}
