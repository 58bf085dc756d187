//! Typed access on the native backend allocates nothing: `NativeCtx`
//! copies straight between the caller's buffer and the object, so the
//! typed layer's bulk accessors (`write_from` / `read_into`) and its
//! single-element ones (`get` / `set`) make no heap allocation per call.

#[path = "../../mem/testsupport/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs_of, CountingAlloc};
use munin_api::native::{NativeCtx, NativeWorld};
use munin_api::ParTyped;
use munin_sim::WorldDesc;
use munin_types::{NodeId, ObjectDecl, ObjectId, SharedArray, SharingType, SyncDecls, ThreadId};
use std::hint::black_box;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const N: u32 = 256;

/// A native thread context over one array of `N` `f64`s.
fn native_array() -> (NativeCtx, SharedArray<f64>) {
    let mut desc = WorldDesc::new(1);
    let decl = ObjectDecl::new(ObjectId(0), "arr", N * 8, SharingType::WriteMany, NodeId(0));
    let id = desc.declare(decl, NodeId(0));
    let ctx =
        NativeCtx::new(NativeWorld::new(&desc, &SyncDecls::default()), ThreadId(0), NodeId(0));
    (ctx, SharedArray::from_raw(id, N, SharingType::WriteMany))
}

#[test]
fn bulk_typed_access_into_caller_buffers_makes_no_allocation() {
    let (mut par, arr) = native_array();
    let vals: Vec<f64> = (0..N).map(f64::from).collect();
    let mut buf = vec![0f64; N as usize];
    let allocs = allocs_of(|| {
        par.write_from(&arr, 0, black_box(&vals));
        par.read_into(&arr, 0, black_box(&mut buf));
    });
    assert_eq!(buf, vals, "the round trip must carry the data");
    assert_eq!(allocs, 0, "a {N}-element write_from + read_into round allocated");
}

#[test]
fn single_element_typed_access_makes_no_allocation() {
    let (mut par, arr) = native_array();
    let mut got = 0.0;
    let allocs = allocs_of(|| {
        par.set(&arr, 17, black_box(2.5));
        got = par.get(&arr, black_box(17));
    });
    assert_eq!(got, 2.5);
    assert_eq!(allocs, 0, "a set + get pair allocated");
}
