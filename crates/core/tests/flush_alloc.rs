//! Allocation regression tests for the zero-clone flush pipeline.
//!
//! The Munin performance claim is that a flush costs O(bytes written):
//! dirty-range twins snapshot only written ranges, flush-time diffing scans
//! only those ranges, and the working copy / diff payloads are never cloned
//! whole. These tests pin that down with a counting global allocator: a
//! flush of a 1 MiB object with one dirty byte must not perform a single
//! full-object-sized allocation.

use munin_core::{MuninServer, SyncDecls};
use munin_sim::{DsmThread, NullTracer, RunReport, TransportConfig, World, WorldDesc};
use munin_types::{ByteRange, MuninConfig, NodeId, ObjectDecl, ObjectId, SharingType};

#[path = "../../mem/testsupport/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{big_allocs, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MIB: u32 = 1 << 20;

/// `big_allocs` is process-wide (an application thread reads it about work
/// its server does on another thread), so a world run in parallel would
/// leak its legitimate full-object transfer into the other's window: one
/// world at a time.
static ONE_WORLD: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn run_world(
    n_nodes: usize,
    cfg: MuninConfig,
    sync: SyncDecls,
    setup: impl FnOnce(&mut WorldDesc),
) -> RunReport {
    let _alone = ONE_WORLD.lock().unwrap_or_else(|p| p.into_inner());
    let mut b = WorldDesc::new(n_nodes);
    setup(&mut b);
    let servers: Vec<MuninServer> = (0..n_nodes)
        .map(|i| MuninServer::new(NodeId(i as u16), cfg.clone(), sync.clone()))
        .collect();
    World::new(b, servers, TransportConfig::default(), Box::new(NullTracer)).run()
}

/// One dirty byte in a 1 MiB write-many object: installing the replica is
/// allowed to move the object once (that *is* the data transfer), but the
/// write + flush afterwards must not allocate anything object-sized — no
/// full twin, no working-copy clone, no payload deep-clone.
#[test]
fn sparse_flush_of_1mib_object_is_clone_free() {
    let sync = SyncDecls::round_robin(0, 1, 1, 2);
    let report = run_world(2, MuninConfig::default(), sync, |b| {
        let obj = b.declare(
            ObjectDecl::new(ObjectId(0), "big", MIB, SharingType::WriteMany, NodeId(0)),
            NodeId(0),
        );
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            // Fault the replica in (a legitimate full-object transfer).
            let v = ctx.read(obj, ByteRange::new(0, 64));
            assert_eq!(v, vec![0; 64]);

            let before = big_allocs();
            ctx.write(obj, 123_456, vec![7]);
            ctx.flush();
            let during = big_allocs() - before;
            assert_eq!(
                during, 0,
                "write+flush of 1 dirty byte in a 1 MiB object performed \
                 {during} full-object-sized allocation(s)"
            );

            // The replica stays valid across the flush (this reads our own
            // copy — the home-side application is verified by the
            // scattered test below, which reads from node 0) and
            // re-reading it allocates nothing big.
            let after_flush = big_allocs();
            let v = ctx.read(obj, ByteRange::new(123_456, 1));
            assert_eq!(v, vec![7]);
            assert_eq!(big_allocs() - after_flush, 0);
        });
    });
    report.assert_clean();
}

/// Same property for a scatter of writes: the flush cost tracks bytes
/// written (here 256 bytes across 32 runs), not object size.
#[test]
fn scattered_flush_of_1mib_object_is_clone_free() {
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let report = run_world(2, MuninConfig::default(), sync, |b| {
        let obj = b.declare(
            ObjectDecl::new(ObjectId(0), "big", MIB, SharingType::WriteMany, NodeId(0)),
            NodeId(0),
        );
        b.spawn(NodeId(1), move |ctx: &mut dyn DsmThread| {
            let _ = ctx.read(obj, ByteRange::new(0, 8));
            let before = big_allocs();
            for i in 0..32u32 {
                // 32 runs of 8 bytes, 32 KiB apart.
                ctx.write(obj, i * 32 * 1024, vec![i as u8 + 1; 8]);
            }
            ctx.flush();
            let during = big_allocs() - before;
            assert_eq!(
                during, 0,
                "scattered 256-byte flush performed {during} full-object-sized allocation(s)"
            );
            ctx.barrier(munin_types::BarrierId(0));
        });
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            // Node 0 only verifies the result afterwards; the barrier
            // sequences it behind node 1's flush.
            ctx.barrier(munin_types::BarrierId(0));
            let v = ctx.read(obj, ByteRange::new(31 * 32 * 1024, 8));
            assert_eq!(v, vec![32; 8]);
        });
    });
    report.assert_clean();
}
