//! A write the combined write absorbs allocates nothing on the simulator's
//! client: its bytes go from the caller's slice straight into the combined
//! write, whose buffer is the only thing that grows.

#[path = "../../mem/testsupport/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs_of, CountingAlloc};
use munin_net::{MsgClass, PayloadInfo};
use munin_sim::{
    DsmOp, DsmThread, KernelApi, NullTracer, OpOutcome, Server, TransportConfig, World, WorldDesc,
};
use munin_types::{ByteRange, NodeId, ObjectId, ThreadId};
use std::hint::black_box;
use std::sync::{Arc, Mutex};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[derive(Debug, Clone)]
struct NoMsg;

impl PayloadInfo for NoMsg {
    fn class(&self) -> MsgClass {
        MsgClass::Control
    }
    fn kind(&self) -> &'static str {
        "NoMsg"
    }
    fn wire_bytes(&self) -> usize {
        0
    }
}

type Writes = Arc<Mutex<Vec<(ObjectId, ByteRange, Vec<u8>)>>>;

/// A server that completes every op at once and keeps the writes it sees.
struct WriteLog(Writes);

impl Server for WriteLog {
    type Payload = NoMsg;

    fn on_op(&mut self, _k: &mut dyn KernelApi<NoMsg>, _t: ThreadId, op: DsmOp) -> OpOutcome {
        if let DsmOp::Write { obj, range, data } = op {
            self.0.lock().unwrap().push((obj, range, data));
        }
        OpOutcome::unit(0)
    }

    fn on_message(&mut self, _k: &mut dyn KernelApi<NoMsg>, _f: NodeId, _p: NoMsg) {}
}

const STORES: u32 = 256;

/// 256 adjacent 8-byte stores to one array, as `set_async` issues them:
/// the combined buffer's first allocation and its doublings (9 for 2 KiB)
/// are all they may allocate, and the one write that leaves carries them.
#[test]
fn adjacent_async_stores_allocate_only_the_growing_combined_write() {
    let writes = Writes::default();
    let allocs = Arc::new(Mutex::new(None));
    let mut desc = WorldDesc::new(1);
    let seen = allocs.clone();
    desc.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
        let n = allocs_of(|| {
            for i in 0..STORES {
                let v = u64::from(i) * 3 + 1;
                let _ = ctx.write_raw_async(ObjectId(0), i * 8, black_box(&v.to_le_bytes()));
            }
        });
        *seen.lock().unwrap() = Some(n);
        ctx.drain_ops();
    });
    let report = World::new(
        desc,
        vec![WriteLog(writes.clone())],
        TransportConfig::default(),
        Box::new(NullTracer),
    )
    .run();
    report.assert_clean();
    let n = allocs.lock().unwrap().expect("the thread ran");
    assert!(n <= 12, "{STORES} absorbed stores made {n} allocations");
    let want: Vec<u8> = (0..STORES).flat_map(|i| (u64::from(i) * 3 + 1).to_le_bytes()).collect();
    let writes = writes.lock().unwrap();
    assert_eq!(writes.len(), 1, "the stores leave as one write");
    assert_eq!(writes[0], (ObjectId(0), ByteRange::new(0, STORES * 8), want));
}
