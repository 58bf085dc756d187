//! Direct tests of kernel facilities that the protocol crates exercise only
//! indirectly: server timers, tracer hooks, multicast accounting, and the
//! registry.

use munin_net::{MsgClass, PayloadInfo};
use munin_sim::{
    DsmOp, DsmThread, KernelApi, NullTracer, OpOutcome, OpResult, Server, TraceEvent, Tracer,
    TransportConfig, World, WorldDesc,
};
use munin_types::{ByteRange, CostModel, NodeId, ObjectId, ThreadId, VirtualTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone)]
struct Ping;

impl PayloadInfo for Ping {
    fn class(&self) -> MsgClass {
        MsgClass::Control
    }
    fn kind(&self) -> &'static str {
        "Ping"
    }
    fn wire_bytes(&self) -> usize {
        0
    }
}

/// A server that completes reads only after a chain of timers: tests
/// set_timer/on_timer plumbing and virtual-time spacing.
struct TimerServer {
    node: NodeId,
    pending: Option<ThreadId>,
    fired: Arc<Mutex<Vec<(u64, u64)>>>, // (token, at_us)
}

impl Server for TimerServer {
    type Payload = Ping;

    fn on_op(&mut self, k: &mut dyn KernelApi<Ping>, thread: ThreadId, op: DsmOp) -> OpOutcome {
        match op {
            DsmOp::Read { .. } => {
                self.pending = Some(thread);
                k.set_timer(self.node, 100, 1);
                OpOutcome::Blocked
            }
            _ => OpOutcome::unit(0),
        }
    }

    fn on_message(&mut self, _k: &mut dyn KernelApi<Ping>, _f: NodeId, _p: Ping) {}

    fn on_timer(&mut self, k: &mut dyn KernelApi<Ping>, token: u64) {
        self.fired.lock().unwrap().push((token, k.now().as_micros()));
        if token < 3 {
            k.set_timer(self.node, 100, token + 1);
        } else if let Some(t) = self.pending.take() {
            k.complete(t, OpResult::Bytes(vec![7]), 0);
        }
    }
}

#[test]
fn timers_chain_with_exact_virtual_spacing() {
    let fired = Arc::new(Mutex::new(Vec::new()));
    let mut b = WorldDesc::new(1);
    b.spawn(NodeId(0), |ctx: &mut dyn DsmThread| {
        let v = ctx.read(ObjectId(0), ByteRange::new(0, 1));
        assert_eq!(v, vec![7]);
    });
    let servers = vec![TimerServer { node: NodeId(0), pending: None, fired: fired.clone() }];
    let report = World::new(b, servers, TransportConfig::default(), Box::new(NullTracer)).run();
    report.assert_clean();
    let fired = fired.lock().unwrap();
    assert_eq!(fired.len(), 3);
    assert_eq!(fired[0], (1, 100));
    assert_eq!(fired[1], (2, 200));
    assert_eq!(fired[2], (3, 300));
}

/// A tracer capturing message kinds, validating the tracer hook sees sends.
struct KindTracer {
    ops: Arc<AtomicU64>,
    msgs: Arc<AtomicU64>,
}

impl Tracer for KindTracer {
    fn record(&mut self, event: TraceEvent<'_>) {
        match event {
            TraceEvent::OpIssued { .. } => {
                self.ops.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::MessageSent { kind, .. } => {
                assert_eq!(kind, "Ping");
                self.msgs.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::OpCompleted { .. } => {}
        }
    }
}

/// Server: every read pings the other node, which bounces the ping back;
/// two messages per read. Waiters complete FIFO.
struct PingServer {
    node: NodeId,
    waiting: std::collections::VecDeque<ThreadId>,
}

impl PingServer {
    fn new(node: NodeId) -> Self {
        PingServer { node, waiting: std::collections::VecDeque::new() }
    }
}

impl Server for PingServer {
    type Payload = Ping;

    fn on_op(&mut self, k: &mut dyn KernelApi<Ping>, thread: ThreadId, op: DsmOp) -> OpOutcome {
        match op {
            DsmOp::Read { .. } => {
                self.waiting.push_back(thread);
                k.send(self.node, NodeId(1 - self.node.0), Ping);
                OpOutcome::Blocked
            }
            _ => OpOutcome::unit(0),
        }
    }

    fn on_message(&mut self, k: &mut dyn KernelApi<Ping>, from: NodeId, _p: Ping) {
        if let Some(t) = self.waiting.pop_front() {
            k.complete(t, OpResult::Bytes(vec![1]), 0);
        } else {
            k.send(self.node, from, Ping);
        }
    }
}

#[test]
fn tracer_sees_every_op_and_message() {
    let ops = Arc::new(AtomicU64::new(0));
    let msgs = Arc::new(AtomicU64::new(0));
    let mut b = WorldDesc::new(2);
    b.spawn(NodeId(0), |ctx: &mut dyn DsmThread| {
        for _ in 0..3 {
            ctx.read(ObjectId(0), ByteRange::new(0, 1));
        }
    });
    let tracer = Box::new(KindTracer { ops: ops.clone(), msgs: msgs.clone() });
    let servers = vec![PingServer::new(NodeId(0)), PingServer::new(NodeId(1))];
    let report = World::new(b, servers, TransportConfig::default(), tracer).run();
    report.assert_clean();
    assert_eq!(msgs.load(Ordering::Relaxed), 6, "2 pings per read");
    // 3 reads + 1 exit op.
    assert_eq!(ops.load(Ordering::Relaxed), 4);
}

#[test]
fn serialized_medium_stretches_completion_time() {
    let run = |serialize: bool| {
        let mut cfg = TransportConfig::lossless(CostModel::ethernet_1990());
        cfg.serialize_medium = serialize;
        let mut b = WorldDesc::new(2);
        // Two concurrent requesters saturate the wire.
        for _ in 0..2 {
            b.spawn(NodeId(0), |ctx: &mut dyn DsmThread| {
                for _ in 0..5 {
                    ctx.read(ObjectId(0), ByteRange::new(0, 1));
                }
            });
        }
        let servers = vec![PingServer::new(NodeId(0)), PingServer::new(NodeId(1))];
        World::new(b, servers, cfg, Box::new(NullTracer)).run()
    };
    let free = run(false);
    let shared = run(true);
    assert_eq!(free.stats.messages, shared.stats.messages);
    assert!(
        shared.finished_at > free.finished_at,
        "a shared half-duplex medium must stretch the schedule ({} vs {})",
        shared.finished_at,
        free.finished_at
    );
}

#[test]
fn registry_assigns_dense_ids_and_survives_retype() {
    let mut b = WorldDesc::new(1);
    let d1 = munin_types::ObjectDecl::new(
        ObjectId(0),
        "a",
        8,
        munin_types::SharingType::WriteMany,
        NodeId(0),
    );
    let id1 = b.declare(d1.clone(), NodeId(0));
    let id2 = b.declare(d1, NodeId(0));
    assert_eq!(id1, ObjectId(0));
    assert_eq!(id2, ObjectId(1));
    b.spawn(NodeId(0), |ctx: &mut dyn DsmThread| ctx.compute(1));
    let servers = vec![TimerServer {
        node: NodeId(0),
        pending: None,
        fired: Arc::new(Mutex::new(Vec::new())),
    }];
    let report = World::new(b, servers, TransportConfig::default(), Box::new(NullTracer)).run();
    report.assert_clean();
    assert_eq!(report.finished_at, VirtualTime::micros(1));
}
