//! The simulation world: the event queue, kernel services, and the
//! [`Server`] trait that coherence runtimes implement.
//!
//! One [`World`] = one distributed system: `n` nodes, each hosting one
//! protocol server and any number of application threads. The world owns a
//! virtual clock, an event queue and the op gate its threads' ops pass.
//! Application threads are fibers on the thread that calls [`World::run`],
//! so exactly one executes at a time. There is no loop thread: the world
//! state is a baton, and the thread holding it pops events until one
//! resumes a thread, then releases the baton and switches to that thread's
//! fiber. The run — message counts, interleavings, traces — is a
//! deterministic function of (program, configuration, seed).

use crate::client::Client;
use crate::desc::{ThreadBody, WorldDesc};
use crate::event::{EventKind, EventQueue};
use crate::fiber::Fibers;
use crate::gate::{GateKernel, OpGate};
use crate::kernel::{KernelApi, Registry};
use crate::op::{DsmOp, OpHead, OpOutcome, OpResult};
use crate::report::{RunReport, WaitTable};
use crate::thread::{torn_down, Baton, SimPort, ThreadCtx};
use crate::tracer::{TraceEvent, Tracer};
use crate::transport::{Transport, TransportConfig};
use munin_net::PayloadInfo;
use munin_types::{CostModel, NodeId, ObjectDecl, ObjectId, ThreadId, VirtualTime};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

/// A per-node coherence server: the software that the paper's page-fault
/// handler invokes ("the server checks what type of object the thread
/// faulted on and invokes the appropriate fault handler").
pub trait Server: Send {
    /// Protocol message type exchanged between servers.
    type Payload: PayloadInfo + Clone + Send + std::fmt::Debug + 'static;

    /// Handle an operation issued by a local application thread.
    ///
    /// Return [`OpOutcome::Done`] for local completion, or
    /// [`OpOutcome::Blocked`] and later call [`KernelApi::complete`] once the
    /// protocol finishes the fault.
    fn on_op(
        &mut self,
        kernel: &mut dyn KernelApi<Self::Payload>,
        thread: ThreadId,
        op: DsmOp,
    ) -> OpOutcome;

    /// Handle a protocol message from another node's server.
    fn on_message(
        &mut self,
        kernel: &mut dyn KernelApi<Self::Payload>,
        from: NodeId,
        payload: Self::Payload,
    );

    /// The peer an op of this kind completes through, when ops to that peer
    /// complete in issue order; the op gate ([`crate::OpGate`]) then lets
    /// several of one thread's ops to that peer be inside the server at
    /// once, on every fabric.
    ///
    /// `Some(p)` is a promise, for this `op` at this moment:
    /// * [`Server::on_op`] returns [`OpOutcome::Blocked`] after sending
    ///   exactly one request, to `p`;
    /// * the op completes only when this server handles `p`'s reply, and
    ///   `p` replies in request-arrival order (each node pair's stream is
    ///   FIFO, so replies come back in issue order);
    /// * the server keeps no per-thread state for the op.
    ///
    /// The default, `None`, keeps a thread's ops strictly one at a time.
    fn ordered_peer(
        &mut self,
        _kernel: &dyn KernelApi<Self::Payload>,
        _op: &DsmOp,
    ) -> Option<NodeId> {
        None
    }

    /// Handle a timer previously registered with [`KernelApi::set_timer`].
    fn on_timer(&mut self, _kernel: &mut dyn KernelApi<Self::Payload>, _token: u64) {}

    /// Describe internal state for the deadlock report (diagnostic only).
    fn debug_stuck_state(&self) -> String {
        String::new()
    }
}

struct ThreadRec {
    node: NodeId,
    /// The result an event resumed it with, until its fiber takes it.
    resumed: Option<OpResult>,
    done: bool,
    /// The call the thread last waited in, for a deadlock report.
    blocked_in: Option<&'static str>,
    /// When the thread's latest scheduled resume fires: a later op of the
    /// thread never resumes before it, whatever its own cost.
    last_resume: VirtualTime,
    /// Ops submitted whose result has not reached the thread yet.
    in_flight: u32,
    /// Its per-call waits, left here before its fiber's final hand-off.
    waits: WaitTable,
}

/// Kernel services available to servers while they handle ops, messages and
/// timers: the clock, the transport, the object-declaration registry, thread
/// placement, timers and error reporting.
pub struct Kernel<P: PayloadInfo + Clone> {
    now: VirtualTime,
    events: EventQueue,
    transport: Transport<P>,
    traffic: munin_net::NetTally,
    registry: Registry,
    threads: Vec<ThreadRec>,
    tracer: Box<dyn Tracer>,
    ops: u64,
    errors: Vec<String>,
    /// Held transmission attempts seen so far, and how many of them were
    /// held while some thread had two or more ops in flight.
    seen_drops: u64,
    pipelined_faults: u64,
    /// Protocol-state coverage recorder, when the run is instrumented
    /// (campaign explore mode attaches one through the world description).
    coverage: Option<std::sync::Arc<munin_obs::CoverageMap>>,
}

/// The virtual-time kernel: every send and timer becomes an event in the
/// queue, and the clock is the queue's.
impl<P: PayloadInfo + Clone> KernelApi<P> for Kernel<P> {
    fn now(&self) -> VirtualTime {
        self.now
    }

    fn cost(&self) -> &CostModel {
        self.transport.cost()
    }

    fn send(&mut self, src: NodeId, dst: NodeId, payload: P) {
        debug_assert_ne!(src, dst, "servers handle local work locally, not by self-send");
        self.tracer.record(TraceEvent::MessageSent {
            at: self.now,
            src,
            dst,
            class: payload.class(),
            kind: payload.kind(),
            bytes: payload.wire_bytes(),
        });
        self.transport.send(self.now, &mut self.events, &mut self.traffic, src, dst, payload);
    }

    /// Destination list order does not affect determinism (deliveries are
    /// scheduled in list order with stable tie-breaking).
    fn multicast(&mut self, src: NodeId, dsts: &[NodeId], payload: P) {
        for &d in dsts {
            self.tracer.record(TraceEvent::MessageSent {
                at: self.now,
                src,
                dst: d,
                class: payload.class(),
                kind: payload.kind(),
                bytes: payload.wire_bytes(),
            });
        }
        self.transport.multicast(self.now, &mut self.events, &mut self.traffic, src, dsts, payload);
    }

    /// The thread resumes `extra_cost_us` of virtual time from now.
    fn complete(&mut self, thread: ThreadId, result: OpResult, extra_cost_us: u64) {
        self.finish(thread, result, extra_cost_us);
    }

    fn set_timer(&mut self, node: NodeId, delay_us: u64, token: u64) {
        self.events.push(self.now + delay_us, EventKind::Timer { node, token });
    }

    fn register_decl(&mut self, decl: ObjectDecl, home: NodeId) -> ObjectId {
        self.registry.register_decl(decl, home)
    }

    fn decl(&self, obj: ObjectId) -> Option<ObjectDecl> {
        self.registry.decl(obj).cloned()
    }

    fn assoc_objects(&self, lock: munin_types::LockId) -> Vec<ObjectId> {
        self.registry.assoc_objects(lock)
    }

    fn retype(&mut self, obj: ObjectId, sharing: munin_types::SharingType) {
        self.registry.retype(obj, sharing);
    }

    fn registry_version(&self) -> u64 {
        self.registry.version()
    }

    fn error(&mut self, msg: String) {
        if std::env::var_os("MUNIN_DEBUG_ERRORS").is_some() {
            eprintln!("[kernel error] {msg}");
        }
        self.errors.push(msg);
    }

    fn coverage(&self) -> Option<&munin_obs::CoverageMap> {
        self.coverage.as_deref()
    }
}

/// An op is over when its result reaches the thread, so the modelled costs
/// of one thread's ops add up, as its one server would spend them.
impl<P: PayloadInfo + Clone> GateKernel<P> for Kernel<P> {
    /// Never before the thread's previous op: results reach it in order.
    fn finish(&mut self, thread: ThreadId, result: OpResult, cost_us: u64) -> bool {
        let rec = &mut self.threads[thread.index()];
        let at = (self.now + cost_us).max(rec.last_resume);
        rec.last_resume = at;
        self.events.push(at, EventKind::ThreadResume { thread, result });
        false
    }
}

impl<P: PayloadInfo + Clone> Kernel<P> {
    /// Count the transmission attempts held since the last call if some thread
    /// has two or more ops in flight. Called after every event and
    /// dispatch: the in-flight counts change only between them.
    fn note_drops(&mut self) {
        let dropped = self.traffic.stats.dropped;
        if dropped > self.seen_drops && self.threads.iter().any(|t| t.in_flight >= 2) {
            self.pipelined_faults += dropped - self.seen_drops;
        }
        self.seen_drops = dropped;
    }
}

/// A fully built distributed system, ready to run.
pub struct World<S: Server> {
    sim: Arc<Shared<S>>,
    bodies: Vec<(ThreadCtx, ThreadBody)>,
}

/// The baton, and the fibers it passes between: thread `t` runs on fiber
/// `t.index() + 1`, and `World::run`'s caller is context 0.
struct Shared<S: Server> {
    sim: Mutex<Sim<S>>,
    fibers: Fibers,
}

/// The world state: the baton that exactly one thread holds at a time.
struct Sim<S: Server> {
    kernel: Kernel<S::Payload>,
    servers: Vec<S>,
    gate: OpGate,
    /// Set when `World::run` tears the world down. A body that caught the
    /// teardown unwind and then exits must not touch the report.
    torn_down: bool,
    /// A protocol handler's panic, for `World::run` to rethrow.
    handler_panic: Option<Box<dyn Any + Send>>,
}

/// Take the baton. Every panic raised while it is held is caught by
/// [`Sim::guarded`], so the lock is never poisoned.
fn take<S: Server>(shared: &Shared<S>) -> MutexGuard<'_, Sim<S>> {
    shared.sim.lock().expect("a panic escaped while the baton was held")
}

/// Where a pass over the event queue leaves the thread that made it.
enum Handoff {
    /// An event resumed the calling thread itself, at this virtual µs.
    Mine(OpResult, u64),
    /// Switch to this fiber: a resumed thread's, or context 0's when the
    /// queue ran dry or a handler panicked.
    To(usize),
}

impl<S: Server> Shared<S> {
    /// End thread `me`'s pass (`None`: context 0's or an exiting thread's):
    /// `me`'s own result, or a switch to the fiber named (context 0 after a
    /// handler panic), never with the baton held, and then `me`'s result.
    fn hand_off(&self, me: Option<ThreadId>, pass: Option<Handoff>) -> Option<(OpResult, u64)> {
        match pass.unwrap_or(Handoff::To(0)) {
            Handoff::Mine(result, now) => Some((result, now)),
            Handoff::To(fiber) => {
                debug_assert!(self.sim.try_lock().is_ok(), "a fiber switch with the baton held");
                self.fibers.switch_to(fiber);
                me.map(|me| self.resumed(me))
            }
        }
    }
}

impl<S: Server> Baton for Shared<S> {
    fn begin(&self, thread: ThreadId, op: OpHead<'_>) {
        take(self).begin(thread, op);
    }

    fn submit(&self, thread: ThreadId, op: DsmOp) {
        if take(self).guarded(|sim| sim.submit(thread, op)).is_none() {
            self.hand_off(Some(thread), None);
        }
    }

    fn wait(&self, thread: ThreadId, label: &'static str) -> (OpResult, u64) {
        let pass = take(self).guarded(|sim| sim.wait(thread, label));
        self.hand_off(Some(thread), pass).expect("a thread's pass ends with its result")
    }

    fn call(&self, thread: ThreadId, op: DsmOp, label: &'static str) -> (OpResult, u64) {
        let pass = take(self).guarded(|sim| {
            sim.begin(thread, op.head());
            sim.submit(thread, op);
            sim.wait(thread, label)
        });
        self.hand_off(Some(thread), pass).expect("a thread's pass ends with its result")
    }

    /// No result means the world tore down.
    fn resumed(&self, thread: ThreadId) -> (OpResult, u64) {
        let (result, now) = {
            let mut sim = take(self);
            (sim.kernel.threads[thread.index()].resumed.take(), sim.kernel.now.as_micros())
        };
        (result.unwrap_or_else(|| torn_down()), now)
    }

    fn exit(&self, thread: ThreadId, panic: Option<String>, waits: WaitTable) {
        let pass = {
            let mut sim = take(self);
            sim.kernel.threads[thread.index()].waits = waits;
            if sim.torn_down {
                return;
            }
            sim.kernel.threads[thread.index()].done = true;
            if let Some(msg) = panic {
                sim.kernel.error(format!("{thread} panicked: {msg}"));
            }
            sim.guarded(|sim| sim.run_events(None))
        };
        // The final hand-off: it returns only at teardown.
        self.hand_off(None, pass);
    }
}

impl<S: Server> World<S> {
    /// The world `desc` describes, with one server per node (`servers[i]`
    /// serves `NodeId(i)`), over `transport`, recording into `tracer`.
    /// Threads start simultaneously at virtual time zero, in spawn order.
    pub fn new(
        desc: WorldDesc,
        servers: Vec<S>,
        transport: TransportConfig,
        tracer: Box<dyn Tracer>,
    ) -> Self
    where
        S: 'static,
    {
        let n_nodes = desc.n_nodes();
        assert_eq!(servers.len(), n_nodes, "need exactly one server per node");
        let n_threads = desc.n_threads();
        let sim = Mutex::new(Sim {
            kernel: Kernel {
                now: VirtualTime::ZERO,
                events: EventQueue::new(),
                transport: Transport::new(transport),
                traffic: munin_net::NetTally::new(),
                registry: Registry::new(desc.decls().iter().cloned()),
                threads: Vec::with_capacity(n_threads),
                tracer,
                ops: 0,
                errors: Vec::new(),
                seen_drops: 0,
                pipelined_faults: 0,
                coverage: desc.coverage().cloned(),
            },
            servers,
            gate: OpGate::default(),
            torn_down: false,
            handler_panic: None,
        });
        let sim = Arc::new(Shared { sim, fibers: Fibers::new(n_threads) });
        let mut bodies = Vec::with_capacity(n_threads);
        let mut state = take(&sim);
        let kernel = &mut state.kernel;
        for (thread, node, body) in desc.into_threads() {
            kernel.threads.push(ThreadRec {
                node,
                resumed: None,
                done: false,
                blocked_in: None,
                last_resume: VirtualTime::ZERO,
                in_flight: 0,
                waits: WaitTable::new(),
            });
            // All threads become runnable at t=0 in spawn order.
            kernel.events.push(
                VirtualTime::ZERO,
                EventKind::ThreadResume { thread, result: OpResult::Unit },
            );
            let port = SimPort { thread, baton: sim.clone(), now: 0 };
            bodies.push((Client::new(port, thread, node, n_nodes, n_threads), body));
        }
        drop(state);
        World { sim, bodies }
    }

    /// Run the world to completion: until every thread has exited and every
    /// in-flight message has been delivered. Returns the run report; the
    /// world (and its tracer) are consumed — retrieve tracer output via the
    /// tracer's own shared state.
    ///
    /// The application threads run as fibers on the calling thread (see
    /// [`crate::ThreadCtx`]), which starts the first one and is switched
    /// back to when the queue runs dry. A panicking protocol handler ends the
    /// run and is rethrown here, on the caller's thread, with its payload.
    pub fn run(self) -> RunReport {
        let World { sim, bodies } = self;
        let n_threads = bodies.len();
        for (ctx, body) in bodies {
            sim.fibers.spawn(move || ctx.run(body));
        }
        let pass = take(&sim).guarded(|sim| sim.run_events(None));
        sim.hand_off(None, pass);

        // Tear down: resume each fiber once more. A suspended or unstarted one
        // unwinds, an exited one returns from its final hand-off; each drops
        // its state before dropping the set unmaps the stacks.
        take(&sim).torn_down = true;
        for fiber in 1..=n_threads {
            sim.fibers.switch_to(fiber);
        }
        let Ok(Shared { sim, .. }) = Arc::try_unwrap(sim) else {
            unreachable!("every thread context is dropped once its fiber has finished")
        };
        let Sim { mut kernel, servers, handler_panic, .. } =
            sim.into_inner().expect("a panic escaped while the baton was held");
        if let Some(payload) = handler_panic {
            resume_unwind(payload);
        }

        let stats = kernel.traffic.take();
        if stats.gave_up > 0 {
            // A link fault outlasted the retry budget: messages were never
            // delivered, so protocol state may be inconsistent. The run must
            // not read as clean.
            kernel.error(format!(
                "transport gave up on {} message(s) held past the retry budget \
                 (link fault outlasted it)",
                stats.gave_up
            ));
        }

        let blocked: Vec<String> = kernel
            .threads
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.done)
            .map(|(i, r)| {
                let label = r.blocked_in.unwrap_or("<not blocked in an op>");
                format!("t{i} blocked in '{label}'")
            })
            .collect();
        let deadlocked = !blocked.is_empty();
        if deadlocked {
            kernel.error(format!(
                "deadlock: {} thread(s) still blocked with no pending events: {}",
                blocked.len(),
                blocked.join(", ")
            ));
            if std::env::var_os("MUNIN_DEBUG_ERRORS").is_some() {
                for (i, srv) in servers.iter().enumerate() {
                    let dump = srv.debug_stuck_state();
                    if !dump.is_empty() {
                        eprintln!("[deadlock dump n{i}] {dump}");
                    }
                }
            }
        }

        RunReport {
            finished_at: kernel.now,
            stats,
            ops: kernel.ops,
            thread_waits: kernel.threads.iter_mut().map(|r| std::mem::take(&mut r.waits)).collect(),
            errors: kernel.errors,
            deadlocked,
            pipelined_faults: kernel.pipelined_faults,
            wall: None,
            dumps: Vec::new(),
            metrics: None,
        }
    }
}

impl<S: Server> Sim<S> {
    /// Run `step` with the baton held. A protocol handler that panics ends
    /// the run: its payload is kept for `World::run` to rethrow, and the
    /// caller (`None`) switches to context 0 like any other thread.
    fn guarded<T>(&mut self, step: impl FnOnce(&mut Self) -> T) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(|| step(self))) {
            Ok(done) => Some(done),
            Err(payload) => {
                self.handler_panic = Some(payload);
                None
            }
        }
    }

    /// Count and trace an application call of `thread`'s.
    fn begin(&mut self, thread: ThreadId, op: OpHead<'_>) {
        let kernel = &mut self.kernel;
        kernel.ops += 1;
        let node = kernel.threads[thread.index()].node;
        kernel.tracer.record(TraceEvent::OpIssued { at: kernel.now, thread, node, op });
    }

    /// Offer `thread`'s op to the gate.
    fn submit(&mut self, thread: ThreadId, op: DsmOp) {
        let Sim { kernel, servers, gate, .. } = self;
        let rec = &mut kernel.threads[thread.index()];
        rec.in_flight += 1;
        let server = &mut servers[rec.node.index()];
        gate.offer(server, kernel, thread, op);
        kernel.note_drops();
    }

    /// `thread` waits in the call `label`: run events.
    fn wait(&mut self, thread: ThreadId, label: &'static str) -> Handoff {
        self.kernel.threads[thread.index()].blocked_in = Some(label);
        self.run_events(Some(thread))
    }

    /// Pop events in `(time, seq)` order until one resumes a thread. That
    /// thread gets the result directly if it is `me`, else in its record,
    /// switched to by the caller once it has released the baton; either
    /// way it dispatches its next op (or exits) before anything else is
    /// popped, since nobody else holds the baton. When the queue runs dry,
    /// switch back to `World::run`.
    fn run_events(&mut self, me: Option<ThreadId>) -> Handoff {
        while let Some(ev) = self.kernel.events.pop() {
            self.kernel.now = ev.at;
            match ev.kind {
                EventKind::ThreadResume { thread, result } => {
                    let rec = &mut self.kernel.threads[thread.index()];
                    // Any resume but the t=0 start ends an op: let the
                    // thread's next one in.
                    if rec.in_flight > 0 {
                        rec.in_flight -= 1;
                        let server = &mut self.servers[rec.node.index()];
                        self.gate.complete(server, &mut self.kernel, thread);
                    }
                    let rec = &mut self.kernel.threads[thread.index()];
                    if rec.done {
                        continue;
                    }
                    if me == Some(thread) {
                        return Handoff::Mine(result, ev.at.as_micros());
                    }
                    debug_assert!(rec.resumed.is_none(), "{thread} resumed twice");
                    rec.resumed = Some(result);
                    return Handoff::To(thread.index() + 1);
                }
                EventKind::Deliver { src, dst } => {
                    let mut first = true;
                    while let Some(payload) = self.kernel.transport.receive(src, dst, first) {
                        first = false;
                        self.servers[dst.index()].on_message(&mut self.kernel, src, payload);
                    }
                }
                EventKind::Timer { node, token } => {
                    self.servers[node.index()].on_timer(&mut self.kernel, token);
                }
            }
            self.kernel.note_drops();
        }
        Handoff::To(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::DsmThread;
    use crate::tracer::NullTracer;
    use munin_net::MsgClass;
    use munin_types::{ByteRange, SharingType};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// A toy protocol: every `Read` asks the remote node `1` for bytes; node
    /// 1 replies with the requested length filled with the request count.
    #[derive(Debug, Clone)]
    enum EchoMsg {
        Req { thread: ThreadId, len: u32 },
        Reply { thread: ThreadId, data: Vec<u8> },
    }

    impl PayloadInfo for EchoMsg {
        fn class(&self) -> MsgClass {
            match self {
                EchoMsg::Req { .. } => MsgClass::Control,
                EchoMsg::Reply { .. } => MsgClass::Data,
            }
        }
        fn kind(&self) -> &'static str {
            match self {
                EchoMsg::Req { .. } => "EchoReq",
                EchoMsg::Reply { .. } => "EchoReply",
            }
        }
        fn wire_bytes(&self) -> usize {
            match self {
                EchoMsg::Req { .. } => 0,
                EchoMsg::Reply { data, .. } => data.len(),
            }
        }
    }

    struct EchoServer {
        node: NodeId,
        served: u8,
    }

    impl Server for EchoServer {
        type Payload = EchoMsg;

        fn on_op(
            &mut self,
            k: &mut dyn KernelApi<EchoMsg>,
            thread: ThreadId,
            op: DsmOp,
        ) -> OpOutcome {
            match op {
                DsmOp::Read { range, .. } => {
                    if self.node == NodeId(1) {
                        // Local hit.
                        OpOutcome::done(OpResult::Bytes(vec![0; range.len as usize]), 1)
                    } else {
                        k.send(self.node, NodeId(1), EchoMsg::Req { thread, len: range.len });
                        OpOutcome::Blocked
                    }
                }
                DsmOp::Exit | DsmOp::Phase(_) | DsmOp::Flush => OpOutcome::unit(0),
                other => panic!("echo server got {other:?}"),
            }
        }

        fn on_message(&mut self, k: &mut dyn KernelApi<EchoMsg>, from: NodeId, payload: EchoMsg) {
            match payload {
                EchoMsg::Req { thread, len } => {
                    self.served += 1;
                    let data = vec![self.served; len as usize];
                    k.send(self.node, from, EchoMsg::Reply { thread, data });
                }
                EchoMsg::Reply { thread, data } => {
                    k.complete(thread, OpResult::Bytes(data), 10);
                }
            }
        }
    }

    /// `desc` on the default transport, without a tracer.
    fn build<S: Server + 'static>(desc: WorldDesc, servers: Vec<S>) -> World<S> {
        World::new(desc, servers, TransportConfig::default(), Box::new(NullTracer))
    }

    fn echo_world(bodies: Vec<(NodeId, ThreadBody)>) -> RunReport {
        let mut b = WorldDesc::new(2);
        for (node, body) in bodies {
            b.spawn(node, body);
        }
        let servers = vec![
            EchoServer { node: NodeId(0), served: 0 },
            EchoServer { node: NodeId(1), served: 0 },
        ];
        build(b, servers).run()
    }

    #[test]
    fn remote_read_round_trip_advances_virtual_time() {
        let got = Arc::new(AtomicU64::new(0));
        let got2 = got.clone();
        let report = echo_world(vec![(
            NodeId(0),
            Box::new(move |ctx: &mut dyn DsmThread| {
                let bytes = ctx.read(ObjectId(0), ByteRange::new(0, 4));
                got2.store(bytes[0] as u64, Ordering::SeqCst);
            }),
        )]);
        report.assert_clean();
        assert_eq!(got.load(Ordering::SeqCst), 1);
        assert_eq!(report.stats.messages, 2, "request + reply");
        // Two 1 ms-class messages: finishes at >= 2 ms of virtual time.
        assert!(report.finished_at.as_micros() >= 2_000, "{}", report.finished_at);
        assert_eq!(report.total_ops("read"), 1);
        assert!(report.total_wait_us("read") >= 2_000);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let report = echo_world(vec![
                (
                    NodeId(0),
                    Box::new(|ctx: &mut dyn DsmThread| {
                        for _ in 0..5 {
                            ctx.read(ObjectId(0), ByteRange::new(0, 64));
                            ctx.compute(100);
                        }
                    }) as ThreadBody,
                ),
                (
                    NodeId(0),
                    Box::new(|ctx: &mut dyn DsmThread| {
                        for _ in 0..3 {
                            ctx.read(ObjectId(0), ByteRange::new(0, 16));
                        }
                    }) as ThreadBody,
                ),
            ]);
            (report.finished_at, report.stats.messages, report.stats.bytes, report.ops)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn local_reads_send_no_messages() {
        let report = echo_world(vec![(
            NodeId(1),
            Box::new(|ctx: &mut dyn DsmThread| {
                for _ in 0..10 {
                    ctx.read(ObjectId(0), ByteRange::new(0, 8));
                }
            }),
        )]);
        report.assert_clean();
        assert_eq!(report.stats.messages, 0);
    }

    #[test]
    fn panicking_thread_is_reported_not_hung() {
        let report = echo_world(vec![(
            NodeId(0),
            Box::new(|_ctx: &mut dyn DsmThread| {
                panic!("application bug!");
            }),
        )]);
        assert!(!report.is_clean());
        assert!(report.errors[0].contains("application bug"), "{:?}", report.errors);
        assert!(!report.deadlocked);
    }

    /// A server that never completes a read: the world must detect deadlock
    /// and tear down rather than hang the test process.
    struct BlackHoleServer;

    impl Server for BlackHoleServer {
        type Payload = EchoMsg;
        fn on_op(&mut self, _k: &mut dyn KernelApi<EchoMsg>, _t: ThreadId, op: DsmOp) -> OpOutcome {
            match op {
                DsmOp::Read { .. } => OpOutcome::Blocked,
                _ => OpOutcome::unit(0),
            }
        }
        fn on_message(&mut self, _k: &mut dyn KernelApi<EchoMsg>, _f: NodeId, _p: EchoMsg) {}
    }

    #[test]
    fn deadlock_is_detected_and_reported() {
        let mut b = WorldDesc::new(1);
        b.spawn(NodeId(0), |ctx: &mut dyn DsmThread| {
            ctx.read(ObjectId(0), ByteRange::new(0, 4));
        });
        let report = build(b, vec![BlackHoleServer]).run();
        assert!(report.deadlocked);
        assert!(report.errors.iter().any(|e| e.contains("deadlock")), "{:?}", report.errors);
        assert!(report.errors.iter().any(|e| e.contains("read")), "{:?}", report.errors);
    }

    /// Node 1's server panics on the first message it receives.
    struct PanickyServer {
        node: NodeId,
    }

    impl Server for PanickyServer {
        type Payload = EchoMsg;
        fn on_op(&mut self, k: &mut dyn KernelApi<EchoMsg>, t: ThreadId, op: DsmOp) -> OpOutcome {
            match op {
                DsmOp::Read { range, .. } => {
                    k.send(self.node, NodeId(1), EchoMsg::Req { thread: t, len: range.len });
                    OpOutcome::Blocked
                }
                _ => OpOutcome::unit(0),
            }
        }
        fn on_message(&mut self, _k: &mut dyn KernelApi<EchoMsg>, _f: NodeId, _p: EchoMsg) {
            panic!("handler bug");
        }
    }

    #[test]
    fn handler_panic_leaves_run_on_the_callers_thread_with_its_payload() {
        let mut b = WorldDesc::new(2);
        for _ in 0..3 {
            b.spawn(NodeId(0), |ctx: &mut dyn DsmThread| {
                ctx.read(ObjectId(0), ByteRange::new(0, 4));
            });
        }
        let world =
            build(b, vec![PanickyServer { node: NodeId(0) }, PanickyServer { node: NodeId(1) }]);
        let payload = catch_unwind(AssertUnwindSafe(|| world.run())).expect_err("run must panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"handler bug"));
    }

    /// Completes `BarrierWait` once all four threads of the world arrive.
    struct BarrierServer {
        waiting: Vec<ThreadId>,
    }

    impl Server for BarrierServer {
        type Payload = EchoMsg;
        fn on_op(&mut self, k: &mut dyn KernelApi<EchoMsg>, t: ThreadId, op: DsmOp) -> OpOutcome {
            match op {
                DsmOp::BarrierWait(_) => {
                    self.waiting.push(t);
                    if self.waiting.len() == 4 {
                        for w in self.waiting.drain(..) {
                            k.complete(w, OpResult::Unit, 0);
                        }
                    }
                    OpOutcome::Blocked
                }
                _ => OpOutcome::unit(0),
            }
        }
        fn on_message(&mut self, _k: &mut dyn KernelApi<EchoMsg>, _f: NodeId, _p: EchoMsg) {}
    }

    #[test]
    fn a_thread_panicking_before_a_barrier_reports_its_panic_and_the_deadlock_only() {
        let mut b = WorldDesc::new(1);
        for i in 0..4 {
            b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
                ctx.compute(10);
                if i == 2 {
                    panic!("boom");
                }
                ctx.barrier(munin_types::BarrierId(0));
            });
        }
        let report = build(b, vec![BarrierServer { waiting: Vec::new() }]).run();
        assert!(report.deadlocked);
        assert_eq!(report.errors.len(), 2, "{:?}", report.errors);
        assert_eq!(report.errors[0], "t2 panicked: boom");
        assert!(report.errors[1].starts_with("deadlock: 3 thread(s)"), "{:?}", report.errors);
    }

    #[test]
    fn declared_objects_are_visible_in_registry() {
        let mut b = WorldDesc::new(2);
        let decl = ObjectDecl::new(ObjectId(0), "m", 64, SharingType::WriteMany, NodeId(0));
        let id = b.declare(decl, NodeId(1));
        assert_eq!(id, ObjectId(0));
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            ctx.compute(1);
        });
        let w = build(
            b,
            vec![
                EchoServer { node: NodeId(0), served: 0 },
                EchoServer { node: NodeId(1), served: 0 },
            ],
        );
        let decl = take(&w.sim).kernel.decl(id).unwrap();
        assert_eq!(decl.home, NodeId(1));
        assert_eq!(decl.name, "m");
        let report = w.run();
        report.assert_clean();
    }

    #[test]
    fn compute_costs_virtual_time_without_server_involvement() {
        let report = echo_world(vec![(
            NodeId(0),
            Box::new(|ctx: &mut dyn DsmThread| {
                ctx.compute(12_345);
            }),
        )]);
        report.assert_clean();
        assert_eq!(report.stats.messages, 0);
        assert!(report.finished_at.as_micros() >= 12_345);
    }

    #[test]
    fn threads_interleave_by_virtual_time_not_spawn_order() {
        // Thread B (spawned second) does cheap ops; thread A does one huge
        // compute. B must finish long before A's op completes.
        let order = Arc::new(parking_lot_free_vec());
        let o1 = order.clone();
        let o2 = order.clone();
        let report = echo_world(vec![
            (
                NodeId(0),
                Box::new(move |ctx: &mut dyn DsmThread| {
                    ctx.compute(1_000_000);
                    o1.lock().unwrap().push('A');
                }),
            ),
            (
                NodeId(0),
                Box::new(move |ctx: &mut dyn DsmThread| {
                    ctx.compute(10);
                    o2.lock().unwrap().push('B');
                }),
            ),
        ]);
        report.assert_clean();
        assert_eq!(*order.lock().unwrap(), vec!['B', 'A']);
    }

    fn parking_lot_free_vec() -> std::sync::Mutex<Vec<char>> {
        std::sync::Mutex::new(Vec::new())
    }

    /// Serves a write at once with a modelled cost of 100 us, and a read
    /// with 1 us.
    struct Costs;

    impl Server for Costs {
        type Payload = EchoMsg;
        fn on_op(&mut self, _k: &mut dyn KernelApi<EchoMsg>, _t: ThreadId, op: DsmOp) -> OpOutcome {
            match op {
                DsmOp::Write { .. } => OpOutcome::unit(100),
                DsmOp::Read { range, .. } => {
                    OpOutcome::done(OpResult::Bytes(vec![0; range.len as usize]), 1)
                }
                _ => OpOutcome::unit(0),
            }
        }
        fn on_message(&mut self, _k: &mut dyn KernelApi<EchoMsg>, _f: NodeId, _p: EchoMsg) {}
    }

    #[test]
    fn a_later_op_with_a_cheaper_done_cost_resumes_after_the_earlier_one() {
        let mut b = WorldDesc::new(1);
        b.spawn(NodeId(0), |ctx: &mut dyn DsmThread| {
            ctx.write(ObjectId(0), 0, vec![1]);
            ctx.read(ObjectId(0), ByteRange::new(0, 1));
        });
        let report = build(b, vec![Costs]).run();
        report.assert_clean();
        // The write returned at once: the thread ran on while it was in
        // flight, and the read waited for it.
        assert_eq!(report.total_wait_us("write"), 0);
        assert_eq!(report.total_wait_us("read"), 101);
        assert_eq!(report.ops, 3, "write, read, exit: one op per call");
    }

    /// Fetch-adds from node 0 go to node 1 and are ordered through it; the
    /// first reply costs 100 us to apply, every later one 1 us.
    struct OrderedAdds {
        node: NodeId,
        served: u8,
    }

    impl Server for OrderedAdds {
        type Payload = EchoMsg;
        fn on_op(&mut self, k: &mut dyn KernelApi<EchoMsg>, t: ThreadId, op: DsmOp) -> OpOutcome {
            match op {
                DsmOp::AtomicFetchAdd { .. } => {
                    k.send(self.node, NodeId(1), EchoMsg::Req { thread: t, len: 0 });
                    OpOutcome::Blocked
                }
                _ => OpOutcome::unit(0),
            }
        }
        fn ordered_peer(&mut self, _k: &dyn KernelApi<EchoMsg>, op: &DsmOp) -> Option<NodeId> {
            matches!(op, DsmOp::AtomicFetchAdd { .. }).then_some(NodeId(1))
        }
        fn on_message(&mut self, k: &mut dyn KernelApi<EchoMsg>, from: NodeId, msg: EchoMsg) {
            match msg {
                EchoMsg::Req { thread, .. } => {
                    self.served += 1;
                    k.send(self.node, from, EchoMsg::Reply { thread, data: vec![self.served] });
                }
                EchoMsg::Reply { thread, data } => {
                    let cost = if data[0] == 1 { 100 } else { 1 };
                    k.complete(thread, OpResult::Value(data[0] as i64), cost);
                }
            }
        }
    }

    #[test]
    fn overlapped_ops_resume_in_issue_order_whatever_their_completion_cost() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let mut b = WorldDesc::new(2);
        let g = got.clone();
        b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
            let tokens: Vec<_> = (0..3).map(|_| ctx.fetch_add_async(ObjectId(0), 0, 1)).collect();
            *g.lock().unwrap() = tokens.into_iter().map(|t| ctx.token_wait(t)).collect();
        });
        let servers = (0..2).map(|i| OrderedAdds { node: NodeId(i), served: 0 }).collect();
        let report = build(b, servers).run();
        report.assert_clean();
        assert_eq!(*got.lock().unwrap(), [1, 2, 3]);
        let one_round_trip = remote_read_round_trip_us();
        assert!(
            report.finished_at.as_micros() < 2 * one_round_trip,
            "the three adds did not overlap: {} us",
            report.finished_at
        );
    }

    /// Blocks every read; a write panics its handler.
    struct Tripwire;

    impl Server for Tripwire {
        type Payload = EchoMsg;
        fn on_op(&mut self, _k: &mut dyn KernelApi<EchoMsg>, _t: ThreadId, op: DsmOp) -> OpOutcome {
            match op {
                DsmOp::Read { .. } => OpOutcome::Blocked,
                DsmOp::Write { .. } => panic!("write handler bug"),
                _ => OpOutcome::unit(0),
            }
        }
        fn on_message(&mut self, _k: &mut dyn KernelApi<EchoMsg>, _f: NodeId, _p: EchoMsg) {}
    }

    /// A one-node [`Tripwire`] world of `bodies`, each of which holds a
    /// clone of the returned `Arc` until it is dropped.
    fn tripwire_world(bodies: Vec<ThreadBody>) -> (World<Tripwire>, Arc<()>) {
        let held = Arc::new(());
        let mut b = WorldDesc::new(1);
        for body in bodies {
            let h = held.clone();
            b.spawn(NodeId(0), move |ctx: &mut dyn DsmThread| {
                let _held = h;
                body(ctx)
            });
        }
        (build(b, vec![Tripwire]), held)
    }

    #[test]
    fn a_deadlock_drops_the_state_of_exited_and_suspended_threads() {
        let read = |ctx: &mut dyn DsmThread| drop(ctx.read(ObjectId(0), ByteRange::new(0, 4)));
        let (world, held) = tripwire_world(vec![
            Box::new(|_ctx: &mut dyn DsmThread| {}),
            Box::new(read),
            Box::new(move |ctx: &mut dyn DsmThread| {
                ctx.compute(10);
                read(ctx)
            }),
        ]);
        let report = world.run();
        assert!(report.errors[0].starts_with("deadlock: 2 thread(s)"), "{:?}", report.errors);
        assert_eq!(Arc::strong_count(&held), 1, "a body's captured state outlived the run");
    }

    #[test]
    fn a_handler_panic_drops_the_state_of_exited_suspended_and_unstarted_threads() {
        let started = Arc::new(AtomicU64::new(0));
        let s = started.clone();
        // t0 exits, then t1's write panics its handler at t=0, before t2's
        // start is popped.
        let (world, held) = tripwire_world(vec![
            Box::new(|_ctx: &mut dyn DsmThread| {}),
            Box::new(|ctx: &mut dyn DsmThread| ctx.write(ObjectId(0), 0, vec![1])),
            Box::new(move |_ctx: &mut dyn DsmThread| {
                s.fetch_add(1, Ordering::SeqCst);
            }),
        ]);
        let payload = catch_unwind(AssertUnwindSafe(|| world.run())).expect_err("run must panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"write handler bug"));
        assert_eq!(started.load(Ordering::SeqCst), 0, "t2 ran after the handler panic");
        assert_eq!(Arc::strong_count(&held), 1, "a body's captured state outlived the run");
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn every_body_runs_on_the_callers_os_thread() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let bodies = (0..3)
            .map(|_| {
                let seen = seen.clone();
                let body: ThreadBody = Box::new(move |ctx: &mut dyn DsmThread| {
                    seen.lock().unwrap().push(std::thread::current().id());
                    ctx.read(ObjectId(0), ByteRange::new(0, 4));
                    seen.lock().unwrap().push(std::thread::current().id());
                });
                (NodeId(0), body)
            })
            .collect();
        echo_world(bodies).assert_clean();
        assert_eq!(*seen.lock().unwrap(), vec![std::thread::current().id(); 6]);
    }

    /// The virtual time of one thread's remote read round trip.
    fn remote_read_round_trip_us() -> u64 {
        let mut b = WorldDesc::new(2);
        b.spawn(NodeId(0), |ctx: &mut dyn DsmThread| {
            ctx.read(ObjectId(0), ByteRange::new(0, 1));
        });
        let servers = (0..2).map(|i| EchoServer { node: NodeId(i), served: 0 }).collect();
        build(b, servers).run().finished_at.as_micros()
    }
}
