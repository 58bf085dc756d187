//! The simulation world: the event queue, kernel services, and the
//! [`Server`] trait that coherence runtimes implement.
//!
//! One [`World`] = one distributed system: `n` nodes, each hosting one
//! protocol server and any number of application threads. The world owns a
//! virtual clock and an event queue; application threads are real OS threads
//! but exactly one executes at a time. There is no loop thread: the world
//! state is a baton, and the thread holding it pops events until one resumes
//! a thread, then hands the baton to that thread. The run — message counts,
//! interleavings, traces — is a deterministic function of (program,
//! configuration, seed).

use crate::event::{EventKind, EventQueue};
use crate::kernel::KernelApi;
use crate::op::{DsmOp, OpOutcome, OpResult};
use crate::report::{RunReport, WaitTable};
use crate::thread::{Baton, ThreadCtx};
use crate::tracer::{NullTracer, TraceEvent, Tracer};
use crate::transport::{Transport, TransportConfig, Wire};
use crossbeam_channel::{unbounded, Receiver, Sender};
use munin_net::PayloadInfo;
use munin_types::{CostModel, NodeId, ObjectDecl, ObjectId, ThreadId, VirtualTime};
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
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

    /// Handle a timer previously registered with [`KernelApi::set_timer`].
    fn on_timer(&mut self, _kernel: &mut dyn KernelApi<Self::Payload>, _token: u64) {}

    /// Describe internal state for the deadlock report (diagnostic only).
    fn debug_stuck_state(&self) -> String {
        String::new()
    }
}

struct ThreadRec {
    node: NodeId,
    resume_tx: Sender<OpResult>,
    done: bool,
    /// (issue time, op label) of the operation currently awaiting completion.
    pending: Option<(VirtualTime, &'static str)>,
    waits: WaitTable,
}

/// Kernel services available to servers while they handle ops, messages and
/// timers: the clock, the transport, the object-declaration registry, thread
/// placement, timers and error reporting.
pub struct Kernel<P: PayloadInfo + Clone> {
    now: VirtualTime,
    events: EventQueue<Wire<P>>,
    transport: Transport<P>,
    stats_ext: munin_net::NetStats,
    registry: HashMap<ObjectId, ObjectDecl>,
    registry_version: u64,
    next_object: u64,
    threads: Vec<ThreadRec>,
    threads_on: Vec<Vec<ThreadId>>,
    tracer: Box<dyn Tracer>,
    ops: u64,
    errors: Vec<String>,
    /// Protocol-state coverage recorder, when the run is instrumented
    /// (campaign explore mode attaches one through the builder).
    coverage: Option<std::sync::Arc<munin_obs::CoverageMap>>,
}

impl<P: PayloadInfo + Clone> Kernel<P> {
    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        self.transport.cost()
    }

    /// Send a protocol message to another node's server.
    pub fn send(&mut self, src: NodeId, dst: NodeId, payload: P) {
        debug_assert_ne!(src, dst, "servers handle local work locally, not by self-send");
        self.tracer.record(TraceEvent::MessageSent {
            at: self.now,
            src,
            dst,
            class: payload.class(),
            kind: payload.kind(),
            bytes: payload.wire_bytes(),
        });
        self.transport.send(self.now, &mut self.events, &mut self.stats_ext, src, dst, payload);
    }

    /// Multicast a protocol message. Destination list order does not affect
    /// determinism (deliveries are scheduled in list order with stable
    /// tie-breaking), but callers should pass sorted lists so traces are
    /// stable across refactorings.
    pub fn multicast(&mut self, src: NodeId, dsts: &[NodeId], payload: P) {
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
        self.transport.multicast(
            self.now,
            &mut self.events,
            &mut self.stats_ext,
            src,
            dsts,
            payload,
        );
    }

    /// Complete a blocked thread's pending operation: the thread resumes
    /// `extra_cost_us` of virtual time from now.
    pub fn complete(&mut self, thread: ThreadId, result: OpResult, extra_cost_us: u64) {
        debug_assert!(
            !self.threads[thread.index()].done,
            "completing an op for exited thread {thread}"
        );
        self.events.push(self.now + extra_cost_us, EventKind::ThreadResume { thread, result });
    }

    /// Register a server timer: `on_timer(token)` fires on `node`'s server
    /// after `delay_us`.
    pub fn set_timer(&mut self, node: NodeId, delay_us: u64, token: u64) {
        self.events.push(self.now + delay_us, EventKind::Timer { node, token });
    }

    /// Allocate a fresh object id and register its declaration. The
    /// declaration's `id` field is overwritten with the assigned id and
    /// `home` with the allocating node.
    pub fn register_decl(&mut self, mut decl: ObjectDecl, home: NodeId) -> ObjectId {
        let id = ObjectId(self.next_object);
        self.next_object += 1;
        decl.id = id;
        decl.home = home;
        self.registry.insert(id, decl);
        id
    }

    /// Look up an object's declaration. Declarations are globally known
    /// (the paper compiles them into the program), so this lookup models no
    /// communication.
    pub fn decl(&self, obj: ObjectId) -> Option<&ObjectDecl> {
        self.registry.get(&obj)
    }

    /// Change an object's sharing annotation at runtime — the paper's §4
    /// "the system might be able to detect that an object is being
    /// continuously updated by one thread and read by another [and] define
    /// the object as a producer-consumer shared object and treat it
    /// accordingly". The caller (the object's home server) is responsible
    /// for resetting protocol state (invalidating outstanding copies).
    pub fn retype(&mut self, obj: ObjectId, sharing: munin_types::SharingType) {
        if let Some(d) = self.registry.get_mut(&obj) {
            d.sharing = sharing;
            self.registry_version += 1;
        }
    }

    /// Monotone counter bumped on every runtime retype; servers use it to
    /// revalidate their declaration caches cheaply.
    pub fn registry_version(&self) -> u64 {
        self.registry_version
    }

    /// All registered declarations, sorted by id (stable for traces).
    pub fn decls_sorted(&self) -> Vec<&ObjectDecl> {
        let mut v: Vec<&ObjectDecl> = self.registry.values().collect();
        v.sort_by_key(|d| d.id);
        v
    }

    /// Node hosting `thread`.
    pub fn node_of(&self, thread: ThreadId) -> NodeId {
        self.threads[thread.index()].node
    }

    /// Threads placed on `node`.
    pub fn threads_on(&self, node: NodeId) -> &[ThreadId] {
        &self.threads_on[node.index()]
    }

    /// Total application threads.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// Report a server-detected error (invariant violation, livelock). The
    /// run continues but the report will not be clean.
    pub fn error(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        if std::env::var_os("MUNIN_DEBUG_ERRORS").is_some() {
            eprintln!("[kernel error] {msg}");
        }
        self.errors.push(msg);
    }

    /// Network statistics so far (experiments read the final copy from the
    /// [`RunReport`]).
    pub fn stats(&self) -> &munin_net::NetStats {
        &self.stats_ext
    }
}

/// The virtual-time kernel exposes its services through the kernel seam, so
/// the same servers run here and on the real-time kernel (`munin-rt`).
impl<P: PayloadInfo + Clone> KernelApi<P> for Kernel<P> {
    fn now(&self) -> VirtualTime {
        Kernel::now(self)
    }
    fn cost(&self) -> &CostModel {
        Kernel::cost(self)
    }
    fn send(&mut self, src: NodeId, dst: NodeId, payload: P) {
        Kernel::send(self, src, dst, payload)
    }
    fn multicast(&mut self, src: NodeId, dsts: &[NodeId], payload: P) {
        Kernel::multicast(self, src, dsts, payload)
    }
    fn flush_outbound(&mut self) {
        // Trivial pass-through: `send`/`multicast` already pushed their
        // deliveries into the event queue — there is nothing buffered.
    }
    fn complete(&mut self, thread: ThreadId, result: OpResult, extra_cost_us: u64) {
        Kernel::complete(self, thread, result, extra_cost_us)
    }
    fn set_timer(&mut self, node: NodeId, delay_us: u64, token: u64) {
        Kernel::set_timer(self, node, delay_us, token)
    }
    fn register_decl(&mut self, decl: ObjectDecl, home: NodeId) -> ObjectId {
        Kernel::register_decl(self, decl, home)
    }
    fn decl(&self, obj: ObjectId) -> Option<ObjectDecl> {
        Kernel::decl(self, obj).cloned()
    }
    fn assoc_objects(&self, lock: munin_types::LockId) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = self
            .registry
            .values()
            .filter(|d| d.associated_lock == Some(lock))
            .map(|d| d.id)
            .collect();
        v.sort_unstable();
        v
    }
    fn retype(&mut self, obj: ObjectId, sharing: munin_types::SharingType) {
        Kernel::retype(self, obj, sharing)
    }
    fn registry_version(&self) -> u64 {
        Kernel::registry_version(self)
    }
    fn error(&mut self, msg: String) {
        Kernel::error(self, msg)
    }
    fn coverage(&self) -> Option<&munin_obs::CoverageMap> {
        self.coverage.as_deref()
    }
}

/// Builder for a [`World`]: configure nodes, transport, tracer; declare
/// objects; spawn application threads; then [`WorldBuilder::build`] with one
/// server per node.
pub struct WorldBuilder {
    n_nodes: usize,
    transport: TransportConfig,
    tracer: Box<dyn Tracer>,
    #[allow(clippy::type_complexity)]
    spawns: Vec<(NodeId, Box<dyn FnOnce(&mut ThreadCtx) + Send + 'static>)>,
    decls: Vec<ObjectDecl>,
    next_object: u64,
    coverage: Option<std::sync::Arc<munin_obs::CoverageMap>>,
}

impl WorldBuilder {
    pub fn new(n_nodes: usize) -> Self {
        assert!(n_nodes > 0, "a world needs at least one node");
        WorldBuilder {
            n_nodes,
            transport: TransportConfig::default(),
            tracer: Box::new(NullTracer),
            spawns: Vec::new(),
            decls: Vec::new(),
            next_object: 0,
            coverage: None,
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    pub fn transport(mut self, cfg: TransportConfig) -> Self {
        self.transport = cfg;
        self
    }

    /// Attach a protocol-state coverage recorder: servers note transitions
    /// into it through [`KernelApi::coverage`].
    pub fn coverage(mut self, map: std::sync::Arc<munin_obs::CoverageMap>) -> Self {
        self.coverage = Some(map);
        self
    }

    pub fn tracer(mut self, tracer: Box<dyn Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Declare a shared object before the run starts (the common case: the
    /// paper's programs declare shared data with annotations processed at
    /// compile time). Returns the assigned id.
    pub fn declare(&mut self, mut decl: ObjectDecl, home: NodeId) -> ObjectId {
        assert!(home.index() < self.n_nodes, "home {home} out of range");
        let id = ObjectId(self.next_object);
        self.next_object += 1;
        decl.id = id;
        decl.home = home;
        self.decls.push(decl);
        id
    }

    /// Spawn an application thread on `node`. Threads start simultaneously
    /// at virtual time zero, in spawn order.
    pub fn spawn(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut ThreadCtx) + Send + 'static,
    ) -> ThreadId {
        assert!(node.index() < self.n_nodes, "node {node} out of range");
        let id = ThreadId(self.spawns.len() as u32);
        self.spawns.push((node, Box::new(f)));
        id
    }

    /// Finalize with one server per node (`servers[i]` serves `NodeId(i)`).
    pub fn build<S: Server + 'static>(self, servers: Vec<S>) -> World<S> {
        assert_eq!(servers.len(), self.n_nodes, "need exactly one server per node");
        let n_threads = self.spawns.len();
        let mut registry = HashMap::new();
        for d in self.decls {
            registry.insert(d.id, d);
        }

        let (done_tx, done_rx) = unbounded();
        let sim = Arc::new(Mutex::new(Sim {
            kernel: Kernel {
                now: VirtualTime::ZERO,
                events: EventQueue::new(),
                transport: Transport::new(self.transport),
                stats_ext: munin_net::NetStats::new(),
                registry,
                registry_version: 0,
                next_object: self.next_object,
                threads: Vec::with_capacity(n_threads),
                threads_on: vec![Vec::new(); self.n_nodes],
                tracer: self.tracer,
                ops: 0,
                errors: Vec::new(),
                coverage: self.coverage,
            },
            servers,
            torn_down: false,
            done_tx,
        }));
        let baton: Arc<dyn Baton> = sim.clone();
        let mut bodies = Vec::with_capacity(n_threads);
        let mut state = take(&sim);
        let kernel = &mut state.kernel;
        for (idx, (node, body)) in self.spawns.into_iter().enumerate() {
            let thread = ThreadId(idx as u32);
            let (resume_tx, resume_rx) = unbounded();
            kernel.threads_on[node.index()].push(thread);
            kernel.threads.push(ThreadRec {
                node,
                resume_tx,
                done: false,
                pending: None,
                waits: WaitTable::new(),
            });
            // All threads become runnable at t=0 in spawn order.
            kernel.events.push(
                VirtualTime::ZERO,
                EventKind::ThreadResume { thread, result: OpResult::Unit },
            );
            let ctx = ThreadCtx {
                thread,
                node,
                n_nodes: self.n_nodes,
                n_threads,
                baton: baton.clone(),
                resume_rx,
            };
            bodies.push((ctx, body));
        }
        drop(state);
        World { sim, bodies, done_rx }
    }
}

/// A fully built distributed system, ready to run.
pub struct World<S: Server> {
    sim: Arc<Mutex<Sim<S>>>,
    bodies: Vec<(ThreadCtx, ThreadBody)>,
    /// Signalled once, by whichever thread holds the baton when the event
    /// queue runs dry (`None`) or a protocol handler panics (its payload).
    done_rx: Receiver<Option<HandlerPanic>>,
}

type HandlerPanic = Box<dyn Any + Send>;

type ThreadBody = Box<dyn FnOnce(&mut ThreadCtx) + Send + 'static>;

/// The world state: the baton that exactly one thread holds at a time.
struct Sim<S: Server> {
    kernel: Kernel<S::Payload>,
    servers: Vec<S>,
    /// Set when `World::run` tears the world down. A body that caught the
    /// teardown unwind and then exits must not touch the report.
    torn_down: bool,
    done_tx: Sender<Option<HandlerPanic>>,
}

/// Take the baton. Every panic raised while it is held is caught by
/// [`Sim::guarded`], so the lock is never poisoned.
fn take<S: Server>(baton: &Mutex<Sim<S>>) -> MutexGuard<'_, Sim<S>> {
    baton.lock().expect("a panic escaped while the baton was held")
}

impl<S: Server> Baton for Mutex<Sim<S>> {
    fn op(&self, thread: ThreadId, op: DsmOp) -> Option<OpResult> {
        take(self).guarded(|sim| {
            sim.dispatch_op(thread, op);
            sim.run_events(Some(thread))
        })
    }

    fn exit(&self, thread: ThreadId, panic: Option<String>) {
        let mut sim = take(self);
        if sim.torn_down {
            return;
        }
        sim.kernel.threads[thread.index()].done = true;
        if let Some(msg) = panic {
            sim.kernel.error(format!("{thread} panicked: {msg}"));
        }
        sim.guarded(|sim| sim.run_events(None));
    }
}

impl<S: Server> World<S> {
    /// Run the world to completion: until every thread has exited and every
    /// in-flight message has been delivered. Returns the run report; the
    /// world (and its tracer) are consumed — retrieve tracer output via the
    /// tracer's own shared state.
    ///
    /// The event queue runs on the application threads (see
    /// [`ThreadCtx::op`]); the calling thread only starts the first one and
    /// waits for the queue to run dry. A panicking protocol handler ends the
    /// run and is rethrown here, on the caller's thread, with its payload.
    pub fn run(self) -> RunReport {
        let World { sim, bodies, done_rx } = self;
        let joins: Vec<_> = bodies
            .into_iter()
            .map(|(ctx, body)| {
                std::thread::Builder::new()
                    .name(format!("sim-{}", ctx.thread))
                    .spawn(move || ctx.run(body))
                    .expect("failed to spawn simulation thread")
            })
            .collect();
        // Hand the baton to the first thread.
        take(&sim).guarded(|sim| sim.run_events(None));
        let handler_panic = done_rx.recv().ok().flatten();

        {
            let mut sim = take(&sim);
            sim.torn_down = true;
            // Dropping the resume senders unwinds every parked thread.
            for rec in &mut sim.kernel.threads {
                rec.resume_tx = unbounded().0;
            }
        }
        for j in joins {
            let _ = j.join();
        }
        if let Some(payload) = handler_panic {
            std::panic::resume_unwind(payload);
        }
        let Ok(sim) = Arc::try_unwrap(sim) else {
            unreachable!("every thread context is dropped once its thread is joined")
        };
        let Sim { mut kernel, servers, .. } =
            sim.into_inner().expect("a panic escaped while the baton was held");

        if kernel.stats_ext.gave_up > 0 {
            // A link fault outlasted the retransmission budget: messages were
            // silently abandoned, so protocol state may be inconsistent. The
            // run must not read as clean.
            kernel.error(format!(
                "transport gave up on {} message(s) after exhausting retransmissions \
                 (link fault outlasted the retry budget)",
                kernel.stats_ext.gave_up
            ));
        }

        let blocked: Vec<String> = kernel
            .threads
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.done)
            .map(|(i, r)| {
                let label = r.pending.map(|(_, l)| l).unwrap_or("<not blocked in an op>");
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
            stats: kernel.stats_ext,
            ops: kernel.ops,
            thread_waits: kernel.threads.into_iter().map(|t| t.waits).collect(),
            errors: kernel.errors,
            deadlocked,
            wall: None,
            dumps: Vec::new(),
            metrics: None,
        }
    }
}

impl<S: Server> Sim<S> {
    /// Run `step` with the baton held. A protocol handler that panics ends
    /// the run: its payload is kept for `World::run` to rethrow, and the
    /// caller parks like any other thread until teardown.
    fn guarded(&mut self, step: impl FnOnce(&mut Self) -> Option<OpResult>) -> Option<OpResult> {
        match catch_unwind(AssertUnwindSafe(|| step(self))) {
            Ok(resumed) => resumed,
            Err(payload) => {
                let _ = self.done_tx.send(Some(payload));
                None
            }
        }
    }

    /// Pop events in `(time, seq)` order until one resumes a thread. That
    /// thread gets the result directly if it is `me`, else through its
    /// resume channel; either way it dispatches its next op (or exits)
    /// before anything else is popped, since nobody else holds the baton.
    /// When the queue runs dry, wake `World::run`.
    fn run_events(&mut self, me: Option<ThreadId>) -> Option<OpResult> {
        while let Some(ev) = self.kernel.events.pop() {
            self.kernel.now = ev.at;
            match ev.kind {
                EventKind::ThreadResume { thread, result } => {
                    let rec = &mut self.kernel.threads[thread.index()];
                    if rec.done {
                        continue;
                    }
                    if let Some((issued, label)) = rec.pending.take() {
                        let waited = self.kernel.now.since(issued);
                        let e = rec.waits.entry(label).or_insert((0, 0));
                        e.0 += 1;
                        e.1 += waited;
                        let node = rec.node;
                        self.kernel.tracer.record(TraceEvent::OpCompleted {
                            at: self.kernel.now,
                            thread,
                            node,
                            label,
                            waited_us: waited,
                        });
                    }
                    if me == Some(thread) {
                        return Some(result);
                    }
                    rec.resume_tx
                        .send(result)
                        .expect("a thread keeps its resume channel until it exits");
                    return None;
                }
                EventKind::Deliver { src, dst, seq, wire } => {
                    let released = self.kernel.transport.receive(
                        self.kernel.now,
                        &mut self.kernel.events,
                        &mut self.kernel.stats_ext,
                        src,
                        dst,
                        seq,
                        wire,
                    );
                    for payload in released {
                        self.servers[dst.index()].on_message(&mut self.kernel, src, payload);
                    }
                }
                EventKind::Timer { node, token } => {
                    self.servers[node.index()].on_timer(&mut self.kernel, token);
                }
                EventKind::RetxTimer { src, dst } => {
                    self.kernel.transport.on_retx_timer(
                        self.kernel.now,
                        &mut self.kernel.events,
                        &mut self.kernel.stats_ext,
                        src,
                        dst,
                    );
                }
            }
        }
        let _ = self.done_tx.send(None);
        None
    }

    fn dispatch_op(&mut self, thread: ThreadId, op: DsmOp) {
        self.kernel.ops += 1;
        let node = self.kernel.threads[thread.index()].node;
        self.kernel.tracer.record(TraceEvent::OpIssued {
            at: self.kernel.now,
            thread,
            node,
            op: &op,
        });
        self.kernel.threads[thread.index()].pending = Some((self.kernel.now, op.label()));
        match op {
            DsmOp::Compute(us) => {
                self.kernel.complete(thread, OpResult::Unit, us);
            }
            other => {
                let outcome = self.servers[node.index()].on_op(&mut self.kernel, thread, other);
                match outcome {
                    OpOutcome::Done { result, cost_us } => {
                        self.kernel.complete(thread, result, cost_us);
                    }
                    OpOutcome::Blocked => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_net::MsgClass;
    use munin_types::{ByteRange, SharingType};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

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

    fn echo_world(bodies: Vec<(NodeId, Box<dyn FnOnce(&mut ThreadCtx) + Send>)>) -> RunReport {
        let mut b = WorldBuilder::new(2);
        for (node, body) in bodies {
            b.spawn(node, body);
        }
        let servers = vec![
            EchoServer { node: NodeId(0), served: 0 },
            EchoServer { node: NodeId(1), served: 0 },
        ];
        b.build(servers).run()
    }

    #[test]
    fn remote_read_round_trip_advances_virtual_time() {
        let got = Arc::new(AtomicU64::new(0));
        let got2 = got.clone();
        let report = echo_world(vec![(
            NodeId(0),
            Box::new(move |ctx: &mut ThreadCtx| {
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
                    Box::new(|ctx: &mut ThreadCtx| {
                        for _ in 0..5 {
                            ctx.read(ObjectId(0), ByteRange::new(0, 64));
                            ctx.compute(100);
                        }
                    }) as Box<dyn FnOnce(&mut ThreadCtx) + Send>,
                ),
                (
                    NodeId(0),
                    Box::new(|ctx: &mut ThreadCtx| {
                        for _ in 0..3 {
                            ctx.read(ObjectId(0), ByteRange::new(0, 16));
                        }
                    }) as Box<dyn FnOnce(&mut ThreadCtx) + Send>,
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
            Box::new(|ctx: &mut ThreadCtx| {
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
            Box::new(|_ctx: &mut ThreadCtx| {
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
        let mut b = WorldBuilder::new(1);
        b.spawn(NodeId(0), |ctx: &mut ThreadCtx| {
            ctx.read(ObjectId(0), ByteRange::new(0, 4));
        });
        let report = b.build(vec![BlackHoleServer]).run();
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
        let mut b = WorldBuilder::new(2);
        for _ in 0..3 {
            b.spawn(NodeId(0), |ctx: &mut ThreadCtx| {
                ctx.read(ObjectId(0), ByteRange::new(0, 4));
            });
        }
        let world =
            b.build(vec![PanickyServer { node: NodeId(0) }, PanickyServer { node: NodeId(1) }]);
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
        let mut b = WorldBuilder::new(1);
        for i in 0..4 {
            b.spawn(NodeId(0), move |ctx: &mut ThreadCtx| {
                ctx.compute(10);
                if i == 2 {
                    panic!("boom");
                }
                ctx.barrier(munin_types::BarrierId(0));
            });
        }
        let report = b.build(vec![BarrierServer { waiting: Vec::new() }]).run();
        assert!(report.deadlocked);
        assert_eq!(report.errors.len(), 2, "{:?}", report.errors);
        assert_eq!(report.errors[0], "t2 panicked: boom");
        assert!(report.errors[1].starts_with("deadlock: 3 thread(s)"), "{:?}", report.errors);
    }

    #[test]
    fn declared_objects_are_visible_in_registry() {
        let mut b = WorldBuilder::new(2);
        let decl = ObjectDecl::new(ObjectId(0), "m", 64, SharingType::WriteMany, NodeId(0));
        let id = b.declare(decl, NodeId(1));
        assert_eq!(id, ObjectId(0));
        b.spawn(NodeId(0), move |ctx: &mut ThreadCtx| {
            ctx.compute(1);
        });
        let w = b.build(vec![
            EchoServer { node: NodeId(0), served: 0 },
            EchoServer { node: NodeId(1), served: 0 },
        ]);
        let decl = w.sim.lock().unwrap().kernel.decl(id).cloned().unwrap();
        assert_eq!(decl.home, NodeId(1));
        assert_eq!(decl.name, "m");
        let report = w.run();
        report.assert_clean();
    }

    #[test]
    fn compute_costs_virtual_time_without_server_involvement() {
        let report = echo_world(vec![(
            NodeId(0),
            Box::new(|ctx: &mut ThreadCtx| {
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
                Box::new(move |ctx: &mut ThreadCtx| {
                    ctx.compute(1_000_000);
                    o1.lock().unwrap().push('A');
                }),
            ),
            (
                NodeId(0),
                Box::new(move |ctx: &mut ThreadCtx| {
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
}
