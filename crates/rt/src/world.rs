//! Building and running a wall-clock world. [`RtWorldBuilder`] describes
//! the world (objects, application threads, tuning) and owns the one run
//! skeleton both wall-clock fabrics share: the run state, the application
//! threads, the stall watchdog with its SIGUSR1 service, and the
//! [`RunReport`]. What differs between the fabrics sits behind
//! [`WallFabric`], implemented by this crate's channel fabric (one server
//! thread per node, a timer thread) and by `munin-tcp`'s process fabric.

use crate::ctx::{OpPort, RtCtx};
use crate::fabric::{NodeEvent, Shared};
use crate::kernel::RtKernel;
use crate::serve::server_loop;
use crate::sig;
use crate::timer::{run_timer_thread, TimerReq};
use munin_net::NetStats;
use munin_sim::report::{RunReport, WaitTable, WallClock};
use munin_sim::{panic_message, DsmOp, OpResult, Server};
use munin_types::{CostModel, NodeId, ObjectDecl, ObjectId, Telemetry, ThreadId, VirtualTime};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What an application `compute(us)` call does on the real-time kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeMode {
    /// Timed wait of `us` microseconds (default). Waits overlap across
    /// workers even when the host has fewer cores than workers, so measured
    /// speedup isolates the runtime's overlap/overhead behaviour from host
    /// core count.
    Sleep,
    /// Drop modelled compute entirely (pure protocol stress).
    Skip,
}

/// What a real-time run lets its caller choose. Everything else about the
/// client path is fixed: a thread keeps up to [`crate::MAX_INFLIGHT`] ops
/// in flight, adjacent writes are always combined client-side, a waiter
/// always parks on its resume channel, and a server step drains a bounded
/// batch of inbox events and coalesces its sends per destination.
#[derive(Debug, Clone)]
pub struct RtTuning {
    pub compute: ComputeMode,
    /// How long all live threads must sit blocked, with zero kernel
    /// activity and no pending timer, before the run is declared stalled.
    pub stall_timeout: Duration,
    /// What the run records about itself: `Off` (nothing; hot paths reduce
    /// to one predicted branch), `Counters` (latency histograms + per-object
    /// access counters; the default), or `Spans` (counters plus causal
    /// per-op timestamp spans). See [`munin_obs`].
    pub telemetry: Telemetry,
}

impl Default for RtTuning {
    fn default() -> Self {
        RtTuning {
            compute: ComputeMode::Sleep,
            stall_timeout: Duration::from_secs(5),
            telemetry: Telemetry::default(),
        }
    }
}

/// Sampling period of the stall watchdog.
const WATCHDOG_POLL: Duration = Duration::from_millis(50);

/// How long a state dump waits for the nodes' answers: a wedged node must
/// not hang the watchdog.
pub const DUMP_WAIT: Duration = Duration::from_secs(2);

/// What the run skeleton hands a fabric to start on.
pub struct Launch<'a> {
    pub n_nodes: usize,
    /// The build-time object declarations, ids dense from 0.
    pub decls: &'a [ObjectDecl],
    /// See [`RtWorldBuilder::cost`].
    pub cost: &'a CostModel,
    /// The state every thread of the run shares.
    pub shared: &'a Arc<Shared>,
    /// The application threads' resume channels, indexed by thread id.
    pub resumes: Vec<Sender<OpResult>>,
}

/// What a wall-clock fabric supplies to [`RtWorldBuilder::run_on`], which
/// does everything else. A value of this trait is a started fabric: the
/// `start` closure handed to `run_on` builds it (this crate's fabric: the
/// inboxes, server threads and timer; TCP: the child processes, the
/// handshake, the registry, node 0's cell, its readers and timer).
pub trait WallFabric {
    /// The op port of an application thread placed on `node`.
    fn port(&self, node: NodeId) -> Box<dyn OpPort>;

    /// The watchdog's probe: push a fingerprint of every node's progress
    /// (any change counts as progress) and return how many timers are
    /// pending anywhere.
    fn probe(&self, fingerprint: &mut Vec<u64>) -> u64;

    /// Every node's `debug_stuck_state` in node order, waiting at most
    /// [`DUMP_WAIT`] for the answers.
    fn dumps(&self) -> Vec<(NodeId, String)>;

    /// The watchdog has just poisoned the run.
    fn on_poison(&self) {}

    /// Tear down once every application thread has exited. Returns the
    /// run's traffic counters, merged over every node.
    fn teardown(self) -> NetStats;
}

/// Builder for a wall-clock world: declare objects, spawn threads, then
/// [`RtWorldBuilder::run`] on the in-process fabric or hand the builder to
/// `munin_tcp::run_proto`. The shape mirrors [`munin_sim::WorldBuilder`] so
/// the API harness can drive any kernel.
pub struct RtWorldBuilder<P> {
    n_nodes: usize,
    cost: CostModel,
    tuning: RtTuning,
    decls: Vec<ObjectDecl>,
    next_object: u64,
    #[allow(clippy::type_complexity)]
    spawns: Vec<(NodeId, Box<dyn FnOnce(&mut RtCtx<P>) + Send + 'static>)>,
    coverage: Option<Arc<munin_obs::CoverageMap>>,
}

impl<P: munin_net::PayloadInfo + Send + Sync + Clone + 'static> RtWorldBuilder<P> {
    pub fn new(n_nodes: usize) -> Self {
        assert!(n_nodes > 0, "a world needs at least one node");
        assert!(n_nodes <= u16::MAX as usize, "node ids are u16");
        RtWorldBuilder {
            n_nodes,
            cost: CostModel::default(),
            tuning: RtTuning::default(),
            decls: Vec::new(),
            next_object: 0,
            spawns: Vec::new(),
            coverage: None,
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Attach a protocol-state coverage recorder (campaign explore mode);
    /// servers note transitions into it through `KernelApi::coverage`. On
    /// TCP, children keep a local map and ship their rows home at teardown.
    pub fn coverage(mut self, map: Arc<munin_obs::CoverageMap>) -> Self {
        self.coverage = Some(map);
        self
    }

    /// Cost model handed to the in-process servers (their bookkeeping reads
    /// it; the kernel itself never charges modelled latencies). The TCP
    /// fabric takes every node's from the protocol config instead.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    pub fn tuning(mut self, tuning: RtTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Declare a shared object before the run starts. Returns the assigned
    /// id (dense, in declaration order — same contract as the simulator).
    pub fn declare(&mut self, mut decl: ObjectDecl, home: NodeId) -> ObjectId {
        assert!(home.index() < self.n_nodes, "home {home} out of range");
        let id = ObjectId(self.next_object);
        self.next_object += 1;
        decl.id = id;
        decl.home = home;
        self.decls.push(decl);
        id
    }

    /// Spawn an application thread on `node`. Unlike the simulator there is
    /// no start rendezvous: threads begin running as soon as the world does.
    /// On every fabric the thread runs in this process; its ops enter
    /// `node` through the fabric's op port.
    pub fn spawn(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut RtCtx<P>) + Send + 'static,
    ) -> ThreadId {
        assert!(node.index() < self.n_nodes, "node {node} out of range");
        let id = ThreadId(self.spawns.len() as u32);
        self.spawns.push((node, Box::new(f)));
        id
    }

    /// Run to completion on the in-process channel fabric, with one server
    /// per node (`servers[i]` serves `NodeId(i)`). Returns a [`RunReport`]
    /// whose `wall` section and wait tables are real (host) microseconds.
    pub fn run<S>(self, servers: Vec<S>) -> RunReport
    where
        S: Server<Payload = P> + 'static,
    {
        assert_eq!(servers.len(), self.n_nodes, "need exactly one server per node");
        self.run_on(|launch| RtFabric::start(launch, servers))
    }

    /// The run skeleton of every wall-clock fabric: create the run state
    /// and the resume channels, `start` the fabric, launch the application
    /// threads, watch them until they have all exited, tear the fabric down
    /// and assemble the report.
    pub fn run_on<F: WallFabric>(self, start: impl FnOnce(Launch<'_>) -> F) -> RunReport {
        let RtWorldBuilder { n_nodes, cost, tuning, decls, spawns, coverage, .. } = self;
        let n_threads = spawns.len();
        let mut shared = Shared::new(decls.clone(), n_threads, tuning.telemetry);
        shared.coverage = coverage;
        let shared = Arc::new(shared);
        let (resumes, resume_rxs): (Vec<Sender<OpResult>>, Vec<Receiver<OpResult>>) =
            (0..n_threads).map(|_| channel()).unzip();
        sig::install();
        let fabric =
            start(Launch { n_nodes, decls: &decls, cost: &cost, shared: &shared, resumes });

        // Every application thread holds a clone of `running` until it
        // ends, so the watchdog's wait on `all_done` returns the moment the
        // last one exits (a plain sleep would add a poll interval to every
        // run's wall clock).
        let (running, all_done) = channel::<()>();
        let mut apps = Vec::with_capacity(n_threads);
        for (idx, ((node, body), resume_rx)) in spawns.into_iter().zip(resume_rxs).enumerate() {
            let tid = ThreadId(idx as u32);
            let port = fabric.port(node);
            let ctx = RtCtx::new(
                tid,
                node,
                n_nodes,
                n_threads,
                port,
                resume_rx,
                shared.clone(),
                tuning.clone(),
            );
            let running = running.clone();
            apps.push(
                std::thread::Builder::new()
                    .name(format!("app-{tid}"))
                    .spawn(move || {
                        let _running = running;
                        drive_app_thread(ctx, body)
                    })
                    .expect("failed to spawn application thread"),
            );
        }
        drop(running);
        watch(&fabric, &shared, n_nodes, tuning.stall_timeout, &all_done);
        let thread_waits: Vec<WaitTable> =
            apps.into_iter().map(|j| j.join().unwrap_or_default()).collect();
        let stats = fabric.teardown();

        let elapsed = shared.start.elapsed();
        let errors = shared.errors.lock().expect("error log poisoned").clone();
        let metrics = tuning.telemetry.enabled().then(|| shared.obs.snapshot(stats.clone()));
        RunReport {
            finished_at: VirtualTime::micros(
                u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
            ),
            stats,
            ops: shared.ops.load(Ordering::Relaxed),
            thread_waits,
            errors,
            deadlocked: shared.is_poisoned(),
            wall: Some(WallClock { elapsed, workers: n_threads, nodes: n_nodes }),
            dumps: shared.take_dumps(),
            metrics,
        }
    }
}

/// Run one application thread's body to completion: catch panics, issue the
/// implicit `Exit` synchronization, decrement the live count, and return the
/// thread's wait table.
fn drive_app_thread<P: Send + Sync + Clone + 'static>(
    mut ctx: RtCtx<P>,
    body: Box<dyn FnOnce(&mut RtCtx<P>) + Send>,
) -> WaitTable {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let shared = ctx.shared.clone();
    let tid = ctx.thread;
    match catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
        Ok(()) => {
            // Graceful exit is itself a synchronization point (flushes the
            // delayed update queue). A panic here means the watchdog tore
            // the run down mid-exit; it already reported.
            let _ = catch_unwind(AssertUnwindSafe(|| ctx.op(DsmOp::Exit)));
        }
        Err(p) => {
            let msg = panic_message(&*p);
            // Teardown panics raised by RtCtx::op after poisoning are a
            // consequence of the stall, not an application bug — the
            // watchdog already reported the cause.
            if !msg.starts_with("real-time kernel") {
                shared.error(format!("{tid} panicked: {msg}"));
            }
        }
    }
    shared.live.fetch_sub(1, Ordering::SeqCst);
    ctx.waits
}

/// The stall watchdog of every wall-clock run, with the SIGUSR1 dump
/// service. It runs on the thread that launched the application threads
/// and returns once they have all exited (`all_done` disconnects) or once
/// it has declared a stall.
///
/// The real-time replacement for quiescence-based deadlock detection: a
/// run is stalled when the fabric's progress fingerprint stays unchanged
/// for `stall_timeout` while every live application thread is blocked in a
/// DSM operation and no timer is pending anywhere. Then the watchdog
/// reports the stall, captures every node's stuck state into the errors
/// and the report's dumps, and poisons the run so the blocked threads tear
/// down instead of hanging.
fn watch(
    fabric: &impl WallFabric,
    shared: &Shared,
    n_nodes: usize,
    stall_timeout: Duration,
    all_done: &Receiver<()>,
) {
    let (mut last, mut fingerprint) = (Vec::new(), Vec::new());
    let mut stable_since = Instant::now();
    while let Err(RecvTimeoutError::Timeout) = all_done.recv_timeout(WATCHDOG_POLL) {
        if sig::take_dump_request() {
            dump_on_demand(fabric, shared);
        }
        fingerprint.clear();
        let timers = fabric.probe(&mut fingerprint);
        if fingerprint != last {
            std::mem::swap(&mut fingerprint, &mut last);
            stable_since = Instant::now();
            continue;
        }
        let live = shared.live.load(Ordering::SeqCst);
        let blocked = shared.blocked.load(Ordering::SeqCst);
        if live == 0 || blocked < live || timers > 0 {
            stable_since = Instant::now();
            continue;
        }
        if stable_since.elapsed() < stall_timeout {
            continue;
        }
        shared.error(format!(
            "stall: all {live} live thread(s) blocked in DSM operations with no activity on \
             any of the {n_nodes} node(s) and no pending timer for {stall_timeout:?} — \
             wall-clock deadlock"
        ));
        for (node, text) in fabric.dumps() {
            if !text.is_empty() {
                let line = format!("[stall dump n{}] {text}", node.index());
                shared.error(line.clone());
                shared.dump(line);
            }
        }
        shared.poisoned.store(true, Ordering::Release);
        fabric.on_poison();
        return;
    }
}

/// SIGUSR1: print every node's state and the live metrics to stderr and
/// keep them in the report; the run goes on.
fn dump_on_demand(fabric: &impl WallFabric, shared: &Shared) {
    let mut lines: Vec<String> = fabric
        .dumps()
        .into_iter()
        .map(|(node, text)| {
            let text = if text.is_empty() { "(no stuck state)".into() } else { text };
            format!("[dump n{}] {text}", node.index())
        })
        .collect();
    // The live metrics surface: the telemetry snapshot mid-run. Net
    // counters are merged only at teardown, so it carries zeros there until
    // the run ends.
    if shared.obs.enabled() {
        lines.push(format!("[metrics]\n{}", shared.obs.snapshot(NetStats::new()).render_text()));
    }
    for line in lines {
        eprintln!("{line}");
        shared.dump(line);
    }
}

/// The in-process channel fabric: one server thread per node draining its
/// inbox, and the timer thread.
struct RtFabric<P> {
    shared: Arc<Shared>,
    inboxes: Vec<Sender<NodeEvent<P>>>,
    servers: Vec<JoinHandle<NetStats>>,
    timer_tx: Sender<TimerReq>,
    timer: JoinHandle<()>,
}

impl<P: munin_net::PayloadInfo + Send + Sync + Clone + 'static> RtFabric<P> {
    fn start<S: Server<Payload = P> + 'static>(launch: Launch<'_>, servers: Vec<S>) -> Self {
        let Launch { n_nodes, cost, shared, resumes, .. } = launch;
        let (inboxes, inbox_rxs): (Vec<Sender<NodeEvent<P>>>, Vec<Receiver<NodeEvent<P>>>) =
            (0..n_nodes).map(|_| channel()).unzip();
        let (timer_tx, timer_rx) = channel();
        let timer = {
            let inboxes = inboxes.clone();
            let shared = shared.clone();
            // Send errors are ignored: the node shut down during teardown.
            let deliver = move |node: NodeId, token| {
                let _ = inboxes[node.index()].send(NodeEvent::Timer(token));
            };
            std::thread::Builder::new()
                .name("rt-timer".into())
                .spawn(move || run_timer_thread(timer_rx, deliver, shared))
                .expect("failed to spawn timer thread")
        };
        let servers = servers
            .into_iter()
            .zip(inbox_rxs)
            .enumerate()
            .map(|(i, (server, inbox))| {
                let kernel = RtKernel {
                    node: NodeId(i as u16),
                    cost: cost.clone(),
                    inboxes: inboxes.clone(),
                    resumes: resumes.clone(),
                    timer_tx: timer_tx.clone(),
                    shared: shared.clone(),
                    stats: NetStats::new(),
                    outbox: (0..n_nodes).map(|_| Vec::new()).collect(),
                    completions: Vec::new(),
                };
                std::thread::Builder::new()
                    .name(format!("rt-node-{i}"))
                    .spawn(move || server_loop(server, kernel, inbox))
                    .expect("failed to spawn server thread")
            })
            .collect();
        RtFabric { shared: shared.clone(), inboxes, servers, timer_tx, timer }
    }
}

impl<P: Send + Sync + 'static> WallFabric for RtFabric<P> {
    fn port(&self, node: NodeId) -> Box<dyn OpPort> {
        Box::new(self.inboxes[node.index()].clone())
    }

    fn probe(&self, fingerprint: &mut Vec<u64>) -> u64 {
        fingerprint.push(self.shared.activity.load(Ordering::Relaxed));
        self.shared.timers_pending.load(Ordering::Acquire) as u64
    }

    /// Ask every server at once; each answers from its own thread.
    fn dumps(&self) -> Vec<(NodeId, String)> {
        let replies: Vec<Receiver<String>> = self
            .inboxes
            .iter()
            .map(|inbox| {
                let (tx, rx) = channel();
                let _ = inbox.send(NodeEvent::Dump(tx));
                rx
            })
            .collect();
        let deadline = Instant::now() + DUMP_WAIT;
        replies
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let text = match rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
                {
                    Ok(text) => text,
                    Err(RecvTimeoutError::Timeout) => "(server loop unresponsive)".into(),
                    Err(RecvTimeoutError::Disconnected) => "(server loop gone)".into(),
                };
                (NodeId(i as u16), text)
            })
            .collect()
    }

    fn teardown(self) -> NetStats {
        for tx in &self.inboxes {
            let _ = tx.send(NodeEvent::Shutdown);
        }
        // Each server thread returns its node's traffic shard; summing them
        // here at teardown is the only place the counters ever meet — the
        // send path never touches a cross-node lock.
        let mut stats = NetStats::new();
        for j in self.servers {
            if let Ok(node_stats) = j.join() {
                stats.merge(&node_stats);
            }
        }
        drop(self.inboxes);
        drop(self.timer_tx);
        let _ = self.timer.join();
        stats
    }
}
