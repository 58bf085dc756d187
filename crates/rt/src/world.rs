//! Running a wall-clock world. [`run_on`] takes a [`WorldDesc`] (objects,
//! application threads, coverage) and the [`RtTuning`], and is the one run
//! skeleton both wall-clock fabrics share: the run state, the application
//! threads, the stall watchdog with its SIGUSR1 service, and the
//! [`RunReport`]. What differs between the fabrics sits behind
//! [`WallFabric`], implemented by this crate's channel fabric (one server
//! thread per node, a timer thread; [`run`]) and by `munin-tcp`'s process
//! fabric.

use crate::ctx::{OpPort, RtCtx, RtPort};
use crate::fabric::{NodeEvent, Shared};
use crate::kernel::{ChanLink, WallKernel};
use crate::serve::server_loop;
use crate::sig;
use crate::timer::{run_timer_thread, TimerReq};
use munin_net::NetStats;
use munin_sim::report::{RunReport, WaitTable, WallClock};
use munin_sim::{panic_message, DsmOp, DsmThread, ResumeSlot, Server, ThreadBody, WorldDesc};
use munin_types::{CostModel, NodeId, ObjectDecl, Telemetry, VirtualTime};
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

/// What a real-time run lets its caller choose. Nothing else about the
/// client path ([`munin_sim::Client`]) or the server step is a knob.
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
    /// The state every thread of the run shares.
    pub shared: &'a Arc<Shared>,
    /// The application threads' resume slots, indexed by thread id. A
    /// fabric pushes a result under whatever lock ordered it and wakes the
    /// thread only after releasing that lock (see [`ResumeSlot`]).
    pub resumes: Vec<Arc<ResumeSlot>>,
}

/// What a wall-clock fabric supplies to [`run_on`], which
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

/// Run `desc` to completion on the in-process channel fabric, with one
/// server per node (`servers[i]` serves `NodeId(i)`). `cost` is handed to
/// the servers (their bookkeeping reads it; the kernel itself never charges
/// modelled latencies). Returns a [`RunReport`] whose `wall` section and
/// wait tables are real (host) microseconds.
pub fn run<S>(desc: WorldDesc, servers: Vec<S>, cost: CostModel, tuning: RtTuning) -> RunReport
where
    S: Server + 'static,
    S::Payload: Send + Sync,
{
    assert_eq!(servers.len(), desc.n_nodes(), "need exactly one server per node");
    run_on(desc, tuning, |launch| RtFabric::start(launch, servers, cost))
}

/// The run skeleton of every wall-clock fabric: create the run state and
/// the resume slots, `start` the fabric, launch `desc`'s application
/// threads (there is no start rendezvous: each begins as soon as it is
/// launched, in this process, and its ops enter its node through the
/// fabric's op port), watch them until they have all exited, tear the
/// fabric down and assemble the report.
pub fn run_on<F: WallFabric>(
    desc: WorldDesc,
    tuning: RtTuning,
    start: impl FnOnce(Launch<'_>) -> F,
) -> RunReport {
    let n_nodes = desc.n_nodes();
    let n_threads = desc.n_threads();
    let mut shared = Shared::new(desc.decls().to_vec(), n_threads, tuning.telemetry);
    shared.coverage = desc.coverage().cloned();
    let shared = Arc::new(shared);
    let slots: Vec<Arc<ResumeSlot>> = (0..n_threads).map(|_| Arc::new(ResumeSlot::new())).collect();
    sig::install();
    let resumes = slots.clone();
    let fabric = start(Launch { n_nodes, decls: desc.decls(), shared: &shared, resumes });

    // Every application thread holds a clone of `running` until it ends, so
    // the watchdog's wait on `all_done` returns the moment the last one
    // exits (a plain sleep would add a poll interval to every run's wall
    // clock).
    let (running, all_done) = channel::<()>();
    let mut apps = Vec::with_capacity(n_threads);
    for ((tid, node, body), slot) in desc.into_threads().zip(slots) {
        let port = RtPort::new(tid, fabric.port(node), slot, shared.clone(), tuning.clone());
        let ctx = RtCtx::new(port, tid, node, n_nodes, n_threads);
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
        finished_at: VirtualTime::micros(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)),
        stats,
        ops: shared.ops.load(Ordering::Relaxed),
        thread_waits,
        errors,
        deadlocked: shared.is_poisoned(),
        wall: Some(WallClock { elapsed, workers: n_threads, nodes: n_nodes }),
        dumps: shared.take_dumps(),
        metrics,
        pipelined_faults: 0,
    }
}

/// Run one application thread's body to completion: catch panics, issue the
/// implicit `Exit` synchronization, decrement the live count, and return the
/// thread's wait table.
fn drive_app_thread(mut ctx: RtCtx, body: ThreadBody) -> WaitTable {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let shared = ctx.port().shared.clone();
    let tid = ctx.thread_id();
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
    ctx.into_waits()
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
    fn start<S: Server<Payload = P> + 'static>(
        launch: Launch<'_>,
        servers: Vec<S>,
        cost: CostModel,
    ) -> Self {
        let Launch { n_nodes, shared, resumes, .. } = launch;
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
                let link = ChanLink {
                    me: NodeId(i as u16),
                    inboxes: inboxes.clone(),
                    resumes: resumes.clone(),
                    outbox: (0..n_nodes).map(|_| Vec::new()).collect(),
                };
                let kernel = WallKernel::new(
                    NodeId(i as u16),
                    cost.clone(),
                    link,
                    timer_tx.clone(),
                    shared.clone(),
                );
                std::thread::Builder::new()
                    .name(format!("rt-node-{i}"))
                    .spawn(move || server_loop(NodeId(i as u16), server, kernel, inbox))
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

#[cfg(test)]
mod tests {
    use super::*;
    use munin_net::{MsgClass, PayloadInfo};
    use munin_sim::{KernelApi, NullTracer, OpOutcome, OpResult, TransportConfig, World};
    use munin_types::{BarrierId, ByteRange, CondId, LockId, ObjectId, SharingType, ThreadId};
    use std::sync::Mutex;

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

    /// A server whose lock table was sized from the wrong count: a lock op
    /// indexes past it, as a lock homed on a node that does not exist
    /// would.
    struct ShortLockTable {
        holders: Vec<Option<ThreadId>>,
    }

    impl Server for ShortLockTable {
        type Payload = NoMsg;
        fn on_op(&mut self, _k: &mut dyn KernelApi<NoMsg>, t: ThreadId, op: DsmOp) -> OpOutcome {
            if let DsmOp::Lock(lock) = op {
                self.holders[lock.0 as usize] = Some(t);
            }
            OpOutcome::unit(0)
        }
        fn on_message(&mut self, _k: &mut dyn KernelApi<NoMsg>, _from: NodeId, _p: NoMsg) {}
    }

    /// A panicking protocol step is a run error naming the node, not a
    /// clean run: the blocked thread's teardown panic stays silent, so
    /// without the server loop's report nothing would say what happened.
    #[test]
    fn a_panicking_protocol_step_fails_the_run() {
        let mut b = WorldDesc::new(2);
        b.spawn(NodeId(1), |ctx| ctx.lock(LockId(5)));
        let servers = (0..2).map(|_| ShortLockTable { holders: Vec::new() }).collect();
        let report = run(b, servers, CostModel::default(), RtTuning::default());
        assert!(!report.is_clean(), "a step panic must not leave a clean report");
        assert!(
            report.errors[0].starts_with("node n1: protocol step panicked: index out of bounds"),
            "{:#?}",
            report.errors
        );
        assert_eq!(report.errors.len(), 1, "{:#?}", report.errors);
    }

    const OBJ: ObjectId = ObjectId(4);

    /// What the fake node answers each op with.
    fn reply(op: &DsmOp) -> OpResult {
        match op {
            DsmOp::Alloc(_) => OpResult::Object(ObjectId(9)),
            DsmOp::Read { range, .. } => OpResult::Bytes(vec![7; range.len as usize]),
            DsmOp::AtomicFetchAdd { .. } => OpResult::Value(41),
            _ => OpResult::Unit,
        }
    }

    /// Every wrapper of the thread surface, called once. No two writes
    /// touch, except `write_raw`, which extends the `write` before it.
    #[allow(clippy::type_complexity)]
    const WRAPPERS: &[(&str, fn(&mut dyn DsmThread))] = &[
        ("alloc", |t| {
            let decl = ObjectDecl::template("o", SharingType::WriteMany);
            assert_eq!(t.alloc(decl), ObjectId(9));
        }),
        ("read", |t| assert_eq!(t.read(OBJ, ByteRange::new(0, 3)), [7; 3])),
        ("read_raw_into", |t| {
            let mut out = [0u8; 2];
            t.read_raw_into(OBJ, ByteRange::new(4, 2), &mut out);
            assert_eq!(out, [7; 2]);
        }),
        ("write", |t| t.write(OBJ, 0, vec![1, 2])),
        ("write_raw", |t| t.write_raw(OBJ, 2, &[3])),
        ("fetch_add", |t| assert_eq!(t.fetch_add(OBJ, 8, 5), 41)),
        ("write_raw_async", |t| {
            let state = t.write_raw_async(OBJ, 16, &[4]);
            assert_eq!(t.token_wait(state), 0);
        }),
        ("fetch_add_async", |t| {
            let state = t.fetch_add_async(OBJ, 8, 1);
            assert_eq!(t.token_wait(state), 41);
        }),
        ("lock", |t| t.lock(LockId(1))),
        ("cond_wait", |t| t.cond_wait(CondId(3), LockId(1))),
        ("cond_signal", |t| t.cond_signal(CondId(3), false)),
        ("cond_signal broadcast", |t| t.cond_signal(CondId(3), true)),
        ("unlock", |t| t.unlock(LockId(1))),
        ("barrier", |t| t.barrier(BarrierId(2))),
        ("flush", |t| t.flush()),
        ("phase", |t| t.phase(1)),
        // Modelled by the fabric on both: never reaches a node.
        ("compute", |t| t.compute(0)),
        ("drain_ops", |t| t.drain_ops()),
    ];

    fn call_every_wrapper(t: &mut dyn DsmThread) {
        for (name, call) in WRAPPERS {
            if let Err(p) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(t))) {
                panic!("wrapper `{name}` failed: {}", panic_message(&*p));
            }
        }
    }

    /// The simulator's node: record each op and answer it at once.
    struct Recorder(Arc<Mutex<Vec<DsmOp>>>);

    impl Server for Recorder {
        type Payload = NoMsg;
        fn on_op(&mut self, _k: &mut dyn KernelApi<NoMsg>, _t: ThreadId, op: DsmOp) -> OpOutcome {
            let result = reply(&op);
            self.0.lock().unwrap().push(op);
            OpOutcome::done(result, 0)
        }
        fn on_message(&mut self, _k: &mut dyn KernelApi<NoMsg>, _from: NodeId, _p: NoMsg) {}
    }

    /// The rt context's node: its op port records each op and answers it
    /// in the resume slot at once.
    struct RecordingPort {
        ops: Arc<Mutex<Vec<DsmOp>>>,
        resume: Arc<ResumeSlot>,
    }

    impl OpPort for RecordingPort {
        fn submit(&mut self, _thread: ThreadId, op: DsmOp, _pipelined: bool) -> bool {
            self.resume.deliver(reply(&op));
            self.ops.lock().unwrap().push(op);
            true
        }
    }

    /// The wrappers and the client path are written once, so both thread
    /// contexts send their node the same ops, the contiguous `write` +
    /// `write_raw` pair combined into one write on both.
    #[test]
    fn simulator_and_rt_contexts_send_the_same_ops() {
        let sim_ops = Arc::new(Mutex::new(Vec::new()));
        let mut b = WorldDesc::new(1);
        b.spawn(NodeId(0), call_every_wrapper);
        let servers = vec![Recorder(sim_ops.clone())];
        World::new(b, servers, TransportConfig::default(), Box::new(NullTracer))
            .run()
            .assert_clean();
        let mut sim_ops = std::mem::take(&mut *sim_ops.lock().unwrap());
        assert_eq!(sim_ops.pop(), Some(DsmOp::Exit), "the simulator's thread exits last");

        let rt_ops = Arc::new(Mutex::new(Vec::new()));
        let resume = Arc::new(ResumeSlot::new());
        let port = RtPort::new(
            ThreadId(0),
            Box::new(RecordingPort { ops: rt_ops.clone(), resume: resume.clone() }),
            resume,
            Arc::new(Shared::new(Vec::new(), 1, Telemetry::default())),
            RtTuning::default(),
        );
        let mut ctx = RtCtx::new(port, ThreadId(0), NodeId(0), 1, 1);
        call_every_wrapper(&mut ctx);
        let rt_ops = std::mem::take(&mut *rt_ops.lock().unwrap());

        assert_eq!(rt_ops, sim_ops);
        let combined = DsmOp::Write { obj: OBJ, range: ByteRange::new(0, 3), data: vec![1, 2, 3] };
        assert!(sim_ops.contains(&combined), "{sim_ops:?}");
        // One op per wrapper that reaches a node: all but compute and
        // drain_ops, and the two writes leave as one.
        assert_eq!(sim_ops.len(), WRAPPERS.len() - 3);
    }
}
