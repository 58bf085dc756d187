//! Building and running a real-time world: one server thread per node,
//! free-running application threads, a timer thread and a stall watchdog.

use crate::ctx::RtCtx;
use crate::fabric::{NodeEvent, Shared};
use crate::kernel::RtKernel;
use crate::serve::{drive_app_thread, server_loop};
use crate::timer::run_timer_thread;
use munin_sim::report::{RunReport, WaitTable, WallClock};
use munin_sim::Server;
use munin_types::{CostModel, NodeId, ObjectDecl, ObjectId, Telemetry, ThreadId, VirtualTime};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;
use std::time::Instant;

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

/// Sampling period of the stall watchdogs (this kernel's and the TCP
/// coordinator's).
pub const WATCHDOG_POLL: Duration = Duration::from_millis(50);

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

/// Builder for a real-time world: declare objects, spawn threads, then
/// [`RtWorldBuilder::run`] with one server per node. The shape mirrors
/// [`munin_sim::WorldBuilder`] so the API harness can drive either kernel.
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
    /// servers note transitions into it through `KernelApi::coverage`.
    pub fn coverage(mut self, map: Arc<munin_obs::CoverageMap>) -> Self {
        self.coverage = Some(map);
        self
    }

    /// Cost model handed to the servers (their bookkeeping reads it; the
    /// kernel itself never charges modelled latencies).
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

    /// Run to completion with one server per node (`servers[i]` serves
    /// `NodeId(i)`). Returns a [`RunReport`] whose `wall` section and wait
    /// tables are real (host) microseconds.
    pub fn run<S>(self, servers: Vec<S>) -> RunReport
    where
        S: Server<Payload = P> + 'static,
        S::Payload: Send,
    {
        assert_eq!(servers.len(), self.n_nodes, "need exactly one server per node");
        let n_nodes = self.n_nodes;
        let n_threads = self.spawns.len();
        let mut shared0 = Shared::new(self.decls, n_threads, self.tuning.telemetry);
        shared0.coverage = self.coverage;
        let shared = Arc::new(shared0);

        let mut inbox_txs: Vec<Sender<NodeEvent<P>>> = Vec::with_capacity(n_nodes);
        let mut inbox_rxs: Vec<Receiver<NodeEvent<P>>> = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let (tx, rx) = channel();
            inbox_txs.push(tx);
            inbox_rxs.push(rx);
        }
        let mut resume_txs = Vec::with_capacity(n_threads);
        let mut resume_rxs = Vec::with_capacity(n_threads);
        for _ in 0..n_threads {
            let (tx, rx) = channel();
            resume_txs.push(tx);
            resume_rxs.push(rx);
        }
        let (timer_tx, timer_rx) = channel();

        let timer_join = {
            let inboxes = inbox_txs.clone();
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

        let mut server_joins = Vec::with_capacity(n_nodes);
        for (i, (server, inbox)) in servers.into_iter().zip(inbox_rxs).enumerate() {
            let kernel = RtKernel {
                node: NodeId(i as u16),
                cost: self.cost.clone(),
                inboxes: inbox_txs.clone(),
                resumes: resume_txs.clone(),
                timer_tx: timer_tx.clone(),
                shared: shared.clone(),
                stats: munin_net::NetStats::new(),
                outbox: (0..n_nodes).map(|_| Vec::new()).collect(),
                completions: Vec::new(),
            };
            server_joins.push(
                std::thread::Builder::new()
                    .name(format!("rt-node-{i}"))
                    .spawn(move || server_loop(server, kernel, inbox))
                    .expect("failed to spawn server thread"),
            );
        }

        // The watchdog parks on this channel between polls; dropping the
        // sender wakes it instantly at teardown (a plain sleep would add a
        // full poll interval to every run's wall clock).
        let (watchdog_stop_tx, watchdog_stop_rx) = channel::<()>();
        let watchdog_join = {
            let shared = shared.clone();
            let inboxes = inbox_txs.clone();
            let tuning = self.tuning.clone();
            std::thread::Builder::new()
                .name("rt-watchdog".into())
                .spawn(move || watchdog(shared, inboxes, tuning, watchdog_stop_rx))
                .expect("failed to spawn watchdog thread")
        };

        let mut app_joins = Vec::with_capacity(n_threads);
        for ((idx, (node, body)), resume_rx) in self.spawns.into_iter().enumerate().zip(resume_rxs)
        {
            let tid = ThreadId(idx as u32);
            let ctx = RtCtx::new(
                tid,
                node,
                n_nodes,
                n_threads,
                Box::new(inbox_txs[node.index()].clone()),
                resume_rx,
                shared.clone(),
                self.tuning.clone(),
            );
            app_joins.push(
                std::thread::Builder::new()
                    .name(format!("rt-{tid}"))
                    .spawn(move || drive_app_thread(ctx, body))
                    .expect("failed to spawn application thread"),
            );
        }

        let thread_waits: Vec<WaitTable> =
            app_joins.into_iter().map(|j| j.join().unwrap_or_default()).collect();

        drop(watchdog_stop_tx);
        let _ = watchdog_join.join();

        for tx in &inbox_txs {
            let _ = tx.send(NodeEvent::Shutdown);
        }
        // Each server thread returns its node's traffic shard; summing them
        // here at teardown is the only place the counters ever meet — the
        // send path never touches a cross-node lock.
        let mut stats = munin_net::NetStats::new();
        for j in server_joins {
            if let Ok(node_stats) = j.join() {
                stats.merge(&node_stats);
            }
        }
        drop(inbox_txs);
        drop(timer_tx);
        let _ = timer_join.join();

        let elapsed = shared.start.elapsed();
        let errors = shared.errors.lock().expect("error log poisoned").clone();
        let metrics = self.tuning.telemetry.enabled().then(|| shared.obs.snapshot(stats.clone()));
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

/// The real-time replacement for quiescence-based deadlock detection: a
/// run is stalled when every live application thread is blocked inside a
/// DSM operation, no server has processed an event for `stall_timeout`,
/// and no timer is pending. On stall: report, capture every server's
/// `debug_stuck_state`, then poison the run so blocked threads tear down.
fn watchdog<P: Send + Sync + 'static>(
    shared: Arc<Shared>,
    inboxes: Vec<Sender<NodeEvent<P>>>,
    tuning: RtTuning,
    stop: Receiver<()>,
) {
    let mut last_epoch = shared.activity.load(Ordering::Relaxed);
    let mut stable_since = Instant::now();
    loop {
        match stop.recv_timeout(WATCHDOG_POLL) {
            // The run is over (sender dropped or an explicit stop).
            Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {}
        }
        let epoch = shared.activity.load(Ordering::Relaxed);
        if epoch != last_epoch {
            last_epoch = epoch;
            stable_since = Instant::now();
            continue;
        }
        let live = shared.live.load(Ordering::SeqCst);
        let blocked = shared.blocked.load(Ordering::SeqCst);
        if live == 0 || blocked < live || shared.timers_pending.load(Ordering::Acquire) > 0 {
            stable_since = Instant::now();
            continue;
        }
        if stable_since.elapsed() < tuning.stall_timeout {
            continue;
        }
        shared.error(format!(
            "stall: all {live} live thread(s) blocked in DSM operations with no kernel \
             activity and no pending timer for {:?} — real-time deadlock",
            tuning.stall_timeout
        ));
        for tx in &inboxes {
            let _ = tx.send(NodeEvent::DumpStuck);
        }
        // Give the (idle, hence responsive) servers a beat to dump state
        // before the teardown panics start flying.
        std::thread::sleep(Duration::from_millis(300));
        shared.poisoned.store(true, Ordering::Release);
        return;
    }
}
