//! The node: one node's protocol state behind one mutex, the threads that
//! step it, and the child process built around it (what the `munin-node`
//! binary runs).
//!
//! ## Thread model
//!
//! There is no server thread and no inbox. A node's `{server, kernel, op
//! gate}` (a `munin_rt::NodeStep`) sits in a [`NodeCell`], and each
//! protocol step runs **on the thread that already holds the event**:
//!
//! * a data stream's reader decodes every complete frame its one `read`
//!   returned, then runs them as one step under one lock hold, flushing
//!   once;
//! * a coordinator-hosted application thread placed on node 0 runs its op
//!   inline (a local hit never leaves the thread); one placed on node `j`
//!   encodes an `Op` frame onto the coordinator's link to `j` and is
//!   resumed by a `Resume` frame that `j`'s reader-side step wrote and the
//!   coordinator's reader of that stream hands straight to the thread's
//!   resume slot;
//! * the timer thread runs `on_timer` steps.
//!
//! Thread hand-offs (wake-ups on the critical path) / system calls per op:
//!
//! | op | path | hand-offs / syscalls |
//! |---|---|---|
//! | node-0 thread, local hit | inline under the node lock | 0 / 0 |
//! | node-j thread, local hit | app → reader_j → reader_0 → app | 3 / 6 |
//! | node-0 thread, remote op, home j | app → reader_j → reader_0 → app | 3 / 6-7 |
//! | node-j thread, remote op, home 0 | app → reader_j → reader_0 → reader_j → reader_0 → app | 5 / 10 |
//! | node-0 thread, K-deep window, home j | app → reader_j → reader_0 → app | 3 / 6-7 per window |
//! | node-j thread, K-deep window, home j | app → reader_j → reader_0 → app | 3 / 6 per window |
//!
//! Each hand-off is one context switch, because no thread is woken while
//! its waker holds a lock it needs next (the wake-after-release rule
//! below). A window's K `Op` frames leave in one socket write (the
//! leave-when-about-to-park rule below); the window rows assume the K
//! replies also come back in one read, which holds for ops the node's gate
//! overlaps (Munin's fetch-adds to one home) and for local hits at `j`.
//!
//! ## Locks and blocking
//!
//! Lock order: node cell → link out-buffer, never the reverse. Wake after
//! release: a step queues each result in the thread's resume slot while
//! it holds the cell (so a thread's results keep step order), and
//! `NodeCell::locked`, which runs every step, wakes the parked threads
//! after dropping the cell's lock, which the woken thread's next inline op
//! needs. A `Resume` frame goes into the slot from the reader, which holds
//! no lock.
//!
//! Leave when about to park: a node-0 thread's pipelined op (an async op
//! or a combined write) runs its step without the step-end write, so its
//! frames wait in the link's out-buffer. The end of any later step of the
//! node sends them; at the latest, the thread's next blocking op does (its
//! step ends with the write, as every other step does, and takes the cell
//! once), or the thread's flush as it parks or computes (`InlinePort`). A
//! node-j thread's `Op` frames wait in the coordinator's link the same
//! way, until its flush (`LinkPort`).
//!
//! A cell is never held across a blocking call other than the registry
//! RPC, and no thread that reads a socket or holds a cell ever blocks in a
//! data-socket write (see [`crate::link`]); control-stream writes do
//! block, which is safe because no reader of a control stream waits on a
//! cell. A panic inside a step poisons the cell's mutex: it is reported
//! once as a run error naming the node and poisons the run.
//!
//! ## Child lifecycle
//!
//! 1. bind a loopback data listener, connect the control stream to the
//!    coordinator, send `Hello { node, data_port }`;
//! 2. receive `Start` (protocol config, declarations, peer ports, tuning);
//! 3. build the mesh: dial every lower-numbered node's data listener,
//!    accept a connection from every higher-numbered one (one TCP stream
//!    per node pair, which gives per-(src,dst) FIFO for free);
//! 4. build the cell, start one reader per data stream, send `Ready`;
//! 5. on `Finish`, report `Done { stats, errors, .. }` and exit after
//!    `Bye`; on `Poison`, a lost peer, or a lost coordinator, tear down
//!    immediately with the cause recorded.
//!
//! Every wait in set-up and teardown, on either side, wakes on its event:
//! a blocking read or channel receive where one exists, otherwise
//! `frames::poll_until`'s short backoff (20 µs doubling to 5 ms) for the
//! accepts and the coordinator's reap. Each is bounded by a deadline
//! ([`MESH_TIMEOUT`] for the handshake, 5 s for the reap), and no wait
//! naps a fixed interval. The coordinator checks its children between
//! handshake polls, so a child that dies during the handshake fails the
//! run at once, naming the node and its exit status.

use crate::frames::{
    accept_streams, read_frame, send_shared, shared_writer, write_frame, CtrlFrame, DataFrame,
    FrameReader, SharedWriter, StartConfig, TestFault, STREAM_CTRL, STREAM_DATA,
};
use crate::link::{fail_run, Link, Links, ResumeSink};
use crate::registry::{apply, RegClient, RegWritePath};
use munin_net::NetStats;
use munin_proto::{Protocol, Wire};
use munin_rt::timer::run_timer_thread;
use munin_rt::{MsgBody, NodeEvent, NodeStep, OpPort, Shared, WallKernel, DUMP_WAIT};
use munin_sim::{panic_message, DsmOp, ResumeSlot, Server};
use munin_types::{CostModel, NodeId, ThreadId};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::{Duration, Instant};

/// How long process spawn, handshake and mesh setup may take, on either
/// side: the coordinator gives up on children that never report Ready, a
/// child on a coordinator that died mid-handshake.
pub(crate) const MESH_TIMEOUT: Duration = Duration::from_secs(30);

/// Child heartbeat period: the distributed stall watchdog's sampling feed.
const HEARTBEAT: Duration = Duration::from_millis(25);

fn loopback(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// One registered protocol: its wire tag and the function that runs a
/// child node under it. Obtained from [`node_entry`]; the `munin-node`
/// binary passes the full registry to [`run_node`], which is how a new
/// protocol plugs into the fabric without this crate naming it.
pub type NodeRunFn = fn(TcpStream, TcpListener, StartConfig) -> io::Result<bool>;

/// The registry entry for protocol `Pr`.
pub fn node_entry<Pr: Protocol>() -> (u8, NodeRunFn) {
    (Pr::TAG, run_proto_node::<Pr>)
}

/// Become a node of a `Pr` run: decode the protocol config from the start
/// frame, build the server, and hand off to the generic node main loop.
fn run_proto_node<Pr: Protocol>(
    ctrl: TcpStream,
    listener: TcpListener,
    start: StartConfig,
) -> io::Result<bool> {
    let cfg = Pr::Config::decode(&start.proto_cfg).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("bad {} config: {e}", Pr::NAME))
    })?;
    let server = Pr::server(&cfg, start.node, start.n_nodes as usize, &start.decls, &start.sync);
    let cost = Pr::cost(&cfg).clone();
    node_main(ctrl, listener, start, server, cost)
}

/// Entry point of the `munin-node` binary. `protos` is the binary's
/// protocol registry (one [`node_entry`] per linked protocol). Returns the
/// process exit code.
pub fn run_node(coordinator: &str, node_index: u16, protos: &[(u8, NodeRunFn)]) -> i32 {
    match run_node_inner(coordinator, node_index, protos) {
        Ok(clean) => {
            if clean {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("munin-node n{node_index}: {e}");
            2
        }
    }
}

fn run_node_inner(
    coordinator: &str,
    node_index: u16,
    protos: &[(u8, NodeRunFn)],
) -> io::Result<bool> {
    let me = NodeId(node_index);
    let listener = TcpListener::bind(loopback(0))?;
    let data_port = listener.local_addr()?.port();

    let addr: SocketAddr = coordinator
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("bad address: {e}")))?;
    let mut ctrl = TcpStream::connect_timeout(&addr, MESH_TIMEOUT)?;
    ctrl.set_nodelay(true)?;
    ctrl.write_all(&[STREAM_CTRL])?;
    let mut scratch = Vec::new();
    write_frame(&mut ctrl, &mut scratch, &CtrlFrame::Hello { node: me, data_port })?;

    let mut buf = Vec::new();
    let start = match read_frame::<CtrlFrame>(&mut ctrl, &mut buf)? {
        CtrlFrame::Start(cfg) => *cfg,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Start, got {other:?}"),
            ))
        }
    };
    debug_assert_eq!(start.node, me, "coordinator and spawn args disagree on node id");

    let Some((_, run)) = protos.iter().find(|(tag, _)| *tag == start.proto_tag.0) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "coordinator requested protocol tag {} but this binary only links {:?}",
                start.proto_tag.0,
                protos.iter().map(|(t, _)| *t).collect::<Vec<_>>()
            ),
        ));
    };
    run(ctrl, listener, start)
}

/// One node's protocol state behind its mutex, plus what the threads that
/// step it need at hand. Shared (`Arc`) by the node's data readers, its
/// timer thread, the dump paths and, on the coordinator, node 0's
/// application threads.
pub(crate) struct NodeCell<S: Server> {
    node: NodeId,
    /// `None` once teardown closed the node (late events are dropped).
    step: Mutex<Option<NodeStep<S, Links>>>,
    pub(crate) shared: Arc<Shared>,
    finishing: Arc<AtomicBool>,
    /// Children only: the control stream, for telling the coordinator about
    /// a lost peer or a panicked step right away.
    ctrl: Option<SharedWriter>,
    /// Coordinator only: the application threads' resume slots; `Resume`
    /// frames go straight there, without the lock.
    resumes: Vec<Arc<ResumeSlot>>,
    /// [`TestFault::StepPanic`] aimed at this node.
    panic_at: Option<Instant>,
}

impl<S: Server> NodeCell<S>
where
    S::Payload: Wire,
{
    pub(crate) fn new(
        node: NodeId,
        server: S,
        kernel: WallKernel<Links>,
        resumes: Vec<Arc<ResumeSlot>>,
        ctrl: Option<SharedWriter>,
        finishing: Arc<AtomicBool>,
        fault: Option<TestFault>,
    ) -> Arc<Self> {
        let shared = kernel.shared().clone();
        let panic_at = match fault {
            Some(TestFault::StepPanic { node: n, after }) if n == node => {
                Some(shared.start + after)
            }
            _ => None,
        };
        Arc::new(NodeCell {
            node,
            step: Mutex::new(Some(NodeStep::new(server, kernel))),
            shared,
            finishing,
            ctrl,
            resumes,
            panic_at,
        })
    }

    /// Run `events` as one protocol step on the calling thread (see
    /// [`NodeCell::locked`]).
    pub(crate) fn step(&self, events: impl IntoIterator<Item = NodeEvent<S::Payload>>) -> bool {
        self.locked(|node| {
            node.step(events);
        })
    }

    /// Run `f` on the node's state under its lock, then wake the node-0
    /// threads it resumed, after releasing the lock. `false` when the node
    /// is gone: closed by teardown, or dead after a step panicked. The
    /// panicking step's thread reports it, once: an error naming the node,
    /// the run poisoned, the coordinator told.
    fn locked(&self, f: impl FnOnce(&mut NodeStep<S, Links>)) -> bool {
        let run = AssertUnwindSafe(|| {
            // A poisoned lock means an earlier step panicked and reported.
            let mut guard = self.step.lock().ok()?;
            if self.panic_at.is_some_and(|at| Instant::now() >= at) {
                panic!("test fault: injected step panic");
            }
            let node = guard.as_mut()?;
            f(node);
            Some(node.kernel.link_mut().take_owed_wakes())
        });
        match catch_unwind(run) {
            Ok(Some(woken)) => {
                for thread in woken {
                    self.resumes[thread.index()].wake();
                }
                true
            }
            Ok(None) => false,
            Err(p) => {
                let msg = panic_message(&*p);
                self.report(format!("node n{}: protocol step panicked: {msg}", self.node.index()));
                false
            }
        }
    }

    /// Teardown: take the node's state out of the cell (dropping its timer
    /// and registry handles, which is what lets those threads exit) and
    /// return its traffic shard. Works on a cell a panicked step left
    /// poisoned too; the counters are plain sums.
    pub(crate) fn close(&self) -> NetStats {
        let mut guard = self.step.lock().unwrap_or_else(|p| p.into_inner());
        guard.take().map(|mut node| node.kernel.take_stats()).unwrap_or_default()
    }

    /// The node's `debug_stuck_state` plus its links' overflow counters,
    /// for the SIGUSR1 / stall dump. Never waits on the cell longer than
    /// `timeout`: a wedged step must not hang the requester.
    pub(crate) fn dump(&self, timeout: Duration) -> String {
        let deadline = Instant::now() + timeout;
        let (state, links) = loop {
            match self.step.try_lock() {
                Ok(guard) => match guard.as_ref() {
                    Some(node) => {
                        break (node.server.debug_stuck_state(), node.kernel.link().overflows())
                    }
                    None => return "(server loop gone)".into(),
                },
                Err(TryLockError::Poisoned(_)) => return "(protocol step panicked)".into(),
                Err(TryLockError::WouldBlock) if Instant::now() >= deadline => {
                    return "(server loop unresponsive)".into()
                }
                Err(TryLockError::WouldBlock) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        match (state.is_empty(), links.is_empty()) {
            (_, true) => state,
            (true, false) => format!("links: {links}"),
            (false, false) => format!("{state} | links: {links}"),
        }
    }

    /// Record a fatal condition of this node: error log, poison, and
    /// (children) an immediate `ReportError` to the coordinator.
    fn report(&self, msg: String) {
        if fail_run(&self.shared, &self.finishing, msg.clone()) {
            if let Some(ctrl) = &self.ctrl {
                let _ = send_shared(ctrl, &CtrlFrame::ReportError { msg });
            }
        }
    }
}

/// Reader thread for one incoming data stream. Each wake-up is one `read`;
/// every complete frame it returned is decoded (outside the lock), then
/// run as one step. A stream failure on a live run means the peer is
/// gone: record it with the peer named and poison the run.
pub(crate) fn spawn_data_reader<S>(mut stream: TcpStream, src: NodeId, cell: Arc<NodeCell<S>>)
where
    S: Server + 'static,
    S::Payload: Wire + Sync,
{
    let lost = move |cell: &NodeCell<S>, cause: String| {
        cell.report(format!("data stream from peer n{} failed: {cause} — peer lost", src.index()));
    };
    std::thread::Builder::new()
        .name(format!("tcp-read-n{}", src.index()))
        .spawn(move || {
            let mut reader = FrameReader::default();
            let mut events = Vec::new();
            loop {
                match reader.fill(&mut stream) {
                    Ok(0) => return lost(&cell, "stream closed".into()),
                    Ok(_) => {}
                    Err(e) => return lost(&cell, e.to_string()),
                }
                loop {
                    match reader.next_frame::<DataFrame<S::Payload>>() {
                        Ok(Some(DataFrame::Msg(p))) => {
                            events.push(NodeEvent::Msg(src, MsgBody::Owned(p)));
                        }
                        Ok(Some(DataFrame::Op { thread, op, fwd_us })) => {
                            // The wire stamp travels out-of-band (the step's
                            // vocabulary is fabric-agnostic); the gate
                            // dispatches this thread's ops in the same
                            // order, so stamps pair up by position.
                            cell.shared.obs.note_wire_arrival(thread, fwd_us);
                            events.push(NodeEvent::Op(thread, op));
                        }
                        Ok(Some(DataFrame::Resume { thread, result, span })) => {
                            if let Some(span) = span {
                                // The child's server half of this op's
                                // span: file it under the issuing thread
                                // before the resume lands (the client half
                                // joins by seq).
                                cell.shared.obs.srv_record(thread, span);
                            }
                            match cell.resumes.get(thread.index()) {
                                Some(slot) => slot.deliver(result),
                                None => cell
                                    .shared
                                    .error(format!("n{} resumed unknown {thread}", src.index())),
                            }
                        }
                        Ok(Some(DataFrame::Hello { .. })) => {
                            let cause = "protocol error: repeated Hello on established stream";
                            return lost(&cell, cause.into());
                        }
                        Ok(None) => break,
                        Err(e) => return lost(&cell, e.to_string()),
                    }
                }
                if !events.is_empty() && !cell.step(events.drain(..)) {
                    return;
                }
            }
        })
        .expect("failed to spawn data reader thread");
}

/// The op port of an application thread placed on node 0: the op runs as a
/// step of its own on the issuing thread. A blocking op's step ends with
/// its socket write, as every step does. A pipelined op's step leaves its
/// frames in the links' out-buffers, so a window of them leaves in one
/// write when the thread is about to park ([`OpPort::flush`]), or earlier
/// with the end of any other step of the node.
pub(crate) struct InlinePort<S: Server> {
    cell: Arc<NodeCell<S>>,
    /// An unflushed step ran since this thread's last flushing one.
    deferred: bool,
}

impl<S: Server> InlinePort<S> {
    pub(crate) fn new(cell: Arc<NodeCell<S>>) -> Self {
        InlinePort { cell, deferred: false }
    }
}

impl<S: Server> OpPort for InlinePort<S>
where
    S::Payload: Wire + Sync,
{
    fn submit(&mut self, thread: ThreadId, op: DsmOp, pipelined: bool) -> bool {
        let event = [NodeEvent::Op(thread, op)];
        if pipelined {
            self.deferred = true;
            self.cell.locked(|node| {
                node.step_unflushed(event);
            })
        } else {
            // The step-end write carries the deferred frames too.
            self.deferred = false;
            self.cell.step(event)
        }
    }

    /// A no-op unless a pipelined op's frames may still wait: a lone
    /// blocking op takes the cell once, for its own step.
    fn flush(&mut self) {
        if std::mem::take(&mut self.deferred) {
            self.cell.locked(NodeStep::flush);
        }
    }
}

/// The op port of an application thread placed on child `j`: ops are
/// encoded onto the coordinator's link to `j`, in issue order, and leave
/// when the thread is about to wait.
pub(crate) struct LinkPort {
    pub(crate) link: Arc<Link>,
    /// The run records spans: stamp each op's "hit the wire" instant.
    pub(crate) spans: bool,
}

impl OpPort for LinkPort {
    fn submit(&mut self, thread: ThreadId, op: DsmOp, _pipelined: bool) -> bool {
        let fwd_us = if self.spans { munin_obs::wall_us() } else { 0 };
        self.link.push(|out| crate::frames::put_op(thread, &op, fwd_us, out));
        true
    }

    fn flush(&mut self) {
        self.link.flush();
    }
}

fn node_main<S>(
    ctrl: TcpStream,
    listener: TcpListener,
    start: StartConfig,
    server: S,
    cost: CostModel,
) -> io::Result<bool>
where
    S: Server + 'static,
    S::Payload: Wire + Send + Sync + Clone + std::fmt::Debug,
{
    let me = start.node;
    let n_nodes = start.n_nodes as usize;
    // No application threads live here, but the observability collector
    // still needs one server-span slot per (coordinator-hosted) thread —
    // forwarded ops dispatch on this node under their issuing thread's id.
    let mut shared0 = Shared::new(start.decls.clone(), start.n_threads, start.telemetry);
    if start.coverage {
        shared0.coverage = Some(Arc::new(munin_obs::CoverageMap::new()));
    }
    let shared = Arc::new(shared0);
    let finishing = Arc::new(AtomicBool::new(false));
    let ctrl_writer = shared_writer(ctrl.try_clone()?);

    // ---- mesh: dial lower-numbered nodes, accept higher-numbered ones ----
    let mut streams: Vec<Option<TcpStream>> = (0..n_nodes).map(|_| None).collect();
    let mut scratch = Vec::new();
    for (j, slot) in streams.iter_mut().enumerate().take(me.index()) {
        let port = start.peers[j].1;
        let mut s = TcpStream::connect_timeout(&loopback(port), MESH_TIMEOUT)?;
        s.set_nodelay(true)?;
        s.write_all(&[STREAM_DATA])?;
        write_frame(&mut s, &mut scratch, &DataFrame::<S::Payload>::Hello { src: me })?;
        *slot = Some(s);
    }
    let deadline = Instant::now() + MESH_TIMEOUT;
    // Every peer dials in on its own schedule; none is ours to watch.
    let alive = || Ok(());
    accept_streams(&listener, deadline, n_nodes - 1 - me.index(), alive, |kind, mut s| {
        if kind != STREAM_DATA {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected stream kind byte {kind:#x}"),
            ));
        }
        let mut buf = Vec::new();
        let src = match read_frame::<DataFrame<S::Payload>>(&mut s, &mut buf)? {
            DataFrame::Hello { src } => src,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected data Hello, got {other:?}"),
                ))
            }
        };
        s.set_read_timeout(None)?;
        streams[src.index()] = Some(s);
        Ok(())
    })?;
    let mut links: Vec<Option<Arc<Link>>> = Vec::with_capacity(n_nodes);
    for (j, s) in streams.iter().enumerate() {
        links.push(match s {
            Some(s) => Some(Link::new(
                me,
                NodeId(j as u16),
                s.try_clone()?,
                shared.clone(),
                finishing.clone(),
            )),
            None => None,
        });
    }

    // ---- the node cell and the threads that step it ----------------------
    let (timer_tx, timer_rx) = channel();
    let (reg_reply_tx, reg_reply_rx) = channel();
    let registry = RegClient {
        path: RegWritePath::Remote { ctrl: ctrl_writer.clone() },
        reply_rx: reg_reply_rx,
        shared: shared.clone(),
    };
    let links = Links::new(links, ResumeSink::Remote, registry);
    let kernel = WallKernel::new(me, cost, links, timer_tx, shared.clone());
    let cell = NodeCell::new(
        me,
        server,
        kernel,
        Vec::new(),
        Some(ctrl_writer.clone()),
        finishing.clone(),
        start.test_fault,
    );
    spawn_test_fault(me, start.test_fault, &streams);
    for (j, s) in streams.into_iter().enumerate() {
        if let Some(s) = s {
            spawn_data_reader(s, NodeId(j as u16), cell.clone());
        }
    }
    let timer_join = spawn_timer(&cell, timer_rx);
    let (hb_stop_tx, hb_stop_rx) = channel::<()>();
    {
        let ctrl_writer = ctrl_writer.clone();
        let shared = shared.clone();
        std::thread::Builder::new()
            .name(format!("tcp-n{}-hb", me.index()))
            .spawn(move || loop {
                match hb_stop_rx.recv_timeout(HEARTBEAT) {
                    Err(RecvTimeoutError::Timeout) => {
                        let frame = CtrlFrame::Heartbeat {
                            activity: shared.activity.load(Ordering::Relaxed),
                            timers_pending: shared.timers_pending.load(Ordering::Acquire) as u64,
                        };
                        if send_shared(&ctrl_writer, &frame).is_err() {
                            return;
                        }
                    }
                    _ => return,
                }
            })
            .expect("failed to spawn heartbeat thread");
    }
    let (finish_tx, finish_rx) = channel::<()>();
    let (bye_tx, bye_rx) = channel::<()>();
    spawn_ctrl_reader(
        ctrl,
        cell.clone(),
        reg_reply_tx,
        ctrl_writer.clone(),
        finishing.clone(),
        finish_tx,
        bye_tx,
    );
    send_shared(&ctrl_writer, &CtrlFrame::Ready)
        .map_err(|e| io::Error::new(e.kind(), format!("sending Ready: {e}")))?;

    // ---- serve until the coordinator says Finish, or the run is poisoned --
    // (`Finish` and `Poison` wake this wait at once; the poll is for poison
    // raised locally by a reader.)
    while let Err(RecvTimeoutError::Timeout) = finish_rx.recv_timeout(Duration::from_millis(50)) {
        if shared.is_poisoned() {
            break;
        }
    }

    finishing.store(true, Ordering::SeqCst);
    let stats = cell.close();
    let errors = shared.errors.lock().expect("error log poisoned").clone();
    let poisoned = shared.is_poisoned();
    let homes = shared.obs.take_homes();
    let cover = shared.coverage.as_ref().map(|c| c.rows()).unwrap_or_default();
    let _ = send_shared(&ctrl_writer, &CtrlFrame::Done { stats, errors, homes, cover });
    if !poisoned {
        // Phase two of the clean shutdown: hold our sockets open until the
        // coordinator confirms every node's Done arrived (`Bye`), so our
        // exit cannot look like a mid-run fault to a slower sibling. The
        // channel also unblocks if the control stream dies (sender drops).
        let _ = bye_rx.recv_timeout(Duration::from_secs(5));
    }
    drop(hb_stop_tx);
    let _ = timer_join.join();
    Ok(!poisoned)
}

/// The node's timer thread: a due timer runs its `on_timer` step right
/// here. Exits once the cell is closed (the kernel held the last sender).
pub(crate) fn spawn_timer<S>(
    cell: &Arc<NodeCell<S>>,
    timer_rx: std::sync::mpsc::Receiver<munin_rt::timer::TimerReq>,
) -> std::thread::JoinHandle<()>
where
    S: Server + 'static,
    S::Payload: Wire + Sync,
{
    let shared = cell.shared.clone();
    let cell = cell.clone();
    let deliver = move |_node, token| {
        cell.step([NodeEvent::Timer(token)]);
    };
    std::thread::Builder::new()
        .name("tcp-timer".into())
        .spawn(move || run_timer_thread(timer_rx, deliver, shared))
        .expect("failed to spawn timer thread")
}

/// The child's control-stream reader: routes registry replies, applies
/// registry updates to this process's copy (acking them), answers dump
/// requests, and wakes the main thread on `Finish`/`Poison`. It never waits
/// on the node cell; the dump's bounded `try_lock` is its only touch.
#[allow(clippy::too_many_arguments)]
fn spawn_ctrl_reader<S>(
    mut stream: TcpStream,
    cell: Arc<NodeCell<S>>,
    reg_reply_tx: Sender<crate::frames::RegReply>,
    ctrl_writer: SharedWriter,
    finishing: Arc<AtomicBool>,
    finish_tx: Sender<()>,
    bye_tx: Sender<()>,
) where
    S: Server + 'static,
    S::Payload: Wire + Sync,
{
    std::thread::Builder::new()
        .name("tcp-ctrl-read".into())
        .spawn(move || {
            let shared = cell.shared.clone();
            let mut buf = Vec::new();
            loop {
                match read_frame::<CtrlFrame>(&mut stream, &mut buf) {
                    Ok(CtrlFrame::RegReply(r)) => {
                        let _ = reg_reply_tx.send(r);
                    }
                    Ok(CtrlFrame::RegUpdate { req, seq }) => {
                        apply(&shared.registry, req);
                        let _ = send_shared(&ctrl_writer, &CtrlFrame::RegUpdateAck { seq });
                    }
                    Ok(CtrlFrame::DumpReq) => {
                        let text = cell.dump(DUMP_WAIT);
                        let _ = send_shared(&ctrl_writer, &CtrlFrame::DumpReply { text });
                    }
                    Ok(CtrlFrame::Finish) => {
                        finishing.store(true, Ordering::SeqCst);
                        let _ = finish_tx.send(());
                    }
                    Ok(CtrlFrame::Poison) => {
                        shared.poisoned.store(true, Ordering::Release);
                        let _ = finish_tx.send(());
                    }
                    Ok(CtrlFrame::Bye) => {
                        let _ = bye_tx.send(());
                    }
                    Ok(other) => {
                        shared.error(format!("unexpected control frame: {other:?}"));
                    }
                    Err(e) => {
                        if !finishing.load(Ordering::SeqCst) && !shared.is_poisoned() {
                            shared.error(format!(
                                "control stream to coordinator failed: {e} — coordinator lost"
                            ));
                            shared.poisoned.store(true, Ordering::Release);
                        }
                        return;
                    }
                }
            }
        })
        .expect("failed to spawn control reader thread");
}

/// Arm this node's share of a test-injected fault (see [`TestFault`]).
fn spawn_test_fault(me: NodeId, fault: Option<TestFault>, raw_streams: &[Option<TcpStream>]) {
    match fault {
        Some(TestFault::Exit { node, after }) if node == me => {
            let exit = move || {
                eprintln!("munin-node n{}: test fault — exiting abruptly", me.index());
                std::process::exit(42)
            };
            if after.is_zero() {
                exit();
            }
            std::thread::Builder::new()
                .name("tcp-test-fault".into())
                .spawn(move || {
                    std::thread::sleep(after);
                    exit();
                })
                .expect("failed to spawn fault thread");
        }
        Some(TestFault::HalfClose { node, peer, after }) if node == me => {
            let Some(stream) = raw_streams
                .get(peer.index())
                .and_then(|s| s.as_ref())
                .and_then(|s| s.try_clone().ok())
            else {
                eprintln!("munin-node n{}: test fault — no stream to n{}", me.index(), peer);
                return;
            };
            std::thread::Builder::new()
                .name("tcp-test-fault".into())
                .spawn(move || {
                    std::thread::sleep(after);
                    eprintln!(
                        "munin-node n{}: test fault — half-closing stream to n{}",
                        me.index(),
                        peer.index()
                    );
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                })
                .expect("failed to spawn fault thread");
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_core::MuninServer;
    use munin_types::{MuninConfig, ObjectDecl, ObjectId, SharingType, SyncDecls, Telemetry};
    use std::io::Read;

    /// The inline port's flush rule on a real socket: a pipelined op's
    /// frame waits in the link until the thread's flush, while a blocking
    /// op's frame leaves with its own step and leaves the port nothing to
    /// flush.
    #[test]
    fn an_inline_pipelined_op_waits_for_the_flush() {
        let listener = TcpListener::bind(loopback(0)).expect("loopback listener");
        let near = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (mut far, _) = listener.accept().expect("accept");
        far.set_nonblocking(true).expect("non-blocking peer");

        let ctr = ObjectDecl::new(ObjectId(0), "ctr", 8, SharingType::GeneralReadWrite, NodeId(1));
        let shared = Arc::new(Shared::new(vec![ctr], 1, Telemetry::Off));
        let (timer_tx, _timer_rx) = channel();
        let (reg_tx, _reg_rx) = channel();
        let (_reg_reply_tx, reply_rx) = channel();
        let registry = RegClient {
            path: RegWritePath::Local { tx: reg_tx, node: NodeId(0) },
            reply_rx,
            shared: shared.clone(),
        };
        let link = Link::new(NodeId(0), NodeId(1), near, shared.clone(), Arc::default());
        let slots = vec![Arc::new(ResumeSlot::new())];
        let links = Links::new(vec![None, Some(link)], ResumeSink::Local(slots.clone()), registry);
        let kernel =
            WallKernel::new(NodeId(0), CostModel::default(), links, timer_tx, shared.clone());
        let sync = SyncDecls { locks: Vec::new(), barriers: Vec::new(), conds: Vec::new() };
        let server = MuninServer::new(NodeId(0), MuninConfig::default(), sync);
        let cell = NodeCell::new(NodeId(0), server, kernel, slots, None, Arc::default(), None);
        let mut port = InlinePort::new(cell);
        let add = || DsmOp::AtomicFetchAdd { obj: ObjectId(0), offset: 0, delta: 1 };
        let mut buf = [0u8; 256];
        // Loopback delivers during the send, so "not readable" means "not sent".
        let mut arrived = |far: &mut TcpStream| match far.read(&mut buf) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => 0,
            Err(e) => panic!("peer read: {e}"),
        };

        assert!(port.submit(ThreadId(0), add(), true));
        assert_eq!(arrived(&mut far), 0, "a pipelined op's frame left before the flush");
        port.flush();
        assert!(arrived(&mut far) > 0, "the flush sent nothing");

        assert!(port.submit(ThreadId(0), add(), false));
        assert!(arrived(&mut far) > 0, "a blocking op's frame waited");
        assert!(!port.deferred, "a blocking op's step left frames for a flush");
        assert!(!shared.is_poisoned(), "{:?}", shared.errors.lock().unwrap());
    }

    /// Hostile input, end to end: a peer announces the largest frame the
    /// cap admits, sends 16 bytes of it and closes. The node's reader fails
    /// closed with an error that names the peer (what it may allocate
    /// meanwhile is bounded in `frames::tests`).
    #[test]
    fn a_peer_that_announces_a_frame_and_hangs_up_is_named() {
        let listener = TcpListener::bind(loopback(0)).expect("loopback listener");
        let mut rogue = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (ours, _) = listener.accept().expect("accept");

        let shared = Arc::new(Shared::new(Vec::new(), 0, Telemetry::Off));
        let (timer_tx, _timer_rx) = channel();
        let (reg_tx, _reg_rx) = channel();
        let (_reg_reply_tx, reply_rx) = channel();
        let registry = RegClient {
            path: RegWritePath::Local { tx: reg_tx, node: NodeId(0) },
            reply_rx,
            shared: shared.clone(),
        };
        let links = Links::new(vec![None, None], ResumeSink::Local(Vec::new()), registry);
        let kernel =
            WallKernel::new(NodeId(0), CostModel::default(), links, timer_tx, shared.clone());
        let sync = SyncDecls { locks: Vec::new(), barriers: Vec::new(), conds: Vec::new() };
        let server = MuninServer::new(NodeId(0), MuninConfig::default(), sync);
        let cell = NodeCell::new(NodeId(0), server, kernel, Vec::new(), None, Arc::default(), None);
        spawn_data_reader(ours, NodeId(1), cell);

        let mut hostile = (crate::frames::MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        hostile.extend_from_slice(&[7u8; 16]);
        rogue.write_all(&hostile).expect("write");
        drop(rogue);

        let deadline = Instant::now() + Duration::from_secs(10);
        while !shared.is_poisoned() {
            assert!(Instant::now() < deadline, "the reader never failed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let errors = shared.errors.lock().expect("error log");
        assert!(
            errors.iter().any(|e| e.contains("data stream from peer n1 failed")
                && e.contains("stream closed inside a frame")
                && e.contains("peer lost")),
            "{errors:?}"
        );
    }
}
