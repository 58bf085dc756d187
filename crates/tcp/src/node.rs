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
//!   resume channel;
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
//!
//! ## Locks and blocking
//!
//! Lock order: node cell → link out-buffer, never the reverse. A cell is
//! never held across a blocking call other than the registry RPC, and no
//! thread that reads a socket or holds a cell ever blocks in a data-socket
//! write (see [`crate::link`]); control-stream writes do block, which is
//! safe because no reader of a control stream waits on a cell. A panic
//! inside a step poisons the cell's mutex: it is reported once as a run
//! error naming the node and poisons the run.
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

use crate::frames::{
    accept_streams, read_frame, send_shared, shared_writer, write_frame, CtrlFrame, DataFrame,
    FrameReader, SharedWriter, StartConfig, TestFault, STREAM_CTRL, STREAM_DATA,
};
use crate::kernel::{ResumeSink, TcpKernel};
use crate::link::{fail_run, Link};
use crate::registry::{RegCache, RegClient, RegWritePath};
use munin_net::NetStats;
use munin_proto::{Protocol, Wire};
use munin_rt::timer::run_timer_thread;
use munin_rt::{panic_message, MsgBody, NodeEvent, NodeKernel, NodeStep, OpPort, Shared};
use munin_sim::{DsmOp, OpResult, Server};
use munin_types::{CostModel, NodeId, ThreadId};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::{Duration, Instant};

/// How long mesh setup may take before the child gives up (covers a
/// coordinator that died mid-handshake).
const MESH_TIMEOUT: Duration = Duration::from_secs(30);

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
    step: Mutex<Option<NodeStep<S, TcpKernel<S::Payload>>>>,
    pub(crate) shared: Arc<Shared>,
    finishing: Arc<AtomicBool>,
    /// Children only: the control stream, for telling the coordinator about
    /// a lost peer or a panicked step right away.
    ctrl: Option<SharedWriter>,
    /// Coordinator only: the application threads' resume channels; `Resume`
    /// frames go straight there, without the lock.
    resumes: Vec<Sender<OpResult>>,
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
        kernel: TcpKernel<S::Payload>,
        resumes: Vec<Sender<OpResult>>,
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

    /// Run `events` as one protocol step on the calling thread. `false`
    /// when the node is gone: closed by teardown, or dead after a step
    /// panicked. The panicking step's thread reports it, once: an error
    /// naming the node, the run poisoned, the coordinator told.
    pub(crate) fn step(&self, events: impl IntoIterator<Item = NodeEvent<S::Payload>>) -> bool {
        let run = AssertUnwindSafe(|| {
            // A poisoned lock means an earlier step panicked and reported.
            let mut guard = self.step.lock().ok()?;
            if self.panic_at.is_some_and(|at| Instant::now() >= at) {
                panic!("test fault: injected step panic");
            }
            guard.as_mut().map(|node| node.step(events))
        });
        match catch_unwind(run) {
            Ok(stepped) => stepped.is_some(),
            Err(p) => {
                let msg = panic_message(p);
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
                    Some(node) => break (node.server.debug_stuck_state(), node.kernel.overflows()),
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
                                Some(tx) => {
                                    let _ = tx.send(result);
                                }
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
/// step of its own on the issuing thread.
pub(crate) struct InlinePort<S: Server>(pub(crate) Arc<NodeCell<S>>);

impl<S: Server> OpPort for InlinePort<S>
where
    S::Payload: Wire + Sync,
{
    fn submit(&mut self, thread: ThreadId, op: DsmOp) -> bool {
        self.0.step([NodeEvent::Op(thread, op)])
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
    fn submit(&mut self, thread: ThreadId, op: DsmOp) -> bool {
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
    let mut shared0 = Shared::new(Vec::new(), start.n_threads, start.telemetry);
    if start.coverage {
        shared0.coverage = Some(Arc::new(munin_obs::CoverageMap::new()));
    }
    let shared = Arc::new(shared0);
    let finishing = Arc::new(AtomicBool::new(false));
    let cache = Arc::new(RegCache::new(&start.decls));
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
    accept_streams(&listener, deadline, n_nodes - 1 - me.index(), |kind, mut s| {
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
        cache: cache.clone(),
        path: RegWritePath::Remote { ctrl: ctrl_writer.clone() },
        reply_rx: reg_reply_rx,
        shared: shared.clone(),
    };
    let kernel =
        TcpKernel::new(me, cost, links, ResumeSink::Remote, timer_tx, registry, shared.clone());
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
        let period = start.heartbeat;
        std::thread::Builder::new()
            .name(format!("tcp-n{}-hb", me.index()))
            .spawn(move || loop {
                match hb_stop_rx.recv_timeout(period) {
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
        cache,
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
/// snapshot updates (acking them), answers dump requests, and wakes the
/// main thread on `Finish`/`Poison`. It never waits on the node cell; the
/// dump's bounded `try_lock` is its only touch.
#[allow(clippy::too_many_arguments)]
fn spawn_ctrl_reader<S>(
    mut stream: TcpStream,
    cell: Arc<NodeCell<S>>,
    reg_reply_tx: Sender<crate::frames::RegReply>,
    cache: Arc<RegCache>,
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
                    Ok(CtrlFrame::RegUpdate { decl, version, seq }) => {
                        cache.apply(decl, version);
                        let _ = send_shared(&ctrl_writer, &CtrlFrame::RegUpdateAck { seq });
                    }
                    Ok(CtrlFrame::DumpReq) => {
                        let text = cell.dump(Duration::from_secs(2));
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
            std::thread::Builder::new()
                .name("tcp-test-fault".into())
                .spawn(move || {
                    std::thread::sleep(after);
                    eprintln!("munin-node n{}: test fault — exiting abruptly", me.index());
                    std::process::exit(42);
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
    use munin_types::{MuninConfig, SyncDecls, Telemetry};

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
            cache: Arc::new(RegCache::new(&[])),
            path: RegWritePath::Local { tx: reg_tx, node: NodeId(0) },
            reply_rx,
            shared: shared.clone(),
        };
        let kernel = TcpKernel::new(
            NodeId(0),
            CostModel::default(),
            vec![None, None],
            ResumeSink::Local(Vec::new()),
            timer_tx,
            registry,
            shared.clone(),
        );
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
