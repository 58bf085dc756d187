//! The coordinator: the TCP fabric's side of `munin_rt`'s one wall-clock
//! run. [`run_proto`] hands an ordinary `munin_sim::WorldDesc` to the
//! shared run skeleton (`munin_rt::run_on`) with a [`TcpFabric`] as its
//! `munin_rt::WallFabric`: it spawns one `munin-node` process per
//! remote node, hosts node 0's protocol state, and tears the process tree
//! down at the end. The skeleton launches **every** application thread in
//! this process, runs the stall watchdog and assembles the report.
//!
//! Application thread bodies are closures, and closures do not cross
//! process boundaries — so the coordinator keeps them. A thread placed on
//! node 0 runs its ops inline, as steps of node 0's [`NodeCell`] on its own
//! thread. A thread placed on node `j` reaches node `j` (in another
//! process) through `Op` frames it encodes onto the coordinator's data link
//! to `j`; the completion comes back on the same stream as a `Resume` frame,
//! which the coordinator's reader of that stream hands straight to the
//! thread's ordinary resume slot. No server thread, no inbox, no
//! forwarder: see [`crate::node`] for the thread model, the lock order and
//! the flow-control invariant. The programming model, the typed `Par`
//! surface, and the apps are completely unchanged — only the fabric under
//! the kernel seam is different.
//!
//! The watchdog is the same one the in-process fabric uses. This fabric
//! feeds it the children's activity epochs and pending-timer counts from
//! their heartbeats, pulls every child's `debug_stuck_state` over its
//! control stream when it asks for dumps (on a stall or on SIGUSR1), and
//! sends every child `Poison` when it declares a stall, so the process tree
//! tears down instead of hanging.

use crate::frames::{
    accept_streams, poll_until, read_frame, send_shared, shared_writer, CtrlFrame, DataFrame,
    RegReply, SharedWriter, StartConfig, TestFault, STREAM_CTRL, STREAM_DATA,
};
use crate::link::{Link, Links, ResumeSink};
use crate::node::{spawn_data_reader, spawn_timer, InlinePort, LinkPort, NodeCell, MESH_TIMEOUT};
use crate::registry::{run_registry_service, RegClient, RegEvent, RegWritePath};
use crate::spawn::spawn_node;
use munin_net::NetStats;
use munin_proto::wire::ProtoTag;
use munin_proto::{Protocol, Wire};
use munin_rt::{Launch, OpPort, RtTuning, Shared, WallFabric, WallKernel, DUMP_WAIT};
use munin_sim::report::RunReport;
use munin_sim::{Server, WorldDesc};
use munin_types::{CostModel, NodeId, SyncDecls, ThreadId};
use std::collections::BTreeSet;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn loopback(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// Run `desc` under protocol `Pr` on the TCP fabric: node 0's protocol
/// state in this process, one `munin-node` process per remote node. The
/// children rebuild the same server from `Pr::TAG` plus the `Wire`-encoded
/// config in the start frame, so any protocol whose tag the node binary
/// links runs over this fabric unchanged; every node takes its cost model
/// from `cfg`. `fault` injects a deterministic process-level fault (the
/// fault-path tests).
pub fn run_proto<Pr: Protocol>(
    desc: WorldDesc,
    cfg: Pr::Config,
    sync: SyncDecls,
    tuning: RtTuning,
    fault: Option<TestFault>,
) -> RunReport {
    munin_rt::run_on(desc, tuning, |launch| {
        let server0 = Pr::server(&cfg, NodeId(0), launch.n_nodes, launch.decls, &sync);
        let start = StartConfig {
            node: NodeId(0),
            n_nodes: launch.n_nodes as u16,
            proto_tag: ProtoTag(Pr::TAG),
            proto_cfg: cfg.encode(),
            decls: launch.decls.to_vec(),
            sync,
            peers: Vec::new(),
            test_fault: fault,
            telemetry: launch.shared.obs.mode(),
            n_threads: launch.resumes.len(),
            coverage: launch.shared.coverage.is_some(),
        };
        TcpFabric::start(launch, server0, Pr::cost(&cfg).clone(), start)
    })
}

/// Per-child liveness/progress snapshot fed by heartbeats (slot 0 unused).
struct HbTable(Vec<(AtomicU64, AtomicU64)>);

impl HbTable {
    fn new(n: usize) -> Self {
        HbTable((0..n).map(|_| (AtomicU64::new(0), AtomicU64::new(0))).collect())
    }
    fn set(&self, node: NodeId, activity: u64, timers_pending: u64) {
        if let Some((a, t)) = self.0.get(node.index()) {
            a.store(activity, Ordering::Relaxed);
            t.store(timers_pending, Ordering::Relaxed);
        }
    }
}

/// A child's `Done` report: its node, traffic shard, error log, per-thread
/// home-op counts and coverage rows.
type DoneReport = (NodeId, NetStats, Vec<String>, Vec<(ThreadId, u64)>, Vec<munin_obs::CovRow>);

/// A started TCP world, as the coordinator holds it.
struct TcpFabric<S: Server> {
    shared: Arc<Shared>,
    finishing: Arc<AtomicBool>,
    /// Node 0's protocol state.
    cell: Arc<NodeCell<S>>,
    /// The coordinator's data links, indexed by node (`None` at node 0).
    links: Vec<Option<Arc<Link>>>,
    /// The children's control streams, indexed by node (`None` at node 0).
    ctrl_writers: Vec<Option<SharedWriter>>,
    hb: Arc<HbTable>,
    dump_rx: Receiver<(NodeId, String)>,
    done_rx: Receiver<DoneReport>,
    children: Vec<(NodeId, Child)>,
    timer: JoinHandle<()>,
    registry: JoinHandle<()>,
}

impl<S: Server + 'static> TcpFabric<S>
where
    S::Payload: Wire + Send + Sync + Clone + std::fmt::Debug,
{
    /// Spawn and handshake the children, then start the registry service,
    /// node 0's cell, its data readers and its timer. `start` is every
    /// child's start frame but for its node id and the peer table.
    fn start(launch: Launch<'_>, server0: S, cost: CostModel, start: StartConfig) -> Self {
        let Launch { n_nodes, shared, resumes, .. } = launch;
        let shared = shared.clone();
        let finishing = Arc::new(AtomicBool::new(false));

        // ---- spawn and handshake the children ---------------------------
        let listener = TcpListener::bind(loopback(0)).expect("binding loopback listener");
        let port = listener.local_addr().expect("listener addr").port();
        let mut children: Vec<(NodeId, Child)> = Vec::new();
        for i in 1..n_nodes {
            let child = spawn_node(port, i as u16).unwrap_or_else(|e| {
                panic!(
                    "spawning munin-node for n{i} failed: {e} (probe with \
                     munin_tcp::tcp_support() before choosing a tcp backend)"
                )
            });
            children.push((NodeId(i as u16), child));
        }

        let deadline = Instant::now() + MESH_TIMEOUT;
        let mut ctrl_streams: Vec<Option<TcpStream>> = (0..n_nodes).map(|_| None).collect();
        let mut data_ports: Vec<u16> = vec![0; n_nodes];
        let alive = || children_alive(&mut children);
        accept_streams(&listener, deadline, n_nodes - 1, alive, |kind, mut stream| {
            if kind != STREAM_CTRL {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "data stream arrived before Start was sent",
                ));
            }
            let mut buf = Vec::new();
            match read_frame::<CtrlFrame>(&mut stream, &mut buf)? {
                CtrlFrame::Hello { node, data_port } => {
                    // Handshake over for this stream: reads block freely
                    // from here on (liveness is the heartbeats' job).
                    stream.set_read_timeout(None)?;
                    data_ports[node.index()] = data_port;
                    ctrl_streams[node.index()] = Some(stream);
                    Ok(())
                }
                other => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected control Hello, got {other:?}"),
                )),
            }
        })
        .unwrap_or_else(|e| panic!("control handshake with node processes: {e}"));

        data_ports[0] = port;
        let peers: Vec<(NodeId, u16)> =
            (0..n_nodes).map(|i| (NodeId(i as u16), data_ports[i])).collect();
        let ctrl_writers: Vec<Option<SharedWriter>> = ctrl_streams
            .iter()
            .map(|s| s.as_ref().map(|s| shared_writer(s.try_clone().expect("clone ctrl stream"))))
            .collect();
        for i in 1..n_nodes {
            let child_start =
                StartConfig { node: NodeId(i as u16), peers: peers.clone(), ..start.clone() };
            send_shared(
                ctrl_writers[i].as_ref().expect("ctrl writer exists"),
                &CtrlFrame::Start(Box::new(child_start)),
            )
            .expect("sending Start");
        }

        // ---- accept the children's data streams to node 0 ---------------
        let mut data_streams: Vec<Option<TcpStream>> = (0..n_nodes).map(|_| None).collect();
        let alive = || children_alive(&mut children);
        accept_streams(&listener, deadline, n_nodes - 1, alive, |kind, mut stream| {
            if kind != STREAM_DATA {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected second control stream",
                ));
            }
            let mut buf = Vec::new();
            match read_frame::<DataFrame<S::Payload>>(&mut stream, &mut buf)? {
                DataFrame::Hello { src } => {
                    stream.set_read_timeout(None)?;
                    data_streams[src.index()] = Some(stream);
                    Ok(())
                }
                other => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected data Hello, got {other:?}"),
                )),
            }
        })
        .unwrap_or_else(|e| panic!("data-stream handshake with node processes: {e}"));

        // ---- control readers, registry service, heartbeat table ---------
        let (reg_tx, reg_rx) = channel::<RegEvent>();
        let (ready_tx, ready_rx) = channel::<Option<NodeId>>();
        let (done_tx, done_rx) = channel::<DoneReport>();
        let (dump_tx, dump_rx) = channel::<(NodeId, String)>();
        let hb = Arc::new(HbTable::new(n_nodes));
        for (i, stream) in ctrl_streams.into_iter().enumerate() {
            let Some(stream) = stream else { continue };
            spawn_coord_ctrl_reader(
                stream,
                NodeId(i as u16),
                reg_tx.clone(),
                ready_tx.clone(),
                done_tx.clone(),
                dump_tx.clone(),
                hb.clone(),
                shared.clone(),
                finishing.clone(),
            );
        }
        drop(ready_tx);
        drop(done_tx);
        drop(dump_tx);

        let (reg_reply_tx0, reg_reply_rx0) = channel::<RegReply>();
        let registry = {
            let ctrls = ctrl_writers.clone();
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("tcp-registry".into())
                .spawn(move || run_registry_service(reg_rx, ctrls, reg_reply_tx0, shared))
                .expect("failed to spawn registry thread")
        };

        // ---- wait for every child to report Ready -----------------------
        // A control reader that loses its stream wakes the wait (`None`):
        // the live children's readers would keep it open to the deadline.
        let mut ready: BTreeSet<NodeId> = BTreeSet::new();
        while ready.len() < n_nodes - 1 {
            let left = deadline.saturating_duration_since(Instant::now());
            match ready_rx.recv_timeout(left) {
                Ok(Some(node)) => {
                    ready.insert(node);
                }
                Ok(None) | Err(RecvTimeoutError::Disconnected) => {
                    // The lost stream's process is exiting: give it a moment,
                    // to name it and its exit status.
                    let grace = Instant::now() + Duration::from_secs(1);
                    let exited = poll_until(grace, || Ok(children_alive(&mut children).err()));
                    match exited {
                        Ok(Some(e)) | Err(e) => panic!("node processes not Ready: {e}"),
                        Ok(None) => panic!(
                            "node processes not Ready (got {ready:?}): {:?}",
                            shared.errors.lock().expect("error log poisoned")
                        ),
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    panic!("node processes not Ready within {MESH_TIMEOUT:?} (got {ready:?})")
                }
            }
        }

        // ---- node 0's cell, its links, readers and timer -----------------
        let links: Vec<Option<Arc<Link>>> = data_streams
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let stream = s.as_ref()?.try_clone().expect("clone data stream");
                Some(Link::new(
                    NodeId(0),
                    NodeId(i as u16),
                    stream,
                    shared.clone(),
                    finishing.clone(),
                ))
            })
            .collect();
        let (timer_tx, timer_rx) = channel();
        let registry_client = RegClient {
            path: RegWritePath::Local { tx: reg_tx, node: NodeId(0) },
            reply_rx: reg_reply_rx0,
            shared: shared.clone(),
        };
        let links0 = Links::new(links.clone(), ResumeSink::Local(resumes.clone()), registry_client);
        let kernel = WallKernel::new(NodeId(0), cost, links0, timer_tx, shared.clone());
        let cell = NodeCell::new(
            NodeId(0),
            server0,
            kernel,
            resumes,
            None,
            finishing.clone(),
            start.test_fault,
        );
        for (i, stream) in data_streams.into_iter().enumerate() {
            if let Some(stream) = stream {
                spawn_data_reader(stream, NodeId(i as u16), cell.clone());
            }
        }
        let timer = spawn_timer(&cell, timer_rx);

        TcpFabric {
            shared,
            finishing,
            cell,
            links,
            ctrl_writers,
            hb,
            dump_rx,
            done_rx,
            children,
            timer,
            registry,
        }
    }
}

impl<S: Server + 'static> WallFabric for TcpFabric<S>
where
    S::Payload: Wire + Send + Sync + Clone + std::fmt::Debug,
{
    fn port(&self, node: NodeId) -> Box<dyn OpPort> {
        match &self.links[node.index()] {
            None => Box::new(InlinePort::new(self.cell.clone())),
            Some(link) => Box::new(LinkPort { link: link.clone(), spans: self.shared.obs.spans() }),
        }
    }

    /// This process's epoch and timers plus every child's, as of its last
    /// heartbeat.
    fn probe(&self, fingerprint: &mut Vec<u64>) -> u64 {
        fingerprint.push(self.shared.activity.load(Ordering::Relaxed));
        let children = self.hb.0.iter().skip(1);
        fingerprint.extend(children.clone().map(|(a, _)| a.load(Ordering::Relaxed)));
        self.shared.timers_pending.load(Ordering::Acquire) as u64
            + children.map(|(_, t)| t.load(Ordering::Relaxed)).sum::<u64>()
    }

    /// Node 0 through its cell's bounded `try_lock`, the children over
    /// their control streams; a child that does not answer within
    /// [`DUMP_WAIT`] is left out.
    fn dumps(&self) -> Vec<(NodeId, String)> {
        // Drop stale replies from an earlier collection that timed out.
        while self.dump_rx.try_recv().is_ok() {}
        let mut expected = 0usize;
        for w in self.ctrl_writers.iter().flatten() {
            if send_shared(w, &CtrlFrame::DumpReq).is_ok() {
                expected += 1;
            }
        }
        let mut out = vec![(NodeId(0), self.cell.dump(DUMP_WAIT))];
        let deadline = Instant::now() + DUMP_WAIT;
        while out.len() < expected + 1 {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.dump_rx.recv_timeout(left) {
                Ok(entry) => out.push(entry),
                Err(_) => break,
            }
        }
        out.sort_by_key(|(n, _)| *n);
        out
    }

    fn on_poison(&self) {
        for w in self.ctrl_writers.iter().flatten() {
            let _ = send_shared(w, &CtrlFrame::Poison);
        }
    }

    /// Finish (or poison) every child, drain their `Done` reports into the
    /// run state, release them with `Bye`, and reap the processes.
    fn teardown(self) -> NetStats {
        let shared = &self.shared;
        let n_nodes = self.ctrl_writers.len();
        drop(self.links);
        self.finishing.store(true, Ordering::SeqCst);
        let poisoned = shared.is_poisoned();
        for w in self.ctrl_writers.iter().flatten() {
            let frame = if poisoned { CtrlFrame::Poison } else { CtrlFrame::Finish };
            let _ = send_shared(w, &frame);
        }
        let mut stats = self.cell.close();
        // Collect the children's Done reports (traffic shards + error logs)
        // on poisoned runs too — that is where a child-side root-cause
        // error recorded via `KernelApi::error` lives. Surviving children
        // still send Done when their loop exits on Poison; only the drain
        // budget differs (dead processes just time out).
        let done_budget =
            if poisoned { Duration::from_millis(1500) } else { Duration::from_secs(10) };
        let deadline = Instant::now() + done_budget;
        let mut reported: BTreeSet<NodeId> = BTreeSet::new();
        while reported.len() < n_nodes - 1 {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.done_rx.recv_timeout(left) {
                Ok((node, node_stats, errors, homes, cover)) => {
                    reported.insert(node);
                    stats.merge(&node_stats);
                    shared.obs.ingest_homes(&homes);
                    if let Some(map) = shared.coverage.as_ref() {
                        map.ingest(&cover);
                    }
                    for e in errors {
                        // A child's async `ReportError` and its Done log
                        // carry the same string; don't record it twice.
                        let line = format!("[n{}] {e}", node.index());
                        let mut log = shared.errors.lock().expect("error log poisoned");
                        if !log.contains(&line) {
                            log.push(line);
                        }
                    }
                }
                Err(_) => {
                    // Missing Done on a *clean* run is itself an error; on
                    // a poisoned run the absentees are expected casualties.
                    if !poisoned {
                        for i in 1..n_nodes {
                            if !reported.contains(&NodeId(i as u16)) {
                                shared.error(format!(
                                    "node n{i} process did not report Done within \
                                     {done_budget:?}"
                                ));
                            }
                        }
                    }
                    break;
                }
            }
        }
        // Phase two of the clean shutdown: every node is known quiescent
        // (its Done arrived or timed out), so children may now close their
        // sockets without a sibling mistaking it for a mid-run fault.
        if !poisoned {
            for w in self.ctrl_writers.iter().flatten() {
                let _ = send_shared(w, &CtrlFrame::Bye);
            }
        }
        let _ = self.timer.join();
        reap_children(self.children, shared);
        let _ = self.registry.join();
        stats
    }
}

/// The coordinator's reader for one child's control stream. It touches no
/// node state, so it always drains: registry requests and acks, heartbeats
/// and error reports get through whatever node 0's cell is doing.
#[allow(clippy::too_many_arguments)]
fn spawn_coord_ctrl_reader(
    mut stream: TcpStream,
    node: NodeId,
    reg_tx: Sender<RegEvent>,
    ready_tx: Sender<Option<NodeId>>,
    done_tx: Sender<DoneReport>,
    dump_tx: Sender<(NodeId, String)>,
    hb: Arc<HbTable>,
    shared: Arc<Shared>,
    finishing: Arc<AtomicBool>,
) {
    std::thread::Builder::new()
        .name(format!("tcp-ctrl-n{}", node.index()))
        .spawn(move || {
            let mut buf = Vec::new();
            loop {
                match read_frame::<CtrlFrame>(&mut stream, &mut buf) {
                    Ok(CtrlFrame::Ready) => {
                        let _ = ready_tx.send(Some(node));
                    }
                    Ok(CtrlFrame::Reg(req)) => {
                        let _ = reg_tx.send(RegEvent::Request { from: node, req });
                    }
                    Ok(CtrlFrame::RegUpdateAck { seq }) => {
                        let _ = reg_tx.send(RegEvent::Ack { from: node, seq });
                    }
                    Ok(CtrlFrame::Heartbeat { activity, timers_pending }) => {
                        hb.set(node, activity, timers_pending);
                    }
                    Ok(CtrlFrame::DumpReply { text }) => {
                        let _ = dump_tx.send((node, text));
                    }
                    Ok(CtrlFrame::ReportError { msg }) => {
                        // During teardown a child may race its own Finish
                        // against a sibling's exit and cry wolf; once the
                        // coordinator is finishing, peer-loss reports are
                        // expected noise, not faults.
                        if !finishing.load(Ordering::SeqCst) {
                            shared.error(format!("[n{}] {msg}", node.index()));
                            shared.poisoned.store(true, Ordering::Release);
                        }
                    }
                    Ok(CtrlFrame::Done { stats, errors, homes, cover }) => {
                        let _ = done_tx.send((node, stats, errors, homes, cover));
                    }
                    Ok(other) => {
                        shared.error(format!(
                            "unexpected control frame from n{}: {other:?}",
                            node.index()
                        ));
                    }
                    Err(e) => {
                        if !finishing.load(Ordering::SeqCst) && !shared.is_poisoned() {
                            shared.error(format!(
                                "lost connection to node n{} process: {e} — peer lost",
                                node.index()
                            ));
                            shared.poisoned.store(true, Ordering::Release);
                        }
                        let _ = ready_tx.send(None);
                        return;
                    }
                }
            }
        })
        .expect("failed to spawn control reader thread");
}

/// The coordinator's liveness check between handshake polls: a child
/// that has already exited will never connect, so the handshake fails at
/// once, naming it and its exit status, instead of at its deadline.
fn children_alive(children: &mut [(NodeId, Child)]) -> io::Result<()> {
    for (node, child) in children.iter_mut() {
        if let Some(status) = child.try_wait()? {
            return Err(io::Error::other(format!(
                "node n{} process exited during the handshake ({status})",
                node.index()
            )));
        }
    }
    Ok(())
}

/// Wait for the children to exit; anything still alive 5 s after teardown
/// began is killed (and that is not an error — poisoned runs
/// kill by design). A child is usually a fraction of a millisecond from
/// exiting when the coordinator gets here (both just saw the end of the
/// `Bye` phase), which `poll_until`'s short first nap catches.
fn reap_children(children: Vec<(NodeId, Child)>, shared: &Shared) {
    let deadline = Instant::now() + Duration::from_secs(5);
    for (node, mut child) in children {
        match poll_until(deadline, || child.try_wait()) {
            Ok(Some(_)) => {}
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
            }
            Err(e) => shared.error(format!("waiting for node n{} process: {e}", node.index())),
        }
    }
}
