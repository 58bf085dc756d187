//! The coordinator: builds a distributed world, spawns one `munin-node`
//! process per remote node, hosts node 0's protocol state and **every**
//! application thread, and assembles the final [`RunReport`].
//!
//! Application thread bodies are closures, and closures do not cross
//! process boundaries — so the coordinator keeps them. A thread placed on
//! node 0 runs its ops inline, as steps of node 0's [`NodeCell`] on its own
//! thread. A thread placed on node `j` reaches node `j` (in another
//! process) through `Op` frames it encodes onto the coordinator's data link
//! to `j`; the completion comes back on the same stream as a `Resume` frame,
//! which the coordinator's reader of that stream hands straight to the
//! thread's ordinary resume channel. No server thread, no inbox, no
//! forwarder: see [`crate::node`] for the thread model, the lock order and
//! the flow-control invariant. The programming model, the typed `Par`
//! surface, and the apps are completely unchanged — only the fabric under
//! the kernel seam is different.
//!
//! The distributed stall watchdog mirrors `munin-rt`'s: children report
//! activity epochs and pending-timer counts in heartbeats; when every live
//! thread is blocked and no node shows progress (and no timers are pending
//! anywhere) for the stall timeout, the run is declared stalled, every
//! node's `debug_stuck_state` is pulled over the wire into the report, and
//! everything is poisoned so the process tree tears down instead of
//! hanging. SIGUSR1 triggers the same collection on demand, without
//! poisoning (see [`crate::sig`]).

use crate::frames::{
    accept_streams, read_frame, send_shared, shared_writer, CtrlFrame, DataFrame, RegReply,
    SharedWriter, StartConfig, TestFault, STREAM_CTRL, STREAM_DATA,
};
use crate::kernel::{ResumeSink, TcpKernel};
use crate::link::Link;
use crate::node::{spawn_data_reader, spawn_timer, InlinePort, LinkPort, NodeCell, MESH_TIMEOUT};
use crate::registry::{run_registry_service, RegCache, RegClient, RegEvent, RegPort, RegWritePath};
use crate::sig;
use crate::spawn::spawn_node;
use munin_net::{NetStats, PayloadInfo};
use munin_proto::{Protocol, Wire};
use munin_rt::{drive_app_thread, OpPort, RtCtx, RtTuning, Shared, WATCHDOG_POLL};
use munin_sim::report::{RunReport, WaitTable, WallClock};
use munin_sim::{OpResult, Server};
use munin_types::{CostModel, NodeId, ObjectDecl, ObjectId, SyncDecls, ThreadId, VirtualTime};
use std::collections::BTreeSet;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn loopback(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// Builder for a distributed world; mirrors `munin_rt::RtWorldBuilder` so
/// the API harness drives either fabric identically.
pub struct TcpWorldBuilder<P> {
    n_nodes: usize,
    tuning: RtTuning,
    test_fault: Option<TestFault>,
    decls: Vec<ObjectDecl>,
    next_object: u64,
    coverage: Option<Arc<munin_obs::CoverageMap>>,
    #[allow(clippy::type_complexity)]
    spawns: Vec<(NodeId, Box<dyn FnOnce(&mut RtCtx<P>) + Send + 'static>)>,
}

impl<P: PayloadInfo + Wire + Send + Sync + Clone + std::fmt::Debug + 'static> TcpWorldBuilder<P> {
    pub fn new(n_nodes: usize) -> Self {
        assert!(n_nodes > 0, "a world needs at least one node");
        assert!(n_nodes <= u16::MAX as usize, "node ids are u16");
        TcpWorldBuilder {
            n_nodes,
            tuning: RtTuning::default(),
            test_fault: None,
            decls: Vec::new(),
            next_object: 0,
            coverage: None,
            spawns: Vec::new(),
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Compute mode, stall timeout and telemetry; same meanings as on the
    /// in-process kernel.
    pub fn tuning(mut self, tuning: RtTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Inject a deterministic process-level fault (the fault-path tests).
    pub fn test_fault(mut self, fault: TestFault) -> Self {
        self.test_fault = Some(fault);
        self
    }

    /// Attach a protocol-state coverage recorder. Node 0's server notes
    /// transitions into it directly; children keep a local map (switched on
    /// by the start frame) and ship their rows home in their `Done` frame,
    /// where the teardown drain merges them in.
    pub fn coverage(mut self, map: Arc<munin_obs::CoverageMap>) -> Self {
        self.coverage = Some(map);
        self
    }

    /// Declare a shared object before the run starts (dense ids in
    /// declaration order — same contract as the other builders).
    pub fn declare(&mut self, mut decl: ObjectDecl, home: NodeId) -> ObjectId {
        assert!(home.index() < self.n_nodes, "home {home} out of range");
        let id = ObjectId(self.next_object);
        self.next_object += 1;
        decl.id = id;
        decl.home = home;
        self.decls.push(decl);
        id
    }

    /// Spawn an application thread on `node`. The closure runs in the
    /// coordinator process; its DSM operations travel to `node`'s process
    /// as `Op` frames (or run inline when `node` is node 0).
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
}

impl<P: PayloadInfo + Wire + Send + Sync + Clone + std::fmt::Debug + 'static> TcpWorldBuilder<P> {
    /// Run under protocol `Pr`: node 0's protocol state in-process, one
    /// `munin-node` process per remote node. The children rebuild the same
    /// server from `Pr::TAG` plus the `Wire`-encoded config in the start
    /// frame, so any protocol whose tag the node binary links runs over
    /// this fabric unchanged.
    pub fn run_proto<Pr: Protocol<Msg = P>>(self, cfg: Pr::Config, sync: SyncDecls) -> RunReport {
        let server0 = Pr::server(&cfg, NodeId(0), self.n_nodes, &self.decls, &sync);
        let cost = Pr::cost(&cfg).clone();
        let proto_cfg = cfg.encode();
        self.run_inner(server0, cost, Pr::TAG, proto_cfg, sync)
    }
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

impl<P: PayloadInfo + Wire + Send + Sync + Clone + std::fmt::Debug + 'static> TcpWorldBuilder<P> {
    fn run_inner<S>(
        self,
        server0: S,
        cost: CostModel,
        proto_tag: u8,
        proto_cfg: Vec<u8>,
        sync: SyncDecls,
    ) -> RunReport
    where
        S: Server<Payload = P> + 'static,
    {
        let n_nodes = self.n_nodes;
        let n_threads = self.spawns.len();
        let tuning = self.tuning.clone();
        let test_fault = self.test_fault;
        let mut shared0 = Shared::new(Vec::new(), n_threads, tuning.telemetry);
        shared0.coverage = self.coverage.clone();
        let shared = Arc::new(shared0);
        let finishing = Arc::new(AtomicBool::new(false));
        let dumps = Arc::new(Mutex::new(Vec::<String>::new()));
        sig::install();

        // ---- node 0 plumbing --------------------------------------------
        let mut resume_txs: Vec<Sender<OpResult>> = Vec::with_capacity(n_threads);
        let mut resume_rxs: Vec<Receiver<OpResult>> = Vec::with_capacity(n_threads);
        for _ in 0..n_threads {
            let (tx, rx) = channel();
            resume_txs.push(tx);
            resume_rxs.push(rx);
        }

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
        accept_streams(&listener, deadline, n_nodes - 1, |kind, mut stream| {
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
        .expect("control handshake with node processes");

        data_ports[0] = port;
        let peers_table: Vec<(NodeId, u16)> =
            (0..n_nodes).map(|i| (NodeId(i as u16), data_ports[i])).collect();
        let ctrl_writers: Vec<Option<SharedWriter>> = ctrl_streams
            .iter()
            .map(|s| s.as_ref().map(|s| shared_writer(s.try_clone().expect("clone ctrl stream"))))
            .collect();
        for i in 1..n_nodes {
            let start = StartConfig {
                node: NodeId(i as u16),
                n_nodes: n_nodes as u16,
                proto_tag: munin_proto::wire::ProtoTag(proto_tag),
                proto_cfg: proto_cfg.clone(),
                decls: self.decls.clone(),
                sync: sync.clone(),
                peers: peers_table.clone(),
                test_fault,
                telemetry: tuning.telemetry,
                coverage: shared.coverage.is_some(),
                n_threads,
            };
            send_shared(
                ctrl_writers[i].as_ref().expect("ctrl writer exists"),
                &CtrlFrame::Start(Box::new(start)),
            )
            .expect("sending Start");
        }

        // ---- accept the children's data streams to node 0 ---------------
        let mut data_streams: Vec<Option<TcpStream>> = (0..n_nodes).map(|_| None).collect();
        accept_streams(&listener, deadline, n_nodes - 1, |kind, mut stream| {
            if kind != STREAM_DATA {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected second control stream",
                ));
            }
            let mut buf = Vec::new();
            match read_frame::<DataFrame<P>>(&mut stream, &mut buf)? {
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
        .expect("data-stream handshake with node processes");

        // ---- control readers, registry service, heartbeat table ---------
        let (reg_tx, reg_rx) = channel::<RegEvent>();
        let (ready_tx, ready_rx) = channel::<NodeId>();
        #[allow(clippy::type_complexity)]
        let (done_tx, done_rx) = channel::<(
            NodeId,
            NetStats,
            Vec<String>,
            Vec<(ThreadId, u64)>,
            Vec<munin_obs::CovRow>,
        )>();
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

        let cache0 = Arc::new(RegCache::new(&self.decls));
        let (reg_reply_tx0, reg_reply_rx0) = channel::<RegReply>();
        let reg_ports: Vec<RegPort> = (0..n_nodes)
            .map(|i| {
                if i == 0 {
                    RegPort::Local { cache: cache0.clone(), reply_tx: reg_reply_tx0.clone() }
                } else {
                    RegPort::Remote {
                        ctrl: ctrl_writers[i].as_ref().expect("ctrl writer exists").clone(),
                    }
                }
            })
            .collect();
        let registry_join = {
            let decls = self.decls.clone();
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("tcp-registry".into())
                .spawn(move || run_registry_service(reg_rx, reg_ports, decls, shared))
                .expect("failed to spawn registry thread")
        };

        // ---- wait for every child to report Ready -----------------------
        let mut ready: BTreeSet<NodeId> = BTreeSet::new();
        while ready.len() < n_nodes - 1 {
            let left = deadline.saturating_duration_since(Instant::now());
            match ready_rx.recv_timeout(left) {
                Ok(node) => {
                    ready.insert(node);
                }
                Err(_) => {
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
        let registry = RegClient {
            cache: cache0,
            path: RegWritePath::Local { tx: reg_tx, node: NodeId(0) },
            reply_rx: reg_reply_rx0,
            shared: shared.clone(),
        };
        let kernel = TcpKernel::new(
            NodeId(0),
            cost,
            links.clone(),
            ResumeSink::Local(resume_txs.clone()),
            timer_tx,
            registry,
            shared.clone(),
        );
        let cell = NodeCell::new(
            NodeId(0),
            server0,
            kernel,
            resume_txs,
            None,
            finishing.clone(),
            test_fault,
        );
        for (i, stream) in data_streams.into_iter().enumerate() {
            if let Some(stream) = stream {
                spawn_data_reader(stream, NodeId(i as u16), cell.clone());
            }
        }
        let timer_join = spawn_timer(&cell, timer_rx);
        drop(reg_reply_tx0);

        // ---- watchdog ----------------------------------------------------
        let (watchdog_stop_tx, watchdog_stop_rx) = channel::<()>();
        let watchdog_join = {
            let shared = shared.clone();
            let hb = hb.clone();
            let cell = cell.clone();
            let dump0 = move || cell.dump(Duration::from_secs(2));
            let ctrl_writers = ctrl_writers.clone();
            let stall_timeout = tuning.stall_timeout;
            let dumps = dumps.clone();
            std::thread::Builder::new()
                .name("tcp-watchdog".into())
                .spawn(move || {
                    coordinator_watchdog(
                        shared,
                        hb,
                        dump0,
                        ctrl_writers,
                        dump_rx,
                        stall_timeout,
                        dumps,
                        watchdog_stop_rx,
                    )
                })
                .expect("failed to spawn watchdog thread")
        };

        // ---- application threads (all hosted here) ----------------------
        let mut app_joins = Vec::with_capacity(n_threads);
        for ((idx, (node, body)), resume_rx) in self.spawns.into_iter().enumerate().zip(resume_rxs)
        {
            let tid = ThreadId(idx as u32);
            let to_server: Box<dyn OpPort> = match &links[node.index()] {
                None => Box::new(InlinePort(cell.clone())),
                Some(link) => Box::new(LinkPort { link: link.clone(), spans: shared.obs.spans() }),
            };
            let ctx = RtCtx::new(
                tid,
                node,
                n_nodes,
                n_threads,
                to_server,
                resume_rx,
                shared.clone(),
                tuning.clone(),
            );
            app_joins.push(
                std::thread::Builder::new()
                    .name(format!("tcp-{tid}"))
                    .spawn(move || drive_app_thread(ctx, body))
                    .expect("failed to spawn application thread"),
            );
        }
        drop(links);

        let thread_waits: Vec<WaitTable> =
            app_joins.into_iter().map(|j| j.join().unwrap_or_default()).collect();

        // ---- teardown ----------------------------------------------------
        drop(watchdog_stop_tx);
        let _ = watchdog_join.join();
        finishing.store(true, Ordering::SeqCst);
        let poisoned = shared.is_poisoned();
        for w in ctrl_writers.iter().flatten() {
            let frame = if poisoned { CtrlFrame::Poison } else { CtrlFrame::Finish };
            let _ = send_shared(w, &frame);
        }
        let mut stats = cell.close();
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
            match done_rx.recv_timeout(left) {
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
            for w in ctrl_writers.iter().flatten() {
                let _ = send_shared(w, &CtrlFrame::Bye);
            }
        }
        let _ = timer_join.join();
        reap_children(children, &shared);
        let _ = registry_join.join();

        let elapsed = shared.start.elapsed();
        let errors = shared.errors.lock().expect("error log poisoned").clone();
        let mut dumps = std::mem::take(&mut *dumps.lock().expect("dump log poisoned"));
        dumps.extend(shared.take_dumps());
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
            dumps,
            metrics,
        }
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
    ready_tx: Sender<NodeId>,
    #[allow(clippy::type_complexity)] done_tx: Sender<(
        NodeId,
        NetStats,
        Vec<String>,
        Vec<(ThreadId, u64)>,
        Vec<munin_obs::CovRow>,
    )>,
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
                        let _ = ready_tx.send(node);
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
                        return;
                    }
                }
            }
        })
        .expect("failed to spawn control reader thread");
}

/// The distributed stall watchdog plus the SIGUSR1 on-demand dump service.
#[allow(clippy::too_many_arguments)]
fn coordinator_watchdog(
    shared: Arc<Shared>,
    hb: Arc<HbTable>,
    dump0: impl Fn() -> String,
    ctrl_writers: Vec<Option<SharedWriter>>,
    dump_rx: Receiver<(NodeId, String)>,
    stall_timeout: Duration,
    dumps: Arc<Mutex<Vec<String>>>,
    stop: Receiver<()>,
) {
    let n_nodes = ctrl_writers.len();
    let mut fingerprint: Vec<u64> = Vec::new();
    let mut stable_since = Instant::now();
    loop {
        match stop.recv_timeout(WATCHDOG_POLL) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {}
        }
        if sig::take_dump_request() {
            let entries = collect_dumps(n_nodes, &dump0, &ctrl_writers, &dump_rx);
            let mut log = dumps.lock().expect("dump log poisoned");
            for (node, text) in entries {
                let text = if text.is_empty() { "(no stuck state)" } else { text.as_str() };
                let line = format!("[dump n{}] {text}", node.index());
                eprintln!("{line}");
                log.push(line);
            }
            // The live metrics surface: render the coordinator's telemetry
            // snapshot mid-run. Net counters are merged only at teardown,
            // so the snapshot carries zeros there until the run ends.
            if shared.obs.enabled() {
                let line =
                    format!("[metrics]\n{}", shared.obs.snapshot(NetStats::new()).render_text());
                eprintln!("{line}");
                log.push(line);
            }
        }
        let mut fp: Vec<u64> = Vec::with_capacity(n_nodes);
        fp.push(shared.activity.load(Ordering::Relaxed));
        for (a, _) in hb.0.iter().skip(1) {
            fp.push(a.load(Ordering::Relaxed));
        }
        if fp != fingerprint {
            fingerprint = fp;
            stable_since = Instant::now();
            continue;
        }
        let live = shared.live.load(Ordering::SeqCst);
        let blocked = shared.blocked.load(Ordering::SeqCst);
        let timers = shared.timers_pending.load(Ordering::Acquire) as u64
            + hb.0.iter().skip(1).map(|(_, t)| t.load(Ordering::Relaxed)).sum::<u64>();
        if live == 0 || blocked < live || timers > 0 {
            stable_since = Instant::now();
            continue;
        }
        if stable_since.elapsed() < stall_timeout {
            continue;
        }
        shared.error(format!(
            "stall: all {live} live thread(s) blocked in DSM operations with no activity on \
             any of the {n_nodes} node processes and no pending timer for {:?} — distributed \
             deadlock",
            stall_timeout
        ));
        let entries = collect_dumps(n_nodes, &dump0, &ctrl_writers, &dump_rx);
        {
            let mut errors = shared.errors.lock().expect("error log poisoned");
            for (node, text) in entries {
                if !text.is_empty() {
                    let msg = format!("[stall dump n{}] {text}", node.index());
                    if shared.debug_errors {
                        eprintln!("{msg}");
                    }
                    // Mirror into the report's dump section too, matching
                    // the rt fabric's watchdog.
                    dumps.lock().expect("dump log poisoned").push(msg.clone());
                    errors.push(msg);
                }
            }
        }
        shared.poisoned.store(true, Ordering::Release);
        for w in ctrl_writers.iter().flatten() {
            let _ = send_shared(w, &CtrlFrame::Poison);
        }
        return;
    }
}

/// Pull `debug_stuck_state` from every node: node 0 through `dump0` (its
/// cell's bounded `try_lock`), the children over their control streams.
/// Bounded by a 2-second collection window per phase so a wedged node
/// cannot hang the watchdog.
fn collect_dumps(
    n_nodes: usize,
    dump0: &impl Fn() -> String,
    ctrl_writers: &[Option<SharedWriter>],
    dump_rx: &Receiver<(NodeId, String)>,
) -> Vec<(NodeId, String)> {
    // Drop stale replies from an earlier collection that timed out.
    while dump_rx.try_recv().is_ok() {}
    let mut out = Vec::with_capacity(n_nodes);
    let mut expected = 0usize;
    for w in ctrl_writers.iter().flatten() {
        if send_shared(w, &CtrlFrame::DumpReq).is_ok() {
            expected += 1;
        }
    }
    out.push((NodeId(0), dump0()));
    let deadline = Instant::now() + Duration::from_secs(2);
    while out.len() < expected + 1 {
        let left = deadline.saturating_duration_since(Instant::now());
        match dump_rx.recv_timeout(left) {
            Ok(entry) => out.push(entry),
            Err(_) => break,
        }
    }
    out.sort_by_key(|(n, _)| *n);
    out
}

/// Wait for the children to exit; anything still alive shortly after
/// teardown is killed (and that is not an error — poisoned runs kill by
/// design).
fn reap_children(children: Vec<(NodeId, Child)>, shared: &Shared) {
    let deadline = Instant::now() + Duration::from_secs(5);
    // A child is usually a fraction of a millisecond from exiting when the
    // coordinator gets here (both just saw the end of the `Bye` phase), so
    // the poll starts short and backs off: a fixed 20 ms nap made every
    // run's wall time bimodal on who won that race.
    let mut nap = Duration::from_micros(250);
    for (node, mut child) in children {
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) => {
                    if Instant::now() > deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    std::thread::sleep(nap);
                    nap = (nap * 2).min(Duration::from_millis(20));
                }
                Err(e) => {
                    shared.error(format!("waiting for node n{} process: {e}", node.index()));
                    break;
                }
            }
        }
    }
}
