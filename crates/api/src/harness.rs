//! The program harness: declare shared objects and synchronization objects,
//! spawn threads, pick a backend, run.
//!
//! The same [`ProgramBuilder`] program runs on any protocol (Munin's
//! type-specific coherence, Ivy's page-based strict coherence, Tardis
//! timestamp leases) on any fabric (simulator, real-time kernel, TCP), or
//! on native threads; the experiments in `munin-bench` are all phrased as
//! "build program once, run under several backends/configurations, compare
//! reports".

use crate::native::{NativeCtx, NativeWorld};
use crate::par::Par;
use munin_core::MuninProto;
use munin_ivy::IvyProto;
use munin_proto::Protocol;
use munin_rt::{RtCtx, RtTuning, RtWorldBuilder};
use munin_sim::{RunReport, ThreadCtx, Tracer, TransportConfig, WorldBuilder};
use munin_tardis::TardisProto;
use munin_tcp::TestFault;
use munin_types::{
    BarrierDecl, BarrierId, CondDecl, CondId, CostModel, Element, IvyConfig, LockDecl, LockId,
    MuninConfig, NodeId, ObjectDecl, ObjectId, SharedArray, SharedScalar, SharingType, SyncDecls,
    TardisConfig,
};

/// A coherence protocol with its configuration: the protocol axis of a
/// [`Backend`].
#[derive(Debug, Clone)]
pub enum Proto {
    /// Munin's type-specific coherence.
    Munin(MuninConfig),
    /// The Ivy page-based strict-coherence baseline.
    Ivy(IvyConfig),
    /// Tardis timestamp-lease coherence.
    Tardis(TardisConfig),
}

impl From<MuninConfig> for Proto {
    fn from(cfg: MuninConfig) -> Self {
        Proto::Munin(cfg)
    }
}

impl From<IvyConfig> for Proto {
    fn from(cfg: IvyConfig) -> Self {
        Proto::Ivy(cfg)
    }
}

impl From<TardisConfig> for Proto {
    fn from(cfg: TardisConfig) -> Self {
        Proto::Tardis(cfg)
    }
}

impl Proto {
    /// The protocol's [`Protocol::NAME`] (`"munin"`, `"ivy"`, `"tardis"`).
    pub fn name(&self) -> &'static str {
        match self {
            Proto::Munin(_) => MuninProto::NAME,
            Proto::Ivy(_) => IvyProto::NAME,
            Proto::Tardis(_) => TardisProto::NAME,
        }
    }

    /// The cost model inside the protocol's config.
    pub fn cost(&self) -> &CostModel {
        match self {
            Proto::Munin(c) => MuninProto::cost(c),
            Proto::Ivy(c) => IvyProto::cost(c),
            Proto::Tardis(c) => TardisProto::cost(c),
        }
    }
}

/// Which kernel a backend runs its protocol servers on: the fabric axis
/// of a [`Backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// The deterministic virtual-time simulator.
    Sim,
    /// The in-process real-time kernel: truly parallel app threads,
    /// wall-clock measurements.
    Rt,
    /// The multi-process TCP fabric: one OS process per node (`munin-node`
    /// children), protocol messages as length-prefixed frames on one stream
    /// per node pair, application threads hosted by the coordinator. Probe
    /// [`tcp_support`](munin_tcp::tcp_support) before selecting it in an
    /// environment that may lack loopback sockets or the node binary.
    Tcp,
}

impl Fabric {
    const ALL: [Fabric; 3] = [Fabric::Sim, Fabric::Rt, Fabric::Tcp];

    /// The fabric's part of a backend name (empty for the simulator).
    fn suffix(self) -> &'static str {
        match self {
            Fabric::Sim => "",
            Fabric::Rt => "rt",
            Fabric::Tcp => "tcp",
        }
    }
}

/// Which runtime executes the program.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Protocol `proto` on fabric `fabric`.
    Dsm { proto: Proto, fabric: Fabric },
    /// Real threads, real shared memory (semantic reference).
    Native,
}

impl Backend {
    /// `cfg`'s protocol on the deterministic simulator.
    pub fn sim(cfg: impl Into<Proto>) -> Backend {
        Backend::Dsm { proto: cfg.into(), fabric: Fabric::Sim }
    }

    /// `cfg`'s protocol on the in-process real-time kernel.
    pub fn rt(cfg: impl Into<Proto>) -> Backend {
        Backend::Dsm { proto: cfg.into(), fabric: Fabric::Rt }
    }

    /// `cfg`'s protocol on the multi-process TCP fabric.
    pub fn tcp(cfg: impl Into<Proto>) -> Backend {
        Backend::Dsm { proto: cfg.into(), fabric: Fabric::Tcp }
    }

    /// The protocol axis; `None` for the native reference backend.
    pub fn proto(&self) -> Option<&Proto> {
        match self {
            Backend::Dsm { proto, .. } => Some(proto),
            Backend::Native => None,
        }
    }

    /// The fabric axis; `None` for the native reference backend.
    pub fn fabric(&self) -> Option<Fabric> {
        match self {
            Backend::Dsm { fabric, .. } => Some(*fabric),
            Backend::Native => None,
        }
    }

    /// Default lossless transport matching the backend's cost model. The
    /// wall-clock fabrics do not use the simulated transport, so (like
    /// Native) they get the default.
    fn transport(&self) -> TransportConfig {
        match self {
            Backend::Dsm { proto, fabric: Fabric::Sim } => {
                TransportConfig::lossless(proto.cost().clone())
            }
            _ => TransportConfig::default(),
        }
    }

    /// Display name, used in reports and error messages: `Munin`,
    /// `MuninRt`, `TardisTcp`, `Native`.
    pub fn name(&self) -> String {
        self.spelling(false)
    }

    /// Command-line spelling: `munin`, `munin-rt`, `tardis-tcp`, `native`.
    pub fn cli_name(&self) -> String {
        self.spelling(true)
    }

    /// Both spellings, from the protocol's [`Protocol::NAME`] and the
    /// fabric: kebab-case for the command line, each part capitalised for
    /// display.
    fn spelling(&self, cli: bool) -> String {
        let (proto, fabric) = match self {
            Backend::Dsm { proto, fabric } => (proto.name(), fabric.suffix()),
            Backend::Native => ("native", ""),
        };
        let parts = [proto, fabric].into_iter().filter(|p| !p.is_empty());
        if cli {
            parts.collect::<Vec<_>>().join("-")
        } else {
            parts.map(|p| p[..1].to_ascii_uppercase() + &p[1..]).collect()
        }
    }

    /// Does this backend run on a wall-clock kernel (in-process rt or the
    /// multi-process TCP fabric)?
    pub fn is_realtime(&self) -> bool {
        matches!(self.fabric(), Some(Fabric::Rt | Fabric::Tcp))
    }

    /// Does this backend span multiple OS processes?
    pub fn is_distributed(&self) -> bool {
        self.fabric() == Some(Fabric::Tcp)
    }

    /// Every (protocol × fabric) backend with default configs, in
    /// protocol-major order. The one list the cross-backend tests and
    /// traffic benches iterate. `Native` is excluded: it is the semantic
    /// reference, not a protocol backend, and callers that want it add it
    /// explicitly. Distributed entries are included; gate them with
    /// [`Backend::is_distributed`] + [`munin_tcp::tcp_support`] where the
    /// environment may lack them.
    pub fn matrix() -> Vec<Backend> {
        let protos = [
            Proto::Munin(MuninConfig::default()),
            Proto::Ivy(IvyConfig::default()),
            Proto::Tardis(TardisConfig::default()),
        ];
        protos
            .iter()
            .flat_map(|p| Fabric::ALL.map(|fabric| Backend::Dsm { proto: p.clone(), fabric }))
            .collect()
    }

    /// Parse a backend name (its display name or its CLI spelling, any
    /// case) into a default-config backend. Drives the study/bench CLIs.
    pub fn parse(name: &str) -> Option<Backend> {
        let canon: String = name.chars().filter(|c| *c != '-' && *c != '_').collect();
        Backend::matrix()
            .into_iter()
            .chain([Backend::Native])
            .find(|b| b.name().eq_ignore_ascii_case(&canon))
    }
}

/// Result of a run.
pub struct Outcome {
    /// Simulation report (None for native runs).
    pub report: Option<RunReport>,
    /// Wall-clock duration of the run (host time; only meaningful for
    /// native runs).
    pub wall: std::time::Duration,
    /// Which backend produced this outcome (for diagnostics).
    backend: String,
}

impl Outcome {
    /// The simulation report; panics (naming the backend) if the run has
    /// none. Use [`Outcome::try_report`] when the backend may be native.
    pub fn report(&self) -> &RunReport {
        match &self.report {
            Some(r) => r,
            None => panic!(
                "no simulation report: this program ran on the {} backend, which executes \
                 real threads and produces only wall-clock timing — use try_report() (or \
                 Outcome::wall) for backend-agnostic code",
                self.backend
            ),
        }
    }

    /// The simulation report, if the backend produced one (native runs do
    /// not).
    pub fn try_report(&self) -> Option<&RunReport> {
        self.report.as_ref()
    }

    /// Name of the backend that produced this outcome.
    pub fn backend_name(&self) -> &str {
        &self.backend
    }

    /// The run's telemetry snapshot, if the backend records one (wall-clock
    /// fabrics with `RtTuning::telemetry` not `Off`; the simulator and
    /// native backends never do).
    pub fn metrics(&self) -> Option<&munin_obs::MetricsSnapshot> {
        self.report.as_ref().and_then(|r| r.metrics.as_ref())
    }

    /// Panic unless the run was clean (native runs are clean if they joined).
    pub fn assert_clean(&self) -> &Self {
        if let Some(r) = &self.report {
            r.assert_clean();
        }
        self
    }
}

type ThreadBody = Box<dyn FnOnce(&mut dyn Par) + Send + 'static>;

/// Builder for a portable parallel program.
pub struct ProgramBuilder {
    n_nodes: usize,
    objects: Vec<ObjectDecl>,
    locks: Vec<LockDecl>,
    barriers: Vec<BarrierDecl>,
    conds: Vec<CondDecl>,
    threads: Vec<(NodeId, ThreadBody)>,
    rt_tuning: RtTuning,
    tcp_fault: Option<TestFault>,
    coverage: Option<std::sync::Arc<munin_obs::CoverageMap>>,
}

impl ProgramBuilder {
    pub fn new(n_nodes: usize) -> Self {
        assert!(n_nodes > 0);
        ProgramBuilder {
            n_nodes,
            objects: Vec::new(),
            locks: Vec::new(),
            barriers: Vec::new(),
            conds: Vec::new(),
            threads: Vec::new(),
            rt_tuning: RtTuning::default(),
            tcp_fault: None,
            coverage: None,
        }
    }

    /// Tuning for the real-time backends (compute mode, stall timeout);
    /// ignored by the simulator and native backends.
    pub fn rt_tuning(&mut self, tuning: RtTuning) -> &mut Self {
        self.rt_tuning = tuning;
        self
    }

    /// Inject a process-level fault (node kill, half-closed stream) on the
    /// TCP backends — the fault-campaign hook for real-fabric failures.
    /// Ignored by every other backend.
    pub fn inject_tcp_fault(&mut self, fault: TestFault) -> &mut Self {
        self.tcp_fault = Some(fault);
        self
    }

    /// Attach a protocol-state coverage recorder; the run's servers note
    /// (protocol, object, state, event) transitions into it on every
    /// backend (sim, rt, tcp). Ignored by the native backend, which has no
    /// protocol underneath. `None` (the default) keeps the note sites to a
    /// single predicted branch.
    pub fn coverage(&mut self, map: std::sync::Arc<munin_obs::CoverageMap>) -> &mut Self {
        self.coverage = Some(map);
        self
    }

    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Declare a typed shared array of `len` elements of `T`, homed on node
    /// `home`. The returned handle carries the element type, length and
    /// sharing annotation, so every access through it is bounds- and
    /// type-checked at the API layer.
    #[track_caller]
    pub fn array<T: Element>(
        &mut self,
        name: &str,
        len: u32,
        sharing: SharingType,
        home: usize,
    ) -> SharedArray<T> {
        let bytes = (len as u64).checked_mul(T::SIZE as u64).filter(|b| *b <= u32::MAX as u64);
        let bytes =
            bytes.unwrap_or_else(|| panic!("array `{name}`: {len} x {} overflows u32", T::NAME));
        let id = self.object(name, bytes as u32, sharing, home);
        SharedArray::from_raw(id, len, sharing)
    }

    /// Declare a typed shared array from a declaration template (see
    /// [`ObjectDecl::template`]) — for lock-associated migratory arrays and
    /// eager producer-consumer arrays. The template's id, size and home are
    /// filled in here.
    #[track_caller]
    pub fn array_decl<T: Element>(
        &mut self,
        mut decl: ObjectDecl,
        len: u32,
        home: usize,
    ) -> SharedArray<T> {
        let bytes = (len as u64).checked_mul(T::SIZE as u64).filter(|b| *b <= u32::MAX as u64);
        decl.size = bytes
            .unwrap_or_else(|| panic!("array `{}`: {len} x {} overflows u32", decl.name, T::NAME))
            as u32;
        let sharing = decl.sharing;
        let id = self.object_decl(decl, home);
        SharedArray::from_raw(id, len, sharing)
    }

    /// Declare a typed shared scalar of `T`, homed on node `home`.
    pub fn scalar<T: Element>(
        &mut self,
        name: &str,
        sharing: SharingType,
        home: usize,
    ) -> SharedScalar<T> {
        let id = self.object(name, T::SIZE as u32, sharing, home);
        SharedScalar::from_raw(id, sharing)
    }

    /// Declare a typed shared scalar from a declaration template (the
    /// scalar analogue of [`ProgramBuilder::array_decl`]).
    pub fn scalar_decl<T: Element>(
        &mut self,
        mut decl: ObjectDecl,
        home: usize,
    ) -> SharedScalar<T> {
        decl.size = T::SIZE as u32;
        let sharing = decl.sharing;
        let id = self.object_decl(decl, home);
        SharedScalar::from_raw(id, sharing)
    }

    /// Declare an untyped shared object homed on `home` (node index) and
    /// return its raw id. Prefer the typed [`ProgramBuilder::array`] /
    /// [`ProgramBuilder::scalar`]; the raw form remains for runtimes and
    /// experiment plumbing that work below the typed layer.
    pub fn object(&mut self, name: &str, size: u32, sharing: SharingType, home: usize) -> ObjectId {
        let id = ObjectId(self.objects.len() as u64);
        let decl = ObjectDecl::new(id, name, size, sharing, NodeId(home as u16));
        self.objects.push(decl);
        id
    }

    /// Declare a shared object from a full declaration template (for
    /// lock-associated migratory objects and eager producer-consumer
    /// objects). The id and home are overwritten.
    pub fn object_decl(&mut self, mut decl: ObjectDecl, home: usize) -> ObjectId {
        let id = ObjectId(self.objects.len() as u64);
        decl.id = id;
        decl.home = NodeId(home as u16);
        self.objects.push(decl);
        id
    }

    /// Declare a distributed lock homed on `home`.
    pub fn lock(&mut self, home: usize) -> LockId {
        let id = LockId(self.locks.len() as u32);
        self.locks.push(LockDecl { id, home: NodeId(home as u16) });
        id
    }

    /// Declare a barrier with `count` participants, homed on `home`.
    pub fn barrier(&mut self, home: usize, count: u32) -> BarrierId {
        let id = BarrierId(self.barriers.len() as u32);
        self.barriers.push(BarrierDecl { id, home: NodeId(home as u16), count });
        id
    }

    /// Declare a condition variable homed on `home` (Munin backend only).
    pub fn cond(&mut self, home: usize) -> CondId {
        let id = CondId(self.conds.len() as u32);
        self.conds.push(CondDecl { id, home: NodeId(home as u16) });
        id
    }

    /// Spawn a program thread on node `node`.
    pub fn thread(&mut self, node: usize, f: impl FnOnce(&mut dyn Par) + Send + 'static) {
        assert!(node < self.n_nodes, "thread placed on unknown node {node}");
        self.threads.push((NodeId(node as u16), Box::new(f)));
    }

    /// Number of threads spawned so far.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// Snapshot of the declared objects (for the sharing-study classifier,
    /// which compares observed behaviour against the annotations).
    pub fn objects(&self) -> Vec<ObjectDecl> {
        self.objects.clone()
    }

    /// Clear (or set) the eager flag on every producer-consumer object —
    /// the lazy-propagation ablation of experiment E7.
    pub fn set_eager_all(&mut self, eager: bool) {
        for d in &mut self.objects {
            if d.sharing == SharingType::ProducerConsumer {
                d.eager = eager;
            }
        }
    }

    /// Rewrite every object's sharing annotation — the "single static
    /// protocol" ablation (e.g. force everything to `GeneralReadWrite` to
    /// measure what Munin's type-specific dispatch buys). Lock associations
    /// are dropped when the type changes away from `Migratory`.
    pub fn retype_all(&mut self, f: impl Fn(SharingType) -> SharingType) {
        for d in &mut self.objects {
            let nt = f(d.sharing);
            if nt != d.sharing {
                d.sharing = nt;
                if nt != SharingType::Migratory {
                    d.associated_lock = None;
                }
                d.eager = false;
            }
        }
    }

    fn sync_decls(&self) -> SyncDecls {
        SyncDecls {
            locks: self.locks.clone(),
            barriers: self.barriers.clone(),
            conds: self.conds.clone(),
        }
    }

    /// Run on the chosen backend with the default (lossless) transport.
    pub fn run(self, backend: Backend) -> Outcome {
        let transport = backend.transport();
        self.run_with(backend, transport, None)
    }

    /// Run with an explicit transport configuration (loss injection, shared
    /// medium) and/or a tracer.
    pub fn run_with(
        self,
        backend: Backend,
        transport: TransportConfig,
        tracer: Option<Box<dyn Tracer>>,
    ) -> Outcome {
        let started = std::time::Instant::now();
        let name = backend.name();
        let Backend::Dsm { proto, fabric } = backend else {
            self.run_native();
            return Outcome { report: None, wall: started.elapsed(), backend: name };
        };
        if fabric != Fabric::Sim {
            assert_rt_supports(&transport, &tracer, &name);
        }
        // One arm per protocol picks the type; `run_proto` is written once
        // against the `Protocol` seam.
        let report = match proto {
            Proto::Munin(cfg) => self.run_proto::<MuninProto>(cfg, fabric, transport, tracer),
            Proto::Ivy(cfg) => self.run_proto::<IvyProto>(cfg, fabric, transport, tracer),
            Proto::Tardis(cfg) => self.run_proto::<TardisProto>(cfg, fabric, transport, tracer),
        };
        Outcome { report: Some(report), wall: started.elapsed(), backend: name }
    }

    /// Run the threads on real shared memory.
    fn run_native(self) {
        let world = NativeWorld::new(
            self.objects.iter().map(|d| (d.id, d.size as usize)),
            self.locks.len(),
            &self.barriers.iter().map(|b| b.count as usize).collect::<Vec<_>>(),
            self.conds.len(),
            self.threads.len(),
        );
        let mut joins = Vec::new();
        for (i, (_node, body)) in self.threads.into_iter().enumerate() {
            let w = world.clone();
            joins.push(std::thread::spawn(move || {
                let mut ctx = NativeCtx::new(w, i);
                body(&mut ctx);
            }));
        }
        for j in joins {
            j.join().expect("native program thread panicked");
        }
    }

    /// Run protocol `Pr` on `fabric`. Only the simulator reads `transport`
    /// and `tracer`; `run_with` has already rejected them for the others.
    fn run_proto<Pr: Protocol>(
        self,
        cfg: Pr::Config,
        fabric: Fabric,
        transport: TransportConfig,
        tracer: Option<Box<dyn Tracer>>,
    ) -> RunReport {
        let sync = self.sync_decls();
        let n_nodes = self.n_nodes;
        let decls = &self.objects;
        let servers = || -> Vec<Pr::Server> {
            (0..n_nodes)
                .map(|i| Pr::server(&cfg, NodeId(i as u16), n_nodes, decls, &sync))
                .collect()
        };
        match fabric {
            Fabric::Sim => {
                let mut b = WorldBuilder::new(n_nodes).transport(transport);
                if let Some(t) = tracer {
                    b = b.tracer(t);
                }
                if let Some(map) = self.coverage {
                    b = b.coverage(map);
                }
                for d in decls {
                    let id = b.declare(d.clone(), d.home);
                    debug_assert_eq!(id, d.id, "builder ids must stay dense");
                }
                for (node, body) in self.threads {
                    b.spawn(node, move |ctx: &mut ThreadCtx| body(ctx));
                }
                b.build(servers()).run()
            }
            // One world description for both wall-clock fabrics (same
            // thread bodies, same `RtCtx` surface); only the final call
            // picks the fabric.
            Fabric::Rt | Fabric::Tcp => {
                let mut b = RtWorldBuilder::<Pr::Msg>::new(n_nodes)
                    .cost(Pr::cost(&cfg).clone())
                    .tuning(self.rt_tuning);
                if let Some(map) = self.coverage {
                    b = b.coverage(map);
                }
                for d in decls {
                    let id = b.declare(d.clone(), d.home);
                    debug_assert_eq!(id, d.id, "builder ids must stay dense");
                }
                for (node, body) in self.threads {
                    b.spawn(node, move |ctx: &mut RtCtx<Pr::Msg>| body(ctx));
                }
                match fabric {
                    Fabric::Rt => b.run(servers()),
                    _ => munin_tcp::run_proto::<Pr>(b, cfg, sync, self.tcp_fault),
                }
            }
        }
    }
}

/// The wall-clock fabrics' wires are OS channels and sockets: no loss
/// injection, no shared-medium serialization, no jitter, no scheduled
/// partitions, no tracer. Reject configurations that ask for them so
/// experiments fail loudly instead of measuring something other than what
/// they configured. (The transport's cost model is irrelevant here: these
/// servers take their cost model from the protocol config.)
fn assert_rt_supports(
    transport: &TransportConfig,
    tracer: &Option<Box<dyn Tracer>>,
    backend: &str,
) {
    assert!(
        tracer.is_none(),
        "the {backend} backend runs on a wall-clock kernel, which has no tracer hook; \
         run the program on the simulator backend to trace it"
    );
    assert!(
        transport.drop_prob == 0.0
            && !transport.serialize_medium
            && transport.jitter_us == 0
            && transport.link_faults.is_empty(),
        "the {backend} backend runs over OS channels and cannot simulate message loss, a \
         shared medium, jitter or link faults; use the simulator backend for transport \
         experiments"
    );
}

/// Convenience: run a simple report-returning simulation and unwrap it.
pub fn run_sim(builder: ProgramBuilder, backend: Backend) -> RunReport {
    let out = builder.run(backend);
    out.report.expect("sim backend")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::ParTyped;
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    /// One program, three backends, identical results.
    fn counting_program(n: usize) -> (ProgramBuilder, Arc<AtomicI64>) {
        let mut p = ProgramBuilder::new(n);
        let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
        let l = p.lock(0);
        let bar = p.barrier(0, n as u32);
        let total = Arc::new(AtomicI64::new(-1));
        for i in 0..n {
            let total = total.clone();
            p.thread(i, move |par| {
                for _ in 0..5 {
                    par.lock(l);
                    let v = par.load(&ctr);
                    par.store(&ctr, v + 1);
                    par.unlock(l);
                }
                par.barrier(bar);
                if par.self_id() == 0 {
                    par.lock(l);
                    total.store(par.load(&ctr), Ordering::SeqCst);
                    par.unlock(l);
                }
            });
        }
        (p, total)
    }

    #[test]
    fn try_report_present_on_sim_absent_on_native() {
        let (p, _) = counting_program(2);
        let o = p.run(Backend::sim(MuninConfig::default()));
        assert!(o.try_report().is_some());
        assert_eq!(o.backend_name(), "Munin");

        let (p, _) = counting_program(2);
        let o = p.run(Backend::Native);
        assert!(o.try_report().is_none());
        assert_eq!(o.backend_name(), "Native");
    }

    #[test]
    fn native_report_panic_names_the_backend() {
        let (p, _) = counting_program(2);
        let o = p.run(Backend::Native);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = o.report();
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("Native backend"), "panic message was: {msg}");
        assert!(msg.contains("try_report"), "panic message was: {msg}");
    }

    #[test]
    fn same_program_runs_on_munin() {
        let (p, total) = counting_program(3);
        p.run(Backend::sim(MuninConfig::default())).assert_clean();
        assert_eq!(total.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn same_program_runs_on_ivy() {
        let (p, total) = counting_program(3);
        p.run(Backend::sim(IvyConfig::default())).assert_clean();
        assert_eq!(total.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn same_program_runs_on_ivy_central_locks() {
        let (p, total) = counting_program(3);
        p.run(Backend::sim(IvyConfig::default().with_central_locks())).assert_clean();
        assert_eq!(total.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn same_program_runs_native() {
        let (p, total) = counting_program(3);
        p.run(Backend::Native).assert_clean();
        assert_eq!(total.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn every_matrix_cell_parses_from_both_spellings() {
        // Reports and the golden ledger print these.
        let names: Vec<String> = Backend::matrix().iter().map(Backend::name).collect();
        assert_eq!(
            names.join(" "),
            "Munin MuninRt MuninTcp Ivy IvyRt IvyTcp Tardis TardisRt TardisTcp"
        );
        for b in Backend::matrix() {
            for spelling in [b.name(), b.cli_name()] {
                let parsed = Backend::parse(&spelling).unwrap_or_else(|| panic!("{spelling}"));
                assert_eq!(parsed.name(), b.name(), "{spelling}");
            }
        }
        // The spellings the benchmark and CI pass.
        for (cli, cell) in [
            ("munin", "Munin"),
            ("munin-rt", "MuninRt"),
            ("munin-tcp", "MuninTcp"),
            ("ivy", "Ivy"),
            ("ivy-tcp", "IvyTcp"),
            ("tardis", "Tardis"),
            ("tardis-tcp", "TardisTcp"),
            ("native", "Native"),
        ] {
            assert_eq!(Backend::parse(cli).map(|b| b.name()).as_deref(), Some(cell), "{cli}");
            assert_eq!(Backend::parse(cell).map(|b| b.cli_name()).as_deref(), Some(cli), "{cell}");
        }
        assert!(Backend::parse("munin-udp").is_none());
    }

    #[test]
    fn uncontended_remote_lock_costs_constant_messages_on_both() {
        // Repeated lock/unlock by one remote node: Munin's proxy fetches
        // the token once and re-grants locally; Ivy's spin lock acquires
        // the page once and TASes locally. Both exploit locality — the
        // difference the paper cares about appears under *contention*
        // (experiment E13), not here.
        let build = |n: usize| {
            let mut p = ProgramBuilder::new(n);
            let l = p.lock(0);
            p.thread(n - 1, move |par| {
                for _ in 0..50 {
                    par.lock(l);
                    par.unlock(l);
                }
            });
            p
        };
        let munin = run_sim(build(2), Backend::sim(MuninConfig::default()));
        munin.assert_clean();
        let ivy = run_sim(build(2), Backend::sim(IvyConfig::default()));
        ivy.assert_clean();
        assert!(
            munin.stats.messages <= 6,
            "proxy locks: constant messages, got {}",
            munin.stats.messages
        );
        assert!(
            ivy.stats.messages <= 6,
            "owned spin page: constant messages, got {}",
            ivy.stats.messages
        );
    }
}
