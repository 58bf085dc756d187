//! Shared run state: the channels and atomics that stitch node servers,
//! application threads, the timer thread and the watchdog together.

use munin_obs::ObsCollector;
use munin_sim::{DsmOp, Registry};
use munin_types::{NodeId, ObjectDecl, Telemetry, ThreadId};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// A protocol payload travelling through the channel fabric. Unicast sends
/// move the payload; multicast fan-outs share one allocation behind an
/// `Arc` so a K-way fan-out never deep-clones the payload at send time —
/// receivers unwrap it, and only receivers that race with a still-live
/// sibling copy pay a clone (the last consumer never does).
pub enum MsgBody<P> {
    Owned(P),
    Shared(Arc<P>),
}

impl<P: Clone> MsgBody<P> {
    /// Take the payload, cloning only when another destination of the same
    /// multicast still holds the allocation.
    pub fn into_payload(self) -> P {
        match self {
            MsgBody::Owned(p) => p,
            MsgBody::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
        }
    }
}

impl<P> MsgBody<P> {
    /// Borrow the payload without consuming the body (serializing fabrics
    /// encode from a reference so a multicast's shared allocation survives
    /// until the last destination is written).
    pub fn payload(&self) -> &P {
        match self {
            MsgBody::Owned(p) => p,
            MsgBody::Shared(a) => a,
        }
    }
}

/// One input to a node's protocol step ([`crate::NodeStep::step`]). On the
/// channel fabric these are the node server's inbox: the server thread
/// drains them in arrival order and everything a server does happens on its
/// own thread, so server state needs no locking (the same single-writer
/// discipline the simulator enforces). The TCP fabric builds them from
/// decoded frames and feeds them to the step under the node's mutex.
pub enum NodeEvent<P> {
    /// A local application thread issued a DSM operation.
    Op(ThreadId, DsmOp),
    /// A protocol message from another node's server.
    Msg(NodeId, MsgBody<P>),
    /// Every protocol message one peer server sent here during one of its
    /// server steps, coalesced into a single channel operation (items are
    /// `(src, payload)` in send order, so per-(src,dst) FIFO is exactly the
    /// order of this vector). A K-item flush fan-out costs the fabric one
    /// send and one receiver wake-up instead of K.
    Batch(Vec<(NodeId, MsgBody<P>)>),
    /// A timer armed via `KernelApi::set_timer` came due.
    Timer(u64),
    /// The watchdog wants the node's `debug_stuck_state`: the step sends
    /// it back on the channel (the watchdog waits a bounded time for it).
    Dump(Sender<String>),
    /// The run is over; exit the server loop.
    Shutdown,
}

/// State shared (behind an `Arc`) by every thread of one real-time run.
pub struct Shared {
    /// Wall-clock origin of the run.
    pub start: Instant,
    /// The object-declaration registry: on the in-process fabric the one
    /// every node reads and writes; on TCP this process's copy, which the
    /// registry service keeps in step with the others. Reads vastly
    /// outnumber writes (servers cache declarations keyed on its version).
    pub registry: RwLock<Registry>,
    /// Run errors (panics, stalls, server-reported invariant violations).
    pub errors: Mutex<Vec<String>>,
    /// Bumped every time any server thread processes an inbox event. The
    /// watchdog reads it to distinguish "slow" from "stuck".
    pub activity: AtomicU64,
    /// Application threads currently blocked inside a DSM operation.
    pub blocked: AtomicUsize,
    /// Application threads that have not yet finished their body.
    pub live: AtomicUsize,
    /// Timers armed but not yet *delivered*: incremented by the arming
    /// kernel before the request is even mailed to the timer thread, and
    /// decremented by the timer thread only after the fired `Timer` event
    /// is in the destination inbox. Strictly additive on both sides so the
    /// watchdog can never observe "no pending timer" while a timer request
    /// or a fired event is still in flight (a pending timer means the run
    /// can still make progress on its own).
    pub timers_pending: AtomicUsize,
    /// Set by the watchdog on stall: blocked threads panic out of their
    /// recv loops, server loops exit, the run tears down instead of hanging.
    pub poisoned: AtomicBool,
    /// Total DSM operations issued.
    pub ops: AtomicU64,
    /// `MUNIN_DEBUG_ERRORS` was set: mirror errors and stall dumps to
    /// stderr as they happen.
    pub debug_errors: bool,
    /// The observability collector: per-thread latency histograms, causal
    /// span rings and per-object access counters (all preallocated here;
    /// recording never allocates). Sized by `telemetry` — `Off` keeps no
    /// slots at all.
    pub obs: ObsCollector,
    /// Stuck-state dumps the watchdog captured, on a stall or on SIGUSR1,
    /// from every node of either fabric; surfaced as `RunReport::dumps`.
    pub dumps: Mutex<Vec<String>>,
    /// Protocol-state coverage recorder, when the run is instrumented
    /// (campaign explore mode). Servers reach it through
    /// `KernelApi::coverage`; `None` costs one branch per note site.
    pub coverage: Option<Arc<munin_obs::CoverageMap>>,
}

impl Shared {
    pub fn new(decls: Vec<ObjectDecl>, n_threads: usize, telemetry: Telemetry) -> Self {
        Shared {
            start: Instant::now(),
            registry: RwLock::new(Registry::new(decls)),
            errors: Mutex::new(Vec::new()),
            activity: AtomicU64::new(0),
            blocked: AtomicUsize::new(0),
            live: AtomicUsize::new(n_threads),
            timers_pending: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            ops: AtomicU64::new(0),
            debug_errors: std::env::var_os("MUNIN_DEBUG_ERRORS").is_some(),
            obs: ObsCollector::new(telemetry, n_threads),
            dumps: Mutex::new(Vec::new()),
            coverage: None,
        }
    }

    /// Record a captured stuck-state dump (watchdog or on-demand).
    pub fn dump(&self, text: String) {
        self.dumps.lock().unwrap_or_else(|p| p.into_inner()).push(text);
    }

    /// Take the dumps collected so far (teardown).
    pub fn take_dumps(&self) -> Vec<String> {
        std::mem::take(&mut *self.dumps.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Microseconds of wall clock since the run started.
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    pub fn error(&self, msg: String) {
        if self.debug_errors {
            eprintln!("[rt kernel error] {msg}");
        }
        self.errors.lock().expect("error log poisoned").push(msg);
    }

    pub fn mark_activity(&self) {
        self.activity.fetch_add(1, Ordering::Relaxed);
    }

    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}
