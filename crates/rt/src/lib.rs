//! # munin-rt
//!
//! The **real-time parallel kernel** for every protocol server (Munin, Ivy,
//! Tardis) — the counterpart of the deterministic virtual-time simulator in
//! `munin-sim`.
//!
//! ## Why a second kernel
//!
//! The simulator's application threads pass one event queue between them:
//! exactly one thread runs at a time, every latency is modelled, and a run
//! is a deterministic function of (program, configuration, seed). That is
//! the right instrument for reproducing the paper's *claims* (message
//! counts, bytes, stall structure) — and the wrong one for its *promise*:
//! that type-specific coherence lets DSM programs perform almost as well as
//! hand-coded message passing. Performance on real hardware needs real
//! concurrency. This kernel provides it:
//!
//! * **one OS thread per node server** — each node's coherence server
//!   ([`munin_sim::Server`]) runs its own event loop over a per-node inbox
//!   channel; protocol handling stays single-threaded *per node* (exactly
//!   the concurrency model the servers were written for) while different
//!   nodes genuinely run in parallel;
//! * **truly parallel application threads** — app threads run free and
//!   block on fault completion (a take from their
//!   [`munin_sim::ResumeSlot`]), not on a rendezvous with a global
//!   scheduler;
//! * **per-pair FIFO transport** — each kernel owns its own sender clone
//!   per destination, so the per-(src,dst) FIFO ordering the protocols
//!   assume carries over from the simulated transport;
//! * **a batched message pipeline** — server loops drain their inbox in
//!   bounded batches (one blocking `recv` plus `try_recv`s, at most 128
//!   events, one watchdog activity bump per batch), and every protocol
//!   message a server sends while handling one batch is coalesced into a
//!   single channel message per destination (`NodeEvent::Batch`, flushed
//!   through `KernelApi::flush_outbound` before the loop blocks again). A
//!   K-item flush or eager fan-out costs the fabric one send and one
//!   receiver wake-up per destination instead of one per item; multicast
//!   payloads are shared behind an `Arc` rather than deep-cloned per
//!   destination. Batching never reorders a (src,dst) pair — batch items
//!   are delivered in send order;
//! * **a pipelined client** — a thread keeps up to [`MAX_INFLIGHT`] ops in
//!   flight, combines adjacent writes client-side, and parks on its resume
//!   slot while it waits. The node's op gate ([`NodeStep`]) feeds the
//!   protocol server those ops one at a time, except that ops the server
//!   declares ordered through one peer ([`munin_sim::Server::ordered_peer`]:
//!   Munin's fetch-adds to one remote home) overlap inside the server.
//!   [`RtCtx`] supplies only that issue path, through the pipelining hooks
//!   of [`munin_sim::DsmThread`]; the application-facing wrappers are the
//!   simulator's, written once there;
//! * **wake after release** — a result is queued in the thread's resume
//!   slot by whoever completed the op, and the thread is woken only once
//!   that waker holds no lock the thread needs next (here the server
//!   thread holds none, so it wakes at once; the TCP fabric's node 0 wakes
//!   after its cell's lock). A hand-off is then one context switch, not a
//!   switch to a thread that blocks on the waker's lock and switches back.
//!   The per-node inboxes are still `std::sync::mpsc` channels, whose send
//!   wakes the server thread under the channel's own lock;
//! * **a wall-clock timer thread** replacing virtual-time timers (Ivy's
//!   spin backoff and barrier sense polling work unmodified);
//! * **a stall watchdog** replacing quiescence-based deadlock detection:
//!   when every live thread is blocked in an operation and no kernel
//!   activity happens for a configurable window (and no timer is pending),
//!   the run is declared stalled, every server's
//!   [`munin_sim::Server::debug_stuck_state`] is captured into the report,
//!   and blocked threads are torn down so the process never hangs. SIGUSR1
//!   ([`sig`]) makes the same watchdog dump every node mid-run.
//!
//! ## One wall-clock world
//!
//! A wall-clock run takes the same [`munin_sim::WorldDesc`] the simulator
//! and the native backend take. [`run_on`] is the one run around it, for
//! this kernel and for `munin-tcp`'s multi-process fabric alike: the run
//! state, the application threads, the watchdog and the report. A fabric
//! supplies only what differs, through [`WallFabric`]: its start and
//! teardown, an op port per node, the watchdog's progress probe and state
//! dumps, and a hook for when the watchdog poisons the run. [`run`] starts
//! this crate's channel fabric; `munin_tcp::run_proto` starts the TCP one.

//! The protocol crates (`munin-core`, `munin-ivy`, `munin-tardis`) know
//! nothing of this kernel: they talk to whichever kernel hosts them through
//! the [`munin_sim::KernelApi`] seam. [`WallKernel`] implements it once for
//! both wall-clock fabrics, over a [`Link`] that owns what differs: where a
//! step's messages go and when they leave, where a resume goes, and how a
//! registry write is made. This crate's link is per-node channels, whose
//! registry writes go in place; `munin-tcp`'s is sockets, with an
//! ack-barriered registry RPC.
//!
//! ## Time, cost, and `compute`
//!
//! On this kernel `KernelApi::now` is wall-clock microseconds since run
//! start, completion costs are ignored (real latency is measured, not
//! modelled), and the [`RunReport`](munin_sim::RunReport) gains a
//! [`WallClock`](munin_sim::report::WallClock) section plus real-microsecond
//! wait tables. Application `compute(us)` calls — the apps' model of local
//! computation — are executed by the *calling thread* according to
//! [`ComputeMode`]: the default `Sleep` performs a timed wait of `us`
//! microseconds, which overlaps across workers even on a single host core,
//! so measured speedup tracks the runtime's ability to overlap modelled
//! compute with coherence traffic; `Skip` drops compute entirely for pure
//! protocol stress.

mod ctx;
pub mod fabric;
mod kernel;
pub mod serve;
pub mod sig;
pub mod timer;
mod world;

pub use ctx::{OpPort, RtCtx, MAX_INFLIGHT};
pub use fabric::{MsgBody, NodeEvent, Shared};
pub use kernel::{Link, WallKernel};
pub use serve::NodeStep;
pub use world::{run, run_on, ComputeMode, Launch, RtTuning, WallFabric, DUMP_WAIT};
