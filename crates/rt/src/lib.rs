//! # munin-rt
//!
//! The **real-time parallel kernel** for every protocol server (Munin, Ivy,
//! Tardis): the counterpart of the deterministic virtual-time simulator in
//! `munin-sim`. The simulator reproduces the paper's *claims* (message
//! counts, bytes, stall structure); performance on real hardware, the
//! paper's *promise*, needs real concurrency. This kernel provides it:
//!
//! * **one OS thread per node server**, draining a per-node inbox channel,
//!   so protocol handling stays single-threaded per node (the concurrency
//!   model the servers were written for) while nodes run in parallel;
//! * **free-running application threads**, each the simulator's one
//!   pipelined client ([`munin_sim::Client`]: up to
//!   [`munin_sim::MAX_INFLIGHT`] ops in flight, write combining, tokens)
//!   over an [`RtPort`], which mails its ops to the node, parks on the
//!   thread's [`munin_sim::ResumeSlot`] and polls the watchdog's poison
//!   flag. The node's step ([`NodeStep`]) feeds the server those ops
//!   through the simulator's op gate ([`munin_sim::OpGate`]);
//! * **per-pair FIFO, batched transport**: a server step handles up to 128
//!   inbox events under one watchdog activity bump and sends what it
//!   produced as one channel message per destination (`NodeEvent::Batch`),
//!   in send order;
//! * **wake after release**: a result is queued in the thread's slot by
//!   whoever completed the op, and the thread is woken only once that
//!   waker holds no lock the thread needs next;
//! * **a wall-clock timer thread** in place of virtual-time timers;
//! * **a stall watchdog** in place of quiescence-based deadlock detection:
//!   when every live thread is blocked, no node makes progress and no
//!   timer is pending for a configurable window, the run is declared
//!   stalled, every server's [`munin_sim::Server::debug_stuck_state`] goes
//!   into the report and the blocked threads are torn down. SIGUSR1
//!   ([`sig`]) makes the same watchdog dump every node mid-run.
//!
//! A wall-clock run takes the same [`munin_sim::WorldDesc`] the simulator
//! and the native backend take. [`run_on`] is the one run around it, for
//! this kernel and for `munin-tcp`'s multi-process fabric alike; a fabric
//! supplies only what differs, through [`WallFabric`]. [`WallKernel`]
//! implements the servers' [`munin_sim::KernelApi`] seam once for both,
//! over a [`Link`]: this crate's per-node channels or `munin-tcp`'s
//! sockets. [`run`] starts this crate's fabric; `munin_tcp::run_proto`
//! starts the TCP one.
//!
//! `KernelApi::now` is wall-clock microseconds since run start, modelled
//! completion costs are ignored (real latency is measured), and the
//! [`RunReport`](munin_sim::RunReport) gains a
//! [`WallClock`](munin_sim::report::WallClock) section and real-microsecond
//! wait tables. An application's `compute(us)` runs on the calling thread
//! per [`ComputeMode`]: a timed wait (default), which overlaps across
//! workers even on one host core, or nothing at all.

mod ctx;
pub mod fabric;
mod kernel;
pub mod serve;
pub mod sig;
pub mod timer;
mod world;

pub use ctx::{OpPort, RtCtx, RtPort};
pub use fabric::{MsgBody, NodeEvent, Shared};
pub use kernel::{Link, WallKernel};
pub use serve::NodeStep;
pub use world::{run, run_on, ComputeMode, Launch, RtTuning, WallFabric, DUMP_WAIT};
