//! # munin-tcp
//!
//! The **multi-process socket fabric** for the pluggable protocol
//! servers — the third kernel behind the `KernelApi` seam, after the
//! deterministic virtual-time simulator (`munin-sim`) and the in-process
//! real-time kernel (`munin-rt`).
//!
//! ## Shape of a distributed run
//!
//! * **One OS process per node.** The coordinator process is node 0; every
//!   other node is a `munin-node` child process running the *same protocol
//!   step* over the *same kernel* as the in-process fabric
//!   (`munin_rt::NodeStep`, `munin_rt::WallKernel`), just over
//!   [`link::Links`], whose remote deliveries are socket writes. Protocol
//!   logic in `munin-core`/`munin-ivy`/`munin-tardis` is untouched.
//! * **No server thread.** A node's `{server, kernel, op gate}` sits behind
//!   one mutex and each step runs on the thread that already holds the
//!   event — a data-stream reader, node 0's application thread, the timer
//!   thread:
//!
//!   | op | path | hand-offs / syscalls |
//!   |---|---|---|
//!   | node-0 thread, local hit | inline under the node lock | 0 / 0 |
//!   | node-j thread, local hit | app → reader_j → reader_0 → app | 3 / 6 |
//!   | node-0 thread, remote op, home j | app → reader_j → reader_0 → app | 3 / 6-7 |
//!   | node-j thread, remote op, home 0 | app → reader_j → reader_0 → reader_j → reader_0 → app | 5 / 10 |
//!   | node-0 thread, K-deep window, home j | app → reader_j → reader_0 → app | 3 / 6-7 per window |
//!   | node-j thread, K-deep window, home j | app → reader_j → reader_0 → app | 3 / 6 per window |
//!
//!   Lock order: node cell → link out-buffer, never the reverse, and never
//!   a cell across a blocking call other than the registry RPC. Wake after
//!   release: a step queues a node-0 thread's result in its resume slot
//!   under the cell and wakes the thread only once the cell is released,
//!   so each hand-off in the table is one context switch. Leave when about
//!   to park: a thread's pipelined ops wait in the link's out-buffer until
//!   it parks (or, on node 0, until any step of the node ends), so a window
//!   of K `Op` frames leaves in one socket write. No thread
//!   that reads a socket or holds a cell ever blocks in a data-socket
//!   write: what a non-blocking send does not take goes to the link's
//!   overflow writer. See [`node`] and [`link`].
//! * **One TCP stream per node pair.** Per-(src,dst) FIFO — the ordering
//!   assumption the protocols were written against — comes free from the
//!   stream. Everything one step sends to a destination leaves in a single
//!   socket write, and a read returns as many frames as arrived, which run
//!   as one step: the socket is the batching seam.
//! * **Application threads stay in the coordinator** (closures do not cross
//!   processes): a thread placed on node `j` reaches node `j` via `Op`
//!   frames on the 0→j data stream and is resumed by `Resume` frames coming
//!   back on it. The apps, the typed `Par` surface, and the harness are
//!   unchanged — all six study applications run unmodified under
//!   `Backend::tcp(..)`, whatever the protocol.
//! * **A coordinator-hosted registry service** keeps every process's copy
//!   of the registry in step: reads hit the process's own copy;
//!   writes (dynamic allocation, adaptive retyping) are request/reply
//!   frames whose reply arrives only after every node's copy acked the
//!   update (see [`registry`] for why that ack-barrier makes cross-stream
//!   ordering a non-issue).
//! * **The wall-clock world of `munin-rt`**: a run is the same
//!   `munin_sim::WorldDesc` every backend runs, handed to [`run_proto`],
//!   which plugs this fabric into the one run skeleton (`munin_rt::run_on`,
//!   through `munin_rt::WallFabric`). The stall
//!   watchdog is `munin-rt`'s: children heartbeat their activity epochs
//!   and pending-timer counts into its probe; when every live thread is
//!   blocked and nothing progresses anywhere for the stall timeout, it
//!   pulls `debug_stuck_state` from every node over the wire into the
//!   report and the coordinator poisons every child. `SIGUSR1` triggers
//!   the same collection on demand for runs that are slow but not stuck.
//! * **Faults surface, they don't hang.** A dead node process or a
//!   half-closed stream is noticed by the affected reader/writer, recorded
//!   as an error naming the peer, and poisons the run; blocked threads
//!   tear down exactly as on a watchdog stall.
//!
//! ## Wire format
//!
//! The vendored `serde` is a no-op stub, so `munin_proto::wire` is a
//! first-party little-endian codec with property-tested round-trip identity
//! for every message variant; [`frames`] adds u32-length-prefixed framing,
//! the buffered reader and the control/data frame vocabularies.

pub mod frames;
pub mod link;
pub mod node;
pub mod registry;
pub mod spawn;
pub mod world;

pub use frames::TestFault;
pub use spawn::{node_binary, tcp_support};
pub use world::run_proto;
