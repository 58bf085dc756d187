//! # munin-sim
//!
//! Deterministic discrete-event simulation kernel for the Munin
//! reproduction.
//!
//! The paper's system intercepted shared-memory accesses with VM page
//! faults and measured protocol traffic over real Ethernet. Reproducing its
//! *claims* (message counts, bytes, stall structure) needs the protocols
//! executed faithfully under a controlled concurrency model, which this
//! kernel provides:
//!
//! * **virtual time**: every latency comes from the
//!   [`munin_types::CostModel`]; wall clock never affects results;
//! * **deterministic scheduling**: application threads are fibers on the
//!   thread that runs the world; the one running holds the world state as
//!   a baton that it passes to the next thread an event resumes, so a
//!   (program, config, seed) always produces the same event sequence;
//! * **a server abstraction** ([`Server`]): each node hosts a coherence
//!   server that handles its threads' ops and remote protocol messages;
//! * **a transport** with per-pair FIFO, exactly-once delivery, multicast
//!   and traffic accounting, where injected loss and link cuts only hold a
//!   transmission (for whole retransmit timeouts), never drop it.
//!
//! This crate also hosts what every backend shares:
//! * [`WorldDesc`], the one world description (node count, declarations,
//!   threads, coverage recorder), which [`World::new`] takes with a
//!   transport and a tracer, the wall-clock fabrics with their settings
//!   and the native backend with its memory;
//! * [`DsmThread`], the one thread trait (`munin_api::Par`), which turns
//!   each application call into a [`DsmOp`] and unwraps its [`OpResult`];
//! * [`Client`], the one client path (the window of [`MAX_INFLIGHT`] ops,
//!   the token table, write combining, the fail-closed drains) over a
//!   [`Port`]. The simulator's [`ThreadCtx`] and the wall-clock fabrics'
//!   `munin_rt::RtCtx` are this client over their own ports, so a thread
//!   runs on while its writes and async ops are in flight, in virtual time
//!   too;
//! * [`OpGate`], which feeds a server its threads' ops one at a time but
//!   for ops ordered through one peer ([`Server::ordered_peer`]): the
//!   simulator's world and the wall-clock node step (`munin_rt::NodeStep`)
//!   dispatch through it.

pub mod client;
pub mod desc;
pub mod event;
mod fiber;
pub mod gate;
pub mod kernel;
pub mod op;
mod reorder;
pub mod report;
pub mod resume;
pub mod thread;
pub mod tracer;
pub mod transport;
pub mod world;

pub use client::{Client, Port, MAX_INFLIGHT};
pub use desc::{ThreadBody, WorldDesc};
pub use gate::{GateKernel, OpGate};
pub use kernel::{KernelApi, Registry};
pub use munin_obs::{AccessKind, CovRow, CoverageMap, CoverageSnapshot, Transition};
pub use op::{DsmOp, DsmThread, OpHead, OpOutcome, OpResult};
pub use report::RunReport;
pub use resume::{ResumeSlot, TakeError};
pub use thread::{panic_message, SimPort, ThreadCtx};
pub use tracer::{NullTracer, TraceEvent, Tracer};
pub use transport::TransportConfig;
pub use world::{Kernel, Server, World};
