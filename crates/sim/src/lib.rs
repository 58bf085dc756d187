//! # munin-sim
//!
//! Deterministic discrete-event simulation kernel for the Munin
//! reproduction.
//!
//! ## Why a simulator
//!
//! The paper's system intercepted shared-memory accesses with VM page faults
//! on SUN workstations and measured protocol traffic over real Ethernet.
//! Reproducing the *claims* (message counts, bytes, stall structure) does not
//! need real signals or real wires — it needs the protocols executed
//! faithfully under a controlled concurrency model. This kernel provides:
//!
//! * **virtual time** — every latency comes from the
//!   [`munin_types::CostModel`]; wall clock never affects results;
//! * **deterministic scheduling** — application threads are real OS threads,
//!   but exactly one runs at a time, holding the world state as a baton that
//!   it passes to the next thread an event resumes, so a given (program,
//!   config, seed) always produces the identical event sequence, message
//!   counts and traces;
//! * **a server abstraction** ([`Server`]) — each node hosts a coherence
//!   server (Munin's per-node server, or the Ivy manager) that handles local
//!   threads' access faults and remote protocol messages;
//! * **a transport** with per-pair FIFO delivery, optional deterministic
//!   message loss, acknowledgements and go-back-N retransmission (the
//!   V kernel's reliable layer), multicast, and full traffic accounting.
//!
//! Application code is written in ordinary blocking style against
//! [`DsmThread`] (the simulator's context is [`ThreadCtx`]); each DSM
//! operation runs the event queue on the calling thread until some thread
//! resumes.
//!
//! This crate also hosts what every backend shares:
//! * [`WorldDesc`], the one world description — node count, declarations,
//!   threads, coverage recorder — which [`World::new`] takes with a
//!   transport and a tracer, the wall-clock fabrics with their own
//!   settings, and the native backend with its memory;
//! * [`DsmThread`], the one thread trait (`munin_api::Par`), which turns
//!   each application call into a [`DsmOp`] and unwraps its [`OpResult`],
//!   once, for the simulator's [`ThreadCtx`], the wall-clock fabrics'
//!   contexts and native threads alike.

pub mod desc;
pub mod event;
pub mod kernel;
pub mod op;
pub mod report;
pub mod resume;
pub mod thread;
pub mod tracer;
pub mod transport;
pub mod world;

pub use desc::{ThreadBody, WorldDesc};
pub use kernel::{KernelApi, Registry};
pub use munin_obs::{CovRow, CoverageMap, CoverageSnapshot, Transition};
pub use op::{DsmOp, DsmThread, OpOutcome, OpResult};
pub use report::RunReport;
pub use resume::{ResumeSlot, TakeError};
pub use thread::{panic_message, ThreadCtx};
pub use tracer::{NullTracer, TraceEvent, Tracer};
pub use transport::TransportConfig;
pub use world::{Kernel, Server, World};
