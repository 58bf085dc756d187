//! # munin-net
//!
//! Message-passing network substrate for the Munin reproduction — the stand-in
//! for the paper's "Ethernet network of SUN workstations" running the
//! V kernel.
//!
//! The paper's quantitative claims are about protocol behaviour: how many
//! messages cross the wire, how many bytes they carry, and which operations
//! must wait for round trips. This crate therefore provides exactly the
//! mechanisms those measurements need:
//!
//! * [`PayloadInfo`] / [`MsgClass`] — wire-size and classification
//!   metadata every protocol message exposes,
//! * [`LatencyModel`] — virtual-time delivery latency derived from the
//!   [`munin_types::CostModel`], with seeded jitter and seeded loss (a lost
//!   attempt only delays a transmission: the simulator holds it until a
//!   retry gets through),
//! * [`LinkSchedule`] — partition and isolation windows, which hold the
//!   transmissions on the links they cut,
//! * [`NetStats`] — per-class and per-kind message/byte accounting,
//! * multicast accounting — one send with hardware multicast, `k` sends
//!   without (the paper's "well designed network interface" discussion).

pub mod envelope;
pub mod fault;
pub mod latency;
mod loss;
pub mod seed;
pub mod stats;

pub use envelope::{MsgClass, PayloadInfo};
pub use fault::{LinkFault, LinkFaultKind, LinkSchedule};
pub use latency::LatencyModel;
pub use seed::{derive, SeedGuard};
pub use stats::{KindStat, NetStats};
