//! # munin-trace
//!
//! Access tracing and sharing-pattern classification — the machinery that
//! regenerates the paper's §2 study ("Sharing in Parallel Programs").
//!
//! A [`StudyTracer`] plugs into the simulation kernel and records every data
//! access, synchronization operation and phase mark. The [`classify()`]
//! function then derives, for each shared object, the access-pattern
//! category it *behaves* as — using only the observed trace, never the
//! programmer's annotation — and [`study_stats`] computes the study's
//! summary findings (read/write mix, initialization vs computation phase,
//! synchronization access gaps).

pub mod classify;
pub mod log;
pub mod stats;

pub use classify::{classify, ObjectVerdict};
pub use log::{Access, StudyTracer, SyncEvent, TraceLog};
pub use stats::{study_stats, StudyStats};
