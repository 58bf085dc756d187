//! # munin-core
//!
//! The Munin runtime: type-specific memory coherence on a distributed
//! memory machine, as described in Bennett, Carter & Zwaenepoel,
//! *"Munin: Distributed Shared Memory Based on Type-Specific Memory
//! Coherence"*, PPoPP 1990.
//!
//! One [`MuninServer`] runs per node (implementing the simulation kernel's
//! [`munin_sim::Server`] trait). Each shared object carries a
//! [`munin_types::SharingType`] annotation; the server routes every access
//! fault to the protocol matching the annotation:
//!
//! | type | mechanism | module |
//! |---|---|---|
//! | write-once | replication, page-wise fetch, publication at first sync | `faults` |
//! | write-many | twins + per-node delayed update queue, diff merge | `faults`, `flush`, `duq` |
//! | result | write-without-fetch logs merged at the collector | `faults`, `flush` |
//! | producer-consumer | consumer-set tracking, eager push + sync fence | `faults`, `flush` |
//! | migratory | single copy, lock-carried or fault-driven migration | `migrate`, `locks` |
//! | read-mostly | replication with refresh/invalidate, or remote load/store | `faults`, `flush` |
//! | general read-write | Berkeley-ownership directory protocol (strict) | `ownership` |
//! | private | local only | `faults` |
//! | synchronization | proxy locks, barriers, monitors, atomic integers | `locks`, `munin_proto::sync`, `condvar`, `atomic` |
//!
//! Loose coherence: writes to write-many / result / producer-consumer
//! objects are buffered in the delayed update queue and propagated — merged
//! and batched — when the writing node synchronizes; synchronization
//! operations do not complete until every update they flushed is applied at
//! every copy (acknowledged through the object's home). Program order of
//! updates from one node is preserved by per-pair FIFO channels plus
//! in-order batch application.
//!
//! Dynamic decisions (§3.4/§4 of the paper): per-copy invalidate-vs-refresh
//! from usage feedback, and runtime promotion of general read-write objects
//! to producer-consumer/migratory (`adapt`).

/// Note a protocol-state transition into the run's coverage map, if one is
/// attached (campaign explore mode). The `object` axis is the sharing
/// annotation's label (or a structural name like "lock"/"barrier"), so
/// coverage distinguishes e.g. a write-many write-fault from a migratory
/// one. One predicted branch per site when no map is attached.
#[inline]
pub(crate) fn cover(
    k: &dyn munin_sim::KernelApi<MuninMsg>,
    object: &'static str,
    state: &'static str,
    event: &'static str,
) {
    if let Some(c) = k.coverage() {
        c.note(munin_sim::Transition::new("munin", object, state, event));
    }
}

pub mod adapt;
pub mod atomic;
pub mod condvar;
pub mod duq;
pub mod faults;
pub mod flush;
pub mod locks;
pub mod migrate;
pub mod msg;
pub mod ownership;
pub mod proto;
pub mod server;
pub mod state;
pub mod sync_objs;

pub use msg::{MuninMsg, UpdateItem};
pub use proto::MuninProto;
pub use server::MuninServer;
pub use state::{BarrierDecl, CondDecl, LockDecl, SyncDecls};
