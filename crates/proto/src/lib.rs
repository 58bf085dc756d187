//! # munin-proto
//!
//! The protocol seam. Three things live here: the first two make a
//! coherence protocol a *plug-in* rather than a hand-enumerated special
//! case in every fabric, and the third is the synchronization service the
//! protocols share:
//!
//! * [`wire`] — the first-party binary codec ([`Wire`]) plus
//!   implementations for every shared vocabulary type that crosses a
//!   process boundary (ids, declarations, configs, operations, statistics).
//!   Protocol crates implement [`Wire`] for their own message and config
//!   types with the exported [`wire_struct!`]/[`wire_enum!`] macros.
//! * [`protocol`] — the [`Protocol`] trait bundling a protocol's message
//!   type, config, server constructor and wire tag, so the harness, the
//!   real-time fabric, the TCP fabric, the campaign harness and the bench
//!   drivers are all generic over protocols. Adding a protocol means
//!   implementing this trait in one crate and registering it once in
//!   `munin-api`; no fabric changes.
//! * [`sync`] — [`HomeSync`]: every declared lock, barrier and condition
//!   variable indexed by id, the home barrier (arrivals, multicast release
//!   set) and the FIFO home lock, with a [`sync::Stamp`] merged along each
//!   release (`()` for Munin and Ivy, the logical clock for Tardis). Each
//!   server keeps its own messages, coverage labels and stamp handling.
//!
//! This crate sits *below* the protocol crates (`munin-core`, `munin-ivy`,
//! `munin-tardis`) and the fabrics (`munin-rt`, `munin-tcp`): it depends
//! only on the shared vocabulary (`munin-types`, `munin-net`, `munin-mem`,
//! `munin-obs`) and the kernel seam (`munin-sim`). Rust's orphan rules then
//! put each protocol's `Wire` impls in the protocol's own crate, which is
//! exactly where they belong.

pub mod protocol;
pub mod sync;
pub mod wire;

pub use protocol::Protocol;
pub use sync::HomeSync;
pub use wire::{Wire, WireError, WireResult};
