//! # munin-mem
//!
//! Distributed memory management for the Munin reproduction.
//!
//! Four pieces, each used by both runtimes or by the Munin protocols:
//!
//! * [`store`] — per-node storage of local object copies with bounds-checked
//!   range access and little-endian integer views (for atomic counters);
//! * [`diff`] — run-length encoded differences between two versions of an
//!   object's bytes: a run table over one shared payload buffer, built with
//!   a word-at-a-time scan. This is how the delayed update queue ships only
//!   the bytes a thread actually wrote, and how concurrent writers to
//!   independent portions of a write-many object merge without conflict;
//! * [`twin`] — dirty-range twin management: as each local write lands on a
//!   loosely-coherent object, the runtime snapshots the pristine bytes of
//!   *that range* (coalescing adjacent writes into regions), so flush-time
//!   diffing scans only what was written;
//! * [`addr`] — the Ivy baseline's flat shared address space: object
//!   placement (packed or page-aligned) and object-range → page-range
//!   translation, which is where false sharing comes from.
//!
//! ## The dirty-range architecture
//!
//! The paper's "delayed updates" mechanism is only cheap if its cost tracks
//! the write set, not the object: a thread touching 64 bytes of a 1 MiB
//! array must not pay 1 MiB of twin copy plus a 1 MiB scan at the next
//! synchronization. The pipeline therefore keeps everything O(bytes
//! written):
//!
//! 1. **Write** — [`twin::TwinStore::note_write`] snapshots the written
//!    range's pristine bytes (lazily, merging adjacent regions; rewriting an
//!    already-dirty range is free).
//! 2. **Flush** — [`twin::TwinStore::take_diff`] diffs each dirty region
//!    against the working copy in place (no clone), producing one [`Diff`]
//!    whose N runs live in a single payload allocation.
//! 3. **Distribute** — the protocol layer (munin-core) wraps the diff in an
//!    `Arc`, so fanning it out to K copyset members shares one payload.
//!
//! Incoming remote diffs patch the snapshots ([`twin::TwinStore::apply_remote`])
//! so remote bytes are never mistaken for local modifications — and runs
//! outside every dirty region need no work at all.

pub mod addr;
pub mod diff;
pub mod store;
pub mod twin;

pub use addr::{page_pieces, AddressSpace, PageId, PagePiece, PageSpan};
pub use diff::Diff;
pub use store::ObjectStore;
pub use twin::TwinStore;
