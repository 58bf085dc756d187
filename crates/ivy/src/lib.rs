//! # munin-ivy
//!
//! The Ivy baseline: a faithful model of the system the Munin paper
//! compares against (Li's shared virtual memory, "Ivy").
//!
//! * one flat shared virtual address space, divided into fixed-size pages
//!   ("global virtual memory is divided into pages"); objects are *placed*
//!   into the space back-to-back, so unrelated objects share pages —
//!   "all sharing is on a per-page basis, entailing the possibility of
//!   significant amounts of false sharing";
//! * **strict coherence** via a directory-based write-invalidate protocol:
//!   pages have one owner and a read copyset; a write fault invalidates
//!   every copy before the writer proceeds; a read fault fetches the page
//!   from the owner. Page managers are distributed by page number;
//! * **no special provisions for synchronization objects**: locks are
//!   test-and-set words *in* shared memory and barriers are counter+sense
//!   words, so contended synchronization causes page-ownership ping-pong —
//!   exactly the overhead Munin's proxy locks avoid. A central-lock-server
//!   mode (`SyncStrategy::CentralServer`) is provided as the ablation that
//!   isolates data-protocol effects from synchronization effects; it runs
//!   on the shared [`munin_proto::sync`] service (the FIFO home lock and
//!   the home barrier), the same one Munin's barriers and Tardis use.
//!
//! The server implements the same [`munin_sim::Server`] interface as the
//! Munin runtime, so identical application code runs on both.
//!
//! ## The pending-op engine: cost per event
//!
//! A thread's access that misses waits in `pending` until its pages
//! arrive. Every message, op and timer ends in a rescan, and a rescan's
//! work follows what changed, not how much is waiting:
//!
//! * an op's needs are one [`munin_mem::PageSpan`] (`{first, end}` plus a
//!   write flag), computed once when it is queued; checking it, requesting
//!   its pages and copying its bytes allocate nothing, and a sync word is
//!   read with one page lookup;
//! * a pass re-checks only the ops queued since the last pass and those
//!   whose span holds a page whose local state (presence, write flag,
//!   `inflight` flags) changed. Any other op is known blocked with its
//!   requests out. Parked ticket spinners are visited only on such pages
//!   and on pages where a local unlock advanced the `now_serving` word;
//! * every id-keyed table uses [`munin_types::IdMap`], an unseeded
//!   one-multiply hash.
//!
//! The engine is deterministic: ops run in `pending` order and to
//! fixpoint, so they execute and request pages exactly as a check of every
//! op would. Woken spinners join `pending` in ascending page order, and no
//! table's iteration order depends on a per-process hash seed.

pub mod msg;
pub mod pending;
pub mod proto;
pub mod server;

pub use msg::IvyMsg;
pub use proto::IvyProto;
pub use server::IvyServer;
