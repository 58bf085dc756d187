//! # munin-tardis
//!
//! Timestamp-based coherence (Tardis, Yu & Devadas; see PAPERS.md) as the
//! third plug-in protocol behind the [`munin_sim::Server`] /
//! [`munin_sim::KernelApi`] seams.
//!
//! Where Munin picks a mechanism per sharing annotation and Ivy invalidates
//! every copy before a write proceeds, Tardis orders accesses in *logical*
//! time and never sends an invalidation at all:
//!
//! * every node keeps a program timestamp `pts`; every object's home keeps
//!   a write timestamp `wts` and a read-lease timestamp `rts` — O(1)
//!   directory state, no copyset;
//! * a **read** is valid locally while `pts <= rts` of the cached copy; a
//!   miss (or an expired lease) fetches/renews from the home, which extends
//!   `rts = max(rts, reader_pts + lease)`;
//! * a **write** goes to the home and jumps the object past every granted
//!   lease: `wts' = max(wts, rts, writer_pts) + 1`. Readers elsewhere keep
//!   using their leased copies — *reading in the past* is the paper's
//!   trick — and refetch only once their own `pts` outruns the lease;
//! * synchronization carries timestamps: a lock grant lifts the acquirer's
//!   `pts` to the lock's release timestamp and a barrier release lifts
//!   every participant to the max arrival timestamp, which is exactly
//!   release consistency — post-acquire reads see everything written
//!   before the release because their `pts` now exceeds every stale lease.
//!   The locks and barriers are the shared [`munin_proto::sync`] service
//!   (FIFO home lock, home barrier) with `pts` as its stamp; the server
//!   keeps only the lift of `pts` on each grant and release;
//! * a timer-driven **decay sweep** (riding the fabrics' existing timer
//!   plumbing) evicts cached copies whose lease the local clock has
//!   outrun, bounding memory without any protocol traffic.
//!
//! The payoff measured in the benches: read-heavy workloads send *zero*
//! invalidation multicasts (`NetStats::by_kind` has no `Inval` rows) at
//! the price of lease renewals, and reads stay serviceable under a network
//! partition for as long as their leases run.

pub mod msg;
pub mod server;

pub use msg::TardisMsg;
pub use server::TardisServer;

use munin_proto::Protocol;
use munin_types::{CostModel, NodeId, ObjectDecl, SyncDecls, TardisConfig};

/// The Tardis protocol plug-in.
pub struct TardisProto;

impl Protocol for TardisProto {
    const TAG: u8 = 2;
    const NAME: &'static str = "tardis";
    type Config = TardisConfig;
    type Msg = TardisMsg;
    type Server = TardisServer;

    fn server(
        cfg: &Self::Config,
        node: NodeId,
        _n_nodes: usize,
        _decls: &[ObjectDecl],
        sync: &SyncDecls,
    ) -> Self::Server {
        TardisServer::new(node, cfg.clone(), sync)
    }

    fn cost(cfg: &Self::Config) -> &CostModel {
        &cfg.cost
    }
}
