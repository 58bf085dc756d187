//! The [`Protocol`] trait: everything a fabric needs to host a coherence
//! protocol, bundled behind one generic parameter.
//!
//! A backend is the product of a *protocol* (Munin's type-specific
//! coherence, the Ivy page baseline, Tardis timestamp leases) and a
//! *fabric* (the virtual-time simulator, the real-time kernel, the
//! multi-process TCP mesh). Each fabric is written once against
//! `Pr: Protocol`, and the harness's `Backend { proto, fabric }` turns the
//! product into a type. A new protocol is one crate implementing this
//! trait plus its registration in `munin-api`: one `Proto` variant and one
//! `node_protos()` line.

use crate::wire::Wire;
use munin_net::PayloadInfo;
use munin_sim::Server;
use munin_types::{CostModel, NodeId, ObjectDecl, SyncDecls};

/// One coherence protocol, as seen by the fabrics.
///
/// The associated types carry every bound a fabric needs: the message type
/// is a [`PayloadInfo`] (so the obs layer can classify and account traffic
/// without protocol knowledge) and [`Wire`] (so the TCP fabric can frame
/// it); the config is [`Wire`] too, so child node processes receive it
/// opaquely — the fabric ships `(Protocol::TAG, config bytes)` and never
/// looks inside.
pub trait Protocol: 'static {
    /// Wire tag identifying this protocol in `StartConfig` frames. Must be
    /// unique across the registered protocols (asserted at registry build).
    const TAG: u8;

    /// Canonical lower-case protocol name (`"munin"`, `"ivy"`, `"tardis"`).
    /// Every backend name derives from it: `munin-tcp` on the command line,
    /// `MuninTcp` in reports.
    const NAME: &'static str;

    /// Run configuration (knobs + cost model).
    type Config: Clone + Send + Sync + Wire + std::fmt::Debug + 'static;

    /// Inter-server protocol message.
    type Msg: PayloadInfo + Wire + Clone + Send + Sync + std::fmt::Debug + 'static;

    /// The per-node protocol server.
    type Server: Server<Payload = Self::Msg> + 'static;

    /// Build the server for one node. Every node must receive identical
    /// `decls` (sorted by id) and `sync` declarations so protocols that
    /// precompute layout (Ivy's address space) agree without communication;
    /// protocols that resolve declarations through the kernel registry at
    /// run time are free to ignore them.
    fn server(
        cfg: &Self::Config,
        node: NodeId,
        n_nodes: usize,
        decls: &[ObjectDecl],
        sync: &SyncDecls,
    ) -> Self::Server;

    /// The cost model inside this protocol's config (fabrics need it to
    /// charge virtual time / account message costs uniformly).
    fn cost(cfg: &Self::Config) -> &CostModel;
}
