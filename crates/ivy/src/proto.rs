//! The Ivy baseline's plug-in face: wire codec for [`IvyMsg`] and the
//! [`Protocol`] impl. Codec placement follows the orphan rule — see
//! `munin_core::proto` for the rationale.

use crate::{IvyMsg, IvyServer};
use munin_proto::{wire_enum, Protocol};
use munin_types::{CostModel, IvyConfig, NodeId, ObjectDecl, SyncDecls};

wire_enum!(IvyMsg {
    0 => RReq { page },
    1 => FwdRead { page, requester },
    2 => PData { page, data, confirm },
    3 => RConfirm { page },
    4 => WReq { page },
    5 => Yield { page },
    6 => YieldData { page, data },
    7 => Inval { page },
    8 => InvalAck { page },
    9 => Grant { page, data },
    10 => CLockReq { lock, thread },
    11 => CLockGrant { thread },
    12 => CUnlock { lock },
    13 => CBarrierArrive { barrier, threads },
    14 => CBarrierRelease { barrier },
});

/// The Ivy protocol plug-in: page-based strict write-invalidate.
pub struct IvyProto;

impl Protocol for IvyProto {
    const TAG: u8 = 1;
    const NAME: &'static str = "ivy";
    type Config = IvyConfig;
    type Msg = IvyMsg;
    type Server = IvyServer;

    fn server(
        cfg: &Self::Config,
        node: NodeId,
        n_nodes: usize,
        decls: &[ObjectDecl],
        sync: &SyncDecls,
    ) -> Self::Server {
        IvyServer::new(node, cfg.clone(), n_nodes, decls, sync)
    }

    fn cost(cfg: &Self::Config) -> &CostModel {
        &cfg.cost
    }
}
