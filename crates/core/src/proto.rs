//! The Munin protocol's plug-in face: wire codec for [`MuninMsg`] and the
//! [`Protocol`] impl that lets fabrics construct Munin servers without
//! naming this crate's types.
//!
//! The codec lives here (not in `munin-proto`) because of the orphan rule:
//! `Wire` and `MuninMsg` must meet in a crate that owns one of them.

use crate::{MuninMsg, MuninServer, UpdateItem};
use munin_proto::{wire_enum, wire_struct, Protocol};
use munin_types::{CostModel, MuninConfig, NodeId, ObjectDecl, SyncDecls};

wire_struct!(UpdateItem { obj, diff });

wire_enum!(MuninMsg {
    0 => ReadReq { obj, page },
    1 => ReadReply { obj, page, data, install, confirm },
    2 => ReadConfirm { obj },
    3 => FwdRead { obj, requester },
    4 => WriteReq { obj },
    5 => OwnerYield { obj },
    6 => OwnerData { obj, data },
    7 => OwnerGrant { obj, data },
    8 => Inval { obj, session },
    9 => InvalAck { obj, session },
    10 => MigrateReq { obj },
    11 => MigrateYield { obj, requester },
    12 => MigrateData { obj, data },
    13 => MigrateNotify { obj },
    14 => FlushIn { session, items },
    15 => FlushOut { session, items },
    16 => FlushInval { session, objs },
    17 => FlushOutAck { session, used },
    18 => FlushDone { session },
    19 => Eager { items },
    20 => EagerOut { items },
    21 => AtomicReq { obj, offset, delta, thread },
    22 => AtomicReply { thread, old },
    23 => LockReq { lock },
    24 => LockFetch { lock, to },
    25 => LockPass { lock, piggyback },
    26 => LockNotify { lock },
    27 => BarrierArrive { barrier, threads },
    28 => BarrierRelease { barrier },
    29 => CvWait { cond, thread },
    30 => CvSignal { cond, broadcast },
    31 => CvWake { cond, thread },
});

/// The Munin protocol plug-in: type-specific coherence (the paper's
/// protocol) over whichever fabric instantiates it.
pub struct MuninProto;

impl Protocol for MuninProto {
    const TAG: u8 = 0;
    const NAME: &'static str = "munin";
    type Config = MuninConfig;
    type Msg = MuninMsg;
    type Server = MuninServer;

    fn server(
        cfg: &Self::Config,
        node: NodeId,
        _n_nodes: usize,
        _decls: &[ObjectDecl],
        sync: &SyncDecls,
    ) -> Self::Server {
        MuninServer::new(node, cfg.clone(), sync.clone())
    }

    fn cost(cfg: &Self::Config) -> &CostModel {
        &cfg.cost
    }
}
