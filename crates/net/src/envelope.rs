//! Payload metadata: the message classes and what every payload exposes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Coarse classification of protocol messages, used in the traffic tables.
///
/// The experiment harness reports traffic split along these lines so the
/// "who pays for what" arguments of the paper (data motion vs coherence
/// control vs synchronization) are visible directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MsgClass {
    /// Carries object bytes: fault replies, migrations, refreshes, diffs.
    Data,
    /// Coherence control without data: requests, invalidations, directory
    /// updates.
    Control,
    /// Delayed-update propagation (diffs). Kept separate from `Data` so the
    /// DUQ experiments can show combining directly.
    Update,
    /// Lock/barrier/condition traffic.
    Sync,
    /// Protocol acknowledgements (invalidation, flush, renewal and write
    /// acks).
    Ack,
}

impl MsgClass {
    pub const ALL: [MsgClass; 5] =
        [MsgClass::Data, MsgClass::Control, MsgClass::Update, MsgClass::Sync, MsgClass::Ack];

    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Data => "data",
            MsgClass::Control => "control",
            MsgClass::Update => "update",
            MsgClass::Sync => "sync",
            MsgClass::Ack => "ack",
        }
    }
}

impl fmt::Display for MsgClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Metadata every protocol payload must expose so the substrate can account
/// for it and model its latency without knowing the protocol.
pub trait PayloadInfo {
    /// Coarse class for the traffic tables.
    fn class(&self) -> MsgClass;
    /// Fine-grained kind ("ReadReq", "Diff", "LockGrant", ...) for per-kind
    /// breakdowns.
    fn kind(&self) -> &'static str;
    /// Bytes this message would occupy on the wire **beyond** the fixed
    /// header (i.e. the payload the latency model charges for).
    fn wire_bytes(&self) -> usize;
    /// If handling this message *is* the authoritative ("home node") step
    /// of an op some application thread is blocked on, the id of that
    /// thread — the observability layer stamps the home leg of the op's
    /// causal span there. Default `None`: most protocol traffic is not
    /// attributable to a single waiting thread.
    fn span_home_thread(&self) -> Option<munin_types::ThreadId> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_labels_unique() {
        let mut labels: Vec<_> = MsgClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), MsgClass::ALL.len());
    }
}
