//! Message envelopes and payload metadata.

use munin_types::{NodeId, VirtualTime};
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

/// A message in flight from `src` to `dst`.
#[derive(Debug, Clone)]
pub struct Envelope<P> {
    pub src: NodeId,
    pub dst: NodeId,
    /// The message's place in its (src, dst) pair's send order, which is
    /// also its delivery order.
    pub seq: u64,
    /// Virtual time at which the message was handed to the transport.
    pub sent_at: VirtualTime,
    pub payload: P,
}

impl<P: PayloadInfo> Envelope<P> {
    pub fn class(&self) -> MsgClass {
        self.payload.class()
    }

    pub fn wire_bytes(&self) -> usize {
        self.payload.wire_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake(usize);
    impl PayloadInfo for Fake {
        fn class(&self) -> MsgClass {
            MsgClass::Data
        }
        fn kind(&self) -> &'static str {
            "Fake"
        }
        fn wire_bytes(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn envelope_delegates_to_payload() {
        let e = Envelope {
            src: NodeId(0),
            dst: NodeId(1),
            seq: 7,
            sent_at: VirtualTime::ZERO,
            payload: Fake(128),
        };
        assert_eq!(e.class(), MsgClass::Data);
        assert_eq!(e.wire_bytes(), 128);
    }

    #[test]
    fn class_labels_unique() {
        let mut labels: Vec<_> = MsgClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), MsgClass::ALL.len());
    }
}
