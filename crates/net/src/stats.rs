//! Traffic accounting.
//!
//! Every experiment table of the paper's evaluation (pinned in
//! `tests/golden/repro_quick.txt`) is ultimately a readout of this
//! structure: messages and bytes, split by [`MsgClass`] and by fine-grained
//! message kind, plus multicast savings.

use crate::envelope::MsgClass;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Count + bytes for one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindStat {
    pub count: u64,
    pub bytes: u64,
}

/// Aggregated network statistics for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Total messages placed on the wire (multicast counted per actual
    /// transmission under the configured hardware model).
    pub messages: u64,
    /// Total payload bytes on the wire.
    pub bytes: u64,
    /// Messages/bytes by coarse class.
    pub by_class: BTreeMap<MsgClass, KindStat>,
    /// Messages/bytes by fine-grained kind name.
    pub by_kind: BTreeMap<String, KindStat>,
    /// Logical multicast operations performed.
    pub multicasts: u64,
    /// Transmissions saved by hardware multicast (fanout minus actual sends).
    pub multicast_saved: u64,
    /// Transmission attempts held back by injected loss or a cut link (a
    /// held transmission is still one message).
    pub dropped: u64,
    /// Retry instants at which held transmissions were attempted again.
    pub retransmissions: u64,
    /// Messages the simulator gave up: held past its retry budget, or sent
    /// on a pair that already gave one up (only possible under link faults
    /// that outlast the budget, e.g. a permanent partition).
    pub gave_up: u64,
}

impl NetStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one wire transmission.
    pub fn record(&mut self, class: MsgClass, kind: &'static str, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
        let c = self.by_class.entry(class).or_default();
        c.count += 1;
        c.bytes += bytes as u64;
        let k = match self.by_kind.get_mut(kind) {
            Some(k) => k,
            None => self.by_kind.entry(kind.to_owned()).or_default(),
        };
        k.count += 1;
        k.bytes += bytes as u64;
    }

    /// Record a logical multicast of fanout `fanout` realized with
    /// `actual_sends` transmissions (the per-transmission `record` calls are
    /// made separately by the transport).
    pub fn record_multicast(&mut self, fanout: usize, actual_sends: usize) {
        self.multicasts += 1;
        self.multicast_saved += (fanout.saturating_sub(actual_sends)) as u64;
    }

    /// Record a transmission held through `attempts` lost or cut attempts,
    /// `retries` of them at retry instants after the first.
    pub fn record_hold(&mut self, attempts: u64, retries: u64) {
        self.dropped += attempts;
        self.retransmissions += retries;
    }

    pub fn record_gave_up(&mut self) {
        self.gave_up += 1;
    }

    pub fn class(&self, c: MsgClass) -> KindStat {
        self.by_class.get(&c).copied().unwrap_or_default()
    }

    pub fn kind(&self, k: &str) -> KindStat {
        self.by_kind.get(k).copied().unwrap_or_default()
    }

    /// Messages excluding protocol acks.
    pub fn messages_excluding_acks(&self) -> u64 {
        self.messages - self.class(MsgClass::Ack).count
    }

    /// Fold another stats block into this one (e.g. summing per-node
    /// transports).
    pub fn merge(&mut self, other: &NetStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.multicasts += other.multicasts;
        self.multicast_saved += other.multicast_saved;
        self.dropped += other.dropped;
        self.retransmissions += other.retransmissions;
        self.gave_up += other.gave_up;
        for (c, s) in &other.by_class {
            let e = self.by_class.entry(*c).or_default();
            e.count += s.count;
            e.bytes += s.bytes;
        }
        for (k, s) in &other.by_kind {
            let e = self.by_kind.entry(k.clone()).or_default();
            e.count += s.count;
            e.bytes += s.bytes;
        }
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "messages: {}  bytes: {}", self.messages, self.bytes)?;
        for c in MsgClass::ALL {
            let s = self.class(c);
            if s.count > 0 {
                writeln!(f, "  {:<8} {:>8} msgs {:>12} bytes", c.label(), s.count, s.bytes)?;
            }
        }
        if self.multicasts > 0 {
            writeln!(
                f,
                "  multicasts: {} (saved {} sends)",
                self.multicasts, self.multicast_saved
            )?;
        }
        if self.dropped > 0 || self.retransmissions > 0 {
            writeln!(f, "  held: {}  retry instants: {}", self.dropped, self.retransmissions)?;
        }
        if self.gave_up > 0 {
            writeln!(f, "  gave up: {}", self.gave_up)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_by_class_and_kind() {
        let mut s = NetStats::new();
        s.record(MsgClass::Data, "ReadReply", 1024);
        s.record(MsgClass::Data, "ReadReply", 1024);
        s.record(MsgClass::Control, "ReadReq", 0);
        assert_eq!(s.messages, 3);
        assert_eq!(s.bytes, 2048);
        assert_eq!(s.class(MsgClass::Data).count, 2);
        assert_eq!(s.kind("ReadReply").bytes, 2048);
        assert_eq!(s.kind("ReadReq").count, 1);
        assert_eq!(s.kind("nonexistent").count, 0);
    }

    #[test]
    fn ack_exclusion() {
        let mut s = NetStats::new();
        s.record(MsgClass::Update, "Diff", 64);
        s.record(MsgClass::Ack, "DiffAck", 0);
        assert_eq!(s.messages, 2);
        assert_eq!(s.messages_excluding_acks(), 1);
    }

    #[test]
    fn multicast_savings() {
        let mut s = NetStats::new();
        s.record_multicast(8, 1);
        s.record_multicast(4, 4);
        assert_eq!(s.multicasts, 2);
        assert_eq!(s.multicast_saved, 7);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = NetStats::new();
        a.record(MsgClass::Data, "X", 10);
        a.record_hold(1, 0);
        let mut b = NetStats::new();
        b.record(MsgClass::Data, "X", 5);
        b.record(MsgClass::Sync, "LockReq", 0);
        b.record_hold(2, 1);
        b.record_gave_up();
        a.merge(&b);
        assert_eq!(a.messages, 3);
        assert_eq!(a.bytes, 15);
        assert_eq!(a.kind("X").count, 2);
        assert_eq!(a.class(MsgClass::Sync).count, 1);
        assert_eq!(a.dropped, 3);
        assert_eq!(a.retransmissions, 1);
        assert_eq!(a.gave_up, 1);
    }

    #[test]
    fn display_renders_nonempty_classes() {
        let mut s = NetStats::new();
        s.record(MsgClass::Sync, "LockGrant", 16);
        let out = s.to_string();
        assert!(out.contains("sync"));
        assert!(!out.contains("control"), "empty classes omitted: {out}");
    }
}
