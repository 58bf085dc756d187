//! Traffic accounting.
//!
//! Every experiment table of the paper's evaluation (pinned in
//! `tests/golden/repro_quick.txt`) is ultimately a readout of this
//! structure: messages and bytes, split by [`MsgClass`] and by fine-grained
//! message kind, plus multicast savings. A send path counts into a
//! [`NetTally`], which becomes a [`NetStats`] when a report takes it.

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

impl std::ops::AddAssign for KindStat {
    fn add_assign(&mut self, other: KindStat) {
        self.count += other.count;
        self.bytes += other.bytes;
    }
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

    /// Record a logical multicast of fanout `fanout` realized with
    /// `actual_sends` transmissions (each transmission is counted on its
    /// own, by [`NetTally::record`]).
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
            *self.by_class.entry(*c).or_default() += *s;
        }
        for (k, s) in &other.by_kind {
            *self.by_kind.entry(k.clone()).or_default() += *s;
        }
    }
}

/// [`NetStats`] as a send path keeps them. A message bumps one row of a
/// small table keyed by its kind and class, found by the kind's pointer
/// (a kind is one static string) and else by its name; [`NetTally::take`]
/// folds the rows into the stats. So a message costs no map walk and no
/// string allocation, and the stats read as if each message had been added
/// to them on its own.
#[derive(Debug, Default)]
pub struct NetTally {
    /// Everything but the per-message counts: multicasts, holds, give-ups.
    pub stats: NetStats,
    /// (kind, class, messages) per pair seen since the last take.
    rows: Vec<(&'static str, MsgClass, KindStat)>,
}

impl NetTally {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one wire transmission.
    #[inline]
    pub fn record(&mut self, class: MsgClass, kind: &'static str, bytes: usize) {
        let rows = &mut self.rows;
        let i = match rows
            .iter()
            .position(|r| std::ptr::eq(r.0, kind) && r.1 == class)
            .or_else(|| rows.iter().position(|r| r.0 == kind && r.1 == class))
        {
            Some(i) => i,
            None => {
                rows.push((kind, class, KindStat::default()));
                rows.len() - 1
            }
        };
        rows[i].2 += KindStat { count: 1, bytes: bytes as u64 };
    }

    /// The stats, every message recorded so far included; the tally starts
    /// over.
    pub fn take(&mut self) -> NetStats {
        let mut stats = std::mem::take(&mut self.stats);
        for (kind, class, stat) in self.rows.drain(..) {
            stats.messages += stat.count;
            stats.bytes += stat.bytes;
            *stats.by_class.entry(class).or_default() += stat;
            *stats.by_kind.entry(kind.to_owned()).or_default() += stat;
        }
        stats
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
    use proptest::prelude::*;

    /// Stats of the given transmissions, through a tally.
    fn tallied(msgs: &[(MsgClass, &'static str, usize)]) -> NetStats {
        let mut t = NetTally::new();
        for &(class, kind, bytes) in msgs {
            t.record(class, kind, bytes);
        }
        t.take()
    }

    #[test]
    fn record_accumulates_by_class_and_kind() {
        let s = tallied(&[
            (MsgClass::Data, "ReadReply", 1024),
            (MsgClass::Data, "ReadReply", 1024),
            (MsgClass::Control, "ReadReq", 0),
        ]);
        assert_eq!(s.messages, 3);
        assert_eq!(s.bytes, 2048);
        assert_eq!(s.class(MsgClass::Data).count, 2);
        assert_eq!(s.kind("ReadReply").bytes, 2048);
        assert_eq!(s.kind("ReadReq").count, 1);
        assert_eq!(s.kind("nonexistent").count, 0);
    }

    /// A kind name that is not the first row's pointer still finds its
    /// row, and a take starts the tally over but keeps nothing twice.
    #[test]
    fn a_copied_kind_name_shares_its_row_and_take_starts_over() {
        let copy: &'static str = String::from("ReadReply").leak();
        let mut t = NetTally::new();
        t.record(MsgClass::Data, "ReadReply", 8);
        t.record(MsgClass::Data, copy, 8);
        assert_eq!(t.rows.len(), 1, "one row for both spellings");
        t.stats.record_multicast(2, 2);
        let first = t.take();
        assert_eq!((first.messages, first.kind("ReadReply").count, first.multicasts), (2, 2, 1));
        t.record(MsgClass::Sync, "LockReq", 0);
        let second = t.take();
        assert_eq!((second.messages, second.multicasts), (1, 0));
        assert_eq!(second.kind("ReadReply").count, 0);
    }

    #[test]
    fn ack_exclusion() {
        let s = tallied(&[(MsgClass::Update, "Diff", 64), (MsgClass::Ack, "DiffAck", 0)]);
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
        let mut a = tallied(&[(MsgClass::Data, "X", 10)]);
        a.record_hold(1, 0);
        let mut b = tallied(&[(MsgClass::Data, "X", 5), (MsgClass::Sync, "LockReq", 0)]);
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
        let out = tallied(&[(MsgClass::Sync, "LockGrant", 16)]).to_string();
        assert!(out.contains("sync"));
        assert!(!out.contains("control"), "empty classes omitted: {out}");
    }

    /// Add one transmission straight to the stats' maps: what the tally's
    /// fold must agree with.
    fn add_one(s: &mut NetStats, class: MsgClass, kind: &str, bytes: usize) {
        let one = KindStat { count: 1, bytes: bytes as u64 };
        s.messages += 1;
        s.bytes += bytes as u64;
        *s.by_class.entry(class).or_default() += one;
        *s.by_kind.entry(kind.to_owned()).or_default() += one;
    }

    const KINDS: [&str; 6] = ["ReadReq", "ReadReply", "Diff", "DiffAck", "LockReq", "Inval"];

    proptest! {
        /// On random mixes of kinds and classes (a kind under several
        /// classes too), with takes in between, folding the tally gives
        /// the stats that per-message additions give.
        #[test]
        fn folding_the_tally_equals_per_message_records(
            msgs in prop::collection::vec((0..5usize, 0..KINDS.len(), 0..5000usize, any::<bool>()), 0..200),
        ) {
            let mut t = NetTally::new();
            let mut folded = NetStats::new();
            let mut direct = NetStats::new();
            for (class, kind, bytes, take) in msgs {
                let (class, kind) = (MsgClass::ALL[class], KINDS[kind]);
                t.record(class, kind, bytes);
                add_one(&mut direct, class, kind, bytes);
                if take {
                    folded.merge(&t.take());
                }
            }
            folded.merge(&t.take());
            prop_assert_eq!(folded, direct);
        }
    }
}
