//! The reliable, FIFO, loss-injectable transport.
//!
//! Plays the role of the V kernel's inter-node communication: the coherence
//! protocols above assume messages between a pair of nodes arrive in the
//! order sent, exactly once. The wire itself may reorder (a small control
//! message overtakes a large data transfer) and — when loss injection is
//! enabled — drop messages; this layer restores FIFO-exactly-once with
//! per-pair sequence numbers, a receiver-side [`ReorderBuffer`], cumulative
//! acknowledgements, and go-back-N retransmission.
//!
//! With loss disabled (the default for protocol experiments) no acks or
//! retransmission state exist, so the traffic tables contain protocol
//! messages only.

use crate::event::{EventKind, EventQueue};
use munin_net::{
    derive, LatencyModel, LinkSchedule, LossModel, MsgClass, NetStats, PayloadInfo, ReorderBuffer,
};
use munin_types::{CostModel, IdMap, NodeId, VirtualTime};
use std::collections::BTreeMap;

/// Transport configuration.
///
/// All randomized behaviour (loss rolls, delivery jitter) derives from the
/// single `seed` via per-role substreams, so one u64 replays the whole run.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    pub cost: CostModel,
    /// Probability that any single wire transmission is dropped.
    pub drop_prob: f64,
    /// Seed for every deterministic random stream in this transport.
    pub seed: u64,
    /// Retransmission timeout (virtual µs). Only relevant when reliable.
    pub retx_timeout_us: u64,
    /// Model the network as a shared half-duplex medium (messages queue
    /// behind each other on the wire).
    pub serialize_medium: bool,
    /// Per-message delivery jitter bound (virtual µs, 0 = none). Jitter lets
    /// small messages overtake large ones and vice versa, exercising the
    /// receiver-side reorder buffer.
    pub jitter_us: u64,
    /// Scheduled link faults (partitions, node isolation windows).
    pub link_faults: LinkSchedule,
    /// Retransmission attempts per message before the transport gives up
    /// (counted in `NetStats::gave_up` and surfaced as a run error). Bounds
    /// virtual time under permanent partitions.
    pub max_retx: u32,
}

impl TransportConfig {
    pub fn lossless(cost: CostModel) -> Self {
        TransportConfig {
            cost,
            drop_prob: 0.0,
            seed: 0,
            retx_timeout_us: 10_000,
            serialize_medium: false,
            jitter_us: 0,
            link_faults: LinkSchedule::default(),
            max_retx: 40,
        }
    }

    pub fn lossy(cost: CostModel, drop_prob: f64, seed: u64) -> Self {
        let mut cfg = TransportConfig::lossless(cost);
        cfg.drop_prob = drop_prob;
        cfg.seed = seed;
        cfg
    }

    pub fn with_jitter(mut self, jitter_us: u64) -> Self {
        self.jitter_us = jitter_us;
        self
    }

    pub fn with_link_faults(mut self, faults: LinkSchedule) -> Self {
        self.link_faults = faults;
        self
    }
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig::lossless(CostModel::default())
    }
}

/// What actually travels on the wire: an application (protocol) payload, or
/// a transport-level cumulative ack.
#[derive(Debug, Clone)]
pub enum Wire<P> {
    App(P),
    /// Cumulative ack: "I have delivered every seq below `upto`".
    Ack {
        upto: u64,
    },
}

/// A buffered unacked message awaiting possible retransmission.
#[derive(Debug, Clone)]
struct Unacked<P> {
    payload: P,
    /// Retransmissions already attempted for this message.
    retries: u32,
}

#[derive(Debug)]
struct PairState<P> {
    /// Next sequence number to assign for sends on this (src → dst) pair.
    next_seq: u64,
    /// Receiver side: reorder/dedup buffer (keyed on the reverse pair at the
    /// destination's entry).
    reorder: ReorderBuffer<P>,
    /// Sender side: messages not yet cumulatively acked (only with loss).
    unacked: BTreeMap<u64, Unacked<P>>,
    /// Is a retransmission timer outstanding for this pair?
    retx_armed: bool,
}

impl<P> Default for PairState<P> {
    fn default() -> Self {
        PairState {
            next_seq: 0,
            reorder: ReorderBuffer::new(),
            unacked: BTreeMap::new(),
            retx_armed: false,
        }
    }
}

/// The transport. Owned by the simulation kernel; all scheduling goes
/// through the kernel's event queue, passed in by the caller.
#[derive(Debug)]
pub struct Transport<P> {
    cfg: TransportConfig,
    latency: LatencyModel,
    loss: LossModel,
    /// Keyed by (src, dst): state for the directed pair. The entry at key
    /// (a, b) holds a's sender state towards b *and* b's receiver state from
    /// a (they are the two ends of the same directed channel).
    pairs: IdMap<(NodeId, NodeId), PairState<P>>,
    reliable: bool,
}

impl<P: PayloadInfo + Clone> Transport<P> {
    pub fn new(cfg: TransportConfig) -> Self {
        let latency = LatencyModel::new(cfg.cost.clone())
            .with_serialized_medium(cfg.serialize_medium)
            .with_jitter(cfg.jitter_us, derive(cfg.seed, "latency"));
        let loss = LossModel::new(cfg.drop_prob, derive(cfg.seed, "loss"));
        // Link faults silently eat transmissions, so they need the same
        // ack/retransmission machinery that recovers injected loss.
        let reliable = cfg.drop_prob > 0.0 || !cfg.link_faults.is_empty();
        Transport { cfg, latency, loss, pairs: IdMap::default(), reliable }
    }

    pub fn cost(&self) -> &CostModel {
        self.latency.cost()
    }

    fn pair(&mut self, src: NodeId, dst: NodeId) -> &mut PairState<P> {
        self.pairs.entry((src, dst)).or_default()
    }

    /// Send `payload` from `src` to `dst`. Accounts the transmission,
    /// applies loss, schedules delivery, and (with loss enabled) buffers for
    /// retransmission.
    pub fn send(
        &mut self,
        now: VirtualTime,
        events: &mut EventQueue<Wire<P>>,
        stats: &mut NetStats,
        src: NodeId,
        dst: NodeId,
        payload: P,
    ) {
        let seq = {
            let pair = self.pair(src, dst);
            let s = pair.next_seq;
            pair.next_seq += 1;
            s
        };
        self.transmit(now, events, stats, src, dst, seq, payload, false);
    }

    /// Multicast `payload` from `src` to each node in `dsts`.
    ///
    /// With hardware multicast the wire carries one transmission (one stats
    /// record, one loss roll); without it, each destination is a separate
    /// unicast. Per-destination sequence numbers are consumed either way so
    /// FIFO per pair is preserved.
    pub fn multicast(
        &mut self,
        now: VirtualTime,
        events: &mut EventQueue<Wire<P>>,
        stats: &mut NetStats,
        src: NodeId,
        dsts: &[NodeId],
        payload: P,
    ) {
        if dsts.is_empty() {
            return;
        }
        let hw = self.cost().hardware_multicast && !self.reliable;
        let actual = if hw { 1 } else { dsts.len() };
        stats.record_multicast(dsts.len(), actual);
        if hw {
            // One transmission: one stats record, one loss roll, delivered to
            // every destination at the same instant.
            stats.record(payload.class(), payload.kind(), payload.wire_bytes());
            let arrive = self.latency.delivery_time(now, payload.wire_bytes());
            for &dst in dsts {
                let seq = {
                    let pair = self.pair(src, dst);
                    let s = pair.next_seq;
                    pair.next_seq += 1;
                    s
                };
                events.push(
                    arrive,
                    EventKind::Deliver { src, dst, seq, wire: Wire::App(payload.clone()) },
                );
            }
        } else {
            for &dst in dsts {
                self.send(now, events, stats, src, dst, payload.clone());
            }
        }
    }

    /// One wire transmission (fresh send or retransmission).
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &mut self,
        now: VirtualTime,
        events: &mut EventQueue<Wire<P>>,
        stats: &mut NetStats,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        payload: P,
        is_retx: bool,
    ) {
        stats.record(payload.class(), payload.kind(), payload.wire_bytes());
        if is_retx {
            stats.record_retransmission();
        }
        if self.reliable {
            let pair = self.pair(src, dst);
            pair.unacked.entry(seq).or_insert(Unacked { payload: payload.clone(), retries: 0 });
            if !pair.retx_armed {
                pair.retx_armed = true;
                events.push(now + self.cfg.retx_timeout_us, EventKind::RetxTimer { src, dst });
            }
        }
        if self.cfg.link_faults.cut(src, dst, now.as_micros()) {
            stats.record_drop();
            return; // Severed link: retransmission carries it across a heal.
        }
        if self.loss.should_drop() {
            stats.record_drop();
            return; // The retransmission timer will recover it (if reliable).
        }
        let arrive = self.latency.delivery_time(now, payload.wire_bytes());
        events.push(arrive, EventKind::Deliver { src, dst, seq, wire: Wire::App(payload) });
    }

    /// Handle an arrival at `dst`. Returns the app payloads now deliverable
    /// to the server, in FIFO order. May schedule ack transmissions.
    pub fn receive(
        &mut self,
        now: VirtualTime,
        events: &mut EventQueue<Wire<P>>,
        stats: &mut NetStats,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        wire: Wire<P>,
    ) -> Vec<P> {
        match wire {
            Wire::Ack { upto } => {
                // Ack travels dst-ward on the reverse pair; clear the sender
                // state for (dst, src)... careful: an ack arriving *at* `dst`
                // acknowledges messages `dst` sent to `src`.
                let pair = self.pair(dst, src);
                pair.unacked = pair.unacked.split_off(&upto);
                Vec::new()
            }
            Wire::App(payload) => {
                let released = {
                    let pair = self.pair(src, dst);
                    pair.reorder.offer(seq, payload)
                };
                if self.reliable {
                    // Cumulative ack back to the sender. Acks are themselves
                    // lossy but never retransmitted; later acks supersede.
                    let upto = self.pair(src, dst).reorder.expected();
                    stats.record(MsgClass::Ack, "NetAck", 0);
                    if self.cfg.link_faults.cut(dst, src, now.as_micros()) {
                        stats.record_drop();
                        return released;
                    }
                    if !self.loss.should_drop() {
                        let arrive = self.latency.delivery_time(now, 0);
                        events.push(
                            arrive,
                            EventKind::Deliver {
                                src: dst,
                                dst: src,
                                seq: 0,
                                wire: Wire::Ack { upto },
                            },
                        );
                    } else {
                        stats.record_drop();
                    }
                }
                released
            }
        }
    }

    /// Retransmission timer for pair (src → dst) fired.
    pub fn on_retx_timer(
        &mut self,
        now: VirtualTime,
        events: &mut EventQueue<Wire<P>>,
        stats: &mut NetStats,
        src: NodeId,
        dst: NodeId,
    ) {
        let max_retx = self.cfg.max_retx;
        let outstanding: Vec<(u64, P)> = {
            let pair = self.pair(src, dst);
            pair.retx_armed = false;
            let exhausted: Vec<u64> = pair
                .unacked
                .iter_mut()
                .filter_map(|(s, u)| {
                    u.retries += 1;
                    (u.retries > max_retx).then_some(*s)
                })
                .collect();
            for s in exhausted {
                // Retry budget exhausted (the link fault outlasted it): stop
                // retransmitting and let the run report the abandonment.
                pair.unacked.remove(&s);
                stats.record_gave_up();
            }
            pair.unacked.iter().map(|(s, u)| (*s, u.payload.clone())).collect()
        };
        if outstanding.is_empty() {
            return;
        }
        for (seq, payload) in outstanding {
            self.transmit(now, events, stats, src, dst, seq, payload, true);
        }
    }

    /// Messages buffered but not yet acknowledged (diagnostics / tests).
    pub fn total_unacked(&self) -> usize {
        self.pairs.values().map(|p| p.unacked.len()).sum()
    }

    /// Duplicate deliveries suppressed by the reorder buffers.
    pub fn total_duplicates(&self) -> u64 {
        self.pairs.values().map(|p| p.reorder.duplicates()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};

    #[derive(Debug, Clone, PartialEq)]
    struct P(u32, usize); // id, bytes

    impl PayloadInfo for P {
        fn class(&self) -> MsgClass {
            MsgClass::Data
        }
        fn kind(&self) -> &'static str {
            "P"
        }
        fn wire_bytes(&self) -> usize {
            self.1
        }
    }

    /// Drive the transport + queue to completion, returning delivered
    /// payloads at each node in order.
    fn drain(
        t: &mut Transport<P>,
        q: &mut EventQueue<Wire<P>>,
        stats: &mut NetStats,
    ) -> Vec<(NodeId, P)> {
        let mut out = Vec::new();
        while let Some(Event { at, kind, .. }) = q.pop() {
            match kind {
                EventKind::Deliver { src, dst, seq, wire } => {
                    for p in t.receive(at, q, stats, src, dst, seq, wire) {
                        out.push((dst, p));
                    }
                }
                EventKind::RetxTimer { src, dst } => t.on_retx_timer(at, q, stats, src, dst),
                _ => unreachable!(),
            }
        }
        out
    }

    #[test]
    fn lossless_unicast_delivers_fifo_despite_size_inversion() {
        let mut t = Transport::new(TransportConfig::lossless(CostModel::ethernet_1990()));
        let mut q = EventQueue::new();
        let mut s = NetStats::new();
        let (a, b) = (NodeId(0), NodeId(1));
        // Big message first (slow), tiny message second (fast): the wire
        // would invert them; FIFO sequencing must not.
        t.send(VirtualTime::ZERO, &mut q, &mut s, a, b, P(1, 64 * 1024));
        t.send(VirtualTime::ZERO, &mut q, &mut s, a, b, P(2, 0));
        let got = drain(&mut t, &mut q, &mut s);
        assert_eq!(got, vec![(b, P(1, 64 * 1024)), (b, P(2, 0))]);
        assert_eq!(s.messages, 2);
        assert_eq!(s.class(MsgClass::Ack).count, 0, "no acks when lossless");
    }

    #[test]
    fn lossy_transport_recovers_and_dedups() {
        let cfg = TransportConfig::lossy(CostModel::ethernet_1990(), 0.4, 99);
        let mut t = Transport::new(cfg);
        let mut q = EventQueue::new();
        let mut s = NetStats::new();
        let (a, b) = (NodeId(0), NodeId(1));
        for i in 0..20 {
            t.send(VirtualTime::micros(i * 10), &mut q, &mut s, a, b, P(i as u32, 128));
        }
        let got = drain(&mut t, &mut q, &mut s);
        let ids: Vec<u32> = got.iter().map(|(_, p)| p.0).collect();
        assert_eq!(ids, (0..20).collect::<Vec<_>>(), "exactly once, in order");
        assert!(s.dropped > 0, "loss model dropped something");
        assert!(s.retransmissions > 0, "retransmission recovered the drops");
        assert_eq!(t.total_unacked(), 0, "everything eventually acked");
    }

    #[test]
    fn lossy_is_deterministic() {
        let run = || {
            let cfg = TransportConfig::lossy(CostModel::ethernet_1990(), 0.3, 7);
            let mut t = Transport::new(cfg);
            let mut q = EventQueue::new();
            let mut s = NetStats::new();
            for i in 0..30 {
                t.send(
                    VirtualTime::micros(i * 5),
                    &mut q,
                    &mut s,
                    NodeId(0),
                    NodeId(1),
                    P(i as u32, 16),
                );
            }
            drain(&mut t, &mut q, &mut s);
            (s.messages, s.dropped, s.retransmissions)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn software_multicast_counts_per_destination() {
        let mut cost = CostModel::ethernet_1990();
        cost.hardware_multicast = false;
        let mut t = Transport::new(TransportConfig::lossless(cost));
        let mut q = EventQueue::new();
        let mut s = NetStats::new();
        let dsts = [NodeId(1), NodeId(2), NodeId(3)];
        t.multicast(VirtualTime::ZERO, &mut q, &mut s, NodeId(0), &dsts, P(0, 1024));
        assert_eq!(s.messages, 3);
        assert_eq!(s.multicast_saved, 0);
        let got = drain(&mut t, &mut q, &mut s);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn hardware_multicast_is_one_transmission() {
        let mut cost = CostModel::ethernet_1990();
        cost.hardware_multicast = true;
        let mut t = Transport::new(TransportConfig::lossless(cost));
        let mut q = EventQueue::new();
        let mut s = NetStats::new();
        let dsts = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        t.multicast(VirtualTime::ZERO, &mut q, &mut s, NodeId(0), &dsts, P(0, 1024));
        assert_eq!(s.messages, 1, "one wire transmission");
        assert_eq!(s.multicast_saved, 3);
        let got = drain(&mut t, &mut q, &mut s);
        assert_eq!(got.len(), 4, "but all four destinations receive it");
    }

    #[test]
    fn jitter_reorders_the_wire_but_delivery_stays_fifo() {
        let cfg = TransportConfig::lossless(CostModel::ethernet_1990()).with_jitter(50_000);
        let mut t = Transport::new(cfg);
        let mut q = EventQueue::new();
        let mut s = NetStats::new();
        let (a, b) = (NodeId(0), NodeId(1));
        for i in 0..32 {
            t.send(VirtualTime::micros(i * 10), &mut q, &mut s, a, b, P(i as u32, 16));
        }
        let got = drain(&mut t, &mut q, &mut s);
        let ids: Vec<u32> = got.iter().map(|(_, p)| p.0).collect();
        assert_eq!(ids, (0..32).collect::<Vec<_>>(), "reorder buffer restores FIFO");
        assert!(t.total_duplicates() == 0);
    }

    #[test]
    fn healed_partition_is_recovered_by_retransmission() {
        use munin_net::{LinkFault, LinkSchedule};
        let cfg = TransportConfig::lossless(CostModel::ethernet_1990()).with_link_faults(
            LinkSchedule::new(vec![LinkFault::partition(vec![NodeId(0)], 0, 60_000)]),
        );
        let mut t = Transport::new(cfg);
        let mut q = EventQueue::new();
        let mut s = NetStats::new();
        t.send(VirtualTime::ZERO, &mut q, &mut s, NodeId(0), NodeId(1), P(7, 64));
        let got = drain(&mut t, &mut q, &mut s);
        assert_eq!(got, vec![(NodeId(1), P(7, 64))], "delivered after the heal");
        assert!(s.dropped > 0, "the partition ate the first transmission");
        assert!(s.retransmissions > 0);
        assert_eq!(s.gave_up, 0);
        assert_eq!(t.total_unacked(), 0);
    }

    #[test]
    fn permanent_isolation_gives_up_and_terminates() {
        use munin_net::{LinkFault, LinkSchedule};
        let cfg = TransportConfig::lossless(CostModel::ethernet_1990())
            .with_link_faults(LinkSchedule::new(vec![LinkFault::isolate(NodeId(1), 0, u64::MAX)]));
        let mut t = Transport::new(cfg);
        let mut q = EventQueue::new();
        let mut s = NetStats::new();
        t.send(VirtualTime::ZERO, &mut q, &mut s, NodeId(0), NodeId(1), P(1, 64));
        let got = drain(&mut t, &mut q, &mut s);
        assert!(got.is_empty(), "nothing crosses a permanent isolation");
        assert_eq!(s.gave_up, 1, "bounded retries abandon the message");
        assert_eq!(s.retransmissions as u32, t.cfg.max_retx);
        assert_eq!(t.total_unacked(), 0, "abandoned entries are dropped");
    }

    #[test]
    fn empty_multicast_is_free() {
        let mut t = Transport::new(TransportConfig::default());
        let mut q = EventQueue::new();
        let mut s = NetStats::new();
        t.multicast(VirtualTime::ZERO, &mut q, &mut s, NodeId(0), &[], P(0, 8));
        assert_eq!(s.messages, 0);
        assert_eq!(s.multicasts, 0);
    }
}
