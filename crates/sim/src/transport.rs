//! The simulated wire: per-pair FIFO, exactly-once delivery that a fault
//! can delay but never break.
//!
//! Plays the role of the V kernel's inter-node communication: the coherence
//! protocols above assume messages between a pair of nodes arrive in the
//! order sent, exactly once. Every transmission is one scheduled delivery.
//! A fault holds it for a whole number of retransmit timeouts (10 ms each)
//! instead of dropping it:
//! * loss holds it one timeout per lost attempt, the seeded `"loss"` stream
//!   rolling again at each retry instant;
//! * a link cut (a partition or isolation window) holds it until the first
//!   retry instant at which the link is whole again.
//!
//! A transmission still held after 40 timeouts is given up (counted in
//! `NetStats::gave_up` and reported as a run error), and so is every later
//! message of its pair.
//!
//! The wire may still reorder: a small control message overtakes a large
//! data transfer, and jitter or a hold delays one message past the next. A
//! message that arrives before the previous delivery on its pair is handed
//! over in that delivery's event, right behind it, so each pair delivers in
//! send order with no reorder buffer.

use crate::event::{EventKind, EventQueue};
use munin_net::{derive, LatencyModel, LinkSchedule, NetTally, PayloadInfo};
use munin_types::{CostModel, IdMap, NodeId, VirtualTime};
use std::collections::VecDeque;

/// Virtual µs between the retry instants of a held transmission.
const RETX_TIMEOUT_US: u64 = 10_000;
/// Retry instants a transmission may be held past before it is given up.
/// With the timeout this bounds virtual time under a permanent partition.
const MAX_RETX: u32 = 40;

/// Transport configuration.
///
/// All randomized behaviour (loss rolls, delivery jitter) derives from the
/// single `seed` via per-role substreams, so one u64 replays the whole run.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    pub cost: CostModel,
    /// Probability that any single transmission attempt is lost (and the
    /// transmission held until the next retry instant).
    pub drop_prob: f64,
    /// Seed for every deterministic random stream in this transport.
    pub seed: u64,
    /// Model the network as a shared half-duplex medium (messages queue
    /// behind each other on the wire).
    pub serialize_medium: bool,
    /// Per-message delivery jitter bound (virtual µs, 0 = none). Jitter lets
    /// small messages overtake large ones and vice versa on the wire.
    pub jitter_us: u64,
    /// Scheduled link faults (partitions, node isolation windows).
    pub link_faults: LinkSchedule,
}

impl TransportConfig {
    pub fn lossless(cost: CostModel) -> Self {
        TransportConfig {
            cost,
            drop_prob: 0.0,
            seed: 0,
            serialize_medium: false,
            jitter_us: 0,
            link_faults: LinkSchedule::default(),
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

/// One directed pair's messages in flight.
#[derive(Debug)]
struct Pair<P> {
    /// Scheduled and not yet handed over, in send order. `true` marks a
    /// message that rides in its predecessor's delivery event.
    queue: VecDeque<(bool, P)>,
    /// When the pair's latest delivery event fires.
    last: VirtualTime,
    /// A message of the pair was given up: nothing after it is delivered.
    gave_up: bool,
}

impl<P> Default for Pair<P> {
    fn default() -> Self {
        Pair { queue: VecDeque::new(), last: VirtualTime::ZERO, gave_up: false }
    }
}

/// The transport. Owned by the simulation kernel; all scheduling goes
/// through the kernel's event queue, passed in by the caller.
#[derive(Debug)]
pub struct Transport<P> {
    latency: LatencyModel,
    link_faults: LinkSchedule,
    /// Keyed by (src, dst).
    pairs: IdMap<(NodeId, NodeId), Pair<P>>,
}

impl<P: PayloadInfo + Clone> Transport<P> {
    pub fn new(cfg: TransportConfig) -> Self {
        let latency = LatencyModel::new(cfg.cost)
            .with_serialized_medium(cfg.serialize_medium)
            .with_jitter(cfg.jitter_us, derive(cfg.seed, "latency"))
            .with_loss(cfg.drop_prob, derive(cfg.seed, "loss"));
        Transport { latency, link_faults: cfg.link_faults, pairs: IdMap::default() }
    }

    pub fn cost(&self) -> &CostModel {
        self.latency.cost()
    }

    /// Send `payload` from `src` to `dst`.
    pub fn send(
        &mut self,
        now: VirtualTime,
        events: &mut EventQueue,
        tally: &mut NetTally,
        src: NodeId,
        dst: NodeId,
        payload: P,
    ) {
        self.transmit(now, events, tally, src, &[dst], payload);
    }

    /// Multicast `payload` from `src` to each node in `dsts`.
    ///
    /// With hardware multicast the wire carries one transmission (one stats
    /// record, one latency and one loss draw) to every destination; without
    /// it, each destination is a separate unicast.
    pub fn multicast(
        &mut self,
        now: VirtualTime,
        events: &mut EventQueue,
        tally: &mut NetTally,
        src: NodeId,
        dsts: &[NodeId],
        payload: P,
    ) {
        if dsts.is_empty() {
            return;
        }
        if self.cost().hardware_multicast {
            tally.stats.record_multicast(dsts.len(), 1);
            self.transmit(now, events, tally, src, dsts, payload);
        } else {
            tally.stats.record_multicast(dsts.len(), dsts.len());
            for &dst in dsts {
                self.transmit(now, events, tally, src, &[dst], payload.clone());
            }
        }
    }

    /// One wire transmission to every node in `dsts`: lost attempts hold
    /// every copy, a cut link holds its own copy further.
    fn transmit(
        &mut self,
        now: VirtualTime,
        events: &mut EventQueue,
        tally: &mut NetTally,
        src: NodeId,
        dsts: &[NodeId],
        payload: P,
    ) {
        tally.record(payload.class(), payload.kind(), payload.wire_bytes());
        let arrive = self.latency.delivery_time(now, payload.wire_bytes());
        let lost = self.latency.lost_attempts(MAX_RETX + 1);
        let mut held = lost;
        let mut copy = |t: &mut Self, dst: NodeId, payload: P| {
            let k = t.first_uncut(src, dst, now, lost);
            held = held.max(k);
            t.schedule(events, tally, src, dst, arrive, k, payload);
        };
        let (&last, rest) = dsts.split_last().expect("a transmission has a destination");
        for &dst in rest {
            copy(self, dst, payload.clone());
        }
        copy(self, last, payload);
        if held > 0 {
            tally.stats.record_hold(u64::from(held), u64::from(held.min(MAX_RETX)));
        }
    }

    /// The first retry instant from `from` on at which `src → dst` is not
    /// cut (`MAX_RETX + 1` if there is none).
    fn first_uncut(&self, src: NodeId, dst: NodeId, now: VirtualTime, from: u32) -> u32 {
        (from..=MAX_RETX)
            .find(|&k| {
                !self.link_faults.cut(src, dst, now.as_micros() + u64::from(k) * RETX_TIMEOUT_US)
            })
            .unwrap_or(MAX_RETX + 1)
    }

    /// Schedule one copy arriving `held` timeouts after `arrive`, unless it
    /// or an earlier message of its pair is given up.
    fn schedule(
        &mut self,
        events: &mut EventQueue,
        tally: &mut NetTally,
        src: NodeId,
        dst: NodeId,
        arrive: VirtualTime,
        held: u32,
        payload: P,
    ) {
        let pair = self.pairs.entry((src, dst)).or_default();
        if held > MAX_RETX || pair.gave_up {
            pair.gave_up = true;
            tally.stats.record_gave_up();
            return;
        }
        let at = arrive + u64::from(held) * RETX_TIMEOUT_US;
        let rides = at < pair.last;
        if !rides {
            pair.last = at;
            events.push(at, EventKind::Deliver { src, dst });
        }
        pair.queue.push_back((rides, payload));
    }

    /// The next message a `Deliver` event of `src → dst` hands over: the
    /// one it was scheduled for (`first`), then each one riding behind it.
    pub fn receive(&mut self, src: NodeId, dst: NodeId, first: bool) -> Option<P> {
        let queue = &mut self.pairs.get_mut(&(src, dst))?.queue;
        match queue.front() {
            Some(&(rides, _)) if first || rides => {
                debug_assert!(!(first && rides), "a delivery event leads with its own message");
                queue.pop_front().map(|(_, p)| p)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::event::Event;
    use munin_net::{LinkFault, MsgClass, NetStats};

    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct P(pub u32, pub usize); // id, bytes

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

    /// Drive the transport + queue to completion: every message handed
    /// over, with the instant and the index of the event that carried it.
    pub(crate) fn drain(t: &mut Transport<P>, q: &mut EventQueue) -> Vec<(u64, usize, NodeId, P)> {
        let mut out = Vec::new();
        let mut event = 0;
        while let Some(Event { at, kind, .. }) = q.pop() {
            let EventKind::Deliver { src, dst } = kind else { unreachable!() };
            let mut first = true;
            while let Some(p) = t.receive(src, dst, first) {
                first = false;
                out.push((at.as_micros(), event, dst, p));
            }
            assert!(!first, "every delivery event hands over its own message");
            event += 1;
        }
        out
    }

    pub(crate) fn ids(got: &[(u64, usize, NodeId, P)]) -> Vec<u32> {
        got.iter().map(|(.., p)| p.0).collect()
    }

    fn run_lossy(seed: u64) -> (Vec<(u64, usize, NodeId, P)>, NetStats) {
        let mut t = Transport::new(TransportConfig::lossy(CostModel::ethernet_1990(), 0.4, seed));
        let (mut q, mut s) = (EventQueue::new(), NetTally::new());
        for i in 0..20 {
            t.send(
                VirtualTime::micros(i * 10),
                &mut q,
                &mut s,
                NodeId(0),
                NodeId(1),
                P(i as u32, 128),
            );
        }
        (drain(&mut t, &mut q), s.take())
    }

    fn multicast(hw: bool, dsts: &[NodeId]) -> (Vec<(u64, usize, NodeId, P)>, NetStats) {
        let mut cost = CostModel::ethernet_1990();
        cost.hardware_multicast = hw;
        let mut t = Transport::new(TransportConfig::lossless(cost));
        let (mut q, mut s) = (EventQueue::new(), NetTally::new());
        t.multicast(VirtualTime::ZERO, &mut q, &mut s, NodeId(0), dsts, P(0, 1024));
        (drain(&mut t, &mut q), s.take())
    }

    #[test]
    fn lossless_unicast_delivers_fifo_despite_size_inversion() {
        let mut t = Transport::new(TransportConfig::lossless(CostModel::ethernet_1990()));
        let (mut q, mut s) = (EventQueue::new(), NetTally::new());
        let (a, b) = (NodeId(0), NodeId(1));
        // Big message first (slow), tiny message second (fast): the wire
        // would invert them; the pair must not.
        t.send(VirtualTime::ZERO, &mut q, &mut s, a, b, P(1, 64 * 1024));
        t.send(VirtualTime::ZERO, &mut q, &mut s, a, b, P(2, 0));
        assert_eq!(q.len(), 1, "the small message rides in the big one's event");
        let got = drain(&mut t, &mut q);
        assert_eq!(ids(&got), vec![1, 2]);
        assert_eq!(got[0].0, got[1].0, "handed over at the big message's arrival");
        let s = s.take();
        assert_eq!(s.messages, 2);
        assert_eq!((s.dropped, s.retransmissions), (0, 0));
    }

    #[test]
    fn lossy_transport_recovers_and_dedups() {
        let (got, s) = run_lossy(99);
        assert_eq!(ids(&got), (0..20).collect::<Vec<_>>(), "exactly once, in order");
        assert_eq!(s.messages, 20, "a held transmission is one message");
        assert!(s.dropped > 0, "loss held something");
        assert!(s.retransmissions > 0 && s.retransmissions <= s.dropped);
        assert_eq!(s.gave_up, 0);
    }

    #[test]
    fn lossy_is_deterministic() {
        assert_eq!(run_lossy(7), run_lossy(7), "same seed, same run");
        assert_ne!(run_lossy(7).1, run_lossy(8).1, "different seed, different holds");
    }

    #[test]
    fn software_multicast_counts_per_destination() {
        let dsts = [NodeId(1), NodeId(2), NodeId(3)];
        let (got, s) = multicast(false, &dsts);
        assert_eq!((s.messages, s.multicast_saved), (3, 0));
        assert_eq!(got.iter().map(|g| g.2).collect::<Vec<_>>(), dsts);
    }

    #[test]
    fn hardware_multicast_is_one_transmission() {
        let dsts = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        let (got, s) = multicast(true, &dsts);
        assert_eq!((s.messages, s.multicast_saved), (1, 3), "one wire transmission");
        assert_eq!(got.iter().map(|g| g.2).collect::<Vec<_>>(), dsts, "but all four receive it");
        assert!(got.iter().all(|g| g.0 == got[0].0), "at the same instant");
    }

    #[test]
    fn jitter_reorders_the_wire_but_delivery_stays_fifo() {
        let cfg = TransportConfig::lossless(CostModel::ethernet_1990()).with_jitter(50_000);
        let mut t = Transport::new(cfg);
        let (mut q, mut s) = (EventQueue::new(), NetTally::new());
        for i in 0..32 {
            t.send(
                VirtualTime::micros(i * 10),
                &mut q,
                &mut s,
                NodeId(0),
                NodeId(1),
                P(i as u32, 16),
            );
        }
        assert!(q.len() < 32, "jitter reordered the wire");
        let got = drain(&mut t, &mut q);
        assert_eq!(ids(&got), (0..32).collect::<Vec<_>>());
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0), "handover instants never go back");
    }

    #[test]
    fn healed_partition_is_recovered_by_retransmission() {
        let cfg = TransportConfig::lossless(CostModel::ethernet_1990()).with_link_faults(
            LinkSchedule::new(vec![LinkFault::partition(vec![NodeId(0)], 0, 60_000)]),
        );
        let mut t = Transport::new(cfg);
        let (mut q, mut s) = (EventQueue::new(), NetTally::new());
        t.send(VirtualTime::ZERO, &mut q, &mut s, NodeId(0), NodeId(1), P(7, 64));
        let got = drain(&mut t, &mut q);
        let latency = CostModel::ethernet_1990().msg_latency_us(64);
        assert_eq!(got, vec![(60_000 + latency, 0, NodeId(1), P(7, 64))], "held until the heal");
        assert_eq!((s.stats.dropped, s.stats.retransmissions, s.stats.gave_up), (6, 6, 0));
    }

    #[test]
    fn permanent_isolation_gives_up_and_terminates() {
        let cfg = TransportConfig::lossless(CostModel::ethernet_1990())
            .with_link_faults(LinkSchedule::new(vec![LinkFault::isolate(NodeId(1), 0, u64::MAX)]));
        let mut t = Transport::new(cfg);
        let (mut q, mut s) = (EventQueue::new(), NetTally::new());
        t.send(VirtualTime::ZERO, &mut q, &mut s, NodeId(0), NodeId(1), P(1, 64));
        assert!(q.is_empty(), "nothing crosses a permanent isolation");
        assert_eq!((s.stats.gave_up, s.stats.retransmissions, s.stats.dropped), (1, 40, 41));
    }

    #[test]
    fn a_pair_that_gave_up_delivers_nothing_more() {
        // The isolation outlasts the 40 retries of a message sent at 0, then
        // heals: a later message would cross on its own, but not behind the gap.
        let cfg = TransportConfig::lossless(CostModel::ethernet_1990())
            .with_link_faults(LinkSchedule::new(vec![LinkFault::isolate(NodeId(1), 0, 400_001)]));
        let mut t = Transport::new(cfg);
        let (mut q, mut s) = (EventQueue::new(), NetTally::new());
        let later = VirtualTime::micros(500_000);
        t.send(VirtualTime::ZERO, &mut q, &mut s, NodeId(0), NodeId(1), P(1, 64));
        t.send(later, &mut q, &mut s, NodeId(0), NodeId(1), P(2, 64));
        t.send(later, &mut q, &mut s, NodeId(1), NodeId(0), P(3, 64));
        let got = drain(&mut t, &mut q);
        assert_eq!(ids(&got), vec![3], "only the pair that never gave up delivers");
        assert_eq!(s.stats.gave_up, 2);
    }

    #[test]
    fn empty_multicast_is_free() {
        let (got, s) = multicast(true, &[]);
        assert!(got.is_empty());
        assert_eq!((s.messages, s.multicasts), (0, 0));
    }
}
