//! Tests of the transport's per-pair FIFO delivery: a message that arrives
//! before its pair's latest delivery rides in that delivery's event, right
//! behind it, so each pair hands its messages over exactly once, in send
//! order, with no reorder buffer.

#[cfg(test)]
mod tests {
    use crate::event::EventQueue;
    use crate::transport::tests::{drain, ids, P};
    use crate::transport::{Transport, TransportConfig};
    use munin_net::{LinkFault, LinkSchedule, NetTally};
    use munin_types::{CostModel, NodeId, VirtualTime};

    #[test]
    fn in_order_stream_passes_through() {
        let cost = CostModel::ethernet_1990();
        let mut t = Transport::new(TransportConfig::lossless(cost.clone()));
        let (mut q, mut s) = (EventQueue::new(), NetTally::new());
        for i in 0..5 {
            t.send(
                VirtualTime::micros(i * 10),
                &mut q,
                &mut s,
                NodeId(0),
                NodeId(1),
                P(i as u32, 64),
            );
        }
        assert_eq!(q.len(), 5, "nothing rides: each message has its own event");
        let got = drain(&mut t, &mut q);
        assert_eq!(ids(&got), vec![0, 1, 2, 3, 4]);
        let latency = cost.msg_latency_us(64);
        for (i, &(at, event, ..)) in got.iter().enumerate() {
            assert_eq!((at, event), (i as u64 * 10 + latency, i), "message {i} at its own arrival");
        }
    }

    #[test]
    fn gap_holds_then_releases_in_order() {
        // 0 -> 1 is cut until 15 ms: "a", sent at 0, is held to the retry
        // instant at 20 ms. "b" and "c", sent after the heal, arrive first.
        let cost = CostModel::ethernet_1990();
        let cfg =
            TransportConfig::lossless(cost.clone()).with_link_faults(LinkSchedule::new(vec![
                LinkFault::partition(vec![NodeId(0)], 0, 15_000),
            ]));
        let mut t = Transport::new(cfg);
        let (mut q, mut s) = (EventQueue::new(), NetTally::new());
        let (a, b) = (NodeId(0), NodeId(1));
        t.send(VirtualTime::ZERO, &mut q, &mut s, a, b, P(0, 64));
        t.send(VirtualTime::micros(16_000), &mut q, &mut s, a, b, P(1, 64));
        t.send(VirtualTime::micros(17_000), &mut q, &mut s, a, b, P(2, 64));
        assert_eq!(q.len(), 1, "the early arrivals wait for the held message");
        assert_eq!((s.stats.dropped, s.stats.retransmissions), (2, 2));
        let got = drain(&mut t, &mut q);
        assert_eq!(ids(&got), vec![0, 1, 2]);
        let release = 20_000 + cost.msg_latency_us(64);
        assert!(got.iter().all(|g| (g.0, g.1) == (release, 0)), "released together: {got:?}");
    }

    /// Loss, jitter and size inversion over 64 seeds and the six pairs of 3
    /// nodes: every message is handed over exactly once, in its pair's send
    /// order, and handover instants never go back.
    #[test]
    fn delivers_exactly_once_in_order() {
        let (mut held, mut rode) = (0, 0);
        for seed in 0..64u64 {
            let drop_prob = [0.0, 0.2, 0.5][seed as usize % 3];
            let cfg = TransportConfig::lossy(CostModel::ethernet_1990(), drop_prob, seed)
                .with_jitter(seed % 4 * 2_000);
            let mut t = Transport::new(cfg);
            let (mut q, mut s) = (EventQueue::new(), NetTally::new());
            let mut pair_of = Vec::new();
            for i in 0..48u64 {
                let src = (i % 3) as u16;
                let dst = (src + 1 + (i / 3 % 2) as u16) % 3;
                let bytes = ((i * 7 + seed) % 5) as usize * 4096;
                pair_of.push((NodeId(src), NodeId(dst)));
                let now = VirtualTime::micros(i * 500);
                t.send(now, &mut q, &mut s, NodeId(src), NodeId(dst), P(i as u32, bytes));
            }
            let got = drain(&mut t, &mut q);
            assert_eq!(s.stats.gave_up, 0, "seed {seed}");
            let mut all = ids(&got);
            all.sort_unstable();
            assert_eq!(all, (0..48).collect::<Vec<u32>>(), "exactly once, seed {seed}");
            assert!(got.windows(2).all(|w| w[0].0 <= w[1].0), "instants go back, seed {seed}");
            for &pair in &pair_of {
                let handed: Vec<u32> = got
                    .iter()
                    .filter(|g| pair_of[g.3 .0 as usize] == pair)
                    .map(|g| g.3 .0)
                    .collect();
                assert!(
                    handed.windows(2).all(|w| w[0] < w[1]),
                    "{pair:?} out of order, seed {seed}"
                );
            }
            held += s.stats.dropped;
            rode += got.len() - (got.last().map_or(0, |g| g.1) + 1);
        }
        assert!(held > 0 && rode > 0, "loss held something and early arrivals rode");
    }
}
