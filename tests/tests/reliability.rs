//! Failure injection: the coherence protocols must survive message loss.
//! The simulator's transport never drops a message: a lost attempt holds
//! it until a retry instant gets through (the V kernel's reliable
//! request/response role), so loss only delays delivery, and each pair
//! still delivers exactly once, in send order.

use munin_api::{Backend, Par, ParTyped, ProgramBuilder};
use munin_apps::{life, matmul};
use munin_net::{derive, LatencyModel, MsgClass, NetTally, PayloadInfo, SeedGuard};
use munin_sim::event::{EventKind, EventQueue};
use munin_sim::transport::Transport;
use munin_sim::TransportConfig;
use munin_types::{CostModel, MuninConfig, NodeId, SharingType, VirtualTime};
use proptest::prelude::*;
use std::collections::HashMap;

fn lossy(drop_prob: f64, seed: u64) -> TransportConfig {
    TransportConfig::lossy(MuninConfig::default().cost, drop_prob, seed)
}

#[test]
fn matmul_survives_10pct_loss() {
    let _guard = SeedGuard::new("matmul under 10% loss", 42);
    let cfg = matmul::MatmulCfg { n: 16, nodes: 3, seed: 4 };
    let want = matmul::reference(&cfg);
    let (p, out) = matmul::build(&cfg);
    let o = p.run_with(Backend::sim(MuninConfig::default()), lossy(0.10, 42), None);
    o.assert_clean();
    matmul::check(&out, &want);
    let r = o.report();
    assert!(r.stats.dropped > 0, "loss injection must actually hold something");
    assert!(r.stats.retransmissions > 0, "held messages cross at a later retry instant");
    assert_eq!(r.stats.gave_up, 0);
}

#[test]
fn life_survives_loss_with_eager_pushes() {
    // Eager pushes are fire-and-forget at the protocol level; the transport
    // must still deliver them exactly once, in order.
    let _guard = SeedGuard::new("life under 15% loss", 7);
    let cfg = life::LifeCfg { width: 24, height: 24, generations: 4, nodes: 3, seed: 9 };
    let want = life::reference(&cfg);
    let (p, out) = life::build(&cfg);
    let o = p.run_with(Backend::sim(MuninConfig::default()), lossy(0.15, 7), None);
    o.assert_clean();
    life::check(&out, &want);
    assert!(o.report().stats.dropped > 0);
}

#[test]
fn locks_remain_exclusive_under_loss() {
    let _guard = SeedGuard::new("lock exclusion under 20% loss", 99);
    let nodes = 3;
    let mut p = ProgramBuilder::new(nodes);
    let l = p.lock(0);
    let ctr = p.scalar_decl::<i64>(
        munin_types::ObjectDecl::template("ctr", SharingType::Migratory).with_lock(l),
        0,
    );
    let bar = p.barrier(0, nodes as u32);
    for t in 0..nodes {
        p.thread(t, move |par: &mut dyn Par| {
            for _ in 0..5 {
                par.lock(l);
                let v = par.load(&ctr);
                par.store(&ctr, v + 1);
                par.unlock(l);
            }
            par.barrier(bar);
            if par.self_id() == 0 {
                par.lock(l);
                assert_eq!(par.load(&ctr), 15);
                par.unlock(l);
            }
        });
    }
    let o = p.run_with(Backend::sim(MuninConfig::default()), lossy(0.2, 99), None);
    o.assert_clean();
    assert!(o.report().stats.retransmissions > 0);
}

#[test]
fn loss_runs_are_deterministic_given_seed() {
    let run = |seed: u64| {
        let _guard = SeedGuard::new("matmul determinism probe", seed);
        let cfg = matmul::MatmulCfg { n: 16, nodes: 3, seed: 4 };
        let (p, _out) = matmul::build(&cfg);
        let o = p.run_with(Backend::sim(MuninConfig::default()), lossy(0.1, seed), None);
        o.assert_clean();
        let r = o.report();
        (r.stats.messages, r.stats.dropped, r.stats.retransmissions, r.finished_at)
    };
    assert_eq!(run(5), run(5), "same seed, same run");
    assert_ne!(run(5), run(6), "different loss pattern, different run");
}

/// Message `i` of a generated schedule, `bytes` long on the wire.
#[derive(Debug, Clone)]
struct Msg(usize, usize);

impl PayloadInfo for Msg {
    fn class(&self) -> MsgClass {
        MsgClass::Data
    }
    fn kind(&self) -> &'static str {
        "Msg"
    }
    fn wire_bytes(&self) -> usize {
        self.1
    }
}

proptest! {
    /// Whatever the sizes, send instants and jitter, each pair of 3 nodes
    /// delivers in send order. A message is handed over at the later of its
    /// own arrival and its predecessors', in its predecessor's event exactly
    /// when it arrived earlier than that.
    #[test]
    fn every_pair_delivers_in_send_order_at_its_release_instant(
        sends in proptest::collection::vec((0u16..3, 1u16..3, 0u64..20, 0usize..5), 1..48),
        jitter_ms in 0u64..4,
        seed in any::<u64>(),
    ) {
        // Coarse grids (send instants in ms, sizes in 4 KiB steps, jitter
        // bound in ms) make equal arrival instants common.
        let mut sends = sends;
        sends.sort_by_key(|s| s.2);
        let jitter_us = jitter_ms * 1_000;
        let cost = CostModel::ethernet_1990();
        let mut cfg = TransportConfig::lossless(cost.clone()).with_jitter(jitter_us);
        cfg.seed = seed;
        let mut t = Transport::new(cfg);
        // The transport's latency stream, replayed: each message's own arrival.
        let mut wire = LatencyModel::new(cost).with_jitter(jitter_us, derive(seed, "latency"));
        let (mut q, mut stats) = (EventQueue::new(), NetTally::new());
        let mut sent = Vec::new();
        for (i, &(src, hop, ms, kib4)) in sends.iter().enumerate() {
            let (src, dst) = (NodeId(src), NodeId((src + hop) % 3));
            let (now, bytes) = (VirtualTime::micros(ms * 1_000), kib4 * 4096);
            sent.push((src, dst, wire.delivery_time(now, bytes)));
            t.send(now, &mut q, &mut stats, src, dst, Msg(i, bytes));
        }
        // Message index -> (handover instant, event number), and each pair's
        // handover order.
        let mut got = HashMap::new();
        let mut order: HashMap<(NodeId, NodeId), Vec<usize>> = HashMap::new();
        let mut event = 0;
        while let Some(ev) = q.pop() {
            let EventKind::Deliver { src, dst } = ev.kind else { unreachable!() };
            let mut first = true;
            while let Some(Msg(i, _)) = t.receive(src, dst, first) {
                first = false;
                prop_assert_eq!(sent[i].0, src);
                prop_assert!(got.insert(i, (ev.at, event)).is_none(), "message {} twice", i);
                order.entry((src, dst)).or_default().push(i);
            }
            prop_assert!(!first, "an event without its own message");
            event += 1;
        }
        prop_assert_eq!(got.len(), sent.len(), "every message exactly once");
        for ((src, dst), handed) in order {
            let want: Vec<usize> =
                (0..sent.len()).filter(|&i| (sent[i].0, sent[i].1) == (src, dst)).collect();
            prop_assert_eq!(&handed, &want, "send order on {:?} -> {:?}", src, dst);
            let mut prev: Option<(VirtualTime, usize)> = None;
            for i in handed {
                let (at, ev) = got[&i];
                let arrive = sent[i].2;
                let release = prev.map_or(arrive, |(p, _)| arrive.max(p));
                prop_assert_eq!(at, release, "message {} handed over late or early", i);
                let rides = prev.is_some_and(|(p, _)| arrive < p);
                prop_assert_eq!(prev.is_some_and(|(_, e)| e == ev), rides, "message {} event", i);
                prev = Some((at, ev));
            }
        }
    }
}
