//! Failure injection: the coherence protocols must survive message loss —
//! the transport's ack/retransmission layer (the V kernel's reliable
//! request/response role) recovers dropped transmissions transparently.

use munin_api::{Backend, Par, ParTyped, ProgramBuilder};
use munin_apps::{life, matmul};
use munin_net::SeedGuard;
use munin_sim::TransportConfig;
use munin_types::{MuninConfig, SharingType};

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
    assert!(r.stats.dropped > 0, "loss injection must actually drop something");
    assert!(r.stats.retransmissions > 0, "recovery must actually retransmit");
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
