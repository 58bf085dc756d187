//! E8, E9, E11: the paper's "dynamic system decisions".

use crate::table::Table;
use munin_api::{Backend, Par, ParTyped, ProgramBuilder};
use munin_types::{MuninConfig, ReadMostlyMode, SharingType};

/// Synthetic read-mostly sharing kernel for E8/E9: one writer node updates
/// an object every round; `readers` nodes re-read it with probability
/// `locality` per round.
fn sharing_kernel(readers: usize, rounds: usize, read_permille: u32) -> ProgramBuilder {
    let nodes = readers + 1;
    let mut p = ProgramBuilder::new(nodes);
    // 64 B object (8 i64 slots); only slot 0 is used, the size keeps the
    // transfer costs identical to the pre-typed-API experiment.
    let obj = p.array::<i64>("shared", 8, SharingType::ReadMostly, 0);
    let bar = p.barrier(0, nodes as u32);
    // Writer on node 0.
    p.thread(0, move |par: &mut dyn Par| {
        par.set(&obj, 0, 0);
        par.barrier(bar);
        for round in 0..rounds {
            par.set(&obj, 0, round as i64 + 1);
            par.barrier(bar);
            par.barrier(bar);
        }
    });
    for t in 1..nodes {
        p.thread(t, move |par: &mut dyn Par| {
            // Deterministic per-thread "random" re-read pattern.
            let mut state = (t as u64) * 2654435761 + 12345;
            par.barrier(bar);
            let _ = par.get(&obj, 0); // join the copyset
            for round in 0..rounds {
                par.barrier(bar);
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if (state >> 33) % 1000 < read_permille as u64 {
                    let v = par.get(&obj, 0);
                    assert!(v >= round as i64, "read a value from the past across a barrier");
                }
                par.barrier(bar);
            }
        });
    }
    p
}

/// E8 — invalidate vs refresh vs adaptive, sweeping per-reader locality
/// (probability of re-reading between updates) — the Eggers & Katz
/// trade-off the paper cites.
pub fn e8_inval_vs_refresh(readers: usize, rounds: usize) -> Table {
    let mut t = Table::new(
        "E8",
        format!("invalidate vs refresh, {readers} readers, {rounds} update rounds"),
        &["re-read %", "invalidate msgs", "refresh msgs", "adaptive msgs", "winner"],
    );
    for permille in [100u32, 500, 900] {
        let run = |mode: ReadMostlyMode| {
            let mut cfg = MuninConfig::default();
            cfg.read_mostly = mode;
            let p = sharing_kernel(readers, rounds, permille);
            let o = p.run(Backend::sim(cfg));
            o.assert_clean();
            // Compare data-plane traffic (barrier traffic is identical
            // across variants; acks scale with data messages).
            let r = o.report();
            r.stats.kind("FlushOut").count
                + r.stats.kind("FlushInval").count
                + r.stats.kind("ReadReq").count
                + r.stats.kind("ReadReply").count
        };
        let inval = run(ReadMostlyMode::ReplicatedInvalidate);
        let refresh = run(ReadMostlyMode::ReplicatedRefresh);
        let adaptive = run(ReadMostlyMode::Adaptive);
        let winner = if inval < refresh { "invalidate" } else { "refresh" };
        t.row(vec![
            format!("{:.0}", permille as f64 / 10.0),
            inval.to_string(),
            refresh.to_string(),
            adaptive.to_string(),
            winner.into(),
        ]);
    }
    t.note("paper (after Eggers & Katz): invalidation wins under per-processor locality;");
    t.note("refresh wins under fine-grained sharing; the adaptive policy should track the winner");
    t
}

/// E9 — replication vs remote load/store, sweeping the read fraction.
pub fn e9_replication(readers: usize, ops: usize) -> Table {
    let mut t = Table::new(
        "E9",
        format!("replication vs remote access, {readers} accessor nodes, {ops} ops each"),
        &["read %", "replicated msgs", "remote msgs", "repl. virtual ms", "remote virtual ms"],
    );
    for read_permille in [500u32, 900, 990] {
        let build = || {
            let nodes = readers + 1;
            let mut p = ProgramBuilder::new(nodes);
            let obj = p.array::<i64>("shared", 8, SharingType::ReadMostly, 0);
            let bar = p.barrier(0, nodes as u32);
            for t in 1..nodes {
                p.thread(t, move |par: &mut dyn Par| {
                    let mut state = (t as u64) * 99991 + 7;
                    par.barrier(bar);
                    for i in 0..ops {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        if (state >> 33) % 1000 < read_permille as u64 {
                            let _ = par.get(&obj, 0);
                        } else {
                            // Each write is one access: drain it, so the
                            // client does not combine a run of writes.
                            par.set(&obj, 0, i as i64);
                            par.drain_ops();
                        }
                    }
                    par.barrier(bar);
                });
            }
            p.thread(0, move |par: &mut dyn Par| {
                par.barrier(bar);
                par.barrier(bar);
            });
            p
        };
        let run = |mode: ReadMostlyMode| {
            let mut cfg = MuninConfig::default();
            cfg.read_mostly = mode;
            let o = build().run(Backend::sim(cfg));
            o.assert_clean();
            let r = o.report();
            (r.stats.messages, r.finished_at.as_millis_f64())
        };
        let (rm, rt) = run(ReadMostlyMode::ReplicatedRefresh);
        let (am, at) = run(ReadMostlyMode::RemoteAccess);
        t.row(vec![
            format!("{:.0}", read_permille as f64 / 10.0),
            rm.to_string(),
            am.to_string(),
            format!("{rt:.1}"),
            format!("{at:.1}"),
        ]);
    }
    t.note("paper: 'since most programs perform many more reads than writes, replication will be");
    t.note("the dominant mechanism'; single-copy remote access wins when writes dominate");
    t
}

/// E11 — runtime type detection: a producer-consumer workload whose object
/// was (mis)declared general read-write, with and without adaptive typing.
pub fn e11_adaptive_typing(generations: usize) -> Table {
    let mut t = Table::new(
        "E11",
        format!(
            "runtime re-typing of a mistyped producer-consumer object ({generations} generations)"
        ),
        &["variant", "msgs", "read faults", "ownership txns"],
    );
    for (name, adaptive) in [("static general-rw", false), ("adaptive typing", true)] {
        let mut p = ProgramBuilder::new(3);
        let obj = p.array::<i64>("mistyped", 8, SharingType::GeneralReadWrite, 0);
        let bar = p.barrier(0, 2);
        let gens = generations;
        p.thread(1, move |par: &mut dyn Par| {
            for g in 0..gens {
                par.set(&obj, 0, g as i64);
                par.barrier(bar);
                par.barrier(bar);
            }
        });
        p.thread(2, move |par: &mut dyn Par| {
            for g in 0..gens {
                par.barrier(bar);
                let v = par.get(&obj, 0);
                assert_eq!(v, g as i64);
                par.barrier(bar);
            }
        });
        let mut cfg = MuninConfig::default();
        cfg.adaptive_typing = adaptive;
        cfg.adapt_min_samples = 12;
        let o = p.run(Backend::sim(cfg));
        o.assert_clean();
        let r = o.report();
        t.row(vec![
            name.into(),
            r.stats.messages.to_string(),
            r.stats.kind("ReadReq").count.to_string(),
            r.stats.kind("WriteReq").count.to_string(),
        ]);
    }
    t.note("paper §4: 'Munin could define the object as a producer-consumer shared object and treat it accordingly'");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_crossover_exists() {
        let t = e8_inval_vs_refresh(3, 12);
        // Low locality: invalidate strictly cheaper (refresh wastes pushes).
        assert!(t.num(0, 1) < t.num(0, 2), "invalidate wins at 10% re-read");
        // High locality: refresh at least as cheap (saves re-faults).
        assert!(t.num(2, 2) <= t.num(2, 1), "refresh wins at 90% re-read");
    }

    #[test]
    fn e8_adaptive_tracks_winner() {
        let t = e8_inval_vs_refresh(3, 12);
        for row in [0usize, 2] {
            let best = t.num(row, 1).min(t.num(row, 2));
            let adaptive = t.num(row, 3);
            assert!(
                adaptive <= best * 1.6 + 4.0,
                "adaptive ({adaptive}) should track the winner ({best})"
            );
        }
    }

    #[test]
    fn e9_crossover_exists() {
        let t = e9_replication(2, 40);
        // At 99% reads, replication sends fewer messages.
        let last = t.rows.len() - 1;
        assert!(t.num(last, 1) < t.num(last, 2), "replication wins when reads dominate");
        // At 50% reads, remote access is no worse.
        assert!(t.num(0, 2) <= t.num(0, 1) * 1.2, "remote access competitive when writes dominate");
    }

    #[test]
    fn e11_adaptive_reduces_traffic() {
        let t = e11_adaptive_typing(30);
        let static_msgs = t.num(0, 1);
        let adaptive_msgs = t.num(1, 1);
        assert!(
            adaptive_msgs < static_msgs,
            "adaptive typing reduces traffic ({adaptive_msgs} vs {static_msgs})"
        );
    }
}
