//! E6, E7, E13, E14: per-mechanism experiments — migratory objects on
//! locks, eager producer-consumer movement, proxy locks under contention,
//! and DUQ combining/ordering.

use crate::table::Table;
use munin_api::{Backend, Par, ParTyped, ProgramBuilder};
use munin_apps::life;
use munin_types::{IvyConfig, MuninConfig, ObjectDecl, SharingType, UpdatePolicy};

/// The hot critical-section kernel: every node's thread repeatedly locks,
/// reads+writes the shared counter, unlocks.
fn critical_section_program(
    nodes: usize,
    rounds: usize,
    sharing: SharingType,
    associate: bool,
) -> ProgramBuilder {
    let mut p = ProgramBuilder::new(nodes);
    let l = p.lock(0);
    let counter = if associate {
        p.scalar_decl::<i64>(ObjectDecl::template("counter", sharing).with_lock(l), 0)
    } else {
        p.scalar::<i64>("counter", sharing, 0)
    };
    let bar = p.barrier(0, nodes as u32);
    for t in 0..nodes {
        p.thread(t, move |par: &mut dyn Par| {
            for _ in 0..rounds {
                par.lock(l);
                let v = par.load(&counter);
                par.compute(100);
                par.store(&counter, v + 1);
                par.unlock(l);
            }
            par.barrier(bar);
            if par.self_id() == 0 {
                par.lock(l);
                let total = par.load(&counter);
                assert_eq!(total as usize, par.n_threads() * rounds, "lost updates!");
                par.unlock(l);
            }
        });
    }
    p
}

/// E6 — migratory objects: lock-carried vs fault-driven vs general
/// read-write, messages per critical-section episode.
pub fn e6_migratory(node_counts: &[usize], rounds: usize) -> Table {
    let mut t = Table::new(
        "E6",
        format!("messages per critical-section episode ({rounds} rounds/thread)"),
        &["nodes", "episodes", "lock-carried", "fault-driven", "general-rw"],
    );
    for &n in node_counts {
        let run = |sharing, associate| {
            let p = critical_section_program(n, rounds, sharing, associate);
            let o = p.run(Backend::sim(MuninConfig::default()));
            o.assert_clean();
            o.report().stats.messages as f64
        };
        let episodes = (n * rounds) as f64;
        let carried = run(SharingType::Migratory, true);
        let faulted = run(SharingType::Migratory, false);
        let general = run(SharingType::GeneralReadWrite, false);
        t.row(vec![
            n.to_string(),
            format!("{episodes:.0}"),
            format!("{:.2}", carried / episodes),
            format!("{:.2}", faulted / episodes),
            format!("{:.2}", general / episodes),
        ]);
    }
    t.note("paper: 'the object is migrated, together with the lock itself' — zero extra messages");
    t
}

/// E7 — producer-consumer: eager push vs lazy refresh vs demand fetch on
/// the Life boundary exchange. Reports messages and consumer read-stall.
pub fn e7_producer_consumer(node_counts: &[usize]) -> Table {
    let mut t = Table::new(
        "E7",
        "Life boundary exchange: eager push vs demand fetch",
        &["nodes", "variant", "msgs", "update msgs", "read-wait ms", "virtual ms"],
    );
    for &n in node_counts {
        let variants: [(&str, UpdatePolicy, bool); 3] = [
            ("eager push", UpdatePolicy::Refresh, true),
            ("lazy refresh", UpdatePolicy::Refresh, false),
            ("demand fetch", UpdatePolicy::Invalidate, false),
        ];
        for (name, policy, eager) in variants {
            let cfg = life::LifeCfg { width: 48, height: 48, generations: 6, nodes: n, seed: 17 };
            let want = life::reference(&cfg);
            let (mut p, out) = life::build(&cfg);
            if !eager {
                // Eagerness rides the per-object declaration; strip it for
                // the lazy and demand variants.
                p.set_eager_all(false);
            }
            let mut mcfg = MuninConfig::default();
            mcfg.pc_policy = policy;
            let o = p.run(Backend::sim(mcfg));
            o.assert_clean();
            life::check(&out, &want);
            let r = o.report();
            t.row(vec![
                n.to_string(),
                name.into(),
                r.stats.messages.to_string(),
                (r.stats.kind("Eager").count
                    + r.stats.kind("EagerOut").count
                    + r.stats.kind("FlushOut").count)
                    .to_string(),
                format!("{:.2}", r.total_wait_us("read") as f64 / 1000.0),
                format!("{:.1}", r.finished_at.as_millis_f64()),
            ]);
        }
    }
    t.note("paper: eager movement means 'threads never wait to receive the current values'");
    t
}

/// E13 — proxy locks vs DSM spin locks vs a central server, under
/// contention.
pub fn e13_locks(node_counts: &[usize], rounds: usize) -> Table {
    let mut t = Table::new(
        "E13",
        format!("hot-lock contention ({rounds} acquisitions/thread)"),
        &["nodes", "variant", "msgs", "msgs/acq", "lock-wait ms"],
    );
    for &n in node_counts {
        let acq = (n * rounds) as f64;
        // Munin proxy locks.
        {
            let p = critical_section_program(n, rounds, SharingType::Migratory, true);
            let o = p.run(Backend::sim(MuninConfig::default()));
            o.assert_clean();
            let r = o.report();
            t.row(vec![
                n.to_string(),
                "munin proxy".into(),
                r.stats.messages.to_string(),
                format!("{:.2}", r.stats.messages as f64 / acq),
                format!("{:.2}", r.total_wait_us("lock") as f64 / 1000.0),
            ]);
        }
        // Ivy central lock server.
        {
            let p = critical_section_program(n, rounds, SharingType::GeneralReadWrite, false);
            let o = p.run(Backend::sim(IvyConfig::default().with_central_locks()));
            o.assert_clean();
            let r = o.report();
            t.row(vec![
                n.to_string(),
                "central server".into(),
                r.stats.messages.to_string(),
                format!("{:.2}", r.stats.messages as f64 / acq),
                format!("{:.2}", r.total_wait_us("lock") as f64 / 1000.0),
            ]);
        }
        // Ivy DSM-resident spin locks (the "no special provisions" system).
        {
            let p = critical_section_program(n, rounds, SharingType::GeneralReadWrite, false);
            let o = p.run(Backend::sim(IvyConfig::default()));
            o.assert_clean();
            let r = o.report();
            t.row(vec![
                n.to_string(),
                "ivy spin".into(),
                r.stats.messages.to_string(),
                format!("{:.2}", r.stats.messages as f64 / acq),
                format!("{:.2}", r.total_wait_us("lock") as f64 / 1000.0),
            ]);
        }
    }
    t.note("paper: proxy locks 'reduce network overhead'; Ivy has 'no special provisions for synchronization'");
    t
}

/// E14 — the DUQ's combining and program-order guarantees: W writes to one
/// object between synchronizations always flush as one update message, and
/// updates to X-then-Y arrive in program order.
pub fn e14_duq(writes_per_flush: &[usize]) -> Table {
    let mut t = Table::new(
        "E14",
        "delayed update queue: combining factor",
        &["writes/flush", "flush msgs", "update msgs", "combining factor"],
    );
    for &w in writes_per_flush {
        let mut p = ProgramBuilder::new(2);
        let obj = p.array::<i64>("x", 512, SharingType::WriteMany, 0);
        let bar = p.barrier(0, 2);
        let rounds = 4usize;
        p.thread(1, move |par: &mut dyn Par| {
            for round in 0..rounds {
                for i in 0..w {
                    par.set(&obj, ((i * 8) % 512) as u32, (round * w + i + 1) as i64);
                }
                par.barrier(bar);
            }
        });
        p.thread(0, move |par: &mut dyn Par| {
            for _ in 0..rounds {
                par.barrier(bar);
            }
        });
        let o = p.run(Backend::sim(MuninConfig::default()));
        o.assert_clean();
        let r = o.report();
        let flush_msgs = r.stats.kind("FlushIn").count;
        let update_msgs = flush_msgs + r.stats.kind("FlushOut").count;
        t.row(vec![
            w.to_string(),
            flush_msgs.to_string(),
            update_msgs.to_string(),
            format!("{:.1}", (w * rounds) as f64 / flush_msgs.max(1) as f64),
        ]);
    }
    t.note("paper: 'delaying updates allows the system to combine updates to the same object'");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_lock_carried_is_cheapest() {
        let t = e6_migratory(&[3], 4);
        let carried = t.num(0, 2);
        let faulted = t.num(0, 3);
        let general = t.num(0, 4);
        assert!(carried < faulted, "lock piggyback beats fault-driven ({carried} vs {faulted})");
        assert!(carried < general, "lock piggyback beats general-rw ({carried} vs {general})");
    }

    #[test]
    fn e13_proxy_locks_beat_spin() {
        let t = e13_locks(&[3], 4);
        let proxy = t.num(0, 3);
        let spin = t.num(2, 3);
        assert!(proxy < spin, "proxy {proxy} msgs/acq vs spin {spin}");
    }

    #[test]
    fn e14_combining_grows_with_writes() {
        let t = e14_duq(&[1, 16]);
        assert!(t.num(1, 3) > t.num(0, 3), "more writes per flush combine more");
        // Always exactly one FlushIn per flush round.
        assert_eq!(t.num(0, 1), 4.0);
        assert_eq!(t.num(1, 1), 4.0);
    }
}
