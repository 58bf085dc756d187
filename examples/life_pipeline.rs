//! The paper's nearest-neighbour scenario: Conway's Life with
//! producer-consumer boundary rows, comparing eager object movement against
//! demand fetching — and against the Ivy baseline.
//!
//! ```text
//! cargo run --release -p xtests --example life_pipeline
//! ```

use munin_api::Backend;
use munin_apps::life;
use munin_types::{IvyConfig, MuninConfig, UpdatePolicy};

fn main() {
    let cfg = life::LifeCfg { width: 96, height: 96, generations: 10, nodes: 6, seed: 2026 };
    let want = life::reference(&cfg);
    println!(
        "Life {}x{}, {} generations, {} nodes\n",
        cfg.width, cfg.height, cfg.generations, cfg.nodes
    );

    // Munin, eager producer-consumer boundaries (the paper's mechanism).
    {
        let (p, out) = life::build(&cfg);
        let o = p.run(Backend::sim(MuninConfig::default()));
        o.assert_clean();
        life::check(&out, &want);
        let r = o.report();
        println!(
            "munin eager push   : {:>6} msgs  {:>8} bytes  read-wait {:>7.2} ms  vtime {:>8.1} ms",
            r.stats.messages,
            r.stats.bytes,
            r.total_wait_us("read") as f64 / 1000.0,
            r.finished_at.as_millis_f64()
        );
    }

    // Munin, demand fetch (consumers re-fault every generation).
    {
        let (mut p, out) = life::build(&cfg);
        p.set_eager_all(false);
        let mut mc = MuninConfig::default();
        mc.pc_policy = UpdatePolicy::Invalidate;
        let o = p.run(Backend::sim(mc));
        o.assert_clean();
        life::check(&out, &want);
        let r = o.report();
        println!(
            "munin demand fetch : {:>6} msgs  {:>8} bytes  read-wait {:>7.2} ms  vtime {:>8.1} ms",
            r.stats.messages,
            r.stats.bytes,
            r.total_wait_us("read") as f64 / 1000.0,
            r.finished_at.as_millis_f64()
        );
    }

    // Ivy baseline (page-based strict coherence, central locks so the
    // comparison isolates the data protocol).
    {
        let (p, out) = life::build(&cfg);
        let o = p.run(Backend::sim(IvyConfig::default().with_central_locks()));
        o.assert_clean();
        life::check(&out, &want);
        let r = o.report();
        println!(
            "ivy (1 KiB pages)  : {:>6} msgs  {:>8} bytes  read-wait {:>7.2} ms  vtime {:>8.1} ms",
            r.stats.messages,
            r.stats.bytes,
            r.total_wait_us("read") as f64 / 1000.0,
            r.finished_at.as_millis_f64()
        );
    }

    println!("\nall three variants produced the sequential-reference grid.");
}
