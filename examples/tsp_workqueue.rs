//! The paper's work-queue scenario: branch-and-bound TSP with a migratory
//! task stack that rides the queue lock, a read-mostly bound, and a result
//! tour — four protocols cooperating in one program.
//!
//! ```text
//! cargo run --release -p xtests --example tsp_workqueue
//! ```

use munin_api::Backend;
use munin_apps::tsp;
use munin_types::{MuninConfig, SharingType};

fn main() {
    let cfg = tsp::TspCfg { cities: 8, nodes: 4, seed: 77 };
    println!("TSP: {} cities, branch and bound on {} nodes\n", cfg.cities, cfg.nodes);
    let want = tsp::reference(&cfg);

    // With the programmer's annotations.
    {
        let (p, out) = tsp::build(&cfg);
        let o = p.run(Backend::sim(MuninConfig::default()));
        o.assert_clean();
        let r = o.report();
        println!(
            "annotated (migratory queue + read-mostly bound): {:>7} msgs  {:>9} bytes",
            r.stats.messages, r.stats.bytes
        );
        println!(
            "   lock piggybacks carried the queue {} times (LockPass messages)",
            r.stats.kind("LockPass").count
        );
        println!("   separate migrations: {}", r.stats.kind("MigrateData").count);
        tsp::check(&out, want);
    }

    // Everything forced to the default general read-write protocol: the
    // queue ping-pongs through ownership transactions instead.
    {
        let (mut p, out) = tsp::build(&cfg);
        p.retype_all(|_| SharingType::GeneralReadWrite);
        let o = p.run(Backend::sim(MuninConfig::default()));
        o.assert_clean();
        let r = o.report();
        println!(
            "\nall general read-write (no annotations):        {:>7} msgs  {:>9} bytes",
            r.stats.messages, r.stats.bytes
        );
        println!("   ownership transactions: {}", r.stats.kind("WriteReq").count);
        tsp::check(&out, want);
    }

    println!("\nboth found the optimal tour of length {want}.");
}
