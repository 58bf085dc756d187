//! Quickstart: your first Munin program, on the typed handle API.
//!
//! Declares typed shared objects with sharing annotations, spawns a thread
//! per node, runs the program on the Munin runtime, and prints the traffic
//! report. The same program also runs on the Ivy baseline and on native
//! threads — change `backend` below and nothing else.
//!
//! ```text
//! cargo run -p xtests --example quickstart
//! ```

use munin_api::{Backend, Par, ParTyped, ProgramBuilder};
use munin_types::{MuninConfig, SharingType};
use std::sync::{Arc, Mutex};

fn main() {
    let nodes = 4;
    let mut p = ProgramBuilder::new(nodes);

    // A read-only table: initialized once, then replicated on demand.
    let table = p.array::<f64>("table", 64, SharingType::WriteOnce, 0);
    // A grid written in disjoint stripes by all threads (delayed updates).
    let grid = p.array::<f64>("grid", 64, SharingType::WriteMany, 0);
    // Each worker's partial sums land here; only thread 0 reads them.
    let sums = p.array::<f64>("sums", nodes as u32, SharingType::Result, 0);
    let bar = p.barrier(0, nodes as u32);

    let answer = Arc::new(Mutex::new(0.0f64));
    let answer_out = answer.clone();

    for t in 0..nodes {
        let answer = answer.clone();
        p.thread(t, move |par: &mut dyn Par| {
            let me = par.self_id();
            if me == 0 {
                // Initialization phase: fill the table, publish it.
                let init: Vec<f64> = (0..64).map(|i| (i as f64).sqrt()).collect();
                par.write_from(&table, 0, &init);
                par.phase(1);
            }
            par.barrier(bar);

            // Everyone reads its slice of the (now replicated) table into a
            // local buffer and writes its own stripe of the grid with one
            // bulk write. (A full overwrite wants `write_from`; use
            // `par.region` when a stripe is read *and* modified in place —
            // see the quicksort app.)
            let chunk = table.len() / par.n_threads() as u32;
            let lo = me as u32 * chunk;
            let mut vals = vec![0.0f64; chunk as usize];
            par.read_into(&table, lo, &mut vals);
            for v in &mut vals {
                *v *= 2.0;
            }
            par.write_from(&grid, lo, &vals);
            // Deposit the partial sum into the result object.
            par.set(&sums, me as u32, vals.iter().sum());
            par.barrier(bar);

            if me == 0 {
                let partials = par.read_all(&sums);
                *answer.lock().unwrap() = partials.iter().sum();
            }
        });
    }

    let outcome = p.run(Backend::sim(MuninConfig::default()));
    outcome.assert_clean();
    let report = outcome.report();
    println!("answer: {:.4}", *answer_out.lock().unwrap());
    println!("virtual time: {}", report.finished_at);
    println!("{}", report.stats);
}
