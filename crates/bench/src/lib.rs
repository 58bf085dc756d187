//! # munin-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation content (E1–E15, listed in [`EXPERIMENTS`]). Each experiment
//! returns a [`table::Table`] so the `repro` binary can print it and the
//! test suite can assert its *shape* (who wins, where crossovers fall).
//! The simulator is deterministic, so the quick-scale output is also pinned
//! exactly: `tests/golden/repro_quick.txt` is `repro --quick all`, byte for
//! byte (`crates/bench/tests/repro_golden.rs`).
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p munin-bench --release --bin repro -- all
//! ```

pub mod adapt_exp;
pub mod false_sharing;
pub mod hardware;
pub mod msgpass;
pub mod proto_exp;
pub mod read_heavy;
pub mod study;
pub mod table;
pub mod traffic;

pub use table::Table;

/// One experiment of the paper's evaluation: its id, what it measures, and
/// how to run it at quick (`true`) or full scale.
pub struct Experiment {
    pub id: &'static str,
    pub what: &'static str,
    pub run: fn(bool) -> Table,
}

fn nodes(quick: bool) -> usize {
    if quick {
        3
    } else {
        4
    }
}

fn sweep(quick: bool) -> &'static [usize] {
    if quick {
        &[2, 4]
    } else {
        &[2, 4, 8]
    }
}

/// Every experiment, in the order `repro` runs and prints them.
pub const EXPERIMENTS: [Experiment; 15] = [
    Experiment { id: "E1", what: "sharing taxonomy", run: |q| study::e1_taxonomy(nodes(q)) },
    Experiment { id: "E2", what: "study statistics", run: |q| study::e2_study_stats(nodes(q)) },
    Experiment { id: "E3", what: "figure 1", run: |_| study::e3_figure1() },
    Experiment {
        id: "E4",
        what: "Munin vs Ivy, all apps",
        run: |q| traffic::e4_munin_vs_ivy(nodes(q)),
    },
    Experiment {
        id: "E5",
        what: "matmul delayed updates",
        run: |q| traffic::e5_matmul_duq(nodes(q), if q { &[16, 32] } else { &[16, 32, 48] }),
    },
    Experiment {
        id: "E6",
        what: "migratory objects",
        run: |q| proto_exp::e6_migratory(sweep(q), if q { 4 } else { 8 }),
    },
    Experiment {
        id: "E7",
        what: "producer-consumer",
        run: |q| proto_exp::e7_producer_consumer(if q { &[3] } else { &[2, 4, 8] }),
    },
    Experiment {
        id: "E8",
        what: "invalidate vs refresh",
        run: |q| adapt_exp::e8_inval_vs_refresh(if q { 3 } else { 6 }, if q { 12 } else { 24 }),
    },
    Experiment {
        id: "E9",
        what: "replication vs remote access",
        run: |q| adapt_exp::e9_replication(if q { 2 } else { 4 }, if q { 40 } else { 120 }),
    },
    Experiment {
        id: "E10",
        what: "false sharing",
        run: |q| false_sharing::e10_false_sharing(if q { 3 } else { 6 }, if q { 6 } else { 16 }),
    },
    Experiment {
        id: "E11",
        what: "adaptive typing",
        run: |q| adapt_exp::e11_adaptive_typing(if q { 30 } else { 60 }),
    },
    Experiment { id: "E12", what: "scaling", run: |q| traffic::e12_scaling(sweep(q)) },
    Experiment {
        id: "E13",
        what: "lock contention",
        run: |q| proto_exp::e13_locks(sweep(q), if q { 4 } else { 8 }),
    },
    Experiment {
        id: "E15",
        what: "hardware sensitivity",
        run: |q| hardware::e15_hardware(nodes(q)),
    },
    Experiment { id: "E14", what: "DUQ combining", run: |_| proto_exp::e14_duq(&[1, 4, 16, 64]) },
];

/// Run the experiments `want` selects (by lower-case id) in
/// [`EXPERIMENTS`] order, announcing each on stderr.
pub fn run_experiments(quick: bool, want: impl Fn(&str) -> bool) -> Vec<Table> {
    EXPERIMENTS
        .iter()
        .filter(|e| want(&e.id.to_lowercase()))
        .map(|e| {
            eprintln!("running {} ({})...", e.id, e.what);
            (e.run)(quick)
        })
        .collect()
}
