//! The study applications at 64 nodes on the simulator: every run clean
//! and equal to its sequential reference. `life`'s default grid grows with
//! the node count (a thread's block needs two rows) and `tsp`'s work stack
//! with the worker count. One cell is too slow for this suite and runs in
//! release through `study` in `scripts/gate.sh`: tsp on Ivy (~3.8 M
//! messages, seconds even in release). qsort on Ivy (~0.5 M messages) runs
//! here, with its exact message count.

use munin_api::Backend;
use munin_apps::App;
use munin_types::{IvyConfig, MuninConfig, TardisConfig};

const NODES: usize = 64;

/// Run `app` at 64 nodes, check it clean and correct; returns its message
/// count.
fn run_clean(app: App, backend: Backend) -> u64 {
    let (program, verify) = app.build_default(NODES);
    let name = backend.name();
    let outcome = program.run(backend);
    outcome.assert_clean();
    verify();
    assert_eq!(outcome.report().thread_waits.len(), NODES, "{} on {name}", app.name());
    outcome.report().stats.messages
}

#[test]
fn life_runs_clean_at_64_nodes_on_every_protocol() {
    run_clean(App::Life, Backend::sim(MuninConfig::default()));
    run_clean(App::Life, Backend::sim(IvyConfig::default()));
    run_clean(App::Life, Backend::sim(TardisConfig::default()));
}

#[test]
fn tsp_runs_clean_at_64_nodes_on_munin_and_tardis() {
    run_clean(App::Tsp, Backend::sim(MuninConfig::default()));
    run_clean(App::Tsp, Backend::sim(TardisConfig::default()));
}

#[test]
fn matmul_gauss_and_fft_run_clean_at_64_nodes_on_every_protocol() {
    for app in [App::Matmul, App::Gauss, App::Fft] {
        run_clean(app, Backend::sim(MuninConfig::default()));
        run_clean(app, Backend::sim(IvyConfig::default()));
        run_clean(app, Backend::sim(TardisConfig::default()));
    }
}

#[test]
fn qsort_runs_clean_at_64_nodes_on_munin_and_tardis() {
    run_clean(App::Qsort, Backend::sim(MuninConfig::default()));
    run_clean(App::Qsort, Backend::sim(TardisConfig::default()));
}

/// The simulator is deterministic, so Ivy's message count is exact: a
/// change to the page protocol's messages, or to their order, moves it.
#[test]
fn qsort_on_ivy_at_64_nodes_sends_an_exact_message_count() {
    assert_eq!(run_clean(App::Qsort, Backend::sim(IvyConfig::default())), 526_948);
}
