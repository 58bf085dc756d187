//! The study applications at 64 nodes on the simulator: every run clean
//! and equal to its sequential reference. `life`'s default grid grows with
//! the node count (a thread's block needs two rows) and `tsp`'s work stack
//! with the worker count. tsp on Ivy sends ~3.8 M messages at 64 nodes, too
//! slow for this suite; `scripts/gate.sh` runs it in release through
//! `study`.

use munin_api::Backend;
use munin_apps::App;
use munin_types::{IvyConfig, MuninConfig, TardisConfig};

const NODES: usize = 64;

fn run_clean(app: App, backend: Backend) {
    let (program, verify) = app.build_default(NODES);
    let name = backend.name();
    let outcome = program.run(backend);
    outcome.assert_clean();
    verify();
    assert_eq!(outcome.report().thread_waits.len(), NODES, "{} on {name}", app.name());
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
