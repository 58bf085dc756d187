//! The golden ledger: exact simulator counts for every study application
//! under every protocol, asserted byte for byte against
//! `tests/golden/apps_sim.tsv`.
//!
//! The simulator is deterministic, so any change to these numbers is a
//! change in protocol behaviour or in the cost model, never noise. A PR that
//! means to move them regenerates the file with
//! `MUNIN_BLESS=1 cargo test -p xtests --test golden` and the diff shows the
//! cost; a PR that must not move them leaves the file untouched.

use munin_api::Backend;
use munin_apps::App;
use munin_net::MsgClass;
use munin_types::{IvyConfig, MuninConfig, TardisConfig};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/apps_sim.tsv");
const NODES: [usize; 2] = [4, 16];

fn sim_backends() -> [Backend; 3] {
    [
        Backend::Munin(MuninConfig::default()),
        Backend::Ivy(IvyConfig::default()),
        Backend::Tardis(TardisConfig::default()),
    ]
}

/// One row per (app, protocol, nodes) at `App::build_default` sizes, each
/// run checked against its sequential reference.
fn ledger() -> String {
    let mut out = String::from("app\tprotocol\tnodes\tops\tmessages\tbytes\tfinished_at_us");
    for class in MsgClass::ALL {
        write!(out, "\t{}_msgs", class.label()).unwrap();
    }
    out.push('\n');
    for app in App::ALL {
        for backend in sim_backends() {
            for nodes in NODES {
                let (program, verify) = app.build_default(nodes);
                let outcome = program.run(backend.clone());
                outcome.assert_clean();
                verify();
                let r = outcome.report();
                write!(
                    out,
                    "{}\t{}\t{nodes}\t{}\t{}\t{}\t{}",
                    app.name(),
                    backend.name(),
                    r.ops,
                    r.stats.messages,
                    r.stats.bytes,
                    r.finished_at.as_micros()
                )
                .unwrap();
                for class in MsgClass::ALL {
                    write!(out, "\t{}", r.stats.class(class).count).unwrap();
                }
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn apps_sim_ledger_matches_golden_file() {
    let got = ledger();
    if std::env::var_os("MUNIN_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden ledger");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("read golden ledger");
    if want != got {
        let diff: Vec<String> = want
            .lines()
            .zip(got.lines())
            .filter(|(w, g)| w != g)
            .map(|(w, g)| format!("  want {w}\n  got  {g}"))
            .collect();
        panic!(
            "simulator counts moved ({} row(s) differ, {} vs {} rows); rerun with MUNIN_BLESS=1 \
             if the change is intended:\n{}",
            diff.len(),
            want.lines().count(),
            got.lines().count(),
            diff.join("\n")
        );
    }
}
