//! The simulator predicts the wall-clock fabrics message kind by message
//! kind, on the cells where the protocol's schedule does not depend on the
//! interleaving: the same app at 4 nodes with its default sizes sends
//! exactly the same `NetStats::by_kind` table on the simulator, the
//! real-time kernel and the multi-process TCP fabric. The TCP runs skip
//! with a notice where the environment lacks loopback sockets or the
//! `munin-node` binary, as in `cross_backend.rs`.

use munin_api::Backend;
use munin_apps::App;
use munin_net::KindStat;
use munin_types::{MuninConfig, TardisConfig};
use std::collections::BTreeMap;

const NODES: usize = 4;

/// One run of `app` on `backend`: clean, equal to its reference, and its
/// traffic by message kind.
fn by_kind(app: App, backend: Backend) -> BTreeMap<String, KindStat> {
    let name = backend.name();
    let (program, verify) = app.build_default(NODES);
    let outcome = program.run(backend);
    outcome.assert_clean();
    verify();
    let stats = outcome.report().stats.by_kind.clone();
    assert!(!stats.is_empty(), "{} on {name} sent nothing", app.name());
    stats
}

/// The rt and TCP cells of `app` send the simulator's
/// table, kind by kind.
fn assert_agreement(app: App, sim: Backend, rt: Backend, tcp: Backend) {
    let want = by_kind(app, sim);
    let mut wall = vec![rt];
    match munin_api::tcp_support() {
        Ok(()) => wall.push(tcp),
        Err(notice) => eprintln!("NOTICE: skipping the TCP fabric in fabric agreement: {notice}"),
    }
    for backend in wall {
        let name = backend.name();
        let got = by_kind(app, backend);
        assert_eq!(got, want, "{} on {name} disagrees with the simulator", app.name());
    }
}

#[test]
fn munin_matmul_gauss_and_life_send_the_same_messages_on_every_fabric() {
    for app in [App::Matmul, App::Gauss, App::Life] {
        let cfg = MuninConfig::default;
        assert_agreement(app, Backend::sim(cfg()), Backend::rt(cfg()), Backend::tcp(cfg()));
    }
}

#[test]
fn tardis_matmul_gauss_and_fft_send_the_same_messages_on_every_fabric() {
    for app in [App::Matmul, App::Gauss, App::Fft] {
        let cfg = TardisConfig::default;
        assert_agreement(app, Backend::sim(cfg()), Backend::rt(cfg()), Backend::tcp(cfg()));
    }
}
