//! Cross-crate integration: every study application must produce the
//! sequential-reference result on every backend in `Backend::matrix()` —
//! each registered protocol (Munin's type-specific coherence, the Ivy
//! write-invalidate baseline, Tardis timestamp leases) on each fabric
//! (simulator, real-time kernel, multi-process TCP) plus native threads —
//! and Munin must also stay correct under its ablation configurations.

use munin_api::Backend;
use munin_apps::App;
use munin_types::{IvyConfig, MuninConfig, ReadMostlyMode, SharingType, UpdatePolicy};

fn run_app(app: App, nodes: usize, backend: Backend) {
    let name = backend.name();
    let (p, verify) = app.build_default(nodes);
    p.run(backend).assert_clean();
    // verify() panics on mismatch; wrap so a failure names the matrix cell
    // that produced it.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(verify));
    if let Err(p) = outcome {
        let msg = munin_sim::panic_message(&*p);
        panic!("{} x{nodes} on {name}: wrong result: {msg}", app.name());
    }
}

/// The in-process cells of `Backend::matrix()` plus native threads: every
/// protocol on the simulator and the real-time kernel, freshly configured
/// (the real-time kernels are scheduled by the OS, so each run is a
/// genuinely different interleaving — the agreement asserted here is
/// semantic, not rerun-of-the-same-schedule). A protocol added to the
/// matrix joins this test with no edit here.
fn all_backends() -> Vec<Backend> {
    let mut backends: Vec<Backend> =
        Backend::matrix().into_iter().filter(|b| !b.is_distributed()).collect();
    backends.push(Backend::Native);
    backends
}

/// The multi-process TCP cells of the matrix, when the environment
/// supports them (loopback sockets plus a built `munin-node` binary);
/// `None` with a notice otherwise, so sandboxes without sockets skip
/// loudly instead of failing.
fn tcp_backends() -> Option<Vec<Backend>> {
    match munin_api::tcp_support() {
        Ok(()) => Some(Backend::matrix().into_iter().filter(|b| b.is_distributed()).collect()),
        Err(notice) => {
            eprintln!("NOTICE: skipping TCP backends in cross-backend matrix: {notice}");
            None
        }
    }
}

/// The full matrix of the paper's six applications: every backend, at one
/// worker (trivial placement, everything local) and at four (real traffic,
/// and — on the rt backends — real parallelism), all producing the
/// sequential reference result bit for bit.
#[test]
fn all_apps_bit_identical_across_all_backends_at_1_and_4_workers() {
    for nodes in [1usize, 4] {
        for app in App::ALL {
            for backend in all_backends() {
                run_app(app, nodes, backend);
            }
        }
    }
}

/// The same matrix across real process boundaries: all six applications on
/// `MuninTcp` and `IvyTcp` at 1 and 4 workers (4 workers = the coordinator
/// plus three `munin-node` processes), bit-identical with the in-process
/// backends — which the matrix above already pins to the sequential
/// reference.
#[test]
fn all_apps_bit_identical_on_tcp_backends_at_1_and_4_workers() {
    let Some(backends) = tcp_backends() else { return };
    for nodes in [1usize, 4] {
        for app in App::ALL {
            for backend in &backends {
                run_app(app, nodes, backend.clone());
            }
        }
    }
}

#[test]
fn all_apps_correct_on_munin() {
    for app in App::ALL {
        run_app(app, 4, Backend::sim(MuninConfig::default()));
    }
}

#[test]
fn all_apps_correct_on_ivy_spin() {
    for app in App::ALL {
        run_app(app, 4, Backend::sim(IvyConfig::default()));
    }
}

#[test]
fn all_apps_correct_on_ivy_central() {
    for app in App::ALL {
        run_app(app, 4, Backend::sim(IvyConfig::default().with_central_locks()));
    }
}

#[test]
fn all_apps_correct_on_native() {
    for app in App::ALL {
        run_app(app, 4, Backend::Native);
    }
}

#[test]
fn all_apps_correct_with_invalidate_policies() {
    // Flip every update policy to invalidation: correctness must not depend
    // on refresh vs invalidate.
    let mut cfg = MuninConfig::default();
    cfg.write_many_policy = UpdatePolicy::Invalidate;
    cfg.pc_policy = UpdatePolicy::Invalidate;
    cfg.read_mostly = ReadMostlyMode::ReplicatedInvalidate;
    for app in App::ALL {
        run_app(app, 4, Backend::sim(cfg.clone()));
    }
}

#[test]
fn all_apps_correct_with_adaptive_policies() {
    let mut cfg = MuninConfig::default();
    cfg.write_many_policy = UpdatePolicy::Adaptive;
    cfg.read_mostly = ReadMostlyMode::Adaptive;
    cfg.adaptive_typing = true;
    for app in App::ALL {
        run_app(app, 3, Backend::sim(cfg.clone()));
    }
}

#[test]
fn all_apps_correct_without_delayed_updates() {
    // The strict write-through ablation must be slower, never wrong.
    for app in App::ALL {
        run_app(app, 3, Backend::sim(MuninConfig::default().strict()));
    }
}

#[test]
fn all_apps_correct_when_everything_is_general_read_write() {
    // Force the default protocol everywhere: the annotations are a
    // performance hint, never a correctness requirement.
    for app in App::ALL {
        let (mut p, verify) = app.build_default(3);
        p.retype_all(|_| SharingType::GeneralReadWrite);
        p.run(Backend::sim(MuninConfig::default())).assert_clean();
        verify();
    }
}

#[test]
fn all_apps_correct_on_small_pages_and_aligned_alloc() {
    let mut cfg = IvyConfig::default();
    cfg.page_size = 256;
    cfg.alloc = munin_types::AllocPolicy::PageAligned;
    cfg.sync = munin_types::SyncStrategy::CentralServer;
    for app in App::ALL {
        run_app(app, 3, Backend::sim(cfg.clone()));
    }
}

#[test]
fn munin_runs_are_deterministic_across_repeats() {
    for app in [App::Matmul, App::Life, App::Qsort] {
        let run = || {
            let (p, verify) = app.build_default(3);
            let o = p.run(Backend::sim(MuninConfig::default()));
            o.assert_clean();
            verify();
            let r = o.report();
            (r.stats.messages, r.stats.bytes, r.finished_at)
        };
        assert_eq!(run(), run(), "{} not deterministic", app.name());
    }
}

#[test]
fn hardware_multicast_reduces_messages_not_results() {
    let mut cfg = MuninConfig::default();
    cfg.cost.hardware_multicast = true;
    let (p, verify) = App::Life.build_default(4);
    let o = p.run(Backend::sim(cfg));
    o.assert_clean();
    verify();
    let hw = o.report().stats.messages;

    let (p2, verify2) = App::Life.build_default(4);
    let o2 = p2.run(Backend::sim(MuninConfig::default()));
    o2.assert_clean();
    verify2();
    let sw = o2.report().stats.messages;
    assert!(hw <= sw, "hardware multicast cannot increase traffic ({hw} vs {sw})");
    assert!(o.report().stats.multicast_saved > 0, "barrier releases use multicast");
}
