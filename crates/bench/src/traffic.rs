//! E4, E5, E12: traffic comparisons across runtimes and scales.

use crate::table::Table;
use munin_api::Backend;
use munin_apps::{matmul, App};
use munin_types::{IvyConfig, MuninConfig, SharingType};

/// Run an app and return (messages, bytes, finished_ms, ops).
fn run_app(app: App, nodes: usize, backend: Backend, all_general: bool) -> (u64, u64, f64, u64) {
    let (mut p, verify) = app.build_default(nodes);
    if all_general {
        p.retype_all(|_| SharingType::GeneralReadWrite);
    }
    let out = p.run(backend);
    out.assert_clean();
    verify();
    let r = out.report();
    (r.stats.messages, r.stats.bytes, r.finished_at.as_millis_f64(), r.ops)
}

/// E4 — the headline comparison: Munin (type-specific) vs Ivy (static
/// page-based write-invalidate) vs Munin-all-general, across all six
/// programs.
pub fn e4_munin_vs_ivy(nodes: usize) -> Table {
    let mut t = Table::new(
        "E4",
        format!("messages and bytes per program, {nodes} nodes"),
        &[
            "program",
            "munin msgs",
            "munin KB",
            "ivy msgs",
            "ivy KB",
            "ivy-central msgs",
            "munin-general msgs",
            "ivy/munin",
        ],
    );
    for app in App::ALL {
        let (mm, mb, _, _) = run_app(app, nodes, Backend::sim(MuninConfig::default()), false);
        let (im, ib, _, _) = run_app(app, nodes, Backend::sim(IvyConfig::default()), false);
        let (icm, _, _, _) =
            run_app(app, nodes, Backend::sim(IvyConfig::default().with_central_locks()), false);
        let (gm, _, _, _) = run_app(app, nodes, Backend::sim(MuninConfig::default()), true);
        t.row(vec![
            app.name().into(),
            mm.to_string(),
            format!("{:.1}", mb as f64 / 1024.0),
            im.to_string(),
            format!("{:.1}", ib as f64 / 1024.0),
            icm.to_string(),
            gm.to_string(),
            format!("{:.2}", im as f64 / mm.max(1) as f64),
        ]);
    }
    t.note("paper claim: type-specific coherence beats a single static mechanism");
    t.note(
        "munin-general = Munin with every object forced to the default general read-write protocol",
    );
    t
}

/// E5 — the matmul delayed-update story: Munin vs the strict
/// (write-through) ablation vs Ivy, against the hand-coded message-passing
/// bound.
pub fn e5_matmul_duq(nodes: usize, sizes: &[u32]) -> Table {
    let mut t = Table::new(
        "E5",
        format!("matmul result-matrix traffic, {nodes} nodes"),
        &[
            "n",
            "msgpass msgs",
            "munin msgs",
            "write-through msgs",
            "strict-C msgs",
            "ivy msgs",
            "munin KB",
            "ivy KB",
        ],
    );
    for &n in sizes {
        let cfg = matmul::MatmulCfg { n, nodes, seed: 11 };
        // The true yardstick: the hand-coded message-passing program,
        // actually executed on the same simulator.
        let (mp_result, mp_report) = crate::msgpass::run_msgpass_matmul(&cfg);
        mp_report.assert_clean();
        {
            let want = matmul::reference(&cfg);
            for (g, w) in mp_result.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "message-passing reference wrong");
            }
        }
        let ideal = mp_report.stats.messages;
        #[derive(Clone, Copy, PartialEq)]
        enum Variant {
            /// C is a result object with delayed updates (the annotation).
            Munin,
            /// Every write ships home immediately (write-through ablation).
            WriteThrough,
            /// C forced to the strictly-coherent general read-write
            /// protocol — "the result matrix (or cached portions thereof)
            /// travels between different machines".
            StrictResult,
            Ivy,
        }
        let run = |variant: Variant| {
            let c = matmul::MatmulCfg { n, nodes, seed: 11 };
            let want = matmul::reference(&c);
            let (mut p, out) = matmul::build(&c);
            let backend = match variant {
                Variant::Munin => Backend::sim(MuninConfig::default()),
                Variant::WriteThrough => Backend::sim(MuninConfig::default().strict()),
                Variant::StrictResult => {
                    p.retype_all(|s| {
                        if s == SharingType::Result {
                            SharingType::GeneralReadWrite
                        } else {
                            s
                        }
                    });
                    Backend::sim(MuninConfig::default())
                }
                Variant::Ivy => Backend::sim(IvyConfig::default()),
            };
            let o = p.run(backend);
            o.assert_clean();
            matmul::check(&out, &want);
            let r = o.report();
            (r.stats.messages_excluding_acks(), r.stats.bytes)
        };
        let (mm, mb) = run(Variant::Munin);
        let (wm, _) = run(Variant::WriteThrough);
        let (sm, _) = run(Variant::StrictResult);
        let (im, ib) = run(Variant::Ivy);
        t.row(vec![
            n.to_string(),
            ideal.to_string(),
            mm.to_string(),
            wm.to_string(),
            sm.to_string(),
            im.to_string(),
            format!("{:.1}", mb as f64 / 1024.0),
            format!("{:.1}", ib as f64 / 1024.0),
        ]);
    }
    t.note(
        "paper: 'with delayed updates, the results are propagated once to their final destination'",
    );
    t.note("msgpass = the hand-coded message-passing matmul, actually executed (crate::msgpass)");
    t
}

/// E12 — scaling: Munin traffic for every app as node count grows.
pub fn e12_scaling(node_counts: &[usize]) -> Table {
    let mut t = Table::new(
        "E12",
        "Munin message scaling with node count",
        &["program", "nodes", "msgs", "KB", "virtual ms"],
    );
    for app in App::ALL {
        for &n in node_counts {
            let (m, b, ms, _) = run_app(app, n, Backend::sim(MuninConfig::default()), false);
            t.row(vec![
                app.name().into(),
                n.to_string(),
                m.to_string(),
                format!("{:.1}", b as f64 / 1024.0),
                format!("{ms:.1}"),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_munin_beats_ivy_on_most_apps() {
        let t = e4_munin_vs_ivy(3);
        assert_eq!(t.rows.len(), 6);
        let mut wins = 0;
        for r in 0..6 {
            let munin = t.num(r, 1);
            let ivy = t.num(r, 3);
            if ivy > munin {
                wins += 1;
            }
        }
        assert!(wins >= 5, "Munin should beat Ivy on messages for at least 5/6 apps, won {wins}");
    }

    #[test]
    fn e5_duq_beats_strict_and_ivy_and_tracks_ideal() {
        let t = e5_matmul_duq(3, &[16]);
        let ideal = t.num(0, 1);
        let munin = t.num(0, 2);
        let write_through = t.num(0, 3);
        let strict_c = t.num(0, 4);
        let ivy = t.num(0, 5);
        assert!(
            munin < write_through,
            "delayed updates beat write-through ({munin} vs {write_through})"
        );
        assert!(
            munin < strict_c,
            "result annotation beats strict coherence ({munin} vs {strict_c})"
        );
        assert!(munin < ivy, "Munin beats Ivy ({munin} vs {ivy})");
        assert!(
            munin <= ideal * 6.0,
            "Munin within a small factor of hand-coded message passing ({munin} vs ideal {ideal})"
        );
    }
}
