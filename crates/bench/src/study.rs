//! E1–E3: the sharing study and Figure 1.

use crate::table::Table;
use munin_api::Backend;
use munin_apps::App;
use munin_trace::{classify, study_stats, StudyTracer};
use munin_types::{MuninConfig, SharingType};
use std::collections::BTreeMap;

/// Run one app under the study tracer and return (verdicts, stats).
fn trace_app(app: App, nodes: usize) -> (Vec<munin_trace::ObjectVerdict>, munin_trace::StudyStats) {
    let (p, verify) = app.build_default(nodes);
    let decls = p.objects();
    let (tracer, log) = StudyTracer::new();
    let backend = Backend::sim(MuninConfig::default());
    let transport = munin_sim::TransportConfig::lossless(MuninConfig::default().cost);
    let out = p.run_with(backend, transport, Some(tracer));
    out.assert_clean();
    verify();
    let log = log.lock().expect("log");
    (classify(&log, &decls), study_stats(&log))
}

/// E1 — the §2 taxonomy table: per program, objects and accesses per
/// sharing category (as *classified from the trace*, not from annotations).
pub fn e1_taxonomy(nodes: usize) -> Table {
    let mut t = Table::new(
        "E1",
        "sharing-pattern taxonomy per program (objects / accesses, trace-classified)",
        &[
            "program",
            "write-once",
            "write-many",
            "result",
            "migratory",
            "prod-cons",
            "private",
            "read-mostly",
            "general-rw",
            "agreement",
        ],
    );
    for app in App::ALL {
        let (verdicts, _) = trace_app(app, nodes);
        let mut objs: BTreeMap<SharingType, (u64, u64)> = BTreeMap::new();
        let mut agree = 0usize;
        for v in &verdicts {
            let e = objs.entry(v.classified).or_default();
            e.0 += 1;
            e.1 += v.accesses;
            if v.classified == v.declared {
                agree += 1;
            }
        }
        let cell = |s: SharingType| -> String {
            match objs.get(&s) {
                Some((o, a)) => format!("{o}/{a}"),
                None => "-".into(),
            }
        };
        t.row(vec![
            app.name().into(),
            cell(SharingType::WriteOnce),
            cell(SharingType::WriteMany),
            cell(SharingType::Result),
            cell(SharingType::Migratory),
            cell(SharingType::ProducerConsumer),
            cell(SharingType::Private),
            cell(SharingType::ReadMostly),
            cell(SharingType::GeneralReadWrite),
            format!("{agree}/{}", verdicts.len()),
        ]);
    }
    t.note("paper finding 1: very few general read-write objects");
    t.note("'agreement' counts objects whose trace classification matches the source annotation");
    t
}

/// E2 — the study's summary findings: read fractions by phase, sync gaps.
pub fn e2_study_stats(nodes: usize) -> Table {
    let mut t = Table::new(
        "E2",
        "access statistics per program (paper findings 3 and 4)",
        &[
            "program",
            "reads",
            "writes",
            "readB% (init)",
            "readB% (compute)",
            "sync ops",
            "data gap us",
            "lock gap us",
        ],
    );
    for app in App::ALL {
        let (_, s) = trace_app(app, nodes);
        t.row(vec![
            app.name().into(),
            s.reads.to_string(),
            s.writes.to_string(),
            format!("{:.1}", 100.0 * s.init_byte_read_fraction()),
            format!("{:.1}", 100.0 * s.compute_byte_read_fraction()),
            s.sync_ops.to_string(),
            format!("{:.0}", s.data_gap_mean_us),
            format!("{:.0}", s.lock_gap_mean_us),
        ]);
    }
    t.note(
        "readB% = byte-weighted read fraction (closest analogue of the paper's word-level traces;",
    );
    t.note("our DSM operations are block-granular, so plain op counts under-count reads)");
    t.note("paper finding 3: the overwhelming majority of accesses are reads, except during initialization");
    t.note("paper finding 4: latency between sync-object accesses exceeds data-access latency");
    t
}

/// E3 — Figure 1: legal read results under strict vs loose coherence.
pub fn e3_figure1() -> Table {
    use munin_check::figure1;
    let mut t = Table::new(
        "E3",
        "Figure 1 — legal values at each read under the two coherence definitions",
        &["read", "strict", "loose-legal writes"],
    );
    let strict = figure1::strict_outcome();
    let loose = figure1::loose_sets();
    for i in 0..3 {
        let set: Vec<String> = loose[i]
            .iter()
            .map(|w| if *w == 0 { "init".into() } else { format!("W{w}") })
            .collect();
        t.row(vec![format!("R{}", i + 1), format!("W{}", strict[i]), set.join(", ")]);
    }
    t.note("paper: R1/R2 may read any of W1..W5 (R2 must not precede R1); R3 must read W4 or W5");
    t.note(
        "'init' marks the formally-legal pre-synchronization value the prose does not enumerate",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_matches_paper_claims() {
        let t = e3_figure1();
        assert_eq!(t.cell(0, 1), "W2");
        assert_eq!(t.cell(1, 1), "W5");
        assert_eq!(t.cell(2, 1), "W5");
        assert_eq!(t.cell(2, 2), "W4, W5", "R3 restricted by the synchronization");
        for w in 1..=5 {
            assert!(t.cell(0, 2).contains(&format!("W{w}")), "W{w} legal at R1");
        }
    }

    #[test]
    fn e1_has_few_general_rw_objects() {
        // The paper's central claim about the taxonomy. Small scale for test
        // speed; matmul + life suffice to check the mechanics.
        let t = e1_taxonomy(3);
        assert_eq!(t.rows.len(), 6);
        for row in 0..t.rows.len() {
            let cell = t.cell(row, 8); // general-rw column
            let objs: u64 =
                if cell == "-" { 0 } else { cell.split('/').next().unwrap().parse().unwrap() };
            assert!(objs <= 2, "{}: too many general-rw objects ({cell})", t.cell(row, 0));
        }
    }

    #[test]
    fn e2_compute_phase_is_read_biased_vs_init() {
        // Finding 3's shape: initialization is write-dominated, the
        // computation phase is read-dominated — program by program.
        let t = e2_study_stats(3);
        let mut contrast_holds = 0;
        for r in 0..t.rows.len() {
            let init = t.num(r, 3);
            let compute = t.num(r, 4);
            if compute > init + 10.0 {
                contrast_holds += 1;
            }
        }
        assert!(contrast_holds >= 5, "init-vs-compute read contrast held for {contrast_holds}/6");
        // And averaged over programs, compute-phase reads dominate writes.
        let mean: f64 = (0..t.rows.len()).map(|r| t.num(r, 4)).sum::<f64>() / t.rows.len() as f64;
        assert!(mean > 50.0, "mean compute-phase byte read fraction {mean}");
    }
}
