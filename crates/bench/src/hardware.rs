//! E15 — hardware sensitivity (§4: "Performance on hardware with different
//! performance characteristics, such as higher network bandwidth or
//! increased processor speed, retains our active interest").
//!
//! The same six programs, the same two runtimes, two cost models:
//! 1990 Ethernet (1 ms/message, ~1 MB/s) and a modern fast cluster
//! (10 µs/message, ~1 GB/s, hardware multicast). Message counts are
//! hardware-independent; completion time is not — this experiment shows how
//! much of Munin's advantage is latency hiding vs. traffic avoidance.

use crate::table::Table;
use munin_api::Backend;
use munin_apps::App;
use munin_types::{CostModel, IvyConfig, MuninConfig};

fn run(app: App, nodes: usize, backend: Backend) -> (u64, f64) {
    let (p, verify) = app.build_default(nodes);
    let o = p.run(backend);
    o.assert_clean();
    verify();
    let r = o.report();
    (r.stats.messages, r.finished_at.as_millis_f64())
}

/// E15 — virtual completion time under 1990 Ethernet vs a fast cluster.
pub fn e15_hardware(nodes: usize) -> Table {
    let mut t = Table::new(
        "E15",
        format!("hardware sensitivity, {nodes} nodes: virtual completion time (ms)"),
        &[
            "program",
            "eth munin",
            "eth ivy",
            "eth ivy/munin",
            "fast munin",
            "fast ivy",
            "fast ivy/munin",
        ],
    );
    for app in App::ALL {
        let mk_munin = |cost: CostModel| {
            let mut c = MuninConfig::default();
            c.cost = cost;
            Backend::sim(c)
        };
        let mk_ivy = |cost: CostModel| {
            let mut c = IvyConfig::default().with_central_locks();
            c.cost = cost;
            Backend::sim(c)
        };
        let (_, m_eth) = run(app, nodes, mk_munin(CostModel::ethernet_1990()));
        let (_, i_eth) = run(app, nodes, mk_ivy(CostModel::ethernet_1990()));
        let (_, m_fast) = run(app, nodes, mk_munin(CostModel::fast_cluster()));
        let (_, i_fast) = run(app, nodes, mk_ivy(CostModel::fast_cluster()));
        t.row(vec![
            app.name().into(),
            format!("{m_eth:.1}"),
            format!("{i_eth:.1}"),
            format!("{:.2}", i_eth / m_eth.max(1e-9)),
            format!("{m_fast:.2}"),
            format!("{i_fast:.2}"),
            format!("{:.2}", i_fast / m_fast.max(1e-9)),
        ]);
    }
    t.note("message counts are hardware-independent; time ratios show how much of the win");
    t.note("is traffic avoidance (persists) vs latency exposure (shrinks on fast networks)");
    t.note("ivy uses the central-lock ablation so spin-loop pathologies don't dominate the clock");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_munin_never_slower_on_ethernet() {
        let t = e15_hardware(3);
        for r in 0..t.rows.len() {
            let ratio = t.num(r, 3);
            assert!(
                ratio >= 0.95,
                "{}: Munin should not be materially slower than Ivy on Ethernet (ratio {ratio})",
                t.cell(r, 0)
            );
        }
    }

    #[test]
    fn e15_gap_narrows_or_persists_on_fast_network() {
        // Both directions are plausible claims; what must hold is that the
        // fast-network ratios are finite and the table is well-formed.
        let t = e15_hardware(3);
        assert_eq!(t.rows.len(), 6);
        for r in 0..t.rows.len() {
            assert!(t.num(r, 6) > 0.0);
        }
    }
}
