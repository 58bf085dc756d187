//! E10 — false sharing: page granularity (Ivy) vs object granularity
//! (Munin).
//!
//! "All sharing is on a per-page basis, entailing the possibility of
//! significant amounts of false sharing." Independent per-node objects are
//! packed into the same pages; every write then fights for page ownership
//! even though no byte is actually shared.

use crate::table::Table;
use munin_api::{Backend, Par, ParTyped, ProgramBuilder};
use munin_types::{AllocPolicy, IvyConfig, MuninConfig, SharingType, SyncStrategy};

/// Each node's thread updates its own small object every round — zero true
/// sharing.
fn independent_writers(nodes: usize, rounds: usize, obj_bytes: u32) -> ProgramBuilder {
    assert_eq!(obj_bytes % 8, 0);
    let mut p = ProgramBuilder::new(nodes);
    let objs: Vec<_> = (0..nodes)
        .map(|t| p.array::<i64>(&format!("private{t}"), obj_bytes / 8, SharingType::WriteMany, t))
        .collect();
    let bar = p.barrier(0, nodes as u32);
    for t in 0..nodes {
        let mine = objs[t];
        p.thread(t, move |par: &mut dyn Par| {
            for round in 0..rounds {
                par.set(&mine, 0, round as i64);
                let v = par.get(&mine, 0);
                assert_eq!(v, round as i64);
                par.barrier(bar);
            }
        });
    }
    p
}

/// E10 — traffic of the zero-sharing workload under Ivy page sizes and
/// allocation policies vs Munin.
pub fn e10_false_sharing(nodes: usize, rounds: usize) -> Table {
    let mut t = Table::new(
        "E10",
        format!("false sharing: {nodes} independent writers, {rounds} rounds"),
        &["variant", "page B", "data msgs", "total msgs"],
    );
    // Central-server sync for Ivy so barrier traffic (identical across
    // variants) does not drown out the data-page effect.
    for page in [256u32, 1024, 4096] {
        let mut cfg = IvyConfig::default();
        cfg.page_size = page;
        cfg.alloc = AllocPolicy::Packed;
        cfg.sync = SyncStrategy::CentralServer;
        let o = independent_writers(nodes, rounds, 64).run(Backend::sim(cfg));
        o.assert_clean();
        let r = o.report();
        let data =
            r.stats.kind("WReq").count + r.stats.kind("Grant").count + r.stats.kind("Inval").count;
        t.row(vec![
            "ivy packed".into(),
            page.to_string(),
            data.to_string(),
            r.stats.messages.to_string(),
        ]);
    }
    {
        let mut cfg = IvyConfig::default();
        cfg.alloc = AllocPolicy::PageAligned;
        cfg.sync = SyncStrategy::CentralServer;
        let o = independent_writers(nodes, rounds, 64).run(Backend::sim(cfg));
        o.assert_clean();
        let r = o.report();
        let data =
            r.stats.kind("WReq").count + r.stats.kind("Grant").count + r.stats.kind("Inval").count;
        t.row(vec![
            "ivy page-aligned".into(),
            "1024".into(),
            data.to_string(),
            r.stats.messages.to_string(),
        ]);
    }
    {
        let o = independent_writers(nodes, rounds, 64).run(Backend::sim(MuninConfig::default()));
        o.assert_clean();
        let r = o.report();
        let data = r.stats.kind("FlushIn").count
            + r.stats.kind("FlushOut").count
            + r.stats.kind("ReadReq").count
            + r.stats.kind("ReadReply").count;
        t.row(vec![
            "munin (object granularity)".into(),
            "-".into(),
            data.to_string(),
            r.stats.messages.to_string(),
        ]);
    }
    t.note("objects are 64 B; packed allocation puts several nodes' objects in one page");
    t.note("Munin's per-object coherence sees zero sharing and sends (almost) nothing");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_pages_false_share_and_munin_does_not() {
        let t = e10_false_sharing(3, 6);
        let ivy_packed_small = t.num(0, 2); // 256 B pages
        let ivy_aligned = t.num(3, 2);
        let munin = t.num(4, 2);
        assert!(
            ivy_packed_small > ivy_aligned,
            "packed allocation must cost more than page-aligned ({ivy_packed_small} vs {ivy_aligned})"
        );
        assert!(
            munin <= ivy_aligned,
            "object granularity beats even aligned pages ({munin} vs {ivy_aligned})"
        );
    }
}
