//! Lowering plan-level [`FaultSpec`]s onto the two execution fabrics.
//!
//! The simulator gets the full treatment: loss, jitter and the shared
//! medium configure the transport's random streams (seeded from the plan
//! seed through [`derive()`] substreams, so fault randomness is replayable);
//! partitions and isolation windows become a [`LinkSchedule`]; and the
//! process-level faults lower to their closest wire analogue (a killed
//! node is a permanent isolation, a half-closed stream a permanent
//! single-node partition).
//!
//! The TCP fabric runs over real sockets, so wire-level faults cannot be
//! injected there — only the process-level subset lowers, via
//! [`TestFault`]. [`tcp_compatible`] reports whether a plan's fault list
//! survives the trip unchanged.

use crate::plan::{FaultSpec, InteractionPlan};
use munin_net::seed::derive;
use munin_net::{LinkFault, LinkSchedule};
use munin_sim::TransportConfig;
use munin_tcp::TestFault;
use munin_types::{CostModel, NodeId};
use std::time::Duration;

/// Build the simulator transport for a plan: `cost` comes from the backend
/// config; everything else is the plan's wire-level faults, with every
/// random stream seeded from the plan seed.
pub fn sim_transport(plan: &InteractionPlan, cost: CostModel) -> TransportConfig {
    let mut cfg = TransportConfig::lossless(cost);
    cfg.seed = derive(plan.seed, "transport");
    let mut schedule = LinkSchedule::new(Vec::new());
    for f in &plan.faults {
        match f {
            FaultSpec::Loss { per_mille } => cfg.drop_prob = *per_mille as f64 / 1000.0,
            FaultSpec::Jitter { max_us } => cfg.jitter_us = *max_us,
            FaultSpec::SerializeMedium => cfg.serialize_medium = true,
            FaultSpec::Partition { group, from_us, until_us } => {
                schedule.faults.push(LinkFault::partition(
                    group.iter().map(|n| NodeId(*n)).collect(),
                    *from_us,
                    *until_us,
                ));
            }
            FaultSpec::Isolate { node, from_us, until_us } => {
                schedule.faults.push(LinkFault::isolate(NodeId(*node), *from_us, *until_us));
            }
            // Clock skew is thread-level (extra compute injected by the
            // executor), not wire-level.
            FaultSpec::ClockSkew { .. } => {}
            // Process faults lower to their wire analogue on the simulator.
            FaultSpec::TcpKill { node, after_ms } => {
                schedule.faults.push(LinkFault::isolate(NodeId(*node), after_ms * 1000, u64::MAX));
            }
            FaultSpec::TcpHalfClose { node, after_ms, .. } => {
                schedule.faults.push(LinkFault::partition(
                    vec![NodeId(*node)],
                    after_ms * 1000,
                    u64::MAX,
                ));
            }
        }
    }
    if !schedule.is_empty() {
        cfg.link_faults = schedule;
    }
    cfg
}

/// The process-level fault to inject on the TCP fabric, if the plan has
/// one (the fabric's single fault slot takes the first).
pub fn tcp_fault(plan: &InteractionPlan) -> Option<TestFault> {
    plan.faults.iter().find_map(|f| match f {
        FaultSpec::TcpKill { node, after_ms } => {
            Some(TestFault::Exit { node: NodeId(*node), after: Duration::from_millis(*after_ms) })
        }
        FaultSpec::TcpHalfClose { node, peer, after_ms } => Some(TestFault::HalfClose {
            node: NodeId(*node),
            peer: NodeId(*peer),
            after: Duration::from_millis(*after_ms),
        }),
        _ => None,
    })
}

/// Per-thread clock-skew compute (µs injected at the top of every round).
pub fn clock_skews(plan: &InteractionPlan) -> Vec<(usize, u64)> {
    plan.faults
        .iter()
        .filter_map(|f| match f {
            FaultSpec::ClockSkew { thread, us } => Some((*thread, *us)),
            _ => None,
        })
        .collect()
}

/// Can the TCP fabric execute this plan's faults faithfully? True when
/// every fault is process-level or thread-level (at most one process
/// fault — the fabric has a single injection slot).
pub fn tcp_compatible(plan: &InteractionPlan) -> bool {
    let process = plan.faults.iter().filter(|f| f.process_level()).count();
    process <= 1
        && plan.faults.iter().all(|f| f.process_level() || matches!(f, FaultSpec::ClockSkew { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_with(faults: Vec<FaultSpec>) -> InteractionPlan {
        let mut p = InteractionPlan::skeleton(3, 3);
        p.seed = 7;
        p.faults = faults;
        p
    }

    #[test]
    fn wire_faults_configure_the_transport() {
        let p = plan_with(vec![
            FaultSpec::Loss { per_mille: 100 },
            FaultSpec::Jitter { max_us: 900 },
            FaultSpec::SerializeMedium,
            FaultSpec::Partition { group: vec![0], from_us: 10, until_us: 20 },
        ]);
        let t = sim_transport(&p, CostModel::default());
        assert!((t.drop_prob - 0.1).abs() < 1e-9);
        assert_eq!(t.jitter_us, 900);
        assert!(t.serialize_medium);
        assert_eq!(t.link_faults.faults.len(), 1);
        assert_eq!(t.seed, derive(7, "transport"), "transport streams derive from the plan seed");
    }

    #[test]
    fn process_faults_lower_to_both_fabrics() {
        let p = plan_with(vec![FaultSpec::TcpKill { node: 1, after_ms: 300 }]);
        assert_eq!(
            tcp_fault(&p),
            Some(TestFault::Exit { node: NodeId(1), after: Duration::from_millis(300) })
        );
        let t = sim_transport(&p, CostModel::default());
        assert_eq!(t.link_faults.faults.len(), 1, "kill lowers to permanent isolation on sim");
        assert!(tcp_compatible(&p));
    }

    #[test]
    fn wire_faults_are_not_tcp_compatible() {
        let p = plan_with(vec![FaultSpec::Loss { per_mille: 10 }]);
        assert!(!tcp_compatible(&p));
        assert_eq!(tcp_fault(&p), None);
    }
}
