//! Named campaign scenarios: curated plans with expectations attached.
//!
//! These port the TCP fabric's process-fault tests (killed node,
//! half-closed stream — formerly hand-written in `crates/tcp/tests`) into
//! the campaign format, and add simulator counterparts for the same fault
//! shapes. Scenario plans are *defined* as builders but always travel
//! through their canonical TOML (`Scenario::toml`) before execution, so
//! every scenario run also exercises the plan codec end to end, and
//! `munin-campaign --export-scenario` can hand the TOML to humans.

use crate::exec::{execute, CampaignOutcome, ExecOptions};
use crate::plan::{FaultSpec, InteractionPlan, PlanOp, Round};
use munin_api::Backend;
use munin_types::{MuninConfig, TardisConfig};

/// What a scenario run must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The run ends clean and the campaign passes.
    CleanPass,
    /// The fault surfaces: the run is unclean, the observed history stays
    /// coherent, and — on the TCP fabric, where peers have names — some
    /// error names the lost peer.
    UncleanNamedPeer(&'static str),
}

/// A named, curated campaign.
pub struct Scenario {
    pub name: &'static str,
    pub about: &'static str,
    /// The backend the scenario is written for. Process-fault scenarios
    /// can also run on the simulator (faults lower to wire analogues);
    /// see [`run_on`].
    pub backend: Backend,
    pub expect: Expect,
    build: fn() -> InteractionPlan,
}

impl Scenario {
    /// The scenario's plan as canonical TOML.
    pub fn toml(&self) -> String {
        (self.build)().to_toml()
    }
}

/// A counter-hammering plan in the spirit of the old TCP fault tests: all
/// threads bump one node-0-homed counter every round with enough modelled
/// compute per round that a fault a few hundred milliseconds in always
/// lands mid-run (rounds x compute ≫ fault time on the fabric; on the
/// simulator the same plan keeps virtual time well past the fault window).
fn hammer_plan(
    n_nodes: usize,
    rounds: usize,
    compute_us: u64,
    fault: FaultSpec,
) -> InteractionPlan {
    let mut plan = InteractionPlan::skeleton(n_nodes, n_nodes);
    plan.counters = 1;
    plan.faults = vec![fault];
    for _ in 0..rounds {
        plan.rounds.push(Round {
            ops: (0..n_nodes)
                .map(|_| {
                    vec![
                        PlanOp::FetchAdd { counter: 0, delta: 1 },
                        PlanOp::Compute { us: compute_us },
                        PlanOp::FetchAdd { counter: 0, delta: 1 },
                    ]
                })
                .collect(),
        });
    }
    plan
}

/// Like [`hammer_plan`], but the counter bumps are pipelined: each thread
/// issues a burst of async fetch-adds, computes with the ops still in
/// flight, issues another burst, and only redeems the tokens at the end of
/// the round. A mid-run process fault therefore lands while the in-flight
/// window is full, exercising the fail-closed token path.
fn pipelined_hammer_plan(
    n_nodes: usize,
    rounds: usize,
    compute_us: u64,
    fault: FaultSpec,
) -> InteractionPlan {
    let mut plan = InteractionPlan::skeleton(n_nodes, n_nodes);
    plan.counters = 1;
    plan.faults = vec![fault];
    let burst =
        |n: usize| std::iter::repeat_with(|| PlanOp::AsyncAdd { counter: 0, delta: 1 }).take(n);
    for _ in 0..rounds {
        plan.rounds.push(Round {
            ops: (0..n_nodes)
                .map(|_| {
                    burst(3)
                        .chain(std::iter::once(PlanOp::Compute { us: compute_us }))
                        .chain(burst(3))
                        .collect()
                })
                .collect(),
        });
    }
    plan
}

/// All named scenarios.
pub fn all() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "tcp-kill",
            about: "kill node n1's process 300 ms into a counter hammer; \
                    the coordinator must name the lost peer and tear down promptly",
            backend: Backend::tcp(MuninConfig::default()),
            expect: Expect::UncleanNamedPeer("n1"),
            build: || hammer_plan(3, 60, 10_000, FaultSpec::TcpKill { node: 1, after_ms: 300 }),
        },
        Scenario {
            name: "tcp-half-close",
            about: "half-close the n1->n0 stream 300 ms in; the surviving \
                    reader sees EOF and names the peer",
            backend: Backend::tcp(MuninConfig::default()),
            expect: Expect::UncleanNamedPeer("n1"),
            build: || {
                hammer_plan(
                    3,
                    60,
                    10_000,
                    FaultSpec::TcpHalfClose { node: 1, peer: 0, after_ms: 300 },
                )
            },
        },
        Scenario {
            name: "tcp-kill-pipelined",
            about: "kill node n1 while every thread has a full window of \
                    pipelined fetch-adds in flight; the failure must reach \
                    an outstanding token, name the peer, and tear down",
            backend: Backend::tcp(MuninConfig::default()),
            expect: Expect::UncleanNamedPeer("n1"),
            build: || {
                pipelined_hammer_plan(3, 60, 10_000, FaultSpec::TcpKill { node: 1, after_ms: 300 })
            },
        },
        Scenario {
            name: "partition-heal",
            about: "a 50 ms partition separates node 0 mid-run; the \
                    transport holds the cut messages until the heal and the \
                    run ends clean",
            backend: Backend::sim(MuninConfig::default()),
            expect: Expect::CleanPass,
            build: || {
                hammer_plan(
                    3,
                    8,
                    5_000,
                    FaultSpec::Partition { group: vec![0], from_us: 10_000, until_us: 60_000 },
                )
            },
        },
        Scenario {
            name: "tardis-lease-partition",
            about: "the same healed 50 ms partition under Tardis: leases \
                    expire during the outage, renewals are held until the \
                    heal, and the run ends clean with no lost updates",
            backend: Backend::sim(TardisConfig::default()),
            expect: Expect::CleanPass,
            build: || {
                hammer_plan(
                    3,
                    8,
                    5_000,
                    FaultSpec::Partition { group: vec![0], from_us: 10_000, until_us: 60_000 },
                )
            },
        },
        Scenario {
            name: "node-kill-sim",
            about: "permanently isolate node 1 five virtual ms in (the \
                    simulator's node kill); the transport gives up, the run \
                    tears down, and the completed history stays coherent",
            backend: Backend::sim(MuninConfig::default()),
            expect: Expect::UncleanNamedPeer("n1"),
            build: || {
                hammer_plan(
                    3,
                    8,
                    5_000,
                    FaultSpec::Isolate { node: 1, from_us: 5_000, until_us: u64::MAX },
                )
            },
        },
    ]
}

pub fn find(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

/// Run a scenario on the backend it is written for.
pub fn run(s: &Scenario, opts: &ExecOptions) -> Result<CampaignOutcome, String> {
    run_on(s, &s.backend, opts)
}

/// Run a scenario on an explicit backend and check its expectations. The
/// plan goes through TOML parse/serialize first, so a codec regression
/// fails here too. Peer-naming is only asserted on the TCP fabric —
/// simulator teardown diagnostics name the fault, not a socket peer.
pub fn run_on(
    s: &Scenario,
    backend: &Backend,
    opts: &ExecOptions,
) -> Result<CampaignOutcome, String> {
    let toml = s.toml();
    let plan = InteractionPlan::from_toml(&toml)
        .map_err(|e| format!("scenario {}: plan does not round-trip: {e}", s.name))?;
    let out = execute(&plan, backend, opts)?;
    let fail = |why: String| {
        Err(format!(
            "scenario {} on {}: {why}; errors: {:?}; reasons: {:?}",
            s.name,
            backend.cli_name(),
            out.errors,
            out.reasons
        ))
    };
    if !out.violations.is_empty() {
        return fail(format!("coherence violations: {:?}", out.violations));
    }
    match s.expect {
        Expect::CleanPass => {
            if !out.passed() || !out.clean {
                return fail("expected a clean pass".into());
            }
        }
        Expect::UncleanNamedPeer(peer) => {
            if out.clean {
                return fail("the fault never surfaced (run ended clean)".into());
            }
            if backend.is_distributed() && !out.errors.iter().any(|e| e.contains(peer)) {
                return fail(format!("no error names the lost peer {peer}"));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_are_unique_and_plans_valid() {
        let scenarios = all();
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len());
        for s in &scenarios {
            let plan = InteractionPlan::from_toml(&s.toml())
                .unwrap_or_else(|e| panic!("scenario {}: {e}", s.name));
            plan.validate().unwrap_or_else(|e| panic!("scenario {}: {e}", s.name));
        }
    }

    #[test]
    fn partition_heal_scenario_passes_on_sim() {
        let s = find("partition-heal").unwrap();
        let out = run(&s, &ExecOptions::default()).unwrap();
        assert!(out.passed());
    }

    #[test]
    fn tardis_lease_partition_heals_without_giving_up() {
        let s = find("tardis-lease-partition").unwrap();
        let out = run(&s, &ExecOptions::default()).unwrap();
        assert!(out.passed(), "{:?}", out.reasons);
        assert!(out.clean);
        assert_eq!(out.stats.gave_up, 0, "a healed partition only holds messages");
    }

    #[test]
    fn sim_node_kill_scenario_tears_down_coherently() {
        let s = find("node-kill-sim").unwrap();
        let out = run(&s, &ExecOptions::default()).unwrap();
        assert!(!out.clean);
        assert!(out.violations.is_empty());
    }

    #[test]
    fn tcp_scenarios_lower_onto_the_simulator_too() {
        // The process-fault scenarios' sim lowering: kill becomes permanent
        // isolation, so the run must still tear down without violations.
        for name in ["tcp-kill", "tcp-half-close", "tcp-kill-pipelined"] {
            let s = find(name).unwrap();
            let out = run_on(&s, &Backend::sim(MuninConfig::default()), &ExecOptions::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!out.clean, "{name}: fault must surface on sim");
        }
    }
}
