//! Plan execution: lower an [`InteractionPlan`] onto a backend, record the
//! observation log, and judge the result.
//!
//! The same plan runs on the virtual-time simulator (all fault classes) or
//! the multi-process TCP fabric (process-level faults only — see
//! [`crate::fault::tcp_compatible`]). Application threads always run in
//! the driving process (the TCP coordinator hosts them too), so one shared
//! recorder collects [`ObsEvent`]s on every backend. Recording order is
//! chosen to keep the checker sound under real concurrency: writes at
//! intent, reads at completion, lock acquire after the grant / release
//! before the release (recorded critical sections can only shrink), and
//! barrier arrivals before the barrier call.
//!
//! The verdict combines:
//!
//! * the coherence checker over the recorded log ([`check_campaign`] —
//!   always a failure when it flags anything),
//! * the run report (a plan whose faults all heal must end clean),
//! * counter totals (on an expected-clean run, each counter's final value
//!   must equal the sum of the plan's deltas — the classic lost-update
//!   detector).

use crate::fault::{clock_skews, sim_transport, tcp_compatible, tcp_fault};
use crate::plan::{CellType, InteractionPlan, PlanOp};
use munin_api::{
    Backend, Fabric, OpToken, Par, ParTyped, ProgramBuilder, Proto, RtTuning, SharedScalar,
};
use munin_check::{check_campaign, CampaignHistory, ObsEvent, Violation};
use munin_types::{LockId, ObjectDecl, ObjectId, SharingType, ThreadId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Every backend a campaign runs on, in the order `--list-targets` prints
/// them: each protocol on the simulator (every fault class), then on the
/// TCP fabric (process-level faults). The real-time kernel can inject
/// neither, and native has no protocol to check.
pub fn campaign_backends() -> Vec<Backend> {
    [Fabric::Sim, Fabric::Tcp]
        .into_iter()
        .flat_map(|f| Backend::matrix().into_iter().filter(move |b| b.fabric() == Some(f)))
        .collect()
}

/// Parse a `--backend` argument into one of [`campaign_backends`].
pub fn parse_backend(s: &str) -> Result<Backend, String> {
    let allowed = campaign_backends();
    let name = Backend::parse(s).map(|b| b.name());
    allowed.iter().find(|b| Some(b.name()) == name).cloned().ok_or_else(|| {
        let names: Vec<String> = allowed.iter().map(Backend::cli_name).collect();
        format!("no campaign backend `{s}`: campaigns run on {}", names.join(", "))
    })
}

/// Probe whether `backend` can run here (the TCP fabric needs loopback
/// sockets and the `munin-node` binary).
pub fn supported(backend: &Backend) -> Result<(), String> {
    if backend.is_distributed() {
        munin_api::tcp_support()
    } else {
        Ok(())
    }
}

/// Execution knobs that are not part of the plan.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Stall-watchdog timeout for the TCP fabric. Campaigns keep it tight
    /// — a hung fault path should be caught in milliseconds, not the
    /// leisurely default — which doubles as the "watchdog-tight timeout"
    /// fault pressure of the harness.
    pub tcp_stall: Duration,
    /// Transition coverage map to attach to the run (explore mode). Every
    /// protocol server notes its state transitions into it; `None` (the
    /// default) costs one predicted branch per note site.
    pub coverage: Option<Arc<munin_obs::CoverageMap>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { tcp_stall: Duration::from_millis(800), coverage: None }
    }
}

/// Placeholder `observed_prev` for an async fetch-add whose token was never
/// redeemed (the run died first). Deltas are positive from an initial value
/// of zero, so no real observation can be this. Unredeemed placeholders are
/// stripped before judging — an unobserved op is simply not in the history.
const PENDING_PREV: i64 = i64::MIN;

/// The judged result of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    pub seed: u64,
    pub backend: Backend,
    /// Did the run finish without errors or teardown?
    pub clean: bool,
    /// Run errors from the report (panics, deadlock/stall diagnostics,
    /// transport give-ups, lost peers).
    pub errors: Vec<String>,
    /// Coherence violations the checker found in the observation log.
    pub violations: Vec<Violation>,
    /// Failure reasons; empty means the campaign passed.
    pub reasons: Vec<String>,
    /// Final counter values as read back by thread 0 (empty if the run
    /// died before the read-back).
    pub final_counters: Vec<i64>,
    /// Network traffic totals from the run — scenarios assert on these
    /// (e.g. a healed partition must hold its messages, never give up).
    pub stats: munin_net::NetStats,
    /// Injected faults that landed while some thread had two or more ops
    /// in flight (`RunReport::pipelined_faults`; simulator targets only).
    pub pipelined_faults: u64,
    /// Telemetry snapshot from the run (latency histograms plus the
    /// remote-op span tail). Wall-clock fabrics only — the virtual-time
    /// simulator records no telemetry, so sim targets leave this `None`.
    /// Failing shrunk plans attach it to their artifacts.
    pub metrics: Option<munin_obs::MetricsSnapshot>,
    /// Transition coverage recorded by this run, when a map was attached
    /// via [`ExecOptions::coverage`]. The snapshot is taken after the run,
    /// so a fresh per-run map yields per-run coverage and a shared map
    /// yields the running union.
    pub coverage: Option<munin_obs::CoverageSnapshot>,
}

impl CampaignOutcome {
    pub fn passed(&self) -> bool {
        self.reasons.is_empty()
    }

    /// One-line verdict, with the replay command on failure.
    pub fn verdict_line(&self) -> String {
        if self.passed() {
            format!("PASS seed {} on {}", self.seed, self.backend.cli_name())
        } else {
            format!(
                "FAIL seed {} on {}: {} — replay with `munin-campaign --seed {}`",
                self.seed,
                self.backend.cli_name(),
                self.reasons.first().map(String::as_str).unwrap_or("unknown"),
                self.seed
            )
        }
    }
}

/// Execute `plan` on `backend` (a simulator or TCP cell, carrying the
/// protocol config) and judge the observation log.
pub fn execute(
    plan: &InteractionPlan,
    backend: &Backend,
    opts: &ExecOptions,
) -> Result<CampaignOutcome, String> {
    plan.validate()?;
    let tcp = backend.is_distributed();
    let proto = match backend {
        Backend::Dsm { proto, fabric: Fabric::Sim | Fabric::Tcp } => proto,
        _ => return Err(format!("campaigns cannot run on {}", backend.cli_name())),
    };
    if tcp && !tcp_compatible(plan) {
        return Err(format!(
            "plan {} carries wire-level faults the TCP fabric cannot inject; \
             run it on the simulator or strip them",
            plan.seed
        ));
    }

    let mut p = ProgramBuilder::new(plan.n_nodes);
    if let Some(map) = &opts.coverage {
        p.coverage(map.clone());
    }
    let n = plan.n_nodes;

    // The plan's lease geometry overrides travel with its TOML, so a
    // coverage-found failure replays under the exact lease/decay timing it
    // was discovered with.
    let mut proto = proto.clone();
    if let Proto::Tardis(cfg) = &mut proto {
        if let Some(l) = plan.tardis_lease {
            cfg.lease = l;
        }
        if let Some(d) = plan.tardis_decay_us {
            cfg.decay_us = d;
        }
    }

    // Declaration order fixes the dense ObjectId layout the checker
    // metadata relies on: free cells, then locked cells, then counters.
    let cells: Vec<SharedScalar<i64>> = (0..plan.free_cells)
        .map(|i| {
            let ty = match plan.cell_type(i) {
                CellType::WriteMany => SharingType::WriteMany,
                CellType::ReadMostly => SharingType::ReadMostly,
                CellType::ProducerConsumer => SharingType::ProducerConsumer,
            };
            p.scalar::<i64>(&format!("c{i}"), ty, i % n)
        })
        .collect();
    let mut locks = Vec::with_capacity(plan.locked_cells);
    let mut lcells: Vec<SharedScalar<i64>> = Vec::with_capacity(plan.locked_cells);
    for i in 0..plan.locked_cells {
        let l = p.lock(i % n);
        locks.push(l);
        lcells.push(p.scalar_decl::<i64>(
            ObjectDecl::template(format!("lc{i}"), SharingType::Migratory).with_lock(l),
            i % n,
        ));
    }
    let ctrs: Vec<SharedScalar<i64>> = (0..plan.counters)
        .map(|i| p.scalar::<i64>(&format!("ctr{i}"), SharingType::GeneralReadWrite, i % n))
        .collect();
    let bar = p.barrier(0, plan.n_threads as u32);

    let locked_cells: Vec<(ObjectId, LockId)> = (0..plan.locked_cells)
        .map(|i| (ObjectId((plan.free_cells + i) as u64), locks[i]))
        .collect();

    let events: Arc<Mutex<Vec<ObsEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let final_counters: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let skews = clock_skews(plan);

    for t in 0..plan.n_threads {
        let rounds: Vec<Vec<PlanOp>> = plan.rounds.iter().map(|r| r.ops[t].clone()).collect();
        let skew_us: u64 = skews.iter().filter(|(th, _)| *th == t).map(|(_, us)| *us).sum();
        let events = events.clone();
        let final_counters = final_counters.clone();
        let (cells, lcells, ctrs, locks) =
            (cells.clone(), lcells.clone(), ctrs.clone(), locks.clone());
        let me = ThreadId(t as u32);
        p.thread(t % n, move |par: &mut dyn Par| {
            // A panicked sibling thread may have poisoned the recorder;
            // observations are still worth keeping.
            let push = |e: ObsEvent| {
                events.lock().unwrap_or_else(|p| p.into_inner()).push(e);
            };
            // Reserve a log slot (the recorder only ever appends, so the
            // index stays valid across threads).
            let push_at = |e: ObsEvent| -> usize {
                let mut g = events.lock().unwrap_or_else(|p| p.into_inner());
                g.push(e);
                g.len() - 1
            };
            for ops in &rounds {
                if skew_us > 0 {
                    par.compute(skew_us);
                }
                // Pipelined ops park their completion tokens here and
                // redeem them in issue order before the barrier. Async
                // writes are recorded at intent like sync writes. Async
                // adds only learn their observed previous value at the
                // token wait, but the checker's per-thread counter rule
                // needs fetch-adds logged in issue order (per-thread FIFO
                // means ops apply in issue order, so previous values rise
                // in it) — so the slot is reserved at issue and the value
                // patched in at the wait.
                let mut wtoks: Vec<OpToken<()>> = Vec::new();
                let mut atoks: Vec<(usize, OpToken<i64>)> = Vec::new();
                for op in ops {
                    match op {
                        PlanOp::Write { cell, label } => {
                            push(ObsEvent::Write {
                                thread: me,
                                obj: cells[*cell].id(),
                                label: *label,
                            });
                            par.store(&cells[*cell], *label as i64);
                        }
                        PlanOp::Read { cell } => {
                            let v = par.load(&cells[*cell]);
                            push(ObsEvent::Read {
                                thread: me,
                                obj: cells[*cell].id(),
                                observed: v as u32,
                            });
                        }
                        PlanOp::LockedRmw { lcell, label } => {
                            par.lock(locks[*lcell]);
                            push(ObsEvent::Acquire { thread: me, lock: locks[*lcell] });
                            let v = par.load(&lcells[*lcell]);
                            push(ObsEvent::Read {
                                thread: me,
                                obj: lcells[*lcell].id(),
                                observed: v as u32,
                            });
                            push(ObsEvent::Write {
                                thread: me,
                                obj: lcells[*lcell].id(),
                                label: *label,
                            });
                            par.store(&lcells[*lcell], *label as i64);
                            push(ObsEvent::Release { thread: me, lock: locks[*lcell] });
                            par.unlock(locks[*lcell]);
                        }
                        PlanOp::FetchAdd { counter, delta } => {
                            let prev = par.fetch_add_scalar(&ctrs[*counter], *delta);
                            push(ObsEvent::FetchAdd {
                                thread: me,
                                obj: ctrs[*counter].id(),
                                delta: *delta,
                                observed_prev: prev,
                            });
                        }
                        PlanOp::AsyncWrite { cell, label } => {
                            push(ObsEvent::Write {
                                thread: me,
                                obj: cells[*cell].id(),
                                label: *label,
                            });
                            wtoks.push(par.store_async(&cells[*cell], *label as i64));
                        }
                        PlanOp::AsyncAdd { counter, delta } => {
                            let idx = push_at(ObsEvent::FetchAdd {
                                thread: me,
                                obj: ctrs[*counter].id(),
                                delta: *delta,
                                observed_prev: PENDING_PREV,
                            });
                            atoks.push((idx, par.fetch_add_scalar_async(&ctrs[*counter], *delta)));
                        }
                        PlanOp::Compute { us } => par.compute(*us),
                    }
                }
                for tok in wtoks {
                    par.wait(tok);
                }
                for (idx, tok) in atoks {
                    let prev = par.wait(tok);
                    let mut g = events.lock().unwrap_or_else(|p| p.into_inner());
                    if let ObsEvent::FetchAdd { observed_prev, .. } = &mut g[idx] {
                        *observed_prev = prev;
                    }
                }
                push(ObsEvent::BarrierArrive { thread: me, barrier: 0 });
                par.barrier(bar);
            }
            if t == 0 {
                // After the final barrier every delta has been applied at
                // the counters' homes; a zero-delta fetch-add reads the
                // settled value atomically.
                let finals: Vec<i64> = ctrs.iter().map(|c| par.fetch_add_scalar(c, 0)).collect();
                *final_counters.lock().unwrap_or_else(|p| p.into_inner()) = finals;
            }
        });
    }

    let report = if tcp {
        let mut tuning = RtTuning::default();
        tuning.stall_timeout = opts.tcp_stall;
        // Full span telemetry: when a seed fails and shrinks, the
        // minimized plan's artifact carries the causal remote-op spans
        // from the failing run.
        tuning.telemetry = munin_types::Telemetry::Spans;
        p.rt_tuning(tuning);
        if let Some(f) = tcp_fault(plan) {
            p.inject_tcp_fault(f);
        }
        p.run(Backend::tcp(proto))
    } else {
        let transport = sim_transport(plan, proto.cost().clone());
        p.run_with(Backend::sim(proto), transport, None)
    };
    let report = report.report().clone();

    let mut recorded = std::mem::take(&mut *events.lock().unwrap_or_else(|p| p.into_inner()));
    recorded.retain(|e| !matches!(e, ObsEvent::FetchAdd { observed_prev: PENDING_PREV, .. }));
    let history = CampaignHistory {
        n_threads: plan.n_threads,
        barrier_counts: BTreeMap::from([(0u64, plan.n_threads)]),
        events: recorded,
    };
    let violations = check_campaign(&history, &locked_cells);
    let finals = final_counters.lock().unwrap_or_else(|p| p.into_inner()).clone();

    let mut reasons = Vec::new();
    for v in violations.iter().take(5) {
        reasons.push(format!("coherence violation at event {}: {}", v.event_index, v.reason));
    }
    if violations.len() > 5 {
        reasons.push(format!("... and {} more violations", violations.len() - 5));
    }
    let clean = report.is_clean();
    if plan.expects_clean() {
        if !clean {
            reasons.push(format!(
                "expected a clean run (every fault heals) but got: {}",
                report.errors.first().map(String::as_str).unwrap_or("torn down")
            ));
        } else {
            let expected = plan.expected_counter_totals();
            if finals != expected {
                reasons.push(format!(
                    "counter totals {finals:?} != expected {expected:?} (lost update)"
                ));
            }
        }
    }

    Ok(CampaignOutcome {
        seed: plan.seed,
        backend: backend.clone(),
        clean,
        errors: report.errors.clone(),
        violations,
        reasons,
        final_counters: finals,
        stats: report.stats.clone(),
        pipelined_faults: report.pipelined_faults,
        metrics: report.metrics.clone(),
        coverage: opts.coverage.as_ref().map(|m| m.snapshot()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultSpec, Round};
    use munin_types::{IvyConfig, MuninConfig};

    fn munin() -> Backend {
        Backend::sim(MuninConfig::default())
    }

    fn handoff_plan() -> InteractionPlan {
        // Two threads pass a locked cell back and forth and bump a counter;
        // thread 0 also publishes a free cell the other reads post-barrier.
        let mut plan = InteractionPlan::skeleton(2, 2);
        plan.seed = 1;
        plan.free_cells = 1;
        plan.locked_cells = 1;
        plan.counters = 1;
        plan.rounds = vec![
            Round {
                ops: vec![
                    vec![
                        PlanOp::Write { cell: 0, label: 1 },
                        PlanOp::LockedRmw { lcell: 0, label: 2 },
                        PlanOp::FetchAdd { counter: 0, delta: 2 },
                    ],
                    vec![PlanOp::FetchAdd { counter: 0, delta: 3 }],
                ],
            },
            Round {
                ops: vec![
                    vec![PlanOp::FetchAdd { counter: 0, delta: 1 }],
                    vec![PlanOp::Read { cell: 0 }, PlanOp::LockedRmw { lcell: 0, label: 3 }],
                ],
            },
        ];
        plan
    }

    #[test]
    fn clean_plan_passes_on_munin_and_ivy() {
        for backend in [munin(), Backend::sim(IvyConfig::default())] {
            let out = execute(&handoff_plan(), &backend, &ExecOptions::default()).unwrap();
            assert!(out.passed(), "{}: {:?}", backend.name(), out.reasons);
            assert!(out.clean);
            assert_eq!(out.final_counters, vec![6]);
        }
    }

    #[test]
    fn pipelined_plan_passes_and_counts_on_sim() {
        // Async writes and adds interleaved with sync ops: totals must
        // include the async deltas and the recorded history stays coherent.
        let mut plan = InteractionPlan::skeleton(2, 2);
        plan.seed = 2;
        plan.free_cells = 1;
        plan.counters = 1;
        plan.rounds = vec![
            Round {
                ops: vec![
                    vec![
                        PlanOp::AsyncWrite { cell: 0, label: 1 },
                        PlanOp::AsyncAdd { counter: 0, delta: 2 },
                        PlanOp::AsyncAdd { counter: 0, delta: 3 },
                    ],
                    vec![PlanOp::AsyncAdd { counter: 0, delta: 4 }],
                ],
            },
            Round {
                ops: vec![
                    vec![PlanOp::FetchAdd { counter: 0, delta: 1 }],
                    vec![PlanOp::Read { cell: 0 }, PlanOp::AsyncWrite { cell: 0, label: 5 }],
                ],
            },
        ];
        for backend in [munin(), Backend::sim(IvyConfig::default())] {
            let out = execute(&plan, &backend, &ExecOptions::default()).unwrap();
            assert!(out.passed(), "{}: {:?}", backend.name(), out.reasons);
            assert_eq!(out.final_counters, vec![10]);
        }
    }

    #[test]
    fn faulty_wire_still_passes_with_reliable_delivery() {
        let mut plan = handoff_plan();
        plan.faults = vec![
            FaultSpec::Loss { per_mille: 100 },
            FaultSpec::Jitter { max_us: 2_000 },
            FaultSpec::ClockSkew { thread: 1, us: 5_000 },
        ];
        let out = execute(&plan, &munin(), &ExecOptions::default()).unwrap();
        assert!(out.passed(), "{:?}", out.reasons);
    }

    #[test]
    fn permanent_isolation_is_survived_without_violations() {
        // The killed node's threads stall and the run tears down; the
        // completed prefix of the history must still be coherent.
        let mut plan = handoff_plan();
        plan.faults = vec![FaultSpec::Isolate { node: 1, from_us: 0, until_us: u64::MAX }];
        let out = execute(&plan, &munin(), &ExecOptions::default()).unwrap();
        assert!(!out.clean, "a from-time-zero permanent isolation cannot end clean");
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.passed(), "unclean is expected, not a failure: {:?}", out.reasons);
    }

    #[test]
    fn wire_faults_refuse_the_tcp_target() {
        let mut plan = handoff_plan();
        plan.faults = vec![FaultSpec::Loss { per_mille: 10 }];
        let err = execute(&plan, &Backend::tcp(MuninConfig::default()), &ExecOptions::default())
            .unwrap_err();
        assert!(err.contains("cannot inject"), "{err}");
    }
}
