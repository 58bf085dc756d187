//! Coverage-guided protocol-state exploration: an AFL-style corpus loop
//! over campaign plans.
//!
//! Blind seed batches spend most of their budget re-exercising the same
//! handful of protocol paths. Explore mode closes the loop: every
//! execution runs with a fresh [`CoverageMap`] attached, and a plan that
//! fires a (protocol, object, state, event) transition the campaign has
//! not seen before is *interesting* — it joins the corpus and becomes
//! mutation fodder. Mutations splice extra healing faults in, retime
//! fault windows, retype operations (a plain write becomes a locked RMW,
//! a read becomes an atomic add, ...), retype objects (a write-many cell
//! becomes read-mostly or producer-consumer — protocols the uniform
//! generator never declares), duplicate rounds with fresh labels, and —
//! on Tardis targets — retime the lease/decay geometry.
//!
//! Tardis exploration is additionally seeded with a deterministic
//! **decay soak sweep**: a lease-heavy publish/subscribe plan run across a
//! grid of `decay_us` x `lease` values (see [`decay_sweep_plans`]), the
//! first systematic exercise of the timer-driven lease-decay sweep. Every
//! sweep run's history goes through the ordinary campaign checker, so a
//! lease geometry that loses an update fails the exploration.
//!
//! Everything is deterministic: one u64 seed fixes the fresh-plan stream,
//! the mutation choices, and (on the simulator) every verdict, so a
//! coverage-found failure replays from its plan TOML alone.

use crate::exec::{execute, ExecOptions};
use crate::gen::{generate_with, GenConfig};
use crate::manifest::{Goal, MustReach};
use crate::plan::{CellType, FaultSpec, InteractionPlan, PlanOp, Round};
use munin_api::{Backend, Proto};
use munin_net::seed::derive;
use munin_obs::{CoverageMap, CoverageSnapshot};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// Knobs for one exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Where every run executes, protocol config included.
    pub backend: Backend,
    /// Total executions to spend (sweep seeds and mutants included).
    pub budget: usize,
    /// Bounds for the fresh-plan stream.
    pub gen: GenConfig,
    /// Execution options every run shares (the coverage map is overridden
    /// per run).
    pub opts: ExecOptions,
}

impl ExploreConfig {
    pub fn new(backend: Backend, budget: usize) -> Self {
        ExploreConfig { backend, budget, gen: GenConfig::default(), opts: ExecOptions::default() }
    }

    fn is_tardis(&self) -> bool {
        matches!(self.backend.proto(), Some(Proto::Tardis(_)))
    }
}

/// The result of one exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    pub seed: u64,
    pub backend: Backend,
    pub executed: usize,
    /// Union coverage across every execution (counts accumulate).
    pub coverage: CoverageSnapshot,
    /// Plans that discovered at least one new transition, in discovery
    /// order (the corpus).
    pub corpus: Vec<InteractionPlan>,
    /// Plans whose campaign verdict failed, with the failure reasons.
    pub failures: Vec<(InteractionPlan, Vec<String>)>,
    /// Every must-reach goal for the backend's protocol, with its verdict.
    pub goals: Vec<(Goal, bool)>,
}

impl ExploreReport {
    pub fn all_goals_reached(&self) -> bool {
        self.goals.iter().all(|(_, reached)| *reached)
    }

    /// Exploration passes when every run's history checked out and every
    /// must-reach goal was covered.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.all_goals_reached()
    }

    /// The human coverage report `munin-campaign explore` prints.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "explore: target {}, seed {}, {} executions, corpus {}, failures {}",
            self.backend.cli_name(),
            self.seed,
            self.executed,
            self.corpus.len(),
            self.failures.len()
        );
        let _ = writeln!(
            out,
            "distinct transitions: {} ({} total firings)",
            self.coverage.distinct(),
            self.coverage.total()
        );
        let reached = self.goals.iter().filter(|(_, r)| *r).count();
        let _ = writeln!(out, "must-reach goals: {reached}/{} reached", self.goals.len());
        for (g, r) in &self.goals {
            let _ = writeln!(out, "  [{}] {} — {}", if *r { "x" } else { " " }, g.key, g.about);
        }
        for (plan, reasons) in &self.failures {
            let _ = writeln!(
                out,
                "FAIL seed {}: {}",
                plan.seed,
                reasons.first().map(String::as_str).unwrap_or("unknown")
            );
        }
        out.push_str("coverage:\n");
        out.push_str(&self.coverage.to_text());
        out
    }
}

/// Run a coverage-guided exploration. See the module docs.
pub fn explore(seed: u64, cfg: &ExploreConfig) -> Result<ExploreReport, String> {
    let mut rng = SmallRng::seed_from_u64(derive(seed, "explore-mutate"));
    let mut union = CoverageSnapshot::default();
    let mut corpus: Vec<InteractionPlan> = Vec::new();
    let mut failures = Vec::new();
    let mut executed = 0usize;
    let mut fresh = 0u64;

    // Deterministic seed queue: Tardis targets open with the decay soak
    // sweep so the lease-expiry paths are exercised systematically, not by
    // luck.
    let mut queue: VecDeque<InteractionPlan> =
        if cfg.is_tardis() { decay_sweep_plans(seed).into() } else { VecDeque::new() };

    while executed < cfg.budget {
        let plan = if let Some(p) = queue.pop_front() {
            p
        } else if corpus.is_empty() || rng.gen_bool(0.35) {
            fresh += 1;
            fresh_plan(seed, fresh, &cfg.gen)
        } else {
            let parent = corpus[rng.gen_range(0..corpus.len())].clone();
            mutate(&parent, &mut rng, cfg.is_tardis())
        };
        let mut opts = cfg.opts.clone();
        let map = Arc::new(CoverageMap::new());
        opts.coverage = Some(map.clone());
        let out = execute(&plan, &cfg.backend, &opts)?;
        executed += 1;
        let snap = out.coverage.clone().unwrap_or_default();
        if snap.covers_new(&union) {
            corpus.push(plan.clone());
        }
        union.merge(&snap);
        if !out.passed() {
            failures.push((plan, out.reasons.clone()));
        }
    }

    let proto = cfg.backend.proto().ok_or("explore needs a protocol backend")?;
    let manifest = MustReach::for_proto(proto.name());
    let goals = manifest.goals.iter().map(|g| (g.clone(), g.reached(&union))).collect();
    Ok(ExploreReport {
        seed,
        backend: cfg.backend.clone(),
        executed,
        coverage: union,
        corpus,
        failures,
        goals,
    })
}

/// The control arm the acceptance criterion compares against: the same
/// budget spent on uniform-random plans drawn from the *same* fresh-plan
/// stream `explore` uses, with no corpus and no mutation.
pub fn uniform_baseline(seed: u64, cfg: &ExploreConfig) -> Result<CoverageSnapshot, String> {
    let mut union = CoverageSnapshot::default();
    for i in 0..cfg.budget {
        let plan = fresh_plan(seed, i as u64 + 1, &cfg.gen);
        let mut opts = cfg.opts.clone();
        let map = Arc::new(CoverageMap::new());
        opts.coverage = Some(map.clone());
        let out = execute(&plan, &cfg.backend, &opts)?;
        union.merge(&out.coverage.unwrap_or_default());
    }
    Ok(union)
}

/// The i-th fresh plan of an exploration seeded with `seed`.
fn fresh_plan(seed: u64, i: u64, gen: &GenConfig) -> InteractionPlan {
    generate_with(derive(seed, &format!("explore-fresh-{i}")), gen)
}

/// The decay soak sweep: one lease-heavy publish/subscribe plan per point
/// of a small `decay_us` x `lease` grid. Rounds alternate a remote write
/// with remote reads separated by enough modelled compute that leases
/// expire, renew, and — in the idle tail — decay out of the cache.
pub fn decay_sweep_plans(seed: u64) -> Vec<InteractionPlan> {
    const GRID: [(u64, u64); 4] = [(500, 8), (500, 64), (2_000, 8), (10_000, 64)];
    GRID.iter()
        .enumerate()
        .map(|(i, (decay_us, lease))| {
            let mut plan = InteractionPlan::skeleton(2, 2);
            plan.seed = derive(seed, &format!("decay-sweep-{i}"));
            plan.free_cells = 1;
            plan.counters = 1;
            plan.tardis_lease = Some(*lease);
            plan.tardis_decay_us = Some(*decay_us);
            for label in 1u32..=6 {
                plan.rounds.push(Round {
                    ops: vec![
                        vec![
                            PlanOp::Write { cell: 0, label },
                            PlanOp::Compute { us: 3_000 },
                            PlanOp::FetchAdd { counter: 0, delta: 1 },
                        ],
                        vec![
                            PlanOp::Read { cell: 0 },
                            PlanOp::Compute { us: 3_000 },
                            PlanOp::Read { cell: 0 },
                        ],
                    ],
                });
            }
            // Idle tail: no further touches of the cell, plenty of virtual
            // time — the decay sweep's chance to evict the stale lease.
            plan.rounds.push(Round {
                ops: vec![
                    vec![PlanOp::Compute { us: 30_000 }, PlanOp::FetchAdd { counter: 0, delta: 1 }],
                    vec![PlanOp::Compute { us: 30_000 }, PlanOp::FetchAdd { counter: 0, delta: 1 }],
                ],
            });
            debug_assert_eq!(plan.validate(), Ok(()));
            plan
        })
        .collect()
}

/// Largest write label in the plan (0 when it has none).
fn max_label(plan: &InteractionPlan) -> u32 {
    plan.rounds
        .iter()
        .flat_map(|r| r.ops.iter().flatten())
        .filter_map(|op| match op {
            PlanOp::Write { label, .. }
            | PlanOp::AsyncWrite { label, .. }
            | PlanOp::LockedRmw { label, .. } => Some(*label),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// Produce a mutated child of `parent`. Tries up to eight mutations and
/// returns the first structurally valid one; falls back to the unmutated
/// parent (a wasted but harmless execution) if none validates. Only Tardis
/// runs (`tardis`) retime the lease geometry.
fn mutate(parent: &InteractionPlan, rng: &mut SmallRng, tardis: bool) -> InteractionPlan {
    for _ in 0..8 {
        let mut cand = parent.clone();
        let kind = rng.gen_range(0u32..6);
        let ok = match kind {
            0 => splice_fault(&mut cand, rng),
            1 => retime_fault(&mut cand, rng) || splice_fault(&mut cand, rng),
            2 => retype_op(&mut cand, rng),
            3 => clone_round(&mut cand, rng),
            4 => retype_cell(&mut cand, rng),
            _ => {
                if tardis {
                    retime_tardis(&mut cand, rng)
                } else {
                    retype_cell(&mut cand, rng)
                }
            }
        };
        if ok && cand.validate().is_ok() {
            return cand;
        }
    }
    parent.clone()
}

/// Healing fault windows, matching the generator's bounds: well inside the
/// simulator's hold budget (see `gen.rs`).
fn heal_window(rng: &mut SmallRng) -> (u64, u64) {
    let from = rng.gen_range(5_000..=40_000);
    (from, from + rng.gen_range(10_000..=60_000))
}

/// Splice one extra healing fault into the plan.
fn splice_fault(plan: &mut InteractionPlan, rng: &mut SmallRng) -> bool {
    if plan.faults.len() >= 4 {
        return false;
    }
    let (from_us, until_us) = heal_window(rng);
    let fault = match rng.gen_range(0u32..5) {
        0 => FaultSpec::Loss { per_mille: rng.gen_range(5..=150) },
        1 => FaultSpec::Jitter { max_us: rng.gen_range(200..=5_000) },
        2 => FaultSpec::ClockSkew {
            thread: rng.gen_range(0..plan.n_threads),
            us: rng.gen_range(1_000..=20_000),
        },
        3 => {
            if plan.n_nodes < 2 {
                return false;
            }
            FaultSpec::Isolate { node: rng.gen_range(0..plan.n_nodes as u16), from_us, until_us }
        }
        _ => {
            if plan.n_nodes < 2 {
                return false;
            }
            let k = rng.gen_range(1..plan.n_nodes);
            let mut nodes: Vec<u16> = (0..plan.n_nodes as u16).collect();
            for i in (1..nodes.len()).rev() {
                nodes.swap(i, rng.gen_range(0..=i));
            }
            nodes.truncate(k);
            nodes.sort_unstable();
            FaultSpec::Partition { group: nodes, from_us, until_us }
        }
    };
    plan.faults.push(fault);
    true
}

/// Re-draw the window of one windowed fault.
fn retime_fault(plan: &mut InteractionPlan, rng: &mut SmallRng) -> bool {
    let windowed: Vec<usize> = plan
        .faults
        .iter()
        .enumerate()
        .filter(|(_, f)| matches!(f, FaultSpec::Partition { .. } | FaultSpec::Isolate { .. }))
        .map(|(i, _)| i)
        .collect();
    if windowed.is_empty() {
        return false;
    }
    let i = windowed[rng.gen_range(0..windowed.len())];
    let (from, until) = heal_window(rng);
    match &mut plan.faults[i] {
        FaultSpec::Partition { from_us, until_us, .. }
        | FaultSpec::Isolate { from_us, until_us, .. } => {
            *from_us = from;
            *until_us = until;
            true
        }
        _ => false,
    }
}

/// Retype one operation: move the access onto a different object class so
/// a different protocol (write-many twin/flush, migratory lock-carried
/// migration, general-rw ownership) handles it.
fn retype_op(plan: &mut InteractionPlan, rng: &mut SmallRng) -> bool {
    let r = rng.gen_range(0..plan.rounds.len().max(1));
    let Some(round) = plan.rounds.get_mut(r) else { return false };
    let busy: Vec<usize> = (0..round.ops.len()).filter(|t| !round.ops[*t].is_empty()).collect();
    if busy.is_empty() {
        return false;
    }
    let t = busy[rng.gen_range(0..busy.len())];
    let i = rng.gen_range(0..round.ops[t].len());
    let label = max_label(plan) + 1;
    let choice = rng.gen_range(0u32..4);
    let round = plan.rounds.get_mut(r).expect("checked");
    let op = &mut round.ops[t][i];
    *op = match choice {
        0 => {
            if plan.locked_cells == 0 {
                plan.locked_cells = 1;
            }
            PlanOp::LockedRmw { lcell: rng.gen_range(0..plan.locked_cells), label }
        }
        1 => {
            if plan.counters == 0 {
                plan.counters = 1;
            }
            PlanOp::FetchAdd {
                counter: rng.gen_range(0..plan.counters),
                delta: rng.gen_range(1..=5),
            }
        }
        2 => {
            if plan.free_cells == 0 {
                plan.free_cells = 1;
            }
            PlanOp::Read { cell: rng.gen_range(0..plan.free_cells) }
        }
        _ => {
            if plan.free_cells == 0 {
                plan.free_cells = 1;
            }
            PlanOp::AsyncWrite { cell: rng.gen_range(0..plan.free_cells), label }
        }
    };
    true
}

/// Append a copy of one round with every write label freshened (labels are
/// unique plan-wide).
fn clone_round(plan: &mut InteractionPlan, rng: &mut SmallRng) -> bool {
    if plan.rounds.is_empty() || plan.rounds.len() >= 10 {
        return false;
    }
    let mut next = max_label(plan) + 1;
    let mut round = plan.rounds[rng.gen_range(0..plan.rounds.len())].clone();
    for ops in &mut round.ops {
        for op in ops {
            if let PlanOp::Write { label, .. }
            | PlanOp::AsyncWrite { label, .. }
            | PlanOp::LockedRmw { label, .. } = op
            {
                *label = next;
                next += 1;
            }
        }
    }
    plan.rounds.push(round);
    true
}

/// Retype one free cell's sharing annotation: write-many becomes
/// read-mostly or producer-consumer, handing the same access schedule to
/// a different loose-coherence protocol. The uniform generator never
/// leaves write-many, so this mutation opens protocol paths blind
/// generation cannot reach.
fn retype_cell(plan: &mut InteractionPlan, rng: &mut SmallRng) -> bool {
    if plan.free_cells == 0 {
        return false;
    }
    if plan.cell_types.len() != plan.free_cells {
        plan.cell_types = vec![CellType::WriteMany; plan.free_cells];
    }
    let i = rng.gen_range(0..plan.free_cells);
    plan.cell_types[i] =
        if rng.gen_bool(0.5) { CellType::ReadMostly } else { CellType::ProducerConsumer };
    true
}

/// Retime the Tardis lease geometry (Tardis targets only): this is how the
/// corpus walks the decay sweep into regimes the seeded grid missed.
fn retime_tardis(plan: &mut InteractionPlan, rng: &mut SmallRng) -> bool {
    const DECAYS: [u64; 6] = [200, 500, 1_000, 2_500, 5_000, 20_000];
    const LEASES: [u64; 5] = [4, 8, 16, 64, 128];
    plan.tardis_decay_us = Some(DECAYS[rng.gen_range(0..DECAYS.len())]);
    plan.tardis_lease = Some(LEASES[rng.gen_range(0..LEASES.len())]);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_sweep_plans_are_valid_and_deterministic() {
        let a = decay_sweep_plans(7);
        let b = decay_sweep_plans(7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        for p in &a {
            p.validate().unwrap();
            assert!(p.tardis_decay_us.is_some() && p.tardis_lease.is_some());
            let back = InteractionPlan::from_toml(&p.to_toml()).unwrap();
            assert_eq!(&back, p, "sweep plans must survive their own TOML");
        }
    }

    #[test]
    fn mutations_preserve_validity() {
        let mut rng = SmallRng::seed_from_u64(3);
        for seed in 0..10u64 {
            let parent = crate::gen::generate(seed);
            for _ in 0..20 {
                let child = mutate(&parent, &mut rng, true);
                child.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
        }
    }

    #[test]
    fn mutations_actually_change_plans() {
        let mut rng = SmallRng::seed_from_u64(4);
        let parent = crate::gen::generate(11);
        let changed = (0..30).filter(|_| mutate(&parent, &mut rng, false) != parent).count();
        assert!(changed >= 20, "only {changed}/30 mutations changed the plan");
    }
}
