//! Greedy plan shrinking: when a campaign fails, reduce the plan to a
//! (locally) minimal one that still fails, then hand the user a one-line
//! repro.
//!
//! The shrinker is generic over the failure predicate, so it works for
//! real re-executions (see [`shrink_failing`]) and for cheap synthetic
//! predicates in tests. Every candidate is structurally validated before
//! the predicate runs — a shrink step can never produce an unexecutable
//! plan. Re-executions are bounded by `budget`; the shrinker returns the
//! best plan found when the budget runs out.

use crate::exec::{execute, ExecOptions};
use crate::plan::{FaultSpec, InteractionPlan, PlanOp};
use munin_api::Backend;

/// Shrink `plan` while `fails` keeps returning true, calling `fails` at
/// most `budget` times. Returns the minimized plan and the number of
/// predicate evaluations spent. `plan` itself is assumed failing.
pub fn shrink(
    plan: &InteractionPlan,
    fails: &mut dyn FnMut(&InteractionPlan) -> bool,
    budget: usize,
) -> (InteractionPlan, usize) {
    let mut best = plan.clone();
    let mut sh = Shrinker { fails, budget, spent: 0 };

    let mut changed = true;
    while changed && sh.spent < sh.budget {
        changed = false;

        // Drop whole faults.
        for i in (0..best.faults.len()).rev() {
            let mut cand = best.clone();
            cand.faults.remove(i);
            changed |= sh.try_candidate(&mut best, cand);
        }

        // Drop whole rounds (from the back: later rounds depend on earlier
        // state, not vice versa).
        for i in (0..best.rounds.len()).rev() {
            let mut cand = best.clone();
            cand.rounds.remove(i);
            changed |= sh.try_candidate(&mut best, cand);
        }

        // Empty one thread's ops in one round.
        for r in 0..best.rounds.len() {
            for t in 0..best.n_threads {
                if best.rounds[r].ops[t].is_empty() {
                    continue;
                }
                let mut cand = best.clone();
                cand.rounds[r].ops[t].clear();
                changed |= sh.try_candidate(&mut best, cand);
            }
        }

        // Drop individual ops.
        for r in 0..best.rounds.len() {
            for t in 0..best.n_threads {
                for i in (0..best.rounds[r].ops[t].len()).rev() {
                    let mut cand = best.clone();
                    cand.rounds[r].ops[t].remove(i);
                    changed |= sh.try_candidate(&mut best, cand);
                }
            }
        }

        // Drop whole threads (reindexing clock-skew faults). Successful
        // removals shrink `best.n_threads` mid-loop, hence the re-checks.
        for t in (0..best.n_threads).rev() {
            if best.n_threads > 1 && t < best.n_threads {
                let cand = remove_thread(&best, t);
                changed |= sh.try_candidate(&mut best, cand);
            }
        }

        // Shed an unused trailing node (validation rejects the candidate
        // if a fault still references it).
        if best.n_nodes > 1 {
            let mut cand = best.clone();
            cand.n_nodes -= 1;
            changed |= sh.try_candidate(&mut best, cand);
        }

        // Compact away unreferenced cells and counters.
        let compacted = compact(&best);
        if compacted != best {
            changed |= sh.try_candidate(&mut best, compacted);
        }
    }
    (best, sh.spent)
}

struct Shrinker<'a> {
    fails: &'a mut dyn FnMut(&InteractionPlan) -> bool,
    budget: usize,
    spent: usize,
}

impl Shrinker<'_> {
    /// Adopt `cand` as the new best plan if it is valid and still fails.
    fn try_candidate(&mut self, best: &mut InteractionPlan, cand: InteractionPlan) -> bool {
        if self.spent >= self.budget || cand.validate().is_err() {
            return false;
        }
        self.spent += 1;
        if (self.fails)(&cand) {
            *best = cand;
            true
        } else {
            false
        }
    }
}

/// Shrink a failing campaign by re-executing candidates on `backend`.
/// An execution error (not a judged failure) counts as "does not fail" so
/// shrinking never walks into unrunnable territory.
pub fn shrink_failing(
    plan: &InteractionPlan,
    backend: &Backend,
    opts: &ExecOptions,
    budget: usize,
) -> (InteractionPlan, usize) {
    let opts = opts.clone();
    shrink(
        plan,
        &mut |cand| execute(cand, backend, &opts).map(|o| !o.passed()).unwrap_or(false),
        budget,
    )
}

fn remove_thread(plan: &InteractionPlan, t: usize) -> InteractionPlan {
    let mut cand = plan.clone();
    cand.n_threads -= 1;
    for round in &mut cand.rounds {
        round.ops.remove(t);
    }
    cand.faults.retain(|f| !matches!(f, FaultSpec::ClockSkew { thread, .. } if *thread == t));
    for f in &mut cand.faults {
        if let FaultSpec::ClockSkew { thread, .. } = f {
            if *thread > t {
                *thread -= 1;
            }
        }
    }
    cand
}

/// Remove declared-but-unreferenced cells and counters, remapping indices.
fn compact(plan: &InteractionPlan) -> InteractionPlan {
    let mut free_used = vec![false; plan.free_cells];
    let mut locked_used = vec![false; plan.locked_cells];
    let mut ctr_used = vec![false; plan.counters];
    for round in &plan.rounds {
        for ops in &round.ops {
            for op in ops {
                match op {
                    PlanOp::Write { cell, .. }
                    | PlanOp::Read { cell }
                    | PlanOp::AsyncWrite { cell, .. } => free_used[*cell] = true,
                    PlanOp::LockedRmw { lcell, .. } => locked_used[*lcell] = true,
                    PlanOp::FetchAdd { counter, .. } | PlanOp::AsyncAdd { counter, .. } => {
                        ctr_used[*counter] = true
                    }
                    PlanOp::Compute { .. } => {}
                }
            }
        }
    }
    let remap = |used: &[bool]| -> Vec<usize> {
        let mut next = 0;
        used.iter()
            .map(|u| {
                let idx = next;
                if *u {
                    next += 1;
                }
                idx
            })
            .collect()
    };
    let (fmap, lmap, cmap) = (remap(&free_used), remap(&locked_used), remap(&ctr_used));
    let mut cand = plan.clone();
    cand.free_cells = free_used.iter().filter(|u| **u).count();
    if !cand.cell_types.is_empty() {
        cand.cell_types = free_used
            .iter()
            .enumerate()
            .filter(|(_, u)| **u)
            .map(|(i, _)| plan.cell_type(i))
            .collect();
    }
    cand.locked_cells = locked_used.iter().filter(|u| **u).count();
    cand.counters = ctr_used.iter().filter(|u| **u).count();
    for round in &mut cand.rounds {
        for ops in &mut round.ops {
            for op in ops.iter_mut() {
                match op {
                    PlanOp::Write { cell, .. }
                    | PlanOp::Read { cell }
                    | PlanOp::AsyncWrite { cell, .. } => *cell = fmap[*cell],
                    PlanOp::LockedRmw { lcell, .. } => *lcell = lmap[*lcell],
                    PlanOp::FetchAdd { counter, .. } | PlanOp::AsyncAdd { counter, .. } => {
                        *counter = cmap[*counter]
                    }
                    PlanOp::Compute { .. } => {}
                }
            }
        }
    }
    cand
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::plan::Round;

    /// Synthetic failure: the plan contains a fetch-add of exactly 3 and a
    /// loss fault. Everything else in a generated plan is noise the
    /// shrinker should strip.
    fn poison(plan: &InteractionPlan) -> bool {
        let has_add3 = plan.rounds.iter().any(|r| {
            r.ops
                .iter()
                .any(|ops| ops.iter().any(|o| matches!(o, PlanOp::FetchAdd { delta: 3, .. })))
        });
        let has_loss = plan.faults.iter().any(|f| matches!(f, FaultSpec::Loss { .. }));
        has_add3 && has_loss
    }

    fn seeded_failing_plan() -> InteractionPlan {
        // A generated plan, made failing by construction.
        let mut plan = generate(12345);
        plan.faults = vec![
            FaultSpec::Loss { per_mille: 50 },
            FaultSpec::Jitter { max_us: 1_000 },
            FaultSpec::SerializeMedium,
        ];
        plan.rounds.push(Round {
            ops: (0..plan.n_threads)
                .map(|t| {
                    if t == 0 {
                        vec![PlanOp::FetchAdd { counter: 0, delta: 3 }]
                    } else {
                        Vec::new()
                    }
                })
                .collect(),
        });
        assert!(poison(&plan));
        plan
    }

    #[test]
    fn shrinks_to_the_poison_core() {
        let plan = seeded_failing_plan();
        let (min, spent) = shrink(&plan, &mut |p| poison(p), 10_000);
        assert!(poison(&min), "shrinking must preserve the failure");
        assert!(spent > 0);
        let total_ops: usize =
            min.rounds.iter().map(|r| r.ops.iter().map(Vec::len).sum::<usize>()).sum();
        assert_eq!(total_ops, 1, "only the poisoned op survives: {min:?}");
        assert_eq!(min.faults.len(), 1, "only the loss fault survives: {:?}", min.faults);
        assert_eq!(min.n_threads, 1, "bystander threads are shed");
        assert_eq!(min.free_cells, 0);
        assert_eq!(min.locked_cells, 0);
        assert_eq!(min.counters, 1);
        assert_eq!(min.n_nodes, 1);
    }

    #[test]
    fn budget_bounds_predicate_calls() {
        let plan = seeded_failing_plan();
        let mut calls = 0usize;
        let (_, spent) = shrink(
            &plan,
            &mut |p| {
                calls += 1;
                poison(p)
            },
            7,
        );
        assert_eq!(spent, 7);
        assert_eq!(calls, 7);
    }

    #[test]
    fn minimized_plan_round_trips_through_toml() {
        let plan = seeded_failing_plan();
        let (min, _) = shrink(&plan, &mut |p| poison(p), 10_000);
        let back = InteractionPlan::from_toml(&min.to_toml()).unwrap();
        assert_eq!(back, min);
    }
}
