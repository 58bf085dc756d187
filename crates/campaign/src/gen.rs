//! Seeded plan generation: one u64 seed deterministically expands into an
//! [`InteractionPlan`].
//!
//! The seed is split into independent substreams with
//! [`munin_net::seed::derive`] (shape, ops, faults), so tweaking how one
//! aspect is generated does not shift the random stream of the others more
//! than necessary. Everything downstream of the seed is pure: the same
//! seed always produces the same plan, byte for byte.

use crate::plan::{FaultSpec, InteractionPlan, PlanOp, Round};
use munin_net::seed::derive;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Knobs bounding generated plans. The defaults keep a single campaign
/// small enough that a 100-seed batch finishes in seconds on the
/// simulator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    pub max_nodes: usize,
    pub max_rounds: usize,
    /// Most ops one thread performs per round.
    pub max_ops_per_round: usize,
    pub max_faults: usize,
    /// Allow never-healing faults (permanent isolation = simulated node
    /// kill). Off by default: the standard batch expects clean runs.
    pub allow_permanent: bool,
    /// Bias the op mix toward pipelined (async) writes and adds, so the
    /// batch keeps the in-flight window full and stresses token-wait
    /// ordering under faults. Off = the balanced default mix, which still
    /// includes some async ops.
    pub async_heavy: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_nodes: 4,
            max_rounds: 5,
            max_ops_per_round: 4,
            max_faults: 2,
            allow_permanent: false,
            async_heavy: false,
        }
    }
}

/// Generate the plan for `seed` with default bounds.
pub fn generate(seed: u64) -> InteractionPlan {
    generate_with(seed, &GenConfig::default())
}

/// Generate the plan for `seed` with explicit bounds.
pub fn generate_with(seed: u64, cfg: &GenConfig) -> InteractionPlan {
    let mut shape = SmallRng::seed_from_u64(derive(seed, "gen-shape"));
    let mut ops = SmallRng::seed_from_u64(derive(seed, "gen-ops"));
    let mut faults = SmallRng::seed_from_u64(derive(seed, "gen-faults"));

    let n_nodes = shape.gen_range(2..=cfg.max_nodes.max(2));
    let n_threads = shape.gen_range(n_nodes..=(2 * n_nodes).min(n_nodes + 4));
    let mut plan = InteractionPlan::skeleton(n_nodes, n_threads);
    plan.seed = seed;
    plan.free_cells = shape.gen_range(1..=3);
    plan.locked_cells = shape.gen_range(1..=2);
    plan.counters = shape.gen_range(1..=2);

    // Write labels are unique plan-wide (the checker identifies writes by
    // label): one monotone counter covers every cell.
    let mut next_label = 1u32;
    let mut fresh = move || {
        let l = next_label;
        next_label += 1;
        l
    };

    let n_rounds = shape.gen_range(2..=cfg.max_rounds.max(2));
    for _ in 0..n_rounds {
        // Write-many contract: at most one writer per free cell per round.
        let owners: Vec<Option<usize>> = (0..plan.free_cells)
            .map(|_| ops.gen_bool(0.8).then(|| ops.gen_range(0..n_threads)))
            .collect();
        let mut round = Round { ops: vec![Vec::new(); n_threads] };
        for (t, thread_ops) in round.ops.iter_mut().enumerate() {
            let owned: Vec<usize> = owners
                .iter()
                .enumerate()
                .filter_map(|(c, o)| (*o == Some(t)).then_some(c))
                .collect();
            // Cumulative roll thresholds: sync write, async write, read,
            // locked rmw, sync add, async add; the remainder is compute.
            // The heavy profile shifts weight onto the pipelined kinds.
            let t =
                if cfg.async_heavy { [8u32, 30, 48, 58, 64, 92] } else { [22, 30, 50, 68, 80, 92] };
            for _ in 0..ops.gen_range(0..=cfg.max_ops_per_round) {
                let roll = ops.gen_range(0u32..100);
                let op = if roll < t[1] && !owned.is_empty() {
                    let cell = owned[ops.gen_range(0..owned.len())];
                    let label = fresh();
                    if roll < t[0] {
                        PlanOp::Write { cell, label }
                    } else {
                        PlanOp::AsyncWrite { cell, label }
                    }
                } else if roll < t[2] {
                    PlanOp::Read { cell: ops.gen_range(0..plan.free_cells) }
                } else if roll < t[3] {
                    let lcell = ops.gen_range(0..plan.locked_cells);
                    PlanOp::LockedRmw { lcell, label: fresh() }
                } else if roll < t[5] {
                    let counter = ops.gen_range(0..plan.counters);
                    let delta = ops.gen_range(1..=5);
                    if roll < t[4] {
                        PlanOp::FetchAdd { counter, delta }
                    } else {
                        PlanOp::AsyncAdd { counter, delta }
                    }
                } else {
                    PlanOp::Compute { us: ops.gen_range(50..=2_000) }
                };
                thread_ops.push(op);
            }
        }
        plan.rounds.push(round);
    }

    plan.faults = gen_faults(&mut faults, &plan, cfg);
    debug_assert_eq!(plan.validate(), Ok(()), "generator produced an invalid plan");
    plan
}

/// Healing windows must stay well inside the simulator's hold budget (a
/// held transmission is given up after 40 retransmit timeouts of 10 ms, so
/// 400 ms) or a clean-expectation plan would give up mid-partition.
const HEAL_FROM_US: std::ops::RangeInclusive<u64> = 5_000..=40_000;
const HEAL_LEN_US: std::ops::RangeInclusive<u64> = 10_000..=60_000;

fn gen_faults(rng: &mut SmallRng, plan: &InteractionPlan, cfg: &GenConfig) -> Vec<FaultSpec> {
    let mut classes = vec!["loss", "jitter", "serialize", "partition", "isolate", "skew"];
    if cfg.allow_permanent {
        classes.push("kill");
    }
    classes.shuffle(rng);
    let n_faults = rng.gen_range(0..=cfg.max_faults.min(classes.len()));
    let mut picked: Vec<&str> = classes.into_iter().take(n_faults).collect();
    // A plan never pairs a link cut with a serialized (half-duplex)
    // medium. The simulator runs that combination, but lifting the rule
    // would change the plan of every seed that draws both, and so the
    // pinned batch seeds.
    if picked.iter().any(|c| matches!(*c, "partition" | "isolate" | "kill")) {
        picked.retain(|c| *c != "serialize");
    }
    let mut out = Vec::with_capacity(picked.len());
    for class in picked {
        let from_us = rng.gen_range(HEAL_FROM_US);
        let until_us = from_us + rng.gen_range(HEAL_LEN_US);
        out.push(match class {
            "loss" => FaultSpec::Loss { per_mille: rng.gen_range(5..=150) },
            "jitter" => FaultSpec::Jitter { max_us: rng.gen_range(200..=5_000) },
            "serialize" => FaultSpec::SerializeMedium,
            "partition" => {
                let mut nodes: Vec<u16> = (0..plan.n_nodes as u16).collect();
                nodes.shuffle(rng);
                nodes.truncate(rng.gen_range(1..plan.n_nodes));
                nodes.sort_unstable();
                FaultSpec::Partition { group: nodes, from_us, until_us }
            }
            "isolate" => FaultSpec::Isolate {
                node: rng.gen_range(0..plan.n_nodes as u16),
                from_us,
                until_us,
            },
            "skew" => FaultSpec::ClockSkew {
                thread: rng.gen_range(0..plan.n_threads),
                us: rng.gen_range(1_000..=20_000),
            },
            "kill" => FaultSpec::Isolate {
                node: rng.gen_range(0..plan.n_nodes as u16),
                from_us,
                until_us: u64::MAX,
            },
            _ => unreachable!(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_byte_for_byte() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a, b);
            assert_eq!(a.to_toml(), b.to_toml());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let differing =
            (0..20u64).filter(|s| generate(*s).to_toml() != generate(s + 1000).to_toml()).count();
        assert!(differing >= 18, "only {differing}/20 seed pairs produced distinct plans");
    }

    #[test]
    fn generated_plans_validate_and_round_trip() {
        for seed in 0..50u64 {
            let plan = generate(seed);
            plan.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let text = plan.to_toml();
            let back = crate::plan::InteractionPlan::from_toml(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(back, plan, "seed {seed}");
        }
    }

    #[test]
    fn default_batch_expects_clean_runs() {
        for seed in 0..50u64 {
            assert!(generate(seed).expects_clean(), "seed {seed} generated a permanent fault");
        }
    }

    #[test]
    fn async_ops_appear_and_heavy_profile_biases_toward_them() {
        let count_async = |cfg: &GenConfig| -> (usize, usize) {
            let mut async_ops = 0;
            let mut total = 0;
            for seed in 0..50u64 {
                for round in &generate_with(seed, cfg).rounds {
                    for ops in &round.ops {
                        total += ops.len();
                        async_ops += ops
                            .iter()
                            .filter(|o| {
                                matches!(o, PlanOp::AsyncWrite { .. } | PlanOp::AsyncAdd { .. })
                            })
                            .count();
                    }
                }
            }
            (async_ops, total)
        };
        let (base, base_total) = count_async(&GenConfig::default());
        assert!(base > 0, "the default mix never generated an async op in 50 seeds");
        let heavy_cfg = GenConfig { async_heavy: true, ..GenConfig::default() };
        let (heavy, heavy_total) = count_async(&heavy_cfg);
        assert!(
            heavy * base_total > base * heavy_total,
            "async-heavy profile is not heavier: {heavy}/{heavy_total} vs {base}/{base_total}"
        );
        for seed in 0..50u64 {
            let plan = generate_with(seed, &heavy_cfg);
            plan.validate().unwrap_or_else(|e| panic!("heavy seed {seed}: {e}"));
            assert!(plan.expects_clean(), "heavy seed {seed} generated a permanent fault");
        }
    }

    #[test]
    fn permanent_faults_only_appear_when_allowed() {
        let cfg = GenConfig { allow_permanent: true, max_faults: 7, ..GenConfig::default() };
        let any_permanent = (0..40u64).any(|s| !generate_with(s, &cfg).expects_clean());
        assert!(any_permanent, "allow_permanent never produced a kill in 40 seeds");
    }
}
