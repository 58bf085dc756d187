//! Proptest-style randomized codec tests — seeded loops rather than an
//! external property-testing dependency, so failures replay from the case
//! number alone.
//!
//! Two properties carry the replayability contract: (1) every
//! generated-and-perturbed plan survives a TOML round trip byte-stably,
//! including fields the uniform generator never sets (huge seeds above
//! `i64::MAX`, per-cell sharing types, Tardis lease geometry); (2) the
//! shrinker's minimized plan still fails under the exact chaos options
//! that broke the original — a shrunk repro that no longer reproduces is
//! worse than no repro at all.

use munin_api::Backend;
use munin_campaign::plan::{CellType, InteractionPlan, PlanOp, Round};
use munin_campaign::{execute, generate, shrink_failing, ExecOptions};
use munin_types::MuninConfig;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Randomly set the optional plan fields the uniform generator leaves
/// untouched, so the round trip exercises the whole codec surface.
fn perturb(plan: &mut InteractionPlan, rng: &mut SmallRng) {
    if rng.gen_bool(0.5) {
        // Force the sign bit: the codec stores seeds through a bijective
        // u64 <-> i64 cast, and these serialize as negative integers.
        plan.seed = rng.next_u64() | (1 << 63);
    }
    if plan.free_cells > 0 && rng.gen_bool(0.7) {
        plan.cell_types = (0..plan.free_cells)
            .map(|_| match rng.gen_range(0u32..3) {
                0 => CellType::WriteMany,
                1 => CellType::ReadMostly,
                _ => CellType::ProducerConsumer,
            })
            .collect();
    }
    if rng.gen_bool(0.5) {
        plan.tardis_lease = Some(rng.gen_range(1u64..=256));
    }
    if rng.gen_bool(0.5) {
        plan.tardis_decay_us = Some(rng.gen_range(1u64..=50_000));
    }
}

#[test]
fn randomized_plans_round_trip_byte_stably() {
    let mut rng = SmallRng::seed_from_u64(0xC0DEC);
    for case in 0..64 {
        let mut plan = generate(rng.next_u64());
        perturb(&mut plan, &mut rng);
        plan.validate().unwrap_or_else(|e| panic!("case {case}: perturbed plan invalid: {e}"));
        let text = plan.to_toml();
        let back = InteractionPlan::from_toml(&text)
            .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}\n{text}"));
        assert_eq!(back, plan, "case {case}: round trip changed the plan");
        assert_eq!(back.to_toml(), text, "case {case}: re-encode is not byte-stable");
    }
}

/// Two nodes publish/subscribe on one cell with barrier-separated rounds —
/// the same shape the mutation tests use, small enough that the shrinker's
/// re-executions stay cheap.
fn publish_plan() -> InteractionPlan {
    let mut plan = InteractionPlan::skeleton(2, 2);
    plan.free_cells = 1;
    let t0 = |ops: Vec<PlanOp>| Round { ops: vec![ops, Vec::new()] };
    let t1 = |ops: Vec<PlanOp>| Round { ops: vec![Vec::new(), ops] };
    plan.rounds = vec![
        t0(vec![PlanOp::Write { cell: 0, label: 1 }]),
        t1(vec![PlanOp::Read { cell: 0 }]),
        t0(vec![PlanOp::Write { cell: 0, label: 2 }]),
        t1(vec![PlanOp::Read { cell: 0 }]),
    ];
    plan
}

#[test]
fn shrinker_output_reproduces_the_original_failure() {
    // Find a chaos ordinal that makes the plan fail, shrink under those
    // exact options, and demand the minimized plan (and its TOML round
    // trip) still fails the same way.
    let plan = publish_plan();
    let opts = ExecOptions::default();
    let backend = (1..=4u64)
        .map(|n| Backend::sim(MuninConfig { chaos_skip_updates: n, ..MuninConfig::default() }))
        .find(|b| !execute(&plan, b, &opts).unwrap().passed())
        .expect("no chaos_skip_updates ordinal in 1..=4 fails publish_plan");

    let (min, spent) = shrink_failing(&plan, &backend, &opts, 200);
    assert!(spent > 0, "the shrinker must attempt at least one candidate");
    min.validate().unwrap();

    let out = execute(&min, &backend, &opts).unwrap();
    assert!(!out.passed(), "minimized plan no longer fails: {min:?}");
    assert!(
        out.reasons.iter().any(|r| r.contains("coherence violation")),
        "minimized plan fails for a different reason: {:?}",
        out.reasons
    );

    // The repro the user replays is the serialized form — it must fail too.
    let back = InteractionPlan::from_toml(&min.to_toml()).unwrap();
    assert_eq!(back, min);
    assert!(!execute(&back, &backend, &opts).unwrap().passed());
}
