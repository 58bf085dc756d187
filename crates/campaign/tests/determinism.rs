//! The campaign determinism contract: one seed fixes everything.
//!
//! * The same seed generates a byte-identical serialized plan.
//! * Executing that plan twice on the virtual-time simulator produces an
//!   identical verdict (the simulator is deterministic end to end — the
//!   transport's loss/jitter streams derive from the plan seed).
//! * A batch of 120 seeded campaigns (the CI gate in miniature) passes on
//!   the Munin simulator backend, and a subset passes on the Ivy baseline.

use munin_api::Backend;
use munin_campaign::{execute, generate, generate_with, ExecOptions, GenConfig};
use munin_net::SeedGuard;
use munin_types::{IvyConfig, MuninConfig};

#[test]
fn same_seed_yields_byte_identical_plan_and_verdict() {
    for seed in [3u64, 17, 99, 4242] {
        let _guard = SeedGuard::new("determinism check", seed);
        let plan_a = generate(seed);
        let plan_b = generate(seed);
        assert_eq!(plan_a.to_toml(), plan_b.to_toml(), "seed {seed}: plans must match bytewise");

        let out_a =
            execute(&plan_a, &Backend::sim(MuninConfig::default()), &ExecOptions::default())
                .unwrap();
        let out_b =
            execute(&plan_b, &Backend::sim(MuninConfig::default()), &ExecOptions::default())
                .unwrap();
        assert_eq!(out_a.reasons, out_b.reasons, "seed {seed}");
        assert_eq!(out_a.clean, out_b.clean, "seed {seed}");
        assert_eq!(out_a.final_counters, out_b.final_counters, "seed {seed}");
        assert_eq!(out_a.violations.len(), out_b.violations.len(), "seed {seed}");
    }
}

#[test]
fn batch_of_120_seeded_campaigns_passes_on_munin() {
    for seed in 0..120u64 {
        let _guard = SeedGuard::new("munin campaign batch", seed);
        let plan = generate(seed);
        let out = execute(&plan, &Backend::sim(MuninConfig::default()), &ExecOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(out.passed(), "seed {seed} failed: {:?}", out.reasons);
    }
}

#[test]
fn seeded_campaigns_pass_on_the_ivy_baseline_too() {
    // Strict coherence trivially satisfies the loose contract; what this
    // buys is coverage of Ivy's locks, barriers and atomic ops under the
    // same generated schedules.
    for seed in 0..30u64 {
        let _guard = SeedGuard::new("ivy campaign batch", seed);
        let plan = generate(seed);
        let out = execute(&plan, &Backend::sim(IvyConfig::default()), &ExecOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(out.passed(), "seed {seed} failed: {:?}", out.reasons);
    }
}

/// The async-heavy profile exists so that faults land while tokens are in
/// flight. On the simulator they do: over a fixed list of seeds, injected
/// faults drop transmissions while some thread has two or more ops in
/// flight, and each seed's count replays exactly.
#[test]
fn async_heavy_faults_land_while_ops_are_in_flight() {
    let cfg = GenConfig { async_heavy: true, ..GenConfig::default() };
    let backend = Backend::sim(MuninConfig::default());
    let mut landed = 0;
    for seed in 0..30u64 {
        let _guard = SeedGuard::new("async-heavy campaign", seed);
        let plan = generate_with(seed, &cfg);
        let run = || execute(&plan, &backend, &ExecOptions::default()).unwrap();
        let (a, b) = (run(), run());
        assert!(a.passed(), "seed {seed} failed: {:?}", a.reasons);
        assert_eq!(a.pipelined_faults, b.pipelined_faults, "seed {seed}");
        landed += a.pipelined_faults;
    }
    assert!(landed > 0, "no injected fault met a thread with two or more ops in flight");
}
