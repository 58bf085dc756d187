//! Acceptance tests for coverage-guided exploration.
//!
//! The load-bearing claim: at the same seed and the same execution
//! budget, the corpus loop reaches strictly more distinct protocol-state
//! transitions than blind uniform-random generation. Plus: exploration is
//! deterministic, and the Tardis decay soak sweep actually exercises the
//! lease-expiry transitions its manifest pins while every swept history
//! stays coherent.

use munin_api::Backend;
use munin_campaign::exec::{execute, ExecOptions};
use munin_campaign::explore::{decay_sweep_plans, explore, uniform_baseline, ExploreConfig};
use munin_campaign::manifest::MustReach;
use munin_obs::CoverageMap;
use munin_types::{MuninConfig, TardisConfig};
use std::sync::Arc;

#[test]
fn explore_beats_uniform_random_at_equal_budget() {
    // Munin is the target where guidance has the most headroom: the
    // uniform generator only ever declares write-many cells, so the
    // read-mostly / producer-consumer protocol paths are reachable solely
    // through the corpus loop's retype-cell mutation.
    let cfg = ExploreConfig::new(Backend::sim(MuninConfig::default()), 24);
    let seed = 0;
    let guided = explore(seed, &cfg).unwrap();
    let blind = uniform_baseline(seed, &cfg).unwrap();
    assert!(
        guided.coverage.distinct() > blind.distinct(),
        "guided exploration must reach strictly more distinct transitions: \
         guided {} vs uniform {}",
        guided.coverage.distinct(),
        blind.distinct()
    );
    assert_eq!(guided.executed, 24, "the comparison is only fair at equal budget");
    assert!(guided.failures.is_empty(), "{:?}", guided.failures);
}

#[test]
fn explore_is_deterministic() {
    let cfg = ExploreConfig::new(Backend::sim(TardisConfig::default()), 10);
    let a = explore(7, &cfg).unwrap();
    let b = explore(7, &cfg).unwrap();
    assert_eq!(a.coverage.rows, b.coverage.rows);
    assert_eq!(a.corpus, b.corpus);
    let verdicts = |r: &munin_campaign::ExploreReport| -> Vec<(String, bool)> {
        r.goals.iter().map(|(g, ok)| (g.key.clone(), *ok)).collect()
    };
    assert_eq!(verdicts(&a), verdicts(&b));
}

#[test]
fn decay_sweep_covers_lease_expiry_and_histories_check_clean() {
    // The sweep is the manifest's witness for the lease-expiry goals: every
    // grid point must run clean (decay must never lose an update) and the
    // union coverage must include both the sweep eviction and the
    // expired-lease renewal.
    let union = Arc::new(CoverageMap::new());
    for plan in decay_sweep_plans(0) {
        let mut opts = ExecOptions::default();
        opts.coverage = Some(union.clone());
        let out = execute(&plan, &Backend::sim(TardisConfig::default()), &opts).unwrap();
        assert!(
            out.passed(),
            "decay {:?} lease {:?}: {:?}",
            plan.tardis_decay_us,
            plan.tardis_lease,
            out.reasons
        );
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.clean);
    }
    let snap = union.snapshot();
    let keys: Vec<String> = snap.rows.iter().map(|r| r.key()).collect();
    for want in ["tardis/object/lease/decay-evict", "tardis/object/lease/expired-renew"] {
        assert!(keys.iter().any(|k| k == want), "sweep never fired {want}; got {keys:?}");
    }
}

#[test]
fn explore_reaches_every_tardis_must_reach_goal() {
    // The CI gate in test form: a modest budget must satisfy the whole
    // Tardis manifest — including the lease-expiry transitions driven by
    // the seeded decay sweep.
    let report =
        explore(0, &ExploreConfig::new(Backend::sim(TardisConfig::default()), 16)).unwrap();
    let missing: Vec<&str> =
        report.goals.iter().filter(|(_, ok)| !ok).map(|(g, _)| g.key.as_str()).collect();
    assert!(missing.is_empty(), "unreached Tardis goals: {missing:?}");
    assert!(report.passed());
    let manifest = MustReach::for_proto("tardis");
    assert!(manifest.unreached(&report.coverage).is_empty());
}
