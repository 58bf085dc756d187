//! Checker mutation tests: break the protocol on purpose and prove the
//! campaign checker notices.
//!
//! A checker that never fires is indistinguishable from a checker that
//! can't. `MuninConfig::chaos_skip_updates` silently drops the Nth copyset
//! distribution send during a flush — exactly the "skipped invalidation"
//! class of coherence bug: the victim node keeps a stale-but-valid copy
//! and reads it with full confidence. The campaign must turn that into a
//! red verdict, and must stay green when the knob is off.
//!
//! The Tardis backend gets the same treatment through
//! `TardisConfig::chaos_skip_wts`: the Nth home write stores the new bytes
//! but skips the write-timestamp bump, so outstanding leases keep
//! validating copies of the old version — the timestamp-coherence
//! equivalent of a skipped invalidation.

use munin_api::Backend;
use munin_campaign::plan::{InteractionPlan, PlanOp, Round};
use munin_campaign::{execute, ExecOptions};
use munin_types::{MuninConfig, TardisConfig};

/// Two nodes publish/subscribe on one write-many cell: t0 writes, t1 reads
/// (joining the copyset), t0 overwrites, t1 reads again. Every round is
/// barrier-separated, so the second read must observe the overwrite.
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
fn healthy_protocol_passes() {
    let out =
        execute(&publish_plan(), &Backend::sim(MuninConfig::default()), &ExecOptions::default())
            .unwrap();
    assert!(out.passed(), "{:?}", out.reasons);
    assert!(out.clean);
}

#[test]
fn a_silently_skipped_update_is_caught_by_the_checker() {
    // The knob counts every distribution send the node's flush handler
    // makes; which ordinal delivers label 2 to t1's node depends on
    // protocol internals, so probe the first few. At least one must
    // produce a stale post-barrier read that check_campaign flags.
    let mut caught = false;
    for n in 1..=4u64 {
        let cfg = MuninConfig { chaos_skip_updates: n, ..MuninConfig::default() };
        let out = execute(&publish_plan(), &Backend::sim(cfg), &ExecOptions::default()).unwrap();
        if !out.violations.is_empty() {
            assert!(!out.passed(), "violations must fail the campaign");
            assert!(
                out.reasons.iter().any(|r| r.contains("coherence violation")),
                "chaos n={n}: {:?}",
                out.reasons
            );
            caught = true;
        }
    }
    assert!(
        caught,
        "no chaos_skip_updates ordinal in 1..=4 produced a checker-visible stale read — \
         the mutation hook or the checker has gone dead"
    );
}

#[test]
fn healthy_tardis_protocol_passes() {
    let out =
        execute(&publish_plan(), &Backend::sim(TardisConfig::default()), &ExecOptions::default())
            .unwrap();
    assert!(out.passed(), "{:?}", out.reasons);
    assert!(out.clean);
}

#[test]
fn a_skipped_timestamp_bump_is_caught_by_the_checker() {
    // Which home write lands on the poisoned ordinal depends on protocol
    // internals (lease renewals also write through the home), so probe the
    // first few. At least one must leave a lease-holder reading the old
    // version after the barrier — a violation check_campaign flags.
    let mut caught = false;
    for n in 1..=4u64 {
        let cfg = TardisConfig { chaos_skip_wts: n, ..TardisConfig::default() };
        let out = execute(&publish_plan(), &Backend::sim(cfg), &ExecOptions::default()).unwrap();
        if !out.violations.is_empty() {
            assert!(!out.passed(), "violations must fail the campaign");
            assert!(
                out.reasons.iter().any(|r| r.contains("coherence violation")),
                "chaos n={n}: {:?}",
                out.reasons
            );
            caught = true;
        }
    }
    assert!(
        caught,
        "no chaos_skip_wts ordinal in 1..=4 produced a checker-visible stale read — \
         the timestamp mutation hook or the checker has gone dead"
    );
}
