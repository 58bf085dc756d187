//! Process-fault coverage for the TCP fabric, expressed as campaign
//! scenarios (`munin_campaign::scenario`). These replace the hand-written
//! kill/half-close tests that used to live in `tests/faults.rs`: the fault
//! shapes, the peer-naming assertions, and the prompt-teardown bound all
//! survive, but the plan now travels through the campaign's canonical TOML
//! and the observed history is checked for coherence on the way out.
//!
//! The `munin-node` binary lives in munin-api (the one crate linking every
//! protocol); a workspace build produces it before these tests run, and
//! `Target::MuninTcp.supported()` skips gracefully when it is absent.

use munin_campaign::scenario::{find, run};
use munin_campaign::{ExecOptions, Target};
use std::time::{Duration, Instant};

fn skip() -> bool {
    if let Err(notice) = Target::MuninTcp.supported() {
        eprintln!("skipping tcp campaign fault test: {notice}");
        return true;
    }
    false
}

/// Run a named scenario on its native TCP target with a tight stall
/// timeout, and assert the run tears down promptly instead of hanging.
fn assert_fault_scenario(name: &str) {
    let s = find(name).unwrap_or_else(|| panic!("unknown scenario {name}"));
    let mut opts = ExecOptions::default();
    opts.tcp_stall = Duration::from_millis(500);
    let started = Instant::now();
    let out = run(&s, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(12),
        "{name}: run should tear down promptly, took {elapsed:?}"
    );
    // run() already asserted the expectation (unclean + error naming the
    // peer + no coherence violations); re-state the load-bearing bits so a
    // scenario edit can't silently weaken this test.
    assert!(!out.clean, "{name}: the fault must make the run unclean");
    assert!(out.violations.is_empty(), "{name}: completed history must stay coherent");
}

/// Killing a node process mid-run: the coordinator notices the dead control
/// stream (or a failed op forward) and reports `n1` by name.
#[test]
fn killed_node_process_is_named_not_hung() {
    if skip() {
        return;
    }
    assert_fault_scenario("tcp-kill");
}

/// Killing a node while every thread keeps a full window of pipelined
/// fetch-adds in flight: the failure must reach an outstanding token
/// (fail-closed poison, not a hang) and still name the lost peer.
#[test]
fn killed_node_with_pipelined_ops_in_flight_fails_closed() {
    if skip() {
        return;
    }
    assert_fault_scenario("tcp-kill-pipelined");
}

/// Half-closing one data stream mid-run: the reader on the surviving end
/// sees the EOF and reports the peer by name (traffic keeps flowing on the
/// stream at fault time, so the writer side surfaces too).
#[test]
fn half_closed_stream_is_named_not_hung() {
    if skip() {
        return;
    }
    assert_fault_scenario("tcp-half-close");
}

/// The no-fault baseline: a small generated-style plan with the faults
/// stripped runs clean on the real fabric, so the scenario failures above
/// are attributable to the injected faults and not to the harness.
#[test]
fn faultless_campaign_plan_passes_on_the_tcp_fabric() {
    if skip() {
        return;
    }
    let mut plan = munin_campaign::generate(7);
    plan.faults.clear();
    let out = munin_campaign::execute(&plan, Target::MuninTcp, &ExecOptions::default())
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(out.passed(), "seed 7 faultless plan failed on tcp: {:?}", out.reasons);
    assert!(out.clean);
}
