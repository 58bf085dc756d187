//! A child process that dies during the handshake fails the run at once,
//! naming the node, instead of after the 30 s handshake deadline. This file
//! holds one test because it points `MUNIN_NODE_BIN` at `/bin/false` for
//! its whole process. Skips with a notice where `/bin/false` is absent.

use munin_core::MuninProto;
use munin_rt::RtTuning;
use munin_sim::WorldDesc;
use munin_tcp::run_proto;
use munin_types::{MuninConfig, NodeId, SyncDecls};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

#[test]
fn a_child_that_exits_during_the_handshake_fails_the_run_at_once() {
    let dead = Path::new("/bin/false");
    if !dead.is_file() {
        eprintln!("skipping dead-child handshake test: /bin/false is absent");
        return;
    }
    std::env::set_var("MUNIN_NODE_BIN", dead);

    let mut b = WorldDesc::new(2);
    b.spawn(NodeId(1), |_ctx| {});
    let sync = SyncDecls { locks: Vec::new(), barriers: Vec::new(), conds: Vec::new() };
    let began = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_proto::<MuninProto>(b, MuninConfig::default(), sync, RtTuning::default(), None)
    }));
    let took = began.elapsed();

    let payload = outcome.expect_err("a run whose only child exits at start-up must fail");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(took < Duration::from_secs(5), "the failure took {took:?}: {msg}");
    assert!(msg.contains("n1"), "the failure does not name the dead node: {msg}");
}
