//! Run reports: everything an experiment reads out of a finished simulation.

use munin_net::NetStats;
use munin_types::VirtualTime;
use std::collections::BTreeMap;

/// Per-op-label wait accounting: (completions, total virtual µs spent between
/// issue and resume).
pub type WaitTable = BTreeMap<&'static str, (u64, u64)>;

/// Wall-clock section of a [`RunReport`] — filled in by the real-time
/// kernel (`munin-rt`), where elapsed host time *is* the measurement. The
/// virtual-time simulator leaves it `None` (its wall clock is a host
/// artifact, not a result).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WallClock {
    /// Real elapsed time from the first thread starting to the last thread
    /// (and all protocol servers) shutting down.
    pub elapsed: std::time::Duration,
    /// Application threads that ran in parallel.
    pub workers: usize,
    /// Protocol server threads (one per node).
    pub nodes: usize,
}

impl WallClock {
    /// Elapsed microseconds (saturated to u64), the unit the wait tables use.
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.elapsed.as_micros()).unwrap_or(u64::MAX)
    }
}

/// Result of running a [`crate::World`] to completion.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual time when the last event was processed. On the real-time
    /// kernel this mirrors `wall` (microseconds of real elapsed time).
    pub finished_at: VirtualTime,
    /// Total network traffic.
    pub stats: NetStats,
    /// Total DSM operations issued by application threads.
    pub ops: u64,
    /// Per-thread wait breakdown by op label ("read", "lock", ...).
    pub thread_waits: Vec<WaitTable>,
    /// Errors: panicked threads, deadlock diagnostics, server-reported
    /// invariant violations.
    pub errors: Vec<String>,
    /// True if the run ended with live-but-blocked threads (simulator:
    /// event-queue quiescence; real-time kernel: stall watchdog).
    pub deadlocked: bool,
    /// Wall-clock measurements — `Some` only for real-time kernel runs.
    pub wall: Option<WallClock>,
    /// On-demand state dumps (SIGUSR1 / `debug_stuck_state` requests that
    /// were *not* stall diagnostics), one entry per responding node. The
    /// wall-clock fabrics (rt and tcp) fill this; a clean run may carry
    /// dumps.
    pub dumps: Vec<String>,
    /// Telemetry snapshot (latency histograms, per-object access counters,
    /// remote-op spans) merged at teardown. `None` when the run's fabric
    /// does not record telemetry (the virtual-time simulator, or a
    /// wall-clock run with `Telemetry::Off`).
    pub metrics: Option<munin_obs::MetricsSnapshot>,
    /// Injected faults (held transmission attempts) that landed while some
    /// thread had two or more ops in flight (simulator only).
    pub pipelined_faults: u64,
}

impl RunReport {
    /// Did the run complete without panics, deadlock or server errors?
    pub fn is_clean(&self) -> bool {
        !self.deadlocked && self.errors.is_empty()
    }

    /// Panic with diagnostics unless the run was clean. Experiments use this
    /// so misbehaving protocols fail loudly.
    pub fn assert_clean(&self) -> &Self {
        if !self.is_clean() {
            panic!(
                "simulation run was not clean (deadlocked={}): {:#?}",
                self.deadlocked, self.errors
            );
        }
        self
    }

    /// Aggregate wait time across all threads for one op label.
    pub fn total_wait_us(&self, label: &str) -> u64 {
        self.thread_waits.iter().filter_map(|w| w.get(label)).map(|(_, us)| us).sum()
    }

    /// Aggregate completion count across all threads for one op label.
    pub fn total_ops(&self, label: &str) -> u64 {
        self.thread_waits.iter().filter_map(|w| w.get(label)).map(|(n, _)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_aggregation() {
        let mut w0 = WaitTable::new();
        w0.insert("read", (3, 300));
        let mut w1 = WaitTable::new();
        w1.insert("read", (1, 50));
        w1.insert("lock", (2, 2000));
        let r = RunReport {
            finished_at: VirtualTime::micros(5000),
            stats: NetStats::new(),
            ops: 6,
            thread_waits: vec![w0, w1],
            errors: vec![],
            deadlocked: false,
            wall: None,
            dumps: Vec::new(),
            metrics: None,
            pipelined_faults: 0,
        };
        assert_eq!(r.total_wait_us("read"), 350);
        assert_eq!(r.total_ops("read"), 4);
        assert_eq!(r.total_wait_us("lock"), 2000);
        assert_eq!(r.total_wait_us("barrier"), 0);
        assert!(r.is_clean());
    }

    #[test]
    #[should_panic(expected = "not clean")]
    fn assert_clean_panics_on_deadlock() {
        let r = RunReport {
            finished_at: VirtualTime::ZERO,
            stats: NetStats::new(),
            ops: 0,
            thread_waits: vec![],
            errors: vec!["t0 blocked in lock".into()],
            deadlocked: true,
            wall: None,
            dumps: Vec::new(),
            metrics: None,
            pipelined_faults: 0,
        };
        r.assert_clean();
    }
}
