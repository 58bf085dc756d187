//! # munin-obs
//!
//! Runtime observability for the wall-clock fabrics (`MuninRt`/`MuninTcp`
//! and the Ivy twins). The paper's premise is that *measuring* access
//! behaviour is what unlocks type-specific coherence; `crates/trace`
//! reproduces that offline for the virtual-time simulator, and this crate
//! gives the production fabrics the same eyes while they run:
//!
//! * **Per-op latency histograms** — log-bucketed (power-of-2, HDR-style)
//!   fixed arrays, one set per application thread, split by op class and
//!   blocking-vs-pipelined. Recording is a bucket index plus a few relaxed
//!   atomic adds: no locks, no allocation, no syscalls on the hot path.
//! * **Causal remote-op spans** — the fabric is per-thread FIFO and the
//!   server-side `OpGate` completes a thread's ops in dispatch order (it
//!   overlaps only ops that return in issue order), so a per-thread
//!   sequence number stamps each op exactly once on both sides. Wall-clock (`SystemTime`) stamps at issue, wire forward,
//!   server dispatch, home-node handling, reply and resume are kept in
//!   fixed rings and joined into [`OpSpan`]s at teardown.
//! * **A live metrics surface** — [`MetricsSnapshot`] merges the
//!   histograms, per-object access counters and [`NetStats`] at any
//!   moment (teardown, SIGUSR1, mid-run), renders as Prometheus-style
//!   text exposition or first-party JSON, and lands in
//!   `RunReport::metrics`.
//!
//! Everything is gated by [`munin_types::Telemetry`]: `Off` costs one
//! branch, `Counters` (the default) the histogram/counter adds, `Spans`
//! additionally the `SystemTime` stamps and ring pushes.

mod collect;
pub mod cover;
mod hist;
mod snapshot;
mod span;

pub use collect::{AccessKind, ObsCollector, OBJ_TABLE_SLOTS, SPAN_RING_CAP};
pub use cover::{CovRow, CoverageMap, CoverageSnapshot, Transition};
pub use hist::{bucket_floor_us, AtomicHistogram, Histogram, OpClass, HIST_BUCKETS};
pub use snapshot::{ClassStat, MetricsSnapshot, ObjectStat};
pub use span::{OpSpan, SrvSpan};

/// Microseconds since the UNIX epoch — the span clock. `SystemTime` is the
/// one clock the multi-process fabric's loopback children share with the
/// coordinator, so stamps taken in different processes on the same host
/// are directly comparable (the residual error is scheduler noise, not
/// clock-domain skew).
pub fn wall_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_enough() {
        let a = wall_us();
        let b = wall_us();
        assert!(b >= a, "SystemTime went backwards within one test: {a} -> {b}");
        // Sanity: we are after 2020 (1.58e15 µs), i.e. the epoch math holds.
        assert!(a > 1_500_000_000_000_000, "implausible wall stamp {a}");
    }
}
