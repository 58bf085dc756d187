//! The merged metrics surface: what teardown folds into
//! `RunReport::metrics`, what SIGUSR1 dumps mid-run, and what
//! `scripts/bench.sh` writes out as `metrics.json`.

use crate::hist::{Histogram, OpClass};
use crate::span::{ClientSpan, OpSpan, SrvSpan};
use munin_net::NetStats;
use munin_types::{ObjectId, Telemetry, ThreadId};
use std::fmt::Write as _;

/// One (op class, blocking-vs-pipelined) latency distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStat {
    pub class: OpClass,
    pub pipelined: bool,
    pub hist: Histogram,
}

impl ClassStat {
    /// "blocking" or "pipelined" — the metrics label.
    pub fn mode_label(&self) -> &'static str {
        if self.pipelined {
            "pipelined"
        } else {
            "blocking"
        }
    }
}

/// Access totals for one shared object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectStat {
    pub obj: ObjectId,
    pub reads: u64,
    pub writes: u64,
    pub atomics: u64,
}

/// Everything the fabrics observed about a run, merged at one moment.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    pub telemetry: Telemetry,
    /// Per-(class, mode) latency histograms; only non-empty entries.
    pub hists: Vec<ClassStat>,
    /// Per-object access counters (first [`crate::OBJ_TABLE_SLOTS`]
    /// objects touched; the rest land in `objects_overflow`).
    pub objects: Vec<ObjectStat>,
    pub objects_overflow: u64,
    /// Wire statistics at snapshot time.
    pub net: NetStats,
    /// Joined causal spans (tail of at most [`crate::SPAN_RING_CAP`] per
    /// thread; empty unless telemetry is `Spans`).
    pub spans: Vec<OpSpan>,
    /// Span halves lost to ring overwrites (recorded so a truncated tail
    /// never reads as a complete history).
    pub spans_dropped: u64,
}

impl MetricsSnapshot {
    /// Prometheus-style text exposition.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE munin_op_latency_us summary\n");
        for cs in &self.hists {
            let (c, m) = (cs.class.label(), cs.mode_label());
            for (q, v) in
                [("0.5", cs.hist.p50_us()), ("0.9", cs.hist.p90_us()), ("0.99", cs.hist.p99_us())]
            {
                let _ = writeln!(
                    out,
                    "munin_op_latency_us{{class=\"{c}\",mode=\"{m}\",quantile=\"{q}\"}} {v}"
                );
            }
            let _ = writeln!(
                out,
                "munin_op_latency_us_sum{{class=\"{c}\",mode=\"{m}\"}} {}",
                cs.hist.sum_us
            );
            let _ = writeln!(
                out,
                "munin_op_latency_us_count{{class=\"{c}\",mode=\"{m}\"}} {}",
                cs.hist.count
            );
        }
        out.push_str("# TYPE munin_object_accesses_total counter\n");
        for o in &self.objects {
            for (kind, v) in [("read", o.reads), ("write", o.writes), ("atomic", o.atomics)] {
                if v > 0 {
                    let _ = writeln!(
                        out,
                        "munin_object_accesses_total{{obj=\"{}\",kind=\"{kind}\"}} {v}",
                        o.obj.0
                    );
                }
            }
        }
        if self.objects_overflow > 0 {
            let _ = writeln!(out, "munin_object_table_overflow_total {}", self.objects_overflow);
        }
        let _ = writeln!(out, "munin_net_messages_total {}", self.net.messages);
        let _ = writeln!(out, "munin_net_bytes_total {}", self.net.bytes);
        if self.telemetry.spans() {
            let _ = writeln!(out, "munin_spans_recorded {}", self.spans.len());
            let _ = writeln!(out, "munin_spans_dropped_total {}", self.spans_dropped);
        }
        out
    }

    /// First-party JSON (schema documented in the README's Observability
    /// section); `spans` carries the joined tail when telemetry is
    /// `Spans`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"telemetry\": \"{}\",",
            match self.telemetry {
                Telemetry::Off => "off",
                Telemetry::Counters => "counters",
                Telemetry::Spans => "spans",
            }
        );
        out.push_str("  \"ops\": [\n");
        for (i, cs) in self.hists.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"class\": \"{}\", \"mode\": \"{}\", \"count\": {}, \
                 \"mean_us\": {:.1}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}}}",
                cs.class.label(),
                cs.mode_label(),
                cs.hist.count,
                cs.hist.mean_us(),
                cs.hist.p50_us(),
                cs.hist.p90_us(),
                cs.hist.p99_us()
            );
            out.push_str(if i + 1 < self.hists.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"objects\": [\n");
        for (i, o) in self.objects.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"obj\": {}, \"reads\": {}, \"writes\": {}, \"atomics\": {}}}",
                o.obj.0, o.reads, o.writes, o.atomics
            );
            out.push_str(if i + 1 < self.objects.len() { ",\n" } else { "\n" });
        }
        let _ = writeln!(out, "  ],\n  \"objects_overflow\": {},", self.objects_overflow);
        let _ = writeln!(
            out,
            "  \"net\": {{\"messages\": {}, \"bytes\": {}}},",
            self.net.messages, self.net.bytes
        );
        let _ = writeln!(out, "  \"spans_dropped\": {},", self.spans_dropped);
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map(|u| u.to_string()).unwrap_or_else(|| "null".into());
            let _ = write!(
                out,
                "    {{\"thread\": {}, \"seq\": {}, \"class\": \"{}\", \"pipelined\": {}, \
                 \"issue_us\": {}, \"fwd_us\": {}, \"dispatch_us\": {}, \"home_us\": {}, \
                 \"reply_us\": {}, \"resume_us\": {}}}",
                s.thread.0,
                s.seq,
                s.class.label(),
                s.pipelined,
                s.issue_us,
                opt(s.fwd_us),
                opt(s.dispatch_us),
                opt(s.home_us),
                opt(s.reply_us),
                s.resume_us
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The latency distribution for one (class, mode), if any op of that
    /// shape ran.
    pub fn class_hist(&self, class: OpClass, pipelined: bool) -> Option<&Histogram> {
        self.hists
            .iter()
            .find(|cs| cs.class == class && cs.pipelined == pipelined)
            .map(|cs| &cs.hist)
    }
}

/// Join one thread's client and server span halves by per-thread seq,
/// then fold the (time-ordered) home stamps into the op whose
/// dispatch..reply window contains them. All stamps come from one host
/// clock (`SystemTime` on the same machine, even across the TCP fabric's
/// processes), so the home handling lands strictly inside its op's
/// dispatch..reply window and containment *is* causality — no slack.
/// Widening the window would misattribute stamps: back-to-back ops finish
/// microseconds apart, so any slack swallows the next op's home stamp.
/// The gate overlaps one thread's ops only when they go to one home and
/// complete in issue order, so their home stamps and their windows are in
/// the same order and in-order matching stays unambiguous; unmatched home
/// stamps (e.g. a clock step mid-run) are dropped.
pub(crate) fn join_spans(
    thread: ThreadId,
    clients: &[ClientSpan],
    srvs: &[SrvSpan],
    homes: &[u64],
) -> Vec<OpSpan> {
    let mut homes: Vec<u64> = homes.to_vec();
    homes.sort_unstable();
    let mut next_home = 0usize;
    let mut out = Vec::with_capacity(clients.len());
    for c in clients {
        let srv = srvs.iter().find(|s| s.seq == c.seq);
        let mut home_us = None;
        if let Some(s) = srv {
            let (lo, hi) = (s.dispatch_us, s.reply_us);
            while next_home < homes.len() && homes[next_home] < lo {
                next_home += 1;
            }
            if next_home < homes.len() && homes[next_home] <= hi {
                home_us = Some(homes[next_home]);
                next_home += 1;
            }
        }
        out.push(OpSpan {
            thread,
            seq: c.seq,
            class: c.class,
            pipelined: c.pipelined,
            issue_us: c.issue_us,
            fwd_us: srv.map(|s| s.fwd_us).filter(|f| *f > 0),
            dispatch_us: srv.map(|s| s.dispatch_us),
            home_us,
            reply_us: srv.map(|s| s.reply_us),
            resume_us: c.resume_us,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cspan(seq: u64, issue: u64, resume: u64) -> ClientSpan {
        ClientSpan {
            seq,
            class: OpClass::FetchAdd,
            pipelined: false,
            issue_us: issue,
            resume_us: resume,
        }
    }

    #[test]
    fn join_matches_by_seq_and_window() {
        let clients = vec![cspan(0, 100, 200), cspan(1, 210, 300)];
        let srvs = vec![
            SrvSpan { seq: 0, fwd_us: 110, dispatch_us: 130, reply_us: 180 },
            SrvSpan { seq: 1, fwd_us: 0, dispatch_us: 230, reply_us: 280 },
        ];
        let homes = vec![150, 250];
        let joined = join_spans(ThreadId(0), &clients, &srvs, &homes);
        assert_eq!(joined.len(), 2);
        assert_eq!(joined[0].home_us, Some(150));
        assert_eq!(joined[0].fwd_us, Some(110));
        assert_eq!(joined[1].home_us, Some(250));
        assert_eq!(joined[1].fwd_us, None, "fwd 0 means no wire hop");
    }

    #[test]
    fn join_survives_missing_halves() {
        // Client ring kept more than the server ring (overwrites).
        let clients = vec![cspan(5, 100, 200)];
        let joined = join_spans(ThreadId(0), &clients, &[], &[777_000_000]);
        assert_eq!(joined.len(), 1);
        assert!(joined[0].dispatch_us.is_none());
        assert!(joined[0].home_us.is_none(), "no window, no home match");
        assert_eq!(joined[0].total_us(), 100);
    }

    #[test]
    fn renderers_cover_every_section() {
        let mut h = Histogram::default();
        for us in [10, 20, 30] {
            h.record(us);
        }
        let snap = MetricsSnapshot {
            telemetry: Telemetry::Spans,
            hists: vec![ClassStat { class: OpClass::FetchAdd, pipelined: false, hist: h }],
            objects: vec![ObjectStat { obj: ObjectId(2), reads: 1, writes: 0, atomics: 9 }],
            objects_overflow: 0,
            net: NetStats::default(),
            spans: vec![OpSpan {
                thread: ThreadId(0),
                seq: 0,
                class: OpClass::FetchAdd,
                pipelined: true,
                issue_us: 1,
                fwd_us: None,
                dispatch_us: Some(2),
                home_us: None,
                reply_us: Some(3),
                resume_us: 4,
            }],
            spans_dropped: 0,
        };
        let text = snap.render_text();
        assert!(text.contains(
            "munin_op_latency_us{class=\"fetch_add\",mode=\"blocking\",quantile=\"0.5\"}"
        ));
        assert!(text.contains("munin_object_accesses_total{obj=\"2\",kind=\"atomic\"} 9"));
        assert!(text.contains("munin_spans_recorded 1"));
        let json = snap.render_json();
        assert!(json.contains("\"class\": \"fetch_add\""));
        assert!(json.contains("\"home_us\": null"));
        assert!(json.contains("\"resume_us\": 4"));
        assert!(snap.class_hist(OpClass::FetchAdd, false).is_some());
        assert!(snap.class_hist(OpClass::Read, false).is_none());
    }
}
