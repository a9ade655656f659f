//! Run tracing: converts per-iteration records into a Chrome-tracing
//! (`about:tracing` / Perfetto) JSON timeline and aggregate summaries.
//!
//! Complements the §VI-B progress monitoring: the paper's team watched
//! per-component progress output and power draw to spot sick runs early;
//! a timeline view makes the same structure visually obvious (the
//! compute-bound head and communication-bound tail of Fig. 10).

use crate::factor::IterRecord;
use crate::runtime::{CommEvent, CommOp, CommScope};
use crate::supervisor::RunEvent;
use serde::Serialize as _;
use std::fmt::Write as _;

/// Aggregate time per component over a run (one rank).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTotals {
    /// Total GETRF seconds.
    pub getrf: f64,
    /// Total panel-TRSM seconds.
    pub trsm: f64,
    /// Total CAST/TRANS_CAST seconds.
    pub cast: f64,
    /// Total trailing-GEMM seconds.
    pub gemm: f64,
    /// Total panel-broadcast busy seconds (injection + forwarding).
    pub bcast: f64,
    /// Total communication-wait seconds.
    pub wait: f64,
    /// Total overlap-hidden seconds: panel flight time covered by local
    /// work between broadcast post and join. Attribution, not wall time —
    /// excluded from [`PhaseTotals::total`].
    pub hidden: f64,
}

impl PhaseTotals {
    /// Sums a record series.
    pub fn from_records(records: &[IterRecord]) -> Self {
        let mut t = PhaseTotals::default();
        for r in records {
            t.getrf += r.getrf;
            t.trsm += r.trsm;
            t.cast += r.cast;
            t.gemm += r.gemm;
            t.bcast += r.bcast;
            t.wait += r.wait;
            t.hidden += r.hidden;
        }
        t
    }

    /// Total accounted seconds (`hidden` is overlap attribution, already
    /// covered by compute time, so it is not part of the sum).
    pub fn total(&self) -> f64 {
        self.getrf + self.trsm + self.cast + self.gemm + self.bcast + self.wait
    }

    /// Fraction of accounted time spent in the trailing GEMM — the
    /// "computational bounded" indicator of Fig. 10.
    pub fn gemm_fraction(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            self.gemm / self.total()
        }
    }
}

/// Serializes a rank's records as a Chrome-tracing JSON array: one complete
/// ("X") event per nonzero component per iteration, on one thread lane per
/// component. Timestamps are microseconds; iterations are laid out
/// back-to-back in component order (the records carry durations, not
/// absolute starts).
pub fn chrome_trace(records: &[IterRecord], rank: usize) -> String {
    let mut out = String::from("[\n");
    let mut t_us = 0.0f64;
    let mut first = true;
    for rec in records {
        for (name, dur, lane) in [
            ("getrf", rec.getrf, 0),
            ("trsm", rec.trsm, 1),
            ("cast", rec.cast, 2),
            ("gemm", rec.gemm, 3),
            ("wait", rec.wait, 4),
            ("bcast", rec.bcast, 5),
        ] {
            if dur <= 0.0 {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                r#"  {{"name":"{name}","cat":"iter{k}","ph":"X","ts":{ts:.3},"dur":{dur:.3},"pid":0,"tid":{lane},"args":{{"k":{k},"rank":{rank}}}}}"#,
                k = rec.k,
                ts = t_us,
                dur = dur * 1e6,
            );
            t_us += dur * 1e6;
        }
        // Overlap-hidden seconds as a counter series: not wall time (the
        // compute lanes already cover it), so a "C" event, not an "X" span.
        if rec.hidden > 0.0 {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                r#"  {{"name":"overlap_hidden_us","ph":"C","ts":{ts:.3},"pid":0,"args":{{"hidden":{h:.3}}}}}"#,
                ts = t_us,
                h = rec.hidden * 1e6,
            );
        }
    }
    out.push_str("\n]\n");
    out
}

/// Serializes a rank's [`CommEvent`] list as Chrome-tracing JSON comm
/// lanes: one complete ("X") event per operation with nonzero duration,
/// one thread lane per operation kind — bcast=5, allreduce=6, send=7,
/// recv=8, barrier=9, continuing the compute lanes of [`chrome_trace`]
/// (whose panel-bcast busy time already lives on lane 5). Timestamps are
/// the operations' absolute simulated microseconds, so the comm lanes of
/// every driver land on one shared timeline.
pub fn comm_chrome_trace(events: &[CommEvent], rank: usize) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for ev in events {
        let dur = (ev.busy + ev.waited) * 1e6;
        if dur <= 0.0 {
            continue;
        }
        let lane = match ev.op {
            CommOp::Bcast => 5,
            CommOp::Allreduce => 6,
            CommOp::Send => 7,
            CommOp::Recv => 8,
            CommOp::Barrier => 9,
            CommOp::Checkpoint => 10,
        };
        let scope = match ev.scope {
            Some(CommScope::Row) => "row",
            Some(CommScope::Col) => "col",
            Some(CommScope::World) => "world",
            None if ev.op == CommOp::Checkpoint => "local",
            None => "p2p",
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            r#"  {{"name":"{name}","cat":"{scope}","ph":"X","ts":{ts:.3},"dur":{dur:.3},"pid":0,"tid":{lane},"args":{{"rank":{rank},"bytes":{bytes},"waited_us":{w:.3},"hidden_us":{h:.3}}}}}"#,
            name = ev.op.label(),
            ts = ev.ts * 1e6,
            bytes = ev.bytes,
            w = ev.waited * 1e6,
            h = ev.hidden * 1e6,
        );
    }
    out.push_str("\n]\n");
    out
}

/// Serializes a supervision event log as JSON Lines: one event object per
/// line, suitable for `tail -f` during a run and for post-hoc analysis
/// next to the Chrome trace.
pub fn event_log_jsonl(events: &[RunEvent]) -> String {
    let mut out = String::new();
    for e in events {
        e.serialize_json(&mut out);
        out.push('\n');
    }
    out
}

/// [`event_log_jsonl`] with a `"job"` member spliced in front of every
/// event object, so the logs of many supervised jobs can share one
/// directory (or be concatenated into one stream) without losing which
/// run each line belongs to. The job id is the first member of every
/// line, making `grep '"job":7'` a per-job filter.
pub fn tagged_event_log_jsonl(job: u64, events: &[RunEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let mut line = String::new();
        e.serialize_json(&mut line);
        debug_assert!(line.starts_with('{'), "events serialize as JSON objects");
        let _ = write!(out, "{{\"job\":{job},{}", &line[1..]);
        out.push('\n');
    }
    out
}

/// Renders a compact per-phase summary table (plain text).
pub fn summary(records: &[IterRecord]) -> String {
    let t = PhaseTotals::from_records(records);
    let pct = |v: f64| {
        if t.total() > 0.0 {
            100.0 * v / t.total()
        } else {
            0.0
        }
    };
    format!(
        "phase totals over {} iterations (accounted {:.3} s):\n\
         \x20 getrf {:>9.3} ms ({:>5.1}%)\n\
         \x20 trsm  {:>9.3} ms ({:>5.1}%)\n\
         \x20 cast  {:>9.3} ms ({:>5.1}%)\n\
         \x20 gemm  {:>9.3} ms ({:>5.1}%)\n\
         \x20 bcast {:>9.3} ms ({:>5.1}%)\n\
         \x20 wait  {:>9.3} ms ({:>5.1}%)\n\
         \x20 hidden overlap {:>9.3} ms (excluded from totals)\n",
        records.len(),
        t.total(),
        t.getrf * 1e3,
        pct(t.getrf),
        t.trsm * 1e3,
        pct(t.trsm),
        t.cast * 1e3,
        pct(t.cast),
        t.gemm * 1e3,
        pct(t.gemm),
        t.bcast * 1e3,
        pct(t.bcast),
        t.wait * 1e3,
        pct(t.wait),
        t.hidden * 1e3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<IterRecord> {
        vec![
            IterRecord {
                k: 0,
                getrf: 0.001,
                trsm: 0.002,
                cast: 0.0005,
                gemm: 0.01,
                wait: 0.0,
                ..Default::default()
            },
            IterRecord {
                k: 1,
                getrf: 0.0,
                trsm: 0.002,
                cast: 0.0005,
                gemm: 0.008,
                wait: 0.003,
                bcast: 0.001,
                hidden: 0.002,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn totals_sum() {
        let t = PhaseTotals::from_records(&sample());
        assert!((t.getrf - 0.001).abs() < 1e-12);
        assert!((t.gemm - 0.018).abs() < 1e-12);
        assert!((t.bcast - 0.001).abs() < 1e-12);
        assert!((t.total() - 0.028).abs() < 1e-12);
        // Hidden overlap is tracked but never part of the accounted total.
        assert!((t.hidden - 0.002).abs() < 1e-12);
        assert!(t.gemm_fraction() > 0.6);
    }

    #[test]
    fn empty_records() {
        let t = PhaseTotals::from_records(&[]);
        assert_eq!(t.total(), 0.0);
        assert_eq!(t.gemm_fraction(), 0.0);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let json = chrome_trace(&sample(), 0);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = parsed.as_array().unwrap();
        // 4 nonzero spans in iter 0; 5 spans + 1 hidden counter in iter 1.
        assert_eq!(events.len(), 10);
        assert_eq!(events[0]["name"], "getrf");
        assert_eq!(events[0]["ph"], "X");
        // Events are laid out without overlap: ts nondecreasing.
        let mut prev = -1.0;
        for e in events {
            let ts = e["ts"].as_f64().unwrap();
            assert!(ts >= prev);
            prev = ts;
        }
    }

    #[test]
    fn summary_mentions_every_phase() {
        let s = summary(&sample());
        for phase in ["getrf", "trsm", "cast", "gemm", "bcast", "wait", "hidden"] {
            assert!(s.contains(phase), "missing {phase} in:\n{s}");
        }
    }

    #[test]
    fn trace_from_a_real_run() {
        use crate::solve::{run, RunConfig};
        use crate::systems::testbed;
        use crate::ProcessGrid;
        let grid = ProcessGrid::col_major(2, 2, 4);
        let cfg = RunConfig::timing(testbed(1, 4), grid, 1024, 128)
            .build()
            .unwrap();
        let out = run(&cfg);
        let json = chrome_trace(out.records_rank0(), 0);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(parsed.as_array().unwrap().len() >= out.records_rank0().len());
        let t = PhaseTotals::from_records(out.records_rank0());
        // The accounted time is within the rank's elapsed factor time.
        assert!(t.total() <= out.perf.factor_time * 1.01);
    }

    #[test]
    fn event_log_is_one_json_object_per_line() {
        use crate::report::PerfReport;
        let events = vec![
            RunEvent::RunStarted {
                attempt: 1,
                n: 1024,
                ranks: 4,
            },
            RunEvent::RunCompleted {
                attempt: 1,
                perf: PerfReport::new(1024, 4, 1.0, 0.8, 0.2),
                converged: true,
            },
        ];
        let log = event_log_jsonl(&events);
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
            assert!(v.get("event").is_some());
        }
    }
}
