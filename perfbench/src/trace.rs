//! Host-time spans recorded around calls into the program's layers, their
//! self times, and their Chrome-trace rendering (one host lane per rank).

use std::fmt::Write as _;
use std::time::Instant;

/// Lane of spans recorded on the benchmark's own thread (not a rank).
pub const MAIN_LANE: usize = usize::MAX;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name, e.g. `factor.step`.
    pub name: &'static str,
    /// Start, seconds since the recorder's epoch.
    pub start: f64,
    /// End, seconds since the recorder's epoch.
    pub end: f64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Rank the span ran on, or [`MAIN_LANE`].
    pub lane: usize,
    /// Repetition id of the traced run the span belongs to.
    pub rep: usize,
}

impl Span {
    /// Duration, seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects the spans of one lane. Each rank owns its recorder and returns
/// it from its closure, so recording needs no shared state.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    lane: usize,
    rep: usize,
    keep: bool,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder on `lane` whose times count from `epoch`.
    pub fn new(epoch: Instant, lane: usize, rep: usize) -> Self {
        Recorder {
            epoch,
            lane,
            rep,
            keep: true,
            spans: Vec::new(),
        }
    }

    /// A recorder that times calls but keeps no spans (the ranks of a
    /// large world beyond the few drawn as lanes).
    pub fn timing_only(epoch: Instant, lane: usize, rep: usize) -> Self {
        Recorder {
            keep: false,
            ..Recorder::new(epoch, lane, rep)
        }
    }

    /// Opens a span now and returns its id; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        self.open_at(name, parent, Instant::now())
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.close_at(id, Instant::now());
    }

    /// Times `f` as a span named `name` under `parent`; returns its result
    /// and duration, seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let id = self.open_at(name, parent, start);
        let out = f();
        let end = Instant::now();
        self.close_at(id, end);
        (out, (end - start).as_secs_f64())
    }

    fn open_at(&mut self, name: &'static str, parent: Option<usize>, at: Instant) -> usize {
        if !self.keep {
            return usize::MAX;
        }
        let t = (at - self.epoch).as_secs_f64();
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent,
            lane: self.lane,
            rep: self.rep,
        });
        self.spans.len() - 1
    }

    fn close_at(&mut self, id: usize, at: Instant) {
        if let Some(span) = self.spans.get_mut(id) {
            span.end = (at - self.epoch).as_secs_f64();
        }
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. `spans` is one recorder's output.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.secs();
        }
    }
    out
}

/// Renders spans as a Chrome trace: process 1 holds one thread lane per
/// rank (lane `r` is thread `r`), the benchmark's own thread is lane
/// `main`. Times are microseconds.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut lanes: Vec<usize> = spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let tid = |lane: usize| {
        if lane == MAIN_LANE {
            0
        } else {
            lane + 1
        }
    };
    let mut out = String::from("{\"traceEvents\":[\n");
    for &lane in &lanes {
        let label = if lane == MAIN_LANE {
            "main".to_string()
        } else {
            format!("rank {lane}")
        };
        let _ = writeln!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{label}\"}}}},",
            tid(lane)
        );
    }
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"rep\":{},\"parent\":{parent}}}}},",
            s.name,
            tid(s.lane),
            s.start * 1e6,
            s.secs() * 1e6,
            s.rep,
        );
    }
    // Close the array without a trailing comma.
    out.push_str("{\"name\":\"end\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":0,\"s\":\"g\"}\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mk = |start, end, parent| Span {
            name: "x",
            start,
            end,
            parent,
            lane: 0,
            rep: 0,
        };
        let spans = [
            mk(0.0, 10.0, None),
            mk(1.0, 4.0, Some(0)),
            mk(5.0, 6.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![6.0, 3.0, 1.0]);
        let main = Span {
            lane: MAIN_LANE,
            ..mk(0.0, 1.0, None)
        };
        let json = chrome_trace(&[spans[0].clone(), main]);
        assert!(json.contains("\"tid\":1") && json.contains("\"name\":\"main\""));
        assert!(serde_json::from_str(&json).is_ok());
    }
}
