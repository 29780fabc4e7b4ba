//! Host-clock spans recorded by the benchmark around its calls into each
//! layer. One [`SpanRecorder`] per rank thread, all sharing one epoch so
//! timestamps compare across ranks; spans stay in memory and are written as a
//! Chrome trace (`chrome://tracing`, Perfetto) when the run ends.

use serde::Value;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    /// Outer iteration (or epoch) the span belongs to; 0 outside the loop.
    pub iteration: usize,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Nanoseconds since the shared epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn seconds(&self) -> f64 {
        self.duration_ns() as f64 * 1e-9
    }
}

/// Records the spans of one rank. `begin`/`end` must nest.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    rank: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanRecorder {
    /// A recorder for `rank` measuring from `epoch`, with room for
    /// `capacity` spans so recording does not allocate inside the run.
    pub fn new(epoch: Instant, rank: usize, capacity: usize) -> Self {
        Self {
            epoch,
            rank,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn begin(&mut self, name: &'static str, iteration: usize) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            rank: self.rank,
            iteration,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`.
    ///
    /// # Panics
    /// Panics unless `id` is the innermost open span.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, iteration: usize, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, iteration);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    ///
    /// # Panics
    /// Panics if a span is still open.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "finish with {} span(s) still open", self.open.len());
        self.spans
    }
}

/// Self time of every span of one recorder: its duration minus the part of
/// that interval its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let covered = span.end_ns.min(p.end_ns).saturating_sub(span.start_ns.max(p.start_ns));
            own[parent] = own[parent].saturating_sub(covered);
        }
    }
    own
}

/// Seconds the blocking rank spent in spans called `name`, summed over
/// iterations. The ranks meet at every iteration's consensus round, so the
/// rank whose `anchor` span (the local solve) ends last is the one the
/// others wait for: its spans contain no waiting and add up to the
/// iteration's wall clock. An iteration without an anchor span (the
/// instrumentation before the loop) counts its slowest rank.
pub fn blocking_seconds(per_rank: &[Vec<Span>], anchor: &str, name: &str) -> f64 {
    let iterations = per_rank.iter().flatten().map(|s| s.iteration + 1).max().unwrap_or(0);
    let in_phase = |spans: &[Span], k: usize| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name && s.iteration == k)
            .map(Span::seconds)
            .sum()
    };
    let mut total = 0.0;
    for k in 0..iterations {
        let blocking = per_rank
            .iter()
            .filter_map(|spans| {
                let end = spans
                    .iter()
                    .filter(|s| s.name == anchor && s.iteration == k)
                    .map(|s| s.end_ns)
                    .max()?;
                Some((end, spans))
            })
            .max_by_key(|(end, _)| *end);
        total += match blocking {
            Some((_, spans)) => in_phase(spans, k),
            None => per_rank.iter().map(|spans| in_phase(spans, k)).fold(0.0, f64::max),
        };
    }
    total
}

/// The spans of every rank as a Chrome trace document (`X` events, one
/// thread lane per rank, microsecond timestamps).
pub fn chrome_trace(per_rank: &[Vec<Span>]) -> Value {
    let mut events = Vec::new();
    for spans in per_rank {
        let own = self_times_ns(spans);
        for (span, self_ns) in spans.iter().zip(own) {
            let parent = span.parent.map_or(Value::Null, |p| Value::Num(p as f64));
            events.push(Value::Map(vec![
                ("name".into(), Value::Str(span.name.into())),
                ("cat".into(), Value::Str("bench_e2e".into())),
                ("ph".into(), Value::Str("X".into())),
                ("pid".into(), Value::Num(0.0)),
                ("tid".into(), Value::Num(span.rank as f64)),
                ("ts".into(), Value::Num(span.start_ns as f64 / 1e3)),
                ("dur".into(), Value::Num(span.duration_ns() as f64 / 1e3)),
                (
                    "args".into(),
                    Value::Map(vec![
                        ("iteration".into(), Value::Num(span.iteration as f64)),
                        ("parent".into(), parent),
                        ("self_us".into(), Value::Num(self_ns as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
    }
    Value::Map(vec![
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        ("traceEvents".into(), Value::Seq(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, rank: usize, iteration: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            rank,
            iteration,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("run", 0, 0, None, 0, 100),
            span("iteration", 0, 1, Some(0), 10, 90),
            span("solve", 0, 1, Some(1), 10, 60),
            span("consensus", 0, 1, Some(1), 60, 85),
        ];
        // run: 100 − 80 (iteration); iteration: 80 − 50 − 25; leaves keep all.
        assert_eq!(self_times_ns(&spans), vec![20, 5, 50, 25]);
    }

    #[test]
    fn self_time_clips_a_child_to_its_parent_interval() {
        let spans = vec![span("outer", 0, 0, None, 10, 50), span("inner", 0, 0, Some(0), 40, 70)];
        assert_eq!(self_times_ns(&spans), vec![30, 30]);
    }

    #[test]
    fn recorder_nests_and_links_parents() {
        let mut rec = SpanRecorder::new(Instant::now(), 3, 4);
        let outer = rec.begin("outer", 0);
        let got = rec.time("inner", 2, || 42);
        rec.end(outer);
        assert_eq!(got, 42);
        let spans = rec.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].rank, spans[1].iteration), (3, 2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut rec = SpanRecorder::new(Instant::now(), 0, 4);
        let a = rec.begin("a", 0);
        let _b = rec.begin("b", 0);
        rec.end(a);
    }

    #[test]
    fn phase_time_follows_the_rank_whose_solve_ends_last() {
        const S: u64 = 1_000_000_000;
        let rank0 = vec![
            span("instrumentation", 0, 0, None, 0, S),
            span("solve", 0, 1, None, S, 3 * S),
            span("consensus", 0, 1, None, 3 * S, 4 * S),
            span("solve", 0, 2, None, 4 * S, 5 * S),
            span("consensus", 0, 2, None, 5 * S, 8 * S),
        ];
        let rank1 = vec![
            span("instrumentation", 1, 0, None, 0, 2 * S),
            span("solve", 1, 1, None, S, 2 * S),
            // Waits a second for rank 0's solve inside its consensus span.
            span("consensus", 1, 1, None, 2 * S, 4 * S),
            span("solve", 1, 2, None, 4 * S, 7 * S),
            span("consensus", 1, 2, None, 7 * S, 8 * S),
        ];
        let ranks = [rank0, rank1];
        // Iteration 1 follows rank 0 (2 s solve, 1 s consensus), iteration 2
        // rank 1 (3 s, 1 s): the waits of the other rank are not counted.
        assert_eq!(blocking_seconds(&ranks, "solve", "solve"), 5.0);
        assert_eq!(blocking_seconds(&ranks, "solve", "consensus"), 2.0);
        // No solve in iteration 0: the slowest rank counts.
        assert_eq!(blocking_seconds(&ranks, "solve", "instrumentation"), 2.0);
        assert_eq!(blocking_seconds(&[], "solve", "solve"), 0.0);
    }

    #[test]
    fn chrome_trace_has_one_event_per_span() {
        let spans = vec![
            span("run", 1, 0, None, 1_000, 5_000),
            span("solve", 1, 1, Some(0), 2_000, 3_000),
        ];
        let doc = chrome_trace(&[spans]);
        let Some(Value::Seq(events)) = doc.get("traceEvents") else {
            panic!("traceEvents missing")
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("tid"), Some(&Value::Num(1.0)));
        assert_eq!(events[1].get("dur"), Some(&Value::Num(1.0)));
        assert_eq!(events[0].get("args").and_then(|a| a.get("self_us")), Some(&Value::Num(3.0)));
    }
}
