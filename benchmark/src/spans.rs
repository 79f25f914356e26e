//! Benchmark-side spans around the calls into each layer.
//!
//! The spans live in memory until the run ends, then go out as Chrome trace
//! JSON through the `Span` / `chrome_trace` types `hdmm-engine` re-exports,
//! and as a "where the time went" table of self times.

use hdmm_engine::{chrome_trace, Span};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Parent id of a span that has no parent.
pub const NO_PARENT: u64 = 0;

/// An append-only span log. Interior locking, because optimizer restart
/// cells report from the optimizer's own threads.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Time attributed to one span name across the whole log.
#[derive(Debug, Clone, PartialEq)]
pub struct NameTotals {
    pub name: String,
    pub count: usize,
    pub total_ns: u64,
    /// Total minus the part of each span its children cover.
    pub self_ns: u64,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, request: u64, parent: u64, name: &str, start_ns: u64, dur_ns: u64) -> u64 {
        let mut spans = self
            .spans
            .lock()
            .expect("no span is recorded while panicking");
        let id = spans.len() as u64 + 1;
        spans.push(Span::new(request, id, parent, name, start_ns, dur_ns));
        id
    }

    /// Runs `f` under a new span and returns its result with the time taken.
    /// `f` receives the span's id, to parent children under it. `request`
    /// is the identifier shared by all spans of one replayed request.
    pub fn span<T>(
        &self,
        request: u64,
        parent: u64,
        name: &str,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        // Reserve the id first so children can name their parent; the
        // duration is filled in when `f` returns.
        let id = self.push(request, parent, name, ns(start - self.origin), 0);
        let value = f(id);
        let took = start.elapsed();
        self.spans
            .lock()
            .expect("no span is recorded while panicking")[id as usize - 1]
            .dur_ns = ns(took);
        (value, took)
    }

    /// Records a span that ended just now and took `took` — for work whose
    /// duration is reported by a callback rather than bracketed by the caller.
    pub fn record_ended(&self, request: u64, parent: u64, name: &str, took: Duration) {
        let end = ns(self.origin.elapsed());
        let dur = ns(took);
        self.push(request, parent, name, end.saturating_sub(dur), dur);
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .clone()
    }

    /// The log as Chrome `trace_event` JSON.
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.spans())
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover. Children may overlap one another (parallel
/// restart cells) or stick out of the parent (a callback-reported span whose
/// clock started a little early); overlap is counted once and the excess is
/// clipped.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|parent| {
            let (lo, hi) = (parent.start_ns, parent.start_ns + parent.dur_ns);
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent_id == parent.span_id && c.span_id != parent.span_id)
                .map(|c| (c.start_ns.max(lo), (c.start_ns + c.dur_ns).min(hi)))
                .filter(|(start, end)| end > start)
                .collect();
            children.sort_unstable();
            let mut covered = 0;
            let mut frontier = lo;
            for (start, end) in children {
                let start = start.max(frontier);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            parent.dur_ns - covered
        })
        .collect()
}

/// Per-name totals, largest self time first.
pub fn totals_by_name(spans: &[Span]) -> Vec<NameTotals> {
    let selfs = self_times(spans);
    let mut totals: Vec<NameTotals> = Vec::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        match totals.iter_mut().find(|t| t.name == span.name) {
            Some(t) => {
                t.count += 1;
                t.total_ns += span.dur_ns;
                t.self_ns += self_ns;
            }
            None => totals.push(NameTotals {
                name: span.name.clone(),
                count: 1,
                total_ns: span.dur_ns,
                self_ns,
            }),
        }
    }
    totals.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: u64, dur: u64) -> Span {
        Span::new(1, id, parent, name, start, dur)
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root [0,100) ⊃ select [10,70) ⊃ cell [20,50); root ⊃ answer [70,90).
        let spans = [
            span(1, NO_PARENT, "root", 0, 100),
            span(2, 1, "select", 10, 60),
            span(3, 2, "cell", 20, 30),
            span(4, 1, "answer", 70, 20),
        ];
        // root: 100 − (60 + 20); select: 60 − 30; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        // Two parallel cells [10,50) and [30,80) cover [10,80) = 70, not 90;
        // a third sticks out past the parent's end and is clipped to [90,100).
        let spans = [
            span(1, NO_PARENT, "select", 0, 100),
            span(2, 1, "cell", 10, 40),
            span(3, 1, "cell", 30, 50),
            span(4, 1, "cell", 90, 40),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);

        // A child that contains its sibling adds nothing twice.
        let contained = [
            span(1, NO_PARENT, "select", 0, 100),
            span(2, 1, "cell", 0, 100),
            span(3, 1, "cell", 40, 10),
        ];
        assert_eq!(self_times(&contained)[0], 0);
    }

    #[test]
    fn totals_group_by_name_and_sort_by_self_time() {
        let spans = [
            span(1, NO_PARENT, "select", 0, 100),
            span(2, 1, "cell", 0, 45),
            span(3, 1, "cell", 50, 45),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals[0].name, "cell");
        assert_eq!(
            (totals[0].count, totals[0].total_ns, totals[0].self_ns),
            (2, 90, 90)
        );
        assert_eq!((totals[1].name.as_str(), totals[1].self_ns), ("select", 10));
    }

    #[test]
    fn log_brackets_calls_and_parents_children() {
        let log = SpanLog::new();
        let ((), outer) = log.span(7, NO_PARENT, "outer", |outer_id| {
            log.span(7, outer_id, "inner", |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
            log.record_ended(7, outer_id, "reported", Duration::from_millis(1));
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].dur_ns, ns(outer));
        assert!(spans[1].parent_id == spans[0].span_id && spans[2].parent_id == spans[0].span_id);
        assert!(spans.iter().all(|s| s.trace_id == 7));
        assert!(spans[1].dur_ns >= 2_000_000);
        assert!(log.chrome_trace().contains("\"name\":\"inner\""));
    }
}
