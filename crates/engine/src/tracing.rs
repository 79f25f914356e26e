//! Per-request span recording: the glue between the engine's serving path
//! and the [`hdmm_obs`] primitives.
//!
//! A [`RequestTracer`] lives for exactly one `serve` call and is the one
//! [`Observer`] every layer of that request reports to. Each event feeds
//! the engine's [`Telemetry`] first — phase histograms and the restart
//! counter, identical with tracing on or off — and, when buffering, becomes
//! a [`Span`]: each phase, each shard task (`shard:<phase>`), each SELECT
//! restart cell (`restart:<operator>`), and every RPC attempt and re-based
//! worker-side span `hdmm-net` records, parented under the pre-allocated
//! phase spans via [`Observer::parent_for`].
//!
//! Spans are buffered in the tracer and flushed to the engine's
//! [`SpanCollector`] only at the end of the request — when the request is
//! sampled, or when it breached the slow-query threshold (the eager emit
//! that makes `slow_queries` actionable). An unsampled, fast request never
//! touches the shared collector at all — and whether a request *can* flush
//! is known before it starts (sampling is a stride over the request
//! counter), so a request that is unsampled with no slow-query threshold
//! set does not buffer: no [`Span`] is built for any event, and
//! [`Observer::context`] reports `None` so lower layers skip their own span
//! bookkeeping too.
//!
//! Phase span ids are **pre-allocated** (`queue`=2, `select`=3, `measure`=4,
//! `reconstruct`=5, `answer`=6, root=1) so children created *during* a phase
//! can parent under the phase span that is only recorded when the phase
//! completes.

use crate::telemetry::Telemetry;
use hdmm_obs::trace::{dur_ns, ROOT_SPAN_ID};
use hdmm_obs::{Observer, Phase, Span, SpanCollector, TraceContext};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Spans the engine's [`SpanCollector`] retains (ring-buffered; overflow
/// overwrites the oldest span and is drop-counted).
pub(crate) const TRACE_CAPACITY: usize = 4096;

/// Pre-allocated span id of the queue-wait span.
const QUEUE_SPAN_ID: u64 = 2;
/// Pre-allocated span id of the SELECT span.
pub(crate) const SELECT_SPAN_ID: u64 = 3;
/// First id handed out by [`Observer::next_span_id`].
const FIRST_DYNAMIC_SPAN_ID: u64 = 7;

/// The pre-allocated span id of a mechanism phase.
fn phase_span_id(phase: Phase) -> u64 {
    match phase {
        Phase::Measure => 4,
        Phase::Reconstruct => 5,
        Phase::Answer => 6,
    }
}

/// Records one request's spans; see the module docs for the lifecycle.
pub(crate) struct RequestTracer<'a> {
    ctx: TraceContext,
    collector: &'a SpanCollector,
    telemetry: &'a Telemetry,
    started: Instant,
    next_id: AtomicU64,
    /// Whether [`RequestTracer::finish`] could flush: spans are built and
    /// kept only then. Telemetry is fed either way.
    buffering: bool,
    spans: Mutex<Vec<Span>>,
}

impl<'a> RequestTracer<'a> {
    /// `buffering` must be true whenever [`RequestTracer::finish`] may be
    /// asked to flush — the request is sampled, or a slow-query threshold is
    /// set.
    pub(crate) fn new(
        ctx: TraceContext,
        collector: &'a SpanCollector,
        telemetry: &'a Telemetry,
        buffering: bool,
    ) -> Self {
        RequestTracer {
            ctx,
            collector,
            telemetry,
            started: Instant::now(),
            next_id: AtomicU64::new(FIRST_DYNAMIC_SPAN_ID),
            buffering,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn trace_id(&self) -> u64 {
        self.ctx.trace_id
    }

    /// A span of this trace that ended now, `elapsed` long.
    fn ended(&self, span_id: u64, parent: u64, name: impl Into<String>, elapsed: Duration) -> Span {
        let end = self.rel_ns(Instant::now());
        let dur = dur_ns(elapsed);
        Span::new(
            self.ctx.trace_id,
            span_id,
            parent,
            name,
            end.saturating_sub(dur),
            dur,
        )
    }

    /// Records the queue-wait span of a request that sat on the server's
    /// bounded queue from `enqueued` until now (its serving start).
    pub(crate) fn record_queue(&self, enqueued: Instant) {
        if self.buffering {
            self.record(self.ended(QUEUE_SPAN_ID, ROOT_SPAN_ID, "queue", enqueued.elapsed()));
        }
    }

    /// Records the SELECT span (cache lookup + optional optimization) that
    /// started at `from`.
    pub(crate) fn record_select(&self, from: Instant, cache_hit: bool) {
        if self.buffering {
            let span = self.ended(SELECT_SPAN_ID, ROOT_SPAN_ID, "select", from.elapsed());
            self.record(span.attr("cache_hit", if cache_hit { "true" } else { "false" }));
        }
    }

    /// Ends the request: decides slowness against `slow_threshold`, and when
    /// the request is `sampled` or slow, flushes the root span plus every
    /// buffered span to the collector. Returns whether the request was slow.
    pub(crate) fn finish(
        self,
        dataset: &str,
        ok: bool,
        sampled: bool,
        slow_threshold: Option<Duration>,
    ) -> bool {
        let elapsed = self.started.elapsed();
        let slow = slow_threshold.is_some_and(|t| elapsed >= t);
        if sampled || slow {
            let root = Span::new(
                self.ctx.trace_id,
                ROOT_SPAN_ID,
                0,
                "request",
                self.collector.rel_ns(self.started),
                dur_ns(elapsed),
            )
            .attr("dataset", dataset)
            .attr("outcome", if ok { "ok" } else { "error" })
            .attr("slow", if slow { "true" } else { "false" });
            self.collector.push(root);
            let spans = std::mem::take(&mut *lock(&self.spans));
            for span in spans {
                self.collector.push(span);
            }
        }
        slow
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Observer for RequestTracer<'_> {
    fn phase_complete(&self, phase: Phase, elapsed: Duration) {
        // Telemetry first: histograms stay identical with tracing on or off.
        self.telemetry.phase_complete(phase, elapsed);
        if self.buffering {
            self.record(self.ended(phase_span_id(phase), ROOT_SPAN_ID, phase.name(), elapsed));
        }
    }

    fn shard_phase_complete(&self, phase: Phase, shard: usize, elapsed: Duration) {
        if self.buffering {
            let name = format!("shard:{}", phase.name());
            let span = self.ended(self.next_span_id(), phase_span_id(phase), name, elapsed);
            let lane = shard.to_string();
            self.record(span.attr("shard", lane.clone()).attr("lane", lane));
        }
    }

    fn restart_complete(&self, operator: &'static str, restart: usize, loss: f64, took: Duration) {
        self.telemetry
            .restart_complete(operator, restart, loss, took);
        if self.buffering {
            let name = format!("restart:{operator}");
            let span = self.ended(self.next_span_id(), SELECT_SPAN_ID, name, took);
            self.record(
                span.attr("restart", restart.to_string())
                    .attr("loss", format!("{loss:e}")),
            );
        }
    }

    fn context(&self) -> Option<TraceContext> {
        self.buffering.then_some(self.ctx)
    }

    fn next_span_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn parent_for(&self, phase: Phase) -> Option<u64> {
        Some(phase_span_id(phase))
    }

    fn rel_ns(&self, at: Instant) -> u64 {
        self.collector.rel_ns(at)
    }

    fn record(&self, span: Span) {
        if self.buffering {
            lock(&self.spans).push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_events_feed_both_telemetry_and_spans() {
        let collector = SpanCollector::new(64);
        let telemetry = Telemetry::default();
        let ctx = TraceContext::derive(1, 0);
        let tracer = RequestTracer::new(ctx, &collector, &telemetry, true);
        tracer.phase_complete(Phase::Measure, Duration::from_micros(10));
        tracer.shard_phase_complete(Phase::Measure, 2, Duration::from_micros(4));
        assert!(!tracer.finish("d", true, true, None), "not slow");
        let spans = collector.trace(ctx.trace_id);
        assert_eq!(spans.len(), 3, "request + measure + shard task: {spans:?}");
        let shard = spans.iter().find(|s| s.name == "shard:measure").unwrap();
        assert_eq!(shard.parent_id, phase_span_id(Phase::Measure));
        assert_eq!(telemetry.snapshot().measure.count, 1);
    }

    #[test]
    fn unsampled_fast_requests_never_touch_the_collector() {
        let collector = SpanCollector::new(64);
        let telemetry = Telemetry::default();
        let ctx = TraceContext::derive(1, 1);
        let tracer = RequestTracer::new(ctx, &collector, &telemetry, true);
        tracer.phase_complete(Phase::Answer, Duration::from_micros(1));
        assert!(!tracer.finish("d", true, false, Some(Duration::from_secs(3600))));
        assert_eq!(collector.collected(), 0);

        // Unsampled with no slow-query threshold: `finish` can never flush,
        // so nothing is even buffered — but the histograms still count.
        let tracer = RequestTracer::new(ctx, &collector, &telemetry, false);
        tracer.record_queue(Instant::now());
        tracer.record_select(Instant::now(), true);
        tracer.phase_complete(Phase::Answer, Duration::from_micros(1));
        tracer.shard_phase_complete(Phase::Answer, 0, Duration::from_micros(1));
        assert!(tracer.context().is_none(), "lower layers skip their spans");
        tracer.record(Span::new(ctx.trace_id, 9, ROOT_SPAN_ID, "rpc", 0, 1));
        assert!(lock(&tracer.spans).is_empty(), "nothing was buffered");
        assert!(!tracer.finish("d", true, false, None));
        assert_eq!(collector.collected(), 0);
        assert_eq!(telemetry.snapshot().answer.count, 2);
    }

    #[test]
    fn slow_requests_flush_even_when_unsampled() {
        let collector = SpanCollector::new(64);
        let telemetry = Telemetry::default();
        let ctx = TraceContext::derive(1, 2);
        let tracer = RequestTracer::new(ctx, &collector, &telemetry, true);
        assert!(tracer.finish("d", false, false, Some(Duration::ZERO)));
        let spans = collector.trace(ctx.trace_id);
        assert_eq!(spans.len(), 1);
        assert!(spans[0]
            .attrs
            .iter()
            .any(|(k, v)| k == "slow" && v == "true"));
        assert!(spans[0]
            .attrs
            .iter()
            .any(|(k, v)| k == "outcome" && v == "error"));
    }
}
