//! The span collector: a sharded, bounded ring buffer plus Chrome
//! `trace_event` export.
//!
//! Serving threads push completed spans; an operator (or the metrics
//! exporter) reads them back by trace id. Requirements shaped the design:
//!
//! * **No global lock.** Writers pick a shard by trace id (so one trace's
//!   spans colocate and a snapshot of a hot trace touches one shard), claim
//!   a slot with one atomic `fetch_add`, and swap the span in under a
//!   per-slot mutex held for a pointer swap — two writers contend only when
//!   they land on the same slot of the same shard.
//! * **Bounded.** The ring overwrites the oldest span when full; every
//!   overwrite is drop-counted ([`SpanCollector::dropped`]) so silent data
//!   loss is visible in metrics, never invisible.
//! * **Readable while hot.** Snapshots lock slots one at a time; they see a
//!   consistent *per-span* view (a span is recorded exactly once, after it
//!   completes) without stalling writers.

use crate::json_escape;
use crate::trace::Span;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of independent rings; traces hash to one, so concurrent requests
/// rarely share a cursor cache line.
const COLLECTOR_SHARDS: usize = 8;

struct Ring {
    slots: Box<[Mutex<Option<Span>>]>,
    cursor: AtomicUsize,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }
}

/// A bounded, sharded buffer of completed [`Span`]s. Shareable across every
/// serving thread by reference; all methods take `&self`.
pub struct SpanCollector {
    epoch: Instant,
    rings: Vec<Ring>,
    collected: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for SpanCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanCollector")
            .field("capacity", &self.capacity())
            .field("collected", &self.collected())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl SpanCollector {
    /// A collector retaining up to `capacity` spans (rounded up to a
    /// multiple of the shard count, minimum one slot per shard).
    pub fn new(capacity: usize) -> SpanCollector {
        let per_shard = capacity.div_ceil(COLLECTOR_SHARDS).max(1);
        SpanCollector {
            epoch: Instant::now(),
            rings: (0..COLLECTOR_SHARDS)
                .map(|_| Ring::new(per_shard))
                .collect(),
            collected: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The instant all span timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds from the epoch to `at` (0 for instants before it).
    pub fn rel_ns(&self, at: Instant) -> u64 {
        crate::trace::dur_ns(at.saturating_duration_since(self.epoch))
    }

    /// Total spans the collector can retain.
    pub fn capacity(&self) -> usize {
        self.rings.iter().map(|r| r.slots.len()).sum()
    }

    /// Spans pushed over the collector's lifetime.
    pub fn collected(&self) -> u64 {
        self.collected.load(Ordering::Relaxed)
    }

    /// Spans lost to ring overflow (the oldest span is overwritten when a
    /// ring wraps). A growing value means `capacity` is too small for the
    /// retention window being queried.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records one completed span.
    pub fn push(&self, span: Span) {
        let ring = &self.rings[(span.trace_id as usize) % self.rings.len()];
        let idx = ring.cursor.fetch_add(1, Ordering::Relaxed) % ring.slots.len();
        let evicted = {
            let mut slot = ring.slots[idx].lock().unwrap_or_else(|p| p.into_inner());
            slot.replace(span)
        };
        self.collected.fetch_add(1, Ordering::Relaxed);
        if evicted.is_some() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every retained span, in no particular order.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for ring in &self.rings {
            for slot in ring.slots.iter() {
                let guard = slot.lock().unwrap_or_else(|p| p.into_inner());
                if let Some(span) = guard.as_ref() {
                    out.push(span.clone());
                }
            }
        }
        out
    }

    /// The retained spans of one trace, sorted by start time (a span tree in
    /// depth-first-completion order once assembled by `parent_id`).
    pub fn trace(&self, trace_id: u64) -> Vec<Span> {
        let ring = &self.rings[(trace_id as usize) % self.rings.len()];
        let mut out: Vec<Span> = ring
            .slots
            .iter()
            .filter_map(|slot| {
                let guard = slot.lock().unwrap_or_else(|p| p.into_inner());
                guard.as_ref().filter(|s| s.trace_id == trace_id).cloned()
            })
            .collect();
        out.sort_by_key(|s| (s.start_ns, s.span_id));
        out
    }
}

/// Renders spans as Chrome `trace_event` JSON (the JSON-array-of-events
/// format Perfetto and `chrome://tracing` open directly).
///
/// Each span becomes one complete (`"ph":"X"`) event. `pid` is a stable
/// 31-bit fold of the trace id so multiple traces exported together land in
/// separate process groups; `tid` separates concurrent siblings into lanes
/// (the `lane` attribute when present — shard fan-outs set it to the shard
/// index — else lane 0), since overlapping events on one Chrome track render
/// as false nesting. Timestamps are microseconds, as the format requires;
/// worker-side spans were re-based onto the coordinator clock by their RPC
/// attempt, accurate to within the attempt's network round-trip.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let pid = (s.trace_id % 0x7fff_ffff).max(1);
        let lane = s
            .attrs
            .iter()
            .find(|(k, _)| k == "lane")
            .and_then(|(_, v)| v.parse::<u64>().ok())
            .unwrap_or(0);
        out.push_str("{\"name\":\"");
        json_escape(&mut out, &s.name);
        out.push_str("\",\"ph\":\"X\",\"pid\":");
        out.push_str(&pid.to_string());
        out.push_str(",\"tid\":");
        out.push_str(&lane.to_string());
        // Microsecond floats keep sub-µs spans visible (0.001 µs granularity).
        out.push_str(&format!(
            ",\"ts\":{:.3},\"dur\":{:.3}",
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3
        ));
        out.push_str(",\"args\":{\"trace_id\":\"");
        out.push_str(&format!("{:016x}", s.trace_id));
        out.push_str("\",\"span_id\":");
        out.push_str(&s.span_id.to_string());
        out.push_str(",\"parent_id\":");
        out.push_str(&s.parent_id.to_string());
        for (k, v) in &s.attrs {
            out.push_str(",\"");
            json_escape(&mut out, k);
            out.push_str("\":\"");
            json_escape(&mut out, v);
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, start: u64) -> Span {
        Span::new(trace, id, if id == 1 { 0 } else { 1 }, "s", start, 10)
    }

    #[test]
    fn push_and_read_back_by_trace() {
        let c = SpanCollector::new(64);
        c.push(span(5, 1, 0));
        c.push(span(5, 2, 3));
        c.push(span(6, 1, 1));
        let t = c.trace(5);
        assert_eq!(t.len(), 2);
        assert_eq!((t[0].span_id, t[1].span_id), (1, 2), "sorted by start");
        assert_eq!(c.trace(6).len(), 1);
        assert!(c.trace(7).is_empty());
        assert_eq!(c.collected(), 3);
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn overflow_overwrites_oldest_and_counts_drops() {
        let c = SpanCollector::new(8); // 1 slot per shard
        for i in 0..5 {
            c.push(span(16, i + 1, i)); // same shard every time
        }
        assert_eq!(c.trace(16).len(), 1, "one slot retains one span");
        assert_eq!(c.dropped(), 4);
        assert_eq!(c.collected(), 5);
    }

    #[test]
    fn concurrent_pushes_lose_nothing_within_capacity() {
        let c = SpanCollector::new(4096);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..64 {
                        c.push(span(t, i + 1, i));
                    }
                });
            }
        });
        assert_eq!(c.collected(), 512);
        assert_eq!(c.dropped(), 0);
        assert_eq!(c.snapshot().len(), 512);
    }

    #[test]
    fn chrome_export_is_valid_shaped_json() {
        let c = SpanCollector::new(64);
        c.push(span(5, 1, 0).attr("lane", "2").attr("note", "a\"b\\c\n"));
        let json = chrome_trace(&c.trace(5));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":2"), "{json}");
        assert!(json.contains("a\\\"b\\\\c\\n"), "escaped attr: {json}");
        // Balanced braces/brackets outside strings — cheap well-formedness.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for ch in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match ch {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn empty_export_is_still_valid() {
        assert_eq!(chrome_trace(&[]), "{\"traceEvents\":[]}");
    }
}
