//! Spans recorded by the benchmark around each call into a layer.
//!
//! One [`Tracer`] per client thread, appended to without a lock; the
//! vectors are merged and written out when the run ends. A span names the
//! span that caused it (`parent`) and the request it belongs to. A layer's
//! self time is its duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use crate::alloc::Records;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index, within the same tracer, of the enclosing span.
    pub parent: u32,
    pub request_id: u64,
    /// Uncompressed bytes the call handled (0 where that has no meaning).
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Tok(Option<u32>);

#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    request_id: u64,
    spans: Records<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Start a request: later spans carry `request_id`, and are recorded
    /// only when `enabled`.
    pub fn start_request(&mut self, request_id: u64, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "previous request left spans open");
        self.request_id = request_id;
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, name: &'static str) -> Tok {
        if !self.enabled {
            return Tok(None);
        }
        self.begin_at(name, now_ns())
    }

    /// Open a span that started earlier, on another thread's clock reading
    /// (a request is stamped where it is pushed, and served elsewhere).
    pub fn begin_at(&mut self, name: &'static str, start_ns: u64) -> Tok {
        if !self.enabled {
            return Tok(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id: self.request_id,
            bytes: 0,
        });
        self.stack.push(id);
        Tok(Some(id))
    }

    pub fn end(&mut self, tok: Tok) {
        self.end_bytes(tok, 0);
    }

    pub fn end_bytes(&mut self, tok: Tok, bytes: u64) {
        let Some(id) = tok.0 else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now_ns();
        span.bytes = bytes;
    }

    /// Record a finished child of the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: self.request_id,
            bytes: 0,
        });
    }

    /// Run `f` inside a span. `bytes` is what the call handled.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        bytes: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let tok = self.begin(name);
        let out = f(self);
        self.end_bytes(tok, bytes);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span of one tracer: duration minus direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.dur_ns());
        }
    }
    own
}

/// Totals of all spans sharing a name.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
    pub bytes: u64,
    /// Every duration, for medians.
    pub durs: Vec<u64>,
}

impl SpanTotals {
    /// Uncompressed megabytes (10⁶ B) per second of span time.
    pub fn mb_per_s(&self) -> f64 {
        if self.dur_ns == 0 {
            0.0
        } else {
            self.bytes as f64 * 1e3 / self.dur_ns as f64
        }
    }

    pub fn median_ns(&self) -> f64 {
        let mut d = self.durs.clone();
        crate::stats::percentile(&mut d, 50.0) as f64
    }
}

/// Per-name totals over the spans of all tracers.
pub fn aggregate(tracers: &[&Tracer]) -> BTreeMap<&'static str, SpanTotals> {
    let mut by_name: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for tracer in tracers {
        let own = self_times(tracer.spans());
        for (span, self_ns) in tracer.spans().iter().zip(own) {
            let t = by_name.entry(span.name).or_default();
            t.count += 1;
            t.dur_ns += span.dur_ns();
            t.self_ns += self_ns;
            t.bytes += span.bytes;
            t.durs.push(span.dur_ns());
        }
    }
    by_name
}

/// Most spans a trace file holds; aggregates always use all of them.
pub const MAX_SPANS_WRITTEN: usize = 50_000;

/// The trace file: one object per span, ids global across threads.
pub fn to_json(header: &str, tracers: &[&Tracer]) -> String {
    let total: usize = tracers.iter().map(|t| t.spans().len()).sum();
    let mut out = String::with_capacity(total.min(MAX_SPANS_WRITTEN) * 120 + 256);
    out.push_str("{\n");
    out.push_str(header);
    out.push_str(&format!(
        "  \"spans_total\": {total},\n  \"spans_written\": {},\n  \"spans\": [\n",
        total.min(MAX_SPANS_WRITTEN)
    ));
    let mut written = 0usize;
    let mut base = 0u64;
    'all: for (thread, tracer) in tracers.iter().enumerate() {
        for (i, s) in tracer.spans().iter().enumerate() {
            if written == MAX_SPANS_WRITTEN {
                break 'all;
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                (base + s.parent as u64).to_string()
            };
            if written > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "    {{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request_id\": {}, \"thread\": {thread}, \"bytes\": {}}}",
                base + i as u64,
                s.name,
                s.start_ns,
                s.end_ns,
                s.request_id,
                s.bytes
            ));
            written += 1;
        }
        base += tracer.spans().len() as u64;
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, request_id: 0, bytes: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // request 0..100 → a 10..40 (→ a1 15..25), b 50..90; siblings a and b
        // both come off the request, a1 only off a.
        let spans = vec![
            span("request", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("a1", 15, 25, 1),
            span("b", 50, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 40, 30 - 10, 10, 40]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root's duration");
    }

    #[test]
    fn tracer_links_children_to_the_innermost_open_span() {
        let mut t = Tracer::new();
        t.start_request(9, true);
        let req = t.begin_at("request", 5);
        t.leaf("par.queue_wait", 5, 7);
        t.span("outer", 64, |t| t.span("inner", 0, |_| ()));
        t.end(req);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("request", NO_PARENT), ("par.queue_wait", 0), ("outer", 0), ("inner", 2)]
        );
        assert!(t.spans().iter().all(|s| s.request_id == 9 && s.end_ns >= s.start_ns));
        assert_eq!(t.spans()[2].bytes, 64);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.start_request(1, false);
        let tok = t.begin("request");
        t.leaf("x", 0, 1);
        assert_eq!(t.span("y", 0, |_| 3), 3);
        t.end(tok);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn aggregate_sums_by_name_across_tracers() {
        let mut a = Tracer::new();
        a.start_request(0, true);
        a.leaf("k", 0, 10);
        let mut b = Tracer::new();
        b.start_request(1, true);
        b.leaf("k", 5, 25);
        let agg = aggregate(&[&a, &b]);
        assert_eq!(agg["k"].count, 2);
        assert_eq!(agg["k"].dur_ns, 30);
        assert_eq!(agg["k"].self_ns, 30);
    }
}
