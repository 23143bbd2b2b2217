//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer of the program — nothing
//! is recorded inside the program itself. All calls come from the one
//! load-generator thread, so spans nest strictly and a stack gives each its
//! parent. Spans stay in memory until the run ends; then they are written as
//! a Chrome trace-event file and folded into a per-layer self-time table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    name: &'static str,
    /// Request, batch or iteration the span served (spans of one request
    /// share it).
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Per-layer totals folded from the spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub spans: u64,
    pub total_ns: u64,
    /// Span time not covered by child spans.
    pub self_ns: u64,
}

/// In-memory span recorder; a disabled one records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span of `layer` around the call that follows.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(layer, name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total and self time per layer. Self time is a span's duration minus
    /// the part its direct children cover (children nest inside it).
    #[must_use]
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.layer).or_default();
            entry.spans += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// The spans as a Chrome trace-event JSON document (loadable in Perfetto):
    /// one complete event per span, microsecond timestamps, with the layer as
    /// the category and the request id and parent index as arguments.
    #[must_use]
    pub fn chrome_trace(&self, fingerprint: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 256);
        let _ = write!(
            out,
            "{{\"otherData\":{fingerprint},\"displayTimeUnit\":\"ms\",\"traceEvents\":["
        );
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"{}\",\"name\":\"{}\",\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"span\":{i},\"parent\":{parent}}}}}",
                span.layer,
                span.name,
                span.start_ns as f64 * 1e-3,
                (span.end_ns - span.start_ns) as f64 * 1e-3,
                span.id,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.time("nn", "pool", 1, || 7);
        assert_eq!(v, 7);
        assert_eq!(t.len(), 0);
        assert!(t.layer_totals().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("serve", "submit", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.time("nn", "pool", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.end(outer);
        let totals = t.layer_totals();
        let serve = totals["serve"];
        let nn = totals["nn"];
        assert_eq!(serve.spans, 1);
        assert!(nn.total_ns >= 3_000_000);
        assert_eq!(serve.self_ns, serve.total_ns - nn.total_ns);
        let json = t.chrome_trace("{}");
        assert!(json.contains("\"parent\":0"));
        assert!(json.starts_with('{') && json.ends_with("]}"));
    }
}
