//! Bench-side spans, kept in memory and written as JSONL at exit.
//!
//! A span is one call into the program (or one request through the
//! daemon), timed from the benchmark's side of the call: a name, start
//! and end relative to the tracer's creation, and the span that caused
//! it. A span's self time is its duration minus the durations of its
//! children, so a parent whose children cover it reads ≈ 0.

use sadp_serve::json;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
}

impl Span {
    /// The span's duration in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span recorder.
#[derive(Debug, Clone)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.t0.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent);
        out
    }

    /// Every span, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name`, in seconds.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.named(name).map(Span::duration).sum()
    }

    /// Number of spans named `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Each span's self time: its duration minus its children's.
    #[must_use]
    pub fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.duration();
            }
        }
        out
    }

    /// Summed self time of the spans named `name`, in seconds.
    #[must_use]
    pub fn self_total(&self, name: &str) -> f64 {
        self.self_times()
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(t, _)| t)
            .sum()
    }

    /// One JSON object per line:
    /// `{"id":…,"name":…,"start_us":…,"end_us":…,"parent":…|null}`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":{},\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent}}}",
                json::escape(s.name),
                s.start * 1e6,
                s.end * 1e6,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let t0 = t.t0;
        let at = |s: f64| t0 + Duration::from_secs_f64(s);
        let root = t.record("route", at(0.0), at(10.0), None);
        let create = t.record("create", at(1.0), at(3.0), Some(root));
        t.record("advance", at(4.0), at(8.0), Some(root));
        // A grandchild counts against its parent, not the root.
        t.record("alloc", at(1.0), at(2.0), Some(create));
        let own = t.self_times();
        assert!((own[root] - 4.0).abs() < 1e-9, "{own:?}");
        assert!((own[create] - 1.0).abs() < 1e-9, "{own:?}");
        assert!((t.self_total("advance") - 4.0).abs() < 1e-9);
        assert!((t.total("route") - 10.0).abs() < 1e-9);
        assert_eq!(t.count("create"), 1);
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let mut t = Tracer::new();
        let root = t.open("route", None);
        t.time("child", Some(root), || ());
        t.close(root);
        let text = t.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = json::parse(lines[1]).expect("valid JSON");
        assert_eq!(child.get("parent").and_then(json::Json::as_u64), Some(0));
        let root = json::parse(lines[0]).expect("valid JSON");
        assert_eq!(root.get("parent"), Some(&json::Json::Null));
    }
}
