//! In-memory spans recorded around the benchmark's calls into each
//! layer. Nothing is traced inside the program under test: a span
//! brackets one public call made from the benchmark's own code.
//!
//! Every span carries its name, start and end (nanoseconds since the
//! tracer was created), the id of the span that caused it and a
//! request id. Spans stay in memory and are written out as JSON lines
//! when the workload ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

const NANOS_PER_SEC: f64 = 1e9;

/// Identifies a recorded span (its index).
pub type SpanId = usize;

/// One recorded span.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

/// A span recorder; a disabled tracer records nothing.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, request: u64) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans[id].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    /// Total duration, in seconds, of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum::<f64>()
            / NANOS_PER_SEC
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_name() {
        let mut t = Tracer::new(true);
        let root = t.open("root", None, 0);
        t.span("leaf", root, 7, || std::hint::black_box(1 + 1));
        t.span("leaf", root, 8, || ());
        t.close(root);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, root);
        assert_eq!(t.spans[2].request, 8);
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
        assert!(t.total_s("leaf") <= t.total_s("root"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("root", None, 0);
        t.span("leaf", id, 1, || ());
        t.close(id);
        assert!(id.is_none());
        assert!(t.spans.is_empty());
    }
}
