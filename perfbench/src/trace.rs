//! In-memory spans for the traced run.
//!
//! A span records a name, start, end, parent span and request id. Spans are
//! kept in memory while the workload runs and written out as JSON lines
//! when it ends. A disabled tracer records nothing, so the untraced run
//! pays only for the branch.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed, e.g. `order.plan`.
    pub name: String,
    /// Start, nanoseconds after the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to; the spans of one request share it.
    pub req: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record an interval measured by the caller. Returns its index for
    /// use as a parent, or `None` when disabled.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>, req: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("x", None, 1);
        t.end(id);
        assert!(id.is_none() && t.spans().is_empty());
    }
}
