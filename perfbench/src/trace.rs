//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! id of the iteration or request it belongs to (spans of one operation
//! share it). Spans are kept in memory and written out as JSONL when the
//! run ends. A disabled tracer records nothing, so the untraced run pays
//! only for an `Option` check per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Iteration or request the span belongs to.
    pub id: u64,
    /// Layer-qualified name, e.g. `fault_injection.MxM`.
    pub name: &'static str,
    /// Detail label (a code name, a case name), possibly empty.
    pub label: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the parent span in the tracer's list.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
    }

    /// Records a finished span with explicit bounds.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        label: &str,
        start: Instant,
        end: Instant,
        parent: SpanId,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        let span = Span {
            id,
            name,
            label: label.to_string(),
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
            parent,
        };
        let mut spans = self.lock();
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&self, id: u64, name: &'static str, label: &str, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(id, name, label, now, now, parent)
    }

    /// Ends an open span now.
    pub fn close(&self, span: SpanId) {
        if let Some(index) = span {
            let end = self.nanos(Instant::now());
            self.lock()[index].end_ns = end;
        }
    }

    /// Runs `f` inside a span; `f` receives the span so it can parent
    /// children.
    pub fn time<T>(
        &self,
        id: u64,
        name: &'static str,
        label: &str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let span = self.open(id, name, label, parent);
        let out = f(span);
        self.close(span);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Durations of spans called `name`, summed per operation id.
    pub fn per_id_sums(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut sums = BTreeMap::new();
        for s in self.lock().iter().filter(|s| s.name == name) {
            *sums.entry(s.id).or_insert(0.0) += s.seconds();
        }
        sums
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"index\":{index},\"id\":{},\"name\":\"{}\",\"label\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.id,
                s.name,
                s.label.replace(['"', '\\'], "_"),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_their_operation_id() {
        let tracer = Tracer::new(true);
        tracer.time(7, "outer", "", None, |outer| {
            tracer.time(7, "inner", "a", outer, |_| ());
            tracer.time(7, "inner", "b", outer, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.id == 7));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(tracer.durations("inner").len(), 2);
        assert_eq!(tracer.per_id_sums("inner").len(), 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.time(1, "x", "", None, |span| span), None);
        assert!(tracer.spans().is_empty());
    }
}
