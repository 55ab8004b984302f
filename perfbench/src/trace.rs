//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out as JSON lines when the run ends.

use crate::timing::Mark;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One timed call: name, start and end (ns since the tracer started),
/// the span that caused it, and the request it belongs to.
struct Span {
    id: u64,
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
    parent: Option<u64>,
    request: Option<u64>,
}

/// Records spans when enabled; always returns the elapsed time, so the
/// untraced run times the same calls without keeping anything.
pub struct Tracer {
    enabled: bool,
    origin: Mark,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Mark::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// milliseconds. `f` receives the span id, to parent child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> (R, f64) {
        let id = self
            .enabled
            .then(|| self.next_id.fetch_add(1, Ordering::Relaxed));
        let start = self.origin.elapsed();
        let out = f(id);
        let end = self.origin.elapsed();
        if let Some(id) = id {
            let span = Span {
                id,
                name,
                start_ns: start.as_nanos(),
                end_ns: end.as_nanos(),
                parent,
                request,
            };
            self.spans
                .lock()
                .expect("span buffer poisoned by a panicking recorder")
                .push(span);
        }
        (out, (end - start).as_secs_f64() * 1000.0)
    }

    /// Writes every recorded span as one JSON object per line and
    /// returns how many were written.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for s in spans.iter() {
            writeln!(
                w,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            )?;
        }
        w.flush()?;
        Ok(spans.len())
    }
}
