//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! crates' public functions: name, start, end, parent span, and the
//! job / shard / lease id the call worked for. They stay in memory
//! until the run ends, then are written out as JSON lines.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use uvllm_json::{s, Json};

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// The job, shard or lease the span worked for ("" when none).
    pub key: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// An open span; records itself when dropped.
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    key: String,
    start: Instant,
    discarded: bool,
}

impl Span<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span without recording it.
    pub fn discard(mut self) {
        self.discarded = true;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.discarded {
            return;
        }
        let end = Instant::now();
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            key: std::mem::take(&mut self.key),
            start_ns: self.start.duration_since(self.tracer.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.tracer.origin).as_nanos() as u64,
        };
        self.tracer.spans.lock().unwrap_or_else(PoisonError::into_inner).push(record);
    }
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer { origin, next: AtomicU64::new(1), spans: Mutex::new(Vec::with_capacity(4096)) }
    }

    pub fn span(&self, name: &'static str, parent: u64, key: impl Into<String>) -> Span<'_> {
        Span {
            tracer: self,
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            key: key.into(),
            start: Instant::now(),
            discarded: false,
        }
    }

    /// Every finished span, in finishing order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Durations in seconds of the finished spans called `name`.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.records().iter().filter(|r| r.name == name).map(SpanRecord::seconds).collect()
    }

    /// Writes every span as one JSON line, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut records = self.records();
        records.sort_by_key(|r| (r.start_ns, r.id));
        let mut text = String::new();
        for r in &records {
            let line = Json::Obj(vec![
                ("id".to_string(), Json::Num(r.id as f64)),
                ("parent".to_string(), Json::Num(r.parent as f64)),
                ("name".to_string(), s(r.name)),
                ("key".to_string(), s(r.key.clone())),
                ("start_ns".to_string(), Json::Num(r.start_ns as f64)),
                ("end_ns".to_string(), Json::Num(r.end_ns as f64)),
            ]);
            text.push_str(&line.render());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}
