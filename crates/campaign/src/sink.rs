//! Result sinks: where finished rows go — and the tailing reader that
//! consumes them back.
//!
//! [`JsonlSink`] streams one JSON line per completed job and flushes
//! after every row, so a killed campaign loses at most the rows in
//! flight; on reopen it reports the completed job ids and the engine
//! skips them — that is the whole resume protocol.
//!
//! [`SinkTailer`] is the read side of the same contract: an
//! incremental JSONL reader that resumes from a byte offset, consumes
//! only *complete* lines (a trailing line torn by a kill stays pending
//! until its writer — or the resume terminator — finishes it), and
//! locates every malformed line as `path:line: message`. The live
//! aggregator in `uvllm-serve` polls it as rows land; `uvllm merge`
//! drives it once in strict mode; [`JsonlSink::open`] uses it to read
//! back a previous run.

use crate::eval::EvalRow;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Rows (and located parse diagnostics) produced by one
/// [`SinkTailer::poll`].
#[derive(Debug, Default)]
pub struct TailBatch {
    /// Rows parsed from complete lines appended since the last poll.
    pub rows: Vec<EvalRow>,
    /// Complete-but-unparsable lines, each located as
    /// `path:line: message` (the message names the offending member).
    /// The lines are skipped — their jobs simply have no row yet.
    pub diags: Vec<String>,
}

/// The raw complete-line discipline under [`SinkTailer`]: an
/// incremental reader that consumes only whole (newline-terminated)
/// lines from an append-only file, resuming from a byte offset.
///
/// A torn trailing line (no final newline — a writer killed mid-append)
/// is never consumed: it stays pending until a later poll sees its
/// newline. That is what makes tailing a live, crash-prone append log
/// safe, and it is shared verbatim by the `uvllm-serve` write-ahead
/// journal, whose records ride the same discipline with their own
/// length-prefix + checksum framing on top.
#[derive(Debug, Clone)]
pub struct LineTailer {
    path: PathBuf,
    /// Bytes of complete lines consumed so far.
    offset: u64,
    /// 1-based number of the next complete line (diagnostics).
    line: u64,
}

impl LineTailer {
    /// A tailer positioned at the start of `path`.
    pub fn new(path: impl AsRef<Path>) -> LineTailer {
        LineTailer { path: path.as_ref().to_path_buf(), offset: 0, line: 1 }
    }

    /// The file being tailed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of complete lines consumed so far (the resume offset).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// 1-based number of the next complete line.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// Reads every complete line appended since the last poll, as
    /// `(line_number, raw_bytes)` pairs (newlines stripped). A missing
    /// file reads as empty — the writer may not have created it yet.
    ///
    /// # Errors
    ///
    /// I/O failure other than the file not existing yet.
    pub fn poll_raw(&mut self) -> std::io::Result<Vec<(u64, Vec<u8>)>> {
        let mut file = match File::open(&self.path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        file.seek(SeekFrom::Start(self.offset))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        // Only whole lines are consumed; a torn tail stays pending.
        let complete = match bytes.iter().rposition(|b| *b == b'\n') {
            Some(last) => &bytes[..=last],
            None => return Ok(Vec::new()),
        };
        // `complete` ends with a newline, so stripping it makes every
        // split segment exactly one line (blank lines included — they
        // must still advance the line number).
        let mut lines = Vec::new();
        for raw in complete[..complete.len() - 1].split(|b| *b == b'\n') {
            let number = self.line;
            self.line += 1;
            lines.push((number, raw.to_vec()));
        }
        self.offset += complete.len() as u64;
        Ok(lines)
    }

    /// Bytes currently past the consumed offset — a non-zero value
    /// after a final [`LineTailer::poll_raw`] is a torn trailing line.
    pub fn remainder(&self) -> u64 {
        match std::fs::metadata(&self.path) {
            Ok(meta) => meta.len().saturating_sub(self.offset),
            Err(_) => 0,
        }
    }
}

/// An incremental reader over a [`JsonlSink`] file.
///
/// A [`LineTailer`] that parses each complete line as an [`EvalRow`],
/// turning unparsable lines into located diagnostics. A missing file
/// reads as empty (the shard's worker may not have opened its sink
/// yet).
#[derive(Debug, Clone)]
pub struct SinkTailer {
    lines: LineTailer,
}

impl SinkTailer {
    /// A tailer positioned at the start of `path`.
    pub fn new(path: impl AsRef<Path>) -> SinkTailer {
        SinkTailer { lines: LineTailer::new(path) }
    }

    /// The file being tailed.
    pub fn path(&self) -> &Path {
        self.lines.path()
    }

    /// Bytes of complete lines consumed so far (the resume offset).
    pub fn offset(&self) -> u64 {
        self.lines.offset()
    }

    /// Reads every complete line appended since the last poll.
    ///
    /// # Errors
    ///
    /// I/O failure other than the file not existing yet.
    pub fn poll(&mut self) -> std::io::Result<TailBatch> {
        let mut batch = TailBatch::default();
        for (number, raw) in self.lines.poll_raw()? {
            let text = String::from_utf8_lossy(&raw);
            if text.trim().is_empty() {
                continue;
            }
            match EvalRow::from_json_line(&text) {
                Ok(row) => batch.rows.push(row),
                Err(message) => {
                    batch.diags.push(format!("{}:{number}: {message}", self.path().display()))
                }
            }
        }
        Ok(batch)
    }

    /// Strict end-of-file check: fails when bytes remain past the last
    /// consumed line — a trailing line torn by a killed writer. The
    /// merge path uses this (an incomplete shard must fail loudly); the
    /// live aggregator never calls it (the tail may still be written).
    ///
    /// # Errors
    ///
    /// Names the file, byte offset and line number of the torn tail.
    pub fn finish(self) -> Result<(), String> {
        let remainder = self.lines.remainder();
        if remainder > 0 {
            return Err(format!(
                "{}:{}: torn trailing line ({} bytes past offset {} lack a newline)",
                self.path().display(),
                self.lines.line(),
                remainder,
                self.offset(),
            ));
        }
        Ok(())
    }
}

/// A destination for finished rows. Implementations are driven from
/// worker threads through a mutex, one call per job.
pub trait ResultSink: Send {
    /// Job ids already present (consulted once at campaign start; those
    /// jobs are skipped).
    fn completed_ids(&self) -> HashSet<String>;

    /// Rows already present (folded into the final report on resume).
    fn existing_rows(&self) -> Vec<EvalRow>;

    /// Appends one finished row durably.
    ///
    /// # Errors
    ///
    /// I/O failure of the underlying store.
    fn append(&mut self, row: &EvalRow) -> std::io::Result<()>;
}

/// An append-only JSONL file sink with resume.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    writer: BufWriter<File>,
    existing: Vec<EvalRow>,
}

impl JsonlSink {
    /// Opens (or creates) `path`, reading any rows a previous run left
    /// behind. Malformed lines — e.g. a row torn by a kill ——
    /// are dropped, so the jobs they came from simply run again.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let path = path.as_ref().to_path_buf();
        // Read back through the tailing reader: complete rows resume,
        // malformed complete lines are dropped (their jobs re-run), and
        // anything past the tailer's offset is a torn tail to repair.
        let mut tailer = SinkTailer::new(&path);
        let existing = tailer.poll()?.rows;
        let torn_tail =
            std::fs::metadata(&path).map(|meta| meta.len() > tailer.offset()).unwrap_or(false);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut writer = BufWriter::new(file);
        if torn_tail {
            // Terminate a line torn by a kill so new rows start clean.
            writer.write_all(b"\n")?;
            writer.flush()?;
        }
        Ok(JsonlSink { path, writer, existing })
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rows recovered from a previous run.
    pub fn resumed(&self) -> usize {
        self.existing.len()
    }
}

impl ResultSink for JsonlSink {
    fn completed_ids(&self) -> HashSet<String> {
        self.existing.iter().map(|r| r.id.clone()).collect()
    }

    fn existing_rows(&self) -> Vec<EvalRow> {
        self.existing.clone()
    }

    fn append(&mut self, row: &EvalRow) -> std::io::Result<()> {
        self.writer.write_all(row.to_json_line().as_bytes())?;
        self.writer.write_all(b"\n")?;
        // Flush per row: crash-resume must never replay flushed work.
        self.writer.flush()
    }
}

/// An in-memory sink (tests, and `evaluate()`-style callers that only
/// want the records back).
#[derive(Debug, Default)]
pub struct MemorySink {
    rows: Vec<EvalRow>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Everything appended so far.
    pub fn rows(&self) -> &[EvalRow] {
        &self.rows
    }
}

impl ResultSink for MemorySink {
    fn completed_ids(&self) -> HashSet<String> {
        self.rows.iter().map(|r| r.id.clone()).collect()
    }

    fn existing_rows(&self) -> Vec<EvalRow> {
        self.rows.clone()
    }

    fn append(&mut self, row: &EvalRow) -> std::io::Result<()> {
        self.rows.push(row.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: &str) -> EvalRow {
        EvalRow {
            id: id.to_string(),
            instance: id.trim_end_matches("@M").to_string(),
            design: "adder_8bit".into(),
            group: "Arithmetic".into(),
            kind: "operator_misuse".into(),
            syntax: false,
            category: "Flawed conditions".into(),
            method: "M".into(),
            backend: "event".into(),
            hit: true,
            fixed: false,
            outcome: "mismatch".into(),
            claimed: true,
            llm_calls: 3,
            prompt_tokens: 100,
            completion_tokens: 50,
            sim_latency_ms: 1234,
            fixed_by: None,
            degraded: None,
            llm_wait_ms: None,
            llm_batch_max: None,
        }
    }

    #[test]
    fn jsonl_sink_resumes_and_skips_torn_lines() {
        let dir = std::env::temp_dir().join(format!("uvllm-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.jsonl");
        let _ = std::fs::remove_file(&path);

        {
            let mut sink = JsonlSink::open(&path).unwrap();
            assert_eq!(sink.resumed(), 0);
            sink.append(&row("a@M")).unwrap();
            sink.append(&row("b@M")).unwrap();
        }
        // Simulate a kill mid-write: a torn, unparseable trailing line.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"id\": \"c@M\", \"instance").unwrap();
        }
        let mut sink = JsonlSink::open(&path).unwrap();
        assert_eq!(sink.resumed(), 2);
        let ids = sink.completed_ids();
        assert!(ids.contains("a@M") && ids.contains("b@M"));
        assert!(!ids.contains("c@M"), "torn row must not count as completed");

        // Appending after resume keeps earlier rows intact.
        sink.append(&row("c@M")).unwrap();
        let reopened = JsonlSink::open(&path).unwrap();
        assert_eq!(reopened.resumed(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tailer_resumes_from_offset_and_holds_torn_tails() {
        let dir = std::env::temp_dir().join(format!("uvllm-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tail.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut tailer = SinkTailer::new(&path);
        // Missing file: empty batch, not an error (the worker may not
        // have opened its sink yet).
        assert!(tailer.poll().unwrap().rows.is_empty());

        let mut sink = JsonlSink::open(&path).unwrap();
        sink.append(&row("a@M")).unwrap();
        sink.append(&row("b@M")).unwrap();
        let batch = tailer.poll().unwrap();
        assert_eq!(batch.rows.len(), 2);
        assert!(batch.diags.is_empty());

        // A torn trailing line stays pending across polls…
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"id\": \"c@M\", \"inst").unwrap();
        }
        let offset_before = tailer.offset();
        assert!(tailer.poll().unwrap().rows.is_empty());
        assert_eq!(tailer.offset(), offset_before, "torn bytes must not be consumed");
        // …and is consumed once its writer finishes the line.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(format!("ance\": \"c\"}}\n{}\n", row("d@M").to_json_line()).as_bytes())
                .unwrap();
        }
        let batch = tailer.poll().unwrap();
        // Line 3 completed into a parseable-JSON-but-invalid row
        // (missing members): a located diagnostic, not a silent skip.
        assert_eq!(batch.rows.len(), 1);
        assert_eq!(batch.rows[0].id, "d@M");
        assert_eq!(batch.diags.len(), 1);
        assert!(
            batch.diags[0].contains("tail.jsonl:3:"),
            "diag must be located: {}",
            batch.diags[0]
        );
        assert!(
            batch.diags[0].contains("design"),
            "diag names the missing member: {}",
            batch.diags[0]
        );
        tailer.clone().finish().unwrap();

        // finish() on a torn tail names the file and line.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"torn").unwrap();
        }
        let err = tailer.finish().unwrap_err();
        assert!(err.contains("tail.jsonl:5:"), "{err}");
        assert!(err.contains("torn trailing line"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memory_sink_accumulates() {
        let mut sink = MemorySink::new();
        sink.append(&row("x@M")).unwrap();
        assert_eq!(sink.rows().len(), 1);
        assert!(sink.completed_ids().contains("x@M"));
    }
}
