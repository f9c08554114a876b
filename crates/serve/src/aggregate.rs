//! The live aggregator: a rolling, deduplicated view of every run's
//! shard sinks, built by tailing their JSONL files with
//! [`SinkTailer`] — the same reader `uvllm merge` uses, minus the
//! strictness: a torn trailing line here just means a worker is
//! mid-append, so it stays pending until the next poll.
//!
//! Work stealing makes duplicate rows *normal*: a stolen shard's first
//! holder may have appended rows the thief re-evaluates. The
//! determinism contract says those duplicates are byte-identical, so
//! the aggregator keys rows by job id and keeps the first copy —
//! flagging any duplicate that *differs* as a diagnostic, because that
//! would mean the contract broke.

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use uvllm_campaign::{expected_job_ids, CampaignReport, EvalRow, SinkTailer};

use crate::store::RunSpec;

/// One run's rolling state.
struct RunAgg {
    run: String,
    tailers: Vec<SinkTailer>,
    /// Job id → first row seen. BTreeMap iteration *is* the canonical
    /// sorted row order `uvllm merge` produces.
    rows: BTreeMap<String, EvalRow>,
    /// Located parse failures, contract violations, foreign rows.
    diags: Vec<String>,
    /// The run's full job-id space (what "complete" means).
    expected: HashSet<String>,
}

/// A point-in-time copy of one run's aggregation, for status rendering
/// outside the aggregator lock.
#[derive(Debug, Clone)]
pub struct RunView {
    pub run: String,
    /// Deduplicated rows in canonical job-id order.
    pub rows: Vec<EvalRow>,
    pub diags: Vec<String>,
    /// Size of the expected job space.
    pub expected: usize,
}

impl RunView {
    /// True once every expected job has a row.
    pub fn complete(&self) -> bool {
        self.rows.len() == self.expected
    }

    /// The rolling Table-II style report over the rows so far.
    pub fn report(&self) -> CampaignReport {
        CampaignReport::new(self.rows.clone())
    }
}

/// All runs' rolling aggregation. One aggregator thread calls
/// [`Aggregator::poll`] on a cadence; request handlers call it inline
/// before reading so `GET /runs/<id>` is never staler than the sinks.
pub struct Aggregator {
    runs: Mutex<Vec<RunAgg>>,
    /// `serve.rows_aggregated` — rows folded in across all runs.
    rows_aggregated: &'static uvllm_obs::Counter,
}

impl Aggregator {
    pub fn new() -> Aggregator {
        Aggregator {
            runs: Mutex::new(Vec::new()),
            rows_aggregated: uvllm_obs::registry().counter("serve.rows_aggregated"),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<RunAgg>> {
        self.runs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a submitted run: computes its expected job-id space
    /// (dataset size × seed × methods) and starts tailers on its shard
    /// sinks. The sinks need not exist yet — a tailer on a missing file
    /// reports empty batches until the first worker creates it.
    pub fn register(&self, run: &str, spec: &RunSpec, sinks: Vec<PathBuf>) {
        let expected: HashSet<String> =
            expected_job_ids(spec.size, spec.seed, &spec.methods).into_iter().collect();
        self.lock().push(RunAgg {
            run: run.to_string(),
            tailers: sinks.into_iter().map(SinkTailer::new).collect(),
            rows: BTreeMap::new(),
            diags: Vec::new(),
            expected,
        });
    }

    /// Tails every registered sink and folds fresh rows in. Cheap when
    /// nothing changed: each tailer resumes from its byte offset.
    pub fn poll(&self) {
        let mut runs = self.lock();
        for agg in runs.iter_mut() {
            for tailer in &mut agg.tailers {
                let batch = match tailer.poll() {
                    Ok(batch) => batch,
                    Err(e) => {
                        agg.diags.push(format!("{}: {e}", tailer.path().display()));
                        continue;
                    }
                };
                agg.diags.extend(batch.diags);
                for row in batch.rows {
                    if !agg.expected.contains(&row.id) {
                        agg.diags.push(format!(
                            "{}: row '{}' is outside the run's job space",
                            tailer.path().display(),
                            row.id,
                        ));
                        continue;
                    }
                    match agg.rows.get(&row.id) {
                        None => {
                            agg.rows.insert(row.id.clone(), row);
                            self.rows_aggregated.inc();
                        }
                        // A byte-identical duplicate is a stolen
                        // shard's overlap — expected, drop it.
                        Some(first) if first.to_json_line() == row.to_json_line() => {}
                        Some(_) => agg.diags.push(format!(
                            "{}: row '{}' differs from an earlier copy — determinism \
                             contract violation",
                            tailer.path().display(),
                            row.id,
                        )),
                    }
                }
            }
        }
    }

    /// A copy of one run's current state, or `None` for unknown runs.
    pub fn view(&self, run: &str) -> Option<RunView> {
        let runs = self.lock();
        let agg = runs.iter().find(|a| a.run == run)?;
        Some(RunView {
            run: agg.run.clone(),
            rows: agg.rows.values().cloned().collect(),
            diags: agg.diags.clone(),
            expected: agg.expected.len(),
        })
    }
}

impl Default for Aggregator {
    fn default() -> Self {
        Aggregator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::time::Duration;
    use uvllm_campaign::{Campaign, CampaignConfig, MemorySink, MethodKind};
    use uvllm_sim::SimBackend;

    fn spec() -> RunSpec {
        RunSpec {
            size: 2,
            seed: 0x42,
            methods: vec![MethodKind::Strider],
            backend: SimBackend::default(),
            opt_level: 0,
            shards: 1,
            lease: Duration::from_secs(1),
        }
    }

    fn real_rows() -> Vec<EvalRow> {
        let config = CampaignConfig {
            dataset_size: 2,
            dataset_seed: 0x42,
            methods: vec![MethodKind::Strider],
            workers: 1,
            ..CampaignConfig::default()
        };
        let mut sink = MemorySink::new();
        Campaign::new(config).unwrap().run(&mut sink).unwrap();
        sink.rows().to_vec()
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uvllm-agg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn aggregates_incrementally_and_dedups_identical_rows() {
        let rows = real_rows();
        assert_eq!(rows.len(), 2);
        let path = temp_path("incr.jsonl");
        let _ = std::fs::remove_file(&path);

        let agg = Aggregator::new();
        agg.register("run-t1", &spec(), vec![path.clone()]);
        agg.poll();
        let view = agg.view("run-t1").unwrap();
        assert_eq!(view.rows.len(), 0, "missing sink file aggregates as empty");
        assert_eq!(view.expected, 2);
        assert!(!view.complete());

        let mut file = std::fs::File::create(&path).unwrap();
        writeln!(file, "{}", rows[0].to_json_line()).unwrap();
        file.flush().unwrap();
        agg.poll();
        assert_eq!(agg.view("run-t1").unwrap().rows.len(), 1);

        // The second row plus a byte-identical duplicate of the first
        // (a stolen shard's overlap): dedup keeps the count exact.
        writeln!(file, "{}", rows[1].to_json_line()).unwrap();
        writeln!(file, "{}", rows[0].to_json_line()).unwrap();
        file.flush().unwrap();
        agg.poll();
        let view = agg.view("run-t1").unwrap();
        assert_eq!(view.rows.len(), 2);
        assert!(view.complete());
        assert!(view.diags.is_empty(), "{:?}", view.diags);
        // Canonical order: sorted by job id.
        let ids: Vec<&str> = view.rows.iter().map(|r| r.id.as_str()).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_and_differing_rows_become_diagnostics() {
        let rows = real_rows();
        let path = temp_path("diag.jsonl");
        let mut mutated = rows[0].clone();
        mutated.llm_calls += 1;
        std::fs::write(
            &path,
            format!(
                "{}\nnot json at all\n{}\n{{\"id\": \"torn",
                rows[0].to_json_line(),
                mutated.to_json_line(),
            ),
        )
        .unwrap();

        let agg = Aggregator::new();
        agg.register("run-t2", &spec(), vec![path.clone()]);
        agg.poll();
        let view = agg.view("run-t2").unwrap();
        assert_eq!(view.rows.len(), 1, "the good row lands, the torn tail stays pending");
        assert_eq!(view.diags.len(), 2, "{:?}", view.diags);
        assert!(view.diags[0].contains("diag.jsonl:2:"), "{}", view.diags[0]);
        assert!(view.diags[1].contains("determinism contract violation"), "{}", view.diags[1]);
        assert!(agg.view("run-nope").is_none());
        let _ = std::fs::remove_file(&path);
    }

    /// Metric names must not grow with the number of runs a resident
    /// server has seen: per-run counts live in the run status only.
    #[test]
    fn registering_runs_adds_no_per_run_metric_names() {
        let agg = Aggregator::new();
        for i in 0..50 {
            agg.register(&format!("run-card-{i}"), &spec(), vec![temp_path("card-none.jsonl")]);
        }
        agg.poll();
        let snapshot = uvllm_obs::registry().snapshot();
        let names = snapshot
            .counters
            .iter()
            .map(|(name, _)| name)
            .chain(snapshot.gauges.iter().map(|(name, _)| name))
            .chain(snapshot.histograms.iter().map(|(name, _)| name));
        for name in names {
            assert!(!name.starts_with("serve.run."), "per-run metric name '{name}'");
        }
    }
}
