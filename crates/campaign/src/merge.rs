//! `uvllm merge`: combine N shard JSONL files into one validated
//! report.
//!
//! Sharded campaigns (`--shard i/n`) write independent JSONL files that
//! used to be `cat`-merged by hand — silently wrong when a shard file
//! was missing, truncated, or produced by a different configuration.
//! [`merge_rows`] replaces that with a checked merge:
//!
//! * **disjointness** — no `(instance, method)` job answered by more
//!   than one shard (or twice within one);
//! * **coverage** — every job of the expected job space (dataset size ×
//!   seed × methods) answered by exactly one shard;
//! * failures name the offending `(instance, method)` pairs and the
//!   shards involved, instead of producing a quietly short report.
//!
//! The merged rows come back sorted by job id, so two merges of the
//! same shards are byte-identical — the same canonical form the
//! determinism suites compare against.

use crate::eval::{EvalRow, MethodKind};
use crate::job::{expand_jobs, Job};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use uvllm::BenchInstance;

/// How many offending job ids an error message spells out before
/// switching to a count.
const MAX_NAMED_IDS: usize = 10;

/// A validated merge result.
#[derive(Debug)]
pub struct MergeOutcome {
    /// Every shard row, sorted by job id (the canonical report order).
    pub rows: Vec<EvalRow>,
    /// Shards that contributed rows.
    pub shards: usize,
}

/// Reads one shard JSONL file strictly, through the same
/// [`SinkTailer`](crate::sink::SinkTailer) the live aggregator polls —
/// one reader implementation for both consumers. Strict here means a
/// malformed line (located as `path:line:`, naming the offending
/// member) or a torn trailing tail is an error, not a skip: an
/// incomplete shard must fail the merge loudly rather than shrink the
/// report.
///
/// # Errors
///
/// I/O failures, unparsable lines (file:line located), torn tails.
pub fn read_shard(path: impl AsRef<Path>) -> Result<Vec<EvalRow>, String> {
    let path = path.as_ref();
    if !path.exists() {
        return Err(format!("cannot read shard {}: no such file", path.display()));
    }
    let mut tailer = crate::sink::SinkTailer::new(path);
    let batch = tailer.poll().map_err(|e| format!("cannot read shard {}: {e}", path.display()))?;
    if let Some(diag) = batch.diags.into_iter().next() {
        return Err(diag);
    }
    tailer.finish()?;
    Ok(batch.rows)
}

/// The full job-id space of a campaign configuration — what a complete
/// merge must cover.
pub fn expected_job_ids(
    dataset_size: usize,
    dataset_seed: u64,
    methods: &[MethodKind],
) -> Vec<String> {
    let dataset = uvllm::build_dataset(dataset_size, dataset_seed);
    let instances: Vec<Arc<BenchInstance>> = dataset.instances.into_iter().map(Arc::new).collect();
    expand_jobs(&instances, methods).iter().map(Job::id).collect()
}

/// Merges named shard row sets into one report, validating shard
/// disjointness and full coverage of `expected_ids` (see
/// [`expected_job_ids`]).
///
/// # Errors
///
/// * a shard that contributed zero rows (an empty file merges cleanly
///   when the other shards cover the job space — but a listed shard
///   with nothing in it is a truncated or mis-pathed file, not a
///   legitimate participant),
/// * a shard whose *every* row is a `worker_panic` quarantine record —
///   individual panic or degraded rows merge fine (they are honest
///   answers for their jobs), but a shard that crashed on everything it
///   touched is a broken environment, not data worth folding in,
/// * a job id answered by two shards (named, with both shards),
/// * a job id outside the expected job space (a shard from a different
///   dataset size/seed or method list),
/// * expected job ids no shard answered (named up to a limit).
pub fn merge_rows(
    shards: &[(String, Vec<EvalRow>)],
    expected_ids: &[String],
) -> Result<MergeOutcome, String> {
    let empty: Vec<String> =
        shards.iter().filter(|(_, rows)| rows.is_empty()).map(|(s, _)| s.clone()).collect();
    if !empty.is_empty() {
        return Err(format!(
            "{} shard(s) contributed zero rows (truncated or wrong file?): {}",
            empty.len(),
            named(&empty),
        ));
    }
    let crashed: Vec<String> = shards
        .iter()
        .filter(|(_, rows)| rows.iter().all(|row| row.outcome == "worker_panic"))
        .map(|(s, _)| s.clone())
        .collect();
    if !crashed.is_empty() {
        return Err(format!(
            "{} shard(s) consist entirely of worker_panic rows (broken worker environment?): {}",
            crashed.len(),
            named(&crashed),
        ));
    }
    let expected: HashSet<&str> = expected_ids.iter().map(String::as_str).collect();
    let mut owner: HashMap<&str, &str> = HashMap::new();
    let mut duplicates: Vec<String> = Vec::new();
    let mut unknown: Vec<String> = Vec::new();
    for (shard, rows) in shards {
        for row in rows {
            if !expected.contains(row.id.as_str()) {
                unknown.push(format!("{} (in {shard})", row.id));
                continue;
            }
            match owner.insert(&row.id, shard) {
                None => {}
                Some(first) => duplicates.push(format!("{} (in {first} and {shard})", row.id)),
            }
        }
    }
    if !duplicates.is_empty() {
        return Err(format!(
            "shards are not disjoint: {} duplicated (instance, method) pair(s): {}",
            duplicates.len(),
            named(&duplicates),
        ));
    }
    if !unknown.is_empty() {
        return Err(format!(
            "{} row(s) outside the expected job space (wrong dataset size/seed or methods?): {}",
            unknown.len(),
            named(&unknown),
        ));
    }
    let missing: Vec<String> =
        expected_ids.iter().filter(|id| !owner.contains_key(id.as_str())).cloned().collect();
    if !missing.is_empty() {
        return Err(format!(
            "incomplete coverage: {} of {} (instance, method) pair(s) missing from every shard: {}",
            missing.len(),
            expected_ids.len(),
            named(&missing),
        ));
    }
    let mut rows: Vec<EvalRow> = shards.iter().flat_map(|(_, rows)| rows.iter().cloned()).collect();
    rows.sort_by(|a, b| a.id.cmp(&b.id));
    Ok(MergeOutcome { rows, shards: shards.len() })
}

fn named(ids: &[String]) -> String {
    if ids.len() <= MAX_NAMED_IDS {
        ids.join(", ")
    } else {
        format!("{}, … ({} more)", ids[..MAX_NAMED_IDS].join(", "), ids.len() - MAX_NAMED_IDS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Campaign, CampaignConfig};
    use crate::job::ShardSpec;
    use crate::sink::MemorySink;
    use uvllm_sim::SimBackend;

    fn config(shard: ShardSpec) -> CampaignConfig {
        CampaignConfig {
            dataset_size: 6,
            dataset_seed: 0x42,
            methods: vec![MethodKind::Strider, MethodKind::RtlRepair],
            workers: 2,
            shard,
            backend: SimBackend::default(),
            ..CampaignConfig::default()
        }
    }

    fn run_shard(index: usize, count: usize) -> Vec<EvalRow> {
        let mut sink = MemorySink::new();
        Campaign::new(config(ShardSpec { index, count })).unwrap().run(&mut sink).unwrap();
        sink.rows().to_vec()
    }

    fn expected() -> Vec<String> {
        expected_job_ids(6, 0x42, &[MethodKind::Strider, MethodKind::RtlRepair])
    }

    #[test]
    fn disjoint_shards_merge_to_full_coverage() {
        let shards: Vec<(String, Vec<EvalRow>)> =
            (0..3).map(|i| (format!("shard{i}.jsonl"), run_shard(i, 3))).collect();
        let merged = merge_rows(&shards, &expected()).unwrap();
        assert_eq!(merged.shards, 3);
        assert_eq!(merged.rows.len(), 12, "6 instances x 2 methods");
        let ids: Vec<&str> = merged.rows.iter().map(|r| r.id.as_str()).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "merged rows come back in canonical id order");

        // The merged report equals an unsharded run, row for row.
        let whole = run_shard(0, 1);
        let mut whole_lines: Vec<String> = whole.iter().map(EvalRow::to_json_line).collect();
        whole_lines.sort();
        let merged_lines: Vec<String> = merged.rows.iter().map(EvalRow::to_json_line).collect();
        assert_eq!(merged_lines, whole_lines);
    }

    #[test]
    fn duplicated_jobs_are_named_with_both_shards() {
        let rows = run_shard(0, 2);
        let shards = vec![
            ("a.jsonl".to_string(), rows.clone()),
            ("b.jsonl".to_string(), vec![rows[0].clone()]),
        ];
        let err = merge_rows(&shards, &expected()).unwrap_err();
        assert!(err.contains("not disjoint"), "{err}");
        assert!(err.contains(&rows[0].id), "must name the duplicated pair: {err}");
        assert!(err.contains("a.jsonl") && err.contains("b.jsonl"), "{err}");
    }

    #[test]
    fn missing_jobs_fail_coverage_by_name() {
        // Only shard 0 of 2: everything shard 1 owns is missing.
        let shards = vec![("shard0.jsonl".to_string(), run_shard(0, 2))];
        let err = merge_rows(&shards, &expected()).unwrap_err();
        assert!(err.contains("incomplete coverage"), "{err}");
        let shard1 = run_shard(1, 2);
        assert!(!shard1.is_empty());
        assert!(err.contains(&shard1[0].id), "must name a missing pair: {err}");
    }

    #[test]
    fn empty_shards_are_rejected() {
        // A zero-row shard used to merge cleanly whenever the other
        // shards covered the job space — hiding a truncated file.
        let shards = vec![
            ("full.jsonl".to_string(), run_shard(0, 1)),
            ("empty.jsonl".to_string(), Vec::new()),
        ];
        let err = merge_rows(&shards, &expected()).unwrap_err();
        assert!(err.contains("zero rows"), "{err}");
        assert!(err.contains("empty.jsonl"), "must name the empty shard: {err}");
    }

    #[test]
    fn panic_and_degraded_rows_merge_like_any_other_answer() {
        // A quarantined or degraded job is still an answered job: the
        // merge must treat its row as coverage, not reject the shard.
        let mut shard0 = run_shard(0, 2);
        shard0[0].outcome = "worker_panic".to_string();
        let mut shard1 = run_shard(1, 2);
        shard1[0].degraded = Some(true);
        let shards =
            vec![("shard0.jsonl".to_string(), shard0), ("shard1.jsonl".to_string(), shard1)];
        let merged = merge_rows(&shards, &expected()).unwrap();
        assert_eq!(merged.rows.len(), 12);
        assert_eq!(merged.rows.iter().filter(|r| r.outcome == "worker_panic").count(), 1);
        assert_eq!(merged.rows.iter().filter(|r| r.degraded == Some(true)).count(), 1);
    }

    #[test]
    fn all_panic_shards_are_rejected() {
        let mut shard0 = run_shard(0, 2);
        for row in &mut shard0 {
            row.outcome = "worker_panic".to_string();
        }
        let shards =
            vec![("crashed.jsonl".to_string(), shard0), ("ok.jsonl".to_string(), run_shard(1, 2))];
        let err = merge_rows(&shards, &expected()).unwrap_err();
        assert!(err.contains("entirely of worker_panic"), "{err}");
        assert!(err.contains("crashed.jsonl"), "must name the crashed shard: {err}");
        assert!(!err.contains("ok.jsonl"), "{err}");
    }

    #[test]
    fn foreign_rows_are_rejected() {
        let mut rows = run_shard(0, 1);
        rows[0].id = "not_a_design/op#0@UVLLM".to_string();
        let shards = vec![("weird.jsonl".to_string(), rows)];
        let err = merge_rows(&shards, &expected()).unwrap_err();
        assert!(err.contains("outside the expected job space"), "{err}");
        assert!(err.contains("not_a_design"), "{err}");
    }

    #[test]
    fn strict_shard_reading_rejects_torn_lines() {
        let dir = std::env::temp_dir().join(format!("uvllm-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let rows = run_shard(0, 1);
        let mut text: String = rows.iter().map(|r| format!("{}\n", r.to_json_line())).collect();
        text.push_str("{\"id\": \"torn");
        std::fs::write(&path, text).unwrap();
        let err = read_shard(&path).unwrap_err();
        assert!(err.contains("torn.jsonl"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
