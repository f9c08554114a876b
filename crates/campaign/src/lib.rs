//! # uvllm-campaign
//!
//! The large-scale verification campaign engine: runs the full
//! benchmark (design × mutation × seed) across every repair method on a
//! pool of worker threads, with sharding, caching and resume — the
//! infrastructure that turns the paper's serial evaluation loop into a
//! production-shaped system.
//!
//! * [`Job`] — one (benchmark instance × method) unit of work;
//!   [`ShardSpec`] assigns jobs to cooperating processes by stable
//!   hash, so `--shard i/n` partitions a campaign with no coordination.
//! * [`WorkQueue`] / [`run_pool_supervised`] — a shared `Mutex<VecDeque>`
//!   drained by `N` OS threads (`std::thread::scope`); jobs are coarse,
//!   so one lock per job is noise. The pool is supervision-grade:
//!   per-job `catch_unwind` with requeue-once-then-quarantine
//!   (`worker_panic` rows), an optional watchdog-enforced per-job
//!   deadline (`job_timeout` rows), and poison-recovering locks — see
//!   [`PoolPolicy`] / [`PoolStats`].
//! * fault tolerance — `CampaignConfig::fault` injects seeded LLM
//!   faults ([`uvllm_llm::FaultPlan`]) and `CampaignConfig::resilience`
//!   wraps every job's service in retry/backoff + circuit breaking +
//!   degradation ([`uvllm_llm::ResiliencePolicy`]); degraded jobs are
//!   tagged in their rows (`"degraded": true`).
//! * [`evaluate_one`] — the per-job evaluation, a *pure function of
//!   the job*: each job owns an [`OracleLlm`](uvllm_llm::OracleLlm)
//!   seeded from the instance seed and method salt, and the pipeline
//!   owns its LLM service handle
//!   ([`uvllm::Uvllm`] is generic over `S: LlmService`), so no mutable
//!   LLM state is shared across workers.
//! * [`LlmPolicy`] / [`SharedLlm`] — how jobs obtain that handle:
//!   per-job [`DirectService`](uvllm_llm::DirectService)s (default), or
//!   per-job *sessions* on one shared
//!   [`BatchedLlm`](uvllm_llm::BatchedLlm)
//!   (`CampaignConfig::llm_batch`), which coalesces prompts from every
//!   worker into batches so LLM round trips overlap simulation time.
//!   Sessions see their own prompts in submission order, so rows are
//!   byte-identical batched or not.
//! * [`merge_rows`] / `uvllm merge` — combine shard JSONL files into
//!   one report, validating shard disjointness and full job-space
//!   coverage (failures name the `(instance, method)` pairs).
//! * elaboration cache — [`Campaign::run`] pre-elaborates every golden
//!   design exactly once into the process-wide content-addressed cache
//!   ([`uvllm_sim::cache`]); workers then share elaborations of
//!   repeated texts (mutated sources across methods, candidates across
//!   metrics, the golden text behind every confirmed fix).
//! * [`ResultSink`] / [`JsonlSink`] — every finished row is streamed as
//!   one JSON line and flushed; reopening the file resumes the
//!   campaign, skipping completed job ids.
//! * [`CampaignReport`] — the paper's Table II, Table III and
//!   Fig. 5–7 rollups over rows, identical for fresh, resumed and
//!   merged runs; the `uvllm` binary prints it after every run.
//!
//! **Determinism contract:** the same [`CampaignConfig`] produces
//! byte-identical JSONL rows (modulo row order) at any worker count and
//! any shard split. Rows therefore exclude wall-clock measurements; the
//! execution-time proxy is the calibrated simulated LLM latency.
//!
//! ## Example
//!
//! ```rust
//! use uvllm_campaign::{Campaign, CampaignConfig, MemorySink, MethodKind};
//!
//! let config = CampaignConfig {
//!     dataset_size: 4,
//!     dataset_seed: 0x42,
//!     methods: vec![MethodKind::Strider],
//!     workers: 2,
//!     ..CampaignConfig::default()
//! };
//! let mut sink = MemorySink::new();
//! let outcome = Campaign::new(config).unwrap().run(&mut sink).unwrap();
//! assert_eq!(outcome.new_records.len(), sink.rows().len());
//! println!("{}", outcome.report.render());
//! ```

pub mod engine;
pub mod eval;
pub mod job;
pub mod merge;
pub mod queue;
pub mod report;
pub mod sink;

pub use engine::{Campaign, CampaignConfig, CampaignOutcome};
pub use eval::{
    evaluate_one, evaluate_one_on, job_id, EvalRecord, EvalRow, LlmPolicy, MethodKind, SharedLlm,
};
pub use job::{expand_jobs, fnv1a64, Job, ShardSpec};
pub use merge::{expected_job_ids, merge_rows, read_shard, MergeOutcome};
pub use queue::{run_pool_supervised, PoolPolicy, PoolStats, WorkQueue};
pub use report::CampaignReport;
pub use sink::{JsonlSink, LineTailer, MemorySink, ResultSink, SinkTailer, TailBatch};
pub use uvllm_llm::{BatchConfig, FaultPlan, ResiliencePolicy};
pub use uvllm_sim::SimBackend;
