//! The campaign engine: dataset assembly, golden-design cache warm-up,
//! shard/resume filtering and the worker pool, glued to a result sink.

use crate::eval::{EvalRecord, LlmPolicy, MethodKind, SharedLlm};
use crate::job::{expand_jobs, Job, ShardSpec};
use crate::queue::{run_pool_supervised, PoolPolicy, PoolStats};
use crate::report::CampaignReport;
use crate::sink::ResultSink;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use uvllm::BenchInstance;
use uvllm_llm::{BatchConfig, BatchedLlm, FaultPlan, ResiliencePolicy};
use uvllm_sim::SimBackend;

/// Registry handles for the engine (`campaign.*`), resolved once.
/// Worker-side counters (`campaign.worker.<i>.jobs`, `campaign.queue_depth`)
/// live in [`crate::queue::run_pool_supervised`].
#[derive(Debug)]
struct CampaignMetrics {
    /// Rows successfully appended to the sink by this process.
    sink_rows: &'static uvllm_obs::Counter,
    /// Jobs skipped because the sink already held their rows.
    resume_skips: &'static uvllm_obs::Counter,
}

fn metrics() -> &'static CampaignMetrics {
    static METRICS: std::sync::OnceLock<CampaignMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| CampaignMetrics {
        sink_rows: uvllm_obs::registry().counter("campaign.sink_rows"),
        resume_skips: uvllm_obs::registry().counter("campaign.resume_skips"),
    })
}

/// What to run and how wide.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Benchmark instances to build (the paper's dataset is 331).
    pub dataset_size: usize,
    /// Dataset seed; the default matches [`uvllm::standard_dataset`].
    pub dataset_seed: u64,
    /// Methods to evaluate on every instance.
    pub methods: Vec<MethodKind>,
    /// Worker threads (0 = one per available CPU).
    pub workers: usize,
    /// Which `i/n` slice of the job space this process owns.
    pub shard: ShardSpec,
    /// Simulation kernel every job runs on (recorded per row as
    /// `"backend":"event"`; the event kernel is the only one).
    pub backend: SimBackend,
    /// `Some` runs every job's LLM traffic through one shared
    /// [`BatchedLlm`] with this flush policy; `None` (default) gives
    /// each job an in-process direct service. Either way the rows are
    /// byte-identical — batching changes wall-clock only.
    pub llm_batch: Option<BatchConfig>,
    /// Injected endpoint round-trip latency: per prompt in direct mode
    /// (on one exclusive connection), per flush in batched mode. The
    /// knob behind the overlap benchmark; `None` for real runs.
    pub llm_latency: Option<Duration>,
    /// Record per-job `llm_wait_ms` / `llm_batch_max` telemetry members
    /// in JSONL rows. Off by default: the members are wall-clock
    /// measurements and therefore excluded from the row byte-identity
    /// contract.
    pub llm_telemetry: bool,
    /// `Some` writes a [`uvllm_obs`] snapshot (`MetricsSnapshot::render`)
    /// to this path at the end of the run, plus a best-effort periodic
    /// flush every [`CampaignConfig::metrics_flush_jobs`] finished jobs.
    /// Metrics never touch the rows: metrics-on and metrics-off runs
    /// produce byte-identical JSONL.
    pub metrics_out: Option<std::path::PathBuf>,
    /// Periodic metrics-flush cadence in finished jobs (0 disables the
    /// periodic flush; the end-of-run snapshot is always written when
    /// [`CampaignConfig::metrics_out`] is set).
    pub metrics_flush_jobs: usize,
    /// Netlist optimization level (0–3) applied to every design the
    /// elaboration cache hands out, via the standard `uvllm-netlist`
    /// pipeline. The passes are waveform-equivalence-preserving, so
    /// rows are byte-identical at every level — the knob changes
    /// simulation cost, never verdicts. Cache keys include the level,
    /// so optimized and unoptimized variants never collide.
    pub opt_level: u8,
    /// `Some` wraps every job's model in a seeded
    /// [`uvllm_llm::FaultyLlm`] (per-job streams derived from the plan
    /// seed × the job's oracle seed). The fault-injection harness the
    /// resilience layer is proven against; `None` for real runs.
    pub fault: Option<FaultPlan>,
    /// `Some` wraps every job's service handle in a
    /// [`uvllm_llm::ResilientService`] with this policy (per-job jitter
    /// derivation). Independent of `fault`, so resilience can run
    /// against real transports too.
    pub resilience: Option<ResiliencePolicy>,
    /// Worker-pool supervision: per-job deadline and the deterministic
    /// failure-injection knobs (see [`PoolPolicy`]).
    pub pool: PoolPolicy,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            dataset_size: uvllm::dataset::PAPER_DATASET_SIZE,
            dataset_seed: 0xDA7A,
            methods: MethodKind::ALL.to_vec(),
            workers: 0,
            shard: ShardSpec::default(),
            backend: SimBackend::EventDriven,
            llm_batch: None,
            llm_latency: None,
            llm_telemetry: false,
            metrics_out: None,
            metrics_flush_jobs: 64,
            opt_level: 0,
            fault: None,
            resilience: None,
            pool: PoolPolicy::default(),
        }
    }
}

impl CampaignConfig {
    /// Resolves `workers == 0` to one worker per available CPU.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

/// What a finished (shard of a) campaign looked like.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Rollups over every row in the sink (resumed + fresh).
    pub report: CampaignReport,
    /// Records freshly evaluated by this run, in job order.
    pub new_records: Vec<EvalRecord>,
    /// Jobs in the full job space.
    pub total_jobs: usize,
    /// Jobs owned by other shards.
    pub sharded_out: usize,
    /// Jobs skipped because the sink already had their rows.
    pub resumed: usize,
    /// Distinct designs pre-elaborated into the cache.
    pub golden_designs: usize,
    /// Elaboration-cache counters after the run.
    pub elab_stats: uvllm_sim::ElabCacheStats,
    /// Registry snapshot taken when the pool wound down: kernel, cache,
    /// campaign and LLM-service counters (`llm.ticket_wait_us` and
    /// friends replace the old `llm_wait_total` / `llm_batch_max`
    /// roll-ups; per-job waits stay on [`EvalRecord`]).
    pub metrics: uvllm_obs::MetricsSnapshot,
    /// What worker supervision did: panics caught, requeues granted,
    /// deadline overruns, quarantined rows.
    pub pool_stats: PoolStats,
}

/// A configured, validated campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
    /// Worker count resolved at validation time.
    workers: usize,
}

impl Campaign {
    /// Validates `config`.
    ///
    /// # Errors
    ///
    /// Rejects an invalid shard spec, an empty method list or a bad opt
    /// level.
    pub fn new(config: CampaignConfig) -> Result<Campaign, String> {
        config.shard.validate()?;
        if config.methods.is_empty() {
            return Err("campaign needs at least one method".to_string());
        }
        if uvllm_netlist::OptLevel::from_u8(config.opt_level).is_none() {
            return Err(format!("opt level must be 0..=3, got {}", config.opt_level));
        }
        let workers = config.effective_workers();
        Ok(Campaign { config, workers })
    }

    /// The validated configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs the campaign: builds the dataset, warms the elaboration
    /// cache with every golden design (exactly once per design), then
    /// drains the sharded job queue across the worker pool, streaming
    /// each finished row into `sink`.
    ///
    /// Output is deterministic: the same configuration produces
    /// byte-identical rows (modulo order) at any worker count, because
    /// every record is a pure function of its job.
    ///
    /// # Errors
    ///
    /// Returns the first sink I/O error, after the pool has wound down.
    pub fn run(&self, sink: &mut dyn ResultSink) -> std::io::Result<CampaignOutcome> {
        self.run_shared(sink, None)
    }

    /// [`Campaign::run`] on a caller-owned batched LLM service instead
    /// of one constructed per run — the resident-worker path, where one
    /// [`SharedLlm`] outlives many leased shards and its flush policy
    /// keeps coalescing prompts across them. `None` behaves exactly
    /// like [`Campaign::run`] (a per-run service is started when
    /// `config.llm_batch` asks for one). Rows are byte-identical either
    /// way: sessions see their own prompts in submission order
    /// regardless of which service thread carries them.
    ///
    /// # Errors
    ///
    /// Returns the first sink I/O error, after the pool has wound down.
    pub fn run_shared(
        &self,
        sink: &mut dyn ResultSink,
        shared: Option<&SharedLlm>,
    ) -> std::io::Result<CampaignOutcome> {
        // Every elaboration below — warm-up and worker-side alike —
        // goes through the cache, which consults the process-default
        // profile, so installing it first covers the whole run.
        uvllm_netlist::install_default_opt(
            uvllm_netlist::OptLevel::from_u8(self.config.opt_level)
                .expect("validated in Campaign::new"),
        );
        let dataset = uvllm::build_dataset_with(
            self.config.dataset_size,
            self.config.dataset_seed,
            self.config.backend,
        );
        let instances: Vec<Arc<BenchInstance>> =
            dataset.instances.into_iter().map(Arc::new).collect();

        // Pre-elaborate each distinct golden design once, before any
        // worker starts: afterwards every hit on the golden text —
        // and campaigns hit it constantly, every confirmed fix *is*
        // the golden text — costs a cache lookup, not an elaboration.
        let mut golden: Vec<&'static uvllm_designs::Design> = Vec::new();
        for inst in &instances {
            if !golden.iter().any(|d| d.name == inst.design.name) {
                golden.push(inst.design);
            }
        }
        for design in &golden {
            let _ = uvllm_sim::elaborate_source_cached(design.source, design.name);
        }

        let all_jobs = expand_jobs(&instances, &self.config.methods);
        let total_jobs = all_jobs.len();
        let completed = sink.completed_ids();
        let shard = self.config.shard;
        let mut sharded_out = 0usize;
        let mut resumed = 0usize;
        let jobs: Vec<Job> = all_jobs
            .into_iter()
            .filter(|job| {
                if !shard.owns(job) {
                    sharded_out += 1;
                    return false;
                }
                if completed.contains(&job.id()) {
                    resumed += 1;
                    return false;
                }
                true
            })
            .collect();

        let campaign_metrics = metrics();
        if resumed > 0 {
            campaign_metrics.resume_skips.add(resumed as u64);
        }

        let existing_rows = sink.existing_rows();
        let sink = Mutex::new(sink);
        let sink_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
        let backend = self.config.backend;
        let telemetry = self.config.llm_telemetry;
        let metrics_out = self.config.metrics_out.as_deref();
        let flush_every = self.config.metrics_flush_jobs;
        let finished = std::sync::atomic::AtomicUsize::new(0);

        // One shared batching service for the whole pool: every job
        // opens a session on it, so LLM round trips from all workers
        // coalesce while the rest of the pool keeps simulating. A
        // caller-owned service (resident workers) takes precedence and
        // outlives this run.
        let own_llm: Option<SharedLlm> = match shared {
            Some(_) => None,
            None => self.config.llm_batch.as_ref().map(|batch| {
                let batch = BatchConfig {
                    round_trip: self.config.llm_latency.unwrap_or(batch.round_trip),
                    ..batch.clone()
                };
                BatchedLlm::start(batch)
            }),
        };
        let llm = match shared.or(own_llm.as_ref()) {
            Some(service) => LlmPolicy::batched(service),
            None => LlmPolicy::direct().with_latency(self.config.llm_latency),
        }
        .with_faults(self.config.fault.clone())
        .with_resilience(self.config.resilience.clone());

        // Sink locks recover from poisoning: a worker that panics while
        // the row callback holds the lock must not wedge the remaining
        // workers or swallow the sink-error report — the sink's own
        // append is atomic per row (JSONL lines), so the recovered
        // state is usable.
        let (new_records, pool_stats) = run_pool_supervised(
            jobs,
            self.workers,
            backend,
            &llm,
            &self.config.pool,
            |_, record| {
                let row = if telemetry { record.to_row_with_telemetry() } else { record.to_row() };
                {
                    let mut guard = sink.lock().unwrap_or_else(PoisonError::into_inner);
                    if let Err(e) = guard.append(&row) {
                        sink_error.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(e);
                        return;
                    }
                }
                campaign_metrics.sink_rows.inc();
                let done = finished.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                if let Some(path) = metrics_out {
                    // Periodic flush is best-effort (a torn write here
                    // must not fail the campaign); the end-of-run write
                    // below is the authoritative one and does error.
                    if flush_every > 0 && done.is_multiple_of(flush_every) {
                        let _ = std::fs::write(path, uvllm_obs::registry().snapshot().render());
                    }
                }
            },
        );
        drop(llm);
        if let Some(service) = own_llm {
            // Joins the service thread; every session was drained when
            // its job finished, so this is bookkeeping, not a wait. A
            // caller-owned `shared` service keeps running for the next
            // run instead.
            drop(service);
        }
        if let Some(e) = sink_error.into_inner().unwrap_or_else(PoisonError::into_inner) {
            return Err(e);
        }

        let metrics_snapshot = uvllm_obs::registry().snapshot();
        if let Some(path) = &self.config.metrics_out {
            std::fs::write(path, metrics_snapshot.render())?;
        }
        let mut rows = existing_rows;
        rows.extend(new_records.iter().map(EvalRecord::to_row));
        Ok(CampaignOutcome {
            report: CampaignReport::new(rows),
            new_records,
            total_jobs,
            sharded_out,
            resumed,
            golden_designs: golden.len(),
            elab_stats: uvllm_sim::cache::stats(),
            metrics: metrics_snapshot,
            pool_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    fn tiny_config(workers: usize) -> CampaignConfig {
        CampaignConfig {
            dataset_size: 6,
            dataset_seed: 0x42,
            methods: vec![MethodKind::Strider, MethodKind::RtlRepair],
            workers,
            shard: ShardSpec::default(),
            backend: SimBackend::default(),
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_runs_and_reports() {
        let mut sink = MemorySink::new();
        let outcome = Campaign::new(tiny_config(2)).unwrap().run(&mut sink).unwrap();
        assert_eq!(outcome.total_jobs, 12);
        assert_eq!(outcome.new_records.len(), 12);
        assert_eq!(sink.rows().len(), 12);
        assert_eq!(outcome.resumed, 0);
        assert_eq!(outcome.sharded_out, 0);
        assert!(outcome.golden_designs >= 1);
        assert_eq!(outcome.report.rows().len(), 12);
    }

    #[test]
    fn resume_skips_completed_jobs() {
        let mut sink = MemorySink::new();
        let campaign = Campaign::new(tiny_config(2)).unwrap();
        campaign.run(&mut sink).unwrap();
        // Second run over the same sink: everything is already there.
        let outcome = campaign.run(&mut sink).unwrap();
        assert_eq!(outcome.resumed, 12);
        assert!(outcome.new_records.is_empty());
        assert_eq!(sink.rows().len(), 12, "no duplicate rows on resume");
        assert_eq!(outcome.report.rows().len(), 12);
    }

    #[test]
    fn shards_union_to_the_full_campaign() {
        let mut whole = MemorySink::new();
        Campaign::new(tiny_config(1)).unwrap().run(&mut whole).unwrap();
        let mut union: Vec<String> = Vec::new();
        for index in 0..3 {
            let mut sink = MemorySink::new();
            let mut config = tiny_config(2);
            config.shard = ShardSpec { index, count: 3 };
            Campaign::new(config).unwrap().run(&mut sink).unwrap();
            union.extend(sink.rows().iter().map(|r| r.to_json_line()));
        }
        let mut expected: Vec<String> = whole.rows().iter().map(|r| r.to_json_line()).collect();
        expected.sort();
        union.sort();
        assert_eq!(union, expected, "3-way shard must partition the campaign exactly");
    }

    /// The core gate of the resilience layer: a campaign with LLM
    /// faults injected at double-digit rates, retried by the resilient
    /// service, produces rows byte-identical to the fault-free run.
    /// FaultyLlm fabricates faults without consuming the inner oracle's
    /// stream, so a retried ticket lands on exactly the completion the
    /// fault-free run saw.
    #[test]
    fn faults_plus_retries_reproduce_the_fault_free_rows() {
        let llm_config = || CampaignConfig {
            dataset_size: 4,
            dataset_seed: 0x42,
            methods: vec![MethodKind::Uvllm, MethodKind::GptDirect],
            workers: 2,
            backend: SimBackend::default(),
            ..CampaignConfig::default()
        };
        let rows_of = |config: CampaignConfig| {
            let mut sink = MemorySink::new();
            Campaign::new(config).unwrap().run(&mut sink).unwrap();
            let mut rows: Vec<String> = sink.rows().iter().map(|r| r.to_json_line()).collect();
            rows.sort();
            rows
        };
        let baseline = rows_of(llm_config());
        let mut faulted = llm_config();
        faulted.fault =
            Some(FaultPlan { error_rate: 0.15, malform_rate: 0.10, ..FaultPlan::default() });
        faulted.resilience = Some(ResiliencePolicy {
            retries: 8,
            base_backoff: std::time::Duration::from_micros(50),
            max_backoff: std::time::Duration::from_micros(400),
            breaker_threshold: 100,
            validate: true,
            ..ResiliencePolicy::default()
        });
        let retries_before = uvllm_obs::registry().counter("llm.retries").get();
        let rows = rows_of(faulted.clone());
        assert!(
            uvllm_obs::registry().counter("llm.retries").get() > retries_before,
            "the fault plan must actually exercise the retry path"
        );
        assert!(
            !rows.iter().any(|r| r.contains("\"degraded\"")),
            "8 retries must absorb 25% fault rates without degrading"
        );
        assert_eq!(rows, baseline, "faulted rows must be byte-identical to the fault-free run");
        assert_eq!(rows_of(faulted.clone()), rows, "same fault seed, same rows");
    }

    #[test]
    fn injected_panics_quarantine_but_the_campaign_completes() {
        let mut config = tiny_config(2);
        config.pool =
            PoolPolicy { inject_panic: Some("@RTLrepair".to_string()), ..PoolPolicy::default() };
        let mut sink = MemorySink::new();
        let outcome = Campaign::new(config).unwrap().run(&mut sink).unwrap();
        assert_eq!(sink.rows().len(), 12, "every job answers, crashed ones included");
        let panicked: Vec<_> = sink.rows().iter().filter(|r| r.outcome == "worker_panic").collect();
        assert_eq!(panicked.len(), 6, "every RTLrepair job quarantines after its requeue");
        assert!(panicked.iter().all(|r| r.method == "RTLrepair"));
        assert_eq!(outcome.pool_stats.panicked, 12, "first attempt plus requeue, per job");
        assert_eq!(outcome.pool_stats.requeued, 6);
        assert_eq!(outcome.pool_stats.quarantined_panics, 6);
        let strider: Vec<_> = sink.rows().iter().filter(|r| r.method == "Strider").collect();
        assert_eq!(strider.len(), 6);
        assert!(strider.iter().all(|r| r.outcome != "worker_panic"), "other jobs are untouched");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut bad_shard = tiny_config(1);
        bad_shard.shard = ShardSpec { index: 5, count: 2 };
        assert!(Campaign::new(bad_shard).is_err());
        let mut no_methods = tiny_config(1);
        no_methods.methods.clear();
        assert!(Campaign::new(no_methods).is_err());
        let mut bad_opt = tiny_config(1);
        bad_opt.opt_level = 4;
        assert!(Campaign::new(bad_opt).is_err());
    }

    /// The opt-level byte-identity contract: the netlist passes are
    /// equivalence-preserving, so verdicts — and therefore rows — do
    /// not depend on the optimization level.
    #[test]
    fn opt_levels_do_not_perturb_rows() {
        let rows_at = |level: u8| {
            let mut sink = MemorySink::new();
            let mut config = tiny_config(2);
            config.opt_level = level;
            Campaign::new(config).unwrap().run(&mut sink).unwrap();
            let mut rows: Vec<String> = sink.rows().iter().map(|r| r.to_json_line()).collect();
            rows.sort();
            rows
        };
        let plain = rows_at(0);
        assert_eq!(plain, rows_at(2), "O2 rows must be byte-identical to O0 rows");
        assert_eq!(plain, rows_at(3), "O3 rows must be byte-identical to O0 rows");
    }
}
