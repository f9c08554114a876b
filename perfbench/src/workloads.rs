//! The three workloads, each run once per fresh child process.
//!
//! Every configuration field a workload depends on is set here
//! explicitly; nothing is read from the environment (the parent also
//! strips `UVLLM_WORKERS`, `UVLLM_SIM_BACKEND` and `UVLLM_BENCH_SIZE`
//! from every child's environment).

use crate::machine::peak_rss_mb;
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use uvllm_campaign::{
    evaluate_one_on, expand_jobs, BatchConfig, Campaign, CampaignConfig, EvalRow, JsonlSink,
    LlmPolicy, MethodKind, PoolPolicy, ResultSink, ShardSpec, SharedLlm, SimBackend,
};
use uvllm_json::{s, Json};
use uvllm_serve::journal::JournalConfig;
use uvllm_serve::{post_json, run_worker, FsyncPolicy, ServeConfig, Server, WorkerOptions};

/// The paper's dataset seed: the default when `--seed` is not given.
pub const PAPER_SEED: u64 = 0xDA7A;
/// Kept out of every run made while the benchmark was written; later
/// claims must also hold on it.
pub const HELD_OUT_SEED: u64 = 0x5EED;
/// Evaluation threads: the load is one process sized to a 2-CPU box.
pub const WORKERS: usize = 2;
/// The product default kernel and opt level.
pub const BACKEND: SimBackend = SimBackend::EventDriven;
pub const OPT_LEVEL: u8 = 0;
/// The paper's dataset size (paper-cli, serve-shards).
pub const PAPER_SIZE: usize = 331;
/// llm-wait dataset size: enough jobs that endpoint waits dominate.
pub const LLM_WAIT_SIZE: usize = 120;
/// Injected endpoint round trip per flush on llm-wait.
pub const LLM_ROUND_TRIP: Duration = Duration::from_millis(5);
/// serve-shards layout.
pub const SERVE_SHARDS: usize = 16;
pub const SERVE_LEASE: Duration = Duration::from_secs(3);
/// The reduced serve run the traced mode of the other workloads uses
/// to report the serve layer on their own inputs.
pub const SERVE_PROBE_SIZE: usize = 24;
pub const SERVE_PROBE_SHARDS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperCli,
    LlmWait,
    ServeShards,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PaperCli, Workload::LlmWait, Workload::ServeShards];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCli => "paper-cli",
            Workload::LlmWait => "llm-wait",
            Workload::ServeShards => "serve-shards",
        }
    }

    pub fn parse(text: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == text)
    }

    pub fn dataset_size(self) -> usize {
        match self {
            Workload::PaperCli | Workload::ServeShards => PAPER_SIZE,
            Workload::LlmWait => LLM_WAIT_SIZE,
        }
    }

    pub fn methods(self) -> Vec<MethodKind> {
        match self {
            Workload::PaperCli | Workload::ServeShards => MethodKind::ALL.to_vec(),
            Workload::LlmWait => vec![
                MethodKind::Uvllm,
                MethodKind::UvllmComplete,
                MethodKind::Meic,
                MethodKind::GptDirect,
            ],
        }
    }

    /// The shared batching service llm-wait runs every job through.
    pub fn batch(self) -> Option<BatchConfig> {
        match self {
            Workload::LlmWait => Some(BatchConfig {
                max_batch: 2,
                max_wait: Duration::from_millis(2),
                queue_cap: 256,
                round_trip: LLM_ROUND_TRIP,
            }),
            Workload::PaperCli | Workload::ServeShards => None,
        }
    }

    /// The campaign configuration, every field explicit.
    pub fn campaign_config(self, seed: u64, shard: ShardSpec, workers: usize) -> CampaignConfig {
        CampaignConfig {
            dataset_size: self.dataset_size(),
            dataset_seed: seed,
            methods: self.methods(),
            workers,
            shard,
            backend: BACKEND,
            llm_batch: self.batch(),
            llm_latency: self.batch().map(|b| b.round_trip),
            llm_telemetry: false,
            metrics_out: None,
            metrics_flush_jobs: 0,
            opt_level: OPT_LEVEL,
            fault: None,
            resilience: None,
            pool: PoolPolicy { job_deadline: None, inject_panic: None, inject_stall: None },
        }
    }

    /// The resolved configuration, recorded with every result.
    pub fn describe(self, seed: u64) -> Json {
        let mut members = vec![
            ("workload".to_string(), s(self.name())),
            ("dataset_seed".to_string(), s(format!("{seed:#x}"))),
            ("held_out_seed".to_string(), s(format!("{HELD_OUT_SEED:#x}"))),
            ("dataset_size".to_string(), num(self.dataset_size())),
            (
                "methods".to_string(),
                Json::Arr(self.methods().iter().map(|m| s(m.label())).collect()),
            ),
            ("backend".to_string(), s(BACKEND.label())),
            ("opt_level".to_string(), num(OPT_LEVEL)),
        ];
        match self {
            Workload::PaperCli => {
                members.push(("workers".to_string(), num(WORKERS)));
                members.push(("sink".to_string(), s("jsonl")));
                members.push(("llm".to_string(), s("direct, no injected latency")));
            }
            Workload::LlmWait => {
                members.push(("workers".to_string(), num(WORKERS)));
                members.push(("sink".to_string(), s("jsonl")));
                members.push((
                    "llm".to_string(),
                    s(format!(
                        "shared batched, max_batch 2, max_wait 2ms, round trip {}ms per flush",
                        LLM_ROUND_TRIP.as_millis()
                    )),
                ));
            }
            Workload::ServeShards => {
                members.push(("shards".to_string(), num(SERVE_SHARDS)));
                members.push(("lease_ms".to_string(), num(SERVE_LEASE.as_millis())));
                members.push(("run_workers".to_string(), num(WORKERS)));
                members.push(("workers_per_lease".to_string(), num(1u64)));
                members.push(("journal".to_string(), s("fsync always, compact every 512")));
            }
        }
        Json::Obj(members)
    }
}

pub fn num(v: impl Number) -> Json {
    Json::Num(v.to_f64())
}

/// Anything the result JSON stores as a number.
pub trait Number {
    fn to_f64(self) -> f64;
}

macro_rules! number {
    ($($t:ty),*) => {$(
        impl Number for $t {
            fn to_f64(self) -> f64 {
                self as f64
            }
        }
    )*};
}
number!(f64, u64, usize, u8, u128);

pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

/// Records when the first and the last row became durable.
struct TimedSink {
    inner: JsonlSink,
    origin: Instant,
    first: Option<Duration>,
    last: Duration,
}

impl ResultSink for TimedSink {
    fn completed_ids(&self) -> std::collections::HashSet<String> {
        self.inner.completed_ids()
    }

    fn existing_rows(&self) -> Vec<EvalRow> {
        self.inner.existing_rows()
    }

    fn append(&mut self, row: &EvalRow) -> std::io::Result<()> {
        self.inner.append(row)?;
        let now = self.origin.elapsed();
        self.first.get_or_insert(now);
        self.last = now;
        Ok(())
    }
}

fn open_sink(path: &Path) -> Result<JsonlSink, String> {
    let _ = std::fs::remove_file(path);
    JsonlSink::open(path).map_err(|e| format!("cannot open sink {}: {e}", path.display()))
}

/// The untraced campaign through `Campaign::run` (paper-cli, llm-wait,
/// and the reference rows serve-shards is checked against).
pub fn run_cli(workload: Workload, seed: u64, dir: &Path) -> Result<Json, String> {
    let origin = Instant::now();
    let rows_file = dir.join("rows.jsonl");
    let campaign = Campaign::new(workload.campaign_config(seed, ShardSpec::default(), WORKERS))?;
    let mut sink =
        TimedSink { inner: open_sink(&rows_file)?, origin, first: None, last: Duration::ZERO };
    let outcome = campaign.run(&mut sink).map_err(|e| format!("campaign sink failed: {e}"))?;
    let setup = sink.first.ok_or("campaign produced no rows")?;
    let quarantined =
        outcome.pool_stats.quarantined_panics + outcome.pool_stats.quarantined_timeouts;
    Ok(Json::Obj(vec![
        ("setup_s".to_string(), num(setup.as_secs_f64())),
        ("wall_s".to_string(), num(sink.last.as_secs_f64())),
        ("rows_file".to_string(), s(rows_file.display().to_string())),
        ("expected".to_string(), num(outcome.total_jobs)),
        ("failed_ops".to_string(), num(quarantined)),
        ("peak_rss_mb".to_string(), num(peak_rss_mb())),
        ("elab_hits".to_string(), num(outcome.elab_stats.hits)),
        ("elab_misses".to_string(), num(outcome.elab_stats.misses)),
        ("elab_evictions".to_string(), num(outcome.elab_stats.evictions)),
    ]))
}

/// The traced campaign: the benchmark's own two-thread pool, one span
/// around each `evaluate_one_on` call and one around each sink append.
/// Mirrors `Campaign::run` (dataset build, golden warm-up, the same
/// LLM policy), so its rows must equal the untraced rows.
pub fn run_cli_traced(workload: Workload, seed: u64, dir: &Path) -> Result<Json, String> {
    let origin = Instant::now();
    let tracer = Tracer::new(origin);
    let rows_file = dir.join("rows.jsonl");
    let sink = Mutex::new(open_sink(&rows_file)?);

    uvllm_netlist::install_default_opt(
        uvllm_netlist::OptLevel::from_u8(OPT_LEVEL).expect("valid opt level"),
    );
    let instances: Vec<Arc<uvllm::BenchInstance>> = {
        let _span = tracer.span("core.build_dataset", 0, "");
        uvllm::build_dataset_with(workload.dataset_size(), seed, BACKEND)
            .instances
            .into_iter()
            .map(Arc::new)
            .collect()
    };
    {
        let _span = tracer.span("sim.golden_warmup", 0, "");
        let mut seen: Vec<&str> = Vec::new();
        for inst in &instances {
            if !seen.contains(&inst.design.name) {
                seen.push(inst.design.name);
                let _ = uvllm_sim::elaborate_source_cached(inst.design.source, inst.design.name);
            }
        }
    }
    let jobs = expand_jobs(&instances, &workload.methods());
    let shared: Option<SharedLlm> = workload.batch().map(uvllm_llm::BatchedLlm::start);
    let llm = match &shared {
        Some(service) => LlmPolicy::batched(service),
        None => LlmPolicy::direct().with_latency(None),
    };

    let next = AtomicUsize::new(0);
    let first_row: Mutex<Option<Duration>> = Mutex::new(None);
    let last_row: Mutex<Duration> = Mutex::new(Duration::ZERO);
    // (method label, job seconds, llm wait seconds, prompts)
    let jobs_done: Mutex<Vec<(&'static str, f64, f64, u64)>> = Mutex::new(Vec::new());
    let sink_error: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for worker in 0..WORKERS {
            let (tracer, jobs, llm, next, sink) = (&tracer, &jobs, &llm, &next, &sink);
            let (first_row, last_row, jobs_done, sink_error) =
                (&first_row, &last_row, &jobs_done, &sink_error);
            scope.spawn(move || {
                let worker_span = tracer.span("campaign.worker", 0, format!("worker-{worker}"));
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(index) else { break };
                    let job_span = tracer.span("campaign.job", worker_span.id(), job.id());
                    let started = Instant::now();
                    let record = evaluate_one_on(job.method, &job.instance, BACKEND, llm);
                    let job_s = started.elapsed().as_secs_f64();
                    let row = record.to_row();
                    {
                        let mut guard = sink.lock().unwrap_or_else(PoisonError::into_inner);
                        let _append = tracer.span("campaign.sink_append", job_span.id(), job.id());
                        if let Err(e) = guard.append(&row) {
                            sink_error
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .get_or_insert(e.to_string());
                        }
                    }
                    let now = origin.elapsed();
                    first_row.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(now);
                    *last_row.lock().unwrap_or_else(PoisonError::into_inner) = now;
                    jobs_done.lock().unwrap_or_else(PoisonError::into_inner).push((
                        job.method.label(),
                        job_s,
                        record.llm_wait.as_secs_f64(),
                        record.usage.calls,
                    ));
                }
            });
        }
    });
    drop(llm);
    drop(shared);
    if let Some(e) = sink_error.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(format!("sink append failed: {e}"));
    }
    let wall = last_row.into_inner().unwrap_or_else(PoisonError::into_inner);
    let setup = first_row.into_inner().unwrap_or_else(PoisonError::into_inner).ok_or("no rows")?;
    let snapshot = uvllm_obs::registry().snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    let elab = uvllm_sim::cache::stats();
    tracer.write_jsonl(&dir.join("trace.jsonl")).map_err(|e| format!("trace write: {e}"))?;

    let done = jobs_done.into_inner().unwrap_or_else(PoisonError::into_inner);
    let mut per_method = Vec::new();
    for method in MethodKind::ALL {
        let times: Vec<f64> = done.iter().filter(|d| d.0 == method.label()).map(|d| d.1).collect();
        per_method.push((method.label().to_string(), nums(&times)));
    }
    let job_s: Vec<f64> = done.iter().map(|d| d.1).collect();
    let waits: Vec<f64> = done.iter().map(|d| d.2).collect();
    let prompts: u64 = done.iter().map(|d| d.3).sum();
    let histogram_count = |name: &str| {
        snapshot.histograms.iter().find(|(n, _)| n == name).map_or(0, |(_, h)| h.count())
    };
    Ok(Json::Obj(vec![
        ("setup_s".to_string(), num(setup.as_secs_f64())),
        ("wall_s".to_string(), num(wall.as_secs_f64())),
        ("rows_file".to_string(), s(rows_file.display().to_string())),
        ("expected".to_string(), num(jobs.len())),
        ("failed_ops".to_string(), num(0u64)),
        ("job_s".to_string(), nums(&job_s)),
        ("job_s_by_method".to_string(), Json::Obj(per_method)),
        ("sink_append_s".to_string(), nums(&tracer.seconds("campaign.sink_append"))),
        ("llm_wait_s".to_string(), nums(&waits)),
        ("prompts".to_string(), num(prompts)),
        ("llm_flushes".to_string(), num(counter("llm.flushes"))),
        ("llm_flushed_prompts".to_string(), num(counter("llm.flushed_prompts"))),
        ("parse_calls".to_string(), num(histogram_count("stage_us.parse"))),
        ("elab_hits".to_string(), num(elab.hits)),
        ("elab_misses".to_string(), num(elab.misses)),
        ("elab_evictions".to_string(), num(elab.evictions)),
    ]))
}

/// How a serve run is laid out.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    pub size: usize,
    pub shards: usize,
}

impl ServeShape {
    pub fn of(workload: Workload) -> ServeShape {
        match workload {
            Workload::ServeShards => ServeShape { size: PAPER_SIZE, shards: SERVE_SHARDS },
            Workload::PaperCli | Workload::LlmWait => {
                ServeShape { size: SERVE_PROBE_SIZE, shards: SERVE_PROBE_SHARDS }
            }
        }
    }
}

fn serve_config(data_dir: PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir,
        default_lease: SERVE_LEASE,
        poll: Duration::from_millis(200),
        journal: JournalConfig {
            fsync: FsyncPolicy::Always,
            compact_every: 512,
            crash_after: None,
        },
    }
}

fn worker_options(addr: &str, index: usize, once: bool) -> WorkerOptions {
    WorkerOptions {
        server: addr.to_string(),
        name: format!("bench-worker-{index}"),
        workers: 1,
        poll: Duration::from_millis(10),
        max_idle: Some(1),
        once,
        llm_batch: None,
        abort_after_rows: None,
        addr_file: None,
    }
}

fn submission(workload: Workload, seed: u64, shape: ServeShape) -> Json {
    Json::Obj(vec![
        ("size".to_string(), num(shape.size)),
        ("seed".to_string(), s(format!("{seed:#x}"))),
        (
            "methods".to_string(),
            Json::Arr(workload.methods().iter().map(|m| s(m.label())).collect()),
        ),
        ("backend".to_string(), s(BACKEND.label())),
        ("opt_level".to_string(), num(OPT_LEVEL)),
        ("shards".to_string(), num(shape.shards)),
        ("lease_ms".to_string(), num(SERVE_LEASE.as_millis())),
    ])
}

fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    uvllm_serve::http::request(addr, "GET", path, "")
}

/// Polls the shard sinks until one holds a row; returns when that was
/// first seen (or `None` once `stop` is set).
fn watch_first_row(sinks: Vec<PathBuf>, origin: Instant, stop: &AtomicBool) -> Option<Duration> {
    while !stop.load(Ordering::Relaxed) {
        if sinks.iter().any(|p| std::fs::metadata(p).is_ok_and(|m| m.len() > 0)) {
            return Some(origin.elapsed());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

/// The sharded run through an in-process `Server`, drained by two
/// `run_worker` loops with one evaluation thread each. Traced, every
/// lease is one `run_worker` call in its own span, and lease/complete
/// round trips are then timed directly on an empty probe run.
pub fn run_serve(workload: Workload, seed: u64, dir: &Path, traced: bool) -> Result<Json, String> {
    let shape = ServeShape::of(workload);
    let origin = Instant::now();
    let tracer = Tracer::new(origin);
    let data_dir = dir.join("serve-data");
    let _ = std::fs::remove_dir_all(&data_dir);
    let server = Server::start(serve_config(data_dir.clone()))
        .map_err(|e| format!("server start failed: {e}"))?;
    let addr = server.addr().to_string();
    let mut failed_ops = 0u64;
    let result = (|| -> Result<Json, String> {
        let (status, reply) = {
            let _span = tracer.span("serve.submit", 0, "");
            post_json(&addr, "/jobs", &submission(workload, seed, shape))?
        };
        if status != 200 {
            return Err(format!("POST /jobs answered {status}: {}", reply.render()));
        }
        let run = reply.get("run").and_then(Json::as_str).ok_or("no run id")?.to_string();
        let sinks: Vec<PathBuf> = (0..shape.shards)
            .map(|i| data_dir.join(&run).join(format!("shard-{i}.jsonl")))
            .collect();

        let stop = AtomicBool::new(false);
        let worker_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let first_row = std::thread::scope(|scope| {
            let watcher = scope.spawn(|| watch_first_row(sinks.clone(), origin, &stop));
            let workers: Vec<_> = (0..WORKERS)
                .map(|index| {
                    let (addr, tracer, worker_errors) = (&addr, &tracer, &worker_errors);
                    scope.spawn(move || {
                        let outcome = if traced {
                            let loop_span =
                                tracer.span("serve.worker_loop", 0, format!("w{index}"));
                            let options = worker_options(addr, index, true);
                            let mut lease = 0usize;
                            loop {
                                let span = tracer.span(
                                    "serve.lease",
                                    loop_span.id(),
                                    format!("w{index}-lease{lease}"),
                                );
                                match run_worker(&options) {
                                    Ok(summary) if summary.leases == 0 => {
                                        // The idle poll that ended the loop is not a lease.
                                        span.discard();
                                        break Ok(());
                                    }
                                    Ok(summary) if summary.completed == 1 => lease += 1,
                                    Ok(summary) => {
                                        break Err(format!("lease not completed: {summary:?}"))
                                    }
                                    Err(e) => break Err(e),
                                }
                            }
                        } else {
                            run_worker(&worker_options(addr, index, false)).and_then(|summary| {
                                if summary.lost + summary.aborted > 0 {
                                    Err(format!("worker lost shards: {summary:?}"))
                                } else {
                                    Ok(())
                                }
                            })
                        };
                        if let Err(e) = outcome {
                            worker_errors.lock().unwrap_or_else(PoisonError::into_inner).push(e);
                        }
                    })
                })
                .collect();
            for worker in workers {
                if worker.join().is_err() {
                    let message = "serve worker thread panicked".to_string();
                    worker_errors.lock().unwrap_or_else(PoisonError::into_inner).push(message);
                }
            }
            stop.store(true, Ordering::Relaxed);
            watcher.join().unwrap_or(None)
        });
        let errors = worker_errors.into_inner().unwrap_or_else(PoisonError::into_inner);
        if !errors.is_empty() {
            return Err(format!("serve workers failed: {}", errors.join("; ")));
        }
        let workers_done = origin.elapsed();

        // The run is done when `GET /runs/<id>` says so.
        let done_span = tracer.span("serve.done_wait", 0, run.clone());
        let status_path = format!("/runs/{run}");
        let deadline = Instant::now() + Duration::from_secs(60);
        let expected = loop {
            let (code, text) = http_get(&addr, &status_path)?;
            if code != 200 {
                failed_ops += 1;
            } else {
                let status = Json::parse(&text)?;
                if status.get("done").and_then(Json::as_bool) == Some(true) {
                    let diags =
                        status.get("diags").and_then(Json::as_array).map_or(0, <[Json]>::len);
                    failed_ops += diags as u64;
                    break status.get("expected").and_then(Json::as_u64).unwrap_or(0);
                }
            }
            if Instant::now() > deadline {
                return Err(format!("{run} not done 60 s after its workers finished"));
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let done_at = origin.elapsed();
        drop(done_span);

        let (code, rows) = http_get(&addr, &format!("/runs/{run}/rows"))?;
        if code != 200 {
            return Err(format!("GET /runs/{run}/rows answered {code}"));
        }
        let rows_file = dir.join("rows.jsonl");
        std::fs::write(&rows_file, rows).map_err(|e| format!("rows write: {e}"))?;

        let mut members = vec![
            ("setup_s".to_string(), num(first_row.ok_or("no row reached a sink")?.as_secs_f64())),
            ("wall_s".to_string(), num(done_at.as_secs_f64())),
            ("rows_file".to_string(), s(rows_file.display().to_string())),
            ("expected".to_string(), num(expected)),
            ("peak_rss_mb".to_string(), num(peak_rss_mb())),
            ("done_lag_s".to_string(), num((done_at - workers_done).as_secs_f64())),
        ];
        let elab = uvllm_sim::cache::stats();
        members.extend([
            ("elab_hits".to_string(), num(elab.hits)),
            ("elab_misses".to_string(), num(elab.misses)),
            ("elab_evictions".to_string(), num(elab.evictions)),
        ]);
        if traced {
            let (lease_rtt, complete_rtt, probe_failures) = lease_round_trips(&addr, &tracer)?;
            failed_ops += probe_failures;
            members.extend([
                ("lease_s".to_string(), nums(&tracer.seconds("serve.lease"))),
                ("lease_rtt_s".to_string(), nums(&lease_rtt)),
                ("complete_rtt_s".to_string(), nums(&complete_rtt)),
            ]);
            tracer
                .write_jsonl(&dir.join("trace.jsonl"))
                .map_err(|e| format!("trace write: {e}"))?;
        }
        members.push(("failed_ops".to_string(), num(failed_ops)));
        Ok(Json::Obj(members))
    })();
    server.shutdown();
    result
}

/// Leases and completes every shard of an empty probe run over HTTP,
/// timing each round trip. Returns (lease, complete) seconds and the
/// number of non-2xx replies.
fn lease_round_trips(addr: &str, tracer: &Tracer) -> Result<(Vec<f64>, Vec<f64>, u64), String> {
    const PROBE_SHARDS: usize = 1000;
    let probe = Json::Obj(vec![
        ("size".to_string(), num(1u64)),
        ("methods".to_string(), Json::Arr(vec![s(MethodKind::Strider.label())])),
        ("shards".to_string(), num(PROBE_SHARDS)),
        ("lease_ms".to_string(), num(SERVE_LEASE.as_millis())),
    ]);
    let (status, _) = post_json(addr, "/jobs", &probe)?;
    if status != 200 {
        return Err(format!("probe POST /jobs answered {status}"));
    }
    let worker = Json::Obj(vec![("worker".to_string(), s("bench-probe"))]);
    let (mut lease, mut complete, mut failures) = (Vec::new(), Vec::new(), 0u64);
    for i in 0..PROBE_SHARDS {
        let started = Instant::now();
        let (status, grant) = {
            let _span = tracer.span("serve.lease_rtt", 0, format!("probe-{i}"));
            post_json(addr, "/lease", &worker)?
        };
        lease.push(started.elapsed().as_secs_f64());
        if status != 200 {
            failures += 1;
            continue;
        }
        let body = Json::Obj(vec![
            ("run".to_string(), grant.get("run").cloned().unwrap_or(Json::Null)),
            ("shard".to_string(), grant.get("shard").cloned().unwrap_or(Json::Null)),
            ("epoch".to_string(), grant.get("epoch").cloned().unwrap_or(Json::Null)),
        ]);
        let started = Instant::now();
        let (status, _) = {
            let _span = tracer.span("serve.complete_rtt", 0, format!("probe-{i}"));
            post_json(addr, "/complete", &body)?
        };
        complete.push(started.elapsed().as_secs_f64());
        if status != 200 {
            failures += 1;
        }
    }
    Ok((lease, complete, failures))
}

/// The serve run's shards through `Campaign::run` with no server: two
/// threads, one evaluation thread per shard, as the serve workers.
pub fn run_shard_compute(workload: Workload, seed: u64, dir: &Path) -> Result<Json, String> {
    let shape = ServeShape::of(workload);
    let tracer = Tracer::new(Instant::now());
    let next = AtomicUsize::new(0);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= shape.shards {
                    break;
                }
                // A leased shard's configuration as `run_worker` builds
                // it: one evaluation thread, direct LLM service.
                let config = CampaignConfig {
                    dataset_size: shape.size,
                    llm_batch: None,
                    llm_latency: None,
                    ..workload.campaign_config(seed, ShardSpec { index, count: shape.shards }, 1)
                };
                let outcome = (|| -> Result<(), String> {
                    let campaign = Campaign::new(config)?;
                    let mut sink = open_sink(&dir.join(format!("compute-{index}.jsonl")))?;
                    let _span = tracer.span("serve.shard_compute", 0, format!("shard-{index}"));
                    campaign.run(&mut sink).map(|_| ()).map_err(|e| e.to_string())
                })();
                if let Err(e) = outcome {
                    errors.lock().unwrap_or_else(PoisonError::into_inner).push(e);
                }
            });
        }
    });
    let errors = errors.into_inner().unwrap_or_else(PoisonError::into_inner);
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    Ok(Json::Obj(vec![("shard_s".to_string(), nums(&tracer.seconds("serve.shard_compute")))]))
}
