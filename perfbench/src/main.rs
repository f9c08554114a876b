//! `perfbench`: the end-to-end and per-layer benchmark of the UVLLM
//! reproduction.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-cli --seed 55930 --seconds 25 --trace 0
//! ```
//!
//! Every measured run happens in a fresh child process of this binary
//! (the simulator's caches, its instance pool and the metrics registry
//! are process-global, so a warm process would measure warm caches).
//! The parent checks every child's rows, aggregates, prints each metric
//! by name with its unit, and ends with one JSON result line.
//!
//! `--trace 0` repeats the untraced workload for `--seconds` and
//! reports medians of the end-to-end metrics. `--trace 1` runs the
//! workload once untraced and once traced, plus the serve layer, the
//! shard computation without a server, and the lower-layer probes, and
//! reports the per-layer metrics and the tracing overhead.
//!
//! Which end-to-end metric each layer's metrics should move, and where:
//!
//! | layer | metrics | moves |
//! |---|---|---|
//! | verilog | `verilog.parse_us.p50`, `verilog.parse_est_s` | `jobs_per_s`, paper-cli |
//! | lint | `lint.lint_us.p50` | `jobs_per_s`, paper-cli |
//! | sim | `sim.elab_us.p50`, `sim.elab_est_s` | `setup_s`; `jobs_per_s`, paper-cli, serve-shards |
//! | sim | `sim.elab_cache.*` | `jobs_per_s`, serve-shards (reuse across leases) and paper-cli |
//! | sim | `sim.kernel_ns_per_cycle`, `sim.activations_per_cycle`, `sim.alloc_per_cycle` | paper-cli |
//! | uvm | `uvm.env_ns_per_cycle`, `uvm.env_overhead_ns_per_cycle` | `jobs_per_s`, paper-cli |
//! | dfg | `dfg.localize_us.p50` | `jobs_per_s`, paper-cli (SL-mode jobs) |
//! | core | `core.verdict_*`, `core.verify_ms.*` | `jobs_per_s`, paper-cli |
//! | llm | `llm.*` | `jobs_per_s`, llm-wait |
//! | campaign | `campaign.*` | `jobs_per_s`, paper-cli and llm-wait |
//! | serve | `serve.*` | `jobs_per_s`, serve-shards |
//!
//! Estimated layer totals (`*_est_s`) multiply a probe's per-call cost
//! by the call count the program's own counters report for the
//! workload. `error_rate` is failed ÷ attempted operations: quarantined
//! or timed-out jobs, non-2xx replies, and rows failing a check.

mod machine;
mod probes;
mod stats;
mod trace;
mod workloads;

use machine::Stamp;
use stats::{mean, median, p99};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use uvllm_campaign::{EvalRow, MethodKind};
use uvllm_json::{s, Json};
use workloads::{Workload, PAPER_SEED, WORKERS};

/// Counts heap allocations, for the kernel probe's allocations per
/// cycle. One relaxed add per allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees hold; the counter is a relaxed statistic
// that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The paper's UVLLM fix rates (Table II), for the printed gap.
const PAPER_FR_SYNTAX: f64 = 86.99;
const PAPER_FR_FUNCTIONAL: f64 = 71.92;
/// A child that runs longer than this is killed and the run fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);
/// Environment variables that would override the workload's explicit
/// configuration; removed from every child.
const IGNORED_ENV: [&str; 3] = ["UVLLM_WORKERS", "UVLLM_SIM_BACKEND", "UVLLM_BENCH_SIZE"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in child processes: which measurement to make, and where.
    child: Option<(String, PathBuf)>,
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("--seed must be an integer, got '{text}'"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, PAPER_SEED, 10, false);
    let (mut child, mut dir) = (None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload '{name}' (expected paper-cli, llm-wait or serve-shards)"
                ))?);
            }
            "--seed" => seed = parse_seed(&value()?)?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds must be a whole number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                }
            }
            "--child" => child = Some(value()?),
            "--dir" => dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let child = match (child, dir) {
        (Some(mode), Some(dir)) => Some((mode, dir)),
        (None, None) => None,
        _ => return Err("--child and --dir go together".to_string()),
    };
    Ok(Args { workload, seed, seconds, trace, child })
}

fn main() {
    let result = parse_args().and_then(|args| match &args.child {
        Some((mode, dir)) => run_child(mode, &args, dir),
        None => run_parent(&args),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run_child(mode: &str, args: &Args, dir: &Path) -> Result<(), String> {
    let (workload, seed) = (args.workload, args.seed);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let report = match (mode, workload) {
        ("run", Workload::ServeShards) => workloads::run_serve(workload, seed, dir, false)?,
        ("run", _) => workloads::run_cli(workload, seed, dir)?,
        ("traced", _) => workloads::run_cli_traced(workload, seed, dir)?,
        ("serve-traced", _) => workloads::run_serve(workload, seed, dir, true)?,
        ("shard-compute", _) => workloads::run_shard_compute(workload, seed, dir)?,
        ("probes", _) => probes::run_probes(workload, seed, dir)?,
        (other, _) => return Err(format!("unknown child mode '{other}'")),
    };
    println!("{}", report.render());
    Ok(())
}

/// Runs one measurement in a fresh child process and returns its report.
fn spawn_child(mode: &str, workload: Workload, seed: u64, dir: &Path) -> Result<Json, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--child", mode, "--workload", workload.name(), "--seed"]);
    command.arg(seed.to_string()).arg("--dir").arg(dir);
    for var in IGNORED_ENV {
        command.env_remove(var);
    }
    let mut child = command
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("{mode} child for {} timed out", workload.name()));
            }
            Err(e) => return Err(format!("waiting for child: {e}")),
        }
    };
    let text = reader.join().unwrap_or_default();
    if !status.success() {
        return Err(format!("{mode} child for {} failed ({status})", workload.name()));
    }
    let last = text.lines().last().ok_or(format!("{mode} child printed nothing"))?;
    Json::parse(last).map_err(|e| format!("{mode} child printed bad JSON: {e}"))
}

fn field(report: &Json, key: &str) -> Result<f64, String> {
    report.get(key).and_then(Json::as_f64).ok_or(format!("child report lacks '{key}'"))
}

fn samples(report: &Json, key: &str) -> Result<Vec<f64>, String> {
    report
        .get(key)
        .and_then(Json::as_array)
        .map(|arr| arr.iter().filter_map(Json::as_f64).collect())
        .ok_or(format!("child report lacks '{key}'"))
}

/// What the correctness checks found in one child's rows.
struct Rows {
    /// Canonical form: the JSON lines, sorted.
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
    fix: FixCounts,
}

/// UVLLM rows by error class, and how many of them were fixed.
#[derive(Debug, Default, Clone, Copy)]
struct FixCounts {
    syntax: u64,
    syntax_fixed: u64,
    functional: u64,
    functional_fixed: u64,
}

impl FixCounts {
    fn add(&mut self, other: &FixCounts) {
        self.syntax += other.syntax;
        self.syntax_fixed += other.syntax_fixed;
        self.functional += other.functional;
        self.functional_fixed += other.functional_fixed;
    }

    /// (syntax, functional) fix rates in percent.
    fn rates(&self) -> (f64, f64) {
        let pct = |fixed: u64, total: u64| 100.0 * fixed as f64 / total.max(1) as f64;
        (pct(self.syntax_fixed, self.syntax), pct(self.functional_fixed, self.functional))
    }
}

/// Checks one child's rows: every line decodes, ids are unique, the
/// count matches the job space, no job was quarantined, and no
/// operation the child reported failed.
fn check_rows(report: &Json) -> Result<Rows, String> {
    let path = report.get("rows_file").and_then(Json::as_str).ok_or("no rows_file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let expected = field(report, "expected")? as u64;
    let mut failed = field(report, "failed_ops")? as u64;
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.sort();
    let mut ids = std::collections::HashSet::new();
    let mut fix = FixCounts::default();
    for line in &lines {
        let Ok(row) = EvalRow::from_json_line(line) else {
            failed += 1;
            continue;
        };
        if !ids.insert(row.id.clone())
            || matches!(row.outcome.as_str(), "worker_panic" | "job_timeout")
            || row.degraded == Some(true)
        {
            failed += 1;
        }
        if row.method == MethodKind::Uvllm.label() {
            if row.syntax {
                fix.syntax += 1;
                fix.syntax_fixed += u64::from(row.fixed);
            } else {
                fix.functional += 1;
                fix.functional_fixed += u64::from(row.fixed);
            }
        }
    }
    failed += expected.abs_diff(ids.len() as u64);
    Ok(Rows { lines, attempted: expected, failed, fix })
}

/// Rows of `got` that differ from `want` (both canonical), counted as
/// failed operations.
fn row_mismatches(got: &Rows, want: &Rows) -> u64 {
    let differing = got.lines.iter().zip(&want.lines).filter(|(a, b)| a != b).count();
    (differing + got.lines.len().abs_diff(want.lines.len())) as u64
}

/// One named metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// How many samples an order statistic was taken over.
    samples: Option<usize>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit, samples: None }
}

/// The median of `values`, with its sample count.
fn q50(name: impl Into<String>, values: &[f64], unit: &'static str) -> Metric {
    Metric { samples: Some(values.len()), ..metric(name, median(values), unit) }
}

/// The 99th percentile of `values`, with its sample count.
fn q99(name: impl Into<String>, values: &[f64], unit: &'static str) -> Metric {
    Metric { samples: Some(values.len()), ..metric(name, p99(values), unit) }
}

/// The run's tally of attempted and failed operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, rows: &Rows) {
        self.attempted += rows.attempted;
        self.failed += rows.failed;
    }
}

fn run_parent(args: &Args) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let work = root.join(".perfbench-work");
    let dir = work.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stamp = Stamp::collect(&dir);
    println!("stamp: {}", stamp.to_json().render());
    println!("config: {}", args.workload.describe(args.seed).render());

    let result = if args.trace { traced(args, &dir, &work) } else { untraced(args, &dir) };
    let _ = std::fs::remove_dir_all(&dir);
    let (metrics, tally, fr) = result?;

    for m in &metrics {
        let n = m.samples.map(|n| format!(" (n={n})")).unwrap_or_default();
        println!("{:<40} {:>14.4} {}{n}", m.name, m.value, m.unit);
    }
    if let Some((syntax, functional)) = fr {
        println!(
            "UVLLM fix rate on dataset seed {:#x} vs paper: syntax {syntax:.2}% ({:+.2} pp \
             against {PAPER_FR_SYNTAX}), functional {functional:.2}% ({:+.2} pp against \
             {PAPER_FR_FUNCTIONAL}); this dataset is a reproduction, so no error figure is claimed",
            args.seed,
            syntax - PAPER_FR_SYNTAX,
            functional - PAPER_FR_FUNCTIONAL,
        );
    }
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(tally.failed == 0)),
        ("attempted".to_string(), Json::Num(tally.attempted.max(1) as f64)),
        ("failed".to_string(), Json::Num(tally.failed as f64)),
        (
            "metrics".to_string(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let value = Json::Obj(vec![
                            ("value".to_string(), Json::Num(m.value)),
                            ("unit".to_string(), s(m.unit)),
                        ]);
                        (m.name.clone(), value)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    Ok(())
}

type Outcome = (Vec<Metric>, Tally, Option<(f64, f64)>);

/// Dataset seed of repetition `k`: the run's own seed first, then
/// seeds far from it (and from every dataset's per-instance offsets),
/// so the fix rates pool over several datasets.
fn rep_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64) << 32)
}

/// Repetitions every untraced run makes, whatever `--seconds` says,
/// each on its own dataset; the fix rates pool over exactly these, so
/// they are a function of the seed alone. Later repetitions revisit
/// these datasets and must reproduce their rows byte for byte.
fn min_reps(workload: Workload) -> usize {
    match workload {
        Workload::PaperCli => 6,
        Workload::LlmWait | Workload::ServeShards => 4,
    }
}

/// Untraced repetitions of the workload, each in a fresh process, for
/// `--seconds` (and at least [`min_reps`]); medians of the end-to-end
/// metrics, fix rates pooled over the first [`min_reps`] datasets.
fn untraced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let workload = args.workload;
    let mut tally = Tally::default();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut setup, mut jobs_per_s, mut rss, mut rep_s) = (vec![], vec![], vec![], vec![]);
    let mut pooled = FixCounts::default();
    let mut datasets: Vec<Rows> = Vec::new();
    for k in 0.. {
        let rep_start = Instant::now();
        let seed = rep_seed(args.seed, k % min_reps(workload));
        let rep_dir = dir.join(format!("rep-{k}"));
        // serve-shards rows must be byte-identical to the CLI's rows
        // for the same dataset seed.
        let reference = match workload {
            Workload::ServeShards => {
                let report = spawn_child("run", Workload::PaperCli, seed, &rep_dir.join("cli"))?;
                let rows = check_rows(&report)?;
                tally.add(&rows);
                Some(rows)
            }
            _ => None,
        };
        let report = spawn_child("run", workload, seed, &rep_dir)?;
        rep_s.push(rep_start.elapsed().as_secs_f64());
        let mut rows = check_rows(&report)?;
        if let Some(want) = reference.as_ref().or(datasets.get(k % min_reps(workload))) {
            rows.failed += row_mismatches(&rows, want);
        }
        tally.add(&rows);
        setup.push(field(&report, "setup_s")?);
        jobs_per_s.push(rows.lines.len() as f64 / field(&report, "wall_s")?);
        rss.push(field(&report, "peak_rss_mb")?);
        if k < min_reps(workload) {
            pooled.add(&rows.fix);
            datasets.push(rows);
        }
        let _ = std::fs::remove_dir_all(&rep_dir);
        let next_end = start.elapsed() + Duration::from_secs_f64(median(&rep_s));
        if k + 1 >= min_reps(workload) && next_end > budget {
            break;
        }
    }
    let (fr_syntax, fr_functional) = pooled.rates();
    println!(
        "repetitions: {}; fix rates pooled over the first {} datasets: {} syntax, {} functional \
         UVLLM rows",
        setup.len(),
        min_reps(workload),
        pooled.syntax,
        pooled.functional,
    );
    let metrics = vec![
        q50("setup_s", &setup, "s"),
        q50("jobs_per_s", &jobs_per_s, "1/s"),
        q50("peak_rss_mb", &rss, "MiB"),
        metric("fr_syntax_pct", fr_syntax, "%"),
        metric("fr_functional_pct", fr_functional, "%"),
    ];
    Ok((metrics, tally, Some(datasets[0].fix.rates())))
}

/// Seconds to milliseconds.
fn ms(values: &[f64]) -> Vec<f64> {
    values.iter().map(|v| v * 1e3).collect()
}

/// Seconds to microseconds.
fn us(values: &[f64]) -> Vec<f64> {
    values.iter().map(|v| v * 1e6).collect()
}

/// The slug a method's label takes in metric names.
fn method_slug(method: MethodKind) -> &'static str {
    match method {
        MethodKind::Uvllm => "uvllm",
        MethodKind::UvllmComplete => "uvllm_comp",
        MethodKind::Meic => "meic",
        MethodKind::GptDirect => "gpt4_turbo",
        MethodKind::Strider => "strider",
        MethodKind::RtlRepair => "rtlrepair",
    }
}

/// One untraced and one traced run of the workload, the serve layer,
/// the shards without a server and the lower-layer probes, each in its
/// own process, then further untraced/traced pairs while `--seconds`
/// lasts; the per-layer metrics and the tracing overhead.
fn traced(args: &Args, dir: &Path, work: &Path) -> Result<Outcome, String> {
    let (workload, seed) = (args.workload, args.seed);
    let mut tally = Tally::default();
    // serve-shards computes the paper-cli job space; its traced job
    // spans come from the same campaign run through the CLI path.
    let cli = match workload {
        Workload::ServeShards => Workload::PaperCli,
        other => other,
    };

    let start = Instant::now();
    let untraced = spawn_child("run", workload, seed, &dir.join("untraced"))?;
    let untraced_s = start.elapsed().as_secs_f64();
    let untraced_rows = check_rows(&untraced)?;
    tally.add(&untraced_rows);
    let jobs_start = Instant::now();
    let jobs = spawn_child("traced", cli, seed, &dir.join("traced"))?;
    let jobs_s = jobs_start.elapsed().as_secs_f64();
    let mut jobs_rows = check_rows(&jobs)?;
    jobs_rows.failed += row_mismatches(&jobs_rows, &untraced_rows);
    tally.add(&jobs_rows);
    let serve_start = Instant::now();
    let serve = spawn_child("serve-traced", workload, seed, &dir.join("serve"))?;
    let serve_s = serve_start.elapsed().as_secs_f64();
    let mut serve_rows = check_rows(&serve)?;
    if workload == Workload::ServeShards {
        serve_rows.failed += row_mismatches(&serve_rows, &untraced_rows);
    }
    tally.add(&serve_rows);
    let compute = spawn_child("shard-compute", workload, seed, &dir.join("compute"))?;
    let probes = spawn_child("probes", workload, seed, &dir.join("probes"))?;

    // Keep the traces of the last traced run of this workload and seed.
    let traces = work.join("traces");
    let _ = std::fs::create_dir_all(&traces);
    for (child, name) in [("traced", "jobs"), ("serve", "serve")] {
        let _ = std::fs::copy(
            dir.join(child).join("trace.jsonl"),
            traces.join(format!("{}-{seed}-{name}.jsonl", workload.name())),
        );
    }

    // Tracing overhead: jobs_per_s of the workload untraced against
    // traced, over as many further pairs as the budget allows, with
    // alternating order; medians.
    let traced_mode = match workload {
        Workload::ServeShards => "serve-traced",
        _ => "traced",
    };
    let jps = |report: &Json, rows: &Rows| -> Result<f64, String> {
        Ok(rows.lines.len() as f64 / field(report, "wall_s")?)
    };
    let mut untraced_jps = vec![jps(&untraced, &untraced_rows)?];
    let mut traced_jps = vec![match workload {
        Workload::ServeShards => jps(&serve, &serve_rows)?,
        _ => jps(&jobs, &jobs_rows)?,
    }];
    let budget = Duration::from_secs(args.seconds);
    let mut pair_s = untraced_s
        + match workload {
            Workload::ServeShards => serve_s,
            _ => jobs_s,
        };
    for pair in 1.. {
        if start.elapsed() + Duration::from_secs_f64(pair_s) > budget {
            break;
        }
        let pair_start = Instant::now();
        let order = if pair % 2 == 1 { [traced_mode, "run"] } else { ["run", traced_mode] };
        for mode in order {
            let pair_dir = dir.join(format!("pair-{pair}-{mode}"));
            let report = spawn_child(mode, workload, seed, &pair_dir)?;
            let mut rows = check_rows(&report)?;
            rows.failed += row_mismatches(&rows, &untraced_rows);
            tally.add(&rows);
            let value = jps(&report, &rows)?;
            if mode == "run" {
                untraced_jps.push(value)
            } else {
                traced_jps.push(value)
            }
            let _ = std::fs::remove_dir_all(&pair_dir);
        }
        pair_s = pair_start.elapsed().as_secs_f64();
    }
    let (untraced_jps, traced_jps) = (median(&untraced_jps), median(&traced_jps));

    let job_ms = ms(&samples(&jobs, "job_s")?);
    let verdict_ms = samples(&probes, "verdict_ms")?;
    let parse_us = samples(&probes, "parse_us")?;
    let elab_us = samples(&probes, "elab_us")?;
    let lease_s = samples(&serve, "lease_s")?;
    let shard_s = samples(&compute, "shard_s")?;
    let elab_hits = field(&untraced, "elab_hits")?;
    let elab_misses = field(&untraced, "elab_misses")?;
    let flushes = field(&jobs, "llm_flushes")?;
    let prompts = field(&jobs, "prompts")?;
    let mut metrics = vec![
        q50("verilog.parse_us.p50", &parse_us, "us"),
        metric("verilog.parse_est_s", median(&parse_us) * 1e-6 * field(&jobs, "parse_calls")?, "s"),
        q50("lint.lint_us.p50", &samples(&probes, "lint_us")?, "us"),
        q50("sim.elab_us.p50", &elab_us, "us"),
        metric("sim.elab_est_s", median(&elab_us) * 1e-6 * elab_misses, "s"),
        metric("sim.elab_cache.hit_ratio", elab_hits / (elab_hits + elab_misses).max(1.0), "ratio"),
        metric("sim.elab_cache.misses", elab_misses, "count"),
        metric("sim.elab_cache.evictions", field(&untraced, "elab_evictions")?, "count"),
        metric("sim.kernel_ns_per_cycle", field(&probes, "kernel_ns_per_cycle")?, "ns"),
        metric("sim.activations_per_cycle", field(&probes, "activations_per_cycle")?, "count"),
        metric("sim.alloc_per_cycle", field(&probes, "alloc_per_cycle")?, "count"),
        metric("uvm.env_ns_per_cycle", field(&probes, "env_ns_per_cycle")?, "ns"),
        metric(
            "uvm.env_overhead_ns_per_cycle",
            field(&probes, "env_ns_per_cycle")? - field(&probes, "kernel_ns_per_cycle")?,
            "ns",
        ),
        q50("dfg.localize_us.p50", &samples(&probes, "localize_us")?, "us"),
        q50("core.verdict_ms.p50", &verdict_ms, "ms"),
        metric(
            "core.verdict_share",
            mean(&verdict_ms) / mean(&job_ms).max(f64::MIN_POSITIVE),
            "ratio",
        ),
        metric("core.verdict_est_s", median(&verdict_ms) * 1e-3 * job_ms.len() as f64, "s"),
        q50("core.verify_ms.p50", &samples(&probes, "verify_ms")?, "ms"),
        q99("core.verify_ms.p99", &samples(&probes, "verify_ms")?, "ms"),
    ];
    let waits = ms(&samples(&jobs, "llm_wait_s")?);
    metrics.extend([
        q50("llm.job_wait_ms.p50", &waits, "ms"),
        q99("llm.job_wait_ms.p99", &waits, "ms"),
        // A direct service makes one round trip per prompt.
        metric(
            "llm.mean_batch",
            if flushes > 0.0 { field(&jobs, "llm_flushed_prompts")? / flushes } else { 1.0 },
            "count",
        ),
        metric("llm.prompts_per_job", prompts / job_ms.len().max(1) as f64, "count"),
        q50("campaign.job_ms.p50", &job_ms, "ms"),
        q99("campaign.job_ms.p99", &job_ms, "ms"),
    ]);
    let by_method = jobs.get("job_s_by_method").ok_or("child report lacks job_s_by_method")?;
    for method in MethodKind::ALL {
        let times = by_method
            .get(method.label())
            .and_then(Json::as_array)
            .map(|arr| arr.iter().filter_map(Json::as_f64).collect::<Vec<_>>())
            .unwrap_or_default();
        metrics.push(q50(
            format!("campaign.job_ms.{}.p50", method_slug(method)),
            &ms(&times),
            "ms",
        ));
    }
    let lease_rtt = ms(&samples(&serve, "lease_rtt_s")?);
    let complete_rtt = ms(&samples(&serve, "complete_rtt_s")?);
    metrics.extend([
        q50("campaign.sink_append_us.p50", &us(&samples(&jobs, "sink_append_s")?), "us"),
        metric(
            "campaign.worker_busy_ratio",
            job_ms.iter().sum::<f64>() * 1e-3 / (WORKERS as f64 * field(&jobs, "wall_s")?),
            "ratio",
        ),
        q50("serve.lease_rtt_ms.p50", &lease_rtt, "ms"),
        q99("serve.lease_rtt_ms.p99", &lease_rtt, "ms"),
        q50("serve.complete_rtt_ms.p50", &complete_rtt, "ms"),
        q99("serve.complete_rtt_ms.p99", &complete_rtt, "ms"),
        metric("serve.done_lag_ms", field(&serve, "done_lag_s")? * 1e3, "ms"),
        q50("serve.lease_s.p50", &lease_s, "s"),
        q50("serve.shard_compute_s.p50", &shard_s, "s"),
        metric("serve.lease_overhead_s.p50", median(&lease_s) - median(&shard_s), "s"),
    ]);
    for policy in ["always", "every64", "never"] {
        let ops = samples(&probes, &format!("journal_{policy}_us"))?;
        metrics.push(q50(format!("serve.journal_op_us.{policy}.p50"), &ops, "us"));
        metrics.push(q99(format!("serve.journal_op_us.{policy}.p99"), &ops, "us"));
    }
    metrics.extend([
        metric("trace.jobs_per_s_untraced", untraced_jps, "1/s"),
        metric("trace.jobs_per_s_traced", traced_jps, "1/s"),
        metric("trace.overhead_pct", 100.0 * (untraced_jps - traced_jps) / untraced_jps, "%"),
        metric("error_rate", tally.failed as f64 / tally.attempted.max(1) as f64, "ratio"),
    ]);
    Ok((metrics, tally, Some(untraced_rows.fix.rates())))
}
