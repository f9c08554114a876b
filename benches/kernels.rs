//! Criterion benchmarks for the simulation kernel on the campaign hot
//! path: raw clocked settle throughput, whole UVM environment runs, and
//! a campaign slice.
//!
//! ```text
//! cargo bench --bench kernels
//! ```
//!
//! Besides the criterion output, the run writes **`BENCH_kernels.json`**
//! (schema v6, path overridable via `UVLLM_BENCH_JSON`): the `kernel`
//! record holds ns/cycle **and measured heap allocations per cycle** (a
//! counting global allocator wraps the timed loop; it must report 0)
//! and registry-counted activations per cycle for the raw kernel,
//! ns/cycle for the whole UVM environment, and the wall-clock of a full
//! campaign (`UVLLM_BENCH_SIZE` instances × all six methods; the
//! paper's 331 by default). `llm_overlap` compares per-job and batched
//! LLM dispatch under an injected round trip, and `netlist_opt` records
//! per-pass rewrite counts, levelized depth before/after and settle
//! ns/cycle base vs optimized for the featured design (`adder_16bit`,
//! whose ripple chain the buffer-removal pass shortens). Timed loops
//! drive signals by [`SignalId`], so no name lookup is timed.

use criterion::{criterion_group, BatchSize, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counts every allocation so the perf record can assert the hot loop
/// is allocation-free, not just fast (mirrors
/// `tests/alloc_steady_state.rs`).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed
// atomic with no further invariants.
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
use uvllm_campaign::{BatchConfig, Campaign, CampaignConfig, MemorySink, MethodKind, SimBackend};
use uvllm_designs::by_name;
use uvllm_json::Json;
use uvllm_sim::{elaborate, AnySim, Logic, SignalId, SimControl};
use uvllm_uvm::{CornerSequence, Environment, RandomSequence, Sequence};

fn bench_clocked_settle(c: &mut Criterion) {
    let d = by_name("counter_12").unwrap();
    let file = uvllm_verilog::parse(d.source).unwrap();
    let design = std::sync::Arc::new(elaborate(&file, d.name).unwrap());
    let id = |name: &str| design.signal_id(name).unwrap();
    let (clk, rst_n, en, q) = (id("clk"), id("rst_n"), id("en"), id("q"));
    c.bench_function("counter_1000_cycles", |b| {
        b.iter_batched(
            || AnySim::new(&design, SimBackend::EventDriven).unwrap(),
            |mut sim| {
                sim.poke(rst_n, Logic::bit(false)).unwrap();
                sim.poke(rst_n, Logic::bit(true)).unwrap();
                sim.poke(en, Logic::bit(true)).unwrap();
                for _ in 0..1000 {
                    sim.poke(clk, Logic::bit(true)).unwrap();
                    sim.poke(clk, Logic::bit(false)).unwrap();
                }
                black_box(sim.peek(q))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_uvm_run(c: &mut Criterion) {
    let d = by_name("alu_8bit").unwrap();
    c.bench_function("uvm_run_alu_100_cycles", |b| {
        b.iter(|| {
            let iface = (d.iface)();
            let seqs: Vec<Box<dyn Sequence>> = vec![
                Box::new(RandomSequence::new(&iface.inputs, 100, 7)),
                Box::new(CornerSequence::new(&iface.inputs)),
            ];
            let env = Environment::from_source(d.source, d.name, iface, (d.model)(), seqs).unwrap();
            black_box(env.run().pass_rate)
        })
    });
}

fn bench_campaign_slice(c: &mut Criterion) {
    c.bench_function("campaign_8x2_script_methods", |b| {
        b.iter(|| {
            let config = CampaignConfig {
                dataset_size: 8,
                dataset_seed: 0xBE7C,
                methods: vec![MethodKind::Strider, MethodKind::RtlRepair],
                workers: 1,
                ..CampaignConfig::default()
            };
            let mut sink = MemorySink::new();
            let outcome = Campaign::new(config).unwrap().run(&mut sink).unwrap();
            black_box(outcome.new_records.len())
        })
    });
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_clocked_settle, bench_uvm_run, bench_campaign_slice,
);

// ----------------------------------------------------------------------
// Machine-readable perf record (BENCH_kernels.json)
// ----------------------------------------------------------------------

/// Raw kernel measurements over the timed loop.
struct KernelCosts {
    ns_per_cycle: f64,
    allocs_per_cycle: f64,
    /// Registry-measured process activations per full clock cycle.
    activations_per_cycle: f64,
}

/// Raw kernel throughput and allocation rate: ns and heap allocations
/// per full clock cycle (two pokes) of the counter_12 design, measured
/// over `cycles` cycles after a warm-up. The allocation rate must be 0
/// — the strict bound `tests/alloc_steady_state.rs` enforces, recorded
/// here so `BENCH_kernels.json` tracks it per run. The activation
/// count comes from the `uvllm-obs` registry (reset around the timed
/// loop, so it covers exactly those cycles).
fn kernel_cycle_costs(cycles: u64) -> KernelCosts {
    let d = by_name("counter_12").unwrap();
    let file = uvllm_verilog::parse(d.source).unwrap();
    let design = std::sync::Arc::new(elaborate(&file, d.name).unwrap());
    let id = |name: &str| design.signal_id(name).unwrap();
    let (clk, rst_n, en, q) = (id("clk"), id("rst_n"), id("en"), id("q"));
    let mut sim = AnySim::new(&design, SimBackend::EventDriven).unwrap();
    sim.poke(rst_n, Logic::bit(false)).unwrap();
    sim.poke(rst_n, Logic::bit(true)).unwrap();
    sim.poke(en, Logic::bit(true)).unwrap();
    for _ in 0..200 {
        sim.poke(clk, Logic::bit(true)).unwrap();
        sim.poke(clk, Logic::bit(false)).unwrap();
    }
    uvllm_obs::registry().reset();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    for _ in 0..cycles {
        sim.poke(clk, Logic::bit(true)).unwrap();
        sim.poke(clk, Logic::bit(false)).unwrap();
    }
    let elapsed = start.elapsed();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    black_box(sim.peek(q));
    let activations =
        uvllm_obs::registry().snapshot().counter("sim.event.activations").unwrap_or(0) as f64;
    KernelCosts {
        ns_per_cycle: elapsed.as_nanos() as f64 / cycles as f64,
        allocs_per_cycle: allocs as f64 / cycles as f64,
        activations_per_cycle: activations / cycles as f64,
    }
}

/// Whole-environment throughput: ns per checked cycle of a UVM run over
/// alu_8bit (drive + settle + observe + refmodel frame + scoreboard +
/// coverage), averaged over `reps` runs of `cycles` cycles.
fn env_ns_per_cycle(cycles: usize, reps: u32) -> f64 {
    let d = by_name("alu_8bit").unwrap();
    let mut total_ns = 0u128;
    let mut total_cycles = 0u64;
    for rep in 0..reps {
        let iface = (d.iface)();
        let seqs: Vec<Box<dyn Sequence>> =
            vec![Box::new(RandomSequence::new(&iface.inputs, cycles, 7 + rep as u64))];
        let env = Environment::from_source(d.source, d.name, iface, (d.model)(), seqs)
            .unwrap()
            .without_waveform();
        let start = Instant::now();
        let summary = env.run();
        total_ns += start.elapsed().as_nanos();
        total_cycles += summary.cycles as u64;
        black_box(summary.pass_rate);
    }
    total_ns as f64 / total_cycles as f64
}

/// Full campaign wall-clock: `size` instances × every method, one
/// worker (deterministic timing), memory sink. Returns (seconds, jobs).
fn campaign_wall_clock(size: usize) -> (f64, usize) {
    let config = CampaignConfig {
        dataset_size: size,
        methods: MethodKind::ALL.to_vec(),
        workers: 1,
        ..CampaignConfig::default()
    };
    let mut sink = MemorySink::new();
    let start = Instant::now();
    let outcome = Campaign::new(config).unwrap().run(&mut sink).unwrap();
    (start.elapsed().as_secs_f64(), outcome.new_records.len())
}

// How the LLM-overlap record is measured: 8 workers, a 5 ms endpoint
// round trip, LLM-heavy methods only.
const OVERLAP_LATENCY: Duration = Duration::from_millis(5);
const OVERLAP_WORKERS: usize = 8;
const OVERLAP_SIZE: usize = 24;

/// Campaign wall-clock under an injected endpoint round-trip latency:
/// per-job oracle (one gated round trip per prompt — the exclusive
/// connection the old `complete(&mut M)` API models) vs. the shared
/// batched service (one round trip per flush). The gap this measures is
/// exactly the overlap the submit/await redesign buys, tracked in
/// `BENCH_kernels.json` as `llm_overlap`.
fn llm_overlap_wall_clock(batched: bool) -> (f64, f64) {
    let config = CampaignConfig {
        dataset_size: OVERLAP_SIZE,
        methods: vec![MethodKind::Uvllm, MethodKind::Meic, MethodKind::GptDirect],
        workers: OVERLAP_WORKERS,
        llm_latency: Some(OVERLAP_LATENCY),
        llm_batch: batched
            .then(|| BatchConfig { max_batch: OVERLAP_WORKERS, ..BatchConfig::default() }),
        ..CampaignConfig::default()
    };
    let mut sink = MemorySink::new();
    uvllm_obs::registry().reset();
    let start = Instant::now();
    let outcome = Campaign::new(config).unwrap().run(&mut sink).unwrap();
    black_box(outcome.new_records.len());
    let flushes = outcome.metrics.counter("llm.flushes").unwrap_or(0) as f64;
    let prompts = outcome.metrics.counter("llm.flushed_prompts").unwrap_or(0) as f64;
    (start.elapsed().as_secs_f64(), prompts / flushes.max(1.0))
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Settle throughput of a combinational design: ns per
/// poke-all-inputs-and-settle iteration, after a warm-up.
fn comb_settle_ns(design: &uvllm_sim::Design, iters: u64) -> f64 {
    let design = std::sync::Arc::new(design.clone());
    let inputs: Vec<(SignalId, u32)> =
        design.inputs().iter().map(|&id| (id, design.signal(id).width)).collect();
    let mut sim = AnySim::new(&design, SimBackend::EventDriven).unwrap();
    let drive = |sim: &mut AnySim, i: u64| {
        for &(id, width) in &inputs {
            let v = Logic::from_u128(width, (i as u128).wrapping_mul(0x9E37_79B9));
            sim.poke(id, v).unwrap();
        }
        sim.settle().unwrap();
    };
    for i in 0..500 {
        drive(&mut sim, i);
    }
    let start = Instant::now();
    for i in 0..iters {
        drive(&mut sim, i);
    }
    let elapsed = start.elapsed();
    black_box(sim.peek_word(design.outputs()[0], 0));
    elapsed.as_nanos() as f64 / iters as f64
}

/// The netlist-pass perf record: pass statistics and the measured
/// settle-throughput delta on the featured design, optimized (O3)
/// against unoptimized.
fn netlist_opt_record() -> Json {
    use uvllm_netlist::{levelized_depth, OptLevel, PassManager};
    const FEATURED: &str = "adder_16bit";
    let d = by_name(FEATURED).unwrap();
    let file = uvllm_verilog::parse(d.source).unwrap();
    let base = elaborate(&file, d.name).unwrap();
    let mut opt = base.clone();
    let stats = PassManager::standard(OptLevel::O3).run(&mut opt);
    let base_ns = comb_settle_ns(&base, 200_000);
    let opt_ns = comb_settle_ns(&opt, 200_000);
    println!(
        "netlist opt ({FEATURED}, O3): depth {} -> {}, {} rewrites, \
         settle {base_ns:.0} -> {opt_ns:.0} ns/cycle ({:.2}x)",
        stats.depth_before,
        stats.depth_after,
        stats.total_rewrites(),
        base_ns / opt_ns.max(1e-9),
    );
    let passes =
        stats.per_pass.iter().map(|p| (p.name.to_string(), Json::Num(p.rewrites as f64))).collect();
    Json::Obj(vec![
        ("design".into(), Json::Str(FEATURED.into())),
        ("opt_level".into(), Json::Str("O3".into())),
        ("depth_before".into(), Json::Num(levelized_depth(&base) as f64)),
        ("depth_after".into(), Json::Num(levelized_depth(&opt) as f64)),
        ("rounds".into(), Json::Num(stats.rounds as f64)),
        ("rewrites".into(), Json::Obj(passes)),
        ("base_settle_ns_per_cycle".into(), Json::Num(round2(base_ns))),
        ("opt_settle_ns_per_cycle".into(), Json::Num(round2(opt_ns))),
        ("speedup_opt_vs_base".into(), Json::Num(round2(base_ns / opt_ns.max(1e-9)))),
    ])
}

fn write_bench_json() {
    let size = std::env::var("UVLLM_BENCH_SIZE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(uvllm::dataset::PAPER_DATASET_SIZE);
    // Default the record to the workspace root, next to README.
    let path = std::env::var("UVLLM_BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_kernels.json").to_string());
    let costs = kernel_cycle_costs(20_000);
    let kernel_ns = costs.ns_per_cycle;
    let alloc_per_cycle = costs.allocs_per_cycle;
    let env_ns = env_ns_per_cycle(2_000, 5);
    let (wall_s, jobs) = campaign_wall_clock(size);
    println!(
        "kernel {kernel_ns:.0} ns/cycle, {alloc_per_cycle} allocs/cycle, \
         {:.2} activations/cycle, env {env_ns:.0} ns/cycle, \
         campaign {size}x6 {wall_s:.2}s ({jobs} jobs)",
        costs.activations_per_cycle,
    );
    let kernel = Json::Obj(vec![
        ("backend".into(), Json::Str(SimBackend::EventDriven.label().to_string())),
        ("kernel_ns_per_cycle".into(), Json::Num(round2(kernel_ns))),
        ("alloc_per_cycle".into(), Json::Num(alloc_per_cycle)),
        ("activations_per_cycle".into(), Json::Num(round2(costs.activations_per_cycle))),
        ("env_ns_per_cycle".into(), Json::Num(round2(env_ns))),
        ("campaign_wall_s".into(), Json::Num(round2(wall_s))),
        ("campaign_jobs".into(), Json::Num(jobs as f64)),
    ]);
    let (direct_s, _) = llm_overlap_wall_clock(false);
    let (batched_s, mean_batch) = llm_overlap_wall_clock(true);
    println!(
        "llm overlap ({}ms rtt, {} workers, {} instances x 3 llm methods): \
         per-job {direct_s:.2}s vs batched {batched_s:.2}s ({:.2}x)",
        OVERLAP_LATENCY.as_millis(),
        OVERLAP_WORKERS,
        OVERLAP_SIZE,
        direct_s / batched_s.max(1e-9),
    );
    let netlist_opt = netlist_opt_record();
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("uvllm-bench-kernels/v6".into())),
        ("campaign_size".into(), Json::Num(size as f64)),
        ("campaign_methods".into(), Json::Num(MethodKind::ALL.len() as f64)),
        ("kernel".into(), kernel),
        (
            "llm_overlap".into(),
            Json::Obj(vec![
                ("latency_ms".into(), Json::Num(OVERLAP_LATENCY.as_millis() as f64)),
                ("workers".into(), Json::Num(OVERLAP_WORKERS as f64)),
                ("campaign_size".into(), Json::Num(OVERLAP_SIZE as f64)),
                ("llm_methods".into(), Json::Num(3.0)),
                ("per_job_wall_s".into(), Json::Num(round2(direct_s))),
                ("batched_wall_s".into(), Json::Num(round2(batched_s))),
                ("mean_batch_size".into(), Json::Num(round2(mean_batch))),
                (
                    "speedup_batched_vs_per_job".into(),
                    Json::Num(round2(direct_s / batched_s.max(1e-9))),
                ),
            ]),
        ),
        ("netlist_opt".into(), netlist_opt),
    ]);
    std::fs::write(&path, format!("{}\n", doc.render())).expect("write BENCH_kernels.json");
    println!("wrote {path}");
    // Assert the zero-allocation bound only after the record is on
    // disk: a regression must still leave its measured value in the
    // trajectory file, not abort the run recordless.
    assert_eq!(
        alloc_per_cycle, 0.0,
        "the steady-state cycle loop allocated — the zero bound \
         (tests/alloc_steady_state.rs) has regressed; see {path}"
    );
}

fn main() {
    kernels();
    // A positional CLI arg is a criterion-style name filter — an
    // exploratory run that should not pay for (or overwrite) the full
    // campaign perf record.
    let filtered = std::env::args().skip(1).any(|a| !a.starts_with('-'));
    if filtered {
        println!("bench filter given: skipping BENCH_kernels.json generation");
    } else {
        write_bench_json();
    }
}
