//! Per-call costs of the lower layers, timed by calling their public
//! functions directly on the inputs the workload generates.

use crate::workloads::{num, nums, Workload, BACKEND, OPT_LEVEL, SERVE_LEASE};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use uvllm::{Uvllm, VerifyConfig};
use uvllm_campaign::MethodKind;
use uvllm_json::Json;
use uvllm_llm::{DirectService, ModelProfile, OracleLlm, OutputMode};
use uvllm_serve::journal::JournalConfig;
use uvllm_serve::{FsyncPolicy, JobStore, LeaseOutcome, RunSpec};
use uvllm_sim::{AnySim, Logic, SimControl};
use uvllm_uvm::{Environment, RandomSequence, Sequence};

/// The design the kernel and environment probes share, so their
/// difference is the environment's own cost per cycle.
const CYCLE_DESIGN: &str = "counter_12";
const CYCLES: usize = 4000;
const CYCLE_REPS: usize = 5;
/// Lease + complete pairs per fsync policy.
const JOURNAL_OPS: usize = 500;

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

pub fn run_probes(workload: Workload, seed: u64, dir: &Path) -> Result<Json, String> {
    uvllm_netlist::install_default_opt(
        uvllm_netlist::OptLevel::from_u8(OPT_LEVEL).expect("valid opt level"),
    );
    let instances = uvllm::build_dataset_with(workload.dataset_size(), seed, BACKEND).instances;

    let (mut parse_us, mut lint_us, mut elab_us, mut localize_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for inst in &instances {
        let src = &inst.mutated_src;
        let start = Instant::now();
        let parsed = uvllm_verilog::parse(src);
        parse_us.push(micros(start));
        let start = Instant::now();
        std::hint::black_box(uvllm_lint::lint(src));
        lint_us.push(micros(start));
        let Ok(file) = parsed else { continue };
        let start = Instant::now();
        std::hint::black_box(uvllm_sim::elaborate(&file, inst.design.name).is_ok());
        elab_us.push(micros(start));
        if let Some(module) = file.module(inst.design.name) {
            let outputs: Vec<String> =
                (inst.design.iface)().outputs.iter().map(|p| p.name.clone()).collect();
            let start = Instant::now();
            std::hint::black_box(uvllm_dfg::suspicious_lines(
                module,
                src,
                &outputs,
                &HashMap::new(),
            ));
            localize_us.push(micros(start));
        }
    }

    let (mut verdict_ms, mut verify_ms) = (Vec::new(), Vec::new());
    for inst in &instances {
        // The mutated text (as a failing candidate) and the golden text
        // (as a confirmed fix): the two ends of every verdict.
        for code in [inst.mutated_src.as_str(), inst.design.source] {
            let start = Instant::now();
            std::hint::black_box(uvllm::metrics::hit_confirmed_with(inst.design, code, BACKEND));
            std::hint::black_box(uvllm::metrics::fix_verdict_with(inst.design, code, BACKEND));
            verdict_ms.push(micros(start) / 1e3);
        }
        // The UVLLM pipeline as the campaign job runs it, on a direct
        // service (no injected latency) with the job's oracle seed.
        let oracle_seed = inst.seed ^ 0x01u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let model = OracleLlm::new(
            inst.ground_truth.clone(),
            inst.design.source,
            ModelProfile::Gpt4Turbo,
            oracle_seed,
        );
        let config = VerifyConfig {
            output_mode: OutputMode::Pairs,
            backend: BACKEND,
            ..VerifyConfig::default()
        };
        let mut framework = Uvllm::with_service(DirectService::new(model), config);
        let start = Instant::now();
        std::hint::black_box(framework.verify(inst.design, &inst.mutated_src).success);
        verify_ms.push(micros(start) / 1e3);
    }

    let cycles = cycle_costs()?;
    let mut members = vec![
        ("parse_us".to_string(), nums(&parse_us)),
        ("lint_us".to_string(), nums(&lint_us)),
        ("elab_us".to_string(), nums(&elab_us)),
        ("localize_us".to_string(), nums(&localize_us)),
        ("verdict_ms".to_string(), nums(&verdict_ms)),
        ("verify_ms".to_string(), nums(&verify_ms)),
        ("kernel_ns_per_cycle".to_string(), num(cycles.kernel_ns)),
        ("activations_per_cycle".to_string(), num(cycles.activations)),
        ("alloc_per_cycle".to_string(), num(cycles.allocs)),
        ("env_ns_per_cycle".to_string(), num(cycles.env_ns)),
    ];
    for (label, policy) in [
        ("always", FsyncPolicy::Always),
        ("every64", FsyncPolicy::EveryN(64)),
        ("never", FsyncPolicy::Never),
    ] {
        let ops = journal_ops(&dir.join(format!("journal-{label}")), policy, seed)?;
        members.push((format!("journal_{label}_us"), nums(&ops)));
    }
    Ok(Json::Obj(members))
}

struct CycleCosts {
    kernel_ns: f64,
    activations: f64,
    allocs: f64,
    env_ns: f64,
}

/// A tiny xorshift stream for the kernel probe's input values.
fn next_random(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Kernel cost per clock cycle, driven by `SignalId` (no name lookups
/// in the timed loop), and the whole UVM environment's cost per cycle
/// on the same design. Medians over `CYCLE_REPS` repetitions.
fn cycle_costs() -> Result<CycleCosts, String> {
    let d = uvllm_designs::by_name(CYCLE_DESIGN).ok_or("probe design missing")?;
    let iface = (d.iface)();
    let file = uvllm_verilog::parse(d.source).map_err(|e| e.to_string())?;
    let design = Arc::new(uvllm_sim::elaborate(&file, d.name).map_err(|e| e.to_string())?);
    let id = |name: &str| design.signal_id(name).ok_or(format!("no signal {name}"));
    let inputs: Vec<_> =
        iface.inputs.iter().map(|p| id(&p.name).map(|i| (i, p.width))).collect::<Result<_, _>>()?;
    let clock = id(iface.clock.as_deref().ok_or("probe design has no clock")?)?;
    let reset = iface.reset.as_ref().map(|r| id(&r.name).map(|i| (i, r.active_low))).transpose()?;
    let sim_err = |e: uvllm_sim::SimError| e.to_string();

    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let stimulus: Vec<Logic> = (0..CYCLES * inputs.len())
        .map(|k| {
            let width = inputs[k % inputs.len()].1;
            Logic::from_u128(width, u128::from(next_random(&mut state)))
        })
        .collect();

    let (mut kernel, mut activations, mut allocs, mut env) = (vec![], vec![], vec![], vec![]);
    for rep in 0..CYCLE_REPS {
        let mut sim = AnySim::new(&design, BACKEND).map_err(sim_err)?;
        for &(input, width) in &inputs {
            sim.poke(input, Logic::zeros(width)).map_err(sim_err)?;
        }
        if let Some((rst, active_low)) = reset {
            sim.poke(clock, Logic::bit(false)).map_err(sim_err)?;
            sim.poke(rst, Logic::bit(!active_low)).map_err(sim_err)?;
            sim.poke(clock, Logic::bit(true)).map_err(sim_err)?;
            sim.poke(clock, Logic::bit(false)).map_err(sim_err)?;
            sim.poke(rst, Logic::bit(active_low)).map_err(sim_err)?;
        }
        let cycle = |sim: &mut AnySim, c: usize| -> Result<(), String> {
            for (k, &(input, _)) in inputs.iter().enumerate() {
                sim.poke(input, stimulus[c * inputs.len() + k]).map_err(sim_err)?;
            }
            sim.poke(clock, Logic::bit(true)).map_err(sim_err)?;
            sim.settle().map_err(sim_err)?;
            sim.poke(clock, Logic::bit(false)).map_err(sim_err)?;
            sim.set_time(sim.time() + 10);
            Ok(())
        };
        for c in 0..200 {
            cycle(&mut sim, c)?;
        }
        let activations_before = activation_count();
        let allocs_before = crate::allocations();
        let start = Instant::now();
        for c in 0..CYCLES {
            cycle(&mut sim, c)?;
        }
        kernel.push(start.elapsed().as_nanos() as f64 / CYCLES as f64);
        allocs.push((crate::allocations() - allocs_before) as f64 / CYCLES as f64);
        activations.push((activation_count() - activations_before) as f64 / CYCLES as f64);

        let seqs: Vec<Box<dyn Sequence>> =
            vec![Box::new(RandomSequence::new(&iface.inputs, CYCLES, 7 + rep as u64))];
        let environment = Environment::from_source_with(
            d.source,
            d.name,
            (d.iface)(),
            (d.model)(),
            seqs,
            BACKEND,
        )
        .map_err(|e| format!("{e:?}"))?
        .without_waveform();
        let start = Instant::now();
        let summary = environment.run();
        env.push(start.elapsed().as_nanos() as f64 / summary.cycles.max(1) as f64);
    }
    Ok(CycleCosts {
        kernel_ns: crate::stats::median(&kernel),
        activations: crate::stats::median(&activations),
        allocs: crate::stats::median(&allocs),
        env_ns: crate::stats::median(&env),
    })
}

fn activation_count() -> u64 {
    let snapshot = uvllm_obs::registry().snapshot();
    snapshot.counter("sim.event.activations").unwrap_or(0)
        + snapshot.counter("sim.compiled.fastpath_hits").unwrap_or(0)
        + snapshot.counter("sim.compiled.fallback_hits").unwrap_or(0)
}

/// In-process `JobStore` lease and complete calls under one fsync
/// policy; each call's duration in microseconds.
fn journal_ops(dir: &Path, fsync: FsyncPolicy, seed: u64) -> Result<Vec<f64>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let config = JournalConfig { fsync, compact_every: 512, crash_after: None };
    let (store, _) = JobStore::open(dir, SERVE_LEASE, config).map_err(|e| e.to_string())?;
    store
        .submit(RunSpec {
            size: 1,
            seed,
            methods: vec![MethodKind::Strider],
            backend: BACKEND,
            opt_level: OPT_LEVEL,
            shards: JOURNAL_OPS,
            lease: SERVE_LEASE,
        })
        .map_err(|e| e.to_string())?;
    let mut ops = Vec::with_capacity(2 * JOURNAL_OPS);
    for _ in 0..JOURNAL_OPS {
        let start = Instant::now();
        let grant = match store.lease("bench-probe") {
            LeaseOutcome::Granted(grant) => grant,
            other => return Err(format!("journal probe lease refused: {other:?}")),
        };
        ops.push(micros(start));
        let start = Instant::now();
        store
            .complete(&grant.run, grant.shard, grant.epoch)
            .map_err(|e| format!("journal probe complete refused: {e:?}"))?;
        ops.push(micros(start));
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(ops)
}
