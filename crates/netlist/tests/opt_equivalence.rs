//! Differential safety net for the pass pipeline: on every benchmark
//! design, at every optimization level, the optimized design must be
//! **port-waveform-identical** to the unoptimized one under seeded
//! random stimulus.
//!
//! Ports (not all signals) are compared because passes may orphan
//! internal nets — that is the whole point of buffer removal — but
//! anything observable at the module boundary is pinned bit-for-bit,
//! X-propagation included: the pre-reset phase runs with every
//! non-reset input at X. A hand-written `stress` design adds the
//! interpreter's X-regime corners on top of the catalog.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use uvllm_designs::all;
use uvllm_netlist::{levelized_depth, OptLevel, PassManager};
use uvllm_sim::{elaborate, AnySim, Design, Logic, SimBackend, SimControl};

/// Cycles of random stimulus per (design, level).
const CYCLES: usize = 100;

const LEVELS: [OptLevel; 3] = [OptLevel::O1, OptLevel::O2, OptLevel::O3];

fn elaborated(source: &str, top: &str) -> Design {
    let file = uvllm_verilog::parse(source).unwrap();
    elaborate(&file, top).unwrap()
}

fn optimized(base: &Design, level: OptLevel) -> Design {
    let mut design = base.clone();
    PassManager::standard(level).run(&mut design);
    design
}

fn wide(rng: &mut StdRng) -> u128 {
    ((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128
}

/// Pokes every sim (base first, then the optimized variants) with one
/// value.
fn poke_all(sims: &mut [AnySim], name: &str, v: Logic, ctx: &str) {
    for sim in sims.iter_mut() {
        sim.poke_by_name(name, v).unwrap_or_else(|e| panic!("{ctx}: poke {name}: {e}"));
    }
}

/// Asserts every sim agrees with the base on every port of the base
/// design.
fn assert_ports_identical(sims: &[AnySim], base: &Design, ctx: &str) {
    // Passes never renumber signals, so port ids are shared across the
    // base and optimized designs.
    for &port in base.inputs().iter().chain(base.outputs()) {
        let name = &base.signal(port).name;
        let reference = sims[0].peek_word(port, 0);
        for (i, sim) in sims.iter().enumerate().skip(1) {
            let got = sim.peek_word(port, 0);
            assert_eq!(
                got, reference,
                "{ctx}: port '{name}': sim#{i} diverged ({got} != {reference})"
            );
        }
    }
}

/// Drives the base and optimized designs in lockstep, comparing ports
/// after every poke settle.
fn drive_matrix(d: &uvllm_designs::Design, level: OptLevel, seed: u64) {
    let base = Arc::new(elaborated(d.source, d.name));
    let opt = Arc::new(optimized(&base, level));
    let iface = (d.iface)();
    let ctx = format!("{}@{}", d.name, level.label());
    let mut sims = [
        AnySim::new(&base, SimBackend::EventDriven).unwrap(),
        AnySim::new(&opt, SimBackend::EventDriven).unwrap(),
    ];
    assert_ports_identical(&sims, &base, &ctx);

    let mut rng = StdRng::seed_from_u64(seed);

    // Reset protocol, mirroring the UVM environment's reset phase. The
    // pre-reset cycles exercise the X regime on the optimized design.
    if let Some(reset) = &iface.reset {
        let assert_v = Logic::bit(!reset.active_low);
        let deassert_v = Logic::bit(reset.active_low);
        poke_all(&mut sims, &reset.name, assert_v, &ctx);
        if let Some(clk) = &iface.clock {
            poke_all(&mut sims, clk, Logic::bit(false), &ctx);
            for _ in 0..2 {
                poke_all(&mut sims, clk, Logic::bit(true), &ctx);
                poke_all(&mut sims, clk, Logic::bit(false), &ctx);
            }
        }
        poke_all(&mut sims, &reset.name, deassert_v, &ctx);
    } else if let Some(clk) = &iface.clock {
        poke_all(&mut sims, clk, Logic::bit(false), &ctx);
    }
    assert_ports_identical(&sims, &base, &format!("{ctx} post-reset"));

    for cycle in 0..CYCLES {
        for p in &iface.inputs {
            let v = Logic::from_u128(p.width, wide(&mut rng));
            poke_all(&mut sims, &p.name, v, &ctx);
        }
        if let Some(clk) = &iface.clock {
            poke_all(&mut sims, clk, Logic::bit(true), &ctx);
        }
        for sim in sims.iter_mut() {
            sim.settle().unwrap();
        }
        assert_ports_identical(&sims, &base, &format!("{ctx} cycle {cycle}"));
        if let Some(clk) = &iface.clock {
            poke_all(&mut sims, clk, Logic::bit(false), &ctx);
        }
    }
}

/// The headline acceptance test: all 27 designs × 3 levels, optimized
/// ports identical to unoptimized ones.
#[test]
fn optimized_designs_are_port_identical_on_all_designs() {
    for d in all() {
        for level in LEVELS {
            drive_matrix(d, level, 0x0707 ^ fnv(d.name));
        }
    }
}

/// The `stress` design at every level: 200 random cycles before reset
/// ever asserts (case dispatch over an X selector, NBA writes of X,
/// dropped unknown-index writes), then a reset pulse and 200 more.
#[test]
fn stress_design_is_port_identical_at_every_level() {
    let base = Arc::new(elaborated(include_str!("stress.v"), "stress"));
    let mut sims = vec![AnySim::new(&base, SimBackend::EventDriven).unwrap()];
    for level in LEVELS {
        let opt = Arc::new(optimized(&base, level));
        sims.push(AnySim::new(&opt, SimBackend::EventDriven).unwrap());
    }
    assert_ports_identical(&sims, &base, "stress");
    let mut rng = StdRng::seed_from_u64(0x57E55);
    let step = |sims: &mut [AnySim], name: &str, v: Logic| {
        poke_all(sims, name, v, "stress");
        assert_ports_identical(sims, &base, &format!("stress after {name}={v}"));
    };
    step(&mut sims, "clk", Logic::bit(false));
    for phase in 0..2 {
        if phase == 1 {
            step(&mut sims, "rst_n", Logic::bit(false));
            step(&mut sims, "rst_n", Logic::bit(true));
        }
        for _ in 0..200 {
            step(&mut sims, "idx", Logic::from_u128(4, wide(&mut rng)));
            step(&mut sims, "d", Logic::from_u128(8, wide(&mut rng)));
            step(&mut sims, "clk", Logic::bit(true));
            step(&mut sims, "clk", Logic::bit(false));
        }
    }
}

/// At the top level the whole catalog must still levelize: no pass may
/// introduce a comb cycle, and depth never increases.
#[test]
fn passes_never_deepen_the_comb_schedule() {
    for d in all() {
        let base = elaborated(d.source, d.name);
        let before = levelized_depth(&base);
        for level in LEVELS {
            let after = levelized_depth(&optimized(&base, level));
            assert!(after <= before, "{}@{}: depth {before} -> {after}", d.name, level.label());
        }
    }
}

/// Per-design stimulus seeds stay stable across catalog reordering.
fn fnv(name: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for b in name.as_bytes() {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}
