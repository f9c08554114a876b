//! Unit and property tests for the pass framework: per-pass rewrite
//! behaviour, context-width soundness corners, pipeline idempotence
//! and deterministic statistics.

use std::sync::Arc;
use uvllm_designs::all;
use uvllm_netlist::{install_default_opt, levelized_depth, opt_profile, OptLevel, PassManager};
use uvllm_sim::{elaborate, AnySim, Design, SimBackend, SimControl};

fn elaborated(source: &str, top: &str) -> Design {
    let file = uvllm_verilog::parse(source).unwrap();
    elaborate(&file, top).unwrap()
}

fn run(design: &mut Design, level: OptLevel) -> uvllm_netlist::PipelineStats {
    PassManager::standard(level).run(design)
}

/// Settles a design and returns the named signal as a `(val, xz)` pair.
fn settled_value(design: &Design, name: &str) -> (u128, u128) {
    let design = Arc::new(design.clone());
    let id = design.signal_id(name).unwrap();
    let mut sim = AnySim::new(&design, SimBackend::EventDriven).unwrap();
    sim.settle().unwrap();
    let v = sim.peek_word(id, 0);
    (v.val(), v.xz())
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

#[test]
fn const_fold_reduces_signal_free_subtrees() {
    let mut design = elaborated(
        "module t(input [7:0] a, output [7:0] y);\n\
         assign y = a + (8'd2 + 8'd3);\nendmodule\n",
        "t",
    );
    let stats = run(&mut design, OptLevel::O1);
    assert!(stats.rewrites("const_fold") >= 1, "stats: {stats:?}");
}

/// The classic context-width trap: `(4'd15 + 4'd1)` must fold at the
/// *assignment* context (8 bits, where the carry survives), not at its
/// self-determined 4 bits (where it would wrap to 0).
#[test]
fn const_fold_respects_context_widths() {
    let src = "module t(output [7:0] y);\n\
               assign y = (4'd15 + 4'd1) >> 1;\nendmodule\n";
    let base = elaborated(src, "t");
    let mut opt = base.clone();
    let stats = run(&mut opt, OptLevel::O1);
    assert!(stats.rewrites("const_fold") >= 1);
    assert_eq!(settled_value(&base, "y"), (8, 0));
    assert_eq!(settled_value(&opt, "y"), (8, 0));
}

/// `x + 0` must NOT be dropped: an X in `x` poisons the sum at
/// runtime, so the identity is unsound in four-state logic. The
/// undriven `a` keeps `y` all-X, optimized or not.
#[test]
fn const_fold_keeps_x_poisoning_add() {
    let src = "module t(input [3:0] a, output [3:0] y);\n\
               assign y = a + 4'd0;\nendmodule\n";
    let base = elaborated(src, "t");
    let mut opt = base.clone();
    run(&mut opt, OptLevel::O1);
    assert_eq!(settled_value(&base, "y").1, 0xF, "baseline: X-poisoned sum");
    assert_eq!(settled_value(&opt, "y").1, 0xF, "optimized: X-poisoned sum");
}

/// `x & 0` IS four-state sound (0 wins against X) and folds away the
/// undriven operand entirely.
#[test]
fn const_fold_applies_and_zero_identity() {
    let src = "module t(input [3:0] a, output [3:0] y);\n\
               assign y = a & 4'd0;\nendmodule\n";
    let base = elaborated(src, "t");
    let mut opt = base.clone();
    let stats = run(&mut opt, OptLevel::O1);
    assert!(stats.rewrites("const_fold") >= 1);
    assert_eq!(settled_value(&base, "y"), (0, 0));
    assert_eq!(settled_value(&opt, "y"), (0, 0));
}

#[test]
fn const_fold_prunes_known_branches() {
    let src = "module t(input [3:0] a, output reg [3:0] y);\n\
               always @(*) begin\n\
               if (1'b1) y = a; else y = 4'd0;\n\
               end\nendmodule\n";
    let mut opt = elaborated(src, "t");
    let stats = run(&mut opt, OptLevel::O1);
    assert!(stats.rewrites("const_fold") >= 1, "stats: {stats:?}");
}

// ---------------------------------------------------------------------------
// Canonicalization
// ---------------------------------------------------------------------------

#[test]
fn canonicalize_moves_constants_right() {
    let src = "module t(input [3:0] a, output [3:0] y);\n\
               assign y = 4'd3 + a;\nendmodule\n";
    let mut opt = elaborated(src, "t");
    let stats = run(&mut opt, OptLevel::O1);
    assert_eq!(stats.rewrites("canonicalize"), 1, "stats: {stats:?}");
}

#[test]
fn canonicalize_leaves_noncommutative_ops_alone() {
    let src = "module t(input [3:0] a, output [3:0] y, output z);\n\
               assign y = 4'd9 - a;\n\
               assign z = 4'd9 < a;\nendmodule\n";
    let mut opt = elaborated(src, "t");
    let stats = run(&mut opt, OptLevel::O1);
    assert_eq!(stats.rewrites("canonicalize"), 0, "stats: {stats:?}");
}

// ---------------------------------------------------------------------------
// Buffer removal
// ---------------------------------------------------------------------------

#[test]
fn buffer_removal_collapses_chains() {
    let src = "module t(input [3:0] a, output [3:0] y);\n\
               wire [3:0] b, c;\n\
               assign b = a;\n\
               assign c = b;\n\
               assign y = c + 4'd1;\nendmodule\n";
    let mut opt = elaborated(src, "t");
    let nprocs = opt.processes().len();
    let stats = run(&mut opt, OptLevel::O2);
    assert_eq!(stats.rewrites("buffer_removal"), 2, "stats: {stats:?}");
    assert_eq!(opt.processes().len(), nprocs - 2);
}

/// Output-port buffers must survive: the port itself is observable.
#[test]
fn buffer_removal_spares_ports() {
    let src = "module t(input [3:0] a, output [3:0] y);\n\
               assign y = a;\nendmodule\n";
    let mut opt = elaborated(src, "t");
    let stats = run(&mut opt, OptLevel::O2);
    assert_eq!(stats.rewrites("buffer_removal"), 0);
    assert_eq!(opt.processes().len(), 1);
}

/// A buffer feeding a sequential reader keeps its one-delta lag and
/// must not be removed.
#[test]
fn buffer_removal_spares_seq_readers() {
    let src = "module t(input clk, input [3:0] a, output reg [3:0] y);\n\
               wire [3:0] b;\n\
               assign b = a;\n\
               always @(posedge clk) y <= b;\nendmodule\n";
    let mut opt = elaborated(src, "t");
    let stats = run(&mut opt, OptLevel::O2);
    assert_eq!(stats.rewrites("buffer_removal"), 0, "stats: {stats:?}");
}

// ---------------------------------------------------------------------------
// Rebalancing
// ---------------------------------------------------------------------------

#[test]
fn rebalance_flattens_comb_chains() {
    let src = "module t(input [7:0] a, input [7:0] b, input [7:0] c,\n\
               input [7:0] d, input [7:0] e, output [7:0] y);\n\
               wire [7:0] t1, t2, t3;\n\
               assign t1 = a ^ b;\n\
               assign t2 = t1 ^ c;\n\
               assign t3 = t2 ^ d;\n\
               assign y = t3 ^ e;\nendmodule\n";
    let base = elaborated(src, "t");
    let before = levelized_depth(&base);
    assert_eq!(before, 4, "chain should levelize four deep");
    let mut opt = base.clone();
    let stats = run(&mut opt, OptLevel::O3);
    assert!(stats.rewrites("rebalance") >= 3, "stats: {stats:?}");
    assert_eq!(stats.depth_before, 4);
    assert_eq!(stats.depth_after, 1, "chain should collapse to one level");
    assert_eq!(levelized_depth(&opt), 1);
}

/// A producer with two readers stays put (inlining would duplicate it
/// without removing a level from both).
#[test]
fn rebalance_spares_shared_producers() {
    let src = "module t(input [7:0] a, input [7:0] b, output [7:0] y, output [7:0] z);\n\
               wire [7:0] s;\n\
               assign s = a + b;\n\
               assign y = s + 8'd1;\n\
               assign z = s + 8'd2;\nendmodule\n";
    let mut opt = elaborated(src, "t");
    let stats = run(&mut opt, OptLevel::O3);
    assert_eq!(stats.rewrites("rebalance"), 0, "stats: {stats:?}");
}

// ---------------------------------------------------------------------------
// Pipeline properties
// ---------------------------------------------------------------------------

/// Satellite acceptance: running the pipeline twice yields a
/// structurally identical design (`Design: PartialEq`) and a quiet
/// second run, on every catalog design at every level.
#[test]
fn pipeline_is_idempotent_on_all_designs() {
    for d in all() {
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let mut once = elaborated(d.source, d.name);
            run(&mut once, level);
            let mut twice = once.clone();
            let stats = run(&mut twice, level);
            assert_eq!(
                stats.total_rewrites(),
                0,
                "{}@{}: second run rewrote: {stats:?}",
                d.name,
                level.label()
            );
            assert_eq!(stats.rounds, 1, "{}@{}", d.name, level.label());
            assert!(once == twice, "{}@{}: designs diverged", d.name, level.label());
        }
    }
}

/// Stats are a pure function of the input design: two fresh runs agree
/// field-for-field.
#[test]
fn pipeline_stats_are_deterministic() {
    for d in all() {
        let stats: Vec<_> = (0..2)
            .map(|_| {
                let mut design = elaborated(d.source, d.name);
                run(&mut design, OptLevel::O3)
            })
            .collect();
        assert_eq!(stats[0], stats[1], "{}: stats diverged across runs", d.name);
    }
}

#[test]
fn pass_pipeline_composition_follows_levels() {
    assert!(PassManager::standard(OptLevel::O0).pass_names().is_empty());
    assert_eq!(
        PassManager::standard(OptLevel::O3).pass_names(),
        ["const_fold", "canonicalize", "buffer_removal", "rebalance"]
    );
}

// ---------------------------------------------------------------------------
// Cache profile plumbing
// ---------------------------------------------------------------------------

#[test]
fn opt_profiles_carry_level_labels() {
    assert!(opt_profile(OptLevel::O0).is_none());
    let p = opt_profile(OptLevel::O2).unwrap();
    assert_eq!(p.label(), "O2");
    assert!(!p.is_identity());
    assert_eq!(OptLevel::from_u8(3), Some(OptLevel::O3));
    assert_eq!(OptLevel::from_u8(4), None);
}

#[test]
fn install_default_opt_round_trips() {
    install_default_opt(OptLevel::O1);
    assert_eq!(uvllm_sim::default_opt_profile().label(), "O1");
    install_default_opt(OptLevel::O0);
    assert!(uvllm_sim::default_opt_profile().is_identity());
}
