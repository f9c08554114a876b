//! Post-elaboration netlist passes and Yosys-JSON interchange.
//!
//! This crate sits between elaboration ([`uvllm_sim::elab`]) and the
//! simulator. It rewrites an elaborated [`Design`] in
//! place through a small pipeline of semantics-preserving passes, and
//! imports/exports designs in Yosys' JSON netlist format so
//! third-party RTL can join a campaign and elaborated designs can
//! round-trip out to other tools (see [`yosys`]).
//!
//! # Pass framework
//!
//! A [`Pass`] is a named rewrite returning how many rewrites it
//! performed; a [`PassManager`] runs its passes in rounds until a full
//! round changes nothing (capped, see [`PassManager::MAX_ROUNDS`]).
//! Running the pipeline on its own output is therefore a no-op by
//! construction — the idempotence tests pin `Design: PartialEq` over
//! a double run.
//!
//! Every pass preserves *observable* four-state semantics: port and
//! surviving-signal waveforms are bit-identical before and after, for
//! any stimulus, X-propagation included. Passes may orphan internal
//! signals (leaving them undriven/unread) but never renumber them.
//!
//! The soundness argument leans on one invariant shared with the
//! simulator: every expression position has a *static* evaluation
//! context width (the `ctx` of [`uvllm_sim::eval::eval`]), fully
//! determined by the enclosing statement and operator — so a pass can
//! replay the exact runtime widths at rewrite time. The walker in
//! [`passes`] mirrors those rules; `eval.rs` is the normative source.
//!
//! # Levels
//!
//! | level | passes |
//! |-------|--------|
//! | `O0`  | none (identity) |
//! | `O1`  | const folding, operand canonicalization |
//! | `O2`  | `O1` + buffer removal |
//! | `O3`  | `O2` + comb-chain rebalancing |
//!
//! [`opt_profile`] packages a level as a [`uvllm_sim::OptProfile`] so
//! the elaboration cache keys variants separately;
//! [`install_default_opt`] makes it the process default consumed by
//! `elaborate_source_cached` (this is what the campaign CLI's
//! `--opt-level` does).

pub mod passes;
pub mod yosys;

mod metrics;

use std::sync::Arc;

use uvllm_sim::elab::{stmt_written_signals, Design, SignalId, Trigger};
use uvllm_sim::OptProfile;

pub use passes::{BufferRemoval, Canonicalize, ConstFold, Rebalance};

/// A named, in-place rewrite of an elaborated design.
pub trait Pass {
    /// Stable pass name (used in stats and metrics).
    fn name(&self) -> &'static str;

    /// Applies the pass, returning the number of rewrites performed
    /// (0 means the design was already a fixpoint of this pass).
    fn run(&self, design: &mut Design) -> u64;
}

/// Optimization level selecting a standard pass pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// Identity — the elaborated design is used as-is.
    O0,
    /// Constant folding + operand canonicalization.
    O1,
    /// `O1` plus buffer/identity-assign removal.
    O2,
    /// `O2` plus comb-chain rebalancing (single-reader inlining).
    O3,
}

impl OptLevel {
    /// Parses a numeric level (`0..=3`).
    pub fn from_u8(n: u8) -> Option<OptLevel> {
        match n {
            0 => Some(OptLevel::O0),
            1 => Some(OptLevel::O1),
            2 => Some(OptLevel::O2),
            3 => Some(OptLevel::O3),
            _ => None,
        }
    }

    /// Cache label for this level; empty for `O0` (the identity label
    /// used by un-optimized cache entries).
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::O0 => "",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
            OptLevel::O3 => "O3",
        }
    }
}

/// Rewrite tally for one pass across all rounds of a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStat {
    pub name: &'static str,
    pub rewrites: u64,
}

/// Deterministic statistics from one [`PassManager::run`].
///
/// All counts are exact and reproducible: passes walk the design
/// single-threaded in process/statement order, so the same input
/// design always yields the same stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineStats {
    /// Rounds executed (including the final all-quiet round).
    pub rounds: u32,
    /// Per-pass rewrite totals, in pipeline order.
    pub per_pass: Vec<PassStat>,
    /// Levelized comb depth before any pass ran.
    pub depth_before: u32,
    /// Levelized comb depth after the pipeline reached fixpoint.
    pub depth_after: u32,
}

impl PipelineStats {
    /// Total rewrites across all passes.
    pub fn total_rewrites(&self) -> u64 {
        self.per_pass.iter().map(|p| p.rewrites).sum()
    }

    /// Rewrites performed by the pass named `name` (0 if absent).
    pub fn rewrites(&self, name: &str) -> u64 {
        self.per_pass.iter().find(|p| p.name == name).map_or(0, |p| p.rewrites)
    }
}

/// Runs a pipeline of passes to fixpoint.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// Round cap: a backstop against a (buggy) pass pair that keeps
    /// undoing each other. The standard passes strictly shrink the
    /// design (nodes, inversions or processes), so real pipelines
    /// converge in a handful of rounds.
    pub const MAX_ROUNDS: u32 = 32;

    /// An empty pipeline (identity).
    pub fn new() -> PassManager {
        PassManager { passes: Vec::new() }
    }

    /// Appends a pass (builder style).
    pub fn with_pass(mut self, pass: Box<dyn Pass>) -> PassManager {
        self.passes.push(pass);
        self
    }

    /// The standard pipeline for `level` (empty for `O0`).
    pub fn standard(level: OptLevel) -> PassManager {
        let mut pm = PassManager::new();
        if level >= OptLevel::O1 {
            pm = pm.with_pass(Box::new(ConstFold)).with_pass(Box::new(Canonicalize));
        }
        if level >= OptLevel::O2 {
            pm = pm.with_pass(Box::new(BufferRemoval));
        }
        if level >= OptLevel::O3 {
            pm = pm.with_pass(Box::new(Rebalance));
        }
        pm
    }

    /// Pass names, in pipeline order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs all passes in rounds until a full round performs no
    /// rewrite, and reports deterministic per-pass statistics.
    pub fn run(&self, design: &mut Design) -> PipelineStats {
        let depth_before = levelized_depth(design);
        let mut per_pass: Vec<PassStat> =
            self.passes.iter().map(|p| PassStat { name: p.name(), rewrites: 0 }).collect();
        let mut rounds = 0;
        while rounds < Self::MAX_ROUNDS {
            rounds += 1;
            let mut round_rewrites = 0;
            for (i, pass) in self.passes.iter().enumerate() {
                let _span = uvllm_obs::Span::enter("netlist.pass");
                let n = pass.run(design);
                per_pass[i].rewrites += n;
                round_rewrites += n;
            }
            if round_rewrites == 0 {
                break;
            }
        }
        let stats =
            PipelineStats { rounds, per_pass, depth_before, depth_after: levelized_depth(design) };
        metrics::record(&stats);
        stats
    }
}

/// Levelized combinational depth of a design: the length of the
/// longest writer→reader chain of combinational processes (1 = all comb
/// processes are sources, 0 = no comb processes).
///
/// Edges follow the *declared* sensitivity lists, not the read sets,
/// and a process writing one of its own triggers adds no edge (it
/// misses its own events, IEEE 1364). Members of a combinational cycle
/// are parked one level past the acyclic frontier, so a cyclic design
/// reports its acyclic depth plus one.
pub fn levelized_depth(design: &Design) -> u32 {
    let procs = design.processes();
    let comb: Vec<(usize, &[SignalId])> = procs
        .iter()
        .enumerate()
        .filter_map(|(pid, p)| match &p.trigger {
            Trigger::Comb(deps) => Some((pid, deps.as_slice())),
            _ => None,
        })
        .collect();
    let mut writers: Vec<Vec<usize>> = vec![Vec::new(); design.signals().len()];
    for &(pid, _) in &comb {
        for s in stmt_written_signals(&procs[pid].body) {
            writers[s.0 as usize].push(pid);
        }
    }
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); procs.len()];
    let mut indegree = vec![0u32; procs.len()];
    for &(pid, deps) in &comb {
        for d in deps {
            for &writer in writers[d.0 as usize].iter().filter(|&&w| w != pid) {
                succs[writer].push(pid);
                indegree[pid] += 1;
            }
        }
    }

    // Kahn's algorithm over the comb subgraph; whatever it never
    // reaches sits on a cycle.
    let mut levels = vec![0u32; procs.len()];
    let mut ready: Vec<usize> =
        comb.iter().map(|&(pid, _)| pid).filter(|&pid| indegree[pid] == 0).collect();
    let (mut reached, mut max_level) = (0, 0);
    while let Some(pid) = ready.pop() {
        reached += 1;
        max_level = max_level.max(levels[pid]);
        for &next in &succs[pid] {
            levels[next] = levels[next].max(levels[pid] + 1);
            indegree[next] -= 1;
            if indegree[next] == 0 {
                ready.push(next);
            }
        }
    }
    match comb.len() {
        0 => 0,
        n if reached < n => max_level + 2,
        _ => max_level + 1,
    }
}

/// Packages `level` as a cache [`OptProfile`]: `None` for [`OptLevel::O0`]
/// (identity — no profile needed), otherwise a profile whose transform
/// runs the standard pipeline and records per-pass metrics.
pub fn opt_profile(level: OptLevel) -> Option<OptProfile> {
    match level {
        OptLevel::O0 => None,
        _ => Some(OptProfile::new(level.label(), {
            Arc::new(move |design: &mut Design| {
                PassManager::standard(level).run(design);
            })
        })),
    }
}

/// Installs `level` as the process-default optimization profile picked
/// up by `elaborate_source_cached` (campaign `--opt-level` plumbing). `O0` resets to
/// the identity profile.
pub fn install_default_opt(level: OptLevel) {
    uvllm_sim::set_default_opt_profile(opt_profile(level).unwrap_or_else(OptProfile::none));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn depth(src: &str) -> u32 {
        let file = uvllm_verilog::parse(src).unwrap();
        let top = &file.top().unwrap().name;
        levelized_depth(&uvllm_sim::elaborate(&file, top).unwrap())
    }

    #[test]
    fn chain_is_levelized() {
        let chain = "module m(input a, output w1, output w2, output w3);\n\
                     assign w1 = ~a;\nassign w2 = ~w1;\nassign w3 = ~w2;\nendmodule\n";
        assert_eq!(depth(chain), 3);
        let seq_only = "module m(input clk, output reg q);\nalways @(posedge clk) q <= ~q;\n\
                        endmodule\n";
        assert_eq!(depth(seq_only), 0);
    }

    #[test]
    fn diamond_join_runs_after_both_arms() {
        let diamond = "module m(input a, output y);\nwire l, r;\n\
                       assign l = ~a;\nassign r = a;\nassign y = l & r;\nendmodule\n";
        assert_eq!(depth(diamond), 2);
    }

    #[test]
    fn cycles_are_flagged_not_fatal() {
        // Cycle members sit one level past the acyclic frontier, and a
        // process writing its own trigger is not a cycle.
        let ring = "module m(output a, output b);\nassign a = ~b;\nassign b = ~a;\nendmodule\n";
        assert_eq!(depth(ring), 2);
        let self_loop = "module m(input x, output reg y);\n\
                         always @(*) begin y = x; y = ~y; end\nendmodule\n";
        assert_eq!(depth(self_loop), 1);
    }
}
