//! Deterministic, seeded fault injection for the LLM boundary.
//!
//! [`FaultyLlm`] wraps any [`LanguageModel`] and injects the failures a
//! real deployment sees — transient endpoint errors, extra latency, and
//! malformed / truncated completions — at rates drawn from a seeded
//! [`FaultPlan`]. Two properties make it a *test instrument* rather
//! than mere chaos:
//!
//! 1. **Reproducibility.** Every fault decision comes from the plan's
//!    own xoshiro stream, with exactly two draws per call regardless of
//!    which fault (if any) fires. The same seed therefore produces the
//!    same fault sequence on every run, machine and worker count —
//!    campaign failure schedules replay from `--fault-seed`.
//! 2. **Inner-stream preservation.** An injected fault never touches
//!    the wrapped model: no call is forwarded, no RNG is consumed, no
//!    usage is recorded. When the resilience layer retries, the inner
//!    model answers exactly as it would have on a fault-free run —
//!    which is what makes "faults + retries ⇒ byte-identical rows"
//!    provable instead of aspirational.
//!
//! Injected latency is the exception to rule 2: the *decision* to
//! stall is seeded, but the stall itself only burns wall-clock before
//! forwarding the call unchanged, so it perturbs timelines, never rows.

use crate::model::{count_tokens, Completion, LanguageModel, LlmError, Usage};
use crate::prompt::RepairPrompt;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::sync::OnceLock;
use std::time::Duration;
use uvllm_obs::{registry, Counter};

/// Registry handles for injected faults (`llm.faults.*`), resolved once.
#[derive(Debug)]
struct FaultMetrics {
    /// Transient errors injected.
    errors: &'static Counter,
    /// Malformed / truncated completions injected.
    malformed: &'static Counter,
    /// Latency stalls injected.
    stalls: &'static Counter,
}

fn metrics() -> &'static FaultMetrics {
    static METRICS: OnceLock<FaultMetrics> = OnceLock::new();
    METRICS.get_or_init(|| FaultMetrics {
        errors: registry().counter("llm.faults.errors"),
        malformed: registry().counter("llm.faults.malformed"),
        stalls: registry().counter("llm.faults.stalls"),
    })
}

/// A seeded fault schedule: what [`FaultyLlm`] injects, and how often.
///
/// Rates are independent probabilities per completion call, resolved in
/// the order error → malformed → truncated from a single uniform draw
/// (so the three are mutually exclusive per call); the latency decision
/// is a second, independent draw. All zeros (the default) injects
/// nothing while still consuming the same RNG stream, so enabling one
/// fault class never reshuffles another's schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed of the fault stream. Campaign wiring derives a per-job
    /// seed from this (see [`FaultPlan::derive`]) so every job replays
    /// its own schedule regardless of worker count.
    pub seed: u64,
    /// Probability of a transient error ([`LlmError::Transient`])
    /// replacing the call.
    pub error_rate: f64,
    /// Probability of a fabricated *malformed* completion (prose where
    /// the agents expect structured JSON) replacing the call.
    pub malform_rate: f64,
    /// Probability of a fabricated *truncated* completion (structured
    /// output cut mid-string, as when a stream drops) replacing the
    /// call.
    pub truncate_rate: f64,
    /// Probability of stalling the call by [`FaultPlan::latency`]
    /// before forwarding it unchanged.
    pub latency_rate: f64,
    /// The injected stall duration when the latency fault fires.
    pub latency: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xFA17,
            error_rate: 0.0,
            malform_rate: 0.0,
            truncate_rate: 0.0,
            latency_rate: 0.0,
            latency: Duration::ZERO,
        }
    }
}

impl FaultPlan {
    /// The same plan with its seed mixed with `salt` — how the campaign
    /// gives every job an independent, reproducible fault stream from
    /// one `--fault-seed` (mirroring how oracle seeds are derived from
    /// instance seed × method salt).
    pub fn derive(&self, salt: u64) -> FaultPlan {
        FaultPlan { seed: self.seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F), ..self.clone() }
    }

    /// True when every rate is zero — wrapping is pointless.
    pub fn is_noop(&self) -> bool {
        self.error_rate <= 0.0
            && self.malform_rate <= 0.0
            && self.truncate_rate <= 0.0
            && self.latency_rate <= 0.0
    }
}

/// What the plan decided for one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    None,
    Error,
    Malformed,
    Truncated,
}

/// Counts of faults this wrapper has injected (per-instance view of the
/// global `llm.faults.*` counters; tests assert on it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    pub errors: u64,
    pub malformed: u64,
    pub truncated: u64,
    pub stalls: u64,
}

/// A [`LanguageModel`] wrapper that injects seeded faults (module docs).
#[derive(Debug)]
pub struct FaultyLlm<M: LanguageModel> {
    inner: M,
    plan: FaultPlan,
    rng: StdRng,
    injected: FaultCounts,
}

impl<M: LanguageModel> FaultyLlm<M> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: M, plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultyLlm { inner, plan, rng, injected: FaultCounts::default() }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Faults injected so far.
    pub fn injected(&self) -> FaultCounts {
        self.injected
    }

    /// Draws this call's fault decisions: exactly two uniform draws per
    /// call, whatever the rates, so the stream position is a function
    /// of the call index alone.
    fn decide(&mut self) -> (FaultKind, bool) {
        let fault_draw: f64 = self.rng.random();
        let latency_draw: f64 = self.rng.random();
        let kind = if fault_draw < self.plan.error_rate {
            FaultKind::Error
        } else if fault_draw < self.plan.error_rate + self.plan.malform_rate {
            FaultKind::Malformed
        } else if fault_draw
            < self.plan.error_rate + self.plan.malform_rate + self.plan.truncate_rate
        {
            FaultKind::Truncated
        } else {
            FaultKind::None
        };
        let stall = latency_draw < self.plan.latency_rate && !self.plan.latency.is_zero();
        (kind, stall)
    }

    /// A fabricated garbage completion. Deliberately unparsable as
    /// either structured-output schema (`RepairResponse` /
    /// `CompleteResponse`), so the resilience layer's validator — and
    /// an honest agent's own distilling step — reject it.
    fn fabricate(&mut self, prompt: &RepairPrompt, kind: FaultKind) -> Completion {
        let content = match kind {
            FaultKind::Malformed => {
                "I'm sorry, but as a language model I cannot complete this request \
                 without additional context about the design."
                    .to_string()
            }
            // A structured reply torn mid-string: the classic shape of
            // a dropped streaming connection.
            _ => "{\n  \"module name\": \"dut\",\n  \"analysis\": \"the always block".to_string(),
        };
        let prompt_tokens = count_tokens(&prompt.render());
        let completion_tokens = count_tokens(&content);
        Completion { content, prompt_tokens, completion_tokens, latency: Duration::ZERO }
    }
}

impl<M: LanguageModel> LanguageModel for FaultyLlm<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
        let (kind, stall) = self.decide();
        if stall {
            self.injected.stalls += 1;
            metrics().stalls.inc();
            std::thread::sleep(self.plan.latency);
        }
        match kind {
            FaultKind::None => self.inner.complete(prompt),
            FaultKind::Error => {
                self.injected.errors += 1;
                metrics().errors.inc();
                Err(LlmError::Transient("injected transient endpoint failure".to_string()))
            }
            FaultKind::Malformed => {
                self.injected.malformed += 1;
                metrics().malformed.inc();
                Ok(self.fabricate(prompt, kind))
            }
            FaultKind::Truncated => {
                self.injected.truncated += 1;
                metrics().malformed.inc();
                Ok(self.fabricate(prompt, kind))
            }
        }
    }

    fn usage(&self) -> Usage {
        // Fabricated faults never reach the inner model and never count
        // as usage: a retried run's accounting matches a fault-free one.
        self.inner.usage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::AgentRole;
    use crate::scripted::ScriptedLlm;

    fn prompt() -> RepairPrompt {
        RepairPrompt::new(AgentRole::SyntaxFixer, "spec", "module m; endmodule")
    }

    fn plan(error: f64, malform: f64) -> FaultPlan {
        FaultPlan { seed: 7, error_rate: error, malform_rate: malform, ..FaultPlan::default() }
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let mut sequences = Vec::new();
        for _ in 0..2 {
            let scripted = ScriptedLlm::new((0..64).map(|i| format!("r{i}")));
            let mut faulty = FaultyLlm::new(scripted, plan(0.3, 0.2));
            let seq: Vec<bool> = (0..64).map(|_| faulty.complete(&prompt()).is_ok()).collect();
            sequences.push((seq, faulty.injected()));
        }
        assert_eq!(sequences[0], sequences[1], "fault schedule must replay from the seed");
        assert!(sequences[0].1.errors > 0, "0.3 over 64 calls must fire");
    }

    #[test]
    fn faults_do_not_consume_the_inner_stream() {
        // A scripted inner model makes stream preservation observable:
        // the Nth *forwarded* call must always see the Nth response.
        let scripted = ScriptedLlm::new((0..64).map(|i| format!("r{i}")));
        let mut faulty = FaultyLlm::new(scripted, plan(0.4, 0.2));
        let mut forwarded = 0usize;
        for _ in 0..64 {
            match faulty.complete(&prompt()) {
                Ok(c) if c.content.starts_with('r') => {
                    assert_eq!(c.content, format!("r{forwarded}"));
                    forwarded += 1;
                }
                Ok(_) => {} // fabricated garbage: inner untouched
                Err(LlmError::Transient(_)) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        let counts = faulty.injected();
        assert_eq!(forwarded as u64 + counts.errors + counts.malformed + counts.truncated, 64);
        assert_eq!(faulty.usage().calls, forwarded as u64, "usage counts forwarded calls only");
    }

    #[test]
    fn derived_plans_replay_per_salt() {
        let base = plan(0.5, 0.0);
        let a1: Vec<bool> = {
            let mut f =
                FaultyLlm::new(ScriptedLlm::new((0..32).map(|_| "x".into())), base.derive(1));
            (0..32).map(|_| f.complete(&prompt()).is_ok()).collect()
        };
        let a2: Vec<bool> = {
            let mut f =
                FaultyLlm::new(ScriptedLlm::new((0..32).map(|_| "x".into())), base.derive(1));
            (0..32).map(|_| f.complete(&prompt()).is_ok()).collect()
        };
        let b: Vec<bool> = {
            let mut f =
                FaultyLlm::new(ScriptedLlm::new((0..32).map(|_| "x".into())), base.derive(2));
            (0..32).map(|_| f.complete(&prompt()).is_ok()).collect()
        };
        assert_eq!(a1, a2, "same salt, same schedule");
        assert_ne!(a1, b, "different salts draw independent schedules");
    }

    #[test]
    fn noop_plan_is_transparent() {
        let mut plain = ScriptedLlm::new((0..4).map(|i| format!("r{i}")));
        let mut faulty =
            FaultyLlm::new(ScriptedLlm::new((0..4).map(|i| format!("r{i}"))), FaultPlan::default());
        assert!(FaultPlan::default().is_noop());
        for _ in 0..4 {
            assert_eq!(
                plain.complete(&prompt()).unwrap().content,
                faulty.complete(&prompt()).unwrap().content,
            );
        }
        assert_eq!(faulty.injected(), FaultCounts::default());
    }

    #[test]
    fn fabricated_completions_are_unparsable() {
        use crate::response::{CompleteResponse, RepairResponse};
        let mut f = FaultyLlm::new(
            ScriptedLlm::new(std::iter::empty::<String>()),
            FaultPlan { malform_rate: 0.5, truncate_rate: 0.5, ..plan(0.0, 0.0) },
        );
        for _ in 0..8 {
            let c = f.complete(&prompt()).unwrap();
            assert!(RepairResponse::parse(&c.content).is_err());
            assert!(CompleteResponse::parse(&c.content).is_err());
        }
    }
}
