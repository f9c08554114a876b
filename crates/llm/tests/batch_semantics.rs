//! Partial-failure semantics of the LLM layers: [`FaultyLlm`]'s
//! injector and the [`BatchedLlm`] service's flushes.
//!
//! The contract under test: a failed prompt fails *its own* call and
//! nothing else. Sibling prompts get exactly the completions a
//! failure-free run would have delivered, and the accounting
//! ([`Usage`]) reflects only the completions that actually arrived — a
//! flush with failures in it never books phantom calls.

use std::time::Duration;
use uvllm_llm::{
    AgentRole, BatchConfig, BatchedLlm, DirectService, FaultPlan, FaultyLlm, LanguageModel,
    LlmError, LlmService, RepairPrompt, ScriptedLlm, Usage,
};

fn prompt(tag: &str) -> RepairPrompt {
    RepairPrompt::new(
        AgentRole::SyntaxFixer,
        format!("spec {tag}"),
        format!("module {tag}; endmodule"),
    )
}

fn scripts(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{{\"module name\": \"m{i}\", \"analysis\": \"a\"}}")).collect()
}

/// Injected faults error their own call; the calls between them
/// receive the fault-free completions in script order (the injector
/// fabricates faults without consuming the inner model's stream).
#[test]
fn injected_batch_faults_do_not_shift_sibling_answers() {
    let plan = FaultPlan { error_rate: 0.4, ..FaultPlan::default() };
    let mut model = FaultyLlm::new(ScriptedLlm::new(scripts(8)), plan);
    let results: Vec<_> = (0..8).map(|i| model.complete(&prompt(&format!("p{i}")))).collect();
    let errors = results.iter().filter(|r| r.is_err()).count();
    assert!(errors > 0 && errors < 8, "0.4 over 8 draws must fault some but not all: {errors}");
    // The k-th delivered completion is the k-th script — faulted
    // siblings did not consume (or shift) the inner stream.
    let delivered: Vec<&str> = results.iter().flatten().map(|c| c.content.as_str()).collect();
    let expected = scripts(8);
    for (k, content) in delivered.iter().enumerate() {
        assert_eq!(*content, expected[k], "delivered completion #{k} shifted");
    }
    assert_eq!(model.inner().remaining(), 8 - delivered.len(), "faults never drain the script");
    assert_eq!(model.usage().calls, delivered.len() as u64);
}

/// Two sessions share one flush; one session's model is exhausted. The
/// failure lands on that session's call only, the other session gets
/// its answer, and usage is booked only for the delivered completion.
#[test]
fn service_tickets_isolate_batch_failures() {
    let service = BatchedLlm::start(BatchConfig {
        max_batch: 2,
        max_wait: Duration::from_secs(30),
        ..BatchConfig::default()
    });
    let mut exhausted = service.client(ScriptedLlm::new(scripts(0)));
    let mut answered = service.client(ScriptedLlm::new(scripts(1)));
    let (failed, delivered) = std::thread::scope(|scope| {
        let failed = scope.spawn(|| exhausted.complete(&prompt("a")));
        let delivered = scope.spawn(|| answered.complete(&prompt("b")));
        (failed.join().unwrap(), delivered.join().unwrap())
    });
    assert!(
        matches!(&failed, Err(LlmError::NoResponse(_))),
        "the exhausted session fails its own call: {failed:?}"
    );
    let delivered = delivered.expect("the sibling session gets its answer");
    assert_eq!(delivered.content, scripts(1)[0]);
    for client in [&exhausted, &answered] {
        assert_eq!(client.wait_stats().max_batch, 2, "both calls rode one flush");
    }
    assert_eq!(exhausted.usage(), Usage::default(), "a failed call books nothing");

    // Reference: the same surviving prompt, no failing sibling.
    let mut reference = DirectService::new(ScriptedLlm::new(scripts(1)));
    reference.complete(&prompt("b")).expect("failure-free run");
    assert_eq!(answered.usage(), reference.usage(), "a failed sibling must not perturb accounting");
    assert_ne!(answered.usage(), Usage::default(), "the comparison is not vacuous");
}
