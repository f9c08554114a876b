//! The `llm.queue_depth` gauge under concurrent callers. It is the only
//! test in this binary, so no sibling test moves the process-wide gauge
//! while it samples.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::time::Duration;
use uvllm_llm::{
    AgentRole, BatchConfig, BatchedLlm, LlmError, LlmService, RepairPrompt, ScriptedLlm,
};

#[test]
fn queue_depth_never_goes_negative_and_settles_after_stop() {
    let gauge = uvllm_obs::registry().gauge("llm.queue_depth");
    let start = gauge.get();
    // A tiny queue keeps callers blocked on backpressure as well as on
    // their replies.
    let service = BatchedLlm::start(BatchConfig {
        max_batch: 2,
        max_wait: Duration::from_millis(1),
        queue_cap: 2,
        ..BatchConfig::default()
    });
    let clients: Vec<_> = (0..4)
        .map(|_| service.client(ScriptedLlm::new((0..100_000).map(|i| format!("r{i}")))))
        .collect();
    let answered = AtomicUsize::new(0);
    let sampling = AtomicBool::new(true);
    let lowest = AtomicI64::new(start);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while sampling.load(Ordering::SeqCst) {
                lowest.fetch_min(gauge.get(), Ordering::SeqCst);
            }
        });
        let callers: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let answered = &answered;
                scope.spawn(move || {
                    let prompt = RepairPrompt::new(AgentRole::SyntaxFixer, "spec", "module m;");
                    // Call until the service stops under us: requests in
                    // flight at the stop are answered or dropped, and
                    // later ones are refused.
                    loop {
                        match client.complete(&prompt) {
                            Ok(_) => answered.fetch_add(1, Ordering::SeqCst),
                            Err(LlmError::ServiceClosed(_)) => break,
                            Err(err) => panic!("unexpected error {err}"),
                        };
                    }
                })
            })
            .collect();
        while answered.load(Ordering::SeqCst) < 400 {
            std::thread::yield_now();
        }
        service.stop();
        for caller in callers {
            caller.join().unwrap();
        }
        sampling.store(false, Ordering::SeqCst);
    });
    assert!(lowest.load(Ordering::SeqCst) >= 0, "the gauge read below zero");
    assert_eq!(gauge.get(), start, "no request is left counted after the stop");
}
