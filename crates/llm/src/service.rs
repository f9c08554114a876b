//! The LLM *service* layer: the one blocking call every pipeline stage
//! makes, [`LlmService::complete`], and the two deployment shapes that
//! answer it.
//!
//! The paper's repair loop is sequential within a job: pre-processing,
//! MS mode and SL mode each send one prompt, wait for it, and
//! re-simulate the answer before they build the next prompt. So a job
//! never has two prompts in flight, and the service hands its caller
//! one answer per call.
//!
//! * [`DirectService`] — the in-process adapter: wraps one
//!   [`LanguageModel`] and answers on the calling thread. Zero
//!   concurrency, zero overhead.
//! * [`BatchedLlm`] — a shared service owning the backend(s) on a
//!   dedicated thread. Callers register *sessions* (one per campaign
//!   job, carrying that job's own model so oracle determinism is
//!   untouched) and obtain [`LlmClient`] handles. Each call lands in
//!   one bounded queue; the [`BatchConfig`] flush policy coalesces the
//!   calls of many workers (`max_batch` reached, or `max_wait` elapsed
//!   since the first pending prompt), pays one injected round trip for
//!   the whole flush, and answers each prompt from its session's model
//!   — so one worker's LLM round trip overlaps every other worker's
//!   simulation time. A flush holds at most one prompt per session.
//!
//! **Determinism contract:** a session's model sees exactly the prompts
//! sent through that session, in call order, no matter how flushes
//! interleave sessions. A campaign job therefore produces the same
//! completions (and the same usage accounting) through a [`BatchedLlm`]
//! session as through a [`DirectService`] — batch schedule and worker
//! count change wall-clock only.
//!
//! [`SlowLlm`] models the remote endpoint in direct mode: a fixed
//! per-round-trip latency on an exclusive connection ([`EndpointGate`]),
//! paid once per prompt. Batched mode pays the same cost once per
//! flush instead (`BatchConfig::round_trip`), which is the
//! amortization the batched service exists to exploit.

use crate::model::{Completion, LanguageModel, LlmError, Usage};
use crate::prompt::RepairPrompt;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use uvllm_obs::{registry, Counter, Gauge, Histogram};

/// Registry handles for the service layer (`llm.*`), resolved once.
/// Per-handle [`WaitStats`] stay for per-job row telemetry (a global
/// registry cannot attribute waits to one job); these are the
/// service-wide aggregates campaigns snapshot.
#[derive(Debug)]
struct LlmMetrics {
    /// Prompts sent to a batched service but not yet pulled into a
    /// flush window.
    queue_depth: &'static Gauge,
    /// Calls answered through batched-session handles.
    tickets: &'static Counter,
    /// Send-to-delivery wall time per batched-session call, in
    /// microseconds.
    ticket_wait_us: &'static Histogram,
    /// Prompts per flush.
    batch_size: &'static Histogram,
    /// Flushes answered (any reason).
    flushes: &'static Counter,
    /// Prompts answered across all flushes (`flushed_prompts / flushes`
    /// is the mean batch size).
    flushed_prompts: &'static Counter,
    /// Flushes triggered by a full batch window.
    flush_full: &'static Counter,
    /// Flushes triggered by the `max_wait` deadline.
    flush_timeout: &'static Counter,
    /// Flushes draining the queue at service shutdown.
    flush_shutdown: &'static Counter,
}

fn metrics() -> &'static LlmMetrics {
    static METRICS: OnceLock<LlmMetrics> = OnceLock::new();
    METRICS.get_or_init(|| LlmMetrics {
        queue_depth: registry().gauge("llm.queue_depth"),
        tickets: registry().counter("llm.tickets"),
        ticket_wait_us: registry().histogram("llm.ticket_wait_us"),
        batch_size: registry().histogram("llm.batch_size"),
        flushes: registry().counter("llm.flushes"),
        flushed_prompts: registry().counter("llm.flushed_prompts"),
        flush_full: registry().counter("llm.flush.full"),
        flush_timeout: registry().counter("llm.flush.timeout"),
        flush_shutdown: registry().counter("llm.flush.shutdown"),
    })
}

/// Why a flush fired (tallied per flush in the registry).
#[derive(Debug, Clone, Copy)]
enum FlushReason {
    Full,
    Timeout,
    Shutdown,
}

/// Flush policy and sizing of a [`BatchedLlm`] service.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Flush as soon as this many prompts are pending.
    pub max_batch: usize,
    /// Flush a partial batch this long after its first prompt arrived,
    /// so a lone straggler is never parked behind an empty queue.
    pub max_wait: Duration,
    /// Capacity of the bounded request queue; `complete` blocks while
    /// it is full (backpressure instead of unbounded buffering).
    pub queue_cap: usize,
    /// Injected endpoint round-trip latency paid once per flush —
    /// simulates the remote-API cost the batching amortizes (zero in
    /// production use; the benchmarks set it).
    pub round_trip: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_cap: 256,
            round_trip: Duration::ZERO,
        }
    }
}

/// Service-side accounting a handle accumulates call by call: how long
/// its caller spent blocked on the LLM and how large the batches its
/// prompts rode in were.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Calls answered (errors included).
    pub calls: u64,
    /// Total wall-clock time the caller spent blocked.
    pub wait: Duration,
    /// Largest flush any of this handle's prompts was part of.
    pub max_batch: usize,
}

/// The LLM call every pipeline stage makes — the successor of passing
/// `&mut M` around.
pub trait LlmService: Send {
    /// Sends one prompt and blocks until it is answered.
    ///
    /// # Errors
    ///
    /// The backend's own [`LlmError`] for this prompt, or
    /// [`LlmError::ServiceClosed`] when the service stopped (or its
    /// thread died) before answering.
    fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError>;

    /// Usage attributed to this handle (for a [`DirectService`], the
    /// wrapped model's total; for an [`LlmClient`], the sum of its own
    /// delivered completions — the per-call deltas that keep per-job
    /// accounting exact on a shared service).
    fn usage(&self) -> Usage;

    /// Wait/batch telemetry accumulated by this handle.
    fn wait_stats(&self) -> WaitStats;

    /// What the resilience layer did on this handle. Plain services
    /// report the all-zero default; [`crate::ResilientService`]
    /// overrides it — campaign code reads it through `Box<dyn
    /// LlmService>` to tag degraded rows without downcasting.
    fn resilience_stats(&self) -> crate::resilient::ResilienceStats {
        crate::resilient::ResilienceStats::default()
    }
}

// Forwarding impls so pipelines generic over `S: LlmService` accept
// mutable borrows and boxed trait objects alike.

impl<S: LlmService + ?Sized> LlmService for &mut S {
    fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
        (**self).complete(prompt)
    }

    fn usage(&self) -> Usage {
        (**self).usage()
    }

    fn wait_stats(&self) -> WaitStats {
        (**self).wait_stats()
    }

    fn resilience_stats(&self) -> crate::resilient::ResilienceStats {
        (**self).resilience_stats()
    }
}

impl<S: LlmService + ?Sized> LlmService for Box<S> {
    fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
        (**self).complete(prompt)
    }

    fn usage(&self) -> Usage {
        (**self).usage()
    }

    fn wait_stats(&self) -> WaitStats {
        (**self).wait_stats()
    }

    fn resilience_stats(&self) -> crate::resilient::ResilienceStats {
        (**self).resilience_stats()
    }
}

// ----------------------------------------------------------------------
// DirectService: the unbatched in-process adapter
// ----------------------------------------------------------------------

/// Adapts one [`LanguageModel`] to [`LlmService`] with no threads and
/// no queue: the model answers on the calling thread. Batch size is
/// always 1 — the baseline the batched service is measured against.
#[derive(Debug)]
pub struct DirectService<M: LanguageModel> {
    model: M,
    stats: WaitStats,
}

impl<M: LanguageModel> DirectService<M> {
    /// Wraps a model backend.
    pub fn new(model: M) -> Self {
        DirectService { model, stats: WaitStats::default() }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }
}

impl<M: LanguageModel> LlmService for DirectService<M> {
    fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
        // The caller blocks while the model answers (that is what
        // "direct" means), so the elapsed time is this call's wait —
        // e.g. a SlowLlm endpoint round trip shows up in telemetry
        // exactly like a batched call's queue time.
        let asked = Instant::now();
        let result = self.model.complete(prompt);
        self.stats.wait += asked.elapsed();
        self.stats.calls += 1;
        self.stats.max_batch = self.stats.max_batch.max(1);
        result
    }

    fn usage(&self) -> Usage {
        self.model.usage()
    }

    fn wait_stats(&self) -> WaitStats {
        self.stats
    }
}

// ----------------------------------------------------------------------
// BatchedLlm: the shared batching service
// ----------------------------------------------------------------------

/// What the service thread sends back on a request's reply channel.
struct Delivery {
    result: Result<Completion, LlmError>,
    /// Size of the flush this prompt was answered in.
    batch_size: usize,
}

/// One unit of the `llm.queue_depth` gauge. It is raised before the
/// request is enqueued and lowered when the request leaves the queue:
/// on receipt by the service thread, on a failed send, or when a
/// stopped service discards it. So the gauge never reads below zero
/// and never stays raised for a request nobody will answer.
struct Queued;

impl Queued {
    fn enter() -> Queued {
        metrics().queue_depth.inc();
        Queued
    }
}

impl Drop for Queued {
    fn drop(&mut self) {
        metrics().queue_depth.dec();
    }
}

struct PendingRequest {
    session: u64,
    prompt: RepairPrompt,
    reply: Sender<Delivery>,
}

enum Msg<M> {
    /// Register a session and the model that answers its prompts.
    Open {
        session: u64,
        model: M,
    },
    /// Drop a session's model (its client handle went away).
    Close {
        session: u64,
    },
    Request(PendingRequest, Queued),
    /// Answer everything received so far, then hand the models back.
    Shutdown,
}

/// The shared batched LLM service (see module docs).
///
/// Dropping the service answers every request already queued and joins
/// the thread; [`BatchedLlm::stop`] does the same but hands the session
/// models back (tests use this to audit usage). Requests sent after the
/// shutdown fail with [`LlmError::ServiceClosed`].
pub struct BatchedLlm<M: LanguageModel + 'static> {
    tx: SyncSender<Msg<M>>,
    thread: Option<std::thread::JoinHandle<HashMap<u64, M>>>,
    next_session: AtomicU64,
}

impl<M: LanguageModel + 'static> std::fmt::Debug for BatchedLlm<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedLlm").field("sessions", &self.next_session).finish()
    }
}

impl<M: LanguageModel + 'static> BatchedLlm<M> {
    /// Starts the service thread (sizes below 1 are clamped up).
    pub fn start(config: BatchConfig) -> Self {
        let config = BatchConfig {
            max_batch: config.max_batch.max(1),
            queue_cap: config.queue_cap.max(1),
            ..config
        };
        let (tx, rx) = mpsc::sync_channel(config.queue_cap);
        let thread = std::thread::Builder::new()
            .name("uvllm-llm-service".to_string())
            .spawn(move || service_loop(rx, config))
            .expect("spawn llm service thread");
        BatchedLlm { tx, thread: Some(thread), next_session: AtomicU64::new(0) }
    }

    /// Opens a session owning `model` and returns its client handle.
    ///
    /// Each campaign job opens a session with its own (seeded) model, so
    /// batching never mixes RNG streams across jobs.
    pub fn client(&self, model: M) -> LlmClient<M> {
        let session = self.next_session.fetch_add(1, Ordering::SeqCst);
        uvllm_obs::registry().counter("llm.sessions").inc();
        // A stopped service rejects the registration; the client's calls
        // then fail with `ServiceClosed` like every other service loss.
        let _ = self.tx.send(Msg::Open { session, model });
        LlmClient {
            tx: self.tx.clone(),
            session,
            usage: Usage::default(),
            stats: WaitStats::default(),
        }
    }

    /// Shuts the service down: answers every request already queued,
    /// joins the thread, and returns the session models (in
    /// session-open order) for auditing.
    pub fn stop(mut self) -> Vec<M> {
        let mut models: Vec<(u64, M)> = self.shutdown().into_iter().collect();
        models.sort_by_key(|(session, _)| *session);
        models.into_iter().map(|(_, model)| model).collect()
    }

    fn shutdown(&mut self) -> HashMap<u64, M> {
        let Some(thread) = self.thread.take() else { return HashMap::new() };
        // Fails only when the thread already died; the join says so.
        let _ = self.tx.send(Msg::Shutdown);
        thread.join().unwrap_or_default()
    }
}

impl<M: LanguageModel + 'static> Drop for BatchedLlm<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The dedicated service thread: accumulate → flush, until shutdown.
///
/// When the thread ends, normally or by a panic in a model, its
/// receiver and every pending request drop with it. That drops their
/// reply senders, so every blocked caller wakes at once with
/// [`LlmError::ServiceClosed`].
fn service_loop<M: LanguageModel>(rx: Receiver<Msg<M>>, config: BatchConfig) -> HashMap<u64, M> {
    let mut sessions: HashMap<u64, M> = HashMap::new();
    let mut pending: Vec<PendingRequest> = Vec::new();
    let mut open = true;
    while open {
        let Ok(msg) = rx.recv() else { break };
        open = handle_msg(msg, &mut sessions, &mut pending);
        // The flush window opens with the first pending prompt: gather
        // until the batch fills or `max_wait` elapses.
        let deadline = Instant::now() + config.max_wait;
        while open && !pending.is_empty() && pending.len() < config.max_batch {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(msg) => open = handle_msg(msg, &mut sessions, &mut pending),
                Err(_) => break,
            }
        }
        if open {
            let reason = if pending.len() >= config.max_batch {
                FlushReason::Full
            } else {
                FlushReason::Timeout
            };
            flush(&mut sessions, &mut pending, config.round_trip, reason);
        }
    }
    // Shutdown: a partial window interrupted by the stop is answered.
    flush(&mut sessions, &mut pending, config.round_trip, FlushReason::Shutdown);
    sessions
}

/// Applies one message; `false` means shutdown was requested.
fn handle_msg<M: LanguageModel>(
    msg: Msg<M>,
    sessions: &mut HashMap<u64, M>,
    pending: &mut Vec<PendingRequest>,
) -> bool {
    match msg {
        Msg::Open { session, model } => {
            sessions.insert(session, model);
        }
        Msg::Close { session } => {
            sessions.remove(&session);
        }
        // Dropping `Queued` here lowers the queue-depth gauge.
        Msg::Request(request, _queued) => pending.push(request),
        Msg::Shutdown => return false,
    }
    true
}

/// Answers one flush: one injected round trip for the whole batch, then
/// each prompt goes to its own session's model, in arrival order.
fn flush<M: LanguageModel>(
    sessions: &mut HashMap<u64, M>,
    pending: &mut Vec<PendingRequest>,
    round_trip: Duration,
    reason: FlushReason,
) {
    if pending.is_empty() {
        return;
    }
    let batch_size = pending.len();
    let m = metrics();
    m.flushes.inc();
    m.flushed_prompts.add(batch_size as u64);
    m.batch_size.record(batch_size as u64);
    match reason {
        FlushReason::Full => m.flush_full.inc(),
        FlushReason::Timeout => m.flush_timeout.inc(),
        FlushReason::Shutdown => m.flush_shutdown.inc(),
    }
    if !round_trip.is_zero() {
        std::thread::sleep(round_trip);
    }
    for request in pending.drain(..) {
        let result = match sessions.get_mut(&request.session) {
            Some(model) => model.complete(&request.prompt),
            None => Err(LlmError::ServiceClosed(format!(
                "session {} is not registered",
                request.session
            ))),
        };
        // A caller that went away no longer needs its answer.
        let _ = request.reply.send(Delivery { result, batch_size });
    }
}

/// A session handle onto a [`BatchedLlm`] — the [`LlmService`] the
/// pipeline actually holds when a campaign runs batched.
pub struct LlmClient<M: LanguageModel + 'static> {
    tx: SyncSender<Msg<M>>,
    session: u64,
    usage: Usage,
    stats: WaitStats,
}

impl<M: LanguageModel + 'static> std::fmt::Debug for LlmClient<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LlmClient").field("session", &self.session).finish()
    }
}

impl<M: LanguageModel + 'static> LlmService for LlmClient<M> {
    fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
        let sent = Instant::now();
        let (reply, answer) = mpsc::channel();
        let request = PendingRequest { session: self.session, prompt: prompt.clone(), reply };
        let closed = |why: &str| Delivery {
            result: Err(LlmError::ServiceClosed(why.to_string())),
            batch_size: 0,
        };
        let delivery = match self.tx.send(Msg::Request(request, Queued::enter())) {
            Ok(()) => answer
                .recv()
                .unwrap_or_else(|_| closed("request was never answered (service shut down)")),
            Err(_) => closed("service stopped before the request was sent"),
        };
        let waited = sent.elapsed();
        self.stats.calls += 1;
        self.stats.wait += waited;
        self.stats.max_batch = self.stats.max_batch.max(delivery.batch_size);
        let m = metrics();
        m.tickets.inc();
        m.ticket_wait_us.record(waited.as_micros() as u64);
        if let Ok(completion) = &delivery.result {
            // The per-call usage delta: exactly what the backend recorded
            // for this completion, attributed to this handle.
            self.usage.record(completion);
        }
        delivery.result
    }

    fn usage(&self) -> Usage {
        self.usage
    }

    fn wait_stats(&self) -> WaitStats {
        self.stats
    }
}

impl<M: LanguageModel + 'static> Drop for LlmClient<M> {
    fn drop(&mut self) {
        // Best effort: free the session's model on the service thread.
        let _ = self.tx.send(Msg::Close { session: self.session });
    }
}

// ----------------------------------------------------------------------
// SlowLlm: an injected-latency endpoint model
// ----------------------------------------------------------------------

/// The exclusive connection to a simulated remote endpoint: all
/// [`SlowLlm`] wrappers sharing a gate serialize their round trips, the
/// way requests on one API connection do.
pub type EndpointGate = Arc<Mutex<()>>;

/// A fresh exclusive endpoint connection.
pub fn endpoint_gate() -> EndpointGate {
    Arc::new(Mutex::new(()))
}

/// Wraps a backend with a fixed per-round-trip latency on an exclusive
/// connection: every `complete` pays one round trip. This is the
/// direct-mode workload model the batched service's overlap win is
/// measured against.
#[derive(Debug)]
pub struct SlowLlm<M: LanguageModel> {
    inner: M,
    round_trip: Duration,
    gate: EndpointGate,
}

impl<M: LanguageModel> SlowLlm<M> {
    /// Wraps `inner` behind a `round_trip`-latency connection.
    pub fn new(inner: M, round_trip: Duration, gate: EndpointGate) -> Self {
        SlowLlm { inner, round_trip, gate }
    }
}

impl<M: LanguageModel> LanguageModel for SlowLlm<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
        let _connection = self.gate.lock().expect("endpoint gate poisoned");
        std::thread::sleep(self.round_trip);
        self.inner.complete(prompt)
    }

    fn usage(&self) -> Usage {
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

    fn scripted(responses: &[&str]) -> ScriptedLlm {
        ScriptedLlm::new(responses.iter().map(|s| s.to_string()))
    }

    /// Runs each client's calls on its own thread (one blocked caller
    /// per thread, as campaign workers are) and returns each client's
    /// answers in call order, plus the clients for their stats.
    fn concurrently<M: LanguageModel + 'static>(
        clients: Vec<(LlmClient<M>, usize)>,
    ) -> Vec<(Vec<String>, LlmClient<M>)> {
        std::thread::scope(|scope| {
            let threads: Vec<_> = clients
                .into_iter()
                .map(|(mut client, calls)| {
                    scope.spawn(move || {
                        let answers =
                            (0..calls).map(|_| client.complete(&prompt()).unwrap().content);
                        (answers.collect(), client)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        })
    }

    #[test]
    fn direct_service_round_trips() {
        let mut service = DirectService::new(scripted(&["one", "two"]));
        assert_eq!(service.complete(&prompt()).unwrap().content, "one");
        assert_eq!(service.complete(&prompt()).unwrap().content, "two");
        assert!(service.complete(&prompt()).is_err(), "scripted backend exhausted");
        assert_eq!(service.usage().calls, 2);
        let stats = service.wait_stats();
        // Three calls were answered (the exhausted-backend error is an
        // answer too); only two produced completions.
        assert_eq!(stats.calls, 3);
        assert_eq!(stats.max_batch, 1);
    }

    #[test]
    fn batched_flushes_when_max_batch_reached() {
        let service = BatchedLlm::start(BatchConfig {
            max_batch: 3,
            max_wait: Duration::from_secs(30),
            ..BatchConfig::default()
        });
        let clients =
            ["one", "two", "three"].map(|answer| (service.client(scripted(&[answer])), 1));
        let answered = concurrently(clients.into());
        // The batch fills long before max_wait, each session gets its own
        // model's answer, and all three rode one flush.
        for ((answers, client), expected) in answered.iter().zip(["one", "two", "three"]) {
            assert_eq!(answers, &[expected]);
            assert_eq!(client.wait_stats().max_batch, 3);
            assert!(client.wait_stats().wait < Duration::from_secs(10));
        }
    }

    #[test]
    fn batched_flushes_partial_batch_on_max_wait() {
        let service = BatchedLlm::start(BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(20),
            ..BatchConfig::default()
        });
        let mut client = service.client(scripted(&["lone"]));
        assert_eq!(client.complete(&prompt()).unwrap().content, "lone");
        assert_eq!(client.wait_stats().max_batch, 1, "partial flush of one");
    }

    #[test]
    fn shutdown_drains_accepted_submissions() {
        let service = BatchedLlm::start(BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_secs(30),
            ..BatchConfig::default()
        });
        let mut client = service.client(scripted(&["one", "two"]));
        // Queue two requests straight into the channel, then stop while
        // the flush window is still gathering: the stop must answer the
        // partial batch, not strand it.
        let answers: Vec<Receiver<Delivery>> = (0..2)
            .map(|_| {
                let (reply, answer) = mpsc::channel();
                let request = PendingRequest { session: client.session, prompt: prompt(), reply };
                service.tx.send(Msg::Request(request, Queued::enter())).unwrap();
                answer
            })
            .collect();
        let models = service.stop();
        assert_eq!(models.len(), 1);
        let contents: Vec<String> =
            answers.iter().map(|a| a.recv().unwrap().result.unwrap().content).collect();
        assert_eq!(contents, ["one", "two"]);
        // Calls after shutdown fail at once.
        assert!(matches!(client.complete(&prompt()), Err(LlmError::ServiceClosed(_))));
    }

    #[test]
    fn sessions_keep_their_own_models_and_order() {
        let service = BatchedLlm::start(BatchConfig {
            max_batch: 2,
            max_wait: Duration::from_secs(30),
            ..BatchConfig::default()
        });
        let alice = service.client(scripted(&["a1", "a2"]));
        let bob = service.client(scripted(&["b1", "b2"]));
        let answered = concurrently(vec![(alice, 2), (bob, 2)]);
        // Each flush carries one prompt per session; each model answers
        // only its own prompts, in its own call order.
        assert_eq!(answered[0].0, ["a1", "a2"]);
        assert_eq!(answered[1].0, ["b1", "b2"]);
        for (_, client) in &answered {
            assert_eq!(client.wait_stats().max_batch, 2);
        }
    }

    #[test]
    fn per_ticket_usage_deltas_sum_to_backend_totals() {
        let service = BatchedLlm::start(BatchConfig::default());
        let mut alice = service.client(scripted(&["aaaa", "bb"]));
        let mut bob = service.client(scripted(&["cccccccc"]));
        alice.complete(&prompt()).unwrap();
        bob.complete(&prompt()).unwrap();
        alice.complete(&prompt()).unwrap();
        let models = service.stop();
        assert_eq!(models.len(), 2);
        // Session order == open order: alice first.
        assert_eq!(alice.usage(), models[0].usage(), "alice's deltas sum to her model's total");
        assert_eq!(bob.usage(), models[1].usage(), "bob's deltas sum to his model's total");
        assert_eq!(
            alice.usage() + bob.usage(),
            models[0].usage() + models[1].usage(),
            "handle attribution partitions the backend total"
        );
        assert_eq!(alice.usage().calls, 2);
        assert_eq!(bob.usage().calls, 1);
    }

    #[test]
    fn batched_session_matches_direct_service_byte_for_byte() {
        use uvllm_errgen::{mutate, ErrorKind};
        const SRC: &str = "module c(input clk, input rst_n, input en, output reg [3:0] q);\n\
                           always @(posedge clk or negedge rst_n) begin\n\
                           if (!rst_n) q <= 4'd0;\n\
                           else if (en) q <= q + 4'd1;\n\
                           end\nendmodule\n";
        let mutated = mutate(SRC, ErrorKind::OperatorMisuse, 7).unwrap();
        let oracle = |seed| {
            crate::OracleLlm::new(
                mutated.ground_truth.clone(),
                SRC,
                crate::ModelProfile::Gpt4Turbo,
                seed,
            )
        };
        let p = RepairPrompt::new(AgentRole::MismatchDebugger, "spec", &mutated.mutated_src);

        let mut direct = DirectService::new(oracle(3));
        let direct_contents: Vec<String> =
            (0..4).map(|_| direct.complete(&p).unwrap().content).collect();

        let service = BatchedLlm::start(BatchConfig::default());
        let mut client = service.client(oracle(3));
        let batched_contents: Vec<String> =
            (0..4).map(|_| client.complete(&p).unwrap().content).collect();

        assert_eq!(
            direct_contents, batched_contents,
            "a session sees its prompts in order: identical RNG stream"
        );
        assert_eq!(direct.usage(), client.usage());
    }

    /// A backend whose every call panics on the service thread.
    struct PanickingLlm;

    impl LanguageModel for PanickingLlm {
        fn name(&self) -> &str {
            "panicking"
        }

        fn complete(&mut self, _: &RepairPrompt) -> Result<Completion, LlmError> {
            panic!("model crashed on the service thread");
        }

        fn usage(&self) -> Usage {
            Usage::default()
        }
    }

    #[test]
    fn a_panicking_model_closes_the_waiting_call() {
        let service = BatchedLlm::start(BatchConfig {
            max_batch: 1,
            max_wait: Duration::from_secs(30),
            ..BatchConfig::default()
        });
        let mut client = service.client(PanickingLlm);
        let started = Instant::now();
        let result = client.complete(&prompt());
        assert!(matches!(result, Err(LlmError::ServiceClosed(_))), "got {result:?}");
        assert!(started.elapsed() < Duration::from_secs(10), "the caller must not hang");
        // The dead service rejects later calls too, and stops cleanly.
        assert!(matches!(client.complete(&prompt()), Err(LlmError::ServiceClosed(_))));
        assert!(service.stop().is_empty(), "the panicked thread returns no models");
    }

    #[test]
    fn slow_llm_pays_one_round_trip_per_prompt() {
        let rtt = Duration::from_millis(10);
        let mut slow = SlowLlm::new(scripted(&["a", "b", "c"]), rtt, endpoint_gate());
        let start = Instant::now();
        for _ in 0..3 {
            slow.complete(&prompt()).unwrap();
        }
        assert!(start.elapsed() >= rtt * 3, "per-prompt completion pays per-prompt round trips");
    }
}
