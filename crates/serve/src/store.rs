//! The leasable job store: submitted runs split into shards, shards
//! leased to workers under deadlines, expired leases reclaimed and
//! re-granted (work stealing).
//!
//! Epoch fencing makes stealing safe without distributed locks: every
//! grant carries the shard's current epoch, and heartbeat/complete
//! calls quoting a stale epoch are refused (`LeaseLost` → HTTP 409).
//! A `complete` with the *matching* epoch is accepted even past the
//! deadline — the rows are already on disk and byte-identical to what
//! any other worker would produce, so late completion loses nothing.
//!
//! The store is write-ahead journaled: every transition is appended to
//! `data_dir/journal.jsonl` (see [`crate::journal`]) *before* the
//! in-memory state mutates, and the journal is periodically compacted
//! into `store.snapshot.json`. [`JobStore::open`] replays both on
//! boot (see [`crate::recovery`]), so runs survive server crashes the
//! same way they already survive worker crashes. The journal lives
//! inside the state mutex — journal order *is* state-mutation order.
//!
//! Leases are granted round-robin across active runs: the scan starts
//! at the run after the previously granted one, so two concurrent
//! campaigns interleave rather than the first submitted starving the
//! second.

use crate::http;
use crate::journal::{Event, Journal, JournalConfig};
use crate::recovery::{self, RecoveryReport, RunImage, ShardImage, ShardPhase, StoreImage};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};
use uvllm_campaign::MethodKind;
use uvllm_json::{s, Json};
use uvllm_sim::SimBackend;

/// Registry handles for the store (`serve.*`), resolved once.
#[derive(Debug)]
struct StoreMetrics {
    jobs_submitted: &'static uvllm_obs::Counter,
    leases_granted: &'static uvllm_obs::Counter,
    leases_expired: &'static uvllm_obs::Counter,
    leases_stolen: &'static uvllm_obs::Counter,
    heartbeats: &'static uvllm_obs::Counter,
}

fn metrics() -> &'static StoreMetrics {
    static METRICS: std::sync::OnceLock<StoreMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| StoreMetrics {
        jobs_submitted: uvllm_obs::registry().counter("serve.jobs_submitted"),
        leases_granted: uvllm_obs::registry().counter("serve.leases.granted"),
        leases_expired: uvllm_obs::registry().counter("serve.leases.expired"),
        leases_stolen: uvllm_obs::registry().counter("serve.leases.stolen"),
        heartbeats: uvllm_obs::registry().counter("serve.heartbeats"),
    })
}

/// What a submitted run evaluates — the wire form of the deterministic
/// subset of [`uvllm_campaign::CampaignConfig`]. Every field feeds the
/// row byte-identity contract, so the server hands the *same* spec to
/// every worker that leases one of the run's shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Benchmark instances to build.
    pub size: usize,
    /// Dataset seed.
    pub seed: u64,
    /// Methods to evaluate on every instance.
    pub methods: Vec<MethodKind>,
    /// Simulation kernel.
    pub backend: SimBackend,
    /// Netlist optimization level (0–3).
    pub opt_level: u8,
    /// How many shards the job space is split into.
    pub shards: usize,
    /// Lease duration granted per shard.
    pub lease: Duration,
}

impl RunSpec {
    /// Decodes a submission body. Every member except `size` has a
    /// default; `seed` accepts a hex string (`"0x42"`) or a number —
    /// the hex-string form is canonical because f64 JSON numbers lose
    /// precision above 2^53.
    ///
    /// # Errors
    ///
    /// Names the offending member.
    pub fn from_json(json: &Json, default_lease: Duration) -> Result<RunSpec, String> {
        let size =
            json.get("size")
                .ok_or("submission missing member 'size'")?
                .as_u64()
                .ok_or("submission member 'size' must be a positive integer")? as usize;
        if size == 0 {
            return Err("submission member 'size' must be >= 1".to_string());
        }
        let seed = match json.get("seed") {
            None => 0xDA7A,
            Some(v) => parse_seed(v)?,
        };
        let methods = match json.get("methods") {
            None => MethodKind::ALL.to_vec(),
            Some(v) => {
                let arr = v
                    .as_array()
                    .ok_or("submission member 'methods' must be an array of method labels")?;
                let mut methods = Vec::with_capacity(arr.len());
                for item in arr {
                    let label =
                        item.as_str().ok_or("submission member 'methods' must contain strings")?;
                    methods.push(
                        MethodKind::from_label(label)
                            .ok_or_else(|| format!("unknown method label '{label}'"))?,
                    );
                }
                if methods.is_empty() {
                    return Err("submission member 'methods' must not be empty".to_string());
                }
                methods
            }
        };
        let backend = match json.get("backend") {
            None => SimBackend::default(),
            Some(v) => {
                let label =
                    v.as_str().ok_or("submission member 'backend' must be a string label")?;
                SimBackend::from_label(label)
                    .ok_or_else(|| format!("unknown backend label '{label}'"))?
            }
        };
        let opt_level = match json.get("opt_level") {
            None => 0,
            Some(v) => {
                let n = v
                    .as_u64()
                    .filter(|&n| n <= 3)
                    .ok_or("submission member 'opt_level' must be an integer 0..=3")?;
                n as u8
            }
        };
        let shards = match json.get("shards") {
            None => 1,
            Some(v) => v
                .as_u64()
                .filter(|&n| n >= 1)
                .ok_or("submission member 'shards' must be a positive integer")?
                as usize,
        };
        let lease = match json.get("lease_ms") {
            None => default_lease,
            Some(v) => Duration::from_millis(
                v.as_u64()
                    .filter(|&n| n >= 1)
                    .ok_or("submission member 'lease_ms' must be a positive integer")?,
            ),
        };
        Ok(RunSpec { size, seed, methods, backend, opt_level, shards, lease })
    }

    /// The wire form, round-trippable through [`RunSpec::from_json`].
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("size".to_string(), Json::Num(self.size as f64)),
            ("seed".to_string(), s(format!("0x{:X}", self.seed))),
            ("methods".to_string(), Json::Arr(self.methods.iter().map(|m| s(m.label())).collect())),
            ("backend".to_string(), s(self.backend.label())),
            ("opt_level".to_string(), Json::Num(self.opt_level as f64)),
            ("shards".to_string(), Json::Num(self.shards as f64)),
            ("lease_ms".to_string(), Json::Num(self.lease.as_millis() as f64)),
        ])
    }
}

fn parse_seed(v: &Json) -> Result<u64, String> {
    if let Some(text) = v.as_str() {
        let digits = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")).unwrap_or(text);
        return u64::from_str_radix(digits, 16)
            .map_err(|_| format!("submission member 'seed' has a bad hex value '{text}'"));
    }
    v.as_u64().ok_or_else(|| {
        "submission member 'seed' must be a hex string like \"0xDA7A\" or an integer".to_string()
    })
}

/// Where one shard stands in its lifecycle.
#[derive(Debug, Clone)]
enum ShardState {
    /// Never leased, or reclaimed and waiting for the next worker.
    Pending,
    /// Leased to `worker` until `deadline`; only calls quoting `epoch`
    /// touch it.
    Leased { worker: String, epoch: u64, deadline: Instant },
    /// Completed by `worker`.
    Done { worker: String },
}

#[derive(Debug)]
struct Shard {
    state: ShardState,
    /// The fencing token: bumped on every grant, so a reclaimed shard's
    /// previous holder can no longer heartbeat or complete it.
    epoch: u64,
    /// How many times an expired lease on this shard was re-granted.
    steals: u64,
    /// The JSONL sink every holder appends to. Append-only + resume
    /// protocol means a second holder continues where the corpse left
    /// off, skipping completed rows.
    sink: PathBuf,
    /// Last worker-pushed progress (heartbeat `rows_done`) — fresher
    /// than the aggregator's sink poll, purely informational.
    rows_done: u64,
}

#[derive(Debug)]
struct Run {
    id: String,
    spec: RunSpec,
    shards: Vec<Shard>,
}

impl Run {
    /// Rehydrates a recovered run. Recovery has already expired every
    /// lease, so a leased image phase cannot occur; map it to pending
    /// defensively rather than trusting a deadline from a dead process.
    fn from_image(image: RunImage) -> Run {
        let shards = image
            .shards
            .into_iter()
            .map(|shard| Shard {
                state: match shard.phase {
                    ShardPhase::Pending | ShardPhase::Leased { .. } => ShardState::Pending,
                    ShardPhase::Done { worker } => ShardState::Done { worker },
                },
                epoch: shard.epoch,
                steals: shard.steals,
                sink: shard.sink,
                rows_done: shard.rows_done,
            })
            .collect();
        Run { id: image.id, spec: image.spec, shards }
    }

    fn to_image(&self) -> RunImage {
        let shards = self
            .shards
            .iter()
            .map(|shard| ShardImage {
                phase: match &shard.state {
                    ShardState::Pending => ShardPhase::Pending,
                    ShardState::Leased { worker, .. } => {
                        ShardPhase::Leased { worker: worker.clone() }
                    }
                    ShardState::Done { worker } => ShardPhase::Done { worker: worker.clone() },
                },
                epoch: shard.epoch,
                steals: shard.steals,
                sink: shard.sink.clone(),
                rows_done: shard.rows_done,
            })
            .collect();
        RunImage { id: self.id.clone(), spec: self.spec.clone(), shards }
    }
}

/// One granted lease, everything a worker needs to run the shard.
#[derive(Debug, Clone)]
pub struct LeaseGrant {
    pub run: String,
    pub shard: usize,
    pub epoch: u64,
    /// True when this grant reclaimed an expired lease from another
    /// worker.
    pub stolen: bool,
    pub lease: Duration,
    pub sink: PathBuf,
    pub spec: RunSpec,
}

impl LeaseGrant {
    /// The wire form handed to workers.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("run".to_string(), s(self.run.clone())),
            ("shard".to_string(), Json::Num(self.shard as f64)),
            ("epoch".to_string(), Json::Num(self.epoch as f64)),
            ("stolen".to_string(), Json::Bool(self.stolen)),
            ("lease_ms".to_string(), Json::Num(self.lease.as_millis() as f64)),
            ("sink".to_string(), s(self.sink.display().to_string())),
            ("config".to_string(), self.spec.to_json()),
        ])
    }

    /// Decodes a grant on the worker side.
    ///
    /// # Errors
    ///
    /// Names the missing or malformed member.
    pub fn from_json(json: &Json) -> Result<LeaseGrant, String> {
        let run =
            json.get("run").and_then(Json::as_str).ok_or("grant missing member 'run'")?.to_string();
        let shard =
            json.get("shard").and_then(Json::as_u64).ok_or("grant missing member 'shard'")?
                as usize;
        let epoch =
            json.get("epoch").and_then(Json::as_u64).ok_or("grant missing member 'epoch'")?;
        let stolen = json.get("stolen").and_then(Json::as_bool).unwrap_or(false);
        let lease = Duration::from_millis(
            json.get("lease_ms").and_then(Json::as_u64).ok_or("grant missing member 'lease_ms'")?,
        );
        let sink = PathBuf::from(
            json.get("sink").and_then(Json::as_str).ok_or("grant missing member 'sink'")?,
        );
        let spec =
            RunSpec::from_json(json.get("config").ok_or("grant missing member 'config'")?, lease)?;
        Ok(LeaseGrant { run, shard, epoch, stolen, lease, sink, spec })
    }
}

/// What `POST /lease` answers.
#[derive(Debug)]
pub enum LeaseOutcome {
    /// Work to do.
    Granted(Box<LeaseGrant>),
    /// Nothing pending right now — poll again.
    Empty,
    /// The server is draining; workers should exit.
    Draining,
    /// The journal append failed, so no lease was granted — the state
    /// transition would not have survived a crash (HTTP 500).
    Error(String),
}

/// Why a heartbeat/complete was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseError {
    /// No such run id (HTTP 404).
    UnknownRun,
    /// Shard index out of range (HTTP 404).
    UnknownShard,
    /// The quoted epoch is stale: the lease expired and was re-granted,
    /// or the shard was completed by someone else (HTTP 409).
    LeaseLost,
    /// The journal append failed, so the transition was refused (HTTP
    /// 500). Write-ahead discipline: never mutate what you cannot
    /// replay.
    Internal(String),
}

/// A summary row for `GET /runs/<id>`.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    pub shard: usize,
    /// `"pending" | "leased" | "done"`.
    pub state: &'static str,
    /// Current or completing worker, if any.
    pub worker: Option<String>,
    pub steals: u64,
    /// Last worker-pushed progress for this shard.
    pub rows_done: u64,
}

/// Everything under the store mutex. The journal lives here so record
/// order is exactly state-mutation order — no torn interleavings.
#[derive(Debug)]
struct StoreInner {
    runs: Vec<Run>,
    journal: Journal,
    /// Round-robin cursor: index of the run the next lease scan starts
    /// at, advanced past each run that grants.
    cursor: usize,
}

/// The resident store behind the HTTP surface. All mutation goes
/// through one mutex — the unit of work is a whole campaign shard, so
/// store contention is noise.
#[derive(Debug)]
pub struct JobStore {
    data_dir: PathBuf,
    default_lease: Duration,
    inner: Mutex<StoreInner>,
    draining: AtomicBool,
}

/// Process-wide run counter: parallel servers in one test binary must
/// not collide on per-run metric names or data directories.
static NEXT_RUN: AtomicU64 = AtomicU64::new(1);

impl JobStore {
    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens the store on `data_dir`, recovering whatever a previous
    /// process left there: snapshot + journal replay, sink-backed runs
    /// rehydrated, in-flight leases expired with bumped epochs. A
    /// fresh directory recovers to an empty store with an empty
    /// report.
    ///
    /// # Errors
    ///
    /// Directory-creation and journal I/O failures (corruption is a
    /// report diagnostic, not an error).
    pub fn open(
        data_dir: impl Into<PathBuf>,
        default_lease: Duration,
        config: JournalConfig,
    ) -> std::io::Result<(JobStore, RecoveryReport)> {
        let data_dir = data_dir.into();
        std::fs::create_dir_all(&data_dir)?;
        let recovered = recovery::recover(&data_dir)?;
        // Run ids must clear every recovered id; the counter is
        // process-global, so only ratchet it forward.
        NEXT_RUN.fetch_max(recovered.image.max_run_number() + 1, Ordering::SeqCst);
        let journal =
            Journal::open(&data_dir, config, recovered.image.seq + 1, recovered.journal_records)?;
        let runs = recovered.image.runs.into_iter().map(Run::from_image).collect();
        let store = JobStore {
            data_dir,
            default_lease,
            inner: Mutex::new(StoreInner { runs, journal, cursor: 0 }),
            draining: AtomicBool::new(false),
        };
        Ok((store, recovered.report))
    }

    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    pub fn default_lease(&self) -> Duration {
        self.default_lease
    }

    /// Compacts when the journal has grown past its threshold: write
    /// the full image as `store.snapshot.json`, then truncate the
    /// journal. Called with the lock held, after a successful append.
    /// A failed compaction is non-fatal — the journal just keeps
    /// growing and the next transition retries.
    fn maybe_compact(inner: &mut StoreInner, data_dir: &Path) {
        if !inner.journal.wants_compaction() {
            return;
        }
        let image = StoreImage {
            seq: inner.journal.next_seq() - 1,
            runs: inner.runs.iter().map(Run::to_image).collect(),
        };
        if let Err(e) = recovery::write_snapshot(data_dir, &image) {
            eprintln!("serve: snapshot write failed ({e}); journal keeps growing");
            return;
        }
        if let Err(e) = inner.journal.truncate() {
            eprintln!("serve: journal truncate after snapshot failed ({e})");
        }
    }

    /// Registers a run and creates its shard-sink directory. Returns
    /// the run id.
    ///
    /// # Errors
    ///
    /// Directory-creation and journal failures.
    pub fn submit(&self, spec: RunSpec) -> std::io::Result<String> {
        let id = format!("run-{}", NEXT_RUN.fetch_add(1, Ordering::SeqCst));
        let dir = self.data_dir.join(&id);
        std::fs::create_dir_all(&dir)?;
        let shards = (0..spec.shards)
            .map(|i| Shard {
                state: ShardState::Pending,
                epoch: 0,
                steals: 0,
                sink: dir.join(format!("shard-{i}.jsonl")),
                rows_done: 0,
            })
            .collect();
        let mut inner = self.lock();
        inner.journal.append(&Event::Submit { run: id.clone(), spec: spec.clone() })?;
        inner.runs.push(Run { id: id.clone(), spec, shards });
        Self::maybe_compact(&mut inner, &self.data_dir);
        drop(inner);
        metrics().jobs_submitted.inc();
        Ok(id)
    }

    /// Grants an available shard, scanning runs round-robin from the
    /// cursor so concurrent runs interleave: pending shards first
    /// within a run, then expired leases (reclaimed, epoch bumped,
    /// marked stolen).
    pub fn lease(&self, worker: &str) -> LeaseOutcome {
        if self.draining.load(Ordering::SeqCst) {
            return LeaseOutcome::Draining;
        }
        let now = Instant::now();
        let mut guard = self.lock();
        let inner = &mut *guard;
        let count = inner.runs.len();
        for offset in 0..count {
            let run_index = (inner.cursor + offset) % count;
            let run = &inner.runs[run_index];
            let candidate =
                run.shards.iter().enumerate().find_map(|(i, shard)| match &shard.state {
                    ShardState::Pending => Some((i, false)),
                    ShardState::Leased { deadline, .. } if *deadline <= now => Some((i, true)),
                    _ => None,
                });
            let Some((shard_index, stolen)) = candidate else { continue };
            let epoch = run.shards[shard_index].epoch + 1;
            let event = Event::Lease {
                run: run.id.clone(),
                shard: shard_index,
                epoch,
                worker: worker.to_string(),
                stolen,
            };
            if let Err(e) = inner.journal.append(&event) {
                return LeaseOutcome::Error(format!("journal append failed: {e}"));
            }
            let run = &mut inner.runs[run_index];
            let shard = &mut run.shards[shard_index];
            if stolen {
                metrics().leases_expired.inc();
                metrics().leases_stolen.inc();
                shard.steals += 1;
            }
            shard.epoch = epoch;
            shard.state = ShardState::Leased {
                worker: worker.to_string(),
                epoch,
                deadline: now + run.spec.lease,
            };
            metrics().leases_granted.inc();
            let grant = LeaseGrant {
                run: run.id.clone(),
                shard: shard_index,
                epoch,
                stolen,
                lease: run.spec.lease,
                sink: shard.sink.clone(),
                spec: run.spec.clone(),
            };
            inner.cursor = (run_index + 1) % count;
            Self::maybe_compact(inner, &self.data_dir);
            return LeaseOutcome::Granted(Box::new(grant));
        }
        LeaseOutcome::Empty
    }

    /// Extends a live lease's deadline and records the worker's pushed
    /// progress (`rows_done`).
    ///
    /// # Errors
    ///
    /// [`LeaseError`] for unknown runs/shards, stale epochs, and
    /// journal failures.
    pub fn heartbeat(
        &self,
        run: &str,
        shard: usize,
        epoch: u64,
        rows_done: u64,
    ) -> Result<(), LeaseError> {
        let now = Instant::now();
        let mut guard = self.lock();
        let inner = &mut *guard;
        let index = inner.runs.iter().position(|r| r.id == run).ok_or(LeaseError::UnknownRun)?;
        let lease = inner.runs[index].spec.lease;
        match inner.runs[index].shards.get(shard).ok_or(LeaseError::UnknownShard)?.state {
            ShardState::Leased { epoch: held, .. } if held == epoch => {}
            _ => return Err(LeaseError::LeaseLost),
        }
        inner
            .journal
            .append(&Event::Heartbeat { run: run.to_string(), shard, epoch, rows_done })
            .map_err(|e| LeaseError::Internal(format!("journal append failed: {e}")))?;
        let state = &mut inner.runs[index].shards[shard];
        if let ShardState::Leased { deadline, .. } = &mut state.state {
            *deadline = now + lease;
        }
        state.rows_done = rows_done;
        Self::maybe_compact(inner, &self.data_dir);
        metrics().heartbeats.inc();
        Ok(())
    }

    /// Marks a shard done. Accepted on a matching epoch even past the
    /// deadline — as long as nobody re-leased it, the rows on disk are
    /// complete and the late worker's work stands. When the last shard
    /// completes, a `finish` record is journaled for the audit trail.
    ///
    /// # Errors
    ///
    /// [`LeaseError`] for unknown runs/shards, stale epochs, and
    /// journal failures.
    pub fn complete(&self, run: &str, shard: usize, epoch: u64) -> Result<(), LeaseError> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let index = inner.runs.iter().position(|r| r.id == run).ok_or(LeaseError::UnknownRun)?;
        let worker =
            match &inner.runs[index].shards.get(shard).ok_or(LeaseError::UnknownShard)?.state {
                ShardState::Leased { epoch: held, worker, .. } if *held == epoch => worker.clone(),
                _ => return Err(LeaseError::LeaseLost),
            };
        inner
            .journal
            .append(&Event::Complete { run: run.to_string(), shard, epoch, worker: worker.clone() })
            .map_err(|e| LeaseError::Internal(format!("journal append failed: {e}")))?;
        inner.runs[index].shards[shard].state = ShardState::Done { worker };
        if inner.runs[index].shards.iter().all(|s| matches!(s.state, ShardState::Done { .. })) {
            // Derived state; losing this append loses only an audit
            // record, so it doesn't fail the complete.
            let _ = inner.journal.append(&Event::Finish { run: run.to_string() });
        }
        Self::maybe_compact(inner, &self.data_dir);
        Ok(())
    }

    /// Stops granting leases; `POST /lease` answers `410 Gone`.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// True once no shard holds an unexpired lease — in-flight workers
    /// have either completed or run out their deadlines, so shutdown
    /// can proceed to the final aggregation pass.
    pub fn drained(&self) -> bool {
        let now = Instant::now();
        self.lock().runs.iter().all(|run| {
            run.shards.iter().all(|shard| match &shard.state {
                ShardState::Leased { deadline, .. } => *deadline <= now,
                _ => true,
            })
        })
    }

    /// The spec a run was submitted with, if the run exists.
    pub fn spec(&self, run: &str) -> Option<RunSpec> {
        self.lock().runs.iter().find(|r| r.id == run).map(|r| r.spec.clone())
    }

    /// Shard sink paths for a run, in shard order.
    pub fn sinks(&self, run: &str) -> Option<Vec<PathBuf>> {
        self.lock()
            .runs
            .iter()
            .find(|r| r.id == run)
            .map(|r| r.shards.iter().map(|s| s.sink.clone()).collect())
    }

    /// All run ids, submission order.
    pub fn run_ids(&self) -> Vec<String> {
        self.lock().runs.iter().map(|r| r.id.clone()).collect()
    }

    /// Per-shard status rows plus "all shards done".
    pub fn status(&self, run: &str) -> Option<(Vec<ShardStatus>, bool)> {
        let inner = self.lock();
        let run = inner.runs.iter().find(|r| r.id == run)?;
        let rows: Vec<ShardStatus> = run
            .shards
            .iter()
            .enumerate()
            .map(|(shard, state)| {
                let (label, worker) = match &state.state {
                    ShardState::Pending => ("pending", None),
                    ShardState::Leased { worker, .. } => ("leased", Some(worker.clone())),
                    ShardState::Done { worker } => ("done", Some(worker.clone())),
                };
                ShardStatus {
                    shard,
                    state: label,
                    worker,
                    steals: state.steals,
                    rows_done: state.rows_done,
                }
            })
            .collect();
        let done = rows.iter().all(|r| r.state == "done");
        Some((rows, done))
    }
}

/// Client-side helper: one JSON round trip against a serve endpoint.
///
/// # Errors
///
/// Transport errors only, as messages naming the call.
pub fn post_json(addr: &str, path: &str, body: &Json) -> Result<(u16, Json), String> {
    let (status, text) = http::request(addr, "POST", path, &body.render())?;
    // Error statuses carry text/plain diagnostics, not JSON — the
    // status code is the protocol, so an unparseable body degrades to
    // its raw text instead of masquerading as a transport failure.
    let json =
        if text.is_empty() { Json::Null } else { Json::parse(&text).unwrap_or(Json::Str(text)) };
    Ok((status, json))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JOURNAL_FILE;
    use crate::recovery::SNAPSHOT_FILE;

    fn spec(shards: usize, lease: Duration) -> RunSpec {
        RunSpec {
            size: 2,
            seed: 0x42,
            methods: vec![MethodKind::Strider],
            backend: SimBackend::default(),
            opt_level: 0,
            shards,
            lease,
        }
    }

    fn store_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("uvllm-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store_at(dir: &Path, lease: Duration) -> (JobStore, RecoveryReport) {
        JobStore::open(dir, lease, JournalConfig::default()).unwrap()
    }

    fn store(name: &str, lease: Duration) -> JobStore {
        store_at(&store_dir(name), lease).0
    }

    fn grant(store: &JobStore, worker: &str) -> LeaseGrant {
        match store.lease(worker) {
            LeaseOutcome::Granted(g) => *g,
            other => panic!("expected grant, got {other:?}"),
        }
    }

    #[test]
    fn spec_json_round_trips_with_hex_seed() {
        let original = RunSpec {
            size: 331,
            // Above 2^53: the f64 number path would corrupt this.
            seed: 0xDEAD_BEEF_CAFE_F00D,
            methods: vec![MethodKind::Uvllm, MethodKind::Meic],
            backend: SimBackend::EventDriven,
            opt_level: 2,
            shards: 4,
            lease: Duration::from_secs(30),
        };
        let json = original.to_json();
        assert!(json.render().contains("\"0xDEADBEEFCAFEF00D\""));
        let decoded = RunSpec::from_json(&json, Duration::from_secs(1)).unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn spec_defaults_and_errors() {
        let json = Json::parse("{\"size\": 4}").unwrap();
        let spec = RunSpec::from_json(&json, Duration::from_secs(7)).unwrap();
        assert_eq!(spec.size, 4);
        assert_eq!(spec.seed, 0xDA7A);
        assert_eq!(spec.methods, MethodKind::ALL.to_vec());
        assert_eq!(spec.shards, 1);
        assert_eq!(spec.lease, Duration::from_secs(7));
        // Submissions naming the retired compiled kernel still replay.
        let legacy = Json::parse("{\"size\": 4, \"backend\": \"compiled\"}").unwrap();
        let spec = RunSpec::from_json(&legacy, Duration::from_secs(7)).unwrap();
        assert_eq!(spec.backend, SimBackend::EventDriven);

        let err = |text: &str| {
            RunSpec::from_json(&Json::parse(text).unwrap(), Duration::from_secs(1)).unwrap_err()
        };
        assert!(err("{}").contains("'size'"));
        assert!(err("{\"size\": 1, \"methods\": [\"nope\"]}").contains("'nope'"));
        assert!(err("{\"size\": 1, \"backend\": \"warp\"}").contains("'warp'"));
        assert!(err("{\"size\": 1, \"opt_level\": 9}").contains("'opt_level'"));
        assert!(err("{\"size\": 1, \"seed\": \"0xZZ\"}").contains("'0xZZ'"));
        // A zero lease would expire every grant the instant it is made.
        assert!(err("{\"size\": 1, \"lease_ms\": 0}").contains("'lease_ms'"));
    }

    #[test]
    fn leases_grant_heartbeat_and_complete() {
        let store = store("basic", Duration::from_secs(60));
        let run = store.submit(spec(2, Duration::from_secs(60))).unwrap();
        let grant_a = grant(&store, "a");
        assert_eq!(grant_a.run, run);
        assert_eq!(grant_a.shard, 0);
        assert!(!grant_a.stolen);
        let grant_b = grant(&store, "b");
        assert_eq!(grant_b.shard, 1);
        assert!(matches!(store.lease("c"), LeaseOutcome::Empty));

        store.heartbeat(&run, 0, grant_a.epoch, 1).unwrap();
        store.complete(&run, 0, grant_a.epoch).unwrap();
        store.complete(&run, 1, grant_b.epoch).unwrap();
        let (rows, done) = store.status(&run).unwrap();
        assert!(done);
        assert_eq!(rows[0].worker.as_deref(), Some("a"));
        assert_eq!(rows[0].rows_done, 1, "heartbeat progress sticks");
        assert_eq!(rows[1].worker.as_deref(), Some("b"));

        assert_eq!(store.heartbeat("run-none", 0, 1, 0), Err(LeaseError::UnknownRun));
        assert_eq!(store.heartbeat(&run, 9, 1, 0), Err(LeaseError::UnknownShard));
        assert_eq!(store.complete(&run, 0, grant_a.epoch), Err(LeaseError::LeaseLost));
    }

    #[test]
    fn expired_leases_are_stolen_and_fenced() {
        let store = store("steal", Duration::from_millis(20));
        let run = store.submit(spec(1, Duration::from_millis(20))).unwrap();
        let dead = grant(&store, "dead");
        // Not yet expired: nothing to steal.
        assert!(matches!(store.lease("thief"), LeaseOutcome::Empty));
        std::thread::sleep(Duration::from_millis(30));
        let stolen = grant(&store, "thief");
        assert!(stolen.stolen);
        assert_eq!(stolen.shard, dead.shard);
        assert!(stolen.epoch > dead.epoch);
        assert_eq!(stolen.sink, dead.sink, "the thief resumes the same sink");
        // The corpse's epoch is fenced out of both verbs.
        assert_eq!(store.heartbeat(&run, 0, dead.epoch, 0), Err(LeaseError::LeaseLost));
        assert_eq!(store.complete(&run, 0, dead.epoch), Err(LeaseError::LeaseLost));
        // The thief finishes normally.
        store.complete(&run, 0, stolen.epoch).unwrap();
        let (rows, done) = store.status(&run).unwrap();
        assert!(done);
        assert_eq!(rows[0].steals, 1);
        assert_eq!(rows[0].worker.as_deref(), Some("thief"));
    }

    #[test]
    fn late_complete_on_matching_epoch_is_accepted() {
        let store = store("late", Duration::from_millis(10));
        let run = store.submit(spec(1, Duration::from_millis(10))).unwrap();
        let g = grant(&store, "slow");
        std::thread::sleep(Duration::from_millis(20));
        // Expired but not re-leased: the work is done, accept it.
        store.complete(&run, 0, g.epoch).unwrap();
        let (_, done) = store.status(&run).unwrap();
        assert!(done);
    }

    #[test]
    fn drain_refuses_new_leases_and_reports_quiescence() {
        let store = store("drain", Duration::from_millis(20));
        let run = store.submit(spec(1, Duration::from_millis(20))).unwrap();
        let g = grant(&store, "w");
        store.drain();
        assert!(matches!(store.lease("w2"), LeaseOutcome::Draining));
        assert!(!store.drained(), "a live lease blocks quiescence");
        store.complete(&run, 0, g.epoch).unwrap();
        assert!(store.drained());
    }

    #[test]
    fn two_runs_interleave_grants_round_robin() {
        let store = store("fairness", Duration::from_secs(60));
        let first = store.submit(spec(3, Duration::from_secs(60))).unwrap();
        let second = store.submit(spec(3, Duration::from_secs(60))).unwrap();
        // Strict run-then-shard order would grant all of `first`
        // before any of `second`; the round-robin cursor alternates.
        let order: Vec<String> = (0..6).map(|i| grant(&store, &format!("w{i}")).run).collect();
        assert_eq!(
            order,
            vec![first.clone(), second.clone(), first.clone(), second.clone(), first, second],
            "grants must interleave the two runs"
        );
    }

    #[test]
    fn reopened_store_recovers_runs_and_fences_dead_leases() {
        let dir = store_dir("reopen");
        let lease = Duration::from_secs(60);
        let (run, done_grant, live_grant) = {
            let (store, report) = store_at(&dir, lease);
            assert!(!report.recovered_state(), "fresh directory");
            let run = store.submit(spec(2, lease)).unwrap();
            let a = grant(&store, "a");
            store.heartbeat(&run, a.shard, a.epoch, 2).unwrap();
            store.complete(&run, a.shard, a.epoch).unwrap();
            let b = grant(&store, "b");
            (run, a, b)
            // The store drops here with shard 1 leased — the "crash".
        };
        let (store, report) = store_at(&dir, lease);
        assert!(report.recovered_state());
        assert_eq!(report.runs, 1);
        assert_eq!(report.leases_expired, 1);
        assert!(report.records_replayed >= 5, "{report:?}");
        assert_eq!(store.run_ids(), vec![run.clone()]);
        assert_eq!(store.spec(&run).unwrap(), spec(2, lease));

        let (rows, done) = store.status(&run).unwrap();
        assert!(!done);
        assert_eq!(rows[0].state, "done");
        assert_eq!(rows[0].worker.as_deref(), Some("a"));
        assert_eq!(rows[0].rows_done, 2, "pushed progress survives the crash");
        assert_eq!(rows[1].state, "pending", "the in-flight lease expired");

        // The pre-crash holder is fenced out…
        assert_eq!(
            store.heartbeat(&run, live_grant.shard, live_grant.epoch, 0),
            Err(LeaseError::LeaseLost)
        );
        assert_eq!(
            store.complete(&run, done_grant.shard, done_grant.epoch),
            Err(LeaseError::LeaseLost)
        );
        // …and the shard re-grants to a reconnecting worker.
        let retry = grant(&store, "b2");
        assert_eq!(retry.shard, live_grant.shard);
        assert!(retry.epoch > live_grant.epoch, "epoch bumped past the dead lease");
        assert_eq!(retry.sink, live_grant.sink, "same sink — resume, don't redo");
        store.complete(&run, retry.shard, retry.epoch).unwrap();
        assert!(store.status(&run).unwrap().1);
    }

    #[test]
    fn compaction_snapshots_and_truncates_then_recovers() {
        let dir = store_dir("compact");
        let lease = Duration::from_secs(60);
        let run = {
            let config = JournalConfig { compact_every: 4, ..JournalConfig::default() };
            let (store, _) = JobStore::open(&dir, lease, config).unwrap();
            let run = store.submit(spec(2, lease)).unwrap();
            let a = grant(&store, "a");
            let b = grant(&store, "b");
            // 4 records so far → this complete triggers compaction.
            store.complete(&run, a.shard, a.epoch).unwrap();
            store.complete(&run, b.shard, b.epoch).unwrap();
            run
        };
        assert!(dir.join(SNAPSHOT_FILE).exists(), "compaction wrote the checkpoint");
        let journal_len = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        // The tail past the last compaction is short; the bulk was
        // folded into the snapshot.
        let (store, report) = store_at(&dir, lease);
        assert!(report.recovered_state());
        assert!(report.snapshot_seq >= 4, "{report:?}");
        assert!(
            report.records_replayed <= 2,
            "replay is bounded by the snapshot: {report:?} (journal {journal_len}B)"
        );
        let (rows, done) = store.status(&run).unwrap();
        assert!(done, "{rows:?}");
    }

    #[test]
    fn grant_json_round_trips() {
        let grant = LeaseGrant {
            run: "run-9".to_string(),
            shard: 1,
            epoch: 3,
            stolen: true,
            lease: Duration::from_millis(750),
            sink: PathBuf::from("/tmp/run-9/shard-1.jsonl"),
            spec: spec(2, Duration::from_millis(750)),
        };
        let decoded = LeaseGrant::from_json(&grant.to_json()).unwrap();
        assert_eq!(decoded.run, grant.run);
        assert_eq!(decoded.shard, grant.shard);
        assert_eq!(decoded.epoch, grant.epoch);
        assert!(decoded.stolen);
        assert_eq!(decoded.lease, grant.lease);
        assert_eq!(decoded.sink, grant.sink);
        assert_eq!(decoded.spec, grant.spec);
    }
}
