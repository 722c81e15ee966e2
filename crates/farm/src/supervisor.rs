//! The farm supervisor: M workers (threads or child processes), one
//! dispatcher, typed failure handling.
//!
//! Supervision model:
//!
//! * every leg runs on a worker inside `catch_unwind` — a panicking
//!   scenario is converted to a typed outcome and the worker survives
//!   to take the next job;
//! * under [`Isolation::Process`] each worker is a child process; a
//!   worker that aborts, is SIGKILLed, OOM-killed, or tears its result
//!   pipe mid-frame becomes a typed
//!   [`ScenarioOutcome::WorkerDied`] instead of taking the farm down,
//!   and the pool respawns a replacement with bounded respawn-storm
//!   throttling;
//! * a failed attempt (panic, soft watchdog timeout, or worker death)
//!   is retried with capped exponential backoff, resuming from the
//!   newest checkpoint the attempt exported — across the unwind
//!   boundary in thread mode, via an on-disk checkpoint file in
//!   process mode (where it survives even SIGKILL);
//! * a worker that stops responding entirely (it never reaches the
//!   in-run watchdog) is *abandoned* at the supervisor's hard deadline:
//!   its thread is detached (or its process killed), a replacement is
//!   spawned, and any result the zombie later produces is recognized by
//!   its stale job id and dropped;
//! * completed legs are durably journaled (when a journal is
//!   configured) before the next job is dispatched, so a killed farm
//!   process resumes by skipping exactly the finished legs.

// The supervisor's scheduling (backoff expiry, hard deadlines, respawn
// throttling) is host-time by nature; this is the sanctioned wall-clock
// site of the crate, next to the watchdogs in `worker.rs`.
#![allow(clippy::disallowed_methods)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dmi_kernel::Snapshot;

use crate::catalog::Catalog;
use crate::journal::{Journal, JournalError};
use crate::outcome::{LegResult, ScenarioOutcome};
use crate::proc::{spawn_process, ProcWorker, ScratchDir, WireJob};
use crate::registry::Registry;
use crate::spec::ScenarioSpec;
use crate::worker::{run_leg, WarmCache};

/// How worker failures are contained: by unwind boundary or by process
/// boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Isolation {
    /// Workers are threads of the farm process (the default). Panics
    /// and watchdog timeouts are isolated; an abort, stack overflow, or
    /// OOM kill still takes the whole farm down.
    Thread,
    /// Workers are child processes speaking the CRC-framed pipe
    /// protocol (see `crates/farm/README.md`). Any single-worker death
    /// — abort, SIGKILL, OOM kill, torn pipe — becomes a typed
    /// [`ScenarioOutcome::WorkerDied`] and the leg is retried from its
    /// last exported checkpoint file. Requires the spawned binary to
    /// call [`worker_entry_from_env`](crate::worker_entry_from_env)
    /// before writing anything to stdout.
    Process {
        /// Number of worker processes in the pool.
        pool_size: usize,
    },
}

/// How a farm run is supervised.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Worker thread count under [`Isolation::Thread`]. `0` is refused
    /// as [`FarmError::NoWorkers`].
    pub workers: usize,
    /// Journal file for crash-safe resume; `None` = in-memory only.
    pub journal: Option<PathBuf>,
    /// Hard per-attempt deadline: a worker that has not reported for
    /// this long is abandoned and replaced. Should comfortably exceed
    /// every leg's soft `deadline_ms`. `None` = never abandon.
    pub hard_deadline: Option<Duration>,
    /// Poll granularity (cycles) for the legs' soft wall-clock
    /// watchdogs — how much simulation a leg may overshoot its deadline
    /// by. See [`StopCondition::wall_clock_every`](dmi_system::StopCondition::wall_clock_every).
    pub watchdog_poll: u64,
    /// Base retry backoff; retry `n` waits `backoff << (n-1)`, capped.
    /// Also throttles process-worker respawns after consecutive deaths.
    pub backoff: Duration,
    /// Upper bound on the retry (and respawn) backoff.
    pub backoff_cap: Duration,
    /// Thread or process workers; see [`Isolation`].
    pub isolation: Isolation,
    /// Program + arguments to spawn as a worker process (`None`:
    /// re-exec [`std::env::current_exe`] with no arguments). Only used
    /// under [`Isolation::Process`]. The binary must call
    /// [`worker_entry_from_env`](crate::worker_entry_from_env) first
    /// thing in `main`.
    pub worker_command: Option<Vec<String>>,
    /// Cap on total worker-process deaths in one farm run before the
    /// run itself fails as [`FarmError::RespawnStorm`] — the backstop
    /// against an environment (broken worker binary, hostile OOM
    /// killer) where respawned workers just keep dying.
    pub respawn_limit: u32,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            workers: 2,
            journal: None,
            hard_deadline: None,
            watchdog_poll: dmi_system::DEFAULT_POLL_CYCLES,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            isolation: Isolation::Thread,
            worker_command: None,
            respawn_limit: 64,
        }
    }
}

impl FarmConfig {
    /// Sets the isolation mode (builder style).
    pub fn isolation(mut self, isolation: Isolation) -> Self {
        self.isolation = isolation;
        self
    }

    /// The effective pool size for the configured isolation mode.
    fn pool_size(&self) -> usize {
        match self.isolation {
            Isolation::Thread => self.workers,
            Isolation::Process { pool_size } => pool_size,
        }
    }
}

/// Why a farm run could not execute at all (individual leg failures are
/// *outcomes*, not errors).
#[derive(Debug)]
pub enum FarmError {
    /// The journal could not be opened or written.
    Journal(JournalError),
    /// Every worker disappeared with legs still outstanding (a farm
    /// bug by construction — workers survive scenario panics).
    WorkersLost,
    /// The configured pool size is zero: the run could never make
    /// progress, and silently hanging on an empty pool would be worse.
    NoWorkers,
    /// A worker process could not be spawned.
    Spawn(std::io::Error),
    /// Worker processes died more than
    /// [`respawn_limit`](FarmConfig::respawn_limit) times in one run —
    /// the environment is eating workers faster than respawning them
    /// can help.
    RespawnStorm {
        /// Worker deaths counted when the run gave up.
        deaths: u32,
    },
}

impl std::fmt::Display for FarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarmError::Journal(e) => write!(f, "farm journal: {e}"),
            FarmError::WorkersLost => write!(f, "all farm workers lost"),
            FarmError::NoWorkers => write!(f, "farm configured with zero workers"),
            FarmError::Spawn(e) => write!(f, "cannot spawn worker process: {e}"),
            FarmError::RespawnStorm { deaths } => {
                write!(f, "respawn storm: {deaths} worker deaths in one run")
            }
        }
    }
}

impl std::error::Error for FarmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FarmError::Journal(e) => Some(e),
            FarmError::Spawn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JournalError> for FarmError {
    fn from(e: JournalError) -> Self {
        FarmError::Journal(e)
    }
}

/// What a farm run produced.
#[derive(Debug, Clone)]
pub struct FarmReport {
    /// One final result per catalog leg, in catalog order.
    pub legs: Vec<LegResult>,
    /// Legs adopted from the journal of an interrupted earlier run.
    pub skipped: usize,
    /// Retry attempts dispatched (across all legs).
    pub retried: u32,
    /// Workers abandoned at the hard deadline.
    pub abandoned: u32,
    /// Worker processes that died mid-run (always 0 in thread mode).
    pub worker_deaths: u32,
}

impl FarmReport {
    /// Whether every leg matched its catalog expectation
    /// (`expect_failure` probes count as matched when they fail).
    pub fn all_expected(&self, catalog: &Catalog) -> bool {
        self.legs
            .iter()
            .zip(&catalog.scenarios)
            .all(|(leg, spec)| leg.matches_expectation(spec.expect_failure))
    }

    /// Multi-line human rendering, one leg per line.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for leg in &self.legs {
            let adopted = if leg.adopted { " [journaled]" } else { "" };
            out.push_str(&format!(
                "{:24} attempts={} {}{}\n",
                leg.name,
                leg.attempts,
                leg.outcome.brief(),
                adopted
            ));
        }
        out.push_str(&format!(
            "{} legs ({} resumed from journal), {} retries, {} workers abandoned, \
             {} worker deaths\n",
            self.legs.len(),
            self.skipped,
            self.retried,
            self.abandoned,
            self.worker_deaths
        ));
        out
    }
}

/// Where a retried attempt resumes from.
enum ResumeFrom {
    /// An in-memory snapshot exported across the unwind boundary
    /// (thread mode).
    Memory(Snapshot),
    /// A checkpoint file a (possibly dead) worker process exported
    /// (process mode).
    File(PathBuf),
}

/// One dispatched attempt.
struct Job {
    job_id: u64,
    leg: u32,
    attempt: u32,
    spec: ScenarioSpec,
    resume: Option<ResumeFrom>,
}

/// What a worker sends back.
pub(crate) struct WorkerMsg {
    pub(crate) worker: u64,
    pub(crate) job_id: u64,
    pub(crate) leg: u32,
    pub(crate) attempt: u32,
    pub(crate) outcome: ScenarioOutcome,
    /// Thread mode: the newest checkpoint, exported in memory.
    pub(crate) checkpoint: Option<(u64, Snapshot)>,
    /// Process mode: the cycle of the newest checkpoint the attempt
    /// exported to its leg's checkpoint file.
    pub(crate) file_checkpoint: Option<u64>,
}

/// Everything the supervisor can hear back.
pub(crate) enum SupMsg {
    /// A worker finished an attempt.
    Result(WorkerMsg),
    /// A worker process died or tore its pipe (reported by its reader
    /// thread; never sent in thread mode).
    Died {
        /// Id of the dead worker's slot.
        worker: u64,
    },
}

enum Backend {
    Thread {
        sender: Sender<Job>,
        handle: Option<JoinHandle<()>>,
    },
    Process(ProcWorker),
}

struct WorkerSlot {
    id: u64,
    backend: Backend,
    inflight: Option<InFlight>,
}

struct InFlight {
    job_id: u64,
    leg: u32,
    attempt: u32,
    /// The leg's spec: the retry job and the final result are built
    /// from it.
    spec: ScenarioSpec,
    started: Instant,
}

/// Count of panics the farm has converted to typed outcomes in this
/// process — lets tests assert isolation actually happened.
static PANICS_CAUGHT: AtomicU32 = AtomicU32::new(0);

/// Panics caught (process-wide) by farm workers so far.
pub fn panics_caught() -> u32 {
    PANICS_CAUGHT.load(Ordering::Relaxed)
}

pub(crate) fn note_panic_caught() {
    PANICS_CAUGHT.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

fn spawn_thread_worker(
    id: u64,
    registry: Arc<Registry>,
    warm: Arc<WarmCache>,
    watchdog_poll: u64,
    results: Sender<SupMsg>,
) -> WorkerSlot {
    let (tx, rx): (Sender<Job>, Receiver<Job>) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(format!("farm-worker-{id}"))
        .spawn(move || {
            while let Ok(job) = rx.recv() {
                let mut export: Option<(u64, Snapshot)> = None;
                let outcome = match catch_unwind(AssertUnwindSafe(|| {
                    let resume = match &job.resume {
                        Some(ResumeFrom::Memory(snap)) => Some(snap.clone()),
                        // Thread dispatch never builds File resumes, but
                        // honoring one is harmless and keeps the enum
                        // total.
                        Some(ResumeFrom::File(path)) => Snapshot::load(path).ok(),
                        None => None,
                    };
                    run_leg(
                        &registry,
                        &job.spec,
                        job.attempt,
                        resume.as_ref(),
                        &warm,
                        watchdog_poll,
                        &mut |cycle, snap| export = Some((cycle, snap)),
                    )
                })) {
                    Ok(outcome) => outcome,
                    Err(payload) => {
                        note_panic_caught();
                        ScenarioOutcome::Panicked {
                            message: panic_message(payload),
                        }
                    }
                };
                let msg = WorkerMsg {
                    worker: id,
                    job_id: job.job_id,
                    leg: job.leg,
                    attempt: job.attempt,
                    outcome,
                    checkpoint: export,
                    file_checkpoint: None,
                };
                if results.send(SupMsg::Result(msg)).is_err() {
                    break; // supervisor gone
                }
            }
        })
        .expect("spawn farm worker");
    WorkerSlot {
        id,
        backend: Backend::Thread {
            sender: tx,
            handle: Some(handle),
        },
        inflight: None,
    }
}

fn backoff_delay(cfg: &FarmConfig, attempt_done: u32) -> Duration {
    // attempt_done = the attempt index that just failed (0-based);
    // retry n backs off base << n, capped.
    let shift = attempt_done.min(16);
    let d = cfg
        .backoff
        .checked_mul(1u32 << shift)
        .unwrap_or(cfg.backoff_cap);
    d.min(cfg.backoff_cap)
}

/// Respawn throttle: the first death in a streak respawns immediately,
/// every further consecutive death doubles the delay, capped — so a
/// single SIGKILL costs nothing, while a storm (every respawned worker
/// dying again) backs off instead of burning the host on exec loops.
fn respawn_delay(cfg: &FarmConfig, consecutive_deaths: u32) -> Duration {
    if consecutive_deaths <= 1 {
        Duration::ZERO
    } else {
        backoff_delay(cfg, consecutive_deaths - 2)
    }
}

/// Shuts a worker down (thread: close channel + join; process: kill +
/// reap + join reader) and returns the death signal for process
/// workers, if any.
fn shutdown_slot(slot: &mut WorkerSlot) -> Option<i32> {
    match &mut slot.backend {
        Backend::Thread { sender, handle } => {
            let (dead_tx, _) = mpsc::channel();
            *sender = dead_tx; // drop the real sender
            if let Some(handle) = handle.take() {
                let _ = handle.join();
            }
            None
        }
        Backend::Process(proc) => proc.shutdown(),
    }
}

/// Runs every leg of `catalog` over the configured worker pool.
///
/// Returns one [`LegResult`] per leg, in catalog order, regardless of
/// completion order. Individual leg failures (panics, timeouts, build
/// errors, worker-process deaths) are data in the report; only
/// infrastructure failures (the journal, total worker loss, respawn
/// storms) are `Err`.
///
/// # Errors
///
/// See [`FarmError`].
pub fn run_farm(
    catalog: &Catalog,
    registry: Arc<Registry>,
    cfg: &FarmConfig,
) -> Result<FarmReport, FarmError> {
    let n = catalog.len();
    let mut finals: Vec<Option<LegResult>> = vec![None; n];
    let mut skipped = 0usize;

    let mut journal = match &cfg.journal {
        Some(path) => Some(Journal::open(path, catalog.crc(), n)?),
        None => None,
    };
    // Legs still to run, in catalog order; the journal's completed legs
    // are adopted instead.
    let mut fresh: VecDeque<u32> = VecDeque::with_capacity(n);
    for (i, spec) in catalog.scenarios.iter().enumerate() {
        match journal.as_ref().and_then(|j| j.completed(i)) {
            Some((attempts, outcome)) => {
                finals[i] = Some(LegResult {
                    leg: i as u32,
                    name: spec.name.clone(),
                    attempts: *attempts,
                    outcome: outcome.clone(),
                    adopted: true,
                });
                skipped += 1;
            }
            None => fresh.push_back(i as u32),
        }
    }

    let pool = cfg.pool_size();
    if pool == 0 {
        return Err(FarmError::NoWorkers);
    }
    let process_mode = matches!(cfg.isolation, Isolation::Process { .. });
    let scratch = if process_mode {
        Some(ScratchDir::create().map_err(FarmError::Spawn)?)
    } else {
        None
    };

    let warm = Arc::new(WarmCache::new());
    let (results_tx, results_rx) = mpsc::channel::<SupMsg>();
    let mut next_worker_id = 0u64;
    let spawn_slot = |next_worker_id: &mut u64| -> Result<WorkerSlot, FarmError> {
        let id = *next_worker_id;
        *next_worker_id += 1;
        if process_mode {
            let proc = spawn_process(id, cfg.worker_command.as_ref(), results_tx.clone())
                .map_err(FarmError::Spawn)?;
            Ok(WorkerSlot {
                id,
                backend: Backend::Process(proc),
                inflight: None,
            })
        } else {
            Ok(spawn_thread_worker(
                id,
                Arc::clone(&registry),
                Arc::clone(&warm),
                cfg.watchdog_poll,
                results_tx.clone(),
            ))
        }
    };

    let mut workers: Vec<WorkerSlot> = Vec::with_capacity(pool);
    let mut spawn_err = None;
    for _ in 0..pool {
        match spawn_slot(&mut next_worker_id) {
            Ok(slot) => workers.push(slot),
            Err(e) => {
                spawn_err = Some(e);
                break;
            }
        }
    }

    let mut pending: VecDeque<Job> = VecDeque::new();
    let mut delayed: Vec<(Instant, Job)> = Vec::new();
    let mut respawns_due: Vec<Instant> = Vec::new();
    let mut next_job_id = 0u64;
    let mut retried = 0u32;
    let mut abandoned = 0u32;
    let mut worker_deaths = 0u32;
    let mut consecutive_deaths = 0u32;

    // The loop body runs inside a closure so every early error return
    // still flows through the shutdown below — in process mode an
    // abandoned run must not leak live children.
    let mut body = || -> Result<(), FarmError> {
        if let Some(e) = spawn_err.take() {
            return Err(e);
        }
        loop {
            let now = Instant::now();

            // Promote backoff-expired retries.
            let mut i = 0;
            while i < delayed.len() {
                if delayed[i].0 <= now {
                    pending.push_back(delayed.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }

            // Spawn throttled replacement workers whose delay expired.
            let mut i = 0;
            while i < respawns_due.len() {
                if respawns_due[i] <= now {
                    respawns_due.swap_remove(i);
                    workers.push(spawn_slot(&mut next_worker_id)?);
                } else {
                    i += 1;
                }
            }

            // Dispatch to idle workers: queued retries first, then
            // fresh legs in catalog order.
            for slot in workers.iter_mut() {
                if slot.inflight.is_some() {
                    continue;
                }
                let job = match pending.pop_front() {
                    Some(job) => job,
                    None => {
                        let Some(leg) = fresh.pop_front() else { break };
                        let job = Job {
                            job_id: next_job_id,
                            leg,
                            attempt: 0,
                            spec: catalog.scenarios[leg as usize].clone(),
                            resume: None,
                        };
                        next_job_id += 1;
                        job
                    }
                };
                slot.inflight = Some(InFlight {
                    job_id: job.job_id,
                    leg: job.leg,
                    attempt: job.attempt,
                    spec: job.spec.clone(),
                    started: now,
                });
                match &mut slot.backend {
                    Backend::Thread { sender, .. } => {
                        if sender.send(job).is_err() {
                            // Worker thread gone (cannot normally
                            // happen): a farm bug, not a leg outcome.
                            return Err(FarmError::WorkersLost);
                        }
                    }
                    Backend::Process(proc) => {
                        let wire = WireJob {
                            job_id: job.job_id,
                            leg: job.leg,
                            attempt: job.attempt,
                            watchdog_poll: cfg.watchdog_poll,
                            resume_path: match &job.resume {
                                Some(ResumeFrom::File(path)) => Some(path.clone()),
                                // Memory resumes cannot cross the
                                // process boundary; process-mode retries
                                // are built as File resumes.
                                _ => None,
                            },
                            ckpt_path: job
                                .spec
                                .checkpoint_every
                                .and(scratch.as_ref().map(|s| s.ckpt_path(job.leg))),
                            warm_dir: scratch.as_ref().map(|s| s.warm_dir()),
                            spec: job.spec,
                        };
                        // A failed write means the worker is dying; its
                        // reader thread will report the death and the
                        // in-flight bookkeeping retries the leg then.
                        let _ = proc.send(&wire);
                    }
                }
            }

            // Abandon workers past the hard deadline.
            if let Some(hd) = cfg.hard_deadline {
                let mut idx = 0;
                while idx < workers.len() {
                    let expired = workers[idx]
                        .inflight
                        .as_ref()
                        .is_some_and(|f| now.duration_since(f.started) >= hd);
                    if !expired {
                        idx += 1;
                        continue;
                    }
                    let mut slot = workers.swap_remove(idx);
                    let inflight = slot.inflight.take().expect("expired implies inflight");
                    match &mut slot.backend {
                        // Detach the zombie thread: dropping the handle
                        // without a join lets the hung thread die with
                        // the process; dropping its sender means it
                        // finds a closed channel if it ever finishes.
                        Backend::Thread { handle, .. } => drop(handle.take()),
                        // A hung process can actually be killed. Its
                        // reader thread sends a Died for the stale slot
                        // id, which lands in the ignore path below.
                        Backend::Process(proc) => {
                            let _ = proc.shutdown();
                        }
                    }
                    abandoned += 1;
                    workers.push(spawn_slot(&mut next_worker_id)?);

                    let attempts_used = inflight.attempt + 1;
                    if attempts_used > inflight.spec.retries {
                        finalize(
                            &mut finals,
                            &mut journal,
                            inflight.leg,
                            &inflight.spec.name,
                            attempts_used,
                            ScenarioOutcome::TimedOut { hard: true },
                        )?;
                    } else {
                        // Thread mode: the checkpoint is trapped in the
                        // zombie thread — retry cold. Process mode: the
                        // dead worker's exports survive on disk.
                        retried += 1;
                        delayed.push((
                            now + backoff_delay(cfg, inflight.attempt),
                            Job {
                                job_id: next_job_id,
                                leg: inflight.leg,
                                attempt: inflight.attempt + 1,
                                resume: file_resume(scratch.as_ref(), inflight.leg),
                                spec: inflight.spec,
                            },
                        ));
                        next_job_id += 1;
                    }
                }
            }

            let inflight_any = workers.iter().any(|w| w.inflight.is_some());
            if fresh.is_empty() && !inflight_any && pending.is_empty() && delayed.is_empty() {
                return Ok(());
            }

            let msg = match results_rx.recv_timeout(Duration::from_millis(10)) {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return Err(FarmError::WorkersLost),
            };

            match msg {
                SupMsg::Result(msg) => {
                    consecutive_deaths = 0;
                    // Stale results from abandoned workers carry a job
                    // id no live slot is waiting for — drop them.
                    let Some(slot) = workers.iter_mut().find(|w| {
                        w.id == msg.worker
                            && w.inflight.as_ref().is_some_and(|f| f.job_id == msg.job_id)
                    }) else {
                        continue;
                    };
                    let inflight = slot.inflight.take().expect("matched on inflight");

                    let attempts_used = msg.attempt + 1;
                    if msg.outcome.is_success()
                        || matches!(msg.outcome, ScenarioOutcome::Failed { .. })
                        || attempts_used > inflight.spec.retries
                    {
                        // Success, a deterministic build failure
                        // (retrying cannot help), or retry budget
                        // exhausted: final.
                        finalize(
                            &mut finals,
                            &mut journal,
                            msg.leg,
                            &inflight.spec.name,
                            attempts_used,
                            msg.outcome,
                        )?;
                    } else {
                        retried += 1;
                        let resume = match msg.checkpoint {
                            Some((_, snap)) => Some(ResumeFrom::Memory(snap)),
                            None if msg.file_checkpoint.is_some() => {
                                file_resume(scratch.as_ref(), msg.leg)
                            }
                            None => None,
                        };
                        delayed.push((
                            Instant::now() + backoff_delay(cfg, msg.attempt),
                            Job {
                                job_id: next_job_id,
                                leg: msg.leg,
                                attempt: msg.attempt + 1,
                                spec: inflight.spec,
                                resume,
                            },
                        ));
                        next_job_id += 1;
                    }
                }
                SupMsg::Died { worker } => {
                    // A Died for a slot we already removed (abandoned at
                    // the hard deadline, or shut down) is stale.
                    let Some(pos) = workers.iter().position(|w| w.id == worker) else {
                        continue;
                    };
                    let mut slot = workers.swap_remove(pos);
                    worker_deaths += 1;
                    consecutive_deaths += 1;
                    let signal = shutdown_slot(&mut slot);
                    if worker_deaths > cfg.respawn_limit {
                        return Err(FarmError::RespawnStorm {
                            deaths: worker_deaths,
                        });
                    }
                    respawns_due.push(now + respawn_delay(cfg, consecutive_deaths));

                    if let Some(inflight) = slot.inflight.take() {
                        let attempts_used = inflight.attempt + 1;
                        if attempts_used > inflight.spec.retries {
                            finalize(
                                &mut finals,
                                &mut journal,
                                inflight.leg,
                                &inflight.spec.name,
                                attempts_used,
                                ScenarioOutcome::WorkerDied {
                                    signal,
                                    attempt: inflight.attempt,
                                },
                            )?;
                        } else {
                            // The dead worker's checkpoint file (if it
                            // exported one before dying) survives the
                            // kill: the retry resumes from it and still
                            // lands on the bit-identical fingerprint.
                            retried += 1;
                            delayed.push((
                                now + backoff_delay(cfg, inflight.attempt),
                                Job {
                                    job_id: next_job_id,
                                    leg: inflight.leg,
                                    attempt: inflight.attempt + 1,
                                    resume: file_resume(scratch.as_ref(), inflight.leg),
                                    spec: inflight.spec,
                                },
                            ));
                            next_job_id += 1;
                        }
                    }
                }
            }
        }
    };
    let outcome = body();

    // Orderly shutdown — also the cleanup path for every error return.
    for slot in &mut workers {
        shutdown_slot(slot);
    }
    drop(scratch);
    outcome?;

    Ok(FarmReport {
        legs: finals.into_iter().flatten().collect(),
        skipped,
        retried,
        abandoned,
        worker_deaths,
    })
}

/// A `ResumeFrom::File` pointing at the leg's checkpoint file, if the
/// (possibly SIGKILLed) previous attempt managed to export one.
fn file_resume(scratch: Option<&ScratchDir>, leg: u32) -> Option<ResumeFrom> {
    let path = scratch?.ckpt_path(leg);
    path.exists().then_some(ResumeFrom::File(path))
}

/// Journals (when configured) and records one leg's final result.
fn finalize(
    finals: &mut [Option<LegResult>],
    journal: &mut Option<Journal>,
    leg: u32,
    name: &str,
    attempts: u32,
    outcome: ScenarioOutcome,
) -> Result<(), FarmError> {
    if let Some(j) = journal {
        j.record(leg as usize, attempts, &outcome)?;
    }
    finals[leg as usize] = Some(LegResult {
        leg,
        name: name.to_string(),
        attempts,
        outcome,
        adopted: false,
    });
    Ok(())
}
