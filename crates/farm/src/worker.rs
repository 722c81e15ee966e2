//! Leg execution: one attempt of one scenario on one worker thread.
//!
//! A leg runs in checkpoint-interval slices so that (a) the latest
//! snapshot continuously escapes to the supervisor side of the
//! `catch_unwind` boundary — a panicking or soft-timed-out attempt
//! leaves a resume point behind — and (b) the soft watchdog re-arms
//! each slice with the remaining host-time budget. Slicing is
//! architecturally invisible: the simulation is cycle-driven, so
//! stopping and continuing at a cycle boundary replays bit-identically
//! to an uninterrupted run.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use dmi_kernel::{crc32, Snapshot};
use dmi_system::{McSystem, StopCause, StopCondition};

use crate::outcome::ScenarioOutcome;
use crate::registry::Registry;
use crate::spec::ScenarioSpec;

/// Shared warm-start snapshots, keyed by `(system key, warm_cycles,
/// fault_injection)`: the fault switch is applied before the warmup, so
/// legs that set it differently simulate different prefixes.
///
/// The lock is held *while warming*, deliberately: when M legs of the
/// same scenario family start together, exactly one pays for the warmup
/// prefix and the rest restore its snapshot, instead of M cold warmups
/// racing. Snapshots are stored as bytes (`Snapshot::to_bytes`) so the
/// cache is plain `Send` data.
///
/// Under process isolation the in-memory tier only spans one worker
/// process; [`in_dir`](Self::in_dir) adds a directory-backed tier so
/// sibling worker *processes* still share warm prefixes. Warmups are
/// deterministic, so two processes racing on the same key write
/// byte-identical files — the atomic rename makes the race harmless.
#[derive(Debug, Default)]
pub struct WarmCache {
    entries: Mutex<Vec<(WarmKey, Vec<u8>)>>,
    dir: Option<PathBuf>,
}

/// Cache key: system registry key, warm-prefix cycle count and the
/// leg's fault-injection override.
type WarmKey = (String, u64, Option<bool>);

impl WarmCache {
    /// An empty, in-memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that additionally spills warm snapshots to
    /// `dir` (and restores ones a sibling process already spilled).
    pub fn in_dir(dir: PathBuf) -> Self {
        WarmCache {
            entries: Mutex::new(Vec::new()),
            dir: Some(dir),
        }
    }

    /// Where a warm snapshot for `key` lives on disk, when a spill
    /// directory is configured.
    fn spill_path(&self, (system, warm, faults): &WarmKey) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        let faults = match faults {
            None => "",
            Some(true) => "-faults-on",
            Some(false) => "-faults-off",
        };
        let crc = crc32(system.as_bytes());
        Some(dir.join(format!("warm-{crc:08x}-{warm}{faults}.snap")))
    }

    /// Brings `sys` (already built for `spec`, its fault switch applied)
    /// to `warm` cycles: restores the cached snapshot if one exists
    /// (memory first, then the spill directory), otherwise simulates the
    /// warmup once and caches it in both tiers.
    fn warm_up(&self, sys: &mut McSystem, spec: &ScenarioSpec, warm: u64) {
        // A worker panic while holding the lock (it cannot happen here —
        // warming runs no probe hooks — but belt and braces) must not
        // wedge every later leg: take the data out of a poisoned lock.
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let key = (spec.system.clone(), warm, spec.fault_injection);
        if let Some((_, bytes)) = entries.iter().find(|(k, _)| *k == key) {
            if let Ok(snap) = Snapshot::from_bytes(bytes) {
                if sys.restore(&snap).is_ok() {
                    return;
                }
            }
            // Unusable cache entry (should not happen — same factory,
            // same topology): fall through and warm cold.
        }
        if let Some(path) = self.spill_path(&key) {
            if let Ok(snap) = Snapshot::load(&path) {
                if sys.restore(&snap).is_ok() {
                    entries.push((key, snap.to_bytes()));
                    return;
                }
            }
        }
        sys.run_until(&StopCondition::cycles(warm));
        let snap = sys.checkpoint();
        if let Some(path) = self.spill_path(&key) {
            let _ = write_snapshot_atomic(&path, &snap);
        }
        entries.push((key, snap.to_bytes()));
    }
}

/// Writes `snap` to `path` atomically: the bytes land in a `.tmp`
/// sibling first and are renamed into place, so a reader (another
/// worker process, a retry resuming from this checkpoint) either sees
/// the complete previous file or the complete new one — never a torn
/// half-write, even if this process is SIGKILLed mid-write.
pub(crate) fn write_snapshot_atomic(path: &Path, snap: &Snapshot) -> std::io::Result<()> {
    // The tmp name carries the pid so two processes racing on the same
    // key never interleave writes into one tmp file; last rename wins
    // with a complete file either way.
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, snap.to_bytes())?;
    std::fs::rename(&tmp, path)
}

/// The deterministic identity of a finished leg: CRC-32 over the full
/// architectural snapshot. Wall time, host-side caches and the counters
/// of those caches and of the kernel's fast paths never enter a
/// snapshot, so this is bit-stable across cold, warm-started and
/// crash-resumed executions of the same scenario, on either kernel path.
pub fn leg_fingerprint(sys: &mut McSystem) -> u32 {
    crc32(&sys.checkpoint().to_bytes())
}

/// Runs one attempt of `spec` to completion, soft timeout, or injected
/// panic.
///
/// `resume` is the snapshot a previous attempt exported; `export`
/// continuously receives the newest `(absolute cycle, checkpoint)` so
/// it survives this attempt's unwinding (thread mode stashes it in
/// memory; process mode writes it straight to the leg's checkpoint
/// file, where it even survives the worker being SIGKILLed). Panics are
/// *not* caught here — the worker loop wraps this call in
/// `catch_unwind`.
pub(crate) fn run_leg(
    registry: &Registry,
    spec: &ScenarioSpec,
    attempt: u32,
    resume: Option<&Snapshot>,
    warm: &WarmCache,
    watchdog_poll: u64,
    export: &mut dyn FnMut(u64, Snapshot),
) -> ScenarioOutcome {
    if let Some(ms) = spec.hang_ms {
        // Probe: pretend to be a stuck worker (see ScenarioSpec::hang_ms).
        std::thread::sleep(Duration::from_millis(ms));
    }

    let Some(factory) = registry.get(&spec.system) else {
        return ScenarioOutcome::Failed {
            message: format!("unknown system '{}'", spec.system),
        };
    };
    let mut sys = match factory().build() {
        Ok(sys) => sys,
        Err(e) => {
            return ScenarioOutcome::Failed {
                message: format!("build failed: {e}"),
            }
        }
    };
    if let Some(on) = spec.fault_injection {
        sys.set_fault_injection(on);
    }

    match resume {
        Some(snap) => {
            if sys.restore(snap).is_err() {
                // A stale or foreign snapshot cannot poison the leg:
                // fall back to a cold start (still deterministic, just
                // slower).
                sys = match factory().build() {
                    Ok(sys) => sys,
                    Err(e) => {
                        return ScenarioOutcome::Failed {
                            message: format!("rebuild failed: {e}"),
                        }
                    }
                };
                if let Some(on) = spec.fault_injection {
                    sys.set_fault_injection(on);
                }
            }
        }
        None => {
            if let Some(path) = &spec.warm_snapshot {
                // A broken warm_snapshot is a deterministic catalog
                // error, not a retry or cold-fallback candidate: a leg
                // that silently ran cold would fingerprint differently
                // from what the catalog asked for.
                let snap = match Snapshot::load(Path::new(path)) {
                    Ok(snap) => snap,
                    Err(e) => {
                        return ScenarioOutcome::Failed {
                            message: format!("warm snapshot {path}: {e}"),
                        }
                    }
                };
                if sys.restore(&snap).is_err() {
                    return ScenarioOutcome::Failed {
                        message: format!(
                            "warm snapshot {path} does not fit system '{}'",
                            spec.system
                        ),
                    };
                }
            } else if let Some(w) = spec.warm_cycles {
                if w > 0 && w < spec.cycles {
                    warm.warm_up(&mut sys, spec, w);
                }
            }
        }
    }

    // The soft watchdog budgets *host* time for the whole attempt, so
    // the deadline has to be read against a wall-clock start.
    #[allow(clippy::disallowed_methods)]
    let started = spec.deadline_ms.map(|ms| {
        (std::time::Instant::now(), Duration::from_millis(ms))
    });

    let target = spec.cycles;
    let mut cause = StopCause::CycleBudget;
    loop {
        let done = sys.total_cycles();
        if done >= target {
            break;
        }
        let remaining = target - done;
        let step = match spec.checkpoint_every {
            Some(ck) => ck.max(1).min(remaining),
            None => remaining,
        };
        let mut cond = StopCondition::cycles(step);
        if let Some((t0, budget)) = started {
            let left = budget.saturating_sub(t0.elapsed());
            if left.is_zero() {
                return ScenarioOutcome::TimedOut { hard: false };
            }
            cond = cond.or(StopCondition::wall_clock_every(left, watchdog_poll));
        }
        let report = sys.run_until(&cond);
        match report.cause {
            StopCause::WallClock => return ScenarioOutcome::TimedOut { hard: false },
            StopCause::CycleBudget => {}
            // AllHalted (scenario finished early), a deterministic fault
            // escalation, or a component error: the leg is over — the
            // fingerprint captures whatever state it ended in.
            other => {
                cause = other;
                if spec.checkpoint_every.is_some() {
                    export(sys.total_cycles(), sys.checkpoint());
                }
                break;
            }
        }
        if spec.checkpoint_every.is_some() {
            export(sys.total_cycles(), sys.checkpoint());
        }
        if attempt == 0 && spec.inject_abort_at.is_some_and(|p| sys.total_cycles() >= p) {
            // Probe: die the way an OOM-killed worker dies — no unwind,
            // no cleanup, nothing flushed beyond the checkpoint just
            // exported. Under process isolation this takes down only
            // this worker; the supervisor sees the pipe close and
            // retries the leg from the exported checkpoint file.
            std::process::abort();
        }
        if attempt == 0 && spec.inject_panic_at.is_some_and(|p| sys.total_cycles() >= p) {
            // Probe: blow up the first attempt *after* the checkpoint
            // export, so the retry resumes warm and still reproduces
            // the uninterrupted fingerprint.
            panic!(
                "injected panic at cycle {} (scenario '{}', attempt 0)",
                sys.total_cycles(),
                spec.name
            );
        }
    }

    let cycles = sys.total_cycles();
    ScenarioOutcome::Completed {
        fingerprint: leg_fingerprint(&mut sys),
        cycles,
        cause: format!("{cause:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_names_carry_the_fault_switch() {
        let cache = WarmCache::in_dir(PathBuf::from("spill"));
        let [builder, on, off] = [None, Some(true), Some(false)]
            .map(|faults| cache.spill_path(&("gsm".to_string(), 500, faults)).unwrap());
        assert_ne!(builder, on);
        assert_ne!(builder, off);
        assert_ne!(on, off);
    }
}
