//! One scenario leg: what to run, for how long, and under which
//! supervision envelope.

/// A single entry of a scenario [`Catalog`](crate::Catalog): which
/// registered system to build, how many cycles to run it, and the
/// supervision envelope (checkpoint interval, watchdog deadline, retry
/// budget) the farm wraps around it.
///
/// The `inject_*` and `hang_ms` fields are deterministic *probe* hooks
/// for tests and CI smoke runs: they make a leg panic, stall, or abort
/// its whole worker process on purpose so the farm's isolation,
/// watchdog, and process-supervision paths are exercised on every run,
/// not only when something actually breaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Display name of the leg (unique within a catalog by convention).
    pub name: String,
    /// Key of the system factory in the [`Registry`](crate::Registry).
    pub system: String,
    /// Cycle budget, counted from the scenario's cold start. The leg is
    /// complete when the system reaches this cycle (or halts earlier).
    pub cycles: u64,
    /// Checkpoint interval in cycles. `Some(n)`: the worker snapshots
    /// the system every `n` cycles, so a retry resumes from the last
    /// snapshot instead of cold. `None`: retries restart cold.
    pub checkpoint_every: Option<u64>,
    /// Soft watchdog: host-time budget for one attempt of this leg,
    /// enforced *inside* the worker via
    /// [`StopCondition::wall_clock_every`](dmi_system::StopCondition::wall_clock_every).
    /// `None`: no per-attempt deadline (the supervisor's hard deadline,
    /// if any, still applies).
    pub deadline_ms: Option<u64>,
    /// How many times a failed attempt (panic or soft timeout) is
    /// retried before the leg is given up. `0` = one attempt only.
    pub retries: u32,
    /// Warm-start point: legs sharing a `system` key, this value and
    /// [`fault_injection`](Self::fault_injection) reuse one cached
    /// snapshot taken after `warm_cycles` cold cycles instead of each
    /// re-simulating the warmup prefix. The fault switch is part of the
    /// key because it is applied before the warmup runs.
    pub warm_cycles: Option<u64>,
    /// Path of an on-disk [`Snapshot`](dmi_kernel::Snapshot) file the
    /// leg starts from instead of a cold build — the file-based cousin
    /// of `warm_cycles` for prefixes exported by an earlier run
    /// (`McSystem::checkpoint().save(..)`). The snapshot must fit the
    /// leg's `system` topology; a missing or foreign file is a
    /// deterministic [`Failed`](crate::ScenarioOutcome::Failed) outcome,
    /// not a cold fallback (a leg silently fingerprinting differently
    /// from its catalog intent would be worse). Ignored on checkpoint
    /// resume (the mid-leg snapshot already embeds the prefix).
    pub warm_snapshot: Option<String>,
    /// Overrides the built system's fault-injection master switch
    /// (leaves the builder's setting alone when `None`).
    pub fault_injection: Option<bool>,
    /// Whether this leg is *expected* not to complete (probe legs:
    /// injected panics that exhaust retries, injected hangs). Used by
    /// the CLI to turn "the probe failed as designed" into a passing
    /// exit code.
    pub expect_failure: bool,
    /// Probe hook: on attempt 0, the worker panics once the system
    /// crosses this cycle (after exporting its checkpoint, so a retry
    /// resumes warm and the leg still produces its deterministic
    /// fingerprint).
    pub inject_panic_at: Option<u64>,
    /// Probe hook: every attempt sleeps this long at leg start before
    /// simulating — a stand-in for a genuinely stuck worker that never
    /// reaches the in-run watchdog, so the supervisor's hard deadline
    /// and worker-abandonment path can be tested deterministically.
    pub hang_ms: Option<u64>,
    /// Probe hook: on attempt 0, the worker calls
    /// [`std::process::abort`] once the system crosses this cycle
    /// (after exporting its checkpoint) — no unwind, no cleanup, the
    /// stand-in for an OOM kill or stack overflow. Only meaningful
    /// under [`Isolation::Process`](crate::Isolation::Process); in
    /// thread mode the abort takes the whole farm process with it,
    /// which is exactly the gap process isolation exists to close.
    pub inject_abort_at: Option<u64>,
}

impl ScenarioSpec {
    /// A spec with the given identity and cycle budget; every
    /// supervision knob at its default (no checkpoints, no deadline, no
    /// retries, no probes).
    pub fn new(name: impl Into<String>, system: impl Into<String>, cycles: u64) -> Self {
        ScenarioSpec {
            name: name.into(),
            system: system.into(),
            cycles,
            checkpoint_every: None,
            deadline_ms: None,
            retries: 0,
            warm_cycles: None,
            warm_snapshot: None,
            fault_injection: None,
            expect_failure: false,
            inject_panic_at: None,
            hang_ms: None,
            inject_abort_at: None,
        }
    }

    /// Sets the checkpoint interval (see
    /// [`checkpoint_every`](Self::checkpoint_every)).
    pub fn checkpoint(mut self, interval_cycles: u64) -> Self {
        self.checkpoint_every = Some(interval_cycles.max(1));
        self
    }

    /// Sets the per-attempt soft watchdog deadline in milliseconds.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the retry budget.
    pub fn retries(mut self, n: u32) -> Self {
        self.retries = n;
        self
    }

    /// Sets the warm-start point (see [`warm_cycles`](Self::warm_cycles)).
    pub fn warm(mut self, cycles: u64) -> Self {
        self.warm_cycles = Some(cycles);
        self
    }

    /// Starts the leg from an on-disk snapshot file (see
    /// [`warm_snapshot`](Self::warm_snapshot)).
    pub fn warm_snapshot(mut self, path: impl Into<String>) -> Self {
        self.warm_snapshot = Some(path.into());
        self
    }

    /// Overrides the fault-injection master switch for this leg.
    pub fn faults(mut self, on: bool) -> Self {
        self.fault_injection = Some(on);
        self
    }

    /// Marks the leg as an expected-failure probe.
    pub fn expect_failure(mut self) -> Self {
        self.expect_failure = true;
        self
    }

    /// Arms the injected-panic probe (see
    /// [`inject_panic_at`](Self::inject_panic_at)).
    pub fn inject_panic_at(mut self, cycle: u64) -> Self {
        self.inject_panic_at = Some(cycle);
        self
    }

    /// Arms the injected-hang probe (see [`hang_ms`](Self::hang_ms)).
    pub fn hang_ms(mut self, ms: u64) -> Self {
        self.hang_ms = Some(ms);
        self
    }

    /// Arms the injected-abort probe (see
    /// [`inject_abort_at`](Self::inject_abort_at)).
    pub fn inject_abort_at(mut self, cycle: u64) -> Self {
        self.inject_abort_at = Some(cycle);
        self
    }
}
