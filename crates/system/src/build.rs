//! The built system and its execution surface: running to a typed stop
//! condition, state capture and restore, post-run inspection.

use std::time::Instant;

use dmi_core::{FaultHook, MemoryModule, StaticTableMemory, WrapperBackend};
use dmi_interconnect::{BusStats, Crossbar, MasterProbe, MasterStats, Region, SharedBus};
use dmi_iss::CpuComponent;
use dmi_kernel::{
    ComponentId, FastPathStats, KernelStats, SimTime, Simulator, Snapshot, SnapshotError,
    StateReader, StateWriter,
};

use crate::builder::{CpuHandle, MasterHandle, MemHandle};
use crate::report::{CpuReport, MasterReport, MemReport, RunReport};
use crate::run_ctl::{FaultReport, StopCause, StopCondition};

/// Builder-recorded identity of one non-CPU bus master.
#[derive(Debug)]
pub(crate) struct MasterInfo {
    /// Instance name (`"dma0"`, …).
    pub name: String,
    /// Kind label from the [`BusMaster`](dmi_interconnect::BusMaster)
    /// spec.
    pub kind: &'static str,
    /// The built component.
    pub id: ComponentId,
    /// Stats probe over the type-erased component.
    pub probe: MasterProbe,
}

/// A built co-simulated MPSoC, ready to run.
///
/// Construct it with [`SystemBuilder`](crate::SystemBuilder). Run it
/// with [`run`](Self::run) or [`run_until`](Self::run_until); observe it
/// mid-run with [`report_now`](Self::report_now) and
/// [`watch_value`](Self::watch_value).
///
/// # Examples
///
/// ```
/// use dmi_sw::{workloads, WorkloadCfg};
/// use dmi_system::{mem_base, CpuSpec, MemSpec, SystemBuilder};
///
/// let cfg = WorkloadCfg {
///     mem_base: mem_base(0),
///     iterations: 5,
///     ..WorkloadCfg::default()
/// };
/// let mut b = SystemBuilder::new();
/// b.add_cpu(CpuSpec::new(workloads::alloc_churn(&cfg)));
/// b.add_memory(MemSpec::wrapper(mem_base(0)));
/// let mut system = b.build().expect("valid system");
/// let report = system.run(1_000_000);
/// assert!(report.all_ok());
/// ```
#[derive(Debug)]
pub struct McSystem {
    sim: Simulator,
    clock_period: u64,
    cpu_ids: Vec<ComponentId>,
    masters: Vec<MasterInfo>,
    mem_ids: Vec<ComponentId>,
    mem_kinds: Vec<&'static str>,
    mem_regions: Vec<Region>,
    bus_id: ComponentId,
    crossbar: bool,
    /// Shared fault controller, when the builder wired a fault plan
    /// (`None` for fault-free systems — also the source of the report's
    /// injection counters).
    fault_hook: Option<FaultHook>,
    /// Simulated time when the current observation epoch started (the
    /// last `run`/`run_until` call; snapshots report cycles since then).
    epoch: SimTime,
    /// Kernel stats at the epoch start.
    epoch_stats: KernelStats,
    /// Kernel fast-path counters at the epoch start.
    epoch_fast: FastPathStats,
    /// Most recent periodic checkpoint:
    /// `(cycles into the run when taken, snapshot)`. Maintained by
    /// [`run_until`](Self::run_until) under
    /// [`StopCondition::checkpoint_every`].
    last_checkpoint: Option<(u64, Snapshot)>,
    /// The system graph lowered from the builder description at build
    /// time; [`analyze`](Self::analyze) answers from it without ever
    /// touching the simulator.
    graph: dmi_analyze::SystemGraph,
}

impl McSystem {
    /// Assembles the struct from builder output (crate-internal; the
    /// public constructor is `SystemBuilder::build`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        sim: Simulator,
        clock_period: u64,
        cpu_ids: Vec<ComponentId>,
        masters: Vec<MasterInfo>,
        mem_ids: Vec<ComponentId>,
        mem_kinds: Vec<&'static str>,
        mem_regions: Vec<Region>,
        bus_id: ComponentId,
        crossbar: bool,
        fault_hook: Option<FaultHook>,
        graph: dmi_analyze::SystemGraph,
    ) -> Self {
        let epoch = sim.time();
        let epoch_stats = sim.stats();
        let epoch_fast = sim.fast_path_stats();
        McSystem {
            sim,
            clock_period,
            cpu_ids,
            masters,
            mem_ids,
            mem_kinds,
            mem_regions,
            bus_id,
            crossbar,
            fault_hook,
            epoch,
            epoch_stats,
            epoch_fast,
            last_checkpoint: None,
            graph,
        }
    }

    /// Statically analyzes the built system: runs the `dmi-analyze`
    /// pass pipeline over the graph captured at build time. Inert by
    /// construction — the simulator is never touched, so calling this
    /// before (or between) runs leaves every cycle bit-identical.
    pub fn analyze(&self) -> dmi_analyze::AnalysisReport {
        dmi_analyze::analyze(&self.graph)
    }

    /// Runs until every CPU halts (and every master finishes) or
    /// `max_cycles` clock cycles elapse, and collects the full report.
    pub fn run(&mut self, max_cycles: u64) -> RunReport {
        self.run_until(&StopCondition::cycles(max_cycles))
    }

    /// Runs until the first term of `cond` fires (the halt monitor is
    /// always armed on top) and collects the full report, including the
    /// [`StopCause`].
    ///
    /// Conditions with watchpoints or no-progress detection run the
    /// kernel in polling slices of
    /// [`poll_every`](StopCondition::poll_every) cycles; pure
    /// cycle-budget/all-halted conditions run in a single uninterrupted
    /// slice (identical to the historical `run`).
    pub fn run_until(&mut self, cond: &StopCondition) -> RunReport {
        let t0 = self.sim.time();
        let stats0 = self.sim.stats();
        let fast0 = self.sim.fast_path_stats();
        self.epoch = t0;
        self.epoch_stats = stats0;
        self.epoch_fast = fast0;
        // Reporting/stop-condition wall clock: host time bounds the run
        // but never orders events within it.
        #[allow(clippy::disallowed_methods)]
        let wall_start = Instant::now();
        let budget = cond.cycles;

        // A finished system stays finished: the halt monitor only fires
        // on halt *transitions*, so without this early-out a re-run (or
        // a run after restoring a post-completion snapshot) would spin
        // the clocks for the whole budget.
        if self.everything_finished() {
            return self.collect(
                t0,
                &stats0,
                &fast0,
                wall_start.elapsed(),
                StopCause::AllHalted,
                None,
            );
        }

        let cause;
        let mut error = None;

        if !cond.needs_poll() {
            // Single slice: bit-identical to the historical run loop.
            let max_cycles = budget.unwrap_or(u64::MAX / 4);
            let summary = self
                .sim
                .run_until_stopped(max_cycles.saturating_mul(self.clock_period));
            (cause, error) = Self::classify(summary.stop.as_ref());
        } else {
            let poll = cond.poll_cycles();
            let mut elapsed = 0u64;
            let mut last_progress = self.progress_counter();
            let mut stagnant = 0u64;
            loop {
                let mut slice = match budget {
                    Some(b) => poll.min(b - elapsed),
                    None => poll,
                };
                if let Some(ck) = cond.checkpoint {
                    // Land slice boundaries on exact checkpoint
                    // multiples, so every checkpoint is taken at a
                    // deterministic, replayable cycle.
                    let to_next = ck - (elapsed % ck);
                    slice = slice.min(to_next);
                }
                let summary = self
                    .sim
                    .run_until_stopped(slice.saturating_mul(self.clock_period));
                elapsed += slice;
                if summary.stop.is_some() {
                    (cause, error) = Self::classify(summary.stop.as_ref());
                    break;
                }
                if cond
                    .checkpoint
                    .is_some_and(|ck| elapsed > 0 && elapsed.is_multiple_of(ck))
                {
                    let snap = self.checkpoint();
                    self.last_checkpoint = Some((elapsed, snap));
                }
                if let Some(i) = self.watch_hit(cond) {
                    cause = StopCause::Watchpoint(i);
                    break;
                }
                if let Some(window) = cond.no_progress {
                    let p = self.progress_counter();
                    if p == last_progress {
                        stagnant += slice;
                        if stagnant >= window {
                            cause = StopCause::NoProgress;
                            break;
                        }
                    } else {
                        last_progress = p;
                        stagnant = 0;
                    }
                }
                if cond.wall.is_some_and(|limit| wall_start.elapsed() >= limit) {
                    cause = StopCause::WallClock;
                    break;
                }
                if budget.is_some_and(|b| elapsed >= b) {
                    cause = StopCause::CycleBudget;
                    break;
                }
            }
        }

        self.collect(t0, &stats0, &fast0, wall_start.elapsed(), cause, error)
    }

    /// A mid-run (or post-run) report over the current observation epoch:
    /// cycles and kernel stats since the last `run`/`run_until` call
    /// started, component counters at their live values. Does not advance
    /// the simulation.
    ///
    /// The report's `wall` field is zero (wall time belongs to run
    /// calls). Its cause reflects live state: [`StopCause::AllHalted`]
    /// once every CPU has halted and every master is done (so `all_ok()`
    /// works on a post-completion report), the budget sentinel
    /// [`StopCause::CycleBudget`] otherwise.
    pub fn report_now(&self) -> RunReport {
        let cause = if self.everything_finished() {
            StopCause::AllHalted
        } else {
            StopCause::CycleBudget
        };
        self.collect(
            self.epoch,
            &self.epoch_stats,
            &self.epoch_fast,
            std::time::Duration::ZERO,
            cause,
            None,
        )
    }

    /// Total simulated clock cycles since construction — absolute, not
    /// epoch-relative like [`RunReport::sim_cycles`]. Simulated time is
    /// part of the serialized state, so a system restored from a
    /// checkpoint reports the same total an uninterrupted run would:
    /// the cycle axis resumable executions (the scenario farm's legs)
    /// account progress and fingerprints on.
    pub fn total_cycles(&self) -> u64 {
        self.sim.time().ticks() / self.clock_period
    }

    /// Captures the complete simulation state — kernel schedule (each
    /// clock's pending toggle and every other pending event), signal
    /// values and pending writes, every component's architectural state
    /// (CPU cores and their private memories, memory-model tables and
    /// arenas, interconnect FSMs, DMA sequencers) and the fault
    /// controller's RNG stream positions — into a versioned, checksummed
    /// [`Snapshot`].
    ///
    /// Validated caches (pointer-table TLB, decoded-instruction caches,
    /// translation hints), their hit/miss counters and the kernel's
    /// [`FastPathStats`](dmi_kernel::FastPathStats) are *not* captured,
    /// so the bytes do not depend on which kernel path ran.
    /// A restored system rebuilds the caches lazily and counts from
    /// zero; every architectural outcome stays bit-identical. Does not
    /// advance the simulation.
    pub fn checkpoint(&mut self) -> Snapshot {
        let mut snap = Snapshot::new();

        let mut w = StateWriter::new();
        w.put_u64(self.clock_period);
        w.put_u32(self.cpu_ids.len() as u32);
        w.put_u32(self.masters.len() as u32);
        w.put_u32(self.mem_ids.len() as u32);
        for kind in &self.mem_kinds {
            w.put_str(kind);
        }
        w.put_bool(self.crossbar);
        w.put_u32(self.sim.component_count() as u32);
        match &self.fault_hook {
            None => w.put_bool(false),
            Some(h) => {
                w.put_bool(true);
                w.put_u32(h.borrow().spec_count() as u32);
            }
        }
        snap.push_section("meta", w.into_bytes());

        let mut w = StateWriter::new();
        self.sim.save_state(&mut w);
        snap.push_section("kernel", w.into_bytes());

        for i in 0..self.sim.component_count() {
            let mut w = StateWriter::new();
            self.sim.save_component_state(i, &mut w);
            snap.push_section(format!("comp{i}"), w.into_bytes());
        }

        if let Some(h) = &self.fault_hook {
            let mut w = StateWriter::new();
            h.borrow().save_state(&mut w);
            snap.push_section("faults", w.into_bytes());
        }
        snap
    }

    /// Restores state captured by [`checkpoint`](Self::checkpoint) onto
    /// this system, which must have the same topology (CPU/master/memory
    /// counts, memory kinds, interconnect shape, component roster). The
    /// restored run replays bit-identically to the uninterrupted
    /// original — cache counters excepted, see `checkpoint`.
    ///
    /// Runtime toggles survive: the snapshot restores onto either kernel
    /// path, because that selects *how* the same schedule executes, not
    /// the schedule itself, and this system keeps its fault-injection
    /// enablement. The fault section is applied only
    /// when this system carries a fault plan of the same shape (spec
    /// count); otherwise it is skipped — which is what lets a fork
    /// diverge onto a different fault plan.
    ///
    /// On error the system may be partially restored; do not keep
    /// running it without a successful `restore`.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        let mut r = StateReader::new(snap.require_section("meta")?);
        let mismatch = |context: String| SnapshotError::Mismatch { context };
        let clock_period = r.get_u64("meta clock_period")?;
        if clock_period != self.clock_period {
            return Err(mismatch(format!(
                "clock period: snapshot {clock_period}, system {}",
                self.clock_period
            )));
        }
        let cpus = r.get_u32("meta cpu count")? as usize;
        if cpus != self.cpu_ids.len() {
            return Err(mismatch(format!(
                "cpu count: snapshot {cpus}, system {}",
                self.cpu_ids.len()
            )));
        }
        let masters = r.get_u32("meta master count")? as usize;
        if masters != self.masters.len() {
            return Err(mismatch(format!(
                "master count: snapshot {masters}, system {}",
                self.masters.len()
            )));
        }
        let mems = r.get_u32("meta mem count")? as usize;
        if mems != self.mem_ids.len() {
            return Err(mismatch(format!(
                "memory count: snapshot {mems}, system {}",
                self.mem_ids.len()
            )));
        }
        for (j, want) in self.mem_kinds.iter().enumerate() {
            let kind = r.get_str("meta mem kind")?;
            if kind != *want {
                return Err(mismatch(format!(
                    "memory {j} kind: snapshot {kind:?}, system {want:?}"
                )));
            }
        }
        let crossbar = r.get_bool("meta crossbar")?;
        if crossbar != self.crossbar {
            return Err(mismatch(format!(
                "interconnect: snapshot {}, system {}",
                if crossbar { "crossbar" } else { "shared bus" },
                if self.crossbar { "crossbar" } else { "shared bus" },
            )));
        }
        let comp_count = r.get_u32("meta component count")? as usize;
        if comp_count != self.sim.component_count() {
            return Err(mismatch(format!(
                "component count: snapshot {comp_count}, system {}",
                self.sim.component_count()
            )));
        }
        let fault_specs = if r.get_bool("meta faults flag")? {
            Some(r.get_u32("meta fault spec count")? as usize)
        } else {
            None
        };
        r.finish("meta")?;

        let mut r = StateReader::new(snap.require_section("kernel")?);
        self.sim.load_state(&mut r)?;
        r.finish("kernel")?;

        for i in 0..comp_count {
            let name = format!("comp{i}");
            let mut r = StateReader::new(snap.require_section(&name)?);
            self.sim.load_component_state(i, &mut r)?;
        }

        if let (Some(h), Some(n)) = (&self.fault_hook, fault_specs) {
            if h.borrow().spec_count() == n {
                let mut r = StateReader::new(snap.require_section("faults")?);
                h.borrow_mut().load_state(&mut r)?;
                r.finish("faults")?;
            }
        }

        // The restore opens a fresh observation epoch, as a run call
        // would: reports after it cover restored execution only.
        self.epoch = self.sim.time();
        self.epoch_stats = self.sim.stats();
        self.epoch_fast = self.sim.fast_path_stats();
        self.last_checkpoint = None;
        Ok(())
    }

    /// The most recent periodic checkpoint of the current/last
    /// [`run_until`](Self::run_until) call (under
    /// [`StopCondition::checkpoint_every`]): the cycle offset into that
    /// run when it was taken, and the snapshot itself.
    pub fn last_checkpoint(&self) -> Option<(u64, &Snapshot)> {
        self.last_checkpoint.as_ref().map(|(c, s)| (*c, s))
    }

    /// Takes ownership of the most recent periodic checkpoint, leaving
    /// `None` behind.
    pub fn take_last_checkpoint(&mut self) -> Option<(u64, Snapshot)> {
        self.last_checkpoint.take()
    }

    /// Warm fork: builds `count` fresh systems with `build` and restores
    /// each from `snap`, yielding divergent continuations of one warmed
    /// run — different workloads-in-flight are impossible (state is the
    /// snapshot's), but each continuation can run under different stop
    /// conditions, fault plans (see [`restore`](Self::restore)) or
    /// runtime twin toggles without re-running the warmup.
    ///
    /// `build(i)` must produce a system topology-identical to the one
    /// the snapshot was captured from; a mismatch fails the whole fork
    /// with a typed error.
    pub fn fork<F>(
        snap: &Snapshot,
        count: usize,
        mut build: F,
    ) -> Result<Vec<McSystem>, SnapshotError>
    where
        F: FnMut(usize) -> McSystem,
    {
        (0..count)
            .map(|i| {
                let mut sys = build(i);
                sys.restore(snap)?;
                Ok(sys)
            })
            .collect()
    }

    /// Live completion state: every CPU halted and every master done
    /// (what the halt monitor watches, read directly from the
    /// components).
    fn everything_finished(&self) -> bool {
        self.cpu_ids.iter().all(|&id| {
            self.sim
                .component::<CpuComponent>(id)
                .expect("cpu component")
                .core()
                .is_halted()
        }) && self
            .masters
            .iter()
            .all(|m| self.master_stats_by_id(m).done)
    }

    fn classify(stop: Option<&dmi_kernel::StopReason>) -> (StopCause, Option<String>) {
        match stop {
            Some(s) if s.is_error() => (StopCause::Error, Some(s.message().to_owned())),
            Some(_) => (StopCause::AllHalted, None),
            None => (StopCause::CycleBudget, None),
        }
    }

    /// Total forward progress: retired instructions plus completed
    /// interconnect transactions (the no-progress detector's metric).
    fn progress_counter(&self) -> u64 {
        let instrs: u64 = self
            .cpu_ids
            .iter()
            .map(|&id| {
                self.sim
                    .component::<CpuComponent>(id)
                    .expect("cpu component")
                    .core()
                    .stats()
                    .instructions
            })
            .sum();
        instrs + self.bus_stats().transactions
    }

    fn watch_hit(&self, cond: &StopCondition) -> Option<usize> {
        cond.watches
            .iter()
            .position(|w| self.watch_value(w.mem, w.location) == Some(w.value))
    }

    /// Reads a word from a shared memory without disturbing the
    /// simulation — the mid-run observation hook watchpoints are built
    /// on.
    ///
    /// `location` is model-specific: a byte offset into the table for
    /// static memories (direct *and* protocol-fronted), a virtual
    /// pointer (Vptr) resolved through the pointer table for wrapper
    /// memories, an arena byte offset (which is what that model's vptrs
    /// are) for SimHeap memories. Returns `None` for locations that
    /// resolve nowhere.
    pub fn watch_value(&self, mem: MemHandle, location: u32) -> Option<u32> {
        let j = mem.0;
        let id = *self.mem_ids.get(j)?;
        match *self.mem_kinds.get(j)? {
            "static" => {
                let m: &StaticTableMemory = self.sim.component(id)?;
                let off = location as usize;
                let bytes = m.bytes().get(off..off + 4)?;
                Some(u32::from_le_bytes(bytes.try_into().ok()?))
            }
            "simheap" => {
                let m: &MemoryModule = self.sim.component(id)?;
                let h = m
                    .backend()
                    .as_any()
                    .downcast_ref::<dmi_core::SimHeapBackend>()?;
                // `peek_word` is the observational arena read: no cycles
                // charged, no counters moved.
                h.peek_word(location)
            }
            "static-protocol" => {
                let m: &MemoryModule = self.sim.component(id)?;
                let s = m
                    .backend()
                    .as_any()
                    .downcast_ref::<dmi_core::StaticTableBackend>()?;
                // Same observational table read as the direct static
                // model; `location` is a byte offset into the table.
                s.peek_word(location)
            }
            "wrapper" => {
                let m: &MemoryModule = self.sim.component(id)?;
                let w = m.backend().as_any().downcast_ref::<WrapperBackend>()?;
                // `peek` is the immutable O(log n) resolve: no TLB or
                // counter perturbation, cheap enough for every poll slice.
                let (idx, off) = w.table().peek(location)?;
                let off = off as usize;
                Some(u32::from_le_bytes(
                    w.table()
                        .entry(idx)
                        .host
                        .bytes()
                        .get(off..off + 4)?
                        .try_into()
                        .ok()?,
                ))
            }
            _ => None,
        }
    }

    fn bus_stats(&self) -> BusStats {
        if self.crossbar {
            self.sim
                .component::<Crossbar>(self.bus_id)
                .expect("crossbar")
                .stats()
        } else {
            self.sim
                .component::<SharedBus>(self.bus_id)
                .expect("shared bus")
                .stats()
        }
    }

    /// Gathers the full report for the epoch starting at `t0`.
    fn collect(
        &self,
        t0: SimTime,
        stats0: &KernelStats,
        fast0: &FastPathStats,
        wall: std::time::Duration,
        cause: StopCause,
        error: Option<String>,
    ) -> RunReport {
        let sim_cycles = self.sim.time().since(t0) / self.clock_period;
        let finished = cause == StopCause::AllHalted;

        let cpus = self
            .cpu_ids
            .iter()
            .map(|&id| {
                let c: &CpuComponent = self.sim.component(id).expect("cpu component");
                let core = c.core();
                CpuReport {
                    halted: core.is_halted(),
                    exit_code: core.exit_code(),
                    isa: core.stats(),
                    cosim: c.stats(),
                    cpu_cycles: core.cycles(),
                    console: core.console().text(),
                }
            })
            .collect();

        let masters: Vec<MasterReport> = self
            .masters
            .iter()
            .map(|m| MasterReport {
                name: m.name.clone(),
                kind: m.kind,
                stats: self.master_stats_by_id(m),
            })
            .collect();

        // A kernel error raised by a master's fault-escalation path (the
        // `"fault:"` message prefix) is reclassified into the typed
        // cause, pointing at the first master that recorded a
        // MasterError.
        let cause = match cause {
            StopCause::Error
                if error.as_deref().is_some_and(|e| e.starts_with("fault:")) =>
            {
                masters
                    .iter()
                    .enumerate()
                    .find_map(|(i, m)| {
                        m.stats
                            .fault
                            .map(|error| StopCause::Fault(FaultReport { master: i, error }))
                    })
                    .unwrap_or(StopCause::Error)
            }
            c => c,
        };

        // Injection counters from the shared controller, plus the
        // master-side recovery outcomes (the controller cannot see
        // retries — they happen on the master's side of the wires).
        let mut faults = self
            .fault_hook
            .as_ref()
            .map(|h| h.borrow().stats())
            .unwrap_or_default();
        for m in &masters {
            faults.retried += m.stats.retries;
            faults.recovered += m.stats.recovered;
            if m.stats.fault.is_some() {
                faults.escalated += 1;
            }
        }

        let mems = self
            .mem_ids
            .iter()
            .zip(&self.mem_kinds)
            .map(|(&id, &kind)| {
                if let Some(m) = self.sim.component::<MemoryModule>(id) {
                    MemReport {
                        kind,
                        backend: m.backend().stats(),
                        module: m.stats(),
                    }
                } else {
                    let s: &StaticTableMemory =
                        self.sim.component(id).expect("static memory component");
                    MemReport {
                        kind,
                        backend: Default::default(),
                        module: s.stats(),
                    }
                }
            })
            .collect();

        RunReport {
            sim_cycles,
            wall,
            finished,
            cause,
            error,
            cpus,
            masters,
            mems,
            bus: self.bus_stats(),
            kernel: self.sim.stats().since(stats0),
            fast_path: self.sim.fast_path_stats().since(fast0),
            faults,
        }
    }

    fn master_stats_by_id(&self, m: &MasterInfo) -> MasterStats {
        self.sim
            .component_any(m.id)
            .and_then(|any| (m.probe)(any))
            .unwrap_or_default()
    }

    /// Number of CPUs.
    pub fn cpu_count(&self) -> usize {
        self.cpu_ids.len()
    }

    /// Number of non-CPU bus masters.
    pub fn master_count(&self) -> usize {
        self.masters.len()
    }

    /// Number of shared memories.
    pub fn mem_count(&self) -> usize {
        self.mem_ids.len()
    }

    /// Direct access to a CPU component (post-run inspection).
    pub fn cpu(&self, i: usize) -> &CpuComponent {
        self.sim.component(self.cpu_ids[i]).expect("cpu component")
    }

    /// CPU access by typed handle.
    pub fn cpu_by(&self, h: CpuHandle) -> &CpuComponent {
        self.cpu(h.0)
    }

    /// Live [`MasterStats`] of a non-CPU master, by typed handle.
    pub fn master_stats(&self, h: MasterHandle) -> MasterStats {
        self.master_stats_by_id(&self.masters[h.0])
    }

    /// Direct access to a protocol memory module (None for static RAM).
    pub fn memory(&self, j: usize) -> Option<&MemoryModule> {
        self.sim.component(self.mem_ids[j])
    }

    /// Memory access by typed handle.
    pub fn memory_by(&self, h: MemHandle) -> Option<&MemoryModule> {
        self.memory(h.0)
    }

    /// The decode region a memory answers, by typed handle.
    pub fn mem_region(&self, h: MemHandle) -> Region {
        self.mem_regions[h.0]
    }

    /// Toggles fault injection at runtime (it starts enabled): the
    /// plan's trigger state is retained, only firing is gated. No-op on
    /// systems built without a fault plan.
    pub fn set_fault_injection(&mut self, on: bool) {
        if let Some(h) = &self.fault_hook {
            h.borrow_mut().set_enabled(on);
        }
    }

    /// Whether fault injection is live: a non-empty plan is wired and
    /// the controller is enabled.
    pub fn fault_injection_live(&self) -> bool {
        self.fault_hook.as_ref().is_some_and(|h| h.borrow().live())
    }

    /// The underlying simulator (tracing, advanced inspection).
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable simulator access (e.g. to enable VCD tracing before a run).
    pub fn simulator_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }
}
