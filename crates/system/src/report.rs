//! Run reports: what a co-simulation measured.

use std::time::Duration;

use dmi_core::{FaultStats, MemStats, ModuleStats};
use dmi_interconnect::{BusStats, MasterStats};
use dmi_iss::{CpuComponentStats, CpuStats};
use dmi_kernel::{FastPathStats, KernelStats};

use crate::run_ctl::StopCause;

/// Per-CPU outcome of a run.
#[derive(Debug, Clone)]
pub struct CpuReport {
    /// Whether the CPU reached its halt.
    pub halted: bool,
    /// Exit code (`r0` at halt).
    pub exit_code: u32,
    /// ISA-level statistics.
    pub isa: CpuStats,
    /// Co-simulation statistics (bus waits, transactions).
    pub cosim: CpuComponentStats,
    /// Cycles consumed under the CPU timing model.
    pub cpu_cycles: u64,
    /// Console output.
    pub console: String,
}

/// Per-master outcome of a run (non-CPU masters: DMA engines, traffic
/// generators).
#[derive(Debug, Clone)]
pub struct MasterReport {
    /// Instance name (`"dma0"`, …).
    pub name: String,
    /// Kind label from the master's
    /// [`BusMaster`](dmi_interconnect::BusMaster) spec.
    pub kind: &'static str,
    /// Generic progress counters (zeroed when the master reports none).
    pub stats: MasterStats,
}

/// Per-memory outcome of a run.
#[derive(Debug, Clone)]
pub struct MemReport {
    /// Model name ("wrapper", "simheap", "static").
    pub kind: &'static str,
    /// Backend counters (zeroed for static memories).
    pub backend: MemStats,
    /// Handshake/FSM counters.
    pub module: ModuleStats,
}

/// The result of one co-simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Simulated clock cycles elapsed in this run.
    pub sim_cycles: u64,
    /// Host wall-clock time.
    pub wall: Duration,
    /// Whether every CPU halted and every master finished (workload
    /// completed).
    pub finished: bool,
    /// Why the run stopped.
    pub cause: StopCause,
    /// Kernel-reported error, if the run aborted.
    pub error: Option<String>,
    /// Per-CPU reports.
    pub cpus: Vec<CpuReport>,
    /// Per-master reports (non-CPU masters, in registration order).
    pub masters: Vec<MasterReport>,
    /// Per-memory reports.
    pub mems: Vec<MemReport>,
    /// Interconnect statistics.
    pub bus: BusStats,
    /// Kernel statistics for this run.
    pub kernel: KernelStats,
    /// Kernel fast-path counters for this run (clock toggles total,
    /// quiet edge-path toggles that woke nobody, calendar dispatches) —
    /// what experiments assert fast-path coverage with. Unlike `kernel`,
    /// these differ by construction between the reference and fast
    /// configurations.
    pub fast_path: FastPathStats,
    /// Fault-injection counters: faults injected per site class and per
    /// plan spec, plus master-side recovery outcomes (retried /
    /// recovered / escalated). All-zero when the system was built
    /// without a [`FaultPlan`](dmi_core::FaultPlan) or with an empty
    /// one.
    pub faults: FaultStats,
}

impl RunReport {
    /// Simulation speed: simulated clock cycles per host second — the
    /// metric the paper's evaluation reports.
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.sim_cycles as f64 / secs
        }
    }

    /// Simulated instructions per host second across all CPUs (MIPS-style
    /// throughput metric).
    pub fn instructions_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        let instr: u64 = self.cpus.iter().map(|c| c.isa.instructions).sum();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            instr as f64 / secs
        }
    }

    /// Whether the workload completed cleanly: every CPU exited with code
    /// zero and every master finished its programmed work.
    pub fn all_ok(&self) -> bool {
        self.finished
            && self.cpus.iter().all(|c| c.halted && c.exit_code == 0)
            && self.masters.iter().all(|m| m.stats.done)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} cycles in {:?} ({:.0} cyc/s), finished={}, exits=[{}]",
            self.sim_cycles,
            self.wall,
            self.cycles_per_sec(),
            self.finished,
            self.cpus
                .iter()
                .map(|c| c.exit_code.to_string())
                .collect::<Vec<_>>()
                .join(","),
        )
    }

    /// Per-CPU dispatch summary: one line per core with instruction
    /// count and decoded-instruction-cache hit rate (diagnostics for the
    /// ISS's predecoded dispatch).
    pub fn cpu_summary(&self) -> String {
        self.cpus
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let s = &c.isa;
                format!(
                    "cpu{i}: {} instrs, {} branches, icache {:.1}% hit \
                     ({} hits / {} misses)",
                    s.instructions,
                    s.branches,
                    100.0 * s.icache_hit_rate(),
                    s.icache_hits,
                    s.icache_misses,
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Kernel hot-path summary: event/wake/delta counts and the share
    /// of clock toggles each fast path served (diagnostics for the
    /// kernel's clocked specializations; reference-path runs report 0 %
    /// coverage).
    pub fn kernel_summary(&self) -> String {
        let k = &self.kernel;
        let f = &self.fast_path;
        format!(
            "kernel: {} events, {} wakes, {} deltas, {} time steps; \
             {} toggles ({:.1}% calendar, {:.1}% quiet)",
            k.events,
            k.wakes,
            k.deltas,
            k.time_steps,
            f.clock_toggles,
            100.0 * f.calendar_coverage(),
            100.0 * f.quiet_coverage(),
        )
    }

    /// One-line fault-injection summary: injected faults by site class
    /// and the recovery outcome counters. Empty-plan runs report all
    /// zeros.
    pub fn fault_summary(&self) -> String {
        let f = &self.faults;
        format!(
            "faults: {} injected ({} mem-op, {} beat, {} bus); \
             {} retried, {} recovered, {} escalated",
            f.injected, f.mem_ops, f.mem_beats, f.bus_accesses, f.retried, f.recovered, f.escalated,
        )
    }

    /// Per-memory hot-path summary: one line per module with TLB hit
    /// rate and burst activity (diagnostics for the wrapper's fast
    /// paths; static memories report no translations).
    pub fn memory_summary(&self) -> String {
        self.mems
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let b = &m.backend;
                format!(
                    "mem{i} ({}): {} reads, {} writes, {} beats, \
                     tlb {:.1}% hit ({} hits / {} misses), {} host allocs",
                    m.kind,
                    b.reads,
                    b.writes,
                    b.burst_beats,
                    100.0 * b.tlb_hit_rate(),
                    b.tlb_hits,
                    b.tlb_misses,
                    b.host.allocs,
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> RunReport {
        RunReport {
            sim_cycles: 1000,
            wall: Duration::from_millis(10),
            finished: true,
            cause: StopCause::AllHalted,
            error: None,
            cpus: vec![CpuReport {
                halted: true,
                exit_code: 0,
                isa: CpuStats::default(),
                cosim: CpuComponentStats::default(),
                cpu_cycles: 900,
                console: String::new(),
            }],
            masters: vec![],
            mems: vec![],
            bus: BusStats::default(),
            kernel: KernelStats::default(),
            fast_path: FastPathStats::default(),
            faults: FaultStats::default(),
        }
    }

    #[test]
    fn speed_metric() {
        let r = dummy();
        let speed = r.cycles_per_sec();
        assert!((speed - 100_000.0).abs() < 1.0, "speed {speed}");
        assert!(r.all_ok());
        assert!(r.summary().contains("1000 cycles"));
    }

    #[test]
    fn failed_exit_breaks_all_ok() {
        let mut r = dummy();
        r.cpus[0].exit_code = 1;
        assert!(!r.all_ok());
    }

    #[test]
    fn unfinished_master_breaks_all_ok() {
        let mut r = dummy();
        r.masters.push(MasterReport {
            name: "dma0".into(),
            kind: "dma",
            stats: MasterStats::default(),
        });
        assert!(!r.all_ok(), "master not done");
        r.masters[0].stats.done = true;
        assert!(r.all_ok());
    }

    #[test]
    fn memory_summary_reports_tlb_rate() {
        let mut r = dummy();
        r.mems.push(MemReport {
            kind: "wrapper",
            backend: MemStats {
                reads: 10,
                writes: 5,
                tlb_hits: 9,
                tlb_misses: 1,
                ..MemStats::default()
            },
            module: ModuleStats::default(),
        });
        let s = r.memory_summary();
        assert!(s.contains("tlb 90.0% hit"), "{s}");
        assert!(s.contains("wrapper"), "{s}");
    }
}
