//! The experiment harness: every table/figure of the paper's evaluation
//! plus the extended experiments documented in `EXPERIMENTS.md`.
//!
//! Each function runs complete co-simulations and returns structured rows;
//! the `experiments` binary in `dmi-bench` prints them as tables, and the
//! Criterion benches re-run the same configurations under measurement.

use std::time::Duration;

use dmi_core::{SimHeapConfig, WrapperConfig};
use dmi_gsm::pipeline::{self, PipelineCfg};
use dmi_interconnect::BusConfig;
use dmi_sw::{workloads, WorkloadCfg};

use crate::{mem_base, CpuSpec, InterconnectKind, MemModelKind, MemSpec, RunReport, SystemBuilder};

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct ExpRow {
    /// Configuration label.
    pub label: String,
    /// Simulated clock cycles to workload completion.
    pub sim_cycles: u64,
    /// Host wall time.
    pub wall: Duration,
    /// Simulation speed in simulated cycles per host second.
    pub speed: f64,
    /// Simulated instructions per host second.
    pub ips: f64,
    /// Whether the workload completed with all exit codes zero.
    pub ok: bool,
}

impl ExpRow {
    fn from_report(label: impl Into<String>, r: &RunReport) -> ExpRow {
        ExpRow {
            label: label.into(),
            sim_cycles: r.sim_cycles,
            wall: r.wall,
            speed: r.cycles_per_sec(),
            ips: r.instructions_per_sec(),
            ok: r.all_ok(),
        }
    }
}

/// A complete experiment result.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Identifier ("E1", "E2", …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Measured rows.
    pub rows: Vec<ExpRow>,
    /// Notes on interpretation.
    pub notes: String,
}

impl Experiment {
    /// Renders a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        out.push_str("| configuration | sim cycles | wall | speed (cyc/s) | kIPS | ok |\n");
        out.push_str("|---|---:|---:|---:|---:|---|\n");
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {:.2?} | {:.0} | {:.1} | {} |\n",
                r.label,
                r.sim_cycles,
                r.wall,
                r.speed,
                r.ips / 1000.0,
                if r.ok { "yes" } else { "NO" },
            ));
        }
        if !self.notes.is_empty() {
            out.push_str(&format!("\n{}\n", self.notes));
        }
        out
    }
}

/// Runs the GSM pipeline on 4 CPUs with `n_mems` wrapper memories and
/// returns the report (shared by E1 and the benches).
pub fn run_gsm_pipeline(n_frames: u32, n_mems: usize, seed: u32) -> RunReport {
    let cfg = PipelineCfg {
        n_frames,
        mem_bases: (0..n_mems).map(mem_base).collect(),
        seed,
    };
    let mut b = SystemBuilder::new();
    for program in pipeline::stage_programs(&cfg) {
        b.add_cpu(CpuSpec::new(program));
    }
    for i in 0..n_mems {
        b.add_memory(MemSpec::wrapper(mem_base(i)));
    }
    let mut sys = b.build().expect("gsm pipeline system");
    sys.run(u64::MAX / 4)
}

/// E1 — the paper's headline experiment: GSM on 4 ISSs, one memory versus
/// four memories. The paper reports ≈20 % simulation-speed degradation.
pub fn e1_headline(n_frames: u32) -> Experiment {
    let r1 = run_gsm_pipeline(n_frames, 1, 0x5EED);
    let r4 = run_gsm_pipeline(n_frames, 4, 0x5EED);
    let degradation = 100.0 * (1.0 - r4.cycles_per_sec() / r1.cycles_per_sec());
    Experiment {
        id: "E1",
        title: "GSM on 4 ISSs: 1 shared memory vs 4 shared memories",
        rows: vec![
            ExpRow::from_report("4 ISS + bus + 1 wrapper memory", &r1),
            ExpRow::from_report("4 ISS + bus + 4 wrapper memories", &r4),
        ],
        notes: format!(
            "Simulation-speed degradation 1→4 memories: {degradation:.1}% \
             (paper reports ≈20%)."
        ),
    }
}

/// E2 — wrapper overhead over static tables on identical scalar traffic.
pub fn e2_model_overhead(iterations: u32) -> Experiment {
    let wl = WorkloadCfg {
        mem_base: mem_base(0),
        iterations,
        buf_words: 64,
        ..WorkloadCfg::default()
    };
    let mut rows = Vec::new();

    let mut b = SystemBuilder::new();
    for _ in 0..4 {
        b.add_cpu(CpuSpec::new(workloads::scalar_rw_static(&wl)));
    }
    b.add_memory(MemSpec::static_table(mem_base(0)));
    let r = b.build().expect("static system").run(u64::MAX / 4);
    rows.push(ExpRow::from_report("4 ISS, static table, raw ld/st", &r));

    let mut b = SystemBuilder::new();
    for _ in 0..4 {
        b.add_cpu(CpuSpec::new(workloads::scalar_rw(&wl)));
    }
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    let r = b.build().expect("wrapper system").run(u64::MAX / 4);
    rows.push(ExpRow::from_report("4 ISS, wrapper, DSM protocol", &r));

    Experiment {
        id: "E2",
        title: "Dynamic wrapper vs static table memory (claim III)",
        rows,
        notes: "Same logical traffic; the wrapper adds the command protocol \
                and table/translator work on the host. The claim is that \
                host-side speed (cycles/s) remains comparable."
            .into(),
    }
}

/// E3 — wrapper vs the detailed in-simulation allocator, on a workload
/// with a *growing* live population (linked-list build), where the
/// simheap's first-fit walk lengthens with every allocation.
pub fn e3_dynamic_models(iterations: u32) -> Experiment {
    let wl = WorkloadCfg {
        mem_base: mem_base(0),
        iterations,
        ..WorkloadCfg::default()
    };
    let mut rows = Vec::new();
    for (label, kind) in [
        (
            "wrapper (host-backed)",
            MemModelKind::Wrapper(WrapperConfig::default()),
        ),
        (
            "simheap (in-simulation allocator)",
            MemModelKind::SimHeap(SimHeapConfig::default()),
        ),
    ] {
        let mut b = SystemBuilder::new();
        b.add_cpu(CpuSpec::new(workloads::linked_list(&wl)));
        b.add_memory(MemSpec::new(kind, mem_base(0)));
        let r = b.build().expect("dynamic-model system").run(u64::MAX / 4);
        rows.push(ExpRow::from_report(
            format!("{label}, {iterations}-node list"),
            &r,
        ));
    }
    Experiment {
        id: "E3",
        title: "Host-backed wrapper vs detailed dynamic memory model",
        rows,
        notes: "Linked-list build and traversal: every allocation on the \
                simheap walks the (growing) free list inside the simulated \
                array, charging simulated cycles and host work per probe — \
                O(n²) total; the wrapper delegates storage to the host \
                allocator and charges only the configured delay model."
            .into(),
    }
}

/// E5 — ISS-count scaling on one wrapper memory.
pub fn e5_scaling(iterations: u32) -> Experiment {
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let wl = WorkloadCfg {
            mem_base: mem_base(0),
            iterations,
            buf_words: 32,
            ..WorkloadCfg::default()
        };
        let mut b = SystemBuilder::new();
        for _ in 0..n {
            b.add_cpu(CpuSpec::new(workloads::scalar_rw(&wl)));
        }
        b.add_memory(MemSpec::wrapper(mem_base(0)));
        let r = b.build().expect("scaling system").run(u64::MAX / 4);
        rows.push(ExpRow::from_report(format!("{n} ISS"), &r));
    }
    Experiment {
        id: "E5",
        title: "ISS-count scaling (1 wrapper memory, shared bus)",
        rows,
        notes: "Host speed falls with component count; simulated cycles rise \
                with bus contention."
            .into(),
    }
}

/// E6 — burst (I/O array) vs scalar transfers for the same data volume.
pub fn e6_burst(iterations: u32, burst_len: u32) -> Experiment {
    let wl = WorkloadCfg {
        mem_base: mem_base(0),
        iterations,
        burst_len,
        ..WorkloadCfg::default()
    };
    let mut rows = Vec::new();
    for (label, prog) in [
        ("burst (I/O array)", workloads::burst_copy(&wl)),
        ("scalar ops", workloads::scalar_copy(&wl)),
    ] {
        let mut b = SystemBuilder::new();
        b.add_cpu(CpuSpec::new(prog));
        b.add_memory(MemSpec::wrapper(mem_base(0)));
        let r = b.build().expect("burst system").run(u64::MAX / 4);
        rows.push(ExpRow::from_report(
            format!("{label}, {burst_len} words × {iterations}"),
            &r,
        ));
    }
    Experiment {
        id: "E6",
        title: "I/O-array bursts vs scalar element transfers",
        rows,
        notes: "Bursts amortize the command handshake over the block; scalar \
                transfers pay it per element (simulated cycles show the \
                factor)."
            .into(),
    }
}

/// E9 — bus grant retention off (the default timing) vs on
/// ([`BusConfig::burst_grant`]) on the burst workload. The measured
/// numbers behind the `burst_grant` default decision are recorded in
/// `ROADMAP.md`.
pub fn e9_presets(iterations: u32, burst_len: u32) -> Experiment {
    let wl = WorkloadCfg {
        mem_base: mem_base(0),
        iterations,
        burst_len,
        ..WorkloadCfg::default()
    };
    let mut rows = Vec::new();
    let mut cycles = [0u64; 2];
    for (i, (label, burst_grant)) in [
        ("seed timing (no grant retention)", false),
        ("throughput (burst grant retention)", true),
    ]
    .into_iter()
    .enumerate()
    {
        let mut b = SystemBuilder::new().interconnect(InterconnectKind::SharedBus(BusConfig {
            burst_grant,
            ..Default::default()
        }));
        b.add_cpu(CpuSpec::new(workloads::burst_copy(&wl)));
        b.add_memory(MemSpec::wrapper(mem_base(0)));
        let r = b.build().expect("burst system").run(u64::MAX / 4);
        cycles[i] = r.sim_cycles;
        rows.push(ExpRow::from_report(
            format!("{label}, {burst_len} words × {iterations}"),
            &r,
        ));
    }
    let saved = 100.0 * (1.0 - cycles[1] as f64 / cycles[0] as f64);
    Experiment {
        id: "E9",
        title: "Bus grant retention: seed timing vs throughput",
        rows,
        notes: format!(
            "Grant retention removes the re-arbitration cycle of consecutive \
             same-master/same-slave transfers: {saved:.1}% fewer simulated \
             cycles on this burst workload. Seed timing stays the default so \
             cycle counts remain comparable with the recorded trajectory."
        ),
    }
}

/// E8 — GSM encoder throughput sanity: reference (host) vs co-simulated.
pub fn e8_gsm_throughput(n_frames: u32) -> Experiment {
    use std::time::Instant;
    // Host reference throughput.
    let mut src = dmi_gsm::reference::LcgSource::new(1);
    let mut enc = dmi_gsm::reference::Encoder::new();
    // Host-reference throughput measurement — not a simulation path.
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    for _ in 0..n_frames {
        let f = src.next_frame();
        std::hint::black_box(enc.encode_frame(&f));
    }
    let host_wall = t0.elapsed();

    let r = run_gsm_pipeline(n_frames, 1, 1);
    let sim_fps = n_frames as f64 / r.wall.as_secs_f64();
    let host_fps = n_frames as f64 / host_wall.as_secs_f64();
    Experiment {
        id: "E8",
        title: "GSM encoder throughput: native host vs co-simulated pipeline",
        rows: vec![
            ExpRow {
                label: "native Rust reference".into(),
                sim_cycles: 0,
                wall: host_wall,
                speed: host_fps,
                ips: 0.0,
                ok: true,
            },
            ExpRow::from_report("co-simulated 4-stage pipeline", &r),
        ],
        notes: format!(
            "Frames/s: native {host_fps:.0}, co-simulated {sim_fps:.2} — the \
             gap is the cost of cycle-true ISS+bus+memory simulation."
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_and_e3_run_small() {
        let e2 = e2_model_overhead(16);
        assert!(e2.rows.iter().all(|r| r.ok), "{:?}", e2.rows);
        assert!(e2.to_markdown().contains("E2"));
        let e3 = e3_dynamic_models(8);
        assert!(e3.rows.iter().all(|r| r.ok));
    }

    #[test]
    fn e6_burst_beats_scalar_in_sim_cycles() {
        let e6 = e6_burst(4, 32);
        assert!(e6.rows.iter().all(|r| r.ok));
        let burst = e6.rows[0].sim_cycles;
        let scalar = e6.rows[1].sim_cycles;
        assert!(
            burst < scalar,
            "burst {burst} should need fewer simulated cycles than scalar {scalar}"
        );
    }

    #[test]
    fn e9_presets_run_small() {
        let e9 = e9_presets(2, 16);
        assert!(e9.rows.iter().all(|r| r.ok), "{:?}", e9.rows);
        assert!(
            e9.rows[1].sim_cycles < e9.rows[0].sim_cycles,
            "retention must save simulated cycles"
        );
    }

    #[test]
    fn e1_headline_runs_small() {
        let e1 = e1_headline(1);
        assert!(e1.rows.iter().all(|r| r.ok), "{:?}", e1.rows);
        assert!(e1.notes.contains("degradation"));
    }
}
