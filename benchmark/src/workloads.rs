//! The four workloads, their inputs and their correctness checks.
//!
//! Every system here is described with the public builder API only, and
//! deliberately does not reuse `dmi_bench::scenarios`: that module may be
//! rewritten, and the benchmark's inputs must not change with it. The
//! seed drives the GSM input samples and the DMA fill patterns;
//! `dyn_heap` has no data seed.

use dmi_core::{StaticTableMemory, WrapperBackend};
use dmi_farm::{Catalog, FarmReport, Registry, ScenarioOutcome, ScenarioSpec};
use dmi_gsm::pipeline::{self, PipelineCfg, PipelineResult};
use dmi_kernel::KernelStats;
use dmi_masters::{BurstSpec, DmaComponent, DmaConfig, DmaEngine, DmaKind};
use dmi_sw::{workloads, WorkloadCfg};
use dmi_system::{
    mem_base, CpuSpec, InterconnectKind, McSystem, MemSpec, RunReport, SystemBuilder,
};

/// The seed used when none is given; the pins below hold for it.
pub const DEFAULT_SEED: u64 = 0x5EED;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GsmHeadline,
    DmaStorm,
    DynHeap,
    FarmFanout,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GsmHeadline,
        Workload::DmaStorm,
        Workload::DynHeap,
        Workload::FarmFanout,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GsmHeadline => "gsm_headline",
            Workload::DmaStorm => "dma_storm",
            Workload::DynHeap => "dyn_heap",
            Workload::FarmFanout => "farm_fanout",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cycles per `run_until` span in the traced pass. The DMA storm is
    /// the shortest run, so it gets finer slices.
    pub fn slice_cycles(self) -> u64 {
        match self {
            Workload::DmaStorm => 10_000,
            _ => 50_000,
        }
    }

    /// The crate that generates this workload's inputs (the layer of its
    /// `program_gen` span).
    pub fn input_layer(self) -> &'static str {
        match self {
            Workload::GsmHeadline | Workload::FarmFanout => "gsm",
            Workload::DmaStorm => "masters",
            Workload::DynHeap => "sw",
        }
    }

    /// The system a simulation op builds, or the one the farm's GSM legs
    /// build.
    pub fn describe(self, seed: u64) -> SystemBuilder {
        match self {
            Workload::GsmHeadline | Workload::FarmFanout => gsm_system(seed),
            Workload::DmaStorm => dma_system(seed, DMA_STORM),
            Workload::DynHeap => dyn_system(DYN_HEAP),
        }
    }
}

/// What an op did, as far as the simulation contract goes: identical on
/// every op of a run, and across commits at the default seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observation {
    /// Simulated cycles (for the farm: the sum of the legs' final cycles).
    pub cycles: u64,
    /// Kernel counters of the run (zero for the farm, which reports none).
    pub kernel: KernelStats,
    /// Final `(cycles, cause)` of each farm leg, in catalog order.
    pub legs: Vec<(u64, String)>,
}

/// Folds one `run_until` report into an observation (sliced runs and
/// checkpoint-split runs add up to the one-shot run).
pub fn accumulate(obs: &mut Observation, r: &RunReport) {
    obs.cycles += r.sim_cycles;
    add_kernel(&mut obs.kernel, &r.kernel);
}

pub fn add_kernel(sum: &mut KernelStats, k: &KernelStats) {
    sum.events += k.events;
    sum.wakes += k.wakes;
    sum.deltas += k.deltas;
    sum.time_steps += k.time_steps;
}

/// The observation each workload must produce at [`DEFAULT_SEED`].
pub fn pinned(w: Workload) -> Observation {
    let sim = |cycles, events, wakes, deltas, time_steps| Observation {
        cycles,
        kernel: KernelStats {
            events,
            wakes,
            deltas,
            time_steps,
        },
        legs: Vec::new(),
    };
    match w {
        Workload::GsmHeadline => sim(436_964, 3_495_722, 2_621_795, 1_310_896, 873_928),
        Workload::DmaStorm => sim(114_233, 2_741_621, 2_513_156, 342_706, 228_466),
        Workload::DynHeap => sim(1_085_562, 9_770_069, 7_598_946, 3_256_690, 2_171_124),
        Workload::FarmFanout => {
            let legs: Vec<(u64, String)> = FARM_PINS
                .iter()
                .map(|&c| (c, "AllHalted".to_string()))
                .collect();
            Observation {
                cycles: legs.iter().map(|l| l.0).sum(),
                kernel: KernelStats::default(),
                legs,
            }
        }
    }
}

/// Final cycles of each farm leg at the default seed.
const FARM_PINS: [u64; 6] = [436_964, 436_964, 436_964, 436_964, 5_065, 83_881];

// ---------------------------------------------------------------------------
// Systems

/// GSM input seed: the low and high halves of the run seed folded.
fn gsm_seed(seed: u64) -> u32 {
    (seed ^ (seed >> 32)) as u32
}

fn gsm_cfg(seed: u64) -> PipelineCfg {
    PipelineCfg {
        n_frames: 2,
        mem_bases: vec![mem_base(0)],
        seed: gsm_seed(seed),
    }
}

/// The paper's E1: four GSM stage CPUs sharing one wrapper memory, two
/// frames, run to halt.
pub fn gsm_system(seed: u64) -> SystemBuilder {
    let mut b = SystemBuilder::new();
    for program in pipeline::stage_programs(&gsm_cfg(seed)) {
        b.add_cpu(CpuSpec::new(program));
    }
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b
}

/// The result block a correct GSM run publishes: the host reference
/// encoder's checksum over the same seeded samples.
pub fn gsm_expected(seed: u64) -> PipelineResult {
    let cfg = gsm_cfg(seed);
    PipelineResult {
        magic: pipeline::RESULT_MAGIC,
        frames: cfg.n_frames,
        checksum: pipeline::expected_checksum(&cfg),
    }
}

/// Shape of a DMA system: `scalar` fill engines spread over four static
/// tables, plus `burst` verifying burst engines into one wrapper memory.
#[derive(Debug, Clone, Copy)]
pub struct DmaShape {
    pub scalar: u32,
    pub burst: u32,
    pub words: u32,
    pub passes: u32,
}

/// 16 masters: the builder's cap (the master id is 4 bits).
pub const DMA_STORM: DmaShape = DmaShape {
    scalar: 12,
    burst: 4,
    words: 256,
    passes: 16,
};

const DMA_LEG: DmaShape = DmaShape {
    scalar: 8,
    burst: 2,
    words: 128,
    passes: 2,
};

/// The memory the burst engines target (after the four static tables).
const DMA_WRAPPER: usize = 4;

/// splitmix64: one well-mixed 64-bit value per input.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fill_seed(seed: u64, engine: u32) -> u32 {
    mix(seed.wrapping_add(u64::from(engine))) as u32
}

/// Scalar engine `i`: its own 4 KiB slot in static table `i % 4`.
fn scalar_dma(seed: u64, shape: DmaShape, i: u32) -> DmaConfig {
    DmaConfig {
        kind: DmaKind::Fill {
            seed: fill_seed(seed, i),
        },
        dst: mem_base((i % 4) as usize) + (i / 4) * 0x1000,
        words: shape.words,
        passes: shape.passes,
        ..DmaConfig::default()
    }
}

pub fn dma_system(seed: u64, shape: DmaShape) -> SystemBuilder {
    let mut b = SystemBuilder::new().interconnect(InterconnectKind::Crossbar(Default::default()));
    for j in 0..4 {
        b.add_memory(MemSpec::static_table(mem_base(j)));
    }
    b.add_memory(MemSpec::wrapper(mem_base(DMA_WRAPPER)));
    for i in 0..shape.scalar {
        b.add_master(Box::new(DmaEngine::new(scalar_dma(seed, shape, i))));
    }
    for k in 0..shape.burst {
        b.add_master(Box::new(DmaEngine::new(DmaConfig {
            kind: DmaKind::Fill {
                seed: fill_seed(seed, shape.scalar + k),
            },
            dst: mem_base(DMA_WRAPPER),
            words: shape.words,
            passes: shape.passes,
            burst: Some(BurstSpec {
                beats: 16,
                verify: true,
                at: None,
            }),
            ..DmaConfig::default()
        })));
    }
    b
}

/// Shape of the dynamic-data system: two list builders/traversers and a
/// churn CPU on the wrapper, one churn CPU on the SimHeap.
#[derive(Debug, Clone, Copy)]
pub struct DynShape {
    pub list: u32,
    pub churn: u32,
}

pub const DYN_HEAP: DynShape = DynShape {
    list: 4000,
    churn: 400,
};

const DYN_LEG: DynShape = DynShape {
    list: 300,
    churn: 40,
};

pub fn dyn_system(shape: DynShape) -> SystemBuilder {
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_memory(MemSpec::simheap(mem_base(1)));
    let list = workloads::linked_list(&WorkloadCfg::at(mem_base(0)).iterations(shape.list));
    b.add_cpu(CpuSpec::new(list.clone()));
    b.add_cpu(CpuSpec::new(list));
    for j in 0..2 {
        b.add_cpu(CpuSpec::new(workloads::alloc_churn(
            &WorkloadCfg::at(mem_base(j))
                .iterations(shape.churn)
                .buf_words(32),
        )));
    }
    b
}

// ---------------------------------------------------------------------------
// Checks

/// Checks a finished simulation op beyond its observation: every CPU
/// exited 0, every master finished without an error status, and the
/// workload's own outputs are right.
pub fn check_outputs(
    w: Workload,
    seed: u64,
    sys: &McSystem,
    last: &RunReport,
    gsm: Option<PipelineResult>,
) -> Result<(), String> {
    if let Some(e) = &last.error {
        return Err(format!("kernel error: {e}"));
    }
    if !last.all_ok() {
        return Err(format!("not all ok: {}", last.summary()));
    }
    for m in &last.masters {
        if m.stats.error_statuses.total() != 0 || m.stats.fault.is_some() {
            return Err(format!("{}: error statuses {:?}", m.name, m.stats));
        }
    }
    match w {
        Workload::GsmHeadline | Workload::FarmFanout => {
            let got = sys
                .memory(0)
                .and_then(|m| m.backend().as_any().downcast_ref::<WrapperBackend>())
                .and_then(pipeline::extract_result);
            if got != gsm {
                return Err(format!("GSM result {got:?}, reference {gsm:?}"));
            }
        }
        Workload::DmaStorm => check_dma(sys, seed, DMA_STORM)?,
        // The list and churn programs verify every value they read and
        // exit non-zero on a mismatch.
        Workload::DynHeap => {}
    }
    Ok(())
}

/// Every static-table slot holds the final pass of its engine's fill
/// pattern, and every burst engine's read-back matched.
fn check_dma(sys: &McSystem, seed: u64, shape: DmaShape) -> Result<(), String> {
    let sim = sys.simulator();
    let find = |name: String| {
        sim.components()
            .find(|(_, n)| *n == name)
            .map(|(id, _)| id)
            .ok_or(format!("no component {name}"))
    };
    for i in 0..shape.scalar {
        let cfg = scalar_dma(seed, shape, i);
        let DmaKind::Fill { seed: fill } = cfg.kind else {
            unreachable!("scalar engines fill");
        };
        let j = (i % 4) as usize;
        let table = sim
            .component::<StaticTableMemory>(find(format!("mem{j}"))?)
            .ok_or("static table")?
            .bytes();
        for word in 0..shape.words {
            let off = (cfg.dst - mem_base(j) + 4 * word) as usize;
            let got = u32::from_le_bytes(table[off..off + 4].try_into().expect("4 bytes"));
            let want = DmaConfig::fill_word(fill, shape.words, shape.passes - 1, word);
            if got != want {
                return Err(format!("dma{i} word {word}: {got:#x} != {want:#x}"));
            }
        }
    }
    for k in shape.scalar..shape.scalar + shape.burst {
        let dma = sim
            .component::<DmaComponent>(find(format!("dma{k}"))?)
            .ok_or("dma component")?;
        let s = dma.stats();
        if s.verify_mismatches != 0 {
            return Err(format!("dma{k}: {} verify mismatches", s.verify_mismatches));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The farm

/// Four GSM legs sharing one warm prefix (one simulates and exports it,
/// three restore it), a small DMA leg and a small dynamic-data leg.
pub fn farm_catalog() -> Catalog {
    let mut c = Catalog::new();
    for i in 0..4 {
        c.push(
            ScenarioSpec::new(format!("gsm{i}"), "gsm", 1_000_000)
                .warm(GSM_WARM)
                .checkpoint(50_000),
        );
    }
    c.push(ScenarioSpec::new("dma", "dma", 1_000_000).checkpoint(1_000));
    c.push(ScenarioSpec::new("dyn", "dyn", 10_000_000).checkpoint(10_000));
    c
}

/// Warm-prefix length of the farm's GSM legs.
const GSM_WARM: u64 = 200_000;

/// The systems the farm catalog names, seeded like the other workloads.
pub fn farm_registry(seed: u64) -> Registry {
    let mut r = Registry::new();
    r.register("gsm", move || gsm_system(seed));
    r.register("dma", move || dma_system(seed, DMA_LEG));
    r.register("dyn", || dyn_system(DYN_LEG));
    r
}

/// Checks a farm op: every leg completed. Returns the observation and the
/// number of warm-restored GSM legs whose final fingerprint differs from
/// the cold leg's.
pub fn check_farm(report: &FarmReport) -> Result<(Observation, u32), String> {
    let mut obs = Observation::default();
    let mut fingerprints = Vec::new();
    for leg in &report.legs {
        match &leg.outcome {
            ScenarioOutcome::Completed {
                fingerprint,
                cycles,
                cause,
            } => {
                // Every leg's budget lies past its natural halt.
                if cause != "AllHalted" {
                    return Err(format!("leg {} stopped with {cause}", leg.name));
                }
                obs.cycles += cycles;
                obs.legs.push((*cycles, cause.clone()));
                if leg.name.starts_with("gsm") {
                    fingerprints.push(*fingerprint);
                }
            }
            other => return Err(format!("leg {}: {}", leg.name, other.brief())),
        }
    }
    let mismatched = fingerprints
        .iter()
        .filter(|&&f| f != fingerprints[0])
        .count();
    Ok((obs, mismatched as u32))
}
