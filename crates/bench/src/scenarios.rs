//! Shared scenario constructors for the `analyze` CLI, the analyzer's
//! scenario tests, the farm and the benches: the builder-level systems
//! the experiment suite runs, plus the hand-wired multi-clock topology
//! of the `exp_multiclock` bench (which `SystemBuilder` cannot express
//! yet — it shares one `clk` across every component).

use dmi_core::{MemoryModule, SlavePorts, WrapperBackend, WrapperConfig};
use dmi_gsm::pipeline::{self, PipelineCfg};
use dmi_interconnect::{
    AddressMap, BusConfig, BusMaster, MasterIf, MasterWiring, SharedBus, SlaveIf,
};
use dmi_iss::{BusMasterPorts, CpuComponent, CpuCore, LocalMemory};
use dmi_kernel::{Edge, Simulator};
use dmi_masters::{BurstSpec, DmaConfig, DmaEngine, DmaKind};
use dmi_sw::{workloads, WorkloadCfg};
use dmi_system::{
    mem_base, CpuSpec, FaultKind, FaultPlan, FaultSite, FaultSpec, FaultTrigger, InterconnectKind,
    MemSpec, SystemBuilder,
};

/// Full clock periods whose half-periods (3, 5, 7, 11, …) are pairwise
/// co-prime — the `exp_multiclock` set.
pub const PERIODS: [u64; 8] = [6, 10, 14, 22, 26, 34, 38, 46];

const MEM_BASE: u32 = 0x8000_0000;

/// The single-CPU quickstart: one alloc-churn core, one wrapper memory.
pub fn quickstart() -> SystemBuilder {
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_cpu(CpuSpec::new(workloads::alloc_churn(&WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 4,
        ..WorkloadCfg::default()
    })));
    b
}

/// The headline GSM pipeline: 4 stage CPUs sharing one wrapper memory
/// (the `exp_headline` / E1 configuration).
pub fn gsm_headline() -> SystemBuilder {
    let cfg = PipelineCfg {
        n_frames: 2,
        mem_bases: vec![mem_base(0)],
        seed: 0x5EED,
    };
    let mut b = SystemBuilder::new();
    for program in pipeline::stage_programs(&cfg) {
        b.add_cpu(CpuSpec::new(program));
    }
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b
}

/// One CPU per memory model (wrapper, SimHeap, static table) — the
/// model-overhead comparison shape.
pub fn memory_models() -> SystemBuilder {
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_memory(MemSpec::simheap(mem_base(1)));
    b.add_memory(MemSpec::static_table(mem_base(2)));
    for j in 0..3u32 {
        b.add_cpu(CpuSpec::new(workloads::scalar_rw(&WorkloadCfg {
            mem_base: mem_base(j as usize),
            iterations: 8,
            ..WorkloadCfg::default()
        })));
    }
    b
}

/// Crossbar with scalar-DMA traffic next to a CPU — the burst/stress
/// shape with statically-known master footprints.
pub fn dma_crossbar() -> SystemBuilder {
    let mut b = SystemBuilder::new().interconnect(InterconnectKind::Crossbar(Default::default()));
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_memory(MemSpec::static_table(mem_base(1)));
    b.add_cpu(CpuSpec::new(workloads::scalar_rw(&WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 8,
        ..WorkloadCfg::default()
    })));
    for j in 0..2 {
        b.add_master(Box::new(DmaEngine::new(DmaConfig {
            kind: DmaKind::Fill { seed: 0x100 * j },
            dst: mem_base(1),
            words: 64,
            passes: 2,
            ..DmaConfig::default()
        })));
    }
    b
}

/// The headline system with a (valid) fault plan installed.
pub fn faulty_headline() -> SystemBuilder {
    let plan = FaultPlan::new(0xF00D)
        .with(FaultSpec::new(
            FaultSite::MemOp {
                mem: 0,
                op: None,
                master: None,
            },
            FaultTrigger::Every {
                first: 100,
                period: 500,
            },
            FaultKind::Status(dmi_core::Status::Busy),
        ))
        .with(FaultSpec::new(
            FaultSite::BusAccess { master: Some(0) },
            FaultTrigger::Nth(1000),
            FaultKind::GrantStall { cycles: 3 },
        ));
    gsm_headline().faults(plan)
}

/// One hand-wired clock domain of the `exp_multiclock` topology: CPU +
/// endless burst DMA + wrapper memory on a private bus, everything
/// subscribed to its own clock only.
fn add_domain(sim: &mut Simulator, domain: usize, period: u64) {
    let clk = sim.add_clock(format!("clk{domain}"), period);

    let program = workloads::scalar_rw(&WorkloadCfg {
        mem_base: MEM_BASE,
        iterations: u32::MAX / 64,
        buf_words: 16 + 8 * (domain as u32 % 3),
        ..WorkloadCfg::default()
    });
    let cports = BusMasterPorts::declare(sim, &format!("d{domain}.cpu.bus"));
    let halted = sim.wire(format!("d{domain}.cpu.halted"), 1);
    let mut core = CpuCore::new(0, LocalMemory::new(0, 0x40000));
    core.load_program(&program);
    let cpu = CpuComponent::new(format!("d{domain}.cpu"), core, clk, cports, halted);
    let cpu_id = sim.add_component(Box::new(cpu));
    sim.subscribe(cpu_id, clk, Edge::Rising);

    let dports = MasterIf::declare(sim, &format!("d{domain}.dma.bus"));
    let done = sim.wire(format!("d{domain}.dma.done"), 1);
    let spec: Box<dyn BusMaster> = Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill {
            seed: 0x1000 * domain as u32,
        },
        dst: MEM_BASE,
        words: 64,
        passes: u32::MAX / 128,
        burst: Some(BurstSpec {
            beats: 16,
            verify: false,
            at: None,
        }),
        ..DmaConfig::default()
    }));
    let dma = spec.into_component(
        format!("d{domain}.dma"),
        MasterWiring {
            clk,
            ports: dports,
            done,
        },
    );
    let dma_id = sim.add_component(dma);
    sim.subscribe(dma_id, clk, Edge::Rising);

    let sports = SlavePorts::declare(sim, &format!("d{domain}.mem.s"));
    let mem_id = sim.add_component(Box::new(MemoryModule::new(
        format!("d{domain}.mem"),
        clk,
        sports,
        MEM_BASE,
        Box::new(WrapperBackend::new(WrapperConfig::default())),
    )));
    sim.subscribe(mem_id, clk, Edge::Rising);

    let mut map = AddressMap::new();
    map.try_add(MEM_BASE, 0x1_0000, 0).expect("valid scenario map");
    let bus = SharedBus::new(
        format!("d{domain}.bus"),
        clk,
        vec![MasterIf::from(cports), dports],
        vec![SlaveIf {
            req: sports.req,
            we: sports.we,
            size: sports.size,
            addr: sports.addr,
            wdata: sports.wdata,
            master: sports.master,
            ack: sports.ack,
            rdata: sports.rdata,
        }],
        map,
        BusConfig::default(),
    );
    let bus_id = sim.add_component(Box::new(bus));
    sim.subscribe(bus_id, clk, Edge::Rising);
}

/// The hand-wired `exp_multiclock` topology: `n_domains` independent
/// clock domains at pairwise co-prime half-periods (at most
/// [`PERIODS.len()`]). The analyzer sees it through
/// [`SystemGraph::from_simulator`](dmi_system::SystemGraph::from_simulator).
pub fn multiclock_sim(n_domains: usize) -> Simulator {
    assert!(n_domains >= 1 && n_domains <= PERIODS.len());
    let mut sim = Simulator::new();
    for (d, &period) in PERIODS.iter().take(n_domains).enumerate() {
        add_domain(&mut sim, d, period);
    }
    sim
}

// ---------------------------------------------------------------------------
// Scenario farm wiring (`dmi-bench farm`, `exp_farm`)

/// DMA burst traffic against the crossbar: the `exp_burst` shape as a
/// farm leg — heavier bursts than [`dma_crossbar`], single pass so the
/// final state is budget-sensitive.
pub fn dma_burst() -> SystemBuilder {
    let mut b = SystemBuilder::new().interconnect(InterconnectKind::Crossbar(Default::default()));
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    for j in 0..2u32 {
        b.add_master(Box::new(DmaEngine::new(DmaConfig {
            kind: DmaKind::Fill { seed: 0xB00 + j },
            dst: mem_base(0),
            words: 256,
            passes: 4,
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

/// A verifying burst DMA against a memory that randomly answers Busy
/// (seeded fault plan, replay-exact): the recovery-under-faults leg.
pub fn lossy_dma() -> SystemBuilder {
    let plan = FaultPlan::new(0xDEAD_BEEF).with(FaultSpec::new(
        FaultSite::MemOp {
            mem: 0,
            op: None,
            master: None,
        },
        FaultTrigger::Random {
            threshold: 0x2000_0000,
        },
        FaultKind::Status(dmi_core::Status::Busy),
    ));
    let mut b = SystemBuilder::new().faults(plan);
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 0xC0DE },
        dst: mem_base(0),
        words: 64,
        passes: 8,
        burst: Some(BurstSpec {
            beats: 16,
            verify: true,
            at: None,
        }),
        retry: Some(dmi_masters::RetryPolicy {
            max_retries: 10,
            backoff_cycles: 4,
            escalate: false,
        }),
        ..DmaConfig::default()
    })));
    b
}

/// Three CPUs churning deep allocation traffic on one SimHeap memory:
/// the allocator-pressure leg.
pub fn alloc_deep() -> SystemBuilder {
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::simheap(mem_base(0)));
    for j in 0..3u32 {
        b.add_cpu(CpuSpec::new(workloads::alloc_churn(&WorkloadCfg {
            mem_base: mem_base(0),
            iterations: 24 + 8 * j,
            ..WorkloadCfg::default()
        })));
    }
    b
}

/// A DMA fill that never finishes: farm watchdog fodder (used by the
/// `--inject-hang` probe leg, never in the stock catalog).
pub fn endless() -> SystemBuilder {
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 3 },
        dst: mem_base(0),
        words: 16,
        passes: u32::MAX,
        ..DmaConfig::default()
    })));
    b
}

/// Every builder-level scenario as a farm factory. (The hand-wired
/// `multiclock` topology is excluded: it bypasses `SystemBuilder` and
/// its workloads are endless by design.)
pub fn farm_registry() -> dmi_farm::Registry {
    let mut r = dmi_farm::Registry::new();
    r.register("quickstart", quickstart);
    r.register("gsm_headline", gsm_headline);
    r.register("memory_models", memory_models);
    r.register("dma_crossbar", dma_crossbar);
    r.register("faults", faulty_headline);
    r.register("dma_burst", dma_burst);
    r.register("lossy_dma", lossy_dma);
    r.register("alloc_deep", alloc_deep);
    r.register("endless", endless);
    r
}

/// The stock 8-leg farm catalog over [`farm_registry`]: every
/// experiment scenario with a checkpointed, retry-once envelope. Cycle
/// budgets sit past each scenario's natural halt except `gsm_headline`
/// (pinned to the paper's 436,964-cycle headline run, which ends in
/// `CycleBudget`).
pub fn farm_catalog() -> dmi_farm::Catalog {
    let mut c = dmi_farm::Catalog::new();
    let leg = |name: &str, system: &str, cycles: u64, ck: u64| {
        dmi_farm::ScenarioSpec::new(name, system, cycles)
            .checkpoint(ck)
            .retries(1)
            .deadline_ms(60_000)
    };
    c.push(leg("quickstart", "quickstart", 400_000, 50_000));
    c.push(leg("gsm_headline", "gsm_headline", 436_964, 50_000));
    c.push(leg("memory_models", "memory_models", 200_000, 25_000));
    c.push(leg("dma_crossbar", "dma_crossbar", 100_000, 10_000));
    c.push(leg("faults", "faults", 436_964, 50_000));
    c.push(leg("dma_burst", "dma_burst", 100_000, 10_000));
    c.push(leg("lossy_dma", "lossy_dma", 100_000, 10_000));
    c.push(leg("alloc_deep", "alloc_deep", 600_000, 50_000));
    c
}
