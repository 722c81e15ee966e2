//! End-to-end co-simulation tests: CPUs, bus, and memory modules running
//! real workload programs cycle by cycle.

use dmi_interconnect::CrossbarConfig;
use dmi_isa::Program;
use dmi_sw::{workloads, WorkloadCfg};
use dmi_system::{mem_base, CpuSpec, InterconnectKind, McSystem, MemSpec, SystemBuilder};

fn wcfg(iterations: u32) -> WorkloadCfg {
    WorkloadCfg {
        mem_base: mem_base(0),
        iterations,
        ..WorkloadCfg::default()
    }
}

/// One CPU per program and the given memories on `b`'s interconnect.
fn build_on(mut b: SystemBuilder, programs: Vec<Program>, mems: Vec<MemSpec>) -> McSystem {
    for program in programs {
        b.add_cpu(CpuSpec::new(program));
    }
    for mem in mems {
        b.add_memory(mem);
    }
    b.build().expect("valid system")
}

/// One CPU per program and the given memories on a shared bus.
fn build(programs: Vec<Program>, mems: Vec<MemSpec>) -> McSystem {
    build_on(SystemBuilder::new(), programs, mems)
}

/// One CPU per program, sharing one wrapper memory.
fn build_wrapper(programs: Vec<Program>) -> McSystem {
    build(programs, vec![MemSpec::wrapper(mem_base(0))])
}

#[test]
fn single_cpu_alloc_churn_cycle_true() {
    let mut sys = build_wrapper(vec![workloads::alloc_churn(&wcfg(10))]);
    let report = sys.run(10_000_000);
    assert!(report.all_ok(), "{}", report.summary());
    assert_eq!(report.mems[0].backend.allocs, 10);
    assert_eq!(report.mems[0].backend.frees, 10);
    assert!(report.cpus[0].cosim.transactions > 0);
    assert!(report.bus.transactions > 0);
    assert!(report.sim_cycles > 0);
}

#[test]
fn cycle_counts_are_reproducible() {
    let run = || {
        let mut sys = build_wrapper(vec![workloads::alloc_churn(&wcfg(5))]);
        let r = sys.run(10_000_000);
        assert!(r.all_ok());
        r.sim_cycles
    };
    assert_eq!(run(), run(), "co-simulation must be deterministic");
}

#[test]
fn producer_consumer_across_the_bus() {
    let cfg = wcfg(12);
    let mut sys = build_wrapper(vec![
        workloads::pipe_producer(&cfg),
        workloads::pipe_consumer(&cfg),
    ]);
    let report = sys.run(50_000_000);
    assert!(report.all_ok(), "{}", report.summary());
    // Both CPUs contended on the single bus.
    assert!(report.bus.master_wait_cycles.iter().any(|&w| w > 0));
}

#[test]
fn reservation_discipline_under_real_contention() {
    let cfg = wcfg(20);
    let mut sys = build_wrapper(vec![
        workloads::reserved_counter(&cfg, true),
        workloads::reserved_counter(&cfg, false),
        workloads::reserved_counter(&cfg, false),
    ]);
    let report = sys.run(200_000_000);
    assert!(report.all_ok(), "{}", report.summary());
    // Final counter value must be 3 * 20 with no lost updates; verify via
    // the wrapper's host storage.
    let module = sys.memory(0).expect("wrapper module");
    let backend = module
        .backend()
        .as_any()
        .downcast_ref::<dmi_core::WrapperBackend>()
        .expect("wrapper backend");
    let entry = backend.table().iter().next().expect("counter allocation");
    let counter = u32::from_le_bytes(entry.host.bytes()[0..4].try_into().unwrap());
    assert_eq!(counter, 60, "no lost updates under reservations");
}

#[test]
fn four_cpus_four_memories_topology() {
    // The paper's headline topology shape: each CPU gets its own memory.
    let mut programs = Vec::new();
    for i in 0..4 {
        programs.push(workloads::alloc_churn(&WorkloadCfg {
            mem_base: mem_base(i),
            iterations: 6,
            ..WorkloadCfg::default()
        }));
    }
    let mut sys = build(
        programs,
        (0..4).map(|i| MemSpec::wrapper(mem_base(i))).collect(),
    );
    assert_eq!(sys.cpu_count(), 4);
    assert_eq!(sys.mem_count(), 4);
    let report = sys.run(50_000_000);
    assert!(report.all_ok(), "{}", report.summary());
    for m in &report.mems {
        assert_eq!(m.backend.allocs, 6);
    }
}

#[test]
fn simheap_memory_runs_same_workload() {
    let mut sys = build(
        vec![workloads::alloc_churn(&wcfg(8))],
        vec![MemSpec::simheap(mem_base(0))],
    );
    let report = sys.run(50_000_000);
    assert!(report.all_ok(), "{}", report.summary());
    assert_eq!(report.mems[0].kind, "simheap");
    assert_eq!(report.mems[0].backend.allocs, 8);
}

#[test]
fn static_memory_serves_raw_traffic() {
    let mut sys = build(
        vec![workloads::scalar_rw_static(&wcfg(32))],
        vec![MemSpec::static_table(mem_base(0))],
    );
    let report = sys.run(10_000_000);
    assert!(report.all_ok(), "{}", report.summary());
    assert_eq!(report.mems[0].kind, "static");
    assert!(report.mems[0].module.transactions >= 64);
}

#[test]
fn crossbar_and_bus_give_same_results() {
    let cfg0 = WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 8,
        ..WorkloadCfg::default()
    };
    let cfg1 = WorkloadCfg {
        mem_base: mem_base(1),
        iterations: 8,
        ..WorkloadCfg::default()
    };
    let system_on = |ic: InterconnectKind| {
        build_on(
            SystemBuilder::new().interconnect(ic),
            vec![workloads::alloc_churn(&cfg0), workloads::alloc_churn(&cfg1)],
            vec![MemSpec::wrapper(mem_base(0)), MemSpec::wrapper(mem_base(1))],
        )
    };
    let mut bus_sys = system_on(InterconnectKind::SharedBus(Default::default()));
    let bus_report = bus_sys.run(50_000_000);
    assert!(bus_report.all_ok());

    let mut xbar_sys = system_on(InterconnectKind::Crossbar(CrossbarConfig::default()));
    let xbar_report = xbar_sys.run(50_000_000);
    assert!(xbar_report.all_ok());

    // Same functional outcome, fewer (or equal) cycles on the crossbar.
    assert!(
        xbar_report.sim_cycles <= bus_report.sim_cycles,
        "crossbar {} vs bus {}",
        xbar_report.sim_cycles,
        bus_report.sim_cycles
    );
}

#[test]
fn burst_workload_cycle_true() {
    let mut sys = build_wrapper(vec![workloads::burst_copy(&WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 4,
        burst_len: 16,
        ..WorkloadCfg::default()
    })]);
    let report = sys.run(20_000_000);
    assert!(report.all_ok(), "{}", report.summary());
    assert_eq!(report.mems[0].backend.burst_beats, 4 * 16 * 2);
}

#[test]
fn linked_list_cycle_true() {
    let mut sys = build_wrapper(vec![workloads::linked_list(&wcfg(16))]);
    let report = sys.run(50_000_000);
    assert!(report.all_ok(), "{}", report.summary());
}
