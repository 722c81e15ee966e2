//! Behavioural tests of the interconnect models using scripted masters and
//! a configurable-latency RAM slave (no CPU / memory-model dependencies).

use std::any::Any;

use dmi_interconnect::{
    AddressMap, ArbiterKind, BusConfig, Crossbar, CrossbarConfig, MasterIf, SharedBus, SlaveIf,
    DECODE_ERROR_DATA, MAX_MASTERS,
};
use dmi_kernel::{Component, Ctx, Edge, Simulator, Wake, Wire};

/// A slave RAM with fixed latency, speaking the slave handshake.
#[derive(Debug)]
struct TestRam {
    clk: Wire,
    ports: SlaveIf,
    base: u32,
    bytes: Vec<u8>,
    latency: u64,
    state: RamState,
    served: u64,
    /// Master index seen on the most recent transaction.
    last_master: u64,
}

#[derive(Debug, Clone, Copy)]
enum RamState {
    Idle,
    Exec { remaining: u64, data: u32 },
    AckWait,
}

impl Component for TestRam {
    fn name(&self) -> &str {
        "test_ram"
    }
    fn wake(&mut self, ctx: &mut Ctx<'_>) {
        match ctx.cause() {
            Wake::Start => {
                ctx.write_bit(self.ports.ack, false);
            }
            Wake::Signal(_) if ctx.is_signal(self.clk) => match self.state {
                RamState::Idle => {
                    if ctx.read_bit(self.ports.req) {
                        let addr = ctx.read(self.ports.addr) as u32;
                        let off = (addr - self.base) as usize;
                        self.last_master = ctx.read(self.ports.master);
                        let data = if ctx.read_bit(self.ports.we) {
                            let w = ctx.read(self.ports.wdata) as u32;
                            self.bytes[off..off + 4].copy_from_slice(&w.to_le_bytes());
                            0
                        } else {
                            u32::from_le_bytes([
                                self.bytes[off],
                                self.bytes[off + 1],
                                self.bytes[off + 2],
                                self.bytes[off + 3],
                            ])
                        };
                        self.state = RamState::Exec {
                            remaining: self.latency,
                            data,
                        };
                    }
                }
                RamState::Exec { remaining, data } => {
                    if remaining <= 1 {
                        ctx.write_bit(self.ports.ack, true);
                        ctx.write(self.ports.rdata, data as u64);
                        self.served += 1;
                        self.state = RamState::AckWait;
                    } else {
                        self.state = RamState::Exec {
                            remaining: remaining - 1,
                            data,
                        };
                    }
                }
                RamState::AckWait => {
                    ctx.write_bit(self.ports.ack, false);
                    if !ctx.read_bit(self.ports.req) {
                        self.state = RamState::Idle;
                    }
                }
            },
            _ => {}
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A master that performs a fixed list of `(addr, we, wdata)` transactions
/// back to back and records results and per-transaction latency.
#[derive(Debug)]
struct TestMaster {
    clk: Wire,
    ports: MasterIf,
    script: Vec<(u32, bool, u32)>,
    results: Vec<u32>,
    latencies: Vec<u64>,
    cycle: u64,
    issued_at: u64,
    index: usize,
    busy: bool,
    done_wire: Wire,
}

impl Component for TestMaster {
    fn name(&self) -> &str {
        "test_master"
    }
    fn wake(&mut self, ctx: &mut Ctx<'_>) {
        match ctx.cause() {
            Wake::Start => {
                ctx.write_bit(self.ports.req, false);
                // An empty script is complete immediately.
                ctx.write_bit(self.done_wire, self.script.is_empty());
            }
            Wake::Signal(_) if ctx.is_signal(self.clk) => {
                self.cycle += 1;
                if self.busy {
                    if ctx.read_bit(self.ports.ack) {
                        self.results.push(ctx.read(self.ports.rdata) as u32);
                        self.latencies.push(self.cycle - self.issued_at);
                        ctx.write_bit(self.ports.req, false);
                        self.busy = false;
                        self.index += 1;
                        if self.index == self.script.len() {
                            ctx.write_bit(self.done_wire, true);
                        }
                    }
                    return;
                }
                if self.index < self.script.len() {
                    let (addr, we, wdata) = self.script[self.index];
                    ctx.write_bit(self.ports.req, true);
                    ctx.write_bit(self.ports.we, we);
                    ctx.write(self.ports.addr, addr as u64);
                    ctx.write(self.ports.wdata, wdata as u64);
                    ctx.write(self.ports.size, 2);
                    self.issued_at = self.cycle;
                    self.busy = true;
                }
            }
            _ => {}
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Stops the simulation when every `done` wire is high.
#[derive(Debug)]
struct AllDone {
    wires: Vec<Wire>,
}
impl Component for AllDone {
    fn name(&self) -> &str {
        "all_done"
    }
    fn wake(&mut self, ctx: &mut Ctx<'_>) {
        if matches!(ctx.cause(), Wake::Signal(_)) && self.wires.iter().all(|&w| ctx.read_bit(w))
        {
            ctx.stop("all masters done");
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const MEM0: u32 = 0x8000_0000;
const MEM1: u32 = 0x9000_0000;

struct Harness {
    sim: Simulator,
    master_ids: Vec<dmi_kernel::ComponentId>,
    bus_id: dmi_kernel::ComponentId,
    ram_ids: Vec<dmi_kernel::ComponentId>,
}

/// Builds `n_masters` scripted masters, `n_rams` RAM slaves and the chosen
/// interconnect, runs until every script completes.
fn run_system(
    scripts: Vec<Vec<(u32, bool, u32)>>,
    n_rams: usize,
    ram_latency: u64,
    crossbar: bool,
) -> Harness {
    run_system_full(
        scripts,
        n_rams,
        ram_latency,
        crossbar,
        BusConfig::default(),
        CrossbarConfig::default(),
    )
}

/// [`run_system`] with an explicit crossbar configuration.
fn run_system_xbar(
    scripts: Vec<Vec<(u32, bool, u32)>>,
    n_rams: usize,
    ram_latency: u64,
    xbar_config: CrossbarConfig,
) -> Harness {
    run_system_full(
        scripts,
        n_rams,
        ram_latency,
        true,
        BusConfig::default(),
        xbar_config,
    )
}

/// [`run_system`] with an explicit shared-bus configuration.
fn run_system_cfg(
    scripts: Vec<Vec<(u32, bool, u32)>>,
    n_rams: usize,
    ram_latency: u64,
    crossbar: bool,
    bus_config: BusConfig,
) -> Harness {
    run_system_full(
        scripts,
        n_rams,
        ram_latency,
        crossbar,
        bus_config,
        CrossbarConfig::default(),
    )
}

fn run_system_full(
    scripts: Vec<Vec<(u32, bool, u32)>>,
    n_rams: usize,
    ram_latency: u64,
    crossbar: bool,
    bus_config: BusConfig,
    xbar_config: CrossbarConfig,
) -> Harness {
    let mut sim = Simulator::new();
    let clk = sim.add_clock("clk", 2);

    let mut masters = Vec::new();
    let mut done_wires = Vec::new();
    let mut master_ids = Vec::new();
    for (i, script) in scripts.into_iter().enumerate() {
        let ports = MasterIf::declare(&mut sim, &format!("m{i}"));
        let done = sim.wire(format!("m{i}.done"), 1);
        let id = sim.add_component(Box::new(TestMaster {
            clk,
            ports,
            script,
            results: Vec::new(),
            latencies: Vec::new(),
            cycle: 0,
            issued_at: 0,
            index: 0,
            busy: false,
            done_wire: done,
        }));
        sim.subscribe(id, clk, Edge::Rising);
        masters.push(ports);
        done_wires.push(done);
        master_ids.push(id);
    }

    let mut slaves = Vec::new();
    let mut ram_ids = Vec::new();
    let mut map = AddressMap::new();
    for s in 0..n_rams {
        let ports = SlaveIf::declare(&mut sim, &format!("s{s}"));
        let base = if s == 0 { MEM0 } else { MEM1 };
        map.try_add(base, 0x1000, s).unwrap();
        let id = sim.add_component(Box::new(TestRam {
            clk,
            ports,
            base,
            bytes: vec![0; 0x1000],
            latency: ram_latency,
            state: RamState::Idle,
            served: 0,
            last_master: 0,
        }));
        sim.subscribe(id, clk, Edge::Rising);
        slaves.push(ports);
        ram_ids.push(id);
    }

    let bus_id = if crossbar {
        let xbar = Crossbar::with_config(
            "xbar",
            clk,
            masters.clone(),
            slaves.clone(),
            map,
            xbar_config,
        );
        let id = sim.add_component(Box::new(xbar));
        sim.subscribe(id, clk, Edge::Rising);
        id
    } else {
        let bus = SharedBus::new(
            "bus",
            clk,
            masters.clone(),
            slaves.clone(),
            map,
            bus_config,
        );
        let id = sim.add_component(Box::new(bus));
        sim.subscribe(id, clk, Edge::Rising);
        id
    };

    let mon = sim.add_component(Box::new(AllDone {
        wires: done_wires.clone(),
    }));
    for w in done_wires {
        sim.subscribe(mon, w, Edge::Rising);
    }

    let summary = sim.run_until_stopped(10_000_000);
    assert!(
        summary.stop.is_some() && !summary.is_error(),
        "system did not finish: {:?}",
        summary.stop
    );
    Harness {
        sim,
        master_ids,
        bus_id,
        ram_ids,
    }
}

fn master_results(h: &Harness, i: usize) -> (Vec<u32>, Vec<u64>) {
    let m: &TestMaster = h.sim.component(h.master_ids[i]).unwrap();
    (m.results.clone(), m.latencies.clone())
}

#[test]
fn single_master_write_then_read() {
    let h = run_system(
        vec![vec![
            (MEM0 + 0x10, true, 0xAABB_CCDD),
            (MEM0 + 0x10, false, 0),
            (MEM0 + 0x20, false, 0),
        ]],
        1,
        1,
        false,
    );
    let (results, latencies) = master_results(&h, 0);
    assert_eq!(results[1], 0xAABB_CCDD);
    assert_eq!(results[2], 0, "untouched RAM reads zero");
    // Latency is deterministic and identical for identical transactions.
    assert_eq!(latencies[1], latencies[2]);
}

#[test]
fn unmapped_address_returns_error_marker() {
    let h = run_system(vec![vec![(0x7000_0000, false, 0)]], 1, 1, false);
    let (results, _) = master_results(&h, 0);
    assert_eq!(results[0], DECODE_ERROR_DATA);
    let bus: &SharedBus = h.sim.component(h.bus_id).unwrap();
    assert_eq!(bus.stats().decode_errors, 1);
}

#[test]
fn two_masters_share_bus_fairly() {
    let script: Vec<_> = (0..20).map(|i| (MEM0 + i * 4, true, i)).collect();
    let script2: Vec<_> = (0..20).map(|i| (MEM0 + 0x800 + i * 4, true, i)).collect();
    let h = run_system(vec![script, script2], 1, 1, false);
    let bus: &SharedBus = h.sim.component(h.bus_id).unwrap();
    let stats = bus.stats();
    assert_eq!(stats.transactions, 40);
    // Round-robin: grants within 1 of each other.
    let g = &stats.master_grants;
    assert!((g[0] as i64 - g[1] as i64).abs() <= 1, "grants {g:?}");
    // Both masters experienced contention.
    assert!(stats.master_wait_cycles.iter().all(|&w| w > 0));
    assert!(stats.utilisation() > 0.5);
}

#[test]
fn contention_slows_masters_down() {
    let script: Vec<_> = (0..10).map(|i| (MEM0 + i * 4, false, 0)).collect();
    let solo = run_system(vec![script.clone()], 1, 2, false);
    let (_, solo_lat) = master_results(&solo, 0);
    let duo = run_system(vec![script.clone(), script], 1, 2, false);
    let (_, duo_lat) = master_results(&duo, 0);
    let solo_avg: u64 = solo_lat.iter().sum::<u64>() / solo_lat.len() as u64;
    let duo_avg: u64 = duo_lat.iter().sum::<u64>() / duo_lat.len() as u64;
    assert!(
        duo_avg > solo_avg,
        "contended latency {duo_avg} should exceed solo latency {solo_avg}"
    );
}

#[test]
fn crossbar_parallelises_distinct_slaves() {
    let s0: Vec<_> = (0..10).map(|i| (MEM0 + i * 4, false, 0)).collect();
    let s1: Vec<_> = (0..10).map(|i| (MEM1 + i * 4, false, 0)).collect();

    // On the shared bus, the two streams contend.
    let bus = run_system(vec![s0.clone(), s1.clone()], 2, 2, false);
    let (_, lat_bus) = master_results(&bus, 0);

    // On the crossbar, they proceed in parallel.
    let xbar = run_system(vec![s0, s1], 2, 2, true);
    let (_, lat_xbar) = master_results(&xbar, 0);

    let avg_bus: u64 = lat_bus.iter().sum::<u64>() / lat_bus.len() as u64;
    let avg_xbar: u64 = lat_xbar.iter().sum::<u64>() / lat_xbar.len() as u64;
    assert!(
        avg_xbar < avg_bus,
        "crossbar ({avg_xbar}) should beat shared bus ({avg_bus}) on disjoint targets"
    );
    let x: &Crossbar = xbar.sim.component(xbar.bus_id).unwrap();
    assert_eq!(x.stats().transactions, 20);
}

#[test]
fn slave_sees_master_index() {
    let h = run_system(
        vec![vec![], vec![(MEM0, true, 1)]], // only master 1 issues
        1,
        1,
        false,
    );
    let ram: &TestRam = h.sim.component(h.ram_ids[0]).unwrap();
    assert_eq!(ram.last_master, 1);
    assert_eq!(ram.served, 1);
}

#[test]
fn address_decode_routes_to_correct_slave() {
    let h = run_system(
        vec![vec![
            (MEM0 + 4, true, 0x11),
            (MEM1 + 4, true, 0x22),
            (MEM0 + 4, false, 0),
            (MEM1 + 4, false, 0),
        ]],
        2,
        1,
        false,
    );
    let (results, _) = master_results(&h, 0);
    assert_eq!(results[2], 0x11);
    assert_eq!(results[3], 0x22);
    let bus: &SharedBus = h.sim.component(h.bus_id).unwrap();
    assert_eq!(bus.stats().slave_transactions, vec![2, 2]);
}

#[test]
fn fixed_priority_prefers_low_index() {
    // Custom run with FixedPriority config.
    let mut sim = Simulator::new();
    let clk = sim.add_clock("clk", 2);
    let m0 = MasterIf::declare(&mut sim, "m0");
    let m1 = MasterIf::declare(&mut sim, "m1");
    let d0 = sim.wire("d0", 1);
    let d1 = sim.wire("d1", 1);
    let s0 = SlaveIf::declare(&mut sim, "s0");
    let mut map = AddressMap::new();
    map.try_add(MEM0, 0x1000, 0).unwrap();
    let mk_script = |n: u32| (0..n).map(|i| (MEM0 + i * 4, false, 0)).collect::<Vec<_>>();
    let a = sim.add_component(Box::new(TestMaster {
        clk,
        ports: m0,
        script: mk_script(10),
        results: vec![],
        latencies: vec![],
        cycle: 0,
        issued_at: 0,
        index: 0,
        busy: false,
        done_wire: d0,
    }));
    sim.subscribe(a, clk, Edge::Rising);
    let b = sim.add_component(Box::new(TestMaster {
        clk,
        ports: m1,
        script: mk_script(10),
        results: vec![],
        latencies: vec![],
        cycle: 0,
        issued_at: 0,
        index: 0,
        busy: false,
        done_wire: d1,
    }));
    sim.subscribe(b, clk, Edge::Rising);
    let ram = sim.add_component(Box::new(TestRam {
        clk,
        ports: s0,
        base: MEM0,
        bytes: vec![0; 0x1000],
        latency: 2,
        state: RamState::Idle,
        served: 0,
        last_master: 0,
    }));
    sim.subscribe(ram, clk, Edge::Rising);
    let bus = SharedBus::new(
        "bus",
        clk,
        vec![m0, m1],
        vec![s0],
        map,
        BusConfig {
            arbiter: ArbiterKind::FixedPriority,
            arbitration_latency: 1,
            ..BusConfig::default()
        },
    );
    let bid = sim.add_component(Box::new(bus));
    sim.subscribe(bid, clk, Edge::Rising);
    let mon = sim.add_component(Box::new(AllDone {
        wires: vec![d0, d1],
    }));
    sim.subscribe(mon, d0, Edge::Rising);
    sim.subscribe(mon, d1, Edge::Rising);
    let summary = sim.run_until_stopped(1_000_000);
    assert!(summary.stop.is_some());
    // Master 1 (low priority) waited more than master 0.
    let bus: &SharedBus = sim.component(bid).unwrap();
    let w = bus.stats().master_wait_cycles;
    assert!(
        w[1] > w[0],
        "fixed priority should starve master 1: waits {w:?}"
    );
}

#[test]
fn burst_grant_elides_rearbitration_for_streams() {
    // One master streaming 20 accesses to the same slave: with grant
    // retention every transaction after the first skips the
    // arbitration-latency phase, so per-transaction latency drops.
    let script: Vec<(u32, bool, u32)> = (0..20).map(|i| (MEM0 + i * 4, false, 0)).collect();
    let slow = run_system_cfg(vec![script.clone()], 1, 1, false, BusConfig::default());
    let fast = run_system_cfg(
        vec![script],
        1,
        1,
        false,
        BusConfig {
            burst_grant: true,
            ..BusConfig::default()
        },
    );
    let (r_slow, l_slow) = master_results(&slow, 0);
    let (r_fast, l_fast) = master_results(&fast, 0);
    assert_eq!(r_slow, r_fast, "burst grant never changes data");
    let total_slow: u64 = l_slow.iter().sum();
    let total_fast: u64 = l_fast.iter().sum();
    assert!(
        total_fast + 19 <= total_slow,
        "retained grants should save one cycle per back-to-back transfer: {total_fast} vs {total_slow}"
    );
    let bus: &SharedBus = fast.sim.component(fast.bus_id).unwrap();
    assert_eq!(bus.stats().retained_grants, 19, "all but the first retain");
    let bus: &SharedBus = slow.sim.component(slow.bus_id).unwrap();
    assert_eq!(bus.stats().retained_grants, 0, "off by default");
}

#[test]
fn burst_grant_preserves_fairness_under_contention() {
    // Two masters hammering the same slave: retention must not starve the
    // round-robin loser — both scripts still complete, and grants stay
    // balanced.
    let script: Vec<(u32, bool, u32)> = (0..16).map(|i| (MEM0 + i * 4, false, 0)).collect();
    let h = run_system_cfg(
        vec![script.clone(), script],
        1,
        1,
        false,
        BusConfig {
            burst_grant: true,
            ..BusConfig::default()
        },
    );
    let bus: &SharedBus = h.sim.component(h.bus_id).unwrap();
    let g = bus.stats().master_grants.clone();
    assert!(
        (g[0] as i64 - g[1] as i64).abs() <= 1,
        "round-robin fairness survives grant retention: {g:?}"
    );
}

#[test]
fn crossbar_arbitration_latency_slows_lanes() {
    // The same stream with a 1-cycle arbitration phase per transaction is
    // strictly slower than the default forward-in-grant-cycle timing.
    let script: Vec<(u32, bool, u32)> = (0..10).map(|i| (MEM0 + i * 4, false, 0)).collect();
    let fast = run_system_xbar(vec![script.clone()], 1, 1, CrossbarConfig::default());
    let slow = run_system_xbar(
        vec![script],
        1,
        1,
        CrossbarConfig {
            arbitration_latency: 1,
            ..CrossbarConfig::default()
        },
    );
    let (r_fast, l_fast) = master_results(&fast, 0);
    let (r_slow, l_slow) = master_results(&slow, 0);
    assert_eq!(r_fast, r_slow, "latency never changes data");
    let t_fast: u64 = l_fast.iter().sum();
    let t_slow: u64 = l_slow.iter().sum();
    assert!(
        t_slow >= t_fast + 10,
        "one extra cycle per transaction: {t_slow} vs {t_fast}"
    );
}

#[test]
fn crossbar_burst_grant_elides_rearbitration_for_streams() {
    // Mirror of `burst_grant_elides_rearbitration_for_streams` on the
    // shared bus: one master streaming to one slave, with a 1-cycle
    // arbitration phase. Retention removes it for every transaction after
    // the first.
    let script: Vec<(u32, bool, u32)> = (0..20).map(|i| (MEM0 + i * 4, false, 0)).collect();
    let base = CrossbarConfig {
        arbitration_latency: 1,
        ..CrossbarConfig::default()
    };
    let slow = run_system_xbar(vec![script.clone()], 1, 1, base);
    let fast = run_system_xbar(
        vec![script],
        1,
        1,
        CrossbarConfig {
            burst_grant: true,
            ..base
        },
    );
    let (r_slow, l_slow) = master_results(&slow, 0);
    let (r_fast, l_fast) = master_results(&fast, 0);
    assert_eq!(r_slow, r_fast, "burst grant never changes data");
    let total_slow: u64 = l_slow.iter().sum();
    let total_fast: u64 = l_fast.iter().sum();
    assert!(
        total_fast + 19 <= total_slow,
        "retained grants should save one cycle per back-to-back transfer: \
         {total_fast} vs {total_slow}"
    );
    let x: &Crossbar = fast.sim.component(fast.bus_id).unwrap();
    assert_eq!(x.stats().retained_grants, 19, "all but the first retain");
    let x: &Crossbar = slow.sim.component(slow.bus_id).unwrap();
    assert_eq!(x.stats().retained_grants, 0, "off by default");
}

#[test]
fn crossbar_burst_grant_retains_per_lane() {
    // Two masters streaming to *different* slaves: each lane retains its
    // own master's grant independently — full parallelism plus retention.
    let s0: Vec<_> = (0..10).map(|i| (MEM0 + i * 4, false, 0)).collect();
    let s1: Vec<_> = (0..10).map(|i| (MEM1 + i * 4, false, 0)).collect();
    let h = run_system_xbar(
        vec![s0, s1],
        2,
        1,
        CrossbarConfig {
            arbitration_latency: 1,
            burst_grant: true,
            ..CrossbarConfig::default()
        },
    );
    let x: &Crossbar = h.sim.component(h.bus_id).unwrap();
    let stats = x.stats();
    assert_eq!(stats.transactions, 20);
    assert_eq!(
        stats.retained_grants, 18,
        "each lane retains all but its first grant"
    );
}

#[test]
#[should_panic(expected = "at most 16 bus masters (master id is 4 bits), got 17")]
fn crossbar_rejects_more_masters_than_the_master_id_holds() {
    let mut sim = Simulator::new();
    let clk = sim.add_clock("clk", 2);
    let masters = (0..=MAX_MASTERS)
        .map(|i| MasterIf::declare(&mut sim, &format!("m{i}")))
        .collect();
    let slaves = vec![SlaveIf::declare(&mut sim, "s0")];
    let mut map = AddressMap::new();
    map.try_add(MEM0, 0x1000, 0).unwrap();
    Crossbar::new("xbar", clk, masters, slaves, map, ArbiterKind::RoundRobin);
}

#[test]
fn crossbar_burst_grant_preserves_fairness_under_contention() {
    // Two masters hammering the same slave: retention must not starve the
    // round-robin loser.
    let script: Vec<(u32, bool, u32)> = (0..16).map(|i| (MEM0 + i * 4, false, 0)).collect();
    let h = run_system_xbar(
        vec![script.clone(), script],
        1,
        1,
        CrossbarConfig {
            arbitration_latency: 1,
            burst_grant: true,
            ..CrossbarConfig::default()
        },
    );
    let x: &Crossbar = h.sim.component(h.bus_id).unwrap();
    let g = x.stats().master_grants.clone();
    assert!(
        (g[0] as i64 - g[1] as i64).abs() <= 1,
        "round-robin fairness survives grant retention: {g:?}"
    );
}
