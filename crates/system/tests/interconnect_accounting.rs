//! Exact interconnect accounting on a saturated 16-master system.
//!
//! `KernelStats` pins see cycles, events and wakes, but not the
//! interconnect's own bookkeeping: a wait cycle booked to the wrong
//! master, or a grant counted twice, leaves the simulated behaviour alone
//! and passes them. These tests pin every `BusStats` counter and every
//! master's `MasterStats` of the 16-master DMA shape (12 scalar fill
//! engines over 4 static tables, 4 verifying burst engines on a wrapper)
//! on the crossbar and on the shared bus, under both arbitration
//! policies, plus one DMA copy whose transactions alternate crossbar
//! lanes.

use dmi_interconnect::{ArbiterKind, BusConfig, CrossbarConfig, MasterStats};
use dmi_masters::{BurstSpec, DmaConfig, DmaEngine, DmaKind};
use dmi_system::{mem_base, InterconnectKind, MemSpec, RunReport, SystemBuilder};

/// The 16-master shape: scalar engine `i` fills its own 4 KiB slot of
/// static table `i % 4`; the burst engines each allocate and verify a
/// block on the wrapper (memory 4).
fn storm(ic: InterconnectKind) -> RunReport {
    let mut b = SystemBuilder::new().interconnect(ic);
    for j in 0..4 {
        b.add_memory(MemSpec::static_table(mem_base(j)));
    }
    b.add_memory(MemSpec::wrapper(mem_base(4)));
    for i in 0..12u32 {
        b.add_master(Box::new(DmaEngine::new(DmaConfig {
            kind: DmaKind::Fill {
                seed: 0x100 * (i + 1),
            },
            dst: mem_base((i % 4) as usize) + (i / 4) * 0x1000,
            words: 64,
            passes: 2,
            ..DmaConfig::default()
        })));
    }
    for k in 0..4u32 {
        b.add_master(Box::new(DmaEngine::new(DmaConfig {
            kind: DmaKind::Fill {
                seed: 0xB000 + 0x100 * k,
            },
            dst: mem_base(4),
            words: 64,
            passes: 2,
            burst: Some(BurstSpec {
                beats: 16,
                verify: true,
                at: None,
            }),
            ..DmaConfig::default()
        })));
    }
    let r = b.build().expect("valid system").run(u64::MAX / 4);
    assert!(r.all_ok(), "{}", r.summary());
    r
}

/// The recorded outcome of one [`storm`] run. What every run shares
/// (transaction, grant and per-slave counts) is checked in [`check`].
struct Pin {
    cycles: u64,
    wait_cycles: [u64; 16],
    busy_cycles: u64,
    idle_cycles: u64,
    retained_grants: u64,
    /// `(active_cycles, bus_wait_cycles)` of each master.
    masters: [(u64, u64); 16],
}

fn check(r: &RunReport, pin: &Pin) {
    let scalar_then_burst = |scalar: u64, burst: u64| {
        let mut v = vec![scalar; 12];
        v.extend([burst; 4]);
        v
    };
    assert_eq!(r.sim_cycles, pin.cycles, "cycles");
    let bus = &r.bus;
    assert_eq!(bus.transactions, 2564, "transactions");
    assert_eq!(bus.decode_errors, 0, "decode errors");
    assert_eq!(bus.master_wait_cycles, pin.wait_cycles, "wait cycles");
    assert_eq!(bus.master_grants, scalar_then_burst(128, 257), "grants");
    assert_eq!(bus.slave_transactions, [384, 384, 384, 384, 1028], "per slave");
    assert_eq!(bus.busy_cycles, pin.busy_cycles, "busy cycles");
    assert_eq!(bus.idle_cycles, pin.idle_cycles, "idle cycles");
    assert_eq!(bus.retained_grants, pin.retained_grants, "retained grants");
    assert_eq!(r.masters.len(), 16);
    let transactions = scalar_then_burst(128, 257);
    for (i, m) in r.masters.iter().enumerate() {
        let (active_cycles, bus_wait_cycles) = pin.masters[i];
        let expected = MasterStats {
            active_cycles,
            bus_wait_cycles,
            transactions: transactions[i],
            done: true,
            ..MasterStats::default()
        };
        assert_eq!(m.stats, expected, "{}", m.name);
    }
}

#[test]
fn crossbar_round_robin_accounting_is_pinned() {
    let r = storm(InterconnectKind::Crossbar(CrossbarConfig::default()));
    check(
        &r,
        &Pin {
            cycles: 5117,
            wait_cycles: [
                1397, 1397, 1397, 1397, 1403, 1403, 1403, 1403, 1409, 1409, 1409, 1409, 3566,
                3571, 3576, 3581,
            ],
            busy_cycles: 5116,
            idle_cycles: 1,
            retained_grants: 0,
            masters: [
                (2293, 2037),
                (2293, 2037),
                (2293, 2037),
                (2293, 2037),
                (2299, 2043),
                (2299, 2043),
                (2299, 2043),
                (2299, 2043),
                (2305, 2049),
                (2305, 2049),
                (2305, 2049),
                (2305, 2049),
                (5102, 4588),
                (5107, 4593),
                (5112, 4598),
                (5117, 4603),
            ],
        },
    );
}

#[test]
fn crossbar_fixed_priority_with_latency_accounting_is_pinned() {
    let r = storm(InterconnectKind::Crossbar(CrossbarConfig {
        arbiter: ArbiterKind::FixedPriority,
        arbitration_latency: 1,
        burst_grant: true,
    }));
    check(
        &r,
        &Pin {
            cycles: 6145,
            wait_cycles: [
                762, 762, 762, 762, 769, 769, 769, 769, 1792, 1792, 1792, 1792, 1274, 1280, 4346,
                4352,
            ],
            busy_cycles: 6144,
            idle_cycles: 1,
            retained_grants: 508,
            masters: [
                (1786, 1530),
                (1786, 1530),
                (1786, 1530),
                (1786, 1530),
                (1793, 1537),
                (1793, 1537),
                (1793, 1537),
                (1793, 1537),
                (2689, 2433),
                (2689, 2433),
                (2689, 2433),
                (2689, 2433),
                (3067, 2553),
                (3073, 2559),
                (6139, 5625),
                (6145, 5631),
            ],
        },
    );
}

#[test]
fn shared_bus_round_robin_accounting_is_pinned() {
    let r = storm(InterconnectKind::SharedBus(BusConfig::default()));
    check(
        &r,
        &Pin {
            cycles: 16897,
            wait_cycles: [
                12700, 12707, 12714, 12721, 12728, 12735, 12742, 12749, 12756, 12763, 12770,
                12777, 15086, 15092, 15098, 15104,
            ],
            busy_cycles: 16896,
            idle_cycles: 1,
            retained_grants: 0,
            masters: [
                (13724, 13468),
                (13731, 13475),
                (13738, 13482),
                (13745, 13489),
                (13752, 13496),
                (13759, 13503),
                (13766, 13510),
                (13773, 13517),
                (13780, 13524),
                (13787, 13531),
                (13794, 13538),
                (13801, 13545),
                (16879, 16365),
                (16885, 16371),
                (16891, 16377),
                (16897, 16383),
            ],
        },
    );
}

#[test]
fn shared_bus_fixed_priority_with_latency_accounting_is_pinned() {
    let r = storm(InterconnectKind::SharedBus(BusConfig {
        arbiter: ArbiterKind::FixedPriority,
        arbitration_latency: 2,
        burst_grant: true,
    }));
    check(
        &r,
        &Pin {
            cycles: 19461,
            wait_cycles: [
                889, 897, 2937, 2945, 4985, 4993, 7033, 7041, 9081, 9089, 11129, 11137, 13818,
                13825, 17404, 17411,
            ],
            busy_cycles: 19460,
            idle_cycles: 1,
            retained_grants: 0,
            masters: [
                (2041, 1785),
                (2049, 1793),
                (4089, 3833),
                (4097, 3841),
                (6137, 5881),
                (6145, 5889),
                (8185, 7929),
                (8193, 7937),
                (10233, 9977),
                (10241, 9985),
                (12281, 12025),
                (12289, 12033),
                (15868, 15354),
                (15875, 15361),
                (19454, 18940),
                (19461, 18947),
            ],
        },
    );
}

#[test]
fn crossbar_copy_alternates_lanes() {
    // dma0 fills 16 words of mem0; dma1 copies them to mem1 three times
    // over. Each copied word is a read on lane 0 followed by a write on
    // lane 1, so one master's consecutive transactions alternate lanes.
    // The fill finishes within the copy's first pass, so the last pass
    // carries the final pattern.
    const WORDS: u32 = 16;
    const DST_OFF: u32 = 0x100;
    let mut b =
        SystemBuilder::new().interconnect(InterconnectKind::Crossbar(CrossbarConfig::default()));
    let src = b.add_memory(MemSpec::static_table(mem_base(0)));
    let dst = b.add_memory(MemSpec::static_table(mem_base(1)));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 0xC0DE },
        dst: mem_base(0),
        words: WORDS,
        ..DmaConfig::default()
    })));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Copy { src: mem_base(0) },
        dst: mem_base(1) + DST_OFF,
        words: WORDS,
        passes: 3,
        ..DmaConfig::default()
    })));
    let mut sys = b.build().expect("valid system");
    let r = sys.run(u64::MAX / 4);
    assert!(r.all_ok(), "{}", r.summary());

    for w in 0..WORDS {
        let expected = DmaConfig::fill_word(0xC0DE, WORDS, 0, w);
        assert_eq!(sys.watch_value(src, w * 4), Some(expected), "src word {w}");
        assert_eq!(
            sys.watch_value(dst, DST_OFF + w * 4),
            Some(expected),
            "dst word {w}"
        );
    }
    // Lane 0: 16 fill writes + 3 × 16 copy reads; lane 1: 3 × 16 copy
    // writes.
    assert_eq!(r.bus.slave_transactions, [64, 48]);
    assert_eq!(r.bus.master_grants, [16, 96]);
    assert_eq!(r.bus.transactions, 112);
    assert_eq!(r.bus.master_wait_cycles, [40, 41]);
    assert_eq!((r.bus.busy_cycles, r.bus.idle_cycles), (632, 81));
    assert_eq!(r.sim_cycles, 713);
    assert_eq!(r.masters[1].stats.transactions, 96);
}
