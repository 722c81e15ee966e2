//! Divergence bisection: two builds that differ only in a deterministic
//! fault plan diverge at the fault's first firing; the bisector must
//! localize that to one checkpoint-grid interval and produce a repro
//! that replays from the shared base snapshot.

use dmi_farm::bisect_divergence;
use dmi_masters::{BurstSpec, DmaConfig, DmaEngine, DmaKind, RetryPolicy};
use dmi_system::{
    mem_base, FaultKind, FaultPlan, FaultSite, FaultSpec, FaultTrigger, McSystem, MemSpec,
    SystemBuilder,
};

/// A DMA system carrying a one-spec fault plan that XOR-flips the 5th
/// write beat with `mask`. The two variants under bisection differ
/// *only* in the mask: `0` is an armed no-op (same trigger bookkeeping,
/// same RNG stream, identical serialized fault state), a non-zero mask
/// corrupts stored data — so their snapshots are bit-identical until
/// the fault fires and permanently different after.
fn dma_system(mask: u32) -> McSystem {
    dma_system_nth(mask, 5)
}

fn dma_system_nth(mask: u32, nth: u64) -> McSystem {
    let plan = FaultPlan::new(0xB15E).with(FaultSpec::new(
        FaultSite::MemBeat {
            mem: 0,
            master: None,
            writing: Some(true),
        },
        FaultTrigger::Nth(nth),
        FaultKind::FlipData { mask },
    ));
    let mut b = SystemBuilder::new().faults(plan);
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 0xC0DE },
        dst: mem_base(0),
        words: 64,
        passes: 1,
        burst: Some(BurstSpec {
            beats: 16,
            verify: false,
            at: None,
        }),
        retry: Some(RetryPolicy {
            max_retries: 4,
            backoff_cycles: 2,
            escalate: false,
        }),
        ..DmaConfig::default()
    })));
    b.build().expect("dma system")
}

#[test]
fn bisector_localizes_the_divergence_and_replays_it() {
    const END: u64 = 4_000;
    const GRID: u64 = 250;

    let d = bisect_divergence(
        || dma_system(0),
        || dma_system(0x8000_0001),
        END,
        GRID,
    )
    .expect("fault-injected twin must diverge");
    assert!(
        d.first_diverge > 0 && d.first_diverge <= END,
        "diverge cycle {} out of range",
        d.first_diverge
    );
    assert_eq!(
        d.interval(),
        GRID,
        "bisection must tighten to one grid interval: {}",
        d.repro_spec()
    );
    assert_eq!(d.last_agree + GRID, d.first_diverge);
    assert!(
        !d.sections.is_empty(),
        "differing snapshot sections must be named"
    );
    assert!(
        d.repro_spec().contains("run 250 cycles"),
        "{}",
        d.repro_spec()
    );
    // The minimized repro reproduces the divergence from the shared
    // base snapshot, without re-simulating the prefix.
    assert!(
        d.replay(|| dma_system(0), || dma_system(0x8000_0001)),
        "repro must replay: {}",
        d.repro_spec()
    );
}

#[test]
fn identical_builds_report_no_divergence() {
    assert!(bisect_divergence(|| dma_system(0), || dma_system(0), 2_000, 200).is_none());
    // A fault that never fires inside the window is also clean, even
    // though the two builds' armed masks differ.
    assert!(
        bisect_divergence(
            || dma_system_nth(0, 1_000_000),
            || dma_system_nth(0x8000_0001, 1_000_000),
            2_000,
            200,
        )
        .is_none(),
        "an unfired fault must not count as divergence"
    );
}
