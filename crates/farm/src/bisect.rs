//! Replay-exact divergence bisection: given two system builds that
//! *should* agree (a twin-toggle pair, a refactored vs reference
//! configuration) but end a run in different states, find the first
//! checkpoint-grid interval where their state diverges, and emit a
//! minimized repro — a shared base snapshot plus a short interval to
//! re-run.
//!
//! The search leans entirely on the PR 7 state-capture guarantees: a
//! [`Snapshot`] covers the complete architectural state and nothing
//! host-dependent, so two deterministic systems agree at cycle `c` if
//! and only if their snapshots at `c` are equal — and once the
//! snapshots differ at some grid point they differ at every later one
//! (deterministic evolution of distinct states cannot re-converge into
//! bit-identity while their causes persist; the binary search assumes
//! exactly this monotonicity).

use dmi_kernel::Snapshot;
use dmi_system::{McSystem, StopCondition};

/// The bisection result: the tightest grid interval containing the
/// first divergence, plus the materials to replay it.
#[derive(Debug)]
pub struct Divergence {
    /// Last grid cycle where both systems' snapshots were bit-identical.
    pub last_agree: u64,
    /// First grid cycle where they differed.
    pub first_diverge: u64,
    /// Names of the snapshot sections that differ at
    /// [`first_diverge`](Self::first_diverge) — which components (or
    /// kernel structures) carry the divergence.
    pub sections: Vec<String>,
    /// The agreed-on state at [`last_agree`](Self::last_agree): restore
    /// this into either build and run
    /// `first_diverge - last_agree` cycles to reproduce the divergence
    /// without re-simulating the prefix.
    pub base: Snapshot,
}

impl Divergence {
    /// The minimized repro interval, in cycles.
    pub fn interval(&self) -> u64 {
        self.first_diverge - self.last_agree
    }

    /// A human-readable minimized repro spec.
    pub fn repro_spec(&self) -> String {
        format!(
            "restore base snapshot (cycle {}), run {} cycles, compare sections [{}]",
            self.last_agree,
            self.interval(),
            self.sections.join(", ")
        )
    }

    /// Verifies the repro: restores [`base`](Self::base) into a fresh
    /// instance of each build, runs only the minimized interval, and
    /// reports whether the divergence reproduces (the snapshots differ
    /// at the end of the interval).
    pub fn replay(
        &self,
        build_a: impl Fn() -> McSystem,
        build_b: impl Fn() -> McSystem,
    ) -> bool {
        let run = |mut sys: McSystem| -> Option<Snapshot> {
            sys.restore(&self.base).ok()?;
            let upto = self.interval();
            sys.run_until(&StopCondition::cycles(upto));
            Some(sys.checkpoint())
        };
        match (run(build_a()), run(build_b())) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }
}

/// Snapshot of a fresh `build()` run to absolute cycle `c`.
fn snap_at(build: &impl Fn() -> McSystem, c: u64) -> Snapshot {
    let mut sys = build();
    if c > 0 {
        sys.run_until(&StopCondition::cycles(c));
    }
    sys.checkpoint()
}

fn differing_sections(a: &Snapshot, b: &Snapshot) -> Vec<String> {
    let mut names: Vec<&str> = a.section_names().collect();
    for n in b.section_names() {
        if !names.contains(&n) {
            names.push(n);
        }
    }
    names
        .into_iter()
        .filter(|n| a.section(n) != b.section(n))
        .map(str::to_string)
        .collect()
}

/// Binary-searches the checkpoint grid `0, grid, 2*grid, ... end` for
/// the first grid point where the two builds' snapshots differ.
///
/// Returns `None` when the builds are still bit-identical at `end` (no
/// divergence to localize). `grid` is clamped to at least 1; the last
/// grid point is `end` itself even when `end` is not a multiple.
///
/// Each probe re-simulates from cold (cost `O(end * log(end/grid))`),
/// trading host time for zero assumptions about the builds beyond
/// determinism.
pub fn bisect_divergence(
    build_a: impl Fn() -> McSystem,
    build_b: impl Fn() -> McSystem,
    end: u64,
    grid: u64,
) -> Option<Divergence> {
    let grid = grid.max(1);
    let cycle_of = |k: u64| (k * grid).min(end);
    let last_k = end.div_ceil(grid);

    let differs_at = |k: u64| -> bool {
        let c = cycle_of(k);
        snap_at(&build_a, c) != snap_at(&build_b, c)
    };

    if !differs_at(last_k) {
        return None;
    }

    // Invariant: agree at `lo`, differ at `hi`.
    let (mut lo, mut hi) = (0u64, last_k);
    if differs_at(0) {
        // Diverges at (or before) cycle 0: the builds differ at rest.
        hi = 0;
    } else {
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if differs_at(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
    }

    let last_agree = if hi == 0 { 0 } else { cycle_of(lo) };
    let first_diverge = cycle_of(hi);
    let base = snap_at(&build_a, last_agree);
    let sections = differing_sections(
        &snap_at(&build_a, first_diverge),
        &snap_at(&build_b, first_diverge),
    );
    Some(Divergence {
        last_agree,
        first_diverge,
        sections,
        base,
    })
}
