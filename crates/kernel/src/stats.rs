//! Kernel execution statistics.

/// Cumulative counters maintained by the kernel across all runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Events dispatched (all kinds).
    pub events: u64,
    /// Component wakes executed.
    pub wakes: u64,
    /// Delta cycles evaluated.
    pub deltas: u64,
    /// Distinct simulated time points visited.
    pub time_steps: u64,
}

impl KernelStats {
    /// Component-wise difference `self - earlier`, used to compute per-run
    /// summaries from cumulative counters.
    pub fn since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            events: self.events - earlier.events,
            wakes: self.wakes - earlier.wakes,
            deltas: self.deltas - earlier.deltas,
            time_steps: self.time_steps - earlier.time_steps,
        }
    }
}

/// Counters for the kernel's clocked fast paths, kept **outside**
/// [`KernelStats`] on purpose: `KernelStats` is part of the simulation's
/// bit-identity contract (the fast and reference paths must report the
/// same values), while these counters *describe which path served each
/// toggle* and therefore differ by construction between the two paths.
/// They are pure observability — experiments assert fast-path coverage
/// with them, they never feed back into the simulation, and a snapshot
/// does not store them (a restore starts them from zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Clock toggles dispatched, over all paths (queued + calendar).
    /// Identical on both paths — the denominator of every coverage
    /// ratio.
    pub clock_toggles: u64,
    /// Toggles that took the edge path (alone at their tick: flipped in
    /// place, their precomputed fan-out carried to the next delta) and
    /// whose fan-out was empty, so the time step ended with the flip.
    /// For a system clocked on one edge, that is every other toggle.
    pub quiet_toggles: u64,
    /// Toggles dispatched from the per-clock calendar instead of the
    /// event queue (no queue push/pop per half-period).
    pub calendar_toggles: u64,
}

impl FastPathStats {
    /// Component-wise difference `self - earlier` (per-run deltas from
    /// cumulative counters, like [`KernelStats::since`]).
    pub fn since(&self, earlier: &FastPathStats) -> FastPathStats {
        FastPathStats {
            clock_toggles: self.clock_toggles - earlier.clock_toggles,
            quiet_toggles: self.quiet_toggles - earlier.quiet_toggles,
            calendar_toggles: self.calendar_toggles - earlier.calendar_toggles,
        }
    }

    /// Fraction of dispatched toggles the calendar served (1.0 when no
    /// toggle was dispatched at all, so coverage assertions hold
    /// vacuously on idle runs).
    pub fn calendar_coverage(&self) -> f64 {
        if self.clock_toggles == 0 {
            1.0
        } else {
            self.calendar_toggles as f64 / self.clock_toggles as f64
        }
    }

    /// Fraction of dispatched toggles that were quiet: edge-path flips
    /// that woke nobody (see [`quiet_toggles`](Self::quiet_toggles)).
    pub fn quiet_coverage(&self) -> f64 {
        if self.clock_toggles == 0 {
            1.0
        } else {
            self.quiet_toggles as f64 / self.clock_toggles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_since_and_coverage() {
        let a = FastPathStats {
            clock_toggles: 100,
            quiet_toggles: 50,
            calendar_toggles: 99,
        };
        let b = FastPathStats {
            clock_toggles: 10,
            quiet_toggles: 5,
            calendar_toggles: 9,
        };
        let d = a.since(&b);
        assert_eq!(d.clock_toggles, 90);
        assert_eq!(d.quiet_toggles, 45);
        assert_eq!(d.calendar_toggles, 90);
        assert!((a.calendar_coverage() - 0.99).abs() < 1e-9);
        assert!((a.quiet_coverage() - 0.5).abs() < 1e-9);
        assert_eq!(FastPathStats::default().calendar_coverage(), 1.0);
    }

    #[test]
    fn since_subtracts_fieldwise() {
        let a = KernelStats {
            events: 10,
            wakes: 8,
            deltas: 6,
            time_steps: 4,
        };
        let b = KernelStats {
            events: 3,
            wakes: 2,
            deltas: 1,
            time_steps: 0,
        };
        let d = a.since(&b);
        assert_eq!(
            d,
            KernelStats {
                events: 7,
                wakes: 6,
                deltas: 5,
                time_steps: 4
            }
        );
    }
}
