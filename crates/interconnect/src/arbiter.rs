//! Bus arbitration policies.
//!
//! Requests reach the arbiter as a bit mask (bit `i` set when requester
//! `i` asks), so one pick is a rotate and a `trailing_zeros` however many
//! requesters there are.

/// Arbitration policy of a shared resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArbiterKind {
    /// Rotating priority: the master after the last grantee wins ties.
    #[default]
    RoundRobin,
    /// Fixed priority: the lowest index always wins.
    FixedPriority,
}

/// Stateful arbiter over `n` requesters.
#[derive(Debug, Clone)]
pub struct Arbiter {
    kind: ArbiterKind,
    n: usize,
    last_grant: usize,
    /// Per-requester grant counts (fairness diagnostics).
    grants: Vec<u64>,
}

impl Arbiter {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the 32 bits of a request mask.
    pub fn new(kind: ArbiterKind, n: usize) -> Self {
        assert!(
            n <= u32::BITS as usize,
            "an arbiter serves at most {} requesters, got {n}",
            u32::BITS
        );
        Arbiter {
            kind,
            n,
            last_grant: n.saturating_sub(1),
            grants: vec![0; n],
        }
    }

    /// Picks a winner among the set bits of `requests`, updating state.
    ///
    /// Bit `i` is requester `i`'s line; bits at or above `n` must be
    /// clear. Returns `None` when no bit is set.
    pub fn pick(&mut self, requests: u32) -> Option<usize> {
        debug_assert!(
            u64::from(requests) >> self.n == 0,
            "request bit beyond requester {}",
            self.n
        );
        if requests == 0 {
            return None;
        }
        let winner = match self.kind {
            ArbiterKind::FixedPriority => requests.trailing_zeros(),
            ArbiterKind::RoundRobin => {
                // Rotate the requester after the last grantee down to bit
                // 0: the lowest set bit is then the next one in turn. The
                // bits above `n` are clear, so after requester `n - 1` the
                // turn wraps to requester 0.
                let start = self.last_grant as u32 + 1;
                (requests.rotate_right(start).trailing_zeros() + start) % u32::BITS
            }
        } as usize;
        self.last_grant = winner;
        self.grants[winner] += 1;
        Some(winner)
    }

    /// The policy in force.
    pub fn kind(&self) -> ArbiterKind {
        self.kind
    }

    /// Grant counts per requester.
    pub fn grants(&self) -> &[u64] {
        &self.grants
    }

    /// Serializes the rotation point and grant counters (the policy and
    /// width are construction-time configuration).
    pub(crate) fn save_state(&self, w: &mut dmi_kernel::StateWriter) {
        w.put_u64(self.last_grant as u64);
        w.put_u32(self.grants.len() as u32);
        for g in &self.grants {
            w.put_u64(*g);
        }
    }

    /// Restores state written by [`Arbiter::save_state`].
    pub(crate) fn load_state(
        &mut self,
        r: &mut dmi_kernel::StateReader<'_>,
    ) -> Result<(), dmi_kernel::SnapshotError> {
        use dmi_kernel::SnapshotError;
        let last = r.get_u64("arbiter last_grant")? as usize;
        if last >= self.n.max(1) {
            return Err(SnapshotError::Corrupt {
                context: format!("arbiter rotation point {last} of {}", self.n),
            });
        }
        let n = r.get_u32("arbiter width")? as usize;
        if n != self.grants.len() {
            return Err(SnapshotError::Mismatch {
                context: format!("snapshot arbiter has {n} requesters, target has {}", self.n),
            });
        }
        self.last_grant = last;
        for g in &mut self.grants {
            *g = r.get_u64("arbiter grant count")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The slice scan the arbiter used before request masks: the oracle
    /// the mask arbiter is checked against.
    struct ScanArbiter {
        kind: ArbiterKind,
        n: usize,
        last_grant: usize,
        grants: Vec<u64>,
    }

    impl ScanArbiter {
        fn new(kind: ArbiterKind, n: usize) -> Self {
            ScanArbiter {
                kind,
                n,
                last_grant: n.saturating_sub(1),
                grants: vec![0; n],
            }
        }

        fn pick(&mut self, requests: &[bool]) -> Option<usize> {
            let winner = match self.kind {
                ArbiterKind::FixedPriority => requests.iter().position(|&r| r)?,
                ArbiterKind::RoundRobin => {
                    let start = (self.last_grant + 1) % self.n.max(1);
                    (0..self.n)
                        .map(|k| (start + k) % self.n)
                        .find(|&i| requests[i])?
                }
            };
            self.last_grant = winner;
            self.grants[winner] += 1;
            Some(winner)
        }
    }

    fn lines(mask: u32, n: usize) -> Vec<bool> {
        (0..n).map(|i| mask >> i & 1 == 1).collect()
    }

    #[test]
    fn round_robin_rotates_under_contention() {
        let mut a = Arbiter::new(ArbiterKind::RoundRobin, 3);
        let picks: Vec<_> = (0..6).map(|_| a.pick(0b111).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(a.grants(), &[2, 2, 2]);
    }

    #[test]
    fn round_robin_skips_idle_masters() {
        let mut a = Arbiter::new(ArbiterKind::RoundRobin, 4);
        assert_eq!(a.pick(0b1010), Some(1));
        assert_eq!(a.pick(0b1010), Some(3));
        assert_eq!(a.pick(0b1010), Some(1));
        assert_eq!(a.pick(0), None);
    }

    #[test]
    fn round_robin_wraps_after_the_last_requester() {
        // Every width up to 8, every rotation point, every request mask:
        // the wrap from `last_grant = n - 1` included.
        for n in 1..=8 {
            for last in 0..n {
                for mask in 0..1u32 << n {
                    let mut a = Arbiter::new(ArbiterKind::RoundRobin, n);
                    let mut o = ScanArbiter::new(ArbiterKind::RoundRobin, n);
                    a.last_grant = last;
                    o.last_grant = last;
                    assert_eq!(
                        a.pick(mask),
                        o.pick(&lines(mask, n)),
                        "n={n} last={last} mask={mask:#b}"
                    );
                }
            }
        }
        let mut a = Arbiter::new(ArbiterKind::RoundRobin, 16);
        assert_eq!(a.pick(1 << 15), Some(15));
        assert_eq!(a.pick(1 << 15 | 1 << 3), Some(3));
        assert_eq!(a.pick(1 << 15 | 1 << 3), Some(15));
    }

    /// Request masks of every density: dense, sparse and single-bit.
    fn masks() -> impl Strategy<Value = u32> {
        prop_oneof![
            any::<u32>(),
            (any::<u32>(), any::<u32>()).prop_map(|(a, b)| a & b),
            (0u32..32).prop_map(|b| 1 << b),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn mask_pick_matches_the_slice_scan(
            n in 1usize..=16,
            fixed in any::<bool>(),
            seq in prop::collection::vec(masks(), 1..64),
        ) {
            let kind = if fixed {
                ArbiterKind::FixedPriority
            } else {
                ArbiterKind::RoundRobin
            };
            let mut a = Arbiter::new(kind, n);
            let mut o = ScanArbiter::new(kind, n);
            let width = (1u32 << n) - 1;
            for raw in seq {
                let mask = raw & width;
                prop_assert_eq!(a.pick(mask), o.pick(&lines(mask, n)));
            }
            prop_assert_eq!(a.grants(), &o.grants[..]);
            prop_assert_eq!(a.last_grant, o.last_grant);
        }
    }

    #[test]
    fn fixed_priority_starves_low_priority() {
        let mut a = Arbiter::new(ArbiterKind::FixedPriority, 3);
        for _ in 0..5 {
            assert_eq!(a.pick(0b111), Some(0));
        }
        assert_eq!(a.pick(0b110), Some(1));
        assert_eq!(a.grants(), &[5, 1, 0]);
        assert_eq!(a.kind(), ArbiterKind::FixedPriority);
    }
}
