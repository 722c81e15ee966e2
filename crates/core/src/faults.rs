//! Deterministic fault injection for the DSM protocol stack.
//!
//! A [`FaultPlan`] declares *where* ([`FaultSite`]), *when*
//! ([`FaultTrigger`]) and *what* ([`FaultKind`]) to inject. Plans are
//! compiled into a [`FaultController`] that the system builder shares
//! (via [`FaultHook`]) with every memory module and the interconnect.
//! The hooks are consulted on the same protocol events in every
//! configuration, so injection is **replay-exact**: triggers count
//! protocol accesses and draw from a seeded [splitmix64] stream — never
//! wall-clock, never host state. The same plan + seed produces the same
//! faults on the kernel's fast and reference paths, because the access
//! order those hooks observe is itself bit-identical across them.
//!
//! An **empty plan is inert by construction**: every hook returns the
//! "no fault" action without touching a trigger counter, so a system
//! built with `FaultPlan::default()` is cycle-bit-identical to one
//! built with no plan at all (pinned by the system-level differential
//! tests).
//!
//! Injection starts enabled and is runtime-toggleable per controller
//! ([`FaultController::set_enabled`]; `McSystem::set_fault_injection`
//! at the system level).
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use std::cell::RefCell;
use std::rc::Rc;

use crate::protocol::{Opcode, Status};

/// Where a fault is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A DSM command (CMD-register write) on memory module `mem`,
    /// optionally filtered to one opcode and/or one master index.
    MemOp {
        /// Memory module ordinal (builder registration order).
        mem: usize,
        /// Only this opcode, or any valid opcode when `None`.
        op: Option<Opcode>,
        /// Only this master-select, or any master when `None`.
        master: Option<u8>,
    },
    /// A DATA-register burst beat on memory module `mem`.
    MemBeat {
        /// Memory module ordinal (builder registration order).
        mem: usize,
        /// Only this master-select, or any master when `None`.
        master: Option<u8>,
        /// Only write beats (`Some(true)`), only read beats
        /// (`Some(false)`), or both (`None`).
        writing: Option<bool>,
    },
    /// A granted interconnect transaction, optionally filtered to one
    /// requesting master (wiring order: CPUs first, then masters).
    BusAccess {
        /// Only this master index, or any master when `None`.
        master: Option<usize>,
    },
}

/// When a fault fires, counted over the accesses that match its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Exactly the `n`-th matching access (1-based), once.
    Nth(u64),
    /// Every `period`-th matching access starting at the `first`-th
    /// (1-based). `period == 0` is treated as 1.
    Every {
        /// First matching access to fault (1-based).
        first: u64,
        /// Fault every this-many matching accesses thereafter.
        period: u64,
    },
    /// Each matching access fires with probability `threshold / 2^32`,
    /// drawn from the spec's private seeded PRNG stream. The stream
    /// advances only on matching accesses, so replays are exact.
    Random {
        /// Firing threshold out of `u32::MAX + 1`.
        threshold: u32,
    },
}

/// What the fault does at its site. Kinds only act on sites that can
/// express them (e.g. [`FaultKind::DecodeError`] on a memory site is
/// inert); mismatched pairs are documented no-ops, not errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Force the slave's STATUS register to this value; the faulted
    /// command is not executed (result = `NULL_VPTR`), a faulted beat
    /// does not reach the backend. Mem sites only.
    Status(Status),
    /// XOR the payload with `mask`: a command's write argument or read
    /// result, or a beat's data word. Mem sites only.
    FlipData {
        /// Bit mask XOR-ed into the payload.
        mask: u32,
    },
    /// The interconnect pretends the decode failed: the master is acked
    /// with the decode-error pattern and the slave never sees the
    /// transaction. Bus sites only.
    DecodeError,
    /// Stretch the grant by this many extra arbitration cycles. Bus
    /// sites only.
    GrantStall {
        /// Extra cycles spent in the arbitration state.
        cycles: u64,
    },
    /// Kill the in-flight burst: this and every following beat answers
    /// with [`Status::OutOfBounds`] until the master issues a fresh
    /// command. [`FaultSite::MemBeat`] only.
    AbortBurst,
}

/// One declared fault: site + trigger + kind, with an optional cap on
/// total fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Where to inject.
    pub site: FaultSite,
    /// When to fire.
    pub trigger: FaultTrigger,
    /// What to do.
    pub kind: FaultKind,
    /// Maximum number of fires, `0` = unlimited.
    pub max_fires: u64,
}

impl FaultSpec {
    /// A spec with no fire cap.
    pub fn new(site: FaultSite, trigger: FaultTrigger, kind: FaultKind) -> Self {
        FaultSpec {
            site,
            trigger,
            kind,
            max_fires: 0,
        }
    }

    /// Caps the spec at `n` total fires.
    pub fn limit(mut self, n: u64) -> Self {
        self.max_fires = n;
        self
    }
}

/// A declarative, seeded fault schedule. Passed to
/// `SystemBuilder::faults`; the default plan is empty and inert.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given PRNG seed for
    /// [`FaultTrigger::Random`] specs.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Adds a spec (builder style).
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds a spec in place.
    pub fn push(&mut self, spec: FaultSpec) {
        self.specs.push(spec);
    }

    /// Whether the plan declares no faults.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The declared specs.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Injection counters, per layer and in aggregate, surfaced through
/// `RunReport::faults`. The `retried`/`recovered`/`escalated` fields
/// are filled in by the system layer from master reports; the
/// controller itself only counts injections. Counters are cumulative
/// over the system's lifetime (not reset per `run_until` epoch).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total faults injected across all sites.
    pub injected: u64,
    /// Faults injected at DSM commands ([`FaultSite::MemOp`]).
    pub mem_ops: u64,
    /// Faults injected at burst beats ([`FaultSite::MemBeat`]).
    pub mem_beats: u64,
    /// Faults injected at interconnect grants ([`FaultSite::BusAccess`]).
    pub bus_accesses: u64,
    /// Fires per declared spec, in plan order.
    pub per_spec: Vec<u64>,
    /// Master retry attempts caused by non-`Ok` statuses.
    pub retried: u64,
    /// Transfers (alloc dialogues or chunks) that succeeded after at
    /// least one retry.
    pub recovered: u64,
    /// Masters that gave up with an unrecovered [`MasterError`]
    /// (whether or not they escalated to a kernel stop).
    ///
    /// [`MasterError`]: https://docs.rs/ (see `dmi-interconnect`)
    pub escalated: u64,
}

impl FaultStats {
    /// Whether any fault was injected or observed.
    pub fn any(&self) -> bool {
        self.injected != 0 || self.retried != 0 || self.escalated != 0
    }
}

/// Outcome of consulting the controller at a DSM command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemOpFault {
    /// Fail the command with this status instead of executing it.
    pub force_status: Option<Status>,
    /// XOR this mask into the write argument / read result.
    pub flip_mask: u32,
}

/// Outcome of consulting the controller at a burst beat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemBeatFault {
    /// Fail this beat with this status; it does not reach the backend.
    pub force_status: Option<Status>,
    /// XOR this mask into the beat data.
    pub flip_mask: u32,
    /// Kill the burst: sticky error until the next command.
    pub abort: bool,
}

/// Outcome of consulting the controller at an interconnect grant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusFault {
    /// Route the transaction to the decode-error path.
    pub decode_error: bool,
    /// Extra arbitration cycles before the grant completes.
    pub stall_cycles: u64,
}

/// splitmix64 step: the PRNG behind [`FaultTrigger::Random`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One spec compiled with its runtime state: match counter, fire
/// counter, and a private PRNG stream (seeded from the plan seed and
/// the spec's index so specs never share randomness).
#[derive(Debug, Clone)]
struct CompiledSpec {
    spec: FaultSpec,
    matches: u64,
    fires: u64,
    rng: u64,
}

impl CompiledSpec {
    /// Records a matching access and decides whether this spec fires on
    /// it. Advances the PRNG only for `Random` triggers, and only on
    /// matching accesses.
    fn observe(&mut self) -> bool {
        self.matches += 1;
        if self.spec.max_fires != 0 && self.fires >= self.spec.max_fires {
            // Still consume randomness so capping a spec does not shift
            // the stream seen by earlier fires on replay.
            if let FaultTrigger::Random { .. } = self.spec.trigger {
                splitmix64(&mut self.rng);
            }
            return false;
        }
        let fire = match self.spec.trigger {
            FaultTrigger::Nth(n) => self.matches == n,
            FaultTrigger::Every { first, period } => {
                let period = period.max(1);
                self.matches >= first && (self.matches - first).is_multiple_of(period)
            }
            FaultTrigger::Random { threshold } => {
                ((splitmix64(&mut self.rng) >> 32) as u32) < threshold
            }
        };
        if fire {
            self.fires += 1;
        }
        fire
    }
}

/// The shared runtime behind a [`FaultPlan`]: consulted by memory
/// modules and the interconnect on every protocol access, merges the
/// actions of all matching specs, and counts injections.
#[derive(Debug, Clone)]
pub struct FaultController {
    enabled: bool,
    specs: Vec<CompiledSpec>,
    stats: FaultStats,
}

/// How fault hooks are shared between the controller's owner (the
/// system) and the components that consult it.
pub type FaultHook = Rc<RefCell<FaultController>>;

impl FaultController {
    /// Compiles a plan, with injection enabled.
    pub fn new(plan: FaultPlan) -> Self {
        let seed = plan.seed;
        let specs = plan
            .specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| CompiledSpec {
                spec,
                matches: 0,
                fires: 0,
                // Decorrelate per-spec streams: jump the seed by the
                // spec index through the same mixer.
                rng: {
                    let mut s = seed.wrapping_add((i as u64).wrapping_mul(0xA5A5_A5A5_A5A5_A5A5));
                    splitmix64(&mut s);
                    s
                },
            })
            .collect::<Vec<_>>();
        let n = specs.len();
        FaultController {
            enabled: true,
            specs,
            stats: FaultStats {
                per_spec: vec![0; n],
                ..FaultStats::default()
            },
        }
    }

    /// Switches injection on or off; trigger state is kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether injection is live.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Snapshot of the injection counters.
    pub fn stats(&self) -> FaultStats {
        self.stats.clone()
    }

    /// Wraps the controller for sharing with components.
    pub fn into_hook(self) -> FaultHook {
        Rc::new(RefCell::new(self))
    }

    /// Number of compiled specs (the plan's length).
    pub fn spec_count(&self) -> usize {
        self.specs.len()
    }

    /// Serializes the per-spec stream positions (match/fire counts and
    /// the raw splitmix64 state — the *position* in each spec's random
    /// stream) plus the injection counters. The `enabled` flag is a
    /// runtime toggle and is *not* serialized; restore keeps the
    /// target's setting.
    pub fn save_state(&self, w: &mut dmi_kernel::StateWriter) {
        w.put_u32(self.specs.len() as u32);
        for s in &self.specs {
            w.put_u64(s.matches);
            w.put_u64(s.fires);
            w.put_u64(s.rng);
        }
        w.put_u64(self.stats.injected);
        w.put_u64(self.stats.mem_ops);
        w.put_u64(self.stats.mem_beats);
        w.put_u64(self.stats.bus_accesses);
        w.put_u64(self.stats.retried);
        w.put_u64(self.stats.recovered);
        w.put_u64(self.stats.escalated);
        w.put_u32(self.stats.per_spec.len() as u32);
        for n in &self.stats.per_spec {
            w.put_u64(*n);
        }
    }

    /// Restores state written by [`FaultController::save_state`] onto a
    /// controller compiled from the same plan (validated by spec count).
    pub fn load_state(
        &mut self,
        r: &mut dmi_kernel::StateReader<'_>,
    ) -> Result<(), dmi_kernel::SnapshotError> {
        use dmi_kernel::SnapshotError;
        let n = r.get_u32("fault spec count")? as usize;
        if n != self.specs.len() {
            return Err(SnapshotError::Mismatch {
                context: format!(
                    "snapshot has {n} fault specs, target plan has {}",
                    self.specs.len()
                ),
            });
        }
        for s in &mut self.specs {
            s.matches = r.get_u64("fault spec matches")?;
            s.fires = r.get_u64("fault spec fires")?;
            s.rng = r.get_u64("fault spec rng")?;
        }
        self.stats.injected = r.get_u64("fault stats.injected")?;
        self.stats.mem_ops = r.get_u64("fault stats.mem_ops")?;
        self.stats.mem_beats = r.get_u64("fault stats.mem_beats")?;
        self.stats.bus_accesses = r.get_u64("fault stats.bus_accesses")?;
        self.stats.retried = r.get_u64("fault stats.retried")?;
        self.stats.recovered = r.get_u64("fault stats.recovered")?;
        self.stats.escalated = r.get_u64("fault stats.escalated")?;
        let m = r.get_u32("fault per-spec count")? as usize;
        if m != self.stats.per_spec.len() {
            return Err(SnapshotError::Mismatch {
                context: format!(
                    "snapshot has {m} per-spec counters, target has {}",
                    self.stats.per_spec.len()
                ),
            });
        }
        for slot in &mut self.stats.per_spec {
            *slot = r.get_u64("fault per-spec fires")?;
        }
        Ok(())
    }

    /// Whether any injection can happen: the controller is enabled and
    /// the plan has at least one spec.
    pub fn live(&self) -> bool {
        self.enabled && !self.specs.is_empty()
    }

    /// Consult at a DSM command (valid opcode decoded on a CMD write).
    pub fn mem_op(&mut self, mem: usize, op: Opcode, master: u8) -> MemOpFault {
        let mut out = MemOpFault::default();
        if !self.live() {
            return out;
        }
        let mut fired = 0u64;
        for (i, c) in self.specs.iter_mut().enumerate() {
            let hit = match c.spec.site {
                FaultSite::MemOp {
                    mem: m,
                    op: want_op,
                    master: want_ms,
                } => m == mem && want_op.is_none_or(|o| o == op) && want_ms.is_none_or(|w| w == master),
                _ => false,
            };
            if !hit || !c.observe() {
                continue;
            }
            match c.spec.kind {
                FaultKind::Status(s) => {
                    if out.force_status.is_none() {
                        out.force_status = Some(s);
                    }
                }
                FaultKind::FlipData { mask } => out.flip_mask ^= mask,
                // Bus/beat kinds are inert at a command site.
                _ => continue,
            }
            fired += 1;
            self.stats.per_spec[i] += 1;
        }
        self.stats.injected += fired;
        self.stats.mem_ops += fired;
        out
    }

    /// Consult at a burst beat (DATA-register access).
    pub fn mem_beat(&mut self, mem: usize, master: u8, writing: bool) -> MemBeatFault {
        let mut out = MemBeatFault::default();
        if !self.live() {
            return out;
        }
        let mut fired = 0u64;
        for (i, c) in self.specs.iter_mut().enumerate() {
            let hit = match c.spec.site {
                FaultSite::MemBeat {
                    mem: m,
                    master: want_ms,
                    writing: want_w,
                } => {
                    m == mem
                        && want_ms.is_none_or(|w| w == master)
                        && want_w.is_none_or(|w| w == writing)
                }
                _ => false,
            };
            if !hit || !c.observe() {
                continue;
            }
            match c.spec.kind {
                FaultKind::Status(s) => {
                    if out.force_status.is_none() {
                        out.force_status = Some(s);
                    }
                }
                FaultKind::FlipData { mask } => out.flip_mask ^= mask,
                FaultKind::AbortBurst => out.abort = true,
                // Bus kinds are inert at a beat site.
                _ => continue,
            }
            fired += 1;
            self.stats.per_spec[i] += 1;
        }
        self.stats.injected += fired;
        self.stats.mem_beats += fired;
        out
    }

    /// Consult at an interconnect grant (once per granted transaction).
    pub fn bus_access(&mut self, master: usize) -> BusFault {
        let mut out = BusFault::default();
        if !self.live() {
            return out;
        }
        let mut fired = 0u64;
        for (i, c) in self.specs.iter_mut().enumerate() {
            let hit = match c.spec.site {
                FaultSite::BusAccess { master: want } => want.is_none_or(|w| w == master),
                _ => false,
            };
            if !hit || !c.observe() {
                continue;
            }
            match c.spec.kind {
                FaultKind::DecodeError => out.decode_error = true,
                FaultKind::GrantStall { cycles } => {
                    out.stall_cycles = out.stall_cycles.max(cycles)
                }
                // Mem kinds are inert at a bus site.
                _ => continue,
            }
            fired += 1;
            self.stats.per_spec[i] += 1;
        }
        self.stats.injected += fired;
        self.stats.bus_accesses += fired;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_site(mem: usize) -> FaultSite {
        FaultSite::MemOp {
            mem,
            op: None,
            master: None,
        }
    }

    #[test]
    fn empty_plan_is_inert() {
        let mut c = FaultController::new(FaultPlan::default());
        for _ in 0..100 {
            assert_eq!(c.mem_op(0, Opcode::Alloc, 0), MemOpFault::default());
            assert_eq!(c.mem_beat(0, 0, true), MemBeatFault::default());
            assert_eq!(c.bus_access(0), BusFault::default());
        }
        assert_eq!(c.stats(), FaultStats::default());
    }

    #[test]
    fn disabled_controller_is_inert() {
        let plan = FaultPlan::new(1).with(FaultSpec::new(
            op_site(0),
            FaultTrigger::Every { first: 1, period: 1 },
            FaultKind::Status(Status::Locked),
        ));
        let mut c = FaultController::new(plan);
        c.set_enabled(false);
        assert_eq!(c.mem_op(0, Opcode::Alloc, 0), MemOpFault::default());
        assert_eq!(c.stats().injected, 0);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let plan = FaultPlan::new(0).with(FaultSpec::new(
            op_site(0),
            FaultTrigger::Nth(3),
            FaultKind::Status(Status::OutOfMemory),
        ));
        let mut c = FaultController::new(plan);
        let fires: Vec<bool> = (0..6)
            .map(|_| c.mem_op(0, Opcode::Alloc, 0).force_status.is_some())
            .collect();
        assert_eq!(fires, vec![false, false, true, false, false, false]);
        assert_eq!(c.stats().injected, 1);
        assert_eq!(c.stats().mem_ops, 1);
        assert_eq!(c.stats().per_spec, vec![1]);
    }

    #[test]
    fn every_trigger_and_limit() {
        let plan = FaultPlan::new(0).with(
            FaultSpec::new(
                op_site(0),
                FaultTrigger::Every { first: 2, period: 3 },
                FaultKind::FlipData { mask: 0xFF },
            )
            .limit(2),
        );
        let mut c = FaultController::new(plan);
        let fires: Vec<bool> = (0..9)
            .map(|_| c.mem_op(0, Opcode::Write, 0).flip_mask != 0)
            .collect();
        // Matches 2 and 5 fire; match 8 is capped by limit(2).
        assert_eq!(
            fires,
            vec![false, true, false, false, true, false, false, false, false]
        );
        assert_eq!(c.stats().injected, 2);
    }

    #[test]
    fn site_filters_apply() {
        let plan = FaultPlan::new(0).with(FaultSpec::new(
            FaultSite::MemOp {
                mem: 1,
                op: Some(Opcode::Alloc),
                master: Some(2),
            },
            FaultTrigger::Nth(1),
            FaultKind::Status(Status::Locked),
        ));
        let mut c = FaultController::new(plan);
        assert!(c.mem_op(0, Opcode::Alloc, 2).force_status.is_none());
        assert!(c.mem_op(1, Opcode::Write, 2).force_status.is_none());
        assert!(c.mem_op(1, Opcode::Alloc, 3).force_status.is_none());
        // Non-matching accesses must not advance the trigger.
        assert_eq!(
            c.mem_op(1, Opcode::Alloc, 2).force_status,
            Some(Status::Locked)
        );
    }

    #[test]
    fn beat_direction_filter() {
        let plan = FaultPlan::new(0).with(FaultSpec::new(
            FaultSite::MemBeat {
                mem: 0,
                master: None,
                writing: Some(false),
            },
            FaultTrigger::Every { first: 1, period: 1 },
            FaultKind::FlipData { mask: 1 },
        ));
        let mut c = FaultController::new(plan);
        assert_eq!(c.mem_beat(0, 0, true).flip_mask, 0);
        assert_eq!(c.mem_beat(0, 0, false).flip_mask, 1);
        assert_eq!(c.stats().mem_beats, 1);
    }

    #[test]
    fn random_trigger_replays_exactly() {
        let plan = FaultPlan::new(0xDEAD_BEEF).with(FaultSpec::new(
            FaultSite::MemBeat {
                mem: 0,
                master: None,
                writing: None,
            },
            FaultTrigger::Random {
                threshold: u32::MAX / 4,
            },
            FaultKind::AbortBurst,
        ));
        let mut a = FaultController::new(plan.clone());
        let mut b = FaultController::new(plan);
        let seq_a: Vec<bool> = (0..256).map(|_| a.mem_beat(0, 0, true).abort).collect();
        let seq_b: Vec<bool> = (0..256).map(|_| b.mem_beat(0, 0, true).abort).collect();
        assert_eq!(seq_a, seq_b);
        let hits = seq_a.iter().filter(|&&x| x).count();
        assert!(hits > 16 && hits < 128, "~25% expected, got {hits}/256");
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn mismatched_kind_is_inert() {
        // A bus kind declared on a mem site never fires.
        let plan = FaultPlan::new(0).with(FaultSpec::new(
            op_site(0),
            FaultTrigger::Every { first: 1, period: 1 },
            FaultKind::DecodeError,
        ));
        let mut c = FaultController::new(plan);
        assert_eq!(c.mem_op(0, Opcode::Alloc, 0), MemOpFault::default());
        assert_eq!(c.stats().injected, 0);
    }

    #[test]
    fn bus_faults_merge() {
        let plan = FaultPlan::new(0)
            .with(FaultSpec::new(
                FaultSite::BusAccess { master: None },
                FaultTrigger::Nth(1),
                FaultKind::GrantStall { cycles: 3 },
            ))
            .with(FaultSpec::new(
                FaultSite::BusAccess { master: Some(0) },
                FaultTrigger::Nth(1),
                FaultKind::GrantStall { cycles: 7 },
            ));
        let mut c = FaultController::new(plan);
        let f = c.bus_access(0);
        assert_eq!(f.stall_cycles, 7);
        assert_eq!(c.stats().bus_accesses, 2);
    }
}
