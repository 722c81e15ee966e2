//! Crossbar interconnect: parallel master→slave paths.
//!
//! Where the shared bus serialises every transaction, the crossbar gives
//! each slave its own arbiter, so transactions to *different* slaves
//! proceed concurrently. With the paper's headline experiment in mind
//! (4 ISSs × 4 memories), the crossbar is the ablation point showing how
//! much of the observed degradation is interconnect contention rather than
//! wrapper cost.
//!
//! One clock edge reads each master's `req` line once, decodes each
//! eligible request's address once into per-lane request masks, and lets
//! every idle lane arbitrate on its own mask: the cost of an edge grows
//! with the number of masters, not with masters × lanes.

use std::any::Any;

use dmi_core::{BusFault, FaultHook};
use dmi_kernel::{Component, Ctx, Wake, Wire};

use crate::arbiter::{Arbiter, ArbiterKind};
use crate::bus::{
    assert_master_count, bit, bits, load_mask, request_lines, save_mask, BusStats, MasterIf,
    SlaveIf, DECODE_ERROR_DATA,
};
use crate::map::AddressMap;

/// Configuration of a [`Crossbar`].
#[derive(Debug, Clone, Copy)]
pub struct CrossbarConfig {
    /// Per-lane arbitration policy.
    pub arbiter: ArbiterKind,
    /// Extra cycles between a lane's grant and request forwarding
    /// (models a multi-cycle arbitration/address phase). Zero — the
    /// default — forwards in the grant cycle, the crossbar's original
    /// timing.
    pub arbitration_latency: u64,
    /// Back-to-back grant retention, ported from
    /// [`BusConfig::burst_grant`](crate::BusConfig::burst_grant): when a
    /// lane's arbiter picks the same master that completed the lane's
    /// previous transaction, the arbitration-latency phase is skipped —
    /// the grant is effectively held across the beats of a burst.
    /// Timing-model option only; fairness is unchanged. Off by default.
    pub burst_grant: bool,
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        CrossbarConfig {
            arbiter: ArbiterKind::RoundRobin,
            arbitration_latency: 0,
            burst_grant: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneState {
    Idle,
    Arbitrate { master: usize, remaining: u64 },
    WaitSlave { master: usize },
    Complete { master: usize },
}

/// The crossbar interconnect component.
#[derive(Debug)]
pub struct Crossbar {
    name: String,
    clk: Wire,
    masters: Vec<MasterIf>,
    slaves: Vec<SlaveIf>,
    map: AddressMap,
    config: CrossbarConfig,
    lanes: Vec<LaneState>,
    arbiters: Vec<Arbiter>,
    /// Master that completed each lane's previous transaction, for
    /// [`CrossbarConfig::burst_grant`] retention.
    lane_last: Vec<Option<usize>>,
    /// Transactions that skipped re-arbitration via grant retention.
    retained_grants: u64,
    /// Masters in their post-ack cooldown, bit `i` for master `i`: a
    /// master must drop `req` for a cycle before its next grant.
    cooldown: u32,
    /// Masters currently being served (by any lane or the error path),
    /// bit `i` for master `i`.
    in_service: u32,
    wait_cycles: Vec<u64>,
    slave_transactions: Vec<u64>,
    transactions: u64,
    decode_errors: u64,
    busy_cycles: u64,
    idle_cycles: u64,
    /// Error completions pending: master indices acked this cycle.
    error_complete: Vec<usize>,
    /// This cycle's eligible requests per lane, bit `i` for master `i`,
    /// filled by one address decode per request. Reused every cycle, so
    /// the per-cycle path does not allocate.
    lane_reqs: Vec<u32>,
    /// Shared fault controller, when the system wired fault injection.
    /// `None` (the default) is the bit-identical pre-fault path.
    fault: Option<FaultHook>,
}

impl Crossbar {
    /// Creates a crossbar with default timing (forward in the grant
    /// cycle, no grant retention).
    pub fn new(
        name: impl Into<String>,
        clk: Wire,
        masters: Vec<MasterIf>,
        slaves: Vec<SlaveIf>,
        map: AddressMap,
        arbiter: ArbiterKind,
    ) -> Self {
        Self::with_config(
            name,
            clk,
            masters,
            slaves,
            map,
            CrossbarConfig {
                arbiter,
                ..CrossbarConfig::default()
            },
        )
    }

    /// Creates a crossbar over the given interfaces and address map.
    ///
    /// # Panics
    ///
    /// Panics with more than [`MAX_MASTERS`](crate::MAX_MASTERS) masters.
    pub fn with_config(
        name: impl Into<String>,
        clk: Wire,
        masters: Vec<MasterIf>,
        slaves: Vec<SlaveIf>,
        map: AddressMap,
        config: CrossbarConfig,
    ) -> Self {
        let n = masters.len();
        let p = slaves.len();
        assert_master_count(n);
        Crossbar {
            name: name.into(),
            clk,
            masters,
            slaves,
            map,
            config,
            lanes: vec![LaneState::Idle; p],
            arbiters: (0..p).map(|_| Arbiter::new(config.arbiter, n)).collect(),
            lane_last: vec![None; p],
            retained_grants: 0,
            cooldown: 0,
            in_service: 0,
            wait_cycles: vec![0; n],
            slave_transactions: vec![0; p],
            transactions: 0,
            decode_errors: 0,
            busy_cycles: 0,
            idle_cycles: 0,
            error_complete: Vec::new(),
            lane_reqs: vec![0; p],
            fault: None,
        }
    }

    /// Installs a shared fault controller; consulted once per granted
    /// transaction (forced decode errors, grant-stall windows).
    pub fn set_fault_hook(&mut self, hook: FaultHook) {
        self.fault = Some(hook);
    }

    /// Contention statistics (same shape as the shared bus for easy
    /// comparison; grants are summed across lane arbiters).
    pub fn stats(&self) -> BusStats {
        let n = self.masters.len();
        let mut grants = vec![0u64; n];
        for a in &self.arbiters {
            for (i, g) in a.grants().iter().enumerate() {
                grants[i] += g;
            }
        }
        BusStats {
            transactions: self.transactions,
            decode_errors: self.decode_errors,
            master_wait_cycles: self.wait_cycles.clone(),
            master_grants: grants,
            slave_transactions: self.slave_transactions.clone(),
            busy_cycles: self.busy_cycles,
            idle_cycles: self.idle_cycles,
            retained_grants: self.retained_grants,
        }
    }

    /// Forwards `master`'s request onto `lane`'s slave.
    fn forward(&mut self, ctx: &mut Ctx<'_>, lane: usize, master: usize) {
        let m = self.masters[master];
        let s = self.slaves[lane];
        ctx.write_bit(s.req, true);
        ctx.write_bit(s.we, ctx.read_bit(m.we));
        ctx.write(s.size, ctx.read(m.size));
        ctx.write(s.addr, ctx.read(m.addr));
        ctx.write(s.wdata, ctx.read(m.wdata));
        ctx.write(s.master, master as u64);
        self.lanes[lane] = LaneState::WaitSlave { master };
    }
}

impl Component for Crossbar {
    fn name(&self) -> &str {
        &self.name
    }

    fn wake(&mut self, ctx: &mut Ctx<'_>) {
        match ctx.cause() {
            Wake::Start => {
                for s in &self.slaves {
                    ctx.write_bit(s.req, false);
                }
                for m in &self.masters {
                    ctx.write_bit(m.ack, false);
                }
            }
            Wake::Signal(_) if ctx.is_signal(self.clk) => {
                // One read per request line; the cooldown and in-service
                // filters are mask operations.
                let lines = request_lines(ctx, &self.masters);
                self.cooldown &= lines;
                let mut reqs = lines & !self.cooldown & !self.in_service;

                // Finish error completions from last cycle.
                for master in std::mem::take(&mut self.error_complete) {
                    ctx.write_bit(self.masters[master].ack, false);
                    self.cooldown |= bit(master);
                    self.in_service &= !bit(master);
                    self.transactions += 1;
                }

                // Decode each eligible request once. Unmapped addresses
                // take the error path in master order (not tied to any
                // lane); the rest join their lane's request mask.
                self.lane_reqs.fill(0);
                for i in bits(reqs) {
                    let addr = ctx.read(self.masters[i].addr) as u32;
                    match self.map.decode(addr) {
                        Some(lane) => self.lane_reqs[lane] |= bit(i),
                        None => {
                            self.decode_errors += 1;
                            ctx.write_bit(self.masters[i].ack, true);
                            ctx.write(self.masters[i].rdata, DECODE_ERROR_DATA as u64);
                            self.in_service |= bit(i);
                            self.error_complete.push(i);
                            reqs &= !bit(i);
                        }
                    }
                }

                let mut any_busy = false;
                for lane in 0..self.lanes.len() {
                    match self.lanes[lane] {
                        LaneState::Idle => {
                            if let Some(winner) = self.arbiters[lane].pick(self.lane_reqs[lane]) {
                                any_busy = true;
                                reqs &= !bit(winner);
                                self.in_service |= bit(winner);
                                let f = match &self.fault {
                                    Some(hook) => hook.borrow_mut().bus_access(winner),
                                    None => BusFault::default(),
                                };
                                if f.decode_error {
                                    // Forced decode error: ack with the
                                    // error pattern, slave never sees it.
                                    self.decode_errors += 1;
                                    ctx.write_bit(self.masters[winner].ack, true);
                                    ctx.write(
                                        self.masters[winner].rdata,
                                        DECODE_ERROR_DATA as u64,
                                    );
                                    self.error_complete.push(winner);
                                    continue;
                                }
                                // Grant retention (with zero latency there
                                // is no phase to skip — don't count it).
                                let retained = self.config.burst_grant
                                    && self.config.arbitration_latency > 0
                                    && self.lane_last[lane] == Some(winner);
                                if retained {
                                    self.retained_grants += 1;
                                }
                                let latency = if retained {
                                    0
                                } else {
                                    self.config.arbitration_latency
                                };
                                // A grant-stall fault stretches the
                                // arbitration phase.
                                let total = latency + f.stall_cycles;
                                if total == 0 {
                                    self.forward(ctx, lane, winner);
                                } else {
                                    self.lanes[lane] = LaneState::Arbitrate {
                                        master: winner,
                                        remaining: total,
                                    };
                                }
                            }
                        }
                        LaneState::Arbitrate { master, remaining } => {
                            any_busy = true;
                            if remaining <= 1 {
                                self.forward(ctx, lane, master);
                            } else {
                                self.lanes[lane] = LaneState::Arbitrate {
                                    master,
                                    remaining: remaining - 1,
                                };
                            }
                        }
                        LaneState::WaitSlave { master } => {
                            any_busy = true;
                            let s = self.slaves[lane];
                            if ctx.read_bit(s.ack) {
                                let data = ctx.read(s.rdata);
                                ctx.write_bit(s.req, false);
                                let m = self.masters[master];
                                ctx.write_bit(m.ack, true);
                                ctx.write(m.rdata, data);
                                self.slave_transactions[lane] += 1;
                                self.lanes[lane] = LaneState::Complete { master };
                            }
                        }
                        LaneState::Complete { master } => {
                            any_busy = true;
                            ctx.write_bit(self.masters[master].ack, false);
                            self.cooldown |= bit(master);
                            self.in_service &= !bit(master);
                            self.transactions += 1;
                            self.lane_last[lane] = Some(master);
                            self.lanes[lane] = LaneState::Idle;
                        }
                    }
                }

                // Wait accounting: requesting but not in service.
                for i in bits(reqs & !self.in_service) {
                    self.wait_cycles[i] += 1;
                }
                if any_busy {
                    self.busy_cycles += 1;
                } else {
                    self.idle_cycles += 1;
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

    fn save_state(&self, w: &mut dmi_kernel::StateWriter) {
        w.put_u32(self.lanes.len() as u32);
        for lane in &self.lanes {
            match *lane {
                LaneState::Idle => w.put_u8(0),
                LaneState::Arbitrate { master, remaining } => {
                    w.put_u8(1);
                    w.put_u64(master as u64);
                    w.put_u64(remaining);
                }
                LaneState::WaitSlave { master } => {
                    w.put_u8(2);
                    w.put_u64(master as u64);
                }
                LaneState::Complete { master } => {
                    w.put_u8(3);
                    w.put_u64(master as u64);
                }
            }
        }
        for a in &self.arbiters {
            a.save_state(w);
        }
        for last in &self.lane_last {
            match last {
                Some(m) => {
                    w.put_bool(true);
                    w.put_u64(*m as u64);
                }
                None => w.put_bool(false),
            }
        }
        w.put_u64(self.retained_grants);
        let n = self.masters.len();
        w.put_u32(n as u32);
        save_mask(w, self.cooldown, n);
        save_mask(w, self.in_service, n);
        for wc in &self.wait_cycles {
            w.put_u64(*wc);
        }
        for st in &self.slave_transactions {
            w.put_u64(*st);
        }
        w.put_u64(self.transactions);
        w.put_u64(self.decode_errors);
        w.put_u64(self.busy_cycles);
        w.put_u64(self.idle_cycles);
        w.put_u32(self.error_complete.len() as u32);
        for m in &self.error_complete {
            w.put_u64(*m as u64);
        }
    }

    fn load_state(
        &mut self,
        r: &mut dmi_kernel::StateReader<'_>,
    ) -> Result<(), dmi_kernel::SnapshotError> {
        use dmi_kernel::SnapshotError;
        let n = self.masters.len();
        let master_bound = |m: u64| -> Result<usize, SnapshotError> {
            if (m as usize) < n {
                Ok(m as usize)
            } else {
                Err(SnapshotError::Corrupt {
                    context: format!("crossbar state names master {m} of {n}"),
                })
            }
        };
        let lanes = r.get_u32("crossbar lane count")? as usize;
        if lanes != self.lanes.len() {
            return Err(SnapshotError::Mismatch {
                context: format!(
                    "snapshot crossbar has {lanes} lanes, target has {}",
                    self.lanes.len()
                ),
            });
        }
        for lane in &mut self.lanes {
            *lane = match r.get_u8("crossbar lane fsm")? {
                0 => LaneState::Idle,
                1 => LaneState::Arbitrate {
                    master: master_bound(r.get_u64("crossbar lane master")?)?,
                    remaining: r.get_u64("crossbar lane remaining")?,
                },
                2 => LaneState::WaitSlave {
                    master: master_bound(r.get_u64("crossbar lane master")?)?,
                },
                3 => LaneState::Complete {
                    master: master_bound(r.get_u64("crossbar lane master")?)?,
                },
                t => {
                    return Err(SnapshotError::Corrupt {
                        context: format!("crossbar: unknown lane fsm tag {t}"),
                    })
                }
            };
        }
        for a in &mut self.arbiters {
            a.load_state(r)?;
        }
        for last in &mut self.lane_last {
            *last = if r.get_bool("crossbar lane_last flag")? {
                Some(master_bound(r.get_u64("crossbar lane_last master")?)?)
            } else {
                None
            };
        }
        self.retained_grants = r.get_u64("crossbar retained_grants")?;
        let cd = r.get_u32("crossbar master count")? as usize;
        if cd != n {
            return Err(SnapshotError::Mismatch {
                context: format!("snapshot crossbar has {cd} masters, target has {n}"),
            });
        }
        self.cooldown = load_mask(r, n, "crossbar cooldown flag")?;
        self.in_service = load_mask(r, n, "crossbar in_service flag")?;
        for wc in &mut self.wait_cycles {
            *wc = r.get_u64("crossbar wait_cycles")?;
        }
        for st in &mut self.slave_transactions {
            *st = r.get_u64("crossbar slave_transactions")?;
        }
        self.transactions = r.get_u64("crossbar transactions")?;
        self.decode_errors = r.get_u64("crossbar decode_errors")?;
        self.busy_cycles = r.get_u64("crossbar busy_cycles")?;
        self.idle_cycles = r.get_u64("crossbar idle_cycles")?;
        let ec = r.get_u32("crossbar error_complete count")? as usize;
        self.error_complete.clear();
        for _ in 0..ec {
            self.error_complete
                .push(master_bound(r.get_u64("crossbar error_complete master")?)?);
        }
        Ok(())
    }
}
