//! The shared bus: N masters, P slaves, one transaction at a time.
//!
//! The bus is the contention point of the co-simulated MPSoC: it arbitrates
//! among requesting masters, decodes the winning address to a slave,
//! forwards the request over the slave handshake and routes the response
//! back. Wait states from slow slaves (e.g. a wrapper executing an
//! allocation) propagate to the master as delayed acknowledge — exactly
//! how the paper's ISSs experience memory latency.
//!
//! One clock edge reads each master's `req` line once into a request
//! mask; the arbiter picks from the mask, and waiting masters are counted
//! by walking its set bits.

use std::any::Any;

use dmi_core::{BusFault, FaultHook};
use dmi_kernel::{Component, Ctx, Simulator, Wake, Wire};

use crate::arbiter::{Arbiter, ArbiterKind};
use crate::map::AddressMap;

/// Bus-side view of one master's signals (the mirror of the CPU's
/// bus-master port bundle; construct it from the same wires).
#[derive(Debug, Clone, Copy)]
pub struct MasterIf {
    /// Request (in).
    pub req: Wire,
    /// Write enable (in).
    pub we: Wire,
    /// Size (in, 2 bits).
    pub size: Wire,
    /// Address (in, 32 bits).
    pub addr: Wire,
    /// Write data (in, 32 bits).
    pub wdata: Wire,
    /// Acknowledge (out).
    pub ack: Wire,
    /// Read data (out, 32 bits).
    pub rdata: Wire,
}

impl MasterIf {
    /// Declares a fresh master interface under `prefix` (tests and
    /// non-CPU masters; CPU-side bundles are declared by `dmi-iss`).
    pub fn declare(sim: &mut Simulator, prefix: &str) -> Self {
        MasterIf {
            req: sim.wire(format!("{prefix}.req"), 1),
            we: sim.wire(format!("{prefix}.we"), 1),
            size: sim.wire(format!("{prefix}.size"), 2),
            addr: sim.wire(format!("{prefix}.addr"), 32),
            wdata: sim.wire(format!("{prefix}.wdata"), 32),
            ack: sim.wire(format!("{prefix}.ack"), 1),
            rdata: sim.wire(format!("{prefix}.rdata"), 32),
        }
    }
}

/// Bus-side view of one slave's signals (mirror of the memory module's
/// slave port bundle; construct from the same wires).
#[derive(Debug, Clone, Copy)]
pub struct SlaveIf {
    /// Request (out).
    pub req: Wire,
    /// Write enable (out).
    pub we: Wire,
    /// Size (out, 2 bits).
    pub size: Wire,
    /// Address (out, 32 bits).
    pub addr: Wire,
    /// Write data (out, 32 bits).
    pub wdata: Wire,
    /// Granted master index (out, 4 bits).
    pub master: Wire,
    /// Acknowledge (in).
    pub ack: Wire,
    /// Read data (in, 32 bits).
    pub rdata: Wire,
}

impl SlaveIf {
    /// Declares a fresh slave interface under `prefix`.
    pub fn declare(sim: &mut Simulator, prefix: &str) -> Self {
        SlaveIf {
            req: sim.wire(format!("{prefix}.req"), 1),
            we: sim.wire(format!("{prefix}.we"), 1),
            size: sim.wire(format!("{prefix}.size"), 2),
            addr: sim.wire(format!("{prefix}.addr"), 32),
            wdata: sim.wire(format!("{prefix}.wdata"), 32),
            master: sim.wire(format!("{prefix}.master"), MASTER_ID_BITS as u8),
            ack: sim.wire(format!("{prefix}.ack"), 1),
            rdata: sim.wire(format!("{prefix}.rdata"), 32),
        }
    }
}

/// Data returned to a master whose address decodes to no slave.
pub const DECODE_ERROR_DATA: u32 = 0xDEAD_DEAD;

/// Width of the [`SlaveIf::master`] wire.
const MASTER_ID_BITS: u32 = 4;

/// Most masters one interconnect serves: a granted master's index must
/// fit the 4-bit [`SlaveIf::master`] wire. It also keeps every master
/// within the `u32` request masks.
pub const MAX_MASTERS: usize = 1 << MASTER_ID_BITS;

/// Panics unless `n` masters fit [`MAX_MASTERS`].
pub(crate) fn assert_master_count(n: usize) {
    assert!(
        n <= MAX_MASTERS,
        "at most {MAX_MASTERS} bus masters (master id is {MASTER_ID_BITS} bits), got {n}"
    );
}

/// The request-mask bit of master `i`.
pub(crate) fn bit(i: usize) -> u32 {
    1 << i
}

/// The set bits of `mask`, lowest first.
pub(crate) fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Reads every master's `req` line once: bit `i` is set when master `i`
/// requests.
pub(crate) fn request_lines(ctx: &Ctx<'_>, masters: &[MasterIf]) -> u32 {
    masters.iter().enumerate().fold(0, |lines, (i, m)| {
        if ctx.read_bit(m.req) {
            lines | bit(i)
        } else {
            lines
        }
    })
}

/// Writes the low `n` bits of `mask` as one flag per master, lowest
/// first.
pub(crate) fn save_mask(w: &mut dmi_kernel::StateWriter, mask: u32, n: usize) {
    for i in 0..n {
        w.put_bool(mask & bit(i) != 0);
    }
}

/// Reads `n` per-master flags written by [`save_mask`].
pub(crate) fn load_mask(
    r: &mut dmi_kernel::StateReader<'_>,
    n: usize,
    context: &'static str,
) -> Result<u32, dmi_kernel::SnapshotError> {
    let mut mask = 0;
    for i in 0..n {
        if r.get_bool(context)? {
            mask |= bit(i);
        }
    }
    Ok(mask)
}

/// Configuration of a [`SharedBus`].
#[derive(Debug, Clone, Copy)]
pub struct BusConfig {
    /// Arbitration policy.
    pub arbiter: ArbiterKind,
    /// Extra cycles between grant and request forwarding (models a
    /// multi-cycle arbitration/address phase).
    pub arbitration_latency: u64,
    /// Back-to-back grant retention: when the arbiter picks the same
    /// master that completed the previous transaction and the address
    /// decodes to the same slave, skip the arbitration-latency phase and
    /// forward immediately — the grant is effectively held across the
    /// beats of a burst (AMBA-style locked/streamed transfers).
    ///
    /// This is a *timing-model* option: arbitration fairness is unchanged
    /// (the arbiter still picks every cycle), only the re-arbitration
    /// penalty for consecutive same-master/same-slave transfers is
    /// elided. Off by default so existing cycle traces stay comparable.
    pub burst_grant: bool,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            arbiter: ArbiterKind::RoundRobin,
            arbitration_latency: 1,
            burst_grant: false,
        }
    }
}

/// Contention and throughput counters of the bus.
#[derive(Debug, Clone, Default)]
pub struct BusStats {
    /// Completed transactions.
    pub transactions: u64,
    /// Requests to unmapped addresses.
    pub decode_errors: u64,
    /// Cycles each master spent requesting without being served.
    pub master_wait_cycles: Vec<u64>,
    /// Grants per master.
    pub master_grants: Vec<u64>,
    /// Transactions per slave.
    pub slave_transactions: Vec<u64>,
    /// Cycles with a transaction in flight.
    pub busy_cycles: u64,
    /// Cycles with no request pending.
    pub idle_cycles: u64,
    /// Transactions that skipped re-arbitration through burst grant
    /// retention ([`BusConfig::burst_grant`]).
    pub retained_grants: u64,
}

impl BusStats {
    /// Bus utilisation: busy cycles over total observed cycles.
    pub fn utilisation(&self) -> f64 {
        let total = self.busy_cycles + self.idle_cycles;
        if total == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BusState {
    Idle,
    Arbitrate { master: usize, slave: usize, remaining: u64 },
    WaitSlave { master: usize, slave: usize },
    Complete { master: usize },
}

/// The shared-bus interconnect component.
#[derive(Debug)]
pub struct SharedBus {
    name: String,
    clk: Wire,
    masters: Vec<MasterIf>,
    slaves: Vec<SlaveIf>,
    map: AddressMap,
    arbiter: Arbiter,
    config: BusConfig,
    state: BusState,
    /// Masters in their post-ack cooldown, bit `i` for master `i`: a
    /// master must drop `req` for a cycle before its next grant.
    cooldown: u32,
    wait_cycles: Vec<u64>,
    slave_transactions: Vec<u64>,
    transactions: u64,
    decode_errors: u64,
    busy_cycles: u64,
    idle_cycles: u64,
    /// `(master, slave)` of the last completed transaction, for
    /// [`BusConfig::burst_grant`] retention.
    last_route: Option<(usize, usize)>,
    /// Transactions that skipped re-arbitration via grant retention.
    retained_grants: u64,
    /// Shared fault controller, when the system wired fault injection.
    /// `None` (the default) is the bit-identical pre-fault path.
    fault: Option<FaultHook>,
}

impl SharedBus {
    /// Creates a bus over the given interfaces and address map.
    ///
    /// # Panics
    ///
    /// Panics with more than [`MAX_MASTERS`] masters.
    pub fn new(
        name: impl Into<String>,
        clk: Wire,
        masters: Vec<MasterIf>,
        slaves: Vec<SlaveIf>,
        map: AddressMap,
        config: BusConfig,
    ) -> Self {
        let n = masters.len();
        let p = slaves.len();
        assert_master_count(n);
        SharedBus {
            name: name.into(),
            clk,
            masters,
            slaves,
            map,
            arbiter: Arbiter::new(config.arbiter, n),
            config,
            state: BusState::Idle,
            cooldown: 0,
            wait_cycles: vec![0; n],
            slave_transactions: vec![0; p],
            transactions: 0,
            decode_errors: 0,
            busy_cycles: 0,
            idle_cycles: 0,
            last_route: None,
            retained_grants: 0,
            fault: None,
        }
    }

    /// Installs a shared fault controller; consulted once per granted
    /// transaction (forced decode errors, grant-stall windows).
    pub fn set_fault_hook(&mut self, hook: FaultHook) {
        self.fault = Some(hook);
    }

    /// Contention statistics.
    pub fn stats(&self) -> BusStats {
        BusStats {
            transactions: self.transactions,
            decode_errors: self.decode_errors,
            master_wait_cycles: self.wait_cycles.clone(),
            master_grants: self.arbiter.grants().to_vec(),
            slave_transactions: self.slave_transactions.clone(),
            busy_cycles: self.busy_cycles,
            idle_cycles: self.idle_cycles,
            retained_grants: self.retained_grants,
        }
    }

    /// Samples the request lines, one read per master, into a request
    /// mask. A master leaves its post-ack cooldown when it drops `req`;
    /// until then its request is filtered out.
    fn sample_requests(&mut self, ctx: &Ctx<'_>) -> u32 {
        let lines = request_lines(ctx, &self.masters);
        self.cooldown &= lines;
        lines & !self.cooldown
    }

    /// Books a wait cycle to every requester but the one being served.
    fn count_waiters(wait_cycles: &mut [u64], reqs: u32, served: usize) {
        for i in bits(reqs & !bit(served)) {
            wait_cycles[i] += 1;
        }
    }

    fn forward(&mut self, ctx: &mut Ctx<'_>, master: usize, slave: usize) {
        let m = self.masters[master];
        let s = self.slaves[slave];
        ctx.write_bit(s.req, true);
        ctx.write_bit(s.we, ctx.read_bit(m.we));
        ctx.write(s.size, ctx.read(m.size));
        ctx.write(s.addr, ctx.read(m.addr));
        ctx.write(s.wdata, ctx.read(m.wdata));
        ctx.write(s.master, master as u64);
        self.state = BusState::WaitSlave { master, slave };
    }
}

impl Component for SharedBus {
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
                let reqs = self.sample_requests(ctx);
                match self.state {
                    BusState::Idle => {
                        match self.arbiter.pick(reqs) {
                            Some(winner) => {
                                self.busy_cycles += 1;
                                Self::count_waiters(&mut self.wait_cycles, reqs, winner);
                                let addr = ctx.read(self.masters[winner].addr) as u32;
                                let f = match &self.fault {
                                    Some(hook) => hook.borrow_mut().bus_access(winner),
                                    None => BusFault::default(),
                                };
                                match self.map.decode(addr) {
                                    Some(slave) if !f.decode_error => {
                                        // With zero arbitration latency there
                                        // is no phase to skip: retention would
                                        // change nothing, so don't count it.
                                        let retained = self.config.burst_grant
                                            && self.config.arbitration_latency > 0
                                            && self.last_route == Some((winner, slave));
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
                                            self.forward(ctx, winner, slave);
                                        } else {
                                            self.state = BusState::Arbitrate {
                                                master: winner,
                                                slave,
                                                remaining: total,
                                            };
                                        }
                                    }
                                    _ => {
                                        self.decode_errors += 1;
                                        self.last_route = None;
                                        let m = self.masters[winner];
                                        ctx.write_bit(m.ack, true);
                                        ctx.write(m.rdata, DECODE_ERROR_DATA as u64);
                                        self.state = BusState::Complete { master: winner };
                                    }
                                }
                            }
                            None => self.idle_cycles += 1,
                        }
                    }
                    BusState::Arbitrate {
                        master,
                        slave,
                        remaining,
                    } => {
                        self.busy_cycles += 1;
                        Self::count_waiters(&mut self.wait_cycles, reqs, master);
                        if remaining <= 1 {
                            self.forward(ctx, master, slave);
                        } else {
                            self.state = BusState::Arbitrate {
                                master,
                                slave,
                                remaining: remaining - 1,
                            };
                        }
                    }
                    BusState::WaitSlave { master, slave } => {
                        self.busy_cycles += 1;
                        Self::count_waiters(&mut self.wait_cycles, reqs, master);
                        let s = self.slaves[slave];
                        if ctx.read_bit(s.ack) {
                            let data = ctx.read(s.rdata);
                            ctx.write_bit(s.req, false);
                            let m = self.masters[master];
                            ctx.write_bit(m.ack, true);
                            ctx.write(m.rdata, data);
                            self.slave_transactions[slave] += 1;
                            self.last_route = Some((master, slave));
                            self.state = BusState::Complete { master };
                        }
                    }
                    BusState::Complete { master } => {
                        self.busy_cycles += 1;
                        Self::count_waiters(&mut self.wait_cycles, reqs, master);
                        ctx.write_bit(self.masters[master].ack, false);
                        self.cooldown |= bit(master);
                        self.transactions += 1;
                        self.state = BusState::Idle;
                    }
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
        match self.state {
            BusState::Idle => w.put_u8(0),
            BusState::Arbitrate {
                master,
                slave,
                remaining,
            } => {
                w.put_u8(1);
                w.put_u64(master as u64);
                w.put_u64(slave as u64);
                w.put_u64(remaining);
            }
            BusState::WaitSlave { master, slave } => {
                w.put_u8(2);
                w.put_u64(master as u64);
                w.put_u64(slave as u64);
            }
            BusState::Complete { master } => {
                w.put_u8(3);
                w.put_u64(master as u64);
            }
        }
        w.put_u32(self.masters.len() as u32);
        save_mask(w, self.cooldown, self.masters.len());
        for wc in &self.wait_cycles {
            w.put_u64(*wc);
        }
        w.put_u32(self.slave_transactions.len() as u32);
        for st in &self.slave_transactions {
            w.put_u64(*st);
        }
        w.put_u64(self.transactions);
        w.put_u64(self.decode_errors);
        w.put_u64(self.busy_cycles);
        w.put_u64(self.idle_cycles);
        match self.last_route {
            Some((m, s)) => {
                w.put_bool(true);
                w.put_u64(m as u64);
                w.put_u64(s as u64);
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.retained_grants);
        self.arbiter.save_state(w);
    }

    fn load_state(
        &mut self,
        r: &mut dmi_kernel::StateReader<'_>,
    ) -> Result<(), dmi_kernel::SnapshotError> {
        use dmi_kernel::SnapshotError;
        let n = self.masters.len();
        let p = self.slaves.len();
        let master_bound = |m: u64| -> Result<usize, SnapshotError> {
            if (m as usize) < n {
                Ok(m as usize)
            } else {
                Err(SnapshotError::Corrupt {
                    context: format!("bus state names master {m} of {n}"),
                })
            }
        };
        let slave_bound = |s: u64| -> Result<usize, SnapshotError> {
            if (s as usize) < p {
                Ok(s as usize)
            } else {
                Err(SnapshotError::Corrupt {
                    context: format!("bus state names slave {s} of {p}"),
                })
            }
        };
        self.state = match r.get_u8("bus fsm")? {
            0 => BusState::Idle,
            1 => BusState::Arbitrate {
                master: master_bound(r.get_u64("bus fsm master")?)?,
                slave: slave_bound(r.get_u64("bus fsm slave")?)?,
                remaining: r.get_u64("bus fsm remaining")?,
            },
            2 => BusState::WaitSlave {
                master: master_bound(r.get_u64("bus fsm master")?)?,
                slave: slave_bound(r.get_u64("bus fsm slave")?)?,
            },
            3 => BusState::Complete {
                master: master_bound(r.get_u64("bus fsm master")?)?,
            },
            t => {
                return Err(SnapshotError::Corrupt {
                    context: format!("bus: unknown fsm tag {t}"),
                })
            }
        };
        let cd = r.get_u32("bus cooldown count")? as usize;
        if cd != n {
            return Err(SnapshotError::Mismatch {
                context: format!("snapshot bus has {cd} masters, target has {n}"),
            });
        }
        self.cooldown = load_mask(r, n, "bus cooldown flag")?;
        for wc in &mut self.wait_cycles {
            *wc = r.get_u64("bus wait_cycles")?;
        }
        let st = r.get_u32("bus slave count")? as usize;
        if st != p {
            return Err(SnapshotError::Mismatch {
                context: format!("snapshot bus has {st} slaves, target has {p}"),
            });
        }
        for s in &mut self.slave_transactions {
            *s = r.get_u64("bus slave_transactions")?;
        }
        self.transactions = r.get_u64("bus transactions")?;
        self.decode_errors = r.get_u64("bus decode_errors")?;
        self.busy_cycles = r.get_u64("bus busy_cycles")?;
        self.idle_cycles = r.get_u64("bus idle_cycles")?;
        self.last_route = if r.get_bool("bus last_route flag")? {
            Some((
                master_bound(r.get_u64("bus last_route master")?)?,
                slave_bound(r.get_u64("bus last_route slave")?)?,
            ))
        } else {
            None
        };
        self.retained_grants = r.get_u64("bus retained_grants")?;
        self.arbiter.load_state(r)
    }
}
