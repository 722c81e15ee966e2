//! The simulator: owns components, signals, clocks and the event loop.

use std::time::{Duration, Instant};

use crate::component::{Component, ComponentId, Wake};
use crate::ctx::{Ctx, StopReason};
use crate::event::{Event, EventKind, EventQueue};
use crate::signal::{Change, Edge, SignalBoard, Wire};
use crate::stats::{FastPathStats, KernelStats};
use crate::time::SimTime;
use crate::trace::Tracer;

/// When a [`Simulator::run`] call must stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Deadline {
    /// Absolute simulated time (inclusive of events at earlier times,
    /// exclusive of events after it).
    Absolute(SimTime),
    /// Resolved against the current simulation time when the run starts.
    TicksFromNow(u64),
}

/// How long a [`Simulator::run`] call may execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimit {
    deadline: Deadline,
    /// Maximum number of events to dispatch in this call, as a safety net
    /// for runaway models. `u64::MAX` means unlimited.
    max_events: u64,
}

impl RunLimit {
    /// Run for `ticks` ticks past the simulation time current when
    /// [`Simulator::run`] is called (resolved at that point, so the same
    /// limit value can be reused across consecutive runs).
    pub fn for_ticks(ticks: u64) -> Self {
        RunLimit {
            deadline: Deadline::TicksFromNow(ticks),
            max_events: u64::MAX,
        }
    }

    /// Run until the given absolute time.
    pub fn until(deadline: SimTime) -> Self {
        RunLimit {
            deadline: Deadline::Absolute(deadline),
            max_events: u64::MAX,
        }
    }

    /// Run until a component stops the simulation or the queue drains.
    pub fn unbounded() -> Self {
        RunLimit {
            deadline: Deadline::Absolute(SimTime::MAX),
            max_events: u64::MAX,
        }
    }

    /// Caps the number of dispatched events.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// The absolute deadline this limit means when starting from `now`.
    fn resolve(&self, now: SimTime) -> SimTime {
        match self.deadline {
            Deadline::Absolute(t) => t,
            Deadline::TicksFromNow(ticks) => now.saturating_add(ticks),
        }
    }
}

/// Result of one [`Simulator::run`] call.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Simulated time when the run ended.
    pub end_time: SimTime,
    /// Counter deltas for this run only.
    pub stats: KernelStats,
    /// Host wall-clock time the run took.
    pub wall: Duration,
    /// Why the run ended early, if a component stopped it.
    pub stop: Option<StopReason>,
}

impl RunSummary {
    /// Simulated ticks per host second — the *simulation speed* metric the
    /// paper's evaluation reports (higher is better).
    pub fn ticks_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.end_time.ticks() as f64 / secs
        }
    }

    /// Whether the run ended because a component signalled an error.
    pub fn is_error(&self) -> bool {
        self.stop.as_ref().is_some_and(StopReason::is_error)
    }
}

#[derive(Debug)]
struct ClockDef {
    wire: Wire,
    half_period: u64,
}

/// One clock's pending toggle in the clock calendar: when it fires and
/// the *virtual* sequence number it holds in the global scheduling
/// order. `None` while the toggle is parked in the event queue instead
/// (calendar disabled).
type CalendarSlot = Option<(SimTime, u64)>;

/// Which event-queue implementation the run loop executes against.
///
/// The kernel has one queue, the binary heap (`EventQueue`), so
/// [`Simulator::queue_kind`] always returns [`Heap`](QueueKind::Heap).
/// The enum stays for readers of that accessor (the `kernel.queue_kind`
/// metric of the `benchmark/` crate); [`Wheel`](QueueKind::Wheel) is
/// never produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// The binary heap, the only queue.
    Heap,
    /// The time-wheel queue the kernel no longer has. Never produced.
    Wheel,
}

/// Default for the kernel's clocked-path specialization (the
/// edge-summary commit skip and the batched same-edge dispatch), read
/// from the `DMI_KERNEL_SPECIALIZE` environment variable: `0` or `off`
/// selects the unspecialized reference path. On by default.
///
/// The reference path is kept purely so differential tests (and CI) can
/// pin the specialized path bit-identical to it — like `DMI_PREDECODE=0`
/// for the ISS dispatch engines.
pub fn clock_specialization_default() -> bool {
    match std::env::var("DMI_KERNEL_SPECIALIZE") {
        Ok(v) => !(v == "0" || v.eq_ignore_ascii_case("off")),
        Err(_) => true,
    }
}

/// Default for the clock calendar (periodic toggles held in per-clock
/// slots compared against the event-queue head instead of round-tripping
/// through the queue), read from the `DMI_CLOCK_CALENDAR` environment
/// variable: `0` or `off` selects the queued reference path. On by
/// default.
///
/// Like `DMI_KERNEL_SPECIALIZE` and `DMI_PREDECODE`, the knob exists for
/// A/B measurement and differential testing — the simulation is
/// bit-identical either way (`tests/clock_specialization.rs`).
pub fn clock_calendar_default() -> bool {
    match std::env::var("DMI_CLOCK_CALENDAR") {
        Ok(v) => !(v == "0" || v.eq_ignore_ascii_case("off")),
        Err(_) => true,
    }
}

/// Discrete-event simulator with SystemC-style delta cycles.
///
/// Build phase: declare signals with [`wire`](Self::wire), register
/// components with [`add_component`](Self::add_component), connect
/// sensitivities with [`subscribe`](Self::subscribe) and create clocks with
/// [`add_clock`](Self::add_clock). Run phase: [`run_for`](Self::run_for) /
/// [`run`](Self::run).
///
/// # Examples
///
/// ```
/// use dmi_kernel::{Component, Ctx, Edge, Simulator, Wake};
///
/// /// Toggles its output on every rising clock edge.
/// struct Blinker {
///     clk: dmi_kernel::Wire,
///     out: dmi_kernel::Wire,
///     state: bool,
/// }
/// impl Component for Blinker {
///     fn name(&self) -> &str { "blinker" }
///     fn wake(&mut self, ctx: &mut Ctx<'_>) {
///         if ctx.is_signal(self.clk) {
///             self.state = !self.state;
///             ctx.write_bit(self.out, self.state);
///         }
///     }
///     fn as_any(&self) -> &dyn std::any::Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// }
///
/// let mut sim = Simulator::new();
/// let clk = sim.add_clock("clk", 10);
/// let out = sim.wire("out", 1);
/// let id = sim.add_component(Box::new(Blinker { clk, out, state: false }));
/// sim.subscribe(id, clk, Edge::Rising);
/// sim.run_for(100);
/// assert!(sim.stats().wakes > 5);
/// ```
#[derive(Debug)]
pub struct Simulator {
    comps: Vec<Option<Box<dyn Component>>>,
    comp_names: Vec<String>,
    signals: SignalBoard,
    queue: EventQueue,
    clocks: Vec<ClockDef>,
    time: SimTime,
    stop: Option<StopReason>,
    stats: KernelStats,
    tracer: Tracer,
    delta_limit: u32,
    /// Whether the clocked-path specialization (edge-summary commit
    /// skip and batched same-edge dispatch) is active; the `false` path
    /// is the unspecialized reference implementation kept for
    /// differential testing. See [`clock_specialization_default`].
    specialize: bool,
    /// Whether periodic clock toggles are held in the calendar (the
    /// default) or round-trip through the event queue (the reference
    /// path kept for differential testing). See
    /// [`clock_calendar_default`].
    calendar_on: bool,
    /// Per-clock next-toggle slots, parallel to `clocks`. A slot holds
    /// the toggle's fire time and its *virtual* sequence number —
    /// claimed from the queue's counter at exactly the point the queued
    /// path would have pushed the `ClockToggle`, so merging the calendar
    /// head against the queue head by the full `(time, delta, seq)` key
    /// reproduces the queued dispatch order bit for bit.
    calendar: Vec<CalendarSlot>,
    /// Fast-path counters (observability for tests and tuning; not part
    /// of [`KernelStats`], which must be identical with the fast paths
    /// on or off — see [`FastPathStats`]).
    fast: FastPathStats,
    // Scratch buffers reused across deltas to avoid per-cycle allocation.
    changes: Vec<Change>,
    woken: Vec<bool>,
    woken_list: Vec<ComponentId>,
    /// Signal wakes produced by the current delta's update phase, carried
    /// directly to the next delta instead of through the event queue.
    /// Dispatch order is identical (queued timers at `(t, delta + 1)`
    /// always precede the update phase's wakes in sequence number), but
    /// the ~one-wake-per-subscriber-per-edge traffic skips the priority
    /// queue entirely — the single hottest path of clocked systems.
    pending_wakes: Vec<(ComponentId, crate::signal::SignalId)>,
    /// Clock wires whose current-delta toggle was proven unobservable
    /// (no matching edge subscriber, no tracer, no competing write) and
    /// deferred to the update phase as a quiet in-place flip.
    fast_toggles: Vec<Wire>,
}

impl std::fmt::Debug for dyn Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Component({})", self.name())
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Creates an empty simulator.
    pub fn new() -> Self {
        Simulator {
            comps: Vec::new(),
            comp_names: Vec::new(),
            signals: SignalBoard::new(),
            queue: EventQueue::new(),
            clocks: Vec::new(),
            time: SimTime::ZERO,
            stop: None,
            stats: KernelStats::default(),
            tracer: Tracer::new(),
            delta_limit: 10_000,
            specialize: clock_specialization_default(),
            calendar_on: clock_calendar_default(),
            calendar: Vec::new(),
            fast: FastPathStats::default(),
            changes: Vec::new(),
            woken: Vec::new(),
            woken_list: Vec::new(),
            pending_wakes: Vec::new(),
            fast_toggles: Vec::new(),
        }
    }

    /// The event-queue implementation: always [`QueueKind::Heap`].
    pub fn queue_kind(&self) -> QueueKind {
        QueueKind::Heap
    }

    /// Enables or disables the clocked-path specialization (A/B and
    /// differential testing; results are bit-identical either way).
    /// Defaults from the `DMI_KERNEL_SPECIALIZE` environment variable —
    /// see [`clock_specialization_default`].
    pub fn set_clock_specialization(&mut self, on: bool) {
        self.specialize = on;
    }

    /// Number of clock toggles that took the quiet fast path (skipped
    /// commit scan and wake pass) across all runs.
    pub fn quiet_toggles(&self) -> u64 {
        self.fast.quiet_toggles
    }

    /// Number of clock toggles dispatched from the calendar (never
    /// entering the event queue) across all runs.
    pub fn calendar_toggles(&self) -> u64 {
        self.fast.calendar_toggles
    }

    /// Cumulative fast-path counters across all runs (total toggles,
    /// quiet flips, calendar dispatches). Unlike [`stats`](Self::stats),
    /// these *describe which path ran* and so legitimately differ
    /// between the reference and fast configurations.
    pub fn fast_path_stats(&self) -> FastPathStats {
        self.fast
    }

    /// Whether the clock calendar is active.
    pub fn clock_calendar(&self) -> bool {
        self.calendar_on
    }

    /// Enables or disables the clock calendar (A/B and differential
    /// testing; results are bit-identical either way — defaults from the
    /// `DMI_CLOCK_CALENDAR` environment variable, see
    /// [`clock_calendar_default`]).
    ///
    /// Pending toggles migrate between the queue and the calendar with
    /// their original `(time, seq)` keys, so switching between runs —
    /// even mid-simulation — cannot change the dispatch order.
    pub fn set_clock_calendar(&mut self, on: bool) {
        if self.calendar_on == on {
            return;
        }
        self.calendar_on = on;
        if on {
            // Queue → calendar: lift every pending `ClockToggle` into
            // its clock's slot; everything else goes back with its
            // original sequence number.
            for ev in self.queue.drain_ordered() {
                match ev.kind {
                    EventKind::ClockToggle(k) => {
                        debug_assert!(self.calendar[k].is_none(), "one toggle per clock");
                        self.calendar[k] = Some((ev.time, ev.seq));
                    }
                    _ => self.queue.push_event(ev),
                }
            }
        } else {
            // Calendar → queue: park every slot as an ordinary event.
            for (k, slot) in self.calendar.iter_mut().enumerate() {
                if let Some((time, seq)) = slot.take() {
                    self.queue.push_event(Event {
                        time,
                        delta: 0,
                        seq,
                        kind: EventKind::ClockToggle(k),
                    });
                }
            }
        }
    }

    /// Declares a signal.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=64`.
    pub fn wire(&mut self, name: impl Into<String>, width: u8) -> Wire {
        self.signals.declare(name, width)
    }

    /// Registers a component and schedules its [`Wake::Start`] at time zero.
    pub fn add_component(&mut self, component: Box<dyn Component>) -> ComponentId {
        let id = ComponentId::from_raw(self.comps.len());
        self.comp_names.push(component.name().to_owned());
        self.comps.push(Some(component));
        self.woken.push(false);
        self.queue.push(self.time, 0, EventKind::Start(id));
        id
    }

    /// Subscribes a component to changes of `wire` matching `edge`.
    pub fn subscribe(&mut self, component: ComponentId, wire: Wire, edge: Edge) {
        self.signals.subscribe(wire, component, edge);
    }

    /// Creates a kernel-managed clock signal with the given full period in
    /// ticks. The clock starts low; its first rising edge fires at
    /// `t = period`, then edges alternate every `period / 2`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not an even number of at least 2 ticks.
    pub fn add_clock(&mut self, name: impl Into<String>, period: u64) -> Wire {
        assert!(
            period >= 2 && period.is_multiple_of(2),
            "clock period must be even and >= 2, got {period}"
        );
        let wire = self.signals.declare(name, 1);
        let idx = self.clocks.len();
        self.clocks.push(ClockDef {
            wire,
            half_period: period / 2,
        });
        let first = SimTime::from_ticks(period);
        if self.calendar_on {
            let seq = self.queue.alloc_seq();
            self.calendar.push(Some((first, seq)));
        } else {
            self.calendar.push(None);
            self.queue.push(first, 0, EventKind::ClockToggle(idx));
        }
        wire
    }

    /// Marks a signal for tracing; its committed changes are recorded and
    /// can be rendered to VCD with [`write_vcd`](Self::write_vcd).
    pub fn trace(&mut self, wire: Wire) {
        self.signals.set_traced(wire.id(), true);
        self.tracer.add_signal(wire.id());
    }

    /// Traces every signal whose hierarchical name satisfies `pred`.
    /// Returns the number of signals now being traced.
    ///
    /// Convenient for post-build instrumentation:
    /// `sim.trace_matching(|n| n.starts_with("cpu0.bus"))`.
    pub fn trace_matching(&mut self, pred: impl Fn(&str) -> bool) -> usize {
        let ids: Vec<_> = self
            .signals
            .iter_meta()
            .filter(|(_, name, _)| pred(name))
            .map(|(id, _, _)| id)
            .collect();
        for id in &ids {
            self.signals.set_traced(*id, true);
            self.tracer.add_signal(*id);
        }
        ids.len()
    }

    /// Current simulated time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Cumulative kernel statistics across all runs.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// The signal board (for name/width introspection and test harnesses).
    pub fn signals(&self) -> &SignalBoard {
        &self.signals
    }

    /// The recorded trace.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Writes all traced signals as a VCD file covering the run so far.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the file.
    pub fn write_vcd(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.tracer.write_vcd(path, &self.signals, self.time)
    }

    /// Immutable access to a component by id, downcast to its concrete type.
    ///
    /// Returns `None` if the id is stale or `T` is not the component's type.
    pub fn component<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        self.comps
            .get(id.index())?
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Type-erased access to a component by id (for callers holding a
    /// probe function instead of a concrete type, e.g. bus-master stats
    /// collection).
    pub fn component_any(&self, id: ComponentId) -> Option<&dyn std::any::Any> {
        Some(self.comps.get(id.index())?.as_ref()?.as_any())
    }

    /// Mutable access to a component by id, downcast to its concrete type.
    pub fn component_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.comps
            .get_mut(id.index())?
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// The name a component was registered with.
    pub fn component_name(&self, id: ComponentId) -> &str {
        &self.comp_names[id.index()]
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }

    /// Registered components in id order: each component's id and name.
    /// The static-analysis layer uses this (together with
    /// [`signals`](Self::signals)) to extract a topology graph from a
    /// hand-wired simulator.
    pub fn components(&self) -> impl Iterator<Item = (ComponentId, &str)> {
        self.comp_names
            .iter()
            .enumerate()
            .map(|(i, name)| (ComponentId::from_raw(i), name.as_str()))
    }

    /// Number of kernel-managed clocks.
    pub fn clock_count(&self) -> usize {
        self.clocks.len()
    }

    /// The kernel-managed clocks in creation order: each clock's wire
    /// and its full toggle period in ticks (the value passed to
    /// [`add_clock`](Self::add_clock)).
    pub fn clocks(&self) -> impl Iterator<Item = (Wire, u64)> + '_ {
        self.clocks.iter().map(|c| (c.wire, c.half_period * 2))
    }

    /// Serializes the kernel's runtime state between runs: simulated
    /// time, cumulative [`KernelStats`] and [`FastPathStats`], the
    /// signal board (values, pending writes, counters), the clock
    /// calendar placement and slots (fire time + claimed virtual seq),
    /// every pending event with its full `(time, delta, seq)` key, and
    /// the global sequence counter. Restoring this exact tuple is what
    /// makes a resumed run replay bit-identically: the scheduling order
    /// is a pure function of the event keys and the counter.
    ///
    /// Takes `&mut self` because the queue is drained in order and
    /// refilled in place — the simulator is unchanged when this
    /// returns. Must be called between runs (never from inside a
    /// `wake`); carried-wake and quiet-toggle scratch state is provably
    /// empty there and is not serialized.
    /// The tracer is observability, not state, and is not serialized.
    pub fn save_state(&mut self, w: &mut crate::snapshot::StateWriter) {
        debug_assert!(
            self.pending_wakes.is_empty() && self.fast_toggles.is_empty(),
            "save_state must run between runs"
        );
        w.put_u64(self.time.ticks());
        w.put_u64(self.stats.events);
        w.put_u64(self.stats.wakes);
        w.put_u64(self.stats.deltas);
        w.put_u64(self.stats.time_steps);
        w.put_u64(self.fast.clock_toggles);
        w.put_u64(self.fast.quiet_toggles);
        w.put_u64(self.fast.calendar_toggles);
        w.put_u32(self.comps.len() as u32);
        self.signals.save_state(w);
        // Calendar placement + slots. Slots are `Some` only while the
        // calendar is enabled; the queued reference path keeps its
        // toggles among the ordinary events below.
        w.put_bool(self.calendar_on);
        w.put_u32(self.calendar.len() as u32);
        for slot in &self.calendar {
            match slot {
                Some((time, seq)) => {
                    w.put_bool(true);
                    w.put_u64(time.ticks());
                    w.put_u64(*seq);
                }
                None => w.put_bool(false),
            }
        }
        // Pending events, earliest first, with original keys.
        let events = self.queue.drain_ordered();
        w.put_u64(events.len() as u64);
        for ev in &events {
            w.put_u64(ev.time.ticks());
            w.put_u32(ev.delta);
            w.put_u64(ev.seq);
            match ev.kind {
                EventKind::Start(c) => {
                    w.put_u8(0);
                    w.put_u32(c.index() as u32);
                }
                EventKind::Wake(c, tag) => {
                    w.put_u8(1);
                    w.put_u32(c.index() as u32);
                    w.put_u64(tag);
                }
                EventKind::SignalWake(c, sig) => {
                    w.put_u8(2);
                    w.put_u32(c.index() as u32);
                    w.put_u32(sig.index() as u32);
                }
                EventKind::ClockToggle(k) => {
                    w.put_u8(3);
                    w.put_u32(k as u32);
                }
            }
        }
        w.put_u64(self.queue.scheduled_total());
        for ev in events {
            self.queue.push_event(ev);
        }
    }

    /// Restores kernel state written by [`Simulator::save_state`] onto a
    /// simulator with the same topology (components, signals, clocks).
    ///
    /// The calendar placement is a *target* choice, not snapshot
    /// content: if the snapshot's placement differs from this
    /// simulator's, the pending toggles are migrated through the same
    /// `(time, seq)`-preserving recipe as
    /// [`set_clock_calendar`](Self::set_clock_calendar) — so a snapshot
    /// taken on a calendar system restores bit-identically onto a
    /// queued-toggle one and vice versa.
    ///
    /// Every clock must have exactly one pending toggle: in its calendar
    /// slot when the snapshot was saved with the calendar on, one queued
    /// `ClockToggle` otherwise. Any other schedule is rejected as
    /// [`Corrupt`](crate::SnapshotError::Corrupt).
    ///
    /// On error the simulator may be partially restored and must be
    /// discarded.
    pub fn load_state(
        &mut self,
        r: &mut crate::snapshot::StateReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        self.time = SimTime::from_ticks(r.get_u64("kernel time")?);
        self.stats.events = r.get_u64("kernel stats.events")?;
        self.stats.wakes = r.get_u64("kernel stats.wakes")?;
        self.stats.deltas = r.get_u64("kernel stats.deltas")?;
        self.stats.time_steps = r.get_u64("kernel stats.time_steps")?;
        self.fast.clock_toggles = r.get_u64("kernel fast.clock_toggles")?;
        self.fast.quiet_toggles = r.get_u64("kernel fast.quiet_toggles")?;
        self.fast.calendar_toggles = r.get_u64("kernel fast.calendar_toggles")?;
        let comps = r.get_u32("component count")? as usize;
        if comps != self.comps.len() {
            return Err(SnapshotError::Mismatch {
                context: format!(
                    "snapshot has {comps} components, target has {}",
                    self.comps.len()
                ),
            });
        }
        self.signals.load_state(r)?;
        let saved_calendar_on = r.get_bool("calendar placement")?;
        let clocks = r.get_u32("clock count")? as usize;
        if clocks != self.calendar.len() {
            return Err(SnapshotError::Mismatch {
                context: format!(
                    "snapshot has {clocks} clocks, target has {}",
                    self.calendar.len()
                ),
            });
        }
        for slot in self.calendar.iter_mut() {
            *slot = if r.get_bool("calendar slot")? {
                let time = SimTime::from_ticks(r.get_u64("calendar slot time")?);
                let seq = r.get_u64("calendar slot seq")?;
                Some((time, seq))
            } else {
                None
            };
        }
        let count = r.get_u64("event count")?;
        let mut events = Vec::new();
        let mut queued_toggles = vec![0u64; clocks];
        for _ in 0..count {
            let time = SimTime::from_ticks(r.get_u64("event time")?);
            let delta = r.get_u32("event delta")?;
            let seq = r.get_u64("event seq")?;
            let tag = r.get_u8("event kind")?;
            let comp_bound = |raw: u32| -> Result<ComponentId, SnapshotError> {
                if (raw as usize) < comps {
                    Ok(ComponentId::from_raw(raw as usize))
                } else {
                    Err(SnapshotError::Corrupt {
                        context: format!("event names component {raw} of {comps}"),
                    })
                }
            };
            let kind = match tag {
                0 => EventKind::Start(comp_bound(r.get_u32("event component")?)?),
                1 => EventKind::Wake(
                    comp_bound(r.get_u32("event component")?)?,
                    r.get_u64("event tag")?,
                ),
                2 => {
                    let c = comp_bound(r.get_u32("event component")?)?;
                    let raw = r.get_u32("event signal")?;
                    if raw as usize >= self.signals.len() {
                        return Err(SnapshotError::Corrupt {
                            context: format!(
                                "event names signal {raw} of {}",
                                self.signals.len()
                            ),
                        });
                    }
                    EventKind::SignalWake(c, crate::signal::SignalId(raw))
                }
                3 => {
                    let k = r.get_u32("event clock")?;
                    if k as usize >= clocks {
                        return Err(SnapshotError::Corrupt {
                            context: format!("event names clock {k} of {clocks}"),
                        });
                    }
                    queued_toggles[k as usize] += 1;
                    EventKind::ClockToggle(k as usize)
                }
                t => {
                    return Err(SnapshotError::Corrupt {
                        context: format!("unknown event kind tag {t}"),
                    })
                }
            };
            events.push(Event {
                time,
                delta,
                seq,
                kind,
            });
        }
        // One pending toggle per clock, where the saved placement keeps
        // it: a second one would double the clock's edges.
        for (k, (slot, &queued)) in self.calendar.iter().zip(&queued_toggles).enumerate() {
            let one_toggle = if saved_calendar_on {
                slot.is_some() && queued == 0
            } else {
                slot.is_none() && queued == 1
            };
            if !one_toggle {
                return Err(SnapshotError::Corrupt {
                    context: format!(
                        "clock {k} has {} calendar and {queued} queued toggles \
                         (saved with the calendar {})",
                        usize::from(slot.is_some()),
                        if saved_calendar_on { "on" } else { "off" },
                    ),
                });
            }
        }
        let next_seq = r.get_u64("next seq")?;
        self.queue = EventQueue::new();
        for ev in events {
            self.queue.push_event(ev);
        }
        self.queue.set_next_seq(next_seq);
        // Calendar placement is this simulator's runtime choice; if the
        // snapshot was taken under the other placement, migrate the
        // toggles through the standard `(time, seq)`-preserving path.
        let want = self.calendar_on;
        self.calendar_on = saved_calendar_on;
        if want != saved_calendar_on {
            self.set_clock_calendar(want);
        }
        // A restored simulator resumes cleanly: no recorded stop, empty
        // per-delta scratch (provably empty at save time, see
        // `save_state`).
        self.stop = None;
        self.changes.clear();
        self.woken_list.clear();
        self.woken.iter_mut().for_each(|f| *f = false);
        self.pending_wakes.clear();
        self.fast_toggles.clear();
        Ok(())
    }

    /// Serializes one component's state (name-tagged, then the
    /// component's own [`Component::save_state`] payload).
    pub fn save_component_state(&self, index: usize, w: &mut crate::snapshot::StateWriter) {
        let comp = self.comps[index]
            .as_ref()
            .expect("component checked out during save");
        w.put_str(&self.comp_names[index]);
        comp.save_state(w);
    }

    /// Restores one component's state written by
    /// [`save_component_state`](Self::save_component_state), validating
    /// the recorded name against the registered one.
    pub fn load_component_state(
        &mut self,
        index: usize,
        r: &mut crate::snapshot::StateReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        if index >= self.comps.len() {
            return Err(SnapshotError::Mismatch {
                context: format!(
                    "snapshot names component {index} of {}",
                    self.comps.len()
                ),
            });
        }
        let name = r.get_str("component name")?;
        if name != self.comp_names[index] {
            return Err(SnapshotError::Mismatch {
                context: format!(
                    "component {index} is `{}` in the target but `{name}` in the snapshot",
                    self.comp_names[index]
                ),
            });
        }
        let comp = self.comps[index]
            .as_mut()
            .expect("component checked out during restore");
        comp.load_state(r)?;
        r.finish("component payload")
    }

    /// Forces a signal's current value before the first run (test stimuli).
    pub fn poke(&mut self, wire: Wire, value: u64) {
        self.signals.poke(wire, value);
    }

    /// Reads a signal's committed value.
    pub fn peek(&self, wire: Wire) -> u64 {
        self.signals.read(wire)
    }

    /// Runs for `ticks` ticks past the current time.
    pub fn run_for(&mut self, ticks: u64) -> RunSummary {
        self.run(RunLimit::for_ticks(ticks))
    }

    /// Runs until a component stops the simulation, the event queue drains,
    /// or `max_ticks` elapse — whichever comes first.
    pub fn run_until_stopped(&mut self, max_ticks: u64) -> RunSummary {
        self.run(RunLimit::for_ticks(max_ticks))
    }

    /// Runs the event loop under the given limit.
    ///
    /// A previously recorded stop reason is cleared so the simulation can be
    /// resumed after inspection.
    pub fn run(&mut self, limit: RunLimit) -> RunSummary {
        // The queue is taken out for the duration of the run so the loop
        // borrows the queue and the simulator independently.
        let mut queue = std::mem::take(&mut self.queue);
        let summary = self.run_core(limit, &mut queue);
        self.queue = queue;
        summary
    }

    /// The event loop. `#[inline(never)]` keeps it one outlined
    /// function: `run` and its wrappers stay thin, and the loop's code
    /// does not change with the code of its callers. The loop is
    /// sensitive to code layout (see the frame-hoisting note below).
    #[inline(never)]
    fn run_core(&mut self, limit: RunLimit, queue: &mut EventQueue) -> RunSummary {
        // Reporting-only wall-clock sample: never feeds back into event
        // ordering.
        #[allow(clippy::disallowed_methods)]
        let wall_start = Instant::now();
        let stats_start = self.stats;
        self.stop = None;
        let mut events_left = limit.max_events;
        let deadline = limit.resolve(self.time);

        'outer: while self.stop.is_none() {
            // The next work item is the earlier of the queue head and the
            // calendar head, compared by the full (time, delta, seq) key
            // (calendar toggles always fire at delta 0) — removing
            // periodic toggles from the queue must not reorder anything.
            let c = self.calendar_earliest();
            let (t, first_delta) = {
                let q = queue.peek_full_key();
                match (q, c) {
                    (None, None) => break,
                    (Some((qt, qd, qs)), Some((ct, cs, _))) => {
                        if (ct, 0u32, cs) < (qt, qd, qs) {
                            (ct, 0)
                        } else {
                            (qt, qd)
                        }
                    }
                    (Some((qt, qd, _)), None) => (qt, qd),
                    (None, Some((ct, _, _))) => (ct, 0),
                }
            };
            if t > deadline {
                self.time = deadline;
                break;
            }
            self.time = t;
            self.stats.time_steps += 1;

            let mut delta = first_delta;
            loop {
                // Evaluate: dispatch every event due at (t, delta) —
                // calendar toggles and queued events merged in `seq`
                // order; their sequence numbers always precede the
                // previous update phase's signal wakes…
                //
                // Calendar toggles only ever fire at delta 0, and a
                // dispatched toggle re-arms strictly later than `t`, so
                // the due lookup drains within the first delta. The
                // min-scan result is carried from the outer head and
                // cached across evaluate rounds, recomputed only after
                // `toggle_clock` re-arms a slot — one scan per
                // dispatched toggle, not one per round.
                let mut cal = match c {
                    Some((ct, cs, k)) if delta == 0 && ct == t => Some((k, cs)),
                    _ => None,
                };
                'evaluate: loop {
                    let cal_seq = cal.map_or(u64::MAX, |(_, s)| s);
                    let queued_due = matches!(
                        queue.peek_full_key(),
                        Some((tt, dd, s)) if tt == t && dd == delta && s < cal_seq
                    );
                    if !queued_due {
                        let Some((k, _)) = cal else { break 'evaluate };
                        // The calendar head is next. Nothing was popped,
                        // so a budget stop simply leaves the slot armed —
                        // the resumed run dispatches it with the same key
                        // the queued path would have replayed.
                        if events_left == 0 {
                            self.stop =
                                Some(StopReason::Error("event budget exhausted".into()));
                            self.park_fast_toggles();
                            self.requeue_pending_wakes(queue, t, delta);
                            break 'outer;
                        }
                        events_left -= 1;
                        self.stats.events += 1;
                        self.fast.calendar_toggles += 1;
                        self.toggle_clock(queue, k, t);
                        cal = self.calendar_due(t);
                        continue 'evaluate;
                    }

                    // A queued event is next.
                    let ev = queue.pop().expect("peeked event");
                    if events_left == 0 {
                        // Out of budget with work still due: put the
                        // just-popped event back (original sequence
                        // number, so a resumed run replays the exact
                        // dispatch order an unbounded run would have).
                        queue.push_event(ev);
                        self.stop = Some(StopReason::Error("event budget exhausted".into()));
                        self.park_fast_toggles();
                        self.requeue_pending_wakes(queue, t, delta);
                        break 'outer;
                    }
                    events_left -= 1;
                    self.stats.events += 1;
                    // One event, one frame. A hoisted shared frame for
                    // runs of same-key Start/timer events (the batched-
                    // edge treatment applied to the queued path) was
                    // implemented and measured: the timer-storm
                    // microbench (`kernel_1k_ticks_timer_storm_*`)
                    // showed no win — queue churn, not frame
                    // construction, dominates queued dispatch — while
                    // the extra code in this loop's body cost the
                    // clocked benches 5-12 % wall clock from codegen
                    // alone. The per-event form is the measured optimum.
                    match ev.kind {
                        EventKind::Start(cid) => self.dispatch(queue, cid, Wake::Start, t, delta),
                        EventKind::Wake(cid, tag) => {
                            self.dispatch(queue, cid, Wake::Timer(tag), t, delta)
                        }
                        EventKind::SignalWake(cid, sid) => {
                            self.dispatch(queue, cid, Wake::Signal(sid), t, delta)
                        }
                        EventKind::ClockToggle(k) => {
                            self.toggle_clock(queue, k, t);
                            if delta == 0 {
                                cal = self.calendar_due(t);
                            }
                        }
                    }
                }
                // …then the carried signal wakes, in subscription-scan
                // order — the exact order the queued `SignalWake` events
                // used to pop in, without the queue round-trip.
                if !self.pending_wakes.is_empty() {
                    let mut wakes = std::mem::take(&mut self.pending_wakes);
                    // Batched same-edge dispatch: one `Ctx` frame serves
                    // the whole batch, with only the per-wake cause /
                    // self-id fields updated inside the loop — the frame
                    // rebuild (borrows, time, delta, stop) is hoisted out.
                    // Dispatch order is the slice order, identical to the
                    // per-wake reference path below (pinned by
                    // `tests/clock_specialization.rs`).
                    let mut budget_hit = None;
                    if self.specialize {
                        let mut ctx = Ctx {
                            signals: &mut self.signals,
                            queue,
                            time: t,
                            delta,
                            cause: Wake::Start, // overwritten before first use
                            self_id: ComponentId::from_raw(0),
                            stop: &mut self.stop,
                        };
                        for (i, &(cid, sid)) in wakes.iter().enumerate() {
                            if events_left == 0 {
                                budget_hit = Some(i);
                                break;
                            }
                            events_left -= 1;
                            self.stats.events += 1;
                            let mut comp = self.comps[cid.index()]
                                .take()
                                .expect("component re-entered during its own wake");
                            ctx.cause = Wake::Signal(sid);
                            ctx.self_id = cid;
                            comp.wake(&mut ctx);
                            self.comps[cid.index()] = Some(comp);
                            self.stats.wakes += 1;
                        }
                    } else {
                        // Reference path: per-wake dispatch with a fresh
                        // `Ctx` each time.
                        for (i, &(cid, sid)) in wakes.iter().enumerate() {
                            if events_left == 0 {
                                budget_hit = Some(i);
                                break;
                            }
                            events_left -= 1;
                            self.stats.events += 1;
                            self.dispatch(queue, cid, Wake::Signal(sid), t, delta);
                        }
                    }
                    if let Some(i) = budget_hit {
                        // Re-queue the undispatched tail at its due
                        // (t, delta) so a resumed run replays exactly.
                        for &(cid, sid) in &wakes[i..] {
                            queue.push(t, delta, EventKind::SignalWake(cid, sid));
                        }
                        self.stop = Some(StopReason::Error("event budget exhausted".into()));
                        self.park_fast_toggles();
                        break 'outer;
                    }
                    wakes.clear();
                    self.pending_wakes = wakes; // keep the capacity
                }

                // Update: first finish any quiet clock toggles (their
                // transition has no observer, so flipping in place here —
                // where the ordinary write would have committed — is
                // indistinguishable from the reference path), then commit
                // writes and wake subscribers in the next delta.
                if !self.fast_toggles.is_empty() {
                    for w in self.fast_toggles.drain(..) {
                        self.signals.apply_quiet_toggle(w);
                    }
                }
                self.changes.clear();
                self.signals.commit(&mut self.changes);
                self.stats.deltas += 1;

                for &ch in &self.changes {
                    if self.signals.is_traced(ch.signal) {
                        self.tracer.record(t, ch.signal, ch.new);
                    }
                    // Clone-free iteration: subscriber lists are only
                    // mutated during build, never during a run, so the
                    // slice borrow is safe alongside the wake bookkeeping
                    // (disjoint fields).
                    for &(cid, edge) in self.signals.subscribers(ch.signal) {
                        if edge.matches(ch.old, ch.new) && !self.woken[cid.index()] {
                            self.woken[cid.index()] = true;
                            self.woken_list.push(cid);
                            self.pending_wakes.push((cid, ch.signal));
                        }
                    }
                }
                for cid in self.woken_list.drain(..) {
                    self.woken[cid.index()] = false;
                }

                if self.stop.is_some() {
                    // A stopping run may leave this delta's subscriber
                    // wakes undispatched: park them in the queue at their
                    // due (t, delta + 1) so resuming the simulation
                    // replays them exactly — identical to the behaviour
                    // when every wake was a queued event.
                    self.requeue_pending_wakes(queue, t, delta + 1);
                    break;
                }
                // Continue while this time step has more work: carried
                // wakes always run in the next delta; queued events at a
                // later delta of `t` otherwise set the next delta. The
                // calendar never participates here — its toggles all
                // fire at delta 0 and re-arm strictly later than `t`.
                debug_assert!(
                    self.calendar_due(t).is_none(),
                    "calendar toggles must drain within delta 0"
                );
                let next = if self.pending_wakes.is_empty() {
                    match queue.peek_key() {
                        Some((tt, dd)) if tt == t => Some(dd),
                        _ => None,
                    }
                } else {
                    Some(delta + 1)
                };
                match next {
                    Some(dd) => {
                        if dd - first_delta > self.delta_limit {
                            self.stop = Some(StopReason::Error(format!(
                                "delta-cycle limit ({}) exceeded at {t}: combinational loop?",
                                self.delta_limit
                            )));
                            self.requeue_pending_wakes(queue, t, dd);
                            break;
                        }
                        delta = dd;
                    }
                    None => break,
                }
            }
        }

        debug_assert!(
            self.pending_wakes.is_empty(),
            "carried wakes must never outlive a run call"
        );
        debug_assert!(
            self.fast_toggles.is_empty(),
            "deferred quiet toggles must never outlive a run call"
        );
        RunSummary {
            end_time: self.time,
            stats: self.stats.since(&stats_start),
            wall: wall_start.elapsed(),
            stop: self.stop.clone(),
        }
    }

    /// The earliest armed calendar slot as `(time, seq, clock index)` —
    /// a linear min-scan: clock counts are small (the headline systems
    /// run 1–8), so a scan beats any ordered structure's bookkeeping.
    #[inline]
    fn calendar_earliest(&self) -> Option<(SimTime, u64, usize)> {
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (k, slot) in self.calendar.iter().enumerate() {
            if let Some((time, seq)) = *slot {
                if best.is_none_or(|(bt, bs, _)| (time, seq) < (bt, bs)) {
                    best = Some((time, seq, k));
                }
            }
        }
        best
    }

    /// The earliest calendar toggle due exactly at `t`, as
    /// `(clock index, seq)`. Slots earlier than `t` cannot exist: the
    /// run loop never advances time past an armed slot.
    #[inline]
    fn calendar_due(&self, t: SimTime) -> Option<(usize, u64)> {
        match self.calendar_earliest() {
            Some((time, seq, k)) if time == t => Some((k, seq)),
            _ => None,
        }
    }

    /// Dispatches clock `k`'s toggle at time `t`: flip (quiet when the
    /// edge provably has no observer) and re-arm the next half-period —
    /// in the calendar when it is on, as a queued `ClockToggle`
    /// otherwise. The sequence number is claimed at exactly this point
    /// on both paths, so the global scheduling order is identical.
    #[inline]
    fn toggle_clock(&mut self, queue: &mut EventQueue, k: usize, t: SimTime) {
        self.fast.clock_toggles += 1;
        let clock = &self.clocks[k];
        let wire = clock.wire;
        let cur = self.signals.read(wire);
        let rising = cur == 0;
        // Edge-filtered fast path: a toggle whose resulting edge has no
        // matching subscriber (and no tracer, and no competing write) is
        // unobservable — defer a quiet in-place flip to this delta's
        // update phase and skip the commit/scan machinery entirely. For
        // a system clocking everything on the rising edge, every second
        // half-period becomes a toggle-only event.
        if self.specialize && self.signals.try_begin_quiet_toggle(wire, rising) {
            self.fast.quiet_toggles += 1;
            self.fast_toggles.push(wire);
        } else {
            self.signals.write(wire, cur ^ 1);
        }
        let next_t = t + clock.half_period;
        if self.calendar_on {
            self.calendar[k] = Some((next_t, queue.alloc_seq()));
        } else {
            queue.push(next_t, 0, EventKind::ClockToggle(k));
        }
    }

    /// Moves any carried-but-undispatched subscriber wakes back into the
    /// event queue at `(t, delta)`, so an interrupted run can resume with
    /// exactly the dispatch sequence the fully-queued implementation had.
    fn requeue_pending_wakes(&mut self, queue: &mut EventQueue, t: SimTime, delta: u32) {
        for (cid, sid) in self.pending_wakes.drain(..) {
            queue.push(t, delta, EventKind::SignalWake(cid, sid));
        }
    }

    /// Converts still-deferred quiet clock toggles back into ordinary
    /// pending writes (a run breaking off mid-delta never reaches the
    /// update phase that would have finished them); the resumed run's
    /// first commit then applies them exactly like the reference path.
    fn park_fast_toggles(&mut self) {
        for w in self.fast_toggles.drain(..) {
            self.signals.requeue_quiet_toggle(w);
        }
    }

    fn dispatch(
        &mut self,
        queue: &mut EventQueue,
        cid: ComponentId,
        cause: Wake,
        time: SimTime,
        delta: u32,
    ) {
        let mut comp = self.comps[cid.index()]
            .take()
            .expect("component re-entered during its own wake");
        {
            let mut ctx = Ctx {
                signals: &mut self.signals,
                queue,
                time,
                delta,
                cause,
                self_id: cid,
                stop: &mut self.stop,
            };
            comp.wake(&mut ctx);
        }
        self.comps[cid.index()] = Some(comp);
        self.stats.wakes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    /// Counts rising edges of a clock.
    struct EdgeCounter {
        clk: Wire,
        edges: u64,
    }
    impl Component for EdgeCounter {
        fn name(&self) -> &str {
            "edge_counter"
        }
        fn wake(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.is_signal(self.clk) {
                self.edges += 1;
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn clock_generates_expected_edges() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", 10);
        let id = sim.add_component(Box::new(EdgeCounter { clk, edges: 0 }));
        sim.subscribe(id, clk, Edge::Rising);
        sim.run_for(100);
        // Rising edges at t = 10, 20, ..., 100 -> 10 edges.
        let c: &EdgeCounter = sim.component(id).unwrap();
        assert_eq!(c.edges, 10);
    }

    #[test]
    fn falling_edges_offset_by_half_period() {
        struct FallCounter {
            clk: Wire,
            times: Vec<u64>,
        }
        impl Component for FallCounter {
            fn name(&self) -> &str {
                "fall"
            }
            fn wake(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.is_signal(self.clk) {
                    self.times.push(ctx.time().ticks());
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", 10);
        let id = sim.add_component(Box::new(FallCounter {
            clk,
            times: vec![],
        }));
        sim.subscribe(id, clk, Edge::Falling);
        sim.run_for(40);
        let c: &FallCounter = sim.component(id).unwrap();
        assert_eq!(c.times, vec![15, 25, 35]);
    }

    /// Two-stage pipeline through signals: checks flip-flop semantics, i.e.
    /// a clocked reader sees the value from *before* the edge.
    struct Stage {
        clk: Wire,
        input: Wire,
        output: Wire,
        seen: Vec<u64>,
    }
    impl Component for Stage {
        fn name(&self) -> &str {
            "stage"
        }
        fn wake(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.is_signal(self.clk) {
                let v = ctx.read(self.input);
                self.seen.push(v);
                ctx.write(self.output, v + 1);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn registered_semantics_between_clocked_components() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", 10);
        let a = sim.wire("a", 32);
        let b = sim.wire("b", 32);
        // stage1: a -> b (+1), stage2: b -> a (+1). Values advance one hop
        // per cycle; both read pre-edge values.
        let s1 = sim.add_component(Box::new(Stage {
            clk,
            input: a,
            output: b,
            seen: vec![],
        }));
        let s2 = sim.add_component(Box::new(Stage {
            clk,
            input: b,
            output: a,
            seen: vec![],
        }));
        sim.subscribe(s1, clk, Edge::Rising);
        sim.subscribe(s2, clk, Edge::Rising);
        sim.run_for(30); // edges at 10, 20, 30
        let st1: &Stage = sim.component(s1).unwrap();
        let st2: &Stage = sim.component(s2).unwrap();
        // cycle1: both read 0. cycle2: s1 reads a=1 (s2 wrote 0+1),
        // s2 reads b=1. cycle3: both read 2.
        assert_eq!(st1.seen, vec![0, 1, 2]);
        assert_eq!(st2.seen, vec![0, 1, 2]);
    }

    /// A combinational inverter: output follows !input within the same time
    /// step via an extra delta cycle.
    struct Inverter {
        input: Wire,
        output: Wire,
    }
    impl Component for Inverter {
        fn name(&self) -> &str {
            "inv"
        }
        fn wake(&mut self, ctx: &mut Ctx<'_>) {
            let v = ctx.read_bit(self.input);
            ctx.write_bit(self.output, !v);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn combinational_logic_settles_within_time_step() {
        let mut sim = Simulator::new();
        let a = sim.wire("a", 1);
        let b = sim.wire("b", 1);
        let inv = sim.add_component(Box::new(Inverter {
            input: a,
            output: b,
        }));
        sim.subscribe(inv, a, Edge::Any);

        struct Driver {
            a: Wire,
        }
        impl Component for Driver {
            fn name(&self) -> &str {
                "drv"
            }
            fn wake(&mut self, ctx: &mut Ctx<'_>) {
                match ctx.cause() {
                    Wake::Start => {
                        ctx.schedule_in(5, 1);
                    }
                    Wake::Timer(_) => {
                        ctx.write_bit(self.a, true);
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
        sim.add_component(Box::new(Driver { a }));
        // After the Start wake the inverter has settled b = !0 = 1.
        sim.run_for(2);
        assert_eq!(sim.peek(a), 0);
        assert_eq!(sim.peek(b), 1, "inverter settled from Start wake");
        // After the driver raises a at t=5 the inverter follows within the
        // same time step (extra delta cycles, no tick advance).
        sim.run_for(18);
        assert_eq!(sim.peek(a), 1);
        assert_eq!(sim.peek(b), 0, "inverter output follows input");
    }

    /// Ring oscillator: inverter feeding itself must hit the delta limit
    /// and stop with an error rather than hanging.
    #[test]
    fn combinational_loop_detected() {
        let mut sim = Simulator::new();
        let a = sim.wire("a", 1);
        let inv = sim.add_component(Box::new(Inverter {
            input: a,
            output: a,
        }));
        sim.subscribe(inv, a, Edge::Any);

        struct Kick {
            a: Wire,
        }
        impl Component for Kick {
            fn name(&self) -> &str {
                "kick"
            }
            fn wake(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.cause() == Wake::Start {
                    ctx.write_bit(self.a, true);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        sim.add_component(Box::new(Kick { a }));
        let summary = sim.run_for(10);
        assert!(summary.is_error());
        assert!(summary
            .stop
            .unwrap()
            .message()
            .contains("delta-cycle limit"));
    }

    #[test]
    fn stop_finishes_run_early() {
        struct Stopper;
        impl Component for Stopper {
            fn name(&self) -> &str {
                "stopper"
            }
            fn wake(&mut self, ctx: &mut Ctx<'_>) {
                match ctx.cause() {
                    Wake::Start => ctx.schedule_in(7, 0),
                    Wake::Timer(_) => ctx.stop("workload complete"),
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
        let mut sim = Simulator::new();
        sim.add_clock("clk", 2);
        sim.add_component(Box::new(Stopper));
        let summary = sim.run_for(1000);
        assert_eq!(summary.end_time.ticks(), 7);
        assert!(!summary.is_error());
        assert_eq!(summary.stop.unwrap().message(), "workload complete");
    }

    #[test]
    fn resume_after_stop_replays_carried_wakes() {
        // A component writes a wire and stops the run in the same delta:
        // the subscriber wake produced by that delta's update phase is
        // still pending when the run returns. Resuming must dispatch it
        // at the original simulated time — the exact behaviour of the
        // fully-queued SignalWake implementation.
        struct WriteAndStop {
            w: Wire,
        }
        impl Component for WriteAndStop {
            fn name(&self) -> &str {
                "write_and_stop"
            }
            fn wake(&mut self, ctx: &mut Ctx<'_>) {
                match ctx.cause() {
                    Wake::Start => ctx.schedule_in(5, 0),
                    Wake::Timer(_) => {
                        ctx.write_bit(self.w, true);
                        ctx.stop("paused mid-delta");
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
        struct TimeStamper {
            w: Wire,
            seen: Vec<u64>,
        }
        impl Component for TimeStamper {
            fn name(&self) -> &str {
                "stamper"
            }
            fn wake(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.is_signal(self.w) {
                    self.seen.push(ctx.time().ticks());
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulator::new();
        let w = sim.wire("w", 1);
        sim.add_component(Box::new(WriteAndStop { w }));
        let sid = sim.add_component(Box::new(TimeStamper { w, seen: vec![] }));
        sim.subscribe(sid, w, Edge::Rising);
        let summary = sim.run_for(100);
        assert_eq!(summary.stop.unwrap().message(), "paused mid-delta");
        assert!(
            sim.component::<TimeStamper>(sid).unwrap().seen.is_empty(),
            "the wake was parked, not dispatched"
        );
        sim.run_for(100);
        assert_eq!(
            sim.component::<TimeStamper>(sid).unwrap().seen,
            vec![5],
            "resumed wake fires at its original time"
        );
    }

    #[test]
    fn event_budget_stops_runaway() {
        let mut sim = Simulator::new();
        sim.add_clock("clk", 2);
        let summary = sim.run(RunLimit::unbounded().with_max_events(100));
        assert!(summary.is_error());
        assert!(summary.stop.unwrap().message().contains("event budget"));
    }

    #[test]
    fn timer_zero_fires_next_delta_same_time() {
        struct Chain {
            fired_at: Vec<(u64, u32)>,
        }
        impl Component for Chain {
            fn name(&self) -> &str {
                "chain"
            }
            fn wake(&mut self, ctx: &mut Ctx<'_>) {
                self.fired_at.push((ctx.time().ticks(), ctx.delta()));
                match ctx.cause() {
                    Wake::Start => ctx.schedule_in(0, 1),
                    Wake::Timer(1) => ctx.schedule_in(0, 2),
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
        let mut sim = Simulator::new();
        let id = sim.add_component(Box::new(Chain { fired_at: vec![] }));
        sim.run_for(5);
        let c: &Chain = sim.component(id).unwrap();
        assert_eq!(c.fired_at.len(), 3);
        assert!(c.fired_at.iter().all(|&(t, _)| t == 0));
        assert_eq!(c.fired_at[0].1, 0);
        assert!(c.fired_at[1].1 > c.fired_at[0].1);
        assert!(c.fired_at[2].1 > c.fired_at[1].1);
    }

    #[test]
    fn component_downcast_and_names() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", 4);
        let id = sim.add_component(Box::new(EdgeCounter { clk, edges: 0 }));
        assert_eq!(sim.component_name(id), "edge_counter");
        assert_eq!(sim.component_count(), 1);
        assert!(sim.component::<EdgeCounter>(id).is_some());
        assert!(sim.component::<Inverter>(id).is_none());
        sim.component_mut::<EdgeCounter>(id).unwrap().edges = 5;
        assert_eq!(sim.component::<EdgeCounter>(id).unwrap().edges, 5);
    }

    #[test]
    fn resume_after_deadline_continues_time() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", 10);
        let id = sim.add_component(Box::new(EdgeCounter { clk, edges: 0 }));
        sim.subscribe(id, clk, Edge::Rising);
        sim.run_for(50);
        assert_eq!(sim.component::<EdgeCounter>(id).unwrap().edges, 5);
        sim.run_for(50);
        assert_eq!(sim.component::<EdgeCounter>(id).unwrap().edges, 10);
        assert_eq!(sim.time().ticks(), 100);
    }

    #[test]
    fn for_ticks_is_relative_to_current_time() {
        // Regression: `RunLimit::for_ticks(n)` used to construct an
        // *absolute* deadline of `n`, so a second run with the same limit
        // made no progress. It must mean "n ticks past the current time",
        // resolved when the run starts.
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", 10);
        let id = sim.add_component(Box::new(EdgeCounter { clk, edges: 0 }));
        sim.subscribe(id, clk, Edge::Rising);
        let limit = RunLimit::for_ticks(50);
        sim.run(limit);
        assert_eq!(sim.time().ticks(), 50);
        sim.run(limit); // the very same limit value advances again
        assert_eq!(sim.time().ticks(), 100);
        assert_eq!(sim.component::<EdgeCounter>(id).unwrap().edges, 10);
    }

    #[test]
    fn vcd_tracing_records_clock() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", 10);
        sim.trace(clk);
        sim.run_for(20);
        let recs = sim.tracer().records();
        assert_eq!(recs.len(), 3, "edges at 10, 15, 20");
        let vcd = sim.tracer().to_vcd(sim.signals(), sim.time());
        assert!(vcd.contains("$var wire 1 ! clk $end"));
        assert!(vcd.contains("#10\n1!"));
        assert!(vcd.contains("#15\n0!"));
    }
}
