//! Differential tests for the kernel's clocked-path specialization and
//! the clock calendar.
//!
//! The fast paths (edge-summary quiet toggles + batched dispatch behind
//! `Simulator::set_clock_specialization` / `DMI_KERNEL_SPECIALIZE`, and
//! the per-clock toggle calendar behind `Simulator::set_clock_calendar`
//! / `DMI_CLOCK_CALENDAR`) must be **bit-identical** to their queued /
//! unspecialized reference paths: same wake sequences (order, times,
//! deltas, causes), same observed signal values, same [`KernelStats`],
//! same traces — under randomized multi-clock (co-prime period)
//! subscribe topologies, timer interleavings and event-budget
//! interruptions.

use std::any::Any;

use dmi_kernel::{Component, Ctx, Edge, KernelStats, RunLimit, SimTime, Simulator, Wake, Wire};
use proptest::prelude::*;

/// A probe component: logs every wake (time, delta, cause, the values of
/// all watched wires — including clock wires, which is what makes the
/// deferred quiet-toggle semantics observable), optionally drives an
/// output and optionally keeps a timer chain running.
struct Probe {
    watched: Vec<Wire>,
    out: Option<Wire>,
    timer_period: Option<u64>,
    counter: u64,
    log: Vec<WakeRecord>,
}

impl Component for Probe {
    fn name(&self) -> &str {
        "probe"
    }
    fn wake(&mut self, ctx: &mut Ctx<'_>) {
        let cause = match ctx.cause() {
            Wake::Start => 0,
            Wake::Timer(tag) => 1_000 + tag,
            Wake::Signal(sid) => 1_000_000 + sid.index() as u64,
        };
        let vals = self.watched.iter().map(|w| ctx.read(*w)).collect();
        self.log.push((ctx.time().ticks(), ctx.delta(), cause, vals));
        self.counter += 1;
        if let Some(out) = self.out {
            ctx.write(out, self.counter);
        }
        if matches!(ctx.cause(), Wake::Start | Wake::Timer(_)) {
            if let Some(p) = self.timer_period {
                ctx.schedule_in(p, 1);
            }
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One randomized component description.
#[derive(Debug, Clone)]
struct CompCfg {
    /// Clock index to subscribe to, and the edge filter.
    clock: usize,
    edge: usize, // 0 = Rising, 1 = Falling, 2 = Any
    /// Also subscribe to the previous component's output wire.
    chain: bool,
    /// Drive an output wire.
    drives: bool,
    /// Timer period (0 = none); odd values land between clock edges,
    /// even values exactly on toggle ticks — the interleaving the
    /// deferred-toggle semantics must survive.
    timer: u64,
}

#[derive(Debug, Clone)]
struct Topology {
    clock_periods: Vec<u64>,
    comps: Vec<CompCfg>,
    trace_clock0: bool,
    ticks: u64,
    /// Event budget per run slice (0 = single unbounded run). Small
    /// budgets force the run to break off mid-delta and resume, which
    /// exercises the quiet-toggle parking and wake-requeue paths.
    budget: u64,
}

fn topology_strategy() -> impl Strategy<Value = Topology> {
    let comp = (0usize..4, 0usize..3, any::<bool>(), any::<bool>(), 0u64..7).prop_map(
        |(clock, edge, chain, drives, timer)| CompCfg {
            clock,
            edge,
            chain,
            drives,
            timer,
        },
    );
    (
        // Half-periods 1, 2, 3, 5, 7, 11: mostly pairwise co-prime, so
        // multi-clock draws produce long non-repeating edge
        // interleavings — where calendar-vs-queue tie-break divergence
        // would be most visible if the virtual sequence numbers were
        // wrong.
        prop::collection::vec(
            prop_oneof![Just(2u64), Just(4), Just(6), Just(10), Just(14), Just(22)],
            1..5,
        ),
        prop::collection::vec(comp, 1..6),
        any::<bool>(),
        20u64..300,
        prop_oneof![Just(0u64), 1u64..40],
    )
        .prop_map(|(clock_periods, comps, trace_clock0, ticks, budget)| Topology {
            clock_periods,
            comps,
            trace_clock0,
            ticks,
            budget,
        })
}

/// One logged wake: `(time, delta, cause code, watched values)`.
type WakeRecord = (u64, u32, u64, Vec<u64>);

/// Everything a run observably produced.
#[derive(Debug, PartialEq)]
struct Observed {
    logs: Vec<Vec<WakeRecord>>,
    stats: KernelStats,
    /// Total dispatched clock toggles — part of the identity contract
    /// (unlike the per-path quiet/calendar counters, which describe
    /// which fast path served each toggle and differ by configuration).
    clock_toggles: u64,
    writes_total: u64,
    end_time: u64,
    finals: Vec<u64>,
    vcd: String,
}

fn run_topology(top: &Topology, specialize: bool, calendar: bool) -> Observed {
    let mut sim = Simulator::new();
    sim.set_clock_specialization(specialize);
    sim.set_clock_calendar(calendar);
    let clocks: Vec<Wire> = top
        .clock_periods
        .iter()
        .enumerate()
        .map(|(i, &p)| sim.add_clock(format!("clk{i}"), p))
        .collect();
    if top.trace_clock0 {
        sim.trace(clocks[0]);
    }
    let mut prev_out: Option<Wire> = None;
    let mut ids = Vec::new();
    let mut wires = clocks.clone();
    for (i, c) in top.comps.iter().enumerate() {
        let out = c
            .drives
            .then(|| sim.wire(format!("out{i}"), 32));
        let mut watched = clocks.clone();
        if let Some(p) = prev_out {
            watched.push(p);
        }
        let id = sim.add_component(Box::new(Probe {
            watched,
            out,
            timer_period: (c.timer > 0).then_some(c.timer),
            counter: 0,
            log: Vec::new(),
        }));
        let clk = clocks[c.clock % clocks.len()];
        let edge = [Edge::Rising, Edge::Falling, Edge::Any][c.edge];
        sim.subscribe(id, clk, edge);
        if c.chain {
            if let Some(p) = prev_out {
                sim.subscribe(id, p, Edge::Any);
            }
        }
        if let Some(o) = out {
            wires.push(o);
            prev_out = Some(o);
        }
        ids.push(id);
    }

    if top.budget == 0 {
        sim.run_for(top.ticks);
    } else {
        // Sliced execution: keep resuming past event-budget stops until
        // the deadline is reached (bounded by a generous iteration cap).
        let deadline = SimTime::from_ticks(top.ticks);
        let mut guard = 0;
        loop {
            let s = sim.run(RunLimit::until(deadline).with_max_events(top.budget));
            guard += 1;
            assert!(guard < 100_000, "budget slices never converged");
            match s.stop {
                Some(r) if r.message().contains("event budget") => continue,
                _ => break,
            }
        }
    }

    // Calendar toggles never take a queue slot: coverage is total
    // whenever the calendar is on, zero otherwise.
    let fast = sim.fast_path_stats();
    if calendar {
        assert_eq!(fast.calendar_toggles, fast.clock_toggles);
    } else {
        assert_eq!(fast.calendar_toggles, 0);
    }

    Observed {
        logs: ids
            .iter()
            .map(|&id| sim.component::<Probe>(id).unwrap().log.clone())
            .collect(),
        stats: sim.stats(),
        clock_toggles: fast.clock_toggles,
        writes_total: sim.signals().writes_total(),
        end_time: sim.time().ticks(),
        finals: wires.iter().map(|&w| sim.peek(w)).collect(),
        vcd: sim.tracer().to_vcd(sim.signals(), sim.time()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Specialized and reference clocked paths are bit-identical on
    /// randomized topologies, including sliced budget-interrupted runs.
    #[test]
    fn specialization_is_bit_identical(top in topology_strategy()) {
        let fast = run_topology(&top, true, true);
        let reference = run_topology(&top, false, true);
        prop_assert_eq!(&fast, &reference);
    }

    /// The clock calendar executes the same simulation as the queued
    /// toggle path, on randomized multi-clock topologies (co-prime
    /// periods → dense same-tick ties between clocks and timers).
    #[test]
    fn calendar_is_bit_identical(top in topology_strategy()) {
        let calendar = run_topology(&top, true, true);
        let queued = run_topology(&top, true, false);
        prop_assert_eq!(&calendar, &queued);
    }

    /// The calendar is independent of the clocked-path specialization:
    /// it must also match with the reference commit/dispatch path.
    #[test]
    fn calendar_is_bit_identical_unspecialized(top in topology_strategy()) {
        let calendar = run_topology(&top, false, true);
        let queued = run_topology(&top, false, false);
        prop_assert_eq!(&calendar, &queued);
    }

    /// Event-budget slicing is replay-exact: resuming past budget stops
    /// reproduces exactly the simulation one unbounded run performs —
    /// same wake sequences, signal values, traces and counters. (Only
    /// `time_steps` may differ: a resumed run re-visits the time point
    /// it was interrupted at.) The whole-run reference executes with
    /// the calendar *off*, so slice boundaries that land between a
    /// calendar toggle's dispatch and its commit are checked against
    /// the queued implementation, not just against the calendar itself.
    #[test]
    fn budget_slicing_is_replay_exact(
        top in topology_strategy().prop_filter("sliced", |t| t.budget > 0)
    ) {
        let sliced = run_topology(&top, true, true);
        let whole = run_topology(&Topology { budget: 0, ..top.clone() }, true, false);
        prop_assert_eq!(&sliced.logs, &whole.logs);
        prop_assert_eq!(&sliced.finals, &whole.finals);
        prop_assert_eq!(&sliced.vcd, &whole.vcd);
        prop_assert_eq!(sliced.end_time, whole.end_time);
        prop_assert_eq!(sliced.writes_total, whole.writes_total);
        prop_assert_eq!(sliced.clock_toggles, whole.clock_toggles);
        prop_assert_eq!(sliced.stats.events, whole.stats.events);
        prop_assert_eq!(sliced.stats.wakes, whole.stats.wakes);
        prop_assert_eq!(sliced.stats.deltas, whole.stats.deltas);
    }
}

/// Counts rising edges of a wire (shared by the directed tests below).
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

fn rising_only_sim(specialize: bool) -> (Simulator, dmi_kernel::ComponentId) {
    let mut sim = Simulator::new();
    sim.set_clock_specialization(specialize);
    let clk = sim.add_clock("clk", 10);
    let id = sim.add_component(Box::new(EdgeCounter { clk, edges: 0 }));
    sim.subscribe(id, clk, Edge::Rising);
    (sim, id)
}

/// With only Rising subscribers, every falling toggle takes the quiet
/// fast path — and the observable simulation is unchanged.
#[test]
fn falling_edges_take_the_quiet_path() {
    let (mut sim, id) = rising_only_sim(true);
    sim.run_for(100);
    assert_eq!(sim.component::<EdgeCounter>(id).unwrap().edges, 10);
    // Rising edges at 10, 20, ..., falling at 15, 25, ...: 9 falling
    // toggles inside 100 ticks, all quiet.
    assert_eq!(sim.quiet_toggles(), 9);
    assert_eq!(sim.fast_path_stats().clock_toggles, 19);

    let (mut reference, rid) = rising_only_sim(false);
    reference.run_for(100);
    assert_eq!(reference.quiet_toggles(), 0);
    assert_eq!(
        reference.component::<EdgeCounter>(rid).unwrap().edges,
        10
    );
    assert_eq!(reference.stats(), sim.stats(), "KernelStats must match");
    assert_eq!(
        reference.signals().writes_total(),
        sim.signals().writes_total()
    );
}

/// A traced clock never takes the quiet path (the tracer must see every
/// transition).
#[test]
fn traced_clock_stays_on_the_slow_path() {
    let mut sim = Simulator::new();
    sim.set_clock_specialization(true);
    let clk = sim.add_clock("clk", 10);
    let id = sim.add_component(Box::new(EdgeCounter { clk, edges: 0 }));
    sim.subscribe(id, clk, Edge::Rising);
    sim.trace(clk);
    sim.run_for(100);
    assert_eq!(sim.quiet_toggles(), 0, "traced clocks are never quiet");
    assert_eq!(sim.tracer().records().len(), 19, "all 19 edges recorded");
    let _ = sim.component::<EdgeCounter>(id);
}

/// With the calendar on (the default), every periodic toggle dispatches
/// from the per-clock slot — none round-trips through the event queue —
/// and the simulation is unchanged.
#[test]
fn calendar_keeps_toggles_out_of_the_queue() {
    let (mut sim, id) = rising_only_sim(true);
    // (`DMI_CLOCK_CALENDAR=0` runs this suite too — pin the path
    // explicitly instead of relying on the environment default.)
    sim.set_clock_calendar(true);
    sim.run_for(100);
    assert_eq!(sim.component::<EdgeCounter>(id).unwrap().edges, 10);
    let fast = sim.fast_path_stats();
    // Toggles at 10, 15, ..., 100: 19 in total, all from the calendar.
    assert_eq!(fast.clock_toggles, 19);
    assert_eq!(fast.calendar_toggles, 19);
    assert_eq!(fast.calendar_coverage(), 1.0);

    let (mut queued, qid) = rising_only_sim(true);
    queued.set_clock_calendar(false);
    queued.run_for(100);
    assert_eq!(queued.calendar_toggles(), 0);
    assert_eq!(queued.fast_path_stats().clock_toggles, 19);
    assert_eq!(queued.component::<EdgeCounter>(qid).unwrap().edges, 10);
    assert_eq!(queued.stats(), sim.stats(), "KernelStats must match");
    assert_eq!(
        queued.signals().writes_total(),
        sim.signals().writes_total()
    );
}

/// Budget slices that cut between a calendar toggle's dispatch and its
/// commit (single-event slices hit every such boundary) leave the
/// deferred quiet flip parked and the next slot armed; resuming replays
/// the queued implementation's simulation exactly — the calendar mirror
/// of PR 4's parked quiet-toggle tests.
#[test]
fn single_event_slices_resume_calendar_toggles_exactly() {
    let run_sliced = |calendar: bool, max_events: u64| {
        let (mut sim, id) = rising_only_sim(true);
        sim.set_clock_calendar(calendar);
        let deadline = SimTime::from_ticks(100);
        let mut guard = 0;
        loop {
            let s = sim.run(RunLimit::until(deadline).with_max_events(max_events));
            guard += 1;
            assert!(guard < 10_000, "slices never converged");
            match s.stop {
                Some(r) if r.message().contains("event budget") => continue,
                _ => break,
            }
        }
        (
            sim.component::<EdgeCounter>(id).unwrap().edges,
            sim.stats().events,
            sim.stats().wakes,
            sim.stats().deltas,
            sim.signals().writes_total(),
            sim.peek(sim.component::<EdgeCounter>(id).unwrap().clk),
            sim.fast_path_stats().clock_toggles,
        )
    };
    // The reference is one unbounded run on the *queued* toggle path:
    // every sliced calendar run must land on exactly its simulation.
    let reference = run_sliced(false, u64::MAX);
    assert_eq!(run_sliced(true, u64::MAX), reference);
    for max_events in [1, 2, 3, 7] {
        assert_eq!(run_sliced(true, max_events), reference, "slice {max_events}");
    }
}

/// Switching the calendar on/off between runs migrates pending toggles
/// with their original `(time, seq)` keys — the simulation cannot tell.
#[test]
fn mid_run_calendar_migration_is_seamless() {
    let run_with_switch = |start_on: bool, switch_at: Option<u64>| {
        let (mut sim, id) = rising_only_sim(true);
        sim.set_clock_calendar(start_on);
        if let Some(at) = switch_at {
            sim.run_for(at);
            sim.set_clock_calendar(!start_on);
            sim.run_for(200 - at);
        } else {
            sim.run_for(200);
        }
        (
            sim.component::<EdgeCounter>(id).unwrap().edges,
            sim.stats(),
            sim.signals().writes_total(),
            sim.time().ticks(),
        )
    };
    let straight = run_with_switch(true, None);
    assert_eq!(run_with_switch(false, None), straight);
    for at in [1, 12, 55, 100, 199] {
        assert_eq!(run_with_switch(true, Some(at)), straight, "on→off at {at}");
        assert_eq!(run_with_switch(false, Some(at)), straight, "off→on at {at}");
    }
}

/// Directed co-prime multi-clock check: three clocks whose edges only
/// re-align every 210 ticks, subscribers on each — calendar and queued
/// dispatch must interleave the clocks identically.
#[test]
fn coprime_clocks_interleave_identically() {
    let run = |calendar: bool| {
        let mut sim = Simulator::new();
        sim.set_clock_calendar(calendar);
        let mut ids = Vec::new();
        for (name, period) in [("clk_a", 6u64), ("clk_b", 10), ("clk_c", 14)] {
            let clk = sim.add_clock(name, period);
            let id = sim.add_component(Box::new(EdgeCounter { clk, edges: 0 }));
            sim.subscribe(id, clk, Edge::Rising);
            ids.push((id, clk));
        }
        sim.run_for(420);
        let edges: Vec<u64> = ids
            .iter()
            .map(|&(id, _)| sim.component::<EdgeCounter>(id).unwrap().edges)
            .collect();
        let finals: Vec<u64> = ids.iter().map(|&(_, clk)| sim.peek(clk)).collect();
        (edges, finals, sim.stats(), sim.fast_path_stats().clock_toggles)
    };
    let (edges, finals, stats, toggles) = run(true);
    assert_eq!(edges, vec![70, 42, 30]);
    assert_eq!(run(false), (edges, finals, stats, toggles));
}
