//! Differential tests for the kernel's clocked fast paths.
//!
//! The fast paths (the per-clock toggle calendar, the edge path and
//! batched dispatch, all behind one switch:
//! `Simulator::set_clock_specialization` / `DMI_KERNEL_SPECIALIZE`) must
//! be **bit-identical** to the reference path (queued toggles, every
//! toggle written, committed and scanned, one `Ctx` per wake): same wake
//! sequences (order, times, deltas, causes), same observed signal
//! values, same [`KernelStats`], same write and commit counts, same
//! traces — under randomized multi-clock (co-prime period) subscribe
//! topologies with repeated subscriptions, timer interleavings and
//! event-budget interruptions. The edge path serves a clock edge that
//! is alone at its tick from a fan-out precomputed at subscription
//! time; every other toggle (a tie with a timer or another clock, a
//! traced clock, a pending write left by a budget stop) takes the
//! general loop, so the random topologies exercise both.

use std::any::Any;

use dmi_kernel::{Component, Ctx, Edge, KernelStats, RunLimit, SimTime, Simulator, Wake, Wire};
use proptest::prelude::*;

/// A probe component: logs every wake (time, delta, cause, the values of
/// all watched wires — including clock wires, which is what makes an
/// in-place clock flip observable), optionally drives an output and
/// optionally keeps a timer chain running.
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
    /// even values exactly on toggle ticks — where a toggle is not
    /// alone at its tick and leaves the edge path.
    timer: u64,
    /// A second subscription to the same clock, taken after every
    /// component's first one (0 = Rising, 1 = Falling, 2 = Any,
    /// 3 = none): the same edge again or another one, which the edge
    /// fan-out must deduplicate and order exactly as the commit scan.
    again: usize,
}

#[derive(Debug, Clone)]
struct Topology {
    clock_periods: Vec<u64>,
    comps: Vec<CompCfg>,
    trace_clock0: bool,
    ticks: u64,
    /// Event budget per run slice (0 = single unbounded run). Small
    /// budgets force the run to break off mid-delta and resume, which
    /// exercises the wake-requeue paths and leaves pending writes
    /// that a resumed edge must not flip past.
    budget: u64,
}

fn topology_strategy() -> impl Strategy<Value = Topology> {
    let comp = (
        0usize..4,
        0usize..3,
        any::<bool>(),
        any::<bool>(),
        0u64..7,
        0usize..4,
    )
        .prop_map(|(clock, edge, chain, drives, timer, again)| CompCfg {
            clock,
            edge,
            chain,
            drives,
            timer,
            again,
        });
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
    /// Delta commits: the edge path counts its own in-place flip as one.
    commits_total: u64,
    end_time: u64,
    finals: Vec<u64>,
    vcd: String,
}

/// Runs `top` on the fast path (`specialize`) or the reference path.
/// With `split = Some((at, path))` the run stops at tick `at`, sets the
/// switch to `path` (a no-op if it is already there) and runs on to the
/// end.
fn run_topology(top: &Topology, specialize: bool, split: Option<(u64, bool)>) -> Observed {
    let mut sim = Simulator::new();
    sim.set_clock_specialization(specialize);
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
    for (c, &id) in top.comps.iter().zip(&ids) {
        if let Some(&edge) = [Edge::Rising, Edge::Falling, Edge::Any].get(c.again) {
            sim.subscribe(id, clocks[c.clock % clocks.len()], edge);
        }
    }

    match split {
        Some((at, path)) => {
            run_to(&mut sim, at, top.budget);
            sim.set_clock_specialization(path);
            run_to(&mut sim, top.ticks, top.budget);
        }
        None => run_to(&mut sim, top.ticks, top.budget),
    }

    // Calendar toggles never take a queue slot: coverage is total on
    // the fast path, zero on the reference path.
    let fast = sim.fast_path_stats();
    if split.is_none_or(|(_, path)| path == specialize) {
        let expected = if specialize { fast.clock_toggles } else { 0 };
        assert_eq!(fast.calendar_toggles, expected);
    }

    Observed {
        logs: ids
            .iter()
            .map(|&id| sim.component::<Probe>(id).unwrap().log.clone())
            .collect(),
        stats: sim.stats(),
        clock_toggles: fast.clock_toggles,
        writes_total: sim.signals().writes_total(),
        commits_total: sim.signals().commits_total(),
        end_time: sim.time().ticks(),
        finals: wires.iter().map(|&w| sim.peek(w)).collect(),
        vcd: sim.tracer().to_vcd(sim.signals(), sim.time()),
    }
}

/// Runs `sim` up to absolute tick `ticks`: in one run (`budget` 0), or
/// sliced, resuming past event-budget stops until the deadline is
/// reached (bounded by a generous iteration cap).
fn run_to(sim: &mut Simulator, ticks: u64, budget: u64) {
    if budget == 0 {
        sim.run_for(ticks - sim.time().ticks());
        return;
    }
    let deadline = SimTime::from_ticks(ticks);
    let mut guard = 0;
    loop {
        let s = sim.run(RunLimit::until(deadline).with_max_events(budget));
        guard += 1;
        assert!(guard < 100_000, "budget slices never converged");
        match s.stop {
            Some(r) if r.message().contains("event budget") => continue,
            _ => break,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fast and reference clocked paths are bit-identical on
    /// randomized multi-clock topologies (co-prime periods → dense
    /// same-tick ties between clocks and timers), including sliced
    /// budget-interrupted runs.
    #[test]
    fn specialization_is_bit_identical(top in topology_strategy()) {
        let fast = run_topology(&top, true, None);
        let reference = run_topology(&top, false, None);
        prop_assert_eq!(&fast, &reference);
    }

    /// Switching to the reference path mid-run moves every pending
    /// toggle from its calendar slot into the queue with its `(time,
    /// seq)` key: the run lands on exactly the simulation of a run that
    /// was on the reference path throughout, on randomized topologies.
    #[test]
    fn calendar_is_bit_identical(top in topology_strategy(), percent in 1u64..100) {
        let split = Some(((top.ticks * percent / 100).max(1), false));
        prop_assert_eq!(run_topology(&top, true, split), run_topology(&top, false, split));
    }

    /// The reverse migration: a run that starts on the reference path
    /// (queued toggles, unspecialized commit and dispatch) and switches
    /// to the fast path mid-run lands on exactly the simulation of a
    /// run that was on the fast path throughout.
    #[test]
    fn calendar_is_bit_identical_unspecialized(top in topology_strategy(), percent in 1u64..100) {
        let split = Some(((top.ticks * percent / 100).max(1), true));
        prop_assert_eq!(run_topology(&top, false, split), run_topology(&top, true, split));
    }

    /// Event-budget slicing is replay-exact: resuming past budget stops
    /// reproduces exactly the simulation one unbounded run performs —
    /// same wake sequences, signal values, traces and counters. (Only
    /// `time_steps` may differ: a resumed run re-visits the time point
    /// it was interrupted at.) The whole-run reference executes on the
    /// reference path, so slice boundaries that land between a calendar
    /// toggle's dispatch and its commit are checked against the queued
    /// implementation, not just against the calendar itself.
    #[test]
    fn budget_slicing_is_replay_exact(
        top in topology_strategy().prop_filter("sliced", |t| t.budget > 0)
    ) {
        let sliced = run_topology(&top, true, None);
        let whole = run_topology(&Topology { budget: 0, ..top.clone() }, false, None);
        prop_assert_eq!(&sliced.logs, &whole.logs);
        prop_assert_eq!(&sliced.finals, &whole.finals);
        prop_assert_eq!(&sliced.vcd, &whole.vcd);
        prop_assert_eq!(sliced.end_time, whole.end_time);
        prop_assert_eq!(sliced.writes_total, whole.writes_total);
        prop_assert_eq!(sliced.commits_total, whole.commits_total);
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

/// With only Rising subscribers, every falling toggle takes the edge
/// path with an empty fan-out (a quiet toggle) — and the observable
/// simulation is unchanged.
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
    assert_eq!(
        reference.signals().commits_total(),
        sim.signals().commits_total()
    );
}

/// A traced clock never takes the edge path (the tracer must see every
/// transition), so none of its toggles is quiet.
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

/// On the fast path (the default), every periodic toggle dispatches
/// from the per-clock slot — none round-trips through the event queue —
/// and the simulation is unchanged.
#[test]
fn calendar_keeps_toggles_out_of_the_queue() {
    let (mut sim, id) = rising_only_sim(true);
    sim.run_for(100);
    assert_eq!(sim.component::<EdgeCounter>(id).unwrap().edges, 10);
    let fast = sim.fast_path_stats();
    // Toggles at 10, 15, ..., 100: 19 in total, all from the calendar.
    assert_eq!(fast.clock_toggles, 19);
    assert_eq!(fast.calendar_toggles, 19);
    assert_eq!(fast.calendar_coverage(), 1.0);

    let (mut queued, qid) = rising_only_sim(false);
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

/// Budget slices that cut between a calendar toggle and the wakes it
/// carries (single-event slices hit every such boundary) requeue the
/// undispatched wakes and leave the next slot armed; resuming replays
/// the queued implementation's simulation exactly.
#[test]
fn single_event_slices_resume_calendar_toggles_exactly() {
    let run_sliced = |specialize: bool, max_events: u64| {
        let (mut sim, id) = rising_only_sim(specialize);
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
    // The reference is one unbounded run on the reference path: every
    // sliced fast-path run must land on exactly its simulation.
    let reference = run_sliced(false, u64::MAX);
    assert_eq!(run_sliced(true, u64::MAX), reference);
    for max_events in [1, 2, 3, 7] {
        assert_eq!(run_sliced(true, max_events), reference, "slice {max_events}");
    }
}

/// Switching between the fast and reference paths between runs migrates
/// pending toggles between the calendar and the queue with their
/// original `(time, seq)` keys — the simulation cannot tell.
#[test]
fn mid_run_calendar_migration_is_seamless() {
    let run_with_switch = |start_on: bool, switch_at: Option<u64>| {
        let (mut sim, id) = rising_only_sim(start_on);
        if let Some(at) = switch_at {
            sim.run_for(at);
            sim.set_clock_specialization(!start_on);
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
/// re-align every 210 ticks, subscribers on each — the fast and the
/// reference path must interleave the clocks identically.
#[test]
fn coprime_clocks_interleave_identically() {
    let run = |specialize: bool| {
        let mut sim = Simulator::new();
        sim.set_clock_specialization(specialize);
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

/// A subscription taken between runs joins the clock's fan-out at once:
/// the next matching edge wakes the new subscriber on both paths, in
/// the order the reference path's commit scan produces. A fan-out
/// computed once, before the first run, would miss it.
#[test]
fn a_subscription_between_runs_joins_the_next_edge() {
    let run = |specialize: bool| {
        let (mut sim, counter) = rising_only_sim(specialize);
        let clk = sim.component::<EdgeCounter>(counter).unwrap().clk;
        let late = sim.add_component(Box::new(Probe {
            watched: vec![clk],
            out: None,
            timer_period: None,
            counter: 0,
            log: Vec::new(),
        }));
        sim.run_for(50);
        sim.subscribe(late, clk, Edge::Falling);
        sim.subscribe(late, clk, Edge::Any);
        sim.run_for(50);
        (
            sim.component::<Probe>(late).unwrap().log.clone(),
            sim.stats(),
            sim.signals().commits_total(),
            sim.quiet_toggles(),
        )
    };
    let (log, stats, commits, quiet) = run(true);
    let clk_cause = 1_000_000;
    let expected: Vec<WakeRecord> = std::iter::once((0, 0, 0, vec![0]))
        .chain((55..=100).step_by(5).map(|t| (t, 1, clk_cause, vec![(t % 10 == 0) as u64])))
        .collect();
    assert_eq!(log, expected, "the late subscriber wakes on every edge after 50");
    assert_eq!(quiet, 4, "falling edges at 15..45 woke nobody; later ones do");
    assert_eq!(run(false), (log, stats, commits, 0));
}

/// A clock added after the simulation has run arms its first rising
/// edge one period after the current time, never in the past: time
/// does not go backwards, and both paths run the same continuation.
#[test]
fn a_clock_added_mid_run_starts_from_now() {
    let run = |specialize: bool| {
        let (mut sim, _) = rising_only_sim(specialize);
        sim.run_for(100);
        let late = sim.add_clock("late", 4);
        let id = sim.add_component(Box::new(Probe {
            watched: vec![late],
            out: None,
            timer_period: None,
            counter: 0,
            log: Vec::new(),
        }));
        sim.subscribe(id, late, Edge::Rising);
        let mut times = vec![sim.time().ticks()];
        for _ in 0..12 {
            sim.run(RunLimit::until(SimTime::from_ticks(120)).with_max_events(1));
            times.push(sim.time().ticks());
        }
        (times, sim.component::<Probe>(id).unwrap().log.clone(), sim.stats())
    };
    let (times, log, stats) = run(true);
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "time went backwards: {times:?}"
    );
    let first_edge = log.iter().find(|r| r.2 != 0).map(|r| r.0);
    assert_eq!(first_edge, Some(104), "first rising edge one period after 100");
    assert_eq!(run(false), (times, log, stats));
}
