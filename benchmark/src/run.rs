//! One benchmark run: one workload, one seed, untraced (end-to-end
//! metrics) or traced (per-layer metrics).
//!
//! The load is a closed loop with one client: each op starts when the
//! previous one has finished and been checked. Three untimed warm-up ops
//! come first; the timed ops then fill the run's `seconds`.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmi_farm::{run_farm, Catalog, FarmConfig, Isolation, Registry};
use dmi_gsm::pipeline::PipelineResult;
use dmi_kernel::{FastPathStats, KernelStats, QueueKind, Snapshot};
use dmi_system::{McSystem, RunReport, StopCause, StopCondition};

use crate::replay;
use crate::stats::{fast_decile, median, peak_rss_mb, percentile, reset_peak_rss};
use crate::trace::Tracer;
use crate::workloads::{self, accumulate, Observation, Workload, DEFAULT_SEED};
use crate::CYCLE_CAP;

/// Untimed ops before the timed ones.
const WARMUP_OPS: usize = 3;
/// Fewest timed ops (untraced) or op pairs (traced) per run, whatever
/// `seconds` says. A hundred ops leave ten beyond p90; only `farm_fanout`
/// (about 0.3 s an op) needs more than 20 seconds for them.
const MIN_UNTRACED_OPS: usize = 100;
const MIN_TRACED_PAIRS: usize = 5;
/// Batches of eight operations per memory-model replay.
const DSM_BATCHES: usize = 128;
/// Bare-ISS kernel runs per traced run.
const ISS_REPS: usize = 100;
/// Checkpoint round trips per traced run.
const SNAPSHOT_REPS: usize = 3;
/// Thread-versus-process farm pairs (farm workload only).
const PROCESS_PAIRS: usize = 3;
/// Processes whose median peak memory is `peak_rss_mb`.
const RSS_PROBES: usize = 5;
/// Set in the environment of an RSS probe process.
pub const RSS_PROBE_ENV: &str = "DMI_BENCHMARK_RSS_PROBE";

/// End-to-end metrics (reported with `--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("sim_cycles_per_s", "cycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The median and p90 op times (s): written to the results file beside
/// the end-to-end metrics and judged by `compare`, but without a bound,
/// because their run-to-run spread on a shared host exceeds any bound the
/// benchmark may set (see `README.md`).
pub const UNBOUNDED: [&str; 2] = ["op_s_p50", "op_s_p90"];

/// Per-layer metrics (reported with `--trace 1`), with units. A metric
/// of a layer the workload does not use reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("system.program_gen_s", "s"),
    ("system.build_s", "s"),
    ("system.checkpoint_s", "s"),
    ("system.restore_s", "s"),
    ("kernel.events", "count"),
    ("kernel.wakes", "count"),
    ("kernel.deltas", "count"),
    ("kernel.time_steps", "count"),
    ("kernel.ns_per_wake", "ns"),
    ("kernel.calendar_share", "ratio"),
    ("kernel.quiet_share", "ratio"),
    ("kernel.components", "count"),
    ("kernel.queue_kind", "code"),
    ("kernel.snapshot_bytes", "bytes"),
    ("kernel.snapshot_encode_s", "s"),
    ("kernel.snapshot_decode_s", "s"),
    ("iss.instructions", "count"),
    ("iss.icache_hit_rate", "ratio"),
    ("iss.bus_wait_cycles", "cycles"),
    ("iss.ns_per_instr", "ns"),
    ("core.allocs", "count"),
    ("core.frees", "count"),
    ("core.reads", "count"),
    ("core.writes", "count"),
    ("core.burst_beats", "count"),
    ("core.host_allocs", "count"),
    ("core.tlb_hit_rate", "ratio"),
    ("core.wrapper.alloc_ns.live8", "ns"),
    ("core.wrapper.read_ns.live8", "ns"),
    ("core.wrapper.free_ns.live8", "ns"),
    ("core.wrapper.alloc_ns.live8k", "ns"),
    ("core.wrapper.read_ns.live8k", "ns"),
    ("core.wrapper.free_ns.live8k", "ns"),
    ("core.simheap.alloc_ns.live8", "ns"),
    ("core.simheap.read_ns.live8", "ns"),
    ("core.simheap.free_ns.live8", "ns"),
    ("core.simheap.alloc_ns.live8k", "ns"),
    ("core.simheap.read_ns.live8k", "ns"),
    ("core.simheap.free_ns.live8k", "ns"),
    ("interconnect.transactions", "count"),
    ("interconnect.wait_cycles", "cycles"),
    ("interconnect.busy_share", "ratio"),
    ("masters.transactions", "count"),
    ("masters.bus_wait_cycles", "cycles"),
    ("masters.retries", "count"),
    ("farm.overhead_s", "s"),
    ("farm.warm_restores", "count"),
    ("farm.warm_fp_mismatch", "count"),
    ("farm.process_overhead_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// What a run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Timed ops (untraced) or op pairs (traced).
    pub ops: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// The traced run's self-time table and Chrome trace JSON.
    pub trace_table: Option<String>,
    pub trace_json: Option<String>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

/// The correctness gate every checked op passes through.
struct Gate {
    /// The first op's observation: every later op must equal it.
    reference: Option<Observation>,
    /// At the default seed, what the observation must be on any commit.
    pinned: Option<Observation>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Gate {
    fn new(w: Workload, seed: u64) -> Gate {
        Gate {
            reference: None,
            pinned: (seed == DEFAULT_SEED).then(|| workloads::pinned(w)),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Counts one checked op.
    fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    /// Counts one op whose observation must match the pin and the first op.
    fn judge(&mut self, outcome: Result<Observation, String>) {
        let verdict = outcome.and_then(|obs| {
            if let Some(pin) = self.pinned.as_ref().filter(|pin| obs != **pin) {
                return Err(format!("observed {obs:?}, pinned {pin:?}"));
            }
            match &self.reference {
                None => self.reference = Some(obs),
                Some(r) if obs != *r => return Err(format!("observed {obs:?}, first op {r:?}")),
                Some(_) => {}
            }
            Ok(())
        });
        self.record(verdict);
    }
}

/// A run's inputs: made once from the seed.
struct Bench {
    w: Workload,
    seed: u64,
    gsm: Option<PipelineResult>,
    catalog: Catalog,
    registry: Arc<Registry>,
}

/// One op's host times (seconds) and outcome.
struct Op {
    program_gen: f64,
    build: f64,
    run: f64,
    outcome: Result<Observation, String>,
    /// Per-layer counters (when asked for).
    counts: Option<Counts>,
    /// Warm-restored GSM legs whose fingerprint differs from the cold one.
    fp_mismatch: u32,
}

impl Op {
    fn setup(program_gen: Duration, build: Duration) -> Op {
        Op {
            program_gen: program_gen.as_secs_f64(),
            build: build.as_secs_f64(),
            run: 0.0,
            outcome: Err("not run".into()),
            counts: None,
            fp_mismatch: 0,
        }
    }
}

impl Bench {
    fn new(w: Workload, seed: u64) -> Bench {
        let uses_gsm = matches!(w, Workload::GsmHeadline | Workload::FarmFanout);
        Bench {
            w,
            seed,
            gsm: uses_gsm.then(|| workloads::gsm_expected(seed)),
            catalog: workloads::farm_catalog(),
            registry: Arc::new(workloads::farm_registry(seed)),
        }
    }

    /// One untraced op; `counts` also reads the per-layer counters.
    fn op(&self, counts: bool) -> Op {
        match self.w {
            Workload::FarmFanout => self.farm_op(false, None),
            _ => self.sim_op(counts),
        }
    }

    fn sim_op(&self, counts: bool) -> Op {
        let t = Instant::now();
        let b = self.w.describe(self.seed);
        let program_gen = t.elapsed();
        let t = Instant::now();
        let built = b.build();
        let mut op = Op::setup(program_gen, t.elapsed());
        let mut sys = match built {
            Ok(sys) => sys,
            Err(e) => {
                op.outcome = Err(format!("build: {e}"));
                return op;
            }
        };
        let t = Instant::now();
        let report = sys.run_until(&StopCondition::cycles(CYCLE_CAP));
        op.run = t.elapsed().as_secs_f64();
        let mut obs = Observation::default();
        accumulate(&mut obs, &report);
        op.outcome =
            workloads::check_outputs(self.w, self.seed, &sys, &report, self.gsm).map(|()| obs);
        if counts {
            let mut c = Counts::default();
            c.absorb_run(&report);
            c.absorb_final(&sys, &report);
            op.counts = Some(c);
        }
        op
    }

    /// One traced simulation op: setup, then the run split into
    /// `run_until` spans of the workload's slice length.
    fn traced_sim_op(&self, t: &mut Tracer) -> Op {
        let (b, program_gen) = t.span(self.w.input_layer(), "program_gen", |_| {
            self.w.describe(self.seed)
        });
        let (built, build) = t.span("system", "build", |_| b.build());
        let mut op = Op::setup(program_gen, build);
        let mut sys = match built {
            Ok(sys) => sys,
            Err(e) => {
                op.outcome = Err(format!("build: {e}"));
                return op;
            }
        };
        let slice = StopCondition::cycles(self.w.slice_cycles());
        let mut obs = Observation::default();
        let last = loop {
            let (r, d) = t.span("system", "run_until", |_| sys.run_until(&slice));
            op.run += d.as_secs_f64();
            accumulate(&mut obs, &r);
            if r.cause != StopCause::CycleBudget || obs.cycles >= CYCLE_CAP {
                break r;
            }
        };
        op.outcome =
            workloads::check_outputs(self.w, self.seed, &sys, &last, self.gsm).map(|()| obs);
        op
    }

    fn farm_config(&self, process: bool) -> FarmConfig {
        let mut cfg = FarmConfig {
            workers: 1,
            ..FarmConfig::default()
        };
        if process {
            cfg.isolation = Isolation::Process { pool_size: 1 };
            // Workers re-enter this binary, which rebuilds the same
            // registry from the seed.
            cfg.worker_command = std::env::current_exe().ok().map(|exe| {
                vec![
                    exe.to_string_lossy().into_owned(),
                    "--seed".into(),
                    self.seed.to_string(),
                ]
            });
        }
        cfg
    }

    /// One farm op. Its setup is one build of each registered system; the
    /// op is `run_farm` over the catalog with one worker.
    fn farm_op(&self, process: bool, tracer: Option<&mut Tracer>) -> Op {
        let (mut program_gen, mut build) = (Duration::ZERO, Duration::ZERO);
        for key in self.registry.keys() {
            let factory = self.registry.get(key).expect("registered system");
            let t = Instant::now();
            let b = factory();
            program_gen += t.elapsed();
            let t = Instant::now();
            drop(b.build());
            build += t.elapsed();
        }
        let mut op = Op::setup(program_gen, build);
        let cfg = self.farm_config(process);
        let farm = || run_farm(&self.catalog, Arc::clone(&self.registry), &cfg);
        let t = Instant::now();
        let report = match tracer {
            Some(tr) => tr.span("farm", "run_farm", |_| farm()).0,
            None => farm(),
        };
        op.run = t.elapsed().as_secs_f64();
        op.outcome = match report {
            Ok(report) => workloads::check_farm(&report).map(|(obs, mismatch)| {
                op.fp_mismatch = mismatch;
                obs
            }),
            Err(e) => Err(format!("farm: {e}")),
        };
        op
    }

    /// The farm's legs run directly through `McSystem`, without the farm:
    /// the same builds, the warm prefix simulated once and shared through
    /// snapshot bytes, each leg then run to its end in one call. Returns
    /// the host time and the legs' summed per-layer counters.
    fn direct_legs(&self, t: &mut Tracer) -> Result<(f64, Counts), String> {
        let mut counts = Counts::default();
        let mut warm: Option<Vec<u8>> = None;
        let start = Instant::now();
        for spec in &self.catalog.scenarios {
            let factory = self
                .registry
                .get(&spec.system)
                .ok_or("unregistered system")?;
            let (built, _) = t.span("system", "build", |_| factory().build());
            let mut sys = built.map_err(|e| e.to_string())?;
            match (spec.warm_cycles, &warm) {
                (Some(_), Some(bytes)) => {
                    let (snap, _) = t.span("kernel", "from_bytes", |_| Snapshot::from_bytes(bytes));
                    let snap = snap.map_err(|e| e.to_string())?;
                    let (restored, _) = t.span("system", "restore", |_| sys.restore(&snap));
                    restored.map_err(|e| e.to_string())?;
                }
                (Some(prefix), None) => {
                    let (r, _) = t.span("system", "run_until", |_| {
                        sys.run_until(&StopCondition::cycles(prefix))
                    });
                    counts.absorb_run(&r);
                    let (snap, _) = t.span("system", "checkpoint", |_| sys.checkpoint());
                    warm = Some(t.span("kernel", "to_bytes", |_| snap.to_bytes()).0);
                }
                (None, _) => {}
            }
            let left = spec.cycles.saturating_sub(sys.total_cycles());
            let (r, _) = t.span("system", "run_until", |_| {
                sys.run_until(&StopCondition::cycles(left))
            });
            counts.absorb_run(&r);
            counts.absorb_final(&sys, &r);
            if !r.all_ok() {
                return Err(format!("direct leg {}: {}", spec.name, r.summary()));
            }
        }
        Ok((start.elapsed().as_secs_f64(), counts))
    }
}

/// Per-layer counters read from run reports, summed over the systems of
/// an op (one for a simulation op, every leg for the farm).
#[derive(Debug, Default, Clone)]
struct Counts {
    kernel: KernelStats,
    fast: FastPathStats,
    components: usize,
    wheel: bool,
    instructions: u64,
    icache_hits: u64,
    icache_misses: u64,
    cpu_bus_wait: u64,
    allocs: u64,
    frees: u64,
    reads: u64,
    writes: u64,
    burst_beats: u64,
    host_allocs: u64,
    tlb_hits: u64,
    tlb_misses: u64,
    bus_transactions: u64,
    bus_wait: u64,
    bus_busy: u64,
    bus_idle: u64,
    master_transactions: u64,
    master_wait: u64,
    master_retries: u64,
}

impl Counts {
    /// Counters that cover one `run_until` call.
    fn absorb_run(&mut self, r: &RunReport) {
        workloads::add_kernel(&mut self.kernel, &r.kernel);
        self.fast.clock_toggles += r.fast_path.clock_toggles;
        self.fast.quiet_toggles += r.fast_path.quiet_toggles;
        self.fast.calendar_toggles += r.fast_path.calendar_toggles;
    }

    /// Component counters, which accumulate over a system's life: read
    /// once, from its last report.
    fn absorb_final(&mut self, sys: &McSystem, r: &RunReport) {
        self.components = self.components.max(sys.simulator().component_count());
        self.wheel |= sys.simulator().queue_kind() == QueueKind::Wheel;
        for c in &r.cpus {
            self.instructions += c.isa.instructions;
            self.icache_hits += c.isa.icache_hits;
            self.icache_misses += c.isa.icache_misses;
            self.cpu_bus_wait += c.cosim.bus_wait_cycles;
        }
        for m in &r.mems {
            let b = &m.backend;
            self.allocs += b.allocs;
            self.frees += b.frees;
            self.reads += b.reads;
            self.writes += b.writes;
            self.burst_beats += b.burst_beats;
            self.host_allocs += b.host.allocs;
            self.tlb_hits += b.tlb_hits;
            self.tlb_misses += b.tlb_misses;
        }
        self.bus_transactions += r.bus.transactions;
        self.bus_wait += r.bus.master_wait_cycles.iter().sum::<u64>();
        self.bus_busy += r.bus.busy_cycles;
        self.bus_idle += r.bus.idle_cycles;
        for m in &r.masters {
            self.master_transactions += m.stats.transactions;
            self.master_wait += m.stats.bus_wait_cycles;
            self.master_retries += m.stats.retries;
        }
    }

    fn emit(&self, m: &mut BTreeMap<String, f64>) {
        let share = |part: u64, all: u64| {
            if all == 0 {
                0.0
            } else {
                part as f64 / all as f64
            }
        };
        let f = self.fast;
        let pairs = [
            ("kernel.events", self.kernel.events as f64),
            ("kernel.wakes", self.kernel.wakes as f64),
            ("kernel.deltas", self.kernel.deltas as f64),
            ("kernel.time_steps", self.kernel.time_steps as f64),
            (
                "kernel.calendar_share",
                share(f.calendar_toggles, f.clock_toggles),
            ),
            (
                "kernel.quiet_share",
                share(f.quiet_toggles, f.clock_toggles),
            ),
            ("kernel.components", self.components as f64),
            ("kernel.queue_kind", if self.wheel { 1.0 } else { 0.0 }),
            ("iss.instructions", self.instructions as f64),
            (
                "iss.icache_hit_rate",
                share(self.icache_hits, self.icache_hits + self.icache_misses),
            ),
            ("iss.bus_wait_cycles", self.cpu_bus_wait as f64),
            ("core.allocs", self.allocs as f64),
            ("core.frees", self.frees as f64),
            ("core.reads", self.reads as f64),
            ("core.writes", self.writes as f64),
            ("core.burst_beats", self.burst_beats as f64),
            ("core.host_allocs", self.host_allocs as f64),
            (
                "core.tlb_hit_rate",
                share(self.tlb_hits, self.tlb_hits + self.tlb_misses),
            ),
            ("interconnect.transactions", self.bus_transactions as f64),
            ("interconnect.wait_cycles", self.bus_wait as f64),
            (
                "interconnect.busy_share",
                share(self.bus_busy, self.bus_busy + self.bus_idle),
            ),
            ("masters.transactions", self.master_transactions as f64),
            ("masters.bus_wait_cycles", self.master_wait as f64),
            ("masters.retries", self.master_retries as f64),
        ];
        m.extend(pairs.map(|(k, v)| (k.to_string(), v)));
    }
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(w: Workload, seed: u64, seconds: u64) -> RunResult {
    let bench = Bench::new(w, seed);
    let mut gate = Gate::new(w, seed);
    for _ in 0..WARMUP_OPS {
        gate.judge(bench.op(false).outcome);
    }
    let (mut setup, mut runs) = (Vec::new(), Vec::new());
    let mut cycles = 0;
    let start = Instant::now();
    while runs.len() < MIN_UNTRACED_OPS || start.elapsed() < Duration::from_secs(seconds) {
        let op = bench.op(false);
        setup.push(op.program_gen + op.build);
        runs.push(op.run);
        if let Ok(obs) = &op.outcome {
            cycles = obs.cycles;
        }
        gate.judge(op.outcome);
    }
    let peak_rss = probe_rss(w, seed, &mut gate);
    let op_s = fast_decile(&runs);
    let mut r = RunResult {
        ops: runs.len(),
        attempted: gate.attempted,
        failed: gate.failed,
        errors: gate.errors,
        ..RunResult::default()
    };
    for (name, value) in [
        ("sim_cycles_per_s", cycles as f64 / op_s),
        (UNBOUNDED[0], median(&runs)),
        (UNBOUNDED[1], percentile(&runs, 90.0)),
        ("setup_s", median(&setup)),
        ("peak_rss_mb", peak_rss),
    ] {
        r.metrics.insert(name.to_string(), value);
    }
    r.notes.push(format!(
        "{} timed ops after {WARMUP_OPS} warm-up ops, {cycles} simulated cycles each; \
         op seconds p10 {op_s:.6}, p50 {:.6}, p90 {:.6}",
        runs.len(),
        r.metrics[UNBOUNDED[0]],
        r.metrics[UNBOUNDED[1]],
    ));
    r
}

/// `peak_rss_mb`: the median over [`RSS_PROBES`] fresh processes of this
/// binary, each running [`rss_probe`]. Within one process the per-op peak
/// barely moves, but about one process in eight keeps some 1.3 MiB more
/// of `dyn_heap`'s freed heap resident for its whole life (and its set-up
/// skips the page faults), depending on where its first long-lived
/// allocations happened to land; the farm's two threads add a few percent
/// of their own. A probe that fails counts as a failed check.
fn probe_rss(w: Workload, seed: u64, gate: &mut Gate) -> f64 {
    let mut peaks = Vec::new();
    for _ in 0..RSS_PROBES {
        let probe = std::env::current_exe()
            .and_then(|exe| {
                Command::new(exe)
                    .args(["--workload", w.name(), "--seed", &seed.to_string()])
                    .env(RSS_PROBE_ENV, "1")
                    .output()
            })
            .map_err(|e| format!("rss probe: {e}"))
            .and_then(|out| {
                let text = String::from_utf8_lossy(&out.stdout);
                match text.trim().parse::<f64>() {
                    Ok(mb) if out.status.success() => Ok(mb),
                    _ => Err(format!(
                        "rss probe: {}",
                        String::from_utf8_lossy(&out.stderr).trim()
                    )),
                }
            });
        gate.record(probe.map(|mb| peaks.push(mb)));
    }
    if peaks.is_empty() {
        0.0
    } else {
        median(&peaks)
    }
}

/// The body of an RSS probe process: the warm-up ops, then one op with
/// the peak resident set reset before it (`/proc/self/clear_refs`, Linux
/// 4.0 and later; where that is refused, the process's peak). Returns the
/// peak in MiB, or the first failed check.
pub fn rss_probe(w: Workload, seed: u64) -> Result<f64, String> {
    let bench = Bench::new(w, seed);
    let mut gate = Gate::new(w, seed);
    for _ in 0..WARMUP_OPS {
        gate.judge(bench.op(false).outcome);
    }
    reset_peak_rss();
    gate.judge(bench.op(false).outcome);
    match gate.errors.into_iter().next() {
        Some(e) => Err(e),
        None => peak_rss_mb().ok_or_else(|| "no VmHWM in /proc/self/status".into()),
    }
}

/// The traced run: per-layer metrics. Pairs of one untraced op and one
/// traced op fill `seconds`; the layer replays follow.
pub fn run_traced(w: Workload, seed: u64, seconds: u64) -> RunResult {
    let bench = Bench::new(w, seed);
    let mut gate = Gate::new(w, seed);
    let mut tracer = Tracer::new();
    let mut m: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|(n, _)| (n.to_string(), 0.0))
        .collect();

    for _ in 0..WARMUP_OPS {
        gate.judge(bench.op(false).outcome);
    }
    let (mut untraced, mut traced, mut program_gen, mut build, mut direct) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut counts = Counts::default();
    let mut fp_mismatch = 0;
    let start = Instant::now();
    let mut pairs = 0u32;
    while (pairs as usize) < MIN_TRACED_PAIRS || start.elapsed() < Duration::from_secs(seconds) {
        let op = bench.op(true);
        untraced.push(op.run);
        program_gen.push(op.program_gen);
        build.push(op.build);
        fp_mismatch = op.fp_mismatch;
        counts = op.counts.unwrap_or(counts);
        gate.judge(op.outcome);

        tracer.set_op(Some(pairs));
        let (op, _) = tracer.span("benchmark", "op", |t| match w {
            Workload::FarmFanout => bench.farm_op(false, Some(t)),
            _ => bench.traced_sim_op(t),
        });
        traced.push(op.run);
        gate.judge(op.outcome);

        if w == Workload::FarmFanout {
            let (legs, _) = tracer.span("benchmark", "direct_legs", |t| bench.direct_legs(t));
            gate.record(legs.map(|(time, c)| {
                direct.push(time);
                counts = c;
            }));
        }
        tracer.set_op(None);
        pairs += 1;
    }
    counts.emit(&mut m);
    let op_s = fast_decile(&untraced);
    let wakes = counts.kernel.wakes.max(1) as f64;
    set(&mut m, "system.program_gen_s", median(&program_gen));
    set(&mut m, "system.build_s", median(&build));
    set(&mut m, "kernel.ns_per_wake", op_s * 1e9 / wakes);
    set(
        &mut m,
        "trace.overhead_pct",
        100.0 * (fast_decile(&traced) / op_s - 1.0),
    );
    if w == Workload::FarmFanout && !direct.is_empty() {
        let direct_s = fast_decile(&direct);
        set(&mut m, "kernel.ns_per_wake", direct_s * 1e9 / wakes);
        set(&mut m, "farm.overhead_s", op_s - direct_s);
        set(&mut m, "farm.warm_fp_mismatch", f64::from(fp_mismatch));
        set(
            &mut m,
            "farm.warm_restores",
            warm_restores(&bench.catalog) as f64,
        );
    }

    // Layer replays.
    let describe = || w.describe(seed);
    let costs = replay::checkpoint_restore(&describe, SNAPSHOT_REPS, &mut tracer, &mut |o| {
        gate.record(o.map(drop))
    });
    set(&mut m, "system.checkpoint_s", costs.checkpoint_s);
    set(&mut m, "system.restore_s", costs.restore_s);
    set(&mut m, "kernel.snapshot_bytes", costs.bytes);
    set(&mut m, "kernel.snapshot_encode_s", costs.encode_s);
    set(&mut m, "kernel.snapshot_decode_s", costs.decode_s);

    let iss = replay::iss_ns_per_instr(seed, ISS_REPS, &mut tracer);
    gate.record(iss.map(|ns| set(&mut m, "iss.ns_per_instr", ns)));

    for model in ["wrapper", "simheap"] {
        for (live, tag) in replay::LIVE {
            let mut backend = replay::new_backend(model);
            let (costs, _) = tracer.span("core", "DsmBackend::execute", |_| {
                replay::dsm_costs(backend.as_mut(), live, DSM_BATCHES)
            });
            gate.record(costs.map(|c| {
                for (op, ns) in [
                    ("alloc", c.alloc_ns),
                    ("read", c.read_ns),
                    ("free", c.free_ns),
                ] {
                    set(&mut m, &format!("core.{model}.{op}_ns.{tag}"), ns);
                }
            }));
        }
    }

    if w == Workload::FarmFanout {
        let mut extra = Vec::new();
        for _ in 0..PROCESS_PAIRS {
            let (thread, _) = tracer.span("benchmark", "farm_thread", |t| {
                bench.farm_op(false, Some(t))
            });
            let (process, _) = tracer.span("benchmark", "farm_process", |t| {
                bench.farm_op(true, Some(t))
            });
            extra.push(process.run - thread.run);
            gate.judge(thread.outcome);
            gate.judge(process.outcome);
        }
        set(&mut m, "farm.process_overhead_s", median(&extra));
    }

    RunResult {
        ops: pairs as usize,
        attempted: gate.attempted,
        failed: gate.failed,
        errors: gate.errors,
        metrics: m,
        trace_table: Some(tracer.self_time_table()),
        trace_json: Some(tracer.to_chrome_json()),
        notes: vec![format!(
            "{pairs} pairs of an untraced and a traced op after {WARMUP_OPS} warm-up ops; \
             p10 op {op_s:.6} s untraced, {:.6} s traced",
            fast_decile(&traced)
        )],
    }
}

fn set(m: &mut BTreeMap<String, f64>, name: &str, v: f64) {
    m.insert(name.to_string(), v);
}

/// Legs that restore a warm prefix another leg of the same system
/// simulated: every warm leg but the first of its `(system, warm)` key.
fn warm_restores(catalog: &Catalog) -> usize {
    let mut keys: Vec<(&str, u64)> = Vec::new();
    let mut restores = 0;
    for spec in &catalog.scenarios {
        if let Some(w) = spec.warm_cycles {
            let key = (spec.system.as_str(), w);
            if keys.contains(&key) {
                restores += 1;
            } else {
                keys.push(key);
            }
        }
    }
    restores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// One op of every workload at the default seed, through the same gate
    /// as a benchmark run: output checks and the pinned observation.
    #[test]
    fn one_op_of_every_workload_passes_every_check() {
        for w in Workload::ALL {
            let bench = Bench::new(w, DEFAULT_SEED);
            let mut gate = Gate::new(w, DEFAULT_SEED);
            gate.judge(bench.op(true).outcome);
            assert_eq!(gate.failed, 0, "{}: {:?}", w.name(), gate.errors);
        }
    }

    #[test]
    fn an_rss_probe_checks_its_ops_and_reads_a_peak() {
        let mb = rss_probe(Workload::DmaStorm, DEFAULT_SEED).expect("probe");
        assert!(mb > 1.0, "{mb} MiB");
    }

    #[test]
    fn sliced_traced_op_reproduces_the_pinned_run() {
        let w = Workload::DmaStorm;
        let mut gate = Gate::new(w, DEFAULT_SEED);
        let (op, _) = Tracer::new().span("benchmark", "op", |t| {
            Bench::new(w, DEFAULT_SEED).traced_sim_op(t)
        });
        gate.judge(op.outcome);
        assert_eq!(gate.failed, 0, "{:?}", gate.errors);
    }

    #[test]
    fn the_gate_fails_ops_that_drift() {
        let w = Workload::GsmHeadline;
        let mut pinned = Gate::new(w, DEFAULT_SEED);
        let mut off = workloads::pinned(w);
        off.kernel.wakes += 1;
        pinned.judge(Ok(off.clone()));
        assert_eq!(pinned.failed, 1, "a pin mismatch fails");

        // Away from the default seed only the first op is the reference.
        let mut gate = Gate::new(w, DEFAULT_SEED + 1);
        gate.judge(Ok(off.clone()));
        off.cycles += 1;
        gate.judge(Ok(off));
        gate.judge(Err("exit code 1".into()));
        assert_eq!((gate.attempted, gate.failed), (3, 2));
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// crate reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(Value::as_str)
                        .expect(field)
                        .to_string()
                })
                .collect()
        };
        let ours = |table: &[(&str, &str)], i: usize| -> Vec<String> {
            table.iter().map(|m| [m.0, m.1][i].to_string()).collect()
        };
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(listed("workloads", "name"), names);
        assert_eq!(listed("end_to_end", "name"), ours(&END_TO_END, 0));
        assert_eq!(listed("end_to_end", "unit"), ours(&END_TO_END, 1));
        assert_eq!(listed("per_layer", "name"), ours(&PER_LAYER, 0));
        assert_eq!(listed("per_layer", "unit"), ours(&PER_LAYER, 1));
    }
}
