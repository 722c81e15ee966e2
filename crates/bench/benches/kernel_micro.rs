//! Simulation-kernel microbenches: raw event throughput and signal commit
//! cost — the substrate overheads all experiments sit on.
//!
//! The `kernel_1k_*` cases build their system inside every iteration, so
//! they include set-up; the `kernel_dispatch_*` and `kernel_commit_*`
//! cases build it once and time only the run loop, 2,000 more ticks (1,000
//! cycles of a 2-tick clock) per iteration.

use criterion::{criterion_group, criterion_main, Criterion};
use dmi_kernel::{Component, Ctx, Edge, Simulator, Wire};

struct Toggler {
    clk: Wire,
    out: Wire,
    state: bool,
}
impl Component for Toggler {
    fn name(&self) -> &str {
        "toggler"
    }
    fn wake(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.is_signal(self.clk) {
            self.state = !self.state;
            ctx.write_bit(self.out, self.state);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Does nothing when woken: what is timed is the kernel's dispatch alone.
struct Idle;
impl Component for Idle {
    fn name(&self) -> &str {
        "idle"
    }
    fn wake(&mut self, _ctx: &mut Ctx<'_>) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Writes a new value to its own 8-bit wire, which nothing watches, on
/// every wake: each wake adds one changing write to the delta's commit.
struct Writer {
    out: Wire,
    n: u64,
}
impl Component for Writer {
    fn name(&self) -> &str {
        "writer"
    }
    fn wake(&mut self, ctx: &mut Ctx<'_>) {
        self.n += 1;
        ctx.write(self.out, self.n);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// `n` components from `make`, each woken by every rising edge of one
/// 2-tick clock.
fn clocked(n: usize, mut make: impl FnMut(&mut Simulator) -> Box<dyn Component>) -> Simulator {
    let mut sim = Simulator::new();
    let clk = sim.add_clock("clk", 2);
    for _ in 0..n {
        let comp = make(&mut sim);
        let id = sim.add_component(comp);
        sim.subscribe(id, clk, Edge::Rising);
    }
    sim
}

fn kernel(c: &mut Criterion) {
    for n in [6usize, 22] {
        let mut sim = clocked(n, |_| Box::new(Idle));
        c.bench_function(&format!("kernel_dispatch_{n}_components"), |b| {
            b.iter(|| {
                sim.run_for(2000);
                sim.stats().wakes
            });
        });
    }
    let mut sim = clocked(22, |sim| {
        let out = sim.wire("w", 8);
        Box::new(Writer { out, n: 0 })
    });
    c.bench_function("kernel_commit_22_writers", |b| {
        b.iter(|| {
            sim.run_for(2000);
            sim.signals().writes_total()
        });
    });

    for n in [16usize, 256] {
        c.bench_function(&format!("kernel_1k_cycles_{n}_components"), |b| {
            b.iter(|| {
                let mut sim = Simulator::new();
                let clk = sim.add_clock("clk", 2);
                for i in 0..n {
                    let out = sim.wire(format!("t{i}"), 1);
                    let id = sim.add_component(Box::new(Toggler {
                        clk,
                        out,
                        state: false,
                    }));
                    sim.subscribe(id, clk, Edge::Rising);
                }
                sim.run_for(2000);
                sim.stats().events
            });
        });
    }

    // Timer storm: `n` components with no clock at all, each re-arming a
    // 1-tick timer on every wake — every tick dispatches `n` queued
    // events at the same (time, delta) key, the densest queued-dispatch
    // pattern the kernel serves. Kept as the sentinel behind the PR 5
    // decision to dispatch queued events one per `Ctx` frame: a hoisted
    // shared frame for same-key runs measured at parity here (queue
    // churn dominates, not frame construction) while costing the
    // clocked benches 5-12 % from codegen layout alone.
    struct TimerStorm {
        fired: u64,
    }
    impl Component for TimerStorm {
        fn name(&self) -> &str {
            "storm"
        }
        fn wake(&mut self, ctx: &mut Ctx<'_>) {
            self.fired += 1;
            ctx.schedule_in(1, 0);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    for n in [64usize, 256] {
        c.bench_function(&format!("kernel_1k_ticks_timer_storm_{n}"), |b| {
            b.iter(|| {
                let mut sim = Simulator::new();
                for _ in 0..n {
                    sim.add_component(Box::new(TimerStorm { fired: 0 }));
                }
                sim.run_for(1000);
                sim.stats().events
            });
        });
    }
}

criterion_group!(benches, kernel);
criterion_main!(benches);
