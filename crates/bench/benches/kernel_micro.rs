//! Simulation-kernel microbenches: raw event throughput and signal commit
//! cost — the substrate overheads all experiments sit on.

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

fn kernel(c: &mut Criterion) {
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
