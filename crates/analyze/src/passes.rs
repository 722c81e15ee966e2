//! The analysis passes, one diagnostic code each. Every pass is a pure
//! function of the graph (plus the precomputed [`ShardPlan`] for
//! `A008`): no simulator access, no side effects — what makes
//! `analyze()` provably inert.

use crate::diag::{Code, Diagnostic};
use crate::graph::{NodeId, SystemGraph};
use crate::shard::ShardPlan;

/// Runs every pass and appends the findings (unsorted; the caller
/// ranks).
pub fn run_all(g: &SystemGraph, plan: &ShardPlan, out: &mut Vec<Diagnostic>) {
    unreachable_slaves(g, out);
    never_woken(g, out);
    window_shadowing(g, out);
    unmapped_footprints(g, out);
    watch_targets(g, out);
    dead_fault_sites(g, out);
    clock_periods(g, out);
    zero_lookahead(g, plan, out);
}

/// `A001`: a memory no master can reach. Its windows decode, but no
/// reachability edge targets them — every word it holds is dead.
fn unreachable_slaves(g: &SystemGraph, out: &mut Vec<Diagnostic>) {
    if !g.has_address_info {
        return;
    }
    for &mem in &g.mem_nodes {
        let reached = g
            .reaches
            .iter()
            .any(|r| g.regions[r.region].mem == mem);
        if !reached {
            out.push(Diagnostic::new(
                Code::A001,
                g.name(mem),
                "no master can reach this memory through the interconnect",
                "connect it to an interconnect the masters use, or remove it",
            ));
        }
    }
}

/// `A002`: a component subscribed to nothing — it gets its `Start` wake
/// and then never runs again.
fn never_woken(g: &SystemGraph, out: &mut Vec<Diagnostic>) {
    let mut woken = vec![false; g.nodes.len()];
    for sub in &g.subs {
        woken[sub.reader.index()] = true;
    }
    for (i, node) in g.nodes.iter().enumerate() {
        if !woken[i] {
            out.push(Diagnostic::new(
                Code::A002,
                &node.name,
                "subscribed to no signal: it will never wake after start",
                "subscribe it to a clock edge, or drop it from the system",
            ));
        }
    }
}

/// `A003`: overlapping decode windows. The builder rejects these at
/// build time; hand-assembled graphs and future producers may not.
fn window_shadowing(g: &SystemGraph, out: &mut Vec<Diagnostic>) {
    if !g.has_address_info {
        return;
    }
    let mut sorted: Vec<&crate::graph::RegionInfo> = g.regions.iter().collect();
    sorted.sort_by_key(|r| r.base);
    for pair in sorted.windows(2) {
        if (pair[1].base as u64) < pair[0].end() {
            out.push(Diagnostic::new(
                Code::A003,
                format!("{:#x}+{:#x}", pair[1].base, pair[1].size),
                format!(
                    "window shadows {:#x}+{:#x} ({})",
                    pair[0].base,
                    pair[0].size,
                    g.name(pair[0].mem)
                ),
                "give every memory a disjoint decode window",
            ));
        }
    }
}

/// `A004`: a master's statically-known footprint crosses address space
/// no window decodes — those transactions can only produce decode
/// errors at run time.
fn unmapped_footprints(g: &SystemGraph, out: &mut Vec<Diagnostic>) {
    if !g.has_address_info {
        return;
    }
    let mut sorted: Vec<&crate::graph::RegionInfo> = g.regions.iter().collect();
    sorted.sort_by_key(|r| r.base);
    for fp in &g.footprints {
        if fp.len == 0 {
            continue;
        }
        let (start, end) = (fp.base as u64, fp.base as u64 + fp.len as u64);
        // Walk the sorted windows over [start, end): the first byte not
        // covered is the reported gap.
        let mut cursor = start;
        for r in &sorted {
            if r.end() <= cursor {
                continue;
            }
            if r.base as u64 > cursor {
                break; // gap at `cursor`
            }
            cursor = r.end();
            if cursor >= end {
                break;
            }
        }
        if cursor < end {
            out.push(Diagnostic::new(
                Code::A004,
                g.name(fp.master),
                format!(
                    "footprint {:#x}+{:#x} touches unmapped address {:#x}",
                    fp.base, fp.len, cursor
                ),
                "point the master at a mapped window, or map the range",
            ));
        }
    }
}

/// `A005`: watch targets that can never match — a memory ordinal that
/// does not exist, or a static-table offset beyond the table's decode
/// window. Dynamic models (wrapper, SimHeap) use run-time vptrs the
/// static layer cannot bound; only the handle is checked for those.
fn watch_targets(g: &SystemGraph, out: &mut Vec<Diagnostic>) {
    for w in &g.watches {
        if w.mem >= g.mem_nodes.len() {
            out.push(Diagnostic::new(
                Code::A005,
                format!("watch mem{}", w.mem),
                format!("the system has {} memories", g.mem_nodes.len()),
                "watch a memory handle returned by this builder",
            ));
            continue;
        }
        if !g.has_address_info {
            continue;
        }
        let mem = g.mem_nodes[w.mem];
        for r in g.regions.iter().filter(|r| r.mem == mem) {
            let static_model = r.model == "static" || r.model == "static-protocol";
            if static_model && w.location >= r.size {
                out.push(Diagnostic::new(
                    Code::A005,
                    format!("watch {}+{:#x}", g.name(mem), w.location),
                    format!(
                        "offset is outside the {:#x}-byte static table window",
                        r.size
                    ),
                    "watch an offset inside the table",
                ));
            }
        }
    }
}

/// `A006`: fault-plan specs that can never fire on this topology —
/// sites naming memories or masters that do not exist, or protocol
/// sites on a direct static table (which has no protocol to fault).
fn dead_fault_sites(g: &SystemGraph, out: &mut Vec<Diagnostic>) {
    use dmi_core::FaultSite;

    let mem_model = |mem: NodeId| {
        g.regions
            .iter()
            .find(|r| r.mem == mem)
            .map(|r| r.model)
    };
    for (i, spec) in g.fault_specs.iter().enumerate() {
        let subject = format!("fault spec #{i}");
        let mut dead = |msg: String, hint: &str| {
            out.push(Diagnostic::new(Code::A006, subject.clone(), msg, hint));
        };
        let check_master = |m: usize| m >= g.master_nodes.len();
        match spec.site {
            FaultSite::MemOp { mem, master, .. } | FaultSite::MemBeat { mem, master, .. } => {
                if mem >= g.mem_nodes.len() {
                    dead(
                        format!("site names mem{mem}, but the system has {}", g.mem_nodes.len()),
                        "target a memory this builder registered",
                    );
                } else {
                    if g.has_address_info {
                        if let Some("static") = mem_model(g.mem_nodes[mem]) {
                            dead(
                                format!(
                                    "{} is a direct static table: no protocol events to fault",
                                    g.name(g.mem_nodes[mem])
                                ),
                                "use a protocol model (wrapper/simheap/static-protocol) \
                                 or a bus-access site",
                            );
                        }
                    }
                    if let Some(m) = master {
                        if check_master(m as usize) {
                            dead(
                                format!(
                                    "master filter {m} exceeds the {} wired masters",
                                    g.master_nodes.len()
                                ),
                                "filter on a wired master index, or drop the filter",
                            );
                        }
                    }
                }
            }
            FaultSite::BusAccess { master } => {
                if let Some(m) = master {
                    if check_master(m) {
                        dead(
                            format!(
                                "master filter {m} exceeds the {} wired masters",
                                g.master_nodes.len()
                            ),
                            "filter on a wired master index, or drop the filter",
                        );
                    }
                }
            }
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `A007`: multi-clock period relations worth knowing before a long
/// run: identical periods (domains in lock-step — one clock would do)
/// and co-prime half-periods (edges never coincide, so queued toggles
/// pay the worst case — the clock calendar pays off most there).
fn clock_periods(g: &SystemGraph, out: &mut Vec<Diagnostic>) {
    for i in 0..g.clocks.len() {
        for j in i + 1..g.clocks.len() {
            let (a, b) = (&g.clocks[i], &g.clocks[j]);
            let subject = format!("{} ({}t) / {} ({}t)", a.name, a.period, b.name, b.period);
            if a.period == b.period {
                out.push(Diagnostic::new(
                    Code::A007,
                    subject,
                    "identical periods: the domains run in lock-step",
                    "a single shared clock expresses this more cheaply",
                ));
            } else if gcd(a.period / 2, b.period / 2) == 1 {
                let hyper = a.period / gcd(a.period, b.period) * b.period;
                out.push(Diagnostic::new(
                    Code::A007,
                    subject,
                    format!(
                        "co-prime half-periods: edges never coincide \
                         (hyperperiod {hyper} ticks)"
                    ),
                    "keep the kernel fast path (the default) on for this system",
                ));
            }
        }
    }
}

/// `A008`: a shard holding more than one clock domain — some
/// zero-latency coupling (a shared non-clock signal, or one component
/// listening to both clocks) forces the domains to advance in
/// lock-step, denying the parallel engine any lookahead between them.
fn zero_lookahead(g: &SystemGraph, plan: &ShardPlan, out: &mut Vec<Diagnostic>) {
    for (idx, shard) in plan.lockstep_shards() {
        let domains: Vec<&str> = shard
            .domains
            .iter()
            .map(|&k| g.clocks[k].name.as_str())
            .collect();
        out.push(Diagnostic::new(
            Code::A008,
            format!("shard #{idx}"),
            format!(
                "clock domains {} are coupled with zero lookahead \
                 ({} components forced into lock-step)",
                domains.join(", "),
                shard.nodes.len()
            ),
            "decouple the domains through the bus (latency > 0) instead \
             of shared signals, or accept lock-step sharding",
        ));
    }
}
