//! dmi-benchmark: simulated cycles per host second, end to end and per
//! layer, on four workloads. See `README.md` in this directory.
//!
//! ```text
//! dmi-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! dmi-benchmark compare BASE.jsonl CHANGE.jsonl
//! ```
//!
//! With both `--workload` and `--trace` the run happens in this process
//! and its last line of output is the result object. Otherwise every
//! missing workload × trace combination runs in a child process of this
//! binary, one after another.

// A benchmark exists to read the wall clock; no simulated behaviour here
// depends on it.
#![allow(clippy::disallowed_methods)]
#![forbid(unsafe_code)]

mod compare;
mod json;
mod replay;
mod run;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::{obj, Value};
use run::{RunResult, END_TO_END, PER_LAYER};
use workloads::{Workload, DEFAULT_SEED};

/// Safety budget for runs that should halt on their own long before it.
pub const CYCLE_CAP: u64 = 50_000_000;

/// Seconds one run measures when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 20;

#[derive(Debug)]
struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                o.workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => o.seed = parse_u64(value).ok_or(format!("bad seed {value}"))?,
            "--seconds" => o.seconds = parse_u64(value).ok_or(format!("bad seconds {value}"))?,
            "--trace" => {
                o.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(o)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if std::env::var_os(dmi_farm::WORKER_ENV).is_some() {
        // A process-mode farm worker spawned by the farm_fanout traced run:
        // its registry must match the supervisor's, so it takes the seed.
        let seed = parse_opts(&args).map_or(DEFAULT_SEED, |o| o.seed);
        dmi_farm::worker_entry_from_env(&workloads::farm_registry(seed));
    }
    if std::env::var_os(run::RSS_PROBE_ENV).is_some() {
        // A peak-memory probe spawned by an untraced run.
        let probe = match parse_opts(&args) {
            Ok(Opts {
                workload: Some(w),
                seed,
                ..
            }) => run::rss_probe(w, seed),
            _ => Err("a probe needs --workload".into()),
        };
        return match probe {
            Ok(mb) => {
                println!("{mb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("compare") {
        return ExitCode::from(compare::main(&args[1..]) as u8);
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dmi-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (opts.workload, opts.trace) {
        (Some(w), Some(trace)) => run_here(w, opts.seed, opts.seconds, trace),
        _ => run_children(&opts),
    }
}

/// Runs every requested workload × trace pass in its own child process.
fn run_children(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("dmi-benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<Workload> = opts.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let traces: Vec<bool> = opts.trace.map_or(vec![false, true], |t| vec![t]);
    let mut ok = true;
    for w in workloads {
        for &trace in &traces {
            let status = Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!(
                        "dmi-benchmark: {} (trace {}) exited with {s}",
                        w.name(),
                        trace as u8
                    );
                    ok = false;
                }
                Err(e) => {
                    eprintln!("dmi-benchmark: cannot start {}: {e}", w.name());
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run in this process: measure, check, print, record. Fails when
/// any checked op failed.
fn run_here(w: Workload, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let out = out_dir();
    // Process-mode farm workers hand snapshots over through files in the
    // temporary directory; keep them inside the benchmark's own tree.
    let tmp = out.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("dmi-benchmark: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", &tmp);

    let result = if trace {
        run::run_traced(w, seed, seconds)
    } else {
        run::run_untraced(w, seed, seconds)
    };
    let listed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };

    println!("workload {} seed {seed} trace {}", w.name(), trace as u8);
    for note in &result.notes {
        println!("  {note}");
    }
    for e in &result.errors {
        eprintln!("  FAILED: {e}");
    }
    println!(
        "  {} of {} checked ops failed; {} timed ops",
        result.failed, result.attempted, result.ops
    );
    for (name, unit) in listed {
        println!("  {name:<32} {:>16.6e} {unit}", result.metrics[*name]);
    }
    if let Some(table) = &result.trace_table {
        println!("  per-layer self time of the traced run:");
        print!("{table}");
    }
    if let Some(chrome) = &result.trace_json {
        let path = out.join(format!("trace-{}.json", w.name()));
        match std::fs::write(&path, chrome) {
            Ok(()) => println!("  trace written to {}", path.display()),
            Err(e) => eprintln!("  cannot write {}: {e}", path.display()),
        }
    }

    record(&out, w, seed, trace, &result);
    let metrics = obj(listed.iter().map(|(name, unit)| {
        let v = Value::Num(result.metrics[*name]);
        let v = obj([("value", v), ("unit", Value::Str(unit.to_string()))]);
        (name.to_string(), v)
    }));
    let line = obj([
        ("correct", Value::Bool(result.failed == 0)),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_json());
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Appends the run, with every metric it measured (`op_s_p50` and
/// `op_s_p90` too), to `out/results.jsonl`, the file `compare` reads.
fn record(out: &std::path::Path, w: Workload, seed: u64, trace: bool, r: &RunResult) {
    let metrics = obj(r.metrics.iter().map(|(k, &v)| (k.clone(), Value::Num(v))));
    let line = obj([
        ("workload", Value::Str(w.name().into())),
        ("seed", Value::Str(seed.to_string())),
        ("trace", Value::Num(f64::from(u8::from(trace)))),
        ("ops", Value::Num(r.ops as f64)),
        ("attempted", Value::Num(r.attempted as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("metrics", metrics),
    ]);
    let path = out.join("results.jsonl");
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{}", line.to_json()));
    if let Err(e) = written {
        eprintln!("  cannot append to {}: {e}", path.display());
    }
}
