//! `compare BASE CHANGE`: judges two sets of runs against the bounds in
//! `BENCHMARK.json`, one verdict per end-to-end metric and workload.
//!
//! Each input is a results file as the benchmark appends it (one JSON
//! object per run). For every pair the medians of the two sets are
//! compared, and the spread is the larger of the two interquartile
//! distances, as a share of the median:
//!
//! * **unresolved** — the spread exceeds the metric's bound, unless every
//!   change run reads better than every base run (then: improved);
//! * **regressed** — the change's median is worse by more than the bound;
//! * **improved** — the change's median is better by more than the spread;
//! * **unchanged** — otherwise.
//!
//! The median and p90 op times (`op_s_p50`, `op_s_p90`) have no bound, as
//! no bound the file may carry holds their spread: they read improved or
//! regressed only when every change run is better or worse than every
//! base run, and unresolved otherwise.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::run::UNBOUNDED;
use crate::stats::{median, spread};

/// One end-to-end metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the base median the metric may worsen by; `None` judges
    /// by the order of the runs alone.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Reads the `end_to_end` rules of a `BENCHMARK.json` and adds the
/// unbounded op-time percentiles.
pub fn rules(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("metric without better")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            Ok(Bound {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound: Some(bound),
            })
        })
        .chain(UNBOUNDED.map(|name| {
            Ok(Bound {
                name: name.to_string(),
                higher_is_better: false,
                bound: None,
            })
        }))
        .collect()
}

/// Values per `(workload, metric)` across the runs of a results file.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Reads a results file: one JSON object per line with `workload` and
/// `metrics` (`name -> number`).
pub fn load(text: &str) -> Result<Samples, String> {
    let mut out = Samples::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let Some(Value::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("line {}: no metrics", i + 1));
        };
        for (name, v) in metrics {
            if let Some(v) = v.as_f64() {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// The verdict for one metric and workload.
pub fn judge(base: &[f64], change: &[f64], rule: &Bound) -> Verdict {
    let (mb, mc) = (median(base), median(change));
    let worse = if rule.higher_is_better {
        (mb - mc) / mb.abs()
    } else {
        (mc - mb) / mb.abs()
    };
    let better = |c: f64, b: f64| if rule.higher_is_better { c > b } else { c < b };
    let all_better = change.iter().all(|&c| base.iter().all(|&b| better(c, b)));
    let Some(bound) = rule.bound else {
        let all_worse = change.iter().all(|&c| base.iter().all(|&b| better(b, c)));
        return match (all_better, all_worse) {
            (true, _) => Verdict::Improved,
            (_, true) => Verdict::Regressed,
            _ => Verdict::Unresolved,
        };
    };
    // One run has no measurable spread: nothing can be resolved from it.
    let spread = match (spread(base), spread(change)) {
        (Some(a), Some(b)) => a.max(b),
        _ => f64::INFINITY,
    };
    if spread > bound {
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The comparison table, one row per workload and metric, and whether
/// any pair regressed.
pub fn report(base: &Samples, change: &Samples, rules: &[Bound]) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict\n",
        "workload", "metric", "base", "change", "delta", "spread", "bound"
    );
    let mut regressed = false;
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = base.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    for workload in workloads {
        for rule in rules {
            let key = (workload.clone(), rule.name.clone());
            let (Some(b), Some(c)) = (base.get(&key), change.get(&key)) else {
                continue;
            };
            let verdict = judge(b, c, rule);
            regressed |= verdict == Verdict::Regressed;
            let (mb, mc) = (median(b), median(c));
            let spread = match (spread(b), spread(c)) {
                (Some(x), Some(y)) => format!("{:.2}%", 100.0 * x.max(y)),
                _ => "n/a".into(),
            };
            let bound = rule
                .bound
                .map_or("none".into(), |b| format!("{:.0}%", 100.0 * b));
            out.push_str(&format!(
                "{:<14} {:<18} {:>14.6e} {:>14.6e} {:>7.2}% {:>8} {:>7}  {:?} ({} vs {} runs)\n",
                workload,
                rule.name,
                mb,
                mc,
                100.0 * (mc - mb) / mb.abs(),
                spread,
                bound,
                verdict,
                b.len(),
                c.len()
            ));
        }
    }
    (out, regressed)
}

/// `compare BASE CHANGE`, with the bounds of this checkout's
/// `BENCHMARK.json`. Exit code 0: no regression; 1: a regression; 2: bad
/// input.
pub fn main(args: &[String]) -> i32 {
    let [base, change] = args else {
        eprintln!("usage: dmi-benchmark compare BASE.jsonl CHANGE.jsonl");
        return 2;
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let result = (|| -> Result<(String, bool), String> {
        let rules = rules(&read(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../BENCHMARK.json"
        ))?)?;
        let base = load(&read(base)?)?;
        let change = load(&read(change)?)?;
        Ok(report(&base, &change, &rules))
    })();
    match result {
        Ok((table, regressed)) => {
            print!("{table}");
            i32::from(regressed)
        }
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    /// Ten runs around `center` with a ±1% spread.
    fn runs(center: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (0.99 + 0.002 * f64::from(i)))
            .collect()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = rule(false, 0.10);
        assert_eq!(judge(&runs(1.0), &runs(1.0), &lower), Verdict::Unchanged);
        assert_eq!(judge(&runs(1.0), &runs(1.2), &lower), Verdict::Regressed);
        assert_eq!(judge(&runs(1.0), &runs(0.9), &lower), Verdict::Improved);
        let higher = rule(true, 0.10);
        assert_eq!(judge(&runs(1.0), &runs(1.2), &higher), Verdict::Improved);
        assert_eq!(judge(&runs(1.0), &runs(0.8), &higher), Verdict::Regressed);
        // Worse, but within the bound: not a regression.
        assert_eq!(judge(&runs(1.0), &runs(0.95), &higher), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 0.5 } else { 1.5 })
            .collect();
        let r = rule(false, 0.10);
        assert_eq!(judge(&noisy, &runs(1.3), &r), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &runs(0.2), &r), Verdict::Improved);
        // A single run has no spread to judge against.
        assert_eq!(judge(&[1.0], &[2.0], &r), Verdict::Unresolved);
    }

    #[test]
    fn unbounded_metrics_are_judged_by_the_order_of_the_runs() {
        let r = Bound {
            bound: None,
            ..rule(false, 0.0)
        };
        assert_eq!(judge(&runs(1.0), &runs(1.5), &r), Verdict::Regressed);
        assert_eq!(judge(&runs(1.0), &runs(0.5), &r), Verdict::Improved);
        // Overlapping runs, however far apart the medians: unresolved,
        // never unchanged.
        assert_eq!(judge(&runs(1.0), &runs(1.0), &r), Verdict::Unresolved);
        assert_eq!(judge(&runs(1.0), &runs(1.015), &r), Verdict::Unresolved);
    }

    #[test]
    fn reads_bounds_and_results() {
        let doc = r#"{"end_to_end": [
            {"name": "sim_cycles_per_s", "unit": "cycles/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;
        let rules = rules(doc).expect("parses");
        let named: Vec<(&str, Option<f64>)> =
            rules.iter().map(|r| (r.name.as_str(), r.bound)).collect();
        assert_eq!(
            named,
            [
                ("sim_cycles_per_s", Some(0.1)),
                ("setup_s", Some(0.25)),
                ("op_s_p50", None),
                ("op_s_p90", None)
            ]
        );
        assert!(rules[0].higher_is_better && !rules[1].higher_is_better);

        let line = |w: &str, v: f64| {
            format!(
                r#"{{"workload": "{w}", "metrics": {{"sim_cycles_per_s": {v}, "setup_s": 0.01}}}}"#
            )
        };
        let base: String = (0..10)
            .map(|i| line("gsm_headline", 100.0 + f64::from(i)) + "\n")
            .collect();
        let slow: String = (0..10)
            .map(|i| line("gsm_headline", 80.0 + f64::from(i)) + "\n")
            .collect();
        let (b, s) = (load(&base).expect("loads"), load(&slow).expect("loads"));
        assert_eq!(b[&("gsm_headline".into(), "setup_s".into())].len(), 10);
        let (table, regressed) = report(&b, &s, &rules);
        assert!(regressed, "{table}");
        assert!(
            table.contains("Regressed") && table.contains("Unchanged"),
            "{table}"
        );
        let (_, regressed) = report(&b, &b, &rules);
        assert!(!regressed);
        assert!(load("{\"metrics\": {}}").is_err());
    }
}
