//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span is (name, layer, start, end, parent, op). Spans are kept in
//! memory and written once, at exit, as Chrome trace-event JSON (load
//! the file in `chrome://tracing` or Perfetto). A layer is the crate
//! whose public function the span wraps; "benchmark" is this crate's own
//! bookkeeping around them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::{obj, Value};

#[derive(Debug)]
struct Span {
    name: &'static str,
    layer: &'static str,
    /// The traced op this span belongs to (`None` for layer replays).
    op: Option<u32>,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    /// Tags the spans opened from now on with op `op` (`None`: replays).
    pub fn set_op(&mut self, op: Option<u32>) {
        self.op = op;
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration. Spans opened by `f` become children of this one.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            op: self.op,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let end = self.origin.elapsed();
        let span = &mut self.spans[idx];
        span.end = end;
        (r, end - span.start)
    }

    /// Self time of every span: its duration minus the time its children
    /// cover (children of one span never overlap: the benchmark runs
    /// single-threaded).
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Per-layer self time table: one row per (layer, span name), then a
    /// total per layer with its share of all recorded time.
    pub fn self_time_table(&self) -> String {
        let own = self.self_times();
        let mut rows: BTreeMap<(&str, &str), (usize, Duration, Duration)> = BTreeMap::new();
        let mut layers: BTreeMap<&str, Duration> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&own) {
            let row = rows.entry((s.layer, s.name)).or_default();
            row.0 += 1;
            row.1 += s.end - s.start;
            row.2 += *own;
            *layers.entry(s.layer).or_default() += *own;
        }
        let all: Duration = layers.values().sum();
        let mut out =
            String::from("  layer        span                 count     total_s      self_s\n");
        for ((layer, name), (count, total, own)) in &rows {
            out.push_str(&format!(
                "  {layer:<12} {name:<20} {count:>5} {:>11.6} {:>11.6}\n",
                total.as_secs_f64(),
                own.as_secs_f64()
            ));
        }
        out.push_str("  layer        self_s      share\n");
        for (layer, own) in &layers {
            out.push_str(&format!(
                "  {layer:<12} {:>11.6} {:>8.2}%\n",
                own.as_secs_f64(),
                100.0 * own.as_secs_f64() / all.as_secs_f64().max(f64::MIN_POSITIVE)
            ));
        }
        out
    }

    /// Chrome trace-event JSON ("X" complete events, microseconds).
    pub fn to_chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![("id", Value::Num(i as f64))];
                if let Some(p) = s.parent {
                    args.push(("parent", Value::Num(p as f64)));
                }
                if let Some(op) = s.op {
                    args.push(("op", Value::Num(f64::from(op))));
                }
                obj([
                    ("name", Value::Str(s.name.to_string())),
                    ("cat", Value::Str(s.layer.to_string())),
                    ("ph", Value::Str("X".into())),
                    ("ts", Value::Num(s.start.as_secs_f64() * 1e6)),
                    ("dur", Value::Num((s.end - s.start).as_secs_f64() * 1e6)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    ("args", obj(args)),
                ])
            })
            .collect();
        obj([("traceEvents", Value::Arr(events))]).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_op(Some(0));
        let ((), outer) = t.span("benchmark", "op", |t| {
            t.span("system", "build", |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
        });
        let own = t.self_times();
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(own[0] < outer);
        assert_eq!(own[0] + own[1], outer);
        let table = t.self_time_table();
        assert!(
            table.contains("system") && table.contains("build"),
            "{table}"
        );
        let json = crate::json::parse(&t.to_chrome_json()).expect("valid JSON");
        assert_eq!(
            json.get("traceEvents")
                .and_then(|e| e.as_array())
                .map(|e| e.len()),
            Some(2)
        );
    }
}
