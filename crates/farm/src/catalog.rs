//! The scenario catalog: an ordered list of [`ScenarioSpec`] legs with a
//! dependency-free text serialization.
//!
//! The on-disk form is a line-based format (a deliberately small
//! stand-in for a real config language — this build environment vendors
//! no serde):
//!
//! ```text
//! # comment
//! scenario quickstart
//!   system = quickstart
//!   cycles = 2000000
//!   checkpoint_every = 100000
//!   retries = 1
//! end
//! ```
//!
//! `scenario <name>` opens a leg, `key = value` lines fill it in, `end`
//! closes it. Unknown keys are an error (catalogs are hand-written;
//! silently ignoring a typo like `retrys` would be worse). The format
//! round-trips: `Catalog::parse(c.to_text()) == c`.

use dmi_kernel::crc32;

use crate::spec::ScenarioSpec;

/// An ordered set of scenario legs. Leg order is meaningful: the
/// journal identifies completed legs by their index in this order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Catalog {
    /// The legs, in dispatch (and journal-index) order.
    pub scenarios: Vec<ScenarioSpec>,
}

/// A catalog line that did not parse, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "catalog line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CatalogError {}

fn err(line: usize, message: impl Into<String>) -> CatalogError {
    CatalogError {
        line,
        message: message.into(),
    }
}

fn parse_u64(line: usize, key: &str, v: &str) -> Result<u64, CatalogError> {
    v.parse::<u64>()
        .map_err(|_| err(line, format!("{key}: expected an unsigned integer, got '{v}'")))
}

fn parse_bool(line: usize, key: &str, v: &str) -> Result<bool, CatalogError> {
    match v {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(err(line, format!("{key}: expected true/false, got '{v}'"))),
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a leg.
    pub fn push(&mut self, spec: ScenarioSpec) {
        self.scenarios.push(spec);
    }

    /// Number of legs.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the catalog has no legs.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// CRC-32 of the canonical text form — the identity the journal
    /// stores, so a journal can refuse to resume against a different
    /// catalog than the one that wrote it.
    pub fn crc(&self) -> u32 {
        crc32(self.to_text().as_bytes())
    }

    /// Serializes to the line format described in the module docs.
    /// Defaults are omitted, so `parse(to_text())` round-trips exactly.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for s in &self.scenarios {
            out.push_str(&format!("scenario {}\n", s.name));
            out.push_str(&format!("  system = {}\n", s.system));
            out.push_str(&format!("  cycles = {}\n", s.cycles));
            if let Some(v) = s.checkpoint_every {
                out.push_str(&format!("  checkpoint_every = {v}\n"));
            }
            if let Some(v) = s.deadline_ms {
                out.push_str(&format!("  deadline_ms = {v}\n"));
            }
            if s.retries != 0 {
                out.push_str(&format!("  retries = {}\n", s.retries));
            }
            if let Some(v) = s.warm_cycles {
                out.push_str(&format!("  warm_cycles = {v}\n"));
            }
            if let Some(v) = &s.warm_snapshot {
                out.push_str(&format!("  warm_snapshot = {v}\n"));
            }
            if let Some(v) = s.fault_injection {
                out.push_str(&format!("  fault_injection = {v}\n"));
            }
            if s.expect_failure {
                out.push_str("  expect_failure = true\n");
            }
            if let Some(v) = s.inject_panic_at {
                out.push_str(&format!("  inject_panic_at = {v}\n"));
            }
            if let Some(v) = s.hang_ms {
                out.push_str(&format!("  hang_ms = {v}\n"));
            }
            if let Some(v) = s.inject_abort_at {
                out.push_str(&format!("  inject_abort_at = {v}\n"));
            }
            out.push_str("end\n");
        }
        out
    }

    /// Parses the line format described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a [`CatalogError`] naming the first offending line:
    /// stray text outside a `scenario` block, an unknown or malformed
    /// `key = value`, a missing `system`/`cycles`, or an unclosed block.
    pub fn parse(text: &str) -> Result<Catalog, CatalogError> {
        let mut catalog = Catalog::new();
        let mut parser = BlockParser::new();
        for raw in text.lines() {
            if let Some(spec) = parser.line(raw)? {
                catalog.push(spec);
            }
        }
        parser.finish()?;
        Ok(catalog)
    }
}

/// The line machine behind [`Catalog::parse`]: feed lines, get a
/// [`ScenarioSpec`] back whenever an `end` closes a block.
struct BlockParser {
    /// `(open-line, partially-filled spec, has system, has cycles)`.
    open: Option<(usize, ScenarioSpec, bool, bool)>,
    /// 1-based number of the last line fed.
    line_no: usize,
}

impl BlockParser {
    fn new() -> Self {
        BlockParser {
            open: None,
            line_no: 0,
        }
    }

    /// Consumes one line; `Ok(Some(spec))` when it closed a block.
    fn line(&mut self, raw: &str) -> Result<Option<ScenarioSpec>, CatalogError> {
        self.line_no += 1;
        let ln = self.line_no;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        if let Some(name) = line.strip_prefix("scenario ") {
            if self.open.is_some() {
                return Err(err(ln, "'scenario' inside an unclosed scenario block"));
            }
            let name = name.trim();
            if name.is_empty() {
                return Err(err(ln, "scenario needs a name"));
            }
            self.open = Some((ln, ScenarioSpec::new(name, "", 0), false, false));
            return Ok(None);
        }
        if line == "end" {
            let Some((_, spec, has_system, has_cycles)) = self.open.take() else {
                return Err(err(ln, "'end' without an open scenario block"));
            };
            if !has_system {
                return Err(err(ln, format!("scenario '{}' has no system", spec.name)));
            }
            if !has_cycles {
                return Err(err(ln, format!("scenario '{}' has no cycles", spec.name)));
            }
            return Ok(Some(spec));
        }
        let Some((_, spec, has_system, has_cycles)) = self.open.as_mut() else {
            return Err(err(ln, format!("stray line outside a scenario block: '{line}'")));
        };
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(ln, format!("expected 'key = value', got '{line}'")));
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "system" => {
                spec.system = value.to_string();
                *has_system = !value.is_empty();
            }
            "cycles" => {
                spec.cycles = parse_u64(ln, key, value)?;
                *has_cycles = true;
            }
            "checkpoint_every" => spec.checkpoint_every = Some(parse_u64(ln, key, value)?),
            "deadline_ms" => spec.deadline_ms = Some(parse_u64(ln, key, value)?),
            "retries" => {
                spec.retries = u32::try_from(parse_u64(ln, key, value)?)
                    .map_err(|_| err(ln, format!("{key}: {value} exceeds {}", u32::MAX)))?;
            }
            "warm_cycles" => spec.warm_cycles = Some(parse_u64(ln, key, value)?),
            "warm_snapshot" => {
                if value.is_empty() {
                    return Err(err(ln, "warm_snapshot: expected a file path"));
                }
                spec.warm_snapshot = Some(value.to_string());
            }
            "fault_injection" => spec.fault_injection = Some(parse_bool(ln, key, value)?),
            "expect_failure" => spec.expect_failure = parse_bool(ln, key, value)?,
            "inject_panic_at" => spec.inject_panic_at = Some(parse_u64(ln, key, value)?),
            "hang_ms" => spec.hang_ms = Some(parse_u64(ln, key, value)?),
            "inject_abort_at" => spec.inject_abort_at = Some(parse_u64(ln, key, value)?),
            _ => return Err(err(ln, format!("unknown key '{key}'"))),
        }
        Ok(None)
    }

    /// End-of-input check: an open block at EOF is an error.
    fn finish(&self) -> Result<(), CatalogError> {
        if let Some((ln, spec, ..)) = &self.open {
            return Err(err(
                *ln,
                format!("scenario '{}' is never closed with 'end'", spec.name),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        let mut c = Catalog::new();
        c.push(ScenarioSpec::new("quick", "quickstart", 100_000));
        c.push(
            ScenarioSpec::new("head", "gsm_headline", 450_000)
                .checkpoint(50_000)
                .deadline_ms(30_000)
                .retries(2)
                .warm(10_000)
                .faults(true),
        );
        c.push(
            ScenarioSpec::new("probe", "quickstart", 100_000)
                .checkpoint(10_000)
                .retries(1)
                .expect_failure()
                .inject_panic_at(40_000)
                .hang_ms(5),
        );
        c.push(
            ScenarioSpec::new("snapped", "gsm_headline", 300_000)
                .warm_snapshot("/tmp/warm-prefix.snap")
                .inject_abort_at(150_000)
                .retries(1),
        );
        c
    }

    #[test]
    fn text_round_trips() {
        let c = sample();
        let text = c.to_text();
        let back = Catalog::parse(&text).expect("round-trip parses");
        assert_eq!(back, c);
        assert_eq!(back.crc(), c.crc());
    }

    #[test]
    fn comments_and_whitespace_tolerated() {
        let text = "# a catalog\n\n scenario x \n   system=quickstart\n cycles =  5\nend\n";
        let c = Catalog::parse(text).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.scenarios[0].name, "x");
        assert_eq!(c.scenarios[0].system, "quickstart");
        assert_eq!(c.scenarios[0].cycles, 5);
    }

    #[test]
    fn errors_name_the_line() {
        let e = Catalog::parse("scenario a\n  bogus = 1\nend\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("unknown key"), "{e}");

        let e = Catalog::parse("cycles = 5\n").unwrap_err();
        assert!(e.message.contains("stray line"), "{e}");

        let e = Catalog::parse("scenario a\n  system = s\n").unwrap_err();
        assert!(e.message.contains("never closed"), "{e}");

        let e = Catalog::parse("scenario a\n  system = s\nend\n").unwrap_err();
        assert!(e.message.contains("no cycles"), "{e}");

        let e = Catalog::parse("scenario a\n  cycles = nope\nend\n").unwrap_err();
        assert!(e.message.contains("unsigned integer"), "{e}");

        // 2^32 + 1 would wrap to one retry if cast to u32.
        let text = "scenario a\n  system = s\n  cycles = 5\n  retries = 4294967297\nend\n";
        let e = Catalog::parse(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("exceeds 4294967295"), "{e}");
    }

    #[test]
    fn crc_distinguishes_catalogs() {
        let a = sample();
        let mut b = sample();
        b.scenarios[0].cycles += 1;
        assert_ne!(a.crc(), b.crc());
    }
}
