//! `BENCH-v2` — the bench-report contract.
//!
//! Both harness binaries (`perf_trajectory`, `drift_loop`) emit the same
//! text document, and `bench_compare` consumes it — the `# key value` /
//! `name value unit` lines `qpp-e2e` prints:
//!
//! ```text
//! # BENCH-v2
//! # tool perf_trajectory
//! # pr 8
//! # threads 1
//! kernel/compiled_single_row 1200000.0 rows/s
//! ```
//!
//! The first line names the format, `tool` and `pr` follow, and every
//! further `#` line is context: tool-specific knobs (workload size, noise
//! magnitude) so a reader can tell whether two documents are comparable.
//! The other lines are the flat measurement list, each value printed with
//! every digit (`{:?}`), so a document read back holds the same bits.
//! Regression direction is *inferred from the unit*, never stored:
//! throughput units (`rows/s`, `queries/s`, `rps`) and speedup ratios
//! (`x`) are higher-is-better, latencies (`s`, `ms`) and error metrics
//! (`mre`) are lower-is-better, and anything else is informational —
//! reported but never gated on.

/// The first line of every conforming document, after `# `.
pub const SCHEMA_ID: &str = "BENCH-v2";

/// One measurement.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Stable `group/metric` name, e.g. `kernel/compiled_single_row`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit string; determines the regression direction (see
    /// [`direction_for_unit`]).
    pub unit: String,
}

/// A full bench report.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    /// Emitting binary, e.g. `perf_trajectory`.
    pub tool: String,
    /// PR number whose trajectory this document belongs to.
    pub pr: u64,
    /// Tool-specific configuration the measurements were taken under, as
    /// `(key, value)` lines in the order they were noted.
    pub context: Vec<(String, String)>,
    /// The measurements.
    pub benches: Vec<BenchEntry>,
}

/// Which way a metric should move to count as an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughputs and speedups: a drop is a regression.
    HigherIsBetter,
    /// Latencies and error metrics: a rise is a regression.
    LowerIsBetter,
    /// Counters and configuration echoes: reported, never gated.
    Info,
}

/// Infers the regression direction from a unit string.
pub fn direction_for_unit(unit: &str) -> Direction {
    match unit {
        "x" | "rps" => Direction::HigherIsBetter,
        "s" | "ms" | "mre" => Direction::LowerIsBetter,
        u if u.ends_with("/s") => Direction::HigherIsBetter,
        _ => Direction::Info,
    }
}

impl BenchDoc {
    /// An empty report of `tool`.
    pub fn new(tool: &str, pr: u64) -> Self {
        BenchDoc { tool: tool.to_string(), pr, context: Vec::new(), benches: Vec::new() }
    }

    /// Appends one context line.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// Appends one measurement.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.benches.push(BenchEntry { name: name.to_string(), value, unit: unit.to_string() });
    }

    /// Looks up a measurement by exact name.
    pub fn get(&self, name: &str) -> Option<&BenchEntry> {
        self.benches.iter().find(|b| b.name == name)
    }

    /// Structural validity: non-empty tool, at least one measurement,
    /// unique names, finite values, and no name, unit or context key that
    /// would not survive the whitespace-separated text form. Returns the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        let one_word = |s: &str| !s.is_empty() && !s.contains(char::is_whitespace);
        if !one_word(&self.tool) {
            return Err(format!("tool {:?} is not one word", self.tool));
        }
        if let Some((key, _)) = self.context.iter().find(|(key, _)| !one_word(key)) {
            return Err(format!("context key {key:?} is not one word"));
        }
        if self.benches.is_empty() {
            return Err("benches is empty".to_string());
        }
        let mut seen = std::collections::HashSet::new();
        for b in &self.benches {
            if !one_word(&b.name) || b.name.starts_with('#') {
                return Err(format!("bench name {:?} is not one word", b.name));
            }
            if !seen.insert(b.name.as_str()) {
                return Err(format!("duplicate bench name {:?}", b.name));
            }
            if !b.value.is_finite() {
                return Err(format!("{}: value {} is not finite", b.name, b.value));
            }
            if !one_word(&b.unit) {
                return Err(format!("{}: unit {:?} is not one word", b.name, b.unit));
            }
        }
        Ok(())
    }

    /// The text form (see the module docs).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = format!("# {SCHEMA_ID}\n# tool {}\n# pr {}\n", self.tool, self.pr);
        for (key, value) in &self.context {
            writeln!(out, "# {key} {value}").expect("writing to a String");
        }
        for b in &self.benches {
            writeln!(out, "{} {:?} {}", b.name, b.value, b.unit).expect("writing to a String");
        }
        out
    }

    /// Reads the text form back; the error names the offending line.
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let mut lines = text.lines().enumerate().map(|(i, line)| (i + 1, line));
        let mut header = |prefix: &str| -> Result<&str, String> {
            let (n, line) =
                lines.next().ok_or_else(|| format!("ends before the `{prefix}` line"))?;
            line.strip_prefix(prefix)
                .ok_or_else(|| format!("line {n}: expected `{prefix}…`, found {line:?}"))
        };
        if header("# ")? != SCHEMA_ID {
            return Err(format!("line 1: not a {SCHEMA_ID} document"));
        }
        let tool = header("# tool ")?;
        let pr = header("# pr ")?;
        let pr = pr.parse().map_err(|_| format!("pr {pr:?} is not a number"))?;
        let mut doc = BenchDoc::new(tool, pr);
        for (n, line) in lines {
            if let Some(context) = line.strip_prefix("# ") {
                let (key, value) = context.split_once(' ').unwrap_or((context, ""));
                doc.note(key, value);
                continue;
            }
            let mut words = line.split_whitespace();
            match (words.next(), words.next(), words.next(), words.next()) {
                (Some(name), Some(value), Some(unit), None) => {
                    let value = value
                        .parse()
                        .map_err(|_| format!("line {n}: {value:?} is not a number"))?;
                    doc.push(name, value, unit);
                }
                _ => return Err(format!("line {n}: expected `name value unit`, found {line:?}")),
            }
        }
        Ok(doc)
    }
}

/// One baseline-vs-fresh comparison row.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Measurement name.
    pub name: String,
    /// Unit (from the baseline entry).
    pub unit: String,
    /// Direction inferred from the unit.
    pub direction: Direction,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// `fresh / baseline` (`NaN` when the baseline is zero).
    pub ratio: f64,
    /// Whether the fresh value moved the wrong way beyond the noise band.
    pub regressed: bool,
}

/// The outcome of diffing a fresh run against a committed baseline.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Per-measurement rows, in baseline order.
    pub deltas: Vec<Delta>,
    /// Gated baseline entries with no counterpart in the fresh run —
    /// treated as failures (a silently dropped metric is not a pass).
    pub missing_in_fresh: Vec<String>,
}

impl CompareReport {
    /// True when no gated metric regressed or went missing.
    pub fn passed(&self) -> bool {
        self.missing_in_fresh.is_empty() && self.deltas.iter().all(|d| !d.regressed)
    }
}

/// Diffs `fresh` against `baseline`, flagging any gated metric that moved
/// the wrong way by more than `noise` (a fraction, e.g. `0.4` = 40%).
///
/// Only baseline entries whose name starts with `filter` (all, when
/// `None`) participate. [`Direction::Info`] entries are reported but
/// never flagged; metrics present only in `fresh` are ignored, since the
/// committed baseline defines the contract.
pub fn compare(
    baseline: &BenchDoc,
    fresh: &BenchDoc,
    noise: f64,
    filter: Option<&str>,
) -> CompareReport {
    let mut deltas = Vec::new();
    let mut missing_in_fresh = Vec::new();
    for b in &baseline.benches {
        if let Some(prefix) = filter {
            if !b.name.starts_with(prefix) {
                continue;
            }
        }
        let direction = direction_for_unit(&b.unit);
        match fresh.get(&b.name) {
            None => {
                if direction == Direction::Info {
                    continue;
                }
                missing_in_fresh.push(b.name.clone());
            }
            Some(f) => {
                let ratio = if b.value == 0.0 { f64::NAN } else { f.value / b.value };
                let regressed = match direction {
                    Direction::HigherIsBetter => f.value < b.value * (1.0 - noise),
                    Direction::LowerIsBetter => f.value > b.value * (1.0 + noise),
                    Direction::Info => false,
                };
                deltas.push(Delta {
                    name: b.name.clone(),
                    unit: b.unit.clone(),
                    direction,
                    baseline: b.value,
                    fresh: f.value,
                    ratio,
                    regressed,
                });
            }
        }
    }
    CompareReport { deltas, missing_in_fresh }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(entries: &[(&str, f64, &str)]) -> BenchDoc {
        let mut d = BenchDoc::new("test", 7);
        for (n, v, u) in entries {
            d.push(n, *v, u);
        }
        d
    }

    #[test]
    fn direction_inference_covers_the_emitted_units() {
        assert_eq!(direction_for_unit("rows/s"), Direction::HigherIsBetter);
        assert_eq!(direction_for_unit("queries/s"), Direction::HigherIsBetter);
        assert_eq!(direction_for_unit("rps"), Direction::HigherIsBetter);
        assert_eq!(direction_for_unit("x"), Direction::HigherIsBetter);
        assert_eq!(direction_for_unit("s"), Direction::LowerIsBetter);
        assert_eq!(direction_for_unit("ms"), Direction::LowerIsBetter);
        assert_eq!(direction_for_unit("mre"), Direction::LowerIsBetter);
        assert_eq!(direction_for_unit("queries"), Direction::Info);
        assert_eq!(direction_for_unit("fraction"), Direction::Info);
        assert_eq!(direction_for_unit("requests"), Direction::Info);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(doc(&[("a", 1.0, "s")]).validate().is_ok());
        let mut bad = doc(&[("a", 1.0, "s")]);
        bad.tool = "two words".to_string();
        assert!(bad.validate().is_err());
        let mut bad = doc(&[("a", 1.0, "s")]);
        bad.note("two words", 1);
        assert!(bad.validate().is_err());
        assert!(doc(&[("a b", 1.0, "s")]).validate().is_err());
        assert!(doc(&[("#a", 1.0, "s")]).validate().is_err());
        assert!(doc(&[]).validate().is_err());
        assert!(doc(&[("a", 1.0, "s"), ("a", 2.0, "s")]).validate().is_err());
        assert!(doc(&[("a", f64::NAN, "s")]).validate().is_err());
        assert!(doc(&[("a", 1.0, "")]).validate().is_err());
        assert!(doc(&[("", 1.0, "s")]).validate().is_err());
    }

    #[test]
    fn compare_flags_regressions_by_direction_within_noise() {
        let base = doc(&[
            ("kernel/tput", 100.0, "rows/s"),
            ("kernel/lat", 10.0, "ms"),
            ("info/count", 5.0, "requests"),
        ]);
        // Within the 20% band: pass.
        let ok = doc(&[
            ("kernel/tput", 85.0, "rows/s"),
            ("kernel/lat", 11.5, "ms"),
            ("info/count", 900.0, "requests"),
        ]);
        assert!(compare(&base, &ok, 0.2, None).passed());
        // Throughput collapse: fail.
        let slow = doc(&[("kernel/tput", 70.0, "rows/s"), ("kernel/lat", 10.0, "ms")]);
        let r = compare(&base, &slow, 0.2, None);
        assert!(!r.passed());
        assert!(r.deltas.iter().any(|d| d.name == "kernel/tput" && d.regressed));
        // Latency blowup: fail.
        let lag = doc(&[("kernel/tput", 100.0, "rows/s"), ("kernel/lat", 13.0, "ms")]);
        assert!(!compare(&base, &lag, 0.2, None).passed());
    }

    #[test]
    fn compare_honors_filter_and_missing_metrics() {
        let base = doc(&[("kernel/tput", 100.0, "rows/s"), ("serve/p99", 50.0, "ms")]);
        // serve/p99 regressed, but the kernel/ filter excludes it.
        let fresh = doc(&[("kernel/tput", 100.0, "rows/s"), ("serve/p99", 500.0, "ms")]);
        assert!(compare(&base, &fresh, 0.1, Some("kernel/")).passed());
        assert!(!compare(&base, &fresh, 0.1, None).passed());
        // A gated baseline metric missing from the fresh run fails.
        let partial = doc(&[("serve/p99", 50.0, "ms")]);
        let r = compare(&base, &partial, 0.1, None);
        assert!(!r.passed());
        assert_eq!(r.missing_in_fresh, vec!["kernel/tput".to_string()]);
    }

    #[test]
    fn documents_round_trip_through_text() {
        let mut d = BenchDoc::new("perf_trajectory", 7);
        d.note("threads", 1);
        d.note("templates", "1,3,5");
        d.push("kernel/compiled_single_row", 1.25e6, "rows/s");
        d.push("kernel/speedup_single", 0.1 + 0.2, "x");
        let text = d.render();
        assert!(text.starts_with("# BENCH-v2\n# tool perf_trajectory\n# pr 7\n# threads 1\n"));
        let back = BenchDoc::parse(&text).unwrap();
        assert!(back.validate().is_ok());
        assert_eq!((back.tool.as_str(), back.pr), ("perf_trajectory", 7));
        assert_eq!(back.context, d.context);
        assert_eq!(back.benches.len(), 2);
        assert_eq!(
            back.get("kernel/speedup_single").unwrap().value.to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert_eq!(back.get("kernel/speedup_single").unwrap().unit, "x");
        assert_eq!(back.render(), text);
    }

    #[test]
    fn text_that_is_not_a_document_is_refused_with_its_line() {
        let good = "# BENCH-v2\n# tool t\n# pr 1\na 1.0 s\n";
        assert!(BenchDoc::parse(good).is_ok());
        for (bad, needle) in [
            ("", "ends before"),
            ("{\n  \"schema\": \"BENCH-v1\"\n}\n", "line 1"),
            ("# BENCH-v1\n# tool t\n# pr 1\na 1.0 s\n", "line 1"),
            ("# BENCH-v2\n# pr 1\n# tool t\na 1.0 s\n", "line 2"),
            ("# BENCH-v2\n# tool t\n# pr one\na 1.0 s\n", "not a number"),
            ("# BENCH-v2\n# tool t\n# pr 1\na fast s\n", "line 4"),
            ("# BENCH-v2\n# tool t\n# pr 1\na 1.0\n", "line 4"),
            ("# BENCH-v2\n# tool t\n# pr 1\na 1.0 s extra\n", "line 4"),
        ] {
            let err = BenchDoc::parse(bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
    }
}
