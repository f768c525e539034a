//! Wall-clock spans and counters recorded by the benchmark around calls
//! into the workspace's public functions. Nothing here reaches inside
//! the program: every span opens and closes in this crate.
//!
//! Coarse boundaries (a trial, a graph build, a scenario) are kept as
//! spans with a parent, so a layer's self time is its duration minus
//! what its children cover. Per-round calls (`step`, the equilibrium
//! checks) happen hundreds of thousands of times per run, so they are
//! kept as duration samples per name instead, which is what the
//! percentiles need. Everything stays in memory until
//! [`Tracer::write_sidecar`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are seconds since the tracer was created.
#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// Span and sample recorder. A disabled tracer runs the timed closures
/// without reading the clock, so the untraced passes pay nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    counters: BTreeMap<String, f64>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Runs a per-round call and keeps its duration as one sample of
    /// `name`.
    pub fn sample<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let seconds = start.elapsed().as_secs_f64();
        self.samples.entry(name).or_default().push(seconds);
        out
    }

    /// Adds `by` to the counter `name`.
    pub fn count(&mut self, name: &str, by: f64) {
        if self.enabled {
            *self.counters.entry(name.to_string()).or_default() += by;
        }
    }

    /// Sum of the durations of every span named `name`.
    pub fn span_total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// The duration samples recorded under `name` (empty if none).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// The counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Per span name: total duration and self time (duration minus the
    /// part its child spans cover).
    fn span_totals(&self) -> BTreeMap<&str, (f64, f64)> {
        let mut child_cover = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_cover[parent] += span.end_s - span.start_s;
            }
        }
        let mut totals: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
        for (span, cover) in self.spans.iter().zip(&child_cover) {
            let duration = span.end_s - span.start_s;
            let entry = totals.entry(span.name.as_str()).or_default();
            entry.0 += duration;
            entry.1 += duration - cover;
        }
        totals
    }

    /// Writes every span, the per-name sample summaries, the per-name
    /// total and self times and the counters as one JSON document.
    pub fn write_sidecar(&self, path: &str, header: &[(&str, String)]) -> std::io::Result<()> {
        let mut out = String::from("{\n");
        for (key, value) in header {
            let _ = writeln!(out, "  \"{key}\": {value},");
        }
        out.push_str("  \"spans\": [\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_s\": {:.9}, \"end_s\": {:.9}}}{comma}",
                span.name, span.start_s, span.end_s
            );
        }
        out.push_str("  ],\n  \"span_totals\": {");
        let totals = self.span_totals();
        for (i, (name, (total, own))) in totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{name}\": {{\"total_s\": {total:.9}, \"self_s\": {own:.9}}}"
            );
        }
        out.push_str("\n  },\n  \"samples\": {");
        for (i, (name, values)) in self.samples.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{name}\": {{\"count\": {}, \"total_s\": {:.9}, \"p50_us\": {:.3}, \
                 \"p99_us\": {:.3}}}",
                values.len(),
                values.iter().sum::<f64>(),
                percentile(values, 0.50) * 1e6,
                percentile(values, 0.99) * 1e6
            );
        }
        out.push_str("\n  },\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {value}");
        }
        out.push_str("\n  }\n}\n");
        std::fs::write(path, out)
    }
}

/// Nearest-rank percentile (the ⌈q·n⌉-th smallest value); 0 for no
/// values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let totals = t.span_totals();
        let (outer_total, outer_self) = totals["outer"];
        let (inner_total, _) = totals["inner"];
        assert!(inner_total >= 0.005);
        assert!((outer_total - inner_total - outer_self).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("a", |t| t.sample("b", || 3));
        t.count("c", 1.0);
        assert_eq!(x, 3);
        assert!(t.spans.is_empty() && t.samples("b").is_empty() && t.counter("c") == 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
