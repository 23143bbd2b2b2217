//! One run's result: named metrics with units, output checks, and the
//! contract's final JSON line.

use crate::stats;
use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("goodput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("capacity_per_s", "1/s"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("nn.pool_ns_per_row", "ns"),
    ("nn.dense_forward_us_per_batch", "us"),
    ("comm.cross_host_bytes_per_item", "B"),
    ("comm.intra_host_bytes_per_item", "B"),
    ("comm.all_to_all_us", "us"),
    ("comm.modelled_wire_ms_per_item", "ms"),
    ("trainer.compute_ms_busy", "ms"),
    ("trainer.compute_ms_exposed", "ms"),
    ("trainer.embedding_comm_ms_busy", "ms"),
    ("trainer.embedding_comm_ms_exposed", "ms"),
    ("trainer.dense_sync_ms_busy", "ms"),
    ("trainer.dense_sync_ms_exposed", "ms"),
    ("trainer.other_ms_busy", "ms"),
    ("trainer.other_ms_exposed", "ms"),
    ("trainer.hidden_comm_frac", "frac"),
    ("trainer.unattributed_frac", "frac"),
    ("serve.service_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.cache_hit_rate", "frac"),
    ("serve.shed_frac", "frac"),
    ("serve.deadline_misses", "count"),
    ("serve.stage_queue_depth_max", "count"),
    ("data.gen_us_per_query", "us"),
    ("gen.lag_ms_max", "ms"),
    ("host.cpu_steal_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// A workload run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations offered: requests for serving, iterations for training.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    metrics: Vec<(String, f64, String)>,
    checks: Vec<(String, bool)>,
}

impl Report {
    /// Records a metric (a later value of the same name replaces it).
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records an output or reconciliation check; a failed one fails the run.
    pub fn check(&mut self, label: impl Into<String>, ok: bool) {
        self.checks.push((label.into(), ok));
    }

    /// `p50_ms` over all latency samples (milliseconds, in time order) and
    /// `tail_ms`: the nearest-rank percentile `tail` of equal consecutive
    /// slices, medianed across slices. One stall of the shared machine then
    /// moves one slice's tail, not the run's. There are at most
    /// `max_slices`, and as many as keep ten samples beyond the percentile in
    /// every slice; the run fails if even one slice cannot.
    pub fn latency(&mut self, samples_ms: &[f64], tail: f64, max_slices: usize) {
        self.metric(
            "p50_ms",
            stats::percentile(samples_ms, 50.0).unwrap_or(f64::NAN),
            "ms",
        );
        let min_slice = (10.0 / (1.0 - tail / 100.0)).ceil() as usize;
        let slices = (samples_ms.len() / min_slice).clamp(1, max_slices.max(1));
        let slice = samples_ms.len() / slices;
        let tails: Vec<f64> = samples_ms
            .chunks_exact(slice.max(1))
            .filter_map(|chunk| stats::percentile(chunk, tail))
            .collect();
        self.metric("tail_ms", stats::median(&tails).unwrap_or(f64::NAN), "ms");
        let beyond = stats::samples_beyond(slice, tail);
        let shown: Vec<String> = tails.iter().map(|t| format!("{t:.2}")).collect();
        self.check(
            format!(
                "tail_ms is the median p{tail} of slices of {slice} samples [{}] ms, \
                 each with {beyond} beyond it (at least 10)",
                shown.join(", ")
            ),
            beyond >= 10,
        );
    }

    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Human-readable metric and check lines.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<36} {value:>16.6} {unit}");
        }
        for (label, ok) in &self.checks {
            let _ = writeln!(out, "  {} {label}", if *ok { "PASS" } else { "FAIL" });
        }
        out
    }

    /// The result line over the metrics `wanted`, and whether the run was
    /// correct. A wanted metric the run did not produce, or one that is not
    /// finite, makes the run incorrect instead of printing an invalid number.
    #[must_use]
    pub fn json_line(&self, wanted: &[(&str, &str)]) -> (bool, String) {
        let mut correct = self.correct() && self.attempted > 0;
        let mut body = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = match self.value(name) {
                Some(v) if v.is_finite() => v,
                _ => {
                    correct = false;
                    0.0
                }
            };
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted, self.failed
        );
        (correct, line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_wanted_metrics_and_fails_on_missing_ones() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("a", 1.5, "ms");
        r.check("ok", true);
        let (correct, line) = r.json_line(&[("a", "ms")]);
        assert!(correct);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        let (correct, line) = r.json_line(&[("a", "ms"), ("b", "s")]);
        assert!(!correct && line.starts_with("{\"correct\": false"));
        r.metric("a", f64::NAN, "ms");
        assert!(!r.json_line(&[("a", "ms")]).0);
        r.metric("a", 2.0, "ms");
        r.check("broken", false);
        assert!(!r.json_line(&[("a", "ms")]).0);
    }

    #[test]
    fn tail_is_the_median_of_slice_percentiles() {
        // Three slices of 1000 samples (p99 needs 1000 for ten beyond); the
        // middle slice is slow, the other two agree.
        let mut samples: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for s in &mut samples[1000..2000] {
            *s += 500.0;
        }
        let mut r = Report::default();
        r.latency(&samples, 99.0, 25);
        assert_eq!(r.value("tail_ms"), Some(989.0));
        assert_eq!(r.value("p50_ms"), stats::percentile(&samples, 50.0));
        assert!(r.correct());
        // Too few samples for ten beyond p99: the run fails.
        let mut short = Report::default();
        short.latency(&samples[..999], 99.0, 25);
        assert!(!short.correct());
        // The slice count is capped: 100 training iterations per slice.
        let mut capped = Report::default();
        capped.latency(&samples, 90.0, 2);
        assert!(capped.correct());
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
