//! Metric names, correctness accounting and the one-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lat_p50_ms.low", "ms"),
    ("lat_p99_ms.low", "ms"),
    ("lat_p50_ms.high", "ms"),
    ("lat_p99_ms.high", "ms"),
    ("max_rps_slo", "1/s"),
    ("auc_static", "ratio"),
    ("auc_dynamic", "ratio"),
    ("auc_hategen", "ratio"),
    ("text.build_s", "s"),
    ("detector.train_s", "s"),
    ("detector.label_s", "s"),
    ("task.build_s", "s"),
    ("task.samples", "count"),
    ("task.candidates", "count"),
    ("task.d_user", "count"),
    ("pack.s", "s"),
    ("pack.rows_per_s", "1/s"),
    ("train.static_s", "s"),
    ("train.dynamic_s", "s"),
    ("train.samples_per_s.static", "1/s"),
    ("train.samples_per_s.dynamic", "1/s"),
    ("train.gflop_per_s", "GFLOP/s"),
    ("snapshot.encode_s", "s"),
    ("snapshot.decode_s", "s"),
    ("snapshot.restore_s", "s"),
    ("snapshot.bytes", "B"),
    ("infer32.narrow_s", "s"),
    ("score.us_per_sample.f64", "us"),
    ("score.us_per_sample.f32", "us"),
    ("score.gflop_per_s", "GFLOP/s"),
    ("serving.submit_us.p50", "us"),
    ("serving.submit_us.p99", "us"),
    ("serving.queue_depth.max", "count"),
    ("serving.queue_depth.mean", "count"),
    ("serving.accepted", "count"),
    ("serving.completed", "count"),
    ("serving.rejected", "count"),
    ("serving.overhead_ms.p50", "ms"),
    ("serving.burst_s", "s"),
    ("model.predict_us.p50", "us"),
    ("gen.lag_ms.p99", "ms"),
    ("gen.lag_ms.max", "ms"),
    ("phase.low.sent", "count"),
    ("phase.low.ok", "count"),
    ("phase.low.failed", "count"),
    ("phase.high.sent", "count"),
    ("phase.high.ok", "count"),
    ("phase.high.failed", "count"),
    ("phase.ladder.sent", "count"),
    ("phase.ladder.ok", "count"),
    ("phase.ladder.failed", "count"),
    ("phase.burst.sent", "count"),
    ("phase.burst.ok", "count"),
    ("phase.burst.failed", "count"),
    ("features.hategen_s", "s"),
    ("features.rows_per_s", "1/s"),
    ("ml.cell_s.logreg", "s"),
    ("ml.cell_s.dectree", "s"),
    ("ml.cell_s.gbdt", "s"),
    ("computed.flop_per_row.user_dense", "flop"),
    ("computed.flop_per_row.attention", "flop"),
    ("computed.flop_per_row.head_static", "flop"),
    ("computed.flop_per_row.head_dynamic", "flop"),
    ("computed.bytes_per_row.user_dense", "B"),
    ("computed.bytes_per_row.attention", "B"),
    ("computed.bytes_per_row.head_static", "B"),
    ("computed.bytes_per_row.head_dynamic", "B"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Metric values a workload measured, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Correctness accounting: every checked operation counts as attempted,
/// every failed check as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one checked operation; report it on stderr if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }

    /// Count a probability vector: every value finite and in [0, 1].
    pub fn probabilities(&mut self, what: &str, probs: &[f64]) {
        let bad = probs
            .iter()
            .find(|p| !(p.is_finite() && (0.0..=1.0).contains(*p)));
        self.check(bad.is_none(), || {
            format!("{what}: probability {bad:?} outside [0, 1]")
        });
    }
}

/// Peak resident set of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` where the platform has no such field.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Render the result line for the metrics named in `registry`. A metric
/// the workload did not measure reports 0; a value that is not finite is
/// a failed check, reported as 0.
pub fn render(registry: &[(&str, &str)], metrics: &Metrics, checks: &mut Checks) -> String {
    let mut fields = Vec::with_capacity(registry.len());
    for &(name, unit) in registry {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        checks.check(value.is_finite(), || format!("metric {name} is {value}"));
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_registered_metric() {
        let mut metrics = Metrics::new();
        metrics.insert("wall_s", 1.25);
        metrics.insert("auc", f64::NAN);
        let mut checks = Checks::default();
        let line = render(
            &[("wall_s", "s"), ("auc", "ratio"), ("setup_s", "s")],
            &metrics,
            &mut checks,
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"auc\": {\"value\": 0, \"unit\": \"ratio\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn probability_check_rejects_out_of_range() {
        let mut checks = Checks::default();
        checks.probabilities("ok", &[0.0, 0.5, 1.0]);
        checks.probabilities("nan", &[0.2, f64::NAN]);
        checks.probabilities("big", &[1.5]);
        assert_eq!((checks.attempted, checks.failed), (3, 2));
    }

    /// The registries and `BENCHMARK.json` name the same metrics.
    #[test]
    fn registries_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = json.matches("\"name\": ").count();
        let workloads = json.matches("\"why\": ").count();
        assert_eq!(listed, workloads + END_TO_END.len() + PER_LAYER.len());
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
