//! What a run reports: the metric catalogue, the per-run result, and its
//! rendering — a readable report followed by the one-line JSON result.

use obfuscade::json::Json;

/// End-to-end metrics, reported by every workload with tracing off. Each
/// is defined on every workload (see `perfbench/design.json` for what
/// each means on each workload) and is never 0 in a healthy run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer a
/// workload does not reach reports 0 with a sample count of 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cad.resolve_ms", "ms"),
    ("mesh.tessellate_ms", "ms"),
    ("mesh.triangles", "count"),
    ("slicer.contours_ms", "ms"),
    ("slicer.analysis_ms", "ms"),
    ("slicer.toolpath_ms", "ms"),
    ("slicer.layers", "count"),
    ("slicer.roads", "count"),
    ("printer.firmware_ms", "ms"),
    ("printer.deposit_ms", "ms"),
    ("printer.inspect_ms", "ms"),
    ("printer.spans_planned", "count"),
    ("printer.span_fill_voxels", "count"),
    ("fea.lattice_ms", "ms"),
    ("fea.solve_ms", "ms"),
    ("fea.newton_iters", "count"),
    ("fea.pcg_iters", "count"),
    ("fea.residual_evals", "count"),
    ("fea.pool_reuse_ratio", "ratio"),
    ("core.job_ms", "ms"),
    ("core.trace_coverage", "ratio"),
    ("core.trace_overhead_pct", "%"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.evictions", "count"),
    ("core.cache.spill_writes", "count"),
    ("core.cache.spill_hits", "count"),
    ("service.encode_us.json", "us"),
    ("service.encode_us.binary", "us"),
    ("service.decode_us.json", "us"),
    ("service.decode_us.binary", "us"),
    ("service.response_bytes.json", "bytes"),
    ("service.response_bytes.binary", "bytes"),
    ("service.server_ms_p50", "ms"),
    ("service.server_ms_p99", "ms"),
    ("service.wire_ms_p50", "ms"),
    ("service.rejected_overloaded", "count"),
    ("service.backpressure_stalls", "count"),
    ("service.respawns", "count"),
    ("service.client_retries", "count"),
    ("router.hop_ms_p50", "ms"),
    ("router.routed", "count"),
    ("router.failovers", "count"),
    ("detect.job_ms", "ms"),
    ("detect.jobs", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.sent", "count"),
    ("error_frac", "ratio"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (one of [`END_TO_END`] / [`PER_LAYER`]).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples the value was computed from.
    pub n: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Measured metrics (missing per-layer ones are filled with 0).
    pub metrics: Vec<Metric>,
    /// Operations attempted (jobs or requests).
    pub attempted: u64,
    /// Errors + output mismatches + dropped requests.
    pub failed: u64,
    /// Readable lines printed before the result: per-rate rows, the
    /// workload's own latency figures, notes on failures.
    pub lines: Vec<String>,
}

impl RunResult {
    /// Records `name` = `value` over `n` samples.
    pub fn put(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value, n });
    }

    /// Adds a report line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Counts a failed operation and notes why (the first few reasons are
    /// kept for the report).
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        if self.failed <= 5 {
            self.lines.push(format!("FAILED: {}", reason.into()));
        }
    }

    /// Prints the readable report and, last, the one-line JSON result
    /// holding exactly the `catalogue` metrics.
    pub fn print(&self, catalogue: &[(&'static str, &'static str)]) {
        for line in &self.lines {
            println!("{line}");
        }
        let mut fields = Vec::new();
        for &(name, unit) in catalogue {
            let m = self.metrics.iter().find(|m| m.name == name);
            let (value, n) = m.map_or((0.0, 0), |m| (m.value, m.n));
            println!("{name:<32} {value:>16.6} {unit:<6} n={n}");
            fields.push((
                name.to_string(),
                Json::Object(vec![
                    ("value".into(), Json::Number(value)),
                    ("unit".into(), Json::str(unit)),
                ]),
            ));
        }
        if !catalogue.iter().any(|&(name, _)| name == "error_frac") {
            let error_frac = self.failed as f64 / self.attempted.max(1) as f64;
            println!(
                "{:<32} {error_frac:>16.6} ratio  n={}",
                "error_frac", self.attempted
            );
        }
        let result = Json::Object(vec![
            (
                "correct".into(),
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted".into(), Json::u64(self.attempted.max(1))),
            ("failed".into(), Json::u64(self.failed)),
            ("metrics".into(), Json::Object(fields)),
        ]);
        println!("{}", result.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }
}
