//! The small pieces of arithmetic every report is built from: order
//! statistics under the percentile-support rule, open-loop latency
//! accounting, trace coverage and overhead, and metric-name checks.

use obfuscade::metrics::quantile_rank;

/// Samples a tail percentile must leave above its rank before it may be
/// reported. With fewer, the value is one of the few largest samples and
/// says nothing about the tail.
pub const MIN_BEYOND: usize = 10;

/// Ascending copy of `samples` (NaN-free input assumed; NaNs sort last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// The `q`-quantile of an ascending slice under the workspace rank rule
/// (the ⌈q·n⌉-th smallest sample), or `None` when it is not supported:
/// no samples at all, or — for a tail percentile (q > 0.5) — fewer than
/// [`MIN_BEYOND`] samples above its rank. The median is reported for any
/// non-empty sample, always next to its count.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = quantile_rank(q, n);
    if rank == 0 || (q > 0.5 && n - rank < MIN_BEYOND) {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The highest of `ladder` (descending quantiles) that `sorted` supports,
/// with its value.
pub fn highest_supported(sorted: &[f64], ladder: &[f64]) -> Option<(f64, f64)> {
    ladder
        .iter()
        .find_map(|&q| percentile(sorted, q).map(|v| (q, v)))
}

/// Median of an unsorted sample: the middle value, or the mean of the
/// two middle values for an even count (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// One open-loop request's timestamps, in seconds from a common origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule said the request should be sent.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When its response arrived.
    pub done: f64,
}

impl Timing {
    /// Latency as the user of an open-loop system sees it: from when the
    /// request was due, so a stall also counts against every request
    /// queued behind it.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent the request (never negative).
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Requests due by `end` whose responses had not arrived by `end` — the
/// backlog a phase leaves behind.
pub fn outstanding_at(timings: &[Timing], end: f64) -> usize {
    timings
        .iter()
        .filter(|t| t.due <= end && t.done > end)
        .count()
}

/// Whether a fixed-rate phase met its service level: its tail latency is
/// within `limit` and its backlog at the end of the phase is no larger
/// than the number of connections (each may legitimately hold one
/// request in flight).
pub fn rate_met(tail: Option<f64>, limit: f64, outstanding: usize, connections: usize) -> bool {
    tail.is_some_and(|t| t <= limit) && outstanding <= connections
}

/// Share of a job's untraced wall time that its stage spans cover.
pub fn coverage(span_sum: f64, untraced: f64) -> f64 {
    if untraced > 0.0 {
        span_sum / untraced
    } else {
        0.0
    }
}

/// Extra wall time tracing costs, in percent of the untraced time.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    if untraced > 0.0 {
        (traced - untraced) / untraced * 100.0
    } else {
        0.0
    }
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_their_rank() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // p90 needs 100.
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.90), None);
    }

    #[test]
    fn the_median_is_reported_for_any_nonempty_sample() {
        assert_eq!(percentile(&ramp(1), 0.5), Some(1.0));
        assert_eq!(percentile(&ramp(4), 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn highest_supported_walks_down_the_ladder() {
        let ladder = [0.99, 0.9, 0.75];
        assert_eq!(highest_supported(&ramp(1000), &ladder), Some((0.99, 990.0)));
        assert_eq!(highest_supported(&ramp(150), &ladder), Some((0.9, 135.0)));
        assert_eq!(highest_supported(&ramp(40), &ladder), Some((0.75, 30.0)));
        assert_eq!(highest_supported(&ramp(39), &ladder), None);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at 1.0, sent 0.25 late behind a stalled request, answered
        // 0.5 after sending: the user waited 0.75.
        let t = Timing {
            due: 1.0,
            sent: 1.25,
            done: 1.75,
        };
        assert_eq!(t.latency(), 0.75);
        assert_eq!(t.lateness(), 0.25);
        // Sent early (clock granularity) never reports negative lateness.
        let early = Timing {
            due: 2.0,
            sent: 1.999,
            done: 2.1,
        };
        assert_eq!(early.lateness(), 0.0);
    }

    #[test]
    fn backlog_counts_due_but_unanswered_requests() {
        let ts = [
            Timing {
                due: 0.0,
                sent: 0.0,
                done: 0.5,
            },
            Timing {
                due: 0.5,
                sent: 0.5,
                done: 1.5,
            },
            Timing {
                due: 0.9,
                sent: 1.5,
                done: 2.0,
            },
            Timing {
                due: 1.2,
                sent: 2.0,
                done: 2.5,
            },
        ];
        assert_eq!(outstanding_at(&ts, 1.0), 2);
        assert_eq!(outstanding_at(&ts, 3.0), 0);
        assert!(rate_met(Some(1.0), 2.0, 2, 2));
        assert!(!rate_met(Some(1.0), 2.0, 3, 2));
        assert!(!rate_met(Some(2.5), 2.0, 0, 2));
        assert!(!rate_met(None, 2.0, 0, 2));
    }

    #[test]
    fn coverage_and_overhead_arithmetic() {
        assert_eq!(coverage(98.0, 100.0), 0.98);
        assert_eq!(coverage(1.0, 0.0), 0.0);
        assert!((overhead_pct(103.0, 100.0) - 3.0).abs() < 1e-12);
        assert!((overhead_pct(99.0, 100.0) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for name in [
            "setup_s",
            "slicer.analysis_ms",
            "service.encode_us.json",
            "p99-2",
            "9a",
        ] {
            assert!(valid_metric_name(name), "{name}");
        }
        for name in ["", ".x", "_x", "a b", "a/b", "µs", &"a".repeat(65)] {
            assert!(!valid_metric_name(name), "{name}");
        }
    }
}
