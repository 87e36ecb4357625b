//! # queryvis-bench
//!
//! Shared helpers for the figure-reproduction harness (`repro` binary) and
//! the TCP server's clients (`faultgen`, `loadgen`; see [`harness`]). See
//! `DESIGN.md` §2 for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results.

pub mod harness;

use queryvis_stats::BootstrapInterval;
use std::fmt::Write as _;

/// Format a bootstrap interval as `estimate [lower, upper]`.
pub fn fmt_ci(ci: &BootstrapInterval) -> String {
    format!("{:.1} [{:.1}, {:.1}]", ci.estimate, ci.lower, ci.upper)
}

/// Format a bootstrap interval with more precision (error rates).
pub fn fmt_ci3(ci: &BootstrapInterval) -> String {
    format!("{:.3} [{:.3}, {:.3}]", ci.estimate, ci.lower, ci.upper)
}

/// Format a proportion as a percentage with sign, e.g. `-20.3%`.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:+.1}%", fraction * 100.0)
}

/// Format a p-value the way the paper reports them.
pub fn fmt_p(p: f64) -> String {
    if p < 0.001 {
        "p < 0.001".to_string()
    } else {
        format!("p = {p:.2}")
    }
}

/// A crude text histogram (one row per bucket) used for the Fig. 20/21
/// difference distributions.
pub fn text_histogram(values: &[f64], buckets: usize, width: usize) -> String {
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-9);
    let mut counts = vec![0usize; buckets];
    for &v in values {
        let idx = (((v - min) / span) * buckets as f64).floor() as usize;
        counts[idx.min(buckets - 1)] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (i, &count) in counts.iter().enumerate() {
        let lo = min + span * i as f64 / buckets as f64;
        let hi = min + span * (i + 1) as f64 / buckets as f64;
        let bar_len = (count * width).div_ceil(peak);
        let bar: String = std::iter::repeat_n('#', bar_len).collect();
        let _ = writeln!(out, "{lo:>8.1} .. {hi:>7.1} | {bar} {count}");
    }
    out
}

/// Section header for harness output.
pub fn banner(title: &str) -> String {
    format!(
        "\n================================================================\n\
         {title}\n\
         ================================================================"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_formatting() {
        assert_eq!(fmt_p(0.0001), "p < 0.001");
        assert_eq!(fmt_p(0.30), "p = 0.30");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(fmt_pct(-0.2), "-20.0%");
        assert_eq!(fmt_pct(0.013), "+1.3%");
    }

    #[test]
    fn histogram_counts_everything() {
        let values = vec![-3.0, -1.0, 0.0, 1.0, 2.0, 2.5];
        let hist = text_histogram(&values, 4, 20);
        let total: usize = hist
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<usize>().unwrap())
            .sum();
        assert_eq!(total, values.len());
    }
}
