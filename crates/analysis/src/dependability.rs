//! Dependability metrics: the Table 4 machinery.
//!
//! For each recovery scenario the paper reports MTTF, MTTR (with
//! std/min/max), availability `MTTF/(MTTF+MTTR)`, failure-mode coverage
//! (failures recovered without app restart or reboot — Avižienis et
//! al.'s failure-assumption coverage) and the masking percentage.

use crate::ttf::TtfTtrSeries;
use btpan_sim::stats::Summary;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 95 % confidence interval around a sample mean, widened when the
/// campaign behind it only partially completed.
///
/// A supervised multi-seed run can lose seeds to panics or deadline
/// overruns (see `btpan-core`'s supervisor); the surviving sample is
/// both smaller and potentially biased toward better-behaved seeds. The
/// honest response is wider error bars: the normal-approximation
/// half-width `z₀.₉₇₅ · s/√n` is inflated by `1/√coverage`, where
/// `coverage` is the fraction of requested seeds that completed — at
/// full coverage the interval is the classical one, at 25 % coverage it
/// doubles, and at zero coverage it is infinite (no claim can be made).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// The sample mean.
    pub mean: f64,
    /// Half-width of the interval (infinite when fewer than two
    /// observations or zero coverage).
    pub half_width: f64,
    /// The seed-coverage fraction the widening was computed from.
    pub coverage: f64,
}

impl ConfidenceInterval {
    /// `z` at 97.5 % (two-sided 95 %).
    const Z95: f64 = 1.959_963_984_540_054;

    /// Builds the interval from a sample summary and the campaign's
    /// seed-coverage fraction (clamped to `[0, 1]`).
    pub fn from_summary(summary: &Summary, coverage: f64) -> Self {
        let coverage = coverage.clamp(0.0, 1.0);
        let n = summary.count as f64;
        let classical = if summary.count >= 2 {
            Self::Z95 * summary.std_dev / n.sqrt()
        } else {
            f64::INFINITY
        };
        let half_width = if coverage > 0.0 {
            classical / coverage.sqrt()
        } else {
            f64::INFINITY
        };
        ConfidenceInterval {
            mean: summary.mean,
            half_width,
            coverage,
        }
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `x` lies inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo() && x <= self.hi()
    }

    /// Whether this interval is informative (finite half-width).
    pub fn is_finite(&self) -> bool {
        self.half_width.is_finite()
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_finite() {
            write!(f, "{:.2} ± {:.2}", self.mean, self.half_width)
        } else {
            write!(f, "{:.2} ± ∞", self.mean)
        }
    }
}

/// The measured dependability figures of one scenario (one Table 4
/// column).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMeasurement {
    /// Mean time to failure, seconds.
    pub mttf_s: f64,
    /// Mean time to recover, seconds.
    pub mttr_s: f64,
    /// TTF summary (count/std/min/max).
    pub ttf: Summary,
    /// TTR summary.
    pub ttr: Summary,
    /// Steady-state availability `MTTF/(MTTF+MTTR)`.
    pub availability: f64,
    /// Percentage of failures recovered by SIRAs 1–3.
    pub coverage_percent: f64,
    /// Percentage of would-be failures eliminated by masking.
    pub masking_percent: f64,
}

impl ScenarioMeasurement {
    /// Builds a measurement from a TTF/TTR series plus the coverage and
    /// masking tallies.
    ///
    /// `covered` counts failures recovered at severity ≤ 3; `masked`
    /// counts failures prevented outright; `unmasked_total` is the
    /// number of failures that actually manifested.
    pub fn from_series(
        series: &TtfTtrSeries,
        covered: u64,
        masked: u64,
        unmasked_total: u64,
    ) -> Self {
        let ttf = series.ttf_stats().summary();
        let ttr = series.ttr_stats().summary();
        let mttf_s = ttf.mean;
        let mttr_s = ttr.mean;
        let availability = if mttf_s + mttr_s > 0.0 {
            mttf_s / (mttf_s + mttr_s)
        } else {
            1.0
        };
        let would_be = masked + unmasked_total;
        let masking_percent = if would_be > 0 {
            100.0 * masked as f64 / would_be as f64
        } else {
            0.0
        };
        // Coverage over the would-be failure population: masked failures
        // count toward the covered mass (they never reached the user),
        // matching Table 4's "58 % (masking) + 15.61 % (coverage of the
        // remaining failures)" accounting.
        let coverage_percent = if would_be > 0 {
            100.0 * (masked + covered) as f64 / would_be as f64
        } else {
            0.0
        };
        ScenarioMeasurement {
            mttf_s,
            mttr_s,
            ttf,
            ttr,
            availability,
            coverage_percent,
            masking_percent,
        }
    }

    /// 95 % confidence interval on the MTTF, widened for a partially
    /// completed campaign (`seed_coverage` ∈ `[0, 1]`).
    pub fn mttf_ci(&self, seed_coverage: f64) -> ConfidenceInterval {
        ConfidenceInterval::from_summary(&self.ttf, seed_coverage)
    }

    /// 95 % confidence interval on the MTTR, widened likewise.
    pub fn mttr_ci(&self, seed_coverage: f64) -> ConfidenceInterval {
        ConfidenceInterval::from_summary(&self.ttr, seed_coverage)
    }
}

impl fmt::Display for ScenarioMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MTTF {:.2}s MTTR {:.2}s A {:.3} cov {:.1}% mask {:.1}%",
            self.mttf_s,
            self.mttr_s,
            self.availability,
            self.coverage_percent,
            self.masking_percent
        )
    }
}

/// The full Table 4: one measurement per recovery policy, in column
/// order (reboot-only, app-restart+reboot, SIRAs, SIRAs+masking).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DependabilityReport {
    /// The four scenario columns.
    pub scenarios: Vec<(String, ScenarioMeasurement)>,
}

impl DependabilityReport {
    /// Creates a report from labelled measurements.
    pub fn new(scenarios: Vec<(String, ScenarioMeasurement)>) -> Self {
        DependabilityReport { scenarios }
    }

    /// Looks a scenario up by label.
    pub fn scenario(&self, label: &str) -> Option<&ScenarioMeasurement> {
        self.scenarios
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, m)| m)
    }

    /// Availability improvement of `to` relative to `from`, in percent
    /// (the paper's 3.64 % / 36.6 % figures).
    pub fn availability_improvement(&self, from: &str, to: &str) -> Option<f64> {
        let a = self.scenario(from)?.availability;
        let b = self.scenario(to)?.availability;
        Some(100.0 * (b - a) / a)
    }

    /// Reliability (MTTF) improvement of `to` relative to `from` in
    /// percent (the paper's 202 %).
    pub fn mttf_improvement(&self, from: &str, to: &str) -> Option<f64> {
        let a = self.scenario(from)?.mttf_s;
        let b = self.scenario(to)?.mttf_s;
        Some(100.0 * (b - a) / a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btpan_sim::time::SimDuration;

    fn series(ttf_s: &[u64], ttr_s: &[u64]) -> TtfTtrSeries {
        TtfTtrSeries {
            ttf: ttf_s.iter().map(|&s| SimDuration::from_secs(s)).collect(),
            ttr: ttr_s.iter().map(|&s| SimDuration::from_secs(s)).collect(),
        }
    }

    #[test]
    fn availability_formula() {
        let s = series(&[600, 660], &[90, 90]);
        let m = ScenarioMeasurement::from_series(&s, 0, 0, 2);
        assert!((m.mttf_s - 630.0).abs() < 1e-9);
        assert!((m.mttr_s - 90.0).abs() < 1e-9);
        assert!((m.availability - 630.0 / 720.0).abs() < 1e-12);
        assert_eq!(m.masking_percent, 0.0);
    }

    #[test]
    fn coverage_accounting_matches_table4_note() {
        // 58 masked + covered 15.61 % of the remaining == 73.61 total.
        let s = series(&[100; 42], &[10; 42]);
        // 58 masked, 42 manifested, 6.56 of them covered (15.61 % of 42
        // over the 100 would-be failures -> 6.56 covered failures).
        let m = ScenarioMeasurement::from_series(&s, 7, 58, 42);
        assert!((m.masking_percent - 58.0).abs() < 1e-9);
        assert!((m.coverage_percent - 65.0).abs() < 1e-9);
    }

    #[test]
    fn empty_series_is_perfectly_available() {
        let m = ScenarioMeasurement::from_series(&TtfTtrSeries::default(), 0, 0, 0);
        assert_eq!(m.availability, 1.0);
        assert_eq!(m.coverage_percent, 0.0);
    }

    #[test]
    fn improvements() {
        let base = ScenarioMeasurement::from_series(&series(&[630], &[286]), 0, 0, 1);
        let best = ScenarioMeasurement::from_series(&series(&[1905], &[121]), 0, 1, 1);
        let report = DependabilityReport::new(vec![
            ("Only Reboot".into(), base),
            ("SIRAs and masking".into(), best),
        ]);
        let avail = report
            .availability_improvement("Only Reboot", "SIRAs and masking")
            .unwrap();
        // 0.688 -> 0.940: ~36.6 % improvement.
        assert!((avail - 36.6).abs() < 2.0, "avail improvement {avail}");
        let mttf = report
            .mttf_improvement("Only Reboot", "SIRAs and masking")
            .unwrap();
        assert!((mttf - 202.0).abs() < 3.0, "mttf improvement {mttf}");
        assert!(report.scenario("nope").is_none());
    }

    #[test]
    fn ci_widens_with_lost_coverage() {
        let s = series(&[500, 600, 700, 800, 900, 1000], &[60; 6]);
        let m = ScenarioMeasurement::from_series(&s, 0, 0, 6);
        let full = m.mttf_ci(1.0);
        let half = m.mttf_ci(0.5);
        let quarter = m.mttf_ci(0.25);
        assert!((full.mean - 750.0).abs() < 1e-9);
        assert!(full.is_finite());
        assert!(full.contains(750.0));
        // 1/sqrt(coverage) widening: ×√2 at 50 %, ×2 at 25 %.
        assert!((half.half_width / full.half_width - 2f64.sqrt()).abs() < 1e-9);
        assert!((quarter.half_width / full.half_width - 2.0).abs() < 1e-9);
        assert!(half.lo() < full.lo() && half.hi() > full.hi());
    }

    #[test]
    fn ci_degenerate_cases() {
        let s = series(&[500], &[60]);
        let m = ScenarioMeasurement::from_series(&s, 0, 0, 1);
        // One observation: no spread estimate, infinite interval.
        assert!(!m.mttf_ci(1.0).is_finite());
        // Zero coverage: no completed seeds, infinite interval.
        let s2 = series(&[500, 700], &[60, 60]);
        let m2 = ScenarioMeasurement::from_series(&s2, 0, 0, 2);
        assert!(!m2.mttf_ci(0.0).is_finite());
        assert!(m2.mttf_ci(1.0).is_finite());
        assert!(m2.mttf_ci(0.0).to_string().contains('∞'));
        assert!(m2.mttf_ci(1.0).to_string().contains('±'));
    }

    #[test]
    fn display_compact() {
        let m = ScenarioMeasurement::from_series(&series(&[100], &[10]), 1, 0, 1);
        let s = m.to_string();
        assert!(s.contains("MTTF 100.00s"));
        assert!(s.contains("cov 100.0%"));
    }
}
