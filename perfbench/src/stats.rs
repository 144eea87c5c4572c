//! Order statistics for the benchmark's reports.
//!
//! Timings are reported as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it (so a "p99" is
//! never read off a handful of samples); [`tail_percentile`] applies
//! that rule to a sample count.

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail rule chooses from, highest first.
pub const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Linear-interpolated percentile `p` (0..=100) of `samples`; NaN when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest [`LADDER`] percentile with at least [`MIN_BEYOND`] of `n`
/// samples strictly beyond it, or `None` when even the median lacks them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND as f64 - 1e-9)
}

/// `percentile(samples, p)` when the tail rule allows `p` for this many
/// samples; otherwise the value at the rule's highest allowed percentile,
/// which is what a short run can honestly report. Returns the value and
/// the percentile actually used.
pub fn tail(samples: &[f64], p: f64) -> (f64, f64) {
    let allowed = tail_percentile(samples.len()).unwrap_or(50.0);
    let used = p.min(allowed);
    (percentile(samples, used), used)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 needs 1000 samples (10 beyond), p99.9 needs 10000.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn tail_falls_back_to_the_allowed_percentile() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (v, used) = tail(&xs, 99.0);
        assert_eq!(used, 95.0);
        assert!((v - percentile(&xs, 95.0)).abs() < 1e-12);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many, 99.0).1, 99.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!(median(&[]).is_nan());
    }
}
