//! The estimators every reported number goes through.
//!
//! All of them are order statistics: the machine this benchmark runs on
//! drifts between speed regimes that last seconds, so a mean over a run is
//! a blend of regimes, and a minimum or lower quartile reports whichever
//! regime happened to be fastest. The median over a few hundred passes
//! reports the regime the run spent most of its time in, which repeats.

/// Sort a copy ascending (NaN-free inputs only).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// The median; the mean of the two middle values for an even count, 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest value with at least `p` of the
/// sample at or below it (`p` in 0..=1). With 200 samples, `p = 0.95` is
/// the 190th smallest, which leaves 10 samples beyond it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median absolute deviation from the median.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default *exclusive* method) gives
/// them — the rule the acceptance check for this benchmark is stated in.
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_frac(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Least-squares slope of `ln y` on `ln x` — the scaling exponent of a
/// cost curve. 0 with fewer than two distinct points.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if sxx == 0.0 {
        return 0.0;
    }
    pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>() / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), 190.0, "10 samples beyond p95");
        assert_eq!(percentile(&xs, 0.50), 100.0);
        assert_eq!(percentile(&xs, 1.0), 200.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // 10 values: p95 → rank ceil(9.5) = 10
        let ys = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 10.0, 6.0];
        assert_eq!(percentile(&ys, 0.95), 10.0);
        assert_eq!(percentile(&ys, 0.5), 5.0);
    }

    #[test]
    fn mad_by_hand() {
        // median 3; deviations 2 1 0 1 6 → sorted 0 1 1 2 6 → 1
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 9.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((iqr_frac(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn loglog_slope_recovers_a_power_law() {
        let pts: Vec<(f64, f64)> = [1.0f64, 2.0, 4.0, 8.0]
            .iter()
            .map(|&x| (x, 3.0 * x.powf(1.5)))
            .collect();
        assert!((loglog_slope(&pts) - 1.5).abs() < 1e-9);
        assert_eq!(loglog_slope(&[(1.0, 1.0)]), 0.0);
    }
}
