//! Sample statistics: quantiles by linear interpolation between order
//! statistics (the "linear" method of numpy and Python's `statistics`).

/// The `q`-quantile of `values` (`NaN` when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Splits `values` (in the order they were measured) into `k`
/// consecutive segments of equal size, applies `f` to each, and returns
/// the median: a host stall then moves one segment, not the figure.
pub fn segment_median(values: &[f64], k: usize, f: impl Fn(&[f64]) -> f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let per_segment: Vec<f64> = values
        .chunks(values.len().div_ceil(k.max(1)))
        .map(f)
        .collect();
    median(&per_segment)
}

/// Operations per second of a sequence of operation times in µs.
pub fn rate_per_s(times_us: &[f64]) -> f64 {
    times_us.len() as f64 / (times_us.iter().sum::<f64>() / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(segment_median(&v, 4, |s| s[0]), 37.5);
    }
}
