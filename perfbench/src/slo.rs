//! The fixed rate ladder and the latency-limit test behind
//! `slo_rate_ops_s`.
//!
//! Rates come from one ladder, `LADDER_BASE · LADDER_STEP^k`, so two
//! runs (or two commits) can only ever report the same set of values;
//! adjacent rungs are 2% apart. A rate *meets the limit* when the p99
//! latency of the requests offered at that rate is at most the limit and
//! the backlog does not grow: the median latency of the last tenth of
//! the requests is also within the limit (a backlog that grows shows
//! first at the end of a probe).

use rand::Rng;
use sws_workloads::rng::{derive_seed, seeded_rng};

use crate::stats;

pub const LADDER_BASE: f64 = 10.0;
pub const LADDER_STEP: f64 = 1.02;

pub fn rung(k: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(k as i32)
}

/// The highest rung at or below `rate` (0 when `rate` is below the
/// ladder).
pub fn rung_below(rate: f64) -> usize {
    if rate <= LADDER_BASE {
        return 0;
    }
    let mut k = ((rate / LADDER_BASE).ln() / LADDER_STEP.ln()).floor() as usize;
    while rung(k + 1) <= rate {
        k += 1;
    }
    while k > 0 && rung(k) > rate {
        k -= 1;
    }
    k
}

/// `latencies` in the order the requests were offered; an `INFINITY`
/// entry is a request that failed (it misses any limit).
pub fn meets(latencies: &[f64], limit: f64) -> bool {
    if latencies.is_empty() {
        return false;
    }
    let tail = &latencies[latencies.len() - latencies.len().div_ceil(10)..];
    stats::quantile(latencies, 0.99) <= limit && stats::median(tail) <= limit
}

/// The highest rung `k < cap` with `pass(k)`, by bisection from `lo`
/// (widened downward while `lo` fails). Rungs from `cap` up are taken
/// to fail and never tried. `pass` must be monotone: once a rung fails,
/// every higher rung fails. `None` when even rung 0 fails.
pub fn highest_passing(
    mut lo: usize,
    cap: usize,
    mut pass: impl FnMut(usize) -> bool,
) -> Option<usize> {
    let mut hi = cap.max(lo + 1);
    while !pass(lo) {
        if lo == 0 {
            return None;
        }
        let width = hi - lo;
        hi = lo;
        lo = lo.saturating_sub(width);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pass(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Unit-mean exponential gaps, seeded: scaled by `1/rate` they are a
/// Poisson arrival process at `rate`.
pub fn unit_gaps(seed: u64, stream: u64, count: usize) -> Vec<f64> {
    let mut rng = seeded_rng(derive_seed(seed, stream));
    (0..count)
        .map(|_| -(1.0 - rng.gen_range(0.0..1.0f64)).ln())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rungs_are_two_percent_apart_and_invertible() {
        for k in [0usize, 1, 50, 300] {
            assert_eq!(rung_below(rung(k)), k);
            assert!((rung(k + 1) / rung(k) - LADDER_STEP).abs() < 1e-12);
        }
    }

    #[test]
    fn search_finds_the_highest_passing_rung_below_the_cap() {
        for lo in [0, 100, 137, 140, 299] {
            assert_eq!(highest_passing(lo, 300, |k| k <= 137), Some(137));
        }
        assert_eq!(highest_passing(100, 120, |k| k <= 137), Some(119));
        assert_eq!(highest_passing(3, 9, |_| false), None);
    }
}
