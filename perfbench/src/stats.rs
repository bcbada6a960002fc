//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! ratios with an explicit base, and span self time.

/// Percentiles the tail metric may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported as
/// the tail: fewer would make the tail one or two unlucky sessions.
const TAIL_MIN_BEYOND: usize = 10;

/// Median of a sample (the mean of the middle two for an even count);
/// `0.0` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank position (1-based) of the `p`-th percentile in a sample of
/// `n`.
fn nearest_rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile picked by [`tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (100 when no ladder rung qualified).
    pub percentile: f64,
    /// The sample at that percentile, by nearest rank.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. A sample too small for any rung
/// reports its maximum as percentile 100 with nothing beyond, so the
/// shortfall shows instead of being hidden. `None` for an empty sample.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let last = *v.last()?;
    for p in TAIL_LADDER {
        let rank = nearest_rank(n, p);
        if n - rank >= TAIL_MIN_BEYOND {
            return Some(Tail { percentile: p, value: v[rank - 1], beyond: n - rank });
        }
    }
    Some(Tail { percentile: 100.0, value: last, beyond: 0 })
}

/// `num / base`, or `None` when the base is zero (the ratio is undefined,
/// not zero; callers print the base beside it).
pub fn ratio(num: f64, base: f64) -> Option<f64> {
    (base != 0.0).then(|| num / base)
}

/// Self time of a span over `[start, end)`: its duration minus the part of
/// that interval covered by at least one child. Children may overlap each
/// other (work running in parallel) and are clipped to the parent.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 and p95 leave 1 and 5 beyond; p90 is the first with 10.
        assert_eq!(tail(&xs), Some(Tail { percentile: 90.0, value: 90.0, beyond: 10 }));
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 is rank 90 with 9 beyond, so the rule falls to p75.
        assert_eq!(tail(&xs), Some(Tail { percentile: 75.0, value: 75.0, beyond: 24 }));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some(Tail { percentile: 99.0, value: 990.0, beyond: 10 }));
    }

    #[test]
    fn tail_of_a_small_sample_reports_its_maximum() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(tail(&xs), Some(Tail { percentile: 100.0, value: 5.0, beyond: 0 }));
        assert_eq!(tail(&[]), None);
        // Twenty samples: the median is the only rung with ten beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.percentile), Some(50.0));
    }

    #[test]
    fn ratio_with_zero_base_is_undefined() {
        assert_eq!(ratio(3.0, 4.0), Some(0.75));
        assert_eq!(ratio(0.0, 4.0), Some(0.0));
        assert_eq!(ratio(5.0, 0.0), None);
        assert_eq!(ratio(0.0, 0.0), None);
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time((10, 50), &[]), 40);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two parallel children covering [10, 60) together.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Order does not matter.
        assert_eq!(self_time((0, 100), &[(30, 60), (10, 40)]), 50);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 30)]), 3);
        assert_eq!(self_time((10, 20), &[(0, 5), (25, 30)]), 10);
        assert_eq!(self_time((10, 20), &[(0, 30)]), 0);
    }
}
