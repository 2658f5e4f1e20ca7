//! Order statistics for repeated timings.  A timing is reported as its
//! median with the quartiles and the sample count beside it; the quartiles
//! follow Python's `statistics.quantiles(values, n=4)` (exclusive method)
//! so the spreads printed here are the ones the acceptance driver computes.

/// Median of `values` (mean of the two middle values on an even count).
/// Panics on an empty slice: every caller measured at least once.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile, exclusive method.  With fewer than two values
/// both quartiles are the single value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return (data[0], data[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile (`p` in `0..=100`) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A repeated timing: median, quartiles and how many samples stand behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "a statistic needs at least one sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&hundred, 0.0), 1.0);
        // 1,000 samples leave ten beyond the 99th percentile.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), 990.0);
        assert_eq!(percentile(&[2.0, 9.0], 99.0), 9.0);
    }

    #[test]
    fn summary_reports_the_sample_count() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 1.5, 4.5, 5));
    }
}
