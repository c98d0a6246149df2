//! Order statistics for timing samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count. `NaN`
/// for an empty slice, which the JSON writer turns into `null`.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(percentile, value)`. A tail read off fewer samples is one
/// outlier's position, not a percentile. `None` below eleven samples.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    let k = n.checked_sub(11)?;
    Some((100.0 * (k + 1) as f64 / n as f64, v[k]))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the driver's rule), so a spread computed here matches the one the
/// benchmark is accepted on. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut q = [0.0; 3];
    for (i, slot) in q.iter_mut().enumerate() {
        let rank = (i + 1) * (m + 1);
        let j = (rank / 4).clamp(1, m - 1);
        let delta = rank as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(q)
}

/// The quartile on the good side of the samples: the first where lower
/// is better, the third where higher is. On a shared machine
/// interference only ever adds time, so this tracks the program where
/// the median tracks the neighbours. The median below two samples.
pub fn favourable_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) => {
            // The exclusive method extrapolates for tiny samples; stay
            // within what was measured.
            let v = sorted(values);
            if lower_is_better {
                q1.max(v[0])
            } else {
                q3.min(v[v.len() - 1])
            }
        }
        None => median(values),
    }
}

/// Distance between the first and third quartile as a share of the
/// median; 0 when there are too few values to have quartiles.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) => (q3 - q1) / median(values).abs(),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((100.0 / 11.0, 1.0)));
        // 20 samples: ten lie beyond the 10th, so p50 is the highest.
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((50.0, 10.0)));
        // 100 samples: p90, and exactly ten values exceed it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, x) = tail_percentile(&v).unwrap();
        assert_eq!((p, x), (90.0, 90.0));
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
    }

    #[test]
    fn favourable_quartile_takes_the_good_side_and_stays_in_range() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(favourable_quartile(&v, true), 2.75);
        assert_eq!(favourable_quartile(&v, false), 8.25);
        // Two samples: the exclusive method would give 0.75 and 2.25.
        assert_eq!(favourable_quartile(&[2.0, 1.0], true), 1.0);
        assert_eq!(favourable_quartile(&[2.0, 1.0], false), 2.0);
        assert_eq!(favourable_quartile(&[7.0], true), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), 1.0);
        assert_eq!(spread(&[7.0]), 0.0);
    }
}
