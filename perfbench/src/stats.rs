//! Order statistics over timed samples.

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The highest nearest-rank percentile with at least ten samples beyond
/// it: the eleventh-largest sample. Returns `(value, percentile, n)`;
/// with ten samples or fewer there is no such percentile and the maximum
/// is returned at percentile 100.
pub fn tail(samples: &[f64]) -> (f64, f64, usize) {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    if n <= 10 {
        return (s[n - 1], 100.0, n);
    }
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!((value, pct, n), (90.0, 90.0, 100));
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(tail(&[5.0, 1.0]), (5.0, 100.0, 2));
    }
}
