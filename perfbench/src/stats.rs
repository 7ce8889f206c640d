//! Summary statistics with the benchmark's reporting rule: a tail
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p99 never rests on a handful of readings.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorted copy of `samples` (NaNs are a bug in the caller).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    v
}

/// The central value of a set of per-iteration readings (always
/// reported, with its sample count beside it).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank `q`-quantile (`0 < q < 1`), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond the chosen rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(
        q > 0.0 && q < 1.0,
        "quantile must lie strictly inside (0, 1)"
    );
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // 1-based nearest rank: the smallest rank covering a q share.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fewest samples that support a `q`-quantile under the reporting rule.
    fn samples_needed(q: f64) -> usize {
        (MIN_BEYOND..)
            .find(|&n| percentile(&vec![0.0; n], q).is_some())
            .expect("some sample count supports every quantile")
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn no_percentile_with_fewer_than_ten_samples_beyond_it() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // One sample fewer leaves only nine beyond rank 990.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(samples_needed(0.99), 1000);
        // The median needs ten beyond it too: 20 samples.
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        // Every reported percentile leaves at least MIN_BEYOND above it.
        for n in 1..300usize {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for q in [0.5, 0.9, 0.95, 0.99] {
                if let Some(p) = percentile(&v, q) {
                    let beyond = v.iter().filter(|&&x| x > p).count();
                    assert!(beyond >= MIN_BEYOND, "n={n} q={q} beyond={beyond}");
                }
            }
        }
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        let a = percentile(&v, 0.9);
        v.reverse();
        assert_eq!(a, percentile(&v, 0.9));
        assert_eq!(a, Some(179.0));
    }
}
