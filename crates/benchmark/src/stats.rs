//! Order statistics shared by the runner, `compare` and `calibrate`.

/// The `q`-quantile (`0..=1`) of `values` by linear interpolation between
/// closest ranks; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// The `q`-quantile of whole-nanosecond samples, each value taken as the
/// unit interval around it (the grouped-data estimate). Large samples of
/// integers otherwise land on the same integer run after run.
pub fn quantile_ns(values: &[u32], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    let Some(last) = v.len().checked_sub(1) else {
        return f64::NAN;
    };
    let rank = q.clamp(0.0, 1.0) * v.len() as f64;
    let at = v[(rank.ceil() as usize).saturating_sub(1).min(last)];
    let below = v.partition_point(|&x| x < at);
    let equal = v.partition_point(|&x| x <= at) - below;
    f64::from(at) - 0.5 + (rank - below as f64) / equal as f64
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them; needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let (a, b) = (v[(j - 1) as usize], v[j as usize]);
        *slot = (a * (4.0 - delta) + b * delta) / 4.0;
    }
    (out[0], out[1], out[2])
}

/// Run-to-run spread: the interquartile range as a share of the median
/// (range over median below four values).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let med = median(values);
    let width = if values.len() < 4 {
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        max - min
    } else {
        let (q1, _, q3) = quartiles(values);
        q3 - q1
    };
    if med == 0.0 {
        if width == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (width / med).abs()
    }
}

/// Samples a percentile needs so that at least ten lie beyond it.
pub fn samples_needed(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
        // Ties spread over the value's unit interval: three 10s and one 20.
        assert_eq!(quantile_ns(&[10, 10, 20, 10], 0.5), 10.0 - 0.5 + 2.0 / 3.0);
        assert!((quantile_ns(&[7], 0.99) - 7.49).abs() < 1e-9);
        assert!(quantile_ns(&[], 0.5).is_nan());
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.99), 1000);
    }
}
