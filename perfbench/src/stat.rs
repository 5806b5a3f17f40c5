//! Order statistics and the cost-model fit.

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it: the eleventh-largest sample, or the largest when there are no
/// more than eleven. Returns `(value, percentile)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 11 {
        return (v.last().copied().unwrap_or(0.0), 100.0);
    }
    let idx = n - 11;
    (v[idx], 100.0 * idx as f64 / (n - 1) as f64)
}

/// Least-squares fit of `t ≈ c1·probes + c2·evictions` with no
/// intercept and non-negative coefficients. Returns `(c1, c2)`.
pub fn fit_costs(samples: &[(f64, f64, f64)]) -> (f64, f64) {
    let (mut pp, mut pe, mut ee, mut tp, mut te) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(t, p, e) in samples {
        pp += p * p;
        pe += p * e;
        ee += e * e;
        tp += t * p;
        te += t * e;
    }
    let only_c1 = || (if pp > 0.0 { tp / pp } else { 0.0 }, 0.0);
    let only_c2 = || (0.0, if ee > 0.0 { te / ee } else { 0.0 });
    let det = pp * ee - pe * pe;
    if det <= f64::EPSILON * pp * ee {
        return only_c1();
    }
    let c1 = (tp * ee - te * pe) / det;
    let c2 = (te * pp - tp * pe) / det;
    match (c1 >= 0.0, c2 >= 0.0) {
        (true, true) => (c1, c2),
        (true, false) => only_c1(),
        (false, _) => only_c2(),
    }
}
