//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile within each run of `window` consecutive samples (a
/// shorter remainder joins the last window), median over the windows: a
/// slow spell of the host then spoils one window, not the statistic.
pub fn windowed_quantile(values: &[f64], window: usize, q: f64) -> f64 {
    let windows = (values.len() / window.max(1)).max(1);
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                values.len()
            } else {
                (w + 1) * window
            };
            quantile(&values[w * window..end], q)
        })
        .collect();
    median(&per_window)
}
