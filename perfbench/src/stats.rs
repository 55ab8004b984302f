//! Order statistics over measured values.

/// The tail percentile every workload reports as `op_tail_ms`. On
/// `served-mix` (hundreds of open-loop requests) at least ten samples
/// lie beyond it; the one-shot workloads complete fewer than twenty
/// calls per run, where it is their slowest or second-slowest call.
pub const TAIL: f64 = 0.90;

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in (0, 1].
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median, or 0 when nothing was measured.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}
