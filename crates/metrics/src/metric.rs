//! Windowed summaries of a measurement run.

use crate::series::TimeSeries;

/// Windowed statistics of a metric over a measurement run.
///
/// Mirrors the paper's reporting: "values are averaged over the whole
/// runtime, excluding an arbitrary time during the start and end of the
/// measurement run, with a default of 5 s and 2 s".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub stddev: f64,
    pub samples: usize,
    /// Effective window after delta exclusion, seconds.
    pub window_s: f64,
}

impl Summary {
    /// Summarizes `series` between `t_start`/`t_stop` after shaving
    /// `start_delta_s` off the front and `stop_delta_s` off the back.
    pub fn windowed(
        series: &TimeSeries,
        t_start: f64,
        t_stop: f64,
        start_delta_s: f64,
        stop_delta_s: f64,
    ) -> Option<Summary> {
        let t0 = t_start + start_delta_s;
        let t1 = t_stop - stop_delta_s;
        if t1 <= t0 {
            return None;
        }
        let mean = series.mean_between(t0, t1)?;
        let (min, max) = series.min_max_between(t0, t1)?;
        let stddev = series.stddev_between(t0, t1)?;
        let samples = series.window(t0, t1).count();
        Some(Summary {
            mean,
            min,
            max,
            stddev,
            samples,
            window_s: t1 - t0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_excludes_deltas() {
        let mut ts = TimeSeries::new();
        // Warm-up transient at 10 W, steady state at 100 W, tail at 5 W.
        for i in 0..10 {
            ts.push(i as f64, 10.0);
        }
        for i in 10..110 {
            ts.push(i as f64, 100.0);
        }
        for i in 110..112 {
            ts.push(i as f64, 5.0);
        }
        let s = Summary::windowed(&ts, 0.0, 112.0, 10.0, 2.5).unwrap();
        assert!((s.mean - 100.0).abs() < 1e-9, "mean = {}", s.mean);
        assert_eq!(s.min, 100.0);
        assert_eq!(s.max, 100.0);
        assert!((s.window_s - 99.5).abs() < 1e-9);
    }

    #[test]
    fn summary_none_when_window_collapses() {
        let mut ts = TimeSeries::new();
        ts.push(0.0, 1.0);
        assert!(Summary::windowed(&ts, 0.0, 10.0, 6.0, 6.0).is_none());
    }
}
