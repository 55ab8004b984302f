//! Time-series storage and windowed statistics.

/// One timestamped measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulated time, seconds.
    pub t_s: f64,
    pub value: f64,
}

/// An append-only time series ordered by time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    samples: Vec<Sample>,
}

impl TimeSeries {
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// Appends a sample; time must be non-decreasing.
    pub fn push(&mut self, t_s: f64, value: f64) {
        if let Some(last) = self.samples.last() {
            assert!(
                t_s >= last.t_s,
                "samples must be pushed in time order ({t_s} < {})",
                last.t_s
            );
        }
        self.samples.push(Sample { t_s, value });
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    pub fn first_t(&self) -> Option<f64> {
        self.samples.first().map(|s| s.t_s)
    }

    /// Samples within `[t0, t1]` inclusive.
    pub fn window(&self, t0: f64, t1: f64) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(move |s| s.t_s >= t0 && s.t_s <= t1)
    }

    /// Arithmetic mean of values in `[t0, t1]`, or `None` if empty.
    pub fn mean_between(&self, t0: f64, t1: f64) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0u64;
        for s in self.window(t0, t1) {
            sum += s.value;
            n += 1;
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Minimum and maximum values in `[t0, t1]`.
    pub fn min_max_between(&self, t0: f64, t1: f64) -> Option<(f64, f64)> {
        let mut it = self.window(t0, t1);
        let first = it.next()?;
        let mut min = first.value;
        let mut max = first.value;
        for s in it {
            min = min.min(s.value);
            max = max.max(s.value);
        }
        Some((min, max))
    }

    /// Standard deviation (population) in `[t0, t1]`.
    pub fn stddev_between(&self, t0: f64, t1: f64) -> Option<f64> {
        let mean = self.mean_between(t0, t1)?;
        let mut sq = 0.0;
        let mut n = 0u64;
        for s in self.window(t0, t1) {
            let d = s.value - mean;
            sq += d * d;
            n += 1;
        }
        Some((sq / n as f64).sqrt())
    }

    /// Downsamples by averaging consecutive windows of `window_s` seconds
    /// (the Fig. 1 "mean of 60 s" aggregation).
    pub fn aggregate_mean(&self, window_s: f64) -> TimeSeries {
        assert!(window_s > 0.0);
        let mut out = TimeSeries::new();
        let Some(start) = self.first_t() else {
            return out;
        };
        let mut w_start = start;
        let mut sum = 0.0;
        let mut n = 0u64;
        for s in &self.samples {
            while s.t_s >= w_start + window_s {
                if n > 0 {
                    out.push(w_start + window_s / 2.0, sum / n as f64);
                }
                sum = 0.0;
                n = 0;
                w_start += window_s;
            }
            sum += s.value;
            n += 1;
        }
        if n > 0 {
            out.push(w_start + window_s / 2.0, sum / n as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> TimeSeries {
        let mut ts = TimeSeries::new();
        for i in 0..10 {
            ts.push(i as f64, i as f64 * 10.0);
        }
        ts
    }

    #[test]
    fn push_and_window() {
        let ts = ramp();
        assert_eq!(ts.len(), 10);
        assert_eq!(ts.window(2.0, 4.0).count(), 3);
        assert_eq!(ts.first_t(), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::new();
        ts.push(1.0, 0.0);
        ts.push(0.5, 0.0);
    }

    #[test]
    fn windowed_statistics() {
        let ts = ramp();
        // values 20,30,40 in [2,4]
        assert_eq!(ts.mean_between(2.0, 4.0), Some(30.0));
        assert_eq!(ts.min_max_between(2.0, 4.0), Some((20.0, 40.0)));
        let sd = ts.stddev_between(2.0, 4.0).unwrap();
        assert!((sd - (200.0f64 / 3.0).sqrt()).abs() < 1e-9);
        assert_eq!(ts.mean_between(100.0, 200.0), None);
    }

    #[test]
    fn aggregate_mean_downsamples() {
        // 1 Sa/s for 180 s aggregated to 60 s means ⇒ 3 samples.
        let mut ts = TimeSeries::new();
        for i in 0..180 {
            ts.push(i as f64, if i < 60 { 100.0 } else { 200.0 });
        }
        let agg = ts.aggregate_mean(60.0);
        assert_eq!(agg.len(), 3);
        assert!((agg.samples()[0].value - 100.0).abs() < 1e-9);
        assert!((agg.samples()[1].value - 200.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_handles_gaps() {
        let mut ts = TimeSeries::new();
        ts.push(0.0, 1.0);
        ts.push(500.0, 3.0); // long gap
        let agg = ts.aggregate_mean(60.0);
        assert_eq!(agg.len(), 2);
    }

    #[test]
    fn empty_series_edge_cases() {
        let ts = TimeSeries::new();
        assert!(ts.is_empty());
        assert!(ts.aggregate_mean(1.0).is_empty());
        assert_eq!(ts.mean_between(0.0, 1.0), None);
        assert_eq!(ts.min_max_between(0.0, 1.0), None);
    }
}
