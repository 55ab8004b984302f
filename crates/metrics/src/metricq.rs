//! Buffered out-of-band metric source (the MetricQ path of Fig. 10).
//!
//! In the paper's setup, the LMG95 power meter samples at 20 Sa/s and
//! streams into MetricQ, "where they are buffered. After a workload
//! candidate finished execution, the values are retrieved and processed by
//! FIRESTARTER". The essential property — samples accumulate while the
//! workload runs and are drained afterwards — is reproduced with an
//! unbounded in-process queue between the measurement side (sink) and
//! the consumer (source/metric).
//!
//! The buffer is a mutex-guarded `Vec` that the source owns and the
//! sink reaches through a weak handle.

use crate::metric::Metric;
use crate::series::{Sample, TimeSeries};
use std::sync::{Arc, Mutex, Weak};

/// The shared sink/source buffer.
type Buffer = Arc<Mutex<Vec<Sample>>>;

fn lock(buffer: &Mutex<Vec<Sample>>) -> std::sync::MutexGuard<'_, Vec<Sample>> {
    buffer.lock().expect("metricq buffer poisoned")
}

/// A send failed because the source was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// No consumer: the [`MetricQSource`] is gone.
    Disconnected,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Disconnected => f.write_str("metricq source dropped"),
        }
    }
}

impl std::error::Error for SendError {}

/// The producing half: lives with the power meter / measurement server.
/// Holds only a weak handle so a dropped [`MetricQSource`] stops the
/// buffer from growing (the channel-disconnect semantics of the real
/// MetricQ path: samples with no consumer are discarded).
#[derive(Debug, Clone)]
pub struct MetricQSink {
    tx: Weak<Mutex<Vec<Sample>>>,
    rate_hz: f64,
}

impl MetricQSink {
    /// Sends one sample into the buffer, best-effort: dropped if the
    /// source is gone (the real meter keeps sampling whether anyone
    /// listens or not). Use [`MetricQSink::try_send`] to observe that.
    pub fn send(&self, t_s: f64, value: f64) {
        let _ = self.try_send(t_s, value);
    }

    /// Sends one sample, reporting when no source is left to buffer it.
    pub fn try_send(&self, t_s: f64, value: f64) -> Result<(), SendError> {
        let buffer = self.tx.upgrade().ok_or(SendError::Disconnected)?;
        lock(&buffer).push(Sample { t_s, value });
        Ok(())
    }

    /// Samples a continuous window `[t0, t1)` at the configured rate,
    /// evaluating `f(t)` at each sampling point — the 20 Sa/s LMG95
    /// behaviour.
    pub fn sample_window(&self, t0: f64, t1: f64, mut f: impl FnMut(f64) -> f64) {
        let dt = 1.0 / self.rate_hz;
        let mut t = t0;
        while t < t1 {
            self.send(t, f(t));
            t += dt;
        }
    }

    pub fn rate_hz(&self) -> f64 {
        self.rate_hz
    }
}

/// The consuming half: a [`Metric`] whose series fills when drained.
pub struct MetricQSource {
    name: String,
    rx: Buffer,
    series: TimeSeries,
}

/// Creates a connected sink/source pair.
///
/// `rate_hz` is the meter sampling rate (the paper uses 20 Sa/s).
pub fn channel(name: impl Into<String>, rate_hz: f64) -> (MetricQSink, MetricQSource) {
    assert!(rate_hz > 0.0);
    let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
    (
        MetricQSink {
            tx: Arc::downgrade(&buffer),
            rate_hz,
        },
        MetricQSource {
            name: name.into(),
            rx: buffer,
            series: TimeSeries::new(),
        },
    )
}

impl MetricQSource {
    /// Drains all buffered samples into the local series (called after a
    /// workload candidate finishes). Returns the number of new samples.
    pub fn drain(&mut self) -> usize {
        let drained = std::mem::take(&mut *lock(&self.rx));
        let n = drained.len();
        for s in drained {
            self.series.push(s.t_s, s.value);
        }
        n
    }

    /// Buffered samples not yet drained.
    pub fn pending(&self) -> usize {
        lock(&self.rx).len()
    }
}

impl Metric for MetricQSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn unit(&self) -> &str {
        "W"
    }

    fn record(&mut self, _t_s: f64, _value: f64) {
        // Out-of-band source: data arrives through the channel, the
        // runner's tick is just an opportunity to drain.
        self.drain();
    }

    fn series(&self) -> &TimeSeries {
        &self.series
    }

    fn reset(&mut self) {
        // Discard anything buffered from a previous candidate, then clear.
        let _ = self.drain();
        self.series.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Summary;

    #[test]
    fn buffered_then_drained() {
        let (sink, mut source) = channel("metricq", 20.0);
        sink.send(0.0, 300.0);
        sink.send(0.05, 301.0);
        assert_eq!(source.pending(), 2);
        assert!(source.series().is_empty());
        assert_eq!(source.drain(), 2);
        assert_eq!(source.series().len(), 2);
        assert_eq!(source.pending(), 0);
    }

    #[test]
    fn window_sampling_at_rate() {
        let (sink, mut source) = channel("metricq", 20.0);
        // 10 s at 20 Sa/s = 200 samples.
        sink.sample_window(0.0, 10.0, |_t| 400.0);
        assert_eq!(source.drain(), 200);
        let s = Summary::windowed(source.series(), 0.0, 10.0, 1.0, 1.0).unwrap();
        assert!((s.mean - 400.0).abs() < 1e-9);
    }

    #[test]
    fn reset_discards_pending_and_series() {
        let (sink, mut source) = channel("metricq", 20.0);
        sink.send(0.0, 1.0);
        source.drain();
        sink.send(1.0, 2.0); // pending from a stale candidate
        source.reset();
        assert!(source.series().is_empty());
        assert_eq!(source.pending(), 0);
    }

    #[test]
    fn dropped_source_discards_samples() {
        let (sink, source) = channel("metricq", 20.0);
        sink.send(0.0, 1.0);
        drop(source);
        // No consumer left: sends are dropped instead of accumulating.
        sink.send(1.0, 2.0);
        sink.sample_window(0.0, 10.0, |_| 3.0);
        assert!(sink.tx.upgrade().is_none());
        assert_eq!(sink.try_send(2.0, 4.0), Err(SendError::Disconnected));
    }

    #[test]
    fn works_across_threads() {
        let (sink, mut source) = channel("metricq", 20.0);
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                sink.send(i as f64 * 0.05, 350.0 + i as f64);
            }
        });
        handle.join().unwrap();
        assert_eq!(source.drain(), 100);
        assert_eq!(source.series().len(), 100);
    }

    #[test]
    fn one_sink_many_drains_interleavings_preserve_order_and_counts() {
        // The drain/pending contract under interleaved sends and
        // drains: no sample is lost or duplicated, and the series stays
        // in send order.
        let (sink, mut source) = channel("metricq", 20.0);
        let mut sent = 0u32;
        let send_n = |sink: &MetricQSink, sent: &mut u32, n: u32| {
            for _ in 0..n {
                sink.send(f64::from(*sent), f64::from(*sent));
                *sent += 1;
            }
        };
        send_n(&sink, &mut sent, 3);
        assert_eq!(source.drain(), 3);
        send_n(&sink, &mut sent, 6);
        assert_eq!(source.pending(), 6);
        assert_eq!(source.drain(), 6);
        send_n(&sink, &mut sent, 1);
        assert_eq!(source.drain(), 1);
        assert_eq!(source.drain(), 0, "drained queue must report zero");
        assert_eq!(source.pending(), 0);
        // Every sent sample landed exactly once, in order.
        assert_eq!(source.series().len(), sent as usize);
        for (i, s) in source.series().samples().iter().enumerate() {
            assert_eq!(s.value, i as f64, "out-of-order sample at {i}");
        }
    }
}
