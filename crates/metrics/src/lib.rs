//! # fs2-metrics — metric framework
//!
//! FIRESTARTER 2's optimization loop consumes *metrics*: time series of
//! measurements summarized over a window that excludes warm-up and
//! tear-down transients (`--start-delta`/`--stop-delta`). The paper ships
//! three built-ins — RAPL power, perf IPC, and an IPC estimate — plus a
//! plugin interface for external meters (their case study feeds a ZES
//! LMG95 through MetricQ).
//!
//! This crate reproduces that stack on simulated time:
//!
//! * [`series`] — fixed- or variable-rate time series with windowed
//!   statistics.
//! * [`metric`] — the [`metric::Metric`] trait, summaries, and the metric
//!   registry (`--list-metrics` equivalent).
//! * [`builtin`] — the three built-in metric implementations, fed by the
//!   runner from `fs2-power`/`fs2-sim` state.
//! * [`metricq`] — the buffered out-of-band source of Fig. 10: samples
//!   flow through a channel and are retrieved *after* a workload candidate
//!   finishes, exactly like the remote MetricQ setup.
//! * [`csv`] — comma-separated output (`--measurement` reporting) and
//!   ingestion ([`CsvReader`], used by trace calibration).

pub mod builtin;
pub mod csv;
pub mod metric;
pub mod metricq;
pub mod series;

pub use builtin::{IpcEstimateMetric, PerfIpcMetric, RaplPowerMetric};
pub use csv::{CsvError, CsvReader, CsvWriter};
pub use metric::{ExternalMetric, Metric, MetricRegistry, Summary};
pub use metricq::{channel, MetricQSink, MetricQSource};
pub use series::{Sample, TimeSeries};
