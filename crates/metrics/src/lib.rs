//! # fs2-metrics — time series, windowed summaries and CSV
//!
//! FIRESTARTER 2 reports measurements averaged over a window that
//! excludes warm-up and tear-down transients (`--start-delta`/
//! `--stop-delta`) and prints them as CSV. This crate holds those
//! pieces on simulated time:
//!
//! * [`series`] — fixed- or variable-rate time series with windowed
//!   statistics. The runner records its node power trace in one.
//! * [`metric`] — [`Summary`], the windowed statistics of a series; the
//!   runner's reported power is `Summary::windowed` over its trace.
//! * [`csv`] — comma-separated output (the `--measurement` rows and the
//!   fleet CDF) and ingestion ([`CsvReader`], used by trace
//!   calibration).
//!
//! The paper's tuner can also optimize an IPC estimate or an external
//! meter fed through MetricQ. This reproduction measures one pair, the
//! runner's node power and the core model's IPC, and has no plugin
//! interface.

pub mod csv;
pub mod metric;
pub mod series;

pub use csv::{CsvError, CsvReader, CsvWriter};
pub use metric::Summary;
pub use series::{Sample, TimeSeries};
