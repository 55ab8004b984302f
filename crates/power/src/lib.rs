//! # fs2-power — node power model
//!
//! The paper measures node AC power with a ZES LMG95 meter and package
//! power via RAPL. This crate is the measurement substitute: a calibrated
//! static+dynamic power model evaluated on top of `fs2-sim` steady states.
//!
//! * [`coeffs`] — per-microarchitecture energy coefficients (nJ per µop
//!   class, nJ per byte per memory level, clock-tree energy per cycle,
//!   static/idle terms) at a reference voltage, scaled by `(V/Vref)²`.
//! * [`model`] — composes a [`fs2_sim::NodeSteadyState`] into a
//!   [`model::PowerBreakdown`] (platform / uncore / core static / core
//!   dynamic / DRAM), including the FMA clock-gating effect for trivial
//!   operands (§III-D).
//! * [`edc`] — the electrical-design-current throttle loop of §IV-E:
//!   finds the highest 25 MHz-quantized frequency whose core-rail current
//!   stays within the SKU's EDC limit (the mechanism behind Fig. 8's
//!   2.5 → 2.4 GHz dip and Fig. 12c's sub-nominal applied frequencies).
//!
//! Calibration targets (landmarks from the paper) are documented per
//! coefficient set in [`coeffs`]; the `calibration` integration test pins
//! them with tolerance bands.

pub mod coeffs;
pub mod edc;
pub mod model;

pub use coeffs::PowerCoeffs;
pub use edc::{solve_throttle, ThrottleResult};
pub use model::{ClassCounts, NodePowerModel, PowerBreakdown};
