//! # fs2-gpu — simulated GPGPU stress substrate
//!
//! "To stress NVIDIA GPUs, FIRESTARTER uses the DGEMM routines of
//! NVIDIA's cuBLAS library. However, the initialization of these matrices
//! was inefficient as they were initialized at the host and then
//! transferred to the GPU. In the new version, data is initialized
//! directly on the GPU." (§III-D)
//!
//! Fig. 2 quantifies the device contribution on the Haswell+GPGPU node:
//! each NVIDIA K80 adds **29 W idle** and up to **156 W under stress**.
//!
//! No GPU is available in this environment, so this crate provides:
//!
//! * [`device`] — the simulated accelerator: FP64 peak rate, memory
//!   capacity/bandwidth, PCIe link, idle/stress power, and the
//!   host-init vs. device-init data-placement paths whose difference
//!   motivated the §III-D change. No matrix is multiplied: a DGEMM is
//!   charged its `2·n³` FLOPs at the card's sustained rate.
//! * [`stress`] — the FIRESTARTER-side driver: matrix sizing to fill
//!   device memory, the init phase, and the steady DGEMM loop, yielding
//!   average power over a measurement window.

pub mod device;
pub mod stress;

pub use device::{GpuDevice, GpuSpec, InitStrategy};
pub use stress::{GpuStress, GpuStressReport};
