//! The simulated accelerator.

/// Static device description.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    pub name: &'static str,
    /// Peak double-precision rate, GFLOP/s.
    pub fp64_gflops: f64,
    /// Fraction of peak a large DGEMM sustains.
    pub dgemm_efficiency: f64,
    /// Device memory, bytes.
    pub mem_bytes: u64,
    /// Device memory bandwidth, GB/s.
    pub mem_bw_gbps: f64,
    /// Host↔device link bandwidth, GB/s (PCIe 3.0 x16 ≈ 12 GB/s).
    pub pcie_bw_gbps: f64,
    /// Host-side matrix generation rate, GB/s (single-threaded fill).
    pub host_fill_gbps: f64,
    /// Idle contribution to node power (Fig. 2: 29 W for a K80).
    pub idle_w: f64,
    /// Stressed contribution to node power (Fig. 2: 156 W).
    pub stress_w: f64,
}

impl GpuSpec {
    /// NVIDIA Tesla K80 (one card as measured in Fig. 2).
    pub fn k80() -> GpuSpec {
        GpuSpec {
            name: "NVIDIA Tesla K80",
            fp64_gflops: 1870.0,
            dgemm_efficiency: 0.80,
            mem_bytes: 12 * 1024 * 1024 * 1024,
            mem_bw_gbps: 240.0,
            pcie_bw_gbps: 12.0,
            host_fill_gbps: 4.0,
            idle_w: 29.0,
            stress_w: 156.0,
        }
    }
}

/// Where the DGEMM input matrices are created (§III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStrategy {
    /// FIRESTARTER ≤ 1.x: fill on the host, copy over PCIe.
    HostThenTransfer,
    /// FIRESTARTER 2: generate directly on the device.
    OnDevice,
}

/// A simulated GPU instance.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    pub spec: GpuSpec,
}

impl GpuDevice {
    pub fn new(spec: GpuSpec) -> GpuDevice {
        GpuDevice { spec }
    }

    /// Largest square `n` such that three `n×n` f64 matrices fill the
    /// given fraction of device memory (FIRESTARTER sizes DGEMM to the
    /// card).
    pub fn matrix_dim_for_memory(&self, fraction: f64) -> u64 {
        assert!((0.0..=1.0).contains(&fraction));
        let usable = self.spec.mem_bytes as f64 * fraction;
        (usable / (3.0 * 8.0)).sqrt() as u64
    }

    /// Seconds to produce the two input matrices (3 allocations, 2 filled;
    /// C is zeroed on device either way).
    pub fn init_time_s(&self, n: u64, strategy: InitStrategy) -> f64 {
        let bytes = 2.0 * (n * n * 8) as f64;
        match strategy {
            InitStrategy::HostThenTransfer => {
                // Fill in host memory, then cross PCIe.
                bytes / (self.spec.host_fill_gbps * 1e9) + bytes / (self.spec.pcie_bw_gbps * 1e9)
            }
            InitStrategy::OnDevice => {
                // A trivially parallel fill kernel at memory bandwidth.
                bytes / (self.spec.mem_bw_gbps * 1e9)
            }
        }
    }

    /// Seconds for one `n³` DGEMM at sustained rate.
    pub fn dgemm_time_s(&self, n: u64) -> f64 {
        let flops = dgemm_flops(n) as f64;
        flops / (self.spec.fp64_gflops * 1e9 * self.spec.dgemm_efficiency)
    }

    /// Device power while running compute at the given utilization.
    pub fn power_w(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.spec.idle_w + (self.spec.stress_w - self.spec.idle_w) * u
    }

    /// Average power over a window that starts with initialization and
    /// then loops DGEMM back-to-back.
    pub fn avg_power_over(&self, window_s: f64, n: u64, strategy: InitStrategy) -> f64 {
        assert!(window_s > 0.0);
        let init = self.init_time_s(n, strategy).min(window_s);
        // During init the SMs idle (fill is bandwidth-bound, low power);
        // charge a small utilization for the on-device fill kernel.
        let init_util = match strategy {
            InitStrategy::HostThenTransfer => 0.0,
            InitStrategy::OnDevice => 0.15,
        };
        let stress = window_s - init;
        (self.power_w(init_util) * init + self.power_w(1.0) * stress) / window_s
    }
}

/// FLOPs of one `n×n×n` DGEMM.
fn dgemm_flops(n: u64) -> u64 {
    2 * n * n * n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k80() -> GpuDevice {
        GpuDevice::new(GpuSpec::k80())
    }

    #[test]
    fn matrix_sizing_fills_memory() {
        let d = k80();
        let n = d.matrix_dim_for_memory(0.9);
        let bytes = 3 * n * n * 8;
        assert!(bytes <= d.spec.mem_bytes);
        // Within 1 % of the target footprint.
        assert!(bytes as f64 > d.spec.mem_bytes as f64 * 0.9 * 0.98);
    }

    #[test]
    fn device_init_is_much_faster_than_host_init() {
        let d = k80();
        let n = d.matrix_dim_for_memory(0.9);
        let host = d.init_time_s(n, InitStrategy::HostThenTransfer);
        let dev = d.init_time_s(n, InitStrategy::OnDevice);
        assert!(host / dev > 10.0, "host {host:.3} s vs device {dev:.3} s");
    }

    #[test]
    fn power_endpoints_match_fig2() {
        let d = k80();
        assert_eq!(d.power_w(0.0), 29.0);
        assert_eq!(d.power_w(1.0), 156.0);
        assert!(d.power_w(0.5) > 29.0 && d.power_w(0.5) < 156.0);
        // Clamped outside [0, 1].
        assert_eq!(d.power_w(2.0), 156.0);
    }

    #[test]
    fn on_device_init_raises_average_power_in_short_windows() {
        // The §III-D improvement: less time stuck at idle power.
        let d = k80();
        let n = d.matrix_dim_for_memory(0.9);
        let host_avg = d.avg_power_over(30.0, n, InitStrategy::HostThenTransfer);
        let dev_avg = d.avg_power_over(30.0, n, InitStrategy::OnDevice);
        assert!(
            dev_avg > host_avg + 1.0,
            "host {host_avg:.1} W vs device {dev_avg:.1} W"
        );
        // Both converge for very long windows.
        let host_long = d.avg_power_over(3600.0, n, InitStrategy::HostThenTransfer);
        let dev_long = d.avg_power_over(3600.0, n, InitStrategy::OnDevice);
        assert!((host_long - dev_long).abs() < 1.0);
    }

    #[test]
    fn flop_count() {
        assert_eq!(dgemm_flops(10), 2000);
        assert_eq!(dgemm_flops(1000), 2_000_000_000);
    }

    #[test]
    fn dgemm_time_scales_cubically() {
        let d = k80();
        let t1 = d.dgemm_time_s(1000);
        let t2 = d.dgemm_time_s(2000);
        assert!((t2 / t1 - 8.0).abs() < 1e-9);
    }
}
