//! Hardware event counters.
//!
//! The paper validates its front-end claims with AMD PMC event 0xAA
//! ("UOps Dispatched From Decoder") and measures applied frequency via
//! 0x76 ("Cycles not in Halt"). These counters are the simulator's
//! equivalents; the runner returns them with each run
//! (`RunResult::events`). The `perf-ipc` measurement row is the core
//! model's steady-state IPC, not a ratio of these counters.

use fs2_arch::pipeline::FetchSource;

/// Event counters accumulated over a simulated run of one core.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HwEvents {
    /// Retired instructions.
    pub instructions: u64,
    /// Core clock cycles while running (event 0x76, "Cycles not in Halt").
    pub cycles: u64,
    /// µops delivered by the legacy decode pipeline (event 0xAA source:
    /// decoder). Non-zero only when the loop spills out of the µop cache.
    pub uops_from_decoder: u64,
    /// µops delivered from the µop cache (event 0xAA source: op cache).
    pub uops_from_opcache: u64,
    /// Data-cache accesses (loads + stores issued).
    pub dc_accesses: u64,
    /// Cycles spent stalled on memory beyond compute overlap.
    pub stall_cycles: u64,
    /// Completed loop iterations.
    pub iterations: u64,
    /// Wall-clock nanoseconds covered by this sample.
    pub elapsed_ns: u64,
}

impl HwEvents {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Average applied frequency in MHz over the sample (cycles / time) —
    /// how the paper derives Fig. 12c.
    pub fn applied_freq_mhz(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.cycles as f64 * 1000.0 / self.elapsed_ns as f64
        }
    }

    /// Accumulates another sample.
    pub fn merge(&mut self, other: &HwEvents) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.uops_from_decoder += other.uops_from_decoder;
        self.uops_from_opcache += other.uops_from_opcache;
        self.dc_accesses += other.dc_accesses;
        self.stall_cycles += other.stall_cycles;
        self.iterations += other.iterations;
        self.elapsed_ns += other.elapsed_ns;
    }

    /// Splits total dispatched µops between decoder and op-cache paths
    /// according to the fetch source.
    pub fn attribute_uops(source: FetchSource, uops: u64) -> (u64, u64) {
        match source {
            FetchSource::LoopBuffer | FetchSource::OpCache => (0, uops),
            FetchSource::L1i | FetchSource::L2 => (uops, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_frequency() {
        let e = HwEvents {
            instructions: 4_000,
            cycles: 1_000,
            elapsed_ns: 400, // 1000 cycles in 400 ns = 2500 MHz
            ..Default::default()
        };
        assert!((e.ipc() - 4.0).abs() < 1e-12);
        assert!((e.applied_freq_mhz() - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn zero_division_guards() {
        let e = HwEvents::default();
        assert_eq!(e.ipc(), 0.0);
        assert_eq!(e.applied_freq_mhz(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = HwEvents {
            instructions: 10,
            cycles: 5,
            iterations: 1,
            elapsed_ns: 2,
            ..Default::default()
        };
        let b = HwEvents {
            instructions: 30,
            cycles: 15,
            iterations: 3,
            elapsed_ns: 6,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.instructions, 40);
        assert_eq!(a.cycles, 20);
        assert_eq!(a.iterations, 4);
        assert_eq!(a.elapsed_ns, 8);
    }

    #[test]
    fn uop_attribution_by_source() {
        assert_eq!(
            HwEvents::attribute_uops(FetchSource::OpCache, 100),
            (0, 100)
        );
        assert_eq!(HwEvents::attribute_uops(FetchSource::L1i, 100), (100, 0));
        assert_eq!(HwEvents::attribute_uops(FetchSource::L2, 100), (100, 0));
        assert_eq!(
            HwEvents::attribute_uops(FetchSource::LoopBuffer, 100),
            (0, 100)
        );
    }
}
