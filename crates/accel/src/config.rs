//! Accelerator configuration (paper Table II).

/// Configuration of a PE-array accelerator.
///
/// The two presets mirror the paper's Table II: [`AccelConfig::snapea`]
/// (8×8 PEs × 4 lanes, index buffers, distributed 20 KB I/O buffers) and
/// [`AccelConfig::eyeriss`] (256 single-lane PEs, shared 1.25 MB global
/// buffer, no index buffer). Both run 256 MAC units at 500 MHz.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccelConfig {
    /// PE-array rows (kernels are partitioned across rows).
    pub pe_rows: usize,
    /// PE-array columns (input windows are partitioned across columns).
    pub pe_cols: usize,
    /// Compute lanes (MAC units) per PE.
    pub lanes_per_pe: usize,
    /// Clock frequency in MHz.
    pub frequency_mhz: u64,
    /// Per-PE weight buffer capacity in bytes.
    pub weight_buffer_bytes: usize,
    /// Per-PE index buffer capacity in bytes (0 = no index buffer, dense
    /// baseline).
    pub index_buffer_bytes: usize,
    /// Total on-chip input/output storage in bytes (distributed per-PE for
    /// SnaPEA, one global buffer for the baseline).
    pub io_buffer_bytes: usize,
    /// Whether the PEs carry Predictive Activation Units.
    pub has_pau: bool,
    /// Register-level input-operand reuse factor of the dataflow: on
    /// average, one on-chip-buffer read feeds this many MACs. The baseline's
    /// row-stationary dataflow reuses aggressively; SnaPEA's index-directed
    /// gather reuses less (each lane fetches the input its reordered index
    /// points at).
    pub input_reuse: usize,
    /// Weight-operand reuse factor: how many MACs one weight fetch feeds
    /// beyond the PE-internal lane broadcast. The baseline's row-stationary
    /// dataflow forwards each weight along a PE row; SnaPEA fetches from its
    /// per-PE weight buffer every broadcast cycle.
    pub weight_reuse: usize,
}

impl AccelConfig {
    /// The paper's SnaPEA configuration (Table II).
    pub fn snapea() -> Self {
        Self {
            pe_rows: 8,
            pe_cols: 8,
            lanes_per_pe: 4,
            frequency_mhz: 500,
            weight_buffer_bytes: 512,
            index_buffer_bytes: 512,
            io_buffer_bytes: 64 * 20 * 1024, // 20 KB per PE × 64 PEs = 1.25 MB
            has_pau: true,
            input_reuse: 4,
            weight_reuse: 1,
        }
    }

    /// The paper's EYERISS baseline configuration (Table II): same 256 MACs
    /// and 1.25 MB on-chip storage, one lane per PE, no index buffer.
    pub fn eyeriss() -> Self {
        Self {
            pe_rows: 16,
            pe_cols: 16,
            lanes_per_pe: 1,
            frequency_mhz: 500,
            weight_buffer_bytes: 512,
            index_buffer_bytes: 0,
            io_buffer_bytes: 1_310_720, // 1.25 MB global buffer
            has_pau: false,
            input_reuse: 8,
            weight_reuse: 4,
        }
    }

    /// SnaPEA with the lane count scaled by `num/den` while holding the
    /// total MAC count constant (the paper's Figure 12 sweep). Lanes scale
    /// by the factor; PE count scales inversely via the column dimension.
    ///
    /// # Panics
    ///
    /// Panics if the factor does not divide evenly.
    pub fn snapea_lanes_scaled(num: usize, den: usize) -> Self {
        let base = Self::snapea();
        let lanes = base.lanes_per_pe * num / den;
        assert!(lanes >= 1, "lane scaling produced zero lanes");
        assert_eq!(
            base.lanes_per_pe * num % den,
            0,
            "lane scaling must be exact"
        );
        // Keep rows fixed (kernel partitioning), rescale columns so that
        // rows × cols × lanes stays 256.
        let total = base.total_macs();
        let cols = total / (base.pe_rows * lanes);
        assert!(cols >= 1, "too many lanes per PE for the array");
        assert_eq!(
            base.pe_rows * cols * lanes,
            total,
            "MAC total must be preserved"
        );
        Self {
            pe_cols: cols,
            lanes_per_pe: lanes,
            ..base
        }
    }

    /// Number of PEs.
    pub fn pe_count(&self) -> usize {
        self.pe_rows * self.pe_cols
    }

    /// Total MAC units (`rows × cols × lanes`).
    pub fn total_macs(&self) -> usize {
        self.pe_count() * self.lanes_per_pe
    }

    /// Seconds per cycle.
    pub fn cycle_seconds(&self) -> f64 {
        1.0 / (self.frequency_mhz as f64 * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_equal_peak_throughput() {
        let s = AccelConfig::snapea();
        let e = AccelConfig::eyeriss();
        assert_eq!(s.total_macs(), 256);
        assert_eq!(e.total_macs(), 256);
        assert_eq!(s.frequency_mhz, e.frequency_mhz);
        // ~1.25 MB on-chip storage each.
        assert_eq!(s.io_buffer_bytes, 64 * 20 * 1024);
        assert_eq!(e.io_buffer_bytes, 1_310_720);
    }

    #[test]
    fn lane_scaling_preserves_macs() {
        for (num, den) in [(1, 2), (1, 1), (2, 1), (4, 1)] {
            let c = AccelConfig::snapea_lanes_scaled(num, den);
            assert_eq!(c.total_macs(), 256, "{num}/{den}");
            assert_eq!(c.lanes_per_pe, 4 * num / den);
        }
    }

    #[test]
    fn cycle_time() {
        let s = AccelConfig::snapea();
        assert!((s.cycle_seconds() - 2e-9).abs() < 1e-15);
    }
}
