//! Energy model — the paper's Table III event costs.

/// Data word width of the PEs (16-bit fixed point, Table II).
pub const WORD_BITS: u64 = 16;

/// Per-bit energy of each event class (paper Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Register file access (pJ/bit).
    pub register_pj_bit: f64,
    /// 16-bit fixed-point PE operation (pJ/bit) — includes the PAU for
    /// SnaPEA per the paper.
    pub pe_pj_bit: f64,
    /// Inter-PE communication (pJ/bit).
    pub inter_pe_pj_bit: f64,
    /// Global/on-chip buffer access (pJ/bit).
    pub buffer_pj_bit: f64,
    /// DDR4 access (pJ/bit).
    pub dram_pj_bit: f64,
}

impl Default for EnergyModel {
    /// The Table III numbers: 0.20 / 0.30 / 0.40 / 1.20 / 15.00 pJ/bit
    /// (relative 1.0 / 1.5 / 2.0 / 6.0 / 75.0).
    fn default() -> Self {
        Self {
            register_pj_bit: 0.20,
            pe_pj_bit: 0.30,
            inter_pe_pj_bit: 0.40,
            buffer_pj_bit: 1.20,
            dram_pj_bit: 15.00,
        }
    }
}

impl EnergyModel {
    /// Relative cost table (normalised to a register access), as printed in
    /// Table III.
    pub fn relative_costs(&self) -> [(&'static str, f64); 5] {
        let r = self.register_pj_bit;
        [
            ("Register File Access", self.register_pj_bit / r),
            ("16-bit Fixed Point PE", self.pe_pj_bit / r),
            ("Inter-PE Communication", self.inter_pe_pj_bit / r),
            ("Global Buffer Access", self.buffer_pj_bit / r),
            ("DDR4 Memory Access", self.dram_pj_bit / r),
        ]
    }
}

/// Event counts accumulated by the simulator for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyEvents {
    /// Executed MAC operations.
    pub macs: u64,
    /// Register file accesses (operand reads/writes around each MAC).
    pub register_accesses: u64,
    /// On-chip buffer accesses (weight fetches, input reads, output writes,
    /// buffer fills).
    pub buffer_accesses: u64,
    /// Index-buffer reads (SnaPEA's reordering overhead; 0 on the dense
    /// baseline).
    pub index_accesses: u64,
    /// Words broadcast between PEs (input/kernel distribution).
    pub inter_pe_words: u64,
    /// Words moved to/from DRAM.
    pub dram_words: u64,
}

impl EnergyEvents {
    /// Accumulates another event block.
    pub fn merge(&mut self, other: &EnergyEvents) {
        self.macs += other.macs;
        self.register_accesses += other.register_accesses;
        self.buffer_accesses += other.buffer_accesses;
        self.index_accesses += other.index_accesses;
        self.inter_pe_words += other.inter_pe_words;
        self.dram_words += other.dram_words;
    }
}

/// Energy totals in pJ, broken down by event class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// MAC (PE) energy.
    pub mac_pj: f64,
    /// Register file energy.
    pub register_pj: f64,
    /// On-chip buffer energy.
    pub buffer_pj: f64,
    /// Index-buffer energy.
    pub index_pj: f64,
    /// Inter-PE communication energy.
    pub inter_pe_pj: f64,
    /// DRAM energy.
    pub dram_pj: f64,
}

impl EnergyBreakdown {
    /// Computes the breakdown from event counts under a model.
    ///
    /// The per-PE weight and index buffers are 0.5 KB SRAMs (Table II) —
    /// register-file-class accesses, priced accordingly; `buffer_accesses`
    /// covers the larger input/output RAMs / global buffer. Index entries
    /// are narrower than data words (`ceil(log2(window_len))` bits) and are
    /// charged at half a word, a conservative upper bound the tests pin.
    pub fn from_events(model: &EnergyModel, ev: &EnergyEvents) -> Self {
        let w = WORD_BITS as f64;
        Self {
            mac_pj: ev.macs as f64 * w * model.pe_pj_bit,
            register_pj: ev.register_accesses as f64 * w * model.register_pj_bit,
            buffer_pj: ev.buffer_accesses as f64 * w * model.buffer_pj_bit,
            index_pj: ev.index_accesses as f64 * (w / 2.0) * model.register_pj_bit,
            inter_pe_pj: ev.inter_pe_words as f64 * w * model.inter_pe_pj_bit,
            dram_pj: ev.dram_words as f64 * w * model.dram_pj_bit,
        }
    }

    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.mac_pj
            + self.register_pj
            + self.buffer_pj
            + self.index_pj
            + self.inter_pe_pj
            + self.dram_pj
    }

    /// Accumulates another breakdown.
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        self.mac_pj += other.mac_pj;
        self.register_pj += other.register_pj;
        self.buffer_pj += other.buffer_pj;
        self.index_pj += other.index_pj;
        self.inter_pe_pj += other.inter_pe_pj;
        self.dram_pj += other.dram_pj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iii_relative_costs() {
        let m = EnergyModel::default();
        let rel = m.relative_costs();
        assert_eq!(rel[0].1, 1.0);
        assert!((rel[1].1 - 1.5).abs() < 1e-9);
        assert!((rel[2].1 - 2.0).abs() < 1e-9);
        assert!((rel[3].1 - 6.0).abs() < 1e-9);
        assert!((rel[4].1 - 75.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_scales_linearly_with_events() {
        let m = EnergyModel::default();
        let ev = EnergyEvents {
            macs: 100,
            register_accesses: 200,
            buffer_accesses: 50,
            index_accesses: 50,
            inter_pe_words: 10,
            dram_words: 4,
        };
        let b = EnergyBreakdown::from_events(&m, &ev);
        assert!((b.mac_pj - 100.0 * 16.0 * 0.30).abs() < 1e-9);
        assert!((b.dram_pj - 4.0 * 16.0 * 15.0).abs() < 1e-9);
        // Index entries are half-width, register-class (0.5 KB SRAM).
        assert!((b.index_pj - 50.0 * 8.0 * 0.20).abs() < 1e-9);
        let mut doubled = ev;
        doubled.merge(&ev);
        let b2 = EnergyBreakdown::from_events(&m, &doubled);
        assert!((b2.total_pj() - 2.0 * b.total_pj()).abs() < 1e-6);
    }

    #[test]
    fn dram_dominates_per_word() {
        let m = EnergyModel::default();
        let one_dram = EnergyEvents {
            dram_words: 1,
            ..Default::default()
        };
        let one_mac = EnergyEvents {
            macs: 1,
            ..Default::default()
        };
        let e_dram = EnergyBreakdown::from_events(&m, &one_dram).total_pj();
        let e_mac = EnergyBreakdown::from_events(&m, &one_mac).total_pj();
        assert!(e_dram / e_mac >= 49.0, "DRAM should dwarf a MAC");
    }
}
