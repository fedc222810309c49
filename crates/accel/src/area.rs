//! Area model — the paper's Table II breakdown (TSMC 45 nm synthesis
//! results, transcribed as constants; see DESIGN.md §1).

use crate::config::AccelConfig;

/// One row of the area table.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaItem {
    /// Component name.
    pub name: String,
    /// Size description (capacity or count).
    pub size: String,
    /// Area in mm².
    pub area_mm2: f64,
}

/// Area breakdown of an accelerator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaBreakdown {
    /// Per-component rows.
    pub items: Vec<AreaItem>,
    /// Total area in mm².
    pub total_mm2: f64,
}

/// Per-PE component areas at 45 nm from the paper's Table II (mm²).
mod unit {
    /// Four compute lanes (MAC units + accumulators).
    pub const COMPUTE_LANES_4: f64 = 0.012;
    /// One single-lane PE of the baseline (MAC + partial-sum/input regs).
    pub const EYERISS_PE: f64 = 0.003 + 0.002 + 0.001;
    /// 0.5 KB weight buffer.
    pub const WEIGHT_BUF: f64 = 0.014;
    /// 0.5 KB index buffer.
    pub const INDEX_BUF: f64 = 0.007;
    /// 20 KB input/output RAM.
    pub const IO_RAM_20K: f64 = 0.250;
    /// Four predictive activation units.
    pub const PAU_4: f64 = 0.008;
    /// 1.25 MB global buffer (baseline).
    pub const GLOBAL_BUF: f64 = 12.9;
}

/// Computes the area of a configuration, scaling the Table II per-PE
/// components by the PE/lane counts.
pub fn area_of(cfg: &AccelConfig) -> AreaBreakdown {
    let pes = cfg.pe_count() as f64;
    let mut items = Vec::new();
    let lane_scale = cfg.lanes_per_pe as f64 / 4.0;

    if cfg.lanes_per_pe > 1 || cfg.has_pau {
        // SnaPEA-style PE.
        let pe_area = unit::COMPUTE_LANES_4 * lane_scale
            + unit::WEIGHT_BUF
            + if cfg.index_buffer_bytes > 0 {
                unit::INDEX_BUF
            } else {
                0.0
            }
            + unit::IO_RAM_20K * (cfg.io_buffer_bytes as f64 / pes / (20.0 * 1024.0))
            + if cfg.has_pau {
                unit::PAU_4 * lane_scale
            } else {
                0.0
            };
        items.push(AreaItem {
            name: format!("{} PEs ({} lanes each)", cfg.pe_count(), cfg.lanes_per_pe),
            size: format!("{} MACs", cfg.total_macs()),
            area_mm2: pe_area * pes,
        });
    } else {
        items.push(AreaItem {
            name: format!("{} PEs (1 lane each)", cfg.pe_count()),
            size: format!("{} MACs", cfg.total_macs()),
            area_mm2: (unit::EYERISS_PE + unit::WEIGHT_BUF) * pes,
        });
        items.push(AreaItem {
            name: "Global buffer".to_string(),
            size: "1.25 MB".to_string(),
            area_mm2: unit::GLOBAL_BUF * (cfg.io_buffer_bytes as f64 / 1_310_720.0),
        });
    }

    let total_mm2 = items.iter().map(|i| i.area_mm2).sum();
    AreaBreakdown { items, total_mm2 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapea_area_close_to_paper_total() {
        // Paper: 18.6 mm² for the 64-PE SnaPEA configuration.
        let a = area_of(&AccelConfig::snapea());
        assert!(
            (a.total_mm2 - 18.6).abs() < 0.5,
            "SnaPEA area {} deviates from the paper's 18.6 mm²",
            a.total_mm2
        );
    }

    #[test]
    fn eyeriss_area_close_to_paper_total() {
        // Paper: 17.8 mm² for the 256-PE EYERISS configuration.
        let a = area_of(&AccelConfig::eyeriss());
        assert!(
            (a.total_mm2 - 17.8).abs() < 0.8,
            "EYERISS area {} deviates from the paper's 17.8 mm²",
            a.total_mm2
        );
    }

    #[test]
    fn snapea_overhead_is_a_few_percent() {
        // Paper: "≈4.5% more area" for SnaPEA vs EYERISS.
        let s = area_of(&AccelConfig::snapea()).total_mm2;
        let e = area_of(&AccelConfig::eyeriss()).total_mm2;
        let overhead = s / e - 1.0;
        assert!(
            overhead > 0.0 && overhead < 0.10,
            "area overhead {overhead} outside the expected few-percent band"
        );
    }
}
