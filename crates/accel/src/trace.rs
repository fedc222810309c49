//! Per-component event log (the paper §VI-A: "the simulator … generates an
//! event log for each hardware component").
//!
//! A [`LayerTrace`] records every dispatched work unit of a layer —
//! which PE it ran on, when it started in that PE's local timeline, how many
//! cycles it filled buffers / broadcast weights / idled lanes — driven by the
//! *same* mapping iteration as the simulator ([`crate::sim::map_layer`]), so
//! trace totals and report totals cannot diverge (asserted by tests, per
//! layer and at network scope). [`LayerTrace::emit_events`] exports the
//! per-PE utilization and imbalance through the obs sinks.

use crate::config::AccelConfig;
use crate::sim::{map_layer, UnitDispatch};
use crate::workload::{LayerWorkload, NetworkWorkload};

/// Per-PE activity summary within one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeActivity {
    /// Units dispatched to this PE.
    pub units: usize,
    /// Buffer-fill cycles.
    pub fill_cycles: u64,
    /// Weight-broadcast (compute) cycles.
    pub busy_cycles: u64,
    /// MACs executed.
    pub macs: u64,
    /// Data-gated lane-cycles.
    pub idle_lane_cycles: u64,
}

impl PeActivity {
    /// This PE's local finish time.
    pub fn finish_cycle(&self) -> u64 {
        self.fill_cycles + self.busy_cycles
    }

    /// Adds one unit dispatched to this PE.
    pub fn add(&mut self, u: &UnitDispatch) {
        self.units += 1;
        self.fill_cycles += u.fill_cycles;
        self.busy_cycles += u.busy_cycles;
        self.macs += u.macs;
        self.idle_lane_cycles += u.idle_lane_cycles;
    }
}

/// Load imbalance of a layer of `cycles` (its barrier): the PEs' mean
/// barrier wait as a fraction of `cycles`, 0 with no cycles or no PEs.
pub fn barrier_imbalance(per_pe: &[PeActivity], cycles: u64) -> f64 {
    if cycles == 0 || per_pe.is_empty() {
        return 0.0;
    }
    let waits: u64 = per_pe.iter().map(|a| cycles - a.finish_cycle()).sum();
    waits as f64 / (cycles as f64 * per_pe.len() as f64)
}

/// The event log of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTrace {
    /// Layer name.
    pub name: String,
    /// Every dispatched unit, in dispatch order.
    pub units: Vec<UnitDispatch>,
    /// Per-PE summaries.
    pub per_pe: Vec<PeActivity>,
    /// Layer cycles (max PE finish time — the synchronisation barrier).
    pub cycles: u64,
}

impl LayerTrace {
    /// Cycles each PE waits at the end-of-layer barrier.
    pub fn barrier_wait(&self, pe: usize) -> u64 {
        self.cycles - self.per_pe[pe].finish_cycle()
    }

    /// Load imbalance: mean barrier wait over all PEs, as a fraction of the
    /// layer's cycles.
    pub fn imbalance(&self) -> f64 {
        barrier_imbalance(&self.per_pe, self.cycles)
    }

    /// Exports the trace through the obs sinks: one `sim/trace` summary for
    /// the layer plus one `sim/trace/pe` event per PE (busy/fill/idle cycle
    /// split, per-PE utilization, barrier wait). No-op without a sink.
    pub fn emit_events(&self) {
        if !snapea_obs::enabled() {
            return;
        }
        snapea_obs::event!(
            "sim/trace",
            layer = self.name.clone(),
            cycles = self.cycles,
            units = self.units.len() as u64,
            pes = self.per_pe.len() as u64,
            imbalance = self.imbalance(),
        );
        for (pe, a) in self.per_pe.iter().enumerate() {
            let utilization = if self.cycles == 0 {
                0.0
            } else {
                a.busy_cycles as f64 / self.cycles as f64
            };
            snapea_obs::event!(
                "sim/trace/pe",
                layer = self.name.clone(),
                pe = pe as u64,
                units = a.units as u64,
                fill_cycles = a.fill_cycles,
                busy_cycles = a.busy_cycles,
                macs = a.macs,
                idle_lane_cycles = a.idle_lane_cycles,
                utilization = utilization,
                barrier_wait = self.barrier_wait(pe),
            );
        }
    }

    /// Exports this layer's cycle-accurate PE timeline through the obs sinks
    /// as `sim/pe/phase` events: one `fill` slice per weight/index buffer
    /// load, one `compute` slice per dispatched unit, and one `stall` slice
    /// per PE waiting at the end-of-layer barrier. `start_cycle` values are
    /// offset by `base_cycle` so consecutive layers share one virtual clock
    /// (layer boundaries are synchronisation barriers). Timestamps are pure
    /// virtual time — no wall clock — so the timeline is a deterministic
    /// function of the workload. Returns the next layer's base cycle.
    pub fn emit_pe_phases(&self, base_cycle: u64) -> u64 {
        if !snapea_obs::enabled() {
            return base_cycle + self.cycles;
        }
        for u in &self.units {
            if u.fill_cycles > 0 {
                snapea_obs::event!(
                    "sim/pe/phase",
                    layer = self.name.clone(),
                    pe = u.pe as u64,
                    phase = "fill",
                    start_cycle = base_cycle + u.start_cycle,
                    cycles = u.fill_cycles,
                    kernel = u.kernel as u64,
                );
            }
            if u.busy_cycles > 0 {
                snapea_obs::event!(
                    "sim/pe/phase",
                    layer = self.name.clone(),
                    pe = u.pe as u64,
                    phase = "compute",
                    start_cycle = base_cycle + u.start_cycle + u.fill_cycles,
                    cycles = u.busy_cycles,
                    kernel = u.kernel as u64,
                    image = u.image as u64,
                    macs = u.macs,
                );
            }
        }
        for (pe, a) in self.per_pe.iter().enumerate() {
            let wait = self.cycles - a.finish_cycle();
            if wait > 0 && a.units > 0 {
                snapea_obs::event!(
                    "sim/pe/phase",
                    layer = self.name.clone(),
                    pe = pe as u64,
                    phase = "stall",
                    start_cycle = base_cycle + a.finish_cycle(),
                    cycles = wait,
                );
            }
        }
        base_cycle + self.cycles
    }
}

/// Emits the cycle-accurate PE timeline of a whole network trace (see
/// [`LayerTrace::emit_pe_phases`]): layers are laid out back to back on one
/// shared virtual clock. Returns the network's total cycle count.
pub fn emit_pe_timeline(traces: &[LayerTrace]) -> u64 {
    let mut base = 0;
    for t in traces {
        base = t.emit_pe_phases(base);
    }
    base
}

/// Traces one layer's execution on `cfg`.
pub fn trace_layer(cfg: &AccelConfig, layer: &LayerWorkload) -> LayerTrace {
    let mut units = Vec::new();
    let mut per_pe = vec![PeActivity::default(); cfg.pe_count()];
    let (_, cycles) = map_layer(cfg, layer, |u| {
        per_pe[u.pe].add(u);
        units.push(u.clone());
    });
    LayerTrace {
        name: layer.name.clone(),
        units,
        per_pe,
        cycles,
    }
}

/// Traces every layer of a network.
pub fn trace_network(cfg: &AccelConfig, net: &NetworkWorkload) -> Vec<LayerTrace> {
    net.layers.iter().map(|l| trace_layer(cfg, l)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyModel;
    use crate::sim::simulate;
    use snapea::exec::LayerProfile;

    fn layer(images: usize, kernels: usize, windows: usize, wl: usize) -> LayerWorkload {
        let ops: Vec<u32> = (0..images * kernels * windows)
            .map(|i| ((i * 13) % wl) as u32 + 1)
            .collect();
        LayerWorkload::new(
            "t",
            LayerProfile::from_ops(images, kernels, windows, wl, ops),
            128,
        )
    }

    #[test]
    fn trace_totals_match_simulator_report() {
        let wl = layer(2, 8, 64, 36);
        let net = NetworkWorkload {
            name: "n".into(),
            layers: vec![wl.clone()],
        };
        let cfg = AccelConfig::snapea();
        let report = simulate(&cfg, &EnergyModel::default(), &net);
        let trace = trace_layer(&cfg, &wl);
        assert_eq!(trace.cycles, report.per_layer[0].cycles);
        let macs: u64 = trace.per_pe.iter().map(|p| p.macs).sum();
        assert_eq!(macs, report.per_layer[0].macs);
        let idle: u64 = trace.per_pe.iter().map(|p| p.idle_lane_cycles).sum();
        assert_eq!(idle, report.per_layer[0].idle_lane_cycles);
    }

    #[test]
    fn network_trace_totals_match_simulator_report() {
        // Network scope: heterogeneous layers, so any divergence between the
        // trace iteration and the simulator's own accounting would surface.
        let net = NetworkWorkload {
            name: "multi".into(),
            layers: vec![
                layer(2, 8, 64, 36),
                layer(1, 4, 48, 27),
                layer(3, 16, 16, 9),
            ],
        };
        let cfg = AccelConfig::snapea();
        let report = simulate(&cfg, &EnergyModel::default(), &net);
        let traces = trace_network(&cfg, &net);
        assert_eq!(traces.len(), report.per_layer.len());
        for (t, r) in traces.iter().zip(&report.per_layer) {
            assert_eq!(t.cycles, r.cycles, "layer {} cycles", r.name);
            let macs: u64 = t.per_pe.iter().map(|p| p.macs).sum();
            assert_eq!(macs, r.macs, "layer {} macs", r.name);
            let idle: u64 = t.per_pe.iter().map(|p| p.idle_lane_cycles).sum();
            assert_eq!(idle, r.idle_lane_cycles, "layer {} idle", r.name);
        }
        let trace_cycles: u64 = traces.iter().map(|t| t.cycles).sum();
        assert_eq!(trace_cycles, report.cycles);
        let trace_macs: u64 = traces
            .iter()
            .flat_map(|t| t.per_pe.iter().map(|p| p.macs))
            .sum();
        assert_eq!(trace_macs, report.events.macs);
    }

    #[test]
    fn units_cover_every_kernel_and_image() {
        let wl = layer(3, 5, 32, 27);
        let trace = trace_layer(&AccelConfig::snapea(), &wl);
        for k in 0..5 {
            for img in 0..3 {
                let covered: Vec<_> = trace
                    .units
                    .iter()
                    .filter(|u| u.kernel == k && u.image == img)
                    .collect();
                assert!(!covered.is_empty(), "kernel {k} image {img} unmapped");
                let total: usize = covered
                    .iter()
                    .map(|u| u.window_range.1 - u.window_range.0)
                    .sum();
                assert_eq!(total, 32, "window coverage for kernel {k}");
            }
        }
    }

    #[test]
    fn fills_charged_once_per_pe_and_kernel() {
        let wl = layer(4, 2, 64, 20);
        let trace = trace_layer(&AccelConfig::snapea(), &wl);
        // Each (pe, kernel) pair pays at most one fill.
        use std::collections::BTreeSet;
        let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
        for u in &trace.units {
            if u.fill_cycles > 0 {
                assert!(
                    seen.insert((u.pe, u.kernel)),
                    "double fill on pe {} kernel {}",
                    u.pe,
                    u.kernel
                );
                assert_eq!(u.fill_cycles, 20);
            }
        }
    }

    #[test]
    fn barrier_and_imbalance_accounting() {
        let wl = layer(1, 16, 64, 30);
        let trace = trace_layer(&AccelConfig::snapea(), &wl);
        assert!(trace.cycles > 0);
        for pe in 0..trace.per_pe.len() {
            assert!(trace.per_pe[pe].finish_cycle() <= trace.cycles);
        }
        let imb = trace.imbalance();
        assert!((0.0..1.0).contains(&imb), "imbalance {imb}");
    }

    #[test]
    fn pe_timeline_events_are_cycle_accurate_and_deterministic() {
        use snapea_obs::Json;
        // Unique layer names so concurrent tests' events can be filtered out
        // (the sink list is process-global).
        let mk = |name: &str, seed: usize| {
            let ops: Vec<u32> = (0..2 * 4 * 32)
                .map(|i| ((i * seed) % 18) as u32 + 1)
                .collect();
            LayerWorkload::new(name, LayerProfile::from_ops(2, 4, 32, 18, ops), 64)
        };
        let net = NetworkWorkload {
            name: "pt".into(),
            layers: vec![mk("pt-layer-a", 13), mk("pt-layer-b", 7)],
        };
        let cfg = AccelConfig::snapea();
        let traces = trace_network(&cfg, &net);

        let capture = || {
            let mem = snapea_obs::MemorySink::new();
            snapea_obs::sink::install(Box::new(mem.clone()));
            let total = emit_pe_timeline(&traces);
            snapea_obs::sink::clear();
            let events: Vec<Json> = mem
                .events()
                .into_iter()
                .filter(|e| {
                    e.get("kind").and_then(Json::as_str) == Some("sim/pe/phase")
                        && e.get("layer")
                            .and_then(Json::as_str)
                            .is_some_and(|l| l.starts_with("pt-layer-"))
                })
                .collect();
            (total, events)
        };
        let (total, events) = capture();
        assert_eq!(
            total,
            traces.iter().map(|t| t.cycles).sum::<u64>(),
            "timeline spans the whole network"
        );
        assert!(!events.is_empty());

        // Per-layer compute cycles in the timeline equal the trace's busy
        // cycles, and every slice fits inside its layer's cycle window.
        let mut base = 0u64;
        for t in &traces {
            let layer_events: Vec<&Json> = events
                .iter()
                .filter(|e| e.get("layer").and_then(Json::as_str) == Some(t.name.as_str()))
                .collect();
            let cycles_of = |phase: &str| -> u64 {
                layer_events
                    .iter()
                    .filter(|e| e.get("phase").and_then(Json::as_str) == Some(phase))
                    .filter_map(|e| e.get("cycles").and_then(Json::as_u64))
                    .sum()
            };
            let busy: u64 = t.per_pe.iter().map(|p| p.busy_cycles).sum();
            let fills: u64 = t.per_pe.iter().map(|p| p.fill_cycles).sum();
            assert_eq!(cycles_of("compute"), busy, "layer {}", t.name);
            assert_eq!(cycles_of("fill"), fills, "layer {}", t.name);
            for e in &layer_events {
                let start = e.get("start_cycle").and_then(Json::as_u64).unwrap();
                let cycles = e.get("cycles").and_then(Json::as_u64).unwrap();
                assert!(start >= base && start + cycles <= base + t.cycles);
            }
            base += t.cycles;
        }

        // Per PE, slices never overlap (each PE is one serial timeline).
        let mut by_pe: std::collections::BTreeMap<u64, Vec<(u64, u64)>> =
            std::collections::BTreeMap::new();
        for e in &events {
            let pe = e.get("pe").and_then(Json::as_u64).unwrap();
            let start = e.get("start_cycle").and_then(Json::as_u64).unwrap();
            let cycles = e.get("cycles").and_then(Json::as_u64).unwrap();
            by_pe.entry(pe).or_default().push((start, start + cycles));
        }
        for (pe, mut slices) in by_pe {
            slices.sort_unstable();
            for w in slices.windows(2) {
                assert!(w[0].1 <= w[1].0, "PE {pe} slices overlap: {w:?}");
            }
        }

        // The timeline is deterministic: emitting twice (and rendering the
        // virtual-PE Chrome trace) produces identical payloads.
        let (_, events2) = capture();
        let strip = |evs: &[Json]| -> String {
            evs.iter()
                .map(|e| {
                    let Some(pairs) = e.as_object() else {
                        return String::new();
                    };
                    pairs
                        .iter()
                        .filter(|(k, _)| !matches!(k.as_str(), "seq" | "t_ms" | "tid"))
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&events), strip(&events2));
        let jsonl: String = events.iter().map(|e| format!("{e}\n")).collect();
        let doc = snapea_obs::chrome_trace(&jsonl, snapea_obs::Selection::VirtualPe).unwrap();
        assert!(snapea_obs::validate_chrome_trace(&doc).unwrap() > 0);
    }

    #[test]
    fn start_cycles_are_locally_monotone_per_pe() {
        let wl = layer(2, 6, 48, 25);
        let trace = trace_layer(&AccelConfig::snapea(), &wl);
        let mut last: Vec<u64> = vec![0; AccelConfig::snapea().pe_count()];
        for u in &trace.units {
            assert!(u.start_cycle >= last[u.pe], "pe {} went backwards", u.pe);
            last[u.pe] = u.start_cycle + u.fill_cycles + u.busy_cycles;
        }
    }
}
