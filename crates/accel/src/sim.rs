//! The simulator driver: maps layer workloads onto the PE array, applies the
//! paper's synchronisation rules, and accounts cycles and energy.

use crate::config::AccelConfig;
use crate::energy::{EnergyBreakdown, EnergyEvents, EnergyModel};
use crate::engine::{run_pe, PeRun};
use crate::trace::{barrier_imbalance, PeActivity};
use crate::workload::{LayerWorkload, NetworkWorkload};

/// Simulation result for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Cycles to process all images of this layer.
    pub cycles: u64,
    /// MACs executed.
    pub macs: u64,
    /// Lane-cycles lost to data-gated lanes waiting within their group.
    pub idle_lane_cycles: u64,
    /// Event counts.
    pub events: EnergyEvents,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Whether activations spilled to DRAM (paper: VGGNet's deeper layers).
    pub spilled: bool,
}

impl LayerReport {
    /// MAC-array utilisation: executed MACs over peak MAC-cycles.
    pub fn utilization(&self, cfg: &AccelConfig) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.macs as f64 / (self.cycles as f64 * cfg.total_macs() as f64)
    }
}

/// Simulation result for a network.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Configuration simulated.
    pub config: AccelConfig,
    /// Total cycles.
    pub cycles: u64,
    /// Total energy.
    pub energy: EnergyBreakdown,
    /// Total event counts.
    pub events: EnergyEvents,
    /// Per-layer reports.
    pub per_layer: Vec<LayerReport>,
}

impl SimReport {
    /// Wall-clock seconds at the configured frequency.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 * self.config.cycle_seconds()
    }

    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.energy.total_pj()
    }

    /// Speedup of `self` relative to `baseline` (cycles ratio).
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        baseline.cycles as f64 / self.cycles.max(1) as f64
    }

    /// Energy reduction of `self` relative to `baseline`.
    pub fn energy_reduction_over(&self, baseline: &SimReport) -> f64 {
        baseline.total_pj() / self.total_pj().max(f64::MIN_POSITIVE)
    }

    /// Overall MAC-array utilisation.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.events.macs as f64 / (self.cycles as f64 * self.config.total_macs() as f64)
    }
}

/// Splits `0..n` into `parts` contiguous near-equal ranges (empty ranges for
/// `parts > n`).
fn split_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    (0..parts)
        .map(|p| (p * n / parts)..((p + 1) * n / parts))
        .collect()
}

/// Simulates one layer on the array; `is_first`/`is_last` carry the DRAM
/// boundary knowledge.
///
/// Mapping: the layer's work is decomposed into `(kernel, window-chunk)`
/// units — kernels across the array's vertical dimension, window chunks
/// across the horizontal dimension, with enough chunks per kernel that every
/// PE receives work even for narrow layers. Units are dealt round-robin to
/// PEs; each unit pays a weight/index buffer fill (the replication cost of
/// broadcasting a kernel to multiple PEs). PEs run independently and meet at
/// a barrier per image — the paper's horizontal-group synchronisation.
/// Permutation handing lanes spatially-adjacent 2×2 window tiles (the
/// paper's "adjacent convolution windows"): early-terminating windows
/// cluster spatially (Figure 2), so tiled lane groups straggle less than
/// row-major ones.
fn tile_order(h: usize, w: usize) -> Vec<u32> {
    let mut order = Vec::with_capacity(h * w);
    for ty in (0..h).step_by(2) {
        for tx in (0..w).step_by(2) {
            for dy in 0..2usize.min(h - ty) {
                for dx in 0..2usize.min(w - tx) {
                    order.push(snapea_tensor::num::idx_u32((ty + dy) * w + (tx + dx)));
                }
            }
        }
    }
    order
}

/// One dispatched work unit: a `(kernel, image, window-chunk)` triple placed
/// on a PE, with its timing. The same iteration drives both the simulator
/// totals and the event trace ([`crate::trace`]), so they cannot diverge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitDispatch {
    /// Kernel (output channel) index.
    pub kernel: usize,
    /// Image index within the batch.
    pub image: usize,
    /// Half-open window range (in the layer's tile order).
    pub window_range: (usize, usize),
    /// PE the unit was dispatched to.
    pub pe: usize,
    /// PE-local start cycle of the unit.
    pub start_cycle: u64,
    /// Weight/index buffer fill cycles paid before this unit (0 when the
    /// kernel was already resident on the PE).
    pub fill_cycles: u64,
    /// Compute (weight broadcast) cycles.
    pub busy_cycles: u64,
    /// MACs executed.
    pub macs: u64,
    /// Lane-cycles idled by data-gated lanes.
    pub idle_lane_cycles: u64,
}

/// Replays the layer mapping, invoking `visit` for every dispatched unit, and
/// returns `(aggregate PeRun, layer cycles)`. This is the single source of
/// truth for the mapping policy: least-loaded-PE dispatch of kernel-major
/// units, resident weights per (PE, kernel), 2×2 window tiles per lane group,
/// and a synchronisation barrier at the layer boundary (paper §V).
// lint:allow(P2) permuted/ops/loaded indices all derive from the same profile dimensions and pe_count
pub fn map_layer(
    cfg: &AccelConfig,
    layer: &LayerWorkload,
    mut visit: impl FnMut(&UnitDispatch),
) -> (PeRun, u64) {
    let p = &layer.profile;
    let (images, kernels, windows, window_len) =
        (p.images(), p.kernels(), p.windows(), p.window_len());
    let pe_count = cfg.pe_count();
    let (out_h, out_w) = layer.spatial;
    let window_order: Vec<u32> = if out_h * out_w == windows && out_w > 1 {
        tile_order(out_h, out_w)
    } else {
        (0..snapea_tensor::num::idx_u32(windows)).collect()
    };
    // Enough window chunks that kernels × chunks covers the array, but no
    // chunk smaller than one lane group.
    let max_chunks = windows.div_ceil(cfg.lanes_per_pe).max(1);
    let chunks_per_kernel = pe_count.div_ceil(kernels.max(1)).clamp(1, max_chunks);
    let window_chunks = split_ranges(windows, chunks_per_kernel);

    let mut total = PeRun::default();
    // Min-heap of (load, pe): each (kernel, image, window-chunk) unit goes
    // to the currently least-loaded PE — the controller dispatches the next
    // unit to whichever PE frees up first. Units are dealt kernel-major so a
    // kernel's weights/indices are filled into each PE's buffers at most
    // once per layer (they stay resident while the batch streams through).
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut permuted: Vec<u32> = vec![0; windows];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..pe_count).map(|pe| Reverse((0u64, pe))).collect();
    let mut loaded = vec![false; pe_count];
    for k in 0..kernels {
        loaded.iter_mut().for_each(|l| *l = false);
        for img in 0..images {
            let ops = p.kernel_ops(img, k);
            for (dst, &src) in permuted.iter_mut().zip(&window_order) {
                *dst = ops[src as usize];
            }
            for wc in &window_chunks {
                if wc.is_empty() {
                    continue;
                }
                let slice = &permuted[wc.clone()];
                // Buffer fills are accounted per (PE, kernel) below.
                let run = run_pe(&[slice], cfg.lanes_per_pe, 0);
                // lint:allow(P1) every pop is paired with a push below, so the heap always holds pe_count entries
                let Reverse((load, pe)) = heap.pop().expect("heap holds all PEs");
                let fill = if loaded[pe] {
                    0
                } else {
                    loaded[pe] = true;
                    total.load_cycles += window_len as u64;
                    window_len as u64
                };
                visit(&UnitDispatch {
                    kernel: k,
                    image: img,
                    window_range: (wc.start, wc.end),
                    pe,
                    start_cycle: load,
                    fill_cycles: fill,
                    busy_cycles: run.busy_cycles,
                    macs: run.macs,
                    idle_lane_cycles: run.idle_lane_cycles,
                });
                heap.push(Reverse((load + fill + run.cycles(), pe)));
                total.merge(&run);
            }
        }
    }
    // Synchronisation barrier at the layer boundary: the next layer's input
    // portions are only broadcast once every PE has drained (paper §V,
    // Organisation of PEs).
    let cycles = heap
        .into_iter()
        .map(|Reverse((load, _))| load)
        .max()
        .unwrap_or(0);
    (total, cycles)
}

/// The per-PE balance of one simulated layer, as its `sim/layer` event
/// reports it.
struct PeBalance {
    /// [`barrier_imbalance`] of the layer's PEs.
    imbalance: f64,
    pes: u64,
    busiest: u64,
    idlest: u64,
}

/// Simulates one layer; with a sink installed it also returns the per-PE
/// balance its `sim/layer` event reports. A pure function of its layer, so
/// layers simulate on any thread in any order.
fn simulate_layer(
    cfg: &AccelConfig,
    model: &EnergyModel,
    layer: &LayerWorkload,
    is_first: bool,
    is_last: bool,
) -> (LayerReport, Option<PeBalance>) {
    let p = &layer.profile;
    let (images, kernels, windows) = (p.images(), p.kernels(), p.windows());
    // With a sink installed, accumulate per-PE activity inside the same
    // mapping pass that produces the simulator totals (one iteration, so the
    // emitted utilization/imbalance cannot diverge from the report).
    let obs_on = snapea_obs::enabled();
    let mut per_pe: Vec<PeActivity> = if obs_on {
        vec![PeActivity::default(); cfg.pe_count()]
    } else {
        Vec::new()
    };
    let (total, cycles) = map_layer(cfg, layer, |u| {
        if obs_on {
            per_pe[u.pe].add(u);
        }
    });

    // Data movement.
    let has_index = cfg.index_buffer_bytes > 0;
    let outputs = (images * kernels * windows) as u64;
    // One weight word per busy cycle per PE, amortised by the dataflow's
    // cross-PE weight forwarding (row-stationary reuse on the baseline).
    let weight_fetches = total.busy_cycles / cfg.weight_reuse.max(1) as u64;
    let fills = total.load_cycles;
    // Input operands come from the on-chip buffer, amortised by the
    // dataflow's register-level reuse factor (row-stationary reuses more
    // than SnaPEA's index-directed gather).
    let input_reads = total.macs / cfg.input_reuse.max(1) as u64;
    // Array control overhead: every lane clocks its control/registers each
    // layer cycle regardless of data gating (only the multiplier and
    // accumulator are gated, per the paper), so control scales with cycles,
    // not with executed MACs.
    let control = cycles * cfg.total_macs() as u64;
    let footprint_bytes = (layer.input_words + layer.output_words) * 2; // 16-bit words
    let spilled = footprint_bytes as usize > cfg.io_buffer_bytes;

    let mut dram_words = layer.weight_words;
    if has_index {
        // The index table travels with the weights at half width.
        dram_words += layer.weight_words / 2;
    }
    if is_first || spilled {
        dram_words += layer.input_words * images as u64;
    }
    if is_last || spilled {
        dram_words += layer.output_words * images as u64;
    }

    let events = EnergyEvents {
        macs: total.macs,
        // Operand/accumulator registers per MAC, ungated lane registers
        // during straggler waits, local weight-buffer fetches (0.5 KB SRAM —
        // register class), and per-cycle lane control.
        register_accesses: 3 * (total.macs + total.idle_lane_cycles) + weight_fetches + control,
        buffer_accesses: fills + input_reads + outputs,
        index_accesses: if has_index { weight_fetches + fills } else { 0 },
        inter_pe_words: layer.input_words * images as u64 + layer.weight_words,
        dram_words,
    };
    let energy = EnergyBreakdown::from_events(model, &events);

    let report = LayerReport {
        name: layer.name.clone(),
        cycles,
        macs: total.macs,
        idle_lane_cycles: total.idle_lane_cycles,
        events,
        energy,
        spilled,
    };
    snapea_obs::counter("sim/layers").inc();
    snapea_obs::counter("sim/cycles").add(cycles);
    snapea_obs::counter("sim/macs").add(total.macs);
    let balance = obs_on.then(|| {
        let finish = || per_pe.iter().map(PeActivity::finish_cycle);
        PeBalance {
            imbalance: barrier_imbalance(&per_pe, cycles),
            pes: per_pe.len() as u64,
            busiest: finish().max().unwrap_or(0),
            idlest: finish().min().unwrap_or(0),
        }
    });
    (report, balance)
}

/// Simulates a whole network on the configured accelerator.
///
/// Layers simulate on the worker pool (`snapea_tensor::par`), in blocks of
/// at least `WALK_TASK_FLOOR_OPS` op-count entries, so a network whose
/// whole simulation is below the floor runs inline. Totals fold on the
/// caller in layer order, so every `f64` of the report has the bits of a
/// serial run, and the caller emits the `sim/layer` events in layer order
/// inside the `sim/simulate` span (span paths are per thread).
pub fn simulate(cfg: &AccelConfig, model: &EnergyModel, net: &NetworkWorkload) -> SimReport {
    let _span = snapea_obs::span!("sim/simulate", net.name.clone());
    let n = net.layers.len();
    let entries: usize = net.layers.iter().map(|l| l.profile.ops_slice().len()).sum();
    let chunk = snapea_tensor::par::chunk_for(
        n,
        entries / n.max(1),
        snapea_tensor::par::WALK_TASK_FLOOR_OPS,
    );
    let layers = snapea_tensor::par::parallel_map(n, chunk, |i| {
        simulate_layer(cfg, model, &net.layers[i], i == 0, i + 1 == n)
    });
    let mut per_layer = Vec::with_capacity(n);
    let mut cycles = 0u64;
    let mut energy = EnergyBreakdown::default();
    let mut events = EnergyEvents::default();
    for (r, balance) in layers {
        cycles += r.cycles;
        energy.merge(&r.energy);
        events.merge(&r.events);
        if let Some(b) = balance {
            snapea_obs::event!(
                "sim/layer",
                layer = r.name.clone(),
                cycles = r.cycles,
                macs = r.macs,
                utilization = r.utilization(cfg),
                imbalance = b.imbalance,
                idle_lane_cycles = r.idle_lane_cycles,
                pes = b.pes,
                busiest_pe_cycles = b.busiest,
                idlest_pe_cycles = b.idlest,
                energy_pj = r.energy.total_pj(),
                spilled = r.spilled,
            );
        }
        per_layer.push(r);
    }
    let report = SimReport {
        config: *cfg,
        cycles,
        energy,
        events,
        per_layer,
    };
    snapea_obs::event!(
        "sim/network",
        network = net.name.clone(),
        layers = n as u64,
        cycles = cycles,
        macs = report.events.macs,
        utilization = report.utilization(),
        energy_pj = report.total_pj(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapea::exec::LayerProfile;

    fn synthetic_layer(
        name: &str,
        images: usize,
        kernels: usize,
        windows: usize,
        window_len: usize,
        op_fn: impl Fn(usize, usize, usize) -> u32,
    ) -> LayerWorkload {
        let mut ops = Vec::with_capacity(images * kernels * windows);
        for i in 0..images {
            for k in 0..kernels {
                for w in 0..windows {
                    ops.push(op_fn(i, k, w).min(window_len as u32));
                }
            }
        }
        let profile = LayerProfile::from_ops(images, kernels, windows, window_len, ops);
        LayerWorkload::new(name, profile, (windows * 4) as u64)
    }

    fn dense_net(window_len: usize) -> NetworkWorkload {
        NetworkWorkload {
            name: "dense".into(),
            layers: vec![synthetic_layer("l0", 1, 16, 64, window_len, |_, _, _| {
                window_len as u32
            })],
        }
    }

    #[test]
    fn early_termination_reduces_cycles_vs_dense() {
        let wl = 36;
        let sparse = NetworkWorkload {
            name: "sparse".into(),
            layers: vec![synthetic_layer("l0", 1, 16, 64, wl, |_, k, w| {
                ((k + w) % wl) as u32 + 1
            })],
        };
        let dense = sparse.to_dense();
        let cfg = AccelConfig::snapea();
        let m = EnergyModel::default();
        let rs = simulate(&cfg, &m, &sparse);
        let rd = simulate(&cfg, &m, &dense);
        assert!(rs.cycles < rd.cycles);
        assert!(rs.total_pj() < rd.total_pj());
        assert!(rs.speedup_over(&rd) > 1.0); // sparse is the faster one
        assert!(rs.energy_reduction_over(&rd) > 1.0);
    }

    #[test]
    fn report_macs_match_workload_ops() {
        let net = dense_net(27);
        let cfg = AccelConfig::snapea();
        let r = simulate(&cfg, &EnergyModel::default(), &net);
        assert_eq!(r.events.macs, net.total_ops());
        assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
    }

    #[test]
    fn eyeriss_has_no_index_traffic() {
        let net = dense_net(27);
        let m = EnergyModel::default();
        let re = simulate(&AccelConfig::eyeriss(), &m, &net);
        let rs = simulate(&AccelConfig::snapea(), &m, &net);
        assert_eq!(re.events.index_accesses, 0);
        assert!(rs.events.index_accesses > 0);
        assert_eq!(re.energy.index_pj, 0.0);
    }

    #[test]
    fn equal_peak_throughput_on_dense_workload() {
        // On a dense workload with enough parallelism, SnaPEA and the
        // baseline should be within a small factor of each other (same 256
        // MACs) — SnaPEA pays only buffer-fill replication.
        let net = dense_net(36);
        let m = EnergyModel::default();
        let re = simulate(&AccelConfig::eyeriss(), &m, &net);
        let rs = simulate(&AccelConfig::snapea(), &m, &net);
        let ratio = rs.cycles as f64 / re.cycles as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "dense cycle ratio {ratio} too far from parity"
        );
    }

    #[test]
    fn spill_detection_uses_buffer_capacity() {
        // Two layers so the middle activation can either stay on chip or
        // spill (first-layer input and last-layer output always hit DRAM).
        let mut cfg = AccelConfig::snapea();
        let net = NetworkWorkload {
            name: "n".into(),
            layers: vec![
                synthetic_layer("a", 1, 8, 64, 9, |_, _, _| 9),
                synthetic_layer("b", 1, 8, 64, 9, |_, _, _| 9),
            ],
        };
        let m = EnergyModel::default();
        let roomy = simulate(&cfg, &m, &net);
        assert!(!roomy.per_layer[0].spilled);
        cfg.io_buffer_bytes = 16; // force a spill
        let tight = simulate(&cfg, &m, &net);
        assert!(tight.per_layer[0].spilled && tight.per_layer[1].spilled);
        assert!(tight.events.dram_words > roomy.events.dram_words);
        assert!(tight.total_pj() > roomy.total_pj());
    }

    #[test]
    fn lane_scaling_shows_the_figure12_ushape_on_variable_ops() {
        // Highly variable op counts (early termination) → wider lane groups
        // suffer stragglers; narrower lanes suffer weight-fill replication.
        let wl = 64;
        let layer = synthetic_layer("var", 2, 16, 256, wl, |i, k, w| {
            (((k * 31 + w * 17 + i * 7) % wl) as u32).max(1)
        });
        let net = NetworkWorkload {
            name: "n".into(),
            layers: vec![layer],
        };
        let m = EnergyModel::default();
        let cycles =
            |num, den| simulate(&AccelConfig::snapea_lanes_scaled(num, den), &m, &net).cycles;
        let default = cycles(1, 1);
        let double = cycles(2, 1);
        let quad = cycles(4, 1);
        assert!(
            double > default,
            "2x lanes should be slower: {double} vs {default}"
        );
        assert!(
            quad >= double,
            "4x lanes should not beat 2x: {quad} vs {double}"
        );
    }

    #[test]
    fn per_layer_reports_sum_to_totals() {
        let net = NetworkWorkload {
            name: "two".into(),
            layers: vec![
                synthetic_layer("a", 1, 8, 32, 18, |_, k, _| (k as u32 % 18) + 1),
                synthetic_layer("b", 1, 4, 16, 9, |_, _, w| (w as u32 % 9) + 1),
            ],
        };
        let r = simulate(&AccelConfig::snapea(), &EnergyModel::default(), &net);
        assert_eq!(r.cycles, r.per_layer.iter().map(|l| l.cycles).sum::<u64>());
        let esum: f64 = r.per_layer.iter().map(|l| l.energy.total_pj()).sum();
        assert!((r.total_pj() - esum).abs() < 1e-6);
    }
}
