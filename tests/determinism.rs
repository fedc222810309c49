//! Thread-count invariance: every parallelised path must produce
//! bit-identical results whether the worker pool runs 1, 2, 4, or 8
//! threads.
//!
//! The guarantees under test are the two rules of the threading model
//! (DESIGN.md): workers only write ownership-partitioned disjoint slices,
//! and floating-point reductions merge in an order fixed independently of
//! the thread count. `SNAPEA_THREADS=1` is additionally the exact serial
//! loop, so these tests pin every parallel run to serial results
//! bit-for-bit — including counts above the persistent pool's previously
//! seen size, which exercises lazy pool growth mid-process.

use snapea_suite::accel::sim::simulate;
use snapea_suite::accel::workload::{LayerWorkload, NetworkWorkload};
use snapea_suite::accel::{AccelConfig, EnergyModel};
use snapea_suite::core::exec::{execute_conv_q16, execute_conv_stats, LayerConfig, LayerProfile};
use snapea_suite::core::optimizer::profiling::profile_layer_kernels;
use snapea_suite::core::params::{KernelMode, KernelParams, LayerParams, NetworkParams};
use snapea_suite::core::spec_net::profile_network;
use snapea_suite::nn::data::SynthShapes;
use snapea_suite::nn::ops::{Conv2d, Lrn, MaxPool};
use snapea_suite::nn::zoo::{Workload, INPUT_SIZE};
use snapea_suite::tensor::im2col::ConvGeom;
use snapea_suite::tensor::{init, par, q16, Shape4, Tensor4};
use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

/// Thread counts every path is pinned at, against the 1-thread serial run.
const THREAD_GRID: [usize; 3] = [2, 4, 8];

/// Seeded mini-net layer: enough images/kernels/windows that 8 workers all
/// get work, small enough to run in the tier-1 gate.
fn mini_layer() -> (Conv2d, Tensor4) {
    let mut rng = init::rng(42);
    let conv = Conv2d::new(3, 6, ConvGeom::square(3, 1, 1), &mut rng);
    let input = init::uniform4(Shape4::new(4, 3, 9, 9), 1.0, &mut rng).map(f32::abs);
    (conv, input)
}

/// Seeded conv whose batch splits across the pool: each image is 288 Ki
/// GEMM MACs, above the GEMM floor, so every image is a task of its own.
fn gemm_layer() -> (Conv2d, Tensor4) {
    let mut rng = init::rng(43);
    let conv = Conv2d::new(8, 16, ConvGeom::square(3, 1, 1), &mut rng);
    let input = init::uniform4(Shape4::new(4, 8, 16, 16), 1.0, &mut rng);
    (conv, input)
}

/// Runs `f` serially (1 thread), then at each grid count, handing
/// `(serial, parallel, threads)` to `check` per grid point.
fn against_serial<R>(mut f: impl FnMut() -> R, mut check: impl FnMut(&R, &R, usize)) {
    // The thread count is process-wide: one grid at a time, so no test's
    // serial run lowers the count under another's threaded run.
    static GRID: Mutex<()> = Mutex::new(());
    let _grid = GRID.lock().unwrap_or_else(PoisonError::into_inner);
    let prev = par::threads();
    par::set_threads(1);
    let serial = f();
    for &t in &THREAD_GRID {
        par::set_threads(t);
        let parallel = f();
        check(&serial, &parallel, t);
    }
    par::set_threads(prev);
}

/// [`against_serial`] for a path the pool must split: every threaded run
/// must raise `par/invocations`, or a floor that swallows the input would
/// let the comparison pass vacuously.
fn against_serial_split<R>(mut f: impl FnMut() -> R, mut check: impl FnMut(&R, &R, usize)) {
    let invocations = snapea_suite::obs::counter("par/invocations");
    let before = Cell::new(0);
    against_serial(
        || {
            before.set(invocations.get());
            f()
        },
        |serial, parallel, t| {
            assert!(
                invocations.get() > before.get(),
                "no pool dispatch at {t} threads: the floor swallowed the input"
            );
            check(serial, parallel, t);
        },
    );
}

/// Every element's bits, so `-0.0` and NaN payloads count.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn conv_forward_is_bit_identical_across_thread_counts() {
    let (conv, input) = gemm_layer();
    against_serial_split(
        || conv.forward(&input),
        |serial, parallel, t| {
            assert_eq!(
                bits(serial.as_slice()),
                bits(parallel.as_slice()),
                "{t} threads"
            )
        },
    );
}

#[test]
fn conv_backward_is_bit_identical_across_thread_counts() {
    let (conv, input) = gemm_layer();
    let grad_out = init::uniform4(conv.out_shape(input.shape()), 1.0, &mut init::rng(7));
    against_serial_split(
        || conv.backward(&input, &grad_out),
        |(gi1, gw1, gb1), (gin, gwn, gbn), t| {
            assert_eq!(
                bits(gi1.as_slice()),
                bits(gin.as_slice()),
                "grad_input at {t}"
            );
            assert_eq!(
                bits(gw1.as_slice()),
                bits(gwn.as_slice()),
                "grad_weight at {t}"
            );
            assert_eq!(bits(gb1), bits(gbn), "grad_bias at {t}");
        },
    );
}

#[test]
fn executor_stats_are_bit_identical_across_thread_counts() {
    let (conv, input) = mini_layer();
    for cfg in [
        LayerConfig::exact(&conv),
        LayerConfig::predictive_uniform(&conv, KernelParams::new(0.05, 4)),
    ] {
        against_serial_split(
            || execute_conv_stats(&conv, &input, &cfg),
            |serial, parallel, t| {
                assert_eq!(
                    serial.output.as_slice(),
                    parallel.output.as_slice(),
                    "{t} threads"
                );
                assert_eq!(serial.profile, parallel.profile, "{t} threads");
                // PredictionStats carries f64 masses: per-pair accumulation
                // merged in pair order makes even those bit-identical, for
                // any task split the chunk floor picks.
                assert_eq!(serial.stats, parallel.stats, "{t} threads");
            },
        );
    }
}

#[test]
fn executor_q16_is_bit_identical_across_thread_counts() {
    let (conv, input) = mini_layer();
    let cfg = LayerConfig::predictive_uniform(&conv, KernelParams::new(0.05, 4));
    let fmt = q16::Q16Format::default();
    against_serial_split(
        || execute_conv_q16(&conv, &input, &cfg, fmt),
        |serial, parallel, t| {
            assert_eq!(
                serial.output.as_slice(),
                parallel.output.as_slice(),
                "{t} threads"
            );
            assert_eq!(serial.profile, parallel.profile, "{t} threads");
        },
    );
}

#[test]
fn artifact_round_trip_is_bit_identical_across_thread_counts() {
    // The compiled-artifact contract: an executor fed a loaded artifact
    // produces byte-for-byte the outputs of one fed the freshly-compiled
    // model, at any thread count. Seeded random models (geometry ×
    // speculation parameters × weights) come from the oracle's generator;
    // they are too small to split, so a zoo net carries the threaded case.
    use snapea_suite::core::artifact::CompiledModel;
    use snapea_suite::nn::graph::GraphBuilder;
    use snapea_suite::nn::zoo::mini_squeezenet;
    use snapea_suite::oracle::CaseConfig;

    let net = mini_squeezenet(4);
    let mut params = NetworkParams::new();
    for id in net.conv_ids() {
        if let snapea_suite::nn::graph::Op::Conv(conv) = &net.node(id).op {
            if net.feeds_only_relu(id) {
                params.set(
                    id,
                    LayerParams::uniform(conv.c_out(), KernelParams::new(0.1, 2)),
                );
            }
        }
    }
    let compiled = CompiledModel::compile(
        &net,
        &params,
        (3, INPUT_SIZE, INPUT_SIZE),
        q16::Q16Format::default(),
    );
    let loaded = CompiledModel::from_bytes(&compiled.to_bytes())
        .unwrap_or_else(|e| panic!("SqueezeNet: valid artifact rejected: {e}"));
    let batch = SynthShapes::batch(&SynthShapes::new(INPUT_SIZE, 4).generate(8, 0xA27));
    against_serial_split(
        || (compiled.forward(&batch), loaded.forward(&batch)),
        |(serial_fresh, serial_loaded), (par_fresh, par_loaded), t| {
            for (label, serial, parallel) in [
                ("fresh", serial_fresh, par_fresh),
                ("loaded", serial_loaded, par_loaded),
                ("loaded vs fresh", par_fresh, par_loaded),
            ] {
                assert_eq!(serial.len(), parallel.len());
                for (node, (a, b)) in serial.iter().zip(parallel).enumerate() {
                    assert_eq!(
                        bits(a.as_slice()),
                        bits(b.as_slice()),
                        "SqueezeNet {label} node {node} at {t} threads"
                    );
                }
            }
        },
    );

    for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
        let cfg = CaseConfig::generate(seed);
        let (conv, input) = cfg.build();
        let mut b = GraphBuilder::new();
        let x = b.input();
        let _ = b.conv_layer("conv", x, conv);
        let graph = b.build();
        let mut params = NetworkParams::new();
        params.set(1, cfg.params());
        let compiled = CompiledModel::compile(
            &graph,
            &params,
            (cfg.c_in, cfg.h, cfg.w),
            q16::Q16Format::default(),
        );
        let loaded = CompiledModel::from_bytes(&compiled.to_bytes())
            .unwrap_or_else(|e| panic!("seed {seed:#x}: valid artifact rejected: {e}"));
        against_serial(
            || (compiled.forward(&input), loaded.forward(&input)),
            |(serial_fresh, serial_loaded), (par_fresh, par_loaded), t| {
                for (label, serial, parallel) in [
                    ("fresh", serial_fresh, par_fresh),
                    ("loaded", serial_loaded, par_loaded),
                ] {
                    assert_eq!(serial.len(), parallel.len());
                    for (a, b) in serial.iter().zip(parallel) {
                        assert_eq!(
                            a.as_slice(),
                            b.as_slice(),
                            "seed {seed:#x} {label} at {t} threads"
                        );
                    }
                }
                // And loaded tracks fresh bit-for-bit at this thread count.
                for (a, b) in par_fresh.iter().zip(par_loaded) {
                    assert_eq!(a.as_slice(), b.as_slice(), "seed {seed:#x} at {t} threads");
                }
            },
        );
    }
}

#[test]
fn optimizer_profiling_is_bit_identical_across_thread_counts() {
    let (conv, input) = mini_layer();
    against_serial_split(
        || profile_layer_kernels(&conv, &input, &[1, 2, 4], &[0.25, 0.5, 0.9], 1.0),
        |serial, parallel, t| {
            assert_eq!(serial, parallel, "{t} threads");
        },
    );
}

#[test]
fn simulate_is_bit_identical_across_thread_counts() {
    // Four layers of 2 images × 16 kernels × 1,024 windows with scattered
    // op counts: enough entries per layer that the simulation splits.
    let layers = (0..4u32)
        .map(|l| {
            let window_len = 27 + 9 * l as usize;
            let ops = (0..2 * 16 * 1024u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> (7 + l)) % window_len as u32 + 1)
                .map(|o| o.min(window_len as u32))
                .collect();
            let profile = LayerProfile::from_ops(2, 16, 1024, window_len, ops);
            LayerWorkload::new(format!("l{l}"), profile, 4096).with_spatial(32, 32)
        })
        .collect();
    let net = NetworkWorkload {
        name: "grid".into(),
        layers,
    };
    let model = EnergyModel::default();
    for cfg in [AccelConfig::snapea(), AccelConfig::eyeriss()] {
        against_serial_split(
            || simulate(&cfg, &model, &net),
            |serial, parallel, t| {
                assert_eq!(serial, parallel, "{t} threads");
                assert_eq!(
                    serial.total_pj().to_bits(),
                    parallel.total_pj().to_bits(),
                    "{t} threads"
                );
            },
        );
    }
}

#[test]
fn layer_configs_are_bit_identical_across_thread_counts() {
    // 32 kernels of 144 weights: three kernel blocks at the reorder floor.
    let conv = Conv2d::new(16, 32, ConvGeom::square(3, 1, 1), &mut init::rng(5));
    let modes: Vec<KernelMode> = (0..32)
        .map(|k| match k % 3 {
            0 => KernelMode::Exact,
            r => KernelMode::Speculate(KernelParams::new(0.1 * r as f32, 1 + k % 9)),
        })
        .collect();
    for params in [LayerParams::Exact, LayerParams::Predictive(modes)] {
        against_serial_split(
            || LayerConfig::from_params(&conv, &params),
            |serial, parallel, t| assert_eq!(serial, parallel, "{t} threads"),
        );
    }
}

#[test]
fn lrn_and_max_pool_are_bit_identical_across_thread_counts() {
    // Eight images, signed values: each op splits by image.
    let input = init::uniform4(Shape4::new(8, 16, 32, 32), 1.0, &mut init::rng(31));
    let lrn = Lrn::default();
    against_serial_split(
        || lrn.forward(&input),
        |serial, parallel, t| {
            assert_eq!(
                bits(serial.as_slice()),
                bits(parallel.as_slice()),
                "LRN at {t} threads"
            )
        },
    );
    for pool in [MaxPool::new(2, 2), MaxPool::with_pad(3, 1, 1)] {
        against_serial_split(
            || pool.forward(&input),
            |serial, parallel, t| {
                assert_eq!(
                    bits(serial.as_slice()),
                    bits(parallel.as_slice()),
                    "{pool:?} at {t} threads"
                );
            },
        );
    }
}

#[test]
fn network_profile_is_bit_identical_across_thread_counts() {
    let net = Workload::AlexNet.build(10);
    let data = SynthShapes::new(INPUT_SIZE, 10).generate(8, 0x601D);
    let batch = SynthShapes::batch(&data);
    // Every conv speculates, so the statistics carry masses.
    let mut params = NetworkParams::new();
    for (id, node) in net.nodes().iter().enumerate() {
        if let snapea_suite::nn::graph::Op::Conv(conv) = &node.op {
            let groups = 4.min(conv.window_len());
            let p = KernelParams::new(0.05, groups);
            params.set(id, LayerParams::uniform(conv.c_out(), p));
        }
    }
    against_serial_split(
        || profile_network(&net, &params, &batch, true),
        |serial, parallel, t| {
            assert_eq!(serial.layers.len(), parallel.layers.len());
            for ((id, name, a), (_, _, b)) in serial.layers.iter().zip(&parallel.layers) {
                assert_eq!(a, b, "layer {id} ({name}) op counts at {t} threads");
            }
            let (a, b) = (&serial.stats, &parallel.stats);
            assert_eq!(a, b, "stats at {t} threads");
            for (x, y) in [
                (a.positive_mass, b.positive_mass),
                (a.squashed_mass, b.squashed_mass),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "stats mass at {t} threads");
            }
        },
    );
}
