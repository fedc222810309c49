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

use snapea_suite::core::exec::{execute_conv_q16, execute_conv_stats, LayerConfig};
use snapea_suite::core::optimizer::profiling::profile_layer_kernels;
use snapea_suite::core::params::KernelParams;
use snapea_suite::nn::ops::Conv2d;
use snapea_suite::tensor::im2col::ConvGeom;
use snapea_suite::tensor::{init, par, q16, Shape4, Tensor4};

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

/// Runs `f` serially (1 thread), then at each grid count, handing
/// `(serial, parallel, threads)` to `check` per grid point.
fn against_serial<R>(mut f: impl FnMut() -> R, mut check: impl FnMut(&R, &R, usize)) {
    // Real worker concurrency even on a single-core runner: without this
    // the pool clamps participants to the machine and the grid runs would
    // pass vacuously.
    par::set_oversubscribe(true);
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

#[test]
fn conv_forward_is_bit_identical_across_thread_counts() {
    let (conv, input) = mini_layer();
    against_serial(
        || conv.forward(&input),
        |serial, parallel, t| {
            assert_eq!(serial.as_slice(), parallel.as_slice(), "{t} threads");
        },
    );
}

#[test]
fn conv_backward_is_bit_identical_across_thread_counts() {
    let (conv, input) = mini_layer();
    let grad_out = init::uniform4(conv.out_shape(input.shape()), 1.0, &mut init::rng(7));
    against_serial(
        || conv.backward(&input, &grad_out),
        |(gi1, gw1, gb1), (gin, gwn, gbn), t| {
            assert_eq!(gi1.as_slice(), gin.as_slice(), "grad_input at {t}");
            assert_eq!(gw1.as_slice(), gwn.as_slice(), "grad_weight at {t}");
            assert_eq!(gb1, gbn, "grad_bias at {t}");
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
        against_serial(
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
    against_serial(
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
    // speculation parameters × weights) come from the oracle's generator.
    use snapea_suite::core::artifact::CompiledModel;
    use snapea_suite::core::params::NetworkParams;
    use snapea_suite::nn::graph::GraphBuilder;
    use snapea_suite::oracle::CaseConfig;

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
    against_serial(
        || profile_layer_kernels(&conv, &input, &[1, 2, 4], &[0.25, 0.5, 0.9], 1.0),
        |serial, parallel, t| {
            assert_eq!(serial, parallel, "{t} threads");
        },
    );
}
