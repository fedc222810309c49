//! The executor pinned bit for bit to the oracle's independent walks over a
//! fixed matrix of geometries and modes: `f32` outputs, op counts and
//! prediction stats (the f64 masses to the bit), with stats collection on
//! and off, and the q16 datapath's outputs and op counts.

use snapea_suite::core::exec::{
    execute_conv, execute_conv_q16, execute_conv_stats, ExecResult, LayerConfig, PredictionStats,
};
use snapea_suite::core::params::{KernelMode, LayerParams};
use snapea_suite::nn::ops::Conv2d;
use snapea_suite::oracle::reference::{self, OracleLayer};
use snapea_suite::tensor::q16::Q16Format;
use snapea_suite::tensor::{init, ConvGeom, Shape4};

fn assert_walk_matches(label: &str, got: &ExecResult, want: &OracleLayer) {
    let (g, w) = (got.output.as_slice(), want.output.as_slice());
    assert_eq!(g.len(), w.len(), "{label}: output length");
    for (i, (a, b)) in g.iter().zip(w).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: element {i}: {a} vs {b}");
    }
    assert_eq!(got.profile.ops_slice(), &want.ops[..], "{label}: op counts");
}

#[test]
fn executor_matches_the_oracle_across_geometries_and_modes() {
    // A non-square kernel on a non-square input: a swapped row/column in the
    // border bounds check or the window plan shows only here.
    let tall = ConvGeom {
        kh: 3,
        kw: 1,
        stride: 2,
        pad: 1,
    };
    for (seed, geom, (h, w)) in [
        (50, ConvGeom::square(3, 1, 1), (9, 9)), // borders on every edge
        (51, ConvGeom::square(3, 1, 0), (9, 9)), // all interior
        (52, ConvGeom::square(3, 2, 1), (9, 9)), // strided
        (53, ConvGeom::square(1, 1, 0), (9, 9)), // 1x1
        (54, ConvGeom::square(5, 1, 2), (9, 9)), // wide borders
        (55, tall, (7, 11)),                     // 3x1 kernel on a 7x11 input
    ] {
        let mut rng = init::rng(seed);
        let conv = Conv2d::new(3, 5, geom, &mut rng);
        let input =
            init::uniform4(Shape4::new(2, 3, h, w), 1.0, &mut init::rng(seed + 100)).map(f32::abs);
        let groups = 4.min(conv.window_len());
        for (mode, params) in [
            ("exact", LayerParams::Exact),
            (
                "predictive",
                LayerParams::Predictive(vec![KernelMode::spec(0.05, groups); conv.c_out()]),
            ),
            (
                "+inf threshold",
                LayerParams::Predictive(vec![KernelMode::spec(f32::INFINITY, 2); conv.c_out()]),
            ),
        ] {
            let label = format!("seed {seed} {mode}");
            let cfg = LayerConfig::from_params(&conv, &params);
            let want = reference::execute_layer(conv.weight(), conv.bias(), geom, &input, &params);

            let plain = execute_conv(&conv, &input, &cfg);
            assert_walk_matches(&format!("{label}, stats off"), &plain, &want);
            assert_eq!(plain.stats, PredictionStats::default(), "{label}");

            let stats = execute_conv_stats(&conv, &input, &cfg);
            assert_walk_matches(&format!("{label}, stats on"), &stats, &want);
            let want_stats = want.stats();
            assert_eq!(stats.stats, want_stats, "{label}");
            assert_eq!(
                stats.stats.positive_mass.to_bits(),
                want_stats.positive_mass.to_bits(),
                "{label}: f64 mass must match bitwise"
            );
            assert_eq!(
                stats.stats.squashed_mass.to_bits(),
                want_stats.squashed_mass.to_bits(),
                "{label}: f64 mass must match bitwise"
            );

            let fmt = Q16Format::new(10);
            let q = execute_conv_q16(&conv, &input, &cfg, fmt);
            let q_want = reference::execute_layer_q16(
                conv.weight(),
                conv.bias(),
                geom,
                &input,
                &params,
                fmt,
            );
            assert_walk_matches(&format!("{label}, q16"), &q, &q_want);
        }
    }
}
