//! The executor pinned bit for bit to the oracle's independent walks over a
//! fixed matrix of geometries and modes: `f32` outputs, op counts and
//! prediction stats (the f64 masses to the bit), with stats collection on
//! and off, and the q16 datapath's outputs and op counts. Four layers put
//! hostile values around the padding, where a padding tap, a `+0.0` input
//! MACed like any other, is not a no-op: a `-0.0` bias (`-0.0 + 0.0` is
//! `+0.0`), an infinite weight (`0.0 · inf` is NaN) and a NaN weight, alone
//! and with a `-0.0` bias. Their exact-mode outputs and op counts are also
//! pinned to values derived by hand.

use snapea_suite::core::exec::{
    execute_conv, execute_conv_q16, execute_conv_stats, ExecResult, LayerConfig, PredictionStats,
};
use snapea_suite::core::params::{KernelMode, LayerParams};
use snapea_suite::nn::ops::Conv2d;
use snapea_suite::oracle::reference::{self, OracleLayer};
use snapea_suite::tensor::q16::Q16Format;
use snapea_suite::tensor::{init, ConvGeom, Shape4, Tensor4};

fn assert_walk_matches(label: &str, got: &ExecResult, want: &OracleLayer) {
    let (g, w) = (got.output.as_slice(), want.output.as_slice());
    assert_eq!(g.len(), w.len(), "{label}: output length");
    for (i, (a, b)) in g.iter().zip(w).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: element {i}: {a} vs {b}");
    }
    assert_eq!(got.profile.ops_slice(), &want.ops[..], "{label}: op counts");
}

/// Every field of `s`, the f64 masses as bits, so a NaN mass matches itself.
fn stats_bits(s: &PredictionStats) -> [u64; 7] {
    [
        s.negative_windows,
        s.positive_windows,
        s.true_negatives,
        s.false_negatives,
        s.sign_terminations,
        s.positive_mass.to_bits(),
        s.squashed_mass.to_bits(),
    ]
}

/// A 3×3 pad-1 layer of two kernels over two 4×4 images filled with `x`.
/// Each kernel has one non-negative weight, `w0`, at tap `(0, 0)` for
/// kernel 0 and `(2, 2)` for kernel 1, and `-1.0` elsewhere, so exact mode
/// walks it first (`neg_start = 1`, an empty lane prefix). It is a padding
/// tap on kernel 0's top row and left column and on kernel 1's bottom row
/// and right column ([`w0_is_padding`]).
fn hostile_layer(w0: f32, bias: f32, x: f32) -> (Conv2d, Tensor4) {
    let mut weight = vec![-1.0; 18];
    weight[0] = w0;
    weight[17] = w0;
    let weight = Tensor4::from_vec(Shape4::new(2, 1, 3, 3), weight).expect("2×1×3×3 weights");
    let conv = Conv2d::from_parts(weight, vec![bias; 2], ConvGeom::square(3, 1, 1));
    (conv, Tensor4::full(Shape4::new(2, 1, 4, 4), x))
}

/// Whether `w0` sits on a padding tap in window `w` (of 16, row-major) of
/// kernel `k` of [`hostile_layer`]: 7 windows per kernel.
fn w0_is_padding(k: usize, w: usize) -> bool {
    let edge = if k == 0 { 0 } else { 3 };
    w / 4 == edge || w % 4 == edge
}

/// An exact-mode output of [`hostile_layer`], derived by hand. Every window
/// walks all 9 MACs, since no partial sum falls below zero, and outputs
/// `+0.0`, `+inf` or NaN; a NaN is pinned by position, not bits.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Want {
    PosZero,
    PosInf,
    Nan,
}

fn assert_hand_derived(label: &str, got: &ExecResult, (at_padding, elsewhere): (Want, Want)) {
    let (kernels, windows) = (got.profile.kernels(), got.profile.windows());
    assert_eq!((kernels, windows), (2, 16), "{label}: layout");
    for (plane, values) in got.output.as_slice().chunks_exact(windows).enumerate() {
        let k = plane % kernels;
        for (w, &v) in values.iter().enumerate() {
            let is = match v {
                v if v.is_nan() => Want::Nan,
                v if v.to_bits() == 0.0f32.to_bits() => Want::PosZero,
                v if v == f32::INFINITY => Want::PosInf,
                v => panic!("{label}: plane {plane} window {w}: {v}"),
            };
            let want = if w0_is_padding(k, w) {
                at_padding
            } else {
                elsewhere
            };
            assert_eq!(is, want, "{label}: plane {plane} window {w}: {v}");
        }
    }
    assert!(
        got.profile.ops_slice().iter().all(|&o| o == 9),
        "{label}: every window takes 9 MACs"
    );
}

#[test]
fn executor_matches_the_oracle_across_geometries_and_modes() {
    // A non-square kernel on a non-square input: a swapped row/column in the
    // padded copy or the window plan shows only here.
    let tall = ConvGeom {
        kh: 3,
        kw: 1,
        stride: 2,
        pad: 1,
    };
    let random = [
        (50, ConvGeom::square(3, 1, 1), (9, 9)), // borders on every edge
        (51, ConvGeom::square(3, 1, 0), (9, 9)), // all interior
        (52, ConvGeom::square(3, 2, 1), (9, 9)), // strided
        (53, ConvGeom::square(1, 1, 0), (9, 9)), // 1x1
        (54, ConvGeom::square(5, 1, 2), (9, 9)), // wide borders
        (55, tall, (7, 11)),                     // 3x1 kernel on a 7x11 input
    ]
    .map(|(seed, geom, (h, w))| {
        let conv = Conv2d::new(3, 5, geom, &mut init::rng(seed));
        let input =
            init::uniform4(Shape4::new(2, 3, h, w), 1.0, &mut init::rng(seed + 100)).map(f32::abs);
        (format!("seed {seed}"), conv, input, None)
    });
    // Each with its hand-derived exact-mode outputs: where `w0` is a
    // padding tap, and elsewhere.
    let hostile = [
        // The first MAC, on an input or a padding tap, is -0.0 + 0.0 =
        // +0.0, so no window ends at -0.0.
        (
            "-0.0 bias",
            hostile_layer(0.5, -0.0, 0.0),
            (Want::PosZero, Want::PosZero),
        ),
        // 0.0 · inf = NaN where the +inf tap is padding; 1.0 · inf = +inf,
        // and the sign check never fires, elsewhere.
        (
            "+inf weight",
            hostile_layer(f32::INFINITY, 0.5, 1.0),
            (Want::Nan, Want::PosInf),
        ),
        // A NaN weight is non-negative, walked first, and makes every sum
        // NaN, which no PAU check terminates.
        (
            "NaN weight",
            hostile_layer(f32::NAN, 0.5, 1.0),
            (Want::Nan, Want::Nan),
        ),
        (
            "NaN weight, -0.0 bias",
            hostile_layer(f32::NAN, -0.0, 0.0),
            (Want::Nan, Want::Nan),
        ),
    ]
    .map(|(name, (conv, input), hand)| (name.to_string(), conv, input, Some(hand)));
    for (case, conv, input, hand) in random.into_iter().chain(hostile) {
        let geom = conv.geom();
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
            let label = format!("{case} {mode}");
            let cfg = LayerConfig::from_params(&conv, &params);
            let want = reference::execute_layer(conv.weight(), conv.bias(), geom, &input, &params);

            let plain = execute_conv(&conv, &input, &cfg);
            assert_walk_matches(&format!("{label}, stats off"), &plain, &want);
            assert_eq!(plain.stats, PredictionStats::default(), "{label}");
            if let (Some(hand), "exact") = (hand, mode) {
                assert_hand_derived(&label, &plain, hand);
                // The dense forward MACs a padding tap as a zero too.
                let nan = |t: &Tensor4| t.iter().map(|v| v.is_nan()).collect::<Vec<_>>();
                let dense = conv.forward(&input);
                assert_eq!(nan(&plain.output), nan(&dense), "{label}: NaN windows");
            }

            let stats = execute_conv_stats(&conv, &input, &cfg);
            assert_walk_matches(&format!("{label}, stats on"), &stats, &want);
            assert_eq!(
                stats_bits(&stats.stats),
                stats_bits(&want.stats()),
                "{label}: stats, f64 masses bitwise"
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
