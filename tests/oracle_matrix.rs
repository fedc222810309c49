//! The executor pinned bit for bit to the oracle's independent walks over a
//! fixed matrix of geometries and modes: `f32` outputs, op counts and
//! prediction stats (the f64 masses to the bit), with stats collection on
//! and off, and the q16 datapath's outputs and op counts at 10 and at 15
//! fractional bits. Four layers put hostile values around the padding, where
//! a padding tap, a `+0.0` input MACed like any other, is not a no-op: a
//! `-0.0` bias (`-0.0 + 0.0` is `+0.0`), an infinite weight (`0.0 · inf` is
//! NaN) and a NaN weight, alone and with a `-0.0` bias. One more layer pins
//! the summation order: a window sums in walk order, one `acc + x·w` per
//! position, whether it is walked in an eight-window batch or alone. These
//! five layers' exact-mode outputs and op counts are also pinned to values
//! derived by hand, which the oracle's dense convolution computes too.

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
/// walks it first (`neg_start = 1`, a one-position probe-free prefix). It
/// is a padding tap on kernel 0's top row and left column and on kernel 1's
/// bottom row and right column ([`w0_is_padding`]).
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

/// One window's exact-mode output, derived by hand: a value to the bit, or
/// NaN, which is pinned by position, not bits.
#[derive(Debug, Clone, Copy)]
enum Want {
    Bits(f32),
    Nan,
}

/// A layer's exact-mode outputs, derived by hand: every output element in
/// layout order, and the MACs every window takes.
struct Hand {
    outputs: Vec<Want>,
    macs: u32,
}

/// [`hostile_layer`]'s [`Hand`]: `at_padding` where `w0` is a padding tap,
/// `elsewhere` otherwise. Every window walks all 9 MACs, since no partial
/// sum falls below zero.
fn hostile_hand(at_padding: Want, elsewhere: Want) -> Hand {
    let outputs = (0..2 * 2 * 16)
        .map(|i| {
            let (k, w) = (i / 16 % 2, i % 16);
            if w0_is_padding(k, w) {
                at_padding
            } else {
                elsewhere
            }
        })
        .collect();
    Hand { outputs, macs: 9 }
}

/// A 1×1 layer of one kernel of eight `1.0` weights and bias `0.0`, over one
/// 3×3 image whose channel 0 holds `2^24` and whose channels 1–7 hold `1.0`:
/// nine windows, eight walked as a batch and one alone. Summed in walk order,
/// `2^24 + 1` rounds back to `2^24` seven times, so every window outputs
/// `2^24` after 8 MACs. Folding the eight products through a pairwise tree
/// would give `((2^24 + 1) + 2) + 4 = 2^24 + 6` instead.
fn order_layer() -> ((Conv2d, Tensor4), Hand) {
    let weight = Tensor4::full(Shape4::new(1, 8, 1, 1), 1.0);
    let conv = Conv2d::from_parts(weight, vec![0.0], ConvGeom::square(1, 1, 0));
    let input = Tensor4::from_fn(Shape4::new(1, 8, 3, 3), |_, c, _, _| {
        if c == 0 {
            16_777_216.0
        } else {
            1.0
        }
    });
    let hand = Hand {
        outputs: vec![Want::Bits(16_777_216.0); 9],
        macs: 8,
    };
    ((conv, input), hand)
}

fn assert_hand_derived(label: &str, got: &Tensor4, hand: &Hand) {
    assert_eq!(got.shape().len(), hand.outputs.len(), "{label}: layout");
    for (i, (&v, want)) in got.iter().zip(&hand.outputs).enumerate() {
        let holds = match *want {
            Want::Bits(b) => v.to_bits() == b.to_bits(),
            Want::Nan => v.is_nan(),
        };
        assert!(holds, "{label}: element {i}: {v}, want {want:?}");
    }
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
            (
                hostile_layer(0.5, -0.0, 0.0),
                hostile_hand(Want::Bits(0.0), Want::Bits(0.0)),
            ),
        ),
        // 0.0 · inf = NaN where the +inf tap is padding; 1.0 · inf = +inf,
        // and the sign check never fires, elsewhere.
        (
            "+inf weight",
            (
                hostile_layer(f32::INFINITY, 0.5, 1.0),
                hostile_hand(Want::Nan, Want::Bits(f32::INFINITY)),
            ),
        ),
        // A NaN weight is non-negative, walked first, and makes every sum
        // NaN, which no PAU check terminates.
        (
            "NaN weight",
            (
                hostile_layer(f32::NAN, 0.5, 1.0),
                hostile_hand(Want::Nan, Want::Nan),
            ),
        ),
        (
            "NaN weight, -0.0 bias",
            (
                hostile_layer(f32::NAN, -0.0, 0.0),
                hostile_hand(Want::Nan, Want::Nan),
            ),
        ),
        ("walk order", order_layer()),
    ]
    .map(|(name, ((conv, input), hand))| (name.to_string(), conv, input, Some(hand)));
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
            if let (Some(hand), "exact") = (&hand, mode) {
                assert_hand_derived(&label, &plain.output, hand);
                assert!(
                    plain.profile.ops_slice().iter().all(|&o| o == hand.macs),
                    "{label}: every window takes {} MACs",
                    hand.macs
                );
                let dense = reference::conv_dense(conv.weight(), conv.bias(), geom, &input);
                assert_hand_derived(&format!("{label}, conv_dense"), &dense, hand);
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

            for frac_bits in [10, 15] {
                let fmt = Q16Format::new(frac_bits);
                let q = execute_conv_q16(&conv, &input, &cfg, fmt);
                let q_want = reference::execute_layer_q16(
                    conv.weight(),
                    conv.bias(),
                    geom,
                    &input,
                    &params,
                    fmt,
                );
                assert_walk_matches(&format!("{label}, q16 at {frac_bits} bits"), &q, &q_want);
            }
        }
    }
}
