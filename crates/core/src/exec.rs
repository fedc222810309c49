//! The SnaPEA convolution executor: walks every convolution window
//! weight-by-weight in the reordered order, probing the PAU before each MAC
//! exactly as the hardware lanes do (paper §V), and records the per-window
//! operation counts — the function `Op(o, Th, N)` of the paper's Eq. (1).
//!
//! The walk is window-major, as a PE broadcasts one reordered weight per
//! cycle to lanes that each hold a window: a task gathers a tile of up to
//! 64 im2col columns (one window each) once, then walks every kernel over
//! it, with one vector MAC per walk position and one masked PAU probe per
//! probe position.

use crate::params::{KernelMode, KernelParams, LayerParams};
use crate::pau::{Pau, PauAction, TerminationKind};
use crate::reorder::{predictive_reorder, sign_reorder, ReorderedKernel};
use snapea_nn::ops::Conv2d;
use snapea_tensor::im2col::ConvGeom;
use snapea_tensor::q16::{quantize_slice, Q16Format, QAcc, Q16};
use snapea_tensor::{Shape4, Tensor4};
use std::borrow::Cow;
use std::ops::Range;

/// Per-kernel execution state: the reordered weights (weight buffer + index
/// buffer) and the PAU configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelExec {
    /// The reordered kernel (weight values + index buffer).
    pub reordered: ReorderedKernel,
    /// The lane's PAU configuration for this kernel.
    pub pau: Pau,
}

impl KernelExec {
    /// Pairs a reordered kernel with its PAU configuration.
    pub fn new(reordered: ReorderedKernel, pau: Pau) -> Self {
        Self { reordered, pau }
    }
}

/// Execution configuration of one convolution layer: one [`KernelExec`] per
/// output channel.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerConfig {
    kernels: Vec<KernelExec>,
}

impl LayerConfig {
    /// Exact-mode configuration: sign-based reordering for every kernel.
    pub fn exact(conv: &Conv2d) -> Self {
        let kernels = (0..conv.c_out())
            .map(|k| {
                let r = sign_reorder(conv.weight().item(k));
                let pau = Pau::exact(&r);
                KernelExec::new(r, pau)
            })
            .collect();
        Self { kernels }
    }

    /// Predictive-mode configuration with per-kernel modes (speculating
    /// kernels carry their `(Th, N)`; exact kernels fall back to sign-based
    /// reordering).
    ///
    /// # Panics
    ///
    /// Panics if `modes.len() != conv.c_out()` or any `groups` exceeds the
    /// window length.
    pub fn predictive(conv: &Conv2d, modes: &[KernelMode]) -> Self {
        assert_eq!(modes.len(), conv.c_out(), "one mode per kernel");
        let kernels = modes
            .iter()
            .enumerate()
            .map(|(k, mode)| match mode {
                KernelMode::Exact => {
                    let r = sign_reorder(conv.weight().item(k));
                    let pau = Pau::exact(&r);
                    KernelExec::new(r, pau)
                }
                KernelMode::Speculate(p) => {
                    let r = predictive_reorder(conv.weight().item(k), p.groups);
                    let pau = Pau::predictive(&r, *p);
                    KernelExec::new(r, pau)
                }
            })
            .collect();
        Self { kernels }
    }

    /// Uniform predictive configuration: every kernel speculates with the
    /// same `(Th, N)`.
    pub fn predictive_uniform(conv: &Conv2d, params: KernelParams) -> Self {
        Self::predictive(conv, &vec![KernelMode::Speculate(params); conv.c_out()])
    }

    /// Builds the configuration dictated by [`LayerParams`].
    pub fn from_params(conv: &Conv2d, params: &LayerParams) -> Self {
        match params {
            LayerParams::Exact => Self::exact(conv),
            LayerParams::Predictive(ks) => Self::predictive(conv, ks),
        }
    }

    /// Builds a configuration from explicit per-kernel states (used by the
    /// ablation benches to plug in alternative reorderings).
    pub fn from_kernels(kernels: Vec<KernelExec>) -> Self {
        Self { kernels }
    }

    /// Per-kernel execution states.
    pub fn kernels(&self) -> &[KernelExec] {
        &self.kernels
    }

    /// Whether any kernel speculates.
    pub fn is_predictive(&self) -> bool {
        self.kernels.iter().any(|k| k.pau.is_predictive())
    }
}

/// Per-window operation counts of one layer execution — the raw material for
/// both the computation-reduction numbers and the cycle-level simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    images: usize,
    kernels: usize,
    windows: usize,
    window_len: usize,
    /// `ops[(img * kernels + k) * windows + w]` = MACs executed for window
    /// `w` of kernel `k` on image `img`.
    ops: Vec<u32>,
}

impl LayerProfile {
    /// A dense profile: every window costs the full `window_len` MACs (the
    /// baseline accelerator's workload).
    pub fn dense(images: usize, kernels: usize, windows: usize, window_len: usize) -> Self {
        Self {
            images,
            kernels,
            windows,
            window_len,
            ops: vec![snapea_tensor::num::ops_u32(window_len); images * kernels * windows],
        }
    }

    /// A dense profile with the same geometry as `self`.
    pub fn to_dense(&self) -> Self {
        Self::dense(self.images, self.kernels, self.windows, self.window_len)
    }

    /// Builds a profile from explicit per-window op counts (layout
    /// `[(img * kernels + k) * windows + w]`).
    ///
    /// # Panics
    ///
    /// Panics if `ops.len() != images * kernels * windows` or any count
    /// exceeds `window_len`.
    pub fn from_ops(
        images: usize,
        kernels: usize,
        windows: usize,
        window_len: usize,
        ops: Vec<u32>,
    ) -> Self {
        assert_eq!(ops.len(), images * kernels * windows, "op count layout");
        assert!(
            ops.iter().all(|&o| o as usize <= window_len),
            "op count exceeds window length"
        );
        Self {
            images,
            kernels,
            windows,
            window_len,
            ops,
        }
    }

    /// The raw op-count slice (layout `[(img * kernels + k) * windows + w]`).
    pub fn ops_slice(&self) -> &[u32] {
        &self.ops
    }

    /// Number of images profiled.
    pub fn images(&self) -> usize {
        self.images
    }

    /// Number of kernels (output channels).
    pub fn kernels(&self) -> usize {
        self.kernels
    }

    /// Number of windows per kernel (out_h × out_w).
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Window length `C_in × D × D`.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// MACs executed for one window.
    pub fn op(&self, image: usize, kernel: usize, window: usize) -> u32 {
        self.ops[(image * self.kernels + kernel) * self.windows + window]
    }

    /// All op counts of one `(image, kernel)` pair.
    pub fn kernel_ops(&self, image: usize, kernel: usize) -> &[u32] {
        let base = (image * self.kernels + kernel) * self.windows;
        &self.ops[base..base + self.windows]
    }

    /// Total MACs executed.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(|&o| o as u64).sum()
    }

    /// Total MACs an unaltered convolution would execute.
    pub fn full_macs(&self) -> u64 {
        (self.images * self.kernels * self.windows) as u64 * self.window_len as u64
    }

    /// `1 - total/full`: the fraction of MACs eliminated.
    pub fn savings(&self) -> f64 {
        let full = self.full_macs();
        if full == 0 {
            return 0.0;
        }
        1.0 - self.total_ops() as f64 / full as f64
    }
}

/// Prediction quality accounting (paper Table V).
///
/// *True negatives* are windows whose full convolution output is negative
/// and which the **predictive** check terminated. *False negatives* are
/// positive-output windows the predictive check squashed to zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PredictionStats {
    /// Windows whose full output is negative.
    pub negative_windows: u64,
    /// Windows whose full output is positive (or zero).
    pub positive_windows: u64,
    /// Negative windows terminated by the predictive check.
    pub true_negatives: u64,
    /// Positive windows terminated by the predictive check.
    pub false_negatives: u64,
    /// Negative windows terminated by the exact sign check.
    pub sign_terminations: u64,
    /// Sum of ReLU(full output) over all windows.
    pub positive_mass: f64,
    /// Sum of ReLU(full output) over falsely-squashed windows.
    pub squashed_mass: f64,
}

impl PredictionStats {
    /// True-negative rate: correctly-predicted negatives over all negatives.
    pub fn true_negative_rate(&self) -> f64 {
        if self.negative_windows == 0 {
            0.0
        } else {
            self.true_negatives as f64 / self.negative_windows as f64
        }
    }

    /// False-negative rate: mis-squashed positives over all positives.
    pub fn false_negative_rate(&self) -> f64 {
        if self.positive_windows == 0 {
            0.0
        } else {
            self.false_negatives as f64 / self.positive_windows as f64
        }
    }

    /// Fraction of total positive activation mass that was squashed — the
    /// quantity the paper argues stays on "small positive values".
    pub fn squashed_mass_fraction(&self) -> f64 {
        if self.positive_mass == 0.0 {
            0.0
        } else {
            self.squashed_mass / self.positive_mass
        }
    }

    /// Accumulates another stats block.
    pub fn merge(&mut self, other: &PredictionStats) {
        self.negative_windows += other.negative_windows;
        self.positive_windows += other.positive_windows;
        self.true_negatives += other.true_negatives;
        self.false_negatives += other.false_negatives;
        self.sign_terminations += other.sign_terminations;
        self.positive_mass += other.positive_mass;
        self.squashed_mass += other.squashed_mass;
    }
}

/// Result of executing one convolution layer through SnaPEA.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Layer output. For windows terminated by the predictive check the
    /// early ReLU has already fired: the stored value is `0.0`. All other
    /// windows hold their raw (pre-ReLU) partial sums, so applying ReLU
    /// yields the layer's post-activation output.
    pub output: Tensor4,
    /// Per-window operation counts.
    pub profile: LayerProfile,
    /// Prediction accounting (all-zero when stats collection is off).
    pub stats: PredictionStats,
}

/// Kernel-independent execution plan for one layer geometry, built per
/// call: each window's base and each weight's tap delta, the gather source
/// of the walk's im2col tiles. Nothing in it is sized `windows ×
/// window_len`.
///
/// A plan walks a pad-0 geometry over the input that
/// [`WindowPlan::for_layer`] returns, zero-padded wherever the layer's
/// windows reach padding, so every tap of every window reads that input and
/// a padding tap reads `+0.0`. Tap `i = (c*kh + ky)*kw + kx` of the window
/// whose top-left tap sits at row `y0`, column `x0` of that input reads
/// offset `base + delta[i]` of the image's item slice, where `base = y0*w +
/// x0` and `delta[i] = (c*h + ky)*w + kx`: row `i` of the window's im2col
/// column, with no bounds test for padding.
#[derive(Debug, Clone)]
pub struct WindowPlan {
    /// `delta[i]` for each original weight index `i`.
    delta: Vec<i32>,
    /// Per window, in output row-major order: the offset of its top-left
    /// tap.
    bases: Vec<i32>,
}

impl WindowPlan {
    /// The input `conv`'s walk reads and the plan it reads it through.
    /// Where a window of `conv` can reach padding, the input is a copy of
    /// `input` with `+0.0` padding, `max(h + 2·pad, kh) × max(w + 2·pad,
    /// kw)` per plane, so the plan has `conv.out_shape`'s windows in the
    /// same order, the one all-padding window of a kernel larger than its
    /// padded input included. An input no window can pad (`pad == 0` and a
    /// kernel that fits) is borrowed, never copied. The q16 datapath
    /// quantises the copy, and padding quantises to 0.
    pub fn for_layer<'a>(conv: &Conv2d, input: &'a Tensor4) -> (Cow<'a, Tensor4>, Self) {
        let (s, geom) = (input.shape(), conv.geom());
        let h = (s.h + 2 * geom.pad).max(geom.kh);
        let w = (s.w + 2 * geom.pad).max(geom.kw);
        let input = if (h, w) == (s.h, s.w) {
            Cow::Borrowed(input)
        } else {
            Cow::Owned(zero_padded(input, geom.pad, (h, w)))
        };
        let plan = Self::build(input.shape(), ConvGeom { pad: 0, ..geom }, conv.c_in());
        (input, plan)
    }

    /// The plan for the pad-0 `geom` over inputs of shape `input`, whose
    /// planes the kernel fits.
    fn build(input: Shape4, geom: ConvGeom, c_in: usize) -> Self {
        use snapea_tensor::num::idx_i32;
        debug_assert!(geom.pad == 0 && geom.kh <= input.h && geom.kw <= input.w);
        let (h, w) = (input.h, input.w);
        let mut delta = Vec::with_capacity(c_in * geom.kh * geom.kw);
        for c in 0..c_in {
            for ky in 0..geom.kh {
                for kx in 0..geom.kw {
                    delta.push(idx_i32((c * h + ky) * w + kx));
                }
            }
        }
        let (oh, ow) = (geom.out_h(h), geom.out_w(w));
        let mut bases = Vec::with_capacity(oh * ow);
        for oy in 0..oh {
            for ox in 0..ow {
                bases.push(idx_i32((oy * w + ox) * geom.stride));
            }
        }
        Self { delta, bases }
    }

    /// Number of windows.
    #[inline]
    pub fn windows(&self) -> usize {
        self.bases.len()
    }

    /// Window length `c_in × kh × kw`.
    #[inline]
    pub fn window_len(&self) -> usize {
        self.delta.len()
    }

    /// The item offset tap `i` (an original weight index) of window `w`
    /// reads.
    pub fn tap(&self, w: usize, i: usize) -> usize {
        (self.bases[w] + self.delta[i]) as usize
    }
}

/// A copy of `input` with `h × w` planes: each input plane sits `pad` rows
/// down and `pad` columns in, and every other element is `+0.0`.
fn zero_padded(input: &Tensor4, pad: usize, (h, w): (usize, usize)) -> Tensor4 {
    let s = input.shape();
    let mut out = Tensor4::zeros(Shape4::new(s.n, s.c, h, w));
    if s.h * s.w > 0 {
        let rows = out
            .as_mut_slice()
            .chunks_exact_mut(h * w)
            .flat_map(|plane| plane.chunks_exact_mut(w).skip(pad).take(s.h));
        for (dst, src) in rows.zip(input.as_slice().chunks_exact(s.w)) {
            for (d, &v) in dst.iter_mut().skip(pad).zip(src) {
                *d = v;
            }
        }
    }
    out
}

/// Does nothing: window plans are built per call, so there is no plan cache
/// to empty. Kept because the end-to-end benchmark (`e2ebench/`) still calls
/// it.
pub fn clear_plan_cache() {}

/// Outcome of one window walk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowResult {
    /// MACs executed (the paper's `Op` function, Eq. (1)).
    pub ops: u32,
    /// The value written to the output buffer *before* the downstream ReLU
    /// (0.0 if the early ReLU already fired on a prediction).
    pub output: f32,
    /// How the window ended.
    pub termination: Option<TerminationKind>,
}

/// One window walked to its end in *observed* mode: the PAU's decision,
/// plus the partial sums a walk that stops early never reaches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowObs {
    /// What the PAU decided — exactly the early-terminating walk's result.
    pub result: WindowResult,
    /// The partial sum at the end of the probe-free prefix: a speculating
    /// kernel's speculative partial sum (the value its predictive check
    /// compares against `Th`), or the full sum if the speculative set spans
    /// the window.
    pub prefix: f32,
    /// The full sum, every position MACed.
    pub full: f32,
}

/// The walk position at which the PAU's *predictive* probe can first fire
/// (`usize::MAX` in exact mode, where it never does).
#[inline(always)]
fn spec_probe_pos(pau: &Pau) -> usize {
    if pau.spec_len() > 0 {
        pau.spec_len()
    } else {
        usize::MAX
    }
}

/// Number of leading walk positions at which no PAU probe can fire: the
/// predictive probe fires only *at* `spec_len`, and the sign check only from
/// `neg_start` on, so positions `0..min(spec_len, neg_start, len)` are
/// unconditional MACs.
#[inline(always)]
fn unconditional_prefix_len(pau: &Pau, len: usize) -> usize {
    spec_probe_pos(pau).min(pau.neg_start()).min(len)
}

#[inline(always)]
fn terminated(ops: usize, probed: f32, kind: TerminationKind) -> WindowResult {
    let output = match kind {
        TerminationKind::Predicted => 0.0, // early ReLU fired
        TerminationKind::SignCheck => probed,
    };
    WindowResult {
        ops: snapea_tensor::num::ops_u32(ops),
        output,
        termination: Some(kind),
    }
}

/// Columns per tile: the windows one walk position's MAC covers. A tile's
/// columns run on across image boundaries, so a layer with few windows per
/// image still fills its tiles.
const TILE: usize = 64;

/// Lanes per probe chunk. A partial tile is padded to a multiple of this,
/// so neither the MAC kernel nor the probe has a scalar tail.
const LANES: usize = snapea_tensor::lane::LANES;

/// The arithmetic of one PE lane: everything the window walk needs to know
/// about a precision. The walk itself — tiles, probe placement,
/// termination, prediction accounting — is written once over this trait;
/// the `f32` model and the paper's 16-bit fixed-point PE (Table II) are its
/// two impls.
trait Datapath: Sync {
    /// An activation or weight as the lane multiplies it.
    type Operand: Copy + Sync;
    /// The lane's accumulator register.
    type Acc: Copy + Sync;

    /// A kernel's walk-order weights as operands.
    fn weights<'k>(&self, kernel: &'k KernelExec) -> Cow<'k, [Self::Operand]>;

    /// A layer input's activations as operands.
    fn activations<'a>(&self, input: &'a [f32]) -> Cow<'a, [Self::Operand]>;

    /// The accumulator a walk starts from: the bias.
    fn seed(&self, bias: f32) -> Self::Acc;

    /// One MAC.
    fn mac(acc: Self::Acc, x: Self::Operand, w: Self::Operand) -> Self::Acc;

    /// The partial sum as the PAU probes it — also the value a window
    /// stores.
    fn probe(&self, acc: Self::Acc) -> f32;

    /// The walk positions `0..order.len()` over a tile of `acc.len()`
    /// columns: at each position `p`, in order, `acc[j] = mac(acc[j],
    /// rows[order[p]·width + j], weights[p])` for every column `j`, where
    /// `width = acc.len()`.
    #[inline]
    // lint:allow(P2) a tile holds every tap row of its width columns, and a kernel's order names taps
    fn mac_tile(
        acc: &mut [Self::Acc],
        rows: &[Self::Operand],
        order: &[u32],
        weights: &[Self::Operand],
    ) {
        let width = acc.len();
        for (&i, &w) in order.iter().zip(weights) {
            let row = &rows[i as usize * width..][..width];
            for (a, &x) in acc.iter_mut().zip(row) {
                *a = Self::mac(*a, x, w);
            }
        }
    }

    /// Every column's partial sum as the PAU probes it, written to
    /// `scratch` unless the accumulator already is that `f32`.
    #[inline]
    fn probed<'s>(&self, acc: &'s [Self::Acc], scratch: &'s mut [f32]) -> &'s [f32] {
        let scratch = &mut scratch[..acc.len()];
        for (s, &a) in scratch.iter_mut().zip(acc) {
            *s = self.probe(a);
        }
        scratch
    }
}

/// The `f32` datapath: the walk every accuracy experiment runs.
struct F32Datapath;

impl Datapath for F32Datapath {
    type Operand = f32;
    type Acc = f32;

    fn weights<'k>(&self, kernel: &'k KernelExec) -> Cow<'k, [f32]> {
        Cow::Borrowed(kernel.reordered.weights())
    }

    fn activations<'a>(&self, input: &'a [f32]) -> Cow<'a, [f32]> {
        Cow::Borrowed(input)
    }

    #[inline(always)]
    fn seed(&self, bias: f32) -> f32 {
        bias
    }

    #[inline(always)]
    fn mac(acc: f32, x: f32, w: f32) -> f32 {
        acc + x * w
    }

    #[inline(always)]
    fn probe(&self, acc: f32) -> f32 {
        acc
    }

    /// The asm-gated vector kernel ([`snapea_tensor::lane::tile_mac`]).
    #[inline]
    fn mac_tile(acc: &mut [f32], rows: &[f32], order: &[u32], weights: &[f32]) {
        snapea_tensor::lane::tile_mac(acc, rows, order, weights);
    }

    #[inline(always)]
    fn probed<'s>(&self, acc: &'s [f32], _: &'s mut [f32]) -> &'s [f32] {
        acc
    }
}

/// The paper's 16-bit fixed-point PE (Table II): operands quantised to the
/// format, products summed at full width in a [`QAcc`], and the PAU probing
/// the dequantised partial sum. Termination decisions may differ from the
/// `f32` walk by at most the quantisation error of the partial sums.
struct Q16Datapath(Q16Format);

impl Datapath for Q16Datapath {
    type Operand = Q16;
    type Acc = QAcc;

    fn weights<'k>(&self, kernel: &'k KernelExec) -> Cow<'k, [Q16]> {
        Cow::Owned(quantize_slice(self.0, kernel.reordered.weights()))
    }

    fn activations<'a>(&self, input: &'a [f32]) -> Cow<'a, [Q16]> {
        Cow::Owned(quantize_slice(self.0, input))
    }

    /// The bias enters the accumulator at the product scale (Q.2f): its
    /// quantised value shifted left by the fractional bits.
    #[inline(always)]
    fn seed(&self, bias: f32) -> QAcc {
        QAcc::from_raw(i64::from(self.0.quantize(bias).raw()) << self.0.frac_bits())
    }

    #[inline(always)]
    fn mac(mut acc: QAcc, x: Q16, w: Q16) -> QAcc {
        acc.mac(x, w);
        acc
    }

    #[inline(always)]
    fn probe(&self, acc: QAcc) -> f32 {
        acc.to_f32(self.0)
    }
}

/// `!0` if `b`, else `0`: a lane mask.
#[inline(always)]
fn mask(b: bool) -> u32 {
    u32::from(b).wrapping_neg()
}

/// How a window that stored `output` after `ops` of its `len` MACs ended:
/// a terminated window ran short, and only a sign check stores a value
/// below zero (a prediction stores `+0.0`).
#[inline]
fn termination(ops: u32, output: f32, len: u32) -> Option<TerminationKind> {
    (ops < len).then_some(if output < 0.0 {
        TerminationKind::SignCheck
    } else {
        TerminationKind::Predicted
    })
}

/// The PAUs of one tile walk, one lane per column, in mask form: a probe is
/// a few compares and bitwise selects over fixed eight-lane chunks, with no
/// branch per column.
struct Lanes {
    /// `!0` while a column's walk goes on; `0` once its PAU has terminated
    /// it, and for the padding columns of a partial tile.
    live: [u32; TILE],
    /// The position at which each column ended: its op count.
    end: [u32; TILE],
    /// The value each column stores.
    val: [f32; TILE],
}

impl Lanes {
    /// The first `cols` lanes live, each ending at `len` unless a probe
    /// ends it sooner.
    fn reset(&mut self, cols: usize, len: u32) {
        for (j, l) in self.live.iter_mut().enumerate() {
            *l = mask(j < cols);
        }
        self.end = [len; TILE];
    }

    /// The PAU probe before the MAC at position `p` on every live lane of
    /// `probed` ([`Pau::probe`]'s rule): returns how many stay live.
    #[inline]
    fn probe(&mut self, probed: &[f32], pau: &Pau, p: usize) -> usize {
        let sign = mask(p >= pau.neg_start());
        if pau.is_predictive() && p == pau.spec_len() {
            self.probe_masked::<true>(probed, p, pau.threshold(), sign)
        } else {
            self.probe_masked::<false>(probed, p, 0.0, sign)
        }
    }

    /// A live lane terminates on `SPEC && x < th`, a prediction that stores
    /// `+0.0`, or else on `sign && x < 0.0`, a sign check that stores `x`.
    /// Both are ordered compares, so a NaN or `-0.0` partial sum continues.
    ///
    /// Not inlined, so the compiler knows `probed` and the lanes apart and
    /// vectorizes the compares (`cmpltps` on x86-64).
    #[inline(never)]
    // lint:allow(P2) q < LANES indexes the [_; LANES] chunks
    fn probe_masked<const SPEC: bool>(
        &mut self,
        probed: &[f32],
        p: usize,
        th: f32,
        sign: u32,
    ) -> usize {
        let p = snapea_tensor::num::ops_u32(p);
        let width = probed.len();
        let (x8, _) = probed.as_chunks::<LANES>();
        let (l8, _) = self.live[..width].as_chunks_mut::<LANES>();
        let (e8, _) = self.end[..width].as_chunks_mut::<LANES>();
        let (v8, _) = self.val[..width].as_chunks_mut::<LANES>();
        let mut live = [0u32; LANES];
        for (((x, l), e), v) in x8.iter().zip(l8).zip(e8).zip(v8) {
            for q in 0..LANES {
                let pred = mask(SPEC && x[q] < th);
                let hit = l[q] & (pred | (sign & mask(x[q] < 0.0)));
                e[q] = (p & hit) | (e[q] & !hit);
                v[q] = f32::from_bits((x[q].to_bits() & !pred & hit) | (v[q].to_bits() & !hit));
                l[q] &= !hit;
                live[q] += l[q] & 1;
            }
        }
        live.iter().sum::<u32>() as usize
    }

    /// Every lane still live ran to the end: it stores its full sum.
    fn finish(&mut self, full: &[f32]) {
        for ((&x, &l), v) in full.iter().zip(&self.live).zip(&mut self.val) {
            *v = f32::from_bits((x.to_bits() & l) | (v.to_bits() & !l));
        }
    }
}

/// One kernel's walk: its PAU, walk order and operand weights.
struct KernelWalk<'k, D: Datapath> {
    pau: &'k Pau,
    /// The original weight index at each walk position: the tile row the
    /// position reads.
    order: &'k [u32],
    weights: Cow<'k, [D::Operand]>,
    seed: D::Acc,
    /// The probe-free prefix length ([`unconditional_prefix_len`]).
    stop1: usize,
}

impl<'k, D: Datapath> KernelWalk<'k, D> {
    fn new(dp: &D, kernel: &'k KernelExec, bias: f32) -> Self {
        let weights = dp.weights(kernel);
        Self {
            pau: &kernel.pau,
            order: kernel.reordered.order(),
            stop1: unconditional_prefix_len(&kernel.pau, weights.len()),
            weights,
            seed: dp.seed(bias),
        }
    }

    /// Where the unconditional run after a passed probe at `p` ends: the
    /// MAC at `p` follows the probe, and after the speculative probe the
    /// walk runs on without probing to the negative region.
    #[inline(always)]
    fn next_probe(&self, p: usize) -> usize {
        (p + 1).max(self.pau.neg_start().min(self.weights.len()))
    }

    /// Walks one window on alone from partial sum `acc`, after it passed
    /// the probe at `p`, probing before every MAC from
    /// [`KernelWalk::next_probe`] on. `x(i)` reads the window's tap `i`.
    #[inline]
    fn finish(
        &self,
        dp: &D,
        mut acc: D::Acc,
        p: usize,
        x: impl Fn(usize) -> D::Operand,
    ) -> WindowResult {
        let next = self.next_probe(p);
        let steps = self.order.iter().zip(self.weights.iter()).enumerate();
        for (q, (&i, &w)) in steps.skip(p) {
            if q >= next {
                let probed = dp.probe(acc);
                if let PauAction::Terminate(kind) = self.pau.probe(q, probed) {
                    return terminated(q, probed, kind);
                }
            }
            acc = D::mac(acc, x(i as usize), w);
        }
        WindowResult {
            ops: snapea_tensor::num::ops_u32(self.weights.len()),
            output: dp.probe(acc),
            termination: None,
        }
    }
}

/// Where tiles take their columns from: a layer input as operands, its
/// images back to back, and the plan that places every window in it.
/// Column `c` is window `c mod windows` of image `c / windows`.
struct TileSource<'a, O> {
    plan: &'a WindowPlan,
    input: &'a [O],
    item_len: usize,
}

/// A tile of up to [`TILE`] im2col columns and one kernel's walk over it.
struct Tile<D: Datapath> {
    /// `rows[i·width + j]`: tap `i` (an original weight index) of column
    /// `j`.
    rows: Vec<D::Operand>,
    /// The tile's columns.
    cols: usize,
    /// `cols` rounded up to a multiple of [`LANES`]. A padding column
    /// repeats the last column, and its lane is never live.
    width: usize,
    /// Each column's offset into the source input.
    base: [usize; TILE],
    acc: Vec<D::Acc>,
    lanes: Lanes,
    /// Probed partial sums, for a datapath whose accumulator is no `f32`.
    scratch: [f32; TILE],
    /// Observed walks: each column's partial sum at the end of the
    /// probe-free prefix, and its full sum.
    prefix: [f32; TILE],
    full: [f32; TILE],
}

impl<D: Datapath> Tile<D> {
    fn new(window_len: usize) -> Self {
        Self {
            rows: Vec::with_capacity(window_len * TILE),
            cols: 0,
            width: 0,
            base: [0; TILE],
            acc: Vec::with_capacity(TILE),
            lanes: Lanes {
                live: [0; TILE],
                end: [0; TILE],
                val: [0.0; TILE],
            },
            scratch: [0.0; TILE],
            prefix: [0.0; TILE],
            full: [0.0; TILE],
        }
    }

    /// Gathers columns `cols` (at most [`TILE`], at least one) from `src`.
    // lint:allow(P2) a plan's bases and deltas keep every tap inside its image's item of the input the plan was built for
    fn fill(&mut self, src: &TileSource<'_, D::Operand>, cols: Range<usize>) {
        let windows = src.plan.windows();
        let (mut n, mut w) = (cols.start / windows, cols.start % windows);
        self.cols = cols.len();
        self.width = cols.len().next_multiple_of(LANES);
        for b in &mut self.base[..cols.len()] {
            *b = n * src.item_len + src.plan.bases[w] as usize;
            w += 1;
            if w == windows {
                (n, w) = (n + 1, 0);
            }
        }
        let bases = &self.base[..cols.len()];
        let last = bases[cols.len() - 1];
        self.rows.clear();
        for &d in &src.plan.delta {
            let d = d as usize;
            self.rows.extend(bases.iter().map(|&b| src.input[b + d]));
            let pad = std::iter::repeat_n(src.input[last + d], self.width - self.cols);
            self.rows.extend(pad);
        }
    }

    /// Walks kernel `k` over the tile, leaving each column's outcome in
    /// `lanes` and, in observed mode, its prefix and full sum. The MACs run
    /// full width ([`Datapath::mac_tile`]), and every probe position runs
    /// one masked probe. An early-terminating walk ends once no lane is
    /// live, and once at most a quarter of the columns are live after a
    /// probe it finishes them one at a time instead
    /// ([`KernelWalk::finish`]); an observed walk takes every column to its
    /// end. Returns how many columns it finished alone.
    fn walk(&mut self, dp: &D, k: &KernelWalk<'_, D>, observe: bool) -> usize {
        let len = k.weights.len();
        self.acc.clear();
        self.acc.resize(self.width, k.seed);
        self.lanes
            .reset(self.cols, snapea_tensor::num::ops_u32(len));
        self.mac_span(k, 0..k.stop1);
        if observe {
            let probed = dp.probed(&self.acc, &mut self.scratch);
            self.prefix[..probed.len()].copy_from_slice(probed);
        }
        let mut p = k.stop1;
        while p < len {
            let live = self
                .lanes
                .probe(dp.probed(&self.acc, &mut self.scratch), k.pau, p);
            if observe {
                if live == 0 {
                    break;
                }
            } else if live * 4 <= self.cols {
                return self.finish_alone(dp, k, p);
            }
            let next = k.next_probe(p);
            self.mac_span(k, p..next);
            p = next;
        }
        self.mac_span(k, p..len);
        let full = dp.probed(&self.acc, &mut self.scratch);
        self.lanes.finish(full);
        if observe {
            self.full[..full.len()].copy_from_slice(full);
        }
        0
    }

    /// The MACs of kernel `k` at walk positions `span`, every column.
    fn mac_span(&mut self, k: &KernelWalk<'_, D>, span: Range<usize>) {
        let (order, weights) = (&k.order[span.clone()], &k.weights[span]);
        D::mac_tile(&mut self.acc, &self.rows, order, weights);
    }

    /// Finishes every live column alone from the tile rows, after the probe
    /// at `p` that it passed. Returns how many columns it finished.
    // lint:allow(P2) a tile holds every tap row of its width columns, and j < width
    fn finish_alone(&mut self, dp: &D, k: &KernelWalk<'_, D>, p: usize) -> usize {
        let (rows, width) = (&self.rows, self.width);
        let l = &mut self.lanes;
        let lanes = l.live.iter_mut().zip(l.end.iter_mut().zip(&mut l.val));
        let mut alone = 0;
        for (j, (&acc, (live, (end, val)))) in self.acc.iter().zip(lanes).enumerate() {
            if *live != 0 {
                let r = k.finish(dp, acc, p, |i| rows[i * width + j]);
                (*live, *end, *val) = (0, r.ops, r.output);
                alone += 1;
            }
        }
        alone
    }

    /// Column `j`'s outcome after a walk of a kernel of length `len`.
    fn result(&self, j: usize, len: u32) -> WindowResult {
        let (ops, output) = (self.lanes.end[j], self.lanes.val[j]);
        WindowResult {
            ops,
            output,
            termination: termination(ops, output, len),
        }
    }

    /// Every column's record after an observed walk of a kernel of length
    /// `len`.
    fn observations(&self, len: u32) -> impl Iterator<Item = WindowObs> + '_ {
        let sums = self.prefix.iter().zip(&self.full).take(self.cols);
        sums.enumerate()
            .map(move |(j, (&prefix, &full))| WindowObs {
                result: self.result(j, len),
                prefix,
                full,
            })
    }
}

/// One task's walk outcomes, per kernel, for its columns: the stored values,
/// the op counts and (when stats are collected) the full sums, laid out
/// `[kernel][column − cols.start]`.
struct TaskOut {
    cols: Range<usize>,
    output: Vec<f32>,
    ops: Vec<u32>,
    full: Vec<f32>,
    /// Columns finished alone after their tile thinned.
    alone: u64,
}

/// Walks every kernel over each tile of columns `cols`: one tile fill per
/// tile, shared by the kernels.
fn walk_task<D: Datapath>(
    dp: &D,
    src: &TileSource<'_, D::Operand>,
    walks: &[KernelWalk<'_, D>],
    cols: Range<usize>,
    observe: bool,
) -> TaskOut {
    let size = cols.len() * walks.len();
    let mut out = TaskOut {
        cols: cols.clone(),
        output: vec![0.0; size],
        ops: vec![0; size],
        full: vec![0.0; if observe { size } else { 0 }],
        alone: 0,
    };
    let mut tile = Tile::new(src.plan.window_len());
    for t0 in cols.clone().step_by(TILE) {
        tile.fill(src, t0..(t0 + TILE).min(cols.end));
        for (k, walk) in walks.iter().enumerate() {
            out.alone += tile.walk(dp, walk, observe) as u64;
            out.record(k, t0 - cols.start, &tile);
        }
    }
    out
}

impl TaskOut {
    /// Records kernel `k`'s walk over `tile`, whose first column is the
    /// task's column `offset`.
    fn record<D: Datapath>(&mut self, k: usize, offset: usize, tile: &Tile<D>) {
        let (at, n) = (k * self.cols.len() + offset.., tile.cols);
        self.output[at.clone()][..n].copy_from_slice(&tile.lanes.val[..n]);
        self.ops[at.clone()][..n].copy_from_slice(&tile.lanes.end[..n]);
        if !self.full.is_empty() {
            self.full[at][..n].copy_from_slice(&tile.full[..n]);
        }
    }

    /// Copies the outcomes into a layer's `[image][kernel][window]` output
    /// and op counts, one contiguous run per image and kernel, and folds
    /// each window into its `(image, kernel)` pair's stats — in ascending
    /// window order, as the tasks are scattered in ascending column order.
    /// `pair_stats` is empty when no stats are collected.
    // lint:allow(P2) a task's columns lie inside the layer's, so every run lies inside both layouts
    fn scatter(
        &self,
        (kernels, windows, len): (usize, usize, u32),
        output: &mut [f32],
        ops: &mut [u32],
        pair_stats: &mut [PredictionStats],
    ) {
        let (mut n, mut w) = (self.cols.start / windows, self.cols.start % windows);
        let mut c = self.cols.start;
        while c < self.cols.end {
            let run = (windows - w).min(self.cols.end - c);
            for k in 0..kernels {
                let src = k * self.cols.len() + (c - self.cols.start)..;
                let dst = (n * kernels + k) * windows + w..;
                output[dst.clone()][..run].copy_from_slice(&self.output[src.clone()][..run]);
                ops[dst][..run].copy_from_slice(&self.ops[src.clone()][..run]);
                if let Some(st) = pair_stats.get_mut(n * kernels + k) {
                    let outcomes = self.output[src.clone()].iter().zip(&self.ops[src.clone()]);
                    for ((&out, &op), &full) in outcomes.zip(&self.full[src]).take(run) {
                        account_window(st, full, termination(op, out, len));
                    }
                }
            }
            (c, n, w) = (c + run, n + 1, 0);
        }
    }
}

/// Walks a single convolution window as a one-column tile: probes the PAU
/// exactly as the hardware lanes do before each MAC, terminates when it
/// says so. `values[i]` is the input under original weight index `i`.
///
/// # Panics
///
/// Panics if `values` is shorter than the kernel.
pub fn run_window(kernel: &KernelExec, values: &[f32], bias: f32) -> WindowResult {
    let len = kernel.reordered.len();
    assert!(values.len() >= len, "a value under every weight");
    // One window at base 0 whose tap deltas are the weight indices.
    let plan = WindowPlan {
        delta: (0..len).map(snapea_tensor::num::idx_i32).collect(),
        bases: vec![0],
    };
    let src = TileSource {
        plan: &plan,
        input: values,
        item_len: len,
    };
    let mut tile = Tile::new(len);
    tile.fill(&src, 0..1);
    tile.walk(
        &F32Datapath,
        &KernelWalk::new(&F32Datapath, kernel, bias),
        false,
    );
    tile.result(0, snapea_tensor::num::ops_u32(len))
}

/// Walks every window of `input` in observed mode for each of `kernels` —
/// candidate reorderings of one kernel, sharing `bias` — through the
/// executor's own walk, one tile fill shared by them all:
/// `obs[(r * images + img) * windows + w]` receives window `w` of image
/// `img` under reordering `r`. `input` and `plan` must be the pair
/// [`WindowPlan::for_layer`] returns for the layer, the input and plan the
/// executor itself walks. The tiles are walked in order on the calling
/// thread and no `exec/*` metric is charged: Algorithm 1's Kernel Profiling
/// pass calls this once per kernel, inside its own parallel map.
///
/// # Panics
///
/// Panics if `obs.len()` is not the number of kernels times `input`'s image
/// count times the plan's window count, or a kernel's length is not the
/// plan's window length.
pub fn observe_kernel(
    plan: &WindowPlan,
    kernels: &[KernelExec],
    bias: f32,
    input: &Tensor4,
    obs: &mut [WindowObs],
) {
    let columns = input.shape().n * plan.windows();
    assert_eq!(
        obs.len(),
        kernels.len() * columns,
        "one record per kernel and window"
    );
    let len = plan.window_len();
    assert!(
        kernels.iter().all(|k| k.reordered.len() == len),
        "kernel/plan window length"
    );
    if columns == 0 {
        return;
    }
    let walks: Vec<KernelWalk<'_, F32Datapath>> = kernels
        .iter()
        .map(|k| KernelWalk::new(&F32Datapath, k, bias))
        .collect();
    let src = TileSource {
        plan,
        input: input.as_slice(),
        item_len: input.shape().item_len(),
    };
    let mut tile = Tile::new(len);
    for t0 in (0..columns).step_by(TILE) {
        tile.fill(&src, t0..(t0 + TILE).min(columns));
        for (walk, obs) in walks.iter().zip(obs.chunks_exact_mut(columns)) {
            tile.walk(&F32Datapath, walk, true);
            let records = tile.observations(snapea_tensor::num::ops_u32(len));
            for (o, rec) in obs.iter_mut().skip(t0).zip(records) {
                *o = rec;
            }
        }
    }
}

/// Folds one window's outcome into the prediction-quality accounting. Must
/// be called in ascending window order within a pair — the f64 mass sums are
/// order-sensitive and pinned bit-identical to the oracle's re-derivation.
#[inline]
fn account_window(st: &mut PredictionStats, full: f32, termination: Option<TerminationKind>) {
    if full < 0.0 {
        st.negative_windows += 1;
    } else {
        st.positive_windows += 1;
        st.positive_mass += full as f64;
    }
    match termination {
        Some(TerminationKind::Predicted) => {
            if full < 0.0 {
                st.true_negatives += 1;
            } else {
                st.false_negatives += 1;
                st.squashed_mass += full.max(0.0) as f64;
            }
        }
        Some(TerminationKind::SignCheck) => {
            st.sign_terminations += 1;
        }
        None => {}
    }
}

/// Executes a convolution layer through SnaPEA (no prediction accounting —
/// the fast path used inside the optimizer's accuracy simulations).
pub fn execute_conv(conv: &Conv2d, input: &Tensor4, cfg: &LayerConfig) -> ExecResult {
    execute(&F32Datapath, conv, input, cfg, false)
}

/// Like [`execute_conv`] but additionally completes every window's dot
/// product to fill [`PredictionStats`] (paper Table V).
pub fn execute_conv_stats(conv: &Conv2d, input: &Tensor4, cfg: &LayerConfig) -> ExecResult {
    execute(&F32Datapath, conv, input, cfg, true)
}

/// Executes a convolution layer with 16-bit fixed-point arithmetic in the
/// lanes (quantised inputs and weights, wide accumulator), mirroring
/// [`execute_conv`]. No prediction accounting.
pub fn execute_conv_q16(
    conv: &Conv2d,
    input: &Tensor4,
    cfg: &LayerConfig,
    fmt: Q16Format,
) -> ExecResult {
    execute(&Q16Datapath(fmt), conv, input, cfg, false)
}

/// The layer executor, once for every datapath.
fn execute<D: Datapath>(
    dp: &D,
    conv: &Conv2d,
    input: &Tensor4,
    cfg: &LayerConfig,
    collect_stats: bool,
) -> ExecResult {
    assert_eq!(cfg.kernels.len(), conv.c_out(), "config kernel count");
    let len = conv.window_len();
    assert!(
        cfg.kernels.iter().all(|k| k.reordered.len() == len),
        "kernel/layer window length"
    );
    // Per-layer span (only when a sink is attached) plus an always-on
    // stopwatch feeding the `exec/layer_ms` latency histogram: one clock
    // read per layer call, never per window, so the disabled-path budget
    // holds. Per-task spans are a further opt-in behind
    // `SNAPEA_TRACE_DETAIL` — a full repro run executes thousands of
    // layers and would swamp the log otherwise.
    let _layer_span = snapea_obs::hot_span!("exec/layer");
    let trace_tasks = snapea_obs::enabled() && snapea_obs::detail_enabled();
    let layer_clock = snapea_obs::Stopwatch::start();
    let s = input.shape();
    let out_shape = conv.out_shape(s);
    let (input, plan) = WindowPlan::for_layer(conv, input);
    let (windows, c_out) = (plan.windows(), conv.c_out());
    debug_assert_eq!(windows, out_shape.plane_len());

    // Operand weights once per kernel and operand activations once per
    // layer call, shared by every task. Quantisation is deterministic, so
    // hoisting it out of the per-MAC loop changes nothing numerically.
    let walks: Vec<KernelWalk<'_, D>> = cfg
        .kernels
        .iter()
        .zip(conv.bias())
        .map(|(k, &bias)| KernelWalk::new(dp, k, bias))
        .collect();
    let operands = dp.activations(input.as_slice());
    let src = TileSource {
        plan: &plan,
        input: &operands,
        item_len: input.shape().item_len(),
    };

    // One task per run of whole tiles, sized by `chunk_for` with the walk
    // floor: a tiny layer collapses to one inline task and never pays
    // dispatch. Each task walks every kernel over each of its tiles and
    // returns its outcomes, which are scattered into the `[image][kernel]
    // [window]` layout on this thread in ascending column order. Each
    // pair's stats fold privately in ascending window order and merge in
    // ascending pair order — the grouping of a serial per-pair walk, for
    // any thread count and any tile or task split, so the f64 masses are
    // bit-identical whether the tiles ran on one worker or eight.
    let columns = s.n * windows;
    let tiles = columns.div_ceil(TILE);
    let chunk = snapea_tensor::par::chunk_for(
        tiles,
        TILE * len * c_out,
        snapea_tensor::par::WALK_TASK_FLOOR_OPS,
    );
    let tasks = snapea_tensor::par::parallel_map_chunks(tiles, chunk, |_, tiles| {
        let cols = tiles.start * TILE..(tiles.end * TILE).min(columns);
        let _task_span = trace_tasks.then(|| {
            snapea_obs::span::enter_detail(
                "exec/task",
                Some(format!("columns {}..{}", cols.start, cols.end)),
            )
        });
        walk_task(dp, &src, &walks, cols, collect_stats)
    });
    let mut output = Tensor4::zeros(out_shape);
    let mut ops = vec![0u32; s.n * c_out * windows];
    let mut pair_stats =
        vec![PredictionStats::default(); if collect_stats { s.n * c_out } else { 0 }];
    let layout = (c_out, windows, snapea_tensor::num::ops_u32(len));
    for t in &tasks {
        t.scatter(layout, output.as_mut_slice(), &mut ops, &mut pair_stats);
    }
    let mut stats = PredictionStats::default();
    for st in &pair_stats {
        stats.merge(st);
    }

    let profile = LayerProfile {
        images: s.n,
        kernels: c_out,
        windows,
        window_len: len,
        ops,
    };
    let alone = tasks.iter().map(|t| t.alone).sum();
    record_layer_execution(
        &profile,
        collect_stats.then_some(&stats),
        alone,
        layer_clock.elapsed_ms(),
    );
    ExecResult {
        output,
        profile,
        stats,
    }
}

/// Charges one layer execution to the global `exec/*` metrics (including
/// the `exec/layer_ms` latency log-histogram) and, when a sink is
/// installed, emits an `exec/layer` event. Counters and the histogram are
/// relaxed atomics charged once per layer call (never per window), and the
/// event payload is only built behind [`snapea_obs::enabled`], keeping the
/// disabled-path overhead within the executor bench's <2% budget.
///
/// `alone` counts the windows the walk finished one at a time after their
/// tile thinned (`exec/windows_finished_alone`).
fn record_layer_execution(
    profile: &LayerProfile,
    stats: Option<&PredictionStats>,
    alone: u64,
    elapsed_ms: f64,
) {
    let performed = profile.total_ops();
    let dense = profile.full_macs();
    snapea_obs::counter("exec/layer_calls").inc();
    snapea_obs::counter("exec/macs_performed").add(performed);
    snapea_obs::counter("exec/macs_dense").add(dense);
    snapea_obs::counter("exec/windows_finished_alone").add(alone);
    snapea_obs::log_histogram("exec/layer_ms").record(elapsed_ms);
    if let Some(s) = stats {
        snapea_obs::counter("exec/windows_negative").add(s.negative_windows);
        snapea_obs::counter("exec/windows_positive").add(s.positive_windows);
        snapea_obs::counter("exec/true_negatives").add(s.true_negatives);
        snapea_obs::counter("exec/false_negatives").add(s.false_negatives);
        snapea_obs::counter("exec/sign_terminations").add(s.sign_terminations);
    }
    if snapea_obs::enabled() {
        if let Some(s) = stats {
            snapea_obs::event!(
                "exec/layer",
                images = profile.images() as u64,
                kernels = profile.kernels() as u64,
                windows = profile.windows() as u64,
                performed_macs = performed,
                full_macs = dense,
                savings = profile.savings(),
                elapsed_ms = elapsed_ms,
                windows_finished_alone = alone,
                true_negative_rate = s.true_negative_rate(),
                false_negative_rate = s.false_negative_rate(),
                sign_terminations = s.sign_terminations,
            );
        } else {
            snapea_obs::event!(
                "exec/layer",
                images = profile.images() as u64,
                kernels = profile.kernels() as u64,
                windows = profile.windows() as u64,
                performed_macs = performed,
                full_macs = dense,
                savings = profile.savings(),
                elapsed_ms = elapsed_ms,
                windows_finished_alone = alone,
            );
        }
    }
}

/// Op counts under Cnvlutin-style *ineffectual-neuron skipping* (paper §VII's
/// related work): a window's cost is the number of taps whose **input** is
/// non-zero — zero activations (the output of upstream ReLUs) are skipped
/// outright, regardless of weight signs. This is the orthogonal,
/// input-sparsity approach SnaPEA is contrasted against. A padding tap
/// reads `+0.0`, so it is never counted.
// lint:allow(P2) the plan's tap offsets lie inside the item slice of the input it was built for
pub fn zero_skip_profile(conv: &Conv2d, input: &Tensor4) -> LayerProfile {
    let s = input.shape();
    let (input, plan) = WindowPlan::for_layer(conv, input);
    let windows = plan.windows();
    let mut ops = Vec::with_capacity(s.n * conv.c_out() * windows);
    for n in 0..s.n {
        let item = input.item(n);
        // The nonzero-tap count per window is kernel-independent; compute it
        // once and replicate across kernels.
        let mut per_window = Vec::with_capacity(windows);
        for w in 0..windows {
            let count = (0..plan.window_len())
                .filter(|&i| item[plan.tap(w, i)] != 0.0)
                .count();
            let count = snapea_tensor::num::ops_u32(count);
            per_window.push(count);
        }
        for _k in 0..conv.c_out() {
            ops.extend_from_slice(&per_window);
        }
    }
    LayerProfile::from_ops(s.n, conv.c_out(), windows, conv.window_len(), ops)
}

/// Op counts when zero-input skipping **combines** with SnaPEA's early
/// termination: the window walks the reordered weights and the PAU
/// terminates as usual, but zero-input taps are free — a window costs the
/// non-zero-input taps among the positions the executor's walk performs.
/// Shows the two mechanisms are complementary (they eliminate different
/// MACs).
///
/// `walked` is the profile of that walk, `execute_conv(conv, input,
/// cfg).profile`, which the caller has already run. A padding tap reads
/// `+0.0`, so it is never counted.
///
/// # Panics
///
/// Panics if `walked` does not have one op count per (image, kernel,
/// window) of `conv` over `input`.
// lint:allow(P2) the plan's tap offsets lie inside the item slice of the input it was built for
pub fn combined_profile(
    conv: &Conv2d,
    input: &Tensor4,
    cfg: &LayerConfig,
    walked: &LayerProfile,
) -> LayerProfile {
    let (input, plan) = WindowPlan::for_layer(conv, input);
    let windows = plan.windows();
    assert_eq!(
        (walked.images(), walked.kernels(), walked.windows()),
        (input.shape().n, conv.c_out(), windows),
        "walked profile of this layer's walk"
    );
    let mut ops = Vec::with_capacity(walked.ops.len());
    for n in 0..walked.images() {
        let item = input.item(n);
        for (k, kexec) in cfg.kernels.iter().enumerate() {
            let order = kexec.reordered.order();
            for (w, &walked_ops) in walked.kernel_ops(n, k).iter().enumerate() {
                let effectual = order[..walked_ops as usize]
                    .iter()
                    .filter(|&&i| item[plan.tap(w, i as usize)] != 0.0)
                    .count();
                ops.push(snapea_tensor::num::ops_u32(effectual));
            }
        }
    }
    LayerProfile::from_ops(
        walked.images(),
        conv.c_out(),
        windows,
        conv.window_len(),
        ops,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapea_tensor::init;

    fn nonneg_input(shape: Shape4, seed: u64) -> Tensor4 {
        init::uniform4(shape, 1.0, &mut init::rng(seed)).map(f32::abs)
    }

    #[test]
    fn exact_mode_preserves_post_relu_output() {
        for seed in 0..5 {
            let mut rng = init::rng(seed);
            let conv = Conv2d::new(3, 6, ConvGeom::square(3, 1, 1), &mut rng);
            let input = nonneg_input(Shape4::new(2, 3, 7, 7), seed + 100);
            let cfg = LayerConfig::exact(&conv);
            let r = execute_conv(&conv, &input, &cfg);
            let reference = conv.forward(&input);
            for (a, b) in r.output.iter().zip(reference.iter()) {
                let (ra, rb) = (a.max(0.0), b.max(0.0));
                assert!(
                    (ra - rb).abs() < 1e-3,
                    "post-ReLU mismatch: {ra} vs {rb} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn exact_mode_saves_ops_on_zero_centred_kernels() {
        let mut rng = init::rng(1);
        let conv = Conv2d::new(4, 8, ConvGeom::square(3, 1, 1), &mut rng);
        let input = nonneg_input(Shape4::new(1, 4, 8, 8), 7);
        let cfg = LayerConfig::exact(&conv);
        let r = execute_conv(&conv, &input, &cfg);
        assert!(
            r.profile.savings() > 0.05,
            "savings {}",
            r.profile.savings()
        );
        assert_eq!(r.profile.full_macs(), conv.full_macs(input.shape()));
    }

    #[test]
    fn all_positive_kernel_never_terminates() {
        let mut rng = init::rng(2);
        let mut conv = Conv2d::new(2, 1, ConvGeom::square(3, 1, 0), &mut rng);
        conv.weight_mut().map_inplace(f32::abs);
        let input = nonneg_input(Shape4::new(1, 2, 5, 5), 3);
        let cfg = LayerConfig::exact(&conv);
        let r = execute_conv(&conv, &input, &cfg);
        assert_eq!(r.profile.total_ops(), r.profile.full_macs());
    }

    #[test]
    fn paper_figure4_example() {
        // Figure 4: weights [-5, +1, -1] over inputs [+1, +2, +6], bias 0.
        // Unaltered output: -5 + 2 - 6 = -9. Exact mode reorders to
        // [+1, -5, -1] over [+2, +1, +6] and stops after 2 MACs at -3.
        let weight = Tensor4::from_vec(Shape4::new(1, 1, 1, 3), vec![-5.0, 1.0, -1.0]).unwrap();
        let geom = ConvGeom {
            kh: 1,
            kw: 3,
            stride: 1,
            pad: 0,
        };
        let conv = Conv2d::from_parts(weight, vec![0.0], geom);
        let input = Tensor4::from_vec(Shape4::new(1, 1, 1, 3), vec![1.0, 2.0, 6.0]).unwrap();
        let cfg = LayerConfig::exact(&conv);
        let r = execute_conv(&conv, &input, &cfg);
        assert_eq!(r.profile.op(0, 0, 0), 2);
        assert_eq!(r.output.as_slice()[0], -3.0);

        // Predictive mode with N=1, Th=+3: the largest-magnitude
        // representative of the single group is -5 (product -5·1 = -5 < 3),
        // so the window terminates after 1 MAC and the early ReLU outputs 0.
        let cfg = LayerConfig::predictive_uniform(&conv, KernelParams::new(3.0, 1));
        let r = execute_conv(&conv, &input, &cfg);
        assert_eq!(r.profile.op(0, 0, 0), 1);
        assert_eq!(r.output.as_slice()[0], 0.0);
    }

    #[test]
    fn predictive_mode_cuts_at_least_as_early_with_loose_threshold() {
        let mut rng = init::rng(5);
        let conv = Conv2d::new(3, 4, ConvGeom::square(3, 1, 1), &mut rng);
        let input = nonneg_input(Shape4::new(1, 3, 8, 8), 11);
        let exact = execute_conv(&conv, &input, &LayerConfig::exact(&conv));
        // A huge threshold predicts "negative" for every window after N ops.
        let params = KernelParams::new(f32::INFINITY, 4);
        let pred = execute_conv(
            &conv,
            &input,
            &LayerConfig::predictive_uniform(&conv, params),
        );
        assert!(pred.profile.total_ops() < exact.profile.total_ops());
        assert_eq!(
            pred.profile.total_ops(),
            (pred.profile.images() * pred.profile.kernels() * pred.profile.windows()) as u64 * 4
        );
        // Every window output zero (all predicted).
        assert!(pred.output.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn predictive_with_never_firing_threshold_matches_exact_outputs() {
        let mut rng = init::rng(6);
        let conv = Conv2d::new(3, 4, ConvGeom::square(3, 1, 1), &mut rng);
        let input = nonneg_input(Shape4::new(1, 3, 6, 6), 13);
        let params = KernelParams::new(f32::NEG_INFINITY, 2);
        let pred = execute_conv(
            &conv,
            &input,
            &LayerConfig::predictive_uniform(&conv, params),
        );
        let reference = conv.forward(&input);
        for (a, b) in pred.output.iter().zip(reference.iter()) {
            assert!((a.max(0.0) - b.max(0.0)).abs() < 1e-3);
        }
        assert!(!pred.output.iter().any(|v| v.is_nan()));
    }

    #[test]
    fn stats_split_true_and_false_negatives() {
        let mut rng = init::rng(8);
        let conv = Conv2d::new(3, 8, ConvGeom::square(3, 1, 1), &mut rng);
        let input = nonneg_input(Shape4::new(2, 3, 8, 8), 17);
        let params = KernelParams::new(0.05, 4);
        let r = execute_conv_stats(
            &conv,
            &input,
            &LayerConfig::predictive_uniform(&conv, params),
        );
        let s = r.stats;
        assert_eq!(
            s.negative_windows + s.positive_windows,
            (r.profile.images() * r.profile.kernels() * r.profile.windows()) as u64
        );
        assert!(s.true_negatives > 0, "no true negatives: {s:?}");
        assert!(s.true_negative_rate() <= 1.0);
        assert!(s.false_negative_rate() <= 1.0);
        assert!(s.squashed_mass <= s.positive_mass);
        // With a mild threshold the squashed mass should be a small share.
        assert!(s.squashed_mass_fraction() < 0.8);
    }

    #[test]
    fn op_counts_bounded_by_window_len() {
        let mut rng = init::rng(9);
        let conv = Conv2d::new(2, 3, ConvGeom::square(3, 2, 1), &mut rng);
        let input = nonneg_input(Shape4::new(1, 2, 9, 9), 19);
        for cfg in [
            LayerConfig::exact(&conv),
            LayerConfig::predictive_uniform(&conv, KernelParams::new(0.0, 2)),
        ] {
            let r = execute_conv(&conv, &input, &cfg);
            assert!(r
                .profile
                .ops
                .iter()
                .all(|&o| o as usize <= conv.window_len()));
        }
    }

    #[test]
    fn zero_skip_counts_nonzero_taps() {
        let mut rng = init::rng(41);
        let conv = Conv2d::new(2, 3, ConvGeom::square(3, 1, 1), &mut rng);
        // Half the inputs are exactly zero (post-ReLU style sparsity).
        let input = init::uniform4(Shape4::new(1, 2, 6, 6), 1.0, &mut rng).map(|v| {
            if v > 0.0 {
                v
            } else {
                0.0
            }
        });
        let p = zero_skip_profile(&conv, &input);
        assert!(p.total_ops() < p.full_macs(), "sparsity must be exploited");
        // Kernel-independent: same counts for every kernel.
        for w in 0..p.windows() {
            let a = p.op(0, 0, w);
            for k in 1..p.kernels() {
                assert_eq!(p.op(0, k, w), a);
            }
        }
        // All-dense input ⇒ only padding taps are skipped.
        let ones = Tensor4::full(Shape4::new(1, 2, 6, 6), 1.0);
        let pd = zero_skip_profile(&conv, &ones);
        let interior_full = pd
            .kernel_ops(0, 0)
            .iter()
            .any(|&o| o as usize == conv.window_len());
        assert!(interior_full, "interior windows have no zero taps");
    }

    #[test]
    fn combined_profile_dominates_both_mechanisms() {
        let mut rng = init::rng(43);
        let conv = Conv2d::new(3, 4, ConvGeom::square(3, 1, 1), &mut rng);
        let input = init::uniform4(Shape4::new(1, 3, 8, 8), 1.0, &mut rng).map(|v| {
            if v > 0.2 {
                v
            } else {
                0.0
            }
        });
        let cfg = LayerConfig::exact(&conv);
        let snapea = execute_conv(&conv, &input, &cfg).profile;
        let zskip = zero_skip_profile(&conv, &input);
        let combined = combined_profile(&conv, &input, &cfg, &snapea);
        // Combining the two mechanisms never costs more than either alone.
        assert!(combined.total_ops() <= snapea.total_ops());
        assert!(combined.total_ops() <= zskip.total_ops());
        assert!(combined.total_ops() > 0);
    }

    #[test]
    fn q16_exact_mode_matches_f32_within_quantisation() {
        let mut rng = init::rng(21);
        let conv = Conv2d::new(3, 4, ConvGeom::square(3, 1, 1), &mut rng);
        let input = nonneg_input(Shape4::new(1, 3, 8, 8), 22);
        let cfg = LayerConfig::exact(&conv);
        let fmt = Q16Format::new(10);
        let fq = execute_conv_q16(&conv, &input, &cfg, fmt);
        let ff = execute_conv(&conv, &input, &cfg);
        // Post-ReLU outputs agree within accumulated quantisation error.
        let window_err = conv.window_len() as f32 * fmt.lsb() * 4.0;
        for (a, b) in fq.output.iter().zip(ff.output.iter()) {
            assert!((a.max(0.0) - b.max(0.0)).abs() <= window_err, "{a} vs {b}");
        }
        // Termination decisions agree for the overwhelming majority of
        // windows (they can differ where the partial sum grazes zero).
        let same = fq
            .profile
            .ops_slice()
            .iter()
            .zip(ff.profile.ops_slice())
            .filter(|(a, b)| a == b)
            .count();
        let total = fq.profile.ops_slice().len();
        assert!(
            same as f64 / total as f64 > 0.9,
            "only {same}/{total} windows agree"
        );
    }

    #[test]
    fn q16_predictive_mode_zeroes_predicted_windows() {
        let mut rng = init::rng(31);
        let conv = Conv2d::new(2, 3, ConvGeom::square(3, 1, 0), &mut rng);
        let input = nonneg_input(Shape4::new(1, 2, 6, 6), 32);
        let cfg = LayerConfig::predictive_uniform(&conv, KernelParams::new(f32::INFINITY, 2));
        let r = execute_conv_q16(&conv, &input, &cfg, Q16Format::default());
        assert!(r.output.iter().all(|&v| v == 0.0));
        assert_eq!(
            r.profile.total_ops(),
            (r.profile.kernels() * r.profile.windows()) as u64 * 2
        );
    }

    /// The bias enters the q16 accumulator at the product scale at every
    /// format, 15 fractional bits included, where `1.0` itself saturates.
    #[test]
    fn q16_bias_is_exact_at_every_format() {
        let weight = Tensor4::zeros(Shape4::new(1, 2, 3, 3));
        let conv = Conv2d::from_parts(weight, vec![0.5], ConvGeom::square(3, 1, 0));
        // Nine windows: one tile of nine columns, padded to 16.
        let input = nonneg_input(Shape4::new(1, 2, 5, 5), 23);
        let cfg = LayerConfig::exact(&conv);
        for frac_bits in [8, 14, 15] {
            let r = execute_conv_q16(&conv, &input, &cfg, Q16Format::new(frac_bits));
            assert_eq!(r.output.as_slice(), [0.5; 9], "{frac_bits} fractional bits");
        }
    }

    /// The input offset of tap `(c, ky, kx)` of output position `(oy, ox)`,
    /// straight from the convolution's definition (`None` in the padding).
    fn brute_force_tap(
        (h, w): (usize, usize),
        geom: ConvGeom,
        (oy, ox): (usize, usize),
        (c, ky, kx): (usize, usize, usize),
    ) -> Option<usize> {
        let iy = (oy * geom.stride + ky).checked_sub(geom.pad)?;
        let ix = (ox * geom.stride + kx).checked_sub(geom.pad)?;
        (iy < h && ix < w).then(|| (c * h + iy) * w + ix)
    }

    proptest::proptest! {
        #[test]
        fn plan_taps_match_brute_force_scan(
            h in 1usize..10,
            w in 1usize..10,
            c_in in 1usize..4,
            kh in 1usize..4,
            kw in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..3,
        ) {
            let shape = Shape4::new(1, c_in, h, w);
            // Distinct non-zero values expose a misplaced read.
            let input = Tensor4::from_fn(shape, |_, c, y, x| (1 + (c * h + y) * w + x) as f32);
            // The drawn geometry, and one whose kernel is taller than its
            // padded input (a single, all-padding window).
            let tall = ConvGeom { kh: h + 2 * pad + kh, kw, stride, pad };
            for geom in [ConvGeom { kh, kw, stride, pad }, tall] {
                let (kh, kw) = (geom.kh, geom.kw);
                let conv = Conv2d::new(c_in, 1, geom, &mut init::rng(1));
                let (padded, plan) = WindowPlan::for_layer(&conv, &input);
                let ow = geom.out_w(w);
                proptest::prop_assert_eq!(plan.windows(), conv.out_shape(shape).plane_len());
                proptest::prop_assert_eq!(plan.window_len(), c_in * kh * kw);
                for win in 0..plan.windows() {
                    for i in 0..plan.window_len() {
                        let tap = (i / (kh * kw), i / kw % kh, i % kw);
                        let want = brute_force_tap((h, w), geom, (win / ow, win % ow), tap)
                            .map_or(0.0, |off| input.item(0)[off]);
                        let got = padded.item(0)[plan.tap(win, i)];
                        proptest::prop_assert_eq!(got, want, "window {} tap {}", win, i);
                    }
                }
                // The input is copied only where a window can reach padding.
                let fits = pad == 0 && kh <= h && kw <= w;
                proptest::prop_assert_eq!(matches!(padded, Cow::Borrowed(_)), fits);
            }
        }
    }

    /// A layer whose windows the test walks, and the configurations it
    /// walks them under.
    struct WalkCase {
        name: String,
        conv: Conv2d,
        input: Tensor4,
        cfgs: Vec<LayerConfig>,
    }

    /// A 1×1 conv with one kernel of `weights` (bias 0) over one 8×8 image,
    /// 64 windows: a single full tile whose channel `c`, column `j` holds
    /// `x(c, j)`.
    fn one_tile_case(
        name: &str,
        weights: &[f32],
        x: impl Fn(usize, usize) -> f32,
        cfg: impl Fn(&Conv2d) -> LayerConfig,
    ) -> WalkCase {
        let c_in = weights.len();
        let weight = Tensor4::from_vec(Shape4::new(1, c_in, 1, 1), weights.to_vec()).unwrap();
        let conv = Conv2d::from_parts(weight, vec![0.0], ConvGeom::square(1, 1, 0));
        let input = Tensor4::from_fn(Shape4::new(1, c_in, 8, 8), |_, c, y, w| x(c, y * 8 + w));
        let cfgs = vec![cfg(&conv)];
        WalkCase {
            name: name.to_string(),
            conv,
            input,
            cfgs,
        }
    }

    /// Every window's executor output and op count, stats off and on, and
    /// every window's [`WindowObs`] from [`observe_kernel`] equal
    /// [`run_window`] over the window's im2col column bit for bit, with the
    /// prefix and full sums of that column summed in walk order. Besides a
    /// plain padded layer, this holds where a padding tap's `+0.0` MAC is
    /// not a no-op — a `-0.0` bias (`-0.0 + 0.0` is `+0.0`) and a `+inf`
    /// weight (`0.0 · inf` is NaN) — across the tile boundaries (a tile
    /// straddling two image boundaries, layers of 63, 64, 65 and 129
    /// columns) and across the one-column switch (a tile thinned to a
    /// quarter by the speculative probe, and one thinned below a quarter by
    /// sign checks).
    #[test]
    fn executor_windows_match_run_window_over_im2col_columns() {
        let mut rng = init::rng(70);
        let both = |conv: &Conv2d| {
            vec![
                LayerConfig::exact(conv),
                LayerConfig::predictive_uniform(conv, KernelParams::new(0.1, 4)),
            ]
        };
        let mut cases = Vec::new();
        // A non-square kernel with an uneven stride on a non-square input,
        // so a swapped row/column anywhere in the plan shows.
        let geom = ConvGeom {
            kh: 3,
            kw: 2,
            stride: 2,
            pad: 1,
        };
        let conv = Conv2d::new(2, 3, geom, &mut rng);
        let input = nonneg_input(Shape4::new(1, 2, 7, 9), 71);
        let mut neg_zero_bias = conv.clone();
        neg_zero_bias.bias_mut()[1] = -0.0;
        let mut inf_weight = conv.clone();
        inf_weight.weight_mut()[(2, 0, 0, 0)] = f32::INFINITY;
        for (name, conv) in [
            ("plain", conv),
            ("-0.0 bias", neg_zero_bias),
            ("+inf weight", inf_weight),
        ] {
            let cfgs = both(&conv);
            let input = input.clone();
            let name = name.to_string();
            cases.push(WalkCase {
                name,
                conv,
                input,
                cfgs,
            });
        }
        // Three images of 3×3 windows: the one tile's 27 columns straddle
        // two image boundaries.
        let conv = Conv2d::new(2, 3, ConvGeom::square(3, 1, 1), &mut rng);
        let input = nonneg_input(Shape4::new(3, 2, 3, 3), 72);
        cases.push(WalkCase {
            name: "3 images of 9 windows".to_string(),
            cfgs: both(&conv),
            conv,
            input,
        });
        // Tile edges: one column short of a tile, a tile, one past it, and
        // one past two tiles.
        for (h, w) in [(7, 9), (8, 8), (5, 13), (3, 43)] {
            let conv = Conv2d::new(2, 3, ConvGeom::square(3, 1, 1), &mut rng);
            let input = nonneg_input(Shape4::new(1, 2, h, w), 73);
            cases.push(WalkCase {
                name: format!("{} columns", h * w),
                cfgs: both(&conv),
                conv,
                input,
            });
        }
        // The speculative probe (N = 1, the weight 2.0 first, Th = 1)
        // terminates the 48 columns whose channel 0 is 0 and leaves 16 of
        // 64 live: a quarter, so they finish alone.
        cases.push(one_tile_case(
            "spec probe leaves a quarter",
            &[2.0, 0.5, -0.25, -1.0],
            |c, j| match c {
                0 => f32::from(u8::from(j % 4 == 0)),
                _ => 0.1 * (c + j % 5) as f32,
            },
            |conv| LayerConfig::predictive_uniform(conv, KernelParams::new(1.0, 1)),
        ));
        // Exact mode walks 0.5 first, then the negatives by descending
        // magnitude, -1.0 and -0.25: the sign probe before -1.0 ends none,
        // the one before -0.25 ends the 52 columns whose channel 2 is 4, and
        // 12 of 64 finish alone.
        cases.push(one_tile_case(
            "sign probes thin below a quarter",
            &[0.5, -0.25, -1.0],
            |c, j| match c {
                0 => 1.0,
                1 => 0.01 * j as f32,
                _ => 4.0 * f32::from(u8::from(j % 16 >= 3)),
            },
            LayerConfig::exact,
        ));

        let mut nan_windows = 0;
        for case in &cases {
            let (conv, input) = (&case.conv, &case.input);
            let (n, len) = (input.shape().n, conv.window_len());
            let cols: Vec<_> = (0..n)
                .map(|img| snapea_tensor::im2col::im2col(input, img, conv.geom()))
                .collect();
            let (padded, plan) = WindowPlan::for_layer(conv, input);
            let windows = plan.windows();
            let column = |img: usize, w: usize| -> Vec<f32> {
                (0..len).map(|i| cols[img][(i, w)]).collect()
            };
            for cfg in &case.cfgs {
                let kernels = cfg.kernels();
                let runs = [
                    execute_conv(conv, input, cfg),
                    execute_conv_stats(conv, input, cfg),
                ];
                for (k, kexec) in kernels.iter().enumerate() {
                    let bias = conv.bias()[k];
                    // Every kernel of the config walks each tile fill as a
                    // candidate reordering under kernel `k`'s bias.
                    let mut obs = vec![WindowObs::default(); kernels.len() * n * windows];
                    observe_kernel(&plan, kernels, bias, &padded, &mut obs);
                    for img in 0..n {
                        for w in 0..windows {
                            let col = column(img, w);
                            let at = format!("{}: image {img} kernel {k} window {w}", case.name);
                            let want = run_window(kexec, &col, bias);
                            for r in &runs {
                                let got = r.output.item(img)[k * windows + w];
                                assert_eq!(got.to_bits(), want.output.to_bits(), "{at}");
                                assert_eq!(r.profile.op(img, k, w), want.ops, "{at}");
                                nan_windows += usize::from(got.is_nan());
                            }
                            for (r, cand) in kernels.iter().enumerate() {
                                let walked = |upto: usize| {
                                    let order = &cand.reordered.order()[..upto];
                                    let steps = order.iter().zip(cand.reordered.weights());
                                    steps.fold(bias, |a, (&i, &wt)| a + col[i as usize] * wt)
                                };
                                let got = obs[(r * n + img) * windows + w];
                                let stop1 = unconditional_prefix_len(&cand.pau, len);
                                let at = format!("{at} observed as reordering {r}");
                                let want = run_window(cand, &col, bias);
                                let bits =
                                    |r: WindowResult| (r.ops, r.output.to_bits(), r.termination);
                                assert_eq!(bits(got.result), bits(want), "{at}");
                                assert_eq!(got.prefix.to_bits(), walked(stop1).to_bits(), "{at}");
                                assert_eq!(got.full.to_bits(), walked(len).to_bits(), "{at}");
                            }
                        }
                    }
                }
            }
        }
        assert!(nan_windows > 0, "a padding tap under +inf must MAC to NaN");

        // The one-column cases terminate as built.
        let ends = |case: &WalkCase, ops: u32| {
            let r = execute_conv(&case.conv, &case.input, &case.cfgs[0]);
            r.profile.ops_slice().iter().filter(|&&o| o == ops).count()
        };
        let [.., spec, sign] = &cases[..] else {
            unreachable!()
        };
        assert_eq!(ends(spec, 1), 48, "{}", spec.name);
        assert_eq!(ends(sign, 2), 52, "{}", sign.name);
    }

    #[test]
    fn plan_taps_match_im2col_layout() {
        let shape = Shape4::new(1, 2, 5, 6);
        let geom = ConvGeom {
            kh: 3,
            kw: 2,
            stride: 2,
            pad: 1,
        };
        let conv = Conv2d::new(2, 1, geom, &mut init::rng(1));
        let x = Tensor4::from_fn(shape, |_, c, h, w| (c * 100 + h * 10 + w) as f32);
        let (padded, plan) = WindowPlan::for_layer(&conv, &x);
        let cols = snapea_tensor::im2col::im2col(&x, 0, geom);
        let item = padded.item(0);
        for w in 0..plan.windows() {
            for idx in 0..plan.window_len() {
                let got = item[plan.tap(w, idx)];
                assert_eq!(got, cols[(idx, w)], "window {w} tap {idx}");
            }
        }
    }
}
