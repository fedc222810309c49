//! The SnaPEA convolution executor: walks every convolution window
//! weight-by-weight in the reordered order, probing the PAU before each MAC
//! exactly as the hardware lanes do (paper §V), and records the per-window
//! operation counts — the function `Op(o, Th, N)` of the paper's Eq. (1).

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
/// call: each window's base and each weight's tap delta. Nothing in it is
/// sized `windows × window_len`.
///
/// A plan walks a pad-0 geometry over the input that
/// [`WindowPlan::for_layer`] returns, zero-padded wherever the layer's
/// windows reach padding, so every tap of every window reads that input and
/// a padding tap reads `+0.0`. Tap `i = (c*kh + ky)*kw + kx` of the window
/// whose top-left tap sits at row `y0`, column `x0` of that input reads
/// offset `base + delta[i]` of the image's item slice, where `base = y0*w +
/// x0` and `delta[i] = (c*h + ky)*w + kx`. Permuting `delta` by a kernel's
/// reorder (`WindowPlan::resolve`) yields taps already in walk order, so no
/// walk needs an `order[p]` indirection or a bounds check.
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

    /// The tap deltas permuted into `kernel`'s walk order: the window at
    /// `base` reads `item[base + resolved[p]]` at walk position `p`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel's length differs from the plan's window length.
    fn resolve(&self, kernel: &ReorderedKernel) -> Vec<i32> {
        assert_eq!(kernel.len(), self.delta.len(), "kernel/plan window length");
        kernel
            .order()
            .iter()
            .map(|&i| self.delta[i as usize])
            .collect()
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

/// Windows processed per batch by the executor. Eight lanes give
/// the FPU eight independent accumulator chains, hiding the `fadd` latency
/// that bounds a single window's strictly-ordered walk.
const BATCH: usize = 8;

/// The arithmetic of one PE lane: everything the window walk needs to know
/// about a precision. The walk itself — probe placement, termination,
/// eight-window batching, prediction accounting — is written once over this
/// trait; the `f32` model and the paper's 16-bit fixed-point PE (Table II)
/// are its two impls.
trait Datapath: Sync {
    /// An activation or weight as the lane multiplies it.
    type Operand: Copy + Sync;
    /// The lane's accumulator register.
    type Acc: Copy;

    /// A kernel's walk-order weights as operands.
    fn weights<'k>(&self, kernel: &'k KernelExec) -> Cow<'k, [Self::Operand]>;

    /// One image's activations as operands.
    fn activations<'a>(&self, item: &'a [f32]) -> Cow<'a, [Self::Operand]>;

    /// The accumulator a walk starts from: the bias.
    fn seed(&self, bias: f32) -> Self::Acc;

    /// One MAC.
    fn mac(acc: Self::Acc, x: Self::Operand, w: Self::Operand) -> Self::Acc;

    /// The partial sum as the PAU probes it — also the value a window
    /// stores.
    fn probe(&self, acc: Self::Acc) -> f32;
}

/// The `f32` datapath: the walk every accuracy experiment runs.
struct F32Datapath;

impl Datapath for F32Datapath {
    type Operand = f32;
    type Acc = f32;

    fn weights<'k>(&self, kernel: &'k KernelExec) -> Cow<'k, [f32]> {
        Cow::Borrowed(kernel.reordered.weights())
    }

    fn activations<'a>(&self, item: &'a [f32]) -> Cow<'a, [f32]> {
        Cow::Borrowed(item)
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

    fn activations<'a>(&self, item: &'a [f32]) -> Cow<'a, [Q16]> {
        Cow::Owned(quantize_slice(self.0, item))
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

/// Accumulates the positions in `span` for [`BATCH`] windows at once: each
/// position loads its resolved tap and weight once and feeds all eight
/// accumulator chains. Each window's own accumulation order is
/// unchanged (ascending `p`), so per-window results stay bit-identical to a
/// single window's walk.
#[inline]
// lint:allow(P2) p < weights.len() = resolved.len(); a plan's bases keep base+delta in bounds
fn span8<D: Datapath>(
    acc: &mut [D::Acc; BATCH],
    weights: &[D::Operand],
    resolved: &[i32],
    bases: &[i32; BATCH],
    item: &[D::Operand],
    span: Range<usize>,
) {
    for p in span {
        let (d, w) = (resolved[p], weights[p]);
        for (a, &b) in acc.iter_mut().zip(bases) {
            *a = D::mac(*a, item[(b + d) as usize], w);
        }
    }
}

/// Continues a window walk from position `start` with partial sum `acc`,
/// where `start` must be the walk's unconditional-prefix length
/// ([`unconditional_prefix_len`]). `mac(p, acc)` performs the MAC at
/// position `p` and returns the new partial sum.
///
/// This is the *phase-split* form of the per-MAC probe loop: one probe at
/// the speculative boundary, an unconditional run to `neg_start`, then a
/// probed walk through the negative region. The probe outcomes — and hence
/// `ops`, `output` and `termination` — are bit-identical to probing before
/// every MAC, because [`Pau::probe`] returns `Continue` unconditionally at
/// every skipped position.
#[inline(always)]
fn walk_from<D: Datapath>(
    dp: &D,
    pau: &Pau,
    len: usize,
    mut acc: D::Acc,
    start: usize,
    mut mac: impl FnMut(usize, D::Acc) -> D::Acc,
) -> WindowResult {
    debug_assert_eq!(start, unconditional_prefix_len(pau, len));
    let spec_probe = spec_probe_pos(pau);
    let ns = pau.neg_start();
    let mut p = start;
    if p < len && p == spec_probe {
        // The full probe also covers the spec_len == neg_start tie, where a
        // prediction outranks the sign check.
        let probed = dp.probe(acc);
        if let PauAction::Terminate(kind) = pau.probe(p, probed) {
            return terminated(p, probed, kind);
        }
        acc = mac(p, acc);
        p += 1;
        let stop = ns.min(len);
        while p < stop {
            acc = mac(p, acc);
            p += 1;
        }
    }
    while p < len {
        let probed = dp.probe(acc);
        if let PauAction::Terminate(kind) = pau.probe(p, probed) {
            return terminated(p, probed, kind);
        }
        acc = mac(p, acc);
        p += 1;
    }
    WindowResult {
        ops: snapea_tensor::num::ops_u32(len),
        output: dp.probe(acc),
        termination: None,
    }
}

/// Probes the PAU at position `p` on every lane still live (`None` in
/// `done`), recording each lane it terminates. Returns how many it
/// terminated.
#[inline(always)]
fn probe_live<D: Datapath, const L: usize>(
    dp: &D,
    pau: &Pau,
    p: usize,
    acc: &[D::Acc; L],
    done: &mut [Option<WindowResult>; L],
) -> usize {
    let mut ended = 0;
    for (d, &a) in done.iter_mut().zip(acc) {
        if d.is_none() {
            let probed = dp.probe(a);
            if let PauAction::Terminate(kind) = pau.probe(p, probed) {
                *d = Some(terminated(p, probed, kind));
                ended += 1;
            }
        }
    }
    ended
}

/// Where a pair's walk puts each window's outcome, at the window's index,
/// and how far it walks a window from the end of its probe-free prefix.
trait Sink<D: Datapath> {
    /// Finishes window `w`, at `base`, alone from its prefix `acc`.
    fn one(&mut self, walk: &PairWalk<'_, D>, w: usize, base: i32, acc: D::Acc);

    /// Finishes the [`BATCH`] windows `w0..w0 + BATCH`, at `bases`, from
    /// their prefixes `acc`.
    fn batch(
        &mut self,
        walk: &PairWalk<'_, D>,
        w0: usize,
        bases: &[i32; BATCH],
        acc: [D::Acc; BATCH],
    );
}

/// The early-terminating walk: the value stored and the MACs executed.
struct Results<'s> {
    out: &'s mut [f32],
    ops: &'s mut [u32],
}

impl<D: Datapath> Sink<D> for Results<'_> {
    #[inline(always)]
    fn one(&mut self, walk: &PairWalk<'_, D>, w: usize, base: i32, acc: D::Acc) {
        let r = walk.finish(base, acc);
        self.out[w] = r.output;
        self.ops[w] = r.ops;
    }

    fn batch(
        &mut self,
        walk: &PairWalk<'_, D>,
        w0: usize,
        bases: &[i32; BATCH],
        acc: [D::Acc; BATCH],
    ) {
        for (w, (&base, a)) in (w0..).zip(bases.iter().zip(acc)) {
            self.one(walk, w, base, a);
        }
    }
}

/// The observed walk: every window to its end, one record per window.
struct Observed<'s>(&'s mut [WindowObs]);

impl<D: Datapath> Sink<D> for Observed<'_> {
    #[inline(always)]
    fn one(&mut self, walk: &PairWalk<'_, D>, w: usize, base: i32, acc: D::Acc) {
        let mac = walk.mac(base);
        let [obs] = walk.observe([acc], |p, a: &mut [D::Acc; 1]| a[0] = mac(p, a[0]));
        self.0[w] = obs;
    }

    fn batch(
        &mut self,
        walk: &PairWalk<'_, D>,
        w0: usize,
        bases: &[i32; BATCH],
        acc: [D::Acc; BATCH],
    ) {
        let (weights, resolved, item) = (walk.weights, walk.resolved, walk.item);
        let recs = walk.observe(acc, |p, a| {
            span8::<D>(a, weights, resolved, bases, item, p..p + 1);
        });
        self.0[w0..w0 + BATCH].copy_from_slice(&recs);
    }
}

/// One `(image, kernel)` pair's walk inputs, in a datapath's operands.
struct PairWalk<'a, D: Datapath> {
    dp: &'a D,
    pau: &'a Pau,
    weights: &'a [D::Operand],
    /// The kernel's walk-order tap deltas (`WindowPlan::resolve`).
    resolved: &'a [i32],
    item: &'a [D::Operand],
    seed: D::Acc,
    /// The probe-free prefix length ([`unconditional_prefix_len`]).
    stop1: usize,
}

impl<'a, D: Datapath> PairWalk<'a, D> {
    /// `weights` must be `dp.weights(kernel)` and `resolved` the kernel's
    /// resolved taps.
    fn new(
        dp: &'a D,
        kernel: &'a KernelExec,
        weights: &'a [D::Operand],
        resolved: &'a [i32],
        item: &'a [D::Operand],
        bias: f32,
    ) -> Self {
        Self {
            dp,
            pau: &kernel.pau,
            weights,
            resolved,
            item,
            seed: dp.seed(bias),
            stop1: unconditional_prefix_len(&kernel.pau, weights.len()),
        }
    }

    /// The MAC at each walk position of the window at `base`.
    #[inline(always)]
    fn mac(&self, base: i32) -> impl Fn(usize, D::Acc) -> D::Acc + Copy + 'a {
        let (weights, resolved, item) = (self.weights, self.resolved, self.item);
        move |p, acc| D::mac(acc, item[(base + resolved[p]) as usize], weights[p])
    }

    /// The probe-free prefix of the window at `base`.
    #[inline(always)]
    fn prefix(&self, base: i32) -> D::Acc {
        let mac = self.mac(base);
        (0..self.stop1).fold(self.seed, |acc, p| mac(p, acc))
    }

    /// The probe-free prefixes of the [`BATCH`] windows at `bases`, each
    /// summed in the same order as [`PairWalk::prefix`].
    #[inline]
    fn prefix8(&self, bases: &[i32; BATCH]) -> [D::Acc; BATCH] {
        let mut acc = [self.seed; BATCH];
        let (weights, resolved, item) = (self.weights, self.resolved, self.item);
        span8::<D>(&mut acc, weights, resolved, bases, item, 0..self.stop1);
        acc
    }

    /// Walks the window at `base` on from its probe-free prefix `acc`,
    /// stopping where the PAU says.
    #[inline(always)]
    fn finish(&self, base: i32, acc: D::Acc) -> WindowResult {
        let len = self.weights.len();
        walk_from(self.dp, self.pau, len, acc, self.stop1, self.mac(base))
    }

    /// Walks `L` windows on from the end of their probe-free prefixes
    /// (`acc`) to the end of the window, recording each one's
    /// [`WindowObs`]; `mac(p, acc)` performs every lane's MAC at position
    /// `p`, once per position.
    ///
    /// Phase-split like [`walk_from`]: the speculative probe once at the end
    /// of the prefix, an unconditional run to `neg_start`, probes only on
    /// the lanes still live, and an unconditional run once every lane has
    /// terminated. Each lane's decision is the one [`walk_from`] makes from
    /// the same prefix, and its full sum continues the same per-window
    /// order.
    #[inline(always)]
    fn observe<const L: usize>(
        &self,
        mut acc: [D::Acc; L],
        mut mac: impl FnMut(usize, &mut [D::Acc; L]),
    ) -> [WindowObs; L] {
        let (dp, pau, len) = (self.dp, self.pau, self.weights.len());
        let prefix = acc.map(|a| dp.probe(a));
        let mut done = [None; L];
        let mut live = L;
        let mut p = self.stop1;
        if p < len && p == spec_probe_pos(pau) {
            live -= probe_live(dp, pau, p, &acc, &mut done);
            mac(p, &mut acc);
            p += 1;
            let stop = pau.neg_start().min(len);
            while p < stop {
                mac(p, &mut acc);
                p += 1;
            }
        }
        while live > 0 && p < len {
            live -= probe_live(dp, pau, p, &acc, &mut done);
            mac(p, &mut acc);
            p += 1;
        }
        while p < len {
            mac(p, &mut acc);
            p += 1;
        }
        let full = acc.map(|a| dp.probe(a));
        std::array::from_fn(|l| WindowObs {
            result: done[l].unwrap_or(WindowResult {
                ops: snapea_tensor::num::ops_u32(len),
                output: full[l],
                termination: None,
            }),
            prefix: prefix[l],
            full: full[l],
        })
    }

    /// Walks every window of `plan` into `sink`: the windows in groups of
    /// [`BATCH`], each group's probe-free prefixes eight chains at a time
    /// ([`PairWalk::prefix8`]), then the last `windows % BATCH` one at a
    /// time. Every outcome lands at its window's index.
    fn walk_windows(&self, plan: &WindowPlan, sink: &mut impl Sink<D>) {
        let (chunks, rest) = plan.bases.as_chunks::<BATCH>();
        for (c, bases) in chunks.iter().enumerate() {
            sink.batch(self, c * BATCH, bases, self.prefix8(bases));
        }
        for (w, &base) in (chunks.len() * BATCH..).zip(rest) {
            sink.one(self, w, base, self.prefix(base));
        }
    }
}

/// Walks a single convolution window: probes the PAU exactly as the hardware
/// lanes do before each MAC, terminates when it says so. `values[i]` is the
/// input under original weight index `i`.
///
/// # Panics
///
/// Panics if `values` is shorter than the kernel.
pub fn run_window(kernel: &KernelExec, values: &[f32], bias: f32) -> WindowResult {
    // `values` is a window at base 0 whose tap deltas are the weight
    // indices themselves.
    let resolved: Vec<i32> = kernel
        .reordered
        .order()
        .iter()
        .map(|&i| snapea_tensor::num::idx_i32(i as usize))
        .collect();
    let weights = F32Datapath.weights(kernel);
    let walk = PairWalk::new(&F32Datapath, kernel, &weights, &resolved, values, bias);
    walk.finish(0, walk.prefix(0))
}

/// Walks every window of one kernel over every image of `input` in observed
/// mode, through the executor's own walk: `obs[img * windows + w]` receives
/// window `w` of image `img`. `input` and `plan` must be the pair
/// [`WindowPlan::for_layer`] returns for the layer, the input and plan the
/// executor itself walks. Images are walked in order on the calling
/// thread and no `exec/*` metric is charged: Algorithm 1's Kernel Profiling
/// pass calls this once per kernel and candidate reordering, inside its own
/// parallel map.
///
/// # Panics
///
/// Panics if `obs.len()` is not `input`'s image count times the plan's
/// window count, or the kernel's length is not the plan's window length.
pub fn observe_kernel(
    plan: &WindowPlan,
    kernel: &KernelExec,
    bias: f32,
    input: &Tensor4,
    obs: &mut [WindowObs],
) {
    let windows = plan.windows();
    assert_eq!(
        obs.len(),
        input.shape().n * windows,
        "one record per window"
    );
    if windows == 0 {
        return;
    }
    let resolved = plan.resolve(&kernel.reordered);
    let weights = F32Datapath.weights(kernel);
    for (n, image_obs) in obs.chunks_mut(windows).enumerate() {
        let walk = PairWalk::new(
            &F32Datapath,
            kernel,
            &weights,
            &resolved,
            input.item(n),
            bias,
        );
        walk.walk_windows(plan, &mut Observed(image_obs));
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
    // Per-layer span (only when a sink is attached) plus an always-on
    // stopwatch feeding the `exec/layer_ms` latency histogram: one clock
    // read per layer call, never per window, so the disabled-path budget
    // holds. Per-(image, kernel) spans are a further opt-in behind
    // `SNAPEA_TRACE_DETAIL` — a full repro run executes thousands of
    // layers and would swamp the log otherwise.
    let _layer_span = snapea_obs::hot_span!("exec/layer");
    let trace_kernels = snapea_obs::enabled() && snapea_obs::detail_enabled();
    let layer_clock = snapea_obs::Stopwatch::start();
    let s = input.shape();
    let out_shape = conv.out_shape(s);
    let (input, plan) = WindowPlan::for_layer(conv, input);
    let windows = plan.windows();
    debug_assert_eq!(windows, out_shape.plane_len());

    // Resolved taps (walk-order tap deltas) and operand weights once per
    // kernel, operand activations once per image, shared by every pair's
    // task. Quantisation is deterministic, so hoisting it out of the
    // per-MAC loop changes nothing numerically.
    let resolved: Vec<Vec<i32>> = cfg
        .kernels
        .iter()
        .map(|k| plan.resolve(&k.reordered))
        .collect();
    let weights: Vec<Cow<'_, [D::Operand]>> = cfg.kernels.iter().map(|k| dp.weights(k)).collect();
    let items: Vec<Cow<'_, [D::Operand]>> =
        (0..s.n).map(|n| dp.activations(input.item(n))).collect();

    let mut output = Tensor4::zeros(out_shape);
    let mut ops = vec![0u32; s.n * conv.c_out() * windows];
    let mut stats = PredictionStats::default();

    // One task per *block* of consecutive (image, kernel) pairs. Flat pair
    // index `n * c_out + k` addresses both the output plane
    // (`offset(n, k, 0, 0)` = pair * windows) and the ops layout, so zipping
    // the two block-sized chunk iterators hands every task its disjoint
    // output/ops slices; within a block the pairs are walked ascending. The
    // block size comes from `chunk_for` with the walk floor: an n=1 serving
    // layer with 32 kernels still splits into per-kernel-block tasks, while
    // a tiny layer collapses to one inline task and never pays dispatch.
    // Each pair's stats still accumulate privately (one `PredictionStats`
    // per pair, exactly as the serial walk folds them) and merge in
    // ascending pair order — the same grouping for any thread count and any
    // block size, so the f64 masses are bit-identical whether the pairs ran
    // on one worker or eight.
    if windows > 0 {
        let chunk = snapea_tensor::par::chunk_for(
            s.n * conv.c_out(),
            windows * conv.window_len(),
            snapea_tensor::par::WALK_TASK_FLOOR_OPS,
        );
        let blocks: Vec<(&mut [f32], &mut [u32])> = output
            .as_mut_slice()
            .chunks_mut(chunk * windows)
            .zip(ops.chunks_mut(chunk * windows))
            .collect();
        let per_block: Vec<Vec<PredictionStats>> =
            snapea_tensor::par::run_tasks(blocks, |bi, (out_blk, ops_blk)| {
                let mut obs = vec![WindowObs::default(); if collect_stats { windows } else { 0 }];
                out_blk
                    .chunks_mut(windows)
                    .zip(ops_blk.chunks_mut(windows))
                    .enumerate()
                    .map(|(pi, (out_slice, ops_slice))| {
                        let pair = bi * chunk + pi;
                        let (n, k) = (pair / conv.c_out(), pair % conv.c_out());
                        let _kernel_span = trace_kernels.then(|| {
                            snapea_obs::span::enter_detail(
                                "exec/kernel",
                                Some(format!("image {n} kernel {k}")),
                            )
                        });
                        let walk = PairWalk::new(
                            dp,
                            &cfg.kernels[k],
                            &weights[k],
                            &resolved[k],
                            &items[n],
                            conv.bias()[k],
                        );
                        let mut st = PredictionStats::default();
                        if !collect_stats {
                            let mut sink = Results {
                                out: out_slice,
                                ops: ops_slice,
                            };
                            walk.walk_windows(&plan, &mut sink);
                            return st;
                        }
                        walk.walk_windows(&plan, &mut Observed(&mut obs));
                        // The stats fold after the walk, in ascending window
                        // order, whatever order the windows were walked in.
                        let slots = out_slice.iter_mut().zip(ops_slice.iter_mut());
                        for (o, (out, op)) in obs.iter().zip(slots) {
                            *out = o.result.output;
                            *op = o.result.ops;
                            account_window(&mut st, o.full, o.result.termination);
                        }
                        st
                    })
                    .collect()
            });
        for st in per_block.iter().flatten() {
            stats.merge(st);
        }
    }

    let profile = LayerProfile {
        images: s.n,
        kernels: conv.c_out(),
        windows,
        window_len: conv.window_len(),
        ops,
    };
    record_layer_execution(
        &profile,
        collect_stats.then_some(&stats),
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
/// Every pair walks its windows in groups of [`BATCH`] and the last
/// `windows % BATCH` alone (`PairWalk::walk_windows`), so the
/// `lane_windows` / `scalar_windows` split follows from the geometry.
fn record_layer_execution(
    profile: &LayerProfile,
    stats: Option<&PredictionStats>,
    elapsed_ms: f64,
) {
    let performed = profile.total_ops();
    let dense = profile.full_macs();
    let pairs = (profile.images() * profile.kernels()) as u64;
    let scalar_windows = pairs * (profile.windows() % BATCH) as u64;
    let lane_windows = pairs * profile.windows() as u64 - scalar_windows;
    snapea_obs::counter("exec/layer_calls").inc();
    snapea_obs::counter("exec/macs_performed").add(performed);
    snapea_obs::counter("exec/macs_dense").add(dense);
    snapea_obs::counter("exec/lane_windows").add(lane_windows);
    snapea_obs::counter("exec/scalar_windows").add(scalar_windows);
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
                lane_windows = lane_windows,
                scalar_windows = scalar_windows,
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
                lane_windows = lane_windows,
                scalar_windows = scalar_windows,
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
        // Nine windows: eight walked as a batch, one alone.
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

    /// Every window's executor output and op count, stats off and on, equal
    /// [`run_window`] over the window's im2col column bit for bit, in exact
    /// and predictive mode. Besides a plain padded layer, this holds where
    /// a padding tap's `+0.0` MAC is not a no-op: a `-0.0` bias (`-0.0 +
    /// 0.0` is `+0.0`) and a `+inf` weight (`0.0 · inf` is NaN).
    #[test]
    fn executor_windows_match_run_window_over_im2col_columns() {
        let mut rng = init::rng(70);
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
        let cols = snapea_tensor::im2col::im2col(&input, 0, geom);
        let mut nan_windows = 0;
        for (case, conv) in [
            ("plain", conv),
            ("-0.0 bias", neg_zero_bias),
            ("+inf weight", inf_weight),
        ] {
            for cfg in [
                LayerConfig::exact(&conv),
                LayerConfig::predictive_uniform(&conv, KernelParams::new(0.1, 4)),
            ] {
                for r in [
                    execute_conv(&conv, &input, &cfg),
                    execute_conv_stats(&conv, &input, &cfg),
                ] {
                    let windows = r.profile.windows();
                    let planes = r.output.item(0).chunks_exact(windows);
                    for ((k, kexec), plane) in cfg.kernels().iter().enumerate().zip(planes) {
                        for (w, got) in plane.iter().enumerate() {
                            let column: Vec<f32> =
                                (0..conv.window_len()).map(|i| cols[(i, w)]).collect();
                            let want = run_window(kexec, &column, conv.bias()[k]);
                            let at = format!("{case}: kernel {k} window {w}");
                            assert_eq!(got.to_bits(), want.output.to_bits(), "{at}");
                            assert_eq!(r.profile.op(0, k, w), want.ops, "{at}");
                            nan_windows += usize::from(got.is_nan());
                        }
                    }
                }
            }
        }
        assert!(nan_windows > 0, "a padding tap under +inf must MAC to NaN");
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
