//! The differential harness: generates cases, runs the fast paths and the
//! oracle side by side, and reports every divergence as a replayable,
//! minimized failure.
//!
//! Per case the harness asserts:
//!
//! 1. `Conv2d::forward` (im2col + GEMM + pool) matches the 7-loop oracle
//!    within a window-length-scaled float tolerance;
//! 2. the exact-mode executor output is **bit-identical** to the oracle's
//!    independent window walk, with identical per-window op counts, and (for
//!    non-negative inputs) post-ReLU equal to the dense reference;
//! 3. the predictive-mode executor output is bit-identical to the oracle's
//!    speculative walk, non-predicted windows match the dense reference
//!    post-ReLU, and `PredictionStats` tallies equal the oracle's
//!    re-derivation (exactly, including the f64 masses);
//! 4. executed MAC totals never exceed the oracle's dense MAC count;
//! 5. for both accelerator presets, the simulator's MAC total equals the
//!    profile's and its cycle count sits inside the analytical
//!    [`crate::cycle_model`] bounds; the analytic PE engine is additionally
//!    cross-checked against the cycle-stepped reference on the case's data;
//! 6. max pooling (both the inference form and the argmax-recording
//!    training form) and LRN match their naive references bit for bit,
//!    argmax included; avg pooling and the fully-connected layer match
//!    theirs within tolerance;
//! 7. the q16 executor, under the case's modes and a fixed-point format
//!    drawn from the case seed, is bit-identical to the oracle's
//!    fixed-point walk, with identical per-window op counts.
//!
//! A failing case is re-run on every single-image / single-kernel
//! sub-problem to find a minimal reproduction, and reported with its seed
//! and config line. [`HarnessOptions::inject_exact_bug`] flips one output
//! bit before the exact-mode comparison — the smoke test proving the
//! harness actually detects and reports divergence.

use crate::cycle_model::pe_array_bounds;
use crate::gen::CaseConfig;
use crate::reference::{self, OracleTermination};
use crate::rng::{mix, OracleRng};
use snapea::exec::{
    execute_conv, execute_conv_q16, execute_conv_stats, LayerConfig, LayerProfile, PredictionStats,
};
use snapea::params::{KernelMode, LayerParams};
use snapea_accel::sim::map_layer;
use snapea_accel::{engine, AccelConfig, LayerWorkload};
use snapea_nn::ops::{AvgPool, Conv2d, Linear, Lrn, MaxPool, PoolGeom};
use snapea_obs::Json;
use snapea_tensor::q16::Q16Format;
use snapea_tensor::{Shape2, Shape4, Tensor2, Tensor4};
use std::fmt::Write as _;

/// Harness knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct HarnessOptions {
    /// Flip the low mantissa bit of the first exact-mode output element
    /// before comparison — a deliberate bug injection proving failures are
    /// detected and reported with a replayable case.
    pub inject_exact_bug: bool,
}

/// A failed case, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// The case seed (replay with `snapea-tool selfcheck --replay <seed>`).
    pub seed: u64,
    /// The generated configuration, rendered.
    pub config: String,
    /// One message per failed check.
    pub messages: Vec<String>,
    /// Smallest single-image/single-kernel sub-case that still fails, if
    /// minimization found one.
    pub minimized: Option<String>,
}

/// Outcome of one case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The case seed.
    pub seed: u64,
    /// Checks performed.
    pub checks: u64,
    /// MACs the executor actually performed (exact + predictive runs).
    pub exec_macs: u64,
    /// Dense MACs the oracle counted for the same runs.
    pub dense_macs: u64,
    /// The failure, if any check tripped.
    pub failure: Option<CaseFailure>,
}

/// Aggregate result of a selfcheck run.
#[derive(Debug, Clone)]
pub struct SelfCheckReport {
    /// The run seed cases were derived from.
    pub run_seed: u64,
    /// Cases executed.
    pub cases: u64,
    /// Checks performed.
    pub checks: u64,
    /// MACs the executor performed across all cases.
    pub exec_macs: u64,
    /// Dense MACs across the same runs.
    pub dense_macs: u64,
    /// Every failed case.
    pub failures: Vec<CaseFailure>,
}

impl SelfCheckReport {
    /// Whether every check of every case passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Fraction of dense MACs the executor skipped across the fuzzed cases.
    pub fn mac_savings(&self) -> f64 {
        if self.dense_macs == 0 {
            0.0
        } else {
            1.0 - self.exec_macs as f64 / self.dense_macs as f64
        }
    }

    /// Human-readable report; failures include seed, config, and a replay
    /// command line.
    pub fn render_text(&self) -> String {
        let mut s = format!(
            "selfcheck seed={}: {} cases, {} checks, {} failure(s); \
             executor MACs {} / dense {} (savings {:.1}%)",
            self.run_seed,
            self.cases,
            self.checks,
            self.failures.len(),
            self.exec_macs,
            self.dense_macs,
            100.0 * self.mac_savings(),
        );
        for f in &self.failures {
            let _ = write!(
                s,
                "\nFAILED case seed={:#018x}\n  config: {}",
                f.seed, f.config
            );
            for m in &f.messages {
                let _ = write!(s, "\n  - {m}");
            }
            if let Some(m) = &f.minimized {
                let _ = write!(s, "\n  minimized: {m}");
            }
            let _ = write!(
                s,
                "\n  replay: snapea-tool selfcheck --replay {:#018x}",
                f.seed
            );
        }
        s
    }

    /// Structured report (the CLI's `--json` payload).
    pub fn to_json(&self) -> Json {
        let failures: Vec<Json> = self
            .failures
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("seed", Json::Str(format!("{:#018x}", f.seed))),
                    ("config", Json::Str(f.config.clone())),
                    (
                        "messages",
                        Json::Arr(f.messages.iter().map(|m| Json::Str(m.clone())).collect()),
                    ),
                    (
                        "minimized",
                        match &f.minimized {
                            Some(m) => Json::Str(m.clone()),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("seed", Json::U64(self.run_seed)),
            ("cases", Json::U64(self.cases)),
            ("checks", Json::U64(self.checks)),
            ("failed", Json::U64(self.failures.len() as u64)),
            ("exec_macs", Json::U64(self.exec_macs)),
            ("dense_macs", Json::U64(self.dense_macs)),
            ("mac_savings", Json::F64(self.mac_savings())),
            ("passed", Json::Bool(self.passed())),
            ("failures", Json::Arr(failures)),
        ])
    }
}

/// Tolerance for comparing sums accumulated in different orders: scales with
/// the number of terms (the fast path sums via im2col/GEMM, the oracle in
/// coordinate order).
fn tol(terms: usize) -> f32 {
    1e-4 + terms as f32 * 4e-5
}

/// Decodes a flat `(image·kernels + kernel)·windows + window` index for a
/// failure message.
fn locate(idx: usize, kernels: usize, windows: usize, ow: usize) -> String {
    let (pair, w) = (idx / windows.max(1), idx % windows.max(1));
    let (n, k) = (pair / kernels.max(1), pair % kernels.max(1));
    format!(
        "image {n} kernel {k} window {w} (oy {}, ox {})",
        w / ow.max(1),
        w % ow.max(1)
    )
}

struct ConvCheck {
    checks: u64,
    exec_macs: u64,
    dense_macs: u64,
    messages: Vec<String>,
    exact_profile: LayerProfile,
    predictive_profile: Option<LayerProfile>,
}

/// Runs the convolution-side differential checks (1–4 in the module docs).
fn check_conv(
    conv: &Conv2d,
    input: &Tensor4,
    modes: &[KernelMode],
    signed_inputs: bool,
    q16: Q16Format,
    inject: bool,
) -> ConvCheck {
    let geom = conv.geom();
    let s = input.shape();
    let (kernels, windows) = (conv.c_out(), conv.out_shape(s).plane_len());
    let ow = reference::conv_out_dim(s.w, geom.kw, geom.stride, geom.pad);
    let t = tol(conv.window_len());
    let mut checks = 0u64;
    let mut messages = Vec::new();

    let dense = reference::conv_dense(conv.weight(), conv.bias(), geom, input);
    let dense_macs = reference::dense_macs(s, conv.c_out(), geom);

    let compare_tol = |label: &str, got: &[f32], want: &[f32], msgs: &mut Vec<String>| {
        let mut worst = 0.0f32;
        let mut at = None;
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            let d = (g - w).abs();
            if d > t && d > worst {
                worst = d;
                at = Some((i, g, w));
            }
        }
        if let Some((i, g, w)) = at {
            msgs.push(format!(
                "{label}: max error {worst:e} exceeds tolerance {t:e}; first worst at {}: {g} vs {w}",
                locate(i, kernels, windows, ow)
            ));
        }
    };
    let compare_bits = |label: &str, got: &[f32], want: &[f32], msgs: &mut Vec<String>| {
        let mut diffs = 0usize;
        let mut first = None;
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            if g.to_bits() != w.to_bits() {
                diffs += 1;
                if first.is_none() {
                    first = Some((i, g, w));
                }
            }
        }
        if let Some((i, g, w)) = first {
            msgs.push(format!(
                "{label}: {diffs} element(s) not bit-identical; first at {}: {g} (bits {:#010x}) vs {w} (bits {:#010x})",
                locate(i, kernels, windows, ow),
                g.to_bits(),
                w.to_bits()
            ));
        }
    };
    let compare_ops = |label: &str, got: &[u32], want: &[u32], msgs: &mut Vec<String>| {
        if let Some((i, (&g, &w))) = got.iter().zip(want).enumerate().find(|(_, (g, w))| g != w) {
            msgs.push(format!(
                "{label}: op counts differ at {}: executor {g} vs oracle {w}",
                locate(i, kernels, windows, ow)
            ));
        }
    };

    // 1. Fast convolution path vs the 7-loop oracle.
    let fwd = conv.forward(input);
    compare_tol(
        "Conv2d::forward (im2col/GEMM) vs 7-loop oracle",
        fwd.as_slice(),
        dense.as_slice(),
        &mut messages,
    );
    checks += 1;

    // 2. Exact mode: bit-identical walk, identical op counts, post-ReLU
    //    equal to dense within summation-order tolerance (the paper's
    //    zero-accuracy-loss contract).
    let exact_cfg = LayerConfig::exact(conv);
    let er = execute_conv(conv, input, &exact_cfg);
    let eo = reference::execute_layer(conv.weight(), conv.bias(), geom, input, &LayerParams::Exact);
    let mut exec_out = er.output.as_slice().to_vec();
    if inject && !exec_out.is_empty() {
        exec_out[0] = f32::from_bits(exec_out[0].to_bits() ^ 1);
    }
    compare_bits(
        "exact-mode executor vs oracle walk",
        &exec_out,
        eo.output.as_slice(),
        &mut messages,
    );
    checks += 1;
    compare_ops(
        "exact-mode op counts",
        er.profile.ops_slice(),
        &eo.ops,
        &mut messages,
    );
    checks += 1;
    if !signed_inputs {
        let relu_exec: Vec<f32> = er.output.iter().map(|&v| v.max(0.0)).collect();
        let relu_dense: Vec<f32> = dense.iter().map(|&v| v.max(0.0)).collect();
        compare_tol(
            "exact-mode post-ReLU vs dense reference",
            &relu_exec,
            &relu_dense,
            &mut messages,
        );
        checks += 1;
    }
    let mut exec_macs = er.profile.total_ops();
    let mut dense_total = dense_macs;
    if er.profile.total_ops() > dense_macs {
        messages.push(format!(
            "exact-mode MAC count {} exceeds oracle dense count {dense_macs}",
            er.profile.total_ops()
        ));
    }
    checks += 1;

    // 3. Predictive mode.
    let mut predictive_profile = None;
    if modes.iter().any(KernelMode::is_speculative) {
        let params = LayerParams::Predictive(modes.to_vec());
        let cfg = LayerConfig::from_params(conv, &params);
        let pr = execute_conv_stats(conv, input, &cfg);
        let po = reference::execute_layer(conv.weight(), conv.bias(), geom, input, &params);
        compare_bits(
            "predictive-mode executor vs oracle walk",
            pr.output.as_slice(),
            po.output.as_slice(),
            &mut messages,
        );
        checks += 1;
        compare_ops(
            "predictive-mode op counts",
            pr.profile.ops_slice(),
            &po.ops,
            &mut messages,
        );
        checks += 1;
        if !signed_inputs {
            // Non-predicted windows carry the exact value (sign-check
            // terminations are output-preserving); predicted windows were
            // squashed by the early ReLU and are exempt.
            let mut worst = 0.0f32;
            let mut at = None;
            for (i, (&g, &d)) in pr.output.as_slice().iter().zip(dense.iter()).enumerate() {
                if po.terminations[i] == Some(OracleTermination::Predicted) {
                    continue;
                }
                let err = (g.max(0.0) - d.max(0.0)).abs();
                if err > t && err > worst {
                    worst = err;
                    at = Some(i);
                }
            }
            if let Some(i) = at {
                messages.push(format!(
                    "predictive-mode non-predicted window diverges from dense reference at {}: error {worst:e} > {t:e}",
                    locate(i, kernels, windows, ow)
                ));
            }
            checks += 1;
        }
        if let Some(m) = compare_stats(&pr.stats, &po.stats()) {
            messages.push(m);
        }
        checks += 1;
        if pr.profile.total_ops() > dense_macs {
            messages.push(format!(
                "predictive-mode MAC count {} exceeds oracle dense count {dense_macs}",
                pr.profile.total_ops()
            ));
        }
        checks += 1;
        exec_macs += pr.profile.total_ops();
        dense_total += dense_macs;
        predictive_profile = Some(pr.profile);
    }

    // 7. The q16 executor under the case's modes.
    let params = LayerParams::Predictive(modes.to_vec());
    let qr = execute_conv_q16(conv, input, &LayerConfig::from_params(conv, &params), q16);
    let qo = reference::execute_layer_q16(conv.weight(), conv.bias(), geom, input, &params, q16);
    let label = format!("q16 (frac_bits {}) executor", q16.frac_bits());
    compare_bits(
        &format!("{label} vs oracle fixed-point walk"),
        qr.output.as_slice(),
        qo.output.as_slice(),
        &mut messages,
    );
    compare_ops(
        &format!("{label} op counts"),
        qr.profile.ops_slice(),
        &qo.ops,
        &mut messages,
    );
    checks += 2;

    ConvCheck {
        checks,
        exec_macs,
        dense_macs: dense_total,
        messages,
        exact_profile: er.profile,
        predictive_profile,
    }
}

fn compare_stats(got: &PredictionStats, want: &PredictionStats) -> Option<String> {
    let counts_ok = got.negative_windows == want.negative_windows
        && got.positive_windows == want.positive_windows
        && got.true_negatives == want.true_negatives
        && got.false_negatives == want.false_negatives
        && got.sign_terminations == want.sign_terminations;
    let masses_ok = got.positive_mass.to_bits() == want.positive_mass.to_bits()
        && got.squashed_mass.to_bits() == want.squashed_mass.to_bits();
    if counts_ok && masses_ok {
        None
    } else {
        Some(format!(
            "PredictionStats diverge from oracle tallies: executor {got:?} vs oracle {want:?}"
        ))
    }
}

/// Simulator-side checks (5 in the module docs) for one profile.
fn check_sim(
    label: &str,
    profile: &LayerProfile,
    out_h: usize,
    out_w: usize,
    input_words: u64,
    messages: &mut Vec<String>,
) -> u64 {
    let mut checks = 0u64;
    for (cname, cfg) in [
        ("snapea", AccelConfig::snapea()),
        ("eyeriss", AccelConfig::eyeriss()),
    ] {
        let layer =
            LayerWorkload::new("case", profile.clone(), input_words).with_spatial(out_h, out_w);
        let (run, cycles) = map_layer(&cfg, &layer, |_| {});
        let bounds = pe_array_bounds(cfg.pe_count(), cfg.lanes_per_pe, profile);
        if run.macs != bounds.macs {
            messages.push(format!(
                "{label} simulator ({cname}): MAC total {} != profile total {}",
                run.macs, bounds.macs
            ));
        }
        checks += 1;
        if !bounds.admits(cycles) {
            messages.push(format!(
                "{label} simulator ({cname}): {cycles} cycles outside analytical bounds [{}, {}]",
                bounds.lower, bounds.upper
            ));
        }
        checks += 1;
    }
    // The analytic PE engine vs the cycle-stepped reference, on this case's
    // actual op counts.
    let slices: Vec<&[u32]> = (0..profile.images())
        .flat_map(|img| (0..profile.kernels()).map(move |k| profile.kernel_ops(img, k)))
        .collect();
    let lanes = AccelConfig::snapea().lanes_per_pe;
    let a = engine::run_pe(&slices, lanes, profile.window_len());
    let c = engine::cycle_exact_pe(&slices, lanes, profile.window_len());
    if a != c {
        messages.push(format!(
            "{label} analytic PE run {a:?} != cycle-exact reference {c:?}"
        ));
    }
    checks += 1;
    checks
}

/// True unless `a` and `b` have the same shape and every element's bits.
fn bits_differ(a: &Tensor4, b: &Tensor4) -> bool {
    a.shape() != b.shape()
        || a.as_slice()
            .iter()
            .zip(b.as_slice())
            .any(|(x, y)| x.to_bits() != y.to_bits())
}

/// Pooling, LRN and fully-connected checks (6 in the module docs),
/// parameterised from the case seed.
fn check_aux(seed: u64, input: &Tensor4, messages: &mut Vec<String>) -> u64 {
    let mut checks = 0u64;
    let mut r = OracleRng::new(mix(seed, 3));
    let k = r.range(1, 3);
    let stride = r.range(1, 2);
    let pad = if k > 1 { r.range(0, 1) } else { 0 };

    let mp = MaxPool::with_pad(k, stride, pad);
    let (or_out, or_arg) = reference::maxpool(input, k, stride, pad);
    let (mp_out, mp_arg) = mp.forward_with_argmax(input);
    if bits_differ(&mp_out, &or_out) || mp_arg != or_arg {
        messages.push(format!(
            "MaxPool::forward_with_argmax (k={k} stride={stride} pad={pad}) diverges from naive reference"
        ));
    }
    checks += 1;
    if bits_differ(&mp.forward(input), &or_out) {
        messages.push(format!(
            "MaxPool::forward (k={k} stride={stride} pad={pad}) diverges from naive reference"
        ));
    }
    checks += 1;

    // LRN constants from their own sub-stream, so the draws above and
    // below are unchanged.
    let mut lr = OracleRng::new(mix(seed, 5));
    let lrn = Lrn::new(
        lr.range(1, 5),
        lr.uniform(1e-4, 1.0),
        lr.uniform(0.5, 1.0),
        lr.uniform(0.5, 2.0),
    );
    let want = reference::lrn(input, lrn.size, lrn.alpha, lrn.beta, lrn.k);
    if bits_differ(&lrn.forward(input), &want) {
        messages.push(format!(
            "Lrn (size={} alpha={} beta={} k={}) diverges from naive reference",
            lrn.size, lrn.alpha, lrn.beta, lrn.k
        ));
    }
    checks += 1;

    let avg = AvgPool {
        geom: PoolGeom::with_pad(k, stride, pad),
    }
    .forward(input);
    let or_avg = reference::avgpool(input, k, stride, pad);
    if avg
        .as_slice()
        .iter()
        .zip(or_avg.as_slice())
        .any(|(a, b)| (a - b).abs() > 1e-5)
    {
        messages.push(format!(
            "AvgPool (k={k} stride={stride} pad={pad}) diverges from naive reference"
        ));
    }
    checks += 1;

    let features = input.shape().item_len();
    let out_features = r.range(1, 4);
    let wv: Vec<f32> = (0..out_features * features)
        .map(|_| r.uniform(-1.0, 1.0))
        .collect();
    let bias: Vec<f32> = (0..out_features).map(|_| r.uniform(-0.5, 0.5)).collect();
    // lint:allow(P1) wv is generated with exactly out_features × features elements above
    let weight = Tensor2::from_vec(Shape2::new(out_features, features), wv).expect("fc weight");
    let lin = Linear::from_parts(weight, bias);
    let got = lin.forward(input);
    let want = reference::fc(lin.weight(), lin.bias(), input);
    let ft = tol(features);
    if got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .any(|(a, b)| (a - b).abs() > ft)
    {
        messages.push(format!(
            "Linear ({out_features}×{features}) diverges from naive reference beyond {ft:e}"
        ));
    }
    checks += 1;
    checks
}

/// The case's fixed-point format, from its own sub-stream of the case seed
/// (so the generated configuration is unchanged): 4–12 fractional bits,
/// wide enough to reach saturation on the case's larger values.
fn q16_format(case_seed: u64) -> Q16Format {
    let frac_bits = OracleRng::new(mix(case_seed, 4)).range(4, 12);
    Q16Format::new(frac_bits as u32)
}

/// Runs one fuzzed case end to end.
pub fn run_case(case_seed: u64, opts: &HarnessOptions) -> CaseOutcome {
    let cfg = CaseConfig::generate(case_seed);
    let (conv, input) = cfg.build();
    let mut cc = check_conv(
        &conv,
        &input,
        &cfg.modes,
        cfg.signed_inputs,
        q16_format(case_seed),
        opts.inject_exact_bug,
    );

    let s = input.shape();
    let geom = conv.geom();
    let oh = reference::conv_out_dim(s.h, geom.kh, geom.stride, geom.pad);
    let ow = reference::conv_out_dim(s.w, geom.kw, geom.stride, geom.pad);
    let input_words = s.item_len() as u64;
    cc.checks += check_sim(
        "exact",
        &cc.exact_profile,
        oh,
        ow,
        input_words,
        &mut cc.messages,
    );
    if let Some(p) = cc.predictive_profile.clone() {
        cc.checks += check_sim("predictive", &p, oh, ow, input_words, &mut cc.messages);
    }
    cc.checks += check_aux(case_seed, &input, &mut cc.messages);

    let failure = if cc.messages.is_empty() {
        None
    } else {
        let minimized = minimize(&cfg, &conv, &input, opts);
        Some(CaseFailure {
            seed: case_seed,
            config: cfg.describe(),
            messages: cc.messages,
            minimized,
        })
    };
    CaseOutcome {
        seed: case_seed,
        checks: cc.checks,
        exec_macs: cc.exec_macs,
        dense_macs: cc.dense_macs,
        failure,
    }
}

/// Re-runs every single-image/single-kernel sub-problem of a failed case and
/// reports the first that still fails the convolution checks.
fn minimize(
    cfg: &CaseConfig,
    conv: &Conv2d,
    input: &Tensor4,
    opts: &HarnessOptions,
) -> Option<String> {
    let geom = conv.geom();
    for n in 0..cfg.images {
        let sub_input = Tensor4::from_vec(
            Shape4::new(1, cfg.c_in, cfg.h, cfg.w),
            input.item(n).to_vec(),
        )
        // lint:allow(P1) item(n) is a c_in × h × w slice of the input's own shape
        .expect("item slice matches shape");
        for k in 0..cfg.c_out {
            let weight = Tensor4::from_vec(
                Shape4::new(1, cfg.c_in, geom.kh, geom.kw),
                conv.weight().item(k).to_vec(),
            )
            // lint:allow(P1) item(k) is a c_in × kh × kw slice of the weight tensor's own shape
            .expect("kernel slice matches shape");
            let sub_conv = Conv2d::from_parts(weight, vec![conv.bias()[k]], geom);
            let sub = check_conv(
                &sub_conv,
                &sub_input,
                &cfg.modes[k..=k],
                cfg.signed_inputs,
                q16_format(cfg.seed),
                opts.inject_exact_bug,
            );
            if let Some(first) = sub.messages.first() {
                return Some(format!("image {n}, kernel {k} alone reproduces: {first}"));
            }
        }
    }
    None
}

/// Runs `cases` fuzzed cases derived from `seed` and aggregates the report.
/// Charges `oracle/*` metrics and emits an `oracle/selfcheck` event when an
/// observability sink is installed.
pub fn run_selfcheck(cases: usize, seed: u64, opts: &HarnessOptions) -> SelfCheckReport {
    let mut report = SelfCheckReport {
        run_seed: seed,
        cases: cases as u64,
        checks: 0,
        exec_macs: 0,
        dense_macs: 0,
        failures: Vec::new(),
    };
    for i in 0..cases {
        let outcome = run_case(mix(seed, i as u64), opts);
        report.checks += outcome.checks;
        report.exec_macs += outcome.exec_macs;
        report.dense_macs += outcome.dense_macs;
        if let Some(f) = outcome.failure {
            report.failures.push(f);
        }
    }
    snapea_obs::counter("oracle/cases").add(report.cases);
    snapea_obs::counter("oracle/checks").add(report.checks);
    snapea_obs::counter("oracle/failures").add(report.failures.len() as u64);
    snapea_obs::event!(
        "oracle/selfcheck",
        cases = report.cases,
        checks = report.checks,
        failures = report.failures.len() as u64,
        mac_savings = report.mac_savings(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handful_of_cases_pass_clean() {
        let r = run_selfcheck(20, 7, &HarnessOptions::default());
        assert!(r.passed(), "{}", r.render_text());
        assert!(r.checks >= 20 * 8, "expected several checks per case");
        assert!(r.exec_macs <= r.dense_macs);
    }

    #[test]
    fn injected_bug_is_caught_minimized_and_replayable() {
        let opts = HarnessOptions {
            inject_exact_bug: true,
        };
        let r = run_selfcheck(3, 7, &opts);
        assert!(!r.passed());
        assert_eq!(r.failures.len(), 3, "every case trips the injected bug");
        let text = r.render_text();
        assert!(
            text.contains("seed=0x"),
            "failure must print the seed:\n{text}"
        );
        assert!(
            text.contains("config:"),
            "failure must print the config:\n{text}"
        );
        assert!(
            text.contains("replay:"),
            "failure must print a replay line:\n{text}"
        );
        assert!(
            text.contains("minimized:"),
            "failure must include a minimized reproduction:\n{text}"
        );
        // And the replayed single case reproduces the failure.
        let seed = r.failures[0].seed;
        let again = run_case(seed, &opts);
        assert!(again.failure.is_some());
        assert!(run_case(seed, &HarnessOptions::default()).failure.is_none());
    }

    #[test]
    fn report_json_shape() {
        let r = run_selfcheck(2, 1, &HarnessOptions::default());
        let j = r.to_json();
        assert_eq!(j.get("cases").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("failed").and_then(Json::as_u64), Some(0));
        assert_eq!(j.get("passed").and_then(Json::as_bool), Some(true));
        assert!(j.get("checks").and_then(Json::as_u64).unwrap() > 0);
        assert!(j.get("failures").is_some());
    }
}
