//! Wall-clock benchmark of the parallel execution layer.
//!
//! ```text
//! cargo run --release -p snapea-bench --bin perfbench                # full shapes
//! cargo run --release -p snapea-bench --bin perfbench -- --smoke    # tiny, seconds
//! cargo run --release -p snapea-bench --bin perfbench -- --scaling  # 1/2/4/8 curves
//! cargo run --release -p snapea-bench --bin perfbench -- --strict   # ≥3x gate at t4
//! ```
//!
//! Times the parallelised hot paths — conv forward/backward (full batch and
//! an `n=1` serving shape), executor exact/predictive/q16, and one optimizer
//! profiling pass — and writes a **scaling curve** per path into
//! `BENCH_parallel.json` (schema 2): serial wall time (min-of-reps after
//! warmup) plus one `{threads, ms, speedup, bit_identical}` point per thread
//! count in the grid. The default grid is `[1, --threads]`; `--scaling`
//! records the full `[1, 2, 4, 8]` grid. Every point's output is asserted
//! bit-identical to the serial run. A GEMM section compares the dense
//! `matmul` kernel against `matmul_sparse_lhs` on dense and half-zero LHS
//! matrices, which is the before/after number justifying the removal of the
//! zero-skip branch from the dense path.
//!
//! On a machine where `available_parallelism == 1` both reports carry a
//! top-level `"degraded": true`: the curves measure pool overhead under
//! oversubscription, not scaling, and `snapea-tool perf-diff` refuses to
//! compare a degraded file against a non-degraded one. `--strict` (or
//! `SNAPEA_BENCH_STRICT=1`) asserts conv-forward and executor reach ≥ 3× at
//! 4 threads — skipped with a notice on degraded machines, where the gate
//! cannot be meaningful.
//!
//! A second report, `BENCH_kernels.json` (`--kernels-out`), times the
//! **single-core kernel engine** at 1 thread: each entry warms up once and
//! reports the minimum of k reps (the right estimator for a fixed
//! single-thread workload under external interference) as `kernel_ms`.
//! Speedups are `snapea-tool perf-diff` of this file against the previous
//! commit's; bit identity is asserted elsewhere — the oracle selfcheck, the
//! oracle integration test, and the lane/GEMM property tests.
//!
//! `--kernels-only` runs and writes *only* the kernels report: the scaling
//! curves, strict gate, and GEMM comparison are skipped, and `--out` is not
//! written — the quick loop for iterating on the single-core kernels.
//!
//! Usually invoked through `scripts/bench.sh`.

use snapea::exec::{execute_conv, execute_conv_q16, execute_conv_stats, ExecResult, LayerConfig};
use snapea::optimizer::profiling::profile_layer_kernels;
use snapea::KernelParams;
use snapea_nn::ops::Conv2d;
use snapea_obs::Json;
use snapea_tensor::im2col::ConvGeom;
use snapea_tensor::lane::{lane_axpy8, LANES};
use snapea_tensor::q16::Q16Format;
use snapea_tensor::{init, par, Shape2, Shape4, Tensor2, Tensor4};
use std::time::Instant;

/// `BENCH_parallel.json` / `BENCH_kernels.json` document version. Schema 2
/// adds `schema`, `degraded`, `thread_grid`, and per-bench `curve` arrays
/// (schema 1, implicit, had single `serial_ms`/`parallel_ms` pairs).
const SCHEMA: u64 = 2;

/// Thread counts recorded under `--scaling`.
const SCALING_GRID: [usize; 4] = [1, 2, 4, 8];

struct Args {
    smoke: bool,
    scaling: bool,
    strict: bool,
    kernels_only: bool,
    threads: usize,
    out: String,
    kernels_out: String,
}

fn parse_args() -> Args {
    #[allow(clippy::disallowed_methods)] // sanctioned config read (R1)
    let mut args = Args {
        smoke: false,
        scaling: false,
        strict: std::env::var("SNAPEA_BENCH_STRICT").is_ok_and(|v| v == "1"),
        kernels_only: false,
        threads: par::threads(),
        out: "BENCH_parallel.json".to_string(),
        kernels_out: "BENCH_kernels.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--scaling" => args.scaling = true,
            "--strict" => args.strict = true,
            "--kernels-only" => args.kernels_only = true,
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads takes a positive integer");
            }
            "--out" => args.out = it.next().expect("--out takes a path"),
            "--kernels-out" => {
                args.kernels_out = it.next().expect("--kernels-out takes a path");
            }
            other => {
                eprintln!("perfbench: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    args.threads = args.threads.max(1);
    args
}

/// Median wall time of `reps` runs of `f`, in milliseconds. The first result
/// is returned so callers can compare outputs across variants.
#[allow(clippy::disallowed_methods)] // benchmark timing is this binary's job
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut out = None;
    let mut times: Vec<f64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        out.get_or_insert(r);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    (times[times.len() / 2], out.expect("at least one rep"))
}

fn exec_results_identical(a: &ExecResult, b: &ExecResult) -> bool {
    a.output.as_slice() == b.output.as_slice()
        && a.profile.ops_slice() == b.profile.ops_slice()
        && a.stats == b.stats
}

/// Times `f` at every thread count in `grid` (which must start with 1, the
/// serial baseline), checks each point's output against the serial run via
/// `same`, and returns the JSON record (`name`, `detail`, `serial_ms`,
/// `curve`) for the bench table.
///
/// Methodology: one untimed warmup, then `reps` *interleaved* rounds — each
/// round times every grid point once, and every point reports the minimum
/// across rounds. Min-of-reps because the fastest observed run is the best
/// estimate of the path's true cost at that thread count (slower reps are
/// outside interference a curve must not bake in); interleaved because
/// machine phases (frequency drift, noisy neighbours) then hit all points
/// alike instead of biasing whichever point owned that time window — on a
/// shared container, sequential per-point windows showed ±15% phantom
/// "speedups" between identical configurations. Each round also *rotates*
/// the grid's starting offset: within a round the points run sequentially,
/// so pressure that builds up as a round progresses (cache dilution, cgroup
/// quota throttling) would otherwise systematically tax whichever point
/// always ran last — with rotation every point occupies every position
/// across rounds.
///
/// Min (not median) because interference is one-sided — a noisy neighbour
/// or a throttle can only ever slow a run down, never speed it up — so the
/// minimum converges to the path's true cost as rounds accumulate, and is
/// the only estimator that keeps interference out of the curve entirely.
/// (A median-of-paired-ratios variant was tried and measured *wider* spread
/// on the same container: the median keeps residual noise in, and sharing
/// the t1 samples as denominator correlates the error across a bench's
/// points.)
///
/// Finally, grid points whose **effective participant count** coincides
/// (`par::effective_threads` — e.g. every point on a one-core machine, or
/// t8 alongside t4 on a four-core one) execute byte-identical code by
/// construction of the clamp, so their samples are exchangeable: they are
/// pooled, and the points report one shared min. Without pooling, identical
/// configurations would differ by container noise (±3% even at 32 rounds)
/// and the curve would fabricate overhead — or speedup — where the executed
/// code cannot have any.
#[allow(clippy::disallowed_methods)] // benchmark timing is this binary's job
fn bench_scaling<R>(
    name: &str,
    detail: &str,
    reps: usize,
    grid: &[usize],
    mut f: impl FnMut() -> R,
    same: impl Fn(&R, &R) -> bool,
) -> Json {
    assert_eq!(
        grid.first(),
        Some(&1),
        "grid must lead with the serial point"
    );
    par::set_threads(1);
    let serial_out = f();
    let mut times = vec![vec![f64::MAX; reps]; grid.len()];
    let mut identical = vec![true; grid.len()];
    // `rep` picks both the rotation offset and the per-point sample slot, so
    // the index form is clearer than an iterator chain here.
    #[allow(clippy::needless_range_loop)]
    for rep in 0..reps {
        for off in 0..grid.len() {
            let gi = (rep + off) % grid.len();
            let t = grid[gi];
            par::set_threads(t);
            let t0 = Instant::now();
            let out = f();
            times[gi][rep] = t0.elapsed().as_secs_f64() * 1e3;
            if t > 1 {
                identical[gi] = identical[gi] && same(&serial_out, &out);
            }
        }
    }
    // Pool samples across grid points that the clamp makes byte-identical
    // (same effective participant count — see the doc comment above).
    let effective: Vec<usize> = grid
        .iter()
        .map(|&t| {
            par::set_threads(t);
            par::effective_threads()
        })
        .collect();
    par::set_threads(1);
    let group_min = |gi: usize| {
        grid.iter()
            .enumerate()
            .filter(|&(gj, _)| effective[gj] == effective[gi])
            .flat_map(|(gj, _)| times[gj].iter().copied())
            .fold(f64::MAX, f64::min)
    };
    let serial_ms = group_min(0);
    let mut curve: Vec<Json> = Vec::new();
    let mut summary = String::new();
    for (gi, &t) in grid.iter().enumerate() {
        assert!(identical[gi], "{name}: outputs differ at {t} threads");
        let ms = group_min(gi);
        let speedup = serial_ms / ms;
        summary.push_str(&format!("  t{t} {speedup:4.2}x"));
        curve.push(Json::Obj(vec![
            ("label".to_string(), format!("t{t}").into()),
            ("threads".to_string(), (t as u64).into()),
            ("ms".to_string(), ms.into()),
            ("speedup".to_string(), speedup.into()),
            ("bit_identical".to_string(), identical[gi].into()),
        ]));
    }
    println!("{name:<22} {detail:<30} serial {serial_ms:8.2} ms {summary}");
    Json::Obj(vec![
        ("name".to_string(), name.into()),
        ("detail".to_string(), detail.into()),
        ("serial_ms".to_string(), serial_ms.into()),
        ("curve".to_string(), Json::Arr(curve)),
    ])
}

/// Minimum wall time of `reps` runs of `f` after one untimed warmup, in
/// milliseconds, with the last result (so curve points can be compared
/// against the serial output).
#[allow(clippy::disallowed_methods)] // benchmark timing is this binary's job
fn time_min<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut out = f();
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

/// Times the current kernel `f` at **1 thread** and returns the JSON record
/// for the kernels report. Every result passes through `black_box`, so no
/// rep's work can be optimised away.
fn bench_kernel<R>(name: &str, detail: &str, reps: usize, mut f: impl FnMut() -> R) -> Json {
    par::set_threads(1);
    let (kernel_ms, _) = time_min(reps, || std::hint::black_box(f()));
    println!("kernel {name:<22} {detail:<34} {kernel_ms:8.2} ms");
    Json::Obj(vec![
        ("name".to_string(), name.into()),
        ("detail".to_string(), detail.into()),
        ("kernel_ms".to_string(), kernel_ms.into()),
    ])
}

/// Deterministic LHS with `zero_frac` of its entries exactly zero —
/// post-ReLU-style sparsity for the GEMM branch comparison.
fn sparse_lhs(shape: Shape2, zero_frac: f64, seed: u64) -> Tensor2 {
    let mut state = seed;
    Tensor2::from_fn(shape, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 33) as f64 / (1u64 << 31) as f64;
        if u < zero_frac {
            0.0
        } else {
            (u * 2.0 - 1.0) as f32
        }
    })
}

/// The `speedup` recorded for `bench` at `threads`, if that curve point
/// exists.
fn curve_speedup(bench: &Json, threads: u64) -> Option<f64> {
    bench
        .get("curve")
        .and_then(Json::as_array)?
        .iter()
        .find(|p| p.get("threads").and_then(Json::as_u64) == Some(threads))
        .and_then(|p| p.get("speedup").and_then(Json::as_f64))
}

fn main() {
    let args = parse_args();
    // Full runs use a multiple of the grid length so rotation (see
    // `bench_scaling`) gives every grid point the same number of visits to
    // every within-round position. 32 rounds is what min-of-rounds needs to
    // reliably catch a clean window per point on a shared container; the
    // kernels section keeps its own count, `kernel_reps`.
    let reps = if args.smoke { 4 } else { 32 };
    let kernel_reps = if args.smoke { 3 } else { 5 };
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let degraded = avail == 1;

    // Thread grid for the scaling curves: [1, --threads] by default (one
    // parallel point, like the schema-1 reports), the full grid plus
    // --threads under --scaling.
    let mut grid: Vec<usize> = if args.scaling {
        SCALING_GRID.to_vec()
    } else {
        vec![1]
    };
    if !grid.contains(&args.threads) {
        grid.push(args.threads);
    }
    grid.sort_unstable();

    println!(
        "perfbench: thread grid {grid:?} (available_parallelism {avail}), {} shapes, {reps} reps",
        if args.smoke { "smoke" } else { "full" },
    );
    if degraded {
        eprintln!(
            "perfbench: WARNING: available_parallelism is 1 — the scaling curves below \
             measure pool overhead under oversubscription, not scaling (reports carry \
             \"degraded\": true); trust the kernels section (single-thread), which is \
             core-count independent"
        );
    }

    // Workload: one conv layer of VGG-ish proportions (smoke: tiny), plus an
    // n=1 view of the same layer — the serving shape whose scaling the
    // sub-batch (row-block / kernel-block) dispatch exists for.
    let (batch, c_in, c_out, hw) = if args.smoke {
        (2, 4, 8, 12)
    } else {
        (8, 16, 32, 32)
    };
    let mut rng = init::rng(7);
    let conv = Conv2d::new(c_in, c_out, ConvGeom::square(3, 1, 1), &mut rng);
    let input = init::uniform4(Shape4::new(batch, c_in, hw, hw), 1.0, &mut rng).map(f32::abs);
    let serve_input =
        init::uniform4(Shape4::new(1, c_in, hw, hw), 1.0, &mut init::rng(23)).map(f32::abs);
    let exact_cfg = LayerConfig::exact(&conv);
    let pred_cfg = LayerConfig::predictive_uniform(&conv, KernelParams::new(0.05, 4));
    // Profiling walks every (kernel, N, image, window) tuple; keep the image
    // set small so the full run stays minutes-not-hours at 1 thread.
    let prof_images = if args.smoke { 1 } else { 2 };
    let prof_input = init::uniform4(
        Shape4::new(prof_images, c_in, hw, hw),
        1.0,
        &mut init::rng(11),
    )
    .map(f32::abs);
    let detail = format!("n{batch} c{c_in}->{c_out} {hw}x{hw} k3");
    let serve_detail = format!("n1 c{c_in}->{c_out} {hw}x{hw} k3");
    let fmt = Q16Format::default();
    let git_rev = snapea_obs::run::git_rev(std::path::Path::new("."))
        .map(Json::from)
        .unwrap_or(Json::Null);
    let git_dirty = snapea_obs::run::git_dirty(std::path::Path::new("."))
        .map(Json::from)
        .unwrap_or(Json::Null);

    let parallel_sections = if args.kernels_only {
        println!("kernels-only: skipping the scaling curves, strict gate, and GEMM comparison");
        None
    } else {
        let benches = vec![
            bench_scaling(
                "conv_forward",
                &detail,
                reps,
                &grid,
                || conv.forward(&input),
                |a: &Tensor4, b: &Tensor4| a.as_slice() == b.as_slice(),
            ),
            bench_scaling(
                "conv_forward_serve",
                &serve_detail,
                reps,
                &grid,
                || conv.forward(&serve_input),
                |a: &Tensor4, b: &Tensor4| a.as_slice() == b.as_slice(),
            ),
            bench_scaling(
                "conv_backward",
                &detail,
                reps,
                &grid,
                || {
                    let go = Tensor4::full(conv.out_shape(input.shape()), 0.5);
                    conv.backward(&input, &go)
                },
                |a, b| {
                    a.0.as_slice() == b.0.as_slice()
                        && a.1.as_slice() == b.1.as_slice()
                        && a.2 == b.2
                },
            ),
            bench_scaling(
                "executor_exact",
                &detail,
                reps,
                &grid,
                || execute_conv(&conv, &input, &exact_cfg),
                exec_results_identical,
            ),
            bench_scaling(
                "executor_exact_serve",
                &serve_detail,
                reps,
                &grid,
                || execute_conv(&conv, &serve_input, &exact_cfg),
                exec_results_identical,
            ),
            bench_scaling(
                "executor_predictive",
                &detail,
                reps,
                &grid,
                || execute_conv_stats(&conv, &input, &pred_cfg),
                exec_results_identical,
            ),
            bench_scaling(
                "executor_q16",
                &detail,
                reps,
                &grid,
                || execute_conv_q16(&conv, &input, &exact_cfg, fmt),
                exec_results_identical,
            ),
            bench_scaling(
                "optimizer_profiling",
                &format!("n{prof_images} c{c_in}->{c_out} {hw}x{hw} k3"),
                reps,
                &grid,
                || profile_layer_kernels(&conv, &prof_input, &[1, 2, 4, 8], &[0.25, 0.5, 0.9], 1.0),
                |a, b| a == b,
            ),
        ];

        // The ≥3x-at-4-threads gate (check.sh wires it behind
        // SNAPEA_BENCH_STRICT=1): meaningful only on a machine with real
        // parallelism and only when the t4 point was recorded.
        if args.strict {
            if degraded {
                eprintln!(
                    "perfbench: --strict requested but available_parallelism is 1; \
                 the >=3x scaling gate is skipped (degraded machine)"
                );
            } else {
                for b in &benches {
                    let name = b.get("name").and_then(Json::as_str).unwrap_or("");
                    if !matches!(
                        name,
                        "conv_forward" | "executor_exact" | "executor_predictive"
                    ) {
                        continue;
                    }
                    let Some(speedup) = curve_speedup(b, 4) else {
                        eprintln!("perfbench: --strict: {name} has no t4 point (run --scaling)");
                        std::process::exit(1);
                    };
                    if speedup < 3.0 {
                        eprintln!(
                            "perfbench: --strict: {name} reached only {speedup:.2}x at 4 threads \
                         (gate: >=3x)"
                        );
                        std::process::exit(1);
                    }
                }
                println!("strict gate: conv_forward + executor >=3x at 4 threads: ok");
            }
        }

        // GEMM branch comparison (serial, to isolate the per-element zero test
        // from scheduling effects): dense LHS and a half-zero LHS.
        par::set_threads(1);
        let (gm, gk, gn) = if args.smoke {
            (32, 64, 128)
        } else {
            (128, 288, 1024)
        };
        let rhs = sparse_lhs(Shape2::new(gk, gn), 0.0, 3);
        let mut gemm_rows: Vec<Json> = Vec::new();
        for (label, zero_frac) in [("dense_lhs", 0.0), ("half_zero_lhs", 0.5)] {
            let lhs = sparse_lhs(Shape2::new(gm, gk), zero_frac, 5);
            let (dense_ms, dense_out) = time_median(kernel_reps, || lhs.matmul(&rhs).unwrap());
            let (skip_ms, skip_out) =
                time_median(kernel_reps, || lhs.matmul_sparse_lhs(&rhs).unwrap());
            assert_eq!(dense_out, skip_out, "gemm variants disagree ({label})");
            println!(
            "gemm {label:<18} {gm}x{gk}x{gn}  dense {dense_ms:8.2} ms   zero-skip {skip_ms:8.2} ms"
        );
            gemm_rows.push(Json::Obj(vec![
                ("lhs".to_string(), label.into()),
                ("zero_frac".to_string(), zero_frac.into()),
                ("shape".to_string(), format!("{gm}x{gk}x{gn}").into()),
                ("matmul_ms".to_string(), dense_ms.into()),
                ("matmul_sparse_lhs_ms".to_string(), skip_ms.into()),
            ]));
        }
        Some((benches, gemm_rows))
    };

    // --- Kernels section: the single-core kernel engine at 1 thread. ---
    println!("kernels (1 thread, min of {kernel_reps} reps):");
    let (gm2, gk2, gn2) = if args.smoke {
        (32, 64, 128)
    } else {
        (96, 288, 768)
    };
    let mm_lhs = sparse_lhs(Shape2::new(gm2, gk2), 0.0, 13);
    let mm_rhs = sparse_lhs(Shape2::new(gk2, gn2), 0.0, 17);
    let tm_lhs = sparse_lhs(Shape2::new(gk2, gm2), 0.0, 19);
    let prof_detail = format!("n{prof_images} c{c_in}->{c_out} {hw}x{hw} k3");
    // The GEMM microkernel (`scripts/asm_check.sh` separately proves its
    // body is actually vectorized).
    let (ax_n, ax_calls) = if args.smoke { (4096, 32) } else { (32768, 128) };
    let ax_b = sparse_lhs(Shape2::new(LANES, ax_n), 0.0, 37);
    let ax_a: [f32; LANES] = [0.11, -0.07, 0.05, 0.21, -0.13, 0.02, 0.17, -0.19];
    let ax_rows: [&[f32]; LANES] =
        std::array::from_fn(|q| &ax_b.as_slice()[q * ax_n..(q + 1) * ax_n]);
    let kernels = vec![
        bench_kernel(
            "lane_axpy8",
            &format!("8x{ax_n}, {ax_calls} passes"),
            kernel_reps,
            || {
                let mut out = vec![0.0f32; ax_n];
                for _ in 0..ax_calls {
                    lane_axpy8(&mut out, &ax_a, ax_rows);
                }
                out
            },
        ),
        bench_kernel("executor_exact", &detail, kernel_reps, || {
            execute_conv(&conv, &input, &exact_cfg)
        }),
        bench_kernel("executor_predictive", &detail, kernel_reps, || {
            execute_conv_stats(&conv, &input, &pred_cfg)
        }),
        bench_kernel("executor_q16", &detail, kernel_reps, || {
            execute_conv_q16(&conv, &input, &exact_cfg, fmt)
        }),
        bench_kernel("optimizer_profiling", &prof_detail, kernel_reps, || {
            profile_layer_kernels(&conv, &prof_input, &[1, 2, 4, 8], &[0.25, 0.5, 0.9], 1.0)
        }),
        bench_kernel("matmul", &format!("{gm2}x{gk2}x{gn2}"), kernel_reps, || {
            mm_lhs.matmul(&mm_rhs).unwrap()
        }),
        bench_kernel(
            "t_matmul",
            &format!("{gk2}x{gm2}ᵀx{gn2}"),
            kernel_reps,
            || tm_lhs.t_matmul(&mm_rhs).unwrap(),
        ),
    ];
    par::set_threads(args.threads);

    if let Some((benches, gemm_rows)) = parallel_sections {
        let thread_grid = Json::Arr(grid.iter().map(|&t| Json::from(t as u64)).collect());
        let report = Json::Obj(vec![
            ("generated_by".to_string(), "perfbench".into()),
            ("schema".to_string(), SCHEMA.into()),
            ("git_rev".to_string(), git_rev.clone()),
            ("git_dirty".to_string(), git_dirty.clone()),
            ("smoke".to_string(), args.smoke.into()),
            ("reps".to_string(), reps.into()),
            ("thread_grid".to_string(), thread_grid),
            ("available_parallelism".to_string(), avail.into()),
            ("degraded".to_string(), degraded.into()),
            ("benches".to_string(), Json::Arr(benches)),
            ("gemm".to_string(), Json::Arr(gemm_rows)),
        ]);
        if let Err(e) = std::fs::write(&args.out, format!("{report}\n")) {
            eprintln!("perfbench: cannot write {}: {e}", args.out);
            std::process::exit(1);
        }
        println!("wrote {}", args.out);
    }

    let kernels_report = Json::Obj(vec![
        ("generated_by".to_string(), "perfbench --kernels".into()),
        ("schema".to_string(), SCHEMA.into()),
        ("git_rev".to_string(), git_rev),
        ("git_dirty".to_string(), git_dirty),
        ("smoke".to_string(), args.smoke.into()),
        ("reps".to_string(), kernel_reps.into()),
        ("threads".to_string(), 1u64.into()),
        ("available_parallelism".to_string(), avail.into()),
        ("degraded".to_string(), degraded.into()),
        ("kernels".to_string(), Json::Arr(kernels)),
    ]);
    if let Err(e) = std::fs::write(&args.kernels_out, format!("{kernels_report}\n")) {
        eprintln!("perfbench: cannot write {}: {e}", args.kernels_out);
        std::process::exit(1);
    }
    println!("wrote {}", args.kernels_out);
}
