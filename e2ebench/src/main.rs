//! End-to-end benchmark of the SnaPEA reproduction on the four trained zoo
//! nets.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve|evaluate|compile --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- --regen-fixtures
//! ```
//!
//! Each workload is a closed loop with one client, driven through the
//! program's public APIs. A run performs a fixed number of rounds derived
//! from `--seconds` at a fixed nominal rate; each round repeats the set-up
//! once and sends every distinct input once, and an input's latency is the
//! minimum of its repeats. The last line of standard output is the result
//! object; the line before it is a diagnostics line that never gates. See
//! `README.md` for the metric definitions.

mod common;
mod compile;
mod evaluate;
mod fixtures;
mod harness;
mod metrics;
mod serve;
mod stats;
mod sys;
mod trace;

use harness::{Bench, LayerAgg, RunRecord};
use snapea_nn::zoo::Workload;
use snapea_tensor::par;
use stats::{median, quantile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The benchmark's directory: fixtures are read from it and the served
/// artifact and Chrome traces are written under its `out/`.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Nominal seconds one round takes on the reference host (2 vCPUs); the
/// round count is `--seconds` over this, never a measured duration, so
/// every commit repeats each input equally often.
fn nominal_round_s(workload: &str) -> f64 {
    match workload {
        "serve" => 0.13,
        "evaluate" => 0.65,
        _ => 1.8,
    }
}

/// Multiple of `--seconds` after which no further round starts, so a run
/// on a badly contended host still ends in time.
const TIME_CAP: f64 = 1.5;

/// Rounds a run of `seconds` performs: at least three, and even when
/// traced so traced and untraced rounds pair up.
pub fn rounds_for(workload: &str, seconds: u64, trace: bool) -> usize {
    let r = ((seconds as f64 / nominal_round_s(workload)).round() as usize).max(3);
    if trace {
        r + r % 2
    } else {
        r
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t}: expected 0 or 1")),
        },
    })
}

/// A built workload with what its metrics need beyond the run record.
enum Built {
    Serve(serve::Serve),
    Evaluate(evaluate::Evaluate),
    Compile(compile::Compile),
}

impl Built {
    fn bench(&mut self) -> &mut dyn Bench {
        match self {
            Built::Serve(b) => b,
            Built::Evaluate(b) => b,
            Built::Compile(b) => b,
        }
    }

    fn paper_metrics(&self) -> [f64; 4] {
        let totals = match self {
            Built::Serve(b) => vec![b.paper_totals()],
            Built::Evaluate(b) => b.paper_totals(),
            Built::Compile(b) => b.paper_totals(),
        };
        common::paper_metrics(&totals)
    }
}

fn build(args: &Args, rounds: usize) -> Result<Built, String> {
    let dir = bench_dir();
    let fixtures_dir = dir.join("fixtures");
    Ok(match args.workload.as_str() {
        "serve" => {
            let out = dir.join("out");
            std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
            let bytes = fixtures::read_checked(&fixtures_dir, Workload::GoogLeNet)?;
            let fx = fixtures::decode(Workload::GoogLeNet, &bytes)?;
            Built::Serve(serve::Serve::new(
                fx,
                out.join("serve-googlenet.snapea"),
                args.seed,
                serve::INPUTS,
                args.trace,
            )?)
        }
        "evaluate" => Built::Evaluate(evaluate::Evaluate::new(fixtures_dir, args.seed, rounds)?),
        _ => Built::Compile(compile::Compile::new(fixtures_dir, args.seed)?),
    })
}

/// Every end-to-end metric of an untraced run.
fn end_to_end(rec: &RunRecord, items_per_pass: usize, paper: [f64; 4]) -> Vec<(&'static str, f64)> {
    let minima = rec.untraced.minima();
    let sum: f64 = minima.iter().sum();
    vec![
        ("latency_ms_p50", median(&minima) * 1e3),
        ("latency_ms_p90", quantile(&minima, 0.9) * 1e3),
        ("items_per_s", items_per_pass as f64 / sum),
        (
            "setup_s",
            rec.setups.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("peak_rss_mb", rec.peak_rss_mb),
        ("macs_skipped_frac", paper[0]),
        ("top1_agreement", paper[1]),
        ("sim_speedup_x", paper[2]),
        ("sim_energy_reduction_x", paper[3]),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric of a traced run.
fn per_layer(rec: &RunRecord, artifact_bytes: f64, threads: usize) -> Vec<(&'static str, f64)> {
    let l: &LayerAgg = &rec.layers;
    let c = |name: &str| l.counters.get(name) as f64;
    let row_ns = |name: &str| l.rows.get(name).copied().unwrap_or(0) as f64;
    let overhead = ratio(median(&rec.traced.minima()), median(&rec.untraced.minima()));
    vec![
        ("artifact.load_ms", l.setup_row_ms("artifact.load")),
        ("artifact.bytes", artifact_bytes),
        ("artifact.prep_ms", l.row_ms("artifact.prep")),
        ("artifact.compile_ms", l.row_ms("artifact.compile")),
        ("artifact.codec_ms", l.row_ms("artifact.codec")),
        ("exec.conv_ms", l.row_ms("exec.conv")),
        (
            "exec.ns_per_mac",
            ratio(row_ns("exec.conv"), c("exec/macs_performed")),
        ),
        ("exec.macs_performed", l.per_op("exec/macs_performed")),
        ("exec.macs_dense", l.per_op("exec/macs_dense")),
        (
            "exec.lane_window_frac",
            ratio(
                c("exec/lane_windows"),
                c("exec/lane_windows") + c("exec/scalar_windows"),
            ),
        ),
        (
            "exec.plan_hit_frac",
            ratio(
                c("exec/gather_cache_hits"),
                c("exec/gather_cache_hits") + c("exec/gather_cache_misses"),
            ),
        ),
        (
            "exec.false_negative_rate",
            ratio(c("exec/false_negatives"), c("exec/windows_positive")),
        ),
        ("nn.dense_conv_ms", l.row_ms("nn.dense_conv")),
        ("nn.other_ms", l.row_ms("nn.forward")),
        ("spec_net.profile_ms", l.row_ms("spec_net.profile")),
        ("accel.workload_ms", l.row_ms("accel.workload")),
        ("accel.simulate_ms", l.row_ms("accel.simulate")),
        (
            "accel.ns_per_sim_layer",
            ratio(row_ns("accel.simulate"), c("sim/layers")),
        ),
        ("accel.sim_cycles", l.per_op("sim/cycles")),
        ("optimizer.run_ms", l.row_ms("optimizer.run")),
        (
            "optimizer.kernels_profiled",
            l.per_op("optimizer/kernels_profiled"),
        ),
        ("optimizer.probes", l.per_op("optimizer/probes")),
        (
            "optimizer.global_iterations",
            l.extra_per_op("optimizer.global_iterations"),
        ),
        ("par.invocations", l.per_op("par/invocations")),
        ("par.tasks", l.per_op("par/tasks")),
        (
            "par.busy_frac",
            ratio(c("par/busy_ns"), l.wall_ns as f64 * threads as f64),
        ),
        (
            "scratch.reuse_frac",
            ratio(c("scratch/reuses"), c("scratch/acquires")),
        ),
        ("trace.unattributed_frac", l.unattributed_frac()),
        ("trace.overhead_x", overhead),
    ]
}

fn run(args: &Args) -> Result<(String, String), String> {
    // serve and compile run one thread; evaluate keeps the pool's default.
    if args.workload != "evaluate" {
        par::set_threads(1);
    }
    let threads = par::effective_threads();
    let rounds = rounds_for(&args.workload, args.seconds, args.trace);
    let mut built = build(args, rounds)?;
    let rec = harness::drive(
        built.bench(),
        rounds,
        args.trace,
        TIME_CAP * args.seconds as f64,
    );
    let items = built.bench().items_per_pass();
    let metrics = if args.trace {
        let artifact_bytes = match &built {
            Built::Serve(s) => s.artifact_bytes() as f64,
            _ => rec.layers.extra_per_op("artifact.bytes"),
        };
        let out = bench_dir().join("out");
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let path = out.join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, trace::chrome_json(&rec.last_round_spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        per_layer(&rec, artifact_bytes, threads)
    } else {
        end_to_end(&rec, items, built.paper_metrics())
    };
    let minima = if args.trace {
        rec.traced.minima()
    } else {
        rec.untraced.minima()
    };
    let all = if args.trace {
        rec.traced.all()
    } else {
        rec.untraced.all()
    };
    let mut diag = format!(
        "# diag workload={} seed={} trace={} nproc={} pool_threads={} rounds={}/{} repeats_per_input={} steal_ticks={} involuntary_switches={} latency_ms_p50_per_input_min={:.4} latency_ms_p50_all_samples={:.4} input_min_ms_range={:.4}..{:.4} setup_s_min={:.4} setup_s_median={:.4}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        sys::nproc(),
        threads,
        rec.rounds,
        rec.planned_rounds,
        if args.trace { rec.traced.repeats() } else { rec.untraced.repeats() },
        rec.steal_ticks,
        rec.involuntary_switches,
        median(&minima) * 1e3,
        median(&all) * 1e3,
        quantile(&minima, 0.0) * 1e3,
        quantile(&minima, 1.0) * 1e3,
        rec.setups.iter().copied().fold(f64::INFINITY, f64::min),
        median(&rec.setups),
    );
    for f in &rec.failures {
        diag.push_str(&format!(" failure=\"{f}\""));
    }
    let line = metrics::result_line(rec.failed == 0, rec.attempted, rec.failed, &metrics)?;
    Ok((diag, line))
}

/// Regenerates the fixtures with the repro recipe: trains the four nets
/// and runs Algorithm 1 at ε = 0.03 from an empty cache, then writes each
/// fixture and prints its digest next to the pinned one.
fn regen_fixtures(dir: &Path) -> Result<bool, String> {
    let cache = dir.join(".regen-cache");
    let _ = std::fs::remove_dir_all(&cache);
    std::fs::create_dir_all(&cache).map_err(|e| format!("{}: {e}", cache.display()))?;
    std::env::set_var("SNAPEA_CACHE_DIR", &cache);
    let data = snapea_bench::context::datasets();
    let mut all_match = true;
    for w in Workload::ALL {
        let tw = snapea_bench::context::trained_workload(w, &data);
        let params = snapea_bench::context::optimized_params(&tw, &data, fixtures::EPSILON);
        let bytes = fixtures::encode(w, &tw.net, &params, tw.eval_accuracy);
        let path = dir.join(fixtures::file_name(w));
        std::fs::write(&path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        let digest = fixtures::fnv64(&bytes);
        let pinned = fixtures::pinned_digest(w);
        all_match &= digest == pinned;
        println!(
            "{:<10} {digest:016x} pinned {pinned:016x} {} accuracy {:.3} predictive convs {}/{}",
            w.name(),
            if digest == pinned { "match" } else { "DIFFERS" },
            tw.eval_accuracy,
            params.predictive_layer_count(),
            tw.net.conv_ids().len(),
        );
    }
    let _ = std::fs::remove_dir_all(&cache);
    Ok(all_match)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--regen-fixtures") {
        return match regen_fixtures(&bench_dir().join("fixtures")) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("e2ebench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok((diag, line)) => {
            println!("{diag}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::PaperTotals;

    fn googlenet() -> fixtures::Fixture {
        let dir = bench_dir().join("fixtures");
        let bytes = fixtures::read_checked(&dir, Workload::GoogLeNet).expect("digest matches");
        fixtures::decode(Workload::GoogLeNet, &bytes).expect("fixture decodes")
    }

    fn serve(seed: u64, inputs: usize, file: &str) -> serve::Serve {
        let out = bench_dir().join("out");
        std::fs::create_dir_all(&out).expect("out dir");
        serve::Serve::new(googlenet(), out.join(file), seed, inputs, false).expect("serve builds")
    }

    fn full_macs(totals: &[PaperTotals]) -> u64 {
        totals.iter().map(|t| t.full_macs).sum()
    }

    #[test]
    fn fixtures_pass_their_digest_check() {
        let all = fixtures::load_all(&bench_dir().join("fixtures")).expect("fixtures load");
        let predictive: Vec<usize> = all
            .iter()
            .map(|f| f.params.predictive_layer_count())
            .collect();
        assert_eq!(predictive, vec![2, 6, 6, 5]);
    }

    #[test]
    fn a_corrupt_fixture_is_rejected() {
        let dir = bench_dir().join("fixtures");
        let mut bytes = std::fs::read(dir.join(fixtures::file_name(Workload::AlexNet))).unwrap();
        assert!(fixtures::decode(Workload::AlexNet, &bytes).is_ok());
        assert!(fixtures::decode(Workload::GoogLeNet, &bytes).is_err());
        bytes.truncate(bytes.len() - 1);
        assert!(fixtures::decode(Workload::AlexNet, &bytes).is_err());
        assert_ne!(
            fixtures::fnv64(&bytes),
            fixtures::pinned_digest(Workload::AlexNet)
        );
    }

    #[test]
    fn a_planted_wrong_reference_fails_exactly_the_ops_that_use_it() {
        let mut s = serve(9, 6, "selftest-planted.snapea");
        s.references[4][0] ^= 1;
        let rec = harness::drive(&mut s, 3, false, f64::INFINITY);
        assert_eq!(rec.attempted, 18);
        assert_eq!(rec.failed, 3, "{:?}", rec.failures);
        assert!(rec.failures.iter().all(|f| f.ends_with("input 4")));
    }

    #[test]
    fn a_planted_wrong_oracle_sample_fails_exactly_its_op() {
        let dir = bench_dir().join("fixtures");
        let mut e = evaluate::Evaluate::new(dir, 4, 2).expect("evaluate builds");
        e.plant_wrong_sample(1, 9);
        let rec = harness::drive(&mut e, 2, false, f64::INFINITY);
        assert_eq!(rec.attempted, 32);
        assert_eq!(rec.failed, 1, "{:?}", rec.failures);
        assert_eq!(rec.failures, vec!["round 1 input 9".to_string()]);
    }

    #[test]
    fn serve_seeds_fix_inputs_and_metrics() {
        let run = |seed, file| {
            let mut s = serve(seed, 8, file);
            let rec = harness::drive(&mut s, 2, false, f64::INFINITY);
            assert_eq!(rec.failed, 0, "{:?}", rec.failures);
            (s.references.clone(), s.paper_totals())
        };
        let (refs_a, a) = run(5, "selftest-serve-a.snapea");
        let (refs_b, b) = run(5, "selftest-serve-b.snapea");
        let (refs_c, c) = run(6, "selftest-serve-c.snapea");
        assert_eq!(refs_a, refs_b);
        assert_eq!(a, b);
        assert_ne!(refs_a, refs_c);
        assert_eq!(full_macs(&[a]), full_macs(&[c]));
    }

    #[test]
    fn evaluate_seeds_fix_inputs_and_metrics() {
        let run = |seed| {
            let dir = bench_dir().join("fixtures");
            let mut e = evaluate::Evaluate::new(dir, seed, 1).expect("evaluate builds");
            let rec = harness::drive(&mut e, 1, false, f64::INFINITY);
            assert_eq!(rec.failed, 0, "{:?}", rec.failures);
            (e.batches().to_vec(), e.paper_totals())
        };
        let (in_a, a) = run(5);
        let (in_b, b) = run(5);
        let (in_c, c) = run(6);
        assert_eq!(in_a, in_b);
        assert_eq!(a, b);
        assert_ne!(in_a, in_c);
        assert_eq!(full_macs(&a), full_macs(&c));
    }

    #[test]
    fn compile_seeds_fix_inputs_and_metrics() {
        let run = |seed| {
            let dir = bench_dir().join("fixtures");
            let mut c = compile::Compile::new(dir, seed).expect("compile builds");
            let rec = harness::drive(&mut c, 1, false, f64::INFINITY);
            assert_eq!(rec.failed, 0, "{:?}", rec.failures);
            (c.held_out().to_vec(), c.paper_totals())
        };
        let (in_a, a) = run(5);
        let (in_b, b) = run(5);
        let (in_c, c) = run(6);
        assert_eq!(in_a, in_b);
        assert_eq!(a, b);
        assert_ne!(in_a, in_c);
        assert_eq!(full_macs(&a), full_macs(&c));
    }

    #[test]
    fn traced_replicas_match_and_rows_add_up() {
        let dir = bench_dir().join("fixtures");
        let mut e = evaluate::Evaluate::new(dir, 3, 2).expect("evaluate builds");
        let rec = harness::drive(&mut e, 2, true, f64::INFINITY);
        assert_eq!(rec.failed, 0, "{:?}", rec.failures);
        assert_eq!(rec.layers.ops, 16);
        assert!(rec.layers.unattributed_frac() < harness::MAX_UNATTRIBUTED);
        let out = bench_dir().join("out");
        std::fs::create_dir_all(&out).expect("out dir");
        let mut s = serve::Serve::new(googlenet(), out.join("selftest-traced.snapea"), 3, 4, true)
            .expect("serve builds");
        let rec = harness::drive(&mut s, 2, true, f64::INFINITY);
        assert_eq!(rec.failed, 0, "{:?}", rec.failures);
        assert!(rec.layers.rows.contains_key("exec.conv"));
        assert!(rec.layers.rows.contains_key("nn.dense_conv"));
    }

    #[test]
    fn rounds_follow_the_nominal_rate_not_the_clock() {
        assert_eq!(rounds_for("compile", 18, false), 10);
        assert_eq!(rounds_for("compile", 1, false), 3);
        assert_eq!(rounds_for("compile", 1, true) % 2, 0);
        assert_eq!(rounds_for("serve", 13, false), 100);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args("--workload serve --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload serve --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
