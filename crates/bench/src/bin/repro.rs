//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p snapea-bench --bin repro            # everything
//! cargo run --release -p snapea-bench --bin repro -- fig8    # one experiment
//! cargo run --release -p snapea-bench --bin repro -- --quiet fig8
//! ```
//!
//! Results are printed and also written as JSON under `repro-results/`.
//! Trained models and optimizer outputs are cached under `repro-cache/`.
//!
//! Every invocation is stamped as a run: progress goes through the obs
//! stderr sink (silence it with `--quiet` or `SNAPEA_LOG=off`) and the full
//! event log plus a manifest (git rev, experiment ids, elapsed) land in
//! `repro-results/<run>/` — summarise with `snapea-tool report
//! repro-results/<run>/events.jsonl`.

use snapea_bench::context::{all_trained, datasets, optimized_params};
use snapea_bench::experiments::{self, ExperimentResult};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[allow(clippy::disallowed_methods)] // top-level timing of a benchmark binary
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quiet = args.iter().any(|a| a == "--quiet" || a == "-q");
    let ids: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let all = ids.is_empty() || ids.contains(&"all");
    let want = |id: &str| all || ids.contains(&id);

    // Observability: interactive progress on stderr (unless silenced), the
    // full event log in a fresh run directory, plus any SNAPEA_LOG_FILE tee.
    if !quiet && snapea_obs::sink::stderr_wanted() {
        snapea_obs::sink::install(Box::new(snapea_obs::StderrSink));
    }
    #[allow(clippy::disallowed_methods)] // sanctioned config read (R1)
    if let Ok(path) = std::env::var("SNAPEA_LOG_FILE") {
        if let Ok(fs) = snapea_obs::FileSink::create(Path::new(&path)) {
            snapea_obs::sink::install(Box::new(fs));
        }
    }
    let run = snapea_obs::run::start(Path::new("repro-results"));

    let t0 = Instant::now();
    let data = {
        let _span = snapea_obs::span!("repro/datasets");
        snapea_obs::event!("run/phase", phase = "datasets");
        datasets()
    };
    // Training is by far the most expensive phase; skip it when every
    // requested experiment is model-free (hardware tables, PE timelines).
    let needs_train = all
        || ids
            .iter()
            .any(|id| !matches!(*id, "table2" | "table3" | "petrace"));
    let trained = if needs_train {
        let _span = snapea_obs::span!("repro/train");
        snapea_obs::event!("run/phase", phase = "train", cache = "repro-cache/");
        all_trained(&data)
    } else {
        Vec::new()
    };
    for tw in &trained {
        snapea_obs::event!(
            "run/workload",
            workload = tw.workload.name(),
            eval_accuracy = tw.eval_accuracy,
            elapsed_s = t0.elapsed().as_secs_f64(),
        );
    }

    let params_at =
        |tw: &snapea_bench::context::TrainedWorkload, eps: f64| optimized_params(tw, &data, eps);
    // Budget-3% parameters: the feasible sets nest (anything acceptable at
    // 1% or 2% is acceptable at 3%), so take the cheapest solution the
    // greedy optimizer found across the nested budgets.
    let params3 = |tw: &snapea_bench::context::TrainedWorkload| {
        let refs: Vec<&snapea_nn::data::LabeledImage> = data.opt.iter().take(12).collect();
        let batch = snapea_nn::data::SynthShapes::batch_refs(&refs);
        [0.01, 0.02, 0.03]
            .into_iter()
            .map(|eps| params_at(tw, eps))
            .min_by_key(|p| {
                snapea::spec_net::profile_network(&tw.net, p, &batch, false).total_ops()
            })
            .expect("non-empty candidate list")
    };

    let mut results: Vec<ExperimentResult> = Vec::new();
    let mut ran_ids: Vec<&'static str> = Vec::new();
    let mut run_exp = |id: &'static str, f: &dyn Fn() -> ExperimentResult| {
        if !want(id) {
            return;
        }
        let span = snapea_obs::span!("repro/experiment", id);
        let r = f();
        snapea_obs::event!("run/experiment", id = id, ms = span.elapsed_ms());
        drop(span);
        ran_ids.push(id);
        results.push(r);
    };
    run_exp("table1", &|| experiments::table1(&trained));
    run_exp("table2", &experiments::table2);
    run_exp("table3", &experiments::table3);
    run_exp("petrace", &experiments::petrace);
    run_exp("fig1", &|| experiments::fig1(&trained, &data));
    run_exp("fig2", &|| experiments::fig2(&trained, &data));
    run_exp("fig8", &|| experiments::fig8(&trained, &data));
    run_exp("fig9", &|| experiments::fig9(&trained, &data, &params3));
    run_exp("fig10", &|| experiments::fig10(&trained, &data, &params3));
    run_exp("table4", &|| experiments::table4(&trained, &data, &params3));
    run_exp("table5", &|| experiments::table5(&trained, &data, &params3));
    run_exp("fig11", &|| experiments::fig11(&trained, &data, &params_at));
    run_exp("fig12", &|| experiments::fig12(&trained, &data, &params3));
    run_exp("ablation_selection", &|| {
        snapea_bench::ablation::ablation_selection(&trained, &data)
    });
    run_exp("sweep_pes", &|| {
        snapea_bench::ablation::sweep_pe_array(&trained, &data)
    });
    run_exp("related_zeroskip", &|| {
        snapea_bench::ablation::related_zeroskip(&trained, &data)
    });
    run_exp("artifact", &|| {
        experiments::artifact(&trained, &data, &params3)
    });

    let _ = std::fs::create_dir_all("repro-results");
    for r in &results {
        println!("=== {} ===", r.title);
        println!("{}", r.text);
        let path = format!("repro-results/{}.json", r.id);
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = writeln!(f, "{}", r.json);
        }
    }
    snapea_obs::event!(
        "run/done",
        experiments = results.len() as u64,
        elapsed_s = t0.elapsed().as_secs_f64(),
    );
    if let Some(mut run) = run {
        run.set(
            "experiments",
            snapea_obs::Json::Arr(ran_ids.iter().map(|&id| id.into()).collect()),
        );
        run.set("quiet", quiet.into());
        run.set("artifact_version", snapea::artifact::VERSION.into());
        run.set(
            "workloads",
            snapea_obs::Json::Arr(trained.iter().map(|tw| tw.workload.name().into()).collect()),
        );
        if let Some(path) = run.finish(Path::new(".")) {
            println!("run manifest: {}", path.display());
        }
    }
}
