//! Subcommand implementations. Each returns its output as a `String` so it
//! can be unit-tested without capturing stdout.
//!
//! Every subcommand honours the boolean `--json` flag (declared through
//! [`Args::parse_with_flags`]): with it, the result is a single JSON
//! document on stdout instead of the human-readable text.

use crate::args::Args;
use snapea::artifact::{fnv64, CompiledModel};
use snapea::exec::LayerConfig;
use snapea::optimizer::{Optimizer, OptimizerConfig};
use snapea::params::NetworkParams;
use snapea::reorder::sign_reorder;
use snapea::spec_net::profile_network;
use snapea_accel::sim::simulate;
use snapea_accel::workload::network_workload;
use snapea_accel::{AccelConfig, EnergyModel};
use snapea_nn::data::{LabeledImage, SynthShapes};
use snapea_nn::graph::{Graph, Op};
use snapea_nn::train::{evaluate, TrainConfig, Trainer};
use snapea_nn::zoo::{Workload, INPUT_SIZE};
use snapea_obs::{Json, Report, Selection};
use snapea_oracle::{
    run_artifact_case, run_artifact_check, run_case, run_selfcheck, ArtifactCheckOptions,
    ArtifactCheckReport, HarnessOptions, SelfCheckReport,
};
use snapea_tensor::init;
use snapea_tensor::q16::Q16Format;
use std::error::Error;
use std::fmt::Write as _;
use std::fs;

/// Boxed error alias for command results.
pub type CmdResult = Result<String, Box<dyn Error>>;

fn load_model(path: &str) -> Result<Graph, Box<dyn Error>> {
    let text = fs::read_to_string(path)?;
    Ok(serde_json::from_str(&text)?)
}

fn synth_batch(images: usize, seed: u64) -> (Vec<LabeledImage>, snapea_tensor::Tensor4) {
    let data = SynthShapes::new(INPUT_SIZE, 10).generate(images, seed);
    let batch = SynthShapes::batch(&data);
    (data, batch)
}

/// `train --workload <name> [--epochs N] [--out file]`
pub fn train(args: &Args) -> CmdResult {
    let name = args.opt("workload").unwrap_or("AlexNet");
    let w = Workload::ALL
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!("unknown workload {name:?} (try AlexNet, GoogLeNet, SqueezeNet, VGGNet)")
        })?;
    let epochs: usize = args.opt_parse("epochs", 12)?;
    let train_set = SynthShapes::new(INPUT_SIZE, 10).generate(300, 0x7EA1);
    let eval_set = SynthShapes::new(INPUT_SIZE, 10).generate(100, 0xE7A1);
    let mut net = w.build(10);
    let mut trainer = Trainer::new(TrainConfig {
        lr: 0.01,
        ..TrainConfig::default()
    });
    let mut rng = init::rng(0xF00D);
    let mut out = String::new();
    let mut epoch_rows = Vec::new();
    for e in 0..epochs {
        let s = trainer.epoch(&mut net, &train_set, &mut rng);
        if args.flag("json") {
            epoch_rows.push(Json::obj(vec![
                ("epoch", Json::from(e as u64)),
                ("loss", Json::from(s.loss)),
                ("accuracy", Json::from(s.accuracy)),
            ]));
        } else {
            writeln!(
                out,
                "epoch {e:2}: loss {:.4}, train acc {:.1}%",
                s.loss,
                s.accuracy * 100.0
            )?;
        }
    }
    let eval_accuracy = evaluate(&net, &eval_set, 32);
    let written = if let Some(path) = args.opt("out") {
        fs::write(path, serde_json::to_string(&net)?)?;
        Some(path.to_string())
    } else {
        None
    };
    if args.flag("json") {
        let mut fields = vec![
            ("workload", Json::from(w.name())),
            ("epochs", Json::from(epochs as u64)),
            ("history", Json::Arr(epoch_rows)),
            ("eval_accuracy", Json::from(eval_accuracy)),
        ];
        if let Some(path) = &written {
            fields.push(("out", Json::from(path.as_str())));
        }
        return Ok(format!("{}\n", Json::obj(fields)));
    }
    writeln!(out, "eval accuracy: {:.1}%", eval_accuracy * 100.0)?;
    if let Some(path) = written {
        writeln!(out, "model written to {path}")?;
    }
    Ok(out)
}

/// `inspect <model.json>`
pub fn inspect(args: &Args) -> CmdResult {
    let net = load_model(args.required_positional("model.json")?)?;
    if args.flag("json") {
        let layers: Vec<Json> = net
            .nodes()
            .iter()
            .enumerate()
            .map(|(id, node)| {
                let (kind, kernels, window_len) = match &node.op {
                    Op::Conv(c) => ("conv", Some(c.c_out() as u64), Some(c.window_len() as u64)),
                    Op::Linear(l) => ("fc", Some(l.c_out() as u64), Some(l.c_in() as u64)),
                    other => (other.kind(), None, None),
                };
                let mut fields = vec![
                    ("name", Json::from(node.name.as_str())),
                    ("kind", Json::from(kind)),
                ];
                if let (Some(k), Some(wl)) = (kernels, window_len) {
                    fields.push(("kernels", Json::from(k)));
                    fields.push(("window_len", Json::from(wl)));
                }
                fields.push(("feeds_only_relu", Json::from(net.feeds_only_relu(id))));
                Json::obj(fields)
            })
            .collect();
        let doc = Json::obj(vec![
            ("nodes", Json::from(net.len() as u64)),
            ("conv", Json::from(net.conv_ids().len() as u64)),
            ("fc", Json::from(net.linear_ids().len() as u64)),
            ("parameters", Json::from(net.param_count() as u64)),
            (
                "model_size_bytes",
                Json::from(net.model_size_bytes() as u64),
            ),
            ("layers", Json::Arr(layers)),
        ]);
        return Ok(format!("{doc}\n"));
    }
    let mut out = String::new();
    writeln!(
        out,
        "{} nodes, {} conv, {} fc, {} parameters ({} bytes)",
        net.len(),
        net.conv_ids().len(),
        net.linear_ids().len(),
        net.param_count(),
        net.model_size_bytes()
    )?;
    writeln!(
        out,
        "{:<28} {:>8} {:>10} {:>12} {:>8}",
        "layer", "kind", "kernels", "window_len", "ReLU?"
    )?;
    for (id, node) in net.nodes().iter().enumerate() {
        match &node.op {
            Op::Conv(c) => writeln!(
                out,
                "{:<28} {:>8} {:>10} {:>12} {:>8}",
                node.name,
                "conv",
                c.c_out(),
                c.window_len(),
                if net.feeds_only_relu(id) { "yes" } else { "no" }
            )?,
            Op::Linear(l) => writeln!(
                out,
                "{:<28} {:>8} {:>10} {:>12} {:>8}",
                node.name,
                "fc",
                l.c_out(),
                l.c_in(),
                if net.feeds_only_relu(id) { "yes" } else { "no" }
            )?,
            other => writeln!(
                out,
                "{:<28} {:>8} {:>10} {:>12} {:>8}",
                node.name,
                other.kind(),
                "-",
                "-",
                "-"
            )?,
        }
    }
    Ok(out)
}

/// `reorder <model.json> --layer <name> [--kernel K]`
pub fn reorder(args: &Args) -> CmdResult {
    let net = load_model(args.required_positional("model.json")?)?;
    let layer = args.opt("layer").ok_or("missing --layer <name>")?;
    let kernel: usize = args.opt_parse("kernel", 0)?;
    let id = net
        .nodes()
        .iter()
        .position(|n| n.name == layer)
        .ok_or_else(|| format!("no layer named {layer:?}"))?;
    let Op::Conv(conv) = &net.node(id).op else {
        return Err(format!("layer {layer:?} is not a convolution").into());
    };
    if kernel >= conv.c_out() {
        return Err(format!("kernel {kernel} out of range ({} kernels)", conv.c_out()).into());
    }
    let weights = conv.weight().item(kernel);
    let r = sign_reorder(weights);
    if args.flag("json") {
        let entries: Vec<Json> = r
            .weights()
            .iter()
            .zip(r.order())
            .map(|(&w, &i)| {
                Json::obj(vec![
                    ("weight", Json::from(f64::from(w))),
                    ("index", Json::from(i as u64)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("layer", Json::from(layer)),
            ("kernel", Json::from(kernel as u64)),
            ("weights", Json::from(r.len() as u64)),
            ("neg_start", Json::from(r.neg_start() as u64)),
            ("entries", Json::Arr(entries)),
        ]);
        return Ok(format!("{doc}\n"));
    }
    let mut out = String::new();
    writeln!(
        out,
        "layer {layer}, kernel {kernel}: {} weights, negative region starts at {}",
        r.len(),
        r.neg_start()
    )?;
    writeln!(
        out,
        "first 16 entries of the weight buffer (value) / index buffer (original idx):"
    )?;
    for (p, (&w, &i)) in r.weights().iter().zip(r.order()).take(16).enumerate() {
        writeln!(out, "  [{p:3}] w = {w:+.4}   idx = {i}")?;
    }
    Ok(out)
}

/// `optimize <model.json> --epsilon 0.03 [--images N] [--out file]`
pub fn optimize(args: &Args) -> CmdResult {
    let net = load_model(args.required_positional("model.json")?)?;
    let epsilon: f64 = args.opt_parse("epsilon", 0.03)?;
    let images: usize = args.opt_parse("images", 40)?;
    let (data, _) = synth_batch(images, 0x0071);
    let cfg = OptimizerConfig::with_epsilon(epsilon);
    let outcome = Optimizer::new(&net, &data, cfg).run();
    let written = if let Some(path) = args.opt("out") {
        fs::write(path, serde_json::to_string(&outcome.params)?)?;
        Some(path.to_string())
    } else {
        None
    };
    if args.flag("json") {
        let per_layer: Vec<Json> = outcome
            .per_layer
            .iter()
            .map(|l| {
                Json::obj(vec![
                    ("layer", Json::from(l.name.as_str())),
                    ("predictive", Json::from(l.predictive)),
                    ("ops", Json::from(l.ops)),
                    ("full_macs", Json::from(l.full_macs)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("epsilon", Json::from(epsilon)),
            ("baseline_accuracy", Json::from(outcome.baseline_accuracy)),
            ("final_accuracy", Json::from(outcome.final_accuracy)),
            ("exact_ops", Json::from(outcome.exact_ops)),
            ("final_ops", Json::from(outcome.final_ops)),
            ("full_macs", Json::from(outcome.full_macs)),
            ("per_layer", Json::Arr(per_layer)),
        ];
        if let Some(path) = &written {
            fields.push(("out", Json::from(path.as_str())));
        }
        return Ok(format!("{}\n", Json::obj(fields)));
    }
    let mut out = String::new();
    writeln!(
        out,
        "accuracy {:.1}% -> {:.1}% (budget {:.1}%), conv MACs {} -> {} (dense {})",
        outcome.baseline_accuracy * 100.0,
        outcome.final_accuracy * 100.0,
        epsilon * 100.0,
        outcome.exact_ops,
        outcome.final_ops,
        outcome.full_macs
    )?;
    writeln!(
        out,
        "{}/{} layers predictive",
        outcome.per_layer.iter().filter(|l| l.predictive).count(),
        outcome.per_layer.len()
    )?;
    if let Some(path) = written {
        writeln!(out, "parameters written to {path}")?;
    }
    Ok(out)
}

/// `simulate <model.json> [--params params.json] [--images N]`
pub fn simulate_cmd(args: &Args) -> CmdResult {
    let net = load_model(args.required_positional("model.json")?)?;
    let images: usize = args.opt_parse("images", 4)?;
    let params: NetworkParams = match args.opt("params") {
        Some(p) => serde_json::from_str(&fs::read_to_string(p)?)?,
        None => NetworkParams::new(),
    };
    let (_, batch) = synth_batch(images, 0xE7A1);
    let profile = profile_network(&net, &params, &batch, false);
    let model = EnergyModel::default();
    let wl = network_workload("model", &net, &batch, &profile);
    let sn = simulate(&AccelConfig::snapea(), &model, &wl);
    let ey = simulate(&AccelConfig::eyeriss(), &model, &wl.to_dense());
    if args.flag("json") {
        let side = |r: &snapea_accel::sim::SimReport| {
            Json::obj(vec![
                ("cycles", Json::from(r.cycles)),
                ("energy_uj", Json::from(r.total_pj() / 1e6)),
                ("utilization", Json::from(r.utilization())),
            ])
        };
        let doc = Json::obj(vec![
            ("images", Json::from(images as u64)),
            ("macs_eliminated", Json::from(profile.savings())),
            ("snapea", side(&sn)),
            ("eyeriss", side(&ey)),
            ("speedup", Json::from(sn.speedup_over(&ey))),
            (
                "energy_reduction",
                Json::from(sn.energy_reduction_over(&ey)),
            ),
        ]);
        return Ok(format!("{doc}\n"));
    }
    let mut out = String::new();
    writeln!(
        out,
        "conv MACs eliminated: {:.1}%",
        profile.savings() * 100.0
    )?;
    writeln!(
        out,
        "SnaPEA : {:>12} cycles  {:>10.3} uJ  util {:>5.1}%",
        sn.cycles,
        sn.total_pj() / 1e6,
        sn.utilization() * 100.0
    )?;
    writeln!(
        out,
        "EYERISS: {:>12} cycles  {:>10.3} uJ  util {:>5.1}%",
        ey.cycles,
        ey.total_pj() / 1e6,
        ey.utilization() * 100.0
    )?;
    writeln!(
        out,
        "speedup {:.2}x, energy reduction {:.2}x",
        sn.speedup_over(&ey),
        sn.energy_reduction_over(&ey)
    )?;
    Ok(out)
}

/// Synthetic input dimensions every model of the zoo pipeline runs on.
const SYNTH_DIMS: (usize, usize, usize) = (3, INPUT_SIZE, INPUT_SIZE);

/// Loads speculation parameters from `--params`, or an empty (all-exact)
/// set when the option is absent.
fn load_params(args: &Args) -> Result<NetworkParams, Box<dyn Error>> {
    Ok(match args.opt("params") {
        Some(p) => serde_json::from_str(&fs::read_to_string(p)?)?,
        None => NetworkParams::new(),
    })
}

/// FNV-1a-64 digest over the bit patterns of every activation element — the
/// bit-identity fingerprint `run` prints so artifact-loaded and
/// freshly-compiled executions can be compared across processes.
fn activations_digest(acts: &[snapea_tensor::Tensor4]) -> u64 {
    let mut bytes = Vec::new();
    for t in acts {
        for &v in t.as_slice() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fnv64(&bytes)
}

/// `compile <model.json> <out.snapea> [--params params.json]`: writes a
/// model, its input shape, and its speculation parameters into the
/// versioned on-disk artifact, so `run --artifact` can execute without
/// re-running the optimizer (loading re-derives the reordered kernels and
/// window plans exactly as compiling does). With `--json`, reports the
/// artifact digest and per-section size breakdown.
pub fn compile(args: &Args) -> CmdResult {
    let net = load_model(args.required_positional("model.json")?)?;
    let out_path = args
        .positional
        .get(1)
        .ok_or("missing output path (snapea-tool compile <model.json> <out.snapea>)")?;
    let params = load_params(args)?;
    let compiled = CompiledModel::compile(&net, &params, SYNTH_DIMS, Q16Format::default());
    let (bytes, sizes) = compiled.to_bytes_sized();
    let digest = fnv64(&bytes);
    fs::write(out_path, &bytes)?;
    if args.flag("json") {
        let doc = Json::obj(vec![
            ("out", Json::from(out_path.as_str())),
            ("digest", Json::Str(format!("{digest:#018x}"))),
            ("bytes", Json::from(sizes.total() as u64)),
            (
                "sections",
                Json::obj(vec![
                    ("header", Json::from(sizes.header as u64)),
                    ("meta", Json::from(sizes.meta as u64)),
                    ("graph", Json::from(sizes.graph as u64)),
                    ("params", Json::from(sizes.params as u64)),
                ]),
            ),
            ("layers", Json::from(compiled.layers().len() as u64)),
            (
                "predictive_kernels",
                Json::from(
                    compiled
                        .layers()
                        .iter()
                        .flat_map(|l| l.kernels())
                        .filter(|k| k.pau.is_predictive())
                        .count() as u64,
                ),
            ),
        ]);
        return Ok(format!("{doc}\n"));
    }
    let mut out = String::new();
    writeln!(
        out,
        "compiled {} layer(s) -> {out_path} ({} bytes, digest {digest:#018x})",
        compiled.layers().len(),
        sizes.total()
    )?;
    writeln!(
        out,
        "sections: header {} meta {} graph {} params {}",
        sizes.header, sizes.meta, sizes.graph, sizes.params
    )?;
    Ok(out)
}

/// `run <model.json> [--params params.json]` or `run --artifact <x.snapea>`:
/// executes the speculative network on a synthetic batch and prints the
/// accuracy plus a bit-identity digest over every activation. The two forms
/// must print the same digest for the same model/parameters — loading an
/// artifact is bit-faithful to compiling fresh.
pub fn run_model(args: &Args) -> CmdResult {
    let images: usize = args.opt_parse("images", 4)?;
    let seed: u64 = args.opt_parse("seed", 0xE7A1)?;
    let (compiled, source) = if args.flag("artifact") {
        let path = args.required_positional("artifact.snapea")?;
        (
            CompiledModel::read_file(std::path::Path::new(path))?,
            "artifact",
        )
    } else {
        let net = load_model(args.required_positional("model.json")?)?;
        let params = load_params(args)?;
        (
            CompiledModel::compile(&net, &params, SYNTH_DIMS, Q16Format::default()),
            "fresh",
        )
    };
    let (data, batch) = synth_batch(images, seed);
    let acts = compiled.forward(&batch);
    let digest = activations_digest(&acts);
    let accuracy = compiled.accuracy(&data);
    if args.flag("json") {
        let doc = Json::obj(vec![
            ("source", Json::from(source)),
            ("images", Json::from(images as u64)),
            ("seed", Json::from(seed)),
            ("accuracy", Json::from(accuracy)),
            ("output_digest", Json::Str(format!("{digest:#018x}"))),
            ("layers", Json::from(compiled.layers().len() as u64)),
        ]);
        return Ok(format!("{doc}\n"));
    }
    Ok(format!(
        "{source}: {images} image(s), accuracy {:.1}%, output_digest {digest:#018x}\n",
        accuracy * 100.0
    ))
}

/// `selfcheck [--cases N] [--seed S] [--replay <seed>] [--inject-bug]
/// [--artifact]`: differential fuzzing of the executor, kernels, and cycle
/// simulator against the `snapea-oracle` reference models. Exits non-zero
/// when any check fails, printing each failing case's seed, config, and a
/// replay command. `--replay` re-runs one case from a seed printed by a
/// previous failure (decimal or `0x`-hex); `--inject-bug` deliberately
/// corrupts one exact-mode output element to prove the harness reports
/// failures. With `--artifact`, runs the compiled-artifact battery instead:
/// per case, a compile→serialize→load round trip must re-serialize
/// byte-exactly and execute bit-identically, and every byte-level corruption
/// of the artifact must be rejected with a typed error (`--inject-bug` then
/// plants a loader bug — a skipped section checksum — that the battery must
/// catch).
pub fn selfcheck(args: &Args) -> CmdResult {
    if args.flag("artifact") {
        return selfcheck_artifact(args);
    }
    let opts = HarnessOptions {
        inject_exact_bug: args.flag("inject-bug"),
    };
    let report = if let Some(spec) = args.opt("replay") {
        let seed = parse_seed(spec)?;
        let outcome = run_case(seed, &opts);
        SelfCheckReport {
            run_seed: seed,
            cases: 1,
            checks: outcome.checks,
            exec_macs: outcome.exec_macs,
            dense_macs: outcome.dense_macs,
            failures: outcome.failure.into_iter().collect(),
        }
    } else {
        let cases: usize = args.opt_parse("cases", 100)?;
        let seed: u64 = args.opt_parse("seed", 1)?;
        run_selfcheck(cases, seed, &opts)
    };
    let body = if args.flag("json") {
        format!("{}\n", report.to_json())
    } else {
        format!("{}\n", report.render_text())
    };
    if report.passed() {
        Ok(body)
    } else {
        Err(body.into())
    }
}

/// The `selfcheck --artifact` branch: the round-trip/corruption battery.
fn selfcheck_artifact(args: &Args) -> CmdResult {
    let opts = ArtifactCheckOptions {
        inject_load_bug: args.flag("inject-bug"),
    };
    let report = if let Some(spec) = args.opt("replay") {
        let seed = parse_seed(spec)?;
        let outcome = run_artifact_case(seed, &opts);
        ArtifactCheckReport {
            run_seed: seed,
            cases: 1,
            checks: outcome.checks,
            mutations: outcome.mutations,
            rejections: outcome.rejections,
            failures: outcome.failure.into_iter().collect(),
        }
    } else {
        let cases: usize = args.opt_parse("cases", 100)?;
        let seed: u64 = args.opt_parse("seed", 1)?;
        run_artifact_check(cases, seed, &opts)
    };
    let body = if args.flag("json") {
        format!("{}\n", report.to_json())
    } else {
        format!("{}\n", report.render_text())
    };
    if report.passed() {
        Ok(body)
    } else {
        Err(body.into())
    }
}

fn parse_seed(spec: &str) -> Result<u64, Box<dyn Error>> {
    let t = spec.trim();
    let parsed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => t.parse(),
    };
    parsed.map_err(|_| format!("cannot parse seed {spec:?} (decimal or 0x-hex)").into())
}

/// `lint [--graph] [--rule <id>] [--explain <id>] [--root <dir>]`: runs
/// the `snapea-lint` static analysis over the workspace sources. Prints
/// each finding (or, with `--json`, the full machine-readable report) and
/// exits non-zero when any finding survives. `--graph` additionally runs
/// the transitive call-graph rules (R1 determinism-reachability, R2
/// panic-reachability, R3 parallel-capture), whose findings carry the
/// full evidence chain with a file:line span per edge. `--rule` restricts
/// the output — human and JSON alike — to one rule id
/// (`D1 D2 P1 P2 N1 S1 A1 R1 R2 R3`); `--explain` prints a rule's
/// long-form documentation and exits; `--root` overrides workspace-root
/// discovery (useful for linting a fixture tree in tests).
pub fn lint(args: &Args) -> CmdResult {
    if let Some(spec) = args.opt("explain") {
        let id = spec.to_ascii_uppercase();
        let rule = snapea_lint::RuleId::ALL
            .into_iter()
            .find(|r| r.as_str() == id)
            .ok_or_else(|| format!("unknown rule {spec:?} (known: {})", known_rules()))?;
        return Ok(format!(
            "{} ({})\n\n{}\n",
            rule.as_str(),
            rule.name(),
            rule.explain()
        ));
    }
    let root = match args.opt("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir()?;
            snapea_lint::find_workspace_root(&cwd)
                .ok_or("cannot find workspace root (no Cargo.toml with [workspace] above cwd); pass --root")?
        }
    };
    let opts = snapea_lint::LintOptions {
        graph: args.flag("graph"),
    };
    let mut report = snapea_lint::lint_workspace_opts(&root, &opts)?;
    if let Some(spec) = args.opt("rule") {
        let want = spec.to_ascii_uppercase();
        if !snapea_lint::RuleId::ALL.iter().any(|r| r.as_str() == want) {
            return Err(format!("unknown rule {spec:?} (known: {})", known_rules()).into());
        }
        report.findings.retain(|f| f.rule.as_str() == want);
    }
    snapea_obs::event!(
        "lint/report",
        files_scanned = report.files_scanned as u64,
        findings = report.findings.len() as u64,
        graph = report.graph,
        passed = report.passed(),
    );
    let body = if args.flag("json") {
        format!("{}\n", report.to_json_string())
    } else {
        report.render_text()
    };
    if report.passed() {
        Ok(body)
    } else {
        Err(body.into())
    }
}

/// The known rule ids, space-separated (for error messages).
fn known_rules() -> String {
    snapea_lint::RuleId::ALL
        .iter()
        .map(|r| r.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

/// `report <events.jsonl>`: summarises a structured run-event log written by
/// the obs layer (e.g. `repro-results/<run>/events.jsonl`).
pub fn report(args: &Args) -> CmdResult {
    let path = args.required_positional("events.jsonl")?;
    let text = fs::read_to_string(path)?;
    let r = Report::from_jsonl(&text)?;
    if args.flag("json") {
        return Ok(format!("{}\n", r.to_json()));
    }
    Ok(r.render_text())
}

/// `trace <events.jsonl> [--chrome out.json] [--pe-trace out.json]`:
/// converts a structured run-event log into the Chrome trace-event format
/// loadable in `chrome://tracing` or <https://ui.perfetto.dev>. `--chrome`
/// writes the full trace (wall-clock spans plus the simulator's virtual-time
/// PE timelines); `--pe-trace` writes only the PE timelines. With neither
/// flag, the full trace is printed to stdout. Every written document is
/// schema-validated before it leaves the process.
pub fn trace(args: &Args) -> CmdResult {
    let path = args.required_positional("events.jsonl")?;
    let text = fs::read_to_string(path)?;
    let mut outputs: Vec<(&str, &str, Selection)> = Vec::new();
    if let Some(out) = args.opt("chrome") {
        outputs.push(("chrome", out, Selection::All));
    }
    if let Some(out) = args.opt("pe-trace") {
        outputs.push(("pe-trace", out, Selection::VirtualPe));
    }
    if outputs.is_empty() {
        let doc = snapea_obs::chrome_trace(&text, Selection::All)?;
        snapea_obs::validate_chrome_trace(&doc)?;
        return Ok(format!("{doc}\n"));
    }
    let mut rows = Vec::new();
    for (what, out, selection) in outputs {
        let doc = snapea_obs::chrome_trace(&text, selection)?;
        let events = snapea_obs::validate_chrome_trace(&doc)?;
        fs::write(out, &doc)?;
        rows.push((what, out.to_string(), events));
    }
    if args.flag("json") {
        let written: Vec<Json> = rows
            .iter()
            .map(|(what, out, events)| {
                Json::obj(vec![
                    ("kind", Json::from(*what)),
                    ("path", Json::from(out.as_str())),
                    ("events", Json::from(*events as u64)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("input", Json::from(path)),
            ("written", Json::Arr(written)),
        ]);
        return Ok(format!("{doc}\n"));
    }
    let mut out = String::new();
    for (what, file, events) in rows {
        writeln!(out, "{what}: {events} trace event(s) -> {file}")?;
    }
    Ok(out)
}

/// `perf-diff <old.json> <new.json> [--max-regress pct]`: compares two
/// benchmark documents (`BENCH_*.json` or `perfbench --json` output) field
/// by field and exits non-zero when any timing regressed by more than the
/// threshold percentage (default 10). The check script uses this as its
/// perf regression gate.
pub fn perf_diff(args: &Args) -> CmdResult {
    let old_path = args.required_positional("old.json")?;
    let new_path = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("missing required argument <new.json>")?;
    let max_regress: f64 = args.opt_parse("max-regress", 10.0)?;
    if !max_regress.is_finite() || max_regress < 0.0 {
        return Err(
            format!("--max-regress must be a non-negative percentage, got {max_regress}").into(),
        );
    }
    let old = snapea_obs::parse(&fs::read_to_string(old_path)?)?;
    let new = snapea_obs::parse(&fs::read_to_string(new_path)?)?;
    let d = snapea_obs::perfdiff::diff(&old, &new);
    let body = if args.flag("json") {
        format!("{}\n", d.to_json(max_regress))
    } else {
        d.render_text(max_regress)
    };
    if d.passed(max_regress) {
        Ok(body)
    } else {
        Err(body.into())
    }
}

/// Usage text.
pub fn usage() -> String {
    "snapea-tool <command> [args] [--json]\n\
     commands:\n\
       train     --workload <name> [--epochs N] [--out model.json]\n\
       inspect   <model.json>\n\
       reorder   <model.json> --layer <name> [--kernel K]\n\
       optimize  <model.json> [--epsilon 0.03] [--images N] [--out params.json]\n\
       compile   <model.json> <out.snapea> [--params params.json]\n\
       run       <model.json> [--params params.json] [--images N] [--seed S]\n\
       run       --artifact <model.snapea> [--images N] [--seed S]\n\
       simulate  <model.json> [--params params.json] [--images N]\n\
       selfcheck [--cases N] [--seed S] [--replay seed] [--inject-bug] [--artifact]\n\
       lint      [--graph] [--rule <id>] [--explain <id>] [--root <dir>]\n\
       report    <events.jsonl>\n\
       trace     <events.jsonl> [--chrome out.json] [--pe-trace out.json]\n\
       perf-diff <old.json> <new.json> [--max-regress pct]\n\
     every command accepts --json to emit machine-readable output\n"
        .to_string()
}

/// Dispatches a parsed command line.
pub fn run(args: &Args) -> CmdResult {
    match args.command.as_str() {
        "train" => train(args),
        "inspect" => inspect(args),
        "reorder" => reorder(args),
        "optimize" => optimize(args),
        "compile" => compile(args),
        "run" => run_model(args),
        "simulate" => simulate_cmd(args),
        "selfcheck" => selfcheck(args),
        "lint" => lint(args),
        "report" => report(args),
        "trace" => trace(args),
        "perf-diff" => perf_diff(args),
        "help" | "--help" => Ok(usage()),
        other => Err(format!("unknown command {other:?}\n{}", usage()).into()),
    }
}

/// Executes an exact-mode sanity pass over a model (used by tests).
pub fn exact_sanity(net: &Graph, images: usize) -> bool {
    let (_, batch) = synth_batch(images, 1);
    let acts = net.forward(&batch);
    net.conv_ids().iter().all(|&id| {
        let Op::Conv(conv) = &net.node(id).op else {
            return false;
        };
        let input = &acts[net.node(id).inputs[0]];
        let r = snapea::exec::execute_conv(conv, input, &LayerConfig::exact(conv));
        r.profile.total_ops() <= r.profile.full_macs()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_model() -> (tempdir::TempDirLike, String) {
        // Minimal home-grown temp dir (std only). One directory per call:
        // tests run in parallel, and each guard deletes its directory on drop.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("snapea-cli-test-{}-{n}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("model.json").to_string_lossy().into_owned();
        let net = Workload::SqueezeNet.build(10);
        fs::write(&path, serde_json::to_string(&net).unwrap()).unwrap();
        (tempdir::TempDirLike(dir), path)
    }

    mod tempdir {
        pub struct TempDirLike(pub std::path::PathBuf);
        impl Drop for TempDirLike {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    // Commands that round-trip a model file go through the vendored
    // `serde_json` (a full Content-model JSON implementation), so they run
    // in the offline build like everything else.

    #[test]
    fn inspect_lists_layers() {
        let (_guard, path) = temp_model();
        let args = Args::parse(["inspect", path.as_str()]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("26 conv"));
        assert!(out.contains("fire2/squeeze1x1"));
    }

    #[test]
    fn reorder_dumps_index_buffer() {
        let (_guard, path) = temp_model();
        let args = Args::parse([
            "reorder",
            path.as_str(),
            "--layer",
            "conv1",
            "--kernel",
            "1",
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("negative region starts"));
        assert!(out.contains("idx ="));
    }

    #[test]
    fn reorder_rejects_bad_layer_and_kernel() {
        let (_guard, path) = temp_model();
        let args = Args::parse(["reorder", path.as_str(), "--layer", "nope"]).unwrap();
        assert!(run(&args).is_err());
        let args = Args::parse([
            "reorder",
            path.as_str(),
            "--layer",
            "conv1",
            "--kernel",
            "999",
        ])
        .unwrap();
        assert!(run(&args).is_err());
    }

    #[test]
    fn simulate_reports_speedup_line() {
        let (_guard, path) = temp_model();
        let args = Args::parse(["simulate", path.as_str(), "--images", "2"]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("speedup"));
        assert!(out.contains("SnaPEA"));
    }

    #[test]
    fn simulate_json_mode_is_parsable() {
        let (_guard, path) = temp_model();
        let args = Args::parse_with_flags(
            ["simulate", path.as_str(), "--images", "1", "--json"],
            &["json"],
        )
        .unwrap();
        let out = run(&args).unwrap();
        let doc = snapea_obs::parse(&out).expect("valid json");
        assert!(doc.get("speedup").and_then(Json::as_f64).is_some());
        assert!(doc.get("snapea").and_then(|s| s.get("cycles")).is_some());
    }

    #[test]
    fn inspect_json_mode_lists_layers() {
        let (_guard, path) = temp_model();
        let args = Args::parse_with_flags(["inspect", path.as_str(), "--json"], &["json"]).unwrap();
        let out = run(&args).unwrap();
        let doc = snapea_obs::parse(&out).expect("valid json");
        assert_eq!(doc.get("conv").and_then(Json::as_u64), Some(26));
        assert!(!doc
            .get("layers")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn report_summarises_event_log() {
        let dir = std::env::temp_dir().join(format!("snapea-cli-report-{}", std::process::id()));
        let _guard = tempdir::TempDirLike(dir.clone());
        fs::create_dir_all(&dir).unwrap();
        let log = dir.join("events.jsonl");
        fs::write(
            &log,
            concat!(
                "{\"seq\":0,\"t_ms\":0.1,\"kind\":\"exec/layer\",\"full_macs\":100,\"performed_macs\":40}\n",
                "{\"seq\":1,\"t_ms\":0.2,\"kind\":\"span\",\"path\":\"repro/train\",\"ms\":3.0}\n",
            ),
        )
        .unwrap();
        let path = log.to_string_lossy().into_owned();
        let args = Args::parse(["report", path.as_str()]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("events: 2"));
        assert!(out.contains("60.0% saved"));
        let args = Args::parse_with_flags(["report", path.as_str(), "--json"], &["json"]).unwrap();
        let doc = snapea_obs::parse(&run(&args).unwrap()).expect("valid json");
        assert_eq!(doc.get("events").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn trace_exports_chrome_and_pe_documents() {
        let dir = std::env::temp_dir().join(format!("snapea-cli-trace-{}", std::process::id()));
        let _guard = tempdir::TempDirLike(dir.clone());
        fs::create_dir_all(&dir).unwrap();
        let log = dir.join("events.jsonl");
        fs::write(
            &log,
            concat!(
                "{\"seq\":0,\"t_ms\":0.1,\"kind\":\"sim/pe/phase\",\"tid\":0,\"layer\":\"conv1\",\"pe\":0,\"phase\":\"compute\",\"start_cycle\":0,\"cycles\":12}\n",
                "{\"seq\":1,\"t_ms\":0.2,\"kind\":\"span\",\"tid\":0,\"span_id\":1,\"parent_id\":0,\"name\":\"optimizer\",\"path\":\"optimizer\",\"depth\":1,\"start_ms\":0.0,\"ms\":10.0}\n",
            ),
        )
        .unwrap();
        let log_path = log.to_string_lossy().into_owned();
        let chrome = dir.join("chrome.json").to_string_lossy().into_owned();
        let pe = dir.join("pe.json").to_string_lossy().into_owned();

        // Stdout mode: the full trace is printed and schema-valid.
        let args = Args::parse(["trace", log_path.as_str()]).unwrap();
        let out = run(&args).unwrap();
        assert!(snapea_obs::validate_chrome_trace(out.trim()).unwrap() >= 2);

        // File mode with --json summary.
        let args = Args::parse_with_flags(
            [
                "trace",
                log_path.as_str(),
                "--chrome",
                chrome.as_str(),
                "--pe-trace",
                pe.as_str(),
                "--json",
            ],
            &["json"],
        )
        .unwrap();
        let doc = snapea_obs::parse(&run(&args).unwrap()).expect("valid json");
        let written = doc.get("written").and_then(Json::as_array).unwrap();
        assert_eq!(written.len(), 2);
        let chrome_doc = fs::read_to_string(&chrome).unwrap();
        let pe_doc = fs::read_to_string(&pe).unwrap();
        assert!(chrome_doc.contains("\"optimizer\""));
        assert!(pe_doc.contains("\"compute\"") && !pe_doc.contains("\"optimizer\""));
    }

    #[test]
    fn perf_diff_gates_regressions() {
        let dir = std::env::temp_dir().join(format!("snapea-cli-pdiff-{}", std::process::id()));
        let _guard = tempdir::TempDirLike(dir.clone());
        fs::create_dir_all(&dir).unwrap();
        let old = dir.join("old.json");
        let new_ok = dir.join("new_ok.json");
        let new_bad = dir.join("new_bad.json");
        fs::write(&old, r#"{"kernels":[{"name":"k","kernel_ms":10.0}]}"#).unwrap();
        fs::write(&new_ok, r#"{"kernels":[{"name":"k","kernel_ms":10.5}]}"#).unwrap();
        fs::write(&new_bad, r#"{"kernels":[{"name":"k","kernel_ms":12.0}]}"#).unwrap();
        let p = |x: &std::path::Path| x.to_string_lossy().into_owned();

        let args = Args::parse(["perf-diff", p(&old).as_str(), p(&new_ok).as_str()]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("PASS"), "{out}");

        // A planted 20% regression must fail the default 10% gate...
        let args = Args::parse(["perf-diff", p(&old).as_str(), p(&new_bad).as_str()]).unwrap();
        let err = run(&args).unwrap_err().to_string();
        assert!(err.contains("REGRESSION") && err.contains("FAIL"), "{err}");

        // ...and pass an explicitly loosened one.
        let args = Args::parse([
            "perf-diff",
            p(&old).as_str(),
            p(&new_bad).as_str(),
            "--max-regress",
            "25",
        ])
        .unwrap();
        assert!(run(&args).is_ok());

        // JSON mode carries the verdict.
        let args = Args::parse_with_flags(
            [
                "perf-diff",
                p(&old).as_str(),
                p(&new_bad).as_str(),
                "--json",
            ],
            &["json"],
        )
        .unwrap();
        let doc = snapea_obs::parse(&run(&args).unwrap_err().to_string()).expect("valid json");
        assert_eq!(doc.get("passed").and_then(Json::as_bool), Some(false));

        // Missing second positional and bad thresholds are rejected.
        let args = Args::parse(["perf-diff", p(&old).as_str()]).unwrap();
        assert!(run(&args).is_err());
        let args = Args::parse([
            "perf-diff",
            p(&old).as_str(),
            p(&new_ok).as_str(),
            "--max-regress",
            "-5",
        ])
        .unwrap();
        assert!(run(&args).is_err());
    }

    #[test]
    fn lint_fixture_fails_and_json_round_trips() {
        let dir = std::env::temp_dir().join(format!("snapea-cli-lint-{}", std::process::id()));
        let _guard = tempdir::TempDirLike(dir.clone());
        let src = dir.join("crates").join("core").join("src");
        fs::create_dir_all(&src).unwrap();
        fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
        fs::write(
            src.join("lib.rs"),
            "#![forbid(unsafe_code)]\nuse std::collections::HashMap;\n",
        )
        .unwrap();
        let root = dir.to_string_lossy().into_owned();

        // Human-readable mode: the D1 finding makes the command fail.
        let args = Args::parse(["lint", "--root", root.as_str()]).unwrap();
        let err = run(&args).unwrap_err().to_string();
        assert!(err.contains("[D1/hash-collections]"), "{err}");
        assert!(err.contains("1 finding(s)"), "{err}");

        // JSON mode round-trips through the obs parser.
        let args =
            Args::parse_with_flags(["lint", "--root", root.as_str(), "--json"], &["json"]).unwrap();
        let doc = snapea_obs::parse(&run(&args).unwrap_err().to_string()).expect("valid json");
        assert_eq!(doc.get("passed").and_then(Json::as_bool), Some(false));
        let findings = doc.get("findings").and_then(Json::as_array).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].get("rule").and_then(Json::as_str), Some("D1"));
        assert_eq!(findings[0].get("line").and_then(Json::as_u64), Some(2));

        // --rule filters: the fixture has no P1 finding, so that view passes.
        let args = Args::parse(["lint", "--root", root.as_str(), "--rule", "p1"]).unwrap();
        assert!(run(&args).is_ok());

        // Unknown rule ids are rejected up front.
        let args = Args::parse(["lint", "--root", root.as_str(), "--rule", "Z9"]).unwrap();
        let err = run(&args).unwrap_err().to_string();
        assert!(err.contains("unknown rule"), "{err}");
    }

    #[test]
    fn lint_graph_fixture_fails_naming_the_chain() {
        let dir = std::env::temp_dir().join(format!("snapea-cli-graph-{}", std::process::id()));
        let _guard = tempdir::TempDirLike(dir.clone());
        let src = dir.join("crates").join("core").join("src");
        fs::create_dir_all(&src).unwrap();
        fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
        fs::write(src.join("lib.rs"), "#![forbid(unsafe_code)]\n").unwrap();
        // A result-path fn reaching an env read two calls away.
        fs::write(
            src.join("exec.rs"),
            "pub fn walk() {\n    helper()\n}\n\
             fn helper() {\n    let v = std::env::var(\"X\");\n}\n",
        )
        .unwrap();
        let root = dir.to_string_lossy().into_owned();

        // Without --graph the tree is clean…
        let args = Args::parse(["lint", "--root", root.as_str()]).unwrap();
        assert!(run(&args).is_ok());

        // …with --graph the R1 chain is reported, naming every link.
        let args = Args::parse_with_flags(
            ["lint", "--root", root.as_str(), "--graph"],
            &["json", "graph"],
        )
        .unwrap();
        let err = run(&args).unwrap_err().to_string();
        assert!(err.contains("[R1/determinism-reachability]"), "{err}");
        assert!(
            err.contains("chain: walk() \u{2192} helper() \u{2192} std::env::var"),
            "{err}"
        );
        // Per-edge spans: the call link and the sink link.
        assert!(
            err.contains("crates/core/src/exec.rs:2 core::walk \u{2192} core::helper"),
            "{err}"
        );
        assert!(
            err.contains("crates/core/src/exec.rs:5 core::helper \u{2192} std::env::var"),
            "{err}"
        );
    }

    #[test]
    fn lint_rule_filter_applies_to_json_payload() {
        // Two rules fire in this fixture; `--rule D1 --json` must narrow
        // the JSON findings array exactly like the human output.
        let dir = std::env::temp_dir().join(format!("snapea-cli-rulejson-{}", std::process::id()));
        let _guard = tempdir::TempDirLike(dir.clone());
        let src = dir.join("crates").join("core").join("src");
        fs::create_dir_all(&src).unwrap();
        fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
        fs::write(
            src.join("lib.rs"),
            "#![forbid(unsafe_code)]\nuse std::collections::HashMap;\n\
             pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
        )
        .unwrap();
        let root = dir.to_string_lossy().into_owned();

        // Unfiltered: both findings.
        let args =
            Args::parse_with_flags(["lint", "--root", root.as_str(), "--json"], &["json"]).unwrap();
        let doc = snapea_obs::parse(&run(&args).unwrap_err().to_string()).expect("valid json");
        assert_eq!(
            doc.get("findings").and_then(Json::as_array).unwrap().len(),
            2
        );

        // Filtered: the JSON payload narrows to the one D1 finding.
        let args = Args::parse_with_flags(
            ["lint", "--root", root.as_str(), "--rule", "D1", "--json"],
            &["json"],
        )
        .unwrap();
        let doc = snapea_obs::parse(&run(&args).unwrap_err().to_string()).expect("valid json");
        let findings = doc.get("findings").and_then(Json::as_array).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].get("rule").and_then(Json::as_str), Some("D1"));

        // Graph findings live in the same findings vec, so `--rule R2
        // --json` shows exactly the panic chain.
        let args = Args::parse_with_flags(
            [
                "lint",
                "--root",
                root.as_str(),
                "--graph",
                "--rule",
                "R2",
                "--json",
            ],
            &["json", "graph"],
        )
        .unwrap();
        let doc = snapea_obs::parse(&run(&args).unwrap_err().to_string()).expect("valid json");
        assert_eq!(doc.get("graph").and_then(Json::as_bool), Some(true));
        let findings = doc.get("findings").and_then(Json::as_array).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].get("rule").and_then(Json::as_str), Some("R2"));
        let chain = findings[0].get("chain").and_then(Json::as_array).unwrap();
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].get("to").and_then(Json::as_str), Some(".unwrap()"));
        assert_eq!(chain[0].get("line").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn lint_explain_prints_rule_docs() {
        let args = Args::parse(["lint", "--explain", "r3"]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.starts_with("R3 (parallel-capture)"), "{out}");
        assert!(out.contains("bit-identity"), "{out}");

        let args = Args::parse(["lint", "--explain", "Z9"]).unwrap();
        let err = run(&args).unwrap_err().to_string();
        assert!(err.contains("unknown rule"), "{err}");
    }

    const SELFCHECK_FLAGS: &[&str] = &["json", "inject-bug"];

    #[test]
    fn selfcheck_small_budget_passes() {
        let args = Args::parse_with_flags(
            ["selfcheck", "--cases", "10", "--seed", "1"],
            SELFCHECK_FLAGS,
        )
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("0 failure(s)"), "{out}");
        assert!(out.contains("10 cases"), "{out}");
    }

    #[test]
    fn selfcheck_json_mode_is_parsable() {
        let args = Args::parse_with_flags(
            ["selfcheck", "--cases", "3", "--seed", "2", "--json"],
            SELFCHECK_FLAGS,
        )
        .unwrap();
        let doc = snapea_obs::parse(&run(&args).unwrap()).expect("valid json");
        assert_eq!(doc.get("cases").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("passed").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn selfcheck_injected_bug_fails_with_replayable_seed() {
        let args = Args::parse_with_flags(
            ["selfcheck", "--cases", "2", "--seed", "1", "--inject-bug"],
            SELFCHECK_FLAGS,
        )
        .unwrap();
        let err = run(&args).unwrap_err().to_string();
        assert!(err.contains("config:"), "{err}");
        let seed = err
            .split("--replay ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .expect("failure output must carry a replay seed");
        // Replaying that single case with the bug still fails...
        let args = Args::parse_with_flags(
            ["selfcheck", "--replay", seed, "--inject-bug"],
            SELFCHECK_FLAGS,
        )
        .unwrap();
        assert!(run(&args).is_err());
        // ...and without it, the same case is clean.
        let args =
            Args::parse_with_flags(["selfcheck", "--replay", seed], SELFCHECK_FLAGS).unwrap();
        assert!(run(&args).is_ok());
    }

    #[test]
    fn selfcheck_rejects_bad_replay_seed() {
        let args =
            Args::parse_with_flags(["selfcheck", "--replay", "zzz"], SELFCHECK_FLAGS).unwrap();
        assert!(run(&args).is_err());
    }

    const ARTIFACT_FLAGS: &[&str] = &["json", "inject-bug", "artifact"];

    #[test]
    fn compile_and_run_artifact_is_bit_identical_to_fresh() {
        let dir = std::env::temp_dir().join(format!("snapea-cli-artifact-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let _guard = tempdir::TempDirLike(dir.clone());
        let net = Workload::SqueezeNet.build(10);
        let model = dir.join("model.json").to_string_lossy().into_owned();
        fs::write(&model, serde_json::to_string(&net).unwrap()).unwrap();
        // Hand-built speculation parameters: first two convs predictive.
        let mut params = NetworkParams::new();
        for &id in net.conv_ids().iter().take(2) {
            let Op::Conv(c) = &net.node(id).op else {
                unreachable!("conv_ids points at convs")
            };
            params.set(
                id,
                snapea::params::LayerParams::uniform(
                    c.c_out(),
                    snapea::params::KernelParams::new(0.05, 4),
                ),
            );
        }
        let pfile = dir.join("params.json").to_string_lossy().into_owned();
        fs::write(&pfile, serde_json::to_string(&params).unwrap()).unwrap();
        let art = dir.join("m.snapea").to_string_lossy().into_owned();

        // compile --json reports the digest and per-section size breakdown.
        let args = Args::parse_with_flags(
            [
                "compile",
                model.as_str(),
                art.as_str(),
                "--params",
                pfile.as_str(),
                "--json",
            ],
            ARTIFACT_FLAGS,
        )
        .unwrap();
        let doc = snapea_obs::parse(&run(&args).unwrap()).expect("valid json");
        assert!(doc.get("digest").and_then(Json::as_str).is_some());
        assert_eq!(doc.get("layers").and_then(Json::as_u64), Some(2));
        let sections = doc.get("sections").expect("section breakdown");
        for key in ["header", "meta", "graph", "params"] {
            assert!(sections.get(key).and_then(Json::as_u64).is_some(), "{key}");
        }
        for key in ["layers", "packed"] {
            assert!(sections.get(key).is_none(), "{key}: no such section");
        }

        // A fresh compile-and-run and an artifact-loaded run print the same
        // bit-identity digest.
        let fresh = Args::parse_with_flags(
            [
                "run",
                model.as_str(),
                "--params",
                pfile.as_str(),
                "--images",
                "3",
                "--seed",
                "5",
                "--json",
            ],
            ARTIFACT_FLAGS,
        )
        .unwrap();
        let fresh_doc = snapea_obs::parse(&run(&fresh).unwrap()).expect("valid json");
        let loaded = Args::parse_with_flags(
            [
                "run",
                "--artifact",
                art.as_str(),
                "--images",
                "3",
                "--seed",
                "5",
                "--json",
            ],
            ARTIFACT_FLAGS,
        )
        .unwrap();
        let loaded_doc = snapea_obs::parse(&run(&loaded).unwrap()).expect("valid json");
        let digest = fresh_doc.get("output_digest").and_then(Json::as_str);
        assert!(digest.is_some());
        assert_eq!(
            digest,
            loaded_doc.get("output_digest").and_then(Json::as_str),
            "artifact-loaded execution must be bit-identical to fresh"
        );
        assert_eq!(
            fresh_doc.get("accuracy"),
            loaded_doc.get("accuracy"),
            "accuracy must agree"
        );

        // A corrupted artifact is rejected with a typed error, not executed.
        let mut bytes = fs::read(&art).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        fs::write(&art, &bytes).unwrap();
        let corrupt =
            Args::parse_with_flags(["run", "--artifact", art.as_str()], ARTIFACT_FLAGS).unwrap();
        let err = run(&corrupt).unwrap_err().to_string();
        assert!(
            err.contains("checksum") || err.contains("invalid") || err.contains("truncated"),
            "typed rejection expected, got: {err}"
        );
    }

    #[test]
    fn selfcheck_artifact_battery_passes_and_catches_planted_bug() {
        let args = Args::parse_with_flags(
            [
                "selfcheck",
                "--artifact",
                "--cases",
                "10",
                "--seed",
                "3",
                "--json",
            ],
            ARTIFACT_FLAGS,
        )
        .unwrap();
        let doc = snapea_obs::parse(&run(&args).unwrap()).expect("valid json");
        assert_eq!(doc.get("passed").and_then(Json::as_bool), Some(true));
        assert!(doc.get("mutations").and_then(Json::as_u64).unwrap_or(0) > 0);

        // The planted loader bug (skipped PARAMS checksum) must be caught,
        // and the failure must carry an artifact replay line.
        let args = Args::parse_with_flags(
            [
                "selfcheck",
                "--artifact",
                "--cases",
                "200",
                "--seed",
                "3",
                "--inject-bug",
            ],
            ARTIFACT_FLAGS,
        )
        .unwrap();
        let err = run(&args).unwrap_err().to_string();
        assert!(
            err.contains("replay: snapea-tool selfcheck --artifact --replay 0x"),
            "{err}"
        );
    }

    #[test]
    fn unknown_command_shows_usage() {
        let args = Args::parse(["bogus"]).unwrap();
        let err = run(&args).unwrap_err().to_string();
        assert!(err.contains("snapea-tool <command>"));
    }

    #[test]
    fn exact_sanity_runs() {
        let net = Workload::AlexNet.build(10);
        assert!(exact_sanity(&net, 1));
    }
}
