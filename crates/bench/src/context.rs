//! Trained models, datasets and optimizer outcomes, cached on disk.
//!
//! Training the four mini workloads and running the Algorithm-1 optimizer
//! are the expensive steps of the reproduction; both are deterministic, so
//! their results are cached as `.snapea` artifacts under `repro-cache/` and
//! reused across `repro` invocations and bench runs: `{w}.snapea` holds a
//! trained network (all-exact parameters), `{w}.eps{m}.snapea` the same
//! network with the parameters Algorithm 1 chose at budget `m`/1000.

use snapea::artifact::CompiledModel;
use snapea::optimizer::{Optimizer, OptimizerConfig};
use snapea::params::NetworkParams;
use snapea_nn::data::{LabeledImage, SynthShapes};
use snapea_nn::graph::Graph;
use snapea_nn::train::{evaluate, TrainConfig, Trainer};
use snapea_nn::zoo::{Workload, INPUT_SIZE};
use snapea_tensor::init;
use snapea_tensor::q16::Q16Format;
use std::fs;
use std::path::{Path, PathBuf};

/// Number of classes in all experiments.
pub const CLASSES: usize = 10;
/// Training-set size.
pub const TRAIN_IMAGES: usize = 400;
/// Evaluation-set size (plays the role of the ILSVRC validation set).
pub const EVAL_IMAGES: usize = 200;
/// Optimization-set size (Algorithm 1's input dataset `D`).
pub const OPT_IMAGES: usize = 100;
/// Training epochs.
pub const EPOCHS: usize = 30;

/// Deterministic dataset seeds (train / eval / opt are disjoint streams).
const SEED_TRAIN: u64 = 0x7EA1;
const SEED_EVAL: u64 = 0xE7A1;
const SEED_OPT: u64 = 0x0071;

/// The experiment datasets.
#[derive(Debug, Clone)]
pub struct Datasets {
    /// Training images.
    pub train: Vec<LabeledImage>,
    /// Held-out evaluation images.
    pub eval: Vec<LabeledImage>,
    /// Optimization dataset for Algorithm 1.
    pub opt: Vec<LabeledImage>,
}

/// Builds the shared datasets.
pub fn datasets() -> Datasets {
    let gen = SynthShapes::new(INPUT_SIZE, CLASSES);
    Datasets {
        train: gen.generate(TRAIN_IMAGES, SEED_TRAIN),
        eval: gen.generate(EVAL_IMAGES, SEED_EVAL),
        opt: gen.generate(OPT_IMAGES, SEED_OPT),
    }
}

/// A trained workload.
#[derive(Debug, Clone)]
pub struct TrainedWorkload {
    /// Which paper workload this is.
    pub workload: Workload,
    /// The trained network.
    pub net: Graph,
    /// Accuracy on the evaluation set.
    pub eval_accuracy: f64,
}

/// Where cache files live (workspace-relative, overridable for tests).
#[allow(clippy::disallowed_methods)] // sanctioned config read (R1)
pub fn cache_dir() -> PathBuf {
    std::env::var_os("SNAPEA_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("repro-cache"))
}

fn model_path(dir: &Path, w: Workload) -> PathBuf {
    dir.join(format!("{}.snapea", w.name().to_lowercase()))
}

fn params_path(dir: &Path, w: Workload, eps_milli: u32) -> PathBuf {
    dir.join(format!("{}.eps{eps_milli}.snapea", w.name().to_lowercase()))
}

/// Caches `net` under `params` as an artifact for the zoo input shape.
/// Best effort: a failed write only costs a recomputation on the next run.
fn write_cache(dir: &Path, path: &Path, net: &Graph, params: &NetworkParams) {
    let _ = fs::create_dir_all(dir);
    let dims = (3, INPUT_SIZE, INPUT_SIZE);
    let _ = CompiledModel::compile(net, params, dims, Q16Format::default()).write_file(path);
}

/// Trains one workload (or loads it from cache). Deterministic in all inputs.
pub fn trained_workload(w: Workload, data: &Datasets) -> TrainedWorkload {
    let _span = snapea_obs::span!("train/workload", w.name());
    let dir = cache_dir();
    let path = model_path(&dir, w);
    if let Ok(model) = CompiledModel::read_file(&path) {
        let net = model.graph().clone();
        let eval_accuracy = evaluate(&net, &data.eval, 32);
        snapea_obs::event!(
            "train/loaded",
            workload = w.name(),
            eval_accuracy = eval_accuracy,
            cache = path.display().to_string(),
        );
        return TrainedWorkload {
            workload: w,
            net,
            eval_accuracy,
        };
    }
    let mut net = w.build(CLASSES);
    let mut trainer = Trainer::new(TrainConfig {
        lr: 0.01,
        momentum: 0.9,
        weight_decay: 1e-4,
        batch_size: 20,
    });
    let mut rng = init::rng(0xF00D ^ w.year() as u64);
    for epoch in 0..EPOCHS {
        // Step decay: halve the rate twice over the run.
        if epoch == 2 * EPOCHS / 3 || epoch == 5 * EPOCHS / 6 {
            trainer.set_lr(trainer.config().lr * 0.5);
        }
        let _ = trainer.epoch(&mut net, &data.train, &mut rng);
    }
    let eval_accuracy = evaluate(&net, &data.eval, 32);
    snapea_obs::event!(
        "train/done",
        workload = w.name(),
        epochs = EPOCHS as u64,
        eval_accuracy = eval_accuracy,
    );
    write_cache(&dir, &path, &net, &NetworkParams::new());
    TrainedWorkload {
        workload: w,
        net,
        eval_accuracy,
    }
}

/// Runs Algorithm 1 for `trained` at accuracy budget `epsilon` (or loads the
/// parameters from cache). Returns the chosen [`NetworkParams`].
pub fn optimized_params(trained: &TrainedWorkload, data: &Datasets, epsilon: f64) -> NetworkParams {
    let eps_milli = (epsilon * 1000.0).round() as u32;
    let dir = cache_dir();
    let path = params_path(&dir, trained.workload, eps_milli);
    if let Ok(model) = CompiledModel::read_file(&path) {
        snapea_obs::event!(
            "optimizer/loaded",
            workload = trained.workload.name(),
            epsilon = epsilon,
            cache = path.display().to_string(),
        );
        return model.params().clone();
    }
    let _span = snapea_obs::span!("optimizer/workload", trained.workload.name());
    let cfg = OptimizerConfig::with_epsilon(epsilon);
    let out = Optimizer::new(&trained.net, &data.opt, cfg).run();
    write_cache(&dir, &path, &trained.net, &out.params);
    out.params
}

/// Trains all four workloads.
pub fn all_trained(data: &Datasets) -> Vec<TrainedWorkload> {
    Workload::ALL
        .iter()
        .map(|&w| trained_workload(w, data))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_disjoint_streams() {
        let d = datasets();
        assert_eq!(d.train.len(), TRAIN_IMAGES);
        assert_eq!(d.eval.len(), EVAL_IMAGES);
        assert_eq!(d.opt.len(), OPT_IMAGES);
        assert_ne!(d.train[0].image, d.eval[0].image);
        assert_ne!(d.train[0].image, d.opt[0].image);
    }

    #[test]
    fn cache_files_are_artifacts_that_round_trip_net_and_params() {
        use snapea::params::{KernelParams, LayerParams};
        let dir = std::env::temp_dir().join(format!("snapea-cache-test-{}", std::process::id()));
        let net = Workload::SqueezeNet.build(CLASSES);
        let conv = net.conv_ids()[0];
        let snapea_nn::graph::Op::Conv(c) = &net.node(conv).op else {
            unreachable!("conv_ids points at convs")
        };
        let mut params = NetworkParams::new();
        params.set(
            conv,
            LayerParams::uniform(c.c_out(), KernelParams::new(0.05, 4)),
        );
        let path = params_path(&dir, Workload::SqueezeNet, 30);
        assert!(path.ends_with("squeezenet.eps30.snapea"));
        assert!(model_path(&dir, Workload::SqueezeNet).ends_with("squeezenet.snapea"));
        write_cache(&dir, &path, &net, &params);
        let loaded = CompiledModel::read_file(&path).expect("cache file loads");
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(loaded.params(), &params);
        assert_eq!(loaded.input_dims(), (3, INPUT_SIZE, INPUT_SIZE));
        let batch = SynthShapes::batch(&SynthShapes::new(INPUT_SIZE, CLASSES).generate(1, 3));
        assert_eq!(loaded.graph().logits(&batch), net.logits(&batch));
    }
}
