//! `serve`: n=1 requests to trained GoogLeNet loaded from a `.snapea`
//! artifact — the `snapea-tool run --artifact` path.
//!
//! 51 of GoogLeNet's 57 convs take the dense path, so a request is mostly
//! dense `Conv2d::forward` and the other nn ops; the optimizer and the
//! simulator are bypassed.

use crate::common::{self, bits, last, PaperTotals, INPUT_DIMS};
use crate::fixtures::Fixture;
use crate::harness::{timed, Bench, OpReport, Probe, Timed};
use crate::trace::Tracer;
use snapea::exec::{self, execute_conv};
use snapea::CompiledModel;
use snapea_nn::data::{LabeledImage, SynthShapes};
use snapea_oracle::reference::execute_layer;
use snapea_tensor::q16::Q16Format;
use snapea_tensor::Tensor4;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Distinct request images per round.
pub const INPUTS: usize = 128;

const SEED_TAG: u64 = 1;

/// The serve workload.
pub struct Serve {
    fixture: Fixture,
    artifact: PathBuf,
    artifact_bytes: u64,
    data: Vec<LabeledImage>,
    images: Vec<Tensor4>,
    /// Oracle-computed logits bits per request image.
    pub references: Vec<Vec<u32>>,
    /// `CompiledModel::forward` logits bits per image, for checking the
    /// traced replica (traced runs only).
    originals: Vec<Vec<u32>>,
    /// Top-1 class of the first response to each image.
    response_top1: Vec<Option<usize>>,
    model: Option<CompiledModel>,
}

impl Serve {
    /// Compiles `fixture` (GoogLeNet) into an artifact at `artifact`, draws
    /// `inputs` request images from `seed` and computes each request's
    /// reference response with the oracle, all untimed.
    pub fn new(
        fixture: Fixture,
        artifact: PathBuf,
        seed: u64,
        inputs: usize,
        trace: bool,
    ) -> Result<Self, String> {
        let model = CompiledModel::compile(
            &fixture.net,
            &fixture.params,
            INPUT_DIMS,
            Q16Format::default(),
        );
        let sizes = model
            .write_file(&artifact)
            .map_err(|e| format!("{}: {e}", artifact.display()))?;
        let data = common::images(inputs, common::derive_seed(seed, SEED_TAG));
        let images: Vec<Tensor4> = data
            .iter()
            .map(|d| SynthShapes::batch(std::slice::from_ref(d)))
            .collect();
        let compiled: BTreeSet<usize> = model.layers().iter().map(|l| l.node()).collect();
        let references = images
            .iter()
            .map(|x| bits(last(&oracle_forward(&fixture, &compiled, x))))
            .collect();
        let originals = if trace {
            images
                .iter()
                .map(|x| bits(last(&model.forward(x))))
                .collect()
        } else {
            Vec::new()
        };
        Ok(Self {
            fixture,
            artifact,
            artifact_bytes: sizes.total() as u64,
            response_top1: vec![None; images.len()],
            data,
            images,
            references,
            originals,
            model: None,
        })
    }

    /// Size of the served artifact in bytes.
    pub fn artifact_bytes(&self) -> u64 {
        self.artifact_bytes
    }

    /// The deterministic metrics: the fixture's parameters profiled and
    /// simulated on the request images, and top-1 agreement of the first
    /// response to each image with the dense net's answer.
    pub fn paper_totals(&self) -> PaperTotals {
        let net = &self.fixture.net;
        let mut t = PaperTotals::measure(
            self.fixture.workload.name(),
            net,
            &self.fixture.params,
            &self.data,
            false,
        );
        for (x, spec) in self.images.iter().zip(&self.response_top1) {
            if let Some(spec) = spec {
                t.add_top1(&[*spec], &common::top1(last(&net.forward(x))));
            }
        }
        t
    }
}

/// The reference response: the graph's forward pass with the oracle's
/// window walk in place of every compiled layer.
fn oracle_forward(fixture: &Fixture, compiled: &BTreeSet<usize>, x: &Tensor4) -> Vec<Tensor4> {
    fixture.net.forward_with(x, &mut |id, conv, input| {
        let p = fixture.params.get(id).filter(|_| compiled.contains(&id))?;
        Some(execute_layer(conv.weight(), conv.bias(), conv.geom(), input, p).output)
    })
}

/// `CompiledModel::forward`, rebuilt from the same public calls with a span
/// around each layer.
fn forward_replica(m: &CompiledModel, x: &Tensor4, p: &mut Probe<'_>) -> Vec<Tensor4> {
    p.span("artifact.prep", || m.install_plans());
    let configs: BTreeMap<_, _> = p.span("artifact.prep", || m.configs());
    let fwd = p.open("nn.forward");
    let acts = m.graph().forward_with(x, &mut |id, conv, input| {
        Some(match configs.get(&id) {
            Some(cfg) => p.span("exec.conv", || execute_conv(conv, input, cfg).output),
            None => p.span("nn.dense_conv", || conv.forward(input)),
        })
    });
    p.close(fwd);
    acts
}

impl Bench for Serve {
    fn inputs(&self) -> usize {
        self.images.len()
    }

    fn items_per_pass(&self) -> usize {
        self.images.len()
    }

    fn setup(&mut self, tracer: Option<&mut Tracer>) -> Result<Timed<()>, String> {
        self.model = None;
        exec::clear_plan_cache();
        let path = &self.artifact;
        let first = &self.images[0];
        let t = timed(tracer, "serve.setup", |p| {
            let m = p.span("artifact.load", || CompiledModel::read_file(path))?;
            p.span("artifact.prep", || m.install_plans());
            let _ = p.span("serve.request", || m.forward(first));
            Ok::<_, snapea::ArtifactError>(m)
        });
        let (m, t) = t.split();
        self.model = Some(m.map_err(|e| e.to_string())?);
        Ok(t)
    }

    fn op(&mut self, _round: usize, i: usize, tracer: Option<&mut Tracer>) -> OpReport {
        let m = self.model.as_ref().expect("set up before the first op");
        let x = &self.images[i];
        let t = timed(tracer, "serve.request", |p| {
            let acts = if p.traced() {
                forward_replica(m, x, p)
            } else {
                m.forward(x)
            };
            acts.into_iter().last()
        });
        let (logits, timed) = t.split();
        let logits = logits.expect("a forward pass yields at least the input");
        let got = bits(&logits);
        let mut ok = got == self.references[i];
        if timed.traced.is_some() {
            ok &= got == self.originals[i];
        }
        if self.response_top1[i].is_none() {
            self.response_top1[i] = common::top1(&logits).first().copied();
        }
        OpReport {
            timed,
            ok,
            extra: BTreeMap::new(),
        }
    }

    fn final_checks(&mut self) -> Vec<String> {
        Vec::new()
    }
}
