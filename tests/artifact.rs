//! Compiled-model artifact integration tests.
//!
//! Three layers of defence around the `.snapea` format:
//!
//! * **Zoo bit-identity** — for every workload in the zoo, executing a
//!   compiled-then-loaded artifact is bit-identical to `SpecNet`'s
//!   fresh-reorder path on the same inputs (the `snapea-tool run` contract),
//!   and every loaded layer holds exactly the kernels
//!   `LayerConfig::from_params` derives from the stored graph and params;
//! * **Golden fixture** — `tests/golden/tiny.snapea` is committed; the
//!   deterministic fixture model must re-serialize to exactly those bytes
//!   with a frozen digest, so any format drift fails loudly. To regenerate
//!   after an intentional format change (bump [`VERSION`] first!):
//!
//!   ```text
//!   SNAPEA_REGEN_GOLDEN=1 cargo test --test artifact golden
//!   ```
//!
//!   then update `GOLDEN_DIGEST` with the value the failure prints;
//! * **Corruption battery** — the oracle's mutation fuzzer over seeded
//!   random models: every byte-level corruption must be rejected with a
//!   typed error, and the round trip must hold bit-exactly.

use snapea_suite::core::artifact::{fnv64, ArtifactError, CompiledModel, ENDIAN_TAG, VERSION};
use snapea_suite::core::exec::LayerConfig;
use snapea_suite::core::params::{KernelMode, KernelParams, LayerParams, NetworkParams};
use snapea_suite::core::spec_net::SpecNet;
use snapea_suite::nn::data::SynthShapes;
use snapea_suite::nn::graph::{Graph, GraphBuilder, Op};
use snapea_suite::nn::zoo::{Workload, INPUT_SIZE};
use snapea_suite::oracle::{run_artifact_check, ArtifactCheckOptions};
use snapea_suite::tensor::im2col::ConvGeom;
use snapea_suite::tensor::init;
use snapea_suite::tensor::q16::Q16Format;
use snapea_suite::tensor::{Shape4, Tensor4};

/// Frozen FNV-1a-64 digest of `tests/golden/tiny.snapea`.
const GOLDEN_DIGEST: u64 = 0x6950_c581_00da_4475;

fn golden_path() -> String {
    format!("{}/tests/golden/tiny.snapea", env!("CARGO_MANIFEST_DIR"))
}

/// The committed fixture's source model: fully deterministic (seeded
/// generators only), small enough to keep the fixture a few kilobytes.
fn fixture_model() -> (Graph, NetworkParams) {
    let mut rng = init::rng(0x601D);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let c1 = b.conv("conv1", x, 3, 4, ConvGeom::square(3, 1, 1), &mut rng);
    let r1 = b.relu("relu1", c1);
    let p1 = b.max_pool("pool1", r1, 2, 2);
    let c2 = b.conv("conv2", p1, 4, 6, ConvGeom::square(3, 1, 0), &mut rng);
    let r2 = b.relu("relu2", c2);
    let f = b.flatten("flat", r2);
    let _ = b.linear("fc", f, 6 * 2 * 2, 5, &mut rng);
    let g = b.build();
    let mut p = NetworkParams::new();
    p.set(1, LayerParams::uniform(4, KernelParams::new(0.1, 4)));
    p.set(
        4,
        LayerParams::Predictive(vec![
            snapea_suite::core::params::KernelMode::Exact,
            snapea_suite::core::params::KernelMode::spec(0.25, 6),
            snapea_suite::core::params::KernelMode::spec(-0.1, 2),
            snapea_suite::core::params::KernelMode::spec(f32::INFINITY, 3),
            snapea_suite::core::params::KernelMode::spec(0.0, 8),
            snapea_suite::core::params::KernelMode::Exact,
        ]),
    );
    (g, p)
}

fn compile_fixture() -> CompiledModel {
    let (g, p) = fixture_model();
    CompiledModel::compile(&g, &p, (3, 8, 8), Q16Format::default())
}

#[test]
fn zoo_networks_execute_bit_identically_from_artifacts() {
    let data = SynthShapes::new(INPUT_SIZE, 10).generate(2, 0xA771FAC7);
    let batch = SynthShapes::batch(&data);
    for w in Workload::ALL {
        let net = w.build(10);
        // Uniform speculation on every conv (groups clamped to the window).
        let mut params = NetworkParams::new();
        for &id in &net.conv_ids() {
            let Op::Conv(c) = &net.node(id).op else {
                continue;
            };
            params.set(
                id,
                LayerParams::uniform(c.c_out(), KernelParams::new(0.05, 4.min(c.window_len()))),
            );
        }
        let compiled = CompiledModel::compile(
            &net,
            &params,
            (3, INPUT_SIZE, INPUT_SIZE),
            Q16Format::default(),
        );
        let loaded = CompiledModel::from_bytes(&compiled.to_bytes())
            .unwrap_or_else(|e| panic!("{}: artifact rejected: {e}", w.name()));
        assert_eq!(loaded.layers().len(), net.conv_ids().len(), "{}", w.name());
        for l in loaded.layers() {
            let Op::Conv(conv) = &loaded.graph().node(l.node()).op else {
                panic!("{}: layer {} is not a conv", w.name(), l.node());
            };
            let p = loaded.params().get(l.node()).expect("layer has params");
            assert_eq!(
                l.kernels(),
                LayerConfig::from_params(conv, p).kernels(),
                "{}: node {} kernels differ from a fresh derivation",
                w.name(),
                l.node()
            );
        }
        let fresh = SpecNet::new(&net, &params).forward(&batch);
        let from_artifact = loaded.forward(&batch);
        assert_eq!(fresh.len(), from_artifact.len(), "{}", w.name());
        for (i, (a, b)) in fresh.iter().zip(&from_artifact).enumerate() {
            let identical = a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                identical,
                "{}: activation {i} differs between fresh and artifact-loaded execution",
                w.name()
            );
        }
    }
}

#[test]
fn golden_artifact_is_byte_stable_with_frozen_digest() {
    let bytes = compile_fixture().to_bytes();
    let path = golden_path();
    #[allow(clippy::disallowed_methods)] // regen knob, test-only
    if std::env::var_os("SNAPEA_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &bytes).expect("write golden fixture");
        panic!(
            "regenerated {path} ({} bytes, digest {:#018x}); update GOLDEN_DIGEST and re-run \
             without SNAPEA_REGEN_GOLDEN",
            bytes.len(),
            fnv64(&bytes)
        );
    }
    let want = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing fixture {path}: {e}; regenerate per the module docs"));
    assert_eq!(
        bytes, want,
        "fixture model no longer serializes to the committed artifact; an artifact \
         format change must bump VERSION and regenerate the fixture (module docs)"
    );
    assert_eq!(
        fnv64(&want),
        GOLDEN_DIGEST,
        "committed fixture digest drifted (got {:#018x})",
        fnv64(&want)
    );
    // The committed bytes load and re-serialize canonically.
    let loaded = CompiledModel::from_bytes(&want).expect("golden artifact loads");
    assert_eq!(loaded.to_bytes(), want, "canonical re-serialization");
}

#[test]
fn header_errors_carry_their_typed_variants() {
    let bytes = compile_fixture().to_bytes();

    let mut b = bytes.clone();
    b[..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        CompiledModel::from_bytes(&b),
        Err(ArtifactError::BadMagic(m)) if &m == b"NOPE"
    ));

    let mut b = bytes.clone();
    b[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
    match CompiledModel::from_bytes(&b) {
        Err(ArtifactError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, VERSION + 1);
            assert_eq!(supported, VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    let mut b = bytes.clone();
    b[8..12].copy_from_slice(&ENDIAN_TAG.swap_bytes().to_le_bytes());
    assert!(matches!(
        CompiledModel::from_bytes(&b),
        Err(ArtifactError::BadEndianTag(_))
    ));

    // Section-count corruption is caught by the header checksum.
    let mut b = bytes.clone();
    b[12] ^= 0xFF;
    match CompiledModel::from_bytes(&b) {
        Err(
            e @ ArtifactError::Checksum {
                region: "header", ..
            },
        ) => {
            assert_eq!(e.kind(), "checksum");
        }
        other => panic!("expected header checksum error, got {other:?}"),
    }

    assert!(matches!(
        CompiledModel::from_bytes(&bytes[..bytes.len() - 3]),
        Err(ArtifactError::Truncated { .. })
    ));

    let mut b = bytes.clone();
    b.extend_from_slice(&[0, 0]);
    assert!(matches!(
        CompiledModel::from_bytes(&b),
        Err(ArtifactError::TrailingBytes { extra: 2 })
    ));
}

/// A NaN weight is a parameter like any other: it is not `< 0.0`, so the
/// reorder walks it among the non-negative weights. An artifact with one in
/// a predictive layer loads, and `forward` runs it through the executor,
/// where it makes every window of its kernel NaN and no other.
#[test]
fn nan_weight_in_a_predictive_layer_loads_and_runs() {
    let mut net = Workload::AlexNet.build(10);
    let id = net.conv_ids()[0];
    let Op::Conv(conv) = &mut net.node_mut(id).op else {
        panic!("node {id} is a conv");
    };
    conv.weight_mut().as_mut_slice()[0] = f32::NAN;
    let mut params = NetworkParams::new();
    params.set(
        id,
        LayerParams::Predictive(vec![KernelMode::Exact; conv.c_out()]),
    );
    let compiled = CompiledModel::compile(
        &net,
        &params,
        (3, INPUT_SIZE, INPUT_SIZE),
        Q16Format::default(),
    );
    let loaded = CompiledModel::from_bytes(&compiled.to_bytes()).expect("artifact loads");
    let batch = SynthShapes::batch(&SynthShapes::new(INPUT_SIZE, 10).generate(1, 0x7A7));
    let out = &loaded.forward(&batch)[id];
    let plane = out.shape().plane_len();
    let (kernel0, rest) = out.as_slice().split_at(plane);
    assert!(kernel0.iter().all(|v| v.is_nan()), "kernel 0 is all NaN");
    assert!(
        rest.iter().all(|v| v.is_finite()),
        "other kernels stay finite"
    );
}

/// An empty-batch forward and the shape walk the loader checks GRAPH with
/// (`Graph::shapes`) must both give every node exactly the `(c, h, w)` a
/// one-image forward gives it.
#[test]
fn empty_batch_forward_gives_every_zoo_node_its_one_image_shape() {
    for w in Workload::ALL {
        let net = w.build(10);
        let dims = |n| Shape4::new(n, 3, INPUT_SIZE, INPUT_SIZE);
        let empty = net.forward(&Tensor4::zeros(dims(0)));
        let one = net.forward(&Tensor4::zeros(dims(1)));
        let walked = net.shapes(dims(1)).expect("zoo nets compose");
        assert_eq!(empty.len(), one.len(), "{}", w.name());
        assert_eq!(walked.len(), one.len(), "{}", w.name());
        for (id, ((e, o), s)) in empty.iter().zip(&one).zip(&walked).enumerate() {
            let (e, o) = (e.shape(), o.shape());
            assert_eq!(e.n, 0, "{} node {id}", w.name());
            assert_eq!((e.c, e.h, e.w), (o.c, o.h, o.w), "{} node {id}", w.name());
            assert_eq!(*s, o, "{} node {id}", w.name());
        }
    }
}

/// Rebuilds `bytes` with the payload of section `tag` edited by `edit`,
/// re-framing its length and repairing its checksum, so only the loader's
/// structural validation can object.
fn with_section_payload(bytes: &[u8], tag: u32, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    // Header is 24 bytes; each section is tag u32 · len u64 · payload · fnv u64.
    let mut pos = 24usize;
    loop {
        let found = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        if found == tag {
            let mut payload = bytes[pos + 12..pos + 12 + len].to_vec();
            edit(&mut payload);
            let mut framed = Vec::new();
            framed.extend_from_slice(&tag.to_le_bytes());
            framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            framed.extend_from_slice(&payload);
            let fnv = fnv64(&framed);
            let mut out = bytes[..pos].to_vec();
            out.extend_from_slice(&framed);
            out.extend_from_slice(&fnv.to_le_bytes());
            out.extend_from_slice(&bytes[pos + 12 + len + 8..]);
            return out;
        }
        pos += 12 + len + 8;
    }
}

/// [`with_section_payload`] on PARAMS (section tag 3).
fn with_params_payload(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    with_section_payload(bytes, 3, edit)
}

/// A checksum-valid META whose input GRAPH cannot take is a typed GRAPH
/// error, not a panic inside load; every artifact whose shapes compose
/// still loads.
#[test]
fn meta_input_the_graph_cannot_take_is_a_typed_error() {
    let bytes = compile_fixture().to_bytes();
    // META payload (section tag 1): input c, h, w as u32, then frac_bits.
    let set_meta = |at: usize, v: u32| {
        with_section_payload(&bytes, 1, |p| {
            p[at..at + 4].copy_from_slice(&v.to_le_bytes())
        })
    };
    for (b, want) in [
        // conv1 takes 3 channels.
        (set_meta(0, 4), "node 1 (conv1): conv input channels 4 != 3"),
        // A 12-row input flattens to 6·4·2 = 48 features; fc takes 24.
        (
            set_meta(4, 12),
            "node 7 (fc): linear input features 48 != 24",
        ),
    ] {
        match CompiledModel::from_bytes(&b) {
            Err(ArtifactError::Invalid { region, detail }) => {
                assert_eq!(region, "GRAPH");
                assert!(detail.contains(want), "{detail}");
            }
            other => panic!("expected a GRAPH shape rejection ({want}), got {other:?}"),
        }
    }

    for w in Workload::ALL {
        let net = w.build(10);
        let dims = (3, INPUT_SIZE, INPUT_SIZE);
        let compiled =
            CompiledModel::compile(&net, &NetworkParams::new(), dims, Q16Format::default());
        CompiledModel::from_bytes(&compiled.to_bytes())
            .unwrap_or_else(|e| panic!("{}: artifact rejected: {e}", w.name()));
    }
    CompiledModel::read_file(std::path::Path::new(&golden_path())).expect("golden artifact loads");
}

/// PARAMS payloads with valid framing checksums but parameters the stored
/// graph cannot take must be rejected with typed errors, not reach the
/// asserts of the layer derivation.
#[test]
fn reframed_params_section_corruption_yields_typed_errors() {
    let bytes = compile_fixture().to_bytes();
    // Fixture PARAMS payload: layer count u32, then node 1 (conv1, 4 kernels
    // of window length 3·3·3 = 27): id u32 · predictive tag u8 · mode count
    // u32 · per kernel a speculate tag u8, threshold f32 and groups u32.
    const MODE_COUNT: usize = 9;
    const FIRST_GROUPS: usize = 18;
    const FOURTH_MODE: std::ops::Range<usize> = 40..49;
    let set_u32 = |p: &mut Vec<u8>, at: usize, v: u32| {
        p[at..at + 4].copy_from_slice(&v.to_le_bytes());
    };

    // One mode short of conv1's four kernels.
    let b = with_params_payload(&bytes, |p| {
        set_u32(p, MODE_COUNT, 3);
        p.drain(FOURTH_MODE);
    });
    match CompiledModel::from_bytes(&b) {
        Err(ArtifactError::Invalid { region, detail }) => {
            assert_eq!(region, "PARAMS");
            assert!(detail.contains("3 kernel mode(s)"), "{detail}");
        }
        other => panic!("expected a PARAMS mode-count rejection, got {other:?}"),
    }

    // More speculative groups than conv1's window holds.
    let b = with_params_payload(&bytes, |p| set_u32(p, FIRST_GROUPS, 28));
    match CompiledModel::from_bytes(&b) {
        Err(ArtifactError::Bounds { region, detail }) => {
            assert_eq!(region, "PARAMS");
            assert!(detail.contains("group count 28"), "{detail}");
        }
        other => panic!("expected a PARAMS group-count rejection, got {other:?}"),
    }

    // The whole window is a valid speculative set.
    let b = with_params_payload(&bytes, |p| set_u32(p, FIRST_GROUPS, 27));
    let loaded = CompiledModel::from_bytes(&b).expect("groups == window length loads");
    assert_eq!(loaded.layers()[0].kernels()[0].pau.spec_len(), 27);
}

#[test]
fn corruption_battery_over_seeded_models_rejects_everything() {
    let report = run_artifact_check(60, 0xBA77E21, &ArtifactCheckOptions::default());
    assert!(report.passed(), "{}", report.render_text());
    assert_eq!(
        report.rejections.values().sum::<u64>(),
        report.mutations,
        "every mutation must land in a typed-rejection bucket: {:?}",
        report.rejections
    );
}
