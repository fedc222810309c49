//! Model zoo: mini variants of the paper's four workloads.
//!
//! The paper (Table I) evaluates AlexNet (5 conv, 3 FC), GoogLeNet (57 conv,
//! 1 FC), SqueezeNet (26 conv, 1 FC) and VGGNet (13 conv, 3 FC) pretrained on
//! ImageNet. Pretrained ImageNet models do not exist in the offline Rust
//! ecosystem, so this module builds *mini* variants with the same topology
//! family and the same conv/FC layer counts, sized to train in seconds on
//! the SynthShapes dataset (see DESIGN.md §1 for the substitution argument).
//!
//! All models consume `[n, 3, INPUT_SIZE, INPUT_SIZE]` images.

use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::ops::Lrn;
use snapea_tensor::im2col::ConvGeom;
use snapea_tensor::init;

/// Image side length all zoo models consume.
pub const INPUT_SIZE: usize = 32;

/// The four paper workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// AlexNet-family plain stack (5 conv, 3 FC).
    AlexNet,
    /// GoogLeNet-family Inception network (57 conv, 1 FC).
    GoogLeNet,
    /// SqueezeNet-family Fire network (26 conv, 1 FC).
    SqueezeNet,
    /// VGGNet-family deep stack (13 conv, 3 FC).
    VggNet,
}

impl Workload {
    /// All four workloads, in the paper's presentation order.
    pub const ALL: [Workload; 4] = [
        Workload::AlexNet,
        Workload::GoogLeNet,
        Workload::SqueezeNet,
        Workload::VggNet,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AlexNet => "AlexNet",
            Workload::GoogLeNet => "GoogLeNet",
            Workload::SqueezeNet => "SqueezeNet",
            Workload::VggNet => "VGGNet",
        }
    }

    /// Release year (paper Table I).
    pub fn year(self) -> u16 {
        match self {
            Workload::AlexNet => 2012,
            Workload::GoogLeNet => 2015,
            Workload::SqueezeNet => 2016,
            Workload::VggNet => 2014,
        }
    }

    /// The paper's reported full-scale model size in MB (Table I).
    pub fn paper_model_size_mb(self) -> f64 {
        match self {
            Workload::AlexNet => 224.0,
            Workload::GoogLeNet => 54.0,
            Workload::SqueezeNet => 6.0,
            Workload::VggNet => 554.0,
        }
    }

    /// The paper's reported baseline classification accuracy (Table I).
    pub fn paper_accuracy(self) -> f64 {
        match self {
            Workload::AlexNet => 0.726,
            Workload::GoogLeNet => 0.844,
            Workload::SqueezeNet => 0.741,
            Workload::VggNet => 0.830,
        }
    }

    /// Expected conv/FC layer counts (paper Table I).
    pub fn paper_layer_counts(self) -> (usize, usize) {
        match self {
            Workload::AlexNet => (5, 3),
            Workload::GoogLeNet => (57, 1),
            Workload::SqueezeNet => (26, 1),
            Workload::VggNet => (13, 3),
        }
    }

    /// Builds the mini variant of this workload for `classes` output classes.
    pub fn build(self, classes: usize) -> Graph {
        match self {
            Workload::AlexNet => mini_alexnet(classes),
            Workload::GoogLeNet => mini_googlenet(classes),
            Workload::SqueezeNet => mini_squeezenet(classes),
            Workload::VggNet => mini_vgg(classes),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Mini AlexNet: 5 convolution and 3 fully-connected layers, with LRN and
/// overlapping max pooling as in the original.
pub fn mini_alexnet(classes: usize) -> Graph {
    let mut rng = init::rng(0xA1EC);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let c1 = b.conv("conv1", x, 3, 12, ConvGeom::square(3, 1, 1), &mut rng);
    let r1 = b.relu("relu1", c1);
    let n1 = b.lrn("norm1", r1, Lrn::default());
    let p1 = b.max_pool("pool1", n1, 2, 2); // 32 -> 16
    let c2 = b.conv("conv2", p1, 12, 24, ConvGeom::square(3, 1, 1), &mut rng);
    let r2 = b.relu("relu2", c2);
    let n2 = b.lrn("norm2", r2, Lrn::default());
    let p2 = b.max_pool("pool2", n2, 2, 2); // 16 -> 8
    let c3 = b.conv("conv3", p2, 24, 32, ConvGeom::square(3, 1, 1), &mut rng);
    let r3 = b.relu("relu3", c3);
    let c4 = b.conv("conv4", r3, 32, 32, ConvGeom::square(3, 1, 1), &mut rng);
    let r4 = b.relu("relu4", c4);
    let c5 = b.conv("conv5", r4, 32, 24, ConvGeom::square(3, 1, 1), &mut rng);
    let r5 = b.relu("relu5", c5);
    let p5 = b.max_pool("pool5", r5, 2, 2); // 8 -> 4
    let f = b.flatten("flatten", p5);
    let f6 = b.linear("fc6", f, 24 * 4 * 4, 64, &mut rng);
    let r6 = b.relu("relu6", f6);
    let f7 = b.linear("fc7", r6, 64, 48, &mut rng);
    let r7 = b.relu("relu7", f7);
    let _ = b.linear("fc8", r7, 48, classes, &mut rng);
    b.build()
}

/// Mini VGGNet: 13 convolution and 3 fully-connected layers in the VGG-16
/// block structure.
pub fn mini_vgg(classes: usize) -> Graph {
    let mut rng = init::rng(0x5996);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let g = ConvGeom::square(3, 1, 1);
    let mut cur = x;
    let mut c_in = 3;
    let blocks: [(usize, usize); 5] = [(12, 2), (24, 2), (32, 3), (48, 3), (48, 3)];
    for (bi, (width, convs)) in blocks.iter().enumerate() {
        for ci in 0..*convs {
            let name = format!("conv{}_{}", bi + 1, ci + 1);
            cur = b.conv(&name, cur, c_in, *width, g, &mut rng);
            cur = b.relu(&format!("relu{}_{}", bi + 1, ci + 1), cur);
            c_in = *width;
        }
        // Pools after every block: 32 -> 16 -> 8 -> 4 -> 2 -> 1.
        cur = b.max_pool(&format!("pool{}", bi + 1), cur, 2, 2);
    }
    let f = b.flatten("flatten", cur);
    let f6 = b.linear("fc6", f, 48, 64, &mut rng);
    let r6 = b.relu("relu6", f6);
    let f7 = b.linear("fc7", r6, 64, 48, &mut rng);
    let r7 = b.relu("relu7", f7);
    let _ = b.linear("fc8", r7, 48, classes, &mut rng);
    b.build()
}

/// Channel plan for one Inception module:
/// `(c1, c3r, c3, c5r, c5, pool_proj)`.
type InceptionSpec = (usize, usize, usize, usize, usize, usize);

/// Appends an Inception module (6 convolutions) and returns
/// `(concat_node, out_channels)`.
fn inception(
    b: &mut GraphBuilder,
    name: &str,
    from: NodeId,
    c_in: usize,
    spec: InceptionSpec,
    rng: &mut rand::rngs::StdRng,
) -> (NodeId, usize) {
    let (c1, c3r, c3, c5r, c5, pp) = spec;
    let g1 = ConvGeom::square(1, 1, 0);
    let g3 = ConvGeom::square(3, 1, 1);
    let g5 = ConvGeom::square(5, 1, 2);
    // 1x1 branch
    let b1 = b.conv(&format!("{name}/1x1"), from, c_in, c1, g1, rng);
    let b1r = b.relu(&format!("{name}/relu_1x1"), b1);
    // 3x3 branch
    let b3a = b.conv(&format!("{name}/3x3_reduce"), from, c_in, c3r, g1, rng);
    let b3ar = b.relu(&format!("{name}/relu_3x3_reduce"), b3a);
    let b3 = b.conv(&format!("{name}/3x3"), b3ar, c3r, c3, g3, rng);
    let b3r = b.relu(&format!("{name}/relu_3x3"), b3);
    // 5x5 branch
    let b5a = b.conv(&format!("{name}/5x5_reduce"), from, c_in, c5r, g1, rng);
    let b5ar = b.relu(&format!("{name}/relu_5x5_reduce"), b5a);
    let b5 = b.conv(&format!("{name}/5x5"), b5ar, c5r, c5, g5, rng);
    let b5r = b.relu(&format!("{name}/relu_5x5"), b5);
    // pool branch
    let bp = b.max_pool_padded(&format!("{name}/pool"), from, 3, 1, 1);
    let bpp = b.conv(&format!("{name}/pool_proj"), bp, c_in, pp, g1, rng);
    let bppr = b.relu(&format!("{name}/relu_pool_proj"), bpp);
    let cat = b.concat(&format!("{name}/output"), vec![b1r, b3r, b5r, bppr]);
    (cat, c1 + c3 + c5 + pp)
}

/// Mini GoogLeNet: a 3-conv stem plus nine Inception modules (6 convs each)
/// = 57 convolution layers, one fully-connected classifier.
pub fn mini_googlenet(classes: usize) -> Graph {
    let mut rng = init::rng(0x6006);
    let mut b = GraphBuilder::new();
    let x = b.input();
    // Stem (3 convs, as in GoogLeNet's conv1 / conv2_reduce / conv2).
    let c1 = b.conv("conv1/3x3", x, 3, 16, ConvGeom::square(3, 1, 1), &mut rng);
    let r1 = b.relu("conv1/relu", c1);
    let p1 = b.max_pool("pool1/2x2", r1, 2, 2); // 32 -> 16
    let n1 = b.lrn("pool1/norm1", p1, Lrn::default());
    let c2r = b.conv(
        "conv2/3x3_reduce",
        n1,
        16,
        16,
        ConvGeom::square(1, 1, 0),
        &mut rng,
    );
    let r2r = b.relu("conv2/relu_reduce", c2r);
    let c2 = b.conv(
        "conv2/3x3",
        r2r,
        16,
        24,
        ConvGeom::square(3, 1, 1),
        &mut rng,
    );
    let r2 = b.relu("conv2/relu", c2);
    let n2 = b.lrn("conv2/norm2", r2, Lrn::default());
    let p2 = b.max_pool("pool2/2x2", n2, 2, 2); // 16 -> 8

    // Inception 3a, 3b at 8×8.
    let (i3a, c3a) = inception(
        &mut b,
        "inception_3a",
        p2,
        24,
        (8, 6, 12, 2, 4, 4),
        &mut rng,
    );
    let (i3b, c3b) = inception(
        &mut b,
        "inception_3b",
        i3a,
        c3a,
        (10, 8, 14, 3, 6, 4),
        &mut rng,
    );
    let p3 = b.max_pool("pool3/2x2", i3b, 2, 2); // 8 -> 4

    // Inception 4a..4e at 4×4.
    let (i4a, c4a) = inception(
        &mut b,
        "inception_4a",
        p3,
        c3b,
        (12, 8, 14, 2, 4, 4),
        &mut rng,
    );
    let (i4b, c4b) = inception(
        &mut b,
        "inception_4b",
        i4a,
        c4a,
        (10, 8, 14, 3, 6, 4),
        &mut rng,
    );
    let (i4c, c4c) = inception(
        &mut b,
        "inception_4c",
        i4b,
        c4b,
        (8, 8, 16, 3, 6, 4),
        &mut rng,
    );
    let (i4d, c4d) = inception(
        &mut b,
        "inception_4d",
        i4c,
        c4c,
        (8, 9, 18, 4, 8, 4),
        &mut rng,
    );
    let (i4e, c4e) = inception(
        &mut b,
        "inception_4e",
        i4d,
        c4d,
        (16, 10, 20, 4, 8, 8),
        &mut rng,
    );
    let p4 = b.max_pool("pool4/2x2", i4e, 2, 2); // 4 -> 2

    // Inception 5a, 5b at 2×2.
    let (i5a, c5a) = inception(
        &mut b,
        "inception_5a",
        p4,
        c4e,
        (16, 10, 20, 4, 8, 8),
        &mut rng,
    );
    let (i5b, c5b) = inception(
        &mut b,
        "inception_5b",
        i5a,
        c5a,
        (24, 12, 24, 4, 8, 8),
        &mut rng,
    );

    let gap = b.avg_pool("pool5/gap", i5b, 2, 2); // 2 -> 1
    let f = b.flatten("flatten", gap);
    let _ = b.linear("loss3/classifier", f, c5b, classes, &mut rng);
    b.build()
}

/// Appends a Fire module (squeeze 1×1, expand 1×1 + expand 3×3; 3 convs) and
/// returns `(concat_node, out_channels)`.
fn fire(
    b: &mut GraphBuilder,
    name: &str,
    from: NodeId,
    c_in: usize,
    squeeze: usize,
    expand: usize,
    rng: &mut rand::rngs::StdRng,
) -> (NodeId, usize) {
    let g1 = ConvGeom::square(1, 1, 0);
    let g3 = ConvGeom::square(3, 1, 1);
    let s = b.conv(&format!("{name}/squeeze1x1"), from, c_in, squeeze, g1, rng);
    let sr = b.relu(&format!("{name}/relu_squeeze1x1"), s);
    let e1 = b.conv(&format!("{name}/expand1x1"), sr, squeeze, expand, g1, rng);
    let e1r = b.relu(&format!("{name}/relu_expand1x1"), e1);
    let e3 = b.conv(&format!("{name}/expand3x3"), sr, squeeze, expand, g3, rng);
    let e3r = b.relu(&format!("{name}/relu_expand3x3"), e3);
    let cat = b.concat(&format!("{name}/concat"), vec![e1r, e3r]);
    (cat, 2 * expand)
}

/// Mini SqueezeNet: conv1 + eight Fire modules (3 convs each) + conv10
/// = 26 convolution layers, one fully-connected classifier.
pub fn mini_squeezenet(classes: usize) -> Graph {
    let mut rng = init::rng(0x50E3);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let c1 = b.conv("conv1", x, 3, 16, ConvGeom::square(3, 1, 1), &mut rng);
    let r1 = b.relu("relu_conv1", c1);
    let p1 = b.max_pool("pool1", r1, 2, 2); // 32 -> 16

    let (f2, c2) = fire(&mut b, "fire2", p1, 16, 4, 8, &mut rng);
    let (f3, c3) = fire(&mut b, "fire3", f2, c2, 4, 8, &mut rng);
    let (f4, c4) = fire(&mut b, "fire4", f3, c3, 6, 12, &mut rng);
    let p4 = b.max_pool("pool4", f4, 2, 2); // 16 -> 8
    let (f5, c5) = fire(&mut b, "fire5", p4, c4, 6, 12, &mut rng);
    let (f6, c6) = fire(&mut b, "fire6", f5, c5, 8, 16, &mut rng);
    let (f7, c7) = fire(&mut b, "fire7", f6, c6, 8, 16, &mut rng);
    let p7 = b.max_pool("pool7", f7, 2, 2); // 8 -> 4
    let (f8, c8) = fire(&mut b, "fire8", p7, c7, 8, 16, &mut rng);
    let (f9, c9) = fire(&mut b, "fire9", f8, c8, 8, 16, &mut rng);

    let c10 = b.conv("conv10", f9, c9, 16, ConvGeom::square(1, 1, 0), &mut rng);
    let r10 = b.relu("relu_conv10", c10);
    let gap = b.avg_pool("pool10/gap", r10, 4, 4); // 4 -> 1
    let f = b.flatten("flatten", gap);
    let _ = b.linear("classifier", f, 16, classes, &mut rng);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapea_tensor::{Shape4, Tensor4};

    fn probe(net: &Graph, classes: usize) {
        let x = Tensor4::full(Shape4::new(1, 3, INPUT_SIZE, INPUT_SIZE), 0.5);
        let logits = net.logits(&x);
        assert_eq!(logits.shape().rows, 1);
        assert_eq!(logits.shape().cols, classes);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn layer_counts_match_paper_table1() {
        for w in Workload::ALL {
            let net = w.build(10);
            let (conv, fc) = w.paper_layer_counts();
            assert_eq!(net.conv_ids().len(), conv, "{w} conv count");
            assert_eq!(net.linear_ids().len(), fc, "{w} fc count");
        }
    }

    #[test]
    fn all_models_forward_cleanly() {
        for w in Workload::ALL {
            probe(&w.build(7), 7);
        }
    }

    #[test]
    fn every_conv_feeds_only_relu() {
        // The SnaPEA applicability condition: each conv's output goes
        // straight into a ReLU.
        for w in Workload::ALL {
            let net = w.build(10);
            for id in net.conv_ids() {
                assert!(
                    net.feeds_only_relu(id),
                    "{w}: conv node {} ({}) not followed by ReLU",
                    id,
                    net.node(id).name
                );
            }
        }
    }

    #[test]
    fn workload_metadata() {
        assert_eq!(Workload::AlexNet.year(), 2012);
        assert_eq!(Workload::VggNet.paper_model_size_mb(), 554.0);
        assert!(Workload::GoogLeNet.paper_accuracy() > 0.8);
        assert_eq!(Workload::SqueezeNet.to_string(), "SqueezeNet");
    }

    #[test]
    fn models_are_deterministic() {
        let a = mini_googlenet(10);
        let b = mini_googlenet(10);
        let x = Tensor4::full(Shape4::new(1, 3, INPUT_SIZE, INPUT_SIZE), 0.3);
        assert_eq!(a.logits(&x), b.logits(&x));
    }

    #[test]
    fn spatial_pyramids_shrink_as_designed() {
        // Each model's conv activations shrink monotonically with depth and
        // the classifier sees a 1x1 spatial extent.
        let x = Tensor4::full(Shape4::new(1, 3, INPUT_SIZE, INPUT_SIZE), 0.5);
        for w in Workload::ALL {
            let net = w.build(10);
            let acts = net.forward(&x);
            let mut last_h = INPUT_SIZE;
            for id in net.conv_ids() {
                let h = acts[id].shape().h;
                assert!(
                    h <= last_h,
                    "{w}: conv {} grew spatially",
                    net.node(id).name
                );
                last_h = last_h.min(h);
            }
            for id in net.linear_ids() {
                assert_eq!(acts[id].shape().h, 1, "{w}: fc output is 1x1");
                assert_eq!(acts[id].shape().w, 1);
            }
        }
    }

    #[test]
    fn inception_and_fire_concats_have_expected_widths() {
        let g = mini_googlenet(10);
        let x = Tensor4::full(Shape4::new(1, 3, INPUT_SIZE, INPUT_SIZE), 0.5);
        let acts = g.forward(&x);
        // inception_3a output = 8 + 12 + 4 + 4 = 28 channels.
        let id = g
            .nodes()
            .iter()
            .position(|n| n.name == "inception_3a/output")
            .expect("inception_3a exists");
        assert_eq!(acts[id].shape().c, 28);

        let s = mini_squeezenet(10);
        let acts = s.forward(&x);
        let id = s
            .nodes()
            .iter()
            .position(|n| n.name == "fire2/concat")
            .expect("fire2 exists");
        assert_eq!(acts[id].shape().c, 16); // expand1x1(8) + expand3x3(8)
    }

    #[test]
    fn vgg_relative_model_size_ordering_matches_paper() {
        // The paper's Table I ordering: VGG > AlexNet > GoogLeNet > SqueezeNet.
        // Mini variants preserve GoogLeNet/SqueezeNet compactness relative to
        // VGG.
        let vgg = mini_vgg(10).model_size_bytes();
        let squeeze = mini_squeezenet(10).model_size_bytes();
        assert!(
            vgg > squeeze,
            "VGG {vgg} should exceed SqueezeNet {squeeze}"
        );
    }
}
