//! Golden digests of the dense forward pass.
//!
//! Every output float of `Graph::forward` and `Graph::forward_train` (and
//! every max-pool argmax map the training pass records) is hashed bit for
//! bit, with FNV-1a-64, for the four zoo networks at their seeded
//! initialisation on a fixed SynthShapes batch at n = 1 and n = 3. The
//! constants pin the bits of the per-element coordinate-loop formulation of
//! every kernel, so a faster pooling, LRN or dense-conv kernel must
//! reproduce them exactly — ties, signed zeros and accumulation order
//! included.
//!
//! On an intentional numerical change, the failure message prints the new
//! digest to commit.

mod golden_common;

use golden_common::{batches, Fnv};
use snapea_suite::nn::graph::{Aux, Graph};
use snapea_suite::nn::zoo::Workload;

/// `(workload, Graph::forward digest, Graph::forward_train digest)`, each
/// over the n = 1 and n = 3 batches.
const GOLDEN: [(Workload, u64, u64); 4] = [
    (
        Workload::AlexNet,
        0x510d_f79b_ca64_71a7,
        0x5ba0_d67f_25d6_00c0,
    ),
    (
        Workload::GoogLeNet,
        0x60e5_c956_2812_c122,
        0x0324_e39d_25b5_c31d,
    ),
    (
        Workload::SqueezeNet,
        0x39d5_5167_3f9a_7c56,
        0x9ea6_b934_7043_bdb4,
    ),
    (
        Workload::VggNet,
        0x791c_3876_8256_13c5,
        0xf152_34b6_7b20_d8af,
    ),
];

fn forward_digest(net: &Graph) -> u64 {
    let mut h = Fnv::new();
    for x in batches() {
        for a in net.forward(&x) {
            h.tensor(&a);
        }
    }
    h.0
}

fn train_digest(net: &Graph) -> u64 {
    let mut h = Fnv::new();
    for x in batches() {
        let (acts, aux) = net.forward_train(&x);
        for (a, aux) in acts.iter().zip(&aux) {
            h.tensor(a);
            match aux {
                Aux::None => h.bytes(&[0]),
                Aux::MaxPool(arg) => {
                    h.bytes(&[1]);
                    for i in arg {
                        h.bytes(&i.to_le_bytes());
                    }
                }
            }
        }
    }
    h.0
}

#[test]
fn forward_activations_match_golden_digests() {
    for (w, want, _) in GOLDEN {
        let got = forward_digest(&w.build(10));
        assert_eq!(got, want, "{}: forward digest {got:#018x}", w.name());
    }
}

#[test]
fn training_forward_matches_golden_digests() {
    for (w, _, want) in GOLDEN {
        let got = train_digest(&w.build(10));
        assert_eq!(got, want, "{}: forward_train digest {got:#018x}", w.name());
    }
}
