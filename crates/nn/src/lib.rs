//! CNN substrate for the SnaPEA reproduction.
//!
//! The SnaPEA paper evaluates on Caffe-hosted, ImageNet-pretrained CNNs.
//! Neither Caffe nor pretrained ImageNet models exist in the offline Rust
//! ecosystem, so this crate rebuilds the substrate from scratch:
//!
//! * [`ops`] — convolution, ReLU, pooling, fully-connected, concatenation,
//!   local-response-norm layers, each with forward **and** backward passes;
//! * [`graph`] — a DAG network executor (branching is required by
//!   GoogLeNet's Inception and SqueezeNet's Fire modules);
//! * [`train`] — SGD-with-momentum training against softmax cross-entropy;
//! * [`data`] — SynthShapes, a deterministic procedural image-classification
//!   dataset standing in for ImageNet (see DESIGN.md §1 for the substitution
//!   argument);
//! * [`zoo`] — mini variants of the paper's four workloads (AlexNet,
//!   GoogLeNet, SqueezeNet, VGGNet) with the same conv/FC layer counts as
//!   Table I of the paper;
//! * [`stats`] — the activation statistics behind the paper's Figures 1 and 2.
//!
//! # Examples
//!
//! ```
//! use snapea_nn::{data::SynthShapes, zoo};
//!
//! let net = zoo::mini_alexnet(4);
//! let data = SynthShapes::new(zoo::INPUT_SIZE, 4).generate(8, 42);
//! let batch = SynthShapes::batch(&data[..4]);
//! let acts = net.forward(&batch);
//! assert_eq!(acts.last().unwrap().shape().c, 4); // 4 class logits
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod graph;
pub mod loss;
pub mod ops;
pub mod stats;
pub mod train;
pub mod zoo;

pub use graph::{Graph, GraphBuilder, Node, NodeId, Op};
