//! Workload descriptions consumed by the simulator.
//!
//! A [`LayerWorkload`] couples the per-window op counts produced by the
//! `snapea` executor with the data-movement footprint of the layer (input,
//! weight and output word counts). [`network_workload`] builds the full
//! description straight from a network, a batch, and a
//! [`snapea::spec_net::NetworkProfile`].

use snapea::exec::LayerProfile;
use snapea::spec_net::NetworkProfile;
use snapea_nn::graph::Graph;
use snapea_tensor::{Shape4, Tensor4};

/// One convolution layer's workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWorkload {
    /// Layer name (for reports).
    pub name: String,
    /// Per-window op counts (and geometry).
    pub profile: LayerProfile,
    /// Input words per image (`c_in × h × w`).
    pub input_words: u64,
    /// Output words per image (`kernels × windows`).
    pub output_words: u64,
    /// Weight words (`kernels × window_len`).
    pub weight_words: u64,
    /// Output spatial extent `(out_h, out_w)`; `(windows, 1)` when the
    /// spatial layout is unknown. Lets the simulator hand lanes spatially
    /// adjacent 2×2 window tiles.
    pub spatial: (usize, usize),
}

impl LayerWorkload {
    /// Builds a workload from a profile plus the input footprint.
    pub fn new(name: impl Into<String>, profile: LayerProfile, input_words: u64) -> Self {
        let output_words = (profile.kernels() * profile.windows()) as u64;
        let weight_words = (profile.kernels() * profile.window_len()) as u64;
        let spatial = (profile.windows(), 1);
        Self {
            name: name.into(),
            profile,
            input_words,
            output_words,
            weight_words,
            spatial,
        }
    }

    /// Sets the output spatial extent (must multiply to the window count).
    ///
    /// # Panics
    ///
    /// Panics if `h * w != profile.windows()`.
    pub fn with_spatial(mut self, h: usize, w: usize) -> Self {
        assert_eq!(h * w, self.profile.windows(), "spatial extent");
        self.spatial = (h, w);
        self
    }

    /// The same workload with dense (full-window) op counts — what the
    /// baseline accelerator executes.
    pub fn to_dense(&self) -> Self {
        Self {
            name: self.name.clone(),
            profile: self.profile.to_dense(),
            input_words: self.input_words,
            output_words: self.output_words,
            weight_words: self.weight_words,
            spatial: self.spatial,
        }
    }
}

/// A whole network's workload, in layer order.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkWorkload {
    /// Network name.
    pub name: String,
    /// Conv layers in topological order.
    pub layers: Vec<LayerWorkload>,
}

impl NetworkWorkload {
    /// Dense variant of every layer (the baseline's workload).
    pub fn to_dense(&self) -> Self {
        Self {
            name: self.name.clone(),
            layers: self.layers.iter().map(LayerWorkload::to_dense).collect(),
        }
    }

    /// Total executed MACs.
    pub fn total_ops(&self) -> u64 {
        self.layers.iter().map(|l| l.profile.total_ops()).sum()
    }

    /// Total dense MACs.
    pub fn full_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.profile.full_macs()).sum()
    }
}

/// Builds the network workload for `net` under the op counts of `profile`,
/// using `batch`'s image shape to recover each conv layer's input footprint
/// and output extent.
///
/// # Panics
///
/// Panics if `profile` does not match `net`'s conv layers.
pub fn network_workload(
    name: impl Into<String>,
    net: &Graph,
    batch: &Tensor4,
    profile: &NetworkProfile,
) -> NetworkWorkload {
    // Shape inference: an empty-batch forward gives every node the
    // `(c, h, w)` a forward over `batch` would, without computing any
    // activation.
    let s = batch.shape();
    let acts = net.forward(&Tensor4::zeros(Shape4::new(0, s.c, s.h, s.w)));
    let layers = profile
        .layers
        .iter()
        .map(|(id, lname, p)| {
            let input_id = net.node(*id).inputs[0];
            let input_words = acts[input_id].shape().item_len() as u64;
            let out = acts[*id].shape();
            LayerWorkload::new(lname.clone(), p.clone(), input_words).with_spatial(out.h, out.w)
        })
        .collect();
    NetworkWorkload {
        name: name.into(),
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapea::params::NetworkParams;
    use snapea::spec_net::profile_network;
    use snapea_nn::data::SynthShapes;
    use snapea_nn::zoo;

    #[test]
    fn workload_footprints_are_consistent() {
        let net = zoo::mini_alexnet(4);
        let data = SynthShapes::new(zoo::INPUT_SIZE, 4).generate(2, 5);
        let batch = SynthShapes::batch(&data);
        let prof = profile_network(&net, &NetworkParams::new(), &batch, false);
        let w = network_workload("alex", &net, &batch, &prof);
        assert_eq!(w.layers.len(), net.conv_ids().len());
        // First conv consumes the full input image.
        assert_eq!(
            w.layers[0].input_words,
            (3 * zoo::INPUT_SIZE * zoo::INPUT_SIZE) as u64
        );
        for l in &w.layers {
            assert_eq!(
                l.output_words,
                (l.profile.kernels() * l.profile.windows()) as u64
            );
            assert!(l.profile.total_ops() <= l.profile.full_macs());
        }
        // Dense variant restores full MACs.
        let dense = w.to_dense();
        assert_eq!(dense.total_ops(), w.full_macs());
        assert!(w.total_ops() < w.full_macs());
    }

    #[test]
    fn footprints_match_those_of_a_full_forward() {
        for net in [zoo::mini_alexnet(10), zoo::mini_googlenet(10)] {
            let data = SynthShapes::new(zoo::INPUT_SIZE, 10).generate(3, 7);
            let batch = SynthShapes::batch(&data);
            let prof = profile_network(&net, &NetworkParams::new(), &batch, false);
            let acts = net.forward(&batch);
            let layers = prof
                .layers
                .iter()
                .map(|(id, lname, p)| {
                    let input_words = acts[net.node(*id).inputs[0]].shape().item_len() as u64;
                    let out = acts[*id].shape();
                    LayerWorkload::new(lname.clone(), p.clone(), input_words)
                        .with_spatial(out.h, out.w)
                })
                .collect();
            let want = NetworkWorkload {
                name: "net".to_string(),
                layers,
            };
            assert_eq!(network_workload("net", &net, &batch, &prof), want);
        }
    }
}
