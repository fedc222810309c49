//! Speculation parameters `(Th, N)` — the paper's Section IV-A.

use snapea_nn::graph::NodeId;
use std::collections::BTreeMap;

/// Speculation parameters of one kernel: a threshold `Th` and the number of
/// weight groups `N` whose representatives form the speculative set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelParams {
    /// Threshold the partial sum is compared against after the speculative
    /// MACs.
    pub threshold: f32,
    /// Number of groups the ascending-sorted weights are partitioned into;
    /// one largest-magnitude representative per group forms the speculative
    /// set, so this is also the number of speculative MAC operations.
    pub groups: usize,
}

impl KernelParams {
    /// Creates kernel parameters.
    pub fn new(threshold: f32, groups: usize) -> Self {
        Self { threshold, groups }
    }
}

/// Operating mode of a single kernel (output channel). The paper's kernel
/// profiling includes the exact mode as a per-kernel fallback candidate, so a
/// predictive layer may mix speculating and exact kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelMode {
    /// Sign-based reordering + sign-bit monitoring only.
    Exact,
    /// `(Th, N)` speculation.
    Speculate(KernelParams),
}

impl KernelMode {
    /// Convenience constructor for a speculating kernel.
    pub fn spec(threshold: f32, groups: usize) -> Self {
        KernelMode::Speculate(KernelParams::new(threshold, groups))
    }

    /// Whether the kernel speculates.
    pub fn is_speculative(&self) -> bool {
        matches!(self, KernelMode::Speculate(_))
    }
}

/// Operating mode of one convolution layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerParams {
    /// Exact mode for every kernel. No accuracy impact.
    Exact,
    /// Per-kernel modes; `kernels[k]` is the mode of output channel `k`.
    Predictive(Vec<KernelMode>),
}

impl LayerParams {
    /// Whether any kernel of the layer speculates.
    pub fn is_predictive(&self) -> bool {
        match self {
            LayerParams::Exact => false,
            LayerParams::Predictive(ks) => ks.iter().any(KernelMode::is_speculative),
        }
    }

    /// Uniform predictive parameters for a layer of `kernels` kernels.
    pub fn uniform(kernels: usize, params: KernelParams) -> Self {
        LayerParams::Predictive(vec![KernelMode::Speculate(params); kernels])
    }
}

/// Speculation parameters for an entire network: one [`LayerParams`] per
/// convolution node. Layers not present run in exact mode by default when
/// executed through [`crate::spec_net::SpecNet`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkParams {
    layers: BTreeMap<NodeId, LayerParams>,
}

impl NetworkParams {
    /// Creates an empty parameter set (every layer exact by default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the parameters of one conv layer.
    pub fn set(&mut self, layer: NodeId, params: LayerParams) {
        self.layers.insert(layer, params);
    }

    /// The parameters of one conv layer, if set.
    pub fn get(&self, layer: NodeId) -> Option<&LayerParams> {
        self.layers.get(&layer)
    }

    /// Iterates `(layer, params)` pairs in layer order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &LayerParams)> {
        self.layers.iter().map(|(k, v)| (*k, v))
    }

    /// Number of layers with explicit parameters.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether no layer has explicit parameters.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Number of layers currently in predictive mode.
    pub fn predictive_layer_count(&self) -> usize {
        self.layers.values().filter(|p| p.is_predictive()).count()
    }

    /// Ids of layers currently in predictive mode.
    pub fn predictive_layers(&self) -> Vec<NodeId> {
        self.layers
            .iter()
            .filter(|(_, p)| p.is_predictive())
            .map(|(id, _)| *id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_params_bookkeeping() {
        let mut p = NetworkParams::new();
        assert!(p.is_empty());
        p.set(3, LayerParams::Exact);
        p.set(7, LayerParams::uniform(4, KernelParams::new(-0.5, 2)));
        assert_eq!(p.len(), 2);
        assert_eq!(p.predictive_layer_count(), 1);
        assert_eq!(p.predictive_layers(), vec![7]);
        assert!(p.get(3).is_some());
        assert!(p.get(4).is_none());
        match p.get(7) {
            Some(LayerParams::Predictive(ks)) => {
                assert_eq!(ks.len(), 4);
                assert!(ks[0].is_speculative());
                match ks[0] {
                    KernelMode::Speculate(kp) => assert_eq!(kp.groups, 2),
                    KernelMode::Exact => panic!("expected speculation"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn all_exact_kernels_is_not_predictive() {
        let p = LayerParams::Predictive(vec![KernelMode::Exact; 3]);
        assert!(!p.is_predictive());
        let q = LayerParams::Predictive(vec![
            KernelMode::Exact,
            KernelMode::spec(0.0, 1),
            KernelMode::Exact,
        ]);
        assert!(q.is_predictive());
        assert!(!LayerParams::Exact.is_predictive());
    }
}
