//! DAG network executor.
//!
//! Networks are directed acyclic graphs of [`Node`]s in topological order
//! (guaranteed by construction through [`GraphBuilder`]). Branching is
//! required by GoogLeNet's Inception modules and SqueezeNet's Fire modules;
//! plain sequential networks are the degenerate single-path case.

use crate::ops::{
    concat_channels, relu, relu_backward, split_channels, AvgPool, Conv2d, Linear, Lrn, MaxPool,
};
use snapea_tensor::{Shape4, Tensor2, Tensor4};
use std::borrow::{Borrow, Cow};

/// Identifier of a node within its [`Graph`] (its index in topological
/// order).
pub type NodeId = usize;

/// A network operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// The graph input placeholder (always node 0).
    Input,
    /// 2-D convolution.
    Conv(Conv2d),
    /// ReLU activation.
    Relu,
    /// Max pooling.
    MaxPool(MaxPool),
    /// Average pooling.
    AvgPool(AvgPool),
    /// Channel concatenation of all inputs.
    Concat,
    /// Reshape `[n,c,h,w]` → `[n, c*h*w, 1, 1]`.
    Flatten,
    /// Fully-connected layer.
    Linear(Linear),
    /// Local response normalization.
    Lrn(Lrn),
}

impl Op {
    /// Short kind name for display.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Input => "input",
            Op::Conv(_) => "conv",
            Op::Relu => "relu",
            Op::MaxPool(_) => "maxpool",
            Op::AvgPool(_) => "avgpool",
            Op::Concat => "concat",
            Op::Flatten => "flatten",
            Op::Linear(_) => "linear",
            Op::Lrn(_) => "lrn",
        }
    }
}

/// A named graph node: an operation plus the ids of its producers.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable layer name (e.g. `inception_4e/1x1`).
    pub name: String,
    /// The operation.
    pub op: Op,
    /// Producer node ids (topologically earlier).
    pub inputs: Vec<NodeId>,
}

/// Per-node auxiliary state captured during a training forward pass
/// (currently max-pool argmax maps).
#[derive(Debug, Clone)]
pub enum Aux {
    /// No auxiliary state.
    None,
    /// Argmax map of a max-pool node.
    MaxPool(Vec<u32>),
}

/// Parameter gradients of one node.
#[derive(Debug, Clone)]
pub enum ParamGrad {
    /// Convolution gradients: kernel and bias.
    Conv(Tensor4, Vec<f32>),
    /// Linear gradients: weight matrix and bias.
    Linear(Tensor2, Vec<f32>),
}

/// Hook allowing a caller to substitute its own execution of a convolution
/// node (the SnaPEA executor uses this to run reordered, early-terminating
/// convolutions). Returning `None` falls back to the built-in dense path.
pub type ConvOverride<'a> = dyn FnMut(NodeId, &Conv2d, &Tensor4) -> Option<Tensor4> + 'a;

/// A feed-forward CNN as a topologically-ordered DAG.
#[derive(Debug, Clone)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Builds a graph directly from a node list (the compiled-model artifact
    /// loader's entry point — [`GraphBuilder`] is the ergonomic front door).
    /// Validates the invariants the builder establishes by construction:
    /// a non-empty list whose first node is the input, every producer id
    /// topologically earlier than its consumer, and `Op::Input` appearing
    /// nowhere else.
    pub fn from_nodes(nodes: Vec<Node>) -> Result<Self, String> {
        let first = nodes.first().ok_or("graph must have at least one node")?;
        if !matches!(first.op, Op::Input) {
            return Err("node 0 must be the input placeholder".to_string());
        }
        for (id, node) in nodes.iter().enumerate() {
            if id > 0 && matches!(node.op, Op::Input) {
                return Err(format!("node {id} duplicates the input placeholder"));
            }
            for &i in &node.inputs {
                if i >= id {
                    return Err(format!(
                        "node {id} ({}) consumes node {i}, which is not topologically earlier",
                        node.name
                    ));
                }
            }
        }
        Ok(Self { nodes })
    }

    /// The nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A single node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Mutable access to a node (used by the trainer to apply updates).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of all convolution nodes, in topological order.
    pub fn conv_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::Conv(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Ids of all fully-connected nodes, in topological order.
    pub fn linear_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::Linear(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Consumers of node `id`.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.inputs.contains(&id))
            .map(|(i, _)| i)
            .collect()
    }

    /// True if every consumer of `id` is a ReLU node (so zeroing negative
    /// outputs of `id` cannot change the network function) — the SnaPEA
    /// applicability condition.
    pub fn feeds_only_relu(&self, id: NodeId) -> bool {
        let cons = self.consumers(id);
        !cons.is_empty() && cons.iter().all(|&c| matches!(self.nodes[c].op, Op::Relu))
    }

    /// Total number of learnable parameters.
    pub fn param_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match &n.op {
                Op::Conv(c) => c.weight().shape().len() + c.bias().len(),
                Op::Linear(l) => l.weight().shape().len() + l.bias().len(),
                _ => 0,
            })
            .sum()
    }

    /// Model size in bytes at 32-bit precision (the unit of the paper's
    /// Table I "Model Size" column).
    pub fn model_size_bytes(&self) -> usize {
        self.param_count() * 4
    }

    /// Runs the forward pass, returning every node's activation
    /// (`result[id]` is node `id`'s output; `result[0]` is the input itself).
    pub fn forward(&self, input: &Tensor4) -> Vec<Tensor4> {
        self.forward_with(input, &mut |_, _, _| None)
    }

    /// Forward pass with a convolution override hook (see [`ConvOverride`]).
    pub fn forward_with(
        &self,
        input: &Tensor4,
        conv_override: &mut ConvOverride<'_>,
    ) -> Vec<Tensor4> {
        let mut acts: Vec<Tensor4> = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter().enumerate() {
            let out = self.eval_node(id, node, input, &acts, conv_override);
            acts.push(out);
        }
        acts
    }

    /// Recomputes only the part of the graph affected by a change at node
    /// `root`, starting from cached activations of a previous full forward.
    ///
    /// `cached` must come from a forward pass over the same input. The
    /// activation of `root` itself is recomputed (through the override hook
    /// if it is a conv node), as is everything reachable from it; every
    /// other node's activation is borrowed from `cached`, never copied.
    pub fn forward_from<'c>(
        &self,
        input: &Tensor4,
        cached: &'c [Tensor4],
        root: NodeId,
        conv_override: &mut ConvOverride<'_>,
    ) -> Vec<Cow<'c, Tensor4>> {
        assert_eq!(cached.len(), self.nodes.len(), "cache length");
        let mut dirty = vec![false; self.nodes.len()];
        dirty[root] = true;
        for id in root + 1..self.nodes.len() {
            if self.nodes[id].inputs.iter().any(|&i| dirty[i]) {
                dirty[id] = true;
            }
        }
        let mut acts: Vec<Cow<'c, Tensor4>> = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter().enumerate() {
            let out = if dirty[id] {
                Cow::Owned(self.eval_node(id, node, input, &acts, conv_override))
            } else {
                Cow::Borrowed(&cached[id])
            };
            acts.push(out);
        }
        acts
    }

    fn eval_node<A: Borrow<Tensor4>>(
        &self,
        id: NodeId,
        node: &Node,
        input: &Tensor4,
        acts: &[A],
        conv_override: &mut ConvOverride<'_>,
    ) -> Tensor4 {
        let arg = |k: usize| -> &Tensor4 { acts[node.inputs[k]].borrow() };
        match &node.op {
            Op::Input => input.clone(),
            Op::Conv(c) => conv_override(id, c, arg(0)).unwrap_or_else(|| c.forward(arg(0))),
            Op::Relu => relu(arg(0)),
            Op::MaxPool(p) => p.forward(arg(0)),
            Op::AvgPool(p) => p.forward(arg(0)),
            Op::Concat => {
                let refs: Vec<&Tensor4> = node.inputs.iter().map(|&i| acts[i].borrow()).collect();
                concat_channels(&refs)
            }
            Op::Flatten => {
                let x = arg(0);
                let s = x.shape();
                Tensor4::from_vec(Shape4::new(s.n, s.item_len(), 1, 1), x.as_slice().to_vec())
                    // lint:allow(P1) n × item_len × 1 × 1 is exactly the source tensor's element count
                    .expect("element count preserved")
            }
            Op::Linear(l) => l.forward(arg(0)),
            Op::Lrn(l) => l.forward(arg(0)),
        }
    }

    /// Training forward pass: like [`Graph::forward`] but also captures the
    /// per-node auxiliary state needed by [`Graph::backward`].
    pub fn forward_train(&self, input: &Tensor4) -> (Vec<Tensor4>, Vec<Aux>) {
        let mut acts: Vec<Tensor4> = Vec::with_capacity(self.nodes.len());
        let mut aux: Vec<Aux> = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter().enumerate() {
            let (out, a) = match &node.op {
                Op::MaxPool(p) => {
                    let (o, arg_map) = p.forward_with_argmax(&acts[node.inputs[0]]);
                    (o, Aux::MaxPool(arg_map))
                }
                _ => (
                    self.eval_node(id, node, input, &acts, &mut |_, _, _| None),
                    Aux::None,
                ),
            };
            acts.push(out);
            aux.push(a);
        }
        (acts, aux)
    }

    /// Backward pass. `grad_output` is the loss gradient with respect to the
    /// final node's activation. Returns per-node parameter gradients
    /// (`None` for parameterless nodes).
    ///
    /// # Panics
    ///
    /// Panics if `acts`/`aux` do not match this graph.
    pub fn backward(
        &self,
        acts: &[Tensor4],
        aux: &[Aux],
        grad_output: &Tensor4,
    ) -> Vec<Option<ParamGrad>> {
        assert_eq!(acts.len(), self.nodes.len(), "activation cache length");
        let mut grads: Vec<Option<Tensor4>> = vec![None; self.nodes.len()];
        let mut param_grads: Vec<Option<ParamGrad>> = vec![None; self.nodes.len()];
        let last = self.nodes.len() - 1;
        grads[last] = Some(grad_output.clone());

        for id in (0..self.nodes.len()).rev() {
            let g = match grads[id].take() {
                Some(g) => g,
                None => continue, // node does not influence the loss
            };
            let node = &self.nodes[id];
            match &node.op {
                Op::Input => {}
                Op::Conv(c) => {
                    let x = &acts[node.inputs[0]];
                    let (gi, gw, gb) = c.backward(x, &g);
                    param_grads[id] = Some(ParamGrad::Conv(gw, gb));
                    accumulate(&mut grads, node.inputs[0], gi);
                }
                Op::Relu => {
                    let x = &acts[node.inputs[0]];
                    accumulate(&mut grads, node.inputs[0], relu_backward(x, &g));
                }
                Op::MaxPool(p) => {
                    let x_shape = acts[node.inputs[0]].shape();
                    let arg_map = match &aux[id] {
                        Aux::MaxPool(m) => m,
                        // lint:allow(P1) forward_train stores Aux::MaxPool for every max-pool node
                        Aux::None => panic!("missing argmax for max-pool node {id}"),
                    };
                    accumulate(&mut grads, node.inputs[0], p.backward(x_shape, arg_map, &g));
                }
                Op::AvgPool(p) => {
                    let x_shape = acts[node.inputs[0]].shape();
                    accumulate(&mut grads, node.inputs[0], p.backward(x_shape, &g));
                }
                Op::Concat => {
                    let channels: Vec<usize> =
                        node.inputs.iter().map(|&i| acts[i].shape().c).collect();
                    for (inp, gpart) in node.inputs.iter().zip(split_channels(&g, &channels)) {
                        accumulate(&mut grads, *inp, gpart);
                    }
                }
                Op::Flatten => {
                    let x_shape = acts[node.inputs[0]].shape();
                    let gi = Tensor4::from_vec(x_shape, g.as_slice().to_vec())
                        // lint:allow(P1) flatten's gradient has the input's element count by construction
                        .expect("element count preserved");
                    accumulate(&mut grads, node.inputs[0], gi);
                }
                Op::Linear(l) => {
                    let x = &acts[node.inputs[0]];
                    let (gi, gw, gb) = l.backward(x, &g);
                    param_grads[id] = Some(ParamGrad::Linear(gw, gb));
                    accumulate(&mut grads, node.inputs[0], gi);
                }
                Op::Lrn(l) => {
                    let x = &acts[node.inputs[0]];
                    accumulate(&mut grads, node.inputs[0], l.backward(x, &g));
                }
            }
        }
        param_grads
    }

    /// Convenience: forward pass returning only the final logits as a
    /// `[n, classes]` matrix.
    pub fn logits(&self, input: &Tensor4) -> Tensor2 {
        let acts = self.forward(input);
        // lint:allow(P1) forward returns one activation per node and the graph is non-empty by construction
        acts.last().expect("non-empty graph").to_matrix()
    }
}

fn accumulate(grads: &mut [Option<Tensor4>], id: NodeId, g: Tensor4) {
    match &mut grads[id] {
        // lint:allow(P1) all gradients accumulated into a node share that node's activation shape
        Some(existing) => existing.add_assign(&g).expect("gradient shapes agree"),
        slot @ None => *slot = Some(g),
    }
}

/// Incremental builder producing a topologically-ordered [`Graph`].
///
/// ```
/// use snapea_nn::GraphBuilder;
/// use snapea_tensor::{im2col::ConvGeom, init};
///
/// let mut rng = init::rng(0);
/// let mut b = GraphBuilder::new();
/// let x = b.input();
/// let c = b.conv("conv1", x, 3, 8, ConvGeom::square(3, 1, 1), &mut rng);
/// let r = b.relu("relu1", c);
/// let f = b.flatten("flat", r);
/// let _ = b.linear("fc", f, 8 * 8 * 8, 10, &mut rng);
/// let g = b.build();
/// assert_eq!(g.conv_ids(), vec![1]);
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, name: &str, op: Op, inputs: Vec<NodeId>) -> NodeId {
        for &i in &inputs {
            assert!(i < self.nodes.len(), "input {i} not yet defined");
        }
        self.nodes.push(Node {
            name: name.to_string(),
            op,
            inputs,
        });
        self.nodes.len() - 1
    }

    /// Adds the graph input node (must be called first, exactly once).
    ///
    /// # Panics
    ///
    /// Panics if called on a non-empty builder.
    pub fn input(&mut self) -> NodeId {
        assert!(self.nodes.is_empty(), "input must be the first node");
        self.push("input", Op::Input, vec![])
    }

    /// Adds a He-initialized convolution node.
    pub fn conv(
        &mut self,
        name: &str,
        from: NodeId,
        c_in: usize,
        c_out: usize,
        geom: snapea_tensor::im2col::ConvGeom,
        rng: &mut rand::rngs::StdRng,
    ) -> NodeId {
        self.push(
            name,
            Op::Conv(Conv2d::new(c_in, c_out, geom, rng)),
            vec![from],
        )
    }

    /// Adds a convolution node from an existing layer.
    pub fn conv_layer(&mut self, name: &str, from: NodeId, conv: Conv2d) -> NodeId {
        self.push(name, Op::Conv(conv), vec![from])
    }

    /// Adds a ReLU node.
    pub fn relu(&mut self, name: &str, from: NodeId) -> NodeId {
        self.push(name, Op::Relu, vec![from])
    }

    /// Adds a max-pool node.
    pub fn max_pool(&mut self, name: &str, from: NodeId, k: usize, stride: usize) -> NodeId {
        self.push(name, Op::MaxPool(MaxPool::new(k, stride)), vec![from])
    }

    /// Adds a padded max-pool node (e.g. the 3×3/s1/p1 Inception pool
    /// branch).
    pub fn max_pool_padded(
        &mut self,
        name: &str,
        from: NodeId,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> NodeId {
        self.push(
            name,
            Op::MaxPool(MaxPool::with_pad(k, stride, pad)),
            vec![from],
        )
    }

    /// Adds an average-pool node.
    pub fn avg_pool(&mut self, name: &str, from: NodeId, k: usize, stride: usize) -> NodeId {
        self.push(name, Op::AvgPool(AvgPool::new(k, stride)), vec![from])
    }

    /// Adds a channel-concatenation node.
    pub fn concat(&mut self, name: &str, from: Vec<NodeId>) -> NodeId {
        assert!(!from.is_empty(), "concat needs at least one input");
        self.push(name, Op::Concat, from)
    }

    /// Adds a flatten node.
    pub fn flatten(&mut self, name: &str, from: NodeId) -> NodeId {
        self.push(name, Op::Flatten, vec![from])
    }

    /// Adds a He-initialized fully-connected node.
    pub fn linear(
        &mut self,
        name: &str,
        from: NodeId,
        c_in: usize,
        c_out: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> NodeId {
        self.push(name, Op::Linear(Linear::new(c_in, c_out, rng)), vec![from])
    }

    /// Adds an LRN node.
    pub fn lrn(&mut self, name: &str, from: NodeId, lrn: Lrn) -> NodeId {
        self.push(name, Op::Lrn(lrn), vec![from])
    }

    /// Finishes the graph.
    ///
    /// # Panics
    ///
    /// Panics if the builder is empty.
    pub fn build(self) -> Graph {
        assert!(!self.nodes.is_empty(), "graph must have at least one node");
        Graph { nodes: self.nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapea_tensor::im2col::ConvGeom;
    use snapea_tensor::init;

    fn tiny_graph(seed: u64) -> Graph {
        let mut rng = init::rng(seed);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let c1 = b.conv("c1", x, 1, 4, ConvGeom::square(3, 1, 1), &mut rng);
        let r1 = b.relu("r1", c1);
        let p1 = b.max_pool("p1", r1, 2, 2);
        let f = b.flatten("f", p1);
        let _ = b.linear("fc", f, 4 * 2 * 2, 3, &mut rng);
        b.build()
    }

    #[test]
    fn forward_shapes_flow() {
        let g = tiny_graph(0);
        let x = Tensor4::full(Shape4::new(2, 1, 4, 4), 0.3);
        let acts = g.forward(&x);
        assert_eq!(acts.len(), 6);
        assert_eq!(acts[1].shape(), Shape4::new(2, 4, 4, 4));
        assert_eq!(acts[3].shape(), Shape4::new(2, 4, 2, 2));
        assert_eq!(acts[5].shape(), Shape4::new(2, 3, 1, 1));
        let logits = g.logits(&x);
        assert_eq!(logits.shape().rows, 2);
        assert_eq!(logits.shape().cols, 3);
    }

    #[test]
    fn conv_override_hook_is_used() {
        let g = tiny_graph(1);
        let x = Tensor4::full(Shape4::new(1, 1, 4, 4), 1.0);
        let mut called = 0;
        let acts = g.forward_with(&x, &mut |_, c, inp| {
            called += 1;
            Some(Tensor4::zeros(c.out_shape(inp.shape())))
        });
        assert_eq!(called, 1);
        assert!(acts[1].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn forward_from_recomputes_only_downstream() {
        let g = tiny_graph(2);
        let x = Tensor4::full(Shape4::new(1, 1, 4, 4), 0.5);
        let cached = g.forward(&x);
        // Override conv (node 1) with zeros and recompute from it.
        let acts = g.forward_from(&x, &cached, 1, &mut |_, c, inp| {
            Some(Tensor4::zeros(c.out_shape(inp.shape())))
        });
        assert!(acts[1].iter().all(|&v| v == 0.0));
        // Nodes upstream of the root are borrowed from the cache.
        assert!(matches!(acts[0], Cow::Borrowed(_)));
        // Final logits must equal a full forward with the same override.
        let full = g.forward_with(&x, &mut |_, c, inp| {
            Some(Tensor4::zeros(c.out_shape(inp.shape())))
        });
        assert_eq!(*acts[5], full[5]);
        // And differ from the unmodified network (with overwhelming probability).
        assert_ne!(*acts[5], cached[5]);
    }

    #[test]
    fn branching_concat_graph() {
        let mut rng = init::rng(3);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let a = b.conv("a", x, 1, 2, ConvGeom::square(1, 1, 0), &mut rng);
        let ra = b.relu("ra", a);
        let c = b.conv("b", x, 1, 3, ConvGeom::square(3, 1, 1), &mut rng);
        let rc = b.relu("rb", c);
        let cat = b.concat("cat", vec![ra, rc]);
        let g = b.build();
        let x = Tensor4::full(Shape4::new(1, 1, 4, 4), 1.0);
        let acts = g.forward(&x);
        assert_eq!(acts[cat].shape(), Shape4::new(1, 5, 4, 4));
        assert_eq!(g.conv_ids(), vec![1, 3]);
        assert!(g.feeds_only_relu(1));
        assert!(!g.feeds_only_relu(cat));
    }

    #[test]
    fn backward_produces_grads_for_all_params() {
        let g = tiny_graph(4);
        let x = Tensor4::full(Shape4::new(2, 1, 4, 4), 0.7);
        let (acts, aux) = g.forward_train(&x);
        let go = Tensor4::full(acts.last().unwrap().shape(), 1.0);
        let grads = g.backward(&acts, &aux, &go);
        assert!(matches!(grads[1], Some(ParamGrad::Conv(_, _))));
        assert!(matches!(grads[5], Some(ParamGrad::Linear(_, _))));
        assert!(grads[2].is_none());
    }

    #[test]
    fn whole_graph_gradient_matches_finite_differences() {
        let g = tiny_graph(5);
        let mut rng = init::rng(6);
        let x = init::uniform4(Shape4::new(1, 1, 4, 4), 1.0, &mut rng);
        let (acts, aux) = g.forward_train(&x);
        let go = Tensor4::full(acts.last().unwrap().shape(), 1.0);
        let grads = g.backward(&acts, &aux, &go);
        let (gw, _) = match &grads[1] {
            Some(ParamGrad::Conv(w, b)) => (w.clone(), b.clone()),
            _ => panic!("conv grad missing"),
        };
        // Perturb one conv weight, check d(sum logits)/dw numerically.
        let eps = 1e-3;
        let probe = (2usize, 0usize, 1usize, 1usize);
        let mut gp = g.clone();
        if let Op::Conv(c) = &mut gp.node_mut(1).op {
            c.weight_mut()[probe] += eps;
        }
        let mut gm = g.clone();
        if let Op::Conv(c) = &mut gm.node_mut(1).op {
            c.weight_mut()[probe] -= eps;
        }
        let num = (gp.logits(&x).sum() - gm.logits(&x).sum()) / (2.0 * eps);
        assert!(
            (num - gw[probe]).abs() < 1e-2,
            "fd {num} vs analytic {}",
            gw[probe]
        );
    }

    #[test]
    fn param_count_and_size() {
        let g = tiny_graph(7);
        // conv: 4*1*3*3 + 4 = 40; fc: 3*16 + 3 = 51
        assert_eq!(g.param_count(), 91);
        assert_eq!(g.model_size_bytes(), 364);
    }
}
