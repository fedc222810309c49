//! Fully-connected (linear) layer.

use snapea_tensor::{init, Shape2, Shape4, Tensor2, Tensor4};

/// A fully-connected layer `y = W x + b` with weight shape `[out, in]`.
///
/// In the graph executor, activations flow as [`Tensor4`]; a linear layer
/// consumes `[n, features, 1, 1]` tensors (a `Flatten` node reshapes conv
/// activations first) and produces `[n, out, 1, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    weight: Tensor2,
    bias: Vec<f32>,
}

impl Linear {
    /// Creates a linear layer with He-initialized weights and zero bias.
    pub fn new(c_in: usize, c_out: usize, rng: &mut rand::rngs::StdRng) -> Self {
        Self {
            weight: init::he_fc(Shape2::new(c_out, c_in), rng),
            bias: vec![0.0; c_out],
        }
    }

    /// Creates a linear layer from explicit weights and bias.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.shape().rows`.
    pub fn from_parts(weight: Tensor2, bias: Vec<f32>) -> Self {
        assert_eq!(bias.len(), weight.shape().rows, "bias per output feature");
        Self { weight, bias }
    }

    /// The `[out, in]` weight matrix.
    pub fn weight(&self) -> &Tensor2 {
        &self.weight
    }

    /// Mutable access to the weight matrix.
    pub fn weight_mut(&mut self) -> &mut Tensor2 {
        &mut self.weight
    }

    /// Per-output bias.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable access to the bias.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Input feature count.
    pub fn c_in(&self) -> usize {
        self.weight.shape().cols
    }

    /// Output feature count.
    pub fn c_out(&self) -> usize {
        self.weight.shape().rows
    }

    /// Forward pass over a `[n, c_in, 1, 1]` activation.
    ///
    /// # Panics
    ///
    /// Panics if the input feature count disagrees.
    pub fn forward(&self, input: &Tensor4) -> Tensor4 {
        let s = input.shape();
        assert_eq!(s.item_len(), self.c_in(), "linear input features");
        let x = input.to_matrix(); // [n, c_in]
                                   // lint:allow(P1) the input feature count is asserted against c_in above
        let y = x.matmul_t(&self.weight).expect("shapes agree"); // [n, c_out]
        let mut out = Tensor4::zeros(Shape4::new(s.n, self.c_out(), 1, 1));
        for n in 0..s.n {
            let row = y.row(n);
            let dst = out.item_mut(n);
            for (d, (&v, &b)) in dst.iter_mut().zip(row.iter().zip(self.bias.iter())) {
                *d = v + b;
            }
        }
        out
    }

    /// Backward pass: returns `(grad_input, grad_weight, grad_bias)`.
    pub fn backward(&self, input: &Tensor4, grad_out: &Tensor4) -> (Tensor4, Tensor2, Vec<f32>) {
        let s = input.shape();
        let x = input.to_matrix(); // [n, c_in]
        let go = grad_out.to_matrix(); // [n, c_out]
                                       // dW = goᵀ × x  → [c_out, c_in]
                                       // lint:allow(P1) go and x share the batch dimension of the same forward pass
        let gw = go.t_matmul(&x).expect("shapes agree");
        // db = column sums of go
        let mut gb = vec![0.0f32; self.c_out()];
        for n in 0..s.n {
            for (g, &v) in gb.iter_mut().zip(go.row(n)) {
                *g += v;
            }
        }
        // dX = go × W → [n, c_in]
        // lint:allow(P1) go has c_out columns, matching the weight matrix's row count
        let gx = go.matmul(&self.weight).expect("shapes agree");
        // lint:allow(P1) gx is [n, c_in], exactly the input shape's element count
        let grad_in = Tensor4::from_vec(s, gx.into_vec()).expect("element count preserved");
        (grad_in, gw, gb)
    }

    /// Reinterprets the layer as a 1×1 convolution over a `[n, c_in, 1, 1]`
    /// activation — how the SnaPEA hardware executes fully-connected layers
    /// on the same PEs it uses for convolutions (paper §V: "To perform the
    /// computations of the fully-connected layers, the same hardware unit
    /// designed for the convolution layers is employed").
    pub fn to_conv(&self) -> crate::ops::Conv2d {
        let shape = snapea_tensor::Shape4::new(self.c_out(), self.c_in(), 1, 1);
        let weight = snapea_tensor::Tensor4::from_vec(shape, self.weight.as_slice().to_vec())
            // lint:allow(P1) c_out × c_in × 1 × 1 is exactly the weight matrix's element count
            .expect("weight layout is contiguous");
        crate::ops::Conv2d::from_parts(
            weight,
            self.bias.clone(),
            snapea_tensor::im2col::ConvGeom::square(1, 1, 0),
        )
    }

    /// Applies a gradient step (used by the trainer through velocity buffers).
    pub fn apply_step(&mut self, gw: &Tensor2, gb: &[f32], lr: f32) {
        for (w, g) in self.weight.as_mut_slice().iter_mut().zip(gw.iter()) {
            *w -= lr * g;
        }
        for (b, g) in self.bias.iter_mut().zip(gb.iter()) {
            *b -= lr * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapea_tensor::init::rng;

    #[test]
    fn forward_is_affine() {
        let mut l = Linear::new(3, 2, &mut rng(0));
        *l.weight_mut() =
            Tensor2::from_vec(Shape2::new(2, 3), vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]).unwrap();
        l.bias_mut().copy_from_slice(&[1.0, -1.0]);
        let x = Tensor4::from_vec(Shape4::new(1, 3, 1, 1), vec![2.0, 4.0, 6.0]).unwrap();
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[2.0 - 6.0 + 1.0, 6.0 - 1.0]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut r = rng(7);
        let l = Linear::new(4, 3, &mut r);
        let x = init::uniform4(Shape4::new(2, 4, 1, 1), 1.0, &mut r);
        let go = Tensor4::full(Shape4::new(2, 3, 1, 1), 1.0);
        let (gi, gw, gb) = l.backward(&x, &go);
        let eps = 1e-3;
        for &(n, c) in &[(0usize, 0usize), (1, 3), (0, 2)] {
            let mut xp = x.clone();
            xp[(n, c, 0, 0)] += eps;
            let mut xm = x.clone();
            xm[(n, c, 0, 0)] -= eps;
            let num = (l.forward(&xp).sum() - l.forward(&xm).sum()) / (2.0 * eps);
            assert!((num - gi[(n, c, 0, 0)]).abs() < 1e-2);
        }
        for &(o, i) in &[(0usize, 0usize), (2, 3)] {
            let mut lp = l.clone();
            lp.weight_mut()[(o, i)] += eps;
            let mut lm = l.clone();
            lm.weight_mut()[(o, i)] -= eps;
            let num = (lp.forward(&x).sum() - lm.forward(&x).sum()) / (2.0 * eps);
            assert!((num - gw[(o, i)]).abs() < 1e-2);
        }
        for &g in &gb {
            assert!((g - 2.0).abs() < 1e-4); // two batch items, grad_out = 1
        }
    }

    #[test]
    fn accepts_flattened_spatial_input() {
        let l = Linear::new(8, 2, &mut rng(1));
        let x = Tensor4::full(Shape4::new(1, 2, 2, 2), 0.5);
        let y = l.forward(&x);
        assert_eq!(y.shape(), Shape4::new(1, 2, 1, 1));
    }

    #[test]
    fn to_conv_computes_the_same_function() {
        let mut r = rng(5);
        let l = Linear::new(6, 4, &mut r);
        let conv = l.to_conv();
        let x = init::uniform4(Shape4::new(3, 6, 1, 1), 1.0, &mut r);
        let via_fc = l.forward(&x);
        let via_conv = conv.forward(&x);
        assert_eq!(via_conv.shape(), via_fc.shape());
        for (a, b) in via_conv.iter().zip(via_fc.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
        assert_eq!(conv.window_len(), 6);
    }
}
