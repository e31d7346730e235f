//! Fully-connected (dense) layer.

use hpnn_tensor::{matmul_a_bt_into, matmul_at_b_into, matmul_into, simd, Rng, Shape, Tensor};

use crate::layer::{negated_units, Layer};
use crate::param::Param;

/// A fully-connected layer: `y = x·W + b`.
///
/// Weights are stored `[in_features x out_features]` so the forward pass is
/// a single `[batch x in] · [in x out]` product.
///
/// # Examples
///
/// ```
/// use hpnn_nn::{Dense, Layer};
/// use hpnn_tensor::{Rng, Tensor};
///
/// let mut rng = Rng::new(0);
/// let mut fc = Dense::new(4, 2, &mut rng);
/// let x = Tensor::randn([8, 4], 1.0, &mut rng);
/// let y = fc.forward(&x, false);
/// assert_eq!(y.shape().dims(), &[8, 2]);
/// ```
#[derive(Debug)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    /// Copy of the last training-forward input, held until backward
    /// consumes it.
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Kaiming-initialized weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        let weight = Param::new(Tensor::kaiming(
            Shape::d2(in_features, out_features),
            in_features,
            rng,
        ));
        let bias = Param::zeros([out_features]);
        Dense {
            in_features,
            out_features,
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Creates a dense layer with explicit parameters (used when loading
    /// published models).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not `[in x out]` or `bias` is not `[out]`.
    pub fn with_params(
        in_features: usize,
        out_features: usize,
        weight: Tensor,
        bias: Tensor,
    ) -> Self {
        assert_eq!(
            weight.shape().dims(),
            &[in_features, out_features],
            "dense weight shape"
        );
        assert_eq!(bias.shape().dims(), &[out_features], "dense bias shape");
        Dense {
            in_features,
            out_features,
            weight: Param::new(weight),
            bias: Param::new(bias),
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Immutable access to the weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Immutable access to the bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// The one body behind [`Layer::backward`] and
    /// [`Layer::backward_params`]: accumulates `dW` and `db`, and with
    /// `input_grad` also returns the input gradient.
    fn backprop(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        let input = self
            .cached_input
            .take()
            .expect("dense backward without training forward");
        // dW += xᵀ · g, accumulated straight into the parameter gradient
        // (the kernel adds, so no intermediate dW tensor is needed).
        matmul_at_b_into(&input, grad_out, self.weight.grad.data_mut());
        // db += column sums of g (vectorized accumulate; a += b performs
        // the same additions as the old a += 1.0·b).
        simd::add_assign(self.bias.grad.data_mut(), grad_out.sum_rows().data());
        // dx = g · Wᵀ.
        input_grad.then(|| {
            let batch = grad_out.shape().rows();
            let mut dx = vec![0.0; batch * self.in_features];
            matmul_a_bt_into(grad_out, &self.weight.value, &mut dx);
            Tensor::from_vec(Shape::d2(batch, self.in_features), dx).expect("dense grad_in volume")
        })
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn infer(&self, input: &Tensor, _lock: Option<&[f32]>) -> Tensor {
        assert_eq!(
            input.shape().cols(),
            self.in_features,
            "dense input features {} != {}",
            input.shape().cols(),
            self.in_features
        );
        let batch = input.shape().rows();
        let mut out = vec![0.0; batch * self.out_features];
        matmul_into(input, &self.weight.value, &mut out);
        let mut out = Tensor::from_vec(Shape::d2(batch, self.out_features), out)
            .expect("dense output volume");
        out.add_row_bias(&self.bias.value);
        out
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let out = self.infer(input, None);
        self.cached_input = train.then(|| input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backprop(grad_out, true)
            .expect("input gradient requested")
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backprop(grad_out, false);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn out_features(&self, in_features: usize) -> usize {
        assert_eq!(in_features, self.in_features, "dense wiring mismatch");
        self.out_features
    }

    fn negate_units(&mut self, factors: &[f32]) {
        let out = self.out_features;
        for j in negated_units(factors, out, 1) {
            // Column j of the row-major `[in x out]` weight, and bias j.
            for w in self.weight.value.data_mut()[j..].iter_mut().step_by(out) {
                *w = -*w;
            }
            self.bias.value.data_mut()[j] = -self.bias.value.data()[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let w = Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3., 4.]).unwrap();
        let b = Tensor::from_slice(&[10., 20.]);
        let mut fc = Dense::with_params(2, 2, w, b);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![1., 1.]).unwrap();
        let y = fc.forward(&x, false);
        assert_eq!(y.data(), &[14., 26.]);
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let mut rng = Rng::new(3);
        let mut fc = Dense::new(3, 2, &mut rng);
        let x = Tensor::randn([4, 3], 1.0, &mut rng);

        // Loss = sum(y); grad_out = ones.
        let y = fc.forward(&x, true);
        let base: f32 = y.sum();
        let grad_out = Tensor::ones([4, 2]);
        let dx = fc.backward(&grad_out);

        // Finite differences on the input.
        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = fc.forward(&xp, false).sum();
            let fd = (yp - base) / eps;
            assert!(
                (fd - dx.data()[i]).abs() < 1e-2,
                "dx[{i}]: fd {fd} vs {}",
                dx.data()[i]
            );
        }

        // Finite differences on the weights.
        let analytic_dw = fc.weight.grad.clone();
        for i in 0..analytic_dw.len() {
            let orig = fc.weight.value.data()[i];
            fc.weight.value.data_mut()[i] = orig + eps;
            let yp = fc.forward(&x, false).sum();
            fc.weight.value.data_mut()[i] = orig;
            let fd = (yp - base) / eps;
            assert!(
                (fd - analytic_dw.data()[i]).abs() < 1e-2,
                "dw[{i}]: fd {fd} vs {}",
                analytic_dw.data()[i]
            );
        }
    }

    #[test]
    fn bias_grad_is_batch_sum() {
        let mut rng = Rng::new(4);
        let mut fc = Dense::new(2, 3, &mut rng);
        let x = Tensor::randn([5, 2], 1.0, &mut rng);
        fc.forward(&x, true);
        let g = Tensor::ones([5, 3]);
        fc.backward(&g);
        assert_eq!(fc.bias.grad.data(), &[5., 5., 5.]);
    }

    #[test]
    fn param_count() {
        let mut rng = Rng::new(5);
        let mut fc = Dense::new(10, 4, &mut rng);
        assert_eq!(fc.param_count(), 44);
    }

    #[test]
    #[should_panic(expected = "without training forward")]
    fn backward_without_forward_panics() {
        let mut rng = Rng::new(6);
        let mut fc = Dense::new(2, 2, &mut rng);
        let _ = fc.backward(&Tensor::ones([1, 2]));
    }

    #[test]
    #[should_panic(expected = "without training forward")]
    fn backward_params_without_forward_panics() {
        let mut rng = Rng::new(6);
        let mut fc = Dense::new(2, 2, &mut rng);
        fc.backward_params(&Tensor::ones([1, 2]));
    }

    #[test]
    fn eval_forward_does_not_cache() {
        let mut rng = Rng::new(7);
        let mut fc = Dense::new(2, 2, &mut rng);
        fc.forward(&Tensor::ones([1, 2]), false);
        assert!(fc.cached_input.is_none());
    }
}
