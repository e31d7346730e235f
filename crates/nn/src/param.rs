//! Learnable parameters.

use hpnn_tensor::{Shape, Tensor};

/// A learnable parameter: a value tensor plus its accumulated gradient.
///
/// Layers own their `Param`s; the optimizer visits them through
/// [`Layer::visit_params`](crate::Layer::visit_params).
///
/// # Examples
///
/// ```
/// use hpnn_nn::Param;
/// use hpnn_tensor::Tensor;
///
/// let mut p = Param::new(Tensor::ones([2, 2]));
/// p.grad.fill(0.5);
/// p.value.add_scaled(&p.grad, -1.0); // one SGD step at lr=1
/// assert_eq!(p.value.data(), &[0.5; 4]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass.
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param { value, grad }
    }

    /// Creates a zero-initialized parameter.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        Param::new(Tensor::zeros(shape))
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` if the parameter holds no scalars.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_zeroes_grad() {
        let p = Param::new(Tensor::ones([3]));
        assert_eq!(p.grad.data(), &[0., 0., 0.]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Param::zeros([2]);
        p.grad.fill(7.0);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0., 0.]);
    }
}
