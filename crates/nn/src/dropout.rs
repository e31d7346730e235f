//! Inverted dropout layer.

use hpnn_tensor::{Rng, Tensor};

use crate::layer::Layer;

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1−p)`; at inference the
/// layer is the identity.
///
/// The layer owns a deterministic RNG seeded at construction, so training
/// runs remain reproducible.
///
/// # Examples
///
/// ```
/// use hpnn_nn::{Dropout, Layer};
/// use hpnn_tensor::Tensor;
///
/// let mut drop = Dropout::new(0.5, 4, 42);
/// let x = Tensor::ones([2, 4]);
/// // Inference: identity.
/// assert_eq!(drop.forward(&x, false), x);
/// ```
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    features: usize,
    rng: Rng,
    cached_mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer over `features` activations.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, features: usize, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1), got {p}"
        );
        Dropout {
            p,
            features,
            rng: Rng::new(seed),
            cached_mask: None,
        }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn infer(&self, input: &Tensor, _lock: Option<&[f32]>) -> Tensor {
        assert_eq!(
            input.shape().cols(),
            self.features,
            "dropout features {} != {}",
            input.shape().cols(),
            self.features
        );
        input.clone()
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            self.cached_mask = None;
            return self.infer(input, None);
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut mask = Tensor::zeros(input.shape().clone());
        for v in mask.data_mut() {
            *v = if self.rng.chance(keep) { scale } else { 0.0 };
        }
        let out = input.mul(&mask);
        self.cached_mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self.cached_mask.take() {
            Some(mask) => grad_out.mul(&mask),
            // p == 0 or eval-mode forward: identity.
            None => grad_out.clone(),
        }
    }

    fn out_features(&self, in_features: usize) -> usize {
        assert_eq!(in_features, self.features, "dropout wiring mismatch");
        self.features
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let mut drop = Dropout::new(0.8, 3, 1);
        let x = Tensor::from_slice(&[1., 2., 3.])
            .reshape([1usize, 3])
            .unwrap();
        assert_eq!(drop.forward(&x, false), x);
    }

    #[test]
    fn zero_probability_is_identity_even_in_training() {
        let mut drop = Dropout::new(0.0, 3, 1);
        let x = Tensor::ones([2, 3]);
        assert_eq!(drop.forward(&x, true), x);
    }

    #[test]
    fn training_preserves_expectation() {
        let mut drop = Dropout::new(0.5, 1000, 7);
        let x = Tensor::ones([1, 1000]);
        let y = drop.forward(&x, true);
        // Mean should stay ≈ 1 thanks to the 1/(1-p) scaling.
        assert!((y.mean() - 1.0).abs() < 0.1, "mean {}", y.mean());
        // Roughly half the entries are zero.
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        assert!((400..600).contains(&zeros), "{zeros} zeros");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut drop = Dropout::new(0.5, 100, 3);
        let x = Tensor::ones([1, 100]);
        let y = drop.forward(&x, true);
        let g = drop.backward(&Tensor::ones([1, 100]));
        // Gradient flows exactly where activations survived.
        for (yv, gv) in y.data().iter().zip(g.data()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_p_one() {
        let _ = Dropout::new(1.0, 4, 0);
    }
}
