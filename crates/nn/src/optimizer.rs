//! Stochastic gradient descent with momentum and weight decay.

use hpnn_tensor::Tensor;

use crate::network::Network;

/// SGD optimizer with classical momentum and (decoupled) L2 weight decay.
///
/// Velocity buffers are lazily allocated on the first step and keyed by the
/// network's stable parameter visitation order.
///
/// # Examples
///
/// ```
/// use hpnn_nn::{ActKind, Dense, Network, Sgd};
/// use hpnn_tensor::Rng;
///
/// let mut rng = Rng::new(0);
/// let mut net = Network::new(2);
/// net.push(Box::new(Dense::new(2, 2, &mut rng)));
/// let mut opt = Sgd::new(0.1).momentum(0.9);
/// // ... after a backward pass:
/// opt.step(&mut net);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate `η` of the delta rule (Eq. 3).
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum_coeff: f32,
    /// L2 weight-decay coefficient (0 disables decay).
    pub weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(
            lr.is_finite() && lr > 0.0,
            "learning rate must be positive, got {lr}"
        );
        Sgd {
            lr,
            momentum_coeff: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Builder: sets the momentum coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `[0, 1)`.
    pub fn momentum(mut self, m: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&m),
            "momentum must be in [0,1), got {m}"
        );
        self.momentum_coeff = m;
        self
    }

    /// Builder: sets the L2 weight-decay coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `wd` is negative.
    pub fn weight_decay(mut self, wd: f32) -> Self {
        assert!(wd >= 0.0, "weight decay must be non-negative, got {wd}");
        self.weight_decay = wd;
        self
    }

    /// Applies one update `w ← w − η·v` where
    /// `v ← m·v + (grad + wd·w)`, then clears all gradients.
    ///
    /// # Panics
    ///
    /// Panics if the network's parameter structure changed between steps.
    pub fn step(&mut self, net: &mut Network) {
        let lr = self.lr;
        let momentum = self.momentum_coeff;
        let wd = self.weight_decay;
        let velocity = &mut self.velocity;
        let mut idx = 0usize;
        net.visit_params(&mut |p| {
            if velocity.len() == idx {
                velocity.push(Tensor::zeros(p.value.shape().clone()));
            }
            let v = &mut velocity[idx];
            assert_eq!(
                v.shape(),
                p.value.shape(),
                "parameter structure changed between optimizer steps"
            );
            if momentum > 0.0 {
                v.scale_inplace(momentum);
                v.add_scaled(&p.grad, 1.0);
                if wd > 0.0 {
                    v.add_scaled(&p.value, wd);
                }
                p.value.add_scaled(v, -lr);
            } else {
                p.value.add_scaled(&p.grad, -lr);
                if wd > 0.0 {
                    let decay = p.value.scale(wd);
                    p.value.add_scaled(&decay, -lr);
                }
            }
            p.zero_grad();
            idx += 1;
        });
    }

    /// Discards momentum state (e.g. when reusing the optimizer for a new
    /// training phase).
    pub fn reset(&mut self) {
        self.velocity.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::network::Network;
    use hpnn_tensor::Rng;

    fn one_param_net(rng: &mut Rng) -> Network {
        let mut net = Network::new(1);
        net.push(Box::new(Dense::new(1, 1, rng)));
        net
    }

    #[test]
    fn plain_sgd_step() {
        let mut rng = Rng::new(1);
        let mut net = one_param_net(&mut rng);
        let before: Vec<f32> = {
            let mut v = Vec::new();
            net.visit_params(&mut |p| v.extend_from_slice(p.value.data()));
            v
        };
        net.visit_params(&mut |p| p.grad.fill(1.0));
        let mut opt = Sgd::new(0.5);
        opt.step(&mut net);
        let mut after = Vec::new();
        net.visit_params(&mut |p| after.extend_from_slice(p.value.data()));
        for (b, a) in before.iter().zip(&after) {
            assert!((a - (b - 0.5)).abs() < 1e-6);
        }
    }

    #[test]
    fn step_clears_gradients() {
        let mut rng = Rng::new(2);
        let mut net = one_param_net(&mut rng);
        net.visit_params(&mut |p| p.grad.fill(3.0));
        Sgd::new(0.1).step(&mut net);
        net.visit_params(&mut |p| assert_eq!(p.grad.sum(), 0.0));
    }

    #[test]
    fn momentum_accumulates() {
        let mut rng = Rng::new(3);
        let mut net = one_param_net(&mut rng);
        let mut opt = Sgd::new(1.0).momentum(0.5);
        // Two steps with unit gradient: Δ1 = 1, Δ2 = 0.5·1 + 1 = 1.5.
        let mut start = Vec::new();
        net.visit_params(&mut |p| start.extend_from_slice(p.value.data()));
        net.visit_params(&mut |p| p.grad.fill(1.0));
        opt.step(&mut net);
        net.visit_params(&mut |p| p.grad.fill(1.0));
        opt.step(&mut net);
        let mut end = Vec::new();
        net.visit_params(&mut |p| end.extend_from_slice(p.value.data()));
        for (s, e) in start.iter().zip(&end) {
            assert!((e - (s - 2.5)).abs() < 1e-5, "expected total Δ=2.5");
        }
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut rng = Rng::new(4);
        let mut net = one_param_net(&mut rng);
        // Zero gradient, only decay.
        let mut norm_before = 0.0;
        net.visit_params(&mut |p| norm_before += p.value.norm_sq());
        let mut opt = Sgd::new(0.1).weight_decay(0.1);
        opt.step(&mut net);
        let mut norm_after = 0.0;
        net.visit_params(&mut |p| norm_after += p.value.norm_sq());
        assert!(norm_after <= norm_before);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_lr() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn rejects_bad_momentum() {
        let _ = Sgd::new(0.1).momentum(1.0);
    }
}
