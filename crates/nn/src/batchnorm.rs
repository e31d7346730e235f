//! Batch normalization.

use hpnn_tensor::Tensor;

use crate::layer::Layer;
use crate::param::Param;

/// Per-channel batch normalization (Ioffe & Szegedy) for `[batch x
/// (C·plane)]` activations: each channel's `plane` spatial positions are
/// normalized over the batch with learnable scale `γ` and shift `β`.
///
/// For dense layers use `plane = 1` (one statistic per feature). Running
/// mean/variance buffers are kept for inference and serialized with the
/// model (as non-trainable [`Param`] buffers).
///
/// # Examples
///
/// ```
/// use hpnn_nn::{BatchNorm, Layer};
/// use hpnn_tensor::{Rng, Tensor};
///
/// let mut bn = BatchNorm::new(4, 1);
/// let mut rng = Rng::new(0);
/// let x = Tensor::randn([32, 4], 3.0, &mut rng);
/// let y = bn.forward(&x, true);
/// // Normalized output: roughly zero mean, unit variance per feature.
/// assert!(y.mean().abs() < 0.1);
/// ```
#[derive(Debug)]
pub struct BatchNorm {
    channels: usize,
    plane: usize,
    gamma: Param,
    beta: Param,
    running_mean: Param,
    running_var: Param,
    /// Running-statistics momentum.
    momentum: f32,
    eps: f32,
    /// Cached (input, x̂, per-channel μ, per-channel σ) from training forward.
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    x_hat: Tensor,
    std: Vec<f32>,
}

impl BatchNorm {
    /// Creates a batch-norm layer (`γ = 1`, `β = 0`).
    pub fn new(channels: usize, plane: usize) -> Self {
        BatchNorm {
            channels,
            plane,
            gamma: Param::new(Tensor::ones([channels])),
            beta: Param::zeros([channels]),
            running_mean: Param::buffer(Tensor::zeros([channels])),
            running_var: Param::buffer(Tensor::ones([channels])),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Feature width (`channels · plane`).
    pub fn features(&self) -> usize {
        self.channels * self.plane
    }

    /// Per-channel running mean (inference statistics).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean.value
    }

    /// Per-channel running variance (inference statistics).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var.value
    }
}

impl Layer for BatchNorm {
    fn name(&self) -> &'static str {
        "batchnorm"
    }

    fn infer(&self, input: &Tensor, _lock: Option<&[f32]>) -> Tensor {
        let batch = input.shape().rows();
        assert_eq!(
            input.shape().cols(),
            self.features(),
            "batchnorm width mismatch"
        );
        let plane = self.plane;
        let mut out = Tensor::zeros(input.shape().clone());
        for c in 0..self.channels {
            let mean = self.running_mean.value.data()[c];
            let std = (self.running_var.value.data()[c] + self.eps).sqrt();
            let g = self.gamma.value.data()[c];
            let b = self.beta.value.data()[c];
            for s in 0..batch {
                let x = input.row(s);
                let y = out.row_mut(s);
                for p in 0..plane {
                    y[c * plane + p] = g * (x[c * plane + p] - mean) / std + b;
                }
            }
        }
        out
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train {
            self.cache = None;
            return self.infer(input, None);
        }
        let batch = input.shape().rows();
        let features = self.features();
        assert_eq!(input.shape().cols(), features, "batchnorm width mismatch");
        let plane = self.plane;
        let channels = self.channels;
        let count = (batch * plane) as f32;
        assert!(
            batch > 1 || plane > 1,
            "batch norm needs more than one statistic sample"
        );
        let mut out = Tensor::zeros(input.shape().clone());
        let mut x_hat = Tensor::zeros(input.shape().clone());
        let mut stds = Vec::with_capacity(channels);
        for c in 0..channels {
            // Mean/variance over batch × plane for channel c.
            let mut mean = 0.0f32;
            for s in 0..batch {
                let row = input.row(s);
                for p in 0..plane {
                    mean += row[c * plane + p];
                }
            }
            mean /= count;
            let mut var = 0.0f32;
            for s in 0..batch {
                let row = input.row(s);
                for p in 0..plane {
                    let d = row[c * plane + p] - mean;
                    var += d * d;
                }
            }
            var /= count;
            let std = (var + self.eps).sqrt();
            stds.push(std);

            let g = self.gamma.value.data()[c];
            let b = self.beta.value.data()[c];
            for s in 0..batch {
                let row = input.row(s);
                for p in 0..plane {
                    let xh = (row[c * plane + p] - mean) / std;
                    x_hat.row_mut(s)[c * plane + p] = xh;
                    out.row_mut(s)[c * plane + p] = g * xh + b;
                }
            }
            // Update running statistics.
            let rm = &mut self.running_mean.value.data_mut()[c];
            *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
            let rv = &mut self.running_var.value.data_mut()[c];
            *rv = (1.0 - self.momentum) * *rv + self.momentum * var;
        }
        self.cache = Some(BnCache { x_hat, std: stds });
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("batchnorm backward without training forward");
        let batch = grad_out.shape().rows();
        let plane = self.plane;
        let channels = self.channels;
        let count = (batch * plane) as f32;
        let mut grad_in = Tensor::zeros(grad_out.shape().clone());

        for c in 0..channels {
            let g = self.gamma.value.data()[c];
            let std = cache.std[c];
            // Accumulate Σdy, Σdy·x̂ for the channel.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for s in 0..batch {
                let dy_row = grad_out.row(s);
                let xh_row = cache.x_hat.row(s);
                for p in 0..plane {
                    let idx = c * plane + p;
                    sum_dy += dy_row[idx];
                    sum_dy_xhat += dy_row[idx] * xh_row[idx];
                }
            }
            self.beta.grad.data_mut()[c] += sum_dy;
            self.gamma.grad.data_mut()[c] += sum_dy_xhat;

            // dx = γ/σ · (dy − Σdy/N − x̂·Σ(dy·x̂)/N)
            let scale = g / std;
            for s in 0..batch {
                let dy_row = grad_out.row(s);
                let xh_row = cache.x_hat.row(s);
                let dx_row = grad_in.row_mut(s);
                for p in 0..plane {
                    let idx = c * plane + p;
                    dx_row[idx] =
                        scale * (dy_row[idx] - sum_dy / count - xh_row[idx] * sum_dy_xhat / count);
                }
            }
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn out_features(&self, in_features: usize) -> usize {
        assert_eq!(in_features, self.features(), "batchnorm wiring mismatch");
        in_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_tensor::Rng;

    #[test]
    fn training_normalizes_per_feature() {
        let mut bn = BatchNorm::new(3, 1);
        let mut rng = Rng::new(1);
        let mut x = Tensor::randn([64, 3], 2.0, &mut rng);
        // Shift feature 1 strongly.
        for s in 0..64 {
            x.row_mut(s)[1] += 10.0;
        }
        let y = bn.forward(&x, true);
        for c in 0..3 {
            let vals: Vec<f32> = (0..64).map(|s| y.row(s)[c]).collect();
            let mean: f32 = vals.iter().sum::<f32>() / 64.0;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "feature {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "feature {c} var {var}");
        }
    }

    #[test]
    fn spatial_statistics_shared_per_channel() {
        // 2 channels × plane 4: statistics pool over batch and plane.
        let mut bn = BatchNorm::new(2, 4);
        let mut rng = Rng::new(2);
        let x = Tensor::randn([16, 8], 3.0, &mut rng);
        let y = bn.forward(&x, true);
        // Channel 0 values across batch+plane are normalized jointly.
        let mut vals = Vec::new();
        for s in 0..16 {
            vals.extend_from_slice(&y.row(s)[0..4]);
        }
        let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
        assert!(mean.abs() < 1e-4);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm::new(2, 1);
        let mut rng = Rng::new(3);
        // Several training batches to settle running statistics.
        for _ in 0..200 {
            let x = Tensor::randn([32, 2], 1.0, &mut rng).map(|v| v + 5.0);
            let _ = bn.forward(&x, true);
        }
        assert!((bn.running_mean().data()[0] - 5.0).abs() < 0.3);
        // Eval on a shifted batch uses the running stats, not batch stats.
        let x = Tensor::full([4, 2], 5.0);
        let y = bn.forward(&x, false);
        assert!(y.max().abs() < 0.3, "≈ (5-5)/1 = 0, got {}", y.max());
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut bn = BatchNorm::new(2, 2);
        let mut rng = Rng::new(4);
        let x = Tensor::randn([6, 4], 1.0, &mut rng);
        // Non-trivial gamma/beta.
        bn.gamma.value.data_mut().copy_from_slice(&[1.5, 0.7]);
        bn.beta.value.data_mut().copy_from_slice(&[0.2, -0.3]);

        // Weighted-sum loss so the gradient is non-uniform.
        let wts = Tensor::randn([6, 4], 1.0, &mut rng);
        let y = bn.forward(&x, true);
        let base: f32 = y.mul(&wts).sum();
        let dx = bn.backward(&wts);

        let eps = 1e-3;
        for i in (0..x.len()).step_by(3) {
            // Reset running stats so repeated forwards don't drift... they
            // don't affect training-mode outputs, so no reset is needed.
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = bn.forward(&xp, true);
            let fd = (yp.mul(&wts).sum() - base) / eps;
            assert!(
                (fd - dx.data()[i]).abs() < 2e-2 * fd.abs().max(1.0),
                "dx[{i}] fd {fd} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn gamma_beta_gradients() {
        let mut bn = BatchNorm::new(2, 1);
        let mut rng = Rng::new(5);
        let x = Tensor::randn([8, 2], 1.0, &mut rng);
        bn.forward(&x, true);
        bn.backward(&Tensor::ones([8, 2]));
        // dβ = Σ dy = batch size per channel.
        assert!((bn.beta.grad.data()[0] - 8.0).abs() < 1e-5);
        // dγ = Σ dy·x̂ ≈ 0 for unit dy (x̂ sums to ~0).
        assert!(bn.gamma.grad.data()[0].abs() < 1e-3);
    }

    #[test]
    fn running_buffers_not_trainable() {
        let mut bn = BatchNorm::new(1, 1);
        let mut kinds = Vec::new();
        bn.visit_params(&mut |p| kinds.push(p.trainable));
        assert_eq!(kinds, vec![true, true, false, false]);
    }

    #[test]
    #[should_panic(expected = "more than one statistic sample")]
    fn rejects_batch_of_one_scalar() {
        let mut bn = BatchNorm::new(2, 1);
        let x = Tensor::ones([1, 2]);
        let _ = bn.forward(&x, true);
    }
}
