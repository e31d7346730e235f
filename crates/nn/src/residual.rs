//! Residual block (ResNet-style), used by the paper's ResNet18 experiments.

use hpnn_tensor::{Conv2dGeom, Rng, Tensor, TensorError};

use crate::activation::{ActKind, Activation};
use crate::conv2d::Conv2d;
use crate::layer::Layer;
use crate::param::Param;

/// A two-convolution residual block with identity (or 1×1-projection) skip:
///
/// ```text
/// out = ReLU( conv2(ReLU(conv1(x))) + skip(x) )
/// ```
///
/// Both internal ReLUs are lockable, so a key-locked ResNet follows the same
/// Eq. (1) semantics as plain CNNs. The projection convolution is inserted
/// automatically when the block changes channel count or stride.
///
/// # Examples
///
/// ```
/// use hpnn_nn::{Layer, ResidualBlock};
/// use hpnn_tensor::{Rng, Tensor};
///
/// let mut rng = Rng::new(0);
/// let mut block = ResidualBlock::new(4, 8, 8, 8, 2, &mut rng)?; // downsample
/// let x = Tensor::randn([2, 4 * 64], 1.0, &mut rng);
/// let y = block.forward(&x, false);
/// assert_eq!(y.shape().dims(), &[2, 8 * 16]);
/// # Ok::<(), hpnn_tensor::TensorError>(())
/// ```
pub struct ResidualBlock {
    conv1: Conv2d,
    relu1: Activation,
    conv2: Conv2d,
    relu2: Activation,
    projection: Option<Conv2d>,
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidualBlock")
            .field("conv1", self.conv1.geom())
            .field("conv2", self.conv2.geom())
            .field("projection", &self.projection.is_some())
            .finish()
    }
}

impl ResidualBlock {
    /// Creates a residual block mapping `in_c×h×w` to `out_c×(h/stride)×(w/stride)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the convolution geometry is invalid (e.g. `h` not
    /// divisible by `stride`).
    pub fn new(
        in_c: usize,
        h: usize,
        w: usize,
        out_c: usize,
        stride: usize,
        rng: &mut Rng,
    ) -> Result<Self, TensorError> {
        let g1 = Conv2dGeom::new(in_c, h, w, out_c, 3, stride, 1)?;
        let g2 = Conv2dGeom::new(out_c, g1.out_h, g1.out_w, out_c, 3, 1, 1)?;
        let conv1 = Conv2d::new(g1, rng);
        let relu1 = Activation::new(ActKind::Relu, g1.out_volume());
        let conv2 = Conv2d::new(g2, rng);
        let relu2 = Activation::new(ActKind::Relu, g2.out_volume());
        let projection = if in_c != out_c || stride != 1 {
            let gp = Conv2dGeom::new(in_c, h, w, out_c, 1, stride, 0)?;
            Some(Conv2d::new(gp, rng))
        } else {
            None
        };
        Ok(ResidualBlock {
            conv1,
            relu1,
            conv2,
            relu2,
            projection,
        })
    }

    /// The block's input volume per sample.
    pub fn in_volume(&self) -> usize {
        self.conv1.geom().in_volume()
    }

    /// The block's output volume per sample.
    pub fn out_volume(&self) -> usize {
        self.conv2.geom().out_volume()
    }

    /// The block's inference arithmetic, with each ReLU's lock factors
    /// given separately (`None` = all `+1`).
    fn infer_with(&self, input: &Tensor, lock1: Option<&[f32]>, lock2: Option<&[f32]>) -> Tensor {
        let mut main = self.conv1.infer(input, None);
        main = self.relu1.infer(&main, lock1);
        main = self.conv2.infer(&main, None);
        let skip = match &self.projection {
            Some(proj) => proj.infer(input, None),
            None => input.clone(),
        };
        self.relu2.infer(&main.add(&skip), lock2)
    }
}

impl Layer for ResidualBlock {
    fn name(&self) -> &'static str {
        "residual"
    }

    fn infer(&self, input: &Tensor, lock: Option<&[f32]>) -> Tensor {
        let (lock1, lock2) = lock
            .map(|f| f.split_at(self.relu1.lockable_neurons()))
            .unzip();
        self.infer_with(input, lock1, lock2)
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train {
            let (lock1, lock2) = (self.relu1.lock_factors(), self.relu2.lock_factors());
            return self.infer_with(input, lock1, lock2);
        }
        let mut main = self.conv1.forward(input, train);
        main = self.relu1.forward(&main, train);
        main = self.conv2.forward(&main, train);
        let skip = match &mut self.projection {
            Some(proj) => proj.forward(input, train),
            None => input.clone(),
        };
        let z = main.add(&skip);
        self.relu2.forward(&z, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dz = self.relu2.backward(grad_out);
        // Main branch.
        let mut dmain = self.conv2.backward(&dz);
        dmain = self.relu1.backward(&dmain);
        let dx_main = self.conv1.backward(&dmain);
        // Skip branch.
        let dx_skip = match &mut self.projection {
            Some(proj) => proj.backward(&dz),
            None => dz,
        };
        dx_main.add(&dx_skip)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.conv2.visit_params(f);
        if let Some(proj) = &mut self.projection {
            proj.visit_params(f);
        }
    }

    fn out_features(&self, in_features: usize) -> usize {
        assert_eq!(in_features, self.in_volume(), "residual wiring mismatch");
        self.out_volume()
    }

    fn lockable_neurons(&self) -> usize {
        self.relu1.lockable_neurons() + self.relu2.lockable_neurons()
    }

    fn set_lock_factors(&mut self, factors: &[f32]) {
        let n1 = self.relu1.lockable_neurons();
        assert_eq!(
            factors.len(),
            self.lockable_neurons(),
            "residual lock factor count {} != {}",
            factors.len(),
            self.lockable_neurons()
        );
        self.relu1.set_lock_factors(&factors[..n1]);
        self.relu2.set_lock_factors(&factors[n1..]);
    }

    fn negate_units(&mut self, factors: &[f32]) {
        let (lock1, lock2) = factors.split_at(self.relu1.lockable_neurons());
        self.conv1.negate_units(lock1);
        // Past the add, an identity skip carries the block input unnegated,
        // so there the flip is no change of basis.
        self.conv2.negate_units(lock2);
        if let Some(proj) = &mut self.projection {
            proj.negate_units(lock2);
        }
    }

    fn lock_factors(&self) -> Option<&[f32]> {
        // Factors are split across two inner layers; expose via Network::lock_factors
        // which concatenates per-layer vectors. A residual block reports its
        // own concatenation through `relu1`/`relu2` during that walk — but
        // the Layer trait returns a borrowed slice, so we cannot concatenate
        // here. We return relu1's factors only if both are set and identical
        // storage is impossible; instead report None unless unlocked.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_skip_when_shapes_match() {
        let mut rng = Rng::new(1);
        let block = ResidualBlock::new(4, 8, 8, 4, 1, &mut rng).unwrap();
        assert!(block.projection.is_none());
    }

    #[test]
    fn projection_inserted_on_channel_change() {
        let mut rng = Rng::new(2);
        let block = ResidualBlock::new(4, 8, 8, 8, 1, &mut rng).unwrap();
        assert!(block.projection.is_some());
    }

    #[test]
    fn projection_inserted_on_stride() {
        let mut rng = Rng::new(3);
        let block = ResidualBlock::new(4, 8, 8, 4, 2, &mut rng).unwrap();
        assert!(block.projection.is_some());
        assert_eq!(block.out_volume(), 4 * 16);
    }

    #[test]
    fn forward_shape() {
        let mut rng = Rng::new(4);
        let mut block = ResidualBlock::new(2, 6, 6, 4, 2, &mut rng).unwrap();
        let x = Tensor::randn([3, 72], 1.0, &mut rng);
        let y = block.forward(&x, false);
        assert_eq!(y.shape().dims(), &[3, 4 * 9]);
    }

    #[test]
    fn zero_convs_identity_skip_is_relu_of_input() {
        let mut rng = Rng::new(5);
        let mut block = ResidualBlock::new(2, 4, 4, 2, 1, &mut rng).unwrap();
        // Zero both convolutions: out = ReLU(0 + x) = ReLU(x).
        block.conv1.visit_params(&mut |p| p.value.fill(0.0));
        block.conv2.visit_params(&mut |p| p.value.fill(0.0));
        let x = Tensor::randn([2, 32], 1.0, &mut rng);
        let y = block.forward(&x, false);
        let expected = x.map(|v| v.max(0.0));
        assert!(y.max_abs_diff(&expected) < 1e-6);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = Rng::new(6);
        let mut block = ResidualBlock::new(2, 4, 4, 3, 1, &mut rng).unwrap();
        let x = Tensor::randn([2, 32], 1.0, &mut rng);
        let y = block.forward(&x, true);
        let base = y.sum();
        let dx = block.backward(&Tensor::ones(y.shape().clone()));
        let eps = 1e-2;
        for i in (0..x.len()).step_by(5) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let fd = (block.forward(&xp, false).sum() - base) / eps;
            assert!(
                (fd - dx.data()[i]).abs() < 0.08 * fd.abs().max(1.0),
                "dx[{i}] fd={fd} an={}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn lock_factors_split_across_relus() {
        let mut rng = Rng::new(7);
        let mut block = ResidualBlock::new(1, 4, 4, 1, 1, &mut rng).unwrap();
        let n = block.lockable_neurons();
        assert_eq!(n, 32); // two ReLUs of 16 each
        let factors: Vec<f32> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        block.set_lock_factors(&factors);
        assert_eq!(block.relu1.lock_factors().unwrap().len(), 16);
        assert_eq!(block.relu2.lock_factors().unwrap().len(), 16);
    }

    #[test]
    fn locking_changes_output() {
        let mut rng = Rng::new(8);
        let mut block = ResidualBlock::new(1, 4, 4, 1, 1, &mut rng).unwrap();
        let x = Tensor::randn([2, 16], 1.0, &mut rng);
        let y1 = block.forward(&x, false);
        block.set_lock_factors(&[-1.0; 32]);
        let y2 = block.forward(&x, false);
        assert!(y1.max_abs_diff(&y2) > 1e-4);
    }
}
