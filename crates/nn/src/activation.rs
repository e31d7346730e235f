//! Lockable nonlinear activation layers — the HPNN locking point.
//!
//! The paper locks neuron `j` of a nonlinear layer by multiplying its
//! multiply–accumulate result with the lock factor `L_j = (-1)^{k_j}`
//! before the activation (Eq. 1–2):
//!
//! ```text
//! out_j = f(L_j · MAC_j)
//! ```
//!
//! In this implementation the preceding layer (dense/conv) computes the MAC
//! values, and the [`Activation`] layer applies the lock factor and the
//! nonlinearity. Gradients carry the extra `·L_j` term of the key-dependent
//! delta rule (Eq. 4): `∂out_j/∂MAC_j = f'(L_j·MAC_j)·L_j`.

use hpnn_tensor::{simd, Tensor};

use crate::layer::Layer;

/// The nonlinearity applied after the (optionally locked) pre-activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActKind {
    /// Rectified linear unit, `max(0, z)` — used by every network in the
    /// paper's evaluation (Table I counts "neurons in nonlinear (ReLU)
    /// layers").
    Relu,
    /// Logistic sigmoid `1/(1+e^{-z})` — used in the paper's Theorem 1
    /// setting (differentiable everywhere).
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl ActKind {
    /// Evaluates the activation.
    #[inline]
    pub fn eval(self, z: f32) -> f32 {
        match self {
            ActKind::Relu => z.max(0.0),
            ActKind::Sigmoid => 1.0 / (1.0 + (-z).exp()),
            ActKind::Tanh => z.tanh(),
        }
    }

    /// Evaluates the derivative at pre-activation `z` (with `y = eval(z)`
    /// supplied to avoid recomputation).
    pub fn deriv(self, z: f32, y: f32) -> f32 {
        match self {
            ActKind::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActKind::Sigmoid => y * (1.0 - y),
            ActKind::Tanh => 1.0 - y * y,
        }
    }
}

/// A per-neuron lockable activation layer.
///
/// Without lock factors this is a plain activation. With factors installed
/// (via [`Layer::set_lock_factors`]) each neuron's pre-activation is
/// multiplied by ±1 first — running a locked model *without* the right
/// factors flips the effective sign of roughly half of all neurons, which is
/// what destroys accuracy for unauthorized users.
///
/// # Examples
///
/// ```
/// use hpnn_nn::{ActKind, Activation, Layer};
/// use hpnn_tensor::Tensor;
///
/// let mut act = Activation::new(ActKind::Relu, 3);
/// act.set_lock_factors(&[1.0, -1.0, 1.0]);
/// let z = Tensor::from_vec([1usize, 3], vec![2.0, 2.0, -2.0])?;
/// let y = act.forward(&z, false);
/// // Neuron 1 is locked with k=1: f(-1 · 2.0) = 0.
/// assert_eq!(y.data(), &[2.0, 0.0, 0.0]);
/// # Ok::<(), hpnn_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Activation {
    kind: ActKind,
    features: usize,
    /// Per-neuron ±1 lock factors; `None` means unlocked (all +1).
    factors: Option<Vec<f32>>,
    /// Cached `f'(L·z)·L` from the last training forward.
    cached_dmask: Option<Tensor>,
}

impl Activation {
    /// Creates an unlocked activation over `features` neurons.
    pub fn new(kind: ActKind, features: usize) -> Self {
        Activation {
            kind,
            features,
            factors: None,
            cached_dmask: None,
        }
    }

    /// The activation kind.
    pub fn kind(&self) -> ActKind {
        self.kind
    }

    /// Number of neurons (features) in this layer.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Removes any installed lock factors (all-`+1` behaviour).
    pub fn clear_lock_factors(&mut self) {
        self.factors = None;
    }

    /// `out_j = f(L_j · MAC_j)` for every row — the one body behind both
    /// [`Layer::infer`] and [`Layer::forward`]. With `train` it also
    /// returns `f'(L_j·MAC_j)·L_j` for the key-dependent delta rule.
    fn apply(&self, input: &Tensor, lock: Option<&[f32]>, train: bool) -> (Tensor, Option<Tensor>) {
        assert_eq!(
            input.shape().cols(),
            self.features,
            "activation features {} != {}",
            input.shape().cols(),
            self.features
        );
        if let Some(factors) = lock {
            // The kernels below only debug-check this.
            assert_eq!(factors.len(), self.features, "lock factor count");
        }
        let batch = input.shape().rows();
        let mut out = input.clone();
        let mut dmask = train.then(|| Tensor::zeros([batch, self.features]));
        let kind = self.kind;
        if kind == ActKind::Relu {
            // Vectorized path: the ReLU select (including the locked
            // sign-flip pre-scale) is branch-free and dispatched through
            // `hpnn_tensor::simd`, bit-identical to the scalar loop below
            // at every SIMD level.
            simd::relu_fwd_rows(
                out.data_mut(),
                self.features,
                lock,
                dmask.as_mut().map(|d| d.data_mut()),
            );
        } else {
            for r in 0..batch {
                for (j, v) in out.row_mut(r).iter_mut().enumerate() {
                    // `1.0 · z` is exact, so the keyless view shares the loop.
                    let l = lock.map_or(1.0, |factors| factors[j]);
                    let z = l * *v;
                    let y = kind.eval(z);
                    if let Some(d) = dmask.as_mut() {
                        d.row_mut(r)[j] = kind.deriv(z, y) * l;
                    }
                    *v = y;
                }
            }
        }
        (out, dmask)
    }
}

impl Layer for Activation {
    fn name(&self) -> &'static str {
        match self.kind {
            ActKind::Relu => "relu",
            ActKind::Sigmoid => "sigmoid",
            ActKind::Tanh => "tanh",
        }
    }

    fn infer(&self, input: &Tensor, lock: Option<&[f32]>) -> Tensor {
        self.apply(input, lock, false).0
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (out, dmask) = self.apply(input, self.factors.as_deref(), train);
        self.cached_dmask = dmask;
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // The mask is consumed: its buffer becomes the returned gradient.
        let mut grad_in = self
            .cached_dmask
            .take()
            .expect("activation backward without training forward");
        assert_eq!(
            grad_in.shape(),
            grad_out.shape(),
            "activation backward shape mismatch"
        );
        simd::mul_assign(grad_in.data_mut(), grad_out.data());
        grad_in
    }

    fn out_features(&self, in_features: usize) -> usize {
        assert_eq!(in_features, self.features, "activation wiring mismatch");
        self.features
    }

    fn lockable_neurons(&self) -> usize {
        self.features
    }

    fn set_lock_factors(&mut self, factors: &[f32]) {
        assert_eq!(
            factors.len(),
            self.features,
            "lock factor count {} != neurons {}",
            factors.len(),
            self.features
        );
        assert!(
            factors.iter().all(|&f| f == 1.0 || f == -1.0),
            "lock factors must be ±1"
        );
        self.factors = Some(factors.to_vec());
    }

    fn lock_factors(&self) -> Option<&[f32]> {
        self.factors.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[f32]) -> Tensor {
        Tensor::from_vec([1usize, vals.len()], vals.to_vec()).unwrap()
    }

    #[test]
    fn relu_unlocked() {
        let mut act = Activation::new(ActKind::Relu, 4);
        let y = act.forward(&row(&[-1., 0., 0.5, 3.]), false);
        assert_eq!(y.data(), &[0., 0., 0.5, 3.]);
    }

    #[test]
    fn relu_locked_flips_sign_preactivation() {
        let mut act = Activation::new(ActKind::Relu, 2);
        act.set_lock_factors(&[-1.0, -1.0]);
        // f(-z): negative inputs become positive outputs and vice versa.
        let y = act.forward(&row(&[-2.0, 2.0]), false);
        assert_eq!(y.data(), &[2.0, 0.0]);
    }

    #[test]
    fn locked_equals_unlocked_on_negated_input() {
        // f(L·z) with L=-1 equals f(-z): the equivalence used in Lemma 1.
        let mut locked = Activation::new(ActKind::Sigmoid, 3);
        locked.set_lock_factors(&[-1.0; 3]);
        let mut plain = Activation::new(ActKind::Sigmoid, 3);
        let z = row(&[0.3, -1.2, 2.0]);
        let zneg = z.scale(-1.0);
        let a = locked.forward(&z, false);
        let b = plain.forward(&zneg, false);
        assert!(a.max_abs_diff(&b) < 1e-7);
    }

    #[test]
    fn backward_carries_lock_factor() {
        // out = f(L z) ⇒ dout/dz = f'(L z) · L. For ReLU with L=-1, z=-2:
        // L·z = 2 > 0 ⇒ derivative = -1.
        let mut act = Activation::new(ActKind::Relu, 1);
        act.set_lock_factors(&[-1.0]);
        act.forward(&row(&[-2.0]), true);
        let dx = act.backward(&row(&[1.0]));
        assert_eq!(dx.data(), &[-1.0]);
    }

    #[test]
    fn sigmoid_gradient_matches_finite_difference() {
        let mut act = Activation::new(ActKind::Sigmoid, 3);
        act.set_lock_factors(&[1.0, -1.0, 1.0]);
        let z = row(&[0.5, -0.7, 1.3]);
        let y = act.forward(&z, true);
        let base = y.sum();
        let dx = act.backward(&row(&[1.0, 1.0, 1.0]));
        let eps = 1e-3;
        for i in 0..3 {
            let mut zp = z.clone();
            zp.data_mut()[i] += eps;
            let yp = act.forward(&zp, false).sum();
            let fd = (yp - base) / eps;
            assert!(
                (fd - dx.data()[i]).abs() < 1e-3,
                "i={i} fd={fd} an={}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn tanh_eval_and_deriv() {
        let y = ActKind::Tanh.eval(0.5);
        assert!((y - 0.5f32.tanh()).abs() < 1e-7);
        let d = ActKind::Tanh.deriv(0.5, y);
        assert!((d - (1.0 - y * y)).abs() < 1e-7);
    }

    #[test]
    fn relu_fwd_bwd_bit_identical_across_simd_levels() {
        // The locking guarantee this PR must not disturb: locked and
        // unlocked ReLU forward/backward produce the same bits at every
        // dispatch level the machine supports.
        use hpnn_tensor::simd::{self, SimdLevel};
        let vals: Vec<f32> = (0..45)
            .map(|i| ((i * 29) % 23) as f32 * 0.5 - 5.0)
            .collect();
        let z = Tensor::from_vec([3usize, 15], vals).unwrap();
        let factors: Vec<f32> = (0..15)
            .map(|j| if j % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let ones = Tensor::from_vec([3usize, 15], vec![1.0; 45]).unwrap();
        for locked in [false, true] {
            let mut want: Option<(Vec<f32>, Vec<f32>)> = None;
            for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                if level > simd::probe() {
                    continue;
                }
                let _g = simd::force(level);
                let mut act = Activation::new(ActKind::Relu, 15);
                if locked {
                    act.set_lock_factors(&factors);
                }
                let y = act.forward(&z, true);
                let dx = act.backward(&ones);
                match &want {
                    Some((wy, wd)) => {
                        assert_eq!(y.data(), &wy[..], "relu fwd differs at {level:?}");
                        assert_eq!(dx.data(), &wd[..], "relu bwd differs at {level:?}");
                    }
                    None => want = Some((y.data().to_vec(), dx.data().to_vec())),
                }
            }
        }
    }

    #[test]
    fn relu_train_forward_matches_eval_reference() {
        // The vectorized training path (with dmask) must produce the same
        // activations as the per-element ActKind reference.
        let mut act = Activation::new(ActKind::Relu, 4);
        act.set_lock_factors(&[1.0, -1.0, -1.0, 1.0]);
        let z = row(&[-1.5, -1.5, 2.0, 0.0]);
        let y = act.forward(&z, true);
        let want: Vec<f32> = [(-1.5f32, 1.0f32), (-1.5, -1.0), (2.0, -1.0), (0.0, 1.0)]
            .iter()
            .map(|&(v, f)| ActKind::Relu.eval(f * v))
            .collect();
        assert_eq!(y.data(), &want[..]);
        let dx = act.backward(&row(&[1.0; 4]));
        assert_eq!(dx.data(), &[0.0, -1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "without training forward")]
    fn backward_without_forward_panics() {
        let mut act = Activation::new(ActKind::Relu, 2);
        let _ = act.backward(&row(&[1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "without training forward")]
    fn second_backward_finds_no_stale_mask() {
        // The mask belongs to one forward: backward consumes it.
        let mut act = Activation::new(ActKind::Relu, 2);
        act.forward(&row(&[1.0, -1.0]), true);
        let _ = act.backward(&row(&[1.0, 1.0]));
        let _ = act.backward(&row(&[1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "must be ±1")]
    fn rejects_non_unit_factors() {
        let mut act = Activation::new(ActKind::Relu, 2);
        act.set_lock_factors(&[0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "lock factor count")]
    fn rejects_wrong_factor_count() {
        let mut act = Activation::new(ActKind::Relu, 2);
        act.set_lock_factors(&[1.0]);
    }

    #[test]
    fn lockable_neuron_count() {
        let act = Activation::new(ActKind::Relu, 17);
        assert_eq!(act.lockable_neurons(), 17);
        assert!(act.lock_factors().is_none());
    }

    #[test]
    fn clear_restores_unlocked() {
        let mut act = Activation::new(ActKind::Relu, 1);
        act.set_lock_factors(&[-1.0]);
        act.clear_lock_factors();
        let y = act.forward(&row(&[2.0]), false);
        assert_eq!(y.data(), &[2.0]);
    }
}
