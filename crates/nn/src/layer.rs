//! The [`Layer`] trait: `&self` inference, and training forward/backward
//! with internally cached state.

use hpnn_tensor::Tensor;

use crate::param::Param;

/// A neural-network layer with manual backpropagation.
///
/// Inter-layer activations are rank-2 tensors `[batch x features]`; layers
/// with spatial semantics (convolution, pooling) know their own `(C, H, W)`
/// geometry and interpret the feature axis accordingly. `forward` caches
/// whatever the matching `backward` needs (inputs, masks, pooling argmaxes),
/// so a backward call must always follow the forward it corresponds to.
///
/// ## Lockable layers and the HPNN lock factor
///
/// A layer that applies a nonlinearity to per-neuron pre-activations can be
/// *locked* in the sense of the HPNN paper: neuron `j` computes
/// `out_j = f(L_j · MAC_j)` where `L_j = (-1)^{k_j}` for key bit `k_j`
/// (Eq. 1–2). Such layers report `lockable_neurons() > 0` and accept a
/// vector of ±1 lock factors via `set_lock_factors`. Gradients flow through
/// the lock factor exactly as in the paper's key-dependent delta rule
/// (Eq. 4): `∂out/∂MAC = f'(L·MAC)·L`.
///
/// Parameters and execution are separate: [`infer`](Layer::infer) takes
/// `&self` and the lock factors as an argument, so one copy of the weights
/// serves every thread and both lock views — hence the `Sync` bound.
pub trait Layer: Send + Sync {
    /// Human-readable layer kind (for summaries and error messages).
    fn name(&self) -> &'static str;

    /// Inference: the layer output for a `[batch x in_features]` input,
    /// touching no layer state. `lock` is this layer's slice of lock
    /// factors (`L_j`, [`lockable_neurons`](Layer::lockable_neurons) long);
    /// `None` means all `+1`, the keyless view. Installed factors are not
    /// consulted.
    fn infer(&self, input: &Tensor, lock: Option<&[f32]>) -> Tensor;

    /// Computes the layer output for a `[batch x in_features]` input under
    /// the installed lock factors.
    ///
    /// When `train` is true the layer caches intermediate state for
    /// `backward`; otherwise the call is [`infer`](Layer::infer).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Propagates `grad_out` (`[batch x out_features]`) back through the
    /// layer, accumulating parameter gradients and returning the gradient
    /// with respect to the layer input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called without a preceding training-mode
    /// `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// [`backward`](Layer::backward) without the input gradient: accumulates
    /// the same parameter gradients, bit for bit, and skips the work only
    /// the returned tensor needs. A network's first layer runs this, since
    /// nothing reads the gradient with respect to the network input. The
    /// default runs `backward` and drops the result.
    ///
    /// # Panics
    ///
    /// As [`backward`](Layer::backward).
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Visits every learnable parameter (weights first, then biases, in a
    /// stable order). The default is a no-op for parameterless layers.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Number of output features produced per sample for `in_features`
    /// inputs. Used to validate architecture wiring.
    fn out_features(&self, in_features: usize) -> usize;

    /// Number of neurons this layer can lock (0 for non-lockable layers).
    fn lockable_neurons(&self) -> usize {
        0
    }

    /// Installs per-neuron lock factors (each ±1.0).
    ///
    /// # Panics
    ///
    /// Implementations panic if the layer is not lockable or the length
    /// differs from [`lockable_neurons`](Layer::lockable_neurons).
    fn set_lock_factors(&mut self, factors: &[f32]) {
        assert!(
            factors.is_empty(),
            "layer {} is not lockable but got {} lock factors",
            self.name(),
            factors.len()
        );
    }

    /// Returns the currently installed lock factors, if any.
    fn lock_factors(&self) -> Option<&[f32]> {
        None
    }

    /// Negates the incoming weights and bias of every unit (a dense
    /// neuron, a convolution filter) whose lock factor is −1, so that
    /// `f(L·MAC)` becomes `f(MAC')` with `MAC' = L·MAC` (Lemma 1).
    /// `factors` are this layer's own lock factors if it is lockable,
    /// otherwise those of the activation it feeds; see
    /// [`Network::flip_signs`](crate::Network::flip_signs).
    ///
    /// # Panics
    ///
    /// The default panics: the layer has no incoming weights. An
    /// implementation panics on a wrong length, or when the factors vary
    /// within one unit, since no sign flip of its weights undoes that.
    fn negate_units(&mut self, factors: &[f32]) {
        panic!(
            "layer {} has no incoming weights to negate for {} lock factors",
            self.name(),
            factors.len()
        );
    }

    /// Total number of learnable scalars.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

/// The units whose lock factors are −1, for `units` consecutive groups of
/// `per_unit` factors each.
///
/// # Panics
///
/// Panics if `factors` is not `units · per_unit` long or a group's factors
/// disagree.
pub(crate) fn negated_units(factors: &[f32], units: usize, per_unit: usize) -> Vec<usize> {
    assert_eq!(factors.len(), units * per_unit, "lock factors per unit");
    (0..units)
        .filter(|&u| {
            let group = &factors[u * per_unit..(u + 1) * per_unit];
            assert!(
                group.iter().all(|&l| l == group[0]),
                "lock factors vary within unit {u}: no sign flip undoes them"
            );
            group.first() == Some(&-1.0)
        })
        .collect()
}
