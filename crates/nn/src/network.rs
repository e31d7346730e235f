//! Sequential network container.

use std::ops::Range;

use hpnn_tensor::Tensor;

use crate::layer::Layer;
use crate::param::Param;

/// A sequential feed-forward network (the paper's "baseline DNN
/// architecture" is exactly such a stack plus its weights).
///
/// # Examples
///
/// ```
/// use hpnn_nn::{ActKind, Activation, Dense, Network};
/// use hpnn_tensor::{Rng, Tensor};
///
/// let mut rng = Rng::new(0);
/// let mut net = Network::new(4);
/// net.push(Box::new(Dense::new(4, 8, &mut rng)));
/// net.push(Box::new(Activation::new(ActKind::Relu, 8)));
/// net.push(Box::new(Dense::new(8, 3, &mut rng)));
/// let logits = net.forward(&Tensor::randn([2, 4], 1.0, &mut rng), false);
/// assert_eq!(logits.shape().dims(), &[2, 3]);
/// ```
pub struct Network {
    in_features: usize,
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("in_features", &self.in_features)
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Network {
    /// Creates an empty network accepting `in_features` inputs per sample.
    pub fn new(in_features: usize) -> Self {
        Network {
            in_features,
            layers: Vec::new(),
        }
    }

    /// Appends a layer.
    ///
    /// # Panics
    ///
    /// Panics if the layer's expected input width does not match the current
    /// output width (checked via [`Layer::out_features`]).
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        // Validate wiring eagerly: out_features panics on mismatch.
        let _ = layer.out_features(self.out_features());
        self.layers.push(layer);
    }

    /// Number of input features per sample.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features per sample.
    pub fn out_features(&self) -> usize {
        let mut width = self.in_features;
        for layer in &self.layers {
            width = layer.out_features(width);
        }
        width
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to a layer.
    pub fn layer(&self, i: usize) -> &dyn Layer {
        self.layers[i].as_ref()
    }

    /// Mutable access to a layer.
    pub fn layer_mut(&mut self, i: usize) -> &mut dyn Layer {
        self.layers[i].as_mut()
    }

    /// Runs the network forward under the installed lock factors. With
    /// `train = true`, layers cache state for a subsequent
    /// [`backward`](Network::backward).
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.forward_range(input, train, 0..self.layers.len())
    }

    /// Runs only the layers in `range` forward, treating `input` as the
    /// activation entering `range.start`. Splitting a forward pass into
    /// consecutive ranges is bitwise identical to one full
    /// [`forward`](Network::forward): it is the same per-layer loop, and
    /// no layer's arithmetic depends on its neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or, for a non-empty range,
    /// `input`'s width does not match the output width of layer
    /// `range.start - 1` (the input width for `range.start == 0`).
    pub fn forward_range(&mut self, input: &Tensor, train: bool, range: Range<usize>) -> Tensor {
        self.check_entry(input, &range);
        run_layers(self.layers[range].iter_mut(), input, |layer, x| {
            layer.forward(x, train)
        })
    }

    /// [`forward_range`](Network::forward_range) for inference through
    /// `&self`: the same loop, nothing written, so one network serves many
    /// threads at once. `lock` is the whole network's lock-factor vector
    /// (`L_j`, one per lockable neuron in layer order) whatever the range;
    /// `None` is the all-`+1` keyless view. Installed factors are not
    /// consulted.
    ///
    /// # Panics
    ///
    /// As [`forward_range`](Network::forward_range), plus a `lock` whose
    /// length is not [`lockable_neurons`](Network::lockable_neurons).
    pub fn infer_range(&self, input: &Tensor, range: Range<usize>, lock: Option<&[f32]>) -> Tensor {
        let mut offset = self.check_entry(input, &range);
        if let Some(factors) = lock {
            assert_eq!(factors.len(), self.lockable_neurons(), "lock factors");
        }
        run_layers(self.layers[range].iter(), input, |layer, x| {
            let n = layer.lockable_neurons();
            let slice = lock.map(|factors| &factors[offset..offset + n]);
            offset += n;
            layer.infer(x, slice)
        })
    }

    /// Validates a layer range and the activation entering it; returns how
    /// many lockable neurons precede `range.start`.
    fn check_entry(&self, input: &Tensor, range: &Range<usize>) -> usize {
        assert!(
            range.start <= range.end && range.end <= self.layers.len(),
            "layer range {range:?} out of bounds (network has {} layers)",
            self.layers.len()
        );
        let (mut width, mut lockable) = (self.in_features, 0);
        for layer in &self.layers[..range.start] {
            width = layer.out_features(width);
            lockable += layer.lockable_neurons();
        }
        // An empty range is the identity: no layer, no width to check.
        assert!(
            range.is_empty() || input.shape().cols() == width,
            "stage input features {} != {} entering layer {}",
            input.shape().cols(),
            width,
            range.start
        );
        lockable
    }

    /// Backpropagates a loss gradient, accumulating every layer's parameter
    /// gradients. The first layer runs [`Layer::backward_params`]: the
    /// gradient with respect to the network input is never computed,
    /// because the delta rule does not read it.
    pub fn backward(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_out)));
        }
        first.backward_params(g.as_ref().unwrap_or(grad_out));
    }

    /// Visits every parameter in a stable (layer, weight-then-bias) order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of learnable scalars.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Total number of lockable neurons across all layers — the paper's
    /// "No. of neurons in nonlinear (ReLU) layers" column of Table I.
    pub fn lockable_neurons(&self) -> usize {
        self.layers.iter().map(|l| l.lockable_neurons()).sum()
    }

    /// Installs a flat vector of ±1 lock factors, distributed across the
    /// lockable layers in order.
    ///
    /// # Panics
    ///
    /// Panics if `factors.len() != self.lockable_neurons()`.
    pub fn install_lock_factors(&mut self, factors: &[f32]) {
        assert_eq!(
            factors.len(),
            self.lockable_neurons(),
            "lock factor count {} != lockable neurons {}",
            factors.len(),
            self.lockable_neurons()
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            let n = layer.lockable_neurons();
            if n > 0 {
                layer.set_lock_factors(&factors[offset..offset + n]);
                offset += n;
            }
        }
    }

    /// The one sign flip: negates the incoming weights and bias of every
    /// unit whose lock factor is −1 ([`Layer::negate_units`]). An
    /// activation's units are those of the layer feeding it; a residual
    /// block negates its own convolutions. Where each unit's factors agree
    /// and its pre-activation is its own, the flipped network run keyless
    /// computes, bit for bit, what this one computes under `factors`
    /// (Lemma 1). Flipping twice restores every bit.
    ///
    /// # Panics
    ///
    /// Panics if `factors.len() != self.lockable_neurons()`, or as
    /// [`Layer::negate_units`].
    pub fn flip_signs(&mut self, factors: &[f32]) {
        assert_eq!(factors.len(), self.lockable_neurons(), "lock factors");
        let mut offset = 0;
        for i in 0..self.layers.len() {
            let n = self.layers[i].lockable_neurons();
            if n == 0 {
                continue;
            }
            let owner = if self.layers[i].param_count() == 0 {
                i.checked_sub(1)
                    .expect("a lockable first layer has no weights")
            } else {
                i
            };
            self.layers[owner].negate_units(&factors[offset..offset + n]);
            offset += n;
        }
    }

    /// Concatenated lock factors currently installed across lockable layers,
    /// or `None` if no lockable layer has factors installed.
    pub fn lock_factors(&self) -> Option<Vec<f32>> {
        let mut out = Vec::new();
        let mut any = false;
        for layer in &self.layers {
            let n = layer.lockable_neurons();
            if n == 0 {
                continue;
            }
            match layer.lock_factors() {
                Some(f) => {
                    any = true;
                    out.extend_from_slice(f);
                }
                None => out.extend(std::iter::repeat_n(1.0, n)),
            }
        }
        if any {
            Some(out)
        } else {
            None
        }
    }

    /// Extracts all parameter values in visitation order (for
    /// serialization).
    pub fn export_weights(&mut self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.push(p.value.clone()));
        out
    }

    /// Loads parameter values in visitation order.
    ///
    /// # Panics
    ///
    /// Panics if the count or any shape disagrees with the network.
    pub fn import_weights(&mut self, weights: &[Tensor]) {
        let mut idx = 0;
        self.visit_params(&mut |p| {
            assert!(idx < weights.len(), "too few weight tensors");
            assert_eq!(
                weights[idx].shape(),
                p.value.shape(),
                "weight tensor {idx} shape mismatch"
            );
            p.value = weights[idx].clone();
            idx += 1;
        });
        assert_eq!(idx, weights.len(), "too many weight tensors");
    }

    /// Predicted class indices for a batch.
    pub fn predict(&mut self, input: &Tensor) -> Vec<usize> {
        self.forward(input, false).argmax_rows()
    }

    /// Fraction of samples whose argmax prediction matches the label.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the batch size.
    pub fn accuracy(&mut self, input: &Tensor, labels: &[usize]) -> f32 {
        let preds = self.predict(input);
        assert_eq!(preds.len(), labels.len(), "label count mismatch");
        if preds.is_empty() {
            return 0.0;
        }
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        correct as f32 / preds.len() as f32
    }
}

/// The one per-layer loop: each intermediate activation is freed as soon as
/// the next layer has consumed it (layers copy anything they need to cache).
fn run_layers<L>(
    layers: impl Iterator<Item = L>,
    input: &Tensor,
    mut step: impl FnMut(L, &Tensor) -> Tensor,
) -> Tensor {
    let mut x: Option<Tensor> = None;
    for layer in layers {
        x = Some(step(layer, x.as_ref().unwrap_or(input)));
    }
    x.unwrap_or_else(|| input.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{ActKind, Activation};
    use crate::dense::Dense;
    use hpnn_tensor::Rng;

    fn mlp(rng: &mut Rng) -> Network {
        let mut net = Network::new(3);
        net.push(Box::new(Dense::new(3, 5, rng)));
        net.push(Box::new(Activation::new(ActKind::Relu, 5)));
        net.push(Box::new(Dense::new(5, 2, rng)));
        net
    }

    #[test]
    fn wiring_validated_on_push() {
        let mut rng = Rng::new(1);
        let mut net = Network::new(3);
        net.push(Box::new(Dense::new(3, 5, &mut rng)));
        assert_eq!(net.out_features(), 5);
    }

    #[test]
    #[should_panic(expected = "wiring mismatch")]
    fn bad_wiring_panics() {
        let mut rng = Rng::new(2);
        let mut net = Network::new(3);
        net.push(Box::new(Dense::new(4, 5, &mut rng)));
    }

    #[test]
    fn forward_backward_shapes() {
        let mut rng = Rng::new(3);
        let mut net = mlp(&mut rng);
        let x = Tensor::randn([4, 3], 1.0, &mut rng);
        let y = net.forward(&x, true);
        assert_eq!(y.shape().dims(), &[4, 2]);
        net.backward(&Tensor::ones([4, 2]));
    }

    #[test]
    fn backward_keeps_every_parameter_gradient() {
        // Network::backward skips the first layer's input gradient; every
        // parameter gradient must still be the bits of chaining
        // Layer::backward through all layers, on a locked CNN1 (conv
        // first) and a locked MLP (dense first), at every SIMD level.
        use crate::arch::{cnn1, mlp, ImageDims};
        use crate::loss::softmax_cross_entropy;
        use hpnn_tensor::simd::{self, SimdLevel};
        let specs = [
            cnn1(ImageDims::new(1, 12, 12), 10, 1.0).unwrap(),
            mlp(20, &[16, 12], 10),
        ];
        for spec in specs {
            for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                if level > simd::probe() {
                    continue;
                }
                let _g = simd::force(level);
                let mut grads: Vec<Vec<Vec<f32>>> = Vec::new();
                for whole in [true, false] {
                    let mut rng = Rng::new(21);
                    let mut net = spec.build(&mut rng).unwrap();
                    let lock: Vec<f32> = (0..net.lockable_neurons())
                        .map(|j| if j % 3 == 1 { -1.0 } else { 1.0 })
                        .collect();
                    net.install_lock_factors(&lock);
                    let x = Tensor::randn([6, net.in_features()], 1.0, &mut rng);
                    let labels: Vec<usize> = (0..6).map(|i| i * 7 % 10).collect();
                    let logits = net.forward(&x, true);
                    let g = softmax_cross_entropy(&logits, &labels).grad;
                    if whole {
                        net.backward(&g);
                    } else {
                        let mut g = g;
                        for i in (0..net.len()).rev() {
                            g = net.layer_mut(i).backward(&g);
                        }
                    }
                    let mut these = Vec::new();
                    net.visit_params(&mut |p| these.push(p.grad.data().to_vec()));
                    grads.push(these);
                }
                assert_eq!(grads[0], grads[1], "{spec:?} at {level:?}");
            }
        }
    }

    #[test]
    fn lockable_neurons_counted() {
        let mut rng = Rng::new(4);
        let net = mlp(&mut rng);
        assert_eq!(net.lockable_neurons(), 5);
    }

    #[test]
    fn install_and_read_lock_factors() {
        let mut rng = Rng::new(5);
        let mut net = mlp(&mut rng);
        assert!(net.lock_factors().is_none());
        net.install_lock_factors(&[1., -1., 1., -1., 1.]);
        assert_eq!(net.lock_factors().unwrap(), vec![1., -1., 1., -1., 1.]);
    }

    #[test]
    fn locked_network_differs_from_unlocked() {
        let mut rng = Rng::new(6);
        let mut net = mlp(&mut rng);
        let x = Tensor::randn([8, 3], 1.0, &mut rng);
        let y_unlocked = net.forward(&x, false);
        net.install_lock_factors(&[-1., -1., -1., -1., -1.]);
        let y_locked = net.forward(&x, false);
        assert!(y_unlocked.max_abs_diff(&y_locked) > 1e-3);
    }

    #[test]
    fn export_import_roundtrip() {
        let mut rng = Rng::new(7);
        let mut net = mlp(&mut rng);
        let x = Tensor::randn([2, 3], 1.0, &mut rng);
        let y1 = net.forward(&x, false);
        let weights = net.export_weights();
        let mut net2 = mlp(&mut rng); // different random init
        net2.import_weights(&weights);
        let y2 = net2.forward(&x, false);
        assert!(y1.max_abs_diff(&y2) < 1e-7);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn import_rejects_wrong_shapes() {
        let mut rng = Rng::new(8);
        let mut net = mlp(&mut rng);
        let mut weights = net.export_weights();
        weights[0] = Tensor::zeros([2, 2]);
        net.import_weights(&weights);
    }

    #[test]
    fn accuracy_counts_matches() {
        let mut rng = Rng::new(9);
        let mut net = mlp(&mut rng);
        let x = Tensor::randn([10, 3], 1.0, &mut rng);
        let preds = net.predict(&x);
        let acc = net.accuracy(&x, &preds);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn forward_range_chains_bitwise_identical() {
        let mut rng = Rng::new(12);
        let mut net = mlp(&mut rng);
        net.install_lock_factors(&[1., -1., 1., -1., 1.]);
        let x = Tensor::randn([4, 3], 1.0, &mut rng);
        let full = net.forward(&x, false);
        // Every cut point must compose back to the exact same bits.
        for cut in 0..=net.len() {
            let mid = net.forward_range(&x, false, 0..cut);
            let out = net.forward_range(&mid, false, cut..net.len());
            assert_eq!(out.data(), full.data(), "cut at {cut} diverged");
        }
        // Empty range is the identity.
        let id = net.forward_range(&x, false, 1..1);
        assert_eq!(id.data(), x.data());
    }

    #[test]
    fn batched_infer_bit_identical_to_row_by_row_on_the_served_fc_head() {
        // The fc head of the served conv + fc2048 model: whatever batch the
        // scheduler forms — one row, a few (streaming GEMM), or enough for
        // the register-tiled kernel and its row tail — every row's logits
        // are the bits a single-row forward produces.
        let mut rng = Rng::new(14);
        let mut net = Network::new(256);
        net.push(Box::new(Dense::new(256, 2048, &mut rng)));
        net.push(Box::new(Activation::new(ActKind::Relu, 2048)));
        net.push(Box::new(Dense::new(2048, 2048, &mut rng)));
        net.push(Box::new(Activation::new(ActKind::Relu, 2048)));
        net.push(Box::new(Dense::new(2048, 10, &mut rng)));
        let lock: Vec<f32> = (0..net.lockable_neurons())
            .map(|j| if j % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let rows = 21;
        let x = Tensor::randn([rows, 256], 1.0, &mut rng);
        let single: Vec<Tensor> = (0..rows)
            .map(|i| {
                let row = x.data()[i * 256..(i + 1) * 256].to_vec();
                let row = Tensor::from_vec([1, 256], row).unwrap();
                net.infer_range(&row, 0..net.len(), Some(&lock))
            })
            .collect();
        for m in (1..=9).chain([16, 17, rows]) {
            let batch = Tensor::from_vec([m, 256], x.data()[..m * 256].to_vec()).unwrap();
            let out = net.infer_range(&batch, 0..net.len(), Some(&lock));
            for (i, want) in single[..m].iter().enumerate() {
                assert_eq!(
                    &out.data()[i * 10..(i + 1) * 10],
                    want.data(),
                    "row {i} of a {m}-row batch"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "stage input features")]
    fn forward_range_rejects_wrong_width() {
        let mut rng = Rng::new(13);
        let mut net = mlp(&mut rng);
        let x = Tensor::randn([2, 3], 1.0, &mut rng);
        net.forward_range(&x, false, 1..2); // layer 1 expects 5 features
    }

    #[test]
    fn zero_grad_clears() {
        let mut rng = Rng::new(10);
        let mut net = mlp(&mut rng);
        let x = Tensor::randn([4, 3], 1.0, &mut rng);
        net.forward(&x, true);
        net.backward(&Tensor::ones([4, 2]));
        net.zero_grad();
        net.visit_params(&mut |p| assert_eq!(p.grad.sum(), 0.0));
    }

    #[test]
    fn param_count_sums_layers() {
        let mut rng = Rng::new(11);
        let mut net = mlp(&mut rng);
        assert_eq!(net.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
    }
}
