//! 2-D convolution layer (direct convolution over packed input planes).

use hpnn_tensor::{
    conv2d_forward_batch_into, conv2d_input_grad_batch_into, conv2d_pack_batch,
    conv2d_weight_grad_batch_into, simd, Conv2dGeom, Rng, Shape, Tensor,
};

use crate::layer::{negated_units, Layer};
use crate::par::map_reduce_chunks;
use crate::param::Param;

/// A 2-D convolution over `[batch x (C·H·W)]` activations.
///
/// The layer knows its spatial geometry; activations stay rank-2 between
/// layers (one flattened sample per row). Internally each sample's
/// zero-padded input planes are packed once
/// ([`hpnn_tensor::conv2d_pack_batch`]) and the whole batch is convolved
/// directly from them, every tap a contiguous shifted read, by one kernel
/// call ([`hpnn_tensor::conv2d_forward_batch_into`]). Backward reads the
/// channel-major `grad_out` where it lies: `dW` sums each sample's
/// `G_i·cols_i` in sample order over the same packed planes
/// ([`hpnn_tensor::conv2d_weight_grad_batch_into`]), and the input
/// gradient — skipped by [`Layer::backward_params`] — reads shifted runs
/// of zero-bordered gradient planes against the filter bank as stored
/// ([`hpnn_tensor::conv2d_input_grad_batch_into`]). Each call allocates the
/// temporaries it uses and frees them on return; only the packed planes of
/// a training forward outlive the call, until backward consumes them.
///
/// Because every kernel accumulates with a fixed per-element order, a
/// batch-`N` call is bit-identical to `N` batch-1 calls, and the pooled
/// path is bit-identical to the serial one.
///
/// # Examples
///
/// ```
/// use hpnn_nn::{Conv2d, Layer};
/// use hpnn_tensor::{Conv2dGeom, Rng, Tensor};
///
/// let mut rng = Rng::new(0);
/// let geom = Conv2dGeom::new(1, 8, 8, 4, 3, 1, 1)?;
/// let mut conv = Conv2d::new(geom, &mut rng);
/// let x = Tensor::randn([2, 64], 1.0, &mut rng);
/// let y = conv.forward(&x, false);
/// assert_eq!(y.shape().dims(), &[2, 4 * 8 * 8]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Conv2d {
    geom: Conv2dGeom,
    /// Filter bank `[out_c x (in_c·k·k)]`.
    weight: Param,
    /// Per-filter bias `[out_c]`.
    bias: Param,
    /// Packed input planes `[batch x packed_len]` of the last training
    /// forward, held until backward consumes them.
    cached_planes: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialized filters and zero bias.
    pub fn new(geom: Conv2dGeom, rng: &mut Rng) -> Self {
        let fan_in = geom.col_rows();
        let weight = Param::new(Tensor::kaiming(Shape::d2(geom.out_c, fan_in), fan_in, rng));
        let bias = Param::zeros([geom.out_c]);
        Conv2d {
            geom,
            weight,
            bias,
            cached_planes: None,
        }
    }

    /// Creates a convolution with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree with the geometry.
    pub fn with_params(geom: Conv2dGeom, weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(
            weight.shape().dims(),
            &[geom.out_c, geom.col_rows()],
            "conv weight shape"
        );
        assert_eq!(bias.shape().dims(), &[geom.out_c], "conv bias shape");
        Conv2d {
            geom,
            weight: Param::new(weight),
            bias: Param::new(bias),
            cached_planes: None,
        }
    }

    /// The convolution geometry.
    pub fn geom(&self) -> &Conv2dGeom {
        &self.geom
    }

    /// Immutable access to the filter bank.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Immutable access to the bias.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// Packs the batch and convolves it — the one body behind both
    /// [`Layer::infer`] and [`Layer::forward`]. Returns the output and the
    /// packed planes, which training keeps for backward and inference
    /// drops.
    fn convolve(&self, input: &Tensor) -> (Tensor, Tensor) {
        let batch = input.shape().rows();
        assert_eq!(
            input.shape().cols(),
            self.geom.in_volume(),
            "conv input volume {} != {}",
            input.shape().cols(),
            self.geom.in_volume()
        );
        let out_vol = self.geom.out_volume();
        let planes = conv2d_pack_batch(input, &self.geom);
        let mut out = vec![0.0; batch * out_vol];
        conv2d_forward_batch_into(
            &planes,
            &self.weight.value,
            self.bias.value.data(),
            &self.geom,
            &mut out,
        );
        let out = Tensor::from_vec(Shape::d2(batch, out_vol), out).expect("conv output volume");
        (out, planes)
    }

    /// The one body behind [`Layer::backward`] and
    /// [`Layer::backward_params`]: accumulates `db` and `dW`, and with
    /// `input_grad` also returns the input gradient.
    fn backprop(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        let planes = self
            .cached_planes
            .take()
            .expect("conv backward without training forward");
        let l = self.geom.col_cols();
        let out_c = self.geom.out_c;
        let out_vol = self.geom.out_volume();
        let batch = planes.shape().rows();
        assert_eq!(
            grad_out.shape().rows(),
            batch,
            "conv backward batch mismatch"
        );
        assert_eq!(grad_out.shape().cols(), out_vol, "conv grad volume");

        // db: per-sample subtotals computed in parallel, merged in sample
        // order — the same additions a sequence of batch-1 calls performs.
        let bias_grad = self.bias.grad.data_mut();
        map_reduce_chunks(
            batch,
            out_vol,
            |range| {
                let mut subs = vec![0.0f32; (range.1 - range.0) * out_c];
                for i in range.0..range.1 {
                    let src = grad_out.row(i);
                    let dst = &mut subs[(i - range.0) * out_c..(i - range.0 + 1) * out_c];
                    for (f, d) in dst.iter_mut().enumerate() {
                        *d = simd::sum_slice(&src[f * l..(f + 1) * l]);
                    }
                }
                subs
            },
            |subs| {
                for sub in subs.chunks_exact(out_c) {
                    for (d, s) in bias_grad.iter_mut().zip(sub) {
                        *d += *s;
                    }
                }
            },
        );

        // dW += Σ_i G_i·cols_i, read straight from the channel-major
        // grad_out and the packed planes, samples in ascending order (so
        // batched == stacked per-sample calls bit for bit).
        conv2d_weight_grad_batch_into(grad_out, &planes, &self.geom, self.weight.grad.data_mut());
        drop(planes);

        // dx: shifted runs of grad_out against the filter bank as stored.
        input_grad.then(|| {
            let mut grad_in = vec![0.0; batch * self.geom.in_volume()];
            let w = &self.weight.value;
            conv2d_input_grad_batch_into(grad_out, w, &self.geom, &mut grad_in);
            Tensor::from_vec(Shape::d2(batch, self.geom.in_volume()), grad_in)
                .expect("conv grad_in volume")
        })
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn infer(&self, input: &Tensor, _lock: Option<&[f32]>) -> Tensor {
        self.convolve(input).0
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (out, planes) = self.convolve(input);
        self.cached_planes = train.then_some(planes);
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
        assert_eq!(in_features, self.geom.in_volume(), "conv wiring mismatch");
        self.geom.out_volume()
    }

    fn negate_units(&mut self, factors: &[f32]) {
        let g = self.geom;
        let fan_in = g.col_rows();
        for f in negated_units(factors, g.out_c, g.out_h * g.out_w) {
            // Row f of the `[out_c x fan_in]` filter bank, and bias f.
            for w in &mut self.weight.value.data_mut()[f * fan_in..(f + 1) * fan_in] {
                *w = -*w;
            }
            self.bias.value.data_mut()[f] = -self.bias.value.data()[f];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_tensor::pool::serial_scope;

    fn small_geom() -> Conv2dGeom {
        Conv2dGeom::new(1, 4, 4, 2, 3, 1, 1).unwrap()
    }

    /// A second layer with the same parameters (independent gradients).
    fn twin(conv: &Conv2d) -> Conv2d {
        Conv2d::with_params(
            conv.geom,
            conv.weight.value.clone(),
            conv.bias.value.clone(),
        )
    }

    #[test]
    fn forward_shape() {
        let mut rng = Rng::new(1);
        let mut conv = Conv2d::new(small_geom(), &mut rng);
        let x = Tensor::randn([3, 16], 1.0, &mut rng);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape().dims(), &[3, 2 * 16]);
    }

    #[test]
    fn identity_filter_reproduces_input() {
        // Single 1x1 filter with weight 1, bias 0 on 1 channel = identity.
        let geom = Conv2dGeom::new(1, 3, 3, 1, 1, 1, 0).unwrap();
        let w = Tensor::ones([1, 1]);
        let b = Tensor::zeros([1]);
        let mut conv = Conv2d::with_params(geom, w, b);
        let x = Tensor::from_vec([1usize, 9], (0..9).map(|v| v as f32).collect()).unwrap();
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // All-ones 3x3 kernel, no pad: output = sum of the 3x3 input block.
        let geom = Conv2dGeom::new(1, 3, 3, 1, 3, 1, 0).unwrap();
        let w = Tensor::ones([1, 9]);
        let b = Tensor::from_slice(&[0.5]);
        let mut conv = Conv2d::with_params(geom, w, b);
        let x = Tensor::from_vec([1usize, 9], (1..=9).map(|v| v as f32).collect()).unwrap();
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), &[45.5]);
    }

    #[test]
    fn bias_is_per_filter() {
        let geom = Conv2dGeom::new(1, 2, 2, 2, 1, 1, 0).unwrap();
        let w = Tensor::zeros([2, 1]);
        let b = Tensor::from_slice(&[1.0, -1.0]);
        let mut conv = Conv2d::with_params(geom, w, b);
        let x = Tensor::zeros([1, 4]);
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), &[1., 1., 1., 1., -1., -1., -1., -1.]);
    }

    #[test]
    fn train_and_eval_forward_agree() {
        let mut rng = Rng::new(2);
        let mut conv = Conv2d::new(small_geom(), &mut rng);
        let x = Tensor::randn([5, 16], 1.0, &mut rng);
        let a = conv.forward(&x, true);
        let b = conv.forward(&x, false);
        // Same code path whether or not the packed planes are retained.
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = Rng::new(3);
        let geom = Conv2dGeom::new(2, 4, 4, 3, 3, 1, 1).unwrap();
        let mut conv = Conv2d::new(geom, &mut rng);
        let x = Tensor::randn([2, 32], 1.0, &mut rng);

        let y = conv.forward(&x, true);
        let base = y.sum();
        let grad_out = Tensor::ones(y.shape().clone());
        let dx = conv.backward(&grad_out);

        let eps = 1e-2;
        // Input gradient (sampled positions).
        for i in (0..x.len()).step_by(7) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let fd = (conv.forward(&xp, false).sum() - base) / eps;
            assert!(
                (fd - dx.data()[i]).abs() < 0.05,
                "dx[{i}] fd={fd} an={}",
                dx.data()[i]
            );
        }
        // Weight gradient (sampled positions).
        let dw = conv.weight.grad.clone();
        for i in (0..dw.len()).step_by(11) {
            let orig = conv.weight.value.data()[i];
            conv.weight.value.data_mut()[i] = orig + eps;
            let fd = (conv.forward(&x, false).sum() - base) / eps;
            conv.weight.value.data_mut()[i] = orig;
            assert!(
                (fd - dw.data()[i]).abs() < 0.05 * fd.abs().max(1.0),
                "dw[{i}] fd={fd} an={}",
                dw.data()[i]
            );
        }
        // Bias gradient: each filter sees out_h*out_w*batch ones.
        let db = conv.bias.grad.clone();
        for v in db.data() {
            assert!((v - 32.0).abs() < 1e-3, "db {v}");
        }
    }

    #[test]
    fn batched_matches_per_sample_bitwise() {
        // A 7×7 kernel over 3 channels (147 taps in 19 `dW` blocks) and a
        // partial filter block: a batch-6 call must still equal six
        // batch-1 calls bit for bit.
        let mut rng = Rng::new(11);
        let geom = Conv2dGeom::new(3, 10, 10, 4, 7, 1, 3).unwrap();
        let mut whole = Conv2d::new(geom, &mut rng);
        let mut single = twin(&whole);
        let batch = 6;
        let x = Tensor::randn([batch, geom.in_volume()], 1.0, &mut rng);
        let g = Tensor::randn([batch, geom.out_volume()], 1.0, &mut rng);

        let y = whole.forward(&x, true);
        let dx = whole.backward(&g);

        for i in 0..batch {
            let xi = Tensor::from_vec([1usize, geom.in_volume()], x.row(i).to_vec()).unwrap();
            let gi = Tensor::from_vec([1usize, geom.out_volume()], g.row(i).to_vec()).unwrap();
            let yi = single.forward(&xi, true);
            let dxi = single.backward(&gi);
            assert_eq!(y.row(i), yi.data(), "forward row {i} not bit-identical");
            assert_eq!(dx.row(i), dxi.data(), "dx row {i} not bit-identical");
        }
        assert_eq!(
            whole.weight.grad.data(),
            single.weight.grad.data(),
            "dW not bit-identical"
        );
        assert_eq!(
            whole.bias.grad.data(),
            single.bias.grad.data(),
            "db not bit-identical"
        );
    }

    #[test]
    fn pooled_and_serial_bit_identical() {
        let mut rng = Rng::new(13);
        let geom = Conv2dGeom::new(2, 8, 8, 3, 3, 1, 1).unwrap();
        let mut pooled = Conv2d::new(geom, &mut rng);
        let mut serial = twin(&pooled);
        let batch = 32;
        let x = Tensor::randn([batch, geom.in_volume()], 1.0, &mut rng);
        let g = Tensor::randn([batch, geom.out_volume()], 1.0, &mut rng);

        let yp = pooled.forward(&x, true);
        let dxp = pooled.backward(&g);
        let (ys, dxs) = serial_scope(|| {
            let y = serial.forward(&x, true);
            let dx = serial.backward(&g);
            (y, dx)
        });

        assert_eq!(yp.data(), ys.data());
        assert_eq!(dxp.data(), dxs.data());
        assert_eq!(pooled.weight.grad.data(), serial.weight.grad.data());
        assert_eq!(pooled.bias.grad.data(), serial.bias.grad.data());
    }

    #[test]
    fn param_count() {
        let mut rng = Rng::new(4);
        let mut conv = Conv2d::new(small_geom(), &mut rng);
        // 2 filters × 9 weights + 2 biases.
        assert_eq!(conv.param_count(), 20);
    }

    #[test]
    #[should_panic(expected = "without training forward")]
    fn backward_without_forward_panics() {
        let mut rng = Rng::new(5);
        let mut conv = Conv2d::new(small_geom(), &mut rng);
        let _ = conv.backward(&Tensor::ones([1, 32]));
    }

    #[test]
    #[should_panic(expected = "without training forward")]
    fn backward_params_without_forward_panics() {
        let mut rng = Rng::new(5);
        let mut conv = Conv2d::new(small_geom(), &mut rng);
        conv.backward_params(&Tensor::ones([1, 32]));
    }
}
