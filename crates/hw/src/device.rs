//! The trusted accelerator device: end-to-end locked-model inference on the
//! integer datapath (paper Fig. 1, the authorized end-user's path).
//!
//! A [`LockedModel`] is valid by construction: `from_bytes` and
//! `from_network` both check its weights and schedule against its
//! architecture. The sequencer trusts the type and checks only the input's
//! width, before the first MAC. It then does each piece of work once per
//! layer: weights and the batch's activations are quantized once, the MMU
//! resolves each output's accumulator unit into a [`Routing`] once, and every
//! multiply–accumulate goes through [`Mmu::matmul_tile`] — a dense layer as
//! one tile over the batch, a convolution as one tile per sample over its
//! int8 `im2col` columns. The pass that dequantizes a tile's sums also
//! applies the nonlinearity the layer feeds, so activations cost no pass of
//! their own. Working buffers live in the device and are reused across
//! layers and runs.
//!
//! The MMU's pair-MAC body groups products two by two before it adds them;
//! sums wrap modulo 2³² whatever the grouping, so every logit is the one
//! the product-by-product reference gives, at every SIMD level.
//!
//! Activation scales are per **batch**: a row's device logits depend on the
//! rows it shares a chunk with (the largest magnitude in the batch sets the
//! int8 grid), unlike the float path, whose logits are bit-identical at any
//! batch size.

use std::error::Error;
use std::fmt;

use hpnn_core::{KeyVault, LockedModel, Schedule};
use hpnn_nn::{ActKind, LayerSpec};
use hpnn_tensor::simd::{dispatch, SimdOp};
use hpnn_tensor::{maxpool_plane_into, Conv2dGeom, PoolGeom, Tensor};

use crate::mmu::{KeySource, Mmu, MmuStats, Routing};
use crate::quant::{max_abs, quantize_into, quantize_transposed_into, scale_for};

/// Error running a model on the device.
#[derive(Debug)]
pub enum DeviceError {
    /// The input batch is not `[rows x in_features]` for this model.
    InputShape {
        /// Features per row the model's first layer takes.
        expected: usize,
        /// Dimensions of the tensor passed in.
        got: Vec<usize>,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::InputShape { expected, got } => {
                write!(f, "input must be [rows x {expected}], got {got:?}")
            }
        }
    }
}

impl Error for DeviceError {}

/// Inference statistics of one device run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// MMU counters.
    pub mmu: MmuStats,
    /// Layers executed with key-locked accumulation.
    pub locked_layers: u64,
    /// Layers executed without locking.
    pub unlocked_layers: u64,
}

/// Working memory of the sequencer, kept across layers and runs. Every
/// buffer is sized once, up front, for the largest layer of the run's
/// [`Footprint`], so a run allocates nothing per layer, sample or patch and
/// never regrows a buffer half-way (regrowth leaves holes in the heap that
/// outlive the device).
#[derive(Clone, Default)]
struct Scratch {
    /// Float activations: the current layer's input, its output, and a
    /// residual block's skip branch.
    acts: [Vec<f32>; 3],
    /// The layer's weights, int8, `[outputs x depth]`.
    wq: Vec<i8>,
    /// The layer's input activations, int8 (dense: transposed to
    /// `[in x batch]`, which is already the tile's column matrix).
    xq: Vec<i8>,
    /// One sample's int8 `im2col` columns (convolutions).
    cols: Vec<i8>,
    /// Accumulator unit of each output of the layer's tile (`[neurons x
    /// batch]` for a dense layer, `[neurons]` for a convolution), resolved
    /// against the key register.
    routing: Routing,
    /// Lock factor `(−1)^key[unit]` of each output neuron (all `+1` on an
    /// unlocked layer).
    signs: Vec<f32>,
    /// One tile's accumulator read-out.
    macs: Vec<i32>,
}

/// The largest buffers one run needs, in elements.
#[derive(Debug, Clone, Copy, Default)]
struct Footprint {
    /// Widest activation row, input included.
    width: usize,
    /// Largest weight tensor.
    weights: usize,
    /// Largest per-sample `im2col` matrix.
    cols: usize,
    /// Most output neurons of one MAC layer.
    neurons: usize,
    /// Most outputs of one MMU tile.
    tile: usize,
    /// Whether a residual block needs the skip buffer.
    skip: bool,
}

impl Footprint {
    fn cover_conv(&mut self, conv: &ConvLayer<'_>) {
        let out = conv.geom.out_volume();
        self.width = self.width.max(out);
        self.weights = self.weights.max(conv.layer.w.len());
        self.cols = self.cols.max(conv.geom.col_rows() * conv.geom.col_cols());
        self.neurons = self.neurons.max(out);
        self.tile = self.tile.max(out);
    }
}

impl Scratch {
    /// Grows every buffer to what `batch` rows of `need` take.
    fn reserve(&mut self, need: &Footprint, batch: usize) {
        fn fit<T>(buf: &mut Vec<T>, len: usize) {
            buf.reserve_exact(len.saturating_sub(buf.len()));
        }
        let acts = if need.skip { 3 } else { 2 };
        for act in &mut self.acts[..acts] {
            fit(act, batch * need.width);
        }
        fit(&mut self.wq, need.weights);
        fit(&mut self.xq, batch * need.width);
        fit(&mut self.cols, need.cols);
        fit(&mut self.routing.masks, need.tile);
        fit(&mut self.signs, need.neurons);
        fit(&mut self.macs, need.tile);
    }
}

/// A TPU-like accelerator with (optionally) a sealed HPNN key on chip.
///
/// The device executes [`LockedModel`]s layer by layer: dense and
/// convolution MACs run through the (key-dependent) MMU in int8, pooling and
/// activations run in the on-chip vector unit. When the layer feeding a
/// nonlinearity is computed, its MACs are routed to the accumulator units
/// assigned by the model's schedule, so the key bits flip exactly the
/// neurons the owner locked during training.
///
/// # Examples
///
/// ```no_run
/// use hpnn_core::{HpnnKey, KeyVault, LockedModel};
/// use hpnn_hw::TrustedAccelerator;
/// use hpnn_tensor::Tensor;
///
/// # fn demo(model: &LockedModel, key: HpnnKey, x: &Tensor) -> Result<(), Box<dyn std::error::Error>> {
/// let vault = KeyVault::provision(key, "tpu-0");
/// let mut device = TrustedAccelerator::new(&vault);
/// let logits = device.run(model, x)?;
/// # Ok(())
/// # }
/// ```
///
/// Its `Debug` shows the statistics: nothing derived from the key.
#[derive(Clone)]
pub struct TrustedAccelerator {
    mmu: Mmu,
    stats: DeviceStats,
    scratch: Scratch,
}

impl fmt::Debug for TrustedAccelerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrustedAccelerator")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl TrustedAccelerator {
    fn build(source: KeySource<'_>) -> Self {
        TrustedAccelerator {
            mmu: Mmu::build(source),
            stats: DeviceStats::default(),
            scratch: Scratch::default(),
        }
    }

    /// A trusted device provisioned with a sealed key.
    pub fn new(vault: &KeyVault) -> Self {
        Self::build(KeySource::Vault(vault))
    }

    /// An accelerator with **no key** — the commodity device an attacker
    /// would run stolen weights on. (Key register reads as all zeros.)
    pub fn untrusted() -> Self {
        Self::build(KeySource::None)
    }

    /// Statistics of all runs so far.
    pub fn stats(&self) -> DeviceStats {
        let mut s = self.stats;
        s.mmu = self.mmu.stats();
        s
    }

    /// Runs a batch of flattened samples through the model, returning
    /// logits.
    ///
    /// The input is checked against the model's architecture before any
    /// arithmetic, so a run either fails up front or completes.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InputShape`] for an input that is not a batch
    /// of rows of the model's input width.
    pub fn run(&mut self, model: &LockedModel, inputs: &Tensor) -> Result<Tensor, DeviceError> {
        let (steps, footprint) = plan(model, inputs)?;
        let schedule = model.schedule();
        self.scratch.reserve(&footprint, inputs.shape().rows());
        let [mut x, mut y, mut skip] = std::mem::take(&mut self.scratch.acts);
        x.clear();
        x.extend_from_slice(inputs.data());
        for step in &steps {
            match step {
                Step::Dense(layer) => {
                    self.dense(layer, schedule, &x, &mut y);
                    std::mem::swap(&mut x, &mut y);
                }
                Step::Conv(conv) => {
                    self.conv_with_skip(conv, schedule, &x, None, &mut y);
                    std::mem::swap(&mut x, &mut y);
                }
                // A nonlinearity no MAC layer feeds: the activation module
                // applies it on its own.
                Step::Activation(kind) => apply_activation(&mut x, *kind),
                Step::Pool(geom) => {
                    pool_planes(&x, geom, &mut y);
                    std::mem::swap(&mut x, &mut y);
                }
                // Both internal ReLUs use key-locked accumulation; the skip
                // joins inside the second lock.
                Step::Residual(block) => {
                    self.conv_with_skip(&block.conv1, schedule, &x, None, &mut y);
                    match &block.projection {
                        // The projection runs unlocked — it feeds no
                        // nonlinearity of its own; its output joins relu2's
                        // pre-activation.
                        Some(p) => self.conv_with_skip(p, schedule, &x, None, &mut skip),
                        None => skip.clone_from(&x),
                    }
                    self.conv_with_skip(&block.conv2, schedule, &y, Some(&skip), &mut x);
                }
            }
        }
        let shape = [inputs.shape().rows(), model.spec().out_features()];
        let logits = Tensor::from_vec(shape, x.clone()).expect("one row of logits per input row");
        self.scratch.acts = [x, y, skip];
        Ok(logits)
    }

    /// Argmax predictions for a batch.
    ///
    /// # Errors
    ///
    /// Same as [`run`](TrustedAccelerator::run).
    pub fn predict(
        &mut self,
        model: &LockedModel,
        inputs: &Tensor,
    ) -> Result<Vec<usize>, DeviceError> {
        Ok(self.run(model, inputs)?.argmax_rows())
    }

    /// Classification accuracy on a labeled batch.
    ///
    /// # Errors
    ///
    /// Same as [`run`](TrustedAccelerator::run).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the batch size.
    pub fn accuracy(
        &mut self,
        model: &LockedModel,
        inputs: &Tensor,
        labels: &[usize],
    ) -> Result<f32, DeviceError> {
        let preds = self.predict(model, inputs)?;
        assert_eq!(preds.len(), labels.len(), "label count mismatch");
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f32 / preds.len().max(1) as f32)
    }

    /// Resolves, once per layer, which accumulator unit collects each of the
    /// layer's `neurons` outputs and the lock factor its key bit selects.
    /// A neuron's unit is listed `columns` times in a row: once per tile
    /// output it owns.
    fn route(&mut self, lock: Option<usize>, schedule: &Schedule, neurons: usize, columns: usize) {
        let Scratch { routing, signs, .. } = &mut self.scratch;
        signs.clear();
        match lock {
            Some(base) => {
                self.stats.locked_layers += 1;
                let unit = |j| {
                    u8::try_from(schedule.accumulator_of(j))
                        .expect("schedules map neurons onto the 256 accumulator units")
                };
                let units = (base..base + neurons).map(unit);
                self.mmu
                    .route(units.flat_map(|u| std::iter::repeat_n(u, columns)), routing);
                // A neuron's lock factor is its first output's mask (an
                // empty batch has no outputs, and nothing to lock).
                let firsts = routing.masks.iter().step_by(columns.max(1));
                signs.extend(firsts.map(|&m| if m == 0 { 1.0 } else { -1.0 }));
            }
            None => {
                self.stats.unlocked_layers += 1;
                signs.resize(neurons, 1.0);
            }
        }
    }

    /// `out = L·(x·W + b)` for a `[batch x in]` input: one MMU tile with the
    /// `[out x in]` weights stationary and the batch streamed as columns.
    fn dense(&mut self, layer: &MacLayer<'_>, schedule: &Schedule, x: &[f32], out: &mut Vec<f32>) {
        let (in_f, out_f) = (layer.w.shape().rows(), layer.w.shape().cols());
        let batch = x.len() / in_f;
        self.route(layer.lock(), schedule, out_f, batch);
        let Scratch {
            wq,
            xq,
            routing,
            signs,
            macs,
            ..
        } = &mut self.scratch;

        // Quantize the weight matrix per-layer and activations per-batch,
        // each straight into the transposed layout the tile reads.
        let w_scale = scale_for(max_abs(layer.w.data()));
        wq.resize(in_f * out_f, 0);
        quantize_transposed_into(layer.w.data(), in_f, out_f, w_scale, wq);
        let x_scale = scale_for(max_abs(x));
        xq.resize(x.len(), 0);
        quantize_transposed_into(x, batch, in_f, x_scale, xq);
        let out_scale = w_scale * x_scale;

        macs.resize(out_f * batch, 0);
        let routing = layer.feeds.map(|_| &*routing);
        self.mmu.matmul_tile(wq, xq, in_f, routing, macs);

        out.resize(batch * out_f, 0.0);
        let pass = DenseOut {
            macs,
            signs,
            bias: layer.b.data(),
            scale: out_scale,
            out,
        };
        dequantize(layer.act(), pass);
    }

    /// Convolution with an optional per-sample skip addend (`[batch x
    /// out_volume]`) that joins the pre-activation *inside* the lock: the
    /// output is `f(L·(conv(x) + b + skip))`, matching a residual block's
    /// second ReLU `f(L·(main + skip))`, with `f` the nonlinearity the layer
    /// feeds (the identity if none). One MMU tile per sample: the filter
    /// bank stationary, the sample's receptive fields as columns.
    fn conv_with_skip(
        &mut self,
        conv: &ConvLayer<'_>,
        schedule: &Schedule,
        x: &[f32],
        skip: Option<&[f32]>,
        out: &mut Vec<f32>,
    ) {
        let ConvLayer { layer, geom } = conv;
        let (depth, ncols) = (geom.col_rows(), geom.col_cols());
        let (in_vol, out_vol) = (geom.in_volume(), geom.out_volume());
        self.route(layer.lock(), schedule, out_vol, 1);
        let Scratch {
            wq,
            xq,
            cols,
            routing,
            signs,
            macs,
            ..
        } = &mut self.scratch;

        // The filter bank is stored `[out_c x depth]`, the tile's layout.
        let w_scale = scale_for(max_abs(layer.w.data()));
        wq.resize(layer.w.len(), 0);
        quantize_into(layer.w.data(), w_scale, wq);
        // One activation scale per batch (shared by all patches).
        // Quantization is elementwise and padding quantizes to zero, so
        // quantizing the image and unrolling int8 gives the values that
        // unrolling floats and quantizing every patch would.
        let x_scale = scale_for(max_abs(x));
        xq.resize(x.len(), 0);
        quantize_into(x, x_scale, xq);
        let out_scale = w_scale * x_scale;

        cols.resize(depth * ncols, 0);
        macs.resize(out_vol, 0);
        out.resize(x.len() / in_vol * out_vol, 0.0);
        let routing = layer.feeds.map(|_| &*routing);
        for (s, (sample, out_row)) in xq
            .chunks_exact(in_vol)
            .zip(out.chunks_exact_mut(out_vol))
            .enumerate()
        {
            im2col_i8(sample, geom, cols);
            self.mmu.matmul_tile(wq, cols, depth, routing, macs);
            let pass = ConvOut {
                macs,
                signs,
                bias: layer.b.data(),
                skip: skip.map(|t| &t[s * out_vol..(s + 1) * out_vol]),
                scale: out_scale,
                ncols,
                out: out_row,
            };
            dequantize(layer.act(), pass);
        }
    }
}

/// A pass that turns a tile's sums into a layer's outputs,
/// `f(pre-activation)` each, with `f` the nonlinearity the layer feeds.
/// [`dequantize`] builds it once per kind of `f` and SIMD level, so its
/// loop inlines `f`, matches on no kind per element, and vectorizes.
trait Dequantize {
    fn run(self, f: impl Fn(f32) -> f32);
}

/// Runs `pass` with the nonlinearity `act` (the identity if none).
fn dequantize(act: Option<ActKind>, pass: impl Dequantize) {
    match act {
        None => dispatch(Epilogue { pass, f: |z| z }),
        Some(ActKind::Relu) => dispatch(Epilogue {
            pass,
            f: |z| ActKind::Relu.eval(z),
        }),
        Some(ActKind::Sigmoid) => dispatch(Epilogue {
            pass,
            f: |z| ActKind::Sigmoid.eval(z),
        }),
        Some(ActKind::Tanh) => dispatch(Epilogue {
            pass,
            f: |z| ActKind::Tanh.eval(z),
        }),
    }
}

/// A [`Dequantize`] pass with its nonlinearity, as one SIMD-dispatched
/// body: the f32 operations of every element are those of the portable
/// loop at every level.
struct Epilogue<P, F> {
    pass: P,
    f: F,
}

impl<P: Dequantize, F: Fn(f32) -> f32> SimdOp for Epilogue<P, F> {
    type Output = ();

    #[inline(always)]
    fn eval(self) {
        self.pass.run(self.f);
    }
}

/// A dense layer's `[out x batch]` tile into `[batch x out]` rows.
struct DenseOut<'a> {
    macs: &'a [i32],
    /// Lock factor of each output neuron.
    signs: &'a [f32],
    bias: &'a [f32],
    scale: f32,
    out: &'a mut [f32],
}

impl Dequantize for DenseOut<'_> {
    #[inline(always)]
    fn run(self, f: impl Fn(f32) -> f32) {
        let out_f = self.bias.len();
        let batch = self.macs.len() / out_f;
        for (s, row) in self.out.chunks_exact_mut(out_f).enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                let mac = self.macs[j * batch + s] as f32 * self.scale;
                // The lock factor covers the whole pre-activation, bias
                // included: f(L·(Wx + b)) ⇒ add L·b after the locked MAC.
                *v = f(mac + self.signs[j] * self.bias[j]);
            }
        }
    }
}

/// One sample's `[out_c x ncols]` convolution tile, with the sample's skip
/// addend joining inside the lock.
struct ConvOut<'a> {
    macs: &'a [i32],
    /// Lock factor of each output.
    signs: &'a [f32],
    bias: &'a [f32],
    skip: Option<&'a [f32]>,
    scale: f32,
    ncols: usize,
    out: &'a mut [f32],
}

impl Dequantize for ConvOut<'_> {
    #[inline(always)]
    fn run(self, f: impl Fn(f32) -> f32) {
        let ncols = self.ncols;
        let planes = self
            .out
            .chunks_exact_mut(ncols)
            .zip(self.macs.chunks_exact(ncols))
            .zip(self.signs.chunks_exact(ncols))
            .zip(self.bias);
        for (c, (((plane, macs), signs), &b)) in planes.enumerate() {
            let outs = plane.iter_mut().zip(macs).zip(signs);
            match self.skip {
                Some(skip) => {
                    for (((v, &mac), &sign), &s) in outs.zip(&skip[c * ncols..][..ncols]) {
                        *v = f(mac as f32 * self.scale + sign * (b + s));
                    }
                }
                None => {
                    // `b + 0.0` (not `b`: it turns a bias of -0.0 into +0.0)
                    // is the pre-activation without a skip branch.
                    let b = b + 0.0;
                    for ((v, &mac), &sign) in outs {
                        *v = f(mac as f32 * self.scale + sign * b);
                    }
                }
            }
        }
    }
}

/// A dense or convolution layer's parameters.
#[derive(Debug)]
struct MacLayer<'m> {
    w: &'m Tensor,
    b: &'m Tensor,
    /// The lockable nonlinearity that consumes the outputs; `None` runs
    /// unlocked and leaves them linear.
    feeds: Option<Feeds>,
}

/// The nonlinearity a MAC layer feeds: its neurons are locked, and the
/// layer's dequantizing pass applies it.
#[derive(Debug, Clone, Copy)]
struct Feeds {
    /// Schedule index of the layer's first output neuron.
    first: usize,
    kind: ActKind,
}

impl MacLayer<'_> {
    fn lock(&self) -> Option<usize> {
        self.feeds.map(|f| f.first)
    }

    fn act(&self) -> Option<ActKind> {
        self.feeds.map(|f| f.kind)
    }
}

#[derive(Debug)]
struct ConvLayer<'m> {
    layer: MacLayer<'m>,
    geom: Conv2dGeom,
}

/// One layer of a run, as the sequencer executes it.
#[derive(Debug)]
enum Step<'m> {
    Dense(MacLayer<'m>),
    Conv(ConvLayer<'m>),
    Activation(ActKind),
    Pool(PoolGeom),
    Residual(Box<ResidualBlock<'m>>),
}

/// Two 3×3 convolutions feeding locked ReLUs, and the 1×1 projection of the
/// skip branch when the block changes shape.
#[derive(Debug)]
struct ResidualBlock<'m> {
    conv1: ConvLayer<'m>,
    projection: Option<ConvLayer<'m>>,
    conv2: ConvLayer<'m>,
}

/// Walks the model's weight list in architecture order.
struct Params<'m> {
    weights: std::slice::Iter<'m, Tensor>,
}

impl<'m> Params<'m> {
    /// The next `(weight, bias)` pair.
    fn take(&mut self, feeds: Option<Feeds>) -> MacLayer<'m> {
        let mut next = || {
            let tensor = self.weights.next();
            tensor.expect("a LockedModel holds every tensor its architecture declares")
        };
        let (w, b) = (next(), next());
        MacLayer { w, b, feeds }
    }

    fn take_conv(&mut self, geom: Conv2dGeom, feeds: Option<Feeds>) -> ConvLayer<'m> {
        let layer = self.take(feeds);
        ConvLayer { layer, geom }
    }
}

/// Checks the input's width and returns the run as a list of steps the
/// sequencer executes, with the buffer sizes they need. The model's own
/// weights and schedule fit its architecture by construction.
fn plan<'m>(
    model: &'m LockedModel,
    inputs: &Tensor,
) -> Result<(Vec<Step<'m>>, Footprint), DeviceError> {
    let spec = model.spec();
    let dims = inputs.shape().dims();
    if dims.len() != 2 || dims[1] != spec.in_features {
        return Err(DeviceError::InputShape {
            expected: spec.in_features,
            got: dims.to_vec(),
        });
    }
    let mut params = Params {
        weights: model.weights().iter(),
    };
    let mut steps = Vec::with_capacity(spec.layers.len());
    let mut width = spec.in_features;
    let mut need = Footprint {
        width,
        ..Footprint::default()
    };
    // Lockable neurons seen so far: the schedule index of the next one.
    let mut neurons = 0usize;
    for (i, layer) in spec.layers.iter().enumerate() {
        let feeds = match spec.layers.get(i + 1) {
            Some(&LayerSpec::Activation { kind, .. }) => Some(Feeds {
                first: neurons,
                kind,
            }),
            _ => None,
        };
        let step = match *layer {
            LayerSpec::Dense { out_features, .. } => {
                let layer = params.take(feeds);
                need.weights = need.weights.max(layer.w.len());
                need.neurons = need.neurons.max(out_features);
                need.tile = need.tile.max(out_features * dims[0]);
                Step::Dense(layer)
            }
            LayerSpec::Conv2d { geom } => {
                let conv = params.take_conv(geom, feeds);
                need.cover_conv(&conv);
                Step::Conv(conv)
            }
            LayerSpec::Activation { kind, features } => {
                neurons += features;
                Step::Activation(kind)
            }
            LayerSpec::MaxPool2d { geom, .. } => Step::Pool(geom),
            LayerSpec::Residual {
                in_c,
                h,
                w,
                out_c,
                stride,
            } => {
                let geom = |c, h, w, k, s, p| {
                    Conv2dGeom::new(c, h, w, out_c, k, s, p)
                        .expect("a LockedModel's residual geometries are valid")
                };
                let g1 = geom(in_c, h, w, 3, stride, 1);
                let g2 = geom(out_c, g1.out_h, g1.out_w, 3, 1, 1);
                let relu = |first| {
                    Some(Feeds {
                        first,
                        kind: ActKind::Relu,
                    })
                };
                let conv1 = params.take_conv(g1, relu(neurons));
                let conv2 = params.take_conv(g2, relu(neurons + g1.out_volume()));
                let projection = if in_c != out_c || stride != 1 {
                    Some(params.take_conv(geom(in_c, h, w, 1, stride, 0), None))
                } else {
                    None
                };
                neurons += 2 * g1.out_volume();
                need.skip = true;
                for conv in [Some(&conv1), projection.as_ref(), Some(&conv2)]
                    .into_iter()
                    .flatten()
                {
                    need.cover_conv(conv);
                }
                Step::Residual(Box::new(ResidualBlock {
                    conv1,
                    projection,
                    conv2,
                }))
            }
        };
        width = layer.out_features(width);
        need.width = need.width.max(width);
        // The MAC layer before an activation applies it as it dequantizes
        // (the layer, not the last step: a second activation in a row has
        // no MAC layer to fold into).
        let applied = matches!(step, Step::Activation(_))
            && matches!(
                i.checked_sub(1).map(|j| &spec.layers[j]),
                Some(LayerSpec::Dense { .. } | LayerSpec::Conv2d { .. })
            );
        if !applied {
            steps.push(step);
        }
    }
    Ok((steps, need))
}

fn apply_activation(x: &mut [f32], kind: ActKind) {
    for v in x {
        *v = kind.eval(*v);
    }
}

/// Max-pools every channel plane of a `[batch x channels·plane]` buffer.
fn pool_planes(x: &[f32], geom: &PoolGeom, out: &mut Vec<f32>) {
    let (in_plane, out_plane) = (geom.in_h * geom.in_w, geom.out_h * geom.out_w);
    out.resize(x.len() / in_plane * out_plane, 0.0);
    maxpool_plane_into(x, geom, out, None);
}

/// [`hpnn_tensor::im2col`] on a quantized sample: unrolls `[C x H x W]` into
/// the column matrix `[C·K·K x OH·OW]`, padding with the quantized zero.
/// Every element of `out` is written.
fn im2col_i8(sample: &[i8], geom: &Conv2dGeom, out: &mut [i8]) {
    let (k, stride, pad) = (geom.kernel, geom.stride, geom.pad);
    let (h, w, ow) = (geom.in_h, geom.in_w, geom.out_w);
    let ncols = geom.col_cols();
    let rows = out.chunks_exact_mut(ncols);
    let taps = sample
        .chunks_exact(h * w)
        .flat_map(|plane| (0..k * k).map(move |tap| (plane, tap / k, tap % k)));
    for (out_row, (plane, ky, kx)) in rows.zip(taps) {
        // Output columns whose tap `ox·stride + kx − pad` lands in the image.
        let lo = pad.saturating_sub(kx).div_ceil(stride).min(ow);
        let hi = (w + pad).saturating_sub(kx).div_ceil(stride).clamp(lo, ow);
        if stride == 1 && ow == w {
            // Output and input rows have one pitch, so the whole row of the
            // column matrix is the plane shifted by a constant: one copy of
            // the part that stays inside the plane, instead of one per
            // image row. What the shift wraps round a row end lands in the
            // edge columns, which are padding and zeroed below.
            let (to, from) = (pad * w + pad, ky * w + kx);
            let skip = to.saturating_sub(from).min(ncols);
            let shift = from.saturating_sub(to).min(h * w);
            let len = (ncols - skip).min(h * w - shift);
            let (above, rest) = out_row.split_at_mut(skip);
            let (inside, below) = rest.split_at_mut(len);
            above.fill(0);
            inside.copy_from_slice(&plane[shift..shift + len]);
            below.fill(0);
            for edge in (0..lo).chain(hi..ow) {
                out_row[edge..].iter_mut().step_by(ow).for_each(|d| *d = 0);
            }
            continue;
        }
        for (oy, dst) in out_row.chunks_exact_mut(ow).enumerate() {
            let iy = oy * stride + ky;
            if iy < pad || iy - pad >= h {
                dst.fill(0);
                continue;
            }
            let src = &plane[(iy - pad) * w..(iy - pad + 1) * w];
            dst[..lo].fill(0);
            dst[hi..].fill(0);
            if lo < hi {
                let first = lo * stride + kx - pad;
                for (d, &v) in dst[lo..hi]
                    .iter_mut()
                    .zip(src[first..].iter().step_by(stride))
                {
                    *d = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_core::{sha256, DecodeError, HpnnKey, HpnnTrainer, ScheduleKind};
    use hpnn_data::{Benchmark, DatasetScale};
    use hpnn_nn::{cnn1, mlp, ImageDims, NetworkSpec, TrainConfig};
    use hpnn_tensor::simd::{self, SimdLevel};
    use hpnn_tensor::{im2col, Rng};

    fn trained_mlp_model() -> (LockedModel, HpnnKey, hpnn_data::Dataset) {
        let ds = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
        let spec = mlp(ds.shape.volume(), &[32], ds.classes);
        let mut rng = Rng::new(1);
        let key = HpnnKey::random(&mut rng);
        let artifacts = HpnnTrainer::new(spec, key)
            .with_config(TrainConfig::default().with_epochs(16).with_lr(0.05))
            .with_seed(4)
            .train(&ds)
            .unwrap();
        (artifacts.model, key, ds)
    }

    #[test]
    fn trusted_device_matches_float_path() {
        let (model, key, ds) = trained_mlp_model();
        let vault = KeyVault::provision(key, "tpu");
        let mut device = TrustedAccelerator::new(&vault);
        let device_acc = device
            .accuracy(&model, &ds.test_inputs, &ds.test_labels)
            .unwrap();
        let mut float_net = model.deploy_with_key(&key).unwrap();
        let float_acc = float_net.accuracy(&ds.test_inputs, &ds.test_labels);
        assert!(
            (device_acc - float_acc).abs() < 0.08,
            "device {device_acc} vs float {float_acc}"
        );
        assert!(device_acc > 0.5, "device accuracy {device_acc}");
    }

    #[test]
    fn untrusted_device_collapses() {
        let (model, key, ds) = trained_mlp_model();
        let vault = KeyVault::provision(key, "tpu");
        let mut trusted = TrustedAccelerator::new(&vault);
        let mut untrusted = TrustedAccelerator::untrusted();
        let good = trusted
            .accuracy(&model, &ds.test_inputs, &ds.test_labels)
            .unwrap();
        let bad = untrusted
            .accuracy(&model, &ds.test_inputs, &ds.test_labels)
            .unwrap();
        assert!(good - bad > 0.2, "trusted {good} vs untrusted {bad}");
    }

    #[test]
    fn wrong_key_device_degrades() {
        let (model, key, ds) = trained_mlp_model();
        let wrong_vault = KeyVault::provision(HpnnKey::from_words([u64::MAX; 4]), "fake");
        let right_vault = KeyVault::provision(key, "tpu");
        let mut right = TrustedAccelerator::new(&right_vault);
        let mut wrong = TrustedAccelerator::new(&wrong_vault);
        let good = right
            .accuracy(&model, &ds.test_inputs, &ds.test_labels)
            .unwrap();
        let bad = wrong
            .accuracy(&model, &ds.test_inputs, &ds.test_labels)
            .unwrap();
        assert!(good > bad, "right {good} vs wrong {bad}");
    }

    #[test]
    fn cnn_runs_on_device() {
        let ds = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
        let dims = ImageDims::new(ds.shape.c, ds.shape.h, ds.shape.w);
        let spec = cnn1(dims, ds.classes, 0.5).unwrap();
        let mut rng = Rng::new(2);
        let key = HpnnKey::random(&mut rng);
        let artifacts = HpnnTrainer::new(spec, key)
            .with_schedule(ScheduleKind::RoundRobin, 0)
            .with_config(TrainConfig::default().with_epochs(2).with_lr(0.03))
            .train(&ds)
            .unwrap();
        let vault = KeyVault::provision(key, "tpu");
        let mut device = TrustedAccelerator::new(&vault);
        // Device must agree with the float path on most predictions.
        let probe_idx: Vec<usize> = (0..24).collect();
        let probe = ds.test_inputs.gather_rows(&probe_idx);
        let device_preds = device.predict(&artifacts.model, &probe).unwrap();
        let mut float_net = artifacts.model.deploy_with_key(&key).unwrap();
        let float_preds = float_net.predict(&probe);
        let agree = device_preds
            .iter()
            .zip(&float_preds)
            .filter(|(a, b)| a == b)
            .count();
        assert!(agree >= 18, "only {agree}/24 predictions agree");
    }

    #[test]
    fn residual_network_runs_on_device() {
        // Device int8 residual path must closely track the float path.
        let ds = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
        let dims = ImageDims::new(1, ds.shape.h, ds.shape.w);
        let spec = hpnn_nn::resnet(dims, ds.classes, 0.25).unwrap();
        let mut rng = Rng::new(3);
        let key = HpnnKey::random(&mut rng);
        let trainer =
            HpnnTrainer::new(spec.clone(), key).with_schedule(ScheduleKind::RoundRobin, 0);
        let mut net = trainer.build_locked_network(&mut rng).unwrap();
        let model =
            LockedModel::from_network(spec, &mut net, trainer.schedule(), Default::default());
        let vault = KeyVault::provision(key, "tpu");
        let mut device = TrustedAccelerator::new(&vault);
        let probe_idx: Vec<usize> = (0..16).collect();
        let probe = ds.test_inputs.gather_rows(&probe_idx);
        let device_preds = device.predict(&model, &probe).unwrap();
        let mut float_net = model.deploy_with_key(&key).unwrap();
        let float_preds = float_net.predict(&probe);
        let agree = device_preds
            .iter()
            .zip(&float_preds)
            .filter(|(a, b)| a == b)
            .count();
        assert!(agree >= 12, "only {agree}/16 residual predictions agree");
    }

    #[test]
    fn residual_untrusted_device_differs() {
        let ds = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
        let dims = ImageDims::new(1, ds.shape.h, ds.shape.w);
        let spec = hpnn_nn::resnet(dims, ds.classes, 0.25).unwrap();
        let mut rng = Rng::new(4);
        let key = HpnnKey::random(&mut rng);
        let trainer = HpnnTrainer::new(spec.clone(), key);
        let mut net = trainer.build_locked_network(&mut rng).unwrap();
        let model =
            LockedModel::from_network(spec, &mut net, trainer.schedule(), Default::default());
        let vault = KeyVault::provision(key, "tpu");
        let mut trusted = TrustedAccelerator::new(&vault);
        let mut untrusted = TrustedAccelerator::untrusted();
        let probe_idx: Vec<usize> = (0..8).collect();
        let probe = ds.test_inputs.gather_rows(&probe_idx);
        let yt = trusted.run(&model, &probe).unwrap();
        let yu = untrusted.run(&model, &probe).unwrap();
        assert!(
            yt.max_abs_diff(&yu) > 1e-4,
            "key must matter on residual path"
        );
    }

    #[test]
    fn stats_accumulate() {
        let (model, key, ds) = trained_mlp_model();
        let vault = KeyVault::provision(key, "tpu");
        let mut device = TrustedAccelerator::new(&vault);
        let probe_idx: Vec<usize> = (0..4).collect();
        let probe = ds.test_inputs.gather_rows(&probe_idx);
        device.run(&model, &probe).unwrap();
        let stats = device.stats();
        assert!(stats.mmu.macs > 0);
        assert_eq!(stats.locked_layers, 1);
        assert_eq!(stats.unlocked_layers, 1);
    }

    /// A published model with freshly initialized (untrained) weights.
    fn untrained_model(spec: NetworkSpec, seed: u64) -> (LockedModel, HpnnKey) {
        let mut rng = Rng::new(seed);
        let key = HpnnKey::random(&mut rng);
        let trainer = HpnnTrainer::new(spec.clone(), key).with_schedule(ScheduleKind::Permuted, 3);
        let mut net = trainer.build_locked_network(&mut rng).unwrap();
        let model =
            LockedModel::from_network(spec, &mut net, trainer.schedule(), Default::default());
        (model, key)
    }

    #[test]
    fn an_activation_folds_only_into_the_mac_layer_before_it() {
        // A MAC layer's dequantizing pass applies the activation it feeds;
        // a second activation in a row has no MAC layer to fold into and
        // stays a step of its own.
        let act = |kind| LayerSpec::Activation { kind, features: 6 };
        let spec = NetworkSpec::new(
            4,
            vec![
                LayerSpec::Dense {
                    in_features: 4,
                    out_features: 6,
                },
                act(ActKind::Relu),
                act(ActKind::Tanh),
                LayerSpec::Dense {
                    in_features: 6,
                    out_features: 3,
                },
            ],
        );
        let (model, _) = untrained_model(spec, 8);
        let (steps, _) = plan(&model, &Tensor::zeros([2, 4])).unwrap();
        let folded = match steps.as_slice() {
            [Step::Dense(first), Step::Activation(ActKind::Tanh), Step::Dense(last)] => {
                (first.act(), last.act())
            }
            _ => panic!("unexpected steps {steps:?}"),
        };
        assert_eq!(folded, (Some(ActKind::Relu), None));
    }

    #[test]
    fn cnn1_row_statistics_are_pinned() {
        // What the simulator reports for one 28x28 CNN1 row is a property of
        // the modeled hardware: conv 8·9·784 + conv 16·72·196 + dense 10·784
        // MACs over 6272 + 3136 + 10 dot products, one fill cycle each. A
        // faster simulator must not move any of it.
        let spec = cnn1(ImageDims::new(1, 28, 28), 10, 1.0).unwrap();
        let (model, key) = untrained_model(spec, 5);
        let vault = KeyVault::provision(key, "tpu");
        let row = Tensor::randn([1, 784], 1.0, &mut Rng::new(6));
        let mut device = TrustedAccelerator::new(&vault);
        device.run(&model, &row).unwrap();
        let want = DeviceStats {
            mmu: MmuStats {
                macs: 290_080,
                dot_products: 9_418,
                cycles: 299_498,
            },
            locked_layers: 2,
            unlocked_layers: 1,
        };
        assert_eq!(device.stats(), want);
    }

    #[test]
    fn device_logits_are_pinned() {
        // SHA-256 of the logits' f32 bits on untrained, seeded models: a
        // 64-row 28x28 CNN1 chunk (conv tiles at n = 784 and 196, the dense
        // tile at n = 64), the 12x12 residual stack and a 17-row MLP. A
        // reordered dequantization or a moved activation shows here. It must
        // hold at every SIMD level and thread count.
        let image = ImageDims::new(1, 28, 28);
        let small = ImageDims::new(1, 12, 12);
        let cases = [
            (
                "cnn1",
                cnn1(image, 10, 1.0).unwrap(),
                64,
                "4c7541347cb42317dee6fae6258a4dcdde1e68b87c730684c22f331bdf50d819",
            ),
            (
                "resnet",
                hpnn_nn::resnet(small, 10, 0.25).unwrap(),
                9,
                "0a95f860868d807535f153cbac2b1e3fd3c2712910da6b5591ceb0122bf62b02",
            ),
            (
                "mlp",
                mlp(144, &[20, 13], 10),
                17,
                "38e39a449da86fe8b876c11cf6f50cf24ec6f844b68fae0a3cbd108683b84a2d",
            ),
        ];
        for (i, (name, spec, rows, want)) in cases.into_iter().enumerate() {
            let (model, key) = untrained_model(spec, 40 + i as u64);
            let vault = KeyVault::provision(key, "tpu");
            let width = model.spec().in_features;
            let x = Tensor::randn([rows, width], 1.0, &mut Rng::new(50 + i as u64));
            for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                let _guard = simd::force(level);
                let logits = TrustedAccelerator::new(&vault).run(&model, &x).unwrap();
                let bits: Vec<u8> = logits
                    .data()
                    .iter()
                    .flat_map(|v| v.to_bits().to_le_bytes())
                    .collect();
                assert_eq!(sha256(&bits).to_string(), want, "{name} at {level:?}");
            }
        }
    }

    #[test]
    fn debug_output_does_not_depend_on_the_key() {
        // `{:?}` of a device, its MMU or a routing shows statistics:
        // neither the key register nor the masks and lock factors the
        // sequencer derives from it.
        let spec = cnn1(ImageDims::new(1, 12, 12), 5, 0.5).unwrap();
        let (model, key) = untrained_model(spec, 12);
        let other = HpnnKey::from_words(key.words().map(|w| !w));
        let (vault, other_vault) = (
            KeyVault::provision(key, "tpu"),
            KeyVault::provision(other, "tpu"),
        );
        let mut a = TrustedAccelerator::new(&vault);
        let mut b = TrustedAccelerator::new(&other_vault);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let x = Tensor::randn([3, 144], 1.0, &mut Rng::new(13));
        a.run(&model, &x).unwrap();
        b.run(&model, &x).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(format!("{a:?}").contains("macs"), "{a:?}");

        let mmus = [&key, &other].map(|k| Mmu::build(KeySource::Key(k)));
        let routings = mmus.each_ref().map(|mmu| {
            let mut routing = Routing::default();
            mmu.route(0..=u8::MAX, &mut routing);
            routing
        });
        assert_eq!(format!("{:?}", mmus[0]), format!("{:?}", mmus[1]));
        assert_eq!(format!("{:?}", routings[0]), format!("{:?}", routings[1]));
    }

    #[test]
    fn footprint_covers_every_buffer_of_a_run() {
        // A buffer the footprint undersizes regrows mid-run: still correct,
        // but it leaves the hole in the heap that sizing up front avoids.
        let dims = ImageDims::new(1, 12, 12);
        let specs = [
            mlp(144, &[20], 5),
            cnn1(dims, 5, 0.5).unwrap(),
            hpnn_nn::resnet(dims, 5, 0.25).unwrap(),
        ];
        for (i, spec) in specs.into_iter().enumerate() {
            let (model, key) = untrained_model(spec, 20 + i as u64);
            let vault = KeyVault::provision(key, "tpu");
            let mut device = TrustedAccelerator::new(&vault);
            let x = Tensor::randn([3, 144], 1.0, &mut Rng::new(30));
            let (_, need) = plan(&model, &x).unwrap();
            device.scratch.reserve(&need, 3);
            let capacities = |s: &Scratch| {
                let mut acts = s.acts.each_ref().map(Vec::capacity);
                acts.sort_unstable();
                let bytes = [s.wq.capacity(), s.xq.capacity(), s.cols.capacity()];
                (
                    acts,
                    bytes,
                    s.routing.masks.capacity(),
                    s.signs.capacity(),
                    s.macs.capacity(),
                )
            };
            let sized = capacities(&device.scratch);
            device.run(&model, &x).unwrap();
            assert_eq!(capacities(&device.scratch), sized, "model {i}");
        }
    }

    /// Bytes of the weight list at the end of `model`'s container.
    fn weights_section_len(model: &LockedModel) -> usize {
        let tensor = |t: &Tensor| 8 + 8 * t.shape().rank() + 8 + 4 * t.len();
        8 + model.weights().iter().map(tensor).sum::<usize>()
    }

    #[test]
    fn hostile_containers_and_inputs_are_errors_not_panics() {
        let (model, key) = untrained_model(mlp(8, &[6], 3), 7);
        let vault = KeyVault::provision(key, "tpu");
        let mut device = TrustedAccelerator::new(&vault);
        let x = Tensor::randn([2, 8], 1.0, &mut Rng::new(8));
        assert!(device.run(&model, &x).is_ok());
        let honest = model.to_bytes().to_vec();

        // The last tensor is the 3-entry output bias: `rank, dim, len, data`.
        // Re-encoded with two entries, the container no longer decodes, so
        // no device ever runs it.
        let mut bytes = honest.clone();
        let end = bytes.len();
        bytes[end - 28..end - 20].copy_from_slice(&2u64.to_le_bytes());
        bytes[end - 20..end - 12].copy_from_slice(&2u64.to_le_bytes());
        bytes.truncate(end - 4);
        let err = LockedModel::from_bytes(&bytes[..]).unwrap_err();
        assert!(
            matches!(err, DecodeError::ShapeMismatch { tensor: 3, .. }),
            "{err}"
        );

        // The schedule (`kind, neurons, seed`) sits just before the weights;
        // one covering five of the six locked neurons does not decode either.
        let mut bytes = honest.clone();
        let neurons_at = end - weights_section_len(&model) - 16;
        assert_eq!(bytes[neurons_at..neurons_at + 8], 6u64.to_le_bytes());
        bytes[neurons_at..neurons_at + 8].copy_from_slice(&5u64.to_le_bytes());
        let err = LockedModel::from_bytes(&bytes[..]).unwrap_err();
        assert!(
            matches!(err, DecodeError::CountMismatch { declared: 5, .. }),
            "{err}"
        );

        // Inputs narrower and wider than the first layer, dense and conv,
        // and one that is not a batch of rows at all.
        let spec = cnn1(ImageDims::new(1, 8, 8), 3, 0.5).unwrap();
        let (conv_model, _) = untrained_model(spec, 9);
        for (model, width) in [(&model, 8usize), (&conv_model, 64)] {
            for got in [width - 1, width + 1, 2 * width] {
                let err = device.run(model, &Tensor::zeros([2, got])).unwrap_err();
                assert!(
                    matches!(err, DeviceError::InputShape { expected, .. } if expected == width),
                    "{err}"
                );
            }
            let err = device.run(model, &Tensor::zeros([width])).unwrap_err();
            assert!(matches!(err, DeviceError::InputShape { .. }), "{err}");
        }
        // None of the rejected runs reached the MMU.
        let mut fresh = TrustedAccelerator::new(&vault);
        fresh.run(&model, &x).unwrap();
        assert_eq!(device.stats(), fresh.stats());
        // An empty batch is a valid input with an empty answer.
        let none = device.run(&model, &Tensor::zeros([0, 8])).unwrap();
        assert_eq!(none.shape().dims(), &[0, 3]);
        assert_eq!(device.stats().mmu, fresh.stats().mmu);
    }

    #[test]
    fn quantize_then_int8_im2col_equals_im2col_then_quantize() {
        // Padded and strided, with a kernel wider than the stride and one
        // that is not: every column the MMU streams must hold the values the
        // per-patch quantizer produced.
        let mut rng = Rng::new(10);
        for (c, h, w, kernel, stride, pad) in [
            (2, 7, 6, 3, 2, 1),
            (2, 5, 6, 3, 1, 1),
            (1, 6, 4, 5, 1, 2),
            (1, 3, 3, 7, 1, 3),
            (3, 6, 6, 1, 2, 0),
            (2, 4, 4, 1, 1, 0),
            (1, 4, 5, 2, 3, 2),
            (1, 5, 5, 3, 1, 0),
        ] {
            let geom = Conv2dGeom::new(c, h, w, 1, kernel, stride, pad).unwrap();
            let sample: Vec<f32> = (0..geom.in_volume())
                .map(|_| rng.uniform(-2.0, 2.0))
                .collect();
            let scale = scale_for(max_abs(&sample));
            let quantize = |data: &[f32]| {
                let mut q = vec![0i8; data.len()];
                quantize_into(data, scale, &mut q);
                q
            };
            let want = quantize(im2col(&sample, &geom).data());
            let mut got = vec![i8::MIN; geom.col_rows() * geom.col_cols()];
            im2col_i8(&quantize(&sample), &geom, &mut got);
            assert_eq!(got, want, "c={c} {h}x{w} k={kernel} s={stride} p={pad}");
        }
    }
}
