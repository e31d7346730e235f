//! Convolution geometry and the direct convolution kernels.
//!
//! A convolution is computed where its input lies, without an unrolled
//! column matrix. Each sample's zero-padded input planes are packed once
//! ([`conv2d_pack_batch`]); every tap `(c, ky, kx)` of the filter bank is
//! then a contiguous, shifted read of that buffer. The forward
//! ([`conv2d_forward_batch_into`]) and the weight gradient
//! ([`conv2d_weight_grad_batch_into`]) both run over the packed planes, and
//! the input gradient ([`conv2d_input_grad_batch_into`]) reads each
//! sample's output gradient the same way, from zero-padded gradient
//! planes. [`im2col`] keeps the classical per-sample unroll as the
//! reference.
//!
//! # Packed planes
//!
//! With stride 1 a sample packs to one `Hp × Wp` plane per channel
//! (`Hp = H + 2·pad`, `Wp = W + 2·pad`). Outputs are computed on a *flat
//! grid* `q = oy·Wp + ox` of `OH` rows of pitch `Wp`, and tap `(c, ky, kx)`
//! of output `q` sits at `c·Hp·Wp + ky·Wp + kx + q`, so a run of outputs
//! reads a run of inputs. The grid's columns `ox ≥ OW` are computed and
//! dropped. With stride `s > 1` each padded plane is split into `s²` phase
//! planes — phase `(py, px)` holds the padded pixels `(s·a + py, s·b + px)`
//! — of pitch `⌈Wp / s⌉`; tap `(ky, kx)` reads phase `(ky mod s, kx mod s)`
//! shifted by `(ky / s, kx / s)`, again one contiguous run. Stride 1 is the
//! one-phase case. The buffer's tail is padded so that the dropped lanes of
//! the last block read inside it; such a lane may hold NaN or Inf computed
//! from a real input, and it is never stored or added anywhere.
//!
//! # Gradient planes
//!
//! The input gradient runs the same idea backwards. Input element
//! `(iy, ix)` with `iy + pad = s·a + py` and `ix + pad = s·b + px` is
//! reached by the taps `(py + s·u, px + s·v)`, which read output
//! `(a − u, b − v)`. So the input is split into the `s²` phases `(py, px)`,
//! each computed on a lane grid `r·pitch + j` over its elements, and each
//! filter's output gradient is copied into a zero-bordered plane of that
//! pitch: tap `(u, v)` of a phase is one contiguous, shifted run of it.
//! A lane whose tap falls on the border reads `0.0`, but a tap outside the
//! output grid must add nothing, and `∞ · 0.0` is NaN; so a mask plane of
//! the same layout holds all-ones bits over the real gradient and zero
//! bits over the border, and each tap's sum is ANDed with it before it is
//! added. That turns the sum into `+0.0`, and adding `+0.0` to a sum that
//! started from `+0.0` changes no bit (such a sum is never `−0.0`).
//!
//! # Summation order
//!
//! The per-element order is the contract every kernel here keeps, at every
//! [`SimdLevel`](crate::simd::SimdLevel) and thread count:
//!
//! * forward: each output is `0.0` plus `x·w` over ascending `C·K·K`, then
//!   plus the bias — the order of `matmul_into` over an im2col matrix;
//! * `dW`: each element adds its products in ascending (sample, patch)
//!   order into the existing gradient — the order of one `Gᵀ·cols` GEMM
//!   over the whole batch;
//! * `dx`: each input element is `0.0` plus the sums of its taps that fall
//!   inside the output grid, last tap `(ky, kx)` to first, each sum being
//!   `0.0` plus its `F` products in ascending filter order — the order of
//!   a `G′·W` GEMM followed by a scatter over the patches in raster order
//!   (ascending `(oy, ox)` is descending `(ky, kx)` for one element).
//!
//! Products commute exactly in IEEE arithmetic, so a kernel may form `w·x`
//! for `x·w`. The vector bodies live in `mod direct`: explicit AVX-512F and
//! AVX builds of the same loops as the portable body, which is the
//! [`SimdLevel::Scalar`](crate::simd::SimdLevel::Scalar) path.

use crate::error::TensorError;
use crate::matmul::transpose_rows;
use crate::pool::for_chunks_mut;
use crate::shape::Shape;
use crate::simd::{self, SimdLevel};
use crate::tensor::Tensor;

/// Validated geometry of a 2-D convolution (single spatial configuration).
///
/// Every size the geometry exposes — the volumes, the MAC count and the
/// packed-plane length — fits in `usize`; [`Conv2dGeom::new`] refuses a
/// geometry for which one would not.
///
/// # Examples
///
/// ```
/// use hpnn_tensor::Conv2dGeom;
///
/// let g = Conv2dGeom::new(1, 28, 28, 16, 3, 1, 1)?;
/// assert_eq!((g.out_h, g.out_w), (28, 28));
/// # Ok::<(), hpnn_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeom {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels (number of filters).
    pub out_c: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dGeom {
    /// Computes and validates convolution geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if any dimension or the
    /// stride is zero, if the kernel does not fit the padded input, or if
    /// the padded sides or any size derived from them overflow `usize`.
    pub fn new(
        in_c: usize,
        in_h: usize,
        in_w: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, TensorError> {
        if in_c == 0 || in_h == 0 || in_w == 0 || out_c == 0 || kernel == 0 || stride == 0 {
            return Err(TensorError::InvalidGeometry(format!(
                "zero dimension in conv geom c={in_c} h={in_h} w={in_w} f={out_c} k={kernel} s={stride}"
            )));
        }
        let overflow = || {
            TensorError::InvalidGeometry(format!(
                "conv geom c={in_c} h={in_h} w={in_w} f={out_c} k={kernel} s={stride} \
                 pad={pad} overflows usize"
            ))
        };
        let padded = |side: usize| pad.checked_mul(2).and_then(|p| side.checked_add(p));
        let padded_h = padded(in_h).ok_or_else(overflow)?;
        let padded_w = padded(in_w).ok_or_else(overflow)?;
        if kernel > padded_h || kernel > padded_w {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {kernel} larger than padded input {padded_h}x{padded_w}"
            )));
        }
        let geom = Conv2dGeom {
            in_c,
            in_h,
            in_w,
            out_c,
            kernel,
            stride,
            pad,
            out_h: (padded_h - kernel) / stride + 1,
            out_w: (padded_w - kernel) / stride + 1,
        };
        geom.checked_sizes().ok_or_else(overflow)?;
        Ok(geom)
    }

    /// Every size below (and twice the MAC count, the flop count the pool
    /// is handed), computed with checked arithmetic.
    fn checked_sizes(&self) -> Option<()> {
        let l = self.out_h.checked_mul(self.out_w)?;
        self.in_c.checked_mul(self.in_h)?.checked_mul(self.in_w)?;
        self.out_c.checked_mul(l)?;
        let cr = self
            .in_c
            .checked_mul(self.kernel)?
            .checked_mul(self.kernel)?;
        self.out_c.checked_mul(cr)?.checked_mul(l)?.checked_mul(2)?;
        Packing::checked(self)?;
        GradPacking::checked(self)?;
        Some(())
    }

    /// Rows of the im2col matrix: `C*KH*KW`.
    pub fn col_rows(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }

    /// Columns of the im2col matrix: `OH*OW`.
    pub fn col_cols(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Volume of one input sample.
    pub fn in_volume(&self) -> usize {
        self.in_c * self.in_h * self.in_w
    }

    /// Volume of one output sample.
    pub fn out_volume(&self) -> usize {
        self.out_c * self.out_h * self.out_w
    }

    /// Number of multiply–accumulate operations for one sample.
    pub fn macs_per_sample(&self) -> usize {
        self.out_c * self.col_rows() * self.col_cols()
    }

    /// Floats per sample of the packed planes that [`conv2d_pack_batch`]
    /// builds (see the module docs for the layout).
    pub fn packed_len(&self) -> usize {
        Packing::of(self).len
    }
}

/// Lanes of the flat output grid one forward block computes; the grid is
/// rounded up to a whole number of blocks.
const BLOCK: usize = 32;

/// Filters one forward block computes.
const FB: usize = 8;

/// Largest number of taps one `dW` block accumulates at once.
const TAPS: usize = 8;

/// Lanes of a phase's lane grid one input-gradient block computes.
const DX_BLOCK: usize = 16;

/// Input channels one input-gradient block computes.
const CB: usize = 8;

/// Where a sample's packed planes put each pixel (module docs).
#[derive(Debug, Clone, Copy)]
struct Packing {
    /// Row pitch of a phase plane and of the flat output grid: `⌈Wp / s⌉`.
    pitch: usize,
    /// Floats per phase plane: `⌈Hp / s⌉ · pitch`.
    plane: usize,
    /// Flat-grid lanes computed per filter: `OH · pitch`, rounded up to
    /// [`BLOCK`].
    lanes: usize,
    /// Floats per packed sample: every phase plane, plus the tail the last
    /// block reads past the last tap's run.
    len: usize,
}

impl Packing {
    fn checked(g: &Conv2dGeom) -> Option<Packing> {
        let s = g.stride;
        let side = |v: usize| v.checked_add(g.pad.checked_mul(2)?);
        let pitch = side(g.in_w)?.div_ceil(s);
        let plane = side(g.in_h)?.div_ceil(s).checked_mul(pitch)?;
        let planes = g.in_c.checked_mul(s.checked_mul(s)?)?;
        let lanes = g
            .out_h
            .checked_mul(pitch)?
            .checked_next_multiple_of(BLOCK)?;
        let shift = (g.kernel - 1) / s;
        let reach = shift
            .checked_mul(pitch)?
            .checked_add(shift)?
            .checked_add(lanes)?;
        let len = (planes - 1)
            .checked_mul(plane)?
            .checked_add(reach)?
            .max(planes.checked_mul(plane)?);
        Some(Packing {
            pitch,
            plane,
            lanes,
            len,
        })
    }

    fn of(g: &Conv2dGeom) -> Packing {
        Packing::checked(g).expect("Conv2dGeom::new checked the packed sizes")
    }

    /// Offset of tap `(c, ky, kx)` of flat output 0, for every tap in
    /// ascending `C·K·K` order (the filter bank's column order).
    fn tap_offsets(&self, g: &Conv2dGeom) -> Vec<usize> {
        let (k, s) = (g.kernel, g.stride);
        let mut offs = Vec::with_capacity(g.col_rows());
        for c in 0..g.in_c {
            for ky in 0..k {
                for kx in 0..k {
                    let phase = (c * s + ky % s) * s + kx % s;
                    offs.push(phase * self.plane + ky / s * self.pitch + kx / s);
                }
            }
        }
        offs
    }
}

/// Where the input gradient reads each sample's output gradient, and
/// which input elements each phase's lane grid holds (module docs).
#[derive(Debug)]
struct GradPacking {
    /// Row pitch of a gradient plane and of every phase's lane grid.
    pitch: usize,
    /// Floats per gradient plane, one plane per filter; the dropped lanes
    /// of every block read inside it.
    plane: usize,
    /// Rows and columns of zero border above and left of the gradient.
    top: usize,
    left: usize,
    /// The phases that hold input elements.
    phases: Vec<Phase>,
}

/// One input phase `(py, px)`: the input elements `(iy0 + s·r, ix0 + s·j)`
/// for `r < rows` and `j < cols`, computed on the lane grid `r·pitch + j`.
#[derive(Debug)]
struct Phase {
    iy0: usize,
    rows: usize,
    ix0: usize,
    cols: usize,
    /// Lane-grid length: `rows · pitch` rounded up to [`DX_BLOCK`].
    lanes: usize,
    /// For each tap `(ky, kx)` that reaches the phase, last tap first: its
    /// column `ky·K + kx` within a channel of the filter bank, and where
    /// lane 0 reads it in a gradient plane.
    taps: Vec<(usize, usize)>,
}

/// The phases of one axis of `len` inputs that hold any: for each, its
/// phase `p`, its first input index, how many inputs it holds (step `s`),
/// the output index its first input reaches through shift 0, and how many
/// shifts (taps `p + s·u`) reach it. At most `min(s, len)` of them.
fn phase_axis(len: usize, g: &Conv2dGeom) -> Vec<(usize, usize, usize, usize, usize)> {
    let (k, s) = (g.kernel, g.stride);
    (0..len.min(s))
        .map(|i0| {
            let p = (i0 + g.pad) % s;
            let shifts = if p < k { (k - 1 - p) / s + 1 } else { 0 };
            (p, i0, (len - i0).div_ceil(s), (i0 + g.pad) / s, shifts)
        })
        .collect()
}

impl GradPacking {
    /// Bounds every size [`GradPacking::of`] computes, without building
    /// it: the pitch is below `K + max(OW, (W + pad) / s + 1)`, the rows
    /// likewise, and a phase's lanes end within one row and one block past
    /// the last row.
    fn checked(g: &Conv2dGeom) -> Option<()> {
        let (k, s, pad) = (g.kernel, g.stride, g.pad);
        let side = |out: usize, len: usize| k.checked_add(out.max(len.checked_add(pad)? / s + 1));
        let pitch = side(g.out_w, g.in_w)?;
        let rows = side(g.out_h, g.in_h)?.checked_add(1)?;
        let plane = rows.checked_mul(pitch)?.checked_add(DX_BLOCK)?;
        plane.checked_mul(g.out_c).map(drop)
    }

    fn of(g: &Conv2dGeom) -> GradPacking {
        let (ys, xs) = (phase_axis(g.in_h, g), phase_axis(g.in_w, g));
        // The border must hold every shift of every phase ...
        let border = |axis: &[(usize, usize, usize, usize, usize)]| {
            axis.iter()
                .filter(|a| a.4 > 0)
                .map(|&(_, _, _, a0, shifts)| (shifts - 1).saturating_sub(a0))
                .max()
                .unwrap_or(0)
        };
        let (top, left) = (border(&ys), border(&xs));
        // ... and a row every read of a stored lane, so none wraps round
        // into the next row.
        let extent = |axis: &[(usize, usize, usize, usize, usize)], real: usize, pad: usize| {
            axis.iter()
                .map(|&(_, _, n, a0, _)| a0 + n + pad)
                .fold(real + pad, usize::max)
        };
        let pitch = extent(&xs, g.out_w, left);
        let mut plane = extent(&ys, g.out_h, top) * pitch;
        let mut phases = Vec::with_capacity(ys.len() * xs.len());
        for &(py, iy0, rows, a0, us) in &ys {
            for &(px, ix0, cols, b0, vs) in &xs {
                let lanes = (rows * pitch).next_multiple_of(DX_BLOCK);
                let (row0, col0) = (a0 + top, b0 + left);
                plane = plane.max(row0 * pitch + col0 + lanes);
                let mut taps = Vec::with_capacity(us * vs);
                for u in (0..us).rev() {
                    for v in (0..vs).rev() {
                        let (ky, kx) = (py + g.stride * u, px + g.stride * v);
                        taps.push((ky * g.kernel + kx, (row0 - u) * pitch + col0 - v));
                    }
                }
                phases.push(Phase {
                    iy0,
                    rows,
                    ix0,
                    cols,
                    lanes,
                    taps,
                });
            }
        }
        GradPacking {
            pitch,
            plane,
            top,
            left,
            phases,
        }
    }
}

/// Unrolls one sample (`[C x H x W]`, flattened) into a column matrix
/// `[C*K*K x OH*OW]`.
///
/// # Panics
///
/// Panics if `sample.len()` differs from `geom.in_volume()`.
pub fn im2col(sample: &[f32], geom: &Conv2dGeom) -> Tensor {
    assert_eq!(
        sample.len(),
        geom.in_volume(),
        "im2col sample volume mismatch"
    );
    let k = geom.kernel;
    let (h, w) = (geom.in_h, geom.in_w);
    let (oh, ow) = (geom.out_h, geom.out_w);
    let mut out = vec![0.0f32; geom.col_rows() * geom.col_cols()];
    let cols = geom.col_cols();
    for c in 0..geom.in_c {
        let plane = &sample[c * h * w..(c + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row_idx = (c * k + ky) * k + kx;
                let out_row = &mut out[row_idx * cols..(row_idx + 1) * cols];
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue; // leave zero padding
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out_row[oy * ow + ox] = plane[iy * w + ix as usize];
                    }
                }
            }
        }
    }
    Tensor::from_vec(Shape::d2(geom.col_rows(), geom.col_cols()), out)
        .expect("im2col output volume")
}

/// Packs a batch (`[B x C*H*W]`) into its zero-padded input planes
/// `[B x packed_len]` (layout in the module docs), the operand of
/// [`conv2d_forward_batch_into`] and [`conv2d_weight_grad_batch_into`].
/// Samples are packed in parallel on the worker pool; each sample's planes
/// depend only on its own row.
///
/// # Panics
///
/// Panics if `input` is not `[B x in_volume]`.
pub fn conv2d_pack_batch(input: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let batch = input.shape().rows();
    assert_eq!(
        input.shape().cols(),
        geom.in_volume(),
        "conv pack input volume mismatch"
    );
    let p = Packing::of(geom);
    let (h, w, s, pad) = (geom.in_h, geom.in_w, geom.stride, geom.pad);
    // Zeroed here, so only the pixels are written below.
    let mut out = vec![0.0f32; batch * p.len];
    for_chunks_mut(batch, p.len, p.len, &mut out, |range, chunk| {
        for (i, dst) in (range.0..range.1).zip(chunk.chunks_exact_mut(p.len)) {
            for (c, image) in input.row(i).chunks_exact(h * w).enumerate() {
                for (iy, row) in image.chunks_exact(w).enumerate() {
                    let (a, py) = ((iy + pad) / s, (iy + pad) % s);
                    if s == 1 {
                        // One phase: the row lands whole, shifted by `pad`.
                        let at = c * p.plane + a * p.pitch + pad;
                        dst[at..at + w].copy_from_slice(row);
                        continue;
                    }
                    for px in 0..s {
                        // The columns on phase `px` start at the first `ix`
                        // with `(ix + pad) mod s == px` and step by `s`.
                        let ix0 = (px + s - pad % s) % s;
                        if ix0 >= w {
                            continue;
                        }
                        let at = ((c * s + py) * s + px) * p.plane + a * p.pitch + (ix0 + pad) / s;
                        for (d, &v) in dst[at..].iter_mut().zip(row[ix0..].iter().step_by(s)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(Shape::d2(batch, p.len), out).expect("packed planes volume")
}

/// Batched convolution forward: `out = conv(x, W) + bias`, read from the
/// packed planes of [`conv2d_pack_batch`] (`[B x packed_len]`) with the
/// filter bank `weight` (`[F x C*K*K]`) as stored, into the channel-major
/// feature maps `out` (`[B x F*OH*OW]`).
///
/// Every output element is `0.0` plus its `C*K*K` products `x·w` in
/// ascending kernel-position order, then plus the bias: the sequence of
/// `matmul_into` over an im2col matrix, so the result is bit-identical to
/// that lowering. Samples are distributed — never split — across pool
/// workers, so it is also bit-identical at any thread count and for any
/// batch decomposition.
///
/// # Panics
///
/// Panics unless `packed` is `[B x packed_len]`, `weight` is
/// `[F x C*K*K]`, `bias` has `F` entries, and `out` is `B * F*OH*OW` long.
pub fn conv2d_forward_batch_into(
    packed: &Tensor,
    weight: &Tensor,
    bias: &[f32],
    geom: &Conv2dGeom,
    out: &mut [f32],
) {
    let p = Packing::of(geom);
    let (cr, out_c, out_vol) = (geom.col_rows(), geom.out_c, geom.out_volume());
    let (l, ow) = (geom.col_cols(), geom.out_w);
    assert_eq!(
        packed.shape().cols(),
        p.len,
        "conv forward packed-plane volume"
    );
    assert_eq!(
        weight.shape().dims(),
        &[out_c, cr],
        "conv forward weight shape"
    );
    assert_eq!(bias.len(), out_c, "conv forward bias length");
    let batch = packed.shape().rows();
    assert_eq!(out.len(), batch * out_vol, "conv forward output volume");
    let offs = p.tap_offsets(geom);
    let level = simd::current();
    let (x, w) = (packed.data(), weight.data());
    for_chunks_mut(
        batch,
        out_vol,
        2 * geom.macs_per_sample(),
        out,
        |range, chunk| {
            // One filter block's flat grid, bias not yet added.
            let mut stage = vec![0.0f32; FB * p.lanes];
            for (i, dst) in (range.0..range.1).zip(chunk.chunks_exact_mut(out_vol)) {
                let x = &x[i * p.len..(i + 1) * p.len];
                for f0 in (0..out_c).step_by(FB) {
                    // A partial block repeats the last filter in its spare
                    // rows; they are computed and never read.
                    let rows = std::array::from_fn(|f| (f0 + f).min(out_c - 1) * cr);
                    for q0 in (0..p.lanes).step_by(BLOCK) {
                        forward_block(level, x, q0, &offs, w, &rows, &mut stage, p.lanes);
                    }
                    for (f, grid) in (f0..out_c.min(f0 + FB)).zip(stage.chunks_exact(p.lanes)) {
                        let maps = dst[f * l..(f + 1) * l].chunks_exact_mut(ow);
                        for (row, src) in maps.zip(grid.chunks(p.pitch)) {
                            for (d, &a) in row.iter_mut().zip(src) {
                                *d = a + bias[f];
                            }
                        }
                    }
                }
            }
        },
    );
}

/// One forward block: `stage[f * lanes + q0 + j] = 0.0 + Σ_t x[offs[t] +
/// q0 + j] · w[rows[f] + t]`, `t` ascending, for `FB` filters and `j` in
/// `0..BLOCK`. Dispatches on the hoisted [`SimdLevel`]; the portable body
/// is the reference and the [`SimdLevel::Scalar`] path.
#[allow(clippy::too_many_arguments)]
#[inline]
fn forward_block(
    level: SimdLevel,
    x: &[f32],
    q0: usize,
    offs: &[usize],
    w: &[f32],
    rows: &[usize; FB],
    stage: &mut [f32],
    lanes: usize,
) {
    assert!(offs.iter().all(|&o| o + q0 + BLOCK <= x.len()));
    assert!(rows.iter().all(|&r| r + offs.len() <= w.len()));
    assert!((FB - 1) * lanes + q0 + BLOCK <= stage.len());
    #[cfg(target_arch = "x86_64")]
    match level {
        // SAFETY: `level` comes from `simd::current()`, which is clamped to
        // the detected features, and the asserts above are the kernels'
        // bounds preconditions.
        SimdLevel::Avx512 => {
            unsafe { direct::forward_block_avx512(x, q0, offs, w, rows, stage, lanes) };
            return;
        }
        SimdLevel::Avx2 => {
            unsafe { direct::forward_block_avx2(x, q0, offs, w, rows, stage, lanes) };
            return;
        }
        SimdLevel::Scalar => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = level;
    let mut acc = [[0.0f32; BLOCK]; FB];
    for (t, &o) in offs.iter().enumerate() {
        let xs: &[f32; BLOCK] = x[o + q0..o + q0 + BLOCK].try_into().expect("block");
        for (acc, &r) in acc.iter_mut().zip(rows) {
            let wv = w[r + t];
            for (a, &xv) in acc.iter_mut().zip(xs) {
                *a += xv * wv;
            }
        }
    }
    for (f, acc) in acc.iter().enumerate() {
        stage[f * lanes + q0..f * lanes + q0 + BLOCK].copy_from_slice(acc);
    }
}

/// Batched convolution weight gradient: `dw += Σ_i G_i·cols_i`, samples in
/// ascending order, where `G_i` is sample `i`'s row of the channel-major
/// `grad_out` (`[B x F*OH*OW]`) read as an `[F x OH*OW]` matrix and
/// `cols_i` the sample's im2col matrix, read as shifted runs of its packed
/// planes (`packed` from [`conv2d_pack_batch`]).
///
/// Every element of `dw` (`[F x C*K*K]`) adds its `B*OH*OW` products in
/// ascending (sample, patch) order — the sequence of one `Gᵀ·cols` GEMM
/// over the whole batch. Each vector lane accumulates one filter: `dw` is
/// worked on transposed to `[C*K*K x F]`, each sample's `G_i` is transposed
/// to `[OH*OW x F]`, and up to eight taps share every load of a `G_i`
/// row. The samples are walked in order on the calling thread.
///
/// # Panics
///
/// Panics unless `grad_out` is `[B x F*OH*OW]`, `packed` is
/// `[B x packed_len]` for the same `B`, and `dw` is `F * C*K*K` long.
pub fn conv2d_weight_grad_batch_into(
    grad_out: &Tensor,
    packed: &Tensor,
    geom: &Conv2dGeom,
    dw: &mut [f32],
) {
    let p = Packing::of(geom);
    let (l, cr, out_c) = (geom.col_cols(), geom.col_rows(), geom.out_c);
    let batch = grad_out.shape().rows();
    assert_eq!(
        grad_out.shape().cols(),
        geom.out_volume(),
        "conv weight-grad gradient volume"
    );
    assert_eq!(
        packed.shape().dims(),
        &[batch, p.len],
        "conv weight-grad packed-plane shape"
    );
    assert_eq!(dw.len(), out_c * cr, "conv weight-grad buffer volume");
    let level = simd::current();
    let width = if level == SimdLevel::Avx512 && out_c > 8 {
        16
    } else {
        8
    };
    // Lanes past `out_c` in `dwt` and `gt` are scratch: never read back.
    let fp = out_c.next_multiple_of(width);
    let mut dwt = vec![0.0f32; cr * fp];
    for (f, row) in dw.chunks_exact(cr).enumerate() {
        for (t, &v) in row.iter().enumerate() {
            dwt[t * fp + f] = v;
        }
    }
    let offs = p.tap_offsets(geom);
    // Taps in blocks of at most TAPS, as even as possible.
    let blocks = cr.div_ceil(TAPS);
    let mut gt = vec![0.0f32; l * fp];
    let grid = (geom.out_h, geom.out_w, p.pitch);
    for (g, x) in grad_out
        .data()
        .chunks_exact(geom.out_volume())
        .zip(packed.data().chunks_exact(p.len))
    {
        transpose_rows(level, g, (out_c, l, l), &mut gt, fp);
        for f0 in (0..fp).step_by(width) {
            let mut t0 = 0;
            for b in 0..blocks {
                let n = cr / blocks + usize::from(b < cr % blocks);
                let dst = &mut dwt[t0 * fp + f0..];
                let taps = &offs[t0..t0 + n];
                weight_grad_block(level, width, x, taps, &gt[f0..], fp, grid, dst);
                t0 += n;
            }
        }
    }
    for (f, row) in dw.chunks_exact_mut(cr).enumerate() {
        for (t, v) in row.iter_mut().enumerate() {
            *v = dwt[t * fp + f];
        }
    }
}

/// One `dW` block: for `width` filter lanes and the taps `offs` (at most
/// [`TAPS`]), `dwt[tb * stride + f] += gt[q * stride + f] · x[offs[tb] +
/// oy * pitch + ox]` over the output grid's patches `q = oy * OW + ox` in
/// raster order. `grid` is `(OH, OW, pitch)`. Dispatches the tap count to a
/// compile-time one, so the accumulators stay in registers.
#[allow(clippy::too_many_arguments)]
fn weight_grad_block(
    level: SimdLevel,
    width: usize,
    x: &[f32],
    offs: &[usize],
    gt: &[f32],
    stride: usize,
    grid: (usize, usize, usize),
    dwt: &mut [f32],
) {
    macro_rules! taps {
        ($($n:literal)*) => {
            match offs.len() {
                $($n => weight_grad_taps::<$n>(level, width, x, offs, gt, stride, grid, dwt),)*
                n => unreachable!("{n} taps in one dW block"),
            }
        };
    }
    taps!(1 2 3 4 5 6 7 8);
}

/// [`weight_grad_block`] for `TB` taps.
#[allow(clippy::too_many_arguments)]
#[inline]
fn weight_grad_taps<const TB: usize>(
    level: SimdLevel,
    width: usize,
    x: &[f32],
    offs: &[usize],
    gt: &[f32],
    stride: usize,
    grid: (usize, usize, usize),
    dwt: &mut [f32],
) {
    let offs: &[usize; TB] = offs.try_into().expect("TB taps");
    let (oh, ow, pitch) = grid;
    assert!(offs.iter().all(|&o| o + (oh - 1) * pitch + ow <= x.len()));
    assert!((oh * ow - 1) * stride + width <= gt.len());
    assert!((TB - 1) * stride + width <= dwt.len());
    #[cfg(target_arch = "x86_64")]
    match (level, width) {
        // SAFETY: `level` comes from `simd::current()`, clamped to the
        // detected features; AVX-512F implies AVX, so the 8-lane body runs
        // at either vector level. The asserts above are the bounds.
        (SimdLevel::Avx512, 16) => {
            unsafe { direct::weight_grad_avx512::<TB>(x, offs, gt, stride, grid, dwt) };
            return;
        }
        (SimdLevel::Avx512 | SimdLevel::Avx2, 8) => {
            unsafe { direct::weight_grad_avx2::<TB>(x, offs, gt, stride, grid, dwt) };
            return;
        }
        _ => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = level;
    assert_eq!(width, 8, "portable dW body is 8 lanes wide");
    let mut acc = [[0.0f32; 8]; TB];
    for (tb, a) in acc.iter_mut().enumerate() {
        a.copy_from_slice(&dwt[tb * stride..tb * stride + 8]);
    }
    for oy in 0..oh {
        for ox in 0..ow {
            let q = oy * ow + ox;
            let gv: &[f32; 8] = gt[q * stride..q * stride + 8].try_into().expect("lanes");
            for (a, &o) in acc.iter_mut().zip(offs) {
                let xv = x[o + oy * pitch + ox];
                for (a, &g) in a.iter_mut().zip(gv) {
                    *a += g * xv;
                }
            }
        }
    }
    for (tb, a) in acc.iter().enumerate() {
        dwt[tb * stride..tb * stride + 8].copy_from_slice(a);
    }
}

/// Explicit vector builds of the direct kernels. Each is the portable body
/// of [`forward_block`] / [`weight_grad_taps`] / [`input_grad_block`] with
/// its lanes in vector registers: the same multiplies and adds per
/// element, in the same order (no FMA: a fused multiply-add rounds once
/// and would change bits).
#[cfg(target_arch = "x86_64")]
mod direct {
    use super::{BLOCK, CB, DX_BLOCK, FB};
    use std::arch::x86_64::*;

    /// AVX-512F forward block: `FB` filters × [`BLOCK`] lanes in 16
    /// accumulators; each tap loads two vectors of `x` and broadcasts one
    /// weight per filter.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available, `offs[t] + q0 + BLOCK <=
    /// x.len()` and `rows[f] + offs.len() <= w.len()` for every tap and
    /// filter, and `(FB - 1) * lanes + q0 + BLOCK <= stage.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn forward_block_avx512(
        x: &[f32],
        q0: usize,
        offs: &[usize],
        w: &[f32],
        rows: &[usize; FB],
        stage: &mut [f32],
        lanes: usize,
    ) {
        debug_assert!(offs.iter().all(|&o| o + q0 + BLOCK <= x.len()));
        debug_assert!(rows.iter().all(|&r| r + offs.len() <= w.len()));
        debug_assert!((FB - 1) * lanes + q0 + BLOCK <= stage.len());
        let xp = x.as_ptr().add(q0);
        let wp: [*const f32; FB] = std::array::from_fn(|f| w.as_ptr().add(rows[f]));
        let mut acc = [[_mm512_setzero_ps(); 2]; FB];
        for (t, &o) in offs.iter().enumerate() {
            let x0 = _mm512_loadu_ps(xp.add(o));
            let x1 = _mm512_loadu_ps(xp.add(o + 16));
            for (a, &wr) in acc.iter_mut().zip(&wp) {
                let wv = _mm512_set1_ps(*wr.add(t));
                a[0] = _mm512_add_ps(a[0], _mm512_mul_ps(x0, wv));
                a[1] = _mm512_add_ps(a[1], _mm512_mul_ps(x1, wv));
            }
        }
        for (f, a) in acc.iter().enumerate() {
            let dst = stage.as_mut_ptr().add(f * lanes + q0);
            _mm512_storeu_ps(dst, a[0]);
            _mm512_storeu_ps(dst.add(16), a[1]);
        }
    }

    /// AVX forward block: the same block as four 8-lane passes, `FB`
    /// accumulators each.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available, and the bounds of
    /// [`forward_block_avx512`].
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn forward_block_avx2(
        x: &[f32],
        q0: usize,
        offs: &[usize],
        w: &[f32],
        rows: &[usize; FB],
        stage: &mut [f32],
        lanes: usize,
    ) {
        debug_assert!(offs.iter().all(|&o| o + q0 + BLOCK <= x.len()));
        debug_assert!(rows.iter().all(|&r| r + offs.len() <= w.len()));
        debug_assert!((FB - 1) * lanes + q0 + BLOCK <= stage.len());
        let wp: [*const f32; FB] = std::array::from_fn(|f| w.as_ptr().add(rows[f]));
        for j in (0..BLOCK).step_by(8) {
            let xp = x.as_ptr().add(q0 + j);
            let mut acc = [_mm256_setzero_ps(); FB];
            for (t, &o) in offs.iter().enumerate() {
                let xv = _mm256_loadu_ps(xp.add(o));
                for (a, &wr) in acc.iter_mut().zip(&wp) {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(xv, _mm256_set1_ps(*wr.add(t))));
                }
            }
            for (f, a) in acc.iter().enumerate() {
                _mm256_storeu_ps(stage.as_mut_ptr().add(f * lanes + q0 + j), *a);
            }
        }
    }

    /// AVX-512F input-gradient block: [`CB`] channels × 16 lanes, one
    /// accumulator and one tap sum per channel; each filter's gradient run
    /// is loaded once and broadcast against every channel's weight.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available and the bounds that
    /// `super::input_grad_block` asserts.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn input_grad_block_avx512(
        planes: &[f32],
        mask: &[u32],
        taps: &[(usize, usize)],
        q0: usize,
        w: &[f32],
        chans: &[usize; CB],
        stage: &mut [f32],
    ) {
        let plane = mask.len();
        let out_c = planes.len() / plane;
        let cr = w.len() / out_c;
        let lanes = stage.len() / CB;
        debug_assert!(taps.iter().all(|&(_, o)| o + q0 + DX_BLOCK <= plane));
        debug_assert!(q0 + DX_BLOCK <= lanes);
        let mut acc = [_mm512_setzero_ps(); CB];
        for &(t, o) in taps {
            let gp = planes.as_ptr().add(o + q0);
            let wp = w.as_ptr().add(t);
            let mut sums = [_mm512_setzero_ps(); CB];
            for f in 0..out_c {
                let g = _mm512_loadu_ps(gp.add(f * plane));
                let wf = wp.add(f * cr);
                for (sum, &c) in sums.iter_mut().zip(chans) {
                    *sum = _mm512_add_ps(*sum, _mm512_mul_ps(g, _mm512_set1_ps(*wf.add(c))));
                }
            }
            let m = _mm512_castps_si512(_mm512_loadu_ps(mask.as_ptr().add(o + q0).cast()));
            for (a, sum) in acc.iter_mut().zip(sums) {
                let kept = _mm512_and_si512(_mm512_castps_si512(sum), m);
                *a = _mm512_add_ps(*a, _mm512_castsi512_ps(kept));
            }
        }
        for (c, a) in acc.iter().enumerate() {
            _mm512_storeu_ps(stage.as_mut_ptr().add(c * lanes + q0), *a);
        }
    }

    /// AVX input-gradient block: the same block as two 8-lane passes.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available and the bounds of
    /// [`input_grad_block_avx512`].
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn input_grad_block_avx2(
        planes: &[f32],
        mask: &[u32],
        taps: &[(usize, usize)],
        q0: usize,
        w: &[f32],
        chans: &[usize; CB],
        stage: &mut [f32],
    ) {
        let plane = mask.len();
        let out_c = planes.len() / plane;
        let cr = w.len() / out_c;
        let lanes = stage.len() / CB;
        debug_assert!(taps.iter().all(|&(_, o)| o + q0 + DX_BLOCK <= plane));
        debug_assert!(q0 + DX_BLOCK <= lanes);
        for j in (0..DX_BLOCK).step_by(8) {
            let mut acc = [_mm256_setzero_ps(); CB];
            for &(t, o) in taps {
                let gp = planes.as_ptr().add(o + q0 + j);
                let wp = w.as_ptr().add(t);
                let mut sums = [_mm256_setzero_ps(); CB];
                for f in 0..out_c {
                    let g = _mm256_loadu_ps(gp.add(f * plane));
                    let wf = wp.add(f * cr);
                    for (sum, &c) in sums.iter_mut().zip(chans) {
                        *sum = _mm256_add_ps(*sum, _mm256_mul_ps(g, _mm256_set1_ps(*wf.add(c))));
                    }
                }
                let m = _mm256_loadu_ps(mask.as_ptr().add(o + q0 + j).cast());
                for (a, sum) in acc.iter_mut().zip(sums) {
                    *a = _mm256_add_ps(*a, _mm256_and_ps(sum, m));
                }
            }
            for (c, a) in acc.iter().enumerate() {
                _mm256_storeu_ps(stage.as_mut_ptr().add(c * lanes + q0 + j), *a);
            }
        }
    }

    /// AVX-512F `dW` block: 16 filter lanes × `TB` taps, one accumulator
    /// per tap; every `gt` row load feeds all `TB` taps.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available and, with `grid = (oh, ow,
    /// pitch)`: `offs[tb] + (oh - 1) * pitch + ow <= x.len()`,
    /// `(oh * ow - 1) * stride + 16 <= gt.len()` and `(TB - 1) * stride +
    /// 16 <= dwt.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn weight_grad_avx512<const TB: usize>(
        x: &[f32],
        offs: &[usize; TB],
        gt: &[f32],
        stride: usize,
        (oh, ow, pitch): (usize, usize, usize),
        dwt: &mut [f32],
    ) {
        debug_assert!(offs.iter().all(|&o| o + (oh - 1) * pitch + ow <= x.len()));
        debug_assert!((oh * ow - 1) * stride + 16 <= gt.len());
        debug_assert!((TB - 1) * stride + 16 <= dwt.len());
        let mut acc = [_mm512_setzero_ps(); TB];
        for (tb, a) in acc.iter_mut().enumerate() {
            *a = _mm512_loadu_ps(dwt.as_ptr().add(tb * stride));
        }
        for oy in 0..oh {
            let xr = x.as_ptr().add(oy * pitch);
            let gr = gt.as_ptr().add(oy * ow * stride);
            for ox in 0..ow {
                let gv = _mm512_loadu_ps(gr.add(ox * stride));
                for (a, &o) in acc.iter_mut().zip(offs) {
                    let xv = _mm512_set1_ps(*xr.add(o + ox));
                    *a = _mm512_add_ps(*a, _mm512_mul_ps(gv, xv));
                }
            }
        }
        for (tb, a) in acc.iter().enumerate() {
            _mm512_storeu_ps(dwt.as_mut_ptr().add(tb * stride), *a);
        }
    }

    /// AVX `dW` block: [`weight_grad_avx512`] with 8 filter lanes.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available and the bounds of
    /// [`weight_grad_avx512`] with 8 in place of 16.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn weight_grad_avx2<const TB: usize>(
        x: &[f32],
        offs: &[usize; TB],
        gt: &[f32],
        stride: usize,
        (oh, ow, pitch): (usize, usize, usize),
        dwt: &mut [f32],
    ) {
        debug_assert!(offs.iter().all(|&o| o + (oh - 1) * pitch + ow <= x.len()));
        debug_assert!((oh * ow - 1) * stride + 8 <= gt.len());
        debug_assert!((TB - 1) * stride + 8 <= dwt.len());
        let mut acc = [_mm256_setzero_ps(); TB];
        for (tb, a) in acc.iter_mut().enumerate() {
            *a = _mm256_loadu_ps(dwt.as_ptr().add(tb * stride));
        }
        for oy in 0..oh {
            let xr = x.as_ptr().add(oy * pitch);
            let gr = gt.as_ptr().add(oy * ow * stride);
            for ox in 0..ow {
                let gv = _mm256_loadu_ps(gr.add(ox * stride));
                for (a, &o) in acc.iter_mut().zip(offs) {
                    let xv = _mm256_set1_ps(*xr.add(o + ox));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(gv, xv));
                }
            }
        }
        for (tb, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(dwt.as_mut_ptr().add(tb * stride), *a);
        }
    }
}

/// Batched convolution input gradient: `dx = col2im(G·W)` per sample,
/// overwriting `dx` (`[B x C*H*W]`), from the channel-major `grad_out`
/// (`[B x F*OH*OW]`) and the filter bank `weight` (`[F x C*K*K]`) as
/// stored.
///
/// Each sample's gradient maps are copied into zero-bordered planes, and
/// every input phase is computed on its lane grid (module docs) in blocks
/// of 8 input channels × 16 lanes: per tap, last to first, one vector
/// load of the gradient run per filter, broadcast against that filter's
/// weight for each channel, gives the tap's sums; masked to the output
/// grid, they are added to the block's accumulators. Each input element
/// is `0.0` plus the sums of its taps inside the output grid, last tap to
/// first, each sum `0.0` plus its `F` products in ascending filter order:
/// the sequence of a patch-major `G′·W` GEMM followed by a patch-raster
/// scatter of the column gradient. Samples run in parallel on the worker
/// pool, so the result is bit-identical at any thread count.
///
/// # Panics
///
/// Panics unless `grad_out` is `[B x F*OH*OW]`, `weight` is `[F x C*K*K]`
/// and `dx` is `B * C*H*W` long.
pub fn conv2d_input_grad_batch_into(
    grad_out: &Tensor,
    weight: &Tensor,
    geom: &Conv2dGeom,
    dx: &mut [f32],
) {
    let (l, cr, out_c, in_c) = (geom.col_cols(), geom.col_rows(), geom.out_c, geom.in_c);
    let batch = grad_out.shape().rows();
    assert_eq!(
        grad_out.shape().cols(),
        geom.out_volume(),
        "conv input-grad gradient volume"
    );
    assert_eq!(
        weight.shape().dims(),
        &[out_c, cr],
        "conv input-grad weight shape"
    );
    let in_vol = geom.in_volume();
    assert_eq!(dx.len(), batch * in_vol, "conv input-grad buffer volume");
    let gp = GradPacking::of(geom);
    let (h, w, s, ow) = (geom.in_h, geom.in_w, geom.stride, geom.out_w);
    let kk = geom.kernel * geom.kernel;
    let mut mask = vec![0u32; gp.plane];
    for row in mask[gp.top * gp.pitch..]
        .chunks_mut(gp.pitch)
        .take(geom.out_h)
    {
        row[gp.left..gp.left + ow].fill(u32::MAX);
    }
    let most = gp.phases.iter().map(|p| p.lanes).max().unwrap_or(0);
    let level = simd::current();
    let wd = weight.data();
    for_chunks_mut(
        batch,
        in_vol,
        2 * geom.macs_per_sample(),
        dx,
        |range, chunk| {
            // The border stays zero: only the real gradient is copied in.
            let mut planes = vec![0.0f32; out_c * gp.plane];
            let mut stage = vec![0.0f32; CB * most];
            for (i, image) in (range.0..range.1).zip(chunk.chunks_exact_mut(in_vol)) {
                for (map, plane) in grad_out
                    .row(i)
                    .chunks_exact(l)
                    .zip(planes.chunks_exact_mut(gp.plane))
                {
                    let rows = plane[gp.top * gp.pitch + gp.left..].chunks_mut(gp.pitch);
                    for (src, dst) in map.chunks_exact(ow).zip(rows) {
                        dst[..ow].copy_from_slice(src);
                    }
                }
                for ph in &gp.phases {
                    for c0 in (0..in_c).step_by(CB) {
                        // A partial block repeats the last channel in its
                        // spare rows; they are computed and never stored.
                        let chans = std::array::from_fn(|c| (c0 + c).min(in_c - 1) * kk);
                        for q0 in (0..ph.lanes).step_by(DX_BLOCK) {
                            let dst = &mut stage[..CB * ph.lanes];
                            input_grad_block(level, &planes, &mask, &ph.taps, q0, wd, &chans, dst);
                        }
                        let grids = stage.chunks_exact(ph.lanes);
                        for (c, grid) in (c0..in_c.min(c0 + CB)).zip(grids) {
                            let img = &mut image[c * h * w..(c + 1) * h * w];
                            for (r, src) in grid.chunks(gp.pitch).take(ph.rows).enumerate() {
                                let row = &mut img[(ph.iy0 + s * r) * w + ph.ix0..][..w - ph.ix0];
                                for (d, &v) in row.iter_mut().step_by(s).zip(&src[..ph.cols]) {
                                    *d = v;
                                }
                            }
                        }
                    }
                }
            }
        },
    );
}

/// One input-gradient block, for [`CB`] channels (`chans[c]` is channel
/// `c`'s first column in a filter-bank row) and the lanes `q0..q0 +
/// DX_BLOCK` of a phase's grid: `stage[c * lanes + q0 + j]` is `0.0` plus,
/// for each tap `(t, o)` in the given order, the tap's sum `0.0 + Σ_f
/// planes[f * plane + o + q0 + j] · w[f * cr + chans[c] + t]` (`f`
/// ascending) ANDed with `mask[o + q0 + j]`, where `plane = mask.len()`,
/// `cr = w.len() / F` and `lanes = stage.len() / CB`. Dispatches on the
/// hoisted [`SimdLevel`]; the portable body is the reference and the
/// [`SimdLevel::Scalar`] path.
#[allow(clippy::too_many_arguments)]
#[inline]
fn input_grad_block(
    level: SimdLevel,
    planes: &[f32],
    mask: &[u32],
    taps: &[(usize, usize)],
    q0: usize,
    w: &[f32],
    chans: &[usize; CB],
    stage: &mut [f32],
) {
    let plane = mask.len();
    let out_c = planes.len() / plane;
    let cr = w.len() / out_c;
    let lanes = stage.len() / CB;
    assert!(taps.iter().all(|&(_, o)| o + q0 + DX_BLOCK <= plane));
    assert!(taps.iter().all(|&(t, _)| chans.iter().all(|&c| c + t < cr)));
    assert!(out_c * plane == planes.len() && out_c * cr == w.len());
    assert!(q0 + DX_BLOCK <= lanes);
    #[cfg(target_arch = "x86_64")]
    match level {
        // SAFETY: `level` comes from `simd::current()`, which is clamped to
        // the detected features, and the asserts above are the kernels'
        // bounds preconditions.
        SimdLevel::Avx512 => {
            unsafe { direct::input_grad_block_avx512(planes, mask, taps, q0, w, chans, stage) };
            return;
        }
        SimdLevel::Avx2 => {
            unsafe { direct::input_grad_block_avx2(planes, mask, taps, q0, w, chans, stage) };
            return;
        }
        SimdLevel::Scalar => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = level;
    let mut acc = [[0.0f32; DX_BLOCK]; CB];
    for &(t, o) in taps {
        let mut sums = [[0.0f32; DX_BLOCK]; CB];
        for f in 0..out_c {
            let gv: &[f32; DX_BLOCK] = planes[f * plane + o + q0..][..DX_BLOCK]
                .try_into()
                .expect("block");
            let wf = &w[f * cr + t..];
            for (sum, &c) in sums.iter_mut().zip(chans) {
                let wv = wf[c];
                for (a, &g) in sum.iter_mut().zip(gv) {
                    *a += g * wv;
                }
            }
        }
        let m = &mask[o + q0..o + q0 + DX_BLOCK];
        for (acc, sum) in acc.iter_mut().zip(&sums) {
            for ((a, &v), &m) in acc.iter_mut().zip(sum).zip(m) {
                *a += f32::from_bits(v.to_bits() & m);
            }
        }
    }
    for (c, acc) in acc.iter().enumerate() {
        stage[c * lanes + q0..c * lanes + q0 + DX_BLOCK].copy_from_slice(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::simd::SimdLevel;

    #[test]
    fn geom_same_padding() {
        let g = Conv2dGeom::new(3, 32, 32, 8, 3, 1, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (32, 32));
        assert_eq!(g.col_rows(), 27);
        assert_eq!(g.col_cols(), 1024);
    }

    #[test]
    fn geom_stride_two() {
        let g = Conv2dGeom::new(1, 8, 8, 4, 2, 2, 0).unwrap();
        assert_eq!((g.out_h, g.out_w), (4, 4));
    }

    #[test]
    fn geom_rejects_oversized_kernel() {
        assert!(Conv2dGeom::new(1, 4, 4, 1, 7, 1, 0).is_err());
        // With padding it fits.
        assert!(Conv2dGeom::new(1, 4, 4, 1, 7, 1, 2).is_ok());
    }

    #[test]
    fn geom_rejects_zeros() {
        assert!(Conv2dGeom::new(0, 4, 4, 1, 3, 1, 0).is_err());
        assert!(Conv2dGeom::new(1, 4, 4, 1, 3, 0, 0).is_err());
    }

    #[test]
    fn geom_refuses_sizes_that_overflow() {
        // `2·pad` wraps to 0 without checked arithmetic.
        assert!(Conv2dGeom::new(1, 4, 4, 1, 3, 1, 1 << 63).is_err());
        assert!(Conv2dGeom::new(1, usize::MAX - 1, 4, 1, 3, 1, 1).is_err());
        // in_volume 2^80.
        assert!(Conv2dGeom::new(1 << 40, 1 << 20, 1 << 20, 1, 1, 1, 0).is_err());
        // out_volume and macs.
        assert!(Conv2dGeom::new(1, 1 << 31, 1 << 31, 1 << 8, 1, 1, 0).is_err());
        // col_rows: kernel² overflows.
        assert!(Conv2dGeom::new(1, 1, 1, 1, 1 << 33, 1, 1 << 33).is_err());
        // packed planes: s² phase planes of a wide input.
        assert!(Conv2dGeom::new(1 << 20, 4, 4, 1, 1, 1 << 22, 0).is_err());
        assert!(Conv2dGeom::new(1 << 20, 4, 4, 1, 1, 1 << 20, 0).is_ok());
    }

    #[test]
    fn im2col_identity_kernel_1x1() {
        // 1x1 kernel, stride 1, no pad: im2col is just a reshape.
        let g = Conv2dGeom::new(2, 3, 3, 1, 1, 1, 0).unwrap();
        let sample: Vec<f32> = (0..18).map(|x| x as f32).collect();
        let cols = im2col(&sample, &g);
        assert_eq!(cols.shape().dims(), &[2, 9]);
        assert_eq!(cols.data(), sample.as_slice());
    }

    #[test]
    fn im2col_known_patch() {
        // 1 channel 3x3, kernel 2, stride 1, no pad ⇒ 4 patches.
        let g = Conv2dGeom::new(1, 3, 3, 1, 2, 1, 0).unwrap();
        #[rustfmt::skip]
        let sample = vec![
            1., 2., 3.,
            4., 5., 6.,
            7., 8., 9.,
        ];
        let cols = im2col(&sample, &g);
        // Rows: k positions (0,0),(0,1),(1,0),(1,1); cols: patches TL,TR,BL,BR.
        assert_eq!(cols.row(0), &[1., 2., 4., 5.]);
        assert_eq!(cols.row(1), &[2., 3., 5., 6.]);
        assert_eq!(cols.row(2), &[4., 5., 7., 8.]);
        assert_eq!(cols.row(3), &[5., 6., 8., 9.]);
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let g = Conv2dGeom::new(1, 2, 2, 1, 3, 1, 1).unwrap();
        let sample = vec![1., 2., 3., 4.];
        let cols = im2col(&sample, &g);
        // Center kernel position row equals the padded image scan.
        // Kernel position (1,1) row index = (0*3+1)*3+1 = 4.
        assert_eq!(cols.row(4), &[1., 2., 3., 4.]);
        // Top-left kernel position only sees padding except at output (1,1).
        assert_eq!(cols.row(0), &[0., 0., 0., 1.]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of an adjoint, which is what backprop relies on.
        let mut rng = Rng::new(11);
        let g = Conv2dGeom::new(2, 5, 5, 3, 3, 2, 1).unwrap();
        let x: Vec<f32> = (0..g.in_volume()).map(|_| rng.normal()).collect();
        let y = Tensor::randn([g.col_rows(), g.col_cols()], 1.0, &mut rng);
        let ax = im2col(&x, &g);
        let aty = col2im(&y, &g);
        let lhs: f32 = ax.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn macs_count() {
        let g = Conv2dGeom::new(3, 8, 8, 16, 3, 1, 1).unwrap();
        assert_eq!(g.macs_per_sample(), 16 * 27 * 64);
    }

    /// Geometries exercising padding, stride, kernel sides and both pack
    /// paths (one phase, several phases).
    fn batch_geoms() -> Vec<Conv2dGeom> {
        vec![
            Conv2dGeom::new(2, 5, 5, 3, 3, 2, 1).unwrap(),
            Conv2dGeom::new(1, 4, 4, 2, 3, 1, 1).unwrap(),
            Conv2dGeom::new(3, 8, 8, 4, 3, 1, 0).unwrap(),
            Conv2dGeom::new(2, 6, 6, 2, 1, 1, 0).unwrap(),
            Conv2dGeom::new(1, 7, 7, 2, 5, 1, 2).unwrap(),
            Conv2dGeom::new(2, 7, 6, 3, 1, 2, 0).unwrap(),
        ]
    }

    /// CNN1's two convolutions (28² and 14², 3×3, same padding).
    fn cnn1_geoms() -> [Conv2dGeom; 2] {
        [
            Conv2dGeom::new(1, 28, 28, 8, 3, 1, 1).unwrap(),
            Conv2dGeom::new(8, 14, 14, 16, 3, 1, 1).unwrap(),
        ]
    }

    /// The patch-major column matrix `[B·OH·OW x C·K·K]`: each sample's
    /// classical [`im2col`] transposed.
    fn patch_major_cols(x: &Tensor, g: &Conv2dGeom) -> Tensor {
        let (l, cr) = (g.col_cols(), g.col_rows());
        let batch = x.shape().rows();
        let mut out = Tensor::zeros([batch * l, cr]);
        for i in 0..batch {
            let classic = im2col(x.row(i), g);
            for j in 0..l {
                for r in 0..cr {
                    out.set(&[i * l + j, r], classic.at(&[r, j]));
                }
            }
        }
        out
    }

    #[test]
    fn packed_planes_hold_every_im2col_tap() {
        // Tap (c, ky, kx) of patch (oy, ox) lies at its tap offset plus the
        // patch's flat-grid lane, for every geometry and both pack paths.
        let mut rng = Rng::new(21);
        for g in batch_geoms() {
            let batch = 3;
            let x = Tensor::randn([batch, g.in_volume()], 1.0, &mut rng);
            let planes = conv2d_pack_batch(&x, &g);
            assert_eq!(planes.shape().dims(), &[batch, g.packed_len()], "{g:?}");
            let p = Packing::of(&g);
            let offs = p.tap_offsets(&g);
            for i in 0..batch {
                let classic = im2col(x.row(i), &g);
                for (r, &o) in offs.iter().enumerate() {
                    for j in 0..g.col_cols() {
                        let q = j / g.out_w * p.pitch + j % g.out_w;
                        assert_eq!(
                            planes.row(i)[o + q],
                            classic.at(&[r, j]),
                            "{g:?} sample {i} patch {j} tap {r}"
                        );
                    }
                }
            }
        }
    }

    /// The patch-raster scatter: every image element starts from `0.0`
    /// and adds its patch contributions as the patches come, `(oy, ox)`
    /// ascending — the summation order `col2im` and the input gradient are
    /// pinned to.
    fn scatter_reference(cols: &[f32], g: &Conv2dGeom) -> Vec<f32> {
        let (l, cr, k) = (g.col_cols(), g.col_rows(), g.kernel);
        let batch = cols.len() / (l * cr);
        let mut out = vec![0.0f32; batch * g.in_volume()];
        for (patches, image) in cols
            .chunks_exact(l * cr)
            .zip(out.chunks_exact_mut(g.in_volume()))
        {
            for (j, patch) in patches.chunks_exact(cr).enumerate() {
                let (oy, ox) = (j / g.out_w, j % g.out_w);
                for (r, &v) in patch.iter().enumerate() {
                    let (c, ky, kx) = (r / (k * k), r / k % k, r % k);
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                    if (0..g.in_h as isize).contains(&iy) && (0..g.in_w as isize).contains(&ix) {
                        image[(c * g.in_h + iy as usize) * g.in_w + ix as usize] += v;
                    }
                }
            }
        }
        out
    }

    /// Adjoint of [`im2col`]: folds one sample's column-matrix gradient
    /// (`[C·K·K x OH·OW]`) back onto the sample in patch-raster order.
    fn col2im(cols: &Tensor, g: &Conv2dGeom) -> Vec<f32> {
        scatter_reference(cols.transpose().data(), g)
    }

    /// `G′`: each sample's channel-major gradient row transposed to the
    /// patch-major `[B·OH·OW x F]` layout.
    fn patch_major(grad: &Tensor, g: &Conv2dGeom) -> Tensor {
        let (l, f) = (g.col_cols(), g.out_c);
        let batch = grad.shape().rows();
        let mut out = Tensor::zeros([batch * l, f]);
        for i in 0..batch {
            for (c, row) in grad.row(i).chunks_exact(l).enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    out.set(&[i * l + j, c], v);
                }
            }
        }
        out
    }

    #[test]
    fn weight_grad_matches_one_gemm_over_the_batch_bitwise() {
        // dW += G′ᵀ·cols as one Aᵀ·B GEMM over the whole batch's im2col
        // matrix is the reference sequence; the kernel reads grad_out in
        // place and the taps from the packed planes (filter counts below,
        // at and above one vector; partial tap blocks). dW starts non-zero:
        // the kernel accumulates.
        let mut rng = Rng::new(29);
        let geoms = [
            Conv2dGeom::new(1, 6, 6, 4, 3, 1, 1).unwrap(),
            Conv2dGeom::new(2, 5, 5, 8, 3, 2, 1).unwrap(),
            Conv2dGeom::new(3, 4, 4, 16, 3, 1, 0).unwrap(),
            Conv2dGeom::new(2, 6, 6, 3, 1, 1, 0).unwrap(),
            Conv2dGeom::new(1, 7, 7, 32, 5, 1, 2).unwrap(),
        ];
        for g in geoms.into_iter().chain(cnn1_geoms()) {
            let batch = 3;
            let x = Tensor::randn([batch, g.in_volume()], 1.0, &mut rng);
            let grad = Tensor::randn([batch, g.out_volume()], 1.0, &mut rng);
            let seed = Tensor::randn([g.out_c, g.col_rows()], 1.0, &mut rng);
            let mut want = seed.data().to_vec();
            let cols = patch_major_cols(&x, &g);
            crate::matmul::matmul_at_b_into(&patch_major(&grad, &g), &cols, &mut want);
            let planes = conv2d_pack_batch(&x, &g);
            for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                if level > simd::probe() {
                    continue;
                }
                let _g = simd::force(level);
                let mut got = seed.data().to_vec();
                conv2d_weight_grad_batch_into(&grad, &planes, &g, &mut got);
                assert_eq!(got, want, "{g:?} at {level:?}");
            }
        }
    }

    #[test]
    fn input_grad_matches_gemm_then_patch_raster_scatter_bitwise() {
        // The reference sequence: dcols = G′·W into zeros (one GEMM over
        // the batch), then the patch-raster scatter. The kernel reads the
        // gradient maps and the filter bank where they lie.
        let mut rng = Rng::new(30);
        for g in batch_geoms().into_iter().chain(cnn1_geoms()) {
            let batch = 3;
            let grad = Tensor::randn([batch, g.out_volume()], 1.0, &mut rng);
            let w = Tensor::randn([g.out_c, g.col_rows()], 1.0, &mut rng);
            let dcols = crate::matmul::matmul(&patch_major(&grad, &g), &w);
            let want = scatter_reference(dcols.data(), &g);
            for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                if level > simd::probe() {
                    continue;
                }
                let _g = simd::force(level);
                let mut got = vec![f32::NAN; batch * g.in_volume()];
                conv2d_input_grad_batch_into(&grad, &w, &g, &mut got);
                assert_eq!(got, want, "{g:?} at {level:?}");
            }
        }
    }

    #[test]
    fn input_grad_serial_scope_bit_identical() {
        let mut rng = Rng::new(31);
        let g = cnn1_geoms()[1];
        let batch = 64;
        let grad = Tensor::randn([batch, g.out_volume()], 1.0, &mut rng);
        let w = Tensor::randn([g.out_c, g.col_rows()], 1.0, &mut rng);
        let mut pooled = vec![0.0f32; batch * g.in_volume()];
        conv2d_input_grad_batch_into(&grad, &w, &g, &mut pooled);
        let mut serial = vec![0.0f32; batch * g.in_volume()];
        crate::pool::serial_scope(|| conv2d_input_grad_batch_into(&grad, &w, &g, &mut serial));
        assert_eq!(pooled, serial);
    }

    #[test]
    fn batched_lowering_serial_scope_bit_identical() {
        // The pool-parallel pack and forward must match the forced-serial
        // path bitwise; batch is large enough to clear the parallel
        // threshold.
        let mut rng = Rng::new(24);
        let g = Conv2dGeom::new(3, 8, 8, 4, 3, 1, 1).unwrap();
        let (x, w, bias) = forward_fixture(&g, 64, &mut rng);
        let run = || {
            let planes = conv2d_pack_batch(&x, &g);
            let mut out = vec![0.0f32; 64 * g.out_volume()];
            conv2d_forward_batch_into(&planes, &w, &bias, &g, &mut out);
            (planes, out)
        };
        let (pooled_planes, pooled) = run();
        let (serial_planes, serial) = crate::pool::serial_scope(run);
        assert_eq!(pooled_planes.data(), serial_planes.data());
        assert_eq!(pooled, serial);
    }

    /// Forward fixture: a batch, a filter bank `[F x C·K·K]`, a bias.
    fn forward_fixture(g: &Conv2dGeom, batch: usize, rng: &mut Rng) -> (Tensor, Tensor, Vec<f32>) {
        let x = Tensor::randn([batch, g.in_volume()], 1.0, rng);
        let w = Tensor::randn([g.out_c, g.col_rows()], 0.5, rng);
        let bias: Vec<f32> = (0..g.out_c).map(|f| f as f32 * 0.25 - 1.0).collect();
        (x, w, bias)
    }

    /// The direct forward at whatever level dispatch picks.
    fn direct_forward(x: &Tensor, w: &Tensor, bias: &[f32], g: &Conv2dGeom) -> Vec<f32> {
        let mut out = vec![0.0f32; x.shape().rows() * g.out_volume()];
        conv2d_forward_batch_into(&conv2d_pack_batch(x, g), w, bias, g, &mut out);
        out
    }

    #[test]
    fn fused_forward_matches_gemm_then_scatter_bitwise() {
        // The forward must reproduce the im2col lowering — matmul_into over
        // the column matrix, transpose-scatter, bias — exactly: same
        // per-element ascending-p order, bias last. Filter counts cover
        // whole and partial filter blocks.
        let mut rng = Rng::new(25);
        for (out_c, batch) in [(3usize, 4usize), (8, 3), (16, 2), (32, 2), (64, 1)] {
            let g = Conv2dGeom::new(2, 6, 6, out_c, 3, 1, 1).unwrap();
            let (x, w, bias) = forward_fixture(&g, batch, &mut rng);
            let l = g.col_cols();
            let y = crate::matmul::matmul(&patch_major_cols(&x, &g), &w.transpose());
            let mut want = vec![0.0f32; batch * g.out_volume()];
            for i in 0..batch {
                for f in 0..out_c {
                    for j in 0..l {
                        want[i * g.out_volume() + f * l + j] = y.at(&[i * l + j, f]) + bias[f];
                    }
                }
            }
            assert_eq!(direct_forward(&x, &w, &bias, &g), want, "out_c={out_c}");
        }
    }

    #[test]
    fn fused_forward_simd_dispatch_matches_portable_body() {
        // Whatever vector body the CPU dispatches to must be bit-identical
        // to the portable body, which is the scalar level.
        let mut rng = Rng::new(26);
        let g = Conv2dGeom::new(3, 7, 7, 16, 3, 1, 1).unwrap();
        let (x, w, bias) = forward_fixture(&g, 3, &mut rng);
        let dispatched = direct_forward(&x, &w, &bias, &g);
        let _scalar = simd::force(SimdLevel::Scalar);
        assert_eq!(dispatched, direct_forward(&x, &w, &bias, &g));
    }

    #[test]
    fn fused_forward_bit_identical_across_simd_levels() {
        let mut rng = Rng::new(31);
        let g = Conv2dGeom::new(3, 7, 7, 16, 3, 2, 1).unwrap();
        let (x, w, bias) = forward_fixture(&g, 3, &mut rng);
        let mut want: Option<Vec<f32>> = None;
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            if level > simd::probe() {
                continue;
            }
            let _guard = simd::force(level);
            let out = direct_forward(&x, &w, &bias, &g);
            match &want {
                Some(w) => assert_eq!(&out, w, "forward differs at {level:?}"),
                None => want = Some(out),
            }
        }
    }

    #[test]
    fn fused_forward_serial_scope_bit_identical() {
        let mut rng = Rng::new(27);
        let g = Conv2dGeom::new(2, 8, 8, 16, 3, 1, 1).unwrap();
        let (x, w, bias) = forward_fixture(&g, 64, &mut rng);
        let pooled = direct_forward(&x, &w, &bias, &g);
        let serial = crate::pool::serial_scope(|| direct_forward(&x, &w, &bias, &g));
        assert_eq!(pooled, serial);
    }

    /// Input `(c, iy, ix)` of sample `x` seen through the padding: `0.0`
    /// outside the image.
    fn padded(x: &[f32], g: &Conv2dGeom, c: usize, iy: usize, ix: usize) -> f32 {
        let (iy, ix) = (iy.wrapping_sub(g.pad), ix.wrapping_sub(g.pad));
        if iy < g.in_h && ix < g.in_w {
            x[(c * g.in_h + iy) * g.in_w + ix]
        } else {
            0.0
        }
    }

    /// The forward in the contract order, naively: `0.0`, then `x·w` over
    /// ascending `(c, ky, kx)`, then the bias.
    fn forward_contract(x: &Tensor, w: &Tensor, bias: &[f32], g: &Conv2dGeom) -> Vec<f32> {
        let (k, s, l) = (g.kernel, g.stride, g.col_cols());
        let mut out = Vec::with_capacity(x.shape().rows() * g.out_volume());
        for i in 0..x.shape().rows() {
            for (f, wf) in w.data().chunks_exact(g.col_rows()).enumerate() {
                for j in 0..l {
                    let (oy, ox) = (j / g.out_w, j % g.out_w);
                    let mut acc = 0.0f32;
                    for (t, &wv) in wf.iter().enumerate() {
                        let (c, ky, kx) = (t / (k * k), t / k % k, t % k);
                        acc += padded(x.row(i), g, c, oy * s + ky, ox * s + kx) * wv;
                    }
                    out.push(acc + bias[f]);
                }
            }
        }
        out
    }

    /// The weight gradient in the contract order, naively: every element
    /// adds `g·x` over ascending (sample, patch) into `dw`.
    fn weight_grad_contract(x: &Tensor, grad: &Tensor, g: &Conv2dGeom, dw: &mut [f32]) {
        let (k, s, l, cr) = (g.kernel, g.stride, g.col_cols(), g.col_rows());
        for i in 0..x.shape().rows() {
            for j in 0..l {
                let (oy, ox) = (j / g.out_w, j % g.out_w);
                for (f, dwf) in dw.chunks_exact_mut(cr).enumerate() {
                    let gv = grad.row(i)[f * l + j];
                    for (t, d) in dwf.iter_mut().enumerate() {
                        let (c, ky, kx) = (t / (k * k), t / k % k, t % k);
                        *d += gv * padded(x.row(i), g, c, oy * s + ky, ox * s + kx);
                    }
                }
            }
        }
    }

    /// The input gradient in the contract order, naively: each input
    /// element is `0.0` plus, for every tap from the last `(ky, kx)` to the
    /// first whose output lies inside the grid, `0.0` plus `g·w` over
    /// ascending filters. A tap outside the grid adds nothing.
    fn input_grad_contract(grad: &Tensor, w: &Tensor, g: &Conv2dGeom) -> Vec<f32> {
        let (k, s, l, cr) = (g.kernel, g.stride, g.col_cols(), g.col_rows());
        let mut out = Vec::with_capacity(grad.shape().rows() * g.in_volume());
        for i in 0..grad.shape().rows() {
            for c in 0..g.in_c {
                for iy in 0..g.in_h {
                    for ix in 0..g.in_w {
                        let mut acc = 0.0f32;
                        for ky in (0..k).rev() {
                            for kx in (0..k).rev() {
                                let (ny, nx) = (iy + g.pad, ix + g.pad);
                                if ny < ky || nx < kx || (ny - ky) % s != 0 || (nx - kx) % s != 0 {
                                    continue;
                                }
                                let (oy, ox) = ((ny - ky) / s, (nx - kx) / s);
                                if oy >= g.out_h || ox >= g.out_w {
                                    continue;
                                }
                                let t = (c * k + ky) * k + kx;
                                let mut sum = 0.0f32;
                                for f in 0..g.out_c {
                                    sum += grad.row(i)[f * l + oy * g.out_w + ox]
                                        * w.data()[f * cr + t];
                                }
                                acc += sum;
                            }
                        }
                        out.push(acc);
                    }
                }
            }
        }
        out
    }

    /// Bitwise equality, except that any NaN equals any NaN (which NaN an
    /// add of two NaNs returns is the compiler's choice of operand order).
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    #[test]
    fn direct_kernels_keep_the_contract_order_over_a_geometry_sweep() {
        // Every kernel side, stride and padding, channel and filter counts
        // across whole and partial blocks, at every SIMD level and under
        // serial_scope, against naive loops in the contract order. Inputs
        // carry NaN, ±Inf and -0.0 (sample 0 stays finite), so a dropped
        // grid lane that leaks into a stored output shows up; so do the
        // input gradient's weights and output gradient, so a tap outside
        // the output grid that adds ∞·0 = NaN at a border shows up too.
        let mut rng = Rng::new(32);
        let mut case = 0usize;
        for k in [1usize, 3, 5, 7] {
            for stride in [1usize, 2, 3] {
                for pad in 0..=k / 2 {
                    for in_c in [1usize, 2, 3, 8] {
                        for out_c in [1usize, 3, 8, 16, 17, 64] {
                            case += 1;
                            let batch = [1, 3, 32][case % 3];
                            let side = k + case % 4;
                            let g =
                                Conv2dGeom::new(in_c, side, side + case % 3, out_c, k, stride, pad)
                                    .unwrap();
                            sweep_case(&g, batch, &mut rng);
                        }
                    }
                }
            }
        }
    }

    fn sweep_case(g: &Conv2dGeom, batch: usize, rng: &mut Rng) {
        let scale = [1e-3, 1.0, 1e3];
        let mut x = Tensor::randn([batch, g.in_volume()], 1.0, rng);
        for (n, v) in x.data_mut().iter_mut().enumerate() {
            *v *= scale[n % 3];
            if n % 11 == 0 {
                *v = -0.0;
            }
        }
        for i in 1..batch {
            let row = &mut x.data_mut()[i * g.in_volume()..(i + 1) * g.in_volume()];
            let n = row.len();
            row[(i * 7) % n] = f32::NAN;
            row[(i * 13 + 5) % n] = [f32::INFINITY, f32::NEG_INFINITY][i % 2];
        }
        let w = Tensor::randn([g.out_c, g.col_rows()], 0.5, rng);
        let bias: Vec<f32> = (0..g.out_c).map(|f| f as f32 * 0.25 - 1.0).collect();
        let grad = Tensor::randn([batch, g.out_volume()], 1.0, rng);
        let seed = Tensor::randn([g.out_c, g.col_rows()], 1.0, rng);
        // The input gradient's operands: magnitudes that make any other
        // summation order round differently, -0.0, and in the weights (if
        // there are enough) and in every sample's gradient but the first,
        // NaN and ±Inf.
        let mut w_dx = Tensor::randn([g.out_c, g.col_rows()], 0.5, rng);
        let mut grad_dx = Tensor::randn([batch, g.out_volume()], 1.0, rng);
        for t in [&mut w_dx, &mut grad_dx] {
            for (n, v) in t.data_mut().iter_mut().enumerate() {
                *v *= scale[n % 3];
                if n % 13 == 4 {
                    *v = -0.0;
                }
            }
        }
        let n = w_dx.data().len();
        if n >= 8 {
            let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            for (j, v) in specials.into_iter().enumerate() {
                w_dx.data_mut()[(n / 3 * j + 5 * batch) % n] = v;
            }
        }
        for i in 1..batch {
            let row = &mut grad_dx.data_mut()[i * g.out_volume()..(i + 1) * g.out_volume()];
            let n = row.len();
            row[(i * 5) % n] = f32::NAN;
            row[(i * 11 + 3) % n] = [f32::INFINITY, f32::NEG_INFINITY][i % 2];
        }
        let want_y = forward_contract(&x, &w, &bias, g);
        let mut want_dw = seed.data().to_vec();
        weight_grad_contract(&x, &grad, g, &mut want_dw);
        let want_dx = input_grad_contract(&grad_dx, &w_dx, g);
        let run = || {
            let planes = conv2d_pack_batch(&x, g);
            let mut y = vec![0.0f32; batch * g.out_volume()];
            conv2d_forward_batch_into(&planes, &w, &bias, g, &mut y);
            let mut dw = seed.data().to_vec();
            conv2d_weight_grad_batch_into(&grad, &planes, g, &mut dw);
            let mut dx = vec![f32::NAN; batch * g.in_volume()];
            conv2d_input_grad_batch_into(&grad_dx, &w_dx, g, &mut dx);
            (y, dw, dx)
        };
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            if level > simd::probe() {
                continue;
            }
            let _guard = simd::force(level);
            let (y, dw, dx) = run();
            assert!(
                same_bits(&y, &want_y),
                "forward {g:?} batch {batch} at {level:?}"
            );
            assert!(
                same_bits(&dw, &want_dw),
                "dW {g:?} batch {batch} at {level:?}"
            );
            assert!(
                same_bits(&dx, &want_dx),
                "dx {g:?} batch {batch} at {level:?}"
            );
        }
        let (y, dw, dx) = crate::pool::serial_scope(run);
        assert!(same_bits(&y, &want_y), "serial forward {g:?} batch {batch}");
        assert!(same_bits(&dw, &want_dw), "serial dW {g:?} batch {batch}");
        assert!(same_bits(&dx, &want_dx), "serial dx {g:?} batch {batch}");
    }
}
