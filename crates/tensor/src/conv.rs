//! Convolution geometry and im2col/col2im lowering.
//!
//! Convolutions are lowered to matrix multiplication: the input patch grid
//! is unrolled into a column matrix ([`im2col`] for one sample,
//! [`im2col_batch`] for a whole batch); the filter bank `[F x C*KH*KW]`
//! then produces the output feature map with one GEMM. The adjoint
//! ([`col2im`] / [`col2im_batch`]) folds column gradients back into image
//! layout, which is exactly the input-gradient computation of the
//! convolution. Training runs the two gradients as batched kernels that
//! read the channel-major output gradient where it lies:
//! [`conv2d_weight_grad_batch_into`] and [`conv2d_input_grad_batch_into`].
//!
//! # Batched layout
//!
//! The per-sample [`im2col`] keeps the classical `[C*K*K x OH*OW]`
//! orientation (kernel positions as rows). The batched form is stored
//! **transposed and patch-major**: `[B*OH*OW x C*K*K]`, where rows
//! `i*OH*OW .. (i+1)*OH*OW` hold sample `i`'s patches. Mathematically it is
//! the same column matrix (for the whole batch) — transposing only swaps
//! which GEMM form consumes it — but this orientation makes each sample's
//! block *contiguous*, which buys three things at once: the fill
//! parallelizes over samples through the worker pool with disjoint
//! contiguous writes (bit-deterministic at any thread count), the forward
//! GEMM `cols · Wᵀ` parallelizes over `B*OH*OW` rows instead of the handful
//! of filter rows, and backward can hand per-sample sub-blocks to the GEMM
//! kernels without copying.

use crate::error::TensorError;
use crate::matmul::{gemm_rows, matmul_parts_into};
use crate::pool::for_chunks_mut;
use crate::shape::Shape;
use crate::simd::{self, SimdOp};
use crate::tensor::Tensor;

/// Validated geometry of a 2-D convolution (single spatial configuration).
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
    /// Returns [`TensorError::InvalidGeometry`] if the kernel does not fit
    /// the padded input, or if any dimension/stride is zero.
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
        let padded_h = in_h + 2 * pad;
        let padded_w = in_w + 2 * pad;
        if kernel > padded_h || kernel > padded_w {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {kernel} larger than padded input {padded_h}x{padded_w}"
            )));
        }
        let out_h = (padded_h - kernel) / stride + 1;
        let out_w = (padded_w - kernel) / stride + 1;
        Ok(Conv2dGeom {
            in_c,
            in_h,
            in_w,
            out_c,
            kernel,
            stride,
            pad,
            out_h,
            out_w,
        })
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

/// Adjoint of [`im2col`]: folds a column-matrix gradient back into a
/// sample-shaped buffer (accumulating where patches overlap, in the order
/// [`col2im_batch_into`] documents, so the two agree bit for bit).
///
/// # Panics
///
/// Panics if shapes disagree with `geom`.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeom) -> Vec<f32> {
    assert_eq!(cols.shape().rows(), geom.col_rows(), "col2im row mismatch");
    assert_eq!(cols.shape().cols(), geom.col_cols(), "col2im col mismatch");
    let mut taps = cols.data().to_vec();
    let mut out = vec![0.0f32; geom.in_volume()];
    let kkl = geom.kernel * geom.kernel * geom.col_cols();
    for (taps, plane) in taps
        .chunks_exact_mut(kkl)
        .zip(out.chunks_exact_mut(geom.in_h * geom.in_w))
    {
        fold_taps(taps, geom, plane);
    }
    out
}

/// Folds one channel's column gradient in the classical channel-major
/// layout (`taps`: `[K·K × OH·OW]`, row `ky·K + kx` holding tap `(ky, kx)`
/// for every patch) onto its input plane (`[H × W]`), overwriting it.
/// `taps` is scratch: the entries that fall on padding are zeroed.
///
/// Every input element starts from `0.0` and adds its contributions in
/// patch-raster order — ascending `(oy, ox)`, which for one element is
/// descending `(ky, kx)`. Walking the taps from last to first and adding
/// each tap's row whole keeps that order while every add runs along
/// contiguous memory, with no bounds test inside the run.
fn fold_taps(taps: &mut [f32], geom: &Conv2dGeom, plane: &mut [f32]) {
    simd::dispatch(FoldTaps { taps, geom, plane });
}

/// [`SimdOp`] wrapper for [`fold_taps`].
struct FoldTaps<'a> {
    taps: &'a mut [f32],
    geom: &'a Conv2dGeom,
    plane: &'a mut [f32],
}

impl SimdOp for FoldTaps<'_> {
    type Output = ();

    #[inline(always)]
    fn eval(self) {
        let FoldTaps { taps, geom, plane } = self;
        let (k, stride, pad) = (geom.kernel, geom.stride, geom.pad);
        let (h, w) = (geom.in_h, geom.in_w);
        let (oh, ow) = (geom.out_h, geom.out_w);
        let l = oh * ow;
        assert_eq!(taps.len(), k * k * l, "col2im taps volume");
        assert_eq!(plane.len(), h * w, "col2im plane volume");
        plane.fill(0.0);
        for ky in (0..k).rev() {
            // Output rows whose tap row `oy·stride + ky − pad` is inside.
            let oy_lo = pad.saturating_sub(ky).div_ceil(stride).min(oh);
            let oy_hi = (h + pad)
                .saturating_sub(ky)
                .div_ceil(stride)
                .clamp(oy_lo, oh);
            for kx in (0..k).rev() {
                let row = &mut taps[(ky * k + kx) * l..][..l];
                let ox_lo = pad.saturating_sub(kx).div_ceil(stride).min(ow);
                let ox_hi = (w + pad)
                    .saturating_sub(kx)
                    .div_ceil(stride)
                    .clamp(ox_lo, ow);
                if ox_lo == ox_hi || oy_lo == oy_hi {
                    continue;
                }
                let ix_lo = ox_lo * stride + kx - pad;
                if stride == 1 && ow == w {
                    // Image rows and patch rows share one pitch, so the
                    // tap's row lands on the plane shifted by a constant
                    // and folds in one run. The patches whose tap falls on
                    // padding would wrap round a row end: they add +0.0
                    // instead, which leaves every sum unchanged (a sum that
                    // starts from +0.0 is never -0.0).
                    for patches in row.chunks_exact_mut(ow) {
                        patches[..ox_lo].fill(0.0);
                        patches[ox_hi..].fill(0.0);
                    }
                    let (j0, j1) = (oy_lo * ow + ox_lo, (oy_hi - 1) * ow + ox_hi);
                    let iy_lo = oy_lo + ky - pad;
                    let dst = &mut plane[iy_lo * w + ix_lo..][..j1 - j0];
                    for (d, &v) in dst.iter_mut().zip(&row[j0..j1]) {
                        *d += v;
                    }
                    continue;
                }
                for oy in oy_lo..oy_hi {
                    let iy = oy * stride + ky - pad;
                    let src = &row[oy * ow + ox_lo..oy * ow + ox_hi];
                    let dst = plane[iy * w + ix_lo..(iy + 1) * w].iter_mut();
                    for (d, &v) in dst.step_by(stride).zip(src) {
                        *d += v;
                    }
                }
            }
        }
    }
}

/// Fills sample `i`'s patch-major block (`[OH*OW x C*K*K]`, row-major) of a
/// batched column matrix. Every element is written (padding becomes
/// explicit zeros), so the destination does not need to be pre-zeroed.
fn im2col_sample_block(sample: &[f32], geom: &Conv2dGeom, block: &mut [f32]) {
    let k = geom.kernel;
    let (h, w) = (geom.in_h, geom.in_w);
    let cr = geom.col_rows();
    let out_w = geom.out_w;
    // Loop order (oy, c, ky, ox) resolves the input row and its vertical
    // bounds check once per kernel row instead of once per patch; the inner
    // ox sweep then only handles horizontal bounds. The write set is the
    // same as a patch-by-patch fill, just visited in a different order.
    for oy in 0..geom.out_h {
        let patch_base = oy * out_w * cr;
        for c in 0..geom.in_c {
            let plane = &sample[c * h * w..(c + 1) * h * w];
            let c_off = c * k * k;
            for ky in 0..k {
                let off = c_off + ky * k;
                let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                if iy < 0 || iy >= h as isize {
                    for ox in 0..out_w {
                        let d = patch_base + ox * cr + off;
                        block[d..d + k].fill(0.0);
                    }
                    continue;
                }
                let row = &plane[iy as usize * w..(iy as usize + 1) * w];
                let stride = geom.stride;
                let pad = geom.pad;
                // The interior run — every ox whose whole kernel row is in
                // bounds — is resolved up front, so its loop is a straight
                // sequence of k-float copies with no per-patch branching.
                let ox_lo = pad.div_ceil(stride).min(out_w);
                let ox_hi = if w + pad >= k {
                    ((w + pad - k) / stride + 1).clamp(ox_lo, out_w)
                } else {
                    ox_lo
                };
                let edge = |block: &mut [f32], ox: usize| {
                    let d = patch_base + ox * cr + off;
                    let dst = &mut block[d..d + k];
                    let ix0 = (ox * stride) as isize - pad as isize;
                    for (kx, d) in dst.iter_mut().enumerate() {
                        let ix = ix0 + kx as isize;
                        *d = if ix >= 0 && (ix as usize) < w {
                            row[ix as usize]
                        } else {
                            0.0
                        };
                    }
                };
                for ox in 0..ox_lo {
                    edge(block, ox);
                }
                // A monomorphized copy loop for the common kernel sides: a
                // fixed-size copy is two register moves, where the
                // runtime-length `copy_from_slice` is a libc memcpy call
                // per patch — the dominant cost at k = 3.
                let run = InteriorRun {
                    patch_base,
                    off,
                    cr,
                    stride,
                    pad,
                    ox_lo,
                    ox_hi,
                };
                match k {
                    1 => interior_copy::<1>(block, row, &run),
                    3 => interior_copy::<3>(block, row, &run),
                    5 => interior_copy::<5>(block, row, &run),
                    7 => interior_copy::<7>(block, row, &run),
                    _ => {
                        for ox in ox_lo..ox_hi {
                            let d = patch_base + ox * cr + off;
                            let s = ox * stride - pad;
                            block[d..d + k].copy_from_slice(&row[s..s + k]);
                        }
                    }
                }
                for ox in ox_hi..out_w {
                    edge(block, ox);
                }
            }
        }
    }
}

/// Unrolls a whole batch (`[B x C*H*W]`) into a patch-major column matrix
/// `[B*OH*OW x C*K*K]`, writing into `out` (see the
/// module docs above for the layout). Samples are filled
/// in parallel on the worker pool; each sample's block depends only on its
/// own input row, so the result is bit-identical at any thread count.
///
/// # Panics
///
/// Panics if `input` is not `[B x in_volume]` or `out` is not
/// `B * OH*OW * C*K*K` long.
pub fn im2col_batch_into(input: &Tensor, geom: &Conv2dGeom, out: &mut [f32]) {
    let batch = input.shape().rows();
    assert_eq!(
        input.shape().cols(),
        geom.in_volume(),
        "im2col_batch input volume mismatch"
    );
    let block = geom.col_cols() * geom.col_rows();
    for_chunks_mut(batch, block, block, out, |range, chunk| {
        for i in range.0..range.1 {
            let dst = &mut chunk[(i - range.0) * block..(i - range.0 + 1) * block];
            im2col_sample_block(input.row(i), geom, dst);
        }
    });
}

/// Allocating wrapper over [`im2col_batch_into`].
pub fn im2col_batch(input: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let batch = input.shape().rows();
    let mut out = vec![0.0f32; batch * geom.col_cols() * geom.col_rows()];
    im2col_batch_into(input, geom, &mut out);
    Tensor::from_vec(Shape::d2(batch * geom.col_cols(), geom.col_rows()), out)
        .expect("im2col_batch output volume")
}

/// Fused batched convolution forward: `out = scatter(cols · Wᵀ) + bias` in
/// one pass over the column matrix.
///
/// `cols` is the patch-major `[B*OH*OW x C*K*K]` matrix from
/// [`im2col_batch_into`], `w_t` the *transposed* filter bank
/// `[C*K*K x F]`, and `out` the batched feature-map buffer
/// `[B x F*OH*OW]`. Compared to a GEMM into an intermediate `[B*OH*OW x F]`
/// buffer followed by a transposing scatter, the fused kernel keeps each
/// patch's `F` accumulators in registers/L1 and never materialises the
/// intermediate — on one core that roughly halves the memory traffic of the
/// forward pass.
///
/// Determinism: every output element accumulates its `C*K*K` contributions
/// in ascending kernel-position order (identical to [`matmul_into`]'s
/// per-element order, with the bias added last), each sample depends only
/// on its own block, and samples are distributed — never split — across
/// pool workers, so the result is bit-identical at any thread count and
/// for any batch decomposition.
///
/// [`matmul_into`]: crate::matmul_into
///
/// # Panics
///
/// Panics unless `cols` is `[B*OH*OW x C*K*K]` for an integral batch,
/// `w_t` is `[C*K*K x F]`, `bias` has `F` entries, and `out` is
/// `B * F*OH*OW` long.
pub fn conv2d_forward_batch_into(
    cols: &Tensor,
    w_t: &Tensor,
    bias: &[f32],
    geom: &Conv2dGeom,
    out: &mut [f32],
) {
    let l = geom.col_cols();
    let cr = geom.col_rows();
    let out_c = geom.out_c;
    let out_vol = geom.out_volume();
    assert_eq!(cols.shape().cols(), cr, "conv forward column mismatch");
    assert_eq!(
        cols.shape().rows() % l,
        0,
        "conv forward rows {} not a multiple of OH*OW {l}",
        cols.shape().rows()
    );
    assert_eq!(
        (w_t.shape().rows(), w_t.shape().cols()),
        (cr, out_c),
        "conv forward transposed-weight shape"
    );
    assert_eq!(bias.len(), out_c, "conv forward bias length");
    let batch = cols.shape().rows() / l;
    assert_eq!(out.len(), batch * out_vol, "conv forward output volume");
    let cd = cols.data();
    let wtd = w_t.data();
    for_chunks_mut(
        batch,
        out_vol,
        2 * geom.macs_per_sample(),
        out,
        |range, chunk| {
            for i in range.0..range.1 {
                let scols = &cd[i * l * cr..(i + 1) * l * cr];
                let dst = &mut chunk[(i - range.0) * out_vol..(i - range.0 + 1) * out_vol];
                // Monomorphized accumulators for the filter counts of the
                // paper's models: a fixed-size array keeps the whole
                // accumulator in registers and lets the axpy unroll fully.
                match out_c {
                    8 => fused_sample_block::<8>(scols, wtd, bias, cr, l, dst),
                    16 => fused_sample_block::<16>(scols, wtd, bias, cr, l, dst),
                    32 => fused_sample_block::<32>(scols, wtd, bias, cr, l, dst),
                    64 => fused_sample_block::<64>(scols, wtd, bias, cr, l, dst),
                    _ => fused_sample_block_dyn(scols, wtd, bias, cr, l, out_c, dst),
                }
            }
        },
    );
}

/// Parameters of an im2col interior run (every patch whose kernel row is
/// fully in bounds for a fixed output row / channel / kernel row).
struct InteriorRun {
    patch_base: usize,
    off: usize,
    cr: usize,
    stride: usize,
    pad: usize,
    ox_lo: usize,
    ox_hi: usize,
}

/// Copies the interior run with a compile-time kernel side `K`, so each
/// patch's kernel row is a fixed-size (register) copy.
fn interior_copy<const K: usize>(block: &mut [f32], row: &[f32], run: &InteriorRun) {
    for ox in run.ox_lo..run.ox_hi {
        let d = run.patch_base + ox * run.cr + run.off;
        let s = ox * run.stride - run.pad;
        let src: &[f32; K] = row[s..s + K].try_into().expect("kernel row in bounds");
        let dst: &mut [f32; K] = (&mut block[d..d + K]).try_into().expect("kernel row fits");
        *dst = *src;
    }
}

/// [`SimdOp`] wrapper for the fused per-sample kernel: one portable body,
/// re-vectorized per ISA by [`crate::simd::dispatch`].
struct FusedSample<'a, const F: usize> {
    scols: &'a [f32],
    wtd: &'a [f32],
    bias: &'a [f32],
    cr: usize,
    l: usize,
    dst: &'a mut [f32],
}

impl<const F: usize> SimdOp for FusedSample<'_, F> {
    type Output = ();

    #[inline(always)]
    fn eval(self) {
        fused_sample_block_body::<F>(self.scols, self.wtd, self.bias, self.cr, self.l, self.dst);
    }
}

/// One sample of the fused forward with a compile-time filter count `F`:
/// routed through [`crate::simd::dispatch`], which monomorphizes the body
/// under the detected ISA's target features.
///
/// Every monomorphization compiles the *same* element-wise loop body, so
/// they are bit-identical: wider vectors change how many lanes run per
/// instruction, not the multiply/add each lane performs (Rust never
/// contracts `a*b + c` into an FMA or reassociates floats on its own).
fn fused_sample_block<const F: usize>(
    scols: &[f32],
    wtd: &[f32],
    bias: &[f32],
    cr: usize,
    l: usize,
    dst: &mut [f32],
) {
    simd::dispatch(FusedSample::<F> {
        scols,
        wtd,
        bias,
        cr,
        l,
        dst,
    });
}

/// Portable body of the fused per-sample kernel.
///
/// Patches are processed in pairs so every transposed-weight row loaded
/// from L1 feeds two FMA chains — the kernel is load-bound otherwise. Each
/// output element still accumulates in ascending kernel-position order, so
/// pairing does not change a single bit of the result.
#[inline(always)]
fn fused_sample_block_body<const F: usize>(
    scols: &[f32],
    wtd: &[f32],
    bias: &[f32],
    cr: usize,
    l: usize,
    dst: &mut [f32],
) {
    let bias: &[f32; F] = bias.try_into().expect("bias length F");
    assert_eq!(dst.len(), F * l, "fused output block volume");
    let wt_rows = wtd.chunks_exact(F);
    let mut pairs = scols.chunks_exact(2 * cr);
    let mut j = 0;
    for pair in &mut pairs {
        let (c0, c1) = pair.split_at(cr);
        let mut a0 = [0.0f32; F];
        let mut a1 = [0.0f32; F];
        for ((w, &x0), &x1) in wt_rows.clone().zip(c0).zip(c1) {
            let w: &[f32; F] = w.try_into().expect("wt row F");
            for f in 0..F {
                a0[f] += x0 * w[f];
                a1[f] += x1 * w[f];
            }
        }
        for (f, &b) in bias.iter().enumerate() {
            dst[f * l + j] = a0[f] + b;
            dst[f * l + j + 1] = a1[f] + b;
        }
        j += 2;
    }
    for crow in pairs.remainder().chunks_exact(cr) {
        let mut acc = [0.0f32; F];
        for (w, &x) in wt_rows.clone().zip(crow) {
            let w: &[f32; F] = w.try_into().expect("wt row F");
            for f in 0..F {
                acc[f] += x * w[f];
            }
        }
        for (f, &b) in bias.iter().enumerate() {
            dst[f * l + j] = acc[f] + b;
        }
        j += 1;
    }
}

/// Fallback for filter counts without a monomorphized kernel.
fn fused_sample_block_dyn(
    scols: &[f32],
    wtd: &[f32],
    bias: &[f32],
    cr: usize,
    l: usize,
    out_c: usize,
    dst: &mut [f32],
) {
    let mut acc = vec![0.0; out_c];
    for (j, crow) in scols.chunks_exact(cr).enumerate() {
        acc.fill(0.0);
        for (p, &a) in crow.iter().enumerate() {
            crate::matmul::axpy(a, &wtd[p * out_c..(p + 1) * out_c], &mut acc);
        }
        for (f, (&v, &b)) in acc.iter().zip(bias).enumerate() {
            dst[f * l + j] = v + b;
        }
    }
}

/// Adjoint of [`im2col_batch`]: folds a patch-major column-gradient matrix
/// `[B*OH*OW x C*K*K]` back into batch image layout `[B x C*H*W]`,
/// overwriting `out` (overlapping patches accumulate within a sample).
///
/// Every input element starts from `0.0` and adds its patch contributions
/// in patch-raster order (ascending `(oy, ox)`), the order a scatter over
/// the patches produces. Each sample's block is transposed to the
/// channel-major layout and folded tap by tap (see [`col2im`]). Samples
/// run in parallel on the worker pool, so the result is bit-identical at
/// any thread count.
///
/// # Panics
///
/// Panics if `cols` is not `[B*OH*OW x C*K*K]` for an integral batch, or
/// `out` is not `B * in_volume` long.
pub fn col2im_batch_into(cols: &Tensor, geom: &Conv2dGeom, out: &mut [f32]) {
    let l = geom.col_cols();
    let cr = geom.col_rows();
    assert_eq!(cols.shape().cols(), cr, "col2im_batch column mismatch");
    assert_eq!(
        cols.shape().rows() % l,
        0,
        "col2im_batch rows {} not a multiple of OH*OW {l}",
        cols.shape().rows()
    );
    let batch = cols.shape().rows() / l;
    let in_vol = geom.in_volume();
    let (kk, hw) = (geom.kernel * geom.kernel, geom.in_h * geom.in_w);
    let data = cols.data();
    for_chunks_mut(batch, in_vol, l * cr, out, |range, chunk| {
        let mut rows = vec![0.0f32; cr * l];
        for (i, image) in (range.0..range.1).zip(chunk.chunks_exact_mut(in_vol)) {
            for (j, patch) in data[i * l * cr..(i + 1) * l * cr]
                .chunks_exact(cr)
                .enumerate()
            {
                for (r, &v) in patch.iter().enumerate() {
                    rows[r * l + j] = v;
                }
            }
            let channels = rows
                .chunks_exact_mut(kk * l)
                .zip(image.chunks_exact_mut(hw));
            for (taps, plane) in channels {
                fold_taps(taps, geom, plane);
            }
        }
    });
}

/// Batched convolution weight gradient: `dw += Σ_i G_i·cols_i`, samples in
/// ascending order, where `G_i` is sample `i`'s row of the channel-major
/// `grad_out` (`[B x F*OH*OW]`) read in place as an `[F x OH*OW]` matrix
/// and `cols_i` its `[OH*OW x C*K*K]` block of the patch-major column
/// matrix from [`im2col_batch_into`].
///
/// Every element of `dw` (`[F x C*K*K]`) adds its `B*OH*OW` products in
/// ascending (sample, patch) order — the sequence of one `Gᵀ·cols` GEMM
/// over the whole batch with `G` transposed to patch-major first, without
/// building that transpose.
///
/// # Panics
///
/// Panics unless `cols` is `[B*OH*OW x C*K*K]`, `grad_out` is
/// `[B x F*OH*OW]` for the same `B`, and `dw` is `F * C*K*K` long.
pub fn conv2d_weight_grad_batch_into(
    grad_out: &Tensor,
    cols: &Tensor,
    geom: &Conv2dGeom,
    dw: &mut [f32],
) {
    let (l, cr, out_c) = (geom.col_cols(), geom.col_rows(), geom.out_c);
    let batch = grad_out.shape().rows();
    assert_eq!(
        grad_out.shape().cols(),
        geom.out_volume(),
        "conv weight-grad gradient volume"
    );
    assert_eq!(
        cols.shape().dims(),
        &[batch * l, cr],
        "conv weight-grad column matrix shape"
    );
    assert_eq!(dw.len(), out_c * cr, "conv weight-grad buffer volume");
    let (gd, cd) = (grad_out.data(), cols.data());
    // Few filters leave the GEMM kernels output rows too few (and, for a
    // first layer's 1-channel 3×3 patch, too short) to keep the vector
    // units busy; a register accumulator per filter does instead.
    match out_c {
        4 => return weight_grad_in_registers::<4>(gd, cd, geom, dw),
        8 => return weight_grad_in_registers::<8>(gd, cd, geom, dw),
        16 => return weight_grad_in_registers::<16>(gd, cd, geom, dw),
        _ => {}
    }
    matmul_parts_into(gd, geom.out_volume(), cd, l * cr, batch, (out_c, l, cr), dw);
}

/// Lanes per filter row of [`weight_grad_in_registers`]'s accumulator.
const WG_LANES: usize = 16;

/// [`conv2d_weight_grad_batch_into`] for `F` filters: `dW`'s columns are
/// taken [`WG_LANES`] at a time (a slab), and a slab's `F × WG_LANES`
/// accumulator — one vector per filter — stays in registers while the
/// sample's patches stream past; each patch's column row is read as one
/// `WG_LANES`-wide window, whose lanes past `C*K*K` belong to the next
/// patch and are never stored. Between samples the accumulator waits in
/// memory. Every element still adds its products in ascending (sample,
/// patch) order.
fn weight_grad_in_registers<const F: usize>(
    grad: &[f32],
    cols: &[f32],
    geom: &Conv2dGeom,
    dw: &mut [f32],
) {
    simd::dispatch(WeightGradInRegisters::<F> {
        grad,
        cols,
        geom,
        dw,
    });
}

/// [`SimdOp`] wrapper for [`weight_grad_in_registers`].
struct WeightGradInRegisters<'a, const F: usize> {
    grad: &'a [f32],
    cols: &'a [f32],
    geom: &'a Conv2dGeom,
    dw: &'a mut [f32],
}

impl<const F: usize> SimdOp for WeightGradInRegisters<'_, F> {
    type Output = ();

    #[inline(always)]
    fn eval(self) {
        let (l, cr, out_vol) = (
            self.geom.col_cols(),
            self.geom.col_rows(),
            self.geom.out_volume(),
        );
        // A slab's accumulator is only ever read and written whole, so it
        // can live in registers; values move in and out through padded
        // copies.
        let slabs: Vec<usize> = (0..cr).step_by(WG_LANES).collect();
        let mut saved = vec![[[0.0f32; WG_LANES]; F]; slabs.len()];
        for (acc, &s) in saved.iter_mut().zip(&slabs) {
            let width = (cr - s).min(WG_LANES);
            for (a, w) in acc.iter_mut().zip(self.dw.chunks_exact(cr)) {
                a[..width].copy_from_slice(&w[s..s + width]);
            }
        }
        let samples = self.grad.chunks_exact(out_vol);
        for (i, (g, patches)) in samples.zip(self.cols.chunks_exact(l * cr)).enumerate() {
            for (acc_slot, &s) in saved.iter_mut().zip(&slabs) {
                let width = (cr - s).min(WG_LANES);
                let mut acc = *acc_slot;
                for (j, patch) in patches.chunks_exact(cr).enumerate() {
                    let at = (i * l + j) * cr + s;
                    let x: [f32; WG_LANES] = match self.cols.get(at..at + WG_LANES) {
                        Some(window) => window.try_into().expect("window width"),
                        None => {
                            let mut window = [0.0f32; WG_LANES];
                            window[..width].copy_from_slice(&patch[s..s + width]);
                            window
                        }
                    };
                    for (f, a) in acc.iter_mut().enumerate() {
                        let gf = g[f * l + j];
                        for (a, x) in a.iter_mut().zip(x) {
                            *a += gf * x;
                        }
                    }
                }
                *acc_slot = acc;
            }
        }
        for (acc, &s) in saved.iter().zip(&slabs) {
            let width = (cr - s).min(WG_LANES);
            for (a, w) in acc.iter().zip(self.dw.chunks_exact_mut(cr)) {
                w[s..s + width].copy_from_slice(&a[..width]);
            }
        }
    }
}

/// Batched convolution input gradient: `dx = col2im(G·W)` per sample,
/// overwriting `dx` (`[B x C*H*W]`).
///
/// Sample `i`'s column gradient is computed channel-major, one input
/// channel's `K*K` tap rows of `Wᵀ·G_i` at a time (`w_t` is the transposed
/// filter bank `[C*K*K x F]`, `G_i` the sample's row of `grad_out` read in
/// place as `[F x OH*OW]`), into a buffer that stays in L1, and folded
/// onto that channel's plane as in [`col2im`]. Each column-gradient
/// element is `0.0` plus its `F` products in ascending filter order, and
/// each input element `0.0` plus its patch contributions in patch-raster
/// order: the same sequences as a patch-major `G′·W` GEMM followed by
/// [`col2im_batch_into`]. Samples run in parallel on the worker pool, so
/// the result is bit-identical at any thread count.
///
/// # Panics
///
/// Panics unless `grad_out` is `[B x F*OH*OW]`, `w_t` is `[C*K*K x F]` and
/// `dx` is `B * C*H*W` long.
pub fn conv2d_input_grad_batch_into(
    grad_out: &Tensor,
    w_t: &Tensor,
    geom: &Conv2dGeom,
    dx: &mut [f32],
) {
    let (l, cr, out_c) = (geom.col_cols(), geom.col_rows(), geom.out_c);
    let batch = grad_out.shape().rows();
    assert_eq!(
        grad_out.shape().cols(),
        geom.out_volume(),
        "conv input-grad gradient volume"
    );
    assert_eq!(
        w_t.shape().dims(),
        &[cr, out_c],
        "conv input-grad transposed-weight shape"
    );
    let in_vol = geom.in_volume();
    let (kk, hw) = (geom.kernel * geom.kernel, geom.in_h * geom.in_w);
    assert_eq!(dx.len(), batch * in_vol, "conv input-grad buffer volume");
    let wtd = w_t.data();
    for_chunks_mut(
        batch,
        in_vol,
        2 * geom.macs_per_sample(),
        dx,
        |range, chunk| {
            let mut taps = vec![0.0f32; kk * l];
            for (i, image) in (range.0..range.1).zip(chunk.chunks_exact_mut(in_vol)) {
                for (c, plane) in image.chunks_exact_mut(hw).enumerate() {
                    taps.fill(0.0);
                    let w_c = &wtd[c * kk * out_c..(c + 1) * kk * out_c];
                    gemm_rows(w_c, out_c, kk, out_c, grad_out.row(i), l, &mut taps);
                    fold_taps(&mut taps, geom, plane);
                }
            }
        },
    );
}

/// Allocating wrapper over [`col2im_batch_into`].
pub fn col2im_batch(cols: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let batch = cols.shape().rows() / geom.col_cols().max(1);
    let mut out = vec![0.0f32; batch * geom.in_volume()];
    col2im_batch_into(cols, geom, &mut out);
    Tensor::from_vec(Shape::d2(batch, geom.in_volume()), out).expect("col2im_batch output volume")
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

    /// Geometries exercising padding, stride, interior/edge fast paths, and
    /// (with enough samples) the pool's parallel fill.
    fn batch_geoms() -> Vec<Conv2dGeom> {
        vec![
            Conv2dGeom::new(2, 5, 5, 3, 3, 2, 1).unwrap(),
            Conv2dGeom::new(1, 4, 4, 2, 3, 1, 1).unwrap(),
            Conv2dGeom::new(3, 8, 8, 4, 3, 1, 0).unwrap(),
            Conv2dGeom::new(2, 6, 6, 2, 1, 1, 0).unwrap(),
            Conv2dGeom::new(1, 7, 7, 2, 5, 1, 2).unwrap(),
        ]
    }

    #[test]
    fn im2col_batch_matches_per_sample_transpose() {
        // Each sample block of the batched patch-major matrix must be
        // exactly the transpose of the classical per-sample column matrix.
        let mut rng = Rng::new(21);
        for g in batch_geoms() {
            let batch = 3;
            let x = Tensor::randn([batch, g.in_volume()], 1.0, &mut rng);
            let cols = im2col_batch(&x, &g);
            assert_eq!(
                cols.shape().dims(),
                &[batch * g.col_cols(), g.col_rows()],
                "{g:?}"
            );
            for i in 0..batch {
                let classic = im2col(x.row(i), &g);
                for j in 0..g.col_cols() {
                    for r in 0..g.col_rows() {
                        assert_eq!(
                            cols.at(&[i * g.col_cols() + j, r]),
                            classic.at(&[r, j]),
                            "{g:?} sample {i} patch {j} row {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn im2col_batch_overwrites_dirty_buffer() {
        // The _into form must not depend on the destination's contents:
        // padding positions are written as explicit zeros.
        let g = Conv2dGeom::new(1, 3, 3, 1, 3, 1, 1).unwrap();
        let x = Tensor::ones([2, 9]);
        let n = 2 * g.col_cols() * g.col_rows();
        let mut dirty = vec![f32::NAN; n];
        im2col_batch_into(&x, &g, &mut dirty);
        let mut clean = vec![0.0f32; n];
        im2col_batch_into(&x, &g, &mut clean);
        assert_eq!(dirty, clean);
    }

    #[test]
    fn col2im_batch_is_adjoint_of_im2col_batch() {
        // <A x, y> == <x, Aᵀ y> over whole batches, for every geometry.
        let mut rng = Rng::new(22);
        for g in batch_geoms() {
            let batch = 4;
            let x = Tensor::randn([batch, g.in_volume()], 1.0, &mut rng);
            let y = Tensor::randn([batch * g.col_cols(), g.col_rows()], 1.0, &mut rng);
            let ax = im2col_batch(&x, &g);
            let aty = col2im_batch(&y, &g);
            assert_eq!(aty.shape().dims(), &[batch, g.in_volume()]);
            let lhs: f64 = ax
                .data()
                .iter()
                .zip(y.data())
                .map(|(a, b)| (a * b) as f64)
                .sum();
            let rhs: f64 = x
                .data()
                .iter()
                .zip(aty.data())
                .map(|(a, b)| (a * b) as f64)
                .sum();
            assert!(
                (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
                "{g:?}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn col2im_batch_matches_per_sample() {
        // Folding a batch at once equals folding each sample's block
        // through the classical col2im, bit for bit: both accumulate in
        // patch-raster order.
        let mut rng = Rng::new(23);
        for g in batch_geoms() {
            let batch = 5;
            let y = Tensor::randn([batch * g.col_cols(), g.col_rows()], 1.0, &mut rng);
            let batched = col2im_batch(&y, &g);
            for i in 0..batch {
                // Transpose sample i's patch-major block into classical layout.
                let mut classic = Tensor::zeros([g.col_rows(), g.col_cols()]);
                for j in 0..g.col_cols() {
                    for r in 0..g.col_rows() {
                        classic.set(&[r, j], y.at(&[i * g.col_cols() + j, r]));
                    }
                }
                assert_eq!(batched.row(i), col2im(&classic, &g), "{g:?} sample {i}");
            }
        }
    }

    /// CNN1's two convolutions (28² and 14², 3×3, same padding).
    fn cnn1_geoms() -> [Conv2dGeom; 2] {
        [
            Conv2dGeom::new(1, 28, 28, 8, 3, 1, 1).unwrap(),
            Conv2dGeom::new(8, 14, 14, 16, 3, 1, 1).unwrap(),
        ]
    }

    /// The patch-raster scatter: every image element starts from `0.0`
    /// and adds its patch contributions as the patches come, `(oy, ox)`
    /// ascending — the summation order `col2im_batch_into` is pinned to.
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

    #[test]
    fn col2im_batch_sums_in_patch_raster_order_bitwise() {
        // Pins the summation order: per element, `0.0` then each patch's
        // contribution in patch-raster order. Values spanning many
        // magnitudes make any other order round differently.
        let mut rng = Rng::new(28);
        for g in batch_geoms().into_iter().chain(cnn1_geoms()) {
            let batch = 3;
            let n = batch * g.col_cols() * g.col_rows();
            let cols: Vec<f32> = (0..n)
                .map(|i| rng.normal() * [1e-3, 1.0, 1e3][i % 3])
                .collect();
            let y = Tensor::from_vec([batch * g.col_cols(), g.col_rows()], cols).unwrap();
            let want = scatter_reference(y.data(), &g);
            for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                if level > simd::probe() {
                    continue;
                }
                let _g = simd::force(level);
                assert_eq!(col2im_batch(&y, &g).data(), want, "{g:?} at {level:?}");
            }
        }
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
        // dW += G′ᵀ·cols as one Aᵀ·B GEMM over the whole batch is the
        // reference sequence; the kernel reads grad_out in place (register
        // accumulators for 4 / 8 / 16 filters, across one, several and a
        // partial 16-lane slab; the GEMM for other counts). dW starts
        // non-zero: the kernel accumulates.
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
            let cols = im2col_batch(&x, &g);
            let grad = Tensor::randn([batch, g.out_volume()], 1.0, &mut rng);
            let seed = Tensor::randn([g.out_c, g.col_rows()], 1.0, &mut rng);
            let mut want = seed.data().to_vec();
            crate::matmul::matmul_at_b_into(&patch_major(&grad, &g), &cols, &mut want);
            for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                if level > simd::probe() {
                    continue;
                }
                let _g = simd::force(level);
                let mut got = seed.data().to_vec();
                conv2d_weight_grad_batch_into(&grad, &cols, &g, &mut got);
                assert_eq!(got, want, "{g:?} at {level:?}");
            }
        }
    }

    #[test]
    fn input_grad_matches_gemm_then_patch_raster_scatter_bitwise() {
        // The reference sequence: dcols = G′·W into zeros (one GEMM over
        // the batch), then the patch-raster scatter. The kernel computes
        // each channel's column gradient Wᵀ·G_i and folds it tap by tap.
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
                conv2d_input_grad_batch_into(&grad, &w.transpose(), &g, &mut got);
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
        let w_t = Tensor::randn([g.col_rows(), g.out_c], 1.0, &mut rng);
        let mut pooled = vec![0.0f32; batch * g.in_volume()];
        conv2d_input_grad_batch_into(&grad, &w_t, &g, &mut pooled);
        let mut serial = vec![0.0f32; batch * g.in_volume()];
        crate::pool::serial_scope(|| conv2d_input_grad_batch_into(&grad, &w_t, &g, &mut serial));
        assert_eq!(pooled, serial);
    }

    #[test]
    fn batched_lowering_serial_scope_bit_identical() {
        // Pool-parallel fill/scatter must match the forced-serial path
        // bitwise; batch is large enough to clear the parallel threshold.
        let mut rng = Rng::new(24);
        let g = Conv2dGeom::new(3, 8, 8, 4, 3, 1, 1).unwrap();
        let x = Tensor::randn([64, g.in_volume()], 1.0, &mut rng);
        let y = Tensor::randn([64 * g.col_cols(), g.col_rows()], 1.0, &mut rng);
        let pooled = im2col_batch(&x, &g);
        let serial = crate::pool::serial_scope(|| im2col_batch(&x, &g));
        assert_eq!(pooled.data(), serial.data());
        let pooled = col2im_batch(&y, &g);
        let serial = crate::pool::serial_scope(|| col2im_batch(&y, &g));
        assert_eq!(pooled.data(), serial.data());
    }

    /// Fused-forward fixture: batched cols, transposed weights, bias.
    fn fused_fixture(g: &Conv2dGeom, batch: usize, rng: &mut Rng) -> (Tensor, Tensor, Vec<f32>) {
        let x = Tensor::randn([batch, g.in_volume()], 1.0, rng);
        let cols = im2col_batch(&x, g);
        let w_t = Tensor::randn([g.col_rows(), g.out_c], 0.5, rng);
        let bias: Vec<f32> = (0..g.out_c).map(|f| f as f32 * 0.25 - 1.0).collect();
        (cols, w_t, bias)
    }

    #[test]
    fn fused_forward_matches_gemm_then_scatter_bitwise() {
        // The fused kernel must reproduce matmul_into + transpose-scatter
        // + bias exactly: same per-element ascending-p order, bias last.
        // Filter counts cover the monomorphized kernels and the dynamic
        // fallback (out_c = 3).
        let mut rng = Rng::new(25);
        for (out_c, batch) in [(3usize, 4usize), (8, 3), (16, 2), (32, 2), (64, 1)] {
            let g = Conv2dGeom::new(2, 6, 6, out_c, 3, 1, 1).unwrap();
            let (cols, w_t, bias) = fused_fixture(&g, batch, &mut rng);
            let l = g.col_cols();
            let y = crate::matmul::matmul(&cols, &w_t);
            let mut want = vec![0.0f32; batch * g.out_volume()];
            for i in 0..batch {
                for f in 0..out_c {
                    for j in 0..l {
                        want[i * g.out_volume() + f * l + j] = y.at(&[i * l + j, f]) + bias[f];
                    }
                }
            }
            let mut got = vec![0.0f32; batch * g.out_volume()];
            conv2d_forward_batch_into(&cols, &w_t, &bias, &g, &mut got);
            assert_eq!(got, want, "out_c={out_c}");
        }
    }

    #[test]
    fn fused_forward_simd_dispatch_matches_portable_body() {
        // Whatever SIMD path the CPU dispatches to must be bit-identical
        // to the portable body: wider vectors change lanes per op, not the
        // multiply/add each lane performs.
        let mut rng = Rng::new(26);
        let g = Conv2dGeom::new(3, 7, 7, 16, 3, 1, 1).unwrap();
        let (cols, w_t, bias) = fused_fixture(&g, 3, &mut rng);
        let l = g.col_cols();
        let cr = g.col_rows();
        let mut dispatched = vec![0.0f32; 3 * g.out_volume()];
        conv2d_forward_batch_into(&cols, &w_t, &bias, &g, &mut dispatched);
        let mut portable = vec![0.0f32; 3 * g.out_volume()];
        for i in 0..3 {
            fused_sample_block_body::<16>(
                &cols.data()[i * l * cr..(i + 1) * l * cr],
                w_t.data(),
                &bias,
                cr,
                l,
                &mut portable[i * g.out_volume()..(i + 1) * g.out_volume()],
            );
        }
        assert_eq!(dispatched, portable);
    }

    #[test]
    fn fused_forward_bit_identical_across_simd_levels() {
        // Forcing each supported dispatch level must not change a bit of
        // the fused forward output.
        use crate::simd::SimdLevel;
        let mut rng = Rng::new(31);
        let g = Conv2dGeom::new(3, 7, 7, 16, 3, 1, 1).unwrap();
        let (cols, w_t, bias) = fused_fixture(&g, 3, &mut rng);
        let mut want: Option<Vec<f32>> = None;
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            if level > simd::probe() {
                continue;
            }
            let _guard = simd::force(level);
            let mut out = vec![0.0f32; 3 * g.out_volume()];
            conv2d_forward_batch_into(&cols, &w_t, &bias, &g, &mut out);
            match &want {
                Some(w) => assert_eq!(&out, w, "fused forward differs at {level:?}"),
                None => want = Some(out),
            }
        }
    }

    #[test]
    fn fused_forward_serial_scope_bit_identical() {
        let mut rng = Rng::new(27);
        let g = Conv2dGeom::new(2, 8, 8, 16, 3, 1, 1).unwrap();
        let batch = 64;
        let (cols, w_t, bias) = fused_fixture(&g, batch, &mut rng);
        let mut pooled = vec![0.0f32; batch * g.out_volume()];
        conv2d_forward_batch_into(&cols, &w_t, &bias, &g, &mut pooled);
        let mut serial = vec![0.0f32; batch * g.out_volume()];
        crate::pool::serial_scope(|| {
            conv2d_forward_batch_into(&cols, &w_t, &bias, &g, &mut serial)
        });
        assert_eq!(pooled, serial);
    }
}
