//! Max-pooling primitives (see [`crate::pool`] for the worker pool).

use crate::error::TensorError;
use crate::simd::{self, SimdLevel, SimdOp};

/// Validated geometry of a 2-D max-pool over one channel plane.
///
/// # Examples
///
/// ```
/// use hpnn_tensor::PoolGeom;
///
/// let g = PoolGeom::new(28, 28, 2, 2)?;
/// assert_eq!((g.out_h, g.out_w), (14, 14));
/// # Ok::<(), hpnn_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolGeom {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square window side.
    pub window: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl PoolGeom {
    /// Computes and validates pooling geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the window does not fit
    /// or any parameter is zero.
    pub fn new(
        in_h: usize,
        in_w: usize,
        window: usize,
        stride: usize,
    ) -> Result<Self, TensorError> {
        if in_h == 0 || in_w == 0 || window == 0 || stride == 0 {
            return Err(TensorError::InvalidGeometry(format!(
                "zero dimension in pool geom h={in_h} w={in_w} k={window} s={stride}"
            )));
        }
        if window > in_h || window > in_w {
            return Err(TensorError::InvalidGeometry(format!(
                "pool window {window} larger than input {in_h}x{in_w}"
            )));
        }
        let out_h = (in_h - window) / stride + 1;
        let out_w = (in_w - window) / stride + 1;
        Ok(PoolGeom {
            in_h,
            in_w,
            window,
            stride,
            out_h,
            out_w,
        })
    }
}

/// Max-pools one channel plane; returns pooled values and, for each output
/// cell, the flat input index of the winning element (for backprop routing).
///
/// # Panics
///
/// Panics if `plane.len() != geom.in_h * geom.in_w`.
pub fn maxpool_plane(plane: &[f32], geom: &PoolGeom) -> (Vec<f32>, Vec<u32>) {
    let n = geom.out_h * geom.out_w;
    let mut vals = vec![0.0f32; n];
    let mut idxs = vec![0u32; n];
    maxpool_plane_into(plane, geom, &mut vals, Some(&mut idxs));
    (vals, idxs)
}

/// Allocation-free form of [`maxpool_plane`] over any whole number of
/// planes laid end to end (one plane, or a `[batch x C·H·W]` activation
/// in one call): writes each plane's pooled values and — when the caller
/// wants them for backprop — winning within-plane indices into
/// caller-provided buffers.
///
/// Each cell starts from `-∞` at index 0 and takes a window element only
/// if it is strictly greater, visiting the window in raster order: the
/// first of equal maxima wins, NaN never wins, and a window holding only
/// NaN and `-∞` reports `-∞` at index 0. The common window = stride = 2
/// keeps that rule in a vector body at the AVX2 and AVX-512 levels: each
/// output row's two input rows are split into their even and odd columns,
/// and the four window elements are taken in raster order with an ordered
/// strict `>` that blends value and index, 8 or 16 cells at a time.
///
/// # Panics
///
/// Panics if `planes` is not a whole number of `in_h × in_w` planes or a
/// buffer disagrees with that count.
pub fn maxpool_plane_into(
    planes: &[f32],
    geom: &PoolGeom,
    vals: &mut [f32],
    idxs: Option<&mut [u32]>,
) {
    let in_plane = geom.in_h * geom.in_w;
    assert!(
        planes.len().is_multiple_of(in_plane),
        "maxpool plane volume mismatch"
    );
    let n = planes.len() / in_plane * geom.out_h * geom.out_w;
    assert_eq!(vals.len(), n, "maxpool vals buffer mismatch");
    if let Some(idxs) = idxs.as_deref() {
        assert_eq!(idxs.len(), n, "maxpool idxs buffer mismatch");
    }
    #[cfg(target_arch = "x86_64")]
    if geom.window == 2 && geom.stride == 2 {
        match simd::current() {
            // SAFETY: the level is clamped to the detected features, and
            // the asserts above are the bodies' bounds preconditions.
            SimdLevel::Avx512 => {
                unsafe { vector::pool2_avx512(planes, geom, vals, idxs) };
                return;
            }
            SimdLevel::Avx2 => {
                unsafe { vector::pool2_avx2(planes, geom, vals, idxs) };
                return;
            }
            SimdLevel::Scalar => {}
        }
    }
    simd::dispatch(Pool {
        planes,
        geom,
        vals,
        idxs,
    });
}

/// [`SimdOp`] wrapper for [`maxpool_plane_into`].
struct Pool<'a> {
    planes: &'a [f32],
    geom: &'a PoolGeom,
    vals: &'a mut [f32],
    idxs: Option<&'a mut [u32]>,
}

impl SimdOp for Pool<'_> {
    type Output = ();

    #[inline(always)]
    fn eval(self) {
        let Pool {
            planes,
            geom,
            vals,
            idxs,
        } = self;
        let (w, ow) = (geom.in_w, geom.out_w);
        let in_plane = geom.in_h * w;
        let out_plane = geom.out_h * ow;
        let mut idx_rows = idxs.map(|idxs| idxs.chunks_exact_mut(ow));
        for (plane, vals) in planes
            .chunks_exact(in_plane)
            .zip(vals.chunks_exact_mut(out_plane))
        {
            for (oy, vals) in vals.chunks_exact_mut(ow).enumerate() {
                let idxs = idx_rows.as_mut().map(|rows| rows.next().expect("idx row"));
                if geom.window == 2 && geom.stride == 2 {
                    let (top, bottom) = (2 * oy * w, (2 * oy + 1) * w);
                    let (r0, _) = plane[top..top + 2 * ow].as_chunks::<2>();
                    let (r1, _) = plane[bottom..bottom + 2 * ow].as_chunks::<2>();
                    let cells = r0
                        .iter()
                        .zip(r1)
                        .enumerate()
                        .map(|(ox, (&[a, b], &[c, d]))| {
                            let (mut v, mut i) = (f32::NEG_INFINITY, 0);
                            keep(&mut v, &mut i, a, top + 2 * ox);
                            keep(&mut v, &mut i, b, top + 2 * ox + 1);
                            keep(&mut v, &mut i, c, bottom + 2 * ox);
                            keep(&mut v, &mut i, d, bottom + 2 * ox + 1);
                            (v, i)
                        });
                    pool_row(vals, idxs, cells);
                } else {
                    let cells = (0..ow).map(|ox| {
                        let (mut v, mut i) = (f32::NEG_INFINITY, 0);
                        for ky in 0..geom.window {
                            let row = (oy * geom.stride + ky) * w + ox * geom.stride;
                            for (t, &x) in plane[row..row + geom.window].iter().enumerate() {
                                keep(&mut v, &mut i, x, row + t);
                            }
                        }
                        (v, i)
                    });
                    pool_row(vals, idxs, cells);
                }
            }
        }
    }
}

/// The strict-`>` step of a pooling window, written as selects.
#[inline(always)]
fn keep(v: &mut f32, i: &mut u32, x: f32, j: usize) {
    let take = x > *v;
    *v = if take { x } else { *v };
    *i = if take { j as u32 } else { *i };
}

/// Writes one output row of `(value, index)` cells; without an index row
/// the indices are never stored.
#[inline(always)]
fn pool_row(vals: &mut [f32], idxs: Option<&mut [u32]>, cells: impl Iterator<Item = (f32, u32)>) {
    match idxs {
        Some(idxs) => {
            for ((v, i), cell) in vals.iter_mut().zip(idxs).zip(cells) {
                (*v, *i) = cell;
            }
        }
        None => {
            for (v, (cell, _)) in vals.iter_mut().zip(cells) {
                *v = cell;
            }
        }
    }
}

/// Scatters output-cell gradients back to the winning input positions
/// recorded by [`maxpool_plane`] / [`maxpool_plane_into`], accumulating into
/// `grad_in`, over the same whole number of planes, cells in order.
///
/// # Panics
///
/// Panics if the argument lengths are inconsistent with `geom` or with
/// each other.
pub fn maxpool_plane_backward(
    grad_out: &[f32],
    argmax: &[u32],
    geom: &PoolGeom,
    grad_in: &mut [f32],
) {
    let (in_plane, out_plane) = (geom.in_h * geom.in_w, geom.out_h * geom.out_w);
    assert!(
        grad_in.len().is_multiple_of(in_plane),
        "maxpool grad_in mismatch"
    );
    assert_eq!(
        grad_out.len(),
        grad_in.len() / in_plane * out_plane,
        "maxpool grad_out mismatch"
    );
    assert_eq!(argmax.len(), grad_out.len(), "maxpool argmax mismatch");
    let cells = grad_out
        .chunks_exact(out_plane)
        .zip(argmax.chunks_exact(out_plane));
    for (grad_in, (grad_out, argmax)) in grad_in.chunks_exact_mut(in_plane).zip(cells) {
        for (&g, &i) in grad_out.iter().zip(argmax) {
            grad_in[i as usize] += g;
        }
    }
}

/// Vector builds of the window = stride = 2 forward. Each cell takes the
/// same compares and selects as the portable body, in the same order; only
/// the number of cells per instruction changes.
#[cfg(target_arch = "x86_64")]
mod vector {
    use super::PoolGeom;
    use std::arch::x86_64::*;

    /// Twice the lane number: the offset of a cell's window from the
    /// first cell's within its top row, and the even selector of
    /// `_mm512_permutex2var_ps` over 32 floats.
    const TWICE: [i32; 16] = [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30];

    /// The odd selector of `_mm512_permutex2var_ps` over 32 floats.
    const ODD: [i32; 16] = [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31];

    /// The low `n` bits set, `n <= 16`.
    fn low_bits(n: usize) -> u16 {
        ((1u32 << n) - 1) as u16
    }

    /// AVX-512F window = stride = 2 forward, 16 cells per step.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available, `planes` is a whole number
    /// of `in_h × in_w` planes, and `vals` (and `idxs`, if given) hold
    /// `out_h × out_w` cells per plane.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn pool2_avx512(
        planes: &[f32],
        g: &PoolGeom,
        vals: &mut [f32],
        idxs: Option<&mut [u32]>,
    ) {
        let (w, ow) = (g.in_w, g.out_w);
        let (in_plane, out_plane) = (g.in_h * w, g.out_h * ow);
        debug_assert_eq!(planes.len() / in_plane * out_plane, vals.len());
        let twice = _mm512_loadu_epi32(TWICE.as_ptr());
        let odd = _mm512_loadu_epi32(ODD.as_ptr());
        let (one, below) = (_mm512_set1_epi32(1), _mm512_set1_epi32(w as i32));
        let idx_out = idxs.map(|idxs| idxs.as_mut_ptr().cast::<i32>());
        for p in 0..planes.len() / in_plane {
            let plane = planes.as_ptr().add(p * in_plane);
            for oy in 0..g.out_h {
                let out = p * out_plane + oy * ow;
                let mut ox = 0;
                while ox < ow {
                    let n = (ow - ox).min(16);
                    let (lo, hi) = (low_bits((2 * n).min(16)), low_bits((2 * n).max(16) - 16));
                    let at = 2 * oy * w + 2 * ox;
                    let top = plane.add(at);
                    let bottom = top.add(w);
                    // Even and odd columns of 2n floats from each row.
                    let split = |row: *const f32| {
                        let l = _mm512_maskz_loadu_ps(lo, row);
                        let h = _mm512_maskz_loadu_ps(hi, row.wrapping_add(16));
                        (
                            _mm512_permutex2var_ps(l, twice, h),
                            _mm512_permutex2var_ps(l, odd, h),
                        )
                    };
                    let ((a, b), (c, d)) = (split(top), split(bottom));
                    let ia = _mm512_add_epi32(_mm512_set1_epi32(at as i32), twice);
                    let ic = _mm512_add_epi32(ia, below);
                    let mut v = _mm512_set1_ps(f32::NEG_INFINITY);
                    let mut i = _mm512_setzero_si512();
                    for (x, j) in [
                        (a, ia),
                        (b, _mm512_add_epi32(ia, one)),
                        (c, ic),
                        (d, _mm512_add_epi32(ic, one)),
                    ] {
                        let take = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, v);
                        v = _mm512_mask_blend_ps(take, v, x);
                        i = _mm512_mask_blend_epi32(take, i, j);
                    }
                    let cells = low_bits(n);
                    _mm512_mask_storeu_ps(vals.as_mut_ptr().add(out + ox), cells, v);
                    if let Some(idx_out) = idx_out {
                        _mm512_mask_storeu_epi32(idx_out.add(out + ox), cells, i);
                    }
                    ox += n;
                }
            }
        }
    }

    /// AVX2 window = stride = 2 forward, 8 cells per step.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and the bounds of
    /// [`pool2_avx512`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pool2_avx2(
        planes: &[f32],
        g: &PoolGeom,
        vals: &mut [f32],
        idxs: Option<&mut [u32]>,
    ) {
        let (w, ow) = (g.in_w, g.out_w);
        let (in_plane, out_plane) = (g.in_h * w, g.out_h * ow);
        debug_assert_eq!(planes.len() / in_plane * out_plane, vals.len());
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let twice = _mm256_add_epi32(lane, lane);
        let first = |n: usize| _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lane);
        let (one, below) = (_mm256_set1_epi32(1), _mm256_set1_epi32(w as i32));
        let idx_out = idxs.map(|idxs| idxs.as_mut_ptr().cast::<i32>());
        for p in 0..planes.len() / in_plane {
            let plane = planes.as_ptr().add(p * in_plane);
            for oy in 0..g.out_h {
                let out = p * out_plane + oy * ow;
                let mut ox = 0;
                while ox < ow {
                    let n = (ow - ox).min(8);
                    let (lo, hi) = (first((2 * n).min(8)), first((2 * n).max(8) - 8));
                    let at = 2 * oy * w + 2 * ox;
                    let top = plane.add(at);
                    let bottom = top.add(w);
                    let split = |row: *const f32| {
                        let l = _mm256_maskload_ps(row, lo);
                        let h = _mm256_maskload_ps(row.wrapping_add(8), hi);
                        // [l0 l2 h0 h2 | l4 l6 h4 h6], then the 64-bit
                        // pairs put in order.
                        let even = _mm256_shuffle_ps::<0b10_00_10_00>(l, h);
                        let odd = _mm256_shuffle_ps::<0b11_01_11_01>(l, h);
                        let order = |x: __m256| {
                            _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(
                                _mm256_castps_pd(x),
                            ))
                        };
                        (order(even), order(odd))
                    };
                    let ((a, b), (c, d)) = (split(top), split(bottom));
                    let ia = _mm256_add_epi32(_mm256_set1_epi32(at as i32), twice);
                    let ic = _mm256_add_epi32(ia, below);
                    let mut v = _mm256_set1_ps(f32::NEG_INFINITY);
                    let mut i = _mm256_setzero_ps();
                    for (x, j) in [
                        (a, ia),
                        (b, _mm256_add_epi32(ia, one)),
                        (c, ic),
                        (d, _mm256_add_epi32(ic, one)),
                    ] {
                        let take = _mm256_cmp_ps::<_CMP_GT_OQ>(x, v);
                        v = _mm256_blendv_ps(v, x, take);
                        i = _mm256_blendv_ps(i, _mm256_castsi256_ps(j), take);
                    }
                    let cells = first(n);
                    _mm256_maskstore_ps(vals.as_mut_ptr().add(out + ox), cells, v);
                    if let Some(idx_out) = idx_out {
                        _mm256_maskstore_epi32(
                            idx_out.add(out + ox),
                            cells,
                            _mm256_castps_si256(i),
                        );
                    }
                    ox += n;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geom_basics() {
        let g = PoolGeom::new(8, 8, 2, 2).unwrap();
        assert_eq!((g.out_h, g.out_w), (4, 4));
        let g = PoolGeom::new(7, 7, 2, 2).unwrap();
        assert_eq!((g.out_h, g.out_w), (3, 3)); // floor division drops the tail
    }

    #[test]
    fn geom_rejects_bad() {
        assert!(PoolGeom::new(0, 8, 2, 2).is_err());
        assert!(PoolGeom::new(8, 8, 9, 2).is_err());
        assert!(PoolGeom::new(8, 8, 2, 0).is_err());
    }

    #[test]
    fn pool_picks_max_and_index() {
        #[rustfmt::skip]
        let plane = vec![
            1., 5., 2., 0.,
            3., 4., 1., 7.,
            0., 0., 9., 8.,
            0., 0., 6., 5.,
        ];
        let g = PoolGeom::new(4, 4, 2, 2).unwrap();
        let (vals, idxs) = maxpool_plane(&plane, &g);
        assert_eq!(vals, vec![5., 7., 0., 9.]);
        assert_eq!(idxs, vec![1, 7, 8, 10]);
    }

    #[test]
    fn pool_handles_negatives() {
        let plane = vec![-5., -1., -3., -2.];
        let g = PoolGeom::new(2, 2, 2, 2).unwrap();
        let (vals, idxs) = maxpool_plane(&plane, &g);
        assert_eq!(vals, vec![-1.]);
        assert_eq!(idxs, vec![1]);
    }

    #[test]
    fn backward_routes_to_winner() {
        let plane = vec![1., 5., 3., 4.];
        let g = PoolGeom::new(2, 2, 2, 2).unwrap();
        let (_, idxs) = maxpool_plane(&plane, &g);
        let mut grad_in = vec![0.0; 4];
        maxpool_plane_backward(&[2.5], &idxs, &g, &mut grad_in);
        assert_eq!(grad_in, vec![0., 2.5, 0., 0.]);
    }

    /// The per-window rule written out: start at `-∞` / index 0, take an
    /// element only if strictly greater, window in raster order.
    fn reference(plane: &[f32], g: &PoolGeom) -> (Vec<f32>, Vec<u32>) {
        let (mut vals, mut idxs) = (Vec::new(), Vec::new());
        for oy in 0..g.out_h {
            for ox in 0..g.out_w {
                let (mut v, mut i) = (f32::NEG_INFINITY, 0u32);
                for ky in 0..g.window {
                    for kx in 0..g.window {
                        let j = (oy * g.stride + ky) * g.in_w + ox * g.stride + kx;
                        if plane[j] > v {
                            (v, i) = (plane[j], j as u32);
                        }
                    }
                }
                vals.push(v);
                idxs.push(i);
            }
        }
        (vals, idxs)
    }

    #[test]
    fn edge_cases_match_the_per_window_rule_at_every_level() {
        use crate::simd::{self, SimdLevel};
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        #[rustfmt::skip]
        let cases: Vec<(&str, usize, usize, usize, Vec<f32>)> = vec![
            // All-equal windows: the first element of each window wins.
            ("all equal", 4, 2, 2, vec![2.0; 16]),
            // ReLU output that is all zero: ties at 0.0, first wins.
            ("all zero", 4, 2, 2, vec![0.0; 16]),
            // Only -inf: nothing beats the start, so -inf at index 0.
            ("all -inf", 4, 2, 2, vec![ninf; 16]),
            // NaN never wins; an all-NaN or NaN/-inf window is -inf at 0.
            ("nan", 4, 2, 2, vec![
                nan, 1.0, nan, nan,
                2.0, nan, nan, ninf,
                nan, nan, -0.0, 0.0,
                nan, nan, 0.0, -0.0,
            ]),
            // Odd side: floor division drops row 6 and column 6.
            ("odd 7x7", 7, 2, 2, (0..49).map(|i| if i % 7 == 6 || i >= 42 { 1e9 } else { (i * 37 % 11) as f32 }).collect()),
            // The general body: overlapping and wider windows.
            ("window 2 stride 1", 5, 2, 1, (0..25).map(|i| (i * 7 % 5) as f32).collect()),
            ("window 3 stride 2", 7, 3, 2, (0..49).map(|i| (i * 13 % 6) as f32).collect()),
        ];
        for (name, side, window, stride, plane) in cases {
            let g = PoolGeom::new(side, side, window, stride).unwrap();
            let (want_v, want_i) = reference(&plane, &g);
            // Three copies of the plane in one call, as a batch would be.
            let planes = plane.repeat(3);
            for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                if level > simd::probe() {
                    continue;
                }
                let _g = simd::force(level);
                let n = want_v.len();
                let (mut vals, mut idxs) = (vec![0.0f32; 3 * n], vec![0u32; 3 * n]);
                maxpool_plane_into(&planes, &g, &mut vals, Some(&mut idxs));
                let mut infer = vec![0.0f32; 3 * n];
                maxpool_plane_into(&planes, &g, &mut infer, None);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for p in 0..3 {
                    let (v, i) = (&vals[p * n..(p + 1) * n], &idxs[p * n..(p + 1) * n]);
                    assert_eq!(bits(v), bits(&want_v), "{name} vals at {level:?}");
                    assert_eq!(i, want_i, "{name} idxs at {level:?}");
                }
                assert_eq!(bits(&infer), bits(&vals), "{name} inference at {level:?}");
            }
        }
    }

    #[test]
    fn window_two_sweep_matches_the_general_body_at_every_level() {
        // Window = stride = 2 over odd and even sides, one to 33 cells a
        // row, values drawn from a small set so that windows tie, hold NaN,
        // or hold only -∞ and NaN, three planes per call. Forward against
        // the per-window rule; backward against adding each cell at its
        // winner in cell order into a cleared plane, with -0.0 among the
        // gradients (the winner gets 0.0 + g, so +0.0).
        use crate::simd::{self, SimdLevel};
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let pick = [1.0, 2.0, 2.0, -0.0, 0.0, nan, ninf, -3.0, 5.0];
        let sides = [
            (2, 2),
            (3, 3),
            (2, 3),
            (7, 7),
            (14, 14),
            (15, 14),
            (28, 28),
            (28, 29),
            (4, 34),
            (5, 66),
        ];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (case, (h, w)) in sides.into_iter().enumerate() {
            let g = PoolGeom::new(h, w, 2, 2).unwrap();
            let mut planes: Vec<f32> = (0..3 * h * w)
                .map(|i| pick[(i * 7 + i / 5 + case) % pick.len()])
                .collect();
            // Plane 1's first window holds only -∞ and NaN; plane 2's last.
            for j in [0, 1, w, w + 1] {
                planes[h * w + j] = [ninf, nan][j % 2];
            }
            let last = 2 * h * w + (2 * g.out_h - 2) * w + 2 * g.out_w - 2;
            for j in [0, 1, w, w + 1] {
                planes[last + j] = ninf;
            }
            let n = 3 * g.out_h * g.out_w;
            let (mut want_v, mut want_i) = (Vec::new(), Vec::new());
            for plane in planes.chunks_exact(h * w) {
                let (v, i) = reference(plane, &g);
                want_v.extend(v);
                want_i.extend(i);
            }
            let grad: Vec<f32> = (0..n)
                .map(|i| {
                    if i % 4 == 1 {
                        -0.0
                    } else {
                        (i as f32 * 0.7).sin()
                    }
                })
                .collect();
            let mut want_dx = vec![0.0f32; planes.len()];
            for (p, dst) in want_dx.chunks_exact_mut(h * w).enumerate() {
                let cells = p * n / 3..(p + 1) * n / 3;
                for (&g, &i) in grad[cells.clone()].iter().zip(&want_i[cells]) {
                    dst[i as usize] += g;
                }
            }
            for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                if level > simd::probe() {
                    continue;
                }
                let _g = simd::force(level);
                let (mut vals, mut idxs) = (vec![0.0f32; n], vec![0u32; n]);
                maxpool_plane_into(&planes, &g, &mut vals, Some(&mut idxs));
                assert_eq!(bits(&vals), bits(&want_v), "{h}x{w} vals at {level:?}");
                assert_eq!(idxs, want_i, "{h}x{w} idxs at {level:?}");
                let mut infer = vec![0.0f32; n];
                maxpool_plane_into(&planes, &g, &mut infer, None);
                assert_eq!(
                    bits(&infer),
                    bits(&want_v),
                    "{h}x{w} inference at {level:?}"
                );
                let mut dx = vec![0.0f32; planes.len()];
                maxpool_plane_backward(&grad, &idxs, &g, &mut dx);
                assert_eq!(bits(&dx), bits(&want_dx), "{h}x{w} backward at {level:?}");
            }
        }
    }

    #[test]
    fn backward_over_many_planes_equals_per_plane() {
        // A -inf window routes its gradient to index 0, so several cells
        // can share a destination; they add in cell order either way.
        let g = PoolGeom::new(4, 4, 2, 2).unwrap();
        let mut planes = vec![f32::NEG_INFINITY; 16];
        planes.extend((0..16).map(|i| (i * 5 % 7) as f32));
        let (mut vals, mut idxs) = (vec![0.0f32; 8], vec![0u32; 8]);
        maxpool_plane_into(&planes, &g, &mut vals, Some(&mut idxs));
        let grad: Vec<f32> = (0..8).map(|i| 0.1 * (i + 1) as f32).collect();
        let mut whole = vec![0.0f32; 32];
        maxpool_plane_backward(&grad, &idxs, &g, &mut whole);
        let mut per_plane = vec![0.0f32; 32];
        for p in 0..2 {
            let cells = p * 4..(p + 1) * 4;
            let dst = &mut per_plane[p * 16..(p + 1) * 16];
            maxpool_plane_backward(&grad[cells.clone()], &idxs[cells], &g, dst);
        }
        assert_eq!(whole, per_plane);
        assert_eq!(whole[0], ((grad[0] + grad[1]) + grad[2]) + grad[3]);
    }

    #[test]
    fn backward_accumulates_overlaps() {
        // stride 1 window 2 on a 3x1... use 3x3 with stride 1: overlapping windows.
        #[rustfmt::skip]
        let plane = vec![
            0., 0., 0.,
            0., 9., 0.,
            0., 0., 0.,
        ];
        let g = PoolGeom::new(3, 3, 2, 1).unwrap();
        let (vals, idxs) = maxpool_plane(&plane, &g);
        assert_eq!(vals, vec![9.; 4]); // center wins all four windows
        let mut grad_in = vec![0.0; 9];
        maxpool_plane_backward(&[1., 1., 1., 1.], &idxs, &g, &mut grad_in);
        assert_eq!(grad_in[4], 4.0);
        assert_eq!(grad_in.iter().sum::<f32>(), 4.0);
    }
}
