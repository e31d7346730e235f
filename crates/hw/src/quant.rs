//! Symmetric int8 quantization for the integer datapath.
//!
//! The TPU-like MMU multiplies 8-bit signed integers (paper Sec. III-D:
//! "256×256 MACs which compute 8-bit multiply-and-adds"). Float tensors are
//! quantized symmetrically (zero-point 0) per tensor: `q = round(x / scale)`
//! clamped to `[-127, 127]`.
//!
//! Every quantizer in this module goes through one rounding function
//! (`quantize_one`) and one max-abs reduction, both elementwise-exact, so
//! they are bit-identical at every [`hpnn_tensor::simd::SimdLevel`] and to
//! the textbook `(x / scale).round().clamp(-127.0, 127.0) as i8`.

use hpnn_tensor::simd::{dispatch, SimdOp};
use hpnn_tensor::Tensor;

/// Maximum magnitude representable in signed int8 (symmetric scheme).
pub const Q_MAX: i32 = 127;

/// A quantized tensor: int8 values plus the dequantization scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    /// Quantized values, same row-major layout as the source tensor.
    pub values: Vec<i8>,
    /// Dequantization scale: `x ≈ q * scale`.
    pub scale: f32,
    /// Original dimensions.
    pub dims: Vec<usize>,
}

impl QuantTensor {
    /// Quantizes a float tensor symmetrically.
    ///
    /// An all-zero tensor gets scale 1.0 (any scale reproduces zeros).
    pub fn quantize(t: &Tensor) -> Self {
        let scale = scale_for(max_abs(t.data()));
        QuantTensor {
            values: quantize_with_scale(t.data(), scale),
            scale,
            dims: t.shape().dims().to_vec(),
        }
    }

    /// Reconstructs the float tensor (`q * scale`).
    pub fn dequantize(&self) -> Tensor {
        let data: Vec<f32> = self.values.iter().map(|&q| q as f32 * self.scale).collect();
        Tensor::from_vec(self.dims.clone(), data).expect("quant dims volume")
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Worst-case absolute quantization error for this tensor (`scale/2`).
    pub fn max_error(&self) -> f32 {
        self.scale * 0.5
    }
}

/// Dequantization scale of a product of two quantized operands.
pub fn product_scale(a: &QuantTensor, b: &QuantTensor) -> f32 {
    a.scale * b.scale
}

/// The symmetric quantization scale a tensor of the given max-abs value
/// gets (`max_abs / 127`, or 1.0 for all-zero data).
pub fn scale_for(max_abs: f32) -> f32 {
    if max_abs == 0.0 {
        1.0
    } else {
        max_abs / Q_MAX as f32
    }
}

/// Quantizes raw values with an externally chosen scale (used when several
/// buffers — e.g. im2col patches of one batch — must share a scale).
pub fn quantize_with_scale(data: &[f32], scale: f32) -> Vec<i8> {
    let mut out = vec![0i8; data.len()];
    quantize_into(data, scale, &mut out);
    out
}

/// `(v / scale).round().clamp(-127.0, 127.0) as i8` without the libm
/// `roundf` call, so the loops around it vectorize.
///
/// After the clamp `|x| <= 127`, so adding `1.5·2²³` lands in the binade
/// whose ulp is 1: the sum is `x` rounded to the nearest integer, ties to
/// even, and that integer sits in the low mantissa bits. `x − even` is exact
/// and equals `±0.5` only at a tie, where `round` goes away from zero
/// instead; the two comparisons move those cases one step outwards. NaN
/// quantizes to 0, as the saturating float-to-int cast makes it.
#[inline(always)]
fn quantize_one(v: f32, scale: f32) -> i8 {
    const MAGIC: f32 = 12_582_912.0;
    let x = v / scale;
    let x = if x.is_nan() { 0.0 } else { x };
    let x = x.clamp(-(Q_MAX as f32), Q_MAX as f32);
    let biased = x + MAGIC;
    let diff = x - (biased - MAGIC);
    let even = (biased.to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32);
    let away = i32::from(diff == 0.5 && x > 0.0) - i32::from(diff == -0.5 && x < 0.0);
    (even + away) as i8
}

struct MaxAbs<'a> {
    data: &'a [f32],
}

impl SimdOp for MaxAbs<'_> {
    type Output = f32;

    // `f32::max` ignores NaN and the operands are non-negative, so the
    // maximum does not depend on the order it is taken in: eight lanes give
    // the value a sequential fold gives.
    #[inline(always)]
    fn eval(self) -> f32 {
        let mut lanes = [0.0f32; 8];
        let chunks = self.data.chunks_exact(8);
        let tail = chunks.remainder();
        for c in chunks {
            for (m, &v) in lanes.iter_mut().zip(c) {
                *m = m.max(v.abs());
            }
        }
        tail.iter()
            .chain(lanes.iter())
            .fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

/// Largest magnitude in `data` (NaN ignored; 0.0 for empty data).
pub(crate) fn max_abs(data: &[f32]) -> f32 {
    dispatch(MaxAbs { data })
}

struct QuantizeInto<'a> {
    data: &'a [f32],
    scale: f32,
    out: &'a mut [i8],
}

impl SimdOp for QuantizeInto<'_> {
    type Output = ();

    #[inline(always)]
    fn eval(self) {
        for (q, &v) in self.out.iter_mut().zip(self.data) {
            *q = quantize_one(v, self.scale);
        }
    }
}

/// Allocation-free [`quantize_with_scale`].
///
/// # Panics
///
/// Panics if the buffers differ in length.
pub(crate) fn quantize_into(data: &[f32], scale: f32, out: &mut [i8]) {
    assert_eq!(data.len(), out.len(), "quantize buffer length mismatch");
    dispatch(QuantizeInto { data, scale, out });
}

/// Quantizes the row-major `[rows x cols]` matrix `data` into its transpose
/// `[cols x rows]` — the layout the MMU tile reads a dense layer's weights
/// (`[out x in]`) and activations (`[in x batch]`) in.
///
/// # Panics
///
/// Panics if either buffer is not `rows * cols` long.
pub(crate) fn quantize_transposed_into(
    data: &[f32],
    rows: usize,
    cols: usize,
    scale: f32,
    out: &mut [i8],
) {
    assert_eq!(data.len(), rows * cols, "quantize source volume mismatch");
    assert_eq!(out.len(), rows * cols, "quantize buffer length mismatch");
    if cols == 0 {
        return;
    }
    dispatch(QuantizeTransposed {
        data,
        rows,
        cols,
        scale,
        out,
    });
}

struct QuantizeTransposed<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    scale: f32,
    out: &'a mut [i8],
}

impl SimdOp for QuantizeTransposed<'_> {
    type Output = ();

    #[inline(always)]
    fn eval(self) {
        // Sixteen contiguous inputs at a time through the vectorized
        // quantizer, then each to its own row of the transpose.
        const STRIP: usize = 16;
        let rows = self.rows;
        for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
            for (s, strip) in row.chunks(STRIP).enumerate() {
                let mut q = [0i8; STRIP];
                for (q, &v) in q.iter_mut().zip(strip) {
                    *q = quantize_one(v, self.scale);
                }
                for (i, &q) in q[..strip.len()].iter().enumerate() {
                    self.out[(s * STRIP + i) * rows + r] = q;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_tensor::Rng;

    /// The definition `quantize_one` must reproduce.
    fn reference(v: f32, scale: f32) -> i8 {
        (v / scale).round().clamp(-(Q_MAX as f32), Q_MAX as f32) as i8
    }

    #[test]
    fn roundtrip_error_bounded() {
        let mut rng = Rng::new(1);
        let t = Tensor::randn([16, 16], 1.0, &mut rng);
        let q = QuantTensor::quantize(&t);
        let back = q.dequantize();
        assert!(t.max_abs_diff(&back) <= q.max_error() + 1e-6);
    }

    #[test]
    fn zero_tensor_quantizes_cleanly() {
        let t = Tensor::zeros([4, 4]);
        let q = QuantTensor::quantize(&t);
        assert_eq!(q.scale, 1.0);
        assert!(q.values.iter().all(|&v| v == 0));
        assert_eq!(q.dequantize(), t);
    }

    #[test]
    fn extremes_map_to_q_max() {
        let t = Tensor::from_vec([1usize, 3], vec![-2.0, 0.0, 2.0]).unwrap();
        let q = QuantTensor::quantize(&t);
        assert_eq!(q.values, vec![-127, 0, 127]);
    }

    #[test]
    fn scale_preserves_relative_magnitudes() {
        let t = Tensor::from_vec([1usize, 4], vec![0.5, 1.0, -0.25, -1.0]).unwrap();
        let q = QuantTensor::quantize(&t);
        assert_eq!(q.values[1], 127);
        assert_eq!(q.values[3], -127);
        assert!((q.values[0] as f32 - 63.5).abs() <= 0.5);
    }

    #[test]
    fn product_scale_multiplies() {
        let a = QuantTensor::quantize(&Tensor::full([2], 2.0));
        let b = QuantTensor::quantize(&Tensor::full([2], 4.0));
        let ps = product_scale(&a, &b);
        // 2.0/127 * 4.0/127
        assert!((ps - (2.0 / 127.0) * (4.0 / 127.0)).abs() < 1e-9);
    }

    #[test]
    fn rounding_matches_round_half_away_from_zero() {
        // Every tie and both of its neighbours, the clamp edges, zeros of
        // both signs, the largest value below one half (which `x + 0.5`
        // would round up), and the non-finite inputs.
        let mut probes = vec![
            0.0,
            -0.0,
            0.499_999_97,
            -0.499_999_97,
            f32::MIN_POSITIVE,
            1e-30,
            126.5,
            127.0,
            127.49,
            127.5,
            128.0,
            1e9,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for m in -130..=130 {
            let tie = m as f32 + 0.5;
            for bits in [tie.to_bits() - 1, tie.to_bits(), tie.to_bits() + 1] {
                probes.push(f32::from_bits(bits));
            }
            probes.push(m as f32);
        }
        let mut rng = Rng::new(9);
        probes.extend((0..20_000).map(|_| rng.uniform(-140.0, 140.0)));
        for &v in &probes {
            for scale in [1.0f32, 0.5, 0.007_874_016, 3.0, 0.0] {
                assert_eq!(
                    quantize_one(v, scale),
                    reference(v, scale),
                    "v={v:e} scale={scale}"
                );
                assert_eq!(quantize_one(-v, scale), reference(-v, scale));
            }
        }
    }

    #[test]
    fn max_abs_equals_sequential_fold() {
        let mut rng = Rng::new(5);
        for n in [0usize, 1, 7, 8, 9, 100] {
            let mut data: Vec<f32> = (0..n).map(|_| rng.uniform(-3.0, 3.0)).collect();
            if n > 2 {
                data[1] = f32::NAN;
                data[n - 1] = -7.5;
            }
            let want = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            assert_eq!(max_abs(&data).to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn transposed_quantize_is_quantize_then_transpose() {
        let mut rng = Rng::new(6);
        let (rows, cols) = (5, 3);
        let t = Tensor::randn([rows, cols], 1.0, &mut rng);
        let q = QuantTensor::quantize(&t);
        let mut out = vec![0i8; rows * cols];
        quantize_transposed_into(t.data(), rows, cols, q.scale, &mut out);
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(out[c * rows + r], q.values[r * cols + c]);
            }
        }
    }
}
