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

/// Maximum magnitude representable in signed int8 (symmetric scheme).
pub const Q_MAX: i32 = 127;

/// The symmetric quantization scale a tensor of the given max-abs value
/// gets (`max_abs / 127`, or 1.0 for all-zero data).
pub fn scale_for(max_abs: f32) -> f32 {
    if max_abs == 0.0 {
        1.0
    } else {
        max_abs / Q_MAX as f32
    }
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

/// Quantizes `data` into `out` with an externally chosen scale (one scale
/// per layer's weights, one per batch's activations).
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
    use hpnn_tensor::{Rng, Tensor};

    /// The definition `quantize_one` must reproduce.
    fn reference(v: f32, scale: f32) -> i8 {
        (v / scale).round().clamp(-(Q_MAX as f32), Q_MAX as f32) as i8
    }

    /// `t` quantized with the scale its own largest magnitude sets.
    fn quantize(t: &Tensor) -> (Vec<i8>, f32) {
        let scale = scale_for(max_abs(t.data()));
        let mut q = vec![0i8; t.len()];
        quantize_into(t.data(), scale, &mut q);
        (q, scale)
    }

    #[test]
    fn roundtrip_error_bounded() {
        let mut rng = Rng::new(1);
        let t = Tensor::randn([16, 16], 1.0, &mut rng);
        let (q, scale) = quantize(&t);
        for (&v, &q) in t.data().iter().zip(&q) {
            assert!((v - f32::from(q) * scale).abs() <= scale * 0.5 + 1e-6);
        }
    }

    #[test]
    fn zero_tensor_quantizes_cleanly() {
        let (q, scale) = quantize(&Tensor::zeros([4, 4]));
        assert_eq!(scale, 1.0);
        assert_eq!(q, vec![0; 16]);
    }

    #[test]
    fn extremes_map_to_q_max() {
        let t = Tensor::from_vec([1usize, 3], vec![-2.0, 0.0, 2.0]).unwrap();
        assert_eq!(quantize(&t).0, vec![-127, 0, 127]);
    }

    #[test]
    fn scale_preserves_relative_magnitudes() {
        let t = Tensor::from_vec([1usize, 4], vec![0.5, 1.0, -0.25, -1.0]).unwrap();
        let (q, _) = quantize(&t);
        assert_eq!(q[1], 127);
        assert_eq!(q[3], -127);
        assert!((q[0] as f32 - 63.5).abs() <= 0.5);
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
        let (q, scale) = quantize(&t);
        let mut out = vec![0i8; rows * cols];
        quantize_transposed_into(t.data(), rows, cols, scale, &mut out);
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(out[c * rows + r], q[r * cols + c]);
            }
        }
    }
}
