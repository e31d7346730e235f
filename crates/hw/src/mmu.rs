//! The matrix-multiply unit (MMU) of the TPU-like accelerator.
//!
//! Models the computational core described in Sec. III-D: a 256×256 grid of
//! 8-bit MACs whose 16-bit products are collected by 256 accumulator units —
//! here [`KeyedAccumulator`]s wired to the on-chip HPNN key register. A
//! simple weight-stationary systolic cycle model accounts for time; gate
//! accounting covers area.
//!
//! The MMU has one arithmetic entry point, [`Mmu::matmul_tile`]: stationary
//! int8 weights `[rows × k]` times a streamed int8 column matrix `[k × n]`,
//! every output collected by the accumulator unit a [`Routing`] names. The
//! MMU resolves a routing from its own key register once per layer
//! ([`Mmu::route`]), as one negation mask per output, so no tile looks a key
//! bit up. The tile has one datapath: plain integer sums, then Fig. 4(b)'s
//! XOR and carry-in on every locked output as `(v ^ m) − m`, in one vector
//! pass over the finished sums. Its gate-level reference is the stepped
//! [`SystolicArray`](crate::SystolicArray), whose columns drain into
//! [`KeyedAccumulator`]s; a test runs random tiles through both.
//!
//! The sums have two bodies. The portable one adds one product per k-step,
//! wrapping in 32 bits; it is the [`SimdLevel::Scalar`] path and the
//! reference. At [`SimdLevel::Avx2`] and above a pair-MAC body keeps a
//! 4 × 16 block of accumulators in registers and forms two k-steps'
//! products per instruction: their sum is exact (|2·128·128| < 2³¹) and is
//! then wrapping-added. Addition modulo 2³² is associative and commutative,
//! so summing products in pairs gives the integers that summing them one at
//! a time does: both bodies and every SIMD level agree bit for bit, and
//! tests assert it.
//!
//! # What a simulator speed-up may change
//!
//! [`MmuStats`] describes the *modeled* hardware and is advanced in closed
//! form per tile (`macs += rows·n·k`, `dot_products += rows·n`,
//! `cycles += rows·n·(k+1)`). Making the simulator faster must leave
//! `macs`, `cycles`, `dot_products`, every logit and every argmax exactly as
//! they were; host time is the only thing allowed to move. The constants are
//! pinned by `device::tests::cnn1_row_statistics_are_pinned`.

use std::fmt;

use hpnn_core::{HpnnKey, KeyVault, KEY_BITS};
#[cfg(doc)]
use hpnn_tensor::simd::SimdLevel;
use hpnn_tensor::simd::{dispatch, SimdOp};

use crate::accumulator::KeyedAccumulator;
use crate::gates::GateCount;

// Accumulator ids travel as `u8`: every value names one of the 256 units.
const _: () = assert!(KEY_BITS == 1 << u8::BITS);

/// Systolic array side (the TPU's 256).
pub const MMU_SIZE: usize = 256;

/// Running performance counters of an MMU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmuStats {
    /// Total multiply–accumulate operations issued.
    pub macs: u64,
    /// Modeled clock cycles consumed.
    pub cycles: u64,
    /// Dot products computed.
    pub dot_products: u64,
}

/// Where an [`Mmu`]'s key register is loaded from.
///
/// Collapses the three construction paths into one argument: the sealed
/// on-chip route ([`Vault`](KeySource::Vault), the paper's secure key
/// path), an explicit key for owner-side validation
/// ([`Key`](KeySource::Key)), or no key at all ([`None`](KeySource::None) —
/// the attacker's commodity accelerator, all key bits 0).
#[derive(Debug, Clone, Copy)]
pub enum KeySource<'a> {
    /// Load from a sealed [`KeyVault`] (secure on-chip key path).
    Vault(&'a KeyVault),
    /// Load an explicit [`HpnnKey`] (owner-side validation).
    Key(&'a HpnnKey),
    /// Leave the key register zeroed (commodity hardware).
    None,
}

impl<'a> KeySource<'a> {
    /// Resolves the source into the 256 key-register bits.
    fn key_bits(self) -> [bool; KEY_BITS] {
        let expand = |key: &HpnnKey| {
            let mut bits = [false; KEY_BITS];
            for (i, b) in bits.iter_mut().enumerate() {
                *b = key.bit(i);
            }
            bits
        };
        match self {
            KeySource::Vault(vault) => vault.with_key(expand),
            KeySource::Key(key) => expand(key),
            KeySource::None => [false; KEY_BITS],
        }
    }
}

/// The accumulator units that collect a tile's outputs, resolved against
/// the key register of the [`Mmu`] that built it ([`Mmu::route`]).
///
/// It holds one negation mask per output (all ones where the unit's key bit
/// is set), which is key material: nothing public reads it, and its `Debug`
/// shows the output count only.
#[derive(Clone, Default)]
pub struct Routing {
    /// `−(key bit)` of each output's unit, as the accumulator's XOR lines
    /// and carry-in see it.
    pub(crate) masks: Vec<i32>,
}

impl fmt::Debug for Routing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Routing")
            .field("outputs", &self.masks.len())
            .finish_non_exhaustive()
    }
}

/// The matrix-multiply unit with key-dependent accumulators.
///
/// Its `Debug` shows the counters, never the key register.
///
/// # Examples
///
/// ```
/// use hpnn_core::{HpnnKey, KeyVault};
/// use hpnn_hw::{KeySource, Mmu, Routing};
///
/// let vault = KeyVault::provision(HpnnKey::ZERO, "tpu-0");
/// let mut mmu = Mmu::build(KeySource::Vault(&vault));
/// // One weight row times one activation column, collected by accumulator
/// // 0 (key bit 0 ⇒ identity).
/// let mut routing = Routing::default();
/// mmu.route([0], &mut routing);
/// let mut out = [0i32];
/// mmu.matmul_tile(&[1, 2, 3], &[4, 5, 6], 3, Some(&routing), &mut out);
/// assert_eq!(out, [32]);
/// ```
#[derive(Clone)]
pub struct Mmu {
    key_bits: [bool; KEY_BITS],
    stats: MmuStats,
}

impl fmt::Debug for Mmu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mmu")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Mmu {
    /// Instantiates an MMU with its key register loaded from `source`.
    pub fn build(source: KeySource<'_>) -> Self {
        Mmu {
            key_bits: source.key_bits(),
            stats: MmuStats::default(),
        }
    }

    /// Performance counters so far.
    pub fn stats(&self) -> MmuStats {
        self.stats
    }

    /// Resets performance counters.
    pub fn reset_stats(&mut self) {
        self.stats = MmuStats::default();
    }

    /// Resolves `accs` — the accumulator unit that collects each output of
    /// a tile, in output order — against this MMU's key register into
    /// `routing`, replacing what it held (its buffer is reused).
    ///
    /// The key register is read here and nowhere else, so a routing resolved
    /// once serves every tile of a layer.
    pub fn route(&self, accs: impl IntoIterator<Item = u8>, routing: &mut Routing) {
        // The sequencer's on-chip read of its own key register: the bits
        // leave it only as masks, and the masks never leave the crate.
        let bits = &self.key_bits;
        routing.masks.clear();
        routing.masks.extend(
            accs.into_iter()
                .map(|acc| -i32::from(bits[usize::from(acc)])),
        );
    }

    /// Multiplies the stationary weight tile `weights` (`[rows × k]`,
    /// row-major) by the streamed activation columns `cols` (`[k × n]`,
    /// row-major) into `out` (`[rows × n]`):
    /// `out[r·n + p] = (−1)^{key[acc(r·n + p)]} · Σᵢ weights[r·k + i]·cols[i·n + p]`.
    ///
    /// `routing` names the accumulator unit each output is collected by,
    /// resolved by [`route`](Mmu::route); `None` routes the whole tile
    /// through unlocked units (layers that feed no nonlinearity). Sums wrap
    /// in 32 bits, as the accumulator register does. The counters advance by
    /// what the modeled array spends on `rows·n` dot products of length `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or does not divide both operand lengths, or if
    /// `out` (and `routing`, when given) does not cover `rows·n` outputs.
    pub fn matmul_tile(
        &mut self,
        weights: &[i8],
        cols: &[i8],
        k: usize,
        routing: Option<&Routing>,
        out: &mut [i32],
    ) {
        assert!(k > 0, "tile depth must be positive");
        assert!(
            weights.len().is_multiple_of(k) && cols.len().is_multiple_of(k),
            "tile operands must be whole multiples of the depth {k}"
        );
        let (rows, n) = (weights.len() / k, cols.len() / k);
        assert_eq!(out.len(), rows * n, "tile output size mismatch");
        if let Some(routing) = routing {
            assert_eq!(routing.masks.len(), rows * n, "one accumulator per output");
        }
        let dots = (rows * n) as u64;
        self.stats.macs += dots * k as u64;
        self.stats.dot_products += dots;
        // Weight-stationary cycle model: one product per cycle per unit plus
        // pipeline fill across the array diagonal, amortized per dot product.
        self.stats.cycles += dots * (k as u64 + 1);
        TileSums {
            weights,
            cols,
            k,
            n,
            out: &mut *out,
        }
        .run();
        if let Some(routing) = routing {
            dispatch(Lock {
                out,
                masks: &routing.masks,
            });
        }
    }

    /// Total extra gates of the key-dependent design over the baseline MMU:
    /// 256 accumulators × 16 XOR gates = 4096 (paper Sec. III-D2).
    pub fn extra_gates() -> GateCount {
        KeyedAccumulator::extra_gates().times(KEY_BITS)
    }
}

/// Fig. 4(b) on the finished sums: XOR every line with the unit's key bit
/// and add the key bit as carry-in. Branch-free, because key bits are coin
/// flips to a branch predictor.
struct Lock<'a> {
    out: &'a mut [i32],
    masks: &'a [i32],
}

impl SimdOp for Lock<'_> {
    type Output = ();

    #[inline(always)]
    fn eval(self) {
        for (v, &mask) in self.out.iter_mut().zip(self.masks) {
            *v = (*v ^ mask).wrapping_sub(mask);
        }
    }
}

/// The tile's plain sums `out[r][p] = Σᵢ w[r][i]·cols[i][p]`.
struct TileSums<'a> {
    weights: &'a [i8],
    cols: &'a [i8],
    k: usize,
    n: usize,
    out: &'a mut [i32],
}

impl TileSums<'_> {
    /// The pair-MAC body where the level has AVX2 and the tile is at least
    /// one register block wide; the portable body otherwise.
    fn run(self) {
        #[cfg(target_arch = "x86_64")]
        if self.n >= tile::NR && hpnn_tensor::simd::current() >= hpnn_tensor::simd::SimdLevel::Avx2
        {
            // SAFETY: `current()` is clamped to what the hardware reports,
            // and AVX-512F implies AVX2. `matmul_tile` checked that `k > 0`
            // and that the operands and `out` are `rows·k`, `k·n` and
            // `rows·n` long.
            unsafe { tile::sums(self.weights, self.cols, self.k, self.n, self.out) };
            return;
        }
        dispatch(self);
    }
}

impl SimdOp for TileSums<'_> {
    type Output = ();

    #[inline(always)]
    fn eval(self) {
        let (k, n) = (self.k, self.n);
        if n == 0 {
            return;
        }
        if n == 1 {
            // A single column (one sample through a dense layer): each
            // output is a dot product of two contiguous vectors, which the
            // column-wise loop below would walk one lane at a time.
            for (w_row, out) in self.weights.chunks_exact(k).zip(self.out.iter_mut()) {
                *out = w_row.iter().zip(self.cols).fold(0i32, |sum, (&w, &c)| {
                    sum.wrapping_add(i32::from(w) * i32::from(c))
                });
            }
            return;
        }
        for (w_row, out_row) in self
            .weights
            .chunks_exact(k)
            .zip(self.out.chunks_exact_mut(n))
        {
            out_row.fill(0);
            for (&w, col) in w_row.iter().zip(self.cols.chunks_exact(n)) {
                let w = i32::from(w);
                for (acc, &c) in out_row.iter_mut().zip(col) {
                    *acc = acc.wrapping_add(w * i32::from(c));
                }
            }
        }
    }
}

/// The pair-MAC body of [`TileSums`].
///
/// `vpmaddwd` multiplies sixteen `i16` pairs and adds each pair into one
/// `i32` lane, so one instruction takes two k-steps of eight outputs. The
/// columns of two consecutive k-steps are interleaved byte by byte and
/// sign-extended; each weight row's two taps are packed into one `i32` and
/// broadcast. A block of [`MR`] rows × [`NR`] columns of accumulators stays
/// in registers (eight of the sixteen) for a whole depth chunk.
#[cfg(target_arch = "x86_64")]
mod tile {
    use std::arch::x86_64::*;

    use super::MMU_SIZE;

    /// Output rows per register block.
    const MR: usize = 4;

    /// Output columns per register block: two 8-lane accumulators a row.
    pub(super) const NR: usize = 16;

    /// k-step pairs per depth chunk (the array's 256-deep edge), whose
    /// packed taps sit on the stack.
    const KP: usize = MMU_SIZE / 2;

    /// `out[r·n + p] = Σᵢ weights[r·k + i]·cols[i·n + p]`, wrapping in 32
    /// bits. Rows go [`MR`] at a time, and the last one to three rows as a
    /// narrower block of the same body.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `k > 0`, `n >= NR`, and `weights`, `cols`
    /// and `out` must be `rows·k`, `k·n` and `rows·n` long.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sums(weights: &[i8], cols: &[i8], k: usize, n: usize, out: &mut [i32]) {
        debug_assert!(k > 0 && n >= NR && cols.len() == k * n);
        debug_assert_eq!(out.len(), weights.len() / k * n);
        let full = weights.len() / k / MR * MR;
        let (w_full, w_tail) = weights.split_at(full * k);
        let (o_full, o_tail) = out.split_at_mut(full * n);
        for (w, o) in w_full
            .chunks_exact(MR * k)
            .zip(o_full.chunks_exact_mut(MR * n))
        {
            // SAFETY: as for this function, over `MR` rows.
            unsafe { rows::<MR>(w, cols, k, n, o) };
        }
        // SAFETY: as for this function, over the remaining rows.
        unsafe {
            match w_tail.len() / k {
                1 => rows::<1>(w_tail, cols, k, n, o_tail),
                2 => rows::<2>(w_tail, cols, k, n, o_tail),
                3 => rows::<3>(w_tail, cols, k, n, o_tail),
                _ => {}
            }
        }
    }

    /// `R` rows of the tile, every column, one depth chunk at a time. A
    /// partial last column block is computed as a full block that overlaps
    /// the one before it and stores only the columns that one left.
    ///
    /// # Safety
    ///
    /// As [`sums`], with `weights` and `out` `R·k` and `R·n` long.
    #[target_feature(enable = "avx2")]
    unsafe fn rows<const R: usize>(
        weights: &[i8],
        cols: &[i8],
        k: usize,
        n: usize,
        out: &mut [i32],
    ) {
        let mut taps = [[0i32; R]; KP];
        for d0 in (0..k).step_by(2 * KP) {
            let depth = (k - d0).min(2 * KP);
            let taps = &mut taps[..depth.div_ceil(2)];
            for (r, row) in weights.chunks_exact(k).enumerate() {
                let row = &row[d0..d0 + depth];
                for (pair, tap) in row.chunks(2).zip(taps.iter_mut()) {
                    // The `i16` pair one `vpmaddwd` lane multiplies: this
                    // step's weight low, the next step's (0 past the end) high.
                    let lo = i16::from(pair[0]) as u16;
                    let hi = pair.get(1).map_or(0, |&w| i16::from(w) as u16);
                    tap[r] = (u32::from(lo) | u32::from(hi) << 16) as i32;
                }
            }
            let panel = &cols[d0 * n..(d0 + depth) * n];
            let carry = d0 > 0;
            let mut p = 0;
            while p + NR <= n {
                // SAFETY: columns `p..p + NR` of every row are in bounds.
                unsafe { block(taps, panel, n, p, 0, carry, out) };
                p += NR;
            }
            if p < n {
                // SAFETY: `n >= NR`, so columns `n - NR..n` are in bounds.
                unsafe { block(taps, panel, n, n - NR, p + NR - n, carry, out) };
            }
        }
    }

    /// One `R × NR` block of outputs at column `p` over one depth chunk of
    /// `taps.len()` k-step pairs. The accumulators start from zero, or from
    /// `out` when `carry` (a later depth chunk). Lanes below `skip` are
    /// neither read nor written.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `p + NR <= n`, `panel` must hold the chunk's
    /// `[depth × n]` columns with `depth` = `2·taps.len()` or one less, and
    /// `out` `R·n` outputs.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn block<const R: usize>(
        taps: &[[i32; R]],
        panel: &[i8],
        n: usize,
        p: usize,
        skip: usize,
        carry: bool,
        out: &mut [i32],
    ) {
        let depth = panel.len() / n;
        debug_assert!(p + NR <= n && depth.div_ceil(2) == taps.len());
        debug_assert_eq!(out.len(), R * n);
        let floor = _mm256_set1_epi32(skip as i32 - 1);
        let keep = [
            _mm256_cmpgt_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), floor),
            _mm256_cmpgt_epi32(_mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15), floor),
        ];
        let mut acc = [[_mm256_setzero_si256(); 2]; R];
        if carry {
            for (r, acc) in acc.iter_mut().enumerate() {
                for (h, acc) in acc.iter_mut().enumerate() {
                    // SAFETY: row `r`, columns `p + 8h..p + 8h + 8` of `out`.
                    let at = unsafe { out.as_ptr().add(r * n + p + 8 * h) };
                    *acc = unsafe { _mm256_maskload_epi32(at, keep[h]) };
                }
            }
        }
        let base = panel[p..].as_ptr();
        let pairs = depth / 2;
        for (q, taps) in taps.iter().enumerate() {
            // SAFETY: rows `2q` and `2q + 1` of the panel hold columns
            // `p..p + NR`; an odd chunk's last step pairs with zeros.
            let (c0, c1) = unsafe {
                let c0 = _mm_loadu_si128(base.add(2 * q * n).cast());
                let c1 = if q < pairs {
                    _mm_loadu_si128(base.add((2 * q + 1) * n).cast())
                } else {
                    _mm_setzero_si128()
                };
                (c0, c1)
            };
            let lo = _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(c0, c1));
            let hi = _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(c0, c1));
            for (acc, &tap) in acc.iter_mut().zip(taps) {
                let w = _mm256_set1_epi32(tap);
                acc[0] = _mm256_add_epi32(acc[0], _mm256_madd_epi16(lo, w));
                acc[1] = _mm256_add_epi32(acc[1], _mm256_madd_epi16(hi, w));
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            for (h, &acc) in acc.iter().enumerate() {
                // SAFETY: row `r`, columns `p + 8h..p + 8h + 8` of `out`.
                unsafe {
                    let at = out.as_mut_ptr().add(r * n + p + 8 * h);
                    _mm256_maskstore_epi32(at, keep[h], acc);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystolicArray;
    use hpnn_tensor::simd::{self, SimdLevel};
    use hpnn_tensor::Rng;

    fn random_vec(rng: &mut Rng, n: usize) -> Vec<i8> {
        (0..n)
            .map(|_| (rng.below(256) as i32 - 128) as i8)
            .collect()
    }

    /// One dot product: a `1 × k` tile against one column.
    fn dot(mmu: &mut Mmu, weights: &[i8], activations: &[i8], acc: u8) -> i32 {
        let mut routing = Routing::default();
        mmu.route([acc], &mut routing);
        let mut out = [0i32];
        mmu.matmul_tile(
            weights,
            activations,
            weights.len(),
            Some(&routing),
            &mut out,
        );
        out[0]
    }

    #[test]
    fn zero_key_is_plain_matmul() {
        let vault = KeyVault::provision(HpnnKey::ZERO, "t");
        let mut mmu = Mmu::build(KeySource::Vault(&vault));
        assert_eq!(dot(&mut mmu, &[2, -3], &[5, 7], 42), 2 * 5 - 3 * 7);
    }

    #[test]
    fn set_key_bit_negates() {
        let key = HpnnKey::from_words([0b100, 0, 0, 0]); // bit 2 set
        let mut mmu = Mmu::build(KeySource::Key(&key));
        assert_eq!(dot(&mut mmu, &[1, 1], &[3, 4], 2), -7);
        assert_eq!(dot(&mut mmu, &[1, 1], &[3, 4], 3), 7);
    }

    #[test]
    fn tile_routes_each_output_to_its_accumulator() {
        let key = HpnnKey::from_words([1, 0, 0, 0]); // bit 0 set
        let mut mmu = Mmu::build(KeySource::Key(&key));
        // Weight rows [1 2] and [3 4]; activation columns (10, 10) and (1, 0).
        let (weights, cols) = ([1i8, 2, 3, 4], [10i8, 1, 10, 0]);
        let mut routing = Routing::default();
        mmu.route([0, 1, 1, 0], &mut routing);
        let mut out = [0i32; 4];
        mmu.matmul_tile(&weights, &cols, 2, Some(&routing), &mut out);
        assert_eq!(out, [-30, 1, 70, -3]);
        // Unlocked units ignore the key.
        mmu.matmul_tile(&weights, &cols, 2, None, &mut out);
        assert_eq!(out, [30, 1, 70, 3]);
    }

    /// `(−1)^{key[acc]} · Σ w·c` by the definition, one output at a time,
    /// wrapping in 32 bits as the accumulator register does.
    fn naive_tile(
        key: &HpnnKey,
        weights: &[i8],
        cols: &[i8],
        k: usize,
        accs: Option<&[u8]>,
    ) -> Vec<i32> {
        let (rows, n) = (weights.len() / k, cols.len() / k);
        let mut out = vec![0i32; rows * n];
        for r in 0..rows {
            for p in 0..n {
                let sum = (0..k).fold(0i32, |sum, i| {
                    sum.wrapping_add(i32::from(weights[r * k + i]) * i32::from(cols[i * n + p]))
                });
                let negate = accs.is_some_and(|a| key.bit(usize::from(a[r * n + p])));
                out[r * n + p] = if negate { sum.wrapping_neg() } else { sum };
            }
        }
        out
    }

    /// Asserts that the tile, at every SIMD level, computes `naive_tile`
    /// with and without a routing.
    fn check_tile(key: &HpnnKey, rng: &mut Rng, weights: &[i8], cols: &[i8], k: usize) {
        let (rows, n) = (weights.len() / k, cols.len() / k);
        let accs: Vec<u8> = (0..rows * n).map(|_| rng.below(256) as u8).collect();
        let mut mmu = Mmu::build(KeySource::Key(key));
        for accs in [Some(accs.as_slice()), None] {
            let want = naive_tile(key, weights, cols, k, accs);
            let mut routing = Routing::default();
            if let Some(accs) = accs {
                mmu.route(accs.iter().copied(), &mut routing);
            }
            let routing = accs.map(|_| &routing);
            for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                let _guard = simd::force(level);
                let mut got = vec![i32::MIN; rows * n];
                mmu.matmul_tile(weights, cols, k, routing, &mut got);
                assert_eq!(got, want, "{level:?} k={k} rows={rows} n={n}");
            }
        }
    }

    #[test]
    fn tile_matches_naive_loop_at_every_simd_level_and_mode() {
        let mut rng = Rng::new(11);
        let key = HpnnKey::random(&mut rng);
        // Depths odd and even: one and two steps, a 3x3 filter over one and
        // over eight channels, both sides of the array's 256-deep edge, a
        // 28x28 dense input. Widths on both sides of the 16-column register
        // block and the device's conv widths 196 and 784; row counts on both
        // sides of the 4-row block, and the 10-row dense tile.
        let shapes = [
            (1usize, 1usize),
            (5, 1),
            (3, 2),
            (4, 15),
            (16, 16),
            (5, 17),
            (10, 33),
            (3, 196),
            (1, 784),
        ];
        for &k in &[1usize, 2, 9, 72, 255, 257, 784] {
            for &(rows, n) in &shapes {
                let mut weights = random_vec(&mut rng, rows * k);
                let mut cols = random_vec(&mut rng, k * n);
                // Operands pinned at the int8 extremes, -128 included: the
                // public API takes any `i8`, although the quantizer never
                // produces it.
                weights[..k].fill(-128);
                for i in 0..k {
                    cols[i * n] = if i % 2 == 0 { -128 } else { 127 };
                    cols[i * n + n - 1] = -128;
                }
                check_tile(&key, &mut rng, &weights, &cols, k);
            }
        }
        // All-127 operands deep enough that every sum wraps i32
        // (127·127·133 145 > 2³¹ − 1), on the pair-MAC body's row and column
        // tails: the accumulator register is 32 bits wide, on every path.
        let k = 133_145;
        let (rows, n) = (1, 17);
        let (weights, cols) = (vec![127i8; rows * k], vec![127i8; k * n]);
        let want = naive_tile(&key, &weights, &cols, k, None);
        assert!(want.iter().all(|&v| v < 0), "the sums must wrap");
        check_tile(&key, &mut rng, &weights, &cols, k);
    }

    #[test]
    fn tile_matches_stepped_systolic_array() {
        // The gate-level reference: the stepped array holds tile row `r` in
        // its column `r` and drains it into a `KeyedAccumulator` keyed like
        // the unit the row is routed to; the activation columns stream
        // through it one per cycle.
        let mut rng = Rng::new(12);
        let key = HpnnKey::random(&mut rng);
        let mut mmu = Mmu::build(KeySource::Key(&key));
        let mut routing = Routing::default();
        for _ in 0..48 {
            let (rows, k, n) = (1 + rng.below(16), 1 + rng.below(16), 1 + rng.below(8));
            let weights = random_vec(&mut rng, rows * k);
            let cols = random_vec(&mut rng, k * n);
            let accs: Vec<u8> = (0..rows).map(|_| rng.below(256) as u8).collect();
            mmu.route(
                accs.iter().flat_map(|&a| std::iter::repeat_n(a, n)),
                &mut routing,
            );
            for locked in [true, false] {
                let key_bits: Vec<bool> = accs
                    .iter()
                    .map(|&a| locked && key.bit(usize::from(a)))
                    .collect();
                let stationary = (0..k)
                    .map(|i| (0..rows).map(|r| weights[r * k + i]).collect())
                    .collect();
                let mut array = SystolicArray::new(stationary, &key_bits);
                let streamed: Vec<Vec<i8>> = (0..n)
                    .map(|p| (0..k).map(|i| cols[i * n + p]).collect())
                    .collect();
                let streamed: Vec<&[i8]> = streamed.iter().map(Vec::as_slice).collect();
                let per_column = array.run(&streamed);
                let want: Vec<i32> = (0..rows * n).map(|o| per_column[o % n][o / n]).collect();
                for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                    let _guard = simd::force(level);
                    let mut got = vec![i32::MIN; rows * n];
                    let routing = locked.then_some(&routing);
                    mmu.matmul_tile(&weights, &cols, k, routing, &mut got);
                    assert_eq!(
                        got, want,
                        "{level:?} rows={rows} k={k} n={n} locked={locked}"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_advance_in_closed_form() {
        let mut mmu = Mmu::build(KeySource::None);
        dot(&mut mmu, &[1, 2, 3], &[1, 1, 1], 0);
        let one = MmuStats {
            macs: 3,
            cycles: 4,
            dot_products: 1,
        };
        assert_eq!(mmu.stats(), one);
        // A 2 x 5 tile of depth 3 is ten such dot products.
        let mut out = [0i32; 10];
        mmu.matmul_tile(&[1; 6], &[1; 15], 3, None, &mut out);
        let s = mmu.stats();
        assert_eq!((s.macs, s.cycles, s.dot_products), (33, 44, 11));
        mmu.reset_stats();
        assert_eq!(mmu.stats(), MmuStats::default());
    }

    #[test]
    fn extra_gates_is_4096_xor() {
        let g = Mmu::extra_gates();
        assert_eq!(g.xor, 4096);
        assert_eq!(g.total(), 4096);
    }

    #[test]
    fn vault_and_explicit_key_agree() {
        let mut rng = Rng::new(3);
        let key = HpnnKey::random(&mut rng);
        let vault = KeyVault::provision(key, "t");
        let mut a = Mmu::build(KeySource::Vault(&vault));
        let mut b = Mmu::build(KeySource::Key(&key));
        let w = random_vec(&mut rng, 32);
        let x = random_vec(&mut rng, 32);
        assert_eq!(dot(&mut a, &w, &x, 99), dot(&mut b, &w, &x, 99));
    }

    #[test]
    #[should_panic(expected = "tile output size mismatch")]
    fn tile_shape_validated() {
        let mut mmu = Mmu::build(KeySource::None);
        mmu.matmul_tile(&[1, 2], &[1, 2], 2, None, &mut [0, 0]);
    }
}
