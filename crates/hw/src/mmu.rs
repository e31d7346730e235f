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
//! every output routed to one accumulator unit. Two datapath modes implement
//! it: [`DatapathMode::GateLevel`] pushes every product through the
//! bit-level XOR/FA-chain (slow, used to validate the design), while
//! [`DatapathMode::Behavioral`] computes the provably identical
//! `(−1)^k·Σ p` with native integer arithmetic, vectorized through
//! [`hpnn_tensor::simd::dispatch`] (used for whole-network inference).
//! Integer sums do not depend on the order they are taken in, so the two
//! modes, and every SIMD level, agree bit for bit; tests assert it.
//!
//! # What a simulator speed-up may change
//!
//! [`MmuStats`] describes the *modeled* hardware and is advanced in closed
//! form per tile (`macs += rows·n·k`, `dot_products += rows·n`,
//! `cycles += rows·n·(k+1)`). Making the simulator faster must leave
//! `macs`, `cycles`, `dot_products`, every logit and every argmax exactly as
//! they were; host time is the only thing allowed to move. The constants are
//! pinned by `device::tests::cnn1_row_statistics_are_pinned`.

use hpnn_core::{HpnnKey, KeyVault, KEY_BITS};
use hpnn_tensor::simd::{dispatch, SimdOp};

use crate::accumulator::KeyedAccumulator;
use crate::gates::GateCount;

// Accumulator ids travel as `u8`: every value names one of the 256 units.
const _: () = assert!(KEY_BITS == 1 << u8::BITS);

/// Systolic array side (the TPU's 256).
pub const MMU_SIZE: usize = 256;

/// How MAC arithmetic is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatapathMode {
    /// Bit-level XOR + ripple-carry FA chain per accumulation.
    GateLevel,
    /// Native integer arithmetic implementing the identical function.
    Behavioral,
}

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

/// The matrix-multiply unit with key-dependent accumulators.
///
/// # Examples
///
/// ```
/// use hpnn_core::{HpnnKey, KeyVault};
/// use hpnn_hw::{DatapathMode, KeySource, Mmu};
///
/// let vault = KeyVault::provision(HpnnKey::ZERO, "tpu-0");
/// let mut mmu = Mmu::build(KeySource::Vault(&vault), DatapathMode::Behavioral);
/// // One weight row times one activation column, routed to accumulator 0
/// // (key bit 0 ⇒ identity).
/// let mut out = [0i32];
/// mmu.matmul_tile(&[1, 2, 3], &[4, 5, 6], 3, Some(&[0]), &mut out);
/// assert_eq!(out, [32]);
/// ```
#[derive(Debug, Clone)]
pub struct Mmu {
    key_bits: [bool; KEY_BITS],
    mode: DatapathMode,
    stats: MmuStats,
}

impl Mmu {
    /// Instantiates an MMU with its key register loaded from `source`.
    pub fn build(source: KeySource<'_>, mode: DatapathMode) -> Self {
        Mmu {
            key_bits: source.key_bits(),
            mode,
            stats: MmuStats::default(),
        }
    }

    /// The datapath mode.
    pub fn mode(&self) -> DatapathMode {
        self.mode
    }

    /// Key bit of accumulator `acc` — visible only inside the hardware
    /// crate, modelling the sequencer's on-chip access to its own key
    /// register (the key never crosses the crate's public API).
    pub(crate) fn key_bit(&self, acc: u8) -> bool {
        self.key_bits[usize::from(acc)]
    }

    /// Performance counters so far.
    pub fn stats(&self) -> MmuStats {
        self.stats
    }

    /// Resets performance counters.
    pub fn reset_stats(&mut self) {
        self.stats = MmuStats::default();
    }

    /// Multiplies the stationary weight tile `weights` (`[rows × k]`,
    /// row-major) by the streamed activation columns `cols` (`[k × n]`,
    /// row-major) into `out` (`[rows × n]`):
    /// `out[r·n + p] = (−1)^{key[accs[r·n + p]]} · Σᵢ weights[r·k + i]·cols[i·n + p]`.
    ///
    /// `accs` names the accumulator unit each output is collected by;
    /// `None` routes the whole tile through unlocked units (layers that feed
    /// no nonlinearity). Sums wrap in 32 bits, as the accumulator register
    /// does. The counters advance by what the modeled array spends on
    /// `rows·n` dot products of length `k`, whichever mode computes them.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or does not divide both operand lengths, or if
    /// `out` (and `accs`, when given) is not `rows·n` long.
    pub fn matmul_tile(
        &mut self,
        weights: &[i8],
        cols: &[i8],
        k: usize,
        accs: Option<&[u8]>,
        out: &mut [i32],
    ) {
        assert!(k > 0, "tile depth must be positive");
        assert!(
            weights.len().is_multiple_of(k) && cols.len().is_multiple_of(k),
            "tile operands must be whole multiples of the depth {k}"
        );
        let (rows, n) = (weights.len() / k, cols.len() / k);
        assert_eq!(out.len(), rows * n, "tile output size mismatch");
        if let Some(accs) = accs {
            assert_eq!(accs.len(), rows * n, "one accumulator id per output");
        }
        let dots = (rows * n) as u64;
        self.stats.macs += dots * k as u64;
        self.stats.dot_products += dots;
        // Weight-stationary cycle model: one product per cycle per unit plus
        // pipeline fill across the array diagonal, amortized per dot product.
        self.stats.cycles += dots * (k as u64 + 1);
        match self.mode {
            DatapathMode::GateLevel => {
                for (o, slot) in out.iter_mut().enumerate() {
                    let (r, p) = (o / n, o % n);
                    let key_bit = accs.is_some_and(|a| self.key_bit(a[o]));
                    let mut unit = KeyedAccumulator::new(key_bit);
                    for (i, &w) in weights[r * k..(r + 1) * k].iter().enumerate() {
                        unit.accumulate(i16::from(w) * i16::from(cols[i * n + p]));
                    }
                    *slot = unit.value();
                }
            }
            DatapathMode::Behavioral => {
                dispatch(TileSums {
                    weights,
                    cols,
                    k,
                    n,
                    out: &mut *out,
                });
                if let Some(accs) = accs {
                    // Fig. 4(b) on the finished sum: XOR with the key bit on
                    // every line, key bit as carry-in. Branch-free, because
                    // key bits are coin flips to a branch predictor.
                    for (v, &acc) in out.iter_mut().zip(accs) {
                        let mask = -i32::from(self.key_bit(acc));
                        *v = (*v ^ mask).wrapping_sub(mask);
                    }
                }
            }
        }
    }

    /// Total extra gates of the key-dependent design over the baseline MMU:
    /// 256 accumulators × 16 XOR gates = 4096 (paper Sec. III-D2).
    pub fn extra_gates() -> GateCount {
        KeyedAccumulator::extra_gates().times(KEY_BITS)
    }

    /// Modeled cycle count for an `m×k · k×n` matrix multiply on the
    /// `256×256` array (weight-stationary tiling): each `(256,256)` weight
    /// tile is loaded (256 cycles) and streams `n` activation columns plus
    /// array fill/drain.
    pub fn matmul_cycle_model(m: usize, k: usize, n: usize) -> u64 {
        let tiles_m = m.div_ceil(MMU_SIZE) as u64;
        let tiles_k = k.div_ceil(MMU_SIZE) as u64;
        let per_tile = MMU_SIZE as u64 + n as u64 + 2 * MMU_SIZE as u64;
        tiles_m * tiles_k * per_tile
    }
}

/// The behavioral datapath's plain sums `out[r][p] = Σᵢ w[r][i]·cols[i][p]`.
struct TileSums<'a> {
    weights: &'a [i8],
    cols: &'a [i8],
    k: usize,
    n: usize,
    out: &'a mut [i32],
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

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_tensor::simd::{self, SimdLevel};
    use hpnn_tensor::Rng;

    fn random_vec(rng: &mut Rng, n: usize) -> Vec<i8> {
        (0..n)
            .map(|_| (rng.below(255) as i32 - 127) as i8)
            .collect()
    }

    /// One dot product: a `1 × k` tile against one column.
    fn dot(mmu: &mut Mmu, weights: &[i8], activations: &[i8], acc: u8) -> i32 {
        let mut out = [0i32];
        mmu.matmul_tile(weights, activations, weights.len(), Some(&[acc]), &mut out);
        out[0]
    }

    #[test]
    fn zero_key_is_plain_matmul() {
        let vault = KeyVault::provision(HpnnKey::ZERO, "t");
        let mut mmu = Mmu::build(KeySource::Vault(&vault), DatapathMode::Behavioral);
        assert_eq!(dot(&mut mmu, &[2, -3], &[5, 7], 42), 2 * 5 - 3 * 7);
    }

    #[test]
    fn set_key_bit_negates() {
        let key = HpnnKey::from_words([0b100, 0, 0, 0]); // bit 2 set
        let mut mmu = Mmu::build(KeySource::Key(&key), DatapathMode::Behavioral);
        assert_eq!(dot(&mut mmu, &[1, 1], &[3, 4], 2), -7);
        assert_eq!(dot(&mut mmu, &[1, 1], &[3, 4], 3), 7);
    }

    #[test]
    fn tile_routes_each_output_to_its_accumulator() {
        let key = HpnnKey::from_words([1, 0, 0, 0]); // bit 0 set
        let mut mmu = Mmu::build(KeySource::Key(&key), DatapathMode::Behavioral);
        // Weight rows [1 2] and [3 4]; activation columns (10, 10) and (1, 0).
        let (weights, cols) = ([1i8, 2, 3, 4], [10i8, 1, 10, 0]);
        let mut out = [0i32; 4];
        mmu.matmul_tile(&weights, &cols, 2, Some(&[0, 1, 1, 0]), &mut out);
        assert_eq!(out, [-30, 1, 70, -3]);
        // Unlocked units ignore the key.
        mmu.matmul_tile(&weights, &cols, 2, None, &mut out);
        assert_eq!(out, [30, 1, 70, 3]);
    }

    /// `(−1)^{key[acc]} · Σ w·c` by the definition, one output at a time.
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
                let sum: i32 = (0..k)
                    .map(|i| i32::from(weights[r * k + i]) * i32::from(cols[i * n + p]))
                    .sum();
                let negate = accs.is_some_and(|a| key.bit(usize::from(a[r * n + p])));
                out[r * n + p] = if negate { -sum } else { sum };
            }
        }
        out
    }

    #[test]
    fn tile_matches_naive_loop_at_every_simd_level_and_mode() {
        let mut rng = Rng::new(11);
        let key = HpnnKey::random(&mut rng);
        // Depths of the layers the device runs (a 1x1 and a 3x3 filter, a
        // 3x3 over 8 channels, the array edge, a 28x28 dense input); widths
        // that no lane count divides; operands pinned at the int8 extremes.
        for &k in &[1usize, 9, 72, 255, 784] {
            for &(rows, n) in &[(1usize, 1usize), (5, 1), (3, 13), (2, 67)] {
                let mut weights = random_vec(&mut rng, rows * k);
                let mut cols = random_vec(&mut rng, k * n);
                if k > 1 {
                    weights[..k].fill(127);
                    for i in 0..k {
                        cols[i * n] = if i % 2 == 0 { -127 } else { 127 };
                        cols[i * n + n - 1] = 127;
                    }
                }
                let accs: Vec<u8> = (0..rows * n).map(|_| rng.below(256) as u8).collect();
                for accs in [Some(accs.as_slice()), None] {
                    let want = naive_tile(&key, &weights, &cols, k, accs);
                    for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                        let _guard = simd::force(level);
                        let mut fast = Mmu::build(KeySource::Key(&key), DatapathMode::Behavioral);
                        let mut got = vec![i32::MIN; rows * n];
                        fast.matmul_tile(&weights, &cols, k, accs, &mut got);
                        assert_eq!(got, want, "behavioral {level:?} k={k} rows={rows} n={n}");
                    }
                    let mut gate = Mmu::build(KeySource::Key(&key), DatapathMode::GateLevel);
                    let mut got = vec![i32::MIN; rows * n];
                    gate.matmul_tile(&weights, &cols, k, accs, &mut got);
                    assert_eq!(got, want, "gate level k={k} rows={rows} n={n}");
                }
            }
        }
    }

    #[test]
    fn stats_advance_in_closed_form_in_both_modes() {
        for mode in [DatapathMode::Behavioral, DatapathMode::GateLevel] {
            let mut mmu = Mmu::build(KeySource::None, mode);
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
    }

    #[test]
    fn extra_gates_is_4096_xor() {
        let g = Mmu::extra_gates();
        assert_eq!(g.xor, 4096);
        assert_eq!(g.total(), 4096);
    }

    #[test]
    fn cycle_model_scales_with_tiles() {
        let small = Mmu::matmul_cycle_model(256, 256, 100);
        let quad = Mmu::matmul_cycle_model(512, 512, 100);
        assert_eq!(quad, 4 * small);
    }

    #[test]
    fn vault_and_explicit_key_agree() {
        let mut rng = Rng::new(3);
        let key = HpnnKey::random(&mut rng);
        let vault = KeyVault::provision(key, "t");
        let mut a = Mmu::build(KeySource::Vault(&vault), DatapathMode::Behavioral);
        let mut b = Mmu::build(KeySource::Key(&key), DatapathMode::Behavioral);
        let w = random_vec(&mut rng, 32);
        let x = random_vec(&mut rng, 32);
        assert_eq!(dot(&mut a, &w, &x, 99), dot(&mut b, &w, &x, 99));
    }

    #[test]
    #[should_panic(expected = "tile output size mismatch")]
    fn tile_shape_validated() {
        let mut mmu = Mmu::build(KeySource::None, DatapathMode::Behavioral);
        mmu.matmul_tile(&[1, 2], &[1, 2], 2, None, &mut [0, 0]);
    }
}
