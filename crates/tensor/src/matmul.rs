//! Matrix multiplication kernels.
//!
//! Backpropagation needs three product forms; providing each directly avoids
//! materializing transposes on the hot path:
//!
//! * [`matmul`]: `C = A·B`
//! * [`matmul_a_bt`]: `C = A·Bᵀ`
//! * [`matmul_at_b`]: `C = Aᵀ·B`
//!
//! Each form also has a `*_into` variant ([`matmul_into`],
//! [`matmul_a_bt_into`], [`matmul_at_b_into`]) that **accumulates** the
//! product into a caller-provided buffer (`C += A·B`, BLAS `beta = 1`
//! semantics). The allocating functions are thin wrappers that pass a
//! zero-filled buffer; the dense layer calls the `*_into` kernels directly
//! and the convolution kernels their per-chunk body, so gradients
//! accumulate straight into the parameter buffers and each output is
//! written into the one buffer the layer returns. Accumulate semantics is
//! also what makes batched and per-sample convolution lowering
//! bit-identical: a gradient GEMM over the whole batch and a sequence of
//! per-sample GEMMs accumulating into the same buffer perform the exact
//! same additions in the exact same order.
//!
//! `A·B` and `Aᵀ·B` choose between two kernels by how many output rows a
//! chunk has, because the two regimes are bound by different things:
//!
//! * **Few rows** (`stream_rows`, up to `SM` = 16): the product is bound by
//!   how fast `B` arrives, so `B` is read exactly once, in address order, in
//!   long contiguous runs, never copied, while the few output rows stay in
//!   cache. One to three rows is every batch a lightly loaded server forms,
//!   and a single row costs one pass over the weights at the speed the
//!   memory system delivers them.
//! * **Many rows** (`mr_block`): arithmetic dominates, so `B` is repacked
//!   into `NR`-wide micro-panels and `MR × NR` accumulator tiles stay in
//!   registers for a whole `k`-block. The repacking is a second pass over
//!   `B` that only enough rows repay; the row and column tails of a tiled
//!   chunk go back through `stream_rows`.
//!
//! Three training shapes leave these layouts a partial vector per element,
//! and all are turned around instead: `A·B` with fewer than `NR` output
//! columns and at least `NR` rows (a classifier's forward over a batch)
//! accumulates `Cᵀ += Bᵀ·Aᵀ` with lanes over rows, `Aᵀ·B` with fewer than
//! `NR` output columns (its `dW`) takes the same lanes from `A` as stored,
//! and `A·Bᵀ` with a dot shorter than two lane chunks (its input gradient)
//! carries the dot product's lanes across 16 output columns at once.
//!
//! `A·Bᵀ` is one long dot product per output element. All kernels dispatch
//! output-row chunks through the persistent worker pool ([`crate::pool`])
//! under one flops-based cost model. Every output element sees the same
//! operation sequence on every path — ascending `p`, one multiply then one
//! add, nothing fused, nothing skipped — so results are bit-identical
//! between kernels, batch sizes, SIMD levels, the serial and pooled paths,
//! and across machines.
//!
//! The kernels never skip zero multiplicands: IEEE semantics such as
//! `0 · NaN = NaN` and `0 · ∞ = NaN` propagate into the output exactly as a
//! naive triple loop would.

use std::cell::RefCell;

use crate::pool::{for_chunks_mut, for_grouped_chunks_mut};
use crate::shape::Shape;
use crate::simd::{self, SimdLevel, SimdOp};
use crate::tensor::Tensor;

/// Rows of `k`-dimension processed per cache block.
const KC: usize = 128;

/// Output columns processed per cache block (`KC × NC` panel of `B` ≈ 128 KiB
/// stays L2-resident while a row chunk streams over it).
const NC: usize = 256;

/// `B`-rows processed per block in the `A·Bᵀ` kernel (panel reused across
/// every output row of a chunk).
const JB: usize = 64;

/// Output rows per register tile of the multi-row `A·B` micro-kernel.
const MR: usize = 4;

/// Output columns per register tile of the multi-row `A·B` micro-kernel.
const NR: usize = 16;

/// Minimum rows in a chunk for the multi-row micro-kernel: a chunk that one
/// pass of [`stream_rows`] covers stays there. On dense 2048 × 2048 the two
/// kernels cost the same at 16 rows, streaming is ahead below (16 % at 8)
/// and a second streaming pass loses to the tiles (DESIGN.md §5c has the
/// measurements).
const TILED_MIN_ROWS: usize = SM + 1;

/// Minimum inner dimension for the multi-row micro-kernel; below this the
/// per-tile accumulator setup costs more than the register reuse saves.
const QUAD_MIN_K: usize = 16;

/// ISA builds of the `MR`×`NR` tile inner loop.
///
/// Scalar codegen caps the tile at roughly the SSE multiply–add issue rate,
/// so the hot loop is written with explicit 256-/512-bit intrinsics where
/// the hardware has them. The arithmetic is the same unfused
/// multiply-then-add per element in the same ascending-`p` order as the
/// scalar tile — vector width changes how many elements advance per
/// instruction, not any element's operation sequence — so results are
/// bit-identical to the scalar fallback and the streaming path. Which
/// build runs is decided by [`crate::simd::current`], hoisted once per
/// output-row chunk.
#[cfg(target_arch = "x86_64")]
mod tile {
    use super::{MR, NR};

    /// `acc[r][j] += a[r * stride + p] * panel[p * NR + j]` for `p` in
    /// `0..kw`, ascending — the exact scalar tile recurrence, eight lanes
    /// per instruction.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available, `panel.len() >= kw * NR`, and
    /// `a.len() >= (MR - 1) * stride + kw`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn mul_add_tile_avx2(
        kw: usize,
        a: &[f32],
        stride: usize,
        panel: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        use std::arch::x86_64::*;
        debug_assert!(panel.len() >= kw * NR);
        debug_assert!(a.len() >= (MR - 1) * stride + kw);
        let mut v = [[_mm256_setzero_ps(); 2]; MR];
        for (r, vr) in v.iter_mut().enumerate() {
            vr[0] = _mm256_loadu_ps(acc[r].as_ptr());
            vr[1] = _mm256_loadu_ps(acc[r].as_ptr().add(8));
        }
        for p in 0..kw {
            let bp = panel.as_ptr().add(p * NR);
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for (r, vr) in v.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*a.get_unchecked(r * stride + p));
                vr[0] = _mm256_add_ps(vr[0], _mm256_mul_ps(av, b0));
                vr[1] = _mm256_add_ps(vr[1], _mm256_mul_ps(av, b1));
            }
        }
        for (r, vr) in v.iter().enumerate() {
            _mm256_storeu_ps(acc[r].as_mut_ptr(), vr[0]);
            _mm256_storeu_ps(acc[r].as_mut_ptr().add(8), vr[1]);
        }
    }

    /// AVX-512F build: one 512-bit accumulator per tile row (`NR` = 16
    /// lanes per instruction). Same recurrence, same order, half the
    /// instruction count of the AVX2 tile.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available, `panel.len() >= kw * NR`,
    /// and `a.len() >= (MR - 1) * stride + kw`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn mul_add_tile_avx512(
        kw: usize,
        a: &[f32],
        stride: usize,
        panel: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        use std::arch::x86_64::*;
        debug_assert!(panel.len() >= kw * NR);
        debug_assert!(a.len() >= (MR - 1) * stride + kw);
        let mut v = [_mm512_setzero_ps(); MR];
        for (r, vr) in v.iter_mut().enumerate() {
            *vr = _mm512_loadu_ps(acc[r].as_ptr());
        }
        for p in 0..kw {
            let b = _mm512_loadu_ps(panel.as_ptr().add(p * NR));
            for (r, vr) in v.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a.get_unchecked(r * stride + p));
                *vr = _mm512_add_ps(*vr, _mm512_mul_ps(av, b));
            }
        }
        for (r, vr) in v.iter().enumerate() {
            _mm512_storeu_ps(acc[r].as_mut_ptr(), *vr);
        }
    }

    /// AVX-512F 32-wide strip: two adjacent `NR` tiles advanced together,
    /// so each of the `MR` row broadcasts is reused across 32 output
    /// columns and the tile loop issues 8 independent accumulator chains.
    /// Per tile the recurrence and order are exactly those of
    /// [`mul_add_tile_avx512`]; pairing changes instruction scheduling,
    /// not any element's operation sequence.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available, both panels cover
    /// `kw * NR` elements, and `a.len() >= (MR - 1) * stride + kw`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn mul_add_tile_pair_avx512(
        kw: usize,
        a: &[f32],
        stride: usize,
        panel0: &[f32],
        panel1: &[f32],
        acc0: &mut [[f32; NR]; MR],
        acc1: &mut [[f32; NR]; MR],
    ) {
        use std::arch::x86_64::*;
        debug_assert!(panel0.len() >= kw * NR && panel1.len() >= kw * NR);
        debug_assert!(a.len() >= (MR - 1) * stride + kw);
        let mut v0 = [_mm512_setzero_ps(); MR];
        let mut v1 = [_mm512_setzero_ps(); MR];
        for r in 0..MR {
            v0[r] = _mm512_loadu_ps(acc0[r].as_ptr());
            v1[r] = _mm512_loadu_ps(acc1[r].as_ptr());
        }
        for p in 0..kw {
            let b0 = _mm512_loadu_ps(panel0.as_ptr().add(p * NR));
            let b1 = _mm512_loadu_ps(panel1.as_ptr().add(p * NR));
            for r in 0..MR {
                let av = _mm512_set1_ps(*a.get_unchecked(r * stride + p));
                v0[r] = _mm512_add_ps(v0[r], _mm512_mul_ps(av, b0));
                v1[r] = _mm512_add_ps(v1[r], _mm512_mul_ps(av, b1));
            }
        }
        for r in 0..MR {
            _mm512_storeu_ps(acc0[r].as_mut_ptr(), v0[r]);
            _mm512_storeu_ps(acc1[r].as_mut_ptr(), v1[r]);
        }
    }
    /// AVX-512F build of `narrow_portable`: one 16-lane accumulator per
    /// output column; each `Aᵀ` row load is broadcast-multiplied against
    /// the `N` entries of the matching `B` row.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available, `b.len()` is a multiple of
    /// `N`, and `(b.len() / N - 1) * pitch + NR <= at.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn narrow_avx512<const N: usize>(
        at: &[f32],
        pitch: usize,
        b: &[f32],
        acc: &mut [[f32; NR]; N],
    ) {
        use std::arch::x86_64::*;
        let k = b.len() / N;
        debug_assert!(k == 0 || (k - 1) * pitch + NR <= at.len());
        let mut v: [__m512; N] = std::array::from_fn(|j| _mm512_loadu_ps(acc[j].as_ptr()));
        for p in 0..k {
            let av = _mm512_loadu_ps(at.as_ptr().add(p * pitch));
            let bp = b.as_ptr().add(p * N);
            for (j, vj) in v.iter_mut().enumerate() {
                *vj = _mm512_add_ps(*vj, _mm512_mul_ps(av, _mm512_set1_ps(*bp.add(j))));
            }
        }
        for (j, vj) in v.iter().enumerate() {
            _mm512_storeu_ps(acc[j].as_mut_ptr(), *vj);
        }
    }

    /// AVX build of `narrow_portable`: [`narrow_avx512`] as two 8-lane
    /// passes.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available and the bounds of
    /// [`narrow_avx512`].
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn narrow_avx2<const N: usize>(
        at: &[f32],
        pitch: usize,
        b: &[f32],
        acc: &mut [[f32; NR]; N],
    ) {
        use std::arch::x86_64::*;
        let k = b.len() / N;
        debug_assert!(k == 0 || (k - 1) * pitch + NR <= at.len());
        for half in [0, 8] {
            let mut v: [__m256; N] =
                std::array::from_fn(|j| _mm256_loadu_ps(acc[j].as_ptr().add(half)));
            for p in 0..k {
                let av = _mm256_loadu_ps(at.as_ptr().add(p * pitch + half));
                let bp = b.as_ptr().add(p * N);
                for (j, vj) in v.iter_mut().enumerate() {
                    *vj = _mm256_add_ps(*vj, _mm256_mul_ps(av, _mm256_set1_ps(*bp.add(j))));
                }
            }
            for (j, vj) in v.iter().enumerate() {
                _mm256_storeu_ps(acc[j].as_mut_ptr().add(half), *vj);
            }
        }
    }

    /// Transposes the 8 × 8 tile `src[r * sstride + c]` into
    /// `dst[c * dstride + r]`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available, `7 * sstride + 8 <= src.len()`
    /// and `7 * dstride + 8 <= dst.len()`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn transpose8_avx2(
        src: &[f32],
        sstride: usize,
        dst: &mut [f32],
        dstride: usize,
    ) {
        use std::arch::x86_64::*;
        debug_assert!(7 * sstride + 8 <= src.len() && 7 * dstride + 8 <= dst.len());
        let r: [__m256; 8] =
            std::array::from_fn(|i| _mm256_loadu_ps(src.as_ptr().add(i * sstride)));
        // Pairs of rows interleaved, then quads, then the 128-bit halves.
        let t: [__m256; 8] = std::array::from_fn(|i| {
            let (a, b) = (r[i / 2 * 2], r[i / 2 * 2 + 1]);
            if i % 2 == 0 {
                _mm256_unpacklo_ps(a, b)
            } else {
                _mm256_unpackhi_ps(a, b)
            }
        });
        let u: [__m256; 8] = std::array::from_fn(|i| {
            let (base, hi) = (i / 4 * 4 + i % 4 / 2, i % 2 == 1);
            let (a, b) = (t[base], t[base + 2]);
            if hi {
                _mm256_shuffle_ps::<0xEE>(a, b)
            } else {
                _mm256_shuffle_ps::<0x44>(a, b)
            }
        });
        for c in 0..4 {
            let lo = _mm256_permute2f128_ps::<0x20>(u[c], u[c + 4]);
            let hi = _mm256_permute2f128_ps::<0x31>(u[c], u[c + 4]);
            _mm256_storeu_ps(dst.as_mut_ptr().add(c * dstride), lo);
            _mm256_storeu_ps(dst.as_mut_ptr().add((c + 4) * dstride), hi);
        }
    }
}

/// One `MR`×`NR` accumulator-tile update over a packed panel strip:
/// `acc[r][j] += a[r * stride + p] * panel[p * NR + j]`, `p` ascending.
/// Dispatches on the hoisted [`SimdLevel`]; the scalar body below is the
/// reference recurrence and produces identical bits.
#[inline]
fn mul_add_tile(
    level: SimdLevel,
    kw: usize,
    a: &[f32],
    stride: usize,
    panel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    #[cfg(not(target_arch = "x86_64"))]
    let _ = level;
    #[cfg(target_arch = "x86_64")]
    match level {
        // SAFETY: `level` comes from `simd::current()`, which is clamped to
        // detected features; the caller slices `a` and `panel` to cover
        // `(MR - 1) * stride + kw` and `kw * NR` elements.
        SimdLevel::Avx512 => {
            unsafe { tile::mul_add_tile_avx512(kw, a, stride, panel, acc) };
            return;
        }
        SimdLevel::Avx2 => {
            unsafe { tile::mul_add_tile_avx2(kw, a, stride, panel, acc) };
            return;
        }
        SimdLevel::Scalar => {}
    }
    for p in 0..kw {
        let bv: &[f32; NR] = panel[p * NR..(p + 1) * NR]
            .try_into()
            .expect("NR panel strip");
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let a_rp = a[r * stride + p];
            for (c, &b) in acc_row.iter_mut().zip(bv) {
                *c += a_rp * b;
            }
        }
    }
}

/// Copy an `MR`×`NR` accumulator tile out of `chunk` at `off` (row stride
/// `n`).
#[inline]
fn load_tile(chunk: &[f32], off: usize, n: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(&chunk[off + r * n..off + r * n + NR]);
    }
    acc
}

/// Write an `MR`×`NR` accumulator tile back into `chunk` at `off`.
#[inline]
fn store_tile(chunk: &mut [f32], off: usize, n: usize, acc: &[[f32; NR]; MR]) {
    for (r, acc_row) in acc.iter().enumerate() {
        chunk[off + r * n..off + r * n + NR].copy_from_slice(acc_row);
    }
}

/// Multi-row register-tiled `chunk += A_block · B_block` for one `k`-block
/// of one output-row chunk — the shared micro-kernel driver behind both
/// `matmul_into` (forward) and `matmul_at_b_into` (training backward `dW`).
///
/// `a` holds the chunk's `rcount` left-operand rows for this `k`-block at
/// row stride `astride` (`k` for `matmul_into`'s direct view of `A`, [`KC`]
/// for `matmul_at_b_into`'s packed `Aᵀ` panel); `b` is the `[kw × n]` block
/// of the right operand.
///
/// Rows are processed [`MR`] at a time against a `B` panel packed into
/// contiguous [`NR`]-wide micro-panels, so each packed load of `B` is reused
/// across `MR` output rows and each `MR`×`NR` accumulator tile stays in
/// registers for a whole `k`-block. Packing copies the whole of `B` once per
/// chunk, a cost that only enough rows repay ([`TILED_MIN_ROWS`]); chunks
/// with fewer rows, the `rcount % MR` row tail and the `n % NR` column tail
/// go through [`stream_rows`], which reads `B` in place.
/// Under AVX-512 adjacent tiles advance in 32-wide strips
/// ([`tile::mul_add_tile_pair_avx512`]) so row broadcasts are shared.
///
/// Per-element arithmetic order is unchanged: contributions arrive in
/// ascending-`p` order with one multiply and one add rounding per step,
/// exactly as in [`stream_rows`] and the naive loop — at every
/// [`SimdLevel`].
#[allow(clippy::too_many_arguments)]
fn mr_block(
    level: SimdLevel,
    a: &[f32],
    astride: usize,
    rcount: usize,
    kw: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
) {
    let full = rcount - rcount % MR;
    PANEL.with_borrow_mut(|panel| {
        // Line-aligned, so no tile load straddles two cache lines.
        let panel = at_least(panel, KC * NC + LINE);
        let skew = (LINE - lane(panel.as_ptr())) % LINE;
        let panel = &mut panel[skew..];
        for nb in (0..n).step_by(NC) {
            let nw = (nb + NC).min(n) - nb;
            let tiles = nw / NR;
            // Pack the B block as [tile][p][NR] so the inner loop reads one
            // contiguous NR-wide strip per p instead of striding by n. The
            // source is walked in row order, each row once.
            for p in 0..kw {
                let src = &b[p * n + nb..][..tiles * NR];
                for (jt, strip) in src.chunks_exact(NR).enumerate() {
                    panel[(jt * KC + p) * NR..][..NR].copy_from_slice(strip);
                }
            }
            for r0 in (0..full).step_by(MR) {
                let a_rows = &a[r0 * astride..];
                let mut jt = 0;
                #[cfg(target_arch = "x86_64")]
                if level == SimdLevel::Avx512 {
                    while jt + 2 <= tiles {
                        let off0 = r0 * n + nb + jt * NR;
                        let mut acc0 = load_tile(chunk, off0, n);
                        let mut acc1 = load_tile(chunk, off0 + NR, n);
                        let p0 = &panel[jt * KC * NR..(jt * KC + kw) * NR];
                        let p1 = &panel[(jt + 1) * KC * NR..((jt + 1) * KC + kw) * NR];
                        // SAFETY: level clamped to detection; slices cover
                        // kw * NR (panels) and (MR - 1) * astride + kw (a).
                        unsafe {
                            tile::mul_add_tile_pair_avx512(
                                kw, a_rows, astride, p0, p1, &mut acc0, &mut acc1,
                            )
                        };
                        store_tile(chunk, off0, n, &acc0);
                        store_tile(chunk, off0 + NR, n, &acc1);
                        jt += 2;
                    }
                }
                while jt < tiles {
                    let off = r0 * n + nb + jt * NR;
                    let mut acc = load_tile(chunk, off, n);
                    let tp = &panel[jt * KC * NR..(jt * KC + kw) * NR];
                    mul_add_tile(level, kw, a_rows, astride, tp, &mut acc);
                    store_tile(chunk, off, n, &acc);
                    jt += 1;
                }
            }
            if tiles * NR < nw {
                let cols = (nb + tiles * NR, nb + nw);
                stream_rows(a, astride, full, kw, b, n, cols, chunk);
            }
        }
    });
    if full < rcount {
        let a_tail = &a[full * astride..];
        let c_tail = &mut chunk[full * n..];
        let rows = rcount - full;
        stream_rows(a_tail, astride, rows, kw, b, n, (0, n), c_tail);
    }
}

/// Output columns per pass of the streaming kernel: each `B` row is read in
/// contiguous runs of up to `SB` floats (8 KiB), long enough for the
/// hardware prefetchers to follow the weight stream.
const SB: usize = 2048;

/// Output rows per pass of the streaming kernel; the `SM × SB` output tile
/// (128 KiB) stays cache-resident while `B` streams past it once.
const SM: usize = 16;

/// `B` rows folded into one sweep over an output row, so each output
/// element is loaded and stored once per `SP` multiply-adds.
const SP: usize = 4;

/// Floats per cache line.
const LINE: usize = 16;

/// Narrowest column block whose sweeps are split at a line boundary.
const SPLIT_MIN: usize = 32 * LINE;

/// Position of `p` within its cache line, in floats.
fn lane(p: *const f32) -> usize {
    (p as usize / std::mem::size_of::<f32>()) % LINE
}

/// Streaming small-`m` GEMM: `chunk[r][j] += Σ_p a[r][p] · b[p][j]` for
/// `r < m`, `j ∈ cols`, `p < kw` ascending.
///
/// `p` is the outer loop: `B` is read once per [`SM`] output rows, in
/// address order, in runs of up to [`SB`] floats, and never copied; the
/// output rows are gathered into a compact `tile` for the pass. A product
/// with few rows is bound by how fast the weights arrive, not by
/// arithmetic, and this is the access pattern that lets them arrive at
/// memory speed; the register-tiled [`mr_block`] has to repack all of `B`
/// first, which only enough rows repay ([`TILED_MIN_ROWS`]).
///
/// Where the caller's buffers sit must not show in the time (the keyed and
/// the keyless deployment of one model are separate weight copies, and a
/// forward that favoured one of them would read as a lock cost):
///
/// * Tile rows are one cache line further apart than a multiple of the
///   line. Output rows `n` floats apart — and the `B` rows in flight —
///   compete for the same L1 sets when `n` is a power of two (±9 %
///   measured at 16 rows, depending on the output buffer's address).
/// * The tile is shifted to the phase of the `B` rows within a cache line
///   and each sweep is split where `B` reaches a line boundary, so the
///   vector body of the sweep touches whole lines only. An allocator
///   aligns a weight matrix to 16 bytes, not 64, and vector accesses that
///   straddle lines cost 13 % at 3 rows and 28 % at 16.
///
/// `a` has row stride `astride`; `b` and `chunk` have row stride `n`;
/// `tile` holds at least [`TILE_LEN`] floats.
struct StreamRows<'a> {
    a: &'a [f32],
    astride: usize,
    m: usize,
    kw: usize,
    b: &'a [f32],
    n: usize,
    cols: (usize, usize),
    chunk: &'a mut [f32],
    tile: &'a mut [f32],
}

/// Floats of tile a full `SM × SB` pass needs: rows one line apart more
/// than `SB`, after a shift of less than a line.
const TILE_LEN: usize = SM * (SB + LINE) + LINE;

impl SimdOp for StreamRows<'_> {
    type Output = ();

    #[inline(always)]
    fn eval(self) {
        let StreamRows {
            a,
            astride,
            m,
            kw,
            b,
            n,
            cols,
            chunk,
            tile,
        } = self;
        for r0 in (0..m).step_by(SM) {
            let a = &a[r0 * astride..];
            let chunk = &mut chunk[r0 * n..];
            let mg = SM.min(m - r0);
            for cb in (cols.0..cols.1).step_by(SB) {
                let cw = SB.min(cols.1 - cb);
                // Every `B` row of the block has this phase when `n` is a
                // multiple of the line; otherwise no split aligns them all
                // and the first row's is as good as any.
                let phase = lane(b.as_ptr().wrapping_add(cb));
                // A narrow block is not worth a scalar head of up to 15
                // floats per sweep.
                let head = if cw >= SPLIT_MIN {
                    (LINE - phase) % LINE
                } else {
                    0
                };
                let shift = (LINE + phase - lane(tile.as_ptr())) % LINE;
                let stride = cw.next_multiple_of(LINE) + LINE;
                let tile = &mut tile[shift..shift + mg * stride];
                for (t, c) in tile.chunks_exact_mut(stride).zip(chunk.chunks(n)) {
                    t[..cw].copy_from_slice(&c[cb..cb + cw]);
                }
                let mut p = 0;
                while p + SP <= kw {
                    let b0 = &b[p * n + cb..][..cw];
                    let b1 = &b[(p + 1) * n + cb..][..cw];
                    let b2 = &b[(p + 2) * n + cb..][..cw];
                    let b3 = &b[(p + 3) * n + cb..][..cw];
                    for (r, t) in tile.chunks_exact_mut(stride).enumerate() {
                        let ar = &a[r * astride + p..][..SP];
                        let (a0, a1, a2, a3) = (ar[0], ar[1], ar[2], ar[3]);
                        for (lo, hi) in [(0, head), (head, cw)] {
                            for ((((c, &x0), &x1), &x2), &x3) in t[lo..hi]
                                .iter_mut()
                                .zip(&b0[lo..hi])
                                .zip(&b1[lo..hi])
                                .zip(&b2[lo..hi])
                                .zip(&b3[lo..hi])
                            {
                                *c = (((*c + a0 * x0) + a1 * x1) + a2 * x2) + a3 * x3;
                            }
                        }
                    }
                    p += SP;
                }
                while p < kw {
                    let bp = &b[p * n + cb..][..cw];
                    for (r, t) in tile.chunks_exact_mut(stride).enumerate() {
                        axpy(a[r * astride + p], bp, &mut t[..cw]);
                    }
                    p += 1;
                }
                for (t, c) in tile.chunks_exact(stride).zip(chunk.chunks_mut(n)) {
                    c[cb..cb + cw].copy_from_slice(&t[..cw]);
                }
            }
        }
    }
}

/// Runs [`StreamRows`] at the current [`SimdLevel`] over columns `cols` of
/// an `m`-row chunk.
#[allow(clippy::too_many_arguments)]
fn stream_rows(
    a: &[f32],
    astride: usize,
    m: usize,
    kw: usize,
    b: &[f32],
    n: usize,
    cols: (usize, usize),
    chunk: &mut [f32],
) {
    TILE.with_borrow_mut(|tile| {
        let tile = at_least(tile, TILE_LEN);
        simd::dispatch(StreamRows {
            a,
            astride,
            m,
            kw,
            b,
            n,
            cols,
            chunk,
            tile,
        });
    });
}

thread_local! {
    /// Per-thread kernel scratch, kept across calls so no path allocates:
    /// the `B` panel of [`mr_block`], the `Aᵀ` panel of
    /// [`matmul_at_b_into`] and of [`narrow_rows`], and the output tile of
    /// [`stream_rows`].
    static PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static A_PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static TILE: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `buf` grown (never shrunk) to at least `len` elements; contents are
/// scratch and every user overwrites what it reads.
fn at_least(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Accumulator lanes of [`dot_lanes`].
const DOT_LANES: usize = 8;

/// Dot product with eight independent accumulator lanes (vectorizes to wide
/// FMAs) and a fixed lane-reduction order, so the result is deterministic.
#[inline]
fn dot_lanes(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut lanes = [0.0f32; DOT_LANES];
    let xc = x.chunks_exact(DOT_LANES);
    let yc = y.chunks_exact(DOT_LANES);
    let xr = xc.remainder();
    let yr = yc.remainder();
    for (xv, yv) in xc.zip(yc) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane += xv[l] * yv[l];
        }
    }
    let mut tail = 0.0f32;
    for (&a, &b) in xr.iter().zip(yr) {
        tail += a * b;
    }
    let head = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    head + tail
}

/// `y[j] += a * x[j]` over a column block; the shape the autovectorizer
/// turns into broadcast-multiply-add.
#[inline]
pub(crate) fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    for (c, &b) in y.iter_mut().zip(x) {
        *c += a * b;
    }
}

/// `dst[c * pitch + r] = src[r * stride + c]` for `r < rows` and
/// `c < cols`: `rows` rows of `src`, `stride` apart, transposed into rows
/// of pitch `pitch`, in 8 × 8 tiles where a vector level is available.
pub(crate) fn transpose_rows(
    level: SimdLevel,
    src: &[f32],
    (rows, cols, stride): (usize, usize, usize),
    dst: &mut [f32],
    pitch: usize,
) {
    assert!(rows <= pitch && cols * pitch <= dst.len() && cols <= stride);
    assert!(rows == 0 || (rows - 1) * stride + cols <= src.len());
    let r8 = rows / 8 * 8;
    let c8 = if cfg!(target_arch = "x86_64") && level >= SimdLevel::Avx2 {
        cols / 8 * 8
    } else {
        0
    };
    #[cfg(target_arch = "x86_64")]
    for r0 in (0..r8).step_by(8) {
        for c0 in (0..c8).step_by(8) {
            // SAFETY: `level` is clamped to the detected features; the
            // tile's rows `src[(r0 + i) * stride + c0..][..8]` and
            // `dst[(c0 + i) * pitch + r0..][..8]` lie inside the slices.
            unsafe {
                let src = &src[r0 * stride + c0..];
                tile::transpose8_avx2(src, stride, &mut dst[c0 * pitch + r0..], pitch)
            };
        }
    }
    for r in 0..rows {
        let from = if r < r8 { c8 } else { 0 };
        for (c, &v) in src[r * stride..r * stride + cols]
            .iter()
            .enumerate()
            .skip(from)
        {
            dst[c * pitch + r] = v;
        }
    }
}

/// `C = A·B` for rank-2 tensors.
///
/// # Panics
///
/// Panics unless `A` is `[m x k]` and `B` is `[k x n]`.
///
/// # Examples
///
/// ```
/// use hpnn_tensor::{matmul, Shape, Tensor};
///
/// let a = Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3., 4.])?;
/// let b = Tensor::from_vec(Shape::d2(2, 2), vec![5., 6., 7., 8.])?;
/// assert_eq!(matmul(&a, &b).data(), &[19., 22., 43., 50.]);
/// # Ok::<(), hpnn_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = (a.shape().rows(), b.shape().cols());
    let mut out = vec![0.0f32; m * n];
    matmul_into(a, b, &mut out);
    Tensor::from_vec(Shape::d2(m, n), out).expect("matmul output volume")
}

/// `C += A·B`: accumulates the product into `out` (BLAS `beta = 1`).
///
/// Pass a zero-filled buffer for a plain product. Per-element contributions
/// arrive in ascending-`k` order, identical to the allocating [`matmul`],
/// whichever kernel a row chunk runs: register tiles for enough rows, the
/// streaming kernel for few, and lanes over rows for at least 16 rows and
/// fewer than 16 output columns (a classifier's forward over a batch).
///
/// # Panics
///
/// Panics unless `A` is `[m x k]`, `B` is `[k x n]`, and `out.len() == m*n`.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    let (m, k) = (a.shape().rows(), a.shape().cols());
    let (k2, n) = (b.shape().rows(), b.shape().cols());
    assert_eq!(k, k2, "matmul inner dims: {} vs {}", a.shape(), b.shape());
    assert_eq!(out.len(), m * n, "matmul output buffer volume");
    let (ad, bd) = (a.data(), b.data());
    for_grouped_chunks_mut(m, SM, n, 2 * n * k, out, |rows, chunk| {
        let rcount = rows.1 - rows.0;
        let a = &ad[rows.0 * k..rows.1 * k];
        let level = simd::current();
        if (1..NR).contains(&n) && rcount >= NR {
            // `P = Aᵀ`: transpose `A`'s rows in.
            let pack = |(r0, nr), (kb, kw), at: &mut [f32], pitch| {
                transpose_rows(level, &a[r0 * k + kb..], (nr, kw, k), at, pitch)
            };
            narrow_rows(level, (rcount, k), bd, n, chunk, pack);
        } else if rcount >= TILED_MIN_ROWS && k >= QUAD_MIN_K {
            for kb in (0..k).step_by(KC) {
                let kw = (kb + KC).min(k) - kb;
                let b_blk = &bd[kb * n..(kb + kw) * n];
                mr_block(level, &a[kb..], k, rcount, kw, b_blk, n, chunk);
            }
        } else {
            stream_rows(a, k, rcount, k, bd, n, (0, n), chunk);
        }
    });
}

/// Rows of `P` one panel of [`narrow_rows`] holds.
const NARROW_ROWS: usize = 4 * NR;

/// `chunk[r][j] += Σ_p P[p][r] · b[p][j]`, `p` ascending, for the chunk's
/// `rows` rows and fewer than `NR` columns (`chunk` and `b` are `n`
/// wide), with lanes over rows. `P` is `[k × rows]`: `matmul_into`'s `Aᵀ`,
/// `matmul_at_b_into`'s `A`. One [`NARROW_ROWS`] × [`KC`] block of it at
/// a time is written into the thread's `A_PACK` panel by
/// `pack((r0, nr), (kb, kw), panel, pitch)`, which puts
/// `P[kb + p][r0 + r]` at `panel[p * pitch + r]` for `p < kw`, `r < nr`.
fn narrow_rows(
    level: SimdLevel,
    (rows, k): (usize, usize),
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
    pack: impl Fn((usize, usize), (usize, usize), &mut [f32], usize),
) {
    A_PACK.with_borrow_mut(|panel| {
        // Lanes past a block's rows hold whatever the panel last held:
        // computed, never stored.
        let panel = at_least(panel, KC * NARROW_ROWS);
        for r0 in (0..rows).step_by(NARROW_ROWS) {
            let nr = NARROW_ROWS.min(rows - r0);
            let pitch = nr.next_multiple_of(NR);
            let out = &mut chunk[r0 * n..(r0 + nr) * n];
            for kb in (0..k).step_by(KC) {
                let kw = KC.min(k - kb);
                let at = &mut panel[..kw * pitch];
                pack((r0, nr), (kb, kw), at, pitch);
                narrow_columns(level, at, pitch, &b[kb * n..(kb + kw) * n], n, out);
            }
        }
    });
}

/// [`narrow_block`] for the `n` (`1..NR`) columns `b` and `chunk` have.
fn narrow_columns(
    level: SimdLevel,
    at: &[f32],
    pitch: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
) {
    macro_rules! cols {
        ($($n:literal)*) => {
            match n {
                $($n => narrow_block::<$n>(level, at, pitch, b, chunk),)*
                n => unreachable!("{n} columns on the narrow path"),
            }
        };
    }
    cols!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
}

/// `chunk[r][j] += Σ_p at[p * pitch + r] · b[p * N + j]`, `p` ascending,
/// for the chunk's rows `r` (`chunk` is `[rows × N]`, `at` is `[k × pitch]`
/// with `pitch` a multiple of `NR` and at least `rows`): one `NR`-lane
/// accumulator per output column over each block of `NR` rows, so each
/// `Aᵀ` row load serves all `N` columns. Every element starts from its
/// value in `chunk` and adds its products one multiply and one add at a
/// time, as in [`stream_rows`]. Dispatches on the hoisted [`SimdLevel`];
/// the portable body is the reference and the [`SimdLevel::Scalar`] path.
fn narrow_block<const N: usize>(
    level: SimdLevel,
    at: &[f32],
    pitch: usize,
    b: &[f32],
    chunk: &mut [f32],
) {
    let (rows, k) = (chunk.len() / N, b.len() / N);
    assert!(pitch.is_multiple_of(NR) && rows <= pitch && k * pitch <= at.len());
    assert!(rows * N == chunk.len() && k * N == b.len());
    for r0 in (0..rows).step_by(NR) {
        let live = NR.min(rows - r0);
        let mut acc = [[0.0f32; NR]; N];
        for (l, row) in chunk[r0 * N..(r0 + live) * N].chunks_exact(N).enumerate() {
            for (lanes, &v) in acc.iter_mut().zip(row) {
                lanes[l] = v;
            }
        }
        let at = &at[r0..];
        #[cfg(not(target_arch = "x86_64"))]
        let _ = level;
        #[cfg(target_arch = "x86_64")]
        match level {
            // SAFETY: `level` comes from `simd::current()`, which is
            // clamped to the detected features; the asserts above give
            // `(k - 1) * pitch + NR <= at.len()` for this block.
            SimdLevel::Avx512 => unsafe { tile::narrow_avx512(at, pitch, b, &mut acc) },
            SimdLevel::Avx2 => unsafe { tile::narrow_avx2(at, pitch, b, &mut acc) },
            SimdLevel::Scalar => narrow_portable(at, pitch, b, &mut acc),
        }
        #[cfg(not(target_arch = "x86_64"))]
        narrow_portable(at, pitch, b, &mut acc);
        for (l, row) in chunk[r0 * N..(r0 + live) * N]
            .chunks_exact_mut(N)
            .enumerate()
        {
            for (v, lanes) in row.iter_mut().zip(&acc) {
                *v = lanes[l];
            }
        }
    }
}

/// The portable body of [`narrow_block`] for one block of `NR` rows:
/// `acc[j][l] += at[p * pitch + l] · b[p * N + j]`, `p` ascending.
fn narrow_portable<const N: usize>(at: &[f32], pitch: usize, b: &[f32], acc: &mut [[f32; NR]; N]) {
    for (ap, bp) in at.chunks(pitch).zip(b.chunks_exact(N)) {
        let av: &[f32; NR] = ap[..NR].try_into().expect("row block");
        for (lanes, &bv) in acc.iter_mut().zip(bp) {
            for (c, &x) in lanes.iter_mut().zip(av) {
                *c += x * bv;
            }
        }
    }
}

/// `C = A·Bᵀ` for rank-2 tensors (`A: [m x k]`, `B: [n x k]`, `C: [m x n]`).
///
/// # Panics
///
/// Panics unless the inner dimensions (both `k`) agree.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = (a.shape().rows(), b.shape().rows());
    let mut out = vec![0.0f32; m * n];
    matmul_a_bt_into(a, b, &mut out);
    Tensor::from_vec(Shape::d2(m, n), out).expect("matmul_a_bt output volume")
}

/// `C += A·Bᵀ`: accumulates the product into `out` (BLAS `beta = 1`).
///
/// Pass a zero-filled buffer for a plain product. Each product element is
/// one `dot_lanes` dot over `k`, added to `out` in a single operation.
///
/// # Panics
///
/// Panics unless `A` is `[m x k]`, `B` is `[n x k]`, and `out.len() == m*n`.
pub fn matmul_a_bt_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    let (m, k) = (a.shape().rows(), a.shape().cols());
    let (n, k2) = (b.shape().rows(), b.shape().cols());
    assert_eq!(
        k,
        k2,
        "matmul_a_bt inner dims: {} vs {}",
        a.shape(),
        b.shape()
    );
    assert_eq!(out.len(), m * n, "matmul_a_bt output buffer volume");
    let ad = a.data();
    let bd = b.data();

    if (1..2 * DOT_LANES).contains(&k) && n >= DOT_COLS {
        // A dot this short (a classifier's input gradient has k = classes)
        // leaves `dot_lanes` one partial vector per element; run its exact
        // sequence across DOT_COLS output columns at once over a transposed
        // copy of B instead.
        let mut bt = vec![0.0f32; k * n];
        for (j, b_row) in bd.chunks_exact(k).enumerate() {
            for (p, &v) in b_row.iter().enumerate() {
                bt[p * n + j] = v;
            }
        }
        for_chunks_mut(m, n, 2 * n * k, out, |rows, chunk| {
            for (a_row, c_row) in ad[rows.0 * k..rows.1 * k]
                .chunks_exact(k)
                .zip(chunk.chunks_exact_mut(n))
            {
                simd::dispatch(DotColumns {
                    a_row,
                    bt: &bt,
                    c_row,
                });
            }
        });
        return;
    }

    // Both operands are contiguous along k, so each C[i][j] is one long dot
    // product; blocking j keeps a JB×k panel of B resident across the
    // chunk's rows.
    for_chunks_mut(m, n, 2 * n * k, out, |rows, chunk| {
        for jb in (0..n).step_by(JB) {
            let jmax = (jb + JB).min(n);
            for i in rows.0..rows.1 {
                let a_row = &ad[i * k..(i + 1) * k];
                let c_row = &mut chunk[(i - rows.0) * n..(i - rows.0 + 1) * n];
                for j in jb..jmax {
                    c_row[j] += dot_lanes(a_row, &bd[j * k..(j + 1) * k]);
                }
            }
        }
    });
}

/// Output columns [`DotColumns`] advances together.
const DOT_COLS: usize = 16;

/// `c_row[j] += dot_lanes(a_row, B row j)` for every column `j`, with B
/// given transposed (`bt`: `[k × n]`): [`dot_lanes`]' lane sums, tail and
/// reduction tree, each carried for [`DOT_COLS`] columns in one vector.
/// The last `n % DOT_COLS` columns take [`dot_lanes`] itself on a gathered
/// B row.
struct DotColumns<'a> {
    a_row: &'a [f32],
    bt: &'a [f32],
    c_row: &'a mut [f32],
}

impl SimdOp for DotColumns<'_> {
    type Output = ();

    #[inline(always)]
    fn eval(self) {
        let DotColumns { a_row, bt, c_row } = self;
        let (k, n) = (a_row.len(), c_row.len());
        let body = k - k % DOT_LANES;
        let mut blocks = c_row.chunks_exact_mut(DOT_COLS);
        for (jb, c) in (&mut blocks).enumerate() {
            let col = |p: usize| -> [f32; DOT_COLS] {
                bt[p * n + jb * DOT_COLS..][..DOT_COLS]
                    .try_into()
                    .expect("column block")
            };
            let mut lanes = [[0.0f32; DOT_COLS]; DOT_LANES];
            for p0 in (0..body).step_by(DOT_LANES) {
                for (l, lane) in lanes.iter_mut().enumerate() {
                    let (x, y) = (a_row[p0 + l], col(p0 + l));
                    for (s, y) in lane.iter_mut().zip(y) {
                        *s += x * y;
                    }
                }
            }
            let mut tail = [0.0f32; DOT_COLS];
            for (p, &x) in a_row.iter().enumerate().skip(body) {
                for (s, y) in tail.iter_mut().zip(col(p)) {
                    *s += x * y;
                }
            }
            for (t, c) in c.iter_mut().enumerate() {
                let l = |i: usize| lanes[i][t];
                let head = ((l(0) + l(1)) + (l(2) + l(3))) + ((l(4) + l(5)) + (l(6) + l(7)));
                *c += head + tail[t];
            }
        }
        let done = n - blocks.into_remainder().len();
        let mut b_row = [0.0f32; 2 * DOT_LANES];
        let b_row = &mut b_row[..k];
        for j in done..n {
            for (p, v) in b_row.iter_mut().enumerate() {
                *v = bt[p * n + j];
            }
            c_row[j] += dot_lanes(a_row, b_row);
        }
    }
}

/// `C = Aᵀ·B` for rank-2 tensors (`A: [k x m]`, `B: [k x n]`, `C: [m x n]`).
///
/// # Panics
///
/// Panics unless the outer dimensions (both `k`) agree.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = (a.shape().cols(), b.shape().cols());
    let mut out = vec![0.0f32; m * n];
    matmul_at_b_into(a, b, &mut out);
    Tensor::from_vec(Shape::d2(m, n), out).expect("matmul_at_b output volume")
}

/// `C += Aᵀ·B`: accumulates the product into `out` (BLAS `beta = 1`).
///
/// Pass a zero-filled buffer for a plain product. Per-element contributions
/// arrive in ascending-`k` order, so accumulating one whole-batch product
/// performs the same additions as accumulating per-sample row-block
/// products in sample order — the sequence the batched weight gradients
/// are pinned to.
///
/// # Panics
///
/// Panics unless `A` is `[k x m]`, `B` is `[k x n]`, and `out.len() == m*n`.
pub fn matmul_at_b_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    let (k, m) = (a.shape().rows(), a.shape().cols());
    let (k2, n) = (b.shape().rows(), b.shape().cols());
    assert_eq!(
        k,
        k2,
        "matmul_at_b outer dims: {} vs {}",
        a.shape(),
        b.shape()
    );
    assert_eq!(out.len(), m * n, "matmul_at_b output buffer volume");
    if (1..NR).contains(&n) && m >= NR {
        // Output rows this short (a classifier's dW has n = classes) do not
        // fill a vector; run lanes over output rows instead, as
        // `matmul_into` does for a narrow product. Here `P = A`, already
        // a row per `p`: copy its rows in at a whole-vector pitch.
        let (ad, bd) = (a.data(), b.data());
        for_grouped_chunks_mut(m, SM, n, 2 * n * k, out, |rows, chunk| {
            let level = simd::current();
            let pack = |(r0, nr), (kb, _), at: &mut [f32], pitch| {
                for (p, dst) in at.chunks_exact_mut(pitch).enumerate() {
                    dst[..nr].copy_from_slice(&ad[(kb + p) * m + rows.0 + r0..][..nr]);
                }
            };
            narrow_rows(level, (rows.1 - rows.0, k), bd, n, chunk, pack);
        });
        return;
    }
    at_b_into(a.data(), m, b.data(), n, k, out);
}

/// The body of [`matmul_at_b_into`]: `out += Aᵀ·B` for `A` `[k × m]` and
/// `B` `[k × n]` given as slices.
fn at_b_into(ad: &[f32], m: usize, bd: &[f32], n: usize, k: usize, out: &mut [f32]) {
    // A is walked down columns (stride m); pack the chunk's A panel into a
    // contiguous [rows × KC] buffer once per k-block so the inner loops see
    // unit-stride data. Contribution order per element stays ascending in p.
    // Once packed, the panel has exactly the layout `mr_block` and
    // `stream_rows` want (row stride KC), so big chunks get the same
    // multi-row register tiling as the forward path — this is the training
    // backward `dW = Aᵀ·B` GEMM.
    for_grouped_chunks_mut(m, SM, n, 2 * n * k, out, |rows, chunk| {
        let rcount = rows.1 - rows.0;
        let tiled = rcount >= TILED_MIN_ROWS && k >= QUAD_MIN_K;
        let level = simd::current();
        A_PACK.with_borrow_mut(|a_pack| {
            let a_blk = at_least(a_pack, rcount * KC);
            for kb in (0..k).step_by(KC) {
                let kw = (kb + KC).min(k) - kb;
                for (i, dst) in (rows.0..rows.1).zip(a_blk.chunks_exact_mut(KC)) {
                    for (p, d) in dst[..kw].iter_mut().enumerate() {
                        *d = ad[(kb + p) * m + i];
                    }
                }
                let b_blk = &bd[kb * n..(kb + kw) * n];
                if tiled {
                    mr_block(level, a_blk, KC, rcount, kw, b_blk, n, chunk);
                } else {
                    stream_rows(a_blk, KC, rcount, kw, b_blk, n, (0, n), chunk);
                }
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::serial_scope;
    use crate::rng::Rng;

    /// `out[i][j] += Σ_p a[i][p]·b[p][j]`, one multiply then one add per
    /// step in ascending `p`: the reference every kernel must match bit for
    /// bit.
    fn naive_into(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize), out: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = out[i * n + j];
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
    }

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().rows(), a.shape().cols());
        let n = b.shape().cols();
        let mut out = Tensor::zeros([m, n]);
        naive_into(a.data(), b.data(), (m, k, n), out.data_mut());
        out
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(Shape::d2(3, 2), vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::new(1);
        let a = Tensor::randn([5, 5], 1.0, &mut rng);
        let mut eye = Tensor::zeros([5, 5]);
        for i in 0..5 {
            eye.set(&[i, i], 1.0);
        }
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&eye, &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn matches_naive_random() {
        let mut rng = Rng::new(2);
        for &(m, k, n) in &[(3usize, 4usize, 5usize), (7, 1, 2), (1, 9, 1), (8, 8, 8)] {
            let a = Tensor::randn([m, k], 1.0, &mut rng);
            let b = Tensor::randn([k, n], 1.0, &mut rng);
            let c = matmul(&a, &b);
            assert!(c.max_abs_diff(&naive(&a, &b)) < 1e-4, "({m},{k},{n})");
        }
    }

    #[test]
    fn matches_naive_at_block_boundaries() {
        // Sizes straddling the KC/NC/JB blocking constants exercise every
        // remainder path in the tiled kernels.
        let mut rng = Rng::new(6);
        for &(m, k, n) in &[
            (2usize, KC - 1, NC + 3),
            (3, KC + 1, JB + 1),
            (5, 2 * KC + 7, 2),
            (1, 8, 2 * NC + 5),
        ] {
            let a = Tensor::randn([m, k], 0.5, &mut rng);
            let b = Tensor::randn([k, n], 0.5, &mut rng);
            assert!(
                matmul(&a, &b).max_abs_diff(&naive(&a, &b)) < 1e-3,
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn parallel_path_matches_serial() {
        let mut rng = Rng::new(3);
        let a = Tensor::randn([128, 64], 1.0, &mut rng);
        let b = Tensor::randn([64, 96], 1.0, &mut rng);
        // 2*128*96*64 flops clears the pool threshold ⇒ pooled path.
        let c = matmul(&a, &b);
        assert!(c.max_abs_diff(&naive(&a, &b)) < 1e-3);
    }

    #[test]
    fn pooled_results_bit_identical_to_serial() {
        // The determinism guarantee: same bits with and without the pool,
        // for all three product forms.
        let mut rng = Rng::new(7);
        let a = Tensor::randn([96, 80], 1.0, &mut rng);
        let b = Tensor::randn([80, 72], 1.0, &mut rng);
        let bt = b.transpose();
        let at = a.transpose();
        for _ in 0..3 {
            assert_eq!(
                serial_scope(|| matmul(&a, &b)).data(),
                matmul(&a, &b).data()
            );
            assert_eq!(
                serial_scope(|| matmul_a_bt(&a, &bt)).data(),
                matmul_a_bt(&a, &bt).data()
            );
            assert_eq!(
                serial_scope(|| matmul_at_b(&at, &b)).data(),
                matmul_at_b(&at, &b).data()
            );
        }
    }

    #[test]
    fn zero_entries_do_not_mask_nan_or_inf() {
        // Regression: the old kernels skipped a_ip == 0.0, so a NaN/Inf in B
        // vanished whenever its matching A entry was zero. IEEE requires
        // 0·NaN = NaN and 0·∞ = NaN to poison the sum.
        let a = Tensor::from_vec(Shape::d2(1, 2), vec![0.0, 1.0]).unwrap();
        let b = Tensor::from_vec(Shape::d2(2, 1), vec![f32::NAN, 2.0]).unwrap();
        assert!(
            matmul(&a, &b).data()[0].is_nan(),
            "matmul must propagate 0·NaN"
        );

        let b_inf = Tensor::from_vec(Shape::d2(2, 1), vec![f32::INFINITY, 2.0]).unwrap();
        assert!(
            matmul(&a, &b_inf).data()[0].is_nan(),
            "matmul must propagate 0·∞"
        );

        // Aᵀ·B with the zero sitting in A's column.
        let at = Tensor::from_vec(Shape::d2(2, 1), vec![0.0, 1.0]).unwrap();
        assert!(
            matmul_at_b(&at, &b).data()[0].is_nan(),
            "matmul_at_b must propagate 0·NaN"
        );
        assert!(
            matmul_at_b(&at, &b_inf).data()[0].is_nan(),
            "matmul_at_b must propagate 0·∞"
        );

        // A·Bᵀ for completeness.
        let bt = Tensor::from_vec(Shape::d2(1, 2), vec![f32::NAN, 2.0]).unwrap();
        assert!(
            matmul_a_bt(&a, &bt).data()[0].is_nan(),
            "matmul_a_bt must propagate 0·NaN"
        );

        // Every row of a small batch (streaming kernel), and the tiled
        // path with a row tail and a column tail: A's column 0 is all
        // zeros and B's row 0 all NaN / ∞, so every output is poisoned.
        for poison in [f32::NAN, f32::INFINITY] {
            for m in [2, 3, TILED_MIN_ROWS + 1] {
                let (k, n) = (QUAD_MIN_K, NR + 1);
                let mut a = Tensor::ones([m, k]);
                for i in 0..m {
                    a.set(&[i, 0], 0.0);
                }
                let mut b = Tensor::ones([k, n]);
                for j in 0..n {
                    b.set(&[0, j], poison);
                }
                let ab = matmul(&a, &b);
                let atb = matmul_at_b(&a.transpose(), &b);
                for (i, (x, y)) in ab.data().iter().zip(atb.data()).enumerate() {
                    assert!(x.is_nan(), "matmul m={m} lost 0·{poison} at {i}");
                    assert!(y.is_nan(), "matmul_at_b m={m} lost 0·{poison} at {i}");
                }
            }
        }
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let mut rng = Rng::new(4);
        let a = Tensor::randn([6, 10], 1.0, &mut rng);
        let b = Tensor::randn([4, 10], 1.0, &mut rng);
        let fast = matmul_a_bt(&a, &b);
        let slow = matmul(&a, &b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let mut rng = Rng::new(5);
        let a = Tensor::randn([10, 6], 1.0, &mut rng);
        let b = Tensor::randn([10, 4], 1.0, &mut rng);
        let fast = matmul_at_b(&a, &b);
        let slow = matmul(&a.transpose(), &b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn dim_mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn into_kernels_accumulate() {
        // `*_into` is C += A·B: running twice into the same buffer doubles
        // the product (all values here are exactly representable).
        let a = Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3., 4.]).unwrap();
        let b = Tensor::from_vec(Shape::d2(2, 2), vec![5., 6., 7., 8.]).unwrap();
        let once = matmul(&a, &b);

        let mut out = vec![0.0f32; 4];
        matmul_into(&a, &b, &mut out);
        matmul_into(&a, &b, &mut out);
        assert_eq!(out, once.scale(2.0).data());

        let bt = b.transpose();
        let mut out = vec![0.0f32; 4];
        matmul_a_bt_into(&a, &bt, &mut out);
        matmul_a_bt_into(&a, &bt, &mut out);
        assert_eq!(out, once.scale(2.0).data());

        let at = a.transpose();
        let mut out = vec![0.0f32; 4];
        matmul_at_b_into(&at, &b, &mut out);
        matmul_at_b_into(&at, &b, &mut out);
        assert_eq!(out, once.scale(2.0).data());
    }

    #[test]
    fn into_kernels_serial_scope_bit_identical() {
        // Determinism for the buffer-writing kernels: the pooled path must
        // produce the same bits as the forced single-threaded path, for all
        // three product forms, including with a non-zero starting buffer.
        let mut rng = Rng::new(8);
        let a = Tensor::randn([96, 80], 1.0, &mut rng);
        let b = Tensor::randn([80, 72], 1.0, &mut rng);
        let bt = b.transpose();
        let at = a.transpose();
        let seed: Vec<f32> = (0..96 * 72).map(|i| (i as f32 * 0.37).sin()).collect();

        let run = |f: &dyn Fn(&mut [f32])| {
            let mut pooled = seed.clone();
            f(&mut pooled);
            let mut serial = seed.clone();
            serial_scope(|| f(&mut serial));
            assert_eq!(pooled, serial);
        };
        run(&|out| matmul_into(&a, &b, out));
        run(&|out| matmul_a_bt_into(&a, &bt, out));
        run(&|out| matmul_at_b_into(&at, &b, out));
    }

    #[test]
    fn multi_row_path_bit_identical_to_single_row() {
        // The serving guarantee: a batched forward over m rows must produce
        // exactly the bits a per-request (one-row) forward produces, so the
        // register-tiled multi-row path has to match the m = 1 streaming
        // path. Sizes straddle MR/NR/KC/NC so quad, row-tail, and
        // column-tail paths are all exercised.
        let mut rng = Rng::new(10);
        for &(m, k, n) in &[
            (32usize, QUAD_MIN_K, NR),
            (TILED_MIN_ROWS + 1, KC + 9, NC + NR + 3),
            (2 * MR, 40, NR - 1),
            (TILED_MIN_ROWS, 2 * KC + 5, 2 * NC + 7),
        ] {
            let a = Tensor::randn([m, k], 1.0, &mut rng);
            let b = Tensor::randn([k, n], 1.0, &mut rng);
            let whole = matmul(&a, &b);
            for i in 0..m {
                let row = Tensor::from_vec(Shape::d2(1, k), a.data()[i * k..(i + 1) * k].to_vec())
                    .unwrap();
                assert_eq!(
                    matmul(&row, &b).data(),
                    &whole.data()[i * n..(i + 1) * n],
                    "row {i} of ({m},{k},{n})"
                );
            }
        }
    }

    #[test]
    fn at_b_whole_batch_equals_per_block_accumulation() {
        // The batched dW property: one Aᵀ·B GEMM over the full k range
        // is bit-identical to accumulating per-row-block GEMMs in order.
        let mut rng = Rng::new(9);
        let (k, m, n, blocks) = (4 * KC + 9, 6, 10, 7);
        let a = Tensor::randn([k, m], 1.0, &mut rng);
        let b = Tensor::randn([k, n], 1.0, &mut rng);

        let mut whole = vec![0.0f32; m * n];
        matmul_at_b_into(&a, &b, &mut whole);

        let mut pieces = vec![0.0f32; m * n];
        for (s, e) in crate::pool::split_ranges(k, blocks) {
            let a_blk =
                Tensor::from_vec(Shape::d2(e - s, m), a.data()[s * m..e * m].to_vec()).unwrap();
            let b_blk =
                Tensor::from_vec(Shape::d2(e - s, n), b.data()[s * n..e * n].to_vec()).unwrap();
            matmul_at_b_into(&a_blk, &b_blk, &mut pieces);
        }
        assert_eq!(whole, pieces);
    }

    #[test]
    fn at_b_multi_row_path_bit_identical_to_single_column() {
        // The dW-tiling guarantee: the register-tiled Aᵀ·B path (rcount ≥
        // TILED_MIN_ROWS) must produce per-output-row bits identical to
        // computing each output row from a single A column (rcount = 1,
        // streaming path).
        let mut rng = Rng::new(11);
        for &(k, m, n) in &[
            (QUAD_MIN_K, 2 * TILED_MIN_ROWS, NR + 3),
            (KC + 9, TILED_MIN_ROWS + 2, NC + NR + 1),
            (2 * KC + 5, TILED_MIN_ROWS, 2 * NR),
        ] {
            let a = Tensor::randn([k, m], 1.0, &mut rng);
            let b = Tensor::randn([k, n], 1.0, &mut rng);
            let whole = matmul_at_b(&a, &b);
            for j in 0..m {
                let col: Vec<f32> = (0..k).map(|p| a.data()[p * m + j]).collect();
                let col = Tensor::from_vec(Shape::d2(k, 1), col).unwrap();
                assert_eq!(
                    matmul_at_b(&col, &b).data(),
                    &whole.data()[j * n..(j + 1) * n],
                    "column {j} of ({k},{m},{n})"
                );
            }
        }
    }

    #[test]
    fn small_batches_and_tails_bit_identical_to_naive_at_every_level() {
        // The serving contract behind the streaming kernel: whatever batch
        // the server forms, whichever kernel it lands on (streaming below
        // TILED_MIN_ROWS, register tiles above, streaming again for their
        // row and column tails) and whichever ISA build runs, every output
        // element sees the naive loop's operation sequence. `out` starts
        // non-zero: both entry points accumulate.
        use crate::simd::{self, SimdLevel};
        let ks = [1, QUAD_MIN_K - 1, KC, KC + 9, 2048];
        let ns = [1, NR - 1, NC, NC + 5, 2048];
        let ms: Vec<usize> = (1..=2 * MR + 1)
            .chain([TILED_MIN_ROWS - 1, TILED_MIN_ROWS, TILED_MIN_ROWS + MR + 1])
            .collect();
        let m_max = *ms.last().unwrap();
        let mut rng = Rng::new(13);
        for &k in &ks {
            for &n in &ns {
                let a = Tensor::randn([m_max, k], 1.0, &mut rng);
                let b = Tensor::randn([k, n], 1.0, &mut rng);
                let seed: Vec<f32> = (0..m_max * n).map(|i| (i as f32 * 0.37).sin()).collect();
                // Rows are independent, so one reference serves every m.
                let mut want = seed.clone();
                naive_into(a.data(), b.data(), (m_max, k, n), &mut want);
                for &m in &ms {
                    let a_m =
                        Tensor::from_vec(Shape::d2(m, k), a.data()[..m * k].to_vec()).unwrap();
                    let at_m = a_m.transpose();
                    for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                        if level > simd::probe() {
                            continue;
                        }
                        let _g = simd::force(level);
                        let mut got = seed[..m * n].to_vec();
                        matmul_into(&a_m, &b, &mut got);
                        assert_eq!(got, want[..m * n], "A·B ({m},{k},{n}) at {level:?}");
                        let mut got = seed[..m * n].to_vec();
                        matmul_at_b_into(&at_m, &b, &mut got);
                        assert_eq!(got, want[..m * n], "Aᵀ·B ({m},{k},{n}) at {level:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn narrow_outputs_bit_identical_to_naive_at_every_level() {
        // A classifier's forward: fewer than NR output columns. From NR
        // rows on it runs on lanes over rows from a transposed A panel, in
        // blocks of NARROW_ROWS rows and KC columns of A; below, on the
        // streaming kernel. Its dW, `Aᵀ·B` with A stored transposed, runs
        // on the same lanes from a copy of Aᵀ at a whole-vector pitch.
        // Either way every element sees the naive ascending-k sequence
        // from its seed, at every level and under serial_scope. A carries
        // NaN and ±Inf, so a lane that leaks into another row's output
        // shows up.
        use crate::simd::{self, SimdLevel};
        let mut rng = Rng::new(43);
        for k in [1usize, 9, 784] {
            for m in [1usize, 2, 7, 8, 32, 64, 100] {
                let mut a = Tensor::randn([m, k], 1.0, &mut rng);
                for (i, v) in a.data_mut().iter_mut().enumerate() {
                    *v *= [1e-3, 1.0, 1e3][i % 3];
                }
                if m > 2 {
                    a.data_mut()[k] = f32::NAN;
                    a.data_mut()[2 * k + k / 2] = [f32::INFINITY, f32::NEG_INFINITY][k % 2];
                }
                let at = a.transpose();
                for n in 1..=NR {
                    let b = Tensor::randn([k, n], 1.0, &mut rng);
                    let seed: Vec<f32> = (0..m * n).map(|i| (i as f32 * 0.37).sin()).collect();
                    let mut want = seed.clone();
                    naive_into(a.data(), b.data(), (m, k, n), &mut want);
                    let same = |got: &[f32]| {
                        got.iter()
                            .zip(&want)
                            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
                    };
                    for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                        if level > simd::probe() {
                            continue;
                        }
                        let _g = simd::force(level);
                        let mut got = seed.clone();
                        matmul_into(&a, &b, &mut got);
                        assert!(same(&got), "({m},{k},{n}) at {level:?}");
                        let mut got = seed.clone();
                        matmul_at_b_into(&at, &b, &mut got);
                        assert!(same(&got), "Aᵀ·B ({m},{k},{n}) at {level:?}");
                    }
                    let mut got = seed.clone();
                    serial_scope(|| matmul_into(&a, &b, &mut got));
                    assert!(same(&got), "serial ({m},{k},{n})");
                    let mut got = seed.clone();
                    serial_scope(|| matmul_at_b_into(&at, &b, &mut got));
                    assert!(same(&got), "serial Aᵀ·B ({m},{k},{n})");
                }
            }
        }
    }

    #[test]
    fn pooled_small_batch_bit_identical_to_serial() {
        // Fewer rows than a register tile, enough flops to be split across
        // the pool (one row per chunk): same bits as the inline path.
        let mut rng = Rng::new(14);
        let (k, n) = (2 * KC + 3, 2 * NC + 5);
        assert!(2 * k * n >= crate::pool::PAR_MIN_FLOPS);
        for m in 1..MR {
            let a = Tensor::randn([m, k], 1.0, &mut rng);
            let b = Tensor::randn([k, n], 1.0, &mut rng);
            let at = a.transpose();
            let mut want = vec![0.0f32; m * n];
            naive_into(a.data(), b.data(), (m, k, n), &mut want);
            assert_eq!(matmul(&a, &b).data(), want, "pooled A·B m={m}");
            assert_eq!(serial_scope(|| matmul(&a, &b)).data(), want);
            assert_eq!(matmul_at_b(&at, &b).data(), want, "pooled Aᵀ·B m={m}");
            assert_eq!(serial_scope(|| matmul_at_b(&at, &b)).data(), want);
        }
    }

    #[test]
    fn a_bt_short_dots_bit_identical_to_dot_lanes_at_every_level() {
        // Short dots (k below two lane chunks) run dot_lanes' sequence
        // across 16 output columns at once; every element must still be
        // exactly `out + dot_lanes(a_row, b_row)`, column tail included.
        use crate::simd::{self, SimdLevel};
        let mut rng = Rng::new(15);
        for k in 1..2 * DOT_LANES {
            for &(m, n) in &[
                (1usize, DOT_COLS),
                (3, DOT_COLS + 1),
                (21, 3 * DOT_COLS + 7),
            ] {
                let a = Tensor::randn([m, k], 1.0, &mut rng);
                let b = Tensor::randn([n, k], 1.0, &mut rng);
                let seed: Vec<f32> = (0..m * n).map(|i| (i as f32 * 0.37).sin()).collect();
                let mut want = seed.clone();
                for (i, w) in want.iter_mut().enumerate() {
                    let (r, c) = (i / n, i % n);
                    *w += dot_lanes(&a.data()[r * k..(r + 1) * k], &b.data()[c * k..(c + 1) * k]);
                }
                for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                    if level > simd::probe() {
                        continue;
                    }
                    let _g = simd::force(level);
                    let mut got = seed.clone();
                    matmul_a_bt_into(&a, &b, &mut got);
                    assert_eq!(got, want, "A·Bᵀ ({m},{k},{n}) at {level:?}");
                }
            }
        }
    }

    #[test]
    fn empty_dimensions_leave_the_output_alone() {
        // k = 0 is a zero product and n = 0 an empty output, on the shapes
        // that take the short-dot and narrow-output paths too.
        let (m, n) = (NR + 1, DOT_COLS + 1);
        let mut out = vec![1.0f32; m * n];
        matmul_a_bt_into(&Tensor::zeros([m, 0]), &Tensor::zeros([n, 0]), &mut out);
        matmul_at_b_into(&Tensor::zeros([0, m]), &Tensor::zeros([0, n]), &mut out);
        assert!(out.iter().all(|&v| v == 1.0));
        matmul_at_b_into(&Tensor::zeros([3, m]), &Tensor::zeros([3, 0]), &mut []);
    }

    #[test]
    fn gemm_bit_identical_across_simd_levels() {
        // The cross-ISA determinism gate: every dispatch level the machine
        // supports must produce the same bits for all three product forms,
        // including the AVX-512 strip-paired tiles.
        use crate::simd::{self, SimdLevel};
        let mut rng = Rng::new(12);
        // n spans 2+ NR tiles so the AVX-512 pair kernel runs; odd sizes
        // exercise the tail paths at every level.
        let (m, k, n) = (TILED_MIN_ROWS + MR + 1, KC + 9, 2 * NR + 5);
        let a = Tensor::randn([m, k], 1.0, &mut rng);
        let b = Tensor::randn([k, n], 1.0, &mut rng);
        let bt = b.transpose();
        let at = a.transpose();
        let mut want: Option<(Vec<f32>, Vec<f32>, Vec<f32>)> = None;
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            if level > simd::probe() {
                continue;
            }
            let _g = simd::force(level);
            let ab = matmul(&a, &b);
            let abt = matmul_a_bt(&a, &bt);
            let atb = matmul_at_b(&at, &b);
            match &want {
                Some((wab, wabt, watb)) => {
                    assert_eq!(ab.data(), &wab[..], "A·B differs at {level:?}");
                    assert_eq!(abt.data(), &wabt[..], "A·Bᵀ differs at {level:?}");
                    assert_eq!(atb.data(), &watb[..], "Aᵀ·B differs at {level:?}");
                }
                None => {
                    want = Some((ab.data().to_vec(), abt.data().to_vec(), atb.data().to_vec()));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "output buffer volume")]
    fn into_rejects_wrong_buffer() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([3, 2]);
        let mut out = vec![0.0f32; 3];
        matmul_into(&a, &b, &mut out);
    }
}
