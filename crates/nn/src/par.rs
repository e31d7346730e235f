//! Batch-parallel layer helpers.
//!
//! Thin adapters over the persistent worker pool in
//! [`hpnn_tensor::pool`] — no threads are spawned here. Callers describe
//! work as `batch × flops_per_sample`; the pool's shared cost model decides
//! whether and how finely to split it. Chunk grids depend only on the
//! problem size, so per-chunk reductions merge in the same order on every
//! machine and thread count.

use hpnn_tensor::pool;

/// Runs `kernel(sample_range) -> R` over chunks of the batch and reduces the
/// per-chunk results with `merge` in chunk index order. Used for
/// parameter-gradient accumulation where each worker keeps a private
/// accumulator; the fixed merge order keeps gradients reproducible.
pub(crate) fn map_reduce_chunks<R, F, M>(batch: usize, flops_per_sample: usize, kernel: F, merge: M)
where
    R: Send,
    F: Fn((usize, usize)) -> R + Sync,
    M: FnMut(R),
{
    pool::map_reduce(batch, flops_per_sample, kernel, merge);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cost high enough to force a multi-chunk grid for any realistic batch.
    const BIG_COST: usize = 1 << 16;

    #[test]
    fn small_work_stays_single_chunk() {
        let mut calls = 0usize;
        map_reduce_chunks(10, 1, |range| range, |_| calls += 1);
        assert_eq!(calls, 1, "cheap batches must not be split");
    }

    #[test]
    fn map_reduce_sums() {
        let mut total = 0usize;
        map_reduce_chunks(
            100,
            BIG_COST,
            |(s, e)| (s..e).sum::<usize>(),
            |part| total += part,
        );
        assert_eq!(total, (0..100).sum::<usize>());
    }

    #[test]
    fn map_reduce_merge_order_is_fixed() {
        let mut starts = Vec::new();
        map_reduce_chunks(100, BIG_COST, |(s, _)| s, |s| starts.push(s));
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
        assert!(starts.len() > 1, "expected a parallel chunk grid");
    }

    #[test]
    fn map_reduce_empty() {
        let mut calls = 0;
        map_reduce_chunks(0, 1, |_| 1usize, |_| calls += 1);
        assert_eq!(calls, 0);
    }
}
