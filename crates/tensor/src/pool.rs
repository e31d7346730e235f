//! Persistent worker pool for data-parallel kernels.
//!
//! Every parallel hot path in the workspace — the three matmul variants, the
//! direct convolution, and the batch-parallel layer helpers — dispatches
//! through the process-wide pool returned by [`global`]. Workers are spawned
//! once, parked on a condvar while idle, and handed chunk indices of the
//! current job; this replaces the previous scheme of spawning fresh scoped OS
//! threads on every kernel call, whose spawn latency dominated small and
//! medium problem sizes.
//!
//! # Cost model
//!
//! Callers describe work as `items × flops_per_item`. One shared model
//! ([`chunks_for_cost`]) decides whether a job parallelizes at all
//! ([`PAR_MIN_FLOPS`]) and how many chunks it splits into ([`CHUNK_FLOPS`],
//! capped at [`MAX_CHUNKS`]). Chunk grids depend only on the problem size —
//! never on the machine's core count — so reduction orders are reproducible
//! across hosts.
//!
//! # Determinism
//!
//! * Chunks write disjoint output ([`for_chunks_mut`]) or are merged in chunk
//!   index order ([`map_reduce`]), so results are bit-identical regardless of
//!   how many workers execute the chunks — including zero workers.
//! * `HPNN_THREADS=1` (or [`serial_scope`]) forces every job through the
//!   inline single-threaded path.
//!
//! # Nesting
//!
//! A kernel running on a pool worker may itself call into the pool (e.g. a
//! batch-parallel conv chunk invoking matmul). Nested jobs — and jobs
//! submitted while another thread holds the pool — run inline on the calling
//! thread instead of deadlocking on the single job slot.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;

/// Minimum total flops before a kernel leaves the single-threaded path.
pub const PAR_MIN_FLOPS: usize = 1 << 18;

/// Target flops per dispatched chunk.
pub const CHUNK_FLOPS: usize = 1 << 16;

/// Upper bound on chunks per job. Fixed (not core-count-derived) so chunk
/// grids — and therefore reduction orders — are machine-independent.
pub const MAX_CHUNKS: usize = 64;

/// Hard cap on pool worker threads.
const MAX_WORKERS: usize = 64;

thread_local! {
    /// Set while the current thread is a pool worker executing a chunk.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Set while the current thread is inside [`serial_scope`].
    static FORCE_SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// Lifetime-erased pointer to the current job's chunk closure.
///
/// Validity contract: [`ThreadPool::run`] keeps the closure alive (and does
/// not return or unwind) until every claimed chunk has finished executing.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` and `run` upholds the validity contract
// above, so sharing the pointer across worker threads is sound.
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

struct ActiveJob {
    task: TaskPtr,
    total: usize,
    next: usize,
    completed: usize,
    /// Payload of the first chunk panic caught on a worker thread.
    worker_panic: Option<Box<dyn Any + Send>>,
}

#[derive(Default)]
struct State {
    job: Option<ActiveJob>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here while no job (or no unclaimed chunk) exists.
    work_cv: Condvar,
    /// The submitter parks here while claimed chunks are still running.
    done_cv: Condvar,
}

/// A persistent pool of worker threads executing indexed chunks of one job
/// at a time. See the [module docs](self) for the dispatch model.
pub struct ThreadPool {
    shared: &'static Shared,
    /// Worker threads (excluding the submitting thread, which participates).
    workers: usize,
    /// Joined on drop for non-global pools; `None` for the global pool.
    handles: Option<Vec<thread::JoinHandle<()>>>,
}

impl ThreadPool {
    /// Creates a pool with `threads` total execution lanes (the submitting
    /// thread counts as one, so `threads - 1` workers are spawned).
    /// `threads == 1` yields a pool that always runs inline.
    pub fn with_threads(threads: usize) -> Self {
        let workers = threads.clamp(1, MAX_WORKERS) - 1;
        // The shared block is leaked so detached workers can never outlive
        // it; non-global pools shut their workers down on drop instead.
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }));
        let handles = (0..workers)
            .map(|i| {
                thread::Builder::new()
                    .name(format!("hpnn-pool-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            handles: Some(handles),
        }
    }

    /// Total execution lanes (workers plus the submitting thread).
    pub fn threads(&self) -> usize {
        self.workers + 1
    }

    /// Executes `task(0)`, …, `task(nchunks - 1)` exactly once each and
    /// returns when all have finished. Chunks run concurrently on the pool
    /// when it is free; inline (in index order) when the pool is busy, the
    /// thread is itself a pool worker, serial mode is forced, or the job is
    /// too small to split.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any chunk after all chunks have finished.
    pub fn run<F>(&self, nchunks: usize, task: F)
    where
        F: Fn(usize) + Sync,
    {
        let _job_span = hpnn_trace::span!("pool.job", nchunks);
        if nchunks <= 1 || self.workers == 0 || in_pool_context() {
            for i in 0..nchunks {
                task(i);
            }
            return;
        }

        {
            let mut st = self.shared.state.lock().expect("pool lock");
            if st.job.is_some() {
                // Another thread owns the job slot: run inline rather than
                // queueing (keeps latency bounded and cannot deadlock).
                drop(st);
                for i in 0..nchunks {
                    task(i);
                }
                return;
            }
            let short: &(dyn Fn(usize) + Sync) = &task;
            // SAFETY: lifetime erasure only; this function does not return
            // until `completed == total`, so the pointee outlives all uses.
            let task_ptr = TaskPtr(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(short as *const _)
            });
            st.job = Some(ActiveJob {
                task: task_ptr,
                total: nchunks,
                next: 0,
                completed: 0,
                worker_panic: None,
            });
        }
        self.shared.work_cv.notify_all();

        // The submitting thread claims chunks alongside the workers.
        let mut first_panic = None;
        loop {
            let mut st = self.shared.state.lock().expect("pool lock");
            let job = st
                .job
                .as_mut()
                .expect("job present until submitter clears it");
            if job.next < job.total {
                let idx = job.next;
                job.next += 1;
                drop(st);
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                    let _chunk_span = hpnn_trace::span!("pool.chunk", idx);
                    task(idx)
                })) {
                    // Keep draining: workers still hold the task pointer.
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
                let mut st = self.shared.state.lock().expect("pool lock");
                let job = st.job.as_mut().expect("job present");
                job.completed += 1;
                if job.completed == job.total {
                    self.shared.done_cv.notify_all();
                }
                continue;
            }
            // All chunks claimed; wait for stragglers, then clear the slot.
            while st.job.as_ref().expect("job present").completed
                < st.job.as_ref().expect("job present").total
            {
                st = self.shared.done_cv.wait(st).expect("pool lock");
            }
            let job = st.job.take().expect("job present");
            drop(st);
            // The submitter's own payload wins when both sides caught one.
            if let Some(payload) = first_panic.or(job.worker_panic) {
                resume_unwind(payload);
            }
            return;
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        if let Some(handles) = self.handles.take() {
            {
                let mut st = self.shared.state.lock().expect("pool lock");
                st.shutdown = true;
            }
            self.shared.work_cv.notify_all();
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

fn worker_loop(shared: &'static Shared) {
    IN_WORKER.with(|f| f.set(true));
    loop {
        let (task, idx) = {
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if st.shutdown {
                    return;
                }
                match st.job.as_mut() {
                    Some(job) if job.next < job.total => {
                        let idx = job.next;
                        job.next += 1;
                        break (job.task, idx);
                    }
                    _ => st = shared.work_cv.wait(st).expect("pool lock"),
                }
            }
        };
        // SAFETY: `run` keeps the closure alive until `completed == total`;
        // this chunk is counted below only after the call finishes.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _chunk_span = hpnn_trace::span!("pool.chunk", idx);
            unsafe { (*task.0)(idx) }
        }));
        let mut st = shared.state.lock().expect("pool lock");
        let job = st.job.as_mut().expect("job outlives its chunks");
        job.completed += 1;
        if let Err(payload) = outcome {
            job.worker_panic.get_or_insert(payload);
        }
        if job.completed == job.total {
            shared.done_cv.notify_all();
        }
    }
}

/// `true` when [`ThreadPool::run`] must execute inline on this thread.
fn in_pool_context() -> bool {
    IN_WORKER.with(|f| f.get()) || FORCE_SERIAL.with(|f| f.get())
}

/// The process-wide pool. Lazily spawned on first use; sized by the
/// `HPNN_THREADS` environment variable (read once) or, absent that, the
/// machine's available parallelism capped at 16. `HPNN_THREADS=1` gives the
/// deterministic single-threaded fallback: no workers are ever spawned.
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::with_threads(configured_threads()))
}

fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("HPNN_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, MAX_WORKERS);
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Runs `f` with all pool dispatch on this thread forced inline — the
/// single-threaded reference path used by determinism tests and debugging.
pub fn serial_scope<T>(f: impl FnOnce() -> T) -> T {
    FORCE_SERIAL.with(|flag| {
        let prev = flag.replace(true);
        let out = f();
        flag.set(prev);
        out
    })
}

/// Chunk count for a job of `items` independent work items costing
/// `flops_per_item` floating-point operations each.
///
/// Deterministic in the problem size alone: jobs under [`PAR_MIN_FLOPS`]
/// stay single-chunk, larger jobs target [`CHUNK_FLOPS`] per chunk, capped
/// at [`MAX_CHUNKS`] and at `items`.
pub fn chunks_for_cost(items: usize, flops_per_item: usize) -> usize {
    let total = items.saturating_mul(flops_per_item);
    if items < 2 || total < PAR_MIN_FLOPS {
        return 1;
    }
    (total / CHUNK_FLOPS).clamp(2, MAX_CHUNKS).min(items)
}

/// Splits `items` into `parts` nearly-equal contiguous `(start, end)` ranges
/// exactly covering `0..items` (earlier ranges take the remainder).
pub fn split_ranges(items: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.clamp(1, items.max(1));
    let base = items / parts;
    let extra = items % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Interior-mutability cell used to hand each chunk exactly one disjoint
/// output slot from a shared table.
struct SyncSlots<T>(Vec<std::cell::UnsafeCell<T>>);

// SAFETY: every slot index is accessed by exactly one chunk execution, and
// the pool's lock hand-off sequences those accesses before the read-back.
unsafe impl<T: Send> Sync for SyncSlots<T> {}

impl<T> SyncSlots<T> {
    /// Exclusive access to slot `i`.
    ///
    /// # Safety
    ///
    /// The caller must guarantee slot `i` has no other live reference —
    /// here, that each chunk index is executed exactly once.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slot(&self, i: usize) -> &mut T {
        &mut *self.0[i].get()
    }
}

/// Runs `kernel(range, out_chunk)` over `items` work items whose output rows
/// (each `width` floats) live contiguously in `out`, splitting the work
/// according to the [cost model](chunks_for_cost) and dispatching on the
/// [`global`] pool. Each chunk receives the disjoint sub-slice of `out`
/// matching its item range, so results are identical however many threads
/// execute.
///
/// Unlike [`map_reduce`], whose merge order makes the chunk grid part of
/// the result, the chunks here write disjoint output slices and every
/// registered kernel is a pure function of its item range — so the grid
/// can adapt to the machine without affecting a single bit. The chunk
/// count is therefore additionally capped at a small multiple of the pool
/// width: a single-threaded pool gets one chunk (maximizing the row count
/// visible to multi-row kernels such as the matmul micro-kernel), and a
/// wide pool still gets enough chunks to balance load.
///
/// # Panics
///
/// Panics if `out.len() != items * width`.
pub fn for_chunks_mut<F>(
    items: usize,
    width: usize,
    flops_per_item: usize,
    out: &mut [f32],
    kernel: F,
) where
    F: Fn((usize, usize), &mut [f32]) + Sync,
{
    for_grouped_chunks_mut(items, 1, width, flops_per_item, out, kernel);
}

/// [`for_chunks_mut`] for kernels that pay a cost per chunk which up to
/// `group` items share — a GEMM chunk reads all of `B` however few rows it
/// has. Chunks hold at least `group` items, except that the job is still
/// split one chunk per pool thread: splitting finer would repeat the shared
/// cost without putting another thread to work.
///
/// # Panics
///
/// Panics if `out.len() != items * width`.
pub fn for_grouped_chunks_mut<F>(
    items: usize,
    group: usize,
    width: usize,
    flops_per_item: usize,
    out: &mut [f32],
    kernel: F,
) where
    F: Fn((usize, usize), &mut [f32]) + Sync,
{
    assert_eq!(out.len(), items * width, "output buffer volume mismatch");
    let threads = global().threads();
    let cap = if threads <= 1 {
        1
    } else {
        (threads * 4)
            .min(MAX_CHUNKS)
            .min(threads.max(items / group.max(1)))
    };
    let ranges = split_ranges(items, chunks_for_cost(items, flops_per_item).min(cap));
    if ranges.len() <= 1 {
        if items > 0 {
            kernel((0, items), out);
        }
        return;
    }
    // Pre-split `out` into disjoint per-range chunks; hand chunk `i` to the
    // executor of index `i` through a one-shot slot table.
    let mut slots = Vec::with_capacity(ranges.len());
    let mut rest = out;
    for &(s, e) in &ranges {
        let (head, tail) = rest.split_at_mut((e - s) * width);
        slots.push(std::cell::UnsafeCell::new(head));
        rest = tail;
    }
    let slots = SyncSlots(slots);
    global().run(ranges.len(), |i| {
        // SAFETY: index `i` is executed exactly once, so this is the only
        // live reference to slot `i`.
        let chunk: &mut &mut [f32] = unsafe { slots.slot(i) };
        kernel(ranges[i], chunk);
    });
}

/// Runs `kernel(range) -> R` over chunks of `items` work items and merges the
/// per-chunk results **in chunk index order**, regardless of which thread
/// computed each chunk or when it finished. Chunk boundaries come from the
/// [cost model](chunks_for_cost), so the reduction tree is identical on every
/// machine and thread count.
pub fn map_reduce<R, F, M>(items: usize, flops_per_item: usize, kernel: F, mut merge: M)
where
    R: Send,
    F: Fn((usize, usize)) -> R + Sync,
    M: FnMut(R),
{
    if items == 0 {
        return;
    }
    let ranges = split_ranges(items, chunks_for_cost(items, flops_per_item));
    if ranges.len() <= 1 {
        merge(kernel((0, items)));
        return;
    }
    let slots: SyncSlots<Option<R>> = SyncSlots(
        ranges
            .iter()
            .map(|_| std::cell::UnsafeCell::new(None))
            .collect(),
    );
    global().run(ranges.len(), |i| {
        // SAFETY: as in `for_chunks_mut`, slot `i` has exactly one writer.
        *unsafe { slots.slot(i) } = Some(kernel(ranges[i]));
    });
    for slot in slots.0 {
        merge(slot.into_inner().expect("all chunks executed"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn run_executes_every_index_once() {
        let pool = ThreadPool::with_threads(4);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run(100, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::with_threads(1);
        assert_eq!(pool.threads(), 1);
        let main_id = thread::current().id();
        pool.run(8, |_| assert_eq!(thread::current().id(), main_id));
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = ThreadPool::with_threads(3);
        for round in 1..50usize {
            let total = AtomicUsize::new(0);
            pool.run(round, |i| {
                total.fetch_add(i + 1, Ordering::SeqCst);
            });
            assert_eq!(total.load(Ordering::SeqCst), round * (round + 1) / 2);
        }
    }

    #[test]
    fn nested_jobs_run_inline_without_deadlock() {
        let pool = ThreadPool::with_threads(4);
        let outer = AtomicUsize::new(0);
        pool.run(8, |_| {
            // Re-entering the global pool from a job must not deadlock.
            global().run(4, |_| {
                outer.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(outer.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn serial_scope_forces_inline() {
        let pool = ThreadPool::with_threads(4);
        serial_scope(|| {
            let main_id = thread::current().id();
            pool.run(16, |_| assert_eq!(thread::current().id(), main_id));
        });
    }

    #[test]
    #[should_panic(expected = "chunk 3")]
    fn chunk_panic_propagates() {
        let pool = ThreadPool::with_threads(4);
        pool.run(8, |i| {
            if i == 3 {
                panic!("chunk 3");
            }
        });
    }

    #[test]
    fn worker_chunk_panic_keeps_its_message() {
        let pool = ThreadPool::with_threads(4);
        let submitter = thread::current().id();
        let worker_ran = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if thread::current().id() != submitter {
                    worker_ran.store(true, Ordering::SeqCst);
                    panic!("worker chunk {i}");
                }
                // The submitter holds its chunk open until a worker has
                // claimed one, so the only payload there is comes from a
                // worker thread.
                let patience = Instant::now() + Duration::from_secs(10);
                while !worker_ran.load(Ordering::SeqCst) && Instant::now() < patience {
                    thread::yield_now();
                }
            })
        }));
        assert!(
            worker_ran.load(Ordering::SeqCst),
            "no worker claimed a chunk"
        );
        let payload = result.expect_err("the worker's panic must reach the submitter");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert!(
            message.is_some_and(|m| m.starts_with("worker chunk ")),
            "the worker's payload was replaced by {message:?}"
        );
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        let pool = ThreadPool::with_threads(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 0 {
                    panic!("boom");
                }
            })
        }));
        assert!(result.is_err());
        let count = AtomicUsize::new(0);
        pool.run(8, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn cost_model_thresholds() {
        // Below the parallel floor: one chunk.
        assert_eq!(chunks_for_cost(64, 16), 1);
        assert_eq!(chunks_for_cost(1, usize::MAX), 1);
        // 64x64x64 matmul: 2*64^3 flops over 64 rows.
        let chunks = chunks_for_cost(64, 2 * 64 * 64);
        assert!(chunks > 1 && chunks <= MAX_CHUNKS);
        // Huge jobs cap at MAX_CHUNKS.
        assert_eq!(chunks_for_cost(10_000, 1 << 20), MAX_CHUNKS);
        // Never more chunks than items.
        assert!(chunks_for_cost(3, 1 << 30) <= 3);
    }

    #[test]
    fn cost_model_is_machine_independent() {
        // The chunk grid must be a pure function of the problem size.
        for items in [1usize, 7, 64, 1000] {
            for fpi in [0usize, 100, 1 << 16, 1 << 24] {
                let a = chunks_for_cost(items, fpi);
                let b = chunks_for_cost(items, fpi);
                assert_eq!(a, b);
                assert_eq!(split_ranges(items, a), split_ranges(items, b));
            }
        }
    }

    #[test]
    fn split_ranges_cover_exactly() {
        for items in [0usize, 1, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = split_ranges(items, parts);
                let mut prev_end = 0;
                for (s, e) in ranges {
                    assert_eq!(s, prev_end);
                    assert!(e >= s);
                    prev_end = e;
                }
                assert_eq!(prev_end, items);
            }
        }
    }

    #[test]
    fn for_chunks_mut_writes_every_slot() {
        let items = 300;
        let width = 3;
        let mut out = vec![0.0f32; items * width];
        // Large per-item cost forces the parallel path.
        for_chunks_mut(items, width, 1 << 16, &mut out, |range, chunk| {
            for i in range.0..range.1 {
                for j in 0..width {
                    chunk[(i - range.0) * width + j] = (i * width + j) as f32;
                }
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn grouped_chunks_hold_a_group_or_one_chunk_per_thread() {
        let (items, group, width) = (40usize, 16usize, 2usize);
        let mut out = vec![0.0f32; items * width];
        let sizes = Mutex::new(Vec::new());
        // Large per-item cost: the cost model alone would cut 40 chunks.
        for_grouped_chunks_mut(items, group, width, 1 << 20, &mut out, |range, chunk| {
            sizes.lock().unwrap().push(range.1 - range.0);
            chunk.fill((range.1 - range.0) as f32);
        });
        let sizes = sizes.into_inner().unwrap();
        assert_eq!(sizes.iter().sum::<usize>(), items);
        assert!(
            sizes.len() <= global().threads().max(items / group),
            "{} chunks of {sizes:?} on {} threads",
            sizes.len(),
            global().threads()
        );
        assert!(out.iter().all(|&v| v > 0.0), "every item written");
    }

    #[test]
    fn map_reduce_merges_in_index_order() {
        let mut order = Vec::new();
        map_reduce(1000, 1 << 16, |range| range.0, |start| order.push(start));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
        assert!(order.len() > 1, "expected a parallel chunk grid");
    }

    #[test]
    fn map_reduce_empty_and_small() {
        let mut calls = 0;
        map_reduce(0, 1 << 20, |_| 1usize, |_| calls += 1);
        assert_eq!(calls, 0);
        let mut total = 0usize;
        map_reduce(10, 1, |(s, e)| e - s, |n| total += n);
        assert_eq!(total, 10);
    }
}
