//! One shard's bounded queue and what travels through it: the [`Pending`]
//! request, its single-shot [`Completion`] and the [`ReplyPayload`] that
//! resolves it. The admission cap (`queue_cap`) and the coalescing rule
//! (`max_batch`, `max_wait`) both live in [`BatchQueue`].

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use super::SubmitError;
use crate::config::ServeConfig;
use crate::event::{WakeSet, Waker};
use crate::metrics::Metrics;
use crate::protocol::{ErrorCode, InferMode};

/// What a queued request eventually receives.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyPayload {
    /// Row-major logits for the request's rows.
    Logits {
        /// Rows (same as the request).
        rows: usize,
        /// Model output features.
        cols: usize,
        /// `rows * cols` values.
        data: Vec<f32>,
    },
    /// The deadline passed before the batch ran.
    Expired,
    /// The request cannot be answered with logits — the shard worker died
    /// with the request queued.
    Failed {
        /// Why — [`ErrorCode::Internal`] today.
        code: ErrorCode,
    },
    /// The request was dropped without running (e.g. its worker died, or
    /// the scheduler was torn down mid-flight).
    Aborted,
}

/// A single-shot reply callback for one submitted request.
///
/// The scheduler invokes it exactly once with the request's
/// [`ReplyPayload`]; if the completion is dropped unfired (a worker died
/// under the request, or the scheduler was torn down), the callback runs
/// with [`ReplyPayload::Aborted`] so no caller waits forever.
///
/// The callback parks the reply wherever its consumer will look and hands
/// back the `Waker` of the event loop that must be told, if any. A batch
/// collects those and wakes each loop once after the whole group is
/// parked; a completion resolved on its own wakes at once.
pub struct Completion {
    inner: Option<Box<dyn FnOnce(ReplyPayload) -> Option<Waker> + Send + 'static>>,
    /// Set at admission; the in-flight gauge falls exactly once when the
    /// completion resolves (fire, dismiss, or drop).
    pub(super) gauge: Option<Arc<Metrics>>,
}

impl Completion {
    /// Wraps a callback to run when the request resolves.
    pub fn new(f: impl FnOnce(ReplyPayload) -> Option<Waker> + Send + 'static) -> Self {
        Completion {
            inner: Some(Box::new(f)),
            gauge: None,
        }
    }

    pub(super) fn release_gauge(&mut self) {
        if let Some(m) = self.gauge.take() {
            Metrics::drop_one(&m.inflight);
        }
    }

    /// Fires the callback with `payload` and hands back the wake it owes.
    fn fire(&mut self, payload: ReplyPayload) -> Option<Waker> {
        self.release_gauge();
        self.inner.take().and_then(|f| f(payload))
    }

    /// Fires the callback with `payload`, waking its loop at once.
    pub fn complete(mut self, payload: ReplyPayload) {
        if let Some(waker) = self.fire(payload) {
            waker.wake();
        }
    }

    /// Fires the callback with `payload` as part of a batch: the wake it
    /// owes joins `wakes` and fires when the batch drops the set.
    pub(super) fn complete_in_batch(mut self, payload: ReplyPayload, wakes: &mut WakeSet) {
        if let Some(waker) = self.fire(payload) {
            wakes.add(waker);
        }
    }

    /// Consumes the completion without firing it — for callers that handle
    /// a rejected submission themselves.
    pub fn dismiss(mut self) {
        self.release_gauge();
        self.inner = None;
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if let Some(waker) = self.fire(ReplyPayload::Aborted) {
            waker.wake();
        }
    }
}

impl fmt::Debug for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Completion")
            .field("armed", &self.inner.is_some())
            .finish()
    }
}

pub(super) struct Pending {
    pub(super) mode: InferMode,
    pub(super) rows: usize,
    pub(super) data: Vec<f32>,
    pub(super) enqueued: Instant,
    pub(super) deadline: Option<Instant>,
    pub(super) done: Completion,
}

#[derive(Default)]
struct QueueState {
    q: VecDeque<Pending>,
    rows_queued: usize,
    draining: bool,
    /// Set when the shard's worker died; admissions bounce with
    /// [`SubmitError::WorkerFailed`] instead of queueing into a void.
    failed: bool,
}

/// One shard's bounded queue plus the wait/wake machinery.
#[derive(Default)]
pub(super) struct BatchQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    /// Lock-free mirror of `rows_queued`, refreshed under the state lock —
    /// the least-loaded dispatcher reads it without taking any queue lock.
    pub(super) depth_rows: AtomicUsize,
}

impl BatchQueue {
    /// Admits a request, or hands it back with the reason it cannot run.
    /// The rejection tuple is boxed: it is the cold path, and `Pending`
    /// is large enough to dominate the `Result` otherwise.
    pub(super) fn push(
        &self,
        p: Pending,
        cfg: &ServeConfig,
    ) -> Result<(), Box<(SubmitError, Pending)>> {
        let mut st = self.state.lock().unwrap();
        if st.draining {
            return Err(Box::new((SubmitError::ShuttingDown, p)));
        }
        if st.failed {
            return Err(Box::new((SubmitError::WorkerFailed, p)));
        }
        // A request larger than the whole queue is still admitted when the
        // queue is idle — otherwise `max_rows_per_request > queue_cap`
        // configurations could never serve their largest requests.
        if st.rows_queued > 0 && st.rows_queued + p.rows > cfg.queue_cap {
            return Err(Box::new((SubmitError::Busy, p)));
        }
        st.rows_queued += p.rows;
        st.q.push_back(p);
        self.depth_rows.store(st.rows_queued, Ordering::Relaxed);
        self.cv.notify_all();
        Ok(())
    }

    /// Blocks until a batch is ready (or the queue is drained dry), then
    /// pops whole requests totalling at most `max_batch` rows — always at
    /// least one request, so oversized requests cannot starve.
    pub(super) fn pop_batch(&self, cfg: &ServeConfig) -> Option<Vec<Pending>> {
        let mut st = self.state.lock().unwrap();
        loop {
            // Outer wait: until any work exists (or drain is done).
            while st.q.is_empty() {
                if st.draining {
                    return None;
                }
                st = self.cv.wait(st).unwrap();
            }
            // Fill wait: give co-riders `max_wait` to arrive, measured from
            // the oldest request's enqueue time (none at the default of zero).
            loop {
                if st.rows_queued >= cfg.max_batch || st.draining {
                    break;
                }
                let oldest = match st.q.front() {
                    Some(p) => p.enqueued,
                    None => break,
                };
                let elapsed = oldest.elapsed();
                if elapsed >= cfg.max_wait {
                    break;
                }
                let (next, timeout) = self.cv.wait_timeout(st, cfg.max_wait - elapsed).unwrap();
                st = next;
                if timeout.timed_out() {
                    break;
                }
            }
            if st.q.is_empty() {
                continue; // drained by a race; re-enter the outer wait
            }
            let mut batch = Vec::new();
            let mut rows = 0usize;
            while let Some(front) = st.q.front() {
                if !batch.is_empty() && rows + front.rows > cfg.max_batch {
                    break;
                }
                let p = st.q.pop_front().unwrap();
                rows += p.rows;
                st.rows_queued -= p.rows;
                batch.push(p);
            }
            self.depth_rows.store(st.rows_queued, Ordering::Relaxed);
            // Freed capacity: admit waiters blocked on `queue_cap`.
            self.cv.notify_all();
            return Some(batch);
        }
    }

    pub(super) fn drain(&self) {
        let mut st = self.state.lock().unwrap();
        st.draining = true;
        self.cv.notify_all();
    }

    /// Marks the queue failed and answers everything queued with
    /// [`ReplyPayload::Failed`]`{Internal}` — the worker is gone, so a
    /// typed reply now beats a deadline-or-hang later.
    pub(super) fn fail_queued(&self) {
        let drained: Vec<Pending> = {
            let mut st = self.state.lock().unwrap();
            st.failed = true;
            st.rows_queued = 0;
            self.depth_rows.store(0, Ordering::Relaxed);
            st.q.drain(..).collect()
        };
        self.cv.notify_all();
        for p in drained {
            p.done.complete(ReplyPayload::Failed {
                code: ErrorCode::Internal,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::WakePipe;
    use crate::scheduler::tests::{registry_with_mlp, PATIENT};
    use crate::scheduler::Scheduler;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn busy_when_queue_full() {
        let reg = registry_with_mlp(6);
        // max_batch == queue_cap == 4 with a long fill wait: 3 queued rows
        // keep the worker in its fill window, so a 2-row admission must
        // bounce off the 4-row cap deterministically.
        let cfg = ServeConfig::builder()
            .max_batch(4)
            .max_wait(Duration::from_secs(5))
            .queue_cap(4)
            .max_rows_per_request(32)
            .build()
            .unwrap();
        let sched = Scheduler::start(&reg, cfg, Arc::new(Metrics::new())).unwrap();
        let _rx1 = sched
            .submit(0, InferMode::Keyed, 3, 4, vec![0.0; 12], None)
            .unwrap();
        let err = sched
            .submit(0, InferMode::Keyed, 2, 4, vec![0.0; 8], None)
            .err();
        assert_eq!(err, Some(SubmitError::Busy));
        sched.drain();
    }

    #[test]
    fn oversized_request_admitted_when_idle() {
        let reg = registry_with_mlp(7);
        let cfg = ServeConfig::builder()
            .max_batch(2)
            .max_wait(Duration::from_millis(1))
            .queue_cap(2)
            .max_rows_per_request(16)
            .build()
            .unwrap();
        let sched = Scheduler::start(&reg, cfg, Arc::new(Metrics::new())).unwrap();
        // 8 rows > queue_cap, but the queue is empty: must be admitted and
        // answered (possibly across multiple internal batches).
        let rx = sched
            .submit(0, InferMode::Keyed, 8, 4, vec![0.1; 32], None)
            .unwrap();
        match rx.recv().unwrap() {
            ReplyPayload::Logits { rows, .. } => assert_eq!(rows, 8),
            other => panic!("expected logits, got {other:?}"),
        }
    }

    #[test]
    fn completion_drop_fires_aborted() {
        let (tx, rx) = mpsc::channel();
        let done = Completion::new(move |p| {
            let _ = tx.send(p);
            None
        });
        drop(done);
        assert_eq!(rx.recv().unwrap(), ReplyPayload::Aborted);
    }

    #[test]
    fn dismissed_completion_stays_silent() {
        let (tx, rx) = mpsc::channel::<ReplyPayload>();
        Completion::new(move |p| {
            let _ = tx.send(p);
            None
        })
        .dismiss();
        assert!(rx.recv().is_err(), "dismiss must not fire the callback");
    }

    #[test]
    fn completion_resolved_outside_a_batch_wakes_at_once() {
        let pipe = WakePipe::new().unwrap();
        let waker = pipe.waker();
        drop(Completion::new(move |_| Some(waker)));
        assert!(
            pipe.readable_within(PATIENT),
            "Aborted must wake its loop immediately"
        );
        assert_eq!(pipe.drain(), 1);
        let waker = pipe.waker();
        Completion::new(move |_| Some(waker)).complete(ReplyPayload::Expired);
        assert!(
            pipe.readable_within(PATIENT),
            "a lone completion must wake immediately"
        );
    }
}
